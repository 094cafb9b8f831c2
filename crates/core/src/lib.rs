//! # rda-core — database recovery using redundant disk arrays
//!
//! The primary contribution of *Database Recovery Using Redundant Disk
//! Arrays* (Mourad, Fuchs, Saab; ICDE 1992), implemented over the
//! `rda-array`, `rda-wal`, and `rda-buffer` substrates:
//!
//! * **Parity-group dirty tracking** (§4.1, Figure 3): the in-memory
//!   Dirty_Set decides when a stolen page may ride on the array's parity
//!   instead of being UNDO-logged.
//! * **Twin parity pages** (§4.2, Figures 6–8): each group keeps two parity
//!   pages on distinct disks; the committed one survives any abort or crash
//!   and yields the before-image of the riding page via
//!   `D_old = (P ⊕ P′) ⊕ D_new`, while commit is a zero-I/O timestamp flip
//!   resolved by algorithm *Current_Parity*.
//! * **Transaction manager** with STEAL / FORCE / ¬FORCE / TOC / ACC
//!   policies, page- and record-granularity logging, crash recovery
//!   (analysis → undo-via-parity-or-log → redo → bitmap rebuild) and media
//!   recovery (disk rebuild through the committed twins).
//! * The **¬RDA baseline** (`EngineKind::Wal`) — classical before-image
//!   logging on every steal — under the same API, so the two schemes can be
//!   compared transfer-for-transfer.
//!
//! ```
//! use rda_core::{Database, DbConfig, EngineKind};
//!
//! let db = Database::open(DbConfig::small_test(EngineKind::Rda));
//! let mut tx = db.begin();
//! tx.write(3, b"hello recovery").unwrap();
//! tx.commit().unwrap();
//! assert_eq!(&db.read_page(3).unwrap()[..14], b"hello recovery");
//!
//! // An abort is undone through the parity array, not an UNDO log.
//! let mut tx = db.begin();
//! tx.write(3, b"doomed").unwrap();
//! tx.abort().unwrap();
//! assert_eq!(&db.read_page(3).unwrap()[..14], b"hello recovery");
//! ```

mod archive;
mod audit;
mod backend;
mod chain;
mod config;
mod db;
mod engine;
mod error;
mod gate;
mod group;
mod locks;
mod recovery;
mod scrub;
mod shard;
mod twin;

pub use archive::Archive;
pub use audit::AuditReport;
pub use backend::{BackendSetup, IntentRecord, MetaSink, RestoredState};
pub use chain::ChainDirectory;
pub use config::{
    CheckpointPolicy, DbConfig, EngineKind, EotPolicy, GroupCommit, LogGranularity,
    ProtocolMutations,
};
pub use db::{Database, DbStats, Shard, Transaction};
pub use error::{DbError, Result};
pub use gate::CommitGate;
pub use group::{DirtyInfo, DirtySet, StealClass};
pub use locks::LockTable;
pub use recovery::RecoveryReport;
pub use scrub::ScrubReport;
pub use shard::{ShardMap, ShardedDb, ShardedTxn};
pub use twin::{TwinDirectory, TwinMeta, TwinState};

// Re-export the identifiers users see in APIs.
pub use rda_array::{BlockDevice, DataPageId, DefaultDisk, GroupId, ParitySlot};
pub use rda_wal::{LogRecord, LogSink, TxnId};

// Re-export the observability surface so downstream crates (sim, faults,
// bench, examples) need no direct `rda-obs` dependency to consume it.
pub use rda_obs::{
    monotonic_nanos, protocol_violations, protocol_violations_windowed, Counter, EventKind,
    FlightRecord, Histogram, LockProfile, MetricsRegistry, ObsHub, PhaseStat, RecoveryPhase,
    StealKind, Timeline, TraceEvent, TraceSnapshot, Tracer,
};
