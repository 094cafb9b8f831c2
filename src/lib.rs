//! # rda — database recovery using redundant disk arrays
//!
//! A Rust reproduction of *Database Recovery Using Redundant Disk Arrays*
//! (A. N. Mourad, W. K. Fuchs, D. G. Saab; ICDE 1992). The paper shows how
//! the parity redundancy already present in a redundant disk array can be
//! exploited for rapid **transaction UNDO** — eliminating most before-image
//! logging — via a *twin-page* scheme for parity pages, on top of the media
//! recovery the array provides anyway.
//!
//! This facade crate re-exports the workspace's crates:
//!
//! * [`array`](mod@array) — simulated redundant disk arrays (RAID-5 rotated parity and
//!   parity striping, twin-parity layouts, degraded mode, rebuild).
//! * [`wal`] — write-ahead logging substrate (page & record logging,
//!   BOT/EOT, duplexed logs, TOC/ACC checkpoints, log chains).
//! * [`buffer`] — database buffer manager (STEAL/¬STEAL, clock replacement).
//! * [`core`] — the paper's contribution: parity-group dirty tracking, twin
//!   parity management with `Current_Parity`, a transaction manager with
//!   parity-based UNDO, crash and media recovery, plus a pure-WAL baseline.
//! * [`model`] — the paper's §5 analytical performance model (Figures 9–13).
//! * [`sim`] — synthetic OLTP workload generation and trace-driven
//!   measurement against the real engine.
//! * [`faults`] — the fault model: deterministic fault plans (torn writes,
//!   transient and latent sector errors, disk death, power loss) and the
//!   injector that fires them on the array's I/O stream.
//! * [`obs`] — observability: the zero-overhead-when-disabled structured
//!   event trace, the lock-free metrics registry (Prometheus/JSON
//!   exporters), and per-phase recovery timelines.
//! * [`check`] — the one judge of what a fault did: seeded
//!   multi-transaction schedules (with crash, torn-write and disk-death
//!   points threaded through the fault seam) replayed by one executor —
//!   one `Database` of one to four shards, one OS thread per
//!   transaction slot — against a sequential reference model, with
//!   exhaustive exploration (the fault at every I/O of one schedule),
//!   delta-debugging shrinking and a replayable regression corpus.
//! * [`disk`] — the file-backed storage backend: real files behind the
//!   same `BlockDevice` seam, written through on the caller's thread and
//!   fsynced at barriers, append-only side-table journals, and a literal
//!   kill-the-process crash model (`create_database`/`reopen_database`).
//!
//! ## Quickstart
//!
//! ```
//! use rda::core::{Database, DbConfig, EngineKind};
//!
//! let db = Database::open(DbConfig::small_test(EngineKind::Rda));
//! let mut tx = db.begin();
//! tx.write(3, b"hello recovery").unwrap();
//! tx.commit().unwrap();
//! assert_eq!(&db.read_page(3).unwrap()[..14], b"hello recovery");
//! ```

pub use rda_array as array;
pub use rda_buffer as buffer;
pub use rda_check as check;
pub use rda_core as core;
pub use rda_disk as disk;
pub use rda_faults as faults;
pub use rda_model as model;
pub use rda_obs as obs;
pub use rda_sim as sim;
pub use rda_wal as wal;
