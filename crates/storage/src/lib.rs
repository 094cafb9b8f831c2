//! # rda-disk — the file-backed storage backend
//!
//! Real files behind the [`BlockDevice`](rda_array::BlockDevice) seam:
//! the same parity protocol, fault hooks and recovery machinery as the
//! simulated array, but over a directory of actual files — so "crash"
//! can mean a killed process and "recovery" can mean reopening whatever
//! the file system kept.
//!
//! * [`FileDisk`] — one disk = one data file of slots (image, header,
//!   checksum), written through on the caller's thread and fsynced at
//!   barriers, under the same [`Drive`](rda_array::Drive) fault gate as
//!   the simulated disks: the [`FaultHook`](rda_array::FaultHook) seam
//!   injects the same fault schedules, and torn pages are physical (a
//!   checksum mismatch) so they survive process death.
//! * [`FileMetaStore`] / [`FileLogSink`] — the durable homes of the
//!   state the simulator keeps in modeled NVRAM and of the in-memory log:
//!   one checksummed slot for the staged write intent, and an append-only
//!   journal for the WAL itself.
//! * [`create_database`] / [`reopen_database`] — format a directory, or
//!   read its journals into a [`Database`](rda_core::Database) that
//!   recovers exactly like the simulated crash/recover cycle.
//!
//! ```no_run
//! use rda_core::{DbConfig, EngineKind};
//! use rda_disk::{create_database, reopen_database, DurabilityMode};
//!
//! let dir = std::path::Path::new("/tmp/rda-demo");
//! let cfg = DbConfig::small_test(EngineKind::Rda);
//! let db = create_database(dir, cfg.clone(), DurabilityMode::FsyncOnBarrier).unwrap();
//! let mut tx = db.begin();
//! tx.write(3, b"hello files").unwrap();
//! tx.commit().unwrap();
//! drop(db); // or SIGKILL the process...
//!
//! let db = reopen_database(dir, cfg, DurabilityMode::FsyncOnBarrier).unwrap();
//! db.recover().unwrap();
//! assert_eq!(&db.read_page(3).unwrap()[..11], b"hello files");
//! ```

mod disk;
mod flight;
mod io;
mod meta;
mod open;

pub use disk::{DurabilityMode, FileDisk};
pub use flight::FlightRecorder;
pub use meta::{FileLogSink, FileMetaStore};
pub use open::{
    create_database, create_database_with, reopen_database, reopen_database_with, FileDb,
    StorageError, StorageOptions,
};
