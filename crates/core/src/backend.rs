//! The storage-backend seam: what a *real* (file-backed) backend must
//! supply so a [`Database`](crate::Database) can be reopened over files
//! that survived a process death.
//!
//! On the simulated array everything in [`Durable`](crate::engine::Durable)
//! trivially "survives" a crash because the process keeps running. A real
//! backend must persist two things the platter pages alone do not carry:
//!
//! * the **twin parity headers** ([`TwinMeta`]) — in the paper they travel
//!   inside the parity pages; here the pages are raw bytes, so the headers
//!   are journaled out-of-band through [`MetaSink::twin_meta`]. A working
//!   twin's header names its rider (transaction and page), which is all
//!   restart needs to find the pages a loser stole onto the parity;
//! * the staged **write intent** (controller NVRAM) — journaled *before*
//!   the platter writes of its read-modify-write are issued
//!   ([`MetaSink::intent_set`]), so a restart can replay an interrupted
//!   sequence exactly like the simulated recovery does.
//!
//! A backend hands the engine a [`BackendSetup`]: the disks, the sinks to
//! journal into, and — when reopening — the [`RestoredState`] it read back
//! from its journals. The engine never learns how any of it is encoded.

use crate::twin::TwinMeta;
use rda_wal::{LogRecord, LogSink};
use std::sync::Arc;

/// One staged read-modify-write, in backend-portable form (absolute page
/// images, so replaying it is idempotent).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct IntentRecord {
    /// Data page being overwritten.
    pub page: u32,
    /// New contents of the data page.
    pub data: Vec<u8>,
    /// Parity pages of the same sequence: `(group, slot index, contents)`.
    pub parity: Vec<(u32, u8, Vec<u8>)>,
}

/// Journal of the durable metadata that, on the simulated array, lives in
/// page headers and modeled NVRAM. Every call happens *synchronously
/// inside* the state transition it mirrors; the engine takes its next step
/// only after the call returns.
///
/// The durability rule (the one `rda-disk`'s `FileMetaStore` implements):
/// every record is on stable storage when its method returns — twin
/// headers ([`twin_meta`](MetaSink::twin_meta),
/// [`twin_metas`](MetaSink::twin_metas)) and the staged intent
/// ([`intent_set`](MetaSink::intent_set),
/// [`intent_clear`](MetaSink::intent_clear)). A working claim and an
/// intent are journaled *before* the platter writes they explain, a
/// commit flip or an invalidation *after* the work it records, and in
/// both orders a restart must never find the later step without the
/// record. A clear retires an intent whose writes are durable, and lands
/// before any later write that stages no intent of its own: a restart
/// replays a journaled intent verbatim, over whatever was written since.
///
/// A journal may compact itself inside any of these calls (`rda-disk`
/// replaces `meta.journal` by a snapshot of the state it encodes once the
/// file has outgrown that snapshot by a fixed floor). That is invisible
/// here: the compacted journal is durable before it takes the old one's
/// place, and whatever an earlier call reported stable still is.
pub trait MetaSink: Send + Sync {
    /// A group's twin headers changed (flip, invalidation, working claim
    /// with its rider). Durable on return.
    fn twin_meta(&self, group: u32, meta: TwinMeta);
    /// Several groups' twin headers changed in one step — the flips of one
    /// committing transaction, in group order. One durable step: on return
    /// all of them are stable, and a crash inside the call leaves a prefix
    /// of the slice applied, never a later header without an earlier one.
    /// The default is [`twin_meta`](MetaSink::twin_meta) once per entry;
    /// a journal overrides it to pay for one write and one flush.
    fn twin_metas(&self, metas: &[(u32, TwinMeta)]) {
        for &(group, meta) in metas {
            self.twin_meta(group, meta);
        }
    }
    /// A read-modify-write staged its write set. Durable on return; the
    /// platter writes follow it.
    fn intent_set(&self, intent: &IntentRecord);
    /// The staged intent is retired: its writes are durable (or
    /// recovery replayed them). Durable on return.
    fn intent_clear(&self);
}

/// What a backend read back from its journals when reopening a database
/// over surviving files.
#[derive(Debug, Clone, Default)]
pub struct RestoredState {
    /// Twin headers per group, in group order. Empty means "freshly
    /// formatted" (every group in its initial committed/obsolete state).
    /// Their working claims are the pages restart undoes via parity.
    pub twin_metas: Vec<TwinMeta>,
    /// A staged intent that was never superseded — restart recovery
    /// replays it.
    pub intent: Option<IntentRecord>,
    /// LSN of the first surviving log record (earlier ones truncated).
    pub log_base: u64,
    /// The durable log records, in LSN order from `log_base`.
    pub log_records: Vec<LogRecord>,
}

/// Everything [`Database::open_with`](crate::Database::open_with) needs
/// from a storage backend: the block devices plus the metadata seams.
pub struct BackendSetup<D> {
    /// One device per spindle, ordered by [`DiskId`](rda_array::DiskId).
    pub disks: Vec<D>,
    /// Journal for twin headers and the write intent. `None`
    /// keeps all of it memory-only (the simulated default).
    pub meta_sink: Option<Arc<dyn MetaSink>>,
    /// Durable mirror of the write-ahead log. `None` keeps the log
    /// memory-only.
    pub log_sink: Option<Arc<dyn LogSink>>,
    /// State read back from the journals when reopening; `None` for a
    /// fresh database. When present the engine comes up in
    /// needs-recovery state and [`Database::recover`](crate::Database)
    /// must run before new work.
    pub restored: Option<RestoredState>,
}

impl<D> BackendSetup<D> {
    /// A fresh, memory-only setup over the given disks (no journaling —
    /// used by tests and the simulated default path).
    #[must_use]
    pub fn fresh(disks: Vec<D>) -> BackendSetup<D> {
        BackendSetup {
            disks,
            meta_sink: None,
            log_sink: None,
            restored: None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fresh_setup_has_no_seams() {
        let setup: BackendSetup<u8> = BackendSetup::fresh(vec![1, 2, 3]);
        assert_eq!(setup.disks.len(), 3);
        assert!(setup.meta_sink.is_none());
        assert!(setup.log_sink.is_none());
        assert!(setup.restored.is_none());
    }

    #[test]
    fn restored_state_default_is_empty() {
        let r = RestoredState::default();
        assert!(r.twin_metas.is_empty());
        assert!(r.intent.is_none());
        assert_eq!(r.log_base, 0);
    }
}
