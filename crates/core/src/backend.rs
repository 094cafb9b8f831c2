//! The storage-backend seam: what a *real* (file-backed) backend must
//! supply so a [`Database`](crate::Database) can be reopened over files
//! that survived a process death.
//!
//! The twin parity headers need nothing here: they live in their parity
//! blocks on every backend ([`rda_array::Header`]), and restart rebuilds
//! the in-memory directory by reading them. What the blocks alone do not
//! carry is the staged **write intent** (controller NVRAM): it is
//! journaled *before* the platter writes of its read-modify-write are
//! issued ([`MetaSink::intent_set`]), so a restart can replay an
//! interrupted sequence exactly like the simulated recovery does.
//!
//! A backend hands the engine a [`BackendSetup`]: the disks, the sinks to
//! journal into, and — when reopening — the [`RestoredState`] it read back
//! from its journals. The engine never learns how any of it is encoded.

use rda_array::{DataPageId, GroupId, Page, ParitySlot};
use rda_wal::{LogRecord, LogSink};
use std::sync::Arc;

/// The complete block set of one in-flight read-modify-write, staged in
/// the modeled controller NVRAM before any platter write begins: whole
/// blocks, each image with the header its block takes, so replaying it
/// is idempotent, finishes the interrupted sequence and heals any block
/// it left torn.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct IntentRecord {
    /// Data page being overwritten.
    pub page: DataPageId,
    /// Its new block: zero header, or the claim of the ride it is on.
    pub data: Page,
    /// Parity blocks of the same sequence.
    pub parity: Vec<(GroupId, ParitySlot, Page)>,
}

/// Journal of the staged write intent, which lives in modeled NVRAM on
/// the simulated array. Every call happens *synchronously inside* the
/// state transition it mirrors; the engine takes its next step only after
/// the call returns.
///
/// The durability rule (the one `rda-disk`'s `FileMetaStore` implements):
/// every record is on stable storage when its method returns. An intent
/// is journaled *before* the platter writes it explains, and a restart
/// must never find one of those writes without it. A clear retires an
/// intent whose writes are durable, and lands before any later write
/// that stages no intent of its own: a restart replays a journaled intent
/// verbatim, over whatever was written since.
///
/// A backend need keep only the last call's state, since at most one
/// intent is ever staged: `rda-disk` overwrites one slot in place. A
/// crash inside a call may tear that slot, and a torn slot reads as
/// nothing staged. The engine's order makes that safe: it stages an
/// intent only after a barrier made the previous sequence durable,
/// issues no platter write of the sequence before the call returns, and
/// clears only after a barrier.
pub trait MetaSink: Send + Sync {
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
    /// Journal for the write intent. `None` keeps it memory-only (the
    /// simulated default).
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
        assert!(r.intent.is_none());
        assert_eq!(r.log_base, 0);
    }
}
