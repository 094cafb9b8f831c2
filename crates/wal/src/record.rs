//! Log record types.

use rda_array::DataPageId;
use std::fmt;

/// Transaction identifier. Monotonically assigned by the transaction
/// manager; never reused within a database lifetime.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct TxnId(pub u64);

impl fmt::Display for TxnId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "T{}", self.0)
    }
}

/// Kind of checkpoint (paper §2, "Checkpointing Schemes").
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CheckpointKind {
    /// Transaction-Oriented Checkpoint: taken at the end of each
    /// transaction; equivalent to the FORCE discipline.
    Toc,
    /// Action-Consistent Checkpoint: taken while transactions are live but
    /// no update action is in flight.
    Acc,
}

/// A write-ahead log record.
///
/// Page images are stored as raw bytes (the array's page size); record
/// logging stores byte-range before/after diffs instead, which is what
/// makes it cheaper in log volume (§5.3).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum LogRecord {
    /// Begin of transaction. Written to the log *before* the first page
    /// modified by the transaction is stolen (paper §4.3: "A
    /// Begin-Of-Transaction (BOT) record must be written to a log file
    /// after an EOT record ... and before it writes back any modified
    /// pages").
    Bot {
        /// The starting transaction.
        txn: TxnId,
    },
    /// Transaction committed.
    Commit {
        /// The committing transaction.
        txn: TxnId,
    },
    /// Transaction aborted (rollback completed).
    Abort {
        /// The aborted transaction.
        txn: TxnId,
    },
    /// UNDO information: full before-image of a page (page logging).
    BeforeImage {
        /// Owning transaction.
        txn: TxnId,
        /// The page whose pre-update contents follow.
        page: DataPageId,
        /// The pre-update page contents.
        image: Vec<u8>,
    },
    /// REDO information: full after-image of a page (page logging).
    AfterImage {
        /// Owning transaction.
        txn: TxnId,
        /// The updated page.
        page: DataPageId,
        /// The post-update page contents.
        image: Vec<u8>,
    },
    /// Record-granularity update: byte range `offset..offset+len` of `page`
    /// changed from `before` to `after`. UNDO and REDO in one record
    /// (record logging, §5.3; "the log file contains both before- and
    /// after-images").
    RecordUpdate {
        /// Owning transaction.
        txn: TxnId,
        /// The updated page.
        page: DataPageId,
        /// Byte offset of the change within the page.
        offset: u32,
        /// Bytes being replaced (UNDO).
        before: Vec<u8>,
        /// Replacement bytes (REDO).
        after: Vec<u8>,
    },
    /// Record-granularity update carrying only REDO (used when the
    /// before-image is protected by the parity array and need not be
    /// logged).
    RecordRedo {
        /// Owning transaction.
        txn: TxnId,
        /// The updated page.
        page: DataPageId,
        /// Byte offset of the change within the page.
        offset: u32,
        /// Replacement bytes.
        after: Vec<u8>,
    },
    /// Compensation record written during rollback *before* a
    /// parity-reconstructed before-image is installed: it pins the computed
    /// old image in the log so that undo is idempotent if the system
    /// crashes mid-rollback (once the data page has been rewritten, the
    /// twin-parity difference no longer yields the before-image — a
    /// re-run of recovery applies the compensation image instead).
    Compensation {
        /// The transaction being rolled back.
        txn: TxnId,
        /// The page being restored.
        page: DataPageId,
        /// The reconstructed before-image now being installed.
        image: Vec<u8>,
    },
    /// Checkpoint record. For ACC checkpoints, `active` lists the
    /// transactions alive at checkpoint time (redo after a crash starts at
    /// the last checkpoint; §5.2.2).
    Checkpoint {
        /// TOC or ACC.
        kind: CheckpointKind,
        /// Transactions active when the checkpoint was taken.
        active: Vec<TxnId>,
    },
}

impl LogRecord {
    /// The owning transaction, if the record belongs to one.
    #[must_use]
    pub fn txn(&self) -> Option<TxnId> {
        match self {
            LogRecord::Bot { txn }
            | LogRecord::Commit { txn }
            | LogRecord::Abort { txn }
            | LogRecord::BeforeImage { txn, .. }
            | LogRecord::AfterImage { txn, .. }
            | LogRecord::RecordUpdate { txn, .. }
            | LogRecord::RecordRedo { txn, .. }
            | LogRecord::Compensation { txn, .. } => Some(*txn),
            LogRecord::Checkpoint { .. } => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn txn_accessor() {
        assert_eq!(LogRecord::Bot { txn: TxnId(3) }.txn(), Some(TxnId(3)));
        assert_eq!(
            LogRecord::Checkpoint {
                kind: CheckpointKind::Acc,
                active: vec![]
            }
            .txn(),
            None
        );
    }
}
