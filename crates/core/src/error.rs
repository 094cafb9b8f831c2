//! Engine error type.

use rda_array::{ArrayError, DataPageId};
use rda_wal::{Lsn, TxnId};
use std::fmt;

/// Errors surfaced by the database engine.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DbError {
    /// Underlying array I/O failed.
    Array(ArrayError),
    /// Another transaction holds a conflicting lock. The engine does not
    /// block; callers retry or serialize (the paper assumes page/record
    /// locking keeps concurrent write sets disjoint — footnotes 8 and 12).
    LockConflict {
        /// The page being locked.
        page: DataPageId,
        /// The current holder.
        holder: TxnId,
    },
    /// Operation on a transaction the engine no longer knows (e.g. a handle
    /// that survived a simulated crash).
    UnknownTxn(TxnId),
    /// Operation on a transaction that has already committed or aborted.
    TxnFinished(TxnId),
    /// Page address outside the database.
    BadPage(DataPageId),
    /// Write payload larger than a page, or a record update that overruns
    /// the page boundary.
    PageOverflow {
        /// Offset of the attempted write.
        offset: usize,
        /// Length of the payload.
        len: usize,
        /// Configured page size.
        page_size: usize,
    },
    /// The buffer pool could not make room (all frames pinned, or ¬STEAL
    /// with every frame carrying uncommitted updates).
    BufferWedged,
    /// Record-granularity update attempted while the engine is configured
    /// for page logging, or vice versa where it matters.
    WrongGranularity(&'static str),
    /// Media recovery was asked to rebuild while transactions are active.
    ActiveTransactions(usize),
    /// The database crashed and must run restart recovery before serving
    /// new work.
    NeedsRecovery,
    /// Rollback found no UNDO record in the log for a page the transaction
    /// had propagated under before-image logging — the log was cut above
    /// the transaction's BOT. The low-water rule makes this unreachable;
    /// it is an error rather than a panic so that a broken rule is
    /// something a checker can report.
    UndoRecordMissing {
        /// The transaction being rolled back.
        txn: TxnId,
        /// The page whose before-image is gone.
        page: DataPageId,
    },
    /// An archive cannot be restored because the log no longer reaches
    /// back to it: the commits between the archive's position and the
    /// log's base were truncated away, so rolling forward would silently
    /// skip them. Nothing was written; the database is as it was.
    ArchiveTooOld {
        /// Log position the archive is consistent with.
        archive: Lsn,
        /// Oldest record the log still holds.
        log_base: Lsn,
    },
    /// A cross-shard commit whose decision is durably staged but whose
    /// application was interrupted partway: the transaction **will**
    /// commit — the staged intent is replayed by
    /// `ShardedDb::recover` / `ShardedDb::resolve_in_doubt` — so this is
    /// *not* a presumed-abort failure and the caller must **not** retry
    /// the transaction (the retry and the replay would both apply).
    /// Query `ShardedDb::in_doubt(gid)` to watch for resolution.
    CommitInDoubt {
        /// The cross-shard transaction's global id.
        gid: u64,
        /// The sub-commit error that interrupted application.
        cause: Box<DbError>,
    },
}

impl fmt::Display for DbError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DbError::Array(e) => write!(f, "array error: {e}"),
            DbError::LockConflict { page, holder } => {
                write!(f, "lock conflict on {page} held by {holder}")
            }
            DbError::UnknownTxn(t) => write!(f, "unknown transaction {t}"),
            DbError::TxnFinished(t) => write!(f, "transaction {t} already finished"),
            DbError::BadPage(p) => write!(f, "page {p} out of range"),
            DbError::PageOverflow {
                offset,
                len,
                page_size,
            } => write!(
                f,
                "write of {len} bytes at offset {offset} overflows {page_size}-byte page"
            ),
            DbError::BufferWedged => write!(f, "buffer pool cannot make room"),
            DbError::WrongGranularity(what) => write!(f, "wrong logging granularity: {what}"),
            DbError::ActiveTransactions(n) => {
                write!(
                    f,
                    "operation requires quiescence but {n} transactions are active"
                )
            }
            DbError::NeedsRecovery => {
                write!(f, "database crashed; run restart recovery first")
            }
            DbError::UndoRecordMissing { txn, page } => {
                write!(f, "no UNDO record in the log for {page} of {txn}")
            }
            DbError::ArchiveTooOld { archive, log_base } => write!(
                f,
                "archive taken at {archive} cannot be rolled forward: the log was \
                 truncated to {log_base} since"
            ),
            DbError::CommitInDoubt { gid, cause } => {
                write!(
                    f,
                    "cross-shard commit of G{gid} in doubt (decided; recovery will \
                     finish applying it — do not retry): {cause}"
                )
            }
        }
    }
}

impl std::error::Error for DbError {}

impl From<ArrayError> for DbError {
    fn from(e: ArrayError) -> DbError {
        DbError::Array(e)
    }
}

/// Engine result alias.
pub type Result<T> = std::result::Result<T, DbError>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_mentions_specifics() {
        let e = DbError::LockConflict {
            page: DataPageId(3),
            holder: TxnId(8),
        };
        assert!(e.to_string().contains("D3"));
        assert!(e.to_string().contains("T8"));
        let e = DbError::PageOverflow {
            offset: 10,
            len: 20,
            page_size: 16,
        };
        assert!(e.to_string().contains("16"));
    }

    #[test]
    fn commit_in_doubt_names_gid_and_cause() {
        let e = DbError::CommitInDoubt {
            gid: 42,
            cause: Box::new(DbError::Array(ArrayError::Crashed)),
        };
        let text = e.to_string();
        assert!(text.contains("G42"));
        assert!(text.contains("in doubt"));
        assert!(text.contains("power lost"), "cause rendered: {text}");
    }

    #[test]
    fn array_error_converts() {
        let e: DbError = ArrayError::NoTwinParity.into();
        assert!(matches!(e, DbError::Array(ArrayError::NoTwinParity)));
    }
}
