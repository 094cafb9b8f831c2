//! # rda-wal — write-ahead logging substrate
//!
//! The logging machinery assumed by *Database Recovery Using Redundant Disk
//! Arrays* (ICDE 1992). The paper's recovery algorithms — both the
//! traditional baselines and the RDA scheme — sit on a conventional log:
//!
//! * **Page logging** (before/after page images) and **record logging**
//!   (byte-range diffs), the two granularities compared in §5.2 and §5.3.
//! * **BOT / EOT records**: a Begin-Of-Transaction record is written before
//!   any page of the transaction is stolen; commit and abort records end a
//!   transaction (§4.3).
//! * **Checkpoints**: transaction-oriented (TOC — implied by FORCE at EOT)
//!   and action-consistent (ACC) checkpoint records (§2, §5.2.2).
//! * **Duplexed log files**: the paper stores the log on more than one
//!   device "since ... an operator error damages one disk in the array";
//!   the store writes every log page `copies` times and counts transfers
//!   accordingly.
//!
//! The log is split into a durable [`LogStore`] (survives a simulated
//! crash) and a volatile [`LogManager`] writer; [`LogManager::crash`]
//! discards unforced records exactly as a power failure would.

pub mod codec;
mod manager;
mod record;
mod scan;
mod store;

pub use manager::{ForceStats, LogManager};
pub use record::{CheckpointKind, LogRecord, TxnId};
pub use scan::{Analysis, TxnOutcome};
pub use store::{LogConfig, LogSink, LogStore, Lsn};

/// Errors from log encode/decode (a decode failure indicates a torn or
/// corrupted record — in this simulated setting it is always a bug).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WalError {
    /// Record bytes could not be decoded.
    Corrupt(&'static str),
}

impl std::fmt::Display for WalError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WalError::Corrupt(what) => write!(f, "corrupt log record: {what}"),
        }
    }
}

impl std::error::Error for WalError {}
