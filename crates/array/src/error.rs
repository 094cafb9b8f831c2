//! Error type for array operations.

use crate::{DataPageId, DiskId, GroupId};
use std::fmt;

/// Errors surfaced by [`DiskArray`](crate::DiskArray) operations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ArrayError {
    /// The addressed disk is marked failed and the operation cannot be
    /// served even in degraded mode (e.g. two failed disks in one group).
    DiskFailed(DiskId),
    /// A latent sector error was hit while reading.
    MediaError {
        /// Disk on which the bad sector lives.
        disk: DiskId,
        /// Block index within the disk.
        block: u64,
    },
    /// The block holds a half-written (torn) page image — a write to it
    /// lost power partway, and the mismatched per-sector headers betray
    /// it. Rewriting the block heals it.
    TornPage {
        /// Disk on which the torn page lives.
        disk: DiskId,
        /// Block index within the disk.
        block: u64,
    },
    /// A transient I/O error (controller glitch); the disk state is
    /// untouched and a retry may succeed. Only produced by an installed
    /// fault hook.
    Transient {
        /// Disk that reported the glitch.
        disk: DiskId,
        /// Block index within the disk.
        block: u64,
    },
    /// Power was lost: the I/O was refused (and, for a torn write, a
    /// half-written image was left behind). Every subsequent I/O keeps
    /// failing this way until the fault hook is told the machine was
    /// power-cycled.
    Crashed,
    /// More than one page of the same parity group is unavailable, so XOR
    /// reconstruction is impossible.
    Unrecoverable(GroupId),
    /// A data page id outside the configured database size.
    BadDataPage(DataPageId),
    /// A group id outside the configured group count.
    BadGroup(GroupId),
    /// Twin parity slot `P1` addressed on a single-parity array.
    NoTwinParity,
    /// A real storage backend failed underneath the array: a file I/O
    /// error from a read, a write or a flush. Simulated disks never
    /// produce this.
    Backend {
        /// Disk whose backing store failed.
        disk: DiskId,
        /// Operating-system error description.
        msg: String,
    },
    /// A page buffer of the wrong size was supplied.
    PageSizeMismatch {
        /// Size the array was configured with.
        expected: usize,
        /// Size of the supplied buffer.
        got: usize,
    },
}

impl fmt::Display for ArrayError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ArrayError::DiskFailed(d) => write!(f, "{d} has failed"),
            ArrayError::MediaError { disk, block } => {
                write!(f, "latent sector error on {disk} block {block}")
            }
            ArrayError::TornPage { disk, block } => {
                write!(f, "torn (half-written) page on {disk} block {block}")
            }
            ArrayError::Transient { disk, block } => {
                write!(f, "transient I/O error on {disk} block {block}")
            }
            ArrayError::Crashed => write!(f, "power lost: I/O refused until restart"),
            ArrayError::Unrecoverable(g) => {
                write!(
                    f,
                    "group {g} has lost more than one page; cannot reconstruct"
                )
            }
            ArrayError::BadDataPage(p) => write!(f, "data page {p} out of range"),
            ArrayError::BadGroup(g) => write!(f, "group {g} out of range"),
            ArrayError::NoTwinParity => {
                write!(f, "parity slot P1 addressed on a single-parity array")
            }
            ArrayError::Backend { disk, msg } => {
                write!(f, "storage backend error on {disk}: {msg}")
            }
            ArrayError::PageSizeMismatch { expected, got } => {
                write!(
                    f,
                    "page size mismatch: expected {expected} bytes, got {got}"
                )
            }
        }
    }
}

impl std::error::Error for ArrayError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_informative() {
        let e = ArrayError::MediaError {
            disk: DiskId(3),
            block: 77,
        };
        assert!(e.to_string().contains("disk3"));
        assert!(e.to_string().contains("77"));
        let e = ArrayError::PageSizeMismatch {
            expected: 4096,
            got: 512,
        };
        assert!(e.to_string().contains("4096"));
    }
}
