//! The trace event taxonomy.
//!
//! Every event is a small `Copy` value built from raw integer ids so
//! `rda-obs` sits below the rest of the workspace (the array, buffer,
//! engine and fault layers all depend on it, never the other way
//! around). The mapping back to typed ids (`GroupId`, `DataPageId`,
//! `TxnId`, …) is one-way and lossless: callers pass `id.0`.

use std::fmt;

/// Which arm of the paper's Figure 3 a steal took.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StealKind {
    /// First uncommitted page in its parity group: flip the working
    /// twin and write data + working parity (the pure-RDA fast path).
    DirtiesGroup,
    /// The group is already dirty on behalf of the same transaction;
    /// the steal rides the existing working parity.
    RidesExisting,
    /// The one-page-per-group rule (or the WAL engine) forced a log
    /// record before the in-place write.
    Logged,
}

impl StealKind {
    /// Short lowercase label for reports.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            StealKind::DirtiesGroup => "dirties-group",
            StealKind::RidesExisting => "rides-existing",
            StealKind::Logged => "logged",
        }
    }
}

/// What happened. Variants mirror the protocol transitions of the
/// paper (steal / commit twin flip / parity vs log UNDO / restart
/// actions) plus the physical layers underneath them.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EventKind {
    /// An uncommitted page left the buffer pool for the array.
    Steal {
        /// Parity group of the stolen page.
        group: u32,
        /// The stolen data page.
        page: u32,
        /// Transaction whose uncommitted data was stolen.
        txn: u64,
        /// Which Figure-3 arm applied.
        kind: StealKind,
    },
    /// Commit flipped a group's committed twin pointer (zero I/O).
    CommitTwinFlip {
        /// Group whose twin pointer flipped.
        group: u32,
        /// Committing transaction.
        txn: u64,
    },
    /// Abort/restart reconstructed `D_old = P ⊕ P′ ⊕ D_new`.
    ParityUndo {
        /// Parity group used for the reconstruction.
        group: u32,
        /// Data page restored.
        page: u32,
        /// Transaction being undone.
        txn: u64,
    },
    /// Abort/restart restored a before-image from the log.
    LogUndo {
        /// Data page restored.
        page: u32,
        /// Transaction being undone.
        txn: u64,
    },
    /// Restart replayed a write intent from the NVRAM journal.
    IntentReplay {
        /// Data page the intent targeted.
        page: u32,
    },
    /// The restart bitmap scan healed a torn working twin.
    TornTwinHeal {
        /// Group whose working parity twin was recomputed.
        group: u32,
    },
    /// The buffer pool evicted a frame.
    Evict {
        /// Page that lost its frame.
        page: u32,
        /// The frame was dirty with live modifiers (a steal).
        steal: bool,
        /// The frame was dirty with no modifiers (plain writeback).
        writeback: bool,
    },
    /// A lock request conflicted (the requester aborts or retries).
    LockWait {
        /// Contended page.
        page: u32,
        /// Requesting transaction.
        txn: u64,
    },
    /// One billed physical page read.
    DiskRead {
        /// Disk index.
        disk: u16,
        /// Block index on that disk.
        block: u64,
    },
    /// One billed physical page write.
    DiskWrite {
        /// Disk index.
        disk: u16,
        /// Block index on that disk.
        block: u64,
    },
    /// Commit-path span: a transaction entered the system.
    TxnBegin {
        /// The new transaction.
        txn: u64,
    },
    /// Commit-path span: commit reached the log force (WAL records and
    /// the commit record are about to be made durable).
    LogForce {
        /// Committing transaction.
        txn: u64,
    },
    /// Commit-path span: commit issued the durability barrier (queue
    /// drain + fsync on the file backend, a no-op wait on `SimDisk`).
    CommitBarrier {
        /// Committing transaction.
        txn: u64,
    },
    /// Commit-path span: commit returned to the caller.
    CommitAck {
        /// Committed transaction.
        txn: u64,
        /// Pages the transaction wrote.
        pages: u32,
    },
}

impl EventKind {
    /// Stable event-type label (used by reports and the lint gate).
    #[must_use]
    pub fn name(&self) -> &'static str {
        match self {
            EventKind::Steal { .. } => "Steal",
            EventKind::CommitTwinFlip { .. } => "CommitTwinFlip",
            EventKind::ParityUndo { .. } => "ParityUndo",
            EventKind::LogUndo { .. } => "LogUndo",
            EventKind::IntentReplay { .. } => "IntentReplay",
            EventKind::TornTwinHeal { .. } => "TornTwinHeal",
            EventKind::Evict { .. } => "Evict",
            EventKind::LockWait { .. } => "LockWait",
            EventKind::DiskRead { .. } => "DiskRead",
            EventKind::DiskWrite { .. } => "DiskWrite",
            EventKind::TxnBegin { .. } => "TxnBegin",
            EventKind::LogForce { .. } => "LogForce",
            EventKind::CommitBarrier { .. } => "CommitBarrier",
            EventKind::CommitAck { .. } => "CommitAck",
        }
    }
}

/// One recorded event: the global billed-I/O clock at emission, a
/// process-wide monotonic sequence number (total emission order, which
/// the I/O clock alone cannot give for zero-I/O events like the commit
/// twin flip), and the payload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceEvent {
    /// Billed-I/O clock value when the event was recorded.
    pub at: u64,
    /// Monotonic per-tracer sequence number.
    pub seq: u64,
    /// The event payload.
    pub kind: EventKind,
}

impl fmt::Display for TraceEvent {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[io {:>5} #{:<5}] ", self.at, self.seq)?;
        match self.kind {
            EventKind::Steal {
                group,
                page,
                txn,
                kind,
            } => write!(
                f,
                "Steal          page {page} group {group} txn {txn} ({})",
                kind.name()
            ),
            EventKind::CommitTwinFlip { group, txn } => {
                write!(f, "CommitTwinFlip group {group} txn {txn}")
            }
            EventKind::ParityUndo { group, page, txn } => {
                write!(f, "ParityUndo     page {page} group {group} txn {txn}")
            }
            EventKind::LogUndo { page, txn } => write!(f, "LogUndo        page {page} txn {txn}"),
            EventKind::IntentReplay { page } => write!(f, "IntentReplay   page {page}"),
            EventKind::TornTwinHeal { group } => write!(f, "TornTwinHeal   group {group}"),
            EventKind::Evict {
                page,
                steal,
                writeback,
            } => {
                let how = if steal {
                    "steal"
                } else if writeback {
                    "writeback"
                } else {
                    "drop"
                };
                write!(f, "Evict          page {page} ({how})")
            }
            EventKind::LockWait { page, txn } => write!(f, "LockWait       page {page} txn {txn}"),
            EventKind::DiskRead { disk, block } => {
                write!(f, "DiskRead       disk {disk} block {block}")
            }
            EventKind::DiskWrite { disk, block } => {
                write!(f, "DiskWrite      disk {disk} block {block}")
            }
            EventKind::TxnBegin { txn } => write!(f, "TxnBegin       txn {txn}"),
            EventKind::LogForce { txn } => write!(f, "LogForce       txn {txn}"),
            EventKind::CommitBarrier { txn } => write!(f, "CommitBarrier  txn {txn}"),
            EventKind::CommitAck { txn, pages } => {
                write!(f, "CommitAck      txn {txn} pages {pages}")
            }
        }
    }
}
