//! Fault-injection hook interface.
//!
//! Every physical I/O a [`Drive`](crate::Drive) performs, on any medium, is
//! first offered to an installed [`FaultHook`], which may let it proceed or
//! order one of the fault modes a recovery protocol must survive:
//!
//! * a **torn write** — power fails mid-write, leaving a half-old /
//!   half-new page image on the platter (detectable afterwards through the
//!   per-sector headers real controllers stamp on each sector);
//! * a **transient error** — the controller reports a failure but a retry
//!   would succeed (cabling glitch, command timeout);
//! * a **latent sector error** — the medium silently rots; the I/O appears
//!   to succeed but the sector is unreadable from then on until rewritten;
//! * a **whole-disk failure** — the drive drops off the bus;
//! * a **crash** — power is lost before the I/O happens; every subsequent
//!   I/O is refused until the machine is power-cycled.
//!
//! The hook *decides*, the drive *applies*: all state changes (torn images,
//! bad-sector marks, failed flags) happen in the drive's one gate, whatever
//! medium lies under it, so the hook can stay a pure, deterministic plan.
//! Concrete plans live in the `rda-faults` crate; this module only defines
//! the contract and the [`FaultStats`] counters the array keeps for faults
//! it actually applied.

use crate::DiskId;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// One physical I/O about to be performed, as seen by a fault hook.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct IoEvent {
    /// The disk the I/O addresses.
    pub disk: DiskId,
    /// Block index within the disk.
    pub block: u64,
    /// `true` for a write, `false` for a read.
    pub is_write: bool,
}

/// What a hook may order the disk to do with one physical I/O.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum FaultAction {
    /// Perform the I/O normally.
    #[default]
    Proceed,
    /// Fail this one I/O with [`ArrayError::Transient`](crate::ArrayError);
    /// the disk state is untouched, so a retry proceeds.
    Transient,
    /// Latent sector error: the I/O appears to succeed (a write is even
    /// applied), but the sector is marked bad and reads back as
    /// [`ArrayError::MediaError`](crate::ArrayError) until rewritten.
    Latent,
    /// Fail the whole disk before the I/O; it and everything after return
    /// [`ArrayError::DiskFailed`](crate::ArrayError) until the disk is
    /// replaced.
    FailDisk,
    /// Writes only: power fails mid-write. A half-new / half-old image is
    /// left on the platter, the block is marked torn (reads return
    /// [`ArrayError::TornPage`](crate::ArrayError) until it is rewritten),
    /// and the write itself returns
    /// [`ArrayError::Crashed`](crate::ArrayError). On a read this acts
    /// like [`FaultAction::Crash`].
    TornWrite,
    /// Power fails before the I/O touches the platter: nothing is applied
    /// and [`ArrayError::Crashed`](crate::ArrayError) is returned. The
    /// hook is expected to keep answering `Crash` until
    /// [`FaultHook::power_cycled`] is called.
    Crash,
}

/// A deterministic fault plan consulted on every physical I/O.
///
/// Installed array-wide via
/// [`DiskArray::install_fault_hook`](crate::DiskArray::install_fault_hook).
/// Implementations must be deterministic functions of their own state and
/// the I/O sequence — crashpoint exploration replays a workload and relies
/// on the k-th I/O being the same physical operation every time.
pub trait FaultHook: Send + Sync {
    /// Decide the fate of one physical I/O. Called *before* the disk does
    /// anything, including before its failed/bad-sector checks.
    fn on_io(&self, ev: &IoEvent) -> FaultAction;

    /// The machine was power-cycled (a restart boundary): a hook holding a
    /// crashed latch must release it so I/O flows again.
    fn power_cycled(&self) {}
}

/// A fault hook plus the shared counters for faults actually applied —
/// the unit [`DiskArray::install_fault_hook`](crate::DiskArray::install_fault_hook)
/// pushes down to every [`BlockDevice`](crate::BlockDevice) of the array.
///
/// Media do not talk to the hook: the [`Drive`](crate::Drive) gate calls
/// [`HookState::consult`] once per physical I/O, which both asks the plan
/// for a verdict and records a non-`Proceed` answer in the shared
/// counters. Keeping that pairing, and the gate that applies the verdict,
/// in one place is what lets a fault schedule replay identically on the
/// simulated and file-backed disks.
#[derive(Clone)]
pub struct HookState {
    /// The installed fault plan.
    pub hook: Arc<dyn FaultHook>,
    /// Counters for faults the plan actually ordered.
    pub stats: Arc<FaultStats>,
}

impl HookState {
    /// Wrap `hook` with a fresh set of zeroed fault counters.
    #[must_use]
    pub fn new(hook: Arc<dyn FaultHook>) -> HookState {
        HookState {
            hook,
            stats: Arc::new(FaultStats::new()),
        }
    }

    /// Offer one physical I/O to the hook and record its verdict.
    #[must_use]
    pub fn consult(&self, disk: DiskId, block: u64, is_write: bool) -> FaultAction {
        let action = self.hook.on_io(&IoEvent {
            disk,
            block,
            is_write,
        });
        self.stats.record(action);
        action
    }
}

/// Counters for faults the array actually applied, one per
/// [`FaultAction`] kind. Shared between the array and its disks; read them
/// back through [`DiskArray::fault_stats`](crate::DiskArray::fault_stats).
#[derive(Debug, Default)]
pub struct FaultStats {
    torn_writes: AtomicU64,
    transient_errors: AtomicU64,
    latent_errors: AtomicU64,
    disk_failures: AtomicU64,
    crashes: AtomicU64,
}

impl FaultStats {
    /// Fresh zeroed counters.
    #[must_use]
    pub fn new() -> FaultStats {
        FaultStats::default()
    }

    pub(crate) fn record(&self, action: FaultAction) {
        match action {
            FaultAction::Proceed => {}
            FaultAction::Transient => {
                // ordering: Relaxed — stats counter, read after quiesce.
                self.transient_errors.fetch_add(1, Ordering::Relaxed);
            }
            FaultAction::Latent => {
                // ordering: Relaxed — stats counter, read after quiesce.
                self.latent_errors.fetch_add(1, Ordering::Relaxed);
            }
            FaultAction::FailDisk => {
                // ordering: Relaxed — stats counter, read after quiesce.
                self.disk_failures.fetch_add(1, Ordering::Relaxed);
            }
            FaultAction::TornWrite => {
                // ordering: Relaxed — stats counter, read after quiesce.
                self.torn_writes.fetch_add(1, Ordering::Relaxed);
            }
            FaultAction::Crash => {
                // ordering: Relaxed — stats counter, read after quiesce.
                self.crashes.fetch_add(1, Ordering::Relaxed);
            }
        }
    }

    /// Torn page writes applied.
    #[must_use]
    pub fn torn_writes(&self) -> u64 {
        // ordering: Relaxed — counter read, no ordering needed.
        self.torn_writes.load(Ordering::Relaxed)
    }

    /// Transient I/O errors returned.
    #[must_use]
    pub fn transient_errors(&self) -> u64 {
        // ordering: Relaxed — counter read, no ordering needed.
        self.transient_errors.load(Ordering::Relaxed)
    }

    /// Latent sector errors planted.
    #[must_use]
    pub fn latent_errors(&self) -> u64 {
        // ordering: Relaxed — counter read, no ordering needed.
        self.latent_errors.load(Ordering::Relaxed)
    }

    /// Whole-disk failures triggered.
    #[must_use]
    pub fn disk_failures(&self) -> u64 {
        // ordering: Relaxed — counter read, no ordering needed.
        self.disk_failures.load(Ordering::Relaxed)
    }

    /// I/O attempts refused because power was lost — the initial crash
    /// signal plus any attempts made while the hook's latch stayed down.
    #[must_use]
    pub fn crashes(&self) -> u64 {
        // ordering: Relaxed — counter read, no ordering needed.
        self.crashes.load(Ordering::Relaxed)
    }
}
