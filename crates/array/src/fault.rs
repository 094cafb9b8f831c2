//! Fault-injection hook interface.
//!
//! Every physical I/O a [`Drive`](crate::Drive) performs, on any medium, is
//! first offered to an installed [`FaultHook`], which may let it proceed or
//! order one of the fault modes ([`FaultKind`]) a recovery protocol must
//! survive:
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
//! This module defines the contract and the [`FaultStats`] counters the
//! array keeps for faults it actually applied; the concrete plans are
//! [`FaultPlan`](crate::FaultPlan), fired by
//! [`FaultInjector`](crate::FaultInjector).

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

/// The fault modes a recovery protocol must survive, in roughly
/// increasing order of violence: what a [`FaultHook`] may order the drive
/// gate to do with one physical I/O instead of performing it normally.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultKind {
    /// Controller reports an error but a retry succeeds (cabling glitch,
    /// command timeout): this one I/O fails with
    /// [`ArrayError::Transient`](crate::ArrayError) and the disk state is
    /// untouched.
    Transient,
    /// Latent sector error: the I/O appears to succeed (a write is even
    /// applied), but the sector silently rots and reads back as
    /// [`ArrayError::MediaError`](crate::ArrayError) until rewritten. The
    /// classic double-failure seed the scrubber exists to weed out.
    Latent,
    /// The whole drive drops off the bus before the I/O; it and everything
    /// after return [`ArrayError::DiskFailed`](crate::ArrayError) until the
    /// disk is replaced and rebuilt.
    FailDisk,
    /// Writes only: power fails mid-write. A half-new / half-old image is
    /// left on the platter, the block is marked torn (reads return
    /// [`ArrayError::TornPage`](crate::ArrayError) until it is rewritten),
    /// and the write itself returns
    /// [`ArrayError::Crashed`](crate::ArrayError). On a read this acts
    /// like [`FaultKind::Crash`].
    TornWrite,
    /// Power fails before the I/O touches the platter: nothing is applied
    /// and [`ArrayError::Crashed`](crate::ArrayError) is returned. The
    /// hook is expected to keep answering `Crash` until
    /// [`FaultHook::power_cycled`] is called.
    Crash,
}

impl FaultKind {
    /// Every kind, in declaration order.
    pub const ALL: [FaultKind; 5] = [
        FaultKind::Transient,
        FaultKind::Latent,
        FaultKind::FailDisk,
        FaultKind::TornWrite,
        FaultKind::Crash,
    ];

    /// Does this kind stop the machine (so the injector must latch and
    /// refuse all further I/O until a power cycle)?
    #[must_use]
    pub fn stops_machine(self) -> bool {
        matches!(self, FaultKind::TornWrite | FaultKind::Crash)
    }

    /// Stable lower-case name, used in JSON reports.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            FaultKind::Transient => "transient",
            FaultKind::Latent => "latent",
            FaultKind::FailDisk => "fail_disk",
            FaultKind::TornWrite => "torn_write",
            FaultKind::Crash => "crash",
        }
    }

    /// The kind whose [`FaultKind::name`] is `name`.
    #[must_use]
    pub fn from_name(name: &str) -> Option<FaultKind> {
        FaultKind::ALL.into_iter().find(|k| k.name() == name)
    }
}

/// A deterministic fault plan consulted on every physical I/O.
///
/// Installed array-wide via
/// [`DiskArray::install_fault_hook`](crate::DiskArray::install_fault_hook).
/// Implementations must be deterministic functions of their own state and
/// the I/O sequence — crashpoint exploration replays a workload and relies
/// on the k-th I/O being the same physical operation every time.
pub trait FaultHook: Send + Sync {
    /// Decide the fate of one physical I/O: `None` performs it normally,
    /// `Some(kind)` orders that fault. Called *before* the disk does
    /// anything, including before its failed/bad-sector checks.
    fn on_io(&self, ev: &IoEvent) -> Option<FaultKind>;

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
/// for a verdict and records an ordered fault in the shared
/// counters. Keeping that pairing, and the gate that applies the verdict,
/// in one place is what lets a fault schedule replay identically on the
/// simulated and file-backed disks.
#[derive(Clone)]
pub struct HookState {
    /// The installed fault plan.
    pub hook: Arc<dyn FaultHook>,
    /// Counters for faults the plan actually ordered.
    pub stats: Arc<FaultStats>,
    /// The array's disk-death tally, which a `FailDisk` verdict also
    /// bumps, so the array reads its deaths without taking a lock.
    deaths: Option<Arc<AtomicU64>>,
}

impl HookState {
    /// Wrap `hook` with a fresh set of zeroed fault counters.
    #[must_use]
    pub fn new(hook: Arc<dyn FaultHook>) -> HookState {
        HookState {
            hook,
            stats: Arc::new(FaultStats::new()),
            deaths: None,
        }
    }

    /// This state, also counting its `FailDisk` verdicts into `deaths`.
    pub(crate) fn tallying_deaths(mut self, deaths: Arc<AtomicU64>) -> HookState {
        self.deaths = Some(deaths);
        self
    }

    /// Offer one physical I/O to the hook and record its verdict.
    #[must_use]
    pub fn consult(&self, disk: DiskId, block: u64, is_write: bool) -> Option<FaultKind> {
        let kind = self.hook.on_io(&IoEvent {
            disk,
            block,
            is_write,
        })?;
        self.stats.record(kind);
        if let (FaultKind::FailDisk, Some(deaths)) = (kind, &self.deaths) {
            // ordering: Relaxed — a tally read by the thread holding the
            // engine that owns the array (see `DiskArray::deaths`).
            deaths.fetch_add(1, Ordering::Relaxed);
        }
        Some(kind)
    }
}

/// Counters for faults the array actually applied, one per
/// [`FaultKind`]. Shared between the array and its disks; read them back
/// through [`DiskArray::fault_stats`](crate::DiskArray::fault_stats).
#[derive(Debug, Default)]
pub struct FaultStats {
    counts: [AtomicU64; FaultKind::ALL.len()],
}

impl FaultStats {
    /// Fresh zeroed counters.
    #[must_use]
    pub fn new() -> FaultStats {
        FaultStats::default()
    }

    pub(crate) fn record(&self, kind: FaultKind) {
        // ordering: Relaxed — stats counter, read after quiesce.
        self.counts[kind as usize].fetch_add(1, Ordering::Relaxed);
    }

    /// Faults of `kind` applied. For [`FaultKind::Crash`] that is every I/O
    /// attempt refused because power was lost: the initial crash signal
    /// plus any attempts made while the hook's latch stayed down.
    #[must_use]
    pub fn count(&self, kind: FaultKind) -> u64 {
        // ordering: Relaxed — counter read, no ordering needed.
        self.counts[kind as usize].load(Ordering::Relaxed)
    }
}
