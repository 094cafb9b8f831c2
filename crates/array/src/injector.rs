//! The [`FaultInjector`]: a deterministic [`FaultHook`] that evaluates a
//! [`FaultPlan`] against the global I/O stream.
//!
//! The injector owns three pieces of state, all of them cheap and
//! deterministic:
//!
//! * a **global I/O counter** — every physical I/O offered to the hook
//!   gets the next 1-based index, shared across all disks, so "the k-th
//!   I/O" names the same platter operation on every replay of the same
//!   workload;
//! * a **crash latch** — once a `Crash` or `TornWrite` spec fires, every
//!   subsequent I/O is refused until the array announces a power cycle
//!   (the restart boundary), exactly like a machine that lost power;
//! * a **fired-fault record** — which specs fired, at which index, on
//!   which physical block; the checker reads this back to know what
//!   actually happened.
//!
//! Latched refusals do *not* advance the I/O counter: the counter numbers
//! the I/Os of the pre-crash execution only, which keeps the index stable
//! for replay no matter how many times a dying operation is retried.

use crate::{FaultHook, FaultKind, FaultPlan, IoEvent};
use rda_obs::sync::Mutex;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

/// One fault that actually fired, as recorded by the injector.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FiredFault {
    /// Global 1-based index of the I/O the fault hit.
    pub io_index: u64,
    /// Which kind fired.
    pub kind: FaultKind,
    /// Disk the I/O addressed.
    pub disk: u16,
    /// Block within the disk.
    pub block: u64,
    /// Whether the I/O was a write.
    pub is_write: bool,
}

/// Deterministic fault hook driven by a [`FaultPlan`].
///
/// Install it array-wide through `Database::install_fault_hook` (or
/// `DiskArray::install_fault_hook` when testing the array alone). With an
/// empty plan it acts as a pure I/O counter.
#[derive(Debug, Default)]
pub struct FaultInjector {
    plan: FaultPlan,
    ios: AtomicU64,
    latched: AtomicBool,
    state: Mutex<InjectorState>,
}

#[derive(Debug, Default)]
struct InjectorState {
    /// One flag per plan spec: has it fired yet?
    spent: Vec<bool>,
    fired: Vec<FiredFault>,
}

impl FaultInjector {
    /// An injector executing `plan`.
    #[must_use]
    pub fn new(plan: FaultPlan) -> FaultInjector {
        let spent = vec![false; plan.specs.len()];
        FaultInjector {
            plan,
            ios: AtomicU64::new(0),
            latched: AtomicBool::new(false),
            state: Mutex::new(InjectorState {
                spent,
                fired: Vec::new(),
            }),
        }
    }

    /// An injector with an empty plan: never faults, just counts I/Os.
    #[must_use]
    pub fn observer() -> FaultInjector {
        FaultInjector::new(FaultPlan::empty())
    }

    /// Physical I/Os offered so far (refused-while-latched attempts are
    /// not counted).
    #[must_use]
    pub fn ios_seen(&self) -> u64 {
        // ordering: Acquire — pairs with the AcqRel fetch_add in on_io
        // so a caller sequencing on the I/O clock also sees the fault
        // bookkeeping that preceded the count.
        self.ios.load(Ordering::Acquire)
    }

    /// Is the crash latch down (machine "off" until a power cycle)?
    #[must_use]
    pub fn is_latched(&self) -> bool {
        // ordering: Acquire — pairs with the Release stores in on_io and
        // power_cycled: seeing the latch implies seeing the fired-fault
        // record published before it.
        self.latched.load(Ordering::Acquire)
    }

    /// Every fault that fired, in firing order.
    #[must_use]
    pub fn fired(&self) -> Vec<FiredFault> {
        self.state.lock().fired.clone()
    }
}

impl FaultHook for FaultInjector {
    fn on_io(&self, ev: &IoEvent) -> Option<FaultKind> {
        // ordering: Acquire — pairs with the latch Release stores; a
        // refused I/O must observe everything the crashing I/O published.
        if self.latched.load(Ordering::Acquire) {
            return Some(FaultKind::Crash);
        }
        // ordering: AcqRel — the counter is the fault-firing clock:
        // Release orders this I/O's count before a latch taken on it,
        // Acquire keeps later plan checks after the count.
        let k = self.ios.fetch_add(1, Ordering::AcqRel) + 1;
        let mut state = self.state.lock();
        for (i, spec) in self.plan.specs.iter().enumerate() {
            if state.spent[i] || !spec.matches(k, ev) {
                continue;
            }
            state.spent[i] = true;
            state.fired.push(FiredFault {
                io_index: k,
                kind: spec.kind,
                disk: ev.disk.0,
                block: ev.block,
                is_write: ev.is_write,
            });
            if spec.kind.stops_machine() {
                // ordering: Release — publishes the FiredFault pushed
                // above to Acquire readers of the latch.
                self.latched.store(true, Ordering::Release);
            }
            return Some(spec.kind);
        }
        None
    }

    fn power_cycled(&self) {
        // ordering: Release — reopening the machine must not sink below
        // whatever reset work the caller did before the cycle.
        self.latched.store(false, Ordering::Release);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{DiskId, FaultSpec};

    fn ev(block: u64) -> IoEvent {
        IoEvent {
            disk: DiskId(0),
            block,
            is_write: true,
        }
    }

    #[test]
    fn observer_counts_and_never_faults() {
        let inj = FaultInjector::observer();
        for b in 0..5 {
            assert_eq!(inj.on_io(&ev(b)), None);
        }
        assert_eq!(inj.ios_seen(), 5);
        assert!(inj.fired().is_empty());
    }

    #[test]
    fn crash_spec_latches_until_power_cycle() {
        let inj = FaultInjector::new(FaultPlan::crash_at(3));
        assert_eq!(inj.on_io(&ev(0)), None);
        assert_eq!(inj.on_io(&ev(1)), None);
        assert_eq!(inj.on_io(&ev(2)), Some(FaultKind::Crash));
        // Latched: refused, and the counter does not advance.
        assert_eq!(inj.on_io(&ev(3)), Some(FaultKind::Crash));
        assert_eq!(inj.on_io(&ev(4)), Some(FaultKind::Crash));
        assert_eq!(inj.ios_seen(), 3);
        inj.power_cycled();
        assert_eq!(inj.on_io(&ev(5)), None);
        assert_eq!(inj.ios_seen(), 4);
        let fired = inj.fired();
        assert_eq!(fired.len(), 1);
        assert_eq!(fired[0].io_index, 3);
        assert_eq!(fired[0].kind, FaultKind::Crash);
    }

    #[test]
    fn specs_fire_once_each() {
        let plan = FaultPlan::single(FaultSpec::on_block(FaultKind::Transient, 0, 7));
        let inj = FaultInjector::new(plan);
        assert_eq!(inj.on_io(&ev(7)), Some(FaultKind::Transient));
        assert_eq!(inj.on_io(&ev(7)), None);
    }
}
