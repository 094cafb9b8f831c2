//! Declarative fault plans.
//!
//! A [`FaultPlan`] is a list of [`FaultSpec`]s, each naming *what* goes
//! wrong ([`FaultKind`]) and *when* ([`FaultSpec::at_io`], a 1-based index
//! into the global sequence of physical I/Os) or *where*
//! ([`FaultSpec::disk`] / [`FaultSpec::block`]). Plans are pure data: the
//! [`FaultInjector`](crate::FaultInjector) evaluates them against the I/O
//! stream, which keeps every run a deterministic function of
//! (workload, plan) — the property crashpoint exploration depends on.

use crate::{FaultKind, IoEvent};

/// One planned fault: a kind plus the conditions under which it fires.
/// All set conditions must match; each spec fires at most once.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FaultSpec {
    /// What goes wrong.
    pub kind: FaultKind,
    /// Fire on exactly the k-th physical I/O (1-based, counted across all
    /// disks). `None` means any index.
    pub at_io: Option<u64>,
    /// Restrict to one disk.
    pub disk: Option<u16>,
    /// Restrict to one block index within the disk.
    pub block: Option<u64>,
    /// Restrict to writes (`TornWrite` on a read degenerates to a plain
    /// crash, so targeted torn-write plans usually set this).
    pub writes_only: bool,
}

impl FaultSpec {
    /// A spec of `kind` with no conditions (fires on the first I/O).
    #[must_use]
    pub fn new(kind: FaultKind) -> FaultSpec {
        FaultSpec {
            kind,
            at_io: None,
            disk: None,
            block: None,
            writes_only: false,
        }
    }

    /// A spec of `kind` firing on the k-th global I/O (1-based).
    #[must_use]
    pub fn at_io(kind: FaultKind, k: u64) -> FaultSpec {
        FaultSpec {
            at_io: Some(k),
            ..FaultSpec::new(kind)
        }
    }

    /// A spec of `kind` firing on the next access to `(disk, block)`.
    #[must_use]
    pub fn on_block(kind: FaultKind, disk: u16, block: u64) -> FaultSpec {
        FaultSpec {
            disk: Some(disk),
            block: Some(block),
            ..FaultSpec::new(kind)
        }
    }

    /// Builder: restrict this spec to write I/Os.
    #[must_use]
    pub fn writes_only(mut self) -> FaultSpec {
        self.writes_only = true;
        self
    }

    /// Builder: restrict this spec to one disk.
    #[must_use]
    pub fn on_disk(mut self, disk: u16) -> FaultSpec {
        self.disk = Some(disk);
        self
    }

    /// Would this spec fire on I/O number `k` described by `ev`?
    #[must_use]
    pub fn matches(&self, k: u64, ev: &IoEvent) -> bool {
        if self.writes_only && !ev.is_write {
            return false;
        }
        if self.at_io.is_some_and(|want| want != k) {
            return false;
        }
        if self.disk.is_some_and(|want| want != ev.disk.0) {
            return false;
        }
        if self.block.is_some_and(|want| want != ev.block) {
            return false;
        }
        true
    }
}

/// An ordered list of [`FaultSpec`]s. On each I/O the injector fires the
/// first not-yet-fired spec that matches; at most one spec fires per I/O.
#[derive(Debug, Clone, Default)]
pub struct FaultPlan {
    /// The planned faults, in priority order.
    pub specs: Vec<FaultSpec>,
}

impl FaultPlan {
    /// An empty plan (every I/O proceeds; useful for pure I/O counting).
    #[must_use]
    pub fn empty() -> FaultPlan {
        FaultPlan::default()
    }

    /// A plan with a single spec.
    #[must_use]
    pub fn single(spec: FaultSpec) -> FaultPlan {
        FaultPlan { specs: vec![spec] }
    }

    /// Builder: append another spec.
    #[must_use]
    pub fn and(mut self, spec: FaultSpec) -> FaultPlan {
        self.specs.push(spec);
        self
    }

    /// Convenience: crash at the k-th global I/O.
    #[must_use]
    pub fn crash_at(k: u64) -> FaultPlan {
        FaultPlan::single(FaultSpec::at_io(FaultKind::Crash, k))
    }

    /// Convenience: torn write at the k-th global I/O.
    #[must_use]
    pub fn torn_write_at(k: u64) -> FaultPlan {
        FaultPlan::single(FaultSpec::at_io(FaultKind::TornWrite, k))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::DiskId;

    fn ev(disk: u16, block: u64, is_write: bool) -> IoEvent {
        IoEvent {
            disk: DiskId(disk),
            block,
            is_write,
        }
    }

    #[test]
    fn at_io_matches_only_that_index() {
        let spec = FaultSpec::at_io(FaultKind::Crash, 7);
        assert!(spec.matches(7, &ev(0, 0, true)));
        assert!(!spec.matches(6, &ev(0, 0, true)));
        assert!(!spec.matches(8, &ev(0, 0, false)));
    }

    #[test]
    fn block_targeting_and_writes_only() {
        let spec = FaultSpec::on_block(FaultKind::TornWrite, 2, 5).writes_only();
        assert!(spec.matches(1, &ev(2, 5, true)));
        assert!(!spec.matches(1, &ev(2, 5, false)));
        assert!(!spec.matches(1, &ev(1, 5, true)));
        assert!(!spec.matches(1, &ev(2, 4, true)));
    }

    #[test]
    fn machine_stopping_kinds_latch() {
        assert!(FaultKind::Crash.stops_machine());
        assert!(FaultKind::TornWrite.stops_machine());
        assert!(!FaultKind::Latent.stops_machine());
        assert!(!FaultKind::FailDisk.stops_machine());
    }
}
