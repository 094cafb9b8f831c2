//! Exhaustive exploration: one schedule, one fault kind, the fault planted
//! at every I/O in turn.
//!
//! The paper argues (§4.3) that twin-copy parity recovery restores a
//! consistent state from *any* failure point. [`explore`] makes that a
//! checkable property of one schedule. The golden run (no fault) counts
//! the `T` array I/Os of the schedule's workload; then the schedule runs
//! once per I/O `1..=T` with the fault planted there. Every run is an
//! ordinary [`run_schedule`], judged like every sweep check: the reference
//! model, `audit()`, parity verify and the protocol scan. Points fan out
//! over the sweep's index-ordered pool, so the report is byte-identical
//! at any worker count.

use crate::checker::{run_schedule, CheckOutcome};
use crate::schedule::{FaultPoint, Schedule};
use crate::sweep::in_index_order;
use rda_array::FaultKind;
use rda_core::ProtocolMutations;
use rda_obs::json::{Json, ToJson};
use rda_obs::json_obj;

/// One exhaustive exploration.
#[derive(Debug, Clone)]
pub struct Exploration {
    /// The explored schedule's name.
    pub schedule: String,
    /// The fault planted at each point.
    pub kind: FaultKind,
    /// The fault-free run; its `workload_ios` is `T`.
    pub golden: CheckOutcome,
    /// The run with the fault planted at I/O `i + 1`, for every `i < T`.
    pub points: Vec<CheckOutcome>,
}

impl Exploration {
    /// `T`: the array I/Os of the golden run's workload.
    #[must_use]
    pub fn total_ios(&self) -> u64 {
        self.golden.workload_ios
    }

    /// The I/O indices whose run failed, or whose fault never fired.
    #[must_use]
    pub fn failures(&self) -> Vec<u64> {
        (1..)
            .zip(&self.points)
            .filter(|(_, p)| !(p.ok() && p.fault_fired))
            .map(|(k, _)| k)
            .collect()
    }

    /// Did the golden run and every point pass, with every fault fired?
    #[must_use]
    pub fn is_clean(&self) -> bool {
        self.golden.ok() && self.failures().is_empty()
    }
}

/// The report: a summary plus one flat record per point, in I/O order.
/// Billed I/O counts only, never wall-clock, so it is byte-identical for
/// a given schedule and fault at any worker count.
impl ToJson for Exploration {
    fn to_json(&self) -> Json {
        let points: Vec<Json> = (1u64..)
            .zip(&self.points)
            .map(|(k, p)| {
                json_obj! {
                    "io_index": k,
                    "fired": p.fault_fired,
                    "clean": p.ok(),
                    "crashes": p.crashes,
                    "losers": p.recovery.losers,
                    "intent_replays": p.recovery.intent_replays,
                    "torn_twins_healed": p.recovery.torn_twins_healed,
                    "timeline": p.recovery.timeline.to_json(),
                    "violations": p.violations,
                }
            })
            .collect();
        json_obj! {
            "schedule": self.schedule,
            "fault": self.kind.name(),
            "total_ios": self.total_ios(),
            "clean": self.is_clean(),
            "failures": self.failures().len(),
            "golden_violations": self.golden.violations,
            "points": points,
        }
    }
}

/// Plant `kind` at every I/O of `sched`'s fault-free run, one run per
/// I/O, on a pool of `workers` threads. A fault `sched` already carries
/// is ignored.
#[must_use]
pub fn explore(sched: &Schedule, kind: FaultKind, workers: usize) -> Exploration {
    let base = Schedule {
        fault: None,
        ..sched.clone()
    };
    let mutations = ProtocolMutations::default();
    let golden = run_schedule(&base, mutations);
    let points = in_index_order(golden.workload_ios as usize, workers, |i| {
        let at_io = i as u64 + 1;
        run_schedule(&base.with_fault(FaultPoint { kind, at_io }), mutations)
    });
    Exploration {
        schedule: base.name,
        kind,
        golden,
        points,
    }
}
