//! Greedy delta-debugging shrinker.
//!
//! Given a failing schedule, repeatedly try structurally smaller
//! candidates — whole transaction roles dropped, then single ops, then
//! the planted fault — accepting a candidate only if it *still fails,
//! deterministically*: two replays must produce the identical violation
//! list (a flaky repro is worse than a big one; every accepted step
//! re-verifies determinism, so the final corpus entry replays
//! byte-for-byte). The schedule vocabulary makes any subsequence
//! well-formed — ops addressing a never-begun or finished slot are
//! skipped by definition — so candidates never need repair.

use crate::checker::run_schedule;
use crate::schedule::Schedule;
use rda_core::ProtocolMutations;

/// A shrink run's result.
#[derive(Debug, Clone)]
pub struct ShrinkOutcome {
    /// The smallest still-failing schedule found.
    pub schedule: Schedule,
    /// Its violations (identical across two replays).
    pub violations: Vec<String>,
    /// Candidate evaluations spent (each is two replays).
    pub evals: u64,
}

/// Does `sched` fail the same way twice? Returns the violation list when
/// it does.
fn fails_deterministically(
    sched: &Schedule,
    mutations: ProtocolMutations,
    evals: &mut u64,
) -> Option<Vec<String>> {
    *evals += 1;
    let first = run_schedule(sched, mutations);
    if first.ok() {
        return None;
    }
    // A planted fault the shortened workload no longer reaches fires in
    // the final checks instead and fails them all by itself — whatever
    // the ops, down to none. That is not the failure being shrunk.
    if sched.fault.is_some_and(|f| f.at_io > first.workload_ios) {
        return None;
    }
    let second = run_schedule(sched, mutations);
    (second.violations == first.violations).then_some(first.violations)
}

/// Shrink `base` (which must fail) to a structurally minimal failing
/// schedule, spending at most `budget` candidate evaluations.
#[must_use]
pub fn shrink(base: &Schedule, mutations: ProtocolMutations, budget: u64) -> ShrinkOutcome {
    let mut evals = 0;
    let mut best = base.clone();
    let mut violations = fails_deterministically(&best, mutations, &mut evals)
        .unwrap_or_else(|| vec!["shrink input did not fail deterministically".to_string()]);

    let mut progress = true;
    while progress && evals < budget {
        progress = false;

        // Pass 1: drop a whole transaction role.
        for slot in best.slots() {
            if evals >= budget {
                break;
            }
            let mut candidate = best.clone();
            candidate.ops.retain(|op| op.slot() != Some(slot));
            if candidate.ops.len() == best.ops.len() {
                continue;
            }
            if let Some(v) = fails_deterministically(&candidate, mutations, &mut evals) {
                candidate.name = format!("{}~", best.name.trim_end_matches('~'));
                best = candidate;
                violations = v;
                progress = true;
            }
        }

        // Pass 2: drop single ops, scanning from the end (later ops are
        // most often cleanup that the failure does not need).
        let mut i = best.ops.len();
        while i > 0 && evals < budget {
            i -= 1;
            let mut candidate = best.clone();
            candidate.ops.remove(i);
            if let Some(v) = fails_deterministically(&candidate, mutations, &mut evals) {
                candidate.name = format!("{}~", best.name.trim_end_matches('~'));
                best = candidate;
                violations = v;
                progress = true;
            }
        }

        // Pass 3: drop the planted fault.
        if best.fault.is_some() && evals < budget {
            let mut candidate = best.clone();
            candidate.fault = None;
            if let Some(v) = fails_deterministically(&candidate, mutations, &mut evals) {
                candidate.name = format!("{}~", best.name.trim_end_matches('~'));
                best = candidate;
                violations = v;
                progress = true;
            }
        }

        // Pass 4: normalize CrashRestart pairs — a crash next to another
        // crash, or leading the schedule, is dead weight pass 2 already
        // handles; nothing extra needed thanks to skip semantics.
    }

    ShrinkOutcome {
        schedule: best,
        violations,
        evals,
    }
}
