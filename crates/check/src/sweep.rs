//! Seeded sweeps: many schedules, each checked golden + under sampled
//! fault points, in parallel, with a byte-deterministic report.
//!
//! Parallelism is organized so the report is a pure function of the
//! configuration *excluding* `workers`: schedules are processed in
//! fixed-size chunks (threads split one chunk, then barrier), results are
//! slotted by index, and nothing wall-clock-dependent enters the report.
//! The early-stop decision is taken only at chunk boundaries, so even
//! `stop_on_failure` sweeps run the same schedule set at any worker
//! count.

use crate::checker::{run_schedule, CheckOutcome};
use crate::generate::{fault_kind_cycle, Stream};
use crate::schedule::Schedule;
use rda_core::ProtocolMutations;
use rda_faults::{crashpoint_schedule, FaultKind};
use rda_obs::json::Json;
use rda_obs::json_obj;

/// Schedules per barrier chunk — fixed (never derived from `workers`) so
/// early-stop sweeps are worker-count independent.
const CHUNK: u64 = 8;

/// Sweep parameters.
#[derive(Debug, Clone, Copy)]
pub struct SweepConfig {
    /// Which generator feeds the sweep.
    pub stream: Stream,
    /// Master seed; schedule `i` derives from
    /// `stream.schedule_seed(seed, i)`.
    pub seed: u64,
    /// How many schedules to generate.
    pub schedules: u64,
    /// Sampled fault points per schedule (each cycles crash → torn write
    /// → disk death).
    pub faults_per_schedule: u64,
    /// Worker threads for the sweep itself (≥ 1; each schedule
    /// additionally runs its own slot threads). Does not affect the
    /// report.
    pub workers: usize,
    /// Protocol mutations compiled into the engine under test.
    pub mutations: ProtocolMutations,
    /// Stop at the first chunk that produced a failure.
    pub stop_on_failure: bool,
}

/// A failing check, with everything needed to reproduce it.
#[derive(Debug, Clone)]
pub struct Failure {
    /// Which variant failed: `golden` or `<kind>@<io>`.
    pub variant: String,
    /// The exact schedule (fault included) that failed.
    pub schedule: Schedule,
    /// The violations it produced.
    pub violations: Vec<String>,
}

/// Result of checking one generated schedule and its fault variants.
#[derive(Debug, Clone)]
pub struct ScheduleResult {
    /// Index in the sweep.
    pub index: u64,
    /// Generated schedule name.
    pub name: String,
    /// Array I/Os of the golden (fault-free) run's workload.
    pub workload_ios: u64,
    /// Differential checks executed (golden + fault variants).
    pub checks: u64,
    /// FNV digest over every check's trace + violations — the
    /// determinism witness.
    pub digest: u64,
    /// First failure, if any (remaining variants are not attempted).
    pub failure: Option<Failure>,
}

/// A whole sweep's outcome.
#[derive(Debug, Clone)]
pub struct SweepReport {
    /// Master seed.
    pub seed: u64,
    /// Schedules requested.
    pub requested: u64,
    /// Were protocol mutations active?
    pub mutated: bool,
    /// Per-schedule results, in index order (may be shorter than
    /// `requested` when `stop_on_failure` tripped).
    pub results: Vec<ScheduleResult>,
}

impl SweepReport {
    /// Every failure, in schedule order.
    #[must_use]
    pub fn failures(&self) -> Vec<&Failure> {
        self.results
            .iter()
            .filter_map(|r| r.failure.as_ref())
            .collect()
    }

    /// Did every check pass?
    #[must_use]
    pub fn is_clean(&self) -> bool {
        self.results.iter().all(|r| r.failure.is_none())
    }

    /// Total differential checks executed.
    #[must_use]
    pub fn checks(&self) -> u64 {
        self.results.iter().map(|r| r.checks).sum()
    }

    /// Deterministic JSON: a pure function of the sweep configuration
    /// minus `workers` (byte-identical at any worker count).
    #[must_use]
    pub fn to_json(&self) -> String {
        let results: Vec<Json> = self
            .results
            .iter()
            .map(|r| {
                json_obj! {
                    "index": r.index,
                    "name": r.name,
                    "workload_ios": r.workload_ios,
                    "checks": r.checks,
                    "digest": format!("{:016x}", r.digest),
                    "failure": r.failure.as_ref().map(|f| json_obj! {
                        "variant": f.variant,
                        "violations": f.violations,
                        "schedule": f.schedule.to_json(),
                    }),
                }
            })
            .collect();
        json_obj! {
            "seed": self.seed,
            "requested": self.requested,
            "mutated": self.mutated,
            "clean": self.is_clean(),
            "checks": self.checks(),
            "results": results,
        }
        .to_string()
    }
}

/// Check one generated schedule: golden run first, then each sampled
/// fault variant until the first failure.
#[must_use]
pub fn check_index(cfg: &SweepConfig, index: u64) -> ScheduleResult {
    let base = cfg.stream.generate(cfg.seed, index);
    let golden = run_schedule(&base, cfg.mutations);
    let mut digest = golden.digest();
    let mut checks = 1;
    let workload_ios = golden.workload_ios;
    let mut failure = fail_of(&base, "golden", &golden);

    if failure.is_none() && workload_ios > 0 && cfg.faults_per_schedule > 0 {
        // exhaustive_limit 0: always sample, never enumerate.
        let (points, _) = crashpoint_schedule(
            workload_ios,
            0,
            cfg.faults_per_schedule,
            cfg.stream.schedule_seed(cfg.seed, index) | 1,
        );
        for (j, &k) in points.iter().enumerate() {
            // Double failure is genuine data loss, not a recovery bug: a
            // second dead disk — or a torn page in a group that already
            // lost a platter — exceeds the array's single-failure
            // guarantee. Schedules that kill a disk explicitly get only
            // crash faults planted on top.
            let mut kind = fault_kind_cycle(j);
            if base.has_fail_disk() && matches!(kind, FaultKind::FailDisk | FaultKind::TornWrite) {
                kind = FaultKind::Crash;
            }
            let variant = base.with_fault(crate::schedule::FaultPoint { kind, at_io: k });
            let outcome = run_schedule(&variant, cfg.mutations);
            digest ^= outcome.digest().rotate_left((j as u32 + 1) % 63);
            checks += 1;
            let label = variant.fault.map_or_else(
                || "golden".to_string(),
                |f| format!("{}@{}", f.kind.name(), f.at_io),
            );
            failure = fail_of(&variant, &label, &outcome);
            if failure.is_some() {
                break;
            }
        }
    }

    ScheduleResult {
        index,
        name: base.name,
        workload_ios,
        checks,
        digest,
        failure,
    }
}

fn fail_of(sched: &Schedule, variant: &str, outcome: &CheckOutcome) -> Option<Failure> {
    if outcome.ok() {
        return None;
    }
    Some(Failure {
        variant: variant.to_string(),
        schedule: sched.clone(),
        violations: outcome.violations.clone(),
    })
}

/// Run the sweep. Worker threads (one worker is a pool of one) split each
/// fixed-size chunk of schedule indices; results land in index order
/// regardless of scheduling.
#[must_use]
pub fn sweep(cfg: &SweepConfig) -> SweepReport {
    let mut results: Vec<ScheduleResult> = Vec::with_capacity(cfg.schedules as usize);
    let workers = cfg.workers.max(1);
    let mut next = 0;
    while next < cfg.schedules {
        let chunk: Vec<u64> = (next..(next + CHUNK).min(cfg.schedules)).collect();
        next += CHUNK;
        let mut slot_results: Vec<Option<ScheduleResult>> = vec![None; chunk.len()];
        let counter = std::sync::atomic::AtomicUsize::new(0);
        let slots = std::sync::Mutex::new(&mut slot_results);
        // A panicking worker propagates out of the scope.
        std::thread::scope(|scope| {
            for _ in 0..workers.min(chunk.len()) {
                scope.spawn(|| loop {
                    // ordering: Relaxed — work-queue index claim;
                    // atomicity alone guarantees each slot is taken
                    // once, and results publish via the mutex.
                    let slot = counter.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                    if slot >= chunk.len() {
                        break;
                    }
                    let result = check_index(cfg, chunk[slot]);
                    if let Ok(mut guard) = slots.lock() {
                        guard[slot] = Some(result);
                    }
                });
            }
        });
        let mut tripped = false;
        for result in slot_results.into_iter().flatten() {
            tripped |= result.failure.is_some();
            results.push(result);
        }
        if cfg.stop_on_failure && tripped {
            break;
        }
    }
    SweepReport {
        seed: cfg.seed,
        requested: cfg.schedules,
        mutated: cfg.mutations.any(),
        results,
    }
}
