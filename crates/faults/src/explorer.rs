//! Crashpoint exploration: crash a workload at *every* I/O and prove
//! recovery works from each one.
//!
//! The paper argues (§4.3) that twin-copy parity recovery restores a
//! consistent state from *any* failure point. This module turns that
//! claim into a checkable property:
//!
//! 1. **Golden run** — replay the workload trace once against a fresh
//!    database with a pure-counting injector to learn `T`, the total
//!    number of physical I/Os, and to establish the expected final state.
//! 2. **Exploration** — for each candidate crashpoint `k` (every
//!    `1..=T` when `T` is within [`ExplorerConfig::exhaustive_limit`],
//!    otherwise a seeded sample), replay the same trace against a fresh
//!    database with a fault planted at the k-th I/O, run restart
//!    recovery, and verify the survivor.
//! 3. **Verification** — the recovered database must pass the
//!    cross-layer invariant audit, the billed parity scrub, and an
//!    *exact* durability oracle: a page holds the value written by
//!    transaction `t` iff `t`'s `commit()` returned `Ok` before the
//!    crashpoint. The oracle is exact because a commit acknowledgement
//!    is issued only after the commit record is forced — an operation
//!    that observes the crash can never belong to a committed
//!    transaction.
//!
//! Replay is sequential (one transaction at a time), which makes the
//! physical I/O sequence — and therefore "the k-th I/O" — a pure
//! function of (config, trace, seed). Crashpoints fan out over a pool of
//! [`ExplorerConfig::workers`] threads, one worker included, and land in
//! I/O order.
//!
//! The report renders through [`ToJson`]: one summary object plus one
//! flat record per explored crashpoint. It is the artifact the CI
//! crashpoint job archives, so its shape is part of this crate's
//! contract, and it is byte-identical for a given (config, trace, seed)
//! at any worker count. [`CrashpointReport::to_json_timed`] adds each
//! phase's wall-clock for people to read.

use crate::injector::FaultInjector;
use crate::plan::{FaultKind, FaultPlan};
use rda_core::{Database, DbConfig, DbError, LogGranularity, RecoveryPhase, Timeline, Transaction};
use rda_obs::json::{Json, ToJson};
use rda_obs::json_obj;
use rda_obs::rng::Rng;
use rda_sim::{AccessKind, TxnScript};
use std::collections::{BTreeMap, BTreeSet};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Which fault the explorer plants at each candidate I/O.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ExploreMode {
    /// Power loss before the I/O (clean crash).
    Crash,
    /// Power loss mid-write: the targeted page is left half-old /
    /// half-new on the platter before the machine stops.
    TornWrite,
    /// The disk the I/O addresses dies; the workload continues degraded,
    /// then the disk is rebuilt and the state verified.
    FailDisk,
}

impl ExploreMode {
    /// Stable lower-case name, used in JSON reports.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            ExploreMode::Crash => "crash",
            ExploreMode::TornWrite => "torn_write",
            ExploreMode::FailDisk => "fail_disk",
        }
    }

    fn plan_at(self, k: u64) -> FaultPlan {
        match self {
            ExploreMode::Crash => FaultPlan::crash_at(k),
            ExploreMode::TornWrite => FaultPlan::torn_write_at(k),
            ExploreMode::FailDisk => FaultPlan::fail_disk_at(k),
        }
    }
}

/// Exploration parameters.
#[derive(Debug, Clone, Copy)]
pub struct ExplorerConfig {
    /// Fault planted at each crashpoint.
    pub mode: ExploreMode,
    /// Explore every I/O index when the golden run performs at most this
    /// many I/Os; otherwise fall back to seeded sampling.
    pub exhaustive_limit: u64,
    /// Number of distinct crashpoints to sample above the exhaustive
    /// limit.
    pub samples: u64,
    /// Seed for both the sampled crashpoint choice and the page contents
    /// written during replay.
    pub seed: u64,
    /// Worker threads to fan crashpoint replays over. `0` means
    /// `available_parallelism`. Each worker opens its own fresh
    /// [`Database`] per crashpoint, and results are collected by
    /// crashpoint index, so the report is identical for every worker
    /// count.
    pub workers: usize,
}

impl ExplorerConfig {
    /// Defaults: crash mode, exhaustive up to 512 I/Os, 64 samples above
    /// that, worker pool sized to `available_parallelism`.
    #[must_use]
    pub fn new(mode: ExploreMode) -> ExplorerConfig {
        ExplorerConfig {
            mode,
            exhaustive_limit: 512,
            samples: 64,
            seed: 0xFA17,
            workers: 0,
        }
    }

    /// The worker-pool width [`explore`] will actually use: `workers`,
    /// or `available_parallelism` when it is 0.
    #[must_use]
    pub fn effective_workers(&self) -> usize {
        if self.workers != 0 {
            return self.workers;
        }
        std::thread::available_parallelism().map_or(1, std::num::NonZero::get)
    }
}

/// Outcome of recovering from one crashpoint.
#[derive(Debug, Clone)]
pub struct Crashpoint {
    /// The global I/O index the fault was planted at (1-based).
    pub io_index: u64,
    /// The fault kind that actually fired, if any.
    pub fired: Option<FaultKind>,
    /// Transactions whose `commit()` was acknowledged before the fault —
    /// the ones the durability oracle requires to survive.
    pub committed_before: u64,
    /// Loser transactions rolled back by restart recovery.
    pub losers: u64,
    /// Staged write intents replayed (interrupted read-modify-writes).
    pub intent_replays: u64,
    /// Torn parity twins healed during recovery.
    pub torn_twins_healed: u64,
    /// Per-phase recovery breakdown: restart phases from
    /// [`rda_core::RecoveryReport`], preceded by a `media_rebuild` phase
    /// in [`ExploreMode::FailDisk`]. The billed I/O counts are
    /// deterministic; the wall-clock inside is host-dependent and only
    /// surfaced by the timed JSON rendering.
    pub timeline: Timeline,
    /// Everything that went wrong at this crashpoint (empty ⇔ clean).
    pub violations: Vec<String>,
}

impl Crashpoint {
    /// Did recovery from this crashpoint verify clean?
    #[must_use]
    pub fn is_clean(&self) -> bool {
        self.violations.is_empty()
    }

    fn render(&self, timed: bool) -> Json {
        json_obj! {
            "io_index": self.io_index,
            "fired": self.fired.map(FaultKind::name),
            "clean": self.is_clean(),
            "committed_before": self.committed_before,
            "losers": self.losers,
            "intent_replays": self.intent_replays,
            "torn_twins_healed": self.torn_twins_healed,
            "timeline": self.timeline.to_json(timed),
            "violations": self.violations,
        }
    }
}

/// How much work one explorer worker did. Deliberately *not* part of
/// the report's JSON: wall-clock depends on the host, and the JSON
/// report must stay byte-identical across worker counts.
#[derive(Debug, Clone, Copy)]
pub struct WorkerTiming {
    /// Worker index (0-based).
    pub worker: usize,
    /// Crashpoints this worker replayed.
    pub points: u64,
    /// Busy wall-clock of this worker, from first claim to pool drain.
    pub elapsed: Duration,
}

/// Full result of one exploration.
#[derive(Debug, Clone)]
pub struct CrashpointReport {
    /// The fault mode explored.
    pub mode: ExploreMode,
    /// Physical I/Os the golden (fault-free) run performed.
    pub total_ios: u64,
    /// Whether every I/O index was explored (vs. a seeded sample).
    pub exhaustive: bool,
    /// Transactions committed by the golden run.
    pub golden_committed: u64,
    /// Problems with the golden run itself (must be empty for the
    /// exploration to mean anything).
    pub golden_violations: Vec<String>,
    /// One entry per explored crashpoint, in increasing I/O order.
    pub points: Vec<Crashpoint>,
    /// Per-worker replay timing (one entry per pool worker, sorted by
    /// worker index). Excluded from the report's JSON.
    pub worker_timings: Vec<WorkerTiming>,
}

impl CrashpointReport {
    /// Did the golden run and every explored crashpoint verify clean?
    #[must_use]
    pub fn is_clean(&self) -> bool {
        self.golden_violations.is_empty() && self.points.iter().all(Crashpoint::is_clean)
    }

    /// The crashpoints that failed verification.
    #[must_use]
    pub fn failures(&self) -> Vec<&Crashpoint> {
        self.points.iter().filter(|p| !p.is_clean()).collect()
    }

    /// Like the [`ToJson`] rendering, but each timeline phase also
    /// carries `wall_us`. Host-dependent — for people to read, never for
    /// byte comparison.
    #[must_use]
    pub fn to_json_timed(&self) -> Json {
        self.render(true)
    }

    fn render(&self, timed: bool) -> Json {
        let points: Vec<Json> = self.points.iter().map(|p| p.render(timed)).collect();
        json_obj! {
            "mode": self.mode.name(),
            "total_ios": self.total_ios,
            "exhaustive": self.exhaustive,
            "explored": self.points.len(),
            "clean": self.is_clean(),
            "failures": self.failures().len(),
            "golden_committed": self.golden_committed,
            "golden_violations": self.golden_violations,
            "points": points,
        }
    }
}

/// The whole report as one JSON object. Byte-identical for a given
/// (config, trace, seed) regardless of worker count: per-phase timelines
/// carry billed I/O counts, never wall-clock.
impl ToJson for CrashpointReport {
    fn to_json(&self) -> Json {
        self.render(false)
    }
}

/// Deterministic page payload for transaction `txn`'s `pos`-th access.
/// Mirrors the simulator driver's content scheme: one nonzero byte per
/// write, so a recovered page identifies exactly which write it holds.
#[must_use]
pub fn value_byte(seed: u64, txn: usize, pos: usize) -> u8 {
    let mixed = seed
        ^ (txn as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15)
        ^ (pos as u64).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    let mixed = mixed.wrapping_mul(0x94D0_49BB_1331_11EB);
    ((mixed >> 32) as u8) | 1
}

/// What one replay attempt observed.
struct ReplayRun {
    /// Pages → byte written by the last *acknowledged-committed* writer.
    oracle: BTreeMap<u32, u8>,
    /// Transactions whose commit was acknowledged.
    committed: u64,
    /// The machine stopped (crash latch / dead disk) mid-replay.
    stopped: bool,
    /// An error that the fault model does not explain.
    violation: Option<String>,
    /// The transaction a stop interrupted mid-access, as a client holds
    /// it when the machine dies. Drop it only after `Database::crash`,
    /// where its abort is refused with `NeedsRecovery`.
    open: Option<Transaction>,
}

/// Replay `scripts` sequentially against `db`. `stop_on_array_error`
/// widens the "machine stopped" classification from `Crashed` to any
/// array error (used in [`ExploreMode::FailDisk`], where a dying disk
/// surfaces as `DiskFailed`/`Unrecoverable` rather than a crash).
fn replay(
    db: &Database,
    scripts: &[TxnScript],
    seed: u64,
    page_mode: bool,
    stop_on_array_error: bool,
) -> ReplayRun {
    let mut run = ReplayRun {
        oracle: BTreeMap::new(),
        committed: 0,
        stopped: false,
        violation: None,
        open: None,
    };
    'scripts: for (idx, script) in scripts.iter().enumerate() {
        let mut pending: BTreeMap<u32, u8> = BTreeMap::new();
        let mut tx = db.begin();
        for (pos, access) in script.accesses.iter().enumerate() {
            let result = match access.kind {
                AccessKind::Read => tx.read(access.page).map(|_| ()),
                AccessKind::Update => {
                    let value = value_byte(seed, idx, pos);
                    let write = if page_mode {
                        tx.write(access.page, &[value])
                    } else {
                        tx.update(access.page, 0, &[value])
                    };
                    if write.is_ok() {
                        pending.insert(access.page, value);
                    }
                    write
                }
            };
            if let Err(e) = result {
                classify_stop(e, stop_on_array_error, &mut run);
                if run.stopped {
                    run.open = Some(tx);
                } else {
                    // Nothing crashed: end it here, where a failed abort
                    // is ignored instead of panicking in `Drop`.
                    let _ = tx.abort();
                }
                break 'scripts;
            }
        }
        // End of transaction: scripted abort or commit. Either consumes
        // the handle even on error.
        let eot = if script.aborts {
            tx.abort()
        } else {
            tx.commit().map(|_| ())
        };
        match eot {
            Ok(()) => {
                if !script.aborts {
                    run.committed += 1;
                    run.oracle.append(&mut pending);
                }
            }
            Err(e) => {
                classify_stop(e, stop_on_array_error, &mut run);
                break 'scripts;
            }
        }
    }
    run
}

/// Route one operation error into `stopped` (explained by the planted
/// fault) or `violation` (a bug).
fn classify_stop(e: DbError, stop_on_array_error: bool, run: &mut ReplayRun) {
    match e {
        DbError::Array(rda_array::ArrayError::Crashed) => run.stopped = true,
        DbError::Array(_) if stop_on_array_error => run.stopped = true,
        other => run.violation = Some(format!("unexpected operation error: {other}")),
    }
}

/// Check a recovered (or rebuilt) database against the durability
/// oracle plus the repo's own consistency machinery.
fn verify_survivor(db: &Database, oracle: &BTreeMap<u32, u8>, violations: &mut Vec<String>) {
    let audit = db.audit();
    for v in audit.violations() {
        violations.push(format!("audit: {v}"));
    }
    match db.verify() {
        Ok(list) => violations.extend(list.into_iter().map(|v| format!("verify: {v}"))),
        Err(e) => violations.push(format!("verify failed to run: {e}")),
    }
    for (&page, &want) in oracle {
        match db.read_page(page) {
            Ok(data) => {
                let got = data.first().copied().unwrap_or(0);
                if got != want {
                    violations.push(format!(
                        "durability: page {page} holds {got:#04x}, committed value was {want:#04x}"
                    ));
                }
            }
            Err(e) => violations.push(format!("durability: page {page} unreadable: {e}")),
        }
    }
}

/// Choose the crashpoints to explore: all of `1..=total` under the
/// limit, otherwise `samples` distinct indices drawn with xorshift64.
fn choose_crashpoints(total: u64, cfg: &ExplorerConfig) -> (Vec<u64>, bool) {
    crashpoint_schedule(total, cfg.exhaustive_limit, cfg.samples, cfg.seed)
}

/// The crashpoint schedule for a run of `total` I/Os: every index in
/// `1..=total` when `total ≤ exhaustive_limit` (second element `true`),
/// otherwise `samples` distinct 1-based indices drawn with a seeded
/// xorshift64 (second element `false`). Pure function of its arguments,
/// so external drivers (the `rda-check` schedule sweeper) can plant
/// faults at exactly the indices [`explore`] would, without going
/// through a full [`ExplorerConfig`].
#[must_use]
pub fn crashpoint_schedule(
    total: u64,
    exhaustive_limit: u64,
    samples: u64,
    seed: u64,
) -> (Vec<u64>, bool) {
    if total <= exhaustive_limit {
        return ((1..=total).collect(), true);
    }
    let mut rng = Rng::new(seed | 1);
    let mut picked = BTreeSet::new();
    let want = (samples.min(total)) as usize;
    while picked.len() < want {
        picked.insert(rng.below(total) + 1);
    }
    (picked.into_iter().collect(), false)
}

/// Rebuild disk `dead` from its survivors, appending a `media_rebuild`
/// phase (billed I/O delta plus wall-clock) to `timeline`.
fn rebuild_timed(db: &Database, dead: u16, timeline: &mut Timeline) -> Result<(), DbError> {
    let before = db.stats().array;
    let start = Instant::now();
    db.media_recover(dead)?;
    let delta = db.stats().array.delta(&before);
    timeline.push(
        RecoveryPhase::MediaRebuild,
        start.elapsed(),
        delta.reads,
        delta.writes,
    );
    Ok(())
}

/// Run one crashpoint: replay with a fault planted at I/O `k`, recover,
/// verify.
fn explore_point(
    db_cfg: &DbConfig,
    scripts: &[TxnScript],
    cfg: &ExplorerConfig,
    k: u64,
) -> Crashpoint {
    let db = Database::open(db_cfg.clone());
    let injector = Arc::new(FaultInjector::new(cfg.mode.plan_at(k)).with_tracer(db.tracer()));
    db.install_fault_hook(injector.clone());

    let page_mode = db_cfg.granularity == LogGranularity::Page;
    let mut run = replay(
        &db,
        scripts,
        cfg.seed,
        page_mode,
        cfg.mode == ExploreMode::FailDisk,
    );
    if run.stopped {
        // The machine stopped: power it off, then drop the handle the
        // client lost with it.
        db.crash();
        run.open = None;
    }
    let mut point = Crashpoint {
        io_index: k,
        fired: None,
        committed_before: run.committed,
        losers: 0,
        intent_replays: 0,
        torn_twins_healed: 0,
        timeline: Timeline::default(),
        violations: Vec::new(),
    };
    if let Some(v) = run.violation {
        point.violations.push(v);
    }
    let fired = injector.fired();
    point.fired = fired.first().map(|f| f.kind);
    if fired.is_empty() {
        point.violations.push(format!(
            "planted fault at I/O {k} never fired — replay diverged from the golden run"
        ));
        return point;
    }

    match cfg.mode {
        ExploreMode::Crash | ExploreMode::TornWrite => {
            if !run.stopped {
                point.violations.push(format!(
                    "fault fired at I/O {k} but no operation observed the crash"
                ));
                return point;
            }
            match db.recover() {
                Ok(report) => {
                    point.losers = report.losers.len() as u64;
                    point.intent_replays = report.intent_replays;
                    point.torn_twins_healed = report.torn_twins_healed;
                    point.timeline = report.timeline;
                }
                Err(e) => {
                    point
                        .violations
                        .push(format!("restart recovery failed: {e}"));
                    return point;
                }
            }
        }
        ExploreMode::FailDisk => {
            let dead = fired[0].disk;
            if run.stopped {
                // A dying disk surfaced as an operation error: treat it
                // as the documented disk-death-plus-crash flow — crash
                // (done above), rebuild the disk, then run restart
                // recovery.
                if let Err(e) = rebuild_timed(&db, dead, &mut point.timeline) {
                    point.violations.push(format!("media recovery failed: {e}"));
                    return point;
                }
                match db.recover() {
                    Ok(report) => {
                        point.losers = report.losers.len() as u64;
                        point.intent_replays = report.intent_replays;
                        point.torn_twins_healed = report.torn_twins_healed;
                        point.timeline.phases.extend(report.timeline.phases);
                    }
                    Err(e) => {
                        point
                            .violations
                            .push(format!("restart recovery failed: {e}"));
                        return point;
                    }
                }
            } else if let Err(e) = rebuild_timed(&db, dead, &mut point.timeline) {
                // The workload finished degraded; rebuild before verify.
                point.violations.push(format!("media recovery failed: {e}"));
                return point;
            }
        }
    }

    verify_survivor(&db, &run.oracle, &mut point.violations);
    point
}

/// Explore crashpoints of `scripts` under `db_cfg`.
///
/// Opens a fresh database per crashpoint, so the caller's own databases
/// are never touched. See the module docs for the protocol.
#[must_use]
pub fn explore(db_cfg: &DbConfig, scripts: &[TxnScript], cfg: &ExplorerConfig) -> CrashpointReport {
    // Golden run: count I/Os and establish the fault-free end state.
    let golden_db = Database::open(db_cfg.clone());
    let counter = Arc::new(FaultInjector::observer());
    golden_db.install_fault_hook(counter.clone());
    let page_mode = db_cfg.granularity == LogGranularity::Page;
    let golden = replay(&golden_db, scripts, cfg.seed, page_mode, false);
    let total = counter.ios_seen();

    let mut golden_violations = Vec::new();
    if let Some(v) = golden.violation {
        golden_violations.push(format!("golden run: {v}"));
    }
    if golden.stopped {
        golden_violations.push("golden run stopped without any planted fault".to_string());
    }
    verify_survivor(&golden_db, &golden.oracle, &mut golden_violations);

    let (ks, exhaustive) = choose_crashpoints(total, cfg);
    let workers = cfg.effective_workers().min(ks.len()).max(1);
    let (points, worker_timings) = explore_points(db_cfg, scripts, cfg, &ks, workers);

    CrashpointReport {
        mode: cfg.mode,
        total_ios: total,
        exhaustive,
        golden_committed: golden.committed,
        golden_violations,
        points,
        worker_timings,
    }
}

/// Fan `ks` out over `workers` scoped threads. Workers claim crashpoint
/// *indices* from a shared dispenser; each replay opens its own fresh
/// [`Database`], so replays share nothing, and results are slotted back
/// by index — the output is the same in-order `Vec` at any worker
/// count, regardless of scheduling.
fn explore_points(
    db_cfg: &DbConfig,
    scripts: &[TxnScript],
    cfg: &ExplorerConfig,
    ks: &[u64],
    workers: usize,
) -> (Vec<Crashpoint>, Vec<WorkerTiming>) {
    let next = AtomicUsize::new(0);
    let (slots, mut timings) = std::thread::scope(|s| {
        let handles: Vec<_> = (0..workers)
            .map(|w| {
                let next = &next;
                s.spawn(move || {
                    let start = Instant::now();
                    let mut done: Vec<(usize, Crashpoint)> = Vec::new();
                    loop {
                        // ordering: Relaxed — work-queue index claim;
                        // results publish via the scope join.
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        let Some(&k) = ks.get(i) else { break };
                        done.push((i, explore_point(db_cfg, scripts, cfg, k)));
                    }
                    (w, done, start.elapsed())
                })
            })
            .collect();

        let mut slots: Vec<Option<Crashpoint>> = Vec::with_capacity(ks.len());
        slots.resize_with(ks.len(), || None);
        let mut timings = Vec::with_capacity(workers);
        for handle in handles {
            match handle.join() {
                Ok((worker, done, elapsed)) => {
                    timings.push(WorkerTiming {
                        worker,
                        points: done.len() as u64,
                        elapsed,
                    });
                    for (i, point) in done {
                        slots[i] = Some(point);
                    }
                }
                Err(payload) => std::panic::resume_unwind(payload),
            }
        }
        (slots, timings)
    });
    timings.sort_by_key(|t| t.worker);
    // Every index was claimed by exactly one worker and every worker was
    // joined, so each slot is filled.
    let points: Vec<Crashpoint> = slots.into_iter().flatten().collect();
    debug_assert_eq!(points.len(), ks.len());
    (points, timings)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rda_core::EngineKind;
    use rda_sim::Access;

    #[test]
    fn empty_report_renders() {
        let report = CrashpointReport {
            mode: ExploreMode::Crash,
            total_ios: 0,
            exhaustive: true,
            golden_committed: 0,
            golden_violations: Vec::new(),
            points: Vec::new(),
            worker_timings: Vec::new(),
        };
        assert_eq!(
            report.to_json().to_string(),
            "{\"mode\":\"crash\",\"total_ios\":0,\"exhaustive\":true,\"explored\":0,\
             \"clean\":true,\"failures\":0,\"golden_committed\":0,\
             \"golden_violations\":[],\"points\":[]}"
        );
    }

    /// A replay the planted crash stops mid-access must not keep that
    /// crashpoint's engine alive once the database is dropped.
    #[test]
    fn a_replay_stopped_by_a_crash_frees_its_database() {
        let db = Database::open(DbConfig::small_test(EngineKind::Rda));
        let metrics = Arc::downgrade(&db.metrics());
        db.install_fault_hook(Arc::new(FaultInjector::new(FaultPlan::crash_at(1))));
        let reads = (0..8)
            .map(|page| Access {
                page,
                kind: AccessKind::Read,
            })
            .collect();
        let run = replay(&db, &[TxnScript::committing(reads)], 1, true, false);
        assert!(run.stopped && run.violation.is_none());
        db.crash();
        drop(run);
        drop(db);
        assert!(
            metrics.upgrade().is_none(),
            "the engine outlived its database"
        );
    }
}
