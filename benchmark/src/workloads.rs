//! The five steady-state workloads: set-up, warm-up, measured phase,
//! oracle check, and the arithmetic that turns one phase's samples and
//! counter deltas into named metrics. (`file-restart` is in `restart.rs`.)

use crate::clock::host_speed;
use crate::drive::{
    counters, run_lane, Engine, Lane, LaneResult, Oracle, Stop, SLICE_NS, WINDOW_SLICES,
};
use crate::gen::Shape;
use crate::stats::{median_f64, tail, Samples};
use crate::trace::{self, Recorder, TimedDevice};
use crate::{probes, sys, Opts, Report};
use rda_array::sim_disks_for;
use rda_core::{BackendSetup, Database, DbConfig, EngineKind, GroupCommit, ShardedDb};
use rda_disk::{create_database, DurabilityMode};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::sync::atomic::AtomicU64;
use std::time::Instant;

/// The paper's configuration: S = 5000 pages of 2020 B, N = 10, twin
/// parity (12 disks), B = 300 frames, FORCE, page logging.
pub const PAGES: u32 = 5000;
pub const FRAMES: usize = 300;
/// Set-up runs this many times per process; `setup_s` is the median.
pub const SETUPS: usize = 3;
/// Share of a traced run measured with the recorder off first, to price
/// the recorder (`obs.trace_overhead_pct`).
const UNTRACED_SHARE: f64 = 0.2;

pub fn paper_cfg() -> DbConfig {
    DbConfig::paper_like(EngineKind::Rda, PAGES, FRAMES)
}

/// One phase of a run: every lane's result folded together, the engine's
/// counter deltas, and (traced runs) the merged recorder.
pub struct Phase {
    pub wall_s: f64,
    /// Reference seconds per wall second (`clock.rs`); 1 on the workloads
    /// that report raw wall-clock.
    pub host_speed: f64,
    pub committed: u64,
    pub aborted: u64,
    pub retries: u64,
    pub failed: u64,
    pub errors: Vec<String>,
    /// Time inside `commit()`, wall nanoseconds, ascending: one entry per
    /// window every lane ran through, or the whole phase as one window when
    /// it was shorter than that.
    pub commit: Vec<Vec<u32>>,
    pub commit_seen: u64,
    /// Time inside `read`/`write`, wall nanoseconds.
    pub access: Samples,
    /// Commits per wall second, one entry per full slice.
    pub rates: Vec<f64>,
    pub delta: BTreeMap<String, u64>,
    pub after: BTreeMap<String, u64>,
    pub rec: Recorder,
}

impl Phase {
    pub fn attempted(&self) -> u64 {
        self.committed + self.aborted + self.failed
    }

    pub fn d(&self, name: &str) -> f64 {
        self.delta.get(name).copied().unwrap_or(0) as f64
    }

    /// `delta[name] / committed`.
    pub fn per_commit(&self, name: &str) -> f64 {
        ratio(self.d(name), self.committed as f64)
    }

    /// Median over full slices of commits per wall second.
    pub fn raw_txns_per_s(&self) -> f64 {
        if self.rates.is_empty() {
            return ratio(self.committed as f64, self.wall_s);
        }
        median_f64(&self.rates)
    }

    /// Commits per reference second.
    pub fn txns_per_s(&self) -> f64 {
        self.raw_txns_per_s() / self.host_speed
    }

    /// The commit latency at quantile `q`, wall microseconds: the median
    /// over windows of each window's quantile, and the lowest quantile a
    /// window could support (see [`tail`]).
    pub fn raw_commit_us(&self, q: f64) -> (f64, f64) {
        let per_window: Vec<(f64, f64)> = self.commit.iter().map(|w| tail(w, q)).collect();
        let values: Vec<f64> = per_window.iter().map(|(ns, _)| ns / 1e3).collect();
        let used = per_window.iter().map(|&(_, used)| used).fold(q, f64::min);
        (median_f64(&values), used)
    }

    /// The same in reference microseconds.
    pub fn commit_us(&self, q: f64) -> (f64, f64) {
        let (us, used) = self.raw_commit_us(q);
        (us * self.host_speed, used)
    }

    /// Billed page transfers (array + log) per committed transaction.
    pub fn transfers_per_commit(&self) -> f64 {
        let transfers = self.d("array_reads_total")
            + self.d("array_writes_total")
            + self.d("log_reads_total")
            + self.d("log_writes_total");
        ratio(transfers, self.committed as f64)
    }
}

pub fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// Fold the lanes of one phase.
fn fold(results: Vec<(LaneResult, Recorder)>, seed: u64) -> Phase {
    let start = results.iter().map(|(r, _)| r.start_ns).min().unwrap_or(0);
    let end = results.iter().map(|(r, _)| r.end_ns).max().unwrap_or(0);
    // A slice counts for throughput only if every lane ran through all of it.
    let full = results
        .iter()
        .map(|(r, _)| ((r.end_ns - r.start_ns) / SLICE_NS) as usize)
        .min()
        .unwrap_or(0);
    let slice_s = SLICE_NS as f64 / 1e9;
    let rates = (0..full)
        .map(|idx| {
            let commits: u32 = results
                .iter()
                .filter_map(|(r, _)| r.slice_commits.get(idx))
                .sum();
            f64::from(commits) / slice_s
        })
        .collect();

    let mut phase = Phase {
        wall_s: (end - start) as f64 / 1e9,
        host_speed: 1.0,
        committed: 0,
        aborted: 0,
        retries: 0,
        failed: 0,
        errors: Vec::new(),
        commit: Vec::new(),
        commit_seen: 0,
        access: Samples::new(seed, 0x301),
        rates,
        delta: BTreeMap::new(),
        after: BTreeMap::new(),
        rec: Recorder::default(),
    };
    let mut calibrations = Vec::new();
    for (r, rec) in results {
        phase.committed += r.committed;
        phase.aborted += r.aborted;
        phase.retries += r.retries;
        phase.failed += r.failed;
        phase.errors.extend(r.errors);
        phase.commit_seen += r.commit.iter().map(Samples::seen).sum::<u64>();
        // Fold everything into one window when no full window exists.
        let windows = (full / WINDOW_SLICES).max(1);
        phase.commit.resize(windows, Vec::new());
        for (idx, samples) in r.commit.iter().enumerate() {
            if idx < windows || full < WINDOW_SLICES {
                phase.commit[idx.min(windows - 1)].extend_from_slice(samples.kept());
            }
        }
        phase.access.merge(&r.access);
        calibrations.extend(r.calibrations);
        phase.rec.absorb(rec);
    }
    phase.commit.iter_mut().for_each(|w| w.sort_unstable());
    phase.host_speed = host_speed(&calibrations);
    phase
}

/// Run every lane on its own OS thread until `stop`.
pub fn run_phase<E: Engine>(
    db: &E,
    lanes: &mut [Lane],
    stop: Stop,
    ranks: &AtomicU64,
    traced: bool,
    seed: u64,
) -> Phase {
    let before = counters(db);
    let results: Vec<(LaneResult, Recorder)> = std::thread::scope(|scope| {
        let handles: Vec<_> = lanes
            .iter_mut()
            .map(|lane| {
                scope.spawn(move || {
                    trace::set_enabled(traced);
                    let r = run_lane(db, lane, stop, ranks);
                    (r, trace::take())
                })
            })
            .collect();
        handles.into_iter().filter_map(|h| h.join().ok()).collect()
    });
    let lost = lanes.len() - results.len();
    let mut phase = fold(results, seed);
    if lost > 0 {
        phase.failed += lost as u64;
        phase
            .errors
            .push(format!("{lost} driver thread(s) panicked"));
    }
    phase.after = counters(db);
    phase.delta = phase
        .after
        .iter()
        .map(|(k, v)| {
            let b = before.get(k).copied().unwrap_or(0);
            (k.clone(), v.saturating_sub(b))
        })
        .collect();
    phase
}

/// A freshly built engine, and for file workloads where it lives.
pub struct Built<E> {
    pub db: E,
    pub dir: Option<PathBuf>,
    pub create_ms: f64,
}

/// What distinguishes one steady-state workload from another.
struct Plan {
    name: &'static str,
    /// One shape per lane (= OS thread).
    shapes: Vec<Shape>,
    /// Interleaved transaction slots per lane.
    slots: usize,
    /// Unmeasured transactions per lane before the clock starts.
    warmup: u64,
    /// Transactions per lane of the counted prefix: the measured phase
    /// starts with exactly this many, and `transfers_per_commit` is taken
    /// over them, so the count does not depend on how fast the host ran and
    /// repeats exactly for one seed on the one-thread workloads.
    counted: u64,
    /// The paper environment the analytical model is evaluated at.
    model: Option<rda_model::Workload>,
    /// What the traced run must find for the workload to be the one its
    /// `why` describes: `(metric, lowest, highest)`.
    shape: &'static [(&'static str, f64, f64)],
}

/// `calibrated`: the lanes run the reference work of `clock.rs`.
fn lanes_for(plan: &Plan, seed: u64, calibrated: bool) -> Vec<Lane> {
    plan.shapes
        .iter()
        .enumerate()
        .map(|(i, shape)| {
            let id = i as u64;
            Lane::new(id, seed, shape.clone(), plan.slots, PAGES, calibrated)
        })
        .collect()
}

/// Set up [`SETUPS`] times (create + warm-up), measure, check, derive.
fn steady<E: Engine>(
    plan: &Plan,
    opts: &Opts,
    make: impl Fn() -> Result<Built<E>, String>,
) -> Result<Report, String> {
    let mut setups = Vec::new();
    let mut kept = None;
    for _ in 0..SETUPS {
        // Drop the previous database (threads, files) before building anew.
        if let Some((built, _, _)) = kept.take() {
            discard(built);
        }
        let t = Instant::now();
        let built = make()?;
        // With the database in memory (the modeled array, or files on
        // tmpfs) a run waits for nothing but the CPU, so the reference clock
        // can correct it for the host's speed. On a disk it cannot.
        let in_memory = built
            .dir
            .as_deref()
            .is_none_or(|dir| sys::fs_type(dir) == "tmpfs");
        let mut lanes = lanes_for(plan, opts.seed, in_memory);
        let ranks = AtomicU64::new(0);
        let warm = run_phase(
            &built.db,
            &mut lanes,
            Stop::Count(plan.warmup),
            &ranks,
            false,
            opts.seed,
        );
        // Create + warm-up, on the same clock as the measured phase.
        setups.push(t.elapsed().as_secs_f64() * warm.host_speed);
        if warm.failed > 0 {
            return Err(format!("warm-up failed: {:?}", warm.errors));
        }
        kept = Some((built, lanes, ranks));
    }
    let Some((built, mut lanes, ranks)) = kept else {
        return Err("no set-up ran".to_string());
    };
    let db = &built.db;

    // An end-to-end run starts with the counted prefix; a traced run with
    // a head measured with the recorder off, which prices the recorder.
    let head = if opts.trace {
        let seconds = opts.seconds * UNTRACED_SHARE;
        Stop::After((seconds * 1e9) as u64)
    } else {
        Stop::Count(plan.counted)
    };
    let head = run_phase(db, &mut lanes, head, &ranks, false, opts.seed);
    let dir_before = built.dir.as_deref().map_or(0, sys::journal_bytes);
    let seconds = opts.seconds
        * if opts.trace {
            1.0 - UNTRACED_SHARE
        } else {
            1.0
        };
    let stop = Stop::After((seconds * 1e9) as u64);
    let phase = run_phase(db, &mut lanes, stop, &ranks, opts.trace, opts.seed);

    // The oracle: every page holds the stamp of its last committed write,
    // parity scrubs clean, the invariant audit finds nothing.
    let mut oracle = Oracle::new(PAGES);
    for lane in &lanes {
        oracle.merge(&lane.oracle);
    }
    if opts.break_oracle {
        // The self-test of the check itself: a commit the engine never saw.
        oracle.committed(0, u64::MAX, 0x0BAD_57A3);
    }
    let mut wrong = match db.state_dump() {
        Ok(dump) => oracle.mismatches(&dump),
        Err(e) => vec![format!("state dump failed: {e}")],
    };
    match db.findings() {
        Ok(found) => wrong.extend(found),
        Err(e) => wrong.push(format!("scrub failed: {e}")),
    }

    let mut report = Report::new(plan.name);
    for p in [&head, &phase] {
        report.attempted += p.attempted();
        report.failed += p.failed;
        report.problems.extend(p.errors.iter().cloned());
    }
    report.failed += wrong.len() as u64;
    report.problems.extend(wrong.iter().take(8).cloned());
    report.set("setup_s", median_f64(&setups));
    report.note("setup_runs_s", format!("{setups:?}"));
    end_to_end(&mut report, &phase);
    report.set("transfers_per_commit", head.transfers_per_commit());
    report.note("counted_commits", head.committed.to_string());
    if opts.trace {
        per_layer(&mut report, &phase, plan.model);
        report.set(
            "obs.trace_overhead_pct",
            100.0 * ratio(head.txns_per_s() - phase.txns_per_s(), head.txns_per_s()),
        );
        if let Some(dir) = &built.dir {
            let grown = sys::journal_bytes(dir).saturating_sub(dir_before);
            report.set(
                "disk.journal_bytes_per_commit",
                ratio(grown as f64, phase.committed as f64),
            );
            let logical = f64::from(PAGES) * paper_cfg().array.page_size as f64;
            report.set("disk.space_amp", ratio(sys::dir_bytes(dir) as f64, logical));
            report.set("disk.create_ms", built.create_ms);
            probes::disk(&mut report, &opts.dir)?;
        }
        probes::kernels(&mut report);
        report.trace = Some(phase.rec.jsonl());
        for &(metric, lowest, highest) in plan.shape {
            let v = report.get(metric);
            if !(lowest..=highest).contains(&v) {
                report.failed += 1;
                report.problems.push(format!(
                    "{metric} = {v}: outside {lowest} ‥ {highest}, the workload lost its shape"
                ));
            }
        }
    }
    report.set("peak_rss_mb", sys::peak_rss_mb());
    discard(built);
    Ok(report)
}

/// Drop the engine (joins its writer threads) and remove its directory.
fn discard<E>(built: Built<E>) {
    drop(built.db);
    if let Some(dir) = built.dir {
        let _ = std::fs::remove_dir_all(dir);
    }
}

/// The metrics a user of the engine sees, from one timed phase.
pub fn end_to_end(report: &mut Report, phase: &Phase) {
    let (p50, _) = phase.commit_us(0.50);
    let (p99, q) = phase.commit_us(0.99);
    report.set("txns_per_s", phase.txns_per_s());
    report.set("commit_p50_us", p50);
    report.set("commit_p99_us", p99);
    report.note("committed", phase.committed.to_string());
    report.note("scripted_aborts", phase.aborted.to_string());
    report.note("conflict_retries", phase.retries.to_string());
    report.note("commit_samples", phase.commit_seen.to_string());
    report.note("commit_tail_quantile", format!("{q:.4}"));
    report.note("measured_wall_s", format!("{:.3}", phase.wall_s));
    report.note("host_speed", format!("{:.4}", phase.host_speed));
    report.note("raw_txns_per_s", format!("{:.1}", phase.raw_txns_per_s()));
    report.note(
        "raw_commit_p50_us",
        format!("{:.3}", phase.raw_commit_us(0.50).0),
    );
}

/// Where the time and the transfers went, from one traced phase.
pub fn per_layer(report: &mut Report, phase: &Phase, model: Option<rda_model::Workload>) {
    let commits = phase.committed as f64;
    let calls = |name: &str| phase.rec.calls.get(name).copied().unwrap_or_default();
    for (metric, span) in [
        ("core.begin_ns", "core.begin"),
        ("core.read_ns", "core.read"),
        ("core.write_ns", "core.write"),
        ("core.commit_ns", "core.commit"),
        ("core.abort_ns", "core.abort"),
    ] {
        report.set(metric, calls(span).self_ns_mean());
    }
    let access = phase.access.sorted();
    report.set("core.access_p99_us", tail(&access, 0.99).0 / 1e3);

    report.set(
        "core.lock_wait_ns_per_commit",
        phase.per_commit("engine_lock_wait_nanos.sum"),
    );
    report.set(
        "core.lock_conflicts_per_commit",
        phase.per_commit("engine_lock_conflicts_total"),
    );
    report.set(
        "core.conflict_retry_share",
        ratio(
            phase.retries as f64,
            (phase.attempted() + phase.retries) as f64,
        ),
    );
    report.set(
        "core.cross_shard_commit_share",
        phase.per_commit("cross_shard_commits"),
    );
    report.set(
        "core.gate_batch_size_mean",
        ratio(
            phase.d("group_commit_txns_total"),
            phase.d("group_commit_batches_total"),
        ),
    );
    report.set(
        "core.log_force_ns_per_commit",
        phase.per_commit("engine_log_force_nanos.sum"),
    );
    report.set(
        "core.barrier_ns_per_commit",
        phase.per_commit("engine_barrier_nanos.sum"),
    );
    report.set(
        "core.log_forces_per_commit",
        phase.per_commit("engine_log_force_nanos.count"),
    );

    let parity = phase.d("engine_steals_parity_total");
    let logged = phase.d("engine_steals_logged_total");
    report.set("core.steals_parity_per_commit", ratio(parity, commits));
    report.set("core.steals_logged_per_commit", ratio(logged, commits));
    report.set("core.p_l_measured", ratio(logged, logged + parity));
    let aborts = phase.d("engine_aborts_total");
    report.set(
        "core.undo_parity_per_abort",
        ratio(phase.d("engine_undo_parity_total"), aborts),
    );
    report.set(
        "core.undo_log_per_abort",
        ratio(phase.d("engine_undo_log_total"), aborts),
    );

    let hits = phase.d("buffer_hits_total");
    let misses = phase.d("buffer_misses_total");
    let hit_ratio = ratio(hits, hits + misses);
    report.set("buffer.hit_ratio", hit_ratio);
    report.set(
        "buffer.steals_per_commit",
        phase.per_commit("buffer_steals_total"),
    );
    report.set(
        "buffer.writebacks_per_commit",
        phase.per_commit("buffer_writebacks_total"),
    );
    report.set(
        "buffer.drops_per_commit",
        phase.per_commit("buffer_drops_total"),
    );
    report.set(
        "buffer.eviction_scans_per_miss",
        ratio(phase.d("buffer_eviction_scans_total"), misses),
    );

    if let Some(workload) = model {
        // Family A1 (FORCE, TOC, page logging) at the communality measured
        // here, as EXPERIMENTS.md compares engine and model.
        let params = rda_model::ModelParams::paper_defaults(workload).communality(hit_ratio);
        let eval = rda_model::families::a1::evaluate(&params);
        report.set("model.p_l_predicted", eval.p_l);
        report.set("model.transfers_per_commit_predicted", eval.rda.per_txn);
    }

    report.set(
        "array.reads_per_commit",
        phase.per_commit("array_reads_total"),
    );
    report.set(
        "array.writes_per_commit",
        phase.per_commit("array_writes_total"),
    );
    report.set(
        "array.device_reads_per_commit",
        ratio(phase.rec.device_reads as f64, commits),
    );
    report.set(
        "array.device_writes_per_commit",
        ratio(phase.rec.device_writes as f64, commits),
    );
    report.set(
        "array.device_ns_per_commit",
        ratio(phase.rec.device_ns() as f64, commits),
    );

    report.set(
        "wal.log_transfers_per_commit",
        ratio(
            phase.d("log_reads_total") + phase.d("log_writes_total"),
            commits,
        ),
    );
    report.set("wal.bytes_per_commit", phase.per_commit("log_bytes"));

    let enqueued = phase.d("disk_writes_enqueued");
    report.set("disk.writes_enqueued_per_commit", ratio(enqueued, commits));
    report.set(
        "disk.coalesce_ratio",
        ratio(phase.d("disk_writes_coalesced"), enqueued),
    );
    report.set(
        "disk.batches_per_commit",
        phase.per_commit("disk_write_batches"),
    );
    report.set(
        "disk.barriers_per_commit",
        phase.per_commit("disk_barriers"),
    );
    report.set("disk.fsyncs_per_commit", phase.per_commit("disk_fsyncs"));
    report.set(
        "disk.fsync_ns_per_commit",
        phase.per_commit("disk_fsync_nanos.sum"),
    );
    report.set(
        "disk.queue_residency_ns_per_write",
        ratio(
            phase.d("disk_queue_residency_nanos.sum"),
            phase.d("disk_queue_residency_nanos.count"),
        ),
    );
    let gauge = |name: &str| phase.after.get(name).copied().unwrap_or(0) as f64;
    report.set("disk.queue_depth_hw", gauge("disk_queue_depth_hw"));
    report.set("disk.sticky_errors", gauge("disk_sticky_errors"));

    // What part of commit() no child span or exported timer accounts for.
    let commit = calls("core.commit");
    let attributed = commit.device_ns as f64
        + phase.d("engine_log_force_nanos.sum")
        + phase.d("engine_barrier_nanos.sum");
    report.set(
        "core.unattributed_share",
        (1.0 - ratio(attributed, commit.total_ns as f64)).clamp(0.0, 1.0),
    );
}

/// The modeled array, bare or (traced runs) behind [`TimedDevice`].
fn on_sim(plan: &Plan, opts: &Opts, cfg: &DbConfig) -> Result<Report, String> {
    if opts.trace {
        steady(plan, opts, || {
            let disks = sim_disks_for(&cfg.array)
                .into_iter()
                .map(TimedDevice)
                .collect();
            Ok(Built {
                db: Database::open_with(cfg.clone(), BackendSetup::fresh(disks)),
                dir: None,
                create_ms: 0.0,
            })
        })
    } else {
        steady(plan, opts, || {
            Ok(Built {
                db: Database::open(cfg.clone()),
                dir: None,
                create_ms: 0.0,
            })
        })
    }
}

pub fn sim_update(opts: &Opts) -> Result<Report, String> {
    let plan = Plan {
        name: "sim-update",
        shapes: vec![Shape::high_update(PAGES, 280, 0.97)],
        slots: 6,
        warmup: 20_000,
        counted: 20_000,
        model: Some(rda_model::Workload::HighUpdate),
        shape: &[
            ("buffer.hit_ratio", 0.8, 1.0),
            ("disk.fsyncs_per_commit", 0.0, 0.0),
            ("disk.writes_enqueued_per_commit", 0.0, 0.0),
        ],
    };
    on_sim(&plan, opts, &paper_cfg())
}

pub fn sim_read_mostly(opts: &Opts) -> Result<Report, String> {
    let plan = Plan {
        name: "sim-read-mostly",
        shapes: vec![Shape::high_retrieval(PAGES, 280, 0.2)],
        slots: 6,
        warmup: 20_000,
        counted: 20_000,
        model: Some(rda_model::Workload::HighRetrieval),
        shape: &[
            ("buffer.hit_ratio", 0.0, 0.5),
            ("buffer.steals_per_commit", f64::MIN_POSITIVE, f64::MAX),
            ("disk.fsyncs_per_commit", 0.0, 0.0),
            ("disk.writes_enqueued_per_commit", 0.0, 0.0),
        ],
    };
    on_sim(&plan, opts, &paper_cfg())
}

pub fn sim_sharded_2t(opts: &Opts) -> Result<Report, String> {
    let shape = Shape::Uniform {
        pages: PAGES,
        per_txn: 3,
    };
    let plan = Plan {
        name: "sim-sharded-2t",
        shapes: vec![shape.clone(), shape],
        slots: 1,
        warmup: 10_000,
        counted: 10_000,
        model: None,
        shape: &[
            ("core.cross_shard_commit_share", 0.3, 1.0),
            ("disk.fsyncs_per_commit", 0.0, 0.0),
        ],
    };
    let cfg = paper_cfg().shards(2).group_commit(GroupCommit {
        window_micros: 0,
        max_batch: 32,
    });
    steady(&plan, opts, || {
        Ok(Built {
            db: ShardedDb::open(cfg.clone()),
            dir: None,
            create_ms: 0.0,
        })
    })
}

/// A fresh file-backed database in its own directory under `base`.
pub fn create_file_db(base: &Path, cfg: &DbConfig) -> Result<Built<rda_disk::FileDb>, String> {
    static NEXT: AtomicU64 = AtomicU64::new(0);
    // ordering: Relaxed — only uniqueness of the directory name matters.
    let n = NEXT.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
    let dir = base.join(format!("db-{n}"));
    let _ = std::fs::remove_dir_all(&dir);
    let t = Instant::now();
    let db = create_database(&dir, cfg.clone(), DurabilityMode::FsyncOnBarrier)
        .map_err(|e| format!("create {}: {e}", dir.display()))?;
    Ok(Built {
        db,
        dir: Some(dir),
        create_ms: t.elapsed().as_secs_f64() * 1e3,
    })
}

pub fn file_commit(opts: &Opts) -> Result<Report, String> {
    let plan = Plan {
        name: "file-commit",
        shapes: vec![Shape::strided(PAGES, 0, 1)],
        slots: 1,
        warmup: 1_000,
        counted: 2_000,
        model: None,
        shape: &[("disk.fsyncs_per_commit", 1.0, f64::MAX)],
    };
    let cfg = paper_cfg();
    steady(&plan, opts, || create_file_db(&opts.dir, &cfg))
}

pub fn file_commit_2t(opts: &Opts) -> Result<Report, String> {
    let plan = Plan {
        name: "file-commit-2t",
        shapes: vec![Shape::strided(PAGES, 0, 2), Shape::strided(PAGES, 1, 2)],
        slots: 1,
        warmup: 500,
        counted: 1_000,
        model: None,
        shape: &[("disk.fsyncs_per_commit", f64::MIN_POSITIVE, f64::MAX)],
    };
    let cfg = paper_cfg().group_commit(GroupCommit {
        window_micros: 100,
        max_batch: 32,
    });
    steady(&plan, opts, || create_file_db(&opts.dir, &cfg))
}
