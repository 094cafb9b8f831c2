//! PR 3 perf harness: standardized workloads with honest wall-clocks.
//!
//! Runs four measurements and emits a JSON report
//! (`BENCH_pr3.json` by default) that future PRs append comparable
//! numbers to:
//!
//! 1. **Single-thread txn throughput** — `rda_check::sim::run` with one thread
//!    and six round-robin slots on the paper-like RDA configuration.
//! 2. **Multi-thread txn throughput** — the same script set on 2 and 4
//!    OS threads (one slot each) sharing one database.
//! 3. **Scrub bandwidth** — repeated patrol passes over a populated
//!    array, reported as pages and MiB per second.
//! 4. **Explorer sweep** — `rda-check`'s exhaustive crash exploration of
//!    one small schedule at 1, 2 and 4 workers, asserting the three
//!    reports are byte-identical (the section keeps its `explorer` keys).
//!
//! `--smoke` shrinks every workload for CI; `--out PATH` redirects the
//! report; `--trace` runs sections 1–3 with the structured event trace
//! enabled (a 1Ki-event ring) *plus* the commit-path span events (a
//! checker run always traces, so section 4 ignores it);
//! `--overhead-check` additionally runs sections 1–3 plus a file-backed
//! workload with the crash-persistent flight recorder with all
//! observability off vs on (interleaved, adaptive best-of-5..12) and
//! fails when the instrumented side costs more than 5%. Wall-clocks
//! depend on the host, so `host_cpus` is recorded alongside every run.
//!
//! Run with: `cargo run --release -p rda-bench --bin perf`

use rda_check::sim::{run_spec, RunConfig, RunResult, WorkloadSpec};
use rda_check::{explore, sequential, DbKnobs, FaultKind, PAGES};
use rda_core::{Database, DbConfig, EngineKind};
use rda_disk::{create_database_with, DurabilityMode, StorageOptions};
use rda_obs::json::{Json, ToJson};
use rda_obs::json_obj;
use std::time::{Duration, Instant};

/// Ring capacity used by `--trace` / the overhead check. 1Ki events
/// (~40 KiB of slots) retains a useful post-mortem window while
/// staying cache-resident next to the workload's array working set —
/// the ring's cache footprint, not the lock-free claim, is the
/// measurable part of enabled-tracing overhead.
const TRACE_RING: usize = 1024;

struct Args {
    smoke: bool,
    trace: bool,
    overhead_check: bool,
    out: String,
}

fn parse_args() -> Args {
    let mut args = Args {
        smoke: false,
        trace: false,
        overhead_check: false,
        out: "BENCH_pr3.json".to_string(),
    };
    let mut argv = std::env::args().skip(1);
    while let Some(arg) = argv.next() {
        match arg.as_str() {
            "--smoke" => args.smoke = true,
            "--trace" => args.trace = true,
            "--overhead-check" => args.overhead_check = true,
            "--out" => match argv.next() {
                Some(path) => args.out = path,
                None => usage(),
            },
            other => match other.strip_prefix("--out=") {
                Some(path) => args.out = path.to_string(),
                None => usage(),
            },
        }
    }
    args
}

fn usage() -> ! {
    eprintln!("usage: perf [--smoke] [--trace] [--overhead-check] [--out PATH]");
    std::process::exit(2);
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Sections 1 and 2: the same workload on one thread with six
/// round-robin slots, and on 2 and 4 threads sharing one database.
/// `wall_ms` spans the run's threads, not opening the database or the
/// checks after the run.
fn bench_throughput(smoke: bool, trace: bool) -> Result<Json, String> {
    let txns = if smoke { 80 } else { 400 };
    let db_cfg = DbConfig::paper_like(EngineKind::Rda, 200, 32)
        .trace(if trace { TRACE_RING } else { 0 })
        .spans(trace);
    let spec = WorkloadSpec::high_update(200, 24);
    let wall_ms = |r: &RunResult| r.elapsed_ns as f64 / 1e6;

    let cfg = RunConfig {
        warmup: if smoke { 10 } else { 40 },
        ..RunConfig::default()
    };
    let single = run_spec(db_cfg.clone(), &cfg, &spec, txns);
    single.check()?;
    let mut section = json_obj! {
        "txns": txns,
        "single_thread": json_obj! {
            "committed": single.committed,
            "wall_ms": wall_ms(&single),
            "txns_per_sec": single.txns_per_sec(),
            "transfers_per_committed": single.transfers_per_committed,
            "measured_c": single.measured_c,
        },
    };

    for threads in [2usize, 4] {
        let cfg = RunConfig {
            threads,
            slots: 1,
            warmup: 0,
            ..cfg
        };
        let r = run_spec(db_cfg.clone(), &cfg, &spec, txns);
        r.check()?;
        section.push(
            &format!("threads_{threads}"),
            json_obj! {
                "committed": r.committed,
                "wall_ms": wall_ms(&r),
                "txns_per_sec": r.txns_per_sec(),
                "conflict_aborts": r.conflict_aborts,
                "failures": r.failures,
            },
        );
    }
    Ok(section)
}

/// Section 3: patrol-scrub bandwidth over a populated array.
fn bench_scrub(smoke: bool, trace: bool) -> Result<Json, String> {
    let db_cfg = DbConfig::paper_like(EngineKind::Rda, 200, 32)
        .trace(if trace { TRACE_RING } else { 0 })
        .spans(trace);
    let page_size = db_cfg.array.page_size as u64;
    let db = Database::open(db_cfg);

    // Populate every page so the scrubber reads real contents.
    for chunk in (0..200u32).collect::<Vec<_>>().chunks(8) {
        let mut tx = db.begin();
        for &page in chunk {
            tx.write(page, &[page as u8 | 1])
                .map_err(|e| format!("populate write: {e}"))?;
        }
        tx.commit().map_err(|e| format!("populate commit: {e}"))?;
    }

    let passes = if smoke { 2u64 } else { 8 };
    let mut pages_scanned = 0u64;
    let start = Instant::now();
    for _ in 0..passes {
        let report = db.scrub().map_err(|e| format!("scrub: {e}"))?;
        pages_scanned += report.pages_scanned;
    }
    let wall = start.elapsed();
    let secs = wall.as_secs_f64().max(1e-9);
    Ok(json_obj! {
        "passes": passes,
        "pages_scanned": pages_scanned,
        "page_size": page_size,
        "wall_ms": ms(wall),
        "pages_per_sec": pages_scanned as f64 / secs,
        "mib_per_sec": (pages_scanned * page_size) as f64 / (1024.0 * 1024.0) / secs,
    })
}

/// Section 4: `rda-check`'s exhaustive crash exploration of one small
/// mixed commit/abort schedule at 1, 2 and 4 workers. The three JSON
/// reports must be byte-identical — the wall-clocks are the only thing
/// allowed to differ.
fn bench_explorer(smoke: bool) -> Result<Json, String> {
    let mut spec = WorkloadSpec::high_update(PAGES, 8);
    spec.s = 4;
    spec.f_u = 1.0;
    spec.p_u = 1.0;
    spec.p_b = 0.0;
    let mut scripts = spec.generate(if smoke { 3 } else { 6 }, 0x00C0_FFEE);
    scripts[1].aborts = true;
    let knobs = DbKnobs {
        frames: 3,
        force: true,
        strict: false,
        shards: 1,
        group_commit: false,
    };
    let sched = sequential("perf-explorer", knobs, &scripts);

    let mut baseline: Option<Json> = None;
    let mut section = Json::Obj(Vec::new());
    for workers in [1usize, 2, 4] {
        let start = Instant::now();
        let report = explore(&sched, FaultKind::Crash, workers);
        let wall = start.elapsed();
        if !report.is_clean() {
            return Err(format!(
                "explorer sweep at {workers} workers found {} failure(s)",
                report.failures().len()
            ));
        }
        let rendered = report.to_json();
        match &baseline {
            None => {
                section = json_obj! {
                    "total_ios": report.total_ios(),
                    "points": report.points.len(),
                    "byte_identical": true,
                };
                baseline = Some(rendered);
            }
            Some(expect) if *expect == rendered => {}
            Some(_) => {
                return Err(format!(
                    "explorer report at {workers} workers diverged from the 1-worker sweep"
                ));
            }
        }
        section.push(
            &format!("workers_{workers}"),
            json_obj! { "wall_ms": ms(wall) },
        );
    }
    Ok(section)
}

/// A file-backed workload, so the overhead check prices the black box
/// too: with `instrumented` the database runs the event ring, the
/// commit-path spans *and* the flight recorder flushing `obs.journal`
/// at every commit barrier; without it, none of them.
fn flight_wall(smoke: bool, instrumented: bool) -> Result<Duration, String> {
    let txns = if smoke { 24u64 } else { 96 };
    let dir = std::env::temp_dir().join(format!(
        "rda-perf-flight-{}-{instrumented}",
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    let cfg = DbConfig::small_test(EngineKind::Rda)
        .trace(if instrumented { TRACE_RING } else { 0 })
        .spans(instrumented);
    let start = Instant::now();
    let db = create_database_with(
        &dir,
        cfg,
        DurabilityMode::FsyncOnBarrier,
        StorageOptions {
            flight_recorder: instrumented,
        },
    )
    .map_err(|e| format!("flight bench create: {e}"))?;
    for i in 0..txns {
        let mut tx = db.begin();
        for page in 0..3u32 {
            tx.write((i as u32 * 3 + page) % 16, &i.to_le_bytes())
                .map_err(|e| format!("flight bench write: {e}"))?;
        }
        tx.commit()
            .map_err(|e| format!("flight bench commit: {e}"))?;
    }
    drop(db);
    let wall = start.elapsed();
    let _ = std::fs::remove_dir_all(&dir);
    Ok(wall)
}

/// One full pass over the suite's workload sections whose observability
/// can be switched off (the JSON they render is discarded), returning the
/// end-to-end wall-clock.
fn suite_wall(smoke: bool, trace: bool) -> Result<Duration, String> {
    let start = Instant::now();
    bench_throughput(smoke, trace)?;
    bench_scrub(smoke, trace)?;
    flight_wall(smoke, trace)?;
    Ok(start.elapsed())
}

/// `--overhead-check`: the smoke suite's sim workloads plus the
/// file-backed flight-recorder workload, with all observability off vs
/// on (event ring, commit-path spans, black-box flushing), interleaved
/// best-of-N so ambient host noise hits both sides evenly. Errors when
/// the instrumented side costs more than 5% end to end.
///
/// Rounds are adaptive: at least 5, up to 12. Best-of-N is a
/// consistent estimator of each side's true floor, so extra rounds
/// only sharpen the estimate — they cannot manufacture a pass the
/// floors don't support.
fn bench_overhead(smoke: bool) -> Result<Json, String> {
    let mut best = [f64::INFINITY; 2]; // seconds: [tracing off, tracing on]
    let mut overhead_pct = f64::INFINITY;
    for round in 0..12 {
        // Alternate which side goes first so slow ambient drift (cache
        // state, CPU frequency) hits both sides evenly.
        let mut order = [(0usize, false), (1, true)];
        if round % 2 == 1 {
            order.reverse();
        }
        for (slot, trace) in order {
            let wall = suite_wall(smoke, trace)?.as_secs_f64();
            best[slot] = best[slot].min(wall);
        }
        overhead_pct = (best[1] - best[0]) / best[0].max(1e-9) * 100.0;
        if round >= 4 && overhead_pct <= 5.0 {
            break;
        }
    }
    if overhead_pct > 5.0 {
        return Err(format!(
            "tracing overhead {overhead_pct:.2}% exceeds the 5% budget \
             (off {:.3} ms, on {:.3} ms)",
            best[0] * 1e3,
            best[1] * 1e3
        ));
    }
    Ok(json_obj! {
        "ring": TRACE_RING,
        "spans": true,
        "flight_recorder": true,
        "off_ms": best[0] * 1e3,
        "on_ms": best[1] * 1e3,
        "overhead_pct": overhead_pct,
    })
}

fn run(args: &Args) -> Result<String, String> {
    let host_cpus = std::thread::available_parallelism().map_or(1, std::num::NonZero::get);
    let mut report = json_obj! {
        "bench": "pr3-perf",
        "smoke": args.smoke,
        "trace": args.trace,
        "host_cpus": host_cpus,
        "txn_throughput": bench_throughput(args.smoke, args.trace)?,
        "scrub": bench_scrub(args.smoke, args.trace)?,
        "explorer": bench_explorer(args.smoke)?,
    };
    if args.overhead_check {
        report.push("obs_overhead", bench_overhead(args.smoke)?);
    }
    Ok(format!("{report}\n"))
}

fn main() {
    let args = parse_args();
    match run(&args) {
        Ok(json) => {
            if let Err(e) = std::fs::write(&args.out, &json) {
                eprintln!("failed to write {}: {e}", args.out);
                std::process::exit(1);
            }
            print!("{json}");
            eprintln!("wrote {}", args.out);
        }
        Err(e) => {
            eprintln!("perf bench failed: {e}");
            std::process::exit(1);
        }
    }
}
