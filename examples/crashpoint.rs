//! Bounded crashpoint exploration, end to end: take a small mixed
//! commit/abort workload, crash it at *every* physical I/O, run restart
//! recovery from each crashpoint, and verify each survivor against the
//! invariant auditor, the parity scrub, and an exact durability oracle.
//!
//! Prints the JSON report on stdout and exits non-zero if any crashpoint
//! fails verification — CI runs this as the crashpoint smoke job.
//!
//! Run with: `cargo run --release --example crashpoint [-- --workers N]`
//!
//! `--workers N` fans the replays over an N-thread pool; the tool always
//! runs the sequential sweep first and prints both wall-clocks (and
//! asserts the two reports are byte-identical) so the speedup — and the
//! determinism claim backing it — is visible from the quickstart.

use rda::core::{DbConfig, EngineKind};
use rda::faults::{explore, ExploreMode, ExplorerConfig};
use rda::obs::json::ToJson;
use rda::sim::{Trace, WorkloadSpec};
use std::time::Instant;

/// CI bound: the workload must stay exhaustive under this many I/Os so
/// every single crashpoint is actually visited.
const IO_BOUND: u64 = 200;

/// Parse `--workers N` (or `--workers=N`) from the command line.
/// Returns `None` when absent; exits with usage on malformed input.
fn workers_arg() -> Option<usize> {
    let mut args = std::env::args().skip(1);
    let arg = args.next()?;
    let value = if arg == "--workers" {
        args.next()
    } else {
        arg.strip_prefix("--workers=").map(str::to_string)
    };
    match (value.as_deref().map(str::parse::<usize>), args.next()) {
        (Some(Ok(n)), None) if n > 0 => Some(n),
        _ => {
            eprintln!("usage: crashpoint [--workers N]");
            std::process::exit(2);
        }
    }
}

fn main() {
    let workers = workers_arg();
    // Stderr only: the stdout report JSON must stay byte-identical
    // whatever backend banner we print.
    eprintln!("backend: simulated array (in-memory)");

    // A handful of short update transactions over a 32-page database,
    // with one scripted abort in the mix.
    let mut spec = WorkloadSpec::high_update(32, 8);
    spec.s = 3;
    spec.f_u = 1.0;
    spec.p_u = 1.0;
    spec.p_b = 0.0;
    let mut trace = Trace::generate(spec, 4, 0x00C0_FFEE);
    trace.scripts[1].aborts = true;

    let cfg = ExplorerConfig {
        exhaustive_limit: IO_BOUND,
        workers: 1,
        ..ExplorerConfig::new(ExploreMode::Crash)
    };
    let db_cfg = DbConfig::small_test(EngineKind::Rda);
    let seq_start = Instant::now();
    let report = explore(&db_cfg, &trace.scripts, &cfg);
    let seq_wall = seq_start.elapsed();

    if let Some(workers) = workers {
        let par_start = Instant::now();
        let parallel = explore(&db_cfg, &trace.scripts, &ExplorerConfig { workers, ..cfg });
        let par_wall = par_start.elapsed();
        assert_eq!(
            report.to_json(),
            parallel.to_json(),
            "parallel report diverged from the sequential sweep"
        );
        eprintln!(
            "sequential sweep: {:.1?}; {workers}-worker sweep: {:.1?} ({:.2}x); reports byte-identical",
            seq_wall,
            par_wall,
            seq_wall.as_secs_f64() / par_wall.as_secs_f64().max(1e-9),
        );
    }

    println!("{}", report.to_json());
    eprintln!(
        "explored {} crashpoint(s) over {} I/Os ({}), {} committed in the golden run, {} failure(s)",
        report.points.len(),
        report.total_ios,
        if report.exhaustive {
            "exhaustive"
        } else {
            "sampled"
        },
        report.golden_committed,
        report.failures().len(),
    );

    assert!(
        report.exhaustive,
        "workload outgrew the {IO_BOUND}-I/O smoke bound ({} I/Os) — shrink it",
        report.total_ios
    );
    for v in &report.golden_violations {
        eprintln!("golden run violation: {v}");
    }
    for p in report.failures() {
        eprintln!("crashpoint {} FAILED: {:?}", p.io_index, p.violations);
    }
    if !report.is_clean() {
        std::process::exit(1);
    }
}
