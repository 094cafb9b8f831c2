//! Exhaustive crashpoint exploration, end to end: take a small mixed
//! commit/abort schedule and plant a crash, a torn write and a disk death
//! at *every* physical I/O of it in turn. Each run is judged by the
//! model-based checker: the reference model, `audit()`, parity verify and
//! the protocol scan.
//!
//! Prints the three reports as one JSON array on stdout and exits 1 if
//! any point fails — CI runs this as the crashpoint job, at one worker
//! and at four, and compares the two outputs byte for byte.
//!
//! Run with: `cargo run --release --example crashpoint [-- --workers N]`

use rda::check::sim::WorkloadSpec;
use rda::check::{explore, sequential, DbKnobs, FaultKind, PAGES};
use rda::obs::json::{Json, ToJson};
use std::time::Instant;

/// Parse `--workers N` (or `--workers=N`); 1 when absent, exit 2 on
/// malformed input.
fn workers_arg() -> usize {
    let mut args = std::env::args().skip(1);
    let Some(arg) = args.next() else { return 1 };
    let value = if arg == "--workers" {
        args.next()
    } else {
        arg.strip_prefix("--workers=").map(str::to_string)
    };
    match (value.as_deref().map(str::parse::<usize>), args.next()) {
        (Some(Ok(n)), None) if n > 0 => n,
        _ => {
            eprintln!("usage: crashpoint [--workers N]");
            std::process::exit(2);
        }
    }
}

fn main() {
    let workers = workers_arg();
    // Four short update transactions over the checker's 16 pages, the
    // second one aborting; three frames force steals mid-transaction.
    let mut spec = WorkloadSpec::high_update(PAGES, 8);
    spec.s = 3;
    spec.f_u = 1.0;
    spec.p_u = 1.0;
    spec.p_b = 0.0;
    let mut scripts = spec.generate(4, 0x00C0_FFEE);
    scripts[1].aborts = true;
    let knobs = DbKnobs {
        frames: 3,
        force: true,
        strict: false,
        shards: 1,
        group_commit: false,
    };
    let sched = sequential("crashpoint", knobs, &scripts);

    let mut reports = Vec::new();
    let mut clean = true;
    for kind in [FaultKind::Crash, FaultKind::TornWrite, FaultKind::FailDisk] {
        let start = Instant::now();
        let report = explore(&sched, kind, workers);
        // Stderr only: stdout must stay byte-identical at any --workers.
        eprintln!(
            "{}: {} I/Os explored in {:.1?} on {workers} worker(s), {} failure(s)",
            kind.name(),
            report.total_ios(),
            start.elapsed(),
            report.failures().len(),
        );
        for v in &report.golden.violations {
            eprintln!("  golden run: {v}");
        }
        for k in report.failures() {
            eprintln!("  I/O {k}: {:?}", report.points[k as usize - 1].violations);
        }
        clean &= report.is_clean();
        reports.push(report.to_json());
    }
    println!("{}", Json::Arr(reports));
    if !clean {
        std::process::exit(1);
    }
}
