//! `rda-check` — run the model-based differential checker from the
//! command line.
//!
//! ```text
//! rda-check [--smoke] [--schedules N] [--faults N] [--seed S]
//!           [--workers N] [--mutation | --mutation-cut] [--no-corpus]
//!           [--threaded] [--out PATH] [--repro-out PATH]
//! ```
//!
//! Default run: replay the regression corpus, then sweep `--schedules`
//! seeded schedules (each golden + `--faults` sampled fault points) of
//! the classic one-shard stream, or with `--threaded` of the stream that
//! also draws shard counts and the group-commit gate, then
//! prove the checker's teeth by re-running a short sweep with each
//! protocol mutation compiled in (`skip_commit_twin_flip`, then
//! `low_water_ignores_active`) — those sweeps must *fail*, and their
//! counterexamples must shrink to a handful of ops.
//! Exit status 0 means: corpus green, sweep clean, mutations caught.
//!
//! `--mutation` flips the main sweep into mutation mode with the twin
//! flip skipped, `--mutation-cut` with the log's low-water mark ignoring
//! active transactions (find + shrink a counterexample, write it to
//! `--repro-out`, exit 0 iff found); this is how new corpus entries are
//! born.

use rda_check::{corpus, shrink, sweep, ProtocolMutations, Stream, SweepConfig};
use std::io::Write as _;
use std::process::ExitCode;

struct Args {
    schedules: u64,
    faults: u64,
    seed: u64,
    workers: usize,
    mutations: ProtocolMutations,
    corpus: bool,
    stream: Stream,
    out: Option<String>,
    repro_out: Option<String>,
    replay: Option<String>,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        schedules: 500,
        faults: 2,
        seed: 0x1992, // ICDE 1992

        workers: 4,
        mutations: ProtocolMutations::default(),
        corpus: true,
        stream: Stream::Classic,
        out: None,
        repro_out: None,
        replay: None,
        trace: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(arg) = it.next() {
        let mut value = |name: &str| it.next().ok_or_else(|| format!("{name} needs a value"));
        match arg.as_str() {
            "--smoke" => {
                args.schedules = 60;
                args.faults = 2;
            }
            "--schedules" => args.schedules = parse_u64(&value("--schedules")?)?,
            "--faults" => args.faults = parse_u64(&value("--faults")?)?,
            "--seed" => args.seed = parse_u64(&value("--seed")?)?,
            "--workers" => args.workers = parse_u64(&value("--workers")?)? as usize,
            "--mutation" => args.mutations = TEETH[0].1,
            "--mutation-cut" => args.mutations = TEETH[1].1,
            "--no-corpus" => args.corpus = false,
            "--threaded" => args.stream = Stream::Threaded,
            "--out" => args.out = Some(value("--out")?),
            "--repro-out" => args.repro_out = Some(value("--repro-out")?),
            "--replay" => args.replay = Some(value("--replay")?),
            "--trace" => args.trace = true,
            other => return Err(format!("unknown flag '{other}'")),
        }
    }
    Ok(args)
}

/// The protocol mutations the self-test must catch: name, knob set, and
/// the short sweep that has to find it (schedules, planted faults per
/// schedule). A bad cut only shows once a crash follows a commit made
/// beside a transaction with propagated pages, which the schedules' own
/// `crash_restart` ops stage often enough in 120 goldens; a planted crash
/// point would pin the I/O numbering and keep the shrinker from dropping
/// ops.
const TEETH: [(&str, ProtocolMutations, u64, u64); 2] = [
    (
        "skip_commit_twin_flip",
        ProtocolMutations {
            skip_commit_twin_flip: true,
            low_water_ignores_active: false,
        },
        40,
        1,
    ),
    (
        "low_water_ignores_active",
        ProtocolMutations {
            skip_commit_twin_flip: false,
            low_water_ignores_active: true,
        },
        120,
        0,
    ),
];

fn parse_u64(text: &str) -> Result<u64, String> {
    let (text, radix) = match text.strip_prefix("0x") {
        Some(hex) => (hex, 16),
        None => (text, 10),
    };
    u64::from_str_radix(text, radix).map_err(|e| format!("bad number '{text}': {e}"))
}

fn main() -> ExitCode {
    match run() {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("rda-check: {e}");
            ExitCode::FAILURE
        }
    }
}

fn run() -> Result<(), String> {
    let args = parse_args()?;

    if let Some(path) = &args.replay {
        return replay_one(&args, path);
    }

    if args.corpus {
        let count = corpus::replay_dir(&corpus::default_dir())?;
        println!("corpus: {count} entries replayed, all expectations met");
    }

    let mutations = args.mutations;
    let cfg = SweepConfig {
        stream: args.stream,
        seed: args.seed,
        schedules: args.schedules,
        faults_per_schedule: args.faults,
        workers: args.workers,
        mutations,
        stop_on_failure: mutations.any(),
    };
    let report = sweep(&cfg);
    println!(
        "sweep: seed {:#x}, {} schedules, {} checks, clean = {}",
        cfg.seed,
        report.results.len(),
        report.checks(),
        report.is_clean()
    );
    if let Some(path) = &args.out {
        write_file(path, &report.to_json())?;
        println!("sweep report written to {path}");
    }

    if mutations.any() {
        // Mutation mode: the sweep must FIND a counterexample; shrink it.
        let failures = report.failures();
        let Some(first) = failures.first() else {
            return Err(format!(
                "mutation sweep found no counterexample in {} schedules — the checker has no teeth",
                report.results.len()
            ));
        };
        let shrunk = shrink(&first.schedule, mutations, 400);
        println!(
            "mutation caught at '{}' ({}); shrunk to {} ops in {} evals",
            first.schedule.name,
            first.variant,
            shrunk.schedule.ops.len(),
            shrunk.evals
        );
        if let Some(path) = &args.repro_out {
            write_file(path, &shrunk.schedule.to_json().to_string())?;
            println!("shrunk repro written to {path}");
        }
        return Ok(());
    }

    // Clean mode: the sweep must be clean, and the checker must still
    // have teeth — prove it with a short mutated self-test.
    if let Some(first) = report.failures().first() {
        if let Some(path) = &args.repro_out {
            let shrunk = shrink(&first.schedule, ProtocolMutations::default(), 400);
            write_file(path, &shrunk.schedule.to_json().to_string())?;
            eprintln!("shrunk repro written to {path}");
        }
        return Err(format!(
            "sweep found a counterexample: '{}' ({}) — {:?}",
            first.schedule.name, first.variant, first.violations
        ));
    }
    for (name, mutations, schedules, faults_per_schedule) in TEETH {
        let teeth_cfg = SweepConfig {
            stream: args.stream,
            seed: args.seed,
            schedules,
            faults_per_schedule,
            workers: args.workers,
            mutations,
            stop_on_failure: true,
        };
        let teeth = sweep(&teeth_cfg);
        let failures = teeth.failures();
        let Some(first) = failures.first() else {
            return Err(format!(
                "{name} self-test found no counterexample — the checker has no teeth"
            ));
        };
        let shrunk = shrink(&first.schedule, mutations, 400);
        println!(
            "teeth: {name} caught ({}), shrunk to {} ops",
            first.variant,
            shrunk.schedule.ops.len()
        );
        if shrunk.schedule.ops.len() > 12 {
            return Err(format!(
                "{name} repro did not shrink below 12 ops (got {})",
                shrunk.schedule.ops.len()
            ));
        }
    }
    Ok(())
}

/// `--replay PATH`: run one schedule JSON file (a shrunk repro or a
/// corpus entry's `schedule` object) and report its outcome; `--trace`
/// dumps the full event trace, `--mutation` / `--mutation-cut` arm a
/// mutation, `--repro-out` shrinks the failure and writes it back out.
fn replay_one(args: &Args, path: &str) -> Result<(), String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("read {path}: {e}"))?;
    let json = rda_check::Json::parse(&text).map_err(|e| format!("{path}: {e}"))?;
    let sched = rda_check::Schedule::from_json(&json).map_err(|e| format!("{path}: {e}"))?;
    let mutations = args.mutations;
    let outcome = rda_check::run_schedule(&sched, mutations);
    if args.trace {
        print!("{}", outcome.trace);
    }
    println!(
        "replay '{}': {} workload I/Os, {} crashes, fault fired = {}",
        sched.name, outcome.workload_ios, outcome.crashes, outcome.fault_fired
    );
    if outcome.ok() {
        println!("replay passed: no violations");
        return Ok(());
    }
    for v in &outcome.violations {
        println!("violation: {v}");
    }
    if let Some(out) = &args.repro_out {
        let shrunk = shrink(&sched, mutations, 400);
        write_file(out, &shrunk.schedule.to_json().to_string())?;
        println!(
            "shrunk to {} ops in {} evals; written to {out}",
            shrunk.schedule.ops.len(),
            shrunk.evals
        );
    }
    Err(format!("{} violations", outcome.violations.len()))
}

fn write_file(path: &str, text: &str) -> Result<(), String> {
    let mut file = std::fs::File::create(path).map_err(|e| format!("create {path}: {e}"))?;
    file.write_all(text.as_bytes())
        .map_err(|e| format!("write {path}: {e}"))?;
    file.write_all(b"\n")
        .map_err(|e| format!("write {path}: {e}"))
}
