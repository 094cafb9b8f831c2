//! `rda-benchmark`: one command, six named workloads, end-to-end and
//! per-layer metrics for the twin-page RDA engine. See README.md.
//!
//! ```text
//! rda-benchmark --workload NAME [--seed N] [--seconds S] [--trace 0|1]
//! rda-benchmark --all [--traced] [--seed N] [--seconds S]
//! rda-benchmark --agree [--runs K] [--seed N] [--seconds S]
//! rda-benchmark --list
//! ```
//!
//! A `--workload` run prints `workload metric value unit` lines and ends
//! with one JSON object: `correct`, `attempted`, `failed`, `metrics`.

mod clock;
mod drive;
mod gen;
mod probes;
mod restart;
mod spec;
mod stats;
mod sys;
mod trace;
mod workloads;

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::PathBuf;
use std::process::{Command, ExitCode};

/// The default `--seed`.
const DEFAULT_SEED: u64 = 0x1992;
/// The default `--seconds`; `BENCHMARK.json` freezes the same number.
const DEFAULT_SECONDS: f64 = 10.0;

/// What one workload run is asked to do.
pub struct Opts {
    /// Every script, stamp and sampling decision derives from it.
    pub seed: u64,
    /// Length of the measured phase.
    pub seconds: f64,
    /// Per-layer run: recorder on, probes, `trace-<workload>.jsonl`.
    pub trace: bool,
    /// Where file-backed databases and crash images live for this process.
    pub dir: PathBuf,
    /// Where `trace-<workload>.jsonl` goes.
    pub out: PathBuf,
    /// Self-test: feed the oracle a stamp the engine never committed; the
    /// run must then report `correct: false` and exit non-zero.
    pub break_oracle: bool,
}

/// What one workload run found.
pub struct Report {
    /// The workload's name.
    pub workload: &'static str,
    /// Operations tried: transactions, or restart cycles.
    pub attempted: u64,
    /// Operations that failed, plus every oracle, scrub or audit finding.
    pub failed: u64,
    /// The first few failures, in words.
    pub problems: Vec<String>,
    values: BTreeMap<&'static str, f64>,
    notes: Vec<(&'static str, String)>,
    /// The kept spans as JSON lines (traced runs).
    pub trace: Option<String>,
}

impl Report {
    /// An empty report for `workload`.
    #[must_use]
    pub fn new(workload: &'static str) -> Report {
        Report {
            workload,
            attempted: 0,
            failed: 0,
            problems: Vec::new(),
            values: BTreeMap::new(),
            notes: Vec::new(),
            trace: None,
        }
    }

    /// Record a metric's value under its `spec` name.
    pub fn set(&mut self, metric: &'static str, value: f64) {
        self.values.insert(metric, value);
    }

    /// A recorded metric, 0 when the workload does not have it.
    #[must_use]
    pub fn get(&self, metric: &str) -> f64 {
        self.values.get(metric).copied().unwrap_or(0.0)
    }

    /// A `# workload key value` line for the human reader.
    pub fn note(&mut self, key: &'static str, value: String) {
        self.notes.push((key, value));
    }

    /// The table and, as the last line, the JSON object the driver reads.
    fn render(&self, metrics: &[spec::Metric]) -> String {
        let mut out = String::new();
        for (k, v) in &self.notes {
            let _ = writeln!(out, "# {} {k} {v}", self.workload);
        }
        for p in &self.problems {
            let _ = writeln!(out, "# {} problem: {p}", self.workload);
        }
        let mut json = String::new();
        for m in metrics {
            let v = self.get(m.name);
            let _ = writeln!(out, "{} {} {v} {}", self.workload, m.name, m.unit);
            if !json.is_empty() {
                json.push_str(", ");
            }
            let _ = write!(
                json,
                "\"{}\": {{\"value\": {v}, \"unit\": \"{}\"}}",
                m.name, m.unit
            );
        }
        let correct = self.failed == 0 && self.attempted > 0;
        let _ = writeln!(
            out,
            "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{json}}}}}",
            self.attempted.max(1),
            self.failed
        );
        out
    }
}

/// The `(name, value)` pairs of a run's last line, in order. Reads only
/// what [`Report::render`] writes.
fn parse_metrics(line: &str) -> Vec<(String, f64)> {
    let Some((_, body)) = line.split_once("\"metrics\": {") else {
        return Vec::new();
    };
    body.split("\"unit\"")
        .filter_map(|chunk| {
            let (head, value) = chunk.split_once("\": {\"value\": ")?;
            let name = head.rsplit('"').next()?;
            let value = value.trim_end().trim_end_matches(',').parse().ok()?;
            Some((name.to_string(), value))
        })
        .collect()
}

enum Mode {
    Workload(String),
    All,
    Agree,
    List,
    CrashChild(PathBuf),
}

struct Cli {
    mode: Mode,
    seed: u64,
    seconds: f64,
    trace: bool,
    runs: usize,
    dir: Option<PathBuf>,
    out: Option<PathBuf>,
    break_oracle: bool,
}

fn usage() -> String {
    "usage: rda-benchmark (--workload NAME | --all | --agree | --list) \
     [--seed N] [--seconds S] [--trace 0|1 | --traced] [--runs K] [--dir D] [--out F]"
        .to_string()
}

fn parse_cli(args: &[String]) -> Result<Cli, String> {
    let mut cli = Cli {
        mode: Mode::List,
        seed: DEFAULT_SEED,
        seconds: DEFAULT_SECONDS,
        trace: false,
        runs: 3,
        dir: None,
        out: None,
        break_oracle: false,
    };
    let mut mode = None;
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let mut value = |what: &str| {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{arg} needs {what}\n{}", usage()))
        };
        match arg.as_str() {
            "--workload" => mode = Some(Mode::Workload(value("a name")?)),
            "--all" => mode = Some(Mode::All),
            "--agree" => mode = Some(Mode::Agree),
            "--list" => mode = Some(Mode::List),
            "--crash-child" => mode = Some(Mode::CrashChild(PathBuf::from(value("a directory")?))),
            "--seed" => {
                let v = value("a number")?;
                cli.seed = match v.strip_prefix("0x") {
                    Some(hex) => u64::from_str_radix(hex, 16),
                    None => v.parse(),
                }
                .map_err(|e| format!("--seed {v}: {e}"))?;
            }
            "--seconds" => {
                let v = value("a number")?;
                cli.seconds = v.parse().map_err(|e| format!("--seconds {v}: {e}"))?;
                if !(cli.seconds > 0.0 && cli.seconds <= 120.0) {
                    return Err(format!("--seconds {v}: must be in (0, 120]"));
                }
            }
            "--trace" => {
                cli.trace = match value("0 or 1")?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace {other}: must be 0 or 1")),
                }
            }
            "--traced" => cli.trace = true,
            "--runs" => {
                let v = value("a count")?;
                cli.runs = v.parse().map_err(|e| format!("--runs {v}: {e}"))?;
                if cli.runs < 2 {
                    return Err("--runs: at least 2".to_string());
                }
            }
            "--dir" => cli.dir = Some(PathBuf::from(value("a directory")?)),
            "--out" => cli.out = Some(PathBuf::from(value("a directory")?)),
            "--break-oracle" => cli.break_oracle = true,
            other => return Err(format!("unknown argument {other}\n{}", usage())),
        }
    }
    cli.mode = mode.ok_or_else(usage)?;
    Ok(cli)
}

/// The build's target directory (`…/release/rda-benchmark` → `…`): inside
/// the checkout, and already ignored by git.
fn target_dir() -> Result<PathBuf, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    exe.parent()
        .and_then(|p| p.parent())
        .map(PathBuf::from)
        .ok_or_else(|| format!("{} has no target directory", exe.display()))
}

fn run_workload(name: &str, cli: &Cli) -> Result<bool, String> {
    let Some(workload) = spec::workload(name) else {
        let names: Vec<&str> = spec::WORKLOADS.iter().map(|w| w.name).collect();
        return Err(format!("unknown workload {name}; one of {names:?}"));
    };
    let target = target_dir()?;
    let base = cli.dir.clone().unwrap_or_else(|| sys::default_dir(&target));
    let dir = base.join(format!("{}-{}", workload.name, std::process::id()));
    std::fs::create_dir_all(&dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
    let opts = Opts {
        seed: cli.seed,
        seconds: cli.seconds,
        trace: cli.trace,
        dir: dir.clone(),
        out: cli.out.clone().unwrap_or_else(|| target.join("benchmark")),
        break_oracle: cli.break_oracle,
    };
    println!(
        "# {} seed {:#x} seconds {} trace {} host_cpus {} dir {} fs_type {} deps {}",
        workload.name,
        opts.seed,
        opts.seconds,
        u8::from(opts.trace),
        std::thread::available_parallelism().map_or(1, std::num::NonZero::get),
        dir.display(),
        sys::fs_type(&dir),
        // Set by run.sh: `registry` crates or the `stubs/` stand-ins.
        std::env::var("RDA_BENCHMARK_DEPS").unwrap_or_else(|_| "unknown".to_string()),
    );
    let result = match workload.name {
        "sim-update" => workloads::sim_update(&opts),
        "sim-read-mostly" => workloads::sim_read_mostly(&opts),
        "sim-sharded-2t" => workloads::sim_sharded_2t(&opts),
        "file-commit" => workloads::file_commit(&opts),
        "file-commit-2t" => workloads::file_commit_2t(&opts),
        _ => restart::file_restart(&opts),
    };
    let _ = std::fs::remove_dir_all(&dir);
    if cli.dir.is_none() {
        // Leave nothing behind. Fails, as it should, while another run's
        // sub-directory is in it.
        let _ = std::fs::remove_dir(&base);
    }
    let report = result?;
    if let Some(spans) = &report.trace {
        std::fs::create_dir_all(&opts.out)
            .map_err(|e| format!("create {}: {e}", opts.out.display()))?;
        let path = opts.out.join(format!("trace-{}.jsonl", report.workload));
        std::fs::write(&path, spans).map_err(|e| format!("write {}: {e}", path.display()))?;
        println!("# {} trace {}", report.workload, path.display());
    }
    let metrics = if opts.trace {
        spec::PER_LAYER
    } else {
        spec::END_TO_END
    };
    print!("{}", report.render(metrics));
    Ok(report.failed == 0)
}

/// This program again, asked for one workload.
fn child(name: &str, seed: u64, cli: &Cli, trace: bool) -> Result<Command, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let mut cmd = Command::new(exe);
    cmd.args(["--workload", name, "--seed", &seed.to_string()])
        .args(["--seconds", &cli.seconds.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }]);
    if let Some(dir) = &cli.dir {
        cmd.arg("--dir").arg(dir);
    }
    if let Some(out) = &cli.out {
        cmd.arg("--out").arg(out);
    }
    Ok(cmd)
}

/// `--all`: every workload, one child process each, tables passed through.
fn run_all(cli: &Cli) -> Result<bool, String> {
    let mut ok = true;
    for w in spec::WORKLOADS {
        let status = child(w.name, cli.seed, cli, cli.trace)?
            .status()
            .map_err(|e| format!("spawn {}: {e}", w.name))?;
        ok &= status.success();
    }
    Ok(ok)
}

/// `--agree`: two complete sets of `--runs` runs per workload (seeds
/// `seed`, `seed+1`, …, alternating sets), then per metric both medians,
/// their ratio, each set's quartile spread, and the bound. Fails when a
/// second median is worse than the first by more than the bound or a
/// spread exceeds it (`setup_s` is exempt from the spread rule).
fn run_agree(cli: &Cli) -> Result<bool, String> {
    let mut ok = true;
    println!("workload metric median_a median_b worse_by spread_a spread_b bound verdict");
    for w in spec::WORKLOADS {
        let mut sets: [BTreeMap<String, Vec<f64>>; 2] = [BTreeMap::new(), BTreeMap::new()];
        for run in 0..cli.runs {
            for set in &mut sets {
                let output = child(w.name, cli.seed + run as u64, cli, false)?
                    .output()
                    .map_err(|e| format!("spawn {}: {e}", w.name))?;
                let stdout = String::from_utf8_lossy(&output.stdout);
                let last = stdout.lines().last().unwrap_or("");
                let metrics = parse_metrics(last);
                if !(output.status.success() && last.contains("\"correct\": true")) {
                    ok = false;
                    println!("{} run {run}: failed or incorrect", w.name);
                }
                for (name, v) in metrics {
                    set.entry(name).or_default().push(v);
                }
            }
        }
        for m in spec::END_TO_END {
            let (Some(a), Some(b)) = (sets[0].get(m.name), sets[1].get(m.name)) else {
                ok = false;
                println!("{} {}: not reported", w.name, m.name);
                continue;
            };
            let (ma, mb) = (stats::median_f64(a), stats::median_f64(b));
            let worse_by = if m.higher_is_better {
                workloads::ratio(ma - mb, ma)
            } else {
                workloads::ratio(mb - ma, ma)
            };
            let (sa, sb) = (stats::spread(a), stats::spread(b));
            let bound = m.bound.unwrap_or(0.0);
            let steady = m.name == "setup_s" || (sa <= bound && sb <= bound);
            let agrees = worse_by <= bound;
            ok &= steady && agrees;
            println!(
                "{} {} {ma} {mb} {worse_by:.4} {sa:.4} {sb:.4} {bound} {}",
                w.name,
                m.name,
                match (agrees, steady) {
                    (true, true) => "ok",
                    (false, _) => "DISAGREE",
                    (true, false) => "UNSTEADY",
                }
            );
        }
    }
    Ok(ok)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let cli = match parse_cli(&args) {
        Ok(cli) => cli,
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::from(2);
        }
    };
    let outcome = match &cli.mode {
        Mode::List => {
            print!("{}", spec::list());
            Ok(true)
        }
        Mode::CrashChild(dir) => restart::crash_child(dir, cli.seed).map(|()| true),
        Mode::Workload(name) => run_workload(name, &cli),
        Mode::All => run_all(&cli),
        Mode::Agree => run_agree(&cli),
    };
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(e) => {
            eprintln!("rda-benchmark: {e}");
            ExitCode::from(1)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rendered_json_round_trips_through_the_parser() {
        let mut r = Report::new("sim-update");
        r.attempted = 1000;
        r.set("setup_s", 0.8127);
        r.set("txns_per_s", 61_234.567_891_23);
        r.set("commit_p50_us", 1.5e-3);
        r.note("committed", "990".to_string());
        let text = r.render(spec::END_TO_END);
        let last = text.lines().last().expect("a last line");
        assert!(last.starts_with("{\"correct\": true, \"attempted\": 1000, \"failed\": 0, "));
        let parsed = parse_metrics(last);
        assert_eq!(parsed.len(), spec::END_TO_END.len());
        for ((name, value), m) in parsed.iter().zip(spec::END_TO_END) {
            assert_eq!(name, m.name);
            assert!(last.contains(&format!("\"unit\": \"{}\"", m.unit)));
            let want = match m.name {
                "setup_s" => 0.8127,
                "txns_per_s" => 61_234.567_891_23,
                "commit_p50_us" => 1.5e-3,
                _ => 0.0,
            };
            assert_eq!(*value, want, "{name}: every digit survives");
        }
        // One table line per metric, `workload metric value unit`.
        assert!(text.contains("sim-update txns_per_s 61234.56789123 1/s\n"));
        // A failed check flips `correct`.
        r.failed = 1;
        assert!(r.render(spec::END_TO_END).contains("\"correct\": false"));
    }

    #[test]
    fn cli_accepts_the_driver_arguments() {
        let args = |s: &str| s.split_whitespace().map(String::from).collect::<Vec<_>>();
        let cli = parse_cli(&args(
            "--workload file-commit --seed 7 --seconds 10 --trace 1",
        ))
        .expect("parses");
        assert!(matches!(cli.mode, Mode::Workload(ref n) if n == "file-commit"));
        assert_eq!((cli.seed, cli.seconds, cli.trace), (7, 10.0, true));
        assert_eq!(
            parse_cli(&args("--list --seed 0x1992")).expect("hex").seed,
            0x1992
        );
        assert!(parse_cli(&args("--workload")).is_err());
        assert!(parse_cli(&args("--all --trace 2")).is_err());
        assert!(
            parse_cli(&args("--seconds 5")).is_err(),
            "a mode is required"
        );
    }
}
