//! Shared output helpers for the figure-regeneration binaries and the
//! timing loop of the two `benches/` programs.
//!
//! Every binary prints a paper-style table to stdout and, when the
//! `RDA_FIGURE_DIR` environment variable is set (or `target/figures`
//! exists/can be created), writes the series as JSON for EXPERIMENTS.md
//! bookkeeping.

use rda_model::FigureSeries;
use rda_obs::json::ToJson;
use std::path::PathBuf;
use std::time::{Duration, Instant};

/// Directory figure JSON lands in.
#[must_use]
pub fn figure_dir() -> PathBuf {
    std::env::var_os("RDA_FIGURE_DIR")
        .map_or_else(|| PathBuf::from("target/figures"), PathBuf::from)
}

/// Serialize a figure payload to `<dir>/<id>.json` (best effort — a
/// read-only target dir only loses the JSON copy, not the stdout table).
pub fn write_json<T: ToJson + ?Sized>(id: &str, payload: &T) {
    let dir = figure_dir();
    if std::fs::create_dir_all(&dir).is_err() {
        return;
    }
    let path = dir.join(format!("{id}.json"));
    if std::fs::write(&path, payload.to_json().to_string()).is_ok() {
        println!("\n[series written to {}]", path.display());
    }
}

/// The value of a simulator result, or exit with status 1 naming the
/// failure on stderr (`RunResult::check`, `Comparison::check`,
/// `model_vs_sim`).
pub fn exit_on_failure<T>(result: Result<T, String>) -> T {
    result.unwrap_or_else(|e| {
        eprintln!("simulator run failed: {e}");
        std::process::exit(1)
    })
}

/// Time `routine` for the `benches/` programs and print its median
/// ns/iter over 15 batches. Each iteration gets a fresh `setup()` value
/// whose construction is not timed; a warm-up batch sizes the batches to
/// roughly 20 ms of measured work.
pub fn bench<T>(name: &str, mut setup: impl FnMut() -> T, mut routine: impl FnMut(T)) {
    let mut batch = |iters: u32| {
        let mut spent = Duration::ZERO;
        for _ in 0..iters {
            let input = setup();
            let start = Instant::now();
            routine(input);
            spent += start.elapsed();
        }
        spent.as_nanos() as f64 / f64::from(iters)
    };
    let iters = ((2e7 / batch(8).max(1.0)) as u32).clamp(1, 1_000_000);
    let mut samples: Vec<f64> = (0..15).map(|_| batch(iters)).collect();
    samples.sort_by(f64::total_cmp);
    println!(
        "{name:<44} {:>12.0} ns/iter  ({iters} iters/batch)",
        samples[7]
    );
}

/// Print a throughput-vs-communality figure as two side-by-side tables,
/// the way the paper draws each figure with a high-update and a
/// high-retrieval panel.
pub fn print_figure(fig: &FigureSeries) {
    println!("== {} — {} ==", fig.id, fig.family);
    for (name, series) in [
        ("high update frequency", &fig.high_update),
        ("high retrieval frequency", &fig.high_retrieval),
    ] {
        println!("\n  [{name}]");
        println!(
            "  {:>5} {:>14} {:>14} {:>8}",
            "C", "¬RDA rt", "RDA rt", "gain"
        );
        for pt in series {
            println!(
                "  {:>5.2} {:>14.0} {:>14.0} {:>7.1}%",
                pt.c,
                pt.non_rda,
                pt.rda,
                pt.gain * 100.0
            );
        }
    }
}

/// Communality grid used by the figure binaries: the paper's plots span
/// C ∈ [0, 1]; we stop at 0.95 where the ¬FORCE formulas stay finite.
#[must_use]
pub fn figure_grid() -> Vec<f64> {
    (0..=19).map(|i| f64::from(i) * 0.05).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn grid_spans_unit_interval() {
        let g = figure_grid();
        assert_eq!(g.len(), 20);
        assert_eq!(g[0], 0.0);
        assert!((g[19] - 0.95).abs() < 1e-12);
    }

    #[test]
    fn json_roundtrip_smoke() {
        let dir = std::env::temp_dir().join(format!("rda-fig-test-{}", std::process::id()));
        std::env::set_var("RDA_FIGURE_DIR", &dir);
        write_json("smoke", &vec![1u32, 2, 3]);
        let written = std::fs::read_to_string(dir.join("smoke.json"));
        std::env::remove_var("RDA_FIGURE_DIR");
        // Cleaned up before the assertion, so a failing run leaves nothing.
        let _ = std::fs::remove_dir_all(&dir);
        assert!(written.unwrap().contains('1'));
    }
}
