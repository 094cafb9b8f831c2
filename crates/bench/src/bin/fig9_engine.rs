//! FIG9 (engine edition) — the empirical companion to the analytical
//! Figure 9: sweep locality (→ communality) on the *real* engine under the
//! A1 configuration for both workload environments and print the measured
//! per-transaction transfer cost, RDA vs the WAL baseline.
//!
//! Where the model's fig9 plots `rt = (T − c_s)/c_t`, the engine measures
//! `c_t` directly; `T/c_t` gives the same curve shape, so gain columns are
//! directly comparable.
//!
//! Run: `cargo run --release -p rda-bench --bin fig9_engine`

use rda_bench::{exit_on_failure, write_json};
use rda_check::sim::{compare_engines, RunConfig, WorkloadSpec};
use rda_core::{DbConfig, EotPolicy, LogGranularity};

struct Point {
    locality: f64,
    measured_c: f64,
    wal_ct: f64,
    rda_ct: f64,
    gain_pct: f64,
}
rda_obs::json_struct!(Point {
    locality,
    measured_c,
    wal_ct,
    rda_ct,
    gain_pct
});

struct Out {
    high_update: Vec<Point>,
    high_retrieval: Vec<Point>,
}
rda_obs::json_struct!(Out {
    high_update,
    high_retrieval
});

fn sweep(spec_for: impl Fn(f64) -> WorkloadSpec, label: &str) -> Vec<Point> {
    println!("\n  [{label}]");
    println!(
        "  {:>9} {:>9} {:>10} {:>10} {:>8}",
        "locality", "meas. C", "¬RDA c_t", "RDA c_t", "gain"
    );
    let mut points = Vec::new();
    for locality in [0.2, 0.4, 0.6, 0.8, 0.9, 0.95] {
        let spec = spec_for(locality);
        let cmp = compare_engines(
            |engine| {
                let mut cfg = DbConfig::paper_like(engine, 1000, 100);
                cfg.eot = EotPolicy::Force;
                cfg.granularity = LogGranularity::Page;
                cfg.log.amortized = true; // the model's accounting
                cfg
            },
            &spec,
            250,
            &RunConfig::default(),
        );
        exit_on_failure(cmp.check());
        let p = Point {
            locality,
            measured_c: f64::midpoint(cmp.rda.measured_c, cmp.wal.measured_c),
            wal_ct: cmp.wal.transfers_per_committed,
            rda_ct: cmp.rda.transfers_per_committed,
            gain_pct: cmp.gain() * 100.0,
        };
        println!(
            "  {:>9.2} {:>9.2} {:>10.1} {:>10.1} {:>7.1}%",
            p.locality, p.measured_c, p.wal_ct, p.rda_ct, p.gain_pct
        );
        points.push(p);
    }
    points
}

fn main() {
    println!("== fig9 (engine) — A1: page logging, FORCE/TOC, measured on rda-core ==");
    let high_update = sweep(
        |l| WorkloadSpec::high_update(1000, 80).locality(l),
        "high update frequency",
    );
    let high_retrieval = sweep(
        |l| WorkloadSpec::high_retrieval(1000, 80).locality(l),
        "high retrieval frequency",
    );
    println!("\ncompare against `--bin fig9` (the analytical curves): the gain should");
    println!("be large and C-insensitive for high update, small for high retrieval.");
    write_json(
        "fig9_engine",
        &Out {
            high_update,
            high_retrieval,
        },
    );
}
