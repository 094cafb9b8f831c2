//! Ablation — a finding from running the *real* engine that the analytical
//! model cannot see: RDA's benefit depends on updated pages being spread
//! across parity groups (the model samples them uniformly). A physically
//! contiguous hot set piles updates into few groups, inflating the
//! effective p_l and erasing — even inverting — the gain.
//!
//! We emulate the contiguous case by shrinking the database to the hot set
//! (so the "spread" mapping has nowhere to spread) and compare.
//!
//! Run: `cargo run --release -p rda-bench --bin ablation_hotspread`

use rda_bench::{exit_on_failure, write_json};
use rda_check::sim::{compare_engines, RunConfig, WorkloadSpec};
use rda_core::DbConfig;

struct Row {
    scenario: &'static str,
    rda_ct: f64,
    wal_ct: f64,
    gain_pct: f64,
}
rda_obs::json_struct!(Row {
    scenario,
    rda_ct,
    wal_ct,
    gain_pct
});

fn run(scenario: &'static str, pages: u32, hot: u32) -> Row {
    let spec = WorkloadSpec::high_update(pages, hot).locality(0.85);
    let cmp = compare_engines(
        |engine| DbConfig::paper_like(engine, pages, 100),
        &spec,
        300,
        &RunConfig::default(),
    );
    exit_on_failure(cmp.check());
    Row {
        scenario,
        rda_ct: cmp.rda.transfers_per_committed,
        wal_ct: cmp.wal.transfers_per_committed,
        gain_pct: cmp.gain() * 100.0,
    }
}

fn main() {
    println!("A1 workload, 300 txns, P = 6 — hot-set spread vs RDA gain\n");
    println!(
        "{:<34} {:>10} {:>10} {:>9}",
        "scenario", "RDA c_t", "WAL c_t", "gain"
    );
    let rows = vec![
        // 80 hot pages spread over 1000 pages → ~80 distinct parity groups.
        run("hot set spread across groups", 1000, 80),
        // 80 hot pages in a 100-page database → at most 10 groups: the
        // riding-page slots are permanently contended.
        run("hot set piled into few groups", 100, 80),
    ];
    for r in &rows {
        println!(
            "{:<34} {:>10.1} {:>10.1} {:>8.1}%",
            r.scenario, r.rda_ct, r.wal_ct, r.gain_pct
        );
    }
    println!("\nspread vs piled gain gap shows the uniform-placement assumption in the");
    println!("paper's p_l derivation is load-bearing for the headline result.");
    write_json("ablation_hotspread", &rows);
}
