//! Ablation — parity group size N trades storage overhead against the
//! logging probability p_l (bigger groups → cheaper parity but more
//! collisions on the one-riding-page-per-group rule). The paper fixes
//! N = 10; this sweep shows why that is a sensible middle.
//!
//! Run: `cargo run -p rda-bench --bin ablation_groupsize`

use rda_bench::write_json;
use rda_model::{families, ModelParams, Workload};

struct Row {
    n: f64,
    overhead_pct: f64,
    p_l: f64,
    gain_pct: f64,
}
rda_obs::json_struct!(Row {
    n,
    overhead_pct,
    p_l,
    gain_pct
});

fn main() {
    let base = ModelParams::paper_defaults(Workload::HighUpdate).communality(0.9);
    println!("A1, high update, C = 0.9 — sweep of parity-group size N\n");
    println!(
        "{:>4} {:>16} {:>8} {:>10}",
        "N", "twin overhead", "p_l", "RDA gain"
    );
    let mut rows = Vec::new();
    for n in [2.0, 4.0, 5.0, 8.0, 10.0, 16.0, 25.0, 50.0] {
        let e = families::a1::evaluate(&base.group_size(n));
        let overhead = 2.0 / n * 100.0;
        println!(
            "{:>4.0} {:>15.1}% {:>8.4} {:>9.1}%",
            n,
            overhead,
            e.p_l,
            e.gain() * 100.0
        );
        rows.push(Row {
            n,
            overhead_pct: overhead,
            p_l: e.p_l,
            gain_pct: e.gain() * 100.0,
        });
    }
    println!("\nsmall N: heavy storage overhead; large N: p_l grows and the UNDO");
    println!("savings shrink — N = 10 (the paper's choice) sits on the flat part.");
    write_json("ablation_groupsize", &rows);
}
