//! SIM-V — close the loop between the paper's analytical model and the
//! real engine: run the high-update workload through both engines at
//! several locality settings and print the model's predicted
//! per-transaction cost (at the *measured* communality) next to the
//! measured one.
//!
//! Run: `cargo run --release -p rda-bench --bin sim_vs_model`

use rda_bench::{exit_on_failure, write_json};
use rda_sim::model_vs_sim;

fn main() {
    println!("A1 (page logging, FORCE/TOC), S = 500 pages, B = 50 frames, 200 txns\n");
    println!(
        "{:>9} {:>10} {:>12} {:>12} {:>12} {:>12} {:>11} {:>10}",
        "locality",
        "meas. C",
        "model ¬RDA",
        "sim ¬RDA",
        "model RDA",
        "sim RDA",
        "model gain",
        "sim gain"
    );
    let mut checks = Vec::new();
    for locality in [0.3, 0.5, 0.7, 0.85, 0.95] {
        let check = exit_on_failure(model_vs_sim(500, 50, 200, locality));
        println!(
            "{:>9.2} {:>10.2} {:>12.1} {:>12.1} {:>12.1} {:>12.1} {:>10.1}% {:>9.1}%",
            locality,
            check.measured_c,
            check.model_ct_wal,
            check.sim_ct_wal,
            check.model_ct_rda,
            check.sim_ct_rda,
            check.model_gain * 100.0,
            check.sim_gain * 100.0
        );
        checks.push(check);
    }
    println!("\n(model c_t evaluated at the measured C; absolute offsets come from the");
    println!(" model's idealizations — fixed a, byte-amortized log writes — while the");
    println!(" gain direction and growth with C should agree)");
    write_json("sim_vs_model", &checks);
}
