//! Ablation — log-force accounting vs the model's assumption. The §5
//! model charges log I/O as `bytes / l_p`, which implicitly assumes group
//! commit: a force that only extends the current tail page is free. A
//! synchronous engine re-bills the tail page on every force, which erases
//! the record-logging advantage the model predicts for RDA (see
//! EXPERIMENTS.md, SIM-V note).
//!
//! This binary measures the A4 family (record logging, ¬FORCE/ACC) with
//! both accounting disciplines and shows the model's predicted gain
//! materialize exactly when its group-commit assumption is granted.
//!
//! Run: `cargo run --release -p rda-bench --bin ablation_groupcommit`

use rda_bench::{exit_on_failure, write_json};
use rda_check::sim::{compare_engines, RunConfig, WorkloadSpec};
use rda_core::{CheckpointPolicy, DbConfig, EotPolicy, LogGranularity};

struct Row {
    accounting: &'static str,
    rda_ct: f64,
    wal_ct: f64,
    gain_pct: f64,
}
rda_obs::json_struct!(Row {
    accounting,
    rda_ct,
    wal_ct,
    gain_pct
});

fn run(amortized: bool) -> Row {
    let spec = WorkloadSpec::high_update(1000, 80).locality(0.85);
    let cmp = compare_engines(
        |engine| {
            let mut cfg = DbConfig::paper_like(engine, 1000, 100)
                .granularity(LogGranularity::Record)
                .eot(EotPolicy::NoForce)
                .checkpoint(CheckpointPolicy::AccEvery { ops: 500 });
            cfg.log.amortized = amortized;
            cfg
        },
        &spec,
        300,
        &RunConfig::default(),
    );
    exit_on_failure(cmp.check());
    Row {
        accounting: if amortized {
            "amortized (group commit)"
        } else {
            "synchronous forces"
        },
        rda_ct: cmp.rda.transfers_per_committed,
        wal_ct: cmp.wal.transfers_per_committed,
        gain_pct: cmp.gain() * 100.0,
    }
}

fn main() {
    println!("A4 (record logging, ¬FORCE/ACC), 300 txns — force-accounting ablation\n");
    println!(
        "{:<28} {:>10} {:>10} {:>9}",
        "log accounting", "RDA c_t", "WAL c_t", "gain"
    );
    let rows = vec![run(false), run(true)];
    for r in &rows {
        println!(
            "{:<28} {:>10.1} {:>10.1} {:>8.1}%",
            r.accounting, r.rda_ct, r.wal_ct, r.gain_pct
        );
    }
    println!("\nthe model's record-logging RDA gain assumes byte-amortized log writes;");
    println!("granting that assumption (group commit) moves the engine toward it.");
    write_json("ablation_groupcommit", &rows);
}
