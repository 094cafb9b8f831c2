//! A tour of the paper's design space: run the *same* workload under all
//! four algorithm families (page/record logging × FORCE-TOC/¬FORCE-ACC),
//! each with the RDA engine and with the WAL baseline, and print the
//! measured I/O bill side by side — the experimental companion to the
//! analytical Figures 9–12.
//!
//! Run with: `cargo run --release --example policy_tour`

use rda::core::{CheckpointPolicy, DbConfig, EngineKind, EotPolicy, LogGranularity};
use rda::sim::{compare_engines, RunConfig, WorkloadSpec};

fn family_cfg(engine: EngineKind, granularity: LogGranularity, eot: EotPolicy) -> DbConfig {
    let mut cfg = DbConfig::paper_like(engine, 1000, 100);
    cfg.granularity = granularity;
    cfg.eot = eot;
    cfg.checkpoint = match eot {
        EotPolicy::Force => CheckpointPolicy::Manual,
        EotPolicy::NoForce => CheckpointPolicy::AccEvery { ops: 500 },
    };
    cfg
}

fn main() {
    let spec = WorkloadSpec::high_update(1000, 80).locality(0.85);
    let families: [(&str, LogGranularity, EotPolicy); 4] = [
        (
            "A1 page  / FORCE,TOC ",
            LogGranularity::Page,
            EotPolicy::Force,
        ),
        (
            "A2 page  / ¬FORCE,ACC",
            LogGranularity::Page,
            EotPolicy::NoForce,
        ),
        (
            "A3 record/ FORCE,TOC ",
            LogGranularity::Record,
            EotPolicy::Force,
        ),
        (
            "A4 record/ ¬FORCE,ACC",
            LogGranularity::Record,
            EotPolicy::NoForce,
        ),
    ];

    println!(
        "{:<24} {:>12} {:>12} {:>10} {:>9}",
        "family", "¬RDA c_t", "RDA c_t", "gain", "meas. C"
    );
    for (name, granularity, eot) in families {
        let cfg = RunConfig {
            warmup: 60,
            ..RunConfig::default()
        };
        let cmp = compare_engines(
            |engine| family_cfg(engine, granularity, eot),
            &spec,
            300,
            &cfg,
        );
        if let Err(e) = cmp.check() {
            eprintln!("{name}: {e}");
            std::process::exit(1);
        }
        let (rda, wal) = (&cmp.rda, &cmp.wal);
        println!(
            "{:<24} {:>12.1} {:>12.1} {:>9.1}% {:>9.2}",
            name,
            wal.transfers_per_committed,
            rda.transfers_per_committed,
            cmp.gain() * 100.0,
            rda.measured_c
        );
    }
    println!("\n(transfers per committed transaction, measured on the real engine;");
    println!(" compare the shapes against the model's Figures 9–12 binaries)");
}
