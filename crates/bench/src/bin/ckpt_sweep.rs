//! The checkpoint-interval trade-off, measured on the engine — the
//! empirical analogue of the model's optimal-`I` derivation (§5,
//! equation (1)): frequent ACC checkpoints cost flush I/O, infrequent ones
//! cost redo at restart. We run a ¬FORCE workload with crashes injected at
//! a fixed rate across a sweep of checkpoint intervals and report total
//! transfers per committed transaction (workload + checkpoints + restart).
//! The model predicts a U-shape. With page logging the engine shows it —
//! restart reads the log from the last checkpoint, where the engine cuts
//! it — with record logging the curve flattens instead; see the closing
//! note.
//!
//! Run: `cargo run --release -p rda-bench --bin ckpt_sweep`

use rda_bench::{exit_on_failure, write_json};
use rda_core::{CheckpointPolicy, DbConfig, EngineKind, EotPolicy, LogGranularity};
use rda_sim::{run_spec, RunConfig, WorkloadSpec};

struct Row {
    ckpt_every_ops: u64,
    page_mode: f64,
    record_mode: f64,
    crashes: u64,
}
rda_obs::json_struct!(Row {
    ckpt_every_ops,
    page_mode,
    record_mode,
    crashes
});

fn measure(ops: u64, granularity: LogGranularity) -> (f64, u64) {
    let mut db = DbConfig::paper_like(EngineKind::Rda, 1000, 100);
    db.eot = EotPolicy::NoForce;
    db.granularity = granularity;
    db.checkpoint = CheckpointPolicy::AccEvery { ops };
    let cfg = RunConfig {
        crash_every: Some(60), // a crash every ~60 commits
        ..RunConfig::default()
    };
    let spec = WorkloadSpec::high_update(1000, 80).locality(0.85);
    let result = run_spec(db, &cfg, &spec, 600);
    exit_on_failure(result.check());
    (result.transfers_per_committed, result.crashes_injected)
}

fn main() {
    println!("¬FORCE/ACC, crash every ~60 commits, 600 txns — cost vs checkpoint interval\n");
    println!(
        "{:>16} {:>20} {:>20} {:>9}",
        "ckpt every (ops)", "page mode c_t", "record mode c_t", "crashes"
    );
    let mut rows = Vec::new();
    for ops in [25u64, 75, 200, 600, 2000, 8000] {
        let (page_mode, crashes) = measure(ops, LogGranularity::Page);
        let (record_mode, _) = measure(ops, LogGranularity::Record);
        println!("{ops:>16} {page_mode:>20.1} {record_mode:>20.1} {crashes:>9}");
        rows.push(Row {
            ckpt_every_ops: ops,
            page_mode,
            record_mode,
            crashes,
        });
    }
    println!("\nfrequent checkpoints clearly hurt (left side of the model's U). With page");
    println!("logging the right side bends up too: restart reads the log from the last");
    println!("checkpoint (the engine cuts it there), so once the interval exceeds the");
    println!("crash spacing and no checkpoint fires any more, every restart reads the");
    println!("run's whole history — the interior optimum of the model's equation (1).");
    println!("With record logging the log is a fraction of the size, the restart read");
    println!("never outweighs the flushes, and since this engine's redo does bounded");
    println!("I/O per *page* (coalesced images), not per logged action as the model");
    println!("charges, the cost saturates at the redo-bounded floor instead.");
    write_json("ckpt_sweep", &rows);
}
