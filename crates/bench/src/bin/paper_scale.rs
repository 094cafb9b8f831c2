//! The paper's exact configuration, run on the real engine: S = 5000
//! pages (N = 10 → 500 twin groups, 12 disks), B = 300 frames, P = 6
//! concurrent transactions, 2020-byte pages, high-update workload — and
//! the throughput converted to the paper's unit (transactions per
//! availability interval of T = 5·10⁶ transfers) next to the model's
//! Figure 9 prediction at the measured communality.
//!
//! Run: `cargo run --release -p rda-bench --bin paper_scale`

use rda_bench::{exit_on_failure, write_json};
use rda_check::sim::{compare_engines, RunConfig, WorkloadSpec};
use rda_core::{DbConfig, EotPolicy, LogGranularity};
use rda_model::{families, ModelParams, Workload};

const T: f64 = 5.0e6;

struct Out {
    measured_c: f64,
    engine_rt_wal: f64,
    engine_rt_rda: f64,
    model_rt_wal: f64,
    model_rt_rda: f64,
    engine_gain_pct: f64,
    model_gain_pct: f64,
}
rda_obs::json_struct!(Out {
    measured_c,
    engine_rt_wal,
    engine_rt_rda,
    model_rt_wal,
    model_rt_rda,
    engine_gain_pct,
    model_gain_pct
});

fn main() {
    // Locality tuned so the measured C lands near the paper's interesting
    // high-C region.
    let spec = WorkloadSpec::high_update(5000, 280).locality(0.92);
    let cmp = compare_engines(
        |engine| {
            let mut cfg = DbConfig::paper_like(engine, 5000, 300);
            cfg.eot = EotPolicy::Force;
            cfg.granularity = LogGranularity::Page;
            cfg.log.amortized = true; // the model's log accounting
            cfg
        },
        &spec,
        600,
        &RunConfig::default(),
    );
    exit_on_failure(cmp.check());
    let measured_c = f64::midpoint(cmp.rda.measured_c, cmp.wal.measured_c).min(0.99);

    let eval = families::a1::evaluate(
        &ModelParams::paper_defaults(Workload::HighUpdate).communality(measured_c),
    );
    let out = Out {
        measured_c,
        engine_rt_wal: T / cmp.wal.transfers_per_committed,
        engine_rt_rda: T / cmp.rda.transfers_per_committed,
        model_rt_wal: eval.non_rda.throughput,
        model_rt_rda: eval.rda.throughput,
        engine_gain_pct: cmp.gain() * 100.0,
        model_gain_pct: eval.gain() * 100.0,
    };

    println!("paper-scale run: S = 5000, N = 10, B = 300, P = 6, 2020 B pages, 600 txns\n");
    println!("measured communality C = {:.2}\n", out.measured_c);
    println!(
        "{:<28} {:>12} {:>12} {:>8}",
        "", "¬RDA rt", "RDA rt", "gain"
    );
    println!(
        "{:<28} {:>12.0} {:>12.0} {:>7.1}%",
        "engine (T / measured c_t)", out.engine_rt_wal, out.engine_rt_rda, out.engine_gain_pct
    );
    println!(
        "{:<28} {:>12.0} {:>12.0} {:>7.1}%",
        "model (Figure 9 at that C)", out.model_rt_wal, out.model_rt_rda, out.model_gain_pct
    );
    println!("\n(the paper's Figure 9 axis spans 48 800 … 77 300 at this workload)");
    write_json("paper_scale", &out);
}
