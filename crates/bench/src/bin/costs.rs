//! The full §5 cost breakdown at the paper's two operating points — every
//! `c_*` term for all four families, with and without RDA. The table the
//! paper computes but never prints; useful when auditing the equation
//! reconstructions against the text.
//!
//! Run: `cargo run -p rda-bench --bin costs [C]` (default C = 0.9)

use rda_bench::write_json;
use rda_model::{families, CostBreakdown, Evaluation, ModelParams, Workload};

struct Row {
    family: &'static str,
    rda: bool,
    breakdown: CostBreakdown,
}
rda_obs::json_struct!(Row {
    family,
    rda,
    breakdown
});

fn print_line(name: &str, b: &CostBreakdown) {
    let interval = if b.interval.is_finite() {
        format!("{:.0}", b.interval)
    } else {
        "per-txn".to_string()
    };
    println!(
        "{name:<10} {:>8.2} {:>8.2} {:>9.1} {:>8.1} {:>7.2} {:>8.2} {:>7.2} {:>9} {:>10.0}",
        b.logging,
        b.backout,
        b.restart,
        b.checkpoint,
        b.retrieval,
        b.update,
        b.per_txn,
        interval,
        b.throughput
    );
}

fn main() {
    let c: f64 = std::env::args()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(0.9);
    let mut rows = Vec::new();
    for wl in [Workload::HighUpdate, Workload::HighRetrieval] {
        println!("\n== {wl:?}, C = {c} ==");
        println!(
            "{:<10} {:>8} {:>8} {:>9} {:>8} {:>7} {:>8} {:>7} {:>9} {:>10}",
            "family", "c_l", "c_b", "c_s", "c_c", "c_r", "c_u", "c_t", "I*", "rt"
        );
        let p = ModelParams::paper_defaults(wl).communality(c);
        let evals: [(&'static str, Evaluation); 4] = [
            ("A1", families::a1::evaluate(&p)),
            ("A2", families::a2::evaluate(&p)),
            ("A3", families::a3::evaluate(&p)),
            ("A4", families::a4::evaluate(&p)),
        ];
        for (name, eval) in evals {
            print_line(&format!("{name} ¬RDA"), &eval.non_rda);
            print_line(&format!("{name} +RDA"), &eval.rda);
            rows.push(Row {
                family: name,
                rda: false,
                breakdown: eval.non_rda,
            });
            rows.push(Row {
                family: name,
                rda: true,
                breakdown: eval.rda,
            });
        }
    }
    println!("\n(costs in page transfers; I* = optimal checkpoint interval; rt =");
    println!(" transactions per availability interval of 5·10⁶ transfers)");
    write_json("costs", &rows);
}
