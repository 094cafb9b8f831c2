//! CLAIM-X (§5.2.2) — "while the ¬FORCE, ACC algorithm outperforms the
//! FORCE, TOC algorithm [without RDA], the situation is reversed when RDA
//! recovery is used": compare all four page-logging variants over C.
//!
//! Run: `cargo run -p rda-bench --bin crossover`

use rda_bench::{figure_grid, write_json};
use rda_model::{families, ModelParams, Workload};

struct Row {
    c: f64,
    force_toc: f64,
    force_toc_rda: f64,
    noforce_acc: f64,
    noforce_acc_rda: f64,
}
rda_obs::json_struct!(Row {
    c,
    force_toc,
    force_toc_rda,
    noforce_acc,
    noforce_acc_rda
});

fn main() {
    println!("page logging, high update frequency — transactions per interval\n");
    println!(
        "{:>5} {:>14} {:>14} {:>14} {:>14}",
        "C", "FORCE/TOC", "FORCE/TOC+RDA", "¬FORCE/ACC", "¬FORCE/ACC+RDA"
    );
    let mut rows = Vec::new();
    for c in figure_grid() {
        let p = ModelParams::paper_defaults(Workload::HighUpdate).communality(c);
        let a1 = families::a1::evaluate(&p);
        let a2 = families::a2::evaluate(&p);
        println!(
            "{:>5.2} {:>14.0} {:>14.0} {:>14.0} {:>14.0}",
            c, a1.non_rda.throughput, a1.rda.throughput, a2.non_rda.throughput, a2.rda.throughput
        );
        rows.push(Row {
            c,
            force_toc: a1.non_rda.throughput,
            force_toc_rda: a1.rda.throughput,
            noforce_acc: a2.non_rda.throughput,
            noforce_acc_rda: a2.rda.throughput,
        });
    }
    let reversed = rows
        .iter()
        .filter(|r| r.c >= 0.3)
        .all(|r| r.force_toc < r.noforce_acc && r.force_toc_rda > r.noforce_acc);
    println!(
        "\nCLAIM-X {}: ¬FORCE beats FORCE without RDA, and FORCE+RDA beats ¬FORCE without RDA",
        if reversed {
            "CONFIRMED"
        } else {
            "NOT confirmed"
        }
    );
    write_json("crossover", &rows);
}
