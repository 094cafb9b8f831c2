//! The §1 motivation, quantified: how often does a 50-disk farm lose a
//! disk, and how long until a parity array actually loses *data*?
//! Reproduces the footnote-1 arithmetic ("an MTTF of 30,000 hours for each
//! disk" → "mean time to failure ... less than 25 days" for 50 disks).
//!
//! Run: `cargo run -p rda-bench --bin reliability`

use rda_bench::write_json;
use rda_model::reliability::{
    failures_per_year, mttdl_array, mttf_any_disk, PAPER_DISK_MTTF_HOURS,
};

struct Row {
    disks: u32,
    mttf_any_days: f64,
    failures_per_year: f64,
    mttdl_years_raid: f64,
}
rda_obs::json_struct!(Row {
    disks,
    mttf_any_days,
    failures_per_year,
    mttdl_years_raid
});

fn main() {
    println!("per-disk MTTF = {PAPER_DISK_MTTF_HOURS} h (the paper's footnote 1)\n");
    println!(
        "{:>6} {:>16} {:>15} {:>22}",
        "disks", "MTTF any (days)", "failures/year", "MTTDL (years, N=10)"
    );
    let mut rows = Vec::new();
    for disks in [11u32, 22, 55, 110, 220] {
        let groups = disks / 11; // N = 10 data + 1 parity per group
        let mttdl_years = if groups > 0 {
            mttdl_array(PAPER_DISK_MTTF_HOURS, 11, groups, 24.0) / (24.0 * 365.25)
        } else {
            f64::NAN
        };
        let row = Row {
            disks,
            mttf_any_days: mttf_any_disk(PAPER_DISK_MTTF_HOURS, disks) / 24.0,
            failures_per_year: failures_per_year(PAPER_DISK_MTTF_HOURS, disks),
            mttdl_years_raid: mttdl_years,
        };
        println!(
            "{:>6} {:>16.1} {:>15.2} {:>22.0}",
            row.disks, row.mttf_any_days, row.failures_per_year, row.mttdl_years_raid
        );
        rows.push(row);
    }
    println!("\n§1: with ~50 disks a media failure arrives roughly every 25 days — hence");
    println!("recovery must be rapid and operator-free; with parity + 24 h rebuild,");
    println!("actual data loss recedes from weeks to years (MTTDL column).");
    write_json("reliability", &rows);
}
