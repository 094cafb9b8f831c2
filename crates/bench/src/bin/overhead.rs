//! STORE — the conclusion's storage-overhead claim: "The extra storage
//! used is about (100/N)% of the size of the database", doubled for the
//! twin-page scheme. Enumerates actual array configurations.
//!
//! Run: `cargo run -p rda-bench --bin overhead`

use rda_array::{ArrayConfig, Organization};
use rda_bench::write_json;

struct Row {
    n: u32,
    disks_single: u16,
    overhead_single_pct: f64,
    disks_twin: u16,
    overhead_twin_pct: f64,
}
rda_obs::json_struct!(Row {
    n,
    disks_single,
    overhead_single_pct,
    disks_twin,
    overhead_twin_pct
});

fn main() {
    println!(
        "{:>4} {:>13} {:>16} {:>11} {:>15}",
        "N", "disks(1×par)", "overhead(1×par)", "disks(twin)", "overhead(twin)"
    );
    let mut rows = Vec::new();
    for n in [2u32, 4, 5, 8, 10, 16, 20, 32] {
        let single = ArrayConfig::new(Organization::RotatedParity, n, 10);
        let twin = single.clone().twin(true);
        println!(
            "{:>4} {:>13} {:>15.1}% {:>11} {:>14.1}%",
            n,
            single.disks(),
            single.storage_overhead() * 100.0,
            twin.disks(),
            twin.storage_overhead() * 100.0
        );
        rows.push(Row {
            n,
            disks_single: single.disks(),
            overhead_single_pct: single.storage_overhead() * 100.0,
            disks_twin: twin.disks(),
            overhead_twin_pct: twin.storage_overhead() * 100.0,
        });
    }
    println!("\npaper (conclusions): ≈(100/N)% for parity; the twin page doubles it.");
    write_json("overhead", &rows);
}
