//! Ablation — per-disk load balance under the two array organizations.
//!
//! §3 recounts why RAID rotates parity ("to avoid contention on the parity
//! disk") and why Gray et al. prefer parity striping for OLTP (small
//! requests served by a single disk). With per-disk transfer counters on
//! the simulated array we can *measure* the balance: run the same random
//! small-write workload on both organizations and report the spread
//! between the busiest and idlest disk.
//!
//! Run: `cargo run --release -p rda-bench --bin ablation_diskload`

use rda_array::{ArrayConfig, DataPageId, DiskArray, Organization, ParitySlot};
use rda_bench::write_json;

struct Row {
    organization: String,
    per_disk: Vec<u64>,
    max_over_mean: f64,
}
rda_obs::json_struct!(Row {
    organization,
    per_disk,
    max_over_mean
});

fn measure(org: Organization) -> Result<Row, rda_array::ArrayError> {
    let a = DiskArray::new(ArrayConfig::new(org, 10, 100).page_size(256));
    let mut rng = rda_obs::rng::Rng::new(rda_obs::rng::mix(7, 0));
    let page = a.blank_page();
    for _ in 0..5_000 {
        let p = DataPageId(rng.below(u64::from(a.data_pages())) as u32);
        a.small_write(p, &page, None, ParitySlot::P0)?;
    }
    let per_disk = a.stats().per_disk();
    let mean = per_disk.iter().sum::<u64>() as f64 / per_disk.len() as f64;
    let max = per_disk.iter().max().copied().unwrap_or(0) as f64;
    Ok(Row {
        organization: format!("{org:?}"),
        per_disk,
        max_over_mean: max / mean,
    })
}

fn run() -> Result<(), rda_array::ArrayError> {
    println!("backend: simulated array (in-memory)");
    println!("5000 uniform small writes, N = 10, 11 disks — transfers per disk\n");
    let mut rows = Vec::new();
    for org in [
        Organization::RotatedParity,
        Organization::ParityStriping,
        Organization::DedicatedParity,
    ] {
        let row = measure(org)?;
        println!(
            "{:<16} max/mean = {:.3}",
            row.organization, row.max_over_mean
        );
        println!("  {:?}", row.per_disk);
        rows.push(row);
    }
    println!("\nthe paper's two organizations spread parity across all spindles;");
    println!("the RAID-4 baseline funnels every small write through one parity disk,");
    println!("which is exactly the contention Figure 1's rotation avoids.");
    write_json("ablation_diskload", &rows);
    Ok(())
}

fn main() {
    if let Err(e) = run() {
        eprintln!("ablation_diskload failed: {e}");
        std::process::exit(1);
    }
}
