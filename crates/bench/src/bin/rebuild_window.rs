//! Close the reliability loop: *measure* the rebuild window on the
//! simulated array, convert it to hours with a 1991-class service time,
//! and feed it back into the MTTDL model from `rda-model::reliability`.
//!
//! The paper's §1 motivates rapid, operator-free recovery; the MTTDL of a
//! parity array depends directly on how long a rebuild leaves a group
//! unprotected (the classic RAID window-of-vulnerability argument). This
//! binary sweeps the group size N and reports, per configuration: rebuild
//! transfers, estimated rebuild window, and the resulting array MTTDL.
//!
//! Run: `cargo run --release -p rda-bench --bin rebuild_window`

use rda_array::{ArrayConfig, DataPageId, DiskArray, DiskId, Organization, ParitySlot};
use rda_bench::write_json;
use rda_model::reliability::{mttdl_array, PAPER_DISK_MTTF_HOURS};

/// Service time per page transfer for a 1991-class drive (seek + rotate +
/// transfer for a random 2 KB page).
const MS_PER_TRANSFER: f64 = 25.0;

struct Row {
    n: u32,
    disks: u16,
    rebuild_transfers: u64,
    rebuild_window_hours: f64,
    /// The measured window extrapolated to a 1 GB (500k-page) 1991 drive.
    window_at_1gb_hours: f64,
    mttdl_years: f64,
}
rda_obs::json_struct!(Row {
    n,
    disks,
    rebuild_transfers,
    rebuild_window_hours,
    window_at_1gb_hours,
    mttdl_years
});

fn measure(n: u32) -> Result<Row, rda_array::ArrayError> {
    // Keep total data constant (~2000 pages) as N varies.
    let groups = 2000 / n;
    let a = DiskArray::new(ArrayConfig::new(Organization::RotatedParity, n, groups).page_size(256));
    // Populate so the rebuild moves real data.
    let page = {
        let mut p = a.blank_page();
        p.as_mut().fill(0x42);
        p
    };
    for i in 0..a.data_pages() {
        a.small_write(DataPageId(i), &page, None, ParitySlot::P0)?;
    }
    let before = a.stats().snapshot();
    let before_disks = a.stats().per_disk();
    a.fail_disk(DiskId(1));
    a.rebuild_disk(
        DiskId(1),
        |_| ParitySlot::P0,
        |_, _| rda_array::Header::default(),
    )?;
    let transfers = a.stats().snapshot().delta(&before).transfers();
    // The window is bounded by the busiest disk during the rebuild.
    let after_disks = a.stats().per_disk();
    let busiest = before_disks
        .iter()
        .zip(&after_disks)
        .map(|(b, a)| a - b)
        .max()
        .unwrap_or(0);
    let window_hours = busiest as f64 * MS_PER_TRANSFER / 3_600_000.0;
    // Extrapolate the measured per-block cost to a 1 GB drive (≈500k
    // pages), the era's capacity class; then feed that realistic window
    // into the MTTDL model for a 50-group farm.
    let blocks = a.geometry().blocks_per_disk() as f64;
    let window_at_1gb_hours = window_hours * (500_000.0 / blocks);
    let mttdl_years =
        mttdl_array(PAPER_DISK_MTTF_HOURS, n + 1, 50, window_at_1gb_hours) / (24.0 * 365.25);
    Ok(Row {
        n,
        disks: a.geometry().disks(),
        rebuild_transfers: transfers,
        rebuild_window_hours: window_hours,
        window_at_1gb_hours,
        mttdl_years,
    })
}

fn run() -> Result<(), rda_array::ArrayError> {
    println!("backend: simulated array (in-memory)");
    println!(
        "one failed disk, ~2000 data pages, {MS_PER_TRANSFER} ms/page — rebuild window vs N\n"
    );
    println!(
        "{:>4} {:>6} {:>18} {:>14} {:>14} {:>20}",
        "N", "disks", "rebuild transfers", "window (h)", "@1GB disk (h)", "MTTDL (yrs, 50grp)"
    );
    let mut rows = Vec::new();
    for n in [4u32, 8, 10, 16, 25] {
        let row = measure(n)?;
        println!(
            "{:>4} {:>6} {:>18} {:>14.3} {:>14.2} {:>20.0}",
            row.n,
            row.disks,
            row.rebuild_transfers,
            row.rebuild_window_hours,
            row.window_at_1gb_hours,
            row.mttdl_years
        );
        rows.push(row);
    }
    println!("\nlarger groups rebuild with more reads per block and fail in pairs more");
    println!("often — both effects shrink MTTDL, which is the quantitative case for");
    println!("moderate N that the paper's (100/N)% overhead argument pushes against.");
    write_json("rebuild_window", &rows);
    Ok(())
}

fn main() {
    if let Err(e) = run() {
        eprintln!("rebuild_window failed: {e}");
        std::process::exit(1);
    }
}
