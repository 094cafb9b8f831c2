//! §1 quantified — array rebuild vs archive-and-redo media recovery.
//!
//! The paper's opening argument: generating archive copies and maintaining
//! a redo log makes media recovery "prohibitive" for large databases;
//! redundant arrays recover a failed disk in place. This binary measures both paths on the same database while the
//! redo tail (work committed since the last archive) grows.
//!
//! Run: `cargo run --release -p rda-bench --bin media_compare`

use rda_bench::write_json;
use rda_core::{Database, DbConfig, EngineKind};

struct Row {
    post_dump_txns: u32,
    rebuild_transfers: u64,
    restore_transfers: u64,
    redo_records_applied: u64,
}
rda_obs::json_struct!(Row {
    post_dump_txns,
    rebuild_transfers,
    restore_transfers,
    redo_records_applied
});

fn measure(post_dump_txns: u32) -> Result<Row, rda_core::DbError> {
    let mut cfg = DbConfig::paper_like(EngineKind::Rda, 500, 64);
    cfg.array.page_size = 256;
    let db = Database::open(cfg);

    let mut tx = db.begin();
    for p in 0..db.data_pages() {
        tx.write(p, &[(p % 200) as u8 + 1; 16])?;
    }
    tx.commit()?;

    let archive = db.shard(0).archive_dump()?;
    for round in 0..post_dump_txns {
        let mut tx = db.begin();
        for k in 0..10u32 {
            tx.write(
                (round * 7 + k * 13) % db.data_pages(),
                &[round as u8 | 1; 16],
            )?;
        }
        tx.commit()?;
    }

    let before = db.stats();
    db.fail_disk(3);
    db.media_recover(3)?;
    let d = db.stats().delta(&before);
    let rebuild_transfers = d.array.transfers() + d.log.transfers();

    let before = db.stats();
    let redo_records_applied = db.shard(0).archive_restore(&archive)?;
    let d = db.stats().delta(&before);
    let restore_transfers = d.array.transfers() + d.log.transfers();

    Ok(Row {
        post_dump_txns,
        rebuild_transfers,
        restore_transfers,
        redo_records_applied,
    })
}

fn run() -> Result<(), rda_core::DbError> {
    println!("backend: simulated array (in-memory)");
    println!("S = 500 pages, N = 10, one failed disk — transfers to recover\n");
    println!(
        "{:>15} {:>16} {:>17} {:>13}",
        "txns since dump", "array rebuild", "archive restore", "redo applied"
    );
    let mut rows = Vec::new();
    for txns in [0u32, 50, 200, 800] {
        let row = measure(txns)?;
        println!(
            "{:>15} {:>16} {:>17} {:>13}",
            row.post_dump_txns,
            row.rebuild_transfers,
            row.restore_transfers,
            row.redo_records_applied
        );
        rows.push(row);
    }
    println!("\nrebuild cost is flat in history; the archive path pays the whole");
    println!("database plus a redo tail that grows without bound (§1's argument).");
    write_json("media_compare", &rows);
    Ok(())
}

fn main() {
    if let Err(e) = run() {
        eprintln!("media_compare failed: {e}");
        std::process::exit(1);
    }
}
