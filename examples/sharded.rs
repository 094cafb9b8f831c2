//! Sharded engine + group commit: N independent shards (each a complete
//! engine with its own lock table, WAL, and parity sub-array), pages
//! routed to shards by parity group, cross-shard transactions committed
//! through a durable-intent 2PC, and commit log forces batched by the
//! group-commit gate.
//!
//! Run with: `cargo run --example sharded`

use rda::core::{Database, DbConfig, EngineKind, GroupCommit};

fn main() {
    // Four shards; commits batched through a 100µs group-commit window.
    let cfg = DbConfig::small_test(EngineKind::Rda)
        .shards(4)
        .group_commit(GroupCommit {
            window_micros: 100,
            max_batch: 8,
        });
    let db = Database::open(cfg);
    println!(
        "{} shards, {} data pages",
        db.shard_count(),
        db.data_pages()
    );

    // --- single-shard fast path ------------------------------------------
    // Page 0 lives in shard 0; this transaction never touches another
    // shard's locks.
    let mut tx = db.begin();
    tx.write(0, b"shard 0").expect("write");
    tx.commit().expect("commit");

    // --- cross-shard 2PC ---------------------------------------------------
    // Pages 1 and 5 live in different shards: the coordinator stages a
    // durable intent, then commits shard-by-shard in ascending order.
    let mut tx = db.begin();
    tx.write(1, b"shard 0").expect("write");
    tx.write(5, b"shard 1").expect("write");
    println!("touches shards {:?}", tx.shards_touched());
    tx.commit().expect("cross-shard commit");

    // --- crash + restart ----------------------------------------------------
    // Each shard recovers independently (in parallel), then any decided
    // but unapplied cross-shard intents are replayed.
    let report = db.crash_and_recover().expect("restart recovery");
    println!(
        "recovered {} shards ({} groups scanned), {} intents replayed",
        db.shard_count(),
        report.bitmap_groups,
        report.replayed.len()
    );
    assert_eq!(&db.read_page(0).unwrap()[..7], b"shard 0");
    assert_eq!(&db.read_page(5).unwrap()[..7], b"shard 1");

    let stats = db.stats();
    println!(
        "cross-shard commits: {}, aborts: {}",
        stats.cross_shard_commits, stats.cross_shard_aborts
    );
}
