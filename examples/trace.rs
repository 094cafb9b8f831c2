//! Structured event tracing, end to end: run a commit, strand an
//! uncommitted transaction whose pages were stolen to the array, crash,
//! recover — then pretty-print what the observability layer saw:
//!
//! 1. the **event trace** — steals, twin flips, parity UNDOs, disk I/O,
//!    stamped with the global I/O clock;
//! 2. the **recovery timeline** — per-phase billed reads/writes and
//!    wall-clock for intent replay, parity vs log UNDO, REDO and the
//!    Current_Parity bitmap scan;
//! 3. the **metrics registry** — counter snapshot in Prometheus text.
//!
//! Run with: `cargo run --example trace`

use rda::core::{Database, DbConfig, EngineKind, EventKind};

fn main() {
    // A tiny 2-frame buffer guarantees the loser's pages are stolen to
    // the array before the crash, so recovery has real parity UNDO work.
    let mut cfg = DbConfig::small_test(EngineKind::Rda).trace(4096);
    cfg.buffer.frames = 2;
    let db = Database::open(cfg);

    // A committed transaction: its writes must survive the crash.
    let mut tx = db.begin();
    tx.write(0, b"durable-a").unwrap();
    tx.write(5, b"durable-b").unwrap();
    tx.commit().unwrap();

    // A doomed transaction: write enough pages through the tiny buffer
    // that earlier ones are stolen (parity-protected) to disk, then lose
    // the machine before commit.
    let mut tx = db.begin();
    for p in [1u32, 6, 9, 13] {
        tx.write(p, &[0xEE; 8]).unwrap();
    }
    std::mem::forget(tx); // a real client just vanishes in the crash
    db.crash();

    let report = db.recover().expect("restart recovery");

    println!("=== event trace (commit, crash, restart) ===");
    let snap = db.shard(0).trace_snapshot();
    for ev in &snap.events {
        let tag = match ev.kind {
            EventKind::DiskRead { .. } | EventKind::DiskWrite { .. } => "  ",
            _ => "* ",
        };
        println!("{tag}{ev}");
    }
    if snap.dropped > 0 {
        println!("  ({} older events dropped from the ring)", snap.dropped);
    }

    println!();
    println!("=== recovery timeline ===");
    println!(
        "winners {}  losers {}  undone via parity {}  via log {}  pages scanned {}",
        report.winners.len(),
        report.losers.len(),
        report.undone_via_parity,
        report.undone_via_log,
        report.pages_scanned,
    );
    for ph in &report.timeline.phases {
        println!(
            "  {:<13} {:>3} reads {:>3} writes  {:>6} us",
            ph.phase.name(),
            ph.reads,
            ph.writes,
            ph.wall.as_micros()
        );
    }

    println!();
    println!("=== metrics ===");
    print!("{}", db.metrics().to_prometheus());

    // The committed transaction survived; the loser is gone.
    assert_eq!(&db.read_page(0).unwrap()[..9], b"durable-a");
    assert_eq!(&db.read_page(5).unwrap()[..9], b"durable-b");
    assert_ne!(db.read_page(1).unwrap()[0], 0xEE);
}
