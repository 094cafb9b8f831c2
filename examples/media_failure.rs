//! Media recovery — the failure mode redundant arrays were built for
//! (paper §1: archive-based media recovery "is prohibitive for many
//! applications ... redundant disk arrays provide an alternative").
//!
//! We load a database, kill one disk outright, keep serving reads in
//! degraded mode (XOR reconstruction through the committed parity twin),
//! then rebuild onto a replacement drive and verify every page — twice,
//! once for each array organization the paper studies.
//!
//! Run with: `cargo run --example media_failure`

use rda::array::{ArrayConfig, Organization};
use rda::buffer::BufferConfig;
use rda::core::{Database, DbConfig, EngineKind};
use rda::wal::LogConfig;

fn run(org: Organization) {
    println!("=== {org:?} ===");
    let cfg = DbConfig {
        array: ArrayConfig::new(org, 6, 20).twin(true).page_size(128),
        buffer: BufferConfig::steal_clock(24),
        log: LogConfig::default(),
        ..DbConfig::small_test(EngineKind::Rda)
    };
    let db = Database::open(cfg);
    let pages = db.data_pages();

    // Load recognizable content.
    let mut tx = db.begin();
    for p in 0..pages {
        tx.write(p, format!("page-{p:04}").as_bytes())
            .expect("load");
    }
    tx.commit().expect("load commit");

    // Disk 2 dies.
    let before = db.stats();
    db.fail_disk(2);
    println!("disk 2 failed — serving degraded reads");

    // Degraded reads still return correct data (reconstruction costs N
    // transfers instead of 1).
    for p in (0..pages).step_by(7) {
        let got = db.read_page(p).expect("degraded read");
        assert_eq!(&got[..9], format!("page-{p:04}").as_bytes());
    }
    let degraded = db.stats().delta(&before);
    println!(
        "degraded sample reads cost {} transfers ({} reads)",
        degraded.array.transfers(),
        degraded.array.reads
    );

    // Updates keep flowing while degraded.
    let mut tx = db.begin();
    tx.write(3, b"updated-while-degraded")
        .expect("degraded write");
    tx.commit().expect("degraded commit");

    // Replace the drive and rebuild from the surviving group members.
    let before = db.stats();
    let rebuilt = db.media_recover(2).expect("rebuild");
    let bill = db.stats().delta(&before);
    println!(
        "rebuilt {rebuilt} blocks using {} transfers ({} reads, {} writes)",
        bill.array.transfers(),
        bill.array.reads,
        bill.array.writes
    );

    // Everything back, including the mid-outage update.
    for p in 0..pages {
        let got = db.read_page(p).expect("read after rebuild");
        if p == 3 {
            assert_eq!(&got[..22], b"updated-while-degraded");
        } else {
            assert_eq!(&got[..9], format!("page-{p:04}").as_bytes());
        }
    }
    assert!(db.verify().expect("scrub").is_empty());
    println!("all {pages} pages verified after rebuild ✓\n");
}

fn main() {
    run(Organization::RotatedParity);
    run(Organization::ParityStriping);
}
