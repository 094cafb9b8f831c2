//! Degraded-mode operation: transactions keep running — including steals,
//! commits and aborts — while one disk is dead, and a later rebuild makes
//! the array whole. This is the availability story that motivates using
//! the array for recovery in the first place (§1).

use rda_buffer::BufferConfig;
use rda_core::{Database, DbConfig, EngineKind};

fn cfg(engine: EngineKind, frames: usize) -> DbConfig {
    DbConfig {
        buffer: BufferConfig::steal_clock(frames),
        ..DbConfig::small_test(engine)
    }
}

fn assert_page(db: &Database, page: u32, expect: &[u8]) {
    let got = db.read_page(page).unwrap();
    assert_eq!(&got[..expect.len()], expect, "page {page}");
}

#[test]
fn commits_continue_with_a_failed_disk() {
    for engine in [EngineKind::Rda, EngineKind::Wal] {
        let db = Database::open(cfg(engine, 8));
        let mut tx = db.begin();
        for p in 0..16 {
            tx.write(p, &[p as u8 + 1; 8]).unwrap();
        }
        tx.commit().unwrap();

        db.fail_disk(2);
        // Updates to pages everywhere — including on the dead disk.
        let mut tx = db.begin();
        for p in 0..16 {
            tx.write(p, &[p as u8 + 100; 8]).unwrap();
        }
        tx.commit().unwrap();
        for p in 0..16 {
            assert_page(&db, p, &[p as u8 + 100; 8]);
        }

        // Rebuild and confirm the updates written while degraded survived
        // onto the replacement disk.
        db.media_recover(2).unwrap();
        for p in 0..16 {
            assert_page(&db, p, &[p as u8 + 100; 8]);
        }
        assert!(db.verify().unwrap().is_empty(), "{engine:?}");
    }
}

#[test]
fn aborts_roll_back_while_degraded() {
    let db = Database::open(cfg(EngineKind::Rda, 2));
    let mut setup = db.begin();
    for p in 0..8 {
        setup.write(p, &[7; 8]).unwrap();
    }
    setup.commit().unwrap();

    db.fail_disk(1);
    // The tiny buffer steals these; parity rides are disabled per-steal
    // when a twin's disk is down, so a mix of parity and logged undo runs.
    let mut tx = db.begin();
    for p in 0..8 {
        tx.write(p, &[9; 8]).unwrap();
    }
    tx.abort().unwrap();
    for p in 0..8 {
        assert_page(&db, p, &[7; 8]);
    }
    db.media_recover(1).unwrap();
    for p in 0..8 {
        assert_page(&db, p, &[7; 8]);
    }
    assert!(db.verify().unwrap().is_empty());
}

#[test]
fn crash_while_degraded_then_rebuild_then_recover() {
    let db = Database::open(cfg(EngineKind::Rda, 2));
    let mut setup = db.begin();
    for p in 0..8 {
        setup.write(p, &[3; 8]).unwrap();
    }
    setup.commit().unwrap();

    db.fail_disk(0);
    let mut tx = db.begin();
    for p in 0..8 {
        tx.write(p, &[5; 8]).unwrap();
    }
    std::mem::forget(tx);

    db.crash();
    db.media_recover(0).unwrap(); // rebuild the crash-time contents first
    db.recover().unwrap();
    for p in 0..8 {
        assert_page(&db, p, &[3; 8]);
    }
    assert!(db.verify().unwrap().is_empty());
}

#[test]
fn steal_with_dead_twin_falls_back_to_logging() {
    // Fail a disk, then check that uncommitted steals whose group lost a
    // twin still roll back correctly (they must have been before-imaged).
    let db = Database::open(cfg(EngineKind::Rda, 2));
    let mut setup = db.begin();
    for p in 0..32 {
        setup.write(p, &[11; 8]).unwrap();
    }
    setup.commit().unwrap();

    // Fail the disk holding group 0's P1 twin (whichever disk that is,
    // failing any one disk kills some groups' twins; exercise them all).
    for victim in 0..db.data_pages().min(4) as u16 {
        let db = Database::open(cfg(EngineKind::Rda, 2));
        let mut setup = db.begin();
        for p in 0..32 {
            setup.write(p, &[11; 8]).unwrap();
        }
        setup.commit().unwrap();
        db.fail_disk(victim);

        let mut tx = db.begin();
        for p in 0..32 {
            tx.write(p, &[13; 8]).unwrap();
        }
        tx.abort().unwrap();
        for p in 0..32 {
            assert_page(&db, p, &[11; 8]);
        }
        db.media_recover(victim).unwrap();
        assert!(db.verify().unwrap().is_empty(), "victim disk{victim}");
    }
}

#[test]
fn double_failure_in_one_group_is_reported() {
    let db = Database::open(cfg(EngineKind::Rda, 8));
    let mut tx = db.begin();
    tx.write(0, b"x").unwrap();
    tx.commit().unwrap();
    // Kill two disks: some group now has two missing members.
    db.fail_disk(0);
    db.fail_disk(1);
    // Reads of affected pages must error rather than return garbage.
    let mut saw_error = false;
    for p in 0..db.data_pages() {
        if db.read_page(p).is_err() {
            saw_error = true;
        }
    }
    assert!(
        saw_error,
        "a two-disk loss must surface as an error somewhere"
    );
}
