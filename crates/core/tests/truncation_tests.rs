//! The log's low-water mark: the engine advances it at its own
//! checkpoints — every commit under FORCE, every ACC checkpoint under
//! ¬FORCE — without breaking undo of live transactions, crash recovery,
//! or later work, and `truncate_log()` is the same cut on demand.

use rda_core::{CheckpointPolicy, Database, DbConfig, EngineKind, EotPolicy, GroupCommit};

fn db(engine: EngineKind, eot: EotPolicy) -> Database {
    let cfg = DbConfig::small_test(engine)
        .eot(eot)
        .checkpoint(CheckpointPolicy::Manual);
    Database::open(cfg)
}

/// An exported counter or gauge, by name.
fn metric(db: &Database, name: &str) -> u64 {
    db.metrics()
        .counter_values()
        .into_iter()
        .find_map(|(n, value)| (n == name).then_some(value))
        .unwrap_or_else(|| panic!("{name} is registered"))
}

/// The mark, and the bytes of log retained above it.
fn mark(db: &Database) -> (u64, u64) {
    (
        metric(db, "wal_low_water_lsn"),
        metric(db, "wal_retained_bytes"),
    )
}

#[test]
fn force_mode_truncates_everything_when_idle() {
    let db = db(EngineKind::Rda, EotPolicy::Force);
    let mut last = 0;
    for round in 0..5u8 {
        let mut tx = db.begin();
        tx.write(0, &[round + 1]).unwrap();
        tx.commit().unwrap();
        // No truncate_log() call: each commit is a TOC checkpoint, and
        // with nobody else active the mark follows the log's end.
        let (low_water, retained) = mark(&db);
        assert!(low_water > last, "round {round}: {low_water}");
        assert_eq!(retained, 0, "round {round}");
        last = low_water;
    }
    assert_eq!(db.truncate_log().unwrap(), 0, "nothing left for the call");
    // The database still works and still recovers from a crash.
    let mut tx = db.begin();
    tx.write(1, b"after truncation").unwrap();
    tx.commit().unwrap();
    let report = db.crash_and_recover().unwrap();
    assert!(report.winners.is_empty(), "restart read an empty log");
    assert_eq!(db.read_page(0).unwrap()[0], 5);
    assert_eq!(&db.read_page(1).unwrap()[..5], b"after");
}

#[test]
fn truncation_respects_active_transactions() {
    let db = db(EngineKind::Rda, EotPolicy::Force);
    let mut setup = db.begin();
    for p in 0..8 {
        setup.write(p, &[1; 4]).unwrap();
    }
    setup.commit().unwrap();
    let (idle, _) = mark(&db);

    // A long-running transaction with propagated (stolen) pages: its BOT
    // pins the mark.
    let mut long = db.begin();
    for p in 0..6 {
        long.write(p, &[2; 4]).unwrap();
    }
    // Force steals so the transaction has on-disk state needing undo.
    long.read(8).unwrap();
    long.read(12).unwrap();

    // Fifty other transactions commit; the mark stays at the BOT, which
    // is the first record appended after the idle mark.
    for round in 0..50u8 {
        let mut tx = db.begin();
        tx.write(16 + u32::from(round % 16), &[round; 4]).unwrap();
        tx.commit().unwrap();
        let (low_water, retained) = mark(&db);
        assert_eq!(low_water, idle, "round {round}: pinned at the BOT");
        assert!(retained > 0);
    }
    assert_eq!(db.truncate_log().unwrap(), 0, "nor does the explicit call");
    assert_eq!(mark(&db).0, idle);

    // The long transaction can still abort correctly — its undo records /
    // chain were not cut away.
    long.abort().unwrap();
    for p in 0..8 {
        assert_eq!(db.read_page(p).unwrap()[0], 1, "page {p}");
    }
    assert!(db.verify().unwrap().is_empty());
    // An abort is no checkpoint; the next commit takes the mark to the end.
    let mut tx = db.begin();
    tx.write(31, &[9; 4]).unwrap();
    tx.commit().unwrap();
    let (low_water, retained) = mark(&db);
    assert!(low_water > idle);
    assert_eq!(retained, 0);
}

#[test]
fn a_crash_beside_a_pinned_loser_still_undoes_it() {
    let db = db(EngineKind::Rda, EotPolicy::Force);
    let mut setup = db.begin();
    for p in 0..8 {
        setup.write(p, &[1; 4]).unwrap();
    }
    setup.commit().unwrap();
    let mut long = db.begin();
    for p in 0..6 {
        long.write(p, &[2; 4]).unwrap();
    }
    long.read(8).unwrap();
    long.read(12).unwrap();
    for round in 0..10u8 {
        let mut tx = db.begin();
        tx.write(16 + u32::from(round), &[round + 3; 4]).unwrap();
        tx.commit().unwrap();
    }
    std::mem::forget(long);
    let report = db.crash_and_recover().unwrap();
    assert_eq!(report.losers.len(), 1, "its BOT was still in the log");
    assert_eq!(report.winners.len(), 10, "and so is what came after it");
    for p in 0..8 {
        assert_eq!(db.read_page(p).unwrap()[0], 1, "page {p}");
    }
    for round in 0..10u8 {
        assert_eq!(db.read_page(16 + u32::from(round)).unwrap()[0], round + 3);
    }
    assert!(db.verify().unwrap().is_empty());
    assert!(db.audit().is_clean());
}

#[test]
fn noforce_truncates_to_checkpoint_and_still_recovers() {
    let db = db(EngineKind::Rda, EotPolicy::NoForce);
    let mut tx = db.begin();
    tx.write(0, b"early").unwrap();
    tx.commit().unwrap();
    assert_eq!(mark(&db).0, 0, "a ¬FORCE commit is no checkpoint");
    db.checkpoint().unwrap();
    // The mark is the ACC record just forced: one record retained.
    let (at_checkpoint, retained) = mark(&db);
    assert!(at_checkpoint > 0, "pre-checkpoint records reclaimed");
    assert!(retained > 0 && retained < 16, "the ACC record: {retained}");
    let mut tx = db.begin();
    tx.write(1, b"late").unwrap();
    tx.commit().unwrap();
    assert_eq!(mark(&db).0, at_checkpoint);
    assert_eq!(db.truncate_log().unwrap(), 0, "same rule, nothing to add");

    // Crash: redo of the post-checkpoint commit must still work.
    let report = db.crash_and_recover().unwrap();
    assert_eq!(report.winners.len(), 1, "only the post-checkpoint winner");
    assert_eq!(report.redone, 1);
    assert_eq!(&db.read_page(0).unwrap()[..5], b"early");
    assert_eq!(&db.read_page(1).unwrap()[..4], b"late");
    // And the mark is where restart found the checkpoint.
    db.checkpoint().unwrap();
    assert!(mark(&db).0 > at_checkpoint);
}

/// Under ¬FORCE a parity-riding page is undone, at restart, to its
/// pre-steal *disk* version — which can predate a committed update that
/// had not left the buffer. The redo record of that update lies before
/// the loser's BOT; the mark may not pass it while the loser lives.
#[test]
fn noforce_rider_keeps_the_redo_its_undo_regresses_to() {
    let db = db(EngineKind::Rda, EotPolicy::NoForce);
    db.checkpoint().unwrap();
    let mut winner = db.begin();
    winner.write(0, b"committed, in the buffer only").unwrap();
    winner.commit().unwrap();

    let mut loser = db.begin();
    loser.write(0, b"uncommitted").unwrap();
    // Push page 0 out of the 8-frame pool: it is stolen riding the parity.
    for p in [4, 8, 12, 16, 20, 24, 28, 1, 5] {
        loser.read(p).unwrap();
    }
    let (before, _) = mark(&db);
    db.checkpoint().unwrap();
    assert_eq!(
        mark(&db).0,
        before,
        "the winner's after-image is older than the loser's BOT and must stay"
    );
    std::mem::forget(loser);
    let report = db.crash_and_recover().unwrap();
    assert_eq!(report.losers.len(), 1);
    assert_eq!(report.undone_via_parity, 1);
    assert_eq!(&db.read_page(0).unwrap()[..9], b"committed");
    assert!(db.verify().unwrap().is_empty());
}

#[test]
fn crash_after_truncation_with_losers() {
    let db = db(EngineKind::Rda, EotPolicy::Force);
    let mut setup = db.begin();
    for p in 0..6 {
        setup.write(p, &[4; 4]).unwrap();
    }
    setup.commit().unwrap();
    db.truncate_log().unwrap();

    // New in-flight work after the truncation, then crash.
    let mut tx = db.begin();
    for p in 0..6 {
        tx.write(p, &[8; 4]).unwrap();
    }
    // Steal pressure: the small_test buffer holds 8 frames; reading four
    // more pages evicts some of the uncommitted writes.
    for p in [8, 12, 16, 20] {
        tx.read(p).unwrap();
    }
    std::mem::forget(tx);

    let report = db.crash_and_recover().unwrap();
    assert_eq!(report.losers.len(), 1);
    for p in 0..6 {
        assert_eq!(db.read_page(p).unwrap()[0], 4, "page {p}");
    }
    assert!(db.verify().unwrap().is_empty());
}

#[test]
fn truncation_is_cheap_and_idempotent() {
    let db = db(EngineKind::Wal, EotPolicy::Force);
    let mut tx = db.begin();
    tx.write(0, b"x").unwrap();
    tx.commit().unwrap();
    // The commit already moved the mark.
    assert_eq!(db.truncate_log().unwrap(), 0);
    // An abort is not a checkpoint: its BOT, before-images and Abort
    // record stay until the next one — or until somebody asks.
    let mut tx = db.begin();
    for p in 0..12 {
        tx.write(p, &[7; 4]).unwrap();
    }
    tx.abort().unwrap();
    let before = db.stats();
    let first = db.truncate_log().unwrap();
    let second = db.truncate_log().unwrap();
    assert!(first > 0);
    assert_eq!(second, 0);
    assert_eq!(mark(&db).1, 0);
    let d = db.stats().delta(&before);
    assert_eq!(d.log.transfers() + d.array.transfers(), 0, "bills nothing");
}

/// Group commit: a batch member that is forced but not yet finalized is
/// still active, so finalizing the member before it never cuts its
/// records away. Four threads, 200 commits each, then a crash.
#[test]
fn gated_commits_all_survive_a_crash_with_the_mark_running() {
    let cfg = DbConfig::small_test(EngineKind::Rda).group_commit(GroupCommit {
        window_micros: 200,
        max_batch: 32,
    });
    let db = Database::open(cfg);
    let (threads, per_thread) = (4u32, 200u32);
    std::thread::scope(|scope| {
        for t in 0..threads {
            let db = db.clone();
            scope.spawn(move || {
                // Thread t owns pages t, t + 8, t + 16: three groups each,
                // shared with every other thread.
                for i in 1..=per_thread {
                    let mut tx = db.begin();
                    for page in [t, t + 8, t + 16] {
                        tx.write(page, &i.to_le_bytes()).unwrap();
                    }
                    tx.commit().unwrap();
                }
            });
        }
    });
    assert_eq!(mark(&db).1, 0, "idle again: nothing retained");
    db.crash_and_recover().unwrap();
    for t in 0..threads {
        for page in [t, t + 8, t + 16] {
            let got = db.read_page(page).unwrap();
            assert_eq!(&got[..4], &per_thread.to_le_bytes(), "page {page}");
        }
    }
    assert!(db.verify().unwrap().is_empty());
    assert!(db.audit().is_clean());
}
