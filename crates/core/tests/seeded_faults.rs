//! Seeded single-fault scenarios: the acceptance cases that are easier
//! to read (and debug) as straight-line stories than as exploration
//! sweeps. The last two pin the engine against a disk that dies in the
//! middle of a steal.

use rda_array::{FaultInjector, FaultKind, FaultPlan, FaultSpec};
use rda_core::{Database, DbConfig, DbError, EngineKind, GroupCommit};
use std::sync::Arc;

fn open_small() -> Database {
    Database::open(DbConfig::small_test(EngineKind::Rda))
}

fn commit_value(db: &Database, page: u32, value: u8) {
    let mut tx = db.begin();
    tx.write(page, &[value]).expect("write");
    tx.commit().expect("commit");
}

fn page_value(db: &Database, page: u32) -> u8 {
    db.read_page(page).expect("read")[0]
}

/// The PR's acceptance case: a torn write on the *working* parity twin
/// while its group is dirty is detected at restart and recovered — the
/// committed state survives, the loser's update disappears, and the
/// torn twins are healed.
#[test]
fn torn_working_twin_is_detected_and_recovered() {
    let db = open_small();
    commit_value(&db, 0, 0xAA);

    // One in-flight transaction dirties 9 distinct pages; the 8-frame
    // buffer must evict at least one, stealing it into the array and
    // leaving its group dirty (working parity twin live on disk).
    let mut tx = db.begin();
    for g in 0..8 {
        tx.write(g * 4, &[0xBB]).expect("dirty page");
    }
    tx.write(3, &[0xBB]).expect("overflow the buffer");

    // Tear the *current* parity twin of every group: for the dirty
    // group(s) that is precisely the working twin (Current_Parity
    // resolves to the higher timestamp, Figure 7); for clean groups it
    // is the committed twin.
    for g in 0..8 {
        db.tear_current_parity(g);
    }

    db.crash();
    drop(tx); // handle outlives the "machine" — must not panic
    let report = db.recover().expect("restart recovery");

    assert_eq!(report.losers.len(), 1, "the in-flight txn must be a loser");
    assert!(
        report.torn_twins_healed > 0,
        "bitmap scan should heal torn current twins: {report:?}"
    );
    // Committed state survives; every loser write is gone.
    assert_eq!(page_value(&db, 0), 0xAA);
    for g in 1..8 {
        assert_eq!(
            page_value(&db, g * 4),
            0,
            "loser write on page {} survived",
            g * 4
        );
    }
    assert_eq!(page_value(&db, 3), 0);
    let audit = db.audit();
    assert!(audit.is_clean(), "{:?}", audit.violations());
    assert!(db.verify().expect("verify").is_empty());
}

/// Satellite: a latent sector error caught by the patrol scrubber before
/// a disk failure is harmless — media recovery still rebuilds the dead
/// disk from healthy redundancy.
#[test]
fn scrubbed_latent_error_survives_later_disk_failure() {
    let db = open_small();
    for page in 0..8 {
        commit_value(&db, page, 0x10 + page as u8);
    }

    // Pages 4 and 5 share a group in the 4-page-group layout. Rot page
    // 5's sector, scrub it away, then kill page 4's disk.
    db.corrupt_data_page(5);
    let scrub = db.scrub().expect("scrub");
    assert_eq!(scrub.data_repaired, 1, "{scrub:?}");

    db.fail_disk_of_page(4);
    let rebuilt = db.media_recover_of_page(4).expect("media recovery");
    assert!(rebuilt > 0);
    for page in 0..8 {
        assert_eq!(page_value(&db, page), 0x10 + page as u8);
    }
    assert!(db.audit().is_clean());
}

/// The contrast case that motivates scrubbing: the same latent error
/// left in place turns a single disk failure into an unrecoverable
/// double failure for that group.
#[test]
fn unscrubbed_latent_error_turns_disk_failure_into_data_loss() {
    let db = open_small();
    for page in 0..8 {
        commit_value(&db, page, 0x10 + page as u8);
    }

    db.corrupt_data_page(5); // latent, never scrubbed
    db.fail_disk_of_page(4);

    // Rebuilding page 4's disk needs every surviving member of the
    // group readable — page 5's rotten sector blocks it.
    let err = db.media_recover_of_page(4).expect_err("double failure");
    assert!(
        matches!(err, DbError::Array(rda_array::ArrayError::Unrecoverable(_))),
        "expected Unrecoverable, got {err:?}"
    );
}

/// Latent errors injected through a fault plan (rather than seeded
/// directly) are also found and repaired by the scrubber.
#[test]
fn planned_latent_error_is_scrub_repaired() {
    let db = open_small();
    // Rot the first platter write the next transaction performs.
    let injector = Arc::new(FaultInjector::new(FaultPlan::single(
        FaultSpec::new(FaultKind::Latent).writes_only(),
    )));
    db.install_fault_hook(injector.clone());
    commit_value(&db, 12, 0x7F);
    db.clear_fault_hook();

    let fired = injector.fired();
    assert_eq!(fired.len(), 1);
    assert_eq!(fired[0].kind, FaultKind::Latent);
    let stats = db.shard(0).fault_stats().expect("stats");
    assert_eq!(stats.count(FaultKind::Latent), 1);

    let scrub = db.scrub().expect("scrub");
    assert_eq!(
        scrub.data_repaired + scrub.parity_repaired,
        1,
        "exactly one rotten sector to repair: {scrub:?}"
    );
    assert_eq!(page_value(&db, 12), 0x7F);
    // A second pass finds nothing.
    let again = db.scrub().expect("scrub");
    assert_eq!(again.data_repaired + again.parity_repaired, 0);
}

/// A transient controller error surfaces to the caller once; the retry
/// finds the disk state untouched and succeeds.
#[test]
fn transient_error_surfaces_once_then_retry_succeeds() {
    let db = open_small();
    commit_value(&db, 9, 0x42);
    // Reopen so the page is read from the platter, not the buffer.
    let db = open_small();
    commit_value(&db, 9, 0x42);
    db.crash();
    db.recover().expect("recover");

    let injector = Arc::new(FaultInjector::new(FaultPlan::single(FaultSpec::new(
        FaultKind::Transient,
    ))));
    db.install_fault_hook(injector);

    let err = db.read_page(9).expect_err("transient must surface");
    assert!(
        matches!(err, DbError::Array(rda_array::ArrayError::Transient { .. })),
        "got {err:?}"
    );
    // One-shot: the retry proceeds and sees the committed value.
    assert_eq!(page_value(&db, 9), 0x42);
}

/// Open `cfg` with a `kind` fault on the `offset`-th write-side I/O after
/// `setup` (a fault-free dry run of `setup` counts its I/Os first).
fn with_fault_after<T>(
    cfg: &DbConfig,
    setup: impl Fn(&Database) -> T,
    kind: FaultKind,
    offset: u64,
) -> (Database, Arc<FaultInjector>, T) {
    let dry = Database::open(cfg.clone());
    let counter = Arc::new(FaultInjector::observer());
    dry.install_fault_hook(counter.clone());
    drop(setup(&dry));
    let plan = FaultPlan::single(FaultSpec::at_io(kind, counter.ios_seen() + offset).writes_only());
    let db = Database::open(cfg.clone());
    let injector = Arc::new(FaultInjector::new(plan));
    db.install_fault_hook(injector.clone());
    let state = setup(&db);
    (db, injector, state)
}

fn is_disk_failed(err: &DbError) -> bool {
    matches!(err, DbError::Array(rda_array::ArrayError::DiskFailed(_)))
}

/// Rebuild the disk the injector killed, then the array must audit clean
/// and hold exactly `expect` (page, first byte).
fn rebuilt_and_clean(db: &Database, injector: &FaultInjector, expect: &[(u32, u8)]) {
    let fired = injector.fired();
    assert_eq!(fired.len(), 1, "the planted disk death never fired");
    db.media_recover(fired[0].disk).expect("media recovery");
    let audit = db.audit();
    assert!(audit.is_clean(), "{:?}", audit.violations());
    assert!(db.verify().expect("verify").is_empty());
    for &(page, value) in expect {
        assert_eq!(page_value(db, page), value, "page {page}");
    }
}

/// An eviction steal whose working twin dies under the parity write keeps
/// its buffer frame: the write that needed the room fails, and the
/// transaction still commits, degraded, from the frame it kept.
#[test]
fn a_steal_on_a_dying_disk_keeps_its_frame() {
    let cfg = DbConfig::small_test(EngineKind::Rda);
    // Eight pages in eight groups fill the eight frames.
    let fill = |db: &Database| {
        let mut tx = db.begin();
        for g in 0..8u32 {
            tx.write(g * 4, &[0x40 + g as u8]).expect("fill");
        }
        tx
    };
    // The next write evicts page 0, whose steal dirties group 0: a parity
    // read, then the working twin's write (the claim), then the data write.
    let (db, injector, mut tx) = with_fault_after(&cfg, fill, FaultKind::FailDisk, 2);
    let err = tx.write(1, &[0x77]).expect_err("the steal's disk died");
    assert!(is_disk_failed(&err), "got {err:?}");
    assert!(injector.fired()[0].is_write);
    tx.commit().expect("commit from the kept frame");
    let expect: Vec<(u32, u8)> = (0..8u32).map(|g| (g * 4, 0x40 + g as u8)).collect();
    rebuilt_and_clean(&db, &injector, &expect);
    assert_eq!(page_value(&db, 1), 0);
}

/// A commit whose FORCE write-back loses its disk fails before its commit
/// record, so it aborts: no transaction stays active holding locks (media
/// recovery needs quiescence), the half-done steal leaves nothing on disk,
/// and the page can be written again — with and without the group-commit
/// gate.
#[test]
fn a_commit_that_fails_before_its_commit_record_aborts() {
    let gate = GroupCommit {
        window_micros: 50,
        max_batch: 8,
    };
    let plain = DbConfig::small_test(EngineKind::Rda);
    for cfg in [plain.clone(), plain.group_commit(gate)] {
        let write = |db: &Database| {
            let mut tx = db.begin();
            tx.write(0, &[0x11]).expect("write");
            tx
        };
        // The write-back dirties group 0: parity read, then the working
        // twin's write (the claim), then the data write.
        let (db, injector, tx) = with_fault_after(&cfg, write, FaultKind::FailDisk, 2);
        let err = tx.commit().expect_err("the write-back's disk died");
        assert!(is_disk_failed(&err), "got {err:?}");
        assert_eq!(db.active_transactions(), 0, "the failed commit leaked");
        rebuilt_and_clean(&db, &injector, &[(0, 0)]);
        commit_value(&db, 0, 0x22);
        assert_eq!(page_value(&db, 0), 0x22);
        assert!(db.audit().is_clean());
    }
}

/// A group-dirtying steal writes the working twin with its claim first,
/// then the data page. Power lost at the claim's write leaves no claim
/// and the page as it was; lost at the data write (torn, here), the page
/// is undone through the claim the twin's block holds.
#[test]
fn a_steal_crashed_at_its_claim_or_its_data_write_recovers_the_page() {
    let cfg = DbConfig::small_test(EngineKind::Rda);
    // Page 0 committed, then eight pages in eight groups fill the frames.
    let fill = |db: &Database| {
        commit_value(db, 0, 0x11);
        let mut tx = db.begin();
        for g in 0..8u32 {
            tx.write(g * 4, &[0x40 + g as u8]).expect("fill");
        }
        tx
    };
    // The next write evicts page 0: a parity read, the claim, the data.
    for (offset, kind, undone) in [(2, FaultKind::Crash, 0), (3, FaultKind::TornWrite, 1)] {
        let (db, injector, mut tx) = with_fault_after(&cfg, fill, kind, offset);
        assert!(tx.write(1, &[0x77]).is_err(), "{kind:?}: it stopped");
        assert!(injector.fired()[0].is_write);
        db.crash();
        drop(tx);
        let report = db.recover().expect("restart recovery");
        assert_eq!(report.losers.len(), 1, "{kind:?}");
        assert_eq!(report.undone_via_parity, undone, "{kind:?}: {report:?}");
        assert_eq!(page_value(&db, 0), 0x11, "{kind:?}");
        let audit = db.audit();
        assert!(audit.is_clean(), "{kind:?}: {:?}", audit.violations());
        assert!(db.verify().expect("verify").is_empty(), "{kind:?}");
    }
}

/// A read-modify-write stages its intent in the NVRAM slot before its
/// first platter write. Power lost after the data write and before the
/// parity write leaves the slot full: restart replays it once, so the
/// group's parity matches its data again before the loser is undone, and
/// a second restart finds the slot empty.
#[test]
fn a_crash_between_a_data_write_and_its_parity_write_replays_the_intent() {
    let cfg = DbConfig::small_test(EngineKind::Rda);
    // Pages 0 and 1 share group 0. The loser's commit flushes page 0 by a
    // ride (a parity read, the claim, the data), then page 1, which cannot
    // ride the claimed group, by a logged read-modify-write: both twins
    // read, the data written, then both twins written.
    let setup = |db: &Database| {
        commit_value(db, 0, 0x11);
        commit_value(db, 1, 0x22);
        let mut tx = db.begin();
        tx.write(0, &[0x33]).expect("write");
        tx.write(1, &[0x44]).expect("write");
        tx
    };
    // The commit's 7th I/O is the first parity write after page 1's data.
    let (db, injector, tx) = with_fault_after(&cfg, setup, FaultKind::Crash, 7);
    assert!(tx.commit().is_err(), "the commit lost power");
    let fired = injector.fired();
    assert_eq!(fired.len(), 1);
    assert!(fired[0].is_write);
    db.crash();
    let report = db.recover().expect("restart recovery");
    assert_eq!(report.intent_replays, 1, "{report:?}");
    assert_eq!(report.losers.len(), 1, "{report:?}");
    let audit = db.audit();
    assert!(audit.is_clean(), "{:?}", audit.violations());
    assert!(db.verify().expect("verify").is_empty());
    assert_eq!(page_value(&db, 0), 0x11);
    assert_eq!(page_value(&db, 1), 0x22);

    db.crash();
    let again = db.recover().expect("second restart");
    assert_eq!(again.intent_replays, 0, "{again:?}");
    assert!(db.audit().is_clean());
    assert_eq!(page_value(&db, 1), 0x22);
}
