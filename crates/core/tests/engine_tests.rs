//! End-to-end engine tests: commit, abort, steal pressure, crash recovery,
//! media recovery — for both engines, both logging granularities, and both
//! EOT policies.

use rda_array::BlockDevice;
use rda_buffer::BufferConfig;
use rda_core::{
    CheckpointPolicy, Database, DbConfig, DbError, EngineKind, EotPolicy, LogGranularity,
};

/// The page size of `DbConfig::small_test`.
const PAGE: usize = 64;

fn cfg(engine: EngineKind, frames: usize) -> DbConfig {
    DbConfig {
        buffer: BufferConfig::steal_clock(frames),
        ..DbConfig::small_test(engine)
    }
}

fn both_engines() -> [EngineKind; 2] {
    [EngineKind::Rda, EngineKind::Wal]
}

fn assert_page(db: &Database, page: u32, expect: &[u8]) {
    let got = db.read_page(page).unwrap();
    assert_eq!(&got[..expect.len()], expect, "page {page}");
    assert!(got[expect.len()..].iter().all(|&b| b == 0));
}

#[test]
fn commit_then_read_back() {
    for engine in both_engines() {
        let db = Database::open(cfg(engine, 8));
        let mut tx = db.begin();
        tx.write(0, b"alpha").unwrap();
        tx.write(5, b"beta").unwrap();
        tx.commit().unwrap();
        assert_page(&db, 0, b"alpha");
        assert_page(&db, 5, b"beta");
        assert!(
            db.verify().unwrap().is_empty(),
            "{engine:?} parity consistent"
        );
    }
}

#[test]
fn abort_restores_previous_committed_state() {
    for engine in both_engines() {
        let db = Database::open(cfg(engine, 8));
        let mut tx = db.begin();
        tx.write(2, b"keep me").unwrap();
        tx.commit().unwrap();

        let mut tx = db.begin();
        tx.write(2, b"discard").unwrap();
        tx.write(3, b"also discard").unwrap();
        tx.abort().unwrap();
        assert_page(&db, 2, b"keep me");
        assert_page(&db, 3, b"");
        assert!(db.verify().unwrap().is_empty());
    }
}

#[test]
fn drop_without_commit_aborts() {
    let db = Database::open(cfg(EngineKind::Rda, 8));
    {
        let mut tx = db.begin();
        tx.write(1, b"ghost").unwrap();
    }
    assert_page(&db, 1, b"");
    assert_eq!(db.active_transactions(), 0);
}

/// A worker that panics holding a transaction whose abort cannot do its
/// I/O must die alone: the drop counts the failed abort instead of
/// panicking a second time (which would abort the whole process), and
/// restart recovery undoes the transaction as a loser.
#[test]
fn panicking_thread_with_unabortable_transaction_spares_the_process() {
    struct RefuseAll(std::sync::atomic::AtomicBool);
    impl rda_array::FaultHook for RefuseAll {
        fn on_io(&self, _: &rda_array::IoEvent) -> rda_array::FaultAction {
            if self.0.load(std::sync::atomic::Ordering::SeqCst) {
                rda_array::FaultAction::Transient
            } else {
                rda_array::FaultAction::Proceed
            }
        }
    }

    // Two frames: the writes below are stolen to disk, so abort needs I/O.
    let db = Database::open(cfg(EngineKind::Rda, 2));
    let mut tx = db.begin();
    tx.write(0, b"kept").unwrap();
    tx.commit().unwrap();
    let hook = std::sync::Arc::new(RefuseAll(false.into()));
    db.install_fault_hook(hook.clone());

    let worker = std::thread::scope(|s| {
        s.spawn(|| {
            let mut tx = db.begin();
            for page in [0, 4, 8, 12] {
                tx.write(page, b"doomed").unwrap();
            }
            hook.0.store(true, std::sync::atomic::Ordering::SeqCst);
            panic!("worker dies with its transaction open");
        })
        .join()
    });
    assert!(worker.is_err());
    let failures = db.metrics().counter("engine_drop_abort_failures_total");
    assert_eq!(failures.get(), 1);

    db.clear_fault_hook();
    db.crash_and_recover().unwrap();
    assert!(db.audit().is_clean());
    assert_page(&db, 0, b"kept");
    assert_page(&db, 4, b"");
}

#[test]
fn steal_under_buffer_pressure_then_abort() {
    // A 2-frame buffer forces steals of uncommitted pages; the RDA engine
    // must undo them via parity, the WAL engine via the log.
    for engine in both_engines() {
        let db = Database::open(cfg(engine, 2));
        let mut setup = db.begin();
        for p in 0..6 {
            setup.write(p, format!("base{p}").as_bytes()).unwrap();
        }
        setup.commit().unwrap();

        let mut tx = db.begin();
        for p in 0..6 {
            tx.write(p, format!("tentative{p}").as_bytes()).unwrap();
        }
        tx.abort().unwrap();
        for p in 0..6 {
            assert_page(&db, p, format!("base{p}").as_bytes());
        }
        assert!(db.verify().unwrap().is_empty(), "{engine:?}");
    }
}

#[test]
fn multiple_pages_same_group_force_logging_for_extras() {
    // Group 0 holds pages 0..4; writing several under pressure means only
    // one can ride the parity, the rest get before-images. All must still
    // roll back correctly.
    let db = Database::open(cfg(EngineKind::Rda, 2));
    let mut setup = db.begin();
    for p in 0..4 {
        setup.write(p, &[p as u8 + 1; 8]).unwrap();
    }
    setup.commit().unwrap();

    let mut tx = db.begin();
    for p in 0..4 {
        tx.write(p, &[0xAA; 8]).unwrap();
    }
    tx.abort().unwrap();
    for p in 0..4 {
        assert_page(&db, p, &[p as u8 + 1; 8]);
    }
    assert!(db.verify().unwrap().is_empty());
}

#[test]
fn crash_loses_uncommitted_and_keeps_committed() {
    for engine in both_engines() {
        for eot in [EotPolicy::Force, EotPolicy::NoForce] {
            let db = Database::open(cfg(engine, 4).eot(eot));
            let mut tx = db.begin();
            tx.write(0, b"durable").unwrap();
            tx.commit().unwrap();

            let mut tx = db.begin();
            tx.write(0, b"vanishes").unwrap();
            tx.write(7, b"also vanishes").unwrap();
            drop_without_abort(tx);

            let report = db.crash_and_recover().unwrap();
            assert_page(&db, 0, b"durable");
            assert_page(&db, 7, b"");
            assert!(db.verify().unwrap().is_empty(), "{engine:?} {eot:?}");
            // The restart bitmap scan walks every data page exactly once
            // on the RDA engine; the WAL baseline has no parity bitmap.
            let scanned = match engine {
                EngineKind::Rda => u64::from(db.data_pages()),
                EngineKind::Wal => 0,
            };
            assert_eq!(report.pages_scanned, scanned, "{engine:?} {eot:?}");
        }
    }
}

/// Leak the transaction across the crash without running its Drop abort —
/// mem::forget would leak the Arc; instead crash first (engine forgets the
/// txn), then drop (abort becomes a no-op).
fn drop_without_abort(tx: rda_core::Transaction) {
    // Crash happens in the caller *after* this returns the handle into a
    // scope that ends post-crash; simplest is to forget it.
    std::mem::forget(tx);
}

#[test]
fn crash_with_stolen_uncommitted_pages_undoes_on_disk_state() {
    for engine in both_engines() {
        for granularity in [LogGranularity::Page, LogGranularity::Record] {
            let db = Database::open(cfg(engine, 2).granularity(granularity));
            let mut setup = db.begin();
            for p in 0..6 {
                match granularity {
                    LogGranularity::Page => setup.write(p, &[p as u8 + 1; 16]).unwrap(),
                    LogGranularity::Record => setup.update(p, 0, &[p as u8 + 1; 16]).unwrap(),
                }
            }
            setup.commit().unwrap();

            // The tiny buffer guarantees these uncommitted writes are
            // stolen to disk before the crash.
            let mut tx = db.begin();
            for p in 0..6 {
                match granularity {
                    LogGranularity::Page => tx.write(p, &[0xEE; 16]).unwrap(),
                    LogGranularity::Record => tx.update(p, 4, &[0xEE; 8]).unwrap(),
                }
            }
            drop_without_abort(tx);

            let report = db.crash_and_recover().unwrap();
            assert_eq!(report.losers.len(), 1, "{engine:?} {granularity:?}");
            assert!(
                report.undone_via_parity + report.undone_via_log > 0,
                "{engine:?} {granularity:?}: something was propagated and undone"
            );
            for p in 0..6 {
                assert_page(&db, p, &[p as u8 + 1; 16]);
            }
            assert!(
                db.verify().unwrap().is_empty(),
                "{engine:?} {granularity:?}"
            );
        }
    }
}

#[test]
fn rda_crash_undo_uses_parity_not_log() {
    let db = Database::open(cfg(EngineKind::Rda, 2));
    let mut setup = db.begin();
    setup.write(0, b"original").unwrap();
    setup.write(4, b"other group").unwrap();
    setup.commit().unwrap();

    // Two pages in *different* groups: both ride parity.
    let mut tx = db.begin();
    tx.write(0, b"uncommitted-a").unwrap();
    tx.write(4, b"uncommitted-b").unwrap();
    // Force steals by reading other pages.
    tx.read(8).unwrap();
    tx.read(12).unwrap();
    tx.read(16).unwrap();
    drop_without_abort(tx);

    let report = db.crash_and_recover().unwrap();
    assert_eq!(report.undone_via_parity, 2);
    assert_eq!(report.undone_via_log, 0);
    assert_page(&db, 0, b"original");
    assert_page(&db, 4, b"other group");
}

#[test]
fn double_crash_during_recovery_is_idempotent() {
    // Crash, recover, crash again immediately, recover again: state must be
    // identical — the compensation records make parity undo replayable.
    let db = Database::open(cfg(EngineKind::Rda, 2));
    let mut setup = db.begin();
    for p in 0..6 {
        setup.write(p, &[7; 8]).unwrap();
    }
    setup.commit().unwrap();

    let mut tx = db.begin();
    for p in 0..6 {
        tx.write(p, &[9; 8]).unwrap();
    }
    drop_without_abort(tx);

    db.crash_and_recover().unwrap();
    // Second crash+recovery over the already-recovered state.
    db.crash_and_recover().unwrap();
    // And a third for good measure.
    db.crash_and_recover().unwrap();
    for p in 0..6 {
        assert_page(&db, p, &[7; 8]);
    }
    assert!(db.verify().unwrap().is_empty());
}

#[test]
fn noforce_redo_recovers_buffered_commits() {
    for engine in both_engines() {
        let db = Database::open(cfg(engine, 16).eot(EotPolicy::NoForce));
        let mut tx = db.begin();
        tx.write(1, b"committed but only in buffer").unwrap();
        tx.commit().unwrap();
        // Nothing forced; crash wipes the buffer; redo must reapply.
        let report = db.crash_and_recover().unwrap();
        assert!(report.redone >= 1, "{engine:?} redo ran");
        assert_page(&db, 1, b"committed but only in buffer");
        assert!(db.verify().unwrap().is_empty());
    }
}

#[test]
fn noforce_acc_checkpoint_limits_redo() {
    let db = Database::open(
        cfg(EngineKind::Rda, 16)
            .eot(EotPolicy::NoForce)
            .checkpoint(CheckpointPolicy::Manual),
    );
    let mut tx = db.begin();
    tx.write(1, b"before ckpt").unwrap();
    tx.commit().unwrap();
    db.checkpoint().unwrap();
    let mut tx = db.begin();
    tx.write(2, b"after ckpt").unwrap();
    tx.commit().unwrap();

    let report = db.crash_and_recover().unwrap();
    // Page 1 was flushed by the checkpoint; only page 2 needs redo.
    assert_eq!(report.redone, 1);
    assert_page(&db, 1, b"before ckpt");
    assert_page(&db, 2, b"after ckpt");
}

#[test]
fn record_granularity_updates_and_rollback() {
    for engine in both_engines() {
        let db = Database::open(cfg(engine, 8).granularity(LogGranularity::Record));
        let mut tx = db.begin();
        tx.update(0, 0, b"hello").unwrap();
        tx.update(0, 10, b"world").unwrap();
        tx.commit().unwrap();
        let got = db.read_page(0).unwrap();
        assert_eq!(&got[0..5], b"hello");
        assert_eq!(&got[10..15], b"world");

        let mut tx = db.begin();
        tx.update(0, 0, b"HELLO").unwrap();
        tx.abort().unwrap();
        let got = db.read_page(0).unwrap();
        assert_eq!(&got[0..5], b"hello", "{engine:?}");
    }
}

#[test]
fn record_locking_allows_disjoint_sharing() {
    let db = Database::open(cfg(EngineKind::Rda, 8).granularity(LogGranularity::Record));
    let mut t1 = db.begin();
    let mut t2 = db.begin();
    t1.update(0, 0, b"aaaa").unwrap();
    t2.update(0, 8, b"bbbb").unwrap();
    // Overlap conflicts.
    let err = t2.update(0, 2, b"cc").unwrap_err();
    assert!(matches!(err, DbError::LockConflict { .. }));
    t1.commit().unwrap();
    t2.commit().unwrap();
    let got = db.read_page(0).unwrap();
    assert_eq!(&got[0..4], b"aaaa");
    assert_eq!(&got[8..12], b"bbbb");
}

#[test]
fn shared_page_steal_logs_and_rolls_back_per_txn() {
    // Two transactions share a page (disjoint ranges) under a tiny buffer:
    // the stolen page cannot ride parity and both txns' diffs are logged.
    // One commits, the other aborts.
    let db = Database::open(cfg(EngineKind::Rda, 2).granularity(LogGranularity::Record));
    let mut t1 = db.begin();
    let mut t2 = db.begin();
    t1.update(0, 0, b"AAAA").unwrap();
    t2.update(0, 8, b"BBBB").unwrap();
    // Evict page 0 by touching others.
    t1.read(4).unwrap();
    t1.read(8).unwrap();
    t1.read(12).unwrap();
    t1.commit().unwrap();
    t2.abort().unwrap();
    let got = db.read_page(0).unwrap();
    assert_eq!(&got[0..4], b"AAAA", "committed survives");
    assert_eq!(&got[8..12], [0u8; 4], "aborted rolled back");
    assert!(db.verify().unwrap().is_empty());
}

#[test]
fn page_lock_conflict_reported() {
    let db = Database::open(cfg(EngineKind::Rda, 8));
    let mut t1 = db.begin();
    let mut t2 = db.begin();
    t1.write(3, b"mine").unwrap();
    let err = t2.write(3, b"contested").unwrap_err();
    assert!(matches!(err, DbError::LockConflict { .. }));
    t1.commit().unwrap();
    t2.write(3, b"now mine").unwrap();
    t2.commit().unwrap();
    assert_page(&db, 3, b"now mine");
}

#[test]
fn media_recovery_rebuilds_failed_disk() {
    for engine in both_engines() {
        let db = Database::open(cfg(engine, 8));
        let mut tx = db.begin();
        for p in 0..16 {
            tx.write(p, &[p as u8 + 1; 12]).unwrap();
        }
        tx.commit().unwrap();

        db.fail_disk(1);
        // Reads still work in degraded mode.
        assert_page(&db, 0, &[1; 12]);
        let rebuilt = db.media_recover(1).unwrap();
        assert!(rebuilt > 0);
        for p in 0..16 {
            assert_page(&db, p, &[p as u8 + 1; 12]);
        }
        assert!(db.verify().unwrap().is_empty(), "{engine:?}");
    }
}

#[test]
fn media_recovery_requires_quiescence() {
    let db = Database::open(cfg(EngineKind::Rda, 8));
    let mut tx = db.begin();
    tx.write(0, b"x").unwrap();
    db.fail_disk(0);
    let err = db.media_recover(0).unwrap_err();
    assert!(matches!(err, DbError::ActiveTransactions(1)));
    tx.abort().unwrap();
    db.media_recover(0).unwrap();
}

#[test]
fn crash_during_degraded_operation_recovers() {
    // Disk failure + system crash together: recovery must still work via
    // degraded reads through the committed twins.
    let db = Database::open(cfg(EngineKind::Rda, 2));
    let mut setup = db.begin();
    for p in 0..6 {
        setup.write(p, &[3; 8]).unwrap();
    }
    setup.commit().unwrap();

    let mut tx = db.begin();
    for p in 0..6 {
        tx.write(p, &[5; 8]).unwrap();
    }
    drop_without_abort(tx);
    db.crash();
    db.recover().unwrap();
    for p in 0..6 {
        assert_page(&db, p, &[3; 8]);
    }
}

#[test]
fn operations_refused_until_recovery() {
    let db = Database::open(cfg(EngineKind::Rda, 8));
    db.crash();
    assert!(matches!(db.read_page(0), Err(DbError::NeedsRecovery)));
    assert!(matches!(db.checkpoint(), Err(DbError::NeedsRecovery)));
    db.recover().unwrap();
    assert!(db.read_page(0).is_ok());
}

#[test]
fn stale_transaction_handle_after_crash_errors() {
    let db = Database::open(cfg(EngineKind::Rda, 8));
    let mut tx = db.begin();
    tx.write(0, b"x").unwrap();
    db.crash_and_recover().unwrap();
    let err = tx.read(0).unwrap_err();
    assert!(matches!(err, DbError::UnknownTxn(_)));
    drop(tx); // drop-abort must tolerate the unknown txn
}

#[test]
fn wrong_granularity_calls_rejected() {
    let db = Database::open(cfg(EngineKind::Rda, 8));
    let mut tx = db.begin();
    assert!(matches!(
        tx.update(0, 0, b"x"),
        Err(DbError::WrongGranularity(_))
    ));
    let db = Database::open(cfg(EngineKind::Rda, 8).granularity(LogGranularity::Record));
    let mut tx = db.begin();
    assert!(matches!(
        tx.write(0, b"x"),
        Err(DbError::WrongGranularity(_))
    ));
}

#[test]
fn out_of_range_page_rejected() {
    let db = Database::open(cfg(EngineKind::Rda, 8));
    let mut tx = db.begin();
    let max = db.data_pages();
    assert!(matches!(tx.read(max), Err(DbError::BadPage(_))));
    assert!(matches!(tx.write(max, b"x"), Err(DbError::BadPage(_))));
}

#[test]
fn oversized_write_rejected() {
    let db = Database::open(cfg(EngineKind::Rda, 8));
    let mut tx = db.begin();
    let too_big = vec![0u8; PAGE + 1];
    assert!(matches!(
        tx.write(0, &too_big),
        Err(DbError::PageOverflow { .. })
    ));
    let db = Database::open(cfg(EngineKind::Rda, 8).granularity(LogGranularity::Record));
    let mut tx = db.begin();
    assert!(matches!(
        tx.update(0, PAGE - 2, b"xyz"),
        Err(DbError::PageOverflow { .. })
    ));
}

#[test]
fn rda_commit_costs_fewer_log_writes_than_wal_under_pressure() {
    // The headline mechanism: with steals happening, the RDA engine logs
    // (and forces) less UNDO information than the WAL engine.
    let run = |engine: EngineKind| -> u64 {
        let db = Database::open(cfg(engine, 2));
        let mut setup = db.begin();
        for p in 0..8 {
            setup.write(p, &[1; 8]).unwrap();
        }
        setup.commit().unwrap();
        let before = db.log_bytes();
        let mut tx = db.begin();
        for p in 0..8 {
            tx.write(p, &[2; 8]).unwrap();
        }
        tx.commit().unwrap();
        db.log_bytes() - before
    };
    let rda = run(EngineKind::Rda);
    let wal = run(EngineKind::Wal);
    assert!(
        rda < wal,
        "RDA should log fewer UNDO bytes than WAL under steal pressure: {rda} vs {wal}"
    );
}

#[test]
fn interleaved_transactions_different_groups() {
    let db = Database::open(cfg(EngineKind::Rda, 4));
    let mut t1 = db.begin();
    let mut t2 = db.begin();
    t1.write(0, b"one").unwrap(); // group 0
    t2.write(4, b"two").unwrap(); // group 1
    t1.write(8, b"three").unwrap(); // group 2
    t2.write(12, b"four").unwrap(); // group 3
    t1.commit().unwrap();
    t2.abort().unwrap();
    assert_page(&db, 0, b"one");
    assert_page(&db, 8, b"three");
    assert_page(&db, 4, b"");
    assert_page(&db, 12, b"");
    assert!(db.verify().unwrap().is_empty());
}

#[test]
fn two_txns_same_group_different_pages() {
    // Group 0 = pages 0..4. T1 dirties the group via page 0; T2's page 1
    // must be UNDO-logged when stolen. Both directions of outcome.
    let db = Database::open(cfg(EngineKind::Rda, 2));
    let mut setup = db.begin();
    setup.write(0, b"p0").unwrap();
    setup.write(1, b"p1").unwrap();
    setup.commit().unwrap();

    let mut t1 = db.begin();
    let mut t2 = db.begin();
    t1.write(0, b"t1-new").unwrap();
    t2.write(1, b"t2-new").unwrap();
    // Pressure out both.
    t1.read(8).unwrap();
    t1.read(12).unwrap();
    t1.read(16).unwrap();
    t1.commit().unwrap();
    t2.abort().unwrap();
    assert_page(&db, 0, b"t1-new");
    assert_page(&db, 1, b"p1");
    assert!(db.verify().unwrap().is_empty());
}

#[test]
fn sequential_commits_alternate_twins() {
    // Repeated committed updates to the same group must keep flipping the
    // committed twin and never corrupt parity.
    let db = Database::open(cfg(EngineKind::Rda, 2));
    for round in 0u8..6 {
        let mut tx = db.begin();
        tx.write(0, &[round; 8]).unwrap();
        tx.write(1, &[round ^ 0xFF; 8]).unwrap();
        tx.commit().unwrap();
        assert!(db.verify().unwrap().is_empty(), "round {round}");
    }
    assert_page(&db, 0, &[5; 8]);
}

#[test]
fn checkpoint_flushes_uncommitted_with_protection() {
    // An ACC checkpoint propagates uncommitted pages; aborting afterwards
    // must still restore them.
    let db = Database::open(cfg(EngineKind::Rda, 8).eot(EotPolicy::NoForce));
    let mut setup = db.begin();
    setup.write(0, b"base").unwrap();
    setup.commit().unwrap();

    let mut tx = db.begin();
    tx.write(0, b"tentative").unwrap();
    db.checkpoint().unwrap();
    tx.abort().unwrap();
    assert_page(&db, 0, b"base");
    assert!(db.verify().unwrap().is_empty());
}

#[test]
fn automatic_acc_checkpoints_fire() {
    let db = Database::open(
        cfg(EngineKind::Rda, 8)
            .eot(EotPolicy::NoForce)
            .checkpoint(CheckpointPolicy::AccEvery { ops: 3 }),
    );
    let log_before = db.stats().log.writes;
    let mut tx = db.begin();
    for p in 0..9 {
        tx.write(p, b"x").unwrap();
    }
    tx.commit().unwrap();
    assert!(
        db.stats().log.writes > log_before,
        "checkpoints hit the log"
    );
    // Crash: committed state survives, uncommitted checkpointed pages were
    // already exercised by `checkpoint_flushes_uncommitted_with_protection`.
    db.crash_and_recover().unwrap();
    for p in 0..9 {
        assert_page(&db, p, b"x");
    }
}

#[test]
fn amortized_log_accounting_reduces_writes() {
    let run = |amortized: bool| {
        let mut c = cfg(EngineKind::Rda, 8);
        c.log.amortized = amortized;
        let db = Database::open(c);
        for round in 0..6u8 {
            let mut tx = db.begin();
            tx.write(u32::from(round), &[round; 4]).unwrap();
            tx.commit().unwrap();
        }
        db.stats().log.writes
    };
    let sync = run(false);
    let amortized = run(true);
    assert!(
        amortized < sync,
        "group-commit accounting must bill fewer log-page writes: {amortized} vs {sync}"
    );
}

#[test]
fn nosteal_buffer_policy_still_commits_and_aborts() {
    // ¬STEAL: uncommitted pages may not leave the buffer; the engine must
    // keep working as long as the write set fits, and FORCE-at-commit is
    // still allowed to write (it is an EOT propagation, not a steal).
    let mut c = cfg(EngineKind::Rda, 6);
    c.buffer.steal = false;
    let db = Database::open(c);
    let mut tx = db.begin();
    for p in 0..4 {
        tx.write(p, &[9; 4]).unwrap();
    }
    tx.commit().unwrap();
    for p in 0..4 {
        assert_page(&db, p, &[9; 4]);
    }
    let mut tx = db.begin();
    for p in 0..4 {
        tx.write(p, &[7; 4]).unwrap();
    }
    tx.abort().unwrap();
    for p in 0..4 {
        assert_page(&db, p, &[9; 4]);
    }
    // Overflowing the buffer with uncommitted pages wedges the pool, which
    // must surface as an error, not corruption.
    let mut tx = db.begin();
    let mut wedged = false;
    for p in 0..db.data_pages() {
        match tx.write(p, &[1; 4]) {
            Ok(()) => {}
            Err(DbError::BufferWedged) => {
                wedged = true;
                break;
            }
            Err(e) => panic!("unexpected: {e}"),
        }
    }
    assert!(
        wedged,
        "a ¬STEAL pool must refuse once full of uncommitted pages"
    );
    tx.abort().unwrap();
    assert!(db.verify().unwrap().is_empty());
}

#[test]
fn strict_read_locks_give_strict_2pl() {
    let mut c = cfg(EngineKind::Rda, 8);
    c.strict_read_locks = true;
    let db = Database::open(c);
    let mut writer = db.begin();
    writer.write(0, b"v1").unwrap();

    // A reader cannot see (or pass) the uncommitted write.
    let mut reader = db.begin();
    assert!(matches!(reader.read(0), Err(DbError::LockConflict { .. })));
    // And readers block writers symmetrically.
    reader.read(1).unwrap();
    assert!(matches!(
        writer.write(1, b"x"),
        Err(DbError::LockConflict { .. })
    ));
    // Multiple readers coexist.
    let mut reader2 = db.begin();
    reader2.read(1).unwrap();

    writer.commit().unwrap();
    // The committed page is still blocked for nobody once locks release…
    // but the readers hold page 1 until EOT.
    assert!(reader.read(0).is_ok());
    reader.abort().unwrap();
    reader2.abort().unwrap();
    let mut late = db.begin();
    late.write(1, b"now fine").unwrap();
    late.commit().unwrap();
}

#[test]
fn default_mode_reads_do_not_lock() {
    let db = Database::open(cfg(EngineKind::Rda, 8));
    let mut writer = db.begin();
    writer.write(0, b"v1").unwrap();
    let mut reader = db.begin();
    // Dirty read allowed by design in the default (model-faithful) mode.
    assert!(reader.read(0).is_ok());
    reader.abort().unwrap();
    writer.commit().unwrap();
}

/// Restart resolves a winner's Working header, read from the parity
/// blocks. T1 dirtied group 0 and committed, and a commit flips its twin
/// in memory only, so P0's header still reads Working for T1; a later
/// steal by T2 then claimed P1. Both twins read Working, and P0 — the
/// first — is the stale one. Restart must read T1's twin as committed and
/// undo T2 through it, not through T2's own working parity. Group 1's P1
/// names T9, which the log no longer holds: an ended transaction, read as
/// committed too, and new ids start above it.
#[test]
fn restart_flips_a_winners_working_header_before_undoing_a_loser() {
    use rda_array::{sim_disks_for, GroupId, Header, Page, ParitySlot::*, TwinState::*};
    use rda_core::{BackendSetup, EventKind, LogRecord, RestoredState};
    use rda_wal::TxnId;

    let mut cfg = cfg(EngineKind::Rda, 8);
    cfg.trace_events = 256;
    let geo = rda_array::Geometry::new(&cfg.array);
    let members = geo.members(GroupId(0));
    let (a, b) = (members[0], members[1]);
    let (a_img, b_img) = (
        Page::from_bytes(&[0x11; PAGE]),
        Page::from_bytes(&[0x22; PAGE]),
    );
    // T1's page a is committed under P0; T2's page b (old image zeros)
    // rides P1 = P0 ⊕ old ⊕ new.
    let mut p_work = a_img.clone();
    p_work.xor_in_place(&b_img);
    let header = |ts, state, txn, rider| Header {
        ts,
        txn,
        rider,
        state,
    };
    let zero = Page::zeroed(PAGE);
    let disks = sim_disks_for(&cfg.array);
    for (loc, page) in [
        (geo.data_loc(a), a_img.clone()),
        (geo.data_loc(b), b_img),
        (
            geo.parity_loc(GroupId(0), P0).unwrap(),
            a_img.with_header(header(5, Working, 1, 0)),
        ),
        (
            geo.parity_loc(GroupId(0), P1).unwrap(),
            p_work.with_header(header(7, Working, 2, 1)),
        ),
        (
            geo.parity_loc(GroupId(1), P0).unwrap(),
            zero.clone().with_header(header(1, Committed, 0, 0)),
        ),
        (
            geo.parity_loc(GroupId(1), P1).unwrap(),
            zero.with_header(header(3, Working, 9, 0)),
        ),
    ] {
        disks[usize::from(loc.disk.0)]
            .write(loc.block, &page)
            .unwrap();
    }
    let log_records = vec![
        LogRecord::Bot { txn: TxnId(1) },
        LogRecord::Commit { txn: TxnId(1) },
        LogRecord::Bot { txn: TxnId(2) },
    ];
    let restored = RestoredState {
        log_records,
        ..RestoredState::default()
    };
    let setup = BackendSetup {
        restored: Some(restored),
        ..BackendSetup::fresh(disks)
    };
    let db = Database::open_with(cfg, setup);
    let report = db.recover().unwrap();
    assert_eq!(
        (report.winners, report.losers),
        (vec![TxnId(1)], vec![TxnId(2)])
    );
    assert_eq!(report.undone_via_parity, 1);
    assert_eq!(
        db.read_page(a.0).unwrap(),
        vec![0x11; PAGE],
        "the winner's page"
    );
    assert_eq!(
        db.read_page(b.0).unwrap(),
        vec![0; PAGE],
        "the loser's page undone"
    );
    assert!(db.verify().unwrap().is_empty());
    assert!(db.audit().is_clean(), "{:?}", db.audit().violations());

    let mut tx = db.begin();
    tx.write(b.0, &[0x33; PAGE]).unwrap();
    tx.commit().unwrap();
    let events = db.shard(0).trace_snapshot().events;
    let flips: Vec<u64> = events
        .iter()
        .filter_map(|ev| match ev.kind {
            EventKind::CommitTwinFlip { txn, .. } => Some(txn),
            _ => None,
        })
        .collect();
    assert!(
        flips.len() == 1 && flips[0] > 9,
        "an id above T9: {flips:?}"
    );
}

/// A scripted run of reads, writes, commits and aborts under buffer
/// pressure, with the buffer's counters pinned to the values the pool
/// counted when a hit returned a copy of its frame and a write replaced
/// the frame's page: touching, lending, writing in place and reading a
/// miss into the victim's buffer move no hit, miss, eviction or scan.
#[test]
fn scripted_run_keeps_the_buffer_counters() {
    use rda_obs::rng::Rng;
    // (hits, misses, drops, steals, writebacks, eviction_scans)
    type Counts = (u64, u64, u64, u64, u64, u64);
    let cases: [(EngineKind, LogGranularity, EotPolicy, Counts); 4] = [
        (
            EngineKind::Rda,
            LogGranularity::Page,
            EotPolicy::Force,
            (176, 757, 592, 6, 153, 1573),
        ),
        (
            EngineKind::Wal,
            LogGranularity::Page,
            EotPolicy::Force,
            (176, 757, 592, 6, 153, 1573),
        ),
        (
            EngineKind::Rda,
            LogGranularity::Record,
            EotPolicy::Force,
            (169, 729, 617, 3, 103, 1498),
        ),
        (
            EngineKind::Rda,
            LogGranularity::Page,
            EotPolicy::NoForce,
            (176, 757, 210, 6, 535, 1573),
        ),
    ];
    for (engine, granularity, eot, expect) in cases {
        let db = Database::open(DbConfig {
            granularity,
            eot,
            ..cfg(engine, 6)
        });
        let mut rng = Rng::new(0x1992);
        for t in 0..300u32 {
            let mut tx = db.begin();
            for _ in 0..=rng.below(5) {
                let page = rng.below(u64::from(db.data_pages())) as u32;
                let bytes = [t as u8; 9];
                match (rng.below(3), granularity) {
                    (0, _) => drop(tx.read(page).unwrap()),
                    (_, LogGranularity::Page) => tx.write(page, &bytes).unwrap(),
                    (_, LogGranularity::Record) => {
                        let offset = rng.below((PAGE - bytes.len()) as u64) as usize;
                        tx.update(page, offset, &bytes).unwrap();
                    }
                }
            }
            if rng.chance(25) {
                tx.abort().unwrap();
            } else {
                tx.commit().unwrap();
            }
        }
        let s = db.stats().buffer;
        let got = (
            s.hits,
            s.misses,
            s.drops,
            s.steals,
            s.writebacks,
            s.eviction_scans,
        );
        assert_eq!(got, expect, "{engine:?} {granularity:?} {eot:?}");
        assert!(db.audit().is_clean(), "{:?}", db.audit().violations());
    }
}

/// Paper Figure 3 through the engine, seen from outside: group 0 (pages
/// 0–3 of `small_test`) is dirtied by a steal, ridden by the same page
/// and transaction, refused to another page (logged), flipped clean by
/// the commit, dirtied again, and left clean by an abort, which the next
/// steal shows by dirtying it once more.
#[test]
fn figure3_walks_one_group_through_the_engine() {
    use rda_core::{EventKind, StealKind};
    use StealKind::{DirtiesGroup, Logged, RidesExisting};
    let db = Database::open(cfg(EngineKind::Rda, 2).trace(1 << 12));
    // Three reads of pages outside group 0 evict both frames of the pool.
    let mut spare = [[20, 21, 22], [24, 25, 26]].into_iter().cycle();
    let mut steal = |tx: &mut rda_core::Transaction, page: u32, bytes: &[u8]| {
        tx.write(page, bytes).unwrap();
        for p in spare.next().unwrap() {
            tx.read(p).unwrap();
        }
    };
    let group0 = |db: &Database| {
        let (mut steals, mut flips, mut undos) = (Vec::new(), 0, 0);
        for e in db.shard(0).trace_snapshot().events {
            match e.kind {
                EventKind::Steal { group: 0, kind, .. } => steals.push(kind),
                EventKind::CommitTwinFlip { group: 0, .. } => flips += 1,
                EventKind::ParityUndo { group: 0, .. } => undos += 1,
                _ => {}
            }
        }
        let m = db.metrics();
        let count = |name: &str| m.counter(name).get();
        let totals = (
            count("engine_steals_parity_total"),
            count("engine_steals_logged_total"),
        );
        (steals, totals, flips, undos)
    };

    let mut t1 = db.begin();
    steal(&mut t1, 0, b"first");
    assert_eq!(group0(&db), (vec![DirtiesGroup], (1, 0), 0, 0));
    steal(&mut t1, 0, b"second");
    assert_eq!(
        group0(&db),
        (vec![DirtiesGroup, RidesExisting], (2, 0), 0, 0)
    );
    steal(&mut t1, 1, b"other page");
    let ridden = vec![DirtiesGroup, RidesExisting, Logged];
    assert_eq!(group0(&db), (ridden.clone(), (2, 1), 0, 0));
    t1.commit().unwrap();
    assert_eq!(group0(&db), (ridden.clone(), (2, 1), 1, 0));

    let mut t2 = db.begin();
    steal(&mut t2, 2, b"doomed");
    let mut kinds = [ridden, vec![DirtiesGroup]].concat();
    assert_eq!(group0(&db), (kinds.clone(), (3, 1), 1, 0));
    t2.abort().unwrap();
    assert_eq!(group0(&db), (kinds.clone(), (3, 1), 1, 1));

    let mut t3 = db.begin();
    steal(&mut t3, 3, b"after the abort");
    kinds.push(DirtiesGroup);
    assert_eq!(group0(&db), (kinds.clone(), (4, 1), 1, 1));
    t3.commit().unwrap();
    assert_eq!(group0(&db), (kinds, (4, 1), 2, 1));

    assert_page(&db, 0, b"second");
    assert_page(&db, 1, b"other page");
    assert_page(&db, 2, b"");
    assert_page(&db, 3, b"after the abort");
    assert!(db.audit().is_clean(), "{:?}", db.audit().violations());
}
