//! What one crash/recover cycle reads, writes and reports, pinned — and
//! what rolling the same two losers back on a running database costs.
//!
//! Restart recovery scans the durable log once (billed by the log pages
//! its bytes span) and then installs images by the LSNs that scan noted,
//! without billing them again — under both EOT policies and both logging
//! granularities.
//!
//! The scan starts at the log's low-water mark, which the engine moves by
//! itself: in this history to the BOT of the older loser under FORCE (the
//! last commit's finalize), to the ACC checkpoint under ¬FORCE. Against
//! the numbers pinned while the log kept its whole history, restart reads
//! 10 → 4 / 5 → 2 / 7 → 5 / 4 → 3 log pages and reports only the winners
//! it can still see (3 → 1 under FORCE, 3 → 2 under ¬FORCE); every
//! repair count is unchanged. Under ¬FORCE one array read goes too: the
//! compensation record of the rollback *before* the checkpoint is below
//! the mark, so redo no longer re-reads that page to find it current —
//! the checkpoint had flushed it.

use rda_core::{
    CheckpointPolicy, Database, DbConfig, EngineKind, EotPolicy, EventKind, LogGranularity,
    Transaction,
};

/// One scripted history on the small test geometry (8 groups of 4 pages,
/// 8 buffer frames): winners before and after an ACC checkpoint and one
/// at the end, a transaction rolled back early (its parity undo leaves a
/// compensation record), and two losers that together overflow the
/// buffer so their pages are stolen — the first of a group riding
/// parity, the rest UNDO-logged. `end` gets the two losers, still
/// running.
fn history(
    eot: EotPolicy,
    granularity: LogGranularity,
    end: impl FnOnce(&Database, Transaction, Transaction),
) -> Database {
    let cfg = DbConfig::small_test(EngineKind::Rda)
        .eot(eot)
        .granularity(granularity)
        .checkpoint(CheckpointPolicy::Manual)
        .trace(1 << 12);
    let db = Database::open(cfg);
    let put = |tx: &mut Transaction, page: u32, val: u8| match granularity {
        LogGranularity::Page => tx.write(page, &[val; 8]).unwrap(),
        LogGranularity::Record => tx
            .update(page, 4 * usize::from(val % 4), &[val; 8])
            .unwrap(),
    };

    let mut t = db.begin();
    for page in 0..6 {
        put(&mut t, page, 1);
    }
    t.commit().unwrap();

    let mut rolled_back = db.begin();
    for page in 0..5 {
        put(&mut rolled_back, 4 * page, 2);
    }
    rolled_back.read(21).unwrap();
    rolled_back.read(22).unwrap();
    rolled_back.read(23).unwrap();
    rolled_back.read(25).unwrap();
    rolled_back.abort().unwrap();

    db.checkpoint().unwrap();

    let mut t = db.begin();
    for page in 3..9 {
        put(&mut t, page, 3);
    }
    t.commit().unwrap();

    let mut loser_a = db.begin();
    let mut loser_b = db.begin();
    for k in 0..5 {
        put(&mut loser_a, 9 + k, 4);
        put(&mut loser_b, 20 + k, 5);
    }
    put(&mut loser_a, 9, 6);
    loser_a.read(30).unwrap();
    loser_b.read(31).unwrap();

    // Committed last: under ¬FORCE these pages are still only in the
    // buffer when it is lost, so redo has to reinstall them.
    let mut t = db.begin();
    put(&mut t, 26, 7);
    put(&mut t, 27, 7);
    t.commit().unwrap();
    end(&db, loser_a, loser_b);
    db
}

/// The history, ended by a crash.
fn crashed(eot: EotPolicy, granularity: LogGranularity) -> Database {
    history(eot, granularity, |db, loser_a, loser_b| {
        db.crash();
        // The handles died with the crash.
        drop((loser_a, loser_b));
    })
}

/// An exported counter, e.g. `log_reads_total` (what the benchmark's
/// `transfers_per_commit` sums).
fn counter(db: &Database, metric: &str) -> u64 {
    db.metrics()
        .counter_values()
        .into_iter()
        .find_map(|(name, value)| (name == metric).then_some(value))
        .expect("the counter is registered")
}

/// The winners' values are there and the losers' pages are back to zero;
/// each undo left one trace witness.
fn assert_recovered(db: &Database) {
    assert!(db.verify().unwrap().is_empty());
    assert!(db.audit().is_clean());
    let events = db.shard(0).trace_snapshot().events;
    let witnessed = |undo: fn(&EventKind) -> bool| events.iter().filter(|e| undo(&e.kind)).count();
    let log_undos = witnessed(|k| matches!(k, EventKind::LogUndo { .. }));
    assert_eq!(log_undos as u64, counter(db, "engine_undo_log_total"));
    let parity_undos = witnessed(|k| matches!(k, EventKind::ParityUndo { .. }));
    assert_eq!(parity_undos as u64, counter(db, "engine_undo_parity_total"));
    let first = |page: u32| db.read_page(page).unwrap()[..16].to_vec();
    assert!(first(4).contains(&3), "page 4: the later winner's value");
    assert!(first(0).contains(&1) && !first(0).contains(&2));
    assert!(first(26).contains(&7) && first(27).contains(&7));
    for page in (9..14).chain(20..25) {
        assert_eq!(first(page), [0; 16], "loser page {page}");
    }
}

/// `[log reads, log writes, array reads, array writes, winners, losers,
/// undone via parity, undone via log, redone, bitmap groups, pages
/// scanned]` of the recovery that follows [`crashed`].
fn recovery_numbers(eot: EotPolicy, granularity: LogGranularity) -> [u64; 11] {
    let db = crashed(eot, granularity);
    let before = db.stats();
    let metric_before = counter(&db, "log_reads_total");
    let report = db.recover().unwrap();
    let d = db.stats().delta(&before);
    assert_eq!(
        counter(&db, "log_reads_total") - metric_before,
        d.log.reads,
        "the exported counter is the store's"
    );
    assert_eq!(report.intent_replays + report.torn_twins_healed, 0);
    assert_recovered(&db);

    [
        d.log.reads,
        d.log.writes,
        d.array.reads,
        d.array.writes,
        report.winners.len() as u64,
        report.losers.len() as u64,
        report.undone_via_parity,
        report.undone_via_log,
        report.redone,
        report.bitmap_groups,
        report.pages_scanned,
    ]
}

#[test]
fn force_page_logging() {
    assert_eq!(
        recovery_numbers(EotPolicy::Force, LogGranularity::Page),
        [4, 10, 43, 18, 1, 2, 3, 4, 0, 8, 32]
    );
}

#[test]
fn force_record_logging() {
    assert_eq!(
        recovery_numbers(EotPolicy::Force, LogGranularity::Record),
        [2, 10, 47, 18, 1, 2, 3, 4, 0, 8, 32]
    );
}

#[test]
fn noforce_page_logging() {
    assert_eq!(
        recovery_numbers(EotPolicy::NoForce, LogGranularity::Page),
        [5, 10, 53, 22, 2, 2, 3, 4, 2, 8, 32]
    );
}

#[test]
fn noforce_record_logging() {
    assert_eq!(
        recovery_numbers(EotPolicy::NoForce, LogGranularity::Record),
        [3, 10, 57, 22, 2, 2, 3, 4, 2, 8, 32]
    );
}

/// `[log reads, log writes, array reads, array writes, Δ
/// engine_undo_parity_total, Δ engine_undo_log_total]` of aborting the
/// two losers of [`history`] on the running database, `loser_a` first.
fn abort_numbers(eot: EotPolicy, granularity: LogGranularity) -> [u64; 6] {
    let mut numbers = [0; 6];
    let db = history(eot, granularity, |db, loser_a, loser_b| {
        let before = db.stats();
        let parity = counter(db, "engine_undo_parity_total");
        let logged = counter(db, "engine_undo_log_total");
        loser_a.abort().unwrap();
        loser_b.abort().unwrap();
        let d = db.stats().delta(&before);
        numbers = [
            d.log.reads,
            d.log.writes,
            d.array.reads,
            d.array.writes,
            counter(db, "engine_undo_parity_total") - parity,
            counter(db, "engine_undo_log_total") - logged,
        ];
    });
    assert_recovered(&db);
    numbers
}

#[test]
fn abort_force_page_logging() {
    assert_eq!(
        abort_numbers(EotPolicy::Force, LogGranularity::Page),
        [9, 12, 10, 14, 3, 4]
    );
}

#[test]
fn abort_force_record_logging() {
    assert_eq!(
        abort_numbers(EotPolicy::Force, LogGranularity::Record),
        [6, 12, 14, 14, 3, 4]
    );
}

#[test]
fn abort_noforce_page_logging() {
    assert_eq!(
        abort_numbers(EotPolicy::NoForce, LogGranularity::Page),
        [8, 12, 10, 14, 3, 4]
    );
}

#[test]
fn abort_noforce_record_logging() {
    assert_eq!(
        abort_numbers(EotPolicy::NoForce, LogGranularity::Record),
        [5, 12, 14, 14, 3, 4]
    );
}
