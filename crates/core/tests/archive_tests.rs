//! Archive dump/restore: the §1 baseline media recovery, measured against
//! array rebuild.

use rda_core::{Database, DbConfig, DbError, EngineKind, LogGranularity};

fn loaded_db(engine: EngineKind) -> Database {
    let mut cfg = DbConfig::paper_like(engine, 200, 32);
    cfg.array.page_size = 128;
    let db = Database::open(cfg);
    let mut tx = db.begin();
    for p in 0..db.data_pages() {
        tx.write(p, &[(p % 250) as u8 + 1; 16]).unwrap();
    }
    tx.commit().unwrap();
    db
}

#[test]
fn dump_then_restore_roundtrips() {
    for engine in [EngineKind::Rda, EngineKind::Wal] {
        let db = loaded_db(engine);
        let archive = db.archive_dump().unwrap();
        assert_eq!(archive.pages(), db.data_pages());

        // Work after the dump: one commit, one abort.
        let mut tx = db.begin();
        tx.write(3, b"post-dump committed").unwrap();
        tx.commit().unwrap();
        let mut tx = db.begin();
        tx.write(4, b"post-dump aborted").unwrap();
        tx.abort().unwrap();

        // Total media loss: every disk replaced; restore from the archive.
        let applied = db.archive_restore(&archive).unwrap();
        assert!(
            applied >= 1,
            "{engine:?}: post-dump commit must be replayed"
        );
        let got = db.read_page(3).unwrap();
        assert_eq!(&got[..19], b"post-dump committed", "{engine:?}");
        let got = db.read_page(4).unwrap();
        assert_eq!(got[0], 5, "{engine:?}: aborted work must not reappear");
        assert!(db.verify().unwrap().is_empty(), "{engine:?}");
    }
}

/// An exported counter or gauge, by name.
fn metric(db: &Database, name: &str) -> u64 {
    db.metrics()
        .counter_values()
        .into_iter()
        .find_map(|(n, value)| (n == name).then_some(value))
        .unwrap_or_else(|| panic!("{name} is registered"))
}

/// The engine moves the log's low-water mark at every commit; the last
/// dump pins it, so the archive keeps rolling forward however many
/// commits follow.
#[test]
fn the_last_dump_pins_the_low_water_mark() {
    let db = loaded_db(EngineKind::Rda);
    let archive = db.archive_dump().unwrap();
    assert_eq!(metric(&db, "wal_low_water_lsn"), archive.log_position().0);
    for round in 0u32..30 {
        let mut tx = db.begin();
        tx.write(round, &[round as u8 + 100; 16]).unwrap();
        tx.commit().unwrap();
        assert_eq!(
            metric(&db, "wal_low_water_lsn"),
            archive.log_position().0,
            "commit {round} moved the mark past the archive"
        );
    }
    assert_eq!(db.archive_restore(&archive).unwrap(), 30);
    for round in 0u32..30 {
        assert_eq!(db.read_page(round).unwrap()[0], round as u8 + 100);
    }
    assert!(db.verify().unwrap().is_empty());
    // A newer dump takes the pin over: the older archive is refused, the
    // newer one restores.
    let newer = db.archive_dump().unwrap();
    let mut tx = db.begin();
    tx.write(0, b"after the newer dump").unwrap();
    tx.commit().unwrap();
    assert!(matches!(
        db.archive_restore(&archive),
        Err(DbError::ArchiveTooOld { .. })
    ));
    db.archive_restore(&newer).unwrap();
    assert_eq!(&db.read_page(0).unwrap()[..5], b"after");
}

/// `truncate_log()` retires the archive. Restoring it anyway used to
/// rewrite the whole array from the dump, skip the commits that were no
/// longer in the log, and return `Ok`.
#[test]
fn an_archive_older_than_the_log_is_refused_before_anything_is_written() {
    for engine in [EngineKind::Rda, EngineKind::Wal] {
        let db = loaded_db(engine);
        let archive = db.archive_dump().unwrap();
        for round in 0u32..5 {
            let mut tx = db.begin();
            tx.write(round, &[0xEE; 16]).unwrap();
            tx.commit().unwrap();
        }
        assert!(db.truncate_log().unwrap() > 0, "{engine:?}");
        let before = db.stats();
        let refused = db.archive_restore(&archive).unwrap_err();
        match &refused {
            DbError::ArchiveTooOld {
                archive: at,
                log_base,
            } => {
                assert_eq!(*at, archive.log_position());
                assert!(log_base > at, "{engine:?}: {refused}");
            }
            other => panic!("{engine:?}: refused with {other}"),
        }
        assert!(refused
            .to_string()
            .contains(&archive.log_position().to_string()));
        let d = db.stats().delta(&before);
        assert_eq!(d.array.transfers(), 0, "{engine:?}: the array is untouched");
        // Pages still current, parity still right.
        for round in 0u32..5 {
            assert_eq!(db.read_page(round).unwrap()[0], 0xEE, "{engine:?}");
        }
        assert_eq!(db.read_page(7).unwrap()[0], 8, "{engine:?}");
        assert!(db.verify().unwrap().is_empty(), "{engine:?}");
        // A fresh archive works again.
        let fresh = db.archive_dump().unwrap();
        db.archive_restore(&fresh).unwrap();
        assert_eq!(db.read_page(0).unwrap()[0], 0xEE, "{engine:?}");
    }
}

#[test]
fn restore_heals_a_failed_and_replaced_array() {
    let db = loaded_db(EngineKind::Rda);
    let archive = db.archive_dump().unwrap();
    // The full-stripe restore rewrites everything, so it also serves as
    // disaster recovery after multiple disk replacements.
    db.fail_disk(0);
    db.fail_disk(1);
    // Multi-disk failure is beyond parity; the archive is the only way
    // back. Swap in blank disks via media path is impossible (two losses
    // in one group), so restore over replaced hardware:
    db.media_recover(0).unwrap_err(); // parity cannot rebuild two losses
                                      // Simulate field service replacing both drives with blanks.
    db.replace_disk_blank(0);
    db.replace_disk_blank(1);
    db.archive_restore(&archive).unwrap();
    for p in 0..db.data_pages() {
        assert_eq!(db.read_page(p).unwrap()[0], (p % 250) as u8 + 1);
    }
    assert!(db.verify().unwrap().is_empty());
}

#[test]
fn archive_requires_quiescence() {
    let db = loaded_db(EngineKind::Rda);
    let mut tx = db.begin();
    tx.write(0, b"busy").unwrap();
    assert!(matches!(
        db.archive_dump(),
        Err(DbError::ActiveTransactions(1))
    ));
    tx.abort().unwrap();
    db.archive_dump().unwrap();
}

#[test]
fn record_mode_replay() {
    let mut cfg = DbConfig::paper_like(EngineKind::Rda, 100, 16);
    cfg.array.page_size = 128;
    let db = Database::open(cfg.granularity(LogGranularity::Record));
    let mut tx = db.begin();
    tx.update(0, 0, b"base").unwrap();
    tx.commit().unwrap();
    let archive = db.archive_dump().unwrap();
    let mut tx = db.begin();
    tx.update(0, 8, b"after-dump").unwrap();
    tx.commit().unwrap();
    db.archive_restore(&archive).unwrap();
    let got = db.read_page(0).unwrap();
    assert_eq!(&got[0..4], b"base");
    assert_eq!(&got[8..18], b"after-dump");
}

#[test]
fn rebuild_cost_is_flat_while_restore_grows_with_the_log() {
    // The paper's §1 argument: archive recovery must replay everything
    // committed since the dump, so its cost grows without bound with the
    // time since the last archive; parity rebuild touches only the failed
    // disk's groups regardless of history.
    let db = loaded_db(EngineKind::Rda);
    let archive = db.archive_dump().unwrap();

    // A long stretch of post-dump work (the redo tail).
    for round in 0u32..40 {
        let mut tx = db.begin();
        for k in 0..5 {
            tx.write((round * 5 + k) % db.data_pages(), &[round as u8 + 1; 16])
                .unwrap();
        }
        tx.commit().unwrap();
    }

    let before = db.stats();
    db.fail_disk(2);
    db.media_recover(2).unwrap();
    let rebuild = db.stats().delta(&before);
    let rebuild_cost = rebuild.array.transfers() + rebuild.log.transfers();

    let before = db.stats();
    db.archive_restore(&archive).unwrap();
    let restore = db.stats().delta(&before);
    let restore_cost = restore.array.transfers() + restore.log.transfers();

    assert!(
        rebuild_cost * 2 < restore_cost,
        "rebuild {rebuild_cost} transfers should be far below restore {restore_cost}"
    );
    // And the database is intact either way.
    assert!(db.verify().unwrap().is_empty());
}
