//! End-to-end tests of the file-backed backend: the full RDA engine over
//! `FileDisk`, including clean reopen, restart recovery, and a seeded
//! torn-write fault schedule replayed through the same `FaultHook` seam
//! the simulated backend uses.

use rda_array::{ArrayError, BlockDevice, DiskId, HookState, Page};
use rda_core::{DbConfig, EngineKind};
use rda_disk::{create_database, reopen_database, DurabilityMode, FileDb, FileDisk, StorageError};
use rda_faults::{FaultInjector, FaultPlan};
use std::path::PathBuf;
use std::sync::Arc;

fn tmpdir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("rda-disk-e2e-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn cfg() -> DbConfig {
    DbConfig::small_test(EngineKind::Rda)
}

/// Deterministic page image for transaction `i` (fits any page size).
fn stamp(i: u64) -> Vec<u8> {
    let mut v = i.to_le_bytes().to_vec();
    v.push(0x5A);
    v
}

fn committed_value(db: &FileDb, page: u32) -> Option<u64> {
    let bytes = db.read_page(page).expect("page readable");
    if bytes.iter().all(|b| *b == 0) {
        return None;
    }
    Some(u64::from_le_bytes(
        bytes[..8].try_into().expect("page holds a stamp"),
    ))
}

#[test]
fn commit_survives_clean_reopen() {
    let dir = tmpdir("clean-reopen");
    let db = create_database(&dir, cfg(), DurabilityMode::FsyncOnBarrier).unwrap();
    for i in 0..6u64 {
        let mut tx = db.begin();
        tx.write(i as u32, &stamp(i)).unwrap();
        tx.commit().unwrap();
    }
    assert!(db.audit().is_clean());
    drop(db);

    let db = reopen_database(&dir, cfg(), DurabilityMode::FsyncOnBarrier).unwrap();
    db.recover().unwrap();
    for i in 0..6u64 {
        assert_eq!(committed_value(&db, i as u32), Some(i), "page {i} survives");
    }
    let audit = db.audit();
    assert!(
        audit.is_clean(),
        "audit after reopen: {:?}",
        audit.violations
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn reopen_with_uncommitted_work_recovers() {
    let dir = tmpdir("loser-reopen");
    let db = create_database(&dir, cfg(), DurabilityMode::FsyncOnBarrier).unwrap();
    let mut tx = db.begin();
    tx.write(1, &stamp(1)).unwrap();
    tx.commit().unwrap();
    // A second transaction is left in flight with more dirty pages than
    // the pool holds, so some are *stolen* onto the platter (BOT record,
    // chain links, parity rides — all durably journaled). Forget the
    // handle so its destructor cannot run an orderly abort, then abandon
    // the database: a process that died with work open.
    let mut tx = db.begin();
    for page in 8..20u32 {
        tx.write(page, &stamp(u64::from(page))).unwrap();
    }
    std::mem::forget(tx);
    drop(db);

    let db = reopen_database(&dir, cfg(), DurabilityMode::FsyncOnBarrier).unwrap();
    let report = db.recover().unwrap();
    assert_eq!(committed_value(&db, 1), Some(1), "winner survives");
    for page in 8..20u32 {
        assert_eq!(committed_value(&db, page), None, "loser page {page} undone");
    }
    assert!(db.audit().is_clean());
    // The stolen pages made the in-flight transaction durably visible, so
    // restart recovery must report it as a loser and undo it.
    assert!(
        !report.losers.is_empty(),
        "recovery must report the in-flight loser: {report:?}"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn sync_each_write_mode_end_to_end() {
    let dir = tmpdir("dsync-mode");
    let db = create_database(&dir, cfg(), DurabilityMode::SyncEachWrite).unwrap();
    let mut tx = db.begin();
    tx.write(3, &stamp(7)).unwrap();
    tx.commit().unwrap();
    drop(db);
    let db = reopen_database(&dir, cfg(), DurabilityMode::SyncEachWrite).unwrap();
    db.recover().unwrap();
    assert_eq!(committed_value(&db, 3), Some(7));
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn manifest_guards_geometry_and_clobbering() {
    let dir = tmpdir("manifest");
    let db = create_database(&dir, cfg(), DurabilityMode::FsyncOnBarrier).unwrap();
    drop(db);
    // Creating again over the same directory is refused.
    assert!(create_database(&dir, cfg(), DurabilityMode::FsyncOnBarrier).is_err());
    // Reopening with a different geometry is refused.
    let mut other = cfg();
    other.array.groups += 1;
    assert!(reopen_database(&dir, other, DurabilityMode::FsyncOnBarrier).is_err());
    // Reopening a directory that never held a database is refused.
    let empty = tmpdir("manifest-empty");
    std::fs::create_dir_all(&empty).unwrap();
    assert!(reopen_database(&empty, cfg(), DurabilityMode::FsyncOnBarrier).is_err());
    let _ = std::fs::remove_dir_all(&dir);
    let _ = std::fs::remove_dir_all(&empty);
}

/// A directory holds one engine's logs, so neither entry point builds a
/// database of more shards — not silently one engine over every group.
#[test]
fn create_refuses_more_than_one_shard() {
    let dir = tmpdir("two-shards-create");
    let refused = create_database(&dir, cfg().shards(2), DurabilityMode::FsyncOnBarrier);
    assert!(matches!(refused, Err(StorageError::Shards(2))));
    assert!(!dir.join("manifest.txt").exists(), "nothing was formatted");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn reopen_refuses_more_than_one_shard() {
    let dir = tmpdir("two-shards-reopen");
    drop(create_database(&dir, cfg(), DurabilityMode::FsyncOnBarrier).unwrap());
    let refused = reopen_database(&dir, cfg().shards(2), DurabilityMode::FsyncOnBarrier);
    let err = refused.err().expect("two shards refused").to_string();
    assert!(err.contains("per-shard logs"), "{err}");
    let _ = std::fs::remove_dir_all(&dir);
}

/// The deterministic workload the torn-write schedule interrupts: one
/// transaction per page, each writing its own page. Returns the set of
/// acknowledged commits, and stops at the first crash error.
fn run_until_crash(db: &FileDb, txns: u64) -> (Vec<u64>, bool) {
    let mut acked = Vec::new();
    for i in 0..txns {
        let mut tx = db.begin();
        if tx.write(i as u32, &stamp(i)).is_err() {
            std::mem::forget(tx);
            return (acked, true);
        }
        match tx.commit() {
            Ok(_) => acked.push(i),
            Err(_) => return (acked, true),
        }
    }
    (acked, false)
}

/// The I/O ordinals the torn-write schedules tear at.
const TORN_AT: [u64; 5] = [3, 7, 11, 16, 22];

/// The device half of the torn-write schedules: every write acknowledged
/// before the planted tear is in the files — readable after a reopen with
/// no barrier in between — and the torn block reads back as torn.
#[test]
fn writes_acked_before_a_tear_survive_reopen_without_a_barrier() {
    const BLOCKS: u64 = 32;
    const PAGE: usize = 64;
    let image = |block: u64| Page::from_bytes(&[block as u8 + 1; PAGE]);
    for k in TORN_AT {
        let dir = tmpdir(&format!("torn-device-{k}"));
        std::fs::create_dir_all(&dir).unwrap();
        let mode = DurabilityMode::FsyncOnBarrier;
        let disk = FileDisk::create(&dir, DiskId(0), BLOCKS, PAGE, mode).unwrap();
        let injector = Arc::new(FaultInjector::new(FaultPlan::torn_write_at(k)));
        disk.set_fault_hook(Some(HookState::new(injector)));
        // One write per block in order, so the k-th I/O is block k - 1.
        let torn = k - 1;
        for block in 0..torn {
            disk.write(block, &image(block)).unwrap();
        }
        assert_eq!(disk.write(torn, &image(torn)), Err(ArrayError::Crashed));
        drop(disk);

        let disk = FileDisk::open(&dir, DiskId(0), BLOCKS, PAGE, mode).unwrap();
        for block in 0..torn {
            assert_eq!(disk.read(block).unwrap(), image(block), "schedule {k}");
        }
        assert!(
            matches!(disk.read(torn), Err(ArrayError::TornPage { .. })),
            "schedule {k}: block {torn} must read back torn"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }
}

/// Satellite acceptance: a seeded torn-write schedule, injected through
/// the same `FaultHook` seam as on `SimDisk`, crashes the workload; the
/// database is reopened from the surviving files and must recover every
/// acknowledged commit with a clean audit.
#[test]
fn torn_write_schedule_then_restart_recovers() {
    let mut crashed_schedules = 0u32;
    for k in TORN_AT {
        let dir = tmpdir(&format!("torn-{k}"));
        let db = create_database(&dir, cfg(), DurabilityMode::FsyncOnBarrier).unwrap();
        let injector = Arc::new(FaultInjector::new(FaultPlan::torn_write_at(k)));
        db.install_fault_hook(injector);
        let (acked, crashed) = run_until_crash(&db, 8);
        let torn_applied = db
            .shard(0)
            .fault_stats()
            .map(|s| s.torn_writes())
            .unwrap_or_default();
        drop(db);
        if !crashed {
            let _ = std::fs::remove_dir_all(&dir);
            continue;
        }
        crashed_schedules += 1;

        let db = reopen_database(&dir, cfg(), DurabilityMode::FsyncOnBarrier).unwrap();
        db.recover().unwrap();
        let audit = db.audit();
        assert!(
            audit.is_clean(),
            "audit after torn write at I/O {k}: {:?}",
            audit.violations
        );
        for &i in &acked {
            assert_eq!(
                committed_value(&db, i as u32),
                Some(i),
                "acked txn {i} must survive torn write at I/O {k} (tears applied: {torn_applied})"
            );
        }
        // Every page holds either its committed stamp or nothing — no
        // torn garbage may be visible through the recovered database.
        for page in 0..8u32 {
            let v = committed_value(&db, page);
            assert!(
                v.is_none() || v == Some(u64::from(page)),
                "page {page} holds foreign value {v:?} after schedule {k}"
            );
        }
        let _ = std::fs::remove_dir_all(&dir);
    }
    assert!(
        crashed_schedules > 0,
        "at least one schedule must actually crash the workload"
    );
}

#[test]
fn flight_record_survives_reopen_and_torn_journal_tail() {
    let dir = tmpdir("flight-reopen");
    let cfg_traced = || cfg().trace(256).spans(true);
    let db = create_database(&dir, cfg_traced(), DurabilityMode::FsyncOnBarrier).unwrap();
    for i in 0..4u64 {
        let mut tx = db.begin();
        tx.write(i as u32, &stamp(i)).unwrap();
        tx.commit().unwrap();
    }
    drop(db);

    // Maul the journal the way a kill mid-append would: a frame header
    // promising more bytes than exist. The intact snapshots before it
    // must still load.
    {
        use std::io::Write as _;
        let mut f = std::fs::OpenOptions::new()
            .append(true)
            .open(dir.join("obs.journal"))
            .unwrap();
        f.write_all(&[0xFF, 0x00, 0x00, 0x00, 1, 2, 3]).unwrap();
    }

    let db = reopen_database(&dir, cfg_traced(), DurabilityMode::FsyncOnBarrier).unwrap();
    let report = db.recover().unwrap();
    let flight = report
        .flight
        .as_ref()
        .expect("pre-crash flight record attached despite the torn tail");
    assert!(flight.flush_seq >= 1);
    assert!(
        !flight.events.is_empty(),
        "flight record carries the commit-path spans"
    );
    assert!(
        flight
            .events
            .iter()
            .any(|e| matches!(e.kind, rda_core::EventKind::CommitAck { .. })),
        "a commit acknowledgment made it into the black box"
    );
    // Only the first recovery owns the pre-crash record; the flight
    // recorder is already journaling this incarnation.
    drop(db);

    // With the recorder disabled, reopen attaches nothing.
    let db = rda_disk::reopen_database_with(
        &dir,
        cfg_traced(),
        DurabilityMode::FsyncOnBarrier,
        rda_disk::StorageOptions {
            flight_recorder: false,
        },
    )
    .unwrap();
    let report = db.recover().unwrap();
    assert!(
        report.flight.is_none(),
        "flight_recorder: false must not load or write obs.journal"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// One single-page transaction per `i`, each acknowledged.
fn commit_stamps(db: &FileDb, ids: std::ops::Range<u64>) {
    for i in ids {
        let mut tx = db.begin();
        tx.write(i as u32, &stamp(i)).unwrap();
        tx.commit().unwrap();
    }
}

fn reopened(dir: &std::path::Path) -> FileDb {
    let db = reopen_database(dir, cfg(), DurabilityMode::FsyncOnBarrier).unwrap();
    db.recover().unwrap();
    db
}

fn wal_journal(dir: &std::path::Path) -> Vec<u8> {
    std::fs::read(dir.join("wal.journal")).unwrap()
}

/// Reopening a log with nothing torn and a dead prefix below the floor
/// reads `wal.journal` and leaves it alone: same bytes, no temporary file.
#[test]
fn clean_reopen_does_not_rewrite_the_wal_journal() {
    let dir = tmpdir("wal-untouched");
    let db = create_database(&dir, cfg(), DurabilityMode::FsyncOnBarrier).unwrap();
    commit_stamps(&db, 0..6);
    drop(db);
    let before = wal_journal(&dir);
    assert!(!before.is_empty());

    let db = reopen_database(&dir, cfg(), DurabilityMode::FsyncOnBarrier).unwrap();
    assert_eq!(wal_journal(&dir), before, "reopen only reads the journal");
    assert!(!dir.join("wal.journal.tmp").exists());
    // No loser, so recovery has nothing to append either.
    db.recover().unwrap();
    assert_eq!(wal_journal(&dir), before);
    let _ = std::fs::remove_dir_all(&dir);
}

/// A commit acknowledged *after* a reopen that found a damaged tail must
/// survive the next reopen: the tail is cut off in place, so the new
/// frames are not stranded behind it.
#[test]
fn commit_after_a_damaged_wal_tail_survives_the_next_reopen() {
    use std::io::Write as _;
    // A kill mid-append (a prefix promising more than was written), and
    // a whole frame of garbage with a well-formed frame behind it.
    let torn: &[u8] = &[0xFF, 0x00, 0x00, 0x00, 16, 2, 3];
    let corrupt: &[u8] = &[
        3, 0, 0, 0, 16, 0xEE, 0xEE, 9, 0, 0, 0, 17, 9, 0, 0, 0, 0, 0, 0, 0,
    ];
    for (tag, damage) in [("wal-torn-tail", torn), ("wal-corrupt-tail", corrupt)] {
        let dir = tmpdir(tag);
        let db = create_database(&dir, cfg(), DurabilityMode::FsyncOnBarrier).unwrap();
        commit_stamps(&db, 0..3);
        drop(db);
        let whole = wal_journal(&dir).len();
        std::fs::OpenOptions::new()
            .append(true)
            .open(dir.join("wal.journal"))
            .unwrap()
            .write_all(damage)
            .unwrap();

        let db = reopened(&dir);
        assert_eq!(wal_journal(&dir).len(), whole, "{tag}: tail cut in place");
        commit_stamps(&db, 3..5);
        drop(db);

        let db = reopened(&dir);
        for i in 0..5u64 {
            assert_eq!(committed_value(&db, i as u32), Some(i), "{tag}: txn {i}");
        }
        assert!(db.audit().is_clean());
        let _ = std::fs::remove_dir_all(&dir);
    }
}

/// The engine's geometry with the paper's 2020-byte pages: a commit logs
/// kilobytes, so the journals' floors are reached in thousands of commits.
fn big_cfg() -> DbConfig {
    DbConfig::paper_like(EngineKind::Rda, 200, 32)
}

/// `rda-disk`'s two floors (private constants of `meta.rs`), restated:
/// `wal.journal` is rewritten once its dead prefix exceeds the live rest
/// by `FLOOR`, `meta.journal` once it exceeds its snapshot by `FLOOR_META`.
const FLOOR: u64 = 8 << 20;
const FLOOR_META: u64 = 1 << 20;
/// `wal.journal`'s head slot, and how far the live log runs ahead of it
/// before it moves (private constants of `meta.rs`, restated).
const HEAD_LEN: u64 = 32;
const HEAD_STEP: u64 = 256 << 10;
/// What a rewrite leaves of an idle log: the head slot and one marker.
const REWRITTEN_IDLE: u64 = HEAD_LEN + 13;

/// A directory for the tests that commit tens of thousands of times: on
/// tmpfs where there is one (as the benchmark does), so that their time
/// goes into the engine and not into a disk's fsyncs.
fn long_run_dir(tag: &str) -> PathBuf {
    let shm = std::path::Path::new("/dev/shm");
    if !shm.is_dir() {
        return tmpdir(tag);
    }
    let dir = shm.join(format!("rda-disk-e2e-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn file_len(dir: &std::path::Path, name: &str) -> u64 {
    std::fs::metadata(dir.join(name)).unwrap().len()
}

/// An exported counter or gauge, by name.
fn metric(db: &FileDb, name: &str) -> u64 {
    db.metrics()
        .counter_values()
        .into_iter()
        .find_map(|(n, value)| (n == name).then_some(value))
        .unwrap_or_else(|| panic!("{name} is registered"))
}

/// Transaction `i` stamps four pages in four groups (no page of
/// 160..200, which the long transaction below owns).
fn commit_quad(db: &FileDb, i: u64) {
    let mut tx = db.begin();
    for k in 0..4u64 {
        tx.write(((i + 40 * k) % 160) as u32, &stamp(i)).unwrap();
    }
    tx.commit().unwrap();
}

/// Every commit moves the log's low-water mark and appends a marker; the
/// sink drops the dead prefix only once it exceeds what would remain by
/// the floor; a reopen finds nothing left to rewrite.
#[test]
fn wal_journal_is_rewritten_only_past_the_floor() {
    let dir = long_run_dir("wal-floor");
    let db = create_database(&dir, big_cfg(), DurabilityMode::FsyncOnBarrier).unwrap();
    // Below the floor: everything but the slot and the last marker is
    // dead, and stays.
    let mut i = 0;
    let mut peak = 0;
    while metric(&db, "wal_journal_rewrites_total") == 0 {
        peak = file_len(&dir, "wal.journal");
        assert_eq!(metric(&db, "wal_journal_bytes"), peak);
        assert!(
            peak < FLOOR + (64 << 10),
            "commit {i}: {peak} and no rewrite"
        );
        commit_quad(&db, i);
        i += 1;
        assert_eq!(metric(&db, "wal_retained_bytes"), 0, "idle FORCE log");
    }
    // The commit that crossed it left its slot and one marker behind.
    assert!(peak + (64 << 10) >= FLOOR, "rewritten early, at {peak}");
    assert_eq!(file_len(&dir, "wal.journal"), REWRITTEN_IDLE);
    assert_eq!(metric(&db, "wal_journal_bytes"), REWRITTEN_IDLE);
    assert_eq!(metric(&db, "wal_journal_rewrite_failures_total"), 0);
    assert!(!dir.join("wal.journal.tmp").exists(), "renamed into place");
    // The rewritten journal carries on: numbering, appends, reopen.
    commit_quad(&db, i);
    drop(db);
    let before = wal_journal(&dir);
    let db = reopen_database(&dir, big_cfg(), DurabilityMode::FsyncOnBarrier).unwrap();
    db.recover().unwrap();
    assert_eq!(wal_journal(&dir), before, "nothing left for the reopen");
    commit_quad(&db, i + 1);
    drop(db);
    let db = reopen_database(&dir, big_cfg(), DurabilityMode::FsyncOnBarrier).unwrap();
    db.recover().unwrap();
    assert_eq!(committed_value(&db, ((i + 1) % 160) as u32), Some(i + 1));
    assert_eq!(committed_value(&db, ((i + 40) % 160) as u32), Some(i));
    assert!(db.audit().is_clean());
    let _ = std::fs::remove_dir_all(&dir);
}

/// 20 000 commits and not one `truncate_log()` call: both journals stay
/// within their bound at every thousandth commit, a reopen decodes as
/// little log after 20 000 commits as after 1 000, and the database the
/// journals describe is whole. For two thousand of the commits a
/// transaction with stolen pages stays open: the mark waits at its BOT,
/// the log behind it is live, and the bound follows it.
#[test]
fn journals_stay_bounded_and_reopen_is_independent_of_run_length() {
    let dir = long_run_dir("bounded");
    let cfg = big_cfg();
    let groups = u64::from(cfg.array.groups);
    // One commit's frames in either journal, generously.
    let slack = 64 << 10;
    let check = |db: &FileDb, i: u64| {
        let live = metric(db, "wal_retained_bytes");
        let wal = file_len(&dir, "wal.journal");
        assert!(
            wal <= 2 * live + FLOOR + slack,
            "commit {i}: wal.journal {wal} with {live} live"
        );
        let meta = file_len(&dir, "meta.journal");
        assert_eq!(metric(db, "meta_journal_bytes"), meta);
        // The snapshot: a header per group, a few links, one intent.
        assert!(
            meta <= groups * 27 + slack + FLOOR_META,
            "commit {i}: meta.journal {meta}"
        );
    };
    // What a reopen decodes: the log above the mark, and who is in it.
    let reopen = |commits: u64| {
        let db = reopen_database(&dir, cfg.clone(), DurabilityMode::FsyncOnBarrier).unwrap();
        let decoded = metric(&db, "wal_retained_bytes");
        let report = db.recover().unwrap();
        assert!(
            decoded <= slack && report.winners.len() <= 1 && report.losers.is_empty(),
            "after {commits} commits a reopen decoded {decoded} bytes of log: {report:?}"
        );
        db
    };

    let db = create_database(&dir, cfg.clone(), DurabilityMode::FsyncOnBarrier).unwrap();
    for i in 0..1_000 {
        commit_quad(&db, i);
    }
    check(&db, 1_000);
    drop(db);
    let db = reopen(1_000);

    let mut long = None;
    for i in 1_000..20_000u64 {
        if i == 5_000 {
            // More dirty pages than the pool has frames: some are stolen,
            // so the BOT is in the log and the mark may not pass it.
            let mut tx = db.begin();
            for page in 160..200u32 {
                tx.write(page, &stamp(u64::from(page))).unwrap();
            }
            long = Some(tx);
        }
        if i == 7_000 {
            let pinned = metric(&db, "wal_retained_bytes");
            assert!(pinned > FLOOR, "2 000 commits of log are live: {pinned}");
            long.take().expect("opened at 5 000").commit().unwrap();
        }
        commit_quad(&db, i);
        if (i + 1) % 1_000 == 0 {
            check(&db, i + 1);
        }
    }
    assert_eq!(metric(&db, "wal_retained_bytes"), 0);
    assert!(metric(&db, "wal_journal_rewrites_total") >= 10);
    assert!(metric(&db, "meta_journal_rewrites_total") >= 3);
    assert_eq!(metric(&db, "wal_journal_rewrite_failures_total"), 0);
    assert_eq!(metric(&db, "meta_journal_rewrite_failures_total"), 0);
    drop(db);

    let db = reopen(20_000);
    let mut last = [0u64; 160];
    for i in 19_840..20_000u64 {
        for k in 0..4 {
            last[((i + 40 * k) % 160) as usize] = i;
        }
    }
    for (page, i) in last.into_iter().enumerate() {
        assert_eq!(committed_value(&db, page as u32), Some(i), "page {page}");
    }
    for page in 160..200u32 {
        assert_eq!(committed_value(&db, page), Some(u64::from(page)));
    }
    assert_eq!(db.verify().unwrap(), Vec::<String>::new());
    let audit = db.audit();
    assert!(audit.is_clean(), "audit: {:?}", audit.violations);
    let _ = std::fs::remove_dir_all(&dir);
}

/// A directory formatted by an earlier on-disk format (a `wal.journal`
/// without a head slot: format 3; checksums in `.sum` files beside
/// back-to-back images: format 2, and format 1 with another hash) is
/// refused by name, not read back as a database of wrong-sized files,
/// torn blocks or a misread log.
#[test]
fn directory_of_another_format_is_refused_by_name() {
    let dir = tmpdir("old-format");
    let db = create_database(&dir, cfg(), DurabilityMode::FsyncOnBarrier).unwrap();
    commit_stamps(&db, 0..2);
    drop(db);
    let manifest = dir.join("manifest.txt");
    let text = std::fs::read_to_string(&manifest).unwrap();
    assert!(text.starts_with("rda-disk-format=4\n"), "{text}");
    for old in ["format=3", "format=2", "format=1"] {
        std::fs::write(&manifest, text.replacen("format=4", old, 1)).unwrap();
        match reopen_database(&dir, cfg(), DurabilityMode::FsyncOnBarrier) {
            Err(StorageError::Manifest(msg)) => {
                assert!(msg.contains(&format!("\"rda-disk-{old}\"")), "{msg}");
                assert!(msg.contains("rda-disk-format=4 only"), "{msg}");
            }
            Err(other) => panic!("{old} refused for the wrong reason: {other}"),
            Ok(_) => panic!("a {old} directory was opened"),
        }
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// A reopen says what it read and where its time went: every gauge is
/// set, the steps fit inside the call, and after thousands of commits of
/// dead log below the floor the reopen reads one head step of it, not the
/// journal.
#[test]
fn reopen_gauges_account_for_what_reopen_read_and_spent() {
    let dir = long_run_dir("reopen-gauges");
    let cfg = big_cfg().trace(256).spans(true);
    let db = create_database(&dir, cfg.clone(), DurabilityMode::FsyncOnBarrier).unwrap();
    let mut i = 0;
    while file_len(&dir, "wal.journal") < 4 << 20 {
        commit_quad(&db, i);
        i += 1;
    }
    assert_eq!(
        metric(&db, "wal_journal_rewrites_total"),
        0,
        "below the floor"
    );
    drop(db);
    let journal = file_len(&dir, "wal.journal");

    let t = std::time::Instant::now();
    let db = reopen_database(&dir, cfg, DurabilityMode::FsyncOnBarrier).unwrap();
    let wall = u64::try_from(t.elapsed().as_nanos()).unwrap();
    let steps = [
        "reopen_meta_ns",
        "reopen_wal_ns",
        "reopen_disks_ns",
        "reopen_flight_ns",
    ];
    let mut spent = 0;
    for gauge in steps
        .into_iter()
        .chain(["wal_reopen_read_bytes", "obs_reopen_read_bytes"])
    {
        assert!(metric(&db, gauge) > 0, "{gauge} is set");
    }
    for step in steps {
        spent += metric(&db, step);
    }
    assert!(spent <= wall, "steps {spent} ns inside a {wall} ns reopen");
    let read = metric(&db, "wal_reopen_read_bytes");
    // One commit's frames in the journal, generously.
    let slack = 64 << 10;
    assert!(
        read <= HEAD_LEN + HEAD_STEP + slack,
        "read {read} of a {journal}-byte wal.journal"
    );
    assert!(metric(&db, "obs_reopen_read_bytes") <= 256 << 10);
    db.recover().unwrap();
    commit_quad(&db, i);
    assert!(db.audit().is_clean());
    drop(db);
    let _ = std::fs::remove_dir_all(&dir);
}

/// File names in `dir`, sorted.
fn listing(dir: &std::path::Path) -> Vec<String> {
    let mut names: Vec<String> = std::fs::read_dir(dir)
        .unwrap()
        .map(|e| e.unwrap().file_name().into_string().unwrap())
        .collect();
    names.sort();
    names
}

#[test]
fn a_database_directory_holds_one_data_file_per_disk_and_no_sidecar() {
    let dir = tmpdir("listing");
    let db = create_database(&dir, cfg(), DurabilityMode::FsyncOnBarrier).unwrap();
    commit_stamps(&db, 0..4);
    // Exactly these: no `<n>.sum` beside the data files, no `.tmp` left
    // over from writing the manifest.
    let disks = rda_array::Geometry::new(&cfg().array).disks();
    let mut expect: Vec<String> = (0..disks).map(|d| format!("{d}.data")).collect();
    expect.extend(["manifest.txt", "meta.journal", "obs.journal", "wal.journal"].map(String::from));
    expect.sort();
    assert_eq!(listing(&dir), expect);
    let _ = std::fs::remove_dir_all(&dir);
}

/// `create_database` writes the manifest last, so a create killed at any
/// point leaves a directory without one, and such a directory is formatted
/// again — where it used to be refused by create ("already holds a
/// database") and unopenable by reopen (a missing file).
#[test]
fn a_create_killed_before_its_manifest_is_simply_repeated() {
    // Everything but the manifest: killed just before the rename, with
    // the temporary manifest written or not.
    for with_tmp in [false, true] {
        let dir = tmpdir(&format!("create-killed-late-{with_tmp}"));
        let db = create_database(&dir, cfg(), DurabilityMode::FsyncOnBarrier).unwrap();
        commit_stamps(&db, 0..3);
        drop(db);
        let manifest = dir.join("manifest.txt");
        if with_tmp {
            std::fs::rename(&manifest, dir.join("manifest.txt.tmp")).unwrap();
        } else {
            std::fs::remove_file(&manifest).unwrap();
        }
        assert!(reopen_database(&dir, cfg(), DurabilityMode::FsyncOnBarrier).is_err());
        let db = create_database(&dir, cfg(), DurabilityMode::FsyncOnBarrier).unwrap();
        assert_eq!(committed_value(&db, 0), None, "formatted, not reopened");
        commit_stamps(&db, 5..7);
        drop(db);
        assert!(!dir.join("manifest.txt.tmp").exists());
        let db = reopened(&dir);
        assert_eq!(committed_value(&db, 5), Some(5));
        assert!(db.audit().is_clean());
        let _ = std::fs::remove_dir_all(&dir);
    }

    // Only a half-written temporary manifest: killed right at the start of
    // the manifest step of a directory whose other files were lost, or a
    // stray file from anywhere.
    let dir = tmpdir("create-killed-tmp-only");
    std::fs::create_dir_all(&dir).unwrap();
    std::fs::write(dir.join("manifest.txt.tmp"), "rda-disk-form").unwrap();
    let db = create_database(&dir, cfg(), DurabilityMode::FsyncOnBarrier).unwrap();
    commit_stamps(&db, 0..2);
    drop(db);
    assert!(!dir.join("manifest.txt.tmp").exists());
    assert_eq!(committed_value(&reopened(&dir), 1), Some(1));
    let _ = std::fs::remove_dir_all(&dir);

    // Journals and some of the disks, no manifest: killed mid-create.
    let dir = tmpdir("create-killed-early");
    drop(create_database(&dir, cfg(), DurabilityMode::FsyncOnBarrier).unwrap());
    std::fs::remove_file(dir.join("manifest.txt")).unwrap();
    let disks = rda_array::Geometry::new(&cfg().array).disks();
    for d in disks / 2..disks {
        std::fs::remove_file(dir.join(format!("{d}.data"))).unwrap();
    }
    let db = create_database(&dir, cfg(), DurabilityMode::FsyncOnBarrier).unwrap();
    commit_stamps(&db, 0..2);
    drop(db);
    assert_eq!(committed_value(&reopened(&dir), 0), Some(0));
    let _ = std::fs::remove_dir_all(&dir);
}
