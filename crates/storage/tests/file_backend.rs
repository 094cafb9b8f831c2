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

/// Reopening a log with nothing dead and nothing torn reads `wal.journal`
/// and leaves it alone: same bytes, no temporary file.
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

/// `truncate_log()` appends a marker, and the sink then drops the dead
/// prefix there and then if that at least halves the file; a reopen finds
/// nothing left to rewrite.
#[test]
fn wal_journal_is_rewritten_only_when_mostly_dead() {
    // Mostly live at the reopen: one commit truncated away (and gone from
    // the file at once), six retained behind the 13-byte marker.
    let dir = tmpdir("wal-mostly-live");
    let db = create_database(&dir, cfg(), DurabilityMode::FsyncOnBarrier).unwrap();
    commit_stamps(&db, 0..1);
    assert!(db.truncate_log().unwrap() > 0);
    commit_stamps(&db, 1..7);
    drop(db);
    let before = wal_journal(&dir);
    let db = reopened(&dir);
    assert_eq!(wal_journal(&dir), before, "dead prefix too small to pay");
    drop(db);
    let _ = std::fs::remove_dir_all(&dir);

    // Mostly dead at the truncation: six commits' records die and leave
    // the file while the database runs.
    let dir = tmpdir("wal-mostly-dead");
    let db = create_database(&dir, cfg(), DurabilityMode::FsyncOnBarrier).unwrap();
    commit_stamps(&db, 0..6);
    let before = wal_journal(&dir);
    assert!(db.truncate_log().unwrap() > 0);
    let after = wal_journal(&dir);
    assert!(
        2 * after.len() <= before.len(),
        "rewritten to marker + survivors: {} -> {}",
        before.len(),
        after.len()
    );
    assert!(!dir.join("wal.journal.tmp").exists(), "renamed into place");
    // The rewritten journal carries on: numbering, appends, reopen.
    commit_stamps(&db, 6..7);
    drop(db);
    let before = wal_journal(&dir);
    let db = reopened(&dir);
    assert_eq!(wal_journal(&dir), before, "nothing left for the reopen");
    commit_stamps(&db, 7..9);
    drop(db);
    let db = reopened(&dir);
    for i in 0..9u64 {
        assert_eq!(committed_value(&db, i as u32), Some(i), "txn {i}");
    }
    assert!(db.audit().is_clean());
    let _ = std::fs::remove_dir_all(&dir);
}

/// A database that truncates its log every 512 commits keeps a journal of
/// at most twice (what it retains + one interval of frames), whatever the
/// number of intervals, and recovers from it. During the second interval a
/// transaction with stolen pages stays open, so that truncation must keep
/// everything behind its BOT.
#[test]
fn wal_journal_stays_bounded_across_truncations() {
    const INTERVAL: u64 = 512;
    let dir = tmpdir("wal-bounded");
    let db = create_database(&dir, cfg(), DurabilityMode::FsyncOnBarrier).unwrap();
    let wal_len = || std::fs::metadata(dir.join("wal.journal")).unwrap().len();
    // Committers stamp pages 0..16; the long transaction owns 16..28.
    let commit_interval = |round: u64| {
        for i in round * INTERVAL..(round + 1) * INTERVAL {
            let mut tx = db.begin();
            tx.write((i % 16) as u32, &stamp(i)).unwrap();
            tx.commit().unwrap();
        }
    };

    commit_interval(0);
    let interval_bytes = wal_len();
    // Truncate, holding the journal to the bound at that moment: twice
    // what the previous truncation retained plus one interval of frames.
    let mut retained = 0;
    let mut truncate = || {
        let peak = wal_len();
        assert!(
            peak <= 2 * (retained + interval_bytes),
            "journal {peak} above twice (retained {retained} + interval {interval_bytes})"
        );
        db.truncate_log().unwrap();
        assert!(!dir.join("wal.journal.tmp").exists());
        retained = wal_len();
        (peak, retained)
    };
    let (_, left) = truncate();
    assert!(left < interval_bytes / 100, "nothing retained: {left}");

    // More dirty pages than the pool has frames: some are stolen, so the
    // BOT is in the log and the next truncation may not pass it.
    let mut long = db.begin();
    for page in 16..28u32 {
        long.write(page, &stamp(u64::from(page))).unwrap();
    }
    commit_interval(1);
    let (peak, left) = truncate();
    assert!(
        left >= interval_bytes && left <= peak + 13,
        "the open transaction pins the interval behind its BOT: {peak} -> {left}"
    );
    long.commit().unwrap();

    commit_interval(2);
    let (_, left) = truncate();
    assert!(left < interval_bytes / 100, "all of it reclaimed: {left}");
    commit_interval(3);
    assert!(wal_len() <= interval_bytes + interval_bytes / 100);
    drop(db);

    let db = reopened(&dir);
    for page in 0..16u64 {
        let last = 4 * INTERVAL - 16 + page;
        assert_eq!(committed_value(&db, page as u32), Some(last), "page {page}");
    }
    for page in 16..28u32 {
        assert_eq!(committed_value(&db, page), Some(u64::from(page)));
    }
    let audit = db.audit();
    assert!(audit.is_clean(), "audit: {:?}", audit.violations);
    let _ = std::fs::remove_dir_all(&dir);
}

/// A directory formatted by an earlier on-disk format (checksums in
/// `.sum` files beside back-to-back images: format 2, and format 1 with
/// another hash) is refused by name, not read back as a database of
/// wrong-sized files or torn blocks.
#[test]
fn directory_of_another_format_is_refused_by_name() {
    let dir = tmpdir("old-format");
    let db = create_database(&dir, cfg(), DurabilityMode::FsyncOnBarrier).unwrap();
    commit_stamps(&db, 0..2);
    drop(db);
    let manifest = dir.join("manifest.txt");
    let text = std::fs::read_to_string(&manifest).unwrap();
    assert!(text.starts_with("rda-disk-format=3\n"), "{text}");
    for old in ["format=2", "format=1"] {
        std::fs::write(&manifest, text.replacen("format=3", old, 1)).unwrap();
        match reopen_database(&dir, cfg(), DurabilityMode::FsyncOnBarrier) {
            Err(StorageError::Manifest(msg)) => {
                assert!(msg.contains(&format!("\"rda-disk-{old}\"")), "{msg}");
                assert!(msg.contains("rda-disk-format=3 only"), "{msg}");
            }
            Err(other) => panic!("{old} refused for the wrong reason: {other}"),
            Ok(_) => panic!("a {old} directory was opened"),
        }
    }
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
