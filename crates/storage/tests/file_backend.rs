//! End-to-end tests of the file-backed backend: the full RDA engine over
//! `FileDisk`, including clean reopen, restart recovery, and a seeded
//! torn-write fault schedule replayed through the same `FaultHook` seam
//! the simulated backend uses.

use rda_array::{
    ArrayError, BlockDevice, DiskId, FaultInjector, FaultKind, FaultPlan, HookState, Page,
};
use rda_core::{DbConfig, EngineKind};
use rda_disk::{create_database, reopen_database, DurabilityMode, FileDb, FileDisk, StorageError};
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
            .map(|s| s.count(FaultKind::TornWrite))
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

/// Reopening a log with nothing torn reads `wal.journal` and leaves it
/// alone: same bytes.
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
    // No loser, so recovery has nothing to append either.
    db.recover().unwrap();
    assert_eq!(wal_journal(&dir), before);
    let _ = std::fs::remove_dir_all(&dir);
}

/// A commit acknowledged *after* a reopen that found a damaged tail must
/// survive the next reopen: the new frames go where the log ends, over
/// the damage, not behind it.
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

        let damaged = wal_journal(&dir);
        let db = reopened(&dir);
        assert_eq!(
            wal_journal(&dir),
            damaged,
            "{tag}: the reopen wrote nothing"
        );
        commit_stamps(&db, 3..5);
        assert!(wal_journal(&dir).len() > whole);
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
/// kilobytes, so `wal.journal` runs a lap in tens of commits.
fn big_cfg() -> DbConfig {
    DbConfig::paper_like(EngineKind::Rda, 200, 32)
}

/// How far into `wal.journal` a lap runs before the next force starts a
/// new one at the front (a private constant of `meta.rs`, restated).
const LAP: u64 = 256 << 10;
/// Bytes of each of `obs.journal`'s two slots (private to `flight.rs`).
const SLOT: u64 = 128 << 10;

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

/// The benchmark's `file-commit` transaction — eight pages on eight
/// groups, each stolen onto its group's parity at the FORCE flush — pays
/// `meta.journal` nothing: each claim rides its working twin's write, and
/// the commit flips the twins in memory (format 5 journaled both, 9
/// synced writes per commit). The barrier behind each claim fsyncs its
/// twin's disk instead: 10.4 disk fsyncs per commit here, where format 5
/// paid 6.0 beside its 9 journal fsyncs — fewer fsyncs in all.
#[test]
fn eight_page_commit_pays_no_meta_journal_writes_or_fsyncs() {
    const COMMITS: u64 = 10;
    let dir = tmpdir("meta-per-commit");
    let geo = rda_array::Geometry::new(&cfg().array);
    assert_eq!(geo.groups(), 8);
    let db = create_database(&dir, cfg(), DurabilityMode::FsyncOnBarrier).unwrap();
    let tallies = |db: &FileDb| {
        (
            metric(db, "meta_journal_appends_total"),
            metric(db, "meta_journal_fsyncs_total"),
            metric(db, "disk_fsyncs"),
        )
    };
    let before = tallies(&db);
    for i in 0..COMMITS {
        let mut tx = db.begin();
        for g in 0..8 {
            let members = geo.members(rda_array::GroupId(g));
            let page = members[i as usize % members.len()];
            tx.write(page.0, &stamp(i)).unwrap();
        }
        tx.commit().unwrap();
    }
    let after = tallies(&db);
    assert_eq!((after.0 - before.0, after.1 - before.1), (0, 0));
    let disk_fsyncs = after.2 - before.2;
    println!("disk fsyncs per commit: {}", disk_fsyncs as f64 / 10.0);
    assert!(disk_fsyncs < (6 + 9) * COMMITS, "{disk_fsyncs}");
    assert_eq!(metric(&db, "engine_steals_parity_total"), 8 * COMMITS);
    drop(db);
    let _ = std::fs::remove_dir_all(&dir);
}

/// The WAL baseline over files, the comparison the paper's model makes:
/// the same durable path with `EngineKind::Wal`, killed without a
/// shutdown and reopened. Every acknowledged stamp reads back, and the
/// database verifies and audits clean.
#[test]
fn the_wal_baseline_recovers_acked_commits_on_files() {
    let dir = tmpdir("wal-baseline");
    let cfg = DbConfig::small_test(EngineKind::Wal);
    let db = create_database(&dir, cfg.clone(), DurabilityMode::FsyncOnBarrier).unwrap();
    commit_stamps(&db, 0..12);
    drop(db);
    let db = reopen_database(&dir, cfg, DurabilityMode::FsyncOnBarrier).unwrap();
    db.recover().unwrap();
    for i in 0..12u64 {
        assert_eq!(committed_value(&db, i as u32), Some(i), "page {i}");
    }
    assert_eq!(db.verify().unwrap(), Vec::<String>::new());
    let audit = db.audit();
    assert!(audit.is_clean(), "audit: {:?}", audit.violations);
    drop(db);
    let _ = std::fs::remove_dir_all(&dir);
}

/// Restart replays `meta.journal`'s staged intent verbatim, so an intent
/// whose read-modify-write finished must be retired before a later write
/// that stages none. T1's second page in one group cannot ride the
/// parity (the group is dirty for its first), so it is logged and
/// written through an intent. T2 then overwrites that page by a
/// group-dirtying steal, which stages no intent. A restart must find
/// T2's image, not put the intent's back.
#[test]
fn a_finished_intent_is_not_replayed_over_a_later_commit() {
    let dir = tmpdir("stale-intent");
    let geo = rda_array::Geometry::new(&cfg().array);
    let members = geo.members(rda_array::GroupId(0));
    let (a, b) = (members[0].0, members[1].0);
    let db = create_database(&dir, cfg(), DurabilityMode::FsyncOnBarrier).unwrap();
    let mut tx = db.begin();
    tx.write(a, &stamp(1)).unwrap();
    tx.write(b, &stamp(1)).unwrap();
    tx.commit().unwrap();
    assert_eq!(metric(&db, "engine_steals_logged_total"), 1);
    let mut tx = db.begin();
    tx.write(b, &stamp(2)).unwrap();
    tx.commit().unwrap();
    drop(db);
    let db = reopened(&dir);
    assert_eq!(committed_value(&db, b), Some(2));
    let audit = db.audit();
    assert!(audit.is_clean(), "audit: {:?}", audit.violations);
    drop(db);
    let _ = std::fs::remove_dir_all(&dir);
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

/// The benchmark's `file-commit` transaction, eight pages on eight
/// groups, run for more than five laps of `wal.journal`: the engine moves
/// the mark at every commit, so nothing is live at a force, and each lap
/// starts at the front. Both journals stay within their bounds at every
/// commit (`wal.journal`: a lap and one commit; `obs.journal`: two
/// slots), and a reopen reads no more than that and finds the last
/// commit.
#[test]
fn journals_run_in_place_over_laps_of_eight_page_commits() {
    let dir = long_run_dir("wal-laps");
    let cfg = big_cfg().trace(256).spans(true);
    let geo = rda_array::Geometry::new(&cfg.array);
    let db = create_database(&dir, cfg.clone(), DurabilityMode::FsyncOnBarrier).unwrap();
    // One commit's frames in the journal, generously.
    let one_commit = 64 << 10;
    let mut i = 0;
    while metric(&db, "wal_journal_laps_total") < 6 {
        let mut tx = db.begin();
        for g in 0..8 {
            let members = geo.members(rda_array::GroupId(g));
            tx.write(members[i as usize % members.len()].0, &stamp(i))
                .unwrap();
        }
        tx.commit().unwrap();
        i += 1;
        let wal = file_len(&dir, "wal.journal");
        assert_eq!(metric(&db, "wal_journal_bytes"), wal);
        assert_eq!(metric(&db, "wal_retained_bytes"), 0, "idle FORCE log");
        assert!(wal <= LAP + one_commit, "commit {i}: wal.journal {wal}");
        let obs = file_len(&dir, "obs.journal");
        assert!(obs <= 2 * SLOT, "commit {i}: obs.journal {obs}");
    }
    assert!(i > 5 * LAP / one_commit, "{i} commits");
    drop(db);
    let before = wal_journal(&dir);
    let db = reopen_database(&dir, cfg, DurabilityMode::FsyncOnBarrier).unwrap();
    assert!(metric(&db, "wal_reopen_read_bytes") <= LAP + one_commit);
    assert!(metric(&db, "obs_reopen_read_bytes") <= 2 * SLOT);
    db.recover().unwrap();
    assert_eq!(wal_journal(&dir), before, "the reopen wrote nothing");
    let last = geo.members(rda_array::GroupId(0));
    let page = last[(i - 1) as usize % last.len()].0;
    assert_eq!(committed_value(&db, page), Some(i - 1));
    assert!(db.audit().is_clean());
    let _ = std::fs::remove_dir_all(&dir);
}

/// 20 000 commits and not one `truncate_log()` call: both journals stay
/// within their bound at every thousandth commit, a reopen decodes as
/// little log after 20 000 commits as after 1 000, and the database the
/// journals describe is whole. For two thousand of the commits a
/// transaction with stolen pages stays open: the mark waits at its BOT,
/// the log behind it is live, and `wal.journal` keeps its lap going and
/// grows by it; the first lap after the pin cuts it back, and the bound
/// follows the live log down.
#[test]
fn journals_stay_bounded_and_reopen_is_independent_of_run_length() {
    let dir = long_run_dir("bounded");
    let cfg = big_cfg();
    // One commit's frames in either journal, generously.
    let slack = 64 << 10;
    let check = |db: &FileDb, i: u64| {
        let live = metric(db, "wal_retained_bytes");
        let wal = file_len(&dir, "wal.journal");
        assert!(
            wal <= LAP + 2 * live + slack,
            "commit {i}: wal.journal {wal} with {live} live"
        );
        let meta = file_len(&dir, "meta.journal");
        assert_eq!(metric(db, "meta_journal_bytes"), meta);
        // One slot: at most one intent.
        assert!(meta <= slack, "commit {i}: meta.journal {meta}");
    };
    // What a reopen decodes: the log above the mark, and who is in it.
    let reopen = |commits: u64| {
        let db = reopen_database(&dir, cfg.clone(), DurabilityMode::FsyncOnBarrier).unwrap();
        let read = metric(&db, "wal_reopen_read_bytes");
        assert!(
            read <= LAP + slack,
            "after {commits} commits a reopen read {read} bytes"
        );
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
            assert!(pinned > 8 << 20, "2 000 commits of log are live: {pinned}");
            long.take().expect("opened at 5 000").commit().unwrap();
        }
        commit_quad(&db, i);
        if (i + 1) % 1_000 == 0 {
            check(&db, i + 1);
        }
    }
    assert_eq!(metric(&db, "wal_retained_bytes"), 0);
    assert!(metric(&db, "wal_journal_laps_total") >= 100);
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

/// A directory formatted by an earlier on-disk format (`wal.journal`
/// frames without LSNs or sums: format 7; a `meta.journal`
/// of frames rather than one slot: format 6; twin headers in
/// `meta.journal` rather than in their blocks' slots: format 5; twin
/// headers without riders beside steal-chain frames: format 4;
/// a `wal.journal` without a head slot: format 3; checksums in `.sum`
/// files beside back-to-back images: format 2, and format 1 with another
/// hash) is refused by name, not read back as a database of wrong-sized
/// files, torn blocks, a misread log or misread headers.
#[test]
fn directory_of_another_format_is_refused_by_name() {
    let dir = tmpdir("old-format");
    let db = create_database(&dir, cfg(), DurabilityMode::FsyncOnBarrier).unwrap();
    commit_stamps(&db, 0..2);
    drop(db);
    let manifest = dir.join("manifest.txt");
    let text = std::fs::read_to_string(&manifest).unwrap();
    assert!(text.starts_with("rda-disk-format=8\n"), "{text}");
    for old in [
        "format=7", "format=6", "format=5", "format=4", "format=3", "format=2", "format=1",
    ] {
        std::fs::write(&manifest, text.replacen("format=8", old, 1)).unwrap();
        match reopen_database(&dir, cfg(), DurabilityMode::FsyncOnBarrier) {
            Err(StorageError::Manifest(msg)) => {
                assert!(msg.contains(&format!("\"rda-disk-{old}\"")), "{msg}");
                assert!(msg.contains("rda-disk-format=8 only"), "{msg}");
            }
            Err(other) => panic!("{old} refused for the wrong reason: {other}"),
            Ok(_) => panic!("a {old} directory was opened"),
        }
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// A reopen says what it read and where its time went: every gauge is
/// set, the steps fit inside the call, and after several laps of
/// `wal.journal` the reopen reads at most a lap of it, however long the
/// database ran.
#[test]
fn reopen_gauges_account_for_what_reopen_read_and_spent() {
    let dir = long_run_dir("reopen-gauges");
    let cfg = big_cfg().trace(256).spans(true);
    let db = create_database(&dir, cfg.clone(), DurabilityMode::FsyncOnBarrier).unwrap();
    let mut i = 0;
    while metric(&db, "wal_journal_laps_total") < 4 {
        commit_quad(&db, i);
        i += 1;
    }
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
        read <= LAP + slack,
        "read {read} of a {journal}-byte wal.journal"
    );
    assert!(metric(&db, "obs_reopen_read_bytes") <= 2 * SLOT);
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
