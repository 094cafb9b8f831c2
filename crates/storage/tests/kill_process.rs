//! The literal crash test: a child process runs transactions over a
//! file-backed database and is SIGKILLed mid-work; the parent reopens
//! whatever the files survived with, runs restart recovery, and checks
//! the committed-data oracle plus a clean parity audit.
//!
//! The child is this very test binary re-executed with
//! `RDA_KILL_CHILD_DIR` set: libtest runs only the `child_workload`
//! "test", which in child mode loops forever (until killed) committing
//! transactions and acknowledging each one to `acks.log` *after* commit
//! returns. The parent's oracle: every acknowledged transaction must be
//! readable after recovery, all pages of one transaction must agree (the
//! child writes its stamp to three pages per transaction), and the
//! recovered stamp may exceed the last ack by at most the one commit
//! whose acknowledgment the kill raced.

use rda_core::{DbConfig, EngineKind, EventKind, GroupCommit};
use rda_disk::{create_database, reopen_database, DurabilityMode, FileDb};
use std::io::Write;
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};
use std::time::{Duration, Instant};

const CHILD_ENV: &str = "RDA_KILL_CHILD_DIR";
const GC_CHILD_ENV: &str = "RDA_KILL_GC_DIR";
const TRUNC_CHILD_ENV: &str = "RDA_KILL_TRUNC_DIR";
const LAPS_CHILD_ENV: &str = "RDA_KILL_LAPS_DIR";
/// The truncating child calls `truncate_log()` after every this many
/// commits. The engine has moved the mark at every commit already, so
/// the call finds nothing to drop; the child keeps making it, as an
/// application written before the engine did that would.
const TRUNCATE_EVERY: u64 = 64;
/// Commits after which the truncating child has called `truncate_log()`
/// twice. A [`big_cfg`] child starts a new lap of `wal.journal` every
/// ≈ 31 commits (8.3 KB of log per commit against a 256 KiB lap), so by
/// then it has started four. `meta.journal` is one slot overwritten in
/// place.
const TRUNCATED_TWICE: u64 = 2 * TRUNCATE_EVERY + 2;
/// Commits after which a [`big_cfg`] child has started three new laps.
const SEVERAL_LAPS: u64 = 100;
/// Commits after which a [`cfg`] child (64-byte pages: ≈ 0.4 KB of log per
/// commit) has left tens of kilobytes of dead log in its first lap, some
/// hundreds of commits before the second starts.
const IN_FIRST_LAP: u64 = 100;
/// `wal.journal`'s head slot, and how far into the file a lap runs
/// (private constants of `rda-disk`, restated).
const HEAD_LEN: u64 = 32;
const LAP: u64 = 256 << 10;
/// One commit's frames in `wal.journal`, generously: what a reopen may
/// read beyond the last truncation.
const ONE_COMMIT: u64 = 64 << 10;
/// The three pages every transaction stamps together (atomicity witness).
const PAGES: [u32; 3] = [2, 9, 17];
/// Concurrent-load child: writer thread `t` stamps its own page triple,
/// disjoint from every other thread's (no lock conflicts; the only
/// shared path is the group-commit gate).
const GC_THREADS: usize = 4;
const fn gc_pages(t: usize) -> [u32; 3] {
    [t as u32, 8 + t as u32, 16 + t as u32]
}

fn cfg() -> DbConfig {
    // Tracing + commit-path spans on, so the flight recorder's black box
    // has events to persist and the parent can ask what the child was
    // doing when it died.
    DbConfig::small_test(EngineKind::Rda)
        .trace(1024)
        .spans(true)
}

/// The same engine with the paper's 2020-byte pages and ten pages to a
/// group: a commit of [`PAGES`] logs three after-images and (pages 2 and
/// 9 share group 0, so the second steal is logged) a before-image, and
/// stages one write intent. `wal.journal` starts a new lap every few
/// milliseconds, where the 64-byte pages of [`cfg`] take hundreds of
/// commits to fill one.
fn big_cfg() -> DbConfig {
    DbConfig::paper_like(EngineKind::Rda, 200, 32)
        .trace(1024)
        .spans(true)
}

fn stamp(i: u64) -> Vec<u8> {
    let mut v = i.to_le_bytes().to_vec();
    v.push(0xC3);
    v
}

fn stamped_value(db: &FileDb, page: u32) -> Option<u64> {
    let bytes = db.read_page(page).expect("page readable");
    if bytes.iter().all(|b| *b == 0) {
        return None;
    }
    Some(u64::from_le_bytes(bytes[..8].try_into().expect("stamp")))
}

/// Child mode: commit stamps forever, acknowledging each commit to
/// `acks.log` only after `commit()` has returned, and truncating the log
/// after every `truncate_every` commits if given. Killed externally.
fn run_child(dir: &Path, cfg: DbConfig, truncate_every: Option<u64>) -> ! {
    let db = create_database(dir, cfg, DurabilityMode::FsyncOnBarrier).expect("child create");
    let mut acks = std::fs::File::create(dir.join("acks.log")).expect("acks file");
    let mut i: u64 = 1;
    loop {
        let mut tx = db.begin();
        for page in PAGES {
            tx.write(page, &stamp(i)).expect("child write");
        }
        tx.commit().expect("child commit");
        // Acknowledge only after the commit was accepted.
        writeln!(acks, "{i}").expect("ack write");
        acks.flush().expect("ack flush");
        if truncate_every.is_some_and(|n| i.is_multiple_of(n)) {
            db.truncate_log().expect("child truncate");
        }
        i += 1;
    }
}

/// In child mode this never returns; as a normal test it is a no-op.
#[test]
fn child_workload() {
    if let Ok(dir) = std::env::var(CHILD_ENV) {
        run_child(Path::new(&dir), cfg(), None);
    }
    if let Ok(dir) = std::env::var(TRUNC_CHILD_ENV) {
        run_child(Path::new(&dir), big_cfg(), Some(TRUNCATE_EVERY));
    }
    if let Ok(dir) = std::env::var(LAPS_CHILD_ENV) {
        run_child(Path::new(&dir), big_cfg(), None);
    }
}

/// Re-execute this test binary as the child running `test` (one of the
/// `*child_workload` entries) over `dir`, which `env` names to it.
fn spawn_child(test: &str, env: &str, dir: &Path) -> std::process::Child {
    Command::new(std::env::current_exe().expect("own test binary"))
        .args([test, "--exact", "--nocapture", "--test-threads=1"])
        .env(env, dir)
        .stdout(Stdio::null())
        .stderr(Stdio::null())
        .spawn()
        .expect("spawn child")
}

fn last_ack(dir: &Path) -> Option<u64> {
    let text = std::fs::read_to_string(dir.join("acks.log")).ok()?;
    text.lines().last()?.trim().parse().ok()
}

#[test]
fn sigkill_mid_commit_recovers_committed_data() {
    let dir: PathBuf = std::env::temp_dir().join(format!(
        "rda-disk-kill-{}-{}",
        std::process::id(),
        std::time::SystemTime::now()
            .duration_since(std::time::UNIX_EPOCH)
            .map(|d| d.subsec_nanos())
            .unwrap_or_default()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("test dir");

    let mut child = spawn_child("child_workload", CHILD_ENV, &dir);

    // Wait until the child has demonstrably committed a few transactions,
    // then kill it without warning — with overwhelming likelihood it is
    // somewhere inside a commit sequence.
    let deadline = Instant::now() + Duration::from_mins(1);
    let acked_before_kill = loop {
        if let Some(k) = last_ack(&dir) {
            if k >= 5 {
                break k;
            }
        }
        assert!(
            Instant::now() < deadline,
            "child produced no acks in time (status: {:?})",
            child.try_wait()
        );
        std::thread::sleep(Duration::from_millis(10));
    };
    child.kill().expect("SIGKILL child");
    let _ = child.wait();

    // The ack file may have gained entries between the poll and the kill.
    let acked = last_ack(&dir).expect("acks survive the kill");
    assert!(acked >= acked_before_kill);

    let db = reopen_database(&dir, cfg(), DurabilityMode::FsyncOnBarrier).expect("reopen");
    let report = db.recover().expect("restart recovery");

    // The black box: obs.journal survived the SIGKILL (it is flushed at
    // every commit barrier, and the page cache outlives the process), so
    // recovery hands back the child's last pre-crash flight record.
    let flight = report
        .flight
        .as_ref()
        .expect("flight record attached after SIGKILL");
    assert!(flight.flush_seq >= 1, "at least one snapshot was flushed");
    assert!(
        !flight.events.is_empty(),
        "flight record retains trace events"
    );
    assert!(
        flight
            .counters
            .iter()
            .any(|(name, v)| name == "txn_commits" && *v >= 1)
            || !flight.counters.is_empty(),
        "flight record carries counter values"
    );
    // The record must name the transaction that was in flight (or just
    // acknowledged) at death: the child runs one transaction per stamp,
    // so span txn ids track the ack counter. The newest span the box saw
    // can trail the final ack by at most the commits of one barrier
    // window, and never leads it by more than the one racing commit.
    let max_span_txn = flight
        .events
        .iter()
        .filter_map(|e| match e.kind {
            EventKind::TxnBegin { txn }
            | EventKind::LogForce { txn }
            | EventKind::CommitBarrier { txn }
            | EventKind::CommitAck { txn, .. } => Some(txn),
            _ => None,
        })
        .max()
        .expect("flight record names commit-path spans");
    assert!(
        max_span_txn + 2 >= acked && max_span_txn <= acked + 1,
        "flight record's newest span txn {max_span_txn} does not bracket \
         the last acknowledged commit {acked}"
    );

    let values: Vec<Option<u64>> = PAGES.iter().map(|&p| stamped_value(&db, p)).collect();
    let recovered = values[0];
    assert!(
        values.iter().all(|v| *v == recovered),
        "transaction atomicity across pages: {values:?} (report: {report:?})"
    );
    let recovered = recovered.expect("at least one commit was acknowledged");
    assert!(
        recovered >= acked,
        "acknowledged commit {acked} lost; recovered only {recovered} (report: {report:?})"
    );
    assert!(
        recovered <= acked + 1,
        "recovered {recovered} but only {acked} were acknowledged — more than one \
         unacknowledged commit materialized (report: {report:?})"
    );

    let audit = db.audit();
    assert!(
        audit.is_clean(),
        "audit after SIGKILL recovery: {:?}",
        audit.violations
    );

    // The recovered database must accept new work.
    let mut tx = db.begin();
    for page in PAGES {
        tx.write(page, &stamp(recovered + 1))
            .expect("post-recovery write");
    }
    tx.commit().expect("post-recovery commit");
    drop(db);
    let _ = std::fs::remove_dir_all(&dir);
}

/// What the kills of [`kill_at_seeded_delays`] found.
struct Kills {
    /// Kills that found a `wal.journal` that had started at least one new
    /// lap.
    lapped: u32,
    /// The shortest `wal.journal` a kill left.
    shortest_journal: u64,
    /// The fewest commits a killed child had acknowledged.
    fewest_acks: u64,
}

/// Where [`kill_at_seeded_delays`] aims: which child, on which engine,
/// killed how long after how many acknowledged commits.
struct Aim {
    env: &'static str,
    tag: &'static str,
    cfg: fn() -> DbConfig,
    acks_before_kill: u64,
    /// Each kill waits a seeded delay below this many microseconds.
    delay_below: u64,
}

/// SIGKILL a child at 20 seeded delays after it acknowledged
/// `aim.acks_before_kill` commits, so kills land before, during and after
/// the lap switches of `wal.journal`. Every reopen must succeed on
/// whatever `wal.journal` and `meta.journal` slot the kill left, write
/// nothing, read no more of `wal.journal` than its head slot, a lap and
/// one commit, recover every acknowledged stamp, and scrub and audit
/// clean.
fn kill_at_seeded_delays(aim: &Aim) -> Kills {
    let Aim {
        env,
        tag,
        cfg,
        acks_before_kill,
        delay_below,
    } = *aim;
    // Seeded: the delays repeat from run to run of the test.
    let mut rng = rda_obs::rng::Rng::new(0x7A11_5EED);
    let mut kills = Kills {
        lapped: 0,
        shortest_journal: u64::MAX,
        fewest_acks: u64::MAX,
    };
    for run in 0..20 {
        let delay = Duration::from_micros(rng.below(delay_below));

        // Thousands of commits per run: on tmpfs where there is one (a
        // SIGKILL loses no page cache, so the medium decides nothing but
        // how long the child takes to get there).
        let shm = PathBuf::from("/dev/shm");
        let root = if shm.is_dir() {
            shm
        } else {
            std::env::temp_dir()
        };
        let dir = root.join(format!("rda-disk-kill-{tag}-{}-{run}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("test dir");
        let mut child = spawn_child("child_workload", env, &dir);
        // Let it get to where it is aimed, then the seeded delay.
        let deadline = Instant::now() + Duration::from_mins(2);
        while last_ack(&dir).unwrap_or(0) < acks_before_kill {
            assert!(
                Instant::now() < deadline,
                "run {run}: child produced too few acks in time (status: {:?})",
                child.try_wait()
            );
            std::thread::sleep(Duration::from_micros(100));
        }
        std::thread::sleep(delay);
        child.kill().expect("SIGKILL child");
        let _ = child.wait();
        let acked = last_ack(&dir).expect("acks survive the kill");
        kills.fewest_acks = kills.fewest_acks.min(acked);

        let journal = std::fs::read(dir.join("wal.journal")).expect("wal.journal always exists");
        // Every new lap opens with a truncate marker: a frame of 9 bytes
        // (tag 17 and the base) behind the 20-byte frame head, right
        // behind the head slot. A created journal opens with a record.
        let first = &journal[HEAD_LEN as usize..];
        kills.lapped += u32::from(first.starts_with(&[9, 0, 0, 0]) && first.get(20) == Some(&17));
        kills.shortest_journal = kills.shortest_journal.min(journal.len() as u64);
        let db = reopen_database(&dir, cfg(), DurabilityMode::FsyncOnBarrier)
            .unwrap_or_else(|e| panic!("run {run} (delay {delay:?}, acked {acked}): reopen: {e}"));
        let read = db
            .metrics()
            .counter_values()
            .into_iter()
            .find_map(|(name, v)| (name == "wal_reopen_read_bytes").then_some(v))
            .expect("the reopen gauge is registered");
        assert!(
            read <= HEAD_LEN + LAP + ONE_COMMIT,
            "run {run}: reopen read {read} of a {}-byte wal.journal",
            journal.len()
        );
        let reopened = std::fs::read(dir.join("wal.journal")).expect("wal.journal");
        assert!(reopened == journal, "run {run}: the reopen wrote nothing");
        let report = db.recover().expect("restart recovery");
        let values: Vec<Option<u64>> = PAGES.iter().map(|&p| stamped_value(&db, p)).collect();
        let recovered = values[0].expect("commits were acknowledged");
        assert!(
            values.iter().all(|v| *v == Some(recovered)),
            "run {run}: atomicity across pages: {values:?} (report: {report:?})"
        );
        assert!(
            recovered >= acked && recovered <= acked + 1,
            "run {run} (delay {delay:?}): acknowledged {acked}, recovered {recovered} \
             (report: {report:?})"
        );
        assert_eq!(
            db.verify().expect("scrub"),
            Vec::<String>::new(),
            "run {run}"
        );
        let audit = db.audit();
        assert!(audit.is_clean(), "run {run}: {:?}", audit.violations);
        // The recovered database accepts new work, truncation included.
        let mut tx = db.begin();
        for page in PAGES {
            tx.write(page, &stamp(recovered + 1)).expect("write");
        }
        tx.commit().expect("post-recovery commit");
        db.truncate_log().expect("post-recovery truncate");
        drop(db);
        let _ = std::fs::remove_dir_all(&dir);
    }
    kills
}

/// A child that still calls `truncate_log()` every [`TRUNCATE_EVERY`]
/// commits, killed after its second call, among the lap switches of
/// `wal.journal` that follow.
#[test]
fn sigkill_while_truncating_recovers_every_acked_commit() {
    let kills = kill_at_seeded_delays(&Aim {
        env: TRUNC_CHILD_ENV,
        tag: "trunc",
        cfg: big_cfg,
        acks_before_kill: TRUNCATED_TWICE,
        delay_below: 5_000,
    });
    assert!(
        kills.fewest_acks >= TRUNCATE_EVERY,
        "a kill came at ack {}, before the child truncated",
        kills.fewest_acks
    );
    let lapped_runs = kills.lapped;
    assert!(
        lapped_runs >= 10,
        "only {lapped_runs} of 20 kills found a lapped journal: they miss the lap switches"
    );
}

/// A child that never calls `truncate_log()`: the engine alone moves the
/// mark and `wal.journal` starts new laps by itself, several times over,
/// before each kill.
#[test]
fn sigkill_with_no_explicit_truncation_recovers_every_acked_commit() {
    let lapped_runs = kill_at_seeded_delays(&Aim {
        env: LAPS_CHILD_ENV,
        tag: "laps",
        cfg: big_cfg,
        acks_before_kill: SEVERAL_LAPS,
        delay_below: 25_000,
    })
    .lapped;
    assert_eq!(
        lapped_runs, 20,
        "wal.journal has started new laps by the time of every kill without anybody asking"
    );
}

/// Killed inside the first lap of `wal.journal`, with tens of kilobytes
/// of dead log in it and no lap switch yet: the reopen starts at the head
/// slot the create wrote and reads the lap, no more.
#[test]
fn sigkill_in_the_first_lap_reopens_from_the_head_slot() {
    let kills = kill_at_seeded_delays(&Aim {
        env: CHILD_ENV,
        tag: "first-lap",
        cfg,
        acks_before_kill: IN_FIRST_LAP,
        delay_below: 2_000,
    });
    assert_eq!(kills.lapped, 0, "every kill lands in the first lap");
    assert!(
        kills.shortest_journal >= HEAD_LEN + (32 << 10),
        "every kill leaves ≥ 32 KiB of dead log: {}",
        kills.shortest_journal
    );
}

fn gc_cfg() -> DbConfig {
    cfg().group_commit(GroupCommit {
        window_micros: 300,
        max_batch: 8,
    })
}

/// Group-commit child mode: four writer threads, each committing stamps
/// to its own page triple forever and acknowledging to `acks-<t>.log`
/// only after `commit()` returned. Concurrent committers batch through
/// the gate, so the SIGKILL lands mid-batch with high probability.
fn run_gc_child(dir: &Path) -> ! {
    let db = create_database(dir, gc_cfg(), DurabilityMode::FsyncOnBarrier).expect("child create");
    std::thread::scope(|scope| {
        for t in 0..GC_THREADS {
            let db = &db;
            let acks_path = dir.join(format!("acks-{t}.log"));
            scope.spawn(move || {
                let mut acks = std::fs::File::create(acks_path).expect("acks file");
                let mut i: u64 = 1;
                loop {
                    let mut tx = db.begin();
                    for page in gc_pages(t) {
                        tx.write(page, &stamp(i)).expect("child write");
                    }
                    tx.commit().expect("child commit");
                    writeln!(acks, "{i}").expect("ack write");
                    acks.flush().expect("ack flush");
                    i += 1;
                }
            });
        }
    });
    unreachable!("writer threads never return");
}

/// In group-commit child mode this never returns; normally a no-op.
#[test]
fn gc_child_workload() {
    if let Ok(dir) = std::env::var(GC_CHILD_ENV) {
        run_gc_child(Path::new(&dir));
    }
}

fn last_ack_at(dir: &Path, t: usize) -> Option<u64> {
    let text = std::fs::read_to_string(dir.join(format!("acks-{t}.log"))).ok()?;
    text.lines().last()?.trim().parse().ok()
}

/// SIGKILL a child running four concurrent writers with group commit on;
/// after reopen + recovery every acknowledged commit must be readable,
/// no thread may have gained more than the one racing commit, the parity
/// audit must be clean, and the flight record must name the in-flight
/// batch (commit-path spans + group-commit counters).
#[test]
fn sigkill_mid_group_commit_batch_recovers_acked_commits() {
    let dir: PathBuf = std::env::temp_dir().join(format!(
        "rda-disk-kill-gc-{}-{}",
        std::process::id(),
        std::time::SystemTime::now()
            .duration_since(std::time::UNIX_EPOCH)
            .map(|d| d.subsec_nanos())
            .unwrap_or_default()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("test dir");

    let mut child = spawn_child("gc_child_workload", GC_CHILD_ENV, &dir);

    // Wait until every thread has demonstrably committed a few times,
    // then kill without warning — almost surely mid-batch.
    let deadline = Instant::now() + Duration::from_mins(1);
    loop {
        let slowest = (0..GC_THREADS)
            .map(|t| last_ack_at(&dir, t).unwrap_or(0))
            .min()
            .unwrap_or(0);
        if slowest >= 3 {
            break;
        }
        assert!(
            Instant::now() < deadline,
            "child writers produced no acks in time (status: {:?})",
            child.try_wait()
        );
        std::thread::sleep(Duration::from_millis(10));
    }
    child.kill().expect("SIGKILL child");
    let _ = child.wait();

    let acked: Vec<u64> = (0..GC_THREADS)
        .map(|t| last_ack_at(&dir, t).expect("acks survive the kill"))
        .collect();

    let db = reopen_database(&dir, gc_cfg(), DurabilityMode::FsyncOnBarrier).expect("reopen");
    let report = db.recover().expect("restart recovery");

    // Per-thread oracle: every acked commit survived; at most the one
    // commit whose acknowledgment the kill raced materialized on top;
    // and the triple is internally consistent (batch atomicity).
    for (t, &acked_t) in acked.iter().enumerate() {
        let values: Vec<Option<u64>> = gc_pages(t).iter().map(|&p| stamped_value(&db, p)).collect();
        let recovered = values[0];
        assert!(
            values.iter().all(|v| *v == recovered),
            "thread {t}: atomicity across pages: {values:?} (report: {report:?})"
        );
        let recovered = recovered.expect("at least one commit was acknowledged");
        assert!(
            recovered >= acked_t,
            "thread {t}: acknowledged commit {acked_t} lost; recovered only {recovered} \
             (report: {report:?})"
        );
        assert!(
            recovered <= acked_t + 1,
            "thread {t}: recovered {recovered} but only {acked_t} acknowledged — an \
             unacknowledged commit beyond the racing one materialized (report: {report:?})"
        );
    }

    // The flight record names the in-flight batch: commit-path spans for
    // batch members plus the gate's batch counters survived the SIGKILL.
    let flight = report
        .flight
        .as_ref()
        .expect("flight record attached after SIGKILL");
    assert!(
        flight.events.iter().any(|e| matches!(
            e.kind,
            EventKind::CommitBarrier { .. } | EventKind::CommitAck { .. }
        )),
        "flight record carries commit-path spans for the dying batch"
    );
    let counter = |name: &str| {
        flight
            .counters
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, v)| *v)
    };
    let batches = counter("group_commit_batches_total").unwrap_or(0);
    let batched = counter("group_commit_txns_total").unwrap_or(0);
    assert!(
        batches >= 1,
        "flight record shows no group-commit batches: {:?}",
        flight.counters
    );
    assert!(
        batched >= batches,
        "batched txns {batched} < batches {batches}"
    );

    let audit = db.audit();
    assert!(
        audit.is_clean(),
        "audit after SIGKILL recovery: {:?}",
        audit.violations
    );

    // The recovered database accepts new work on every thread's pages.
    for (t, &acked_t) in acked.iter().enumerate() {
        let mut tx = db.begin();
        for page in gc_pages(t) {
            tx.write(page, &stamp(acked_t + 2))
                .expect("post-recovery write");
        }
        tx.commit().expect("post-recovery commit");
    }
    drop(db);
    let _ = std::fs::remove_dir_all(&dir);
}
