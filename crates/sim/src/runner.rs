//! The transaction runner: scripts driven against a [`ShardedDb`].
//!
//! [`run`] starts `cfg.threads` OS threads sharing one database; thread
//! `t` drives scripts `i ≡ t (mod threads)` through `cfg.slots`
//! round-robin transaction slots, one access per slot per pass.
//! `threads: 1, slots: P` is the paper's model (`P` transactions, one I/O
//! subsystem); `threads: P, slots: 1` is real thread-level concurrency.
//! A lock conflict stalls its slot, locks held; a slot that stalls more
//! than `MAX_STALLS` (64) passes in a row is a conflict abort. A one-slot
//! thread has no slot to wait for, so there a conflict releases the locks
//! and restarts the script, at most `MAX_STALLS` times.
//!
//! Only a one-thread run takes a warm-up or injects crashes. No engine
//! error panics: every error, every committed value lost (an oracle keeps
//! byte 0 of each page) and every `verify()` or `audit()` violation after
//! the run lands in [`RunResult::failures`].

use crate::workload::{AccessKind, TxnScript, WorkloadSpec};
use rda_core::{DbConfig, DbError, DbStats, LogGranularity, ShardedDb, ShardedTxn};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

/// Lock conflicts a slot survives in a row (one-slot thread: in all).
const MAX_STALLS: u32 = 64;

/// How [`run`] drives its scripts.
#[derive(Debug, Clone, Copy)]
pub struct RunConfig {
    /// OS threads sharing the database.
    pub threads: usize,
    /// Round-robin transaction slots per thread.
    pub slots: usize,
    /// Seed of the values written and, in [`run_spec`], of the scripts.
    pub seed: u64,
    /// Scripts finished before measurement starts (buffer warm-up).
    /// Needs `threads == 1`.
    pub warmup: usize,
    /// Crash and run restart recovery every this many commits. Needs
    /// `threads == 1`.
    pub crash_every: Option<usize>,
}

impl Default for RunConfig {
    /// The paper's setting: one thread, `P = 6` slots, warm-up 50.
    fn default() -> RunConfig {
        RunConfig {
            threads: 1,
            slots: 6,
            seed: 0xDA7A,
            warmup: 50,
            crash_every: None,
        }
    }
}

/// What a run measured.
#[derive(Debug, Clone, Default)]
pub struct RunResult {
    /// Transactions committed, warm-up included.
    pub committed: u64,
    /// Scripted aborts, plus transactions in flight at an injected crash.
    pub aborted: u64,
    /// Transactions aborted because they stalled on locks.
    pub conflict_aborts: u64,
    /// Lock conflicts met. Each stalls a slot for one pass or, in a
    /// one-slot thread, restarts its transaction.
    pub conflict_stalls: u64,
    /// Engine errors, lost committed values and post-run violations.
    pub failures: u64,
    /// The first failure's message.
    pub first_failure: Option<String>,
    /// Array page transfers during the measured phase.
    pub array_transfers: u64,
    /// Log page transfers during the measured phase.
    pub log_transfers: u64,
    /// Transfers per transaction committed when measured: the empirical `c_t`.
    pub transfers_per_committed: f64,
    /// Buffer hit ratio at the end of the run: the empirical communality `C`.
    pub measured_c: f64,
    /// Crashes injected, each followed by restart recovery (billed I/O).
    pub crashes_injected: u64,
    /// Bytes appended to the log during the measured phase.
    pub log_bytes: u64,
    /// Commits per thread, indexed by thread.
    pub per_thread_commits: Vec<u64>,
    /// Exact p50 commit-ack latency over all commits, nanoseconds.
    pub p50_commit_ns: u64,
    /// Exact p99 commit-ack latency over all commits, nanoseconds.
    pub p99_commit_ns: u64,
    /// Wall clock from starting the threads to joining them, nanoseconds.
    pub elapsed_ns: u64,
    /// Commits that crossed shards (2PC).
    pub cross_shard_commits: u64,
}

impl RunResult {
    /// Committed transactions per wall-clock second.
    #[must_use]
    pub fn txns_per_sec(&self) -> f64 {
        self.committed as f64 / (self.elapsed_ns.max(1) as f64 / 1e9)
    }

    /// `Ok` when the run had no failure.
    ///
    /// # Errors
    /// The failure count and the first failure's message.
    pub fn check(&self) -> Result<(), String> {
        match &self.first_failure {
            None => Ok(()),
            Some(first) => Err(format!("{} failure(s), first: {first}", self.failures)),
        }
    }

    fn fail(&mut self, msg: String) {
        self.failures += 1;
        self.first_failure.get_or_insert(msg);
    }
}

/// [`run`] `cfg.warmup + txns` scripts of `spec`, generated from
/// `cfg.seed`, on a fresh database opened from `db`.
#[must_use]
pub fn run_spec(db: DbConfig, cfg: &RunConfig, spec: &WorkloadSpec, txns: usize) -> RunResult {
    let scripts = spec.generate(cfg.warmup + txns, cfg.seed);
    run(&ShardedDb::open(db), cfg, scripts)
}

/// Run `scripts` against `db` as `cfg` says and report the measured
/// costs. The first `cfg.warmup` scripts to finish are unmeasured.
///
/// # Panics
/// If `cfg` asks for a warm-up or for crashes on more than one thread.
#[must_use]
pub fn run(db: &ShardedDb, cfg: &RunConfig, scripts: Vec<TxnScript>) -> RunResult {
    let threads = cfg.threads.max(1);
    assert!(
        threads == 1 || (cfg.warmup == 0 && cfg.crash_every.is_none()),
        "warm-up and crash injection need a one-thread run"
    );
    let start = (db.stats(), log_bytes(db));
    let mut queues: Vec<Vec<(usize, TxnScript)>> = (0..threads).map(|_| Vec::new()).collect();
    for (i, script) in scripts.into_iter().enumerate() {
        queues[i % threads].push((i, script));
    }
    let seq = AtomicU64::new(0);
    let clock = Instant::now();
    let tallies: Vec<Tally> = std::thread::scope(|scope| {
        let (seq, mut queues) = (&seq, queues.into_iter());
        let own = queues.next().unwrap_or_default();
        let others: Vec<_> = queues
            .map(|queue| scope.spawn(move || drive(db, cfg, seq, queue)))
            .collect();
        // Thread 0 is the caller: a new thread starts with cold caches and
        // its own allocator arena, a tenth of a short one-thread run.
        let mut tallies = vec![drive(db, cfg, seq, own)];
        for h in others {
            tallies.push(h.join().unwrap_or_else(|p| std::panic::resume_unwind(p)));
        }
        tallies
    });
    let elapsed_ns = u64::try_from(clock.elapsed().as_nanos()).unwrap_or(u64::MAX);

    let end = db.stats();
    let (base, base_bytes) = tallies
        .first()
        .and_then(|t| t.baseline)
        .unwrap_or_else(|| (start.0.merged(), start.1));
    let merged = end.merged();
    let delta = merged.delta(&base);
    let mut out = RunResult {
        array_transfers: delta.array.transfers(),
        log_transfers: delta.log.transfers(),
        measured_c: merged.buffer.hit_ratio(),
        log_bytes: log_bytes(db) - base_bytes,
        elapsed_ns,
        cross_shard_commits: end.cross_shard_commits - start.0.cross_shard_commits,
        ..RunResult::default()
    };
    let mut measured = 0;
    let mut latencies = Vec::new();
    let mut oracle: BTreeMap<u32, (u64, u8)> = BTreeMap::new();
    for t in tallies {
        out.committed += t.out.committed;
        out.aborted += t.out.aborted;
        out.conflict_aborts += t.out.conflict_aborts;
        out.conflict_stalls += t.out.conflict_stalls;
        out.failures += t.out.failures;
        out.first_failure = out.first_failure.or(t.out.first_failure);
        out.crashes_injected += t.out.crashes_injected;
        out.per_thread_commits.push(t.out.committed);
        measured += t.measured;
        latencies.extend(t.latencies);
        for (at, page, value) in t.writes {
            let last = oracle.entry(page).or_insert((at, value));
            if at >= last.0 {
                *last = (at, value);
            }
        }
    }
    out.transfers_per_committed =
        (out.array_transfers + out.log_transfers) as f64 / measured.max(1) as f64;
    latencies.sort_unstable();
    let quantile = |q: f64| {
        let idx = ((latencies.len().max(1) - 1) as f64 * q).round() as usize;
        latencies.get(idx).copied().unwrap_or(0)
    };
    out.p50_commit_ns = quantile(0.50);
    out.p99_commit_ns = quantile(0.99);

    for (page, (_, value)) in oracle {
        match db.read_page(page) {
            Ok(got) if got.first() == Some(&value) => {}
            Ok(got) => out.fail(format!(
                "page {page}: committed value {value} lost, read {:?}",
                got.first()
            )),
            Err(e) => out.fail(format!("page {page}: readback failed: {e}")),
        }
    }
    match db.verify() {
        Ok(violations) if violations.is_empty() => {}
        Ok(violations) => out.fail(format!("parity violations: {violations:?}")),
        Err(e) => out.fail(format!("verify failed: {e}")),
    }
    let audit = db.audit();
    if !audit.is_clean() {
        out.fail(format!("audit: {:?}", audit.violations()));
    }
    out
}

fn log_bytes(db: &ShardedDb) -> u64 {
    (0..db.shard_count()).map(|s| db.shard(s).log_bytes()).sum()
}

/// The value the access at `pos` writes; `key` is one more than the
/// index of the script its thread started last. Never zero, so a
/// written page is told apart from a fresh one.
fn value_byte(seed: u64, key: usize, pos: usize) -> u8 {
    let mixed = seed
        .wrapping_mul(0x9E37_79B9_7F4A_7C15)
        .wrapping_add(key as u64)
        .wrapping_mul(0x2545_F491_4F6C_DD1D)
        .wrapping_add(pos as u64);
    (mixed >> 32) as u8 | 1
}

struct Slot {
    tx: ShardedTxn,
    script: TxnScript,
    pos: usize,
    /// Conflicts in a row; in a one-slot thread, restarts so far.
    stalls: u32,
    /// `(write sequence, page, byte 0)` of each update, for the oracle.
    writes: Vec<(u64, u32, u8)>,
}

/// One thread's share of a run.
#[derive(Default)]
struct Tally {
    /// The counts; [`run`] fills in the rest.
    out: RunResult,
    /// Commits of the measured phase.
    measured: u64,
    latencies: Vec<u64>,
    writes: Vec<(u64, u32, u8)>,
    /// Stats and log bytes when the warm-up ended.
    baseline: Option<(DbStats, u64)>,
}

/// Drive one thread's scripts through `cfg.slots` round-robin slots.
/// `seq` numbers writes: a page's later writer held its lock, so draws more.
fn drive(
    db: &ShardedDb,
    cfg: &RunConfig,
    seq: &AtomicU64,
    scripts: Vec<(usize, TxnScript)>,
) -> Tally {
    let page_mode = db.granularity() == LogGranularity::Page;
    let one_slot = cfg.slots <= 1;
    let mut t = Tally::default();
    let total = scripts.len();
    let mut queue = scripts.into_iter();
    let mut slots: Vec<Option<Box<Slot>>> = (0..cfg.slots.max(1)).map(|_| None).collect();
    let (mut key, mut finished, mut since_crash) = (0, 0, 0);
    while finished < total {
        for idx in 0..slots.len() {
            if slots[idx].is_none() {
                if let Some((i, script)) = queue.next() {
                    key = i + 1;
                    slots[idx] = Some(Box::new(Slot {
                        tx: db.begin(),
                        script,
                        pos: 0,
                        stalls: 0,
                        writes: Vec::new(),
                    }));
                }
            }
            let Some(mut slot) = slots[idx].take() else {
                continue;
            };

            // One access step.
            if let Some(&access) = slot.script.accesses.get(slot.pos) {
                let value = value_byte(cfg.seed, key, slot.pos);
                let res = match access.kind {
                    AccessKind::Read => slot.tx.read(access.page).map(|_| ()),
                    AccessKind::Update if page_mode => slot.tx.write(access.page, &[value]),
                    AccessKind::Update => slot.tx.update(access.page, 0, &[value]),
                };
                match res {
                    Ok(()) => {
                        if access.kind == AccessKind::Update {
                            // ordering: Relaxed — the page lock orders two
                            // draws for the same page.
                            let at = seq.fetch_add(1, Ordering::Relaxed);
                            slot.writes.push((at, access.page, value));
                        }
                        slot.pos += 1;
                        // A one-slot thread's count spans its restarts, so a
                        // script that keeps losing its locks still ends.
                        if !one_slot {
                            slot.stalls = 0;
                        }
                        slots[idx] = Some(slot);
                    }
                    Err(DbError::LockConflict { .. }) if slot.stalls < MAX_STALLS => {
                        t.out.conflict_stalls += 1;
                        slot.stalls += 1;
                        if one_slot {
                            // Nothing in this thread can free the lock: give
                            // ours up so its holder can finish; start over.
                            if let Err(e) = slot.tx.abort() {
                                t.out.fail(format!("conflict restart failed: {e}"));
                            }
                            (slot.tx, slot.pos) = (db.begin(), 0);
                            slot.writes.clear();
                            std::thread::yield_now();
                        }
                        slots[idx] = Some(slot);
                    }
                    Err(DbError::LockConflict { .. }) => {
                        t.out.conflict_stalls += 1;
                        t.out.conflict_aborts += 1;
                        if let Err(e) = slot.tx.abort() {
                            t.out.fail(format!("conflict abort failed: {e}"));
                        }
                    }
                    // The dropped handle aborts the transaction.
                    Err(e) => t.out.fail(format!("access failed: {e}")),
                }
                if slots[idx].is_none() {
                    finished += 1;
                }
                continue;
            }

            // Script complete: end the transaction.
            if slot.script.aborts {
                match slot.tx.abort() {
                    Ok(()) => t.out.aborted += 1,
                    Err(e) => t.out.fail(format!("scripted abort failed: {e}")),
                }
            } else {
                let clock = Instant::now();
                match slot.tx.commit() {
                    Ok(_) => {
                        t.latencies
                            .push(u64::try_from(clock.elapsed().as_nanos()).unwrap_or(u64::MAX));
                        t.out.committed += 1;
                        since_crash += 1;
                        if finished >= cfg.warmup {
                            t.measured += 1;
                        }
                        t.writes.extend(slot.writes);
                    }
                    // Fenced by a cross-shard intent still being applied.
                    Err(DbError::LockConflict { .. }) if one_slot && slot.stalls < MAX_STALLS => {
                        t.out.conflict_stalls += 1;
                        slot.stalls += 1;
                        (slot.tx, slot.pos) = (db.begin(), 0);
                        slot.writes.clear();
                        std::thread::yield_now();
                        slots[idx] = Some(slot);
                        continue;
                    }
                    Err(DbError::LockConflict { .. }) => t.out.conflict_aborts += 1,
                    Err(e) => t.out.fail(format!("commit failed: {e}")),
                }
            }
            finished += 1;

            if cfg.crash_every.is_some_and(|every| since_crash >= every) {
                since_crash = 0;
                t.out.crashes_injected += 1;
                db.crash();
                // In-flight transactions die with the crash; their handles'
                // drop-aborts are refused until recovery.
                for slot in &mut slots {
                    if slot.take().is_some() {
                        finished += 1;
                        t.out.aborted += 1;
                    }
                }
                if let Err(e) = db.recover() {
                    t.out.fail(format!("restart recovery failed: {e}"));
                    return t;
                }
            }

            if cfg.warmup > 0 && t.baseline.is_none() && finished >= cfg.warmup {
                t.baseline = Some((db.stats().merged(), log_bytes(db)));
            }
        }
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Access;
    use rda_core::EngineKind;

    fn threaded(threads: usize) -> RunConfig {
        RunConfig {
            threads,
            slots: 1,
            warmup: 0,
            ..RunConfig::default()
        }
    }

    #[test]
    fn round_robin_runs_verify_on_both_engines_and_granularities() {
        for engine in [EngineKind::Rda, EngineKind::Wal] {
            for granularity in [LogGranularity::Page, LogGranularity::Record] {
                for crash_every in [None, Some(12)] {
                    let db = DbConfig::paper_like(engine, 200, 32).granularity(granularity);
                    let cfg = RunConfig {
                        slots: 4,
                        warmup: 10,
                        crash_every,
                        ..RunConfig::default()
                    };
                    let r = run_spec(db, &cfg, &WorkloadSpec::high_update(200, 24), 80);
                    assert_eq!(r.check(), Ok(()));
                    // Many transactions fall to lock-conflict aborts on the
                    // small hot set; a good share must commit.
                    assert!(r.committed >= 30, "{r:?}");
                    assert_eq!(r.committed + r.aborted + r.conflict_aborts, 90);
                    assert_eq!(r.crashes_injected >= 3, crash_every.is_some(), "{r:?}");
                    assert!(r.measured_c > 0.0 && r.measured_c < 1.0);
                }
            }
        }
    }

    #[test]
    fn higher_locality_raises_measured_c() {
        let measure = |locality| {
            let spec = WorkloadSpec::high_update(200, 24).locality(locality);
            let db = DbConfig::paper_like(EngineKind::Rda, 200, 32);
            let r = run_spec(db, &RunConfig::default(), &spec, 60);
            assert_eq!(r.check(), Ok(()));
            r.measured_c
        };
        let (low, high) = (measure(0.1), measure(0.95));
        assert!(high > low + 0.05, "high {high} vs low {low}");
    }

    #[test]
    fn threaded_run_accounts_for_every_script() {
        for engine in [EngineKind::Rda, EngineKind::Wal] {
            let db = DbConfig::paper_like(engine, 300, 48);
            let r = run_spec(db, &threaded(4), &WorkloadSpec::high_update(300, 60), 120);
            assert_eq!(r.check(), Ok(()));
            assert_eq!(r.committed + r.aborted + r.conflict_aborts, 120, "{r:?}");
            // Conflicts restart the transaction: nearly everything commits.
            assert!(r.committed >= 100, "{r:?}");
            assert!(r.array_transfers + r.log_transfers > 0, "{r:?}");
            assert_eq!(r.per_thread_commits.len(), 4);
            assert_eq!(r.per_thread_commits.iter().sum::<u64>(), r.committed);
            assert!(r.p99_commit_ns >= r.p50_commit_ns);
        }
    }

    #[test]
    fn threaded_and_one_thread_runs_agree_on_final_state() {
        // Disjoint single-page transactions: each page is written by
        // exactly one script, so the final state is schedule-independent.
        let dump = |cfg: &RunConfig| {
            let write = |page| Access {
                page,
                kind: AccessKind::Update,
            };
            let scripts = (0..50).map(|p| TxnScript::committing(vec![write(p)]));
            let db = ShardedDb::open(DbConfig::paper_like(EngineKind::Rda, 200, 32));
            let result = run(&db, cfg, scripts.collect());
            assert_eq!(result.check(), Ok(()));
            assert_eq!(result.committed, 50, "{result:?}");
            db.state_dump().unwrap()
        };
        let eight = dump(&threaded(8));
        assert!(eight[..50].iter().all(|page| page[0] != 0));
        assert_eq!(eight, dump(&threaded(1)));
    }

    /// Deterministic multi-threaded stress for the paranoid auditor: a
    /// fixed seed generates a conflict-heavy mix of committing and
    /// aborting transactions over a small hot set, on both engines and
    /// both logging granularities. With `--features paranoid` every
    /// steal, commit and abort audits the full invariant set mid-flight,
    /// and the run closes with a quiescent audit.
    #[test]
    #[cfg_attr(not(feature = "paranoid"), ignore = "run with --features paranoid")]
    fn paranoid_threaded_stress_audits_every_transition() {
        for kind in [EngineKind::Rda, EngineKind::Wal] {
            for granularity in [LogGranularity::Page, LogGranularity::Record] {
                // Tiny hot set → plenty of shared groups, steals and
                // conflict restarts.
                let db = DbConfig::paper_like(kind, 120, 12).granularity(granularity);
                let cfg = RunConfig {
                    seed: 0xDECAF,
                    ..threaded(6)
                };
                let r = run_spec(db, &cfg, &WorkloadSpec::high_update(120, 8), 90);
                assert_eq!(r.check(), Ok(()));
                assert_eq!(r.committed + r.aborted + r.conflict_aborts, 90, "{r:?}");
            }
        }
    }
}
