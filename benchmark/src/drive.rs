//! The closed-loop driver: one thread runs `slots` logically concurrent
//! transactions round-robin (the paper's multiprogramming level, as
//! `rda-sim`'s driver does), each issuing its next call only after the
//! previous one returned. Multi-threaded workloads run one [`Lane`] per
//! OS thread. The driver times every public call, keeps the oracle, and
//! reports to the thread's trace recorder.

use crate::clock::{Calibrator, CALIBRATE_EVERY_NS};
use crate::gen::{Op, Script, Shape};
use crate::stats::{Rng, Samples};
use crate::trace::{self, now_ns};
use rda_array::BlockDevice;
use rda_core::{Database, DbError, ShardedDb, ShardedTxn, Transaction};
use rda_obs::MetricsRegistry;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Consecutive conflict stalls before an interleaved slot aborts and
/// retries (breaks deadlocks between slots of one thread). Each attempt
/// draws its own limit in `MAX_STALLS/2 ‥ 3·MAX_STALLS/2`: two slots that
/// deadlocked would otherwise give up in the same pass, retry in step and
/// deadlock again.
const MAX_STALLS: u32 = 64;
/// Whole-transaction attempts before the driver gives up on a script; a
/// given-up transaction is a failed operation. With the back-off below this
/// is about a quarter of a second of waiting: 64 attempts (≈ 15 ms) were
/// not enough when the host descheduled the lock holder.
const MAX_ATTEMPTS: u32 = 1024;
/// Commits between `truncate_log` calls. The modeled log keeps every record
/// until truncated (1 GB after 60 K page-logging transactions); a real
/// deployment checkpoints, so the driver does too.
const TRUNCATE_EVERY: u64 = 512;
/// A run is cut into slices of this length: throughput is the median over
/// slices, which a stall of the shared host moves far less than it moves
/// the mean.
pub const SLICE_NS: u64 = 250_000_000;
/// Commit latencies are kept per window of this many slices: a percentile
/// is the median over windows of each window's percentile, so a second in
/// which the host stalled moves one window, not the run's tail.
pub const WINDOW_SLICES: usize = 4;
/// Latencies kept per window and lane (a uniform subset beyond that).
const WINDOW_SAMPLES: usize = 1 << 16;

/// What the driver needs from a transaction handle of either engine API.
pub trait Txn: Sized {
    fn read(&mut self, page: u32) -> Result<Vec<u8>, DbError>;
    fn write(&mut self, page: u32, data: &[u8]) -> Result<(), DbError>;
    fn commit(self) -> Result<(), DbError>;
    fn abort(self) -> Result<(), DbError>;
}

/// What the driver and the oracle need from `Database<D>` and `ShardedDb`
/// alike — the repo has the two APIs side by side (ROADMAP 3a).
pub trait Engine: Sync {
    type Txn: Txn;
    fn begin(&self) -> Self::Txn;
    fn truncate_log(&self) -> Result<(), DbError>;
    fn state_dump(&self) -> Result<Vec<Vec<u8>>, DbError>;
    /// Parity scrub findings plus invariant-audit violations; empty ⇔ clean.
    fn findings(&self) -> Result<Vec<String>, DbError>;
    /// One registry per shard.
    fn registries(&self) -> Vec<Arc<MetricsRegistry>>;
    fn log_bytes(&self) -> u64;
    fn cross_shard_commits(&self) -> u64 {
        0
    }
}

impl<D: BlockDevice> Txn for Transaction<D> {
    fn read(&mut self, page: u32) -> Result<Vec<u8>, DbError> {
        Transaction::read(self, page)
    }
    fn write(&mut self, page: u32, data: &[u8]) -> Result<(), DbError> {
        Transaction::write(self, page, data)
    }
    fn commit(self) -> Result<(), DbError> {
        Transaction::commit(self).map(|_| ())
    }
    fn abort(self) -> Result<(), DbError> {
        Transaction::abort(self)
    }
}

impl<D: BlockDevice> Engine for Database<D> {
    type Txn = Transaction<D>;
    fn begin(&self) -> Transaction<D> {
        Database::begin(self)
    }
    fn truncate_log(&self) -> Result<(), DbError> {
        Database::truncate_log(self).map(|_| ())
    }
    fn state_dump(&self) -> Result<Vec<Vec<u8>>, DbError> {
        Database::state_dump(self)
    }
    fn findings(&self) -> Result<Vec<String>, DbError> {
        let mut out = self.verify()?;
        out.extend(self.audit().violations);
        Ok(out)
    }
    fn registries(&self) -> Vec<Arc<MetricsRegistry>> {
        vec![self.metrics()]
    }
    fn log_bytes(&self) -> u64 {
        Database::log_bytes(self)
    }
}

impl Txn for ShardedTxn {
    fn read(&mut self, page: u32) -> Result<Vec<u8>, DbError> {
        ShardedTxn::read(self, page)
    }
    fn write(&mut self, page: u32, data: &[u8]) -> Result<(), DbError> {
        ShardedTxn::write(self, page, data)
    }
    fn commit(self) -> Result<(), DbError> {
        ShardedTxn::commit(self).map(|_| ())
    }
    fn abort(self) -> Result<(), DbError> {
        ShardedTxn::abort(self)
    }
}

impl Engine for ShardedDb {
    type Txn = ShardedTxn;
    fn begin(&self) -> ShardedTxn {
        ShardedDb::begin(self)
    }
    fn truncate_log(&self) -> Result<(), DbError> {
        (0..self.shard_count()).try_for_each(|s| self.shard(s).truncate_log().map(|_| ()))
    }
    fn state_dump(&self) -> Result<Vec<Vec<u8>>, DbError> {
        ShardedDb::state_dump(self)
    }
    fn findings(&self) -> Result<Vec<String>, DbError> {
        let mut out = self.verify()?;
        out.extend(self.audit().violations);
        Ok(out)
    }
    fn registries(&self) -> Vec<Arc<MetricsRegistry>> {
        (0..self.shard_count())
            .map(|s| self.shard(s).metrics())
            .collect()
    }
    fn log_bytes(&self) -> u64 {
        (0..self.shard_count())
            .map(|s| self.shard(s).log_bytes())
            .sum()
    }
    fn cross_shard_commits(&self) -> u64 {
        self.stats().cross_shard_commits
    }
}

/// Page → last committed stamp, kept by the driver.
///
/// A write is ranked by a number drawn from a shared counter *after*
/// `write()` returned, i.e. while its transaction holds the page's
/// exclusive lock until commit — so for two committed writers of one page
/// the ranks order exactly as the engine's locks did, across threads, with
/// no further synchronisation. Each lane keeps its own table; [`merge`]
/// keeps the highest rank per page.
///
/// [`merge`]: Oracle::merge
#[derive(Debug, Clone)]
pub struct Oracle {
    last: Vec<(u64, u64)>,
}

impl Oracle {
    pub fn new(pages: u32) -> Oracle {
        Oracle {
            last: vec![(0, 0); pages as usize],
        }
    }

    pub fn committed(&mut self, page: u32, rank: u64, stamp: u64) {
        let slot = &mut self.last[page as usize];
        if rank >= slot.0 {
            *slot = (rank, stamp);
        }
    }

    pub fn merge(&mut self, other: &Oracle) {
        for (mine, theirs) in self.last.iter_mut().zip(&other.last) {
            if theirs.0 > mine.0 {
                *mine = *theirs;
            }
        }
    }

    /// Compare a state dump with the table; returns the mismatching pages.
    pub fn mismatches(&self, dump: &[Vec<u8>]) -> Vec<String> {
        let mut out = Vec::new();
        if dump.len() != self.last.len() {
            out.push(format!(
                "state dump has {} pages, oracle {}",
                dump.len(),
                self.last.len()
            ));
            return out;
        }
        for (page, (image, (_, want))) in dump.iter().zip(&self.last).enumerate() {
            let got = stamp_of(image);
            if got != *want {
                out.push(format!(
                    "page {page}: holds stamp {got:#x}, last committed {want:#x}"
                ));
            }
        }
        out
    }
}

/// The stamp a page image carries (its first eight bytes; 0 when never
/// written).
pub fn stamp_of(image: &[u8]) -> u64 {
    image
        .get(..8)
        .and_then(|b| <[u8; 8]>::try_from(b).ok())
        .map_or(0, u64::from_le_bytes)
}

/// A never-zero stamp unique to (lane, transaction, op).
pub fn stamp(lane: u64, txn: u64, op: usize) -> u64 {
    ((lane + 1) << 56) | ((txn & 0xFFFF_FFFF_FFFF) << 8) | ((op as u64 + 1) & 0xFF)
}

/// One driver thread's state, alive across warm-up and measured phases.
pub struct Lane {
    pub id: u64,
    pub shape: Shape,
    pub rng: Rng,
    pub slots: usize,
    pub oracle: Oracle,
    /// Transactions begun so far (stamps and trace ids count from here).
    pub started: u64,
    /// The reference work of `clock.rs`, on the workloads that use it.
    calibrator: Option<Calibrator>,
    /// Back-off draws come from their own stream: how often a lane
    /// collides depends on timing, and must not shift its scripts.
    pause: Rng,
    seed: u64,
}

impl Lane {
    pub fn new(
        id: u64,
        seed: u64,
        shape: Shape,
        slots: usize,
        pages: u32,
        calibrated: bool,
    ) -> Lane {
        Lane {
            id,
            shape,
            rng: Rng::new(seed, id),
            slots,
            oracle: Oracle::new(pages),
            started: 0,
            calibrator: calibrated.then(Calibrator::take),
            pause: Rng::new(seed, 0x400 + id),
            seed,
        }
    }
}

impl Drop for Lane {
    fn drop(&mut self) {
        if let Some(calibrator) = self.calibrator.take() {
            calibrator.give_back();
        }
    }
}

#[derive(Debug, Clone, Copy)]
pub enum Stop {
    /// Finish after this many transactions have been started (warm-up: a
    /// fixed, unmeasured prefix).
    Count(u64),
    /// Start no transaction once this many nanoseconds have passed.
    After(u64),
}

/// What one lane did in one phase.
#[derive(Debug)]
pub struct LaneResult {
    pub start_ns: u64,
    pub end_ns: u64,
    pub committed: u64,
    /// Scripted aborts (`p_b`), which are successes.
    pub aborted: u64,
    /// Conflict-driven whole-transaction retries.
    pub retries: u64,
    /// Scripts abandoned after `MAX_ATTEMPTS`, plus unexpected errors.
    pub failed: u64,
    pub errors: Vec<String>,
    /// Time inside `commit()`, nanoseconds, one entry per window of
    /// [`WINDOW_SLICES`] slices since `start_ns`.
    pub commit: Vec<Samples>,
    /// Time inside `read`/`write`, nanoseconds.
    pub access: Samples,
    /// Commits per [`SLICE_NS`] since `start_ns`.
    pub slice_commits: Vec<u32>,
    /// How long each run of the reference work took, nanoseconds.
    pub calibrations: Vec<u32>,
    seed: u64,
    lane: u64,
}

impl LaneResult {
    fn new(seed: u64, lane: u64) -> LaneResult {
        LaneResult {
            start_ns: now_ns(),
            end_ns: 0,
            committed: 0,
            aborted: 0,
            retries: 0,
            failed: 0,
            errors: Vec::new(),
            commit: Vec::new(),
            access: Samples::new(seed, 0x200 + lane),
            slice_commits: Vec::new(),
            calibrations: Vec::new(),
            seed,
            lane,
        }
    }

    fn committed_at(&mut self, at_ns: u64, took_ns: u64) {
        self.committed += 1;
        let idx = ((at_ns - self.start_ns) / SLICE_NS) as usize;
        if self.slice_commits.len() <= idx {
            self.slice_commits.resize(idx + 1, 0);
        }
        self.slice_commits[idx] += 1;
        let window = idx / WINDOW_SLICES;
        while self.commit.len() <= window {
            let stream = 0x1000 * (self.lane + 1) + self.commit.len() as u64;
            self.commit
                .push(Samples::with_cap(self.seed, stream, WINDOW_SAMPLES));
        }
        self.commit[window].push(took_ns);
    }

    fn error(&mut self, what: &str, e: &DbError) {
        self.failed += 1;
        if self.errors.len() < 8 {
            self.errors.push(format!("{what}: {e}"));
        }
    }
}

/// One script being run, across however many attempts it takes.
struct Job {
    script: Script,
    pos: usize,
    stalls: u32,
    /// Stalls this attempt tolerates before it aborts (0 on a solo lane).
    patience: u32,
    attempts: u32,
    /// (page, rank, stamp) of this attempt's successful writes.
    writes: Vec<(u32, u64, u64)>,
    txn: u64,
    root: u32,
    start_ns: u64,
}

/// A job and the open transaction of its current attempt.
struct Slot<T> {
    tx: T,
    job: Job,
}

/// After a conflict abort on a lane with no other slot to run: wait a
/// random time that doubles per attempt (0.5 µs … 0.5 ms), so two threads
/// that keep colliding on the same pages fall out of step. Yields while
/// waiting — the holder may need this core to finish its commit.
fn back_off(rng: &mut Rng, attempts: u32) {
    let until = now_ns() + rng.below(500 << attempts.min(10));
    while now_ns() < until {
        std::thread::yield_now();
    }
}

/// Time one public call, report it to the trace recorder, return its
/// result and duration.
fn timed<R>(name: &'static str, txn: u64, root: u32, op: impl FnOnce() -> R) -> (R, u64, u64) {
    let device = trace::call_start(txn, root);
    let t0 = now_ns();
    let out = op();
    let t1 = now_ns();
    trace::call_end(name, device, t0, t1);
    (out, t1 - t0, t1)
}

fn begin<E: Engine>(db: &E, txn: u64, root: u32) -> E::Txn {
    timed("core.begin", txn, root, || db.begin()).0
}

/// Run `lane` against `db` until `stop`, then drain the in-flight slots.
/// `ranks` is the counter shared by every lane of the run (see [`Oracle`]).
pub fn run_lane<E: Engine>(db: &E, lane: &mut Lane, stop: Stop, ranks: &AtomicU64) -> LaneResult {
    let mut res = LaneResult::new(lane.seed, lane.id);
    let first = lane.started;
    let solo = lane.slots == 1;
    let patience = |rng: &mut Rng| {
        if solo {
            0
        } else {
            MAX_STALLS / 2 + rng.below(u64::from(MAX_STALLS)) as u32
        }
    };
    let mut slots: Vec<Option<Slot<E::Txn>>> = (0..lane.slots.max(1)).map(|_| None).collect();
    let mut spare: Vec<Script> = Vec::new();
    let mut in_flight = 0usize;
    let mut stopping = false;
    let mut calibrated_ns = 0u64;

    loop {
        for cell in &mut slots {
            if cell.is_none() {
                stopping = stopping
                    || match stop {
                        Stop::Count(n) => lane.started - first >= n,
                        Stop::After(ns) => now_ns() >= res.start_ns + ns,
                    };
                if stopping {
                    continue;
                }
                let mut script = spare.pop().unwrap_or_default();
                lane.shape.fill(&mut lane.rng, &mut script);
                let txn = lane.started;
                lane.started += 1;
                let root = trace::txn_start();
                let start_ns = now_ns();
                *cell = Some(Slot {
                    tx: begin(db, txn, root),
                    job: Job {
                        script,
                        pos: 0,
                        stalls: 0,
                        patience: patience(&mut lane.pause),
                        attempts: 1,
                        writes: Vec::new(),
                        txn,
                        root,
                        start_ns,
                    },
                });
                in_flight += 1;
            }
            let Some(Slot { tx, job }) = cell.as_mut() else {
                continue;
            };

            // One access step, or the end of the script.
            let outcome = if let Some(&op) = job.script.ops.get(job.pos) {
                let (r, ns, _) = match op {
                    Op::Read(page) => timed("core.read", job.txn, job.root, || {
                        tx.read(page).map(|_| None)
                    }),
                    Op::Write(page) => {
                        let s = stamp(lane.id, job.txn, job.pos);
                        timed("core.write", job.txn, job.root, || {
                            tx.write(page, &s.to_le_bytes()).map(|()| Some((page, s)))
                        })
                    }
                };
                match r {
                    Ok(wrote) => {
                        if let Some((page, s)) = wrote {
                            // ordering: Relaxed — the counter only has to
                            // hand out increasing numbers; the page lock
                            // the writer holds orders the writers.
                            let rank = ranks.fetch_add(1, Ordering::Relaxed) + 1;
                            job.writes.push((page, rank, s));
                        }
                        res.access.push(ns);
                        job.pos += 1;
                        job.stalls = 0;
                        continue;
                    }
                    Err(DbError::LockConflict { .. }) if job.stalls < job.patience => {
                        job.stalls += 1;
                        continue;
                    }
                    Err(e) => Err(e),
                }
            } else {
                Ok(())
            };

            // The attempt is over: commit, scripted abort, or give way.
            let Some(Slot { tx, mut job }) = cell.take() else {
                continue;
            };
            let mut end = 0;
            let conflict = match outcome {
                Ok(()) if job.script.aborts => {
                    let (r, _, at) = timed("core.abort", job.txn, job.root, || tx.abort());
                    end = at;
                    match r {
                        Ok(()) => res.aborted += 1,
                        Err(e) => res.error("scripted abort", &e),
                    }
                    false
                }
                Ok(()) => {
                    let (r, ns, at) = timed("core.commit", job.txn, job.root, || tx.commit());
                    end = at;
                    match r {
                        Ok(()) => {
                            for &(page, rank, s) in &job.writes {
                                lane.oracle.committed(page, rank, s);
                            }
                            res.committed_at(end, ns);
                            if let Some(calibrator) = &mut lane.calibrator {
                                if end - calibrated_ns >= CALIBRATE_EVERY_NS {
                                    let took = calibrator.run();
                                    calibrated_ns = end + took;
                                    res.calibrations
                                        .push(u32::try_from(took).unwrap_or(u32::MAX));
                                }
                            }
                            if res.committed % TRUNCATE_EVERY == 0 {
                                if let Err(e) = db.truncate_log() {
                                    res.error("truncate_log", &e);
                                }
                            }
                            false
                        }
                        // A commit refused by a lock (the sharded intent
                        // fence) has rolled back already.
                        Err(DbError::LockConflict { .. }) => true,
                        Err(e) => {
                            res.error("commit", &e);
                            false
                        }
                    }
                }
                Err(DbError::LockConflict { .. }) => {
                    match timed("core.abort", job.txn, job.root, || tx.abort()).0 {
                        Ok(()) => true,
                        Err(e) => {
                            res.error("conflict abort", &e);
                            false
                        }
                    }
                }
                Err(e) => {
                    res.error("access", &e);
                    // Best effort: free the locks the broken transaction holds.
                    let _ = tx.abort();
                    false
                }
            };
            if conflict && job.attempts < MAX_ATTEMPTS {
                // Run the same script again in a fresh transaction.
                res.retries += 1;
                if solo {
                    back_off(&mut lane.pause, job.attempts);
                }
                job.pos = 0;
                job.stalls = 0;
                job.patience = patience(&mut lane.pause);
                job.attempts += 1;
                job.writes.clear();
                *cell = Some(Slot {
                    tx: begin(db, job.txn, job.root),
                    job,
                });
                continue;
            }
            if conflict {
                res.failed += 1;
                if res.errors.len() < 8 {
                    res.errors.push(format!(
                        "txn {} gave up after {MAX_ATTEMPTS} attempts",
                        job.txn
                    ));
                }
            } else if end > 0 {
                trace::txn_end(job.txn, job.root, job.start_ns, end);
            }
            in_flight -= 1;
            spare.push(job.script);
        }
        if stopping && in_flight == 0 {
            break;
        }
    }
    res.end_ns = now_ns();
    res
}

/// Counters and histogram sums of every shard, added up by name, plus
/// `log_bytes` and `cross_shard_commits` — one flat table so a phase's work
/// is `after − before`. Histograms appear as `<name>.sum` / `<name>.count`
/// (their buckets are half-decade wide, too coarse for percentiles).
pub fn counters<E: Engine>(db: &E) -> BTreeMap<String, u64> {
    const HISTOGRAMS: [&str; 7] = [
        "engine_commit_nanos",
        "engine_lock_wait_nanos",
        "engine_log_force_nanos",
        "engine_barrier_nanos",
        "group_commit_batch_size",
        "disk_fsync_nanos",
        "disk_queue_residency_nanos",
    ];
    let mut out: BTreeMap<String, u64> = BTreeMap::new();
    for reg in db.registries() {
        for (name, value) in reg.counter_values() {
            let slot = out.entry(name.clone()).or_default();
            // A high-water mark is not additive across shards.
            *slot = if name.ends_with("_hw") {
                value.max(*slot)
            } else {
                *slot + value
            };
        }
        // `histogram()` registers on first use, so only ask for the ones
        // this database already has (no disk_* on the modeled array, no
        // batch sizes without a commit gate).
        let present = reg.histograms_json();
        for name in HISTOGRAMS {
            if present.contains(&format!("\"{name}\":")) {
                let h = reg.histogram(name, &[1]);
                *out.entry(format!("{name}.sum")).or_default() += h.sum();
                *out.entry(format!("{name}.count")).or_default() += h.count();
            }
        }
    }
    out.insert("log_bytes".to_string(), db.log_bytes());
    out.insert("cross_shard_commits".to_string(), db.cross_shard_commits());
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use rda_core::{DbConfig, EngineKind};

    /// A lane for `DbConfig::small_test`'s 32 pages and 8 frames.
    fn small_lane(seed: u64, slots: usize) -> Lane {
        Lane::new(0, seed, Shape::high_update(32, 16, 0.8), slots, 32, true)
    }

    #[test]
    fn oracle_agrees_with_the_engine_after_interleaved_run() {
        let db = Database::open(DbConfig::small_test(EngineKind::Rda));
        assert_eq!(db.data_pages(), 32);
        let ranks = AtomicU64::new(0);
        let mut lane = small_lane(5, 6);
        let res = run_lane(&db, &mut lane, Stop::Count(400), &ranks);
        assert_eq!(res.failed, 0, "{:?}", res.errors);
        assert_eq!(res.committed + res.aborted, 400);
        assert!(res.committed > 300 && res.aborted > 0);
        let in_slices: u64 = res.slice_commits.iter().map(|&n| u64::from(n)).sum();
        assert_eq!(in_slices, res.committed);
        let sampled: u64 = res.commit.iter().map(Samples::seen).sum();
        assert_eq!(sampled, res.committed);
        assert!(!res.calibrations.is_empty(), "calibrated");
        let dump = db.state_dump().expect("dump");
        assert_eq!(lane.oracle.mismatches(&dump), Vec::<String>::new());
        assert_eq!(db.findings().expect("scrub"), Vec::<String>::new());
        assert_eq!(db.active_transactions(), 0);
    }

    #[test]
    fn a_wrong_stamp_is_reported() {
        let db = Database::open(DbConfig::small_test(EngineKind::Rda));
        let ranks = AtomicU64::new(0);
        let mut lane = small_lane(6, 1);
        run_lane(&db, &mut lane, Stop::Count(50), &ranks);
        let dump = db.state_dump().expect("dump");
        assert!(lane.oracle.mismatches(&dump).is_empty());
        // Feed the oracle a commit the engine never saw.
        lane.oracle.committed(3, u64::MAX, 0xDEAD);
        let bad = lane.oracle.mismatches(&dump);
        assert_eq!(bad.len(), 1);
        assert!(bad[0].starts_with("page 3:"), "{bad:?}");
    }

    #[test]
    fn two_lanes_on_a_sharded_engine_merge_into_one_oracle() {
        let cfg = DbConfig::small_test(EngineKind::Rda).shards(2);
        let db = ShardedDb::open(cfg);
        let pages = db.data_pages();
        let ranks = AtomicU64::new(0);
        let mut lanes: Vec<Lane> = (0..2)
            .map(|t| Lane::new(t, 9, Shape::Uniform { pages, per_txn: 3 }, 1, pages, false))
            .collect();
        let results: Vec<LaneResult> = std::thread::scope(|s| {
            let handles: Vec<_> = lanes
                .iter_mut()
                .map(|lane| s.spawn(|| run_lane(&db, lane, Stop::Count(300), &ranks)))
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("lane thread"))
                .collect()
        });
        assert!(results.iter().all(|r| r.failed == 0));
        let mut oracle = lanes[0].oracle.clone();
        oracle.merge(&lanes[1].oracle);
        let dump = db.state_dump().expect("dump");
        assert_eq!(oracle.mismatches(&dump), Vec::<String>::new());
        assert!(db.cross_shard_commits() > 0);
        let c = counters(&db);
        assert!(c["engine_commits_total"] >= 600);
        assert!(!c.contains_key("disk_fsyncs"));
    }

    #[test]
    fn same_seed_same_work() {
        let run = |seed| {
            let db = Database::open(DbConfig::small_test(EngineKind::Rda));
            let ranks = AtomicU64::new(0);
            let mut lane = small_lane(seed, 6);
            let r = run_lane(&db, &mut lane, Stop::Count(200), &ranks);
            (r.committed, r.aborted, db.stats().total_transfers())
        };
        assert_eq!(run(3), run(3));
        assert_ne!(run(3), run(4));
    }
}
