//! Multi-threaded driver for the sharded engine: `P` OS threads execute
//! update transactions concurrently against one [`ShardedDb`].
//!
//! Two swept key modes make the contention story explicit:
//!
//! * [`ShardedKeyMode::Disjoint`] — thread `t` draws pages only from
//!   parity groups `g ≡ t (mod threads)`. With `threads == shards`
//!   every transaction stays single-shard and conflict-free: the
//!   lock-free-across-shards fast path, the scaling headline.
//! * [`ShardedKeyMode::Overlapping`] — every thread draws from the full
//!   page range, so transactions conflict on hot pages and routinely
//!   span shards, exercising the 2PC coordinator and the lock tables
//!   under real contention.
//!
//! Each worker measures its own commit-ack wall-clock (which includes
//! any group-commit gate wait), and the merged run reports exact
//! p50/p99 over every committed transaction — the driver-side
//! complement of the engine's `engine_commit_nanos` /
//! `group_commit_batch_size` histograms on the rda-obs registry.

use rda_core::{DbConfig, DbError, ShardedDb};
use rda_obs::rng::Rng;
use std::sync::mpsc;
use std::time::Instant;

/// How worker threads pick the pages a transaction touches.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ShardedKeyMode {
    /// Thread `t` only touches parity groups `g ≡ t (mod threads)` —
    /// per-thread key ranges are disjoint, transactions never conflict
    /// and (when `threads == shards`) never cross shards.
    Disjoint,
    /// Every thread draws uniformly from all pages — conflicts and
    /// cross-shard transactions happen at natural rates.
    Overlapping,
}

impl ShardedKeyMode {
    /// Stable name for reports.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            ShardedKeyMode::Disjoint => "disjoint",
            ShardedKeyMode::Overlapping => "overlapping",
        }
    }
}

/// Result of one sharded threaded run.
#[derive(Debug, Clone)]
pub struct ShardedRunResult {
    /// Committed transactions (sums `per_thread_commits`).
    pub committed: u64,
    /// Transactions given up after repeated lock conflicts.
    pub conflict_aborts: u64,
    /// Individual lock-conflict retries (a transaction may retry several
    /// times and still commit).
    pub conflict_retries: u64,
    /// Transactions abandoned on a non-conflict engine error.
    pub failures: u64,
    /// The first failure's message, when any occurred.
    pub first_failure: Option<String>,
    /// Cross-shard (2PC) commits, from the coordinator's counters.
    pub cross_shard_commits: u64,
    /// Cross-shard aborts, from the coordinator's counters.
    pub cross_shard_aborts: u64,
    /// Group-commit batches retired across all shards.
    pub gc_batches: u64,
    /// Transactions those batches covered.
    pub gc_txns: u64,
    /// Commits per worker thread.
    pub per_thread_commits: Vec<u64>,
    /// Conflict retries per worker thread.
    pub per_thread_retries: Vec<u64>,
    /// Exact p50 commit-ack latency (nanoseconds) over all commits.
    pub p50_commit_ns: u64,
    /// Exact p99 commit-ack latency (nanoseconds) over all commits.
    pub p99_commit_ns: u64,
    /// Wall-clock of the whole run, nanoseconds.
    pub elapsed_ns: u64,
}

impl ShardedRunResult {
    /// Committed transactions per wall-clock second.
    #[must_use]
    pub fn txns_per_sec(&self) -> f64 {
        if self.elapsed_ns == 0 {
            return 0.0;
        }
        self.committed as f64 / (self.elapsed_ns as f64 / 1e9)
    }

    /// Conflict retries per *attempted* transaction (retries included).
    #[must_use]
    pub fn conflict_rate(&self) -> f64 {
        let attempts = self.committed + self.conflict_aborts + self.failures;
        if attempts == 0 {
            return 0.0;
        }
        self.conflict_retries as f64 / attempts as f64
    }

    /// Share of commits that crossed shards (2PC).
    #[must_use]
    pub fn cross_shard_commit_rate(&self) -> f64 {
        if self.committed == 0 {
            return 0.0;
        }
        self.cross_shard_commits as f64 / self.committed as f64
    }
}

/// Run `txns_per_thread` update transactions on each of `threads` OS
/// threads sharing one sharded database. Every transaction writes
/// `pages_per_txn` distinct pages chosen per `mode`, retrying the whole
/// transaction on lock conflicts (bounded), and times its own
/// `commit()` call.
#[must_use]
pub fn run_sharded_threaded(
    cfg: &DbConfig,
    threads: usize,
    txns_per_thread: usize,
    pages_per_txn: usize,
    mode: ShardedKeyMode,
    seed: u64,
) -> ShardedRunResult {
    type Tally = (usize, u64, u64, u64, Option<String>, Vec<u64>);

    let db = ShardedDb::open(cfg.clone());
    let map = db.map();
    let threads = threads.max(1);
    let (tx_out, rx_out) = mpsc::channel::<Tally>();
    let started = Instant::now();
    std::thread::scope(|scope| {
        for t in 0..threads {
            let db = &db;
            let tx_out = tx_out.clone();
            scope.spawn(move || {
                let mut rng = Rng::new(rda_obs::rng::mix(seed, t as u64));
                let (mut committed, mut retries, mut failures) = (0u64, 0u64, 0u64);
                let mut first_failure = None;
                let mut latencies: Vec<u64> = Vec::with_capacity(txns_per_thread);
                let mut pages: Vec<u32> = Vec::with_capacity(pages_per_txn);
                'txns: for _ in 0..txns_per_thread {
                    // Pick the page set once; retries replay the same set.
                    pages.clear();
                    while pages.len() < pages_per_txn {
                        let r = rng.next_u64();
                        let page = match mode {
                            ShardedKeyMode::Overlapping => (r % u64::from(map.data_pages())) as u32,
                            ShardedKeyMode::Disjoint => {
                                // Groups ≡ t (mod threads), any offset.
                                let eligible = (map.groups + (threads as u32)
                                    - 1
                                    - (t as u32) % (threads as u32))
                                    / (threads as u32);
                                let g = (t as u32) % (threads as u32)
                                    + (threads as u32) * ((r % u64::from(eligible.max(1))) as u32);
                                g * map.n + ((r >> 32) % u64::from(map.n)) as u32
                            }
                        };
                        if !pages.contains(&page) {
                            pages.push(page);
                        }
                    }
                    'attempt: for _attempt in 0..64 {
                        let mut tx = db.begin();
                        for &page in &pages {
                            let value = (rng.next_u64() as u8) | 1;
                            match tx.write(page, &[value]) {
                                Ok(()) => {}
                                Err(DbError::LockConflict { .. }) => {
                                    retries += 1;
                                    drop(tx);
                                    std::thread::yield_now();
                                    continue 'attempt;
                                }
                                Err(e) => {
                                    failures += 1;
                                    first_failure.get_or_insert(format!("write failed: {e}"));
                                    continue 'txns;
                                }
                            }
                        }
                        let t0 = Instant::now();
                        match tx.commit() {
                            Ok(_) => {
                                latencies.push(
                                    u64::try_from(t0.elapsed().as_nanos()).unwrap_or(u64::MAX),
                                );
                                committed += 1;
                                continue 'txns;
                            }
                            Err(DbError::LockConflict { .. }) => {
                                retries += 1;
                                std::thread::yield_now();
                            }
                            Err(e) => {
                                failures += 1;
                                first_failure.get_or_insert(format!("commit failed: {e}"));
                                continue 'txns;
                            }
                        }
                    }
                    // 64 attempts exhausted: a conflict abort, tallied by
                    // the receiver as txns_per_thread - committed - failures.
                }
                tx_out
                    .send((t, committed, retries, failures, first_failure, latencies))
                    .expect("main alive");
            });
        }
        drop(tx_out);
    });
    let elapsed_ns = u64::try_from(started.elapsed().as_nanos()).unwrap_or(u64::MAX);

    let mut per_thread_commits = vec![0u64; threads];
    let mut per_thread_retries = vec![0u64; threads];
    let (mut committed, mut retries, mut failures) = (0u64, 0u64, 0u64);
    let mut first_failure = None;
    let mut latencies: Vec<u64> = Vec::new();
    while let Ok((t, c, r, f, msg, lat)) = rx_out.recv() {
        per_thread_commits[t] = c;
        per_thread_retries[t] = r;
        committed += c;
        retries += r;
        failures += f;
        if let Some(msg) = msg {
            first_failure.get_or_insert(msg);
        }
        latencies.extend(lat);
    }
    latencies.sort_unstable();
    let quantile = |q: f64| -> u64 {
        if latencies.is_empty() {
            return 0;
        }
        let idx = ((latencies.len() - 1) as f64 * q).round() as usize;
        latencies[idx.min(latencies.len() - 1)]
    };

    let stats = db.stats();
    let mut gc_batches = 0;
    let mut gc_txns = 0;
    for s in 0..db.shard_count() {
        let m = db.shard(s).metrics();
        gc_batches += m.counter("group_commit_batches_total").get();
        gc_txns += m.counter("group_commit_txns_total").get();
    }
    let total = (txns_per_thread as u64) * (threads as u64);
    ShardedRunResult {
        committed,
        conflict_aborts: total - committed - failures,
        conflict_retries: retries,
        failures,
        first_failure,
        cross_shard_commits: stats.cross_shard_commits,
        cross_shard_aborts: stats.cross_shard_aborts,
        gc_batches,
        gc_txns,
        per_thread_commits,
        per_thread_retries,
        p50_commit_ns: quantile(0.50),
        p99_commit_ns: quantile(0.99),
        elapsed_ns,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rda_core::{EngineKind, GroupCommit};

    fn cfg(shards: u32, gc: bool) -> DbConfig {
        let mut c = DbConfig::paper_like(EngineKind::Rda, 320, 64).shards(shards);
        if gc {
            c = c.group_commit(GroupCommit {
                window_micros: 50,
                max_batch: 16,
            });
        }
        c
    }

    #[test]
    fn disjoint_threads_never_conflict() {
        let result =
            run_sharded_threaded(&cfg(4, false), 4, 40, 3, ShardedKeyMode::Disjoint, 0x5EED);
        assert_eq!(result.committed, 160, "{result:?}");
        assert_eq!(result.conflict_retries, 0, "{result:?}");
        assert_eq!(result.failures, 0, "{:?}", result.first_failure);
        // threads == shards and groups stripe by thread: single-shard.
        assert_eq!(result.cross_shard_commits, 0, "{result:?}");
        assert!(result.p99_commit_ns >= result.p50_commit_ns);
    }

    #[test]
    fn overlapping_threads_cross_shards_and_survive() {
        let result =
            run_sharded_threaded(&cfg(4, true), 4, 40, 3, ShardedKeyMode::Overlapping, 0x5EED);
        assert_eq!(result.failures, 0, "{:?}", result.first_failure);
        assert!(result.committed >= 150, "{result:?}");
        assert!(
            result.cross_shard_commits > 0,
            "overlapping pages never crossed shards: {result:?}"
        );
        assert!(result.gc_batches > 0, "gate never batched: {result:?}");
        assert!(result.gc_txns >= result.gc_batches);
    }
}
