//! The sharded engine: parity groups striped over N independent engines.
//!
//! The paper's recovery unit — a parity group with its twin pair and
//! Dirty_Set entry — belongs to exactly one group, so the engine
//! partitions naturally along group boundaries (cf. *Fast Failure
//! Recovery for Main-Memory DBMSs on Multicores*: both normal processing
//! and recovery parallelize over partitions). [`ShardedDb`] runs one full
//! [`Database`] per shard — its own lock table, Dirty_Set, steal-chain
//! directory, buffer partition, WAL, and parity sub-array — so
//! transactions touching a single shard never contend with other shards'
//! locks, and restart recovery (bitmap scan + undo/redo per group) runs
//! shard-parallel.
//!
//! ## Shard mapping
//!
//! Global parity group `g` lives on shard `g % N` as local group
//! `g / N`; global data page `p` (group `p / n`, member `p % n`) becomes
//! local page `(p / n / N) * n + p % n`. Striping (rather than
//! contiguous ranges) keeps any contiguous key range spread over all
//! shards, which is what makes the disjoint/overlapping perf modes
//! meaningful.
//!
//! ## Cross-shard transactions: 2PC with a durable decision intent
//!
//! A [`ShardedTxn`] lazily opens one sub-transaction per shard it
//! touches. Commit of a multi-shard transaction is two-phase:
//!
//! 1. **Prepared** is implicit: every sub-transaction holds its page
//!    locks and its writes are buffered but undoable (STEAL-protected by
//!    parity twins or the log) — a crash before the decision makes every
//!    sub-transaction an ordinary loser, so abort needs no coordination
//!    (presumed abort).
//! 2. **Decide**: the coordinator stages a [`CrossShardIntent`] — the
//!    transaction's full operation list — in its intent journal. The
//!    journal is modeled NVRAM, exactly like the engine's write-intent
//!    slot (`Durable.intent`): it survives [`ShardedDb::crash`].
//! 3. **Apply**: sub-transactions commit one shard at a time in
//!    ascending shard order (never two engine locks at once; the order
//!    makes the analyze lock-order pass's life easy and deadlock
//!    impossible). Each durable sub-commit is recorded in the intent's
//!    per-shard *done marks* (same modeled NVRAM), then the intent is
//!    cleared once every shard has applied.
//!
//! A crash anywhere after (2) is repaired by [`ShardedDb::recover`]: the
//! per-shard restart recoveries first roll back every undecided
//! sub-transaction, then the coordinator *replays* each staged intent as
//! fresh per-shard transactions and clears it. Replay skips shards whose
//! done mark is set: a durably applied sub-commit released its page
//! locks, so later transactions may have legitimately committed over the
//! same pages — rewriting the intent's recorded images there would lose
//! those acknowledged commits. On the shards replay does touch, nothing
//! newer can have intervened (see the fence below), so rewriting the
//! recorded images is idempotent. The transaction therefore becomes
//! visible atomically: either no shard shows it (undecided) or, after
//! recovery, every shard does (decided).
//!
//! ## In-doubt commits
//!
//! A sub-commit failure after (2) leaves the transaction **in doubt**:
//! decided — it *will* commit — but not applied everywhere.
//! [`ShardedTxn::commit`] then returns [`DbError::CommitInDoubt`]
//! (carrying the global id) rather than an ordinary error, because a
//! caller that mistook the failure for presumed abort and retried would
//! have both the retry and the intent replay applied. Callers observe
//! resolution with [`ShardedDb::in_doubt`] and can finish the
//! application on a live system with [`ShardedDb::resolve_in_doubt`]
//! (crash-free equivalent of the recovery replay).
//!
//! Until an intent is resolved, the pages it has yet to reach are
//! *fenced*: the decided transaction logically still owns them even
//! though its sub-transactions' locks may have been torn down by the
//! failure, so a commit that wrote any such page fails fast with a lock
//! conflict naming the in-doubt transaction as holder. The fence check
//! and intent staging serialize on the journal lock, and any writer of a
//! fenced page necessarily acquired the page lock after the failed
//! sub-commit released it (page locks are held write→commit), which is
//! after staging — so no committed write can slip between the decision
//! and its replay.
//!
//! Scope: `ShardedDb` runs over simulated disks (the `DefaultDisk`
//! backend). Sharding the file-backed storage layout is future work;
//! group commit (the other half of this feature) works on both backends
//! through [`Database`] itself. Note the latency interaction: a
//! cross-shard commit runs its sub-commits sequentially, each through
//! its shard's own commit gate, so the worst-case ack latency of a gated
//! cross-shard commit is the *sum* of the per-shard linger windows
//! (bounded by `touched_shards × window_micros`); the gate's
//! uncontended-leader fast path skips the linger when a shard has no
//! other committer in flight, which is the common cross-shard case.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use rda_array::DataPageId;
use rda_obs::sync::Mutex;
use rda_obs::{merge_shard_snapshots, ShardTaggedEvent};
use rda_wal::TxnId;

use crate::db::{Database, DbStats, Transaction};
use crate::error::{DbError, Result};
use crate::recovery::RecoveryReport;
use crate::{AuditReport, DbConfig, LogGranularity};

/// The page/group ↔ shard arithmetic. Copyable, pure, and test-covered:
/// every global page maps to exactly one (shard, local page) and back.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShardMap {
    /// Number of shards (≥ 1).
    pub shards: u32,
    /// Data pages per parity group (`ArrayConfig::n`).
    pub n: u32,
    /// Total parity groups across all shards.
    pub groups: u32,
}

impl ShardMap {
    /// Which shard owns global parity group `g`.
    #[must_use]
    pub fn shard_of_group(&self, g: u32) -> u32 {
        g % self.shards
    }

    /// Which shard owns global page `p`.
    #[must_use]
    pub fn shard_of_page(&self, p: u32) -> u32 {
        self.shard_of_group(p / self.n)
    }

    /// Global page → (shard, shard-local page).
    #[must_use]
    pub fn to_local(&self, p: u32) -> (u32, u32) {
        let (g, m) = (p / self.n, p % self.n);
        (g % self.shards, (g / self.shards) * self.n + m)
    }

    /// (shard, shard-local page) → global page.
    #[must_use]
    pub fn to_global(&self, shard: u32, local: u32) -> u32 {
        let (lg, m) = (local / self.n, local % self.n);
        (lg * self.shards + shard) * self.n + m
    }

    /// How many parity groups shard `s` owns (striping leaves the first
    /// `groups % shards` shards one group larger).
    #[must_use]
    pub fn groups_in_shard(&self, s: u32) -> u32 {
        (self.groups - s).div_ceil(self.shards)
    }

    /// Total data pages across all shards.
    #[must_use]
    pub fn data_pages(&self) -> u32 {
        self.n * self.groups
    }
}

/// One operation of a cross-shard transaction, recorded (with global
/// page ids) for intent replay.
#[derive(Debug, Clone)]
enum IntentOp {
    /// Full-page write (page granularity).
    Write { page: u32, data: Vec<u8> },
    /// Byte-range update (record granularity).
    Update {
        page: u32,
        offset: usize,
        data: Vec<u8>,
    },
}

impl IntentOp {
    /// The global page this operation touches.
    fn page(&self) -> u32 {
        match self {
            IntentOp::Write { page, .. } | IntentOp::Update { page, .. } => *page,
        }
    }
}

/// A decided-but-not-fully-applied cross-shard commit: the 2PC decision
/// record, staged in the coordinator's modeled-NVRAM journal before any
/// shard applies and cleared after all have.
#[derive(Debug, Clone)]
struct CrossShardIntent {
    /// Global transaction id.
    txn: u64,
    /// The transaction's operations in execution order.
    ops: Vec<IntentOp>,
    /// Shards whose sub-commit of this transaction is already durable.
    /// Intent replay must never rewrite these: their page locks were
    /// released at sub-commit, so later transactions may have committed
    /// over the same pages, and the recorded images are stale for them.
    done: Vec<u32>,
}

/// The 2PC coordinator: global transaction ids, the durable intent
/// journal, and cross-shard traffic counters.
struct Coordinator {
    /// Global transaction-id source.
    // ordering: Relaxed — id allocation only needs uniqueness, which
    // fetch_add's atomicity alone provides; ids are never used to order
    // cross-thread memory accesses.
    next_txn: AtomicU64,
    /// Decided intents awaiting full application (modeled NVRAM: an Arc
    /// shared across [`ShardedDb::crash`], like `Durable.intent`).
    intents: Mutex<Vec<CrossShardIntent>>,
    /// Cross-shard transactions committed / aborted.
    // ordering: Relaxed — monotone statistics counters, read only by
    // `ShardedDb::stats` after the measured activity.
    cross_commits: AtomicU64,
    cross_aborts: AtomicU64,
}

impl Coordinator {
    /// Durably record (modeled NVRAM, like the journal itself) that shard
    /// `s` finished applying `gid`'s sub-commit, so intent replay skips
    /// that shard.
    fn mark_shard_done(&self, gid: u64, s: u32) {
        let mut intents = self.intents.lock();
        if let Some(intent) = intents.iter_mut().find(|i| i.txn == gid) {
            if !intent.done.contains(&s) {
                intent.done.push(s);
            }
        }
    }
}

/// What [`ShardedDb::recover`] reports: each shard's restart-recovery
/// report plus the global ids of decided cross-shard transactions whose
/// intents were replayed (their effects are now visible on all shards).
#[derive(Debug)]
pub struct ShardedRecovery {
    /// Per-shard restart-recovery reports, in shard order.
    pub reports: Vec<RecoveryReport>,
    /// Decided cross-shard transactions applied by intent replay.
    pub replayed: Vec<u64>,
}

/// Per-shard and aggregate physical-I/O statistics.
#[derive(Debug, Clone)]
pub struct ShardedStats {
    /// One [`DbStats`] per shard, in shard order.
    pub per_shard: Vec<DbStats>,
    /// Cross-shard transactions committed through 2PC.
    pub cross_shard_commits: u64,
    /// Cross-shard transactions aborted.
    pub cross_shard_aborts: u64,
}

impl ShardedStats {
    /// Sum of every shard's counters.
    #[must_use]
    pub fn merged(&self) -> DbStats {
        let mut total = DbStats::default();
        for s in &self.per_shard {
            total.accumulate(s);
        }
        total
    }
}

struct ShardedInner {
    shards: Vec<Database>,
    map: ShardMap,
    granularity: LogGranularity,
    coord: Coordinator,
}

impl ShardedInner {
    /// Does a staged intent still own one of `ops`' pages — i.e. the
    /// page's shard has not applied that intent yet? Returns the fenced
    /// page and the owning transaction's global id. See the module docs:
    /// committing over such a page would later be overwritten by intent
    /// replay, losing the commit.
    fn intent_conflict(&self, ops: &[IntentOp]) -> Option<(u32, u64)> {
        if ops.is_empty() {
            return None;
        }
        let intents = self.coord.intents.lock();
        for intent in intents.iter() {
            for op in &intent.ops {
                let page = op.page();
                if intent.done.contains(&self.map.shard_of_page(page)) {
                    continue;
                }
                if ops.iter().any(|mine| mine.page() == page) {
                    return Some((page, intent.txn));
                }
            }
        }
        None
    }
}

/// A database of N independent engine shards keyed by parity group. See
/// the module docs for the mapping and the cross-shard commit protocol.
#[derive(Clone)]
pub struct ShardedDb {
    inner: Arc<ShardedInner>,
}

impl ShardedDb {
    /// Open `cfg.shards` engine shards over simulated disks, striping
    /// `cfg.array.groups` parity groups round-robin. Each shard gets the
    /// configured buffer size as its own partition (no shard ever waits
    /// on another's eviction clock).
    ///
    /// # Panics
    /// Panics if the configuration is incoherent (see
    /// [`DbConfig::validate`], which also checks `1 ≤ shards ≤ groups`).
    #[must_use]
    #[allow(clippy::needless_pass_by_value)] // by-value for symmetry with Database::open
    pub fn open(cfg: DbConfig) -> ShardedDb {
        cfg.validate();
        let map = ShardMap {
            shards: cfg.shards,
            n: cfg.array.n,
            groups: cfg.array.groups,
        };
        let shards = (0..cfg.shards)
            .map(|s| {
                let mut sub = cfg.clone();
                sub.shards = 1;
                sub.array.groups = map.groups_in_shard(s);
                Database::open(sub)
            })
            .collect();
        ShardedDb {
            inner: Arc::new(ShardedInner {
                shards,
                map,
                granularity: cfg.granularity,
                coord: Coordinator {
                    next_txn: AtomicU64::new(0),
                    intents: Mutex::new(Vec::new()),
                    cross_commits: AtomicU64::new(0),
                    cross_aborts: AtomicU64::new(0),
                },
            }),
        }
    }

    /// The page/group ↔ shard arithmetic in use.
    #[must_use]
    pub fn map(&self) -> ShardMap {
        self.inner.map
    }

    /// The logging granularity every shard runs: page databases take
    /// [`ShardedTxn::write`], record databases [`ShardedTxn::update`].
    #[must_use]
    pub fn granularity(&self) -> LogGranularity {
        self.inner.granularity
    }

    /// Number of shards.
    #[must_use]
    pub fn shard_count(&self) -> u32 {
        self.inner.map.shards
    }

    /// Total data pages across all shards.
    #[must_use]
    pub fn data_pages(&self) -> u32 {
        self.inner.map.data_pages()
    }

    /// Direct access to one shard (tests, metrics export).
    ///
    /// # Panics
    /// Panics if `s` is out of range.
    #[must_use]
    pub fn shard(&self, s: u32) -> &Database {
        &self.inner.shards[s as usize]
    }

    /// Begin a (potentially cross-shard) transaction.
    #[must_use]
    pub fn begin(&self) -> ShardedTxn {
        // ordering: Relaxed — global txn ids only need uniqueness.
        let gid = 1 + self.inner.coord.next_txn.fetch_add(1, Ordering::Relaxed);
        ShardedTxn {
            inner: Arc::clone(&self.inner),
            gid,
            subs: (0..self.inner.map.shards).map(|_| None).collect(),
            ops: Vec::new(),
            finished: false,
        }
    }

    /// Read a page outside any transaction.
    ///
    /// # Errors
    /// As [`Database::read_page`].
    pub fn read_page(&self, page: u32) -> Result<Vec<u8>> {
        let (s, local) = self.local(page)?;
        self.inner.shards[s as usize].read_page(local)
    }

    /// Atomic dump of all data pages in global page order (each shard's
    /// dump is transaction-atomic; cross-shard atomicity holds whenever
    /// no cross-shard transaction is mid-commit, i.e. at the quiescent
    /// points the checker samples).
    ///
    /// # Errors
    /// As [`Database::state_dump`].
    pub fn state_dump(&self) -> Result<Vec<Vec<u8>>> {
        let dumps: Vec<Vec<Vec<u8>>> = self
            .inner
            .shards
            .iter()
            .map(Database::state_dump)
            .collect::<Result<_>>()?;
        let mut out = Vec::with_capacity(self.data_pages() as usize);
        for p in 0..self.data_pages() {
            let (s, local) = self.inner.map.to_local(p);
            out.push(dumps[s as usize][local as usize].clone());
        }
        Ok(out)
    }

    /// Simulate a whole-machine crash: every shard loses volatile state.
    /// Decided cross-shard intents survive (modeled NVRAM).
    pub fn crash(&self) {
        for db in &self.inner.shards {
            db.crash();
        }
    }

    /// Shard-parallel restart recovery, then cross-shard intent replay.
    ///
    /// Each shard's analysis → undo → redo → bitmap rebuild touches only
    /// that shard's groups, so the passes run on one thread per shard;
    /// the coordinator then replays decided-but-unapplied cross-shard
    /// intents (idempotently) and clears them.
    ///
    /// # Errors
    /// The first shard recovery or intent-replay error, in shard order.
    /// Staged intents survive an errored replay and are retried by the
    /// next `recover`.
    pub fn recover(&self) -> Result<ShardedRecovery> {
        let results: Vec<Result<RecoveryReport>> = std::thread::scope(|scope| {
            let handles: Vec<_> = self
                .inner
                .shards
                .iter()
                .map(|db| scope.spawn(|| db.recover()))
                .collect();
            handles
                .into_iter()
                .map(|h| match h.join() {
                    Ok(report) => report,
                    // Re-raise a shard thread's panic on the caller.
                    Err(panic) => std::panic::resume_unwind(panic),
                })
                .collect()
        });
        let reports = results.into_iter().collect::<Result<Vec<_>>>()?;
        let replayed = self.replay_intents()?;
        Ok(ShardedRecovery { reports, replayed })
    }

    /// Crash every shard, then recover.
    ///
    /// # Errors
    /// As [`ShardedDb::recover`].
    pub fn crash_and_recover(&self) -> Result<ShardedRecovery> {
        self.crash();
        self.recover()
    }

    /// Deterministic restart recovery: the same passes as
    /// [`ShardedDb::recover`], but one shard at a time in shard order.
    /// The differential checker uses this variant so a planted fault's
    /// "crash at global I/O k" lands at a reproducible point; production
    /// callers should prefer the shard-parallel [`ShardedDb::recover`].
    ///
    /// # Errors
    /// As [`ShardedDb::recover`].
    pub fn recover_sequential(&self) -> Result<ShardedRecovery> {
        let reports = self
            .inner
            .shards
            .iter()
            .map(Database::recover)
            .collect::<Result<Vec<_>>>()?;
        let replayed = self.replay_intents()?;
        Ok(ShardedRecovery { reports, replayed })
    }

    /// Apply and clear every staged cross-shard intent (see module docs).
    /// Shards already recorded done are skipped: their sub-commit was
    /// durable before the failure, and later transactions may have
    /// committed over the same pages since — rewriting the recorded
    /// images there would silently lose those acknowledged commits.
    fn replay_intents(&self) -> Result<Vec<u64>> {
        let staged: Vec<CrossShardIntent> = self.inner.coord.intents.lock().clone();
        let mut replayed = Vec::new();
        for intent in staged {
            for (s, ops) in self.ops_by_shard(&intent.ops) {
                if intent.done.contains(&s) {
                    continue;
                }
                let db = &self.inner.shards[s as usize];
                let mut tx = db.begin();
                for op in ops {
                    match op {
                        IntentOp::Write { page, data } => {
                            let (_, local) = self.inner.map.to_local(*page);
                            tx.write(local, data)?;
                        }
                        IntentOp::Update { page, offset, data } => {
                            let (_, local) = self.inner.map.to_local(*page);
                            tx.update(local, *offset, data)?;
                        }
                    }
                }
                tx.commit()?;
                // Replay is re-entrant: once this shard's replay is
                // durable, a crash before the intent clears must not
                // rewrite the shard a second time.
                self.inner.coord.mark_shard_done(intent.txn, s);
            }
            self.inner
                .coord
                .intents
                .lock()
                .retain(|i| i.txn != intent.txn);
            replayed.push(intent.txn);
        }
        Ok(replayed)
    }

    /// Group an intent's ops by owning shard, ascending shard order,
    /// preserving execution order within a shard.
    fn ops_by_shard<'a>(&self, ops: &'a [IntentOp]) -> Vec<(u32, Vec<&'a IntentOp>)> {
        let mut by_shard: Vec<(u32, Vec<&IntentOp>)> = Vec::new();
        for s in 0..self.inner.map.shards {
            let mine: Vec<&IntentOp> = ops
                .iter()
                .filter(|op| self.inner.map.shard_of_page(op.page()) == s)
                .collect();
            if !mine.is_empty() {
                by_shard.push((s, mine));
            }
        }
        by_shard
    }

    /// Total disks across all shards (shard `s` owns the contiguous
    /// block `[s * per_shard, (s + 1) * per_shard)`).
    #[must_use]
    pub fn disks(&self) -> u16 {
        self.inner.shards[0].disks() * self.inner.map.shards as u16
    }

    /// Disks per shard.
    #[must_use]
    pub fn disks_per_shard(&self) -> u16 {
        self.inner.shards[0].disks()
    }

    /// Fail one disk (global numbering; see [`ShardedDb::disks`]).
    pub fn fail_disk(&self, disk: u16) {
        let per = self.disks_per_shard();
        self.inner.shards[usize::from(disk / per)].fail_disk(disk % per);
    }

    /// Is `disk` (global numbering) currently failed?
    #[must_use]
    pub fn disk_failed(&self, disk: u16) -> bool {
        let per = self.disks_per_shard();
        self.inner.shards[usize::from(disk / per)].disk_failed(disk % per)
    }

    /// Rebuild one failed disk through the committed twins.
    ///
    /// # Errors
    /// As [`Database::media_recover`].
    pub fn media_recover(&self, disk: u16) -> Result<u64> {
        let per = self.disks_per_shard();
        self.inner.shards[usize::from(disk / per)].media_recover(disk % per)
    }

    /// Install one fault hook on every shard. Sharing a single
    /// [`rda_array::FaultHook`] `Arc` gives the hook a *global* billed
    /// I/O counter, so "crash at global I/O k" means the same thing it
    /// does unsharded.
    #[allow(clippy::needless_pass_by_value)] // mirrors Database::install_fault_hook
    pub fn install_fault_hook(&self, hook: Arc<dyn rda_array::FaultHook>) {
        for db in &self.inner.shards {
            db.install_fault_hook(Arc::clone(&hook));
        }
    }

    /// Stop consulting the installed fault hook on every shard.
    pub fn clear_fault_hook(&self) {
        for db in &self.inner.shards {
            db.clear_fault_hook();
        }
    }

    /// XOR-verify parity and twin invariants on every shard. Returns all
    /// violations, each prefixed with its shard.
    ///
    /// # Errors
    /// As [`Database::verify`].
    pub fn verify(&self) -> Result<Vec<String>> {
        let mut out = Vec::new();
        for (s, db) in self.inner.shards.iter().enumerate() {
            for v in db.verify()? {
                out.push(format!("shard {s}: {v}"));
            }
        }
        Ok(out)
    }

    /// Run the read-only invariant audit on every shard, merged into one
    /// report (violations shard-prefixed).
    #[must_use]
    pub fn audit(&self) -> AuditReport {
        let mut merged = AuditReport {
            groups_checked: 0,
            groups_skipped: 0,
            violations: Vec::new(),
        };
        for (s, db) in self.inner.shards.iter().enumerate() {
            let r = db.audit();
            merged.groups_checked += r.groups_checked;
            merged.groups_skipped += r.groups_skipped;
            merged
                .violations
                .extend(r.violations.into_iter().map(|v| format!("shard {s}: {v}")));
        }
        merged
    }

    /// Per-shard and aggregate I/O statistics.
    #[must_use]
    pub fn stats(&self) -> ShardedStats {
        ShardedStats {
            per_shard: self.inner.shards.iter().map(Database::stats).collect(),
            // ordering: Relaxed — statistics counter, see Coordinator.
            cross_shard_commits: self.inner.coord.cross_commits.load(Ordering::Relaxed),
            // ordering: Relaxed — statistics counter, see Coordinator.
            cross_shard_aborts: self.inner.coord.cross_aborts.load(Ordering::Relaxed),
        }
    }

    /// Transactions currently active across all shards (a cross-shard
    /// transaction counts once per shard it touches).
    #[must_use]
    pub fn active_transactions(&self) -> usize {
        self.inner
            .shards
            .iter()
            .map(Database::active_transactions)
            .sum()
    }

    /// Decided cross-shard intents not yet fully applied.
    #[must_use]
    pub fn staged_intents(&self) -> usize {
        self.inner.coord.intents.lock().len()
    }

    /// Is `gid`'s cross-shard commit decided but not yet applied on every
    /// shard it touched? True between a commit that returned
    /// [`DbError::CommitInDoubt`] and the next successful
    /// [`ShardedDb::recover`] / [`ShardedDb::resolve_in_doubt`]. Once
    /// false again, the transaction is durably committed everywhere — an
    /// in-doubt gid never resolves to an abort, because staging the
    /// intent *is* the commit decision.
    #[must_use]
    pub fn in_doubt(&self, gid: u64) -> bool {
        self.inner.coord.intents.lock().iter().any(|i| i.txn == gid)
    }

    /// Finish applying every staged cross-shard intent on a live system —
    /// the crash-free resolution for [`DbError::CommitInDoubt`]. Only
    /// shards whose sub-commit has not completed are touched; returns the
    /// global ids resolved.
    ///
    /// # Errors
    /// The first replay error (a lock conflict with a live transaction,
    /// a shard still awaiting restart recovery, …). Unresolved intents
    /// stay staged for the next attempt or for [`ShardedDb::recover`].
    pub fn resolve_in_doubt(&self) -> Result<Vec<u64>> {
        self.replay_intents()
    }

    /// Every shard's trace, merged into one shard-tagged event stream
    /// (see [`rda_obs::merge_shard_snapshots`]).
    #[must_use]
    pub fn trace_events(&self) -> Vec<ShardTaggedEvent> {
        let snaps: Vec<_> = self
            .inner
            .shards
            .iter()
            .map(Database::trace_snapshot)
            .collect();
        merge_shard_snapshots(&snaps)
    }
}

impl ShardedDb {
    fn local(&self, page: u32) -> Result<(u32, u32)> {
        if page >= self.data_pages() {
            return Err(DbError::BadPage(DataPageId(page)));
        }
        Ok(self.inner.map.to_local(page))
    }
}

/// A transaction over a [`ShardedDb`]: sub-transactions open lazily on
/// the shards it touches. Dropped without commit, every sub-transaction
/// aborts (best-effort), same as [`Transaction`].
pub struct ShardedTxn {
    inner: Arc<ShardedInner>,
    gid: u64,
    subs: Vec<Option<Transaction>>,
    /// Execution-order operation journal (global pages) — becomes the
    /// cross-shard intent payload at commit.
    ops: Vec<IntentOp>,
    finished: bool,
}

impl ShardedTxn {
    /// This transaction's global id (shard-local sub-transaction ids are
    /// an engine detail).
    #[must_use]
    pub fn id(&self) -> u64 {
        self.gid
    }

    /// Which shards this transaction has touched so far.
    #[must_use]
    pub fn shards_touched(&self) -> Vec<u32> {
        (0..self.inner.map.shards)
            .filter(|s| self.subs[*s as usize].is_some())
            .collect()
    }

    fn sub(&mut self, s: u32) -> &mut Transaction {
        let shard = &self.inner.shards[s as usize];
        self.subs[s as usize].get_or_insert_with(|| shard.begin())
    }

    fn route(&self, page: u32) -> Result<(u32, u32)> {
        if page >= self.inner.map.data_pages() {
            return Err(DbError::BadPage(DataPageId(page)));
        }
        Ok(self.inner.map.to_local(page))
    }

    /// Translate a shard-local error back into global page terms.
    fn globalize(&self, s: u32, e: DbError) -> DbError {
        match e {
            DbError::LockConflict { page, holder } => DbError::LockConflict {
                page: DataPageId(self.inner.map.to_global(s, page.0)),
                holder,
            },
            DbError::BadPage(p) => DbError::BadPage(DataPageId(self.inner.map.to_global(s, p.0))),
            other => other,
        }
    }

    /// Read a page (global id).
    ///
    /// # Errors
    /// As [`Transaction::read`], with global page ids in lock conflicts.
    pub fn read(&mut self, page: u32) -> Result<Vec<u8>> {
        let (s, local) = self.route(page)?;
        self.sub(s).read(local).map_err(|e| self.globalize(s, e))
    }

    /// Overwrite a page (global id, page granularity).
    ///
    /// # Errors
    /// As [`Transaction::write`], with global page ids in lock conflicts.
    pub fn write(&mut self, page: u32, data: &[u8]) -> Result<()> {
        let (s, local) = self.route(page)?;
        self.sub(s)
            .write(local, data)
            .map_err(|e| self.globalize(s, e))?;
        self.ops.push(IntentOp::Write {
            page,
            data: data.to_vec(),
        });
        Ok(())
    }

    /// Update a byte range (global page id, record granularity).
    ///
    /// # Errors
    /// As [`Transaction::update`], with global page ids in lock
    /// conflicts.
    pub fn update(&mut self, page: u32, offset: usize, data: &[u8]) -> Result<()> {
        let (s, local) = self.route(page)?;
        self.sub(s)
            .update(local, offset, data)
            .map_err(|e| self.globalize(s, e))?;
        self.ops.push(IntentOp::Update {
            page,
            offset,
            data: data.to_vec(),
        });
        Ok(())
    }

    /// Commit. Single-shard transactions take that shard's ordinary
    /// (group-commit-aware) commit path; multi-shard transactions run
    /// the 2PC protocol from the module docs.
    ///
    /// # Errors
    /// As [`Transaction::commit`], plus [`DbError::LockConflict`] when
    /// one of this transaction's pages is fenced by an in-doubt intent
    /// (the conflict names the in-doubt transaction as holder). A
    /// multi-shard commit that errors after its decision was staged
    /// returns [`DbError::CommitInDoubt`]: the transaction **will**
    /// commit — [`ShardedDb::recover`] or
    /// [`ShardedDb::resolve_in_doubt`] finishes applying it atomically —
    /// so the caller must not retry it.
    pub fn commit(mut self) -> Result<u64> {
        self.finished = true;
        // A decided-but-unapplied intent still logically owns the pages
        // it has yet to reach (module docs, "In-doubt commits"): fail
        // fast like any lock conflict rather than commit data that
        // intent replay would silently overwrite.
        if let Some((page, holder)) = self.inner.intent_conflict(&self.ops) {
            return Err(DbError::LockConflict {
                page: DataPageId(page),
                holder: TxnId(holder),
            });
        }
        let touched: Vec<u32> = (0..self.inner.map.shards)
            .filter(|s| self.subs[*s as usize].is_some())
            .collect();
        match touched.len() {
            0 => Ok(self.gid),
            1 => {
                let s = touched[0];
                if let Some(tx) = self.subs[s as usize].take() {
                    tx.commit().map_err(|e| self.globalize(s, e))?;
                }
                Ok(self.gid)
            }
            _ => {
                // Decide: stage the intent (durable across crash) …
                self.inner.coord.intents.lock().push(CrossShardIntent {
                    txn: self.gid,
                    ops: self.ops.clone(),
                    done: Vec::new(),
                });
                // … then apply shard by shard, ascending, one engine at
                // a time (never two engine locks held at once). Each
                // durable sub-commit is recorded as done so intent
                // replay never rewrites it, and a failed sub-commit does
                // not stop the later shards: every shard that can apply
                // now does, narrowing replay to the shards that failed.
                let mut first_err: Option<DbError> = None;
                for s in touched {
                    if let Some(tx) = self.subs[s as usize].take() {
                        match tx.commit() {
                            Ok(_) => self.inner.coord.mark_shard_done(self.gid, s),
                            Err(e) => {
                                let e = self.globalize(s, e);
                                first_err.get_or_insert(e);
                            }
                        }
                    }
                }
                if let Some(cause) = first_err {
                    // Decided but not applied everywhere: in doubt, not
                    // aborted. The staged intent carries the outcome.
                    return Err(DbError::CommitInDoubt {
                        gid: self.gid,
                        cause: Box::new(cause),
                    });
                }
                self.inner
                    .coord
                    .intents
                    .lock()
                    .retain(|i| i.txn != self.gid);
                let commits = &self.inner.coord.cross_commits;
                // ordering: Relaxed — statistics counter.
                commits.fetch_add(1, Ordering::Relaxed);
                Ok(self.gid)
            }
        }
    }

    /// Abort every sub-transaction. Consumes the handle.
    ///
    /// # Errors
    /// The first sub-abort error, in shard order.
    pub fn abort(mut self) -> Result<()> {
        self.finished = true;
        let mut cross = 0;
        let mut result = Ok(());
        for s in 0..self.inner.map.shards {
            if let Some(tx) = self.subs[s as usize].take() {
                cross += 1;
                if let Err(e) = tx.abort() {
                    if result.is_ok() {
                        result = Err(self.globalize(s, e));
                    }
                }
            }
        }
        if cross > 1 {
            let aborts = &self.inner.coord.cross_aborts;
            // ordering: Relaxed — statistics counter.
            aborts.fetch_add(1, Ordering::Relaxed);
        }
        result
    }
}

impl Drop for ShardedTxn {
    fn drop(&mut self) {
        if !self.finished {
            // Sub-transactions abort through their own Drop impls.
            if self.subs.iter().filter(|s| s.is_some()).count() > 1 {
                let aborts = &self.inner.coord.cross_aborts;
                // ordering: Relaxed — statistics counter.
                aborts.fetch_add(1, Ordering::Relaxed);
            }
            self.subs.clear();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::EngineKind;
    use rda_faults::{FaultInjector, FaultPlan};

    fn cfg(shards: u32) -> DbConfig {
        DbConfig::small_test(EngineKind::Rda).shards(shards)
    }

    #[test]
    fn shard_map_is_a_bijection() {
        for shards in 1..=4 {
            let map = ShardMap {
                shards,
                n: 4,
                groups: 7,
            };
            let mut seen = std::collections::HashSet::new();
            for p in 0..map.data_pages() {
                let (s, local) = map.to_local(p);
                assert!(s < shards);
                assert!(local < map.groups_in_shard(s) * map.n);
                assert_eq!(map.to_global(s, local), p);
                assert!(seen.insert((s, local)), "collision at page {p}");
            }
            let total: u32 = (0..shards).map(|s| map.groups_in_shard(s)).sum();
            assert_eq!(total, map.groups);
        }
    }

    #[test]
    fn single_shard_txns_commit_and_read_back() {
        let db = ShardedDb::open(cfg(4));
        // One txn per shard: page p sits alone in group p/4.
        for p in [0u32, 4, 8, 12] {
            let mut tx = db.begin();
            tx.write(p, format!("page {p}").as_bytes()).unwrap();
            tx.commit().unwrap();
        }
        let s = db.stats();
        assert_eq!(s.cross_shard_commits, 0);
        for p in [0u32, 4, 8, 12] {
            let got = db.read_page(p).unwrap();
            let want = format!("page {p}");
            assert_eq!(&got[..want.len()], want.as_bytes());
        }
        assert!(db.verify().unwrap().is_empty());
        assert!(db.audit().is_clean());
    }

    #[test]
    fn cross_shard_commit_is_atomic_and_counted() {
        let db = ShardedDb::open(cfg(2));
        let mut tx = db.begin();
        tx.write(0, b"alpha").unwrap(); // group 0 → shard 0
        tx.write(4, b"beta").unwrap(); // group 1 → shard 1
        assert_eq!(tx.shards_touched(), vec![0, 1]);
        tx.commit().unwrap();
        assert_eq!(db.stats().cross_shard_commits, 1);
        assert_eq!(db.staged_intents(), 0, "intent cleared after full apply");
        assert_eq!(&db.read_page(0).unwrap()[..5], b"alpha");
        assert_eq!(&db.read_page(4).unwrap()[..4], b"beta");
    }

    #[test]
    fn cross_shard_abort_rolls_back_all_shards() {
        let db = ShardedDb::open(cfg(2));
        let mut tx = db.begin();
        tx.write(0, b"doomed").unwrap();
        tx.write(4, b"doomed").unwrap();
        tx.abort().unwrap();
        assert_eq!(db.stats().cross_shard_aborts, 1);
        assert!(db.read_page(0).unwrap().iter().all(|b| *b == 0));
        assert!(db.read_page(4).unwrap().iter().all(|b| *b == 0));
        assert!(db.audit().is_clean());
    }

    #[test]
    fn crash_before_decision_presumes_abort() {
        let db = ShardedDb::open(cfg(2));
        {
            let mut tx = db.begin();
            tx.write(0, b"undecided").unwrap();
            tx.write(4, b"undecided").unwrap();
            // Crash with the txn in flight: no intent was staged, so both
            // sub-transactions are ordinary losers.
            db.crash();
            drop(tx); // abort-on-drop tolerates the crash
        }
        let rec = db.recover().unwrap();
        assert!(rec.replayed.is_empty());
        assert_eq!(rec.reports.len(), 2);
        assert!(db.read_page(0).unwrap().iter().all(|b| *b == 0));
        assert!(db.read_page(4).unwrap().iter().all(|b| *b == 0));
        assert!(db.audit().is_clean());
    }

    #[test]
    fn decided_intent_replays_after_crash_mid_apply() {
        let db = ShardedDb::open(cfg(2));
        // Warm up so the crash lands inside the cross-shard commit: count
        // the I/Os a no-fault run of the same txn performs, then plant the
        // crash a little before the end of the second sub-commit.
        let warm = ShardedDb::open(cfg(2));
        let mut tx = warm.begin();
        tx.write(0, b"warm").unwrap();
        tx.write(4, b"warm").unwrap();
        let hook = Arc::new(FaultInjector::observer());
        warm.install_fault_hook(hook.clone());
        tx.commit().unwrap();
        let total = hook.ios_seen();
        assert!(total > 2, "cross-shard commit performs physical I/O");

        // Now the real run: crash one I/O before the commit completes.
        db.install_fault_hook(Arc::new(FaultInjector::new(FaultPlan::crash_at(total))));
        let mut tx = db.begin();
        let gid = tx.id();
        tx.write(0, b"decided").unwrap();
        tx.write(4, b"decided").unwrap();
        let err = tx.commit().expect_err("planted crash fires");
        assert!(
            matches!(err, DbError::CommitInDoubt { gid: g, .. } if g == gid),
            "decided commit is in doubt, not aborted: {err:?}"
        );
        assert_eq!(db.staged_intents(), 1, "decision survived the crash");
        assert!(db.in_doubt(gid));

        db.crash();
        let rec = db.recover().unwrap();
        assert_eq!(rec.replayed, vec![gid], "intent replayed");
        assert_eq!(db.staged_intents(), 0);
        assert!(!db.in_doubt(gid), "resolved: committed everywhere");
        // The transaction is visible atomically on both shards.
        assert_eq!(&db.read_page(0).unwrap()[..7], b"decided");
        assert_eq!(&db.read_page(4).unwrap()[..7], b"decided");
        assert!(db.verify().unwrap().is_empty());
        assert!(db.audit().is_clean());
    }

    #[test]
    fn replay_never_rewrites_a_shard_that_committed_before_the_failure() {
        // T1 spans both shards; shard 0's sub-commit lands durably, then
        // shard 1 dies mid-sub-commit (hook on shard 1 only — the rest of
        // the machine stays live). T2 then commits a newer value to T1's
        // shard-0 page. Crash + recover must replay T1's intent onto
        // shard 1 only: shard 0 keeps T2's later acknowledged commit.
        let warm = ShardedDb::open(cfg(2));
        let hook = Arc::new(FaultInjector::observer());
        warm.shard(1).install_fault_hook(hook.clone());
        let mut tx = warm.begin();
        tx.write(0, b"warm-img").unwrap();
        tx.write(4, b"warm-img").unwrap();
        tx.commit().unwrap();
        let shard1_ios = hook.ios_seen();
        assert!(shard1_ios > 0, "shard 1's sub-commit performs I/O");

        let db = ShardedDb::open(cfg(2));
        let crash = FaultInjector::new(FaultPlan::crash_at(shard1_ios));
        db.shard(1).install_fault_hook(Arc::new(crash));
        let mut t1 = db.begin();
        let gid = t1.id();
        t1.write(0, b"t1-image").unwrap();
        t1.write(4, b"t1-image").unwrap();
        let err = t1.commit().expect_err("shard 1 dies mid-apply");
        assert!(matches!(err, DbError::CommitInDoubt { gid: g, .. } if g == gid));
        assert!(db.in_doubt(gid));

        // Shard 0 is live and T1's sub-commit there is durable (and
        // marked done), so its pages are not fenced: T2's commit is
        // acknowledged.
        let mut t2 = db.begin();
        t2.write(0, b"t2-newer").unwrap();
        t2.commit().unwrap();

        db.crash();
        let rec = db.recover().unwrap();
        assert_eq!(rec.replayed, vec![gid]);
        assert!(!db.in_doubt(gid));
        assert_eq!(
            &db.read_page(0).unwrap()[..8],
            b"t2-newer",
            "replay must not resurrect T1's stale shard-0 image over T2"
        );
        assert_eq!(&db.read_page(4).unwrap()[..8], b"t1-image");
        assert!(db.verify().unwrap().is_empty());
        assert!(db.audit().is_clean());
    }

    #[test]
    fn in_doubt_intent_fences_unapplied_pages_until_resolved() {
        let db = ShardedDb::open(cfg(2));
        // Hand-stage a decided intent as the apply phase would leave it
        // after a live-shard failure: page 0 (shard 0) applied, page 4
        // (shard 1) not.
        db.inner.coord.intents.lock().push(CrossShardIntent {
            txn: 777,
            ops: vec![
                IntentOp::Write {
                    page: 0,
                    data: b"decided0".to_vec(),
                },
                IntentOp::Write {
                    page: 4,
                    data: b"decided4".to_vec(),
                },
            ],
            done: vec![0],
        });
        assert!(db.in_doubt(777));

        // The unapplied half still owns page 4: commits over it fail
        // fast, naming the in-doubt transaction as holder.
        let mut tx = db.begin();
        tx.write(4, b"racer").unwrap();
        let err = tx.commit().expect_err("fenced by the staged intent");
        assert!(
            matches!(err, DbError::LockConflict { page, holder } if page.0 == 4 && holder.0 == 777),
            "fence surfaces as a lock conflict: {err:?}"
        );
        // The applied half's page is free: later commits there are
        // legitimate and must survive resolution.
        let mut tx = db.begin();
        tx.write(0, b"survivor").unwrap();
        tx.commit().unwrap();

        // Live resolution applies only the missing half and lifts the
        // fence.
        assert_eq!(db.resolve_in_doubt().unwrap(), vec![777]);
        assert!(!db.in_doubt(777));
        assert_eq!(db.staged_intents(), 0);
        assert_eq!(
            &db.read_page(0).unwrap()[..8],
            b"survivor",
            "done shard untouched by resolution"
        );
        assert_eq!(&db.read_page(4).unwrap()[..8], b"decided4");
        let mut tx = db.begin();
        tx.write(4, b"after").unwrap();
        tx.commit().unwrap();
        assert!(db.audit().is_clean());
    }

    #[test]
    fn sharded_state_dump_matches_reads() {
        let db = ShardedDb::open(cfg(3));
        let mut tx = db.begin();
        for p in 0..db.data_pages() {
            tx.write(p, &[p as u8 + 1]).unwrap();
        }
        tx.commit().unwrap();
        let dump = db.state_dump().unwrap();
        assert_eq!(dump.len(), db.data_pages() as usize);
        for p in 0..db.data_pages() {
            assert_eq!(dump[p as usize][0], p as u8 + 1);
            assert_eq!(db.read_page(p).unwrap()[0], p as u8 + 1);
        }
    }

    #[test]
    fn fail_disk_and_media_recover_route_to_owning_shard() {
        let db = ShardedDb::open(cfg(2));
        let mut tx = db.begin();
        tx.write(0, b"survives").unwrap();
        tx.commit().unwrap();
        // Fail a disk of shard 1 (global ids map contiguously).
        let disk = db.disks_per_shard(); // first disk of shard 1
        db.fail_disk(disk);
        // Shard 0's data is untouched; rebuild shard 1's disk.
        assert_eq!(&db.read_page(0).unwrap()[..8], b"survives");
        db.shard(1).replace_disk_blank(0);
        db.media_recover(disk).unwrap();
        assert!(db.audit().is_clean());
    }
}
