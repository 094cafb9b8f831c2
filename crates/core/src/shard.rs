//! Shards: parity groups striped over N engines under one [`Database`].
//!
//! The paper's recovery unit — a parity group with its twin pair and
//! Dirty_Set entry — belongs to exactly one group, so the engine
//! partitions naturally along group boundaries (cf. *Fast Failure
//! Recovery for Main-Memory DBMSs on Multicores*: both normal processing
//! and recovery parallelize over partitions). A [`Database`] opened with
//! `cfg.shards = N` runs N engines, each with its own lock table,
//! Dirty_Set, steal-chain directory, buffer partition, WAL and parity
//! sub-array, so transactions touching a single shard never contend with
//! other shards' locks, and restart recovery (bitmap scan + undo/redo per
//! group) runs shard-parallel. One shard is the classic single engine
//! and skips the rest of this module: its transactions record no intent
//! payload and never consult the coordinator.
//!
//! ## Shard mapping
//!
//! Global parity group `g` lives on shard `g % N` as local group
//! `g / N`; global data page `p` (group `p / n`, member `p % n`) becomes
//! local page `(p / n / N) * n + p % n`. Striping (rather than
//! contiguous ranges) keeps any contiguous key range spread over all
//! shards, which is what makes the disjoint/overlapping perf modes
//! meaningful. Disks number globally too: shard `s` owns the contiguous
//! block `[s * per_shard, (s + 1) * per_shard)`.
//!
//! ## Cross-shard transactions: 2PC with a durable decision intent
//!
//! A [`Transaction`] lazily opens one engine transaction per shard it
//! touches. Commit of a multi-shard transaction is two-phase:
//!
//! 1. **Prepared** is implicit: every engine transaction holds its page
//!    locks and its writes are buffered but undoable (STEAL-protected by
//!    parity twins or the log) — a crash before the decision makes every
//!    one an ordinary loser, so abort needs no coordination (presumed
//!    abort).
//! 2. **Decide**: the coordinator stages a [`CrossShardIntent`] — the
//!    transaction's full operation list — in its intent journal. The
//!    journal is modeled NVRAM, exactly like the engine's write-intent
//!    slot (`Durable.intent`): it survives [`Database::crash`].
//! 3. **Apply**: engine transactions commit one shard at a time in
//!    ascending shard order (never two engine locks at once; the order
//!    makes the analyze lock-order pass's life easy and deadlock
//!    impossible). Each durable sub-commit is recorded in the intent's
//!    per-shard *done marks* (same modeled NVRAM), then the intent is
//!    cleared once every shard has applied.
//!
//! A crash anywhere after (2) is repaired by [`Database::recover`]: the
//! per-shard restart recoveries first roll back every undecided engine
//! transaction, then the coordinator *replays* each staged intent as
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
//! [`Transaction::commit`] then returns [`DbError::CommitInDoubt`]
//! (carrying the global id) rather than an ordinary error, because a
//! caller that mistook the failure for presumed abort and retried would
//! have both the retry and the intent replay applied. Callers observe
//! resolution with [`Database::in_doubt`] and can finish the application
//! on a live system with [`Database::resolve_in_doubt`] (crash-free
//! equivalent of the recovery replay).
//!
//! Until an intent is resolved, the pages it has yet to reach are
//! *fenced*: the decided transaction logically still owns them even
//! though its engine transactions' locks may have been torn down by the
//! failure, so a commit that wrote any such page fails fast with a lock
//! conflict naming the in-doubt transaction as holder. The fence check
//! and intent staging serialize on the journal lock, and any writer of a
//! fenced page necessarily acquired the page lock after the failed
//! sub-commit released it (page locks are held write→commit), which is
//! after staging — so no committed write can slip between the decision
//! and its replay.
//!
//! Scope: more than one shard runs over simulated disks only
//! ([`Database::open`]); a file-backed database is one shard until each
//! shard has its own `wal.journal` and `meta.journal`. A cross-shard
//! commit runs its sub-commits sequentially, each through its shard's own
//! commit gate, so the worst-case ack latency of a gated cross-shard
//! commit is the *sum* of the per-shard windows (bounded by
//! `touched_shards × window_micros`); a shard with no other committer in
//! flight closes the batch at once and the committer executes it itself,
//! which is the common cross-shard case.

use std::ops::Deref;
use std::sync::atomic::{AtomicU64, Ordering};

use rda_array::{BlockDevice, DataPageId};
use rda_obs::sync::Mutex;
use rda_wal::TxnId;

use crate::db::{Database, Transaction};
use crate::error::{DbError, Result};
use crate::DbConfig;

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
    pub(crate) fn of(cfg: &DbConfig) -> ShardMap {
        ShardMap {
            shards: cfg.shards,
            n: cfg.array.n,
            groups: cfg.array.groups,
        }
    }

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

    /// Translate shard `s`'s error back into global page numbers.
    pub(crate) fn globalize(&self, s: u32, e: DbError) -> DbError {
        match e {
            DbError::LockConflict { page, holder } => DbError::LockConflict {
                page: DataPageId(self.to_global(s, page.0)),
                holder,
            },
            DbError::BadPage(p) => DbError::BadPage(DataPageId(self.to_global(s, p.0))),
            other => other,
        }
    }
}

/// One operation of a cross-shard transaction, recorded (with global
/// page ids) for intent replay.
#[derive(Debug, Clone)]
pub(crate) enum IntentOp {
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
#[derive(Default)]
pub(crate) struct Coordinator {
    /// Global transaction-id source.
    // ordering: Relaxed — id allocation only needs uniqueness, which
    // fetch_add's atomicity alone provides; ids are never used to order
    // cross-thread memory accesses.
    next_txn: AtomicU64,
    /// Decided intents awaiting full application (modeled NVRAM: shared
    /// across [`Database::crash`], like `Durable.intent`).
    intents: Mutex<Vec<CrossShardIntent>>,
    /// Cross-shard transactions committed / aborted.
    // ordering: Relaxed — monotone statistics counters, read only by
    // `Database::stats` after the measured activity.
    pub(crate) cross_commits: AtomicU64,
    pub(crate) cross_aborts: AtomicU64,
}

impl Coordinator {
    pub(crate) fn next_gid(&self) -> u64 {
        // ordering: Relaxed — global txn ids only need uniqueness.
        1 + self.next_txn.fetch_add(1, Ordering::Relaxed)
    }

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

    /// Refuse a commit that wrote a page a staged intent still owns —
    /// the page's shard has not applied that intent yet — with a lock
    /// conflict naming the intent's transaction. See the module docs:
    /// committing over such a page would later be overwritten by intent
    /// replay, losing the commit.
    pub(crate) fn fence(&self, map: &ShardMap, ops: &[IntentOp]) -> Result<()> {
        if ops.is_empty() {
            return Ok(());
        }
        let intents = self.intents.lock();
        for intent in intents.iter() {
            for op in &intent.ops {
                let page = op.page();
                if !intent.done.contains(&map.shard_of_page(page))
                    && ops.iter().any(|mine| mine.page() == page)
                {
                    return Err(DbError::LockConflict {
                        page: DataPageId(page),
                        holder: TxnId(intent.txn),
                    });
                }
            }
        }
        Ok(())
    }
}

impl<D: BlockDevice> Transaction<D> {
    /// The 2PC of the module docs: stage the intent, then commit shard by
    /// shard, ascending. Each durable sub-commit is marked done so intent
    /// replay never rewrites it, and a failed sub-commit does not stop the
    /// later shards: every shard that can apply now does, narrowing replay
    /// to the shards that failed.
    pub(crate) fn commit_cross(&mut self) -> Result<TxnId> {
        let db = &self.db;
        db.coord.intents.lock().push(CrossShardIntent {
            txn: self.gid,
            ops: std::mem::take(&mut self.ops),
            done: Vec::new(),
        });
        let mut subs = std::mem::take(&mut self.more);
        subs.extend(self.first);
        subs.sort_unstable();
        let mut first_err: Option<DbError> = None;
        for (s, txn) in subs {
            match db.shards[s as usize].commit(txn) {
                Ok(()) => db.coord.mark_shard_done(self.gid, s),
                Err(e) => {
                    first_err.get_or_insert(db.map.globalize(s, e));
                }
            }
        }
        if let Some(cause) = first_err {
            // Decided but not applied everywhere: in doubt, not aborted.
            // The staged intent carries the outcome.
            return Err(DbError::CommitInDoubt {
                gid: self.gid,
                cause: Box::new(cause),
            });
        }
        db.coord.intents.lock().retain(|i| i.txn != self.gid);
        // ordering: Relaxed — statistics counter.
        db.coord.cross_commits.fetch_add(1, Ordering::Relaxed);
        Ok(TxnId(self.gid))
    }
}

impl<D: BlockDevice> Database<D> {
    /// Decided cross-shard intents not yet fully applied.
    #[must_use]
    pub fn staged_intents(&self) -> usize {
        self.inner.coord.intents.lock().len()
    }

    /// Is `gid`'s cross-shard commit decided but not yet applied on every
    /// shard it touched? True between a commit that returned
    /// [`DbError::CommitInDoubt`] and the next successful
    /// [`Database::recover`] / [`Database::resolve_in_doubt`]. Once
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
    /// stay staged for the next attempt or for [`Database::recover`].
    pub fn resolve_in_doubt(&self) -> Result<Vec<u64>> {
        self.replay_intents()
    }

    /// Apply and clear every staged cross-shard intent (see module docs),
    /// skipping the shards already marked done.
    pub(crate) fn replay_intents(&self) -> Result<Vec<u64>> {
        let staged: Vec<CrossShardIntent> = self.inner.coord.intents.lock().clone();
        let mut replayed = Vec::new();
        for intent in staged {
            for s in 0..self.inner.map.shards {
                let ops: Vec<&IntentOp> = (intent.ops.iter())
                    .filter(|op| self.inner.map.shard_of_page(op.page()) == s)
                    .collect();
                if ops.is_empty() || intent.done.contains(&s) {
                    continue;
                }
                self.replay_on(s, intent.txn, &ops)?;
                // Replay is re-entrant: once this shard's replay is
                // durable, a crash before the intent clears must not
                // rewrite the shard a second time.
                self.inner.coord.mark_shard_done(intent.txn, s);
            }
            (self.inner.coord.intents.lock()).retain(|i| i.txn != intent.txn);
            replayed.push(intent.txn);
        }
        Ok(replayed)
    }

    /// Apply `ops` (all on shard `s`) of global transaction `gid` as one
    /// fresh engine transaction.
    fn replay_on(&self, s: u32, gid: u64, ops: &[&IntentOp]) -> Result<()> {
        let shard = self.shard(s);
        let txn = shard.engine.lock().begin(gid)?;
        let applied = ops.iter().try_for_each(|op| {
            let (_, local) = self.inner.map.to_local(op.page());
            let mut engine = shard.engine.lock();
            match op {
                IntentOp::Write { data, .. } => engine.txn_write(txn, DataPageId(local), data),
                IntentOp::Update { offset, data, .. } => {
                    engine.txn_update(txn, DataPageId(local), *offset, data)
                }
            }
        });
        match applied {
            Ok(()) => shard.commit(txn),
            Err(e) => {
                let _ = shard.engine.lock().txn_abort(txn);
                Err(e)
            }
        }
    }
}

/// The name `benchmark/src/drive.rs` gives a simulated multi-shard
/// [`Database`]: it implements its engine traits once for `Database<D>`
/// and once for this type, so this must stay a distinct type (not an
/// alias) while the benchmark names it. Nothing else uses it.
#[derive(Clone)]
pub struct ShardedDb(Database);

// Each method forwards to the `Database` method of the same name.
#[allow(missing_docs)]
impl ShardedDb {
    #[must_use]
    pub fn open(cfg: DbConfig) -> ShardedDb {
        ShardedDb(Database::open(cfg))
    }

    #[must_use]
    pub fn begin(&self) -> ShardedTxn {
        ShardedTxn(self.0.begin())
    }

    /// # Errors
    /// As [`Database::state_dump`].
    pub fn state_dump(&self) -> Result<Vec<Vec<u8>>> {
        self.0.state_dump()
    }
}

impl Deref for ShardedDb {
    type Target = Database;
    fn deref(&self) -> &Database {
        &self.0
    }
}

/// The benchmark's name for a [`Transaction`] of a `ShardedDb`.
pub struct ShardedTxn(Transaction);

// Each method forwards to the `Transaction` method of the same name.
impl ShardedTxn {
    /// # Errors
    /// As [`Transaction::read`].
    pub fn read(&mut self, page: u32) -> Result<Vec<u8>> {
        self.0.read(page)
    }

    /// # Errors
    /// As [`Transaction::write`].
    pub fn write(&mut self, page: u32, data: &[u8]) -> Result<()> {
        self.0.write(page, data)
    }

    /// # Errors
    /// As [`Transaction::commit`].
    pub fn commit(self) -> Result<TxnId> {
        self.0.commit()
    }

    /// # Errors
    /// As [`Transaction::abort`].
    pub fn abort(self) -> Result<()> {
        self.0.abort()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::EngineKind;
    use rda_array::{FaultInjector, FaultPlan};
    use std::sync::Arc;

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
        for shards in 1..=4 {
            let db = Database::open(cfg(shards));
            assert_eq!(db.shard_count(), shards);
            // One txn per group: page p sits alone in group p/4.
            for p in [0u32, 4, 8, 12] {
                let mut tx = db.begin();
                tx.write(p, format!("page {p}").as_bytes()).unwrap();
                assert_eq!(tx.shards_touched().len(), 1);
                tx.commit().unwrap();
            }
            assert_eq!(db.stats().cross_shard_commits, 0);
            for p in [0u32, 4, 8, 12] {
                let got = db.read_page(p).unwrap();
                let want = format!("page {p}");
                assert_eq!(&got[..want.len()], want.as_bytes());
            }
            assert!(db.verify().unwrap().is_empty());
            assert!(db.audit().is_clean());
        }
    }

    #[test]
    fn cross_shard_commit_is_atomic_and_counted() {
        for shards in 2..=4 {
            let db = Database::open(cfg(shards));
            let mut tx = db.begin();
            tx.write(4, b"beta").unwrap(); // group 1 → shard 1
            tx.write(0, b"alpha").unwrap(); // group 0 → shard 0
            assert_eq!(tx.shards_touched(), vec![0, 1]);
            tx.commit().unwrap();
            assert_eq!(db.stats().cross_shard_commits, 1);
            assert_eq!(db.staged_intents(), 0, "intent cleared after full apply");
            assert_eq!(&db.read_page(0).unwrap()[..5], b"alpha");
            assert_eq!(&db.read_page(4).unwrap()[..4], b"beta");
        }
    }

    #[test]
    fn cross_shard_abort_rolls_back_all_shards() {
        for shards in 2..=4 {
            let db = Database::open(cfg(shards));
            let mut tx = db.begin();
            tx.write(0, b"doomed").unwrap();
            tx.write(4, b"doomed").unwrap();
            tx.abort().unwrap();
            assert_eq!(db.stats().cross_shard_aborts, 1);
            assert!(db.read_page(0).unwrap().iter().all(|b| *b == 0));
            assert!(db.read_page(4).unwrap().iter().all(|b| *b == 0));
            assert_eq!(db.active_transactions(), 0);
            assert!(db.audit().is_clean());
        }
    }

    #[test]
    fn crash_before_decision_presumes_abort() {
        for shards in 1..=4 {
            let db = Database::open(cfg(shards));
            {
                let mut tx = db.begin();
                tx.write(0, b"undecided").unwrap();
                tx.write(4, b"undecided").unwrap();
                // Crash with the txn in flight: no intent was staged, so
                // every engine transaction is an ordinary loser.
                db.crash();
                drop(tx); // abort-on-drop tolerates the crash
            }
            let rec = db.recover().unwrap();
            assert!(rec.replayed.is_empty());
            assert!(db.read_page(0).unwrap().iter().all(|b| *b == 0));
            assert!(db.read_page(4).unwrap().iter().all(|b| *b == 0));
            assert!(db.audit().is_clean());
        }
    }

    #[test]
    fn decided_intent_replays_after_crash_mid_apply() {
        for shards in 2..=4 {
            // Warm up so the crash lands inside the cross-shard commit:
            // count the I/Os a no-fault run of the same txn performs, then
            // plant the crash on the last one, inside shard 1's sub-commit.
            let warm = Database::open(cfg(shards));
            let mut tx = warm.begin();
            tx.write(0, b"warm").unwrap();
            tx.write(4, b"warm").unwrap();
            let hook = Arc::new(FaultInjector::observer());
            warm.install_fault_hook(hook.clone());
            tx.commit().unwrap();
            let total = hook.ios_seen();
            assert!(total > 2, "cross-shard commit performs physical I/O");

            let db = Database::open(cfg(shards));
            db.install_fault_hook(Arc::new(FaultInjector::new(FaultPlan::crash_at(total))));
            let mut tx = db.begin();
            let gid = tx.id().0;
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
    }

    #[test]
    fn replay_never_rewrites_a_shard_that_committed_before_the_failure() {
        // T1 spans both shards; shard 0's sub-commit lands durably, then
        // shard 1 dies mid-sub-commit (hook on shard 1 only — the rest of
        // the machine stays live). T2 then commits a newer value to T1's
        // shard-0 page. Crash + recover must replay T1's intent onto
        // shard 1 only: shard 0 keeps T2's later acknowledged commit.
        for shards in 2..=4 {
            let warm = Database::open(cfg(shards));
            let hook = Arc::new(FaultInjector::observer());
            warm.shard(1).install_fault_hook(hook.clone());
            let mut tx = warm.begin();
            tx.write(0, b"warm-img").unwrap();
            tx.write(4, b"warm-img").unwrap();
            tx.commit().unwrap();
            let shard1_ios = hook.ios_seen();
            assert!(shard1_ios > 0, "shard 1's sub-commit performs I/O");

            let db = Database::open(cfg(shards));
            let crash = FaultInjector::new(FaultPlan::crash_at(shard1_ios));
            db.shard(1).install_fault_hook(Arc::new(crash));
            let mut t1 = db.begin();
            let gid = t1.id().0;
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
    }

    #[test]
    fn in_doubt_intent_fences_unapplied_pages_until_resolved() {
        let db = Database::open(cfg(2));
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
        for shards in 1..=4 {
            let db = Database::open(cfg(shards));
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
    }

    #[test]
    fn fail_disk_and_media_recover_route_to_owning_shard() {
        for shards in 2..=4 {
            let db = Database::open(cfg(shards));
            let mut tx = db.begin();
            tx.write(0, b"survives").unwrap();
            tx.commit().unwrap();
            // Fail the first disk of shard 1 (global ids map contiguously).
            let disk = db.disks() / shards as u16;
            db.fail_disk(disk);
            assert!(db.disk_failed(disk) && !db.disk_failed(0));
            // Shard 0's data is untouched; rebuild shard 1's disk.
            assert_eq!(&db.read_page(0).unwrap()[..8], b"survives");
            db.replace_disk_blank(disk);
            db.media_recover(disk).unwrap();
            assert!(!db.disk_failed(disk));
            assert!(db.audit().is_clean());
        }
    }

    /// One device set holds one engine's logs: `open_with` refuses more
    /// shards as it refuses any incoherent configuration.
    #[test]
    #[should_panic(expected = "per-shard logs")]
    fn open_with_refuses_more_than_one_shard() {
        let cfg = cfg(2);
        let disks = rda_array::sim_disks_for(&cfg.array);
        let _ = Database::open_with(cfg, crate::BackendSetup::fresh(disks));
    }

    /// Begin never panics: on a crashed database the transaction's first
    /// operation reports that recovery is owed, and its drop is quiet. A
    /// later conflict names its holder by the blocking handle's id, though
    /// the untouched handle left global and engine ids apart.
    #[test]
    fn begin_on_a_crashed_database_defers_to_its_first_operation() {
        for shards in [1, 3] {
            let db = Database::open(cfg(shards));
            db.crash();
            let mut tx = db.begin();
            assert_eq!(tx.write(5, b"x"), Err(DbError::NeedsRecovery));
            assert_eq!(tx.read(5), Err(DbError::NeedsRecovery));
            drop(tx);
            db.recover().unwrap();
            let mut tx = db.begin();
            tx.write(5, b"x").unwrap();
            let (page, holder) = (DataPageId(5), tx.id());
            let conflict = db.begin().write(5, b"y");
            assert_eq!(conflict, Err(DbError::LockConflict { page, holder }));
            tx.commit().unwrap();
            assert_eq!(db.read_page(5).unwrap()[0], b'x');
            // Every handle leaves the gates' in-flight count exactly once,
            // touched or not, however it ends.
            db.begin().commit().unwrap();
            db.begin().abort().unwrap();
            drop(db.begin());
            assert_eq!(db.inner.unopened.load(Ordering::Relaxed), 0);
        }
    }

    /// The router changes where a page lives, not what a transaction
    /// sees: the same scripts of single-group transactions (commits,
    /// aborts, a crash in between) end in equal state dumps on one and on
    /// three shards.
    #[test]
    fn one_and_three_shards_run_the_same_scripts_to_the_same_state() {
        let run = |shards| {
            let db = Database::open(cfg(shards));
            for i in 0..60u32 {
                let group = (i * 5) % 8;
                let mut tx = db.begin();
                for m in 0..=(i % 3) {
                    tx.write(group * 4 + m, &[i as u8 + 1, m as u8]).unwrap();
                }
                let _ = tx.read(group * 4 + 3).unwrap();
                if i % 7 == 3 {
                    tx.abort().unwrap();
                } else {
                    tx.commit().unwrap();
                }
                if i == 40 {
                    db.crash_and_recover().unwrap();
                }
            }
            assert!(db.audit().is_clean());
            db.state_dump().unwrap()
        };
        let one = run(1);
        assert!(one.iter().any(|page| page[0] != 0));
        assert_eq!(one, run(3));
    }
}
