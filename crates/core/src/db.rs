//! The engine handle: [`Database`] routes every page to the engine shard
//! that owns its parity group, and [`Transaction`] opens one engine
//! transaction per shard it touches. A one-shard database is the classic
//! single engine; the shard mapping and the cross-shard commit protocol
//! are in `shard.rs`.

use crate::backend::BackendSetup;
use crate::engine::Engine;
use crate::error::{DbError, Result};
use crate::gate::CommitGate;
use crate::recovery::RecoveryReport;
use crate::shard::{Coordinator, IntentOp, ShardMap};
use crate::{AuditReport, DbConfig, LogGranularity, ScrubReport};
use rda_array::{BlockDevice, DataPageId, DefaultDisk, DiskId, GroupId, StatsSnapshot};
use rda_buffer::BufferStats;
use rda_obs::sync::Mutex;
use rda_obs::{MetricsRegistry, ObsHub, TraceSnapshot};
use rda_wal::TxnId;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

/// Aggregate physical-I/O statistics, summed over every shard.
#[derive(Debug, Clone, Copy, Default)]
pub struct DbStats {
    /// Array (data + parity) transfers.
    pub array: StatsSnapshot,
    /// Log-device transfers.
    pub log: StatsSnapshot,
    /// Buffer pool counters.
    pub buffer: BufferStats,
    /// Transactions that spanned shards and committed through 2PC.
    pub cross_shard_commits: u64,
    /// Transactions that spanned shards and aborted.
    pub cross_shard_aborts: u64,
}

impl DbStats {
    /// Total page transfers — the unit of the paper's cost model.
    #[must_use]
    pub fn total_transfers(&self) -> u64 {
        self.array.transfers() + self.log.transfers()
    }

    /// Counters between `earlier` and `self`.
    #[must_use]
    pub fn delta(&self, earlier: &DbStats) -> DbStats {
        DbStats {
            array: self.array.delta(&earlier.array),
            log: self.log.delta(&earlier.log),
            buffer: BufferStats {
                hits: self.buffer.hits - earlier.buffer.hits,
                misses: self.buffer.misses - earlier.buffer.misses,
                steals: self.buffer.steals - earlier.buffer.steals,
                writebacks: self.buffer.writebacks - earlier.buffer.writebacks,
                drops: self.buffer.drops - earlier.buffer.drops,
                eviction_scans: self.buffer.eviction_scans - earlier.buffer.eviction_scans,
            },
            cross_shard_commits: self.cross_shard_commits - earlier.cross_shard_commits,
            cross_shard_aborts: self.cross_shard_aborts - earlier.cross_shard_aborts,
        }
    }
}

/// One engine shard: its own lock table, Dirty_Set, twin headers, buffer
/// partition, WAL and parity sub-array, behind one mutex, plus the commit
/// gate when group commit is on. Reached through [`Database::shard`] for
/// what belongs to one engine (metrics, trace, log, archive); everything
/// that names a page, group or disk goes through the [`Database`] in
/// global numbers.
pub struct Shard<D: BlockDevice = DefaultDisk> {
    pub(crate) engine: Mutex<Engine<D>>,
    gate: Option<CommitGate>,
}

impl<D: BlockDevice> Shard<D> {
    fn new(engine: Engine<D>, unopened: &Arc<AtomicUsize>) -> Shard<D> {
        let gate = |gc| CommitGate::new(gc, &engine.obs.metrics, Arc::clone(unopened));
        Shard {
            gate: engine.cfg.group_commit.map(gate),
            engine: Mutex::new(engine),
        }
    }

    /// Commit engine transaction `txn`: through the gate when group
    /// commit is on (batching concurrent durability barriers), directly
    /// otherwise.
    pub(crate) fn commit(&self, txn: TxnId) -> Result<()> {
        match &self.gate {
            Some(gate) => gate.commit(&self.engine, txn),
            None => self.engine.lock().txn_commit(txn),
        }
    }

    /// The shard's observability hub (event tracer + metrics registry).
    /// Cheap to clone; all handles alias the same state.
    #[must_use]
    pub fn obs(&self) -> ObsHub {
        self.engine.lock().obs.clone()
    }

    /// The shard's metrics registry (counters, views over the I/O and
    /// buffer stats, histograms).
    #[must_use]
    pub fn metrics(&self) -> Arc<MetricsRegistry> {
        Arc::clone(&self.engine.lock().obs.metrics)
    }

    /// Snapshot of the retained trace events (oldest first) plus the
    /// ring's overwrite count.
    #[must_use]
    pub fn trace_snapshot(&self) -> TraceSnapshot {
        self.engine.lock().obs.tracer.snapshot()
    }

    /// Install `hook` to run after every commit/checkpoint durability
    /// barrier — the seam the file backend's flight recorder flushes
    /// through. Replaces any previous hook. The hook runs with the
    /// engine lock held; it must not call back into the database.
    pub fn set_barrier_hook(&self, hook: Arc<dyn Fn() + Send + Sync>) {
        self.engine.lock().barrier_hook = Some(hook);
    }

    /// Hand the engine the pre-crash flight record the backend read at
    /// reopen; the next [`Database::recover`] attaches it to its
    /// [`RecoveryReport`].
    pub fn set_prior_flight(&self, flight: rda_obs::FlightRecord) {
        self.engine.lock().prior_flight = Some(flight);
    }

    /// Install a fault hook on this shard's disks only (see
    /// [`Database::install_fault_hook`] for the whole machine).
    pub fn install_fault_hook(&self, hook: Arc<dyn rda_array::FaultHook>) {
        self.engine.lock().dur.array.install_fault_hook(hook);
    }

    /// Counters for the faults an installed hook fired on this shard, or
    /// `None` if no hook was ever installed.
    #[must_use]
    pub fn fault_stats(&self) -> Option<Arc<rda_array::FaultStats>> {
        self.engine.lock().dur.array.fault_stats()
    }

    /// Move this shard's log low-water mark now; see
    /// [`Database::truncate_log`].
    ///
    /// # Errors
    /// [`DbError::NeedsRecovery`] after an unrecovered crash.
    pub fn truncate_log(&self) -> Result<u64> {
        self.engine.lock().truncate_log()
    }

    /// Total bytes appended durably to this shard's log (one copy) — the
    /// quantity the paper's record-logging analysis divides by `l_p`.
    #[must_use]
    pub fn log_bytes(&self) -> u64 {
        self.engine.lock().dur.log_store.bytes()
    }

    /// Take a transaction-consistent full archive copy of this shard (the
    /// §1 baseline's backup pass). Requires quiescence; bills one read per
    /// page. The log is retained from this position on — so the archive
    /// can be rolled forward — until the next dump or
    /// [`Shard::truncate_log`].
    ///
    /// # Errors
    /// [`DbError::ActiveTransactions`] unless quiescent; array errors when
    /// a page cannot be read.
    pub fn archive_dump(&self) -> Result<crate::Archive> {
        self.engine.lock().archive_dump()
    }

    /// Restore this shard from an archive and roll forward from the redo
    /// log — the traditional media recovery the paper argues is too
    /// expensive. Returns the number of redo records applied.
    ///
    /// # Errors
    /// [`DbError::ActiveTransactions`] unless quiescent;
    /// [`DbError::ArchiveTooOld`] — before anything is written — when the
    /// log no longer reaches back to the archive; array errors when
    /// writing restored pages fails.
    pub fn archive_restore(&self, archive: &crate::Archive) -> Result<u64> {
        self.engine.lock().archive_restore(archive)
    }
}

/// What every handle to one database shares.
pub(crate) struct Inner<D: BlockDevice> {
    pub(crate) shards: Vec<Shard<D>>,
    pub(crate) map: ShardMap,
    pub(crate) coord: Coordinator,
    /// Transactions begun that have not opened an engine transaction
    /// yet; the commit gates count them as in flight.
    pub(crate) unopened: Arc<AtomicUsize>,
    granularity: LogGranularity,
    disks_per_shard: u16,
}

/// A database of `cfg.shards` engine shards keyed by parity group, each
/// running one of the two recovery engines over its own redundant disk
/// array. One shard (the default) is the classic single engine.
///
/// Thread-safe: each shard's engine is serialized behind its own mutex
/// (the paper models logical concurrency of `P` transactions over one
/// I/O subsystem), so transactions on different shards never contend.
///
/// Generic over the [`BlockDevice`] backing each spindle; the default is
/// the deterministic simulated disk, and a real (file-backed) device slots
/// in through [`Database::open_with`].
pub struct Database<D: BlockDevice = DefaultDisk> {
    pub(crate) inner: Arc<Inner<D>>,
}

// Manual impl: `#[derive(Clone)]` would wrongly require `D: Clone`.
impl<D: BlockDevice> Clone for Database<D> {
    fn clone(&self) -> Self {
        Database {
            inner: Arc::clone(&self.inner),
        }
    }
}

impl Database {
    /// Create a fresh, zero-filled database over simulated disks: the
    /// configured parity groups are striped round-robin over
    /// `cfg.shards` engines, each with the configured buffer size as its
    /// own partition.
    ///
    /// # Panics
    /// Panics if the configuration is incoherent (see
    /// [`DbConfig::validate`], which also checks `1 ≤ shards ≤ groups`).
    #[must_use]
    #[allow(clippy::needless_pass_by_value)] // by value, as `open_with`
    pub fn open(cfg: DbConfig) -> Database {
        cfg.validate();
        let map = ShardMap::of(&cfg);
        let engines = (0..cfg.shards)
            .map(|s| {
                let mut sub = cfg.clone();
                sub.shards = 1;
                sub.array.groups = map.groups_in_shard(s);
                Engine::open(sub)
            })
            .collect();
        Database::assemble(map, engines)
    }
}

impl<D: BlockDevice> Database<D> {
    /// Create — or, when the setup carries
    /// [`RestoredState`](crate::backend::RestoredState), reopen — a
    /// one-shard database over backend-supplied block devices. A reopened
    /// database comes up in needs-recovery state: run
    /// [`Database::recover`] before new work, exactly as after
    /// [`Database::crash`].
    ///
    /// # Panics
    /// Panics if the configuration is incoherent, asks for more than one
    /// shard (one device set holds one engine until shards get their own
    /// logs), or the supplied disks do not match the configured geometry.
    #[must_use]
    pub fn open_with(cfg: DbConfig, setup: BackendSetup<D>) -> Database<D> {
        assert!(
            cfg.shards == 1,
            "open_with builds one engine over the supplied devices; \
             {} shards need per-shard logs",
            cfg.shards
        );
        let map = ShardMap::of(&cfg);
        Database::assemble(map, vec![Engine::open_with(cfg, setup)])
    }

    fn assemble(map: ShardMap, engines: Vec<Engine<D>>) -> Database<D> {
        let disks_per_shard = engines[0].dur.array.geometry().disks();
        let granularity = engines[0].cfg.granularity;
        let unopened = Arc::new(AtomicUsize::new(0));
        Database {
            inner: Arc::new(Inner {
                shards: engines
                    .into_iter()
                    .map(|e| Shard::new(e, &unopened))
                    .collect(),
                map,
                coord: Coordinator::default(),
                unopened,
                granularity,
                disks_per_shard,
            }),
        }
    }

    /// Begin a transaction. Nothing happens in any engine until the
    /// transaction first touches a page of that engine's shard; on a
    /// crashed database that first operation returns
    /// [`DbError::NeedsRecovery`].
    #[must_use]
    pub fn begin(&self) -> Transaction<D> {
        // ordering: Relaxed — a linger heuristic for the commit gates.
        self.inner.unopened.fetch_add(1, Ordering::Relaxed);
        Transaction {
            db: Arc::clone(&self.inner),
            gid: self.inner.coord.next_gid(),
            first: None,
            more: Vec::new(),
            ops: Vec::new(),
            finished: false,
        }
    }

    /// Number of shards.
    #[must_use]
    pub fn shard_count(&self) -> u32 {
        self.inner.map.shards
    }

    /// One shard's engine-level view (metrics, trace, log, archive).
    ///
    /// # Panics
    /// Panics if `s` is out of range.
    #[must_use]
    pub fn shard(&self, s: u32) -> &Shard<D> {
        &self.inner.shards[s as usize]
    }

    /// The page/group ↔ shard arithmetic in use.
    #[must_use]
    pub fn map(&self) -> ShardMap {
        self.inner.map
    }

    /// The logging granularity every shard runs: page databases take
    /// [`Transaction::write`], record databases [`Transaction::update`].
    #[must_use]
    pub fn granularity(&self) -> LogGranularity {
        self.inner.granularity
    }

    /// Number of data pages across all shards.
    #[must_use]
    pub fn data_pages(&self) -> u32 {
        self.inner.map.data_pages()
    }

    /// Number of disks across all shards: shard `s` owns the contiguous
    /// block `[s * per_shard, (s + 1) * per_shard)` of the global numbers.
    #[must_use]
    pub fn disks(&self) -> u16 {
        self.inner.disks_per_shard * self.inner.map.shards as u16
    }

    fn on_page<R>(&self, page: u32, f: impl FnOnce(&mut Engine<D>, DataPageId) -> R) -> R {
        let (s, local) = self.inner.map.to_local(page);
        f(&mut self.shard(s).engine.lock(), DataPageId(local))
    }

    fn on_group<R>(&self, group: u32, f: impl FnOnce(&Engine<D>, GroupId) -> R) -> R {
        let map = self.inner.map;
        let engine = self.shard(map.shard_of_group(group)).engine.lock();
        f(&engine, GroupId(group / map.shards))
    }

    fn on_disk<R>(&self, disk: u16, f: impl FnOnce(&mut Engine<D>, DiskId) -> R) -> R {
        let per = self.inner.disks_per_shard;
        f(
            &mut self.shard(u32::from(disk / per)).engine.lock(),
            DiskId(disk % per),
        )
    }

    /// Read the current contents of a page, outside any transaction
    /// (reflects the latest propagated state; equal to the last committed
    /// state when no transaction is writing the page).
    ///
    /// # Errors
    /// [`DbError::NeedsRecovery`] after an unrecovered crash;
    /// [`DbError::BadPage`] for an out-of-range page; array errors when the
    /// page is unreadable even in degraded mode.
    pub fn read_page(&self, page: u32) -> Result<Vec<u8>> {
        if page >= self.data_pages() {
            return Err(DbError::BadPage(DataPageId(page)));
        }
        self.on_page(page, |engine, local| {
            // Global id 0: begun and ended under one engine lock, this
            // transaction is never a holder another one can meet.
            let txn = engine.begin(0)?;
            let out = engine.txn_read(txn, local);
            let _ = engine.txn_abort(txn);
            out
        })
    }

    /// Every data page in global page order — the state dump the
    /// model-based checker diffs against its reference model. Each shard
    /// reads its pages inside one transaction, so the dump is atomic per
    /// shard under `strict_read_locks` (every page is S-locked before the
    /// first image is returned), and across shards whenever no
    /// cross-shard commit is mid-flight; at quiescence it is simply the
    /// committed state.
    ///
    /// # Errors
    /// [`DbError::NeedsRecovery`] after an unrecovered crash;
    /// [`DbError::LockConflict`] when an active transaction holds a page
    /// exclusively; array errors when a page is unreadable even in
    /// degraded mode.
    pub fn state_dump(&self) -> Result<Vec<Vec<u8>>> {
        let mut dumps = Vec::with_capacity(self.inner.shards.len());
        for shard in &self.inner.shards {
            let mut engine = shard.engine.lock();
            let txn = engine.begin(0)?; // as in `read_page`
            let dump = (0..engine.dur.array.data_pages())
                .map(|page| engine.txn_read(txn, DataPageId(page)))
                .collect::<Result<Vec<_>>>();
            let _ = engine.txn_abort(txn);
            dumps.push(dump?);
        }
        let map = self.inner.map;
        Ok((0..map.data_pages())
            .map(|p| {
                let (s, local) = map.to_local(p);
                std::mem::take(&mut dumps[s as usize][local as usize])
            })
            .collect())
    }

    /// Take an action-consistent checkpoint of every shard now.
    ///
    /// # Errors
    /// [`DbError::NeedsRecovery`] after an unrecovered crash; array errors
    /// when flushing dirty pages fails.
    pub fn checkpoint(&self) -> Result<()> {
        self.inner.shards.iter().try_for_each(|s| {
            let mut engine = s.engine.lock();
            let done = engine.checkpoint();
            engine.settle_disk_deaths();
            done
        })
    }

    /// Simulate a whole-machine failure: every shard loses its volatile
    /// state (buffer, dirty set, lock table, unforced log tail, active
    /// transactions); decided cross-shard intents survive (modeled
    /// NVRAM). Until [`Database::recover`] runs, new work is refused.
    pub fn crash(&self) {
        for shard in &self.inner.shards {
            shard.engine.lock().crash();
        }
    }

    /// Run restart recovery after a crash — the shards in parallel, shard
    /// 0 on the calling thread — then replay decided cross-shard intents. The
    /// report is the shards' reports merged in shard order, plus the
    /// replayed global ids.
    ///
    /// # Errors
    /// The first shard recovery or intent-replay error, in shard order
    /// (array errors when the UNDO/REDO passes cannot read or write the
    /// pages they need, e.g. a disk failed during the outage). Staged
    /// intents survive an errored replay and are retried by the next
    /// `recover`.
    pub fn recover(&self) -> Result<RecoveryReport> {
        let (first, others) = self.inner.shards.split_at(1);
        let reports: Vec<Result<RecoveryReport>> = std::thread::scope(|scope| {
            let handles: Vec<_> = (others.iter())
                .map(|shard| scope.spawn(|| shard.engine.lock().recover()))
                .collect();
            // The calling thread recovers shard 0 itself.
            let mine = first[0].engine.lock().recover();
            let theirs = (handles.into_iter())
                .map(|h| h.join().unwrap_or_else(|p| std::panic::resume_unwind(p)));
            std::iter::once(mine).chain(theirs).collect()
        });
        self.finish_recovery(reports.into_iter().collect::<Result<_>>()?)
    }

    /// [`Database::recover`] one shard at a time in shard order, so that
    /// a planted "fault at global I/O k" lands at a reproducible point —
    /// the variant the differential checker runs. It stops at the first
    /// shard that fails.
    ///
    /// # Errors
    /// As [`Database::recover`].
    pub fn recover_sequential(&self) -> Result<RecoveryReport> {
        let reports = self
            .inner
            .shards
            .iter()
            .map(|shard| shard.engine.lock().recover())
            .collect::<Result<_>>()?;
        self.finish_recovery(reports)
    }

    fn finish_recovery(&self, reports: Vec<RecoveryReport>) -> Result<RecoveryReport> {
        let mut merged = RecoveryReport::default();
        for report in reports {
            merged.absorb(report);
        }
        merged.replayed = self.replay_intents()?;
        Ok(merged)
    }

    /// Convenience: crash then recover.
    ///
    /// # Errors
    /// Same as [`Database::recover`].
    pub fn crash_and_recover(&self) -> Result<RecoveryReport> {
        self.crash();
        self.recover()
    }

    /// Move every shard's log low-water mark now and retire the archive
    /// pin. Returns the number of records discarded.
    ///
    /// The engine moves the mark by itself — at every commit under FORCE,
    /// at every ACC checkpoint under ¬FORCE — to the oldest record a
    /// restart could still need (last checkpoint / earliest active BOT /
    /// last archive dump), so on a running database this usually returns
    /// 0. What the call is still for: after [`Shard::archive_dump`] the
    /// log is kept from the dump's position on until this call says the
    /// archive will not be restored any more (an archive older than the
    /// mark is refused by [`Shard::archive_restore`]); and it cuts once
    /// more without waiting for the next checkpoint, e.g. after an abort.
    ///
    /// # Errors
    /// [`DbError::NeedsRecovery`] after an unrecovered crash.
    pub fn truncate_log(&self) -> Result<u64> {
        self.inner.shards.iter().map(Shard::truncate_log).sum()
    }

    /// Fail a disk (media failure injection; global disk number).
    pub fn fail_disk(&self, disk: u16) {
        self.on_disk(disk, |e, d| {
            e.dur.array.fail_disk(d);
            e.settle_disk_deaths();
        });
    }

    /// Is the disk (global number) currently failed (media recovery owed)?
    #[must_use]
    pub fn disk_failed(&self, disk: u16) -> bool {
        self.on_disk(disk, |e, d| e.dur.array.disk_failed(d))
    }

    /// Fail the whole disk holding a data page (fault injection).
    pub fn fail_disk_of_page(&self, page: u32) {
        self.on_page(page, |e, p| {
            e.dur.array.fail_disk(e.dur.array.locate_data(p).disk);
        });
    }

    /// Inject a latent sector error under a data page (fault injection;
    /// the next scrub or degraded read repairs it).
    pub fn corrupt_data_page(&self, page: u32) {
        self.on_page(page, |e, p| e.dur.array.corrupt(e.dur.array.locate_data(p)));
    }

    /// Inject a latent sector error under a group's committed parity page
    /// (fault injection).
    pub fn corrupt_committed_parity(&self, group: u32) {
        self.on_group(group, |e, g| {
            if let Some(loc) = e.dur.array.geometry().parity_loc(g, e.committed_slot(g)) {
                e.dur.array.corrupt(loc);
            }
        });
    }

    /// Tear the parity twin covering the current on-disk contents of a
    /// group (the working twin while the group is dirty): the block is
    /// left half-overwritten and reads back as
    /// [`ArrayError::TornPage`](rda_array::ArrayError::TornPage) until
    /// rewritten. Fault injection for torn-write recovery tests.
    pub fn tear_current_parity(&self, group: u32) {
        self.on_group(group, |e, g| {
            if let Some(loc) = e.dur.array.geometry().parity_loc(g, e.disk_read_slot(g)) {
                e.dur.array.tear(loc);
            }
        });
    }

    /// Overwrite a group's *committed* parity twin with readable garbage
    /// (fault injection for the auditor: unlike
    /// [`Database::corrupt_committed_parity`], the sector stays readable,
    /// so only an XOR recompute can notice).
    pub fn scribble_committed_parity(&self, group: u32) {
        self.on_group(group, |e, g| {
            let slot = e.committed_slot(g);
            if let Ok(mut parity) = e.dur.array.peek_parity(g, slot) {
                for (i, b) in parity.as_mut().iter_mut().enumerate() {
                    *b ^= 0xA5_u8.wrapping_add(i as u8);
                }
                let _ = e.dur.array.write_parity(g, slot, &parity);
            }
        });
    }

    /// Install one deterministic fault hook on every shard: every physical
    /// array I/O is offered to `hook` before it touches a disk (see
    /// [`rda_array::FaultHook`]). Sharing one hook gives it a *global*
    /// I/O counter, so "crash at I/O k" means the same at any shard count.
    /// Replaces any previous hook and resets the fault counters.
    #[allow(clippy::needless_pass_by_value)] // the hook is shared by every shard
    pub fn install_fault_hook(&self, hook: Arc<dyn rda_array::FaultHook>) {
        for shard in &self.inner.shards {
            shard.install_fault_hook(Arc::clone(&hook));
        }
    }

    /// Stop consulting the installed fault hook (its accumulated counters
    /// remain readable through [`Shard::fault_stats`]).
    pub fn clear_fault_hook(&self) {
        for shard in &self.inner.shards {
            shard.engine.lock().dur.array.clear_fault_hook();
        }
    }

    /// Install a blank replacement for a failed disk without rebuilding
    /// it (use before [`Shard::archive_restore`] after a multi-disk
    /// disaster; single failures should use [`Database::media_recover`],
    /// which replaces and rebuilds in one step).
    pub fn replace_disk_blank(&self, disk: u16) {
        self.on_disk(disk, |e, d| e.dur.array.replace_disk_blank(d));
    }

    /// Rebuild a failed disk (global number) from the surviving group
    /// members through the committed twins. Requires its shard to be
    /// quiescent (no active transactions).
    ///
    /// # Errors
    /// [`DbError::ActiveTransactions`] unless quiescent;
    /// [`ArrayError::Unrecoverable`](rda_array::ArrayError::Unrecoverable)
    /// when a second failure blocks reconstruction.
    pub fn media_recover(&self, disk: u16) -> Result<u64> {
        self.on_disk(disk, Engine::media_recover)
    }

    /// Rebuild the (failed) disk holding `page` — the recovery-side
    /// pairing of [`Database::fail_disk_of_page`].
    ///
    /// # Errors
    /// Same as [`Database::media_recover`].
    pub fn media_recover_of_page(&self, page: u32) -> Result<u64> {
        self.on_page(page, |e, p| {
            e.media_recover(e.dur.array.locate_data(p).disk)
        })
    }

    /// Current I/O statistics, summed over the shards.
    #[must_use]
    pub fn stats(&self) -> DbStats {
        let coord = &self.inner.coord;
        let mut total = DbStats {
            // ordering: Relaxed — statistics counter, see Coordinator.
            cross_shard_commits: coord.cross_commits.load(Ordering::Relaxed),
            // ordering: Relaxed — statistics counter, see Coordinator.
            cross_shard_aborts: coord.cross_aborts.load(Ordering::Relaxed),
            ..DbStats::default()
        };
        for shard in &self.inner.shards {
            let engine = shard.engine.lock();
            total.array.accumulate(&engine.dur.array.stats().snapshot());
            total
                .log
                .accumulate(&engine.dur.log_store.stats().snapshot());
            total.buffer.accumulate(&engine.buffer.stats());
        }
        total
    }

    /// Total bytes appended durably to the logs (one copy) — the
    /// quantity the paper's record-logging analysis divides by `l_p`.
    #[must_use]
    pub fn log_bytes(&self) -> u64 {
        self.inner.shards.iter().map(Shard::log_bytes).sum()
    }

    /// Scrub the array's parity invariants on every shard; returns
    /// violations, each prefixed with its shard (empty when consistent).
    /// Bills array reads like a real scrubber.
    ///
    /// # Errors
    /// Array errors when a parity or data page cannot be read at all (a
    /// *mismatch* is reported in the returned list, not as an error).
    pub fn verify(&self) -> Result<Vec<String>> {
        let mut out = Vec::new();
        for (s, shard) in self.inner.shards.iter().enumerate() {
            let found = shard.engine.lock().verify_parity()?;
            out.extend(found.into_iter().map(|v| format!("shard {s}: {v}")));
        }
        Ok(out)
    }

    /// Patrol scrub of every shard: read every data and committed-parity
    /// page, repairing latent sector errors from parity. Requires
    /// quiescence.
    ///
    /// # Errors
    /// [`DbError::ActiveTransactions`] unless quiescent; array errors when
    /// repair writes fail.
    pub fn scrub(&self) -> Result<ScrubReport> {
        let mut total = ScrubReport::default();
        for shard in &self.inner.shards {
            let r = shard.engine.lock().scrub_repair()?;
            total.pages_scanned += r.pages_scanned;
            total.data_repaired += r.data_repaired;
            total.parity_repaired += r.parity_repaired;
            total.parity_corrected += r.parity_corrected;
        }
        Ok(total)
    }

    /// Number of engine transactions currently active (a cross-shard
    /// transaction counts once per shard it touched).
    #[must_use]
    pub fn active_transactions(&self) -> usize {
        let active = |s: &Shard<D>| s.engine.lock().active.len();
        self.inner.shards.iter().map(active).sum()
    }

    /// Shard 0's metrics registry — the whole database's when it has one
    /// shard, which every file-backed database has. The others are
    /// [`Shard::metrics`].
    #[must_use]
    pub fn metrics(&self) -> Arc<MetricsRegistry> {
        self.shard(0).metrics()
    }

    /// Run the cross-layer invariant auditor (parity-vs-twins XOR
    /// recompute, `Dirty_Set` cross-checks, lock and Working-header leak detection) on
    /// every shard, merged into one report with violations prefixed by
    /// their shard. Reads the array through the unbilled peek interface,
    /// so neither the transfer counters nor a fault hook see it. With the
    /// `paranoid` feature the same auditor also runs automatically after
    /// every steal, commit, abort and scrub.
    #[must_use]
    pub fn audit(&self) -> AuditReport {
        let mut merged = AuditReport::default();
        for (s, shard) in self.inner.shards.iter().enumerate() {
            let r = shard.engine.lock().run_audit();
            merged.groups_checked += r.groups_checked;
            merged.groups_skipped += r.groups_skipped;
            let prefixed = r.violations.into_iter().map(|v| format!("shard {s}: {v}"));
            merged.violations.extend(prefixed);
        }
        merged
    }
}

/// A transaction handle. Engine transactions open lazily, one per shard
/// the transaction touches; a transaction that stays on one shard commits
/// through that shard's ordinary (group-commit-aware) path, and one that
/// spans shards through the 2PC of `shard.rs`. Dropped without
/// [`Transaction::commit`], it aborts (best-effort).
pub struct Transaction<D: BlockDevice = DefaultDisk> {
    pub(crate) db: Arc<Inner<D>>,
    pub(crate) gid: u64,
    /// The first shard touched and its engine transaction; kept after
    /// the transaction ends, so `None` at drop means it never touched one.
    pub(crate) first: Option<(u32, TxnId)>,
    /// Every further shard touched (cross-shard transactions only).
    pub(crate) more: Vec<(u32, TxnId)>,
    /// Execution-order operations in global pages, the payload of a
    /// cross-shard intent. Recorded only when the database has more than
    /// one shard: with one, no intent can exist.
    pub(crate) ops: Vec<IntentOp>,
    finished: bool,
}

impl<D: BlockDevice> Transaction<D> {
    /// This transaction's global id, the one [`Transaction::commit`]
    /// returns and a [`DbError::LockConflict`] names its holder by. The
    /// ids of its per-shard engine transactions are engine numbers: trace
    /// events and [`RecoveryReport`]'s winners and losers carry those.
    #[must_use]
    pub fn id(&self) -> TxnId {
        TxnId(self.gid)
    }

    /// Which shards this transaction has touched so far, ascending.
    #[must_use]
    pub fn shards_touched(&self) -> Vec<u32> {
        let mut shards: Vec<u32> = self.first.iter().chain(&self.more).map(|s| s.0).collect();
        shards.sort_unstable();
        shards
    }

    /// Run `op` on the engine owning global `page`, opening this
    /// transaction there first if it has not touched that shard yet.
    /// Errors come back in global page numbers.
    fn on_page<R>(
        &mut self,
        page: u32,
        op: impl FnOnce(&mut Engine<D>, TxnId, DataPageId) -> Result<R>,
    ) -> Result<R> {
        let map = self.db.map;
        if page >= map.data_pages() {
            return Err(DbError::BadPage(DataPageId(page)));
        }
        let (s, local) = map.to_local(page);
        let mut engine = self.db.shards[s as usize].engine.lock();
        let known = self
            .first
            .iter()
            .chain(&self.more)
            .find(|sub| sub.0 == s)
            .map(|sub| sub.1);
        let txn = match known {
            Some(txn) => txn,
            None => {
                let txn = engine.begin(self.gid)?;
                match self.first {
                    None => {
                        self.first = Some((s, txn));
                        // ordering: Relaxed — see `Database::begin`.
                        self.db.unopened.fetch_sub(1, Ordering::Relaxed);
                    }
                    Some(_) => self.more.push((s, txn)),
                }
                txn
            }
        };
        let done = op(&mut engine, txn, DataPageId(local));
        engine.settle_disk_deaths();
        done.map_err(|e| map.globalize(s, e))
    }

    /// Read a page.
    ///
    /// # Errors
    /// [`DbError::NeedsRecovery`] after an unrecovered crash;
    /// [`DbError::LockConflict`] when another transaction writes the page;
    /// [`DbError::BadPage`] for an out-of-range page.
    pub fn read(&mut self, page: u32) -> Result<Vec<u8>> {
        self.on_page(page, Engine::txn_read)
    }

    /// Overwrite a page (page-logging granularity). Payloads shorter than
    /// the page are zero-padded.
    ///
    /// # Errors
    /// [`DbError::LockConflict`] on lock conflict; [`DbError::BadPage`] /
    /// [`DbError::PageOverflow`] for bad addresses;
    /// [`DbError::WrongGranularity`] under record logging.
    pub fn write(&mut self, page: u32, data: &[u8]) -> Result<()> {
        self.on_page(page, |e, txn, p| e.txn_write(txn, p, data))?;
        if self.db.map.shards > 1 {
            let data = data.to_vec();
            self.ops.push(IntentOp::Write { page, data });
        }
        Ok(())
    }

    /// Update a byte range of a page (record-logging granularity).
    ///
    /// # Errors
    /// [`DbError::LockConflict`] on lock conflict; [`DbError::BadPage`] /
    /// [`DbError::PageOverflow`] for bad addresses;
    /// [`DbError::WrongGranularity`] under page logging.
    pub fn update(&mut self, page: u32, offset: usize, data: &[u8]) -> Result<()> {
        self.on_page(page, |e, txn, p| e.txn_update(txn, p, offset, data))?;
        if self.db.map.shards > 1 {
            let data = data.to_vec();
            self.ops.push(IntentOp::Update { page, offset, data });
        }
        Ok(())
    }

    /// Commit. Consumes the handle and returns the global id. A commit
    /// that fails before its commit record is written (a FORCE write-back
    /// on a dying disk, say) aborts the transaction and releases its
    /// locks, gated or not; after a crash restart recovery does that
    /// instead.
    ///
    /// # Errors
    /// [`DbError::UnknownTxn`] if a crash wiped the transaction; array
    /// errors when a write-back, the durability barrier or the log force
    /// fails; [`DbError::LockConflict`] when one of the transaction's
    /// pages is fenced by an in-doubt cross-shard intent (the conflict
    /// names the in-doubt transaction as holder). A cross-shard commit
    /// that errors after its decision was staged returns
    /// [`DbError::CommitInDoubt`]: the transaction **will** commit, so the
    /// caller must not retry it.
    pub fn commit(mut self) -> Result<TxnId> {
        if self.db.map.shards > 1 {
            // Refused by the fence: dropping the handle rolls it back.
            self.db.coord.fence(&self.db.map, &self.ops)?;
        }
        self.finished = true;
        if !self.more.is_empty() {
            return self.commit_cross();
        }
        if let Some((s, txn)) = self.first {
            let shard = &self.db.shards[s as usize];
            shard.commit(txn).map_err(|e| self.db.map.globalize(s, e))?;
        }
        Ok(self.id())
    }

    /// Abort and roll back every shard's part, in shard order. Consumes
    /// the handle.
    ///
    /// # Errors
    /// The first error, in shard order: [`DbError::UnknownTxn`] if a
    /// crash wiped the transaction; array errors when rollback I/O fails.
    pub fn abort(mut self) -> Result<()> {
        self.finished = true;
        let mut result = Ok(());
        self.drain_subs(|db, s, txn| {
            let aborted = db.shards[s as usize].engine.lock().txn_abort(txn);
            if let (Err(e), true) = (aborted, result.is_ok()) {
                result = Err(db.map.globalize(s, e));
            }
        });
        result
    }

    /// Hand every engine transaction to `f` in ascending shard order,
    /// counting a cross-shard abort. Allocates nothing for a transaction
    /// that stayed on one shard.
    fn drain_subs(&mut self, mut f: impl FnMut(&Inner<D>, u32, TxnId)) {
        let first = self.first;
        let mut more = std::mem::take(&mut self.more);
        if more.is_empty() {
            if let Some((s, txn)) = first {
                f(&self.db, s, txn);
            }
            return;
        }
        // ordering: Relaxed — statistics counter.
        self.db.coord.cross_aborts.fetch_add(1, Ordering::Relaxed);
        more.extend(first);
        more.sort_unstable();
        for (s, txn) in more {
            f(&self.db, s, txn);
        }
    }
}

impl<D: BlockDevice> Drop for Transaction<D> {
    fn drop(&mut self) {
        if self.first.is_none() {
            // Never reached an engine, so `on_page` never uncounted it.
            // ordering: Relaxed — see `Database::begin`.
            self.db.unopened.fetch_sub(1, Ordering::Relaxed);
        }
        if self.finished {
            return;
        }
        self.drain_subs(|db, s, txn| {
            let mut engine = db.shards[s as usize].engine.lock();
            // After a crash the transaction is already gone; ignore.
            // `Array(Crashed)` is the same death observed mid-flight: the
            // power latch is down, the abort's I/O is refused, and restart
            // recovery will undo the transaction as a loser.
            match engine.txn_abort(txn) {
                Ok(())
                | Err(
                    DbError::UnknownTxn(_)
                    | DbError::NeedsRecovery
                    | DbError::Array(rda_array::ArrayError::Crashed),
                ) => {}
                // Already unwinding (a failed assertion, a worker that hit
                // an engine error on a dead disk): a second panic would
                // abort the whole process. Count it; recovery undoes the
                // transaction as a loser.
                Err(_) if std::thread::panicking() => engine
                    .obs
                    .metrics
                    .counter("engine_drop_abort_failures_total")
                    .inc(),
                Err(e) => panic!("abort on drop failed: {e}"),
            }
        });
    }
}
