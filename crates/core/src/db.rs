//! Public database facade: [`Database`] and [`Transaction`].

use crate::backend::BackendSetup;
use crate::engine::Engine;
use crate::error::{DbError, Result};
use crate::recovery::RecoveryReport;
use crate::DbConfig;
use rda_array::{BlockDevice, DataPageId, DefaultDisk, DiskId, StatsSnapshot};
use rda_buffer::BufferStats;
use rda_obs::sync::Mutex;
use rda_obs::{MetricsRegistry, ObsHub, TraceSnapshot, Tracer};
use rda_wal::TxnId;
use std::sync::Arc;

/// Aggregate physical-I/O statistics.
#[derive(Debug, Clone, Copy, Default)]
pub struct DbStats {
    /// Array (data + parity) transfers.
    pub array: StatsSnapshot,
    /// Log-device transfers.
    pub log: StatsSnapshot,
    /// Buffer pool counters.
    pub buffer: BufferStats,
}

impl DbStats {
    /// Total page transfers — the unit of the paper's cost model.
    #[must_use]
    pub fn total_transfers(&self) -> u64 {
        self.array.transfers() + self.log.transfers()
    }

    /// Add another database's counters into this one (merging per-shard
    /// stats into an aggregate view).
    pub fn accumulate(&mut self, other: &DbStats) {
        self.array.accumulate(&other.array);
        self.log.accumulate(&other.log);
        self.buffer.accumulate(&other.buffer);
    }

    /// Transfers between `earlier` and `self`.
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
        }
    }
}

/// A database running one of the two recovery engines over a simulated
/// redundant disk array.
///
/// Thread-safe: the engine is serialized behind a mutex (the paper models
/// logical concurrency of `P` transactions over one I/O subsystem; true
/// parallel execution would only perturb the transfer counts being
/// measured).
///
/// Generic over the [`BlockDevice`] backing each spindle; the default is
/// the deterministic simulated disk, and a real (file-backed) device slots
/// in through [`Database::open_with`].
pub struct Database<D: BlockDevice = DefaultDisk> {
    engine: Arc<Mutex<Engine<D>>>,
    /// Present when the configuration enables group commit; routes
    /// `Transaction::commit` through the batching gate.
    gate: Option<Arc<crate::gate::CommitGate>>,
}

// Manual impl: `#[derive(Clone)]` would wrongly require `D: Clone`.
impl<D: BlockDevice> Clone for Database<D> {
    fn clone(&self) -> Self {
        Database {
            engine: Arc::clone(&self.engine),
            gate: self.gate.clone(),
        }
    }
}

impl Database {
    /// Create a fresh, zero-filled database over simulated disks.
    ///
    /// # Panics
    /// Panics if the configuration is incoherent (see
    /// [`DbConfig::validate`]).
    #[must_use]
    pub fn open(cfg: DbConfig) -> Database {
        let group_commit = cfg.group_commit;
        let engine = Arc::new(Mutex::new(Engine::open(cfg)));
        let gate = Self::build_gate(group_commit, &engine);
        Database { engine, gate }
    }
}

impl<D: BlockDevice> Database<D> {
    /// Create — or, when the setup carries
    /// [`RestoredState`](crate::backend::RestoredState), reopen — a
    /// database over backend-supplied block devices. A reopened database
    /// comes up in needs-recovery state: run [`Database::recover`] before
    /// new work, exactly as after [`Database::crash`].
    ///
    /// # Panics
    /// Panics if the configuration is incoherent or the supplied disks do
    /// not match the configured geometry.
    #[must_use]
    pub fn open_with(cfg: DbConfig, setup: BackendSetup<D>) -> Database<D> {
        let group_commit = cfg.group_commit;
        let engine = Arc::new(Mutex::new(Engine::open_with(cfg, setup)));
        let gate = Self::build_gate(group_commit, &engine);
        Database { engine, gate }
    }

    fn build_gate(
        group_commit: Option<crate::config::GroupCommit>,
        engine: &Arc<Mutex<Engine<D>>>,
    ) -> Option<Arc<crate::gate::CommitGate>> {
        group_commit.map(|gc| {
            let registry = engine.lock().obs.metrics.clone();
            Arc::new(crate::gate::CommitGate::new(gc, &registry))
        })
    }

    /// Begin a transaction.
    ///
    /// # Panics
    /// Panics if the database has crashed and not yet recovered — run
    /// [`Database::recover`] first.
    #[must_use]
    pub fn begin(&self) -> Transaction<D> {
        let id = self
            .engine
            .lock()
            .begin()
            .expect("database needs recovery before begin()");
        Transaction {
            engine: Arc::clone(&self.engine),
            gate: self.gate.clone(),
            id,
            finished: false,
        }
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
        let mut engine = self.engine.lock();
        let txn = engine.begin()?;
        let out = engine.txn_read(txn, DataPageId(page));
        let _ = engine.txn_abort(txn);
        out
    }

    /// Number of data pages.
    #[must_use]
    pub fn data_pages(&self) -> u32 {
        self.engine.lock().dur.array.data_pages()
    }

    /// Number of disks in the array (data + parity spindles).
    #[must_use]
    pub fn disks(&self) -> u16 {
        self.engine.lock().dur.array.geometry().disks()
    }

    /// Read every data page inside one transaction and return the images
    /// in page order — the state-dump the model-based checker diffs
    /// against its reference model. Using a single transaction makes the
    /// dump atomic under `strict_read_locks` (every page is S-locked
    /// before the first image is returned); at quiescence it is simply
    /// the committed state.
    ///
    /// # Errors
    /// [`DbError::NeedsRecovery`] after an unrecovered crash;
    /// [`DbError::LockConflict`] when an active transaction holds a page
    /// exclusively; array errors when a page is unreadable even in
    /// degraded mode.
    pub fn state_dump(&self) -> Result<Vec<Vec<u8>>> {
        let mut engine = self.engine.lock();
        let txn = engine.begin()?;
        let pages = engine.dur.array.data_pages();
        let mut dump = Vec::with_capacity(pages as usize);
        let mut out = Ok(());
        for page in 0..pages {
            match engine.txn_read(txn, DataPageId(page)) {
                Ok(image) => dump.push(image),
                Err(e) => {
                    out = Err(e);
                    break;
                }
            }
        }
        let _ = engine.txn_abort(txn);
        out.map(|()| dump)
    }

    /// Take an action-consistent checkpoint now.
    ///
    /// # Errors
    /// [`DbError::NeedsRecovery`] after an unrecovered crash; array errors
    /// when flushing dirty pages fails.
    pub fn checkpoint(&self) -> Result<()> {
        self.engine.lock().checkpoint()
    }

    /// Simulate a system failure: volatile state (buffer, dirty set, lock
    /// table, unforced log tail, active transactions) is lost. Until
    /// [`Database::recover`] runs, new work is refused.
    pub fn crash(&self) {
        self.engine.lock().crash();
    }

    /// Run restart recovery after a crash.
    ///
    /// # Errors
    /// Array errors when the UNDO/REDO passes cannot read or write the
    /// pages they need (e.g. a disk failed during the outage).
    pub fn recover(&self) -> Result<RecoveryReport> {
        self.engine.lock().recover()
    }

    /// Convenience: crash then recover.
    ///
    /// # Errors
    /// Same as [`Database::recover`].
    pub fn crash_and_recover(&self) -> Result<RecoveryReport> {
        let mut engine = self.engine.lock();
        engine.crash();
        engine.recover()
    }

    /// Move the log's low-water mark now and retire the archive pin.
    /// Returns the number of records discarded.
    ///
    /// The engine moves the mark by itself — at every commit under FORCE,
    /// at every ACC checkpoint under ¬FORCE — to the oldest record a
    /// restart could still need (last checkpoint / earliest active BOT /
    /// last archive dump), so on a running database this usually returns
    /// 0. What the call is still for: after [`Database::archive_dump`]
    /// the log is kept from the dump's position on until this call says
    /// the archive will not be restored any more (an archive older than
    /// the mark is refused by [`Database::archive_restore`]); and it cuts
    /// once more without waiting for the next checkpoint, e.g. after an
    /// abort.
    ///
    /// # Errors
    /// [`DbError::NeedsRecovery`] after an unrecovered crash.
    pub fn truncate_log(&self) -> Result<u64> {
        self.engine.lock().truncate_log()
    }

    /// Take a transaction-consistent full archive copy (the §1 baseline's
    /// backup pass). Requires quiescence; bills one read per page. The log
    /// is retained from this position on — so the archive can be rolled
    /// forward — until the next dump or [`Database::truncate_log`].
    ///
    /// # Errors
    /// [`DbError::ActiveTransactions`] unless quiescent; array errors when
    /// a page cannot be read.
    pub fn archive_dump(&self) -> Result<crate::Archive> {
        self.engine.lock().archive_dump()
    }

    /// Restore from an archive and roll forward from the redo log — the
    /// traditional media recovery the paper argues is too expensive.
    /// Returns the number of redo records applied.
    ///
    /// # Errors
    /// [`DbError::ActiveTransactions`] unless quiescent;
    /// [`DbError::ArchiveTooOld`] — before anything is written — when the
    /// log no longer reaches back to the archive (a later dump or
    /// [`Database::truncate_log`] retired it); array errors when writing
    /// restored pages fails.
    pub fn archive_restore(&self, archive: &crate::Archive) -> Result<u64> {
        self.engine.lock().archive_restore(archive)
    }

    /// Fail a disk (media failure injection).
    pub fn fail_disk(&self, disk: u16) {
        self.engine.lock().dur.array.fail_disk(DiskId(disk));
    }

    /// Is the disk currently failed (media recovery owed)?
    #[must_use]
    pub fn disk_failed(&self, disk: u16) -> bool {
        self.engine.lock().dur.array.disk_failed(DiskId(disk))
    }

    /// Fail the whole disk holding a data page (fault injection).
    pub fn fail_disk_of_page(&self, page: u32) {
        let engine = self.engine.lock();
        let loc = engine.dur.array.locate_data(DataPageId(page));
        engine.dur.array.fail_disk(loc.disk);
    }

    /// Inject a latent sector error under a data page (fault injection;
    /// the next scrub or degraded read repairs it).
    pub fn corrupt_data_page(&self, page: u32) {
        let engine = self.engine.lock();
        let loc = engine.dur.array.locate_data(DataPageId(page));
        engine.dur.array.corrupt(loc);
    }

    /// Inject a latent sector error under a group's committed parity page
    /// (fault injection).
    pub fn corrupt_committed_parity(&self, group: u32) {
        let engine = self.engine.lock();
        let g = rda_array::GroupId(group);
        let slot = engine.committed_slot(g);
        if let Some(loc) = engine.dur.array.geometry().parity_loc(g, slot) {
            engine.dur.array.corrupt(loc);
        }
    }

    /// Tear the parity twin covering the current on-disk contents of a
    /// group (the working twin while the group is dirty): the block is
    /// left half-overwritten and reads back as
    /// [`ArrayError::TornPage`](rda_array::ArrayError::TornPage) until
    /// rewritten. Fault injection for torn-write recovery tests.
    pub fn tear_current_parity(&self, group: u32) {
        let engine = self.engine.lock();
        let g = rda_array::GroupId(group);
        let slot = engine.disk_read_slot(g);
        if let Some(loc) = engine.dur.array.geometry().parity_loc(g, slot) {
            engine.dur.array.tear(loc);
        }
    }

    /// Tear the block under a data page (fault injection; see
    /// [`Database::tear_current_parity`]).
    pub fn tear_data_page(&self, page: u32) {
        let engine = self.engine.lock();
        let loc = engine.dur.array.locate_data(DataPageId(page));
        engine.dur.array.tear(loc);
    }

    /// Install a deterministic fault hook: every physical array I/O is
    /// offered to `hook` before it touches a disk (see
    /// [`rda_array::FaultHook`]). Replaces any previous hook and resets
    /// the fault counters.
    pub fn install_fault_hook(&self, hook: std::sync::Arc<dyn rda_array::FaultHook>) {
        self.engine.lock().dur.array.install_fault_hook(hook);
    }

    /// Stop consulting the installed fault hook (its accumulated
    /// [`Database::fault_stats`] remain readable).
    pub fn clear_fault_hook(&self) {
        self.engine.lock().dur.array.clear_fault_hook();
    }

    /// Counters for the faults an installed hook actually fired, or
    /// `None` if no hook was ever installed.
    #[must_use]
    pub fn fault_stats(&self) -> Option<std::sync::Arc<rda_array::FaultStats>> {
        self.engine.lock().dur.array.fault_stats()
    }

    /// Install a blank replacement for a failed disk without rebuilding
    /// it (use before [`Database::archive_restore`] after a multi-disk
    /// disaster; single failures should use [`Database::media_recover`],
    /// which replaces and rebuilds in one step).
    pub fn replace_disk_blank(&self, disk: u16) {
        self.engine
            .lock()
            .dur
            .array
            .replace_disk_blank(DiskId(disk));
    }

    /// Rebuild a failed disk from the surviving group members. Requires
    /// quiescence (no active transactions).
    ///
    /// # Errors
    /// [`DbError::ActiveTransactions`] unless quiescent;
    /// [`ArrayError::Unrecoverable`](rda_array::ArrayError::Unrecoverable)
    /// when a second failure blocks reconstruction.
    pub fn media_recover(&self, disk: u16) -> Result<u64> {
        self.engine.lock().media_recover(DiskId(disk))
    }

    /// Rebuild the (failed) disk holding `page` — the recovery-side
    /// pairing of [`Database::fail_disk_of_page`].
    ///
    /// # Errors
    /// Same as [`Database::media_recover`].
    pub fn media_recover_of_page(&self, page: u32) -> Result<u64> {
        let mut engine = self.engine.lock();
        let disk = engine.dur.array.locate_data(DataPageId(page)).disk;
        engine.media_recover(disk)
    }

    /// Current I/O statistics.
    #[must_use]
    pub fn stats(&self) -> DbStats {
        let engine = self.engine.lock();
        DbStats {
            array: engine.dur.array.stats().snapshot(),
            log: engine.dur.log_store.stats().snapshot(),
            buffer: engine.buffer.stats(),
        }
    }

    /// Per-disk transfer totals of the array (load-balance view).
    #[must_use]
    pub fn stats_per_disk(&self) -> Vec<u64> {
        self.engine.lock().dur.array.stats().per_disk()
    }

    /// Total bytes appended durably to the log (one copy) — the quantity
    /// the paper's record-logging analysis divides by `l_p`.
    #[must_use]
    pub fn log_bytes(&self) -> u64 {
        self.engine.lock().dur.log_store.bytes()
    }

    /// Scrub the array's parity invariants; returns violations (empty when
    /// consistent). Bills array reads like a real scrubber.
    ///
    /// # Errors
    /// Array errors when a parity or data page cannot be read at all (a
    /// *mismatch* is reported in the returned list, not as an error).
    pub fn verify(&self) -> Result<Vec<String>> {
        self.engine.lock().verify_parity()
    }

    /// Patrol scrub: read every data and committed-parity page, repairing
    /// latent sector errors from parity. Requires quiescence.
    ///
    /// # Errors
    /// [`DbError::ActiveTransactions`] unless quiescent; array errors when
    /// repair writes fail.
    pub fn scrub(&self) -> Result<crate::ScrubReport> {
        self.engine.lock().scrub_repair()
    }

    /// Number of transactions currently active.
    #[must_use]
    pub fn active_transactions(&self) -> usize {
        self.engine.lock().active.len()
    }

    /// This database's observability hub (shared event tracer + metrics
    /// registry). Cheap to clone; all handles alias the same state.
    #[must_use]
    pub fn obs(&self) -> ObsHub {
        self.engine.lock().obs.clone()
    }

    /// The shared metrics registry (counters, views over the I/O and
    /// buffer stats, histograms).
    #[must_use]
    pub fn metrics(&self) -> Arc<MetricsRegistry> {
        Arc::clone(&self.engine.lock().obs.metrics)
    }

    /// The shared event tracer. Enabled at open time when
    /// [`DbConfig::trace_events`](crate::DbConfig) is positive, or at any
    /// point via [`rda_obs::Tracer::enable`].
    #[must_use]
    pub fn tracer(&self) -> Arc<Tracer> {
        Arc::clone(&self.engine.lock().obs.tracer)
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

    /// Run the cross-layer invariant auditor (parity-vs-twins XOR
    /// recompute, `Dirty_Set` cross-checks, lock/chain leak detection) on
    /// the current state. Reads the array through the unbilled peek
    /// interface, so the transfer counters are untouched. With the
    /// `paranoid` feature the same auditor also runs automatically after
    /// every steal, commit, abort and scrub.
    #[must_use]
    pub fn audit(&self) -> crate::AuditReport {
        self.engine.lock().run_audit()
    }

    /// Overwrite a group's *committed* parity twin with readable garbage
    /// (fault injection for the auditor: unlike
    /// [`Database::corrupt_committed_parity`], the sector stays readable,
    /// so only an XOR recompute can notice).
    pub fn scribble_committed_parity(&self, group: u32) {
        let engine = self.engine.lock();
        let g = rda_array::GroupId(group);
        let slot = engine.committed_slot(g);
        if let Ok(mut parity) = engine.dur.array.peek_parity(g, slot) {
            for (i, b) in parity.as_mut().iter_mut().enumerate() {
                *b ^= 0xA5_u8.wrapping_add(i as u8);
            }
            let _ = engine.dur.array.write_parity(g, slot, &parity);
        }
    }
}

/// A transaction handle. Dropped without [`Transaction::commit`], it aborts
/// (best-effort).
pub struct Transaction<D: BlockDevice = DefaultDisk> {
    engine: Arc<Mutex<Engine<D>>>,
    gate: Option<Arc<crate::gate::CommitGate>>,
    id: TxnId,
    finished: bool,
}

impl<D: BlockDevice> Transaction<D> {
    /// This transaction's identifier.
    #[must_use]
    pub fn id(&self) -> TxnId {
        self.id
    }

    /// Read a page.
    ///
    /// # Errors
    /// [`DbError::LockConflict`] when another transaction writes the page;
    /// [`DbError::BadPage`] for an out-of-range page.
    pub fn read(&mut self, page: u32) -> Result<Vec<u8>> {
        self.engine.lock().txn_read(self.id, DataPageId(page))
    }

    /// Overwrite a page (page-logging granularity). Payloads shorter than
    /// the page are zero-padded.
    ///
    /// # Errors
    /// [`DbError::LockConflict`] on lock conflict; [`DbError::BadPage`] /
    /// [`DbError::PageOverflow`] for bad addresses;
    /// [`DbError::WrongGranularity`] under record logging.
    pub fn write(&mut self, page: u32, data: &[u8]) -> Result<()> {
        self.engine
            .lock()
            .txn_write(self.id, DataPageId(page), data)
    }

    /// Update a byte range of a page (record-logging granularity).
    ///
    /// # Errors
    /// [`DbError::LockConflict`] on lock conflict; [`DbError::BadPage`] /
    /// [`DbError::PageOverflow`] for bad addresses;
    /// [`DbError::WrongGranularity`] under page logging.
    pub fn update(&mut self, page: u32, offset: usize, data: &[u8]) -> Result<()> {
        self.engine
            .lock()
            .txn_update(self.id, DataPageId(page), offset, data)
    }

    /// Commit. Consumes the handle. A commit that fails before its commit
    /// record is written (a FORCE write-back on a dying disk, say) aborts
    /// the transaction and releases its locks, gated or not; after a crash
    /// restart recovery does that instead.
    ///
    /// # Errors
    /// [`DbError::UnknownTxn`] if a crash wiped the transaction; array
    /// errors when a write-back, the durability barrier or the log force
    /// fails.
    pub fn commit(mut self) -> Result<TxnId> {
        self.finished = true;
        match &self.gate {
            // Group commit: batch this committer's durability barrier
            // with any concurrent ones.
            Some(gate) => gate.commit(&self.engine, self.id)?,
            None => self.engine.lock().txn_commit(self.id)?,
        }
        Ok(self.id)
    }

    /// Abort and roll back. Consumes the handle.
    ///
    /// # Errors
    /// [`DbError::UnknownTxn`] if a crash wiped the transaction; array
    /// errors when rollback I/O fails.
    pub fn abort(mut self) -> Result<()> {
        self.finished = true;
        self.engine.lock().txn_abort(self.id)
    }
}

impl<D: BlockDevice> Drop for Transaction<D> {
    fn drop(&mut self) {
        if !self.finished {
            let mut engine = self.engine.lock();
            // After a crash the transaction is already gone; ignore.
            // `Array(Crashed)` is the same death observed mid-flight: the
            // power latch is down, the abort's I/O is refused, and restart
            // recovery will undo the transaction as a loser.
            match engine.txn_abort(self.id) {
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
        }
    }
}
