//! The recovery engine: transaction execution, steal handling, commit and
//! abort (paper §4).
//!
//! One [`Engine`] instance runs either the paper's **RDA** scheme (twin-page
//! parity UNDO) or the traditional **WAL** baseline (before-image logging on
//! every steal), selected by [`EngineKind`](crate::EngineKind). All physical
//! I/O — array transfers and log-page transfers — is billed to shared
//! counters so workloads can be compared against the paper's analytical
//! model transfer-for-transfer.
//!
//! ## The steal decision (paper Figure 3)
//!
//! When a page modified by an uncommitted transaction must be written to
//! the database (buffer eviction, FORCE at EOT, or an ACC checkpoint), the
//! engine classifies the write:
//!
//! * group **clean** → the steal *dirties* the group: the obsolete twin
//!   becomes the working parity (`P_work := P_committed ⊕ old ⊕ new`),
//!   written first with its header claimed for the transaction and the
//!   page, and made durable before the data page is written (no log I/O
//!   — the BOT record alone must already be durable); no before-image is
//!   logged;
//! * group dirty **for the same page and transaction** → the working twin
//!   is updated in place, again with no before-image;
//! * otherwise → the before-image (or record-level before-diffs) is forced
//!   to the log, and the write updates **both** twins so the parity
//!   difference `P ⊕ P′` continues to encode exactly the un-logged page's
//!   old⊕new.

use crate::backend::{BackendSetup, IntentRecord, MetaSink};
use crate::config::{CheckpointPolicy, DbConfig, EngineKind, EotPolicy, LogGranularity};
use crate::error::{DbError, Result};
use crate::locks::LockTable;
use crate::twin::{StealClass, TwinDirectory};
use rda_array::{
    BlockDevice, DataPageId, DefaultDisk, DiskArray, GroupId, Header, Page, ParitySlot,
};
use rda_buffer::BufferPool;
use rda_obs::{
    monotonic_nanos, Counter, EventKind, FlightRecord, Histogram, MetricsRegistry, ObsHub,
    StealKind, NANOS_BOUNDS,
};
use rda_wal::{Analysis, CheckpointKind, LogManager, LogRecord, LogStore, Lsn, TxnId};
use std::collections::{BTreeMap, BTreeSet, HashMap};
use std::sync::Arc;

/// A record-granularity update (offset, before bytes, after bytes).
#[derive(Debug, Clone)]
pub(crate) struct RecOp {
    pub offset: u32,
    pub before: Vec<u8>,
    pub after: Vec<u8>,
}

/// Volatile per-transaction state.
#[derive(Debug, Default)]
pub(crate) struct TxnState {
    /// The router's global id of the transaction this engine transaction
    /// belongs to; lock conflicts name their holder by it.
    pub gid: u64,
    /// LSN of the BOT record, once it is appended (lazily: when the
    /// transaction first needs UNDO protection on disk, §4.3). Rollback
    /// reads the log from here.
    pub bot_lsn: Option<Lsn>,
    /// The oldest log record a restart may need on this transaction's
    /// account, set with `bot_lsn`: the BOT itself, or under ¬FORCE the
    /// ACC checkpoint in effect when it was appended. Restart undoes a
    /// parity-riding page to its *pre-steal disk version*, which may
    /// predate committed updates that had not left the buffer; their redo
    /// records lie after that checkpoint (it flushed everything older)
    /// and must outlive this transaction. [`Engine::advance_low_water`]
    /// never cuts above it.
    pub log_pin: Option<Lsn>,
    /// First-touch before-images (for in-buffer rollback).
    pub before: HashMap<DataPageId, Page>,
    /// Pages written by this transaction.
    pub written: BTreeSet<DataPageId>,
    /// Last version of each page this transaction has stolen to disk.
    pub last_stolen: HashMap<DataPageId, Page>,
    /// Pages stolen riding the parity (no UNDO logging).
    pub stolen_parity: BTreeSet<DataPageId>,
    /// Pages stolen under before-image / record-diff logging.
    pub stolen_logged: BTreeSet<DataPageId>,
    /// Record-granularity ops per page, in execution order.
    pub rec_ops: HashMap<DataPageId, Vec<RecOp>>,
    /// How many of `rec_ops[page]` have had their before-diffs logged.
    pub undo_logged_upto: HashMap<DataPageId, usize>,
    /// [`monotonic_nanos`] at `begin`, closing into the commit-latency
    /// histogram at commit-ack time.
    pub begin_nanos: u64,
}

impl TxnState {
    /// Cache `data` as the last disk image this transaction stole for
    /// `page`. Refreshing an existing entry copies into the page buffer
    /// already held (`Page::clone_from` reuses the allocation) instead of
    /// building a new page per steal.
    pub(crate) fn note_stolen(&mut self, page: DataPageId, data: &Page) {
        match self.last_stolen.entry(page) {
            std::collections::hash_map::Entry::Occupied(mut e) => e.get_mut().clone_from(data),
            std::collections::hash_map::Entry::Vacant(e) => {
                e.insert(data.clone());
            }
        }
    }

    /// `current`, the page as it stands in the buffer or on disk, with
    /// this transaction's updates rolled back: the first-touch image under
    /// page logging (`None` for a page it never wrote), `current` with the
    /// transaction's own diffs reverse-applied under record logging, so
    /// that other transactions' bytes in the same page survive.
    pub(crate) fn rollback_image(
        &self,
        page: DataPageId,
        granularity: LogGranularity,
        current: &Page,
    ) -> Option<Page> {
        match granularity {
            LogGranularity::Page => self.before.get(&page).cloned(),
            LogGranularity::Record => {
                let mut img = current.clone();
                for op in self.rec_ops.get(&page).into_iter().flatten().rev() {
                    let off = op.offset as usize;
                    img.as_mut()[off..off + op.before.len()].copy_from_slice(&op.before);
                }
                Some(img)
            }
        }
    }
}

/// A dirty group's Dirty_Set entry as [`Engine::claim`] reads it off the
/// twin directory: the one page riding the group's parity, the
/// transaction that stole it there, and the working twin.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Claim {
    pub page: DataPageId,
    pub txn: TxnId,
    pub working: ParitySlot,
}

/// The durable half of a database: everything that survives a crash.
pub(crate) struct Durable<D: BlockDevice = DefaultDisk> {
    pub array: Arc<DiskArray<D>>,
    pub log_store: Arc<LogStore>,
    /// Modeled controller NVRAM closing the RAID small-write hole: a crash
    /// between a data-page write and its parity update(s) would otherwise
    /// leave the parity silently stale — undetectable afterwards, because
    /// log-driven redo skips pages whose contents already match. Real
    /// arrays close the hole with a battery-backed staging buffer; this
    /// slot models exactly that (one RMW's pages, no extra transfers).
    pub intent: Option<IntentRecord>,
    /// Backend journal for the staged intent. `None` on the simulated
    /// array, where process memory *is* the durable medium.
    pub meta: Option<Arc<dyn MetaSink>>,
}

/// The platter half of a staged read-modify-write, run by
/// [`Engine::write_with_parity`] and by restart's intent replay: the data
/// page, then each parity. A write to a dead disk is skipped, because the
/// rebuild recomputes its block; any other error stops the sequence.
/// Returns whether any block landed: if none did, the group encodes the
/// new contents nowhere.
pub(crate) fn write_staged<D: BlockDevice>(
    array: &DiskArray<D>,
    intent: &IntentRecord,
) -> rda_array::Result<bool> {
    let mut landed = match array.write_data_unprotected(intent.page, &intent.data) {
        Ok(()) => true,
        Err(rda_array::ArrayError::DiskFailed(_)) => false,
        Err(e) => return Err(e),
    };
    for (g, slot, parity) in &intent.parity {
        match array.write_parity(*g, *slot, parity) {
            Ok(()) => landed = true,
            Err(rda_array::ArrayError::DiskFailed(_)) => {}
            Err(e) => return Err(e),
        }
    }
    Ok(landed)
}

/// Engine-owned counters and histograms, registered in the shared
/// [`MetricsRegistry`] at open time. The handles are cached here so the
/// hot paths never take the registry lock.
pub(crate) struct EngineMetrics {
    pub commits: Counter,
    pub aborts: Counter,
    pub steals_parity: Counter,
    pub steals_logged: Counter,
    pub undo_parity: Counter,
    pub undo_log: Counter,
    pub lock_conflicts: Counter,
    pub recoveries: Counter,
    pub pages_per_commit: Arc<Histogram>,
    /// begin → commit-ack wall time per committed transaction.
    pub commit_nanos: Arc<Histogram>,
    /// First-conflict → acquisition wall time per contended page lock.
    pub lock_wait_nanos: Arc<Histogram>,
    /// Time inside `log.force()` on the commit path.
    pub log_force_nanos: Arc<Histogram>,
    /// Time inside the commit durability barrier (one fsync per disk on
    /// the file backend; effectively zero on the simulated array).
    pub barrier_nanos: Arc<Histogram>,
}

impl EngineMetrics {
    fn register(metrics: &MetricsRegistry) -> EngineMetrics {
        EngineMetrics {
            commits: metrics.counter("engine_commits_total"),
            aborts: metrics.counter("engine_aborts_total"),
            steals_parity: metrics.counter("engine_steals_parity_total"),
            steals_logged: metrics.counter("engine_steals_logged_total"),
            undo_parity: metrics.counter("engine_undo_parity_total"),
            undo_log: metrics.counter("engine_undo_log_total"),
            lock_conflicts: metrics.counter("engine_lock_conflicts_total"),
            recoveries: metrics.counter("engine_recoveries_total"),
            pages_per_commit: metrics
                .histogram("engine_pages_per_commit", &[1, 2, 4, 8, 16, 32, 64]),
            commit_nanos: metrics.histogram("engine_commit_nanos", &NANOS_BOUNDS),
            lock_wait_nanos: metrics.histogram("engine_lock_wait_nanos", &NANOS_BOUNDS),
            log_force_nanos: metrics.histogram("engine_log_force_nanos", &NANOS_BOUNDS),
            barrier_nanos: metrics.histogram("engine_barrier_nanos", &NANOS_BOUNDS),
        }
    }
}

/// The database engine (volatile state over [`Durable`] storage).
pub struct Engine<D: BlockDevice = DefaultDisk> {
    pub(crate) cfg: DbConfig,
    pub(crate) dur: Durable<D>,
    pub(crate) log: LogManager,
    pub(crate) buffer: BufferPool,
    /// The twin headers as the engine means them to be (see
    /// [`TwinDirectory`]), the Dirty_Set included: lost in a crash,
    /// rebuilt by restart.
    pub(crate) twins: TwinDirectory,
    pub(crate) locks: LockTable,
    pub(crate) active: HashMap<TxnId, TxnState>,
    pub(crate) next_txn: u64,
    pub(crate) clock: u64,
    pub(crate) ops_since_ckpt: u64,
    /// Where ¬FORCE redo starts: the last ACC checkpoint record, or the
    /// log's base while the retained log holds none.
    pub(crate) redo_start: Lsn,
    /// Log position of the last [`Engine::archive_dump`]: restoring that
    /// archive replays the log from here, so the low-water mark stays at
    /// or below it until [`Engine::truncate_log`] retires the archive.
    pub(crate) archive_pin: Option<Lsn>,
    pub(crate) needs_recovery: bool,
    pub(crate) obs: ObsHub,
    pub(crate) metrics: EngineMetrics,
    /// Called after every commit/checkpoint durability barrier — the
    /// backend's flight recorder hangs its black-box flush here.
    pub(crate) barrier_hook: Option<Arc<dyn Fn() + Send + Sync>>,
    /// The pre-crash flight record the backend read back at reopen,
    /// handed to the first [`RecoveryReport`](crate::RecoveryReport).
    pub(crate) prior_flight: Option<FlightRecord>,
    /// The backend journal still holds the last staged write intent,
    /// whose sequence has finished; see [`Engine::retire_intent`].
    pub(crate) intent_journaled: bool,
    /// [`DiskArray::deaths`] at [`Engine::settle_disk_deaths`]'s last look.
    pub(crate) deaths_seen: u64,
    /// The page a group-dirtying steal reads the committed twin into,
    /// reused from steal to steal.
    parity_scratch: Page,
}

impl Engine {
    /// Create a fresh database over the default simulated disks.
    pub(crate) fn open(cfg: DbConfig) -> Engine {
        let disks = rda_array::sim_disks_for(&cfg.array);
        Engine::open_with(cfg, BackendSetup::fresh(disks))
    }
}

impl<D: BlockDevice> Engine<D> {
    /// Create (or reopen) a database over backend-supplied disks. When the
    /// setup carries [`RestoredState`](crate::backend::RestoredState) the
    /// engine comes up needing recovery, exactly as after a simulated
    /// crash.
    pub(crate) fn open_with(cfg: DbConfig, setup: BackendSetup<D>) -> Engine<D> {
        cfg.validate();
        let BackendSetup {
            disks,
            meta_sink,
            log_sink,
            restored,
        } = setup;
        let obs = ObsHub::new();
        if cfg.trace_events > 0 {
            obs.tracer.enable(cfg.trace_events);
        }
        obs.tracer.set_spans(cfg.span_events);
        let array = Arc::new(DiskArray::with_disks(
            cfg.array.clone(),
            Arc::clone(&obs.tracer),
            disks,
        ));
        let groups = array.groups();
        let needs_recovery = restored.is_some();
        let (intent, log_base, log_records) = match restored {
            Some(r) => (r.intent, r.log_base, r.log_records),
            None => (None, 0, Vec::new()),
        };
        let log_store = LogStore::restore(cfg.log.clone(), log_base, log_records, log_sink);
        let buffer = BufferPool::with_obs(cfg.buffer.clone(), Arc::clone(&obs.tracer));
        // The legacy `DbStats` counters become registry views: the atomics
        // keep living where they always did (array/log I/O stats, pool
        // counters); the registry only reads them at export time.
        {
            let io = array.stats();
            let r = Arc::clone(&io);
            obs.metrics
                .register_view("array_reads_total", move || r.reads());
            obs.metrics
                .register_view("array_writes_total", move || io.writes());
            let log_io = log_store.stats();
            let lr = Arc::clone(&log_io);
            obs.metrics
                .register_view("log_reads_total", move || lr.reads());
            obs.metrics
                .register_view("log_writes_total", move || log_io.writes());
            // Is the log bounded? The low-water mark and what it retains.
            let store = Arc::clone(&log_store);
            obs.metrics
                .register_view("wal_low_water_lsn", move || store.base());
            let store = Arc::clone(&log_store);
            obs.metrics
                .register_view("wal_retained_bytes", move || store.retained_bytes());
            let pc = buffer.counters();
            let c = Arc::clone(&pc);
            obs.metrics
                .register_view("buffer_hits_total", move || c.load().hits);
            let c = Arc::clone(&pc);
            obs.metrics
                .register_view("buffer_misses_total", move || c.load().misses);
            let c = Arc::clone(&pc);
            obs.metrics
                .register_view("buffer_steals_total", move || c.load().steals);
            let c = Arc::clone(&pc);
            obs.metrics
                .register_view("buffer_writebacks_total", move || c.load().writebacks);
            let c = Arc::clone(&pc);
            obs.metrics
                .register_view("buffer_drops_total", move || c.load().drops);
            obs.metrics
                .register_view("buffer_eviction_scans_total", move || {
                    pc.load().eviction_scans
                });
        }
        let metrics = EngineMetrics::register(&obs.metrics);
        // A reopened database's headers are on its platters until restart
        // reads them.
        let mut twins = TwinDirectory::new(groups);
        if needs_recovery {
            twins.forget();
        }
        let parity_scratch = array.blank_page();
        let dur = Durable {
            array,
            log_store: Arc::clone(&log_store),
            intent,
            meta: meta_sink,
        };
        Engine {
            log: LogManager::new(log_store),
            buffer,
            twins,
            locks: LockTable::new(),
            active: HashMap::new(),
            next_txn: 1,
            clock: 1,
            ops_since_ckpt: 0,
            redo_start: Lsn(log_base),
            archive_pin: None,
            needs_recovery,
            cfg,
            dur,
            obs,
            metrics,
            barrier_hook: None,
            prior_flight: None,
            intent_journaled: false,
            deaths_seen: 0,
            parity_scratch,
        }
    }

    /// Is this the RDA engine (twin parity UNDO)?
    pub(crate) fn is_rda(&self) -> bool {
        self.cfg.engine == EngineKind::Rda
    }

    pub(crate) fn tick(&mut self) -> u64 {
        self.clock += 1;
        self.clock
    }

    fn check_ready(&self) -> Result<()> {
        if self.needs_recovery {
            return Err(DbError::NeedsRecovery);
        }
        Ok(())
    }

    fn check_page(&self, page: DataPageId) -> Result<()> {
        if page.0 >= self.dur.array.data_pages() {
            return Err(DbError::BadPage(page));
        }
        Ok(())
    }

    fn txn_state(&mut self, txn: TxnId) -> Result<&mut TxnState> {
        self.active.get_mut(&txn).ok_or(DbError::UnknownTxn(txn))
    }

    /// Note a denied lock request (the requester sees the conflict error;
    /// this model has no blocking waits) in the trace and metrics, and
    /// return the lock table's error with its holder named by global id.
    fn lock_conflict(&self, page: DataPageId, txn: TxnId, e: DbError) -> DbError {
        self.metrics.lock_conflicts.inc();
        self.obs
            .locks
            .note_conflict(page.0, txn.0, monotonic_nanos());
        self.obs.tracer.emit(|| EventKind::LockWait {
            page: page.0,
            txn: txn.0,
        });
        match e {
            DbError::LockConflict { page, holder } => DbError::LockConflict {
                page,
                holder: self.active.get(&holder).map_or(holder, |t| TxnId(t.gid)),
            },
            other => other,
        }
    }

    /// Note a successful page-lock acquisition: if this `(txn, page)`
    /// pair conflicted earlier, the retry that finally won closes one
    /// lock-wait sample into the histogram.
    fn note_lock_acquired(&self, page: DataPageId, txn: TxnId) {
        if !self.obs.locks.has_pending() {
            return; // uncontended fast path: one relaxed load
        }
        if let Some(wait) = self
            .obs
            .locks
            .note_acquired(page.0, txn.0, monotonic_nanos())
        {
            self.metrics.lock_wait_nanos.observe(wait);
        }
    }

    // ---- the Dirty_Set and parity slot selection --------------------------

    /// The twin the directory names Working in group `g`, if any: the
    /// group is dirty while it has one.
    pub(crate) fn working_twin(&self, g: GroupId) -> Option<ParitySlot> {
        self.twins.meta(g).working()
    }

    /// Group `g`'s Dirty_Set entry, read off its working twin's header:
    /// the claim's rider index mapped to its page. `None` while the group
    /// is clean.
    pub(crate) fn claim(&self, g: GroupId) -> Option<Claim> {
        let working = self.working_twin(g)?;
        let header = self.twins.header(g, working);
        let mut members = self.dur.array.geometry().member_pages(g);
        Some(Claim {
            page: members.nth(usize::from(header.rider))?,
            txn: TxnId(header.txn),
            working,
        })
    }

    /// The twin holding the last *committed* parity of a group.
    pub(crate) fn committed_slot(&self, g: GroupId) -> ParitySlot {
        if !self.is_rda() {
            return ParitySlot::P0;
        }
        match self.working_twin(g) {
            Some(working) => working.other(),
            None => self.twins.current_slot(g),
        }
    }

    /// The twin whose parity covers the *current on-disk contents* of a
    /// group (the working twin while the group is dirty). Degraded reads
    /// must reconstruct through this one.
    pub(crate) fn disk_read_slot(&self, g: GroupId) -> ParitySlot {
        if !self.is_rda() {
            return ParitySlot::P0;
        }
        match self.working_twin(g) {
            Some(working) => working,
            None => self.twins.current_slot(g),
        }
    }

    /// Are all disks hosting group `g` — every data member and both
    /// parity twins — alive? Parity riding consumes exactly the
    /// redundancy a dead member is already spending, so
    /// [`Engine::steal_single`] refuses to ride in a degraded group.
    fn group_fully_alive(&self, g: GroupId) -> bool {
        let geo = self.dur.array.geometry();
        let members_alive = geo
            .member_pages(g)
            .all(|p| !self.dur.array.disk_failed(geo.data_loc(p).disk));
        members_alive && ParitySlot::BOTH.iter().all(|s| !self.twin_dead(g, *s))
    }

    /// Is the disk holding twin `slot` of group `g` dead?
    fn twin_dead(&self, g: GroupId, slot: ParitySlot) -> bool {
        let loc = self.dur.array.geometry().parity_loc(g, slot);
        loc.is_some_and(|loc| self.dur.array.disk_failed(loc.disk))
    }

    /// Which parity twins a data-page write must update: the committed one
    /// for a clean group, **both** for a dirty group (so `P ⊕ P′` keeps
    /// encoding the un-logged page's old⊕new — paper footnote on the
    /// `2·p_l` term).
    fn write_slots(&self, g: GroupId) -> Vec<ParitySlot> {
        if !self.is_rda() {
            return vec![ParitySlot::P0];
        }
        match self.working_twin(g) {
            Some(working) => vec![working, working.other()],
            None => vec![self.twins.current_slot(g)],
        }
    }

    // ---- physical I/O helpers ------------------------------------------

    /// Read the current on-disk contents of a page, falling back to XOR
    /// reconstruction through the correct twin when a disk has failed.
    pub(crate) fn read_disk(&self, page: DataPageId) -> Result<Page> {
        let mut data = self.dur.array.blank_page();
        self.read_disk_into(page, &mut data)?;
        Ok(data)
    }

    /// [`Engine::read_disk`] into `dst`'s buffer: a buffer miss reads
    /// into its victim's frame this way.
    fn read_disk_into(&self, page: DataPageId, dst: &mut Page) -> Result<()> {
        match self.dur.array.try_read_data_into(page, dst) {
            Ok(()) => Ok(()),
            Err(
                rda_array::ArrayError::DiskFailed(_)
                | rda_array::ArrayError::MediaError { .. }
                | rda_array::ArrayError::TornPage { .. },
            ) => {
                let g = self.dur.array.geometry().group_of(page);
                *dst = self
                    .dur
                    .array
                    .reconstruct_data(page, self.disk_read_slot(g))?;
                Ok(())
            }
            Err(e) => Err(e.into()),
        }
    }

    /// Write `new` over `page`, updating each parity page in `slots` with
    /// the `old ⊕ new` delta; each twin is written with the directory's
    /// header for it, and a page riding its group's parity keeps its copy
    /// of the claim. Costs `|slots|` reads + `1 + |slots|` writes.
    ///
    /// Degraded mode: a single failed disk is tolerated — a write landing
    /// on the dead disk is skipped, because the parity (or, for a dead
    /// parity twin, the surviving data) still encodes the new contents and
    /// the rebuild recomputes the missing block. The write only fails when
    /// the new contents would be encoded nowhere.
    pub(crate) fn write_with_parity(
        &mut self,
        page: DataPageId,
        new: &Page,
        old: &Page,
        slots: &[ParitySlot],
    ) -> Result<()> {
        let g = self.dur.array.geometry().group_of(page);
        // A dead twin carries no information worth updating (the rebuild
        // will recompute its block), so only live parities are staged.
        let mut staged: Vec<(GroupId, ParitySlot, Page)> = Vec::with_capacity(slots.len());
        for slot in slots {
            match self.dur.array.read_parity(g, *slot) {
                Ok(mut parity) => {
                    parity.xor_many_in_place(&[old, new]);
                    parity.set_header(self.twins.header(g, *slot));
                    staged.push((g, *slot, parity));
                }
                Err(rda_array::ArrayError::DiskFailed(_)) => {}
                Err(e) => return Err(e.into()),
            }
        }
        // Stage the full write set in the modeled controller NVRAM before
        // touching the platters: if power fails partway through the
        // sequence, restart recovery replays the intent and the
        // data/parity pair can never end up silently inconsistent. The
        // parity pages are *moved* into the staging slot — the platter
        // writes below read them back out of it, so nothing is copied.
        //
        // With a journaling backend there is one NVRAM slot but a queue of
        // in-flight platter writes, so reusing the slot must wait until the
        // previous sequence has fully reached the platters — otherwise the
        // journal could name intent N while intent N-1's writes are still
        // in flight and unreplayable. The barrier is free on the simulated
        // array and skipped entirely without a journal.
        let sink = self.dur.meta.clone();
        if sink.is_some() {
            self.dur.array.write_barrier()?;
        }
        let mark = match self.claim(g) {
            Some(claim) if claim.page == page => self.twins.header(g, claim.working),
            _ => Header::default(),
        };
        let intent = self.dur.intent.insert(IntentRecord {
            page,
            data: new.clone().with_header(mark),
            parity: staged,
        });
        if let Some(sink) = &sink {
            // Durable before any platter write of this sequence is issued.
            sink.intent_set(intent);
            self.intent_journaled = true;
        }
        let landed = write_staged(&self.dur.array, intent);
        // The staging buffer is only needed while power can vanish
        // mid-sequence; on a crash error it must survive for replay.
        if !matches!(landed, Err(rda_array::ArrayError::Crashed)) {
            self.dur.intent = None;
        }
        if !landed? {
            // Two losses in one group: the new contents are gone.
            return Err(rda_array::ArrayError::Unrecoverable(g).into());
        }
        self.refresh_stolen_cache(page, new);
        Ok(())
    }

    /// The array, for a sequence of platter writes that stages no intent
    /// of its own: a group-dirtying steal, a parity undo, an archive
    /// restore, a scrub repair. Each such sequence makes its first write
    /// through here, so that the last intent retires before it (see
    /// [`Engine::retire_intent`]).
    pub(crate) fn unstaged(&mut self) -> rda_array::Result<&DiskArray<D>> {
        self.retire_intent()?;
        Ok(&self.dur.array)
    }

    /// Retire the intent the backend journal still holds from the last
    /// read-modify-write. Restart replays a journaled intent verbatim, so
    /// one left behind would put its older images back over any later
    /// write that staged none. The barrier makes the sequence the intent
    /// guards durable first; the clear is durable on return, so it lands
    /// before the write that follows. Private: every other module reaches
    /// it through [`Engine::unstaged`].
    fn retire_intent(&mut self) -> rda_array::Result<()> {
        let Some(sink) = self.dur.meta.clone() else {
            return Ok(());
        };
        if self.intent_journaled {
            self.dur.array.write_barrier()?;
            sink.intent_clear();
            self.intent_journaled = false;
        }
        Ok(())
    }

    /// Keep every active transaction's cached last-written disk image of
    /// `page` accurate after a disk write — a stale cache would corrupt
    /// the next parity delta computed from it.
    pub(crate) fn refresh_stolen_cache(&mut self, page: DataPageId, data: &Page) {
        for st in self.active.values_mut() {
            if let Some(img) = st.last_stolen.get_mut(&page) {
                img.clone_from(data);
            }
        }
    }

    /// Best available old-disk image for `page` before overwriting it.
    ///
    /// A version this transaction previously stole is authoritative; under
    /// FORCE with *page* locking the first-touch before-image equals the
    /// disk version (every committed predecessor was forced, and page locks
    /// exclude concurrent co-writers); otherwise the page is read (the
    /// model's `a = 4` case). Under record locking another transaction's
    /// uncommitted bytes can sit in the first-touch image, so it is never
    /// trusted as the disk version there.
    fn old_disk_image(&self, page: DataPageId, owner: Option<TxnId>) -> Result<Page> {
        match owner.and_then(|txn| self.cached_disk_image(page, txn)) {
            Some(img) => Ok(img.clone()),
            None => self.read_disk(page),
        }
    }

    /// The disk image of `page` that `txn` holds in memory, if any (see
    /// [`Engine::old_disk_image`]): the version it last stole, or its
    /// first-touch before-image under FORCE with page locking.
    fn cached_disk_image(&self, page: DataPageId, txn: TxnId) -> Option<&Page> {
        let st = self.active.get(&txn)?;
        st.last_stolen.get(&page).or_else(|| {
            let forced = self.cfg.eot == EotPolicy::Force;
            let paged = self.cfg.granularity == LogGranularity::Page;
            st.before.get(&page).filter(|_| forced && paged)
        })
    }

    // ---- logging helpers -------------------------------------------------

    fn ensure_bot(&mut self, txn: TxnId) -> Result<()> {
        if self.txn_state(txn)?.bot_lsn.is_none() {
            let bot = self.log.append(LogRecord::Bot { txn });
            let pin = match self.cfg.eot {
                EotPolicy::Force => bot,
                EotPolicy::NoForce => bot.min(self.redo_start),
            };
            let st = self.txn_state(txn)?;
            st.bot_lsn = Some(bot);
            st.log_pin = Some(pin);
        }
        Ok(())
    }

    /// Append the UNDO information for `page` that is not yet in the log:
    /// the first-touch before-image (page logging) or the unlogged
    /// before-diffs (record logging). Does not force.
    fn log_undo_for(&mut self, txn: TxnId, page: DataPageId) -> Result<()> {
        self.ensure_bot(txn)?;
        match self.cfg.granularity {
            LogGranularity::Page => {
                let st = self.txn_state(txn)?;
                if st.stolen_logged.contains(&page) {
                    return Ok(()); // before-image already durable
                }
                let image = st
                    .before
                    .get(&page)
                    .expect("page written by txn has a before-image")
                    .as_ref()
                    .to_vec();
                self.log.append(LogRecord::BeforeImage { txn, page, image });
            }
            LogGranularity::Record => {
                let st = self.txn_state(txn)?;
                let ops = st.rec_ops.get(&page).cloned().unwrap_or_default();
                let from = *st.undo_logged_upto.get(&page).unwrap_or(&0);
                st.undo_logged_upto.insert(page, ops.len());
                for op in &ops[from..] {
                    self.log.append(LogRecord::RecordUpdate {
                        txn,
                        page,
                        offset: op.offset,
                        before: op.before.clone(),
                        after: op.after.clone(),
                    });
                }
            }
        }
        Ok(())
    }

    // ---- the steal path ---------------------------------------------------

    /// Write back a page carrying uncommitted updates (buffer eviction,
    /// FORCE flush, or checkpoint). Implements Figure 3.
    pub(crate) fn steal_uncommitted(
        &mut self,
        page: DataPageId,
        data: &mut Page,
        modifiers: &BTreeSet<TxnId>,
    ) -> Result<()> {
        debug_assert!(!modifiers.is_empty());
        let g = self.dur.array.geometry().group_of(page);

        let single = if modifiers.len() == 1 {
            Some(*modifiers.iter().next().expect("len 1"))
        } else {
            None
        };

        // The WAL baseline, and any page shared by multiple in-flight
        // writers (possible under record locking), always log UNDO.
        let ridden = match single {
            Some(txn) if self.is_rda() => self.steal_single(page, data, g, txn)?,
            _ => None,
        };
        let steal_kind = match ridden {
            Some(kind) => kind,
            None => {
                for txn in modifiers {
                    self.log_undo_for(*txn, page)?;
                }
                self.log.force();
                let old = self.old_disk_image(page, single)?;
                let slots = self.write_slots(g);
                self.write_with_parity(page, data, &old, &slots)?;
                for txn in modifiers {
                    if let Some(st) = self.active.get_mut(txn) {
                        st.stolen_logged.insert(page);
                        st.note_stolen(page, data);
                    }
                }
                StealKind::Logged
            }
        };
        match steal_kind {
            StealKind::Logged | StealKind::Relogged => self.metrics.steals_logged.inc(),
            StealKind::DirtiesGroup | StealKind::RidesExisting => self.metrics.steals_parity.inc(),
        }
        // txn 0 is the "several modifiers" sentinel (real ids start at 1).
        let txn_id = single.map_or(0, |t| t.0);
        self.obs.tracer.emit(|| EventKind::Steal {
            group: g.0,
            page: page.0,
            txn: txn_id,
            kind: steal_kind,
        });
        self.paranoid_audit("steal_uncommitted");
        Ok(())
    }

    /// The single-modifier RDA arm of [`Engine::steal_uncommitted`]:
    /// classify the steal per Figure 3 and execute a parity ride,
    /// returning which arm applied — or `None` when the steal must log.
    fn steal_single(
        &mut self,
        page: DataPageId,
        data: &mut Page,
        g: GroupId,
        txn: TxnId,
    ) -> Result<Option<StealKind>> {
        let rider = self.rider_index(g, page).ok_or(DbError::BadPage(page))?;
        let mut class = self.twins.meta(g).classify(txn.0, rider);

        // Record locking: a page may only ride the parity if this
        // transaction can escalate to an exclusive page lock, because
        // parity undo restores the *whole* page.
        if class == StealClass::DirtiesGroup
            && self.cfg.granularity == LogGranularity::Record
            && self.locks.lock_page(page, txn).is_err()
        {
            class = StealClass::NeedsLogging;
        }

        // Degraded mode: riding the parity needs the *whole group* alive —
        // both twins (the committed one keeps the before-image, the
        // working one takes the update) and every data member: parity undo
        // derives the old image from the group equation, and a dead member
        // makes that equation circular with the member's own rebuild (one
        // XOR identity, two unknowns — the before-image simply is no
        // longer in the array). Fall back to before-image logging for any
        // steal into a degraded group, including a re-steal that would
        // otherwise ride its existing parity entry.
        if class != StealClass::NeedsLogging && self.is_rda() && !self.group_fully_alive(g) {
            class = StealClass::NeedsLogging;
        }

        match class {
            StealClass::DirtiesGroup => {
                // The BOT record must be durable before any page of the
                // transaction reaches the database (§4.3); the steal
                // itself is recorded in the working twin's header — no
                // log I/O.
                self.ensure_bot(txn)?;
                self.log.force();

                let committed = self.committed_slot(g);
                let work = committed.other();

                // P_work := P_committed ⊕ old ⊕ new; one parity read, one
                // parity write, one data write (a = 3 with old in hand).
                // A cached old image is XORed where it lies; an uncached
                // one is read first, before the parity.
                let mut parity = std::mem::replace(&mut self.parity_scratch, Page::zeroed(0));
                let read;
                let old = match self.cached_disk_image(page, txn) {
                    Some(img) => img,
                    None => {
                        read = self.read_disk(page)?;
                        &read
                    }
                };
                self.dur.array.read_parity_into(g, committed, &mut parity)?;
                parity.xor_many_in_place(&[old, data]);
                // The working twin's header is the claim: ts, Working, the
                // transaction and the page's member index. Written into
                // the directory, it is the group's Dirty_Set entry.
                let now = self.tick();
                let claimed = self.twins.begin_working(g, now, txn.0, rider);
                debug_assert_eq!(claimed, work);
                parity.set_header(self.twins.header(g, work));
                if let Err(e) = self.ride(page, data, g, work, &parity) {
                    // The steal did not happen: the claim ends in memory,
                    // and a live engine takes it back on the platter too
                    // (a crash leaves it there for restart to undo).
                    self.twins.invalidate(g, work);
                    if e != rda_array::ArrayError::Crashed {
                        self.take_claim_back(g, work, &mut parity);
                    }
                    return Err(e.into());
                }
                self.refresh_stolen_cache(page, data);
                self.parity_scratch = parity;

                let st = self.txn_state(txn)?;
                st.stolen_parity.insert(page);
                st.note_stolen(page, data);
                Ok(Some(StealKind::DirtiesGroup))
            }
            StealClass::RidesExisting => {
                let work = self.working_twin(g).expect("a ridden group has a claim");
                let old = self.old_disk_image(page, Some(txn))?;
                self.write_with_parity(page, data, &old, &[work])?;
                let st = self.txn_state(txn)?;
                st.note_stolen(page, data);
                Ok(Some(StealKind::RidesExisting))
            }
            StealClass::NeedsLogging => Ok(None),
        }
    }

    /// The platter half of a group-dirtying steal: the working twin with
    /// its claim first, a barrier on that twin's disk, then the data page,
    /// which carries a copy of the claim in its own header (restart reads
    /// it only when it cannot read the twin). A restart that finds any of
    /// the new page finds the claim and restores the page through the
    /// committed twin — a no-op if the data write never landed.
    fn ride(
        &mut self,
        page: DataPageId,
        data: &mut Page,
        g: GroupId,
        work: ParitySlot,
        parity: &Page,
    ) -> rda_array::Result<()> {
        let array = self.unstaged()?;
        array.write_parity(g, work, parity)?;
        array.barrier_parity(g, work)?;
        data.set_header(parity.header());
        let written = array.write_data_unprotected(page, data);
        data.set_header(Header::default());
        match written {
            // A dead data disk is fine: the working twin encodes the page.
            Err(rda_array::ArrayError::DiskFailed(_)) => Ok(()),
            written => written,
        }
    }

    /// A steal failed after its claim may have reached the platter: write
    /// the working twin back with its (invalidated) directory header, or
    /// the claim could be read as current parity over a page it does not
    /// cover once its transaction ends. A dead twin disk holds no header
    /// anyone reads, and a crash is restart's to resolve; any other
    /// failure leaves platter and memory at odds, so the engine drops its
    /// volatile state as a crash does and waits for restart.
    fn take_claim_back(&mut self, g: GroupId, work: ParitySlot, parity: &mut Page) {
        let rewritten = self.unstaged().map(drop).and_then(|()| {
            self.write_twin(g, work, parity)?;
            self.dur.array.barrier_parity(g, work)
        });
        if let Err(e) = rewritten {
            if !matches!(
                e,
                rda_array::ArrayError::DiskFailed(_) | rda_array::ArrayError::Crashed
            ) {
                self.crash();
            }
        }
    }

    /// Member index of `page` within its group `g`: the rider a working
    /// twin's header names. `None` if `page` is not a member of `g`.
    pub(crate) fn rider_index(&self, g: GroupId, page: DataPageId) -> Option<u16> {
        let mut members = self.dur.array.geometry().member_pages(g);
        // A group has fewer members than the array has disks (a u16).
        members.position(|p| p == page).map(|i| i as u16)
    }

    /// End of an engine operation: if a disk died since the last look
    /// (by hand, or by a planted fault inside the operation just run),
    /// every parity ride that lost a twin to it becomes a logged steal
    /// before the caller sees the outcome. A ride's undo lives in its two
    /// twins (the before-image in one, the claim in the other); the
    /// rider's before-image is still in memory, so it is logged and
    /// forced, as the paper does for a second steal in one group. A ride
    /// that fails to settle keeps its claim, and the deaths stay unseen so
    /// that the next operation tries again.
    pub(crate) fn settle_disk_deaths(&mut self) {
        let deaths = self.dur.array.deaths();
        if deaths == self.deaths_seen {
            return;
        }
        let mut settled = true;
        if !self.needs_recovery && self.is_rda() {
            for g in (0..self.dur.array.groups()).map(GroupId) {
                if let Some(claim) = self.claim(g) {
                    if ParitySlot::BOTH.iter().any(|s| self.twin_dead(g, *s)) {
                        settled &= self.log_the_ride(g, claim).is_ok();
                    }
                }
            }
        }
        if settled {
            self.deaths_seen = deaths;
        }
    }

    /// [`Engine::settle_disk_deaths`] for one dirty group: log and force
    /// the rider's undo, then write the surviving twin as committed (the
    /// working twin as it stands, or the committed one recomputed from the
    /// members), which ends the claim.
    fn log_the_ride(&mut self, g: GroupId, claim: Claim) -> Result<()> {
        self.log_undo_for(claim.txn, claim.page)?;
        self.log.force();
        let work = claim.working;
        let survivor = if !self.twin_dead(g, work) {
            Some((work, self.dur.array.read_parity(g, work)?))
        } else if !self.twin_dead(g, work.other()) {
            Some((work.other(), self.dur.array.compute_group_parity(g)?))
        } else {
            None
        };
        if let Some((slot, mut parity)) = survivor {
            let before = self.twins.meta(g);
            let now = self.tick();
            self.twins.set_committed(g, slot, now);
            let written = self.unstaged().map(drop);
            if let Err(e) = written.and_then(|()| self.write_twin(g, slot, &mut parity)) {
                self.twins.install(g, before);
                return Err(e.into());
            }
        } else {
            // No twin survives to write: the claim ends in memory, and the
            // rebuilds recompute the parity.
            self.twins.commit_working_all(&[(g, work)]);
        }
        self.obs.tracer.emit(|| EventKind::Steal {
            group: g.0,
            page: claim.page.0,
            txn: claim.txn.0,
            kind: StealKind::Relogged,
        });
        let st = self.txn_state(claim.txn)?;
        st.stolen_parity.remove(&claim.page);
        st.stolen_logged.insert(claim.page);
        Ok(())
    }

    /// Write back a page whose updates are all committed.
    pub(crate) fn write_back_committed(&mut self, page: DataPageId, data: &Page) -> Result<()> {
        let g = self.dur.array.geometry().group_of(page);
        let old = self.read_disk(page)?;
        let slots = self.write_slots(g);
        self.write_with_parity(page, data, &old, &slots)
    }

    /// Write out a dirty frame's `data`: a committed write-back, or a
    /// steal when it carries the uncommitted updates of `modifiers`.
    fn write_out(
        &mut self,
        page: DataPageId,
        data: &mut Page,
        modifiers: &BTreeSet<u64>,
    ) -> Result<()> {
        if modifiers.is_empty() {
            return self.write_back_committed(page, data);
        }
        let modifiers = modifiers.iter().map(|&t| TxnId(t)).collect();
        self.steal_uncommitted(page, data, &modifiers)
    }

    /// Write a resident dirty page back and mark it clean (FORCE flush,
    /// checkpoint, archive dump, media recovery). The write uses the
    /// frame's own buffer, lent out of the pool and back whatever the
    /// outcome.
    pub(crate) fn flush_frame(&mut self, page: DataPageId) -> Result<()> {
        // The frame may carry other transactions' uncommitted byte ranges
        // (record locking), or — if this page was stolen earlier and
        // re-dirtied by someone else — none of the committer's at all;
        // UNDO protection must follow the frame's *current* modifiers.
        let mods = self.buffer.modifiers_of(page);
        let mut data = Page::zeroed(0);
        self.buffer.swap_data(page, &mut data);
        let flushed = self.write_out(page, &mut data, &mods);
        self.buffer.swap_data(page, &mut data);
        flushed?;
        self.buffer.mark_clean(page);
        Ok(())
    }

    /// Make room in the buffer pool, performing at most one eviction.
    /// Returns the victim's page buffer, once the victim is written back
    /// or dropped, for the missing page to be read into; `None` when a
    /// frame was free.
    fn ensure_room(&mut self) -> Result<Option<Page>> {
        if self.buffer.has_room() {
            return Ok(None);
        }
        let mut ev = self.buffer.pop_victim().ok_or(DbError::BufferWedged)?;
        if ev.dirty {
            if let Err(e) = self.write_out(ev.page, &mut ev.data, &ev.modifiers) {
                if !self.needs_recovery {
                    // The frame holds the only copy of its updates: commit
                    // needs it for REDO, abort for the in-buffer rollback.
                    self.buffer.restore(ev);
                }
                return Err(e);
            }
        }
        Ok(Some(ev.data))
    }

    /// Make a page resident and hand its frame to `take`. A hit costs no
    /// copy; a miss reads the page into the victim's buffer (or a fresh
    /// one while frames are free).
    fn make_resident<T>(&mut self, page: DataPageId, take: impl FnOnce(&Page) -> T) -> Result<T> {
        if let Some(frame) = self.buffer.touch(page) {
            return Ok(take(frame));
        }
        let spare = self.ensure_room()?;
        let mut frame = spare.unwrap_or_else(|| self.dur.array.blank_page());
        self.read_disk_into(page, &mut frame)?;
        Ok(take(self.buffer.insert(page, frame)))
    }

    // ---- transaction operations -------------------------------------------

    /// Start the engine transaction of global transaction `gid`. The BOT
    /// record is written lazily — only when the transaction first needs
    /// UNDO protection on disk (§4.3).
    pub(crate) fn begin(&mut self, gid: u64) -> Result<TxnId> {
        self.check_ready()?;
        let txn = TxnId(self.next_txn);
        self.next_txn += 1;
        self.active.insert(
            txn,
            TxnState {
                gid,
                begin_nanos: monotonic_nanos(),
                ..TxnState::default()
            },
        );
        self.obs
            .tracer
            .emit_span(|| EventKind::TxnBegin { txn: txn.0 });
        Ok(txn)
    }

    /// Transactional page read. Under `strict_read_locks` the read takes a
    /// page-level shared lock held to EOT (strict 2PL).
    pub(crate) fn txn_read(&mut self, txn: TxnId, page: DataPageId) -> Result<Vec<u8>> {
        self.check_ready()?;
        self.check_page(page)?;
        self.txn_state(txn)?;
        if self.cfg.strict_read_locks {
            if let Err(e) = self.locks.lock_shared(page, txn) {
                return Err(self.lock_conflict(page, txn, e));
            }
            self.note_lock_acquired(page, txn);
        }
        self.make_resident(page, |frame| frame.as_ref().to_vec())
    }

    /// Transactional whole-page write (page-logging granularity).
    pub(crate) fn txn_write(&mut self, txn: TxnId, page: DataPageId, bytes: &[u8]) -> Result<()> {
        self.check_ready()?;
        self.check_page(page)?;
        if self.cfg.granularity != LogGranularity::Page {
            return Err(DbError::WrongGranularity(
                "whole-page write requires page logging; use update()",
            ));
        }
        let page_size = self.cfg.array.page_size;
        if bytes.len() > page_size {
            return Err(DbError::PageOverflow {
                offset: 0,
                len: bytes.len(),
                page_size,
            });
        }
        self.txn_state(txn)?;
        if let Err(e) = self.locks.lock_page(page, txn) {
            return Err(self.lock_conflict(page, txn, e));
        }
        self.note_lock_acquired(page, txn);
        // An update access reads the page first (the paper's model: every
        // access is a page request; updates modify the fetched page). The
        // before-image is copied on first touch only.
        let first_touch = !self.txn_state(txn)?.before.contains_key(&page);
        let before = self.make_resident(page, |frame| first_touch.then(|| frame.clone()))?;
        let st = self.txn_state(txn)?;
        if let Some(before) = before {
            st.before.insert(page, before);
        }
        st.written.insert(page);
        let frame = self.buffer.update_resident(page, txn.0);
        debug_assert!(frame.is_some(), "page just made resident");
        if let Some(frame) = frame {
            let (head, tail) = frame.as_mut().split_at_mut(bytes.len());
            head.copy_from_slice(bytes);
            tail.fill(0);
            frame.set_header(Header::default());
        }
        self.after_op()
    }

    /// Transactional byte-range update (record-logging granularity).
    pub(crate) fn txn_update(
        &mut self,
        txn: TxnId,
        page: DataPageId,
        offset: usize,
        bytes: &[u8],
    ) -> Result<()> {
        self.check_ready()?;
        self.check_page(page)?;
        if self.cfg.granularity != LogGranularity::Record {
            return Err(DbError::WrongGranularity(
                "byte-range update requires record logging; use write()",
            ));
        }
        let page_size = self.cfg.array.page_size;
        if offset + bytes.len() > page_size {
            return Err(DbError::PageOverflow {
                offset,
                len: bytes.len(),
                page_size,
            });
        }
        self.txn_state(txn)?;
        if let Err(e) = self
            .locks
            .lock_range(page, offset as u32, bytes.len() as u32, txn)
        {
            return Err(self.lock_conflict(page, txn, e));
        }
        self.note_lock_acquired(page, txn);
        let range = offset..offset + bytes.len();
        let first_touch = !self.txn_state(txn)?.before.contains_key(&page);
        let (before, op) = self.make_resident(page, |frame| {
            let op = RecOp {
                offset: offset as u32,
                before: frame.as_ref()[range.clone()].to_vec(),
                after: bytes.to_vec(),
            };
            (first_touch.then(|| frame.clone()), op)
        })?;
        let st = self.txn_state(txn)?;
        if let Some(before) = before {
            st.before.insert(page, before);
        }
        st.written.insert(page);
        st.rec_ops.entry(page).or_default().push(op);
        let frame = self.buffer.update_resident(page, txn.0);
        debug_assert!(frame.is_some(), "page just made resident");
        if let Some(frame) = frame {
            frame.as_mut()[range].copy_from_slice(bytes);
        }
        self.after_op()
    }

    fn after_op(&mut self) -> Result<()> {
        self.ops_since_ckpt += 1;
        if let CheckpointPolicy::AccEvery { ops } = self.cfg.checkpoint {
            if self.ops_since_ckpt >= ops {
                self.checkpoint()?;
            }
        }
        Ok(())
    }

    /// Commit a transaction (§4: FORCE flush if configured, REDO logging,
    /// durable EOT, then the free twin flip — `commit_working_all` touches no
    /// parity page: each flipped header reaches the platter with the next
    /// write of its twin, and until then restart reads the claim of a
    /// committed transaction as committed parity).
    ///
    /// This is [`Engine::commit_batch`] for a batch of one:
    /// `prepare → barrier → finalize`.
    pub(crate) fn txn_commit(&mut self, txn: TxnId) -> Result<()> {
        let written = self.txn_commit_prepare(txn)?;
        self.commit_force_barrier(&[txn])?;
        self.txn_commit_finalize(txn, &written)
    }

    /// Commit a group-commit batch under one engine lock acquisition:
    /// prepare every member in order, one barrier + log force over those
    /// that prepared, then finalize each. Each member's outcome is pushed
    /// onto `out`, in `txns` order, as soon as it is decided, so a caller
    /// that unwinds mid-batch still holds the outcomes of the members
    /// that finished.
    ///
    /// A failed prepare fails only its own member (prepare has already
    /// aborted it, or a crash left it to restart). A failed barrier
    /// (crash, dead disk) fails every prepared member: none was
    /// acknowledged, all stay unforced losers for recovery.
    pub(crate) fn commit_batch(&mut self, txns: &[TxnId], out: &mut Vec<Result<()>>) {
        let prepared: Vec<Result<Vec<DataPageId>>> = txns
            .iter()
            .map(|&txn| self.txn_commit_prepare(txn))
            .collect();
        let ids: Vec<TxnId> = (txns.iter().zip(&prepared))
            .filter_map(|(&txn, p)| p.is_ok().then_some(txn))
            .collect();
        let forced = if ids.is_empty() {
            Ok(())
        } else {
            self.commit_force_barrier(&ids)
        };
        for (&txn, p) in txns.iter().zip(prepared) {
            out.push(match (p, &forced) {
                (Ok(written), Ok(())) => self.txn_commit_finalize(txn, &written),
                (Ok(_), Err(e)) => Err(e.clone()),
                (Err(e), _) => Err(e),
            });
        }
    }

    /// Commit phase 1: FORCE write-backs, REDO log records, and the
    /// commit record itself (plus the TOC checkpoint record under FORCE).
    /// On return the commit record is *appended but not forced*, all locks
    /// are still held, and no twin has flipped — the transaction is
    /// durable iff a later log force reaches stable storage, which is
    /// exactly the state a group-commit batch accumulates.
    ///
    /// A prepare that fails is aborted here, before its commit record
    /// exists: nothing was decided, and the transaction must not keep its
    /// locks. A crash is the exception — the machine is gone, and restart
    /// recovery rolls the transaction back as a loser.
    fn txn_commit_prepare(&mut self, txn: TxnId) -> Result<Vec<DataPageId>> {
        self.check_ready()?;
        if !self.active.contains_key(&txn) {
            return Err(DbError::UnknownTxn(txn));
        }
        let prepared = self.prepare_writes(txn);
        if let Err(e) = &prepared {
            if !matches!(e, DbError::Array(rda_array::ArrayError::Crashed)) {
                let _ = self.txn_abort(txn);
            }
        }
        self.settle_disk_deaths();
        prepared
    }

    /// The body of [`Engine::txn_commit_prepare`].
    fn prepare_writes(&mut self, txn: TxnId) -> Result<Vec<DataPageId>> {
        let written: Vec<DataPageId> = self.txn_state(txn)?.written.iter().copied().collect();

        if self.cfg.eot == EotPolicy::Force {
            for page in &written {
                if self.buffer.is_dirty(*page) {
                    self.flush_frame(*page)?;
                }
            }
        }

        // REDO information (media recovery for the FORCE case, crash redo
        // for ¬FORCE).
        match self.cfg.granularity {
            LogGranularity::Page => {
                for page in &written {
                    let image = match self.buffer.peek(*page) {
                        Some(p) => p.as_ref().to_vec(),
                        None => self
                            .active
                            .get(&txn)
                            .and_then(|st| st.last_stolen.get(page))
                            .expect("evicted page was stolen")
                            .as_ref()
                            .to_vec(),
                    };
                    self.log.append(LogRecord::AfterImage {
                        txn,
                        page: *page,
                        image,
                    });
                }
            }
            LogGranularity::Record => {
                let ops: Vec<(DataPageId, RecOp)> = {
                    let st = self.active.get(&txn).expect("active checked");
                    let mut v = Vec::new();
                    for (page, ops) in st.rec_ops.iter().collect::<BTreeMap<_, _>>() {
                        for op in ops {
                            v.push((*page, op.clone()));
                        }
                    }
                    v
                };
                for (page, op) in ops {
                    self.log.append(LogRecord::RecordRedo {
                        txn,
                        page,
                        offset: op.offset,
                        after: op.after,
                    });
                }
            }
        }

        self.log.append(LogRecord::Commit { txn });
        if self.cfg.eot == EotPolicy::Force {
            self.log.append(LogRecord::Checkpoint {
                kind: CheckpointKind::Toc,
                active: vec![],
            });
        }
        Ok(written)
    }

    /// Commit phase 2: the durability point shared by every transaction in
    /// `txns`. One barrier + one log force acks the whole batch — the
    /// group-commit amortization: every platter write the batch depends on
    /// (FORCE write-backs, earlier steals) must be on stable storage
    /// before the commit records are. A no-op barrier on the simulated
    /// array; on a real backend it fsyncs every disk.
    fn commit_force_barrier(&mut self, txns: &[TxnId]) -> Result<()> {
        self.check_ready()?;
        for txn in txns {
            self.obs
                .tracer
                .emit_span(|| EventKind::CommitBarrier { txn: txn.0 });
        }
        let barrier_start = monotonic_nanos();
        self.dur.array.write_barrier()?;
        let force_start = monotonic_nanos();
        self.metrics
            .barrier_nanos
            .observe(force_start - barrier_start);
        for txn in txns {
            self.obs
                .tracer
                .emit_span(|| EventKind::LogForce { txn: txn.0 });
        }
        self.log.force();
        self.metrics
            .log_force_nanos
            .observe(monotonic_nanos() - force_start);
        // The batch's durability point: let the black box flush its
        // snapshot while the disks are known-synced.
        if let Some(hook) = &self.barrier_hook {
            hook();
        }
        Ok(())
    }

    /// Commit phase 3: the post-durability bookkeeping for one member of a
    /// forced batch — twin flips, lock/buffer release, metrics, ack.
    fn txn_commit_finalize(&mut self, txn: TxnId, written: &[DataPageId]) -> Result<()> {
        self.check_ready()?;
        // The twin flip: the working parity of every group this
        // transaction dirtied becomes the committed parity, all of them in
        // one step, in group order. Zero array I/O: the platter keeps the
        // claims, which name a transaction whose commit record is now
        // durable.
        let geo = self.dur.array.geometry();
        let dirtied: BTreeSet<GroupId> = self.active.get(&txn).map_or_else(BTreeSet::new, |st| {
            st.stolen_parity.iter().map(|p| geo.group_of(*p)).collect()
        });
        let mut flips: Vec<(GroupId, ParitySlot)> = dirtied
            .into_iter()
            .filter_map(|g| Some((g, self.working_twin(g)?)))
            .collect();
        if self.cfg.mutations.skip_commit_twin_flip {
            // Mutation-sensitivity knob: leave the committed twin
            // pointing at the pre-transaction parity. rda-check must
            // observe the resulting durability violation.
            flips.clear();
        }
        self.twins.commit_working_all(&flips);
        for (g, _) in flips {
            self.obs.tracer.emit(|| EventKind::CommitTwinFlip {
                group: g.0,
                txn: txn.0,
            });
        }

        self.locks.release_txn(txn);
        let begin_nanos = match self.active.remove(&txn) {
            Some(st) => {
                self.buffer.release_txn(txn.0, st.written);
                st.begin_nanos
            }
            None => 0,
        };
        // Under FORCE every commit is a TOC checkpoint, and this one's twin
        // flips are durable: nothing a restart needs lies below the pins.
        if self.cfg.eot == EotPolicy::Force {
            self.advance_low_water();
        }
        self.obs.locks.forget_txn(txn.0);
        self.metrics.commits.inc();
        self.metrics.pages_per_commit.observe(written.len() as u64);
        self.metrics
            .commit_nanos
            .observe(monotonic_nanos().saturating_sub(begin_nanos));
        self.obs.tracer.emit_span(|| EventKind::CommitAck {
            txn: txn.0,
            pages: written.len() as u32,
        });
        self.paranoid_audit("txn_commit");
        Ok(())
    }

    /// Abort a transaction, rolling back in-buffer changes for free and
    /// undoing propagated pages via parity (`D_old = (P ⊕ P′) ⊕ D_new`) or
    /// via the log.
    pub(crate) fn txn_abort(&mut self, txn: TxnId) -> Result<()> {
        let aborted = self.roll_back(txn);
        self.settle_disk_deaths();
        aborted
    }

    /// The body of [`Engine::txn_abort`].
    fn roll_back(&mut self, txn: TxnId) -> Result<()> {
        self.check_ready()?;
        let Some(_) = self.active.get(&txn) else {
            return Err(DbError::UnknownTxn(txn));
        };

        let (parity_pages, logged_pages, written): (
            Vec<DataPageId>,
            Vec<DataPageId>,
            Vec<DataPageId>,
        ) = {
            let st = self.active.get(&txn).expect("checked");
            (
                st.stolen_parity.iter().copied().collect(),
                st.stolen_logged.iter().copied().collect(),
                st.written.iter().copied().collect(),
            )
        };

        // Undo pages riding the parity.
        for page in &parity_pages {
            self.undo_via_parity(txn, *page)?;
        }

        // Undo logged pages from the log, read back as restart reads it:
        // one billed scan from the BOT (the paper's c_b includes reading
        // the log up to BOT) notes where the UNDO records are, and each
        // page is installed by LSN. A logged steal appended the BOT
        // first, so every record read back lies behind it.
        if !logged_pages.is_empty() {
            self.log.force();
            let store = Arc::clone(&self.dur.log_store);
            let from = self.active[&txn].bot_lsn.unwrap_or(Lsn(store.base()));
            let mut analysis = Analysis::run(&store, from, Lsn(store.len()));
            let undo = analysis.logged_undo.remove(&txn).unwrap_or_default();
            for page in &logged_pages {
                let missing = DbError::UndoRecordMissing { txn, page: *page };
                self.undo_via_log(txn, *page, undo.get(page).ok_or(missing)?)?;
            }
        }

        // Roll back purely in-buffer changes.
        for page in &written {
            if parity_pages.contains(page) || logged_pages.contains(page) {
                continue;
            }
            self.rollback_buffer(txn, *page, None);
        }

        if self.active.get(&txn).expect("checked").bot_lsn.is_some() {
            if !parity_pages.is_empty() {
                // The undo's twin rewrites took the claims back; they are
                // stable before the record that ends the transaction, or
                // a restart could read a claim of an ended transaction as
                // committed parity.
                self.dur.array.write_barrier()?;
            }
            self.log.append(LogRecord::Abort { txn });
            self.log.force();
        }

        self.locks.release_txn(txn);
        self.buffer.release_txn(txn.0, written);
        self.active.remove(&txn);
        self.obs.locks.forget_txn(txn.0);
        self.metrics.aborts.inc();
        self.paranoid_audit("txn_abort");
        Ok(())
    }

    /// Undo one parity-riding page during a normal abort.
    fn undo_via_parity(&mut self, txn: TxnId, page: DataPageId) -> Result<()> {
        let g = self.dur.array.geometry().group_of(page);
        let claim = self.claim(g).expect("a parity-stolen page has its claim");
        debug_assert_eq!((claim.page, claim.txn), (page, txn));
        let work = claim.working;
        let committed = work.other();

        let p_work_res = self.dur.array.read_parity(g, work);
        let p_comm_res = self.dur.array.read_parity(g, committed);
        // Borrow the cached last-stolen image when present; the owned
        // fallback only exists when the disk had to be read.
        let d_new_read;
        let st = &self.active[&txn];
        let d_new: &Page = match st.last_stolen.get(&page) {
            Some(p) => p,
            None => {
                d_new_read = self.read_disk(page)?;
                &d_new_read
            }
        };
        // A live engine knows D_new, the image it stole, so the parity
        // identity D_old = P_work ⊕ P_committed ⊕ D_new yields the
        // pre-steal *disk* version from the two twins. (Restart cannot
        // trust a riding page a crash may have torn and takes
        // P_committed ⊕ siblings instead.) In degraded mode there are
        // fallbacks: with the working twin dead, the committed twin plus
        // the sibling pages reconstruct D_old directly; with the committed
        // twin dead, D_old is unobtainable from the array, but an abort
        // still holds the first-touch image in memory (a crash in that
        // exact window is the scheme's documented blind spot — the
        // committed twin is the only durable copy of the before-image).
        let (p_comm, d_old): (Option<Page>, Option<Page>) = match (p_work_res, p_comm_res) {
            (Ok(p_work), Ok(p_comm)) => {
                // Reuse the working-twin page as the accumulator:
                // D_old = P_work ⊕ P_committed ⊕ D_new, no fresh pages.
                let mut d_old = p_work;
                d_old.xor_many_in_place(&[&p_comm, d_new]);
                (Some(p_comm), Some(d_old))
            }
            (Err(rda_array::ArrayError::DiskFailed(_)), Ok(p_comm)) => {
                let d_old = self.dur.array.reconstruct_data(page, committed)?;
                (Some(p_comm), Some(d_old))
            }
            (Ok(_), Err(rda_array::ArrayError::DiskFailed(_))) => (None, None),
            (Err(e), _) | (_, Err(e)) => return Err(e.into()),
        };
        // … but the page goes back to the transaction's rollback image,
        // not to D_old: under ¬FORCE the committed-visible state may be
        // newer than D_old (a committed predecessor whose page never left
        // the buffer), and under record logging the first-touch image may
        // embed another (since-ended) transaction's byte ranges. Both
        // reduce to D_old under FORCE with exclusive access.
        let restore = match st.rollback_image(page, self.cfg.granularity, d_new) {
            Some(img) => img,
            None => d_old
                .clone()
                .ok_or(DbError::Array(rda_array::ArrayError::Unrecoverable(g)))?,
        };
        match self.put_back(txn, page, &restore) {
            Ok(()) | Err(rda_array::ArrayError::DiskFailed(_)) => {}
            Err(e) => return Err(e.into()),
        }

        // Committed parity covering the restored group state: derived from
        // the delta when the committed twin was readable, recomputed from
        // the members otherwise (the data page was just rewritten).
        let mut parity_new = match (&p_comm, &d_old) {
            (Some(p_comm), Some(d_old)) => {
                let mut parity_new = p_comm.clone();
                parity_new.xor_many_in_place(&[d_old, &restore]);
                parity_new
            }
            _ => self.dur.array.compute_group_parity(g)?,
        };
        // The working twin takes the restored parity back, and the
        // committed twin is refreshed when the restore target differed
        // from the pre-steal disk version. With the committed twin's disk
        // dead, the working twin is promoted to committed instead, by the
        // same write.
        let lost = p_comm.is_none();
        let claimed = self.twins.meta(g);
        let reset = self.reset_working_twin(g, work, &mut parity_new, lost);
        let undone = match (reset, lost) {
            // A dead working twin takes its claim with it.
            (Ok(()) | Err(rda_array::ArrayError::DiskFailed(_)), false) | (Ok(()), true) => Ok(()),
            (Err(rda_array::ArrayError::DiskFailed(_)), true) => {
                Err(rda_array::ArrayError::Unrecoverable(g))
            }
            (Err(e), _) => Err(e),
        };
        let undone = undone.and_then(|()| match p_comm {
            Some(p_comm) if parity_new != p_comm => {
                match self.write_twin(g, committed, &mut parity_new) {
                    Err(rda_array::ArrayError::DiskFailed(_)) => Ok(()),
                    written => written,
                }
            }
            _ => Ok(()),
        });
        if let Err(e) = undone {
            // An unfinished undo keeps its claim, for the abort to retry.
            self.twins.install(g, claimed);
            return Err(e.into());
        }

        self.rollback_buffer(txn, page, Some(&restore));
        self.end_parity_undo(txn, page);
        Ok(())
    }

    /// Undo one logged page during a normal abort; `undo_at` are the LSNs
    /// of its UNDO records in log order.
    fn undo_via_log(&mut self, txn: TxnId, page: DataPageId, undo_at: &[Lsn]) -> Result<()> {
        let restored = self.logged_undo_image(page, undo_at)?;
        let old = self.old_disk_image(page, Some(txn))?;
        let slots = self.write_slots(self.dur.array.geometry().group_of(page));
        self.undo_logged(txn, page, &restored, &old, &slots)?;
        self.rollback_buffer(txn, page, Some(&restored));
        Ok(())
    }

    /// Roll back the *buffer* copy of a page for an aborting transaction
    /// to its [`TxnState::rollback_image`]. The frame stays dirty unless
    /// the result provably equals the on-disk version (`disk_now`).
    fn rollback_buffer(&mut self, txn: TxnId, page: DataPageId, disk_now: Option<&Page>) {
        let (Some(current), Some(st)) = (self.buffer.peek(page), self.active.get(&txn)) else {
            return;
        };
        let Some(img) = st.rollback_image(page, self.cfg.granularity, current) else {
            return;
        };
        let dirty = disk_now.is_none_or(|d| img != *d);
        self.buffer.overwrite_resident(page, img, dirty);
    }

    // ---- checkpointing ------------------------------------------------------

    /// Take an action-consistent checkpoint: propagate every dirty buffer
    /// page (steal rules apply to uncommitted ones), then log the ACC
    /// record naming the active transactions (§5.2.2).
    pub(crate) fn checkpoint(&mut self) -> Result<()> {
        self.check_ready()?;
        for (page, _) in self.buffer.dirty_pages() {
            self.flush_frame(page)?;
        }
        let active: Vec<TxnId> = {
            let mut v: Vec<TxnId> = self.active.keys().copied().collect();
            v.sort();
            v
        };
        // Redo after a restart starts at this checkpoint, which asserts
        // that every page propagated above is on disk — make it true on a
        // real backend before the record becomes durable.
        self.dur.array.write_barrier()?;
        self.redo_start = self.log.append(LogRecord::Checkpoint {
            kind: CheckpointKind::Acc,
            active,
        });
        self.log.force();
        self.advance_low_water();
        // A checkpoint is a durability barrier too: give the black box
        // its flush opportunity.
        if let Some(hook) = &self.barrier_hook {
            hook();
        }
        self.ops_since_ckpt = 0;
        Ok(())
    }

    // ---- the log's low-water mark -----------------------------------------

    /// Drop from the log everything no restart can need any more. The
    /// mark moves to the lowest of
    ///
    /// * the last checkpoint: the durable end under FORCE (every commit is
    ///   a TOC checkpoint), the last ACC record under ¬FORCE (redo starts
    ///   there);
    /// * the pin of every transaction still in `active` (undo reads back
    ///   to its BOT — a gate-batch member that is forced but not yet
    ///   finalized is still there);
    /// * the position of the last archive dump (restore replays from it).
    ///
    /// The engine calls this at its own checkpoints — the end of
    /// [`Engine::txn_commit_finalize`] under FORCE, the end of
    /// [`Engine::checkpoint`] — and [`Engine::truncate_log`] is the same
    /// cut on demand. O(active transactions) plus the records dropped;
    /// bills nothing. Returns the number of records dropped.
    pub(crate) fn advance_low_water(&mut self) -> u64 {
        let store = &self.dur.log_store;
        let mut cut = match self.cfg.eot {
            EotPolicy::Force => Lsn(store.len()),
            EotPolicy::NoForce => self.redo_start,
        };
        // Mutation-sensitivity knob: with it set a loser's BOT (and the
        // before-images behind it) can be cut away under it.
        if !self.cfg.mutations.low_water_ignores_active {
            for pin in self.active.values().filter_map(|st| st.log_pin) {
                cut = cut.min(pin);
            }
        }
        if let Some(pin) = self.archive_pin {
            cut = cut.min(pin);
        }
        store.truncate_before(cut)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::DbConfig;
    use rda_array::{FaultHook, FaultKind, IoEvent};
    use std::sync::atomic::{AtomicBool, Ordering};

    /// Fails every read with a transient error while armed.
    #[derive(Default)]
    struct FailReads(AtomicBool);

    impl FaultHook for FailReads {
        fn on_io(&self, ev: &IoEvent) -> Option<FaultKind> {
            // ordering: SeqCst — a test switch flipped on the issuing thread.
            (!ev.is_write && self.0.load(Ordering::SeqCst)).then_some(FaultKind::Transient)
        }
    }

    /// A small RDA engine whose pool holds `DbConfig::small_test`'s 8 frames.
    fn engine() -> Engine {
        Engine::open(DbConfig::small_test(EngineKind::Rda))
    }

    fn frame_ptr(e: &Engine, page: u32) -> *const u8 {
        e.buffer.peek(DataPageId(page)).unwrap().as_ref().as_ptr()
    }

    #[test]
    fn a_miss_on_a_full_pool_reads_into_the_victims_buffer() {
        let mut e = engine();
        let txn = e.begin(1).unwrap();
        for page in 0..8 {
            e.txn_read(txn, DataPageId(page)).unwrap();
        }
        assert!(!e.buffer.has_room());
        // Every reference bit is set, so the clock clears them all and
        // evicts page 0, the first frame filled.
        let victim = frame_ptr(&e, 0);
        e.txn_read(txn, DataPageId(8)).unwrap();
        assert!(e.buffer.peek(DataPageId(0)).is_none());
        assert_eq!(
            frame_ptr(&e, 8),
            victim,
            "the miss reused the victim's buffer"
        );
        // A write lands in the frame it finds.
        let written = frame_ptr(&e, 8);
        e.txn_write(txn, DataPageId(8), b"in place").unwrap();
        assert_eq!(frame_ptr(&e, 8), written);
        assert_eq!(
            &e.buffer.peek(DataPageId(8)).unwrap().as_ref()[..8],
            b"in place"
        );
        e.txn_abort(txn).unwrap();
        assert!(e.buffer.peek(DataPageId(8)).unwrap().is_zeroed());
    }

    #[test]
    fn a_dirty_victim_whose_write_back_fails_is_restored_intact() {
        let mut e = engine();
        let hook = Arc::new(FailReads::default());
        e.dur
            .array
            .install_fault_hook(Arc::clone(&hook) as Arc<dyn FaultHook>);
        let txn = e.begin(1).unwrap();
        for page in 0..8u8 {
            e.txn_write(txn, DataPageId(page.into()), &[page + 1; 5])
                .unwrap();
        }
        let victim = frame_ptr(&e, 0);
        // The steal of page 0 reads its group's committed parity first,
        // and that read fails: nothing reached the platters.
        // ordering: SeqCst — see `FailReads`.
        hook.0.store(true, Ordering::SeqCst);
        let err = e.txn_read(txn, DataPageId(8)).unwrap_err();
        assert!(matches!(
            err,
            DbError::Array(rda_array::ArrayError::Transient { .. })
        ));
        assert!(!e.needs_recovery);
        assert!(e.buffer.peek(DataPageId(8)).is_none());
        assert_eq!(e.buffer.len(), 8);
        assert_eq!(frame_ptr(&e, 0), victim, "the victim's own buffer is back");
        assert_eq!(&e.buffer.peek(DataPageId(0)).unwrap().as_ref()[..5], [1; 5]);
        assert!(e.buffer.is_dirty(DataPageId(0)));
        assert_eq!(
            e.buffer.modifiers_of(DataPageId(0)),
            BTreeSet::from([txn.0])
        );
        // ordering: SeqCst — see `FailReads`.
        hook.0.store(false, Ordering::SeqCst);
        e.txn_commit(txn).unwrap();
        assert!(e.run_audit().is_clean());
        let committed = e.read_disk(DataPageId(0)).unwrap();
        assert_eq!(&committed.as_ref()[..5], [1; 5]);
    }
}
