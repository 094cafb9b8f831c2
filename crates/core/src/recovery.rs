//! Restart (crash) recovery and media recovery (paper §4.3).
//!
//! After a system failure the volatile state — buffer pool, Dirty_Set,
//! lock table, unforced log tail — is gone. Recovery proceeds:
//!
//! 1. **Analysis**: one billed, borrowing scan of the durable log,
//!    classifying transactions into winners (durable Commit),
//!    already-aborted, and losers (BOT without EOT), and noting *where*
//!    (by LSN) the images undo and redo may need live — an image is copied
//!    out of the log only when it is installed. Steal notes tell us which
//!    pages each loser propagated *without* UNDO logging (the paper finds
//!    these via the TWIST-style log chain).
//! 2. **Undo losers** — *before* redo, so the parity difference
//!    `P ⊕ P′` still reflects the on-disk state at crash time:
//!    parity-riding pages are restored via `D_old = (P ⊕ P′) ⊕ D_new`
//!    (pinning a compensation image in the log first, which makes a second
//!    crash during recovery harmless), logged pages via their
//!    before-images. Working twins of loser groups are invalidated.
//! 3. **Redo winners** (¬FORCE only) from the last ACC checkpoint: the
//!    buffer's unforced committed updates are reapplied from after-images
//!    (page logging) or after-diffs (record logging). Because undo restored
//!    first-touch before-images — which already contain every *earlier*
//!    committed update — redo-after-undo converges to the committed state.
//! 4. **Current_Parity bitmap reconstruction**: one parity-header read per
//!    group (the paper's `S/N` restart term).

use crate::config::{EotPolicy, LogGranularity};
use crate::engine::Engine;
use crate::error::{DbError, Result};
use rda_array::{BlockDevice, DataPageId, DiskId, GroupId, Page, ParitySlot};
use rda_obs::{EventKind, FlightRecord, RecoveryPhase, Timeline};
use rda_wal::{Analysis, LogRecord, Lsn, TxnId};
use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;
use std::time::Instant;

/// What restart recovery did, for observability and tests.
#[derive(Debug, Clone, Default)]
pub struct RecoveryReport {
    /// Committed transactions seen in the durable log.
    pub winners: Vec<TxnId>,
    /// In-flight transactions rolled back.
    pub losers: Vec<TxnId>,
    /// Pages undone through the parity array.
    pub undone_via_parity: u64,
    /// Pages undone from logged before-images/diffs.
    pub undone_via_log: u64,
    /// Pages rewritten by redo.
    pub redone: u64,
    /// Parity groups whose Current_Parity bit was reconstructed.
    pub bitmap_groups: u64,
    /// Data pages whose Current_Parity coverage was validated by the
    /// bitmap scan — the whole database, since every group is scanned
    /// (equals the array's data-page count on the RDA engine).
    pub pages_scanned: u64,
    /// Staged write intents (controller NVRAM) replayed to finish an
    /// interrupted read-modify-write.
    pub intent_replays: u64,
    /// Parity twins found torn (half-written) and healed by recomputing
    /// the group parity from its members.
    pub torn_twins_healed: u64,
    /// Per-phase breakdown (wall-clock + billed array I/O counts).
    pub timeline: Timeline,
    /// The last pre-crash flight record (black-box snapshot) the backend
    /// recovered from `obs.journal`, when one survived. `None` on the
    /// simulated array and on backends without a flight recorder.
    pub flight: Option<FlightRecord>,
    /// Global ids of the decided cross-shard transactions whose staged
    /// intents the recovery replayed (now visible on every shard).
    pub replayed: Vec<u64>,
}

impl RecoveryReport {
    /// Fold the next shard's report into this one: lists and phases are
    /// appended in shard order, counts summed.
    pub(crate) fn absorb(&mut self, other: RecoveryReport) {
        self.winners.extend(other.winners);
        self.losers.extend(other.losers);
        self.undone_via_parity += other.undone_via_parity;
        self.undone_via_log += other.undone_via_log;
        self.redone += other.redone;
        self.bitmap_groups += other.bitmap_groups;
        self.pages_scanned += other.pages_scanned;
        self.intent_replays += other.intent_replays;
        self.torn_twins_healed += other.torn_twins_healed;
        self.timeline.phases.extend(other.timeline.phases);
        self.flight = self.flight.take().or(other.flight);
        self.replayed.extend(other.replayed);
    }
}

/// Equality deliberately ignores [`RecoveryReport::timeline`] and
/// [`RecoveryReport::flight`]: the timeline's wall-clock durations and
/// the flight record's pre-crash wall state are not deterministic, and
/// report equality is what replay-determinism tests compare.
impl PartialEq for RecoveryReport {
    fn eq(&self, other: &Self) -> bool {
        self.winners == other.winners
            && self.losers == other.losers
            && self.undone_via_parity == other.undone_via_parity
            && self.undone_via_log == other.undone_via_log
            && self.redone == other.redone
            && self.bitmap_groups == other.bitmap_groups
            && self.pages_scanned == other.pages_scanned
            && self.intent_replays == other.intent_replays
            && self.torn_twins_healed == other.torn_twins_healed
            && self.replayed == other.replayed
    }
}

impl Eq for RecoveryReport {}

impl<D: BlockDevice> Engine<D> {
    /// Simulate a system failure: all volatile state is lost. The array,
    /// the durable log, and the twin directory (parity page headers)
    /// survive.
    pub(crate) fn crash(&mut self) {
        self.log.crash();
        self.buffer.crash();
        self.dirty.clear();
        self.locks.clear();
        self.active.clear();
        self.needs_recovery = true;
        // The crash *is* the restart boundary in this model: an installed
        // fault hook holding a power-loss latch releases it here so the
        // recovery I/O that follows can reach the platters.
        self.dur.array.power_cycled();
    }

    /// Restart recovery. Idempotent: a crash in the middle of a previous
    /// recovery attempt is handled by simply running it again.
    pub(crate) fn recover(&mut self) -> Result<RecoveryReport> {
        // Per-phase breakdown: billed array I/O from stats deltas (exact
        // and deterministic), wall-clock from `Instant` (human-facing
        // only — never part of report equality or deterministic JSON).
        let io = self.dur.array.stats();
        let mut phase_mark = io.snapshot();
        let mut phase_start = Instant::now();
        let mut close_phase = move |timeline: &mut Timeline, phase: RecoveryPhase| {
            let snap = io.snapshot();
            let d = snap.delta(&phase_mark);
            timeline.push(phase, phase_start.elapsed(), d.reads, d.writes);
            phase_mark = snap;
            phase_start = Instant::now();
        };

        let store = Arc::clone(&self.dur.log_store);
        let analysis = Analysis::run(&store, Lsn(store.base()), Lsn(store.len()));

        let mut report = RecoveryReport {
            winners: analysis.winners(),
            losers: analysis.losers(),
            // The black box's pre-crash snapshot rides the first report
            // after reopen (recovery is idempotent; reruns see `None`).
            flight: self.prior_flight.take(),
            ..RecoveryReport::default()
        };
        self.metrics.recoveries.inc();
        close_phase(&mut report.timeline, RecoveryPhase::LogScan);

        // ---- 0. replay the staged write intent ------------------------
        // A pending intent means power failed inside a read-modify-write:
        // some of its data/parity writes may have landed, some not, and
        // one block may be torn. Replaying the whole staged set (absolute
        // page images, so the replay is idempotent — a second crash here
        // is harmless) finishes the sequence and heals any torn block.
        // The intent is cleared only *after* the replay completes.
        let staged = self.dur.intent.lock().clone();
        if let Some(intent) = staged {
            match self
                .dur
                .array
                .write_data_unprotected(intent.page, &intent.data)
            {
                Ok(()) | Err(rda_array::ArrayError::DiskFailed(_)) => {}
                Err(e) => return Err(e.into()),
            }
            for (g, slot, parity) in &intent.parity {
                match self.dur.array.write_parity(*g, *slot, parity) {
                    Ok(()) | Err(rda_array::ArrayError::DiskFailed(_)) => {}
                    Err(e) => return Err(e.into()),
                }
            }
            *self.dur.intent.lock() = None;
            if let Some(sink) = &self.dur.meta {
                // The journaled intent is consumed; a second restart must
                // not replay it over post-recovery writes.
                sink.intent_clear();
            }
            report.intent_replays += 1;
            self.obs.tracer.emit(|| EventKind::IntentReplay {
                page: intent.page.0,
            });
        }
        close_phase(&mut report.timeline, RecoveryPhase::IntentReplay);

        // ---- 1. heal torn non-committed twins -------------------------
        // A tear on the *working* twin (or an obsolete/invalid one) costs
        // nothing: every rider's before-image is derived through the
        // committed twin, which no riding write ever touches, so the torn
        // block's content is simply reset from it. Doing this up front
        // keeps the later undo/redo writes — which read-modify-write both
        // twins of a dirty group — from tripping over the torn block. A
        // torn *committed* twin of a clean group is healed by the bitmap
        // scan (phase 4); of a dirty group it is genuine double failure
        // and surfaces as an error from the undo reads.
        if self.is_rda() {
            for g in 0..self.dur.array.groups() {
                let g = GroupId(g);
                let meta = self.dur.twins.meta(g);
                let work = match meta.state {
                    [crate::twin::TwinState::Working, _] => Some(ParitySlot::P0),
                    [_, crate::twin::TwinState::Working] => Some(ParitySlot::P1),
                    _ => None,
                };
                let committed =
                    work.map_or_else(|| self.dur.twins.current_slot(g), ParitySlot::other);
                for slot in ParitySlot::BOTH {
                    if slot == committed {
                        continue;
                    }
                    if matches!(
                        self.dur.array.read_parity(g, slot),
                        Err(rda_array::ArrayError::TornPage { .. })
                    ) {
                        let p_comm = self.dur.array.read_parity(g, committed)?;
                        self.dur.array.write_parity(g, slot, &p_comm)?;
                        if work == Some(slot) {
                            self.dur.twins.invalidate(g, slot);
                        }
                        report.torn_twins_healed += 1;
                        self.obs
                            .tracer
                            .emit(|| EventKind::TornTwinHeal { group: g.0 });
                    }
                }
            }
        }

        // Groups that were dirty at crash time: every group containing a
        // loser's parity-riding page. Writes into these groups must keep
        // updating both twins until the undo completes.
        let mut loser_dirty_groups: BTreeSet<GroupId> = BTreeSet::new();
        let mut loser_parity_pages: BTreeMap<TxnId, BTreeSet<DataPageId>> = BTreeMap::new();
        for loser in &report.losers {
            let mut pages: BTreeSet<DataPageId> =
                self.dur.chain.pages_of(*loser).into_iter().collect();
            // Legacy: steal notes written to the log are honored too.
            if let Some(noted) = analysis.parity_steals.get(loser) {
                pages.extend(noted.iter().copied());
            }
            for page in &pages {
                loser_dirty_groups.insert(self.dur.array.geometry().group_of(*page));
            }
            loser_parity_pages.insert(*loser, pages);
        }

        // ---- 2. undo losers -------------------------------------------
        // Parity undo restores the *pre-steal disk version* of a page,
        // which may predate committed-but-unflushed updates (¬FORCE); those
        // pages must be redone from the whole log, not just from the last
        // checkpoint.
        // A page is "regressed" if it has *ever* been parity-undone since
        // the last flush of its committed state — every parity undo (crash
        // or normal abort) leaves a Compensation record, so the log tells
        // us. Over-inclusion only costs a few extra redo reads.
        let mut regressed: BTreeSet<DataPageId> = analysis
            .compensations
            .keys()
            .map(|(_, page)| *page)
            .collect();
        for loser in &report.losers {
            let pages = loser_parity_pages.get(loser).cloned().unwrap_or_default();
            for page in pages {
                self.recover_undo_parity(*loser, page, &analysis)?;
                self.dur.chain.clear_page(*loser, page);
                report.undone_via_parity += 1;
                regressed.insert(page);
            }
        }
        close_phase(&mut report.timeline, RecoveryPhase::UndoParity);
        for loser in &report.losers {
            for (page, undo_at) in analysis.logged_undo.get(loser).into_iter().flatten() {
                self.recover_undo_logged(*loser, *page, undo_at, &loser_dirty_groups)?;
                report.undone_via_log += 1;
            }
        }
        close_phase(&mut report.timeline, RecoveryPhase::UndoLog);

        // ---- 3. redo winners (¬FORCE) -----------------------------------
        if self.cfg.eot == EotPolicy::NoForce {
            report.redone = self.recover_redo(&analysis, &loser_dirty_groups, &regressed)?;
        }
        close_phase(&mut report.timeline, RecoveryPhase::Redo);

        // ---- 4. rebuild the Current_Parity bitmap ------------------------
        if self.is_rda() {
            for g in 0..self.dur.array.groups() {
                let g = GroupId(g);
                // One header read per group (the paper's S/N term).
                let slot = self.dur.twins.current_slot(g);
                match self.dur.array.read_parity(g, slot) {
                    Ok(_) => {}
                    Err(rda_array::ArrayError::TornPage { .. }) => {
                        // A torn current twin (e.g. a seeded tear, or one
                        // outside any staged intent): by this point every
                        // loser group has been undone, so the group is
                        // clean and its parity is simply the member XOR.
                        let fixed = self.dur.array.compute_group_parity(g)?;
                        self.dur.array.write_parity(g, slot, &fixed)?;
                        report.torn_twins_healed += 1;
                        self.obs
                            .tracer
                            .emit(|| EventKind::TornTwinHeal { group: g.0 });
                    }
                    Err(e) => return Err(e.into()),
                }
                report.bitmap_groups += 1;
                // One readable header vouches for the parity coverage of
                // every data page in the group.
                report.pages_scanned += self.dur.array.geometry().members(g).len() as u64;
            }
        }
        close_phase(&mut report.timeline, RecoveryPhase::BitmapScan);

        // ---- finish -------------------------------------------------------
        // Sweep stale chains. Losers' entries were cleared page by page as
        // their undos completed; anything left belongs to a transaction
        // whose outcome record became durable but whose EOT chain reset did
        // not — a window that only exists on real storage, where the
        // process can die between the log force and the header reclamation.
        // No transaction is alive at this point, so every survivor is dead.
        for txn in self.dur.chain.txns() {
            self.dur.chain.clear_txn(txn);
        }
        for loser in &report.losers {
            self.log.append(LogRecord::Abort { txn: *loser });
        }
        // Recovery is idempotent, but once the losers' Abort records are
        // durable a later restart will not revisit them — so the repair
        // writes they summarize must be on stable storage first.
        self.dur.array.write_barrier()?;
        self.log.force();

        let max_txn = analysis.outcomes.keys().map(|t| t.0).max().unwrap_or(0);
        self.next_txn = self.next_txn.max(max_txn + 1);
        self.clock = self.dur.twins.max_ts() + 1;
        self.ops_since_ckpt = 0;
        self.redo_start = analysis
            .last_acc_checkpoint
            .as_ref()
            .map_or(Lsn(store.base()), |(at, _)| *at);
        self.needs_recovery = false;
        Ok(report)
    }

    /// Undo one parity-riding page of a loser during restart.
    fn recover_undo_parity(
        &mut self,
        loser: TxnId,
        page: DataPageId,
        analysis: &Analysis,
    ) -> Result<()> {
        let g = self.dur.array.geometry().group_of(page);

        // A compensation image means a pre-crash rollback (or an earlier
        // recovery attempt) already computed the before-image; the parity
        // difference may no longer encode it, so apply the pinned image.
        // That image need not be the version the committed twin covers:
        // under ¬FORCE it can be a committed, never-flushed image the
        // loser first touched. So the committed twin is recomputed from
        // the members before the working twin is reset from it.
        if let Some(at) = analysis.compensations.get(&(loser, page)) {
            let restored = self.logged_image(*at)?;
            self.dur.array.write_data_unprotected(page, &restored)?;
            let committed = self
                .working_twin(g)
                .map_or_else(|| self.dur.twins.current_slot(g), ParitySlot::other);
            let parity = self.dur.array.compute_group_parity(g)?;
            self.dur.array.write_parity(g, committed, &parity)?;
            self.invalidate_working_twin(g)?;
        } else {
            self.recover_undo_parity_via_twin(loser, page, g)?;
        }
        self.metrics.undo_parity.inc();
        self.obs.tracer.emit(|| EventKind::ParityUndo {
            group: g.0,
            page: page.0,
            txn: loser.0,
        });
        Ok(())
    }

    /// The twin-difference half of [`Engine::recover_undo_parity`]: no
    /// pinned compensation image exists yet, so derive `D_old` from the
    /// committed twin and pin it before restoring.
    fn recover_undo_parity_via_twin(
        &mut self,
        loser: TxnId,
        page: DataPageId,
        g: GroupId,
    ) -> Result<()> {
        // The working twin is identified durably by its Figure-8 state.
        // `None` means the crash hit the steal before its parity write
        // landed (the chain note rides the data write, so it can exist a
        // beat earlier) — the data page may hold the new image, a torn
        // image, or still the old one.
        let work = self.working_twin(g);
        let committed = match work {
            Some(w) => w.other(),
            None => self.dur.twins.current_slot(g),
        };

        // D_old through the committed twin: P_committed ⊕ XOR(siblings).
        // Unlike the twin-difference identity `(P ⊕ P′) ⊕ D_new`, this
        // holds at *every* crash point of the steal sequence — the
        // committed parity and the sibling pages are exactly what no
        // riding write ever touches — and it never needs to read the
        // riding page itself, so a torn data page or a torn working twin
        // costs nothing. The identity is kept as the degraded-mode
        // fallback: it still works with a dead sibling disk, where
        // reconstruction cannot.
        let d_old = match self.dur.array.reconstruct_data(page, committed) {
            Ok(p) => p,
            Err(
                e @ (rda_array::ArrayError::DiskFailed(_)
                | rda_array::ArrayError::MediaError { .. }
                | rda_array::ArrayError::Unrecoverable(_)),
            ) => {
                let Some(work) = work else {
                    return Err(e.into());
                };
                let p_work = self.dur.array.read_parity(g, work)?;
                let p_comm = self.dur.array.read_parity(g, committed)?;
                let d_new = self.read_disk(page)?;
                // Fold into the already-owned working twin page:
                // D_old = P_work ⊕ P_committed ⊕ D_new.
                let mut d_old = p_work;
                d_old.xor_many_in_place(&[&p_comm, &d_new]);
                d_old
            }
            Err(e) => return Err(e.into()),
        };

        self.log.append(LogRecord::Compensation {
            txn: loser,
            page,
            image: d_old.as_ref().to_vec(),
        });
        self.log.force();

        self.dur.array.write_data_unprotected(page, &d_old)?;
        if let Some(work) = work {
            let p_comm = self.dur.array.read_parity(g, committed)?;
            self.dur.array.write_parity(g, work, &p_comm)?;
            self.dur.twins.invalidate(g, work);
        }
        Ok(())
    }

    /// The twin a group's durable Figure-8 state names Working, if any.
    fn working_twin(&self, g: GroupId) -> Option<ParitySlot> {
        match self.dur.twins.meta(g).state {
            [crate::twin::TwinState::Working, _] => Some(ParitySlot::P0),
            [_, crate::twin::TwinState::Working] => Some(ParitySlot::P1),
            _ => None,
        }
    }

    /// Reset a group's working twin (content := committed parity, header
    /// invalidated). Idempotent.
    fn invalidate_working_twin(&mut self, g: GroupId) -> Result<()> {
        let Some(work) = self.working_twin(g) else {
            return Ok(());
        };
        let p_comm = self.dur.array.read_parity(g, work.other())?;
        self.dur.array.write_parity(g, work, &p_comm)?;
        self.dur.twins.invalidate(g, work);
        Ok(())
    }

    /// Look at the log record at `at`, which the caller's analysis scan
    /// passed (and billed) and noted. The store is locked only while
    /// `look` runs — the undo/redo writes that follow append and force.
    fn with_logged<R>(&self, at: Lsn, look: impl FnOnce(&LogRecord) -> R) -> R {
        self.dur
            .log_store
            .with_record(at, look)
            .expect("nothing truncates the log between a recovery's scan and its installs")
    }

    /// The page image carried by the record at `at`: copied out of the
    /// log here, once, to be installed.
    pub(crate) fn logged_image(&self, at: Lsn) -> Result<Page> {
        self.with_logged(at, |record| match record {
            LogRecord::BeforeImage { image, .. }
            | LogRecord::AfterImage { image, .. }
            | LogRecord::Compensation { image, .. } => Ok(Page::from_bytes(image)),
            _ => Err(DbError::WrongGranularity(
                "page logging configured, the log carries record diffs",
            )),
        })
    }

    /// Overlay onto `page` the before (`undo`) or after side of the
    /// byte-range diff carried by the record at `at`, straight from the
    /// log.
    pub(crate) fn apply_logged_diff(&self, at: Lsn, page: &mut Page, undo: bool) -> Result<()> {
        self.with_logged(at, |record| {
            let (offset, bytes) = match record {
                LogRecord::RecordUpdate { offset, before, .. } if undo => (*offset, before),
                LogRecord::RecordUpdate { offset, after, .. }
                | LogRecord::RecordRedo { offset, after, .. }
                    if !undo =>
                {
                    (*offset, after)
                }
                _ => {
                    return Err(DbError::WrongGranularity(
                        "record logging configured, the log carries page images",
                    ))
                }
            };
            let off = offset as usize;
            page.as_mut()[off..off + bytes.len()].copy_from_slice(bytes);
            Ok(())
        })
    }

    /// Undo one UNDO-logged page of a loser during restart; `undo_at` are
    /// the LSNs of its before-image / before-diff records in log order.
    fn recover_undo_logged(
        &mut self,
        loser: TxnId,
        page: DataPageId,
        undo_at: &[Lsn],
        loser_dirty_groups: &BTreeSet<GroupId>,
    ) -> Result<()> {
        let g = self.dur.array.geometry().group_of(page);
        let restored = match self.cfg.granularity {
            // The earliest before-image is the transaction's first-touch
            // state.
            LogGranularity::Page => self.logged_image(undo_at[0])?,
            LogGranularity::Record => {
                let mut current = self.read_disk(page)?;
                for at in undo_at.iter().rev() {
                    self.apply_logged_diff(*at, &mut current, true)?;
                }
                current
            }
        };
        let old = self.read_disk(page)?;
        if restored == old {
            return Ok(()); // already undone by an earlier recovery attempt
        }
        let slots = self.recovery_write_slots(g, loser_dirty_groups);
        self.write_with_parity(page, &restored, &old, &slots)?;
        self.metrics.undo_log.inc();
        self.obs.tracer.emit(|| EventKind::LogUndo {
            page: page.0,
            txn: loser.0,
        });
        Ok(())
    }

    /// Which twins recovery writes must update: both for groups that were
    /// dirty at crash time (their twins must keep their XOR difference
    /// until the parity undo runs; afterwards they are identical, so the
    /// double update is harmless), the current one otherwise.
    fn recovery_write_slots(
        &self,
        g: GroupId,
        loser_dirty_groups: &BTreeSet<GroupId>,
    ) -> Vec<ParitySlot> {
        if !self.is_rda() {
            return vec![ParitySlot::P0];
        }
        if loser_dirty_groups.contains(&g) {
            vec![ParitySlot::P0, ParitySlot::P1]
        } else {
            vec![self.dur.twins.current_slot(g)]
        }
    }

    /// Redo committed work from the last ACC checkpoint (¬FORCE).
    fn recover_redo(
        &mut self,
        analysis: &Analysis,
        loser_dirty_groups: &BTreeSet<GroupId>,
        regressed: &BTreeSet<DataPageId>,
    ) -> Result<u64> {
        let winners: BTreeSet<TxnId> = analysis.winners().into_iter().collect();
        let start = analysis
            .last_acc_checkpoint
            .as_ref()
            .map_or(Lsn(0), |(l, _)| *l);
        // Committed redo records in log order, page by page. Pages
        // regressed by parity undo need whole-log redo.
        let mut redo_at: BTreeMap<DataPageId, Vec<Lsn>> = BTreeMap::new();
        for (lsn, txn, page) in &analysis.redo {
            if winners.contains(txn) && (*lsn >= start || regressed.contains(page)) {
                redo_at.entry(*page).or_default().push(*lsn);
            }
        }

        let mut redone = 0;
        for (page, at) in redo_at {
            let current = self.read_disk(page)?;
            let new = match self.cfg.granularity {
                // The last committed after-image wins.
                LogGranularity::Page => self.logged_image(at[at.len() - 1])?,
                LogGranularity::Record => {
                    let mut new = current.clone();
                    for lsn in at {
                        self.apply_logged_diff(lsn, &mut new, false)?;
                    }
                    new
                }
            };
            if new == current {
                continue;
            }
            let g = self.dur.array.geometry().group_of(page);
            let slots = self.recovery_write_slots(g, loser_dirty_groups);
            self.write_with_parity(page, &new, &current, &slots)?;
            redone += 1;
        }
        Ok(redone)
    }

    /// Media recovery: replace a failed disk and rebuild its contents from
    /// the surviving members of each parity group, reading through the
    /// committed twin — the paper's §1 goal of recovering "without
    /// requiring operator intervention". Requires that no transactions are
    /// active so that every group is clean.
    /// When a disk dies together with a system crash, restart recovery
    /// runs *first*, degraded: a rebuild with losers still riding parity
    /// would materialize stale parity into data blocks, while the parity
    /// undo reads nothing a rider ever touched and so works without the
    /// dead disk. Rebuild afterwards — or mid-restart when recovery must
    /// actually *write* the dead disk (it surfaces `DiskFailed`; by then
    /// undo has passed the staleness, so rebuild-then-retry is safe).
    pub(crate) fn media_recover(&mut self, disk: DiskId) -> Result<u64> {
        if !self.active.is_empty() {
            return Err(DbError::ActiveTransactions(self.active.len()));
        }
        let twins = Arc::clone(&self.dur.twins);
        let rebuilt = if self.is_rda() {
            self.dur
                .array
                .rebuild_disk(disk, |g| twins.current_slot(g))?
        } else {
            self.dur.array.rebuild_disk(disk, |_| ParitySlot::P0)?
        };
        // With the disk back, flush committed dirty buffer pages so the
        // rebuilt array reflects them (their redo is also in the log, but
        // a rebuild should not depend on a later restart).
        for (page, has_uncommitted) in self.buffer.dirty_pages() {
            debug_assert!(!has_uncommitted, "no active transactions");
            let data = self.buffer.peek(page).expect("dirty page resident").clone();
            self.write_back_committed(page, &data)?;
            self.buffer.mark_clean(page);
        }
        Ok(rebuilt)
    }

    /// Move the log's low-water mark now, and retire the archive pin.
    ///
    /// The engine advances the mark by itself at every checkpoint it takes
    /// ([`Engine::advance_low_water`] has the rule), so on a running
    /// database this usually finds nothing left to drop. What the call is
    /// still for: forcing the volatile tail first and cutting once more
    /// (after an abort, say, which is not a checkpoint), and telling the
    /// engine that the last [`Engine::archive_dump`] will not be restored
    /// any more — until then the log is kept from the dump's position on,
    /// however long that grows. Returns the number of records discarded.
    ///
    /// An archive taken before the mark can no longer be rolled forward
    /// ([`Engine::archive_restore`] refuses it) — take a fresh one after
    /// truncating if archive recovery matters.
    pub(crate) fn truncate_log(&mut self) -> Result<u64> {
        if self.needs_recovery {
            return Err(DbError::NeedsRecovery);
        }
        self.log.force();
        self.archive_pin = None;
        Ok(self.advance_low_water())
    }

    /// Check the parity invariants of every group: the committed twin (or
    /// the working twin for dirty groups) must equal the XOR of the
    /// group's data pages. Returns human-readable violations (empty =
    /// consistent). Bills array reads like any scrubber would.
    pub(crate) fn verify_parity(&mut self) -> Result<Vec<String>> {
        let mut violations = Vec::new();
        for g in 0..self.dur.array.groups() {
            let g = GroupId(g);
            let slot = self.disk_read_slot(g);
            if self.is_rda() || slot == ParitySlot::P0 {
                let ok = self.dur.array.group_parity_ok(g, slot)?;
                if !ok {
                    violations.push(format!("group {g}: parity slot {slot:?} stale"));
                }
            }
            // For dirty RDA groups additionally check the committed twin
            // against the group with the riding page's old contents — the
            // undo identity itself.
            if let Some(info) = self.dirty.get(g) {
                let p_work = self.dur.array.read_parity(g, info.working)?;
                let p_comm = self.dur.array.read_parity(g, info.working.other())?;
                let d_new = self.read_disk(info.page)?;
                let mut d_old = p_comm;
                d_old.xor_many_in_place(&[&p_work, &d_new]);
                // The before-image must differ from the new one only if
                // the transaction actually changed the page; we can at
                // least check sizes and that recomputing parity from
                // members matches the working twin.
                let computed = self.dur.array.compute_group_parity(g)?;
                if computed != p_work {
                    violations.push(format!("group {g}: working twin does not cover disk"));
                }
                let _ = d_old;
            }
        }
        Ok(violations)
    }
}
