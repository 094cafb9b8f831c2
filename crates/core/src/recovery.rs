//! Restart (crash) recovery and media recovery (paper §4.3).
//!
//! After a system failure the buffer pool, the twin directory (the
//! Dirty_Set with it), lock table and unforced log tail are gone; the
//! array (each parity twin with its header), the durable log and the
//! staged intent survive.
//! Restart runs these phases, each a [`RecoveryPhase`] of the timeline:
//!
//! 0. **Log scan**: one billed scan classifies transactions into winners,
//!    already-aborted and losers (BOT without EOT), noting by LSN where
//!    the images undo and redo may need live.
//! 1. **Intent replay**: a staged intent's whole blocks (images and twin
//!    headers) are written again, finishing an interrupted
//!    read-modify-write and healing any block it tore.
//! 2. **Bitmap scan**: both twins of every group are read once (the
//!    paper's `S/N` header reads) and the twin directory is rebuilt.
//!    Current_Parity is the larger timestamp among the twins that do not
//!    hold a loser's claim; a loser's claim names its rider, the page it
//!    stole onto the parity unlogged (the paper follows a TWIST-style
//!    chain instead). A `Working` header of an ended transaction is a
//!    commit whose flip never reached the platter. A group with an
//!    unreadable twin is healed into the readable one (`heal_group`).
//! 3. **Undo parity riders**, before redo, while the committed twins
//!    still cover the pre-steal disk versions: `D_old = P_committed ⊕
//!    XOR(siblings)`, pinned in the log as a compensation image first so
//!    a second crash is harmless; the working twin is reset from the
//!    committed twin under an invalid header.
//! 4. **Undo logged pages** from their before-images.
//! 5. **Redo winners** (¬FORCE only) from the last ACC checkpoint. Undo
//!    restored first-touch before-images, which contain every earlier
//!    committed update, so redo-after-undo converges.
//!
//! The losers' Abort records are forced last, behind a barrier.

use crate::config::{EotPolicy, LogGranularity};
use crate::engine::Engine;
use crate::error::{DbError, Result};
use crate::twin::{TwinMeta, TwinState};
use rda_array::{ArrayError, BlockDevice, DataPageId, DiskId, GroupId, Header, Page, ParitySlot};
use rda_obs::{EventKind, FlightRecord, RecoveryPhase, Timeline};
use rda_wal::{Analysis, LogRecord, Lsn, TxnId, TxnOutcome};
use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;
use std::time::Instant;

/// What the bitmap scan found that the undo phases act on.
#[derive(Default)]
struct Riders {
    /// Pages each loser rides on a group's parity, to undo through it.
    pages: BTreeMap<TxnId, BTreeSet<DataPageId>>,
    /// Groups a loser's claim keeps dirty (both twins written) until undo.
    dirty: BTreeSet<GroupId>,
    /// Those groups' twins as the scan read them, for an undo that finds
    /// one unreadable by then.
    twins: BTreeMap<GroupId, [Page; 2]>,
    /// The largest transaction id a `Working` header names.
    max_claim: u64,
}

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
    /// Simulate a system failure: all volatile state is lost, the twin
    /// directory with it. The array (parity headers included) and the
    /// durable log survive.
    pub(crate) fn crash(&mut self) {
        self.log.crash();
        self.buffer.crash();
        self.twins.forget();
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

        // ---- 1. replay the staged write intent ------------------------
        // Whole blocks, so the replay is idempotent (a second crash here
        // is harmless); the intent is cleared only after it completes.
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
            self.intent_journaled = true;
            report.intent_replays += 1;
            self.obs.tracer.emit(|| EventKind::IntentReplay {
                page: intent.page.0,
            });
        }
        // The journaled intent — replayed here, or one an in-process crash
        // found already finished — is consumed: a second restart must not
        // replay it over the writes below, none of which stages one.
        self.unstaged()?;
        close_phase(&mut report.timeline, RecoveryPhase::IntentReplay);

        // ---- 2. rebuild the Current_Parity bitmap from the headers -----
        let mut riders = Riders::default();
        if self.is_rda() {
            for g in (0..self.dur.array.groups()).map(GroupId) {
                self.scan_group(g, &analysis, &mut riders, &mut report)?;
            }
        }
        self.twins.set_known();
        self.clock = self.clock.max(self.twins.max_ts() + 1);
        close_phase(&mut report.timeline, RecoveryPhase::BitmapScan);

        // ---- 3, 4. undo losers ----------------------------------------
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
            let pages = riders.pages.get(loser).cloned().unwrap_or_default();
            for page in pages {
                self.recover_undo_parity(*loser, page, &analysis, &riders)?;
                report.undone_via_parity += 1;
                regressed.insert(page);
            }
        }
        close_phase(&mut report.timeline, RecoveryPhase::UndoParity);
        for loser in &report.losers {
            for (page, undo_at) in analysis.logged_undo.get(loser).into_iter().flatten() {
                self.recover_undo_logged(*loser, *page, undo_at, &riders.dirty)?;
                report.undone_via_log += 1;
            }
        }
        close_phase(&mut report.timeline, RecoveryPhase::UndoLog);

        // ---- 5. redo winners (¬FORCE) -----------------------------------
        if self.cfg.eot == EotPolicy::NoForce {
            report.redone = self.recover_redo(&analysis, &riders.dirty, &regressed)?;
        }
        close_phase(&mut report.timeline, RecoveryPhase::Redo);

        // ---- finish -------------------------------------------------------
        for loser in &report.losers {
            self.log.append(LogRecord::Abort { txn: *loser });
        }
        // Recovery is idempotent, but once the losers' Abort records are
        // durable a later restart will not revisit them — so the repair
        // writes they summarize must be on stable storage first.
        self.dur.array.write_barrier()?;
        self.log.force();

        // New ids start above every id the log or a header has seen.
        let max_txn = analysis.outcomes.keys().map(|t| t.0).max().unwrap_or(0);
        self.next_txn = self.next_txn.max(max_txn.max(riders.max_claim) + 1);
        self.clock = self.clock.max(self.twins.max_ts() + 1);
        self.ops_since_ckpt = 0;
        self.redo_start = analysis
            .last_acc_checkpoint
            .as_ref()
            .map_or(Lsn(store.base()), |(at, _)| *at);
        self.needs_recovery = false;
        Ok(report)
    }

    /// Phase 2 for one group: read both twins, install the header pair
    /// they resolve to, note a loser's rider, or [`Engine::heal_group`].
    fn scan_group(
        &mut self,
        g: GroupId,
        analysis: &Analysis,
        riders: &mut Riders,
        report: &mut RecoveryReport,
    ) -> Result<()> {
        // A dead disk, a tear or a latent error makes a twin unreadable.
        let read = |slot| match self.dur.array.read_parity(g, slot) {
            Err(
                e @ (ArrayError::DiskFailed(_)
                | ArrayError::MediaError { .. }
                | ArrayError::TornPage { .. }),
            ) => Ok(Err(e)),
            read => read.map(Ok),
        };
        let twins = (read(ParitySlot::P0)?, read(ParitySlot::P1)?);
        let loser = |h: &Header| {
            h.state == TwinState::Working
                && analysis.outcomes.get(&TxnId(h.txn)) == Some(&TxnOutcome::InFlight)
        };
        for h in [&twins.0, &twins.1].into_iter().flatten().map(Page::header) {
            if h.state == TwinState::Working {
                riders.max_claim = riders.max_claim.max(h.txn);
            }
        }
        match twins {
            (Ok(p0), Ok(p1)) => {
                let meta = TwinMeta::from_headers([p0.header(), p1.header()], loser)
                    .ok_or(ArrayError::Unrecoverable(g))?;
                if let Some(work) = meta.working() {
                    let claim = meta.header(work);
                    let members = self.dur.array.geometry().members(g);
                    let rider = members.get(usize::from(claim.rider));
                    let rider = *rider.ok_or(ArrayError::Unrecoverable(g))?;
                    riders
                        .pages
                        .entry(TxnId(claim.txn))
                        .or_default()
                        .insert(rider);
                    riders.dirty.insert(g);
                    riders.twins.insert(g, [p0, p1]);
                }
                self.twins.install(g, meta);
            }
            (Ok(p0), Err(e)) => {
                self.heal_group(g, ParitySlot::P0, &p0, &e, analysis, riders, report)?;
            }
            (Err(e), Ok(p1)) => {
                self.heal_group(g, ParitySlot::P1, &p1, &e, analysis, riders, report)?;
            }
            (Err(_), Err(_)) => return Err(ArrayError::Unrecoverable(g).into()),
        }
        report.bitmap_groups += 1;
        // One readable header vouches for the parity coverage of every
        // data page in the group.
        report.pages_scanned += self.dur.array.geometry().member_pages(g).count() as u64;
        Ok(())
    }

    /// A group whose twin `read.other()` could not be read (`lost`): the
    /// readable twin becomes the committed one (a torn or rotten twin is
    /// rewritten too). A rider whose claim was on the lost twin carries a
    /// copy in its own header, read here with the other members, and
    /// undoes through the readable twin as it stands; without one the
    /// twin takes the members' XOR. A claim on the readable twin needs a
    /// logged image, and every loser's compensated page is undone again
    /// (an interrupted undo may have torn the twin that held its claim).
    #[allow(clippy::too_many_arguments)]
    fn heal_group(
        &mut self,
        g: GroupId,
        read: ParitySlot,
        twin: &Page,
        lost: &ArrayError,
        analysis: &Analysis,
        riders: &mut Riders,
        report: &mut RecoveryReport,
    ) -> Result<()> {
        let in_flight = |txn| analysis.outcomes.get(&txn) == Some(&TxnOutcome::InFlight);
        for &(txn, page) in analysis.compensations.keys() {
            if in_flight(txn) && self.dur.array.geometry().group_of(page) == g {
                riders.pages.entry(txn).or_default().insert(page);
            }
        }
        let mut parity = self.dur.array.blank_page();
        let mut ridden = false;
        for page in self.dur.array.geometry().members(g) {
            let member = (self.dur.array.try_read_data(page)).map_err(|e| match e {
                ArrayError::Crashed => e,
                _ => ArrayError::Unrecoverable(g),
            })?;
            let mark = member.header();
            let txn = TxnId(mark.txn);
            let logged = analysis.compensations.contains_key(&(txn, page))
                || (analysis.logged_undo.get(&txn)).is_some_and(|undo| undo.contains_key(&page));
            let live = mark.state == TwinState::Working && in_flight(txn) && !logged;
            if live && mark == twin.header() {
                return Err(ArrayError::Unrecoverable(g).into());
            }
            // An older claim than the readable twin's is a stale copy.
            if live && mark.ts > twin.header().ts {
                riders.pages.entry(txn).or_default().insert(page);
                ridden = true;
            }
            parity.xor_in_place(&member);
        }
        if ridden {
            parity.clone_from(twin);
        }
        let now = self.tick();
        self.twins.set_committed(g, read, now);
        self.write_twin(g, read, &mut parity)?;
        if !matches!(lost, ArrayError::DiskFailed(_)) {
            self.write_twin(g, read.other(), &mut parity)?;
            if matches!(lost, ArrayError::TornPage { .. }) {
                report.torn_twins_healed += 1;
                self.obs
                    .tracer
                    .emit(|| EventKind::TornTwinHeal { group: g.0 });
            }
        }
        Ok(())
    }

    /// Undo one parity-riding page of a loser during restart.
    fn recover_undo_parity(
        &mut self,
        loser: TxnId,
        page: DataPageId,
        analysis: &Analysis,
        riders: &Riders,
    ) -> Result<()> {
        let g = self.dur.array.geometry().group_of(page);

        // A compensation image: a pre-crash rollback (or an earlier
        // recovery) pinned the before-image, which the parity difference
        // may no longer encode. Under ¬FORCE it can be a committed,
        // never-flushed image the committed twin does not cover, so that
        // twin is recomputed from the members before the working twin is
        // reset from it.
        if let Some(at) = analysis.compensations.get(&(loser, page)) {
            let restored = self.logged_image(*at)?;
            self.dur.array.write_data_unprotected(page, &restored)?;
            let committed = self
                .working_twin(g)
                .map_or_else(|| self.twins.current_slot(g), ParitySlot::other);
            match self.dur.array.compute_group_parity(g) {
                Ok(mut parity) => self.write_twin(g, committed, &mut parity)?,
                // A dead member: under FORCE the twin covers the image.
                Err(ArrayError::Unrecoverable(_)) if self.cfg.eot == EotPolicy::Force => {}
                Err(e) => return Err(e.into()),
            }
            self.reset_claim(g, None)?;
        } else {
            self.recover_undo_parity_via_twin(loser, page, g, riders.twins.get(&g))?;
        }
        self.end_parity_undo(loser, page);
        Ok(())
    }

    /// The twin-difference half of [`Engine::recover_undo_parity`]: no
    /// pinned compensation image exists yet, so derive `D_old` from the
    /// committed twin and pin it before restoring. `scanned` are the
    /// group's twins as the bitmap scan read them, standing in for a twin
    /// that has become unreadable since.
    fn recover_undo_parity_via_twin(
        &mut self,
        loser: TxnId,
        page: DataPageId,
        g: GroupId,
        scanned: Option<&[Page; 2]>,
    ) -> Result<()> {
        // The working twin is the one whose header holds the claim.
        // `None` means the bitmap scan lost it and recomputed the group.
        // Either way the data page may hold the new image, a torn image,
        // or still the old one: the claim precedes the steal's data write.
        let work = self.working_twin(g);
        let committed = match work {
            Some(w) => w.other(),
            None => self.twins.current_slot(g),
        };

        // Unlike an abort, which knows the image it stole, restart must
        // not read the riding page: D_old = P_committed ⊕ XOR(siblings)
        // holds at *every* crash point of the steal sequence (no riding
        // write touches the committed twin or a sibling), so a torn data
        // page or working twin costs nothing. The twin-difference
        // identity `(P ⊕ P′) ⊕ D_new` is the fallback for a dead sibling
        // and for a committed twin that died after the scan read it.
        let d_old = match self.dur.array.reconstruct_data(page, committed) {
            Ok(p) => p,
            Err(
                e @ (ArrayError::DiskFailed(_)
                | ArrayError::MediaError { .. }
                | ArrayError::Unrecoverable(_)),
            ) => {
                let Some(work) = work else {
                    return Err(e.into());
                };
                let (p_work, _) = self.twin_as_scanned(g, work, scanned)?;
                let (p_comm, _) = self.twin_as_scanned(g, committed, scanned)?;
                let d_new = self.read_disk(page)?;
                // Fold into the already-owned working twin page:
                // D_old = P_work ⊕ P_committed ⊕ D_new.
                let mut d_old = p_work;
                d_old.xor_many_in_place(&[&p_comm, &d_new]);
                d_old
            }
            Err(e) => return Err(e.into()),
        };
        self.put_back(loser, page, &d_old)?;
        self.reset_claim(g, scanned)
    }

    /// Reset a group's working twin to the committed parity under an
    /// invalid header — or, if the committed twin has become unreadable
    /// since the bitmap scan, to the scan's copy under the committed
    /// header itself. A dead working twin takes its claim with it (the
    /// rebuild writes the header the directory holds). Idempotent.
    fn reset_claim(&mut self, g: GroupId, scanned: Option<&[Page; 2]>) -> Result<()> {
        let Some(work) = self.working_twin(g) else {
            return Ok(());
        };
        let (mut p_comm, readable) = self.twin_as_scanned(g, work.other(), scanned)?;
        match self.reset_working_twin(g, work, &mut p_comm, !readable) {
            Ok(()) | Err(ArrayError::DiskFailed(_)) => Ok(()),
            Err(e) => Err(e.into()),
        }
    }

    /// Read twin `slot` of group `g`, or take the bitmap scan's copy if
    /// it has become unreadable since; the flag says which.
    fn twin_as_scanned(
        &self,
        g: GroupId,
        slot: ParitySlot,
        scanned: Option<&[Page; 2]>,
    ) -> Result<(Page, bool)> {
        match self.dur.array.read_parity(g, slot) {
            Ok(page) => Ok((page, true)),
            Err(e) => match scanned {
                Some(twins) => Ok((twins[slot.index()].clone(), false)),
                None => Err(e.into()),
            },
        }
    }

    // ---- log installs and undo steps, one path for abort and restart ----
    //
    // Each returns its outcome to the caller, which keeps its own error
    // arms: an abort outlives a dead data disk, a restart stops on one.

    /// Look at the log record at `at`, which the caller's analysis scan
    /// passed (and billed) and noted. The store is locked only while
    /// `look` runs — the undo/redo writes that follow append and force.
    fn with_logged<R>(&self, at: Lsn, look: impl FnOnce(&LogRecord) -> R) -> R {
        self.dur
            .log_store
            .with_record(at, look)
            .expect("nothing truncates the log between a scan and the installs it noted")
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

    /// The before-image of an UNDO-logged page, from the LSNs of its
    /// before-image / before-diff records in log order: the earliest
    /// before-image (the transaction's first-touch state), or the page as
    /// it stands on disk with the diffs reverse-applied.
    pub(crate) fn logged_undo_image(&self, page: DataPageId, undo_at: &[Lsn]) -> Result<Page> {
        match self.cfg.granularity {
            LogGranularity::Page => self.logged_image(undo_at[0]),
            LogGranularity::Record => {
                let mut img = self.read_disk(page)?;
                for at in undo_at.iter().rev() {
                    self.apply_logged_diff(*at, &mut img, true)?;
                }
                Ok(img)
            }
        }
    }

    /// Put an UNDO-logged page of `txn` back: `restored` over `old`,
    /// through the twins in `slots`.
    pub(crate) fn undo_logged(
        &mut self,
        txn: TxnId,
        page: DataPageId,
        restored: &Page,
        old: &Page,
        slots: &[ParitySlot],
    ) -> Result<()> {
        self.write_with_parity(page, restored, old, slots)?;
        self.metrics.undo_log.inc();
        self.obs.tracer.emit(|| EventKind::LogUndo {
            page: page.0,
            txn: txn.0,
        });
        Ok(())
    }

    /// Put a page riding its group's parity back to `image`: pinned in the
    /// log first as `txn`'s compensation record and forced, so a crash
    /// mid-undo replays this step instead of re-deriving it from parity
    /// the undo has begun to change; then written over the page, and every
    /// transaction's cached disk image of it refreshed. Returns the data
    /// write's outcome.
    pub(crate) fn put_back(
        &mut self,
        txn: TxnId,
        page: DataPageId,
        image: &Page,
    ) -> rda_array::Result<()> {
        self.log.append(LogRecord::Compensation {
            txn,
            page,
            image: image.as_ref().to_vec(),
        });
        self.log.force();
        let written = self.unstaged()?.write_data_unprotected(page, image);
        // A dead disk's page is what the parity encodes once it is reset.
        if matches!(written, Ok(()) | Err(ArrayError::DiskFailed(_))) {
            self.refresh_stolen_cache(page, image);
        }
        written
    }

    /// Take a ride's claim back: the working twin `work` is written with
    /// `parity` under an invalid header — or, with the committed twin
    /// `lost`, promoted to committed by the same write.
    pub(crate) fn reset_working_twin(
        &mut self,
        g: GroupId,
        work: ParitySlot,
        parity: &mut Page,
        lost: bool,
    ) -> rda_array::Result<()> {
        if lost {
            let now = self.tick();
            self.twins.set_committed(g, work, now);
        } else {
            self.twins.invalidate(g, work);
        }
        self.write_twin(g, work, parity)
    }

    /// Write `parity` to twin `slot` of group `g` under the header the
    /// twin directory holds for it.
    pub(crate) fn write_twin(
        &self,
        g: GroupId,
        slot: ParitySlot,
        parity: &mut Page,
    ) -> rda_array::Result<()> {
        parity.set_header(self.twins.header(g, slot));
        self.dur.array.write_parity(g, slot, parity)
    }

    /// The last step of every parity undo, its claim already reset: the
    /// undo is counted.
    pub(crate) fn end_parity_undo(&mut self, txn: TxnId, page: DataPageId) {
        let g = self.dur.array.geometry().group_of(page);
        self.metrics.undo_parity.inc();
        self.obs.tracer.emit(|| EventKind::ParityUndo {
            group: g.0,
            page: page.0,
            txn: txn.0,
        });
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
        let restored = self.logged_undo_image(page, undo_at)?;
        let old = self.read_disk(page)?;
        if restored == old {
            return Ok(()); // already undone by an earlier recovery attempt
        }
        let g = self.dur.array.geometry().group_of(page);
        let slots = self.recovery_write_slots(g, loser_dirty_groups);
        self.undo_logged(loser, page, &restored, &old, &slots)
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
            vec![self.twins.current_slot(g)]
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
    ///
    /// When a disk dies together with a system crash, restart recovery
    /// runs *first*, degraded: the rebuild needs the twin directory only
    /// restart rebuilds, and a rebuild with losers still riding parity
    /// would materialize stale parity into data blocks. Asked for before
    /// restart, this runs restart first; a restart that must write the
    /// dead disk stops with `DiskFailed` once its bitmap scan has rebuilt
    /// the directory (and its undo has passed the staleness), and the
    /// rebuild goes ahead.
    pub(crate) fn media_recover(&mut self, disk: DiskId) -> Result<u64> {
        if !self.active.is_empty() {
            return Err(DbError::ActiveTransactions(self.active.len()));
        }
        if !self.twins.is_known() {
            if let Err(e) = self.recover() {
                if !(self.twins.is_known()
                    && matches!(e, DbError::Array(ArrayError::DiskFailed(_))))
                {
                    return Err(e);
                }
            }
        }
        let twins = &self.twins;
        let valid = |g| match self.cfg.engine {
            crate::EngineKind::Rda => twins.current_slot(g),
            crate::EngineKind::Wal => ParitySlot::P0,
        };
        let rebuilt = self
            .dur
            .array
            .rebuild_disk(disk, valid, |g, slot| twins.header(g, slot))?;
        // With the disk back, flush committed dirty buffer pages so the
        // rebuilt array reflects them (their redo is also in the log, but
        // a rebuild should not depend on a later restart).
        for (page, _) in self.buffer.dirty_pages() {
            self.flush_frame(page)?;
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

    /// Check the parity invariants of every group: the twin covering the
    /// disk ([`Engine::disk_read_slot`]: the committed twin, or the
    /// working twin for dirty groups) must equal the XOR of the group's
    /// data pages. Returns human-readable violations (empty =
    /// consistent). Bills array reads like any scrubber would.
    pub(crate) fn verify_parity(&mut self) -> Result<Vec<String>> {
        let mut violations = Vec::new();
        for g in 0..self.dur.array.groups() {
            let g = GroupId(g);
            let slot = self.disk_read_slot(g);
            if !self.dur.array.group_parity_ok(g, slot)? {
                violations.push(format!("group {g}: parity slot {slot:?} stale"));
            }
        }
        Ok(violations)
    }
}
