//! The redundant disk array: addressed page I/O with parity maintenance,
//! degraded reads, and rebuild.

use crate::device::{BlockDevice, DefaultDisk};
use crate::fault::HookState;
use crate::geometry::BlockContent;
use crate::{
    ArrayConfig, ArrayError, DataPageId, DiskId, Geometry, GroupId, Header, IoKind, IoStats, Page,
    ParitySlot, PhysLoc, Result,
};
use rda_obs::{EventKind, Tracer};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// A simulated redundant disk array.
///
/// The array provides *mechanism*, not *policy*: it reads and writes data
/// and parity pages at the caller's direction and keeps honest count of the
/// physical transfers. Which parity twin is "committed" for a group is a
/// recovery-manager concern (`rda-core`); the array only guarantees the
/// layout invariants (group members on distinct disks) and implements the
/// XOR machinery.
///
/// All methods take `&self`; per-disk locks serialize physical access, and
/// higher layers are responsible for serializing read-modify-write cycles
/// on the same parity group.
///
/// The array is generic over its [`BlockDevice`] backend. The default —
/// the deterministic in-memory [`DefaultDisk`] — is what the checker and all
/// simulation-grade tests run on; a
/// file-backed device (the `rda-disk` crate) slots in through
/// [`DiskArray::with_disks`] without touching the parity protocol or the
/// transfer accounting, both of which live here.
pub struct DiskArray<D: BlockDevice = DefaultDisk> {
    cfg: ArrayConfig,
    geo: Geometry,
    disks: Vec<D>,
    stats: Arc<IoStats>,
    tracer: Arc<Tracer>,
    fault: rda_obs::sync::Mutex<Option<HookState>>,
    /// Disk deaths: calls to [`DiskArray::fail_disk`] and the `FailDisk`
    /// verdicts of every hook installed here, each counted as it happens.
    failed: Arc<AtomicU64>,
}

impl DiskArray {
    /// Build a simulated array (all pages zero-initialized, so parity =
    /// XOR of data trivially holds everywhere) with a private, disabled
    /// tracer.
    #[must_use]
    pub fn new(cfg: ArrayConfig) -> DiskArray {
        DiskArray::with_obs(cfg, Tracer::disabled())
    }

    /// Build a simulated array sharing the caller's [`Tracer`]. Every
    /// billed transfer advances the tracer's global I/O clock and (when
    /// tracing is enabled) emits a `DiskRead`/`DiskWrite` event; this is
    /// how the whole stack gets a common, replayable timebase.
    #[must_use]
    pub fn with_obs(cfg: ArrayConfig, tracer: Arc<Tracer>) -> DiskArray {
        let disks = crate::device::sim_disks_for(&cfg);
        DiskArray::with_disks(cfg, tracer, disks)
    }
}

impl<D: BlockDevice> DiskArray<D> {
    /// Build an array over caller-supplied devices — the entry point for
    /// non-simulated backends. `disks` must contain exactly one device per
    /// configured drive, in array order, each sized to the geometry
    /// (checked here so a mis-built backend fails loudly at open, not as
    /// silent data corruption later).
    ///
    /// # Panics
    /// If the device count, ids, or block counts disagree with `cfg`.
    #[must_use]
    pub fn with_disks(cfg: ArrayConfig, tracer: Arc<Tracer>, disks: Vec<D>) -> DiskArray<D> {
        let geo = Geometry::new(&cfg);
        assert_eq!(
            disks.len(),
            usize::from(geo.disks()),
            "backend supplied {} devices for a {}-disk geometry",
            disks.len(),
            geo.disks()
        );
        for (i, d) in disks.iter().enumerate() {
            assert_eq!(d.id(), DiskId(i as u16), "device {i} has the wrong id");
            assert_eq!(
                d.block_count(),
                geo.blocks_per_disk(),
                "device {i} has the wrong block count"
            );
        }
        let stats = Arc::new(IoStats::with_disks(geo.disks()));
        DiskArray {
            cfg,
            geo,
            disks,
            stats,
            tracer,
            fault: rda_obs::sync::Mutex::new(None),
            failed: Arc::new(AtomicU64::new(0)),
        }
    }

    /// The tracer this array clocks (disabled-by-default unless the
    /// array was built via [`DiskArray::with_obs`]).
    #[must_use]
    pub fn tracer(&self) -> Arc<Tracer> {
        Arc::clone(&self.tracer)
    }

    // ---- fault hook ------------------------------------------------------

    /// Install a fault hook, consulted by every disk on every physical
    /// read and write (billed or not). Replaces any previous hook and
    /// resets the fault counters.
    pub fn install_fault_hook(&self, hook: Arc<dyn crate::FaultHook>) {
        let state = HookState::new(hook).tallying_deaths(Arc::clone(&self.failed));
        for d in &self.disks {
            d.set_fault_hook(Some(state.clone()));
        }
        *self.fault.lock() = Some(state);
    }

    /// Stop consulting the installed fault hook, if any. The fault
    /// counters stay readable through [`DiskArray::fault_stats`], and
    /// [`DiskArray::power_cycled`] still notifies the detached hook (so a
    /// restart boundary can release a crashed latch regardless of the
    /// order the two calls arrive in).
    pub fn clear_fault_hook(&self) {
        for d in &self.disks {
            d.set_fault_hook(None);
        }
    }

    /// Tell the installed fault hook the machine was power-cycled (a
    /// restart boundary), releasing any crashed latch so I/O flows again.
    pub fn power_cycled(&self) {
        if let Some(state) = self.fault.lock().as_ref() {
            state.hook.power_cycled();
        }
    }

    /// Counters for faults the installed hook actually applied (`None`
    /// before any hook was ever installed).
    #[must_use]
    pub fn fault_stats(&self) -> Option<Arc<crate::FaultStats>> {
        self.fault.lock().as_ref().map(|s| Arc::clone(&s.stats))
    }

    /// The configuration the array was built with.
    #[must_use]
    pub fn config(&self) -> &ArrayConfig {
        &self.cfg
    }

    /// The computed layout.
    #[must_use]
    pub fn geometry(&self) -> &Geometry {
        &self.geo
    }

    /// Shared transfer counters.
    #[must_use]
    pub fn stats(&self) -> Arc<IoStats> {
        Arc::clone(&self.stats)
    }

    /// A zeroed page of the configured size.
    #[must_use]
    pub fn blank_page(&self) -> Page {
        Page::zeroed(self.cfg.page_size)
    }

    /// Effective number of data pages.
    #[must_use]
    pub fn data_pages(&self) -> u32 {
        self.geo.data_pages()
    }

    /// Effective number of parity groups.
    #[must_use]
    pub fn groups(&self) -> u32 {
        self.geo.groups()
    }

    /// Physical location of a data page (convenience passthrough).
    #[must_use]
    pub fn locate_data(&self, page: DataPageId) -> PhysLoc {
        self.geo.data_loc(page)
    }

    fn check_data(&self, page: DataPageId) -> Result<()> {
        if page.0 >= self.geo.data_pages() {
            return Err(ArrayError::BadDataPage(page));
        }
        Ok(())
    }

    /// Where twin `slot` of group `g` lives.
    fn parity_loc(&self, g: GroupId, slot: ParitySlot) -> Result<PhysLoc> {
        self.check_group(g)?;
        self.geo.parity_loc(g, slot).ok_or(ArrayError::NoTwinParity)
    }

    fn check_group(&self, g: GroupId) -> Result<()> {
        if g.0 >= self.geo.groups() {
            return Err(ArrayError::BadGroup(g));
        }
        Ok(())
    }

    fn disk(&self, id: DiskId) -> &D {
        &self.disks[usize::from(id.0)]
    }

    /// Durability barrier: block until every write the array has issued so
    /// far is on stable storage, on every disk. A no-op on the in-memory
    /// [`SimDisk`](crate::SimDisk) (its writes are stable), so simulated
    /// runs — including every checker schedule and exploration — are
    /// untouched; the file backend fsyncs each disk here. Not billed: the
    /// paper's cost model counts page transfers, and a barrier moves none.
    ///
    /// # Errors
    /// [`ArrayError::Backend`] when a disk's flush fails, or failed at an
    /// earlier barrier (the failure is sticky until the disk is replaced).
    pub fn write_barrier(&self) -> Result<()> {
        for d in &self.disks {
            d.barrier()?;
        }
        Ok(())
    }

    fn read_phys(&self, loc: PhysLoc) -> Result<Page> {
        let page = self.disk(loc.disk).read(loc.block)?;
        self.stats.record_on(IoKind::Read, loc.disk.0);
        self.tracer.record_io(|| EventKind::DiskRead {
            disk: loc.disk.0,
            block: loc.block,
        });
        Ok(page)
    }

    fn write_phys(&self, loc: PhysLoc, page: &Page) -> Result<()> {
        self.disk(loc.disk).write(loc.block, page)?;
        self.stats.record_on(IoKind::Write, loc.disk.0);
        self.tracer.record_io(|| EventKind::DiskWrite {
            disk: loc.disk.0,
            block: loc.block,
        });
        Ok(())
    }

    /// Billed read that XORs the block straight into `acc` instead of
    /// returning a fresh page — the allocation-free leg of parity
    /// recomputes and degraded reconstruction.
    fn read_phys_xor_into(&self, loc: PhysLoc, acc: &mut Page) -> Result<()> {
        self.disk(loc.disk).read_xor_into(loc.block, acc)?;
        self.stats.record_on(IoKind::Read, loc.disk.0);
        self.tracer.record_io(|| EventKind::DiskRead {
            disk: loc.disk.0,
            block: loc.block,
        });
        Ok(())
    }

    /// Billed read that copies the block into `dst`, header included,
    /// instead of returning a fresh page.
    fn read_phys_into(&self, loc: PhysLoc, dst: &mut Page) -> Result<()> {
        self.disk(loc.disk).read_into(loc.block, dst)?;
        self.stats.record_on(IoKind::Read, loc.disk.0);
        self.tracer.record_io(|| EventKind::DiskRead {
            disk: loc.disk.0,
            block: loc.block,
        });
        Ok(())
    }

    // ---- data-page I/O ---------------------------------------------------

    /// Read a data page (one transfer). Falls back to XOR reconstruction via
    /// parity slot `P0` when the direct read fails.
    ///
    /// # Errors
    /// [`ArrayError::BadDataPage`] for an out-of-range page;
    /// [`ArrayError::Unrecoverable`] when the direct read fails and the
    /// group cannot be reconstructed either.
    pub fn read_data(&self, page: DataPageId) -> Result<Page> {
        self.check_data(page)?;
        match self.read_phys(self.geo.data_loc(page)) {
            Ok(p) => Ok(p),
            Err(
                ArrayError::DiskFailed(_)
                | ArrayError::MediaError { .. }
                | ArrayError::TornPage { .. },
            ) => self.reconstruct_data(page, ParitySlot::P0),
            Err(e) => Err(e),
        }
    }

    /// Read a data page with **no** degraded fallback (one transfer or an
    /// error). Recovery managers use this to distinguish a clean read from
    /// a reconstruction.
    ///
    /// # Errors
    /// [`ArrayError::BadDataPage`] for an out-of-range page;
    /// [`ArrayError::DiskFailed`] / [`ArrayError::MediaError`] when the
    /// page's disk or sector is unreadable (no reconstruction is tried).
    pub fn try_read_data(&self, page: DataPageId) -> Result<Page> {
        self.check_data(page)?;
        self.read_phys(self.geo.data_loc(page))
    }

    /// [`DiskArray::try_read_data`] into a caller-supplied buffer: `buf` is
    /// overwritten with the page's image and header and no page is
    /// allocated. One billed transfer. The engine reads a buffer miss
    /// into its victim's frame this way, and scrubbers reuse one scratch
    /// page across a whole patrol pass.
    ///
    /// # Errors
    /// Same as [`DiskArray::try_read_data`].
    pub fn try_read_data_into(&self, page: DataPageId, buf: &mut Page) -> Result<()> {
        self.check_data(page)?;
        self.read_phys_into(self.geo.data_loc(page), buf)
    }

    /// Write a data page **without touching parity** (one transfer).
    ///
    /// This intentionally breaks the parity invariant; it exists for array
    /// initialization, rebuild internals, and tests. Normal mutation goes
    /// through [`DiskArray::small_write`]. The block stores
    /// [`Page::header`] with the image.
    ///
    /// # Errors
    /// [`ArrayError::BadDataPage`] for an out-of-range page;
    /// [`ArrayError::DiskFailed`] when the target disk is down.
    pub fn write_data_unprotected(&self, page: DataPageId, data: &Page) -> Result<()> {
        self.check_data(page)?;
        self.write_phys(self.geo.data_loc(page), data)
    }

    // ---- parity I/O ------------------------------------------------------

    /// Read a parity page and its header (one transfer).
    ///
    /// # Errors
    /// [`ArrayError::BadGroup`] for an out-of-range group;
    /// [`ArrayError::NoTwinParity`] when `slot` is `P1` on a single-parity
    /// layout; [`ArrayError::DiskFailed`] / [`ArrayError::MediaError`] when
    /// the parity block is unreadable.
    pub fn read_parity(&self, g: GroupId, slot: ParitySlot) -> Result<Page> {
        let loc = self.parity_loc(g, slot)?;
        self.read_phys(loc)
    }

    /// [`DiskArray::read_parity`] into a caller-supplied buffer: `dst` is
    /// overwritten with the parity image and header and no page is
    /// allocated. One billed transfer.
    ///
    /// # Errors
    /// Same as [`DiskArray::read_parity`].
    pub fn read_parity_into(&self, g: GroupId, slot: ParitySlot, dst: &mut Page) -> Result<()> {
        let loc = self.parity_loc(g, slot)?;
        self.read_phys_into(loc, dst)
    }

    /// Write a parity page (one transfer): its image and
    /// [`Page::header`], the twin's header, together.
    ///
    /// # Errors
    /// [`ArrayError::BadGroup`] for an out-of-range group;
    /// [`ArrayError::NoTwinParity`] when `slot` is `P1` on a single-parity
    /// layout; [`ArrayError::DiskFailed`] when the parity disk is down.
    pub fn write_parity(&self, g: GroupId, slot: ParitySlot, parity: &Page) -> Result<()> {
        let loc = self.parity_loc(g, slot)?;
        self.write_phys(loc, parity)
    }

    /// [`DiskArray::write_barrier`] on the one disk holding a parity page.
    ///
    /// # Errors
    /// As [`DiskArray::write_parity`] for the address;
    /// [`ArrayError::Backend`] when the disk's flush fails.
    pub fn barrier_parity(&self, g: GroupId, slot: ParitySlot) -> Result<()> {
        let loc = self.parity_loc(g, slot)?;
        self.disk(loc.disk).barrier()
    }

    // ---- unbilled diagnostic reads ----------------------------------------

    /// Read a data page **without billing a transfer** and without
    /// consulting the fault hook — for invariant auditors and test oracles
    /// only. A real system's scrubber pays for
    /// its reads; an auditor that perturbed the transfer counters would
    /// invalidate the very cost model it is checking.
    ///
    /// # Errors
    /// [`ArrayError::BadDataPage`] for an out-of-range page;
    /// [`ArrayError::DiskFailed`] / [`ArrayError::MediaError`] when the
    /// page's disk or sector is unreadable (no reconstruction is tried).
    pub fn peek_data(&self, page: DataPageId) -> Result<Page> {
        self.check_data(page)?;
        let loc = self.geo.data_loc(page);
        self.disk(loc.disk).peek(loc.block)
    }

    /// Read a parity page **without billing a transfer** — the parity-side
    /// counterpart of [`DiskArray::peek_data`].
    ///
    /// # Errors
    /// [`ArrayError::BadGroup`] for an out-of-range group;
    /// [`ArrayError::NoTwinParity`] when `slot` is `P1` on a single-parity
    /// layout; [`ArrayError::DiskFailed`] / [`ArrayError::MediaError`] when
    /// the parity block is unreadable.
    pub fn peek_parity(&self, g: GroupId, slot: ParitySlot) -> Result<Page> {
        let loc = self.parity_loc(g, slot)?;
        self.disk(loc.disk).peek(loc.block)
    }

    // ---- composite operations ---------------------------------------------

    /// The paper's small-write protocol (§3.1): read the old data (unless
    /// the caller already holds it, e.g. in the buffer pool), read the old
    /// parity, XOR old data and new data into it, then write data and
    /// parity back.
    ///
    /// Costs 3 transfers when `old_data` is supplied, 4 otherwise — exactly
    /// the model's `a ∈ {3, 4}`.
    ///
    /// The updated parity is written to `parity_slot`; on a twin array the
    /// other twin is untouched (that asymmetry is what the twin-page UNDO
    /// scheme exploits).
    ///
    /// Returns the new parity page so callers can chain further updates
    /// without re-reading.
    ///
    /// # Errors
    /// [`ArrayError::BadDataPage`] for an out-of-range page, plus any error
    /// of the underlying data/parity reads and writes ([`ArrayError::DiskFailed`],
    /// [`ArrayError::MediaError`], [`ArrayError::Unrecoverable`]).
    pub fn small_write(
        &self,
        page: DataPageId,
        new_data: &Page,
        old_data: Option<&Page>,
        parity_slot: ParitySlot,
    ) -> Result<Page> {
        self.check_data(page)?;
        let g = self.geo.group_of(page);
        // Borrow the caller's old image when supplied instead of cloning it;
        // the owned fallback only exists when we had to read the disk.
        let old_read;
        let old = match old_data {
            Some(p) => p,
            None => {
                old_read = self.try_read_data(page)?;
                &old_read
            }
        };
        let mut parity = self.read_parity(g, parity_slot)?;
        let header = parity.header();
        parity.xor_many_in_place(&[old, new_data]);
        parity.set_header(header);
        self.write_phys(self.geo.data_loc(page), new_data)?;
        self.write_parity(g, parity_slot, &parity)?;
        Ok(parity)
    }

    /// Write an entire parity group in one full-stripe operation: `n` data
    /// pages plus freshly computed parity into the given slots, each with
    /// its header. `n + k` transfers, no reads.
    ///
    /// # Errors
    /// Rejects a wrong-length `pages` slice via panic in debug builds and
    /// `BadGroup`-adjacent misuse via the usual range checks.
    pub fn full_group_write(
        &self,
        g: GroupId,
        pages: &[Page],
        slots: &[(ParitySlot, Header)],
    ) -> Result<()> {
        self.check_group(g)?;
        let members = self.geo.members(g);
        assert_eq!(
            pages.len(),
            members.len(),
            "full_group_write: expected {} pages",
            members.len()
        );
        let mut parity = self.blank_page();
        for (member, page) in members.iter().zip(pages) {
            self.write_phys(self.geo.data_loc(*member), page)?;
            parity.xor_in_place(page);
        }
        for &(slot, header) in slots {
            parity.set_header(header);
            self.write_parity(g, slot, &parity)?;
        }
        Ok(())
    }

    /// Reconstruct a data page by XORing the surviving group members with
    /// the parity page in `slot` (`n` transfers: `n − 1` sibling reads plus
    /// one parity read).
    ///
    /// # Errors
    /// [`ArrayError::Unrecoverable`] if a sibling or the parity page is
    /// also unreadable.
    pub fn reconstruct_data(&self, page: DataPageId, slot: ParitySlot) -> Result<Page> {
        self.check_data(page)?;
        let g = self.geo.group_of(page);
        let mut acc = self.blank_page();
        self.read_phys_xor_into(self.parity_loc(g, slot)?, &mut acc)
            .map_err(|_| ArrayError::Unrecoverable(g))?;
        for member in self.geo.members(g) {
            if member == page {
                continue;
            }
            self.read_phys_xor_into(self.geo.data_loc(member), &mut acc)
                .map_err(|_| ArrayError::Unrecoverable(g))?;
        }
        Ok(acc)
    }

    /// Recompute a group's parity from its data members (`n` reads) and
    /// return it. Does not write anything.
    ///
    /// # Errors
    /// [`ArrayError::BadGroup`] for an out-of-range group;
    /// [`ArrayError::Unrecoverable`] when any member read fails.
    pub fn compute_group_parity(&self, g: GroupId) -> Result<Page> {
        let mut acc = self.blank_page();
        self.compute_group_parity_into(g, &mut acc)?;
        Ok(acc)
    }

    /// [`DiskArray::compute_group_parity`] into a caller-supplied
    /// accumulator: `acc` is zeroed and the group's members are XORed in
    /// without any per-call allocation. Scrubbers sweeping every group
    /// reuse one scratch page across the whole pass.
    ///
    /// # Errors
    /// [`ArrayError::BadGroup`] for an out-of-range group;
    /// [`ArrayError::Unrecoverable`] when any member read fails.
    pub fn compute_group_parity_into(&self, g: GroupId, acc: &mut Page) -> Result<()> {
        self.check_group(g)?;
        acc.zero_fill();
        for member in self.geo.members(g) {
            self.read_phys_xor_into(self.geo.data_loc(member), acc)
                .map_err(|_| ArrayError::Unrecoverable(g))?;
        }
        Ok(())
    }

    /// Does the parity page in `slot` equal the XOR of the group's data
    /// pages? Used by tests and consistency checkers.
    ///
    /// # Errors
    /// Propagates the errors of [`DiskArray::read_parity`] and
    /// [`DiskArray::compute_group_parity`].
    pub fn group_parity_ok(&self, g: GroupId, slot: ParitySlot) -> Result<bool> {
        let actual = self.read_parity(g, slot)?;
        let expect = self.compute_group_parity(g)?;
        Ok(actual == expect)
    }

    // ---- failure injection & media recovery --------------------------------

    /// Fail a whole disk.
    pub fn fail_disk(&self, disk: DiskId) {
        // ordering: Relaxed — a tally read by the thread holding the
        // engine that owns this array.
        self.failed.fetch_add(1, Ordering::Relaxed);
        self.disk(disk).fail();
    }

    /// A tally of disk deaths, by [`DiskArray::fail_disk`] or a fault
    /// hook. It never falls, so a change means a new death. One atomic
    /// load: the engine asks at the end of every operation.
    #[must_use]
    pub fn deaths(&self) -> u64 {
        // ordering: Relaxed — see `fail_disk`.
        self.failed.load(Ordering::Relaxed)
    }

    /// Inject a latent sector error at a physical location.
    pub fn corrupt(&self, loc: PhysLoc) {
        self.disk(loc.disk).corrupt_block(loc.block);
    }

    /// Tear the page at a physical location, as if the last write to it
    /// lost power halfway (see [`BlockDevice::tear_block`]; each medium
    /// lays the tear down in
    /// [`Medium::write_torn_half`](crate::Medium::write_torn_half)).
    pub fn tear(&self, loc: PhysLoc) {
        self.disk(loc.disk).tear_block(loc.block);
    }

    /// Swap a failed disk for a factory-blank replacement *without*
    /// rebuilding its contents (field service installing new hardware).
    /// Follow with [`DiskArray::rebuild_disk`] — or, after a multi-disk
    /// disaster, an archive restore at a higher layer.
    pub fn replace_disk_blank(&self, disk: DiskId) {
        self.disk(disk).replace();
    }

    /// Is the disk currently failed?
    #[must_use]
    pub fn disk_failed(&self, disk: DiskId) -> bool {
        self.disk(disk).is_failed()
    }

    /// Replace a failed disk with a blank one and rebuild its contents from
    /// the surviving disks — the paper's media recovery (§1: redundant
    /// arrays deal with media failure without requiring operator
    /// intervention).
    ///
    /// `valid_slot` names, per group, the parity twin holding the *valid*
    /// (committed) parity — the recovery manager knows this from its
    /// `Current_Parity` bitmap. Lost data pages are reconstructed through
    /// that twin; lost parity pages are recomputed from the data members
    /// and written for **both** twins' block (each twin gets the recomputed
    /// committed parity, which is correct once losers have been undone),
    /// each with the header `twin_header` names for it.
    ///
    /// Returns the number of blocks rebuilt.
    ///
    /// # Errors
    /// [`ArrayError::Unrecoverable`] when a lost block's group has a second
    /// unavailable page, and any error of the parity/data writes that place
    /// rebuilt blocks on the replacement disk.
    pub fn rebuild_disk(
        &self,
        disk: DiskId,
        mut valid_slot: impl FnMut(GroupId) -> ParitySlot,
        mut twin_header: impl FnMut(GroupId, ParitySlot) -> Header,
    ) -> Result<u64> {
        self.disk(disk).replace();
        let mut rebuilt = 0;
        for block in 0..self.geo.blocks_per_disk() {
            let content = self.geo.locate_block(disk, block);
            let page = match content {
                BlockContent::Data(d) => {
                    let slot = valid_slot(self.geo.group_of(d));
                    self.reconstruct_data(d, slot)?
                }
                BlockContent::Parity(g, slot) => self
                    .compute_group_parity(g)?
                    .with_header(twin_header(g, slot)),
            };
            self.disk(disk).write(block, &page)?;
            self.stats.record_on(IoKind::Write, disk.0);
            self.tracer.record_io(|| EventKind::DiskWrite {
                disk: disk.0,
                block,
            });
            rebuilt += 1;
        }
        Ok(rebuilt)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Organization;

    fn array(org: Organization, twin: bool) -> DiskArray {
        DiskArray::new(ArrayConfig::new(org, 4, 6).twin(twin).page_size(64))
    }

    fn patterned(array: &DiskArray, seed: u8) -> Page {
        let mut p = array.blank_page();
        for (i, b) in p.as_mut().iter_mut().enumerate() {
            *b = seed.wrapping_add(i as u8);
        }
        p
    }

    #[test]
    fn fresh_array_parity_consistent() {
        let a = array(Organization::RotatedParity, false);
        for g in 0..a.groups() {
            assert!(a.group_parity_ok(GroupId(g), ParitySlot::P0).unwrap());
        }
    }

    #[test]
    fn small_write_updates_parity() {
        let a = array(Organization::RotatedParity, false);
        let d = DataPageId(5);
        let new = patterned(&a, 3);
        a.small_write(d, &new, None, ParitySlot::P0).unwrap();
        assert_eq!(a.read_data(d).unwrap(), new);
        let g = a.geometry().group_of(d);
        assert!(a.group_parity_ok(g, ParitySlot::P0).unwrap());
    }

    #[test]
    fn small_write_transfer_counts() {
        let a = array(Organization::RotatedParity, false);
        let new = patterned(&a, 1);
        let before = a.stats().snapshot();
        // Old data not supplied: 2 reads + 2 writes = 4 transfers (a = 4).
        a.small_write(DataPageId(0), &new, None, ParitySlot::P0)
            .unwrap();
        let mid = a.stats().snapshot();
        assert_eq!(mid.delta(&before).transfers(), 4);
        assert_eq!(mid.delta(&before).reads, 2);
        // Old data supplied: 1 read + 2 writes = 3 transfers (a = 3).
        let old = a.read_data(DataPageId(0)).unwrap();
        let before = a.stats().snapshot();
        let newer = patterned(&a, 9);
        a.small_write(DataPageId(0), &newer, Some(&old), ParitySlot::P0)
            .unwrap();
        let after = a.stats().snapshot();
        assert_eq!(after.delta(&before).transfers(), 3);
        assert_eq!(after.delta(&before).reads, 1);
    }

    #[test]
    fn degraded_read_reconstructs() {
        for org in [Organization::RotatedParity, Organization::ParityStriping] {
            let a = array(org, false);
            let d = DataPageId(7);
            let new = patterned(&a, 0x5A);
            a.small_write(d, &new, None, ParitySlot::P0).unwrap();
            a.fail_disk(a.locate_data(d).disk);
            assert_eq!(a.read_data(d).unwrap(), new, "org {org:?}");
        }
    }

    #[test]
    fn latent_error_triggers_reconstruction() {
        let a = array(Organization::RotatedParity, false);
        let d = DataPageId(9);
        let new = patterned(&a, 0x77);
        a.small_write(d, &new, None, ParitySlot::P0).unwrap();
        a.corrupt(a.locate_data(d));
        assert_eq!(a.read_data(d).unwrap(), new);
    }

    #[test]
    fn double_failure_is_unrecoverable() {
        let a = array(Organization::RotatedParity, false);
        let d = DataPageId(0);
        let g = a.geometry().group_of(d);
        let sibling = a.geometry().members(g)[1];
        a.fail_disk(a.locate_data(d).disk);
        a.fail_disk(a.locate_data(sibling).disk);
        assert_eq!(a.read_data(d).unwrap_err(), ArrayError::Unrecoverable(g));
    }

    #[test]
    fn twin_small_write_leaves_other_twin_stale() {
        let a = array(Organization::RotatedParity, true);
        let d = DataPageId(2);
        let g = a.geometry().group_of(d);
        let new = patterned(&a, 0x11);
        a.small_write(d, &new, None, ParitySlot::P1).unwrap();
        // P1 now matches the data; P0 is stale (still all-zero parity).
        assert!(a.group_parity_ok(g, ParitySlot::P1).unwrap());
        assert!(!a.group_parity_ok(g, ParitySlot::P0).unwrap());
        // Undo identity (paper Figure 6): D_old = (P ⊕ P') ⊕ D_new.
        let p0 = a.read_parity(g, ParitySlot::P0).unwrap();
        let p1 = a.read_parity(g, ParitySlot::P1).unwrap();
        let d_old = p0.xor(&p1).xor(&new);
        assert!(d_old.is_zeroed(), "original page was zeroed");
    }

    #[test]
    fn full_group_write_consistent() {
        let a = array(Organization::ParityStriping, true);
        let g = GroupId(3);
        let pages: Vec<Page> = (0..4).map(|i| patterned(&a, i as u8 * 17 + 1)).collect();
        let header = Header {
            ts: 9,
            ..Header::default()
        };
        let slots = [
            (ParitySlot::P0, header),
            (ParitySlot::P1, Header::default()),
        ];
        a.full_group_write(g, &pages, &slots).unwrap();
        assert_eq!(a.read_parity(g, ParitySlot::P0).unwrap().header(), header);
        assert!(a.group_parity_ok(g, ParitySlot::P0).unwrap());
        assert!(a.group_parity_ok(g, ParitySlot::P1).unwrap());
        for (m, p) in a.geometry().members(g).iter().zip(&pages) {
            assert_eq!(&a.read_data(*m).unwrap(), p);
        }
    }

    /// Fails the disk of the first I/O it sees.
    #[derive(Default)]
    struct KillFirst(std::sync::atomic::AtomicBool);

    impl crate::FaultHook for KillFirst {
        fn on_io(&self, _ev: &crate::IoEvent) -> Option<crate::FaultKind> {
            (!self.0.swap(true, Ordering::Relaxed)).then_some(crate::FaultKind::FailDisk)
        }
    }

    #[test]
    fn death_tally_never_falls_when_a_hook_is_replaced() {
        let a = array(Organization::RotatedParity, true);
        a.fail_disk(DiskId(0));
        a.install_fault_hook(Arc::new(KillFirst::default()));
        let _ = a.read_data(DataPageId(0));
        assert_eq!(a.deaths(), 2);
        a.install_fault_hook(Arc::new(KillFirst::default()));
        assert_eq!(a.deaths(), 2, "a replaced hook keeps its deaths");
        let _ = a.read_data(DataPageId(1));
        assert_eq!(a.deaths(), 3);
    }

    #[test]
    fn rebuild_restores_everything() {
        let a = array(Organization::RotatedParity, true);
        // Dirty a bunch of pages, keeping both twins committed-equal.
        for i in 0..a.data_pages() {
            let p = patterned(&a, (i % 251) as u8);
            a.small_write(DataPageId(i), &p, None, ParitySlot::P0)
                .unwrap();
            let parity = a
                .read_parity(a.geometry().group_of(DataPageId(i)), ParitySlot::P0)
                .unwrap();
            a.write_parity(
                a.geometry().group_of(DataPageId(i)),
                ParitySlot::P1,
                &parity,
            )
            .unwrap();
        }
        let victim = DiskId(2);
        a.fail_disk(victim);
        let rebuilt = a
            .rebuild_disk(victim, |_| ParitySlot::P0, |_, _| Header::default())
            .unwrap();
        assert_eq!(rebuilt, a.geometry().blocks_per_disk());
        for i in 0..a.data_pages() {
            let expect = patterned(&a, (i % 251) as u8);
            assert_eq!(a.try_read_data(DataPageId(i)).unwrap(), expect, "page {i}");
        }
        for g in 0..a.groups() {
            assert!(a.group_parity_ok(GroupId(g), ParitySlot::P0).unwrap());
            assert!(a.group_parity_ok(GroupId(g), ParitySlot::P1).unwrap());
        }
    }

    #[test]
    fn try_read_data_into_copies_image_and_header() {
        let a = array(Organization::RotatedParity, true);
        let d = DataPageId(3);
        let claim = Header {
            ts: 5,
            txn: 9,
            rider: 2,
            state: crate::TwinState::Working,
        };
        a.write_data_unprotected(d, &patterned(&a, 0x42).with_header(claim))
            .unwrap();
        let before = a.stats().snapshot();
        let mut buf = patterned(&a, 0x99);
        a.try_read_data_into(d, &mut buf).unwrap();
        let read = a.try_read_data(d).unwrap();
        assert_eq!((&buf, buf.header()), (&read, read.header()));
        assert_eq!(buf.header(), claim);
        assert_eq!(a.stats().snapshot().delta(&before).transfers(), 2);
        a.try_read_data_into(DataPageId(4), &mut buf).unwrap();
        assert!(buf.is_zeroed() && buf.header() == Header::default());
    }

    #[test]
    fn peek_reads_are_unbilled() {
        let a = array(Organization::RotatedParity, true);
        let d = DataPageId(3);
        let new = patterned(&a, 0x42);
        a.small_write(d, &new, None, ParitySlot::P0).unwrap();
        let before = a.stats().snapshot();
        assert_eq!(a.peek_data(d).unwrap(), new);
        let g = a.geometry().group_of(d);
        assert_eq!(
            a.peek_parity(g, ParitySlot::P0).unwrap(),
            a.read_parity(g, ParitySlot::P0).unwrap()
        );
        // One billed read_parity; the two peeks cost nothing.
        assert_eq!(a.stats().snapshot().delta(&before).transfers(), 1);
    }

    #[test]
    fn out_of_range_addresses_rejected() {
        let a = array(Organization::RotatedParity, false);
        let bad_page = DataPageId(a.data_pages());
        assert_eq!(
            a.read_data(bad_page).unwrap_err(),
            ArrayError::BadDataPage(bad_page)
        );
        let bad_group = GroupId(a.groups());
        assert_eq!(
            a.read_parity(bad_group, ParitySlot::P0).unwrap_err(),
            ArrayError::BadGroup(bad_group)
        );
    }

    #[test]
    fn p1_on_single_parity_array_rejected() {
        let a = array(Organization::RotatedParity, false);
        assert_eq!(
            a.read_parity(GroupId(0), ParitySlot::P1).unwrap_err(),
            ArrayError::NoTwinParity
        );
    }
}
