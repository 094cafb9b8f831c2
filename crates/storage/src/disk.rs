//! [`FileDisk`]: a real-file [`BlockDevice`] behind the same fault seam
//! as [`SimDisk`](rda_array::SimDisk).
//!
//! Every read and write consults the installed [`HookState`] first, so a
//! fault schedule's "k-th physical I/O" lands on the same operation it
//! would hit on the simulated backend. The fault-arm semantics mirror
//! `SimDisk` one for one; the differences are purely physical:
//!
//! * a transfer is one system call on the calling thread: a read is one
//!   `pread` of the block's slot, a write one `pwrite` of image and
//!   checksum together (see `crate::io`). When a write returns, the image
//!   is in the file, and a failure is returned to the call that issued
//!   it. Stable storage is the fsync's job (see [`DurabilityMode`]);
//! * torn pages live on the platter as a checksum mismatch rather than in
//!   a memory set, so they survive a process death;
//! * injected *latent* errors remain process-local test state (a real
//!   drive's rot is physical; an injected one dies with the injector).
//!
//! The file and its slot buffer live inside the disk's state lock, so one
//! disk's reads, writes, barriers and replacement are serial and a read
//! never sees the buffer another call is filling. (Above the device, every
//! array access already happens under the engine mutex.)

use crate::io::{BlockImage, DiskFiles};
use rda_array::{xor, ArrayError, BlockDevice, DiskId, FaultAction, HookState, Page};
use rda_obs::sync::Mutex;
use rda_obs::{monotonic_nanos, Counter, Histogram};
use std::collections::HashSet;
use std::io;
use std::path::Path;
use std::sync::MutexGuard;
use std::sync::{Arc, OnceLock};

/// When a disk's writes are pushed to stable storage.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum DurabilityMode {
    /// Fsync only at explicit [`BlockDevice::barrier`] points (commit,
    /// checkpoint, recovery finish) — the default, and the cheaper mode.
    /// A barrier fsyncs a disk only if its file was modified since the
    /// last successful fsync, so a commit pays for the disks it touched.
    #[default]
    FsyncOnBarrier,
    /// Fsync inside every write, approximating an O_DSYNC device. A
    /// barrier then has nothing left to sync.
    SyncEachWrite,
}

/// Per-disk traffic counters behind the `disk_*` metric views. Shared, so
/// the views keep reading after the disk has moved into the array.
#[derive(Default)]
pub(crate) struct DiskCounters {
    /// Writes issued to the file.
    pub(crate) writes: Counter,
    /// Durability barriers issued against this disk.
    pub(crate) barriers: Counter,
    /// Fsyncs performed, by a barrier or (`SyncEachWrite`) by a write.
    pub(crate) fsyncs: Counter,
    /// Times the disk was poisoned: a failed fsync, or a replacement
    /// that could not be blanked.
    pub(crate) sticky_errors: Counter,
    /// Wall time of each fsync, installed (once, at open time) by the
    /// metrics wiring; absent on a bare disk.
    pub(crate) fsync_nanos: OnceLock<Arc<Histogram>>,
}

struct DiskState {
    files: DiskFiles,
    failed: bool,
    bad_blocks: HashSet<u64>,
    /// Why the file can no longer be trusted: an fsync failed (the
    /// kernel may already have dropped the dirty pages, so a retry that
    /// succeeds proves nothing), or a replacement could not be blanked.
    /// Sticky until [`BlockDevice::replace`] succeeds.
    poisoned: Option<String>,
    /// The file may hold bytes no fsync has covered. Set by everything
    /// that modifies it, cleared only by a successful fsync; a barrier
    /// on a clean disk has nothing to make durable and issues none. A
    /// disk starts dirty: a file just created, or reopened after a kill
    /// with writes still in the page cache, has never been synced by
    /// this process.
    dirty: bool,
}

/// One file-backed disk of the array.
pub struct FileDisk {
    id: DiskId,
    mode: DurabilityMode,
    block_count: u64,
    page_size: usize,
    pub(crate) counters: Arc<DiskCounters>,
    state: Mutex<DiskState>,
    hook: Mutex<Option<HookState>>,
}

impl FileDisk {
    /// Create the backing file for a fresh disk.
    ///
    /// # Errors
    /// Any file-system error creating or sizing the backing file.
    pub fn create(
        dir: &Path,
        id: DiskId,
        block_count: u64,
        page_size: usize,
        mode: DurabilityMode,
    ) -> io::Result<FileDisk> {
        let files = DiskFiles::create(dir, id.0, block_count, page_size)?;
        Ok(FileDisk::over(files, id, block_count, page_size, mode))
    }

    /// Open a disk over a surviving file (geometry is validated against
    /// the file size).
    ///
    /// # Errors
    /// The file is missing or its size does not match the geometry.
    pub fn open(
        dir: &Path,
        id: DiskId,
        block_count: u64,
        page_size: usize,
        mode: DurabilityMode,
    ) -> io::Result<FileDisk> {
        let files = DiskFiles::open(dir, id.0, block_count, page_size)?;
        Ok(FileDisk::over(files, id, block_count, page_size, mode))
    }

    fn over(
        files: DiskFiles,
        id: DiskId,
        block_count: u64,
        page_size: usize,
        mode: DurabilityMode,
    ) -> FileDisk {
        FileDisk {
            id,
            mode,
            block_count,
            page_size,
            counters: Arc::default(),
            state: Mutex::new(DiskState {
                files,
                failed: false,
                bad_blocks: HashSet::new(),
                poisoned: None,
                dirty: true,
            }),
            hook: Mutex::new(None),
        }
    }

    fn consult_hook(&self, block: u64, is_write: bool) -> FaultAction {
        let guard = self.hook.lock();
        let Some(state) = guard.as_ref() else {
            return FaultAction::Proceed;
        };
        state.consult(self.id, block, is_write)
    }

    fn backend_err(&self, msg: String) -> ArrayError {
        ArrayError::Backend { disk: self.id, msg }
    }

    /// Record that the file can no longer be trusted and build the error
    /// every later read, write and barrier will repeat.
    fn poison(&self, state: &mut DiskState, msg: String) -> ArrayError {
        self.counters.sticky_errors.inc();
        state.poisoned = Some(msg.clone());
        self.backend_err(msg)
    }

    /// Fsync the file, timed. A failure poisons the disk: it must not
    /// be retried as if clean.
    fn sync(&self, state: &mut DiskState) -> rda_array::Result<()> {
        let start = monotonic_nanos();
        let synced = state.files.sync();
        self.counters.fsyncs.inc();
        if let Some(h) = self.counters.fsync_nanos.get() {
            h.observe(monotonic_nanos().saturating_sub(start));
        }
        match synced {
            Ok(()) => {
                state.dirty = false;
                Ok(())
            }
            Err(e) => Err(self.poison(state, format!("fsync failed: {e}"))),
        }
    }

    /// The shared read-side gate: fault hook (unless a peek), then failure
    /// states — the same order as `SimDisk::readable`. On success the caller reads the
    /// file under the returned guard.
    fn read_gate(&self, block: u64, hooked: bool) -> rda_array::Result<MutexGuard<'_, DiskState>> {
        debug_assert!(block < self.block_count, "block out of range");
        let action = if hooked {
            self.consult_hook(block, false)
        } else {
            FaultAction::Proceed
        };
        match action {
            FaultAction::Proceed => {}
            FaultAction::Transient => {
                return Err(ArrayError::Transient {
                    disk: self.id,
                    block,
                });
            }
            FaultAction::Latent => {
                self.state.lock().bad_blocks.insert(block);
            }
            FaultAction::FailDisk => {
                self.state.lock().failed = true;
            }
            FaultAction::TornWrite | FaultAction::Crash => return Err(ArrayError::Crashed),
        }
        let state = self.state.lock();
        if state.failed {
            return Err(ArrayError::DiskFailed(self.id));
        }
        if state.bad_blocks.contains(&block) {
            return Err(ArrayError::MediaError {
                disk: self.id,
                block,
            });
        }
        if let Some(msg) = &state.poisoned {
            return Err(self.backend_err(msg.clone()));
        }
        Ok(state)
    }

    /// The one read path: gate, one positioned read of the block's slot,
    /// checksum verification, then `take` sees the verified image where it
    /// landed. `take` does not run on a torn, failed or poisoned block.
    fn read_with<T>(
        &self,
        block: u64,
        hooked: bool,
        take: impl FnOnce(&[u8]) -> T,
    ) -> rda_array::Result<T> {
        let mut state = self.read_gate(block, hooked)?;
        match state.files.read_block(block) {
            Ok(BlockImage::Intact(image)) => Ok(take(image)),
            Ok(BlockImage::Torn) => Err(ArrayError::TornPage {
                disk: self.id,
                block,
            }),
            Err(e) => Err(self.backend_err(format!("read of block {block} failed: {e}"))),
        }
    }
}

impl BlockDevice for FileDisk {
    fn id(&self) -> DiskId {
        self.id
    }

    fn block_count(&self) -> u64 {
        self.block_count
    }

    fn set_fault_hook(&self, state: Option<HookState>) {
        *self.hook.lock() = state;
    }

    fn read(&self, block: u64) -> rda_array::Result<Page> {
        self.read_with(block, true, Page::from_bytes)
    }

    fn peek(&self, block: u64) -> rda_array::Result<Page> {
        self.read_with(block, false, Page::from_bytes)
    }

    fn read_xor_into(&self, block: u64, dst: &mut Page) -> rda_array::Result<()> {
        self.read_with(block, true, |image| xor::xor_in_place(dst.as_mut(), image))
    }

    fn write(&self, block: u64, page: &Page) -> rda_array::Result<()> {
        debug_assert!(block < self.block_count, "block out of range");
        if page.len() != self.page_size {
            return Err(ArrayError::PageSizeMismatch {
                expected: self.page_size,
                got: page.len(),
            });
        }
        let action = self.consult_hook(block, true);
        let mut state = self.state.lock();
        match action {
            FaultAction::Proceed | FaultAction::Latent => {}
            FaultAction::Transient => {
                return Err(ArrayError::Transient {
                    disk: self.id,
                    block,
                });
            }
            FaultAction::FailDisk => {
                state.failed = true;
            }
            FaultAction::TornWrite => {
                if state.failed {
                    return Err(ArrayError::DiskFailed(self.id));
                }
                // Make the tear physical: the half-new image lands
                // without its checksum. Best-effort — the machine is
                // losing power.
                state.dirty = true;
                let _ = state.files.write_torn_half(block, Some(page.as_ref()));
                return Err(ArrayError::Crashed);
            }
            FaultAction::Crash => return Err(ArrayError::Crashed),
        }
        if state.failed {
            return Err(ArrayError::DiskFailed(self.id));
        }
        if let Some(msg) = &state.poisoned {
            return Err(self.backend_err(msg.clone()));
        }
        self.counters.writes.inc();
        state.dirty = true;
        state
            .files
            .write_block(block, page.as_ref())
            .map_err(|e| self.backend_err(format!("write of block {block} failed: {e}")))?;
        // The landed write refreshed the checksum, healing any torn
        // image; an injected latent error rots the block *after* the
        // write appears to succeed, like SimDisk.
        state.bad_blocks.remove(&block);
        if action == FaultAction::Latent {
            state.bad_blocks.insert(block);
        }
        if self.mode == DurabilityMode::SyncEachWrite {
            self.sync(&mut state)?;
        }
        Ok(())
    }

    fn fail(&self) {
        self.state.lock().failed = true;
    }

    fn is_failed(&self) -> bool {
        self.state.lock().failed
    }

    fn corrupt_block(&self, block: u64) {
        debug_assert!(block < self.block_count);
        self.state.lock().bad_blocks.insert(block);
    }

    fn tear_block(&self, block: u64) {
        debug_assert!(block < self.block_count);
        let mut state = self.state.lock();
        state.dirty = true;
        let _ = state.files.write_torn_half(block, None);
    }

    fn replace(&self) {
        let mut state = self.state.lock();
        state.dirty = true;
        match state.files.reset_zero() {
            Ok(()) => {
                state.failed = false;
                state.bad_blocks.clear();
                state.poisoned = None;
            }
            // A replacement that could not be blanked still holds the dead
            // drive's blocks: it must not be rebuilt over or served.
            Err(e) => {
                state.failed = true;
                let _ = self.poison(&mut state, format!("replacement not blanked: {e}"));
            }
        }
    }

    fn barrier(&self) -> rda_array::Result<()> {
        self.counters.barriers.inc();
        let mut state = self.state.lock();
        if let Some(msg) = &state.poisoned {
            return Err(self.backend_err(msg.clone()));
        }
        if self.mode == DurabilityMode::FsyncOnBarrier && state.dirty {
            self.sync(&mut state)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::io::FailOn;
    use std::path::PathBuf;

    fn tmpdir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("rda-disk-dev-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn disk(dir: &Path) -> FileDisk {
        FileDisk::create(dir, DiskId(0), 16, 32, DurabilityMode::FsyncOnBarrier).unwrap()
    }

    fn backend_msg(err: ArrayError) -> String {
        match err {
            ArrayError::Backend { msg, .. } => msg,
            other => panic!("expected a backend error, got {other:?}"),
        }
    }

    #[test]
    fn write_read_roundtrip_and_zero_default() {
        let dir = tmpdir("roundtrip");
        let d = disk(&dir);
        assert!(d.read(5).unwrap().is_zeroed());
        let p = Page::from_bytes(&[7u8; 32]);
        d.write(3, &p).unwrap();
        assert_eq!(d.read(3).unwrap(), p, "a returned write is in the files");
        BlockDevice::barrier(&d).unwrap();
        assert_eq!(d.read(3).unwrap(), p);
        let mut acc = Page::from_bytes(&[7u8; 32]);
        d.read_xor_into(3, &mut acc).unwrap();
        assert!(acc.is_zeroed(), "read_xor_into reads the same image");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn read_xor_into_equals_read_then_xor() {
        const PAGE: usize = 2020;
        let dir = tmpdir("xor-into");
        let d =
            FileDisk::create(&dir, DiskId(0), 100, PAGE, DurabilityMode::FsyncOnBarrier).unwrap();
        let mut images = crate::io::images(0xACC0, PAGE);
        let mut image = || Page::from_bytes(&images());
        let mut acc = image();
        let mut expect = acc.clone();
        for block in 0..100 {
            d.write(block, &image()).unwrap();
            d.read_xor_into(block, &mut acc).unwrap();
            expect.xor_in_place(&d.read(block).unwrap());
            assert_eq!(acc, expect, "block {block}");
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn read_xor_into_leaves_dst_untouched_on_a_refused_block() {
        let dir = tmpdir("xor-into-torn");
        let d = disk(&dir);
        d.write(1, &Page::from_bytes(&[0x5A; 32])).unwrap();
        let before = Page::from_bytes(&[0xC3; 32]);
        let mut acc = before.clone();
        d.tear_block(1);
        assert!(matches!(
            d.read_xor_into(1, &mut acc),
            Err(ArrayError::TornPage { .. })
        ));
        assert_eq!(acc, before, "torn");
        d.write(1, &Page::from_bytes(&[0x5A; 32])).unwrap();
        d.corrupt_block(1);
        assert!(matches!(
            d.read_xor_into(1, &mut acc),
            Err(ArrayError::MediaError { .. })
        ));
        assert_eq!(acc, before, "latent");
        d.state.lock().files.fail_on = Some(FailOn::Sync);
        assert!(BlockDevice::barrier(&d).is_err());
        backend_msg(d.read_xor_into(2, &mut acc).unwrap_err());
        assert_eq!(acc, before, "poisoned");
        d.fail();
        assert!(matches!(
            d.read_xor_into(1, &mut acc),
            Err(ArrayError::DiskFailed(_))
        ));
        assert_eq!(acc, before, "failed");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn contents_survive_reopen() {
        let dir = tmpdir("reopen");
        let d = disk(&dir);
        d.write(2, &Page::from_bytes(&[0xCD; 32])).unwrap();
        BlockDevice::barrier(&d).unwrap();
        drop(d);
        let d = FileDisk::open(&dir, DiskId(0), 16, 32, DurabilityMode::FsyncOnBarrier).unwrap();
        assert_eq!(d.read(2).unwrap().as_ref()[0], 0xCD);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn failure_modes_mirror_sim_disk() {
        let dir = tmpdir("faults");
        let d = disk(&dir);
        d.write(1, &Page::from_bytes(&[1u8; 32])).unwrap();
        d.corrupt_block(1);
        assert!(matches!(d.read(1), Err(ArrayError::MediaError { .. })));
        d.write(1, &Page::from_bytes(&[2u8; 32])).unwrap();
        assert_eq!(d.read(1).unwrap().as_ref()[0], 2, "rewrite heals latent");
        d.tear_block(1);
        assert!(matches!(d.read(1), Err(ArrayError::TornPage { .. })));
        d.write(1, &Page::from_bytes(&[3u8; 32])).unwrap();
        assert_eq!(d.read(1).unwrap().as_ref()[0], 3, "rewrite heals tear");
        d.fail();
        assert!(matches!(d.read(1), Err(ArrayError::DiskFailed(_))));
        d.replace();
        assert!(d.read(1).unwrap().is_zeroed(), "replacement is blank");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn torn_block_survives_reopen() {
        let dir = tmpdir("torn-durable");
        let d = disk(&dir);
        d.write(4, &Page::from_bytes(&[6u8; 32])).unwrap();
        BlockDevice::barrier(&d).unwrap();
        d.tear_block(4);
        drop(d);
        let d = FileDisk::open(&dir, DiskId(0), 16, 32, DurabilityMode::FsyncOnBarrier).unwrap();
        assert!(
            matches!(d.read(4), Err(ArrayError::TornPage { .. })),
            "the tear is physical, not process state"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn wrong_page_size_rejected() {
        let dir = tmpdir("size");
        let d = disk(&dir);
        assert_eq!(
            d.write(0, &Page::zeroed(16)).unwrap_err(),
            ArrayError::PageSizeMismatch {
                expected: 32,
                got: 16
            }
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn one_barrier_fsync_covers_many_writes() {
        let dir = tmpdir("barrier-batch");
        let d = disk(&dir);
        for block in 0..8 {
            d.write(block, &Page::from_bytes(&[block as u8 + 1; 32]))
                .unwrap();
        }
        BlockDevice::barrier(&d).unwrap();
        assert_eq!(d.counters.writes.get(), 8);
        assert_eq!(d.counters.barriers.get(), 1);
        assert_eq!(d.counters.fsyncs.get(), 1, "eight writes, one platter sync");
        assert_eq!(d.counters.sticky_errors.get(), 0);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn barrier_fsyncs_only_a_disk_modified_since_the_last_fsync() {
        let dir = tmpdir("barrier-clean");
        let d = disk(&dir);
        let fsyncs_after_barrier = || {
            BlockDevice::barrier(&d).unwrap();
            d.counters.fsyncs.get()
        };
        assert_eq!(fsyncs_after_barrier(), 1, "fresh files were never synced");
        assert_eq!(fsyncs_after_barrier(), 1, "clean: nothing to make durable");
        assert_eq!(d.counters.barriers.get(), 2, "the barrier is still counted");
        let page = Page::from_bytes(&[7u8; 32]);
        d.write(3, &page).unwrap();
        assert_eq!(fsyncs_after_barrier(), 2, "a write dirties");
        assert_eq!(d.read(3).unwrap(), page);
        assert_eq!(fsyncs_after_barrier(), 2, "a read does not");
        d.tear_block(3);
        assert_eq!(fsyncs_after_barrier(), 3, "an injected tear dirties");
        let plan = rda_faults::FaultPlan::torn_write_at(1);
        let injector = Arc::new(rda_faults::FaultInjector::new(plan));
        d.set_fault_hook(Some(HookState::new(injector)));
        assert_eq!(d.write(4, &page), Err(ArrayError::Crashed));
        d.set_fault_hook(None);
        assert_eq!(fsyncs_after_barrier(), 4, "a torn write dirties");
        d.replace();
        assert_eq!(fsyncs_after_barrier(), 5, "a blanked replacement dirties");
        assert_eq!(fsyncs_after_barrier(), 5);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn sync_each_write_mode_syncs_in_the_write() {
        let dir = tmpdir("dsync");
        let d = FileDisk::create(&dir, DiskId(0), 16, 32, DurabilityMode::SyncEachWrite).unwrap();
        d.write(0, &Page::from_bytes(&[9u8; 32])).unwrap();
        assert_eq!(d.counters.fsyncs.get(), 1, "the write itself synced");
        BlockDevice::barrier(&d).unwrap();
        assert_eq!(d.counters.barriers.get(), 1);
        assert_eq!(d.counters.fsyncs.get(), 1, "the barrier had nothing left");
        assert_eq!(d.read(0).unwrap().as_ref()[0], 9);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn failed_write_is_returned_to_its_caller_and_spares_other_blocks() {
        let dir = tmpdir("pwrite-fails");
        let d = disk(&dir);
        d.write(5, &Page::from_bytes(&[1u8; 32])).unwrap();
        d.state.lock().files.fail_on = Some(FailOn::Write(5));
        let msg = backend_msg(d.write(5, &Page::from_bytes(&[2u8; 32])).unwrap_err());
        assert!(msg.contains("write of block 5 failed"), "{msg}");
        // Not sticky: the disk keeps serving, the refused block included.
        d.write(6, &Page::from_bytes(&[3u8; 32])).unwrap();
        assert_eq!(d.read(6).unwrap().as_ref()[0], 3);
        assert_eq!(d.read(5).unwrap().as_ref()[0], 1, "old image intact");
        BlockDevice::barrier(&d).unwrap();
        d.state.lock().files.fail_on = None;
        d.write(5, &Page::from_bytes(&[2u8; 32])).unwrap();
        assert_eq!(d.counters.sticky_errors.get(), 0);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn failed_fsync_poisons_the_disk_until_replaced() {
        let dir = tmpdir("fsync-fails");
        let d = disk(&dir);
        d.write(1, &Page::from_bytes(&[1u8; 32])).unwrap();
        d.state.lock().files.fail_on = Some(FailOn::Sync);
        let first = backend_msg(BlockDevice::barrier(&d).unwrap_err());
        assert!(first.contains("fsync failed"), "{first}");
        // The device recovers; the disk must not retry as if clean.
        d.state.lock().files.fail_on = None;
        assert_eq!(backend_msg(BlockDevice::barrier(&d).unwrap_err()), first);
        let page = Page::from_bytes(&[2u8; 32]);
        assert_eq!(backend_msg(d.write(2, &page).unwrap_err()), first);
        assert_eq!(backend_msg(d.read(1).unwrap_err()), first);
        assert_eq!(d.counters.sticky_errors.get(), 1, "poisoned once");
        assert_eq!(d.counters.fsyncs.get(), 1, "no fsync after the failed one");
        d.replace();
        d.write(2, &page).unwrap();
        BlockDevice::barrier(&d).unwrap();
        assert!(d.read(1).unwrap().is_zeroed(), "replacement is blank");
        assert_eq!(d.read(2).unwrap(), page);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn replacement_that_cannot_be_blanked_stays_failed() {
        let dir = tmpdir("reset-fails");
        let d = disk(&dir);
        d.write(1, &Page::from_bytes(&[1u8; 32])).unwrap();
        d.fail();
        d.state.lock().files.fail_on = Some(FailOn::Reset);
        d.replace();
        assert!(d.is_failed(), "stale blocks must not be served");
        assert!(matches!(d.read(1), Err(ArrayError::DiskFailed(_))));
        assert_eq!(d.counters.sticky_errors.get(), 1);
        d.state.lock().files.fail_on = None;
        d.replace();
        assert!(!d.is_failed());
        assert!(d.read(1).unwrap().is_zeroed());
        BlockDevice::barrier(&d).unwrap();
        let _ = std::fs::remove_dir_all(&dir);
    }
}
