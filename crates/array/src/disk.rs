//! Simulated block devices.
//!
//! A [`SimDisk`] stores its blocks in memory and supports the two failure
//! modes the paper's recovery story must survive:
//!
//! * **whole-disk failure** (the media-failure case motivating redundant
//!   arrays: "a media failure ... when the storage subsystem ... is quite
//!   high [cost]"), and
//! * **latent sector errors** — individual unreadable blocks, which force
//!   the array into its degraded (reconstruct-by-XOR) read path.
//!
//! Blocks are allocated lazily: untouched blocks read back as zeroes, like
//! a freshly formatted device.

use crate::fault::{FaultAction, HookState};
use crate::{ArrayError, DiskId, Page};
use rda_obs::sync::Mutex;
use std::collections::{HashMap, HashSet};

struct DiskInner {
    blocks: HashMap<u64, Page>,
    bad_blocks: HashSet<u64>,
    torn_blocks: HashSet<u64>,
    failed: bool,
}

/// An in-memory simulated disk.
pub struct SimDisk {
    id: DiskId,
    block_count: u64,
    page_size: usize,
    inner: Mutex<DiskInner>,
    hook: Mutex<Option<HookState>>,
}

impl SimDisk {
    /// Create a zero-filled disk with `block_count` blocks of `page_size`
    /// bytes.
    #[must_use]
    pub fn new(id: DiskId, block_count: u64, page_size: usize) -> SimDisk {
        SimDisk {
            id,
            block_count,
            page_size,
            inner: Mutex::new(DiskInner {
                blocks: HashMap::new(),
                bad_blocks: HashSet::new(),
                torn_blocks: HashSet::new(),
                failed: false,
            }),
            hook: Mutex::new(None),
        }
    }

    /// Install (or clear) this disk's fault hook. Normally reached through
    /// [`DiskArray::install_fault_hook`](crate::DiskArray::install_fault_hook),
    /// which shares one hook and one [`crate::FaultStats`] across all disks.
    pub fn set_fault_hook(&self, state: Option<HookState>) {
        *self.hook.lock() = state;
    }

    /// Ask the installed hook (if any) what to do with one I/O, and record
    /// a non-`Proceed` answer in the shared fault counters.
    fn consult_hook(&self, block: u64, is_write: bool) -> FaultAction {
        let guard = self.hook.lock();
        let Some(state) = guard.as_ref() else {
            return FaultAction::Proceed;
        };
        state.consult(self.id, block, is_write)
    }

    /// This disk's identifier.
    #[must_use]
    pub fn id(&self) -> DiskId {
        self.id
    }

    /// Number of blocks.
    #[must_use]
    pub fn block_count(&self) -> u64 {
        self.block_count
    }

    /// Read a block. Zero-filled if never written.
    ///
    /// An installed [`FaultHook`] is consulted first and may turn this read
    /// into a transient error, a latent sector error, a whole-disk failure
    /// or a crash refusal.
    ///
    /// # Errors
    /// [`ArrayError::DiskFailed`] if the disk has failed;
    /// [`ArrayError::MediaError`] if the block has a latent sector error;
    /// [`ArrayError::TornPage`] if the block holds a half-written image;
    /// [`ArrayError::Transient`] / [`ArrayError::Crashed`] when ordered by
    /// the fault hook.
    pub fn read(&self, block: u64) -> crate::Result<Page> {
        self.read_image(block, true)
    }

    /// Read a block without offering it to the fault hook: the auditor's
    /// unbilled peek, which must not advance a planted fault's I/O clock.
    /// The disk's own failure states still refuse it.
    ///
    /// # Errors
    /// As [`SimDisk::read`], minus the hook's verdicts.
    pub fn peek(&self, block: u64) -> crate::Result<Page> {
        self.read_image(block, false)
    }

    fn read_image(&self, block: u64, hooked: bool) -> crate::Result<Page> {
        let inner = self.readable(block, hooked)?;
        Ok(inner
            .blocks
            .get(&block)
            .cloned()
            .unwrap_or_else(|| Page::zeroed(self.page_size)))
    }

    /// Read a block and XOR its contents into `dst` without allocating.
    ///
    /// Behaves exactly like [`SimDisk::read`] (fault hook, failure modes,
    /// billing is the caller's concern) except the page image is folded
    /// straight into the caller's accumulator — a never-written block is
    /// all zeroes, so it contributes nothing. This is the hot loop of
    /// parity recomputes and degraded-mode reconstruction.
    ///
    /// # Errors
    /// Same as [`SimDisk::read`].
    pub fn read_xor_into(&self, block: u64, dst: &mut Page) -> crate::Result<()> {
        let inner = self.readable(block, true)?;
        if let Some(page) = inner.blocks.get(&block) {
            dst.xor_in_place(page);
        }
        Ok(())
    }

    /// Shared read-side gate: consult the fault hook (when `hooked`), then
    /// check the failure states that make the block unreadable. On success
    /// the caller gets the locked inner state to pull the image from.
    fn readable(
        &self,
        block: u64,
        hooked: bool,
    ) -> crate::Result<std::sync::MutexGuard<'_, DiskInner>> {
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
                // The sector was already rotting; this read discovers it.
                self.inner.lock().bad_blocks.insert(block);
            }
            FaultAction::FailDisk => {
                self.inner.lock().failed = true;
            }
            // Power loss: a read cannot tear anything, so both crash
            // flavours refuse the I/O without touching the platter.
            FaultAction::TornWrite | FaultAction::Crash => return Err(ArrayError::Crashed),
        }
        let inner = self.inner.lock();
        if inner.failed {
            return Err(ArrayError::DiskFailed(self.id));
        }
        if inner.bad_blocks.contains(&block) {
            return Err(ArrayError::MediaError {
                disk: self.id,
                block,
            });
        }
        if inner.torn_blocks.contains(&block) {
            return Err(ArrayError::TornPage {
                disk: self.id,
                block,
            });
        }
        Ok(inner)
    }

    /// Write a block.
    ///
    /// Writing a block clears any latent sector error on it (a rewrite
    /// remaps the sector, as real drives do) and heals a torn image.
    ///
    /// An installed [`FaultHook`] is consulted first and may turn this
    /// write into a torn write (half-new/half-old image left behind), a
    /// transient error, a latent sector error, a whole-disk failure or a
    /// crash refusal.
    ///
    /// # Errors
    /// [`ArrayError::DiskFailed`] if the disk has failed;
    /// [`ArrayError::PageSizeMismatch`] on a wrong-size buffer;
    /// [`ArrayError::Transient`] / [`ArrayError::Crashed`] when ordered by
    /// the fault hook.
    pub fn write(&self, block: u64, page: &Page) -> crate::Result<()> {
        debug_assert!(block < self.block_count, "block out of range");
        if page.len() != self.page_size {
            return Err(ArrayError::PageSizeMismatch {
                expected: self.page_size,
                got: page.len(),
            });
        }
        let action = self.consult_hook(block, true);
        let mut inner = self.inner.lock();
        match action {
            FaultAction::Proceed | FaultAction::Latent => {}
            FaultAction::Transient => {
                return Err(ArrayError::Transient {
                    disk: self.id,
                    block,
                });
            }
            FaultAction::FailDisk => {
                inner.failed = true;
            }
            FaultAction::TornWrite => {
                if inner.failed {
                    return Err(ArrayError::DiskFailed(self.id));
                }
                // Power died mid-write: the first half of the sectors made
                // it to the platter, the rest still hold the old image. The
                // mismatched per-sector headers make the tear detectable,
                // modelled as the block entering the torn set.
                let mut torn = inner
                    .blocks
                    .get(&block)
                    .cloned()
                    .unwrap_or_else(|| Page::zeroed(self.page_size));
                let half = self.page_size / 2;
                torn.as_mut()[..half].copy_from_slice(&page.as_ref()[..half]);
                inner.blocks.insert(block, torn);
                inner.bad_blocks.remove(&block);
                inner.torn_blocks.insert(block);
                return Err(ArrayError::Crashed);
            }
            FaultAction::Crash => return Err(ArrayError::Crashed),
        }
        if inner.failed {
            return Err(ArrayError::DiskFailed(self.id));
        }
        inner.bad_blocks.remove(&block);
        inner.torn_blocks.remove(&block);
        inner.blocks.insert(block, page.clone());
        if action == FaultAction::Latent {
            // The write "succeeded" as far as the host can tell, but the
            // sector is silently rotting underneath it.
            inner.bad_blocks.insert(block);
        }
        Ok(())
    }

    /// Mark the whole disk failed. All subsequent I/O errors out until
    /// [`SimDisk::replace`] is called.
    pub fn fail(&self) {
        self.inner.lock().failed = true;
    }

    /// Has this disk failed?
    #[must_use]
    pub fn is_failed(&self) -> bool {
        self.inner.lock().failed
    }

    /// Inject a latent sector error on one block.
    pub fn corrupt_block(&self, block: u64) {
        debug_assert!(block < self.block_count);
        self.inner.lock().bad_blocks.insert(block);
    }

    /// Directly tear one block, as if a previous write to it lost power
    /// halfway: the stored image has its first half scrambled and the
    /// block reads back as [`ArrayError::TornPage`] until rewritten.
    pub fn tear_block(&self, block: u64) {
        debug_assert!(block < self.block_count);
        let mut inner = self.inner.lock();
        let mut page = inner
            .blocks
            .get(&block)
            .cloned()
            .unwrap_or_else(|| Page::zeroed(self.page_size));
        let half = self.page_size / 2;
        for b in &mut page.as_mut()[..half] {
            *b ^= 0xA5;
        }
        inner.blocks.insert(block, page);
        inner.torn_blocks.insert(block);
    }

    /// Replace the failed drive with a factory-fresh (zeroed) one.
    ///
    /// The caller (the array's rebuild logic) is responsible for
    /// reconstructing the contents from the surviving disks.
    pub fn replace(&self) {
        let mut inner = self.inner.lock();
        inner.failed = false;
        inner.blocks.clear();
        inner.bad_blocks.clear();
        inner.torn_blocks.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault::{FaultHook, FaultStats, IoEvent};
    use std::sync::Arc;

    fn disk() -> SimDisk {
        SimDisk::new(DiskId(0), 16, 32)
    }

    #[test]
    fn unwritten_blocks_read_zero() {
        let d = disk();
        assert!(d.read(5).unwrap().is_zeroed());
    }

    #[test]
    fn write_read_roundtrip() {
        let d = disk();
        let p = Page::from_bytes(&[7u8; 32]);
        d.write(3, &p).unwrap();
        assert_eq!(d.read(3).unwrap(), p);
        // Other blocks untouched.
        assert!(d.read(4).unwrap().is_zeroed());
    }

    #[test]
    fn read_xor_into_matches_read() {
        let d = disk();
        let p = Page::from_bytes(&[0x3Cu8; 32]);
        d.write(2, &p).unwrap();
        let mut acc = Page::from_bytes(&[0xFFu8; 32]);
        d.read_xor_into(2, &mut acc).unwrap();
        assert_eq!(acc, Page::from_bytes(&[0xFFu8; 32]).xor(&p));
        // Never-written blocks contribute nothing.
        let mut acc2 = p.clone();
        d.read_xor_into(9, &mut acc2).unwrap();
        assert_eq!(acc2, p);
        // Failure modes surface identically.
        d.corrupt_block(2);
        assert!(matches!(
            d.read_xor_into(2, &mut acc),
            Err(ArrayError::MediaError { block: 2, .. })
        ));
    }

    #[test]
    fn failed_disk_errors() {
        let d = disk();
        d.fail();
        assert!(d.is_failed());
        assert_eq!(d.read(0).unwrap_err(), ArrayError::DiskFailed(DiskId(0)));
        let p = Page::zeroed(32);
        assert_eq!(
            d.write(0, &p).unwrap_err(),
            ArrayError::DiskFailed(DiskId(0))
        );
    }

    #[test]
    fn replace_gives_fresh_disk() {
        let d = disk();
        d.write(1, &Page::from_bytes(&[1u8; 32])).unwrap();
        d.fail();
        d.replace();
        assert!(!d.is_failed());
        assert!(d.read(1).unwrap().is_zeroed(), "replacement must be blank");
    }

    #[test]
    fn latent_error_and_rewrite_heals() {
        let d = disk();
        d.write(2, &Page::from_bytes(&[9u8; 32])).unwrap();
        d.corrupt_block(2);
        assert!(matches!(
            d.read(2),
            Err(ArrayError::MediaError { block: 2, .. })
        ));
        // Other blocks still readable.
        assert!(d.read(1).is_ok());
        // Rewriting heals the sector.
        d.write(2, &Page::from_bytes(&[4u8; 32])).unwrap();
        assert_eq!(d.read(2).unwrap().as_ref()[0], 4);
    }

    #[test]
    fn tear_then_rewrite_heals() {
        let d = disk();
        d.write(3, &Page::from_bytes(&[6u8; 32])).unwrap();
        d.tear_block(3);
        assert!(matches!(
            d.read(3),
            Err(ArrayError::TornPage { block: 3, .. })
        ));
        d.write(3, &Page::from_bytes(&[8u8; 32])).unwrap();
        assert_eq!(d.read(3).unwrap().as_ref()[0], 8);
    }

    /// A scripted hook: fires one action at one global I/O index, then
    /// latches `Crash` forever if that action was a crash flavour.
    struct ScriptHook {
        fire_at: u64,
        action: FaultAction,
        count: AtomicU64,
        crashed: std::sync::atomic::AtomicBool,
    }

    use std::sync::atomic::{AtomicU64, Ordering};

    impl ScriptHook {
        fn new(fire_at: u64, action: FaultAction) -> Arc<ScriptHook> {
            Arc::new(ScriptHook {
                fire_at,
                action,
                count: AtomicU64::new(0),
                crashed: std::sync::atomic::AtomicBool::new(false),
            })
        }
    }

    impl FaultHook for ScriptHook {
        fn on_io(&self, _ev: &IoEvent) -> FaultAction {
            if self.crashed.load(Ordering::SeqCst) {
                return FaultAction::Crash;
            }
            let k = self.count.fetch_add(1, Ordering::SeqCst) + 1;
            if k == self.fire_at {
                if matches!(self.action, FaultAction::Crash | FaultAction::TornWrite) {
                    self.crashed.store(true, Ordering::SeqCst);
                }
                self.action
            } else {
                FaultAction::Proceed
            }
        }

        fn power_cycled(&self) {
            self.crashed.store(false, Ordering::SeqCst);
        }
    }

    fn hooked(hook: Arc<ScriptHook>) -> (SimDisk, Arc<FaultStats>) {
        let d = disk();
        let stats = Arc::new(FaultStats::new());
        d.set_fault_hook(Some(HookState {
            hook,
            stats: Arc::clone(&stats),
        }));
        (d, stats)
    }

    #[test]
    fn hook_torn_write_leaves_half_image_and_latches() {
        let hook = ScriptHook::new(2, FaultAction::TornWrite);
        let (d, stats) = hooked(Arc::clone(&hook));
        d.write(0, &Page::from_bytes(&[1u8; 32])).unwrap();
        // I/O #2: the write tears and power is lost.
        assert_eq!(
            d.write(0, &Page::from_bytes(&[2u8; 32])).unwrap_err(),
            ArrayError::Crashed
        );
        assert_eq!(stats.torn_writes(), 1);
        // Latched: even a read of another block is refused.
        assert_eq!(d.read(5).unwrap_err(), ArrayError::Crashed);
        // Restart releases the latch; the torn block is detectable.
        hook.power_cycled();
        assert!(matches!(d.read(0), Err(ArrayError::TornPage { .. })));
        // The surviving halves: first half new, second half old.
        d.write(0, &Page::from_bytes(&[3u8; 32])).unwrap();
        assert_eq!(d.read(0).unwrap().as_ref()[0], 3);
    }

    #[test]
    fn hook_transient_error_is_retryable() {
        let (d, stats) = hooked(ScriptHook::new(1, FaultAction::Transient));
        let p = Page::from_bytes(&[7u8; 32]);
        assert!(matches!(d.write(4, &p), Err(ArrayError::Transient { .. })));
        // Nothing stuck to the disk, and the retry goes through.
        d.write(4, &p).unwrap();
        assert_eq!(d.read(4).unwrap(), p);
        assert_eq!(stats.transient_errors(), 1);
    }

    #[test]
    fn hook_latent_write_succeeds_but_rots() {
        let (d, stats) = hooked(ScriptHook::new(1, FaultAction::Latent));
        d.write(6, &Page::from_bytes(&[9u8; 32])).unwrap();
        assert!(matches!(d.read(6), Err(ArrayError::MediaError { .. })));
        assert_eq!(stats.latent_errors(), 1);
        // A rewrite remaps the sector.
        d.write(6, &Page::from_bytes(&[1u8; 32])).unwrap();
        assert!(d.read(6).is_ok());
    }

    #[test]
    fn hook_fail_disk_takes_whole_drive_down() {
        let (d, stats) = hooked(ScriptHook::new(2, FaultAction::FailDisk));
        d.write(0, &Page::from_bytes(&[1u8; 32])).unwrap();
        assert!(matches!(d.read(0), Err(ArrayError::DiskFailed(_))));
        assert!(d.is_failed());
        assert_eq!(stats.disk_failures(), 1);
    }

    #[test]
    fn wrong_page_size_rejected() {
        let d = disk();
        let err = d.write(0, &Page::zeroed(16)).unwrap_err();
        assert_eq!(
            err,
            ArrayError::PageSizeMismatch {
                expected: 32,
                got: 16
            }
        );
    }
}
