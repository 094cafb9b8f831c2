//! The block-device seam. [`BlockDevice`] is what
//! [`DiskArray`](crate::DiskArray) needs from one disk, and [`Drive`] its
//! one implementation: the fault gate over a [`Medium`] that supplies only
//! the blocks ([`SimDisk`] in memory, `rda-disk`'s slot files on a file
//! system). The paper's restart and media-recovery arguments rest on one
//! failure model — whole-disk failure, latent sector errors and torn pages
//! (§4.2–4.3) — so the gate holds it once: the hook's verdicts, the failed
//! flag and latent blocks, the page-size check, the sticky poison and the
//! barrier's dirty rule. A new fault arm or a volatile write cache goes
//! here and holds on both media.
//!
//! Billing is not part of the device: the array bills every physical
//! access it makes, whatever the backend, so the paper's cost model cannot
//! drift between backends.

use crate::fault::{FaultAction, HookState};
use crate::{ArrayError, DiskId, Header, Page, Result, SimDisk};
use rda_obs::sync::Mutex;
use std::collections::HashSet;
use std::io;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::MutexGuard;

/// One disk of a redundant array, as seen by [`DiskArray`](crate::DiskArray).
/// Implementations must be internally synchronized (`&self` methods,
/// callable from many threads) and must consult an installed
/// [`HookState`] on every read and write so fault schedules replay
/// identically on every backend.
pub trait BlockDevice: Send + Sync + 'static {
    /// This disk's identifier within the array.
    fn id(&self) -> DiskId;

    /// Number of addressable blocks.
    fn block_count(&self) -> u64;

    /// Install (or clear) the fault hook consulted on every I/O.
    fn set_fault_hook(&self, state: Option<HookState>);

    /// Read a block (zero-filled if never written).
    ///
    /// # Errors
    /// [`ArrayError::DiskFailed`], [`ArrayError::MediaError`],
    /// [`ArrayError::TornPage`], [`ArrayError::Backend`], or a hook verdict
    /// ([`ArrayError::Transient`] / [`ArrayError::Crashed`]).
    fn read(&self, block: u64) -> Result<Page>;

    /// [`BlockDevice::read`] into `dst`: its image and header become the
    /// block's, with the same hook consultation and the same errors. A
    /// device that can copy the block into `dst` without building a page
    /// overrides the default, which reads a fresh page and moves it in.
    ///
    /// # Errors
    /// Same as [`BlockDevice::read`]; `dst` is unspecified after an error.
    fn read_into(&self, block: u64, dst: &mut Page) -> Result<()> {
        *dst = self.read(block)?;
        Ok(())
    }

    /// Read a block without consulting the fault hook — the unbilled,
    /// unhooked view invariant auditors read through, so that auditing
    /// never moves a planted fault. Failure states still refuse it. The
    /// default is [`BlockDevice::read`], which is right only for a device
    /// that consults no hook: one that does overrides it, and a wrapper
    /// must forward `peek` to the device it wraps (its `read` would reach
    /// that device's hook, and be timed or billed as a real read).
    ///
    /// # Errors
    /// As [`BlockDevice::read`], minus the hook's verdicts.
    fn peek(&self, block: u64) -> Result<Page> {
        self.read(block)
    }

    /// Read a block and XOR it into `dst` without allocating.
    ///
    /// # Errors
    /// Same as [`BlockDevice::read`].
    fn read_xor_into(&self, block: u64, dst: &mut Page) -> Result<()>;

    /// Write a block, healing any latent or torn state on it.
    ///
    /// # Errors
    /// [`ArrayError::DiskFailed`], [`ArrayError::PageSizeMismatch`],
    /// [`ArrayError::Backend`], or a hook verdict.
    fn write(&self, block: u64, page: &Page) -> Result<()>;

    /// Mark the whole disk failed until [`BlockDevice::replace`].
    fn fail(&self);

    /// Has this disk failed?
    fn is_failed(&self) -> bool;

    /// Inject a latent sector error on one block.
    fn corrupt_block(&self, block: u64);

    /// Tear one block, as if its last write lost power halfway.
    fn tear_block(&self, block: u64);

    /// Swap in a factory-blank (zeroed) replacement drive.
    fn replace(&self);

    /// Durability barrier: block until every write accepted so far is on
    /// stable storage. The default is a no-op, right for a device whose
    /// writes are stable when they return.
    ///
    /// # Errors
    /// [`ArrayError::Backend`]: a flush failed, now or (sticky) earlier.
    fn barrier(&self) -> Result<()> {
        Ok(())
    }
}

/// What a block read found on a [`Medium`].
pub enum BlockImage<'a> {
    /// The block's image and header, borrowed until the medium's next call.
    Intact(&'a [u8], Header),
    /// Never written since the medium was made or blanked: all zeroes
    /// under the zero header.
    Blank,
    /// A write to the block lost power halfway, and the tear shows.
    Torn,
}

/// The blocks under a [`Drive`]: all a backend supplies. The drive calls
/// these under its lock, after its gate has admitted the transfer, so a
/// medium keeps no fault or failure state.
pub trait Medium: Send + 'static {
    /// Writes are on stable storage when they return, so a barrier has
    /// nothing to do and takes no lock.
    const STABLE: bool = false;

    /// Read one block.
    ///
    /// # Errors
    /// The medium could not be read: [`ArrayError::Backend`] for this read.
    fn read_block(&mut self, block: u64) -> io::Result<BlockImage<'_>>;

    /// Write one block's image and header, healing a tear on it.
    ///
    /// # Errors
    /// The write failed: [`ArrayError::Backend`] for this write.
    fn write_block(&mut self, block: u64, image: &[u8], header: Header) -> io::Result<()>;

    /// Tear one block so it reads back [`BlockImage::Torn`] until
    /// rewritten. `Some(new)`: a write of `new` lost power halfway, and
    /// the first half of the image is `new`'s. `None`: the first half is
    /// scrambled in place (direct tear injection).
    ///
    /// # Errors
    /// The tear did not land; the drive ignores it (power is failing).
    fn write_torn_half(&mut self, block: u64, new: Option<&[u8]>) -> io::Result<()>;

    /// Blank every block: a factory-fresh replacement.
    ///
    /// # Errors
    /// The medium could not be blanked: the disk stays failed and poisoned.
    fn reset_zero(&mut self) -> io::Result<()>;

    /// Put every write so far on stable storage.
    ///
    /// # Errors
    /// The writes may not be stable; the drive poisons the disk.
    fn sync(&mut self) -> io::Result<()>;
}

/// One disk: the fault gate over a [`Medium`].
pub struct Drive<M> {
    id: DiskId,
    block_count: u64,
    page_size: usize,
    state: Mutex<State<M>>,
    hook: Mutex<Option<HookState>>,
    /// Has the disk failed? Written only under the `state` lock, so the
    /// gate sees it change in order with the medium; read without it by
    /// [`BlockDevice::is_failed`], which the engine asks per steal for
    /// every disk of a group.
    failed: AtomicBool,
}

struct State<M> {
    medium: M,
    /// Latent sector errors, injected or planted by the hook: process
    /// state on every medium (an injected rot dies with the injector).
    bad_blocks: HashSet<u64>,
    /// Why the medium can no longer be trusted: a sync failed (the kernel
    /// may already have dropped the dirty pages, so a retry that succeeds
    /// proves nothing), or a replacement could not be blanked. Sticky
    /// until [`BlockDevice::replace`] succeeds.
    poisoned: Option<String>,
    /// The medium may hold writes no sync has covered: set by every change
    /// to it, cleared only by a successful sync. A drive starts dirty (a
    /// file just created or reopened after a kill was never synced here).
    dirty: bool,
}

impl<M: Medium> Drive<M> {
    /// A disk of `block_count` blocks of `page_size` bytes over `medium`.
    #[must_use]
    pub fn new(id: DiskId, block_count: u64, page_size: usize, medium: M) -> Drive<M> {
        Drive {
            id,
            block_count,
            page_size,
            state: Mutex::new(State {
                medium,
                bad_blocks: HashSet::new(),
                poisoned: None,
                dirty: true,
            }),
            hook: Mutex::new(None),
            failed: AtomicBool::new(false),
        }
    }

    /// Set the failed flag. Takes the state guard to prove the caller
    /// holds the lock every write of the flag is made under.
    fn set_failed(&self, _state: &mut State<M>, failed: bool) {
        // ordering: Release — pairs with the Acquire in `is_failed`; the
        // flag is written under the state lock, read with or without it.
        self.failed.store(failed, Ordering::Release);
    }

    /// Run `f` on the medium under the drive's lock: how a backend's tests
    /// plant a failure of the medium itself.
    pub fn with_medium<R>(&self, f: impl FnOnce(&mut M) -> R) -> R {
        f(&mut self.state.lock().medium)
    }

    fn page_of(&self, found: Option<(&[u8], Header)>) -> Page {
        match found {
            Some((image, header)) => Page::from_bytes(image).with_header(header),
            None => Page::zeroed(self.page_size),
        }
    }

    /// Out of line: building the message is off the path of every
    /// transfer that succeeds.
    #[cold]
    fn failed_io(&self, op: &str, block: u64, e: &io::Error) -> ArrayError {
        self.backend(format!("{op} of block {block} failed: {e}"))
    }

    fn backend(&self, msg: String) -> ArrayError {
        ArrayError::Backend { disk: self.id, msg }
    }

    /// The gate every transfer passes: offer it to the hook (unless a
    /// peek), apply the verdict, refuse what the disk's state refuses. On
    /// success the transfer (`write`: the page to store) runs under the guard.
    fn admit(
        &self,
        block: u64,
        hooked: bool,
        write: Option<&Page>,
    ) -> Result<(MutexGuard<'_, State<M>>, FaultAction)> {
        debug_assert!(block < self.block_count, "block out of range");
        let action = match hooked.then(|| self.hook.lock()).as_deref() {
            Some(Some(hook)) => hook.consult(self.id, block, write.is_some()),
            _ => FaultAction::Proceed,
        };
        let mut state = self.state.lock();
        match (action, write) {
            (FaultAction::Transient, _) => {
                return Err(ArrayError::Transient {
                    disk: self.id,
                    block,
                });
            }
            (FaultAction::FailDisk, _) => self.set_failed(&mut state, true),
            // The sector was already rotting; this read discovers it.
            (FaultAction::Latent, None) => {
                state.bad_blocks.insert(block);
            }
            (FaultAction::TornWrite, Some(page)) if !self.is_failed() => {
                // Power died mid-write: the first half reached the medium
                // and the tear shows there until the block is rewritten; it
                // replaces any rot, so the block reads back torn. Best
                // effort — the machine is losing power.
                state.dirty = true;
                let _ = state.medium.write_torn_half(block, Some(page.as_ref()));
                state.bad_blocks.remove(&block);
                return Err(ArrayError::Crashed);
            }
            // Power loss: a read cannot tear anything, so both crash
            // flavours refuse the I/O without touching the medium.
            (FaultAction::TornWrite, None) | (FaultAction::Crash, _) => {
                return Err(ArrayError::Crashed);
            }
            // A latent write lands first and rots after; a dead disk tears
            // nothing and is refused below.
            (FaultAction::Proceed | FaultAction::Latent | FaultAction::TornWrite, _) => {}
        }
        if self.is_failed() {
            return Err(ArrayError::DiskFailed(self.id));
        }
        if write.is_none() && state.bad_blocks.contains(&block) {
            return Err(ArrayError::MediaError {
                disk: self.id,
                block,
            });
        }
        if let Some(msg) = &state.poisoned {
            return Err(self.backend(msg.clone()));
        }
        Ok((state, action))
    }

    /// The one read path: gate, one read from the medium, then `take` sees
    /// the image where it lies (`None`: blank), unless refused or torn.
    fn read_with<T>(
        &self,
        block: u64,
        hooked: bool,
        take: impl FnOnce(Option<(&[u8], Header)>) -> T,
    ) -> Result<T> {
        let (mut state, _) = self.admit(block, hooked, None)?;
        match state.medium.read_block(block) {
            Ok(BlockImage::Intact(image, header)) => Ok(take(Some((image, header)))),
            Ok(BlockImage::Blank) => Ok(take(None)),
            Ok(BlockImage::Torn) => Err(ArrayError::TornPage {
                disk: self.id,
                block,
            }),
            Err(e) => Err(self.failed_io("read", block, &e)),
        }
    }
}

impl<M: Medium> BlockDevice for Drive<M> {
    fn id(&self) -> DiskId {
        self.id
    }

    fn block_count(&self) -> u64 {
        self.block_count
    }

    fn set_fault_hook(&self, state: Option<HookState>) {
        *self.hook.lock() = state;
    }

    fn read(&self, block: u64) -> Result<Page> {
        self.read_with(block, true, |found| self.page_of(found))
    }

    fn peek(&self, block: u64) -> Result<Page> {
        self.read_with(block, false, |found| self.page_of(found))
    }

    fn read_into(&self, block: u64, dst: &mut Page) -> Result<()> {
        self.read_with(block, true, |found| match found {
            Some((image, header)) if image.len() == dst.len() => {
                dst.as_mut().copy_from_slice(image);
                dst.set_header(header);
            }
            None if dst.len() == self.page_size => dst.zero_fill(),
            found => *dst = self.page_of(found),
        })
    }

    fn read_xor_into(&self, block: u64, dst: &mut Page) -> Result<()> {
        self.read_with(block, true, |found| {
            if let Some((image, _)) = found {
                crate::xor::xor_in_place(dst.as_mut(), image);
            }
            dst.set_header(Header::default());
        })
    }

    fn write(&self, block: u64, page: &Page) -> Result<()> {
        if page.len() != self.page_size {
            return Err(ArrayError::PageSizeMismatch {
                expected: self.page_size,
                got: page.len(),
            });
        }
        let (mut state, action) = self.admit(block, true, Some(page))?;
        state.dirty = true;
        state
            .medium
            .write_block(block, page.as_ref(), page.header())
            .map_err(|e| self.failed_io("write", block, &e))?;
        // The landed write remapped a rotten sector, as real drives do; a
        // planted latent error rots it after the write appears to succeed.
        if action == FaultAction::Latent {
            state.bad_blocks.insert(block);
        } else {
            state.bad_blocks.remove(&block);
        }
        Ok(())
    }

    fn fail(&self) {
        let mut state = self.state.lock();
        self.set_failed(&mut state, true);
    }

    fn is_failed(&self) -> bool {
        // ordering: Acquire — pairs with the Release in `set_failed`.
        self.failed.load(Ordering::Acquire)
    }

    fn corrupt_block(&self, block: u64) {
        debug_assert!(block < self.block_count);
        self.state.lock().bad_blocks.insert(block);
    }

    fn tear_block(&self, block: u64) {
        debug_assert!(block < self.block_count);
        let mut state = self.state.lock();
        state.dirty = true;
        let _ = state.medium.write_torn_half(block, None);
    }

    fn replace(&self) {
        let mut state = self.state.lock();
        state.dirty = true;
        match state.medium.reset_zero() {
            Ok(()) => {
                self.set_failed(&mut state, false);
                state.bad_blocks.clear();
                state.poisoned = None;
            }
            // A replacement that could not be blanked still holds the dead
            // drive's blocks: it must not be rebuilt over or served.
            Err(e) => {
                self.set_failed(&mut state, true);
                state.poisoned = Some(format!("replacement not blanked: {e}"));
            }
        }
    }

    fn barrier(&self) -> Result<()> {
        if M::STABLE {
            return Ok(());
        }
        let mut state = self.state.lock();
        if let Some(msg) = &state.poisoned {
            return Err(self.backend(msg.clone()));
        }
        if state.dirty {
            if let Err(e) = state.medium.sync() {
                let msg = format!("fsync failed: {e}");
                state.poisoned = Some(msg.clone());
                return Err(self.backend(msg));
            }
            state.dirty = false;
        }
        Ok(())
    }
}

/// The backend a bare `DiskArray` / `Database` resolves to. Generic code
/// above `rda-array` names this alias, keeping the concrete types confined
/// to this crate.
pub type DefaultDisk = Drive<SimDisk>;

/// The simulated disk set for `cfg`: one blank in-memory disk per drive,
/// in array order, for open paths given no real backend.
#[must_use]
pub fn sim_disks_for(cfg: &crate::ArrayConfig) -> Vec<DefaultDisk> {
    let geo = crate::Geometry::new(cfg);
    (0..geo.disks())
        .map(|d| {
            let medium = SimDisk::new(cfg.page_size);
            Drive::new(DiskId(d), geo.blocks_per_disk(), cfg.page_size, medium)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sim_disks_for_matches_geometry() {
        let cfg = crate::ArrayConfig::new(crate::Organization::RotatedParity, 4, 6)
            .twin(true)
            .page_size(64);
        let disks = sim_disks_for(&cfg);
        let geo = crate::Geometry::new(&cfg);
        assert_eq!(disks.len(), usize::from(geo.disks()));
        for (i, d) in disks.iter().enumerate() {
            assert_eq!(d.id(), DiskId(i as u16));
            assert_eq!(d.block_count(), geo.blocks_per_disk());
            // An in-memory disk is stable storage: its barrier is a no-op.
            assert!(d.barrier().is_ok());
        }
    }
}
