//! The block-device seam: [`BlockDevice`] is the surface [`DiskArray`]
//! needs from one disk, extracted from [`SimDisk`] so a file-backed
//! backend (`rda-disk`) can slot in underneath the same parity protocol.
//!
//! The trait deliberately mirrors `SimDisk`'s inherent API one-for-one:
//! addressed page I/O, the two injectable failure modes (whole-disk
//! failure and latent sector errors), torn-page injection, blank
//! replacement, and the [`FaultHook`](crate::FaultHook) seam. Billing is
//! *not* part of the trait — the transfer ledger lives in
//! [`DiskArray`](crate::DiskArray), which bills every physical access it
//! makes regardless of backend, so the paper's cost model cannot drift
//! between backends.
//!
//! [`BlockDevice::barrier`] is the one genuinely new operation: a
//! durability point for backends whose returned writes are not yet on
//! stable storage (the file backend's sit in the page cache). `SimDisk`
//! keeps the default no-op, which is what keeps the checker and the
//! crashpoint explorer byte-identical on the simulated backend.

use crate::fault::HookState;
use crate::{DiskId, Page, Result, SimDisk};

/// One disk of a redundant array, as seen by [`DiskArray`](crate::DiskArray).
///
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
    /// [`ArrayError::DiskFailed`](crate::ArrayError::DiskFailed),
    /// [`ArrayError::MediaError`](crate::ArrayError::MediaError),
    /// [`ArrayError::TornPage`](crate::ArrayError::TornPage), or a hook
    /// verdict ([`ArrayError::Transient`](crate::ArrayError::Transient) /
    /// [`ArrayError::Crashed`](crate::ArrayError::Crashed)).
    fn read(&self, block: u64) -> Result<Page>;

    /// Read a block and XOR it into `dst` without allocating.
    ///
    /// # Errors
    /// Same as [`BlockDevice::read`].
    fn read_xor_into(&self, block: u64, dst: &mut Page) -> Result<()>;

    /// Write a block, healing any latent or torn state on it.
    ///
    /// # Errors
    /// [`ArrayError::DiskFailed`](crate::ArrayError::DiskFailed),
    /// [`ArrayError::PageSizeMismatch`](crate::ArrayError::PageSizeMismatch),
    /// or a hook verdict.
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
    /// stable storage. The default is a no-op, which is exact for
    /// [`SimDisk`] (its writes are synchronous) and keeps simulated runs
    /// byte-identical; the file backend fsyncs here.
    ///
    /// # Errors
    /// A backend flush failure, now or (sticky) at an earlier barrier
    /// ([`ArrayError::Backend`](crate::ArrayError::Backend)).
    fn barrier(&self) -> Result<()> {
        Ok(())
    }
}

/// The backend a bare `DiskArray` / `Database` resolves to: the
/// deterministic in-memory [`SimDisk`]. Generic code above `rda-array`
/// names this alias instead of the concrete type, keeping the raw disk
/// type confined to this crate.
pub type DefaultDisk = SimDisk;

/// Build the simulated disk set for `cfg` — one zeroed [`SimDisk`] per
/// configured drive, in array order. This is the constructor generic
/// open paths use when no real backend is supplied.
#[must_use]
pub fn sim_disks_for(cfg: &crate::ArrayConfig) -> Vec<SimDisk> {
    let geo = crate::Geometry::new(cfg);
    (0..geo.disks())
        .map(|d| SimDisk::new(DiskId(d), geo.blocks_per_disk(), cfg.page_size))
        .collect()
}

impl BlockDevice for SimDisk {
    fn id(&self) -> DiskId {
        SimDisk::id(self)
    }

    fn block_count(&self) -> u64 {
        SimDisk::block_count(self)
    }

    fn set_fault_hook(&self, state: Option<HookState>) {
        SimDisk::set_fault_hook(self, state);
    }

    fn read(&self, block: u64) -> Result<Page> {
        SimDisk::read(self, block)
    }

    fn read_xor_into(&self, block: u64, dst: &mut Page) -> Result<()> {
        SimDisk::read_xor_into(self, block, dst)
    }

    fn write(&self, block: u64, page: &Page) -> Result<()> {
        SimDisk::write(self, block, page)
    }

    fn fail(&self) {
        SimDisk::fail(self);
    }

    fn is_failed(&self) -> bool {
        SimDisk::is_failed(self)
    }

    fn corrupt_block(&self, block: u64) {
        SimDisk::corrupt_block(self, block);
    }

    fn tear_block(&self, block: u64) {
        SimDisk::tear_block(self, block);
    }

    fn replace(&self) {
        SimDisk::replace(self);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sim_disk_is_a_block_device() {
        fn takes_device<D: BlockDevice>(d: &D) -> u64 {
            d.block_count()
        }
        let d = SimDisk::new(DiskId(0), 8, 32);
        assert_eq!(takes_device(&d), 8);
        // The default barrier is a no-op success.
        assert!(BlockDevice::barrier(&d).is_ok());
    }

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
        }
    }
}
