//! # rda-array — simulated redundant disk arrays
//!
//! This crate is the storage substrate for the RDA recovery system described
//! in *Database Recovery Using Redundant Disk Arrays* (Mourad, Fuchs, Saab;
//! ICDE 1992). It provides:
//!
//! * [`Drive`] — one disk: the fault gate (fault hook, whole-disk failure,
//!   latent sector errors, torn pages, sticky sync failures) over a
//!   [`Medium`] that only stores blocks. [`SimDisk`] is the in-memory
//!   medium; `rda-disk` supplies real files. The paper evaluates everything
//!   in *page transfer counts*, which the array bills above the device, so
//!   an accounting simulator preserves exactly the quantity it measures.
//! * [`Geometry`] — the two array organizations studied by the paper:
//!   RAID-5 style **data striping with rotated parity** (paper Figure 1) and
//!   Gray et al.'s **parity striping** (Figure 2), each in a single-parity
//!   variant and a **twin-parity** variant holding two parity pages per
//!   group on distinct disks (Figures 4 and 5). The twin variant is the
//!   substrate for the paper's twin-page UNDO scheme.
//! * [`DiskArray`] — the array itself: small reads, read-modify-write small
//!   writes, full-group writes, degraded reads (reconstruction via XOR),
//!   disk replacement and online rebuild, and parity verification helpers.
//! * [`FaultPlan`] / [`FaultInjector`] — the deterministic fault model. The
//!   paper's claim (§4.3) is that twin-copy parity restores a
//!   transaction-consistent database after an arbitrary system failure, and
//!   such a claim is only as strong as the failure points it was tested
//!   against, so they are enumerable: a plan names what goes wrong (a
//!   [`FaultKind`]) and when (the k-th global I/O, or a physical block),
//!   and the injector, a [`FaultHook`], fires it on the array's I/O stream
//!   and latches after a crash until the restart boundary. Same workload,
//!   same plan ⇒ same I/O sequence, same faults, same firing record; the
//!   judge of what a fault did is `rda-check`.
//!
//! The array deliberately knows nothing about transactions: deciding *which*
//! twin parity page to update, and when, is the job of `rda-core`. The array
//! only provides addressed page I/O plus the XOR machinery and the layout
//! guarantee that the members of a parity group live on pairwise-distinct
//! disks (so any single disk failure loses at most one page per group).
//!
//! ## Example
//!
//! ```
//! use rda_array::{ArrayConfig, DiskArray, Organization, Page};
//!
//! let cfg = ArrayConfig::new(Organization::RotatedParity, 4, 8)
//!     .twin(true)
//!     .page_size(512);
//! let array = DiskArray::new(cfg);
//!
//! // Write a data page; the read-modify-write updates parity slot 0.
//! let mut page = array.blank_page();
//! page.as_mut()[0] = 0xAB;
//! array.small_write(rda_array::DataPageId(3), &page, None, rda_array::ParitySlot::P0).unwrap();
//!
//! // Lose a disk and read the page back through reconstruction.
//! let loc = array.locate_data(rda_array::DataPageId(3));
//! array.fail_disk(loc.disk);
//! let recovered = array.read_data(rda_array::DataPageId(3)).unwrap();
//! assert_eq!(recovered.as_ref()[0], 0xAB);
//! ```

mod array;
mod config;
mod device;
mod disk;
mod error;
mod fault;
mod geometry;
mod injector;
mod page;
mod plan;
mod stats;
pub mod xor;

pub use array::DiskArray;
pub use config::{ArrayConfig, Organization};
pub use device::{sim_disks_for, BlockDevice, BlockImage, DefaultDisk, Drive, Medium};
pub use disk::SimDisk;
pub use error::ArrayError;
pub use fault::{FaultHook, FaultKind, FaultStats, HookState, IoEvent};
pub use geometry::{BlockContent, Geometry, PhysLoc};
pub use injector::{FaultInjector, FiredFault};
pub use page::{DataPageId, DiskId, GroupId, Header, Page, ParitySlot, TwinState};
pub use plan::{FaultPlan, FaultSpec};
pub use stats::{IoKind, IoStats, StatsSnapshot};

/// Convenient result alias for array operations.
pub type Result<T> = std::result::Result<T, ArrayError>;
