//! # rda-buffer — database buffer manager
//!
//! The buffer substrate assumed by the paper's model (§5: a buffer of `B`
//! frames; the probability a requested page is found in the buffer is the
//! *communality* `C`; replaced modified pages are written back with cost
//! `a`; a **STEAL** policy "allows pages modified by uncommitted
//! transactions to be propagated to the database before EOT").
//!
//! The pool enforces policy and leaves the I/O to its caller, who drives
//! it in steps: `touch` (a hit or a miss), `pop_victim` when no frame is
//! free, `insert` of the fetched page, read into the victim's buffer.
//! `peek` lends a resident frame and `update_resident` lends it for a
//! write in place, so an access copies a page at most once. A dirty
//! victim comes back as an [`Evicted`] frame whose write-back the caller
//! performs — in `rda-core` the recovery manager, which decides whether a
//! steal needs UNDO logging or can ride on the dirty parity group, and
//! `restore`s the frame if the write fails. This is exactly the paper's hook: "We only specify when a
//! modified page can be written back to disk without UNDO logging."
//! [`BufferPool::read`] composes the same steps around a `fetch` and a
//! `steal` closure for callers without engine state.
//!
//! Replacement is a second-chance clock. The paper does not depend on a
//! particular policy ("buffer management algorithms are not supposed to
//! replace a page that will be referenced again in the near future" —
//! footnote 3); ¬STEAL (`BufferConfig::steal == false`) makes frames with
//! uncommitted modifiers ineligible.

mod pool;

pub use pool::{BufferConfig, BufferError, BufferPool, BufferStats, Evicted, PoolCounters};
