//! The analysis passes. Each pass is a pure function from the
//! [`Workspace`](super::callgraph::Workspace) index (plus the
//! `analyze.conf` declarations) to a list of
//! [`Finding`](super::findings::Finding)s; the driver owns baselining,
//! ordering, and the exit status.

pub mod atomics;
pub mod lock_order;
