//! `rda-faults`: the deterministic fault model of the recovery stack.
//!
//! The paper's central claim (§4.3) is that twin-copy parity recovery
//! restores a transaction-consistent database from an arbitrary system
//! failure, using the redundant disk array itself as the UNDO log. A
//! claim like that is only as strong as the set of failure points it has
//! been tested against — so this crate makes failure points enumerable:
//!
//! * [`FaultPlan`] / [`FaultSpec`] — declarative plans naming what goes
//!   wrong (torn write, transient error, latent sector error, disk
//!   death, power loss) and when (the k-th global I/O, or a specific
//!   physical block);
//! * [`FaultInjector`] — a deterministic
//!   [`FaultHook`](rda_array::FaultHook) that evaluates a plan against
//!   the array's physical I/O stream and latches after a crash until the
//!   restart boundary.
//!
//! The one judge of what a fault did is `rda-check`: its `run_schedule`
//! plants one of these faults in a schedule, and its `explore` plants it
//! at every I/O in turn.
//!
//! Everything here is deterministic by construction: same workload, same
//! plan ⇒ same I/O sequence, same faults, same firing record.

mod injector;
mod plan;

pub use injector::{FaultInjector, FiredFault};
pub use plan::{FaultKind, FaultPlan, FaultSpec};
