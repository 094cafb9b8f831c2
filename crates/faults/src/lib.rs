//! `rda-faults`: deterministic fault injection and crashpoint
//! exploration for the recovery stack.
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
//!   restart boundary;
//! * [`explore`] — the crashpoint explorer: measures a workload trace's
//!   I/O count with a golden run, then replays it once per crashpoint
//!   (exhaustively under a bound, seeded-sampled above it), crashes,
//!   recovers, and verifies each survivor against the invariant auditor,
//!   the parity scrub, and an exact durability oracle;
//! * [`CrashpointReport`]'s [`ToJson`](rda_obs::json::ToJson) rendering —
//!   a flat JSON artifact for CI.
//!
//! Everything here is deterministic by construction: same config, same
//! trace, same seed ⇒ same I/O sequence, same crashpoints, same verdict.

mod explorer;
mod injector;
mod plan;

pub use explorer::{
    crashpoint_schedule, explore, value_byte, Crashpoint, CrashpointReport, ExploreMode,
    ExplorerConfig, WorkerTiming,
};
pub use injector::{FaultInjector, FiredFault};
pub use plan::{FaultKind, FaultPlan, FaultSpec};
