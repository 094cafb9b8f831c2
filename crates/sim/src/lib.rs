//! # rda-sim — synthetic OLTP workloads against the real engine
//!
//! The paper evaluates RDA recovery with an analytical model (§5). This
//! crate closes the loop: it generates Reuter-style synthetic workloads —
//! `P` logically concurrent transactions, each accessing `s` pages with
//! update probability `p_u`, a fraction `f_u` of transactions updating,
//! aborts with probability `p_b` — runs them through the **actual**
//! `rda-core` engine over the simulated array, and measures real page
//! transfers, which can then be compared against the model's `c_t`
//! prediction at the *measured* communality.
//!
//! [`run`] drives every measurement against a `ShardedDb` (one shard for
//! an unsharded run); [`compare_engines`] runs one script set through
//! both engines and [`Trace`] replays a saved one.
//!
//! Locality (and therefore communality `C`) is induced with a hot-set
//! reference model: a fraction of accesses go to a buffer-sized hot set.
//! The empirical hit ratio is reported alongside the transfer counts so
//! model and simulation are compared at the same operating point.

mod compare;
mod runner;
mod trace;
mod workload;

pub use compare::{compare_engines, model_vs_sim, Comparison, ModelCheck};
pub use runner::{run, run_spec, RunConfig, RunResult};
pub use trace::Trace;
pub use workload::{Access, AccessKind, TxnScript, WorkloadSpec};
