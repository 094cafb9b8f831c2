//! Synthetic OLTP workloads against the real engine.
//!
//! The paper evaluates RDA recovery with an analytical model (§5). This
//! module closes the loop: it generates Reuter-style synthetic workloads —
//! `P` logically concurrent transactions, each accessing `s` pages with
//! update probability `p_u`, a fraction `f_u` of transactions updating,
//! aborts with probability `p_b` — runs them through the **actual**
//! `rda-core` engine over the simulated array, and measures real page
//! transfers, which can then be compared against the model's `c_t`
//! prediction at the *measured* communality.
//!
//! [`run`] drives every measurement against one `Database` at any shard
//! count; [`compare_engines`] runs one script set through
//! both engines.
//!
//! Locality (and therefore communality `C`) is induced with a hot-set
//! reference model: a fraction of accesses go to a buffer-sized hot set.
//! The empirical hit ratio is reported alongside the transfer counts so
//! model and simulation are compared at the same operating point.

mod compare;
mod runner;
mod workload;

pub use compare::{compare_engines, model_vs_sim, Comparison, ModelCheck};
pub use runner::{run, run_spec, RunConfig, RunResult};
pub use workload::{Access, AccessKind, TxnScript, WorkloadSpec};
