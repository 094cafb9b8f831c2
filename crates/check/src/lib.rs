//! # rda-check — model-based differential checking
//!
//! The recovery stack's adversarial conscience. Everything else in this
//! workspace tests the engine against *hand-written expectations*; this
//! crate tests it against a machine-checkable statement of its contract:
//!
//! 1. A **sequential reference model** ([`RefModel`]) states what
//!    committed/visible state and lock behavior must look like, one byte
//!    per page — deliberately too simple to share bugs with the engine.
//! 2. Two **seeded generators** ([`generate`], [`generate_threaded`];
//!    one [`Stream`] each) produce multi-transaction interleavings of
//!    begin/read/write/commit/abort spiked with crash-restarts, disk
//!    deaths and media recoveries, plus planted fault points (crash / torn
//!    write / disk death at a chosen physical I/O) threaded through the
//!    `rda-faults` injector seam. The classic stream pins one shard; the
//!    threaded stream also draws the shard count and the group-commit
//!    gate and spreads its pages so transactions cross shards.
//! 3. A **differential checker** ([`run_schedule`]) replays each schedule
//!    on the sharded engine ([`rda_core::ShardedDb`]; a classic schedule
//!    is simply `shards: 1`) and the model in lockstep, drives restart +
//!    media recovery after every machine death, then diffs the quiesced
//!    state dump against the model and validates each shard's event trace
//!    against the steal/commit protocol invariants shared with `rda-obs`.
//!    How it runs: one OS thread per transaction slot, dispatched
//!    turn-based so the run stays deterministic while every operation
//!    crosses a real thread boundary; cross-shard 2PC commits interrupted
//!    by a crash are resolved through the recovery-reported intent
//!    replays.
//! 4. A **shrinker** ([`shrink`]) delta-debugs any counterexample down to
//!    a minimal, deterministically-failing schedule, and the **corpus**
//!    ([`corpus`]) stores such repros as JSON for replay in CI forever
//!    after.
//!
//! The checker's teeth are proved by mutation: compile a protocol
//! mutation into the engine ([`ProtocolMutations`]: skip the commit-time
//! twin flip, or let the log's low-water mark pass active transactions)
//! and the sweep must find and shrink a counterexample within a few dozen
//! schedules — see the crate tests and
//! `cargo run -p rda-check -- --smoke`.

mod checker;
mod generate;
mod model;
mod schedule;
mod shrink;
mod sweep;

pub mod corpus;

pub use checker::{run_schedule, CheckOutcome};
pub use generate::{fault_kind_cycle, fault_variant, generate, generate_threaded, Stream};
pub use model::{Expected, RefModel};
pub use rda_obs::json::Json;
pub use rda_obs::rng::{mix, Rng};
// The mutation knob rides along so checker users need no direct
// `rda-core` import to arm it.
pub use rda_core::ProtocolMutations;
pub use schedule::{DbKnobs, FaultPoint, SchedOp, Schedule, MAX_SLOTS, PAGES};
pub use shrink::{shrink, ShrinkOutcome};
pub use sweep::{check_index, sweep, Failure, ScheduleResult, SweepConfig, SweepReport};
