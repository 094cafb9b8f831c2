//! `rda-obs`: the observability substrate for the RDA stack.
//!
//! Three pieces, all dependency-free with respect to the rest of the
//! workspace (every other crate depends on this one, never the
//! reverse):
//!
//! * [`Tracer`] — a zero-alloc-when-disabled structured event trace
//!   (ring buffer of [`TraceEvent`]s) clocked by the billed physical
//!   I/O counter. The array advances the clock; engine, recovery,
//!   scrub, buffer pool and fault injector emit protocol events.
//! * [`MetricsRegistry`] — lock-free named counters and fixed-bucket
//!   histograms plus read-only views over atomics that already exist
//!   (I/O stats, pool counters), with Prometheus-text and JSON
//!   exporters.
//! * [`Timeline`] — per-phase recovery breakdowns (wall-clock + exact
//!   billed I/O counts) attached to `RecoveryReport` and the
//!   crashpoint explorer JSON.
//!
//! The [`ObsHub`] bundles one tracer and one registry per database
//! instance and is what `rda-core` hands out.
//!
//! Being the crate everything links, it also holds the four small pieces
//! that keep the workspace's dependency closure at `std`: [`sync::Mutex`]
//! (the one lock type), [`rng::Rng`] (the one seeded generator),
//! [`json::Json`] (the one JSON value, parser and writer) and
//! [`prop::cases`] (seeded property tests).

mod event;
mod flight;
mod invariants;
pub mod json;
mod metrics;
mod pack;
mod profile;
pub mod prop;
pub mod rng;
pub mod sync;
mod timeline;
mod trace;

pub use event::{EventKind, StealKind, TraceEvent};
pub use flight::FlightRecord;
pub use invariants::{protocol_violations, protocol_violations_windowed};
pub use metrics::{Counter, Histogram, MetricsRegistry, NANOS_BOUNDS};
pub use profile::{monotonic_nanos, LockProfile};
pub use timeline::{PhaseStat, RecoveryPhase, Timeline};
pub use trace::{merge_shard_snapshots, ShardTaggedEvent, TraceSnapshot, Tracer};

use std::sync::Arc;

/// One database instance's observability bundle: the shared event
/// tracer (also the billed-I/O clock), the metrics registry, and the
/// lock-contention profile.
#[derive(Clone, Default)]
pub struct ObsHub {
    /// The shared event tracer / I/O clock.
    pub tracer: Arc<Tracer>,
    /// The shared metrics registry.
    pub metrics: Arc<MetricsRegistry>,
    /// The shared lock-wait profile.
    pub locks: Arc<LockProfile>,
}

impl ObsHub {
    /// A fresh hub with a disabled tracer and an empty registry.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Assemble the black-box snapshot the flight recorder persists:
    /// the current trace ring plus the deterministic counter values,
    /// stamped with flush number `flush_seq`.
    #[must_use]
    pub fn flight_record(&self, flush_seq: u64) -> FlightRecord {
        let snap = self.tracer.snapshot();
        FlightRecord {
            flush_seq,
            io_clock: self.tracer.io_clock(),
            dropped: snap.dropped,
            events: snap.events,
            counters: self.metrics.counter_values(),
        }
    }
}
