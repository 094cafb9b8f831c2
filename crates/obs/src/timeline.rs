//! Per-phase recovery timelines.
//!
//! Restart recovery (and media rebuild) decomposes into the phases the
//! paper costs individually: the log scan, NVRAM intent replay, parity
//! vs log UNDO, REDO, the S/N-read Current_Parity bitmap scan, and media
//! rebuild.
//! A [`Timeline`] records, per phase, the wall-clock and the billed
//! read/write counts (taken from the array's transfer stats, so they
//! are exact and deterministic even with tracing disabled).
//!
//! [`Timeline::to_json`] renders it two ways on purpose: untimed it is
//! fully deterministic (I/O counts only) and safe to embed in reports
//! that are compared byte-for-byte across runs or worker counts; timed
//! it adds `wall_us` for human consumption.

use crate::json::Json;
use crate::json_obj;
use std::time::Duration;

/// The recovery phases the paper's cost model distinguishes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RecoveryPhase {
    /// The billed scan of the durable log plus its analysis (winners,
    /// losers, where their undo/redo images live). Log-device reads are
    /// billed to the log's own counters, so this phase moves no array I/O.
    LogScan,
    /// Step 0: replay unfinished multi-write intents from NVRAM.
    IntentReplay,
    /// Loser UNDO via parity reconstruction (`D_old = P ⊕ P′ ⊕ D_new`).
    UndoParity,
    /// Loser UNDO via logged before-images.
    UndoLog,
    /// Winner REDO (only under a ¬FORCE buffer policy).
    Redo,
    /// The Current_Parity bitmap scan: one parity-header read per
    /// group — the paper's S/N term — healing torn twins on the way.
    BitmapScan,
    /// Whole-disk rebuild from surviving members after a media failure.
    MediaRebuild,
}

impl RecoveryPhase {
    /// Stable lowercase label used in JSON and reports.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            RecoveryPhase::LogScan => "log_scan",
            RecoveryPhase::IntentReplay => "intent_replay",
            RecoveryPhase::UndoParity => "undo_parity",
            RecoveryPhase::UndoLog => "undo_log",
            RecoveryPhase::Redo => "redo",
            RecoveryPhase::BitmapScan => "bitmap_scan",
            RecoveryPhase::MediaRebuild => "media_rebuild",
        }
    }
}

/// One phase's share of a recovery run.
#[derive(Debug, Clone, Copy)]
pub struct PhaseStat {
    /// Which phase.
    pub phase: RecoveryPhase,
    /// Wall-clock spent in the phase.
    pub wall: Duration,
    /// Billed physical reads issued during the phase.
    pub reads: u64,
    /// Billed physical writes issued during the phase.
    pub writes: u64,
}

/// An ordered per-phase breakdown of one recovery (or rebuild) run.
#[derive(Debug, Clone, Default)]
pub struct Timeline {
    /// Phases in execution order.
    pub phases: Vec<PhaseStat>,
}

impl Timeline {
    /// Append a phase record.
    pub fn push(&mut self, phase: RecoveryPhase, wall: Duration, reads: u64, writes: u64) {
        self.phases.push(PhaseStat {
            phase,
            wall,
            reads,
            writes,
        });
    }

    /// Total billed transfers across all phases.
    #[must_use]
    pub fn total_ios(&self) -> u64 {
        self.phases.iter().map(|p| p.reads + p.writes).sum()
    }

    /// `[{"phase":"...","reads":R,"writes":W},...]`, deterministic; with
    /// `timed`, each phase also carries its `wall_us`.
    #[must_use]
    pub fn to_json(&self, timed: bool) -> Json {
        let phases = self.phases.iter().map(|p| {
            let mut phase = json_obj! {
                "phase": p.phase.name(),
                "reads": p.reads,
                "writes": p.writes,
            };
            if timed {
                phase.push("wall_us", p.wall.as_micros() as u64);
            }
            phase
        });
        Json::Arr(phases.collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_renderings() {
        let mut t = Timeline::default();
        t.push(RecoveryPhase::IntentReplay, Duration::from_micros(5), 1, 2);
        t.push(RecoveryPhase::BitmapScan, Duration::from_micros(7), 4, 0);
        assert_eq!(t.total_ios(), 7);
        assert_eq!(
            t.to_json(false).to_string(),
            "[{\"phase\":\"intent_replay\",\"reads\":1,\"writes\":2},\
             {\"phase\":\"bitmap_scan\",\"reads\":4,\"writes\":0}]"
        );
        let timed = t.to_json(true).to_string();
        assert!(timed.contains("\"wall_us\":7"), "{timed}");
        for text in [t.to_json(false).to_string(), timed] {
            assert_eq!(Json::parse(&text).map(|j| j.to_string()), Ok(text));
        }
    }
}
