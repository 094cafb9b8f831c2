//! Model-versus-simulation and engine-versus-engine comparisons
//! (experiment SIM-V in DESIGN.md).

use crate::{run_workload, SimConfig, SimResult, WorkloadSpec};
use rda_core::{DbConfig, EngineKind, EotPolicy, LogGranularity};
use rda_model::{families, ModelParams, Workload};

/// Side-by-side engine measurement on an identical workload.
#[derive(Debug, Clone, Copy)]
pub struct Comparison {
    /// The RDA engine's measurements.
    pub rda: SimResult,
    /// The WAL baseline's measurements.
    pub wal: SimResult,
}

impl Comparison {
    /// Measured throughput gain (inverse transfer-cost ratio), comparable
    /// to the model's `gain()`.
    #[must_use]
    pub fn gain(&self) -> f64 {
        self.wal.transfers_per_committed / self.rda.transfers_per_committed - 1.0
    }

    /// Were crashes injected during either run? Crash-mode measurements
    /// bill restart-recovery I/O into the transfer counts and must not
    /// be read as steady-state costs — check this before quoting
    /// [`Comparison::gain`] against the model.
    #[must_use]
    pub fn crash_mode(&self) -> bool {
        self.rda.crashes_injected > 0 || self.wal.crashes_injected > 0
    }
}

/// Run the same workload through both engines.
#[must_use]
pub fn compare_engines(
    make_db: impl Fn(EngineKind) -> DbConfig,
    spec: &WorkloadSpec,
    txns: usize,
    concurrency: usize,
) -> Comparison {
    compare_engines_under_crashes(make_db, spec, txns, concurrency, None)
}

/// [`compare_engines`], optionally injecting `crash_and_recover` into
/// both runs every `crash_every` commits. The returned
/// [`Comparison::crash_mode`] (and the nonzero
/// [`SimResult::crashes_injected`] counters in serialized output) mark
/// the measurements as crash-mode.
#[must_use]
pub fn compare_engines_under_crashes(
    make_db: impl Fn(EngineKind) -> DbConfig,
    spec: &WorkloadSpec,
    txns: usize,
    concurrency: usize,
    crash_every: Option<usize>,
) -> Comparison {
    let run = |engine: EngineKind| {
        let mut cfg = SimConfig::new(make_db(engine));
        cfg.concurrency = concurrency;
        cfg.crash_every = crash_every;
        run_workload(&cfg, spec, txns)
    };
    Comparison {
        rda: run(EngineKind::Rda),
        wal: run(EngineKind::Wal),
    }
}

/// A model-vs-measurement checkpoint: the model's predicted per-transaction
/// cost `c_t` evaluated at the *measured* communality, against the
/// simulator's empirical transfers per committed transaction.
#[derive(Debug, Clone, Copy)]
pub struct ModelCheck {
    /// Measured communality the model was evaluated at.
    pub measured_c: f64,
    /// Model `c_t` (baseline).
    pub model_ct_wal: f64,
    /// Model `c_t` (RDA).
    pub model_ct_rda: f64,
    /// Empirical transfers per committed transaction (baseline).
    pub sim_ct_wal: f64,
    /// Empirical transfers per committed transaction (RDA).
    pub sim_ct_rda: f64,
    /// Model gain at the measured operating point.
    pub model_gain: f64,
    /// Measured gain.
    pub sim_gain: f64,
}

rda_obs::json_struct!(ModelCheck {
    measured_c,
    model_ct_wal,
    model_ct_rda,
    sim_ct_wal,
    sim_ct_rda,
    model_gain,
    sim_gain
});

/// Experiment SIM-V: drive both engines with a paper-style workload and
/// compare the measured per-transaction transfer cost against the A1
/// model evaluated at the measured communality.
///
/// The absolute costs are not expected to coincide (the model idealizes —
/// e.g. it ignores partial log-page force rewrites and charges a fixed
/// `a`); the *direction and rough size* of the RDA gain should agree.
#[must_use]
pub fn model_vs_sim(pages: u32, frames: usize, txns: usize, locality: f64) -> ModelCheck {
    let spec = WorkloadSpec::high_update(pages, (frames as u32) / 2).locality(locality);
    let make_db = |engine: EngineKind| {
        let mut db = DbConfig::paper_like(engine, pages, frames);
        db.eot = EotPolicy::Force;
        db.granularity = LogGranularity::Page;
        // The model charges log I/O as bytes/l_p (implicit group commit);
        // grant the same accounting to the engine for a like-for-like
        // comparison.
        db.log.amortized = true;
        db
    };
    let comparison = compare_engines(make_db, &spec, txns, 6);
    let measured_c = f64::midpoint(comparison.rda.measured_c, comparison.wal.measured_c).min(0.99);

    let mut params = ModelParams::paper_defaults(Workload::HighUpdate).communality(measured_c);
    params.s_total = f64::from(pages);
    params.b = frames as f64;
    let eval = families::a1::evaluate(&params);

    ModelCheck {
        measured_c,
        model_ct_wal: eval.non_rda.per_txn,
        model_ct_rda: eval.rda.per_txn,
        sim_ct_wal: comparison.wal.transfers_per_committed,
        sim_ct_rda: comparison.rda.transfers_per_committed,
        model_gain: eval.gain(),
        sim_gain: comparison.gain(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn engines_comparable_on_same_workload() {
        let spec = WorkloadSpec::high_update(200, 16);
        let cmp = compare_engines(|engine| DbConfig::paper_like(engine, 200, 32), &spec, 80, 4);
        assert!(cmp.rda.committed > 0 && cmp.wal.committed > 0);
        // Identical scripts → identical commit counts.
        assert_eq!(cmp.rda.committed, cmp.wal.committed);
    }

    #[test]
    fn crash_mode_comparisons_are_marked() {
        let spec = WorkloadSpec::high_update(200, 16);
        let make = |engine| DbConfig::paper_like(engine, 200, 32);
        let clean = compare_engines(make, &spec, 40, 4);
        assert!(!clean.crash_mode());
        assert_eq!(clean.rda.crashes_injected, 0);

        let crashy = compare_engines_under_crashes(make, &spec, 40, 4, Some(8));
        assert!(crashy.crash_mode(), "{crashy:?}");
        assert!(crashy.rda.crashes_injected > 0);
        assert!(crashy.wal.crashes_injected > 0);
        // Identical scripts → identical commit counts, crash mode or not.
        assert_eq!(crashy.rda.committed, crashy.wal.committed);
    }

    #[test]
    fn model_and_sim_agree_on_direction() {
        let check = model_vs_sim(500, 40, 150, 0.7);
        assert!(check.model_gain > 0.0, "model: RDA wins: {check:?}");
        assert!(
            check.sim_gain > -0.05,
            "sim must not contradict the model: {check:?}"
        );
        // Costs within a factor of 4 of each other (the model idealizes).
        let ratio = check.sim_ct_wal / check.model_ct_wal;
        assert!(
            (0.25..4.0).contains(&ratio),
            "cost ratio {ratio}: {check:?}"
        );
    }
}
