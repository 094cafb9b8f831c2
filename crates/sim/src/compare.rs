//! Model-versus-simulation and engine-versus-engine comparisons
//! (experiment SIM-V in DESIGN.md).

use crate::{run_spec, RunConfig, RunResult, WorkloadSpec};
use rda_core::{DbConfig, EngineKind, EotPolicy, LogGranularity};
use rda_model::{families, ModelParams, Workload};

/// Side-by-side engine measurement on an identical workload.
#[derive(Debug, Clone)]
pub struct Comparison {
    /// The RDA engine's measurements.
    pub rda: RunResult,
    /// The WAL baseline's measurements.
    pub wal: RunResult,
}

impl Comparison {
    /// Measured throughput gain (inverse transfer-cost ratio), comparable
    /// to the model's `gain()`.
    #[must_use]
    pub fn gain(&self) -> f64 {
        self.wal.transfers_per_committed / self.rda.transfers_per_committed - 1.0
    }

    /// Were crashes injected in either run? Their restart I/O is in the
    /// transfers: not a steady-state [`Comparison::gain`] to quote.
    #[must_use]
    pub fn crash_mode(&self) -> bool {
        self.rda.crashes_injected > 0 || self.wal.crashes_injected > 0
    }

    /// `Ok` when neither run had a failure.
    ///
    /// # Errors
    /// The first failing run's [`RunResult::check`] message.
    pub fn check(&self) -> Result<(), String> {
        self.rda.check().map_err(|e| format!("RDA run: {e}"))?;
        self.wal.check().map_err(|e| format!("WAL run: {e}"))
    }
}

/// [`run_spec`] the same scripts through both engines, each on a fresh
/// database. With `cfg.crash_every` set, [`Comparison::crash_mode`]
/// marks the result.
#[must_use]
pub fn compare_engines(
    make_db: impl Fn(EngineKind) -> DbConfig,
    spec: &WorkloadSpec,
    txns: usize,
    cfg: &RunConfig,
) -> Comparison {
    Comparison {
        rda: run_spec(make_db(EngineKind::Rda), cfg, spec, txns),
        wal: run_spec(make_db(EngineKind::Wal), cfg, spec, txns),
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
///
/// # Errors
/// [`Comparison::check`]'s message when either engine run failed.
pub fn model_vs_sim(
    pages: u32,
    frames: usize,
    txns: usize,
    locality: f64,
) -> Result<ModelCheck, String> {
    let spec = WorkloadSpec::high_update(pages, (frames as u32) / 2).locality(locality);
    let make_db = |engine: EngineKind| {
        let mut db = DbConfig::paper_like(engine, pages, frames);
        db.eot = EotPolicy::Force;
        db.granularity = LogGranularity::Page;
        // The model charges log I/O as bytes/l_p (implicit group commit):
        // grant the engine the same accounting, like for like.
        db.log.amortized = true;
        db
    };
    let comparison = compare_engines(make_db, &spec, txns, &RunConfig::default());
    comparison.check()?;
    let measured_c = f64::midpoint(comparison.rda.measured_c, comparison.wal.measured_c).min(0.99);

    let mut params = ModelParams::paper_defaults(Workload::HighUpdate).communality(measured_c);
    params.s_total = f64::from(pages);
    params.b = frames as f64;
    let eval = families::a1::evaluate(&params);

    Ok(ModelCheck {
        measured_c,
        model_ct_wal: eval.non_rda.per_txn,
        model_ct_rda: eval.rda.per_txn,
        sim_ct_wal: comparison.wal.transfers_per_committed,
        sim_ct_rda: comparison.rda.transfers_per_committed,
        model_gain: eval.gain(),
        sim_gain: comparison.gain(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn slots(slots: usize) -> RunConfig {
        RunConfig {
            slots,
            ..RunConfig::default()
        }
    }

    #[test]
    fn crash_mode_comparisons_are_marked() {
        let spec = WorkloadSpec::high_update(200, 16);
        let make = |engine| DbConfig::paper_like(engine, 200, 32);
        let clean = compare_engines(make, &spec, 40, &slots(4));
        assert!(!clean.crash_mode());
        assert_eq!(clean.rda.crashes_injected, 0);

        let crashy = RunConfig {
            crash_every: Some(8),
            ..slots(4)
        };
        let crashy = compare_engines(make, &spec, 40, &crashy);
        assert_eq!(crashy.check(), Ok(()));
        assert!(crashy.crash_mode(), "{crashy:?}");
        assert!(crashy.rda.crashes_injected > 0);
        assert!(crashy.wal.crashes_injected > 0);
        // Identical scripts → identical commit counts, crash mode or not.
        assert_eq!(crashy.rda.committed, crashy.wal.committed);
    }

    /// Exact counts of one small run, so a runner change that would move
    /// the EXPERIMENTS.md figures fails here first. Identical scripts
    /// commit identically on both engines.
    #[test]
    fn small_comparison_is_pinned() {
        let cmp = compare_engines(
            |engine| DbConfig::paper_like(engine, 200, 32),
            &WorkloadSpec::high_update(200, 24),
            120,
            &slots(6),
        );
        assert_eq!(cmp.check(), Ok(()));
        let pin = |r: &RunResult| (r.committed, r.array_transfers, r.log_transfers, r.log_bytes);
        assert_eq!(pin(&cmp.rda), (69, 1369, 808, 555_168));
        assert_eq!(pin(&cmp.wal), (69, 1305, 1623, 978_864));
    }

    #[test]
    fn model_and_sim_agree_on_direction() {
        let check = model_vs_sim(500, 40, 150, 0.7).unwrap();
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
