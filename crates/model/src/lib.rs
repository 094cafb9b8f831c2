//! # rda-model — the paper's §5 analytical performance model
//!
//! Closed-form costs, in units of **page transfers**, for the four
//! recovery-algorithm families evaluated by *Database Recovery Using
//! Redundant Disk Arrays* (ICDE 1992), each with and without RDA recovery:
//!
//! | family | §      | logging | EOT     | checkpoint | figure |
//! |--------|--------|---------|---------|------------|--------|
//! | A1     | §5.2.1 | page    | FORCE   | TOC        | Fig 9  |
//! | A2     | §5.2.2 | page    | ¬FORCE  | ACC        | Fig 10 |
//! | A3     | §5.3.1 | record  | FORCE   | TOC        | Fig 11 |
//! | A4     | §5.3.2 | record  | ¬FORCE  | ACC        | Fig 12 |
//!
//! Throughput is transactions per availability interval of `T` page
//! transfers: `rt = (T − c_s − c_c·ncheckpoints) / c_t` with
//! `c_t = (1−f_u)·c_r + f_u·c_u` (§5).
//!
//! The source text available to this reproduction is a rough OCR; every
//! equation is implemented with a doc comment citing the paper section, and
//! terms that had to be reconstructed from the surrounding prose are marked
//! `RECONSTRUCTED`. Known discrepancies between the printed formulas and
//! the paper's own derivations (e.g. the closed form of `s_u`) are exposed
//! through [`ModelVariant`]. See DESIGN.md §2 for the full list.
//!
//! ```
//! use rda_model::{families, ModelParams, Workload};
//!
//! let p = ModelParams::paper_defaults(Workload::HighUpdate).communality(0.9);
//! let eval = families::a1::evaluate(&p);
//! let gain = eval.rda.throughput / eval.non_rda.throughput - 1.0;
//! // The paper reports ≈42% for this point (§5.2.1).
//! assert!(gain > 0.30 && gain < 0.55, "gain = {gain}");
//! ```

mod ckpt;
pub mod families;
mod figures;
mod params;
mod primitives;
pub mod reliability;

pub use ckpt::{optimal_interval_closed_form, optimize_interval, throughput};
pub use figures::{
    default_grid, fig10, fig11, fig12, fig13, fig9, FigurePoint, FigureSeries, GainPoint,
    GainSeries,
};
pub use params::{ModelParams, ModelVariant, RecordParams, Workload};
pub use primitives::{avg_log_entry, p_l, p_m, p_s, s_u};

/// Costs of one configuration (all in page transfers).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CostBreakdown {
    /// Cost of logging per update transaction (`c_l`).
    pub logging: f64,
    /// Cost of backing out an aborted transaction (`c_b`).
    pub backout: f64,
    /// Cost of restart after a crash (`c_s`).
    pub restart: f64,
    /// Cost of one checkpoint (`c_c`, zero for TOC families).
    pub checkpoint: f64,
    /// Cost of a retrieval transaction (`c_r`).
    pub retrieval: f64,
    /// Cost of an update transaction (`c_u`).
    pub update: f64,
    /// Average transaction cost (`c_t`).
    pub per_txn: f64,
    /// Optimal checkpoint interval `I` in page transfers (infinite for TOC
    /// families, which checkpoint per transaction).
    pub interval: f64,
    /// Transactions per availability interval (`r_t`).
    pub throughput: f64,
}

rda_obs::json_struct!(CostBreakdown {
    logging,
    backout,
    restart,
    checkpoint,
    retrieval,
    update,
    per_txn,
    interval,
    throughput
});

/// RDA-vs-baseline evaluation of one family at one parameter point.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Evaluation {
    /// The traditional (¬RDA) algorithm.
    pub non_rda: CostBreakdown,
    /// The same algorithm with RDA recovery.
    pub rda: CostBreakdown,
    /// Probability an updated page must still be UNDO-logged under RDA
    /// (`p_l`).
    pub p_l: f64,
}

impl Evaluation {
    /// Fractional throughput gain of RDA over the baseline.
    #[must_use]
    pub fn gain(&self) -> f64 {
        self.rda.throughput / self.non_rda.throughput - 1.0
    }
}
