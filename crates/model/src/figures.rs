//! Series generators for every figure in the paper's evaluation.

use crate::{families, Evaluation, ModelParams, Workload};

/// One point of a throughput-vs-communality curve.
#[derive(Debug, Clone, Copy)]
pub struct FigurePoint {
    /// Communality `C`.
    pub c: f64,
    /// Baseline throughput.
    pub non_rda: f64,
    /// RDA throughput.
    pub rda: f64,
    /// Fractional gain.
    pub gain: f64,
}

/// A full figure: one curve pair per workload environment.
#[derive(Debug, Clone)]
pub struct FigureSeries {
    /// Which figure this reproduces ("fig9" … "fig12").
    pub id: &'static str,
    /// Human-readable description of the algorithm family.
    pub family: &'static str,
    /// High-update curve.
    pub high_update: Vec<FigurePoint>,
    /// High-retrieval curve.
    pub high_retrieval: Vec<FigurePoint>,
}

/// One point of the Figure-13 gain-vs-s curve.
#[derive(Debug, Clone, Copy)]
pub struct GainPoint {
    /// Pages accessed per transaction.
    pub s: f64,
    /// Percent throughput increase from RDA.
    pub percent_gain: f64,
}

/// Figure 13: percent gain versus transaction size.
#[derive(Debug, Clone)]
pub struct GainSeries {
    /// Figure id ("fig13").
    pub id: &'static str,
    /// Description.
    pub family: &'static str,
    /// Points for s = 5 … 45.
    pub points: Vec<GainPoint>,
}

rda_obs::json_struct!(FigurePoint {
    c,
    non_rda,
    rda,
    gain
});
rda_obs::json_struct!(FigureSeries {
    id,
    family,
    high_update,
    high_retrieval
});
rda_obs::json_struct!(GainPoint { s, percent_gain });
rda_obs::json_struct!(GainSeries { id, family, points });

fn sweep(
    id: &'static str,
    family: &'static str,
    eval: impl Fn(&ModelParams) -> Evaluation,
    cs: &[f64],
) -> FigureSeries {
    let run = |wl: Workload| {
        cs.iter()
            .map(|&c| {
                let e = eval(&ModelParams::paper_defaults(wl).communality(c));
                FigurePoint {
                    c,
                    non_rda: e.non_rda.throughput,
                    rda: e.rda.throughput,
                    gain: e.gain(),
                }
            })
            .collect()
    };
    FigureSeries {
        id,
        family,
        high_update: run(Workload::HighUpdate),
        high_retrieval: run(Workload::HighRetrieval),
    }
}

/// Default communality grid for the figures (the paper plots C ∈ [0, 1]).
#[must_use]
pub fn default_grid() -> Vec<f64> {
    (0..=20)
        .map(|i| f64::from(i) * 0.05)
        .map(|c| c.min(0.99))
        .collect()
}

/// Figure 9: page logging, FORCE/TOC.
#[must_use]
pub fn fig9(cs: &[f64]) -> FigureSeries {
    sweep(
        "fig9",
        "¬ATOMIC, STEAL, FORCE, TOC — page logging",
        families::a1::evaluate,
        cs,
    )
}

/// Figure 10: page logging, ¬FORCE/ACC.
#[must_use]
pub fn fig10(cs: &[f64]) -> FigureSeries {
    sweep(
        "fig10",
        "¬ATOMIC, STEAL, ¬FORCE, ACC — page logging",
        families::a2::evaluate,
        cs,
    )
}

/// Figure 11: record logging, FORCE/TOC.
#[must_use]
pub fn fig11(cs: &[f64]) -> FigureSeries {
    sweep(
        "fig11",
        "¬ATOMIC, STEAL, FORCE, TOC — record logging",
        families::a3::evaluate,
        cs,
    )
}

/// Figure 12: record logging, ¬FORCE/ACC.
#[must_use]
pub fn fig12(cs: &[f64]) -> FigureSeries {
    sweep(
        "fig12",
        "¬ATOMIC, STEAL, ¬FORCE, ACC — record logging",
        families::a4::evaluate,
        cs,
    )
}

/// Figure 13: percent RDA gain versus pages accessed per transaction, for
/// the ¬FORCE/ACC record-logging family, high-update environment,
/// C = 0.9.
#[must_use]
pub fn fig13(s_values: &[f64]) -> GainSeries {
    let base = ModelParams::paper_defaults(Workload::HighUpdate).communality(0.9);
    let points = s_values
        .iter()
        .map(|&s| {
            let e = families::a4::evaluate(&base.pages_per_txn(s));
            GainPoint {
                s,
                percent_gain: e.gain() * 100.0,
            }
        })
        .collect();
    GainSeries {
        id: "fig13",
        family: "¬FORCE, ACC, record logging — C = 0.9, high update",
        points,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn grids_and_series_shapes() {
        let grid = default_grid();
        assert_eq!(grid.len(), 21);
        let f = fig9(&grid);
        assert_eq!(f.high_update.len(), 21);
        assert_eq!(f.high_retrieval.len(), 21);
        assert_eq!(f.id, "fig9");
    }

    #[test]
    fn all_figures_have_positive_throughput() {
        let grid = [0.0, 0.5, 0.9];
        for fig in [fig9(&grid), fig10(&grid), fig11(&grid), fig12(&grid)] {
            for pt in fig.high_update.iter().chain(&fig.high_retrieval) {
                assert!(pt.non_rda > 0.0, "{} C={}", fig.id, pt.c);
                assert!(pt.rda > 0.0, "{} C={}", fig.id, pt.c);
            }
        }
    }

    #[test]
    fn fig13_monotone_increasing() {
        let s: Vec<f64> = (1..=9).map(|i| f64::from(i) * 5.0).collect();
        let g = fig13(&s);
        assert_eq!(g.points.len(), 9);
        for w in g.points.windows(2) {
            assert!(w[1].percent_gain > w[0].percent_gain);
        }
    }

    #[test]
    fn figures_serialize_to_json() {
        use rda_obs::json::ToJson;
        let json = fig9(&[0.5]).to_json().to_string();
        assert!(json.contains("\"fig9\""));
        assert!(fig13(&[10.0])
            .to_json()
            .to_string()
            .contains("percent_gain"));
    }
}
