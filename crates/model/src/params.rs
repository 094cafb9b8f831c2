//! Model parameters (§5, values from Reuter TODS 1984 as cited by the
//! paper).

/// Which of the paper's two workload environments.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// High update frequency: `s = 10`, `f_u = 0.8`, `p_u = 0.9`, `d = 3`.
    HighUpdate,
    /// High retrieval frequency: `s = 40`, `f_u = 0.1`, `p_u = 0.3`,
    /// `d = 8`.
    HighRetrieval,
}

/// Variant switches for equations where the OCR'd paper text conflicts
/// with its own derivation (DESIGN.md §2).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ModelVariant {
    /// Use the internally consistent re-derived forms (default): e.g.
    /// `s_u = (B/C)(1 − (1 − C·s·p_u/B)^{P·f_u})`, which satisfies the
    /// appendix recurrence at every step.
    #[default]
    Reconstructed,
    /// Use the formulas exactly as printed, garbles and all: e.g.
    /// `s_u = B(1 − (1 − C·s·p_u/B)^{P·f_u})`.
    PaperLiteral,
}

/// Record-logging parameters (§5.3; lengths in bytes).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RecordParams {
    /// Update statements per transaction (`d`): 3 for high-update, 8 for
    /// high-retrieval environments.
    pub d: f64,
    /// Length of a long log entry (`r` = 100).
    pub r: f64,
    /// Length of a short log entry (`e` = 10).
    pub e: f64,
    /// Length of a BOT/EOT record (`l_bc` = 16).
    pub l_bc: f64,
    /// Physical page length (`l_p` = 2020).
    pub l_p: f64,
    /// Log chain header length (`l_h` = 4).
    pub l_h: f64,
}

/// Full parameter set for one model evaluation point.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ModelParams {
    /// Buffer frames (`B` = 300).
    pub b: f64,
    /// Database size in pages (`S` = 5000).
    pub s_total: f64,
    /// Data pages per parity group (`N` = 10).
    pub n: f64,
    /// Concurrent transactions (`P` = 6).
    pub p: f64,
    /// Abort probability (`p_b` = 0.01).
    pub p_b: f64,
    /// Availability interval in page transfers (`T` = 5·10⁶).
    pub t: f64,
    /// Pages accessed per transaction (`s`).
    pub s: f64,
    /// Fraction of update transactions (`f_u`).
    pub f_u: f64,
    /// Probability a page access is an update (`p_u`).
    pub p_u: f64,
    /// Communality — probability a requested page is in the buffer (`C`).
    pub c: f64,
    /// Record-logging byte parameters.
    pub record: RecordParams,
    /// Equation variant switches.
    pub variant: ModelVariant,
}

impl ModelParams {
    /// The paper's parameter values (§5.2.1 and §5.3) for a workload
    /// environment, at communality `C = 0`. Use
    /// [`ModelParams::communality`] to sweep `C`.
    #[must_use]
    pub fn paper_defaults(workload: Workload) -> ModelParams {
        let (s, f_u, p_u, d) = match workload {
            Workload::HighUpdate => (10.0, 0.8, 0.9, 3.0),
            Workload::HighRetrieval => (40.0, 0.1, 0.3, 8.0),
        };
        ModelParams {
            b: 300.0,
            s_total: 5000.0,
            n: 10.0,
            p: 6.0,
            p_b: 0.01,
            t: 5.0e6,
            s,
            f_u,
            p_u,
            c: 0.0,
            record: RecordParams {
                d,
                r: 100.0,
                e: 10.0,
                l_bc: 16.0,
                l_p: 2020.0,
                l_h: 4.0,
            },
            variant: ModelVariant::Reconstructed,
        }
    }

    /// Builder: set communality `C`.
    ///
    /// # Panics
    /// Panics unless `0 ≤ C ≤ 1`.
    #[must_use]
    pub fn communality(mut self, c: f64) -> ModelParams {
        assert!((0.0..=1.0).contains(&c), "communality must be in [0, 1]");
        self.c = c;
        self
    }

    /// Builder: set pages accessed per transaction `s` (Figure 13 sweeps
    /// this).
    #[must_use]
    pub fn pages_per_txn(mut self, s: f64) -> ModelParams {
        assert!(s > 0.0);
        self.s = s;
        self
    }

    /// Builder: set the parity group size `N`.
    #[must_use]
    pub fn group_size(mut self, n: f64) -> ModelParams {
        assert!(n > 0.0);
        self.n = n;
        self
    }

    /// Builder: select the equation variant.
    #[must_use]
    pub fn variant(mut self, v: ModelVariant) -> ModelParams {
        self.variant = v;
        self
    }

    /// Average number of page transfers per transaction:
    /// `c_t = (1−f_u)·c_r + f_u·c_u` (§5).
    #[must_use]
    pub fn per_txn(&self, c_r: f64, c_u: f64) -> f64 {
        (1.0 - self.f_u) * c_r + self.f_u * c_u
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_defaults_match_section_5() {
        let p = ModelParams::paper_defaults(Workload::HighUpdate);
        assert_eq!(p.b, 300.0);
        assert_eq!(p.s_total, 5000.0);
        assert_eq!(p.n, 10.0);
        assert_eq!(p.p, 6.0);
        assert_eq!(p.p_b, 0.01);
        assert_eq!(p.t, 5.0e6);
        assert_eq!((p.s, p.f_u, p.p_u), (10.0, 0.8, 0.9));
        assert_eq!(p.record.d, 3.0);
        let p = ModelParams::paper_defaults(Workload::HighRetrieval);
        assert_eq!((p.s, p.f_u, p.p_u), (40.0, 0.1, 0.3));
        assert_eq!(p.record.d, 8.0);
        assert_eq!(p.record.l_p, 2020.0);
    }

    #[test]
    fn builders() {
        let p = ModelParams::paper_defaults(Workload::HighUpdate)
            .communality(0.5)
            .pages_per_txn(25.0)
            .group_size(20.0)
            .variant(ModelVariant::PaperLiteral);
        assert_eq!(p.c, 0.5);
        assert_eq!(p.s, 25.0);
        assert_eq!(p.n, 20.0);
        assert_eq!(p.variant, ModelVariant::PaperLiteral);
    }

    #[test]
    #[should_panic(expected = "communality")]
    fn bad_communality_rejected() {
        let _ = ModelParams::paper_defaults(Workload::HighUpdate).communality(1.5);
    }

    #[test]
    fn per_txn_mixes_costs() {
        let p = ModelParams::paper_defaults(Workload::HighUpdate);
        // f_u = 0.8: c_t = 0.2·10 + 0.8·100 = 82.
        assert!((p.per_txn(10.0, 100.0) - 82.0).abs() < 1e-12);
    }
}
