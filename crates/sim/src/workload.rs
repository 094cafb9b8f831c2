//! Reuter-parameter workload generation.

use rda_obs::rng::{mix, Rng};

/// What one access does.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AccessKind {
    /// Read the page.
    Read,
    /// Read-modify-write the page.
    Update,
}

/// One page access of a transaction script.
#[derive(Debug, Clone, Copy)]
pub struct Access {
    /// Target page.
    pub page: u32,
    /// Read or update.
    pub kind: AccessKind,
}

/// A pre-generated transaction: its accesses plus whether it will abort at
/// the end (the model's `p_b`).
#[derive(Debug, Clone)]
pub struct TxnScript {
    /// Page accesses in order.
    pub accesses: Vec<Access>,
    /// Abort instead of committing at the end.
    pub aborts: bool,
}

impl TxnScript {
    /// A script that runs `accesses` and commits.
    #[must_use]
    pub fn committing(accesses: Vec<Access>) -> TxnScript {
        TxnScript {
            accesses,
            aborts: false,
        }
    }

    /// A script that runs `accesses` and then aborts.
    #[must_use]
    pub fn aborting(accesses: Vec<Access>) -> TxnScript {
        TxnScript {
            accesses,
            aborts: true,
        }
    }

    /// Does the script update anything?
    #[must_use]
    pub fn is_update(&self) -> bool {
        self.accesses.iter().any(|a| a.kind == AccessKind::Update)
    }
}

/// Workload parameters (§5 of the paper).
#[derive(Debug, Clone, Copy)]
pub struct WorkloadSpec {
    /// Database size in pages (`S`).
    pub pages: u32,
    /// Pages accessed per transaction (`s`).
    pub s: usize,
    /// Fraction of update transactions (`f_u`).
    pub f_u: f64,
    /// Probability an access by an update transaction is an update (`p_u`).
    pub p_u: f64,
    /// Abort probability (`p_b`).
    pub p_b: f64,
    /// Fraction of accesses directed at the hot set (locality knob; drives
    /// the empirical communality).
    pub hot_access_fraction: f64,
    /// Hot-set size in pages (keep ≤ the buffer size for high hit ratios).
    pub hot_pages: u32,
}

impl WorkloadSpec {
    /// The paper's high-update environment over a database of `pages`
    /// pages: `s = 10`, `f_u = 0.8`, `p_u = 0.9`, `p_b = 0.01`.
    #[must_use]
    pub fn high_update(pages: u32, hot_pages: u32) -> WorkloadSpec {
        WorkloadSpec {
            pages,
            s: 10,
            f_u: 0.8,
            p_u: 0.9,
            p_b: 0.01,
            hot_access_fraction: 0.8,
            hot_pages,
        }
    }

    /// The paper's high-retrieval environment: `s = 40`, `f_u = 0.1`,
    /// `p_u = 0.3`, `p_b = 0.01`.
    #[must_use]
    pub fn high_retrieval(pages: u32, hot_pages: u32) -> WorkloadSpec {
        WorkloadSpec {
            pages,
            s: 40,
            f_u: 0.1,
            p_u: 0.3,
            p_b: 0.01,
            hot_access_fraction: 0.8,
            hot_pages,
        }
    }

    /// Builder: set the hot-set access fraction (0 = uniform, →1 = all
    /// traffic on the hot set).
    #[must_use]
    pub fn locality(mut self, fraction: f64) -> WorkloadSpec {
        assert!((0.0..=1.0).contains(&fraction));
        self.hot_access_fraction = fraction;
        self
    }

    /// Generate `count` transaction scripts with a deterministic RNG seed.
    #[must_use]
    pub fn generate(&self, count: usize, seed: u64) -> Vec<TxnScript> {
        // Small seeds (1, 2, 7 …) are the common case; mix them first so the
        // opening draws are not xorshift's low-entropy warm-up.
        let mut rng = Rng::new(mix(seed, 0));
        (0..count).map(|_| self.one_txn(&mut rng)).collect()
    }

    /// Map a hot-set index to a page id, spreading the hot set evenly
    /// across the whole address space. Hot tuples in an OLTP system are
    /// not physically contiguous, and the paper's model assumes updated
    /// pages are "randomly chosen from the S pages" — a *contiguous* hot
    /// set would pile updates into a handful of parity groups and
    /// artificially inflate `p_l`.
    fn hot_page(&self, idx: u32) -> u32 {
        let hot = self.hot_pages.min(self.pages).max(1);
        let stride = (self.pages / hot).max(1);
        (idx * stride) % self.pages
    }

    fn one_txn(&self, rng: &mut Rng) -> TxnScript {
        let update_txn = rng.bool(self.f_u);
        let hot = self.hot_pages.min(self.pages).max(1);
        let accesses = (0..self.s)
            .map(|_| {
                let page = if rng.bool(self.hot_access_fraction) {
                    self.hot_page(rng.below(u64::from(hot)) as u32)
                } else {
                    rng.below(u64::from(self.pages)) as u32
                };
                let kind = if update_txn && rng.bool(self.p_u) {
                    AccessKind::Update
                } else {
                    AccessKind::Read
                };
                Access { page, kind }
            })
            .collect();
        TxnScript {
            accesses,
            aborts: rng.bool(self.p_b),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generation_is_deterministic() {
        let spec = WorkloadSpec::high_update(1000, 100);
        let a = spec.generate(20, 42);
        let b = spec.generate(20, 42);
        assert_eq!(a.len(), 20);
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.aborts, y.aborts);
            assert_eq!(x.accesses.len(), y.accesses.len());
            for (p, q) in x.accesses.iter().zip(&y.accesses) {
                assert_eq!((p.page, p.kind), (q.page, q.kind));
            }
        }
    }

    #[test]
    fn different_seeds_differ() {
        let spec = WorkloadSpec::high_update(1000, 100);
        let a = spec.generate(10, 1);
        let b = spec.generate(10, 2);
        let fingerprint = |ts: &[TxnScript]| -> Vec<u32> {
            ts.iter()
                .flat_map(|t| t.accesses.iter().map(|a| a.page))
                .collect()
        };
        assert_ne!(fingerprint(&a), fingerprint(&b));
    }

    #[test]
    fn update_fraction_roughly_matches_f_u() {
        let spec = WorkloadSpec::high_update(1000, 100);
        let txns = spec.generate(2000, 7);
        let updates = txns.iter().filter(|t| t.is_update()).count() as f64;
        let frac = updates / 2000.0;
        assert!((frac - 0.8).abs() < 0.05, "update fraction {frac}");
    }

    #[test]
    fn scripts_have_s_accesses_in_range() {
        let spec = WorkloadSpec::high_retrieval(500, 50);
        for t in spec.generate(50, 3) {
            assert_eq!(t.accesses.len(), 40);
            for a in &t.accesses {
                assert!(a.page < 500);
            }
        }
    }

    #[test]
    fn locality_concentrates_accesses() {
        let spec = WorkloadSpec::high_update(10_000, 50).locality(0.95);
        let txns = spec.generate(500, 9);
        let hot: std::collections::HashSet<u32> = (0..50).map(|i| spec.hot_page(i)).collect();
        let hot_hits = txns
            .iter()
            .flat_map(|t| &t.accesses)
            .filter(|a| hot.contains(&a.page))
            .count() as f64;
        let total = txns.iter().map(|t| t.accesses.len()).sum::<usize>() as f64;
        assert!(hot_hits / total > 0.9, "hot fraction {}", hot_hits / total);
    }

    #[test]
    fn hot_set_spreads_across_parity_groups() {
        // With N = 10 pages per group, 50 hot pages over 10 000 must land
        // in 50 distinct groups (stride 200), not 5 contiguous ones.
        let spec = WorkloadSpec::high_update(10_000, 50);
        let groups: std::collections::HashSet<u32> =
            (0..50).map(|i| spec.hot_page(i) / 10).collect();
        assert_eq!(groups.len(), 50);
    }

    #[test]
    fn retrieval_heavy_spec_rarely_updates() {
        let spec = WorkloadSpec::high_retrieval(1000, 100);
        let txns = spec.generate(1000, 11);
        let updates = txns.iter().filter(|t| t.is_update()).count() as f64 / 1000.0;
        assert!(updates < 0.15, "{updates}");
    }
}
