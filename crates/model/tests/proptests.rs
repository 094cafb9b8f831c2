//! Property tests over the analytical model: sanity invariants that must
//! hold across the whole parameter space, not just the paper's two
//! operating points.

use rda_model::{families, p_l, p_m, p_s, s_u, Evaluation, ModelParams, Workload};
use rda_obs::prop;
use rda_obs::rng::Rng;

/// Uniform draw in `lo..hi`.
fn uniform(rng: &mut Rng, lo: f64, hi: f64) -> f64 {
    lo + (hi - lo) * ((rng.next_u64() >> 11) as f64 / (1u64 << 53) as f64)
}

fn gen_workload(rng: &mut Rng) -> Workload {
    if rng.chance(50) {
        Workload::HighUpdate
    } else {
        Workload::HighRetrieval
    }
}

fn gen_params(rng: &mut Rng) -> ModelParams {
    ModelParams::paper_defaults(gen_workload(rng))
        .communality(uniform(rng, 0.0, 0.95))
        .pages_per_txn(uniform(rng, 2.0, 60.0))
        .group_size(uniform(rng, 2.0, 40.0))
}

fn all_families(p: &ModelParams) -> [Evaluation; 4] {
    [
        families::a1::evaluate(p),
        families::a2::evaluate(p),
        families::a3::evaluate(p),
        families::a4::evaluate(p),
    ]
}

fn check_sane(e: &Evaluation) {
    for b in [&e.non_rda, &e.rda] {
        assert!(b.logging >= 0.0, "c_l {b:?}");
        assert!(b.backout >= 0.0);
        assert!(b.restart >= 0.0);
        assert!(b.retrieval >= 0.0);
        assert!(b.update >= b.retrieval, "updates do strictly more work");
        assert!(b.per_txn > 0.0);
        assert!(b.throughput >= 0.0);
        assert!(b.throughput.is_finite());
    }
    assert!((0.0..=1.0).contains(&e.p_l), "p_l = {}", e.p_l);
}

/// RDA never *hurts* by more than rounding wherever parity rides are
/// actually available (low p_l). At extreme contention — huge
/// transactions over large groups — the dirty-group surcharges can
/// genuinely invert the gain, which `ablation_groupsize` shows as the
/// downward trend with N; there we only require boundedness.
fn check_gain(p: &ModelParams) {
    for eval in all_families(p) {
        if eval.p_l < 0.1 {
            assert!(
                eval.gain() > -0.05,
                "gain {} with p_l {} at {p:?}",
                eval.gain(),
                eval.p_l
            );
        } else {
            assert!(eval.gain() > -1.0, "gain bounded: {}", eval.gain());
        }
    }
}

#[test]
fn all_families_sane_everywhere() {
    prop::cases("all_families_sane_everywhere", 64, |rng| {
        all_families(&gen_params(rng)).iter().for_each(check_sane);
    });
}

#[test]
fn rda_gain_negative_only_under_heavy_contention() {
    prop::cases("rda_gain_negative_only_under_heavy_contention", 64, |rng| {
        check_gain(&gen_params(rng));
    });
}

/// Primitive probability functions stay in [0, 1] and respond in the
/// right direction.
#[test]
fn primitives_bounded() {
    prop::cases("primitives_bounded", 64, |rng| {
        let (k, n) = (uniform(rng, 0.0, 500.0), uniform(rng, 1.0, 50.0));
        let s_total = uniform(rng, 100.0, 100_000.0);
        let c = uniform(rng, 0.0, 1.0);
        let (f_u, p_u) = (uniform(rng, 0.0, 1.0), uniform(rng, 0.0, 1.0));
        let pl = p_l(k, n, s_total);
        assert!((0.0..=1.0).contains(&pl));
        let pm = p_m(f_u, p_u, c);
        assert!((0.0..=1.0).contains(&pm));
        let ps = p_s(300.0, c, 10.0, 6.0);
        assert!((0.0..=1.0).contains(&ps));
    });
}

/// p_l grows (weakly) with group size N at fixed contention: bigger
/// groups collide more.
#[test]
fn p_l_monotone_in_group_size() {
    prop::cases("p_l_monotone_in_group_size", 64, |rng| {
        let k = uniform(rng, 2.0, 200.0);
        let mut prev = -1.0;
        for n in [2.0, 5.0, 10.0, 20.0, 40.0] {
            let v = p_l(k, n, 5000.0);
            assert!(v >= prev - 1e-12, "p_l must grow with N: {v} after {prev}");
            prev = v;
        }
    });
}

/// Throughput grows (weakly) with communality for the TOC families
/// (fewer misses, same logging).
#[test]
fn toc_throughput_monotone_in_c() {
    prop::cases("toc_throughput_monotone_in_c", 64, |rng| {
        let wl = gen_workload(rng);
        let mut prev = 0.0;
        for c in [0.0, 0.2, 0.4, 0.6, 0.8, 0.95] {
            let p = ModelParams::paper_defaults(wl).communality(c);
            let rt = families::a1::evaluate(&p).rda.throughput;
            assert!(rt >= prev, "{wl:?}: rt {rt} after {prev} at C={c}");
            prev = rt;
        }
    });
}

/// s_u is bounded by both the total distinct work and the buffer.
#[test]
fn s_u_bounds() {
    prop::cases("s_u_bounds", 64, |rng| {
        let (c, k) = (uniform(rng, 0.01, 0.99), uniform(rng, 1.0, 20.0));
        let p = ModelParams::paper_defaults(Workload::HighUpdate).communality(c);
        let v = s_u(&p, k);
        assert!(v >= 0.0);
        assert!(v <= k * p.s * p.p_u + 1e-9, "cannot exceed total touches");
        assert!(v <= p.b / c + 1e-9, "cannot exceed the fixed point B/C");
    });
}

/// The two parameter points a shrinking property-test run once reduced a failure to.
#[test]
fn pinned_minimal_retrieval_point() {
    let p = ModelParams::paper_defaults(Workload::HighRetrieval)
        .pages_per_txn(2.0)
        .group_size(2.0);
    all_families(&p).iter().for_each(check_sane);
    check_gain(&p);
}

#[test]
fn pinned_large_transactions_over_large_groups() {
    let p = ModelParams::paper_defaults(Workload::HighUpdate)
        .pages_per_txn(44.782_484_559_618_31)
        .group_size(28.749_950_979_778_71);
    all_families(&p).iter().for_each(check_sane);
    check_gain(&p);
}
