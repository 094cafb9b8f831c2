//! Numbers the benchmark computes itself: the seeded generator, bounded
//! exact latency samples, the percentile rule, and the quartile spread the
//! acceptance check uses.

/// xorshift64* — the only randomness in the benchmark; every script,
/// stamp and sampling decision derives from `--seed` through it.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// A generator for `seed` and a per-use `stream` (thread, purpose), so
    /// two streams of one seed never repeat each other.
    pub fn new(seed: u64, stream: u64) -> Rng {
        // splitmix64 of the pair: xorshift must not start at 0, and nearby
        // seeds must not give nearby sequences.
        let mut z = seed
            .wrapping_add(stream.wrapping_mul(0x9E37_79B9_7F4A_7C15))
            .wrapping_add(0x9E37_79B9_7F4A_7C15);
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        Rng((z ^ (z >> 31)) | 1)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 ^= self.0 >> 12;
        self.0 ^= self.0 << 25;
        self.0 ^= self.0 >> 27;
        self.0.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }

    /// Uniform in `0..n` (`n > 0`); the modulo bias is below 2⁻⁴⁰ for the
    /// page counts used here.
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }

    pub fn chance(&mut self, p: f64) -> bool {
        ((self.next_u64() >> 11) as f64) < p * (1u64 << 53) as f64
    }
}

/// Exact latency samples in nanoseconds, kept whole up to [`Samples::CAP`]
/// and as a uniform random subset beyond it (reservoir sampling), so the
/// memory a run needs does not grow with how fast the engine is.
#[derive(Debug)]
pub struct Samples {
    kept: Vec<u32>,
    cap: usize,
    seen: u64,
    rng: Rng,
}

impl Samples {
    pub const CAP: usize = 1 << 20;

    pub fn new(seed: u64, stream: u64) -> Samples {
        Samples::with_cap(seed, stream, Samples::CAP)
    }

    pub fn with_cap(seed: u64, stream: u64, cap: usize) -> Samples {
        Samples {
            kept: Vec::new(),
            cap,
            seen: 0,
            rng: Rng::new(seed, stream),
        }
    }

    pub fn push(&mut self, nanos: u64) {
        let v = u32::try_from(nanos).unwrap_or(u32::MAX);
        self.seen += 1;
        if self.kept.len() < self.cap {
            self.kept.push(v);
        } else {
            let j = self.rng.below(self.seen) as usize;
            if j < self.cap {
                self.kept[j] = v;
            }
        }
    }

    pub fn seen(&self) -> u64 {
        self.seen
    }

    /// Fold another thread's samples in. Exact while the total stays under
    /// the cap, which holds for every multi-threaded workload here.
    pub fn merge(&mut self, other: &Samples) {
        for &v in &other.kept {
            self.push(u64::from(v));
        }
    }

    pub fn kept(&self) -> &[u32] {
        &self.kept
    }

    pub fn sorted(&self) -> Vec<u32> {
        let mut v = self.kept.clone();
        v.sort_unstable();
        v
    }
}

/// The value at quantile `q` of an ascending slice, lowered as far as
/// needed so at least ten samples lie beyond it: a tail read from fewer
/// is one outlier, not a percentile. Returns the value and the quantile
/// actually used.
pub fn tail(sorted: &[u32], q: f64) -> (f64, f64) {
    let n = sorted.len();
    if n == 0 {
        return (0.0, 0.0);
    }
    let want = ((n as f64) * q) as usize;
    let idx = want.min(n.saturating_sub(11)).min(n - 1);
    (f64::from(sorted[idx]), idx as f64 / n as f64)
}

pub fn median_f64(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// Quartiles as Python's `statistics.quantiles(values, n=4)` gives them
/// (exclusive method), so `--agree` prints the spread the acceptance check
/// computes. Needs at least two values.
pub fn quartiles(values: &[f64]) -> Option<[f64; 3]> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n < 2 {
        return None;
    }
    let m = n + 1;
    let mut out = [0.0; 3];
    for (slot, i) in out.iter_mut().zip(1..4usize) {
        let j = (i * m / 4).clamp(1, n - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        *slot = (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0;
    }
    Some(out)
}

/// Interquartile range as a share of the median — the steadiness figure.
pub fn spread(values: &[f64]) -> f64 {
    match quartiles(values) {
        Some([q1, q2, q3]) if q2 != 0.0 => (q3 - q1) / q2.abs(),
        _ => 0.0,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_keeps_ten_samples_beyond() {
        let many: Vec<u32> = (0..2000).collect();
        let (v, q) = tail(&many, 0.99);
        assert_eq!(v, 1980.0);
        assert!((q - 0.99).abs() < 1e-9);
        // 100 samples: p99 would have one sample beyond it; the rule
        // lowers it to the value with exactly ten beyond.
        let few: Vec<u32> = (0..100).collect();
        let (v, q) = tail(&few, 0.99);
        assert_eq!(v, 89.0);
        assert!((q - 0.89).abs() < 1e-9);
        assert_eq!(few.len() - 1 - 89, 10);
        // Degenerate inputs do not panic.
        assert_eq!(tail(&[], 0.99), (0.0, 0.0));
        assert_eq!(tail(&[7], 0.5).0, 7.0);
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1,2,3,4,5,6,7,8,9,10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), Some([2.75, 5.5, 8.25]));
        // statistics.quantiles([10, 20], n=4) == [7.5, 15.0, 22.5]
        assert_eq!(quartiles(&[20.0, 10.0]), Some([7.5, 15.0, 22.5]));
        assert!((spread(&v) - 1.0).abs() < 1e-12);
        assert_eq!(quartiles(&[1.0]), None);
    }

    #[test]
    fn rng_is_deterministic_per_seed_and_stream() {
        let take = |seed, stream| {
            let mut r = Rng::new(seed, stream);
            (0..8).map(|_| r.next_u64()).collect::<Vec<_>>()
        };
        assert_eq!(take(1, 0), take(1, 0));
        assert_ne!(take(1, 0), take(2, 0));
        assert_ne!(take(1, 0), take(1, 1));
        let mut r = Rng::new(3, 0);
        let hits = (0..10_000).filter(|_| r.chance(0.25)).count();
        assert!((2200..2800).contains(&hits), "{hits}");
    }

    #[test]
    fn reservoir_is_exact_below_cap_and_bounded_above() {
        let mut s = Samples::new(1, 0);
        for i in 0..1000 {
            s.push(i);
        }
        assert_eq!(s.sorted(), (0..1000).collect::<Vec<u32>>());
        for i in 0..(Samples::CAP as u64 + 5000) {
            s.push(i);
        }
        assert_eq!(s.sorted().len(), Samples::CAP);
        assert_eq!(s.seen(), Samples::CAP as u64 + 6000);
        let mut small = Samples::with_cap(1, 0, 16);
        (0..1000).for_each(|i| small.push(i));
        assert_eq!((small.kept().len(), small.seen()), (16, 1000));
        assert!(
            small.kept().iter().any(|&v| v >= 16),
            "later samples get in"
        );
    }
}
