//! The workspace's one seeded generator.
//!
//! Everything that draws pseudo-random input — checker schedules,
//! fault-point sampling, sim workloads, property tests — draws from this
//! xorshift64, so a seed names the same input on every machine and no
//! external crate's stream stability is part of a test's meaning.

/// Tiny xorshift64 generator (shifts 13/7/17).
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// Seeded generator (a zero seed is mapped to a fixed odd constant).
    #[must_use]
    pub fn new(seed: u64) -> Rng {
        Rng(if seed == 0 {
            0x9E37_79B9_7F4A_7C15
        } else {
            seed
        })
    }

    /// Next raw value.
    pub fn next_u64(&mut self) -> u64 {
        self.0 ^= self.0 << 13;
        self.0 ^= self.0 >> 7;
        self.0 ^= self.0 << 17;
        self.0
    }

    /// Uniform draw in `0..n` (n > 0).
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }

    /// True with probability `percent`/100.
    pub fn chance(&mut self, percent: u64) -> bool {
        self.below(100) < percent
    }

    /// True with probability `p` (the sim's real-valued rates).
    pub fn bool(&mut self, p: f64) -> bool {
        ((self.next_u64() >> 11) as f64) < p * (1u64 << 53) as f64
    }
}

/// Mix a master seed with an index into an independent stream
/// (splitmix64 finalizer).
#[must_use]
pub fn mix(seed: u64, index: u64) -> u64 {
    let mut z = seed ^ index.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

#[cfg(test)]
mod tests {
    use super::{mix, Rng};

    /// The checker's streams are part of what its reports mean; these
    /// values must never move.
    #[test]
    fn golden_first_four_outputs() {
        let first4 = |seed| {
            let mut r = Rng::new(seed);
            format!("{:016x?}", [(); 4].map(|()| r.next_u64()))
        };
        let golden = [
            (
                0,
                "[dc1b77ae0bf34dad, 64f0eeb9026e6076, 7b07ce91e5906136, 305f050c368dcc74]",
            ),
            (
                1,
                "[0000000040822041, 100041060c011441, 9b1e842f6e862629, f554f503555d8025]",
            ),
            (
                mix(0x1992, 7),
                "[03b8f527dc1c3b44, 7054113db7a65232, 729a9eb14b37d216, 7c7e1297ee73f832]",
            ),
        ];
        assert_eq!(mix(0x1992, 7), 0xA41F_39F6_D1F7_58B5);
        for (seed, outputs) in golden {
            assert_eq!(first4(seed), outputs, "seed {seed:#x}");
        }
    }

    #[test]
    fn bool_tracks_its_probability() {
        let mut r = Rng::new(42);
        assert!((0..1000).all(|_| !r.bool(0.0)));
        assert!((0..1000).all(|_| r.bool(1.0)));
        let hits = (0..10_000).filter(|_| r.bool(0.3)).count();
        assert!((2_700..3_300).contains(&hits), "{hits}");
    }
}
