//! Seeded property tests: run a closure over `n` generated cases.
//!
//! No shrinking and no strategy combinators — a generator is a plain
//! `fn(&mut Rng) -> T`. Case `k` of property `name` always draws from
//! `Rng::new(mix(hash(name), k))`, so a failure report (name + case
//! index) is a complete repro: [`case`] replays exactly that input.

use crate::rng::{mix, Rng};

/// Run `property` on cases `0..n` of the stream named `name`.
pub fn cases(name: &str, n: u64, mut property: impl FnMut(&mut Rng)) {
    for k in 0..n {
        case(name, k, &mut property);
    }
}

/// Run `property` on case `k` alone. On panic, stderr names the case.
pub fn case(name: &str, k: u64, property: impl FnOnce(&mut Rng)) {
    let _report = Report { name, k };
    // FNV-1a over the name: every property gets its own stream.
    let hash = name.bytes().fold(0xCBF2_9CE4_8422_2325_u64, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01B3)
    });
    property(&mut Rng::new(mix(hash, k)));
}

struct Report<'a> {
    name: &'a str,
    k: u64,
}

impl Drop for Report<'_> {
    fn drop(&mut self) {
        if std::thread::panicking() {
            eprintln!(
                "property `{}` failed at case {} (replay: rda_obs::prop::case({:?}, {}, ..))",
                self.name, self.k, self.name, self.k
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::{case, cases};
    use crate::rng::Rng;
    use std::panic::catch_unwind;

    fn never_draws_a_three(rng: &mut Rng) {
        assert_ne!(rng.below(10), 3);
    }

    /// Runs the failing property in a child copy of this test binary
    /// (the extra `as-child` filter marks the child) to read its stderr.
    #[test]
    fn a_failing_property_names_its_case_and_replays() {
        const ME: &str = "prop::tests::a_failing_property_names_its_case_and_replays";
        if std::env::args().any(|a| a == "as-child") {
            cases("demo", 64, never_draws_a_three);
            return;
        }
        let out = std::process::Command::new(std::env::current_exe().unwrap())
            .args(["--exact", ME, "as-child", "--nocapture"])
            .output()
            .unwrap();
        assert!(!out.status.success(), "the child's property must fail");
        let stderr = String::from_utf8_lossy(&out.stderr);
        let tail = stderr
            .split("property `demo` failed at case ")
            .nth(1)
            .unwrap_or_else(|| panic!("no failure report on stderr:\n{stderr}"));
        let k: u64 = tail.split(' ').next().unwrap().parse().unwrap();
        assert!(catch_unwind(|| case("demo", k, never_draws_a_three)).is_err());
        for earlier in 0..k {
            case("demo", earlier, never_draws_a_three);
        }
    }
}
