//! Transaction scripts. The engine sees only what these produce; everything
//! here is a pure function of `--seed`.

use crate::stats::Rng;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Op {
    Read(u32),
    Write(u32),
}

#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Script {
    pub ops: Vec<Op>,
    /// End with `abort()` instead of `commit()` (the model's `p_b`).
    pub aborts: bool,
}

/// The three transaction shapes the six workloads are built from.
#[derive(Debug, Clone)]
pub enum Shape {
    /// The paper's §5 environment, as `rda-sim`'s `WorkloadSpec` draws it:
    /// `s` accesses; a fraction `f_u` of transactions update, each of their
    /// accesses with probability `p_u`; `hot_fraction` of accesses go to a
    /// hot set of `hot_pages` spread evenly over the address space.
    Reuter {
        pages: u32,
        s: usize,
        f_u: f64,
        p_u: f64,
        p_b: f64,
        hot_fraction: f64,
        hot_pages: u32,
    },
    /// `perf_backend`'s durable-path transaction: `per_txn` page writes at
    /// a stride of 13 pages, so consecutive writes land in different parity
    /// groups. With `lanes > 1`, lane `lane` only touches parity groups
    /// `g ≡ lane (mod lanes)`, so concurrent lanes never share a group.
    Strided {
        pages: u32,
        group: u32,
        per_txn: u32,
        lane: u32,
        lanes: u32,
        next: u64,
        /// Where in the pattern this run starts; drawn from the seed on
        /// first use.
        start: Option<u64>,
    },
    /// `per_txn` writes to uniformly random pages of the whole range: on a
    /// sharded engine most transactions cross shards, and two threads
    /// collide on pages now and then.
    Uniform { pages: u32, per_txn: usize },
}

impl Shape {
    /// `WorkloadSpec::high_update(pages, hot).locality(hot_fraction)`:
    /// s = 10, f_u = 0.8, p_u = 0.9, p_b = 0.01.
    pub fn high_update(pages: u32, hot_pages: u32, hot_fraction: f64) -> Shape {
        Shape::Reuter {
            pages,
            s: 10,
            f_u: 0.8,
            p_u: 0.9,
            p_b: 0.01,
            hot_fraction,
            hot_pages,
        }
    }

    /// `WorkloadSpec::high_retrieval(pages, hot).locality(hot_fraction)`:
    /// s = 40, f_u = 0.1, p_u = 0.3, p_b = 0.01.
    pub fn high_retrieval(pages: u32, hot_pages: u32, hot_fraction: f64) -> Shape {
        Shape::Reuter {
            pages,
            s: 40,
            f_u: 0.1,
            p_u: 0.3,
            p_b: 0.01,
            hot_fraction,
            hot_pages,
        }
    }

    pub fn strided(pages: u32, lane: u32, lanes: u32) -> Shape {
        Shape::Strided {
            pages,
            group: 10,
            per_txn: 8,
            lane,
            lanes,
            next: 0,
            start: None,
        }
    }

    /// Pin a strided pattern's starting page instead of drawing it from the
    /// seed (`file-restart` measures one fixed crash image).
    pub fn starting_at(mut self, page: u64) -> Shape {
        if let Shape::Strided { start, .. } = &mut self {
            *start = Some(page);
        }
        self
    }

    /// Write the next transaction into `out`, reusing its allocation.
    pub fn fill(&mut self, rng: &mut Rng, out: &mut Script) {
        out.ops.clear();
        out.aborts = false;
        match self {
            Shape::Reuter {
                pages,
                s,
                f_u,
                p_u,
                p_b,
                hot_fraction,
                hot_pages,
            } => {
                let update_txn = rng.chance(*f_u);
                let hot = (*hot_pages).clamp(1, *pages);
                let stride = (*pages / hot).max(1);
                for _ in 0..*s {
                    let page = if rng.chance(*hot_fraction) {
                        (rng.below(u64::from(hot)) as u32 * stride) % *pages
                    } else {
                        rng.below(u64::from(*pages)) as u32
                    };
                    out.ops.push(if update_txn && rng.chance(*p_u) {
                        Op::Write(page)
                    } else {
                        Op::Read(page)
                    });
                }
                out.aborts = rng.chance(*p_b);
            }
            Shape::Strided {
                pages,
                group,
                per_txn,
                lane,
                lanes,
                next,
                start,
            } => {
                let lane_pages = u64::from(*pages / *lanes);
                let start = *start.get_or_insert_with(|| rng.below(lane_pages));
                for j in 0..*per_txn {
                    let step = *next * u64::from(*per_txn) + u64::from(j);
                    let x = ((start + step * 13) % lane_pages) as u32;
                    let g = (x / *group) * *lanes + *lane;
                    out.ops.push(Op::Write(g * *group + x % *group));
                }
                *next += 1;
            }
            Shape::Uniform { pages, per_txn } => {
                for _ in 0..*per_txn {
                    out.ops.push(Op::Write(rng.below(u64::from(*pages)) as u32));
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn draw(shape: &Shape, seed: u64, n: usize) -> Vec<Script> {
        let mut shape = shape.clone();
        let mut rng = Rng::new(seed, 0);
        (0..n)
            .map(|_| {
                let mut s = Script::default();
                shape.fill(&mut rng, &mut s);
                s
            })
            .collect()
    }

    #[test]
    fn same_seed_same_scripts_other_seed_other_scripts() {
        for shape in [
            Shape::high_update(5000, 280, 0.8),
            Shape::high_retrieval(5000, 280, 0.2),
            Shape::Uniform {
                pages: 5000,
                per_txn: 3,
            },
            Shape::strided(5000, 0, 1),
        ] {
            assert_eq!(draw(&shape, 7, 50), draw(&shape, 7, 50));
            assert_ne!(draw(&shape, 7, 50), draw(&shape, 8, 50));
        }
    }

    #[test]
    fn reuter_mix_matches_its_parameters() {
        let scripts = draw(&Shape::high_update(5000, 280, 0.8), 11, 4000);
        assert!(scripts.iter().all(|s| s.ops.len() == 10));
        let updaters = scripts
            .iter()
            .filter(|s| s.ops.iter().any(|o| matches!(o, Op::Write(_))))
            .count();
        assert!((3000..3400).contains(&updaters), "f_u = 0.8: {updaters}");
        let aborts = scripts.iter().filter(|s| s.aborts).count();
        assert!((15..80).contains(&aborts), "p_b = 0.01: {aborts}");
        assert!(scripts
            .iter()
            .flat_map(|s| &s.ops)
            .all(|o| matches!(o, Op::Read(p) | Op::Write(p) if *p < 5000)));
    }

    #[test]
    fn strided_lanes_never_share_a_parity_group() {
        let groups = |lane| -> std::collections::BTreeSet<u32> {
            draw(&Shape::strided(5000, lane, 2), 1, 400)
                .iter()
                .flat_map(|s| s.ops.clone())
                .map(|o| match o {
                    Op::Read(p) | Op::Write(p) => p / 10,
                })
                .collect()
        };
        let (a, b) = (groups(0), groups(1));
        assert!(a.iter().all(|g| g % 2 == 0) && b.iter().all(|g| g % 2 == 1));
        assert!(a.len() > 200 && b.len() > 200, "lanes cover their half");
        // One lane is perf_backend's pattern from a seeded starting page.
        let one = draw(&Shape::strided(5000, 0, 1), 1, 2);
        let (Op::Write(a), Op::Write(b)) = (one[0].ops[0], one[0].ops[1]) else {
            panic!("strided transactions only write");
        };
        assert_eq!(b, (a + 13) % 5000);
        assert_eq!(one[1].ops[0], Op::Write((a + 104) % 5000));
        let pinned = draw(&Shape::strided(5000, 0, 1).starting_at(0), 1, 2);
        assert_eq!(
            pinned,
            draw(&Shape::strided(5000, 0, 1).starting_at(0), 2, 2)
        );
        assert_eq!(pinned[0].ops[1], Op::Write(13));
    }
}
