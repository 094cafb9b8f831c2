//! Seeded schedule generation.
//!
//! Schedules are a pure function of `(stream, seed, index)`: per-slot
//! transaction scripts are interleaved by a seeded round-robin so
//! transactions genuinely overlap, then spiked with whole-machine events.
//! Two [`Stream`]s feed the same sweep. The classic one ([`generate`])
//! pins one shard and skews page choice onto the first two parity groups
//! — group collisions are where the steal/twin protocol (one parity rider
//! per group, overflow to the UNDO log) actually runs. The threaded one
//! ([`generate_threaded`]) also draws the shard count and the
//! group-commit gate and spreads pages over all four groups, so
//! multi-page transactions routinely cross shards.

use crate::schedule::{DbKnobs, FaultPoint, SchedOp, Schedule, MAX_SLOTS, PAGES};
use crate::sim::{Access, AccessKind, TxnScript};
use rda_array::FaultKind;
use rda_obs::rng::{mix, Rng};

/// Generate the `index`-th schedule of the stream named by `seed`.
#[must_use]
pub fn generate(seed: u64, index: u64) -> Schedule {
    let mut rng = Rng::new(Stream::Classic.schedule_seed(seed, index));
    let knobs = DbKnobs {
        frames: [2, 3, 4, 6][rng.below(4) as usize],
        force: rng.chance(70),
        strict: rng.chance(50),
        shards: 1,
        group_commit: false,
    };

    // Per-slot scripts in the sim vocabulary.
    let txns = 2 + rng.below(3) as usize; // 2..=4 concurrent roles
    let mut scripts: Vec<TxnScript> = (0..txns)
        .map(|_| {
            let nops = 1 + rng.below(4) as usize; // 1..=4 accesses
            let accesses = (0..nops)
                .map(|_| {
                    // 60% of traffic lands on the first two parity groups.
                    let page = if rng.chance(60) {
                        rng.below(8) as u32
                    } else {
                        rng.below(u64::from(PAGES)) as u32
                    };
                    let kind = if rng.chance(70) {
                        AccessKind::Update
                    } else {
                        AccessKind::Read
                    };
                    Access { page, kind }
                })
                .collect();
            if rng.chance(20) {
                TxnScript::aborting(accesses)
            } else {
                TxnScript::committing(accesses)
            }
        })
        .collect();

    // Interleave: seeded round-robin over the remaining scripts.
    let mut ops = Vec::new();
    let mut cursor = vec![0usize; txns];
    let mut begun = vec![false; txns];
    loop {
        let open: Vec<usize> = (0..txns)
            .filter(|&s| cursor[s] <= scripts[s].accesses.len())
            .collect();
        if open.is_empty() {
            break;
        }
        let slot = open[rng.below(open.len() as u64) as usize];
        debug_assert!(slot < MAX_SLOTS);
        if !begun[slot] {
            begun[slot] = true;
            ops.push(SchedOp::Begin { slot });
        }
        if cursor[slot] == scripts[slot].accesses.len() {
            ops.push(if scripts[slot].aborts {
                SchedOp::Abort { slot }
            } else {
                SchedOp::Commit { slot }
            });
            cursor[slot] += 1; // past the end: closed
            continue;
        }
        let access = scripts[slot].accesses[cursor[slot]];
        cursor[slot] += 1;
        ops.push(match access.kind {
            AccessKind::Read => SchedOp::Read {
                slot,
                page: access.page,
            },
            AccessKind::Update => SchedOp::Write {
                slot,
                page: access.page,
                // Odd and non-zero, so every write is visible against the
                // zero-filled initial state and against torn halves.
                val: (rng.next_u64() & 0xFF) as u8 | 1,
            },
        });
    }
    scripts.clear();

    // Whole-machine events.
    if rng.chance(25) {
        let at = rng.below(ops.len() as u64 + 1) as usize;
        ops.insert(at, SchedOp::CrashRestart);
    }
    if rng.chance(15) {
        // Kill one disk mid-schedule and rebuild it later (media recovery
        // skips itself while transactions are active, so a "too early"
        // rebuild point is deterministic too — the final cleanup rebuilds).
        let disk = rng.below(6) as u16; // rotated parity, n=4, twin → 6 disks
        let at = rng.below(ops.len() as u64 + 1) as usize;
        ops.insert(at, SchedOp::FailDisk { disk });
        let later = at + 1 + rng.below((ops.len() - at) as u64) as usize;
        ops.insert(later, SchedOp::MediaRecover { disk });
    }

    Schedule {
        name: format!("g{seed:016x}-{index}"),
        knobs,
        ops,
        fault: None,
    }
}

/// One transaction at a time, in slot 0: each script's accesses, then its
/// commit or abort. Write `pos` of script `t` stores the odd byte
/// `37·(16t + pos) | 1`, so a recovered page names the write it holds.
/// Pages must lie below [`PAGES`].
#[must_use]
pub fn sequential(name: &str, knobs: DbKnobs, scripts: &[TxnScript]) -> Schedule {
    let slot = 0;
    let mut ops = Vec::new();
    for (t, script) in scripts.iter().enumerate() {
        ops.push(SchedOp::Begin { slot });
        for (pos, access) in script.accesses.iter().enumerate() {
            debug_assert!(access.page < PAGES);
            let page = access.page;
            ops.push(match access.kind {
                AccessKind::Read => SchedOp::Read { slot, page },
                AccessKind::Update => SchedOp::Write {
                    slot,
                    page,
                    val: (37 * (16 * t + pos)) as u8 | 1,
                },
            });
        }
        ops.push(if script.aborts {
            SchedOp::Abort { slot }
        } else {
            SchedOp::Commit { slot }
        });
    }
    Schedule {
        name: name.to_string(),
        knobs,
        ops,
        fault: None,
    }
}

/// Salt folded into the master seed so the threaded stream is
/// independent of the classic generator's at the same seed.
const THREADED_SALT: u64 = 0x7468_7264_7363_6864; // "thrdschd"

/// Generate the `index`-th threaded schedule of the stream named by
/// `seed`: seeded shard/gate knobs, per-thread scripts, a seeded
/// round-robin interleaving, and whole-machine events. Page choice is
/// spread over all four parity groups so multi-page transactions
/// routinely cross shards.
#[must_use]
pub fn generate_threaded(seed: u64, index: u64) -> Schedule {
    let mut rng = Rng::new(Stream::Threaded.schedule_seed(seed, index));
    let knobs = DbKnobs {
        frames: [2, 3, 4, 6][rng.below(4) as usize],
        force: rng.chance(70),
        strict: rng.chance(50),
        shards: [1, 2, 4][rng.below(3) as usize],
        group_commit: rng.chance(50),
    };

    let threads = 2 + rng.below(3) as usize; // 2..=4 concurrent threads
    let mut scripts: Vec<Vec<SchedOp>> = Vec::with_capacity(threads);
    for slot in 0..threads {
        let nops = 1 + rng.below(4) as usize;
        let mut ops = Vec::with_capacity(nops + 1);
        for _ in 0..nops {
            // Half the traffic lands anywhere (cross-shard candidates),
            // half on the thread's "home" group (single-shard traffic).
            let page = if rng.chance(50) {
                rng.below(u64::from(PAGES)) as u32
            } else {
                (slot as u32 % 4) * 4 + rng.below(4) as u32
            };
            ops.push(if rng.chance(70) {
                SchedOp::Write {
                    slot,
                    page,
                    val: (rng.next_u64() & 0xFF) as u8 | 1,
                }
            } else {
                SchedOp::Read { slot, page }
            });
        }
        ops.push(if rng.chance(20) {
            SchedOp::Abort { slot }
        } else {
            SchedOp::Commit { slot }
        });
        scripts.push(ops);
    }

    // Interleave: seeded round-robin, Begin injected at first touch.
    let mut ops = Vec::new();
    let mut cursor = vec![0usize; threads];
    let mut begun = vec![false; threads];
    loop {
        let open: Vec<usize> = (0..threads)
            .filter(|&s| cursor[s] < scripts[s].len())
            .collect();
        if open.is_empty() {
            break;
        }
        let slot = open[rng.below(open.len() as u64) as usize];
        debug_assert!(slot < MAX_SLOTS);
        if !begun[slot] {
            begun[slot] = true;
            ops.push(SchedOp::Begin { slot });
        }
        ops.push(scripts[slot][cursor[slot]]);
        cursor[slot] += 1;
    }

    // Whole-machine events.
    if rng.chance(25) {
        let at = rng.below(ops.len() as u64 + 1) as usize;
        ops.insert(at, SchedOp::CrashRestart);
    }
    if rng.chance(15) {
        // 6 disks per shard (rotated parity, n = 4, twin).
        let disk = rng.below(6 * u64::from(knobs.shards)) as u16;
        let at = rng.below(ops.len() as u64 + 1) as usize;
        ops.insert(at, SchedOp::FailDisk { disk });
        let later = at + 1 + rng.below((ops.len() - at) as u64) as usize;
        ops.insert(later, SchedOp::MediaRecover { disk });
    }

    Schedule {
        name: format!("t{seed:016x}-{index}"),
        knobs,
        ops,
        fault: None,
    }
}

/// Which seeded generator feeds a sweep. Both produce the same
/// [`Schedule`] type for the same executor; they differ in knob ranges,
/// page skew and name prefix, and are salted apart so the two streams are
/// independent at the same master seed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Stream {
    /// [`generate`]: one shard, no gate, traffic skewed onto two groups.
    Classic,
    /// [`generate_threaded`]: seeded shards and gate, cross-shard traffic.
    Threaded,
}

impl Stream {
    /// The stream's `index`-th schedule under master seed `seed`.
    #[must_use]
    pub fn generate(self, seed: u64, index: u64) -> Schedule {
        match self {
            Stream::Classic => generate(seed, index),
            Stream::Threaded => generate_threaded(seed, index),
        }
    }

    /// The per-schedule seed of this stream (what the generator and the
    /// sweep's fault-point sampler both derive from).
    #[must_use]
    pub fn schedule_seed(self, seed: u64, index: u64) -> u64 {
        match self {
            Stream::Classic => mix(seed, index),
            Stream::Threaded => mix(seed ^ THREADED_SALT, index),
        }
    }
}

/// The fault kind to try for the `j`-th fault variant of a schedule —
/// cycles crash → torn write → disk death.
#[must_use]
pub fn fault_kind_cycle(j: usize) -> FaultKind {
    match j % 3 {
        0 => FaultKind::Crash,
        1 => FaultKind::TornWrite,
        _ => FaultKind::FailDisk,
    }
}

/// Build the `j`-th fault variant of `base` at global I/O `k`.
#[must_use]
pub fn fault_variant(base: &Schedule, j: usize, k: u64) -> Schedule {
    base.with_fault(FaultPoint {
        kind: fault_kind_cycle(j),
        at_io: k,
    })
}
