//! Property tests: arbitrary interleaved histories — writes, commits,
//! aborts, crashes, checkpoints — executed against the real engine and an
//! in-memory oracle must agree on the visible database state, and the
//! array's parity invariants must hold at every quiescent point.

use rda_array::{ArrayConfig, Organization};
use rda_buffer::BufferConfig;
use rda_core::{Database, DbConfig, DbError, EngineKind, EotPolicy, LogGranularity, Transaction};
use rda_obs::prop;
use rda_obs::rng::Rng;
use rda_wal::LogConfig;
use std::collections::HashMap;

const PAGE: usize = 32;
const PAGES: u32 = 24; // 6 groups of 4
const TXN_SLOTS: usize = 3;

#[derive(Debug, Clone)]
enum Op {
    Write { slot: usize, page: u32, val: u8 },
    Commit { slot: usize },
    Abort { slot: usize },
    CrashRecover,
    Checkpoint,
}

/// Weights 6 : 2 : 2 : 1 : 1.
fn gen_op(rng: &mut Rng) -> Op {
    let slot = rng.below(TXN_SLOTS as u64) as usize;
    match rng.below(12) {
        0..=5 => Op::Write {
            slot,
            page: rng.below(u64::from(PAGES)) as u32,
            val: rng.next_u64() as u8,
        },
        6 | 7 => Op::Commit { slot },
        8 | 9 => Op::Abort { slot },
        10 => Op::CrashRecover,
        _ => Op::Checkpoint,
    }
}

/// 1..60 ops and 2..10 frames, as every engine/policy property draws.
fn gen_history(rng: &mut Rng) -> (Vec<Op>, usize) {
    let ops = (0..=rng.below(59)).map(|_| gen_op(rng)).collect();
    (ops, 2 + rng.below(8) as usize)
}

fn config(engine: EngineKind, eot: EotPolicy, frames: usize) -> DbConfig {
    DbConfig {
        array: ArrayConfig::new(Organization::RotatedParity, 4, 6)
            .twin(engine == EngineKind::Rda)
            .page_size(PAGE),
        buffer: BufferConfig::steal_clock(frames),
        log: LogConfig {
            page_size: 128,
            copies: 1,
            amortized: false,
        },
        eot,
        ..DbConfig::small_test(engine)
    }
}

/// In-memory oracle: committed state plus per-transaction overlays.
#[derive(Default)]
struct Oracle {
    committed: HashMap<u32, u8>,
    overlays: Vec<HashMap<u32, u8>>,
}

fn run_history(engine: EngineKind, eot: EotPolicy, frames: usize, ops: &[Op]) {
    let db = &Database::open(config(engine, eot, frames));
    let mut oracle = Oracle {
        committed: HashMap::new(),
        overlays: vec![HashMap::new(); TXN_SLOTS],
    };
    let mut handles: Vec<Option<Transaction>> = (0..TXN_SLOTS).map(|_| None).collect();

    let check_committed = |oracle: &Oracle| {
        for page in 0..PAGES {
            let expect = oracle.committed.get(&page).copied().unwrap_or(0);
            let got = db.read_page(page).unwrap();
            assert_eq!(got[0], expect, "page {page} committed-state mismatch");
        }
    };

    for op in ops {
        match op {
            Op::Write { slot, page, val } => {
                if handles[*slot].is_none() {
                    handles[*slot] = Some(db.begin());
                }
                let tx = handles[*slot].as_mut().unwrap();
                match tx.write(*page, &[*val]) {
                    Ok(()) => {
                        oracle.overlays[*slot].insert(*page, *val);
                    }
                    Err(DbError::LockConflict { .. }) => {} // dropped op
                    Err(e) => panic!("unexpected write error: {e}"),
                }
            }
            Op::Commit { slot } => {
                if let Some(tx) = handles[*slot].take() {
                    tx.commit().unwrap();
                    let overlay = std::mem::take(&mut oracle.overlays[*slot]);
                    oracle.committed.extend(overlay);
                }
            }
            Op::Abort { slot } => {
                if let Some(tx) = handles[*slot].take() {
                    tx.abort().unwrap();
                    oracle.overlays[*slot].clear();
                }
            }
            Op::CrashRecover => {
                for h in &mut handles {
                    if let Some(tx) = h.take() {
                        std::mem::forget(tx); // handle dies with the crash
                    }
                }
                db.crash_and_recover().unwrap();
                for overlay in &mut oracle.overlays {
                    overlay.clear();
                }
                check_committed(&oracle);
            }
            Op::Checkpoint => {
                db.checkpoint().unwrap();
            }
        }
    }
    // Finish everything and verify the final state.
    for h in &mut handles {
        if let Some(tx) = h.take() {
            tx.abort().unwrap();
        }
    }
    for overlay in &mut oracle.overlays {
        overlay.clear();
    }
    check_committed(&oracle);
    assert!(db.verify().unwrap().is_empty(), "parity invariant violated");
}

const ENGINES: [(EngineKind, EotPolicy); 4] = [
    (EngineKind::Rda, EotPolicy::Force),
    (EngineKind::Rda, EotPolicy::NoForce),
    (EngineKind::Wal, EotPolicy::Force),
    (EngineKind::Wal, EotPolicy::NoForce),
];

fn agrees_with_oracle(name: &str, engine: EngineKind, eot: EotPolicy) {
    prop::cases(name, 48, |rng| {
        let (ops, frames) = gen_history(rng);
        run_history(engine, eot, frames, &ops);
    });
}

#[test]
fn rda_force_agrees_with_oracle() {
    agrees_with_oracle("rda_force", EngineKind::Rda, EotPolicy::Force);
}

#[test]
fn rda_noforce_agrees_with_oracle() {
    agrees_with_oracle("rda_noforce", EngineKind::Rda, EotPolicy::NoForce);
}

#[test]
fn wal_force_agrees_with_oracle() {
    agrees_with_oracle("wal_force", EngineKind::Wal, EotPolicy::Force);
}

#[test]
fn wal_noforce_agrees_with_oracle() {
    agrees_with_oracle("wal_noforce", EngineKind::Wal, EotPolicy::NoForce);
}

/// Inputs a shrinking property-test run once reduced a failure to; each runs on all four
/// engine/policy pairs, as the regression file replayed them.
#[test]
fn pinned_overwrite_then_checkpoint_then_crash() {
    let ops = [
        Op::Write {
            slot: 2,
            page: 23,
            val: 1,
        },
        Op::Commit { slot: 2 },
        Op::Write {
            slot: 0,
            page: 23,
            val: 0,
        },
        Op::Checkpoint,
        Op::CrashRecover,
    ];
    for (engine, eot) in ENGINES {
        run_history(engine, eot, 2, &ops);
    }
}

#[test]
fn pinned_long_transaction_reuses_a_committed_page() {
    let w = |slot, page, val| Op::Write { slot, page, val };
    let ops = [
        w(0, 2, 0),
        w(2, 14, 1),
        w(0, 3, 0),
        w(0, 4, 0),
        Op::Commit { slot: 2 },
        w(0, 14, 0),
        w(0, 5, 0),
        w(0, 0, 0),
        w(0, 6, 0),
    ];
    for (engine, eot) in ENGINES {
        run_history(engine, eot, 3, &ops);
    }
}

/// One record-mode step: `(slot, page, val, end_commit, do_end)`.
type RecordOp = (usize, u32, u8, bool, bool);

/// Record-granularity histories: single-writer-per-slot byte ranges.
fn run_record_history(ops: &[RecordOp], frames: usize) {
    // Each slot owns a distinct byte range of any page, so lock
    // conflicts cannot occur and the oracle stays simple.
    let db = Database::open(
        config(EngineKind::Rda, EotPolicy::Force, frames).granularity(LogGranularity::Record),
    );
    let mut committed: HashMap<(u32, usize), u8> = HashMap::new();
    let mut overlays: Vec<HashMap<(u32, usize), u8>> = vec![HashMap::new(); TXN_SLOTS];
    let mut handles: Vec<Option<Transaction>> = (0..TXN_SLOTS).map(|_| None).collect();
    for &(slot, page, val, end_commit, do_end) in ops {
        let offset = slot * 8; // slot-owned range
        if handles[slot].is_none() {
            handles[slot] = Some(db.begin());
        }
        let tx = handles[slot].as_mut().unwrap();
        match tx.update(page, offset, &[val]) {
            Ok(()) => {
                overlays[slot].insert((page, offset), val);
            }
            // A page that rode the parity is escalated to an exclusive
            // page lock, so even disjoint ranges can conflict.
            Err(DbError::LockConflict { .. }) => {}
            Err(e) => panic!("unexpected update error: {e}"),
        }
        if do_end {
            let tx = handles[slot].take().unwrap();
            if end_commit {
                tx.commit().unwrap();
                committed.extend(std::mem::take(&mut overlays[slot]));
            } else {
                tx.abort().unwrap();
                overlays[slot].clear();
            }
        }
    }
    for (slot, h) in handles.iter_mut().enumerate() {
        if let Some(tx) = h.take() {
            tx.abort().unwrap();
            overlays[slot].clear();
        }
    }
    for ((page, offset), val) in &committed {
        let got = db.read_page(*page).unwrap();
        assert_eq!(got[*offset], *val, "page {page} offset {offset}");
    }
    assert!(db.verify().unwrap().is_empty());
}

#[test]
fn rda_record_mode_agrees_with_oracle() {
    prop::cases("rda_record_mode", 48, |rng| {
        let ops: Vec<RecordOp> = (0..=rng.below(48))
            .map(|_| {
                (
                    rng.below(TXN_SLOTS as u64) as usize,
                    rng.below(u64::from(PAGES)) as u32,
                    rng.next_u64() as u8,
                    rng.chance(50),
                    rng.chance(50),
                )
            })
            .collect();
        run_record_history(&ops, 2 + rng.below(6) as usize);
    });
}

/// The three record-mode inputs the regression file held (its unused
/// `quarter` column dropped).
const T: bool = true;
const F: bool = false;

#[test]
fn pinned_record_abort_after_shared_pages() {
    run_record_history(
        &[
            (1, 16, 1, F, F),
            (0, 16, 0, F, F),
            (1, 0, 0, F, F),
            (0, 0, 0, F, F),
            (1, 1, 0, F, T),
            (1, 2, 0, F, F),
            (0, 3, 0, F, F),
            (0, 4, 0, F, F),
        ],
        3,
    );
}

#[test]
fn pinned_record_three_slots_on_page_17() {
    run_record_history(
        &[
            (1, 17, 0, T, T),
            (0, 2, 0, F, F),
            (0, 0, 0, F, F),
            (0, 5, 0, F, F),
            (0, 1, 0, F, F),
            (0, 3, 0, F, F),
            (0, 6, 0, F, F),
            (1, 17, 1, F, F),
            (2, 17, 0, F, F),
            (0, 7, 43, F, F),
            (1, 4, 43, T, F),
            (2, 23, 231, T, T),
            (2, 15, 201, T, F),
            (0, 22, 239, T, F),
            (2, 1, 105, F, F),
        ],
        6,
    );
}

#[test]
fn pinned_record_commit_after_two_slot_overlap() {
    run_record_history(
        &[
            (0, 4, 0, F, F),
            (0, 7, 0, F, F),
            (0, 0, 0, F, F),
            (0, 1, 0, F, F),
            (1, 5, 0, F, F),
            (1, 8, 0, F, F),
            (1, 7, 0, F, F),
            (0, 0, 0, T, T),
        ],
        2,
    );
}
