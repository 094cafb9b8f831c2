//! Property test: arbitrary insert/delete/commit/abort/crash histories on
//! the B+-tree agree with a `BTreeMap` oracle — including iteration order
//! and range semantics.
//!
//! The checked body lives in [`check_history`], shared by the seeded
//! property, the pinned regression inputs and a split-then-crash history:
//! enough uncommitted inserts to split leaves and grow an internal level,
//! then a crash, so restart recovery has to roll back *index pages* (node
//! splits, parent updates), not just leaf bytes.

use rda_array::{ArrayConfig, Organization};
use rda_buffer::{BufferConfig, ReplacePolicy};
use rda_core::{Database, DbConfig, EngineKind, EotPolicy, LogGranularity};
use rda_kv::BTree;
use rda_obs::prop;
use rda_obs::rng::Rng;
use rda_wal::LogConfig;
use std::collections::BTreeMap;

#[derive(Debug, Clone)]
enum Op {
    Insert(u8, u8),
    Delete(u8),
    Commit,
    Abort,
    CrashRecover,
}

/// Weights 6 : 2 : 2 : 1 : 1.
fn gen_op(rng: &mut Rng) -> Op {
    let key = rng.below(40) as u8;
    match rng.below(12) {
        0..=5 => Op::Insert(key, rng.next_u64() as u8),
        6 | 7 => Op::Delete(key),
        8 | 9 => Op::Commit,
        10 => Op::Abort,
        _ => Op::CrashRecover,
    }
}

fn cfg() -> DbConfig {
    DbConfig {
        engine: EngineKind::Rda,
        array: ArrayConfig::new(Organization::RotatedParity, 4, 30)
            .twin(true)
            .page_size(96),
        buffer: BufferConfig {
            frames: 8,
            steal: true,
            policy: ReplacePolicy::Clock,
        },
        log: LogConfig {
            page_size: 256,
            copies: 1,
            amortized: false,
        },
        granularity: LogGranularity::Record,
        eot: EotPolicy::Force,
        ..DbConfig::small_test(EngineKind::Rda)
    }
}

fn key(k: u8) -> Vec<u8> {
    format!("key-{k:03}").into_bytes()
}

/// Replay one history against the tree and the oracle; every divergence
/// is a test failure.
fn check_history(ops: &[Op]) {
    let tree = BTree::create(Database::open(cfg())).unwrap();
    let mut committed: BTreeMap<u8, u8> = BTreeMap::new();
    let mut working: BTreeMap<u8, u8> = BTreeMap::new();
    let mut tx = None;

    for op in ops {
        match *op {
            Op::Insert(k, v) => {
                let t = tx.get_or_insert_with(|| tree.db().begin());
                tree.insert(t, &key(k), &[v]).unwrap();
                working.insert(k, v);
            }
            Op::Delete(k) => {
                let t = tx.get_or_insert_with(|| tree.db().begin());
                let existed = tree.delete(t, &key(k)).unwrap();
                assert_eq!(existed, working.remove(&k).is_some(), "delete {k}");
            }
            Op::Commit => {
                if let Some(t) = tx.take() {
                    t.commit().unwrap();
                    committed = working.clone();
                }
            }
            Op::Abort => {
                if let Some(t) = tx.take() {
                    t.abort().unwrap();
                    working = committed.clone();
                }
            }
            Op::CrashRecover => {
                if let Some(t) = tx.take() {
                    std::mem::forget(t);
                }
                tree.db().crash_and_recover().unwrap();
                working = committed.clone();
            }
        }
    }
    if let Some(t) = tx.take() {
        t.abort().unwrap();
        working = committed.clone();
    }
    let _ = working;

    // Final state: ordered scan equals the oracle exactly.
    let mut t = tree.db().begin();
    let scan = tree.scan_all(&mut t).unwrap();
    let expect: Vec<(Vec<u8>, Vec<u8>)> =
        committed.iter().map(|(k, v)| (key(*k), vec![*v])).collect();
    assert_eq!(scan, expect);
    // Spot-check point lookups and a range.
    for k8 in [0u8, 13, 27, 39] {
        let got = tree.get(&mut t, &key(k8)).unwrap();
        assert_eq!(got, committed.get(&k8).map(|v| vec![*v]), "key {k8}");
    }
    let range = tree.range(&mut t, &key(10), &key(30)).unwrap();
    let expect_range: Vec<_> = committed
        .range(10..30)
        .map(|(k, v)| (key(*k), vec![*v]))
        .collect();
    assert_eq!(range, expect_range);
    t.abort().unwrap();
    assert!(tree.db().verify().unwrap().is_empty());
}

#[test]
fn btree_agrees_with_oracle() {
    prop::cases("btree_agrees_with_oracle", 24, |rng| {
        let ops: Vec<Op> = (0..=rng.below(49)).map(|_| gen_op(rng)).collect();
        check_history(&ops);
    });
}

/// The two inputs a shrinking property-test run once reduced a failure to.
#[test]
fn pinned_crash_after_four_uncommitted_inserts() {
    check_history(&[
        Op::Insert(0, 1),
        Op::Insert(4, 1),
        Op::Insert(8, 1),
        Op::Insert(12, 1),
        Op::CrashRecover,
    ]);
}

#[test]
fn pinned_delete_after_crashed_overwrite() {
    check_history(&[
        Op::Insert(17, 2),
        Op::Commit,
        Op::Insert(17, 3),
        Op::CrashRecover,
        Op::Delete(17),
    ]);
}

/// Index-page recovery: commit a base tree, then split leaves (and grow
/// the index) inside an uncommitted transaction and crash. Recovery must
/// roll the *structure* back, and the tree must then absorb new inserts
/// and a commit cleanly.
#[test]
fn uncommitted_splits_roll_back_across_crash() {
    let mut ops: Vec<Op> = Vec::new();
    // Committed base: every fourth key.
    for k in (0u8..40).step_by(4) {
        ops.push(Op::Insert(k, k));
    }
    ops.push(Op::Commit);
    // Uncommitted split storm, then power loss.
    for k in 0u8..40 {
        ops.push(Op::Insert(k, k.wrapping_add(1)));
    }
    ops.push(Op::CrashRecover);
    // The survivor must keep working: another storm, this time committed,
    // then one more crash-restart to prove the committed splits persist.
    for k in 0u8..40 {
        ops.push(Op::Insert(k, k.wrapping_add(2)));
    }
    ops.push(Op::Commit);
    ops.push(Op::CrashRecover);
    check_history(&ops);
}
