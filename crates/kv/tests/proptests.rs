//! Property test: arbitrary put/delete/commit/abort/crash histories on the
//! KV store agree with a `HashMap` oracle.
//!
//! The checked body lives in [`check_history`], shared by the seeded
//! property and the pinned regression inputs.

use rda_array::{ArrayConfig, Organization};
use rda_buffer::{BufferConfig, ReplacePolicy};
use rda_core::{Database, DbConfig, EngineKind, EotPolicy, LogGranularity};
use rda_kv::KvStore;
use rda_obs::prop;
use rda_obs::rng::Rng;
use rda_wal::LogConfig;
use std::collections::HashMap;

#[derive(Debug, Clone)]
enum Op {
    Put(u8, u8),
    Delete(u8),
    Commit,
    Abort,
    CrashRecover,
}

/// Weights 5 : 2 : 2 : 1 : 1.
fn gen_op(rng: &mut Rng) -> Op {
    let key = rng.below(24) as u8;
    match rng.below(11) {
        0..=4 => Op::Put(key, rng.next_u64() as u8),
        5 | 6 => Op::Delete(key),
        7 | 8 => Op::Commit,
        9 => Op::Abort,
        _ => Op::CrashRecover,
    }
}

fn cfg() -> DbConfig {
    DbConfig {
        engine: EngineKind::Rda,
        array: ArrayConfig::new(Organization::RotatedParity, 4, 10)
            .twin(true)
            .page_size(96),
        buffer: BufferConfig {
            frames: 6,
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

/// Replay one history against the store and the oracle; every divergence
/// is a test failure.
fn check_history(ops: &[Op]) {
    let store = KvStore::create(Database::open(cfg()), 4).unwrap();
    let mut committed: HashMap<u8, u8> = HashMap::new();
    let mut pending: HashMap<u8, Option<u8>> = HashMap::new(); // None = delete
    let mut tx = None;

    for op in ops {
        match *op {
            Op::Put(k, v) => {
                let t = tx.get_or_insert_with(|| store.db().begin());
                store.put(t, &[k], &[v]).unwrap();
                pending.insert(k, Some(v));
            }
            Op::Delete(k) => {
                let t = tx.get_or_insert_with(|| store.db().begin());
                let existed = store.delete(t, &[k]).unwrap();
                let oracle_existed = match pending.get(&k) {
                    Some(Some(_)) => true,
                    Some(None) => false,
                    None => committed.contains_key(&k),
                };
                assert_eq!(existed, oracle_existed, "delete({k})");
                pending.insert(k, None);
            }
            Op::Commit => {
                if let Some(t) = tx.take() {
                    t.commit().unwrap();
                    for (k, v) in pending.drain() {
                        match v {
                            Some(v) => {
                                committed.insert(k, v);
                            }
                            None => {
                                committed.remove(&k);
                            }
                        }
                    }
                }
            }
            Op::Abort => {
                if let Some(t) = tx.take() {
                    t.abort().unwrap();
                    pending.clear();
                }
            }
            Op::CrashRecover => {
                if let Some(t) = tx.take() {
                    std::mem::forget(t);
                    pending.clear();
                }
                store.db().crash_and_recover().unwrap();
            }
        }
    }
    if let Some(t) = tx.take() {
        t.abort().unwrap();
        pending.clear();
    }

    // Final state must equal the committed oracle exactly.
    let mut t = store.db().begin();
    for k in 0u8..24 {
        let got = store.get(&mut t, &[k]).unwrap();
        let expect = committed.get(&k).map(|v| vec![*v]);
        assert_eq!(got, expect, "key {k}");
    }
    let scan = store.scan(&mut t).unwrap();
    assert_eq!(scan.len(), committed.len(), "scan cardinality");
    t.abort().unwrap();
    assert!(store.db().verify().unwrap().is_empty());
}

#[test]
fn kv_agrees_with_oracle() {
    prop::cases("kv_agrees_with_oracle", 32, |rng| {
        let ops: Vec<Op> = (0..=rng.below(59)).map(|_| gen_op(rng)).collect();
        check_history(&ops);
    });
}

/// The two inputs a shrinking property-test run once reduced a failure to.
#[test]
fn pinned_delete_after_commit_and_crash() {
    check_history(&[Op::Put(0, 1), Op::Commit, Op::CrashRecover, Op::Delete(0)]);
}

#[test]
fn pinned_put_again_after_abort() {
    check_history(&[
        Op::Put(3, 255),
        Op::Put(11, 4),
        Op::Abort,
        Op::Put(3, 9),
        Op::Commit,
    ]);
}
