//! Property tests for the buffer pool: capacity, residency, eviction
//! legality (¬STEAL), and accounting against a reference model.

use rda_array::{DataPageId, Page};
use rda_buffer::{BufferConfig, BufferPool};
use rda_obs::prop;
use rda_obs::rng::Rng;
use std::collections::{HashMap, HashSet};

#[derive(Debug, Clone)]
enum Op {
    Read(u32),
    Write(u32, u64),
    ReleaseTxn(u64),
    MarkClean(u32),
    PopVictim,
}

/// Weights 4 : 4 : 1 : 1 : 2.
fn gen_op(rng: &mut Rng) -> Op {
    let page = rng.below(24) as u32;
    let txn = 1 + rng.below(3);
    match rng.below(12) {
        0..=3 => Op::Read(page),
        4..=7 => Op::Write(page, txn),
        8 => Op::ReleaseTxn(txn),
        9 => Op::MarkClean(page),
        _ => Op::PopVictim,
    }
}

/// Is every resident page ineligible for eviction? Only under ¬STEAL,
/// with each one carrying an uncommitted modifier.
fn wedged(steal: bool, resident: &HashMap<u32, Page>, mods: &HashMap<u32, HashSet<u64>>) -> bool {
    !steal
        && resident
            .keys()
            .all(|p| mods.get(p).is_some_and(|m| !m.is_empty()))
}

#[test]
fn pool_invariants_hold() {
    prop::cases("pool_invariants_hold", 96, |rng| {
        let ops: Vec<Op> = (0..=rng.below(119)).map(|_| gen_op(rng)).collect();
        let frames = 1 + rng.below(7) as usize;
        let steal = rng.chance(50);
        let mut pool = BufferPool::new(BufferConfig { frames, steal });
        // Reference model of residency and contents.
        let mut resident: HashMap<u32, Page> = HashMap::new();
        let mut modifiers: HashMap<u32, HashSet<u64>> = HashMap::new();
        // Pages each transaction wrote since its last release.
        let mut written: HashMap<u64, HashSet<u32>> = HashMap::new();

        let fetch = |p: u32| Page::from_bytes(&[(p % 251) as u8; 16]);

        for op in ops {
            match op {
                Op::Read(p) => {
                    if let Some(frame) = pool.touch(DataPageId(p)) {
                        assert_eq!(
                            Some(frame),
                            resident.get(&p),
                            "hit must lend the installed contents"
                        );
                        continue;
                    }
                    assert!(!resident.contains_key(&p), "model thinks resident");
                    // A miss reads into the victim's buffer, as the engine does.
                    let mut buf = Page::zeroed(16);
                    if !pool.has_room() {
                        let Some(ev) = pool.pop_victim() else {
                            assert!(wedged(steal, &resident, &modifiers));
                            continue; // wedged: drop the op
                        };
                        if !steal {
                            assert!(
                                !ev.dirty || ev.modifiers.is_empty(),
                                "¬STEAL evicted an uncommitted page"
                            );
                        }
                        resident.remove(&ev.page.0);
                        modifiers.remove(&ev.page.0);
                        buf = ev.data;
                    }
                    buf.clone_from(&fetch(p));
                    let reused = buf.as_ref().as_ptr();
                    let frame = pool.insert(DataPageId(p), buf);
                    assert_eq!(frame.as_ref().as_ptr(), reused, "insert keeps the buffer");
                    resident.insert(p, frame.clone());
                }
                #[allow(clippy::map_entry)] // intentional model/pool lockstep
                Op::Write(p, t) => {
                    if resident.contains_key(&p) {
                        let data = Page::from_bytes(&[t as u8; 16]);
                        let frame = pool.update_resident(DataPageId(p), t).expect("resident");
                        frame.as_mut().copy_from_slice(data.as_ref());
                        resident.insert(p, data);
                        modifiers.entry(p).or_default().insert(t);
                        written.entry(t).or_default().insert(p);
                    } else {
                        assert!(pool.update_resident(DataPageId(p), t).is_none());
                    }
                }
                Op::ReleaseTxn(t) => {
                    // Only the pages `t` wrote are named, as the engine
                    // names its transaction's write set.
                    let pages = written.remove(&t).unwrap_or_default();
                    pool.release_txn(t, pages.into_iter().map(DataPageId));
                    for set in modifiers.values_mut() {
                        set.remove(&t);
                    }
                }
                Op::MarkClean(p) => pool.mark_clean(DataPageId(p)),
                Op::PopVictim => {
                    let Some(ev) = pool.pop_victim() else {
                        assert!(resident.is_empty() || wedged(steal, &resident, &modifiers));
                        continue;
                    };
                    let removed = resident.remove(&ev.page.0);
                    assert_eq!(
                        removed.as_ref(),
                        Some(&ev.data),
                        "eviction must surrender the latest contents"
                    );
                    let expect_mods = modifiers.remove(&ev.page.0).unwrap_or_default();
                    let got: HashSet<u64> = ev.modifiers.iter().copied().collect();
                    assert_eq!(got, expect_mods);
                }
            }
            assert!(pool.len() <= frames, "capacity exceeded");
            assert_eq!(pool.len(), resident.len(), "residency model diverged");
        }
    });
}

/// Hit/miss accounting sums to the number of accesses.
#[test]
fn accounting_sums() {
    prop::cases("accounting_sums", 96, |rng| {
        let ops: Vec<(u32, bool)> = (0..=rng.below(79))
            .map(|_| (rng.below(10) as u32, rng.chance(50)))
            .collect();
        let mut pool = BufferPool::new(BufferConfig::steal_clock(4));
        let mut lookups = 0u64;
        for (p, _) in &ops {
            lookups += 1;
            if pool.touch(DataPageId(*p)).is_none() {
                if !pool.has_room() {
                    let _ = pool.pop_victim();
                }
                if pool.has_room() {
                    pool.insert(DataPageId(*p), Page::zeroed(8));
                }
            }
        }
        let stats = pool.stats();
        assert_eq!(stats.hits + stats.misses, lookups);
    });
}
