//! Property tests for the buffer pool: capacity, residency, eviction
//! legality (pins, ¬STEAL), and accounting against a reference model.

use proptest::prelude::*;
// Used only inside the `proptest!` block, which the offline dev stub
// expands to nothing.
#[allow(unused_imports)]
use rda_array::{DataPageId, Page};
#[allow(unused_imports)]
use rda_buffer::{BufferConfig, BufferPool, ReplacePolicy};
#[allow(unused_imports)]
use std::collections::{HashMap, HashSet};

// Only the `proptest!` block uses these, and the offline dev stub
// expands that block to nothing.
#[allow(dead_code)]
#[derive(Debug, Clone)]
enum Op {
    Read(u32),
    Write(u32, u64),
    ReleaseTxn(u64),
    MarkClean(u32),
    Pin(u32),
    UnpinIfPinned(u32),
    PopVictim,
}

#[allow(dead_code)]
fn op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        4 => (0u32..24).prop_map(Op::Read),
        4 => (0u32..24, 1u64..4).prop_map(|(p, t)| Op::Write(p, t)),
        1 => (1u64..4).prop_map(Op::ReleaseTxn),
        1 => (0u32..24).prop_map(Op::MarkClean),
        1 => (0u32..24).prop_map(Op::Pin),
        1 => (0u32..24).prop_map(Op::UnpinIfPinned),
        2 => Just(Op::PopVictim),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn pool_invariants_hold(
        ops in prop::collection::vec(op_strategy(), 1..120),
        frames in 1usize..8,
        steal in any::<bool>(),
        lru in any::<bool>(),
    ) {
        let policy = if lru { ReplacePolicy::Lru } else { ReplacePolicy::Clock };
        let mut pool = BufferPool::new(BufferConfig { frames, steal, policy });
        // Reference model of residency and contents.
        let mut resident: HashMap<u32, Page> = HashMap::new();
        let mut pinned: HashSet<u32> = HashSet::new();
        let mut modifiers: HashMap<u32, HashSet<u64>> = HashMap::new();

        let fetch = |p: u32| Page::from_bytes(&[(p % 251) as u8; 16]);

        for op in ops {
            match op {
                Op::Read(p) => {
                    match pool.lookup(DataPageId(p)) {
                        Some(data) => {
                            prop_assert_eq!(
                                Some(&data),
                                resident.get(&p),
                                "hit must return the installed contents"
                            );
                        }
                        None => {
                            prop_assert!(!resident.contains_key(&p), "model thinks resident");
                            if !pool.has_room() {
                                match pool.pop_victim() {
                                    Some(ev) => {
                                        prop_assert!(!pinned.contains(&ev.page.0));
                                        if !steal {
                                            prop_assert!(
                                                !ev.dirty || ev.modifiers.is_empty(),
                                                "¬STEAL evicted an uncommitted page"
                                            );
                                        }
                                        resident.remove(&ev.page.0);
                                        modifiers.remove(&ev.page.0);
                                    }
                                    None => continue, // wedged: drop the op
                                }
                            }
                            let data = fetch(p);
                            pool.insert(DataPageId(p), data.clone(), false, None);
                            resident.insert(p, data);
                        }
                    }
                }
                #[allow(clippy::map_entry)] // intentional model/pool lockstep
                Op::Write(p, t) => {
                    if resident.contains_key(&p) {
                        let data = Page::from_bytes(&[t as u8; 16]);
                        prop_assert!(pool.update_resident(DataPageId(p), data.clone(), t));
                        resident.insert(p, data);
                        modifiers.entry(p).or_default().insert(t);
                    } else {
                        prop_assert!(!pool.update_resident(DataPageId(p), fetch(p), t));
                    }
                }
                Op::ReleaseTxn(t) => {
                    pool.release_txn(t);
                    for set in modifiers.values_mut() {
                        set.remove(&t);
                    }
                }
                Op::MarkClean(p) => pool.mark_clean(DataPageId(p)),
                Op::Pin(p) => {
                    let did = pool.pin(DataPageId(p));
                    prop_assert_eq!(did, resident.contains_key(&p));
                    if did {
                        pinned.insert(p);
                    }
                }
                Op::UnpinIfPinned(p) => {
                    if pinned.remove(&p) {
                        pool.unpin(DataPageId(p));
                    }
                }
                Op::PopVictim => {
                    if let Some(ev) = pool.pop_victim() {
                        prop_assert!(!pinned.contains(&ev.page.0), "evicted a pinned page");
                        let removed = resident.remove(&ev.page.0);
                        prop_assert_eq!(
                            removed.as_ref(),
                            Some(&ev.data),
                            "eviction must surrender the latest contents"
                        );
                        let expect_mods = modifiers.remove(&ev.page.0).unwrap_or_default();
                        let got: HashSet<u64> = ev.modifiers.iter().copied().collect();
                        prop_assert_eq!(got, expect_mods);
                    }
                }
            }
            prop_assert!(pool.len() <= frames, "capacity exceeded");
            prop_assert_eq!(pool.len(), resident.len(), "residency model diverged");
        }
    }

    /// Hit/miss accounting sums to the number of lookups.
    #[test]
    fn accounting_sums(ops in prop::collection::vec((0u32..10, any::<bool>()), 1..80)) {
        let mut pool = BufferPool::new(BufferConfig::steal_clock(4));
        let mut lookups = 0u64;
        for (p, _) in &ops {
            lookups += 1;
            if pool.lookup(DataPageId(*p)).is_none() {
                if !pool.has_room() {
                    let _ = pool.pop_victim();
                }
                if pool.has_room() {
                    pool.insert(DataPageId(*p), Page::zeroed(8), false, None);
                }
            }
        }
        let stats = pool.stats();
        prop_assert_eq!(stats.hits + stats.misses, lookups);
    }
}
