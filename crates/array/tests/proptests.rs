//! Property-based tests for array layout and parity algebra.

use proptest::prelude::*;
// Everything but the two strategy types is used only inside the
// `proptest!` block, which the offline dev stub expands to nothing.
#[allow(unused_imports)]
use rda_array::{
    ArrayConfig, DataPageId, DiskArray, DiskId, GroupId, Organization, Page, ParitySlot,
};
#[allow(unused_imports)]
use std::collections::HashSet;

// Only the `proptest!` block uses these, and the offline dev stub
// expands that block to nothing.
#[allow(dead_code)]
const PAGE: usize = 48;

#[allow(dead_code)]
fn org_strategy() -> impl Strategy<Value = Organization> {
    prop_oneof![
        Just(Organization::RotatedParity),
        Just(Organization::ParityStriping),
        Just(Organization::DedicatedParity)
    ]
}

#[allow(dead_code)]
fn cfg_strategy() -> impl Strategy<Value = ArrayConfig> {
    (org_strategy(), 1u32..8, 1u32..20, any::<bool>()).prop_map(|(org, n, groups, twin)| {
        ArrayConfig::new(org, n, groups).twin(twin).page_size(PAGE)
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Every geometry keeps group members (data + parity) on pairwise
    /// distinct disks and data_loc stays injective.
    #[test]
    fn geometry_coherent(cfg in cfg_strategy()) {
        let geo = rda_array::Geometry::new(&cfg);
        let mut all_locs = HashSet::new();
        for l in 0..geo.data_pages() {
            prop_assert!(all_locs.insert(geo.data_loc(DataPageId(l))));
        }
        for g in 0..geo.groups() {
            let g = GroupId(g);
            let mut disks = HashSet::new();
            for m in geo.members(g) {
                prop_assert_eq!(geo.group_of(m), g);
                prop_assert!(disks.insert(geo.data_loc(m).disk));
            }
            for slot in ParitySlot::BOTH {
                if let Some(loc) = geo.parity_loc(g, slot) {
                    prop_assert!(disks.insert(loc.disk));
                    prop_assert!(all_locs.insert(loc));
                }
            }
            prop_assert_eq!(
                disks.len() as u32,
                geo.n() + geo.parity_replicas()
            );
        }
    }

    /// Paper Figure 6 identity: for any page contents,
    /// `D_old = (P ⊕ P') ⊕ D_new` after a small write to one twin.
    #[test]
    fn undo_identity(
        old_bytes in prop::collection::vec(any::<u8>(), PAGE),
        new_bytes in prop::collection::vec(any::<u8>(), PAGE),
        page_idx in 0u32..12,
    ) {
        let a = DiskArray::new(
            ArrayConfig::new(Organization::RotatedParity, 4, 3)
                .twin(true)
                .page_size(PAGE),
        );
        let d = DataPageId(page_idx);
        let g = a.geometry().group_of(d);
        let old = Page::from_bytes(&old_bytes);
        let new = Page::from_bytes(&new_bytes);
        // Install the old image with committed parity on both twins.
        a.small_write(d, &old, None, ParitySlot::P0).unwrap();
        let committed = a.read_parity(g, ParitySlot::P0).unwrap();
        a.write_parity(g, ParitySlot::P1, &committed).unwrap();
        // In-flight update goes to twin P1 only.
        a.small_write(d, &new, Some(&old), ParitySlot::P1).unwrap();
        let p0 = a.read_parity(g, ParitySlot::P0).unwrap();
        let p1 = a.read_parity(g, ParitySlot::P1).unwrap();
        let recovered = p0.xor(&p1).xor(&new);
        prop_assert_eq!(recovered, old);
    }

    /// After an arbitrary sequence of small writes the parity invariant
    /// holds for every group, and any single-disk failure is survivable.
    #[test]
    fn parity_invariant_and_single_fault_tolerance(
        cfg in cfg_strategy(),
        writes in prop::collection::vec((any::<u32>(), any::<u8>()), 1..40),
        victim_seed in any::<u16>(),
    ) {
        let a = DiskArray::new(cfg);
        for (raw, seed) in writes {
            let d = DataPageId(raw % a.data_pages());
            let mut p = a.blank_page();
            p.as_mut().iter_mut().enumerate().for_each(|(i, b)| {
                *b = seed.wrapping_add(i as u8);
            });
            a.small_write(d, &p, None, ParitySlot::P0).unwrap();
            // Keep twins in sync so the whole array stays "committed".
            if a.config().twin {
                let g = a.geometry().group_of(d);
                let parity = a.read_parity(g, ParitySlot::P0).unwrap();
                a.write_parity(g, ParitySlot::P1, &parity).unwrap();
            }
        }
        for g in 0..a.groups() {
            prop_assert!(a.group_parity_ok(GroupId(g), ParitySlot::P0).unwrap());
        }
        // Record all contents, fail one disk, verify every page readable.
        let contents: Vec<Page> =
            (0..a.data_pages()).map(|i| a.read_data(DataPageId(i)).unwrap()).collect();
        let victim = DiskId(victim_seed % a.geometry().disks());
        a.fail_disk(victim);
        for (i, expect) in contents.iter().enumerate() {
            prop_assert_eq!(&a.read_data(DataPageId(i as u32)).unwrap(), expect);
        }
        // Rebuild restores direct readability.
        a.rebuild_disk(victim, |_| ParitySlot::P0).unwrap();
        for (i, expect) in contents.iter().enumerate() {
            prop_assert_eq!(&a.try_read_data(DataPageId(i as u32)).unwrap(), expect);
        }
    }
}
