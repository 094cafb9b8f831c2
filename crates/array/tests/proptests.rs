//! Property-based tests for array layout and parity algebra.

use rda_array::{
    ArrayConfig, DataPageId, DiskArray, DiskId, GroupId, Organization, Page, ParitySlot,
};
use rda_obs::prop;
use rda_obs::rng::Rng;
use std::collections::HashSet;

const PAGE: usize = 48;

fn gen_cfg(rng: &mut Rng) -> ArrayConfig {
    let org = [
        Organization::RotatedParity,
        Organization::ParityStriping,
        Organization::DedicatedParity,
    ][rng.below(3) as usize];
    let (n, groups) = (1 + rng.below(7) as u32, 1 + rng.below(19) as u32);
    ArrayConfig::new(org, n, groups)
        .twin(rng.chance(50))
        .page_size(PAGE)
}

fn gen_bytes(rng: &mut Rng, len: usize) -> Vec<u8> {
    (0..len).map(|_| rng.next_u64() as u8).collect()
}

/// Every geometry keeps group members (data + parity) on pairwise
/// distinct disks and data_loc stays injective.
#[test]
fn geometry_coherent() {
    prop::cases("geometry_coherent", 64, |rng| {
        let cfg = gen_cfg(rng);
        let geo = rda_array::Geometry::new(&cfg);
        let mut all_locs = HashSet::new();
        for l in 0..geo.data_pages() {
            assert!(all_locs.insert(geo.data_loc(DataPageId(l))));
        }
        for g in 0..geo.groups() {
            let g = GroupId(g);
            let mut disks = HashSet::new();
            for m in geo.members(g) {
                assert_eq!(geo.group_of(m), g);
                assert!(disks.insert(geo.data_loc(m).disk));
            }
            for slot in ParitySlot::BOTH {
                if let Some(loc) = geo.parity_loc(g, slot) {
                    assert!(disks.insert(loc.disk));
                    assert!(all_locs.insert(loc));
                }
            }
            assert_eq!(disks.len() as u32, geo.n() + geo.parity_replicas());
        }
    });
}

/// Paper Figure 6 identity: for any page contents,
/// `D_old = (P ⊕ P') ⊕ D_new` after a small write to one twin.
#[test]
fn undo_identity() {
    prop::cases("undo_identity", 64, |rng| {
        let (old_bytes, new_bytes) = (gen_bytes(rng, PAGE), gen_bytes(rng, PAGE));
        let page_idx = rng.below(12) as u32;
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
        assert_eq!(recovered, old);
    });
}

/// After an arbitrary sequence of small writes the parity invariant
/// holds for every group, and any single-disk failure is survivable.
#[test]
fn parity_invariant_and_single_fault_tolerance() {
    prop::cases("parity_invariant_and_single_fault_tolerance", 64, |rng| {
        let cfg = gen_cfg(rng);
        let writes: Vec<(u32, u8)> = (0..=rng.below(39))
            .map(|_| (rng.next_u64() as u32, rng.next_u64() as u8))
            .collect();
        let victim_seed = rng.next_u64() as u16;
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
            assert!(a.group_parity_ok(GroupId(g), ParitySlot::P0).unwrap());
        }
        // Record all contents, fail one disk, verify every page readable.
        let contents: Vec<Page> = (0..a.data_pages())
            .map(|i| a.read_data(DataPageId(i)).unwrap())
            .collect();
        let victim = DiskId(victim_seed % a.geometry().disks());
        a.fail_disk(victim);
        for (i, expect) in contents.iter().enumerate() {
            assert_eq!(&a.read_data(DataPageId(i as u32)).unwrap(), expect);
        }
        // Rebuild restores direct readability.
        a.rebuild_disk(
            victim,
            |_| ParitySlot::P0,
            |_, _| rda_array::Header::default(),
        )
        .unwrap();
        for (i, expect) in contents.iter().enumerate() {
            assert_eq!(&a.try_read_data(DataPageId(i as u32)).unwrap(), expect);
        }
    });
}
