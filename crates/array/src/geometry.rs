//! Array layout geometry: mapping logical data pages and parity pages to
//! physical (disk, block) locations.
//!
//! Three organizations are implemented — the paper's two (§3) plus the
//! RAID-4 contention baseline their designs exist to avoid:
//!
//! * **Rotated parity** (Figure 1): one stripe per parity group; the stripe
//!   occupies the same block index on every disk; parity rotates across the
//!   disks ("left-asymmetric" placement). Consecutive data pages go to
//!   *different* disks.
//! * **Parity striping** (Figure 2): each disk is divided into `D` areas
//!   ("rows"); row `r`'s parity lives in the parity area of disk `r` (and of
//!   disk `(r+1) mod D` for the twin variant, Figure 5 — the paper denotes
//!   the twin locations `P_xy` and `P_xy'` with `z = (x+1) mod (N+2)`).
//!   Data is laid out *sequentially per disk*, which is the property Gray et
//!   al. advocate for OLTP.
//! * **Dedicated parity** (RAID-4): identical striping to rotated parity
//!   but all parity on the last disk(s) — the `ablation_diskload` bench
//!   shows that disk carrying ~N× the average load under small writes.
//!
//! Twin variants place the two parity pages of every group on two distinct
//! disks, so the committed and working parity can never be lost together by
//! a single disk failure (paper §4.2: "the twin parity pages are stored on
//! different disks. This is necessary ... to be able to recover from a disk
//! failure").
//!
//! ## Invariants (property-tested)
//!
//! * `data_loc` is injective over `0..data_pages()`.
//! * All members of a group (data pages and parity pages) live on pairwise
//!   distinct disks.
//! * `locate_block` is the exact inverse of `data_loc`/`parity_loc`.

use crate::{ArrayConfig, DataPageId, DiskId, GroupId, Organization, ParitySlot};

/// A physical page location: disk and block index within the disk.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct PhysLoc {
    /// Which disk.
    pub disk: DiskId,
    /// Block index within the disk.
    pub block: u64,
}

/// What occupies a physical block (inverse mapping, used by rebuild).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BlockContent {
    /// A logical data page.
    Data(DataPageId),
    /// A parity page of the given group.
    Parity(GroupId, ParitySlot),
}

/// Computed layout for a configured array.
///
/// For [`Organization::ParityStriping`] the group count is rounded **up** to
/// a multiple of the disk count so that every parity-area row is fully
/// populated; [`Geometry::groups`] and [`Geometry::data_pages`] report the
/// effective (possibly enlarged) values.
#[derive(Debug, Clone)]
pub struct Geometry {
    organization: Organization,
    /// Data pages per group (paper's N).
    n: u32,
    /// Effective number of groups.
    groups: u32,
    /// Parity replicas per group (1 or 2).
    replicas: u32,
    /// Total disks.
    disks: u16,
    /// Parity-striping area size in pages (rows have `area` pages each).
    /// Unused (0) for rotated parity.
    area: u32,
}

impl Geometry {
    /// Build the geometry for a configuration.
    #[must_use]
    pub fn new(cfg: &ArrayConfig) -> Geometry {
        let disks = cfg.disks();
        let d = u32::from(disks);
        let (groups, area) = match cfg.organization {
            Organization::RotatedParity | Organization::DedicatedParity => (cfg.groups, 0),
            Organization::ParityStriping => {
                let area = cfg.groups.div_ceil(d);
                (area * d, area)
            }
        };
        Geometry {
            organization: cfg.organization,
            n: cfg.n,
            groups,
            replicas: cfg.parity_replicas(),
            disks,
            area,
        }
    }

    /// Array organization.
    #[must_use]
    pub fn organization(&self) -> Organization {
        self.organization
    }

    /// Data pages per parity group.
    #[must_use]
    pub fn n(&self) -> u32 {
        self.n
    }

    /// Effective number of parity groups.
    #[must_use]
    pub fn groups(&self) -> u32 {
        self.groups
    }

    /// Effective number of data pages (`n * groups`).
    #[must_use]
    pub fn data_pages(&self) -> u32 {
        self.n * self.groups
    }

    /// Number of parity replicas (1, or 2 for twin parity).
    #[must_use]
    pub fn parity_replicas(&self) -> u32 {
        self.replicas
    }

    /// Total number of disks.
    #[must_use]
    pub fn disks(&self) -> u16 {
        self.disks
    }

    /// Blocks each disk must provide.
    #[must_use]
    pub fn blocks_per_disk(&self) -> u64 {
        match self.organization {
            // One stripe (block row) per group.
            Organization::RotatedParity | Organization::DedicatedParity => u64::from(self.groups),
            // D rows of `area` pages each.
            Organization::ParityStriping => u64::from(self.disks) * u64::from(self.area),
        }
    }

    /// The parity group containing a data page.
    #[must_use]
    pub fn group_of(&self, page: DataPageId) -> GroupId {
        debug_assert!(page.0 < self.data_pages());
        match self.organization {
            Organization::RotatedParity | Organization::DedicatedParity => GroupId(page.0 / self.n),
            Organization::ParityStriping => {
                let (_, row, offset) = self.striping_decompose(page);
                GroupId(row * self.area + offset)
            }
        }
    }

    /// Disks holding the parity replicas of group `g`'s row/stripe.
    fn parity_disks(&self, g: GroupId) -> [u16; 2] {
        let d = u32::from(self.disks);
        match self.organization {
            Organization::RotatedParity => {
                // Left-asymmetric rotation: parity walks backwards across
                // the disks as the stripe index grows; the twin sits on the
                // cyclically previous disk.
                let p0 = (d - 1 - (g.0 % d)) as u16;
                let p1 = ((d - 1 - ((g.0 + 1) % d)) % d) as u16;
                [p0, p1]
            }
            Organization::DedicatedParity => {
                // RAID-4: the last disk(s) hold all parity, every stripe.
                [(d - 1) as u16, (d - 2) as u16]
            }
            Organization::ParityStriping => {
                let row = g.0 / self.area;
                // Paper Figure 5: twin parity areas on disks x and
                // (x+1) mod D.
                [(row % d) as u16, ((row + 1) % d) as u16]
            }
        }
    }

    /// Physical location of a data page.
    ///
    /// # Panics
    /// Debug-asserts that `page` is within the effective database size.
    #[must_use]
    pub fn data_loc(&self, page: DataPageId) -> PhysLoc {
        debug_assert!(page.0 < self.data_pages(), "data page out of range");
        match self.organization {
            Organization::RotatedParity | Organization::DedicatedParity => {
                let g = GroupId(page.0 / self.n);
                let idx = page.0 % self.n;
                let disk = self.nth_data_disk(g, idx);
                PhysLoc {
                    disk: DiskId(disk),
                    block: u64::from(g.0),
                }
            }
            Organization::ParityStriping => {
                let (disk, row, offset) = self.striping_decompose(page);
                PhysLoc {
                    disk: DiskId(disk as u16),
                    block: u64::from(row) * u64::from(self.area) + u64::from(offset),
                }
            }
        }
    }

    /// Physical location of a parity page.
    ///
    /// Returns `None` if `slot` is `P1` on a single-parity array.
    #[must_use]
    pub fn parity_loc(&self, g: GroupId, slot: ParitySlot) -> Option<PhysLoc> {
        debug_assert!(g.0 < self.groups, "group out of range");
        if slot == ParitySlot::P1 && self.replicas < 2 {
            return None;
        }
        let disks = self.parity_disks(g);
        let disk = DiskId(disks[slot.index()]);
        let block = match self.organization {
            Organization::RotatedParity | Organization::DedicatedParity => u64::from(g.0),
            Organization::ParityStriping => {
                let row = g.0 / self.area;
                let offset = g.0 % self.area;
                u64::from(row) * u64::from(self.area) + u64::from(offset)
            }
        };
        Some(PhysLoc { disk, block })
    }

    /// The data pages belonging to a group, in member order.
    #[must_use]
    pub fn members(&self, g: GroupId) -> Vec<DataPageId> {
        self.member_pages(g).collect()
    }

    /// [`Geometry::members`] one page at a time, with nothing collected:
    /// for the per-steal paths that only scan a group.
    pub fn member_pages(&self, g: GroupId) -> impl Iterator<Item = DataPageId> + '_ {
        debug_assert!(g.0 < self.groups, "group out of range");
        let striped = self.organization == Organization::ParityStriping;
        let parity = self.parity_disks(g);
        let slots = if striped {
            u32::from(self.disks)
        } else {
            self.n
        };
        (0..slots).filter_map(move |i| {
            if !striped {
                return Some(DataPageId(g.0 * self.n + i));
            }
            // Slot `i` is disk `i`; the group's parity disks hold none.
            let disk = i as u16;
            if disk == parity[0] || (self.replicas == 2 && disk == parity[1]) {
                return None;
            }
            let (row, offset) = (g.0 / self.area, g.0 % self.area);
            let c = self.data_area_rank(i, row);
            Some(DataPageId(
                i * self.pages_per_disk() + c * self.area + offset,
            ))
        })
    }

    /// Inverse mapping: what lives at a physical block?
    ///
    /// # Panics
    /// Debug-asserts that the location is within the array.
    #[must_use]
    pub fn locate_block(&self, disk: DiskId, block: u64) -> BlockContent {
        debug_assert!(u32::from(disk.0) < u32::from(self.disks));
        debug_assert!(block < self.blocks_per_disk());
        match self.organization {
            Organization::RotatedParity | Organization::DedicatedParity => {
                let g = GroupId(block as u32);
                let parity = self.parity_disks(g);
                if disk.0 == parity[0] {
                    return BlockContent::Parity(g, ParitySlot::P0);
                }
                if self.replicas == 2 && disk.0 == parity[1] {
                    return BlockContent::Parity(g, ParitySlot::P1);
                }
                // Rank of this disk among the data disks of the stripe.
                let mut idx = 0;
                for d in 0..disk.0 {
                    if d == parity[0] || (self.replicas == 2 && d == parity[1]) {
                        continue;
                    }
                    idx += 1;
                }
                BlockContent::Data(DataPageId(g.0 * self.n + idx))
            }
            Organization::ParityStriping => {
                let row = (block / u64::from(self.area)) as u32;
                let offset = (block % u64::from(self.area)) as u32;
                let g = GroupId(row * self.area + offset);
                let parity = self.parity_disks(g);
                if disk.0 == parity[0] {
                    return BlockContent::Parity(g, ParitySlot::P0);
                }
                if self.replicas == 2 && disk.0 == parity[1] {
                    return BlockContent::Parity(g, ParitySlot::P1);
                }
                let c = self.data_area_rank(u32::from(disk.0), row);
                let l = u32::from(disk.0) * self.pages_per_disk() + c * self.area + offset;
                BlockContent::Data(DataPageId(l))
            }
        }
    }

    // ---- parity-striping internals -------------------------------------

    /// Data pages held by each disk under parity striping.
    fn pages_per_disk(&self) -> u32 {
        // Each disk has D rows; `replicas` of them are parity areas.
        (u32::from(self.disks) - self.replicas) * self.area
    }

    /// Is `row` a parity area on `disk`?
    fn is_parity_row(&self, disk: u32, row: u32) -> bool {
        let d = u32::from(self.disks);
        if disk == row % d {
            return true;
        }
        self.replicas == 2 && disk == (row + 1) % d
    }

    /// Rank of data-area `row` among the data areas of `disk`.
    fn data_area_rank(&self, disk: u32, row: u32) -> u32 {
        debug_assert!(!self.is_parity_row(disk, row));
        (0..row).filter(|&r| !self.is_parity_row(disk, r)).count() as u32
    }

    /// The `c`-th data-area row of `disk`.
    fn nth_data_row(&self, disk: u32, c: u32) -> u32 {
        let d = u32::from(self.disks);
        (0..d)
            .filter(|&r| !self.is_parity_row(disk, r))
            .nth(c as usize)
            .expect("data-area rank within range")
    }

    /// Decompose a parity-striping data page into (disk, row, offset).
    fn striping_decompose(&self, page: DataPageId) -> (u32, u32, u32) {
        let per_disk = self.pages_per_disk();
        let disk = page.0 / per_disk;
        let q = page.0 % per_disk;
        let c = q / self.area;
        let offset = q % self.area;
        let row = self.nth_data_row(disk, c);
        (disk, row, offset)
    }

    /// The `idx`-th data disk of a rotated-parity stripe.
    fn nth_data_disk(&self, g: GroupId, idx: u32) -> u16 {
        let parity = self.parity_disks(g);
        let mut seen = 0;
        for d in 0..self.disks {
            if d == parity[0] || (self.replicas == 2 && d == parity[1]) {
                continue;
            }
            if seen == idx {
                return d;
            }
            seen += 1;
        }
        unreachable!("data index within stripe width")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    fn geo(org: Organization, n: u32, groups: u32, twin: bool) -> Geometry {
        Geometry::new(&ArrayConfig::new(org, n, groups).twin(twin))
    }

    /// FIG1: RAID with rotated parity, 4 disks (N = 3). The parity of each
    /// stripe rotates so no single disk holds all parity.
    #[test]
    fn fig1_layout() {
        let g = geo(Organization::RotatedParity, 3, 8, false);
        assert_eq!(g.disks(), 4);
        // Stripe 0: parity on disk 3, data D0..D2 on disks 0..2.
        assert_eq!(
            g.parity_loc(GroupId(0), ParitySlot::P0).unwrap(),
            PhysLoc {
                disk: DiskId(3),
                block: 0
            }
        );
        for i in 0..3 {
            assert_eq!(g.data_loc(DataPageId(i)).disk, DiskId(i as u16));
        }
        // Stripe 1: parity on disk 2, data on disks 0, 1, 3.
        assert_eq!(
            g.parity_loc(GroupId(1), ParitySlot::P0).unwrap().disk,
            DiskId(2)
        );
        assert_eq!(g.data_loc(DataPageId(3)).disk, DiskId(0));
        assert_eq!(g.data_loc(DataPageId(4)).disk, DiskId(1));
        assert_eq!(g.data_loc(DataPageId(5)).disk, DiskId(3));
        // Parity visits every disk exactly once over D consecutive stripes.
        let disks: HashSet<u16> = (0..4)
            .map(|s| g.parity_loc(GroupId(s), ParitySlot::P0).unwrap().disk.0)
            .collect();
        assert_eq!(disks.len(), 4);
    }

    /// FIG2: parity striping on four disks — each disk has one parity area
    /// and data laid sequentially.
    #[test]
    fn fig2_layout() {
        let g = geo(Organization::ParityStriping, 3, 8, false);
        assert_eq!(g.disks(), 4);
        // Effective groups rounded to a multiple of D = 4.
        assert_eq!(g.groups(), 8);
        assert_eq!(g.data_pages(), 24);
        // Sequential layout: consecutive logical pages on the same disk
        // until the disk's data capacity (6 pages) is exhausted.
        let per_disk = 6; // (D - 1) data areas × area 2
        for l in 0..g.data_pages() {
            assert_eq!(
                g.data_loc(DataPageId(l)).disk,
                DiskId((l / per_disk) as u16),
                "page {l} should be on disk {}",
                l / per_disk
            );
        }
        // Row r's parity lives on disk r.
        for row in 0..4u32 {
            let grp = GroupId(row * 2); // offset 0 of that row
            assert_eq!(
                g.parity_loc(grp, ParitySlot::P0).unwrap().disk,
                DiskId(row as u16)
            );
        }
    }

    /// FIG4: data striping with twin parity pages on distinct disks.
    #[test]
    fn fig4_layout() {
        let g = geo(Organization::RotatedParity, 3, 10, true);
        assert_eq!(g.disks(), 5);
        for s in 0..10u32 {
            let p0 = g.parity_loc(GroupId(s), ParitySlot::P0).unwrap();
            let p1 = g.parity_loc(GroupId(s), ParitySlot::P1).unwrap();
            assert_ne!(p0.disk, p1.disk, "twins of stripe {s} must differ");
        }
    }

    /// FIG5: parity striping with twin parity areas on disks x and
    /// (x + 1) mod D.
    #[test]
    fn fig5_layout() {
        let g = geo(Organization::ParityStriping, 3, 10, true);
        assert_eq!(g.disks(), 5);
        let d = 5u32;
        for grp in 0..g.groups() {
            let row = grp / 2;
            let p0 = g.parity_loc(GroupId(grp), ParitySlot::P0).unwrap();
            let p1 = g.parity_loc(GroupId(grp), ParitySlot::P1).unwrap();
            assert_eq!(u32::from(p0.disk.0), row % d);
            assert_eq!(u32::from(p1.disk.0), (row + 1) % d);
        }
    }

    #[test]
    fn single_parity_has_no_p1() {
        let g = geo(Organization::RotatedParity, 4, 4, false);
        assert!(g.parity_loc(GroupId(0), ParitySlot::P1).is_none());
        assert!(g.parity_loc(GroupId(0), ParitySlot::P0).is_some());
    }

    #[test]
    fn striping_groups_round_up() {
        // 5 groups on 4 disks → rounded to 8.
        let g = geo(Organization::ParityStriping, 3, 5, false);
        assert_eq!(g.groups(), 8);
        // Exact multiple is untouched.
        let g = geo(Organization::ParityStriping, 3, 8, false);
        assert_eq!(g.groups(), 8);
    }

    fn assert_geometry_coherent(g: &Geometry) {
        // data_loc injective; members on distinct disks incl. parity;
        // locate_block inverts both mappings.
        let mut seen = HashSet::new();
        for l in 0..g.data_pages() {
            let loc = g.data_loc(DataPageId(l));
            assert!(u32::from(loc.disk.0) < u32::from(g.disks()));
            assert!(loc.block < g.blocks_per_disk());
            assert!(seen.insert(loc), "data_loc collision at page {l}");
            assert_eq!(
                g.locate_block(loc.disk, loc.block),
                BlockContent::Data(DataPageId(l))
            );
        }
        for grp in 0..g.groups() {
            let grp = GroupId(grp);
            let mut disks = HashSet::new();
            for m in g.members(grp) {
                assert_eq!(g.group_of(m), grp, "member {m} not mapped back to {grp}");
                assert!(disks.insert(g.data_loc(m).disk), "member disk collision");
            }
            assert_eq!(disks.len(), g.n() as usize);
            for slot in [ParitySlot::P0, ParitySlot::P1] {
                if let Some(loc) = g.parity_loc(grp, slot) {
                    assert!(
                        disks.insert(loc.disk),
                        "parity {slot:?} of {grp} collides with a member disk"
                    );
                    assert_eq!(
                        g.locate_block(loc.disk, loc.block),
                        BlockContent::Parity(grp, slot)
                    );
                    assert!(seen.insert(loc), "parity collides with data");
                }
            }
        }
    }

    #[test]
    fn coherence_rotated_single() {
        assert_geometry_coherent(&geo(Organization::RotatedParity, 4, 13, false));
    }

    #[test]
    fn coherence_rotated_twin() {
        assert_geometry_coherent(&geo(Organization::RotatedParity, 4, 13, true));
    }

    #[test]
    fn coherence_dedicated_parity() {
        assert_geometry_coherent(&geo(Organization::DedicatedParity, 4, 13, false));
        assert_geometry_coherent(&geo(Organization::DedicatedParity, 4, 13, true));
        // RAID-4: every group's parity sits on the same disk(s).
        let g = geo(Organization::DedicatedParity, 4, 8, true);
        for grp in 0..8u32 {
            assert_eq!(
                g.parity_loc(GroupId(grp), ParitySlot::P0).unwrap().disk,
                DiskId(5)
            );
            assert_eq!(
                g.parity_loc(GroupId(grp), ParitySlot::P1).unwrap().disk,
                DiskId(4)
            );
        }
    }

    #[test]
    fn coherence_striping_single() {
        assert_geometry_coherent(&geo(Organization::ParityStriping, 4, 13, false));
    }

    #[test]
    fn coherence_striping_twin() {
        assert_geometry_coherent(&geo(Organization::ParityStriping, 5, 21, true));
    }

    #[test]
    fn coherence_tiny_arrays() {
        // Degenerate sizes: one data page per group, one group.
        assert_geometry_coherent(&geo(Organization::RotatedParity, 1, 1, false));
        assert_geometry_coherent(&geo(Organization::RotatedParity, 1, 1, true));
        assert_geometry_coherent(&geo(Organization::ParityStriping, 1, 1, false));
        assert_geometry_coherent(&geo(Organization::ParityStriping, 1, 1, true));
    }

    /// The member iterator yields exactly `members(g)` for every group
    /// of every organization: the pages `group_of` maps to `g`, in
    /// ascending order (member order is disk order, and a disk's pages
    /// are numbered after the disks before it).
    #[test]
    fn member_pages_yield_exactly_the_members() {
        for org in [
            Organization::RotatedParity,
            Organization::ParityStriping,
            Organization::DedicatedParity,
        ] {
            for (n, groups, twin) in [(1, 1, false), (4, 13, false), (5, 21, true), (10, 50, true)]
            {
                let g = geo(org, n, groups, twin);
                for grp in (0..g.groups()).map(GroupId) {
                    let by_group_of: Vec<DataPageId> = (0..g.data_pages())
                        .map(DataPageId)
                        .filter(|&p| g.group_of(p) == grp)
                        .collect();
                    let pages: Vec<DataPageId> = g.member_pages(grp).collect();
                    assert_eq!(pages, by_group_of, "{org:?} n={n} {grp:?}");
                    assert_eq!(pages, g.members(grp), "{org:?} n={n} {grp:?}");
                    assert_eq!(pages.len(), n as usize);
                }
            }
        }
    }

    #[test]
    fn coherence_paper_scale() {
        // The model's configuration: S = 5000, N = 10 → 500 groups.
        assert_geometry_coherent(&geo(Organization::RotatedParity, 10, 500, true));
    }
}
