//! Parity-group dirty tracking (paper §4.1 and Figure 3).
//!
//! A parity group is **dirty** when one of its data pages has been written
//! back to the database (stolen) with updates of an uncommitted
//! transaction riding on the working parity twin, and **clean** otherwise.
//! The in-memory **Dirty_Set** table records, per dirty group, which page
//! dirtied it, which transaction owns the update, and which parity twin is
//! the working one.
//!
//! The write-back rule (Figure 3): a modified page may be stolen *without*
//! UNDO logging iff its group is clean, or its group is dirty **for the
//! same page by the same transaction** (the page was stolen, re-referenced,
//! modified and stolen again before EOT).

use rda_array::{DataPageId, GroupId, ParitySlot};
use rda_wal::TxnId;
use std::collections::{BTreeSet, HashMap};

/// Why a steal may ride the parity (or must be logged).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StealClass {
    /// Group clean → this steal dirties it; no UNDO logging.
    DirtiesGroup,
    /// Group already dirty by the same page and transaction → overwrite the
    /// working parity; no UNDO logging.
    RidesExisting,
    /// Group dirty for a different page or transaction → before-image must
    /// be logged.
    NeedsLogging,
}

/// Per-dirty-group bookkeeping.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DirtyInfo {
    /// The one page whose uncommitted update rides on the parity. The
    /// paper stores just `log₂N` bits for this.
    pub page: DataPageId,
    /// The transaction owning that update.
    pub txn: TxnId,
    /// The working parity twin (the paper's extra bit).
    pub working: ParitySlot,
}

/// The volatile Dirty_Set table. Lost in a crash; restart finds the
/// losers' entries in the working twins' headers.
#[derive(Debug, Default)]
pub struct DirtySet {
    map: HashMap<GroupId, DirtyInfo>,
    by_txn: HashMap<TxnId, BTreeSet<GroupId>>,
}

impl DirtySet {
    /// Empty table.
    #[must_use]
    pub fn new() -> DirtySet {
        DirtySet::default()
    }

    /// Is the group dirty?
    #[must_use]
    pub fn is_dirty(&self, g: GroupId) -> bool {
        self.map.contains_key(&g)
    }

    /// Dirty info for a group, if dirty.
    #[must_use]
    pub fn get(&self, g: GroupId) -> Option<DirtyInfo> {
        self.map.get(&g).copied()
    }

    /// Number of dirty groups.
    #[must_use]
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// Is the table empty (all groups clean)?
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    /// Classify a prospective steal of `page` by `txn` (Figure 3).
    #[must_use]
    pub fn classify(&self, g: GroupId, page: DataPageId, txn: TxnId) -> StealClass {
        match self.map.get(&g) {
            None => StealClass::DirtiesGroup,
            Some(info) if info.page == page && info.txn == txn => StealClass::RidesExisting,
            Some(_) => StealClass::NeedsLogging,
        }
    }

    /// Record that `txn`'s update of `page` now rides on `working`.
    ///
    /// # Panics
    /// Panics if the group is already dirty for a different page or
    /// transaction — callers must classify first.
    pub fn mark(&mut self, g: GroupId, page: DataPageId, txn: TxnId, working: ParitySlot) {
        if let Some(existing) = self.map.get(&g) {
            assert_eq!(
                (existing.page, existing.txn),
                (page, txn),
                "group {g} already dirty for another page/transaction"
            );
            return;
        }
        self.map.insert(g, DirtyInfo { page, txn, working });
        self.by_txn.entry(txn).or_default().insert(g);
    }

    /// Remove and return every group dirtied by `txn` (at commit or after
    /// rollback). Sorted by group id for determinism.
    pub fn take_txn(&mut self, txn: TxnId) -> Vec<(GroupId, DirtyInfo)> {
        let Some(groups) = self.by_txn.remove(&txn) else {
            return Vec::new();
        };
        groups
            .into_iter()
            .map(|g| {
                let info = self.map.remove(&g).expect("by_txn and map in sync");
                (g, info)
            })
            .collect()
    }

    /// Clean one group (after its riding page has been undone). Returns
    /// the removed info, if the group was dirty.
    pub fn remove(&mut self, g: GroupId) -> Option<DirtyInfo> {
        let info = self.map.remove(&g)?;
        if let Some(set) = self.by_txn.get_mut(&info.txn) {
            set.remove(&g);
            if set.is_empty() {
                self.by_txn.remove(&info.txn);
            }
        }
        Some(info)
    }

    /// Groups dirtied by `txn` without removing them.
    #[must_use]
    pub fn groups_of(&self, txn: TxnId) -> Vec<GroupId> {
        self.by_txn
            .get(&txn)
            .map(|s| s.iter().copied().collect())
            .unwrap_or_default()
    }

    /// Drop everything (crash).
    pub fn clear(&mut self) {
        self.map.clear();
        self.by_txn.clear();
    }

    /// Internal-consistency check between the per-group map and the
    /// per-transaction index; returns one message per inconsistency.
    /// Used by the paranoid invariant auditor.
    pub(crate) fn self_check(&self) -> Vec<String> {
        let mut violations = Vec::new();
        for (g, info) in &self.map {
            if !self
                .by_txn
                .get(&info.txn)
                .is_some_and(|set| set.contains(g))
            {
                violations.push(format!(
                    "dirty group {g} (page {}, txn {}) missing from its owner's by_txn index",
                    info.page, info.txn
                ));
            }
        }
        for (txn, groups) in &self.by_txn {
            for g in groups {
                match self.map.get(g) {
                    None => violations.push(format!(
                        "by_txn index of txn {txn} names group {g}, which is not dirty"
                    )),
                    Some(info) if info.txn != *txn => violations.push(format!(
                        "by_txn index of txn {txn} names group {g}, owned by txn {}",
                        info.txn
                    )),
                    Some(_) => {}
                }
            }
        }
        violations
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const T1: TxnId = TxnId(1);
    const T2: TxnId = TxnId(2);

    #[test]
    fn clean_group_dirties() {
        let mut ds = DirtySet::new();
        assert_eq!(
            ds.classify(GroupId(0), DataPageId(3), T1),
            StealClass::DirtiesGroup
        );
        ds.mark(GroupId(0), DataPageId(3), T1, ParitySlot::P1);
        assert!(ds.is_dirty(GroupId(0)));
        assert_eq!(ds.len(), 1);
    }

    #[test]
    fn same_page_same_txn_rides() {
        let mut ds = DirtySet::new();
        ds.mark(GroupId(0), DataPageId(3), T1, ParitySlot::P1);
        assert_eq!(
            ds.classify(GroupId(0), DataPageId(3), T1),
            StealClass::RidesExisting
        );
    }

    #[test]
    fn different_page_or_txn_needs_logging() {
        let mut ds = DirtySet::new();
        ds.mark(GroupId(0), DataPageId(3), T1, ParitySlot::P1);
        // Same group, different page, same txn.
        assert_eq!(
            ds.classify(GroupId(0), DataPageId(4), T1),
            StealClass::NeedsLogging
        );
        // Same group, same page, different txn.
        assert_eq!(
            ds.classify(GroupId(0), DataPageId(3), T2),
            StealClass::NeedsLogging
        );
    }

    #[test]
    fn remark_same_owner_is_idempotent() {
        let mut ds = DirtySet::new();
        ds.mark(GroupId(0), DataPageId(3), T1, ParitySlot::P1);
        ds.mark(GroupId(0), DataPageId(3), T1, ParitySlot::P1);
        assert_eq!(ds.len(), 1);
    }

    #[test]
    #[should_panic(expected = "already dirty")]
    fn conflicting_mark_panics() {
        let mut ds = DirtySet::new();
        ds.mark(GroupId(0), DataPageId(3), T1, ParitySlot::P1);
        ds.mark(GroupId(0), DataPageId(4), T1, ParitySlot::P1);
    }

    #[test]
    fn take_txn_cleans_only_that_txn() {
        let mut ds = DirtySet::new();
        ds.mark(GroupId(0), DataPageId(1), T1, ParitySlot::P1);
        ds.mark(GroupId(2), DataPageId(9), T1, ParitySlot::P0);
        ds.mark(GroupId(1), DataPageId(5), T2, ParitySlot::P1);
        let taken = ds.take_txn(T1);
        assert_eq!(taken.len(), 2);
        assert_eq!(taken[0].0, GroupId(0));
        assert_eq!(taken[1].0, GroupId(2));
        assert!(!ds.is_dirty(GroupId(0)));
        assert!(ds.is_dirty(GroupId(1)), "T2's group untouched");
        assert!(ds.take_txn(T1).is_empty(), "second take is empty");
    }

    #[test]
    fn groups_of_lists_without_removing() {
        let mut ds = DirtySet::new();
        ds.mark(GroupId(3), DataPageId(1), T1, ParitySlot::P1);
        assert_eq!(ds.groups_of(T1), vec![GroupId(3)]);
        assert!(ds.is_dirty(GroupId(3)));
        assert!(ds.groups_of(T2).is_empty());
    }

    #[test]
    fn remove_then_resteal_dirties_again() {
        // The abort path undoes the riding page and calls `remove`; the
        // group must then classify as clean so a *new* transaction (or the
        // same one retrying) can ride the parity again.
        let mut ds = DirtySet::new();
        ds.mark(GroupId(0), DataPageId(3), T1, ParitySlot::P1);
        assert_eq!(
            ds.remove(GroupId(0)),
            Some(DirtyInfo {
                page: DataPageId(3),
                txn: T1,
                working: ParitySlot::P1,
            })
        );
        assert_eq!(
            ds.classify(GroupId(0), DataPageId(3), T2),
            StealClass::DirtiesGroup
        );
        ds.mark(GroupId(0), DataPageId(3), T2, ParitySlot::P0);
        assert_eq!(ds.get(GroupId(0)).unwrap().txn, T2);
        // And the aborted owner's index entry is gone.
        assert!(ds.groups_of(T1).is_empty());
        assert!(ds.self_check().is_empty());
    }

    #[test]
    fn take_txn_then_resteal_by_same_txn() {
        // After commit (`take_txn`) the same transaction id could in
        // principle reappear (engine ids are unique, but the table must
        // not care): a fresh mark re-dirties from scratch.
        let mut ds = DirtySet::new();
        ds.mark(GroupId(2), DataPageId(9), T1, ParitySlot::P1);
        let taken = ds.take_txn(T1);
        assert_eq!(taken.len(), 1);
        assert!(ds.is_empty());
        assert_eq!(
            ds.classify(GroupId(2), DataPageId(8), T1),
            StealClass::DirtiesGroup
        );
        ds.mark(GroupId(2), DataPageId(8), T1, ParitySlot::P0);
        assert_eq!(ds.groups_of(T1), vec![GroupId(2)]);
        assert!(ds.self_check().is_empty());
    }

    #[test]
    fn classify_covers_all_three_figure3_classes() {
        let mut ds = DirtySet::new();
        ds.mark(GroupId(1), DataPageId(4), T1, ParitySlot::P1);
        // Clean group → dirties.
        assert_eq!(
            ds.classify(GroupId(0), DataPageId(0), T1),
            StealClass::DirtiesGroup
        );
        // Dirty by same page+txn → rides.
        assert_eq!(
            ds.classify(GroupId(1), DataPageId(4), T1),
            StealClass::RidesExisting
        );
        // Dirty by different page or txn → logs.
        assert_eq!(
            ds.classify(GroupId(1), DataPageId(5), T1),
            StealClass::NeedsLogging
        );
        assert_eq!(
            ds.classify(GroupId(1), DataPageId(4), T2),
            StealClass::NeedsLogging
        );
    }

    #[test]
    fn clear_empties() {
        let mut ds = DirtySet::new();
        ds.mark(GroupId(3), DataPageId(1), T1, ParitySlot::P1);
        ds.clear();
        assert!(ds.is_empty());
        assert!(ds.groups_of(T1).is_empty());
    }
}
