//! Invariant auditing: the `ParityAuditor`.
//!
//! The recovery scheme's correctness rests on a small set of cross-layer
//! invariants that no single module can check alone:
//!
//! * **Parity** — for every *clean* group, the current (committed) parity
//!   twin equals the XOR of the group's on-disk data pages; for every
//!   *dirty* group the **working** twin does (the committed twin encodes
//!   the riding page's before-image via `P ⊕ P′ = old ⊕ new`, Figure 6).
//! * **Dirty_Set** — the twin directory's `Working` headers are the
//!   Dirty_Set, and what can disagree with them is checked: each claim
//!   names a live transaction whose `stolen_parity` set holds the claimed
//!   rider (so a quiescent directory holds none); each `stolen_parity`
//!   page's group holds that transaction's claim on it; and a twin
//!   claimed in the directory, or claimed on the platter for a live
//!   transaction, carries the same header on the platter as in the
//!   directory (a claim of a transaction that ended is allowed on the
//!   platter: commits flip their twins in memory, and the header follows
//!   with the twin's next write).
//! * **No leaks** — every lock holder (exclusive, range, *and* shared)
//!   belongs to a live transaction; every buffer frame's uncommitted
//!   modifier is a live transaction whose write set holds that page (EOT
//!   releases a transaction's frames by its write set); once the system
//!   is quiescent, the lock table is empty.
//!
//! The auditor reads the array through the **unbilled**
//! [`peek_data`](rda_array::DiskArray::peek_data) /
//! [`peek_parity`](rda_array::DiskArray::peek_parity) interface so it can
//! run between any two operations without perturbing the transfer counts
//! the paper's cost model is validated against.
//!
//! With the `paranoid` feature enabled, the engine invokes the auditor
//! after every steal, commit, abort and scrub (see
//! `Engine::paranoid_audit`), turning every existing test into an
//! invariant test. [`crate::Database::audit`] runs it on demand either way.

use crate::engine::Engine;
use crate::twin::TwinState;
use rda_array::{ArrayError, BlockDevice, GroupId, Page, ParitySlot};
use rda_wal::TxnId;

/// Outcome of one full audit pass.
#[derive(Debug, Clone, Default)]
pub struct AuditReport {
    /// Groups whose parity was XOR-verified.
    pub groups_checked: u32,
    /// Groups skipped because a member or twin sits on a failed disk or an
    /// unreadable sector (degraded mode — media recovery's job).
    pub groups_skipped: u32,
    /// Human-readable invariant violations (empty ⇔ clean).
    pub violations: Vec<String>,
}

impl AuditReport {
    /// Did every check pass?
    #[must_use]
    pub fn is_clean(&self) -> bool {
        self.violations.is_empty()
    }

    /// The violations found, one message each.
    #[must_use]
    pub fn violations(&self) -> &[String] {
        &self.violations
    }
}

/// Cross-layer invariant checker over a quiesced view of the engine.
///
/// Constructed internally (the engine type is not public); reachable via
/// [`crate::Database::audit`] and, under the `paranoid` feature, from the
/// engine's steal/commit/abort/scrub hooks.
pub(crate) struct ParityAuditor<'a, D: BlockDevice> {
    engine: &'a Engine<D>,
}

impl<'a, D: BlockDevice> ParityAuditor<'a, D> {
    pub(crate) fn new(engine: &'a Engine<D>) -> ParityAuditor<'a, D> {
        ParityAuditor { engine }
    }

    /// Run every check and collect violations.
    pub(crate) fn run(&self) -> AuditReport {
        let mut report = AuditReport::default();
        self.check_claims(&mut report);
        self.check_groups(&mut report);
        self.check_leaks(&mut report);
        report
    }

    // ---- the Dirty_Set: directory, stolen_parity, platter -------------

    fn check_claims(&self, report: &mut AuditReport) {
        let e = self.engine;
        for g in (0..e.dur.array.groups()).map(GroupId) {
            if let Some(work) = e.working_twin(g) {
                let rides = e.claim(g).is_some_and(|c| {
                    (e.active.get(&c.txn)).is_some_and(|st| st.stolen_parity.contains(&c.page))
                });
                if !rides {
                    report.violations.push(format!(
                        "group {g}: the directory's claim {:?} on twin {work:?} names no \
                         live transaction's parity ride — leaked claim",
                        e.twins.header(g, work)
                    ));
                }
            }
            // The claim on the platter: restart finds the rider in the
            // working twin's header alone. (An unreadable twin is a disk
            // death the operation under way turns into a logged steal.)
            for slot in ParitySlot::BOTH {
                let Ok(twin) = e.dur.array.peek_parity(g, slot) else {
                    continue;
                };
                let (disk, mem) = (twin.header(), e.twins.header(g, slot));
                let live =
                    disk.state == TwinState::Working && e.active.contains_key(&TxnId(disk.txn));
                if (live || mem.state == TwinState::Working) && disk != mem {
                    report.violations.push(format!(
                        "group {g}: twin {slot:?} holds header {disk:?} on the platter, \
                         but {mem:?} in the directory"
                    ));
                }
            }
        }
        // Every page a live transaction believes rides the parity has its
        // claim in the directory.
        let mut txns: Vec<_> = e.active.keys().copied().collect();
        txns.sort();
        for txn in txns {
            for page in &e.active[&txn].stolen_parity {
                let g = e.dur.array.geometry().group_of(*page);
                if e.claim(g).is_none_or(|c| (c.txn, c.page) != (txn, *page)) {
                    report.violations.push(format!(
                        "txn {txn}: page {page} is in stolen_parity, but group {g}'s \
                         directory holds no claim of it"
                    ));
                }
            }
        }
    }

    // ---- parity XOR recompute ------------------------------------------

    /// XOR of a group's on-disk members via unbilled peeks. `None` when a
    /// member is unreadable (failed disk or latent sector error).
    fn xor_members(&self, g: GroupId) -> Option<Page> {
        let e = self.engine;
        let mut acc = e.dur.array.blank_page();
        for member in e.dur.array.geometry().members(g) {
            match e.dur.array.peek_data(member) {
                Ok(p) => acc.xor_in_place(&p),
                Err(
                    ArrayError::DiskFailed(_)
                    | ArrayError::MediaError { .. }
                    | ArrayError::TornPage { .. },
                ) => return None,
                Err(e) => {
                    // Out-of-range reads cannot happen for enumerated
                    // members; surface the surprise instead of hiding it.
                    debug_assert!(false, "unexpected peek error: {e}");
                    return None;
                }
            }
        }
        Some(acc)
    }

    fn check_groups(&self, report: &mut AuditReport) {
        let e = self.engine;
        for g in 0..e.dur.array.groups() {
            let g = GroupId(g);
            let Some(xor) = self.xor_members(g) else {
                report.groups_skipped += 1;
                continue;
            };

            // Which twin must equal the member XOR: the working one while
            // the group is dirty, the committed one otherwise. (For the
            // WAL baseline and single-parity layouts this is always P0.)
            let slot = e.disk_read_slot(g);
            match e.dur.array.peek_parity(g, slot) {
                Ok(parity) => {
                    if parity != xor {
                        report.violations.push(format!(
                            "group {g}: parity twin {slot:?} ({}) does not equal the XOR of \
                             the group's data pages",
                            if e.working_twin(g).is_some() {
                                "working"
                            } else {
                                "committed"
                            },
                        ));
                    }
                    report.groups_checked += 1;
                }
                Err(
                    ArrayError::DiskFailed(_)
                    | ArrayError::MediaError { .. }
                    | ArrayError::TornPage { .. },
                ) => {
                    report.groups_skipped += 1;
                }
                Err(err) => report.violations.push(format!(
                    "group {g}: cannot read parity twin {slot:?}: {err}"
                )),
            }

            // For a dirty group the riding page's on-disk contents must be
            // exactly what its owner last stole there — a mismatch means
            // the committed twin's implied before-image is garbage.
            if let Some(claim) = e.claim(g) {
                if let Some(expect) = e
                    .active
                    .get(&claim.txn)
                    .and_then(|st| st.last_stolen.get(&claim.page))
                {
                    match e.dur.array.peek_data(claim.page) {
                        Ok(on_disk) => {
                            if on_disk != *expect {
                                report.violations.push(format!(
                                    "dirty group {g}: on-disk contents of riding page {} \
                                     differ from the owner's last stolen image",
                                    claim.page
                                ));
                            }
                        }
                        Err(
                            ArrayError::DiskFailed(_)
                            | ArrayError::MediaError { .. }
                            | ArrayError::TornPage { .. },
                        ) => {}
                        Err(err) => report.violations.push(format!(
                            "dirty group {g}: cannot read riding page {}: {err}",
                            claim.page
                        )),
                    }
                }
            }
        }
    }

    // ---- leak detection -------------------------------------------------

    fn check_leaks(&self, report: &mut AuditReport) {
        let e = self.engine;
        for holder in e.locks.holder_txns() {
            if !e.active.contains_key(&holder) {
                report.violations.push(format!(
                    "lock table: txn {holder} holds a lock but is not alive — leaked entry"
                ));
            }
        }
        // Commit and abort release a transaction's frames by its write
        // set, so a modifier outside it would never be released.
        for (page, txn) in e.buffer.modifiers() {
            let txn = TxnId(txn);
            match e.active.get(&txn) {
                None => report.violations.push(format!(
                    "buffer: page {page}'s frame names txn {txn} as a modifier, \
                     but it is not alive — leaked modifier"
                )),
                Some(st) if !st.written.contains(&page) => report.violations.push(format!(
                    "buffer: page {page}'s frame names txn {txn} as a modifier, \
                     but the page is not in its write set"
                )),
                Some(_) => {}
            }
        }
        if e.active.is_empty() && !e.locks.is_empty() {
            report
                .violations
                .push("quiescent, but the lock table is not empty".to_string());
        }
    }
}

impl<D: BlockDevice> Engine<D> {
    /// Run the cross-layer invariant auditor on the current state.
    pub(crate) fn run_audit(&self) -> AuditReport {
        ParityAuditor::new(self).run()
    }

    /// Paranoid-mode hook: audit after a state transition and panic (in
    /// debug builds) on any violation, naming the operation that broke the
    /// invariant. Compiled away without the `paranoid` feature.
    #[cfg(feature = "paranoid")]
    pub(crate) fn paranoid_audit(&self, context: &str) {
        if self.cfg.mutations.any() {
            // Deliberate protocol breakage under test: the mutation is
            // *supposed* to violate invariants, and the checker (not this
            // assert) must be the one to observe it.
            return;
        }
        let report = self.run_audit();
        debug_assert!(
            report.is_clean(),
            "paranoid audit failed after {context}:\n{}",
            report.violations().join("\n")
        );
    }

    #[cfg(not(feature = "paranoid"))]
    #[inline]
    pub(crate) fn paranoid_audit(&self, _context: &str) {}
}

// The paranoid feature flips on the engine hooks; exercised end-to-end by
// `tests/paranoid_tests.rs`. Unit tests here cover the report type.
#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_report_is_clean() {
        let report = AuditReport::default();
        assert!(report.is_clean());
        assert!(report.violations().is_empty());
    }

    #[test]
    fn a_modifier_outside_a_write_set_is_a_leak() {
        use rda_array::DataPageId;
        let mut e =
            crate::engine::Engine::open(crate::DbConfig::small_test(crate::EngineKind::Rda));
        let txn = e.begin(1).unwrap();
        e.txn_write(txn, DataPageId(0), b"w").unwrap();
        e.txn_read(txn, DataPageId(1)).unwrap();
        assert!(e.run_audit().is_clean());
        // A frame naming a live transaction that did not write it, and
        // one naming a transaction that is not alive.
        assert!(e.buffer.update_resident(DataPageId(1), txn.0).is_some());
        assert!(e.buffer.update_resident(DataPageId(0), 99).is_some());
        let report = e.run_audit();
        assert_eq!(report.violations().len(), 2, "{:?}", report.violations());
        for expect in ["D1's frame names txn T1 ", "D0's frame names txn T99 "] {
            assert!(
                report.violations().iter().any(|v| v.contains(expect)),
                "{expect}: {:?}",
                report.violations()
            );
        }
    }

    #[test]
    fn fresh_database_audits_clean() {
        let db = crate::Database::open(crate::DbConfig::small_test(crate::EngineKind::Rda));
        let report = db.audit();
        assert!(report.is_clean(), "{:?}", report.violations());
        assert!(report.groups_checked > 0);
        assert_eq!(report.groups_skipped, 0);
    }
}
