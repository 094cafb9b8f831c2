//! Twin-parity page management (paper §4.2) and the Dirty_Set (§4.1,
//! Figure 3).
//!
//! Each parity group of a twin array has two parity pages, `P` and `P'`.
//! One always holds the *valid* parity of the last committed state; the
//! other is either obsolete junk or the *working* parity being updated in
//! place by an in-flight transaction. The valid twin is identified by a
//! timestamp kept in the parity page header; algorithm **Current_Parity**
//! (Figure 7) picks the twin with the larger timestamp.
//!
//! The header lives in its parity page: a [`Header`] of timestamp,
//! Figure-8 state and, on a working twin, the claim — the transaction and
//! the member index (the paper's log₂N bits) of the one page riding the
//! group's parity — written and read in the same transfer as the image.
//!
//! [`TwinDirectory`] is what the paper keeps in memory: the
//! Current_Parity bitmap and which twin is working, held as each group's
//! header pair so that every parity write can stamp its twin's header.
//! It is also the Dirty_Set: a group is dirty exactly while one of its
//! headers is `Working`, and that header is the group's entry (which
//! twin, which transaction, which page). [`TwinMeta::classify`] is the
//! Figure 3 write-back rule over it. A crash drops the directory;
//! restart rebuilds it from one read of each twin. The platter lags the
//! directory in one way only: a commit flips its twins here, and a
//! committed transaction's `Working` header stays on the platter until
//! that twin is next written; restart reads it as the committed parity.
//!
//! Figure 8's four states are tracked explicitly:
//!
//! ```text
//!  committed --(other twin commits)--> obsolete
//!  obsolete/invalid --(update by active txn)--> working
//!  working --(txn commits)--> committed
//!  working --(txn aborts)--> invalid
//! ```

pub use rda_array::TwinState;
use rda_array::{GroupId, Header, ParitySlot};

/// Why a steal may ride the parity (or must be logged): paper Figure 3.
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

/// A group's pair of twin headers, as the directory keeps them: P0's,
/// then P1's. A header in any state but `Working` names no transaction
/// and no rider.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TwinMeta(pub [Header; 2]);

/// A header in `state` at timestamp `ts`, naming no rider.
fn settled(ts: u64, state: TwinState) -> Header {
    Header {
        ts,
        state,
        ..Header::default()
    }
}

impl TwinMeta {
    /// The header pair of a freshly formatted group: what two
    /// never-written blocks read as (P0 committed, P1 obsolete).
    #[must_use]
    pub fn fresh() -> TwinMeta {
        TwinMeta([
            settled(0, TwinState::Committed),
            settled(0, TwinState::Obsolete),
        ])
    }

    /// The pair restart rebuilds from the two headers it read. A claim
    /// `loser` accepts stays `Working`; of the others the larger timestamp
    /// is committed (even a claim of an ended transaction: a commit whose
    /// flip never reached the platter) and the other obsolete, or invalid
    /// if it says so. `None` when both headers are losers' claims.
    #[must_use]
    pub fn from_headers(headers: [Header; 2], loser: impl Fn(&Header) -> bool) -> Option<TwinMeta> {
        let current = ParitySlot::BOTH
            .into_iter()
            .filter(|s| !loser(&headers[s.index()]))
            .max_by_key(|s| (headers[s.index()].ts, s.index() == 0))?;
        let mut meta = TwinMeta(headers);
        for (slot, h) in ParitySlot::BOTH.into_iter().zip(&mut meta.0) {
            if slot == current {
                *h = settled(h.ts, TwinState::Committed);
            } else if !loser(h) && h.state != TwinState::Invalid {
                *h = settled(h.ts, TwinState::Obsolete);
            }
        }
        Some(meta)
    }

    /// The header a write of twin `slot` stores.
    #[must_use]
    pub fn header(&self, slot: ParitySlot) -> Header {
        self.0[slot.index()]
    }

    /// The twin in state `Working`, if any.
    #[must_use]
    pub fn working(&self) -> Option<ParitySlot> {
        ParitySlot::BOTH
            .into_iter()
            .find(|s| self.0[s.index()].state == TwinState::Working)
    }

    /// Classify a steal by transaction `txn` of the member at index
    /// `rider` (Figure 3): a modified page may be written back without
    /// UNDO logging iff the group is clean, or its claim names the same
    /// page and transaction (the page was stolen, re-referenced, modified
    /// and stolen again before EOT).
    #[must_use]
    pub fn classify(&self, txn: u64, rider: u16) -> StealClass {
        match self.working().map(|w| self.header(w)) {
            None => StealClass::DirtiesGroup,
            Some(h) if (h.txn, h.rider) == (txn, rider) => StealClass::RidesExisting,
            Some(_) => StealClass::NeedsLogging,
        }
    }

    /// Algorithm Current_Parity (Figure 7): the twin with the larger
    /// timestamp is the current parity page.
    #[must_use]
    pub fn current(&self) -> ParitySlot {
        if self.0[0].ts >= self.0[1].ts {
            ParitySlot::P0
        } else {
            ParitySlot::P1
        }
    }
}

/// The in-memory directory of twin headers, plus helpers implementing
/// the Figure-8 transitions. Every transition here is a header change
/// the caller's next write of that twin carries to the platter.
pub struct TwinDirectory {
    metas: Vec<TwinMeta>,
    /// False from a crash until restart has read every group's twins.
    known: bool,
}

impl TwinDirectory {
    /// Directory for `groups` freshly formatted groups.
    #[must_use]
    pub fn new(groups: u32) -> TwinDirectory {
        TwinDirectory {
            metas: vec![TwinMeta::fresh(); groups as usize],
            known: true,
        }
    }

    /// The header pair of a group.
    #[must_use]
    pub fn meta(&self, g: GroupId) -> TwinMeta {
        self.metas[g.0 as usize]
    }

    /// The header a write of twin `slot` of group `g` stores.
    #[must_use]
    pub fn header(&self, g: GroupId, slot: ParitySlot) -> Header {
        self.meta(g).header(slot)
    }

    /// Current (valid) parity slot for a group — Current_Parity.
    #[must_use]
    pub fn current_slot(&self, g: GroupId) -> ParitySlot {
        self.meta(g).current()
    }

    /// Largest timestamp anywhere in the directory; the engine's logical
    /// clock runs above it.
    #[must_use]
    pub fn max_ts(&self) -> u64 {
        let ts = self.metas.iter().flat_map(|m| m.0).map(|h| h.ts);
        ts.max().unwrap_or(0)
    }

    /// Begin working on a group: the non-current twin becomes the working
    /// parity with timestamp `now` (which must exceed every timestamp
    /// previously issued), claimed by `txn` for the page at member index
    /// `rider`. Returns the working slot, whose header is the claim.
    ///
    /// This is the header side of "when a data page is modified in a parity
    /// group, the obsolete parity page ... is updated with the new parity".
    pub fn begin_working(&mut self, g: GroupId, now: u64, txn: u64, rider: u16) -> ParitySlot {
        let meta = &mut self.metas[g.0 as usize];
        let work = meta.current().other();
        debug_assert!(
            now > meta.0[work.other().index()].ts,
            "working timestamp must exceed the committed one"
        );
        meta.0[work.index()] = Header {
            ts: now,
            txn,
            rider,
            state: TwinState::Working,
        };
        work
    }

    /// Commit the working twin of every group a committing transaction
    /// dirtied (or of a ride whose twins both died): it becomes the
    /// committed parity (its timestamp is already the larger one) and
    /// drops its rider; the old committed twin becomes obsolete. No parity
    /// I/O happens here — that is the point of the twin scheme.
    pub fn commit_working_all(&mut self, flips: &[(GroupId, ParitySlot)]) {
        for &(g, working) in flips {
            let [w, other] = [working.index(), working.other().index()];
            let meta = &mut self.metas[g.0 as usize].0;
            debug_assert_eq!(meta[w].state, TwinState::Working);
            meta[w] = settled(meta[w].ts, TwinState::Committed);
            meta[other] = settled(meta[other].ts, TwinState::Obsolete);
        }
    }

    /// Invalidate the working twin after an abort (or a steal whose
    /// writes failed after its claim): reset its timestamp and drop its
    /// rider, so Current_Parity again selects the surviving committed twin.
    pub fn invalidate(&mut self, g: GroupId, working: ParitySlot) {
        self.metas[g.0 as usize].0[working.index()] = settled(0, TwinState::Invalid);
    }

    /// Force a group's headers to name `slot` as committed with timestamp
    /// `now` (used when recovery rebuilds parity wholesale).
    pub fn set_committed(&mut self, g: GroupId, slot: ParitySlot, now: u64) {
        let meta = &mut self.metas[g.0 as usize].0;
        meta[slot.index()] = settled(now, TwinState::Committed);
        meta[slot.other().index()] = settled(0, TwinState::Obsolete);
    }

    /// Install the header pair restart rebuilt for a group.
    pub fn install(&mut self, g: GroupId, meta: TwinMeta) {
        self.metas[g.0 as usize] = meta;
    }

    /// Forget every header, as a crash does: each group reads as fresh
    /// until restart installs what its twins say.
    pub fn forget(&mut self) {
        self.metas.fill(TwinMeta::fresh());
        self.known = false;
    }

    /// Restart has installed every group's headers since the last crash.
    pub fn set_known(&mut self) {
        self.known = true;
    }

    /// Does the directory hold the headers, not a crash's blank?
    #[must_use]
    pub fn is_known(&self) -> bool {
        self.known
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use TwinState::{Committed, Invalid, Obsolete, Working};

    #[test]
    fn claim_names_its_rider_until_the_flip_or_invalidation() {
        let mut d = TwinDirectory::new(2);
        let g = GroupId(1);
        let work = d.begin_working(g, 10, 42, 3);
        assert_eq!(work, ParitySlot::P1);
        assert_eq!(d.meta(g).working(), Some(work));
        let claim = d.header(g, work);
        assert_eq!((claim.txn, claim.rider, claim.state), (42, 3, Working));
        d.commit_working_all(&[(g, work)]);
        assert_eq!(d.current_slot(g), ParitySlot::P1);
        assert_eq!(
            d.meta(g),
            TwinMeta([settled(0, Obsolete), settled(10, Committed)])
        );

        let work = d.begin_working(g, 11, 43, 1);
        d.invalidate(g, work);
        assert_eq!(
            d.current_slot(g),
            ParitySlot::P1,
            "the committed twin stays"
        );
        assert_eq!(
            d.meta(g),
            TwinMeta([settled(0, Invalid), settled(10, Committed)])
        );
    }

    /// Figure 3 over the directory: a clean group is dirtied, its claim is
    /// ridden by the same page and transaction only, and a flip or an
    /// invalidation leaves the group clean for the next steal.
    #[test]
    fn classify_covers_all_three_figure3_classes() {
        use StealClass::{DirtiesGroup, NeedsLogging, RidesExisting};
        let mut d = TwinDirectory::new(2);
        let (g, other) = (GroupId(1), GroupId(0));
        assert_eq!(d.meta(g).classify(1, 3), DirtiesGroup);
        let work = d.begin_working(g, 10, 1, 3);
        assert_eq!(d.meta(g).classify(1, 3), RidesExisting);
        assert_eq!(d.meta(g).classify(1, 4), NeedsLogging, "another page");
        assert_eq!(d.meta(g).classify(2, 3), NeedsLogging, "another txn");
        assert_eq!(d.meta(other).classify(2, 3), DirtiesGroup);

        d.commit_working_all(&[(g, work)]);
        assert_eq!(d.meta(g).classify(1, 3), DirtiesGroup, "clean after commit");
        let work = d.begin_working(g, 11, 2, 4);
        assert_eq!(d.meta(g).classify(2, 4), RidesExisting);
        d.invalidate(g, work);
        assert_eq!(d.meta(g).classify(2, 4), DirtiesGroup, "clean after abort");
    }

    #[test]
    fn alternating_commits_ping_pong() {
        let mut d = TwinDirectory::new(1);
        let g = GroupId(0);
        let mut expect = ParitySlot::P0;
        for now in 2..7 {
            let w = d.begin_working(g, now, 1, 0);
            assert_eq!(w, expect.other());
            d.commit_working_all(&[(g, w)]);
            expect = w;
            assert_eq!(d.current_slot(g), expect);
        }
    }

    /// Restart's reading of two headers: two never-written blocks are a
    /// fresh group; a winner's unflipped claim is the committed parity;
    /// a loser's claim stays working; two losers leave nothing committed.
    #[test]
    fn from_headers_resolves_current_parity_past_loser_claims() {
        let never = |_: &Header| false;
        assert_eq!(
            TwinMeta::from_headers([Header::default(); 2], never),
            Some(TwinMeta::fresh())
        );
        let claim = |ts, txn, rider| Header {
            ts,
            txn,
            rider,
            state: Working,
        };
        let committed = settled(5, Committed);
        let loser = |h: &Header| h.txn == 9;
        // P1 holds a winner's unflipped claim at ts 7: it is current.
        let meta = TwinMeta::from_headers([committed, claim(7, 4, 2)], loser).unwrap();
        assert_eq!(
            meta,
            TwinMeta([settled(5, Obsolete), settled(7, Committed)])
        );
        // P1 holds a loser's claim: P0 stays committed, P1 working.
        let meta = TwinMeta::from_headers([committed, claim(7, 9, 2)], loser).unwrap();
        assert_eq!(meta, TwinMeta([committed, claim(7, 9, 2)]));
        assert_eq!(meta.working(), Some(ParitySlot::P1));
        // An invalidated twin stays invalid.
        let meta = TwinMeta::from_headers([settled(0, Invalid), committed], never).unwrap();
        assert_eq!(meta.0.map(|h| h.state), [Invalid, Committed]);
        assert_eq!(
            TwinMeta::from_headers([claim(3, 9, 0), claim(4, 9, 1)], loser),
            None
        );
    }

    #[test]
    fn max_ts_and_set_committed() {
        let mut d = TwinDirectory::new(3);
        assert_eq!(d.max_ts(), 0);
        let g = GroupId(2);
        d.begin_working(g, 99, 1, 0);
        assert_eq!(d.max_ts(), 99);
        d.set_committed(g, ParitySlot::P0, 100);
        assert_eq!(d.current_slot(g), ParitySlot::P0);
        assert_eq!(d.meta(g).0.map(|h| h.state), [Committed, Obsolete]);
        assert_eq!(d.header(g, ParitySlot::P1).ts, 0);
    }

    #[test]
    fn current_parity_prefers_higher_timestamp() {
        // Direct check of Figure 7 semantics.
        let pair = |a, b| TwinMeta([settled(a, Obsolete), settled(b, Committed)]);
        assert_eq!(pair(3, 8).current(), ParitySlot::P1);
        assert_eq!(pair(9, 8).current(), ParitySlot::P0);
        assert_eq!(pair(0, 0).current(), ParitySlot::P0, "a tie is P0's");
    }
}
