//! Twin-parity page management (paper §4.2).
//!
//! Each parity group of a twin array has two parity pages, `P` and `P'`.
//! One always holds the *valid* parity of the last committed state; the
//! other is either obsolete junk or the *working* parity being updated in
//! place by an in-flight transaction. The valid twin is identified by a
//! timestamp kept in the parity page header; algorithm **Current_Parity**
//! (Figure 7) picks the twin with the larger timestamp.
//!
//! The [`TwinDirectory`] models those on-disk page headers: it is durable
//! (survives a simulated crash) and is updated in the same operation as the
//! corresponding parity-page write, so it costs no additional transfers —
//! exactly like a header travelling inside the page.
//!
//! A working twin's header also names its *rider*: the transaction that
//! claimed it and the member index (the paper's log₂N bits) of the one
//! page riding the group's parity. That is the paper's in-memory
//! Dirty_Set entry made durable, so restart recovery finds every loser's
//! parity-riding pages in the headers alone — no separate steal chain.
//!
//! Figure 8's four states are tracked explicitly:
//!
//! ```text
//!  committed --(other twin commits)--> obsolete
//!  obsolete/invalid --(update by active txn)--> working
//!  working --(txn commits)--> committed
//!  working --(txn aborts)--> invalid
//! ```

use crate::backend::MetaSink;
use rda_array::{GroupId, ParitySlot};
use rda_obs::sync::Mutex;
use std::sync::Arc;

/// State of one twin parity page (paper Figure 8).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TwinState {
    /// Holds the parity of the last committed update — the valid twin.
    Committed,
    /// The other twin is committed; this one holds old junk.
    Obsolete,
    /// Updated in place by an active transaction.
    Working,
    /// The last transaction that updated it aborted; contents are junk and
    /// the timestamp has been reset.
    Invalid,
}

/// Durable per-group twin metadata (the parity page headers). One twin's
/// header is `(ts, txn, rider, state)`: 19 bytes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TwinMeta {
    /// Timestamp in each twin's header. Higher = more recent update.
    pub ts: [u64; 2],
    /// Figure-8 state of each twin.
    pub state: [TwinState; 2],
    /// The transaction a `Working` twin belongs to; `0` (no transaction
    /// has that id) in every other state.
    pub txn: [u64; 2],
    /// Member index within the group of the page riding a `Working`
    /// twin; `0` in every other state.
    pub rider: [u16; 2],
}

impl TwinMeta {
    /// The header pair of a freshly formatted group.
    #[must_use]
    pub fn fresh() -> TwinMeta {
        // A freshly formatted array: P0 holds the (all-zero) committed
        // parity, P1 is obsolete.
        TwinMeta {
            ts: [1, 0],
            state: [TwinState::Committed, TwinState::Obsolete],
            txn: [0; 2],
            rider: [0; 2],
        }
    }

    /// The twin in state `Working`, if any. Only a restored header pair
    /// that restart has not resolved yet can have two; P0 comes first.
    #[must_use]
    pub fn working(&self) -> Option<ParitySlot> {
        ParitySlot::BOTH
            .into_iter()
            .find(|s| self.state[s.index()] == TwinState::Working)
    }

    /// Set one twin's Figure-8 state; every state but `Working` drops the
    /// rider.
    fn set(&mut self, slot: ParitySlot, state: TwinState) {
        let i = slot.index();
        self.state[i] = state;
        if state != TwinState::Working {
            self.txn[i] = 0;
            self.rider[i] = 0;
        }
    }

    /// Algorithm Current_Parity (Figure 7): the twin with the larger
    /// timestamp is the current parity page.
    #[must_use]
    pub fn current(&self) -> ParitySlot {
        if self.ts[0] >= self.ts[1] {
            ParitySlot::P0
        } else {
            ParitySlot::P1
        }
    }
}

/// The durable directory of twin parity headers, plus helpers implementing
/// the Figure-8 transitions.
pub struct TwinDirectory {
    metas: Mutex<Vec<TwinMeta>>,
    /// Optional backend journal: every header mutation is mirrored there
    /// synchronously, the way a real header travels inside its page write.
    sink: Option<Arc<dyn MetaSink>>,
}

impl TwinDirectory {
    /// Directory for `groups` freshly formatted groups.
    #[must_use]
    pub fn new(groups: u32) -> TwinDirectory {
        TwinDirectory::restore(vec![TwinMeta::fresh(); groups as usize], None)
    }

    /// Directory over headers read back from a backend journal (or fresh
    /// ones), mirroring future mutations into `sink`.
    #[must_use]
    pub fn restore(metas: Vec<TwinMeta>, sink: Option<Arc<dyn MetaSink>>) -> TwinDirectory {
        TwinDirectory {
            metas: Mutex::new(metas),
            sink,
        }
    }

    fn journal(&self, g: GroupId, meta: TwinMeta) {
        if let Some(sink) = &self.sink {
            sink.twin_meta(g.0, meta);
        }
    }

    /// Number of groups tracked.
    #[must_use]
    pub fn groups(&self) -> u32 {
        self.metas.lock().len() as u32
    }

    /// The header pair of a group.
    #[must_use]
    pub fn meta(&self, g: GroupId) -> TwinMeta {
        self.metas.lock()[g.0 as usize]
    }

    /// Current (valid) parity slot for a group — Current_Parity.
    #[must_use]
    pub fn current_slot(&self, g: GroupId) -> ParitySlot {
        self.meta(g).current()
    }

    /// Largest timestamp anywhere in the directory; restart recovery seeds
    /// its logical clock above this.
    #[must_use]
    pub fn max_ts(&self) -> u64 {
        self.metas
            .lock()
            .iter()
            .map(|m| m.ts[0].max(m.ts[1]))
            .max()
            .unwrap_or(0)
    }

    /// Begin working on a group: the non-current twin becomes the working
    /// parity with timestamp `now` (which must exceed every timestamp
    /// previously issued), claimed by `txn` for the page at member index
    /// `rider`. Returns the working slot.
    ///
    /// This is the header side of "when a data page is modified in a parity
    /// group, the obsolete parity page ... is updated with the new parity".
    /// The claim is durable on return, so the steal makes it before its
    /// first platter write: a restart that finds any of the steal's writes
    /// also finds the header naming the page to undo.
    pub fn begin_working(&self, g: GroupId, now: u64, txn: u64, rider: u16) -> ParitySlot {
        let mut metas = self.metas.lock();
        let meta = &mut metas[g.0 as usize];
        let cur = meta.current();
        let work = cur.other();
        debug_assert!(
            now > meta.ts[cur.index()],
            "working timestamp must exceed the committed one"
        );
        meta.ts[work.index()] = now;
        meta.set(work, TwinState::Working);
        meta.txn[work.index()] = txn;
        meta.rider[work.index()] = rider;
        let snap = *meta;
        drop(metas);
        self.journal(g, snap);
        work
    }

    /// Commit the working twin of a group: it becomes the committed parity
    /// (its timestamp is already the larger one) and drops its rider; the
    /// old committed twin becomes obsolete. No parity I/O happens here —
    /// that is the point of the twin scheme.
    pub fn commit_working(&self, g: GroupId, working: ParitySlot) {
        self.commit_working_all(&[(g, working)]);
    }

    /// [`commit_working`](TwinDirectory::commit_working) for every group a
    /// committing transaction dirtied, as one step: all the flips happen
    /// under one hold of the directory lock and reach the backend journal
    /// through one [`MetaSink::twin_metas`] call. An empty slice does
    /// nothing. A restored header pair can name two working twins (a
    /// winner whose flip never landed, then a later claim on the other
    /// twin); flipping one leaves the other's claim for restart to undo.
    pub fn commit_working_all(&self, flips: &[(GroupId, ParitySlot)]) {
        if flips.is_empty() {
            return;
        }
        let mut metas = self.metas.lock();
        for &(g, working) in flips {
            let meta = &mut metas[g.0 as usize];
            debug_assert_eq!(meta.state[working.index()], TwinState::Working);
            meta.set(working, TwinState::Committed);
            if meta.state[working.other().index()] != TwinState::Working {
                meta.set(working.other(), TwinState::Obsolete);
            }
        }
        let Some(sink) = &self.sink else { return };
        let snaps: Vec<(u32, TwinMeta)> = flips
            .iter()
            .map(|&(g, _)| (g.0, metas[g.0 as usize]))
            .collect();
        drop(metas);
        sink.twin_metas(&snaps);
    }

    /// Invalidate the working twin after an abort (or a steal whose
    /// writes failed after its claim): reset its timestamp and drop its
    /// rider, so Current_Parity again selects the surviving committed twin.
    pub fn invalidate(&self, g: GroupId, working: ParitySlot) {
        let mut metas = self.metas.lock();
        let meta = &mut metas[g.0 as usize];
        meta.ts[working.index()] = 0;
        meta.set(working, TwinState::Invalid);
        let snap = *meta;
        drop(metas);
        self.journal(g, snap);
    }

    /// Force a group's headers to name `slot` as committed with timestamp
    /// `now` (used when recovery rebuilds parity wholesale).
    pub fn set_committed(&self, g: GroupId, slot: ParitySlot, now: u64) {
        let mut metas = self.metas.lock();
        let meta = &mut metas[g.0 as usize];
        meta.ts[slot.index()] = now;
        meta.set(slot, TwinState::Committed);
        meta.ts[slot.other().index()] = 0;
        meta.set(slot.other(), TwinState::Obsolete);
        let snap = *meta;
        drop(metas);
        self.journal(g, snap);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fresh_directory_selects_p0() {
        let d = TwinDirectory::new(4);
        assert_eq!(d.groups(), 4);
        assert_eq!(d.current_slot(GroupId(2)), ParitySlot::P0);
        assert_eq!(d.meta(GroupId(0)).state[0], TwinState::Committed);
        assert_eq!(d.meta(GroupId(0)).state[1], TwinState::Obsolete);
    }

    #[test]
    fn working_then_commit_flips_current() {
        let d = TwinDirectory::new(2);
        let g = GroupId(1);
        let work = d.begin_working(g, 10, 1, 0);
        assert_eq!(work, ParitySlot::P1);
        // Timestamp already larger, so Current_Parity (raw timestamp
        // comparison) would already pick the working twin — which is why
        // normal operation uses the in-memory dirty set, and crash recovery
        // fixes loser groups before trusting timestamps.
        assert_eq!(d.meta(g).state[1], TwinState::Working);
        d.commit_working(g, work);
        assert_eq!(d.current_slot(g), ParitySlot::P1);
        assert_eq!(d.meta(g).state, [TwinState::Obsolete, TwinState::Committed]);
    }

    #[test]
    fn claim_names_its_rider_until_the_flip_or_invalidation() {
        let d = TwinDirectory::new(2);
        let g = GroupId(1);
        let work = d.begin_working(g, 10, 42, 3);
        let meta = d.meta(g);
        assert_eq!(meta.working(), Some(work));
        assert_eq!((meta.txn[work.index()], meta.rider[work.index()]), (42, 3));
        assert_eq!(
            (
                meta.txn[work.other().index()],
                meta.rider[work.other().index()]
            ),
            (0, 0)
        );
        d.commit_working(g, work);
        assert_eq!(
            (d.meta(g).txn, d.meta(g).rider),
            ([0; 2], [0; 2]),
            "flip clears it"
        );
        assert_eq!(d.meta(g).working(), None);

        let work = d.begin_working(g, 11, 43, 1);
        assert_eq!(d.meta(g).txn[work.index()], 43);
        d.invalidate(g, work);
        assert_eq!(
            (d.meta(g).txn, d.meta(g).rider),
            ([0; 2], [0; 2]),
            "invalidate clears it"
        );
        assert_eq!(d.meta(g).state[work.index()], TwinState::Invalid);
    }

    #[test]
    fn working_then_invalidate_keeps_old_committed() {
        let d = TwinDirectory::new(1);
        let g = GroupId(0);
        let work = d.begin_working(g, 7, 1, 0);
        d.invalidate(g, work);
        assert_eq!(d.current_slot(g), ParitySlot::P0);
        assert_eq!(d.meta(g).state, [TwinState::Committed, TwinState::Invalid]);
        assert_eq!(d.meta(g).ts[1], 0);
    }

    #[test]
    fn alternating_commits_ping_pong() {
        let d = TwinDirectory::new(1);
        let g = GroupId(0);
        let mut now = 1;
        let mut expect = ParitySlot::P0;
        for _ in 0..5 {
            now += 1;
            let w = d.begin_working(g, now, 1, 0);
            assert_eq!(w, expect.other());
            d.commit_working(g, w);
            expect = w;
            assert_eq!(d.current_slot(g), expect);
        }
    }

    /// A sink that records what it is handed, call by call.
    #[derive(Default)]
    struct Recorder {
        single: Mutex<Vec<(u32, TwinMeta)>>,
        batches: Mutex<Vec<Vec<(u32, TwinMeta)>>>,
    }

    impl MetaSink for Recorder {
        fn twin_meta(&self, group: u32, meta: TwinMeta) {
            self.single.lock().push((group, meta));
        }
        fn twin_metas(&self, metas: &[(u32, TwinMeta)]) {
            self.batches.lock().push(metas.to_vec());
        }
        fn intent_set(&self, _: &crate::backend::IntentRecord) {}
        fn intent_clear(&self) {}
    }

    #[test]
    fn commit_working_all_equals_per_group_commit_working() {
        let groups = [GroupId(0), GroupId(2), GroupId(3), GroupId(5)];
        let sink = Arc::new(Recorder::default());
        let all = TwinDirectory::restore(vec![TwinMeta::fresh(); 6], Some(sink.clone()));
        let each = TwinDirectory::new(6);
        let mut flips = Vec::new();
        for (i, g) in groups.into_iter().enumerate() {
            // Group 3 is on its second round, so its working twin is P0.
            if g == GroupId(3) {
                for d in [&all, &each] {
                    let w = d.begin_working(g, 5, 1, 0);
                    d.commit_working(g, w);
                }
            }
            let now = 10 + i as u64;
            flips.push((g, all.begin_working(g, now, 1, 0)));
            assert_eq!(each.begin_working(g, now, 1, 0), flips[i].1);
        }
        sink.single.lock().clear();
        sink.batches.lock().clear();

        all.commit_working_all(&flips);
        for &(g, w) in &flips {
            each.commit_working(g, w);
        }
        for g in (0..6).map(GroupId) {
            assert_eq!(all.meta(g), each.meta(g), "{g}");
        }
        assert_eq!(all.current_slot(GroupId(3)), ParitySlot::P0);
        assert_eq!(all.meta(GroupId(1)), TwinMeta::fresh(), "not in the slice");
        // One sink call, the flipped headers in slice order.
        let expect: Vec<_> = groups.iter().map(|&g| (g.0, each.meta(g))).collect();
        assert_eq!(*sink.batches.lock(), vec![expect]);
        assert!(sink.single.lock().is_empty());
    }

    #[test]
    fn commit_working_all_of_nothing_touches_neither_state_nor_sink() {
        let sink = Arc::new(Recorder::default());
        let d = TwinDirectory::restore(vec![TwinMeta::fresh(); 2], Some(sink.clone()));
        let work = d.begin_working(GroupId(1), 4, 1, 0);
        let before = [d.meta(GroupId(0)), d.meta(GroupId(1))];
        sink.single.lock().clear();
        d.commit_working_all(&[]);
        assert_eq!([d.meta(GroupId(0)), d.meta(GroupId(1))], before);
        assert_eq!(d.meta(GroupId(1)).state[work.index()], TwinState::Working);
        assert!(sink.single.lock().is_empty() && sink.batches.lock().is_empty());
    }

    #[test]
    fn max_ts_tracks_all_groups() {
        let d = TwinDirectory::new(3);
        assert_eq!(d.max_ts(), 1);
        d.begin_working(GroupId(2), 99, 1, 0);
        assert_eq!(d.max_ts(), 99);
    }

    #[test]
    fn set_committed_overrides() {
        let d = TwinDirectory::new(1);
        let g = GroupId(0);
        d.begin_working(g, 5, 1, 0);
        d.set_committed(g, ParitySlot::P1, 6);
        assert_eq!(d.current_slot(g), ParitySlot::P1);
        assert_eq!(d.meta(g).ts[0], 0);
    }

    #[test]
    fn current_parity_prefers_higher_timestamp() {
        // Direct check of Figure 7 semantics.
        let meta = TwinMeta {
            ts: [3, 8],
            state: [TwinState::Obsolete, TwinState::Committed],
            ..TwinMeta::fresh()
        };
        assert_eq!(meta.current(), ParitySlot::P1);
        let meta = TwinMeta {
            ts: [9, 8],
            state: [TwinState::Committed, TwinState::Obsolete],
            ..TwinMeta::fresh()
        };
        assert_eq!(meta.current(), ParitySlot::P0);
    }
}
