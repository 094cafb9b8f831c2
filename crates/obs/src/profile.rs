//! The lock-wait profiler: which pages transactions queue behind, and
//! for how long.
//!
//! The engine's page locks are try-acquire (they never block), so a
//! "wait" here is the span from a transaction's *first conflict* on a
//! page to its eventual successful acquisition on retry. The profile
//! keeps two things: a per-page conflict census (deterministic — it
//! counts protocol events, not clocks) feeding the top-contended-pages
//! report, and a pending `(txn, page) → first-conflict nanos` map that
//! turns the retry that finally wins into one wall-clock wait sample.
//!
//! All methods take a short mutex; they sit on the conflict/acquire
//! paths, which are already failure paths or lock-table operations, so
//! the cost is noise next to the work they annotate.

use crate::json::Json;
use crate::json_obj;
use crate::sync::Mutex;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::OnceLock;
use std::time::Instant;

/// Nanoseconds since the first call in this process — the wall-clock
/// companion to the billed-I/O clock for span timing. Monotonic, cheap,
/// and never persisted raw (only differences feed histograms).
#[must_use]
pub fn monotonic_nanos() -> u64 {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    let epoch = *EPOCH.get_or_init(Instant::now);
    u64::try_from(epoch.elapsed().as_nanos()).unwrap_or(u64::MAX)
}

#[derive(Default)]
struct ProfileInner {
    /// Page → conflicts observed (deterministic census).
    conflicts: BTreeMap<u32, u64>,
    /// `(txn, page)` → nanos at first conflict, awaiting acquisition.
    pending: BTreeMap<(u64, u32), u64>,
}

/// Shared lock-contention profile; one per database instance, hanging
/// off the [`ObsHub`](crate::ObsHub).
#[derive(Default)]
pub struct LockProfile {
    inner: Mutex<ProfileInner>,
    /// Pending-map size mirror, so the (overwhelmingly common)
    /// first-try acquisition path is one relaxed load — no mutex, no
    /// clock read. See [`LockProfile::has_pending`].
    pending_count: AtomicUsize,
}

impl LockProfile {
    /// A fresh, empty profile.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Record a lock conflict of `txn` on `page` at `now` (from
    /// [`monotonic_nanos`]). The first conflict starts the wait clock;
    /// repeats on the same pair only bump the census.
    pub fn note_conflict(&self, page: u32, txn: u64, now: u64) {
        let mut inner = self.inner.lock();
        *inner.conflicts.entry(page).or_insert(0) += 1;
        if let std::collections::btree_map::Entry::Vacant(e) = inner.pending.entry((txn, page)) {
            e.insert(now);
            // ordering: Relaxed — advisory size mirror; a stale read only
            // costs one skipped (or extra) slow-path check.
            self.pending_count.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Is any `(txn, page)` wait clock running? One relaxed load — the
    /// caller's license to skip the clock read and mutex entirely on the
    /// uncontended path.
    #[must_use]
    pub fn has_pending(&self) -> bool {
        // ordering: Relaxed — advisory, see pending_count.
        self.pending_count.load(Ordering::Relaxed) != 0
    }

    /// Record that `txn` finally acquired `page` at `now`. Returns the
    /// wait in nanos if a conflict had started the clock (a first-try
    /// acquisition returns `None` — no wait to report).
    pub fn note_acquired(&self, page: u32, txn: u64, now: u64) -> Option<u64> {
        let started = self.inner.lock().pending.remove(&(txn, page))?;
        // ordering: Relaxed — advisory size mirror, see pending_count.
        self.pending_count.fetch_sub(1, Ordering::Relaxed);
        Some(now.saturating_sub(started))
    }

    /// Drop `txn`'s pending waits (commit or abort) so an abandoned
    /// conflict can never leak into a later transaction's timing.
    pub fn forget_txn(&self, txn: u64) {
        let mut inner = self.inner.lock();
        let before = inner.pending.len();
        inner.pending.retain(|&(t, _), _| t != txn);
        let dropped = before - inner.pending.len();
        // ordering: Relaxed — advisory size mirror, see pending_count.
        self.pending_count.fetch_sub(dropped, Ordering::Relaxed);
    }

    /// The `n` most conflicted pages as `(page, conflicts)`, most
    /// contended first (ties broken by page id, so the report is
    /// deterministic for a deterministic schedule).
    #[must_use]
    pub fn top_contended(&self, n: usize) -> Vec<(u32, u64)> {
        let inner = self.inner.lock();
        let mut all: Vec<(u32, u64)> = inner.conflicts.iter().map(|(&p, &c)| (p, c)).collect();
        all.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
        all.truncate(n);
        all
    }

    /// [`LockProfile::top_contended`] as `[{"page":P,"conflicts":C},...]`.
    #[must_use]
    pub fn top_contended_json(&self, n: usize) -> Json {
        let pages = self.top_contended(n).into_iter();
        Json::Arr(
            pages
                .map(|(page, conflicts)| json_obj! { "page": page, "conflicts": conflicts })
                .collect(),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn conflict_then_acquire_reports_the_wait() {
        let p = LockProfile::new();
        p.note_conflict(4, 7, 100);
        p.note_conflict(4, 7, 150); // retry conflicts keep the first clock
        assert_eq!(p.note_acquired(4, 7, 400), Some(300));
        // Consumed: a second acquisition is first-try.
        assert_eq!(p.note_acquired(4, 7, 500), None);
    }

    #[test]
    fn first_try_acquisition_has_no_wait() {
        let p = LockProfile::new();
        assert_eq!(p.note_acquired(9, 1, 10), None);
    }

    #[test]
    fn forget_txn_drops_pending_not_census() {
        let p = LockProfile::new();
        p.note_conflict(2, 5, 10);
        p.forget_txn(5);
        assert_eq!(p.note_acquired(2, 5, 99), None);
        assert_eq!(p.top_contended(8), vec![(2, 1)]);
    }

    #[test]
    fn top_contended_sorts_by_count_then_page() {
        let p = LockProfile::new();
        for _ in 0..3 {
            p.note_conflict(9, 1, 0);
        }
        for _ in 0..3 {
            p.note_conflict(2, 1, 0);
        }
        p.note_conflict(5, 1, 0);
        assert_eq!(p.top_contended(2), vec![(2, 3), (9, 3)]);
        let json = p.top_contended_json(8).to_string();
        assert_eq!(
            json,
            "[{\"page\":2,\"conflicts\":3},{\"page\":9,\"conflicts\":3},\
             {\"page\":5,\"conflicts\":1}]"
        );
        assert_eq!(Json::parse(&json).map(|j| j.to_string()), Ok(json));
    }

    #[test]
    fn monotonic_nanos_is_monotonic() {
        let a = monotonic_nanos();
        let b = monotonic_nanos();
        assert!(b >= a);
    }
}
