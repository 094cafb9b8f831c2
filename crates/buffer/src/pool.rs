//! The buffer pool.

use rda_array::{DataPageId, Page};
use rda_obs::{EventKind, Tracer};
use std::collections::{BTreeSet, HashMap};
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Which frame-replacement policy the pool uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReplacePolicy {
    /// Second-chance clock.
    Clock,
    /// Strict least-recently-used.
    Lru,
}

/// Pool configuration.
#[derive(Debug, Clone)]
pub struct BufferConfig {
    /// Number of frames (the paper's `B`).
    pub frames: usize,
    /// STEAL policy: may pages modified by uncommitted transactions be
    /// written back before EOT? (¬STEAL refuses to evict such frames.)
    pub steal: bool,
    /// Replacement policy.
    pub policy: ReplacePolicy,
}

impl BufferConfig {
    /// A STEAL/clock pool with `frames` frames — the paper's setting.
    #[must_use]
    pub fn steal_clock(frames: usize) -> BufferConfig {
        BufferConfig {
            frames,
            steal: true,
            policy: ReplacePolicy::Clock,
        }
    }
}

/// Errors from pool operations. `E` is the caller's backend error type
/// (propagated out of the `fetch` / `steal` closures).
#[derive(Debug, PartialEq, Eq)]
pub enum BufferError<E> {
    /// Every frame is pinned or ineligible (¬STEAL with uncommitted
    /// modifiers); the pool cannot make room.
    NoEvictableFrame,
    /// The fetch or steal closure failed.
    Backend(E),
}

impl<E: fmt::Display> fmt::Display for BufferError<E> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BufferError::NoEvictableFrame => write!(f, "no evictable buffer frame"),
            BufferError::Backend(e) => write!(f, "buffer backend error: {e}"),
        }
    }
}

impl<E: fmt::Debug + fmt::Display> std::error::Error for BufferError<E> {}

/// A dirty frame being evicted, handed to the caller's steal closure.
///
/// `modifiers` is non-empty exactly when this is a true *steal* in the
/// paper's sense — the page carries updates of uncommitted transactions,
/// and the recovery manager must arrange UNDO protection (before-image
/// logging, or a dirty parity group) before the write reaches the database.
#[derive(Debug)]
pub struct StealRequest<'a> {
    /// The page being written back.
    pub page: DataPageId,
    /// Current (possibly uncommitted) contents.
    pub data: &'a Page,
    /// Uncommitted transactions that have modified the frame.
    pub modifiers: &'a BTreeSet<u64>,
}

/// A frame evicted via [`BufferPool::pop_victim`]; the caller owns the
/// write-back decision.
#[derive(Debug)]
pub struct Evicted {
    /// The evicted page.
    pub page: DataPageId,
    /// Its contents at eviction time.
    pub data: Page,
    /// Uncommitted transactions that modified it.
    pub modifiers: BTreeSet<u64>,
    /// Whether the contents differ from the disk version.
    pub dirty: bool,
}

/// Counters exposed for tests and the simulator.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct BufferStats {
    /// Lookups served from the pool.
    pub hits: u64,
    /// Lookups that had to fetch.
    pub misses: u64,
    /// Dirty evictions with uncommitted modifiers (paper steals).
    pub steals: u64,
    /// Dirty evictions without uncommitted modifiers.
    pub writebacks: u64,
    /// Clean evictions.
    pub drops: u64,
    /// Frames examined while hunting an eviction victim. A full LRU scan
    /// adds one per occupied frame; a hit on the cached LRU watermark
    /// adds exactly one.
    pub eviction_scans: u64,
}

impl BufferStats {
    /// Observed hit ratio (the empirical communality `C`).
    #[must_use]
    pub fn hit_ratio(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            return 0.0;
        }
        self.hits as f64 / total as f64
    }

    /// Add another snapshot's counters into this one (merging per-shard
    /// buffer partitions into an aggregate view).
    pub fn accumulate(&mut self, other: &BufferStats) {
        self.hits += other.hits;
        self.misses += other.misses;
        self.steals += other.steals;
        self.writebacks += other.writebacks;
        self.drops += other.drops;
        self.eviction_scans += other.eviction_scans;
    }
}

/// The pool's live counters: lock-free atomics shared via `Arc`, so a
/// metrics registry can register read-only views over them without going
/// through the engine's lock. [`BufferPool::stats`] loads them into the
/// plain [`BufferStats`] snapshot the rest of the stack consumes.
#[derive(Debug, Default)]
pub struct PoolCounters {
    /// Lookups served from the pool.
    pub hits: AtomicU64,
    /// Lookups that had to fetch.
    pub misses: AtomicU64,
    /// Dirty evictions with uncommitted modifiers (paper steals).
    pub steals: AtomicU64,
    /// Dirty evictions without uncommitted modifiers.
    pub writebacks: AtomicU64,
    /// Clean evictions.
    pub drops: AtomicU64,
    /// Frames examined while hunting an eviction victim.
    pub eviction_scans: AtomicU64,
}

impl PoolCounters {
    fn bump(field: &AtomicU64) {
        // ordering: Relaxed — stats counter; snapshots need no ordering.
        field.fetch_add(1, Ordering::Relaxed);
    }

    /// Load all counters into a point-in-time snapshot.
    #[must_use]
    pub fn load(&self) -> BufferStats {
        BufferStats {
            // ordering: Relaxed (all six) — counter reads; the snapshot
            // is advisory and tolerates skew between fields.
            hits: self.hits.load(Ordering::Relaxed),
            // ordering: as above.
            misses: self.misses.load(Ordering::Relaxed),
            // ordering: as above.
            steals: self.steals.load(Ordering::Relaxed),
            // ordering: as above.
            writebacks: self.writebacks.load(Ordering::Relaxed),
            // ordering: as above.
            drops: self.drops.load(Ordering::Relaxed),
            // ordering: as above.
            eviction_scans: self.eviction_scans.load(Ordering::Relaxed),
        }
    }
}

struct Frame {
    page: DataPageId,
    data: Page,
    dirty: bool,
    pins: u32,
    modifiers: BTreeSet<u64>,
    ref_bit: bool,
    last_use: u64,
}

/// A fixed-capacity database buffer pool.
///
/// All mutation goes through `&mut self`; the owning engine provides its
/// own locking (the paper's model is of logical concurrency over a single
/// I/O subsystem, and `rda-core` serializes engine operations).
pub struct BufferPool {
    cfg: BufferConfig,
    slots: Vec<Option<Frame>>,
    map: HashMap<DataPageId, usize>,
    free: Vec<usize>,
    hand: usize,
    tick: u64,
    counters: Arc<PoolCounters>,
    tracer: Arc<Tracer>,
    /// Cached LRU watermark: `(slot, last_use)` of the frame that was the
    /// *global* minimum `last_use` over all occupied frames (evictable or
    /// not) at the end of the previous full scan. Ticks only grow, so no
    /// later touch or install can create a smaller one; the hint stays
    /// authoritative as long as that frame is untouched and evictable,
    /// letting `pick_victim` skip the O(frames) scan.
    lru_hint: Option<(usize, u64)>,
}

impl BufferPool {
    /// Create an empty pool with a private, disabled tracer.
    ///
    /// # Panics
    /// Panics if `cfg.frames == 0`.
    #[must_use]
    pub fn new(cfg: BufferConfig) -> BufferPool {
        BufferPool::with_obs(cfg, Tracer::disabled())
    }

    /// Create an empty pool sharing the caller's [`Tracer`] — evictions
    /// emit `Evict` events classified as steal / writeback / drop.
    ///
    /// # Panics
    /// Panics if `cfg.frames == 0`.
    #[must_use]
    pub fn with_obs(cfg: BufferConfig, tracer: Arc<Tracer>) -> BufferPool {
        assert!(cfg.frames > 0, "buffer must have at least one frame");
        let frames = cfg.frames;
        BufferPool {
            cfg,
            slots: (0..frames).map(|_| None).collect(),
            map: HashMap::with_capacity(frames),
            free: (0..frames).rev().collect(),
            hand: 0,
            tick: 0,
            counters: Arc::new(PoolCounters::default()),
            tracer,
            lru_hint: None,
        }
    }

    /// Pool configuration.
    #[must_use]
    pub fn config(&self) -> &BufferConfig {
        &self.cfg
    }

    /// Counters (point-in-time snapshot of the live atomics).
    #[must_use]
    pub fn stats(&self) -> BufferStats {
        self.counters.load()
    }

    /// The live atomic counters, for registering metrics views.
    #[must_use]
    pub fn counters(&self) -> Arc<PoolCounters> {
        Arc::clone(&self.counters)
    }

    /// Number of resident pages.
    #[must_use]
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// Is the pool empty?
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    /// Frame capacity (`B`).
    #[must_use]
    pub fn capacity(&self) -> usize {
        self.cfg.frames
    }

    fn touch(&mut self, idx: usize) {
        self.tick += 1;
        let frame = self.slots[idx].as_mut().expect("touched frame occupied");
        frame.ref_bit = true;
        frame.last_use = self.tick;
    }

    /// Read a page through the pool. On a miss, `fetch` supplies the disk
    /// version and `steal` handles any dirty eviction needed to make room.
    ///
    /// # Errors
    /// Propagates closure errors and
    /// [`BufferError::NoEvictableFrame`] when the pool is wedged.
    pub fn read<E>(
        &mut self,
        page: DataPageId,
        fetch: impl FnOnce(DataPageId) -> Result<Page, E>,
        steal: impl FnMut(StealRequest<'_>) -> Result<(), E>,
    ) -> Result<Page, BufferError<E>> {
        if let Some(&idx) = self.map.get(&page) {
            PoolCounters::bump(&self.counters.hits);
            self.touch(idx);
            return Ok(self.slots[idx].as_ref().expect("mapped frame").data.clone());
        }
        PoolCounters::bump(&self.counters.misses);
        let idx = self.make_room(steal)?;
        let data = fetch(page).map_err(BufferError::Backend)?;
        self.install(idx, page, data.clone(), false);
        Ok(data)
    }

    /// Install `data` as the buffered contents of `page`, marking the frame
    /// dirty and recording `txn` as a modifier. The page need not be
    /// resident (whole-page overwrite semantics); `steal` handles any
    /// eviction needed to make room.
    ///
    /// # Errors
    /// Propagates closure errors and `NoEvictableFrame`.
    pub fn write<E>(
        &mut self,
        page: DataPageId,
        data: Page,
        txn: u64,
        steal: impl FnMut(StealRequest<'_>) -> Result<(), E>,
    ) -> Result<(), BufferError<E>> {
        if let Some(&idx) = self.map.get(&page) {
            PoolCounters::bump(&self.counters.hits);
            self.touch(idx);
            let frame = self.slots[idx].as_mut().expect("mapped frame");
            frame.data = data;
            frame.dirty = true;
            frame.modifiers.insert(txn);
            return Ok(());
        }
        PoolCounters::bump(&self.counters.misses);
        let idx = self.make_room(steal)?;
        self.install(idx, page, data, true);
        self.slots[idx]
            .as_mut()
            .expect("installed frame")
            .modifiers
            .insert(txn);
        Ok(())
    }

    /// Contents of a resident page, if any. Does not count as a reference.
    #[must_use]
    pub fn peek(&self, page: DataPageId) -> Option<&Page> {
        self.map
            .get(&page)
            .map(|&idx| &self.slots[idx].as_ref().expect("mapped").data)
    }

    /// Is the resident page dirty?
    #[must_use]
    pub fn is_dirty(&self, page: DataPageId) -> bool {
        self.map
            .get(&page)
            .is_some_and(|&idx| self.slots[idx].as_ref().expect("mapped").dirty)
    }

    /// Replace the contents of a *resident* page (used by UNDO to put a
    /// restored before-image into the buffer). No-op if not resident.
    pub fn overwrite_resident(&mut self, page: DataPageId, data: Page, dirty: bool) {
        if let Some(&idx) = self.map.get(&page) {
            let frame = self.slots[idx].as_mut().expect("mapped frame");
            frame.data = data;
            frame.dirty = dirty;
        }
    }

    /// Mark a resident page clean (its current contents are on disk).
    /// Modifier bookkeeping is untouched — use [`BufferPool::release_txn`]
    /// at EOT.
    pub fn mark_clean(&mut self, page: DataPageId) {
        if let Some(&idx) = self.map.get(&page) {
            self.slots[idx].as_mut().expect("mapped frame").dirty = false;
        }
    }

    /// Uncommitted modifiers of a resident page (empty set if not
    /// resident).
    #[must_use]
    pub fn modifiers_of(&self, page: DataPageId) -> BTreeSet<u64> {
        self.map
            .get(&page)
            .map(|&idx| self.slots[idx].as_ref().expect("mapped").modifiers.clone())
            .unwrap_or_default()
    }

    /// Remove `txn` from every frame's modifier set (commit or abort).
    pub fn release_txn(&mut self, txn: u64) {
        for slot in self.slots.iter_mut().flatten() {
            slot.modifiers.remove(&txn);
        }
    }

    /// Pages currently dirty in the pool, with whether they still carry
    /// uncommitted modifications. Sorted by page id for determinism.
    #[must_use]
    pub fn dirty_pages(&self) -> Vec<(DataPageId, bool)> {
        let mut v: Vec<_> = self
            .slots
            .iter()
            .flatten()
            .filter(|f| f.dirty)
            .map(|f| (f.page, !f.modifiers.is_empty()))
            .collect();
        v.sort_by_key(|(p, _)| *p);
        v
    }

    /// Pin a resident page, preventing eviction. Returns false if the page
    /// is not resident.
    pub fn pin(&mut self, page: DataPageId) -> bool {
        match self.map.get(&page) {
            Some(&idx) => {
                self.slots[idx].as_mut().expect("mapped frame").pins += 1;
                true
            }
            None => false,
        }
    }

    /// Unpin a resident page.
    ///
    /// # Panics
    /// Panics if the page is not resident or not pinned (a latch bug).
    pub fn unpin(&mut self, page: DataPageId) {
        let idx = *self.map.get(&page).expect("unpin of non-resident page");
        let frame = self.slots[idx].as_mut().expect("mapped frame");
        assert!(frame.pins > 0, "unpin of unpinned page");
        frame.pins -= 1;
    }

    /// Drop every frame (simulated loss of volatile memory).
    pub fn crash(&mut self) {
        self.map.clear();
        self.free = (0..self.cfg.frames).rev().collect();
        for slot in &mut self.slots {
            *slot = None;
        }
        self.hand = 0;
        self.lru_hint = None;
    }

    // ---- staged API (no closures) -------------------------------------
    //
    // `rda-core` drives the pool in explicit steps — lookup, make room by
    // popping a victim (handling the write-back itself), insert — because
    // its steal handling needs full engine state. The closure API above
    // remains for simple callers.

    /// Look up a page, counting a hit or miss and touching the frame.
    /// Returns a copy of the contents on a hit.
    pub fn lookup(&mut self, page: DataPageId) -> Option<Page> {
        match self.map.get(&page) {
            Some(&idx) => {
                PoolCounters::bump(&self.counters.hits);
                self.touch(idx);
                Some(self.slots[idx].as_ref().expect("mapped frame").data.clone())
            }
            None => {
                PoolCounters::bump(&self.counters.misses);
                None
            }
        }
    }

    /// Is there a free frame?
    #[must_use]
    pub fn has_room(&self) -> bool {
        !self.free.is_empty()
    }

    /// Evict one victim frame and return it for the caller to write back.
    /// Returns `None` when no frame is evictable (the caller should treat
    /// that as [`BufferError::NoEvictableFrame`]). Eviction statistics are
    /// updated here.
    pub fn pop_victim(&mut self) -> Option<Evicted> {
        let victim = self.pick_victim()?;
        let frame = self.slots[victim].take().expect("victim occupied");
        self.map.remove(&frame.page);
        self.free.push(victim);
        if frame.dirty {
            if frame.modifiers.is_empty() {
                PoolCounters::bump(&self.counters.writebacks);
            } else {
                PoolCounters::bump(&self.counters.steals);
            }
        } else {
            PoolCounters::bump(&self.counters.drops);
        }
        self.tracer.emit(|| EventKind::Evict {
            page: frame.page.0,
            steal: frame.dirty && !frame.modifiers.is_empty(),
            writeback: frame.dirty && frame.modifiers.is_empty(),
        });
        Some(Evicted {
            page: frame.page,
            data: frame.data,
            modifiers: frame.modifiers,
            dirty: frame.dirty,
        })
    }

    /// Put back a frame [`BufferPool::pop_victim`] handed out whose
    /// write-back failed: same page, contents, dirty bit and modifiers, so
    /// updates no disk holds yet are not lost with the error.
    pub fn restore(&mut self, ev: Evicted) {
        self.insert(ev.page, ev.data, ev.dirty, None);
        if let Some(frame) = self.map.get(&ev.page).and_then(|&i| self.slots[i].as_mut()) {
            frame.modifiers = ev.modifiers;
        }
    }

    /// Insert a page into a free frame without hit/miss accounting (the
    /// preceding [`BufferPool::lookup`] already counted the access).
    ///
    /// # Panics
    /// Panics if there is no free frame or the page is already resident.
    pub fn insert(&mut self, page: DataPageId, data: Page, dirty: bool, modifier: Option<u64>) {
        assert!(
            !self.map.contains_key(&page),
            "insert of already-resident page"
        );
        let idx = self.free.pop().expect("insert requires a free frame");
        self.install(idx, page, data, dirty);
        if let Some(txn) = modifier {
            self.slots[idx]
                .as_mut()
                .expect("installed frame")
                .modifiers
                .insert(txn);
        }
    }

    /// Overwrite a resident page's contents, marking it dirty and adding a
    /// modifier, without hit/miss accounting. Returns false if the page is
    /// not resident.
    pub fn update_resident(&mut self, page: DataPageId, data: Page, modifier: u64) -> bool {
        let Some(&idx) = self.map.get(&page) else {
            return false;
        };
        self.touch(idx);
        let frame = self.slots[idx].as_mut().expect("mapped frame");
        frame.data = data;
        frame.dirty = true;
        frame.modifiers.insert(modifier);
        true
    }

    fn install(&mut self, idx: usize, page: DataPageId, data: Page, dirty: bool) {
        self.tick += 1;
        self.slots[idx] = Some(Frame {
            page,
            data,
            dirty,
            pins: 0,
            modifiers: BTreeSet::new(),
            ref_bit: true,
            last_use: self.tick,
        });
        self.map.insert(page, idx);
    }

    fn evictable(&self, frame: &Frame) -> bool {
        frame.pins == 0 && (self.cfg.steal || frame.modifiers.is_empty())
    }

    /// Find a free slot, evicting if necessary.
    fn make_room<E>(
        &mut self,
        mut steal: impl FnMut(StealRequest<'_>) -> Result<(), E>,
    ) -> Result<usize, BufferError<E>> {
        if let Some(idx) = self.free.pop() {
            return Ok(idx);
        }
        let victim = self.pick_victim().ok_or(BufferError::NoEvictableFrame)?;
        let frame = self.slots[victim].as_ref().expect("victim occupied");
        if frame.dirty {
            if frame.modifiers.is_empty() {
                PoolCounters::bump(&self.counters.writebacks);
            } else {
                PoolCounters::bump(&self.counters.steals);
            }
            if let Err(e) = steal(StealRequest {
                page: frame.page,
                data: &frame.data,
                modifiers: &frame.modifiers,
            }) {
                // The victim stays resident, but the hint seeded by
                // `pick_victim` assumed it was gone — discard it.
                self.lru_hint = None;
                return Err(BufferError::Backend(e));
            }
        } else {
            PoolCounters::bump(&self.counters.drops);
        }
        let frame = self.slots[victim].take().expect("victim occupied");
        self.map.remove(&frame.page);
        self.tracer.emit(|| EventKind::Evict {
            page: frame.page.0,
            steal: frame.dirty && !frame.modifiers.is_empty(),
            writeback: frame.dirty && frame.modifiers.is_empty(),
        });
        Ok(victim)
    }

    fn pick_victim(&mut self) -> Option<usize> {
        match self.cfg.policy {
            ReplacePolicy::Lru => {
                // Fast path: the watermark cached by the previous full
                // scan was the global minimum `last_use` then, and ticks
                // only grow, so nothing can have undercut it since. It is
                // still the true LRU victim as long as the frame is
                // untouched and evictable.
                if let Some((idx, tick)) = self.lru_hint.take() {
                    if let Some(frame) = self.slots[idx].as_ref() {
                        if frame.last_use == tick && self.evictable(frame) {
                            PoolCounters::bump(&self.counters.eviction_scans);
                            return Some(idx);
                        }
                    }
                }
                // Full scan: pick the evictable minimum, and remember the
                // two smallest *global* minima so the next call can start
                // from whichever survives this eviction.
                let mut scanned = 0u64;
                let mut victim: Option<(usize, u64)> = None;
                let mut min1: Option<(usize, u64, bool)> = None;
                let mut min2: Option<(usize, u64, bool)> = None;
                for (i, frame) in self
                    .slots
                    .iter()
                    .enumerate()
                    .filter_map(|(i, s)| s.as_ref().map(|f| (i, f)))
                {
                    scanned += 1;
                    let can_evict = self.evictable(frame);
                    if can_evict && victim.is_none_or(|(_, t)| frame.last_use < t) {
                        victim = Some((i, frame.last_use));
                    }
                    if min1.is_none_or(|(_, t, _)| frame.last_use < t) {
                        min2 = min1;
                        min1 = Some((i, frame.last_use, can_evict));
                    } else if min2.is_none_or(|(_, t, _)| frame.last_use < t) {
                        min2 = Some((i, frame.last_use, can_evict));
                    }
                }
                self.counters
                    .eviction_scans
                    // ordering: Relaxed — stats counter.
                    .fetch_add(scanned, Ordering::Relaxed);
                let (vi, _) = victim?;
                // Seed the next hint with the smallest survivor — but only
                // if it was evictable at scan time (pins and modifiers can
                // change later; the fast path re-checks both).
                let next = match min1 {
                    Some((i, _, _)) if i == vi => min2,
                    other => other,
                };
                self.lru_hint = match next {
                    Some((i, t, true)) => Some((i, t)),
                    _ => None,
                };
                Some(vi)
            }
            ReplacePolicy::Clock => {
                let n = self.slots.len();
                let mut scanned = 0u64;
                let mut found = None;
                // Two sweeps: the first clears reference bits, the second
                // must find any evictable frame.
                for _ in 0..2 * n {
                    let idx = self.hand;
                    self.hand = (self.hand + 1) % n;
                    let Some(frame) = self.slots[idx].as_mut() else {
                        continue;
                    };
                    scanned += 1;
                    if frame.pins > 0 {
                        continue;
                    }
                    if frame.ref_bit {
                        frame.ref_bit = false;
                        continue;
                    }
                    let frame = self.slots[idx].as_ref().expect("occupied");
                    if self.evictable(frame) {
                        found = Some(idx);
                        break;
                    }
                }
                if found.is_none() {
                    // Final pass ignoring reference bits (all were hot).
                    found = (0..n).map(|o| (self.hand + o) % n).find(|&i| {
                        let occupied = self.slots[i].as_ref();
                        if occupied.is_some() {
                            scanned += 1;
                        }
                        occupied.is_some_and(|f| self.evictable(f))
                    });
                }
                self.counters
                    .eviction_scans
                    // ordering: Relaxed — stats counter.
                    .fetch_add(scanned, Ordering::Relaxed);
                found
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    type NoErr = std::convert::Infallible;

    fn page(b: u8) -> Page {
        Page::from_bytes(&[b; 8])
    }

    // Infallible stand-ins still return Result to match the pool's
    // callback signatures.
    #[allow(clippy::unnecessary_wraps)]
    fn no_steal(_: StealRequest<'_>) -> Result<(), NoErr> {
        Ok(())
    }

    #[allow(clippy::unnecessary_wraps)]
    fn fetch_zero(_: DataPageId) -> Result<Page, NoErr> {
        Ok(Page::zeroed(8))
    }

    fn pool(frames: usize, steal: bool, policy: ReplacePolicy) -> BufferPool {
        BufferPool::new(BufferConfig {
            frames,
            steal,
            policy,
        })
    }

    #[test]
    fn read_miss_then_hit() {
        let mut p = pool(2, true, ReplacePolicy::Clock);
        let got = p.read(DataPageId(1), fetch_zero, no_steal).unwrap();
        assert!(got.is_zeroed());
        assert_eq!(p.stats().misses, 1);
        let _ = p
            .read(DataPageId(1), |_| unreachable!("must hit"), no_steal)
            .unwrap();
        assert_eq!(p.stats().hits, 1);
        assert!((p.stats().hit_ratio() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn write_marks_dirty_and_tracks_modifier() {
        let mut p = pool(2, true, ReplacePolicy::Clock);
        p.write(DataPageId(3), page(9), 42, no_steal).unwrap();
        assert!(p.is_dirty(DataPageId(3)));
        assert_eq!(p.dirty_pages(), vec![(DataPageId(3), true)]);
        p.release_txn(42);
        assert_eq!(p.dirty_pages(), vec![(DataPageId(3), false)]);
        assert!(p.is_dirty(DataPageId(3)), "release does not clean");
        p.mark_clean(DataPageId(3));
        assert!(!p.is_dirty(DataPageId(3)));
    }

    #[test]
    fn eviction_calls_steal_for_dirty_victim() {
        let mut p = pool(1, true, ReplacePolicy::Clock);
        p.write(DataPageId(1), page(1), 7, no_steal).unwrap();
        let mut stolen = Vec::new();
        p.read(DataPageId(2), fetch_zero, |req| {
            stolen.push((req.page, req.modifiers.clone()));
            Ok::<(), NoErr>(())
        })
        .unwrap();
        assert_eq!(stolen.len(), 1);
        assert_eq!(stolen[0].0, DataPageId(1));
        assert!(stolen[0].1.contains(&7));
        assert_eq!(p.stats().steals, 1);
        assert!(p.peek(DataPageId(1)).is_none());
        assert!(p.peek(DataPageId(2)).is_some());
    }

    #[test]
    fn clean_eviction_is_a_drop() {
        let mut p = pool(1, true, ReplacePolicy::Clock);
        p.read(DataPageId(1), fetch_zero, no_steal).unwrap();
        p.read(DataPageId(2), fetch_zero, |_| -> Result<(), NoErr> {
            panic!("clean eviction must not call steal")
        })
        .unwrap();
        assert_eq!(p.stats().drops, 1);
    }

    #[test]
    fn writeback_vs_steal_classification() {
        let mut p = pool(1, true, ReplacePolicy::Clock);
        p.write(DataPageId(1), page(1), 7, no_steal).unwrap();
        p.release_txn(7); // committed
        p.read(DataPageId(2), fetch_zero, no_steal).unwrap();
        assert_eq!(p.stats().writebacks, 1);
        assert_eq!(p.stats().steals, 0);
    }

    #[test]
    fn nosteal_refuses_uncommitted_eviction() {
        let mut p = pool(1, false, ReplacePolicy::Clock);
        p.write(DataPageId(1), page(1), 7, no_steal).unwrap();
        let err = p.read(DataPageId(2), fetch_zero, no_steal).unwrap_err();
        assert_eq!(err, BufferError::NoEvictableFrame);
        // After commit the frame becomes evictable again.
        p.release_txn(7);
        p.read(DataPageId(2), fetch_zero, no_steal).unwrap();
    }

    #[test]
    fn pinned_pages_are_not_evicted() {
        let mut p = pool(2, true, ReplacePolicy::Lru);
        p.read(DataPageId(1), fetch_zero, no_steal).unwrap();
        p.read(DataPageId(2), fetch_zero, no_steal).unwrap();
        assert!(p.pin(DataPageId(1)));
        assert!(p.pin(DataPageId(2)));
        let err = p.read(DataPageId(3), fetch_zero, no_steal).unwrap_err();
        assert_eq!(err, BufferError::NoEvictableFrame);
        p.unpin(DataPageId(1));
        p.read(DataPageId(3), fetch_zero, no_steal).unwrap();
        assert!(p.peek(DataPageId(1)).is_none(), "unpinned LRU page evicted");
        assert!(p.peek(DataPageId(2)).is_some(), "pinned page survives");
    }

    #[test]
    fn lru_evicts_least_recent() {
        let mut p = pool(2, true, ReplacePolicy::Lru);
        p.read(DataPageId(1), fetch_zero, no_steal).unwrap();
        p.read(DataPageId(2), fetch_zero, no_steal).unwrap();
        p.read(DataPageId(1), fetch_zero, no_steal).unwrap(); // 1 now recent
        p.read(DataPageId(3), fetch_zero, no_steal).unwrap();
        assert!(p.peek(DataPageId(2)).is_none());
        assert!(p.peek(DataPageId(1)).is_some());
    }

    #[test]
    fn lru_hint_short_circuits_second_eviction() {
        let mut p = pool(3, true, ReplacePolicy::Lru);
        for i in 1..=3 {
            p.read(DataPageId(i), fetch_zero, no_steal).unwrap();
        }
        assert_eq!(p.stats().eviction_scans, 0);
        // First eviction: full scan over all three occupied frames; seeds
        // the watermark with the second-oldest frame.
        p.read(DataPageId(4), fetch_zero, no_steal).unwrap();
        assert!(p.peek(DataPageId(1)).is_none());
        assert_eq!(p.stats().eviction_scans, 3);
        // Second eviction: watermark hit, one frame examined.
        p.read(DataPageId(5), fetch_zero, no_steal).unwrap();
        assert!(p.peek(DataPageId(2)).is_none());
        assert_eq!(p.stats().eviction_scans, 4);
    }

    #[test]
    fn lru_hint_invalidated_by_touch_stays_correct() {
        let mut p = pool(3, true, ReplacePolicy::Lru);
        for i in 1..=3 {
            p.read(DataPageId(i), fetch_zero, no_steal).unwrap();
        }
        p.read(DataPageId(4), fetch_zero, no_steal).unwrap(); // evicts 1, hints at 2
        p.read(DataPageId(2), fetch_zero, no_steal).unwrap(); // touch 2: hint stale
        p.read(DataPageId(5), fetch_zero, no_steal).unwrap();
        assert!(
            p.peek(DataPageId(3)).is_none(),
            "true LRU evicted, not the stale hint"
        );
        assert!(p.peek(DataPageId(2)).is_some());
        // 3 (first full scan) + 3 (rescan after the stale hint).
        assert_eq!(p.stats().eviction_scans, 6);
    }

    #[test]
    fn lru_hint_respects_late_pin() {
        let mut p = pool(3, true, ReplacePolicy::Lru);
        for i in 1..=3 {
            p.read(DataPageId(i), fetch_zero, no_steal).unwrap();
        }
        p.read(DataPageId(4), fetch_zero, no_steal).unwrap(); // evicts 1, hints at 2
        assert!(p.pin(DataPageId(2)));
        p.read(DataPageId(5), fetch_zero, no_steal).unwrap();
        assert!(
            p.peek(DataPageId(2)).is_some(),
            "pinned hint frame survives"
        );
        assert!(p.peek(DataPageId(3)).is_none());
        p.unpin(DataPageId(2));
    }

    #[test]
    fn lru_no_hint_when_oldest_is_pinned() {
        let mut p = pool(3, true, ReplacePolicy::Lru);
        for i in 1..=3 {
            p.read(DataPageId(i), fetch_zero, no_steal).unwrap();
        }
        assert!(p.pin(DataPageId(1)));
        // Victim is page 2 (oldest evictable); the global minimum (pinned
        // page 1) is not a usable watermark, so no hint is seeded.
        p.read(DataPageId(4), fetch_zero, no_steal).unwrap();
        assert!(p.peek(DataPageId(2)).is_none());
        assert_eq!(p.stats().eviction_scans, 3);
        p.read(DataPageId(5), fetch_zero, no_steal).unwrap();
        assert!(p.peek(DataPageId(3)).is_none());
        assert_eq!(
            p.stats().eviction_scans,
            6,
            "full rescan; no stale-hint shortcut"
        );
    }

    #[test]
    fn clock_gives_second_chance() {
        let mut p = pool(2, true, ReplacePolicy::Clock);
        p.read(DataPageId(1), fetch_zero, no_steal).unwrap();
        p.read(DataPageId(2), fetch_zero, no_steal).unwrap();
        // Both ref bits set; the first sweep clears page 1's bit, second
        // visit evicts it.
        p.read(DataPageId(3), fetch_zero, no_steal).unwrap();
        assert_eq!(p.len(), 2);
        assert!(p.peek(DataPageId(3)).is_some());
    }

    #[test]
    fn overwrite_resident_restores_image() {
        let mut p = pool(2, true, ReplacePolicy::Clock);
        p.write(DataPageId(1), page(5), 1, no_steal).unwrap();
        p.overwrite_resident(DataPageId(1), page(9), false);
        assert_eq!(p.peek(DataPageId(1)).unwrap(), &page(9));
        assert!(!p.is_dirty(DataPageId(1)));
        // Non-resident page: silently ignored.
        p.overwrite_resident(DataPageId(99), page(1), true);
        assert!(p.peek(DataPageId(99)).is_none());
    }

    #[test]
    fn crash_empties_pool() {
        let mut p = pool(4, true, ReplacePolicy::Clock);
        p.write(DataPageId(1), page(1), 1, no_steal).unwrap();
        p.crash();
        assert!(p.is_empty());
        assert!(p.peek(DataPageId(1)).is_none());
        // Pool is reusable after the crash.
        p.read(DataPageId(2), fetch_zero, no_steal).unwrap();
        assert_eq!(p.len(), 1);
    }

    #[test]
    fn capacity_is_respected() {
        let mut p = pool(3, true, ReplacePolicy::Clock);
        for i in 0..10 {
            p.read(DataPageId(i), fetch_zero, no_steal).unwrap();
            assert!(p.len() <= 3);
        }
    }

    #[test]
    fn staged_api_roundtrip() {
        let mut p = pool(2, true, ReplacePolicy::Lru);
        assert!(p.lookup(DataPageId(1)).is_none());
        assert_eq!(p.stats().misses, 1);
        assert!(p.has_room());
        p.insert(DataPageId(1), page(3), false, None);
        assert_eq!(p.lookup(DataPageId(1)).unwrap(), page(3));
        assert_eq!(p.stats().hits, 1);
        assert!(p.update_resident(DataPageId(1), page(4), 9));
        assert!(p.is_dirty(DataPageId(1)));
        assert!(!p.update_resident(DataPageId(99), page(4), 9));
        // Fill and evict.
        p.insert(DataPageId(2), page(5), false, Some(7));
        assert!(!p.has_room());
        let ev = p.pop_victim().unwrap();
        assert_eq!(ev.page, DataPageId(1), "LRU victim");
        assert!(ev.dirty);
        assert!(ev.modifiers.contains(&9));
        assert!(p.has_room());
        assert_eq!(p.stats().steals, 1);
    }

    #[test]
    fn pop_victim_respects_pins_and_nosteal() {
        let mut p = pool(1, false, ReplacePolicy::Clock);
        p.insert(DataPageId(1), page(1), true, Some(4));
        assert!(
            p.pop_victim().is_none(),
            "nosteal blocks uncommitted eviction"
        );
        p.release_txn(4);
        p.pin(DataPageId(1));
        assert!(p.pop_victim().is_none(), "pinned frame blocked");
        p.unpin(DataPageId(1));
        assert!(p.pop_victim().is_some());
    }

    #[test]
    #[should_panic(expected = "already-resident")]
    fn double_insert_panics() {
        let mut p = pool(2, true, ReplacePolicy::Clock);
        p.insert(DataPageId(1), page(1), false, None);
        p.insert(DataPageId(1), page(1), false, None);
    }

    #[test]
    #[should_panic(expected = "at least one frame")]
    fn zero_frames_rejected() {
        let _ = BufferPool::new(BufferConfig::steal_clock(0));
    }
}
