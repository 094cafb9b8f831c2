//! The buffer pool.
//!
//! A page access costs one copy. The engine drives the pool in staged
//! steps: [`BufferPool::touch`] counts the hit or miss and lends a hit's
//! frame; on a miss with no free frame [`BufferPool::pop_victim`] hands
//! the victim out, its page buffer included, and once the victim is
//! written back (or at once, if clean) the engine reads the missing page
//! into that same buffer and [`BufferPool::insert`]s it.
//! [`BufferPool::peek`] lends a resident frame without counting an
//! access, and [`BufferPool::update_resident`] lends it for a write in
//! place. Nothing per access allocates a page.

use rda_array::{DataPageId, Page};
use rda_obs::{EventKind, Tracer};
use std::collections::{BTreeSet, HashMap};
use std::fmt;
use std::hash::{BuildHasherDefault, Hasher};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Pool configuration.
#[derive(Debug, Clone)]
pub struct BufferConfig {
    /// Number of frames (the paper's `B`).
    pub frames: usize,
    /// STEAL policy: may pages modified by uncommitted transactions be
    /// written back before EOT? (¬STEAL refuses to evict such frames.)
    pub steal: bool,
}

impl BufferConfig {
    /// A STEAL pool with `frames` frames and clock replacement — the
    /// paper's setting.
    #[must_use]
    pub fn steal_clock(frames: usize) -> BufferConfig {
        BufferConfig {
            frames,
            steal: true,
        }
    }
}

/// Errors from [`BufferPool::read`]. `E` is the caller's backend error
/// type (propagated out of the `fetch` / `steal` closures).
#[derive(Debug, PartialEq, Eq)]
pub enum BufferError<E> {
    /// Every frame is ineligible (¬STEAL with uncommitted modifiers); the
    /// pool cannot make room.
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

/// A frame evicted via [`BufferPool::pop_victim`]; the caller owns the
/// write-back decision.
///
/// A dirty frame with non-empty `modifiers` is a true *steal* in the
/// paper's sense — the page carries updates of uncommitted transactions,
/// and the recovery manager must arrange UNDO protection (before-image
/// logging, or a dirty parity group) before the write reaches the database.
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
    /// Accesses served from the pool.
    pub hits: u64,
    /// Accesses that had to fetch.
    pub misses: u64,
    /// Dirty evictions with uncommitted modifiers (paper steals).
    pub steals: u64,
    /// Dirty evictions without uncommitted modifiers.
    pub writebacks: u64,
    /// Clean evictions.
    pub drops: u64,
    /// Occupied frames the clock hand passed while hunting an eviction
    /// victim: at least one per eviction, at most two per occupied frame.
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
    /// Accesses served from the pool.
    pub hits: AtomicU64,
    /// Accesses that had to fetch.
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

/// The page table's hasher: a page id is a small integer the engine
/// chose, not an adversary, so one multiply by 2⁶⁴/φ (Fibonacci hashing)
/// spreads it well enough and the default SipHash's rounds buy nothing on
/// a path every page access takes. The product's high half is the
/// well-mixed one, and the table indexes by the low bits, so `finish`
/// swaps the halves: strided page ids still spread.
#[derive(Default)]
struct PageIdHasher(u64);

impl Hasher for PageIdHasher {
    fn finish(&self) -> u64 {
        self.0.rotate_left(32)
    }

    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.write_u64(u64::from(b));
        }
    }

    fn write_u32(&mut self, n: u32) {
        self.write_u64(u64::from(n));
    }

    fn write_u64(&mut self, n: u64) {
        self.0 = (self.0 ^ n).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    }
}

type PageTable = HashMap<DataPageId, usize, BuildHasherDefault<PageIdHasher>>;

struct Frame {
    page: DataPageId,
    data: Page,
    dirty: bool,
    modifiers: BTreeSet<u64>,
    ref_bit: bool,
}

/// A fixed-capacity database buffer pool with clock replacement.
///
/// All mutation goes through `&mut self`; the owning engine provides its
/// own locking (the paper's model is of logical concurrency over a single
/// I/O subsystem, and `rda-core` serializes engine operations).
pub struct BufferPool {
    cfg: BufferConfig,
    slots: Vec<Option<Frame>>,
    map: PageTable,
    free: Vec<usize>,
    hand: usize,
    counters: Arc<PoolCounters>,
    tracer: Arc<Tracer>,
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
            map: PageTable::with_capacity_and_hasher(frames, BuildHasherDefault::default()),
            free: (0..frames).rev().collect(),
            hand: 0,
            counters: Arc::new(PoolCounters::default()),
            tracer,
        }
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

    /// Lend a resident page's frame, if any. Does not count as a
    /// reference: [`BufferPool::touch`] does that.
    #[must_use]
    pub fn peek(&self, page: DataPageId) -> Option<&Page> {
        self.frame(page).map(|f| &f.data)
    }

    /// Is the resident page dirty?
    #[must_use]
    pub fn is_dirty(&self, page: DataPageId) -> bool {
        self.frame(page).is_some_and(|f| f.dirty)
    }

    /// Replace the contents of a *resident* page (used by UNDO to put a
    /// restored before-image into the buffer). No-op if not resident.
    pub fn overwrite_resident(&mut self, page: DataPageId, data: Page, dirty: bool) {
        if let Some(frame) = self.frame_mut(page) {
            frame.data = data;
            frame.dirty = dirty;
        }
    }

    /// Exchange a resident page's buffer with `data`, copying nothing: a
    /// second call with the same `data` puts the frame's buffer back. A
    /// write-back can so use the frame's own buffer while it needs the
    /// engine. No-op if the page is not resident.
    pub fn swap_data(&mut self, page: DataPageId, data: &mut Page) {
        if let Some(frame) = self.frame_mut(page) {
            std::mem::swap(&mut frame.data, data);
        }
    }

    /// Mark a resident page clean (its current contents are on disk).
    /// Modifier bookkeeping is untouched — use [`BufferPool::release_txn`]
    /// at EOT.
    pub fn mark_clean(&mut self, page: DataPageId) {
        if let Some(frame) = self.frame_mut(page) {
            frame.dirty = false;
        }
    }

    /// Uncommitted modifiers of a resident page (empty set if not
    /// resident).
    #[must_use]
    pub fn modifiers_of(&self, page: DataPageId) -> BTreeSet<u64> {
        self.frame(page)
            .map(|f| f.modifiers.clone())
            .unwrap_or_default()
    }

    /// Every (page, uncommitted modifier) pair in the pool, for auditors.
    pub fn modifiers(&self) -> impl Iterator<Item = (DataPageId, u64)> + '_ {
        self.slots
            .iter()
            .flatten()
            .flat_map(|f| f.modifiers.iter().map(move |&t| (f.page, t)))
    }

    /// Remove `txn` from the modifier sets of the pages it wrote (commit
    /// or abort). `written` must name every page `txn` modified through
    /// [`BufferPool::update_resident`]; only those frames are visited.
    pub fn release_txn(&mut self, txn: u64, written: impl IntoIterator<Item = DataPageId>) {
        for page in written {
            if let Some(frame) = self.frame_mut(page) {
                frame.modifiers.remove(&txn);
            }
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

    /// Drop every frame (simulated loss of volatile memory).
    pub fn crash(&mut self) {
        self.map.clear();
        self.free = (0..self.cfg.frames).rev().collect();
        for slot in &mut self.slots {
            *slot = None;
        }
        self.hand = 0;
    }

    // ---- the staged steps ---------------------------------------------
    //
    // `rda-core` drives the pool in explicit steps — touch, make room by
    // popping a victim (handling the write-back itself, and restoring the
    // victim if that fails), insert into the victim's buffer — because its
    // steal handling needs full engine state. [`BufferPool::read`]
    // composes the same steps.

    /// Access a page: count a hit or a miss and, on a hit, set the frame's
    /// reference bit and lend the frame. `None` is a miss.
    pub fn touch(&mut self, page: DataPageId) -> Option<&Page> {
        let frame = match self.map.get(&page) {
            Some(&idx) => self.slots[idx].as_mut(),
            None => None,
        };
        PoolCounters::bump(match frame {
            Some(_) => &self.counters.hits,
            None => &self.counters.misses,
        });
        let frame = frame?;
        frame.ref_bit = true;
        Some(&frame.data)
    }

    /// Is there a free frame?
    #[must_use]
    pub fn has_room(&self) -> bool {
        !self.free.is_empty()
    }

    /// Evict one victim frame and return it for the caller to write back.
    /// Returns `None` when no frame is evictable (the caller should treat
    /// that as [`BufferError::NoEvictableFrame`]). Eviction statistics are
    /// updated here. Once the victim is written back, or at once if it is
    /// clean, its page buffer is the caller's to reuse: the engine reads
    /// the missing page into it.
    pub fn pop_victim(&mut self) -> Option<Evicted> {
        let victim = self.pick_victim()?;
        let frame = self.slots[victim].take()?;
        self.map.remove(&frame.page);
        self.free.push(victim);
        let steal = frame.dirty && !frame.modifiers.is_empty();
        let writeback = frame.dirty && !steal;
        PoolCounters::bump(if steal {
            &self.counters.steals
        } else if writeback {
            &self.counters.writebacks
        } else {
            &self.counters.drops
        });
        self.tracer.emit(|| EventKind::Evict {
            page: frame.page.0,
            steal,
            writeback,
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
    /// updates no disk holds yet are not lost with the error. It goes into
    /// the slot the victim left, since `pop_victim` freed that slot last.
    pub fn restore(&mut self, ev: Evicted) {
        self.install(ev.page, ev.data, ev.dirty, ev.modifiers);
    }

    /// Insert a page into a free frame without hit/miss accounting (the
    /// preceding [`BufferPool::touch`] already counted the access), and
    /// lend the frame. The frame keeps `data`'s buffer.
    ///
    /// # Panics
    /// Panics if there is no free frame or the page is already resident.
    pub fn insert(&mut self, page: DataPageId, data: Page) -> &Page {
        self.install(page, data, false, BTreeSet::new())
    }

    /// Write a resident page in place: mark it dirty, add `modifier` and
    /// set the reference bit, without hit/miss accounting, and lend the
    /// frame for the caller to overwrite. `None` if the page is not
    /// resident.
    pub fn update_resident(&mut self, page: DataPageId, modifier: u64) -> Option<&mut Page> {
        let frame = self.frame_mut(page)?;
        frame.ref_bit = true;
        frame.dirty = true;
        frame.modifiers.insert(modifier);
        Some(&mut frame.data)
    }

    /// Read a page through the staged steps: [`BufferPool::touch`] (a hit
    /// returns a copy of the frame); on a miss with no free frame,
    /// [`BufferPool::pop_victim`], handing a dirty victim to `steal` and
    /// [`BufferPool::restore`]-ing it if `steal` fails; then `fetch` and
    /// [`BufferPool::insert`].
    ///
    /// # Errors
    /// Propagates closure errors and
    /// [`BufferError::NoEvictableFrame`] when the pool is wedged.
    pub fn read<E>(
        &mut self,
        page: DataPageId,
        fetch: impl FnOnce(DataPageId) -> Result<Page, E>,
        steal: impl FnOnce(&Evicted) -> Result<(), E>,
    ) -> Result<Page, BufferError<E>> {
        if let Some(data) = self.touch(page) {
            return Ok(data.clone());
        }
        if !self.has_room() {
            let ev = self.pop_victim().ok_or(BufferError::NoEvictableFrame)?;
            if ev.dirty {
                if let Err(e) = steal(&ev) {
                    self.restore(ev);
                    return Err(BufferError::Backend(e));
                }
            }
        }
        let data = fetch(page).map_err(BufferError::Backend)?;
        self.insert(page, data.clone());
        Ok(data)
    }

    fn frame(&self, page: DataPageId) -> Option<&Frame> {
        self.slots[*self.map.get(&page)?].as_ref()
    }

    fn frame_mut(&mut self, page: DataPageId) -> Option<&mut Frame> {
        self.slots[*self.map.get(&page)?].as_mut()
    }

    fn install(
        &mut self,
        page: DataPageId,
        data: Page,
        dirty: bool,
        modifiers: BTreeSet<u64>,
    ) -> &Page {
        assert!(
            !self.map.contains_key(&page),
            "insert of already-resident page"
        );
        let idx = self.free.pop().expect("insert requires a free frame");
        self.map.insert(page, idx);
        let frame = self.slots[idx].insert(Frame {
            page,
            data,
            dirty,
            modifiers,
            ref_bit: true,
        });
        &frame.data
    }

    /// Second-chance clock. The hand visits every slot twice: a frame's
    /// first visit clears its reference bit, so its second is a plain
    /// evictability check, and two sweeps find any evictable frame.
    fn pick_victim(&mut self) -> Option<usize> {
        let n = self.slots.len();
        let mut scanned = 0u64;
        let mut found = None;
        for _ in 0..2 * n {
            let idx = self.hand;
            self.hand = (self.hand + 1) % n;
            let Some(frame) = self.slots[idx].as_mut() else {
                continue;
            };
            scanned += 1;
            if std::mem::take(&mut frame.ref_bit) {
                continue;
            }
            if self.cfg.steal || frame.modifiers.is_empty() {
                found = Some(idx);
                break;
            }
        }
        self.counters
            .eviction_scans
            // ordering: Relaxed — stats counter.
            .fetch_add(scanned, Ordering::Relaxed);
        found
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn page(b: u8) -> Page {
        Page::from_bytes(&[b; 8])
    }

    fn pool(frames: usize, steal: bool) -> BufferPool {
        BufferPool::new(BufferConfig { frames, steal })
    }

    /// A miss followed by an insert of the fetched page: the engine's read;
    /// with a modifier, then that transaction's write of it.
    fn fill(p: &mut BufferPool, pg: u32, data: Page, modifier: Option<u64>) {
        assert!(p.touch(DataPageId(pg)).is_none());
        p.insert(DataPageId(pg), data);
        if let Some(m) = modifier {
            assert!(p.update_resident(DataPageId(pg), m).is_some());
        }
    }

    /// `modifier`'s in-place write of `data` over resident page `pg`;
    /// false if the page is not resident.
    fn write(p: &mut BufferPool, pg: u32, data: &Page, modifier: u64) -> bool {
        p.update_resident(DataPageId(pg), modifier)
            .map(|frame| frame.clone_from(data))
            .is_some()
    }

    #[test]
    fn read_miss_then_hit() {
        let mut p = pool(2, true);
        fill(&mut p, 1, Page::zeroed(8), None);
        assert_eq!(p.stats().misses, 1);
        assert!(p.touch(DataPageId(1)).unwrap().is_zeroed());
        assert_eq!(p.stats().hits, 1);
        assert!((p.stats().hit_ratio() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn write_marks_dirty_and_tracks_modifier() {
        let mut p = pool(2, true);
        fill(&mut p, 3, page(1), None);
        assert!(!p.is_dirty(DataPageId(3)));
        assert!(write(&mut p, 3, &page(9), 42));
        assert_eq!(p.peek(DataPageId(3)), Some(&page(9)));
        assert!(p.is_dirty(DataPageId(3)));
        assert_eq!(p.modifiers_of(DataPageId(3)), BTreeSet::from([42]));
        assert_eq!(p.dirty_pages(), vec![(DataPageId(3), true)]);
        p.release_txn(42, [DataPageId(3)]);
        assert_eq!(p.dirty_pages(), vec![(DataPageId(3), false)]);
        assert!(p.is_dirty(DataPageId(3)), "release does not clean");
        p.mark_clean(DataPageId(3));
        assert!(!p.is_dirty(DataPageId(3)));
        assert!(!write(&mut p, 99, &page(4), 9));
    }

    #[test]
    fn writes_land_in_the_resident_frame() {
        let mut p = pool(2, true);
        fill(&mut p, 1, page(1), None);
        let frame = p.peek(DataPageId(1)).unwrap().as_ref().as_ptr();
        assert!(write(&mut p, 1, &page(2), 7));
        assert!(write(&mut p, 1, &page(3), 8));
        let now = p.peek(DataPageId(1)).unwrap();
        assert_eq!((now, now.as_ref().as_ptr()), (&page(3), frame));
        assert_eq!(p.modifiers_of(DataPageId(1)), BTreeSet::from([7, 8]));
        // A write is no access: the hit and miss counts are the fill's.
        assert_eq!((p.stats().hits, p.stats().misses), (0, 1));
    }

    #[test]
    fn release_visits_only_the_pages_named() {
        let mut p = pool(2, true);
        fill(&mut p, 1, page(1), Some(7));
        fill(&mut p, 2, page(2), Some(7));
        p.release_txn(7, [DataPageId(1), DataPageId(99)]);
        assert_eq!(p.modifiers().collect::<Vec<_>>(), vec![(DataPageId(2), 7)]);
        p.release_txn(7, [DataPageId(2)]);
        assert_eq!(p.modifiers().count(), 0);
    }

    #[test]
    fn strided_page_ids_spread_over_the_table() {
        use std::hash::BuildHasher;
        let build = BuildHasherDefault::<PageIdHasher>::default();
        let bucket = |id: u32| build.hash_one(DataPageId(id)) & 255;
        for stride in [1, 10, 256, 4096] {
            let buckets: BTreeSet<u64> = (0..256).map(|k| bucket(k * stride)).collect();
            assert!(
                buckets.len() > 150,
                "stride {stride}: {} buckets",
                buckets.len()
            );
        }
    }

    #[test]
    fn eviction_calls_steal_for_dirty_victim() {
        let mut p = pool(1, true);
        fill(&mut p, 1, page(1), Some(7));
        assert!(p.touch(DataPageId(2)).is_none());
        assert!(!p.has_room());
        let ev = p.pop_victim().unwrap();
        assert_eq!(ev.page, DataPageId(1));
        assert_eq!(ev.data, page(1));
        assert!(ev.dirty);
        assert_eq!(ev.modifiers, BTreeSet::from([7]));
        assert_eq!(p.stats().steals, 1);
        assert!(p.peek(DataPageId(1)).is_none());
        p.insert(DataPageId(2), Page::zeroed(8));
        assert!(p.peek(DataPageId(2)).is_some());
    }

    #[test]
    fn clean_eviction_is_a_drop() {
        let mut p = pool(1, true);
        fill(&mut p, 1, page(1), None);
        let ev = p.pop_victim().unwrap();
        assert!(!ev.dirty && ev.modifiers.is_empty());
        let s = p.stats();
        assert_eq!((s.drops, s.steals, s.writebacks), (1, 0, 0));
    }

    #[test]
    fn writeback_vs_steal_classification() {
        let mut p = pool(1, true);
        fill(&mut p, 1, page(1), Some(7));
        p.release_txn(7, [DataPageId(1)]); // committed
        let ev = p.pop_victim().unwrap();
        assert!(ev.dirty && ev.modifiers.is_empty());
        assert_eq!(p.stats().writebacks, 1);
        assert_eq!(p.stats().steals, 0);
    }

    #[test]
    fn nosteal_refuses_uncommitted_eviction() {
        let mut p = pool(1, false);
        fill(&mut p, 1, page(1), Some(7));
        assert!(
            p.pop_victim().is_none(),
            "¬STEAL blocks uncommitted eviction"
        );
        let err = p.read(DataPageId(2), |_| Ok::<_, ()>(page(2)), |_| Ok(()));
        assert_eq!(err.unwrap_err(), BufferError::NoEvictableFrame);
        // After commit the frame becomes evictable again.
        p.release_txn(7, [DataPageId(1)]);
        assert_eq!(p.pop_victim().unwrap().page, DataPageId(1));
        assert_eq!(p.stats().writebacks, 1);
    }

    #[test]
    fn restore_puts_back_a_failed_write_back() {
        let mut p = pool(1, true);
        fill(&mut p, 4, page(1), Some(7));
        assert!(write(&mut p, 4, &page(2), 8));
        let ev = p.pop_victim().unwrap();
        assert!(p.is_empty() && p.has_room());
        p.restore(ev);
        assert_eq!(p.peek(DataPageId(4)), Some(&page(2)));
        assert!(p.is_dirty(DataPageId(4)));
        assert_eq!(p.modifiers_of(DataPageId(4)), BTreeSet::from([7, 8]));
        assert_eq!(p.dirty_pages(), vec![(DataPageId(4), true)]);
        assert!(!p.has_room());
        let again = p.pop_victim().unwrap();
        assert_eq!(again.page, DataPageId(4));
        assert_eq!(again.data, page(2));
        assert_eq!(again.modifiers, BTreeSet::from([7, 8]));
        assert_eq!(p.stats().steals, 2);
    }

    #[test]
    fn read_composes_the_staged_steps() {
        let mut p = pool(1, true);
        let got = p.read(DataPageId(1), |_| Ok::<_, &str>(page(1)), |_| Ok(()));
        assert_eq!(got.unwrap(), page(1));
        let hit = p.read(
            DataPageId(1),
            |_| unreachable!("must hit"),
            |_| Ok::<_, &str>(()),
        );
        assert_eq!(hit.unwrap(), page(1));
        assert!(write(&mut p, 1, &page(5), 7));
        // A failed steal puts the victim back, a failed fetch leaves the
        // frame free; neither installs the requested page.
        let err = p.read(DataPageId(2), |_| unreachable!(), |_| Err("disk"));
        assert_eq!(err.unwrap_err(), BufferError::Backend("disk"));
        assert_eq!(p.modifiers_of(DataPageId(1)), BTreeSet::from([7]));
        let mut stolen = None;
        let err = p.read(
            DataPageId(2),
            |_| Err("fetch"),
            |ev| {
                stolen = Some((ev.page, ev.data.clone()));
                Ok(())
            },
        );
        assert_eq!(err.unwrap_err(), BufferError::Backend("fetch"));
        assert_eq!(stolen, Some((DataPageId(1), page(5))));
        assert!(p.is_empty());
        let s = p.stats();
        assert_eq!((s.hits, s.misses, s.steals), (1, 3, 2));
    }

    #[test]
    fn clock_gives_second_chance() {
        let mut p = pool(2, true);
        fill(&mut p, 1, page(1), None);
        fill(&mut p, 2, page(2), None);
        // Both reference bits set: the hand clears page 1's, then page
        // 2's, and evicts page 1 on its second visit.
        assert_eq!(p.pop_victim().unwrap().page, DataPageId(1));
        assert_eq!(p.stats().eviction_scans, 3);
        fill(&mut p, 3, page(3), None);
        assert_eq!(p.len(), 2);
        // Page 2's bit is clear and the hand points at it.
        assert_eq!(p.pop_victim().unwrap().page, DataPageId(2));
        assert_eq!(p.stats().eviction_scans, 4);
    }

    #[test]
    fn overwrite_resident_restores_image() {
        let mut p = pool(2, true);
        fill(&mut p, 1, page(5), Some(1));
        p.overwrite_resident(DataPageId(1), page(9), false);
        assert_eq!(p.peek(DataPageId(1)).unwrap(), &page(9));
        assert!(!p.is_dirty(DataPageId(1)));
        // Non-resident page: silently ignored.
        p.overwrite_resident(DataPageId(99), page(1), true);
        assert!(p.peek(DataPageId(99)).is_none());
    }

    #[test]
    fn crash_empties_pool() {
        let mut p = pool(4, true);
        fill(&mut p, 1, page(1), Some(1));
        p.crash();
        assert!(p.is_empty());
        assert!(p.peek(DataPageId(1)).is_none());
        // Pool is reusable after the crash.
        fill(&mut p, 2, page(2), None);
        assert_eq!(p.len(), 1);
    }

    #[test]
    fn capacity_is_respected() {
        let mut p = pool(3, true);
        for i in 0..10 {
            p.read(DataPageId(i), |_| Ok::<_, ()>(page(0)), |_| Ok(()))
                .unwrap();
            assert!(p.len() <= 3);
        }
    }

    #[test]
    #[should_panic(expected = "already-resident")]
    fn double_insert_panics() {
        let mut p = pool(2, true);
        p.insert(DataPageId(1), page(1));
        p.insert(DataPageId(1), page(1));
    }

    #[test]
    #[should_panic(expected = "at least one frame")]
    fn zero_frames_rejected() {
        let _ = BufferPool::new(BufferConfig::steal_clock(0));
    }
}
