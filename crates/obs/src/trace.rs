//! The ring-buffer event tracer.
//!
//! Design constraints, in order:
//!
//! 1. **Zero cost when disabled.** `emit` takes a closure so the event
//!    payload is never even constructed unless tracing is on; the
//!    disabled path is a single relaxed atomic load. No allocation
//!    happens on any emit path — the slot array is preallocated at
//!    [`Tracer::enable`] time.
//! 2. **Lock-free when enabled.** An emit claims a slot with one
//!    `fetch_add` and fills it with plain atomic stores — no mutex on
//!    the hot path, so concurrent writers never serialize against each
//!    other (the billed-I/O path runs this once per transfer). Each
//!    slot is a tiny seqlock: its `seq` word is set to a sentinel
//!    before the payload stores and to the claimed sequence number
//!    after, so [`Tracer::snapshot`] detects and skips a slot caught
//!    mid-write instead of returning a torn event.
//! 3. **A meaningful clock.** Wall-clocks are useless for replayable
//!    simulations, so events are stamped with the *billed physical I/O
//!    counter* — the same quantity the paper's cost model counts and
//!    the fault injector crashes on. The array layer advances it via
//!    [`Tracer::record_io`] on every billed transfer (enabled or not;
//!    one relaxed `fetch_add` next to the two the I/O stats already
//!    pay). Zero-I/O events (commit twin flips) are ordered by the
//!    claim sequence number.
//! 4. **Bounded memory.** The ring overwrites its oldest entry when
//!    full and counts what it dropped, so a tracer left on for a long
//!    workload degrades to "most recent N events" instead of OOM.

use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, OnceLock};

use crate::event::{EventKind, TraceEvent};
use crate::pack::{pack, unpack};

/// Everything [`Tracer::snapshot`] returns: the retained events in
/// emission order plus how many older events the ring overwrote.
#[derive(Debug, Clone, Default)]
pub struct TraceSnapshot {
    /// Retained events, oldest first.
    pub events: Vec<TraceEvent>,
    /// Events overwritten because the ring was full.
    pub dropped: u64,
}

/// `seq` value of a slot that has never been written, or is being
/// written right now. Real sequence numbers cannot reach it.
const SLOT_EMPTY: u64 = u64::MAX;

/// One seqlock-guarded ring slot. `seq` is the consistency word; the
/// payload is the billed-I/O stamp plus the three packed event words
/// (see [`crate::pack`]).
#[derive(Default)]
struct Slot {
    seq: AtomicU64,
    at: AtomicU64,
    w0: AtomicU64,
    w1: AtomicU64,
    w2: AtomicU64,
}

impl Slot {
    fn new() -> Slot {
        Slot {
            seq: AtomicU64::new(SLOT_EMPTY),
            ..Slot::default()
        }
    }
}

/// A shared, thread-safe structured event trace.
///
/// One `Tracer` is shared (via `Arc`) by every layer of one database
/// instance: the disk array advances the I/O clock, and each layer
/// emits its protocol transitions. Disabled tracers cost one relaxed
/// atomic load per emit site and never allocate.
///
/// The slot array is allocated once, on the first [`Tracer::enable`]
/// with a nonzero capacity (rounded up to a power of two so the hot
/// path indexes with a mask instead of a division). A later `enable`
/// reuses the existing allocation, clamped to its size — tracers are
/// per-database and configured once at open, so growth after the fact
/// is not worth a lock on every emit.
#[derive(Default)]
pub struct Tracer {
    enabled: AtomicBool,
    /// Commit-path span events (`TxnBegin`/`LogForce`/`CommitBarrier`/
    /// `CommitAck`) are gated separately so protocol traces keep their
    /// historical shape unless a profiler opts in.
    spans: AtomicBool,
    io_clock: AtomicU64,
    /// Next sequence number to claim. Slot index is `seq & (cap - 1)`.
    next: AtomicU64,
    /// Sequence numbers below this are hidden from snapshots (advanced
    /// by [`Tracer::clear`] and re-[`Tracer::enable`]).
    floor: AtomicU64,
    /// Live capacity: `min(requested, slots.len())`, always a power of
    /// two (or 0 while disabled before the first enable).
    cap: AtomicUsize,
    slots: OnceLock<Box<[Slot]>>,
}

impl Tracer {
    /// A fresh, disabled tracer.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// A fresh, disabled tracer behind an `Arc` — the form every
    /// constructor seam (`DiskArray::new`, `BufferPool::new`) defaults
    /// to when the caller did not supply a shared one.
    #[must_use]
    pub fn disabled() -> Arc<Self> {
        Arc::new(Self::new())
    }

    /// Turn tracing on with a ring of `capacity` events, rounded up to
    /// a power of two (preallocated here so emit paths never
    /// allocate). `capacity == 0` leaves the tracer disabled.
    /// Re-enabling hides previously retained events and reuses the
    /// first enable's allocation (clamped to it if larger).
    pub fn enable(&self, capacity: usize) {
        if capacity == 0 {
            self.disable();
            return;
        }
        let want = capacity.next_power_of_two();
        let slots = self
            .slots
            .get_or_init(|| (0..want).map(|_| Slot::new()).collect());
        // ordering: Release pairs with the Acquire load in snapshot so a
        // reader that sees the new cap also sees the OnceLock-published
        // ring it indexes into.
        self.cap.store(want.min(slots.len()), Ordering::Release);
        // ordering: Relaxed — floor only delimits the visible window;
        // snapshot tolerates any interleaving with writers.
        let here = self.next.load(Ordering::Relaxed);
        // ordering: Relaxed — same window bookkeeping as the load above.
        self.floor.store(here, Ordering::Relaxed);
        // ordering: Relaxed — enabled is a hint, not a publication: push
        // re-checks cap and the OnceLock before touching the ring, so a
        // stale read costs at most one dropped/extra event.
        self.enabled.store(true, Ordering::Relaxed);
    }

    /// Turn tracing off. The retained events stay readable via
    /// [`Tracer::snapshot`].
    pub fn disable(&self) {
        // ordering: Relaxed — see enable: disabling is advisory; an emit
        // racing the store harmlessly records one more event.
        self.enabled.store(false, Ordering::Relaxed);
    }

    /// Opt in (or out of) commit-path span events. Spans only reach the
    /// ring while the tracer itself is enabled.
    pub fn set_spans(&self, on: bool) {
        // ordering: Relaxed — advisory gate, same contract as enabled.
        self.spans.store(on, Ordering::Relaxed);
    }

    /// Are commit-path span events being recorded?
    #[must_use]
    pub fn spans_enabled(&self) -> bool {
        // ordering: Relaxed — advisory flag, no data is guarded by it.
        self.enabled.load(Ordering::Relaxed) && self.spans.load(Ordering::Relaxed)
    }

    /// Record a commit-path span event. Like [`Tracer::emit`], but
    /// additionally gated on [`Tracer::set_spans`]: a disabled span gate
    /// costs one more relaxed load and never constructs the payload.
    #[inline]
    pub fn emit_span<F: FnOnce() -> EventKind>(&self, f: F) {
        // ordering: Relaxed — advisory gates; push re-validates the ring.
        if self.enabled.load(Ordering::Relaxed) && self.spans.load(Ordering::Relaxed) {
            // ordering: Relaxed — clock snapshot for the event label.
            let at = self.io_clock.load(Ordering::Relaxed);
            self.push(at, f());
        }
    }

    /// Current value of the billed-I/O clock.
    #[must_use]
    pub fn io_clock(&self) -> u64 {
        // ordering: Relaxed — monotonic counter read, no ordering needed.
        self.io_clock.load(Ordering::Relaxed)
    }

    /// Record a protocol event. The closure runs only when tracing is
    /// enabled, so a disabled tracer never constructs the payload.
    #[inline]
    pub fn emit<F: FnOnce() -> EventKind>(&self, f: F) {
        // ordering: Relaxed — advisory enable check; push re-validates
        // the ring before writing.
        if self.enabled.load(Ordering::Relaxed) {
            // ordering: Relaxed — clock snapshot for the event label.
            let at = self.io_clock.load(Ordering::Relaxed);
            self.push(at, f());
        }
    }

    /// Advance the billed-I/O clock by one and record the transfer's
    /// event. The clock advances even when tracing is disabled — it is
    /// the stack-wide timebase, not a trace artifact.
    #[inline]
    pub fn record_io<F: FnOnce() -> EventKind>(&self, f: F) {
        // ordering: Relaxed — the clock is a monotonic counter; fetch_add
        // is already atomic and nothing is published under it.
        let at = self.io_clock.fetch_add(1, Ordering::Relaxed) + 1;
        // ordering: Relaxed — advisory enable check, as in emit.
        if self.enabled.load(Ordering::Relaxed) {
            self.push(at, f());
        }
    }

    /// Claim a slot and fill it. Lock-free: one `fetch_add` plus five
    /// relaxed/release stores. Deliberately outlined: dozens of emit
    /// sites share one copy instead of bloating their hot loops.
    #[inline(never)]
    fn push(&self, at: u64, kind: EventKind) {
        // ordering: Relaxed — cap is validated against the OnceLock ring
        // below; the Release/Acquire edge matters only for snapshot.
        let cap = self.cap.load(Ordering::Relaxed);
        let Some(slots) = self.slots.get() else {
            return;
        };
        if cap == 0 {
            return;
        }
        // ordering: Relaxed — slot claim only needs atomicity; the
        // payload is published by the slot's own seq Release below.
        let seq = self.next.fetch_add(1, Ordering::Relaxed);
        let slot = &slots[(seq as usize) & (cap - 1)];
        let (w0, w1, w2) = pack(kind);
        // Seqlock write protocol: invalidate, fill, publish.
        // ordering: Release — invalidation must not sink below the
        // payload stores, or a reader could pair a stale seq with new
        // words.
        slot.seq.store(SLOT_EMPTY, Ordering::Release);
        // ordering: Relaxed — payload words are ordered by the seq
        // Release/Acquire pair, not individually.
        slot.at.store(at, Ordering::Relaxed);
        // ordering: Relaxed — see at above.
        slot.w0.store(w0, Ordering::Relaxed);
        // ordering: Relaxed — see at above.
        slot.w1.store(w1, Ordering::Relaxed);
        // ordering: Relaxed — see at above.
        slot.w2.store(w2, Ordering::Relaxed);
        // ordering: Release — publishes the payload; pairs with the
        // Acquire re-check loads in snapshot (the seqlock edge).
        slot.seq.store(seq, Ordering::Release);
    }

    /// The retained events (oldest first) plus the overwrite count.
    ///
    /// A slot claimed but not yet published by a concurrent writer is
    /// skipped (its event is counted as dropped); quiesced tracers —
    /// every test and report in this workspace — see an exact stream.
    #[must_use]
    pub fn snapshot(&self) -> TraceSnapshot {
        // ordering: Relaxed — total is a bound, not a publication: each
        // slot's own seq Acquire validates whatever this bound admits,
        // so a stale total only shrinks the window.
        let total = self.next.load(Ordering::Relaxed);
        // ordering: Relaxed — window bookkeeping, see enable.
        let floor = self.floor.load(Ordering::Relaxed);
        // ordering: Acquire — pairs with the Release store in enable so
        // the cap we index with never exceeds the ring we see.
        let cap = self.cap.load(Ordering::Acquire) as u64;
        let Some(slots) = self.slots.get() else {
            return TraceSnapshot::default();
        };
        let start = floor.max(total.saturating_sub(cap));
        let mut events = Vec::with_capacity((total - start) as usize);
        for seq in start..total {
            let slot = &slots[(seq as usize) & (cap as usize - 1)];
            // ordering: Acquire — seqlock read protocol: pairs with the
            // publishing Release in push; payload loads must not float
            // above this check.
            if slot.seq.load(Ordering::Acquire) != seq {
                continue; // overwritten or mid-write
            }
            // ordering: Relaxed — payload guarded by the seq checks on
            // both sides.
            let at = slot.at.load(Ordering::Relaxed);
            let words = (
                // ordering: Relaxed — guarded by the seq checks.
                slot.w0.load(Ordering::Relaxed),
                // ordering: Relaxed — guarded by the seq checks.
                slot.w1.load(Ordering::Relaxed),
                // ordering: Relaxed — guarded by the seq checks.
                slot.w2.load(Ordering::Relaxed),
            );
            // ordering: Acquire — seqlock re-check: a torn read shows up
            // as a seq change between the two fences.
            if slot.seq.load(Ordering::Acquire) != seq {
                continue; // overwritten while reading
            }
            if let Some(kind) = unpack(words) {
                events.push(TraceEvent { at, seq, kind });
            }
        }
        // Everything since the floor that is not in `events` was either
        // overwritten by the ring wrapping or skipped mid-write.
        TraceSnapshot {
            dropped: (total - floor).saturating_sub(events.len() as u64),
            events,
        }
    }

    /// Hide all retained events from future snapshots (the sequence
    /// number keeps running).
    pub fn clear(&self) {
        // ordering: Relaxed — window bookkeeping, see enable.
        let here = self.next.load(Ordering::Relaxed);
        // ordering: Relaxed — same.
        self.floor.store(here, Ordering::Relaxed);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_tracer_records_nothing_but_clock_runs() {
        let t = Tracer::new();
        t.record_io(|| EventKind::DiskRead { disk: 0, block: 1 });
        t.emit(|| EventKind::CommitTwinFlip { group: 0, txn: 1 });
        assert_eq!(t.io_clock(), 1);
        assert!(t.snapshot().events.is_empty());
    }

    #[test]
    fn ring_overwrites_oldest_and_counts_drops() {
        let t = Tracer::new();
        t.enable(2);
        for block in 0..5u64 {
            t.record_io(|| EventKind::DiskWrite { disk: 0, block });
        }
        let snap = t.snapshot();
        assert_eq!(snap.dropped, 3);
        assert_eq!(snap.events.len(), 2);
        assert_eq!(snap.events[0].seq, 3);
        assert_eq!(snap.events[1].seq, 4);
        assert!(matches!(
            snap.events[1].kind,
            EventKind::DiskWrite { block: 4, .. }
        ));
    }

    #[test]
    fn emit_closure_skipped_when_disabled() {
        let t = Tracer::new();
        let mut ran = false;
        t.emit(|| {
            ran = true;
            EventKind::IntentReplay { page: 0 }
        });
        assert!(!ran);
        t.enable(4);
        t.emit(|| {
            ran = true;
            EventKind::IntentReplay { page: 0 }
        });
        assert!(ran);
        assert_eq!(t.snapshot().events.len(), 1);
    }

    #[test]
    fn clear_hides_events_and_seq_keeps_running() {
        let t = Tracer::new();
        t.enable(8);
        t.emit(|| EventKind::IntentReplay { page: 1 });
        t.clear();
        assert!(t.snapshot().events.is_empty());
        t.emit(|| EventKind::IntentReplay { page: 2 });
        let snap = t.snapshot();
        assert_eq!(snap.events.len(), 1);
        assert_eq!(snap.events[0].seq, 1);
        assert!(matches!(
            snap.events[0].kind,
            EventKind::IntentReplay { page: 2 }
        ));
    }

    #[test]
    fn span_events_need_both_gates() {
        let t = Tracer::new();
        t.enable(8);
        // Tracer on, spans off: span emits are invisible.
        t.emit_span(|| EventKind::TxnBegin { txn: 1 });
        assert!(t.snapshot().events.is_empty());
        t.set_spans(true);
        assert!(t.spans_enabled());
        t.emit_span(|| EventKind::TxnBegin { txn: 2 });
        let snap = t.snapshot();
        assert_eq!(snap.events.len(), 1);
        assert!(matches!(
            snap.events[0].kind,
            EventKind::TxnBegin { txn: 2 }
        ));
        // Spans on but tracer off: still nothing (and the closure is
        // never run).
        t.disable();
        assert!(!t.spans_enabled());
        let mut ran = false;
        t.emit_span(|| {
            ran = true;
            EventKind::CommitAck { txn: 3, pages: 1 }
        });
        assert!(!ran);
    }

    #[test]
    fn concurrent_writers_never_produce_torn_events() {
        let t = Arc::new(Tracer::new());
        t.enable(64);
        let mut handles = Vec::new();
        for w in 0..4u64 {
            let t = Arc::clone(&t);
            handles.push(std::thread::spawn(move || {
                for i in 0..1000u64 {
                    t.record_io(|| EventKind::DiskWrite {
                        disk: u16::try_from(w).unwrap_or(0),
                        block: w * 10_000 + i,
                    });
                }
            }));
        }
        for h in handles {
            let _ = h.join();
        }
        let snap = t.snapshot();
        // Every surviving event must be internally consistent: block
        // encodes the writer that produced it, and must match disk.
        for ev in &snap.events {
            match ev.kind {
                EventKind::DiskWrite { disk, block } => {
                    assert_eq!(u64::from(disk), block / 10_000);
                }
                other => panic!("unexpected event {other:?}"),
            }
        }
        assert_eq!(snap.events.len() as u64 + snap.dropped, 4000);
    }
}
