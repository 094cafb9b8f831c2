//! The traced run's span recorder, kept entirely on the benchmark's side of
//! the engine's public API.
//!
//! Three levels: a root span per transaction, a child per public call
//! (`core.begin` … `core.commit`), and grandchildren from [`TimedDevice`],
//! which interposes at the `BlockDevice` seam and finds its parent through
//! the thread-local recorder. Every call feeds per-name totals; whole spans
//! are kept for one transaction in [`SPAN_SAMPLE_EVERY`] (memory stays
//! bounded whatever the engine's speed) and written as JSON lines at exit.

use rda_array::{BlockDevice, DiskId, HookState, Page};
use std::cell::RefCell;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::OnceLock;
use std::time::Instant;

/// One transaction in this many keeps its spans.
pub const SPAN_SAMPLE_EVERY: u64 = 64;
/// Hard cap on kept spans per thread (~40 B each).
const MAX_SPANS: usize = 400_000;

/// Nanoseconds since the process's first clock read.
pub fn now_ns() -> u64 {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    EPOCH.get_or_init(Instant::now).elapsed().as_nanos() as u64
}

#[derive(Debug, Clone)]
pub struct Span {
    pub id: u32,
    /// 0 for a transaction's root span.
    pub parent: u32,
    pub txn: u64,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
}

/// Per-name totals over every call of the traced phase.
#[derive(Debug, Clone, Copy, Default)]
pub struct CallTotals {
    pub count: u64,
    pub total_ns: u64,
    /// Part of `total_ns` spent inside `TimedDevice` children.
    pub device_ns: u64,
}

impl CallTotals {
    /// Mean time in the layer itself: the span minus its device children.
    pub fn self_ns_mean(&self) -> f64 {
        if self.count == 0 {
            return 0.0;
        }
        self.total_ns.saturating_sub(self.device_ns) as f64 / self.count as f64
    }
}

#[derive(Debug, Default)]
pub struct Recorder {
    on: bool,
    keep_spans: bool,
    next_id: u32,
    txn: u64,
    root: u32,
    call: u32,
    device_ns: u64,
    pub device_reads: u64,
    pub device_writes: u64,
    pub calls: BTreeMap<&'static str, CallTotals>,
    pub spans: Vec<Span>,
}

impl Recorder {
    fn id(&mut self) -> u32 {
        self.next_id += 1;
        self.next_id
    }

    fn keep(&mut self, span: Span) {
        if self.spans.len() < MAX_SPANS {
            self.spans.push(span);
        }
    }

    /// Fold another thread's recorder in; ids are re-based so they stay
    /// unique in the merged trace.
    pub fn absorb(&mut self, other: Recorder) {
        let base = self.next_id;
        self.next_id += other.next_id;
        self.device_ns += other.device_ns;
        self.device_reads += other.device_reads;
        self.device_writes += other.device_writes;
        for (name, t) in other.calls {
            let mine = self.calls.entry(name).or_default();
            mine.count += t.count;
            mine.total_ns += t.total_ns;
            mine.device_ns += t.device_ns;
        }
        for mut s in other.spans {
            s.id += base;
            if s.parent != 0 {
                s.parent += base;
            }
            self.keep(s);
        }
    }

    pub fn device_ns(&self) -> u64 {
        self.device_ns
    }

    /// One JSON object per line: `{"id","parent","txn","name","start_ns","end_ns"}`.
    pub fn jsonl(&self) -> String {
        let mut out = String::with_capacity(self.spans.len() * 96);
        for s in &self.spans {
            let _ = writeln!(
                out,
                "{{\"id\":{},\"parent\":{},\"txn\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{}}}",
                s.id, s.parent, s.txn, s.name, s.start_ns, s.end_ns
            );
        }
        out
    }
}

thread_local! {
    static REC: RefCell<Recorder> = RefCell::new(Recorder::default());
}

/// Turn this thread's recorder on (fresh) or off.
pub fn set_enabled(on: bool) {
    REC.with(|r| {
        let mut r = r.borrow_mut();
        if on {
            *r = Recorder::default();
        }
        r.on = on;
    });
}

/// Take this thread's recorder, leaving a disabled one behind.
pub fn take() -> Recorder {
    REC.with(|r| std::mem::take(&mut *r.borrow_mut()))
}

/// Reserve the root span id of a transaction that is about to begin
/// (0 while the recorder is off).
pub fn txn_start() -> u32 {
    REC.with(|r| {
        let mut r = r.borrow_mut();
        if r.on {
            r.id()
        } else {
            0
        }
    })
}

/// Close transaction number `txn` (driver-side count) whose root is `root`.
pub fn txn_end(txn: u64, root: u32, start_ns: u64, end_ns: u64) {
    REC.with(|r| {
        let mut r = r.borrow_mut();
        if r.on && txn % SPAN_SAMPLE_EVERY == 0 {
            r.keep(Span {
                id: root,
                parent: 0,
                txn,
                name: "txn",
                start_ns,
                end_ns,
            });
        }
    });
}

/// A public call into the engine on behalf of transaction `txn` is about
/// to start: device spans recorded until [`call_end`] become its children.
/// (The driver interleaves transactions on one thread, so every call names
/// its transaction.) Returns the device time so far.
pub fn call_start(txn: u64, root: u32) -> u64 {
    REC.with(|r| {
        let mut r = r.borrow_mut();
        if !r.on {
            return 0;
        }
        r.txn = txn;
        r.root = root;
        r.keep_spans = txn % SPAN_SAMPLE_EVERY == 0;
        r.call = r.id();
        r.device_ns
    })
}

pub fn call_end(name: &'static str, device_before: u64, start_ns: u64, end_ns: u64) {
    REC.with(|r| {
        let mut r = r.borrow_mut();
        if !r.on {
            return;
        }
        let device = r.device_ns - device_before;
        let t = r.calls.entry(name).or_default();
        t.count += 1;
        t.total_ns += end_ns.saturating_sub(start_ns);
        t.device_ns += device;
        if r.keep_spans {
            let span = Span {
                id: r.call,
                parent: r.root,
                txn: r.txn,
                name,
                start_ns,
                end_ns,
            };
            r.keep(span);
        }
        r.call = 0;
    });
}

fn device_op<T>(name: &'static str, write: bool, op: impl FnOnce() -> T) -> T {
    if !REC.with(|r| r.borrow().on) {
        return op();
    }
    let start = now_ns();
    let out = op();
    let end = now_ns();
    REC.with(|r| {
        let mut r = r.borrow_mut();
        r.device_ns += end - start;
        if write {
            r.device_writes += 1;
        } else {
            r.device_reads += 1;
        }
        // Device I/O outside a public call (none today) would have no parent.
        if r.keep_spans && r.call != 0 {
            let span = Span {
                id: r.id(),
                parent: r.call,
                txn: r.txn,
                name,
                start_ns: start,
                end_ns: end,
            };
            r.keep(span);
        }
    });
    out
}

/// A `BlockDevice` that times the reads and writes passing through it and
/// otherwise is the device it wraps: the `rda-array` layer measured from
/// outside. `barrier` is passed through untimed — the engine's own
/// `engine_barrier_nanos` covers it, and timing it here would count it twice.
pub struct TimedDevice<D>(pub D);

impl<D: BlockDevice> BlockDevice for TimedDevice<D> {
    fn id(&self) -> DiskId {
        self.0.id()
    }

    fn block_count(&self) -> u64 {
        self.0.block_count()
    }

    fn set_fault_hook(&self, state: Option<HookState>) {
        self.0.set_fault_hook(state);
    }

    fn read(&self, block: u64) -> rda_array::Result<Page> {
        device_op("array.device_read", false, || self.0.read(block))
    }

    fn read_xor_into(&self, block: u64, dst: &mut Page) -> rda_array::Result<()> {
        device_op("array.device_read", false, || {
            self.0.read_xor_into(block, dst)
        })
    }

    fn write(&self, block: u64, page: &Page) -> rda_array::Result<()> {
        device_op("array.device_write", true, || self.0.write(block, page))
    }

    fn fail(&self) {
        self.0.fail();
    }

    fn is_failed(&self) -> bool {
        self.0.is_failed()
    }

    fn corrupt_block(&self, block: u64) {
        self.0.corrupt_block(block);
    }

    fn tear_block(&self, block: u64) {
        self.0.tear_block(block);
    }

    fn replace(&self) {
        self.0.replace();
    }

    fn barrier(&self) -> rda_array::Result<()> {
        self.0.barrier()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rda_array::sim_disks_for;
    use rda_core::{BackendSetup, Database, DbConfig, EngineKind};

    fn scripted<D: BlockDevice>(db: &Database<D>) -> (Vec<Vec<u8>>, u64, u64) {
        for i in 0..60u32 {
            let mut tx = db.begin();
            for j in 0..3 {
                let page = (i * 7 + j * 13) % db.data_pages();
                tx.write(page, &[i as u8 + 1, j as u8]).expect("write");
                tx.read((page + 1) % db.data_pages()).expect("read");
            }
            if i % 9 == 8 {
                tx.abort().expect("abort");
            } else {
                tx.commit().expect("commit");
            }
        }
        let stats = db.stats();
        (
            db.state_dump().expect("dump"),
            stats.total_transfers(),
            stats.buffer.hits + stats.buffer.misses,
        )
    }

    #[test]
    fn timed_device_is_a_pass_through() {
        let cfg = DbConfig::small_test(EngineKind::Rda);
        let plain = scripted(&Database::open(cfg.clone()));
        let wrap = |cfg: &DbConfig| {
            let disks = sim_disks_for(&cfg.array)
                .into_iter()
                .map(TimedDevice)
                .collect();
            Database::open_with(cfg.clone(), BackendSetup::fresh(disks))
        };
        // Recorder off: pure delegation.
        assert_eq!(scripted(&wrap(&cfg)), plain);
        // Recorder on: same state and billed transfers, and the device saw
        // exactly the I/O the array billed.
        set_enabled(true);
        let before = call_start(0, txn_start());
        let traced = scripted(&wrap(&cfg));
        call_end("core.commit", before, 0, 1);
        let rec = take();
        assert_eq!(traced, plain);
        assert!(rec.device_reads > 0 && rec.device_writes > 0);
        assert!(!rec.spans.is_empty());
        assert!(rec.spans.iter().all(|s| s.end_ns >= s.start_ns));
        assert!(!REC.with(|r| r.borrow().on), "take() leaves it disabled");
    }

    #[test]
    fn absorb_keeps_ids_unique_and_totals_summed() {
        let mk = |name| {
            set_enabled(true);
            let root = txn_start();
            let d = call_start(0, root);
            call_end(name, d, 10, 30);
            txn_end(0, root, 0, 40);
            take()
        };
        let mut a = mk("core.read");
        a.absorb(mk("core.read"));
        assert_eq!(a.calls["core.read"].count, 2);
        assert_eq!(a.calls["core.read"].total_ns, 40);
        let mut ids: Vec<u32> = a.spans.iter().map(|s| s.id).collect();
        ids.sort_unstable();
        ids.dedup();
        assert_eq!(ids.len(), a.spans.len());
        let line = a.jsonl();
        assert!(line.lines().all(|l| l.starts_with('{') && l.ends_with('}')));
    }
}
