//! Group commit: the commit gate, a combining gate with no designated
//! leader (flat combining, Hendler et al., SPAA 2010).
//!
//! A committer enqueues its transaction *unprepared*, then either runs a
//! batch itself or waits for one to carry its transaction. It becomes the
//! batch's *executor* when no batch is running and the queue has closed:
//! the queue holds its target — `min(max_batch, in flight)`, every
//! transaction that could still join (an uncontended commit closes its
//! own batch at once instead of paying the window as ack latency) — or
//! its oldest member has waited `window_micros`. The executor takes up to
//! `max_batch` members and the engine lock once, and under it runs the
//! whole commit protocol for the batch: commit phase 1
//! (`txn_commit_prepare`: FORCE write-backs, REDO records, the commit
//! record) for each member in queue order, one durability barrier + log
//! force (`commit_force_barrier`) over the members that prepared, then
//! phase 3 (`txn_commit_finalize`: twin flips, lock release, ack) for
//! each. One fsync-equivalent acknowledges many transactions, the thread
//! that closes a batch runs it (no wake-up lies between its last member's
//! arrival and the force), and a batch takes the engine lock once.
//!
//! Lock order is strictly gate → engine and the two are never held
//! together: the executor drops the gate lock before touching the engine
//! and re-takes it only to publish results. A queued transaction is safe
//! to leave unprepared and a prepared one unforced because each still
//! holds its page locks (isolation) until its finalize, and nothing is
//! acknowledged before the batch's force: a crash before it leaves every
//! member an ordinary loser.

use std::collections::{HashMap, VecDeque};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, PoisonError};
use std::time::{Duration, Instant};

use rda_array::{BlockDevice, DataPageId};
use rda_obs::sync::Mutex;
use rda_obs::{Counter, Histogram, MetricsRegistry, NANOS_BOUNDS};

use crate::config::GroupCommit;
use crate::engine::Engine;
use crate::error::{DbError, Result};
use rda_wal::TxnId;

/// Batch-size histogram buckets (transactions per batch).
const BATCH_BOUNDS: [u64; 7] = [1, 2, 4, 8, 16, 32, 64];

/// A transaction queued at the gate, not yet prepared.
struct Member {
    txn: TxnId,
    enqueued: Instant,
}

#[derive(Default)]
struct GateState {
    /// Transactions awaiting the next batch, in arrival order.
    queue: VecDeque<Member>,
    /// Is some committer executing a batch?
    running: bool,
    /// Commit outcomes keyed by txn id, collected by their owners.
    results: HashMap<u64, Result<()>>,
}

/// The gate itself: one per shard, shared by all its transactions.
pub struct CommitGate {
    cfg: GroupCommit,
    /// Transactions begun on the database that have not opened an engine
    /// transaction yet (begin is lazy): not in any engine's `active`, but
    /// about to be, so a batch waits for them too.
    unopened: Arc<AtomicUsize>,
    state: Mutex<GateState>,
    cv: Condvar,
    batches: Counter,
    batched_txns: Counter,
    batch_size: Arc<Histogram>,
    wait_nanos: Arc<Histogram>,
    run_nanos: Arc<Histogram>,
}

impl CommitGate {
    /// Build a gate and register its metrics
    /// (`group_commit_batches_total`, `group_commit_txns_total`,
    /// `group_commit_batch_size`; `group_commit_wait_nanos`, a member's
    /// enqueue to the start of its batch, and `group_commit_run_nanos`,
    /// one batch under the engine lock). `unopened` counts the database's
    /// transactions that have begun but touched no shard yet.
    #[must_use]
    pub fn new(
        cfg: GroupCommit,
        metrics: &MetricsRegistry,
        unopened: Arc<AtomicUsize>,
    ) -> CommitGate {
        CommitGate {
            cfg,
            unopened,
            state: Mutex::new(GateState::default()),
            cv: Condvar::new(),
            batches: metrics.counter("group_commit_batches_total"),
            batched_txns: metrics.counter("group_commit_txns_total"),
            batch_size: metrics.histogram("group_commit_batch_size", &BATCH_BOUNDS),
            wait_nanos: metrics.histogram("group_commit_wait_nanos", &NANOS_BOUNDS),
            run_nanos: metrics.histogram("group_commit_run_nanos", &NANOS_BOUNDS),
        }
    }

    /// Commit `txn` through the gate: enqueue it, then execute batches
    /// while the queue is closed and no batch runs, or wait for one to
    /// carry `txn`.
    ///
    /// # Errors
    /// `txn`'s own phase-1 error (a crashed array, a failed read; prepare
    /// has aborted it); a batch-wide force/barrier failure is returned to
    /// every member that prepared.
    pub fn commit<D: BlockDevice>(&self, engine: &Mutex<Engine<D>>, txn: TxnId) -> Result<()> {
        let window = Duration::from_micros(self.cfg.window_micros);
        // How many committers could still join a batch? Sampled before
        // touching gate state (gate and engine locks are never held
        // together). Every queued committer is still counted in `active`,
        // so once the queue holds every active transaction there is
        // nobody left to wait for. A transaction that has begun but not
        // yet reached any engine counts as in flight. A zero window closes
        // every batch at once and needs no target.
        let target = if window.is_zero() {
            1
        } else {
            // ordering: Relaxed — a batching heuristic; no data is published.
            let unopened = self.unopened.load(Ordering::Relaxed);
            self.cfg
                .max_batch
                .min(engine.lock().active.len() + unopened)
        };
        let mut st = self.state.lock();
        st.queue.push_back(Member {
            txn,
            enqueued: Instant::now(),
        });
        loop {
            if let Some(r) = st.results.remove(&txn.0) {
                return r;
            }
            let due = st.queue.front().map(|oldest| oldest.enqueued + window);
            match due {
                Some(due) if !st.running => {
                    let now = Instant::now();
                    if st.queue.len() >= target || now >= due {
                        st.running = true;
                        let take = st.queue.len().min(self.cfg.max_batch);
                        let batch: Vec<Member> = st.queue.drain(..take).collect();
                        drop(st);
                        self.run_batch(engine, batch, now);
                        st = self.state.lock();
                    } else {
                        st = self
                            .cv
                            .wait_timeout(st, due - now)
                            .unwrap_or_else(PoisonError::into_inner)
                            .0;
                    }
                }
                // A batch is running: its executor's step-down wakes us.
                _ => st = self.cv.wait(st).unwrap_or_else(PoisonError::into_inner),
            }
        }
    }

    /// Execute one batch under a single engine lock acquisition: prepare
    /// every member, one barrier + log force over those that prepared,
    /// finalize each. Publishes per-member results and steps down.
    fn run_batch<D: BlockDevice>(
        &self,
        engine: &Mutex<Engine<D>>,
        batch: Vec<Member>,
        start: Instant,
    ) {
        for m in &batch {
            self.wait_nanos
                .observe(start.saturating_duration_since(m.enqueued).as_nanos() as u64);
        }
        let mut done = StepDown {
            gate: self,
            batch,
            results: Vec::new(),
        };
        let mut eng = engine.lock();
        let run_start = Instant::now();
        // A failed prepare fails only its own member (prepare has already
        // aborted it, or a crash left it to restart).
        let prepared: Vec<Result<Vec<DataPageId>>> = done
            .batch
            .iter()
            .map(|m| eng.txn_commit_prepare(m.txn))
            .collect();
        let ids: Vec<TxnId> = done
            .batch
            .iter()
            .zip(&prepared)
            .filter(|(_, p)| p.is_ok())
            .map(|(m, _)| m.txn)
            .collect();
        let forced = if ids.is_empty() {
            Ok(())
        } else {
            eng.commit_force_barrier(&ids)
        };
        for (m, p) in done.batch.iter().zip(prepared) {
            done.results.push(match (p, &forced) {
                (Ok(written), Ok(())) => eng.txn_commit_finalize(m.txn, &written),
                // A failed barrier (crash, dead disk) fails every prepared
                // member: none was acknowledged, all stay unforced losers
                // for recovery.
                (Ok(_), Err(e)) => Err(e.clone()),
                (Err(e), _) => Err(e),
            });
        }
        self.run_nanos
            .observe(run_start.elapsed().as_nanos() as u64);
        drop(eng);
        let n = done.batch.len() as u64;
        self.batches.inc();
        self.batched_txns.add(n);
        self.batch_size.observe(n);
    }

    /// Members waiting in the queue, for tests that stage a batch.
    #[cfg(test)]
    pub(crate) fn queued(&self) -> usize {
        self.state.lock().queue.len()
    }
}

/// Publishes a batch's results and steps the executor down when dropped —
/// also when the executor unwinds mid-batch (a panicking fault hook, a
/// broken internal condition). Members it never reached are told
/// `NeedsRecovery` instead of waiting forever on an executor that is gone.
struct StepDown<'a> {
    gate: &'a CommitGate,
    batch: Vec<Member>,
    /// Outcomes in `batch` order; shorter than `batch` only on unwind.
    results: Vec<Result<()>>,
}

impl Drop for StepDown<'_> {
    fn drop(&mut self) {
        let mut st = self.gate.state.lock();
        st.running = false;
        let mut results = std::mem::take(&mut self.results).into_iter();
        for m in &self.batch {
            let r = results.next().unwrap_or(Err(DbError::NeedsRecovery));
            st.results.insert(m.txn.0, r);
        }
        self.gate.cv.notify_all();
    }
}

#[cfg(test)]
mod tests {
    use std::sync::atomic::{AtomicBool, Ordering};
    use std::sync::{Arc, Barrier};
    use std::time::{Duration, Instant};

    use rda_array::{DataPageId, FaultHook, FaultKind, IoEvent, PhysLoc};
    use rda_obs::sync::Mutex;
    use rda_obs::NANOS_BOUNDS;

    use crate::{Database, DbConfig, DbError, EngineKind, GroupCommit};

    fn gated(window_micros: u64) -> DbConfig {
        DbConfig::small_test(EngineKind::Rda).group_commit(GroupCommit {
            window_micros,
            max_batch: 32,
        })
    }

    /// Commit one write of `byte` to `page` per thread, from two threads:
    /// the first commits as soon as both have written, the second once
    /// the first is queued at the gate. Returns each commit's outcome in
    /// that order, with the id of the second thread.
    fn commit_first_then_second(
        db: &Database,
        writes: [(u32, u8); 2],
    ) -> (crate::Result<()>, crate::Result<()>, std::thread::ThreadId) {
        let gate = db.shard(0).gate.as_ref().expect("group commit is on");
        let both_written = Barrier::new(2);
        std::thread::scope(|scope| {
            let both_written = &both_written;
            let [(first_page, first_byte), (second_page, second_byte)] = writes;
            let first = scope.spawn(move || {
                let mut tx = db.begin();
                tx.write(first_page, &[first_byte]).unwrap();
                both_written.wait();
                tx.commit().map(|_| ())
            });
            let second = scope.spawn(move || {
                let mut tx = db.begin();
                tx.write(second_page, &[second_byte]).unwrap();
                both_written.wait();
                let give_up = Instant::now() + Duration::from_secs(10);
                while gate.queued() == 0 {
                    assert!(Instant::now() < give_up, "the first committer never queued");
                    std::thread::sleep(Duration::from_micros(100));
                }
                (tx.commit().map(|_| ()), std::thread::current().id())
            });
            let (second, second_id) = second.join().unwrap();
            (first.join().unwrap(), second, second_id)
        })
    }

    #[test]
    fn gated_commits_are_durable_and_batched() {
        let db = Database::open(gated(200));
        let threads = 4;
        let per_thread = 25u32;
        std::thread::scope(|scope| {
            for t in 0..threads {
                let db = db.clone();
                scope.spawn(move || {
                    // Distinct pages per thread: no lock conflicts, so
                    // every commit must succeed.
                    let page = t; // pages 0..4 sit in groups 0..1
                    for i in 1..=per_thread {
                        let mut tx = db.begin();
                        tx.write(page, &i.to_le_bytes()).unwrap();
                        tx.commit().unwrap();
                    }
                });
            }
        });
        for t in 0..threads {
            let got = db.read_page(t).unwrap();
            assert_eq!(&got[..4], &per_thread.to_le_bytes());
        }
        let commits = db.metrics().counter("engine_commits_total").get();
        let batches = db.metrics().counter("group_commit_batches_total").get();
        let batched = db.metrics().counter("group_commit_txns_total").get();
        assert_eq!(commits, u64::from(threads) * u64::from(per_thread));
        assert_eq!(batched, commits, "every commit went through the gate");
        assert!(batches >= 1 && batches <= batched);
        // One wait sample per member, one run sample per batch.
        let metrics = db.shard(0).metrics();
        let wait = metrics.histogram("group_commit_wait_nanos", &NANOS_BOUNDS);
        let run = metrics.histogram("group_commit_run_nanos", &NANOS_BOUNDS);
        assert_eq!(wait.count(), batched);
        assert_eq!(run.count(), batches);
        assert!(db.audit().is_clean());
        // Acked commits survive a crash: the gate forced them.
        db.crash_and_recover().unwrap();
        for t in 0..threads {
            let got = db.read_page(t).unwrap();
            assert_eq!(&got[..4], &per_thread.to_le_bytes());
        }
    }

    #[test]
    fn uncontended_executor_skips_the_linger_window() {
        // A long window must not be paid as ack latency when the
        // committer's own transaction is the only one in flight.
        let db = Database::open(gated(200_000)); // 200 ms window
        let start = Instant::now();
        for i in 1u32..=3 {
            let mut tx = db.begin();
            tx.write(3, &i.to_le_bytes()).unwrap();
            tx.commit().unwrap();
        }
        assert!(
            start.elapsed() < Duration::from_millis(200),
            "3 uncontended commits must not linger (took {:?})",
            start.elapsed()
        );
        assert_eq!(&db.read_page(3).unwrap()[..4], &3u32.to_le_bytes());
        db.crash_and_recover().unwrap();
        assert_eq!(&db.read_page(3).unwrap()[..4], &3u32.to_le_bytes());
    }

    #[test]
    fn zero_window_gate_preserves_single_committer_semantics() {
        let db = Database::open(gated(0));
        for i in 1u32..=10 {
            let mut tx = db.begin();
            tx.write(7, &i.to_le_bytes()).unwrap();
            tx.commit().unwrap();
        }
        assert_eq!(&db.read_page(7).unwrap()[..4], &10u32.to_le_bytes());
        let batches = db.metrics().counter("group_commit_batches_total").get();
        assert_eq!(
            batches, 10,
            "uncontended zero-window gate: one txn per batch"
        );
        db.crash_and_recover().unwrap();
        assert_eq!(&db.read_page(7).unwrap()[..4], &10u32.to_le_bytes());
    }

    /// The committer that completes a batch executes it: no wake-up of
    /// the member that has waited longest lies between the batch closing
    /// and its force.
    #[test]
    fn the_committer_that_closes_a_batch_executes_it() {
        // A window far longer than the test: the batch closes only when
        // both in-flight committers are queued.
        let db = Database::open(gated(5_000_000));
        let ran_on = Arc::new(Mutex::new(Vec::new()));
        let log = Arc::clone(&ran_on);
        db.shard(0).set_barrier_hook(Arc::new(move || {
            log.lock().push(std::thread::current().id());
        }));
        let start = Instant::now();
        let (first, second, second_id) = commit_first_then_second(&db, [(0, 1), (2, 2)]);
        assert!(
            start.elapsed() < Duration::from_secs(1),
            "a closed batch runs at once (took {:?})",
            start.elapsed()
        );
        first.unwrap();
        second.unwrap();
        assert_eq!(*ran_on.lock(), [second_id], "the closer ran the barrier");
        let metrics = db.metrics();
        assert_eq!(metrics.counter("group_commit_batches_total").get(), 1);
        assert_eq!(metrics.counter("group_commit_txns_total").get(), 2);
    }

    /// A member whose prepare fails gets its own error and its page locks
    /// back; the other member of the same batch commits durably.
    #[test]
    fn a_failed_prepare_fails_only_its_own_member() {
        /// A transient error on the first read of one block.
        struct FailOnce {
            at: PhysLoc,
            armed: AtomicBool,
        }
        impl FaultHook for FailOnce {
            fn on_io(&self, ev: &IoEvent) -> Option<FaultKind> {
                let here = !ev.is_write && ev.disk == self.at.disk && ev.block == self.at.block;
                // ordering: SeqCst — a one-shot test switch.
                (here && self.armed.swap(false, Ordering::SeqCst)).then_some(FaultKind::Transient)
            }
        }

        let db = Database::open(gated(5_000_000));
        // The FORCE flush of page 0 rides group 0's parity, reading the
        // committed twin first: that read fails.
        let at = {
            let e = db.shard(0).engine.lock();
            let g = e.dur.array.geometry().group_of(DataPageId(0));
            let slot = e.committed_slot(g);
            e.dur.array.geometry().parity_loc(g, slot).unwrap()
        };
        db.install_fault_hook(Arc::new(FailOnce {
            at,
            armed: AtomicBool::new(true),
        }));
        let (failed, committed, _) = commit_first_then_second(&db, [(0, 1), (2, 2)]);
        assert!(
            matches!(
                failed,
                Err(DbError::Array(rda_array::ArrayError::Transient { .. }))
            ),
            "{failed:?}"
        );
        committed.unwrap();
        let metrics = db.metrics();
        assert_eq!(metrics.counter("group_commit_batches_total").get(), 1);
        assert_eq!(metrics.counter("group_commit_txns_total").get(), 2);
        // The failed member's lock on page 0 is gone.
        let mut tx = db.begin();
        tx.write(0, &[3]).unwrap();
        tx.commit().unwrap();
        db.crash_and_recover().unwrap();
        assert!(db.audit().is_clean());
        assert_eq!(db.read_page(0).unwrap()[0], 3);
        assert_eq!(db.read_page(2).unwrap()[0], 2);
    }

    /// An executor that unwinds mid-batch (here: a barrier hook that
    /// panics) must not strand the other members: the engine lock does
    /// not poison, the gate steps the dead executor down, and every member
    /// it never finalized is told to run recovery.
    #[test]
    fn followers_wake_when_the_executor_panics() {
        // A window far longer than the test: the batch closes as soon as
        // both in-flight committers are queued.
        let db = Database::open(gated(5_000_000));
        let armed = Arc::new(AtomicBool::new(true));
        let trip = Arc::clone(&armed);
        db.shard(0).set_barrier_hook(Arc::new(move || {
            assert!(
                !trip.swap(false, Ordering::SeqCst),
                "executor dies at the barrier"
            );
        }));
        let both_written = Barrier::new(2);
        let outcomes: Vec<_> = std::thread::scope(|scope| {
            let committers: Vec<_> = (0..2u32)
                .map(|page| {
                    let (db, both_written) = (&db, &both_written);
                    scope.spawn(move || {
                        let mut tx = db.begin();
                        tx.write(page, &[7]).unwrap();
                        both_written.wait();
                        tx.commit().map(|_| ())
                    })
                })
                .collect();
            committers
                .into_iter()
                .map(std::thread::ScopedJoinHandle::join)
                .collect()
        });
        // One thread panicked as executor; the other came back with an error.
        assert_eq!(outcomes.iter().filter(|o| o.is_err()).count(), 1);
        assert!(outcomes
            .iter()
            .any(|o| matches!(o, Ok(Err(DbError::NeedsRecovery)))));
        // The batch was forced before the hook ran: recovery commits both.
        db.crash_and_recover().unwrap();
        assert!(db.audit().is_clean());
        for page in 0..2 {
            assert_eq!(db.read_page(page).unwrap()[0], 7);
        }
        let mut tx = db.begin();
        tx.write(2, &[9]).unwrap();
        tx.commit().unwrap();
    }
}
