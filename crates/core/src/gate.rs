//! Group commit: the commit gate.
//!
//! Concurrent committers each run commit phase 1 (`txn_commit_prepare`:
//! write-backs, REDO records, the commit record itself) under the engine
//! lock, then *enqueue* at the gate instead of forcing the log. Whoever
//! finds the gate leaderless becomes the batch leader: it lingers for a
//! bounded window collecting followers (skipped when no other
//! transaction is in flight — an uncontended leader would only be adding
//! the window to its own ack latency), then takes the engine lock once
//! and retires the whole batch with a single durability barrier + log
//! force (`commit_force_barrier`) followed by per-transaction finalize
//! (twin flips, lock release, ack). One fsync-equivalent acknowledges
//! many transactions.
//!
//! Lock order is strictly gate → engine and the two are never held
//! together: the leader drops the gate lock before touching the engine
//! and re-takes it only to publish results. Correctness of the widened
//! prepare→finalize window rests on the prepared transactions still
//! holding their page locks (isolation) and their commit records being
//! unforced (a crash before the batch's force makes them ordinary losers;
//! nothing has been acknowledged).

use std::collections::HashMap;
use std::sync::{Arc, Condvar, PoisonError};
use std::time::{Duration, Instant};

use rda_array::{BlockDevice, DataPageId};
use rda_obs::sync::Mutex;
use rda_obs::{Counter, Histogram, MetricsRegistry};

use crate::config::GroupCommit;
use crate::engine::Engine;
use crate::error::{DbError, Result};
use rda_wal::TxnId;

/// Batch-size histogram buckets (transactions per barrier).
const BATCH_BOUNDS: [u64; 7] = [1, 2, 4, 8, 16, 32, 64];

/// A transaction parked at the gate: prepared, waiting for a barrier.
type Prepared = (TxnId, Vec<DataPageId>);

#[derive(Default)]
struct GateState {
    /// Prepared transactions awaiting the next batch, in prepare order.
    queue: Vec<Prepared>,
    /// Is some committer currently driving a barrier?
    leader_active: bool,
    /// Finalize outcomes keyed by txn id, collected by their owners.
    results: HashMap<u64, Result<()>>,
}

/// The gate itself: one per `Database`, shared by all its transactions.
pub struct CommitGate {
    cfg: GroupCommit,
    state: Mutex<GateState>,
    cv: Condvar,
    batches: Counter,
    batched_txns: Counter,
    batch_size: Arc<Histogram>,
}

impl CommitGate {
    /// Build a gate and register its metrics
    /// (`group_commit_batches_total`, `group_commit_txns_total`,
    /// `group_commit_batch_size`).
    #[must_use]
    pub fn new(cfg: GroupCommit, metrics: &MetricsRegistry) -> CommitGate {
        CommitGate {
            cfg,
            state: Mutex::new(GateState::default()),
            cv: Condvar::new(),
            batches: metrics.counter("group_commit_batches_total"),
            batched_txns: metrics.counter("group_commit_txns_total"),
            batch_size: metrics.histogram("group_commit_batch_size", &BATCH_BOUNDS),
        }
    }

    /// Commit `txn` through the gate: prepare under the engine lock,
    /// enqueue, then either lead a batch or wait to be retired by one.
    ///
    /// # Errors
    /// Phase-1 errors (lock conflicts, crashed array) surface directly;
    /// a batch-wide force/barrier failure is returned to every member
    /// of the batch.
    pub fn commit<D: BlockDevice>(&self, engine: &Mutex<Engine<D>>, txn: TxnId) -> Result<()> {
        let written = engine.lock().txn_commit_prepare(txn)?;
        {
            let mut st = self.state.lock();
            st.queue.push((txn, written));
            // Wake a window-waiting leader so a full batch closes early.
            self.cv.notify_all();
        }
        loop {
            let mut st = self.state.lock();
            if let Some(r) = st.results.remove(&txn.0) {
                return r;
            }
            if st.leader_active {
                drop(self.cv.wait(st).unwrap_or_else(PoisonError::into_inner));
            } else {
                // Nobody is driving a barrier that could cover us — take
                // over. (Also how stragglers beyond a full batch's
                // max_batch cap get their own leader.)
                st.leader_active = true;
                drop(st);
                self.run_batch(engine);
            }
        }
    }

    /// Drive one batch: linger for followers (bounded window), then one
    /// barrier + per-transaction finalize under a single engine lock
    /// acquisition. Publishes per-transaction results and steps down.
    fn run_batch<D: BlockDevice>(&self, engine: &Mutex<Engine<D>>) {
        // How many committers could plausibly still join this batch?
        // Sampled before touching gate state (gate and engine locks are
        // never held together). Every queued committer is still counted
        // in `active` — prepare does not retire it — so once the queue
        // holds every active transaction there is nobody left to linger
        // for: an uncontended leader forces immediately instead of
        // paying the whole window as pure ack latency.
        let in_flight = engine.lock().active.len();
        let batch: Vec<Prepared> = {
            let mut st = self.state.lock();
            let target = self.cfg.max_batch.min(in_flight);
            if self.cfg.window_micros > 0 && st.queue.len() < target {
                let deadline = Instant::now() + Duration::from_micros(self.cfg.window_micros);
                while st.queue.len() < target {
                    let left = deadline.saturating_duration_since(Instant::now());
                    if left == Duration::ZERO {
                        break;
                    }
                    st = self
                        .cv
                        .wait_timeout(st, left)
                        .unwrap_or_else(PoisonError::into_inner)
                        .0;
                }
            }
            let take = st.queue.len().min(self.cfg.max_batch);
            st.queue.drain(..take).collect()
        };
        let mut done = StepDown {
            gate: self,
            batch,
            results: Vec::new(),
        };
        if !done.batch.is_empty() {
            let ids: Vec<TxnId> = done.batch.iter().map(|(t, _)| *t).collect();
            let mut eng = engine.lock();
            match eng.commit_force_barrier(&ids) {
                Ok(()) => {
                    for (t, written) in &done.batch {
                        done.results.push(eng.txn_commit_finalize(*t, written));
                    }
                }
                // A failed barrier (crash, dead disk) fails the whole
                // batch: no member was acknowledged, all stay unforced
                // losers for recovery.
                Err(e) => done.results.resize(done.batch.len(), Err(e)),
            }
            drop(eng);
            self.batches.inc();
            self.batched_txns.add(done.batch.len() as u64);
            self.batch_size.observe(done.batch.len() as u64);
        }
    }
}

/// Publishes a batch's results and steps the leader down when dropped —
/// also when the leader unwinds mid-batch (a panicking fault hook, a
/// broken internal condition). Members it never reached are told
/// `NeedsRecovery` instead of waiting forever on a leader that is gone.
struct StepDown<'a> {
    gate: &'a CommitGate,
    batch: Vec<Prepared>,
    /// Outcomes in `batch` order; shorter than `batch` only on unwind.
    results: Vec<Result<()>>,
}

impl Drop for StepDown<'_> {
    fn drop(&mut self) {
        let mut st = self.gate.state.lock();
        st.leader_active = false;
        let mut results = std::mem::take(&mut self.results).into_iter();
        for (t, _) in &self.batch {
            let r = results.next().unwrap_or(Err(DbError::NeedsRecovery));
            st.results.insert(t.0, r);
        }
        self.gate.cv.notify_all();
    }
}

#[cfg(test)]
mod tests {
    use crate::{Database, DbConfig, EngineKind, GroupCommit};

    fn gated(window_micros: u64) -> DbConfig {
        DbConfig::small_test(EngineKind::Rda).group_commit(GroupCommit {
            window_micros,
            max_batch: 32,
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
        assert!(db.audit().is_clean());
        // Acked commits survive a crash: the gate forced them.
        db.crash_and_recover().unwrap();
        for t in 0..threads {
            let got = db.read_page(t).unwrap();
            assert_eq!(&got[..4], &per_thread.to_le_bytes());
        }
    }

    #[test]
    fn uncontended_leader_skips_the_linger_window() {
        // A long window must not be paid as ack latency when the leader's
        // own transaction is the only one in flight.
        let db = Database::open(gated(200_000)); // 200 ms window
        let start = std::time::Instant::now();
        for i in 1u32..=3 {
            let mut tx = db.begin();
            tx.write(3, &i.to_le_bytes()).unwrap();
            tx.commit().unwrap();
        }
        assert!(
            start.elapsed() < std::time::Duration::from_millis(200),
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

    /// A leader that unwinds mid-batch (here: a barrier hook that panics)
    /// must not strand its followers: the engine lock does not poison,
    /// the gate steps the dead leader down, and every member it never
    /// finalized is told to run recovery.
    #[test]
    fn followers_wake_when_the_leader_panics() {
        use std::sync::atomic::{AtomicBool, Ordering};
        use std::sync::{Arc, Barrier};

        // A window far longer than the test: the leader closes the batch
        // as soon as both in-flight committers are queued.
        let db = Database::open(gated(5_000_000));
        let armed = Arc::new(AtomicBool::new(true));
        let trip = Arc::clone(&armed);
        db.set_barrier_hook(Arc::new(move || {
            assert!(
                !trip.swap(false, Ordering::SeqCst),
                "leader dies at the barrier"
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
        // One thread panicked as leader; the other came back with an error.
        assert_eq!(outcomes.iter().filter(|o| o.is_err()).count(), 1);
        assert!(outcomes
            .iter()
            .any(|o| matches!(o, Ok(Err(crate::DbError::NeedsRecovery)))));
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
