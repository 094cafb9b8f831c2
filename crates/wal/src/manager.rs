//! The volatile log writer.

use crate::{LogRecord, LogStore, Lsn};
use rda_obs::sync::Mutex;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Force-coalescing tally: how many durable forces this writer has
/// issued and how many records they covered. `records / forces` is the
/// batching ratio — under group commit one force acknowledges the log
/// tails of many transactions at once.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ForceStats {
    /// Forces that actually made records durable (empty forces are free
    /// and not counted).
    pub forces: u64,
    /// Records those forces covered, in total.
    pub records: u64,
}

/// The volatile front end of the write-ahead log.
///
/// Records appended here live in a memory buffer until [`LogManager::force`]
/// makes them durable in the shared [`LogStore`]; [`LogManager::crash`]
/// discards them, exactly as a power failure would. The write-ahead
/// protocol obligations (force before steal, force at commit) are enforced
/// by the recovery manager in `rda-core`, not here.
pub struct LogManager {
    store: Arc<LogStore>,
    volatile: Mutex<Vec<LogRecord>>,
    forces: AtomicU64,
    records_forced: AtomicU64,
}

impl LogManager {
    /// Attach a writer to a (possibly pre-existing) durable store.
    #[must_use]
    pub fn new(store: Arc<LogStore>) -> LogManager {
        LogManager {
            store,
            volatile: Mutex::new(Vec::new()),
            forces: AtomicU64::new(0),
            records_forced: AtomicU64::new(0),
        }
    }

    /// The durable store behind this writer.
    #[must_use]
    pub fn store(&self) -> &Arc<LogStore> {
        &self.store
    }

    /// Append a record to the volatile tail, returning its (tentative)
    /// LSN. The LSN becomes stable once the record is forced; a crash
    /// before then discards it.
    pub fn append(&self, record: LogRecord) -> Lsn {
        let mut v = self.volatile.lock();
        let lsn = Lsn(self.store.len() + v.len() as u64);
        v.push(record);
        lsn
    }

    /// Force the volatile tail to the durable store, billing the log-page
    /// writes. Returns the LSN one past the last durable record.
    pub fn force(&self) -> Lsn {
        let batch = std::mem::take(&mut *self.volatile.lock());
        if !batch.is_empty() {
            // ordering: independent monotonic tallies; readers only want
            // eventually-consistent totals, so Relaxed suffices.
            self.forces.fetch_add(1, Ordering::Relaxed);
            let n = batch.len() as u64;
            // ordering: Relaxed — same contract as `forces` above.
            self.records_forced.fetch_add(n, Ordering::Relaxed);
        }
        self.store.append_durable(batch);
        Lsn(self.store.len())
    }

    /// The force-coalescing tally so far.
    #[must_use]
    pub fn force_stats(&self) -> ForceStats {
        ForceStats {
            // ordering: Relaxed — same counters as above, read side.
            forces: self.forces.load(Ordering::Relaxed),
            // ordering: Relaxed — read side of the tally pair.
            records: self.records_forced.load(Ordering::Relaxed),
        }
    }

    /// Number of unforced records.
    #[must_use]
    pub fn unforced(&self) -> usize {
        self.volatile.lock().len()
    }

    /// Simulate a crash: every unforced record is lost.
    pub fn crash(&self) {
        self.volatile.lock().clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{LogConfig, TxnId};

    #[test]
    fn force_makes_durable() {
        let store = LogStore::new(LogConfig::default());
        let log = LogManager::new(Arc::clone(&store));
        let lsn = log.append(LogRecord::Bot { txn: TxnId(1) });
        assert_eq!(lsn, Lsn(0));
        assert_eq!(store.len(), 0, "not durable before force");
        assert_eq!(log.unforced(), 1);
        let end = log.force();
        assert_eq!(end, Lsn(1));
        assert_eq!(store.len(), 1);
        assert_eq!(log.unforced(), 0);
    }

    #[test]
    fn crash_discards_unforced_only() {
        let store = LogStore::new(LogConfig::default());
        let log = LogManager::new(Arc::clone(&store));
        log.append(LogRecord::Bot { txn: TxnId(1) });
        log.force();
        log.append(LogRecord::Commit { txn: TxnId(1) });
        log.crash();
        assert_eq!(store.len(), 1, "durable records survive");
        assert_eq!(log.unforced(), 0);
        // The store can be re-attached by a new manager after the crash.
        let log2 = LogManager::new(Arc::clone(&store));
        assert_eq!(log2.append(LogRecord::Bot { txn: TxnId(2) }), Lsn(1));
    }

    #[test]
    fn lsns_are_consistent_across_forces() {
        let store = LogStore::new(LogConfig::default());
        let log = LogManager::new(Arc::clone(&store));
        assert_eq!(log.append(LogRecord::Bot { txn: TxnId(1) }), Lsn(0));
        log.force();
        assert_eq!(log.append(LogRecord::Commit { txn: TxnId(1) }), Lsn(1));
        assert_eq!(log.append(LogRecord::Bot { txn: TxnId(2) }), Lsn(2));
        log.force();
        assert_eq!(store.len(), 3);
        assert_eq!(
            store.with_record(Lsn(2), Clone::clone),
            Some(LogRecord::Bot { txn: TxnId(2) })
        );
    }

    #[test]
    fn force_with_nothing_pending_is_cheap() {
        let store = LogStore::new(LogConfig::default());
        let log = LogManager::new(Arc::clone(&store));
        log.force();
        assert_eq!(store.stats().writes(), 0);
        assert_eq!(
            log.force_stats(),
            ForceStats::default(),
            "empty force is not a force"
        );
    }

    #[test]
    fn one_force_covers_a_whole_batch() {
        let store = LogStore::new(LogConfig::default());
        let log = LogManager::new(Arc::clone(&store));
        for t in 1..=5 {
            log.append(LogRecord::Bot { txn: TxnId(t) });
        }
        log.force();
        let stats = log.force_stats();
        assert_eq!(stats.forces, 1, "five appends coalesce into one force");
        assert_eq!(stats.records, 5);
        log.append(LogRecord::Commit { txn: TxnId(1) });
        log.force();
        assert_eq!(
            log.force_stats(),
            ForceStats {
                forces: 2,
                records: 6
            }
        );
    }
}
