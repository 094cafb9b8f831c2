//! The durable log store.
//!
//! [`LogStore`] is the part of the log that survives a simulated crash. It
//! models `copies` physically duplexed log files written in `page_size`
//! pages, and bills every physical log-page read and write to an
//! [`IoStats`] counter, because the paper's cost model charges log I/O in
//! page transfers (e.g. the `.../l_p` terms of §5.3).

use crate::codec;
use crate::{LogRecord, TxnId};
use rda_array::{IoKind, IoStats};
use rda_obs::sync::Mutex;
use std::collections::VecDeque;
use std::fmt;
use std::sync::Arc;

/// Log sequence number: the index of a record in the durable + volatile
/// record sequence. Dense (no gaps) in this simulated log.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Lsn(pub u64);

impl fmt::Display for Lsn {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "lsn:{}", self.0)
    }
}

/// Log store configuration.
#[derive(Debug, Clone)]
pub struct LogConfig {
    /// Log page size in bytes (the paper's `l_p` = 2020).
    pub page_size: usize,
    /// Number of duplexed log copies (the paper assumes the log is kept on
    /// more than one device; 2 by default).
    pub copies: u32,
    /// Byte-amortized force accounting (group commit): a force that only
    /// extends the current partial tail page costs nothing extra — the
    /// page is billed once, when first touched. This reproduces the §5
    /// model's `bytes / l_p` log-cost assumption; with `false` (default)
    /// every force re-bills the partial tail page, as a synchronous
    /// commit discipline would.
    pub amortized: bool,
}

impl Default for LogConfig {
    fn default() -> LogConfig {
        LogConfig {
            page_size: 2020,
            copies: 2,
            amortized: false,
        }
    }
}

/// A durable mirror of the log stream, for backends with real media.
///
/// The in-memory [`LogStore`] is the model's source of truth for LSNs,
/// billing, and reads; a sink only has to keep an equivalent byte stream
/// on stable storage so a restarted process can rebuild the store via
/// [`LogStore::restore`]. `SimDisk`-backed databases install no sink and
/// behave exactly as before.
///
/// Ordering contract: [`LogSink::append_batch`] + [`LogSink::sync`] are called
/// *synchronously inside* [`LogManager::force`](crate::LogManager::force),
/// before the force returns — so any data-page write enqueued after a
/// force observes the WAL rule on the real medium too.
pub trait LogSink: Send + Sync {
    /// Append a batch of records to the durable mirror, in order.
    fn append_batch(&self, records: &[LogRecord]);

    /// Make everything appended so far stable (fsync or equivalent).
    fn sync(&self);

    /// The store discarded every record below `new_base`; the mirror may
    /// reclaim the space.
    fn truncated(&self, new_base: u64);
}

struct StoreInner {
    /// Durable records with their starting byte offset in the log stream.
    /// Index `i` holds the record with LSN `base + i`. A deque: appends go
    /// to the back, truncation pops the front, and neither moves the
    /// records in between.
    records: VecDeque<(u64, LogRecord)>,
    /// LSN of the first retained record (everything below was truncated).
    base: u64,
    /// Total durable bytes (end offset of the last record).
    bytes: u64,
    /// Highest page index already billed (amortized accounting).
    billed_through: Option<u64>,
}

/// The durable, crash-surviving portion of the write-ahead log.
pub struct LogStore {
    cfg: LogConfig,
    inner: Mutex<StoreInner>,
    stats: Arc<IoStats>,
    sink: Option<Arc<dyn LogSink>>,
}

impl LogStore {
    /// Create an empty store.
    #[must_use]
    pub fn new(cfg: LogConfig) -> Arc<LogStore> {
        LogStore::restore(cfg, 0, Vec::new(), None)
    }

    /// Rebuild a store from records recovered off a real medium after a
    /// restart: `records` are the surviving records starting at LSN
    /// `base`. They are *not* re-appended to `sink` (it already holds
    /// them); byte offsets restart at zero, which only affects page-billing
    /// granularity, not LSNs.
    #[must_use]
    pub fn restore(
        cfg: LogConfig,
        base: u64,
        records: Vec<LogRecord>,
        sink: Option<Arc<dyn LogSink>>,
    ) -> Arc<LogStore> {
        assert!(cfg.page_size > 0, "log page size must be positive");
        assert!(cfg.copies > 0, "log must have at least one copy");
        let mut offset = 0u64;
        let records: VecDeque<(u64, LogRecord)> = records
            .into_iter()
            .map(|r| {
                let at = offset;
                offset += codec::encoded_len(&r) as u64;
                (at, r)
            })
            .collect();
        Arc::new(LogStore {
            cfg,
            inner: Mutex::new(StoreInner {
                records,
                base,
                bytes: offset,
                billed_through: None,
            }),
            stats: Arc::new(IoStats::new()),
            sink,
        })
    }

    /// Configuration.
    #[must_use]
    pub fn config(&self) -> &LogConfig {
        &self.cfg
    }

    /// Transfer counters for log devices.
    #[must_use]
    pub fn stats(&self) -> Arc<IoStats> {
        Arc::clone(&self.stats)
    }

    /// One past the LSN of the last durable record. (Not a count once the
    /// log has been truncated: LSNs are stable forever.)
    #[must_use]
    pub fn len(&self) -> u64 {
        let inner = self.inner.lock();
        inner.base + inner.records.len() as u64
    }

    /// LSN of the oldest retained record.
    #[must_use]
    pub fn base(&self) -> u64 {
        self.inner.lock().base
    }

    /// Discard every record with LSN below `upto` (log truncation after a
    /// checkpoint). LSNs of surviving records are unchanged. Returns the
    /// number of records discarded, which is also what the call costs: the
    /// records that stay are not moved. Bills nothing.
    ///
    /// Safety is the *caller's* contract: nothing below `upto` may still
    /// be needed for undo (active transactions' BOTs), redo (the last
    /// checkpoint), or an archive the caller intends to restore from.
    pub fn truncate_before(&self, upto: Lsn) -> u64 {
        let mut inner = self.inner.lock();
        let cut = upto
            .0
            .clamp(inner.base, inner.base + inner.records.len() as u64);
        let drop_count = (cut - inner.base) as usize;
        inner.records.drain(..drop_count);
        inner.base = cut;
        if drop_count > 0 {
            if let Some(sink) = &self.sink {
                sink.truncated(cut);
            }
        }
        drop_count as u64
    }

    /// Is the durable log empty?
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Total durable log bytes.
    #[must_use]
    pub fn bytes(&self) -> u64 {
        self.inner.lock().bytes
    }

    /// Bytes of the records still retained: [`LogStore::bytes`] less
    /// everything truncation has dropped.
    #[must_use]
    pub fn retained_bytes(&self) -> u64 {
        let inner = self.inner.lock();
        inner.bytes - inner.records.front().map_or(inner.bytes, |(at, _)| *at)
    }

    /// Append a batch of records durably, billing the page writes
    /// (`pages touched × copies`). Called by
    /// [`LogManager::force`](crate::LogManager::force).
    ///
    /// Returns the LSN of the first appended record.
    pub(crate) fn append_durable(&self, batch: Vec<LogRecord>) -> Lsn {
        let mut inner = self.inner.lock();
        let first = Lsn(inner.base + inner.records.len() as u64);
        if batch.is_empty() {
            return first;
        }
        // Mirror to the real medium first (append + sync before the model
        // counts the records durable), still under the store lock so the
        // sink sees batches in LSN order.
        if let Some(sink) = &self.sink {
            sink.append_batch(&batch);
            sink.sync();
        }
        let start = inner.bytes;
        let mut offset = start;
        for record in batch {
            let len = codec::encoded_len(&record) as u64;
            inner.records.push_back((offset, record));
            offset += len;
        }
        inner.bytes = offset;
        let page = self.cfg.page_size as u64;
        let mut first_page = start / page;
        let last_page = (offset - 1) / page;
        if self.cfg.amortized {
            // Group commit: a partial tail page already billed is not
            // billed again.
            if let Some(billed) = inner.billed_through {
                first_page = first_page.max(billed + 1);
            }
            inner.billed_through = Some(last_page.max(inner.billed_through.unwrap_or(0)));
        }
        if last_page >= first_page {
            let pages = last_page - first_page + 1;
            for _ in 0..pages * u64::from(self.cfg.copies) {
                self.stats.record(IoKind::Write);
            }
        }
        first
    }

    /// Visit records `from..to` (LSN half-open range) in log order without
    /// copying them, billing the log-page reads spanned by the range (one
    /// copy only — recovery reads a single replica). Out-of-range bounds
    /// are clamped.
    ///
    /// The store is locked for the duration: `visit` must not call back
    /// into it.
    pub fn scan(&self, from: Lsn, to: Lsn, mut visit: impl FnMut(Lsn, &LogRecord)) {
        let inner = self.inner.lock();
        let n = inner.records.len() as u64;
        let end = inner.base + n;
        let from_lsn = from.0.clamp(inner.base, end);
        let to_lsn = to.0.clamp(inner.base, end);
        if from_lsn >= to_lsn {
            return;
        }
        let from_idx = (from_lsn - inner.base) as usize;
        let to_idx = (to_lsn - inner.base) as usize;
        let start_byte = inner.records[from_idx].0;
        let end_byte = if to_lsn == end {
            inner.bytes
        } else {
            inner.records[to_idx].0
        };
        let page = self.cfg.page_size as u64;
        if end_byte > start_byte {
            let pages = (end_byte - 1) / page - start_byte / page + 1;
            for _ in 0..pages {
                self.stats.record(IoKind::Read);
            }
        }
        for (i, (_, record)) in inner.records.range(from_idx..to_idx).enumerate() {
            visit(Lsn(from_lsn + i as u64), record);
        }
    }

    /// Look at one retained record without billing any I/O: for a record
    /// a billed [`LogStore::scan`] already passed over (recovery installs
    /// images by the LSNs its analysis noted), and for tests. `None` when
    /// `lsn` was truncated away or is not durable yet.
    ///
    /// The store is locked for the duration: `look` must not call back
    /// into it.
    pub fn with_record<R>(&self, lsn: Lsn, look: impl FnOnce(&LogRecord) -> R) -> Option<R> {
        let inner = self.inner.lock();
        let idx = usize::try_from(lsn.0.checked_sub(inner.base)?).ok()?;
        inner.records.get(idx).map(|(_, record)| look(record))
    }

    /// LSN of the most recent durable record matching `pred`, if any.
    /// Unbilled (used for cheap positioning; the subsequent ranged read
    /// pays for the I/O).
    #[must_use]
    pub fn rfind(&self, pred: impl Fn(&LogRecord) -> bool) -> Option<Lsn> {
        let inner = self.inner.lock();
        inner
            .records
            .iter()
            .enumerate()
            .rev()
            .find(|(_, (_, r))| pred(r))
            .map(|(i, _)| Lsn(inner.base + i as u64))
    }

    /// LSN of the most recent durable `Bot` record of `txn`.
    #[must_use]
    pub fn find_bot(&self, txn: TxnId) -> Option<Lsn> {
        self.rfind(|r| matches!(r, LogRecord::Bot { txn: t } if *t == txn))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rda_array::DataPageId;

    /// A billed scan of `from..to`, cloned out for assertions.
    fn scanned(s: &LogStore, from: u64, to: u64) -> Vec<(Lsn, LogRecord)> {
        let mut out = Vec::new();
        s.scan(Lsn(from), Lsn(to), |lsn, r| out.push((lsn, r.clone())));
        out
    }

    fn store(page_size: usize, copies: u32) -> Arc<LogStore> {
        LogStore::new(LogConfig {
            page_size,
            copies,
            amortized: false,
        })
    }

    #[test]
    fn append_assigns_dense_lsns() {
        let s = store(64, 1);
        let l0 = s.append_durable(vec![LogRecord::Bot { txn: TxnId(1) }]);
        let l1 = s.append_durable(vec![
            LogRecord::Commit { txn: TxnId(1) },
            LogRecord::Bot { txn: TxnId(2) },
        ]);
        assert_eq!(l0, Lsn(0));
        assert_eq!(l1, Lsn(1));
        assert_eq!(s.len(), 3);
    }

    #[test]
    fn small_batch_costs_one_page_per_copy() {
        let s = store(1024, 2);
        s.append_durable(vec![LogRecord::Bot { txn: TxnId(1) }]);
        assert_eq!(s.stats().writes(), 2, "1 page × 2 copies");
    }

    #[test]
    fn big_batch_spans_pages() {
        let s = store(100, 1);
        // Each image record is ~117 bytes (1+8+4+4+100): two of them span
        // 3 pages (bytes 0..234).
        s.append_durable(vec![
            LogRecord::AfterImage {
                txn: TxnId(1),
                page: DataPageId(0),
                image: vec![0; 100],
            },
            LogRecord::AfterImage {
                txn: TxnId(1),
                page: DataPageId(1),
                image: vec![0; 100],
            },
        ]);
        assert_eq!(s.stats().writes(), 3);
    }

    #[test]
    fn amortized_mode_bills_partial_tail_once() {
        let s = LogStore::new(LogConfig {
            page_size: 1024,
            copies: 1,
            amortized: true,
        });
        s.append_durable(vec![LogRecord::Bot { txn: TxnId(1) }]);
        assert_eq!(s.stats().writes(), 1, "first touch of page 0");
        s.append_durable(vec![LogRecord::Commit { txn: TxnId(1) }]);
        assert_eq!(s.stats().writes(), 1, "page 0 not re-billed");
        // Fill past the page boundary: only the new page is billed.
        s.append_durable(vec![LogRecord::AfterImage {
            txn: TxnId(2),
            page: DataPageId(0),
            image: vec![0; 1100],
        }]);
        assert_eq!(s.stats().writes(), 2);
    }

    #[test]
    fn partial_page_rewritten_on_next_force() {
        let s = store(1024, 1);
        s.append_durable(vec![LogRecord::Bot { txn: TxnId(1) }]);
        s.append_durable(vec![LogRecord::Commit { txn: TxnId(1) }]);
        // Both batches land in page 0 → it is written twice.
        assert_eq!(s.stats().writes(), 2);
    }

    #[test]
    fn scan_clamps_and_bills() {
        let s = store(1024, 1);
        s.append_durable(vec![
            LogRecord::Bot { txn: TxnId(1) },
            LogRecord::Commit { txn: TxnId(1) },
        ]);
        let w = s.stats().writes();
        let records = scanned(&s, 0, 100);
        assert_eq!(records.len(), 2);
        assert_eq!(records[0].0, Lsn(0));
        assert_eq!(s.stats().reads(), 1, "both records in one log page");
        assert_eq!(s.stats().writes(), w, "reads must not bill writes");
        assert!(scanned(&s, 5, 2).is_empty());
        assert_eq!(s.stats().reads(), 1, "an empty range reads nothing");
    }

    #[test]
    fn scan_bills_the_pages_the_range_spans() {
        let s = store(100, 1);
        // Three ~117-byte image records: bytes 0..351, log pages 0..=3.
        s.append_durable(
            (0..3)
                .map(|p| LogRecord::AfterImage {
                    txn: TxnId(1),
                    page: DataPageId(p),
                    image: vec![0; 100],
                })
                .collect(),
        );
        assert_eq!(scanned(&s, 0, 3).len(), 3);
        assert_eq!(s.stats().reads(), 4, "whole log: pages 0..=3");
        // The middle record alone sits in bytes 117..234: pages 1..=2.
        assert_eq!(scanned(&s, 1, 2).len(), 1);
        assert_eq!(s.stats().reads(), 6);
    }

    #[test]
    fn with_record_is_free_and_bounded() {
        let s = store(1024, 1);
        s.append_durable(vec![
            LogRecord::Bot { txn: TxnId(1) },
            LogRecord::Commit { txn: TxnId(1) },
        ]);
        s.truncate_before(Lsn(1));
        assert_eq!(s.with_record(Lsn(1), LogRecord::txn), Some(Some(TxnId(1))));
        assert_eq!(s.with_record(Lsn(0), |_| ()), None, "truncated away");
        assert_eq!(s.with_record(Lsn(2), |_| ()), None, "not durable yet");
        assert_eq!(s.stats().reads(), 0);
    }

    #[test]
    fn find_bot_locates_latest() {
        let s = store(1024, 1);
        s.append_durable(vec![
            LogRecord::Bot { txn: TxnId(1) },
            LogRecord::Bot { txn: TxnId(2) },
            LogRecord::Commit { txn: TxnId(1) },
        ]);
        assert_eq!(s.find_bot(TxnId(2)), Some(Lsn(1)));
        assert_eq!(s.find_bot(TxnId(9)), None);
    }

    #[test]
    fn truncation_keeps_lsns_stable() {
        let s = store(1024, 1);
        s.append_durable(vec![
            LogRecord::Bot { txn: TxnId(1) },
            LogRecord::Commit { txn: TxnId(1) },
            LogRecord::Bot { txn: TxnId(2) },
            LogRecord::Commit { txn: TxnId(2) },
        ]);
        let dropped = s.truncate_before(Lsn(2));
        assert_eq!(dropped, 2);
        assert_eq!(s.base(), 2);
        assert_eq!(s.len(), 4, "len is one-past-last-LSN, not a count");
        // Surviving records keep their LSNs.
        let all = scanned(&s, s.base(), s.len());
        assert_eq!(all[0].0, Lsn(2));
        assert_eq!(all[0].1, LogRecord::Bot { txn: TxnId(2) });
        // Reads below the base are clamped away.
        assert!(scanned(&s, 0, 2).is_empty());
        // rfind returns absolute LSNs.
        assert_eq!(s.find_bot(TxnId(2)), Some(Lsn(2)));
        assert_eq!(s.find_bot(TxnId(1)), None, "truncated records are gone");
        // Appends continue the LSN sequence.
        let next = s.append_durable(vec![LogRecord::Bot { txn: TxnId(3) }]);
        assert_eq!(next, Lsn(4));
        // Truncating past the end clears everything, idempotently.
        assert_eq!(s.truncate_before(Lsn(100)), 3);
        assert_eq!(s.truncate_before(Lsn(100)), 0);
        assert_eq!(s.base(), 5);
    }

    #[test]
    fn retained_bytes_follow_the_base() {
        let s = store(1024, 1);
        assert_eq!(s.retained_bytes(), 0);
        s.append_durable(vec![
            LogRecord::Bot { txn: TxnId(1) },
            LogRecord::AfterImage {
                txn: TxnId(1),
                page: DataPageId(0),
                image: vec![0; 100],
            },
            LogRecord::Commit { txn: TxnId(1) },
        ]);
        let (bot, commit) = (9, 9);
        assert_eq!(s.retained_bytes(), s.bytes());
        s.truncate_before(Lsn(1));
        assert_eq!(s.retained_bytes(), s.bytes() - bot);
        s.truncate_before(Lsn(2));
        assert_eq!(s.retained_bytes(), commit);
        let writes = s.stats().writes();
        s.truncate_before(Lsn(3));
        assert_eq!(
            s.retained_bytes(),
            0,
            "nothing retained, bytes keep counting"
        );
        assert_eq!(s.bytes(), bot + 117 + commit);
        assert_eq!(
            (s.stats().reads(), s.stats().writes()),
            (0, writes),
            "truncation bills nothing"
        );
        // The survivors of a cut in the middle scan as before.
        s.append_durable(vec![LogRecord::Bot { txn: TxnId(2) }]);
        assert_eq!(
            scanned(&s, 0, 9),
            vec![(Lsn(3), LogRecord::Bot { txn: TxnId(2) })]
        );
        assert_eq!(s.retained_bytes(), bot);
    }

    #[test]
    fn empty_batch_is_noop() {
        let s = store(64, 2);
        s.append_durable(vec![]);
        assert_eq!(s.stats().writes(), 0);
        assert!(s.is_empty());
    }
}
