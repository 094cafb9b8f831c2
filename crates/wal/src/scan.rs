//! Log analysis for restart recovery.
//!
//! After a crash the recovery manager classifies every transaction seen in
//! the durable log (paper §4.3: "Following a system crash we need to
//! identify which transactions have to be backed out and which pages have
//! been modified on disk by those transactions").

use crate::{CheckpointKind, LogRecord, LogStore, Lsn, TxnId};
use rda_array::DataPageId;
use std::collections::BTreeMap;

/// Final state of a transaction as recorded in the durable log.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TxnOutcome {
    /// A durable Commit record exists — a *winner*; its effects must
    /// survive (REDO if necessary).
    Committed,
    /// A durable Abort record exists — already rolled back before the
    /// crash; nothing to do.
    Aborted,
    /// BOT seen but no EOT — a *loser*; its propagated effects must be
    /// undone.
    InFlight,
}

/// Result of the analysis pass over the durable log.
///
/// Images are never copied out of the log here: where undo or redo will
/// need one, the analysis notes the LSN of the record that carries it and
/// the caller fetches it with [`LogStore::with_record`] when (and only if)
/// it installs it.
#[derive(Debug, Default)]
pub struct Analysis {
    /// Outcome per transaction that appears in the log.
    pub outcomes: BTreeMap<TxnId, TxnOutcome>,
    /// Pages with logged UNDO information, per transaction, each with the
    /// LSNs of its `BeforeImage` / `RecordUpdate` records in log order
    /// (the first before-image is the transaction's first-touch state;
    /// record diffs are reverse-applied last to first).
    pub logged_undo: BTreeMap<TxnId, BTreeMap<DataPageId, Vec<Lsn>>>,
    /// LSN of the most recent ACC checkpoint, with the transactions active
    /// at that point. REDO starts here (or at the log start if none).
    pub last_acc_checkpoint: Option<(Lsn, Vec<TxnId>)>,
    /// LSN of the latest compensation record written during (possibly
    /// interrupted) rollback, keyed by (transaction, page). A re-run of
    /// undo applies that image instead of recomputing from parity.
    pub compensations: BTreeMap<(TxnId, DataPageId), Lsn>,
    /// Every REDO-bearing record (`AfterImage`, `RecordRedo`,
    /// `RecordUpdate`) in log order. Whether its transaction won is only
    /// known once the scan ends, so the filter is the caller's.
    pub redo: Vec<(Lsn, TxnId, DataPageId)>,
}

impl Analysis {
    /// Run the analysis pass over records `from..to` of `store` in one
    /// billed, borrowing [`LogStore::scan`].
    #[must_use]
    pub fn run(store: &LogStore, from: Lsn, to: Lsn) -> Analysis {
        let mut out = Analysis::default();
        store.scan(from, to, |lsn, record| out.observe(lsn, record));
        out
    }

    fn observe(&mut self, lsn: Lsn, record: &LogRecord) {
        match record {
            LogRecord::Bot { txn } => {
                self.outcomes.insert(*txn, TxnOutcome::InFlight);
            }
            LogRecord::Commit { txn } => {
                self.outcomes.insert(*txn, TxnOutcome::Committed);
            }
            LogRecord::Abort { txn } => {
                self.outcomes.insert(*txn, TxnOutcome::Aborted);
            }
            LogRecord::BeforeImage { txn, page, .. } => {
                self.seen(*txn);
                self.note_undo(lsn, *txn, *page);
            }
            LogRecord::RecordUpdate { txn, page, .. } => {
                self.seen(*txn);
                self.note_undo(lsn, *txn, *page);
                self.redo.push((lsn, *txn, *page));
            }
            LogRecord::AfterImage { txn, page, .. } | LogRecord::RecordRedo { txn, page, .. } => {
                self.seen(*txn);
                self.redo.push((lsn, *txn, *page));
            }
            LogRecord::Compensation { txn, page, .. } => {
                self.seen(*txn);
                self.compensations.insert((*txn, *page), lsn);
            }
            LogRecord::Checkpoint {
                kind: CheckpointKind::Acc,
                active,
            } => {
                self.last_acc_checkpoint = Some((lsn, active.clone()));
            }
            LogRecord::Checkpoint {
                kind: CheckpointKind::Toc,
                ..
            } => {}
        }
    }

    /// An update can be the first durable trace of its transaction.
    fn seen(&mut self, txn: TxnId) {
        self.outcomes.entry(txn).or_insert(TxnOutcome::InFlight);
    }

    fn note_undo(&mut self, lsn: Lsn, txn: TxnId, page: DataPageId) {
        self.logged_undo
            .entry(txn)
            .or_default()
            .entry(page)
            .or_default()
            .push(lsn);
    }

    /// Transactions that must be rolled back (BOT without EOT).
    #[must_use]
    pub fn losers(&self) -> Vec<TxnId> {
        self.outcomes
            .iter()
            .filter(|(_, o)| **o == TxnOutcome::InFlight)
            .map(|(t, _)| *t)
            .collect()
    }

    /// Transactions whose effects must survive.
    #[must_use]
    pub fn winners(&self) -> Vec<TxnId> {
        self.outcomes
            .iter()
            .filter(|(_, o)| **o == TxnOutcome::Committed)
            .map(|(t, _)| *t)
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn analyze(records: Vec<LogRecord>) -> Analysis {
        let store = LogStore::restore(crate::LogConfig::default(), 0, records, None);
        Analysis::run(&store, Lsn(0), Lsn(store.len()))
    }

    #[test]
    fn classifies_winners_and_losers() {
        let a = analyze(vec![
            LogRecord::Bot { txn: TxnId(1) },
            LogRecord::Bot { txn: TxnId(2) },
            LogRecord::Bot { txn: TxnId(3) },
            LogRecord::Commit { txn: TxnId(1) },
            LogRecord::Abort { txn: TxnId(2) },
        ]);
        assert_eq!(a.winners(), vec![TxnId(1)]);
        assert_eq!(a.losers(), vec![TxnId(3)]);
        assert_eq!(a.outcomes[&TxnId(2)], TxnOutcome::Aborted);
    }

    #[test]
    fn collects_logged_undo() {
        let a = analyze(vec![
            LogRecord::Bot { txn: TxnId(1) },
            LogRecord::Commit { txn: TxnId(2) },
            LogRecord::BeforeImage {
                txn: TxnId(1),
                page: DataPageId(7),
                image: vec![],
            },
        ]);
        assert_eq!(
            a.logged_undo[&TxnId(1)],
            BTreeMap::from([(DataPageId(7), vec![Lsn(2)])])
        );
    }

    #[test]
    fn notes_where_undo_and_redo_images_live() {
        let update = |offset| LogRecord::RecordUpdate {
            txn: TxnId(1),
            page: DataPageId(3),
            offset,
            before: vec![1],
            after: vec![2],
        };
        let comp = |image| LogRecord::Compensation {
            txn: TxnId(2),
            page: DataPageId(9),
            image,
        };
        let a = analyze(vec![
            update(0),
            LogRecord::AfterImage {
                txn: TxnId(2),
                page: DataPageId(5),
                image: vec![7],
            },
            comp(vec![1]),
            update(8),
            comp(vec![2]),
        ]);
        assert_eq!(
            a.logged_undo[&TxnId(1)][&DataPageId(3)],
            vec![Lsn(0), Lsn(3)],
            "record diffs keep log order"
        );
        assert_eq!(
            a.redo,
            vec![
                (Lsn(0), TxnId(1), DataPageId(3)),
                (Lsn(1), TxnId(2), DataPageId(5)),
                (Lsn(3), TxnId(1), DataPageId(3)),
            ]
        );
        assert_eq!(
            a.compensations[&(TxnId(2), DataPageId(9))],
            Lsn(4),
            "the latest compensation wins"
        );
    }

    #[test]
    fn last_acc_checkpoint_wins() {
        let a = analyze(vec![
            LogRecord::Checkpoint {
                kind: CheckpointKind::Acc,
                active: vec![TxnId(1)],
            },
            LogRecord::Bot { txn: TxnId(2) },
            LogRecord::Checkpoint {
                kind: CheckpointKind::Acc,
                active: vec![TxnId(2)],
            },
        ]);
        let (lsn, active) = a.last_acc_checkpoint.unwrap();
        assert_eq!(lsn, Lsn(2));
        assert_eq!(active, vec![TxnId(2)]);
    }

    #[test]
    fn toc_checkpoints_ignored_for_redo_point() {
        let a = analyze(vec![LogRecord::Checkpoint {
            kind: CheckpointKind::Toc,
            active: vec![],
        }]);
        assert!(a.last_acc_checkpoint.is_none());
    }

    #[test]
    fn update_without_bot_still_counts_as_in_flight() {
        // A log that starts mid-transaction: an update with no BOT before
        // it still names a loser.
        let a = analyze(vec![LogRecord::BeforeImage {
            txn: TxnId(5),
            page: DataPageId(1),
            image: vec![],
        }]);
        assert_eq!(a.losers(), vec![TxnId(5)]);
    }
}
