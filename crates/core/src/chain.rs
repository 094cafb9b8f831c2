//! The TWIST-style steal chain (paper §4.3).
//!
//! Pages stolen *without* UNDO logging must still be findable after a
//! crash, so the losers' propagated updates can be undone via parity. The
//! paper borrows TWIST's trick: "a technique ... which makes use of a log
//! chain ... pointers ... link together all database pages modified [and
//! written back] ... The head of the chain is written along with the BOT
//! record" — i.e. the chain lives in the *page headers on disk*, updated
//! by the very same page write that steals the page, so it costs **no
//! additional I/O** ("the extra cost ... can be hidden behind ... regular
//! logging").
//!
//! [`ChainDirectory`] models those on-disk headers the same way
//! [`TwinDirectory`](crate::twin::TwinDirectory) models the parity-page
//! headers: a durable side table whose updates always accompany an
//! already-billed page write. Entries are removed at EOT (the header field
//! is dead once the transaction has an outcome in the log; physical
//! reclamation happens lazily on the next steal of the page, which is
//! again a write that is already paid for).

use crate::backend::MetaSink;
use rda_array::DataPageId;
use rda_obs::sync::Mutex;
use rda_wal::TxnId;
use std::collections::{BTreeSet, HashMap};
use std::sync::Arc;

/// Durable registry of parity-riding steals, per transaction.
#[derive(Default)]
pub struct ChainDirectory {
    chains: Mutex<HashMap<TxnId, BTreeSet<DataPageId>>>,
    /// Optional backend journal mirroring every chain mutation, the way a
    /// real chain link travels inside the page write that steals the page.
    sink: Option<Arc<dyn MetaSink>>,
}

impl std::fmt::Debug for ChainDirectory {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ChainDirectory")
            .field("chains", &self.chains)
            .finish_non_exhaustive()
    }
}

impl ChainDirectory {
    /// Empty directory (freshly formatted database).
    #[must_use]
    pub fn new() -> ChainDirectory {
        ChainDirectory::default()
    }

    /// Directory over chains read back from a backend journal, mirroring
    /// future mutations into `sink`.
    #[must_use]
    pub fn restore(entries: &[(u64, Vec<u32>)], sink: Option<Arc<dyn MetaSink>>) -> ChainDirectory {
        let mut chains: HashMap<TxnId, BTreeSet<DataPageId>> = HashMap::new();
        for (txn, pages) in entries {
            let set = chains.entry(TxnId(*txn)).or_default();
            set.extend(pages.iter().map(|p| DataPageId(*p)));
        }
        chains.retain(|_, set| !set.is_empty());
        ChainDirectory {
            chains: Mutex::new(chains),
            sink,
        }
    }

    /// Record that `txn` stole `page` onto the parity. Called as part of
    /// the steal's data-page write (no extra transfer).
    pub fn note_steal(&self, txn: TxnId, page: DataPageId) {
        self.chains.lock().entry(txn).or_default().insert(page);
        if let Some(sink) = &self.sink {
            sink.chain_steal(txn.0, page.0);
        }
    }

    /// The pages `txn` has stolen onto the parity (its chain), in page
    /// order.
    #[must_use]
    pub fn pages_of(&self, txn: TxnId) -> Vec<DataPageId> {
        self.chains
            .lock()
            .get(&txn)
            .map(|s| s.iter().copied().collect())
            .unwrap_or_default()
    }

    /// Does `txn` have any parity-riding steals?
    #[must_use]
    pub fn has_chain(&self, txn: TxnId) -> bool {
        self.chains.lock().contains_key(&txn)
    }

    /// Every transaction with a non-empty chain, in sorted order. The
    /// invariant auditor checks this against the live-transaction table:
    /// a chain entry surviving its transaction's EOT is a leak.
    #[must_use]
    pub fn txns(&self) -> Vec<TxnId> {
        let mut v: Vec<TxnId> = self.chains.lock().keys().copied().collect();
        v.sort();
        v
    }

    /// Drop `txn`'s chain (EOT — the outcome record in the log supersedes
    /// it).
    pub fn clear_txn(&self, txn: TxnId) {
        let existed = self.chains.lock().remove(&txn).is_some();
        if existed {
            if let Some(sink) = &self.sink {
                sink.chain_clear_txn(txn.0);
            }
        }
    }

    /// Remove one page from `txn`'s chain (its undo has completed and the
    /// restored page write carried the header reset).
    pub fn clear_page(&self, txn: TxnId, page: DataPageId) {
        let mut chains = self.chains.lock();
        let mut removed = false;
        if let Some(set) = chains.get_mut(&txn) {
            removed = set.remove(&page);
            if set.is_empty() {
                chains.remove(&txn);
            }
        }
        drop(chains);
        if removed {
            if let Some(sink) = &self.sink {
                sink.chain_clear_page(txn.0, page.0);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const T1: TxnId = TxnId(1);
    const T2: TxnId = TxnId(2);

    #[test]
    fn chains_accumulate_per_txn() {
        let c = ChainDirectory::new();
        assert!(!c.has_chain(T1));
        c.note_steal(T1, DataPageId(5));
        c.note_steal(T1, DataPageId(2));
        c.note_steal(T2, DataPageId(9));
        assert_eq!(c.pages_of(T1), vec![DataPageId(2), DataPageId(5)]);
        assert_eq!(c.pages_of(T2), vec![DataPageId(9)]);
    }

    #[test]
    fn duplicate_steal_is_idempotent() {
        let c = ChainDirectory::new();
        c.note_steal(T1, DataPageId(5));
        c.note_steal(T1, DataPageId(5));
        assert_eq!(c.pages_of(T1).len(), 1);
    }

    #[test]
    fn clear_txn_drops_whole_chain() {
        let c = ChainDirectory::new();
        c.note_steal(T1, DataPageId(5));
        c.note_steal(T2, DataPageId(6));
        c.clear_txn(T1);
        assert!(c.pages_of(T1).is_empty());
        assert!(c.has_chain(T2));
    }

    #[test]
    fn clear_page_trims_and_collapses() {
        let c = ChainDirectory::new();
        c.note_steal(T1, DataPageId(5));
        c.note_steal(T1, DataPageId(6));
        c.clear_page(T1, DataPageId(5));
        assert_eq!(c.pages_of(T1), vec![DataPageId(6)]);
        c.clear_page(T1, DataPageId(6));
        assert!(!c.has_chain(T1));
        // Clearing a non-existent entry is a no-op.
        c.clear_page(T2, DataPageId(1));
    }
}
