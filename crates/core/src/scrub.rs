//! Patrol scrubbing: find and repair latent sector errors before a disk
//! failure turns them into data loss.
//!
//! A parity array survives one *whole-disk* failure per group — but only
//! if the surviving blocks are readable. A latent sector error discovered
//! during a rebuild is exactly the double failure the MTTDL model fears
//! (see `rda-model::reliability`). Production arrays therefore patrol:
//! periodically read everything and repair bad sectors from parity. The
//! paper presumes healthy redundancy; this module keeps the simulated
//! array in that state and is exercised by the fault-injection tests.

use crate::engine::Engine;
use crate::error::{DbError, Result};
use rda_array::{ArrayError, BlockDevice, GroupId};
use rda_obs::EventKind;

/// Outcome of one scrub pass.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ScrubReport {
    /// Data pages read.
    pub pages_scanned: u64,
    /// Data pages whose sector was unreadable and was reconstructed from
    /// parity and rewritten.
    pub data_repaired: u64,
    /// Parity pages re-written because their sector was unreadable.
    pub parity_repaired: u64,
    /// Parity pages whose contents disagreed with the group XOR and were
    /// corrected (should be zero unless something corrupted the array
    /// out-of-band).
    pub parity_corrected: u64,
}

impl<D: BlockDevice> Engine<D> {
    /// Scrub every group: read all data pages (repairing unreadable
    /// sectors via XOR reconstruction) and verify/repair the committed
    /// parity. Requires quiescence so every group is clean and the
    /// committed twin is the ground truth.
    ///
    /// # Errors
    /// [`DbError::ActiveTransactions`] while transactions run;
    /// [`DbError::Array`] if a group has more than one unreadable member
    /// (scrubbing cannot beat a double failure).
    pub(crate) fn scrub_repair(&mut self) -> Result<ScrubReport> {
        if self.needs_recovery {
            return Err(DbError::NeedsRecovery);
        }
        if !self.active.is_empty() {
            return Err(DbError::ActiveTransactions(self.active.len()));
        }
        let mut report = ScrubReport::default();
        // Two scratch pages reused across the whole patrol pass: one for
        // probing data members, one for recomputed parity. The per-page
        // loop below allocates nothing.
        let mut probe = self.dur.array.blank_page();
        let mut expect = self.dur.array.blank_page();
        for g in 0..self.dur.array.groups() {
            let g = GroupId(g);
            let committed = self.committed_slot(g);

            // Pass 1: data members.
            for member in self.dur.array.geometry().members(g) {
                report.pages_scanned += 1;
                match self.dur.array.try_read_data_into(member, &mut probe) {
                    Err(ArrayError::MediaError { .. } | ArrayError::TornPage { .. }) => {
                        let repaired = self.dur.array.reconstruct_data(member, committed)?;
                        self.unstaged()?.write_data_unprotected(member, &repaired)?;
                        report.data_repaired += 1;
                    }
                    // A readable page needs nothing; a whole failed disk is
                    // media recovery's job, not the scrubber's.
                    Ok(()) | Err(ArrayError::DiskFailed(_)) => {}
                    Err(e) => return Err(e.into()),
                }
            }

            // Pass 2: the committed parity page itself. With a member
            // disk down the group XOR cannot be recomputed — that group
            // waits for media recovery.
            match self.dur.array.read_parity(g, committed) {
                Ok(parity) => match self.dur.array.compute_group_parity_into(g, &mut expect) {
                    Ok(()) => {
                        if parity != expect {
                            self.unstaged()?.write_parity(g, committed, &expect)?;
                            report.parity_corrected += 1;
                        }
                    }
                    Err(ArrayError::Unrecoverable(_)) => {}
                    Err(e) => return Err(e.into()),
                },
                Err(e @ (ArrayError::MediaError { .. } | ArrayError::TornPage { .. })) => {
                    match self.dur.array.compute_group_parity_into(g, &mut expect) {
                        Ok(()) => {
                            self.unstaged()?.write_parity(g, committed, &expect)?;
                            report.parity_repaired += 1;
                            if matches!(e, ArrayError::TornPage { .. }) {
                                self.obs
                                    .tracer
                                    .emit(|| EventKind::TornTwinHeal { group: g.0 });
                            }
                        }
                        Err(ArrayError::Unrecoverable(_)) => {}
                        Err(e) => return Err(e.into()),
                    }
                }
                Err(ArrayError::DiskFailed(_)) => {}
                Err(e) => return Err(e.into()),
            }
        }
        self.paranoid_audit("scrub_repair");
        Ok(report)
    }
}
