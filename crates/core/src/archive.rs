//! Archive-based media recovery — the traditional scheme the paper's
//! introduction argues against (§1: "media recovery is performed by
//! loading the archive copy of the database and [applying] the redo log
//! ... the cost ... is quite high ... redundant disk arrays provide an
//! alternative").
//!
//! Implemented so the comparison can be *measured*: an [`Archive`] is a
//! full dump of every data page (billed reads) plus the log position at
//! dump time; restore rewrites the whole database group by group (billed
//! full-stripe writes) and replays the committed work logged since the
//! dump. Contrast with `media_recover`, which touches only the failed
//! disk's blocks.

use crate::config::LogGranularity;
use crate::engine::Engine;
use crate::error::{DbError, Result};
use rda_array::{BlockDevice, DataPageId, GroupId, Page, ParitySlot};
use rda_wal::{Analysis, Lsn};
use std::collections::BTreeSet;

/// A point-in-time archive copy of the database.
pub struct Archive {
    /// Page images in data-page order.
    pages: Vec<Page>,
    /// Durable log position at dump time; restore replays from here.
    log_pos: Lsn,
}

impl Archive {
    /// Number of archived pages.
    #[must_use]
    pub fn pages(&self) -> u32 {
        self.pages.len() as u32
    }

    /// Log position the archive is consistent with.
    #[must_use]
    pub fn log_position(&self) -> Lsn {
        self.log_pos
    }
}

impl<D: BlockDevice> Engine<D> {
    /// Dump every data page into an archive (requires quiescence so the
    /// dump is transaction-consistent). Bills one read per page, like a
    /// full backup pass would.
    pub(crate) fn archive_dump(&mut self) -> Result<Archive> {
        self.require_quiesced()?;
        // Flush committed buffer contents first so the archive equals the
        // committed state without needing the log.
        for (page, _) in self.buffer.dirty_pages() {
            self.flush_frame(page)?;
        }
        let mut pages = Vec::with_capacity(self.dur.array.data_pages() as usize);
        for p in 0..self.dur.array.data_pages() {
            pages.push(self.read_disk(DataPageId(p))?);
        }
        self.log.force();
        let log_pos = Lsn(self.dur.log_store.len());
        // Restoring this archive replays the log from here: the low-water
        // mark waits at this position until `truncate_log` retires it.
        self.archive_pin = Some(log_pos);
        Ok(Archive { pages, log_pos })
    }

    /// Restore the database from an archive and roll it forward from the
    /// redo log — the §1 baseline whose cost motivates the paper. Bills a
    /// full-database rewrite (full-stripe writes recompute parity as they
    /// go) plus the log replay.
    ///
    /// Returns the number of redo records applied.
    ///
    /// An archive whose log position lies below the log's base cannot be
    /// rolled forward — the commits in between are gone from the log — and
    /// is refused with [`DbError::ArchiveTooOld`] before anything is
    /// written.
    pub(crate) fn archive_restore(&mut self, archive: &Archive) -> Result<u64> {
        self.require_quiesced()?;
        if archive.pages() != self.dur.array.data_pages() {
            return Err(DbError::WrongGranularity(
                "archive shape does not match the database",
            ));
        }
        let log_base = Lsn(self.dur.log_store.base());
        if archive.log_pos < log_base {
            return Err(DbError::ArchiveTooOld {
                archive: archive.log_pos,
                log_base,
            });
        }
        self.buffer.crash(); // cached pages are about to be stale

        // Rewrite every group full-stripe; parity is recomputed, so this
        // also heals any failed-and-replaced disks.
        let slots: Vec<ParitySlot> = if self.is_rda() {
            vec![ParitySlot::P0, ParitySlot::P1]
        } else {
            vec![ParitySlot::P0]
        };
        let now = self.clock + 1;
        self.clock = now;
        for g in 0..self.dur.array.groups() {
            let g = GroupId(g);
            let members = self.dur.array.geometry().members(g);
            let images: Vec<Page> = members
                .iter()
                .map(|m| archive.pages[m.0 as usize].clone())
                .collect();
            if self.is_rda() {
                self.twins.set_committed(g, ParitySlot::P0, now);
            }
            let parities: Vec<_> = slots
                .iter()
                .map(|&s| (s, self.twins.header(g, s)))
                .collect();
            self.unstaged()?.full_group_write(g, &images, &parities)?;
        }

        // Roll forward committed work logged after the dump: one billed
        // scan notes where the redo records are, then each winner's record
        // is applied straight from the log, in log order.
        let store = &self.dur.log_store;
        let analysis = Analysis::run(store, archive.log_pos, Lsn(store.len()));
        let winners: BTreeSet<_> = analysis.winners().into_iter().collect();
        let mut applied = 0u64;
        for (at, txn, page) in &analysis.redo {
            if !winners.contains(txn) {
                continue;
            }
            let old = self.read_disk(*page)?;
            let new = match self.cfg.granularity {
                LogGranularity::Page => self.logged_image(*at)?,
                LogGranularity::Record => {
                    let mut new = old.clone();
                    self.apply_logged_diff(*at, &mut new, false)?;
                    new
                }
            };
            if new != old {
                let g = self.dur.array.geometry().group_of(*page);
                let slots = if self.is_rda() {
                    vec![self.twins.current_slot(g)]
                } else {
                    vec![ParitySlot::P0]
                };
                self.write_with_parity(*page, &new, &old, &slots)?;
                applied += 1;
            }
        }
        Ok(applied)
    }

    fn require_quiesced(&self) -> Result<()> {
        if self.needs_recovery {
            return Err(DbError::NeedsRecovery);
        }
        if !self.active.is_empty() {
            return Err(DbError::ActiveTransactions(self.active.len()));
        }
        Ok(())
    }
}
