//! Fixed-width encoding of [`EventKind`] into three `u64` words, so a
//! ring slot can be filled with plain atomic stores (see
//! [`crate::trace`]). The layout is internal: `pack` and `unpack` are
//! exact inverses, and nothing else reads the words.
//!
//! Word layout:
//!
//! - `w0`: variant tag in bits 0..8, a small per-variant extra
//!   (steal kind, evict flags) in bits 8..16, and the group id (when
//!   the variant has one) in bits 32..64.
//! - `w1`: the page id or disk index.
//! - `w2`: the 64-bit payload — transaction id or block index.

use crate::event::{EventKind, StealKind};

const TAG_STEAL: u64 = 1;
const TAG_COMMIT_TWIN_FLIP: u64 = 2;
const TAG_PARITY_UNDO: u64 = 3;
const TAG_LOG_UNDO: u64 = 4;
const TAG_INTENT_REPLAY: u64 = 5;
const TAG_TORN_TWIN_HEAL: u64 = 6;
const TAG_EVICT: u64 = 7;
const TAG_LOCK_WAIT: u64 = 8;
const TAG_DISK_READ: u64 = 9;
const TAG_DISK_WRITE: u64 = 10;
const TAG_TXN_BEGIN: u64 = 12;
const TAG_LOG_FORCE: u64 = 13;
const TAG_COMMIT_BARRIER: u64 = 14;
const TAG_COMMIT_ACK: u64 = 15;

fn w0(tag: u64, extra: u64, group: u32) -> u64 {
    tag | (extra << 8) | (u64::from(group) << 32)
}

/// Encode an event into its three slot words.
pub(crate) fn pack(kind: EventKind) -> (u64, u64, u64) {
    match kind {
        EventKind::Steal {
            group,
            page,
            txn,
            kind,
        } => {
            let k = match kind {
                StealKind::DirtiesGroup => 0,
                StealKind::RidesExisting => 1,
                StealKind::Logged => 2,
            };
            (w0(TAG_STEAL, k, group), u64::from(page), txn)
        }
        EventKind::CommitTwinFlip { group, txn } => (w0(TAG_COMMIT_TWIN_FLIP, 0, group), 0, txn),
        EventKind::ParityUndo { group, page, txn } => {
            (w0(TAG_PARITY_UNDO, 0, group), u64::from(page), txn)
        }
        EventKind::LogUndo { page, txn } => (TAG_LOG_UNDO, u64::from(page), txn),
        EventKind::IntentReplay { page } => (TAG_INTENT_REPLAY, u64::from(page), 0),
        EventKind::TornTwinHeal { group } => (w0(TAG_TORN_TWIN_HEAL, 0, group), 0, 0),
        EventKind::Evict {
            page,
            steal,
            writeback,
        } => {
            let flags = u64::from(steal) | (u64::from(writeback) << 1);
            (w0(TAG_EVICT, flags, 0), u64::from(page), 0)
        }
        EventKind::LockWait { page, txn } => (TAG_LOCK_WAIT, u64::from(page), txn),
        EventKind::DiskRead { disk, block } => (TAG_DISK_READ, u64::from(disk), block),
        EventKind::DiskWrite { disk, block } => (TAG_DISK_WRITE, u64::from(disk), block),
        EventKind::TxnBegin { txn } => (TAG_TXN_BEGIN, 0, txn),
        EventKind::LogForce { txn } => (TAG_LOG_FORCE, 0, txn),
        EventKind::CommitBarrier { txn } => (TAG_COMMIT_BARRIER, 0, txn),
        EventKind::CommitAck { txn, pages } => (TAG_COMMIT_ACK, u64::from(pages), txn),
    }
}

/// Decode slot words back into the event. `None` for an unknown tag
/// (a slot the ring never published).
pub(crate) fn unpack((w0, w1, w2): (u64, u64, u64)) -> Option<EventKind> {
    let group = (w0 >> 32) as u32;
    let extra = (w0 >> 8) & 0xFF;
    let page = w1 as u32;
    Some(match w0 & 0xFF {
        TAG_STEAL => EventKind::Steal {
            group,
            page,
            txn: w2,
            kind: match extra {
                0 => StealKind::DirtiesGroup,
                1 => StealKind::RidesExisting,
                _ => StealKind::Logged,
            },
        },
        TAG_COMMIT_TWIN_FLIP => EventKind::CommitTwinFlip { group, txn: w2 },
        TAG_PARITY_UNDO => EventKind::ParityUndo {
            group,
            page,
            txn: w2,
        },
        TAG_LOG_UNDO => EventKind::LogUndo { page, txn: w2 },
        TAG_INTENT_REPLAY => EventKind::IntentReplay { page },
        TAG_TORN_TWIN_HEAL => EventKind::TornTwinHeal { group },
        TAG_EVICT => EventKind::Evict {
            page,
            steal: extra & 1 != 0,
            writeback: extra & 2 != 0,
        },
        TAG_LOCK_WAIT => EventKind::LockWait { page, txn: w2 },
        TAG_DISK_READ => EventKind::DiskRead {
            disk: w1 as u16,
            block: w2,
        },
        TAG_DISK_WRITE => EventKind::DiskWrite {
            disk: w1 as u16,
            block: w2,
        },
        TAG_TXN_BEGIN => EventKind::TxnBegin { txn: w2 },
        TAG_LOG_FORCE => EventKind::LogForce { txn: w2 },
        TAG_COMMIT_BARRIER => EventKind::CommitBarrier { txn: w2 },
        TAG_COMMIT_ACK => EventKind::CommitAck {
            txn: w2,
            pages: page,
        },
        _ => return None,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pack_unpack_roundtrips_every_variant() {
        let samples = [
            EventKind::Steal {
                group: 7,
                page: 71,
                txn: 9_000_000_001,
                kind: StealKind::RidesExisting,
            },
            EventKind::Steal {
                group: u32::MAX,
                page: 0,
                txn: u64::MAX,
                kind: StealKind::Logged,
            },
            EventKind::CommitTwinFlip { group: 3, txn: 42 },
            EventKind::ParityUndo {
                group: 1,
                page: 12,
                txn: 5,
            },
            EventKind::LogUndo { page: 8, txn: 6 },
            EventKind::IntentReplay { page: 19 },
            EventKind::TornTwinHeal { group: 2 },
            EventKind::Evict {
                page: 33,
                steal: true,
                writeback: false,
            },
            EventKind::Evict {
                page: 34,
                steal: false,
                writeback: true,
            },
            EventKind::LockWait { page: 4, txn: 77 },
            EventKind::DiskRead {
                disk: u16::MAX,
                block: u64::MAX,
            },
            EventKind::DiskWrite { disk: 0, block: 1 },
            EventKind::TxnBegin { txn: 91 },
            EventKind::LogForce { txn: u64::MAX },
            EventKind::CommitBarrier { txn: 92 },
            EventKind::CommitAck {
                txn: 93,
                pages: u32::MAX,
            },
        ];
        for kind in samples {
            assert_eq!(unpack(pack(kind)), Some(kind), "{kind:?}");
        }
    }

    #[test]
    fn unknown_tag_decodes_to_none() {
        assert_eq!(unpack((0, 0, 0)), None);
        assert_eq!(unpack((0xFF, 1, 2)), None);
    }
}
