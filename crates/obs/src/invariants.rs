//! Trace-replay protocol invariants.
//!
//! The event stream is a witness of the paper's steal/commit protocol
//! (§4.1): every zero-I/O commit twin flip must have been paid for by an
//! earlier parity-riding steal, a group never carries two uncommitted
//! parity riders at once, and a parity UNDO only ever compensates a group
//! that actually had a rider. These checkers replay a captured event
//! stream against those rules and return human-readable violations —
//! shared by the core trace tests and the `rda-check` differential
//! checker, so both enforce the same protocol reading.
//!
//! Crashes complicate the replay: a machine stop between a steal's claim
//! (the working twin's header naming the rider, durable before the
//! steal's first write) and its `Steal` event emission (volatile,
//! emitted after the steal completes) produces a restart
//! `ParityUndo` with no matching `Steal` in the trace. That is the
//! protocol working exactly as designed, not a violation — but *only*
//! while restart recovery runs. [`protocol_violations_windowed`] takes
//! the sequence-number windows the caller knows recovery occupied and
//! relaxes the rider-matching rule inside them alone; outside every
//! window the strict rules apply.

use crate::event::{EventKind, StealKind, TraceEvent};
use std::collections::BTreeMap;

/// Replay `events` against the Dirty_Set protocol rules with no crash
/// tolerance: suitable for traces captured from a run that never crashed
/// (or whose crashes the caller did not record). Returns one message per
/// violation; empty means the trace is a faithful protocol witness.
#[must_use]
pub fn protocol_violations(events: &[TraceEvent]) -> Vec<String> {
    protocol_violations_windowed(events, &[])
}

/// Replay `events` against the Dirty_Set protocol rules, treating each
/// `(start, end)` inclusive *sequence-number* window in `recovery` as a
/// restart-recovery span: inside a window, an undo may legitimately
/// compensate a steal whose own event was lost to the crash.
///
/// Rules enforced:
/// - a `DirtiesGroup` steal must find its group rider-free;
/// - a `RidesExisting` steal must match the group's in-flight rider;
/// - a `CommitTwinFlip` must consume a matching rider (the flip is only
///   sound if the working parity was built by that transaction's steals),
///   and so must a `Relogged` steal (a disk death ended the ride);
/// - a `ParityUndo` must consume a matching rider, except inside a
///   recovery window where the rider's `Steal` event may predate the
///   trace (crash between the claim and the event emission);
/// - inside a recovery window, a `LogUndo` of a rider's own page and
///   transaction ends its ride: a disk death had the ride logged, and
///   the crash came before its `Relogged` event;
/// - at the end of the stream, no rider may remain in flight.
#[must_use]
pub fn protocol_violations_windowed(events: &[TraceEvent], recovery: &[(u64, u64)]) -> Vec<String> {
    let mut violations = Vec::new();
    // Group -> the transaction currently riding its working parity, and
    // the page its `DirtiesGroup` steal put on it.
    let mut in_flight: BTreeMap<u32, (u64, u32)> = BTreeMap::new();
    for ev in events {
        let in_recovery = recovery.iter().any(|&(a, b)| ev.seq >= a && ev.seq <= b);
        match ev.kind {
            EventKind::Steal {
                group,
                page,
                txn,
                kind,
            } => match kind {
                StealKind::DirtiesGroup => {
                    if let Some(&(rider, _)) = in_flight.get(&group) {
                        violations.push(format!(
                            "two in-flight parity steals in group {group}: txn {txn} \
                             joined while txn {rider} still rides ({ev})"
                        ));
                    }
                    in_flight.insert(group, (txn, page));
                }
                StealKind::RidesExisting => {
                    if rider_of(&in_flight, group) != Some(txn) {
                        violations.push(format!(
                            "riding steal without a matching in-flight entry: {ev}"
                        ));
                    }
                }
                StealKind::Logged => {}
                StealKind::Relogged => {
                    if in_flight.remove(&group).map(|(rider, _)| rider) != Some(txn) {
                        violations.push(format!("relogged steal without a matching rider: {ev}"));
                    }
                }
            },
            EventKind::CommitTwinFlip { group, txn }
                if in_flight.remove(&group).map(|(rider, _)| rider) != Some(txn) =>
            {
                violations.push(format!(
                    "CommitTwinFlip without a preceding matching Steal: {ev}"
                ));
            }
            EventKind::ParityUndo { group, txn, .. } => {
                match rider_of(&in_flight, group) {
                    Some(rider) if rider == txn => {
                        in_flight.remove(&group);
                    }
                    // Restart compensation for a steal interrupted between
                    // its durable claim and its volatile event.
                    _ if in_recovery => {}
                    other => {
                        violations.push(format!(
                            "ParityUndo on group {group} with no matching rider \
                             (in flight: {other:?}): {ev}"
                        ));
                    }
                }
            }
            EventKind::LogUndo { page, txn } if in_recovery => {
                in_flight.retain(|_, &mut ride| ride != (txn, page));
            }
            _ => {}
        }
    }
    for (group, (txn, _)) in in_flight {
        violations.push(format!(
            "parity rider left unresolved at end of trace: group {group} txn {txn}"
        ));
    }
    violations
}

/// The transaction riding `group`'s working parity, if any.
fn rider_of(in_flight: &BTreeMap<u32, (u64, u32)>, group: u32) -> Option<u64> {
    in_flight.get(&group).map(|&(rider, _)| rider)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(seq: u64, kind: EventKind) -> TraceEvent {
        TraceEvent { at: seq, seq, kind }
    }

    fn steal(seq: u64, group: u32, txn: u64, kind: StealKind) -> TraceEvent {
        ev(
            seq,
            EventKind::Steal {
                group,
                page: group * 4,
                txn,
                kind,
            },
        )
    }

    #[test]
    fn clean_steal_commit_sequence_passes() {
        let events = [
            steal(1, 0, 7, StealKind::DirtiesGroup),
            steal(2, 0, 7, StealKind::RidesExisting),
            ev(3, EventKind::CommitTwinFlip { group: 0, txn: 7 }),
        ];
        assert!(protocol_violations(&events).is_empty());
    }

    #[test]
    fn double_rider_flags() {
        let events = [
            steal(1, 0, 7, StealKind::DirtiesGroup),
            steal(2, 0, 8, StealKind::DirtiesGroup),
        ];
        let v = protocol_violations(&events);
        assert!(
            v.iter().any(|m| m.contains("two in-flight parity steals")),
            "{v:?}"
        );
    }

    #[test]
    fn flip_without_steal_flags() {
        let events = [ev(1, EventKind::CommitTwinFlip { group: 3, txn: 9 })];
        let v = protocol_violations(&events);
        assert!(
            v.iter().any(|m| m.contains("CommitTwinFlip without")),
            "{v:?}"
        );
    }

    #[test]
    fn unresolved_rider_flags() {
        let events = [steal(1, 2, 5, StealKind::DirtiesGroup)];
        let v = protocol_violations(&events);
        assert!(v.iter().any(|m| m.contains("unresolved")), "{v:?}");
    }

    #[test]
    fn parity_undo_resolves_rider() {
        let events = [
            steal(1, 2, 5, StealKind::DirtiesGroup),
            ev(
                2,
                EventKind::ParityUndo {
                    group: 2,
                    page: 8,
                    txn: 5,
                },
            ),
        ];
        assert!(protocol_violations(&events).is_empty());
    }

    #[test]
    fn orphan_parity_undo_flags_outside_windows_only() {
        let orphan = [ev(
            4,
            EventKind::ParityUndo {
                group: 1,
                page: 4,
                txn: 9,
            },
        )];
        let strict = protocol_violations(&orphan);
        assert!(
            strict.iter().any(|m| m.contains("no matching rider")),
            "{strict:?}"
        );
        // Inside a recovery window the same undo is the restart
        // compensating an interrupted steal.
        assert!(protocol_violations_windowed(&orphan, &[(3, 6)]).is_empty());
        // A window elsewhere does not excuse it.
        let v = protocol_violations_windowed(&orphan, &[(10, 20)]);
        assert!(!v.is_empty());
    }

    #[test]
    fn rider_consumed_by_windowed_undo_even_in_recovery() {
        // A rider whose steal event *did* land is still matched (and
        // consumed) when the undo falls inside a recovery window.
        let events = [
            steal(1, 2, 5, StealKind::DirtiesGroup),
            ev(
                7,
                EventKind::ParityUndo {
                    group: 2,
                    page: 8,
                    txn: 5,
                },
            ),
        ];
        assert!(protocol_violations_windowed(&events, &[(6, 9)]).is_empty());
    }

    #[test]
    fn recovery_log_undo_of_the_rider_ends_its_ride() {
        // A disk death had the ride logged; the crash came before the
        // `Relogged` event, so restart undoes the page from the log.
        let undo = |seq, page, txn| ev(seq, EventKind::LogUndo { page, txn });
        let ride = steal(1, 2, 5, StealKind::DirtiesGroup);
        // `steal` puts page 8 on group 2.
        assert!(protocol_violations_windowed(&[ride, undo(7, 8, 5)], &[(6, 9)]).is_empty());
        // Outside a recovery window a logged undo is an abort's, and the
        // ride is still owed its own resolution.
        let v = protocol_violations_windowed(&[ride, undo(7, 8, 5)], &[(10, 20)]);
        assert!(v.iter().any(|m| m.contains("unresolved")), "{v:?}");
        // Another page, or another transaction, leaves the ride open.
        for (page, txn) in [(9, 5), (8, 6)] {
            let v = protocol_violations_windowed(&[ride, undo(7, page, txn)], &[(6, 9)]);
            assert!(v.iter().any(|m| m.contains("unresolved")), "{v:?}");
        }
    }
}
