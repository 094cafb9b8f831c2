//! The flight record: the compact snapshot the crash-persistent black
//! box writes at every durability barrier (and on a timer) and restart
//! recovery reads back.
//!
//! A record is the trace ring's retained events plus the deterministic
//! counter values, encoded into one flat little-endian byte string so
//! the storage layer can frame it with its torn-tail-tolerant journal
//! machinery without knowing anything about events. Events reuse the
//! three-word packing of [`crate::pack`], so the on-disk payload is the
//! ring's own wire format: 40 bytes per event, no allocation games.
//!
//! Decoding is deliberately forgiving: an unknown event tag (a record
//! written by a newer build) is skipped, and a short buffer decodes to
//! `None` rather than panicking — the reader is running during restart
//! recovery, the one place that must never trip over diagnostics.

use crate::event::TraceEvent;
use crate::json::{Json, ToJson};
use crate::json_obj;
use crate::pack::{pack, unpack};

/// One persisted black-box snapshot: what the engine was doing at (or
/// shortly before) the moment the journal stopped.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FlightRecord {
    /// Monotonic flush number (1-based) — how many snapshots the
    /// recorder had written up to and including this one.
    pub flush_seq: u64,
    /// Billed-I/O clock at snapshot time.
    pub io_clock: u64,
    /// Events the ring had overwritten before the snapshot.
    pub dropped: u64,
    /// The retained trace events, oldest first.
    pub events: Vec<TraceEvent>,
    /// Deterministic counter/view values at snapshot time, name-sorted.
    pub counters: Vec<(String, u64)>,
}

/// Bytes of an encoded record before its first event: `flush_seq`,
/// `io_clock`, `dropped` and the event count.
const HEAD_LEN: usize = 8 + 8 + 8 + 4;
/// Bytes of one encoded event.
const EVENT_LEN: usize = 40;

/// Append to `out` the encoding of a record made of `head` (`flush_seq`,
/// `io_clock`, `dropped`), `events` and the `(name, value)` pairs that
/// `counters` hands its callback, in that order. The one encoder: a
/// [`FlightRecord`] lends its fields, the live path in
/// [`crate::ObsHub::encode_flight_record`] the trace ring's snapshot and
/// the registry's borrowed names.
///
/// A record longer than `max` bytes leaves its oldest events out, counted
/// in `dropped`, until it fits; one that does not fit even without
/// events is not written, `out` is left as it was and the result is
/// `false`.
pub(crate) fn encode_into(
    out: &mut Vec<u8>,
    head: [u64; 3],
    events: &[TraceEvent],
    counters: impl FnOnce(&mut dyn FnMut(&str, u64)),
    max: usize,
) -> bool {
    let start = out.len();
    for word in head {
        out.extend_from_slice(&word.to_le_bytes());
    }
    out.extend_from_slice(&u32::try_from(events.len()).unwrap_or(0).to_le_bytes());
    for ev in events {
        let (w0, w1, w2) = pack(ev.kind);
        for word in [ev.at, ev.seq, w0, w1, w2] {
            out.extend_from_slice(&word.to_le_bytes());
        }
    }
    let count_at = out.len();
    out.extend_from_slice(&0u32.to_le_bytes());
    let mut count = 0u32;
    counters(&mut |name, value| {
        let bytes = name.as_bytes();
        out.extend_from_slice(&u32::try_from(bytes.len()).unwrap_or(0).to_le_bytes());
        out.extend_from_slice(bytes);
        out.extend_from_slice(&value.to_le_bytes());
        count += 1;
    });
    out[count_at..count_at + 4].copy_from_slice(&count.to_le_bytes());

    let excess = (out.len() - start).saturating_sub(max);
    if excess == 0 {
        return true;
    }
    let cut = excess.div_ceil(EVENT_LEN);
    if cut > events.len() {
        out.truncate(start);
        return false;
    }
    let first = start + HEAD_LEN;
    out.drain(first..first + cut * EVENT_LEN);
    let kept = u32::try_from(events.len() - cut).unwrap_or(0);
    out[first - 4..first].copy_from_slice(&kept.to_le_bytes());
    let dropped = head[2] + cut as u64;
    out[start + 16..start + 24].copy_from_slice(&dropped.to_le_bytes());
    true
}

impl FlightRecord {
    /// Serialize into the flat journal payload.
    #[must_use]
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(HEAD_LEN + 4 + self.events.len() * EVENT_LEN);
        let head = [self.flush_seq, self.io_clock, self.dropped];
        encode_into(
            &mut out,
            head,
            &self.events,
            |push| {
                for (name, value) in &self.counters {
                    push(name, *value);
                }
            },
            usize::MAX,
        );
        out
    }

    /// Deserialize a journal payload. `None` on any truncation or
    /// malformed length; unknown event tags are skipped, not fatal.
    #[must_use]
    pub fn decode(buf: &[u8]) -> Option<FlightRecord> {
        let mut r = Reader(buf);
        let flush_seq = r.u64()?;
        let io_clock = r.u64()?;
        let dropped = r.u64()?;
        let n_events = r.u32()? as usize;
        let mut events = Vec::with_capacity(n_events.min(1 << 16));
        for _ in 0..n_events {
            let at = r.u64()?;
            let seq = r.u64()?;
            let words = (r.u64()?, r.u64()?, r.u64()?);
            if let Some(kind) = unpack(words) {
                events.push(TraceEvent { at, seq, kind });
            }
        }
        let n_counters = r.u32()? as usize;
        let mut counters = Vec::with_capacity(n_counters.min(1 << 12));
        for _ in 0..n_counters {
            let len = r.u32()? as usize;
            let name = String::from_utf8(r.bytes(len)?.to_vec()).ok()?;
            counters.push((name, r.u64()?));
        }
        Some(FlightRecord {
            flush_seq,
            io_clock,
            dropped,
            events,
            counters,
        })
    }
}

/// Events as their human `Display` lines, counters as an object.
impl ToJson for FlightRecord {
    fn to_json(&self) -> Json {
        let events: Vec<String> = self.events.iter().map(ToString::to_string).collect();
        json_obj! {
            "flush_seq": self.flush_seq,
            "io_clock": self.io_clock,
            "dropped": self.dropped,
            "events": events,
            "counters": self.counters.iter().cloned().collect::<Json>(),
        }
    }
}

/// Minimal little-endian byte reader; every method is `None` on
/// underrun so torn payloads fail soft.
struct Reader<'a>(&'a [u8]);

impl Reader<'_> {
    fn bytes(&mut self, n: usize) -> Option<&[u8]> {
        if self.0.len() < n {
            return None;
        }
        let (head, tail) = self.0.split_at(n);
        self.0 = tail;
        Some(head)
    }

    fn u32(&mut self) -> Option<u32> {
        Some(u32::from_le_bytes(self.bytes(4)?.try_into().ok()?))
    }

    fn u64(&mut self) -> Option<u64> {
        Some(u64::from_le_bytes(self.bytes(8)?.try_into().ok()?))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::EventKind;

    fn sample() -> FlightRecord {
        FlightRecord {
            flush_seq: 9,
            io_clock: 1234,
            dropped: 2,
            events: vec![
                TraceEvent {
                    at: 10,
                    seq: 0,
                    kind: EventKind::TxnBegin { txn: 7 },
                },
                TraceEvent {
                    at: 12,
                    seq: 1,
                    kind: EventKind::CommitAck { txn: 7, pages: 3 },
                },
            ],
            counters: vec![("rda_commits".to_string(), 41), ("x".to_string(), 0)],
        }
    }

    #[test]
    fn encode_decode_roundtrips() {
        let rec = sample();
        let decoded = FlightRecord::decode(&rec.encode()).expect("decodes");
        assert_eq!(decoded.flush_seq, 9);
        assert_eq!(decoded.io_clock, 1234);
        assert_eq!(decoded.dropped, 2);
        assert_eq!(decoded.events, rec.events);
        assert_eq!(decoded.counters, rec.counters);
    }

    fn live_hub() -> crate::ObsHub {
        let hub = crate::ObsHub::new();
        hub.tracer.enable(64);
        hub.tracer.set_spans(true);
        hub.metrics.counter("txn_commits").add(41);
        hub.metrics.register_view("a_view", || 7);
        for txn in 0..5 {
            hub.tracer.emit_span(|| EventKind::TxnBegin { txn });
        }
        hub
    }

    /// The live encoder, into a reused buffer that already holds bytes,
    /// decodes to exactly the record the hub assembles.
    #[test]
    fn live_encoding_decodes_to_the_assembled_record() {
        let hub = live_hub();
        let mut buf = vec![0xAB; 20];
        assert!(hub.encode_flight_record(3, usize::MAX, &mut buf));
        assert_eq!(buf[..20], [0xAB; 20]);
        let record = hub.flight_record(3);
        assert_eq!(record.events.len(), 5);
        assert_eq!(FlightRecord::decode(&buf[20..]), Some(record.clone()));
        assert_eq!(buf[20..], record.encode()[..]);
    }

    /// A record over its limit keeps the newest events that fit and
    /// counts the rest as dropped; one whose counters alone overflow is
    /// not written.
    #[test]
    fn an_oversized_record_keeps_its_newest_events() {
        let hub = live_hub();
        let whole = hub.flight_record(1);
        let len = whole.encode().len();
        let mut buf = Vec::new();
        assert!(hub.encode_flight_record(1, len - 1, &mut buf));
        assert_eq!(buf.len(), len - EVENT_LEN);
        let trimmed = FlightRecord::decode(&buf).expect("decodes");
        assert_eq!(trimmed.events, whole.events[1..]);
        assert_eq!(trimmed.dropped, whole.dropped + 1);
        assert_eq!(trimmed.counters, whole.counters);
        buf.clear();
        assert!(hub.encode_flight_record(1, len - 5 * EVENT_LEN, &mut buf));
        assert!(FlightRecord::decode(&buf).unwrap().events.is_empty());
        let mut buf = vec![1, 2, 3];
        assert!(!hub.encode_flight_record(1, len - 5 * EVENT_LEN - 1, &mut buf));
        assert_eq!(buf, [1, 2, 3]);
    }

    #[test]
    fn truncated_payload_fails_soft() {
        let bytes = sample().encode();
        for cut in [0, 5, 23, bytes.len() - 1] {
            assert!(
                FlightRecord::decode(&bytes[..cut]).is_none(),
                "cut at {cut} must not decode"
            );
        }
    }

    #[test]
    fn json_contains_events_and_counters() {
        let json = sample().to_json().to_string();
        assert_eq!(Json::parse(&json).map(|j| j.to_string()), Ok(json.clone()));
        assert!(json.contains("\"flush_seq\":9"), "{json}");
        assert!(json.contains("TxnBegin"), "{json}");
        assert!(json.contains("\"rda_commits\":41"), "{json}");
    }
}
