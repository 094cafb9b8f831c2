//! The crash-persistent black box: `obs.journal`.
//!
//! A [`FlightRecorder`] periodically — and at every commit/checkpoint
//! durability barrier, via the engine's barrier hook — writes a compact
//! [`FlightRecord`] snapshot (trace ring + counter values) into one of
//! the journal's two fixed slots, alternately and in place: snapshot
//! `seq` goes to slot `seq % 2`, at `(seq % 2) × SLOT`, as one frame
//! framed like `wal.journal`'s (`crate::meta::open_frame`: length, `seq`,
//! checksum, snapshot). A write a crash tears fails its sum, and the
//! other slot still holds the snapshot before it. After a crash,
//! `reopen_database` reads the newer intact snapshot back and attaches it
//! to the first `RecoveryReport`, so the kill-process test can assert
//! *what* the engine was doing at death.
//!
//! Durability stance: flushes use plain `pwrite(2)` with **no fsync** —
//! a SIGKILL (the crash this box is built for) only kills the process,
//! and the page cache survives, so the data is crash-consistent for
//! process death at zero added latency on the commit path. A power
//! failure may lose the final snapshots; the flight record is a
//! diagnostic artifact, not part of the recovery protocol, so that
//! trade is taken deliberately.
//!
//! The journal is bounded by construction: two slots, `2 × SLOT` bytes at
//! most, which is also what a reopen reads. A snapshot too long for a
//! slot keeps the newest trace events that fit.

use crate::meta::{open_frame, read_frame, seal_frame, FRAME_HEAD};
use rda_obs::sync::Mutex;
use rda_obs::{FlightRecord, ObsHub};
use std::fs::{File, OpenOptions};
use std::io;
use std::os::unix::fs::FileExt;
use std::path::Path;
use std::sync::{Arc, OnceLock, Weak};
use std::thread::Thread;
use std::time::Duration;

const JOURNAL: &str = "obs.journal";
/// Bytes of each of `obs.journal`'s two slots. A snapshot is ≈ 3 KB of
/// counters plus 40 bytes per retained trace event: a 1 024-event ring
/// fits whole.
const SLOT: u64 = 128 << 10;
/// Cadence of the background flusher thread.
const PERIOD: Duration = Duration::from_millis(200);
/// Where a slot's snapshot differs from the one before it, if at all:
/// behind the frame head and the snapshot's own sequence number.
const CHANGED_FROM: usize = FRAME_HEAD + 8;

struct RecorderState {
    file: File,
    /// The frame of the next snapshot, built in place.
    next: Vec<u8>,
    /// The frame of the last snapshot written, so that an idle database
    /// rewrites nothing: a snapshot equal to it but for its number is not
    /// written.
    last: Vec<u8>,
    flushes: u64,
    shutdown: bool,
}

/// The black-box writer. One per file-backed database; the engine's
/// barrier hook and a background timer thread both call
/// [`FlightRecorder::flush`]. Only this crate writes `obs.journal`:
/// creating and flushing a recorder is crate-private, wired up by the
/// open path, and everyone else reads it through [`FlightRecorder::load`].
pub struct FlightRecorder {
    hub: ObsHub,
    state: Mutex<RecorderState>,
    /// The timer thread, to wake it early on shutdown and on drop.
    timer: OnceLock<Thread>,
}

impl FlightRecorder {
    /// Create (or truncate) `dir/obs.journal` and start the periodic
    /// flusher thread. Between ticks the thread holds only a [`Weak`]
    /// reference, and dropping the last strong handle (the engine's
    /// barrier hook) wakes it to exit: the recorder, its file and whatever
    /// its hub keeps alive end with the database, not a period later on
    /// another thread.
    ///
    /// # Errors
    /// I/O errors creating the journal file.
    pub(crate) fn create(dir: &Path, hub: ObsHub) -> io::Result<Arc<FlightRecorder>> {
        let file = OpenOptions::new()
            .create(true)
            .write(true)
            .truncate(true)
            .open(dir.join(JOURNAL))?;
        let rec = Arc::new(FlightRecorder {
            hub,
            state: Mutex::new(RecorderState {
                file,
                next: Vec::new(),
                last: Vec::new(),
                flushes: 0,
                shutdown: false,
            }),
            timer: OnceLock::new(),
        });
        let weak: Weak<FlightRecorder> = Arc::downgrade(&rec);
        let timer = std::thread::Builder::new()
            .name("rda-flight".into())
            .spawn(move || loop {
                // A wake-up before the period is out (shutdown, drop, or
                // spurious) costs at most one early snapshot.
                std::thread::park_timeout(PERIOD);
                let Some(rec) = weak.upgrade() else {
                    return;
                };
                if rec.state.lock().shutdown {
                    return;
                }
                // Timer flushes are best-effort; the sticky failure
                // channel for real I/O trouble is the write queue.
                let _ = rec.flush();
            })?;
        let _ = rec.timer.set(timer.thread().clone());
        Ok(rec)
    }

    /// Read the newest intact snapshot out of `dir/obs.journal`, if the
    /// file exists and either slot holds a whole, decodable one. A slot a
    /// crash tore is passed over for the other.
    #[must_use]
    pub fn load(dir: &Path) -> Option<FlightRecord> {
        FlightRecorder::load_counted(dir).0
    }

    /// [`FlightRecorder::load`], plus how many bytes of the journal it
    /// read: each slot's frame head, then the frame it announces.
    pub(crate) fn load_counted(dir: &Path) -> (Option<FlightRecord>, u64) {
        let Ok(file) = File::open(dir.join(JOURNAL)) else {
            return (None, 0);
        };
        let mut read = 0;
        let mut newest: Option<(u64, FlightRecord)> = None;
        for at in [0, SLOT] {
            let mut frame = vec![0; FRAME_HEAD];
            if file.read_exact_at(&mut frame, at).is_err() {
                continue;
            }
            let len = u32::from_le_bytes([frame[0], frame[1], frame[2], frame[3]]) as usize;
            frame.resize(FRAME_HEAD + len.min(SLOT as usize), 0);
            let whole = file.read_exact_at(&mut frame[FRAME_HEAD..], at + FRAME_HEAD as u64);
            read += frame.len() as u64;
            let Some((seq, _)) = whole.ok().and_then(|()| read_frame(&mut frame)) else {
                continue;
            };
            let record = FlightRecord::decode(&frame[FRAME_HEAD..]);
            if let Some(record) = record.filter(|_| newest.as_ref().is_none_or(|n| n.0 < seq)) {
                newest = Some((seq, record));
            }
        }
        (newest.map(|(_, record)| record), read)
    }

    /// Write one snapshot now, into the slot the one before it did not
    /// use (no-op if nothing changed since the last one). Called from the
    /// engine's durability-barrier hook and from the timer thread.
    ///
    /// # Errors
    /// I/O errors writing the journal.
    pub(crate) fn flush(&self) -> io::Result<()> {
        let mut state = self.state.lock();
        let state = &mut *state;
        if state.shutdown {
            return Ok(());
        }
        let seq = state.flushes + 1;
        state.next.clear();
        let at = open_frame(&mut state.next, seq);
        let room = SLOT as usize - FRAME_HEAD;
        if !self.hub.encode_flight_record(seq, room, &mut state.next)
            || state.next.get(CHANGED_FROM..) == state.last.get(CHANGED_FROM..)
        {
            return Ok(());
        }
        seal_frame(&mut state.next, at);
        state.file.write_all_at(&state.next, seq % 2 * SLOT)?;
        state.flushes = seq;
        std::mem::swap(&mut state.next, &mut state.last);
        Ok(())
    }

    /// Snapshots written so far.
    #[must_use]
    pub fn flushes(&self) -> u64 {
        self.state.lock().flushes
    }

    /// Stop the timer thread and refuse further flushes (dropping every
    /// strong handle stops the thread too).
    #[cfg(test)]
    pub(crate) fn shutdown(&self) {
        self.state.lock().shutdown = true;
        self.wake_timer();
    }

    fn wake_timer(&self) {
        if let Some(timer) = self.timer.get() {
            timer.unpark();
        }
    }
}

impl Drop for FlightRecorder {
    fn drop(&mut self) {
        self.wake_timer();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rda_obs::EventKind;
    use std::path::PathBuf;

    fn dir(tag: &str) -> PathBuf {
        let d = std::env::temp_dir().join(format!("rda-flight-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&d);
        std::fs::create_dir_all(&d).unwrap();
        d
    }

    fn hub_with_events() -> ObsHub {
        let hub = ObsHub::new();
        hub.tracer.enable(64);
        hub.tracer.set_spans(true);
        hub.metrics.counter("test_ops").add(5);
        hub.tracer.emit_span(|| EventKind::TxnBegin { txn: 3 });
        hub.tracer
            .record_io(|| EventKind::DiskWrite { disk: 0, block: 9 });
        hub
    }

    fn journal_len(d: &Path) -> u64 {
        std::fs::metadata(d.join(JOURNAL)).unwrap().len()
    }

    #[test]
    fn flush_then_load_roundtrips() {
        let d = dir("roundtrip");
        let hub = hub_with_events();
        let rec = FlightRecorder::create(&d, hub.clone()).unwrap();
        rec.flush().unwrap();
        // Unchanged state: second flush is a dedup no-op.
        rec.flush().unwrap();
        assert_eq!(rec.flushes(), 1);
        hub.tracer
            .emit_span(|| EventKind::CommitAck { txn: 3, pages: 1 });
        rec.flush().unwrap();
        assert_eq!(rec.flushes(), 2);
        rec.shutdown();
        let loaded = FlightRecorder::load(&d).expect("snapshot loads");
        assert_eq!(loaded.flush_seq, 2);
        assert_eq!(loaded.io_clock, 1);
        assert_eq!(loaded.events.len(), 3);
        assert!(loaded
            .counters
            .iter()
            .any(|(n, v)| n == "test_ops" && *v == 5));
        let _ = std::fs::remove_dir_all(&d);
    }

    /// Snapshot 3 goes over snapshot 1 in slot 1 and a crash tears it
    /// into any subset of its 512-byte sectors: the reopen finds snapshot
    /// 3 when all of it landed, and snapshot 2, in the other slot,
    /// otherwise.
    #[test]
    fn a_torn_newer_slot_reopens_to_the_older_one() {
        let d = dir("torn");
        let hub = hub_with_events();
        let rec = FlightRecorder::create(&d, hub.clone()).unwrap();
        let mut images = Vec::new();
        for txn in 0..3 {
            for _ in 0..20 {
                hub.tracer.emit_span(|| EventKind::TxnBegin { txn });
            }
            rec.flush().unwrap();
            images.push(std::fs::read(d.join(JOURNAL)).unwrap());
        }
        rec.shutdown();
        drop(rec);
        let (second, third) = (&images[1], &images[2]);
        let slot1 = SLOT as usize..third.len();
        assert_eq!(third[..SLOT as usize], second[..SLOT as usize]);
        let sectors = slot1.len().div_ceil(512);
        assert!((3..=12).contains(&sectors), "{sectors} sectors");
        for landed in 0..1u32 << sectors {
            let mut torn = second.clone();
            torn.resize(third.len().max(torn.len()), 0);
            for sector in (0..sectors).filter(|s| landed >> s & 1 == 1) {
                let range =
                    slot1.start + sector * 512..third.len().min(slot1.start + sector * 512 + 512);
                torn[range.clone()].copy_from_slice(&third[range]);
            }
            std::fs::write(d.join(JOURNAL), &torn).unwrap();
            let loaded = FlightRecorder::load(&d).expect("one slot is whole");
            let whole = landed == (1 << sectors) - 1;
            assert_eq!(loaded.flush_seq, if whole { 3 } else { 2 }, "{landed:b}");
        }
        let _ = std::fs::remove_dir_all(&d);
    }

    /// The timer thread sleeps without a strong handle: the recorder is
    /// gone the moment its owner drops it, not up to a period later.
    #[test]
    fn recorder_ends_with_its_last_handle() {
        let d = dir("ends");
        let rec = FlightRecorder::create(&d, ObsHub::new()).unwrap();
        // Let the timer thread reach its first sleep.
        std::thread::sleep(Duration::from_millis(20));
        let weak = Arc::downgrade(&rec);
        drop(rec);
        assert!(weak.upgrade().is_none(), "the sleeping timer kept it alive");
        let _ = std::fs::remove_dir_all(&d);
    }

    #[test]
    fn missing_journal_loads_none() {
        let d = dir("missing");
        assert!(FlightRecorder::load(&d).is_none());
        let _ = std::fs::remove_dir_all(&d);
    }

    /// Flush after flush, with a distinct snapshot each time: the slots
    /// alternate, the file never holds more than two of them, and a
    /// reopen reads only the two snapshots to find the newest.
    #[test]
    fn journal_never_exceeds_two_slots() {
        let d = dir("bound");
        let hub = hub_with_events();
        let rec = FlightRecorder::create(&d, hub.clone()).unwrap();
        let c = hub.metrics.counter("spin");
        for _ in 0..200 {
            c.inc();
            rec.flush().unwrap();
            assert!(journal_len(&d) <= 2 * SLOT);
        }
        rec.shutdown();
        assert!(rec.flushes() >= 200);
        let (loaded, read) = FlightRecorder::load_counted(&d);
        assert_eq!(loaded.map(|r| r.flush_seq), Some(rec.flushes()));
        // The two snapshots, not the slots' slack.
        assert!(
            read <= 2 * SLOT && read < journal_len(&d),
            "{read} bytes read"
        );
        let _ = std::fs::remove_dir_all(&d);
    }

    /// A trace ring whose snapshot is longer than a slot: the slot keeps
    /// the newest events that fit and counts the rest as dropped.
    #[test]
    fn an_oversized_snapshot_keeps_its_newest_events() {
        let d = dir("oversized");
        let hub = ObsHub::new();
        hub.tracer.enable(8192);
        hub.tracer.set_spans(true);
        for txn in 0..5000 {
            hub.tracer.emit_span(|| EventKind::TxnBegin { txn });
        }
        let rec = FlightRecorder::create(&d, hub.clone()).unwrap();
        rec.flush().unwrap();
        rec.shutdown();
        assert!(journal_len(&d) <= 2 * SLOT);
        let loaded = FlightRecorder::load(&d).expect("a trimmed snapshot loads");
        let kept = loaded.events.len() as u64;
        assert!(kept > 1000 && kept < 5000, "{kept} events kept");
        assert_eq!(loaded.dropped, 5000 - kept);
        assert!(matches!(
            loaded.events.last().map(|e| e.kind),
            Some(EventKind::TxnBegin { txn: 4999 })
        ));
        let _ = std::fs::remove_dir_all(&d);
    }
}
