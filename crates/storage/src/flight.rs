//! The crash-persistent black box: `obs.journal`.
//!
//! A [`FlightRecorder`] periodically — and at every commit/checkpoint
//! durability barrier, via the engine's barrier hook — appends a
//! compact [`FlightRecord`] snapshot (trace ring + counter values) to
//! an append-only journal framed exactly like `wal.journal`
//! (`crate::meta::append_frame` / `frames`): length-prefixed frames
//! whose torn tail is silently dropped at load. After a crash,
//! `reopen_database` reads the last intact snapshot back and attaches
//! it to the first `RecoveryReport`, so the kill-process test can
//! assert *what* the engine was doing at death.
//!
//! Durability stance: flushes use plain `write(2)` with **no fsync** —
//! a SIGKILL (the crash this box is built for) only kills the process,
//! and the page cache survives, so the data is crash-consistent for
//! process death at zero added latency on the commit path. A power
//! failure may lose the final snapshots; the flight record is a
//! diagnostic artifact, not part of the recovery protocol, so that
//! trade is taken deliberately.
//!
//! The journal is bounded: once it is half way to 256 KiB, the timer
//! thread compacts it down to a fresh snapshot via the same tmp-write +
//! rename dance `meta.rs` rewrites `wal.journal` with, off the commit
//! path. The bound is what a
//! reopen reads to find the last snapshot.

use crate::meta::{append_frame, frames};
use rda_obs::sync::Mutex;
use rda_obs::{FlightRecord, ObsHub};
use std::fs::{File, OpenOptions};
use std::io::{self, Read as _};
use std::path::{Path, PathBuf};
use std::sync::{Arc, OnceLock, Weak};
use std::thread::Thread;
use std::time::Duration;

const JOURNAL: &str = "obs.journal";
/// Size the journal never exceeds, and so what a reopen reads at most.
/// The timer thread compacts it at half this: with ≈ 1 KB snapshots, once
/// per ≈ 125 barriers.
const COMPACT_BYTES: u64 = 256 << 10;
/// Cadence of the background flusher thread.
const PERIOD: Duration = Duration::from_millis(200);

struct RecorderState {
    file: File,
    /// Bytes appended since the last create/compact, for the bound.
    appended: u64,
    /// `(io_clock, last event seq, counter sum)` of the last snapshot,
    /// so an idle database does not grow the journal with duplicates.
    last_sig: Option<(u64, u64, u64)>,
    flushes: u64,
    shutdown: bool,
}

/// The black-box writer. One per file-backed database; the engine's
/// barrier hook and a background timer thread both call
/// [`FlightRecorder::flush`].
pub struct FlightRecorder {
    hub: ObsHub,
    path: PathBuf,
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
    pub fn create(dir: &Path, hub: ObsHub) -> io::Result<Arc<FlightRecorder>> {
        let path = dir.join(JOURNAL);
        let file = OpenOptions::new()
            .create(true)
            .write(true)
            .truncate(true)
            .open(&path)?;
        let rec = Arc::new(FlightRecorder {
            hub,
            path,
            state: Mutex::new(RecorderState {
                file,
                appended: 0,
                last_sig: None,
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
                let _ = rec.compact();
                let _ = rec.flush();
            })?;
        let _ = rec.timer.set(timer.thread().clone());
        Ok(rec)
    }

    /// Read the newest intact snapshot out of `dir/obs.journal`, if the
    /// file exists and holds at least one complete, decodable frame.
    /// The torn tail a crash may have left is ignored, exactly like the
    /// WAL journal's.
    #[must_use]
    pub fn load(dir: &Path) -> Option<FlightRecord> {
        FlightRecorder::load_counted(dir).0
    }

    /// [`FlightRecorder::load`], plus how many bytes of the journal it
    /// read.
    pub(crate) fn load_counted(dir: &Path) -> (Option<FlightRecord>, u64) {
        let mut buf = Vec::new();
        let read = File::open(dir.join(JOURNAL)).and_then(|mut f| f.read_to_end(&mut buf));
        let record = read.ok().and_then(|_| {
            frames(&buf)
                .collect::<Vec<_>>()
                .into_iter()
                .rev()
                .find_map(FlightRecord::decode)
        });
        (record, buf.len() as u64)
    }

    /// Append one snapshot now (no-op if nothing changed since the last
    /// one). Called from the engine's durability-barrier hook and from
    /// the timer thread.
    ///
    /// # Errors
    /// I/O errors appending to or compacting the journal.
    pub fn flush(&self) -> io::Result<()> {
        let mut state = self.state.lock();
        if state.shutdown {
            return Ok(());
        }
        let record = self.hub.flight_record(state.flushes + 1);
        let sig = (
            record.io_clock,
            record.events.last().map_or(0, |e| e.seq + 1),
            record.counters.iter().map(|(_, v)| *v).sum(),
        );
        if state.last_sig == Some(sig) {
            return Ok(());
        }
        let payload = record.encode();
        let framed = 4 + payload.len() as u64;
        if state.appended + framed > COMPACT_BYTES {
            // The timer thread is behind with the compaction: the bound
            // holds, and a later snapshot replaces this one.
            self.wake_timer();
            return Ok(());
        }
        append_frame(&mut state.file, &payload, false)?;
        state.appended += framed;
        state.flushes += 1;
        state.last_sig = Some(sig);
        if state.appended > COMPACT_BYTES / 2 {
            self.wake_timer();
        }
        Ok(())
    }

    /// On the timer thread, once the journal is half way to its bound:
    /// replace it by one frame holding a fresh snapshot, with the same
    /// tmp + rename pattern the WAL journal is rewritten with, so a crash
    /// mid-compaction leaves either the old or the new file. Only the
    /// rename and the swap of handles hold the lock: a barrier's flush
    /// never waits for the new file to be written or the old one's pages
    /// to be freed. Snapshots appended to the old file meanwhile are lost
    /// with it; clearing the signature makes the next flush write one
    /// newer than them.
    fn compact(&self) -> io::Result<()> {
        let Some(seq) = self.compaction_due() else {
            return Ok(());
        };
        let payload = self.hub.flight_record(seq).encode();
        let tmp = self.path.with_extension("tmp");
        let mut f = OpenOptions::new()
            .create(true)
            .write(true)
            .truncate(true)
            .open(&tmp)?;
        append_frame(&mut f, &payload, true)?;
        let _replaced = {
            let mut state = self.state.lock();
            std::fs::rename(&tmp, &self.path)?;
            let file = OpenOptions::new().append(true).open(&self.path)?;
            state.appended = 4 + payload.len() as u64;
            state.last_sig = None;
            std::mem::replace(&mut state.file, file)
        };
        Ok(())
    }

    /// The sequence number of the last snapshot, when the journal is past
    /// half its bound and the recorder is running.
    fn compaction_due(&self) -> Option<u64> {
        let state = self.state.lock();
        (!state.shutdown && state.appended > COMPACT_BYTES / 2).then_some(state.flushes)
    }

    /// Snapshots written so far.
    #[must_use]
    pub fn flushes(&self) -> u64 {
        self.state.lock().flushes
    }

    /// Stop the timer thread and refuse further flushes (used by tests;
    /// dropping every strong handle stops the thread too).
    pub fn shutdown(&self) {
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
    use std::io::Write as _;

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

    #[test]
    fn torn_tail_is_ignored() {
        let d = dir("torn");
        let hub = hub_with_events();
        let rec = FlightRecorder::create(&d, hub.clone()).unwrap();
        rec.flush().unwrap();
        rec.shutdown();
        drop(rec);
        // Append a frame whose declared length exceeds its bytes — the
        // shape a crash mid-append leaves behind.
        let mut f = OpenOptions::new()
            .append(true)
            .open(d.join(JOURNAL))
            .unwrap();
        f.write_all(&[200, 0, 0, 0, 7, 7, 7]).unwrap();
        drop(f);
        let loaded = FlightRecorder::load(&d).expect("intact snapshot survives the torn tail");
        assert_eq!(loaded.flush_seq, 1);
        assert_eq!(loaded.events.len(), 2);
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

    /// Flush after flush, with a distinct snapshot each time: the timer
    /// thread keeps compacting, the file never holds more than the bound,
    /// and a reopen reads no more than that to find the newest snapshot.
    #[test]
    fn journal_never_exceeds_its_bound() {
        let d = dir("bound");
        let hub = hub_with_events();
        let rec = FlightRecorder::create(&d, hub.clone()).unwrap();
        let c = hub.metrics.counter("spin");
        let (mut peak, mut compactions) = (0, 0);
        while compactions < 2 {
            c.inc();
            rec.flush().unwrap();
            let len = std::fs::metadata(d.join(JOURNAL)).unwrap().len();
            assert!(len <= COMPACT_BYTES, "{len} bytes");
            if len < peak {
                compactions += 1;
            }
            peak = len;
        }
        rec.shutdown();
        let (loaded, read) = FlightRecorder::load_counted(&d);
        assert!(loaded.is_some(), "a snapshot survives the compactions");
        assert!(read <= COMPACT_BYTES);
        let _ = std::fs::remove_dir_all(&d);
    }

    /// A journal at its bound: the next snapshot is skipped rather than
    /// grow it, and the timer thread that snapshot wakes replaces the
    /// journal by a fresh one.
    #[test]
    fn compaction_bounds_the_journal() {
        let d = dir("compact");
        let hub = ObsHub::new();
        let rec = FlightRecorder::create(&d, hub.clone()).unwrap();
        hub.metrics.counter("spin").inc();
        rec.state.lock().appended = COMPACT_BYTES;
        rec.flush().unwrap();
        assert_eq!(rec.flushes(), 0, "skipped at the bound");
        let deadline = std::time::Instant::now() + Duration::from_secs(10);
        while rec.state.lock().appended == COMPACT_BYTES {
            assert!(std::time::Instant::now() < deadline, "never compacted");
            std::thread::sleep(Duration::from_millis(1));
        }
        rec.shutdown();
        let len = std::fs::metadata(d.join(JOURNAL)).unwrap().len();
        assert!(len < 4096, "compacted journal stays small ({len} bytes)");
        let loaded = FlightRecorder::load(&d).expect("compacted snapshot loads");
        assert!(loaded.counters.iter().any(|(n, _)| n == "spin"));
        let _ = std::fs::remove_dir_all(&d);
    }
}
