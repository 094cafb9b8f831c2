//! The two metadata journals of a file-backed database, plus their
//! crash-tolerant frame format.
//!
//! * `meta.journal` ([`FileMetaStore`]) persists what the simulated array
//!   keeps in page headers and modeled NVRAM: twin parity headers, the
//!   TWIST steal chain, and the staged write intent. It implements
//!   [`MetaSink`], so every mutation in `rda-core` is mirrored here
//!   synchronously.
//! * `wal.journal` ([`FileLogSink`]) mirrors the write-ahead log through
//!   the [`LogSink`] seam, reusing `rda-wal`'s record codec.
//!
//! Both files are append-only streams of length-prefixed frames, each
//! written with one `write`. A process death can leave at most a partial
//! frame at the tail; loading stops at the first incomplete or
//! undecodable frame, which is exactly the not-yet-durable suffix.
//!
//! `meta.journal` is small (one header per group, the live chains, at
//! most one intent) and is rewritten as a snapshot on every reopen.
//!
//! `wal.journal` is as large as the retained log, so reopening it reads
//! it once and copies each surviving record once ([`FileLogSink::load`]):
//! log truncation appends an O(1) marker frame instead of rewriting the
//! file; the records a marker killed are skipped by tag and LSN, never
//! decoded; a torn or undecodable tail is cut off in place (`set_len`)
//! and appends resume there; and the file is rewritten (marker + live
//! suffix, tmp + fsync + rename) only when the dead prefix has grown to
//! the size of what would remain, so the rewrite at least halves it.
//!
//! Durability policy: frames that *gate* platter writes (intent staging,
//! chain links, twin header flips) are fsynced as they are appended;
//! pure compaction hints (chain/intent clears, truncate markers) are
//! not. WAL frames are fsynced when the store forces, via
//! [`LogSink::sync`]. An append or fsync failure panics: a journal that
//! cannot persist has no honest way to keep accepting mutations.

use bytes::{BufMut, BytesMut};
use parking_lot::Mutex;
use rda_core::{IntentRecord, MetaSink, TwinMeta, TwinState};
use rda_wal::{codec, LogRecord, LogSink};
use std::collections::{BTreeMap, BTreeSet};
use std::fs::{File, OpenOptions};
use std::io::{self, Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};

const TAG_TWIN_META: u8 = 1;
const TAG_CHAIN_STEAL: u8 = 2;
const TAG_CHAIN_CLEAR_TXN: u8 = 3;
const TAG_CHAIN_CLEAR_PAGE: u8 = 4;
const TAG_INTENT_SET: u8 = 5;
const TAG_INTENT_CLEAR: u8 = 6;
/// `wal.journal` frame tags share the numbering but live in their own file.
const TAG_WAL_RECORD: u8 = 16;
const TAG_WAL_TRUNCATE: u8 = 17;

/// Append one length-prefixed frame to a byte buffer.
fn push_frame(out: &mut Vec<u8>, payload: &[u8]) {
    out.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    out.extend_from_slice(payload);
}

/// Append one length-prefixed frame with a single `write`, optionally
/// forcing it to stable storage before returning. Shared with the flight
/// recorder's `obs.journal` (see `crate::flight`), which reuses this
/// torn-tail framing for its black-box snapshots.
pub(crate) fn append_frame(file: &mut File, payload: &[u8], sync: bool) -> io::Result<()> {
    let mut frame = Vec::with_capacity(4 + payload.len());
    push_frame(&mut frame, payload);
    file.write_all(&frame)?;
    if sync {
        file.sync_data()?;
    }
    Ok(())
}

/// The complete frames of a journal byte stream, in order; iteration ends
/// before the (possibly torn) tail.
pub(crate) struct Frames<'a> {
    buf: &'a [u8],
    pos: usize,
}

/// Walk the complete frames of `buf`.
pub(crate) fn frames(buf: &[u8]) -> Frames<'_> {
    Frames { buf, pos: 0 }
}

impl Frames<'_> {
    /// Offset of the next frame's length prefix: the end of the last
    /// frame yielded.
    fn offset(&self) -> usize {
        self.pos
    }
}

impl<'a> Iterator for Frames<'a> {
    type Item = &'a [u8];

    fn next(&mut self) -> Option<&'a [u8]> {
        let rest = &self.buf[self.pos..];
        let prefix = rest.get(..4)?;
        let len = u32::from_le_bytes([prefix[0], prefix[1], prefix[2], prefix[3]]) as usize;
        let payload = rest.get(4..)?.get(..len)?;
        self.pos += 4 + len;
        Some(payload)
    }
}

/// Forward-only decoder over one frame; every taker returns `None` on
/// underrun so a corrupt frame just ends the replay.
struct Cursor<'a> {
    buf: &'a [u8],
}

impl<'a> Cursor<'a> {
    fn take(&mut self, n: usize) -> Option<&'a [u8]> {
        if self.buf.len() < n {
            return None;
        }
        let (head, rest) = self.buf.split_at(n);
        self.buf = rest;
        Some(head)
    }

    fn u8(&mut self) -> Option<u8> {
        self.take(1).map(|b| b[0])
    }

    fn u32(&mut self) -> Option<u32> {
        self.take(4)
            .map(|b| u32::from_le_bytes([b[0], b[1], b[2], b[3]]))
    }

    fn u64(&mut self) -> Option<u64> {
        self.take(8)
            .map(|b| u64::from_le_bytes([b[0], b[1], b[2], b[3], b[4], b[5], b[6], b[7]]))
    }

    fn bytes(&mut self) -> Option<Vec<u8>> {
        let len = self.u32()? as usize;
        self.take(len).map(<[u8]>::to_vec)
    }
}

fn twin_state_code(s: TwinState) -> u8 {
    match s {
        TwinState::Committed => 0,
        TwinState::Obsolete => 1,
        TwinState::Working => 2,
        TwinState::Invalid => 3,
    }
}

fn twin_state_from(code: u8) -> Option<TwinState> {
    match code {
        0 => Some(TwinState::Committed),
        1 => Some(TwinState::Obsolete),
        2 => Some(TwinState::Working),
        3 => Some(TwinState::Invalid),
        _ => None,
    }
}

fn encode_twin_meta(group: u32, meta: TwinMeta) -> Vec<u8> {
    let mut out = vec![TAG_TWIN_META];
    out.extend_from_slice(&group.to_le_bytes());
    out.extend_from_slice(&meta.ts[0].to_le_bytes());
    out.extend_from_slice(&meta.ts[1].to_le_bytes());
    out.push(twin_state_code(meta.state[0]));
    out.push(twin_state_code(meta.state[1]));
    out
}

fn encode_intent(intent: &IntentRecord) -> Vec<u8> {
    let mut out = vec![TAG_INTENT_SET];
    out.extend_from_slice(&intent.page.to_le_bytes());
    out.extend_from_slice(&(intent.data.len() as u32).to_le_bytes());
    out.extend_from_slice(&intent.data);
    out.extend_from_slice(&(intent.parity.len() as u32).to_le_bytes());
    for (group, slot, data) in &intent.parity {
        out.extend_from_slice(&group.to_le_bytes());
        out.push(*slot);
        out.extend_from_slice(&(data.len() as u32).to_le_bytes());
        out.extend_from_slice(data);
    }
    out
}

/// Everything `meta.journal` held when the database was reopened.
pub(crate) struct MetaSnapshot {
    pub twin_metas: Vec<TwinMeta>,
    pub chains: Vec<(u64, Vec<u32>)>,
    pub intent: Option<IntentRecord>,
}

/// The durable side of twin headers, steal chains and staged intents.
pub struct FileMetaStore {
    file: Mutex<File>,
}

impl FileMetaStore {
    fn journal_path(dir: &Path) -> PathBuf {
        dir.join("meta.journal")
    }

    /// Create an empty journal for a freshly formatted database.
    pub(crate) fn create(dir: &Path) -> io::Result<FileMetaStore> {
        let file = OpenOptions::new()
            .read(true)
            .write(true)
            .create(true)
            .truncate(true)
            .open(FileMetaStore::journal_path(dir))?;
        Ok(FileMetaStore {
            file: Mutex::new(file),
        })
    }

    /// Replay the journal of a surviving database, compact it to a
    /// snapshot, and return the store plus the state it held.
    pub(crate) fn load(dir: &Path, groups: u32) -> io::Result<(FileMetaStore, MetaSnapshot)> {
        let path = FileMetaStore::journal_path(dir);
        let mut buf = Vec::new();
        File::open(&path)?.read_to_end(&mut buf)?;

        let mut twins = vec![TwinMeta::fresh(); groups as usize];
        let mut chains: BTreeMap<u64, BTreeSet<u32>> = BTreeMap::new();
        let mut intent: Option<IntentRecord> = None;
        'replay: for frame in frames(&buf) {
            let mut c = Cursor { buf: frame };
            let Some(tag) = c.u8() else { break };
            match tag {
                TAG_TWIN_META => {
                    let (Some(group), Some(ts0), Some(ts1), Some(s0), Some(s1)) =
                        (c.u32(), c.u64(), c.u64(), c.u8(), c.u8())
                    else {
                        break 'replay;
                    };
                    let (Some(state0), Some(state1)) = (twin_state_from(s0), twin_state_from(s1))
                    else {
                        break 'replay;
                    };
                    if let Some(slot) = twins.get_mut(group as usize) {
                        *slot = TwinMeta {
                            ts: [ts0, ts1],
                            state: [state0, state1],
                        };
                    }
                }
                TAG_CHAIN_STEAL => {
                    let (Some(txn), Some(page)) = (c.u64(), c.u32()) else {
                        break 'replay;
                    };
                    chains.entry(txn).or_default().insert(page);
                }
                TAG_CHAIN_CLEAR_TXN => {
                    let Some(txn) = c.u64() else { break 'replay };
                    chains.remove(&txn);
                }
                TAG_CHAIN_CLEAR_PAGE => {
                    let (Some(txn), Some(page)) = (c.u64(), c.u32()) else {
                        break 'replay;
                    };
                    if let Some(set) = chains.get_mut(&txn) {
                        set.remove(&page);
                        if set.is_empty() {
                            chains.remove(&txn);
                        }
                    }
                }
                TAG_INTENT_SET => {
                    let (Some(page), Some(data)) = (c.u32(), c.bytes()) else {
                        break 'replay;
                    };
                    let Some(n) = c.u32() else { break 'replay };
                    let mut parity = Vec::with_capacity(n as usize);
                    for _ in 0..n {
                        let (Some(group), Some(slot), Some(bytes)) = (c.u32(), c.u8(), c.bytes())
                        else {
                            break 'replay;
                        };
                        parity.push((group, slot, bytes));
                    }
                    intent = Some(IntentRecord { page, data, parity });
                }
                TAG_INTENT_CLEAR => intent = None,
                _ => break 'replay,
            }
        }

        // Compact: rewrite the whole history as one snapshot.
        let mut snap = Vec::new();
        for (group, meta) in twins.iter().enumerate() {
            push_frame(&mut snap, &encode_twin_meta(group as u32, *meta));
        }
        for (txn, pages) in &chains {
            for page in pages {
                let mut payload = vec![TAG_CHAIN_STEAL];
                payload.extend_from_slice(&txn.to_le_bytes());
                payload.extend_from_slice(&page.to_le_bytes());
                push_frame(&mut snap, &payload);
            }
        }
        if let Some(intent) = &intent {
            push_frame(&mut snap, &encode_intent(intent));
        }
        let tmp = path.with_extension("journal.tmp");
        let mut out = OpenOptions::new()
            .write(true)
            .create(true)
            .truncate(true)
            .open(&tmp)?;
        out.write_all(&snap)?;
        out.sync_data()?;
        std::fs::rename(&tmp, &path)?;

        let snapshot = MetaSnapshot {
            twin_metas: twins,
            chains: chains
                .into_iter()
                .map(|(txn, pages)| (txn, pages.into_iter().collect()))
                .collect(),
            intent,
        };
        Ok((
            FileMetaStore {
                file: Mutex::new(out),
            },
            snapshot,
        ))
    }

    fn append(&self, payload: &[u8], sync: bool) {
        let mut file = self.file.lock();
        if let Err(e) = append_frame(&mut file, payload, sync) {
            panic!("meta journal append failed, durability is lost: {e}");
        }
    }
}

impl MetaSink for FileMetaStore {
    fn twin_meta(&self, group: u32, meta: TwinMeta) {
        self.append(&encode_twin_meta(group, meta), true);
    }

    fn chain_steal(&self, txn: u64, page: u32) {
        let mut payload = vec![TAG_CHAIN_STEAL];
        payload.extend_from_slice(&txn.to_le_bytes());
        payload.extend_from_slice(&page.to_le_bytes());
        self.append(&payload, true);
    }

    fn chain_clear_txn(&self, txn: u64) {
        let mut payload = vec![TAG_CHAIN_CLEAR_TXN];
        payload.extend_from_slice(&txn.to_le_bytes());
        self.append(&payload, false);
    }

    fn chain_clear_page(&self, txn: u64, page: u32) {
        let mut payload = vec![TAG_CHAIN_CLEAR_PAGE];
        payload.extend_from_slice(&txn.to_le_bytes());
        payload.extend_from_slice(&page.to_le_bytes());
        self.append(&payload, false);
    }

    fn intent_set(&self, intent: &IntentRecord) {
        self.append(&encode_intent(intent), true);
    }

    fn intent_clear(&self) {
        self.append(&[TAG_INTENT_CLEAR], false);
    }
}

/// A truncate marker frame on disk: length prefix + tag + base.
const MARKER_FRAME_LEN: usize = 4 + 1 + 8;

/// Payload of a truncate marker: the store discarded every record below
/// `base`. At the head of a rewritten journal it also declares where the
/// surviving records' numbering starts.
fn marker(base: u64) -> [u8; 9] {
    let mut payload = [TAG_WAL_TRUNCATE; 9];
    payload[1..].copy_from_slice(&base.to_le_bytes());
    payload
}

/// The base a truncate marker frame declares; `None` for any other frame.
fn marker_base(frame: &[u8]) -> Option<u64> {
    let mut c = Cursor { buf: frame };
    if c.u8()? != TAG_WAL_TRUNCATE {
        return None;
    }
    c.u64()
}

/// What a `wal.journal` byte stream holds.
struct Replayed {
    /// LSN of the first surviving record.
    base: u64,
    /// The surviving records, `base` onwards.
    records: Vec<LogRecord>,
    /// Offset of the first surviving record's frame: everything before it
    /// is dead (`end` when nothing survives).
    live_from: usize,
    /// End of the last whole frame.
    end: usize,
}

/// Replay a `wal.journal` byte stream: `Err(at)` when the surviving
/// record framed at offset `at` does not decode — the journal ends there,
/// markers beyond it included, so the caller replays `buf[..at]`.
fn replay(buf: &[u8]) -> Result<Replayed, usize> {
    // Frame headers only: the markers fix the final base, and a frame
    // that is neither record nor marker ends the journal.
    let mut base = 0u64;
    let mut walk = frames(buf);
    let mut end = 0;
    while let Some(frame) = walk.next() {
        if let Some(declared) = marker_base(frame) {
            base = base.max(declared);
        } else if frame.first() != Some(&TAG_WAL_RECORD) {
            break;
        }
        end = walk.offset();
    }

    // Number the records as the writer did and decode the survivors,
    // each image copied once, out of `buf` into its record.
    let mut records = Vec::new();
    let mut live_from = end;
    let mut next_lsn = 0u64;
    let mut walk = frames(&buf[..end]);
    loop {
        let at = walk.offset();
        let Some(frame) = walk.next() else { break };
        if let Some(declared) = marker_base(frame) {
            // A rewritten journal opens with its marker: the numbering of
            // what follows starts there.
            next_lsn = next_lsn.max(declared);
            continue;
        }
        if next_lsn >= base {
            let Ok((record, _)) = codec::decode_slice(&frame[1..]) else {
                return Err(at);
            };
            if records.is_empty() {
                live_from = at;
            }
            records.push(record);
        }
        next_lsn += 1;
    }
    Ok(Replayed {
        base,
        records,
        live_from,
        end,
    })
}

/// The open `wal.journal` and the buffer a batch is framed in before its
/// one `write`.
struct Journal {
    file: File,
    batch: BytesMut,
}

/// The durable mirror of the write-ahead log.
pub struct FileLogSink {
    journal: Mutex<Journal>,
}

impl FileLogSink {
    fn journal_path(dir: &Path) -> PathBuf {
        dir.join("wal.journal")
    }

    fn over(file: File) -> FileLogSink {
        FileLogSink {
            journal: Mutex::new(Journal {
                file,
                batch: BytesMut::new(),
            }),
        }
    }

    /// Create an empty WAL journal.
    pub(crate) fn create(dir: &Path) -> io::Result<FileLogSink> {
        let file = OpenOptions::new()
            .read(true)
            .write(true)
            .create(true)
            .truncate(true)
            .open(FileLogSink::journal_path(dir))?;
        Ok(FileLogSink::over(file))
    }

    /// Replay the WAL journal of a surviving database and return the sink,
    /// positioned to append after the last whole frame, plus
    /// `(base, records)` for
    /// [`LogStore::restore`](rda_wal::LogStore::restore).
    ///
    /// The file is read once. A torn or undecodable tail is cut off in
    /// place. The file is rewritten — one marker, then the live suffix as
    /// it stands — only when that at least halves it, a rule on the
    /// file's own contents: the dead bytes accumulated since the last
    /// rewrite pay for this one.
    pub(crate) fn load(dir: &Path) -> io::Result<(FileLogSink, u64, Vec<LogRecord>)> {
        let path = FileLogSink::journal_path(dir);
        let mut file = OpenOptions::new().read(true).write(true).open(&path)?;
        let mut buf = Vec::new();
        file.read_to_end(&mut buf)?;

        let mut upto = buf.len();
        let Replayed {
            base,
            records,
            live_from,
            end,
        } = loop {
            match replay(&buf[..upto]) {
                Ok(replayed) => break replayed,
                Err(cut) => upto = cut,
            }
        };

        let live = end - live_from;
        if live_from >= live + 2 * MARKER_FRAME_LEN {
            let tmp = path.with_extension("journal.tmp");
            file = OpenOptions::new()
                .write(true)
                .create(true)
                .truncate(true)
                .open(&tmp)?;
            append_frame(&mut file, &marker(base), false)?;
            file.write_all(&buf[live_from..end])?;
            file.sync_data()?;
            std::fs::rename(&tmp, &path)?;
        } else if end < buf.len() {
            file.set_len(end as u64)?;
            file.seek(SeekFrom::Start(end as u64))?;
        }
        Ok((FileLogSink::over(file), base, records))
    }
}

impl LogSink for FileLogSink {
    fn append_batch(&self, records: &[LogRecord]) {
        let mut journal = self.journal.lock();
        let Journal { file, batch } = &mut *journal;
        batch.clear();
        for record in records {
            batch.put_slice(&(1 + codec::encoded_len(record) as u32).to_le_bytes());
            batch.put_u8(TAG_WAL_RECORD);
            codec::encode(record, batch);
        }
        if let Err(e) = file.write_all(batch) {
            panic!("wal journal append failed, durability is lost: {e}");
        }
    }

    fn sync(&self) {
        if let Err(e) = self.journal.lock().file.sync_data() {
            panic!("wal journal sync failed, durability is lost: {e}");
        }
    }

    fn truncated(&self, new_base: u64) {
        if let Err(e) = append_frame(&mut self.journal.lock().file, &marker(new_base), false) {
            panic!("wal journal append failed, durability is lost: {e}");
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmpdir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("rda-disk-meta-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn meta_journal_roundtrip() {
        let dir = tmpdir("meta-rt");
        let store = FileMetaStore::create(&dir).unwrap();
        let meta = TwinMeta {
            ts: [5, 9],
            state: [TwinState::Obsolete, TwinState::Committed],
        };
        store.twin_meta(1, meta);
        store.chain_steal(42, 7);
        store.chain_steal(42, 9);
        store.chain_steal(43, 1);
        store.chain_clear_txn(43);
        store.chain_clear_page(42, 9);
        let intent = IntentRecord {
            page: 3,
            data: vec![1, 2, 3],
            parity: vec![(0, 1, vec![4, 5])],
        };
        store.intent_set(&intent);
        drop(store);

        let (_store, snap) = FileMetaStore::load(&dir, 4).unwrap();
        assert_eq!(snap.twin_metas[1], meta);
        assert_eq!(snap.twin_metas[0], TwinMeta::fresh());
        assert_eq!(snap.chains, vec![(42, vec![7])]);
        assert_eq!(snap.intent, Some(intent));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn intent_clear_survives() {
        let dir = tmpdir("meta-clear");
        let store = FileMetaStore::create(&dir).unwrap();
        store.intent_set(&IntentRecord {
            page: 1,
            data: vec![0],
            parity: vec![],
        });
        store.intent_clear();
        drop(store);
        let (_store, snap) = FileMetaStore::load(&dir, 1).unwrap();
        assert!(snap.intent.is_none());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn torn_tail_is_dropped() {
        let dir = tmpdir("meta-torn");
        let store = FileMetaStore::create(&dir).unwrap();
        store.chain_steal(1, 1);
        drop(store);
        // Append half a frame: a length prefix promising more than exists.
        let path = FileMetaStore::journal_path(&dir);
        let mut f = OpenOptions::new().append(true).open(&path).unwrap();
        f.write_all(&[200, 0, 0, 0, TAG_CHAIN_STEAL, 9]).unwrap();
        drop(f);
        let (_store, snap) = FileMetaStore::load(&dir, 1).unwrap();
        assert_eq!(snap.chains, vec![(1, vec![1])]);
        // And the snapshot rewrite healed the journal.
        let (_store, snap) = FileMetaStore::load(&dir, 1).unwrap();
        assert_eq!(snap.chains, vec![(1, vec![1])]);
        let _ = std::fs::remove_dir_all(&dir);
    }

    fn bots(ids: std::ops::Range<u64>) -> Vec<LogRecord> {
        ids.map(|i| LogRecord::Bot {
            txn: rda_wal::TxnId(i),
        })
        .collect()
    }

    /// A fresh `wal.journal` holding `bots(0..n)`, closed.
    fn wal_with(tag: &str, n: u64) -> PathBuf {
        let dir = tmpdir(tag);
        let sink = FileLogSink::create(&dir).unwrap();
        sink.append_batch(&bots(0..n));
        sink.sync();
        dir
    }

    fn wal_bytes(dir: &Path) -> Vec<u8> {
        std::fs::read(FileLogSink::journal_path(dir)).unwrap()
    }

    fn append_raw(dir: &Path, bytes: &[u8]) {
        let mut f = OpenOptions::new()
            .append(true)
            .open(FileLogSink::journal_path(dir))
            .unwrap();
        f.write_all(bytes).unwrap();
    }

    /// Length of one framed `Bot` record: prefix + tag + 9 encoded bytes.
    const BOT_FRAME: usize = 4 + 1 + 9;

    #[test]
    fn wal_journal_roundtrip_with_truncation() {
        let dir = wal_with("wal-rt", 4);
        let (sink, _, _) = FileLogSink::load(&dir).unwrap();
        sink.truncated(2);
        drop(sink);

        let (_sink, base, survivors) = FileLogSink::load(&dir).unwrap();
        assert_eq!(base, 2);
        assert_eq!(survivors, bots(2..4));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn batch_is_framed_record_by_record_in_one_buffer() {
        // Same bytes on disk as one frame per record: prefix, tag, record.
        let dir = wal_with("wal-bytes", 2);
        let mut expect = Vec::new();
        for record in bots(0..2) {
            let mut enc = BytesMut::new();
            codec::encode(&record, &mut enc);
            let mut payload = vec![TAG_WAL_RECORD];
            payload.extend_from_slice(&enc);
            push_frame(&mut expect, &payload);
        }
        assert_eq!(wal_bytes(&dir), expect);
        assert_eq!(expect.len(), 2 * BOT_FRAME);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn clean_reopen_leaves_the_journal_byte_identical() {
        let dir = wal_with("wal-clean", 5);
        let before = wal_bytes(&dir);
        let (sink, base, survivors) = FileLogSink::load(&dir).unwrap();
        assert_eq!((base, survivors), (0, bots(0..5)));
        assert_eq!(wal_bytes(&dir), before);
        assert!(!dir.join("wal.journal.tmp").exists(), "nothing to rewrite");
        // Appends resume at the end of the untouched file.
        sink.append_batch(&bots(5..6));
        assert_eq!(wal_bytes(&dir)[..before.len()], before[..]);
        drop(sink);
        let (_sink, base, survivors) = FileLogSink::load(&dir).unwrap();
        assert_eq!((base, survivors), (0, bots(0..6)));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn torn_tail_is_cut_and_appends_resume_there() {
        let dir = wal_with("wal-torn", 3);
        // A kill mid-append: a prefix promising more than was written.
        append_raw(&dir, &[200, 0, 0, 0, TAG_WAL_RECORD, 1, 2]);
        let (sink, base, survivors) = FileLogSink::load(&dir).unwrap();
        assert_eq!((base, survivors), (0, bots(0..3)));
        assert_eq!(wal_bytes(&dir).len(), 3 * BOT_FRAME, "tail cut in place");
        // Without the cut this record would sit behind the torn frame
        // and vanish on the next reopen.
        sink.append_batch(&bots(3..4));
        drop(sink);
        let (_sink, base, survivors) = FileLogSink::load(&dir).unwrap();
        assert_eq!((base, survivors), (0, bots(0..4)));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn corrupt_frame_ends_the_journal_with_everything_behind_it() {
        let dir = wal_with("wal-corrupt", 2);
        // A whole frame that is no record, then a valid record and a
        // marker behind it: all three are past the journal's end.
        let mut tail = Vec::new();
        push_frame(&mut tail, &[TAG_WAL_RECORD, 0xFF, 0xFF]);
        tail.extend_from_slice(&wal_bytes(&dir)[..BOT_FRAME]);
        push_frame(&mut tail, &marker(2));
        append_raw(&dir, &tail);
        let (sink, base, survivors) = FileLogSink::load(&dir).unwrap();
        assert_eq!((base, survivors), (0, bots(0..2)), "marker not honoured");
        assert_eq!(wal_bytes(&dir).len(), 2 * BOT_FRAME);
        sink.append_batch(&bots(2..3));
        drop(sink);
        let (_sink, base, survivors) = FileLogSink::load(&dir).unwrap();
        assert_eq!((base, survivors), (0, bots(0..3)));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn dead_records_are_skipped_not_decoded() {
        let dir = wal_with("wal-dead", 4);
        let (sink, _, _) = FileLogSink::load(&dir).unwrap();
        sink.truncated(3);
        drop(sink);
        // Scribble over dead record 1's payload (tag kept, framing kept):
        // it is below the base, so nothing ever looks inside it.
        let mut bytes = wal_bytes(&dir);
        bytes[BOT_FRAME + 5..2 * BOT_FRAME].fill(0xFF);
        std::fs::write(FileLogSink::journal_path(&dir), &bytes).unwrap();
        let (_sink, base, survivors) = FileLogSink::load(&dir).unwrap();
        assert_eq!((base, survivors), (3, bots(3..4)));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn interleaved_markers_keep_base_survivors_and_numbering() {
        let dir = tmpdir("wal-markers");
        let sink = FileLogSink::create(&dir).unwrap();
        sink.append_batch(&bots(0..10));
        sink.truncated(4);
        sink.append_batch(&bots(10..14));
        sink.truncated(9);
        sink.append_batch(&bots(14..15));
        // The store's base only grows; a stale marker changes nothing.
        sink.truncated(6);
        sink.append_batch(&bots(15..16));
        drop(sink);

        // Record i is LSN i in this history. 9 dead records (126 bytes)
        // against 137 live: the file stays as it is, markers and all.
        let len = wal_bytes(&dir).len();
        let (sink, base, survivors) = FileLogSink::load(&dir).unwrap();
        assert_eq!((base, survivors), (9, bots(9..16)));
        assert_eq!(wal_bytes(&dir).len(), len);
        sink.append_batch(&bots(16..18));
        sink.truncated(12);
        drop(sink);
        // Now 181 bytes precede record 12 and 123 follow: rewritten. The
        // numbering continues through it and through a third reopen.
        let (sink, base, survivors) = FileLogSink::load(&dir).unwrap();
        assert_eq!((base, survivors), (12, bots(12..18)));
        assert_eq!(wal_bytes(&dir).len(), MARKER_FRAME_LEN + 123);
        sink.append_batch(&bots(18..19));
        drop(sink);
        let (_sink, base, survivors) = FileLogSink::load(&dir).unwrap();
        assert_eq!((base, survivors), (12, bots(12..19)));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn journal_is_rewritten_only_when_that_halves_it() {
        // Below the threshold: 2 of 10 records dead. Cut nothing, rewrite
        // nothing; the dead prefix stays where it is.
        let dir = wal_with("wal-keep", 10);
        let (sink, _, _) = FileLogSink::load(&dir).unwrap();
        sink.truncated(2);
        drop(sink);
        let before = wal_bytes(&dir);
        let (_sink, base, survivors) = FileLogSink::load(&dir).unwrap();
        assert_eq!((base, survivors), (2, bots(2..10)));
        assert_eq!(wal_bytes(&dir), before);
        assert!(!dir.join("wal.journal.tmp").exists());
        let _ = std::fs::remove_dir_all(&dir);

        // Above it: 8 of 10 dead. The file becomes one marker plus the
        // live suffix exactly as it stood (records 8, 9 and the old
        // marker), and says the same thing.
        let dir = wal_with("wal-rewrite", 10);
        let (sink, _, _) = FileLogSink::load(&dir).unwrap();
        sink.truncated(8);
        drop(sink);
        let before = wal_bytes(&dir);
        let (_sink, base, survivors) = FileLogSink::load(&dir).unwrap();
        assert_eq!((base, survivors), (8, bots(8..10)));
        let mut expect = Vec::new();
        push_frame(&mut expect, &marker(8));
        expect.extend_from_slice(&before[8 * BOT_FRAME..]);
        assert_eq!(wal_bytes(&dir), expect);
        assert!(!dir.join("wal.journal.tmp").exists(), "renamed into place");
        let (_sink, base, survivors) = FileLogSink::load(&dir).unwrap();
        assert_eq!((base, survivors), (8, bots(8..10)));
        assert_eq!(wal_bytes(&dir), expect, "a rewritten journal is stable");
        let _ = std::fs::remove_dir_all(&dir);
    }
}
