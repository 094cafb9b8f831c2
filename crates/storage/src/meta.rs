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
//! most one intent) and is rewritten as a snapshot on every reopen;
//! between reopens it only grows.
//!
//! `wal.journal` is as large as the retained log, give or take the
//! rule below, while the process runs and when it is reopened. Log
//! truncation appends an O(1) marker frame; the records a marker killed
//! are skipped by tag and LSN, never decoded. The sink knows the file's
//! length and the offset of every retained record's frame, so after each
//! marker — and once in [`FileLogSink::load`], which reads the file once,
//! copies each surviving record once and cuts a torn or undecodable tail
//! off in place (`set_len`) — it applies one rule through one routine
//! (`Journal::reclaim`): when the dead prefix has grown to the size of
//! what would remain, so that a rewrite at least halves the file, the
//! journal becomes one marker plus the live suffix copied byte for byte
//! (tmp + fsync + rename + fsync of the directory). A database that
//! truncates its log every so many commits therefore keeps a journal of
//! at most twice the sum of what it retains and one such interval of
//! frames, and appends into pages the file system just got back instead
//! of ever-fresh ones.
//!
//! Durability policy ([`MetaSink`]'s rule): the frames restart recovery
//! decides by (intent staging, chain links, twin headers) are fsynced as
//! they are appended; pure compaction hints (chain/intent clears, truncate
//! markers) are not. A commit's twin flips arrive as one
//! [`MetaSink::twin_metas`] batch: the same frames, back to back in one
//! `write`, under one fsync — a crash inside it leaves a prefix of whole
//! frames by the torn-tail rule, where eight separately synced appends
//! could leave any prefix too. WAL frames are fsynced when the store
//! forces, via [`LogSink::sync`]. An append or fsync failure panics: a journal that
//! cannot persist has no honest way to keep accepting mutations. A
//! journal *rewrite* that fails is different: the file it meant to
//! replace is whole and stays in service, and the next truncation tries
//! again.

use bytes::{BufMut, BytesMut};
use parking_lot::Mutex;
use rda_core::{IntentRecord, MetaSink, TwinMeta, TwinState};
use rda_wal::{codec, LogRecord, LogSink};
use std::collections::{BTreeMap, BTreeSet, VecDeque};
use std::fs::{File, OpenOptions};
use std::io::{self, Read, Write};
use std::os::unix::fs::FileExt;
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
    append_frames(file, &frame, sync)
}

/// Append already framed bytes — one frame or several back to back — with
/// a single `write`, optionally forcing them to stable storage.
fn append_frames(file: &mut File, frames: &[u8], sync: bool) -> io::Result<()> {
    file.write_all(frames)?;
    if sync {
        file.sync_data()?;
    }
    Ok(())
}

/// Fsync the directory holding `path`, which makes a rename of `path`
/// durable: without it a power loss can bring the replaced file back
/// while later, fsynced appends went to the new one.
pub(crate) fn sync_parent_dir(path: &Path) -> io::Result<()> {
    let dir = path.parent().unwrap_or(Path::new("."));
    File::open(dir)?.sync_all()
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
        sync_parent_dir(&path)?;

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

    /// Run one append against the journal file; a failure is fatal.
    fn journal(&self, append: impl FnOnce(&mut File) -> io::Result<()>) {
        if let Err(e) = append(&mut self.file.lock()) {
            panic!("meta journal append failed, durability is lost: {e}");
        }
    }

    fn append(&self, payload: &[u8], sync: bool) {
        self.journal(|file| append_frame(file, payload, sync));
    }
}

impl MetaSink for FileMetaStore {
    fn twin_meta(&self, group: u32, meta: TwinMeta) {
        self.append(&encode_twin_meta(group, meta), true);
    }

    fn twin_metas(&self, metas: &[(u32, TwinMeta)]) {
        if metas.is_empty() {
            return;
        }
        let mut batch = Vec::new();
        for &(group, meta) in metas {
            push_frame(&mut batch, &encode_twin_meta(group, meta));
        }
        self.journal(|file| append_frames(file, &batch, true));
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

/// A truncate marker as it lies in the file: length prefix and payload.
fn marker_frame(base: u64) -> Vec<u8> {
    let mut frame = Vec::with_capacity(MARKER_FRAME_LEN);
    push_frame(&mut frame, &marker(base));
    frame
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
    /// Offset of each surviving record's frame; everything before the
    /// first is dead.
    offsets: VecDeque<u64>,
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
    let mut offsets = VecDeque::new();
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
            records.push(record);
            offsets.push_back(at as u64);
        }
        next_lsn += 1;
    }
    Ok(Replayed {
        base,
        records,
        offsets,
        end,
    })
}

/// Which step of a journal rewrite a unit test wants to fail; production
/// builds have no such seam (see `io::FailOn`).
#[cfg(test)]
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum FailRewrite {
    /// The temporary file cannot be made durable.
    TmpSync,
    /// The rename went through; the directory fsync after it fails.
    DirSync,
}

/// The open `wal.journal`: where its frames are, and the buffer a batch
/// is framed in before its one `write`. All I/O is positioned at `len`.
struct Journal {
    path: PathBuf,
    file: File,
    batch: BytesMut,
    /// Length of the file: where the next frame lands.
    len: u64,
    /// LSN of the first retained record.
    base: u64,
    /// Offset of each retained record's frame, `base` onwards.
    offsets: VecDeque<u64>,
    /// False from a rename of `path` until the directory holding it has
    /// been fsynced: until then a power loss could bring the replaced
    /// file back, so [`LogSink::sync`] may not report anything stable.
    dir_synced: bool,
    #[cfg(test)]
    fail_rewrite: Option<FailRewrite>,
}

impl Journal {
    fn over(path: PathBuf, file: File, len: u64, base: u64, offsets: VecDeque<u64>) -> Journal {
        Journal {
            path,
            file,
            batch: BytesMut::new(),
            len,
            base,
            offsets,
            dir_synced: true,
            #[cfg(test)]
            fail_rewrite: None,
        }
    }

    #[cfg(test)]
    fn injected(&self, step: FailRewrite) -> io::Result<()> {
        if self.fail_rewrite == Some(step) {
            return Err(io::Error::other(format!("injected {step:?} failure")));
        }
        Ok(())
    }

    /// Append `bytes` (whole frames) at the end of the file.
    fn append(&mut self, bytes: &[u8]) -> io::Result<()> {
        self.file.write_all_at(bytes, self.len)?;
        self.len += bytes.len() as u64;
        Ok(())
    }

    /// Make the rename of `path` durable.
    fn sync_dir(&mut self) -> io::Result<()> {
        #[cfg(test)]
        self.injected(FailRewrite::DirSync)?;
        sync_parent_dir(&self.path)?;
        self.dir_synced = true;
        Ok(())
    }

    /// The one place the journal is rewritten, and the one rule for when:
    /// only if dropping the dead prefix at least halves the file — the
    /// dead bytes accumulated since the last rewrite pay for this one, and
    /// a just-rewritten or near-empty journal (two marker lengths of
    /// slack) is left alone. The new file is one marker declaring `base`,
    /// then the live suffix as it stands, markers and all.
    ///
    /// An error before the rename leaves the old file untouched and in
    /// service. After the rename the new file *is* the journal; if the
    /// directory fsync then fails, `dir_synced` stays false and the next
    /// [`LogSink::sync`] must repeat it before anything counts as stable.
    fn reclaim(&mut self) -> io::Result<()> {
        let live_from = self.offsets.front().copied().unwrap_or(self.len);
        let live = self.len - live_from;
        if live_from < live + 2 * MARKER_FRAME_LEN as u64 {
            return Ok(());
        }
        let mut image = marker_frame(self.base);
        image.resize(MARKER_FRAME_LEN + live as usize, 0);
        self.file
            .read_exact_at(&mut image[MARKER_FRAME_LEN..], live_from)?;

        let tmp = tmp_path(&self.path);
        let renamed = (|| {
            let file = OpenOptions::new()
                .read(true)
                .write(true)
                .create(true)
                .truncate(true)
                .open(&tmp)?;
            file.write_all_at(&image, 0)?;
            #[cfg(test)]
            self.injected(FailRewrite::TmpSync)?;
            file.sync_data()?;
            std::fs::rename(&tmp, &self.path)?;
            Ok(file)
        })();
        let file = match renamed {
            Ok(file) => file,
            Err(e) => {
                let _ = std::fs::remove_file(&tmp);
                return Err(e);
            }
        };
        self.file = file;
        self.len = image.len() as u64;
        let shift = live_from - MARKER_FRAME_LEN as u64;
        for at in &mut self.offsets {
            *at -= shift;
        }
        self.dir_synced = false;
        self.sync_dir()
    }
}

/// Where a rewrite builds the next `wal.journal` before renaming it.
fn tmp_path(journal: &Path) -> PathBuf {
    journal.with_extension("journal.tmp")
}

/// The durable mirror of the write-ahead log.
pub struct FileLogSink {
    journal: Mutex<Journal>,
}

impl FileLogSink {
    fn journal_path(dir: &Path) -> PathBuf {
        dir.join("wal.journal")
    }

    /// Create an empty WAL journal.
    pub(crate) fn create(dir: &Path) -> io::Result<FileLogSink> {
        let path = FileLogSink::journal_path(dir);
        let file = OpenOptions::new()
            .read(true)
            .write(true)
            .create(true)
            .truncate(true)
            .open(&path)?;
        Ok(FileLogSink {
            journal: Mutex::new(Journal::over(path, file, 0, 0, VecDeque::new())),
        })
    }

    /// Replay the WAL journal of a surviving database and return the sink,
    /// positioned to append after the last whole frame, plus
    /// `(base, records)` for
    /// [`LogStore::restore`](rda_wal::LogStore::restore).
    ///
    /// The file is read once. A torn or undecodable tail is cut off in
    /// place, a temporary file a kill left behind mid-rewrite is removed,
    /// and the file is rewritten by the rule, and the routine, every
    /// truncation uses (`Journal::reclaim`).
    pub(crate) fn load(dir: &Path) -> io::Result<(FileLogSink, u64, Vec<LogRecord>)> {
        let path = FileLogSink::journal_path(dir);
        // Killed between creating the temporary file and renaming it: the
        // journal proper is whole, the leftover is not.
        match std::fs::remove_file(tmp_path(&path)) {
            Err(e) if e.kind() != io::ErrorKind::NotFound => return Err(e),
            _ => {}
        }
        let mut file = OpenOptions::new().read(true).write(true).open(&path)?;
        let mut buf = Vec::new();
        file.read_to_end(&mut buf)?;

        let mut upto = buf.len();
        let Replayed {
            base,
            records,
            offsets,
            end,
        } = loop {
            match replay(&buf[..upto]) {
                Ok(replayed) => break replayed,
                Err(cut) => upto = cut,
            }
        };
        if end < buf.len() {
            file.set_len(end as u64)?;
        }
        drop(buf);
        let mut journal = Journal::over(path, file, end as u64, base, offsets);
        journal.reclaim()?;
        let journal = Mutex::new(journal);
        Ok((FileLogSink { journal }, base, records))
    }
}

impl LogSink for FileLogSink {
    fn append_batch(&self, records: &[LogRecord]) {
        let mut journal = self.journal.lock();
        let mut batch = std::mem::take(&mut journal.batch);
        batch.clear();
        for record in records {
            let at = journal.len + batch.len() as u64;
            journal.offsets.push_back(at);
            batch.put_slice(&(1 + codec::encoded_len(record) as u32).to_le_bytes());
            batch.put_u8(TAG_WAL_RECORD);
            codec::encode(record, &mut batch);
        }
        if let Err(e) = journal.append(&batch) {
            panic!("wal journal append failed, durability is lost: {e}");
        }
        journal.batch = batch;
    }

    fn sync(&self) {
        let mut journal = self.journal.lock();
        let mut synced = journal.file.sync_data();
        if synced.is_ok() && !journal.dir_synced {
            synced = journal.sync_dir();
        }
        if let Err(e) = synced {
            panic!("wal journal sync failed, durability is lost: {e}");
        }
    }

    fn truncated(&self, new_base: u64) {
        let mut journal = self.journal.lock();
        if let Err(e) = journal.append(&marker_frame(new_base)) {
            panic!("wal journal append failed, durability is lost: {e}");
        }
        // The store's base only grows; a stale marker kills nothing.
        let killed = new_base.saturating_sub(journal.base);
        let killed = journal.offsets.len().min(killed as usize);
        journal.offsets.drain(..killed);
        journal.base = journal.base.max(new_base);
        // A rewrite that fails costs space, not correctness: the marker
        // above already says what is dead, the file it meant to replace
        // keeps taking appends, and the next truncation tries again.
        let _ = journal.reclaim();
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

    /// The headers a commit flipping groups 0..n would journal.
    fn flips(n: u32) -> Vec<(u32, TwinMeta)> {
        (0..n)
            .map(|g| {
                let meta = TwinMeta {
                    ts: [u64::from(g) + 2, u64::from(g) + 7],
                    state: [TwinState::Obsolete, TwinState::Committed],
                };
                (g, meta)
            })
            .collect()
    }

    #[test]
    fn twin_metas_writes_the_bytes_of_the_same_twin_meta_calls() {
        let (one, all) = (tmpdir("meta-batch-one"), tmpdir("meta-batch-all"));
        let by_one = FileMetaStore::create(&one).unwrap();
        let at_once = FileMetaStore::create(&all).unwrap();
        for store in [&by_one, &at_once] {
            store.chain_steal(9, 3);
        }
        for (group, meta) in flips(8) {
            by_one.twin_meta(group, meta);
        }
        at_once.twin_metas(&flips(8));
        at_once.twin_metas(&[]);
        for store in [&by_one, &at_once] {
            store.chain_clear_txn(9);
        }
        let bytes = |dir: &Path| std::fs::read(FileMetaStore::journal_path(dir)).unwrap();
        assert_eq!(bytes(&one), bytes(&all));
        assert_eq!(frames(&bytes(&all)).count(), 1 + 8 + 1);
        let _ = std::fs::remove_dir_all(&one);
        let _ = std::fs::remove_dir_all(&all);
    }

    #[test]
    fn batch_cut_mid_frame_reloads_the_whole_frames_before_the_cut() {
        let src = tmpdir("meta-batch-cut-src");
        FileMetaStore::create(&src).unwrap().twin_metas(&flips(8));
        let whole = std::fs::read(FileMetaStore::journal_path(&src)).unwrap();
        let _ = std::fs::remove_dir_all(&src);
        let frame = whole.len() / 8;
        assert_eq!(frame * 8, whole.len(), "eight frames of one size");

        let dir = tmpdir("meta-batch-cut");
        for cut in 0..=whole.len() {
            std::fs::write(FileMetaStore::journal_path(&dir), &whole[..cut]).unwrap();
            let (_store, snap) = FileMetaStore::load(&dir, 8).unwrap();
            let mut expect = vec![TwinMeta::fresh(); 8];
            for (group, meta) in flips((cut / frame) as u32) {
                expect[group as usize] = meta;
            }
            assert_eq!(snap.twin_metas, expect, "cut at byte {cut}");
        }
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

    /// What the sink believes about its file is what a fresh walk finds.
    fn assert_matches_a_fresh_walk(sink: &FileLogSink, dir: &Path) {
        let bytes = wal_bytes(dir);
        let fresh = replay(&bytes).expect("every surviving record decodes");
        assert_eq!(fresh.end, bytes.len(), "no torn tail left in the file");
        let journal = sink.journal.lock();
        assert_eq!(
            (journal.len, journal.base, &journal.offsets),
            (fresh.end as u64, fresh.base, &fresh.offsets)
        );
    }

    fn tmp_exists(dir: &Path) -> bool {
        tmp_path(&FileLogSink::journal_path(dir)).exists()
    }

    #[test]
    fn interleaved_markers_keep_base_survivors_and_numbering() {
        let dir = tmpdir("wal-markers");
        let sink = FileLogSink::create(&dir).unwrap();
        // Record i is LSN i in this history.
        sink.append_batch(&bots(0..10));
        sink.truncated(4);
        // 56 dead bytes against 97 live: the file stays, marker and all.
        assert_eq!(wal_bytes(&dir).len(), 10 * BOT_FRAME + MARKER_FRAME_LEN);
        sink.append_batch(&bots(10..14));
        let before = wal_bytes(&dir);
        sink.truncated(9);
        // 126 dead against 96 live: rewritten under the running sink to
        // its own marker plus everything from record 9 on, old markers
        // included.
        let mut expect = marker_frame(9);
        expect.extend_from_slice(&before[9 * BOT_FRAME..]);
        expect.extend_from_slice(&marker_frame(9));
        assert_eq!(wal_bytes(&dir), expect);
        assert_matches_a_fresh_walk(&sink, &dir);
        sink.append_batch(&bots(14..15));
        // The store's base only grows; a stale marker changes nothing.
        sink.truncated(6);
        sink.append_batch(&bots(15..16));
        assert_matches_a_fresh_walk(&sink, &dir);
        drop(sink);

        // The numbering continues through the rewrite and a reopen...
        let len = wal_bytes(&dir).len();
        let (sink, base, survivors) = FileLogSink::load(&dir).unwrap();
        assert_eq!((base, survivors), (9, bots(9..16)));
        assert_eq!(wal_bytes(&dir).len(), len);
        sink.append_batch(&bots(16..18));
        // ...through a truncation that leaves the file alone (68 dead
        // bytes against 123)...
        sink.truncated(12);
        assert_eq!(
            wal_bytes(&dir).len(),
            len + 2 * BOT_FRAME + MARKER_FRAME_LEN
        );
        assert_matches_a_fresh_walk(&sink, &dir);
        drop(sink);
        let (sink, base, survivors) = FileLogSink::load(&dir).unwrap();
        assert_eq!((base, survivors), (12, bots(12..18)));
        // ...and through a second rewrite by the reopened sink: record 17,
        // the marker that followed it, record 18.
        sink.append_batch(&bots(18..19));
        let before = wal_bytes(&dir);
        sink.truncated(17);
        let mut expect = marker_frame(17);
        expect.extend_from_slice(&before[before.len() - (2 * BOT_FRAME + MARKER_FRAME_LEN)..]);
        expect.extend_from_slice(&marker_frame(17));
        assert_eq!(wal_bytes(&dir), expect);
        assert_matches_a_fresh_walk(&sink, &dir);
        drop(sink);
        let (_sink, base, survivors) = FileLogSink::load(&dir).unwrap();
        assert_eq!((base, survivors), (17, bots(17..19)));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn journal_is_rewritten_only_when_that_halves_it() {
        // Ten records, then a truncation: 14·k dead bytes against
        // 14·(10 − k) + 13 live ones and 26 of slack. k = 6 falls short
        // (84 < 95): the truncation appends its marker and nothing else.
        let dir = wal_with("wal-keep", 10);
        let before = wal_bytes(&dir);
        let (sink, _, _) = FileLogSink::load(&dir).unwrap();
        sink.truncated(6);
        let mut expect = before.clone();
        expect.extend_from_slice(&marker_frame(6));
        assert_eq!(wal_bytes(&dir), expect);
        assert!(!tmp_exists(&dir));
        drop(sink);
        // Nor does the reopen, by the same rule.
        let (sink, base, survivors) = FileLogSink::load(&dir).unwrap();
        assert_eq!((base, survivors), (6, bots(6..10)));
        assert_eq!(wal_bytes(&dir), expect);
        assert!(!tmp_exists(&dir));
        assert_matches_a_fresh_walk(&sink, &dir);
        let _ = std::fs::remove_dir_all(&dir);

        // k = 7 pays (98 ≥ 81): the file becomes one marker plus the live
        // suffix exactly as it stood (records 7 to 9 and the marker just
        // appended), and says the same thing.
        let dir = wal_with("wal-rewrite", 10);
        let (sink, _, _) = FileLogSink::load(&dir).unwrap();
        sink.truncated(7);
        let mut expect = marker_frame(7);
        expect.extend_from_slice(&before[7 * BOT_FRAME..]);
        expect.extend_from_slice(&marker_frame(7));
        assert_eq!(wal_bytes(&dir), expect);
        assert!(!tmp_exists(&dir), "renamed into place");
        assert_matches_a_fresh_walk(&sink, &dir);
        // Appends land behind it and a reopen leaves it alone.
        sink.append_batch(&bots(10..11));
        sink.sync();
        drop(sink);
        let grown = wal_bytes(&dir);
        assert_eq!(grown[..expect.len()], expect[..]);
        let (sink, base, survivors) = FileLogSink::load(&dir).unwrap();
        assert_eq!((base, survivors), (7, bots(7..11)));
        assert_eq!(wal_bytes(&dir), grown, "a rewritten journal is stable");
        assert_matches_a_fresh_walk(&sink, &dir);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn offsets_after_load_agree_with_a_fresh_walk() {
        // Plain: nothing dead, nothing torn.
        let dir = wal_with("wal-offsets-plain", 5);
        let (sink, _, _) = FileLogSink::load(&dir).unwrap();
        assert_eq!(sink.journal.lock().offsets.len(), 5);
        assert_matches_a_fresh_walk(&sink, &dir);
        let _ = std::fs::remove_dir_all(&dir);

        // Tail cut: the offsets describe the shortened file.
        let dir = wal_with("wal-offsets-cut", 5);
        append_raw(&dir, &[200, 0, 0, 0, TAG_WAL_RECORD, 1, 2]);
        let (sink, _, _) = FileLogSink::load(&dir).unwrap();
        assert_eq!(sink.journal.lock().len, 5 * BOT_FRAME as u64);
        assert_matches_a_fresh_walk(&sink, &dir);
        let _ = std::fs::remove_dir_all(&dir);

        // Rewritten by the load itself: the offsets describe the new file,
        // and the next batch lands where they say.
        let dir = wal_with("wal-offsets-rewritten", 10);
        append_raw(&dir, &marker_frame(8));
        let (sink, _, _) = FileLogSink::load(&dir).unwrap();
        assert_eq!(
            sink.journal.lock().offsets,
            [MARKER_FRAME_LEN, MARKER_FRAME_LEN + BOT_FRAME].map(|at| at as u64)
        );
        assert_matches_a_fresh_walk(&sink, &dir);
        sink.append_batch(&bots(10..12));
        assert_matches_a_fresh_walk(&sink, &dir);
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// A process killed anywhere in a truncation's rewrite reopens to the
    /// same log. The three states the directory can be left in are built
    /// by hand here; `tests/kill_process.rs` finds them with SIGKILL.
    #[test]
    fn every_kill_window_of_a_rewrite_reopens_to_the_same_log() {
        let src = wal_with("wal-window-src", 10);
        let mut marked = wal_bytes(&src);
        let _ = std::fs::remove_dir_all(&src);
        marked.extend_from_slice(&marker_frame(8));
        let mut rewritten = marker_frame(8);
        rewritten.extend_from_slice(&marked[8 * BOT_FRAME..]);

        let (marked, rewritten) = (&marked[..], &rewritten[..]);
        let windows = [
            ("marker appended, no tmp", marked, None),
            ("tmp half written", marked, Some(&rewritten[..20])),
            ("tmp complete, not renamed", marked, Some(rewritten)),
            ("renamed", rewritten, None),
        ];
        for (n, (window, journal, tmp)) in windows.into_iter().enumerate() {
            let dir = tmpdir(&format!("wal-window-{n}"));
            let path = FileLogSink::journal_path(&dir);
            std::fs::write(&path, journal).unwrap();
            if let Some(tmp) = tmp {
                std::fs::write(tmp_path(&path), tmp).unwrap();
            }
            let (sink, base, survivors) = FileLogSink::load(&dir).unwrap();
            assert_eq!((base, survivors), (8, bots(8..10)), "{window}");
            assert!(!tmp_exists(&dir), "{window}: stale tmp removed");
            assert_eq!(wal_bytes(&dir), rewritten, "{window}");
            // And the log carries on from there.
            sink.append_batch(&bots(10..11));
            sink.sync();
            drop(sink);
            let (_sink, base, survivors) = FileLogSink::load(&dir).unwrap();
            assert_eq!((base, survivors), (8, bots(8..11)), "{window}");
            let _ = std::fs::remove_dir_all(&dir);
        }
    }

    #[test]
    fn failed_rewrite_keeps_the_old_journal_appending_and_recovering() {
        let dir = wal_with("wal-rewrite-fails", 10);
        let (sink, _, _) = FileLogSink::load(&dir).unwrap();
        let old = wal_bytes(&dir);
        sink.journal.lock().fail_rewrite = Some(FailRewrite::TmpSync);
        // Does not panic: the marker is in, the rewrite is not.
        sink.truncated(8);
        let mut expect = old.clone();
        expect.extend_from_slice(&marker_frame(8));
        assert_eq!(wal_bytes(&dir), expect, "old file, marker appended");
        assert!(!tmp_exists(&dir), "the failed attempt is cleaned up");
        assert_matches_a_fresh_walk(&sink, &dir);
        // The old file keeps taking forced appends...
        sink.append_batch(&bots(10..11));
        sink.sync();
        assert_eq!(wal_bytes(&dir).len(), expect.len() + BOT_FRAME);
        // ...the next truncation tries again, and once the fault is gone
        // it succeeds.
        sink.truncated(9);
        assert!(wal_bytes(&dir).len() > expect.len(), "still failing");
        sink.journal.lock().fail_rewrite = None;
        sink.truncated(10);
        // Its own marker, record 10, and the two markers behind it.
        assert_eq!(
            wal_bytes(&dir).len(),
            MARKER_FRAME_LEN + BOT_FRAME + 2 * MARKER_FRAME_LEN
        );
        assert_matches_a_fresh_walk(&sink, &dir);
        drop(sink);
        let (_sink, base, survivors) = FileLogSink::load(&dir).unwrap();
        assert_eq!((base, survivors), (10, bots(10..11)));
        let _ = std::fs::remove_dir_all(&dir);

        // Killed while the rewrite was failing: the old file recovers.
        let dir = wal_with("wal-rewrite-fails-kill", 10);
        let (sink, _, _) = FileLogSink::load(&dir).unwrap();
        sink.journal.lock().fail_rewrite = Some(FailRewrite::TmpSync);
        sink.truncated(8);
        sink.append_batch(&bots(10..11));
        sink.sync();
        drop(sink);
        let (_sink, base, survivors) = FileLogSink::load(&dir).unwrap();
        assert_eq!((base, survivors), (8, bots(8..11)));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn unsynced_rename_is_made_durable_before_the_next_ack() {
        let dir = wal_with("wal-dirsync", 10);
        let (sink, _, _) = FileLogSink::load(&dir).unwrap();
        sink.journal.lock().fail_rewrite = Some(FailRewrite::DirSync);
        // The rename happened, so the new file is the journal; what is
        // owed is the directory fsync.
        sink.truncated(8);
        assert_eq!(
            wal_bytes(&dir).len(),
            MARKER_FRAME_LEN + 2 * BOT_FRAME + MARKER_FRAME_LEN
        );
        assert!(!sink.journal.lock().dir_synced);
        assert_matches_a_fresh_walk(&sink, &dir);
        sink.append_batch(&bots(10..11));
        // While it stays owed, a force fails as any journal fsync does.
        let forced = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| sink.sync()));
        assert!(forced.is_err(), "no ack over a rename that may not last");
        sink.journal.lock().fail_rewrite = None;
        sink.sync();
        assert!(sink.journal.lock().dir_synced, "sync() paid the debt");
        drop(sink);
        let (_sink, base, survivors) = FileLogSink::load(&dir).unwrap();
        assert_eq!((base, survivors), (8, bots(8..11)));
        let _ = std::fs::remove_dir_all(&dir);
    }
}
