//! The two metadata journals of a file-backed database.
//!
//! * `meta.journal` ([`FileMetaStore`]) persists what the simulated array
//!   keeps in modeled NVRAM: the staged write intent, of which there is
//!   never more than one. It implements [`MetaSink`]; the file is one
//!   checksummed slot, overwritten in place and fsynced by every call
//!   (see [`slot`]), and a reopen reads it and writes nothing. (The twin
//!   parity headers need no journal: they live in their parity blocks,
//!   see `crate::io`.)
//! * `wal.journal` ([`FileLogSink`]) mirrors the write-ahead log through
//!   the [`LogSink`] seam, reusing `rda-wal`'s record codec: an
//!   append-only stream of length-prefixed frames behind a fixed
//!   `HEAD_LEN`-byte head slot that says where its live log starts (see
//!   `Head`). A process death can leave at most a partial frame at the
//!   tail; loading stops at the first incomplete or undecodable frame,
//!   which is exactly the not-yet-durable suffix.
//!
//! ## Lifecycle: `wal.journal` gives space back while the process runs
//!
//! The journal knows its file's length and what of it is still live, and
//! has one routine that replaces the file by a shorter image of itself
//! (`JournalFile::replace`: the image into `wal.journal.tmp`,
//! `sync_data`, rename over the journal, fsync of the directory, the open
//! handle swapped under the journal's lock). A rewrite costs 100–200 µs,
//! so it has to be rare: it happens only once the dead bytes exceed the
//! live ones **by a floor**, a private constant chosen so that on the
//! benchmark's `file-commit` workload a rewrite lands on fewer than one
//! commit in 400 (at one in 64 the commit p99 rose 60 %).
//!
//! Log truncation — which the engine performs at every commit under
//! FORCE — costs no write of its own: the O(1) marker frame that declares
//! the new base rides at the head of the next batch's one `write` (or
//! goes out when the sink is dropped; a marker that never lands only
//! costs the next reopen some decoding). The records a marker killed are
//! skipped by tag and LSN, never decoded. The sink knows the offset of
//! every retained record's frame, and after each truncation — and once in
//! [`FileLogSink::load`], which reads the file once, copies each
//! surviving record once and cuts a torn or undecodable tail off in place
//! (`set_len`) — `Journal::reclaim` applies one rule: when `dead ≥ live +
//! FLOOR` the journal becomes a head slot, one marker and the live suffix
//! copied byte for byte. The file therefore never exceeds `2 × live +
//! FLOOR` plus one commit's frames. Between rewrites the head slot
//! follows the live log in steps of `HEAD_STEP` (`Journal::advance_head`),
//! so a reopen reads the slot and the bytes from where it points: at most
//! `HEAD_STEP` of dead log, not up to `FLOOR` of it.
//!
//! ## What is durable when
//!
//! WAL frames are fsynced when the store forces, via [`LogSink::sync`];
//! that fsync also carries the last head-slot write, which only ever
//! names a frame already synced. Truncate markers, pure compaction hints,
//! are not fsynced. A rewritten journal is made durable (`sync_data`)
//! before it is renamed into place, and no later fsync reports success
//! until the rename is (directory fsync), so a run-time rewrite never
//! weakens what an earlier call promised. A write or fsync failure, in
//! either journal, panics: a journal that cannot persist has no honest
//! way to keep accepting mutations. A *rewrite* that fails is different:
//! the file it meant to replace is whole and stays in service, the
//! failure is counted (`wal_journal_rewrite_failures_total`), and the
//! next opportunity tries again.

use rda_array::xor::checksum;
use rda_array::{DataPageId, GroupId, Header, Page, ParitySlot};
use rda_core::{IntentRecord, MetaSink};
use rda_obs::sync::Mutex;
use rda_obs::Counter;
use rda_wal::{codec, LogRecord, LogSink};
use std::collections::VecDeque;
use std::fs::{File, OpenOptions};
use std::io::{self, Read, Write};
use std::os::unix::fs::FileExt;
use std::path::{Path, PathBuf};
use std::sync::Arc;

/// First byte of a staged intent in `meta.journal`'s slot.
const TAG_INTENT_SET: u8 = 5;
/// `wal.journal` frame tags share the numbering but live in their own file.
const TAG_WAL_RECORD: u8 = 16;
const TAG_WAL_TRUNCATE: u8 = 17;

/// `wal.journal` is rewritten once its dead prefix exceeds what would
/// remain by this much. At 16.3 KB of log per commit (the benchmark's
/// `file-commit`) that is one rewrite per ≈ 510 commits; 4 MiB (one per
/// ≈ 255) already showed in that workload's commit p99, 1 MiB raised it
/// 60 %. A reopen does not pay for it: it starts at the head slot.
const FLOOR: u64 = 8 << 20;

/// Bytes of `wal.journal`'s head slot, before its first frame.
const HEAD_LEN: u64 = 32;

/// The head slot moves once the first live frame is this far past where
/// it points: one 32-byte `pwrite` per this much dead log (one per ≈ 16
/// commits of `file-commit`), and at most this much dead log for a
/// reopen to read.
const HEAD_STEP: u64 = 256 << 10;

/// First bytes of a head slot.
const HEAD_TAG: &[u8; 8] = b"rdawal\x00\x04";

/// Bytes of `meta.journal`'s slot before its payload: `len` and `sum`.
const SLOT_HEAD: usize = 4 + 8;

/// Append one length-prefixed frame to a byte buffer.
fn push_frame(out: &mut Vec<u8>, payload: &[u8]) {
    out.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    out.extend_from_slice(payload);
}

/// Append one length-prefixed frame with a single `write`, optionally
/// forcing it to stable storage before returning: the flight recorder's
/// `obs.journal` (see `crate::flight`) reuses this torn-tail framing for
/// its black-box snapshots.
pub(crate) fn append_frame(file: &mut File, payload: &[u8], sync: bool) -> io::Result<()> {
    let mut frame = Vec::with_capacity(4 + payload.len());
    push_frame(&mut frame, payload);
    file.write_all(&frame)?;
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

    /// A block as [`push_block`] wrote it.
    fn block(&mut self) -> Option<Page> {
        let header = Header::from_bytes(self.take(Header::LEN)?.try_into().ok()?)?;
        Some(Page::from_bytes(&self.bytes()?).with_header(header))
    }

    fn bytes(&mut self) -> Option<Vec<u8>> {
        let len = self.u32()? as usize;
        self.take(len).map(<[u8]>::to_vec)
    }
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

/// How often one journal was written to and synced, how often it
/// replaced its file, and how often that failed; exported as
/// `<wal|meta>_journal_{appends,fsyncs}_total` (a `meta.journal` append
/// is a slot write) and `wal_journal_{rewrites,rewrite_failures}_total`
/// (`meta.journal` is never rewritten).
#[derive(Default)]
pub(crate) struct JournalStats {
    pub(crate) appends: Counter,
    pub(crate) fsyncs: Counter,
    pub(crate) rewrites: Counter,
    pub(crate) rewrite_failures: Counter,
}

/// Where a rewrite builds the next journal before renaming it.
fn tmp_path(journal: &Path) -> PathBuf {
    journal.with_extension("journal.tmp")
}

/// An open journal file: where its next frame lands, and the one routine
/// that replaces the file by a shorter image of itself. All I/O is
/// positioned at `len`.
struct JournalFile {
    path: PathBuf,
    file: File,
    /// Length of the file: where the next frame lands.
    len: u64,
    /// How much of the file the last successful [`JournalFile::sync`] (or
    /// rewrite) made durable; 0 until then.
    synced: u64,
    /// False from a rename of `path` until the directory holding it has
    /// been fsynced: until then a power loss could bring the replaced
    /// file back, so [`JournalFile::sync`] may not report anything stable.
    dir_synced: bool,
    stats: Arc<JournalStats>,
    #[cfg(test)]
    fail_rewrite: Option<FailRewrite>,
}

impl JournalFile {
    /// The journal at `path`: created empty (`fresh`), or as it survived.
    fn open(path: PathBuf, fresh: bool) -> io::Result<JournalFile> {
        let file = OpenOptions::new()
            .read(true)
            .write(true)
            .create(fresh)
            .truncate(fresh)
            .open(&path)?;
        let len = file.metadata()?.len();
        Ok(JournalFile {
            path,
            file,
            len,
            synced: 0,
            dir_synced: true,
            stats: Arc::default(),
            #[cfg(test)]
            fail_rewrite: None,
        })
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
        self.stats.appends.inc();
        self.len += bytes.len() as u64;
        Ok(())
    }

    /// Make everything appended so far stable — including, if a rewrite
    /// left it owing, the rename that put this file in place.
    fn sync(&mut self) -> io::Result<()> {
        self.file.sync_data()?;
        self.stats.fsyncs.inc();
        if !self.dir_synced {
            self.sync_dir()?;
        }
        self.synced = self.len;
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

    /// The one place a journal is rewritten: `image` becomes the file,
    /// durable before it is renamed into place; the caller follows up
    /// with [`JournalFile::sync_dir`].
    ///
    /// An error leaves the old file untouched and in service. After `Ok`
    /// the new file *is* the journal; until the directory fsync succeeds
    /// `dir_synced` stays false and the next [`JournalFile::sync`] must
    /// repeat it before anything counts as stable.
    fn replace(&mut self, image: &[u8]) -> io::Result<()> {
        let tmp = tmp_path(&self.path);
        let renamed = (|| {
            let file = OpenOptions::new()
                .read(true)
                .write(true)
                .create(true)
                .truncate(true)
                .open(&tmp)?;
            file.write_all_at(image, 0)?;
            #[cfg(test)]
            self.injected(FailRewrite::TmpSync)?;
            file.sync_data()?;
            std::fs::rename(&tmp, &self.path)?;
            Ok(file)
        })();
        match renamed {
            Ok(file) => self.file = file,
            Err(e) => {
                let _ = std::fs::remove_file(&tmp);
                return Err(e);
            }
        }
        self.len = image.len() as u64;
        self.synced = self.len;
        self.dir_synced = false;
        self.stats.rewrites.inc();
        Ok(())
    }

    /// A rewrite that fails costs space, not correctness: what it meant
    /// to replace keeps taking appends and the next opportunity tries
    /// again. It is counted, not swallowed.
    fn note_rewrite(&self, outcome: &io::Result<()>) {
        if outcome.is_err() {
            self.stats.rewrite_failures.inc();
        }
    }
}

/// Append one block: its header, then its image with a length prefix.
fn push_block(out: &mut Vec<u8>, block: &Page) {
    out.extend_from_slice(&block.header().to_bytes());
    out.extend_from_slice(&(block.len() as u32).to_le_bytes());
    out.extend_from_slice(block.as_ref());
}

fn encode_intent(intent: &IntentRecord) -> Vec<u8> {
    let mut out = vec![TAG_INTENT_SET];
    out.extend_from_slice(&intent.page.0.to_le_bytes());
    push_block(&mut out, &intent.data);
    out.extend_from_slice(&(intent.parity.len() as u32).to_le_bytes());
    for (group, slot, block) in &intent.parity {
        out.extend_from_slice(&group.0.to_le_bytes());
        out.push(slot.index() as u8);
        push_block(&mut out, block);
    }
    out
}

/// The body of an encoded intent, behind its tag.
fn decode_intent(c: &mut Cursor<'_>) -> Option<IntentRecord> {
    let page = DataPageId(c.u32()?);
    let data = c.block()?;
    let n = c.u32()?;
    let mut parity = Vec::with_capacity(n as usize);
    for _ in 0..n {
        let (group, slot) = (GroupId(c.u32()?), c.u8()?);
        let slot = *ParitySlot::BOTH.get(usize::from(slot))?;
        parity.push((group, slot, c.block()?));
    }
    Some(IntentRecord { page, data, parity })
}

/// `meta.journal`'s slot holding `payload`: `len: u32 | sum: u64 |
/// payload`, `sum` being [`checksum`] of the `len` payload bytes (the
/// checksum mixes in how many bytes it sums, so it covers `len` too). The
/// payload is an intent as [`encode_intent`] writes it, or empty for
/// "nothing staged". Bytes of a longer earlier slot behind `len` are
/// never read.
///
/// Every slot is written at offset 0, over the one before, and there is
/// no second slot to fall back on. A write a crash tears fails its sum
/// and [`staged_in`] reads "nothing staged", which is always correct, by
/// the order in which `rda-core`'s engine uses the slot:
///
/// * it stages an intent only after a write barrier has made the previous
///   sequence durable (`Engine::write_with_parity`), so the intent a torn
///   staging overwrote had nothing left to replay;
/// * it issues no platter write of a sequence until its slot is synced,
///   so the torn intent guarded nothing yet;
/// * it clears an intent only after a barrier (`Engine::retire_intent`),
///   so a torn clear leaves nothing to replay either.
///
/// A write that never reached the file leaves the old slot whole, and its
/// call never returned: nothing after it was issued, so a replay of the
/// old intent writes images that are already there.
fn slot(payload: &[u8]) -> Vec<u8> {
    let mut slot = Vec::with_capacity(SLOT_HEAD + payload.len());
    slot.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    slot.extend_from_slice(&checksum(payload).to_le_bytes());
    slot.extend_from_slice(payload);
    slot
}

/// The intent the `meta.journal` image `file` holds staged: `None` for
/// an empty slot, and for one that is torn, cut short or foreign.
fn staged_in(file: &[u8]) -> Option<IntentRecord> {
    let mut c = Cursor { buf: file };
    let len = c.u32()? as usize;
    let sum = c.u64()?;
    let payload = c.take(len)?;
    if checksum(payload) != sum {
        return None;
    }
    let mut c = Cursor { buf: payload };
    if c.u8()? != TAG_INTENT_SET {
        return None;
    }
    decode_intent(&mut c)
}

/// The durable side of the staged intent: `meta.journal`, one slot
/// overwritten in place (see [`slot`]).
pub struct FileMetaStore {
    file: Mutex<File>,
    stats: Arc<JournalStats>,
}

impl FileMetaStore {
    /// `dir`'s `meta.journal`: created empty (`fresh`; a file too short
    /// to hold a slot stages nothing), or as it survived.
    fn open(dir: &Path, fresh: bool) -> io::Result<File> {
        OpenOptions::new()
            .read(true)
            .write(true)
            .create(fresh)
            .truncate(fresh)
            .open(dir.join("meta.journal"))
    }

    fn over(file: File) -> FileMetaStore {
        FileMetaStore {
            file: Mutex::new(file),
            stats: Arc::default(),
        }
    }

    /// Create an empty journal for a freshly formatted database.
    pub(crate) fn create(dir: &Path) -> io::Result<FileMetaStore> {
        Ok(FileMetaStore::over(FileMetaStore::open(dir, true)?))
    }

    /// Open the journal of a surviving database and return the store plus
    /// the intent it held staged. One read, no write.
    pub(crate) fn load(dir: &Path) -> io::Result<(FileMetaStore, Option<IntentRecord>)> {
        let mut file = FileMetaStore::open(dir, false)?;
        let mut bytes = Vec::new();
        file.read_to_end(&mut bytes)?;
        Ok((FileMetaStore::over(file), staged_in(&bytes)))
    }

    /// Tallies of this journal's slot writes and fsyncs, for the metrics
    /// registry.
    pub(crate) fn stats(&self) -> Arc<JournalStats> {
        Arc::clone(&self.stats)
    }

    /// Current length of `meta.journal`: the longest slot it has held.
    pub(crate) fn journal_bytes(&self) -> u64 {
        self.file.lock().metadata().map_or(0, |m| m.len())
    }

    /// Overwrite the slot with `payload` and make it durable; a failure
    /// is fatal.
    fn write(&self, payload: &[u8]) {
        let file = self.file.lock();
        if let Err(e) = file
            .write_all_at(&slot(payload), 0)
            .and_then(|()| file.sync_data())
        {
            panic!("meta journal write failed, durability is lost: {e}");
        }
        self.stats.appends.inc();
        self.stats.fsyncs.inc();
    }
}

impl MetaSink for FileMetaStore {
    fn intent_set(&self, intent: &IntentRecord) {
        self.write(&encode_intent(intent));
    }

    fn intent_clear(&self) {
        self.write(&[]);
    }
}

/// A truncate marker frame on disk: length prefix + tag + base.
const MARKER_FRAME_LEN: usize = 4 + 1 + 8;

/// Payload of a truncate marker: the store discarded every record below
/// `base`. At the head of a rewritten journal's frames it also declares
/// where the surviving records' numbering starts.
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

/// `wal.journal`'s head slot: where a reopen starts reading. It names the
/// frame at offset `from` and the LSN of the first record from there on;
/// every record before `from` is dead. On disk: [`HEAD_TAG`], `from`,
/// `lsn`, then the checksum of those 24 bytes.
///
/// The slot only ever names a frame that was already durable when the
/// slot was written, so a power loss can cost it its write (or tear it)
/// but never leave it pointing past the durable log. A slot that does not
/// decode, or points past the end of the file, is [`Head::START`]: a walk
/// of the whole file, which a rewritten journal's leading marker keeps
/// numbered correctly.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Head {
    from: u64,
    lsn: u64,
}

impl Head {
    /// The first frame, numbered from LSN 0: the whole journal.
    const START: Head = Head {
        from: HEAD_LEN,
        lsn: 0,
    };

    /// The slot as it lies in the file.
    fn encode(self) -> [u8; HEAD_LEN as usize] {
        let mut slot = [0; HEAD_LEN as usize];
        slot[..8].copy_from_slice(HEAD_TAG);
        slot[8..16].copy_from_slice(&self.from.to_le_bytes());
        slot[16..24].copy_from_slice(&self.lsn.to_le_bytes());
        let sum = checksum(&slot[..24]);
        slot[24..].copy_from_slice(&sum.to_le_bytes());
        slot
    }

    /// The slot `bytes` hold; `None` when it is torn or foreign.
    fn decode(slot: &[u8; HEAD_LEN as usize]) -> Option<Head> {
        let mut c = Cursor { buf: slot };
        if c.take(8)? != HEAD_TAG {
            return None;
        }
        let head = Head {
            from: c.u64()?,
            lsn: c.u64()?,
        };
        (c.u64()? == checksum(&slot[..24]) && head.from >= HEAD_LEN).then_some(head)
    }
}

/// What a `wal.journal` byte stream holds.
struct Replayed {
    /// LSN of the first surviving record.
    base: u64,
    /// The surviving records, `base` onwards.
    records: Vec<LogRecord>,
    /// File offset of each surviving record's frame; everything before
    /// the first is dead.
    offsets: VecDeque<u64>,
    /// File offset of the end of the last whole frame.
    end: u64,
}

/// Replay the frames of `wal.journal` from `head` on, `body` being the
/// file's bytes from `head.from`: `Err(at)` when the surviving record
/// framed at file offset `at` does not decode — the journal ends there,
/// markers beyond it included, so the caller replays up to `at`.
fn replay(body: &[u8], head: Head) -> Result<Replayed, u64> {
    // Frame headers only: the markers fix the final base, and a frame
    // that is neither record nor marker ends the journal.
    let mut base = head.lsn;
    let mut walk = frames(body);
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
    // each image copied once, out of `body` into its record.
    let mut records = Vec::new();
    let mut offsets = VecDeque::new();
    let mut next_lsn = head.lsn;
    let mut walk = frames(&body[..end]);
    loop {
        let at = head.from + walk.offset() as u64;
        let Some(frame) = walk.next() else { break };
        if let Some(declared) = marker_base(frame) {
            // A rewritten journal's frames open with its marker: the
            // numbering of what follows starts there.
            next_lsn = next_lsn.max(declared);
            continue;
        }
        if next_lsn >= base {
            let Ok((record, _)) = codec::decode_slice(&frame[1..]) else {
                return Err(at);
            };
            records.push(record);
            offsets.push_back(at);
        }
        next_lsn += 1;
    }
    Ok(Replayed {
        base,
        records,
        offsets,
        end: head.from + end as u64,
    })
}

/// The open `wal.journal`: where its frames are, and the buffer a batch
/// is framed in before its one `write`.
struct Journal {
    file: JournalFile,
    batch: Vec<u8>,
    /// What the head slot says, as far as this process wrote it or
    /// trusted it at load.
    head: Head,
    /// LSN of the first retained record.
    base: u64,
    /// Offset of each retained record's frame, `base` onwards.
    offsets: VecDeque<u64>,
    /// `base` has grown since the file last said so: the marker declaring
    /// it rides at the head of the next batch's one `write` (or goes out
    /// when the sink is dropped). A marker that never lands only costs
    /// the next reopen some decoding.
    marker_owed: bool,
}

impl Journal {
    fn over(file: JournalFile, head: Head, base: u64, offsets: VecDeque<u64>) -> Journal {
        Journal {
            file,
            batch: Vec::new(),
            head,
            base,
            offsets,
            marker_owed: false,
        }
    }

    /// Offset of the first retained frame: where the next frame lands
    /// when nothing is retained.
    fn live_from(&self) -> u64 {
        self.offsets.front().copied().unwrap_or(self.file.len)
    }

    /// The one rule for when `wal.journal` is rewritten: only once the
    /// dead frames exceed what would remain by [`FLOOR`] — the dead bytes
    /// accumulated since the last rewrite pay for this one, and rewrites
    /// stay rare however often the log is truncated. The new file is a
    /// head slot naming its first frame, one marker declaring `base`
    /// (which numbers the frames for a walk that cannot trust the slot),
    /// then the live suffix as it stands, markers and all.
    ///
    /// Errors as [`JournalFile::replace`] and [`JournalFile::sync_dir`].
    fn reclaim(&mut self) -> io::Result<()> {
        let live_from = self.live_from();
        let live = self.file.len - live_from;
        if live_from < HEAD_LEN + live + FLOOR {
            return Ok(());
        }
        let head = Head {
            from: HEAD_LEN,
            lsn: self.base,
        };
        let mut image = head.encode().to_vec();
        image.extend_from_slice(&marker_frame(self.base));
        let kept = image.len();
        image.resize(kept + live as usize, 0);
        self.file
            .file
            .read_exact_at(&mut image[kept..], live_from)?;
        self.file.replace(&image)?;
        self.head = head;
        self.marker_owed = false;
        let shift = live_from - kept as u64;
        for at in &mut self.offsets {
            *at -= shift;
        }
        self.file.sync_dir()
    }

    /// Point the head slot at the first retained frame, once that has
    /// moved [`HEAD_STEP`] past it and is durable: one positioned write,
    /// no fsync of its own (the next [`JournalFile::sync`] carries it).
    fn advance_head(&mut self) -> io::Result<()> {
        let from = self.live_from();
        if from < self.head.from + HEAD_STEP || from > self.file.synced {
            return Ok(());
        }
        let head = Head {
            from,
            lsn: self.base,
        };
        self.file.file.write_all_at(&head.encode(), 0)?;
        self.head = head;
        Ok(())
    }
}

/// The durable mirror of the write-ahead log.
pub struct FileLogSink {
    journal: Mutex<Journal>,
    /// Bytes of `wal.journal` the load that opened this sink read.
    read_at_load: u64,
}

impl FileLogSink {
    fn journal_path(dir: &Path) -> PathBuf {
        dir.join("wal.journal")
    }

    /// Create an empty WAL journal: a head slot naming the frames that
    /// will follow it, durable before the manifest that makes the
    /// directory a database is written.
    pub(crate) fn create(dir: &Path) -> io::Result<FileLogSink> {
        let mut file = JournalFile::open(FileLogSink::journal_path(dir), true)?;
        file.append(&Head::START.encode())?;
        file.sync()?;
        Ok(FileLogSink {
            journal: Mutex::new(Journal::over(file, Head::START, 0, VecDeque::new())),
            read_at_load: 0,
        })
    }

    /// Replay the WAL journal of a surviving database and return the sink,
    /// positioned to append after the last whole frame, plus
    /// `(base, records)` for
    /// [`LogStore::restore`](rda_wal::LogStore::restore).
    ///
    /// Two reads: the head slot, then the file from where it points (from
    /// the first frame, if it does not decode). A torn or undecodable tail
    /// is cut off in place, a temporary file a kill left behind
    /// mid-rewrite is removed, and the file is rewritten by the rule, and
    /// the routine, every truncation uses (`Journal::reclaim`).
    pub(crate) fn load(dir: &Path) -> io::Result<(FileLogSink, u64, Vec<LogRecord>)> {
        let path = FileLogSink::journal_path(dir);
        // Killed between creating the temporary file and renaming it: the
        // journal proper is whole, the leftover is not.
        match std::fs::remove_file(tmp_path(&path)) {
            Err(e) if e.kind() != io::ErrorKind::NotFound => return Err(e),
            _ => {}
        }
        let mut file = JournalFile::open(path, false)?;
        let mut slot = [0; HEAD_LEN as usize];
        file.file.read_exact_at(&mut slot, 0)?;
        let head = Head::decode(&slot)
            .filter(|head| head.from <= file.len)
            .unwrap_or(Head::START);
        let mut body = vec![0; (file.len - head.from) as usize];
        file.file.read_exact_at(&mut body, head.from)?;
        let mut upto = body.len();
        let Replayed {
            base,
            records,
            offsets,
            end,
        } = loop {
            match replay(&body[..upto], head) {
                Ok(replayed) => break replayed,
                Err(cut) => upto = (cut - head.from) as usize,
            }
        };
        if end < file.len {
            file.file.set_len(end)?;
            file.len = end;
        }
        let read_at_load = HEAD_LEN + body.len() as u64;
        drop(body);
        let mut journal = Journal::over(file, head, base, offsets);
        journal.reclaim()?;
        let journal = Mutex::new(journal);
        Ok((
            FileLogSink {
                journal,
                read_at_load,
            },
            base,
            records,
        ))
    }

    /// Tallies of this journal's rewrites, for the metrics registry.
    pub(crate) fn stats(&self) -> Arc<JournalStats> {
        Arc::clone(&self.journal.lock().file.stats)
    }

    /// Current length of `wal.journal`.
    pub(crate) fn journal_bytes(&self) -> u64 {
        self.journal.lock().file.len
    }

    /// Bytes of `wal.journal` the reopen read: its head slot and the log
    /// from where that points; 0 for a created journal.
    pub(crate) fn read_at_load(&self) -> u64 {
        self.read_at_load
    }
}

impl LogSink for FileLogSink {
    fn append_batch(&self, records: &[LogRecord]) {
        let mut journal = self.journal.lock();
        let mut batch = std::mem::take(&mut journal.batch);
        batch.clear();
        if std::mem::take(&mut journal.marker_owed) {
            batch.extend_from_slice(&marker_frame(journal.base));
        }
        for record in records {
            let at = journal.file.len + batch.len() as u64;
            journal.offsets.push_back(at);
            batch.extend_from_slice(&(1 + codec::encoded_len(record) as u32).to_le_bytes());
            batch.push(TAG_WAL_RECORD);
            codec::encode(record, &mut batch);
        }
        if let Err(e) = journal.file.append(&batch) {
            panic!("wal journal append failed, durability is lost: {e}");
        }
        journal.batch = batch;
    }

    fn sync(&self) {
        if let Err(e) = self.journal.lock().file.sync() {
            panic!("wal journal sync failed, durability is lost: {e}");
        }
    }

    fn truncated(&self, new_base: u64) {
        let mut journal = self.journal.lock();
        // The store's base only grows; a stale call kills nothing.
        if new_base <= journal.base {
            return;
        }
        let killed = (new_base - journal.base) as usize;
        let killed = journal.offsets.len().min(killed);
        journal.offsets.drain(..killed);
        journal.base = new_base;
        // No write of its own: the marker rides with the next batch.
        journal.marker_owed = true;
        // Failing either costs the next reopen time, never a record: the
        // slot keeps naming a frame at or before the live log.
        let reclaimed = journal.reclaim().and_then(|()| journal.advance_head());
        journal.file.note_rewrite(&reclaimed);
    }
}

impl Drop for FileLogSink {
    /// A clean close tells the next reopen where the log starts, so that
    /// it decodes nothing dead. Best effort: see `Journal::marker_owed`.
    fn drop(&mut self) {
        let journal = self.journal.get_mut();
        if journal.marker_owed {
            let _ = journal.file.append(&marker_frame(journal.base));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rda_array::DataPageId;
    use rda_wal::TxnId;

    fn tmpdir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("rda-disk-meta-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    /// A page-sized intent whose blocks carry headers with every field
    /// in use.
    fn intent(seed: u64) -> IntentRecord {
        let block = |fill: u8, slot: u64| {
            Page::from_bytes(&[fill; 2020]).with_header(Header {
                ts: seed << 2 | slot,
                txn: u64::MAX - seed,
                rider: 0x0102 + slot as u16,
                state: rda_array::TwinState::Working,
            })
        };
        let group = GroupId(seed as u32);
        let mut parity = vec![
            (group, ParitySlot::P0, block(1, 0)),
            (group, ParitySlot::P1, block(2, 1)),
        ];
        // Two parity blocks for an odd seed, one for an even one.
        parity.truncate(1 + seed as usize % 2);
        IntentRecord {
            page: DataPageId(seed as u32),
            data: block(seed as u8, 2),
            parity,
        }
    }

    /// The headers of an intent's blocks, which equality does not compare.
    fn headers(intent: &IntentRecord) -> Vec<Header> {
        let parity = intent.parity.iter().map(|(_, _, p)| p.header());
        std::iter::once(intent.data.header())
            .chain(parity)
            .collect()
    }

    #[test]
    fn meta_journal_roundtrip_and_clear() {
        let dir = tmpdir("meta-rt");
        let store = FileMetaStore::create(&dir).unwrap();
        store.intent_set(&intent(3));
        store.intent_set(&intent(4));
        drop(store);
        let (store, staged) = FileMetaStore::load(&dir).unwrap();
        assert_eq!(staged, Some(intent(4)), "the last intent wins");
        assert_eq!(headers(&staged.unwrap()), headers(&intent(4)));
        store.intent_clear();
        drop(store);
        assert_eq!(FileMetaStore::load(&dir).unwrap().1, None, "the clear too");
        let _ = std::fs::remove_dir_all(&dir);
    }

    fn meta_bytes(dir: &Path) -> Vec<u8> {
        std::fs::read(dir.join("meta.journal")).unwrap()
    }

    /// A slot write torn at sector granularity: every subset of the new
    /// slot's 512-byte sectors lands over the old file (grown with zeros to
    /// the new slot's length). It reads back as the old state, the new one
    /// or nothing staged, never as a mixture.
    #[test]
    fn a_torn_slot_reads_as_the_old_state_the_new_one_or_nothing() {
        let states = [None, Some(intent(1)), Some(intent(2)), Some(intent(3))];
        let payload = |state: &Option<IntentRecord>| state.as_ref().map(encode_intent);
        for old in &states {
            for new in &states {
                let before = slot(&payload(old).unwrap_or_default());
                let after = slot(&payload(new).unwrap_or_default());
                let sectors = after.len().div_ceil(512);
                for landed in 0..1u32 << sectors {
                    let mut file = before.clone();
                    file.resize(file.len().max(after.len()), 0);
                    for sector in (0..sectors).filter(|s| landed >> s & 1 == 1) {
                        let range = sector * 512..after.len().min(sector * 512 + 512);
                        file[range.clone()].copy_from_slice(&after[range]);
                    }
                    let read = staged_in(&file);
                    if landed == (1 << sectors) - 1 {
                        assert_eq!(read, *new, "{old:?} -> {new:?}, whole");
                    }
                    assert!(
                        read.is_none() || read == *old || read == *new,
                        "{old:?} -> {new:?}, sectors {landed:b}: read {read:?}"
                    );
                    if let Some(read) = &read {
                        let whole = [old, new].into_iter().flatten().find(|s| *s == read);
                        assert_eq!(headers(read), headers(whole.unwrap()));
                    }
                }
            }
        }
        // A file too short for a slot head, or for the payload its head
        // promises, stages nothing.
        let whole = slot(&encode_intent(&intent(1)));
        for cut in [0, 3, SLOT_HEAD - 1, SLOT_HEAD, whole.len() - 1] {
            assert_eq!(staged_in(&whole[..cut]), None, "cut at {cut}");
        }
    }

    /// A reopen reads `meta.journal` and writes nothing: its bytes are the
    /// same before and after, staged intent or not, and the store carries
    /// on from the slot it found.
    #[test]
    fn a_reopen_leaves_the_meta_journal_untouched() {
        let dir = tmpdir("meta-quiet");
        let store = FileMetaStore::create(&dir).unwrap();
        drop(store);
        assert!(meta_bytes(&dir).is_empty());
        let (store, staged) = FileMetaStore::load(&dir).unwrap();
        assert_eq!(staged, None, "a created journal stages nothing");
        assert!(meta_bytes(&dir).is_empty(), "and the reopen wrote nothing");
        store.intent_set(&intent(7));
        store.intent_clear();
        store.intent_set(&intent(8));
        assert_eq!(store.stats().appends.get(), 3);
        assert_eq!(store.stats().fsyncs.get(), 3);
        let longest = slot(&encode_intent(&intent(7))).len() as u64;
        assert_eq!(store.journal_bytes(), longest, "one slot, never more");
        drop(store);
        let before = meta_bytes(&dir);
        assert_eq!(before.len() as u64, longest);
        let (store, staged) = FileMetaStore::load(&dir).unwrap();
        assert_eq!(staged, Some(intent(8)));
        assert_eq!(store.journal_bytes(), longest);
        assert_eq!(meta_bytes(&dir), before, "the reopen wrote nothing");
        store.intent_clear();
        drop(store);
        assert_eq!(FileMetaStore::load(&dir).unwrap().1, None);
        let _ = std::fs::remove_dir_all(&dir);
    }

    fn bots(ids: std::ops::Range<u64>) -> Vec<LogRecord> {
        ids.map(|i| LogRecord::Bot { txn: TxnId(i) }).collect()
    }

    /// Length of one framed `Bot` record: prefix + tag + 9 encoded bytes.
    const BOT_FRAME: usize = 4 + 1 + 9;

    /// Records with a 1 MiB image each: nine dead ones clear [`FLOOR`].
    fn fats(ids: std::ops::Range<u64>) -> Vec<LogRecord> {
        ids.map(|i| LogRecord::AfterImage {
            txn: TxnId(i),
            page: DataPageId(0),
            image: vec![i as u8; 1 << 20],
        })
        .collect()
    }

    /// Length of one framed [`fats`] record: prefix + tag + 17 bytes of
    /// record header + the image.
    const FAT_FRAME: usize = 4 + 1 + 17 + (1 << 20);

    /// A fresh `wal.journal` holding `records`, closed.
    fn wal_with(tag: &str, records: &[LogRecord]) -> PathBuf {
        let dir = tmpdir(tag);
        let sink = FileLogSink::create(&dir).unwrap();
        sink.append_batch(records);
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

    fn wal_rewrites(sink: &FileLogSink) -> (u64, u64) {
        let stats = sink.stats();
        (stats.rewrites.get(), stats.rewrite_failures.get())
    }

    /// Bytes before a journal's first frame.
    const H: usize = HEAD_LEN as usize;

    /// What a rewrite to `base` makes of the live bytes `suffix`: a slot
    /// naming the first frame, the marker numbering it, the suffix.
    fn rewritten(base: u64, suffix: &[u8]) -> Vec<u8> {
        let head = Head {
            from: HEAD_LEN,
            lsn: base,
        };
        let mut image = head.encode().to_vec();
        image.extend_from_slice(&marker_frame(base));
        image.extend_from_slice(suffix);
        image
    }

    /// The head slot a journal's bytes open with, if it decodes.
    fn slot_of(bytes: &[u8]) -> Option<Head> {
        Head::decode(bytes[..H].try_into().unwrap())
    }

    #[test]
    fn wal_journal_roundtrip_with_truncation() {
        let dir = wal_with("wal-rt", &bots(0..4));
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
        let dir = wal_with("wal-bytes", &bots(0..2));
        let mut expect = Head::START.encode().to_vec();
        for record in bots(0..2) {
            let mut enc = Vec::new();
            codec::encode(&record, &mut enc);
            let mut payload = vec![TAG_WAL_RECORD];
            payload.extend_from_slice(&enc);
            push_frame(&mut expect, &payload);
        }
        assert_eq!(wal_bytes(&dir), expect);
        assert_eq!(expect.len(), H + 2 * BOT_FRAME);
        let _ = std::fs::remove_dir_all(&dir);
        let dir = wal_with("wal-bytes-fat", &fats(3..4));
        assert_eq!(wal_bytes(&dir).len(), H + FAT_FRAME);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn clean_reopen_leaves_the_journal_byte_identical() {
        let dir = wal_with("wal-clean", &bots(0..5));
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
        let dir = wal_with("wal-torn", &bots(0..3));
        // A kill mid-append: a prefix promising more than was written.
        append_raw(&dir, &[200, 0, 0, 0, TAG_WAL_RECORD, 1, 2]);
        let (sink, base, survivors) = FileLogSink::load(&dir).unwrap();
        assert_eq!((base, survivors), (0, bots(0..3)));
        assert_eq!(
            wal_bytes(&dir).len(),
            H + 3 * BOT_FRAME,
            "tail cut in place"
        );
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
        let dir = wal_with("wal-corrupt", &bots(0..2));
        // A whole frame that is no record, then a valid record and a
        // marker behind it: all three are past the journal's end.
        let mut tail = Vec::new();
        push_frame(&mut tail, &[TAG_WAL_RECORD, 0xFF, 0xFF]);
        tail.extend_from_slice(&wal_bytes(&dir)[H..H + BOT_FRAME]);
        push_frame(&mut tail, &marker(2));
        append_raw(&dir, &tail);
        let (sink, base, survivors) = FileLogSink::load(&dir).unwrap();
        assert_eq!((base, survivors), (0, bots(0..2)), "marker not honoured");
        assert_eq!(wal_bytes(&dir).len(), H + 2 * BOT_FRAME);
        sink.append_batch(&bots(2..3));
        drop(sink);
        let (_sink, base, survivors) = FileLogSink::load(&dir).unwrap();
        assert_eq!((base, survivors), (0, bots(0..3)));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn dead_records_are_skipped_not_decoded() {
        let dir = wal_with("wal-dead", &bots(0..4));
        let (sink, _, _) = FileLogSink::load(&dir).unwrap();
        sink.truncated(3);
        drop(sink);
        // Scribble over dead record 1's payload (tag kept, framing kept):
        // it is below the base, so nothing ever looks inside it.
        let mut bytes = wal_bytes(&dir);
        bytes[H + BOT_FRAME + 5..H + 2 * BOT_FRAME].fill(0xFF);
        std::fs::write(FileLogSink::journal_path(&dir), &bytes).unwrap();
        let (_sink, base, survivors) = FileLogSink::load(&dir).unwrap();
        assert_eq!((base, survivors), (3, bots(3..4)));
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// What the sink believes about its file is what the slot says and
    /// a fresh walk from there finds.
    fn assert_matches_a_fresh_walk(sink: &FileLogSink, dir: &Path) {
        let bytes = wal_bytes(dir);
        let journal = sink.journal.lock();
        assert_eq!(slot_of(&bytes), Some(journal.head));
        let fresh = replay(&bytes[journal.head.from as usize..], journal.head)
            .expect("every surviving record decodes");
        assert_eq!(
            fresh.end,
            bytes.len() as u64,
            "no torn tail left in the file"
        );
        assert_eq!(
            (journal.file.len, journal.base, &journal.offsets),
            (fresh.end, fresh.base, &fresh.offsets)
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
        sink.append_batch(&fats(0..10));
        sink.truncated(4);
        // Four dead records against six live: the file stays as it is,
        // and the marker waits for the next batch, whose one write it
        // heads.
        assert_eq!(wal_bytes(&dir).len(), H + 10 * FAT_FRAME);
        sink.append_batch(&fats(10..14));
        let before = wal_bytes(&dir);
        assert_eq!(before.len(), H + 14 * FAT_FRAME + MARKER_FRAME_LEN);
        assert!(before[H + 10 * FAT_FRAME..][..MARKER_FRAME_LEN] == marker_frame(4)[..]);
        assert_matches_a_fresh_walk(&sink, &dir);
        sink.truncated(13);
        // Thirteen dead against one: rewritten under the running sink to
        // its own slot and marker plus everything from record 13 on.
        let expect = rewritten(13, &before[H + 13 * FAT_FRAME + MARKER_FRAME_LEN..]);
        assert!(wal_bytes(&dir) == expect);
        assert_eq!(wal_rewrites(&sink), (1, 0));
        assert_matches_a_fresh_walk(&sink, &dir);
        sink.append_batch(&bots(14..15));
        // The store's base only grows; a stale call changes nothing.
        sink.truncated(6);
        sink.append_batch(&bots(15..16));
        assert_eq!(wal_bytes(&dir).len(), expect.len() + 2 * BOT_FRAME);
        assert_matches_a_fresh_walk(&sink, &dir);
        drop(sink);

        // The numbering continues through the rewrite and a reopen...
        let len = wal_bytes(&dir).len();
        let (sink, base, survivors) = FileLogSink::load(&dir).unwrap();
        let mut from_13 = fats(13..14);
        from_13.extend(bots(14..16));
        assert_eq!(base, 13);
        assert!(survivors == from_13);
        assert_eq!(wal_bytes(&dir).len(), len);
        sink.append_batch(&bots(16..18));
        // ...through a truncation that leaves the file alone (1 MiB dead,
        // far below the floor), whose marker a clean close writes out...
        sink.truncated(14);
        assert_eq!(wal_bytes(&dir).len(), len + 2 * BOT_FRAME);
        drop(sink);
        assert_eq!(
            wal_bytes(&dir).len(),
            len + 2 * BOT_FRAME + MARKER_FRAME_LEN
        );
        let (sink, base, survivors) = FileLogSink::load(&dir).unwrap();
        assert_eq!((base, survivors), (14, bots(14..18)));
        assert_matches_a_fresh_walk(&sink, &dir);
        // ...and through a second rewrite by the reopened sink: record 27.
        sink.append_batch(&fats(18..28));
        let before = wal_bytes(&dir);
        sink.truncated(27);
        let expect = rewritten(27, &before[before.len() - FAT_FRAME..]);
        assert!(wal_bytes(&dir) == expect);
        assert_matches_a_fresh_walk(&sink, &dir);
        drop(sink);
        let (_sink, base, survivors) = FileLogSink::load(&dir).unwrap();
        assert_eq!(base, 27);
        assert!(survivors == fats(27..28));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_killed_sink_owes_at_most_its_last_marker() {
        let dir = wal_with("wal-owed", &bots(0..4));
        let (sink, _, _) = FileLogSink::load(&dir).unwrap();
        sink.truncated(2);
        sink.append_batch(&bots(4..5));
        sink.truncated(4);
        // Killed here: no destructor runs, the second marker never lands.
        std::mem::forget(sink);
        let (_sink, base, survivors) = FileLogSink::load(&dir).unwrap();
        assert_eq!((base, survivors), (2, bots(2..5)), "decodes a little more");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn journal_is_rewritten_only_past_the_floor() {
        // Ten 1 MiB records, then some small ones, then a truncation to
        // record 9: 9·F dead bytes against F + 14·k live ones, F = 1 MiB +
        // 22. The rewrite needs dead ≥ live + 8 MiB, i.e. 176 ≥ 14·k.
        // k = 13 falls six bytes short: the truncation writes nothing.
        let mut records = fats(0..10);
        records.extend(bots(10..23));
        let dir = wal_with("wal-keep", &records);
        let before = wal_bytes(&dir);
        let (sink, _, _) = FileLogSink::load(&dir).unwrap();
        sink.truncated(9);
        assert!(wal_bytes(&dir) == before);
        assert!(!tmp_exists(&dir));
        assert_eq!(wal_rewrites(&sink), (0, 0));
        // The close writes the marker out. Nor does the reopen rewrite,
        // by the same rule.
        drop(sink);
        let mut expect = before.clone();
        expect.extend_from_slice(&marker_frame(9));
        assert!(wal_bytes(&dir) == expect);
        let (sink, base, survivors) = FileLogSink::load(&dir).unwrap();
        assert_eq!(base, 9);
        assert!(survivors == records[9..]);
        assert!(wal_bytes(&dir) == expect);
        assert!(!tmp_exists(&dir));
        assert_eq!(wal_rewrites(&sink), (0, 0));
        assert_matches_a_fresh_walk(&sink, &dir);
        drop(sink);
        let _ = std::fs::remove_dir_all(&dir);

        // k = 12 pays (176 ≥ 168): the file becomes a slot and one marker
        // plus the live suffix exactly as it stood (record 9 and the small
        // ones), and says the same thing.
        records.pop();
        let dir = wal_with("wal-rewrite", &records);
        let before = wal_bytes(&dir);
        let (sink, _, _) = FileLogSink::load(&dir).unwrap();
        sink.truncated(9);
        let expect = rewritten(9, &before[H + 9 * FAT_FRAME..]);
        assert!(wal_bytes(&dir) == expect);
        assert!(!tmp_exists(&dir), "renamed into place");
        assert_eq!(wal_rewrites(&sink), (1, 0));
        assert_eq!(sink.journal_bytes(), expect.len() as u64);
        assert_matches_a_fresh_walk(&sink, &dir);
        // Appends land behind it and a reopen leaves it alone.
        sink.append_batch(&bots(22..23));
        sink.sync();
        drop(sink);
        let grown = wal_bytes(&dir);
        assert!(grown[..expect.len()] == expect[..]);
        assert_eq!(grown.len(), expect.len() + BOT_FRAME, "no marker owed");
        let (sink, base, survivors) = FileLogSink::load(&dir).unwrap();
        records.extend(bots(22..23));
        assert_eq!(base, 9);
        assert!(survivors == records[9..]);
        assert!(wal_bytes(&dir) == grown, "a rewritten journal is stable");
        assert_matches_a_fresh_walk(&sink, &dir);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn offsets_after_load_agree_with_a_fresh_walk() {
        // Plain: nothing dead, nothing torn.
        let dir = wal_with("wal-offsets-plain", &bots(0..5));
        let (sink, _, _) = FileLogSink::load(&dir).unwrap();
        assert_eq!(sink.journal.lock().offsets.len(), 5);
        assert_matches_a_fresh_walk(&sink, &dir);
        let _ = std::fs::remove_dir_all(&dir);

        // Tail cut: the offsets describe the shortened file.
        let dir = wal_with("wal-offsets-cut", &bots(0..5));
        append_raw(&dir, &[200, 0, 0, 0, TAG_WAL_RECORD, 1, 2]);
        let (sink, _, _) = FileLogSink::load(&dir).unwrap();
        assert_eq!(sink.journal.lock().file.len, (H + 5 * BOT_FRAME) as u64);
        assert_matches_a_fresh_walk(&sink, &dir);
        let _ = std::fs::remove_dir_all(&dir);

        // Rewritten by the load itself: the offsets describe the new file,
        // and the next batch lands where they say.
        let dir = wal_with("wal-offsets-rewritten", &fats(0..10));
        append_raw(&dir, &marker_frame(9));
        let (sink, _, _) = FileLogSink::load(&dir).unwrap();
        assert_eq!(sink.journal.lock().offsets, [(H + MARKER_FRAME_LEN) as u64]);
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
        let src = wal_with("wal-window-src", &fats(0..10));
        let mut marked = wal_bytes(&src);
        let _ = std::fs::remove_dir_all(&src);
        marked.extend_from_slice(&marker_frame(9));
        let rewritten = rewritten(9, &marked[H + 9 * FAT_FRAME..]);

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
            assert_eq!(base, 9, "{window}");
            assert!(survivors == fats(9..10), "{window}");
            assert!(!tmp_exists(&dir), "{window}: stale tmp removed");
            assert!(wal_bytes(&dir) == rewritten, "{window}");
            // And the log carries on from there.
            sink.append_batch(&bots(10..11));
            sink.sync();
            drop(sink);
            let (_sink, base, survivors) = FileLogSink::load(&dir).unwrap();
            assert_eq!((base, survivors.len()), (9, 2), "{window}");
            assert_eq!(survivors[1..], bots(10..11)[..], "{window}");
            let _ = std::fs::remove_dir_all(&dir);
        }
    }

    #[test]
    fn failed_rewrite_keeps_the_old_journal_appending_and_recovering() {
        let dir = wal_with("wal-rewrite-fails", &fats(0..10));
        let (sink, _, _) = FileLogSink::load(&dir).unwrap();
        let old = wal_bytes(&dir);
        sink.journal.lock().file.fail_rewrite = Some(FailRewrite::TmpSync);
        // Does not panic: the base moved, the rewrite did not happen —
        // and that is counted, not swallowed.
        sink.truncated(9);
        assert!(wal_bytes(&dir) == old, "old file, untouched");
        assert!(!tmp_exists(&dir), "the failed attempt is cleaned up");
        assert_eq!(wal_rewrites(&sink), (0, 1));
        // The old file keeps taking forced appends, the owed marker
        // heading the batch...
        sink.append_batch(&bots(10..11));
        sink.sync();
        let mut expect = old.clone();
        expect.extend_from_slice(&marker_frame(9));
        assert!(wal_bytes(&dir)[..expect.len()] == expect[..]);
        assert_eq!(wal_bytes(&dir).len(), expect.len() + BOT_FRAME);
        assert_matches_a_fresh_walk(&sink, &dir);
        // ...the next truncation tries again, and once the fault is gone
        // it succeeds.
        sink.truncated(10);
        assert_eq!(wal_bytes(&dir).len(), expect.len() + BOT_FRAME);
        assert_eq!(wal_rewrites(&sink), (0, 2));
        sink.journal.lock().file.fail_rewrite = None;
        sink.append_batch(&bots(11..12));
        sink.truncated(11);
        // Its own slot, marker and record 11.
        assert_eq!(wal_bytes(&dir).len(), H + MARKER_FRAME_LEN + BOT_FRAME);
        assert_eq!(wal_rewrites(&sink), (1, 2));
        assert_matches_a_fresh_walk(&sink, &dir);
        drop(sink);
        let (_sink, base, survivors) = FileLogSink::load(&dir).unwrap();
        assert_eq!((base, survivors), (11, bots(11..12)));
        let _ = std::fs::remove_dir_all(&dir);

        // Killed while the rewrite was failing: the old file recovers.
        let dir = wal_with("wal-rewrite-fails-kill", &fats(0..10));
        let (sink, _, _) = FileLogSink::load(&dir).unwrap();
        sink.journal.lock().file.fail_rewrite = Some(FailRewrite::TmpSync);
        sink.truncated(9);
        sink.append_batch(&bots(10..11));
        sink.sync();
        std::mem::forget(sink);
        let (_sink, base, survivors) = FileLogSink::load(&dir).unwrap();
        assert_eq!((base, survivors.len()), (9, 2));
        assert_eq!(survivors[1..], bots(10..11)[..]);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn unsynced_rename_is_made_durable_before_the_next_ack() {
        let dir = wal_with("wal-dirsync", &fats(0..10));
        let (sink, _, _) = FileLogSink::load(&dir).unwrap();
        sink.journal.lock().file.fail_rewrite = Some(FailRewrite::DirSync);
        // The rename happened, so the new file is the journal; what is
        // owed is the directory fsync.
        sink.truncated(9);
        assert_eq!(wal_bytes(&dir).len(), H + MARKER_FRAME_LEN + FAT_FRAME);
        assert!(!sink.journal.lock().file.dir_synced);
        assert_eq!(wal_rewrites(&sink), (1, 1));
        assert_matches_a_fresh_walk(&sink, &dir);
        sink.append_batch(&bots(10..11));
        // While it stays owed, a force fails as any journal fsync does.
        let forced = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| sink.sync()));
        assert!(forced.is_err(), "no ack over a rename that may not last");
        sink.journal.lock().file.fail_rewrite = None;
        sink.sync();
        assert!(sink.journal.lock().file.dir_synced, "sync() paid the debt");
        drop(sink);
        let (_sink, base, survivors) = FileLogSink::load(&dir).unwrap();
        assert_eq!((base, survivors.len()), (9, 2));
        assert_eq!(survivors[1..], bots(10..11)[..]);
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// Records with a 4 000-byte image each: a transaction's after-images.
    fn pages(ids: std::ops::Range<u64>) -> Vec<LogRecord> {
        ids.map(|i| LogRecord::AfterImage {
            txn: TxnId(i),
            page: DataPageId(0),
            image: vec![i as u8; 4000],
        })
        .collect()
    }

    /// Length of one framed [`pages`] record.
    const PAGE_FRAME: usize = 4 + 1 + 17 + 4000;

    /// Commit `c` as the engine does it under FORCE: its four records
    /// (LSNs `4c..4c + 4`) appended and forced, then truncated away.
    fn commit(sink: &FileLogSink, c: u64) {
        sink.append_batch(&pages(4 * c..4 * c + 4));
        sink.sync();
        sink.truncated(4 * c + 4);
    }

    /// `(base, records)` of a walk of the whole journal that trusts no
    /// slot.
    fn full_walk(bytes: &[u8]) -> (u64, Vec<LogRecord>) {
        let walked = replay(&bytes[H..], Head::START).expect("every surviving record decodes");
        (walked.base, walked.records)
    }

    /// A closed journal of `commits` commits, then one transaction of two
    /// records in flight (whose batch carries the last marker).
    fn history(tag: &str, commits: u64) -> PathBuf {
        let dir = tmpdir(tag);
        let sink = FileLogSink::create(&dir).unwrap();
        for c in 0..commits {
            commit(&sink, c);
        }
        sink.append_batch(&pages(4 * commits..4 * commits + 2));
        sink.sync();
        dir
    }

    #[test]
    fn head_slot_follows_the_durable_live_log_in_steps() {
        let dir = tmpdir("wal-head-steps");
        let sink = FileLogSink::create(&dir).unwrap();
        assert_eq!(slot_of(&wal_bytes(&dir)), Some(Head::START));
        // Truncated but never forced: the slot may not name those frames.
        for c in 0..40 {
            sink.append_batch(&pages(4 * c..4 * c + 4));
            sink.truncated(4 * c + 4);
        }
        assert_eq!(slot_of(&wal_bytes(&dir)), Some(Head::START));
        // Forced: the next truncation moves it to the first live frame,
        // which is where the next batch lands.
        commit(&sink, 40);
        let mut head = slot_of(&wal_bytes(&dir)).unwrap();
        assert_eq!(head, sink.journal.lock().head);
        assert_eq!((head.from, head.lsn), (sink.journal_bytes(), 164));
        // Then once per HEAD_STEP of dead log, never in between.
        let mut moves = 0;
        for c in 41..200 {
            commit(&sink, c);
            let now = slot_of(&wal_bytes(&dir)).unwrap();
            if now != head {
                assert!(now.from >= head.from + HEAD_STEP, "commit {c}: {now:?}");
                assert_eq!(now.lsn, 4 * c + 4);
                moves += 1;
            }
            head = now;
        }
        let per_commit = (4 * PAGE_FRAME + MARKER_FRAME_LEN) as u64;
        assert_eq!(
            moves,
            159 / HEAD_STEP.div_ceil(per_commit),
            "one write per step"
        );
        assert_eq!(wal_rewrites(&sink), (0, 0));
        // The next batch carries the owed marker.
        sink.append_batch(&bots(800..801));
        assert_matches_a_fresh_walk(&sink, &dir);
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// Every state the head slot can be found in reopens to the
    /// `(base, records)` a walk of the whole journal finds, and carries on.
    #[test]
    fn every_head_slot_state_reopens_to_what_a_full_walk_finds() {
        let src = history("wal-slot-src", 40);
        let moved = wal_bytes(&src);
        let _ = std::fs::remove_dir_all(&src);
        let head = slot_of(&moved).unwrap();
        assert!(
            head.from > HEAD_LEN + HEAD_STEP,
            "the slot has moved: {head:?}"
        );

        let mut torn = moved.clone();
        torn[12] ^= 0x40;
        // Commit 1's first record: a slot written one step earlier.
        let older = Head {
            from: (H + 4 * PAGE_FRAME + MARKER_FRAME_LEN) as u64,
            lsn: 4,
        };
        let mut stale = moved.clone();
        stale[..H].copy_from_slice(&older.encode());
        // The in-flight transaction's second record cut off in place,
        // with the slot naming a frame beyond the cut.
        let mut cut = moved[..moved.len() - PAGE_FRAME].to_vec();
        let beyond = Head {
            from: moved.len() as u64,
            lsn: 162,
        };
        cut[..H].copy_from_slice(&beyond.encode());

        let src = wal_with("wal-slot-rewritten-src", &fats(0..10));
        let (sink, _, _) = FileLogSink::load(&src).unwrap();
        sink.truncated(9);
        drop(sink);
        let rewritten = wal_bytes(&src);
        let _ = std::fs::remove_dir_all(&src);
        assert_eq!(
            slot_of(&rewritten).map(|h| (h.from, h.lsn)),
            Some((HEAD_LEN, 9))
        );
        let mut rewritten_torn = rewritten.clone();
        rewritten_torn[20] ^= 1;

        let src = wal_with("wal-slot-created-src", &bots(0..5));
        let created = wal_bytes(&src);
        let _ = std::fs::remove_dir_all(&src);

        let states: [(&str, &[u8], usize); 7] = [
            ("moved slot", &moved, head.from as usize),
            ("torn slot", &torn, H),
            ("stale slot", &stale, older.from as usize),
            ("slot beyond a tail cut in place", &cut, H),
            ("rewritten journal", &rewritten, H),
            ("rewritten journal, torn slot", &rewritten_torn, H),
            ("created, never truncated", &created, H),
        ];
        for (n, (state, bytes, reads_from)) in states.into_iter().enumerate() {
            let dir = tmpdir(&format!("wal-slot-{n}"));
            std::fs::write(FileLogSink::journal_path(&dir), bytes).unwrap();
            let walked = full_walk(bytes);
            let (sink, base, records) = FileLogSink::load(&dir).unwrap();
            assert!((base, &records) == (walked.0, &walked.1), "{state}");
            let read = (H + bytes.len() - reads_from) as u64;
            assert_eq!(sink.read_at_load(), read, "{state}");
            assert!(wal_bytes(&dir) == bytes, "{state}: the load wrote nothing");
            // And the log carries on from there.
            let next = base + records.len() as u64;
            sink.append_batch(&bots(next..next + 1));
            sink.sync();
            drop(sink);
            let (_sink, again, survivors) = FileLogSink::load(&dir).unwrap();
            assert_eq!(again, base, "{state}");
            assert!(survivors[..records.len()] == records[..], "{state}");
            assert_eq!(
                survivors[records.len()..],
                bots(next..next + 1)[..],
                "{state}"
            );
            let _ = std::fs::remove_dir_all(&dir);
        }
    }

    /// Four MiB of dead log below the floor and a kill with a marker
    /// owed: the reopen reads the slot, at most one step of dead log, and
    /// the live log behind it.
    #[test]
    fn reopen_reads_at_most_a_head_step_of_dead_log() {
        let dir = tmpdir("wal-bounded-read");
        let sink = FileLogSink::create(&dir).unwrap();
        let mut c = 0;
        while sink.journal_bytes() < HEAD_LEN + (4 << 20) {
            commit(&sink, c);
            c += 1;
        }
        sink.append_batch(&pages(4 * c..4 * c + 2));
        sink.sync();
        commit(&sink, c + 1);
        assert_eq!(wal_rewrites(&sink), (0, 0), "still below the floor");
        let (len, live_from) = (sink.journal_bytes(), sink.journal.lock().live_from());
        // Killed: no destructor, the last marker never lands.
        std::mem::forget(sink);

        let (sink, base, records) = FileLogSink::load(&dir).unwrap();
        let read = sink.read_at_load();
        let one_commit = (4 * PAGE_FRAME + MARKER_FRAME_LEN) as u64;
        assert!(
            read <= HEAD_LEN + HEAD_STEP + (len - live_from) + one_commit,
            "{read} of {len} bytes read"
        );
        assert!(read < len / 8, "{read} of {len} bytes read");
        // Only dead records lie between the slot and the live log.
        let (walked_base, walked) = full_walk(&wal_bytes(&dir));
        assert!(base >= walked_base);
        assert!(records[..] == walked[(base - walked_base) as usize..]);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
