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
//!   the [`LogSink`] seam, reusing `rda-wal`'s record codec: a fixed
//!   `HEAD_LEN`-byte head slot that says where the log starts (see
//!   `Head`), then laps of frames, each carrying its LSN and a checksum
//!   (see [`open_frame`]).
//!
//! ## Laps: `wal.journal` writes only into space it already owns
//!
//! A force writes its batch at the tail of the log in one `pwrite`,
//! covered by the force's one `fdatasync`. Log truncation — which the
//! engine performs at every commit under FORCE — writes nothing of its
//! own: the marker frame that declares the new base rides at the head of
//! the next batch (or goes out when the sink is dropped). Once the tail
//! is [`LAP`] into the file, the first force whose live frames, behind a
//! marker, fit below where they start now begins a new lap
//! (`Journal::new_lap`): the head is pointed at the live frames, they are
//! copied byte for byte to the front behind a marker declaring their
//! base, the head is pointed at the front, and the batch lands behind the
//! copies, over the previous lap's frames. Nothing is created or renamed,
//! so the file stays within `LAP` + the live span + one batch. A live log
//! that does not fit (a transaction pins it, or ¬FORCE between
//! checkpoints) keeps the lap going, and the file grows, until it does;
//! the lap switch that follows cuts a file grown past two laps back to
//! its copies.
//!
//! ## Reopen
//!
//! A reopen reads the head slot and walks the frames from where it
//! points, expecting the head's LSN: a record frame carries its own LSN,
//! a marker the LSN the next record gets. The walk ends at the first
//! frame that is short, fails its sum or carries another LSN — one rule
//! that ends a torn tail and the stale frames of an earlier lap alike,
//! since those carry older LSNs. It reads the file in steps of
//! `READ_STEP` and stops with the chain. A head that does not decode
//! falls back to a walk from the first frame, numbered by the LSN it
//! carries: every lap opens with a marker that declares its base. The
//! records a marker killed are skipped by LSN, never decoded. A reopen
//! writes nothing. If it found bytes past the chain, the first write
//! after it zeroes them and fsyncs before its batch: a batch the dead
//! process never synced may lie there, numbered with the LSNs that come
//! next.
//!
//! ## What is durable when
//!
//! WAL frames are fsynced when the store forces, via [`LogSink::sync`];
//! truncate markers, pure compaction hints, are not fsynced. A lap switch
//! fsyncs each of its three writes before the next one starts, and keeps
//! the invariant every write of the journal keeps: no write touches a
//! byte on the chain from the durable head to the last synced frame. A
//! write or fsync failure, in either journal, panics: a journal that
//! cannot persist has no honest way to keep accepting mutations.

use rda_array::xor::checksum;
use rda_array::{DataPageId, GroupId, Header, Page, ParitySlot};
use rda_core::{IntentRecord, MetaSink};
use rda_obs::sync::Mutex;
use rda_obs::Counter;
use rda_wal::{codec, LogRecord, LogSink};
use std::collections::VecDeque;
use std::fs::{File, OpenOptions};
use std::io::{self, Read};
use std::os::unix::fs::FileExt;
use std::path::{Path, PathBuf};
use std::sync::Arc;

/// First byte of a staged intent in `meta.journal`'s slot.
const TAG_INTENT_SET: u8 = 5;
/// `wal.journal` frame tags share the numbering but live in their own file.
const TAG_WAL_RECORD: u8 = 16;
const TAG_WAL_TRUNCATE: u8 = 17;

/// Bytes of `wal.journal`'s head slot, before its first frame.
const HEAD_LEN: u64 = 32;

/// How far into `wal.journal` a lap runs before the next force starts a
/// new one at the front: one lap per ≈ 16 commits of the benchmark's
/// `file-commit` (16.3 KB of log each).
const LAP: u64 = 256 << 10;

/// How much of `wal.journal` a reopen reads at a time: it stops at the
/// first step in which the chain ends, so it reads the live chain and at
/// most this much (and one frame) past it, however long the file.
const READ_STEP: u64 = 64 << 10;

/// First bytes of a head slot.
const HEAD_TAG: &[u8; 8] = b"rdawal\x00\x08";

/// Bytes of `meta.journal`'s slot before its payload: `len` and `sum`.
const SLOT_HEAD: usize = 4 + 8;

/// Bytes of a frame before its payload: `len`, `lsn` and `sum`.
pub(crate) const FRAME_HEAD: usize = 4 + 8 + 8;

/// Start a frame at the end of `out` and return where it starts; the
/// caller appends the payload and [`seal_frame`]s it. A frame is `len:
/// u32 | lsn: u64 | sum: u64 | payload`, `sum` being [`checksum`] of
/// `lsn ‖ payload` (which mixes in how many bytes it sums, so it covers
/// `len` too). `wal.journal` numbers its frames with LSNs; `obs.journal`
/// (see `crate::flight`) puts one in each of its slots, numbered with its
/// snapshot's sequence number.
pub(crate) fn open_frame(out: &mut Vec<u8>, lsn: u64) -> usize {
    let at = out.len();
    out.extend_from_slice(&[0; 12]);
    // Where `sum` goes: until the seal, `lsn` sits here, next to the
    // payload, so that one checksum covers both.
    out.extend_from_slice(&lsn.to_le_bytes());
    at
}

/// Finish the frame [`open_frame`] started at `at`: its payload is
/// everything behind it in `out`.
pub(crate) fn seal_frame(out: &mut [u8], at: usize) {
    let frame = &mut out[at..];
    let len = u32::try_from(frame.len() - FRAME_HEAD).unwrap_or(u32::MAX);
    frame[..4].copy_from_slice(&len.to_le_bytes());
    let sum = checksum(&frame[12..]);
    frame.copy_within(12..20, 4);
    frame[12..20].copy_from_slice(&sum.to_le_bytes());
}

/// The `lsn` and length (payload included) of the frame `buf` opens
/// with, if `buf` holds all of it; its sum unchecked.
fn frame_head(buf: &[u8]) -> Option<(u64, usize)> {
    let mut c = Cursor { buf };
    let len = FRAME_HEAD + c.u32()? as usize;
    let lsn = c.u64()?;
    (buf.len() >= len).then_some((lsn, len))
}

/// The frame `buf` opens with, if it is whole and its sum holds: its
/// `lsn` and its length, payload included (the payload is
/// `buf[FRAME_HEAD..len]`). `buf` is borrowed mutably only to sum `lsn ‖
/// payload` in place; it is left as it was.
pub(crate) fn read_frame(buf: &mut [u8]) -> Option<(u64, usize)> {
    let (lsn, len) = frame_head(buf)?;
    let sum = Cursor { buf: &buf[12..] }.u64()?;
    let frame = &mut buf[..len];
    frame[12..20].copy_from_slice(&lsn.to_le_bytes());
    let whole = checksum(&frame[12..]) == sum;
    frame[12..20].copy_from_slice(&sum.to_le_bytes());
    whole.then_some((lsn, len))
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

/// How often one journal was written to and synced, and how often
/// `wal.journal` started a new lap; exported as
/// `<wal|meta>_journal_{appends,fsyncs}_total` (a `meta.journal` append
/// is a slot write, a `wal.journal` append a batch) and
/// `wal_journal_laps_total`.
#[derive(Default)]
pub(crate) struct JournalStats {
    pub(crate) appends: Counter,
    pub(crate) fsyncs: Counter,
    pub(crate) laps: Counter,
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

/// A truncate marker frame on disk: frame head, tag and base.
const MARKER_FRAME_LEN: usize = FRAME_HEAD + 1 + 8;

/// Append a truncate marker frame: the store discarded every record below
/// `base`. `lsn` is the LSN the next record gets. At the front of a lap it
/// also numbers what follows for a walk that cannot trust the head.
fn push_marker(out: &mut Vec<u8>, lsn: u64, base: u64) {
    let at = open_frame(out, lsn);
    out.push(TAG_WAL_TRUNCATE);
    out.extend_from_slice(&base.to_le_bytes());
    seal_frame(out, at);
}

/// The base a truncate marker's payload declares; `None` for any other
/// payload.
fn marker_base(payload: &[u8]) -> Option<u64> {
    let mut c = Cursor { buf: payload };
    if c.u8()? != TAG_WAL_TRUNCATE {
        return None;
    }
    c.u64()
}

/// `wal.journal`'s head slot: where a reopen starts reading. It names the
/// frame at offset `from` and the LSN that frame carries; every frame of
/// the file outside the chain from there is dead. On disk: [`HEAD_TAG`],
/// `from`, `lsn`, then the checksum of those 24 bytes.
///
/// The slot is written only by a lap switch, and only ever names frames
/// that were durable before it was written, so a power loss can cost it
/// its write (or tear it) but never leave it pointing past the durable
/// log. A slot that does not decode, or points past the end of the file,
/// is not trusted: the walk starts at the first frame, whose LSN numbers
/// it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Head {
    from: u64,
    lsn: u64,
}

impl Head {
    /// The first frame, numbered from LSN 0: a created journal.
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

/// What a walk of `wal.journal` found.
struct Replayed {
    /// LSN of the first surviving record.
    base: u64,
    /// The surviving records, `base` onwards.
    records: Vec<LogRecord>,
    /// File offset of each surviving record's frame.
    offsets: VecDeque<u64>,
    /// File offset of the end of the chain: where the next frame goes.
    end: u64,
    /// LSN the next record gets.
    next_lsn: u64,
}

/// The frame heads of a chain, and its markers whole, walked so far:
/// where the chain ends, and the final base its markers declare.
struct Chain {
    base: u64,
    next_lsn: u64,
    /// Offset of the end of the chain in the bytes walked.
    end: usize,
}

impl Chain {
    fn from(head: Head) -> Chain {
        Chain {
            base: head.lsn,
            next_lsn: head.lsn,
            end: 0,
        }
    }

    /// Walk on through `body`, the file's bytes from the head on: every
    /// frame must be whole, carry the LSN the walk expects and, if it is
    /// a marker, pass its sum. `false` once a frame ends the chain; `true`
    /// when `body` ends first, so that more of the file may carry it on.
    fn walk(&mut self, body: &mut [u8]) -> bool {
        while let Some((lsn, len)) = frame_head(&body[self.end..]) {
            let at = self.end;
            if lsn != self.next_lsn {
                return false;
            }
            match body[at + FRAME_HEAD..at + len].first().copied() {
                Some(TAG_WAL_RECORD) => self.next_lsn += 1,
                Some(TAG_WAL_TRUNCATE) if read_frame(&mut body[at..]).is_some() => {
                    let Some(declared) = marker_base(&body[at + FRAME_HEAD..at + len]) else {
                        return false;
                    };
                    self.base = self.base.max(declared);
                }
                _ => return false,
            }
            self.end += len;
        }
        true
    }
}

/// Walk the chain of frames from `head` on, `body` being the file's bytes
/// from `head.from` (see [`Chain::walk`]); the first frame that does not
/// belong ends it. Markers count, and so do the records they leave alive.
/// A dead record (below the final base) was synced before the marker that
/// killed it was written, so it cannot be torn: it is skipped by LSN,
/// never summed or decoded. `Err(at)` when a surviving record framed at
/// file offset `at` fails its sum or does not decode — the journal ends
/// there, markers beyond it included, so the caller walks up to `at`.
fn replay(body: &mut [u8], head: Head) -> Result<Replayed, u64> {
    let mut chain = Chain::from(head);
    chain.walk(body);
    let Chain {
        base,
        next_lsn,
        end,
    } = chain;

    // Sum and decode the survivors, each image copied once, out of
    // `body` into its record.
    let mut records = Vec::new();
    let mut offsets = VecDeque::new();
    let mut at = 0;
    while let Some((lsn, len)) = frame_head(&body[at..end]) {
        if body[at + FRAME_HEAD] == TAG_WAL_RECORD && lsn >= base {
            let whole = read_frame(&mut body[at..]).is_some();
            let decoded = codec::decode_slice(&body[at + FRAME_HEAD + 1..at + len]);
            let (true, Ok((record, _))) = (whole, decoded) else {
                return Err(head.from + at as u64);
            };
            records.push(record);
            offsets.push_back(head.from + at as u64);
        }
        at += len;
    }
    Ok(Replayed {
        base,
        records,
        offsets,
        end: head.from + end as u64,
        next_lsn,
    })
}

/// What a reopen finds in a `wal.journal` of `len` bytes that `read_at`
/// reads: the head it walked from, the walk, and the bytes it read. It
/// reads the head slot, then the file from where that points in steps of
/// [`READ_STEP`], until a frame ends the chain; a slot it does not trust
/// costs a read of the whole file, walked from the first frame.
fn reopen(
    len: u64,
    read_at: impl Fn(&mut [u8], u64) -> io::Result<()>,
) -> io::Result<(Head, Replayed, u64)> {
    let mut slot = [0; HEAD_LEN as usize];
    read_at(&mut slot, 0)?;
    let trusted = Head::decode(&slot).filter(|head| head.from <= len);
    let from = trusted.map_or(HEAD_LEN, |head| head.from);
    let step = if trusted.is_some() { READ_STEP } else { len };
    let mut body = vec![0; step.min(len - from) as usize];
    read_at(&mut body, from)?;
    let head = trusted.unwrap_or_else(|| Head {
        from,
        lsn: read_frame(&mut body).map_or(0, |(lsn, _)| lsn),
    });
    let mut chain = Chain::from(head);
    while chain.walk(&mut body) && from + (body.len() as u64) < len {
        let (at, read) = (from + body.len() as u64, body.len());
        body.resize(read + step.min(len - at) as usize, 0);
        read_at(&mut body[read..], at)?;
    }
    let mut upto = body.len();
    let replayed = loop {
        match replay(&mut body[..upto], head) {
            Ok(replayed) => break replayed,
            Err(cut) => upto = (cut - head.from) as usize,
        }
    };
    Ok((head, replayed, HEAD_LEN + body.len() as u64))
}

/// The open `wal.journal`: the chain of frames this process extends, and
/// the buffer a batch is framed in before its one `write`.
///
/// Every write keeps one invariant: **no write touches a byte on the
/// chain from the durable head to the last synced frame.** A batch goes
/// behind the chain; a lap switch writes the head only to name frames
/// already durable, and its copies only below the frames that head names.
/// So wherever a crash lands, torn writes included, the durable head
/// starts a chain that holds every record a [`LogSink::sync`] promised.
struct Journal {
    file: File,
    stats: Arc<JournalStats>,
    batch: Vec<u8>,
    /// What the head slot says, as far as this process wrote it or
    /// trusted it at load.
    head: Head,
    /// Where the chain ends: where the next frame lands.
    tail: u64,
    /// How much of the chain the last [`Journal::sync`] made durable; 0
    /// after a load, until the first one.
    synced: u64,
    /// Length of the file.
    len: u64,
    /// LSN of the first retained record.
    base: u64,
    /// LSN the next record gets.
    next_lsn: u64,
    /// Offset of each retained record's frame, `base` onwards.
    offsets: VecDeque<u64>,
    /// `base` has grown since the file last said so: the marker declaring
    /// it rides at the head of the next batch's one `write` (or goes out
    /// when the sink is dropped). A marker that never lands only costs
    /// the next reopen some decoding.
    marker_owed: bool,
    /// A load found bytes past the chain. The process that died may have
    /// left frames there of a batch it never synced, numbered with LSNs
    /// this process hands out again: a batch of this process that ended
    /// where one of them begins would splice it onto the log. So the
    /// first write zeroes them, durably, before it writes its frames.
    dead_past_tail: bool,
    /// Every positioned write, in order, while a test that tears them
    /// watches.
    #[cfg(test)]
    watched: Option<Vec<(u64, Vec<u8>)>>,
}

impl Journal {
    /// Offset of the first retained frame: where the next frame lands
    /// when nothing is retained.
    fn live_from(&self) -> u64 {
        self.offsets.front().copied().unwrap_or(self.tail)
    }

    /// The one place `wal.journal` is written.
    fn write_at(&mut self, bytes: &[u8], at: u64) -> io::Result<()> {
        #[cfg(test)]
        if let Some(watched) = &mut self.watched {
            watched.push((at, bytes.to_vec()));
        }
        self.file.write_all_at(bytes, at)
    }

    /// Write `frames` at the tail, once what a dead process left past it
    /// is zeroed (see `Journal::dead_past_tail`).
    fn append(&mut self, frames: &[u8]) -> io::Result<()> {
        if std::mem::take(&mut self.dead_past_tail) {
            self.write_at(&vec![0; (self.len - self.tail) as usize], self.tail)?;
            self.sync()?;
        }
        self.write_at(frames, self.tail)?;
        self.stats.appends.inc();
        self.tail += frames.len() as u64;
        self.len = self.len.max(self.tail);
        Ok(())
    }

    /// Make everything written so far stable.
    fn sync(&mut self) -> io::Result<()> {
        self.file.sync_data()?;
        self.stats.fsyncs.inc();
        self.synced = self.tail;
        Ok(())
    }

    /// Point the head slot at `head` and make it durable.
    fn set_head(&mut self, head: Head) -> io::Result<()> {
        self.write_at(&head.encode(), 0)?;
        self.sync()?;
        self.head = head;
        Ok(())
    }

    /// Does this force start a new lap? Only once the tail is [`LAP`]
    /// into the file, everything written is durable, and a marker plus
    /// the live frames fit below where those start now.
    fn lap_due(&self) -> bool {
        let live_from = self.live_from();
        let front = HEAD_LEN + MARKER_FRAME_LEN as u64 + (self.tail - live_from);
        self.tail >= LAP && self.synced == self.tail && front <= live_from
    }

    /// Start a new lap at the front of the file, in three durable steps;
    /// a crash between any two, or tearing any one, leaves a head whose
    /// chain holds the same records:
    ///
    /// 1. the head names the live frames where they are (durable: see
    ///    [`Journal::lap_due`]);
    /// 2. a marker declaring `base`, then the live frames byte for byte,
    ///    are written at the front — below the frames step 1 named — and
    ///    made durable;
    /// 3. the head names the front.
    ///
    /// An untrusted head (torn in step 1 or 3) falls back to the first
    /// frame: the previous lap's marker or this one's, each followed by a
    /// whole chain. Behind the copies lie the previous lap's frames, whose
    /// older LSNs end the walk until the next batch overwrites them. A
    /// file more than two laps long grew while a pinned log kept its lap
    /// going; once the head names the front it is cut back to the copies,
    /// since all it holds past them is dead.
    fn new_lap(&mut self) -> io::Result<()> {
        let live_from = self.live_from();
        self.set_head(Head {
            from: live_from,
            lsn: self.base,
        })?;
        let mut front = std::mem::take(&mut self.batch);
        front.clear();
        push_marker(&mut front, self.base, self.base);
        let copied = front.len();
        front.resize(copied + (self.tail - live_from) as usize, 0);
        self.file.read_exact_at(&mut front[copied..], live_from)?;
        self.write_at(&front, HEAD_LEN)?;
        let shift = live_from - HEAD_LEN - copied as u64;
        for at in &mut self.offsets {
            *at -= shift;
        }
        self.tail = HEAD_LEN + front.len() as u64;
        self.batch = front;
        self.marker_owed = false;
        self.sync()?;
        self.set_head(Head {
            from: HEAD_LEN,
            lsn: self.base,
        })?;
        if self.len > 2 * LAP {
            self.file.set_len(self.tail)?;
            self.len = self.tail;
        }
        self.stats.laps.inc();
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

    /// The sink over `file`, `len` bytes long, whose chain from `head`
    /// holds what `replayed` says.
    fn over(
        file: File,
        len: u64,
        head: Head,
        replayed: Replayed,
        read_at_load: u64,
    ) -> FileLogSink {
        let journal = Journal {
            file,
            stats: Arc::default(),
            batch: Vec::new(),
            head,
            tail: replayed.end,
            synced: 0,
            len,
            base: replayed.base,
            next_lsn: replayed.next_lsn,
            offsets: replayed.offsets,
            marker_owed: false,
            dead_past_tail: replayed.end < len,
            #[cfg(test)]
            watched: None,
        };
        FileLogSink {
            journal: Mutex::new(journal),
            read_at_load,
        }
    }

    /// Create an empty WAL journal: a head slot naming the frames that
    /// will follow it, durable before the manifest that makes the
    /// directory a database is written.
    pub(crate) fn create(dir: &Path) -> io::Result<FileLogSink> {
        let file = OpenOptions::new()
            .read(true)
            .write(true)
            .create(true)
            .truncate(true)
            .open(FileLogSink::journal_path(dir))?;
        file.write_all_at(&Head::START.encode(), 0)?;
        file.sync_data()?;
        let empty = Replayed {
            base: 0,
            records: Vec::new(),
            offsets: VecDeque::new(),
            end: HEAD_LEN,
            next_lsn: 0,
        };
        Ok(FileLogSink::over(file, HEAD_LEN, Head::START, empty, 0))
    }

    /// Walk the WAL journal of a surviving database and return the sink,
    /// positioned to write behind the chain's last frame, plus `(base,
    /// records)` for [`LogStore::restore`](rda_wal::LogStore::restore).
    /// Reads the chain (see [`reopen`]), writes nothing.
    pub(crate) fn load(dir: &Path) -> io::Result<(FileLogSink, u64, Vec<LogRecord>)> {
        let file = OpenOptions::new()
            .read(true)
            .write(true)
            .open(FileLogSink::journal_path(dir))?;
        let len = file.metadata()?.len();
        let (head, mut replayed, read) = reopen(len, |buf, at| file.read_exact_at(buf, at))?;
        let (base, records) = (replayed.base, std::mem::take(&mut replayed.records));
        let sink = FileLogSink::over(file, len, head, replayed, read);
        Ok((sink, base, records))
    }

    /// Tallies of this journal's batches, fsyncs and laps, for the metrics
    /// registry.
    pub(crate) fn stats(&self) -> Arc<JournalStats> {
        Arc::clone(&self.journal.lock().stats)
    }

    /// Current length of `wal.journal`.
    pub(crate) fn journal_bytes(&self) -> u64 {
        self.journal.lock().len
    }

    /// Bytes of `wal.journal` the reopen read: its head slot and the file
    /// from where that points; 0 for a created journal.
    pub(crate) fn read_at_load(&self) -> u64 {
        self.read_at_load
    }
}

impl LogSink for FileLogSink {
    fn append_batch(&self, records: &[LogRecord]) {
        let mut journal = self.journal.lock();
        let journal = &mut *journal;
        if journal.lap_due() {
            if let Err(e) = journal.new_lap() {
                panic!("wal journal lap switch failed, durability is lost: {e}");
            }
        }
        let mut batch = std::mem::take(&mut journal.batch);
        batch.clear();
        if std::mem::take(&mut journal.marker_owed) {
            push_marker(&mut batch, journal.next_lsn, journal.base);
        }
        for record in records {
            journal.offsets.push_back(journal.tail + batch.len() as u64);
            let at = open_frame(&mut batch, journal.next_lsn);
            batch.push(TAG_WAL_RECORD);
            codec::encode(record, &mut batch);
            seal_frame(&mut batch, at);
            journal.next_lsn += 1;
        }
        if let Err(e) = journal.append(&batch) {
            panic!("wal journal append failed, durability is lost: {e}");
        }
        journal.batch = batch;
    }

    fn sync(&self) {
        if let Err(e) = self.journal.lock().sync() {
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
    }
}

impl Drop for FileLogSink {
    /// A clean close tells the next reopen where the log starts, so that
    /// it decodes nothing dead. Best effort: see `Journal::marker_owed`.
    fn drop(&mut self) {
        let journal = self.journal.get_mut();
        if journal.marker_owed {
            let mut marker = Vec::with_capacity(MARKER_FRAME_LEN);
            push_marker(&mut marker, journal.next_lsn, journal.base);
            let _ = journal.append(&marker);
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

    /// Length of one framed `Bot` record: frame head + tag + 9 encoded
    /// bytes.
    const BOT_FRAME: usize = FRAME_HEAD + 1 + 9;

    /// Records with a `size`-byte image each, the image telling them
    /// apart.
    fn images(ids: std::ops::Range<u64>, size: usize) -> Vec<LogRecord> {
        ids.map(|i| LogRecord::AfterImage {
            txn: TxnId(i),
            page: DataPageId(0),
            image: vec![i as u8; size],
        })
        .collect()
    }

    /// Records with a 4 000-byte image each: a transaction's after-images.
    fn pages(ids: std::ops::Range<u64>) -> Vec<LogRecord> {
        images(ids, 4000)
    }

    /// Length of one framed [`pages`] record: frame head + tag + 17 bytes
    /// of record header + the image.
    const PAGE_FRAME: usize = FRAME_HEAD + 1 + 17 + 4000;

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
        use std::io::Write as _;
        let mut f = OpenOptions::new()
            .append(true)
            .open(FileLogSink::journal_path(dir))
            .unwrap();
        f.write_all(bytes).unwrap();
    }

    /// One sealed frame numbered `lsn` around `payload`.
    fn frame(lsn: u64, payload: &[u8]) -> Vec<u8> {
        let mut out = Vec::new();
        let at = open_frame(&mut out, lsn);
        out.extend_from_slice(payload);
        seal_frame(&mut out, at);
        out
    }

    /// `record` framed as the sink frames it, numbered `lsn`.
    fn record_frame(lsn: u64, record: &LogRecord) -> Vec<u8> {
        let mut payload = vec![TAG_WAL_RECORD];
        codec::encode(record, &mut payload);
        frame(lsn, &payload)
    }

    /// Bytes before a journal's first frame.
    const H: usize = HEAD_LEN as usize;

    /// What a reopen of the `wal.journal` image `bytes` walks from, and
    /// finds: the code path of [`FileLogSink::load`], over memory.
    fn reopen_image(bytes: &[u8]) -> (Head, Replayed) {
        let read_at = |buf: &mut [u8], at: u64| {
            buf.copy_from_slice(&bytes[at as usize..][..buf.len()]);
            Ok(())
        };
        let (head, replayed, _) = reopen(bytes.len() as u64, read_at).unwrap();
        (head, replayed)
    }

    /// `(base, records)` a reopen of the image `bytes` finds.
    fn log_of(bytes: &[u8]) -> (u64, Vec<LogRecord>) {
        let (_, walked) = reopen_image(bytes);
        (walked.base, walked.records)
    }

    /// The head slot a journal's bytes open with, if it decodes.
    fn slot_of(bytes: &[u8]) -> Option<Head> {
        Head::decode(bytes[..H].try_into().unwrap())
    }

    /// What the sink believes about its file is what a reopen of it
    /// finds, but for the records an owed marker has yet to declare dead.
    fn assert_matches_a_fresh_walk(sink: &FileLogSink, dir: &Path) {
        let bytes = wal_bytes(dir);
        let journal = sink.journal.lock();
        let (head, mut fresh) = reopen_image(&bytes);
        assert_eq!(slot_of(&bytes), Some(journal.head));
        assert_eq!(head, journal.head);
        assert_eq!(journal.len, bytes.len() as u64);
        if journal.marker_owed {
            let dead = (journal.base - fresh.base) as usize;
            fresh.offsets.drain(..dead);
            fresh.base = journal.base;
        }
        assert_eq!(
            (
                journal.tail,
                journal.base,
                journal.next_lsn,
                &journal.offsets
            ),
            (fresh.end, fresh.base, fresh.next_lsn, &fresh.offsets)
        );
    }

    /// Commit `c` as the engine does it under FORCE: its four records
    /// (LSNs `4c..4c + 4`) appended and forced, then truncated away.
    fn commit(sink: &FileLogSink, c: u64) {
        sink.append_batch(&pages(4 * c..4 * c + 4));
        sink.sync();
        sink.truncated(4 * c + 4);
    }

    fn laps(sink: &FileLogSink) -> u64 {
        sink.stats().laps.get()
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

    /// Same bytes on disk as one frame per record: length, LSN, the sum
    /// of both with the payload, then tag and record.
    #[test]
    fn batch_is_framed_record_by_record_in_one_buffer() {
        let dir = wal_with("wal-bytes", &bots(0..2));
        let mut expect = Head::START.encode().to_vec();
        for (lsn, record) in bots(0..2).iter().enumerate() {
            expect.extend_from_slice(&record_frame(lsn as u64, record));
        }
        let bytes = wal_bytes(&dir);
        assert_eq!(bytes, expect);
        assert_eq!(expect.len(), H + 2 * BOT_FRAME);
        // The sum covers the LSN, the length and the payload.
        for flip in [H, H + 4, H + 12, H + FRAME_HEAD] {
            let mut torn = bytes[H..H + BOT_FRAME].to_vec();
            torn[flip - H] ^= 1;
            assert_eq!(read_frame(&mut torn), None, "byte {flip}");
        }
        let _ = std::fs::remove_dir_all(&dir);
        let dir = wal_with("wal-bytes-page", &pages(3..4));
        assert_eq!(wal_bytes(&dir).len(), H + PAGE_FRAME);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn clean_reopen_leaves_the_journal_byte_identical() {
        let dir = wal_with("wal-clean", &bots(0..5));
        let before = wal_bytes(&dir);
        let (sink, base, survivors) = FileLogSink::load(&dir).unwrap();
        assert_eq!((base, survivors), (0, bots(0..5)));
        assert_eq!(wal_bytes(&dir), before);
        // Appends resume at the end of the untouched file.
        sink.append_batch(&bots(5..6));
        assert_eq!(wal_bytes(&dir)[..before.len()], before[..]);
        drop(sink);
        let (_sink, base, survivors) = FileLogSink::load(&dir).unwrap();
        assert_eq!((base, survivors), (0, bots(0..6)));
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// A kill mid-append leaves a frame promising more than was written.
    /// The reopen leaves it where it is; the next batch overwrites it.
    #[test]
    fn torn_tail_is_left_in_place_and_the_next_batch_overwrites_it() {
        let dir = wal_with("wal-torn", &bots(0..3));
        let torn = &record_frame(3, &pages(3..4)[0])[..300];
        append_raw(&dir, torn);
        let before = wal_bytes(&dir);
        let (sink, base, survivors) = FileLogSink::load(&dir).unwrap();
        assert_eq!((base, survivors), (0, bots(0..3)));
        assert!(wal_bytes(&dir) == before, "the reopen wrote nothing");
        assert_matches_a_fresh_walk(&sink, &dir);
        sink.append_batch(&bots(3..4));
        drop(sink);
        let (_sink, base, survivors) = FileLogSink::load(&dir).unwrap();
        assert_eq!((base, survivors), (0, bots(0..4)));
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// The chain ends at the first frame that fails its sum, carries
    /// another LSN, or is whole but no record: everything behind it is
    /// past the journal's end, valid frames and markers included.
    #[test]
    fn corrupt_frame_ends_the_journal_with_everything_behind_it() {
        // A record, then a marker that would kill record 0 if honoured.
        let behind = |lsn: u64| {
            let mut tail = record_frame(lsn, &bots(9..10)[0]);
            push_marker(&mut tail, lsn + 1, 1);
            tail
        };
        let mut torn = record_frame(2, &bots(2..3)[0]);
        torn[FRAME_HEAD] ^= 0x40;
        let cases: [(&str, Vec<u8>); 4] = [
            ("fails its sum", torn),
            ("another LSN", record_frame(5, &bots(2..3)[0])),
            (
                "undecodable record",
                frame(2, &[TAG_WAL_RECORD, 0xFF, 0xFF]),
            ),
            ("unknown tag", frame(2, &[99, 0])),
        ];
        for (n, (case, bad)) in cases.into_iter().enumerate() {
            let dir = wal_with(&format!("wal-corrupt-{n}"), &bots(0..2));
            let mut tail = bad.clone();
            tail.extend_from_slice(&behind(3));
            append_raw(&dir, &tail);
            let (sink, base, survivors) = FileLogSink::load(&dir).unwrap();
            assert_eq!((base, survivors), (0, bots(0..2)), "{case}");
            assert_eq!(sink.journal.lock().tail, (H + 2 * BOT_FRAME) as u64);
            sink.append_batch(&bots(2..3));
            drop(sink);
            let (_sink, base, survivors) = FileLogSink::load(&dir).unwrap();
            assert_eq!((base, survivors), (0, bots(0..3)), "{case}");
            let _ = std::fs::remove_dir_all(&dir);
        }
    }

    /// A dead record's frame is skipped by LSN, never summed or decoded:
    /// one that would not decode, or whose payload was scribbled over,
    /// costs the reopen nothing. Live, either ends the journal in front of
    /// it.
    #[test]
    fn dead_records_are_skipped_not_decoded() {
        let dir = tmpdir("wal-dead");
        let path = FileLogSink::journal_path(&dir);
        let mut scribbled = record_frame(2, &bots(2..3)[0]);
        scribbled[FRAME_HEAD + 1..].fill(0xFF);
        let mut bytes = Head::START.encode().to_vec();
        bytes.extend_from_slice(&record_frame(0, &bots(0..1)[0]));
        bytes.extend_from_slice(&frame(1, &[TAG_WAL_RECORD, 0xFF, 0xFF]));
        bytes.extend_from_slice(&scribbled);
        bytes.extend_from_slice(&record_frame(3, &bots(3..4)[0]));
        std::fs::write(&path, &bytes).unwrap();
        let (_sink, base, survivors) = FileLogSink::load(&dir).unwrap();
        assert_eq!((base, survivors), (0, bots(0..1)));
        let mut marker = Vec::new();
        push_marker(&mut marker, 4, 2);
        bytes.extend_from_slice(&marker);
        std::fs::write(&path, &bytes).unwrap();
        let (_sink, base, survivors) = FileLogSink::load(&dir).unwrap();
        // Record 2 is live and torn: the journal, and the marker, end in
        // front of it, so record 1 is live and ends it earlier still.
        assert_eq!((base, survivors), (0, bots(0..1)));
        bytes.truncate(bytes.len() - MARKER_FRAME_LEN);
        let mut marker = Vec::new();
        push_marker(&mut marker, 4, 3);
        bytes.extend_from_slice(&marker);
        std::fs::write(&path, &bytes).unwrap();
        let (_sink, base, survivors) = FileLogSink::load(&dir).unwrap();
        assert_eq!((base, survivors), (3, bots(3..4)));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn interleaved_markers_keep_base_survivors_and_numbering() {
        let dir = tmpdir("wal-markers");
        let sink = FileLogSink::create(&dir).unwrap();
        // Record i is LSN i in this history.
        sink.append_batch(&bots(0..10));
        sink.truncated(4);
        // The truncation writes nothing: its marker waits for the next
        // batch, whose one write it heads.
        assert_eq!(wal_bytes(&dir).len(), H + 10 * BOT_FRAME);
        sink.append_batch(&bots(10..14));
        let bytes = wal_bytes(&dir);
        assert_eq!(bytes.len(), H + 14 * BOT_FRAME + MARKER_FRAME_LEN);
        let mut marker = Vec::new();
        push_marker(&mut marker, 10, 4);
        assert!(bytes[H + 10 * BOT_FRAME..][..MARKER_FRAME_LEN] == marker[..]);
        assert_matches_a_fresh_walk(&sink, &dir);
        sink.truncated(13);
        // The store's base only grows; a stale call changes nothing.
        sink.truncated(6);
        sink.append_batch(&bots(14..16));
        assert_matches_a_fresh_walk(&sink, &dir);
        drop(sink);

        // The numbering continues through a reopen...
        let (sink, base, survivors) = FileLogSink::load(&dir).unwrap();
        assert_eq!((base, survivors), (13, bots(13..16)));
        sink.append_batch(&bots(16..18));
        // ...and through a truncation whose marker a clean close writes.
        sink.truncated(17);
        let len = wal_bytes(&dir).len();
        drop(sink);
        assert_eq!(wal_bytes(&dir).len(), len + MARKER_FRAME_LEN);
        let (sink, base, survivors) = FileLogSink::load(&dir).unwrap();
        assert_eq!((base, survivors), (17, bots(17..18)));
        assert_matches_a_fresh_walk(&sink, &dir);
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
    fn offsets_after_load_agree_with_a_fresh_walk() {
        // Plain: nothing dead, nothing torn.
        let dir = wal_with("wal-offsets-plain", &bots(0..5));
        let (sink, _, _) = FileLogSink::load(&dir).unwrap();
        assert_eq!(sink.journal.lock().offsets.len(), 5);
        assert_matches_a_fresh_walk(&sink, &dir);
        let _ = std::fs::remove_dir_all(&dir);

        // Torn tail: the chain ends in front of it.
        let dir = wal_with("wal-offsets-torn", &bots(0..5));
        append_raw(&dir, &[200, 0, 0, 0, 7, 1, 2]);
        let (sink, _, _) = FileLogSink::load(&dir).unwrap();
        assert_eq!(sink.journal.lock().tail, (H + 5 * BOT_FRAME) as u64);
        assert_matches_a_fresh_walk(&sink, &dir);
        let _ = std::fs::remove_dir_all(&dir);

        // Several laps in, with a live transaction: the offsets describe
        // the copies at the front, and the next batch lands where they say.
        let dir = tmpdir("wal-offsets-lapped");
        let sink = FileLogSink::create(&dir).unwrap();
        let mut c = 0;
        while laps(&sink) < 2 {
            commit(&sink, c);
            c += 1;
        }
        sink.append_batch(&pages(4 * c..4 * c + 2));
        sink.sync();
        drop(sink);
        let (sink, base, survivors) = FileLogSink::load(&dir).unwrap();
        assert_eq!((base, survivors), (4 * c, pages(4 * c..4 * c + 2)));
        assert_matches_a_fresh_walk(&sink, &dir);
        sink.append_batch(&bots(4 * c + 2..4 * c + 4));
        assert_matches_a_fresh_walk(&sink, &dir);
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// Commit after commit under FORCE: the journal runs in laps of
    /// [`LAP`], each new lap starting at the front with the marker and
    /// nothing else live, so the file stays within a lap and one commit,
    /// and every reopen along the way finds the log the sink holds.
    #[test]
    fn laps_reuse_the_front_of_the_file() {
        let dir = tmpdir("wal-laps");
        let sink = FileLogSink::create(&dir).unwrap();
        let one_commit = (4 * PAGE_FRAME + MARKER_FRAME_LEN) as u64;
        let mut c = 0;
        while laps(&sink) < 6 {
            let before = laps(&sink);
            commit(&sink, c);
            let len = wal_bytes(&dir).len() as u64;
            assert!(len <= LAP + one_commit, "commit {c}: {len} bytes");
            assert_eq!(sink.journal_bytes(), len);
            if laps(&sink) > before {
                // The lap opened with its marker, the batch behind it.
                let journal = sink.journal.lock();
                assert_eq!(
                    journal.head,
                    Head {
                        from: HEAD_LEN,
                        lsn: 4 * c
                    }
                );
                assert_eq!(journal.tail, HEAD_LEN + one_commit);
            }
            c += 1;
        }
        assert_matches_a_fresh_walk(&sink, &dir);
        // Three fsyncs per lap, one per commit.
        assert_eq!(sink.stats().fsyncs.get(), c + 3 * 6);
        assert_eq!(sink.stats().appends.get(), c);
        // A reopen reads at most the file and finds the open transaction.
        sink.append_batch(&pages(4 * c..4 * c + 2));
        sink.sync();
        std::mem::forget(sink);
        let (sink, base, survivors) = FileLogSink::load(&dir).unwrap();
        assert_eq!((base, survivors), (4 * c, pages(4 * c..4 * c + 2)));
        assert!(sink.read_at_load() <= LAP + one_commit);
        assert_eq!(sink.journal_bytes(), wal_bytes(&dir).len() as u64);
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// A transaction that stays open pins the log: the live frames do not
    /// fit below themselves, so the lap keeps going and the file grows;
    /// once the pin goes, the next force starts a lap and cuts the file
    /// back to it, and the laps that follow keep within a lap and a
    /// commit.
    #[test]
    fn a_live_log_that_does_not_fit_keeps_the_lap_going() {
        let dir = tmpdir("wal-pinned");
        let sink = FileLogSink::create(&dir).unwrap();
        // `n` records forced, then the log truncated to `keep_from`, or
        // to its end.
        let force = |lsn: &mut u64, n: u64, keep_from: Option<u64>| {
            sink.append_batch(&pages(*lsn..*lsn + n));
            sink.sync();
            *lsn += n;
            sink.truncated(keep_from.unwrap_or(*lsn));
        };
        let mut lsn = 0;
        // A pinned transaction a quarter into the first lap.
        while wal_bytes(&dir).len() < (LAP / 4) as usize {
            force(&mut lsn, 4, None);
        }
        let pin = lsn;
        force(&mut lsn, 1, Some(pin));
        while wal_bytes(&dir).len() < (2 * LAP) as usize {
            force(&mut lsn, 4, Some(pin));
            assert_eq!(laps(&sink), 0, "the live log cannot fit below itself");
        }
        let grown = wal_bytes(&dir).len();
        force(&mut lsn, 4, None);
        assert_eq!(laps(&sink), 0, "the pin was live at this force");
        assert!(wal_bytes(&dir).len() > grown);
        force(&mut lsn, 4, None);
        assert_eq!(laps(&sink), 1, "the first force after the pin went");
        assert_eq!(wal_bytes(&dir).len(), H + MARKER_FRAME_LEN + 4 * PAGE_FRAME);
        assert_matches_a_fresh_walk(&sink, &dir);
        let one_commit = 4 * PAGE_FRAME + MARKER_FRAME_LEN;
        while laps(&sink) < 3 {
            force(&mut lsn, 4, None);
            assert!(wal_bytes(&dir).len() <= LAP as usize + one_commit);
        }
        assert_matches_a_fresh_walk(&sink, &dir);
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// Apply the sectors of the positioned write `(at, bytes)` that
    /// `landed` selects to `image`: a power loss tears a write into any
    /// subset of its 512-byte sectors.
    fn tear(image: &mut Vec<u8>, (at, bytes): &(u64, Vec<u8>), landed: u64) {
        let (at, end) = (*at as usize, *at as usize + bytes.len());
        if image.len() < end {
            image.resize(end, 0);
        }
        for (n, sector) in (at / 512..end.div_ceil(512)).enumerate() {
            if landed >> n & 1 == 1 {
                let range = (sector * 512).max(at)..(sector * 512 + 512).min(end);
                image[range.clone()].copy_from_slice(&bytes[range.start - at..range.end - at]);
            }
        }
    }

    fn sectors((at, bytes): &(u64, Vec<u8>)) -> usize {
        let at = *at as usize;
        (at + bytes.len()).div_ceil(512) - at / 512
    }

    /// Every subset of the 512-byte sectors of every write a lap switch
    /// makes — the head advance, the copies, the head switch — reopens to
    /// exactly the log that was durable before it; so do the batch that
    /// follows, written over the previous lap's stale frames, and the one
    /// after it, except that a torn batch may keep a prefix of its own
    /// records. No subset loses a durable record or accepts a frame of
    /// the earlier lap.
    #[test]
    fn every_sector_subset_of_a_lap_switch_reopens_to_the_log_before_or_after() {
        const SIZE: usize = 600;
        let dir = tmpdir("wal-switch-tears");
        let sink = FileLogSink::create(&dir).unwrap();
        let mut lsn = 0;
        // Commits, each truncated away, to within a few records of LAP...
        let frame_len = (FRAME_HEAD + 1 + 17 + SIZE) as u64;
        while sink.journal.lock().tail + 4 * frame_len < LAP {
            sink.append_batch(&images(lsn..lsn + 2, SIZE));
            sink.sync();
            lsn += 2;
            sink.truncated(lsn);
        }
        // ...then a transaction that stays live across the switch.
        let pin = lsn;
        while sink.journal.lock().tail < LAP {
            sink.append_batch(&images(lsn..lsn + 1, SIZE));
            sink.sync();
            lsn += 1;
        }
        assert!(sink.journal.lock().lap_due());
        assert!(lsn - pin >= 2, "live records to copy");
        let mut image = wal_bytes(&dir);
        let durable = log_of(&image);
        assert_eq!(durable, (pin, images(pin..lsn, SIZE)));

        // The switching force, then one more, each watched write by write.
        sink.journal.lock().watched = Some(Vec::new());
        sink.append_batch(&images(lsn..lsn + 2, SIZE));
        sink.sync();
        sink.append_batch(&images(lsn + 2..lsn + 5, SIZE));
        sink.sync();
        assert_eq!(laps(&sink), 1);
        let writes = sink.journal.lock().watched.take().unwrap();
        assert_eq!(writes.len(), 5, "head, copies, head, two batches");
        assert!(writes[..3].iter().all(|w| w.0 < LAP / 2));
        let mut after = durable.clone();
        for (n, write) in writes.iter().enumerate() {
            let before = after.clone();
            let batch = match n {
                3 => images(lsn..lsn + 2, SIZE),
                4 => images(lsn + 2..lsn + 5, SIZE),
                _ => Vec::new(),
            };
            after.1.extend(batch.iter().cloned());
            let subsets = 1u64 << sectors(write);
            assert!(subsets <= 1 << 12, "write {n}: {} sectors", sectors(write));
            for landed in 0..subsets {
                let mut torn = image.clone();
                tear(&mut torn, write, landed);
                let (base, records) = log_of(&torn);
                assert_eq!(base, before.0, "write {n}, sectors {landed:b}");
                let (old, new) = records.split_at(before.1.len().min(records.len()));
                assert!(
                    old == &before.1[..] && batch.starts_with(new),
                    "write {n}, sectors {landed:b}: {} records, {} before",
                    records.len(),
                    before.1.len()
                );
                if landed == subsets - 1 {
                    assert!(records == after.1, "write {n}, whole");
                }
            }
            tear(&mut image, write, u64::MAX);
        }
        assert!(image == wal_bytes(&dir));
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// Every state the head slot can be found in reopens to the log a
    /// walk from the first frame finds, and carries on.
    #[test]
    fn every_head_slot_state_reopens_to_what_a_walk_from_the_first_frame_finds() {
        let dir = tmpdir("wal-slot-src");
        let sink = FileLogSink::create(&dir).unwrap();
        let mut c = 0;
        while laps(&sink) < 2 {
            commit(&sink, c);
            c += 1;
        }
        sink.append_batch(&pages(4 * c..4 * c + 2));
        sink.sync();
        std::mem::forget(sink);
        let lapped = wal_bytes(&dir);
        let _ = std::fs::remove_dir_all(&dir);
        // The second lap opened at commit c - 1.
        let opened = Head {
            from: HEAD_LEN,
            lsn: 4 * (c - 1),
        };
        assert_eq!(slot_of(&lapped), Some(opened));

        let mut torn = lapped.clone();
        torn[12] ^= 0x40;
        // Killed between the switch's first and last step: the head names
        // the live frames where they were (here: the open transaction's).
        let (_, walked) = reopen_image(&lapped);
        let mut mid_switch = lapped.clone();
        let at_live = Head {
            from: walked.offsets[0],
            lsn: 4 * c,
        };
        mid_switch[..H].copy_from_slice(&at_live.encode());
        // A head naming a frame past the end of the file.
        let mut beyond = lapped.clone();
        let past = Head {
            from: lapped.len() as u64 + 1,
            lsn: 4 * c,
        };
        beyond[..H].copy_from_slice(&past.encode());

        let created = wal_with("wal-slot-created-src", &bots(0..5));
        let created_bytes = wal_bytes(&created);
        let _ = std::fs::remove_dir_all(&created);

        let states: [(&str, &[u8], u64); 5] = [
            ("lapped", &lapped, HEAD_LEN),
            ("torn slot", &torn, HEAD_LEN),
            ("slot naming the live frames", &mid_switch, at_live.from),
            ("slot beyond the file", &beyond, HEAD_LEN),
            ("created, never lapped", &created_bytes, HEAD_LEN),
        ];
        for (n, (state, bytes, reads_from)) in states.into_iter().enumerate() {
            let dir = tmpdir(&format!("wal-slot-{n}"));
            std::fs::write(FileLogSink::journal_path(&dir), bytes).unwrap();
            let mut untrusted = bytes.to_vec();
            untrusted[..H].fill(0);
            let walked = log_of(&untrusted);
            let (sink, base, records) = FileLogSink::load(&dir).unwrap();
            assert!((base, &records) == (walked.0, &walked.1), "{state}");
            // A trusted slot reads the chain and at most a step past it;
            // an untrusted one, the whole file.
            let whole = HEAD_LEN + bytes.len() as u64 - reads_from;
            let chain = sink.journal.lock().tail - reads_from;
            let read = sink.read_at_load();
            if slot_of(bytes).is_some_and(|head| head.from <= bytes.len() as u64) {
                let past = read - HEAD_LEN - chain;
                assert!(read <= whole && past <= READ_STEP, "{state}: {read}");
            } else {
                assert_eq!(read, whole, "{state}");
            }
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

    /// Killed with a marker owed, anywhere in a lap: the reopen reads the
    /// head slot and the chain from the front, and at most a step of
    /// [`READ_STEP`] past it, not the rest of the lap; it finds what a
    /// walk from the first frame finds.
    #[test]
    fn reopen_reads_at_most_a_lap_and_the_live_log() {
        let dir = tmpdir("wal-bounded-read");
        let sink = FileLogSink::create(&dir).unwrap();
        let mut c = 0;
        while laps(&sink) < 3 {
            commit(&sink, c);
            c += 1;
        }
        for _ in 0..5 {
            commit(&sink, c);
            c += 1;
        }
        let (len, tail, live_from) = {
            let journal = sink.journal.lock();
            (journal.len, journal.tail, journal.live_from())
        };
        std::mem::forget(sink);

        let (sink, base, records) = FileLogSink::load(&dir).unwrap();
        let one_commit = (4 * PAGE_FRAME + MARKER_FRAME_LEN) as u64;
        let read = sink.read_at_load();
        assert!(
            read <= LAP + (tail - live_from) + one_commit,
            "{read} of {len} bytes read"
        );
        assert!(read <= tail + READ_STEP && read < len, "{read} of {len}");
        let mut untrusted = wal_bytes(&dir);
        untrusted[..H].fill(0);
        assert!((base, records) == log_of(&untrusted));
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// A process that died mid-batch can leave frames of its last,
    /// never-synced batch past the chain, numbered with the LSNs the next
    /// process hands out again. The reopen leaves them; the first write
    /// after it zeroes them and fsyncs before its batch, so that a batch
    /// ending where a dead frame begins still cannot splice it onto the
    /// log. Every subset of the sectors of either write reopens to the log
    /// before it, or that and a prefix of the batch — never to a dead
    /// record.
    #[test]
    fn a_dead_process_s_unsynced_frames_never_rejoin_the_log() {
        const SIZE: usize = 600;
        let dir = wal_with("wal-dead-batch", &images(0..3, SIZE));
        // The dead batch: record 3 torn, records 4 to 6 whole.
        let mut dead = record_frame(3, &images(3..4, SIZE)[0]);
        dead[FRAME_HEAD] ^= 1;
        for lsn in 4..7 {
            dead.extend_from_slice(&record_frame(lsn, &images(lsn..lsn + 1, SIZE)[0]));
        }
        append_raw(&dir, &dead);
        let mut image = wal_bytes(&dir);
        let (sink, base, survivors) = FileLogSink::load(&dir).unwrap();
        assert_eq!((base, &survivors), (0, &images(0..3, SIZE)));
        assert!(wal_bytes(&dir) == image, "the reopen wrote nothing");

        // The new records 3 and 4 frame to the dead ones' sizes: the batch
        // ends where the dead record 5 begins.
        let batch = images(103..105, SIZE);
        sink.journal.lock().watched = Some(Vec::new());
        sink.append_batch(&batch);
        sink.sync();
        let writes = sink.journal.lock().watched.take().unwrap();
        assert_eq!(writes.len(), 2, "the zeros, then the batch");
        let (at, zeros) = &writes[0];
        assert!(zeros.iter().all(|b| *b == 0));
        assert_eq!(
            (*at, zeros.len()),
            ((image.len() - dead.len()) as u64, dead.len())
        );
        for (n, write) in writes.iter().enumerate() {
            for landed in 0..1u64 << sectors(write) {
                let mut torn = image.clone();
                tear(&mut torn, write, landed);
                let (base, records) = log_of(&torn);
                let (old, new) = records.split_at(survivors.len().min(records.len()));
                assert!(
                    base == 0 && old == &survivors[..] && batch.starts_with(new),
                    "write {n}, sectors {landed:b}: {} records",
                    records.len()
                );
                assert!(n == 1 || new.is_empty(), "sectors {landed:b} of the zeros");
            }
            tear(&mut image, write, u64::MAX);
        }
        assert!(image == wal_bytes(&dir));
        std::mem::forget(sink);
        let (_sink, base, records) = FileLogSink::load(&dir).unwrap();
        assert_eq!(records.len(), 5, "dead records rejoined the log");
        assert!(base == 0 && records[..3] == survivors[..] && records[3..] == batch[..]);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
