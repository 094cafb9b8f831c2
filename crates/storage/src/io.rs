//! The on-disk representation of one spindle: one real file of
//! sector-aligned block slots with positioned I/O, one system call per
//! page transfer.
//!
//! `<n>.data` holds block *b* in the slot at `b × stride`, where `stride`
//! is `page_size + 19 + 8` rounded up to a whole number of 512-byte
//! sectors (2048 for the paper's 2020-byte page: two slots per 4 KiB
//! page-cache page, and no slot ever straddles one). Inside the slot:
//!
//! ```text
//! | image (page_size bytes) | header (19 bytes) | page_sum (8 bytes, LE) | zero padding |
//! ```
//!
//! The header is the block's [`Header`] (a twin's timestamp, state and
//! claim; zero, or a copy of its claim, on a data page). Header and
//! checksum travel inside the block, as the paper keeps a page's
//! timestamp: a read is one `pread` of `page_size + 27` bytes and a write
//! one `pwrite` of the same; the padding is never read or written. The
//! checksum, over image and header, makes a torn write *detectable*,
//! standing in for the per-sector headers real controllers stamp: a block
//! that does not match it reads back as torn, exactly like `SimDisk`'s
//! torn set. A never-written block has checksum 0 and must read back all
//! zeroes, header included.
//!
//! Header and sum *trail* the image so the image starts on the slot's
//! sector boundary and the sum lies in the slot's last written sector. A
//! write that dies after a proper prefix of its sectors leaves the old
//! sum over a partly new image or header; one that lands its last sector
//! but not all the others leaves the new sum over a partly old block.
//! Either is a block/checksum mismatch, which is all a tear is — there
//! is no second file whose write could be the one that went missing.
//!
//! The checksum is `rda_array::xor::checksum`, the word-wise four-lane
//! multiply-mix kernel, verified on every read and computed on every
//! write (hashed a byte at a time, a 2020-byte page cost more than the
//! `pread`/`pwrite` next to it). It tells a whole block from one a dying
//! write left partly in place, not from an adversary's forgery.
//! `manifest.txt` carries the format number of a directory's `.data`
//! layout (format 2 kept the sums in a `<n>.sum` file; before format 6 a
//! slot held no header).
//!
//! All I/O is positioned (`read_exact_at` / `write_all_at`) on slot
//! boundaries, so no caller depends on a file cursor.

use rda_array::{xor, Header};
use std::fs::{File, OpenOptions};
use std::io;
use std::os::unix::fs::FileExt;
use std::path::{Path, PathBuf};

/// Bytes of checksum stored behind each block's header.
const SUM_BYTES: usize = 8;

/// Bytes of a block's image and header: what the checksum covers.
fn covered(page_size: usize) -> usize {
    page_size + Header::LEN
}

/// Slots start on multiples of this, the sector size every drive and
/// page cache agrees on.
const SECTOR: usize = 512;

/// Distance between the slots of consecutive blocks.
fn stride(page_size: usize) -> u64 {
    ((covered(page_size) + SUM_BYTES).div_ceil(SECTOR) * SECTOR) as u64
}

/// Checksum recorded behind a block's image and header. `0` is reserved
/// as the never-written sentinel, so a content hash that lands on 0 is
/// remapped.
fn page_sum(block: &[u8]) -> u64 {
    match xor::checksum(block) {
        0 => 1,
        s => s,
    }
}

/// What a block read found on the platter.
pub(crate) enum BlockImage<'a> {
    /// Image and header match their recorded checksum. The image is
    /// borrowed from the disk's slot buffer: good until the next call on
    /// the same [`DiskFiles`].
    Intact(&'a [u8], Header),
    /// The block and its checksum disagree — a write to this block was
    /// interrupted and the tear is detectable.
    Torn,
}

/// Which [`DiskFiles`] call a unit test wants to fail. Real `pwrite` and
/// `fsync` failures need a full or dying device, so tests plant them here;
/// production builds have no such seam.
#[cfg(test)]
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum FailOn {
    Write(u64),
    Sync,
    Reset,
}

/// The file backing one disk, and the buffer every transfer goes through.
pub(crate) struct DiskFiles {
    data: File,
    page_size: usize,
    block_count: u64,
    stride: u64,
    /// One block's image, header and sum (`page_size + 27` bytes): what
    /// a read lands in and a write is assembled in, so neither allocates.
    slot: Box<[u8]>,
    #[cfg(test)]
    pub(crate) fail_on: Option<FailOn>,
}

impl DiskFiles {
    fn path(dir: &Path, disk: u16) -> PathBuf {
        dir.join(format!("{disk}.data"))
    }

    fn over(data: File, block_count: u64, page_size: usize) -> DiskFiles {
        DiskFiles {
            data,
            page_size,
            block_count,
            stride: stride(page_size),
            slot: vec![0u8; covered(page_size) + SUM_BYTES].into_boxed_slice(),
            #[cfg(test)]
            fail_on: None,
        }
    }

    /// Create (or truncate) the file, pre-sized to the full geometry so
    /// every block address is valid from the start.
    pub(crate) fn create(
        dir: &Path,
        disk: u16,
        block_count: u64,
        page_size: usize,
    ) -> io::Result<DiskFiles> {
        let data = OpenOptions::new()
            .read(true)
            .write(true)
            .create(true)
            .truncate(true)
            .open(DiskFiles::path(dir, disk))?;
        data.set_len(block_count * stride(page_size))?;
        Ok(DiskFiles::over(data, block_count, page_size))
    }

    /// Open an existing file, validating that its size matches the
    /// expected geometry.
    pub(crate) fn open(
        dir: &Path,
        disk: u16,
        block_count: u64,
        page_size: usize,
    ) -> io::Result<DiskFiles> {
        let data = OpenOptions::new()
            .read(true)
            .write(true)
            .open(DiskFiles::path(dir, disk))?;
        if data.metadata()?.len() != block_count * stride(page_size) {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                format!("disk {disk}: file size does not match the configured geometry"),
            ));
        }
        Ok(DiskFiles::over(data, block_count, page_size))
    }

    #[cfg(test)]
    fn injected(&self, op: FailOn) -> io::Result<()> {
        if self.fail_on == Some(op) {
            return Err(io::Error::other(format!("injected {op:?} failure")));
        }
        Ok(())
    }

    /// Read one block's slot and verify image and header against the
    /// checksum behind them.
    pub(crate) fn read_block(&mut self, block: u64) -> io::Result<BlockImage<'_>> {
        self.data
            .read_exact_at(&mut self.slot, block * self.stride)?;
        let (covered, sum) = self.slot.split_at(covered(self.page_size));
        let intact = match u64::from_le_bytes(sum.try_into().expect("slot ends in the sum")) {
            // Never written: must still hold the factory zeroes.
            0 => xor::is_zero(covered),
            stored => page_sum(covered) == stored,
        };
        let (image, header) = covered.split_at(self.page_size);
        let header = header.try_into().ok().and_then(Header::from_bytes);
        Ok(match header {
            Some(header) if intact => BlockImage::Intact(image, header),
            _ => BlockImage::Torn,
        })
    }

    /// Write one block: image, header and checksum in one positioned
    /// write. A death inside it leaves some sectors of the slot old and
    /// some new — a block/checksum mismatch, the failure mode the
    /// checksum exists to expose.
    pub(crate) fn write_block(
        &mut self,
        block: u64,
        image: &[u8],
        header: Header,
    ) -> io::Result<()> {
        #[cfg(test)]
        self.injected(FailOn::Write(block))?;
        let (covered, slot_sum) = self.slot.split_at_mut(covered(self.page_size));
        let (slot_image, slot_header) = covered.split_at_mut(self.page_size);
        slot_image.copy_from_slice(image);
        slot_header.copy_from_slice(&header.to_bytes());
        slot_sum.copy_from_slice(&page_sum(covered).to_le_bytes());
        self.data.write_all_at(&self.slot, block * self.stride)
    }

    /// Deliberately tear a block: overwrite the first half of its image
    /// *without* touching the header and checksum behind it, so the block
    /// reads back torn until rewritten.
    ///
    /// `Some(new)` models a power loss halfway through writing `new` (the
    /// first half of the new image reached the platter); `None` scrambles
    /// the current first half in place (direct tear injection), mirroring
    /// `SimDisk::tear_block`'s `^ 0xA5` scramble.
    pub(crate) fn write_torn_half(&mut self, block: u64, new: Option<&[u8]>) -> io::Result<()> {
        let at = block * self.stride;
        let half = &mut self.slot[..self.page_size / 2];
        match new {
            Some(image) => half.copy_from_slice(&image[..half.len()]),
            None => {
                self.data.read_exact_at(half, at)?;
                for b in half.iter_mut() {
                    *b ^= 0xA5;
                }
            }
        }
        self.data.write_all_at(half, at)
    }

    /// Reset the file to factory-blank (all zeroes, checksum sentinel 0
    /// in every slot) — a replacement drive.
    pub(crate) fn reset_zero(&mut self) -> io::Result<()> {
        #[cfg(test)]
        self.injected(FailOn::Reset)?;
        self.data.set_len(0)?;
        self.data.set_len(self.block_count * self.stride)
    }

    /// Flush the file to stable storage.
    pub(crate) fn sync(&self) -> io::Result<()> {
        #[cfg(test)]
        self.injected(FailOn::Sync)?;
        self.data.sync_data()
    }
}

/// Seeded page images for this crate's tests: any non-repeating filler
/// will do.
#[cfg(test)]
pub(crate) fn images(seed: u64, page_size: usize) -> impl FnMut() -> Vec<u8> {
    let mut rng = rda_obs::rng::Rng::new(seed);
    move || {
        let mut bytes = vec![0u8; page_size];
        for word in bytes.chunks_mut(8) {
            word.copy_from_slice(&rng.next_u64().to_le_bytes()[..word.len()]);
        }
        bytes
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmpdir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("rda-disk-io-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn is_torn(f: &mut DiskFiles, block: u64) -> bool {
        matches!(f.read_block(block).unwrap(), BlockImage::Torn)
    }

    /// The verified image of `block`, copied out of the slot buffer.
    fn intact(f: &mut DiskFiles, block: u64) -> Vec<u8> {
        block_of(f, block).0
    }

    /// The verified image and header of `block`.
    fn block_of(f: &mut DiskFiles, block: u64) -> (Vec<u8>, Header) {
        match f.read_block(block).unwrap() {
            BlockImage::Intact(image, header) => (image.to_vec(), header),
            BlockImage::Torn => panic!("block {block} reads torn"),
        }
    }

    /// Image and header as the checksum covers them.
    fn covering(image: &[u8], header: Header) -> Vec<u8> {
        [image, &header.to_bytes()].concat()
    }

    #[test]
    fn stride_is_whole_sectors_and_no_slot_straddles_a_cache_page() {
        for page_size in [32, 64, 2020, 2040, 4088, 4096] {
            let stride = stride(page_size);
            assert_eq!(stride % 512, 0, "page size {page_size}");
            assert!(stride >= (page_size + 27) as u64, "page size {page_size}");
            assert!(
                stride < (page_size + 27 + 512) as u64,
                "page size {page_size}"
            );
        }
        assert_eq!(stride(2020), 2048, "the paper's page keeps its slot");
        assert_eq!(stride(2021), 2048, "image + header + sum fill the slot");
        assert_eq!(stride(2022), 2560);
        assert_eq!(stride(4069), 4096);
        // The paper's page: what a transfer touches lies inside one 4 KiB
        // page-cache page, for every block.
        for block in 0..1024u64 {
            let first = block * stride(2020);
            let last = first + 2020 + 27 - 1;
            assert_eq!(first / 4096, last / 4096, "block {block}");
        }
    }

    #[test]
    fn roundtrip_and_zero_default() {
        const BLOCKS: u64 = 8;
        for page_size in [64, 2020] {
            let dir = tmpdir(&format!("roundtrip-{page_size}"));
            let mut f = DiskFiles::create(&dir, 0, BLOCKS, page_size).unwrap();
            let len = || std::fs::metadata(dir.join("0.data")).unwrap().len();
            assert_eq!(len(), BLOCKS * stride(page_size));
            let mut image = images(7, page_size);
            for block in [0, 3, BLOCKS - 1] {
                assert!(xor::is_zero(&intact(&mut f, block)), "block {block}");
                let page = image();
                f.write_block(block, &page, Header::default()).unwrap();
                assert_eq!(intact(&mut f, block), page, "block {block}");
                assert_eq!(len(), BLOCKS * stride(page_size), "block {block}");
            }
            // The neighbours of the written blocks are untouched.
            for block in [1, 2, 4, 5, BLOCKS - 2] {
                assert!(xor::is_zero(&intact(&mut f, block)), "block {block}");
            }
            // And a reopen sees the same file.
            drop(f);
            let mut f = DiskFiles::open(&dir, 0, BLOCKS, page_size).unwrap();
            assert!(!xor::is_zero(&intact(&mut f, BLOCKS - 1)));
            let _ = std::fs::remove_dir_all(&dir);
        }
    }

    #[test]
    fn torn_half_is_detected_and_heals_on_rewrite() {
        let dir = tmpdir("torn");
        let mut f = DiskFiles::create(&dir, 1, 4, 32).unwrap();
        f.write_block(2, &[1u8; 32], Header::default()).unwrap();
        f.write_torn_half(2, Some(&[9u8; 32])).unwrap();
        assert!(is_torn(&mut f, 2));
        f.write_block(2, &[4u8; 32], Header::default()).unwrap();
        assert_eq!(intact(&mut f, 2), [4u8; 32]);
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// Every half-page tear of the paper's 2020-byte page reads back torn:
    /// `new[..half] ++ old[half..]` under `old`'s checksum, 1 000 seeded
    /// pairs. (Half the page is not a whole number of checksum rounds.)
    #[test]
    fn half_page_tears_of_seeded_pairs_are_all_detected() {
        const PAGE: usize = 2020;
        let mut image = images(0x5EED, PAGE);
        let dir = tmpdir("tear-pairs");
        let mut f = DiskFiles::create(&dir, 0, 4, PAGE).unwrap();
        for pair in 0..1000u64 {
            let (old, new) = (image(), image());
            let block = pair % 4;
            f.write_block(block, &old, Header::default()).unwrap();
            f.write_torn_half(block, Some(&new)).unwrap();
            assert!(is_torn(&mut f, block), "pair {pair}");
            // The tear is what the test says it is.
            let mut on_disk = vec![0u8; covered(PAGE) + SUM_BYTES];
            f.data
                .read_exact_at(&mut on_disk, block * stride(PAGE))
                .unwrap();
            let old_sum = page_sum(&covering(&old, Header::default()));
            assert_eq!(on_disk[..PAGE / 2], new[..PAGE / 2]);
            assert_eq!(on_disk[PAGE / 2..PAGE], old[PAGE / 2..]);
            assert_eq!(on_disk[covered(PAGE)..], old_sum.to_le_bytes());
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// The two tears the one-slot layout adds to the half-page one, built
    /// byte by byte: a write that landed only the slot's last sector, and
    /// one that landed everything but the sum.
    #[test]
    fn last_sector_only_and_sum_only_tears_are_detected() {
        const PAGE: usize = 2020;
        let mut image = images(0xD15C, PAGE);
        let dir = tmpdir("tear-sector");
        let mut f = DiskFiles::create(&dir, 0, 4, PAGE).unwrap();
        let last_sector = (covered(PAGE) + SUM_BYTES - 1) / SECTOR * SECTOR;
        let sum_at = covered(PAGE) as u64;
        for pair in 0..100u64 {
            let (old, new) = (image(), image());
            let at = (pair % 4) * stride(PAGE);
            let new_sum = page_sum(&covering(&new, Header::default())).to_le_bytes();

            // Old image up to the last sector, new tail, new sum.
            f.write_block(pair % 4, &old, Header::default()).unwrap();
            f.data
                .write_all_at(&new[last_sector..], at + last_sector as u64)
                .unwrap();
            f.data.write_all_at(&new_sum, at + sum_at).unwrap();
            assert!(is_torn(&mut f, pair % 4), "pair {pair}: last sector only");

            // Whole new image, old sum.
            f.write_block(pair % 4, &old, Header::default()).unwrap();
            f.data.write_all_at(&new, at).unwrap();
            assert!(is_torn(&mut f, pair % 4), "pair {pair}: sum only");

            // The sum is all that was missing.
            f.data.write_all_at(&new_sum, at + sum_at).unwrap();
            assert_eq!(intact(&mut f, pair % 4), new, "pair {pair}");
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// The header travels in its block: it round-trips, a never-written
    /// block reads back the zero header (what a fresh twin pair reads
    /// as), and a write that lands the image but not the header's sector
    /// reads back torn.
    #[test]
    fn headers_roundtrip_default_to_zero_and_tear_with_their_sector() {
        const PAGE: usize = 2020;
        let mut image = images(0x4EAD, PAGE);
        let dir = tmpdir("header");
        let mut f = DiskFiles::create(&dir, 0, 4, PAGE).unwrap();
        assert_eq!(block_of(&mut f, 3).1, Header::default());
        let state = rda_array::TwinState::Working;
        let (txn, rider) = (1 << 40, 3);
        let claim = Header {
            ts: 77,
            txn,
            rider,
            state,
        };
        let page = image();
        f.write_block(1, &page, claim).unwrap();
        assert_eq!(block_of(&mut f, 1), (page.clone(), claim));
        // A later write of the same image whose header sector (the
        // slot's last, with the sum) never landed.
        let flipped = Header {
            ts: 78,
            ..Header::default()
        };
        let at = stride(PAGE) + PAGE as u64;
        f.data.write_all_at(&flipped.to_bytes(), at).unwrap();
        assert!(is_torn(&mut f, 1), "header without its sum");
        f.write_block(1, &page, flipped).unwrap();
        assert_eq!(block_of(&mut f, 1).1, flipped);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn scramble_tear_of_unwritten_block_is_detected() {
        let dir = tmpdir("scramble");
        let mut f = DiskFiles::create(&dir, 0, 4, 32).unwrap();
        f.write_torn_half(1, None).unwrap();
        assert!(is_torn(&mut f, 1));
        assert!(xor::is_zero(&intact(&mut f, 0)));
        assert!(xor::is_zero(&intact(&mut f, 2)));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn reset_zero_blanks_everything() {
        let dir = tmpdir("reset");
        let mut f = DiskFiles::create(&dir, 0, 4, 32).unwrap();
        f.write_block(0, &[5u8; 32], Header::default()).unwrap();
        f.write_torn_half(1, None).unwrap();
        f.reset_zero().unwrap();
        for b in 0..4 {
            assert!(xor::is_zero(&intact(&mut f, b)));
        }
        assert_eq!(
            std::fs::metadata(dir.join("0.data")).unwrap().len(),
            4 * stride(32)
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn reopen_validates_geometry() {
        let dir = tmpdir("geom");
        let f = DiskFiles::create(&dir, 0, 4, 32).unwrap();
        drop(f);
        assert!(DiskFiles::open(&dir, 0, 4, 32).is_ok());
        assert!(DiskFiles::open(&dir, 0, 8, 32).is_err());
        assert!(DiskFiles::open(&dir, 1, 4, 32).is_err());
        // Format 2 laid the images back to back: blocks × page_size bytes.
        std::fs::write(dir.join("2.data"), vec![0u8; 4 * 32]).unwrap();
        let err = DiskFiles::open(&dir, 2, 4, 32).err().expect("refused");
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
