//! The on-disk representation of one spindle: a pair of real files with
//! positioned page-granular I/O.
//!
//! `<n>.data` holds the raw page images back to back; `<n>.sum` holds one
//! 8-byte checksum per block. The checksum file is what makes a torn write
//! *detectable*, standing in for the per-sector headers real controllers
//! stamp on each sector: a page whose image does not match its recorded
//! checksum reads back as torn, exactly like `SimDisk`'s torn set. A
//! never-written block has checksum 0 and must read back all zeroes.
//!
//! The checksum is [`Page::checksum`] — `rda_array::xor::checksum`, the
//! word-wise four-lane multiply-mix kernel — and it is verified on every
//! read and computed on every write. It is word-wise because it sits
//! inside every page transfer: hashed a byte at a time, a 2020-byte page
//! cost more than the `pread`/`pwrite` next to it. What it must tell
//! apart is a whole image from one a dying write left partly in place,
//! not an adversary's forgery. `manifest.txt` carries the format number
//! that says which checksum a directory's `.sum` files hold.
//!
//! All I/O is positioned (`read_exact_at` / `write_all_at`) on page
//! boundaries, so no caller depends on a file cursor.

use rda_array::Page;
use std::fs::{File, OpenOptions};
use std::io;
use std::os::unix::fs::FileExt;
use std::path::{Path, PathBuf};

/// Bytes of checksum stored per block in the `.sum` file.
const SUM_BYTES: u64 = 8;

/// Checksum recorded alongside a page image. `0` is reserved as the
/// never-written sentinel, so a content hash that lands on 0 is remapped.
pub(crate) fn page_sum(page: &Page) -> u64 {
    match page.checksum() {
        0 => 1,
        s => s,
    }
}

/// What a block read found on the platter.
pub(crate) enum BlockImage {
    /// The image matches its recorded checksum.
    Intact(Page),
    /// The image and checksum disagree — a write to this block was
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

/// The two files backing one disk.
pub(crate) struct DiskFiles {
    data: File,
    sums: File,
    page_size: usize,
    block_count: u64,
    #[cfg(test)]
    pub(crate) fail_on: parking_lot::Mutex<Option<FailOn>>,
}

impl DiskFiles {
    fn paths(dir: &Path, disk: u16) -> (PathBuf, PathBuf) {
        (
            dir.join(format!("{disk}.data")),
            dir.join(format!("{disk}.sum")),
        )
    }

    /// Create (or truncate) the file pair, pre-sized to the full geometry
    /// so every block address is valid from the start.
    pub(crate) fn create(
        dir: &Path,
        disk: u16,
        block_count: u64,
        page_size: usize,
    ) -> io::Result<DiskFiles> {
        let (data_path, sum_path) = DiskFiles::paths(dir, disk);
        let data = OpenOptions::new()
            .read(true)
            .write(true)
            .create(true)
            .truncate(true)
            .open(data_path)?;
        let sums = OpenOptions::new()
            .read(true)
            .write(true)
            .create(true)
            .truncate(true)
            .open(sum_path)?;
        data.set_len(block_count * page_size as u64)?;
        sums.set_len(block_count * SUM_BYTES)?;
        Ok(DiskFiles {
            data,
            sums,
            page_size,
            block_count,
            #[cfg(test)]
            fail_on: parking_lot::Mutex::new(None),
        })
    }

    /// Open an existing file pair, validating that its sizes match the
    /// expected geometry.
    pub(crate) fn open(
        dir: &Path,
        disk: u16,
        block_count: u64,
        page_size: usize,
    ) -> io::Result<DiskFiles> {
        let (data_path, sum_path) = DiskFiles::paths(dir, disk);
        let data = OpenOptions::new().read(true).write(true).open(data_path)?;
        let sums = OpenOptions::new().read(true).write(true).open(sum_path)?;
        let want_data = block_count * page_size as u64;
        let want_sums = block_count * SUM_BYTES;
        if data.metadata()?.len() != want_data || sums.metadata()?.len() != want_sums {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                format!("disk {disk}: file sizes do not match the configured geometry"),
            ));
        }
        Ok(DiskFiles {
            data,
            sums,
            page_size,
            block_count,
            #[cfg(test)]
            fail_on: parking_lot::Mutex::new(None),
        })
    }

    pub(crate) fn block_count(&self) -> u64 {
        self.block_count
    }

    pub(crate) fn page_size(&self) -> usize {
        self.page_size
    }

    #[cfg(test)]
    fn injected(&self, op: FailOn) -> io::Result<()> {
        if *self.fail_on.lock() == Some(op) {
            return Err(io::Error::other(format!("injected {op:?} failure")));
        }
        Ok(())
    }

    /// Read one block and verify it against its recorded checksum.
    pub(crate) fn read_block(&self, block: u64) -> io::Result<BlockImage> {
        let mut page = Page::zeroed(self.page_size);
        self.data
            .read_exact_at(page.as_mut(), block * self.page_size as u64)?;
        let mut sum_buf = [0u8; 8];
        self.sums.read_exact_at(&mut sum_buf, block * SUM_BYTES)?;
        let stored = u64::from_le_bytes(sum_buf);
        let intact = if stored == 0 {
            // Never written: must still hold the factory zeroes.
            page.is_zeroed()
        } else {
            page_sum(&page) == stored
        };
        Ok(if intact {
            BlockImage::Intact(page)
        } else {
            BlockImage::Torn
        })
    }

    /// Write one block: the image, then its checksum. A death between the
    /// two leaves a detectable tear, exactly the failure mode the checksum
    /// exists to expose.
    pub(crate) fn write_block(&self, block: u64, page: &Page) -> io::Result<()> {
        #[cfg(test)]
        self.injected(FailOn::Write(block))?;
        self.data
            .write_all_at(page.as_ref(), block * self.page_size as u64)?;
        self.sums
            .write_all_at(&page_sum(page).to_le_bytes(), block * SUM_BYTES)?;
        Ok(())
    }

    /// Deliberately tear a block: overwrite the first half of its image
    /// *without* touching the recorded checksum, so the block reads back
    /// torn until rewritten.
    ///
    /// `Some(new)` models a power loss halfway through writing `new` (the
    /// first half of the new image reached the platter); `None` scrambles
    /// the current first half in place (direct tear injection), mirroring
    /// `SimDisk::tear_block`'s `^ 0xA5` scramble.
    pub(crate) fn write_torn_half(&self, block: u64, new: Option<&[u8]>) -> io::Result<()> {
        let half = self.page_size / 2;
        let bytes = match new {
            Some(image) => image[..half].to_vec(),
            None => {
                let mut cur = vec![0u8; half];
                self.data
                    .read_exact_at(&mut cur, block * self.page_size as u64)?;
                for b in &mut cur {
                    *b ^= 0xA5;
                }
                cur
            }
        };
        self.data
            .write_all_at(&bytes, block * self.page_size as u64)
    }

    /// Reset both files to factory-blank (all zeroes, checksum sentinel 0
    /// everywhere) — a replacement drive.
    pub(crate) fn reset_zero(&self) -> io::Result<()> {
        #[cfg(test)]
        self.injected(FailOn::Reset)?;
        self.data.set_len(0)?;
        self.data
            .set_len(self.block_count * self.page_size as u64)?;
        self.sums.set_len(0)?;
        self.sums.set_len(self.block_count * SUM_BYTES)?;
        Ok(())
    }

    /// Flush both files to stable storage.
    pub(crate) fn sync(&self) -> io::Result<()> {
        #[cfg(test)]
        self.injected(FailOn::Sync)?;
        self.data.sync_data()?;
        self.sums.sync_data()
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

    #[test]
    fn roundtrip_and_zero_default() {
        let dir = tmpdir("roundtrip");
        let f = DiskFiles::create(&dir, 0, 8, 64).unwrap();
        assert!(matches!(
            f.read_block(3).unwrap(),
            BlockImage::Intact(p) if p.is_zeroed()
        ));
        let page = Page::from_bytes(&[7u8; 64]);
        f.write_block(3, &page).unwrap();
        assert!(matches!(
            f.read_block(3).unwrap(),
            BlockImage::Intact(p) if p == page
        ));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn torn_half_is_detected_and_heals_on_rewrite() {
        let dir = tmpdir("torn");
        let f = DiskFiles::create(&dir, 1, 4, 32).unwrap();
        f.write_block(2, &Page::from_bytes(&[1u8; 32])).unwrap();
        f.write_torn_half(2, Some(&[9u8; 32])).unwrap();
        assert!(matches!(f.read_block(2).unwrap(), BlockImage::Torn));
        f.write_block(2, &Page::from_bytes(&[4u8; 32])).unwrap();
        assert!(matches!(f.read_block(2).unwrap(), BlockImage::Intact(_)));
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// Every half-page tear of the paper's 2020-byte page reads back torn:
    /// `new[..half] ++ old[half..]` under `old`'s checksum, 1 000 seeded
    /// pairs. (Half the page is not a whole number of checksum rounds.)
    #[test]
    fn half_page_tears_of_seeded_pairs_are_all_detected() {
        const PAGE: usize = 2020;
        let mut state = 0x5EED_u64;
        let mut image = || {
            let mut bytes = vec![0u8; PAGE];
            for word in bytes.chunks_mut(8) {
                // xorshift64: any non-repeating filler will do.
                state ^= state << 13;
                state ^= state >> 7;
                state ^= state << 17;
                word.copy_from_slice(&state.to_le_bytes()[..word.len()]);
            }
            bytes
        };
        let dir = tmpdir("tear-pairs");
        let f = DiskFiles::create(&dir, 0, 4, PAGE).unwrap();
        for pair in 0..1000u64 {
            let (old, new) = (image(), image());
            let block = pair % 4;
            f.write_block(block, &Page::from_bytes(&old)).unwrap();
            f.write_torn_half(block, Some(&new)).unwrap();
            assert!(
                matches!(f.read_block(block).unwrap(), BlockImage::Torn),
                "pair {pair}"
            );
            // The tear is what the test says it is.
            let mut on_disk = vec![0u8; PAGE];
            f.data
                .read_exact_at(&mut on_disk, block * PAGE as u64)
                .unwrap();
            assert_eq!(on_disk[..PAGE / 2], new[..PAGE / 2]);
            assert_eq!(on_disk[PAGE / 2..], old[PAGE / 2..]);
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn scramble_tear_of_unwritten_block_is_detected() {
        let dir = tmpdir("scramble");
        let f = DiskFiles::create(&dir, 0, 4, 32).unwrap();
        f.write_torn_half(1, None).unwrap();
        assert!(matches!(f.read_block(1).unwrap(), BlockImage::Torn));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn reset_zero_blanks_everything() {
        let dir = tmpdir("reset");
        let f = DiskFiles::create(&dir, 0, 4, 32).unwrap();
        f.write_block(0, &Page::from_bytes(&[5u8; 32])).unwrap();
        f.write_torn_half(1, None).unwrap();
        f.reset_zero().unwrap();
        for b in 0..4 {
            assert!(matches!(
                f.read_block(b).unwrap(),
                BlockImage::Intact(p) if p.is_zeroed()
            ));
        }
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
        let _ = std::fs::remove_dir_all(&dir);
    }
}
