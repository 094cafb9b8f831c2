//! The simulated medium: a disk's blocks in memory, under the default
//! [`Drive`](crate::Drive). Blocks are allocated lazily and a never-written
//! one reads back blank, like a freshly formatted device. A block holds its
//! image and its [`Header`] together, as one [`Page`]; a torn block stays in
//! the torn set (standing in for the mismatched per-sector headers a
//! controller would find) until it is rewritten. Memory is the model's
//! stable storage, so a barrier has nothing to do.

use crate::device::{BlockImage, Medium};
use crate::{Header, Page};
use std::collections::hash_map::Entry;
use std::collections::{HashMap, HashSet};
use std::io;

/// The blocks of one in-memory simulated disk.
pub struct SimDisk {
    blocks: HashMap<u64, Page>,
    torn: HashSet<u64>,
    page_size: usize,
}

impl SimDisk {
    /// A zero-filled medium of `page_size`-byte blocks.
    #[must_use]
    pub fn new(page_size: usize) -> SimDisk {
        SimDisk {
            blocks: HashMap::new(),
            torn: HashSet::new(),
            page_size,
        }
    }
}

impl Medium for SimDisk {
    const STABLE: bool = true;

    fn read_block(&mut self, block: u64) -> io::Result<BlockImage<'_>> {
        if self.torn.contains(&block) {
            return Ok(BlockImage::Torn);
        }
        Ok(match self.blocks.get(&block) {
            Some(page) => BlockImage::Intact(page.as_ref(), page.header()),
            None => BlockImage::Blank,
        })
    }

    fn write_block(&mut self, block: u64, image: &[u8], header: Header) -> io::Result<()> {
        self.torn.remove(&block);
        match self.blocks.entry(block) {
            // Overwrite in place: a rewrite allocates nothing.
            Entry::Occupied(page) => {
                let page = page.into_mut();
                page.as_mut().copy_from_slice(image);
                page.set_header(header);
            }
            Entry::Vacant(slot) => {
                slot.insert(Page::from_bytes(image).with_header(header));
            }
        }
        Ok(())
    }

    fn write_torn_half(&mut self, block: u64, new: Option<&[u8]>) -> io::Result<()> {
        let half = self.page_size / 2;
        let page = self
            .blocks
            .entry(block)
            .or_insert_with(|| Page::zeroed(self.page_size));
        let torn = &mut page.as_mut()[..half];
        match new {
            Some(image) => torn.copy_from_slice(&image[..half]),
            None => torn.iter_mut().for_each(|b| *b ^= 0xA5),
        }
        self.torn.insert(block);
        Ok(())
    }

    fn reset_zero(&mut self) -> io::Result<()> {
        self.blocks.clear();
        self.torn.clear();
        Ok(())
    }

    fn sync(&mut self) -> io::Result<()> {
        Ok(())
    }
}
