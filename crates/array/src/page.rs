//! Page buffers and strongly-typed identifiers.

use std::fmt;

/// Identifier of a *logical data page* in the database address space.
///
/// Data pages are numbered `0..S` where `S` is the database size in pages;
/// the array [`Geometry`](crate::Geometry) maps each data page to a physical
/// location. Parity pages are *not* data pages — they are addressed by
/// ([`GroupId`], [`ParitySlot`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct DataPageId(pub u32);

/// Identifier of a parity group.
///
/// A parity group is the set of `N` data pages that share parity (paper
/// §4.1: "we will use the term parity group to denote a page parity group
/// ... the set of pages that share the same parity page").
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct GroupId(pub u32);

/// Identifier of a physical disk in the array.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct DiskId(pub u16);

/// Which of the (up to two) parity pages of a group is being addressed.
///
/// Single-parity organizations only have [`ParitySlot::P0`]; twin-parity
/// organizations (paper Figures 4 and 5) also have [`ParitySlot::P1`]. The
/// paper calls these `P` and `P'`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ParitySlot {
    /// The first parity page (`P` in the paper).
    P0,
    /// The twin parity page (`P'` in the paper). Only present when the
    /// array was configured with `twin(true)`.
    P1,
}

impl ParitySlot {
    /// The other twin.
    #[must_use]
    pub fn other(self) -> ParitySlot {
        match self {
            ParitySlot::P0 => ParitySlot::P1,
            ParitySlot::P1 => ParitySlot::P0,
        }
    }

    /// Slot index (0 or 1).
    #[must_use]
    pub fn index(self) -> usize {
        match self {
            ParitySlot::P0 => 0,
            ParitySlot::P1 => 1,
        }
    }

    /// Both slots, in order.
    pub const BOTH: [ParitySlot; 2] = [ParitySlot::P0, ParitySlot::P1];
}

impl fmt::Display for DataPageId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "D{}", self.0)
    }
}

impl fmt::Display for GroupId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "G{}", self.0)
    }
}

impl fmt::Display for DiskId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "disk{}", self.0)
    }
}

/// State of one twin parity page (paper Figure 8), as its header byte.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
#[repr(u8)]
pub enum TwinState {
    /// Holds the parity of the last committed update — the valid twin.
    #[default]
    Committed,
    /// The other twin is committed; this one holds old junk.
    Obsolete,
    /// Updated in place by an active transaction.
    Working,
    /// The last transaction that updated it aborted; contents are junk and
    /// the timestamp has been reset.
    Invalid,
}

/// The header a block carries beside its image: on a twin parity page the
/// paper's page header — the timestamp Current_Parity compares, the
/// Figure-8 state and, on a `Working` twin, the claim (transaction, and
/// the member index of the page riding its parity). Never-written blocks
/// carry the all-zero [`Header::default`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Header {
    /// Timestamp; the larger one names the current twin.
    pub ts: u64,
    /// The transaction a `Working` twin belongs to; 0 otherwise.
    pub txn: u64,
    /// Member index of the page riding a `Working` twin; 0 otherwise.
    pub rider: u16,
    /// Figure-8 state.
    pub state: TwinState,
}

impl Header {
    /// Encoded length: timestamp, transaction, rider, state.
    pub const LEN: usize = 8 + 8 + 2 + 1;

    /// The header as stored behind a block's image.
    #[must_use]
    pub fn to_bytes(&self) -> [u8; Header::LEN] {
        let mut out = [0u8; Header::LEN];
        out[..8].copy_from_slice(&self.ts.to_le_bytes());
        out[8..16].copy_from_slice(&self.txn.to_le_bytes());
        out[16..18].copy_from_slice(&self.rider.to_le_bytes());
        out[18] = self.state as u8;
        out
    }

    /// Decode [`Header::to_bytes`]; `None` for an unknown state byte.
    #[must_use]
    pub fn from_bytes(bytes: &[u8; Header::LEN]) -> Option<Header> {
        use TwinState::{Committed, Invalid, Obsolete, Working};
        let state = *[Committed, Obsolete, Working, Invalid].get(usize::from(bytes[18]))?;
        let (ts, txn) = (bytes[..8].try_into().ok()?, bytes[8..16].try_into().ok()?);
        Some(Header {
            ts: u64::from_le_bytes(ts),
            txn: u64::from_le_bytes(txn),
            rider: u16::from_le_bytes([bytes[16], bytes[17]]),
            state,
        })
    }
}

/// A fixed-size page buffer: one block's image and its [`Header`].
///
/// The page size is a property of the [`ArrayConfig`](crate::ArrayConfig)
/// (the paper's model uses 2020-byte pages, `l_p = 2020`); all pages handled
/// by one array share the same size. `Page` supports the XOR algebra used
/// for parity maintenance.
///
/// A device writes and reads the header in the same transfer as the image.
/// Every XOR into a page yields the zero header; a parity write sets the
/// header it stores ([`Page::set_header`]). Equality compares images.
pub struct Page {
    image: Box<[u8]>,
    header: Header,
}

impl PartialEq for Page {
    fn eq(&self, other: &Page) -> bool {
        self.image == other.image
    }
}

impl Eq for Page {}

// Hand-written so `clone_from` forwards to `Box<[u8]>::clone_from`, which
// reuses the existing allocation when the lengths match — and within one
// array every page is the same size, so steal caches and parity scratch
// buffers that are refreshed repeatedly never reallocate.
impl Clone for Page {
    fn clone(&self) -> Page {
        Page {
            image: self.image.clone(),
            header: self.header,
        }
    }

    fn clone_from(&mut self, source: &Page) {
        self.image.clone_from(&source.image);
        self.header = source.header;
    }
}

impl Page {
    /// An all-zero page of `size` bytes.
    #[must_use]
    pub fn zeroed(size: usize) -> Page {
        Page {
            image: vec![0u8; size].into_boxed_slice(),
            header: Header::default(),
        }
    }

    /// Build a page from raw bytes, with the zero header.
    #[must_use]
    pub fn from_bytes(bytes: &[u8]) -> Page {
        Page {
            image: bytes.into(),
            header: Header::default(),
        }
    }

    /// The header stored (or to be stored) with the image.
    #[must_use]
    pub fn header(&self) -> Header {
        self.header
    }

    /// Set the header a write of this page stores.
    pub fn set_header(&mut self, header: Header) {
        self.header = header;
    }

    /// This page with `header`.
    #[must_use]
    pub fn with_header(mut self, header: Header) -> Page {
        self.header = header;
        self
    }

    /// Page size in bytes.
    #[must_use]
    pub fn len(&self) -> usize {
        self.image.len()
    }

    /// True if the page has zero length (never for array-managed pages).
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.image.is_empty()
    }

    /// True if every byte is zero.
    #[must_use]
    pub fn is_zeroed(&self) -> bool {
        crate::xor::is_zero(&self.image)
    }

    /// XOR `other` into this page in place.
    ///
    /// # Panics
    /// Panics if the page sizes differ — mixing pages from differently
    /// configured arrays is a logic error.
    pub fn xor_in_place(&mut self, other: &Page) {
        crate::xor::xor_in_place(&mut self.image, &other.image);
        self.header = Header::default();
    }

    /// Return `self ⊕ other` as a new page.
    #[must_use]
    pub fn xor(&self, other: &Page) -> Page {
        let mut out = self.clone();
        out.xor_in_place(other);
        out
    }

    /// XOR every input page into this one in place, without allocating.
    ///
    /// The multi-input form of [`Page::xor_in_place`]; parity recomputes
    /// that fold two or three images together (old ⊕ new, or P ⊕ P′ ⊕ D)
    /// do it in one call instead of materialising intermediate pages.
    ///
    /// # Panics
    /// Panics if any input's size differs from this page's.
    pub fn xor_many_in_place(&mut self, inputs: &[&Page]) {
        crate::xor::xor_into(&mut self.image, inputs.iter().map(|p| &*p.image));
        self.header = Header::default();
    }

    /// Zero every byte of the page and its header, keeping the
    /// allocation. Used to reset reusable parity accumulators between
    /// groups.
    pub fn zero_fill(&mut self) {
        self.image.fill(0);
        self.header = Header::default();
    }

    /// The image's 64-bit non-cryptographic checksum
    /// ([`xor::checksum`](crate::xor::checksum)): a compact name for the
    /// contents in `Debug` output.
    #[must_use]
    pub fn checksum(&self) -> u64 {
        crate::xor::checksum(&self.image)
    }
}

impl AsRef<[u8]> for Page {
    fn as_ref(&self) -> &[u8] {
        &self.image
    }
}

impl AsMut<[u8]> for Page {
    fn as_mut(&mut self) -> &mut [u8] {
        &mut self.image
    }
}

impl fmt::Debug for Page {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "Page[{}B, sum={:016x}]",
            self.image.len(),
            self.checksum()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zeroed_page_is_zeroed() {
        let p = Page::zeroed(128);
        assert_eq!(p.len(), 128);
        assert!(p.is_zeroed());
        assert!(!p.is_empty());
    }

    #[test]
    fn xor_self_is_zero() {
        let p = Page::from_bytes(&[1, 2, 3, 255]);
        let z = p.xor(&p);
        assert!(z.is_zeroed());
    }

    #[test]
    fn xor_is_commutative_and_associative() {
        let a = Page::from_bytes(&[0xAA, 0x01, 0x00, 0x42]);
        let b = Page::from_bytes(&[0x55, 0xFF, 0x10, 0x24]);
        let c = Page::from_bytes(&[0x0F, 0xF0, 0x99, 0x18]);
        assert_eq!(a.xor(&b), b.xor(&a));
        assert_eq!(a.xor(&b).xor(&c), a.xor(&b.xor(&c)));
    }

    #[test]
    fn xor_identity_for_undo() {
        // Paper Figure 6: D_old = (P ⊕ P') ⊕ D_new when P' = P_old_parity
        // and P = parity after replacing D_old with D_new.
        let d_old = Page::from_bytes(&[7, 7, 7, 7]);
        let d_new = Page::from_bytes(&[9, 1, 9, 1]);
        let rest = Page::from_bytes(&[3, 0, 0, 3]); // XOR of other group members
        let p_committed = d_old.xor(&rest);
        let p_working = d_new.xor(&rest);
        let recovered = p_committed.xor(&p_working).xor(&d_new);
        assert_eq!(recovered, d_old);
    }

    #[test]
    fn xor_many_in_place_folds_all_inputs() {
        let a = Page::from_bytes(&[0xAA, 0x01, 0x00, 0x42]);
        let b = Page::from_bytes(&[0x55, 0xFF, 0x10, 0x24]);
        let c = Page::from_bytes(&[0x0F, 0xF0, 0x99, 0x18]);
        let mut acc = a.clone();
        acc.xor_many_in_place(&[&b, &c]);
        assert_eq!(acc, a.xor(&b).xor(&c));
    }

    #[test]
    fn clone_from_reuses_and_matches() {
        let src = Page::from_bytes(&[1, 2, 3, 4]);
        let mut dst = Page::zeroed(4);
        dst.clone_from(&src);
        assert_eq!(dst, src);
        // Different sizes still work (falls back to reallocating).
        let mut small = Page::zeroed(2);
        small.clone_from(&src);
        assert_eq!(small, src);
    }

    #[test]
    fn zero_fill_resets_contents() {
        let mut p = Page::from_bytes(&[9, 9, 9]);
        p.zero_fill();
        assert!(p.is_zeroed());
        assert_eq!(p.len(), 3);
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn xor_size_mismatch_panics() {
        let mut a = Page::zeroed(4);
        let b = Page::zeroed(8);
        a.xor_in_place(&b);
    }

    #[test]
    fn checksum_changes_with_content() {
        let a = Page::from_bytes(&[0, 0, 0, 1]);
        let b = Page::from_bytes(&[0, 0, 1, 0]);
        assert_ne!(a.checksum(), b.checksum());
        assert_eq!(
            format!("{a:?}"),
            format!("Page[4B, sum={:016x}]", a.checksum())
        );
    }

    #[test]
    fn header_roundtrips_and_xor_drops_it() {
        let h = Header {
            ts: u64::MAX - 1,
            txn: 42,
            rider: 7,
            state: TwinState::Working,
        };
        assert_eq!(Header::from_bytes(&h.to_bytes()), Some(h));
        assert_eq!(Header::default().to_bytes(), [0; Header::LEN]);
        let mut bad = h.to_bytes();
        bad[18] = 4;
        assert_eq!(Header::from_bytes(&bad), None);
        let mut p = Page::from_bytes(&[1, 2]).with_header(h);
        assert_eq!(p, Page::from_bytes(&[1, 2]), "equality compares images");
        assert_eq!(p.clone().header(), h);
        p.xor_in_place(&Page::zeroed(2));
        assert_eq!(p.header(), Header::default());
    }

    #[test]
    fn parity_slot_other_roundtrip() {
        assert_eq!(ParitySlot::P0.other(), ParitySlot::P1);
        assert_eq!(ParitySlot::P1.other(), ParitySlot::P0);
        assert_eq!(ParitySlot::P0.other().other(), ParitySlot::P0);
        assert_eq!(ParitySlot::P0.index(), 0);
        assert_eq!(ParitySlot::P1.index(), 1);
    }

    #[test]
    fn display_impls() {
        assert_eq!(DataPageId(4).to_string(), "D4");
        assert_eq!(GroupId(2).to_string(), "G2");
        assert_eq!(DiskId(1).to_string(), "disk1");
    }
}
