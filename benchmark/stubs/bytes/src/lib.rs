//! Stand-in for `bytes` over `Vec<u8>`: the subset the WAL codec and the
//! journal writer call. Integers are big-endian, as in the real crate, so
//! journals written through this stand-in have the real on-disk format.

use std::ops::Deref;

/// A read cursor over an owned byte string.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Bytes {
    data: Vec<u8>,
    pos: usize,
}

impl Bytes {
    pub const fn new() -> Bytes {
        Bytes {
            data: Vec::new(),
            pos: 0,
        }
    }

    pub fn from_static(bytes: &'static [u8]) -> Bytes {
        Bytes::from(bytes.to_vec())
    }

    fn take<const N: usize>(&mut self) -> [u8; N] {
        let mut out = [0u8; N];
        out.copy_from_slice(&self.data[self.pos..self.pos + N]);
        self.pos += N;
        out
    }
}

impl From<Vec<u8>> for Bytes {
    fn from(data: Vec<u8>) -> Bytes {
        Bytes { data, pos: 0 }
    }
}

impl Deref for Bytes {
    type Target = [u8];
    fn deref(&self) -> &[u8] {
        &self.data[self.pos..]
    }
}

/// Reading side. Like the real crate, the getters panic when fewer bytes
/// remain than asked; callers check `remaining()` first.
pub trait Buf {
    fn remaining(&self) -> usize;
    fn get_u8(&mut self) -> u8;
    fn get_u32(&mut self) -> u32;
    fn get_u64(&mut self) -> u64;
    fn copy_to_bytes(&mut self, len: usize) -> Bytes;
}

impl Buf for Bytes {
    fn remaining(&self) -> usize {
        self.data.len() - self.pos
    }

    fn get_u8(&mut self) -> u8 {
        self.take::<1>()[0]
    }

    fn get_u32(&mut self) -> u32 {
        u32::from_be_bytes(self.take())
    }

    fn get_u64(&mut self) -> u64 {
        u64::from_be_bytes(self.take())
    }

    fn copy_to_bytes(&mut self, len: usize) -> Bytes {
        let out = self.data[self.pos..self.pos + len].to_vec();
        self.pos += len;
        Bytes::from(out)
    }
}

/// A growable write buffer.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct BytesMut(Vec<u8>);

impl BytesMut {
    pub const fn new() -> BytesMut {
        BytesMut(Vec::new())
    }

    pub fn with_capacity(n: usize) -> BytesMut {
        BytesMut(Vec::with_capacity(n))
    }

    pub fn clear(&mut self) {
        self.0.clear();
    }

    pub fn freeze(self) -> Bytes {
        Bytes::from(self.0)
    }
}

impl Deref for BytesMut {
    type Target = [u8];
    fn deref(&self) -> &[u8] {
        &self.0
    }
}

/// Writing side.
pub trait BufMut {
    fn put_slice(&mut self, src: &[u8]);

    fn put_u8(&mut self, v: u8) {
        self.put_slice(&[v]);
    }

    fn put_u32(&mut self, v: u32) {
        self.put_slice(&v.to_be_bytes());
    }

    fn put_u64(&mut self, v: u64) {
        self.put_slice(&v.to_be_bytes());
    }
}

impl BufMut for BytesMut {
    fn put_slice(&mut self, src: &[u8]) {
        self.0.extend_from_slice(src);
    }
}
