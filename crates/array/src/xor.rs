//! The word loops over page bytes: XOR for parity maintenance, and the
//! page checksum a file-backed disk records beside every block.
//!
//! Parity in a redundant disk array is the byte-wise XOR of the data pages
//! in a group. These helpers are the only place the XOR loop is written;
//! `rustc` auto-vectorizes the byte loop on chunked `u64` words.
//!
//! [`checksum`] is the only place a page is hashed. It is computed on
//! every device read and write of the file backend, so it reads the page
//! as `u64` words into four independent accumulators: a hash that chains
//! every byte through one multiply costs the multiplier's latency 2020
//! times per page, more than the `pread` it guards.

/// XOR `src` into `dst` in place.
///
/// # Panics
/// Panics if the slices have different lengths.
pub fn xor_in_place(dst: &mut [u8], src: &[u8]) {
    assert_eq!(
        dst.len(),
        src.len(),
        "xor_in_place: length mismatch ({} vs {})",
        dst.len(),
        src.len()
    );
    // Process 8 bytes at a time; chunks_exact splits both slices at the
    // same boundary regardless of pointer alignment. This is the hot loop
    // of every small write in the simulated array.
    let mut dst_chunks = dst.chunks_exact_mut(8);
    let mut src_chunks = src.chunks_exact(8);
    for (d, s) in (&mut dst_chunks).zip(&mut src_chunks) {
        let dv = u64::from_ne_bytes(d.try_into().expect("chunk of 8"));
        let sv = u64::from_ne_bytes(s.try_into().expect("chunk of 8"));
        d.copy_from_slice(&(dv ^ sv).to_ne_bytes());
    }
    for (d, s) in dst_chunks
        .into_remainder()
        .iter_mut()
        .zip(src_chunks.remainder())
    {
        *d ^= *s;
    }
}

/// XOR every input slice into `dst` in place, without allocating.
///
/// This is the copy-lean accumulator behind [`xor_many`]: callers that
/// already own (or can reuse) a destination buffer feed it here instead
/// of paying for a fresh `Vec` per parity recompute.
///
/// # Panics
/// Panics if any input's length differs from `dst`'s.
pub fn xor_into<'a, I>(dst: &mut [u8], inputs: I)
where
    I: IntoIterator<Item = &'a [u8]>,
{
    for src in inputs {
        xor_in_place(dst, src);
    }
}

/// Compute the XOR of many equally-sized slices into a fresh buffer.
///
/// Returns `None` when `inputs` is empty. The only allocation is the
/// accumulator itself (a copy of the first input); the remaining inputs
/// are folded in via [`xor_into`].
#[must_use]
pub fn xor_many(inputs: &[&[u8]]) -> Option<Vec<u8>> {
    let first = inputs.first()?;
    let mut acc = first.to_vec();
    xor_into(&mut acc, inputs[1..].iter().copied());
    Some(acc)
}

/// One little-endian word of a page, from a chunk of at most 8 bytes
/// (a shorter one, the tail of a page, is zero-padded).
fn le_word(chunk: &[u8]) -> u64 {
    let mut word = [0u8; 8];
    word[..chunk.len()].copy_from_slice(chunk);
    u64::from_le_bytes(word)
}

/// True if every byte of `bytes` is zero, compared a word at a time.
#[must_use]
pub fn is_zero(bytes: &[u8]) -> bool {
    let mut words = bytes.chunks_exact(8);
    words.by_ref().all(|w| le_word(w) == 0) && words.remainder().iter().all(|&b| b == 0)
}

/// Accumulators of the checksum kernel: 32 bytes are consumed per round,
/// word `i` of the round by lane `i`.
const LANES: usize = 4;

/// One odd multiplier per lane (odd, so a step is a bijection of the
/// accumulator); they are also the lanes' initial values.
const LANE_MUL: [u64; LANES] = [
    0x9E37_79B1_85EB_CA87,
    0xC2B2_AE3D_27D4_EB4F,
    0x1656_67B1_9E37_79F9,
    0x27D4_EB2F_1656_67C5,
];

/// Multiplier of the final fold of the lanes into one word.
const FOLD_MUL: u64 = 0x85EB_CA77_C2B2_AE63;

/// One multiply-mix step. For a fixed `word` it permutes `acc`, and for a
/// fixed `acc` it permutes `word`, so two inputs that differ in a single
/// word can never collide. The rotation carries the high bits, which a
/// multiplication only ever moves upwards, back under the next one.
fn mix(acc: u64, word: u64, mul: u64) -> u64 {
    (acc ^ word).wrapping_mul(mul).rotate_left(31)
}

/// A 64-bit non-cryptographic checksum of `bytes`: what the file backend
/// records beside a block to tell a torn image from a whole one.
///
/// The input is read as little-endian `u64` words, so the value does not
/// depend on the host. Whole 32-byte rounds feed the four lanes in
/// parallel; the words of a last partial round go to lanes `0..`, the
/// final partial word zero-padded; then the length and the lanes are
/// folded together and avalanched.
#[must_use]
pub fn checksum(bytes: &[u8]) -> u64 {
    let mut acc = LANE_MUL;
    let mut rounds = bytes.chunks_exact(8 * LANES);
    for round in &mut rounds {
        for (lane, word) in round.chunks_exact(8).enumerate() {
            acc[lane] = mix(acc[lane], le_word(word), LANE_MUL[lane]);
        }
    }
    for (lane, word) in rounds.remainder().chunks(8).enumerate() {
        acc[lane] = mix(acc[lane], le_word(word), LANE_MUL[lane]);
    }
    let mut h = bytes.len() as u64;
    for lane in acc {
        h = mix(h, lane, FOLD_MUL);
    }
    h ^= h >> 33;
    h = h.wrapping_mul(0xFF51_AFD7_ED55_8CCD);
    h ^= h >> 33;
    h = h.wrapping_mul(0xC4CE_B9FE_1A85_EC53);
    h ^ (h >> 33)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn xor_in_place_basic() {
        let mut a = vec![0xFFu8; 17];
        let b = vec![0x0Fu8; 17];
        xor_in_place(&mut a, &b);
        assert!(a.iter().all(|&x| x == 0xF0));
    }

    #[test]
    fn xor_many_empty_is_none() {
        assert!(xor_many(&[]).is_none());
    }

    #[test]
    fn xor_many_single_is_copy() {
        let a = [1u8, 2, 3];
        assert_eq!(xor_many(&[&a]).unwrap(), vec![1, 2, 3]);
    }

    #[test]
    fn xor_many_cancels_pairs() {
        let a = [0xAAu8; 9];
        let b = [0x55u8; 9];
        let out = xor_many(&[&a, &b, &a, &b]).unwrap();
        assert!(out.iter().all(|&x| x == 0));
    }

    #[test]
    fn xor_into_matches_xor_many() {
        let a = [0x12u8; 13];
        let b = [0x34u8; 13];
        let c = [0x56u8; 13];
        let mut acc = a;
        xor_into(&mut acc, [&b[..], &c[..]]);
        assert_eq!(acc.to_vec(), xor_many(&[&a, &b, &c]).unwrap());
    }

    #[test]
    fn xor_into_empty_inputs_is_identity() {
        let mut acc = [9u8; 5];
        xor_into(&mut acc, std::iter::empty());
        assert_eq!(acc, [9u8; 5]);
    }

    #[test]
    fn xor_unaligned_tail_lengths() {
        for len in 0..40 {
            let mut a: Vec<u8> = (0..len).map(|i| i as u8).collect();
            let b: Vec<u8> = (0..len).map(|i| (i * 7 + 3) as u8).collect();
            let expect: Vec<u8> = a.iter().zip(&b).map(|(x, y)| x ^ y).collect();
            xor_in_place(&mut a, &b);
            assert_eq!(a, expect, "len={len}");
        }
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn xor_length_mismatch_panics() {
        let mut a = vec![0u8; 3];
        xor_in_place(&mut a, &[0u8; 4]);
    }

    /// The paper's page size: 63 whole rounds and a 4-byte tail.
    const PAGE: usize = 2020;

    /// Seeded filler bytes, so failures reproduce.
    fn seeded(seed: u64, len: usize) -> Vec<u8> {
        let mut rng = rda_obs::rng::Rng::new(seed);
        let mut out = Vec::with_capacity(len + 8);
        while out.len() < len {
            out.extend_from_slice(&rng.next_u64().to_le_bytes());
        }
        out.truncate(len);
        out
    }

    fn counter(len: usize) -> Vec<u8> {
        (0..len).map(|i| (i % 251) as u8).collect()
    }

    #[test]
    fn is_zero_sees_every_byte_at_every_length() {
        for len in 0..40 {
            let mut bytes = vec![0u8; len];
            assert!(is_zero(&bytes), "len={len}");
            for at in 0..len {
                bytes[at] = 0x80;
                assert!(!is_zero(&bytes), "len={len} at={at}");
                bytes[at] = 0;
            }
        }
    }

    #[test]
    fn checksum_changes_on_every_single_bit_flip() {
        for mut page in [vec![0u8; PAGE], counter(PAGE), seeded(7, PAGE)] {
            let whole = checksum(&page);
            for bit in 0..PAGE * 8 {
                page[bit / 8] ^= 1 << (bit % 8);
                assert_ne!(checksum(&page), whole, "bit {bit}");
                page[bit / 8] ^= 1 << (bit % 8);
            }
        }
    }

    #[test]
    fn checksum_changes_when_two_words_trade_places() {
        let swap = |page: &[u8], a: usize, b: usize| {
            let mut out = page.to_vec();
            out[a * 8..a * 8 + 8].copy_from_slice(&page[b * 8..b * 8 + 8]);
            out[b * 8..b * 8 + 8].copy_from_slice(&page[a * 8..a * 8 + 8]);
            out
        };
        for page in [counter(PAGE), seeded(11, PAGE)] {
            let whole = checksum(&page);
            // Words 4 apart share a lane; neighbours sit in different ones.
            for (a, b) in [(0, 4), (9, 245), (0, 1), (6, 251), (250, 251)] {
                assert_ne!(page[a * 8..a * 8 + 8], page[b * 8..b * 8 + 8]);
                assert_ne!(checksum(&swap(&page, a, b)), whole, "words {a} and {b}");
            }
        }
    }

    #[test]
    fn checksum_covers_every_byte_and_the_length_at_any_length() {
        for len in [0usize, 1, 7, 8, 31, 32, 33, PAGE] {
            let mut bytes = seeded(len as u64, len);
            let whole = checksum(&bytes);
            for at in 0..len {
                bytes[at] ^= 0x01;
                assert_ne!(checksum(&bytes), whole, "len={len} byte {at}");
                bytes[at] ^= 0x01;
            }
            // Zero padding of the last word is not the same input.
            let zeroes = vec![0u8; len + 1];
            assert_ne!(checksum(&zeroes[..len]), checksum(&zeroes), "len={len}");
        }
    }

    #[test]
    fn checksum_values_are_pinned() {
        // Words are read little-endian whatever the host, so these hold on
        // every target; a change here changes what the checksum behind
        // each image in a `<n>.data` slot means (a new on-disk format).
        assert_eq!(checksum(&[]), 0x8BDF_0742_AC3C_8B12);
        assert_eq!(checksum(&counter(PAGE)), 0x1868_2DED_DD01_FA23);
    }
}
