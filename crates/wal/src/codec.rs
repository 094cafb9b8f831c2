//! Binary encoding of log records.
//!
//! A compact hand-rolled format (tag byte + fixed-width integers +
//! length-prefixed byte strings). The encoded length matters: the log store
//! bills physical transfers by dividing the byte stream into log pages, so
//! the relative sizes of record kinds reproduce the paper's record-logging
//! economics (`l_bc`-sized BOT/EOT records vs. page-sized images).

use crate::{CheckpointKind, LogRecord, TxnId, WalError};
use rda_array::DataPageId;

const TAG_BOT: u8 = 1;
const TAG_COMMIT: u8 = 2;
const TAG_ABORT: u8 = 3;
const TAG_BEFORE: u8 = 4;
const TAG_AFTER: u8 = 5;
const TAG_RECORD: u8 = 6;
const TAG_RECORD_REDO: u8 = 7;
const TAG_CKPT: u8 = 9;
const TAG_COMP: u8 = 10;

/// Encode a record, appending to `out`.
pub fn encode(record: &LogRecord, out: &mut Vec<u8>) {
    match record {
        LogRecord::Bot { txn } => {
            out.push(TAG_BOT);
            out.extend_from_slice(&txn.0.to_be_bytes());
        }
        LogRecord::Commit { txn } => {
            out.push(TAG_COMMIT);
            out.extend_from_slice(&txn.0.to_be_bytes());
        }
        LogRecord::Abort { txn } => {
            out.push(TAG_ABORT);
            out.extend_from_slice(&txn.0.to_be_bytes());
        }
        LogRecord::BeforeImage { txn, page, image } => {
            out.push(TAG_BEFORE);
            out.extend_from_slice(&txn.0.to_be_bytes());
            out.extend_from_slice(&page.0.to_be_bytes());
            put_bytes(out, image);
        }
        LogRecord::AfterImage { txn, page, image } => {
            out.push(TAG_AFTER);
            out.extend_from_slice(&txn.0.to_be_bytes());
            out.extend_from_slice(&page.0.to_be_bytes());
            put_bytes(out, image);
        }
        LogRecord::RecordUpdate {
            txn,
            page,
            offset,
            before,
            after,
        } => {
            out.push(TAG_RECORD);
            out.extend_from_slice(&txn.0.to_be_bytes());
            out.extend_from_slice(&page.0.to_be_bytes());
            out.extend_from_slice(&offset.to_be_bytes());
            put_bytes(out, before);
            put_bytes(out, after);
        }
        LogRecord::RecordRedo {
            txn,
            page,
            offset,
            after,
        } => {
            out.push(TAG_RECORD_REDO);
            out.extend_from_slice(&txn.0.to_be_bytes());
            out.extend_from_slice(&page.0.to_be_bytes());
            out.extend_from_slice(&offset.to_be_bytes());
            put_bytes(out, after);
        }
        LogRecord::Compensation { txn, page, image } => {
            out.push(TAG_COMP);
            out.extend_from_slice(&txn.0.to_be_bytes());
            out.extend_from_slice(&page.0.to_be_bytes());
            put_bytes(out, image);
        }
        LogRecord::Checkpoint { kind, active } => {
            out.push(TAG_CKPT);
            out.push(match kind {
                CheckpointKind::Toc => 0,
                CheckpointKind::Acc => 1,
            });
            out.extend_from_slice(&(active.len() as u32).to_be_bytes());
            for t in active {
                out.extend_from_slice(&t.0.to_be_bytes());
            }
        }
    }
}

/// Encoded length of a record in bytes: what [`encode`] would append,
/// computed from the field widths without encoding anything.
#[must_use]
pub fn encoded_len(record: &LogRecord) -> usize {
    const TAG: usize = 1;
    const TXN: usize = 8;
    const PAGE: usize = 4;
    const U32: usize = 4;
    let bytes = |b: &[u8]| U32 + b.len();
    match record {
        LogRecord::Bot { .. } | LogRecord::Commit { .. } | LogRecord::Abort { .. } => TAG + TXN,
        LogRecord::BeforeImage { image, .. }
        | LogRecord::AfterImage { image, .. }
        | LogRecord::Compensation { image, .. } => TAG + TXN + PAGE + bytes(image),
        LogRecord::RecordUpdate { before, after, .. } => {
            TAG + TXN + PAGE + U32 + bytes(before) + bytes(after)
        }
        LogRecord::RecordRedo { after, .. } => TAG + TXN + PAGE + U32 + bytes(after),
        LogRecord::Checkpoint { active, .. } => TAG + 1 + U32 + TXN * active.len(),
    }
}

/// Decode one record from the front of a byte slice, returning it with the
/// number of bytes it occupied. Page images are copied once, out of `buf`
/// into the record.
///
/// # Errors
/// [`WalError::Corrupt`] if the bytes do not form a valid record.
pub fn decode_slice(buf: &[u8]) -> Result<(LogRecord, usize), WalError> {
    let mut r = Reader { rest: buf };
    let record = match r.u8().map_err(|_| WalError::Corrupt("empty buffer"))? {
        TAG_BOT => LogRecord::Bot { txn: r.txn()? },
        TAG_COMMIT => LogRecord::Commit { txn: r.txn()? },
        TAG_ABORT => LogRecord::Abort { txn: r.txn()? },
        TAG_BEFORE => LogRecord::BeforeImage {
            txn: r.txn()?,
            page: r.page()?,
            image: r.bytes()?,
        },
        TAG_AFTER => LogRecord::AfterImage {
            txn: r.txn()?,
            page: r.page()?,
            image: r.bytes()?,
        },
        TAG_RECORD => LogRecord::RecordUpdate {
            txn: r.txn()?,
            page: r.page()?,
            offset: r.u32()?,
            before: r.bytes()?,
            after: r.bytes()?,
        },
        TAG_RECORD_REDO => LogRecord::RecordRedo {
            txn: r.txn()?,
            page: r.page()?,
            offset: r.u32()?,
            after: r.bytes()?,
        },
        TAG_COMP => LogRecord::Compensation {
            txn: r.txn()?,
            page: r.page()?,
            image: r.bytes()?,
        },
        TAG_CKPT => {
            let kind = match r.u8()? {
                0 => CheckpointKind::Toc,
                1 => CheckpointKind::Acc,
                _ => return Err(WalError::Corrupt("bad checkpoint kind")),
            };
            let count = r.u32()? as usize;
            let mut active = Vec::with_capacity(count.min(1024));
            for _ in 0..count {
                active.push(r.txn()?);
            }
            LogRecord::Checkpoint { kind, active }
        }
        _ => return Err(WalError::Corrupt("unknown tag")),
    };
    Ok((record, buf.len() - r.rest.len()))
}

fn put_bytes(out: &mut Vec<u8>, bytes: &[u8]) {
    out.extend_from_slice(&(bytes.len() as u32).to_be_bytes());
    out.extend_from_slice(bytes);
}

/// Forward-only reader over a record's bytes; every taker fails on
/// underrun instead of panicking.
struct Reader<'a> {
    rest: &'a [u8],
}

impl<'a> Reader<'a> {
    fn take(&mut self, n: usize) -> Result<&'a [u8], WalError> {
        if self.rest.len() < n {
            return Err(WalError::Corrupt("truncated record"));
        }
        let (head, rest) = self.rest.split_at(n);
        self.rest = rest;
        Ok(head)
    }

    fn array<const N: usize>(&mut self) -> Result<[u8; N], WalError> {
        let mut out = [0u8; N];
        out.copy_from_slice(self.take(N)?);
        Ok(out)
    }

    fn u8(&mut self) -> Result<u8, WalError> {
        Ok(self.array::<1>()?[0])
    }

    fn u32(&mut self) -> Result<u32, WalError> {
        Ok(u32::from_be_bytes(self.array()?))
    }

    fn txn(&mut self) -> Result<TxnId, WalError> {
        Ok(TxnId(u64::from_be_bytes(self.array()?)))
    }

    fn page(&mut self) -> Result<DataPageId, WalError> {
        Ok(DataPageId(self.u32()?))
    }

    fn bytes(&mut self) -> Result<Vec<u8>, WalError> {
        let len = self.u32()? as usize;
        Ok(self.take(len)?.to_vec())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip(record: &LogRecord) {
        let mut buf = Vec::new();
        encode(record, &mut buf);
        assert_eq!(buf.len(), encoded_len(record));
        assert_eq!(decode_slice(&buf), Ok((record.clone(), buf.len())));
        // Every proper prefix is a torn record.
        for cut in 0..buf.len() {
            assert!(decode_slice(&buf[..cut]).is_err(), "cut at {cut}");
        }
    }

    /// One record per tag, as the `bytes`-crate encoder this one replaced
    /// wrote it: decoding names the record, re-encoding must give the
    /// same bytes back — the journal format did not move.
    #[test]
    fn encoding_matches_the_hex_goldens() {
        let golden = [
            "01000000000000002a",
            "02ffffffffffffffff",
            "030000000000000000",
            "0400000000000000070000000c000000050102030405",
            "0500000000000000070000000c00000002abcd",
            "06000000000000000900000003000003e800000002aaaa0000000155",
            "07000000000000000900000003000000040000000101",
            "09010000000200000000000000010000000000000005",
            "0a000000000000000d0000000800000003030303",
        ];
        // Tag 8 is retired: it named a page stolen onto the parity.
        for (tag, hex) in [1u8, 2, 3, 4, 5, 6, 7, 9, 10].into_iter().zip(golden) {
            let want: Vec<u8> = (0..hex.len())
                .step_by(2)
                .map(|i| u8::from_str_radix(&hex[i..i + 2], 16).unwrap())
                .collect();
            assert_eq!(want[0], tag, "one golden per tag, in tag order");
            let (record, used) = decode_slice(&want).unwrap();
            let mut got = Vec::new();
            encode(&record, &mut got);
            assert_eq!((got, used), (want.clone(), want.len()), "{record:?}");
        }
    }

    #[test]
    fn roundtrip_all_variants() {
        roundtrip(&LogRecord::Bot { txn: TxnId(42) });
        roundtrip(&LogRecord::Commit {
            txn: TxnId(u64::MAX),
        });
        roundtrip(&LogRecord::Abort { txn: TxnId(0) });
        roundtrip(&LogRecord::BeforeImage {
            txn: TxnId(7),
            page: DataPageId(12),
            image: vec![1, 2, 3, 4, 5],
        });
        roundtrip(&LogRecord::AfterImage {
            txn: TxnId(7),
            page: DataPageId(12),
            image: vec![],
        });
        roundtrip(&LogRecord::AfterImage {
            txn: TxnId(7),
            page: DataPageId(12),
            image: vec![0x5A; 2020],
        });
        roundtrip(&LogRecord::RecordUpdate {
            txn: TxnId(9),
            page: DataPageId(3),
            offset: 0,
            before: vec![],
            after: vec![],
        });
        roundtrip(&LogRecord::RecordUpdate {
            txn: TxnId(9),
            page: DataPageId(3),
            offset: 1000,
            before: vec![0xAA; 100],
            after: vec![0x55; 100],
        });
        roundtrip(&LogRecord::RecordRedo {
            txn: TxnId(9),
            page: DataPageId(3),
            offset: 4,
            after: vec![1],
        });
        roundtrip(&LogRecord::Compensation {
            txn: TxnId(13),
            page: DataPageId(8),
            image: vec![3; 40],
        });
        roundtrip(&LogRecord::Checkpoint {
            kind: CheckpointKind::Acc,
            active: vec![TxnId(1), TxnId(5), TxnId(9)],
        });
        roundtrip(&LogRecord::Checkpoint {
            kind: CheckpointKind::Toc,
            active: vec![],
        });
    }

    #[test]
    fn back_to_back_records_decode_in_order() {
        let records = vec![
            LogRecord::Bot { txn: TxnId(1) },
            LogRecord::BeforeImage {
                txn: TxnId(1),
                page: DataPageId(4),
                image: vec![7; 3],
            },
            LogRecord::Commit { txn: TxnId(1) },
        ];
        let mut buf = Vec::new();
        for r in &records {
            encode(r, &mut buf);
        }
        let mut rest = &buf[..];
        for r in &records {
            let (decoded, used) = decode_slice(rest).unwrap();
            assert_eq!(&decoded, r);
            rest = &rest[used..];
        }
        assert!(rest.is_empty());
    }

    #[test]
    fn garbage_is_rejected() {
        assert!(decode_slice(&[0xFF, 1, 2, 3]).is_err());
        assert!(decode_slice(&[]).is_err());
        // A checkpoint whose kind byte is neither TOC nor ACC.
        assert!(decode_slice(&[TAG_CKPT, 7, 0, 0, 0, 0]).is_err());
    }

    #[test]
    fn small_records_are_small() {
        // BOT/EOT records are the paper's l_bc = 16-byte class: ours are
        // 9 bytes, comfortably "short".
        assert!(encoded_len(&LogRecord::Bot { txn: TxnId(1) }) <= 16);
        assert!(encoded_len(&LogRecord::Commit { txn: TxnId(1) }) <= 16);
        // A page image record is dominated by the image.
        let img = LogRecord::AfterImage {
            txn: TxnId(1),
            page: DataPageId(1),
            image: vec![0; 2020],
        };
        assert!(encoded_len(&img) >= 2020);
        assert!(encoded_len(&img) < 2020 + 32);
    }
}
