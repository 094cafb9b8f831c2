//! Property tests for the WAL: codec round-trips over arbitrary records,
//! force/crash semantics, and analysis-pass invariants over arbitrary
//! histories.

use rda_array::DataPageId;
use rda_obs::prop;
use rda_obs::rng::Rng;
use rda_wal::{codec, Analysis, CheckpointKind, LogConfig, LogManager, LogRecord, LogStore, TxnId};

/// Empty, short and page-sized (`l_p` = 2020) byte strings.
fn gen_bytes(rng: &mut Rng) -> Vec<u8> {
    match rng.below(3) {
        0 => Vec::new(),
        1 => (0..rng.below(64)).map(|_| rng.next_u64() as u8).collect(),
        _ => vec![rng.next_u64() as u8; 2020],
    }
}

fn gen_record(rng: &mut Rng) -> LogRecord {
    let txn = TxnId(1 + rng.below(19));
    let page = DataPageId(rng.below(64) as u32);
    let offset = rng.below(2020) as u32;
    match rng.below(9) {
        0 => LogRecord::Bot { txn },
        1 => LogRecord::Commit { txn },
        2 => LogRecord::Abort { txn },
        3 => LogRecord::BeforeImage {
            txn,
            page,
            image: gen_bytes(rng),
        },
        4 => LogRecord::AfterImage {
            txn,
            page,
            image: gen_bytes(rng),
        },
        5 => LogRecord::RecordUpdate {
            txn,
            page,
            offset,
            before: gen_bytes(rng),
            after: gen_bytes(rng),
        },
        6 => LogRecord::RecordRedo {
            txn,
            page,
            offset,
            after: gen_bytes(rng),
        },
        7 => LogRecord::Compensation {
            txn,
            page,
            image: gen_bytes(rng),
        },
        _ => LogRecord::Checkpoint {
            kind: if rng.chance(50) {
                CheckpointKind::Acc
            } else {
                CheckpointKind::Toc
            },
            active: (0..rng.below(5))
                .map(|_| TxnId(1 + rng.below(19)))
                .collect(),
        },
    }
}

/// `lo..hi` records.
fn gen_records(rng: &mut Rng, lo: u64, hi: u64) -> Vec<LogRecord> {
    (0..lo + rng.below(hi - lo))
        .map(|_| gen_record(rng))
        .collect()
}

/// Any record sequence encodes and decodes back exactly, in order.
#[test]
fn codec_roundtrip() {
    prop::cases("codec_roundtrip", 128, |rng| {
        let records = gen_records(rng, 0, 40);
        let mut buf = Vec::new();
        for r in &records {
            codec::encode(r, &mut buf);
        }
        let mut rest = &buf[..];
        for r in &records {
            let (decoded, used) = codec::decode_slice(rest).unwrap();
            assert_eq!(&decoded, r);
            rest = &rest[used..];
        }
        assert!(rest.is_empty());
    });
}

/// `encoded_len` is arithmetic, and must say what `encode` writes: the
/// store bills log pages by it.
#[test]
fn encoded_len_is_what_encode_writes() {
    prop::cases("encoded_len_is_what_encode_writes", 128, |rng| {
        let record = gen_record(rng);
        let mut buf = Vec::new();
        codec::encode(&record, &mut buf);
        assert_eq!(codec::encoded_len(&record), buf.len());
    });
}

/// The decoder reports the record and how much of the buffer it
/// occupied, whatever follows it, and treats every proper prefix of a
/// record as torn.
#[test]
fn decode_stops_at_the_record_and_rejects_torn_prefixes() {
    prop::cases(
        "decode_stops_at_the_record_and_rejects_torn_prefixes",
        128,
        |rng| {
            let record = gen_record(rng);
            let trailing: Vec<u8> = (0..rng.below(8)).map(|_| rng.next_u64() as u8).collect();
            let mut stream = Vec::new();
            codec::encode(&record, &mut stream);
            let len = stream.len();
            stream.extend_from_slice(&trailing);
            assert_eq!(codec::decode_slice(&stream), Ok((record, len)));
            for cut in 0..len {
                assert!(codec::decode_slice(&stream[..cut]).is_err());
            }
        },
    );
}

/// Force/crash semantics: whatever was forced survives a crash, in
/// order; nothing unforced does.
#[test]
fn crash_keeps_exactly_the_forced_prefixes() {
    prop::cases("crash_keeps_exactly_the_forced_prefixes", 128, |rng| {
        let batches: Vec<(Vec<LogRecord>, bool)> = (0..=rng.below(11))
            .map(|_| (gen_records(rng, 0, 6), rng.chance(50)))
            .collect();
        let store = LogStore::new(LogConfig {
            page_size: 256,
            copies: 1,
            amortized: false,
        });
        let log = LogManager::new(std::sync::Arc::clone(&store));
        let mut expect_durable = Vec::new();
        let mut pending = Vec::new();
        for (batch, forced) in &batches {
            for r in batch {
                log.append(r.clone());
                pending.push(r.clone());
            }
            if *forced {
                log.force();
                expect_durable.append(&mut pending);
            }
        }
        log.crash();
        let survived: Vec<LogRecord> = (0..store.len())
            .filter_map(|lsn| store.with_record(rda_wal::Lsn(lsn), Clone::clone))
            .collect();
        assert_eq!(survived, expect_durable);
    });
}

/// A billed scan of a range visits exactly the range, in order, and
/// bills the log pages the range's bytes span.
#[test]
fn scan_is_exact() {
    prop::cases("scan_is_exact", 128, |rng| {
        let records = gen_records(rng, 1, 30);
        let bounds = (rng.below(40), rng.below(40));
        let store = LogStore::new(LogConfig {
            page_size: 128,
            copies: 2,
            amortized: false,
        });
        let log = LogManager::new(std::sync::Arc::clone(&store));
        for r in &records {
            log.append(r.clone());
        }
        log.force();
        let (a, b) = bounds;
        let (from, to) = (a.min(b), a.max(b));
        let mut got = Vec::new();
        store.scan(rda_wal::Lsn(from), rda_wal::Lsn(to), |lsn, r| {
            got.push((lsn, r.clone()));
        });
        let lo = from.min(records.len() as u64) as usize;
        let hi = to.min(records.len() as u64) as usize;
        assert_eq!(got.len(), hi - lo);
        for (i, (lsn, r)) in got.iter().enumerate() {
            assert_eq!(*lsn, rda_wal::Lsn(lo as u64 + i as u64));
            assert_eq!(r, &records[lo + i]);
        }
        let start: usize = records[..lo].iter().map(codec::encoded_len).sum();
        let end: usize = start
            + records[lo..hi]
                .iter()
                .map(codec::encoded_len)
                .sum::<usize>();
        let pages = if end > start {
            (end - 1) / 128 - start / 128 + 1
        } else {
            0
        };
        assert_eq!(store.stats().reads(), pages as u64);
    });
}

/// Analysis classification: the last BOT/Commit/Abort of a transaction
/// decides its outcome, and any other record of it names it in flight.
#[test]
fn analysis_matches_reference() {
    prop::cases("analysis_matches_reference", 128, |rng| {
        let records = gen_records(rng, 0, 60);
        let store = LogStore::restore(LogConfig::default(), 0, records.clone(), None);
        let analysis = Analysis::run(&store, rda_wal::Lsn(0), rda_wal::Lsn(store.len()));

        // Reference: replay naively.
        let mut outcome = std::collections::BTreeMap::<TxnId, &'static str>::new();
        for r in &records {
            match r {
                LogRecord::Bot { txn } => {
                    outcome.insert(*txn, "inflight");
                }
                LogRecord::Commit { txn } => {
                    outcome.insert(*txn, "committed");
                }
                LogRecord::Abort { txn } => {
                    outcome.insert(*txn, "aborted");
                }
                other => {
                    if let Some(txn) = other.txn() {
                        outcome.entry(txn).or_insert("inflight");
                    }
                }
            }
        }
        let expect_losers: Vec<TxnId> = outcome
            .iter()
            .filter(|(_, s)| **s == "inflight")
            .map(|(t, _)| *t)
            .collect();
        let expect_winners: Vec<TxnId> = outcome
            .iter()
            .filter(|(_, s)| **s == "committed")
            .map(|(t, _)| *t)
            .collect();
        assert_eq!(analysis.losers(), expect_losers);
        assert_eq!(analysis.winners(), expect_winners);
    });
}
