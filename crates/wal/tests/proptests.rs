//! Property tests for the WAL: codec round-trips over arbitrary records,
//! force/crash semantics, and analysis-pass invariants over arbitrary
//! histories.

use proptest::prelude::*;
use rda_array::DataPageId;
// Everything but the record types is used only inside the `proptest!`
// block, which the offline dev stub expands to nothing.
#[allow(unused_imports)]
use rda_wal::{codec, Analysis, CheckpointKind, LogConfig, LogManager, LogRecord, LogStore, TxnId};

// Only the `proptest!` block uses these, and the offline dev stub
// expands that block to nothing.
#[allow(dead_code)]
fn record_strategy() -> impl Strategy<Value = LogRecord> {
    let txn = (1u64..20).prop_map(TxnId);
    let page = (0u32..64).prop_map(DataPageId);
    // Empty, short and page-sized (`l_p` = 2020) byte strings.
    let bytes = prop_oneof![
        Just(Vec::new()),
        prop::collection::vec(any::<u8>(), 0..64),
        any::<u8>().prop_map(|b| vec![b; 2020]),
    ];
    prop_oneof![
        txn.clone().prop_map(|txn| LogRecord::Bot { txn }),
        txn.clone().prop_map(|txn| LogRecord::Commit { txn }),
        txn.clone().prop_map(|txn| LogRecord::Abort { txn }),
        (txn.clone(), page.clone(), bytes.clone())
            .prop_map(|(txn, page, image)| LogRecord::BeforeImage { txn, page, image }),
        (txn.clone(), page.clone(), bytes.clone())
            .prop_map(|(txn, page, image)| LogRecord::AfterImage { txn, page, image }),
        (
            txn.clone(),
            page.clone(),
            0u32..2020,
            bytes.clone(),
            bytes.clone()
        )
            .prop_map(
                |(txn, page, offset, before, after)| LogRecord::RecordUpdate {
                    txn,
                    page,
                    offset,
                    before,
                    after
                }
            ),
        (txn.clone(), page.clone(), 0u32..2020, bytes.clone()).prop_map(
            |(txn, page, offset, after)| LogRecord::RecordRedo {
                txn,
                page,
                offset,
                after
            }
        ),
        (txn.clone(), page.clone()).prop_map(|(txn, page)| LogRecord::StealNote { txn, page }),
        (txn, page, bytes).prop_map(|(txn, page, image)| LogRecord::Compensation {
            txn,
            page,
            image
        }),
        (
            prop_oneof![Just(CheckpointKind::Acc), Just(CheckpointKind::Toc)],
            prop::collection::vec((1u64..20).prop_map(TxnId), 0..5)
        )
            .prop_map(|(kind, active)| LogRecord::Checkpoint { kind, active }),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Any record sequence encodes and decodes back exactly, in order.
    #[test]
    fn codec_roundtrip(records in prop::collection::vec(record_strategy(), 0..40)) {
        let mut buf = bytes::BytesMut::new();
        for r in &records {
            codec::encode(r, &mut buf);
        }
        let mut bytes = buf.freeze();
        for r in &records {
            let decoded = codec::decode(&mut bytes).unwrap();
            prop_assert_eq!(&decoded, r);
        }
        prop_assert_eq!(bytes.len(), 0);
    }

    /// `encoded_len` is arithmetic, and must say what `encode` writes: the
    /// store bills log pages by it.
    #[test]
    fn encoded_len_is_what_encode_writes(record in record_strategy()) {
        let mut buf = bytes::BytesMut::new();
        codec::encode(&record, &mut buf);
        prop_assert_eq!(codec::encoded_len(&record), buf.len());
    }

    /// The slice decoder and the `Bytes` decoder agree on the same bytes —
    /// the record, and how much of the buffer it occupied — and both treat
    /// every proper prefix of a record as torn.
    #[test]
    fn slice_decode_matches_bytes_decode(
        record in record_strategy(),
        trailing in prop::collection::vec(any::<u8>(), 0..8),
    ) {
        let mut buf = bytes::BytesMut::new();
        codec::encode(&record, &mut buf);
        let len = buf.len();
        let mut stream = buf.to_vec();
        stream.extend_from_slice(&trailing);

        let mut bytes = bytes::Bytes::from(stream.clone());
        prop_assert_eq!(codec::decode_slice(&stream), Ok((record.clone(), len)));
        prop_assert_eq!(codec::decode(&mut bytes), Ok(record));
        prop_assert_eq!(&bytes[..], &trailing[..]);

        for cut in 0..len {
            prop_assert!(codec::decode_slice(&stream[..cut]).is_err());
            let mut torn = bytes::Bytes::from(stream[..cut].to_vec());
            prop_assert!(codec::decode(&mut torn).is_err());
        }
    }

    /// Force/crash semantics: whatever was forced survives a crash, in
    /// order; nothing unforced does.
    #[test]
    fn crash_keeps_exactly_the_forced_prefixes(
        batches in prop::collection::vec(
            (prop::collection::vec(record_strategy(), 0..6), any::<bool>()),
            1..12,
        ),
    ) {
        let store = LogStore::new(LogConfig { page_size: 256, copies: 1, amortized: false });
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
        prop_assert_eq!(survived, expect_durable);
    }

    /// A billed scan of a range visits exactly the range, in order, and
    /// bills the log pages the range's bytes span.
    #[test]
    fn scan_is_exact(
        records in prop::collection::vec(record_strategy(), 1..30),
        bounds in (0u64..40, 0u64..40),
    ) {
        let store = LogStore::new(LogConfig { page_size: 128, copies: 2, amortized: false });
        let log = LogManager::new(std::sync::Arc::clone(&store));
        for r in &records {
            log.append(r.clone());
        }
        log.force();
        let (a, b) = bounds;
        let (from, to) = (a.min(b), a.max(b));
        let mut got = Vec::new();
        store.scan(rda_wal::Lsn(from), rda_wal::Lsn(to), |lsn, r| got.push((lsn, r.clone())));
        let lo = from.min(records.len() as u64) as usize;
        let hi = to.min(records.len() as u64) as usize;
        prop_assert_eq!(got.len(), hi - lo);
        for (i, (lsn, r)) in got.iter().enumerate() {
            prop_assert_eq!(*lsn, rda_wal::Lsn(lo as u64 + i as u64));
            prop_assert_eq!(r, &records[lo + i]);
        }
        let start: usize = records[..lo].iter().map(codec::encoded_len).sum();
        let end: usize = start + records[lo..hi].iter().map(codec::encoded_len).sum::<usize>();
        let pages = if end > start { (end - 1) / 128 - start / 128 + 1 } else { 0 };
        prop_assert_eq!(store.stats().reads(), pages as u64);
    }

    /// Analysis classification: the last BOT/Commit/Abort of a transaction
    /// decides its outcome, and steal notes accumulate per loser.
    #[test]
    fn analysis_matches_reference(records in prop::collection::vec(record_strategy(), 0..60)) {
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
        prop_assert_eq!(analysis.losers(), expect_losers);
        prop_assert_eq!(analysis.winners(), expect_winners);
    }
}
