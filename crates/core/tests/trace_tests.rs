//! Trace-based protocol invariants and metrics determinism.
//!
//! These tests check the steal/commit protocol from the *outside*: the
//! emitted event stream itself must witness the paper's one-page-per-group
//! Dirty_Set discipline (§4.1) — every zero-I/O twin flip was paid for by
//! an earlier parity-riding steal, and no group ever carries two
//! uncommitted parity riders at once.

use rda_array::{ArrayConfig, Organization};
use rda_buffer::{BufferConfig, ReplacePolicy};
use rda_core::{
    protocol_violations, CheckpointPolicy, Database, DbConfig, EngineKind, EotPolicy, EventKind,
    LogGranularity, ProtocolMutations,
};
use rda_wal::LogConfig;

fn cfg(frames: usize) -> DbConfig {
    DbConfig {
        engine: EngineKind::Rda,
        array: ArrayConfig::new(Organization::RotatedParity, 4, 8)
            .twin(true)
            .page_size(64),
        buffer: BufferConfig {
            frames,
            steal: true,
            policy: ReplacePolicy::Clock,
        },
        log: LogConfig {
            page_size: 256,
            copies: 2,
            amortized: false,
        },
        granularity: LogGranularity::Page,
        eot: EotPolicy::Force,
        checkpoint: CheckpointPolicy::Manual,
        strict_read_locks: false,
        trace_events: 0,
        span_events: false,
        mutations: ProtocolMutations::default(),
        shards: 1,
        group_commit: None,
    }
}

/// Deterministic single-threaded mix of commits and aborts over a tiny
/// buffer, so plenty of uncommitted pages are stolen to the array.
fn run_seeded_workload(db: &Database, seed: u64, txns: usize) {
    let mut rng = rda_obs::rng::Rng::new(seed | 1);
    let pages = u64::from(db.data_pages());
    for _ in 0..txns {
        let mut tx = db.begin();
        let writes = rng.below(3) + 1;
        for _ in 0..writes {
            let page = rng.below(pages) as u32;
            let value = rng.next_u64() as u8 | 1;
            tx.write(page, &[value; 8]).unwrap();
        }
        if rng.below(4) == 0 {
            tx.abort().unwrap();
        } else {
            tx.commit().unwrap();
        }
    }
}

#[test]
fn trace_witnesses_dirty_set_discipline() {
    let db = Database::open(cfg(2).trace(1 << 16));
    run_seeded_workload(&db, 0x0B5E_55ED, 60);

    let snap = db.shard(0).trace_snapshot();
    assert_eq!(snap.dropped, 0, "ring too small for the workload");
    assert!(
        snap.events
            .iter()
            .any(|e| matches!(e.kind, EventKind::Steal { .. })),
        "workload never stole a page — the protocol was not exercised"
    );

    // The shared invariant checker replays the stream against the
    // Dirty_Set rules (strict mode: this run never crashed).
    let violations = protocol_violations(&snap.events);
    assert!(violations.is_empty(), "{violations:?}");
    let flips = snap
        .events
        .iter()
        .filter(|e| matches!(e.kind, EventKind::CommitTwinFlip { .. }))
        .count();
    assert!(flips > 0, "no commit ever flipped a twin");
}

#[test]
fn broken_protocol_trace_is_rejected() {
    // A hand-built stream that flips a twin no steal paid for must be
    // flagged — the checker's teeth, checked from the engine's side.
    let events = vec![rda_core::TraceEvent {
        at: 1,
        seq: 1,
        kind: EventKind::CommitTwinFlip { group: 0, txn: 1 },
    }];
    let violations = protocol_violations(&events);
    assert!(
        violations.iter().any(|v| v.contains("CommitTwinFlip")),
        "{violations:?}"
    );
}

#[test]
fn metrics_counters_are_deterministic_for_a_fixed_seed() {
    let run = || {
        let db = Database::open(cfg(2).trace(1 << 12));
        run_seeded_workload(&db, 0xDECA_FBAD, 40);
        db.metrics().counters_json()
    };
    let a = run();
    let b = run();
    assert_eq!(a, b, "same seed, single thread: counters must match");
    assert!(a.contains("\"engine_commits_total\":"));
    assert!(a.contains("\"array_writes_total\":"));
    assert!(a.contains("\"buffer_steals_total\":"));
}

#[test]
fn tracing_disabled_records_nothing() {
    let db = Database::open(cfg(2));
    run_seeded_workload(&db, 7, 10);
    let snap = db.shard(0).trace_snapshot();
    assert!(snap.events.is_empty());
    assert_eq!(snap.dropped, 0);
}
