//! End-to-end tests of the model-based differential checker, each run
//! over both generator streams (classic one-shard, and threaded with
//! seeded shards + group commit): mutation sensitivity (the checker must
//! have teeth), sweep cleanliness on the real engine, worker-count
//! determinism, corpus replay, and the schedule JSON round-trip the
//! corpus and `--replay` depend on.

use rda_check::{
    corpus, run_schedule, shrink, sweep, FaultKind, FaultPoint, Json, ProtocolMutations, Schedule,
    Stream, SweepConfig,
};

const STREAMS: [Stream; 2] = [Stream::Classic, Stream::Threaded];

/// The unmutated engine survives a seeded fault-laden sweep, and the
/// report is a pure function of the configuration minus `workers`:
/// byte-identical JSON at 1 and 4 workers — the property that lets CI
/// shard the sweep freely.
#[test]
fn sweep_is_clean_and_worker_count_independent() {
    for stream in STREAMS {
        let base = SweepConfig {
            stream,
            seed: 0x1992,
            schedules: 40,
            faults_per_schedule: 2,
            workers: 1,
            mutations: ProtocolMutations::default(),
            stop_on_failure: false,
        };
        let seq = sweep(&base);
        assert_eq!(seq.results.len(), 40);
        if let Some(first) = seq.failures().first() {
            panic!(
                "{stream:?} sweep found a counterexample: '{}' ({}) — {:?}",
                first.schedule.name, first.variant, first.violations
            );
        }
        let par = sweep(&SweepConfig { workers: 4, ..base });
        assert_eq!(seq.to_json(), par.to_json(), "{stream:?}");
    }
}

/// Every corpus entry replays with its expectations met (verdict,
/// determinism, required protocol events) — the one-shard entries and
/// the cross-shard 2PC, intent-replay, group-commit-crash and disk-death
/// ones, from the one directory.
#[test]
fn corpus_replays_green() {
    let count = corpus::replay_dir(&corpus::default_dir())
        .unwrap_or_else(|e| panic!("corpus replay failed: {e}"));
    assert!(count >= 13, "corpus has shrunk to {count} entries");
}

/// With the commit-time twin flip compiled out — or with the log's
/// low-water mark allowed past the BOTs of active transactions — the
/// sweep must find a counterexample quickly and the shrinker must reduce
/// it to a handful of ops — the acceptance bound is 12, typical repros
/// are 3–9.
#[test]
fn mutation_skip_twin_flip_is_caught_and_shrinks() {
    caught_and_shrinks(
        ProtocolMutations {
            skip_commit_twin_flip: true,
            ..ProtocolMutations::default()
        },
        1,
    );
}

/// The bad cut shows on the schedules' own `crash_restart` ops; a planted
/// crash point would pin the I/O numbering against the shrinker.
#[test]
fn mutation_low_water_ignores_active_is_caught_and_shrinks() {
    caught_and_shrinks(
        ProtocolMutations {
            low_water_ignores_active: true,
            ..ProtocolMutations::default()
        },
        0,
    );
}

fn caught_and_shrinks(mutations: ProtocolMutations, faults_per_schedule: u64) {
    for stream in STREAMS {
        let cfg = SweepConfig {
            stream,
            seed: 0x1992,
            schedules: 200,
            faults_per_schedule,
            workers: 2,
            mutations,
            stop_on_failure: true,
        };
        let report = sweep(&cfg);
        let failures = report.failures();
        let first = failures.first().unwrap_or_else(|| {
            panic!("{stream:?} mutation sweep found no counterexample: the checker has no teeth")
        });
        let shrunk = shrink(&first.schedule, cfg.mutations, 400);
        assert!(
            !run_schedule(&shrunk.schedule, cfg.mutations).ok(),
            "{stream:?}: shrunk schedule no longer fails"
        );
        assert!(
            shrunk.schedule.ops.len() <= 12,
            "{stream:?}: mutation repro did not shrink below 12 ops (got {})",
            shrunk.schedule.ops.len()
        );
    }
}

fn round_trip(sched: &Schedule) -> Schedule {
    let json = sched.to_json().to_string();
    let parsed = Json::parse(&json).unwrap_or_else(|e| panic!("emitted JSON unparseable: {e}"));
    Schedule::from_json(&parsed).unwrap_or_else(|e| panic!("round-trip failed: {e}"))
}

/// Schedules survive the JSON round-trip exactly (shards and
/// group-commit knobs, and a planted fault of any kind, included) — the
/// property the corpus and `--replay` depend on.
#[test]
fn schedule_json_round_trips() {
    for stream in STREAMS {
        for index in 0..50 {
            let sched = stream.generate(0xC0DE, index);
            assert_eq!(
                round_trip(&sched),
                sched,
                "{stream:?} schedule {index} changed across the round-trip"
            );
        }
        let variant = rda_check::fault_variant(&stream.generate(0xC0DE, 3), 1, 7);
        assert_eq!(round_trip(&variant), variant);
        // Every kind a fault point can name, not only the three the
        // generators plant.
        for kind in FaultKind::ALL {
            let planted = Schedule {
                fault: Some(FaultPoint { kind, at_io: 7 }),
                ..variant.clone()
            };
            assert_eq!(round_trip(&planted), planted, "{} fault", kind.name());
        }
    }
}

/// A `config` without `shards`/`group_commit` (every pre-merge corpus
/// entry and repro) means one shard and no gate, and round-trips.
#[test]
fn config_without_shards_defaults_to_one_shard_no_gate() {
    let text = r#"{"name":"old","config":{"frames":3,"eot":"noforce","strict":false},
        "ops":[{"op":"begin","slot":0},{"op":"write","slot":0,"page":1,"val":7},
        {"op":"commit","slot":0}],"fault":null}"#;
    let sched = Schedule::from_json(&Json::parse(text).expect("parse")).expect("schedule");
    assert_eq!(sched.knobs.shards, 1);
    assert!(!sched.knobs.group_commit);
    assert_eq!(round_trip(&sched), sched);
    assert!(run_schedule(&sched, ProtocolMutations::default()).ok());
    // Present but out of range is still an error, not a silent default.
    let bad = text.replace("\"strict\":false", "\"strict\":false,\"shards\":9");
    assert!(Schedule::from_json(&Json::parse(&bad).expect("parse")).is_err());
}

/// `rda-check --replay FILE` honours `config.shards`: the archived
/// crash-between-prepares entry runs on two shards, so recovery replays
/// its staged 2PC intent — a token that cannot occur on one shard.
#[test]
fn replay_honours_shards_in_config() {
    let path = corpus::default_dir().join("t02-crash-between-prepares.json");
    // What `--replay` does with the file, step for step.
    let text = std::fs::read_to_string(&path).expect("read corpus file");
    let sched = Schedule::from_json(&Json::parse(&text).expect("parse")).expect("schedule");
    let outcome = run_schedule(&sched, ProtocolMutations::default());
    assert!(outcome.ok(), "{:?}", outcome.violations);
    assert!(
        outcome.events.iter().any(|e| e == "IntentReplayed"),
        "replay of a shards: 2 schedule never replayed an intent: it ran on one shard"
    );
    // And the CLI itself: the trace names a second shard.
    let out = std::process::Command::new(env!("CARGO_BIN_EXE_rda-check"))
        .args(["--replay", &path.to_string_lossy(), "--trace"])
        .output()
        .expect("run rda-check");
    assert!(out.status.success(), "rda-check --replay failed");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        stdout.lines().any(|l| l.starts_with("s1 ")),
        "--replay trace has no shard-1 events"
    );
}
