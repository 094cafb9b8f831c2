//! Golden-schema snapshot of the exploration report.
//!
//! The report is the artifact CI archives and downstream tooling parses,
//! so its *shape* — key names, key order, the per-point record, the
//! timeline phase list — is a contract. This test pins it with the
//! checker's own JSON parser (which preserves member order); a field
//! rename or reorder fails here instead of silently breaking consumers.

use rda_check::{explore, sequential, DbKnobs, FaultKind, Json, PAGES};
use rda_core::{RecoveryPhase, Timeline};
use rda_obs::json::ToJson;
use rda_sim::WorkloadSpec;
use std::time::Duration;

fn tiny_report_json() -> String {
    let mut spec = WorkloadSpec::high_update(PAGES, 4);
    spec.s = 2;
    spec.f_u = 1.0;
    spec.p_u = 1.0;
    spec.p_b = 0.0;
    let knobs = DbKnobs {
        frames: 2,
        force: true,
        strict: false,
        shards: 1,
        group_commit: false,
    };
    let sched = sequential("tiny", knobs, &spec.generate(2, 0xBEEF));
    explore(&sched, FaultKind::Crash, 2).to_json().to_string()
}

#[test]
fn exploration_report_schema_is_pinned() {
    let text = tiny_report_json();
    let json = Json::parse(&text).expect("exploration report must be valid JSON");

    assert_eq!(
        json.keys(),
        vec![
            "schedule",
            "fault",
            "total_ios",
            "clean",
            "failures",
            "golden_violations",
            "points",
        ],
        "top-level report schema changed"
    );
    assert_eq!(json.get("fault").and_then(Json::as_str), Some("crash"));
    let total = json.get("total_ios").and_then(Json::as_u64).unwrap_or(0);
    assert!(total > 0);

    let points = json
        .get("points")
        .and_then(Json::as_arr)
        .expect("'points' must be an array");
    assert_eq!(points.len() as u64, total, "one point per I/O");
    for point in points {
        assert_eq!(
            point.keys(),
            vec![
                "io_index",
                "fired",
                "clean",
                "crashes",
                "losers",
                "intent_replays",
                "torn_twins_healed",
                "timeline",
                "violations",
            ],
            "per-point record schema changed"
        );
        let timeline = point
            .get("timeline")
            .and_then(Json::as_arr)
            .expect("'timeline' must be an array");
        for phase in timeline {
            assert_eq!(
                phase.keys(),
                vec!["phase", "reads", "writes"],
                "timeline phase record schema changed"
            );
        }
        // A restart's phases, in execution order. The log scan reads the
        // log device, not the array, so its array I/O columns are zero.
        let names: Vec<_> = timeline
            .iter()
            .filter_map(|p| p.get("phase").and_then(Json::as_str))
            .collect();
        assert_eq!(
            names,
            [
                "log_scan",
                "intent_replay",
                "bitmap_scan",
                "undo_parity",
                "undo_log",
                "redo"
            ],
            "restart phase list changed"
        );
        assert_eq!(timeline[0].get("reads").and_then(Json::as_u64), Some(0));
        assert_eq!(timeline[0].get("writes").and_then(Json::as_u64), Some(0));
    }
}

/// The report must never leak wall-clock fields.
#[test]
fn report_carries_no_wall_clock() {
    assert!(!tiny_report_json().contains("wall"));
}

/// `Timeline::to_json` renders phases in push order with stable names.
#[test]
fn timeline_json_shape() {
    let mut t = Timeline::default();
    t.push(RecoveryPhase::IntentReplay, Duration::ZERO, 1, 2);
    t.push(RecoveryPhase::UndoParity, Duration::ZERO, 3, 4);
    let json = t.to_json().to_string();
    let parsed = Json::parse(&json).expect("the timeline must be valid JSON");
    let arr = parsed.as_arr().expect("array");
    assert_eq!(arr.len(), 2);
    assert_eq!(
        arr[0].get("phase").and_then(Json::as_str),
        Some("intent_replay")
    );
    assert_eq!(arr[0].get("reads").and_then(Json::as_u64), Some(1));
    assert_eq!(arr[0].get("writes").and_then(Json::as_u64), Some(2));
    assert_eq!(
        arr[1].get("phase").and_then(Json::as_str),
        Some("undo_parity")
    );
}
