//! Exhaustive exploration, end to end: crash (or tear, or kill a disk
//! under) a small mixed commit/abort schedule at every physical I/O, and
//! the checker must find every point clean — at any worker count.

use rda_check::sim::WorkloadSpec;
use rda_check::{explore, sequential, DbKnobs, Exploration, FaultKind, Json, Schedule, PAGES};
use rda_core::RecoveryPhase;
use rda_obs::json::ToJson;

/// `count` all-update transactions of four pages each, one at a time,
/// with exactly one scripted abort in the middle. Three frames force
/// steals mid-transaction, so crashes find losers to roll back.
fn mixed(count: usize) -> Schedule {
    let mut spec = WorkloadSpec::high_update(PAGES, 8);
    spec.s = 4;
    spec.f_u = 1.0;
    spec.p_u = 1.0;
    spec.p_b = 0.0;
    let mut scripts = spec.generate(count, 0x00C0_FFEE);
    scripts[count / 2].aborts = true;
    let knobs = DbKnobs {
        frames: 3,
        force: true,
        strict: false,
        shards: 1,
        group_commit: false,
    };
    sequential(&format!("mixed-{count}"), knobs, &scripts)
}

/// Every I/O explored, every planted fault fired, no failures — and the
/// same report from a pool of four as from one worker.
fn explored_clean(sched: &Schedule, kind: FaultKind) -> Exploration {
    let report = explore(sched, kind, 1);
    assert!(
        report.golden.ok(),
        "golden run: {:?}",
        report.golden.violations
    );
    assert!(report.total_ios() > 0);
    assert_eq!(report.points.len() as u64, report.total_ios());
    let failures = report.failures();
    if let Some(&k) = failures.first() {
        panic!(
            "{} of {} {} points failed, first at I/O {k}: fired {}, {:?}",
            failures.len(),
            report.points.len(),
            kind.name(),
            report.points[k as usize - 1].fault_fired,
            report.points[k as usize - 1].violations
        );
    }
    assert!(report.is_clean());
    let pooled = explore(sched, kind, 4);
    assert_eq!(
        report.to_json().to_string(),
        pooled.to_json().to_string(),
        "the worker count changed the {} report",
        kind.name()
    );
    report
}

fn rebuilds(p: &rda_check::CheckOutcome) -> bool {
    p.recovery
        .timeline
        .phases
        .iter()
        .any(|ph| ph.phase == RecoveryPhase::MediaRebuild && ph.reads + ph.writes > 0)
}

#[test]
fn every_crash_point_recovers() {
    let report = explored_clean(&mixed(5), FaultKind::Crash);
    // Crashing mid-transaction must roll a loser back somewhere.
    assert!(report.points.iter().any(|p| p.recovery.losers > 0));
    // Every point restarted, and the bitmap scan alone reads one parity
    // header per group.
    assert!(report.points.iter().all(|p| p.crashes > 0));
    assert!(report
        .points
        .iter()
        .all(|p| p.recovery.timeline.total_ios() > 0));
    let json = report.to_json().to_string();
    assert!(json.contains(
        "\"timeline\":[{\"phase\":\"log_scan\",\"reads\":0,\"writes\":0},{\"phase\":\"intent_replay\""
    ));
    assert!(!json.contains("wall_us"));
    assert_eq!(Json::parse(&json).map(|j| j.to_string()), Ok(json));
}

#[test]
fn every_torn_write_point_recovers() {
    let report = explored_clean(&mixed(4), FaultKind::TornWrite);
    // Some tear must land on a block recovery repairs explicitly — a
    // staged intent replayed or a torn parity twin healed — rather than
    // by plain loser undo.
    assert!(
        report
            .points
            .iter()
            .any(|p| p.recovery.intent_replays > 0 || p.recovery.torn_twins_healed > 0),
        "no point exercised torn-page repair"
    );
}

#[test]
fn every_disk_death_point_rebuilds() {
    let report = explored_clean(&mixed(3), FaultKind::FailDisk);
    // Disk death always costs a rebuild that moves data.
    assert!(report.points.iter().all(rebuilds));
    assert!(report
        .to_json()
        .to_string()
        .contains("\"phase\":\"media_rebuild\""));
}
