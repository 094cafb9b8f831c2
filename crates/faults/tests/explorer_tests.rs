//! End-to-end crashpoint exploration: crash (or tear, or kill a disk
//! under) a mixed commit/abort workload at every physical I/O and prove
//! restart recovery restores exactly the committed state each time.

use rda_core::{DbConfig, EngineKind};
use rda_faults::{explore, CrashpointReport, ExploreMode, ExplorerConfig};
use rda_obs::json::{Json, ToJson};
use rda_sim::{TxnScript, WorkloadSpec};

/// A small all-update workload with a scripted abort mixed in, sized so
/// the golden run stays well under the exhaustive limit.
fn small_mixed_workload(count: usize) -> Vec<TxnScript> {
    let mut spec = WorkloadSpec::high_update(32, 8);
    spec.s = 4;
    spec.f_u = 1.0;
    spec.p_u = 1.0;
    spec.p_b = 0.0;
    let mut scripts = spec.generate(count, 0x00C0_FFEE);
    // Make the mix deterministic: exactly one scripted abort.
    if let Some(s) = scripts.get_mut(count / 2) {
        s.aborts = true;
    }
    scripts
}

fn assert_clean(report: &CrashpointReport) {
    assert!(
        report.golden_violations.is_empty(),
        "golden run broken: {:?}",
        report.golden_violations
    );
    let failures = report.failures();
    assert!(
        failures.is_empty(),
        "{} of {} crashpoints failed, first: io {} -> {:?}",
        failures.len(),
        report.points.len(),
        failures[0].io_index,
        failures[0].violations
    );
}

#[test]
fn exhaustive_crash_exploration_recovers_everywhere() {
    let scripts = small_mixed_workload(5);
    let cfg = ExplorerConfig {
        exhaustive_limit: 4096,
        ..ExplorerConfig::new(ExploreMode::Crash)
    };
    let report = explore(&DbConfig::small_test(EngineKind::Rda), &scripts, &cfg);

    assert!(
        report.exhaustive,
        "workload unexpectedly large: {} I/Os",
        report.total_ios
    );
    assert!(report.total_ios > 0);
    assert_eq!(report.points.len() as u64, report.total_ios);
    assert!(report.golden_committed >= 3);
    assert_clean(&report);
    // Crashing mid-transaction must actually produce losers somewhere,
    // and early crashpoints must land before any commit.
    assert!(report.points.iter().any(|p| p.losers > 0));
    assert!(report.points.iter().any(|p| p.committed_before == 0));
    assert!(report.points.iter().any(|p| p.committed_before > 0));
    // Every recovered crashpoint carries a per-phase timeline; the
    // bitmap scan always reads one parity header per group, so at least
    // one surviving point must show phase I/O.
    assert!(report
        .points
        .iter()
        .all(|p| !p.is_clean() || !p.timeline.phases.is_empty()));
    assert!(report
        .points
        .iter()
        .any(|p| p.is_clean() && p.timeline.total_ios() > 0));
    // Both JSON renderings surface the timeline; only the timed one
    // carries wall-clock.
    let json = report.to_json().to_string();
    assert!(json.contains(
        "\"timeline\":[{\"phase\":\"log_scan\",\"reads\":0,\"writes\":0},{\"phase\":\"intent_replay\""
    ));
    assert!(!json.contains("wall_us"));
    assert!(report.to_json_timed().to_string().contains("\"wall_us\":"));
}

#[test]
fn exhaustive_torn_write_exploration_recovers_everywhere() {
    let scripts = small_mixed_workload(4);
    let cfg = ExplorerConfig {
        exhaustive_limit: 4096,
        ..ExplorerConfig::new(ExploreMode::TornWrite)
    };
    let report = explore(&DbConfig::small_test(EngineKind::Rda), &scripts, &cfg);

    assert!(report.exhaustive);
    assert_clean(&report);
    // Every write I/O got torn at some crashpoint; at least one of those
    // tears must have landed on a page recovery had to repair explicitly
    // (a staged-intent replay or a torn parity twin healed by the
    // bitmap scan) rather than plain loser undo.
    assert!(
        report
            .points
            .iter()
            .any(|p| p.intent_replays > 0 || p.torn_twins_healed > 0),
        "no crashpoint exercised torn-page repair"
    );
}

#[test]
fn exhaustive_disk_failure_exploration_rebuilds_everywhere() {
    let scripts = small_mixed_workload(3);
    let cfg = ExplorerConfig {
        exhaustive_limit: 4096,
        ..ExplorerConfig::new(ExploreMode::FailDisk)
    };
    let report = explore(&DbConfig::small_test(EngineKind::Rda), &scripts, &cfg);

    assert!(report.exhaustive);
    assert_clean(&report);
    // Disk death always costs a rebuild: every point's timeline leads
    // with a media_rebuild phase that actually moved data.
    assert!(report
        .points
        .iter()
        .all(|p| p.timeline.phases.first().is_some_and(|ph| {
            ph.phase == rda_core::RecoveryPhase::MediaRebuild && ph.reads + ph.writes > 0
        })));
    assert!(report
        .to_json()
        .to_string()
        .contains("\"phase\":\"media_rebuild\""));
}

#[test]
fn sampling_kicks_in_above_the_exhaustive_limit() {
    let scripts = small_mixed_workload(4);
    let cfg = ExplorerConfig {
        exhaustive_limit: 10,
        samples: 7,
        ..ExplorerConfig::new(ExploreMode::Crash)
    };
    let report = explore(&DbConfig::small_test(EngineKind::Rda), &scripts, &cfg);

    assert!(!report.exhaustive);
    assert!(report.total_ios > 10);
    assert_eq!(report.points.len(), 7);
    // Distinct, in-range, increasing.
    for w in report.points.windows(2) {
        assert!(w[0].io_index < w[1].io_index);
    }
    assert!(report
        .points
        .iter()
        .all(|p| (1..=report.total_ios).contains(&p.io_index)));
    assert_clean(&report);
}

#[test]
fn parallel_exploration_matches_sequential_byte_for_byte() {
    let scripts = small_mixed_workload(4);
    let base = ExplorerConfig {
        exhaustive_limit: 4096,
        ..ExplorerConfig::new(ExploreMode::Crash)
    };
    // Tracing on: the event ring must not perturb replay determinism or
    // leak wall-clock into the report.
    let db_cfg = DbConfig::small_test(EngineKind::Rda).trace(4096);
    let seq = explore(&db_cfg, &scripts, &ExplorerConfig { workers: 1, ..base });
    let par = explore(&db_cfg, &scripts, &ExplorerConfig { workers: 4, ..base });

    assert!(seq.exhaustive);
    assert_eq!(seq.worker_timings.len(), 1);
    assert_eq!(par.worker_timings.len(), 4);
    assert_eq!(
        par.worker_timings.iter().map(|t| t.points).sum::<u64>(),
        par.points.len() as u64,
        "every crashpoint accounted to exactly one worker"
    );
    assert_eq!(
        seq.to_json(),
        par.to_json(),
        "worker count must not change the report"
    );
    assert_clean(&seq);
}

#[test]
fn report_serializes_to_json() {
    let scripts = small_mixed_workload(2);
    let cfg = ExplorerConfig {
        exhaustive_limit: 5,
        samples: 3,
        ..ExplorerConfig::new(ExploreMode::Crash)
    };
    let report = explore(&DbConfig::small_test(EngineKind::Rda), &scripts, &cfg);
    let json = report.to_json().to_string();
    assert!(json.contains("\"mode\":\"crash\""));
    assert!(json.contains("\"total_ios\":"));
    assert!(json.contains("\"points\":["));
    assert!(json.contains("\"clean\":"));
    for text in [json, report.to_json_timed().to_string()] {
        assert_eq!(Json::parse(&text).map(|j| j.to_string()), Ok(text));
    }
}
