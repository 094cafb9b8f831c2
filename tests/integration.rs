//! Workspace-level integration tests: drive the full stack through the
//! `rda` facade — array + WAL + buffer + engine + workload generator —
//! the way a downstream user would.

use rda::array::{ArrayConfig, Organization};
use rda::buffer::BufferConfig;
use rda::core::{Database, DbConfig, EngineKind, LogGranularity};
use rda::model::{families, ModelParams, Workload};
use rda::sim::{run_spec, RunConfig, WorkloadSpec};
use rda::wal::LogConfig;

fn engine_cfg(engine: EngineKind) -> DbConfig {
    DbConfig {
        array: ArrayConfig::new(Organization::RotatedParity, 5, 12)
            .twin(engine == EngineKind::Rda)
            .page_size(96),
        buffer: BufferConfig::steal_clock(10),
        log: LogConfig {
            page_size: 512,
            copies: 2,
            amortized: false,
        },
        ..DbConfig::small_test(engine)
    }
}

/// The two engines must produce byte-identical visible states for an
/// identical history including aborts and a crash.
#[test]
fn engines_agree_on_visible_state() {
    let run = |engine: EngineKind| -> Vec<Vec<u8>> {
        let db = Database::open(engine_cfg(engine));
        let mut t1 = db.begin();
        for p in 0..20 {
            t1.write(p, format!("v1-{p}").as_bytes()).unwrap();
        }
        t1.commit().unwrap();

        let mut t2 = db.begin();
        for p in 0..10 {
            t2.write(p, b"doomed").unwrap();
        }
        t2.abort().unwrap();

        let mut t3 = db.begin();
        t3.write(5, b"survivor").unwrap();
        t3.commit().unwrap();

        let mut t4 = db.begin();
        t4.write(6, b"lost in crash").unwrap();
        std::mem::forget(t4);
        db.crash_and_recover().unwrap();

        (0..db.data_pages())
            .map(|p| db.read_page(p).unwrap())
            .collect()
    };
    let rda = run(EngineKind::Rda);
    let wal = run(EngineKind::Wal);
    assert_eq!(rda, wal, "engines diverge on visible state");
    assert_eq!(&rda[5][..8], b"survivor");
    assert_eq!(&rda[7][..4], b"v1-7");
}

/// Crash, media failure, and recovery composed: lose a disk, crash the
/// system, recover, rebuild — committed data survives everything.
#[test]
fn crash_plus_disk_loss_composed() {
    let db = Database::open(engine_cfg(EngineKind::Rda));
    let mut tx = db.begin();
    for p in 0..30 {
        tx.write(p, &[0xC0 | (p as u8 & 0xF); 16]).unwrap();
    }
    tx.commit().unwrap();

    // In-flight work at the moment of the double failure.
    let mut tx = db.begin();
    for p in 0..8 {
        tx.write(p, &[0xEE; 16]).unwrap();
    }
    std::mem::forget(tx);

    db.fail_disk(3);
    db.crash();
    // Rebuild first — the disk's crash-time contents are reconstructed
    // through the working twins — then run restart recovery normally.
    let rebuilt = db.media_recover(3).expect("rebuild before restart");
    assert!(rebuilt > 0);
    db.recover().expect("restart after rebuild");
    for p in 0..30 {
        let got = db.read_page(p).unwrap();
        assert_eq!(got[0], 0xC0 | (p as u8 & 0xF), "page {p}");
    }
    assert!(db.verify().unwrap().is_empty());
}

/// The workload driver, crash injection and verification all compose over
/// the facade.
#[test]
fn simulated_workload_with_crashes_end_to_end() {
    let cfg = RunConfig {
        slots: 4,
        warmup: 20,
        crash_every: Some(25),
        ..RunConfig::default()
    };
    let db = DbConfig::paper_like(EngineKind::Rda, 300, 40);
    let result = run_spec(db, &cfg, &WorkloadSpec::high_update(300, 60), 120);
    assert_eq!(result.check(), Ok(()));
    assert!(result.crashes_injected >= 2, "{result:?}");
    // Lock-conflict aborts are expected on the hot set; most work commits.
    assert!(result.committed >= 70, "{result:?}");
}

/// Model and engine agree on the headline direction at a matched
/// operating point (experiment SIM-V).
#[test]
fn model_direction_confirmed_by_engine() {
    let check = rda::sim::model_vs_sim(500, 50, 200, 0.8).unwrap();
    assert!(check.model_gain > 0.05, "{check:?}");
    assert!(check.sim_gain > 0.0, "{check:?}");
}

/// The paper's headline numbers still hold through the facade re-exports.
#[test]
fn facade_reexports_model() {
    let p = ModelParams::paper_defaults(Workload::HighUpdate).communality(0.9);
    let gain = families::a1::evaluate(&p).gain();
    assert!(gain > 0.3);
}

/// Record-granularity path through the facade.
#[test]
fn record_mode_through_facade() {
    let cfg = engine_cfg(EngineKind::Rda).granularity(LogGranularity::Record);
    let db = Database::open(cfg);
    let mut t = db.begin();
    t.update(0, 0, b"head").unwrap();
    t.update(0, 40, b"tail").unwrap();
    t.commit().unwrap();
    db.crash_and_recover().unwrap();
    let got = db.read_page(0).unwrap();
    assert_eq!(&got[0..4], b"head");
    assert_eq!(&got[40..44], b"tail");
}
