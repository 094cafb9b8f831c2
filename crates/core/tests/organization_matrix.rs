//! The engine must behave identically over every array organization —
//! rotated parity, parity striping (the paper's preferred OLTP layout),
//! and the RAID-4 baseline. Runs the core lifecycle (commit, steal-abort,
//! crash, media recovery) across the full matrix.

use rda_array::{ArrayConfig, Organization};
use rda_buffer::BufferConfig;
use rda_core::{Database, DbConfig, EngineKind, LogGranularity};

fn cfg(org: Organization, engine: EngineKind, frames: usize) -> DbConfig {
    DbConfig {
        array: ArrayConfig::new(org, 4, 8)
            .twin(engine == EngineKind::Rda)
            .page_size(64),
        buffer: BufferConfig::steal_clock(frames),
        ..DbConfig::small_test(engine)
    }
}

const ORGS: [Organization; 3] = [
    Organization::RotatedParity,
    Organization::ParityStriping,
    Organization::DedicatedParity,
];

#[test]
fn lifecycle_on_every_organization() {
    for org in ORGS {
        for engine in [EngineKind::Rda, EngineKind::Wal] {
            let db = Database::open(cfg(org, engine, 2));
            let pages = db.data_pages().min(12);

            // Commit.
            let mut tx = db.begin();
            for p in 0..pages {
                tx.write(p, &[p as u8 + 1; 8]).unwrap();
            }
            tx.commit().unwrap();

            // Steal-heavy abort.
            let mut tx = db.begin();
            for p in 0..pages {
                tx.write(p, &[0xAA; 8]).unwrap();
            }
            tx.abort().unwrap();
            for p in 0..pages {
                assert_eq!(
                    db.read_page(p).unwrap()[0],
                    p as u8 + 1,
                    "{org:?} {engine:?} p{p}"
                );
            }

            // Crash with in-flight stolen work.
            let mut tx = db.begin();
            for p in 0..pages {
                tx.write(p, &[0xBB; 8]).unwrap();
            }
            std::mem::forget(tx);
            db.crash_and_recover().unwrap();
            for p in 0..pages {
                assert_eq!(
                    db.read_page(p).unwrap()[0],
                    p as u8 + 1,
                    "{org:?} {engine:?} p{p}"
                );
            }

            assert!(db.verify().unwrap().is_empty(), "{org:?} {engine:?}");
        }
    }
}

#[test]
fn media_recovery_on_every_organization() {
    for org in ORGS {
        let db = Database::open(cfg(org, EngineKind::Rda, 16));
        let pages = db.data_pages().min(16);
        let mut tx = db.begin();
        for p in 0..pages {
            tx.write(p, &[(p % 200) as u8 + 7; 8]).unwrap();
        }
        tx.commit().unwrap();

        db.fail_disk(1);
        assert_eq!(db.read_page(0).unwrap()[0], 7, "{org:?} degraded read");
        db.media_recover(1).unwrap();
        for p in 0..pages {
            assert_eq!(
                db.read_page(p).unwrap()[0],
                (p % 200) as u8 + 7,
                "{org:?} p{p}"
            );
        }
        assert!(db.verify().unwrap().is_empty(), "{org:?}");
    }
}

#[test]
fn record_granularity_on_every_organization() {
    for org in ORGS {
        let db = Database::open(cfg(org, EngineKind::Rda, 4).granularity(LogGranularity::Record));
        let mut tx = db.begin();
        tx.update(0, 0, b"head").unwrap();
        tx.update(5, 8, b"mid").unwrap();
        tx.commit().unwrap();

        let mut tx = db.begin();
        tx.update(0, 0, b"XXXX").unwrap();
        tx.abort().unwrap();

        db.crash_and_recover().unwrap();
        let got = db.read_page(0).unwrap();
        assert_eq!(&got[0..4], b"head", "{org:?}");
        let got = db.read_page(5).unwrap();
        assert_eq!(&got[8..11], b"mid", "{org:?}");
    }
}
