//! Timing benches for the recovery-critical paths of both engines:
//! commit with forced pages, abort via parity vs via the UNDO log, and
//! restart recovery as a function of how much loser state is on disk.

use rda_bench::bench;
use rda_core::{Database, DbConfig, EngineKind};
use std::hint::black_box;

fn db(engine: EngineKind, frames: usize) -> Database {
    let mut cfg = DbConfig::paper_like(engine, 500, frames);
    cfg.array.page_size = 512;
    Database::open(cfg)
}

/// Commit of a 10-page update transaction under FORCE — the paper's A1
/// per-transaction path.
fn bench_commit() {
    for engine in [EngineKind::Rda, EngineKind::Wal] {
        let database = db(engine, 64);
        let mut page = 0u32;
        bench(
            &format!("commit_force_10pages/{engine:?}"),
            || (),
            |()| {
                let mut tx = database.begin();
                for i in 0..10 {
                    page = (page + 13) % database.data_pages();
                    tx.write(page, &[i as u8; 32]).unwrap();
                }
                black_box(tx.commit().unwrap());
            },
        );
    }
}

/// Abort of a transaction whose pages were all stolen to disk: the RDA
/// engine reconstructs before-images from parity, the WAL engine replays
/// the log.
fn bench_abort_stolen() {
    for engine in [EngineKind::Rda, EngineKind::Wal] {
        // 2 frames force every write out to disk.
        let database = db(engine, 2);
        bench(
            &format!("abort_stolen_6pages/{engine:?}"),
            || (),
            |()| {
                let mut tx = database.begin();
                for p in 0..6 {
                    // Distinct groups (N = 10): pages 0, 10, 20, ...
                    tx.write(p * 10, &[0xEE; 32]).unwrap();
                }
                tx.abort().unwrap();
            },
        );
    }
}

/// Restart recovery with `losers` in-flight transactions that each stole
/// one parity-riding page.
fn bench_restart() {
    for losers in [1u32, 4, 16] {
        bench(
            &format!("restart_recovery/{losers}"),
            || {
                let database = db(EngineKind::Rda, 4);
                for l in 0..losers {
                    let mut tx = database.begin();
                    // One page per distinct group; the tiny buffer
                    // steals it.
                    tx.write(l * 10, &[7; 32]).unwrap();
                    tx.read((l * 10 + 5) % database.data_pages()).unwrap();
                    tx.read((l * 10 + 7) % database.data_pages()).unwrap();
                    std::mem::forget(tx);
                }
                database.crash();
                database
            },
            |database| {
                black_box(database.recover().unwrap());
            },
        );
    }
}

fn main() {
    bench_commit();
    bench_abort_stolen();
    bench_restart();
}
