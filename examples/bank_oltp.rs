//! A miniature banking OLTP workload — the class of system the paper's
//! introduction motivates ("large scale database systems ... requiring
//! high availability ... on-line transaction processing").
//!
//! 64 accounts live one-per-page on a twin-parity array. Transfer
//! transactions move money between accounts; some abort mid-flight; a
//! crash hits the system in the middle of the day. The invariant — total
//! money is conserved — must survive every abort and the crash, with the
//! RDA engine doing its UNDO through the parity array.
//!
//! Run with: `cargo run --example bank_oltp`

use rda::array::{ArrayConfig, Organization};
use rda::buffer::BufferConfig;
use rda::core::{CheckpointPolicy, Database, DbConfig, EngineKind, EotPolicy};
use rda::obs::rng::Rng;
use rda::wal::LogConfig;

const ACCOUNTS: u32 = 64;
const INITIAL_BALANCE: u64 = 1_000;

fn encode(balance: u64) -> [u8; 8] {
    balance.to_be_bytes()
}

fn decode(page: &[u8]) -> u64 {
    u64::from_be_bytes(page[..8].try_into().expect("8 bytes"))
}

fn total(db: &Database) -> u64 {
    (0..ACCOUNTS)
        .map(|a| decode(&db.read_page(a).unwrap()))
        .sum()
}

fn main() {
    let cfg = DbConfig {
        array: ArrayConfig::new(Organization::RotatedParity, 8, 8)
            .twin(true)
            .page_size(64),
        // A deliberately small buffer so uncommitted transfers get stolen
        // to disk and the parity UNDO path is exercised for real.
        buffer: BufferConfig::steal_clock(12),
        log: LogConfig::default(),
        eot: EotPolicy::NoForce,
        checkpoint: CheckpointPolicy::AccEvery { ops: 64 },
        ..DbConfig::small_test(EngineKind::Rda)
    };
    let db = Database::open(cfg);

    // Fund the accounts.
    let mut tx = db.begin();
    for account in 0..ACCOUNTS {
        tx.write(account, &encode(INITIAL_BALANCE)).expect("fund");
    }
    tx.commit().expect("initial funding");
    let expected_total = u64::from(ACCOUNTS) * INITIAL_BALANCE;
    assert_eq!(total(&db), expected_total);

    let mut rng = Rng::new(2026);
    let mut committed = 0u32;
    let mut aborted = 0u32;

    for round in 0..400 {
        let from = rng.below(u64::from(ACCOUNTS)) as u32;
        let to = {
            let mut t = rng.below(u64::from(ACCOUNTS)) as u32;
            while t == from {
                t = rng.below(u64::from(ACCOUNTS)) as u32;
            }
            t
        };
        let amount = 1 + rng.below(49);

        let mut tx = db.begin();
        let from_balance = decode(&tx.read(from).expect("read"));
        if from_balance < amount {
            tx.abort().expect("insufficient funds abort");
            aborted += 1;
            continue;
        }
        let to_balance = decode(&tx.read(to).expect("read"));
        tx.write(from, &encode(from_balance - amount))
            .expect("debit");
        tx.write(to, &encode(to_balance + amount)).expect("credit");

        // A few transfers fail after doing their writes (client timeout,
        // constraint violation, ...) — classic mid-flight aborts.
        if rng.chance(7) {
            tx.abort().expect("rollback");
            aborted += 1;
        } else {
            tx.commit().expect("commit");
            committed += 1;
        }

        // Lights out at round 250, mid-workload.
        if round == 250 {
            let report = db.crash_and_recover().expect("restart");
            println!(
                "crash at round {round}: {} losers undone ({} via parity, {} via log), {} redo writes",
                report.losers.len(),
                report.undone_via_parity,
                report.undone_via_log,
                report.redone
            );
            assert_eq!(
                total(&db),
                expected_total,
                "money conserved across the crash"
            );
        }
    }

    assert_eq!(total(&db), expected_total, "money conserved");
    assert!(db.verify().expect("scrub").is_empty());

    let stats = db.stats();
    println!("{committed} transfers committed, {aborted} aborted");
    println!(
        "I/O bill: {} array transfers, {} log transfers ({} log bytes), hit ratio {:.2}",
        stats.array.transfers(),
        stats.log.transfers(),
        db.log_bytes(),
        stats.buffer.hit_ratio()
    );
    println!("total money: {} ✓", total(&db));
}
