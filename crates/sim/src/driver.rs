//! The concurrent transaction driver.
//!
//! Runs `P` logically concurrent transaction slots round-robin against a
//! [`Database`], the same concurrency structure as the paper's model (`P`
//! transactions in the system, one shared I/O subsystem). Lock conflicts
//! are handled by stalling the conflicting slot; a slot stalled too long
//! aborts its transaction (counted separately). Optionally injects a
//! system crash (plus restart recovery) every `crash_every` commits.

use crate::workload::{AccessKind, TxnScript, WorkloadSpec};
use rda_core::{Database, DbConfig, DbError, LogGranularity, Transaction};
use std::collections::HashMap;

/// Driver configuration.
#[derive(Debug, Clone)]
pub struct SimConfig {
    /// Engine configuration.
    pub db: DbConfig,
    /// Concurrent transaction slots (`P`).
    pub concurrency: usize,
    /// RNG seed for the workload.
    pub seed: u64,
    /// Transactions to run before measurement starts (buffer warm-up).
    pub warmup: usize,
    /// Inject `crash_and_recover` every this many commits.
    pub crash_every: Option<usize>,
    /// Verify final page contents against an oracle (page granularity
    /// only).
    pub verify: bool,
}

impl SimConfig {
    /// Reasonable defaults around a [`DbConfig`]: `P = 6`, warm-up 50,
    /// verification on.
    #[must_use]
    pub fn new(db: DbConfig) -> SimConfig {
        SimConfig {
            db,
            concurrency: 6,
            seed: 0xDA7A,
            warmup: 50,
            crash_every: None,
            verify: true,
        }
    }
}

/// Measured outcome of a workload run.
#[derive(Debug, Clone, Copy)]
pub struct SimResult {
    /// Transactions committed during the measured phase.
    pub committed: u64,
    /// Scripted aborts executed.
    pub aborted: u64,
    /// Transactions aborted because they stalled on locks.
    pub conflict_aborts: u64,
    /// Array page transfers during the measured phase.
    pub array_transfers: u64,
    /// Log page transfers during the measured phase.
    pub log_transfers: u64,
    /// Total transfers per committed transaction — the empirical `c_t`.
    pub transfers_per_committed: f64,
    /// Measured buffer hit ratio — the empirical communality `C`.
    pub measured_c: f64,
    /// Crashes injected mid-run by the driver, each followed by a
    /// successful restart recovery — nonzero exactly for crash-mode
    /// runs, whose transfer costs include recovery I/O and are therefore
    /// not comparable to clean runs.
    pub crashes_injected: u64,
    /// Bytes appended to the log during the measured phase.
    pub log_bytes: u64,
}

struct Slot {
    tx: Transaction,
    script: TxnScript,
    pos: usize,
    stalls: u32,
    /// (page, value-byte) writes made, applied to the oracle at commit.
    writes: Vec<(u32, u8)>,
}

const MAX_STALLS: u32 = 64;

/// Run `txn_count` scripted transactions (after `warmup` unmeasured ones)
/// and report the measured costs.
///
/// # Panics
/// Panics if verification is enabled and the final database state
/// disagrees with the oracle, or if recovery after an injected crash
/// fails — both indicate engine bugs.
#[must_use]
pub fn run_workload(cfg: &SimConfig, spec: &WorkloadSpec, txn_count: usize) -> SimResult {
    let scripts = spec.generate(cfg.warmup + txn_count, cfg.seed);
    run_scripts(cfg, scripts)
}

/// Run a pre-generated (or replayed) script sequence. The first
/// `cfg.warmup` scripts are unmeasured.
#[must_use]
pub fn run_scripts(cfg: &SimConfig, scripts: Vec<TxnScript>) -> SimResult {
    let db = Database::open(cfg.db.clone());
    let page_mode = cfg.db.granularity == LogGranularity::Page;
    let total = scripts.len();
    let mut queue = scripts.into_iter();
    let mut slots: Vec<Option<Slot>> = (0..cfg.concurrency.max(1)).map(|_| None).collect();

    let mut oracle: HashMap<u32, u8> = HashMap::new();
    let mut started = 0usize;
    let mut finished = 0usize;
    let mut committed = 0u64;
    let mut aborted = 0u64;
    let mut conflict_aborts = 0u64;
    let mut crashes = 0u64;
    let mut commits_since_crash = 0usize;

    let mut baseline = db.stats();
    let mut baseline_bytes = db.log_bytes();
    let mut baseline_set = cfg.warmup == 0;
    let mut measured_committed = 0u64;

    let mut idle_passes = 0u32;
    while finished < total {
        let mut progressed = false;
        for idx in 0..slots.len() {
            // Start a new transaction in an empty slot.
            if slots[idx].is_none() {
                if let Some(script) = queue.next() {
                    started += 1;
                    slots[idx] = Some(Slot {
                        tx: db.begin(),
                        script,
                        pos: 0,
                        stalls: 0,
                        writes: Vec::new(),
                    });
                }
            }
            let Some(slot) = slots[idx].as_mut() else {
                continue;
            };

            // One access step.
            if slot.pos < slot.script.accesses.len() {
                let access = slot.script.accesses[slot.pos];
                let value = value_byte(cfg.seed, started, slot.pos);
                let res = match access.kind {
                    AccessKind::Read => slot.tx.read(access.page).map(|_| ()),
                    AccessKind::Update => {
                        if page_mode {
                            slot.tx.write(access.page, &[value])
                        } else {
                            slot.tx.update(access.page, 0, &[value])
                        }
                    }
                };
                match res {
                    Ok(()) => {
                        if access.kind == AccessKind::Update {
                            slot.writes.push((access.page, value));
                        }
                        slot.pos += 1;
                        slot.stalls = 0;
                        progressed = true;
                        continue;
                    }
                    Err(DbError::LockConflict { .. }) => {
                        slot.stalls += 1;
                        if slot.stalls > MAX_STALLS {
                            let slot = slots[idx].take().expect("slot occupied");
                            slot.tx.abort().expect("conflict abort");
                            conflict_aborts += 1;
                            finished += 1;
                            progressed = true;
                        }
                        continue;
                    }
                    Err(e) => panic!("workload access failed: {e}"),
                }
            }

            // Script complete: end the transaction.
            let slot = slots[idx].take().expect("slot occupied");
            if slot.script.aborts {
                slot.tx.abort().expect("scripted abort");
                aborted += 1;
            } else {
                slot.tx.commit().expect("commit");
                committed += 1;
                commits_since_crash += 1;
                if finished >= cfg.warmup {
                    measured_committed += 1;
                }
                for (page, value) in slot.writes {
                    oracle.insert(page, value);
                }
            }
            finished += 1;
            progressed = true;

            // Crash injection.
            if let Some(every) = cfg.crash_every {
                if commits_since_crash >= every {
                    commits_since_crash = 0;
                    crashes += 1;
                    // In-flight transactions die with the crash; their
                    // handles must not run the drop-abort.
                    for s in &mut slots {
                        if let Some(s) = s.take() {
                            finished += 1;
                            aborted += 1;
                            std::mem::forget(s.tx);
                        }
                    }
                    db.crash_and_recover().expect("restart recovery");
                }
            }

            // Snapshot the baseline once the warm-up completes.
            if !baseline_set && finished >= cfg.warmup {
                baseline = db.stats();
                baseline_bytes = db.log_bytes();
                baseline_set = true;
            }
        }
        // A fully-stalled pass is normal (the stall counters break
        // deadlocks after MAX_STALLS passes); a long run of them is not.
        if progressed {
            idle_passes = 0;
        } else {
            idle_passes += 1;
            assert!(
                idle_passes <= 8 * MAX_STALLS,
                "driver wedged: nothing progresses"
            );
        }
    }

    let end = db.stats();
    let delta = end.delta(&baseline);

    if cfg.verify && page_mode {
        for (page, value) in &oracle {
            let got = db.read_page(*page).expect("readback");
            assert_eq!(
                got[0], *value,
                "page {page}: committed value lost (engine bug)"
            );
        }
        let violations = db.verify().expect("scrub");
        assert!(violations.is_empty(), "parity violations: {violations:?}");
    }

    let denom = measured_committed.max(1) as f64;
    SimResult {
        committed,
        aborted,
        conflict_aborts,
        array_transfers: delta.array.transfers(),
        log_transfers: delta.log.transfers(),
        transfers_per_committed: (delta.array.transfers() + delta.log.transfers()) as f64 / denom,
        measured_c: end.buffer.hit_ratio(),
        crashes_injected: crashes,
        log_bytes: db.log_bytes() - baseline_bytes,
    }
}

fn value_byte(seed: u64, txn_idx: usize, pos: usize) -> u8 {
    let mixed = seed
        .wrapping_mul(0x9E37_79B9_7F4A_7C15)
        .wrapping_add(txn_idx as u64)
        .wrapping_mul(0x2545_F491_4F6C_DD1D)
        .wrapping_add(pos as u64);
    (mixed >> 32) as u8 | 1 // never zero: distinguishable from fresh pages
}

#[cfg(test)]
mod tests {
    use super::*;
    use rda_core::{DbConfig, EngineKind};

    fn small_sim(engine: EngineKind) -> SimConfig {
        let mut cfg = SimConfig::new(DbConfig::paper_like(engine, 200, 32));
        cfg.warmup = 10;
        cfg.concurrency = 4;
        cfg
    }

    fn small_spec() -> WorkloadSpec {
        WorkloadSpec {
            hot_pages: 24,
            ..WorkloadSpec::high_update(200, 24)
        }
    }

    #[test]
    fn workload_runs_and_verifies_on_both_engines() {
        for engine in [EngineKind::Rda, EngineKind::Wal] {
            let result = run_workload(&small_sim(engine), &small_spec(), 60);
            // Many transactions fall to lock-conflict aborts on the small
            // hot set (34–52 of 70 commit across seeds); a good share must
            // commit.
            assert!(result.committed >= 30, "{engine:?}: {result:?}");
            assert!(result.committed + result.aborted + result.conflict_aborts >= 70);
            assert!(result.transfers_per_committed > 0.0);
            assert!(result.measured_c > 0.0 && result.measured_c < 1.0);
        }
    }

    #[test]
    fn crash_injection_survives_and_verifies() {
        let mut cfg = small_sim(EngineKind::Rda);
        cfg.crash_every = Some(12);
        let result = run_workload(&cfg, &small_spec(), 80);
        assert!(result.crashes_injected >= 3, "{result:?}");
        assert!(result.committed > 0);
    }

    #[test]
    fn rda_costs_less_than_wal_on_update_heavy_workload() {
        // The headline: with a small buffer (steals frequent), the RDA
        // engine moves fewer total pages per committed transaction.
        let spec = small_spec();
        let mut rda_cfg = small_sim(EngineKind::Rda);
        let mut wal_cfg = small_sim(EngineKind::Wal);
        rda_cfg.db.buffer.frames = 16;
        wal_cfg.db.buffer.frames = 16;
        let rda = run_workload(&rda_cfg, &spec, 100);
        let wal = run_workload(&wal_cfg, &spec, 100);
        assert!(
            rda.log_bytes < wal.log_bytes,
            "RDA log bytes {} vs WAL {}",
            rda.log_bytes,
            wal.log_bytes
        );
    }

    #[test]
    fn higher_locality_raises_measured_c() {
        let cfg = small_sim(EngineKind::Rda);
        let low = run_workload(&cfg, &small_spec().locality(0.1), 60);
        let high = run_workload(&cfg, &small_spec().locality(0.95), 60);
        assert!(
            high.measured_c > low.measured_c + 0.05,
            "high {} vs low {}",
            high.measured_c,
            low.measured_c
        );
    }

    #[test]
    fn record_granularity_workload_runs() {
        let mut cfg = small_sim(EngineKind::Rda);
        cfg.db = cfg.db.granularity(rda_core::LogGranularity::Record);
        cfg.verify = false; // oracle is page-granularity
        let result = run_workload(&cfg, &small_spec(), 40);
        assert!(result.committed > 0);
    }
}
