//! PR 10 perf harness: the sharded engine under genuine OS-thread
//! parallelism, with group commit on.
//!
//! For each thread count (1, 2, 4, 8) the harness opens a database with
//! `shards == threads` — the tentpole claim is that shards scale with
//! threads — and runs the same per-thread transaction budget in two
//! swept key modes:
//!
//! * **disjoint** — thread `t` draws pages only from parity groups
//!   `g ≡ t (mod threads)`, so with the striped shard map every
//!   transaction stays in its own shard: no lock conflicts, no 2PC,
//!   the lock-free-across-shards fast path.
//! * **overlapping** — every thread draws from the full page range:
//!   lock conflicts and cross-shard 2PC commits at natural rates,
//!   reported per section as `conflict_rate` (`conflict_retries`, the
//!   whole-transaction restarts a one-slot thread makes on conflicts,
//!   per transaction) and `cross_shard_commit_rate`.
//!
//! The sections run on `rda_check::sim::run` with one transaction slot per
//! thread. Every section reports exact runner-side p50/p99 commit-ack latency
//! (gate wait included) plus the group-commit batch counters, and the
//! report closes with the scaling ratio `threads_4_vs_1` over the
//! disjoint sections, recorded next to `host_cpus` so a reader can
//! judge the number against the machine that produced it.
//!
//! Run with: `cargo run --release -p rda-bench --bin perf_sharded`

use rda_check::sim::{run, Access, AccessKind, RunConfig, RunResult, TxnScript};
use rda_core::{Database, DbConfig, EngineKind, GroupCommit, ShardMap};
use rda_obs::json::Json;
use rda_obs::json_obj;
use rda_obs::rng::{mix, Rng};

const PAGES_PER_TXN: usize = 3;
const SEED: u64 = 0x1992_0A10;

/// How a section's threads pick the pages a transaction writes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum KeyMode {
    /// Thread `t` only touches parity groups `g ≡ t (mod threads)`:
    /// per-thread key ranges are disjoint, transactions never conflict
    /// and (when `threads == shards`) never cross shards.
    Disjoint,
    /// Every thread draws uniformly from all pages: conflicts and
    /// cross-shard transactions happen at natural rates.
    Overlapping,
}

impl KeyMode {
    fn name(self) -> &'static str {
        match self {
            KeyMode::Disjoint => "disjoint",
            KeyMode::Overlapping => "overlapping",
        }
    }
}

struct Args {
    smoke: bool,
    check_scaling: bool,
    out: String,
}

fn parse_args() -> Args {
    let mut args = Args {
        smoke: false,
        check_scaling: false,
        out: "BENCH_pr10.json".to_string(),
    };
    let mut argv = std::env::args().skip(1);
    while let Some(arg) = argv.next() {
        match arg.as_str() {
            "--smoke" => args.smoke = true,
            "--check-scaling" => args.check_scaling = true,
            "--out" => match argv.next() {
                Some(path) => args.out = path,
                None => usage(),
            },
            other => match other.strip_prefix("--out=") {
                Some(path) => args.out = path.to_string(),
                None => usage(),
            },
        }
    }
    args
}

fn usage() -> ! {
    eprintln!("usage: perf_sharded [--smoke] [--check-scaling] [--out PATH]");
    std::process::exit(2);
}

/// `threads * txns_per_thread` update scripts of [`PAGES_PER_TXN`]
/// distinct pages each. The runner gives script `i` to thread
/// `t = i % threads`; its pages are drawn from `Rng::new(mix(SEED, t))`.
fn scripts(map: ShardMap, threads: usize, txns_per_thread: usize, mode: KeyMode) -> Vec<TxnScript> {
    let n_threads = u32::try_from(threads).unwrap_or(u32::MAX);
    let mut rngs: Vec<Rng> = (0..threads)
        .map(|t| Rng::new(mix(SEED, t as u64)))
        .collect();
    (0..threads * txns_per_thread)
        .map(|i| {
            let t = (i % threads) as u32;
            let rng = &mut rngs[i % threads];
            let mut pages: Vec<u32> = Vec::with_capacity(PAGES_PER_TXN);
            while pages.len() < PAGES_PER_TXN {
                let r = rng.next_u64();
                let page = match mode {
                    KeyMode::Overlapping => (r % u64::from(map.data_pages())) as u32,
                    KeyMode::Disjoint => {
                        // Groups ≡ t (mod threads), any offset.
                        let eligible = (map.groups + n_threads - 1 - t) / n_threads;
                        let g = t + n_threads * ((r % u64::from(eligible.max(1))) as u32);
                        g * map.n + ((r >> 32) % u64::from(map.n)) as u32
                    }
                };
                if !pages.contains(&page) {
                    pages.push(page);
                }
            }
            let write = |page| Access {
                page,
                kind: AccessKind::Update,
            };
            TxnScript::committing(pages.into_iter().map(write).collect())
        })
        .collect()
}

/// One measured section: `shards == threads`, one transaction slot per
/// thread, group commit armed with a zero linger window (pure
/// opportunistic batching — batches form under committer concurrency, a
/// lone committer never waits). Returns the run and its report entry.
fn section(threads: usize, txns_per_thread: usize, mode: KeyMode) -> (RunResult, Json) {
    let db = Database::open(
        DbConfig::paper_like(EngineKind::Rda, 320, 64)
            .shards(u32::try_from(threads).unwrap_or(1))
            .group_commit(GroupCommit {
                window_micros: 0,
                max_batch: 32,
            }),
    );
    let cfg = RunConfig {
        threads,
        slots: 1,
        seed: SEED,
        warmup: 0,
        crash_every: None,
    };
    let r = run(&db, &cfg, scripts(db.map(), threads, txns_per_thread, mode));
    let (mut gc_batches, mut gc_txns) = (0, 0);
    for s in 0..db.shard_count() {
        let m = db.shard(s).metrics();
        gc_batches += m.counter("group_commit_batches_total").get();
        gc_txns += m.counter("group_commit_txns_total").get();
    }
    let attempts = (r.committed + r.conflict_aborts + r.failures).max(1);
    let json = json_obj! {
        "committed": r.committed,
        "wall_ms": r.elapsed_ns as f64 / 1e6,
        "txns_per_sec": r.txns_per_sec(),
        "conflict_aborts": r.conflict_aborts,
        "conflict_retries": r.conflict_stalls,
        "conflict_rate": r.conflict_stalls as f64 / attempts as f64,
        "cross_shard_commits": r.cross_shard_commits,
        "cross_shard_aborts": db.stats().cross_shard_aborts,
        "cross_shard_commit_rate": r.cross_shard_commits as f64 / r.committed.max(1) as f64,
        "gc_batches": gc_batches,
        "gc_txns": gc_txns,
        "p50_commit_us": r.p50_commit_ns as f64 / 1e3,
        "p99_commit_us": r.p99_commit_ns as f64 / 1e3,
        "failures": r.failures,
    };
    (r, json)
}

fn main() {
    let args = parse_args();
    let txns_per_thread = if args.smoke { 400 } else { 3000 };
    let host_cpus = std::thread::available_parallelism().map_or(1, std::num::NonZero::get);

    let mut report = json_obj! {
        "bench": "pr10-sharded",
        "smoke": args.smoke,
        "host_cpus": host_cpus,
        "txns_per_thread": txns_per_thread,
        "pages_per_txn": PAGES_PER_TXN,
    };
    let mut disjoint_tps: Vec<(usize, f64)> = Vec::new();
    let mut failed: Option<String> = None;
    for threads in [1usize, 2, 4, 8] {
        for mode in [KeyMode::Disjoint, KeyMode::Overlapping] {
            let (r, json) = section(threads, txns_per_thread, mode);
            eprintln!(
                "threads_{threads} {}: {:.0} txns/s, {} conflict stalls, \
                 {} cross-shard commits, p99 {:.1}us",
                mode.name(),
                r.txns_per_sec(),
                r.conflict_stalls,
                r.cross_shard_commits,
                r.p99_commit_ns as f64 / 1e3,
            );
            if let Err(e) = r.check() {
                failed.get_or_insert(format!("threads_{threads} {}: {e}", mode.name()));
            }
            if mode == KeyMode::Disjoint {
                disjoint_tps.push((threads, r.txns_per_sec()));
            }
            report.push(&format!("threads_{threads}_{}", mode.name()), json);
        }
    }

    let tps = |n: usize| {
        disjoint_tps
            .iter()
            .find(|(t, _)| *t == n)
            .map_or(0.0, |(_, v)| *v)
    };
    let ratio_4 = if tps(1) > 0.0 { tps(4) / tps(1) } else { 0.0 };
    let ratio_2 = if tps(1) > 0.0 { tps(2) / tps(1) } else { 0.0 };
    let met = ratio_4 >= 2.5;
    report.push(
        "scaling",
        json_obj! {
            "mode": "disjoint",
            "threads_2_vs_1": ratio_2,
            "threads_4_vs_1": ratio_4,
            "target_4_vs_1": 2.5,
            "met": met,
        },
    );

    if let Err(e) = std::fs::write(&args.out, report.to_string()) {
        eprintln!("failed to write {}: {e}", args.out);
        std::process::exit(1);
    }
    eprintln!(
        "report written to {} (threads_4 disjoint speedup: {ratio_4:.2}x on {host_cpus} cpus)",
        args.out
    );
    if let Some(msg) = failed {
        eprintln!("engine failures during bench: {msg}");
        std::process::exit(1);
    }
    if args.check_scaling && host_cpus >= 4 && !met {
        eprintln!(
            "scaling gate: threads_4 disjoint {ratio_4:.2}x < 2.5x on a {host_cpus}-core host"
        );
        std::process::exit(1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disjoint_threads_never_conflict_nor_cross_shards() {
        let (r, _) = section(4, 40, KeyMode::Disjoint);
        assert_eq!(r.failures, 0, "{:?}", r.first_failure);
        assert_eq!(r.committed, 160, "{r:?}");
        assert_eq!(r.conflict_stalls, 0, "{r:?}");
        assert_eq!(r.cross_shard_commits, 0, "{r:?}");
    }

    #[test]
    fn overlapping_threads_cross_shards_and_survive() {
        let (r, json) = section(4, 40, KeyMode::Overlapping);
        assert_eq!(r.failures, 0, "{:?}", r.first_failure);
        assert!(r.committed >= 150, "{r:?}");
        assert!(r.cross_shard_commits > 0, "{r:?}");
        let batches = json.get("gc_batches").and_then(Json::as_u64);
        assert!(batches.is_some_and(|b| b > 0), "{json}");
    }
}
