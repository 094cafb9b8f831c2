//! PR 7/9 perf harness: the storage-backend axis.
//!
//! Runs one deterministic transaction workload through the same engine
//! over three backends and emits `BENCH_pr9.json` (the PR 7 shape plus
//! the per-backend `queue` block of disk traffic counters):
//!
//! * `sim` — the in-memory simulated array (`Database::open`), the
//!   baseline every earlier BENCH file measured;
//! * `file_fsync` — the file-backed array in its default durability
//!   mode (written through, fsynced at commit barriers);
//! * `file_dsync` — the file-backed array fsyncing inside every write
//!   (the O_DSYNC-style mode).
//!
//! Per backend: committed txns, wall clock, txns/s, MiB/s of page
//! payload, and p50/p99 commit latency. The file backends additionally
//! report the disk counters `rda-disk` exports (writes issued, barriers,
//! fsyncs, sticky errors) and its fsync latency histogram. Wall-clocks
//! depend on the host,
//! so the report records `host_cpus`, the directory the file backends
//! ran in, and that directory's filesystem type from `/proc/mounts`
//! (CI runs on tmpfs; a real disk directory can be chosen with
//! `RDA_BENCH_DIR=/path`).
//!
//! `--smoke` shrinks the workload for CI; `--out PATH` redirects the
//! report. Run with: `cargo run --release -p rda-bench --bin perf_backend`

use rda_core::{Database, DbConfig, EngineKind};
use rda_disk::{create_database, DurabilityMode, FileDb};
use rda_obs::json::Json;
use rda_obs::json_obj;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

/// Pages each transaction writes; spread over the whole array so the
/// parity twin pair of many groups stays hot.
const PAGES_PER_TXN: u32 = 8;

struct Args {
    smoke: bool,
    out: String,
}

fn parse_args() -> Args {
    let mut args = Args {
        smoke: false,
        out: "BENCH_pr9.json".to_string(),
    };
    let mut argv = std::env::args().skip(1);
    while let Some(arg) = argv.next() {
        match arg.as_str() {
            "--smoke" => args.smoke = true,
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
    eprintln!("usage: perf_backend [--smoke] [--out PATH]");
    std::process::exit(2);
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

fn cfg() -> DbConfig {
    DbConfig::paper_like(EngineKind::Rda, 200, 32)
}

/// Deterministic page image for transaction `i`, page slot `j`.
fn stamp(i: u64, j: u32, page_size: usize) -> Vec<u8> {
    let mut v = vec![0u8; page_size.min(64)];
    v[..8].copy_from_slice(&i.to_le_bytes());
    v[8..12].copy_from_slice(&j.to_le_bytes());
    v[12] = 0xB7;
    v
}

struct RunStats {
    committed: u64,
    wall: Duration,
    bytes: u64,
    latencies: Vec<Duration>,
}

/// The workload, generic over the backend: `txns` transactions, each
/// writing [`PAGES_PER_TXN`] pages strided across the array.
fn run_workload<D: rda_array::BlockDevice>(
    db: &Database<D>,
    txns: u64,
) -> Result<RunStats, String> {
    let pages = cfg().array.data_pages();
    let page_size = cfg().array.page_size;
    let mut stats = RunStats {
        committed: 0,
        wall: Duration::ZERO,
        bytes: 0,
        latencies: Vec::with_capacity(txns as usize),
    };
    let start = Instant::now();
    for i in 0..txns {
        let mut tx = db.begin();
        for j in 0..PAGES_PER_TXN {
            // Stride of 13 pages keeps consecutive writes in different
            // parity groups (n = 10) while still revisiting pages.
            let page =
                ((i * u64::from(PAGES_PER_TXN) + u64::from(j)) * 13 % u64::from(pages)) as u32;
            tx.write(page, &stamp(i, j, page_size))
                .map_err(|e| format!("write failed at txn {i}: {e}"))?;
        }
        let commit_start = Instant::now();
        tx.commit()
            .map_err(|e| format!("commit failed at txn {i}: {e}"))?;
        stats.latencies.push(commit_start.elapsed());
        stats.committed += 1;
        stats.bytes += u64::from(PAGES_PER_TXN) * page_size as u64;
    }
    stats.wall = start.elapsed();
    Ok(stats)
}

/// `{"committed":…,"txns_per_sec":…,"p99_commit_us":…}` for one backend.
fn stats_json(stats: &RunStats) -> Json {
    let secs = stats.wall.as_secs_f64().max(1e-9);
    let mut sorted = stats.latencies.clone();
    sorted.sort();
    let pct = |p: f64| -> f64 {
        if sorted.is_empty() {
            return 0.0;
        }
        let idx = ((sorted.len() as f64 - 1.0) * p).round() as usize;
        sorted[idx].as_secs_f64() * 1e6
    };
    json_obj! {
        "committed": stats.committed,
        "wall_ms": ms(stats.wall),
        "txns_per_sec": stats.committed as f64 / secs,
        "mib_per_sec": stats.bytes as f64 / (1024.0 * 1024.0) / secs,
        "p50_commit_us": pct(0.50),
        "p99_commit_us": pct(0.99),
    }
}

/// The filesystem type holding `dir`, from `/proc/mounts` (longest
/// matching mount point wins). `unknown` off Linux or on parse failure.
fn fs_type_of(dir: &Path) -> String {
    let Ok(mounts) = std::fs::read_to_string("/proc/mounts") else {
        return "unknown".to_string();
    };
    let dir = dir.canonicalize().unwrap_or_else(|_| dir.to_path_buf());
    let mut best: Option<(usize, String)> = None;
    for line in mounts.lines() {
        let mut fields = line.split_whitespace();
        let (Some(_), Some(mount), Some(fstype)) = (fields.next(), fields.next(), fields.next())
        else {
            continue;
        };
        if dir.starts_with(mount) && best.as_ref().is_none_or(|(len, _)| mount.len() >= *len) {
            best = Some((mount.len(), fstype.to_string()));
        }
    }
    best.map_or_else(|| "unknown".to_string(), |(_, t)| t)
}

fn file_backend(dir: &Path, mode: DurabilityMode) -> Result<FileDb, String> {
    let _ = std::fs::remove_dir_all(dir);
    create_database(dir, cfg(), mode).map_err(|e| format!("create file backend: {e}"))
}

/// `{"p50_us":…,"p99_us":…,"count":…}` for one registered latency
/// histogram (values observed in nanoseconds).
fn histogram_json(db: &FileDb, name: &str) -> Json {
    // The histogram was registered by `create_database`; looking it up
    // with the same name returns that instance, bounds ignored.
    let h = db.metrics().histogram(name, &[1]);
    json_obj! {
        "p50_us": h.quantile(0.50) / 1e3,
        "p99_us": h.quantile(0.99) / 1e3,
        "count": h.count(),
    }
}

/// The disk traffic block a file backend reports: the counters `rda-disk`
/// exports as metric views, plus the fsync latency histogram.
fn queue_json(db: &FileDb) -> Json {
    let values: std::collections::BTreeMap<String, u64> =
        db.metrics().counter_values().into_iter().collect();
    let get = |key: &str| values.get(key).copied().unwrap_or(0);
    json_obj! {
        "enqueued": get("disk_writes_enqueued"),
        "barriers": get("disk_barriers"),
        "fsyncs": get("disk_fsyncs"),
        "sticky_errors": get("disk_sticky_errors"),
        "fsync": histogram_json(db, "disk_fsync_nanos"),
    }
}

fn run(args: &Args) -> Result<String, String> {
    let txns = if args.smoke { 60 } else { 400 };
    let host_cpus = std::thread::available_parallelism().map_or(1, std::num::NonZero::get);
    let base: PathBuf =
        std::env::var_os("RDA_BENCH_DIR").map_or_else(std::env::temp_dir, Into::into);
    let fs_type = fs_type_of(&base);

    let mut report = json_obj! {
        "bench": "pr9-backend",
        "smoke": args.smoke,
        "txns": txns,
        "pages_per_txn": PAGES_PER_TXN,
        "host": json_obj! {
            "cpus": host_cpus,
            "dir": base.display().to_string(),
            "fs_type": fs_type,
        },
        "sim": stats_json(&run_workload(&Database::open(cfg()), txns)?),
    };

    for (name, mode) in [
        ("file_fsync", DurabilityMode::FsyncOnBarrier),
        ("file_dsync", DurabilityMode::SyncEachWrite),
    ] {
        let dir = base.join(format!("rda-bench-backend-{name}-{}", std::process::id()));
        let db = file_backend(&dir, mode)?;
        let stats = run_workload(&db, txns)?;
        let queue = queue_json(&db);
        drop(db);
        let _ = std::fs::remove_dir_all(&dir);
        let mut section = stats_json(&stats);
        section.push("queue", queue);
        report.push(name, section);
    }
    Ok(format!("{report}\n"))
}

fn main() {
    let args = parse_args();
    match run(&args) {
        Ok(json) => {
            if let Err(e) = std::fs::write(&args.out, &json) {
                eprintln!("failed to write {}: {e}", args.out);
                std::process::exit(1);
            }
            print!("{json}");
            eprintln!("wrote {}", args.out);
        }
        Err(e) => {
            eprintln!("backend bench failed: {e}");
            std::process::exit(1);
        }
    }
}
