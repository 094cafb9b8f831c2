//! `file-restart`: SIGKILL → first commit, on a fixed crash image.
//!
//! Set-up builds the image with a child process of this same program
//! (`--crash-child DIR`): it commits [`COMMITTED`] `file-commit`-shaped
//! transactions, acknowledging each in a file after `commit()` returned,
//! leaves [`LOSERS`] transactions in flight that together have written more
//! pages than the buffer has frames (so uncommitted pages were stolen onto
//! parity), prints `READY` and blocks until the parent kills it. Each
//! measured cycle copies the image to a fresh directory and times
//! `reopen_database` + `recover()` + one 8-page transaction up to the
//! return of `commit()`; outside the timed region it checks every
//! acknowledged stamp, every loser page and the audit.
//!
//! SIGKILL keeps the OS page cache, so this is process-crash durability.

use crate::drive::{counters, stamp, Engine, Oracle};
use crate::gen::{Op, Script, Shape};
use crate::stats::{median_f64, tail, Rng};
use crate::trace::{self, now_ns};
use crate::workloads::{paper_cfg, ratio, FRAMES, PAGES, SETUPS};
use crate::{probes, sys, Opts, Report};
use rda_core::RecoveryPhase;
use rda_disk::{create_database, reopen_database, DurabilityMode, FileDb};
use std::collections::BTreeMap;
use std::io::{BufRead, BufReader, Write};
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};
use std::time::Instant;

/// Committed history in the image: journal for reopen to replay.
const COMMITTED: u64 = 2000;
const LOSERS: u64 = 6;
/// Pages each loser wrote before the kill: 6 × 60 = 360 > 300 frames.
const LOSER_PAGES: u64 = 60;
/// Lane id in loser stamps, so they can never equal a committed stamp.
const LOSER_LANE: u64 = 9;
const _: () = assert!(LOSERS * LOSER_PAGES > FRAMES as u64);

/// Loser `l`'s `k`-th page: residue `l` mod 6 keeps losers off each other's
/// locks, the stride spreads each over many parity groups.
fn loser_page(l: u64, k: u64) -> u32 {
    (LOSERS * (k * 13 % 800) + l) as u32
}

fn acks_path(image: &Path) -> PathBuf {
    image.with_extension("acks")
}

/// One committed transaction of the image's history, or the cycle's own.
fn write_txn(db: &FileDb, script: &Script, txn: u64) -> Result<(), String> {
    let mut tx = db.begin();
    for (j, op) in script.ops.iter().enumerate() {
        if let Op::Write(page) = op {
            tx.write(*page, &stamp(0, txn, j).to_le_bytes())
                .map_err(|e| format!("txn {txn} write: {e}"))?;
        }
    }
    tx.commit().map_err(|e| format!("txn {txn} commit: {e}"))?;
    Ok(())
}

/// Body of `--crash-child DIR`: never returns normally once `READY` is out.
pub fn crash_child(dir: &Path, seed: u64) -> Result<(), String> {
    let db = create_database(dir, paper_cfg(), DurabilityMode::FsyncOnBarrier)
        .map_err(|e| format!("create {}: {e}", dir.display()))?;
    let mut acks = std::fs::File::create(acks_path(dir)).map_err(|e| format!("acks: {e}"))?;
    let mut shape = Shape::strided(PAGES, 0, 1).starting_at(0);
    let mut rng = Rng::new(seed, 0);
    let mut script = Script::default();
    for txn in 0..COMMITTED {
        shape.fill(&mut rng, &mut script);
        write_txn(&db, &script, txn)?;
        writeln!(acks, "{txn}").map_err(|e| format!("ack {txn}: {e}"))?;
    }
    acks.flush().map_err(|e| format!("acks: {e}"))?;
    let mut losers: Vec<_> = (0..LOSERS).map(|_| db.begin()).collect();
    for k in 0..LOSER_PAGES {
        for (l, tx) in losers.iter_mut().enumerate() {
            let l = l as u64;
            tx.write(
                loser_page(l, k),
                &stamp(LOSER_LANE, l, k as usize).to_le_bytes(),
            )
            .map_err(|e| format!("loser {l} write {k}: {e}"))?;
        }
    }
    println!("READY");
    std::io::stdout()
        .flush()
        .map_err(|e| format!("stdout: {e}"))?;
    // Block until SIGKILL. If the parent vanished instead, stdin closes.
    let mut line = String::new();
    let _ = std::io::stdin().read_line(&mut line);
    // Not killed: die without destructors, still a crash for the files.
    std::process::exit(3);
}

/// A crash image and what was acknowledged before the kill.
struct Image {
    dir: PathBuf,
    acked: u64,
}

fn build_image(opts: &Opts, n: usize) -> Result<Image, String> {
    let dir = opts.dir.join(format!("image-{n}"));
    let _ = std::fs::remove_dir_all(&dir);
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let mut child = Command::new(exe);
    child
        .arg("--crash-child")
        .arg(&dir)
        .arg("--seed")
        .arg(opts.seed.to_string());
    let mut child = child
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .spawn()
        .map_err(|e| format!("spawn crash child: {e}"))?;
    let ready = child.stdout.take().is_some_and(|out| {
        BufReader::new(out)
            .lines()
            .map_while(Result::ok)
            .any(|l| l.trim() == "READY")
    });
    // SIGKILL, then reap: no process of ours outlives the run.
    let _ = child.kill();
    let _ = child.wait();
    if !ready {
        return Err("crash child ended before READY".to_string());
    }
    let acked = std::fs::read_to_string(acks_path(&dir))
        .map_err(|e| format!("read acks: {e}"))?
        .lines()
        .count() as u64;
    Ok(Image { dir, acked })
}

fn remove_image(image: &Image) {
    let _ = std::fs::remove_dir_all(&image.dir);
    let _ = std::fs::remove_file(acks_path(&image.dir));
}

/// Wall-clock of the phases of one cycle, nanoseconds.
#[derive(Default)]
struct Cycle {
    restart: Vec<f64>,
    reopen: Vec<f64>,
    recover: Vec<f64>,
    first_commit: Vec<f64>,
    timeline: BTreeMap<&'static str, Vec<f64>>,
    pages_scanned: Vec<f64>,
    losers: Vec<f64>,
    /// Time inside each `write()` of the first transaction.
    access: Vec<u32>,
}

pub fn file_restart(opts: &Opts) -> Result<Report, String> {
    let mut setups = Vec::new();
    let mut image: Option<Image> = None;
    for n in 0..SETUPS {
        if let Some(old) = image.take() {
            remove_image(&old);
        }
        let t = Instant::now();
        image = Some(build_image(opts, n)?);
        setups.push(t.elapsed().as_secs_f64());
    }
    let Some(image) = image else {
        return Err("no image built".to_string());
    };
    let mut report = Report::new("file-restart");
    if image.acked != COMMITTED {
        report.failed += 1;
        report.problems.push(format!(
            "image acknowledges {} commits, expected {COMMITTED}",
            image.acked
        ));
    }

    // What the files must hold after recovery: the acknowledged history,
    // replayed here from the same seed the child drew from.
    let mut expected = Oracle::new(PAGES);
    let mut shape = Shape::strided(PAGES, 0, 1).starting_at(0);
    let mut rng = Rng::new(opts.seed, 0);
    let mut script = Script::default();
    for txn in 0..image.acked {
        shape.fill(&mut rng, &mut script);
        for (j, op) in script.ops.iter().enumerate() {
            if let Op::Write(page) = op {
                expected.committed(*page, txn * 8 + j as u64 + 1, stamp(0, txn, j));
            }
        }
    }
    // The transaction every cycle commits first: the next one of the history.
    shape.fill(&mut rng, &mut script);
    let first_txn = image.acked;
    let mut after = expected.clone();
    for (j, op) in script.ops.iter().enumerate() {
        if let Op::Write(page) = op {
            after.committed(*page, u64::MAX, stamp(0, first_txn, j));
        }
    }

    let cfg = paper_cfg();
    let work = opts.dir.join("restart-work");
    let mut cycles = Cycle::default();
    let mut totals: BTreeMap<String, u64> = BTreeMap::new();
    trace::set_enabled(opts.trace);
    let deadline = now_ns() + (opts.seconds * 1e9) as u64;
    let mut n = 0u64;
    while now_ns() < deadline {
        let _ = std::fs::remove_dir_all(&work);
        sys::copy_dir(&image.dir, &work).map_err(|e| format!("copy image: {e}"))?;
        report.attempted += 1;
        // Every cycle keeps its spans: there are few of them.
        let id = n * trace::SPAN_SAMPLE_EVERY;
        let root = trace::txn_start();

        let dev = trace::call_start(id, root);
        let t0 = now_ns();
        let db = reopen_database(&work, cfg.clone(), DurabilityMode::FsyncOnBarrier)
            .map_err(|e| format!("cycle {n} reopen: {e}"))?;
        let t1 = now_ns();
        trace::call_end("disk.reopen", dev, t0, t1);

        let dev = trace::call_start(id, root);
        let recovery = db
            .recover()
            .map_err(|e| format!("cycle {n} recover: {e}"))?;
        let t2 = now_ns();
        trace::call_end("core.recover", dev, t1, t2);

        let dev = trace::call_start(id, root);
        let mut tx = db.begin();
        let mut t3 = now_ns();
        for (j, op) in script.ops.iter().enumerate() {
            if let Op::Write(page) = op {
                tx.write(*page, &stamp(0, first_txn, j).to_le_bytes())
                    .map_err(|e| format!("cycle {n} write: {e}"))?;
                let now = now_ns();
                cycles.access.push((now - t3) as u32);
                t3 = now;
            }
        }
        trace::call_end("core.write", dev, t2, t3);
        let dev = trace::call_start(id, root);
        tx.commit().map_err(|e| format!("cycle {n} commit: {e}"))?;
        let t4 = now_ns();
        trace::call_end("core.commit", dev, t3, t4);
        trace::txn_end(id, root, t0, t4);

        cycles.restart.push((t4 - t0) as f64);
        cycles.reopen.push((t1 - t0) as f64);
        cycles.recover.push((t2 - t1) as f64);
        cycles.first_commit.push((t4 - t2) as f64);
        for p in &recovery.timeline.phases {
            cycles
                .timeline
                .entry(p.phase.name())
                .or_default()
                .push(p.wall.as_nanos() as f64);
        }
        cycles.pages_scanned.push(recovery.pages_scanned as f64);
        cycles.losers.push(recovery.losers.len() as f64);
        for (k, v) in counters(&db) {
            *totals.entry(k).or_default() += v;
        }

        // Outside the timed region: nothing acknowledged was lost, nothing
        // uncommitted survived, and the engine's own audit agrees.
        let mut wrong = match db.state_dump() {
            Ok(dump) => after.mismatches(&dump),
            Err(e) => vec![format!("state dump failed: {e}")],
        };
        match db.findings() {
            Ok(found) => wrong.extend(found),
            Err(e) => wrong.push(format!("scrub failed: {e}")),
        }
        if recovery.losers.len() as u64 != LOSERS {
            wrong.push(format!(
                "recovery found {} losers, the image has {LOSERS}",
                recovery.losers.len()
            ));
        }
        if !wrong.is_empty() {
            report.failed += 1;
            if report.problems.len() < 8 {
                report.problems.push(format!("cycle {n}: {}", wrong[0]));
            }
        }
        drop(db);
        n += 1;
    }
    let rec = trace::take();
    let _ = std::fs::remove_dir_all(&work);

    let ms = |v: &[f64]| median_f64(v) / 1e6;
    let cycles_run = cycles.restart.len() as f64;
    let mut restart_us: Vec<u32> = cycles.restart.iter().map(|ns| (ns / 1e3) as u32).collect();
    restart_us.sort_unstable();
    cycles.access.sort_unstable();
    report.set("setup_s", median_f64(&setups));
    report.note("setup_runs_s", format!("{setups:?}"));
    // The client here waits from the start of `reopen_database` to the
    // acknowledgement of its first commit: that is the commit latency, and
    // the rate is restarts per second of such waiting.
    report.set(
        "txns_per_s",
        ratio(cycles_run * 1e9, cycles.restart.iter().sum()),
    );
    report.set("commit_p50_us", tail(&restart_us, 0.50).0);
    let (p99, q) = tail(&restart_us, 0.99);
    report.set("commit_p99_us", p99);
    let total = |name: &str| totals.get(name).copied().unwrap_or(0) as f64;
    report.set(
        "transfers_per_commit",
        ratio(
            total("array_reads_total")
                + total("array_writes_total")
                + total("log_reads_total")
                + total("log_writes_total"),
            cycles_run,
        ),
    );
    report.note("cycles", format!("{cycles_run}"));
    report.note("commit_tail_quantile", format!("{q:.4}"));

    if opts.trace {
        report.set("core.access_p99_us", tail(&cycles.access, 0.99).0 / 1e3);
        report.set("core.restart_p50_ms", tail(&restart_us, 0.50).0 / 1e3);
        report.set("core.restart_p90_ms", tail(&restart_us, 0.90).0 / 1e3);
        report.set("core.recover_ms", ms(&cycles.recover));
        report.set("core.first_commit_ms", ms(&cycles.first_commit));
        report.set("disk.reopen_ms", ms(&cycles.reopen));
        for (metric, phase) in [
            ("core.recover.intent_replay_ms", RecoveryPhase::IntentReplay),
            ("core.recover.bitmap_scan_ms", RecoveryPhase::BitmapScan),
            ("core.recover.undo_parity_ms", RecoveryPhase::UndoParity),
            ("core.recover.undo_log_ms", RecoveryPhase::UndoLog),
            ("core.recover.redo_ms", RecoveryPhase::Redo),
        ] {
            let walls = cycles.timeline.get(phase.name());
            report.set(metric, walls.map_or(0.0, |w| ms(w.as_slice())));
        }
        report.set(
            "core.recover.pages_scanned",
            median_f64(&cycles.pages_scanned),
        );
        report.set("core.recover.losers", median_f64(&cycles.losers));
        report.set(
            "core.commit_ns",
            rec.calls
                .get("core.commit")
                .map_or(0.0, crate::trace::CallTotals::self_ns_mean),
        );
        report.set(
            "core.write_ns",
            rec.calls
                .get("core.write")
                .map_or(0.0, |c| c.self_ns_mean() / 8.0),
        );
        for (metric, counter) in [
            ("disk.fsyncs_per_commit", "disk_fsyncs"),
            ("disk.barriers_per_commit", "disk_barriers"),
            ("disk.writes_enqueued_per_commit", "disk_writes_enqueued"),
            ("disk.batches_per_commit", "disk_write_batches"),
            ("disk.fsync_ns_per_commit", "disk_fsync_nanos.sum"),
            ("array.reads_per_commit", "array_reads_total"),
            ("array.writes_per_commit", "array_writes_total"),
            ("core.undo_parity_per_abort", "engine_undo_parity_total"),
            ("core.undo_log_per_abort", "engine_undo_log_total"),
        ] {
            let per = if metric.ends_with("per_abort") {
                cycles_run * LOSERS as f64
            } else {
                cycles_run
            };
            report.set(metric, ratio(total(counter), per));
        }
        report.set("disk.sticky_errors", total("disk_sticky_errors"));
        let logical = f64::from(PAGES) * cfg.array.page_size as f64;
        report.set(
            "disk.space_amp",
            ratio(sys::dir_bytes(&image.dir) as f64, logical),
        );
        probes::disk(&mut report, &opts.dir)?;
        probes::kernels(&mut report);
        report.trace = Some(rec.jsonl());
    }
    report.set("peak_rss_mb", sys::peak_rss_mb());
    remove_image(&image);
    Ok(report)
}
