//! `obs_serve`: a live observability export endpoint over a running
//! file-backed database.
//!
//! Spins up a small continuous commit workload (trace ring, commit-path
//! spans and the crash-persistent flight recorder all on) and serves
//! its observability surface over a minimal, std-only HTTP/1.1
//! listener — no web framework, one connection at a time:
//!
//! * `GET /metrics` — Prometheus text exposition of every counter,
//!   view and latency histogram;
//! * `GET /trace` — the live event ring as JSON (events rendered in the
//!   tracer's display form, plus drop count and the billed-I/O clock);
//! * `GET /flightrecord` — the newest black-box snapshot decoded back
//!   out of `obs.journal`, i.e. what a post-crash recovery would see;
//! * `GET /locks` — the most lock-contended pages;
//! * `GET /` — a plain-text index of the above.
//!
//! Run with: `cargo run --release -p rda-bench --bin obs_serve -- --port 7199`
//! The bound address is printed on one line (`obs_serve listening on
//! http://…`) so scripts can scrape an ephemeral `--port 0`.

use rda_core::{DbConfig, EngineKind};
use rda_disk::{create_database, DurabilityMode, FileDb, FlightRecorder};
use rda_obs::json::{Json, ToJson};
use rda_obs::json_obj;
use std::io::{BufRead, BufReader, Write as _};
use std::net::{TcpListener, TcpStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

struct Args {
    port: u16,
    /// Serve this many requests then exit (0 = forever). Lets the CI
    /// smoke step scrape and terminate without signal games.
    requests: u64,
}

fn parse_args() -> Args {
    let mut args = Args {
        port: 0,
        requests: 0,
    };
    let mut argv = std::env::args().skip(1);
    while let Some(arg) = argv.next() {
        let (key, value) = match arg.split_once('=') {
            Some((k, v)) => (k.to_string(), Some(v.to_string())),
            None => (arg.clone(), argv.next()),
        };
        let parsed = value.and_then(|v| v.parse::<u64>().ok());
        match (key.as_str(), parsed) {
            ("--port", Some(v)) if u16::try_from(v).is_ok() => args.port = v as u16,
            ("--requests", Some(v)) => args.requests = v,
            _ => usage(&arg),
        }
    }
    args
}

fn usage(offender: &str) -> ! {
    eprintln!("usage: obs_serve [--port N] [--requests N]   (bad arg: {offender})");
    std::process::exit(2);
}

/// The continuous workload the endpoints observe: three-page commits
/// with a short breather, forever.
fn run_workload(db: &FileDb, stop: &AtomicBool) {
    let mut i: u64 = 1;
    // ordering: Relaxed — a plain stop flag; no data is published through it.
    while !stop.load(Ordering::Relaxed) {
        let mut tx = db.begin();
        for j in 0..3u32 {
            let page = (i as u32 * 3 + j) % 16;
            if tx.write(page, &i.to_le_bytes()).is_err() {
                return;
            }
        }
        if tx.commit().is_err() {
            return;
        }
        i += 1;
        std::thread::sleep(Duration::from_millis(5));
    }
}

fn respond(stream: &mut TcpStream, status: &str, content_type: &str, body: &str) {
    let _ = write!(
        stream,
        "HTTP/1.1 {status}\r\nContent-Type: {content_type}\r\n\
         Content-Length: {}\r\nConnection: close\r\n\r\n{body}",
        body.len()
    );
    let _ = stream.flush();
}

/// Serve one connection: parse the request line, drain the headers,
/// dispatch on the path.
fn serve(stream: &mut TcpStream, db: &FileDb, dir: &std::path::Path) {
    let _ = stream.set_read_timeout(Some(Duration::from_secs(5)));
    let Ok(reading_half) = stream.try_clone() else {
        return;
    };
    let mut reader = BufReader::new(reading_half);
    let mut request_line = String::new();
    if reader.read_line(&mut request_line).is_err() {
        return;
    }
    let mut header = String::new();
    while reader.read_line(&mut header).is_ok() && header.trim() != "" {
        header.clear();
    }
    let path = request_line.split_whitespace().nth(1).unwrap_or("/");
    let json = |stream: &mut TcpStream, status: &str, body: Json| {
        respond(stream, status, "application/json", &body.to_string());
    };
    match path {
        "/metrics" => respond(
            stream,
            "200 OK",
            "text/plain; version=0.0.4",
            &db.metrics().to_prometheus(),
        ),
        // The live ring, rendered through the same JSON shape the black
        // box persists (flush_seq 0 marks it as unpersisted).
        "/trace" => json(stream, "200 OK", db.obs().flight_record(0).to_json()),
        "/flightrecord" => match FlightRecorder::load(dir) {
            Some(record) => json(stream, "200 OK", record.to_json()),
            None => json(
                stream,
                "404 Not Found",
                json_obj! { "error": "no flight record persisted yet" },
            ),
        },
        "/locks" => json(stream, "200 OK", db.obs().locks.top_contended_json(10)),
        "/" => respond(
            stream,
            "200 OK",
            "text/plain",
            "obs_serve endpoints:\n  /metrics\n  /trace\n  /flightrecord\n  /locks\n",
        ),
        _ => respond(stream, "404 Not Found", "text/plain", "not found\n"),
    }
}

fn main() {
    let args = parse_args();
    let dir: PathBuf = std::env::temp_dir().join(format!("rda-obs-serve-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let cfg = DbConfig::small_test(EngineKind::Rda)
        .trace(1024)
        .spans(true);
    let db = match create_database(&dir, cfg, DurabilityMode::FsyncOnBarrier) {
        Ok(db) => Arc::new(db),
        Err(e) => {
            eprintln!(
                "obs_serve: cannot create database in {}: {e}",
                dir.display()
            );
            std::process::exit(1);
        }
    };
    let stop = Arc::new(AtomicBool::new(false));
    let worker = {
        let db = Arc::clone(&db);
        let stop = Arc::clone(&stop);
        std::thread::spawn(move || run_workload(&db, &stop))
    };

    let listener = match TcpListener::bind(("127.0.0.1", args.port)) {
        Ok(l) => l,
        Err(e) => {
            eprintln!("obs_serve: cannot bind 127.0.0.1:{}: {e}", args.port);
            std::process::exit(1);
        }
    };
    match listener.local_addr() {
        Ok(addr) => println!("obs_serve listening on http://{addr}"),
        Err(e) => eprintln!("obs_serve: local_addr unavailable: {e}"),
    }

    let mut served = 0u64;
    for stream in listener.incoming() {
        match stream {
            Ok(mut stream) => serve(&mut stream, &db, &dir),
            Err(e) => eprintln!("obs_serve: accept failed: {e}"),
        }
        served += 1;
        if args.requests != 0 && served >= args.requests {
            break;
        }
    }

    // ordering: Relaxed — see run_workload.
    stop.store(true, Ordering::Relaxed);
    let _ = worker.join();
    drop(db);
    let _ = std::fs::remove_dir_all(&dir);
}
