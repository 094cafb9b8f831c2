//! The command-line contract, checked on the real binary: argument
//! handling, the last-line JSON object, exit codes, and the traced run's
//! outputs. Uses `file-commit`, whose set-up is the cheapest, with a
//! fraction of a second of measurement.

use std::path::PathBuf;
use std::process::{Command, Output};

fn bench(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_rda-benchmark"))
        .args(args)
        .output()
        .expect("spawn rda-benchmark")
}

fn scratch(name: &str) -> PathBuf {
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(name);
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("scratch dir");
    dir
}

fn last_line(out: &Output) -> String {
    String::from_utf8_lossy(&out.stdout)
        .lines()
        .last()
        .unwrap_or("")
        .to_string()
}

/// Names after `kind` in `--list`, in order.
fn listed(kind: &str) -> Vec<String> {
    let out = bench(&["--list"]);
    assert!(out.status.success());
    String::from_utf8_lossy(&out.stdout)
        .lines()
        .filter(|l| l.starts_with(kind))
        .filter_map(|l| l.split_whitespace().nth(1).map(str::to_string))
        .collect()
}

#[test]
fn bad_arguments_exit_with_usage() {
    for args in [
        &[][..],
        &["--workload"],
        &["--workload", "no-such-workload"],
        &["--all", "--trace", "maybe"],
        &["--frobnicate"],
    ] {
        let out = bench(args);
        assert!(!out.status.success(), "{args:?} must fail");
        assert!(out.stdout.is_empty(), "{args:?} must print no result");
    }
}

#[test]
fn a_run_ends_with_the_result_object_and_checks_its_oracle() {
    // Databases go where the benchmark puts them by default (tmpfs where the
    // host has one: on a disk, real `fsync`s make this test take a minute).
    let run = |extra: &[&str]| {
        let mut args = vec![
            "--workload",
            "file-commit",
            "--seed",
            "7",
            "--seconds",
            "0.6",
            "--trace",
            "0",
        ];
        args.extend_from_slice(extra);
        bench(&args)
    };

    let good = run(&[]);
    let line = last_line(&good);
    assert!(
        good.status.success(),
        "{}",
        String::from_utf8_lossy(&good.stderr)
    );
    assert!(
        line.starts_with("{\"correct\": true, \"attempted\": "),
        "{line}"
    );
    assert!(line.contains("\"failed\": 0, \"metrics\": {"), "{line}");
    for name in listed("end_to_end") {
        assert!(
            line.contains(&format!("\"{name}\": {{\"value\": ")),
            "{name} in {line}"
        );
    }
    assert!(
        !line.contains("core."),
        "no per-layer metric with --trace 0"
    );
    let first = String::from_utf8_lossy(&good.stdout)
        .lines()
        .next()
        .unwrap_or("")
        .to_string();
    assert!(
        first.contains(" host_cpus ") && first.contains(" fs_type "),
        "{first}"
    );
    let dir = first
        .split(" dir ")
        .nth(1)
        .and_then(|rest| rest.split_whitespace().next())
        .expect("the first line names the directory");
    // Every end-to-end metric is a positive number.
    for part in line.split("{\"value\": ").skip(1) {
        let v: f64 = part
            .split(',')
            .next()
            .and_then(|v| v.parse().ok())
            .expect("a number");
        assert!(v > 0.0, "{line}");
    }

    // The same run with the oracle fed a stamp nobody committed.
    let bad = run(&["--break-oracle"]);
    assert!(!bad.status.success(), "a wrong stamp must fail the run");
    assert!(last_line(&bad).starts_with("{\"correct\": false, "));
    assert!(String::from_utf8_lossy(&bad.stdout).contains("problem: page 0:"));

    assert!(
        !std::path::Path::new(dir).exists(),
        "a run removes what it created"
    );
}

#[test]
fn a_traced_run_prints_every_layer_metric_and_writes_its_spans() {
    let dir = scratch("traced");
    let out_dir = dir.join("out");
    let out = bench(&[
        "--workload",
        "file-commit",
        "--seconds",
        "0.6",
        "--trace",
        "1",
        "--out",
        &out_dir.to_string_lossy(),
    ]);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let line = last_line(&out);
    let value = |name: &str| -> f64 {
        let at = line
            .find(&format!("\"{name}\": {{\"value\": "))
            .unwrap_or_else(|| panic!("{name} missing from {line}"));
        line[at..]
            .split("\"value\": ")
            .nth(1)
            .and_then(|v| v.split(',').next())
            .and_then(|v| v.parse().ok())
            .expect("a number")
    };
    for name in listed("per_layer") {
        // The traced part may happen to run faster than the untraced head.
        assert!(
            value(&name) >= 0.0 || name == "obs.trace_overhead_pct",
            "{name}"
        );
    }
    assert!(
        !line.contains("\"txns_per_s\""),
        "no end-to-end metric with --trace 1"
    );
    // The durable path did durable things, and the probes ran.
    for name in [
        "core.commit_ns",
        "core.write_ns",
        "disk.fsyncs_per_commit",
        "disk.writes_enqueued_per_commit",
        "disk.write_barrier_ns",
        "wal.bytes_per_commit",
        "array.xor_gib_per_s",
        "buffer.hit_ns",
    ] {
        assert!(value(name) > 0.0, "{name} = {}", value(name));
    }
    assert_eq!(value("core.restart_p50_ms"), 0.0, "not a restart workload");

    let spans = std::fs::read_to_string(out_dir.join("trace-file-commit.jsonl")).expect("trace");
    assert!(spans.lines().count() >= 10);
    assert!(spans
        .lines()
        .all(|l| l.starts_with("{\"id\":") && l.ends_with('}')));
    assert!(spans.contains("\"name\":\"txn\"") && spans.contains("\"name\":\"core.commit\""));
}
