//! The benchmark's vocabulary: workload and metric names, units, direction
//! and regression bounds. `BENCHMARK.json` at the repo root repeats these
//! names for the driver; a test keeps the two lists equal.

use std::fmt::Write as _;

pub struct Workload {
    pub name: &'static str,
    pub why: &'static str,
}

/// Later issues cite these names; they never change.
pub const WORKLOADS: &[Workload] = &[
    Workload {
        name: "sim-update",
        why: "hot set fits the buffer: locks, FORCE small-writes, XOR and WAL append do the work, rda-disk none",
    },
    Workload {
        name: "sim-read-mostly",
        why: "working set far above 300 frames: buffer misses, eviction, array reads and parity-riding steals dominate",
    },
    Workload {
        name: "sim-sharded-2t",
        why: "2 threads on overlapping keys: shard router, cross-shard 2PC, CommitGate and lock conflicts do the work",
    },
    Workload {
        name: "file-commit",
        why: "durable path end to end on one thread: write queues, journals and fsync barriers dominate, the gate is bypassed",
    },
    Workload {
        name: "file-commit-2t",
        why: "same durable path with group commit and 2 threads: the only place batching can amortise real barriers",
    },
    Workload {
        name: "file-restart",
        why: "SIGKILLed image reopened repeatedly: reopen, restart recovery and first commit, the second end-to-end number",
    },
];

pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub higher_is_better: bool,
    /// Share of the parent's median an end-to-end metric may worsen by.
    /// Per-layer metrics explain; they are not gated.
    pub bound: Option<f64>,
}

const fn gated(name: &'static str, unit: &'static str, higher: bool, bound: f64) -> Metric {
    Metric {
        name,
        unit,
        higher_is_better: higher,
        bound: Some(bound),
    }
}

const fn layer(name: &'static str, unit: &'static str, higher: bool) -> Metric {
    Metric {
        name,
        unit,
        higher_is_better: higher,
        bound: None,
    }
}

/// What a user of the engine sees, measured with tracing off. Every
/// workload reports every one of them; on `file-restart` the client waits
/// from `reopen_database` to its first commit's acknowledgement, and that
/// wait is the commit latency (README.md).
pub const END_TO_END: &[Metric] = &[
    gated("setup_s", "s", false, 0.25),
    gated("txns_per_s", "1/s", true, 0.25),
    gated("commit_p50_us", "us", false, 0.25),
    gated("commit_p99_us", "us", false, 0.25),
    gated("transfers_per_commit", "count", false, 0.02),
];

/// Where the time and the transfers went, from `--trace 1`. A metric that
/// does not exist on a workload (disk.* on the modeled array, recovery
/// phases outside `file-restart`) reads 0 there.
pub const PER_LAYER: &[Metric] = &[
    // rda-core: benchmark spans around the public calls, mean self time.
    layer("core.begin_ns", "ns", false),
    layer("core.read_ns", "ns", false),
    layer("core.write_ns", "ns", false),
    layer("core.commit_ns", "ns", false),
    layer("core.abort_ns", "ns", false),
    layer("core.access_p99_us", "us", false),
    // rda-core: exported instruments per committed transaction.
    layer("core.lock_wait_ns_per_commit", "ns", false),
    layer("core.lock_conflicts_per_commit", "count", false),
    layer("core.conflict_retry_share", "ratio", false),
    layer("core.cross_shard_commit_share", "ratio", false),
    layer("core.gate_batch_size_mean", "count", true),
    layer("core.log_force_ns_per_commit", "ns", false),
    layer("core.barrier_ns_per_commit", "ns", false),
    layer("core.log_forces_per_commit", "count", false),
    // rda-core: the paper's quantities, beside the model's prediction.
    layer("core.steals_parity_per_commit", "count", false),
    layer("core.steals_logged_per_commit", "count", false),
    layer("core.p_l_measured", "ratio", false),
    layer("core.undo_parity_per_abort", "count", false),
    layer("core.undo_log_per_abort", "count", false),
    layer("model.p_l_predicted", "ratio", false),
    layer("model.transfers_per_commit_predicted", "count", false),
    // rda-core: restart recovery, phase by phase (file-restart).
    layer("core.restart_p50_ms", "ms", false),
    layer("core.restart_p90_ms", "ms", false),
    layer("core.recover_ms", "ms", false),
    layer("core.recover.intent_replay_ms", "ms", false),
    layer("core.recover.bitmap_scan_ms", "ms", false),
    layer("core.recover.undo_parity_ms", "ms", false),
    layer("core.recover.undo_log_ms", "ms", false),
    layer("core.recover.redo_ms", "ms", false),
    layer("core.recover.pages_scanned", "count", false),
    layer("core.recover.losers", "count", false),
    layer("core.first_commit_ms", "ms", false),
    // rda-buffer.
    layer("buffer.hit_ratio", "ratio", true),
    layer("buffer.steals_per_commit", "count", false),
    layer("buffer.writebacks_per_commit", "count", false),
    layer("buffer.drops_per_commit", "count", false),
    layer("buffer.eviction_scans_per_miss", "count", false),
    layer("buffer.hit_ns", "ns", false),
    layer("buffer.miss_evict_ns", "ns", false),
    // rda-array.
    layer("array.reads_per_commit", "count", false),
    layer("array.writes_per_commit", "count", false),
    layer("array.device_reads_per_commit", "count", false),
    layer("array.device_writes_per_commit", "count", false),
    layer("array.device_ns_per_commit", "ns", false),
    layer("array.xor_gib_per_s", "GiB/s", true),
    layer("array.small_write_ns", "ns", false),
    layer("array.reconstruct_ns", "ns", false),
    // rda-wal.
    layer("wal.log_transfers_per_commit", "count", false),
    layer("wal.bytes_per_commit", "B", false),
    layer("wal.append_ns", "ns", false),
    layer("wal.force_ns", "ns", false),
    // rda-disk.
    layer("disk.writes_enqueued_per_commit", "count", false),
    layer("disk.coalesce_ratio", "ratio", true),
    layer("disk.batches_per_commit", "count", false),
    layer("disk.barriers_per_commit", "count", false),
    layer("disk.fsyncs_per_commit", "count", false),
    layer("disk.fsync_ns_per_commit", "ns", false),
    layer("disk.queue_residency_ns_per_write", "ns", false),
    layer("disk.queue_depth_hw", "count", false),
    layer("disk.sticky_errors", "count", false),
    layer("disk.journal_bytes_per_commit", "B", false),
    layer("disk.space_amp", "ratio", false),
    layer("disk.create_ms", "ms", false),
    layer("disk.reopen_ms", "ms", false),
    layer("disk.write_barrier_ns", "ns", false),
    // Attribution and the cost of looking.
    layer("core.unattributed_share", "ratio", false),
    layer("obs.trace_overhead_pct", "%", false),
    // The whole process.
    layer("peak_rss_mb", "MiB", false),
];

pub fn workload(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

/// `--list`: every name the benchmark prints, one per line, in the three
/// groups `BENCHMARK.json` has.
pub fn list() -> String {
    let mut out = String::new();
    for w in WORKLOADS {
        let _ = writeln!(out, "workload {} # {}", w.name, w.why);
    }
    for m in END_TO_END {
        let _ = writeln!(out, "end_to_end {} {}", m.name, m.unit);
    }
    for m in PER_LAYER {
        let _ = writeln!(out, "per_layer {} {}", m.name, m.unit);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    fn name_ok(s: &str) -> bool {
        !s.is_empty()
            && s.len() <= 64
            && s.starts_with(|c: char| c.is_ascii_alphanumeric())
            && s.chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
    }

    fn unit_ok(s: &str) -> bool {
        !s.is_empty()
            && s.len() <= 16
            && s.chars()
                .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
    }

    #[test]
    fn names_and_units_fit_the_contract() {
        let mut seen = BTreeSet::new();
        for w in WORKLOADS {
            assert!(name_ok(w.name), "{}", w.name);
            assert!(w.why.len() <= 200 && !w.why.contains('\n'), "{}", w.name);
            assert!(seen.insert(w.name), "duplicate {}", w.name);
        }
        for m in END_TO_END.iter().chain(PER_LAYER) {
            assert!(name_ok(m.name), "{}", m.name);
            assert!(unit_ok(m.unit), "{} unit {}", m.name, m.unit);
            assert!(seen.insert(m.name), "duplicate {}", m.name);
        }
        for m in END_TO_END {
            let b = m.bound.unwrap_or(f64::NAN);
            assert!(b > 0.0 && b <= 0.25, "{} bound {b}", m.name);
        }
        assert!(PER_LAYER.iter().all(|m| m.bound.is_none()));
        assert!((2..=8).contains(&WORKLOADS.len()));
        assert!(END_TO_END.len() <= 16 && PER_LAYER.len() <= 128);
        let setup = END_TO_END.iter().find(|m| m.name == "setup_s");
        assert!(setup.is_some_and(|m| m.unit == "s" && !m.higher_is_better));
    }

    /// Every `"name": "…"` in one top-level array of BENCHMARK.json, by a
    /// scan that is enough for a file this benchmark's authors write.
    fn json_names(doc: &str, key: &str) -> Vec<String> {
        let start = doc.find(&format!("\"{key}\"")).expect("key present");
        let body = &doc[start..];
        let end = body.find(']').expect("array closes");
        body[..end]
            .split("\"name\"")
            .skip(1)
            .map(|rest| {
                let rest = &rest[rest.find('"').expect("value opens") + 1..];
                rest[..rest.find('"').expect("value closes")].to_string()
            })
            .collect()
    }

    #[test]
    fn list_equals_benchmark_json() {
        let doc = include_str!("../../BENCHMARK.json");
        let names = |ms: &[Metric]| ms.iter().map(|m| m.name.to_string()).collect::<Vec<_>>();
        let workloads: Vec<String> = WORKLOADS.iter().map(|w| w.name.to_string()).collect();
        assert_eq!(json_names(doc, "workloads"), workloads);
        assert_eq!(json_names(doc, "end_to_end"), names(END_TO_END));
        assert_eq!(json_names(doc, "per_layer"), names(PER_LAYER));
        // And `--list` prints exactly those names, in that order.
        let listed: Vec<String> = list()
            .lines()
            .filter_map(|l| l.split_whitespace().nth(1).map(str::to_string))
            .collect();
        let mut all = workloads;
        all.extend(names(END_TO_END));
        all.extend(names(PER_LAYER));
        assert_eq!(listed, all);
        // Bounds and directions agree too.
        for m in END_TO_END {
            let at = doc
                .find(&format!("\"{}\"", m.name))
                .expect("metric present");
            let entry = &doc[at..at + doc[at..].find('}').expect("entry closes")];
            let better = if m.higher_is_better {
                "higher"
            } else {
                "lower"
            };
            assert!(entry.contains(&format!("\"{better}\"")), "{}", m.name);
            let bound = m.bound.expect("end-to-end metrics are bounded");
            assert!(entry.contains(&format!("\"bound\": {bound}")), "{}", m.name);
        }
    }
}
