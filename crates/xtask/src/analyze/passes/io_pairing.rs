//! Billed-I/O pairing pass.
//!
//! Two rules, both driven by `analyze.conf`:
//!
//! * `iopair` — in the declared file, any fn whose receiver chains reach
//!   a physical disk primitive (`read`/`write`/`read_xor_into` through a
//!   `disk`/`disks` receiver) must also call every billing hook
//!   (`record_on` for the stats ledger, `record_io` for the trace) in
//!   the same fn. The paper's recovery-cost model is only as good as
//!   the I/O accounting, so an unbilled physical access is a finding.
//! * `tracepair` — the single-witness rule carried over from the old
//!   text lint: each listed protocol fn must reference its
//!   `EventKind::<variant>` exactly once, so crash-schedule replay can
//!   key on one trace record per transition.

use crate::analyze::callgraph::Workspace;
use crate::analyze::config::Config;
use crate::analyze::findings::Finding;
use crate::analyze::lexer::TokKind;
use crate::analyze::parse::{CallKind, FlatTok, FnItem};

pub fn run(ws: &Workspace, cfg: &Config) -> Vec<Finding> {
    let mut findings = Vec::new();

    for pair in &cfg.io_pairs {
        let Some(file) = ws.files.iter().find(|f| f.rel_path == pair.file) else {
            findings.push(Finding::new(
                "io-pairing",
                "missing-file",
                &pair.file,
                0,
                "missing-file",
                format!("iopair file `{}` not found in the workspace", pair.file),
            ));
            continue;
        };
        for f in &file.fns {
            let phys_line = f.calls.iter().find_map(|c| {
                // `recv` names a receiver-chain segment of a method call,
                // or a path segment of a path call (`fs` in
                // `std::fs::rename(..)`).
                let through_recv = match &c.kind {
                    CallKind::Path(segs) => segs.iter().any(|s| pair.recv.contains(s)),
                    _ => c.recv.iter().any(|s| pair.recv.contains(&s.name)),
                };
                (pair.phys.contains(&c.method) && through_recv).then_some(c.line)
            });
            let Some(line) = phys_line else { continue };
            let missing: Vec<&str> = pair
                .bill
                .iter()
                .filter(|b| !f.calls.iter().any(|c| c.method == **b))
                .map(String::as_str)
                .collect();
            if !missing.is_empty() {
                findings.push(Finding::new(
                    "io-pairing",
                    "unbilled-io",
                    &file.rel_path,
                    line,
                    &format!("fn-{}", f.name),
                    format!(
                        "fn `{}` performs physical I/O but never calls {}",
                        f.name,
                        missing.join(", ")
                    ),
                ));
            }
        }
    }

    for pair in &cfg.trace_pairs {
        let Some(file) = ws.files.iter().find(|f| f.rel_path == pair.file) else {
            findings.push(Finding::new(
                "io-pairing",
                "missing-file",
                &pair.file,
                0,
                &format!("missing-file-{}", pair.func),
                format!("tracepair file `{}` not found in the workspace", pair.file),
            ));
            continue;
        };
        let Some(f) = file.fns.iter().find(|f| f.name == pair.func) else {
            findings.push(Finding::new(
                "io-pairing",
                "missing-fn",
                &file.rel_path,
                0,
                &format!("missing-fn-{}", pair.func),
                format!("tracepair fn `{}` not found in `{}`", pair.func, pair.file),
            ));
            continue;
        };
        let count = count_event_refs(f, &pair.event);
        if count != 1 {
            findings.push(Finding::new(
                "io-pairing",
                "trace-pairing",
                &file.rel_path,
                f.line,
                &format!("fn-{}-{}", pair.func, pair.event),
                format!(
                    "fn `{}` references `EventKind::{}` {count} times (expected exactly 1 — \
                     one trace witness per protocol transition)",
                    pair.func, pair.event
                ),
            ));
        }
    }

    findings
}

/// Occurrences of `EventKind :: <variant>` in a fn body.
fn count_event_refs(f: &FnItem, variant: &str) -> usize {
    let mut count = 0;
    for i in 0..f.body.len() {
        let FlatTok::Tok(t) = &f.body[i] else {
            continue;
        };
        if !t.is_ident("EventKind") {
            continue;
        }
        let (Some(FlatTok::Tok(c1)), Some(FlatTok::Tok(c2)), Some(FlatTok::Tok(v))) =
            (f.body.get(i + 1), f.body.get(i + 2), f.body.get(i + 3))
        else {
            continue;
        };
        if c1.is_punct(':') && c2.is_punct(':') && v.kind == TokKind::Ident && v.text == variant {
            count += 1;
        }
    }
    count
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::analyze::config::{IoPair, TracePair};

    fn cfg_io() -> Config {
        let mut cfg = Config::default();
        cfg.io_pairs.push(IoPair {
            file: "crates/array/src/array.rs".to_string(),
            phys: vec!["read".to_string(), "write".to_string()],
            recv: vec!["disk".to_string(), "disks".to_string()],
            bill: vec!["record_on".to_string(), "record_io".to_string()],
        });
        cfg
    }

    #[test]
    fn unbilled_physical_io_is_flagged() {
        let w = Workspace::of(&[(
            "crates/array/src/array.rs",
            "
            struct DiskArray { disks: Vec<SimDisk> }
            impl DiskArray {
                fn billed(&self, b: &mut [u8]) {
                    self.disk(0).read(b);
                    self.stats.record_on(1);
                    self.tracer.record_io(2);
                }
                fn sneaky(&self, b: &mut [u8]) {
                    self.disk(0).read(b);
                    self.stats.record_on(1);
                }
                fn logical(&self) { self.cache.read(7); }
                fn disk(&self, d: usize) -> &SimDisk { &self.disks[d] }
            }
            ",
        )]);
        let fs = run(&w, &cfg_io());
        assert_eq!(fs.len(), 1, "{fs:?}");
        assert_eq!(fs[0].code, "unbilled-io");
        assert_eq!(fs[0].key, "io-pairing:crates/array/src/array.rs:fn-sneaky");
        assert!(fs[0].message.contains("record_io"));
    }

    #[test]
    fn trace_pair_requires_exactly_one_witness() {
        let mut cfg = Config::default();
        for func in ["commit", "double", "absent"] {
            cfg.trace_pairs.push(TracePair {
                file: "crates/core/src/engine.rs".to_string(),
                func: func.to_string(),
                event: "CommitTwinFlip".to_string(),
            });
        }
        let w = Workspace::of(&[(
            "crates/core/src/engine.rs",
            "
            fn commit(t: &Tracer) { t.record(EventKind::CommitTwinFlip { txn: 1 }); }
            fn double(t: &Tracer) {
                t.record(EventKind::CommitTwinFlip { txn: 1 });
                t.record(EventKind::CommitTwinFlip { txn: 2 });
            }
            ",
        )]);
        let fs = run(&w, &cfg);
        assert_eq!(fs.len(), 2, "{fs:?}");
        assert!(fs
            .iter()
            .any(|f| f.code == "trace-pairing" && f.message.contains("2 times")));
        assert!(fs
            .iter()
            .any(|f| f.code == "missing-fn" && f.message.contains("absent")));
    }

    #[test]
    fn missing_iopair_file_is_reported_not_ignored() {
        let w = Workspace::of(&[]);
        let fs = run(&w, &cfg_io());
        assert_eq!(fs.len(), 1);
        assert_eq!(fs[0].code, "missing-file");
    }
}
