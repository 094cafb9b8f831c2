//! `cargo xtask analyze` — rda-analyze, the pass-based concurrency
//! static-analysis framework.
//!
//! The pipeline: the workspace source model ([`crate::source`]) lexes
//! every workspace source with [`lexer`] and marks its test code,
//! [`parse`] builds token trees and a per-file item index (structs + fields,
//! impl methods, call sites), [`callgraph`] assembles a workspace index
//! with typed receiver resolution and a conservative call-graph
//! approximation, and the [`passes`] run over that:
//!
//! * `lock-order` — global lock-acquisition-order graph, cycle = finding;
//! * `atomics` — every `Ordering::` site justified and Release/Acquire
//!   pairs closed.
//!
//! Lock managers whose acquire is not a literal `.lock()` are declared in
//! `crates/xtask/analyze.conf` ([`config`]); accepted findings live in
//! `crates/xtask/analyze-baseline.txt` with mandatory justifications
//! ([`findings`]). Unbaselined findings — and stale baseline entries —
//! fail the gate. `--json PATH` writes the findings artifact CI uploads.

pub mod callgraph;
pub mod config;
pub mod findings;
pub mod lexer;
pub mod parse;
pub mod passes;

use std::path::Path;

use callgraph::Workspace;
use config::Config;
use findings::{Baseline, Finding};

/// Workspace-relative path of the invariant declarations.
pub const CONFIG_FILE: &str = "crates/xtask/analyze.conf";

const PASSES: &[&str] = &["lock-order", "atomics"];

/// Run the analyze gate; `json_path` optionally receives the artifact.
///
/// # Errors
/// The formatted report when unbaselined findings (or stale baseline
/// entries) remain, or a setup message when the workspace, config, or
/// baseline cannot be read.
pub fn run(json_path: Option<&str>) -> Result<(), String> {
    let root = crate::source::workspace_root()?;
    let files = crate::source::load(&root)?;
    let ws = Workspace::build(files.iter().map(parse::FileIndex::build).collect());
    let cfg = load_config(&root)?;
    let baseline = Baseline::load(&root)?;

    let mut all: Vec<Finding> = Vec::new();
    all.extend(passes::lock_order::run(&ws, &cfg));
    all.extend(passes::atomics::run(&ws));
    all.extend(cfg.unresolved(&ws));
    all.sort_by(|a, b| (&a.file, a.line, &a.key).cmp(&(&b.file, b.line, &b.key)));

    if let Some(path) = json_path {
        let json = findings::to_json(&all, &baseline, PASSES);
        std::fs::write(path, json).map_err(|e| format!("cannot write {path}: {e}"))?;
        println!("wrote findings artifact to {path}");
    }

    let mut report = Vec::new();
    let mut baselined = 0usize;
    for f in &all {
        match baseline.entries.get(&f.key) {
            Some(why) => {
                baselined += 1;
                println!(
                    "baselined: {}:{}: [{}/{}] {} — {}",
                    f.file, f.line, f.pass, f.code, f.message, why
                );
            }
            None => report.push(format!(
                "{}:{}: [{}/{}] {}\n    baseline key: {}",
                f.file, f.line, f.pass, f.code, f.message, f.key
            )),
        }
    }
    // A baseline entry matching nothing is stale: the finding was fixed
    // (delete the entry) or the key drifted (update it).
    let mut stale: Vec<&String> = baseline
        .entries
        .keys()
        .filter(|k| !all.iter().any(|f| f.key == **k))
        .collect();
    stale.sort();
    for k in &stale {
        report.push(format!(
            "{}: stale baseline entry `{k}` matches no finding",
            findings::BASELINE_FILE
        ));
    }

    if report.is_empty() {
        println!(
            "analyze OK: {} files, {} passes, {} finding(s), all baselined ({baselined})",
            ws.files.len(),
            PASSES.len(),
            all.len()
        );
        Ok(())
    } else {
        Err(format!(
            "{}\n\nanalyze FAILED: {} unbaselined finding(s) / stale entr(ies)",
            report.join("\n"),
            report.len()
        ))
    }
}

fn load_config(root: &Path) -> Result<Config, String> {
    match std::fs::read_to_string(root.join(CONFIG_FILE)) {
        Ok(text) => Config::parse(&text),
        Err(_) => Ok(Config::default()),
    }
}
