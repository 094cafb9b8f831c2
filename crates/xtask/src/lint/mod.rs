//! The workspace lint gate: `cargo xtask lint`.
//!
//! Six source-level rules that `rustc`/`clippy` cannot (or cannot
//! cheaply) express:
//!
//! 1. **unwrap ratchet** — `.unwrap()` / `.expect(` in the non-test
//!    library code of the recovery-critical crates (`core`, `array`,
//!    `buffer`, `wal`, `obs`, …) is capped by a checked-in per-file
//!    baseline that may only go down.
//! 2. **errors-doc** — every `pub fn` returning `Result` documents its
//!    failure modes in a `# Errors` section.
//! 3. **array-discipline** — the raw `SimDisk` type never appears
//!    outside `rda-array`, `FileDisk` outside `rda-disk`, and the gate
//!    they share (`Drive`, `Medium`) outside those two; all I/O goes
//!    through `DiskArray` so parity maintenance and transfer accounting
//!    stay sound.
//! 4. **lint-config** — `unsafe` is banned workspace-wide and every
//!    member manifest opts into the shared `[workspace.lints]` table.
//!
//! 5. **closed-closure** — no manifest names a dependency that is not a
//!    workspace path: the dependency closure is `std` plus the `rda-*`
//!    crates, so the workspace builds and tests with an empty registry.
//! 6. **one-json** — no string literal outside test items,
//!    `crates/obs/src/json.rs` and `xtask` holds `\":`: JSON is built as
//!    an `rda_obs::json::Json` value, never spliced from strings.
//!
//! Rules read the workspace's one source model ([`crate::source`]): the
//! lexed tokens of every file, each marked as test code or not. They
//! skip comments, string contents and test code, so doc examples and test
//! assertions don't trip production rules.

mod baseline;
mod rules;

use std::path::Path;

use crate::source::{self, rel_path};

/// Run the gate in the enclosing workspace.
///
/// # Errors
/// Returns the formatted violation report when any rule fails (the
/// caller prints it and exits non-zero), or a setup message when the
/// workspace layout / baseline file cannot be read.
pub fn run(update_baseline: bool) -> Result<(), String> {
    let root = source::workspace_root()?;
    let files = source::load(&root)?;
    let manifests = collect_manifests(&root)?;
    let root_manifest = std::fs::read_to_string(root.join("Cargo.toml"))
        .map_err(|e| format!("cannot read root Cargo.toml: {e}"))?;

    let mut violations = Vec::new();

    // Rule 1: the unwrap/expect ratchet.
    let counts = rules::unwrap_counts(&files);
    if update_baseline {
        let old = baseline::load(&root).unwrap_or_default();
        for (path, &count) in &counts {
            let allowed = old.get(path).copied().unwrap_or(0);
            if count > allowed {
                println!("note: raising baseline for {path}: {allowed} -> {count}");
            }
        }
        baseline::store(&root, &counts)?;
        println!(
            "wrote {} ({} files with nonzero counts)",
            baseline::BASELINE_FILE,
            counts.values().filter(|&&c| c > 0).count()
        );
    }
    match baseline::load(&root) {
        Some(base) => {
            let (ratchet_violations, improvable) = rules::ratchet_check(&counts, &base);
            violations.extend(ratchet_violations);
            for note in improvable {
                println!("note: {note}");
            }
        }
        None => violations.push(format!(
            "[unwrap-ratchet] missing {}; run `cargo xtask lint --update-baseline`",
            baseline::BASELINE_FILE
        )),
    }

    // Rules 2-6.
    rules::errors_doc(&files, &mut violations);
    rules::array_discipline(&files, &mut violations);
    rules::unsafe_and_lint_config(&files, &manifests, &root_manifest, &mut violations);
    rules::closed_closure(&manifests, &mut violations);
    rules::closed_closure(
        &[("Cargo.toml".to_string(), root_manifest)],
        &mut violations,
    );
    rules::one_json(&files, &mut violations);

    if violations.is_empty() {
        let total: usize = counts.values().sum();
        println!(
            "lint OK: {} files scanned, unwrap ratchet at {} call sites across {} crates",
            files.len(),
            total,
            rules::RATCHET_CRATES.len()
        );
        Ok(())
    } else {
        violations.sort();
        Err(format!(
            "{}\n\nlint FAILED: {} violation(s)",
            violations.join("\n"),
            violations.len()
        ))
    }
}

/// `(rel_path, contents)` of every member manifest under `crates/`.
fn collect_manifests(root: &Path) -> Result<Vec<(String, String)>, String> {
    let mut out = Vec::new();
    let crates_dir = root.join("crates");
    if let Ok(entries) = std::fs::read_dir(&crates_dir) {
        let mut dirs: Vec<_> = entries.flatten().map(|e| e.path()).collect();
        dirs.sort();
        for dir in dirs {
            let manifest = dir.join("Cargo.toml");
            if manifest.is_file() {
                let body = std::fs::read_to_string(&manifest)
                    .map_err(|e| format!("cannot read {}: {e}", manifest.display()))?;
                out.push((rel_path(root, &manifest), body));
            }
        }
    }
    Ok(out)
}
