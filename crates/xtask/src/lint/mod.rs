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
//! (The former trace-pairing rule moved to `cargo xtask analyze`: it is
//! declared per transition as `tracepair` lines in `analyze.conf` and
//! enforced by the io-pairing pass, which counts emission sites on the
//! real token tree instead of substring-matching.)
//!
//! Rules operate on preprocessed sources (comments, strings and
//! `#[cfg(test)]` items blanked — see [`source`]), so doc examples and
//! test assertions don't trip production rules. Tokenization is shared
//! with the analyze framework ([`crate::analyze::lexer`]).

mod baseline;
mod rules;
mod source;

use std::path::{Path, PathBuf};

/// One preprocessed source file.
pub struct SourceFile {
    /// Path relative to the workspace root, `/`-separated.
    pub rel_path: String,
    /// Original text (used for doc-comment rules).
    pub text: String,
    /// Stripped text: comments/strings/`#[cfg(test)]` items blanked.
    pub code: String,
}

/// Run the gate in the enclosing workspace.
///
/// # Errors
/// Returns the formatted violation report when any rule fails (the
/// caller prints it and exits non-zero), or a setup message when the
/// workspace layout / baseline file cannot be read.
pub fn run(update_baseline: bool) -> Result<(), String> {
    let root = workspace_root()?;
    let files = collect_sources(&root)?;
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

/// Walk up from the current directory to the first `Cargo.toml` that
/// declares `[workspace]`.
pub(crate) fn workspace_root() -> Result<PathBuf, String> {
    let mut dir = std::env::current_dir().map_err(|e| format!("cannot read cwd: {e}"))?;
    loop {
        let manifest = dir.join("Cargo.toml");
        if let Ok(text) = std::fs::read_to_string(&manifest) {
            if text.contains("[workspace]") {
                return Ok(dir);
            }
        }
        if !dir.pop() {
            return Err("no workspace Cargo.toml found above the current directory".to_string());
        }
    }
}

/// Every `.rs` file under `crates/*/src` and the root package's `src`.
fn collect_sources(root: &Path) -> Result<Vec<SourceFile>, String> {
    let mut paths = Vec::new();
    let crates_dir = root.join("crates");
    if let Ok(entries) = std::fs::read_dir(&crates_dir) {
        for entry in entries.flatten() {
            let src = entry.path().join("src");
            if src.is_dir() {
                walk_rs(&src, &mut paths)?;
            }
        }
    }
    let root_src = root.join("src");
    if root_src.is_dir() {
        walk_rs(&root_src, &mut paths)?;
    }
    paths.sort();
    let mut files = Vec::new();
    for path in paths {
        let text = std::fs::read_to_string(&path)
            .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
        let rel_path = path
            .strip_prefix(root)
            .unwrap_or(&path)
            .components()
            .map(|c| c.as_os_str().to_string_lossy())
            .collect::<Vec<_>>()
            .join("/");
        let code = source::blank_test_items(&source::strip(&text));
        files.push(SourceFile {
            rel_path,
            text,
            code,
        });
    }
    Ok(files)
}

pub(crate) fn walk_rs(dir: &Path, out: &mut Vec<PathBuf>) -> Result<(), String> {
    let entries =
        std::fs::read_dir(dir).map_err(|e| format!("cannot read {}: {e}", dir.display()))?;
    for entry in entries.flatten() {
        let path = entry.path();
        if path.is_dir() {
            walk_rs(&path, out)?;
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
    Ok(())
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
                let rel = manifest
                    .strip_prefix(root)
                    .unwrap_or(&manifest)
                    .components()
                    .map(|c| c.as_os_str().to_string_lossy())
                    .collect::<Vec<_>>()
                    .join("/");
                out.push((rel, body));
            }
        }
    }
    Ok(out)
}
