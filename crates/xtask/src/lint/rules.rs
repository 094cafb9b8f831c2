//! The individual lint rules. Each reads the marked token streams and
//! pushes human-readable violations; `mod.rs` decides overall pass/fail.

use std::collections::BTreeMap;

use crate::analyze::lexer::{Tok, TokKind};
use crate::source::SourceFile;

/// Crates whose library code is subject to the unwrap/expect ratchet —
/// the recovery-critical layers where a stray panic can take down the
/// "database" mid-protocol, plus the fault-injection layer (whose whole
/// point is exercising those protocols, so it must not panic first), plus
/// the bench/figure binaries (a panicking bench aborts the whole sweep
/// instead of reporting which configuration failed) and the simulator's
/// runner (an engine error is a counted failure of the run, not a panic).
pub const RATCHET_CRATES: &[&str] = &[
    "crates/core",
    "crates/array",
    "crates/buffer",
    "crates/wal",
    "crates/faults",
    "crates/bench",
    "crates/obs",
    "crates/check",
    "crates/storage",
    "crates/sim",
];

/// Count `.unwrap()` / `.expect(` call sites per ratcheted file.
pub fn unwrap_counts(files: &[SourceFile]) -> BTreeMap<String, usize> {
    let mut counts = BTreeMap::new();
    for f in files {
        if !in_ratchet_scope(&f.rel_path) {
            continue;
        }
        let code = f.production();
        let at = |i: usize, s: &str| code.get(i).is_some_and(|t| t.text == s);
        let n = (0..code.len())
            .filter(|&i| {
                at(i, ".")
                    && at(i + 2, "(")
                    && (at(i + 1, "expect") || at(i + 1, "unwrap") && at(i + 3, ")"))
            })
            .count();
        counts.insert(f.rel_path.clone(), n);
    }
    counts
}

fn in_ratchet_scope(rel_path: &str) -> bool {
    RATCHET_CRATES.iter().any(|c| {
        rel_path
            .strip_prefix(c)
            .and_then(|rest| rest.strip_prefix("/src/"))
            .is_some()
    })
}

/// Compare current counts against the baseline; returns (violations,
/// improvable) where `improvable` lists files now below their baseline.
pub fn ratchet_check(
    counts: &BTreeMap<String, usize>,
    baseline: &BTreeMap<String, usize>,
) -> (Vec<String>, Vec<String>) {
    let mut violations = Vec::new();
    let mut improvable = Vec::new();
    for (path, &count) in counts {
        let allowed = baseline.get(path).copied().unwrap_or(0);
        if count > allowed {
            violations.push(format!(
                "[unwrap-ratchet] {path}: {count} unwrap()/expect() call sites \
                 (baseline allows {allowed}) — handle the error or lower the \
                 count elsewhere first"
            ));
        } else if count < allowed {
            improvable.push(format!(
                "{path}: {count} < baseline {allowed} — run `cargo xtask lint \
                 --update-baseline` to bank the improvement"
            ));
        }
    }
    for path in baseline.keys() {
        if !counts.contains_key(path) {
            improvable.push(format!(
                "{path}: file gone from ratchet scope — run `cargo xtask lint --update-baseline`"
            ));
        }
    }
    (violations, improvable)
}

/// Every `pub fn` returning `Result` in non-test library code must carry
/// a `# Errors` section in its doc comment (mirrors
/// `clippy::missing_errors_doc`, but also covers functions clippy skips
/// because a private module hides them — the doc is still the contract
/// for the next maintainer).
pub fn errors_doc(files: &[SourceFile], violations: &mut Vec<String>) {
    for f in files {
        let toks = &f.toks;
        for i in 1..toks.len() {
            // Only `pub fn`, not pub(crate)/pub(super) (not API surface).
            if toks[i].test || !toks[i].is_ident("fn") || !toks[i - 1].is_ident("pub") {
                continue;
            }
            // The signature runs to the body or `;`; a `Result` ident
            // after its `->` (so `RunResult` doesn't count) needs the doc.
            let sig: Vec<&Tok> = toks[i + 1..]
                .iter()
                .filter(|t| !t.test && t.kind != TokKind::Comment)
                .take_while(|t| !t.is_punct('{') && !t.is_punct(';'))
                .collect();
            let Some(arrow) = sig
                .windows(2)
                .position(|w| w[0].is_punct('-') && w[1].is_punct('>'))
            else {
                continue;
            };
            if !sig[arrow..].iter().any(|t| t.is_ident("Result")) {
                continue;
            }
            if !documents_errors(&toks[..i - 1]) {
                violations.push(format!(
                    "[errors-doc] {}:{}: public fn returning Result lacks a \
                     `# Errors` doc section",
                    f.rel_path, toks[i].line
                ));
            }
        }
    }
}

/// Does the doc comment that ends `above` (skipping attributes) hold a
/// `/// # Errors` line?
fn documents_errors(mut above: &[Tok]) -> bool {
    while let Some((last, rest)) = above.split_last() {
        if last.is_punct(']') {
            // Back over an attribute to its `#`.
            let mut depth = 0;
            let Some(open) = above.iter().rposition(|t| {
                depth += i32::from(t.is_punct(']')) - i32::from(t.is_punct('['));
                depth == 0
            }) else {
                return false;
            };
            above = &above[..open];
            match above.split_last() {
                Some((hash, rest)) if hash.is_punct('#') => above = rest,
                _ => return false,
            }
        } else if let Some(body) = last.text.strip_prefix("///") {
            if body.trim() == "# Errors" {
                return true;
            }
            above = rest;
        } else {
            return false;
        }
    }
    false
}

/// Raw `BlockDevice` implementations must not leak above the crate that
/// owns them: `SimDisk` stays inside `rda-array` and `FileDisk` inside
/// `rda-disk`, and the gate they share (`Drive`, over a `Medium`) inside
/// the two crates that build disks from it. Everything else goes through
/// `DiskArray` (which owns the parity protocol and the transfer accounting
/// the paper's cost model depends on) or through the `rda-disk` open
/// functions (which own the manifest, journals and metric wiring).
pub fn array_discipline(files: &[SourceFile], violations: &mut Vec<String>) {
    const MEDIA: &[&str] = &["crates/array/", "crates/storage/"];
    const CONFINED: &[(&str, &[&str], &str)] = &[
        (
            "SimDisk",
            &["crates/array/"],
            "bypasses parity maintenance and transfer accounting — go \
             through `DiskArray`",
        ),
        (
            "FileDisk",
            &["crates/storage/"],
            "bypasses the manifest, journals and metric wiring — go \
             through `create_database`/`reopen_database`",
        ),
        (
            "Drive",
            MEDIA,
            "builds a disk outside the backends — go through `DiskArray` \
             or the `rda-disk` open functions",
        ),
        (
            "Medium",
            MEDIA,
            "adds a backend outside the backend crates — a new medium \
             belongs beside `SimDisk` or `FileDisk`",
        ),
    ];
    for f in files {
        let code = f.production();
        for (token, homes, why) in CONFINED {
            if homes.iter().any(|home| f.rel_path.starts_with(home)) {
                continue;
            }
            let homes: Vec<_> = homes.iter().map(|h| h.trim_end_matches('/')).collect();
            for t in code.iter().filter(|t| t.is_ident(token)) {
                violations.push(format!(
                    "[array-discipline] {}:{}: direct `{token}` access outside \
                     {} {why}",
                    f.rel_path,
                    t.line,
                    homes.join(" and "),
                ));
            }
        }
    }
}

/// Rule 6, one-json: a string literal holding `\":` is a JSON member
/// written by hand. Every JSON document is a `rda_obs::json::Json` value
/// written with `Display`, so escaping, float format and key order are
/// decided in `crates/obs/src/json.rs` alone. Test items are exempt, and
/// so is `xtask`, which depends on nothing.
pub fn one_json(files: &[SourceFile], violations: &mut Vec<String>) {
    for f in files {
        if f.rel_path == "crates/obs/src/json.rs" || f.rel_path.starts_with("crates/xtask/") {
            continue;
        }
        for t in &f.toks {
            if t.kind == TokKind::Str && t.text.contains("\\\":") && !t.test {
                violations.push(format!(
                    "[one-json] {}:{}: string literal builds a JSON member by hand — \
                     build an `rda_obs::json::Json` (`json_obj!`, `ToJson`) and write it \
                     with `Display`",
                    f.rel_path, t.line
                ));
            }
        }
    }
}

/// No `unsafe` anywhere (the whole stack is a simulation; nothing
/// justifies it), and every workspace manifest must opt into the shared
/// `[workspace.lints]` table so `unsafe_code = "deny"` actually applies.
/// Rule 5: every dependency any manifest names is a `path` dependency or
/// `workspace = true` (whose `[workspace.dependencies]` entry is itself
/// checked to be a path), in every `*dependencies` table and both
/// spellings (`name = …` lines and `[dependencies.name]` tables).
pub fn closed_closure(manifests: &[(String, String)], violations: &mut Vec<String>) {
    for (path, body) in manifests {
        let mut report = |line: usize, name: &str| {
            violations.push(format!(
                "[closed-closure] {path}:{line}: dependency `{name}` is not a workspace path — \
                 the workspace builds from `std` and its own crates only"
            ));
        };
        let mut in_deps = false;
        // A `[dependencies.NAME]` table not yet seen to be local.
        let mut open: Option<(usize, String)> = None;
        for (i, raw) in body.lines().enumerate() {
            let line: String = raw
                .split('#')
                .next()
                .unwrap_or("")
                .split_whitespace()
                .collect();
            if let Some(header) = line.strip_prefix('[') {
                if let Some((at, name)) = open.take() {
                    report(at, &name);
                }
                let mut segments = header.trim_end_matches(']').rsplit('.');
                let last = segments.next().unwrap_or("");
                in_deps = last.ends_with("dependencies");
                if segments.next().is_some_and(|s| s.ends_with("dependencies")) {
                    open = Some((i + 1, last.to_string()));
                }
                continue;
            }
            let local = line.contains("path=") || line.contains("workspace=true");
            if local {
                open = None;
            } else if in_deps && !line.is_empty() {
                report(i + 1, line.split(['=', '.']).next().unwrap_or(&line));
            }
        }
        if let Some((at, name)) = open {
            report(at, &name);
        }
    }
}

pub fn unsafe_and_lint_config(
    files: &[SourceFile],
    manifests: &[(String, String)],
    root_manifest: &str,
    violations: &mut Vec<String>,
) {
    for f in files {
        for t in f.production().iter().filter(|t| t.is_ident("unsafe")) {
            violations.push(format!(
                "[deny-unsafe] {}:{}: `unsafe` is banned in this workspace",
                f.rel_path, t.line
            ));
        }
    }
    if !root_manifest
        .lines()
        .any(|l| l.trim_start().starts_with("unsafe_code = \"deny\""))
    {
        violations.push(
            "[lint-config] root Cargo.toml must set `unsafe_code = \"deny\"` \
             under [workspace.lints.rust]"
                .to_string(),
        );
    }
    for (path, body) in manifests {
        let normalized: String = body.split_whitespace().collect::<Vec<_>>().join(" ");
        if !normalized.contains("[lints] workspace = true") {
            violations.push(format!(
                "[lint-config] {path}: missing `[lints] workspace = true` — \
                 the crate escapes the shared workspace lint table"
            ));
        }
    }
}
