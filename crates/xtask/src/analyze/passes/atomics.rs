//! Atomic-ordering audit.
//!
//! Two obligations on every `Ordering::` site in production code:
//!
//! 1. **Justification** — the call must carry an `// ordering:` comment
//!    (trailing, or on an immediately preceding line) saying what the
//!    ordering pairs with or why `Relaxed` suffices. The obs seqlock
//!    (`crates/obs/src/trace.rs`) is the canonical style.
//! 2. **Pairing** — per atomic field, a `Release` store must have an
//!    `Acquire` load somewhere in the workspace and vice versa; an
//!    unpaired side is either a missing fence or an over-strong
//!    ordering that belongs at `Relaxed`. RMWs with `AcqRel` and any
//!    `SeqCst` op count on both sides. `Relaxed`-only fields (plain
//!    counters) carry no obligation beyond the comment.
//!
//! Fields are named `Type.field` when the receiver chain resolves
//! through the item index; unresolved receivers fall back to
//! `<file-stem>.<root>` and are audited for justification only —
//! cross-file pairing on a guessed name would produce junk.

use std::collections::BTreeMap;

use crate::analyze::callgraph::{FnRef, Workspace};
use crate::analyze::findings::Finding;
use crate::analyze::lexer::TokKind;
use crate::analyze::parse::FlatTok;

const ATOMIC_METHODS: &[&str] = &[
    "load",
    "store",
    "swap",
    "fetch_add",
    "fetch_sub",
    "fetch_and",
    "fetch_or",
    "fetch_xor",
    "fetch_nand",
    "fetch_max",
    "fetch_min",
    "fetch_update",
    "compare_exchange",
    "compare_exchange_weak",
];

const VARIANTS: &[&str] = &["Relaxed", "Acquire", "Release", "AcqRel", "SeqCst"];

/// One `Ordering::` occurrence attributed to its atomic call.
#[derive(Debug)]
struct Site {
    file: String,
    line: u32,
    method: String,
    variant: String,
    call_line: u32,
    /// `Type.field`, or `<stem>.<root>`/`<stem>.?` when unresolved.
    field: String,
    resolved: bool,
}

/// Per-field pairing state for obligation 2: the strongest release-side
/// and acquire-side site seen, plus whether relaxed accesses exist.
#[derive(Default)]
struct Pair {
    release: Option<(String, u32, String)>, // file, line, op
    acquire: Option<(String, u32, String)>,
    relaxed_load: bool,
    relaxed_store: bool,
}

pub fn run(ws: &Workspace) -> Vec<Finding> {
    let mut sites: Vec<Site> = Vec::new();
    for fi in 0..ws.files.len() {
        for ki in 0..ws.files[fi].fns.len() {
            collect_sites(ws, (fi, ki), &mut sites);
        }
    }

    let mut findings = Vec::new();

    // Obligation 1: justification comments.
    for s in &sites {
        let file = ws.files.iter().find(|f| f.rel_path == s.file).unwrap();
        // Trailing comment on the call/variant lines, or anywhere in the
        // contiguous comment block immediately above the call (a
        // justification often wraps, with `ordering:` on its first line).
        let mut justified = (s.call_line..=s.line.max(s.call_line))
            .any(|l| file.comment_on(l).is_some_and(|c| c.contains("ordering:")));
        let mut l = s.call_line.saturating_sub(1);
        while !justified && l > 0 {
            match file.comment_on(l) {
                Some(c) => justified = c.contains("ordering:"),
                None => break,
            }
            l -= 1;
        }
        if !justified {
            findings.push(Finding::new(
                "atomics",
                "missing-justification",
                &s.file,
                s.line,
                &format!("{}.{}.{}", s.field, s.method, s.variant),
                format!(
                    "`{}.{}(Ordering::{})` has no `// ordering:` justification comment",
                    s.field, s.method, s.variant
                ),
            ));
        }
    }

    // Obligation 2: Release/Acquire pairing per resolved field.
    let mut pairs: BTreeMap<String, Pair> = BTreeMap::new();
    for s in sites.iter().filter(|s| s.resolved) {
        let p = pairs.entry(s.field.clone()).or_default();
        let is_load = s.method == "load";
        let is_store = s.method == "store";
        let is_rmw = !is_load && !is_store;
        let rel = matches!(s.variant.as_str(), "Release" | "AcqRel" | "SeqCst");
        let acq = matches!(s.variant.as_str(), "Acquire" | "AcqRel" | "SeqCst");
        let op = format!("{}(Ordering::{})", s.method, s.variant);
        if (is_store || is_rmw) && rel && p.release.is_none() {
            p.release = Some((s.file.clone(), s.line, op.clone()));
        }
        if (is_load || is_rmw) && acq && p.acquire.is_none() {
            p.acquire = Some((s.file.clone(), s.line, op));
        }
        if is_load && s.variant == "Relaxed" {
            p.relaxed_load = true;
        }
        if (is_store || is_rmw) && s.variant == "Relaxed" {
            p.relaxed_store = true;
        }
    }
    for (field, p) in &pairs {
        match (&p.release, &p.acquire) {
            (Some((file, line, op)), None) => findings.push(Finding::new(
                "atomics",
                "release-unread",
                file,
                *line,
                &format!("{field}-release-unread"),
                format!(
                    "`{field}` is published with `{op}` but never loaded with \
                     Acquire/SeqCst{} — the release either pairs with nothing \
                     or should be Relaxed",
                    if p.relaxed_load {
                        " (loads are Relaxed)"
                    } else {
                        ""
                    }
                ),
            )),
            (None, Some((file, line, op))) => findings.push(Finding::new(
                "atomics",
                "acquire-unpaired",
                file,
                *line,
                &format!("{field}-acquire-unpaired"),
                format!(
                    "`{field}` is loaded with `{op}` but never stored with \
                     Release/SeqCst{} — the acquire synchronizes with nothing",
                    if p.relaxed_store {
                        " (stores are Relaxed)"
                    } else {
                        ""
                    }
                ),
            )),
            _ => {}
        }
    }
    findings
}

/// Scan one fn's body for `Ordering :: Variant` token runs and attribute
/// each to the nearest preceding atomic call on or above its line.
// Token-cursor idiom (t, c1, c2, v) reads clearest at this density.
#[allow(clippy::many_single_char_names)]
fn collect_sites(ws: &Workspace, r: FnRef, out: &mut Vec<Site>) {
    let f = ws.fn_item(r);
    let file = ws.file_of(r);
    let stem = file
        .rel_path
        .rsplit('/')
        .next()
        .and_then(|n| n.strip_suffix(".rs"))
        .unwrap_or("file");
    for i in 0..f.body.len() {
        let FlatTok::Tok(t) = &f.body[i] else {
            continue;
        };
        if !t.is_ident("Ordering") {
            continue;
        }
        let (Some(FlatTok::Tok(c1)), Some(FlatTok::Tok(c2)), Some(FlatTok::Tok(v))) =
            (f.body.get(i + 1), f.body.get(i + 2), f.body.get(i + 3))
        else {
            continue;
        };
        if !c1.is_punct(':') || !c2.is_punct(':') || v.kind != TokKind::Ident {
            continue;
        }
        if !VARIANTS.contains(&v.text.as_str()) {
            continue;
        }
        // Nearest atomic call at or above this line (atomic calls are
        // one-per-line in this tree; the Ordering argument sits inside
        // the call's parens, so call.line <= v.line always holds).
        let call = f
            .calls
            .iter()
            .filter(|c| ATOMIC_METHODS.contains(&c.method.as_str()) && c.line <= v.line)
            .max_by_key(|c| c.line);
        let (method, call_line, field, resolved) = match call {
            Some(c) => {
                let (field, resolved) = field_key(ws, r, c, stem);
                (c.method.clone(), c.line, field, resolved)
            }
            None => ("atomic".to_string(), v.line, format!("{stem}.?"), false),
        };
        out.push(Site {
            file: file.rel_path.clone(),
            line: v.line,
            method,
            variant: v.text.clone(),
            call_line,
            field,
            resolved,
        });
    }
}

/// `Type.field` for the atomic the call operates on, with a file-stem
/// fallback when the receiver does not resolve.
fn field_key(
    ws: &Workspace,
    r: FnRef,
    call: &crate::analyze::parse::CallSite,
    stem: &str,
) -> (String, bool) {
    let caller = ws.fn_item(r);
    if let Some((last, prefix)) = call.recv.split_last() {
        if !last.is_call && !prefix.is_empty() {
            if let Some(owner) = ws.receiver_type(caller, prefix) {
                if ws.field_of(&owner, &last.name).is_some() {
                    return (format!("{owner}.{}", last.name), true);
                }
            }
        }
        // Root-level local or unresolved chain: stable but file-local.
        return (format!("{stem}.{}", last.name), false);
    }
    (format!("{stem}.?"), false)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unjustified_sites_are_flagged_and_commented_ones_pass() {
        let w = Workspace::of(&[(
            "crates/obs/src/trace.rs",
            "
            struct Tracer { next: AtomicU64 }
            impl Tracer {
                fn a(&self) {
                    // ordering: pairs with the Release store in publish
                    self.next.load(Ordering::Acquire);
                }
                fn b(&self) {
                    self.next.store(7, Ordering::Release);
                }
            }
            ",
        )]);
        let fs = run(&w);
        let missing: Vec<_> = fs
            .iter()
            .filter(|f| f.code == "missing-justification")
            .collect();
        assert_eq!(missing.len(), 1, "{fs:?}");
        assert!(missing[0].key.contains("Tracer.next.store.Release"));
    }

    #[test]
    fn multi_line_justification_blocks_count() {
        let w = Workspace::of(&[(
            "crates/obs/src/trace.rs",
            "
            struct Tracer { next: AtomicU64 }
            impl Tracer {
                fn a(&self) {
                    // ordering: pairs with the Release store in publish
                    // so the payload written before it is visible; the
                    // keyword is two lines up from the call.
                    self.next.load(Ordering::Acquire);
                }
            }
            ",
        )]);
        let fs = run(&w);
        assert!(
            !fs.iter().any(|f| f.code == "missing-justification"),
            "{fs:?}"
        );
    }

    #[test]
    fn release_without_acquire_reader_is_flagged() {
        let w = Workspace::of(&[(
            "crates/obs/src/trace.rs",
            "
            struct T { flag: AtomicBool }
            impl T {
                fn w(&self) {
                    // ordering: publishes the buffer
                    self.flag.store(true, Ordering::Release);
                }
                fn r(&self) -> bool {
                    // ordering: wrong side
                    self.flag.load(Ordering::Relaxed)
                }
            }
            ",
        )]);
        let fs = run(&w);
        assert_eq!(fs.len(), 1, "{fs:?}");
        assert_eq!(fs[0].code, "release-unread");
        assert!(fs[0].message.contains("loads are Relaxed"));
    }

    #[test]
    fn proper_pairs_and_relaxed_counters_are_clean() {
        let w = Workspace::of(&[(
            "crates/obs/src/metrics.rs",
            "
            struct M { n: AtomicU64, seq: AtomicU64 }
            impl M {
                fn bump(&self) {
                    // ordering: plain counter, no ordering needed
                    self.n.fetch_add(1, Ordering::Relaxed);
                }
                fn publish(&self) {
                    // ordering: pairs with the Acquire in snapshot
                    self.seq.store(1, Ordering::Release);
                }
                fn snapshot(&self) -> u64 {
                    // ordering: pairs with the Release in publish
                    self.seq.load(Ordering::Acquire)
                }
            }
            ",
        )]);
        assert!(run(&w).is_empty());
    }

    #[test]
    fn rmw_acqrel_counts_on_both_sides() {
        let w = Workspace::of(&[(
            "crates/a/src/lib.rs",
            "
            struct C { v: AtomicU32 }
            impl C {
                fn bump(&self) {
                    // ordering: full RMW fence, both sides
                    self.v.fetch_add(1, Ordering::AcqRel);
                }
            }
            ",
        )]);
        assert!(run(&w).is_empty());
    }
}
