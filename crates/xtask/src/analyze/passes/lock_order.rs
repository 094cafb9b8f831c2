//! Lock-order pass: global lock-acquisition-order graph and cycle
//! detection.
//!
//! A *lock class* is `Type.field` for any field whose type mentions
//! `Mutex`/`RwLock` (`rda_obs::sync::Mutex` in this tree), plus the classes
//! declared by `lockentry` (lock managers like `LockTable` whose
//! acquire API is `lock_page`/`lock_shared`/`lock_range`).
//!
//! The analysis is conservative in the classic way: a lock is assumed
//! held from its acquire site to the end of the enclosing fn (guard
//! drops are not tracked), and calls propagate the callee's *transitive*
//! acquire set. Edges `held → acquired` feed a cycle search over the
//! class graph; a cycle that two threads can enter from different ends
//! is a deadlock, so every cycle must be fixed or baselined with a
//! justification. Re-acquiring a held class (self-cycle) is reported
//! too — `std` locks are not reentrant.

use std::collections::{BTreeMap, BTreeSet};
use std::fmt::Write as _;

use crate::analyze::callgraph::{FnRef, Workspace};
use crate::analyze::config::Config;
use crate::analyze::findings::Finding;
use crate::analyze::parse::{CallKind, CallSite};

/// Where an edge was observed, for the report.
#[derive(Debug, Clone)]
struct Example {
    file: String,
    line: u32,
    in_fn: String,
    /// `Some(callee)` when the inner acquire happens transitively.
    via: Option<String>,
}

pub fn run(ws: &Workspace, cfg: &Config) -> Vec<Finding> {
    // 1. Acquire events per fn, in body order.
    let mut acquires: BTreeMap<FnRef, Vec<(usize, String)>> = BTreeMap::new();
    for fi in 0..ws.files.len() {
        for ki in 0..ws.files[fi].fns.len() {
            let r = (fi, ki);
            let f = ws.fn_item(r);
            let mut evs = Vec::new();
            for (ci, call) in f.calls.iter().enumerate() {
                if let Some(class) = acquire_class(ws, cfg, r, call) {
                    evs.push((ci, class));
                }
            }
            acquires.insert(r, evs);
        }
    }

    // 2. Transitive acquire sets: acq*(F) = direct(F) ∪ acq*(callees).
    let mut acq_star: BTreeMap<FnRef, BTreeSet<String>> = acquires
        .iter()
        .map(|(r, evs)| (*r, evs.iter().map(|(_, c)| c.clone()).collect()))
        .collect();
    loop {
        let mut changed = false;
        let keys: Vec<FnRef> = acq_star.keys().copied().collect();
        for r in keys {
            let mut add: BTreeSet<String> = BTreeSet::new();
            for call in &ws.fn_item(r).calls {
                for t in ws.resolve_call(r, call) {
                    if let Some(ts) = acq_star.get(&t) {
                        add.extend(ts.iter().cloned());
                    }
                }
            }
            let mine = acq_star.get_mut(&r).unwrap();
            let before = mine.len();
            mine.extend(add);
            changed |= mine.len() != before;
        }
        if !changed {
            break;
        }
    }

    // 3. Edges held → acquired, with one example each.
    let mut edges: BTreeMap<String, BTreeSet<String>> = BTreeMap::new();
    let mut examples: BTreeMap<(String, String), Example> = BTreeMap::new();
    let mut findings = Vec::new();
    for (&r, evs) in &acquires {
        let f = ws.fn_item(r);
        let file = &ws.file_of(r).rel_path;
        let direct: BTreeMap<usize, &String> = evs.iter().map(|(ci, c)| (*ci, c)).collect();
        let mut held: Vec<String> = Vec::new();
        for (ci, call) in f.calls.iter().enumerate() {
            if let Some(class) = direct.get(&ci) {
                for h in &held {
                    note_edge(
                        &mut edges,
                        &mut examples,
                        h,
                        class,
                        Example {
                            file: file.clone(),
                            line: call.line,
                            in_fn: f.name.clone(),
                            via: None,
                        },
                    );
                }
                held.push((*class).clone());
            } else {
                for t in ws.resolve_call(r, call) {
                    let Some(inner) = acq_star.get(&t) else {
                        continue;
                    };
                    let callee = ws.fn_item(t).name.clone();
                    for a in inner {
                        for h in &held {
                            note_edge(
                                &mut edges,
                                &mut examples,
                                h,
                                a,
                                Example {
                                    file: file.clone(),
                                    line: call.line,
                                    in_fn: f.name.clone(),
                                    via: Some(callee.clone()),
                                },
                            );
                        }
                    }
                }
            }
        }
    }

    // 4. Self-cycles: a held class re-acquired (`std` locks are
    //    not reentrant, so this deadlocks a single thread).
    for (from, tos) in &edges {
        if tos.contains(from) {
            let ex = &examples[&(from.clone(), from.clone())];
            findings.push(Finding::new(
                "lock-order",
                "self-cycle",
                &ex.file,
                ex.line,
                &format!("self-{from}"),
                format!(
                    "`{from}` acquired while already held in fn `{}`{}",
                    ex.in_fn,
                    via_note(ex)
                ),
            ));
        }
    }

    // 5. Multi-class cycles: strongly connected components of size ≥ 2.
    for scc in sccs(&edges) {
        if scc.len() < 2 {
            continue;
        }
        let anchor = format!("cycle-{}", scc.join("+"));
        let mut detail = String::new();
        let mut loc: Option<&Example> = None;
        for a in &scc {
            for b in &scc {
                if a != b {
                    if let Some(ex) = examples.get(&(a.clone(), b.clone())) {
                        let _ = write!(
                            detail,
                            "; {a} -> {b} at {}:{} in `{}`{}",
                            ex.file,
                            ex.line,
                            ex.in_fn,
                            via_note(ex)
                        );
                        loc.get_or_insert(ex);
                    }
                }
            }
        }
        let ex = loc.expect("an SCC of size >= 2 has at least one internal edge");
        findings.push(Finding::new(
            "lock-order",
            "cycle",
            &ex.file,
            ex.line,
            &anchor,
            format!("lock-order cycle between {{{}}}{detail}", scc.join(", ")),
        ));
    }
    findings
}

fn via_note(ex: &Example) -> String {
    ex.via
        .as_ref()
        .map_or_else(String::new, |v| format!(" (via call to `{v}`)"))
}

fn note_edge(
    edges: &mut BTreeMap<String, BTreeSet<String>>,
    examples: &mut BTreeMap<(String, String), Example>,
    from: &str,
    to: &str,
    ex: Example,
) {
    edges
        .entry(from.to_string())
        .or_default()
        .insert(to.to_string());
    examples
        .entry((from.to_string(), to.to_string()))
        .or_insert(ex);
}

/// The lock class a call acquires, if any.
fn acquire_class(
    ws: &Workspace,
    cfg: &Config,
    caller_ref: FnRef,
    call: &CallSite,
) -> Option<String> {
    let caller = ws.fn_item(caller_ref);

    // Declared lock-manager entry points (`lockentry`).
    for entry in &cfg.lock_entries {
        if entry.methods.contains(&call.method) {
            let class_ty = entry.class.split('.').next().unwrap_or(&entry.class);
            match call.kind {
                CallKind::Method => match ws.receiver_type(caller, &call.recv) {
                    Some(ty) if ty == class_ty => return Some(entry.class.clone()),
                    Some(_) => {}
                    // Unresolved receiver: trust the method name — the
                    // config owner declared it distinctive.
                    None => return Some(entry.class.clone()),
                },
                CallKind::Path(_) | CallKind::Bare => {}
            }
        }
    }

    if call.kind != CallKind::Method || call.arity != 0 {
        return None;
    }
    let wants = match call.method.as_str() {
        "lock" => "Mutex",
        "read" | "write" => "RwLock",
        _ => return None,
    };

    // `chain.field.lock()` where the field's declared type is a lock.
    let (field_seg, prefix) = call.recv.split_last()?;
    if field_seg.is_call || prefix.is_empty() {
        return None;
    }
    let owner = ws.receiver_type(caller, prefix)?;
    let field = ws.field_of(&owner, &field_seg.name)?;
    if field.ty_path.iter().any(|t| t == wants) {
        Some(format!("{owner}.{}", field_seg.name))
    } else {
        None
    }
}

/// Strongly connected components (iterative Tarjan), sorted for stable
/// output.
fn sccs(edges: &BTreeMap<String, BTreeSet<String>>) -> Vec<Vec<String>> {
    let mut nodes: BTreeSet<&String> = edges.keys().collect();
    for tos in edges.values() {
        nodes.extend(tos.iter());
    }
    let nodes: Vec<&String> = nodes.into_iter().collect();
    let idx_of: BTreeMap<&String, usize> = nodes.iter().enumerate().map(|(i, n)| (*n, i)).collect();
    let succs: Vec<Vec<usize>> = nodes
        .iter()
        .map(|n| {
            edges
                .get(*n)
                .map(|tos| tos.iter().map(|t| idx_of[t]).collect())
                .unwrap_or_default()
        })
        .collect();

    let n = nodes.len();
    let mut index = vec![usize::MAX; n];
    let mut low = vec![0usize; n];
    let mut on_stack = vec![false; n];
    let mut stack: Vec<usize> = Vec::new();
    let mut next_index = 0usize;
    let mut out: Vec<Vec<String>> = Vec::new();

    for root in 0..n {
        if index[root] != usize::MAX {
            continue;
        }
        // Explicit DFS stack: (node, next-successor position).
        let mut work: Vec<(usize, usize)> = vec![(root, 0)];
        while let Some(&mut (v, ref mut pos)) = work.last_mut() {
            if *pos == 0 {
                index[v] = next_index;
                low[v] = next_index;
                next_index += 1;
                stack.push(v);
                on_stack[v] = true;
            }
            if let Some(&w) = succs[v].get(*pos) {
                *pos += 1;
                if index[w] == usize::MAX {
                    work.push((w, 0));
                } else if on_stack[w] {
                    low[v] = low[v].min(index[w]);
                }
            } else {
                work.pop();
                if let Some(&(parent, _)) = work.last() {
                    low[parent] = low[parent].min(low[v]);
                }
                if low[v] == index[v] {
                    let mut comp = Vec::new();
                    while let Some(w) = stack.pop() {
                        on_stack[w] = false;
                        comp.push(nodes[w].clone());
                        if w == v {
                            break;
                        }
                    }
                    comp.sort();
                    out.push(comp);
                }
            }
        }
    }
    out.sort();
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn detects_an_ab_ba_inversion() {
        let w = Workspace::of(&[(
            "crates/a/src/lib.rs",
            "
            struct S { a: Mutex<u32>, b: Mutex<u32> }
            impl S {
                fn fwd(&self) { let _x = self.a.lock(); let _y = self.b.lock(); }
                fn rev(&self) { let _y = self.b.lock(); let _x = self.a.lock(); }
            }
            ",
        )]);
        let fs = run(&w, &Config::default());
        assert_eq!(fs.len(), 1, "{fs:?}");
        assert_eq!(fs[0].code, "cycle");
        assert!(fs[0].key.contains("S.a+S.b"));
    }

    #[test]
    fn consistent_order_is_clean() {
        let w = Workspace::of(&[(
            "crates/a/src/lib.rs",
            "
            struct S { a: Mutex<u32>, b: Mutex<u32> }
            impl S {
                fn one(&self) { let _x = self.a.lock(); let _y = self.b.lock(); }
                fn two(&self) { let _x = self.a.lock(); let _y = self.b.lock(); }
            }
            ",
        )]);
        assert!(run(&w, &Config::default()).is_empty());
    }

    #[test]
    fn inversion_through_a_call_is_found() {
        let w = Workspace::of(&[(
            "crates/a/src/lib.rs",
            "
            struct S { a: Mutex<u32>, b: Mutex<u32> }
            impl S {
                fn inner(&self) { let _x = self.a.lock(); }
                fn fwd(&self) { let _x = self.a.lock(); let _y = self.b.lock(); }
                fn rev(&self) { let _y = self.b.lock(); self.inner(); }
            }
            ",
        )]);
        let fs = run(&w, &Config::default());
        assert_eq!(fs.len(), 1, "{fs:?}");
        assert!(fs[0].message.contains("via call to `inner`"));
    }

    #[test]
    fn reacquire_is_a_self_cycle() {
        let w = Workspace::of(&[(
            "crates/a/src/lib.rs",
            "
            struct S { a: Mutex<u32> }
            impl S {
                fn inner(&self) { let _x = self.a.lock(); }
                fn outer(&self) { let _x = self.a.lock(); self.inner(); }
            }
            ",
        )]);
        let fs = run(&w, &Config::default());
        assert_eq!(fs.len(), 1, "{fs:?}");
        assert_eq!(fs[0].code, "self-cycle");
        assert_eq!(fs[0].key, "lock-order:crates/a/src/lib.rs:self-S.a");
    }

    #[test]
    fn lockentry_methods_count_as_acquires() {
        let mut cfg = Config::default();
        cfg.lock_entries.push(crate::analyze::config::LockEntry {
            class: "LockTable".to_string(),
            methods: vec!["lock_page".to_string()],
        });
        let w = Workspace::of(&[(
            "crates/a/src/lib.rs",
            "
            struct LockTable { m: Mutex<u32> }
            impl LockTable { fn lock_page(&self) {} }
            struct E { locks: LockTable, s: Mutex<u32> }
            impl E {
                fn fwd(&self) { self.locks.lock_page(); let _g = self.s.lock(); }
                fn rev(&self) { let _g = self.s.lock(); self.locks.lock_page(); }
            }
            ",
        )]);
        let fs = run(&w, &cfg);
        assert_eq!(fs.len(), 1, "{fs:?}");
        assert!(fs[0].key.contains("E.s+LockTable"));
    }
}
