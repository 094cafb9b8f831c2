//! State-confinement pass.
//!
//! `analyze.conf` declares, per recovery-critical type (`TwinDirectory`,
//! `DiskArray`, `FlightRecorder`, …), the mutating methods and the
//! files allowed to call them. The recovery algorithms are only correct
//! when all mutation of that state flows through the engine's
//! protocols, so a mutating call from an undeclared file is a finding.
//!
//! Resolution rules, in order:
//!   * the type's own methods may always call siblings (`self.…`);
//!   * a receiver that *types* to the confined type is checked against
//!     the allowed path prefixes;
//!   * a receiver that types to something else is not this type's
//!     business;
//!   * an unresolved receiver is flagged only when the method name
//!     exists exclusively on the confined type in the whole workspace —
//!     a name shared with other types would otherwise drown the report
//!     in false positives — and is not a ubiquitous std container name
//!     (`remove` on a `Vec` or `HashMap` local is not a confined type's
//!     `remove`, however few workspace types define one).

use crate::analyze::callgraph::{Workspace, STD_METHODS};
use crate::analyze::config::Config;
use crate::analyze::findings::Finding;
use crate::analyze::parse::CallKind;

pub fn run(ws: &Workspace, cfg: &Config) -> Vec<Finding> {
    let mut findings = Vec::new();
    for rule in &cfg.confines {
        for fi in 0..ws.files.len() {
            let file = &ws.files[fi];
            for (ki, f) in file.fns.iter().enumerate() {
                // The type's own methods are the protocol implementation.
                if f.impl_ty.as_deref() == Some(rule.ty.as_str()) {
                    continue;
                }
                for call in &f.calls {
                    if !rule.methods.contains(&call.method) {
                        continue;
                    }
                    let hit = match &call.kind {
                        CallKind::Method => match ws.receiver_type(f, &call.recv) {
                            Some(ty) => ty == rule.ty,
                            None => {
                                !STD_METHODS.contains(&call.method.as_str())
                                    && exclusive_to(ws, &call.method, &rule.ty)
                            }
                        },
                        CallKind::Path(segs) => segs.len() >= 2 && segs[segs.len() - 2] == rule.ty,
                        CallKind::Bare => false,
                    };
                    if !hit {
                        continue;
                    }
                    let allowed = rule
                        .allowed
                        .iter()
                        .any(|p| file.rel_path == *p || file.rel_path.starts_with(p.as_str()));
                    if !allowed {
                        findings.push(Finding::new(
                            "confine",
                            "unconfined-call",
                            &file.rel_path,
                            call.line,
                            &format!("{}.{}@fn-{}", rule.ty, call.method, f.name),
                            format!(
                                "`{}::{}` called from `{}` in fn `{}` — mutation of this \
                                 state is confined to {}",
                                rule.ty,
                                call.method,
                                file.rel_path,
                                f.name,
                                rule.allowed.join(", ")
                            ),
                        ));
                    }
                }
                let _ = ki;
            }
        }
    }
    findings
}

/// Is `method` implemented only on `ty` (and at least once) across the
/// workspace?
fn exclusive_to(ws: &Workspace, method: &str, ty: &str) -> bool {
    let named = ws.fns_named(method);
    !named.is_empty()
        && named
            .iter()
            .all(|r| ws.fn_item(*r).impl_ty.as_deref() == Some(ty))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::analyze::config::Confine;

    fn cfg_dirty() -> Config {
        let mut cfg = Config::default();
        cfg.confines.push(Confine {
            ty: "DirtySet".to_string(),
            methods: vec!["mark".to_string(), "clear".to_string()],
            allowed: vec!["crates/core/src/engine.rs".to_string()],
        });
        cfg
    }

    #[test]
    fn mutation_outside_allowed_files_is_flagged() {
        let w = Workspace::of(&[
            (
                "crates/core/src/group.rs",
                "struct DirtySet { m: Mutex<u32> } impl DirtySet { fn mark(&self) {} }",
            ),
            (
                "crates/core/src/engine.rs",
                "struct Engine { dirty: DirtySet }
                 impl Engine { fn ok(&self) { self.dirty.mark(); } }",
            ),
            (
                "crates/buffer/src/pool.rs",
                "struct Pool { dirty: DirtySet }
                 impl Pool { fn bad(&self) { self.dirty.mark(); } }",
            ),
        ]);
        let fs = run(&w, &cfg_dirty());
        assert_eq!(fs.len(), 1, "{fs:?}");
        assert_eq!(fs[0].file, "crates/buffer/src/pool.rs");
        assert_eq!(
            fs[0].key,
            "confine:crates/buffer/src/pool.rs:DirtySet.mark@fn-bad"
        );
    }

    #[test]
    fn own_methods_and_other_types_are_exempt() {
        let w = Workspace::of(&[
            (
                "crates/core/src/group.rs",
                "struct DirtySet { m: Mutex<u32> }
                 impl DirtySet { fn mark(&self) {} fn clear(&self) { self.mark(); } }",
            ),
            (
                "crates/wal/src/store.rs",
                "struct Log { x: u32 } impl Log { fn mark(&self) {} }
                 struct W { log: Log } impl W { fn go(&self) { self.log.mark(); } }",
            ),
        ]);
        assert!(run(&w, &cfg_dirty()).is_empty());
    }

    #[test]
    fn unresolved_receiver_flags_only_exclusive_names() {
        // `mark` exists only on DirtySet -> unresolved local still hits.
        let w = Workspace::of(&[
            (
                "crates/core/src/group.rs",
                "struct DirtySet { m: Mutex<u32> } impl DirtySet { fn mark(&self) {} }",
            ),
            (
                "crates/check/src/sweep.rs",
                "fn sneak(d: &DirtySet) { d.mark(); }",
            ),
        ]);
        let fs = run(&w, &cfg_dirty());
        assert_eq!(fs.len(), 1, "{fs:?}");
        assert_eq!(fs[0].file, "crates/check/src/sweep.rs");
    }
}
