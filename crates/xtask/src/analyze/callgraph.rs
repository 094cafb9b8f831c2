//! Receiver typing and a conservative call-graph approximation.
//!
//! Resolution is *typed* where the item index supports it — `self`
//! methods, `self.field` chains through declared struct fields (seeing
//! through `Arc`/`Box`/`Option`-style wrappers), chained calls through
//! indexed return types, and `Type::method` paths — and falls back to a
//! name-based intra-crate match only when the method name is unique in
//! that crate, so ambiguity never fabricates edges. Unresolvable calls
//! simply resolve to nothing (an under-approximation the passes treat
//! conservatively at their own level).

use std::collections::BTreeMap;

use super::parse::{CallKind, CallSite, FieldDecl, FileIndex, FnItem, Seg};

/// Wrapper type heads that receiver typing sees through.
const WRAPPERS: &[&str] = &[
    "Arc", "Rc", "Box", "Option", "RefCell", "Cell", "Vec", "Mutex", "RwLock", "rda_obs", "std",
    "sync", "alloc", "core", "crate", "self",
];

/// Chain methods that return a guard or handle to the same logical
/// value (`mutex.lock()`, `arc.clone()`, `res.unwrap()`): receiver
/// typing passes the current type through them when the type has no
/// inherent method of that name.
const TRANSPARENT: &[&str] = &[
    "lock",
    "read",
    "write",
    "borrow",
    "borrow_mut",
    "as_ref",
    "as_mut",
    "clone",
    "unwrap",
    "expect",
];

/// Method names so common on std containers that an untyped receiver
/// must never fall back to a same-named inherent method by uniqueness.
const STD_METHODS: &[&str] = &[
    "len",
    "is_empty",
    "push",
    "pop",
    "insert",
    "remove",
    "get",
    "get_mut",
    "clear",
    "take",
    "iter",
    "iter_mut",
    "contains",
    "contains_key",
    "extend",
    "drain",
    "entry",
    "keys",
    "values",
    "clone",
    "to_vec",
    "to_string",
    "flush",
    "into",
    "from",
    "new",
];

/// Index of a fn as (file index, fn index within file).
pub type FnRef = (usize, usize);

pub struct Workspace {
    pub files: Vec<FileIndex>,
    /// Struct name → its fields (first definition wins on collision).
    fields_by_type: BTreeMap<String, Vec<FieldDecl>>,
    /// Method name → every fn with that name.
    fns_by_name: BTreeMap<String, Vec<FnRef>>,
    /// (impl type, method name) → fn.
    fns_by_impl: BTreeMap<(String, String), FnRef>,
}

impl Workspace {
    pub fn build(files: Vec<FileIndex>) -> Workspace {
        let mut fields_by_type = BTreeMap::new();
        let mut fns_by_name: BTreeMap<String, Vec<FnRef>> = BTreeMap::new();
        let mut fns_by_impl = BTreeMap::new();
        for (fi, file) in files.iter().enumerate() {
            for s in &file.structs {
                fields_by_type
                    .entry(s.name.clone())
                    .or_insert_with(|| s.fields.clone());
            }
            for (ki, f) in file.fns.iter().enumerate() {
                fns_by_name
                    .entry(f.name.clone())
                    .or_default()
                    .push((fi, ki));
                if let Some(ty) = &f.impl_ty {
                    fns_by_impl
                        .entry((ty.clone(), f.name.clone()))
                        .or_insert((fi, ki));
                }
            }
        }
        Workspace {
            files,
            fields_by_type,
            fns_by_name,
            fns_by_impl,
        }
    }

    pub fn fn_item(&self, r: FnRef) -> &FnItem {
        &self.files[r.0].fns[r.1]
    }

    pub fn file_of(&self, r: FnRef) -> &FileIndex {
        &self.files[r.0]
    }

    /// The declared field `name` of struct `ty`.
    pub fn field_of(&self, ty: &str, name: &str) -> Option<&FieldDecl> {
        self.fields_by_type.get(ty)?.iter().find(|f| f.name == name)
    }

    /// Meaningful head of a type path: the first ident that names an
    /// indexed struct or impl'd type; else the first non-wrapper ident;
    /// else the last ident.
    pub fn meaningful_type(&self, ty_path: &[String]) -> Option<String> {
        ty_path
            .iter()
            .find(|t| self.is_known_type(t))
            .or_else(|| ty_path.iter().find(|t| !WRAPPERS.contains(&t.as_str())))
            .or_else(|| ty_path.last())
            .cloned()
    }

    fn is_known_type(&self, name: &str) -> bool {
        self.fields_by_type.contains_key(name) || self.fns_by_impl.keys().any(|(ty, _)| ty == name)
    }

    /// Type a receiver chain in the context of `caller`. Returns the
    /// resolved type name of the full chain, or `None`.
    pub fn receiver_type(&self, caller: &FnItem, recv: &[Seg]) -> Option<String> {
        let mut segs = recv.iter();
        let first = segs.next()?;
        let mut cur: String = if first.name == "self" && !first.is_call {
            caller.impl_ty.clone()?
        } else if first.is_call {
            // Bare call root, e.g. `helper().x` — resolve by unique name.
            let ret = &self.fn_item(self.unique_fn(&first.name)?).ret_path;
            self.meaningful_type(ret)?
        } else {
            // A local or a path head: only type it if it names a type
            // (static/assoc-const chains); locals are untypable here.
            if self.is_known_type(&first.name) {
                first.name.clone()
            } else {
                return None;
            }
        };
        for seg in segs {
            cur = if seg.is_call {
                match self.method_on(&cur, &seg.name) {
                    Some(f) => self.meaningful_type(&self.fn_item(f).ret_path)?,
                    // Guard/handle methods are transparent: `.lock()` on
                    // a `Mutex<T>` field derefs to the `T` the ty_path
                    // already resolved to.
                    None if TRANSPARENT.contains(&seg.name.as_str()) => cur,
                    None => return None,
                }
            } else {
                let field = self.field_of(&cur, &seg.name)?;
                self.meaningful_type(&field.ty_path)?
            };
        }
        Some(cur)
    }

    /// The fn implementing `ty::method`, if indexed.
    pub fn method_on(&self, ty: &str, method: &str) -> Option<FnRef> {
        self.fns_by_impl
            .get(&(ty.to_string(), method.to_string()))
            .copied()
    }

    /// The only fn with this name in the whole workspace, if unique.
    pub fn unique_fn(&self, name: &str) -> Option<FnRef> {
        match self.fns_by_name.get(name).map(Vec::as_slice) {
            Some([one]) => Some(*one),
            _ => None,
        }
    }

    /// All fns named `name`.
    pub fn fns_named(&self, name: &str) -> &[FnRef] {
        self.fns_by_name.get(name).map_or(&[], Vec::as_slice)
    }

    /// Resolve a call site from `caller` to target fns. Typed first;
    /// name-unique intra-crate fallback; empty when ambiguous.
    pub fn resolve_call(&self, caller_ref: FnRef, call: &CallSite) -> Vec<FnRef> {
        let caller = self.fn_item(caller_ref);
        let caller_crate = &self.file_of(caller_ref).crate_dir;
        match &call.kind {
            CallKind::Method => {
                if let Some(ty) = self.receiver_type(caller, &call.recv) {
                    if let Some(f) = self.method_on(&ty, &call.method) {
                        return vec![f];
                    }
                    // Known receiver type without an indexed method
                    // (std type, trait method): no target.
                    if self.is_known_type(&ty) {
                        return Vec::new();
                    }
                }
                // Unresolved receiver: name-unique fallback within the
                // caller's crate — but only for a *direct* call on a
                // plain local (`engine.txn_read(..)` where `engine` is a
                // lock guard). A multi-segment untyped chain
                // (`guard.dur.array.data_pages()`) lands on whatever
                // type it reaches, an unwalkable receiver (empty chain:
                // temporaries, indexing) is anyone's guess, and a
                // same-named method elsewhere in the crate would be a
                // phantom edge. Likewise never resolve to the caller
                // itself — an untyped receiver sharing the caller's name
                // is far more likely trait dispatch
                // (`hook.power_cycled()`) than recursion, and a phantom
                // self-edge poisons the lock graph. Ubiquitous std
                // method names never fall back either: `batch.is_empty()`
                // on a `Vec` local must not resolve to some type's
                // inherent `is_empty`.
                if call.recv.len() != 1 || STD_METHODS.contains(&call.method.as_str()) {
                    return Vec::new();
                }
                let in_crate: Vec<FnRef> = self
                    .fns_named(&call.method)
                    .iter()
                    .copied()
                    .filter(|r| {
                        *r != caller_ref
                            && self.file_of(*r).crate_dir == *caller_crate
                            && self.fn_item(*r).has_self
                    })
                    .collect();
                if in_crate.len() == 1 {
                    in_crate
                } else {
                    Vec::new()
                }
            }
            CallKind::Path(segs) => {
                if segs.len() >= 2 {
                    let ty = &segs[segs.len() - 2];
                    if let Some(f) = self.method_on(ty, &call.method) {
                        return vec![f];
                    }
                }
                Vec::new()
            }
            CallKind::Bare => {
                // `drop(x)` is std::mem::drop, not whatever `Drop` impl
                // happens to live in this crate.
                if call.method == "drop" {
                    return Vec::new();
                }
                // Free fn: same file first, then name-unique in crate.
                let named = self.fns_named(&call.method);
                let same_file: Vec<FnRef> = named
                    .iter()
                    .copied()
                    .filter(|r| r.0 == caller_ref.0 && self.fn_item(*r).impl_ty.is_none())
                    .collect();
                if same_file.len() == 1 {
                    return same_file;
                }
                let in_crate: Vec<FnRef> = named
                    .iter()
                    .copied()
                    .filter(|r| self.file_of(*r).crate_dir == *caller_crate)
                    .collect();
                if in_crate.len() == 1 {
                    in_crate
                } else {
                    Vec::new()
                }
            }
        }
    }
}

#[cfg(test)]
impl Workspace {
    /// Index `(rel_path, text)` pairs as the workspace loader does.
    pub fn of(files: &[(&str, &str)]) -> Workspace {
        Workspace::build(
            files
                .iter()
                .map(|(p, s)| FileIndex::build(&crate::source::SourceFile::new(p, s)))
                .collect(),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn types_self_field_chains_through_wrappers() {
        let w = Workspace::of(&[(
            "crates/core/src/engine.rs",
            "
            struct Durable { twins: Arc<TwinDirectory> }
            struct Engine { dur: Durable }
            struct TwinDirectory { metas: Mutex<Vec<u32>> }
            impl TwinDirectory { fn commit_working(&self) {} }
            impl Engine {
                fn go(&self) { self.dur.twins.commit_working(); }
            }
            ",
        )]);
        let engine_go = w.fns_named("go")[0];
        let call = w
            .fn_item(engine_go)
            .calls
            .iter()
            .find(|c| c.method == "commit_working")
            .unwrap()
            .clone();
        let ty = w.receiver_type(w.fn_item(engine_go), &call.recv);
        assert_eq!(ty.as_deref(), Some("TwinDirectory"));
        let targets = w.resolve_call(engine_go, &call);
        assert_eq!(targets.len(), 1);
        assert_eq!(w.fn_item(targets[0]).name, "commit_working");
    }

    #[test]
    fn types_chained_method_calls_via_return_type() {
        let w = Workspace::of(&[(
            "crates/array/src/array.rs",
            "
            struct SimDisk { x: u32 }
            impl SimDisk { fn read(&self) {} }
            struct DiskArray { disks: Vec<SimDisk> }
            impl DiskArray {
                fn disk(&self) -> &SimDisk { &self.disks[0] }
                fn go(&self) { self.disk().read(); }
            }
            ",
        )]);
        let go = w.fns_named("go")[0];
        let call = w
            .fn_item(go)
            .calls
            .iter()
            .find(|c| c.method == "read")
            .unwrap()
            .clone();
        let targets = w.resolve_call(go, &call);
        assert_eq!(targets.len(), 1);
        assert_eq!(w.fn_item(targets[0]).impl_ty.as_deref(), Some("SimDisk"));
    }

    #[test]
    fn std_method_names_never_fall_back() {
        // `batch.is_empty()` on an untyped Vec local must not resolve to
        // the crate's only inherent `is_empty` by name-uniqueness.
        let w = Workspace::of(&[(
            "crates/wal/src/store.rs",
            "
            struct LogStore { inner: Mutex<Vec<u8>> }
            impl LogStore {
                fn is_empty(&self) -> bool { self.inner.lock().is_empty() }
                fn append(&self, batch: Vec<u8>) { if batch.is_empty() { return; } }
            }
            ",
        )]);
        let append = w
            .fns_named("append")
            .iter()
            .copied()
            .find(|r| w.fn_item(*r).name == "append")
            .unwrap();
        let call = w
            .fn_item(append)
            .calls
            .iter()
            .find(|c| c.method == "is_empty" && c.recv.first().is_some_and(|s| s.name == "batch"))
            .unwrap()
            .clone();
        assert!(w.resolve_call(append, &call).is_empty());
    }

    #[test]
    fn ambiguous_names_resolve_to_nothing() {
        let w = Workspace::of(&[(
            "crates/a/src/lib.rs",
            "struct A; impl A { fn poke(&self) {} } struct B; impl B { fn poke(&self) {} }
                 fn go(x: &Unknown) { x.poke(); }",
        )]);
        let go = w.fns_named("go")[0];
        let call = w.fn_item(go).calls[0].clone();
        assert!(w.resolve_call(go, &call).is_empty());
    }
}
