//! Token-tree builder and per-crate item index.
//!
//! From the lexer's flat token stream this module builds nested
//! delimiter groups, then scans them for the items the passes need:
//! `struct` field declarations (field name → type head, for receiver
//! resolution), `impl` blocks (method → self type), `fn` items with
//! their bodies, and the method/path call sites inside each body.
//! Test code (the tokens the source model marks) is left out of the
//! trees, so no pass sees a test item, field or statement.

use std::collections::BTreeMap;

use super::lexer::{Tok, TokKind};
use crate::source::SourceFile;

/// One node of the token tree: a leaf token or a delimited group.
#[derive(Debug, Clone)]
pub enum Tree {
    Leaf(Tok),
    Group(Group),
}

#[derive(Debug, Clone)]
pub struct Group {
    /// Opening delimiter: `(`, `[`, or `{`.
    pub delim: char,
    pub children: Vec<Tree>,
}

/// Build trees from lexed tokens. Comments (which the file index keeps
/// in a side table) and test code are dropped here. Unbalanced delimiters are
/// tolerated: a stray closer ends the innermost group.
pub fn build_trees(toks: &[Tok]) -> Vec<Tree> {
    let mut stack: Vec<Group> = Vec::new();
    let mut top: Vec<Tree> = Vec::new();
    for t in toks {
        if t.kind == TokKind::Comment || t.test {
            continue;
        }
        let c = if t.kind == TokKind::Punct {
            t.text.as_bytes().first().copied().unwrap_or(0)
        } else {
            0
        };
        match c {
            b'(' | b'[' | b'{' => stack.push(Group {
                delim: c as char,
                children: Vec::new(),
            }),
            b')' | b']' | b'}' => {
                if let Some(g) = stack.pop() {
                    let node = Tree::Group(g);
                    match stack.last_mut() {
                        Some(parent) => parent.children.push(node),
                        None => top.push(node),
                    }
                }
            }
            _ => {
                let node = Tree::Leaf(t.clone());
                match stack.last_mut() {
                    Some(g) => g.children.push(node),
                    None => top.push(node),
                }
            }
        }
    }
    // Unterminated groups (truncated input): close them all.
    while let Some(g) = stack.pop() {
        let node = Tree::Group(g);
        match stack.last_mut() {
            Some(parent) => parent.children.push(node),
            None => top.push(node),
        }
    }
    top
}

/// A struct field: `name: TyHead<...>`.
#[derive(Debug, Clone)]
pub struct FieldDecl {
    pub name: String,
    /// All path identifiers in the type, outermost first
    /// (`Arc<Mutex<Option<T>>>` → `["Arc", "Mutex", "Option", "T"]`).
    pub ty_path: Vec<String>,
}

#[derive(Debug, Clone)]
pub struct StructItem {
    pub name: String,
    pub fields: Vec<FieldDecl>,
}

/// One segment of a method receiver chain: `self.dur.intent.lock()` →
/// `[self, dur, intent]`, each non-call; `self.disk(id).read(b)` →
/// `[self, disk()]` with `disk` marked as a call.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Seg {
    pub name: String,
    pub is_call: bool,
}

#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CallKind {
    /// `recv.method(...)` — receiver chain in [`CallSite::recv`].
    Method,
    /// `a::b::method(...)` — full path in the vec (method last).
    Path(Vec<String>),
    /// `method(...)` with no receiver or path.
    Bare,
}

#[derive(Debug, Clone)]
pub struct CallSite {
    pub line: u32,
    pub method: String,
    pub recv: Vec<Seg>,
    pub kind: CallKind,
    /// Number of top-level (comma-separated) arguments.
    pub arity: usize,
}

/// An indexed `fn` item.
#[derive(Debug, Clone)]
pub struct FnItem {
    pub name: String,
    /// Self type of the enclosing `impl` block, if any.
    pub impl_ty: Option<String>,
    pub has_self: bool,
    /// Path idents of the return type, in order (`-> crate::Result<Page>`
    /// → `["crate", "Result", "Page"]`); empty when the fn returns `()`.
    pub ret_path: Vec<String>,
    /// Body tokens, flattened: group boundaries become markers.
    pub body: Vec<FlatTok>,
    pub calls: Vec<CallSite>,
}

/// Flattened body stream: passes walk this linearly while still seeing
/// nesting via the Open/Close markers.
#[derive(Debug, Clone)]
pub enum FlatTok {
    Tok(Tok),
    Open(char),
    Close(char),
}

/// Everything the passes need from one source file.
#[derive(Debug)]
pub struct FileIndex {
    /// Workspace-relative `/`-separated path.
    pub rel_path: String,
    /// Owning crate directory (`crates/core`) or `src` for the root.
    pub crate_dir: String,
    pub fns: Vec<FnItem>,
    pub structs: Vec<StructItem>,
    /// line → comment text (all comments on that line, joined).
    pub comments: BTreeMap<u32, String>,
}

impl FileIndex {
    /// Build the index for one file.
    pub fn build(file: &SourceFile) -> FileIndex {
        let rel_path = file.rel_path.as_str();
        let mut comments: BTreeMap<u32, String> = BTreeMap::new();
        for t in &file.toks {
            if t.kind == TokKind::Comment {
                let slot = comments.entry(t.line).or_default();
                if !slot.is_empty() {
                    slot.push(' ');
                }
                slot.push_str(&t.text);
            }
        }
        let trees = build_trees(&file.toks);
        let crate_dir = rel_path
            .strip_prefix("crates/")
            .and_then(|r| r.split_once('/'))
            .map_or_else(|| "src".to_string(), |(c, _)| format!("crates/{c}"));
        let mut index = FileIndex {
            rel_path: rel_path.to_string(),
            crate_dir,
            fns: Vec::new(),
            structs: Vec::new(),
            comments,
        };
        index.scan_items(&trees, None);
        index
    }

    /// Walk a tree level collecting items; recurses into `mod` and
    /// `impl` blocks.
    fn scan_items(&mut self, trees: &[Tree], impl_ty: Option<&str>) {
        let mut i = 0;
        while i < trees.len() {
            match &trees[i] {
                Tree::Leaf(t) if t.is_ident("fn") => i = self.scan_fn(trees, i, impl_ty),
                Tree::Leaf(t) if t.is_ident("struct") => i = self.scan_struct(trees, i),
                Tree::Leaf(t) if t.is_ident("impl") => {
                    // Find the body group; derive the self type from the
                    // header tokens.
                    let mut j = i + 1;
                    let mut header: Vec<&Tok> = Vec::new();
                    let mut body: Option<&Group> = None;
                    while j < trees.len() {
                        match &trees[j] {
                            Tree::Group(g) if g.delim == '{' => {
                                body = Some(g);
                                break;
                            }
                            Tree::Leaf(t) => header.push(t),
                            Tree::Group(_) => {}
                        }
                        j += 1;
                    }
                    if let Some(body) = body {
                        let ty = impl_self_type(&header);
                        self.scan_items(&body.children, ty.as_deref());
                    }
                    i = j + 1;
                }
                Tree::Leaf(t) if t.is_ident("mod") => {
                    // `mod name { ... }` or `mod name;`
                    let mut j = i + 1;
                    while j < trees.len() {
                        match &trees[j] {
                            Tree::Group(g) if g.delim == '{' => {
                                self.scan_items(&g.children, None);
                                j += 1;
                                break;
                            }
                            Tree::Leaf(t) if t.is_punct(';') => {
                                j += 1;
                                break;
                            }
                            _ => j += 1,
                        }
                    }
                    i = j;
                }
                // Everything else, trait and enum bodies included, is
                // skipped: a group is one tree, entered only above.
                _ => i += 1,
            }
        }
    }

    /// Index `fn name(...) ... { body }` starting at the `fn` token.
    /// Returns the index just past the item.
    fn scan_fn(&mut self, trees: &[Tree], at: usize, impl_ty: Option<&str>) -> usize {
        let Some(Tree::Leaf(name_tok)) = trees.get(at + 1) else {
            return at + 1;
        };
        if name_tok.kind != TokKind::Ident {
            return at + 1;
        }
        let name = name_tok.text.clone();
        // Find the parameter group, then the body brace group (skipping
        // the return type and where clauses). A `;` first means a trait
        // signature or extern decl — no body.
        let mut j = at + 2;
        let mut params: Option<&Group> = None;
        let mut body: Option<&Group> = None;
        let mut ret_path = Vec::new();
        let mut in_ret = false;
        while j < trees.len() {
            match &trees[j] {
                Tree::Group(g) if g.delim == '(' && params.is_none() => params = Some(g),
                Tree::Group(g) if g.delim == '{' && params.is_some() => {
                    body = Some(g);
                    j += 1;
                    break;
                }
                Tree::Leaf(t) if t.is_punct(';') => {
                    j += 1;
                    break;
                }
                Tree::Leaf(t) if params.is_some() => {
                    // Return type: idents between `->` and the body or a
                    // `where` clause.
                    if t.is_punct('>')
                        && matches!(trees.get(j.wrapping_sub(1)), Some(Tree::Leaf(p)) if p.is_punct('-'))
                    {
                        in_ret = true;
                    } else if t.is_ident("where") {
                        in_ret = false;
                    } else if in_ret && t.kind == TokKind::Ident {
                        ret_path.push(t.text.clone());
                    }
                }
                _ => {}
            }
            j += 1;
        }
        let has_self = params.is_some_and(|p| {
            p.children.iter().take(4).any(|t| match t {
                Tree::Leaf(t) => t.is_ident("self"),
                Tree::Group(_) => false,
            })
        });
        let mut flat = Vec::new();
        if let Some(body) = body {
            flatten_into(&body.children, &mut flat);
        }
        let calls = extract_calls(&flat);
        self.fns.push(FnItem {
            name,
            impl_ty: impl_ty.map(str::to_string),
            has_self,
            ret_path,
            body: flat,
            calls,
        });
        j
    }

    /// Index `struct Name { field: Ty, ... }` starting at `struct`.
    fn scan_struct(&mut self, trees: &[Tree], at: usize) -> usize {
        let Some(Tree::Leaf(name_tok)) = trees.get(at + 1) else {
            return at + 1;
        };
        let name = name_tok.text.clone();
        let mut j = at + 2;
        let mut fields = Vec::new();
        while j < trees.len() {
            match &trees[j] {
                Tree::Group(g) if g.delim == '{' => {
                    fields = parse_fields(&g.children);
                    j += 1;
                    break;
                }
                // Tuple struct `(..)` or unit `;` — nothing to index.
                Tree::Group(g) if g.delim == '(' => {}
                Tree::Leaf(t) if t.is_punct(';') => {
                    j += 1;
                    break;
                }
                _ => {}
            }
            j += 1;
        }
        self.structs.push(StructItem { name, fields });
        j
    }

    /// Comment text on `line`, if any.
    pub fn comment_on(&self, line: u32) -> Option<&str> {
        self.comments.get(&line).map(String::as_str)
    }
}

/// Self type of an `impl` header: the path after `for` if present, else
/// the first path after the generics. `impl<'a> fmt::Display for
/// Foo<'a>` → `Foo`; `impl DiskArray` → `DiskArray`.
fn impl_self_type(header: &[&Tok]) -> Option<String> {
    // Split at `for` if present (trait impl).
    let for_pos = header.iter().position(|t| t.is_ident("for"));
    let tail: &[&Tok] = match for_pos {
        Some(p) => &header[p + 1..],
        None => {
            // Skip leading generics `<...>` (tracked by depth).
            let mut depth = 0i32;
            let mut start = 0;
            for (i, t) in header.iter().enumerate() {
                if t.is_punct('<') {
                    depth += 1;
                } else if t.is_punct('>') {
                    depth -= 1;
                } else if depth == 0 && t.kind == TokKind::Ident {
                    start = i;
                    break;
                }
            }
            &header[start..]
        }
    };
    // Last ident of the leading path (`a::b::Ty` → `Ty`), stopping at `<`.
    let mut last = None;
    let mut i = 0;
    while i < tail.len() {
        let t = tail[i];
        if t.kind == TokKind::Ident {
            last = Some(t.text.clone());
            // Continue only across `::`.
            if i + 2 < tail.len() && tail[i + 1].is_punct(':') && tail[i + 2].is_punct(':') {
                i += 3;
                continue;
            }
            break;
        } else if t.is_punct('&') || t.kind == TokKind::Lifetime || t.is_ident("dyn") {
            i += 1;
        } else {
            break;
        }
    }
    last
}

/// Parse `name: Type, ...` field declarations inside a struct body,
/// skipping attributes and visibility.
fn parse_fields(children: &[Tree]) -> Vec<FieldDecl> {
    let mut fields = Vec::new();
    let mut i = 0;
    while i < children.len() {
        // Skip attributes and `pub`/`pub(...)`.
        loop {
            match children.get(i) {
                Some(Tree::Leaf(t)) if t.is_punct('#') => {
                    i += 1;
                    if matches!(children.get(i), Some(Tree::Group(g)) if g.delim == '[') {
                        i += 1;
                    }
                }
                Some(Tree::Leaf(t)) if t.is_ident("pub") => {
                    i += 1;
                    if matches!(children.get(i), Some(Tree::Group(g)) if g.delim == '(') {
                        i += 1;
                    }
                }
                _ => break,
            }
        }
        let Some(Tree::Leaf(name_tok)) = children.get(i) else {
            break;
        };
        if name_tok.kind != TokKind::Ident {
            break;
        }
        let name = name_tok.text.clone();
        i += 1;
        if !matches!(children.get(i), Some(Tree::Leaf(t)) if t.is_punct(':')) {
            break;
        }
        i += 1;
        // Type tokens up to the next top-level comma. `<`/`>` are leaf
        // puncts, so track angle depth explicitly.
        let mut depth = 0i32;
        let mut ty_path = Vec::new();
        let mut prev_was_path_sep = true;
        while i < children.len() {
            match &children[i] {
                Tree::Leaf(t) if t.is_punct(',') && depth == 0 => {
                    i += 1;
                    break;
                }
                Tree::Leaf(t) if t.is_punct('<') => depth += 1,
                Tree::Leaf(t) if t.is_punct('>') => depth -= 1,
                Tree::Leaf(t) if t.kind == TokKind::Ident => {
                    // Record path heads, not every segment: for
                    // `rda_obs::sync::Mutex<T>`, `Mutex` (the segment
                    // before `<` or the last of the path) is the head.
                    ty_path.push(t.text.clone());
                    let _ = prev_was_path_sep;
                    prev_was_path_sep = false;
                }
                _ => {}
            }
            i += 1;
        }
        // Path segments stay flat (`rda_obs::sync::Mutex<T>` records both
        // idents): the resolvers look for known heads (`Mutex`,
        // `RwLock`, `Arc`) anywhere in `ty_path`.
        fields.push(FieldDecl { name, ty_path });
    }
    fields
}

fn flatten_into(trees: &[Tree], out: &mut Vec<FlatTok>) {
    for t in trees {
        match t {
            Tree::Leaf(t) => out.push(FlatTok::Tok(t.clone())),
            Tree::Group(g) => {
                out.push(FlatTok::Open(g.delim));
                flatten_into(&g.children, out);
                out.push(FlatTok::Close(g.delim));
            }
        }
    }
}

/// Find every call site in a flattened body: an identifier directly
/// followed by a `(` group, classified by what precedes it.
pub fn extract_calls(flat: &[FlatTok]) -> Vec<CallSite> {
    let mut calls = Vec::new();
    for i in 0..flat.len() {
        let FlatTok::Tok(t) = &flat[i] else { continue };
        if t.kind != TokKind::Ident {
            continue;
        }
        let Some(FlatTok::Open('(')) = flat.get(i + 1) else {
            continue;
        };
        // Keyword guards: `if (..)`, `while (..)`, `for (..)`, `match (..)`.
        if matches!(
            t.text.as_str(),
            "if" | "while" | "for" | "match" | "return" | "in" | "fn" | "move" | "loop" | "else"
        ) {
            continue;
        }
        let arity = count_args(flat, i + 1);
        match prev_tok(flat, i) {
            Some((j, p)) if p.is_punct('.') => {
                let recv = walk_receiver(flat, j);
                calls.push(CallSite {
                    line: t.line,
                    method: t.text.clone(),
                    recv,
                    kind: CallKind::Method,
                    arity,
                });
            }
            Some((j, p)) if p.is_punct(':') => {
                // `path::method(` — collect the path backwards.
                let mut segs = vec![t.text.clone()];
                let mut k = j;
                // Expect `::` then an ident before each earlier segment.
                while let Some((k1, c1)) = prev_tok(flat, k + 1) {
                    if !c1.is_punct(':') {
                        break;
                    }
                    let Some((k2, c2)) = prev_tok(flat, k1) else {
                        break;
                    };
                    if !c2.is_punct(':') {
                        break;
                    }
                    let Some((k3, c3)) = prev_tok(flat, k2) else {
                        break;
                    };
                    if c3.kind != TokKind::Ident {
                        break;
                    }
                    segs.push(c3.text.clone());
                    if k3 == 0 {
                        break;
                    }
                    k = k3 - 1;
                }
                segs.reverse();
                // A lone `:` (struct-literal field init) is not a path.
                let kind = if segs.len() > 1 {
                    CallKind::Path(segs)
                } else {
                    CallKind::Bare
                };
                calls.push(CallSite {
                    line: t.line,
                    method: t.text.clone(),
                    recv: Vec::new(),
                    kind,
                    arity,
                });
            }
            _ => calls.push(CallSite {
                line: t.line,
                method: t.text.clone(),
                recv: Vec::new(),
                kind: CallKind::Bare,
                arity,
            }),
        }
    }
    calls
}

/// Number of top-level comma-separated arguments of the group opening
/// at `open` (which must be a `FlatTok::Open`).
fn count_args(flat: &[FlatTok], open: usize) -> usize {
    let mut depth = 0usize;
    let mut commas = 0usize;
    let mut any = false;
    for t in &flat[open..] {
        match t {
            FlatTok::Open(..) => depth += 1,
            FlatTok::Close(..) => {
                depth -= 1;
                if depth == 0 {
                    break;
                }
            }
            FlatTok::Tok(t) if depth == 1 => {
                any = true;
                if t.is_punct(',') {
                    commas += 1;
                }
            }
            FlatTok::Tok(_) => {}
        }
    }
    if any {
        commas + 1
    } else {
        0
    }
}

/// The token (with its index) before position `i`, if it is a leaf.
fn prev_tok(flat: &[FlatTok], i: usize) -> Option<(usize, &Tok)> {
    if i == 0 {
        return None;
    }
    match &flat[i - 1] {
        FlatTok::Tok(t) => Some((i - 1, t)),
        _ => None,
    }
}

/// Walk a receiver chain backwards from the `.` before a method name.
/// `dot` is the index of that `.` token. Produces root-first segments;
/// an unrecognized head (chained temporaries, indexing, etc.) yields an
/// empty vec, which resolvers treat as unknown.
fn walk_receiver(flat: &[FlatTok], dot: usize) -> Vec<Seg> {
    let mut segs: Vec<Seg> = Vec::new();
    let mut i = dot; // index of the `.` punct
    loop {
        // What precedes the dot: `ident` | `ident ( .. )` | `)` of a
        // non-call group | `]` indexing — we handle the first two.
        if i == 0 {
            break;
        }
        match &flat[i - 1] {
            FlatTok::Tok(t) if t.kind == TokKind::Ident => {
                segs.push(Seg {
                    name: t.text.clone(),
                    is_call: false,
                });
                i -= 1;
            }
            FlatTok::Close(c) if *c == '(' => {
                // A call in the chain: scan back to its Open, then the
                // ident before it.
                let mut depth = 0i32;
                let mut j = i - 1;
                loop {
                    match &flat[j] {
                        FlatTok::Close(..) => depth += 1,
                        FlatTok::Open(..) => {
                            depth -= 1;
                            if depth == 0 {
                                break;
                            }
                        }
                        FlatTok::Tok(_) => {}
                    }
                    if j == 0 {
                        return Vec::new();
                    }
                    j -= 1;
                }
                match (j > 0).then(|| &flat[j - 1]) {
                    Some(FlatTok::Tok(t)) if t.kind == TokKind::Ident => {
                        segs.push(Seg {
                            name: t.text.clone(),
                            is_call: true,
                        });
                        i = j - 1;
                    }
                    _ => return Vec::new(),
                }
            }
            _ => return Vec::new(),
        }
        // Continue only across another `.` — but not the second dot of
        // a `..` range (`for p in 0..self.x.f()`), where the chain's
        // real root is the ident after the range.
        match (i > 0).then(|| &flat[i - 1]) {
            Some(FlatTok::Tok(t))
                if t.is_punct('.')
                    && !matches!(
                        (i > 1).then(|| &flat[i - 2]),
                        Some(FlatTok::Tok(p)) if p.is_punct('.')
                    ) =>
            {
                i -= 1;
            }
            _ => break,
        }
    }
    segs.reverse();
    segs
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn indexes_impl_methods_and_fields() {
        let src = "
            struct DiskArray { fault: rda_obs::sync::Mutex<Option<u32>>, disks: Vec<SimDisk> }
            impl DiskArray {
                fn poke(&self) { self.fault.lock(); }
            }
        ";
        let idx = FileIndex::build(&SourceFile::new("crates/array/src/array.rs", src));
        assert_eq!(idx.structs.len(), 1);
        let s = &idx.structs[0];
        assert_eq!(s.name, "DiskArray");
        assert_eq!(s.fields[0].name, "fault");
        assert!(s.fields[0].ty_path.contains(&"Mutex".to_string()));
        let f = &idx.fns[0];
        assert_eq!(f.impl_ty.as_deref(), Some("DiskArray"));
        assert!(f.has_self);
        let lock = f.calls.iter().find(|c| c.method == "lock").unwrap();
        assert_eq!(
            lock.recv,
            vec![
                Seg {
                    name: "self".into(),
                    is_call: false
                },
                Seg {
                    name: "fault".into(),
                    is_call: false
                }
            ]
        );
    }

    #[test]
    fn trait_impl_self_type_after_for() {
        let src = "impl<'a> fmt::Display for Wrapper<'a> { fn fmt(&self) { } }";
        let idx = FileIndex::build(&SourceFile::new("crates/x/src/lib.rs", src));
        assert_eq!(idx.fns[0].impl_ty.as_deref(), Some("Wrapper"));
    }

    #[test]
    fn chained_call_receiver() {
        let src = "impl A { fn f(&self) { self.disk(id).read(b); } }";
        let idx = FileIndex::build(&SourceFile::new("crates/x/src/lib.rs", src));
        let read = idx.fns[0]
            .calls
            .iter()
            .find(|c| c.method == "read")
            .unwrap();
        assert_eq!(
            read.recv,
            vec![
                Seg {
                    name: "self".into(),
                    is_call: false
                },
                Seg {
                    name: "disk".into(),
                    is_call: true
                }
            ]
        );
    }

    #[test]
    fn range_bound_receiver_stops_at_double_dot() {
        // `0..self.a.f()` must not swallow the `..` and bail — the
        // chain's root is `self`, not the range.
        let src = "impl E { fn f(&self) { for p in 0..self.arr.data_pages() { g(p); } } }";
        let idx = FileIndex::build(&SourceFile::new("crates/x/src/lib.rs", src));
        let call = idx.fns[0]
            .calls
            .iter()
            .find(|c| c.method == "data_pages")
            .unwrap();
        assert_eq!(
            call.recv,
            vec![
                Seg {
                    name: "self".into(),
                    is_call: false
                },
                Seg {
                    name: "arr".into(),
                    is_call: false
                }
            ]
        );
    }

    #[test]
    fn path_calls_and_bare_calls() {
        let src = "fn f() { Tracer::new(7); helper(); }";
        let idx = FileIndex::build(&SourceFile::new("crates/x/src/lib.rs", src));
        let calls = &idx.fns[0].calls;
        assert!(calls.iter().any(|c| c.kind
            == CallKind::Path(vec!["Tracer".into(), "new".into()])
            && c.arity == 1));
        assert!(calls
            .iter()
            .any(|c| c.method == "helper" && c.kind == CallKind::Bare && c.arity == 0));
    }

    #[test]
    fn comments_recorded_by_line() {
        let src = "fn f() {\n    // ordering: pairs with the Release store in enable\n    x.load(Ordering::Acquire);\n}";
        let idx = FileIndex::build(&SourceFile::new("crates/x/src/lib.rs", src));
        assert!(idx.comment_on(2).unwrap().contains("ordering:"));
        assert!(idx.comment_on(3).is_none());
    }
}
