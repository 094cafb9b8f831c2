//! The one source model behind `cargo xtask lint` and `cargo xtask
//! analyze`: every `.rs` file under `crates/*/src` and `src`, read once
//! and lexed once by the analyze [`lexer`](crate::analyze::lexer), with
//! every token marked as test code or not.
//!
//! One rule decides what is test code ([`mark_test_code`]): an
//! `#[cfg(test)]` attribute and the item, field, struct-literal field,
//! argument or statement that follows it. The lint rules and the analyze
//! index read only unmarked tokens.

use std::path::{Path, PathBuf};

use crate::analyze::lexer::{lex, Tok, TokKind};

/// One workspace source file.
pub struct SourceFile {
    /// Path relative to the workspace root, `/`-separated.
    pub rel_path: String,
    /// Every token, comments included, with [`Tok::test`] set.
    pub toks: Vec<Tok>,
}

impl SourceFile {
    /// Lex `text` and mark its test code.
    pub fn new(rel_path: &str, text: &str) -> SourceFile {
        let mut toks = lex(text);
        mark_test_code(&mut toks, text.as_bytes());
        SourceFile {
            rel_path: rel_path.to_string(),
            toks,
        }
    }

    /// The production code: tokens that are neither comments nor test code.
    pub fn production(&self) -> Vec<&Tok> {
        self.toks
            .iter()
            .filter(|t| !t.test && t.kind != TokKind::Comment)
            .collect()
    }
}

/// Load every `.rs` file under `crates/*/src` and the root package's
/// `src`, sorted by path.
///
/// # Errors
/// Returns a message when a directory or file cannot be read.
pub fn load(root: &Path) -> Result<Vec<SourceFile>, String> {
    let mut paths = Vec::new();
    if let Ok(entries) = std::fs::read_dir(root.join("crates")) {
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
    paths
        .iter()
        .map(|path| {
            let text = std::fs::read_to_string(path)
                .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
            Ok(SourceFile::new(&rel_path(root, path), &text))
        })
        .collect()
}

/// Walk up from the current directory to the first `Cargo.toml` that
/// declares `[workspace]`.
///
/// # Errors
/// Returns a message when the current directory cannot be read or no
/// workspace manifest lies above it.
pub fn workspace_root() -> Result<PathBuf, String> {
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

fn walk_rs(dir: &Path, out: &mut Vec<PathBuf>) -> Result<(), String> {
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

/// `path` relative to `root`, `/`-separated.
pub fn rel_path(root: &Path, path: &Path) -> String {
    path.strip_prefix(root)
        .unwrap_or(path)
        .components()
        .map(|c| c.as_os_str().to_string_lossy())
        .collect::<Vec<_>>()
        .join("/")
}

/// Mark every `#[cfg(test)]` attribute and the thing it annotates as test
/// code. This is the only place `cargo xtask` recognises `#[cfg(test)]`.
fn mark_test_code(toks: &mut [Tok], text: &[u8]) {
    let code: Vec<usize> = (0..toks.len())
        .filter(|&i| toks[i].kind != TokKind::Comment)
        .collect();
    let mut k = 0;
    while k < code.len() {
        let t = &toks[code[k]];
        if !(t.is_punct('#') && text[t.start..].starts_with(b"#[cfg(test)]")) {
            k += 1;
            continue;
        }
        // The attribute is the seven tokens `#` `[` `cfg` `(` `test` `)` `]`.
        let end = item_end(toks, &code, k + 7, text);
        for t in &mut toks[code[k]..=code[end - 1]] {
            t.test = true;
        }
        k = end;
    }
}

/// Where the annotated thing starting at code token `k` ends, at
/// delimiter depth 0: after its `;` or `,`, after its first brace block,
/// or just before a closing delimiter, which belongs to the enclosing
/// list. So a field ends at its comma, not at the end of the next `impl`.
/// A `<` glued to an identifier or a path opens a generic list, so
/// `impl<A, B>` does not end at its comma (rustfmt spaces every
/// comparison).
fn item_end(toks: &[Tok], code: &[usize], mut k: usize, text: &[u8]) -> usize {
    let (mut depth, mut angle) = (0usize, 0usize);
    while k < code.len() {
        let t = &toks[code[k]];
        let prev = text[t.start - 1];
        let c = if t.kind == TokKind::Punct {
            t.text.as_bytes()[0]
        } else {
            0
        };
        match c {
            b'{' | b'(' | b'[' => depth += 1,
            b'}' | b')' | b']' if depth == 0 => return k,
            b'}' if depth == 1 => return k + 1,
            b'}' | b')' | b']' => depth -= 1,
            b'<' if prev.is_ascii_alphanumeric() || matches!(prev, b'_' | b':') => angle += 1,
            b'>' if angle > 0 && !matches!(prev, b'-' | b'=') => angle -= 1,
            b';' if depth == 0 => return k + 1,
            b',' if depth == 0 && angle == 0 => return k + 1,
            _ => {}
        }
        k += 1;
    }
    k
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The texts of the production tokens, space-joined.
    fn production(src: &str) -> String {
        let file = SourceFile::new("crates/x/src/lib.rs", src);
        let texts: Vec<&str> = file.production().iter().map(|t| t.text.as_str()).collect();
        texts.join(" ")
    }

    #[test]
    fn comments_and_strings_are_not_code() {
        let src = "let x = \"unwrap()\"; // unwrap()\n/* unwrap() */ y.unwrap();\n";
        let file = SourceFile::new("crates/x/src/lib.rs", src);
        let idents = file
            .production()
            .iter()
            .filter(|t| t.is_ident("unwrap"))
            .count();
        assert_eq!(idents, 1);
        assert_eq!(file.toks.last().map(|t| t.line), Some(2));
    }

    #[test]
    fn raw_strings_and_chars_are_opaque() {
        let src = "let s = r#\"a \"quoted\" unwrap()\"#; let c = '\"'; let l: &'static str = x;\n";
        let file = SourceFile::new("crates/x/src/lib.rs", src);
        let code = file.production();
        assert!(!code
            .iter()
            .any(|t| t.is_ident("unwrap") || t.is_ident("quoted")));
        assert_eq!(code.iter().filter(|t| t.kind == TokKind::Str).count(), 1);
        assert!(production(src).contains("& 'static str"));
    }

    #[test]
    fn test_modules_fns_and_uses_are_marked() {
        let src =
            "fn prod() { a.unwrap(); }\n#[cfg(test)]\nmod tests {\n fn t() { b.unwrap(); }\n}\n\
                   #[cfg(test)]\nfn standalone() {}\n#[cfg(test)]\nuse foo::bar;\n\
                   #[cfg(test)]\npub(crate) fn images() {}\nfn after() {}\n";
        let code = production(src);
        assert_eq!(code.matches("unwrap").count(), 1);
        assert!(!code.contains("foo") && !code.contains("standalone"));
        assert!(!code.contains("images") && code.contains("fn after ( )"));
    }

    #[test]
    fn test_only_fields_and_arguments_end_at_their_comma() {
        let src = "struct S {\n    #[cfg(test)]\n    hook: Option<Hook>,\n    n: u8,\n}\n\
                   impl S {\n    fn f(&self) { a.unwrap(); }\n}\n\
                   fn g() { S { #[cfg(test)] hook: None, n: b.unwrap() }; }\n\
                   fn h() { call(#[cfg(test)] c.unwrap()); }\n\
                   #[cfg(test)]\nimpl<A, B> T for S<A, B> { fn t() { d.unwrap(); } }\n";
        let code = production(src);
        assert!(code.contains("a . unwrap ( )") && code.contains("b . unwrap ( )"));
        assert!(!code.contains("c . unwrap") && !code.contains("d . unwrap"));
        assert!(!code.contains("hook") && code.contains("n : u8 ,"));
    }

    #[test]
    fn test_statements_inside_a_production_fn_are_marked() {
        let src = "fn f() {\n    #[cfg(test)]\n    self.hook.fire();\n    self.real();\n}\n";
        let code = production(src);
        assert!(!code.contains("fire") && code.contains("real"));
    }

    #[test]
    fn comments_after_a_test_item_stay_unmarked() {
        let src = "#[cfg(test)]\nuse x;\n/// # Errors\npub fn f() {}\n";
        let file = SourceFile::new("crates/x/src/lib.rs", src);
        let doc = file.toks.iter().find(|t| t.kind == TokKind::Comment);
        assert!(doc.is_some_and(|t| !t.test));
    }
}
