//! Lossless-layout source preprocessing for the lint rules.
//!
//! [`strip`] replaces the contents of comments and string/char literals
//! with spaces (newlines preserved), so token rules can use naive
//! substring search without being fooled by doc examples or messages.
//! [`blank_test_items`] additionally blanks any item gated behind
//! `#[cfg(test)]`, so test-only code is exempt from production rules.
//!
//! The tokenization itself is the analyze [`lexer`](crate::analyze::lexer)
//! — one scanner serves both the lint gate and the analysis passes, so a
//! literal-form edge case (raw strings, byte chars, lifetimes) is fixed
//! in one place.

use crate::analyze::lexer::{lex, TokKind};

/// Replace comments and string/char/byte literals with spaces, keeping
/// every newline so line numbers survive.
pub fn strip(text: &str) -> String {
    let mut out = text.as_bytes().to_vec();
    for t in lex(text) {
        if matches!(t.kind, TokKind::Comment | TokKind::Str | TokKind::Char) {
            for slot in &mut out[t.start..t.end] {
                if *slot != b'\n' {
                    *slot = b' ';
                }
            }
        }
    }
    // Only ASCII token-boundary bytes were overwritten (non-ASCII interior
    // bytes of literals are blanked wholesale), so this cannot fail — but
    // fall back to a lossy conversion rather than panicking in the linter.
    String::from_utf8(out).unwrap_or_else(|e| String::from_utf8_lossy(e.as_bytes()).into_owned())
}

/// Blank every item annotated `#[cfg(test)]` (module, fn, impl, use, …)
/// in already-stripped source.
pub fn blank_test_items(code: &str) -> String {
    let mut out = code.as_bytes().to_vec();
    for (start, end) in test_item_spans(code) {
        for slot in &mut out[start..end] {
            if *slot != b'\n' {
                *slot = b' ';
            }
        }
    }
    String::from_utf8(out).unwrap_or_else(|e| String::from_utf8_lossy(e.as_bytes()).into_owned())
}

/// The byte spans `[start, end)` of every item, field, struct-literal
/// field or argument annotated `#[cfg(test)]` in already-stripped source.
/// Brace matching is reliable because comments and strings are gone;
/// [`strip`] keeps every offset, so the spans hold in the original text
/// too.
pub fn test_item_spans(code: &str) -> Vec<(usize, usize)> {
    let out = code.as_bytes();
    let needle = b"#[cfg(test)]";
    let mut spans = Vec::new();
    let mut search_from = 0;
    while let Some(pos) = find(out, needle, search_from) {
        let end = item_end(out, pos + needle.len());
        spans.push((pos, end));
        search_from = end;
    }
    spans
}

/// Where the annotated thing starting at `i` ends, at delimiter depth 0:
/// after its `;` or `,`, after its first brace block, or just before a
/// closing delimiter, which belongs to the enclosing list. So a field ends
/// at its comma, not at the end of the next `impl`. A `<` glued to an
/// identifier or a path opens a generic list, so `impl<A, B>` does not end
/// at its comma (rustfmt spaces every comparison).
fn item_end(code: &[u8], mut i: usize) -> usize {
    let (mut depth, mut angle) = (0usize, 0usize);
    while i < code.len() {
        let prev = code[i - 1];
        match code[i] {
            b'{' | b'(' | b'[' => depth += 1,
            b'}' | b')' | b']' if depth == 0 => return i,
            b'}' if depth == 1 => return i + 1,
            b'}' | b')' | b']' => depth -= 1,
            b'<' if prev.is_ascii_alphanumeric() || matches!(prev, b'_' | b':') => angle += 1,
            b'>' if angle > 0 && !matches!(prev, b'-' | b'=') => angle -= 1,
            b';' if depth == 0 => return i + 1,
            b',' if depth == 0 && angle == 0 => return i + 1,
            _ => {}
        }
        i += 1;
    }
    i
}

fn find(haystack: &[u8], needle: &[u8], from: usize) -> Option<usize> {
    if from >= haystack.len() {
        return None;
    }
    haystack[from..]
        .windows(needle.len())
        .position(|w| w == needle)
        .map(|p| p + from)
}

/// Count word-boundary occurrences of `token` (identifier rules).
pub fn count_token(code: &str, token: &str) -> usize {
    let b = code.as_bytes();
    let t = token.as_bytes();
    let mut count = 0;
    let mut from = 0;
    while let Some(pos) = find(b, t, from) {
        let left_ok = pos == 0 || !(b[pos - 1].is_ascii_alphanumeric() || b[pos - 1] == b'_');
        let end = pos + t.len();
        let right_ok = end >= b.len() || !(b[end].is_ascii_alphanumeric() || b[end] == b'_');
        if left_ok && right_ok {
            count += 1;
        }
        from = pos + 1;
    }
    count
}

/// 1-based line number of byte offset `pos`.
// `bytecount` would be faster, but lint inputs are small and the crate
// is not a workspace dependency.
#[allow(clippy::naive_bytecount)]
pub fn line_of(code: &str, pos: usize) -> usize {
    code.as_bytes()[..pos.min(code.len())]
        .iter()
        .filter(|&&c| c == b'\n')
        .count()
        + 1
}

/// All word-boundary match offsets of `token`.
pub fn token_positions(code: &str, token: &str) -> Vec<usize> {
    let b = code.as_bytes();
    let t = token.as_bytes();
    let mut out = Vec::new();
    let mut from = 0;
    while let Some(pos) = find(b, t, from) {
        let left_ok = pos == 0 || !(b[pos - 1].is_ascii_alphanumeric() || b[pos - 1] == b'_');
        let end = pos + t.len();
        let right_ok = end >= b.len() || !(b[end].is_ascii_alphanumeric() || b[end] == b'_');
        if left_ok && right_ok {
            out.push(pos);
        }
        from = pos + 1;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn strips_comments_and_strings() {
        let src = "let x = \"unwrap()\"; // unwrap()\n/* unwrap() */ y.unwrap();\n";
        let code = strip(src);
        assert_eq!(code.matches("unwrap").count(), 1);
        assert_eq!(code.lines().count(), src.lines().count());
    }

    #[test]
    fn strips_raw_strings_and_chars() {
        let src = "let s = r#\"a \"quoted\" unwrap()\"#; let c = '\"'; let l: &'static str = x;\n";
        let code = strip(src);
        assert!(!code.contains("unwrap"));
        assert!(code.contains("&'static str"));
    }

    #[test]
    fn blanks_test_modules_and_fns() {
        let src = "fn prod() { a.unwrap(); }\n#[cfg(test)]\nmod tests {\n fn t() { b.unwrap(); }\n}\n#[cfg(test)]\nuse foo::bar;\n";
        let code = blank_test_items(&strip(src));
        assert_eq!(code.matches("unwrap").count(), 1);
        assert!(!code.contains("foo::bar"));
    }

    #[test]
    fn test_only_fields_and_arguments_end_at_their_comma() {
        let src = "struct S {\n    #[cfg(test)]\n    hook: Option<Hook>,\n    n: u8,\n}\n\
                   impl S {\n    fn f(&self) { a.unwrap(); }\n}\n\
                   fn g() { S { #[cfg(test)] hook: None, n: b.unwrap() }; }\n\
                   fn h() { call(#[cfg(test)] c.unwrap()); }\n\
                   #[cfg(test)]\nimpl<A, B> T for S<A, B> { fn t() { d.unwrap(); } }\n";
        let code = blank_test_items(&strip(src));
        assert!(code.contains("a.unwrap()") && code.contains("b.unwrap()"));
        assert!(!code.contains("c.unwrap()") && !code.contains("d.unwrap()"));
        assert!(!code.contains("hook") && code.contains("n: u8,"));
    }

    #[test]
    fn token_boundaries() {
        let code = "unsafe_code unsafe not_unsafe { unsafe }";
        assert_eq!(count_token(code, "unsafe"), 2);
    }
}
