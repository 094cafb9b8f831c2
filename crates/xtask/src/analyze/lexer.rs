//! A hand-rolled Rust lexer: the single tokenizer behind the workspace
//! source model ([`crate::source`]) that the lint rules and the `analyze`
//! passes both read.
//!
//! It is deliberately not a full grammar — no keywords table, no
//! multi-character operators — just the token classes the downstream
//! item indexer and passes need: identifiers, punctuation, literals,
//! lifetimes, and comments (kept, with positions, because the
//! atomic-ordering pass reads justification comments). Byte-scanner
//! idiom throughout; positions are 1-based lines.

/// Token classes. Punctuation stays single-character; `::` and `->` are
/// recognized by the parser from adjacent `Punct` tokens.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TokKind {
    Ident,
    Punct,
    Int,
    Float,
    Str,
    Char,
    Lifetime,
    Comment,
}

/// One token with its (1-based) source line and byte offset.
#[derive(Debug, Clone)]
pub struct Tok {
    pub kind: TokKind,
    pub text: String,
    pub line: u32,
    pub start: usize,
    /// Test code: set by [`crate::source`], never by the lexer.
    pub test: bool,
}

impl Tok {
    pub fn is_punct(&self, c: char) -> bool {
        self.kind == TokKind::Punct && self.text.len() == 1 && self.text.as_bytes()[0] == c as u8
    }

    pub fn is_ident(&self, s: &str) -> bool {
        self.kind == TokKind::Ident && self.text == s
    }
}

/// Lex `text` into tokens, comments included.
// One linear scanner; splitting it obscures the state machine, and the
// byte-cursor idiom (b, n, i, j, c) is the clearest spelling of it.
#[allow(
    clippy::too_many_lines,
    clippy::many_single_char_names,
    clippy::naive_bytecount
)]
pub fn lex(text: &str) -> Vec<Tok> {
    let b = text.as_bytes();
    let n = b.len();
    let mut toks = Vec::new();
    let mut i = 0;
    let mut line: u32 = 1;

    // Count newlines in b[from..to] (multi-line tokens advance `line`).
    let newlines = |from: usize, to: usize| -> u32 {
        b[from..to.min(n)].iter().filter(|&&c| c == b'\n').count() as u32
    };
    let push = |toks: &mut Vec<Tok>, kind: TokKind, from: usize, to: usize, line: u32| {
        toks.push(Tok {
            kind,
            text: String::from_utf8_lossy(&b[from..to.min(n)]).into_owned(),
            line,
            start: from,
            test: false,
        });
    };

    while i < n {
        let c = b[i];
        if c == b'\n' {
            line += 1;
            i += 1;
        } else if c.is_ascii_whitespace() {
            i += 1;
        } else if c == b'/' && i + 1 < n && b[i + 1] == b'/' {
            let start = i;
            while i < n && b[i] != b'\n' {
                i += 1;
            }
            push(&mut toks, TokKind::Comment, start, i, line);
        } else if c == b'/' && i + 1 < n && b[i + 1] == b'*' {
            let start = i;
            let start_line = line;
            let mut depth = 1;
            i += 2;
            while i < n && depth > 0 {
                if b[i] == b'/' && i + 1 < n && b[i + 1] == b'*' {
                    depth += 1;
                    i += 2;
                } else if b[i] == b'*' && i + 1 < n && b[i + 1] == b'/' {
                    depth -= 1;
                    i += 2;
                } else {
                    if b[i] == b'\n' {
                        line += 1;
                    }
                    i += 1;
                }
            }
            push(&mut toks, TokKind::Comment, start, i, start_line);
        } else if c == b'"' {
            let start = i;
            let start_line = line;
            i += 1;
            while i < n {
                if b[i] == b'\\' {
                    i += 2;
                } else if b[i] == b'"' {
                    i += 1;
                    break;
                } else {
                    i += 1;
                }
            }
            line += newlines(start, i);
            push(&mut toks, TokKind::Str, start, i, start_line);
        } else if (c == b'r' || c == b'b') && maybe_raw_or_byte_string(b, i) {
            // r", r#", b", br", br#" — and b'x' byte chars.
            let start = i;
            let start_line = line;
            let mut j = i;
            if b[j] == b'b' {
                j += 1;
            }
            if j < n && b[j] == b'\'' {
                // Byte char literal b'x'.
                i = j + 1;
                while i < n {
                    if b[i] == b'\\' {
                        i += 2;
                    } else if b[i] == b'\'' {
                        i += 1;
                        break;
                    } else {
                        i += 1;
                    }
                }
                push(&mut toks, TokKind::Char, start, i, start_line);
                continue;
            }
            let raw = j < n && b[j] == b'r';
            if raw {
                j += 1;
            }
            let mut hashes = 0;
            while j < n && b[j] == b'#' {
                hashes += 1;
                j += 1;
            }
            // maybe_raw_or_byte_string guaranteed a quote here.
            i = j + 1;
            if raw {
                'outer: while i < n {
                    if b[i] == b'"' {
                        let mut k = 0;
                        while k < hashes && i + 1 + k < n && b[i + 1 + k] == b'#' {
                            k += 1;
                        }
                        if k == hashes {
                            i += 1 + hashes;
                            break 'outer;
                        }
                    }
                    i += 1;
                }
            } else {
                while i < n {
                    if b[i] == b'\\' {
                        i += 2;
                    } else if b[i] == b'"' {
                        i += 1;
                        break;
                    } else {
                        i += 1;
                    }
                }
            }
            line += newlines(start, i);
            push(&mut toks, TokKind::Str, start, i, start_line);
        } else if c == b'\'' {
            // Lifetime (`'a`) or char literal (`'x'`, `'\n'`).
            let is_lifetime = i + 1 < n
                && (b[i + 1].is_ascii_alphabetic() || b[i + 1] == b'_')
                && !(i + 2 < n && b[i + 2] == b'\'');
            let start = i;
            if is_lifetime {
                i += 1;
                while i < n && (b[i].is_ascii_alphanumeric() || b[i] == b'_') {
                    i += 1;
                }
                push(&mut toks, TokKind::Lifetime, start, i, line);
            } else {
                i += 1;
                while i < n {
                    if b[i] == b'\\' {
                        i += 2;
                    } else if b[i] == b'\'' {
                        i += 1;
                        break;
                    } else {
                        i += 1;
                    }
                }
                push(&mut toks, TokKind::Char, start, i, line);
            }
        } else if c.is_ascii_alphabetic() || c == b'_' {
            let start = i;
            while i < n && (b[i].is_ascii_alphanumeric() || b[i] == b'_') {
                i += 1;
            }
            push(&mut toks, TokKind::Ident, start, i, line);
        } else if c.is_ascii_digit() {
            let start = i;
            let mut is_float = false;
            while i < n {
                let d = b[i];
                if d.is_ascii_alphanumeric() || d == b'_' {
                    i += 1;
                } else if d == b'.' && i + 1 < n && b[i + 1].is_ascii_digit() {
                    // `1.5` is a float; `1.method()` and `0..n` are not.
                    is_float = true;
                    i += 1;
                } else {
                    break;
                }
            }
            push(
                &mut toks,
                if is_float {
                    TokKind::Float
                } else {
                    TokKind::Int
                },
                start,
                i,
                line,
            );
        } else {
            push(&mut toks, TokKind::Punct, i, i + 1, line);
            i += 1;
        }
    }
    toks
}

/// Does `b[i..]` start a raw/byte string (or byte char) literal rather
/// than a plain identifier beginning with `r`/`b`? Must not be preceded
/// by an identifier character (e.g. the `r` in `var`).
fn maybe_raw_or_byte_string(b: &[u8], i: usize) -> bool {
    if i > 0 && (b[i - 1].is_ascii_alphanumeric() || b[i - 1] == b'_') {
        return false;
    }
    let n = b.len();
    let mut j = i;
    if b[j] == b'b' {
        j += 1;
        if j < n && b[j] == b'\'' {
            return true; // b'x'
        }
    }
    let raw = j < n && b[j] == b'r';
    if raw {
        j += 1;
    }
    while j < n && b[j] == b'#' {
        if !raw {
            return false;
        }
        j += 1;
    }
    j < n && b[j] == b'"' && (raw || j > i)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn kinds(src: &str) -> Vec<(TokKind, String)> {
        lex(src).into_iter().map(|t| (t.kind, t.text)).collect()
    }

    #[test]
    fn idents_puncts_and_lines() {
        let toks = lex("foo.bar(x);\nbaz");
        assert_eq!(toks[0].text, "foo");
        assert!(toks[1].is_punct('.'));
        assert_eq!(toks.last().unwrap().line, 2);
    }

    #[test]
    fn comments_are_tokens_with_lines() {
        let toks = lex("a // ordering: pairs with store\nb");
        let c = toks.iter().find(|t| t.kind == TokKind::Comment).unwrap();
        assert!(c.text.contains("ordering:"));
        assert_eq!(c.line, 1);
        assert_eq!(toks.last().unwrap().line, 2);
    }

    #[test]
    fn strings_and_raw_strings_opaque() {
        let ks = kinds(r##"let s = r#"quoted "x" here"#; let t = "a\"b";"##);
        let strs: Vec<_> = ks.iter().filter(|(k, _)| *k == TokKind::Str).collect();
        assert_eq!(strs.len(), 2);
        assert!(!ks.iter().any(|(_, t)| t == "quoted"));
    }

    #[test]
    fn lifetimes_vs_char_literals() {
        let ks = kinds("fn f<'a>(x: &'a str) { let c = 'q'; }");
        assert!(ks.contains(&(TokKind::Lifetime, "'a".to_string())));
        assert!(ks.contains(&(TokKind::Char, "'q'".to_string())));
    }

    #[test]
    fn numbers_and_ranges() {
        let ks = kinds("0..24 1.5 0u32");
        assert_eq!(
            ks.iter().filter(|(k, _)| *k == TokKind::Int).count(),
            3 // 0, 24, 0u32
        );
        assert!(ks.contains(&(TokKind::Float, "1.5".to_string())));
    }

    #[test]
    fn multiline_string_advances_lines() {
        let toks = lex("let s = \"a\nb\nc\";\nnext");
        assert_eq!(toks.last().unwrap().line, 4);
    }
}
