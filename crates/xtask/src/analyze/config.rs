//! `analyze.conf` — the workspace's declaration of its concurrency and
//! confinement invariants, read from `crates/xtask/analyze.conf`.
//!
//! Line-oriented; `#` starts a comment. Directives:
//!
//! ```text
//! lockentry <Class> <method>[,<method>...]
//!     Treat calls to these methods (any receiver that resolves to the
//!     class type, or name-unique calls) as acquiring lock class
//!     `<Class>` — for lock managers like `LockTable` whose acquire
//!     API is not a literal `.lock()`.
//!
//! confine <Type> <method>[,<method>...] -> <path-prefix>[,<path-prefix>...]
//!     Calls to the listed mutating methods of `<Type>` may only appear
//!     in files whose workspace-relative path starts with one of the
//!     prefixes.
//!
//! iopair <file> phys=<m>[,<m>...] recv=<ident>[,<ident>...] bill=<m>[,<m>...]
//!     In `<file>`, a fn calling any `phys` method on a receiver chain
//!     rooted at / passing through one of `recv` — or any `phys` fn by a
//!     path with one of `recv` among its segments (`std::fs::rename`) —
//!     performs physical I/O and must also call every `bill` method in
//!     the same fn body.
//!
//! tracepair <file> <fn> <EventKind-variant>
//!     `fn` in `file` must reference `EventKind::<variant>` exactly
//!     once (the single-witness rule for protocol transitions).
//! ```
//!
//! Every method a `lockentry` or `confine` names must be defined on its
//! type somewhere in the workspace ([`Config::unresolved`]): a renamed or
//! deleted method would leave the directive matching nothing, and the
//! rule it states silently off.

use crate::analyze::callgraph::Workspace;
use crate::analyze::findings::Finding;
use crate::analyze::CONFIG_FILE;

#[derive(Debug, Default)]
pub struct Config {
    pub lock_entries: Vec<LockEntry>,
    pub confines: Vec<Confine>,
    pub io_pairs: Vec<IoPair>,
    pub trace_pairs: Vec<TracePair>,
}

#[derive(Debug)]
pub struct LockEntry {
    pub class: String,
    pub methods: Vec<String>,
}

#[derive(Debug)]
pub struct Confine {
    pub ty: String,
    pub methods: Vec<String>,
    pub allowed: Vec<String>,
}

#[derive(Debug)]
pub struct IoPair {
    pub file: String,
    pub phys: Vec<String>,
    pub recv: Vec<String>,
    pub bill: Vec<String>,
}

#[derive(Debug)]
pub struct TracePair {
    pub file: String,
    pub func: String,
    pub event: String,
}

impl Config {
    /// Parse the config text.
    ///
    /// # Errors
    /// A directive line that does not match its grammar (with its line
    /// number, so the config stays maintainable).
    pub fn parse(text: &str) -> Result<Config, String> {
        let mut cfg = Config::default();
        for (lineno, raw) in text.lines().enumerate() {
            let line = raw.split('#').next().unwrap_or("").trim();
            if line.is_empty() {
                continue;
            }
            let err = |msg: &str| format!("analyze.conf:{}: {msg}: `{raw}`", lineno + 1);
            let mut words = line.split_whitespace();
            match words.next() {
                Some("lockentry") => {
                    let class = words.next().ok_or_else(|| err("missing class"))?;
                    let methods = words.next().ok_or_else(|| err("missing methods"))?;
                    cfg.lock_entries.push(LockEntry {
                        class: class.to_string(),
                        methods: split_list(methods),
                    });
                }
                Some("confine") => {
                    let ty = words.next().ok_or_else(|| err("missing type"))?;
                    let methods = words.next().ok_or_else(|| err("missing methods"))?;
                    let arrow = words.next();
                    if arrow != Some("->") {
                        return Err(err("expected `->` before the allowed paths"));
                    }
                    let allowed = words.next().ok_or_else(|| err("missing allowed paths"))?;
                    cfg.confines.push(Confine {
                        ty: ty.to_string(),
                        methods: split_list(methods),
                        allowed: split_list(allowed),
                    });
                }
                Some("iopair") => {
                    let file = words.next().ok_or_else(|| err("missing file"))?;
                    let mut phys = Vec::new();
                    let mut recv = Vec::new();
                    let mut bill = Vec::new();
                    for w in words {
                        if let Some(v) = w.strip_prefix("phys=") {
                            phys = split_list(v);
                        } else if let Some(v) = w.strip_prefix("recv=") {
                            recv = split_list(v);
                        } else if let Some(v) = w.strip_prefix("bill=") {
                            bill = split_list(v);
                        } else {
                            return Err(err("expected phys=/recv=/bill= groups"));
                        }
                    }
                    if phys.is_empty() || bill.is_empty() {
                        return Err(err("iopair needs non-empty phys= and bill="));
                    }
                    cfg.io_pairs.push(IoPair {
                        file: file.to_string(),
                        phys,
                        recv,
                        bill,
                    });
                }
                Some("tracepair") => {
                    let file = words.next().ok_or_else(|| err("missing file"))?;
                    let func = words.next().ok_or_else(|| err("missing fn"))?;
                    let event = words.next().ok_or_else(|| err("missing event"))?;
                    cfg.trace_pairs.push(TracePair {
                        file: file.to_string(),
                        func: func.to_string(),
                        event: event.to_string(),
                    });
                }
                Some(other) => return Err(err(&format!("unknown directive `{other}`"))),
                None => {}
            }
        }
        Ok(cfg)
    }

    /// One finding per `lockentry` or `confine` method that its type
    /// does not define in `ws`.
    pub fn unresolved(&self, ws: &Workspace) -> Vec<Finding> {
        let entries = self.lock_entries.iter().map(|e| {
            let ty = e.class.split('.').next().unwrap_or(&e.class);
            ("lock-order", "lockentry", ty, &e.methods)
        });
        let confines = self
            .confines
            .iter()
            .map(|c| ("confine", "confine", c.ty.as_str(), &c.methods));
        let mut findings = Vec::new();
        for (pass, directive, ty, methods) in entries.chain(confines) {
            for m in methods.iter().filter(|m| ws.method_on(ty, m).is_none()) {
                findings.push(Finding::new(
                    pass,
                    "missing-method",
                    CONFIG_FILE,
                    0,
                    &format!("missing-method-{ty}.{m}"),
                    format!(
                        "{directive} names `{ty}::{m}`, which no workspace `impl {ty}` \
                         defines: the directive matches nothing"
                    ),
                ));
            }
        }
        findings
    }
}

fn split_list(s: &str) -> Vec<String> {
    s.split(',')
        .map(str::trim)
        .filter(|w| !w.is_empty())
        .map(str::to_string)
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_every_directive() {
        let text = "
# comment
lockentry LockTable lock_page,lock_shared,lock_range
confine DirtySet mark,remove -> crates/core/src/engine.rs
iopair crates/array/src/array.rs phys=read,write recv=disk,disks bill=record_on,record_io
tracepair crates/core/src/engine.rs txn_commit CommitTwinFlip
";
        let cfg = Config::parse(text).unwrap();
        assert_eq!(cfg.lock_entries[0].methods.len(), 3);
        assert_eq!(cfg.confines[0].allowed, vec!["crates/core/src/engine.rs"]);
        assert_eq!(cfg.io_pairs[0].bill, vec!["record_on", "record_io"]);
        assert_eq!(cfg.trace_pairs[0].event, "CommitTwinFlip");
    }

    #[test]
    fn rejects_malformed_lines() {
        assert!(Config::parse("confine DirtySet mark crates/x.rs").is_err());
        assert!(Config::parse("frobnicate a b").is_err());
    }
}
