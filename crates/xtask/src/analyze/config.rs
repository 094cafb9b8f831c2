//! `analyze.conf` — the workspace's declaration of its lock managers,
//! read from `crates/xtask/analyze.conf`.
//!
//! Line-oriented; `#` starts a comment. One directive:
//!
//! ```text
//! lockentry <Class> <method>[,<method>...]
//!     Treat calls to these methods (any receiver that resolves to the
//!     class type, or name-unique calls) as acquiring lock class
//!     `<Class>` — for lock managers like `LockTable` whose acquire
//!     API is not a literal `.lock()`.
//! ```
//!
//! Every method a `lockentry` names must be defined on its type somewhere
//! in the workspace ([`Config::unresolved`]): a renamed or deleted method
//! would leave the directive matching nothing, and the lock class it
//! declares silently out of the order graph.

use crate::analyze::callgraph::Workspace;
use crate::analyze::findings::Finding;
use crate::analyze::CONFIG_FILE;

#[derive(Debug, Default)]
pub struct Config {
    pub lock_entries: Vec<LockEntry>,
}

#[derive(Debug)]
pub struct LockEntry {
    pub class: String,
    pub methods: Vec<String>,
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
                Some(other) => return Err(err(&format!("unknown directive `{other}`"))),
                None => {}
            }
        }
        Ok(cfg)
    }

    /// One finding per `lockentry` method that its type does not define
    /// in `ws`.
    pub fn unresolved(&self, ws: &Workspace) -> Vec<Finding> {
        let mut findings = Vec::new();
        for e in &self.lock_entries {
            let ty = e.class.split('.').next().unwrap_or(&e.class);
            for m in e.methods.iter().filter(|m| ws.method_on(ty, m).is_none()) {
                findings.push(Finding::new(
                    "lock-order",
                    "missing-method",
                    CONFIG_FILE,
                    0,
                    &format!("missing-method-{ty}.{m}"),
                    format!(
                        "lockentry names `{ty}::{m}`, which no workspace `impl {ty}` \
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
    fn parses_the_lockentry_directive() {
        let text = "
# comment
lockentry LockTable lock_page,lock_shared,lock_range
";
        let cfg = Config::parse(text).unwrap();
        assert_eq!(cfg.lock_entries[0].class, "LockTable");
        assert_eq!(cfg.lock_entries[0].methods.len(), 3);
    }

    #[test]
    fn rejects_malformed_lines() {
        assert!(Config::parse("lockentry LockTable").is_err());
        assert!(Config::parse("confine DirtySet mark -> crates/x.rs").is_err());
        assert!(Config::parse("frobnicate a b").is_err());
    }
}
