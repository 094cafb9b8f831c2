//! Findings, the justification baseline, and the JSON artifact.
//!
//! Every pass emits [`Finding`]s with a *stable key* (pass, file, and a
//! symbolic anchor — never a line number, so baselines survive
//! unrelated edits). The baseline file maps keys to justifications;
//! a finding matching a baseline entry is reported but does not fail
//! the gate. The JSON artifact carries everything machine-readable for
//! CI.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::Path;

/// Workspace-relative path of the justification baseline.
pub const BASELINE_FILE: &str = "crates/xtask/analyze-baseline.txt";

#[derive(Debug, Clone)]
pub struct Finding {
    /// Which pass produced it: `lock-order` or `atomics`.
    pub pass: &'static str,
    /// Short machine code within the pass, e.g. `cycle`,
    /// `missing-justification`, `release-unread`.
    pub code: &'static str,
    pub file: String,
    pub line: u32,
    pub message: String,
    /// Stable baseline key: `<pass>:<file>:<anchor>`.
    pub key: String,
}

impl Finding {
    pub fn new(
        pass: &'static str,
        code: &'static str,
        file: &str,
        line: u32,
        anchor: &str,
        message: String,
    ) -> Finding {
        Finding {
            pass,
            code,
            file: file.to_string(),
            line,
            message,
            key: format!("{pass}:{file}:{anchor}"),
        }
    }
}

/// Baseline entries: key → justification.
#[derive(Debug, Default)]
pub struct Baseline {
    pub entries: BTreeMap<String, String>,
}

impl Baseline {
    /// Load `crates/xtask/analyze-baseline.txt` under `root`; a missing
    /// file is an empty baseline.
    ///
    /// # Errors
    /// An entry line without ` | justification` — every baselined
    /// finding must say *why* it is acceptable.
    pub fn load(root: &Path) -> Result<Baseline, String> {
        let path = root.join(BASELINE_FILE);
        let Ok(text) = std::fs::read_to_string(&path) else {
            return Ok(Baseline::default());
        };
        let mut entries = BTreeMap::new();
        for (lineno, raw) in text.lines().enumerate() {
            let line = raw.trim();
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            let Some((key, why)) = line.split_once('|') else {
                return Err(format!(
                    "{BASELINE_FILE}:{}: entry lacks a ` | justification`: `{raw}`",
                    lineno + 1
                ));
            };
            let why = why.trim();
            if why.is_empty() {
                return Err(format!(
                    "{BASELINE_FILE}:{}: empty justification: `{raw}`",
                    lineno + 1
                ));
            }
            entries.insert(key.trim().to_string(), why.to_string());
        }
        Ok(Baseline { entries })
    }
}

/// Render the findings (with baseline resolution) as the JSON artifact.
/// Hand-rolled writer: xtask builds with no dependencies beyond `std`.
pub fn to_json(findings: &[Finding], baseline: &Baseline, passes_run: &[&str]) -> String {
    let mut out = String::from("{\n");
    out.push_str("  \"schema\": \"rda-analyze/v1\",\n");
    out.push_str("  \"passes\": [");
    for (i, p) in passes_run.iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        json_str(p, &mut out);
    }
    out.push_str("],\n");
    let unbaselined = findings
        .iter()
        .filter(|f| !baseline.entries.contains_key(&f.key))
        .count();
    let _ = writeln!(
        out,
        "  \"total\": {}, \"unbaselined\": {},",
        findings.len(),
        unbaselined
    );
    out.push_str("  \"findings\": [");
    for (i, f) in findings.iter().enumerate() {
        out.push_str(if i > 0 { ",\n    " } else { "\n    " });
        out.push_str("{\"pass\": ");
        json_str(f.pass, &mut out);
        out.push_str(", \"code\": ");
        json_str(f.code, &mut out);
        out.push_str(", \"file\": ");
        json_str(&f.file, &mut out);
        let _ = write!(out, ", \"line\": {}", f.line);
        out.push_str(", \"key\": ");
        json_str(&f.key, &mut out);
        out.push_str(", \"message\": ");
        json_str(&f.message, &mut out);
        match baseline.entries.get(&f.key) {
            Some(why) => {
                out.push_str(", \"baselined\": true, \"justification\": ");
                json_str(why, &mut out);
            }
            None => out.push_str(", \"baselined\": false"),
        }
        out.push('}');
    }
    if !findings.is_empty() {
        out.push_str("\n  ");
    }
    out.push_str("]\n}\n");
    out
}

fn json_str(s: &str, out: &mut String) {
    out.push('"');
    for ch in s.chars() {
        match ch {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn baseline_requires_justifications() {
        let dir = std::env::temp_dir().join(format!("xtask-bl-{}", std::process::id()));
        std::fs::create_dir_all(dir.join("crates/xtask")).unwrap();
        std::fs::write(
            dir.join(BASELINE_FILE),
            "# comment\nlock-order:crates/core/src/engine.rs:self-LockTable | try-acquire only, never blocks\n",
        )
        .unwrap();
        let bl = Baseline::load(&dir).unwrap();
        assert_eq!(bl.entries.len(), 1);
        std::fs::write(dir.join(BASELINE_FILE), "some-key-without-why\n").unwrap();
        assert!(Baseline::load(&dir).is_err());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn json_marks_baselined_findings() {
        let f = Finding::new(
            "atomics",
            "missing-justification",
            "crates/obs/src/trace.rs",
            42,
            "Tracer.next-load",
            "say \"why\"".to_string(),
        );
        let mut bl = Baseline::default();
        bl.entries.insert(f.key.clone(), "historic".to_string());
        let json = to_json(&[f], &bl, &["atomics"]);
        assert!(json.contains("\"baselined\": true"));
        assert!(json.contains("\"unbaselined\": 0"));
        assert!(json.contains("say \\\"why\\\""));
    }
}
