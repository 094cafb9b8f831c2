//! JSON rendering of a [`CrashpointReport`].
//!
//! Hand-rolled `format!` emitter: the report is the CI artifact the
//! crashpoint smoke job archives, so its shape is part of this crate's
//! contract and kept deliberately flat — one summary object plus one
//! compact record per explored crashpoint.

use crate::explorer::{Crashpoint, CrashpointReport};
use std::fmt::Write as _;

/// Escape a string for inclusion in a JSON string literal.
fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out
}

fn violations_json(violations: &[String]) -> String {
    let items: Vec<String> = violations
        .iter()
        .map(|v| format!("\"{}\"", escape(v)))
        .collect();
    format!("[{}]", items.join(","))
}

fn point_json(p: &Crashpoint, timed: bool) -> String {
    // The deterministic rendering carries billed I/O counts only; the
    // timed one adds per-phase `wall_us` and must never be byte-compared.
    let timeline = if timed {
        p.timeline.json_timed()
    } else {
        p.timeline.json_ios()
    };
    format!(
        "{{\"io_index\":{},\"fired\":{},\"clean\":{},\"committed_before\":{},\
         \"losers\":{},\"intent_replays\":{},\"torn_twins_healed\":{},\
         \"timeline\":{},\"violations\":{}}}",
        p.io_index,
        p.fired
            .map_or_else(|| "null".to_string(), |k| format!("\"{}\"", k.name())),
        p.is_clean(),
        p.committed_before,
        p.losers,
        p.intent_replays,
        p.torn_twins_healed,
        timeline,
        violations_json(&p.violations),
    )
}

impl CrashpointReport {
    /// Render the whole report as a single JSON object. Byte-identical
    /// for a given (config, trace, seed) regardless of worker count:
    /// per-phase timelines carry billed I/O counts, never wall-clock.
    #[must_use]
    pub fn to_json(&self) -> String {
        self.render(false)
    }

    /// Like [`CrashpointReport::to_json`] but each timeline phase also
    /// carries `wall_us`. Host-dependent — for human consumption only,
    /// never for byte comparison.
    #[must_use]
    pub fn to_json_timed(&self) -> String {
        self.render(true)
    }

    fn render(&self, timed: bool) -> String {
        let points: Vec<String> = self.points.iter().map(|p| point_json(p, timed)).collect();
        format!(
            "{{\"mode\":\"{}\",\"total_ios\":{},\"exhaustive\":{},\"explored\":{},\
             \"clean\":{},\"failures\":{},\"golden_committed\":{},\
             \"golden_violations\":{},\"points\":[{}]}}",
            self.mode.name(),
            self.total_ios,
            self.exhaustive,
            self.points.len(),
            self.is_clean(),
            self.failures().len(),
            self.golden_committed,
            violations_json(&self.golden_violations),
            points.join(","),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn escape_handles_quotes_and_controls() {
        assert_eq!(escape("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
        assert_eq!(escape("\u{1}"), "\\u0001");
    }

    #[test]
    fn empty_report_renders() {
        let report = CrashpointReport {
            mode: crate::ExploreMode::Crash,
            total_ios: 0,
            exhaustive: true,
            golden_committed: 0,
            golden_violations: Vec::new(),
            points: Vec::new(),
            worker_timings: Vec::new(),
        };
        let json = report.to_json();
        assert!(json.starts_with('{') && json.ends_with('}'));
        assert!(json.contains("\"mode\":\"crash\""));
        assert!(json.contains("\"clean\":true"));
    }
}
