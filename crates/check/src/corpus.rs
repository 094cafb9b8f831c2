//! The replayable regression corpus.
//!
//! Every interesting counterexample the checker has ever found (or a
//! scenario worth pinning) lives as one JSON file under
//! `crates/check/corpus/`. A corpus entry is a [`Schedule`] plus its
//! *expectation*: whether the replay must pass or fail, which protocol
//! mutations to compile in, and which trace events the run is required to
//! have exercised (so a refactor that silently stops covering, say,
//! `ParityUndo` breaks the corpus test instead of quietly weakening it).

use crate::checker::run_schedule;
use crate::schedule::Schedule;
use rda_core::ProtocolMutations;
use rda_obs::json::{Json, ToJson};
use rda_obs::json_obj;
use std::fs;
use std::path::Path;

/// One corpus entry: a schedule and what replaying it must observe.
#[derive(Debug, Clone)]
pub struct CorpusEntry {
    /// The schedule to replay.
    pub schedule: Schedule,
    /// Must the replay fail (true) or pass (false)?
    pub expect_fail: bool,
    /// Protocol mutations to compile into the engine for this entry.
    pub mutations: ProtocolMutations,
    /// Event tokens the replay must exercise: engine events (e.g.
    /// `ParityUndo`, `Steal:logged`, `TornTwinHeal`) and the runner's
    /// synthetic `CrossShardCommit` / `IntentReplayed` / `FaultFired`.
    pub requires: Vec<String>,
}

impl CorpusEntry {
    /// Serialize to the corpus JSON shape.
    #[must_use]
    pub fn to_json(&self) -> Json {
        let Json::Obj(mut members) = self.schedule.to_json() else {
            unreachable!("Schedule::to_json always returns an object")
        };
        let expect = if self.expect_fail { "fail" } else { "clean" };
        members.push(("expect".to_string(), Json::Str(expect.to_string())));
        members.push((
            "mutations".to_string(),
            json_obj! {
                "skip_commit_twin_flip": self.mutations.skip_commit_twin_flip,
                "low_water_ignores_active": self.mutations.low_water_ignores_active,
            },
        ));
        members.push(("requires".to_string(), self.requires.to_json()));
        Json::Obj(members)
    }

    /// Parse an entry from JSON text.
    ///
    /// # Errors
    /// Returns a message naming the malformed field.
    pub fn parse(text: &str) -> Result<CorpusEntry, String> {
        let value = Json::parse(text)?;
        let schedule = Schedule::from_json(&value)?;
        let expect_fail = match value.get("expect").and_then(Json::as_str) {
            Some("fail") => true,
            Some("clean") | None => false,
            other => return Err(format!("'expect' must be clean|fail, got {other:?}")),
        };
        let mut mutations = ProtocolMutations::default();
        if let Some(m) = value.get("mutations") {
            let armed = |knob: &str| m.get(knob).and_then(Json::as_bool).unwrap_or(false);
            mutations.skip_commit_twin_flip = armed("skip_commit_twin_flip");
            mutations.low_water_ignores_active = armed("low_water_ignores_active");
        }
        let requires = value
            .get("requires")
            .and_then(Json::as_arr)
            .unwrap_or(&[])
            .iter()
            .map(|r| {
                r.as_str()
                    .map(str::to_string)
                    .ok_or_else(|| "'requires' entries must be strings".to_string())
            })
            .collect::<Result<Vec<_>, _>>()?;
        Ok(CorpusEntry {
            schedule,
            expect_fail,
            mutations,
            requires,
        })
    }

    /// Replay this entry and check every expectation.
    ///
    /// # Errors
    /// One message per unmet expectation: unexpected pass/fail,
    /// non-deterministic violations, or a missing required event.
    pub fn replay(&self) -> Result<(), String> {
        let outcome = run_schedule(&self.schedule, self.mutations);
        let name = &self.schedule.name;
        if self.expect_fail && outcome.ok() {
            return Err(format!(
                "corpus '{name}': expected a failure, replay passed"
            ));
        }
        if !self.expect_fail && !outcome.ok() {
            return Err(format!(
                "corpus '{name}': expected clean, got {:?}",
                outcome.violations
            ));
        }
        // Replays must be deterministic in both verdict and shape.
        let again = run_schedule(&self.schedule, self.mutations);
        if again.violations != outcome.violations || again.digest() != outcome.digest() {
            return Err(format!("corpus '{name}': replay is not deterministic"));
        }
        for token in &self.requires {
            if !outcome.events.iter().any(|e| e == token) {
                return Err(format!(
                    "corpus '{name}': required event '{token}' never fired \
                     (saw: {:?})",
                    dedup(&outcome.events)
                ));
            }
        }
        Ok(())
    }
}

fn dedup(events: &[String]) -> Vec<&str> {
    let mut seen: Vec<&str> = Vec::new();
    for e in events {
        if !seen.contains(&e.as_str()) {
            seen.push(e);
        }
    }
    seen
}

/// The corpus directory baked into this crate.
#[must_use]
pub fn default_dir() -> std::path::PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("corpus")
}

/// Load every `*.json` entry under `dir`, sorted by file name.
///
/// # Errors
/// I/O errors, and parse errors naming the offending file.
pub fn load_dir(dir: &Path) -> Result<Vec<(String, CorpusEntry)>, String> {
    let mut files: Vec<_> = fs::read_dir(dir)
        .map_err(|e| format!("corpus dir {}: {e}", dir.display()))?
        .filter_map(std::result::Result::ok)
        .map(|entry| entry.path())
        .filter(|p| p.extension().is_some_and(|ext| ext == "json"))
        .collect();
    files.sort();
    let mut entries = Vec::with_capacity(files.len());
    for path in files {
        let text = fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))?;
        let entry = CorpusEntry::parse(&text).map_err(|e| format!("{}: {e}", path.display()))?;
        let stem = path
            .file_stem()
            .map(|s| s.to_string_lossy().into_owned())
            .unwrap_or_default();
        entries.push((stem, entry));
    }
    Ok(entries)
}

/// Replay the whole corpus under `dir`; returns the entry count.
///
/// # Errors
/// The first entry whose expectations are unmet (file name included).
pub fn replay_dir(dir: &Path) -> Result<usize, String> {
    let entries = load_dir(dir)?;
    for (name, entry) in &entries {
        entry.replay().map_err(|e| format!("[{name}] {e}"))?;
    }
    Ok(entries.len())
}
