//! Workload traces: serialize a generated transaction sequence so the
//! *identical* history can be replayed across engines, configurations, or
//! machines — the determinism backbone of the ± RDA comparisons.

use crate::{run, Access, AccessKind, RunConfig, RunResult, TxnScript, WorkloadSpec};
use rda_core::ShardedDb;
use rda_obs::json::{Json, ToJson};

/// A reproducible, self-describing workload trace.
#[derive(Debug, Clone)]
pub struct Trace {
    /// The generator parameters the trace came from.
    pub spec: WorkloadSpec,
    /// Seed used for generation.
    pub seed: u64,
    /// The transaction scripts, in execution order.
    pub scripts: Vec<TxnScript>,
}

impl Trace {
    /// Generate a trace of `count` transactions.
    #[must_use]
    pub fn generate(spec: WorkloadSpec, count: usize, seed: u64) -> Trace {
        Trace {
            spec,
            seed,
            scripts: spec.generate(count, seed),
        }
    }

    /// Serialize to JSON.
    #[must_use]
    pub fn to_json(&self) -> String {
        ToJson::to_json(self).to_string()
    }

    /// Parse a JSON trace.
    ///
    /// # Errors
    /// A message naming the first malformed or missing member.
    pub fn from_json(json: &str) -> Result<Trace, String> {
        let doc = Json::parse(json)?;
        let spec = member(&doc, "spec")?;
        let spec = WorkloadSpec {
            pages: int(spec, "pages")?,
            s: int(spec, "s")?,
            f_u: real(spec, "f_u")?,
            p_u: real(spec, "p_u")?,
            p_b: real(spec, "p_b")?,
            hot_access_fraction: real(spec, "hot_access_fraction")?,
            hot_pages: int(spec, "hot_pages")?,
        };
        let mut scripts = Vec::new();
        for script in array(&doc, "scripts")? {
            let mut accesses = Vec::new();
            for access in array(script, "accesses")? {
                let kind = match member(access, "kind")?.as_str() {
                    Some("Read") => AccessKind::Read,
                    Some("Update") => AccessKind::Update,
                    _ => return Err("`kind` is neither \"Read\" nor \"Update\"".to_string()),
                };
                let page = int(access, "page")?;
                accesses.push(Access { page, kind });
            }
            let aborts = member(script, "aborts")?
                .as_bool()
                .ok_or("`aborts` is not a bool")?;
            scripts.push(TxnScript { accesses, aborts });
        }
        Ok(Trace {
            spec,
            seed: int(&doc, "seed")?,
            scripts,
        })
    }

    /// Replay the trace against `db` through [`crate::run`]; the first
    /// `cfg.warmup` scripts are unmeasured.
    #[must_use]
    pub fn replay(&self, db: &ShardedDb, cfg: &RunConfig) -> RunResult {
        run(db, cfg, self.scripts.clone())
    }
}

fn member<'a>(obj: &'a Json, key: &str) -> Result<&'a Json, String> {
    obj.get(key).ok_or_else(|| format!("missing `{key}`"))
}

fn array<'a>(obj: &'a Json, key: &str) -> Result<&'a [Json], String> {
    member(obj, key)?
        .as_arr()
        .ok_or_else(|| format!("`{key}` is not an array"))
}

fn int<T: TryFrom<u64>>(obj: &Json, key: &str) -> Result<T, String> {
    member(obj, key)?
        .as_u64()
        .and_then(|n| T::try_from(n).ok())
        .ok_or_else(|| format!("`{key}` is not an integer in range"))
}

fn real(obj: &Json, key: &str) -> Result<f64, String> {
    member(obj, key)?
        .as_f64()
        .ok_or_else(|| format!("`{key}` is not a number"))
}

impl ToJson for AccessKind {
    fn to_json(&self) -> Json {
        match self {
            AccessKind::Read => "Read",
            AccessKind::Update => "Update",
        }
        .to_json()
    }
}
rda_obs::json_struct!(Access { page, kind });
rda_obs::json_struct!(TxnScript { accesses, aborts });
rda_obs::json_struct!(WorkloadSpec {
    pages,
    s,
    f_u,
    p_u,
    p_b,
    hot_access_fraction,
    hot_pages
});
rda_obs::json_struct!(Trace {
    spec,
    seed,
    scripts
});

#[cfg(test)]
mod tests {
    use super::*;
    use rda_core::{DbConfig, EngineKind};

    fn spec() -> WorkloadSpec {
        WorkloadSpec::high_update(200, 40)
    }

    #[test]
    fn json_roundtrip_preserves_scripts() {
        let t = Trace::generate(spec(), 25, 99);
        let back = Trace::from_json(&t.to_json()).unwrap();
        assert_eq!(back.scripts.len(), 25);
        assert_eq!(back.seed, 99);
        for (a, b) in t.scripts.iter().zip(&back.scripts) {
            assert_eq!(a.aborts, b.aborts);
            assert_eq!(a.accesses.len(), b.accesses.len());
            for (x, y) in a.accesses.iter().zip(&b.accesses) {
                assert_eq!((x.page, x.kind), (y.page, y.kind));
            }
        }
    }

    fn replay(trace: &Trace, engine: EngineKind) -> RunResult {
        let cfg = RunConfig {
            warmup: 10,
            slots: 4,
            ..RunConfig::default()
        };
        let db = ShardedDb::open(DbConfig::paper_like(engine, 200, 32));
        let result = trace.replay(&db, &cfg);
        assert_eq!(result.check(), Ok(()));
        result
    }

    #[test]
    fn replay_is_deterministic_across_runs_and_engines() {
        let t = Trace::generate(spec(), 60, 7);
        let (a, b) = (replay(&t, EngineKind::Rda), replay(&t, EngineKind::Rda));
        assert_eq!(a.committed, b.committed);
        assert_eq!(a.array_transfers, b.array_transfers);
        assert_eq!(a.log_transfers, b.log_transfers);
        // Identical histories commit and abort identically on WAL too.
        let wal = replay(&t, EngineKind::Wal);
        assert_eq!((a.committed, a.aborted), (wal.committed, wal.aborted));
    }

    #[test]
    fn malformed_json_is_rejected() {
        assert!(Trace::from_json("{not json").is_err());
        assert!(Trace::from_json("{}").is_err());
    }
}
