//! Schedules: the checker's operation vocabulary.
//!
//! A [`Schedule`] is a fully deterministic program over a small database —
//! an interleaving of multi-transaction begin/read/write/commit/abort
//! steps, spiked with whole-machine events (crash + restart, disk death,
//! media recovery) and at most one *planted* fault point threaded through
//! the `rda-faults` I/O seam. Its [`DbKnobs`] name the engine shape too
//! (shard count, group-commit gate), so a one-shard schedule and a
//! cross-shard one are the same type. Schedules serialize to a stable
//! JSON shape so shrunk counterexamples can be stored in the regression
//! corpus and replayed byte-for-byte later.

use rda_array::{ArrayConfig, Organization};
use rda_core::{DbConfig, EngineKind, EotPolicy, GroupCommit, ProtocolMutations};
use rda_faults::FaultKind;
use rda_obs::json::Json;
use rda_obs::json_obj;

/// Transaction slots a schedule may address. Slots are *roles*, not
/// transaction ids: a slot can be re-begun after its transaction finished
/// or died in a crash, starting a fresh transaction in the same role. The
/// executor gives every addressed slot its own OS thread.
pub const MAX_SLOTS: usize = 6;

/// Parity groups in the checker's database (rotated parity, `n = 4`,
/// 4 groups → 16 data pages). Small enough that seeded schedules collide
/// on groups constantly, which is where the steal/twin protocol lives.
pub const PAGES: u32 = 16;

/// One step of a schedule.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SchedOp {
    /// Start a transaction in `slot` (skipped if the slot is active).
    Begin {
        /// Target transaction slot.
        slot: usize,
    },
    /// Read a page in `slot` (skipped if the slot is not active).
    Read {
        /// Target transaction slot.
        slot: usize,
        /// Page to read.
        page: u32,
    },
    /// Overwrite a page in `slot` with a one-byte payload (zero-padded to
    /// the page size; skipped if the slot is not active).
    Write {
        /// Target transaction slot.
        slot: usize,
        /// Page to overwrite.
        page: u32,
        /// Payload byte (the page's first byte after the write).
        val: u8,
    },
    /// Commit `slot` (skipped if the slot is not active).
    Commit {
        /// Target transaction slot.
        slot: usize,
    },
    /// Abort `slot` (skipped if the slot is not active).
    Abort {
        /// Target transaction slot.
        slot: usize,
    },
    /// Power-cycle the machine: crash, then run restart recovery. Active
    /// transactions die as losers.
    CrashRestart,
    /// Fail a whole disk; the workload continues in degraded mode
    /// (skipped if the disk is already dead).
    FailDisk {
        /// Disk to kill.
        disk: u16,
    },
    /// Rebuild a failed disk from the survivors (skipped if the disk is
    /// alive or transactions are active — media recovery requires
    /// quiescence).
    MediaRecover {
        /// Disk to rebuild.
        disk: u16,
    },
}

impl SchedOp {
    /// The transaction slot this op addresses, if any.
    #[must_use]
    pub fn slot(&self) -> Option<usize> {
        match *self {
            SchedOp::Begin { slot }
            | SchedOp::Read { slot, .. }
            | SchedOp::Write { slot, .. }
            | SchedOp::Commit { slot }
            | SchedOp::Abort { slot } => Some(slot),
            _ => None,
        }
    }
}

/// A planted fault: fire `kind` on the `at_io`-th physical array I/O
/// (1-based, global across disks).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FaultPoint {
    /// What goes wrong (crash, torn write, or whole-disk death).
    pub kind: FaultKind,
    /// Which global I/O it hits.
    pub at_io: u64,
}

/// The database knobs a schedule varies. Everything else is pinned to the
/// checker's standard small configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DbKnobs {
    /// Buffer frames (small values force steals mid-transaction).
    pub frames: usize,
    /// FORCE (true) or ¬FORCE (false) end-of-transaction policy.
    pub force: bool,
    /// Strict two-phase read locks (serializable) vs. dirty reads.
    pub strict: bool,
    /// Engine shards (1 ≤ shards ≤ 4 on the checker's 4-group array); a
    /// JSON `config` that omits it means 1.
    pub shards: u32,
    /// Commit through the group-commit gate? A JSON `config` that omits
    /// it means no.
    pub group_commit: bool,
}

impl DbKnobs {
    /// Materialize the full [`DbConfig`] for this knob setting, with the
    /// given protocol mutations compiled in. The gate window is kept tiny:
    /// under turn-based dispatch every batch has one member, so the window
    /// is pure leader-path latency.
    #[must_use]
    pub fn config(&self, mutations: ProtocolMutations) -> DbConfig {
        DbConfig {
            array: ArrayConfig::new(Organization::RotatedParity, 4, 4)
                .twin(true)
                .page_size(64),
            buffer: rda_buffer::BufferConfig::steal_clock(self.frames),
            eot: if self.force {
                EotPolicy::Force
            } else {
                EotPolicy::NoForce
            },
            strict_read_locks: self.strict,
            trace_events: 1 << 15,
            mutations,
            shards: self.shards,
            group_commit: self.group_commit.then_some(GroupCommit {
                window_micros: 50,
                max_batch: 8,
            }),
            ..DbConfig::small_test(EngineKind::Rda)
        }
    }
}

/// A complete, self-describing checker input.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Schedule {
    /// Human-readable name (seed + index for generated schedules, a
    /// scenario slug for corpus entries).
    pub name: String,
    /// Database knobs this schedule runs under.
    pub knobs: DbKnobs,
    /// The steps, executed in order.
    pub ops: Vec<SchedOp>,
    /// At most one planted fault (global I/O numbering: the injector is
    /// shared across shards, so the billed clock is machine-wide).
    pub fault: Option<FaultPoint>,
}

impl Schedule {
    /// A copy of this schedule with `fault` planted (replacing any
    /// existing fault) and the fault appended to the name.
    #[must_use]
    pub fn with_fault(&self, fault: FaultPoint) -> Schedule {
        Schedule {
            name: format!("{}+{}@{}", self.name, fault.kind.name(), fault.at_io),
            knobs: self.knobs,
            ops: self.ops.clone(),
            fault: Some(fault),
        }
    }

    /// Does any step kill a disk explicitly?
    #[must_use]
    pub fn has_fail_disk(&self) -> bool {
        self.ops
            .iter()
            .any(|op| matches!(op, SchedOp::FailDisk { .. }))
    }

    /// The distinct transaction slots this schedule addresses, ascending.
    #[must_use]
    pub fn slots(&self) -> Vec<usize> {
        let mut slots: Vec<usize> = self.ops.iter().filter_map(SchedOp::slot).collect();
        slots.sort_unstable();
        slots.dedup();
        slots
    }

    /// Serialize to the stable corpus JSON shape.
    #[must_use]
    pub fn to_json(&self) -> Json {
        json_obj! {
            "name": self.name,
            "config": json_obj! {
                "frames": self.knobs.frames,
                "eot": if self.knobs.force { "force" } else { "noforce" },
                "strict": self.knobs.strict,
                "shards": self.knobs.shards,
                "group_commit": self.knobs.group_commit,
            },
            "ops": self.ops.iter().map(op_to_json).collect::<Vec<_>>(),
            "fault": self.fault.map(|f| json_obj! { "mode": f.kind.name(), "at_io": f.at_io }),
        }
    }

    /// Deserialize from the corpus JSON shape.
    ///
    /// # Errors
    /// Returns a message naming the missing or malformed field.
    pub fn from_json(value: &Json) -> Result<Schedule, String> {
        let name = value
            .get("name")
            .and_then(Json::as_str)
            .ok_or("schedule missing 'name'")?
            .to_string();
        let config = value.get("config").ok_or("schedule missing 'config'")?;
        let frames = config
            .get("frames")
            .and_then(Json::as_u64)
            .ok_or("config missing 'frames'")? as usize;
        let force = match config.get("eot").and_then(Json::as_str) {
            Some("force") => true,
            Some("noforce") => false,
            other => return Err(format!("config 'eot' must be force|noforce, got {other:?}")),
        };
        let strict = config
            .get("strict")
            .and_then(Json::as_bool)
            .ok_or("config missing 'strict'")?;
        let shards = match config.get("shards") {
            None => 1,
            Some(s) => s
                .as_u64()
                .filter(|s| (1..=u64::from(PAGES / 4)).contains(s))
                .ok_or("config 'shards' must be 1..=4")? as u32,
        };
        let group_commit = match config.get("group_commit") {
            None => false,
            Some(g) => g.as_bool().ok_or("config 'group_commit' must be a bool")?,
        };
        let ops = value
            .get("ops")
            .and_then(Json::as_arr)
            .ok_or("schedule missing 'ops'")?
            .iter()
            .map(op_from_json)
            .collect::<Result<Vec<_>, _>>()?;
        let fault = match value.get("fault") {
            None | Some(Json::Null) => None,
            Some(f) => {
                let kind = match f.get("mode").and_then(Json::as_str) {
                    Some("crash") => FaultKind::Crash,
                    Some("torn_write") => FaultKind::TornWrite,
                    Some("fail_disk") => FaultKind::FailDisk,
                    other => return Err(format!("bad fault mode {other:?}")),
                };
                let at_io = f
                    .get("at_io")
                    .and_then(Json::as_u64)
                    .ok_or("fault missing 'at_io'")?;
                Some(FaultPoint { kind, at_io })
            }
        };
        Ok(Schedule {
            name,
            knobs: DbKnobs {
                frames,
                force,
                strict,
                shards,
                group_commit,
            },
            ops,
            fault,
        })
    }
}

fn op_to_json(op: &SchedOp) -> Json {
    match *op {
        SchedOp::Begin { slot } => json_obj! { "op": "begin", "slot": slot },
        SchedOp::Read { slot, page } => json_obj! { "op": "read", "slot": slot, "page": page },
        SchedOp::Write { slot, page, val } => {
            json_obj! { "op": "write", "slot": slot, "page": page, "val": val }
        }
        SchedOp::Commit { slot } => json_obj! { "op": "commit", "slot": slot },
        SchedOp::Abort { slot } => json_obj! { "op": "abort", "slot": slot },
        SchedOp::CrashRestart => json_obj! { "op": "crash_restart" },
        SchedOp::FailDisk { disk } => json_obj! { "op": "fail_disk", "disk": disk },
        SchedOp::MediaRecover { disk } => json_obj! { "op": "media_recover", "disk": disk },
    }
}

fn op_from_json(value: &Json) -> Result<SchedOp, String> {
    let slot = || {
        value
            .get("slot")
            .and_then(Json::as_u64)
            .map(|s| s as usize)
            .filter(|&s| s < MAX_SLOTS)
            .ok_or_else(|| format!("op missing valid 'slot' (< {MAX_SLOTS})"))
    };
    let page = || {
        value
            .get("page")
            .and_then(Json::as_u64)
            .map(|p| p as u32)
            .ok_or("op missing 'page'")
    };
    let disk = || {
        value
            .get("disk")
            .and_then(Json::as_u64)
            .map(|d| d as u16)
            .ok_or("op missing 'disk'")
    };
    match value.get("op").and_then(Json::as_str) {
        Some("begin") => Ok(SchedOp::Begin { slot: slot()? }),
        Some("read") => Ok(SchedOp::Read {
            slot: slot()?,
            page: page()?,
        }),
        Some("write") => Ok(SchedOp::Write {
            slot: slot()?,
            page: page()?,
            val: value
                .get("val")
                .and_then(Json::as_u64)
                .map(|v| v as u8)
                .ok_or("write op missing 'val'")?,
        }),
        Some("commit") => Ok(SchedOp::Commit { slot: slot()? }),
        Some("abort") => Ok(SchedOp::Abort { slot: slot()? }),
        Some("crash_restart") => Ok(SchedOp::CrashRestart),
        Some("fail_disk") => Ok(SchedOp::FailDisk { disk: disk()? }),
        Some("media_recover") => Ok(SchedOp::MediaRecover { disk: disk()? }),
        other => Err(format!("unknown op tag {other:?}")),
    }
}
