//! Engine configuration.

use rda_array::{ArrayConfig, Organization};
use rda_buffer::BufferConfig;
use rda_wal::LogConfig;

/// Which recovery engine to run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EngineKind {
    /// The paper's contribution: twin-page parity UNDO. Requires (and
    /// [`DbConfig`] constructors enforce) a twin-parity array.
    Rda,
    /// The traditional baseline: every steal of an uncommitted page is
    /// preceded by before-image logging; the array's parity serves media
    /// recovery only. Runs on a single-parity array.
    Wal,
}

/// Logging granularity (§5.2 vs §5.3).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LogGranularity {
    /// Full page images; page-level locking.
    Page,
    /// Byte-range diffs; record-level (byte-range) locking. Cheaper in log
    /// volume, and the regime where the paper finds ¬FORCE/ACC + RDA wins.
    Record,
}

/// End-of-transaction discipline (§2).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EotPolicy {
    /// FORCE: all pages modified by the transaction are written to the
    /// database before EOT (transaction-oriented checkpointing, TOC).
    Force,
    /// ¬FORCE: modified pages stay in the buffer; REDO recovery applies
    /// after a crash. Paired with action-consistent checkpoints (ACC).
    NoForce,
}

/// Checkpointing for the ¬FORCE discipline.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CheckpointPolicy {
    /// No automatic checkpoints (TOC is implied by FORCE; callers may also
    /// invoke `Database::checkpoint` manually).
    Manual,
    /// Take an ACC checkpoint every `ops` page operations.
    AccEvery {
        /// Page operations between checkpoints (the model's interval `I`,
        /// expressed in operations rather than transfers).
        ops: u64,
    },
}

/// Deliberate protocol breakages for mutation-sensitivity testing.
///
/// The model-based checker (`rda-check`) proves it has teeth by turning
/// one of these on and demonstrating that it finds and shrinks a failing
/// schedule. Every knob defaults to off and must stay off outside tests:
/// each one removes a step the recovery protocol depends on.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ProtocolMutations {
    /// Skip the zero-I/O twin flip at commit. The committed parity twin
    /// then still reconstructs the *pre-transaction* images, so restart
    /// recovery after a post-commit crash rolls an acknowledged
    /// transaction back — exactly the durability violation the twin-page
    /// protocol exists to prevent.
    pub skip_commit_twin_flip: bool,
    /// Let the log's low-water mark ignore the active transactions: the
    /// commit of one transaction then cuts away the BOT (and the
    /// before-images behind it) of another that is still running. After a
    /// crash restart no longer knows the second one was a loser and keeps
    /// the pages it had propagated — an atomicity violation.
    pub low_water_ignores_active: bool,
}

impl ProtocolMutations {
    /// Is any mutation enabled?
    #[must_use]
    pub fn any(self) -> bool {
        self.skip_commit_twin_flip || self.low_water_ignores_active
    }
}

/// Group-commit tuning: concurrent committers batch their durability
/// barrier so one fsync-equivalent (SimDisk billed barrier or FileDisk
/// `FsyncOnBarrier` drain) acknowledges many transactions.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GroupCommit {
    /// Bounded wait: how long the oldest queued committer waits for more
    /// before a batch closes without them, in microseconds; the committer
    /// that finds the window run out executes the batch. `0` closes a
    /// batch at once (it is whoever had queued while the last one ran),
    /// keeping single-committer latency untouched while still exercising
    /// the gated code path. A batch also closes as soon as the queue holds
    /// every transaction in flight, executed by the committer that filled
    /// it, so an uncontended commit never pays the window as ack latency.
    /// Cross-shard note: a transaction that spans shards commits its
    /// engine transactions sequentially, each through its shard's own
    /// gate, so a gated cross-shard commit's worst-case ack latency is the
    /// sum of the per-shard windows (`touched_shards × window_micros`);
    /// the uncontended close makes the common case far cheaper.
    pub window_micros: u64,
    /// Cap on transactions one executor prepares, forces and finalizes
    /// under one engine lock and one barrier.
    pub max_batch: usize,
}

impl Default for GroupCommit {
    fn default() -> GroupCommit {
        GroupCommit {
            window_micros: 100,
            max_batch: 32,
        }
    }
}

/// Full engine configuration.
#[derive(Debug, Clone)]
pub struct DbConfig {
    /// Recovery engine.
    pub engine: EngineKind,
    /// Array layout. For [`EngineKind::Rda`] this must be a twin-parity
    /// configuration.
    pub array: ArrayConfig,
    /// Buffer pool shape and policy.
    pub buffer: BufferConfig,
    /// Log page size and duplexing.
    pub log: LogConfig,
    /// Page or record logging.
    pub granularity: LogGranularity,
    /// FORCE or ¬FORCE at EOT.
    pub eot: EotPolicy,
    /// Checkpointing (meaningful with ¬FORCE).
    pub checkpoint: CheckpointPolicy,
    /// Strict two-phase locking for reads: transactional reads take
    /// page-level shared locks held to EOT, giving serializable
    /// write-read visibility. Off by default (the paper's model evaluates
    /// recovery I/O, not isolation), and orthogonal to the recovery
    /// machinery.
    pub strict_read_locks: bool,
    /// Event-trace ring capacity. `0` (the default) leaves the tracer
    /// disabled; any positive value makes `Database::open` enable the
    /// shared tracer with a ring of that many events. Because the sim
    /// runner and the checker open their databases from a cloned
    /// `DbConfig`, this is how tracing reaches every replay.
    pub trace_events: usize,
    /// Record commit-path span events (`TxnBegin`, `LogForce`,
    /// `CommitBarrier`, `CommitAck`) into the trace ring. Off by default
    /// so protocol traces keep their historical shape; requires
    /// [`DbConfig::trace_events`] > 0 to have any effect. Span payloads
    /// carry no clocks, so enabling them keeps traces deterministic for
    /// a deterministic schedule.
    pub span_events: bool,
    /// Deliberate protocol breakages for mutation-sensitivity testing.
    /// All off by default; see [`ProtocolMutations`].
    pub mutations: ProtocolMutations,
    /// Engine shards of a [`crate::Database`]: parity groups are striped
    /// round-robin over this many independent engines (own lock table,
    /// Dirty_Set, twin headers, buffer partition, WAL). `1` (the default)
    /// is the classic single-engine database. `Database::open` requires
    /// `1 ≤ shards ≤ groups`; a database over supplied devices
    /// (`Database::open_with`, the file backend) has exactly one shard
    /// until each shard gets its own logs.
    pub shards: u32,
    /// Group commit: `Some` routes `Transaction::commit` through the
    /// commit gate, batching concurrent committers' durability barriers.
    /// `None` (the default) keeps the classic one-barrier-per-commit path.
    pub group_commit: Option<GroupCommit>,
}

impl DbConfig {
    /// A small configuration handy for tests and examples: 4-page parity
    /// groups, 8 groups, 64-byte pages, an 8-frame STEAL/clock buffer,
    /// page logging, FORCE.
    #[must_use]
    pub fn small_test(engine: EngineKind) -> DbConfig {
        let twin = engine == EngineKind::Rda;
        DbConfig {
            engine,
            array: ArrayConfig::new(Organization::RotatedParity, 4, 8)
                .twin(twin)
                .page_size(64),
            buffer: BufferConfig::steal_clock(8),
            log: LogConfig {
                page_size: 256,
                copies: 2,
                amortized: false,
            },
            granularity: LogGranularity::Page,
            eot: EotPolicy::Force,
            checkpoint: CheckpointPolicy::Manual,
            strict_read_locks: false,
            trace_events: 0,
            span_events: false,
            mutations: ProtocolMutations::default(),
            shards: 1,
            group_commit: None,
        }
    }

    /// The paper's model configuration scaled to a runnable size:
    /// `N = 10` data pages per group, `S/N` groups for the given `s_pages`
    /// database size, 2020-byte pages, buffer of `b_frames` frames.
    #[must_use]
    pub fn paper_like(engine: EngineKind, s_pages: u32, b_frames: usize) -> DbConfig {
        let twin = engine == EngineKind::Rda;
        let n = 10;
        let groups = s_pages.div_ceil(n);
        DbConfig {
            engine,
            array: ArrayConfig::new(Organization::RotatedParity, n, groups).twin(twin),
            buffer: BufferConfig::steal_clock(b_frames),
            log: LogConfig::default(),
            granularity: LogGranularity::Page,
            eot: EotPolicy::Force,
            checkpoint: CheckpointPolicy::Manual,
            strict_read_locks: false,
            trace_events: 0,
            span_events: false,
            mutations: ProtocolMutations::default(),
            shards: 1,
            group_commit: None,
        }
    }

    /// Builder-style: enable event tracing with a ring of `events`.
    #[must_use]
    pub fn trace(mut self, events: usize) -> DbConfig {
        self.trace_events = events;
        self
    }

    /// Builder-style: record commit-path span events (see
    /// [`DbConfig::span_events`]).
    #[must_use]
    pub fn spans(mut self, on: bool) -> DbConfig {
        self.span_events = on;
        self
    }

    /// Builder-style: set granularity.
    #[must_use]
    pub fn granularity(mut self, g: LogGranularity) -> DbConfig {
        self.granularity = g;
        self
    }

    /// Builder-style: set EOT policy.
    #[must_use]
    pub fn eot(mut self, e: EotPolicy) -> DbConfig {
        self.eot = e;
        self
    }

    /// Builder-style: set checkpoint policy.
    #[must_use]
    pub fn checkpoint(mut self, c: CheckpointPolicy) -> DbConfig {
        self.checkpoint = c;
        self
    }

    /// Builder-style: enable deliberate protocol breakages (tests only).
    #[must_use]
    pub fn mutations(mut self, m: ProtocolMutations) -> DbConfig {
        self.mutations = m;
        self
    }

    /// Builder-style: stripe parity groups over `n` engine shards (see
    /// [`DbConfig::shards`](field@DbConfig::shards)).
    #[must_use]
    pub fn shards(mut self, n: u32) -> DbConfig {
        self.shards = n;
        self
    }

    /// Builder-style: enable group commit with the given tuning.
    #[must_use]
    pub fn group_commit(mut self, g: GroupCommit) -> DbConfig {
        self.group_commit = Some(g);
        self
    }

    /// Validate internal consistency (RDA needs twin parity, etc.).
    ///
    /// # Panics
    /// Panics with a descriptive message when the configuration is
    /// incoherent; called by `Database::open`.
    pub fn validate(&self) {
        if self.engine == EngineKind::Rda {
            assert!(
                self.array.twin,
                "RDA recovery requires a twin-parity array (ArrayConfig::twin(true))"
            );
        }
        assert!(self.shards >= 1, "shards must be at least 1");
        assert!(
            self.shards <= self.array.groups,
            "cannot stripe {} parity groups over {} shards",
            self.array.groups,
            self.shards
        );
        if let Some(g) = self.group_commit {
            assert!(
                g.max_batch >= 1,
                "group-commit max_batch must be at least 1"
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn small_test_configs_are_coherent() {
        DbConfig::small_test(EngineKind::Rda).validate();
        DbConfig::small_test(EngineKind::Wal).validate();
        assert!(DbConfig::small_test(EngineKind::Rda).array.twin);
        assert!(!DbConfig::small_test(EngineKind::Wal).array.twin);
    }

    #[test]
    fn paper_like_sizes() {
        let c = DbConfig::paper_like(EngineKind::Rda, 5000, 300);
        assert_eq!(c.array.n, 10);
        assert_eq!(c.array.groups, 500);
        assert_eq!(c.array.page_size, 2020);
        assert_eq!(c.buffer.frames, 300);
    }

    #[test]
    #[should_panic(expected = "twin-parity")]
    fn rda_without_twin_rejected() {
        let mut c = DbConfig::small_test(EngineKind::Rda);
        c.array.twin = false;
        c.validate();
    }

    #[test]
    fn mutations_default_off_and_compose() {
        let c = DbConfig::small_test(EngineKind::Rda);
        assert!(!c.mutations.any(), "mutations must default to off");
        let c = c.mutations(ProtocolMutations {
            skip_commit_twin_flip: true,
            ..ProtocolMutations::default()
        });
        assert!(c.mutations.any());
        assert!(c.mutations.skip_commit_twin_flip);
        let cut = ProtocolMutations {
            low_water_ignores_active: true,
            ..ProtocolMutations::default()
        };
        assert!(cut.any() && !cut.skip_commit_twin_flip);
    }

    #[test]
    fn builders_compose() {
        let c = DbConfig::small_test(EngineKind::Wal)
            .granularity(LogGranularity::Record)
            .eot(EotPolicy::NoForce)
            .checkpoint(CheckpointPolicy::AccEvery { ops: 100 })
            .spans(true);
        assert_eq!(c.granularity, LogGranularity::Record);
        assert_eq!(c.eot, EotPolicy::NoForce);
        assert_eq!(c.checkpoint, CheckpointPolicy::AccEvery { ops: 100 });
        assert!(c.span_events);
        assert!(
            !DbConfig::small_test(EngineKind::Rda).span_events,
            "span events must default to off"
        );
    }
}
