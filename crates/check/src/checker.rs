//! Differential execution: one schedule, real engine vs. reference model.
//!
//! [`run_schedule`] replays a [`Schedule`] on the sharded engine
//! ([`ShardedDb`], one shard for the classic stream) with the planted
//! fault (if any) armed through the `rda-faults` injector, while stepping
//! the [`RefModel`] in lockstep. Divergence anywhere — a read returning
//! the wrong byte, a lock conflict neither or only one side predicts,
//! recovery failing to converge, the final committed state differing from
//! the model, a parity invariant violation, a 2PC intent outliving its
//! application, or an event trace that breaks the steal/commit protocol —
//! lands in [`CheckOutcome::violations`].
//!
//! Every transaction slot is owned by its own OS thread, and the
//! interleaving is replayed *turn-based*: the coordinator dispatches one
//! op at a time to the owning slot's thread and waits for its reply before
//! dispatching the next, so the total order of engine-visible operations
//! is exactly the schedule's op order. That makes the run deterministic
//! (byte-identical traces, digests and sweep reports at any worker count)
//! while still crossing real thread boundaries on every operation:
//! transaction handles live on their threads, lock conflicts happen
//! between threads, and commits run the group-commit gate from a thread
//! that is not the opener's.
//!
//! Crash discipline: the injector latches on a planted crash or torn
//! write, so the first engine call to notice returns
//! `ArrayError::Crashed`. The coordinator then treats the machine as dead
//! — drops every live handle on its thread, power-cycles via
//! [`ShardedDb::crash`], and drives restart recovery to convergence. A
//! planted fault can fire *during* recovery too (the I/O counter keeps
//! running), in which case recovery itself crashes and is retried; the
//! fault is spent after one firing, so the loop terminates. Disk death
//! discovered during recovery is repaired by media recovery mid-loop,
//! exactly as an operator would.
//!
//! The one genuinely interleaving-dependent verdict — a cross-shard commit
//! interrupted by a crash — is resolved through the engine's own 2PC
//! decision record: [`ShardedDb::recover_sequential`] reports the global
//! ids whose staged intents it replayed, and the coordinator commits
//! exactly those transactions model-side before declaring the crash
//! (everything else in flight is a loser).

use crate::model::{Expected, RefModel};
use crate::schedule::{SchedOp, Schedule, MAX_SLOTS, PAGES};
use rda_array::ArrayError;
use rda_core::{DbError, ProtocolMutations, ShardedDb, ShardedTxn};
use rda_faults::{FaultInjector, FaultPlan, FaultSpec};
use std::collections::BTreeSet;
use std::fmt::Write as _;
use std::sync::mpsc;
use std::sync::Arc;

/// Everything one differential run produced.
#[derive(Debug, Clone)]
pub struct CheckOutcome {
    /// Divergences and invariant violations; empty means the run passed.
    pub violations: Vec<String>,
    /// Physical array I/Os issued up to the end of the last schedule op
    /// (before final cleanup) — the space fault points are sampled from.
    pub workload_ios: u64,
    /// How many times the machine went down (planted faults and
    /// `CrashRestart` steps both count).
    pub crashes: u64,
    /// Did the planted fault actually fire?
    pub fault_fired: bool,
    /// The full event trace, shard by shard, one `sN`-tagged event per
    /// line — byte-identical across replays of the same schedule.
    pub trace: String,
    /// Event names seen (with steal kinds, e.g. `Steal:logged`) plus the
    /// runner's synthetic `CrossShardCommit` / `IntentReplayed` /
    /// `FaultFired` tokens, for corpus `requires` assertions.
    pub events: Vec<String>,
}

impl CheckOutcome {
    /// Did the run pass?
    #[must_use]
    pub fn ok(&self) -> bool {
        self.violations.is_empty()
    }

    /// FNV-1a digest over the trace and violations — a compact
    /// determinism witness.
    #[must_use]
    pub fn digest(&self) -> u64 {
        let mut h = 0xcbf2_9ce4_8422_2325_u64;
        let mut eat = |bytes: &[u8]| {
            for &b in bytes {
                h ^= u64::from(b);
                h = h.wrapping_mul(0x0000_0100_0000_01b3);
            }
        };
        eat(self.trace.as_bytes());
        for v in &self.violations {
            eat(v.as_bytes());
            eat(b"\n");
        }
        h
    }
}

/// Command dispatched to a slot's worker thread (one at a time).
enum Cmd {
    Begin,
    Read(u32),
    Write(u32, u8),
    Commit,
    Abort,
    /// Machine died: drop the transaction handle without reporting its
    /// abort outcome (its Drop abort is answered with NeedsRecovery, which
    /// Drop tolerates; the transaction is a loser now).
    DropTxn,
}

/// A worker thread's reply to one command.
enum Reply {
    /// Begin done; the new transaction's global id.
    Begun(u64),
    /// Read done; first byte of the image.
    Value(Option<u8>),
    /// Write/abort/drop done.
    Done,
    /// Commit acknowledged; did the transaction span multiple shards?
    Committed { cross: bool },
    /// Fail-fast lock conflict (transaction alive).
    Conflict,
    /// The machine died under this op.
    Crashed,
    /// Any other error.
    Error(String),
}

/// One slot's worker loop: owns the slot's [`ShardedTxn`] and executes
/// commands against the shared database. All waiting happens in the
/// coordinator; the worker only ever has one command in flight.
fn worker(
    db: &ShardedDb,
    rx: &mpsc::Receiver<Cmd>,
    tx: &mpsc::Sender<(usize, Reply)>,
    slot: usize,
) {
    let mut txn: Option<ShardedTxn> = None;
    let reply_of = |e: DbError| match e {
        DbError::LockConflict { .. } => Reply::Conflict,
        DbError::Array(ArrayError::Crashed) => Reply::Crashed,
        // A decided cross-shard commit interrupted by the machine dying:
        // the crash is the machine event to handle here; the decision
        // itself is resolved against the replayed-intent list after
        // recovery (see crash_and_recover).
        DbError::CommitInDoubt { ref cause, .. }
            if matches!(**cause, DbError::Array(ArrayError::Crashed)) =>
        {
            Reply::Crashed
        }
        other => Reply::Error(other.to_string()),
    };
    while let Ok(cmd) = rx.recv() {
        let reply = match cmd {
            Cmd::Begin => {
                let t = db.begin();
                let gid = t.id();
                txn = Some(t);
                Reply::Begun(gid)
            }
            Cmd::Read(page) => match txn.as_mut() {
                Some(t) => match t.read(page) {
                    Ok(image) => Reply::Value(image.first().copied()),
                    Err(e) => reply_of(e),
                },
                None => Reply::Done,
            },
            Cmd::Write(page, val) => match txn.as_mut() {
                Some(t) => match t.write(page, &[val]) {
                    Ok(()) => Reply::Done,
                    Err(e) => reply_of(e),
                },
                None => Reply::Done,
            },
            Cmd::Commit => match txn.take() {
                Some(t) => {
                    let cross = t.shards_touched().len() > 1;
                    match t.commit() {
                        Ok(_) => Reply::Committed { cross },
                        Err(e) => reply_of(e),
                    }
                }
                None => Reply::Done,
            },
            Cmd::Abort => match txn.take() {
                Some(t) => match t.abort() {
                    Ok(()) => Reply::Done,
                    Err(e) => reply_of(e),
                },
                None => Reply::Done,
            },
            Cmd::DropTxn => {
                txn = None;
                Reply::Done
            }
        };
        if tx.send((slot, reply)).is_err() {
            break;
        }
    }
}

/// Coordinator-side state of one replay.
struct Run {
    db: ShardedDb,
    injector: Arc<FaultInjector>,
    model: RefModel,
    /// Per-slot global transaction ids (None = slot idle).
    slot_gids: Vec<Option<u64>>,
    failed_disks: BTreeSet<u16>,
    /// Per-shard trace windows occupied by restart recovery.
    windows: Vec<Vec<(u64, u64)>>,
    /// Synthetic event tokens (cross-shard commits, intent replays, the
    /// planted fault firing) for corpus `requires` assertions.
    extra_events: Vec<String>,
    violations: Vec<String>,
    crashes: u64,
    wedged: bool,
}

/// The per-run thread fabric: one command channel per slot, one shared
/// reply channel.
struct Fabric {
    cmd: Vec<Option<mpsc::Sender<Cmd>>>,
    reply: mpsc::Receiver<(usize, Reply)>,
}

impl Fabric {
    /// Dispatch `cmd` to `slot`'s thread and wait for its reply — the
    /// turn-based token pass that makes the run deterministic.
    fn call(&self, slot: usize, cmd: Cmd) -> Reply {
        let Some(tx) = self.cmd[slot].as_ref() else {
            return Reply::Done;
        };
        if tx.send(cmd).is_err() {
            return Reply::Error("worker thread gone".to_string());
        }
        match self.reply.recv() {
            Ok((from, reply)) => {
                debug_assert_eq!(from, slot, "turn-based: replies arrive in dispatch order");
                reply
            }
            Err(_) => Reply::Error("worker thread gone".to_string()),
        }
    }
}

impl Run {
    fn shard_last_seq(&self, s: u32) -> u64 {
        self.db
            .shard(s)
            .trace_snapshot()
            .events
            .last()
            .map_or(0, |e| e.seq)
    }

    /// Any error while the injector's crash latch is down is the machine
    /// dying (lower layers sometimes wrap the refusal).
    fn is_crash_reply(&self, reply: &Reply) -> bool {
        matches!(reply, Reply::Crashed) || self.injector.is_latched()
    }

    /// Mark every disk the array itself reports failed (a planted
    /// disk-death fault kills a disk without telling the coordinator
    /// which one).
    fn scan_failed_disks(&mut self) {
        let per = self.db.disks_per_shard();
        for s in 0..self.db.shard_count() {
            for local in 0..per {
                if self.db.shard(s).disk_failed(local) {
                    self.failed_disks.insert(s as u16 * per + local);
                }
            }
        }
    }

    /// Rebuild every disk whose media recovery is owed. Ok(false) means
    /// the machine died mid-rebuild (already power-cycled); Err = wedged.
    fn rebuild_owed(&mut self) -> Result<bool, ()> {
        for disk in self.failed_disks.clone() {
            match self.db.media_recover(disk) {
                Ok(_) => {
                    self.failed_disks.remove(&disk);
                }
                Err(ref e) if self.is_crash_err(e) => {
                    self.crashes += 1;
                    self.db.crash();
                    return Ok(false);
                }
                Err(e) => {
                    self.violations
                        .push(format!("media recovery of disk {disk} failed: {e}"));
                    self.wedged = true;
                    return Err(());
                }
            }
        }
        Ok(true)
    }

    fn is_crash_err(&self, e: &DbError) -> bool {
        matches!(e, DbError::Array(ArrayError::Crashed)) || self.injector.is_latched()
    }

    /// The machine is down: drop every slot's handle (on its own
    /// thread), power-cycle, drive deterministic sequential recovery to
    /// convergence, resolve in-flight cross-shard commits through the
    /// replayed-intent list, and fold the crash into the model.
    ///
    /// Recover first, rebuild second: restart recovery works degraded
    /// (parity undo has a twin-difference fallback that needs no sibling
    /// reads), while a rebuild with losers still riding the parity would
    /// materialize polluted blocks. The exception is a rebuild recovery
    /// itself demands: when it must write a page of a dead disk it
    /// surfaces `DiskFailed`, and by then its undo passes have repaired
    /// any parity staleness in that disk's groups. `failed_disks` names
    /// every disk whose rebuild is still owed: a crash mid-rebuild leaves
    /// a half-blank replacement the array no longer reports as failed, so
    /// the disk stays in the set until one `media_recover` runs to
    /// completion.
    fn crash_and_recover(&mut self, fabric: &Fabric) {
        self.crashes += 1;
        let starts: Vec<u64> = (0..self.db.shard_count())
            .map(|s| self.shard_last_seq(s) + 1)
            .collect();
        self.db.crash();
        for slot in 0..self.slot_gids.len() {
            if self.slot_gids[slot].is_some() {
                let _ = fabric.call(slot, Cmd::DropTxn);
            }
        }
        let mut replayed: Vec<u64> = Vec::new();
        'restart: for attempt in 0.. {
            if attempt >= 8 {
                self.violations
                    .push("restart recovery did not converge after 8 attempts".to_string());
                self.wedged = true;
                break;
            }
            // Re-fail half-blank disks from an interrupted rebuild so
            // recovery reads their groups degraded, not as silent zeroes.
            for disk in self.failed_disks.clone() {
                if !self.db.disk_failed(disk) {
                    self.db.fail_disk(disk);
                }
            }
            match self.db.recover_sequential() {
                Ok(rec) => {
                    replayed.extend(rec.replayed);
                    match self.rebuild_owed() {
                        Ok(true) => break,
                        Ok(false) => {}
                        Err(()) => break 'restart,
                    }
                }
                // Recovery had to write a page of a dead disk: find and
                // rebuild it, then go around.
                Err(DbError::Array(ArrayError::DiskFailed(_))) => {
                    self.scan_failed_disks();
                    match self.rebuild_owed() {
                        Ok(_) => {}
                        Err(()) => break 'restart,
                    }
                }
                Err(ref e) if self.is_crash_err(e) => {
                    self.crashes += 1;
                    self.db.crash();
                }
                Err(e) => {
                    self.violations
                        .push(format!("restart recovery failed: {e}"));
                    self.wedged = true;
                    break;
                }
            }
        }
        // The per-txn commit oracle for the interleaving-dependent case:
        // a cross-shard commit interrupted mid-apply was *decided* (its
        // intent was staged), and recovery has now applied it everywhere
        // — so it commits model-side. Everything else in flight is a
        // loser.
        for gid in replayed {
            if let Some(slot) = self.slot_gids.iter().position(|g| *g == Some(gid)) {
                self.model.commit(slot);
                self.extra_events.push("IntentReplayed".to_string());
            }
        }
        self.model.crash();
        for gid in &mut self.slot_gids {
            *gid = None;
        }
        for (s, start) in starts.iter().enumerate() {
            let end = self.shard_last_seq(s as u32);
            self.windows[s].push((*start, end));
        }
    }
}

/// Replay `sched` differentially, one thread per slot. See the module
/// docs for the turn-based and crash disciplines.
#[must_use]
pub fn run_schedule(sched: &Schedule, mutations: ProtocolMutations) -> CheckOutcome {
    let cfg = sched.knobs.config(mutations);
    let db = ShardedDb::open(cfg);
    let plan = match sched.fault {
        Some(f) => FaultPlan::single(FaultSpec::at_io(f.kind, f.at_io)),
        None => FaultPlan::empty(),
    };
    let injector = Arc::new(FaultInjector::new(plan));
    db.install_fault_hook(Arc::clone(&injector) as Arc<dyn rda_array::FaultHook>);

    let shard_count = db.shard_count();
    let mut run = Run {
        db,
        injector,
        model: RefModel::new(PAGES, sched.knobs.strict),
        slot_gids: vec![None; MAX_SLOTS],
        failed_disks: BTreeSet::new(),
        windows: vec![Vec::new(); shard_count as usize],
        extra_events: Vec::new(),
        violations: Vec::new(),
        crashes: 0,
        wedged: false,
    };

    let slots = sched.slots();
    let (reply_tx, reply_rx) = mpsc::channel();
    let mut cmd_txs: Vec<Option<mpsc::Sender<Cmd>>> = (0..MAX_SLOTS).map(|_| None).collect();
    let workload_ios = std::thread::scope(|scope| {
        for &slot in &slots {
            let (tx, rx) = mpsc::channel();
            cmd_txs[slot] = Some(tx);
            let db = run.db.clone();
            let reply = reply_tx.clone();
            scope.spawn(move || worker(&db, &rx, &reply, slot));
        }
        let fabric = Fabric {
            cmd: cmd_txs,
            reply: reply_rx,
        };
        for (i, op) in sched.ops.iter().enumerate() {
            if run.wedged {
                break;
            }
            step(&mut run, &fabric, i, *op);
        }
        let ios = run.injector.ios_seen();
        if !run.wedged {
            finalize(&mut run, &fabric);
        }
        // Dropping the fabric closes every command channel; workers exit.
        ios
    });

    // Per-shard protocol invariants, each shard's recovery windows
    // excluded, violations shard-prefixed.
    let mut trace = String::new();
    let mut events: Vec<String> = Vec::new();
    for s in 0..shard_count {
        let snap = run.db.shard(s).trace_snapshot();
        if snap.dropped > 0 {
            run.violations.push(format!(
                "shard {s}: trace ring overflowed ({} events dropped)",
                snap.dropped
            ));
        } else {
            run.violations.extend(
                rda_core::protocol_violations_windowed(&snap.events, &run.windows[s as usize])
                    .into_iter()
                    .map(|v| format!("shard {s} trace: {v}")),
            );
        }
        for ev in &snap.events {
            let _ = writeln!(trace, "s{s} {ev}");
            events.push(match ev.kind {
                rda_core::EventKind::Steal { kind, .. } => format!("Steal:{}", kind.name()),
                ref kind => kind.name().to_string(),
            });
        }
    }
    events.append(&mut run.extra_events);
    let fault_fired = !run.injector.fired().is_empty();
    if fault_fired {
        events.push("FaultFired".to_string());
    }

    CheckOutcome {
        violations: run.violations,
        workload_ios,
        crashes: run.crashes,
        fault_fired,
        trace,
        events,
    }
}

/// Execute one schedule step: dispatch to the owning thread, diff the
/// reply against the model.
fn step(run: &mut Run, fabric: &Fabric, index: usize, op: SchedOp) {
    match op {
        SchedOp::Begin { slot } => {
            if run.model.is_active(slot) {
                return;
            }
            match fabric.call(slot, Cmd::Begin) {
                Reply::Begun(gid) => {
                    run.slot_gids[slot] = Some(gid);
                    run.model.begin(slot);
                }
                reply => unexpected(run, index, slot, "begin", &reply),
            }
        }
        SchedOp::Read { slot, page } => {
            if !run.model.is_active(slot) {
                return;
            }
            match fabric.call(slot, Cmd::Read(page)) {
                Reply::Value(got) => match run.model.read(slot, page) {
                    Expected::Value(want) => {
                        if got != Some(want) {
                            run.violations.push(format!(
                                "op {index}: thread {slot} read page {page} = {got:?}, model says {want}"
                            ));
                        }
                    }
                    Expected::Conflict => run.violations.push(format!(
                        "op {index}: thread {slot} read page {page} succeeded, model expected a lock conflict"
                    )),
                },
                Reply::Conflict => {
                    if run.model.read(slot, page) != Expected::Conflict {
                        run.violations.push(format!(
                            "op {index}: thread {slot} read page {page} hit a lock conflict the model did not predict"
                        ));
                    }
                }
                ref reply if run.is_crash_reply(reply) => run.crash_and_recover(fabric),
                reply => unexpected(run, index, slot, "read", &reply),
            }
        }
        SchedOp::Write { slot, page, val } => {
            if !run.model.is_active(slot) {
                return;
            }
            match fabric.call(slot, Cmd::Write(page, val)) {
                Reply::Done => {
                    if run.model.write(slot, page, val) == Expected::Conflict {
                        run.violations.push(format!(
                            "op {index}: thread {slot} write page {page} succeeded, model expected a lock conflict"
                        ));
                    }
                }
                Reply::Conflict => {
                    if run.model.write(slot, page, val) != Expected::Conflict {
                        run.violations.push(format!(
                            "op {index}: thread {slot} write page {page} hit a lock conflict the model did not predict"
                        ));
                    }
                }
                ref reply if run.is_crash_reply(reply) => run.crash_and_recover(fabric),
                reply => unexpected(run, index, slot, "write", &reply),
            }
        }
        SchedOp::Commit { slot } => {
            if !run.model.is_active(slot) {
                return;
            }
            match fabric.call(slot, Cmd::Commit) {
                // Commit acknowledged is durable-commit, gate or not.
                Reply::Committed { cross } => {
                    run.model.commit(slot);
                    run.slot_gids[slot] = None;
                    if cross {
                        run.extra_events.push("CrossShardCommit".to_string());
                    }
                }
                ref reply if run.is_crash_reply(reply) => run.crash_and_recover(fabric),
                reply => unexpected(run, index, slot, "commit", &reply),
            }
        }
        SchedOp::Abort { slot } => {
            if !run.model.is_active(slot) {
                return;
            }
            match fabric.call(slot, Cmd::Abort) {
                Reply::Done => {
                    run.model.abort(slot);
                    run.slot_gids[slot] = None;
                }
                ref reply if run.is_crash_reply(reply) => run.crash_and_recover(fabric),
                reply => unexpected(run, index, slot, "abort", &reply),
            }
        }
        SchedOp::CrashRestart => run.crash_and_recover(fabric),
        SchedOp::FailDisk { disk } => {
            if run.failed_disks.contains(&disk) || disk >= run.db.disks() {
                return;
            }
            run.db.fail_disk(disk);
            run.failed_disks.insert(disk);
        }
        SchedOp::MediaRecover { disk } => {
            if !run.failed_disks.contains(&disk) || run.db.active_transactions() > 0 {
                return; // requires quiescence; the final cleanup rebuilds
            }
            match run.db.media_recover(disk) {
                Ok(_) => {
                    run.failed_disks.remove(&disk);
                }
                Err(ref e) if run.is_crash_err(e) => run.crash_and_recover(fabric),
                Err(e) => run.violations.push(format!(
                    "op {index}: media recovery of disk {disk} failed: {e}"
                )),
            }
        }
    }
}

fn unexpected(run: &mut Run, index: usize, slot: usize, what: &str, reply: &Reply) {
    let desc = match reply {
        Reply::Error(e) => e.clone(),
        Reply::Begun(_) => "unexpected begin ack".to_string(),
        Reply::Value(_) => "unexpected read value".to_string(),
        Reply::Done => "unexpected plain ack".to_string(),
        Reply::Committed { .. } => "unexpected commit ack".to_string(),
        Reply::Conflict => "unexpected lock conflict".to_string(),
        Reply::Crashed => "unexpected crash".to_string(),
    };
    run.violations
        .push(format!("op {index}: thread {slot} {what} failed: {desc}"));
}

/// End of schedule: quiesce, repair, and run every terminal oracle
/// (durability vs. model, parity verify, cross-layer audit — all
/// shard-merged).
fn finalize(run: &mut Run, fabric: &Fabric) {
    // 1. Abort the stragglers (slot order, deterministic).
    for slot in 0..run.slot_gids.len() {
        if run.wedged {
            return;
        }
        if run.slot_gids[slot].is_none() {
            continue;
        }
        match fabric.call(slot, Cmd::Abort) {
            Reply::Done => {
                run.model.abort(slot);
                run.slot_gids[slot] = None;
            }
            ref reply if run.is_crash_reply(reply) => run.crash_and_recover(fabric),
            Reply::Error(e) => run
                .violations
                .push(format!("final abort of thread {slot} failed: {e}")),
            _ => {}
        }
    }
    // 2. Safety net: a fault that latched without any call observing it.
    if run.injector.is_latched() {
        run.crash_and_recover(fabric);
    }
    // 3. Rebuild any disk still dead so the durability oracle reads a
    //    healthy array.
    let mut guard = 0;
    while !run.failed_disks.is_empty() && !run.wedged {
        guard += 1;
        if guard > 4 {
            run.violations
                .push("final disk rebuilds did not converge".to_string());
            return;
        }
        for disk in run.failed_disks.clone() {
            match run.db.media_recover(disk) {
                Ok(_) => {
                    run.failed_disks.remove(&disk);
                }
                Err(ref e) if run.is_crash_err(e) => {
                    run.crash_and_recover(fabric);
                    break;
                }
                Err(e) => {
                    run.violations
                        .push(format!("final rebuild of disk {disk} failed: {e}"));
                    return;
                }
            }
        }
    }
    if run.wedged {
        return;
    }
    // 4. Durability oracle: committed state (global page order) must
    //    equal the model's.
    match run.db.state_dump() {
        Ok(pages) => {
            for page in 0..run.model.pages() {
                let got = pages
                    .get(page as usize)
                    .and_then(|image| image.first())
                    .copied();
                let want = run.model.committed_byte(page);
                if got != Some(want) {
                    run.violations.push(format!(
                        "durability: page {page} = {got:?} after quiescence, model committed {want}"
                    ));
                }
            }
        }
        Err(e) => run
            .violations
            .push(format!("state dump failed at quiescence: {e}")),
    }
    // 5. Physical parity invariants, every shard.
    match run.db.verify() {
        Ok(list) => run
            .violations
            .extend(list.into_iter().map(|v| format!("parity: {v}"))),
        Err(e) => run.violations.push(format!("parity verify failed: {e}")),
    }
    // 6. Cross-layer audit, shard-merged.
    let audit = run.db.audit();
    run.violations
        .extend(audit.violations().iter().map(|v| format!("audit: {v}")));
    // 7. No 2PC decision may outlive its application.
    let staged = run.db.staged_intents();
    if staged > 0 {
        run.violations.push(format!(
            "{staged} cross-shard intent(s) still staged after quiescence"
        ));
    }
}
