//! Findings, shrunk and pinned. Each schedule came out of an `rda-check`
//! sweep with `--faults 3` or more, at the seed its name carries
//! (`g<seed>-<index>+<fault>@<io>`: 0x1992 with `--schedules 200 --faults
//! 6`, 7 and 0xbeef with `--schedules 300 --faults 3`; a `t` in place of
//! the `g` names the threaded stream, 0xbeef with `--threaded --schedules
//! 1000 --faults 3`; a trailing `~` marks a shrunk one, the repro the
//! sweep's `--repro-out` wrote), or is marked hand-written. Each test expects a clean run and stays ignored until
//! the engine is fixed (ROADMAP item 1), then runs with the rest. Run the
//! open ones with `cargo test -p rda-check --test open_findings --
//! --ignored`.

use rda_check::{run_schedule, Json, ProtocolMutations, Schedule};

fn assert_clean(text: &str) {
    let sched = Schedule::from_json(&Json::parse(text).expect("parse")).expect("schedule");
    let outcome = run_schedule(&sched, ProtocolMutations::default());
    assert!(
        outcome.fault_fired,
        "'{}': the fault never fired",
        sched.name
    );
    assert!(outcome.ok(), "'{}': {:?}", sched.name, outcome.violations);
}

/// Finding (a)'s audit signature, deterministic on the simulated array:
/// one shard, ¬FORCE, one transaction at a time, no gate. Slot 0's abort
/// restores page 12 through the parity; the planted tear hits the
/// restoring data write. Restart replays the logged compensation image
/// (slot 1's committed, never-flushed 247), but the committed twin still
/// covers the pre-steal disk version, so "parity twin P0 (committed) does
/// not equal the XOR of the group's data pages". Fixed: restart now
/// recomputes the committed twin after applying the compensation image.
#[test]
fn finding_a_torn_rollback_write_leaves_the_committed_twin_stale() {
    assert_clean(
        r#"{"name":"g0000000000001992-70+torn_write@14","config":{"frames":6,"eot":"noforce","strict":true,"shards":1,"group_commit":false},"ops":[{"op":"begin","slot":1},{"op":"write","slot":1,"page":12,"val":247},{"op":"write","slot":1,"page":1,"val":161},{"op":"read","slot":1,"page":6},{"op":"read","slot":1,"page":2},{"op":"commit","slot":1},{"op":"begin","slot":0},{"op":"read","slot":0,"page":13},{"op":"write","slot":0,"page":12,"val":219},{"op":"write","slot":0,"page":5,"val":251},{"op":"write","slot":0,"page":4,"val":131},{"op":"abort","slot":0}],"fault":{"mode":"torn_write","at_io":14}}"#,
    );
}

/// Finding (b)'s class: "durability: page 6 = Some(219) after
/// quiescence, model committed 0". Slot 2's stolen page 6 rides group 1
/// when the crash comes, and a disk dies during restart. Before restart
/// read the twins first, the dead disk held that group's committed twin
/// and died under the undo's read of it, and the rebuild reconstructed
/// the twin from members that include the loser's page. Now the undo
/// falls back to the twins the bitmap scan read.
#[test]
fn finding_b_a_dirty_groups_committed_twin_dies_before_a_crash() {
    assert_clean(
        r#"{"name":"g0000000000001992-48+fail_disk@24~","config":{"frames":6,"eot":"force","strict":false,"shards":1,"group_commit":false},"ops":[{"op":"begin","slot":0},{"op":"write","slot":0,"page":1,"val":109},{"op":"begin","slot":2},{"op":"write","slot":2,"page":6,"val":219},{"op":"write","slot":2,"page":3,"val":43},{"op":"begin","slot":3},{"op":"write","slot":3,"page":14,"val":215},{"op":"read","slot":0,"page":8},{"op":"write","slot":0,"page":0,"val":157},{"op":"write","slot":3,"page":5,"val":221},{"op":"commit","slot":0},{"op":"read","slot":2,"page":13},{"op":"crash_restart"}],"fault":{"mode":"fail_disk","at_io":24}}"#,
    );
}

/// Finding (b) as first reported: "durability: page 6 = Some(75) after
/// quiescence, model committed 0". The planted death takes the disk of a
/// twin that slot 3's stolen page 6 rides on, and the transaction aborts
/// afterwards. Fixed: a disk death turns every ride that lost a twin to
/// it into a logged steal (`Engine::settle_disk_deaths`).
#[test]
fn finding_b_a_ride_loses_a_twin_to_a_disk_death() {
    assert_clean(
        r#"{"name":"g0000000000001992-110+fail_disk@17","config":{"frames":2,"eot":"noforce","strict":false,"shards":1,"group_commit":false},"ops":[{"op":"begin","slot":2},{"op":"write","slot":2,"page":14,"val":7},{"op":"begin","slot":3},{"op":"write","slot":3,"page":6,"val":75},{"op":"begin","slot":1},{"op":"read","slot":1,"page":7},{"op":"begin","slot":0},{"op":"write","slot":0,"page":2,"val":91},{"op":"write","slot":3,"page":8,"val":73},{"op":"write","slot":0,"page":1,"val":39},{"op":"read","slot":2,"page":1},{"op":"read","slot":2,"page":6},{"op":"write","slot":0,"page":2,"val":133},{"op":"read","slot":0,"page":10},{"op":"write","slot":2,"page":2,"val":65},{"op":"write","slot":3,"page":3,"val":193},{"op":"commit","slot":2},{"op":"commit","slot":1},{"op":"abort","slot":0},{"op":"abort","slot":3}],"fault":{"mode":"fail_disk","at_io":17}}"#,
    );
}

/// The mirror of finding (b), hand-written from `-48`'s prefix: slot 2's
/// page 6 rides group 1 when the disk holding the *working* twin (disk 3)
/// dies under a read, and a crash follows. Once a ride's claim lives only
/// in its working twin, the death takes the claim with it; the ride must
/// have become a logged steal before the crash.
#[test]
fn the_working_twins_disk_dies_then_a_crash_follows() {
    assert_clean(
        r#"{"name":"working-twin-dies-then-crash","config":{"frames":6,"eot":"force","strict":false,"shards":1,"group_commit":false},"ops":[{"op":"begin","slot":0},{"op":"write","slot":0,"page":1,"val":109},{"op":"begin","slot":2},{"op":"write","slot":2,"page":6,"val":219},{"op":"write","slot":2,"page":3,"val":43},{"op":"begin","slot":3},{"op":"write","slot":3,"page":14,"val":215},{"op":"read","slot":0,"page":8},{"op":"write","slot":0,"page":0,"val":157},{"op":"write","slot":3,"page":5,"val":221},{"op":"commit","slot":0},{"op":"read","slot":2,"page":13},{"op":"crash_restart"}],"fault":{"mode":"fail_disk","at_io":19}}"#,
    );
}

/// "restart recovery failed: group G2 has lost more than one page". Slot
/// 3's page 11 rides group 2 at the crash; during restart the disk
/// holding group 2's committed twin dies before the bitmap scan reaches
/// it. The one copy of the page's before-image was that twin, and the
/// ride logged nothing, so restart cannot undo the page: a crash and a
/// disk death before restart read the twin. Earlier I/O orders put the
/// planted death elsewhere.
#[test]
#[ignore = "open finding, ROADMAP item 1"]
fn a_riders_committed_twin_dies_during_restart_before_the_scan_reads_it() {
    assert_clean(
        r#"{"name":"g0000000000001992-69+fail_disk@34","config":{"frames":2,"eot":"noforce","strict":false,"shards":1,"group_commit":false},"ops":[{"op":"begin","slot":0},{"op":"write","slot":0,"page":6,"val":123},{"op":"begin","slot":2},{"op":"write","slot":2,"page":1,"val":145},{"op":"read","slot":2,"page":4},{"op":"commit","slot":2},{"op":"begin","slot":1},{"op":"write","slot":1,"page":11,"val":31},{"op":"write","slot":1,"page":2,"val":233},{"op":"write","slot":0,"page":5,"val":201},{"op":"read","slot":0,"page":3},{"op":"read","slot":0,"page":11},{"op":"commit","slot":0},{"op":"crash_restart"},{"op":"read","slot":1,"page":3},{"op":"write","slot":1,"page":3,"val":95},{"op":"commit","slot":1},{"op":"begin","slot":3},{"op":"read","slot":3,"page":15},{"op":"write","slot":3,"page":6,"val":231},{"op":"commit","slot":3}],"fault":{"mode":"fail_disk","at_io":34}}"#,
    );
}

/// "parity rider left unresolved at end of trace", and nothing else: a
/// dirties-group steal puts its working twin on disk 4, `fail_disk 4`
/// kills that disk, and the crash lands while the death is being settled,
/// after the ride's before-image is logged but before its `Relogged`
/// event. Restart undoes the page from that image (`LogUndo`). Fixed: the
/// trace scan lets a recovery-window `LogUndo` of the rider's own page
/// and transaction end the ride.
#[test]
fn a_crash_while_a_disk_death_is_settled_leaves_the_ride_to_the_log() {
    assert_clean(
        r#"{"name":"g0000000000000007-85+crash@8~","config":{"frames":2,"eot":"force","strict":false,"shards":1,"group_commit":false},"ops":[{"op":"begin","slot":0},{"op":"write","slot":0,"page":0,"val":61},{"op":"begin","slot":1},{"op":"read","slot":1,"page":2},{"op":"write","slot":0,"page":6,"val":223},{"op":"fail_disk","disk":4}],"fault":{"mode":"crash","at_io":8}}"#,
    );
}

/// The same window at another seed: slot 2's page 3 rides group 0.
#[test]
fn a_crash_while_a_disk_death_is_settled_leaves_the_ride_to_the_log_again() {
    assert_clean(
        r#"{"name":"g000000000000beef-62+crash@9~","config":{"frames":2,"eot":"force","strict":false,"shards":1,"group_commit":false},"ops":[{"op":"begin","slot":1},{"op":"begin","slot":2},{"op":"write","slot":2,"page":3,"val":251},{"op":"read","slot":2,"page":11},{"op":"write","slot":1,"page":5,"val":215},{"op":"fail_disk","disk":4}],"fault":{"mode":"crash","at_io":9}}"#,
    );
}

/// The `-69` class at seed 7 (FORCE): "restart recovery failed: group G1
/// has lost more than one page". A disk dies during restart, before the
/// bitmap scan reads the committed twin that alone holds a loser's
/// before-image.
#[test]
#[ignore = "open finding, ROADMAP item 1"]
fn the_minus_69_class_at_seed_7_schedule_181() {
    assert_clean(
        r#"{"name":"g0000000000000007-181+fail_disk@11","config":{"frames":4,"eot":"force","strict":false,"shards":1,"group_commit":false},"ops":[{"op":"begin","slot":3},{"op":"write","slot":3,"page":6,"val":253},{"op":"begin","slot":0},{"op":"write","slot":0,"page":15,"val":15},{"op":"write","slot":0,"page":5,"val":95},{"op":"write","slot":3,"page":4,"val":9},{"op":"write","slot":0,"page":1,"val":13},{"op":"write","slot":3,"page":5,"val":9},{"op":"begin","slot":2},{"op":"read","slot":2,"page":5},{"op":"abort","slot":0},{"op":"abort","slot":2},{"op":"crash_restart"},{"op":"begin","slot":1},{"op":"write","slot":1,"page":5,"val":33},{"op":"read","slot":1,"page":7},{"op":"write","slot":3,"page":1,"val":23},{"op":"write","slot":1,"page":5,"val":237},{"op":"commit","slot":3},{"op":"commit","slot":1}],"fault":{"mode":"fail_disk","at_io":11}}"#,
    );
}

/// The `-69` class at seed 0xbeef (¬FORCE): "group G2 has lost more than
/// one page".
#[test]
#[ignore = "open finding, ROADMAP item 1"]
fn the_minus_69_class_at_seed_0xbeef_schedule_130() {
    assert_clean(
        r#"{"name":"g000000000000beef-130+fail_disk@22","config":{"frames":4,"eot":"noforce","strict":false,"shards":1,"group_commit":false},"ops":[{"op":"begin","slot":1},{"op":"write","slot":1,"page":1,"val":127},{"op":"begin","slot":0},{"op":"write","slot":0,"page":9,"val":117},{"op":"write","slot":1,"page":2,"val":37},{"op":"read","slot":0,"page":7},{"op":"write","slot":0,"page":6,"val":29},{"op":"read","slot":1,"page":2},{"op":"abort","slot":1},{"op":"write","slot":0,"page":11,"val":69},{"op":"crash_restart"},{"op":"commit","slot":0}],"fault":{"mode":"fail_disk","at_io":22}}"#,
    );
}

/// The `-69` class at seed 0xbeef (¬FORCE, strict): "group G1 has lost
/// more than one page".
#[test]
#[ignore = "open finding, ROADMAP item 1"]
fn the_minus_69_class_at_seed_0xbeef_schedule_180() {
    assert_clean(
        r#"{"name":"g000000000000beef-180+fail_disk@18","config":{"frames":3,"eot":"noforce","strict":true,"shards":1,"group_commit":false},"ops":[{"op":"begin","slot":0},{"op":"write","slot":0,"page":7,"val":209},{"op":"begin","slot":1},{"op":"read","slot":1,"page":11},{"op":"begin","slot":2},{"op":"write","slot":2,"page":6,"val":25},{"op":"write","slot":2,"page":0,"val":165},{"op":"write","slot":2,"page":2,"val":149},{"op":"write","slot":2,"page":14,"val":107},{"op":"crash_restart"},{"op":"commit","slot":0},{"op":"commit","slot":2},{"op":"write","slot":1,"page":7,"val":57},{"op":"commit","slot":1}],"fault":{"mode":"fail_disk","at_io":18}}"#,
    );
}

/// The first two-shard instance of the `-69` class (FORCE, no
/// group-commit gate): "restart recovery failed: group G0 has lost more
/// than one page", the one-shard class's message. The shrinker's output
/// for this schedule fails differently (a durability violation), so the
/// schedule is pinned as the sweep found it.
#[test]
#[ignore = "open finding, ROADMAP item 1"]
fn the_minus_69_class_on_two_shards_at_seed_0xbeef_schedule_592() {
    assert_clean(
        r#"{"name":"t000000000000beef-592+fail_disk@59","config":{"frames":3,"eot":"force","strict":false,"shards":2,"group_commit":false},"ops":[{"op":"begin","slot":3},{"op":"write","slot":3,"page":15,"val":3},{"op":"begin","slot":1},{"op":"read","slot":1,"page":7},{"op":"begin","slot":2},{"op":"write","slot":2,"page":11,"val":157},{"op":"begin","slot":0},{"op":"read","slot":0,"page":9},{"op":"write","slot":2,"page":3,"val":185},{"op":"write","slot":3,"page":14,"val":117},{"op":"read","slot":1,"page":6},{"op":"read","slot":3,"page":12},{"op":"write","slot":0,"page":2,"val":103},{"op":"write","slot":0,"page":0,"val":231},{"op":"write","slot":3,"page":7,"val":55},{"op":"write","slot":0,"page":10,"val":215},{"op":"abort","slot":3},{"op":"write","slot":1,"page":4,"val":197},{"op":"read","slot":1,"page":6},{"op":"commit","slot":1},{"op":"write","slot":2,"page":14,"val":219},{"op":"write","slot":2,"page":10,"val":119},{"op":"commit","slot":0},{"op":"crash_restart"},{"op":"commit","slot":2}],"fault":{"mode":"fail_disk","at_io":59}}"#,
    );
}

/// The shrinker's repro of `-592` above, and a worse failure than it: a
/// silent one. Restart reports no error, and on shard 0 undoes the
/// loser's group-0 ride (`ParityUndo page 3 group 0 txn 1`) but not its
/// group-1 ride (the shard's page 7, the database's page 11), so
/// "durability: page 11 = Some(157) after quiescence" (the loser's
/// write), shard 0's group G1 parity slot P0 is stale (verify),
/// its committed twin P0 is not the XOR of its data pages (audit), and
/// the trace scan finds the group-1 rider of txn 1 unresolved.
#[test]
#[ignore = "open finding, ROADMAP item 1"]
fn the_shrunk_minus_592_leaves_a_riders_write_behind_on_two_shards() {
    assert_clean(
        r#"{"name":"t000000000000beef-592+fail_disk@59~","config":{"frames":3,"eot":"force","strict":false,"shards":2,"group_commit":false},"ops":[{"op":"begin","slot":3},{"op":"write","slot":3,"page":15,"val":3},{"op":"begin","slot":1},{"op":"read","slot":1,"page":7},{"op":"begin","slot":2},{"op":"write","slot":2,"page":11,"val":157},{"op":"begin","slot":0},{"op":"read","slot":0,"page":9},{"op":"write","slot":2,"page":3,"val":185},{"op":"write","slot":3,"page":14,"val":117},{"op":"read","slot":1,"page":6},{"op":"read","slot":3,"page":12},{"op":"write","slot":0,"page":2,"val":103},{"op":"write","slot":0,"page":0,"val":231},{"op":"write","slot":3,"page":7,"val":55},{"op":"write","slot":0,"page":10,"val":215},{"op":"abort","slot":3},{"op":"write","slot":1,"page":4,"val":197},{"op":"read","slot":1,"page":6},{"op":"write","slot":2,"page":14,"val":219},{"op":"commit","slot":0},{"op":"crash_restart"}],"fault":{"mode":"fail_disk","at_io":59}}"#,
    );
}
