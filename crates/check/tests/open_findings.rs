//! Findings, shrunk and pinned. Each schedule came out of
//! `rda-check --seed 0x1992 --schedules 200 --faults 6` (or is marked
//! hand-written); each test expects a clean run and stays ignored until
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
