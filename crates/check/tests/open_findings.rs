//! Findings, shrunk and pinned. Each schedule came out of
//! `rda-check --seed 0x1992 --schedules 200 --faults 6`; each test
//! expects a clean run and stays ignored until the engine is fixed
//! (ROADMAP item 1), then runs with the rest. Run the open ones with
//! `cargo test -p rda-check --test open_findings -- --ignored`.

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
/// quiescence, model committed 0". The disk that dies holds the committed
/// twin of group 1 while slot 2's stolen page 6 rides it; the crash that
/// follows loses the only durable before-image, and the rebuild
/// reconstructs the twin from members that include the loser's page.
#[test]
#[ignore = "open finding, ROADMAP item 1"]
fn finding_b_a_dirty_groups_committed_twin_dies_before_a_crash() {
    assert_clean(
        r#"{"name":"g0000000000001992-48+fail_disk@24~","config":{"frames":6,"eot":"force","strict":false,"shards":1,"group_commit":false},"ops":[{"op":"begin","slot":0},{"op":"write","slot":0,"page":1,"val":109},{"op":"begin","slot":2},{"op":"write","slot":2,"page":6,"val":219},{"op":"write","slot":2,"page":3,"val":43},{"op":"begin","slot":3},{"op":"write","slot":3,"page":14,"val":215},{"op":"read","slot":0,"page":8},{"op":"write","slot":0,"page":0,"val":157},{"op":"write","slot":3,"page":5,"val":221},{"op":"commit","slot":0},{"op":"read","slot":2,"page":13},{"op":"crash_restart"}],"fault":{"mode":"fail_disk","at_io":24}}"#,
    );
}
