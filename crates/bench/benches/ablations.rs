//! Ablation benches for design choices DESIGN.md calls out:
//!
//! * **The §4.1 strawman's per-group commit surcharge** — with a single
//!   parity page holding old parity for undo, every commit must recompute
//!   each dirtied group's parity from all N data pages ("reading all the
//!   data pages in the group"). `single_parity_recompute_n10` times that
//!   surcharge in isolation (N reads + 1 write per group, ~1 µs on the
//!   in-memory simulator but N + 1 billed transfers); the twin scheme's
//!   commit does zero parity I/O, so an *entire* one-page transaction
//!   (`twin_txn_commit_full`, including its steal and log force) is the
//!   fair upper bound to hold it against.

use rda_array::{ArrayConfig, DataPageId, DiskArray, GroupId, Organization, ParitySlot};
use rda_bench::bench;
use rda_core::{Database, DbConfig, EngineKind};
use std::hint::black_box;

/// §4.1 strawman: with a single parity page holding the *old* parity for
/// undo, commit must recompute the group parity from all N data pages.
/// The twin scheme replaces this with a timestamp flip (zero I/O) — here
/// represented by the actual RDA commit of a one-page transaction.
fn bench_commit_parity_strategies() {
    // Strawman: full-group parity recompute at commit.
    let a = DiskArray::new(ArrayConfig::new(Organization::RotatedParity, 10, 50).page_size(512));
    bench(
        "commit_parity_strategy/single_parity_recompute_n10",
        || (),
        |()| {
            let parity = a.compute_group_parity(GroupId(7)).unwrap();
            a.write_parity(GroupId(7), ParitySlot::P0, black_box(&parity))
                .unwrap();
        },
    );

    // The twin scheme: an actual one-page RDA transaction (begin, write,
    // steal with working-parity update, log force, commit). The commit
    // itself flips timestamps only — zero parity I/O — so even the whole
    // transaction stays within a few recompute-equivalents.
    let mut cfg = DbConfig::paper_like(EngineKind::Rda, 500, 2);
    cfg.array.page_size = 512;
    let db = Database::open(cfg);
    let mut i = 0u32;
    bench(
        "commit_parity_strategy/twin_txn_commit_full",
        || (),
        |()| {
            i = (i + 10) % db.data_pages();
            let mut tx = db.begin();
            tx.write(i, &[1; 16]).unwrap();
            black_box(tx.commit().unwrap());
        },
    );
}

/// Data-page reads through each array organization (parity striping keeps
/// sequential pages on one disk; rotated parity spreads them).
fn bench_read_organizations() {
    for org in [Organization::RotatedParity, Organization::ParityStriping] {
        let a = DiskArray::new(ArrayConfig::new(org, 10, 50).page_size(512));
        let mut i = 0u32;
        bench(
            &format!("sequential_reads/{org:?}"),
            || (),
            |()| {
                i = (i + 1) % a.data_pages();
                black_box(a.read_data(DataPageId(i)).unwrap());
            },
        );
    }
}

fn main() {
    bench_commit_parity_strategies();
    bench_read_organizations();
}
