//! Kernel probes: each layer's hot primitive timed on its own, through the
//! layer's public constructor, at the paper's page size. They say whether a
//! layer's code got faster independently of how often a workload calls it.

use crate::workloads::{paper_cfg, FRAMES, PAGES};
use crate::Report;
use rda_array::{xor, BlockDevice, DataPageId, DiskArray, DiskId, Page, ParitySlot};
use rda_buffer::{BufferConfig, BufferPool};
use rda_disk::{DurabilityMode, FileDisk};
use rda_wal::{LogConfig, LogManager, LogRecord, LogStore, TxnId};
use std::hint::black_box;
use std::path::Path;
use std::time::Instant;

/// Median over `batches` of the mean nanoseconds of `iters` calls.
fn probe(batches: usize, iters: u64, mut op: impl FnMut(u64)) -> f64 {
    let mut means = Vec::with_capacity(batches);
    let mut i = 0;
    for _ in 0..batches {
        let t = Instant::now();
        for _ in 0..iters {
            op(i);
            i += 1;
        }
        means.push(t.elapsed().as_nanos() as f64 / iters as f64);
    }
    crate::stats::median_f64(&means)
}

/// The in-memory layers: `rda-array`, `rda-buffer`, `rda-wal`.
pub fn kernels(report: &mut Report) {
    let cfg = paper_cfg();
    let size = cfg.array.page_size;

    let mut dst = vec![0x5Au8; size];
    let src = vec![0xA5u8; size];
    let ns = probe(9, 20_000, |_| {
        xor::xor_in_place(black_box(&mut dst), black_box(&src));
    });
    report.set(
        "array.xor_gib_per_s",
        size as f64 / ns * 1e9 / (1u64 << 30) as f64,
    );

    let array = DiskArray::new(cfg.array.clone());
    let image = Page::from_bytes(&vec![0x3Cu8; size]);
    let pages = u64::from(PAGES);
    report.set(
        "array.small_write_ns",
        probe(9, 2_000, |i| {
            let page = DataPageId((i * 13 % pages) as u32);
            let _ = black_box(array.small_write(page, &image, None, ParitySlot::P0));
        }),
    );
    report.set(
        "array.reconstruct_ns",
        probe(9, 2_000, |i| {
            let page = DataPageId((i * 13 % pages) as u32);
            let _ = black_box(array.reconstruct_data(page, ParitySlot::P0));
        }),
    );

    let mut pool = BufferPool::new(BufferConfig::steal_clock(FRAMES));
    let fetch = |_: DataPageId| Ok::<Page, ()>(Page::zeroed(size));
    let resident = FRAMES as u64;
    for p in 0..resident {
        let _ = pool.read(DataPageId(p as u32), fetch, |_| Ok(()));
    }
    report.set(
        "buffer.hit_ns",
        probe(9, 20_000, |i| {
            let _ = black_box(pool.read(DataPageId((i % resident) as u32), fetch, |_| Ok(())));
        }),
    );
    // A cyclic scan over twice the frames: every read misses and evicts a
    // clean page.
    report.set(
        "buffer.miss_evict_ns",
        probe(9, 5_000, |i| {
            let page = DataPageId((resident + i % (2 * resident)) as u32);
            let _ = black_box(pool.read(page, fetch, |_| Ok(())));
        }),
    );

    let store = LogStore::new(LogConfig::default());
    let log = LogManager::new(store.clone());
    let after = vec![0x77u8; size];
    report.set(
        "wal.append_ns",
        probe(9, 2_000, |i| {
            log.append(LogRecord::AfterImage {
                txn: TxnId(i),
                page: DataPageId((i % pages) as u32),
                image: after.clone(),
            });
        }),
    );
    let lsn = log.force();
    store.truncate_before(lsn);
    // One after-image per force: the FORCE commit path's log work.
    report.set(
        "wal.force_ns",
        probe(9, 1_000, |i| {
            log.append(LogRecord::AfterImage {
                txn: TxnId(i),
                page: DataPageId((i % pages) as u32),
                image: after.clone(),
            });
            let lsn = log.force();
            if i % 256 == 0 {
                store.truncate_before(lsn);
            }
        }),
    );
}

/// `rda-disk`: one page write followed by a durability barrier on a bare
/// `FileDisk` — the unit the durable commit path is made of.
pub fn disk(report: &mut Report, base: &Path) -> Result<(), String> {
    let dir = base.join("probe-disk");
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
    let size = paper_cfg().array.page_size;
    let blocks = 512;
    let disk = FileDisk::create(
        &dir,
        DiskId(0),
        blocks,
        size,
        DurabilityMode::FsyncOnBarrier,
    )
    .map_err(|e| format!("probe disk: {e}"))?;
    let image = Page::from_bytes(&vec![0x42u8; size]);
    let mut failed = 0u64;
    let ns = probe(5, 40, |i| {
        if disk.write(i % blocks, &image).is_err() || disk.barrier().is_err() {
            failed += 1;
        }
    });
    drop(disk);
    let _ = std::fs::remove_dir_all(&dir);
    if failed > 0 {
        return Err(format!("probe disk: {failed} write/barrier calls failed"));
    }
    report.set("disk.write_barrier_ns", ns);
    Ok(())
}
