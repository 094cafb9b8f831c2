//! [`FileDisk`]: one disk of the array as a real file — `rda-array`'s
//! [`Drive`] gate over the disk's slot file (`crate::io`), so the fault
//! arms, failure states, sticky poison and the barrier's dirty rule are the
//! simulated disk's by construction. What the file adds is physical: a
//! transfer is one `pread` or `pwrite` of the block's slot on the calling
//! thread, in the file when the call returns (stable storage is the job of
//! the fsync a barrier runs), and a tear is a checksum mismatch on the
//! platter, so it survives a process death.
//!
//! The file and its slot buffer live inside the drive's lock, so one disk's
//! reads, writes, barriers and replacement are serial and a read never sees
//! the buffer another call is filling.

use crate::io::DiskFiles;
use rda_array::{BlockDevice, DiskId, Drive, HookState, Page};
use rda_obs::{Counter, Histogram};
use std::io;
use std::path::Path;
use std::sync::{Arc, OnceLock};

/// When a disk's writes are pushed to stable storage: at explicit
/// [`BlockDevice::barrier`] points (commit, checkpoint, recovery finish)
/// and nowhere else. A barrier fsyncs a disk only if its file was modified
/// since the last successful fsync, so a commit pays for the disks it
/// touched.
///
/// It has one variant, and nothing reads it: `benchmark/` passes it to
/// [`FileDisk::create`], [`create_database`](crate::create_database) and
/// [`reopen_database`](crate::reopen_database), so the type and those
/// parameters stay while the benchmark names them.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum DurabilityMode {
    /// Fsync at barriers only.
    #[default]
    FsyncOnBarrier,
}

/// Per-disk traffic counters behind the `disk_*` metric views. Shared, so
/// the views keep reading after the disk has moved into the array.
#[derive(Default)]
pub(crate) struct DiskCounters {
    /// Writes issued to the file.
    pub(crate) writes: Counter,
    /// Durability barriers issued against this disk.
    pub(crate) barriers: Counter,
    /// Fsyncs performed by barriers.
    pub(crate) fsyncs: Counter,
    /// Times the disk was poisoned: a failed fsync, or a replacement
    /// that could not be blanked.
    pub(crate) sticky_errors: Counter,
    /// Wall time of each fsync, installed (once, at open time) by the
    /// metrics wiring; absent on a bare disk.
    pub(crate) fsync_nanos: OnceLock<Arc<Histogram>>,
}

/// One file-backed disk of the array.
pub struct FileDisk {
    drive: Drive<DiskFiles>,
    pub(crate) counters: Arc<DiskCounters>,
}

impl FileDisk {
    /// Create the backing file for a fresh disk.
    ///
    /// # Errors
    /// Any file-system error creating or sizing the backing file.
    pub fn create(
        dir: &Path,
        id: DiskId,
        block_count: u64,
        page_size: usize,
        _mode: DurabilityMode,
    ) -> io::Result<FileDisk> {
        let files = DiskFiles::create(dir, id.0, block_count, page_size)?;
        Ok(FileDisk::over(files, id))
    }

    /// Open a disk over a surviving file (geometry is validated against
    /// the file size).
    ///
    /// # Errors
    /// The file is missing or its size does not match the geometry.
    pub fn open(
        dir: &Path,
        id: DiskId,
        block_count: u64,
        page_size: usize,
        _mode: DurabilityMode,
    ) -> io::Result<FileDisk> {
        let files = DiskFiles::open(dir, id.0, block_count, page_size)?;
        Ok(FileDisk::over(files, id))
    }

    /// The disk over `files`, created or opened.
    pub(crate) fn over(files: DiskFiles, id: DiskId) -> FileDisk {
        FileDisk {
            counters: Arc::clone(&files.counters),
            drive: Drive::new(id, files.block_count, files.page_size, files),
        }
    }
}

/// The drive's, except that barriers are counted.
impl BlockDevice for FileDisk {
    fn id(&self) -> DiskId {
        self.drive.id()
    }

    fn block_count(&self) -> u64 {
        self.drive.block_count()
    }

    fn set_fault_hook(&self, state: Option<HookState>) {
        self.drive.set_fault_hook(state);
    }

    fn read(&self, block: u64) -> rda_array::Result<Page> {
        self.drive.read(block)
    }

    fn peek(&self, block: u64) -> rda_array::Result<Page> {
        self.drive.peek(block)
    }

    fn read_into(&self, block: u64, dst: &mut Page) -> rda_array::Result<()> {
        self.drive.read_into(block, dst)
    }

    fn read_xor_into(&self, block: u64, dst: &mut Page) -> rda_array::Result<()> {
        self.drive.read_xor_into(block, dst)
    }

    fn write(&self, block: u64, page: &Page) -> rda_array::Result<()> {
        self.drive.write(block, page)
    }

    fn fail(&self) {
        self.drive.fail();
    }

    fn is_failed(&self) -> bool {
        self.drive.is_failed()
    }

    fn corrupt_block(&self, block: u64) {
        self.drive.corrupt_block(block);
    }

    fn tear_block(&self, block: u64) {
        self.drive.tear_block(block);
    }

    fn replace(&self) {
        self.drive.replace();
    }

    fn barrier(&self) -> rda_array::Result<()> {
        self.counters.barriers.inc();
        self.drive.barrier()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::io::FailOn;
    use rda_array::ArrayError;
    use std::path::PathBuf;

    fn tmpdir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("rda-disk-dev-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn disk(dir: &Path) -> FileDisk {
        FileDisk::create(dir, DiskId(0), 16, 32, DurabilityMode::FsyncOnBarrier).unwrap()
    }

    fn backend_msg(err: ArrayError) -> String {
        match err {
            ArrayError::Backend { msg, .. } => msg,
            other => panic!("expected a backend error, got {other:?}"),
        }
    }

    #[test]
    fn write_read_roundtrip_and_zero_default() {
        let dir = tmpdir("roundtrip");
        let d = disk(&dir);
        assert!(d.read(5).unwrap().is_zeroed());
        let p = Page::from_bytes(&[7u8; 32]);
        d.write(3, &p).unwrap();
        assert_eq!(d.read(3).unwrap(), p, "a returned write is in the files");
        BlockDevice::barrier(&d).unwrap();
        assert_eq!(d.read(3).unwrap(), p);
        let mut acc = Page::from_bytes(&[7u8; 32]);
        d.read_xor_into(3, &mut acc).unwrap();
        assert!(acc.is_zeroed(), "read_xor_into reads the same image");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn read_xor_into_equals_read_then_xor() {
        const PAGE: usize = 2020;
        let dir = tmpdir("xor-into");
        let d =
            FileDisk::create(&dir, DiskId(0), 100, PAGE, DurabilityMode::FsyncOnBarrier).unwrap();
        let mut images = crate::io::images(0xACC0, PAGE);
        let mut image = || Page::from_bytes(&images());
        let mut acc = image();
        let mut expect = acc.clone();
        for block in 0..100 {
            d.write(block, &image()).unwrap();
            d.read_xor_into(block, &mut acc).unwrap();
            expect.xor_in_place(&d.read(block).unwrap());
            assert_eq!(acc, expect, "block {block}");
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn read_xor_into_leaves_dst_untouched_on_a_refused_block() {
        let dir = tmpdir("xor-into-torn");
        let d = disk(&dir);
        d.write(1, &Page::from_bytes(&[0x5A; 32])).unwrap();
        let before = Page::from_bytes(&[0xC3; 32]);
        let mut acc = before.clone();
        d.tear_block(1);
        assert!(matches!(
            d.read_xor_into(1, &mut acc),
            Err(ArrayError::TornPage { .. })
        ));
        assert_eq!(acc, before, "torn");
        d.write(1, &Page::from_bytes(&[0x5A; 32])).unwrap();
        d.corrupt_block(1);
        assert!(matches!(
            d.read_xor_into(1, &mut acc),
            Err(ArrayError::MediaError { .. })
        ));
        assert_eq!(acc, before, "latent");
        d.drive.with_medium(|f| f.fail_on = Some(FailOn::Sync));
        assert!(BlockDevice::barrier(&d).is_err());
        backend_msg(d.read_xor_into(2, &mut acc).unwrap_err());
        assert_eq!(acc, before, "poisoned");
        d.fail();
        assert!(matches!(
            d.read_xor_into(1, &mut acc),
            Err(ArrayError::DiskFailed(_))
        ));
        assert_eq!(acc, before, "failed");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn contents_survive_reopen() {
        let dir = tmpdir("reopen");
        let d = disk(&dir);
        d.write(2, &Page::from_bytes(&[0xCD; 32])).unwrap();
        BlockDevice::barrier(&d).unwrap();
        drop(d);
        let d = FileDisk::open(&dir, DiskId(0), 16, 32, DurabilityMode::FsyncOnBarrier).unwrap();
        assert_eq!(d.read(2).unwrap().as_ref()[0], 0xCD);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn torn_block_survives_reopen() {
        let dir = tmpdir("torn-durable");
        let d = disk(&dir);
        d.write(4, &Page::from_bytes(&[6u8; 32])).unwrap();
        BlockDevice::barrier(&d).unwrap();
        d.tear_block(4);
        drop(d);
        let d = FileDisk::open(&dir, DiskId(0), 16, 32, DurabilityMode::FsyncOnBarrier).unwrap();
        assert!(
            matches!(d.read(4), Err(ArrayError::TornPage { .. })),
            "the tear is physical, not process state"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn one_barrier_fsync_covers_many_writes() {
        let dir = tmpdir("barrier-batch");
        let d = disk(&dir);
        for block in 0..8 {
            d.write(block, &Page::from_bytes(&[block as u8 + 1; 32]))
                .unwrap();
        }
        BlockDevice::barrier(&d).unwrap();
        assert_eq!(d.counters.writes.get(), 8);
        assert_eq!(d.counters.barriers.get(), 1);
        assert_eq!(d.counters.fsyncs.get(), 1, "eight writes, one platter sync");
        assert_eq!(d.counters.sticky_errors.get(), 0);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn barrier_fsyncs_only_a_disk_modified_since_the_last_fsync() {
        let dir = tmpdir("barrier-clean");
        let d = disk(&dir);
        let fsyncs_after_barrier = || {
            BlockDevice::barrier(&d).unwrap();
            d.counters.fsyncs.get()
        };
        assert_eq!(fsyncs_after_barrier(), 1, "fresh files were never synced");
        assert_eq!(fsyncs_after_barrier(), 1, "clean: nothing to make durable");
        assert_eq!(d.counters.barriers.get(), 2, "the barrier is still counted");
        let page = Page::from_bytes(&[7u8; 32]);
        d.write(3, &page).unwrap();
        assert_eq!(fsyncs_after_barrier(), 2, "a write dirties");
        assert_eq!(d.read(3).unwrap(), page);
        assert_eq!(fsyncs_after_barrier(), 2, "a read does not");
        d.tear_block(3);
        assert_eq!(fsyncs_after_barrier(), 3, "an injected tear dirties");
        let plan = rda_array::FaultPlan::torn_write_at(1);
        let injector = Arc::new(rda_array::FaultInjector::new(plan));
        d.set_fault_hook(Some(HookState::new(injector)));
        assert_eq!(d.write(4, &page), Err(ArrayError::Crashed));
        d.set_fault_hook(None);
        assert_eq!(fsyncs_after_barrier(), 4, "a torn write dirties");
        d.replace();
        assert_eq!(fsyncs_after_barrier(), 5, "a blanked replacement dirties");
        assert_eq!(fsyncs_after_barrier(), 5);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn failed_write_is_returned_to_its_caller_and_spares_other_blocks() {
        let dir = tmpdir("pwrite-fails");
        let d = disk(&dir);
        d.write(5, &Page::from_bytes(&[1u8; 32])).unwrap();
        d.drive.with_medium(|f| f.fail_on = Some(FailOn::Write(5)));
        let msg = backend_msg(d.write(5, &Page::from_bytes(&[2u8; 32])).unwrap_err());
        assert!(msg.contains("write of block 5 failed"), "{msg}");
        // Not sticky: the disk keeps serving, the refused block included.
        d.write(6, &Page::from_bytes(&[3u8; 32])).unwrap();
        assert_eq!(d.read(6).unwrap().as_ref()[0], 3);
        assert_eq!(d.read(5).unwrap().as_ref()[0], 1, "old image intact");
        BlockDevice::barrier(&d).unwrap();
        d.drive.with_medium(|f| f.fail_on = None);
        d.write(5, &Page::from_bytes(&[2u8; 32])).unwrap();
        assert_eq!(d.counters.sticky_errors.get(), 0);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn failed_fsync_poisons_the_disk_until_replaced() {
        let dir = tmpdir("fsync-fails");
        let d = disk(&dir);
        d.write(1, &Page::from_bytes(&[1u8; 32])).unwrap();
        d.drive.with_medium(|f| f.fail_on = Some(FailOn::Sync));
        let first = backend_msg(BlockDevice::barrier(&d).unwrap_err());
        assert!(first.contains("fsync failed"), "{first}");
        // The device recovers; the disk must not retry as if clean.
        d.drive.with_medium(|f| f.fail_on = None);
        assert_eq!(backend_msg(BlockDevice::barrier(&d).unwrap_err()), first);
        let page = Page::from_bytes(&[2u8; 32]);
        assert_eq!(backend_msg(d.write(2, &page).unwrap_err()), first);
        assert_eq!(backend_msg(d.read(1).unwrap_err()), first);
        assert_eq!(d.counters.sticky_errors.get(), 1, "poisoned once");
        assert_eq!(d.counters.fsyncs.get(), 1, "no fsync after the failed one");
        d.replace();
        d.write(2, &page).unwrap();
        BlockDevice::barrier(&d).unwrap();
        assert!(d.read(1).unwrap().is_zeroed(), "replacement is blank");
        assert_eq!(d.read(2).unwrap(), page);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn replacement_that_cannot_be_blanked_stays_failed() {
        let dir = tmpdir("reset-fails");
        let d = disk(&dir);
        d.write(1, &Page::from_bytes(&[1u8; 32])).unwrap();
        d.fail();
        d.drive.with_medium(|f| f.fail_on = Some(FailOn::Reset));
        d.replace();
        assert!(d.is_failed(), "stale blocks must not be served");
        assert!(matches!(d.read(1), Err(ArrayError::DiskFailed(_))));
        assert_eq!(d.counters.sticky_errors.get(), 1);
        d.drive.with_medium(|f| f.fail_on = None);
        d.replace();
        assert!(!d.is_failed());
        assert!(d.read(1).unwrap().is_zeroed());
        BlockDevice::barrier(&d).unwrap();
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// The barrier that makes a steal's claim stable fails: the claim may
    /// be in the file over a page the steal never wrote, and the poisoned
    /// disk refuses to take it back, so the engine stops. Restart after a
    /// reopen undoes the loser through that claim.
    #[test]
    fn a_steal_whose_claim_barrier_fails_stops_the_engine() {
        use crate::meta::{FileLogSink, FileMetaStore};
        use rda_core::{BackendSetup, Database, DbConfig, DbError, EngineKind};

        let dir = tmpdir("claim-barrier");
        let cfg = DbConfig::small_test(EngineKind::Rda);
        let mode = DurabilityMode::FsyncOnBarrier;
        // Format the directory, then create its files again over disks
        // whose every fsync fails.
        drop(crate::create_database(&dir, cfg.clone(), mode).unwrap());
        let geo = rda_array::Geometry::new(&cfg.array);
        let disks = (0..geo.disks())
            .map(|d| {
                let blocks = geo.blocks_per_disk();
                let disk = FileDisk::create(&dir, DiskId(d), blocks, cfg.array.page_size, mode);
                let disk = disk.unwrap();
                disk.drive.with_medium(|f| f.fail_on = Some(FailOn::Sync));
                disk
            })
            .collect();
        let db = Database::open_with(
            cfg.clone(),
            BackendSetup {
                disks,
                meta_sink: Some(Arc::new(FileMetaStore::create(&dir).unwrap())),
                log_sink: Some(Arc::new(FileLogSink::create(&dir).unwrap())),
                restored: None,
            },
        );
        let mut tx = db.begin();
        // The pool holds 8 frames: a later write evicts an earlier page,
        // whose steal is the first write since the last barrier.
        let failed = (8..20u32).find_map(|p| tx.write(p, &[0xAB]).err());
        assert!(
            matches!(failed, Some(DbError::Array(ArrayError::Backend { .. }))),
            "{failed:?}"
        );
        assert!(matches!(tx.write(8, &[1]), Err(DbError::NeedsRecovery)));
        drop(tx);
        drop(db);

        let db = crate::reopen_database(&dir, cfg, mode).unwrap();
        let report = db.recover().unwrap();
        assert_eq!(
            report.undone_via_parity, 1,
            "the claim in the file names the loser"
        );
        for p in 8..20u32 {
            assert!(db.read_page(p).unwrap().iter().all(|b| *b == 0), "page {p}");
        }
        assert!(db.audit().is_clean());
        assert!(db.verify().unwrap().is_empty());
        let _ = std::fs::remove_dir_all(&dir);
    }
}
