//! One device contract, run over both media. The in-memory `SimDisk` and
//! the file-backed `FileDisk` sit under the same `Drive` gate from
//! `rda-array`, and this one body pins down what a disk does on either:
//! every fault-hook arm on a read and on a write, `peek` bypassing the
//! hook, never-written blocks, rewrites healing latent and torn blocks, and
//! a blank replacement; and that `read_into` answers as `read` does.

use rda_array::{
    ArrayError, BlockDevice, DiskId, Drive, FaultHook, FaultKind, Header, HookState, IoEvent, Page,
    SimDisk, TwinState,
};
use rda_disk::{DurabilityMode, FileDisk};
use rda_obs::sync::Mutex;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

const BLOCKS: u64 = 16;
const PAGE: usize = 32;
const DISK: DiskId = DiskId(3);

/// A hook that answers one armed verdict to the next I/O, `None` to the
/// rest, and counts the I/Os offered to it.
#[derive(Default)]
struct Script {
    armed: Mutex<Option<FaultKind>>,
    calls: AtomicU64,
}

impl Script {
    fn arm(&self, verdict: Option<FaultKind>) {
        *self.armed.lock() = verdict;
    }

    fn calls(&self) -> u64 {
        // ordering: SeqCst — a test counter read on the issuing thread.
        self.calls.load(Ordering::SeqCst)
    }
}

impl FaultHook for Script {
    fn on_io(&self, _: &IoEvent) -> Option<FaultKind> {
        // ordering: SeqCst — see `calls`.
        self.calls.fetch_add(1, Ordering::SeqCst);
        std::mem::take(&mut *self.armed.lock())
    }
}

fn page(byte: u8) -> Page {
    Page::from_bytes(&[byte; PAGE])
}

fn media(block: u64) -> ArrayError {
    ArrayError::MediaError { disk: DISK, block }
}

fn torn(block: u64) -> ArrayError {
    ArrayError::TornPage { disk: DISK, block }
}

/// The contract itself, over a fresh disk `DISK` of `BLOCKS` blocks of
/// `PAGE` bytes.
fn contract(d: &impl BlockDevice) {
    let script = Arc::new(Script::default());
    let hook = HookState::new(Arc::clone(&script) as Arc<dyn FaultHook>);
    let stats = Arc::clone(&hook.stats);
    d.set_fault_hook(Some(hook));
    let claim = Header {
        ts: 9,
        txn: 3,
        rider: 1,
        state: TwinState::Working,
    };

    // A never-written block is zeroes under the zero header, and XORs in
    // as nothing.
    let blank = d.read(0).unwrap();
    assert!(blank.is_zeroed());
    assert_eq!(blank.header(), Header::default());
    let mut acc = page(0x3C).with_header(claim);
    d.read_xor_into(1, &mut acc).unwrap();
    assert_eq!(acc, page(0x3C));
    assert_eq!(
        acc.header(),
        Header::default(),
        "an XOR yields the zero header"
    );

    // Image and header round-trip; `read_xor_into` reads the same image.
    let p = page(7).with_header(claim);
    d.write(2, &p).unwrap();
    assert_eq!(
        (d.read(2).unwrap(), d.read(2).unwrap().header()),
        (p.clone(), claim)
    );
    let mut acc = page(7);
    d.read_xor_into(2, &mut acc).unwrap();
    assert!(acc.is_zeroed());

    // `peek` and a wrong-size write never reach the hook: an armed crash
    // stays armed through both.
    let calls = script.calls();
    script.arm(Some(FaultKind::Crash));
    assert_eq!(d.peek(2).unwrap(), p);
    assert_eq!(
        d.write(2, &Page::zeroed(PAGE / 2)),
        Err(ArrayError::PageSizeMismatch {
            expected: PAGE,
            got: PAGE / 2
        })
    );
    assert_eq!(script.calls(), calls, "not offered to the hook");
    script.arm(None);

    // An injected latent error refuses every read, the peek included,
    // until a rewrite remaps the sector.
    d.corrupt_block(2);
    assert_eq!(d.read(2), Err(media(2)));
    assert_eq!(d.peek(2), Err(media(2)));
    assert_eq!(d.read_xor_into(2, &mut acc), Err(media(2)));
    assert!(d.read(3).is_ok(), "other blocks still read");
    d.write(2, &page(4)).unwrap();
    assert_eq!(d.read(2).unwrap(), page(4), "rewrite heals latent");

    // An injected tear likewise, until the block is rewritten.
    d.tear_block(2);
    assert_eq!(d.read(2), Err(torn(2)));
    assert_eq!(d.peek(2), Err(torn(2)));
    d.write(2, &page(5)).unwrap();
    assert_eq!(d.read(2).unwrap(), page(5), "rewrite heals the tear");

    // The hook's arms on a read. Transient and the crash flavours leave
    // the disk as it was; a latent verdict marks the block until rewritten.
    for kind in [FaultKind::Transient, FaultKind::TornWrite, FaultKind::Crash] {
        script.arm(Some(kind));
        let expect = match kind {
            FaultKind::Transient => ArrayError::Transient {
                disk: DISK,
                block: 2,
            },
            _ => ArrayError::Crashed,
        };
        assert_eq!(d.read(2), Err(expect), "{kind:?}");
        assert_eq!(d.read(2).unwrap(), page(5), "{kind:?} left no mark");
    }
    script.arm(Some(FaultKind::Latent));
    assert_eq!(d.read(2), Err(media(2)));
    assert_eq!(d.read(2), Err(media(2)), "the rot stays");
    d.write(2, &page(6)).unwrap();
    assert_eq!(d.read(2).unwrap(), page(6));

    // The hook's arms on a write.
    script.arm(Some(FaultKind::Transient));
    assert_eq!(
        d.write(4, &page(1)),
        Err(ArrayError::Transient {
            disk: DISK,
            block: 4
        })
    );
    assert!(
        d.read(4).unwrap().is_zeroed(),
        "a transient write lands nothing"
    );
    d.write(4, &page(1)).unwrap();
    assert_eq!(d.read(4).unwrap(), page(1), "the retry goes through");

    script.arm(Some(FaultKind::Latent));
    d.write(5, &page(2)).unwrap();
    assert_eq!(d.read(5), Err(media(5)), "the write rots after it lands");
    d.write(5, &page(3)).unwrap();
    assert_eq!(d.read(5).unwrap(), page(3));

    script.arm(Some(FaultKind::Crash));
    assert_eq!(d.write(4, &page(9)), Err(ArrayError::Crashed));
    assert_eq!(d.read(4).unwrap(), page(1), "a crash lands nothing");

    script.arm(Some(FaultKind::TornWrite));
    assert_eq!(d.write(4, &page(9)), Err(ArrayError::Crashed));
    assert_eq!(d.read(4), Err(torn(4)));
    d.write(4, &page(8)).unwrap();
    assert_eq!(d.read(4).unwrap(), page(8));

    // A torn write over a rotten block leaves a tear, not the rot: restart
    // counts a healed torn twin only on `TornPage`.
    d.corrupt_block(4);
    script.arm(Some(FaultKind::TornWrite));
    assert_eq!(d.write(4, &page(2)), Err(ArrayError::Crashed));
    assert_eq!(d.read(4), Err(torn(4)));
    d.write(4, &page(8)).unwrap();

    // A disk failure on a read, then on a write; only a replacement, blank,
    // brings the disk back.
    for write in [false, true] {
        script.arm(Some(FaultKind::FailDisk));
        let failed = Err(ArrayError::DiskFailed(DISK));
        if write {
            assert_eq!(d.write(6, &page(1)), failed);
        } else {
            assert_eq!(d.read(6).map(drop), failed);
        }
        assert!(d.is_failed());
        assert_eq!(d.read(4).map(drop), failed);
        assert_eq!(d.peek(4).map(drop), failed);
        assert_eq!(d.write(4, &page(1)), failed);
        script.arm(Some(FaultKind::TornWrite));
        assert_eq!(d.write(4, &page(1)), failed, "a dead disk tears nothing");
        d.replace();
        assert!(!d.is_failed());
        for block in [2, 4, 5] {
            assert!(d.read(block).unwrap().is_zeroed(), "replacement is blank");
        }
    }

    assert_eq!(stats.count(FaultKind::Transient), 2);
    assert_eq!(stats.count(FaultKind::Latent), 2);
    assert_eq!(stats.count(FaultKind::TornWrite), 5);
    assert_eq!(stats.count(FaultKind::Crash), 2);
    assert_eq!(stats.count(FaultKind::FailDisk), 2);
}

/// `read_into` is `read` into a caller's buffer: from the same block state
/// under the same hook verdict, both give the same image and header or
/// the same error, and the hook is offered the transfer the same number
/// of times (its I/O clock advances alike).
fn read_into_matches_read(d: &impl BlockDevice) {
    let script = Arc::new(Script::default());
    d.set_fault_hook(Some(HookState::new(
        Arc::clone(&script) as Arc<dyn FaultHook>
    )));
    let claim = Header {
        ts: 4,
        txn: 2,
        rider: 3,
        state: TwinState::Working,
    };
    let stale = Header {
        ts: 8,
        ..Header::default()
    };
    let same = |block: u64, verdict: Option<FaultKind>, case: &str| {
        let before = script.calls();
        script.arm(verdict);
        let read = d.read(block).map(|p| (p.header(), p));
        let by_read = script.calls() - before;
        script.arm(verdict);
        let mut dst = page(0xEE).with_header(stale);
        let into = d.read_into(block, &mut dst).map(|()| (dst.header(), dst));
        assert_eq!(into, read, "{case}");
        assert_eq!(
            script.calls() - before - by_read,
            by_read,
            "{case}: hook clock"
        );
        script.arm(None);
    };

    d.write(1, &page(7).with_header(claim)).unwrap();
    same(1, None, "intact block, header included");
    same(0, None, "blank block");
    same(1, Some(FaultKind::Transient), "transient verdict");
    same(1, Some(FaultKind::Crash), "crash verdict");
    same(
        1,
        Some(FaultKind::TornWrite),
        "torn-write verdict on a read",
    );
    d.tear_block(1);
    same(1, None, "torn block");
    d.write(1, &page(7)).unwrap();
    d.corrupt_block(1);
    same(1, None, "latent error");
    d.write(1, &page(7)).unwrap();
    d.fail();
    same(1, None, "failed disk");
    d.replace();
    same(1, None, "blank replacement");
}

#[test]
fn sim_disk_read_into_matches_read() {
    read_into_matches_read(&Drive::new(DISK, BLOCKS, PAGE, SimDisk::new(PAGE)));
}

#[test]
fn file_disk_read_into_matches_read() {
    let dir = std::env::temp_dir().join(format!("rda-disk-read-into-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let mode = DurabilityMode::FsyncOnBarrier;
    read_into_matches_read(&FileDisk::create(&dir, DISK, BLOCKS, PAGE, mode).unwrap());
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn sim_disk_keeps_the_device_contract() {
    contract(&Drive::new(DISK, BLOCKS, PAGE, SimDisk::new(PAGE)));
}

#[test]
fn file_disk_keeps_the_device_contract() {
    let dir = std::env::temp_dir().join(format!("rda-disk-contract-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let mode = DurabilityMode::FsyncOnBarrier;
    contract(&FileDisk::create(&dir, DISK, BLOCKS, PAGE, mode).unwrap());
    let _ = std::fs::remove_dir_all(&dir);
}
