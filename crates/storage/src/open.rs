//! Creating and reopening a file-backed [`Database`].
//!
//! A database directory holds, side by side:
//!
//! * `manifest.txt` — the on-disk format number (`rda-disk-format=7`) and
//!   the formatted geometry, both validated on reopen;
//! * `<n>.data` — one file per disk, each block's image, header (a twin
//!   parity page's timestamp, state and claim) and checksum together in a
//!   sector-aligned slot (see `crate::io`);
//! * `meta.journal` — the staged write intent, one checksummed slot;
//! * `wal.journal` — the durable mirror of the write-ahead log, behind a
//!   head slot that says where its live records start;
//! * `obs.journal` — the flight recorder's black box, when it is on.
//!
//! [`create_database`] formats a fresh directory and writes the manifest
//! *last* (`manifest.txt.tmp`, fsync, rename, fsync of the directory), so
//! a directory either has a manifest and every file it describes or has no
//! manifest and is simply formatted again; [`reopen_database`]
//! replays the journals into a [`RestoredState`] and hands the engine a
//! database in needs-recovery state — the caller runs
//! [`Database::recover`] before new work, exactly like the simulated
//! crash/recover cycle. A reopen reads only live bytes: `wal.journal`
//! from its head slot on, and an `obs.journal` kept under 256 KiB. What
//! it read, and how long each step took, are gauges in the database's
//! metrics: `wal_reopen_read_bytes`, `obs_reopen_read_bytes`,
//! `reopen_meta_ns`, `reopen_wal_ns`, `reopen_disks_ns` and
//! `reopen_flight_ns`.

use crate::disk::{DiskCounters, DurabilityMode, FileDisk};
use crate::flight::FlightRecorder;
use crate::meta::{sync_parent_dir, FileLogSink, FileMetaStore, JournalStats};
use rda_array::{DiskId, Geometry};
use rda_core::{BackendSetup, Database, DbConfig, RestoredState};
use rda_obs::{Counter, NANOS_BOUNDS};
use std::fmt;
use std::fs::File;
use std::io::{self, Write};
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

/// Tunables for opening a file-backed database beyond the durability
/// mode. `..Default::default()` keeps everything on.
#[derive(Debug, Clone, Copy)]
pub struct StorageOptions {
    /// Run the crash-persistent black box: flush trace + counters to
    /// `obs.journal` at every durability barrier and every ~200 ms, and
    /// (on reopen) attach the pre-crash snapshot to the first
    /// [`RecoveryReport`](rda_core::RecoveryReport). Turn off to measure
    /// its overhead or to open a directory read-mostly.
    pub flight_recorder: bool,
}

impl Default for StorageOptions {
    fn default() -> StorageOptions {
        StorageOptions {
            flight_recorder: true,
        }
    }
}

/// A [`Database`] running over file-backed disks. Downstream crates name
/// this alias; the raw device type stays confined to `rda-disk`.
pub type FileDb = Database<FileDisk>;

/// Why a database directory could not be created or reopened.
#[derive(Debug)]
pub enum StorageError {
    /// A file-system operation failed.
    Io(io::Error),
    /// The directory's manifest is missing, malformed, or describes a
    /// different geometry than the supplied configuration.
    Manifest(String),
    /// The configuration asks for this many engine shards. A directory
    /// holds one `wal.journal` and one `meta.journal`, so a file-backed
    /// database has one shard until each shard gets its own logs.
    Shards(u32),
}

impl fmt::Display for StorageError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StorageError::Io(e) => write!(f, "storage I/O error: {e}"),
            StorageError::Manifest(msg) => write!(f, "manifest error: {msg}"),
            StorageError::Shards(n) => write!(
                f,
                "{n} shards need per-shard logs (a wal.journal and a meta.journal \
                 each); a file-backed database has one shard"
            ),
        }
    }
}

impl std::error::Error for StorageError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            StorageError::Io(e) => Some(e),
            StorageError::Manifest(_) | StorageError::Shards(_) => None,
        }
    }
}

impl From<io::Error> for StorageError {
    fn from(e: io::Error) -> StorageError {
        StorageError::Io(e)
    }
}

const MANIFEST: &str = "manifest.txt";

/// First line of the manifest: what the files mean. Format 1 kept a
/// byte-wise hash of each block in `<n>.sum` beside back-to-back images in
/// `<n>.data`; format 2 put `rda_array::xor::checksum` in the same two
/// files; format 3 is one `<n>.data` of sector-aligned slots, each block's
/// image followed by that checksum. Read as another format, a directory's
/// files have the wrong sizes or every written block looks torn. Format 4
/// opens `wal.journal` with a head slot; format 3's journal began with
/// its first frame. Format 5 journaled the twin headers in
/// `meta.journal`; format 6 keeps each in its parity block's slot, and
/// `meta.journal` holds only the staged intent, as frames. Format 7's
/// `meta.journal` is one checksummed slot at offset 0, overwritten in
/// place; format 6's frames read as a torn slot, so a staged intent
/// would be lost.
const FORMAT_LINE: &str = "rda-disk-format=7";

/// The geometry fingerprint a directory was formatted with. Plain text,
/// one `key=value` per line, compared verbatim on reopen.
fn manifest_contents(cfg: &DbConfig) -> String {
    let geo = Geometry::new(&cfg.array);
    format!(
        "{FORMAT_LINE}\n\
         organization={:?}\n\
         n={}\n\
         groups={}\n\
         twin={}\n\
         page_size={}\n\
         disks={}\n\
         blocks_per_disk={}\n",
        cfg.array.organization,
        cfg.array.n,
        cfg.array.groups,
        cfg.array.twin,
        cfg.array.page_size,
        geo.disks(),
        geo.blocks_per_disk(),
    )
}

/// Refuse a shard count the directory layout cannot honour.
fn one_shard(cfg: &DbConfig) -> Result<(), StorageError> {
    match cfg.shards {
        1 => Ok(()),
        n => Err(StorageError::Shards(n)),
    }
}

/// Make `dir` a database: write its manifest under a temporary name, then
/// rename it into place and make the rename durable. Until the rename, a
/// kill leaves a directory [`create_database`] formats again.
fn write_manifest(dir: &Path, cfg: &DbConfig) -> io::Result<()> {
    let manifest = dir.join(MANIFEST);
    let tmp = manifest.with_extension("txt.tmp");
    let mut file = File::create(&tmp)?;
    file.write_all(manifest_contents(cfg).as_bytes())?;
    file.sync_data()?;
    std::fs::rename(&tmp, &manifest)?;
    sync_parent_dir(&manifest)
}

/// Export the disks' counters through the database's metrics registry,
/// so `db.metrics()` reports backend traffic alongside the protocol
/// counters. `disk_writes_enqueued` counts writes issued to the files; the
/// benchmark reads it under that name.
fn register_disk_metrics(db: &FileDb, disks: Vec<Arc<DiskCounters>>) {
    type Pick = fn(&DiskCounters) -> &Counter;
    let views: [(&str, Pick); 4] = [
        ("disk_writes_enqueued", |c| &c.writes),
        ("disk_barriers", |c| &c.barriers),
        ("disk_fsyncs", |c| &c.fsyncs),
        ("disk_sticky_errors", |c| &c.sticky_errors),
    ];
    let metrics = db.metrics();
    let fsync = metrics.histogram("disk_fsync_nanos", &NANOS_BOUNDS);
    for d in &disks {
        let _ = d.fsync_nanos.set(Arc::clone(&fsync));
    }
    let disks = Arc::new(disks);
    for (name, pick) in views {
        let disks = Arc::clone(&disks);
        metrics.register_view(name, move || disks.iter().map(|d| pick(d).get()).sum());
    }
}

/// Export the two journals' sizes, append/fsync tallies and
/// `wal.journal`'s rewrite tallies (`meta.journal` is one slot, never
/// rewritten), next to the engine's `wal_low_water_lsn` /
/// `wal_retained_bytes`: "is the log bounded, what does keeping it
/// bounded cost, and how many journal writes and fsyncs does a commit
/// pay" from `/metrics`.
fn register_journal_metrics(db: &FileDb, log: &Arc<FileLogSink>, meta: &Arc<FileMetaStore>) {
    type Pick = fn(&JournalStats) -> &Counter;
    let tallies: [(&str, Pick); 4] = [
        ("appends", |s| &s.appends),
        ("fsyncs", |s| &s.fsyncs),
        ("rewrites", |s| &s.rewrites),
        ("rewrite_failures", |s| &s.rewrite_failures),
    ];
    let metrics = db.metrics();
    for (journal, stats, tallies) in [
        ("wal", log.stats(), &tallies[..]),
        ("meta", meta.stats(), &tallies[..2]),
    ] {
        for &(tally, pick) in tallies {
            let stats = Arc::clone(&stats);
            metrics.register_view(&format!("{journal}_journal_{tally}_total"), move || {
                pick(&stats).get()
            });
        }
    }
    let log = Arc::clone(log);
    metrics.register_view("wal_journal_bytes", move || log.journal_bytes());
    let meta = Arc::clone(meta);
    metrics.register_view("meta_journal_bytes", move || meta.journal_bytes());
}

/// Start the black box over `dir` and hook it into the engine's
/// durability barriers. The engine's hook holds the only strong handle,
/// so the recorder (and its timer thread) lives exactly as long as the
/// database.
fn attach_flight_recorder(db: &FileDb, dir: &Path) -> Result<(), StorageError> {
    let rec = FlightRecorder::create(dir, db.shard(0).obs())?;
    db.shard(0).set_barrier_hook(Arc::new(move || {
        // Best-effort: the black box must never fail a commit.
        let _ = rec.flush();
    }));
    Ok(())
}

/// Format `dir` as a fresh file-backed database and open it.
///
/// Refuses to clobber a directory that already holds a manifest — reopen
/// that one instead, or remove it first. A directory without one (a
/// create that was killed before it finished, whatever files it left) is
/// formatted from scratch: every file is created truncated.
///
/// # Errors
/// [`StorageError::Shards`] unless `cfg.shards` is 1;
/// [`StorageError::Manifest`] if `dir` already holds a database;
/// [`StorageError::Io`] on any file-system failure.
pub fn create_database(
    dir: &Path,
    cfg: DbConfig,
    mode: DurabilityMode,
) -> Result<FileDb, StorageError> {
    create_database_with(dir, cfg, mode, StorageOptions::default())
}

/// [`create_database`] with explicit [`StorageOptions`].
///
/// # Errors
/// As [`create_database`].
pub fn create_database_with(
    dir: &Path,
    cfg: DbConfig,
    mode: DurabilityMode,
    opts: StorageOptions,
) -> Result<FileDb, StorageError> {
    one_shard(&cfg)?;
    std::fs::create_dir_all(dir)?;
    let manifest = dir.join(MANIFEST);
    if manifest.exists() {
        return Err(StorageError::Manifest(format!(
            "{} already holds a database; use reopen_database",
            dir.display()
        )));
    }
    let meta = Arc::new(FileMetaStore::create(dir)?);
    let log = Arc::new(FileLogSink::create(dir)?);
    let (disks, counters) = make_disks(dir, &cfg, mode, FileDisk::create)?;
    // Last of the files a reopen needs: from here on `dir` is a database.
    write_manifest(dir, &cfg)?;
    let db = Database::open_with(
        cfg,
        BackendSetup {
            disks,
            meta_sink: Some(Arc::clone(&meta) as _),
            log_sink: Some(Arc::clone(&log) as _),
            restored: None,
        },
    );
    register_disk_metrics(&db, counters);
    register_journal_metrics(&db, &log, &meta);
    if opts.flight_recorder {
        attach_flight_recorder(&db, dir)?;
    }
    Ok(db)
}

/// Reopen the database living in `dir` over whatever its files survived
/// with. The returned database is in needs-recovery state: run
/// [`Database::recover`] before starting new transactions.
///
/// # Errors
/// [`StorageError::Shards`] unless `cfg.shards` is 1;
/// [`StorageError::Manifest`] if the manifest is absent, was written by
/// another on-disk format, or disagrees with `cfg`; [`StorageError::Io`]
/// on any file-system failure.
pub fn reopen_database(
    dir: &Path,
    cfg: DbConfig,
    mode: DurabilityMode,
) -> Result<FileDb, StorageError> {
    reopen_database_with(dir, cfg, mode, StorageOptions::default())
}

/// [`reopen_database`] with explicit [`StorageOptions`].
///
/// # Errors
/// As [`reopen_database`].
pub fn reopen_database_with(
    dir: &Path,
    cfg: DbConfig,
    mode: DurabilityMode,
    opts: StorageOptions,
) -> Result<FileDb, StorageError> {
    one_shard(&cfg)?;
    let manifest = dir.join(MANIFEST);
    let found = std::fs::read_to_string(&manifest)
        .map_err(|e| StorageError::Manifest(format!("cannot read {}: {e}", manifest.display())))?;
    let want = manifest_contents(&cfg);
    let format = found.lines().next().unwrap_or_default();
    if format != FORMAT_LINE {
        return Err(StorageError::Manifest(format!(
            "{} was formatted as {format:?}; this build reads and writes \
             {FORMAT_LINE} only, so the database has to be created anew",
            dir.display(),
        )));
    }
    if found != want {
        return Err(StorageError::Manifest(format!(
            "{} was formatted with a different geometry (found: {} / expected: {})",
            dir.display(),
            found.replace('\n', " "),
            want.replace('\n', " "),
        )));
    }
    let t = Instant::now();
    let (meta, intent) = FileMetaStore::load(dir)?;
    let meta_ns = elapsed_ns(t);
    let t = Instant::now();
    let (log, log_base, log_records) = FileLogSink::load(dir)?;
    let wal_ns = elapsed_ns(t);
    let (meta, log) = (Arc::new(meta), Arc::new(log));
    let t = Instant::now();
    let (disks, counters) = make_disks(dir, &cfg, mode, FileDisk::open)?;
    let disks_ns = elapsed_ns(t);
    let restored = RestoredState {
        intent,
        log_base,
        log_records,
    };
    let db = Database::open_with(
        cfg,
        BackendSetup {
            disks,
            meta_sink: Some(Arc::clone(&meta) as _),
            log_sink: Some(Arc::clone(&log) as _),
            restored: Some(restored),
        },
    );
    register_disk_metrics(&db, counters);
    register_journal_metrics(&db, &log, &meta);
    let t = Instant::now();
    let mut obs_read = 0;
    if opts.flight_recorder {
        // Surface what the previous incarnation was doing when it died,
        // *before* the recorder truncates obs.journal for this run.
        let (prior, read) = FlightRecorder::load_counted(dir);
        obs_read = read;
        if let Some(prior) = prior {
            db.shard(0).set_prior_flight(prior);
        }
        attach_flight_recorder(&db, dir)?;
    }
    let flight_ns = elapsed_ns(t);
    let metrics = db.metrics();
    for (name, value) in [
        ("wal_reopen_read_bytes", log.read_at_load()),
        ("obs_reopen_read_bytes", obs_read),
        ("reopen_meta_ns", meta_ns),
        ("reopen_wal_ns", wal_ns),
        ("reopen_disks_ns", disks_ns),
        ("reopen_flight_ns", flight_ns),
    ] {
        metrics.register_view(name, move || value);
    }
    Ok(db)
}

/// Wall time since `t`, for the reopen gauges.
fn elapsed_ns(t: Instant) -> u64 {
    u64::try_from(t.elapsed().as_nanos()).unwrap_or(u64::MAX)
}

/// Build one [`FileDisk`] per configured spindle via `make` (create or
/// open), capturing each disk's counters for the metric views.
fn make_disks(
    dir: &Path,
    cfg: &DbConfig,
    mode: DurabilityMode,
    make: fn(&Path, DiskId, u64, usize, DurabilityMode) -> io::Result<FileDisk>,
) -> Result<(Vec<FileDisk>, Vec<Arc<DiskCounters>>), StorageError> {
    let geo = Geometry::new(&cfg.array);
    let mut disks = Vec::with_capacity(usize::from(geo.disks()));
    let mut counters = Vec::with_capacity(usize::from(geo.disks()));
    for d in 0..geo.disks() {
        let disk = make(
            dir,
            DiskId(d),
            geo.blocks_per_disk(),
            cfg.array.page_size,
            mode,
        )?;
        counters.push(Arc::clone(&disk.counters));
        disks.push(disk);
    }
    Ok((disks, counters))
}
