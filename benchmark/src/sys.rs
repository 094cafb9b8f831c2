//! What the benchmark asks of the host: memory high-water mark, file-system
//! type, directory sizes.

use std::path::{Path, PathBuf};

/// `VmHWM` of this process in MiB (0 where `/proc` is absent).
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// The file-system type holding `dir`, from `/proc/mounts` (longest
/// matching mount point wins); `unknown` off Linux. Wall-clock numbers of
/// the file workloads are comparable only within one type.
pub fn fs_type(dir: &Path) -> String {
    let Ok(mounts) = std::fs::read_to_string("/proc/mounts") else {
        return "unknown".to_string();
    };
    let dir = dir.canonicalize().unwrap_or_else(|_| dir.to_path_buf());
    let mut best: Option<(usize, String)> = None;
    for line in mounts.lines() {
        let mut fields = line.split_whitespace();
        let (Some(_), Some(mount), Some(fstype)) = (fields.next(), fields.next(), fields.next())
        else {
            continue;
        };
        if dir.starts_with(mount) && best.as_ref().is_none_or(|(len, _)| mount.len() >= *len) {
            best = Some((mount.len(), fstype.to_string()));
        }
    }
    best.map_or_else(|| "unknown".to_string(), |(_, t)| t)
}

/// Where the file-backed workloads keep their databases unless `--dir` says
/// otherwise: `/dev/shm` when that is a tmpfs, where `fsync` is nearly free
/// and wall-clock measures this program, not the host's shared disk; else a
/// directory under the build's `target`.
pub fn default_dir(target: &Path) -> PathBuf {
    let shm = Path::new("/dev/shm");
    if fs_type(shm) == "tmpfs" {
        shm.join("rda-benchmark")
    } else {
        target.join("benchmark-run")
    }
}

fn sizes(dir: &Path, keep: impl Fn(&str) -> bool) -> u64 {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return 0;
    };
    entries
        .flatten()
        .filter(|e| keep(&e.file_name().to_string_lossy()))
        .filter_map(|e| e.metadata().ok())
        .map(|m| m.len())
        .sum()
}

/// Apparent size of every file in a database directory.
pub fn dir_bytes(dir: &Path) -> u64 {
    sizes(dir, |_| true)
}

/// Size of `wal.journal` + `meta.journal` + `obs.journal`.
pub fn journal_bytes(dir: &Path) -> u64 {
    sizes(dir, |name| name.ends_with(".journal"))
}

/// Copy the regular files of `from` into a fresh directory `to`.
pub fn copy_dir(from: &Path, to: &Path) -> std::io::Result<()> {
    std::fs::create_dir_all(to)?;
    for entry in std::fs::read_dir(from)? {
        let entry = entry?;
        if entry.file_type()?.is_file() {
            std::fs::copy(entry.path(), to.join(entry.file_name()))?;
        }
    }
    Ok(())
}
