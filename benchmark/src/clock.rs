//! The reference clock: wall-clock corrected for how fast the host happens
//! to be running.
//!
//! The benchmark's hosts are small shared VMs whose CPU speed moves between
//! regimes 30–40 % apart (a neighbour on the sibling hardware thread) that
//! last longer than a run, so no statistic *within* a run removes them: ten
//! raw runs of `sim-update` spread by 26 %, more than the widest bound a
//! metric may have. So where a run waits for nothing but the CPU — the
//! modeled array, or files on tmpfs — each driver thread interleaves a fixed
//! piece of work of its own ([`Calibrator::run`], every
//! [`CALIBRATE_EVERY_NS`]) with the transactions, and the run's times are
//! reported as wall time × [`REF_NS`] / (median of what that work took
//! during the run). The same ten runs then spread by 8 %. The raw numbers
//! are printed beside the corrected ones.
//!
//! The reference work calls nothing outside this file, so no change to the
//! engine can move it. Time spent waiting for a disk does not scale with CPU
//! speed; runs on one report raw wall-clock, as `file-restart` does.

use crate::trace::now_ns;
use std::collections::HashMap;
use std::sync::Mutex;

/// What one [`Calibrator::run`] takes on the reference host: the build VM
/// of this repository when nothing disturbs it, so a reference second is a
/// second there. Only ratios of reference times are ever compared.
pub const REF_NS: f64 = 170_000.0;
/// Wall time between calibrations on one driver thread (≈ 1 % overhead).
pub const CALIBRATE_EVERY_NS: u64 = 20_000_000;

const PAGE: usize = 2020;
const PAGES: usize = 2048;

/// A fixed piece of work with the instruction mix of a page-oriented
/// engine — XOR and copies of 2020-byte pages scattered over 4 MB, a
/// page-sized allocation, a hash-map update — so that a neighbour who slows
/// the engine slows it alike.
pub struct Calibrator {
    buf: Vec<u8>,
    acc: Vec<u8>,
    map: HashMap<u32, u64>,
    x: u64,
}

/// Calibrators handed back by finished lanes. A run sets up three times
/// with fresh lanes; freeing and re-allocating the 4 MB buffers in between
/// made glibc raise its mmap threshold and left the process's peak RSS to
/// chance (±20 % between identical runs).
static SPARE: Mutex<Vec<Calibrator>> = Mutex::new(Vec::new());

impl Calibrator {
    /// A spare calibrator, or a new one.
    pub fn take() -> Calibrator {
        let spare = SPARE.lock().map_or(None, |mut pool| pool.pop());
        spare.unwrap_or_else(Calibrator::new)
    }

    /// Keep this calibrator for the next lane.
    pub fn give_back(self) {
        if let Ok(mut pool) = SPARE.lock() {
            pool.push(self);
        }
    }

    fn new() -> Calibrator {
        Calibrator {
            buf: vec![0x5A; PAGES * PAGE],
            acc: vec![1; PAGE],
            map: (0..PAGES as u32).map(|k| (k, 0)).collect(),
            x: 12345,
        }
    }

    /// Do the reference work; returns how long it took.
    pub fn run(&mut self) -> u64 {
        let t0 = now_ns();
        for _ in 0..200 {
            self.x = self
                .x
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1_442_695_040_888_963_407);
            let i = (self.x >> 33) as usize % PAGES;
            let j = (self.x >> 20) as usize % PAGES;
            for (a, b) in self.acc.iter_mut().zip(&self.buf[i * PAGE..(i + 1) * PAGE]) {
                *a ^= *b;
            }
            self.buf[j * PAGE..(j + 1) * PAGE].copy_from_slice(&self.acc);
            *self.map.entry(i as u32).or_default() += 1;
            std::hint::black_box(self.acc.clone());
        }
        now_ns() - t0
    }
}

/// Host speed relative to the reference host (< 1: slower) from the
/// calibrations of one run, or 1 when there were none. From the median: a
/// calibration that was descheduled half-way says nothing about speed.
pub fn host_speed(calibrations_ns: &[u32]) -> f64 {
    let mut v = calibrations_ns.to_vec();
    v.sort_unstable();
    v.get(v.len() / 2)
        .map_or(1.0, |&median| REF_NS / f64::from(median.max(1)))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn speed_is_reference_over_median() {
        assert_eq!(host_speed(&[]), 1.0);
        let twice = REF_NS as u32 * 2;
        // One calibration that lost the CPU for 50 ms does not count.
        assert_eq!(host_speed(&[twice, 50_000_000, twice]), 0.5);
    }

    #[test]
    fn the_reference_work_takes_time_and_repeats() {
        let mut c = Calibrator::take();
        let took: Vec<u64> = (0..5).map(|_| c.run()).collect();
        assert!(took.iter().all(|&ns| ns > 10_000), "{took:?}");
    }
}
