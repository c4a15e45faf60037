//! How fast the box is while a phase runs, and one processor to run it on.
//!
//! The benchmark is sized for two shared virtual cores. Two things moved
//! its timings more than any change to the program could (NOISE.md has the
//! measurements):
//!
//! * **Hand-offs between virtual cores.** A reply crosses three threads
//!   (client, event loop, pump). Spread over two virtual cores, every
//!   hand-off wakes a halted core through the hypervisor: a warm round trip
//!   took 137 us with a tail of milliseconds that came and went by the
//!   minute. On one core the same round trip is two context switches and
//!   takes 25 us. [`Processors::pin_to_one`] keeps a closed-loop workload —
//!   client, server, set-up — on one processor, so the timings are the
//!   program's work and not the hypervisor's wake-ups. No such workload has
//!   work for a second core: the server is pinned to one event loop, one pump
//!   and a one-worker pool, and the client waits for it. (The open loop's
//!   sender must leave on the clock while the server plans, so `planned_open`
//!   keeps both.)
//! * **The speed of the box itself.** For stretches of minutes the host runs
//!   everything 20% to 60% slower (a cold request 7 ms, then 11 ms), a plain
//!   loop of arithmetic included. [`Reference`] is a fixed piece of work of
//!   the benchmark's own, run between the blocks of a timed phase; the phase's
//!   timings are scaled by what the reference took against
//!   [`REF_NOMINAL_US`], what it takes when the box is calm. Nothing the
//!   program under test does changes the reference, so a regression shows in
//!   full; a slow minute of the host shows in both and cancels.

use std::time::Instant;

/// What one [`Reference::run`] takes on the box the benchmark is sized for
/// while the host is calm, in microseconds (the median of ten runs' medians
/// at the commit that added the benchmark; NOISE.md). A timing is reported
/// as `measured * REF_NOMINAL_US / reference`, so on a calm box it reads as
/// measured.
pub const REF_NOMINAL_US: f64 = 8_600.0;

extern "C" {
    fn sched_getaffinity(pid: i32, cpusetsize: usize, mask: *mut u64) -> i32;
    fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
}

const MASK_WORDS: usize = 16; // 1024 processors

/// The processors the process was started on.
pub struct Processors {
    allowed: [u64; MASK_WORDS],
}

impl Processors {
    /// Ask the kernel where the calling thread may run; `None` when it will
    /// not say (the run goes on unpinned, and says so).
    pub fn allowed() -> Option<Processors> {
        let mut allowed = [0u64; MASK_WORDS];
        // SAFETY: `allowed` is a writable buffer of the size passed; pid 0 is
        // the calling thread.
        let rc =
            unsafe { sched_getaffinity(0, std::mem::size_of_val(&allowed), allowed.as_mut_ptr()) };
        (rc == 0).then_some(Processors { allowed })
    }

    fn set(mask: &[u64; MASK_WORDS]) -> bool {
        // SAFETY: `mask` is a readable buffer of the size passed.
        unsafe { sched_setaffinity(0, std::mem::size_of_val(mask), mask.as_ptr()) == 0 }
    }

    /// Restrict the calling thread, and every thread it starts from here on,
    /// to the highest-numbered processor it was started on. Returns that
    /// processor, or `None` when the kernel refused.
    pub fn pin_to_one(&self) -> Option<usize> {
        let word = self.allowed.iter().rposition(|&w| w != 0)?;
        let bit = 63 - self.allowed[word].leading_zeros() as usize;
        let mut only = [0u64; MASK_WORDS];
        only[word] = 1 << bit;
        Processors::set(&only).then_some(word * 64 + bit)
    }

    /// Let the calling thread, and every thread it starts from here on, run
    /// wherever the process was started.
    pub fn unpin(&self) -> bool {
        Processors::set(&self.allowed)
    }
}

const ARITH_WORDS: usize = 2048;
const ARITH_ROUNDS: u64 = 1600;
const DIMS: usize = 48;
const POINTS: usize = 512;
const CENTROIDS: usize = 52;
const DENSE_ROUNDS: usize = 4;
const STREAM_WORDS: usize = 4 << 20;

/// The reference work: the same three loops every time, one after the
/// other, in the proportions of a cold request's own work — integer
/// arithmetic over 16 KB (first-level cache), nearest-centroid distances of
/// 512 points to 52 centroids in 48 dimensions (second-level cache, floating
/// point, the shape of the picker's clustering), and one read-modify-write
/// pass over 32 MB (the shared last-level cache and memory).
pub struct Reference {
    words: Vec<u64>,
    points: Vec<f64>,
    centroids: Vec<f64>,
    stream: Vec<u64>,
}

impl Default for Reference {
    fn default() -> Self {
        Reference::new()
    }
}

impl Reference {
    /// Allocate and touch the buffers (35 MB).
    pub fn new() -> Reference {
        Reference {
            words: (0..ARITH_WORDS as u64).collect(),
            points: (0..POINTS * DIMS).map(|i| (i % 97) as f64 * 0.01).collect(),
            centroids: (0..CENTROIDS * DIMS)
                .map(|i| (i % 89) as f64 * 0.02)
                .collect(),
            stream: (0..STREAM_WORDS as u64).collect(),
        }
    }

    /// Do the reference work once; how long it took, in microseconds.
    pub fn run(&mut self) -> f64 {
        let started = Instant::now();
        let mut acc = 0u64;
        for round in 0..ARITH_ROUNDS {
            for w in &mut self.words {
                *w = w
                    .wrapping_mul(6_364_136_223_846_793_005)
                    .wrapping_add(round);
                acc ^= *w >> 7;
            }
        }
        let mut nearest = 0.0f64;
        for _ in 0..DENSE_ROUNDS {
            for p in self.points.chunks_exact(DIMS) {
                let mut best = f64::MAX;
                for c in self.centroids.chunks_exact(DIMS) {
                    let d: f64 = p.iter().zip(c).map(|(a, b)| (a - b) * (a - b)).sum();
                    best = best.min(d);
                }
                nearest += best;
            }
        }
        for w in &mut self.stream {
            *w = w.wrapping_add(3);
            acc ^= *w;
        }
        std::hint::black_box((acc, nearest));
        started.elapsed().as_secs_f64() * 1e6
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_reference_takes_time_and_pinning_leaves_one_processor() {
        let mut reference = Reference::new();
        assert!(reference.run() > 0.0);
        if let Some(started_on) = Processors::allowed() {
            let cpu = started_on
                .pin_to_one()
                .expect("a processor we were started on");
            let pinned = Processors::allowed().expect("asked a moment ago");
            assert_eq!(
                pinned.allowed.iter().map(|w| w.count_ones()).sum::<u32>(),
                1
            );
            assert_eq!(pinned.pin_to_one(), Some(cpu));
            assert!(started_on.unpin());
            let back = Processors::allowed().expect("asked a moment ago");
            assert_eq!(back.allowed, started_on.allowed);
        }
    }
}
