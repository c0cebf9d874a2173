//! Host-speed normalisation.
//!
//! The benchmark runs on shared hosts whose speed moves by up to 2x in
//! regimes lasting minutes: identical closed-loop passes measured
//! ~200k ev/s for a quarter of an hour and ~300k ev/s for the next few
//! minutes. A set of ten runs that straddles such a change spreads far
//! beyond any useful bound. So every untraced run also times a fixed
//! reference loop — the benchmark's own code, never the program's — at
//! points spread over the run, and reports its times and rates scaled
//! to the speed at which that loop takes [`REFERENCE_MS`]. A change to
//! the program moves the scaled figures exactly as it moves the raw
//! ones; a change in the host's speed moves the loop too and cancels.
//! The raw figures and the scale are printed beside them.

use crate::stats::median;
use std::time::Instant;

/// The reference loop's median time on the 2-core development host in
/// a quiet period: scaled figures read as if measured there.
pub const REFERENCE_MS: f64 = 9.6;

/// Iterations of the reference loop.
const ITERATIONS: u64 = 3_000_000;
/// Reference-loop timings taken at each sampling point.
const PER_SAMPLE: usize = 3;

/// Reference-loop timings taken over a run.
pub struct HostSpeed {
    /// A 256 KiB table, so the loop depends on the core's caches as well
    /// as its arithmetic, as the program does.
    table: Vec<u64>,
    times_ms: Vec<f64>,
}

impl HostSpeed {
    /// No timings yet.
    pub fn new() -> HostSpeed {
        HostSpeed {
            table: vec![0; 32 * 1024],
            times_ms: Vec::new(),
        }
    }

    /// Time the reference loop a few times now.
    pub fn sample(&mut self) {
        for _ in 0..PER_SAMPLE {
            let start = Instant::now();
            std::hint::black_box(reference_loop(&mut self.table));
            self.times_ms.push(start.elapsed().as_secs_f64() * 1e3);
        }
    }

    /// How much slower than the reference speed the host ran: the
    /// median loop time over [`REFERENCE_MS`].
    pub fn slowness(&self) -> f64 {
        median(&self.times_ms) / REFERENCE_MS
    }

    /// Timings taken.
    pub fn samples(&self) -> usize {
        self.times_ms.len()
    }
}

/// A multiply-xorshift chain that updates its table at the addresses
/// it draws. Fixed work: its time measures only the host.
fn reference_loop(table: &mut [u64]) -> u64 {
    let mask = table.len() - 1;
    let mut x = 0x9e37_79b9_7f4a_7c15_u64;
    for i in 0..ITERATIONS {
        x = (x ^ (x >> 29))
            .wrapping_mul(0xbf58_476d_1ce4_e5b9)
            .wrapping_add(i);
        let j = (x >> 40) as usize & mask;
        table[j] = table[j].wrapping_add(x);
    }
    x ^ table[(x as usize) & mask]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn slowness_is_the_median_time_over_the_reference() {
        let mut h = HostSpeed::new();
        h.times_ms = vec![30.0, 10.0, 20.0];
        assert_eq!(h.slowness(), 20.0 / REFERENCE_MS);
        h.sample();
        assert_eq!(h.samples(), 3 + PER_SAMPLE);
        assert!(h.slowness() > 0.0);
    }

    #[test]
    fn reference_loop_is_deterministic() {
        let (mut a, mut b) = (vec![0; 1024], vec![0; 1024]);
        assert_eq!(reference_loop(&mut a), reference_loop(&mut b));
        assert_eq!(a, b);
    }
}
