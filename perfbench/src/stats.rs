//! Sample summaries and output digests.

/// Samples a reported percentile must leave beyond it: a p99 of 50
/// samples is just the maximum, so the helper steps down to a
/// percentile the sample count can support.
pub const MIN_BEYOND: usize = 10;

/// Percentiles the tail helper may report, highest first.
const TAIL_LADDER: [f64; 5] = [0.99, 0.95, 0.90, 0.75, 0.50];

/// A latency distribution reduced to what the benchmark prints.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    /// Sample count.
    pub n: usize,
    /// Median.
    pub p50: f64,
    /// Reported tail percentile, e.g. `0.99`.
    pub tail_q: f64,
    /// Value at `tail_q`.
    pub tail: f64,
}

impl Summary {
    /// Summarise `samples`, reporting the highest percentile up to `cap`
    /// with at least [`MIN_BEYOND`] samples beyond it. `None` when there
    /// are too few samples for even the median to qualify.
    pub fn of(samples: &[f64], cap: f64) -> Option<Summary> {
        let n = samples.len();
        let tail_q = *TAIL_LADDER
            .iter()
            .find(|&&q| q <= cap && beyond(n, q) >= MIN_BEYOND)?;
        let mut sorted = samples.to_vec();
        sorted.sort_by(f64::total_cmp);
        Some(Summary {
            n,
            p50: rank(&sorted, 0.50),
            tail_q,
            tail: rank(&sorted, tail_q),
        })
    }

    /// Like [`Summary::of`], but the tail is the median over `windows`
    /// consecutive slices of the samples (in arrival order) of each
    /// slice's tail, at the highest percentile every slice supports: a
    /// burst of host interference confined to one slice then moves the
    /// tail no more than any other slice does. The median is over all
    /// samples.
    pub fn windowed(samples: &[f64], windows: usize, cap: f64) -> Option<Summary> {
        let whole = Summary::of(samples, cap)?;
        let len = samples.len() / windows.max(1);
        let slices: Vec<&[f64]> = (0..windows)
            .map(|w| &samples[w * len..(w + 1) * len])
            .collect();
        let tail_q = slices
            .iter()
            .map(|s| Summary::of(s, cap).map(|x| x.tail_q))
            .collect::<Option<Vec<f64>>>()?
            .into_iter()
            .fold(cap, f64::min);
        let tails: Vec<f64> = slices.iter().map(|s| percentile(s, tail_q)).collect();
        Some(Summary {
            tail_q,
            tail: median(&tails),
            ..whole
        })
    }

    /// The tail's label, e.g. `p99`.
    pub fn tail_label(&self) -> String {
        format!("p{}", (self.tail_q * 100.0).round() as u32)
    }
}

/// Samples strictly above the nearest-rank `q` percentile of `n`.
fn beyond(n: usize, q: f64) -> usize {
    n - rank_index(n, q) - 1
}

/// Nearest-rank index of the `q` percentile in a sorted sample of `n`.
fn rank_index(n: usize, q: f64) -> usize {
    ((q * n as f64).ceil() as usize).clamp(1, n.max(1)) - 1
}

fn rank(sorted: &[f64], q: f64) -> f64 {
    sorted[rank_index(sorted.len(), q)]
}

/// Nearest-rank `q` percentile of a non-empty sample, whatever its size.
pub fn percentile(samples: &[f64], q: f64) -> f64 {
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    rank(&sorted, q)
}

/// Median of a non-empty sample (mean of the middle pair when even).
pub fn median(samples: &[f64]) -> f64 {
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    if n == 0 {
        return f64::NAN;
    }
    if n % 2 == 1 {
        sorted[n / 2]
    } else {
        (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0
    }
}

/// Streaming FNV-1a 64 over emitted rows (each row plus a newline, so
/// the digest equals that of the newline-joined transcript).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Digest(u64);

impl Default for Digest {
    fn default() -> Digest {
        Digest(0xcbf2_9ce4_8422_2325)
    }
}

impl Digest {
    /// Fold raw bytes in.
    pub fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    /// Fold one transcript row in.
    pub fn row(&mut self, row: &str) {
        self.bytes(row.as_bytes());
        self.bytes(b"\n");
    }

    /// The digest value.
    pub fn value(&self) -> u64 {
        self.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(n: usize) -> Vec<f64> {
        (1..=n).map(|i| i as f64).collect()
    }

    #[test]
    fn tail_is_the_highest_percentile_with_ten_beyond() {
        // 1000 samples: p99 leaves exactly 10 above it.
        let s = Summary::of(&ramp(1000), 0.99).unwrap();
        assert_eq!((s.n, s.tail_q, s.tail, s.p50), (1000, 0.99, 990.0, 500.0));
        // 999 samples leave only 9 beyond p99: step down to p95.
        let s = Summary::of(&ramp(999), 0.99).unwrap();
        assert_eq!(s.tail_q, 0.95);
        assert!(ramp(999).iter().filter(|&&v| v > s.tail).count() >= MIN_BEYOND);
        // 100 samples: p90 leaves 10.
        assert_eq!(Summary::of(&ramp(100), 0.99).unwrap().tail_q, 0.90);
        assert_eq!(Summary::of(&ramp(100), 0.99).unwrap().tail_label(), "p90");
        // A cap holds the tail down even when samples would allow more.
        assert_eq!(Summary::of(&ramp(5000), 0.90).unwrap().tail_q, 0.90);
        // Too few samples for any percentile.
        assert!(Summary::of(&ramp(19), 0.99).is_none());
        assert_eq!(Summary::of(&ramp(20), 0.99).unwrap().tail_q, 0.50);
    }

    #[test]
    fn windowed_tail_ignores_a_burst_in_one_window() {
        // Three windows of 1000; the middle one has a burst of slow
        // samples that would own the whole-run p99.
        let mut v = ramp(1000);
        v.extend((1..=1000).map(|i| if i > 950 { 1e6 } else { i as f64 }));
        v.extend(ramp(1000));
        let whole = Summary::of(&v, 0.99).unwrap();
        assert_eq!(whole.tail, 1e6);
        let w = Summary::windowed(&v, 3, 0.99).unwrap();
        assert_eq!(
            (w.n, w.tail_q, w.tail, w.p50),
            (3000, 0.99, 990.0, whole.p50)
        );
        // Windows too small for p99 step the shared percentile down.
        let w = Summary::windowed(&ramp(3000), 6, 0.99).unwrap();
        // Window p95s are 475, 975, ..., 2975; their median is 1725.
        assert_eq!((w.tail_q, w.tail), (0.95, 1725.0));
    }

    #[test]
    fn summary_ignores_input_order() {
        let mut v = ramp(400);
        v.reverse();
        assert_eq!(Summary::of(&v, 0.99), Summary::of(&ramp(400), 0.99));
    }

    #[test]
    fn median_of_even_and_odd_samples() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(percentile(&[5.0, 1.0, 4.0, 2.0, 3.0], 0.9), 5.0);
        assert_eq!(percentile(&[5.0, 1.0, 4.0, 2.0, 3.0], 0.5), 3.0);
    }

    #[test]
    fn digest_matches_fnv1a_of_the_transcript() {
        let mut d = Digest::default();
        d.row("a");
        d.row("bc");
        let mut whole = Digest::default();
        whole.bytes(b"a\nbc\n");
        assert_eq!(d, whole);
        // FNV-1a 64 of the empty string is the offset basis.
        assert_eq!(Digest::default().value(), 0xcbf2_9ce4_8422_2325);
    }
}
