//! Clock, seeded generator, and percentile helpers shared by every
//! workload. Nothing here calls into the program under test.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::OnceLock;
use std::time::Instant;

/// Nanoseconds since the first call in this process. One epoch for the
/// generator thread and the benchmark's muscles, so stamps taken on
/// different threads subtract directly.
pub fn now_ns() -> u64 {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    EPOCH.get_or_init(Instant::now).elapsed().as_nanos() as u64
}

/// SplitMix64: the benchmark's only source of randomness. `--seed`
/// seeds one of these per workload; the program under test never sees
/// the generator, only the inputs it produced.
#[derive(Clone, Debug)]
pub struct SplitMix64(u64);

impl SplitMix64 {
    pub fn new(seed: u64) -> Self {
        SplitMix64(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in (0, 1]: never 0, so `ln` below is always finite.
    pub fn next_f64(&mut self) -> f64 {
        ((self.next_u64() >> 11) + 1) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `0..n`.
    pub fn below(&mut self, n: u64) -> u64 {
        ((self.next_u64() as u128 * n as u128) >> 64) as u64
    }

    /// One exponential inter-arrival gap (ns) of a Poisson process at
    /// `rate` arrivals per second.
    pub fn exp_gap_ns(&mut self, rate: f64) -> u64 {
        (-self.next_f64().ln() / rate * 1e9) as u64
    }
}

/// Zipf(`s`) over ranks `0..n` by inverse-CDF lookup.
pub struct Zipf {
    cdf: Vec<f64>,
}

impl Zipf {
    pub fn new(n: usize, s: f64) -> Self {
        let mut acc = 0.0;
        let mut cdf: Vec<f64> = (1..=n)
            .map(|k| {
                acc += 1.0 / (k as f64).powf(s);
                acc
            })
            .collect();
        for c in &mut cdf {
            *c /= acc;
        }
        Zipf { cdf }
    }

    pub fn sample(&self, rng: &mut SplitMix64) -> usize {
        let u = rng.next_f64();
        self.cdf.partition_point(|&c| c < u).min(self.cdf.len() - 1)
    }
}

/// Nearest-rank percentile (`p` in 0..=1) of `values`, which it
/// reorders. 0 for an empty slice.
pub fn percentile<T: Copy + PartialOrd + Default>(values: &mut [T], p: f64) -> T {
    if values.is_empty() {
        return T::default();
    }
    let rank = ((p * values.len() as f64).ceil() as usize).clamp(1, values.len()) - 1;
    let (_, v, _) = values.select_nth_unstable_by(rank, |a, b| {
        a.partial_cmp(b).expect("benchmark samples are never NaN")
    });
    *v
}

/// Median; even-length inputs average the two middle values so two
/// runs that differ by one sample do not jump by a whole sample.
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).expect("benchmark samples are never NaN"));
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// The `p`-th percentile of every non-empty segment, then the median
/// over segments: one stalled segment moves one vote, not the answer.
pub fn segment_median(segments: &mut [Vec<u32>], p: f64) -> f64 {
    let per: Vec<f64> = segments
        .iter_mut()
        .filter(|s| !s.is_empty())
        .map(|s| percentile(s, p) as f64)
        .collect();
    median(&per)
}

/// Clamps a nanosecond difference into the `u32` the sample vectors
/// store (4.29 s: far past any latency this benchmark can report).
pub fn ns32(ns: u64) -> u32 {
    ns.min(u32::MAX as u64) as u32
}

/// A `/proc/self/status` field in kB (`VmHWM`) or as a plain count
/// (`Threads`); 0 where `/proc` is absent.
pub fn proc_status(field: &str) -> u64 {
    let Ok(status) = std::fs::read_to_string("/proc/self/status") else {
        return 0;
    };
    status
        .lines()
        .find_map(|l| l.strip_prefix(field)?.strip_prefix(':'))
        .and_then(|rest| rest.split_whitespace().next()?.parse().ok())
        .unwrap_or(0)
}

/// Samples the process's thread count and returns the highest count any
/// sample has seen. Called (outside timed stretches) whenever a workload
/// has everything it starts running at once.
pub fn threads_peak() -> u64 {
    static PEAK: AtomicU64 = AtomicU64::new(0);
    let mut now = proc_status("Threads");
    if now > PEAK.load(Ordering::Relaxed) {
        // A joined thread can still be counted for a moment while the
        // kernel reaps it: only a count that survives a pause is real.
        std::thread::sleep(std::time::Duration::from_millis(2));
        now = now.min(proc_status("Threads"));
    }
    PEAK.fetch_max(now, Ordering::Relaxed).max(now)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_is_nearest_rank() {
        let mut v: Vec<u32> = (1..=100).rev().collect();
        assert_eq!(percentile(&mut v, 0.50), 50);
        assert_eq!(percentile(&mut v, 0.90), 90);
        assert_eq!(percentile(&mut v, 1.0), 100);
        assert_eq!(percentile(&mut v, 0.0), 1);
        assert_eq!(percentile::<u32>(&mut [], 0.5), 0);
        assert_eq!(percentile(&mut [7u32], 0.99), 7);
    }

    #[test]
    fn median_averages_the_middle_pair() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn segment_median_outvotes_one_stalled_segment() {
        let mut segs = vec![
            vec![10, 11, 12],
            vec![10, 11, 12],
            vec![9_000, 9_001, 9_002],
            vec![],
        ];
        assert_eq!(segment_median(&mut segs, 0.5), 11.0);
    }

    #[test]
    fn generator_is_deterministic_per_seed() {
        let draw = |seed| {
            let mut r = SplitMix64::new(seed);
            let z = Zipf::new(1000, 1.0);
            (0..64)
                .map(|_| (r.exp_gap_ns(40_000.0), z.sample(&mut r), r.below(1024)))
                .collect::<Vec<_>>()
        };
        assert_eq!(draw(7), draw(7));
        assert_ne!(draw(7), draw(8));
    }

    #[test]
    fn poisson_gaps_average_to_the_rate_and_zipf_favours_low_ranks() {
        let mut r = SplitMix64::new(1);
        let n = 200_000;
        let total: u64 = (0..n).map(|_| r.exp_gap_ns(40_000.0)).sum();
        let mean = total as f64 / n as f64;
        assert!((mean - 25_000.0).abs() < 250.0, "mean gap {mean} ns");
        let z = Zipf::new(1000, 1.0);
        let mut hits = [0u32; 1000];
        for _ in 0..n {
            hits[z.sample(&mut r)] += 1;
        }
        // Rank 0 carries 1/H(1000) = 13.4 % of a Zipf(1.0) population.
        let share = hits[0] as f64 / n as f64;
        assert!((share - 0.1336).abs() < 0.01, "rank-0 share {share}");
        assert!(hits[0] > hits[9] && hits[9] > hits[99]);
    }
}
