//! Log-bucketed latency histograms, HDR-style.
//!
//! Two flavours share one bucket scheme:
//!
//! * [`Histogram`] — a shared, lock-free recorder (atomic bucket array)
//!   handed out by the [`MetricsHub`](crate::MetricsHub). Recording is a
//!   handful of relaxed atomic ops; when the hub is disabled the whole
//!   record is one relaxed load and a branch.
//! * [`HistogramSnapshot`] — a plain, owned histogram. It is what
//!   [`Histogram::snapshot`] returns, but it also records and **merges**
//!   on its own, so cheap single-writer call sites (one per serve tenant,
//!   a bench's latency series) can use it directly without atomics.
//!   Merge is element-wise bucket addition: associative, commutative,
//!   and count-conserving (the proptests in `tests/hist_props.rs` pin
//!   this down).
//!
//! The bucket scheme is logarithmic with [`SUB_BITS`]-bit linear
//! sub-buckets per octave: values below 2^SUB_BITS get exact unit
//! buckets, above that each octave is split into 2^SUB_BITS equal
//! sub-buckets, so any recorded value lands in a bucket whose width is
//! at most `value / 2^SUB_BITS` — a relative quantization error of
//! ≤ 1/2^SUB_BITS (≈3.1% at 5 bits). Percentile queries report the
//! bucket's upper bound (clamped to the exactly-tracked max), so a
//! reported pXX never understates the observed latency.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

/// Sub-bucket resolution: 2^SUB_BITS linear sub-buckets per octave.
const SUB_BITS: u32 = 5;
/// Sub-buckets per octave.
const SUB: usize = 1 << SUB_BITS;
/// Total buckets needed to cover the full `u64` range.
const BUCKETS: usize = ((64 - SUB_BITS) as usize + 1) * SUB;

/// The bucket a value lands in.
#[inline]
fn bucket_index(v: u64) -> usize {
    if v < SUB as u64 {
        v as usize
    } else {
        let msb = 63 - v.leading_zeros();
        let shift = msb - SUB_BITS;
        let sub = ((v >> shift) as usize) & (SUB - 1);
        (shift as usize + 1) * SUB + sub
    }
}

/// The largest value mapping to bucket `i` (its upper bound).
#[inline]
fn bucket_high(i: usize) -> u64 {
    if i < SUB {
        i as u64
    } else {
        let shift = (i / SUB - 1) as u32;
        let sub = (i % SUB) as u128;
        // The top octave's bound exceeds u64; clamp (values still land
        // in it correctly, the bound is only used for reporting).
        let high = ((SUB as u128 + sub + 1) << shift) - 1;
        high.min(u64::MAX as u128) as u64
    }
}

/// A shared, lock-free log-bucketed histogram (see the module docs).
///
/// Cloning shares the recorder. All recording is relaxed-atomic; readers
/// take a [`snapshot`](Histogram::snapshot) and query that.
#[derive(Clone)]
pub struct Histogram {
    inner: Arc<HistInner>,
}

struct HistInner {
    /// Shared with the owning hub: one relaxed load gates every record.
    enabled: Arc<AtomicBool>,
    buckets: Box<[AtomicU64]>,
    count: AtomicU64,
    sum: AtomicU64,
    min: AtomicU64,
    max: AtomicU64,
}

impl Histogram {
    pub(crate) fn new(enabled: Arc<AtomicBool>) -> Self {
        let buckets = (0..BUCKETS).map(|_| AtomicU64::new(0)).collect();
        Histogram {
            inner: Arc::new(HistInner {
                enabled,
                buckets,
                count: AtomicU64::new(0),
                sum: AtomicU64::new(0),
                min: AtomicU64::new(u64::MAX),
                max: AtomicU64::new(0),
            }),
        }
    }

    /// Records one value. A no-op (one relaxed load) while the owning
    /// hub is disabled.
    #[inline]
    pub fn record(&self, v: u64) {
        if !self.inner.enabled.load(Ordering::Relaxed) {
            return;
        }
        let i = &self.inner;
        i.buckets[bucket_index(v)].fetch_add(1, Ordering::Relaxed);
        i.count.fetch_add(1, Ordering::Relaxed);
        i.sum.fetch_add(v, Ordering::Relaxed);
        i.min.fetch_min(v, Ordering::Relaxed);
        i.max.fetch_max(v, Ordering::Relaxed);
    }

    /// Values recorded so far.
    pub fn count(&self) -> u64 {
        self.inner.count.load(Ordering::Relaxed)
    }

    /// A plain copy of the current state (trimmed to touched buckets).
    pub fn snapshot(&self) -> HistogramSnapshot {
        let i = &self.inner;
        let mut snap = HistogramSnapshot::new();
        // Read count first: recorders bump the bucket before the count,
        // so buckets read afterwards can only show >= `count` entries —
        // a torn concurrent read never invents counted-but-unbucketed
        // values.
        snap.count = i.count.load(Ordering::Acquire);
        snap.sum = i.sum.load(Ordering::Relaxed) as u128;
        let min = i.min.load(Ordering::Relaxed);
        snap.min = if min == u64::MAX { 0 } else { min };
        snap.max = i.max.load(Ordering::Relaxed);
        let mut remaining = snap.count;
        for (idx, b) in i.buckets.iter().enumerate() {
            if remaining == 0 {
                break;
            }
            let c = b.load(Ordering::Relaxed).min(remaining);
            if c > 0 {
                *snap.slot(idx) += c;
                remaining -= c;
            }
        }
        snap.count -= remaining; // racy stragglers not yet bucketed
        snap
    }
}

/// A plain, owned, mergeable histogram (see the module docs).
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct HistogramSnapshot {
    /// Bucket index of `buckets[0]`; the vector covers only the touched
    /// index range, so a tight latency distribution stays small.
    base: usize,
    buckets: Vec<u64>,
    count: u64,
    sum: u128,
    min: u64,
    max: u64,
}

impl HistogramSnapshot {
    /// An empty histogram.
    pub fn new() -> Self {
        HistogramSnapshot::default()
    }

    /// The mutable tally slot for bucket index `idx`, growing the
    /// covered range as needed.
    fn slot(&mut self, idx: usize) -> &mut u64 {
        if self.buckets.is_empty() {
            self.base = idx;
            self.buckets.push(0);
        } else if idx < self.base {
            let grow = self.base - idx;
            self.buckets.splice(0..0, std::iter::repeat_n(0, grow));
            self.base = idx;
        } else if idx >= self.base + self.buckets.len() {
            self.buckets.resize(idx - self.base + 1, 0);
        }
        &mut self.buckets[idx - self.base]
    }

    /// Records one value.
    pub fn record(&mut self, v: u64) {
        self.record_n(v, 1);
    }

    /// Records `n` occurrences of `v`.
    pub(crate) fn record_n(&mut self, v: u64, n: u64) {
        if n == 0 {
            return;
        }
        *self.slot(bucket_index(v)) += n;
        if self.count == 0 {
            self.min = v;
            self.max = v;
        } else {
            self.min = self.min.min(v);
            self.max = self.max.max(v);
        }
        self.count += n;
        self.sum += v as u128 * n as u128;
    }

    /// Merges `other` into `self`: element-wise bucket addition, so the
    /// result is exactly the histogram of both input series combined.
    pub fn merge(&mut self, other: &HistogramSnapshot) {
        if other.count == 0 {
            return;
        }
        for (k, &c) in other.buckets.iter().enumerate() {
            if c > 0 {
                *self.slot(other.base + k) += c;
            }
        }
        if self.count == 0 {
            self.min = other.min;
            self.max = other.max;
        } else {
            self.min = self.min.min(other.min);
            self.max = self.max.max(other.max);
        }
        self.count += other.count;
        self.sum += other.sum;
    }

    /// Values recorded.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of all recorded values.
    pub fn sum(&self) -> u128 {
        self.sum
    }

    /// Smallest recorded value (0 when empty).
    pub fn min(&self) -> u64 {
        if self.count == 0 {
            0
        } else {
            self.min
        }
    }

    /// Largest recorded value (0 when empty).
    pub fn max(&self) -> u64 {
        if self.count == 0 {
            0
        } else {
            self.max
        }
    }

    /// Arithmetic mean (0.0 when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// The value at quantile `p` in `[0, 1]`: the upper bound of the
    /// bucket holding the ⌈p·count⌉-th smallest observation, clamped to
    /// the exactly-tracked max (so `percentile(1.0) == max()`). Returns
    /// 0 when empty.
    pub fn percentile(&self, p: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let rank = ((p.clamp(0.0, 1.0) * self.count as f64).ceil() as u64).max(1);
        let mut seen = 0u64;
        for (k, &c) in self.buckets.iter().enumerate() {
            seen += c;
            if seen >= rank {
                return bucket_high(self.base + k).min(self.max);
            }
        }
        self.max
    }

    /// The touched buckets as `(bucket upper bound, count)` pairs, in
    /// ascending value order (zero-count buckets omitted).
    pub fn buckets(&self) -> impl Iterator<Item = (u64, u64)> + '_ {
        self.buckets
            .iter()
            .enumerate()
            .filter(|(_, &c)| c > 0)
            .map(|(k, &c)| (bucket_high(self.base + k), c))
    }

    /// Raw representation for the JSON exporter: `(base, buckets)`.
    pub(crate) fn raw(&self) -> (usize, &[u64]) {
        (self.base, &self.buckets)
    }

    /// Rebuilds a snapshot from exporter fields; `None` if inconsistent
    /// (bucket tallies must sum to `count`).
    pub(crate) fn from_raw(
        base: usize,
        buckets: Vec<u64>,
        sum: u128,
        min: u64,
        max: u64,
    ) -> Option<Self> {
        if base + buckets.len() > BUCKETS {
            return None;
        }
        let count: u64 = buckets.iter().sum();
        Some(HistogramSnapshot {
            base,
            buckets,
            count,
            sum,
            min,
            max,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_scheme_is_contiguous_and_monotonic() {
        // Unit buckets below SUB, then each index's high bound is the
        // predecessor of the next bucket's first value.
        let mut prev_high = None;
        for v in 0..(SUB as u64 * 8) {
            let i = bucket_index(v);
            assert!(v <= bucket_high(i), "value above its bucket bound");
            if let Some(ph) = prev_high {
                assert!(bucket_high(i) >= ph);
            }
            prev_high = Some(bucket_high(i));
        }
        for &v in &[1u64, 100, 10_000, 1 << 30, u64::MAX / 3, u64::MAX] {
            let i = bucket_index(v);
            assert!(i < BUCKETS);
            assert!(bucket_high(i) >= v);
            // Relative error bound: bucket width ≤ value / SUB above SUB.
            if v >= SUB as u64 {
                let err = bucket_high(i) - v;
                assert!(err as f64 <= v as f64 / SUB as f64 + 1.0);
            }
        }
    }

    #[test]
    fn percentiles_are_exact_on_unit_values() {
        let mut h = HistogramSnapshot::new();
        for v in 1..=10u64 {
            h.record(v);
        }
        assert_eq!(h.count(), 10);
        assert_eq!(h.percentile(0.5), 5);
        assert_eq!(h.percentile(1.0), 10);
        assert_eq!(h.min(), 1);
        assert_eq!(h.max(), 10);
        assert_eq!(h.sum(), 55);
    }

    #[test]
    fn percentile_error_is_bounded() {
        let mut h = HistogramSnapshot::new();
        for v in [1_000u64, 2_000, 3_000, 4_000, 1_000_000] {
            h.record(v);
        }
        // Nearest-rank p50 of 5 values is the 3rd smallest (3000).
        let p50 = h.percentile(0.5) as f64;
        assert!((3_000.0..=3_000.0 * (1.0 + 1.0 / SUB as f64) + 1.0).contains(&p50));
        assert_eq!(h.percentile(1.0), 1_000_000);
    }

    #[test]
    fn merge_combines_series() {
        let mut a = HistogramSnapshot::new();
        let mut b = HistogramSnapshot::new();
        for v in 0..100u64 {
            a.record(v * 7);
            b.record(v * 1000);
        }
        let mut both = HistogramSnapshot::new();
        for v in 0..100u64 {
            both.record(v * 7);
            both.record(v * 1000);
        }
        let mut m = a.clone();
        m.merge(&b);
        assert_eq!(m, both);
    }

    #[test]
    fn atomic_histogram_snapshot_matches_plain() {
        let enabled = Arc::new(AtomicBool::new(true));
        let h = Histogram::new(Arc::clone(&enabled));
        let mut plain = HistogramSnapshot::new();
        for v in [5u64, 40, 41, 90_000, 90_001, 1 << 40] {
            h.record(v);
            plain.record(v);
        }
        assert_eq!(h.snapshot(), plain);
    }

    #[test]
    fn disabled_histogram_records_nothing() {
        let enabled = Arc::new(AtomicBool::new(false));
        let h = Histogram::new(enabled);
        h.record(42);
        assert_eq!(h.count(), 0);
        assert_eq!(h.snapshot(), HistogramSnapshot::new());
    }
}
