//! Measurement primitives: log-bucketed histograms and windowed counters.
//!
//! The experiment harness needs latency percentiles (Figure 9), averages
//! (Figure 8) and rates (Figure 5) without keeping every sample. [`Histogram`]
//! is an HDR-style log-bucketed histogram with bounded relative error;
//! [`Counter`] is a plain monotonic counter with a snapshot/delta helper.

/// Sub-buckets per power-of-two bucket; 32 gives ≤ ~3% relative quantile error.
const SUB_BUCKETS: usize = 32;
const SUB_BITS: u32 = 5; // log2(SUB_BUCKETS)

/// A log-bucketed histogram of `u64` samples (typically latency nanoseconds).
///
/// Values are grouped into power-of-two buckets each split into
/// 32 linear sub-buckets, bounding relative error at roughly
/// 1/32 ≈ 3%. Recording is O(1); memory is a few KiB regardless of the
/// number of samples.
///
/// # Examples
///
/// ```
/// use simnet::Histogram;
///
/// let mut h = Histogram::new();
/// for v in 1..=1000u64 {
///     h.record(v);
/// }
/// let p50 = h.quantile(0.5);
/// assert!((450..=550).contains(&p50));
/// assert_eq!(h.count(), 1000);
/// ```
#[derive(Debug, Clone)]
pub struct Histogram {
    buckets: Vec<u64>,
    count: u64,
    sum: u128,
    min: u64,
    max: u64,
}

impl Histogram {
    /// Creates an empty histogram.
    pub fn new() -> Self {
        // 64 octaves x SUB_BUCKETS sub-buckets covers the full u64 range.
        Histogram { buckets: vec![0; 64 * SUB_BUCKETS], count: 0, sum: 0, min: u64::MAX, max: 0 }
    }

    fn index_of(value: u64) -> usize {
        if value < SUB_BUCKETS as u64 {
            return value as usize;
        }
        let octave = 63 - value.leading_zeros();
        let shift = octave - SUB_BITS;
        let sub = (value >> shift) as usize & (SUB_BUCKETS - 1);
        ((octave - SUB_BITS + 1) as usize) * SUB_BUCKETS + sub
    }

    /// Representative (midpoint) value for a bucket index.
    ///
    /// Saturating throughout: in the top octave the midpoint of the last
    /// sub-buckets exceeds `u64::MAX` (and an out-of-range index would shift
    /// by ≥ 64 bits), so everything clamps to `u64::MAX` instead of
    /// overflowing. Callers ([`quantile`](Histogram::quantile)) clamp to the
    /// exact recorded min/max anyway.
    fn value_of(index: usize) -> u64 {
        if index < SUB_BUCKETS {
            return index as u64;
        }
        let octave = (index / SUB_BUCKETS) as u32 + SUB_BITS - 1;
        let sub = (index % SUB_BUCKETS) as u64;
        let base = match 1u64.checked_shl(octave) {
            Some(b) => b,
            None => return u64::MAX,
        };
        let step = 1u64 << (octave - SUB_BITS);
        base.saturating_add(sub.saturating_mul(step)).saturating_add(step / 2)
    }

    /// Records one sample.
    pub fn record(&mut self, value: u64) {
        self.buckets[Self::index_of(value)] += 1;
        self.count += 1;
        self.sum += value as u128;
        self.min = self.min.min(value);
        self.max = self.max.max(value);
    }

    /// Number of recorded samples.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Mean of recorded samples, or 0.0 if empty.
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// Smallest recorded sample, or 0 if empty.
    pub fn min(&self) -> u64 {
        if self.count == 0 {
            0
        } else {
            self.min
        }
    }

    /// Largest recorded sample (exact), or 0 if empty.
    pub fn max(&self) -> u64 {
        self.max
    }

    /// Approximate `q`-quantile (`0.0 ..= 1.0`) of the recorded samples.
    ///
    /// Returns 0 for an empty histogram.
    ///
    /// # Panics
    ///
    /// Panics if `q` is outside `[0, 1]`.
    pub fn quantile(&self, q: f64) -> u64 {
        assert!((0.0..=1.0).contains(&q), "quantile must be in [0,1]");
        if self.count == 0 {
            return 0;
        }
        let rank = ((q * self.count as f64).ceil() as u64).max(1);
        let mut seen = 0u64;
        for (i, &c) in self.buckets.iter().enumerate() {
            seen += c;
            if seen >= rank {
                return Self::value_of(i).min(self.max).max(self.min);
            }
        }
        self.max
    }

    /// Bucket indices that can hold samples: every recorded value lies in
    /// `[min, max]`, and bucketing is monotone.
    fn used(&self) -> std::ops::RangeInclusive<usize> {
        Self::index_of(self.min)..=Self::index_of(self.max)
    }

    /// Merges another histogram into this one.
    pub fn merge(&mut self, other: &Histogram) {
        if other.count == 0 {
            return;
        }
        let used = other.used();
        for (a, b) in self.buckets[used.clone()].iter_mut().zip(&other.buckets[used]) {
            *a += b;
        }
        self.count += other.count;
        self.sum += other.sum;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }

    /// Removes all samples.
    pub fn clear(&mut self) {
        if self.count == 0 {
            return; // already empty: every bucket is zero
        }
        let used = self.used();
        self.buckets[used].iter_mut().for_each(|b| *b = 0);
        self.count = 0;
        self.sum = 0;
        self.min = u64::MAX;
        self.max = 0;
    }
}

impl Default for Histogram {
    fn default() -> Self {
        Self::new()
    }
}

/// A monotonic counter with snapshot support, for computing windowed rates.
///
/// # Examples
///
/// ```
/// use simnet::Counter;
///
/// let mut c = Counter::default();
/// c.add(10);
/// c.snapshot();
/// c.add(5);
/// assert_eq!(c.since_snapshot(), 5);
/// assert_eq!(c.total(), 15);
/// ```
#[derive(Debug, Clone, Copy, Default)]
pub struct Counter {
    total: u64,
    snap: u64,
}

impl Counter {
    /// Increments by one.
    pub fn inc(&mut self) {
        self.total += 1;
    }

    /// Increments by `n`.
    pub fn add(&mut self, n: u64) {
        self.total += n;
    }

    /// All-time total.
    pub fn total(&self) -> u64 {
        self.total
    }

    /// Marks the current total as the snapshot point.
    pub fn snapshot(&mut self) {
        self.snap = self.total;
    }

    /// Count accumulated since the last [`snapshot`](Counter::snapshot).
    pub fn since_snapshot(&self) -> u64 {
        self.total - self.snap
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_histogram_is_zeroed() {
        let h = Histogram::new();
        assert_eq!(h.count(), 0);
        assert_eq!(h.mean(), 0.0);
        assert_eq!(h.quantile(0.5), 0);
        assert_eq!(h.min(), 0);
        assert_eq!(h.max(), 0);
    }

    #[test]
    fn small_values_are_exact() {
        let mut h = Histogram::new();
        for v in 0..SUB_BUCKETS as u64 {
            h.record(v);
        }
        assert_eq!(h.min(), 0);
        assert_eq!(h.max(), SUB_BUCKETS as u64 - 1);
        assert_eq!(h.quantile(1.0), SUB_BUCKETS as u64 - 1);
    }

    #[test]
    fn quantiles_have_bounded_relative_error() {
        let mut h = Histogram::new();
        for v in 1..=100_000u64 {
            h.record(v);
        }
        for &(q, expect) in &[(0.5, 50_000.0), (0.9, 90_000.0), (0.99, 99_000.0)] {
            let got = h.quantile(q) as f64;
            let err = (got - expect).abs() / expect;
            assert!(err < 0.05, "q={q} got={got} expect={expect} err={err}");
        }
    }

    #[test]
    fn near_max_samples_do_not_overflow() {
        // Regression: `value_of` used unchecked `base + sub*step + step/2`,
        // which can exceed u64 in the top octave. Recording extreme samples
        // must neither panic nor wrap, and quantiles stay clamped to the
        // exact recorded extremes.
        let mut h = Histogram::new();
        h.record(u64::MAX);
        assert_eq!(h.quantile(1.0), u64::MAX);
        h.record(u64::MAX - 1);
        assert_eq!(h.count(), 2);
        assert_eq!(h.max(), u64::MAX);
        // Both samples share the top bucket; the clamp keeps the answer
        // inside the recorded range.
        assert!(h.quantile(1.0) >= u64::MAX - 1);
        assert!(h.quantile(0.0) >= u64::MAX - 1);
        // Every representable bucket index must have a finite midpoint.
        for i in 0..64 * SUB_BUCKETS {
            let _ = Histogram::value_of(i);
        }
    }

    #[test]
    fn mean_and_extremes_are_exact() {
        let mut h = Histogram::new();
        for &v in &[10u64, 20, 30, 1_000_000] {
            h.record(v);
        }
        assert_eq!(h.min(), 10);
        assert_eq!(h.max(), 1_000_000);
        assert_eq!(h.mean(), (10.0 + 20.0 + 30.0 + 1_000_000.0) / 4.0);
    }

    #[test]
    fn merge_and_clear_cover_every_used_bucket() {
        let (lo, hi) = ([3u64, 40, 41, 900], [70_000u64, 5_000_000, u64::MAX]);
        let (mut a, mut b, mut all) = (Histogram::new(), Histogram::new(), Histogram::new());
        lo.iter().for_each(|&v| a.record(v));
        hi.iter().for_each(|&v| b.record(v));
        lo.iter().chain(&hi).for_each(|&v| all.record(v));
        a.merge(&Histogram::new());
        a.merge(&b);
        assert_eq!(a.buckets, all.buckets);
        a.clear();
        assert!(a.buckets.iter().all(|&c| c == 0));
        a.record(7);
        assert_eq!((a.count(), a.min(), a.max(), a.quantile(1.0)), (1, 7, 7, 7));
    }

    #[test]
    fn merge_combines_counts() {
        let mut a = Histogram::new();
        let mut b = Histogram::new();
        a.record(100);
        b.record(200);
        b.record(300);
        a.merge(&b);
        assert_eq!(a.count(), 3);
        assert_eq!(a.max(), 300);
        assert_eq!(a.min(), 100);
    }

    #[test]
    fn clear_resets() {
        let mut h = Histogram::new();
        h.record(42);
        h.clear();
        assert_eq!(h.count(), 0);
        assert_eq!(h.quantile(0.99), 0);
    }

    #[test]
    fn counter_windows() {
        let mut c = Counter::default();
        c.inc();
        c.add(9);
        assert_eq!(c.total(), 10);
        c.snapshot();
        assert_eq!(c.since_snapshot(), 0);
        c.add(7);
        assert_eq!(c.since_snapshot(), 7);
        assert_eq!(c.total(), 17);
    }
}
