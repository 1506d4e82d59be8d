//! Small numeric helpers: medians and within-bucket quantile interpolation.

use simnet::Histogram;

/// Median of a non-empty slice (mean of the middle pair for even lengths).
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of nothing");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// The value `Histogram::quantile` reports for the sample of 1-based rank
/// `rank` (the midpoint of that sample's bucket, clamped to min/max).
fn at_rank(h: &Histogram, rank: u64) -> u64 {
    // `quantile` picks rank ceil(q * n); (rank - 0.5) / n lands inside it.
    h.quantile(((rank as f64 - 0.5) / h.count() as f64).clamp(0.0, 1.0))
}

/// The `q`-quantile of `h`, interpolated linearly inside the bucket that
/// holds it: the bucket's rank range is found by bisection over ranks, and
/// the sample's position in that range places it between the bucket edges.
///
/// `Histogram` buckets are 1/32 of an octave wide, so its plain quantiles
/// move in steps of about 3%; interpolation keeps a small shift of the
/// distribution from reading as no change, while staying within the
/// histogram's own error bound. Returns 0 for an empty histogram.
pub fn quantile(h: &Histogram, q: f64) -> f64 {
    let n = h.count();
    if n == 0 {
        return 0.0;
    }
    let rank = ((q * n as f64).ceil() as u64).clamp(1, n);
    let v = at_rank(h, rank);
    // First and last rank reporting the same bucket value.
    let (mut lo, mut hi) = (1u64, rank);
    while lo < hi {
        let mid = (lo + hi) / 2;
        if at_rank(h, mid) == v {
            hi = mid;
        } else {
            lo = mid + 1;
        }
    }
    let first = lo;
    let (mut lo, mut hi) = (rank, n);
    while lo < hi {
        let mid = (lo + hi).div_ceil(2);
        if at_rank(h, mid) == v {
            lo = mid;
        } else {
            hi = mid - 1;
        }
    }
    let last = lo;
    // Bucket edges: values below 32 are exact; above, a bucket spans 1/32 of
    // the value's octave.
    if v < 32 {
        return v as f64;
    }
    let shift = (63 - v.leading_zeros()) - 5;
    let low = ((v >> shift) << shift).max(h.min());
    let high = (((v >> shift) + 1) << shift).min(h.max().saturating_add(1));
    let frac = ((rank - first) as f64 + 0.5) / ((last - first + 1) as f64);
    low as f64 + frac * high.saturating_sub(low) as f64
}

/// The p99.9 of `h`, or — when fewer than 10 000 samples leave less than ten
/// beyond p99.9 — the highest percentile with ten samples beyond it.
pub fn p999(h: &Histogram) -> f64 {
    let n = h.count();
    let q = if n >= 10_000 {
        0.999
    } else {
        1.0 - 10.0 / n.max(10) as f64
    };
    quantile(h, q)
}

/// Count of samples at or below `limit`.
pub fn count_at_most(h: &Histogram, limit: u64) -> u64 {
    let n = h.count();
    if n == 0 || h.min() > limit {
        return 0;
    }
    // Largest rank whose reported value is within the limit.
    let (mut lo, mut hi) = (1u64, n);
    while lo < hi {
        let mid = (lo + hi).div_ceil(2);
        if at_rank(h, mid) <= limit {
            lo = mid;
        } else {
            hi = mid - 1;
        }
    }
    lo
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn interpolated_quantiles_track_uniform_samples() {
        let mut h = Histogram::new();
        for v in 1..=100_000u64 {
            h.record(v * 100);
        }
        for q in [0.1, 0.5, 0.9, 0.99, 0.999] {
            let exact = q * 100_000.0 * 100.0;
            let got = quantile(&h, q);
            assert!(
                (got - exact).abs() / exact < 0.005,
                "q={q}: {got} vs {exact}"
            );
        }
        // Bucket granularity: within one bucket (1/32 of an octave) of exact.
        let at_most = count_at_most(&h, 5_000_000) as f64;
        assert!((at_most - 50_000.0).abs() / 50_000.0 < 0.05, "{at_most}");
    }

    #[test]
    fn median_of_even_and_odd() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    }
}
