//! Order statistics and the α-β fit: the only arithmetic the harness does
//! on what it measures.

/// Median and quartiles of a set of repeats, with the sample count.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    pub n: usize,
    pub median: f64,
    pub q1: f64,
    pub q3: f64,
}

impl Summary {
    /// A value measured once (a count, a peak): no spread to report.
    pub fn single(value: f64) -> Summary {
        Summary {
            n: 1,
            median: value,
            q1: value,
            q3: value,
        }
    }

    /// Inter-quartile distance as a share of the median.
    pub fn spread(&self) -> f64 {
        if self.median == 0.0 {
            0.0
        } else {
            (self.q3 - self.q1).abs() / self.median.abs()
        }
    }
}

/// Linear-interpolated quantile of sorted data (`q` in 0..=1), the
/// "inclusive" method: q = 0 is the minimum, q = 1 the maximum.
fn quantile_sorted(sorted: &[f64], q: f64) -> f64 {
    assert!(!sorted.is_empty(), "quantile of an empty sample");
    let pos = q * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).expect("measurements are never NaN"));
    v
}

/// Median and quartiles of `values`.
///
/// # Panics
/// Panics on an empty slice or a NaN.
pub fn summarize(values: &[f64]) -> Summary {
    let v = sorted(values);
    Summary {
        n: v.len(),
        median: quantile_sorted(&v, 0.5),
        q1: quantile_sorted(&v, 0.25),
        q3: quantile_sorted(&v, 0.75),
    }
}

/// Arithmetic mean; `None` of nothing.
pub fn mean(values: impl Iterator<Item = f64>) -> Option<f64> {
    let (mut sum, mut n) = (0.0, 0usize);
    for v in values {
        sum += v;
        n += 1;
    }
    (n > 0).then(|| sum / n as f64)
}

pub fn median(values: &[f64]) -> f64 {
    quantile_sorted(&sorted(values), 0.5)
}

/// Nearest rank of the `pct`-th percentile in a sample of `n`: the least
/// rank with at least `pct` % of the sample at or below it (the epsilon
/// keeps 99.9 % of 10 000 at 9990 despite binary fractions).
fn rank(n: usize, pct: f64) -> usize {
    ((pct * n as f64 / 100.0 - 1e-9).ceil() as usize).clamp(1, n)
}

/// The `pct`-th percentile (0..100) of a latency sample, nearest-rank.
pub fn percentile(values: &[f64], pct: f64) -> f64 {
    let v = sorted(values);
    v[rank(v.len(), pct) - 1]
}

/// How many samples lie strictly beyond the `pct`-th percentile's rank.
pub fn samples_beyond(n: usize, pct: f64) -> usize {
    n - rank(n, pct)
}

/// The percentile ladder tails are read from.
pub const TAIL_LADDER: [f64; 6] = [50.0, 75.0, 90.0, 95.0, 99.0, 99.9];

/// The highest rung of [`TAIL_LADDER`] that still has at least ten
/// samples beyond it in a sample of `n` — the choosing-metrics rule for
/// which tail a sample supports. `None` below 20 samples.
pub fn supported_tail(n: usize) -> Option<f64> {
    TAIL_LADDER
        .iter()
        .rev()
        .copied()
        .find(|&pct| samples_beyond(n, pct) >= 10)
}

/// Fit `t = α + β·bytes` to `(bytes, seconds)` points by least squares on
/// the *relative* error (weights 1/t²): a size sweep spans five orders of
/// magnitude, and unweighted least squares would let the largest message
/// alone decide α. Returns `(alpha_s, beta_s_per_byte)`.
///
/// # Panics
/// Panics with fewer than two distinct sizes.
pub fn fit_alpha_beta(points: &[(f64, f64)]) -> (f64, f64) {
    let (mut sw, mut sx, mut sy, mut sxx, mut sxy) = (0.0, 0.0, 0.0, 0.0, 0.0);
    for &(x, y) in points {
        assert!(y > 0.0, "message times are positive");
        let w = 1.0 / (y * y);
        sw += w;
        sx += w * x;
        sy += w * y;
        sxx += w * x * x;
        sxy += w * x * y;
    }
    let det = sw * sxx - sx * sx;
    assert!(
        det > 1e-9 * sw * sxx,
        "need at least two distinct message sizes"
    );
    let beta = (sw * sxy - sx * sy) / det;
    let alpha = (sy - beta * sx) / sw;
    (alpha, beta)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_and_quartiles() {
        let s = summarize(&[5.0, 1.0, 3.0, 2.0, 4.0]);
        assert_eq!((s.n, s.median, s.q1, s.q3), (5, 3.0, 2.0, 4.0));
        // Even count interpolates.
        let s = summarize(&[1.0, 2.0, 3.0, 4.0]);
        assert_eq!((s.median, s.q1, s.q3), (2.5, 1.75, 3.25));
        assert_eq!(summarize(&[7.0]).median, 7.0);
        assert!((summarize(&[10.0, 11.0, 12.0]).spread() - 0.1 / 1.1).abs() < 1e-12);
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 50.0), 50.0);
        assert_eq!(percentile(&v, 99.0), 99.0);
        assert_eq!(percentile(&v, 100.0), 100.0);
        assert_eq!(percentile(&[3.0], 99.0), 3.0);
    }

    #[test]
    fn tail_needs_ten_samples_beyond() {
        // 7500 samples: p99 leaves 75 beyond, p99.9 only 7.
        assert_eq!(samples_beyond(7500, 99.0), 75);
        assert_eq!(samples_beyond(7500, 99.9), 7);
        assert_eq!(supported_tail(7500), Some(99.0));
        // 105 samples: p90 leaves 10 beyond (the edge), p95 only 5.
        assert_eq!(samples_beyond(105, 90.0), 10);
        assert_eq!(supported_tail(105), Some(90.0));
        assert_eq!(supported_tail(99), Some(75.0));
        assert_eq!(supported_tail(20), Some(50.0));
        assert_eq!(supported_tail(19), None);
        assert_eq!(supported_tail(10_000), Some(99.9));
    }

    #[test]
    fn alpha_beta_fit_recovers_synthetic_line() {
        let (alpha, beta) = (12e-6, 0.4e-9);
        let points: Vec<(f64, f64)> = [8.0, 1024.0, 16384.0, 131072.0, 1048576.0]
            .iter()
            .map(|&b| (b, alpha + beta * b))
            .collect();
        let (a, b) = fit_alpha_beta(&points);
        assert!((a - alpha).abs() / alpha < 1e-9, "alpha {a}");
        assert!((b - beta).abs() / beta < 1e-9, "beta {b}");
        // A noisy largest point barely moves alpha under relative weights.
        let mut noisy = points.clone();
        noisy[4].1 *= 1.2;
        let (a, _) = fit_alpha_beta(&noisy);
        assert!((a - alpha).abs() / alpha < 0.05, "alpha {a}");
    }

    #[test]
    #[should_panic(expected = "two distinct message sizes")]
    fn alpha_beta_fit_rejects_one_size() {
        fit_alpha_beta(&[(8.0, 1e-6), (8.0, 2e-6)]);
    }
}
