//! Order statistics over timing samples.
//!
//! Quartiles use the same "exclusive" interpolation as Python's
//! `statistics.quantiles(values, n=4)`, so the spread this benchmark
//! prints is the spread a reader recomputes from its printed values.

/// Percentile ladder for the reported tail, in parts per 100 000.
const TAIL_LADDER: [u64; 5] = [50_000, 90_000, 99_000, 99_900, 99_990];

/// The `p`-th percentile (0 < p < 100) of `sorted` by exclusive
/// interpolation: rank `(n + 1) p / 100`, clamped to the sample range.
///
/// # Panics
///
/// Panics on an empty slice.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of no samples");
    let n = sorted.len();
    let m = (n as f64 + 1.0) * p / 100.0;
    let j = m.floor() as usize;
    if j < 1 {
        return sorted[0];
    }
    if j >= n {
        return sorted[n - 1];
    }
    sorted[j - 1] + (m - j as f64) * (sorted[j] - sorted[j - 1])
}

/// The highest percentile of the ladder (p50, p90, p99, p99.9, p99.99)
/// with at least ten of `n` samples beyond it, as a percentage; `None`
/// when even the median has fewer than ten samples above it.
pub fn tail_percentile(n: usize) -> Option<f64> {
    TAIL_LADDER
        .iter()
        .rev()
        .find(|&&p| n as u64 * (100_000 - p) / 100_000 >= 10)
        .map(|&p| p as f64 / 1000.0)
}

/// Median, quartiles and sample count of one metric's samples.
#[derive(Debug, Clone, PartialEq)]
pub struct Summary {
    /// Number of samples.
    pub n: usize,
    /// First quartile.
    pub q1: f64,
    /// Median.
    pub median: f64,
    /// Third quartile.
    pub q3: f64,
}

impl Summary {
    /// Summarizes `samples` (any order).
    ///
    /// # Panics
    ///
    /// Panics on an empty slice.
    pub fn of(samples: &[f64]) -> Summary {
        let mut sorted = samples.to_vec();
        sorted.sort_by(f64::total_cmp);
        Summary {
            n: sorted.len(),
            q1: percentile(&sorted, 25.0),
            median: percentile(&sorted, 50.0),
            q3: percentile(&sorted, 75.0),
        }
    }
}

/// The `p`-th percentile of `samples` (any order); see [`percentile`].
///
/// # Panics
///
/// Panics on an empty slice.
pub fn percentile_of(samples: &[f64], p: f64) -> f64 {
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    percentile(&sorted, p)
}

/// Median of `samples` (any order).
///
/// # Panics
///
/// Panics on an empty slice.
pub fn median(samples: &[f64]) -> f64 {
    percentile_of(samples, 50.0)
}
