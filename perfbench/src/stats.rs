//! Order statistics of latency samples: nearest-rank percentiles and
//! the tail-percentile rule. Medians of other figures come from
//! `metaai_math::stats::percentile(values, 50.0)`.

/// The percentiles a latency report may quote, lowest first.
const PERCENTILES: [f64; 4] = [50.0, 90.0, 99.0, 99.9];

/// Samples that must lie beyond a percentile before it may be quoted.
const MIN_BEYOND: usize = 10;

/// Nearest-rank percentile `p` (0–100] of an ascending slice: the
/// smallest sample with at least `p`% of the samples at or below it.
fn nearest_rank(sorted: &[f64], p: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of no samples");
    sorted[rank(sorted.len(), p) - 1]
}

/// 1-based nearest rank of percentile `p` among `n ≥ 1` samples. The
/// small guard keeps decimal percentiles such as 99.9 from rounding one
/// rank up.
fn rank(n: usize, p: f64) -> usize {
    let r = (p * n as f64 / 100.0 - 1e-9).ceil() as usize;
    r.clamp(1, n)
}

/// How many of `n` samples lie strictly beyond the nearest-rank
/// percentile `p`.
fn beyond(n: usize, p: f64) -> usize {
    if n == 0 {
        return 0;
    }
    n - rank(n, p)
}

/// The highest quotable percentile for `n` samples: the largest entry of
/// [`PERCENTILES`] with at least [`MIN_BEYOND`] samples beyond it, or
/// `None` when even the median is unsupported.
pub fn tail_percentile(n: usize) -> Option<f64> {
    PERCENTILES
        .iter()
        .copied()
        .rev()
        .find(|&p| beyond(n, p) >= MIN_BEYOND)
}

/// A latency sample set where a request that failed counts as infinitely
/// late, so it misses every limit.
pub struct Latencies {
    sorted: Vec<f64>,
}

impl Latencies {
    /// `scored` latencies plus `failed` requests counted as +∞.
    pub fn new(mut scored: Vec<f64>, failed: usize) -> Self {
        scored.extend(std::iter::repeat_n(f64::INFINITY, failed));
        scored.sort_by(f64::total_cmp);
        Latencies { sorted: scored }
    }

    /// Sample count, failures included.
    pub fn len(&self) -> usize {
        self.sorted.len()
    }

    /// Nearest-rank percentile `p`; `None` unless at least
    /// [`MIN_BEYOND`] samples lie beyond it.
    pub fn quoted(&self, p: f64) -> Option<f64> {
        (beyond(self.len(), p) >= MIN_BEYOND).then(|| nearest_rank(&self.sorted, p))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(nearest_rank(&v, 50.0), 50.0);
        assert_eq!(nearest_rank(&v, 99.0), 99.0);
        assert_eq!(nearest_rank(&v, 100.0), 100.0);
        assert_eq!(nearest_rank(&[7.0], 99.9), 7.0);
    }

    #[test]
    fn tail_rule_needs_ten_samples_beyond() {
        // p99 of 1000 samples leaves exactly 10 beyond it; of 999, 9.
        assert_eq!(beyond(1000, 99.0), 10);
        assert_eq!(beyond(999, 99.0), 9);
        assert_eq!(tail_percentile(1000), Some(99.0));
        assert_eq!(tail_percentile(999), Some(90.0));
        assert_eq!(tail_percentile(10_000), Some(99.9));
        assert_eq!(tail_percentile(100), Some(90.0));
        assert_eq!(tail_percentile(19), None);
        assert_eq!(tail_percentile(20), Some(50.0));
    }

    #[test]
    fn failures_count_as_infinitely_late() {
        let scored: Vec<f64> = (0..1000).map(|_| 1.0).collect();
        let clean = Latencies::new(scored.clone(), 0);
        assert_eq!(clean.quoted(99.0), Some(1.0));
        let failed = Latencies::new(scored, 11);
        assert_eq!(failed.len(), 1011);
        assert_eq!(failed.quoted(99.0), Some(f64::INFINITY));
        assert_eq!(Latencies::new(vec![1.0; 50], 0).quoted(99.0), None);
    }
}
