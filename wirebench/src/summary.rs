//! Timing summaries over [`Percentiles`], the workspace's one
//! percentile implementation (nearest rank over retained samples).

use cachegenie_repro::sim::Percentiles;

/// Candidate tail percentiles, highest first.
const TAILS: [f64; 6] = [99.99, 99.9, 99.0, 95.0, 90.0, 50.0];

/// Samples a percentile must leave beyond it to be reported.
pub const MIN_BEYOND: usize = 10;

/// Samples strictly beyond the nearest-rank `p`-th percentile of `n`
/// samples.
pub fn beyond(p: f64, n: usize) -> usize {
    let rank = ((p / 100.0) * n as f64).ceil() as usize;
    n.saturating_sub(rank.max(1))
}

/// The highest percentile of [`TAILS`] that leaves at least
/// [`MIN_BEYOND`] samples beyond it, if any does.
pub fn highest_reportable(n: usize) -> Option<f64> {
    TAILS.into_iter().find(|&p| beyond(p, n) >= MIN_BEYOND)
}

/// A finished sample set with its count.
pub struct Summary {
    samples: Percentiles,
}

impl Summary {
    /// Collects `values`.
    pub fn of(values: impl IntoIterator<Item = f64>) -> Self {
        let mut samples = Percentiles::new();
        for v in values {
            samples.push(v);
        }
        Summary { samples }
    }

    /// Sample count.
    pub fn len(&self) -> usize {
        self.samples.len()
    }

    /// The `p`-th percentile (0 when empty).
    pub fn pct(&mut self, p: f64) -> f64 {
        self.samples.percentile(p).unwrap_or(0.0)
    }

    /// The median (0 when empty).
    pub fn median(&mut self) -> f64 {
        self.pct(50.0)
    }

    /// The mean (0 when empty).
    pub fn mean(&self) -> f64 {
        self.samples.mean().unwrap_or(0.0)
    }

    /// `"p<q>=<value><unit> (n=<count>)"` at the highest reportable
    /// percentile, scaled by `scale`.
    pub fn tail_line(&mut self, scale: f64, unit: &str) -> String {
        let n = self.len();
        match highest_reportable(n) {
            Some(p) => format!("p{p}={:.3}{unit} (n={n})", self.pct(p) * scale),
            None => format!("no percentile has {MIN_BEYOND} samples beyond it (n={n})"),
        }
    }
}

/// The median of `values` (0 when empty).
pub fn median(values: impl IntoIterator<Item = f64>) -> f64 {
    Summary::of(values).median()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reportable_tail_needs_ten_samples_beyond_it() {
        // 1,000 samples: p99 is rank 990, 10 beyond; p99.9 leaves 1.
        assert_eq!(highest_reportable(1_000), Some(99.0));
        // 999 samples: p99 is rank 990, only 9 beyond.
        assert_eq!(highest_reportable(999), Some(95.0));
        // 10,010 samples: p99.9 is rank 10,000, 10 beyond. (At exactly
        // 10,000, 0.999 * 10,000 rounds up past 9,990 in floating point,
        // as it does inside `Percentiles`, leaving 9.)
        assert_eq!(highest_reportable(10_010), Some(99.9));
        assert_eq!(highest_reportable(100_100), Some(99.99));
        // Too few samples for even the median.
        assert_eq!(highest_reportable(19), None);
        assert_eq!(highest_reportable(20), Some(50.0));
        assert_eq!(highest_reportable(0), None);
    }

    #[test]
    fn beyond_counts_match_percentiles_nearest_rank() {
        let mut s = Summary::of((1..=1_000).map(f64::from));
        let p = highest_reportable(s.len()).unwrap();
        let v = s.pct(p);
        let above = (1..=1_000).filter(|&x| f64::from(x) > v).count();
        assert_eq!(above, beyond(p, 1_000));
        assert!(above >= MIN_BEYOND);
    }

    #[test]
    fn median_of_empty_is_zero() {
        assert_eq!(median(std::iter::empty()), 0.0);
        assert_eq!(median([3.0, 1.0, 2.0]), 2.0);
    }
}
