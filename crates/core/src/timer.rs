//! Wall-clock timing helpers: a closure stopwatch and the per-region
//! summary statistics the trace layer reports.

use std::time::Instant;

/// Time a closure, returning `(result, seconds)`.
pub fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let t0 = Instant::now();
    let r = f();
    (r, t0.elapsed().as_secs_f64())
}

/// Per-rank (or per-sample) summary statistics for one region.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RegionStats {
    /// Smallest sample (0 for an empty set).
    pub min: f64,
    /// Largest sample.
    pub max: f64,
    /// Arithmetic mean.
    pub mean: f64,
}

impl RegionStats {
    /// Summarize `samples`; an empty slice yields all-zero stats.
    pub fn from_samples(samples: &[f64]) -> RegionStats {
        if samples.is_empty() {
            return RegionStats { min: 0.0, max: 0.0, mean: 0.0 };
        }
        let mut min = f64::INFINITY;
        let mut max = f64::NEG_INFINITY;
        let mut sum = 0.0;
        for &s in samples {
            min = min.min(s);
            max = max.max(s);
            sum += s;
        }
        RegionStats { min, max, mean: sum / samples.len() as f64 }
    }

    /// Load-imbalance ratio `max / mean` (1.0 = perfectly balanced; also
    /// 1.0 for a zero mean, where the ratio is meaningless).
    pub fn imbalance(&self) -> f64 {
        if self.mean > 0.0 {
            self.max / self.mean
        } else {
            1.0
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn timed_returns_value() {
        let (v, s) = timed(|| 41 + 1);
        assert_eq!(v, 42);
        assert!(s >= 0.0);
    }

    #[test]
    fn region_stats_summarize_and_imbalance() {
        let s = RegionStats::from_samples(&[1.0, 2.0, 3.0]);
        assert_eq!(s.min, 1.0);
        assert_eq!(s.max, 3.0);
        assert!((s.mean - 2.0).abs() < 1e-15);
        assert!((s.imbalance() - 1.5).abs() < 1e-15);
        let z = RegionStats::from_samples(&[]);
        assert_eq!((z.min, z.max, z.mean), (0.0, 0.0, 0.0));
        assert_eq!(z.imbalance(), 1.0, "zero mean reports balanced");
    }
}
