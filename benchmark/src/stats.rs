//! Order statistics for the benchmark's samples: median, quartiles, and
//! the highest percentile a sample count can support.

/// Percentiles the report may quote, lowest first, in per mille (so the
/// tail count below is exact integer arithmetic).
const LADDER_PER_MILLE: [usize; 6] = [500, 750, 900, 950, 990, 999];

/// Samples that must lie beyond a percentile before it is quoted.
const TAIL_SAMPLES: usize = 10;

/// The `p`-th percentile (0..=100) of `sorted`, by linear interpolation
/// between the two nearest ranks (the "inclusive" rule, which Python's
/// `statistics.quantiles(..., method="inclusive")` and numpy share).
/// `sorted` must be ascending and non-empty.
pub fn percentile_sorted(sorted: &[f64], p: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of no samples");
    let rank = (p / 100.0).clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
    let lo = rank.floor() as usize;
    let hi = rank.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (rank - lo as f64)
}

/// The highest percentile of the ladder that still has at least ten of
/// `n` samples beyond it, or `None` when even the median does not.
pub fn top_percentile(n: usize) -> Option<f64> {
    LADDER_PER_MILLE
        .iter()
        .rev()
        .find(|&&p| n * (1000 - p) >= TAIL_SAMPLES * 1000)
        .map(|&p| p as f64 / 10.0)
}

/// Five-number summary plus the sample count, and which figure of it
/// the metric reports.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    /// The metric's reported figure: the median, unless [`Summary::best`]
    /// chose the best sample.
    pub value: f64,
    pub n: usize,
    pub min: f64,
    pub q1: f64,
    pub median: f64,
    pub q3: f64,
    pub max: f64,
}

impl Summary {
    /// Summarize `samples` (any order); `None` when there are none.
    pub fn of(samples: &[f64]) -> Option<Summary> {
        if samples.is_empty() {
            return None;
        }
        let mut s = samples.to_vec();
        s.sort_by(f64::total_cmp);
        let median = percentile_sorted(&s, 50.0);
        Some(Summary {
            value: median,
            n: s.len(),
            min: s[0],
            q1: percentile_sorted(&s, 25.0),
            median,
            q3: percentile_sorted(&s, 75.0),
            max: s[s.len() - 1],
        })
    }

    /// A summary standing for one derived value (a ratio, a count).
    pub fn point(v: f64, n: usize) -> Summary {
        Summary { value: v, n, min: v, q1: v, median: v, q3: v, max: v }
    }

    /// Report the best sample in place of the median: the shortest time,
    /// or the highest rate with `higher`. On a shared host a cell's time
    /// is its undisturbed time plus whatever the neighbours cost it that
    /// round, so over a handful of rounds the best repeats where the
    /// median moves with the share of rounds that met a busy spell.
    pub fn best(self, higher: bool) -> Summary {
        Summary { value: if higher { self.max } else { self.min }, ..self }
    }

    /// Field by field, `fold` over the same field of each of `parts`
    /// (a sum of per-cell times, a geometric mean of per-cell rates);
    /// `n` is the smallest part's. `None` when there are no parts.
    pub fn fold(parts: &[Summary], fold: impl Fn(&[f64]) -> f64) -> Option<Summary> {
        let field = |f: fn(&Summary) -> f64| fold(&parts.iter().map(f).collect::<Vec<_>>());
        Some(Summary {
            value: field(|s| s.value),
            n: parts.iter().map(|s| s.n).min()?,
            min: field(|s| s.min),
            q1: field(|s| s.q1),
            median: field(|s| s.median),
            q3: field(|s| s.q3),
            max: field(|s| s.max),
        })
    }
}

/// Median of `samples`; 0 when there are none (callers that can meet an
/// empty set check first).
pub fn median(samples: &[f64]) -> f64 {
    Summary::of(samples).map_or(0.0, |s| s.median)
}

/// Geometric mean of positive values.
pub fn geomean(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    (values.iter().map(|v| v.ln()).sum::<f64>() / values.len() as f64).exp()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_and_quartiles_interpolate() {
        let s = Summary::of(&[4.0, 1.0, 3.0, 2.0]).unwrap();
        assert_eq!((s.n, s.min, s.max), (4, 1.0, 4.0));
        assert_eq!(s.median, 2.5);
        assert_eq!(s.q1, 1.75);
        assert_eq!(s.q3, 3.25);
        let odd = Summary::of(&[5.0, 1.0, 3.0]).unwrap();
        assert_eq!(odd.median, 3.0);
        assert_eq!(Summary::of(&[7.0]).unwrap().q3, 7.0);
        assert!(Summary::of(&[]).is_none());
    }

    #[test]
    fn best_and_fold_pick_and_combine_the_reported_figure() {
        let a = Summary::of(&[3.0, 1.0, 2.0]).unwrap();
        assert_eq!(a.value, 2.0);
        assert_eq!((a.best(false).value, a.best(true).value), (1.0, 3.0));
        let b = Summary::of(&[10.0, 30.0]).unwrap().best(false);
        let sum = Summary::fold(&[a.best(false), b], |v| v.iter().sum()).unwrap();
        assert_eq!((sum.value, sum.n, sum.min, sum.median, sum.max), (11.0, 2, 11.0, 22.0, 33.0));
        assert!(Summary::fold(&[], |v| v.iter().sum()).is_none());
    }

    #[test]
    fn top_percentile_keeps_ten_samples_beyond_it() {
        assert_eq!(top_percentile(5), None);
        assert_eq!(top_percentile(19), None);
        assert_eq!(top_percentile(20), Some(50.0));
        assert_eq!(top_percentile(40), Some(75.0));
        assert_eq!(top_percentile(100), Some(90.0));
        assert_eq!(top_percentile(199), Some(90.0));
        assert_eq!(top_percentile(210), Some(95.0));
        assert_eq!(top_percentile(2100), Some(99.0));
        assert_eq!(top_percentile(10_000), Some(99.9));
    }

    #[test]
    fn percentile_of_a_ramp() {
        let ramp: Vec<f64> = (0..=100).map(f64::from).collect();
        assert_eq!(percentile_sorted(&ramp, 95.0), 95.0);
        assert_eq!(percentile_sorted(&ramp, 0.0), 0.0);
        assert_eq!(percentile_sorted(&ramp, 100.0), 100.0);
    }

    #[test]
    fn geomean_of_positive_values() {
        assert!((geomean(&[2.0, 8.0]) - 4.0).abs() < 1e-12);
        assert_eq!(geomean(&[]), 0.0);
    }
}
