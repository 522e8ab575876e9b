//! Percentiles and the rule for which of them a sample supports.
//!
//! A timing is reported as its median and, where the sample allows, its
//! 99th percentile. A percentile is supported only when at least
//! [`MIN_BEYOND`] samples lie beyond it; with fewer, the estimate is one
//! or two outliers and moves from run to run by more than any bound.

/// Samples that must lie strictly above a percentile for it to be
/// reported.
pub const MIN_BEYOND: usize = 10;

/// The 1-based nearest rank of the `q`-quantile among `n` samples:
/// `ceil(q · n)`, at least 1.
pub fn rank(n: usize, q: f64) -> usize {
    ((q * n as f64).ceil() as usize).clamp(1, n.max(1))
}

/// How many of `n` samples lie beyond the `q`-quantile's rank.
pub fn beyond(n: usize, q: f64) -> usize {
    if n == 0 {
        return 0;
    }
    n - rank(n, q)
}

/// Whether `n` samples support reporting the `q`-quantile.
pub fn supports(n: usize, q: f64) -> bool {
    beyond(n, q) >= MIN_BEYOND
}

/// The nearest-rank `q`-quantile of an ascending slice (`None` if empty).
pub fn quantile(sorted: &[f64], q: f64) -> Option<f64> {
    if sorted.is_empty() {
        return None;
    }
    Some(sorted[rank(sorted.len(), q) - 1])
}

/// The median of unsorted values (mean of the middle two for even
/// counts); `NaN` if empty.
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// Median and supported tail of one timing.
#[derive(Debug, Clone, PartialEq)]
pub struct Summary {
    /// Samples taken.
    pub count: usize,
    /// Nearest-rank median.
    pub p50: f64,
    /// Nearest-rank 99th percentile, present only when [`supports`] holds.
    pub p99: Option<f64>,
    /// Samples beyond the 99th percentile's rank.
    pub beyond_p99: usize,
}

impl Summary {
    /// Summarize `samples` (any order; `NaN`s are not expected).
    pub fn of(samples: &[f64]) -> Summary {
        let mut v = samples.to_vec();
        v.sort_by(f64::total_cmp);
        let count = v.len();
        Summary {
            count,
            p50: quantile(&v, 0.50).unwrap_or(f64::NAN),
            p99: if supports(count, 0.99) {
                quantile(&v, 0.99)
            } else {
                None
            },
            beyond_p99: beyond(count, 0.99),
        }
    }

    /// `p99=<v>` or the reason it is absent, for report lines.
    pub fn p99_text(&self, unit: &str) -> String {
        match self.p99 {
            Some(v) => format!("{v:.3} {unit}"),
            None => format!(
                "absent ({} samples beyond p99, {MIN_BEYOND} needed)",
                self.beyond_p99
            ),
        }
    }
}
