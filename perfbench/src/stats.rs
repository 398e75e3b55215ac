//! Order statistics for timing samples.

/// Median, first and third quartile of a sample, with its size.
#[derive(Debug, Clone, Copy)]
pub struct Summary {
    pub median: f64,
    pub q1: f64,
    pub q3: f64,
    pub n: usize,
}

impl Summary {
    /// Summarizes `values` (at least one). Quartiles follow Python's
    /// `statistics.quantiles(values, n=4)` (the "exclusive" method), so
    /// the spread printed here is the spread an external check computes.
    pub fn of(values: &[f64]) -> Summary {
        assert!(!values.is_empty(), "summary of an empty sample");
        let mut v = values.to_vec();
        v.sort_by(f64::total_cmp);
        let n = v.len();
        let median = if n % 2 == 1 {
            v[n / 2]
        } else {
            (v[n / 2 - 1] + v[n / 2]) / 2.0
        };
        let (q1, q3) = if n < 2 {
            (median, median)
        } else {
            (exclusive_quartile(&v, 1), exclusive_quartile(&v, 3))
        };
        Summary { median, q1, q3, n }
    }
}

/// The `i`-th of the three cut points of `statistics.quantiles(n=4)`.
fn exclusive_quartile(sorted: &[f64], i: usize) -> f64 {
    let ld = sorted.len();
    let m = ld + 1;
    let j = (i * m / 4).clamp(1, ld - 1);
    let delta = (i * m) as f64 - (j * 4) as f64;
    (sorted[j - 1] * (4.0 - delta) + sorted[j] * delta) / 4.0
}

/// The highest of a fixed ladder of percentiles that still has at least
/// ten samples beyond it, with its value: `(percentile, value)`. With
/// fewer than twenty samples no percentile qualifies except the
/// median-free maximum, reported as percentile 100.
pub fn tail(values: &[f64]) -> (f64, f64) {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len() as f64;
    for p in [99.9, 99.0, 95.0, 90.0, 75.0, 50.0] {
        if n * (1.0 - p / 100.0) >= 10.0 {
            // Nearest-rank percentile.
            let rank = ((p / 100.0) * n).ceil().max(1.0) as usize;
            return (p, v[rank - 1]);
        }
    }
    (100.0, *v.last().expect("tail of an empty sample"))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..=10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        let s = Summary::of(&v);
        assert_eq!((s.q1, s.median, s.q3), (2.75, 5.5, 8.25));
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        let s = Summary::of(&[3.0, 1.0, 2.0]);
        assert_eq!((s.q1, s.median, s.q3), (1.0, 2.0, 3.0));
    }

    #[test]
    fn tail_keeps_ten_samples_beyond() {
        let v: Vec<f64> = (1..=200).map(f64::from).collect();
        assert_eq!(tail(&v), (95.0, 190.0));
        assert_eq!(tail(&[1.0, 2.0]).0, 100.0);
    }
}
