//! Order statistics over repetition samples.

/// Median, first and third quartile of a sample, with its size.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    /// Median.
    pub median: f64,
    /// First quartile.
    pub q1: f64,
    /// Third quartile.
    pub q3: f64,
    /// Number of samples.
    pub n: usize,
}

/// Summarizes `values`. Quartiles follow the "exclusive" method of
/// Python's `statistics.quantiles(values, n=4)`; a single sample is its
/// own median and quartiles. Returns `None` for an empty sample.
#[must_use]
pub fn summarize(values: &[f64]) -> Option<Summary> {
    let mut data: Vec<f64> = values.to_vec();
    data.sort_by(f64::total_cmp);
    let n = data.len();
    if n == 0 {
        return None;
    }
    let median = if n % 2 == 1 {
        data[n / 2]
    } else {
        (data[n / 2 - 1] + data[n / 2]) / 2.0
    };
    let (q1, q3) = if n == 1 {
        (data[0], data[0])
    } else {
        (quartile(&data, 1), quartile(&data, 3))
    };
    Some(Summary { median, q1, q3, n })
}

/// The `i`-th of the three cut points dividing sorted `data` (length
/// at least 2) into quarters, by the exclusive method.
fn quartile(data: &[f64], i: usize) -> f64 {
    let len = data.len();
    let m = len + 1;
    let j = (i * m / 4).clamp(1, len - 1);
    let delta = (i * m) as f64 - (j * 4) as f64;
    (data[j - 1] * (4.0 - delta) + data[j] * delta) / 4.0
}

/// The median of `values`, or 0 for an empty sample.
#[must_use]
pub fn median(values: &[f64]) -> f64 {
    summarize(values).map_or(0.0, |s| s.median)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matches_python_exclusive_quartiles() {
        // statistics.quantiles([1,2,3,4,5,6,7,8,9,10], n=4) == [2.75, 5.5, 8.25]
        let values: Vec<f64> = (1..=10).map(f64::from).collect();
        let s = summarize(&values).expect("non-empty");
        assert_eq!((s.q1, s.median, s.q3, s.n), (2.75, 5.5, 8.25, 10));
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        let s = summarize(&[3.0, 1.0, 2.0]).expect("non-empty");
        assert_eq!((s.q1, s.median, s.q3), (1.0, 2.0, 3.0));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        let s = summarize(&[1.0, 2.0]).expect("non-empty");
        assert_eq!((s.q1, s.q3), (0.75, 2.25));
    }

    #[test]
    fn single_and_empty_samples() {
        let s = summarize(&[4.0]).expect("non-empty");
        assert_eq!((s.q1, s.median, s.q3), (4.0, 4.0, 4.0));
        assert!(summarize(&[]).is_none());
        assert_eq!(median(&[]), 0.0);
    }
}
