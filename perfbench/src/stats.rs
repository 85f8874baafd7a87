//! Order statistics for the report: medians and quartiles computed the way
//! Python's `statistics.quantiles(values, n=4)` does (the "exclusive"
//! method), and the tail-percentile rule: report the highest percentile that
//! still has at least ten samples beyond it.

/// Median, quartiles and sample count of a set of measurements.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    /// First quartile.
    pub q1: f64,
    /// Median.
    pub median: f64,
    /// Third quartile.
    pub q3: f64,
    /// Number of samples.
    pub n: usize,
}

impl Summary {
    /// Summarises `values`; `None` when there are none.
    pub fn of(values: &[f64]) -> Option<Summary> {
        let mut v: Vec<f64> = values.to_vec();
        v.sort_by(f64::total_cmp);
        match v.len() {
            0 => None,
            1 => Some(Summary { q1: v[0], median: v[0], q3: v[0], n: 1 }),
            n => {
                let [q1, median, q3] = quartiles_sorted(&v);
                Some(Summary { q1, median, q3, n })
            }
        }
    }
}

/// Quartiles of at least two sorted values by the exclusive method.
fn quartiles_sorted(data: &[f64]) -> [f64; 3] {
    let ld = data.len();
    debug_assert!(ld >= 2);
    let m = ld + 1;
    let mut out = [0.0; 3];
    for (slot, i) in out.iter_mut().zip(1..4usize) {
        let j = (i * m / 4).clamp(1, ld - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        *slot = (data[j - 1] * (4.0 - delta) + data[j] * delta) / 4.0;
    }
    out
}

/// Percentile levels the report may use, in increasing order.
const LEVELS: [f64; 6] = [50.0, 75.0, 90.0, 95.0, 99.0, 99.9];

/// The highest percentile level with at least ten of `n` samples beyond it,
/// or `None` when even the median has fewer than ten beyond it.
pub fn tail_level(n: usize) -> Option<f64> {
    LEVELS.iter().copied().rev().find(|p| n as f64 * (100.0 - p) / 100.0 >= 10.0 - 1e-9)
}

/// The nearest-rank `p`-th percentile of `values` (`0 < p <= 100`).
pub fn percentile(values: &[f64], p: f64) -> Option<f64> {
    if values.is_empty() {
        return None;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = ((p / 100.0) * v.len() as f64).ceil().max(1.0) as usize;
    Some(v[rank.min(v.len()) - 1])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..=10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        let s = Summary::of(&v).expect("ten values");
        assert_eq!((s.q1, s.median, s.q3, s.n), (2.75, 5.5, 8.25, 10));
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        let s = Summary::of(&[3.0, 1.0, 2.0]).expect("three values");
        assert_eq!((s.q1, s.median, s.q3), (1.0, 2.0, 3.0));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        let s = Summary::of(&[2.0, 1.0]).expect("two values");
        assert_eq!((s.q1, s.median, s.q3), (0.75, 1.5, 2.25));
        assert_eq!(Summary::of(&[]), None);
        assert_eq!(Summary::of(&[4.0]).map(|s| s.median), Some(4.0));
    }

    #[test]
    fn tail_level_keeps_ten_samples_beyond() {
        assert_eq!(tail_level(19), None);
        assert_eq!(tail_level(20), Some(50.0));
        assert_eq!(tail_level(39), Some(50.0));
        assert_eq!(tail_level(40), Some(75.0));
        assert_eq!(tail_level(99), Some(75.0));
        assert_eq!(tail_level(100), Some(90.0));
        assert_eq!(tail_level(1000), Some(99.0));
        assert_eq!(tail_level(10_000), Some(99.9));
    }

    #[test]
    fn percentile_leaves_the_promised_samples_beyond() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        let p90 = percentile(&v, 90.0).expect("non-empty");
        assert_eq!(p90, 90.0);
        assert_eq!(v.iter().filter(|&&x| x > p90).count(), 10);
        assert_eq!(percentile(&v, 50.0), Some(50.0));
        assert_eq!(percentile(&[7.0], 90.0), Some(7.0));
        assert_eq!(percentile(&[], 50.0), None);
    }
}
