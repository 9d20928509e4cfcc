//! Order statistics over measured samples.

/// Sorts a sample ascending. Samples are finite by construction; a NaN
/// would sort last rather than abort the run.
pub fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// Nearest-rank percentile `p ∈ (0, 100]` of a non-empty sample.
pub fn percentile(values: &[f64], p: f64) -> f64 {
    let v = sorted(values);
    let rank = ((p / 100.0) * v.len() as f64).ceil() as usize;
    v[rank.clamp(1, v.len()) - 1]
}

/// Median (nearest-rank p50) of a non-empty sample.
pub fn median(values: &[f64]) -> f64 {
    percentile(values, 50.0)
}

/// Arithmetic mean of a non-empty sample.
pub fn mean(values: &[f64]) -> f64 {
    values.iter().sum::<f64>() / values.len() as f64
}

/// Samples a tail percentile must leave beyond it to be reported.
pub const TAIL_BEYOND: usize = 10;

/// The highest percentile of a sample that still has [`TAIL_BEYOND`]
/// samples above it: `(value, percentile, samples beyond)`. A sample too
/// small for that reports its maximum with the true count beyond (0).
pub fn tail(values: &[f64]) -> (f64, f64, usize) {
    let v = sorted(values);
    let n = v.len();
    if n > TAIL_BEYOND {
        let at = n - TAIL_BEYOND;
        (v[at - 1], 100.0 * at as f64 / n as f64, TAIL_BEYOND)
    } else {
        (v[n - 1], 100.0, 0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_leaves_ten_samples_beyond() {
        let v: Vec<f64> = (1..=40).map(f64::from).collect();
        assert_eq!(tail(&v), (30.0, 75.0, 10));
        assert_eq!(tail(&[3.0, 1.0, 2.0]), (3.0, 100.0, 0));
    }

    #[test]
    fn nearest_rank_percentiles() {
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(median(&v), 5.0);
        assert_eq!(percentile(&v, 90.0), 9.0);
        assert_eq!(percentile(&[7.0], 50.0), 7.0);
    }
}
