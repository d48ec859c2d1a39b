//! Order statistics for the benchmark's reports.
//!
//! A timing is reported as its median plus the highest percentile that
//! still has at least ten samples beyond it ([`tail_percentile`]), so a
//! "p99" is never two outliers wearing a percentile's name.

/// Samples that must lie beyond a percentile for it to be reported.
pub const MIN_BEYOND: usize = 10;

/// The percentiles a tail may be reported at, ascending, in per mille
/// (whole numbers, so "ten beyond" is exact: 0.1 % of 10,000 is 10).
const LADDER: [usize; 6] = [500, 750, 900, 950, 990, 999];

/// The highest ladder percentile with at least [`MIN_BEYOND`] of `n`
/// samples beyond it; the median when even p75 has too few.
pub fn tail_percentile(n: usize) -> f64 {
    LADDER
        .iter()
        .rev()
        .copied()
        .find(|per_mille| n * (1000 - per_mille) >= MIN_BEYOND * 1000)
        .unwrap_or(500) as f64
        / 10.0
}

/// Percentile `p` (0–100) of `samples` by linear interpolation between
/// closest ranks; 0 when there are none (an idle layer's reading).
pub fn percentile(samples: &[f64], p: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(|a, b| a.partial_cmp(b).expect("timings are finite"));
    let rank = (p / 100.0).clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
    let (lo, hi) = (rank.floor() as usize, rank.ceil() as usize);
    sorted[lo] + (sorted[hi] - sorted[lo]) * (rank - lo as f64)
}

/// Median of `samples`; 0 when there are none.
pub fn median(samples: &[f64]) -> f64 {
    percentile(samples, 50.0)
}

/// `(median, tail value, tail percentile)` of `samples`.
pub fn median_and_tail(samples: &[f64]) -> (f64, f64, f64) {
    let p = tail_percentile(samples.len());
    (median(samples), percentile(samples, p), p)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_is_the_highest_percentile_with_ten_samples_beyond() {
        // The sample counts ISSUE 12 names: 288 epochs → p95 (14.4
        // beyond; p99 would have 2.9), 1,440 steps → p99, 180 failovers
        // → p90 (p95 would have 9).
        assert_eq!(tail_percentile(288), 95.0);
        assert_eq!(tail_percentile(1_440), 99.0);
        assert_eq!(tail_percentile(180), 90.0);
        assert_eq!(tail_percentile(10_000), 99.9);
        assert_eq!(tail_percentile(9_999), 99.0);
        assert_eq!(tail_percentile(200), 95.0);
        assert_eq!(tail_percentile(199), 90.0);
        assert_eq!(tail_percentile(40), 75.0);
        assert_eq!(tail_percentile(39), 50.0);
        assert_eq!(tail_percentile(20), 50.0);
        assert_eq!(tail_percentile(3), 50.0);
        assert_eq!(tail_percentile(0), 50.0);
    }

    #[test]
    fn percentiles_interpolate_and_clamp() {
        let v = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(median(&v), 2.5);
        assert_eq!(percentile(&v, 0.0), 1.0);
        assert_eq!(percentile(&v, 100.0), 4.0);
        assert_eq!(percentile(&v, 150.0), 4.0);
        assert_eq!(percentile(&[7.0], 99.0), 7.0);
        assert_eq!(median(&[]), 0.0);
        let (p50, tail, p) = median_and_tail(&v);
        assert_eq!((p50, tail, p), (2.5, 2.5, 50.0));
    }
}
