//! Order statistics over latency samples.

/// The `q`-quantile (`0 ≤ q ≤ 1`) of `samples`, interpolating linearly
/// between the two closest ranks (the "linear" method of NumPy and of
/// Python's `statistics.quantiles(method="inclusive")`). `NaN` for an empty
/// slice.
#[must_use]
pub fn percentile(samples: &[f64], q: f64) -> f64 {
    if samples.is_empty() {
        return f64::NAN;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = q.clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
    let lo = rank.floor() as usize;
    let hi = rank.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (rank - lo as f64)
}

/// The median of `samples` (`NaN` for an empty slice).
#[must_use]
pub fn median(samples: &[f64]) -> f64 {
    percentile(samples, 0.5)
}

/// The median, over consecutive blocks of `block` samples (a trailing
/// partial block is left out), of `stat` applied to each block.
///
/// Co-tenants on a shared machine slow whole stretches of a run; a
/// statistic taken per block and then medianed keeps such a stretch from
/// moving the run's figure unless it covers half the blocks, while a cost
/// the program pays throughout (a periodic stall, say) shows in every block.
#[must_use]
pub fn block_median(samples: &[f64], block: usize, stat: impl Fn(&[f64]) -> f64) -> f64 {
    let per_block: Vec<f64> = samples.chunks_exact(block).map(stat).collect();
    median(&per_block)
}

/// How many samples lie strictly above `threshold` — the tail a reported
/// percentile rests on.
#[must_use]
pub fn count_above(samples: &[f64], threshold: f64) -> usize {
    samples.iter().filter(|&&s| s > threshold).count()
}

/// `part / whole`, or `0` when nothing was attempted.
#[must_use]
pub fn ratio(part: f64, whole: f64) -> f64 {
    if whole == 0.0 {
        0.0
    } else {
        part / whole
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_interpolates_between_ranks() {
        let samples = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(percentile(&samples, 0.0), 1.0);
        assert_eq!(percentile(&samples, 1.0), 4.0);
        assert_eq!(percentile(&samples, 0.5), 2.5);
        assert!((percentile(&samples, 0.25) - 1.75).abs() < 1e-12);
    }

    #[test]
    fn median_of_odd_count_is_the_middle_sample() {
        assert_eq!(median(&[9.0, 1.0, 5.0]), 5.0);
        assert_eq!(median(&[7.0]), 7.0);
        assert!(median(&[]).is_nan());
    }

    #[test]
    fn p99_of_a_thousand_samples_leaves_ten_above() {
        let samples: Vec<f64> = (1..=1000).map(f64::from).collect();
        let p99 = percentile(&samples, 0.99);
        assert!((p99 - 990.01).abs() < 1e-9);
        assert_eq!(count_above(&samples, p99), 10);
    }

    #[test]
    fn block_median_ignores_a_slow_stretch() {
        // Four blocks of four; one block is slowed tenfold, and the trailing
        // two samples do not make a block.
        let mut samples = vec![1.0; 16];
        samples[4..8].fill(10.0);
        samples.extend([50.0, 50.0]);
        assert_eq!(block_median(&samples, 4, |b| percentile(b, 0.99)), 1.0);
        let ramp: Vec<f64> = (0..12).map(f64::from).collect();
        assert_eq!(block_median(&ramp, 4, median), 5.5);
        assert!(block_median(&ramp, 13, median).is_nan());
    }

    #[test]
    fn ratio_of_nothing_is_zero() {
        assert_eq!(ratio(3.0, 0.0), 0.0);
        assert_eq!(ratio(1.0, 4.0), 0.25);
    }
}
