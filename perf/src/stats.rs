//! Order statistics over round times.

/// Sorts `values` and returns them (NaN-free by construction: every
/// caller passes measured durations).
pub fn sorted(mut values: Vec<f64>) -> Vec<f64> {
    values.sort_by(|a, b| a.partial_cmp(b).expect("measured values are never NaN"));
    values
}

/// The `p` quantile (0.0–1.0) of ascending `sorted`, by nearest rank.
///
/// # Panics
///
/// Panics on an empty slice: a statistic of no rounds is a harness bug.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of no samples");
    let idx = ((sorted.len() - 1) as f64 * p.clamp(0.0, 1.0)).round() as usize;
    sorted[idx]
}

/// The fastest sample: the statistic every host-time metric is
/// computed from. Every round of a run does identical work, and
/// interference from a shared machine only ever adds time, so the
/// fastest of a few hundred rounds is the steadiest estimate of what
/// the code costs — measured here, steadier than the 10th percentile
/// by a factor of 2 to 15 (perf/README.md, "Why the fastest round").
///
/// # Panics
///
/// Panics on an empty slice.
pub fn fastest(sorted: &[f64]) -> f64 {
    percentile(sorted, 0.0)
}

/// Median.
pub fn p50(sorted: &[f64]) -> f64 {
    percentile(sorted, 0.50)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_on_known_data() {
        let v = sorted((1..=101).rev().map(f64::from).collect());
        assert_eq!(percentile(&v, 0.0), 1.0);
        assert_eq!(fastest(&v), 1.0);
        assert_eq!(percentile(&v, 0.10), 11.0);
        assert_eq!(p50(&v), 51.0);
        assert_eq!(percentile(&v, 0.9), 91.0);
        assert_eq!(percentile(&v, 1.0), 101.0);
    }

    #[test]
    fn fastest_ignores_how_many_rounds_were_disturbed() {
        // Twenty rounds, two of them quiet: the median and even the
        // 10th percentile (index round(19 × 0.1) = 2) sit in the
        // disturbed mode, the fastest does not.
        let mut v = vec![10.1, 10.0];
        v.extend(std::iter::repeat_n(14.0, 18));
        let v = sorted(v);
        assert_eq!(fastest(&v), 10.0);
        assert_eq!(percentile(&v, 0.10), 14.0);
        assert_eq!(p50(&v), 14.0);
    }

    #[test]
    fn single_sample_is_every_percentile() {
        assert_eq!(fastest(&[7.5]), 7.5);
        assert_eq!(percentile(&[7.5], 0.99), 7.5);
    }

    #[test]
    #[should_panic(expected = "no samples")]
    fn empty_input_panics() {
        percentile(&[], 0.5);
    }
}
