//! Order statistics the benchmark reports: medians and percentiles of
//! timing samples, quartile spread across runs, and the
//! `ceil(population / threads)` normalisation of a generation's wall time.

/// Sorted copy of `values` (NaNs sort last via `total_cmp`).
fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// Percentile `p` in `[0, 1]` by linear interpolation between closest
/// ranks. An empty slice yields NaN (the caller reports it as a failure).
pub fn percentile(values: &[f64], p: f64) -> f64 {
    let v = sorted(values);
    if v.is_empty() {
        return f64::NAN;
    }
    let rank = p.clamp(0.0, 1.0) * (v.len() - 1) as f64;
    let lo = rank.floor() as usize;
    let hi = rank.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (rank - lo as f64)
}

/// Median of `values`.
pub fn median(values: &[f64]) -> f64 {
    percentile(values, 0.5)
}

/// The quartile of `values` on the fast side: the first for a time, the
/// third for a rate. On a shared host a disturbance only ever slows a
/// repetition down, and for tens of seconds at a time, so the slow side of
/// the distribution is the neighbours' and the fast side the program's.
/// The median would flip between the two whenever the disturbed share of a
/// run crosses one half; this quartile holds until it crosses three
/// quarters. A change to the program moves every repetition, and so moves
/// the quartile as much as the median.
pub fn fast_quartile(values: &[f64], higher_is_better: bool) -> f64 {
    percentile(values, if higher_is_better { 0.75 } else { 0.25 })
}

/// Smallest and largest of `values` (`(NaN, NaN)` when empty).
pub fn min_max(values: &[f64]) -> (f64, f64) {
    values
        .iter()
        .fold((f64::NAN, f64::NAN), |(lo, hi), &x| (lo.min(x), hi.max(x)))
}

/// Walker-steps one thread executes in a generation of `population`
/// walkers split over `threads` contiguous chunks: the largest chunk,
/// `ceil(population / threads)`. Dividing a generation's wall time by this
/// gives one thread's time for one walker-step, whatever the population
/// did.
pub fn steps_per_thread(population: usize, threads: usize) -> usize {
    population.div_ceil(threads.max(1)).max(1)
}

/// Distance between the first and third quartile as a share of the median,
/// with the quartiles of Python's `statistics.quantiles(values, n=4)`
/// (exclusive method) — the spread the acceptance rule is stated in.
/// Needs at least two values; fewer yield 0.
pub fn quartile_spread(values: &[f64]) -> f64 {
    let v = sorted(values);
    let m = v.len();
    if m < 2 {
        return 0.0;
    }
    let quartile = |i: usize| {
        let j = (i * (m + 1) / 4).clamp(1, m - 1);
        let delta = (i * (m + 1)) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    (quartile(3) - quartile(1)) / median(&v)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_interpolates_between_ranks() {
        let v = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(percentile(&v, 0.0), 1.0);
        assert_eq!(percentile(&v, 1.0), 4.0);
        assert_eq!(median(&v), 2.5);
        assert!((percentile(&v, 0.9) - 3.7).abs() < 1e-12);
        assert!(percentile(&[], 0.5).is_nan());
        assert_eq!(median(&[7.0]), 7.0);
    }

    #[test]
    fn median_of_rounds_ignores_one_slow_round() {
        // One round hit by a noisy neighbour must not move the reported value.
        let rounds = [100.0, 101.0, 55.0, 99.0, 100.5];
        assert_eq!(median(&rounds), 100.0);
        assert_eq!(min_max(&rounds), (55.0, 101.0));
    }

    #[test]
    fn fast_quartile_holds_while_most_rounds_are_disturbed() {
        // Five of eight rounds run 40 % slow: the median has flipped to the
        // disturbed mode, the fast-side quartile has not.
        let ms = [1.0, 1.01, 0.99, 1.4, 1.41, 1.39, 1.4, 1.42];
        assert!(median(&ms) > 1.3);
        assert!((fast_quartile(&ms, false) - 1.0).abs() < 0.02);
        let rate: Vec<f64> = ms.iter().map(|t| 1000.0 / t).collect();
        assert!((fast_quartile(&rate, true) - 1000.0).abs() < 20.0);
    }

    #[test]
    fn steps_per_thread_is_the_largest_chunk() {
        assert_eq!(steps_per_thread(8, 2), 4);
        assert_eq!(steps_per_thread(9, 2), 5);
        assert_eq!(steps_per_thread(1, 2), 1);
        assert_eq!(steps_per_thread(7, 1), 7);
        // Degenerate inputs never divide by zero.
        assert_eq!(steps_per_thread(0, 2), 1);
        assert_eq!(steps_per_thread(3, 0), 3);
    }

    #[test]
    fn quartile_spread_matches_python_statistics_quantiles() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25].
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert!((quartile_spread(&v) - (8.25 - 2.75) / 5.5).abs() < 1e-12);
        // statistics.quantiles([10, 20, 40], n=4) == [10.0, 20.0, 40.0].
        assert!((quartile_spread(&[40.0, 10.0, 20.0]) - 1.5).abs() < 1e-12);
        assert_eq!(quartile_spread(&[5.0]), 0.0);
    }
}
