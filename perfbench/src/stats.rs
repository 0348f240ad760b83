//! Summary statistics over latency samples, and the queueing identity
//! the serving layer's wait estimate rests on.

/// The `q`-quantile (`0.0..=1.0`) of `values`, interpolating linearly
/// between the two closest ranks (the definition NumPy and R use by
/// default). `NaN` for an empty slice.
pub fn percentile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

/// The median of `values` (`NaN` for an empty slice).
pub fn median(values: &[f64]) -> f64 {
    percentile(values, 0.5)
}

/// The arithmetic mean of `values` (`NaN` for an empty slice).
pub fn mean(values: &[f64]) -> f64 {
    values.iter().sum::<f64>() / values.len() as f64
}

/// Little's law solved for the time in system: `W = L / λ`, with `L` the
/// mean number of jobs in the system and `λ` their throughput per
/// second. Returns milliseconds; 0 when nothing completed.
pub fn littles_law_wait_ms(mean_in_system: f64, throughput_per_s: f64) -> f64 {
    if throughput_per_s > 0.0 {
        mean_in_system / throughput_per_s * 1e3
    } else {
        0.0
    }
}

/// `numerator / denominator`, or 0 when the denominator is 0 (a ratio
/// over an empty population, such as the memo hit ratio of a workload
/// that bypasses the memo).
pub fn ratio(numerator: f64, denominator: f64) -> f64 {
    if denominator > 0.0 {
        numerator / denominator
    } else {
        0.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_interpolates_between_ranks() {
        let values: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&values, 0.0), 1.0);
        assert_eq!(percentile(&values, 1.0), 100.0);
        assert!((percentile(&values, 0.5) - 50.5).abs() < 1e-12);
        assert!((percentile(&values, 0.99) - 99.01).abs() < 1e-9);
        assert!((percentile(&values, 0.25) - 25.75).abs() < 1e-12);
    }

    #[test]
    fn percentile_ignores_input_order_and_handles_edges() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0]), 2.5);
        assert_eq!(percentile(&[7.0], 0.99), 7.0);
        assert!(percentile(&[], 0.5).is_nan());
    }

    #[test]
    fn littles_law_divides_occupancy_by_throughput() {
        // 2 jobs in the system on average at 40 jobs/s: each spends 50 ms.
        assert!((littles_law_wait_ms(2.0, 40.0) - 50.0).abs() < 1e-12);
        assert_eq!(littles_law_wait_ms(0.0, 10.0), 0.0);
        assert_eq!(littles_law_wait_ms(3.0, 0.0), 0.0);
    }

    #[test]
    fn ratio_of_an_empty_population_is_zero() {
        assert_eq!(ratio(3.0, 4.0), 0.75);
        assert_eq!(ratio(0.0, 0.0), 0.0);
        assert_eq!(mean(&[1.0, 2.0, 6.0]), 3.0);
    }
}
