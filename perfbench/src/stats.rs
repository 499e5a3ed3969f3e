//! Order statistics for repeated measurements.
//!
//! The quartiles follow Python's `statistics.quantiles(values, n=4)` (its
//! default "exclusive" method), so spreads computed here and by a Python
//! harness over the same values agree exactly.

/// Median of `values`; `NaN` for an empty slice.
pub fn median(values: &[f64]) -> f64 {
    let sorted = sorted(values);
    match sorted.len() {
        0 => f64::NAN,
        n if n % 2 == 1 => sorted[n / 2],
        n => (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0,
    }
}

/// Smallest of `values`; `NaN` for an empty slice.
pub fn min(values: &[f64]) -> f64 {
    sorted(values).first().copied().unwrap_or(f64::NAN)
}

/// First and third quartile of `values`, by the exclusive method.
///
/// A single value is its own quartiles; an empty slice gives `NaN`s.
pub fn quartiles(values: &[f64]) -> (f64, f64) {
    let sorted = sorted(values);
    match sorted.len() {
        0 => (f64::NAN, f64::NAN),
        1 => (sorted[0], sorted[0]),
        _ => (
            exclusive_quantile(&sorted, 1),
            exclusive_quantile(&sorted, 3),
        ),
    }
}

/// The `i`-th of the three quartile cut points of at least two sorted
/// values, as `statistics.quantiles(method="exclusive")` computes it.
fn exclusive_quantile(sorted: &[f64], i: usize) -> f64 {
    let m = sorted.len() + 1;
    let j = (i * m / 4).clamp(1, sorted.len() - 1);
    let delta = (i * m) as f64 - (j * 4) as f64;
    (sorted[j - 1] * (4.0 - delta) + sorted[j] * delta) / 4.0
}

fn sorted(values: &[f64]) -> Vec<f64> {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    sorted
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[7.5]), 7.5);
        assert!(median(&[]).is_nan());
    }

    #[test]
    fn min_of_values() {
        assert_eq!(min(&[3.0, 1.5, 2.0]), 1.5);
        assert!(min(&[]).is_nan());
    }

    // Reference values from CPython's `statistics.quantiles(x, n=4)`.
    #[test]
    fn quartiles_match_python_exclusive_method() {
        let ten: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&ten), (2.75, 8.25));
        assert_eq!(quartiles(&[1.0, 2.0]), (0.75, 2.25));
        assert_eq!(quartiles(&[1.0, 2.0, 3.0]), (1.0, 3.0));
        assert_eq!(quartiles(&[1.0, 2.0, 3.0, 4.0]), (1.25, 3.75));
        assert_eq!(quartiles(&[5.0, 1.0, 4.0, 2.0, 3.0]), (1.5, 4.5));
        assert_eq!(quartiles(&[9.0]), (9.0, 9.0));
    }

    #[test]
    fn order_does_not_matter() {
        let a = [0.3, 0.1, 0.9, 0.5, 0.7, 0.2];
        let mut b = a;
        b.reverse();
        assert_eq!(quartiles(&a), quartiles(&b));
        assert_eq!(median(&a), median(&b));
    }
}
