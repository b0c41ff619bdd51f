//! The geometric mean the experiment harnesses aggregate with.

/// Geometric mean of a slice of strictly positive values.
///
/// Used for the paper's "on average 38x / 75x" style aggregates, which are
/// geometric means across operations.
///
/// Returns `None` for an empty slice or if any value is not strictly
/// positive.
pub fn geometric_mean(values: &[f64]) -> Option<f64> {
    if values.is_empty() || values.iter().any(|&v| v <= 0.0 || !v.is_finite()) {
        return None;
    }
    let log_sum: f64 = values.iter().map(|v| v.ln()).sum();
    Some((log_sum / values.len() as f64).exp())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn geometric_mean_basic() {
        assert!((geometric_mean(&[1.0, 100.0]).unwrap() - 10.0).abs() < 1e-9);
        assert!((geometric_mean(&[8.0]).unwrap() - 8.0).abs() < 1e-12);
        assert_eq!(geometric_mean(&[]), None);
        assert_eq!(geometric_mean(&[1.0, 0.0]), None);
        assert_eq!(geometric_mean(&[1.0, -2.0]), None);
        assert_eq!(geometric_mean(&[1.0, f64::INFINITY]), None);
    }
}
