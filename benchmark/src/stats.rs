//! Estimators. Wall-clock noise on a small shared box is one-sided (a unit
//! is only ever made slower by a neighbour), so the time per unit is the
//! *fastest* unit; the median and a tail percentile are spread diagnostics.

/// The fastest sample (0 for an empty slice).
pub fn fastest(xs: &[f64]) -> f64 {
    let m = xs.iter().copied().fold(f64::INFINITY, f64::min);
    if m.is_finite() {
        m
    } else {
        0.0
    }
}

fn sorted(xs: &[f64]) -> Vec<f64> {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// Median (mean of the two middle samples for an even count; 0 when empty).
pub fn median(xs: &[f64]) -> f64 {
    let v = sorted(xs);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => 0.5 * (v[n / 2 - 1] + v[n / 2]),
    }
}

/// The highest percentile that still has at least ten samples beyond it,
/// as `(percentile, value)`. With fewer than eleven samples no percentile
/// qualifies and the median is reported as `(50, median)`.
pub fn tail(xs: &[f64]) -> (f64, f64) {
    let v = sorted(xs);
    let n = v.len();
    if n < 11 {
        return (50.0, median(xs));
    }
    let idx = n - 11;
    (100.0 * (idx + 1) as f64 / n as f64, v[idx])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fastest_and_median() {
        assert_eq!(fastest(&[3.0, 1.5, 2.0]), 1.5);
        assert_eq!(fastest(&[]), 0.0);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn tail_keeps_ten_samples_beyond() {
        // 100 samples 1..=100: ten samples (91..=100) lie beyond the 90th.
        let xs: Vec<f64> = (1..=100).map(f64::from).collect();
        let (p, v) = tail(&xs);
        assert_eq!(v, 90.0);
        assert!((p - 90.0).abs() < 1e-9);
        assert_eq!(xs.iter().filter(|&&x| x > v).count(), 10);
        // 11 samples: only the smallest has ten beyond it.
        let xs: Vec<f64> = (1..=11).map(f64::from).collect();
        assert_eq!(tail(&xs).1, 1.0);
        // Too few samples: fall back to the median.
        assert_eq!(tail(&[5.0, 1.0, 3.0]), (50.0, 3.0));
    }
}
