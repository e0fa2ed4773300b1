//! Order statistics over timing samples.

/// Median of `samples` (mean of the middle two for an even count); NaN
/// when empty.
pub fn median(samples: &[f64]) -> f64 {
    quantile(samples, 0.5)
}

/// Linearly interpolated quantile `q` in `[0, 1]`; NaN when empty.
pub fn quantile(samples: &[f64], q: f64) -> f64 {
    if samples.is_empty() {
        return f64::NAN;
    }
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

/// The percentiles a summary may report, highest first.
const TAILS: [f64; 5] = [99.9, 99.0, 95.0, 90.0, 75.0];

/// The highest percentile in [`TAILS`] with at least ten samples
/// beyond it, and its value.
pub fn tail(samples: &[f64]) -> Option<(f64, f64)> {
    let n = samples.len() as f64;
    TAILS
        .iter()
        .find(|&&p| n * (1.0 - p / 100.0) >= 10.0)
        .map(|&p| (p, quantile(samples, p / 100.0)))
}

/// One line describing a timing: median, tail percentile, sample count.
pub fn describe(samples: &[f64], unit: &str) -> String {
    let tail = match tail(samples) {
        Some((p, v)) => format!("p{p} {v:.4} {unit}"),
        None => "no percentile has 10 samples beyond it".to_string(),
    };
    format!(
        "median {:.4} {unit}, {tail}, n={}",
        median(samples),
        samples.len()
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_and_quantiles() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert!(median(&[]).is_nan());
        assert_eq!(quantile(&[0.0, 10.0], 0.25), 2.5);
    }

    #[test]
    fn tail_needs_ten_samples_beyond() {
        let few: Vec<f64> = (0..19).map(f64::from).collect();
        assert_eq!(tail(&few), None);
        let forty: Vec<f64> = (0..40).map(f64::from).collect();
        assert_eq!(tail(&forty).map(|t| t.0), Some(75.0));
        let thousand: Vec<f64> = (0..1000).map(f64::from).collect();
        assert_eq!(tail(&thousand).map(|t| t.0), Some(99.0));
    }
}
