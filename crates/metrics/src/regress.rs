//! Least-squares regression.
//!
//! Section 4.4 of the paper predicts a progress period's working-set size
//! as a function of the application input size by running a *logarithmic
//! regression* (`y = a + b·ln(x)`) over the first three input scales and
//! checking prediction accuracy on the fourth. [`log_fit`] implements
//! exactly that; [`linear_fit`] is the underlying least-squares solver,
//! also exposed for the harness's sanity checks.
//!
//! A fit that cannot be computed returns a typed [`FitError`] carrying
//! the failing sample-set size, so callers can distinguish "not enough
//! scales profiled yet" from "degenerate measurements" and report the
//! right thing — the old `Option` return collapsed every failure into
//! one indistinguishable `None`.

use std::fmt;

/// A fitted model `y = intercept + slope * f(x)`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Fit {
    /// Constant term `a`.
    pub intercept: f64,
    /// Coefficient `b`.
    pub slope: f64,
    /// Coefficient of determination on the training points.
    pub r_squared: f64,
}

/// Why a regression could not be fitted.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FitError {
    /// No sample points at all.
    Empty,
    /// A single point underdetermines the two-parameter model.
    SinglePoint,
    /// All (transformed) `x` coincide, so the slope is undefined;
    /// carries the sample-set size.
    ZeroVariance {
        /// Number of points in the failing sample set.
        n: usize,
    },
    /// A logarithmic fit was given a non-positive `x`; carries the
    /// sample-set size.
    NonPositiveX {
        /// Number of points in the failing sample set.
        n: usize,
    },
}

impl FitError {
    /// Size of the sample set the fit was attempted on.
    pub fn sample_count(self) -> usize {
        match self {
            FitError::Empty => 0,
            FitError::SinglePoint => 1,
            FitError::ZeroVariance { n } | FitError::NonPositiveX { n } => n,
        }
    }
}

impl fmt::Display for FitError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            FitError::Empty => f.write_str("no sample points"),
            FitError::SinglePoint => f.write_str("a single point underdetermines the fit"),
            FitError::ZeroVariance { n } => {
                write!(f, "all {n} points share one x — slope undefined")
            }
            FitError::NonPositiveX { n } => {
                write!(f, "non-positive x among {n} points — log undefined")
            }
        }
    }
}

impl std::error::Error for FitError {}

/// Ordinary least squares on raw `(x, y)` points.
///
/// Fails with fewer than two points or when all `x` coincide.
pub fn linear_fit(points: &[(f64, f64)]) -> Result<Fit, FitError> {
    fit_transformed(points, |x| x)
}

/// Logarithmic regression `y = a + b·ln(x)` on `(x, y)` points.
///
/// Fails with fewer than two points, non-positive `x`, or when all
/// `ln(x)` coincide. Callers with unvetted measurements (zero-WSS
/// windows, unscaled inputs) should sanitise with
/// [`clamp_samples`] first.
pub fn log_fit(points: &[(f64, f64)]) -> Result<Fit, FitError> {
    if points.iter().any(|&(x, _)| x <= 0.0) {
        return Err(FitError::NonPositiveX { n: points.len() });
    }
    fit_transformed(points, |x| x.ln())
}

/// Sanitise raw measurement samples before fitting: drop points with a
/// non-finite coordinate, and clamp negative `y` (a measured size or
/// count can never be below zero) to exactly `0.0`. `x` is left alone —
/// a non-positive `x` is a *caller* bug the fit should surface, not
/// silently repair.
pub fn clamp_samples(points: &[(f64, f64)]) -> Vec<(f64, f64)> {
    points
        .iter()
        .filter(|&&(x, y)| x.is_finite() && y.is_finite())
        .map(|&(x, y)| (x, y.max(0.0)))
        .collect()
}

fn fit_transformed(points: &[(f64, f64)], f: impl Fn(f64) -> f64) -> Result<Fit, FitError> {
    let n = points.len();
    match n {
        0 => return Err(FitError::Empty),
        1 => return Err(FitError::SinglePoint),
        _ => {}
    }
    let nf = n as f64;
    let sx: f64 = points.iter().map(|&(x, _)| f(x)).sum();
    let sy: f64 = points.iter().map(|&(_, y)| y).sum();
    let mx = sx / nf;
    let my = sy / nf;
    let sxx: f64 = points.iter().map(|&(x, _)| (f(x) - mx).powi(2)).sum();
    if sxx == 0.0 {
        return Err(FitError::ZeroVariance { n });
    }
    let sxy: f64 = points
        .iter()
        .map(|&(x, y)| (f(x) - mx) * (y - my))
        .sum();
    let slope = sxy / sxx;
    let intercept = my - slope * mx;

    let ss_res: f64 = points
        .iter()
        .map(|&(x, y)| (y - (intercept + slope * f(x))).powi(2))
        .sum();
    let ss_tot: f64 = points.iter().map(|&(_, y)| (y - my).powi(2)).sum();
    let r_squared = if ss_tot == 0.0 { 1.0 } else { 1.0 - ss_res / ss_tot };

    Ok(Fit {
        intercept,
        slope,
        r_squared,
    })
}

impl Fit {
    /// Predict `y` for a raw `x` under a *logarithmic* fit
    /// (`y = a + b·ln(x)`).
    pub fn predict_log(&self, x: f64) -> f64 {
        assert!(x > 0.0, "log model undefined for x <= 0");
        self.intercept + self.slope * x.ln()
    }
}

/// Prediction accuracy as the paper reports it: `1 - |pred - actual| /
/// actual`, clamped to `[0, 1]`. An accuracy of 0.92 means the estimate
/// was within 8 % of the measured value.
pub fn prediction_accuracy(predicted: f64, actual: f64) -> f64 {
    if actual == 0.0 {
        return if predicted == 0.0 { 1.0 } else { 0.0 };
    }
    (1.0 - ((predicted - actual) / actual).abs()).clamp(0.0, 1.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn linear_fit_recovers_exact_line() {
        let pts: Vec<(f64, f64)> = (1..=5).map(|i| (i as f64, 3.0 + 2.0 * i as f64)).collect();
        let fit = linear_fit(&pts).unwrap();
        assert!((fit.slope - 2.0).abs() < 1e-10);
        assert!((fit.intercept - 3.0).abs() < 1e-10);
        assert!((fit.r_squared - 1.0).abs() < 1e-10);
    }

    #[test]
    fn log_fit_recovers_exact_log_curve() {
        let pts: Vec<(f64, f64)> = [1.0f64, 2.0, 4.0, 8.0]
            .iter()
            .map(|&x| (x, 5.0 + 1.5 * x.ln()))
            .collect();
        let fit = log_fit(&pts).unwrap();
        assert!((fit.slope - 1.5).abs() < 1e-10);
        assert!((fit.intercept - 5.0).abs() < 1e-10);
        assert!((fit.predict_log(16.0) - (5.0 + 1.5 * 16f64.ln())).abs() < 1e-9);
    }

    #[test]
    fn degenerate_inputs_return_typed_errors() {
        // n = 0 and n = 1 are distinguishable from each other and from
        // degenerate-but-populated sample sets.
        assert_eq!(linear_fit(&[]), Err(FitError::Empty));
        assert_eq!(linear_fit(&[(1.0, 1.0)]), Err(FitError::SinglePoint));
        assert_eq!(
            linear_fit(&[(2.0, 1.0), (2.0, 5.0)]),
            Err(FitError::ZeroVariance { n: 2 })
        );
        assert_eq!(
            log_fit(&[(0.0, 1.0), (1.0, 2.0)]),
            Err(FitError::NonPositiveX { n: 2 })
        );
        assert_eq!(
            log_fit(&[(-1.0, 1.0), (1.0, 2.0)]),
            Err(FitError::NonPositiveX { n: 2 })
        );
        // Every error reports the sample-set size it failed on.
        assert_eq!(FitError::Empty.sample_count(), 0);
        assert_eq!(FitError::SinglePoint.sample_count(), 1);
        assert_eq!(FitError::ZeroVariance { n: 3 }.sample_count(), 3);
        assert_eq!(FitError::NonPositiveX { n: 4 }.sample_count(), 4);
    }

    #[test]
    fn fit_errors_display_their_cause() {
        assert_eq!(FitError::Empty.to_string(), "no sample points");
        assert!(FitError::ZeroVariance { n: 2 }.to_string().contains("2"));
        assert!(FitError::NonPositiveX { n: 5 }.to_string().contains("log"));
    }

    #[test]
    fn zero_wss_samples_fit_without_error() {
        // A period that never touched memory measures WSS = 0 at every
        // scale. The fit must not fail (or divide by zero): a constant
        // zero line has slope 0, intercept 0, and a perfect R² by the
        // ss_tot = 0 convention.
        let pts = [(1000.0, 0.0), (2000.0, 0.0), (4000.0, 0.0)];
        let fit = log_fit(&pts).unwrap();
        assert_eq!(fit.slope, 0.0);
        assert_eq!(fit.intercept, 0.0);
        assert_eq!(fit.r_squared, 1.0);
        assert_eq!(fit.predict_log(8000.0), 0.0);
    }

    #[test]
    fn clamp_samples_drops_nonfinite_and_floors_negative_y() {
        let raw = [
            (1.0, -0.5),
            (2.0, f64::NAN),
            (f64::INFINITY, 3.0),
            (4.0, 7.0),
        ];
        let clean = clamp_samples(&raw);
        assert_eq!(clean, vec![(1.0, 0.0), (4.0, 7.0)]);
        // Clamping never repairs a bad x: the typed error still fires.
        assert_eq!(
            log_fit(&clamp_samples(&[(0.0, 1.0), (1.0, 2.0)])),
            Err(FitError::NonPositiveX { n: 2 })
        );
    }

    #[test]
    fn r_squared_penalises_noise() {
        let clean: Vec<(f64, f64)> = (1..=10).map(|i| (i as f64, i as f64)).collect();
        let noisy: Vec<(f64, f64)> = (1..=10)
            .map(|i| (i as f64, i as f64 + if i % 2 == 0 { 3.0 } else { -3.0 }))
            .collect();
        let r_clean = linear_fit(&clean).unwrap().r_squared;
        let r_noisy = linear_fit(&noisy).unwrap().r_squared;
        assert!(r_clean > r_noisy);
    }

    #[test]
    fn accuracy_metric_matches_paper_convention() {
        assert!((prediction_accuracy(92.0, 100.0) - 0.92).abs() < 1e-12);
        assert!((prediction_accuracy(108.0, 100.0) - 0.92).abs() < 1e-12);
        assert_eq!(prediction_accuracy(300.0, 100.0), 0.0); // clamped
        assert_eq!(prediction_accuracy(0.0, 0.0), 1.0);
        assert_eq!(prediction_accuracy(1.0, 0.0), 0.0);
    }

    #[test]
    #[should_panic(expected = "undefined")]
    fn predict_log_rejects_nonpositive() {
        let fit = Fit {
            intercept: 0.0,
            slope: 1.0,
            r_squared: 1.0,
        };
        fit.predict_log(0.0);
    }
}
