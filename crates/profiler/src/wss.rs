//! Working-set-size prediction across input scales (§4.4, Figure 12).
//!
//! The paper profiles water_nsquared and ocean_cp at 1×/2×/4×/8× input
//! sizes, observes that per-window WSS grows *sub-linearly* ("in the
//! shape of a logarithmic curve" — a consequence of fixed-size sampling
//! windows covering a shrinking fraction of the data), fits
//! `WSS = a + b·ln(input)` on the first three scales, and validates the
//! prediction on the fourth (reported accuracies 80–95 %).
//!
//! [`wss_study`] reproduces the full pipeline on our traced mini-apps.

use crate::detect::{detect_periods, DetectorConfig};
use crate::window::{windowize, WindowConfig};
use rda_metrics::regress::{clamp_samples, log_fit, prediction_accuracy, Fit, FitError};
use rda_workloads::trace::TraceRecorder;

/// One progress period's WSS across the profiled input scales.
#[derive(Debug, Clone)]
pub struct WssSeries {
    /// Label, e.g. `"Wnsq PP1"`.
    pub label: String,
    /// `(input size, measured WSS bytes)` per scale, ascending input.
    pub measured: Vec<(f64, f64)>,
    /// The logarithmic fit over the *training* scales (all but last).
    pub fit: Option<Fit>,
    /// Why the fit failed, when it did (too few scales profiled, or
    /// degenerate measurements).
    pub fit_error: Option<FitError>,
    /// Predicted WSS at the held-out (largest) input.
    pub predicted_last: Option<f64>,
    /// Prediction accuracy at the held-out input (paper's metric).
    pub accuracy: Option<f64>,
}

impl WssSeries {
    /// Build a series from measurements: fit on all but the last point,
    /// predict and score the last.
    pub fn from_measurements(label: impl Into<String>, measured: Vec<(f64, f64)>) -> Self {
        let mut s = WssSeries {
            label: label.into(),
            measured,
            fit: None,
            fit_error: None,
            predicted_last: None,
            accuracy: None,
        };
        if s.measured.len() < 3 {
            // One training point (or none) underdetermines the model.
            s.fit_error = Some(match s.measured.len() {
                0 | 1 => FitError::Empty,
                _ => FitError::SinglePoint,
            });
            return s;
        }
        // Real traces can hand us zero-WSS windows; floor them rather
        // than poison the regression.
        let train = clamp_samples(&s.measured[..s.measured.len() - 1]);
        match log_fit(&train) {
            Ok(fit) => {
                let (x_last, y_last) = *s.measured.last().unwrap();
                let pred = fit.predict_log(x_last);
                s.predicted_last = Some(pred);
                s.accuracy = Some(prediction_accuracy(pred, y_last));
                s.fit = Some(fit);
            }
            Err(e) => s.fit_error = Some(e),
        }
        s
    }
}

/// Profile a traced application at several input scales and extract the
/// top-`k` progress periods' WSS per scale.
///
/// `run` executes the app at a given input size into the recorder.
/// Returns one series per period rank (PP1 = largest mean WSS).
pub fn wss_study(
    label_prefix: &str,
    inputs: &[usize],
    top_k: usize,
    window_cfg: &WindowConfig,
    mut run: impl FnMut(usize, &TraceRecorder),
) -> Vec<WssSeries> {
    let det = DetectorConfig::default();
    // measurements[rank] = per-input WSS.
    let mut measurements: Vec<Vec<(f64, f64)>> = vec![Vec::new(); top_k];
    for &input in inputs {
        let rec = TraceRecorder::new();
        run(input, &rec);
        let trace = rec.take();
        let windows = windowize(&trace, window_cfg);
        let mut periods = detect_periods(&windows, &det);
        // Rank by mean WSS, largest first — "the top two progress
        // periods are selected".
        periods.sort_by_key(|p| std::cmp::Reverse(p.mean_wss_bytes));
        for (rank, slot) in measurements.iter_mut().enumerate() {
            if let Some(p) = periods.get(rank) {
                slot.push((input as f64, p.mean_wss_bytes as f64));
            }
        }
    }
    measurements
        .into_iter()
        .enumerate()
        .map(|(rank, m)| WssSeries::from_measurements(format!("{label_prefix} PP{}", rank + 1), m))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn series_fits_and_scores_exact_log_data() {
        let pts: Vec<(f64, f64)> = [1000.0f64, 2000.0, 4000.0, 8000.0]
            .iter()
            .map(|&x| (x, 50_000.0 + 10_000.0 * x.ln()))
            .collect();
        let s = WssSeries::from_measurements("test", pts);
        let acc = s.accuracy.unwrap();
        assert!(acc > 0.999, "accuracy {acc}");
    }

    #[test]
    fn too_few_points_yield_a_typed_fit_error() {
        let s = WssSeries::from_measurements("test", vec![(1.0, 2.0), (2.0, 3.0)]);
        assert!(s.fit.is_none());
        assert!(s.accuracy.is_none());
        // Two measurements leave one training point.
        assert_eq!(s.fit_error, Some(FitError::SinglePoint));
        let s = WssSeries::from_measurements("test", vec![]);
        assert_eq!(s.fit_error, Some(FitError::Empty));
    }

    #[test]
    fn degenerate_measurements_surface_the_fit_error() {
        // Four scales that all collapsed to the same input size: the
        // regression cannot determine a slope, and says so.
        let s = WssSeries::from_measurements(
            "test",
            vec![(100.0, 1.0), (100.0, 2.0), (100.0, 3.0), (100.0, 4.0)],
        );
        assert!(s.fit.is_none());
        assert_eq!(s.fit_error, Some(FitError::ZeroVariance { n: 3 }));
    }

    #[test]
    fn wss_study_on_synthetic_app_recovers_growth() {
        // Synthetic "app": walks over `input` lines repeatedly; WSS per
        // window saturates at the window size, growing sub-linearly
        // with input — the Figure 12 phenomenon in miniature.
        let cfg = WindowConfig {
            window_ops: 2_000,
            wss_min_accesses: 2,
            line_bytes: 64,
        };
        let series = wss_study("Synth", &[100, 200, 400, 800], 1, &cfg, |input, rec| {
            for _rep in 0..40 {
                for i in 0..input {
                    rec.load(i as u64 * 64);
                    rec.load(i as u64 * 64 + 8);
                }
            }
        });
        assert_eq!(series.len(), 1);
        let s = &series[0];
        assert_eq!(s.measured.len(), 4, "one measurement per input");
        // WSS grows with input.
        assert!(s.measured.windows(2).all(|w| w[0].1 <= w[1].1));
        // And the log fit predicts the held-out point reasonably.
        let acc = s.accuracy.expect("fit must exist");
        assert!(acc > 0.5, "accuracy {acc}");
    }
}
