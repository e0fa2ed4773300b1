//! The Figure 12 experiment: WSS growth and prediction.
//!
//! The paper profiles water_nsquared at 8 000–64 000 molecules and
//! ocean_cp at 514–4 098 cells. Our profiler records *every* memory
//! access exactly (PIN samples), so the input ladder is scaled down to
//! keep full-fidelity traces tractable; the studied property — WSS per
//! fixed-size window grows sub-linearly and is predicted by a
//! logarithmic regression trained on the first three scales — is
//! scale-invariant (it derives from the fixed window covering a
//! shrinking fraction of the data).

use rda_profiler::window::WindowConfig;
use rda_profiler::wss::{wss_study, WssSeries};
use rda_workloads::splash::{ocean, water};

/// Input ladder for water_nsquared (molecules), 1×/2×/4×/8×.
pub const WATER_INPUTS: [usize; 4] = [150, 300, 600, 1200];
/// Input ladder for ocean (grid edge), 1×/2×/4×/8×.
pub const OCEAN_INPUTS: [usize; 4] = [66, 130, 258, 514];

/// Profile water_nsquared across the ladder; returns the top-2 periods'
/// series ("Wnsq PP1", "Wnsq PP2").
pub fn water_series() -> Vec<WssSeries> {
    let cfg = WindowConfig {
        window_ops: 5_000,
        wss_min_accesses: 2,
        line_bytes: 64,
    };
    wss_study("Wnsq", &WATER_INPUTS, 2, &cfg, |molecules, rec| {
        water::run_nsquared_traced(molecules, 0.4, rec);
    })
}

/// Profile ocean across the ladder; returns the top-2 periods' series
/// ("Ocp PP1", "Ocp PP2").
pub fn ocean_series() -> Vec<WssSeries> {
    let cfg = WindowConfig {
        window_ops: 5_000,
        wss_min_accesses: 2,
        line_bytes: 64,
    };
    wss_study("Ocp", &OCEAN_INPUTS, 2, &cfg, |n, rec| {
        ocean::run_traced(n, 1.5, rec);
    })
}

/// Encode one WSS series as JSON for the results bundle.
pub fn wss_series_json(s: &WssSeries) -> rda_metrics::Json {
    use rda_metrics::Json;
    let opt_num = |v: Option<f64>| v.map(Json::Num).unwrap_or(Json::Null);
    Json::obj([
        ("label", Json::Str(s.label.clone())),
        (
            "measured",
            Json::Arr(
                s.measured
                    .iter()
                    .map(|&(x, y)| Json::Arr(vec![Json::Num(x), Json::Num(y)]))
                    .collect(),
            ),
        ),
        (
            "fit",
            match &s.fit {
                Some(fit) => Json::obj([
                    ("intercept", Json::Num(fit.intercept)),
                    ("slope", Json::Num(fit.slope)),
                    ("r_squared", Json::Num(fit.r_squared)),
                ]),
                None => Json::Null,
            },
        ),
        ("predicted_last", opt_num(s.predicted_last)),
        ("accuracy", opt_num(s.accuracy)),
    ])
}

/// Render one series as a report block.
pub fn render_series(s: &WssSeries) -> String {
    let mut out = format!("{}\n", s.label);
    for &(x, y) in &s.measured {
        out.push_str(&format!("  input {:>6}  WSS {:>10.0} B\n", x, y));
    }
    match (&s.fit, s.predicted_last, s.accuracy) {
        (Some(fit), Some(pred), Some(acc)) => {
            out.push_str(&format!(
                "  log fit: WSS = {:.0} + {:.0}·ln(input)  (R² {:.3})\n",
                fit.intercept, fit.slope, fit.r_squared
            ));
            out.push_str(&format!(
                "  held-out prediction: {:.0} B → accuracy {:.1} %\n",
                pred,
                acc * 100.0
            ));
        }
        _ => out.push_str("  (not enough detected periods for a fit)\n"),
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn water_wss_grows_sublinearly_and_predicts() {
        let series = water_series();
        assert!(!series.is_empty());
        let pp1 = &series[0];
        assert_eq!(pp1.measured.len(), 4, "one point per input scale");
        // Monotone growth.
        assert!(
            pp1.measured.windows(2).all(|w| w[1].1 >= w[0].1),
            "{:?}",
            pp1.measured
        );
        // Sub-linear: 8× input gives < 8× WSS.
        let first = pp1.measured[0].1;
        let last = pp1.measured[3].1;
        assert!(last < 8.0 * first, "not sublinear: {first} → {last}");
        // The paper reports 80–95 % accuracy; require a sane floor.
        let acc = pp1.accuracy.expect("fit must exist");
        assert!(acc > 0.6, "accuracy {acc}");
    }

    #[test]
    fn ocean_wss_predicts_reasonably() {
        let series = ocean_series();
        let pp1 = &series[0];
        assert_eq!(pp1.measured.len(), 4);
        let acc = pp1.accuracy.expect("fit must exist");
        assert!(acc > 0.6, "accuracy {acc}");
    }
}
