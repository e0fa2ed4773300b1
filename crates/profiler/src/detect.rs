//! Progress-period detection (§2.4).
//!
//! The paper's algorithm, verbatim in structure: decompose the run into
//! consecutive windows `p0, p1, …, pn`; for each candidate start, check
//! whether the next `y/x` windows are *sufficiently similar*; if so the
//! repetition is extended window-by-window until a window with
//! significantly different behaviour is reached, and the span is
//! reported as a progress period. Scanning resumes after the detected
//! period (or one window later on failure).

use crate::window::WindowStats;

/// Detector parameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DetectorConfig {
    /// Minimum consecutive similar windows to open a period (the
    /// paper's `y/x`).
    pub min_windows: usize,
    /// Relative tolerance for "sufficiently similar" statistics.
    pub tolerance: f64,
}

impl Default for DetectorConfig {
    fn default() -> Self {
        DetectorConfig {
            min_windows: 3,
            tolerance: 0.35,
        }
    }
}

/// A detected progress period: a span of similar windows.
#[derive(Debug, Clone, PartialEq)]
pub struct DetectedPeriod {
    /// First window index (inclusive).
    pub start_window: usize,
    /// Last window index (inclusive).
    pub end_window: usize,
    /// Mean working-set size over the span, bytes.
    pub mean_wss_bytes: u64,
    /// Mean footprint over the span, bytes.
    pub mean_footprint_bytes: u64,
    /// Mean reuse ratio over the span.
    pub mean_reuse_ratio: f64,
    /// The most frequent loop id across the span, if any loop back-edge
    /// was sampled (input to the loop mapper).
    pub dominant_loop: Option<u32>,
}

impl DetectedPeriod {
    /// Number of windows the period covers.
    pub fn len_windows(&self) -> usize {
        self.end_window - self.start_window + 1
    }
}

fn similar(a: &WindowStats, b: &WindowStats, tol: f64) -> bool {
    let rel = |x: f64, y: f64| {
        let m = x.abs().max(y.abs());
        if m == 0.0 {
            0.0
        } else {
            (x - y).abs() / m
        }
    };
    rel(a.wss_bytes as f64, b.wss_bytes as f64) <= tol && rel(a.reuse_ratio, b.reuse_ratio) <= tol
}

/// Run the detector over a window sequence.
pub fn detect_periods(windows: &[WindowStats], cfg: &DetectorConfig) -> Vec<DetectedPeriod> {
    assert!(
        cfg.min_windows >= 2,
        "a repetition needs at least 2 windows"
    );
    let mut out = Vec::new();
    let mut i = 0;
    while i + cfg.min_windows <= windows.len() {
        // Are the next min_windows windows mutually similar to the
        // first one?
        let anchor = &windows[i];
        let opened = windows[i + 1..i + cfg.min_windows]
            .iter()
            .all(|w| similar(anchor, w, cfg.tolerance));
        if !opened {
            i += 1;
            continue;
        }
        // Extend until behaviour changes.
        let mut end = i + cfg.min_windows - 1;
        while end + 1 < windows.len() && similar(anchor, &windows[end + 1], cfg.tolerance) {
            end += 1;
        }
        out.push(summarise(&windows[i..=end]));
        i = end + 1;
    }
    out
}

fn summarise(span: &[WindowStats]) -> DetectedPeriod {
    let n = span.len() as f64;
    let mean_wss = span.iter().map(|w| w.wss_bytes).sum::<u64>() as f64 / n;
    let mean_fp = span.iter().map(|w| w.footprint_bytes).sum::<u64>() as f64 / n;
    let mean_reuse = span.iter().map(|w| w.reuse_ratio).sum::<f64>() / n;
    // Majority vote over the windows' dominant loops — robust against
    // loops with dense back-edges (an inner k-loop fires n× more
    // branches than the phase loop that actually characterises the
    // period).
    let mut votes: std::collections::HashMap<u32, u64> = std::collections::HashMap::new();
    for w in span {
        if let Some(id) = w.dominant_loop() {
            *votes.entry(id).or_insert(0) += 1;
        }
    }
    let dominant_loop = votes
        .iter()
        .max_by_key(|&(id, c)| (*c, std::cmp::Reverse(*id)))
        .map(|(&id, _)| id);
    DetectedPeriod {
        start_window: span[0].index,
        end_window: span[span.len() - 1].index,
        mean_wss_bytes: mean_wss.round() as u64,
        mean_footprint_bytes: mean_fp.round() as u64,
        mean_reuse_ratio: mean_reuse,
        dominant_loop,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashMap;

    fn win(index: usize, wss_kb: u64, reuse: f64, loop_id: Option<u32>) -> WindowStats {
        let mut loop_counts = HashMap::new();
        if let Some(id) = loop_id {
            loop_counts.insert(id, 10);
        }
        WindowStats {
            index,
            ops: 1000,
            footprint_bytes: wss_kb * 1024 * 2,
            wss_bytes: wss_kb * 1024,
            reuse_ratio: reuse,
            loop_counts,
        }
    }

    fn cfg() -> DetectorConfig {
        DetectorConfig {
            min_windows: 3,
            tolerance: 0.2,
        }
    }

    #[test]
    fn uniform_run_is_one_period() {
        let ws: Vec<WindowStats> = (0..10).map(|i| win(i, 100, 8.0, Some(1))).collect();
        let periods = detect_periods(&ws, &cfg());
        assert_eq!(periods.len(), 1);
        let p = &periods[0];
        assert_eq!(p.start_window, 0);
        assert_eq!(p.end_window, 9);
        assert_eq!(p.mean_wss_bytes, 100 * 1024);
        assert_eq!(p.dominant_loop, Some(1));
        assert_eq!(p.len_windows(), 10);
    }

    #[test]
    fn two_phases_are_split() {
        let mut ws: Vec<WindowStats> = (0..6).map(|i| win(i, 100, 8.0, Some(1))).collect();
        ws.extend((6..12).map(|i| win(i, 400, 30.0, Some(2))));
        let periods = detect_periods(&ws, &cfg());
        assert_eq!(periods.len(), 2);
        assert_eq!(periods[0].end_window, 5);
        assert_eq!(periods[1].start_window, 6);
        assert_eq!(periods[1].dominant_loop, Some(2));
    }

    #[test]
    fn jitter_within_tolerance_stays_one_period() {
        let ws: Vec<WindowStats> = (0..8)
            .map(|i| {
                win(
                    i,
                    100 + (i as u64 % 2) * 10,
                    8.0 + (i % 2) as f64 * 0.5,
                    Some(1),
                )
            })
            .collect();
        let periods = detect_periods(&ws, &cfg());
        assert_eq!(periods.len(), 1);
    }

    #[test]
    fn short_noise_is_not_a_period() {
        // Alternating behaviour: no min_windows consecutive similar run
        // relative to the anchor.
        let ws: Vec<WindowStats> = (0..8)
            .map(|i| {
                if i % 2 == 0 {
                    win(i, 100, 8.0, None)
                } else {
                    win(i, 500, 40.0, None)
                }
            })
            .collect();
        let periods = detect_periods(&ws, &cfg());
        assert!(periods.is_empty(), "found {periods:?}");
    }

    #[test]
    fn period_shorter_than_min_windows_is_ignored() {
        let mut ws: Vec<WindowStats> = (0..2).map(|i| win(i, 100, 8.0, None)).collect();
        ws.extend((2..8).map(|i| win(i, 400, 30.0, None)));
        let periods = detect_periods(&ws, &cfg());
        // Only the long tail qualifies.
        assert_eq!(periods.len(), 1);
        assert_eq!(periods[0].start_window, 2);
    }

    #[test]
    fn scanning_resumes_after_detected_period() {
        // phase A (4) | phase B (4) | phase A (4): three periods, no
        // overlap.
        let mut ws: Vec<WindowStats> = (0..4).map(|i| win(i, 100, 8.0, Some(1))).collect();
        ws.extend((4..8).map(|i| win(i, 400, 30.0, Some(2))));
        ws.extend((8..12).map(|i| win(i, 100, 8.0, Some(1))));
        let periods = detect_periods(&ws, &cfg());
        assert_eq!(periods.len(), 3);
        assert!(periods
            .windows(2)
            .all(|p| p[0].end_window < p[1].start_window));
    }

    #[test]
    fn empty_and_tiny_inputs() {
        assert!(detect_periods(&[], &cfg()).is_empty());
        let ws = vec![win(0, 100, 8.0, None), win(1, 100, 8.0, None)];
        assert!(detect_periods(&ws, &cfg()).is_empty(), "below min_windows");
    }
}
