//! From detected periods to `pp_begin`-ready annotations.
//!
//! The last profiler step (§2.4): *"The resource demands for each
//! progress period are set by averaging the metrics from all windows
//! that make up the progress period"*, the reuse ratio is bucketed into
//! the three API levels, and the period is anchored at the outermost
//! enclosing loop.

use crate::detect::DetectedPeriod;
use crate::loopmap::LoopNest;
use rda_core::{PpDemand, SiteId};
use rda_machine::ReuseLevel;

/// A ready-to-insert progress-period annotation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PpAnnotation {
    /// The static site (outermost enclosing loop) to bracket.
    pub site: SiteId,
    /// Declared working-set size, bytes.
    pub ws_bytes: u64,
    /// Declared reuse level.
    pub reuse: ReuseLevel,
    /// Span of the period in the profiled run, in windows.
    pub windows: (usize, usize),
}

impl PpAnnotation {
    /// The demand this annotation declares at `pp_begin`.
    pub fn demand(&self) -> PpDemand {
        PpDemand::llc(self.ws_bytes, self.reuse)
    }
}

/// Convert detected periods into annotations, mapping each period's
/// dominant loop to its outermost enclosing loop. Periods whose
/// dominant loop is unknown to the nest (or that sampled no loops at
/// all) are dropped — the paper requires a static code anchor to place
/// the API calls.
pub fn annotate(periods: &[DetectedPeriod], nest: &LoopNest) -> Vec<PpAnnotation> {
    periods
        .iter()
        .filter_map(|p| {
            let site = nest.outermost(p.dominant_loop?)?;
            Some(PpAnnotation {
                site: SiteId(site),
                ws_bytes: p.mean_wss_bytes,
                reuse: ReuseLevel::from_reuse_ratio(p.mean_reuse_ratio),
                windows: (p.start_window, p.end_window),
            })
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::loopmap::dgemm_loop_nest;

    fn period(loop_id: Option<u32>, wss: u64, reuse: f64) -> DetectedPeriod {
        DetectedPeriod {
            start_window: 0,
            end_window: 5,
            mean_wss_bytes: wss,
            mean_footprint_bytes: wss * 2,
            mean_reuse_ratio: reuse,
            dominant_loop: loop_id,
        }
    }

    #[test]
    fn inner_loop_period_is_anchored_at_outermost() {
        let nest = dgemm_loop_nest();
        let anns = annotate(&[period(Some(2), 1 << 20, 50.0)], &nest);
        assert_eq!(anns.len(), 1);
        assert_eq!(anns[0].site, SiteId(0), "anchored at the i-loop");
        assert_eq!(anns[0].reuse, ReuseLevel::High);
        assert_eq!(anns[0].demand().amount, 1 << 20);
    }

    #[test]
    fn reuse_buckets_follow_ratio() {
        let nest = dgemm_loop_nest();
        let anns = annotate(
            &[
                period(Some(0), 100, 1.5),
                period(Some(0), 100, 8.0),
                period(Some(0), 100, 100.0),
            ],
            &nest,
        );
        assert_eq!(anns[0].reuse, ReuseLevel::Low);
        assert_eq!(anns[1].reuse, ReuseLevel::Medium);
        assert_eq!(anns[2].reuse, ReuseLevel::High);
    }

    #[test]
    fn periods_without_loop_anchor_are_dropped() {
        let nest = dgemm_loop_nest();
        let anns = annotate(&[period(None, 100, 5.0), period(Some(77), 100, 5.0)], &nest);
        assert!(anns.is_empty());
    }
}
