//! Fixed-size sampling windows (§2.4).
//!
//! *"An array is used to keep track of the number of times each unique
//! address is accessed. The array is reset to be empty at the beginning
//! of each sampling window. Its new size at the end of the window is
//! then calculated as the memory footprint of the window. The working
//! set size of the window is calculated as the number of entries in the
//! array that are accessed at least a pre-configured number of times,
//! and the average number of times each entry is accessed is calculated
//! as its reuse ratio."*
//!
//! We track addresses at cache-line granularity (64 B), which is what
//! the cache actually allocates, and report footprint/WSS in bytes.

use rda_workloads::{MemoryTrace, TraceRecord};
use std::collections::HashMap;

/// Windowing parameters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WindowConfig {
    /// Memory operations per window (the paper's window of `x`
    /// instructions; we count the traced memory instructions).
    pub window_ops: usize,
    /// Minimum accesses for a line to count toward the working set.
    pub wss_min_accesses: u32,
    /// Line granularity in bytes.
    pub line_bytes: u64,
}

impl Default for WindowConfig {
    fn default() -> Self {
        WindowConfig {
            window_ops: 10_000,
            wss_min_accesses: 2,
            line_bytes: 64,
        }
    }
}

/// Statistics of one sampling window.
#[derive(Debug, Clone, PartialEq)]
pub struct WindowStats {
    /// Index of the window within the trace.
    pub index: usize,
    /// Memory operations in the window.
    pub ops: usize,
    /// Footprint: bytes of distinct lines touched.
    pub footprint_bytes: u64,
    /// Working set: bytes of lines accessed ≥ the configured minimum.
    pub wss_bytes: u64,
    /// Mean accesses per distinct line.
    pub reuse_ratio: f64,
    /// Loop back-edge counts seen in this window, by loop id.
    pub loop_counts: HashMap<u32, u64>,
}

impl WindowStats {
    /// The loop id with the most back-edges in this window, if any.
    pub fn dominant_loop(&self) -> Option<u32> {
        self.loop_counts
            .iter()
            .max_by_key(|&(id, count)| (*count, std::cmp::Reverse(*id)))
            .map(|(&id, _)| id)
    }
}

/// Split a trace into fixed-size windows and compute per-window
/// statistics. The final partial window is emitted if it holds at least
/// half a window of operations (fragments shorter than that carry too
/// little signal).
pub fn windowize(trace: &MemoryTrace, cfg: &WindowConfig) -> Vec<WindowStats> {
    assert!(cfg.window_ops > 0, "window size must be positive");
    let mut out = Vec::new();
    let mut counts: HashMap<u64, u32> = HashMap::new();
    let mut loops: HashMap<u32, u64> = HashMap::new();
    let mut ops = 0usize;
    let mut index = 0usize;

    let flush = |counts: &mut HashMap<u64, u32>,
                 loops: &mut HashMap<u32, u64>,
                 ops: &mut usize,
                 index: &mut usize,
                 out: &mut Vec<WindowStats>| {
        let distinct = counts.len() as u64;
        let hot = counts
            .values()
            .filter(|&&c| c >= cfg.wss_min_accesses)
            .count() as u64;
        let total: u64 = counts.values().map(|&c| c as u64).sum();
        out.push(WindowStats {
            index: *index,
            ops: *ops,
            footprint_bytes: distinct * cfg.line_bytes,
            wss_bytes: hot * cfg.line_bytes,
            reuse_ratio: if distinct == 0 {
                0.0
            } else {
                total as f64 / distinct as f64
            },
            loop_counts: std::mem::take(loops),
        });
        counts.clear();
        *ops = 0;
        *index += 1;
    };

    for rec in trace.records() {
        match rec {
            TraceRecord::Load(a) | TraceRecord::Store(a) => {
                *counts.entry(a / cfg.line_bytes).or_insert(0) += 1;
                ops += 1;
                if ops == cfg.window_ops {
                    flush(&mut counts, &mut loops, &mut ops, &mut index, &mut out);
                }
            }
            TraceRecord::LoopBranch(id) => {
                *loops.entry(*id).or_insert(0) += 1;
            }
        }
    }
    if ops >= cfg.window_ops / 2 && ops > 0 {
        flush(&mut counts, &mut loops, &mut ops, &mut index, &mut out);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use rda_workloads::trace::TraceRecorder;

    fn cfg(window_ops: usize) -> WindowConfig {
        WindowConfig {
            window_ops,
            wss_min_accesses: 2,
            line_bytes: 64,
        }
    }

    #[test]
    fn footprint_counts_distinct_lines() {
        let rec = TraceRecorder::new();
        // 4 accesses to 2 lines (0 and 64..127).
        rec.load(0);
        rec.load(8);
        rec.load(64);
        rec.load(70);
        let w = windowize(&rec.take(), &cfg(4));
        assert_eq!(w.len(), 1);
        assert_eq!(w[0].footprint_bytes, 2 * 64);
        assert_eq!(w[0].reuse_ratio, 2.0);
        // Both lines hit twice → both in the WSS.
        assert_eq!(w[0].wss_bytes, 2 * 64);
    }

    #[test]
    fn wss_excludes_cold_lines() {
        let rec = TraceRecorder::new();
        rec.load(0);
        rec.load(0);
        rec.load(0);
        rec.load(640); // touched once: footprint yes, WSS no
        let w = windowize(&rec.take(), &cfg(4));
        assert_eq!(w[0].footprint_bytes, 128);
        assert_eq!(w[0].wss_bytes, 64);
    }

    #[test]
    fn windows_split_at_fixed_op_counts() {
        let rec = TraceRecorder::new();
        for i in 0..25u64 {
            rec.load(i * 64);
        }
        let w = windowize(&rec.take(), &cfg(10));
        // 10 + 10 + 5 (final fragment ≥ half window).
        assert_eq!(w.len(), 3);
        assert_eq!(w[0].ops, 10);
        assert_eq!(w[2].ops, 5);
        assert_eq!(w[2].index, 2);
    }

    #[test]
    fn tiny_final_fragment_is_dropped() {
        let rec = TraceRecorder::new();
        for i in 0..12u64 {
            rec.load(i * 64);
        }
        let w = windowize(&rec.take(), &cfg(10));
        assert_eq!(w.len(), 1, "2-op fragment below half window dropped");
    }

    #[test]
    fn counts_reset_between_windows() {
        let rec = TraceRecorder::new();
        // Window 1: line 0 twice. Window 2: line 0 once + line 64 once.
        rec.load(0);
        rec.load(0);
        rec.load(0);
        rec.load(64);
        let w = windowize(&rec.take(), &cfg(2));
        assert_eq!(w.len(), 2);
        assert_eq!(w[0].wss_bytes, 64);
        assert_eq!(w[1].wss_bytes, 0, "accesses must not carry across windows");
    }

    #[test]
    fn loop_branches_attach_to_their_window() {
        let rec = TraceRecorder::new();
        rec.load(0);
        rec.loop_branch(3);
        rec.loop_branch(3);
        rec.load(64);
        // window boundary
        rec.load(128);
        rec.loop_branch(5);
        rec.load(192);
        let w = windowize(&rec.take(), &cfg(2));
        assert_eq!(w.len(), 2);
        assert_eq!(w[0].dominant_loop(), Some(3));
        assert_eq!(w[1].dominant_loop(), Some(5));
        assert_eq!(w[0].loop_counts[&3], 2);
    }

    #[test]
    fn empty_trace_yields_no_windows() {
        let rec = TraceRecorder::new();
        assert!(windowize(&rec.take(), &cfg(10)).is_empty());
    }

    #[test]
    fn dominant_loop_breaks_ties_deterministically() {
        let rec = TraceRecorder::new();
        rec.loop_branch(9);
        rec.loop_branch(2);
        rec.load(0);
        rec.load(64);
        let w = windowize(&rec.take(), &cfg(2));
        // Equal counts → smallest id wins (deterministic).
        assert_eq!(w[0].dominant_loop(), Some(2));
    }
}
