//! The benchmark's metric names, units, and the end-to-end effect each
//! per-layer metric is predicted to have.
//!
//! `BENCHMARK.json` at the repository root lists the same names; the
//! tests below keep the two in step.

use crate::cells::{policy_label, Workload};
use crate::kernels::CFS_CALLS;
use crate::replay::{RDA_CALLS, TOPO_CALLS};
use rda_sim::experiment::paper_policies;
use rda_workloads::spec::all_workloads;

/// `(name, unit)` of every end-to-end metric. Every workload reports
/// all of them.
pub const END_TO_END: [(&str, &str); 8] = [
    ("setup_s", "s"),
    ("ms_per_cell", "ms"),
    ("slowest_cell_ms", "ms"),
    ("traced_ms_per_cell", "ms"),
    ("lifecycles_per_s", "1/s"),
    ("allocs_per_cell", "count"),
    ("alloc_mb_per_cell", "MB"),
    ("peak_heap_mb", "MB"),
];

/// Scalar-engine calls the grid makes (it never ages or retries).
pub const GRID_RDA_CALLS: [&str; 4] = ["pp_begin", "pp_end", "process_exit", "check_invariants"];

/// `(name, unit)` of every per-layer metric, in report order.
pub fn per_layer() -> Vec<(String, &'static str)> {
    let mut m: Vec<(String, &'static str)> = Vec::new();
    let mut push = |name: String, unit: &'static str| m.push((name, unit));
    for (w, calls) in [
        ("paper_grid", &GRID_RDA_CALLS[..]),
        ("overload_scalar", &RDA_CALLS[..]),
    ] {
        for call in calls {
            push(format!("extension.{w}.{call}.calls"), "count");
            push(format!("extension.{w}.{call}.ns_per_call"), "ns");
        }
        push(format!("extension.{w}.busy_ms_per_cell"), "ms");
        push(format!("extension.{w}.allocs_per_call"), "count");
        push(format!("extension.{w}.begins"), "count");
        push(format!("extension.{w}.fast_hit_ratio"), "ratio");
        push(format!("extension.{w}.pause_ratio"), "ratio");
        push(format!("extension.{w}.paused"), "count");
    }
    push("extension.overload_scalar.shed_ratio".into(), "ratio");
    push("extension.overload_scalar.expired_ratio".into(), "ratio");
    for call in TOPO_CALLS {
        push(format!("topo.layers_topo.{call}.calls"), "count");
        push(format!("topo.layers_topo.{call}.ns_per_call"), "ns");
    }
    push("topo.layers_topo.busy_ms_per_cell".into(), "ms");
    push("topo.layers_topo.allocs_per_call".into(), "count");
    push("topo.layers_topo.begins".into(), "count");
    push("topo.layers_topo.shed_ratio".into(), "ratio");
    push("trace.paper_grid.sink_ns_per_call".into(), "ns");
    push("trace.paper_grid.events_per_cell".into(), "count");
    push("trace.paper_grid.dropped_per_cell".into(), "count");
    push("trace.paper_grid.export_ms".into(), "ms");
    push("trace.layers_topo.sink_ns_per_call".into(), "ns");
    push("perf.solve_corun.ns_per_call".into(), "ns");
    push("perf.solve_corun.allocs_per_call".into(), "count");
    push("perf.llc_share.ns_per_call".into(), "ns");
    push("perf.switch_warmup_cycles.ns_per_call".into(), "ns");
    for call in CFS_CALLS {
        push(format!("cfs.{call}.ns_per_call"), "ns");
    }
    push("cfs.allocs_per_call".into(), "count");
    push("system.new_ms".into(), "ms");
    for label in grid_labels() {
        push(format!("system.run_ms.{label}"), "ms");
    }
    for w in ["overload_scalar", "layers_topo"] {
        push(format!("traffic.{w}.plan_ms"), "ms");
        push(format!("traffic.{w}.run_ms"), "ms");
        push(format!("traffic.{w}.self_ms"), "ms");
    }
    push("share.paper_grid.extension".into(), "ratio");
    push("share.paper_grid.system_self".into(), "ratio");
    push("share.overload_scalar.extension".into(), "ratio");
    push("share.overload_scalar.traffic_self".into(), "ratio");
    push("share.layers_topo.topo".into(), "ratio");
    push("share.layers_topo.traffic_self".into(), "ratio");
    for w in Workload::ALL {
        push(format!("bench.{}.span_overhead_pct", w.name()), "%");
    }
    m
}

/// `Workload.Policy` label of every grid cell, in grid order.
pub fn grid_labels() -> Vec<String> {
    let mut out = Vec::new();
    for spec in all_workloads() {
        for p in paper_policies() {
            out.push(format!("{}.{}", spec.name, policy_label(p)));
        }
    }
    out
}

/// What a change to a layer is predicted to do to one end-to-end
/// metric on one workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Effect {
    /// The metric should move with the layer metric.
    Moves,
    /// The metric should stay within its bound.
    NoChange,
}

/// `(end-to-end metric, workload, effect)` predictions for a per-layer
/// metric, decided by its layer and workload prefix.
pub fn prediction(metric: &str) -> Vec<(&'static str, &'static str, Effect)> {
    use Effect::{Moves, NoChange};
    let mut parts = metric.split('.');
    let layer = parts.next().unwrap_or("");
    let second = parts.next().unwrap_or("");
    match (layer, second) {
        // One admission layer serves both workloads: its cost shows on
        // the open system, where replayed admission calls take about
        // half of host time, and not on the grid, where they take <1 %.
        ("extension", _) => vec![
            ("lifecycles_per_s", "overload_scalar", Moves),
            ("ms_per_cell", "paper_grid", NoChange),
        ],
        ("topo", _) => vec![
            ("lifecycles_per_s", "layers_topo", Moves),
            ("ms_per_cell", "paper_grid", NoChange),
        ],
        ("trace", "layers_topo") => vec![("traced_ms_per_cell", "layers_topo", Moves)],
        ("trace", _) => vec![("traced_ms_per_cell", "paper_grid", Moves)],
        ("perf" | "cfs" | "system", _) => vec![
            ("ms_per_cell", "paper_grid", Moves),
            ("slowest_cell_ms", "paper_grid", Moves),
            ("lifecycles_per_s", "overload_scalar", NoChange),
        ],
        ("traffic" | "share", "overload_scalar") => {
            vec![("lifecycles_per_s", "overload_scalar", Moves)]
        }
        ("traffic" | "share", "layers_topo") => vec![("lifecycles_per_s", "layers_topo", Moves)],
        ("share", "paper_grid") => vec![("ms_per_cell", "paper_grid", Moves)],
        // The benchmark's own spans run only in traced runs.
        ("bench", w) => match Workload::parse(w) {
            Some(w) => vec![("ms_per_cell", w.name(), NoChange)],
            None => Vec::new(),
        },
        _ => Vec::new(),
    }
}

/// One line per layer group (`extension.overload_scalar.*`,
/// `cfs.*`, …) stating its predicted end-to-end effects.
pub fn prediction_lines() -> Vec<String> {
    let mut lines: Vec<(String, String)> = Vec::new();
    for (name, _) in per_layer() {
        let mut parts = name.split('.');
        let layer = parts.next().unwrap_or("");
        let group = match parts.next() {
            Some(w) if Workload::parse(w).is_some() => format!("{layer}.{w}.*"),
            _ => format!("{layer}.*"),
        };
        if lines.iter().any(|(g, _)| *g == group) {
            continue;
        }
        let effects: Vec<String> = prediction(&name)
            .into_iter()
            .map(|(metric, workload, effect)| match effect {
                Effect::Moves => format!("moves {metric} on {workload}"),
                Effect::NoChange => format!("no change to {metric} on {workload}"),
            })
            .collect();
        lines.push((group, effects.join("; ")));
    }
    lines
        .into_iter()
        .map(|(g, e)| format!("prediction {g}: {e}"))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use rda_metrics::Json;
    use std::collections::BTreeSet;

    fn benchmark_json() -> Json {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        Json::parse(&text).expect("BENCHMARK.json parses")
    }

    fn names(doc: &Json, key: &str) -> Vec<(String, String)> {
        doc.get(key)
            .and_then(|a| a.as_arr())
            .expect("list")
            .iter()
            .map(|m| {
                let s = |k: &str| m.get(k).and_then(|v| v.as_str()).unwrap_or("").to_string();
                (s("name"), s("unit"))
            })
            .collect()
    }

    fn valid_name(s: &str) -> bool {
        !s.is_empty()
            && s.len() <= 64
            && s.chars().next().is_some_and(|c| c.is_ascii_alphanumeric())
            && s.chars()
                .all(|c| c.is_ascii_alphanumeric() || c == '_' || c == '.' || c == '-')
    }

    #[test]
    fn every_metric_name_is_well_formed_and_unique() {
        let mut seen = BTreeSet::new();
        for name in END_TO_END
            .iter()
            .map(|m| m.0.to_string())
            .chain(per_layer().into_iter().map(|m| m.0))
        {
            assert!(valid_name(&name), "bad metric name {name}");
            assert!(seen.insert(name.clone()), "duplicate metric {name}");
        }
        assert!(seen.len() - END_TO_END.len() <= 128);
    }

    #[test]
    fn benchmark_json_lists_exactly_the_reported_metrics() {
        let doc = benchmark_json();
        let e2e: Vec<(String, String)> = END_TO_END
            .iter()
            .map(|(n, u)| (n.to_string(), u.to_string()))
            .collect();
        assert_eq!(names(&doc, "end_to_end"), e2e);
        let layers: Vec<(String, String)> = per_layer()
            .into_iter()
            .map(|(n, u)| (n, u.to_string()))
            .collect();
        assert_eq!(names(&doc, "per_layer"), layers);
        let workloads: Vec<String> = names(&doc, "workloads").into_iter().map(|w| w.0).collect();
        assert_eq!(workloads, Workload::ALL.map(|w| w.name().to_string()));
    }

    #[test]
    fn every_per_layer_metric_predicts_its_end_to_end_effect() {
        let doc = benchmark_json();
        let e2e: BTreeSet<String> = names(&doc, "end_to_end").into_iter().map(|m| m.0).collect();
        let workloads: BTreeSet<String> =
            names(&doc, "workloads").into_iter().map(|m| m.0).collect();
        for (name, _) in names(&doc, "per_layer") {
            let p = prediction(&name);
            assert!(!p.is_empty(), "{name} predicts nothing");
            for (metric, workload, _) in p {
                assert!(e2e.contains(metric), "{name} names unknown metric {metric}");
                assert!(
                    workloads.contains(workload),
                    "{name} names unknown workload {workload}"
                );
            }
        }
    }
}
