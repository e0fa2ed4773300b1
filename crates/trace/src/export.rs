//! Exporters: Chrome trace-event (Perfetto) JSON and a plain-text
//! timeline for terminal inspection.
//!
//! The Chrome trace-event format is the lingua franca of timeline
//! viewers — a document shaped `{"traceEvents":[...]}` loads directly
//! in `ui.perfetto.dev` or `chrome://tracing`. Progress periods map to
//! async nestable spans (`ph:"b"`/`"e"`, keyed by `cat` + `id`), the
//! waitlist residency of a period to a nested `wait` span, occupancy
//! change points to counter tracks (`ph:"C"`, each value holding until
//! the track's next one), and begin/exit/reject events
//! to instants (`ph:"i"`). Timestamps are microseconds, converted from
//! logical cycles at the machine's clock frequency.

use crate::event::{EventKind, RejectKind, TraceEvent, NO_PP};
use crate::sink::TraceReport;
use rda_metrics::Json;

/// One run's report plus the identity it should carry in a merged
/// multi-run trace document.
#[derive(Debug, Clone)]
pub struct LabeledReport<'a> {
    /// Chrome `pid` for this run's track group (unique per run).
    pub pid: u64,
    /// Human-readable track name, e.g. `"dgemm/strict#r0"`.
    pub label: String,
    /// The run's frozen trace.
    pub report: &'a TraceReport,
}

fn us(t_cycles: u64, freq_hz: f64) -> Json {
    Json::Num(t_cycles as f64 / freq_hz * 1e6)
}

fn num(v: u64) -> Json {
    Json::Num(v as f64)
}

fn pp_json(pp: u64) -> Json {
    if pp == NO_PP {
        Json::Null
    } else {
        num(pp)
    }
}

fn event_args(ev: &TraceEvent) -> Json {
    let mut pairs = vec![
        ("process", num(ev.process as u64)),
        ("site", num(ev.site as u64)),
        ("pp", pp_json(ev.pp)),
        ("resource", Json::Str(ev.resource.label().to_string())),
        ("amount", num(ev.amount)),
        ("fast", Json::Bool(ev.fast)),
    ];
    if matches!(
        ev.kind,
        EventKind::Resume | EventKind::Age | EventKind::Expire
    ) {
        pairs.push(("wait_cycles", num(ev.wait_cycles)));
    }
    if matches!(ev.kind, EventKind::Reject | EventKind::Shed) {
        pairs.push(("reject", Json::Str(ev.reject.label().to_string())));
    }
    Json::obj(pairs)
}

fn base(ph: &str, name: String, cat: &str, pid: u64, ts: Json) -> Vec<(&'static str, Json)> {
    let mut pairs = Vec::with_capacity(8);
    pairs.push(("name", Json::Str(name)));
    pairs.push(("cat", Json::Str(cat.to_string())));
    pairs.push(("ph", Json::Str(ph.to_string())));
    pairs.push(("ts", ts));
    pairs.push(("pid", num(pid)));
    pairs.push(("tid", num(0)));
    pairs
}

fn push_event(out: &mut Vec<Json>, run: &LabeledReport<'_>, ev: &TraceEvent, freq_hz: f64) {
    let ts = us(ev.t_cycles, freq_hz);
    let pid = run.pid;
    match ev.kind {
        EventKind::Begin
        | EventKind::Exit
        | EventKind::Reject
        | EventKind::Retry
        | EventKind::BreakerTrip
        | EventKind::BreakerReset => {
            let name = if ev.kind == EventKind::Reject {
                format!("reject:{}", ev.reject.label())
            } else {
                ev.kind.label().to_string()
            };
            let mut pairs = base("i", name, "rda", pid, ts);
            pairs.push(("s", Json::Str("t".to_string())));
            pairs.push(("args", event_args(ev)));
            out.push(Json::obj(pairs));
        }
        EventKind::Shed | EventKind::Expire => {
            // An evicted victim or a deadline expiry removes a
            // waitlisted period for good: close its wait span. A
            // degraded direct-to-overflow admit (Shed with a pp but no
            // reject reason) instead opens a pp span — its later End
            // closes it. A tail-drop or breaker shed never allocated a
            // pp and is an instant only.
            if ev.pp != NO_PP {
                if ev.kind == EventKind::Shed && ev.reject == RejectKind::None {
                    let mut open = base("b", format!("pp@site{}", ev.site), "pp", pid, ts.clone());
                    open.push(("id", pp_json(ev.pp)));
                    open.push(("args", event_args(ev)));
                    out.push(Json::obj(open));
                } else {
                    let mut close = base("e", "waitlisted".to_string(), "wait", pid, ts.clone());
                    close.push(("id", pp_json(ev.pp)));
                    close.push(("args", event_args(ev)));
                    out.push(Json::obj(close));
                }
            }
            let mut pairs = base("i", ev.kind.label().to_string(), "rda", pid, ts);
            pairs.push(("s", Json::Str("t".to_string())));
            pairs.push(("args", event_args(ev)));
            out.push(Json::obj(pairs));
        }
        EventKind::Admit | EventKind::Resume | EventKind::Age => {
            // A resumed or aged period closes its `wait` span first.
            if ev.kind != EventKind::Admit {
                let mut close = base("e", "waitlisted".to_string(), "wait", pid, ts.clone());
                close.push(("id", pp_json(ev.pp)));
                close.push(("args", event_args(ev)));
                out.push(Json::obj(close));
            }
            let mut pairs = base("b", format!("pp@site{}", ev.site), "pp", pid, ts);
            pairs.push(("id", pp_json(ev.pp)));
            pairs.push(("args", event_args(ev)));
            out.push(Json::obj(pairs));
        }
        EventKind::Pause => {
            let mut pairs = base("b", "waitlisted".to_string(), "wait", pid, ts);
            pairs.push(("id", pp_json(ev.pp)));
            pairs.push(("args", event_args(ev)));
            out.push(Json::obj(pairs));
        }
        EventKind::End => {
            let mut pairs = base("e", format!("pp@site{}", ev.site), "pp", pid, ts);
            pairs.push(("id", pp_json(ev.pp)));
            pairs.push(("args", event_args(ev)));
            out.push(Json::obj(pairs));
        }
    }
}

/// Build a Chrome trace-event document from one or more labeled runs.
///
/// `freq_hz` converts logical cycles to the format's microsecond
/// timestamps. The result parses/loads as standard trace-event JSON:
/// `{"traceEvents": [...], "displayTimeUnit": "ms", "metadata": {...}}`.
pub fn chrome_trace_document(runs: &[LabeledReport<'_>], freq_hz: f64) -> Json {
    let mut events = Vec::new();
    for run in runs {
        // Name the run's track group.
        let mut meta = base(
            "M",
            "process_name".to_string(),
            "__metadata",
            run.pid,
            num(0),
        );
        meta.push(("args", Json::obj([("name", Json::Str(run.label.clone()))])));
        events.push(Json::obj(meta));

        for ev in &run.report.events {
            push_event(&mut events, run, ev, freq_hz);
        }
        for s in &run.report.occupancy {
            // Node 0 keeps the scalar-era track names so existing
            // viewer bookmarks (and the schema snapshot) are stable;
            // additional NUMA nodes each get their own counter tracks.
            let (llc_name, sched_name) = if s.node == 0 {
                ("llc_occupancy".to_string(), "scheduler".to_string())
            } else {
                (
                    format!("llc_occupancy/node{}", s.node),
                    format!("scheduler/node{}", s.node),
                )
            };
            let mut llc = base("C", llc_name, "occupancy", run.pid, us(s.t_cycles, freq_hz));
            llc.push((
                "args",
                Json::obj([("usage", num(s.usage)), ("overflow", num(s.overflow))]),
            ));
            events.push(Json::obj(llc));
            let mut sys = base(
                "C",
                sched_name,
                "occupancy",
                run.pid,
                us(s.t_cycles, freq_hz),
            );
            sys.push((
                "args",
                Json::obj([
                    ("waitlisted", num(s.waitlisted as u64)),
                    ("busy_cores", num(s.busy_cores as u64)),
                ]),
            ));
            events.push(Json::obj(sys));
        }
    }
    Json::obj([
        ("traceEvents", Json::Arr(events)),
        ("displayTimeUnit", Json::Str("ms".to_string())),
        (
            "metadata",
            Json::obj([
                ("tool", Json::Str("rda-trace".to_string())),
                ("freq_hz", Json::Num(freq_hz)),
                ("runs", num(runs.len() as u64)),
            ]),
        ),
    ])
}

fn fmt_us(t_cycles: u64, freq_hz: f64) -> String {
    format!("{:>12.3}us", t_cycles as f64 / freq_hz * 1e6)
}

/// Render one run's trace as a human-readable timeline plus summary
/// table (used by the `trace_dump` binary).
pub fn render_text(label: &str, report: &TraceReport, freq_hz: f64) -> String {
    let mut out = String::new();
    out.push_str(&format!("=== trace: {label} ===\n"));
    let c = &report.counts;
    out.push_str("-- summary --\n");
    out.push_str(&format!(
        "  begins {:>8}  admits {:>8} (fast {}, slow {})\n",
        c.begins,
        c.fast_admits + c.slow_admits,
        c.fast_admits,
        c.slow_admits
    ));
    out.push_str(&format!(
        "  pauses {:>8}  resumes {:>7}  aged {:>6}\n",
        c.pauses, c.resumes, c.aged
    ));
    out.push_str(&format!(
        "  ends   {:>8} (fast {})  exits {:>5}  rejects {:>5}\n",
        c.ends, c.fast_ends, c.exits, c.rejects
    ));
    let w = &report.wait;
    out.push_str(&format!(
        "  wait cycles: samples {}  p50 {}  p95 {}  max {}\n",
        w.samples, w.p50, w.p95, w.max
    ));
    if !report.occupancy.is_empty() {
        let mut nodes: Vec<u32> = report.occupancy.iter().map(|s| s.node).collect();
        nodes.sort_unstable();
        nodes.dedup();
        for node in nodes {
            let per: Vec<_> = report.occupancy.iter().filter(|s| s.node == node).collect();
            let peak = per.iter().map(|s| s.usage + s.overflow).max().unwrap_or(0);
            let Some(last) = per.last() else {
                continue;
            };
            out.push_str(&format!(
                "  occupancy[node{}]: {} change points, peak {} B, final {} B (+{} B overflow)\n",
                node,
                per.len(),
                peak,
                last.usage,
                last.overflow
            ));
        }
    }
    out.push_str(&format!(
        "-- events (showing {} of {}) --\n",
        report.events.len(),
        report.events.len() as u64 + report.dropped_events
    ));
    for ev in &report.events {
        let pp = if ev.pp == NO_PP {
            "-".to_string()
        } else {
            ev.pp.to_string()
        };
        let mut line = format!(
            "[{}] {:<7} pid={:<4} site={:<3} pp={:<6} {:<5} amount={}",
            fmt_us(ev.t_cycles, freq_hz),
            ev.kind.label(),
            ev.process,
            ev.site,
            pp,
            ev.resource.label(),
            ev.amount
        );
        if ev.fast {
            line.push_str(" fast");
        }
        if matches!(
            ev.kind,
            EventKind::Resume | EventKind::Age | EventKind::Expire
        ) {
            line.push_str(&format!(" waited={}cy", ev.wait_cycles));
        }
        if ev.kind == EventKind::Reject
            || (ev.kind == EventKind::Shed && ev.reject != RejectKind::None)
        {
            line.push_str(&format!(" reason={}", ev.reject.label()));
        }
        line.push('\n');
        out.push_str(&line);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::{RejectKind, TraceResource};
    use crate::sink::{OccupancySample, TraceConfig, TraceSink};

    fn sample_report() -> TraceReport {
        let mut sink = TraceSink::new(TraceConfig::default());
        let mut begin = TraceEvent::at(100, EventKind::Begin);
        begin.process = 1;
        begin.site = 7;
        begin.amount = 4096;
        sink.record(begin);
        let mut admit = begin;
        admit.kind = EventKind::Admit;
        admit.pp = 42;
        sink.record(admit);
        let mut pause = TraceEvent::at(150, EventKind::Pause);
        pause.process = 2;
        pause.pp = 43;
        pause.amount = 9000;
        sink.record(pause);
        let mut resume = pause;
        resume.kind = EventKind::Resume;
        resume.t_cycles = 900;
        resume.wait_cycles = 750;
        sink.record(resume);
        let mut end = admit;
        end.kind = EventKind::End;
        end.t_cycles = 2000;
        sink.record(end);
        let mut reject = TraceEvent::at(2100, EventKind::Reject);
        reject.process = 3;
        reject.resource = TraceResource::MemBandwidth;
        reject.reject = RejectKind::DemandOverflow;
        sink.record(reject);
        sink.record_occupancy(OccupancySample {
            t_cycles: 1000,
            node: 0,
            usage: 13_096,
            overflow: 0,
            waitlisted: 1,
            busy_cores: 2,
        });
        sink.into_report()
    }

    #[test]
    fn chrome_document_parses_and_has_required_fields() {
        let report = sample_report();
        let runs = [LabeledReport {
            pid: 1,
            label: "unit/strict#r0".to_string(),
            report: &report,
        }];
        let doc = chrome_trace_document(&runs, 1.0e9);
        let text = doc.to_string_pretty();
        let parsed = Json::parse(&text).expect("exporter emits valid JSON");
        assert_eq!(parsed, doc, "pretty output round-trips");

        let events = parsed
            .get("traceEvents")
            .and_then(Json::as_arr)
            .expect("traceEvents array");
        assert!(!events.is_empty());
        for ev in events {
            for key in ["name", "ph", "ts", "pid"] {
                assert!(ev.get(key).is_some(), "event missing {key}: {ev}");
            }
        }
        // Period 42 opens and closes as an async pp span.
        let phases: Vec<(&str, Option<f64>)> = events
            .iter()
            .filter(|e| e.get("cat").and_then(Json::as_str) == Some("pp"))
            .map(|e| {
                (
                    e.get("ph").and_then(Json::as_str).unwrap(),
                    e.get("id").and_then(Json::as_f64),
                )
            })
            .collect();
        assert!(phases.contains(&("b", Some(42.0))));
        assert!(phases.contains(&("e", Some(42.0))));
        // The waitlisted period nests a wait span that closes at resume.
        let wait_phases: Vec<&str> = events
            .iter()
            .filter(|e| e.get("cat").and_then(Json::as_str) == Some("wait"))
            .map(|e| e.get("ph").and_then(Json::as_str).unwrap())
            .collect();
        assert_eq!(wait_phases, vec!["b", "e"]);
        // Occupancy samples become counter tracks.
        assert!(events
            .iter()
            .any(|e| e.get("ph").and_then(Json::as_str) == Some("C")));
        // Cycle → microsecond conversion at 1 GHz: 2000 cycles = 2 us.
        let end_ts = events
            .iter()
            .find(|e| {
                e.get("cat").and_then(Json::as_str) == Some("pp")
                    && e.get("ph").and_then(Json::as_str) == Some("e")
            })
            .and_then(|e| e.get("ts").and_then(Json::as_f64))
            .unwrap();
        assert!((end_ts - 2.0).abs() < 1e-9);
    }

    #[test]
    fn text_rendering_contains_summary_and_timeline() {
        let report = sample_report();
        let text = render_text("unit/strict#r0", &report, 1.0e9);
        assert!(text.contains("=== trace: unit/strict#r0 ==="));
        assert!(text.contains("begins"));
        assert!(text.contains("wait cycles: samples 1"));
        assert!(text.contains("reason=demand_overflow"));
        assert!(text.contains("waited=750cy"));
        assert!(text.contains("occupancy[node0]: 1 change points"));
    }
}
