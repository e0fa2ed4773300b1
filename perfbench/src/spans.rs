//! The benchmark's own spans: one per timed call into a layer, kept in
//! memory and written out as a Chrome trace-event document when the run
//! ends. Off (and allocation-free) in end-to-end runs.

use rda_metrics::Json;
use std::collections::BTreeMap;
use std::time::Instant;

/// One closed span.
#[derive(Debug, Clone)]
pub struct Span {
    /// What ran, e.g. `system.run Raytrace/DefaultOnly`.
    pub name: String,
    /// Start, ns since the recorder was created.
    pub start_ns: u64,
    /// End, ns since the recorder was created.
    pub end_ns: u64,
    /// Index of the enclosing span.
    pub parent: Option<usize>,
}

/// In-memory span recorder.
pub struct Spans {
    enabled: bool,
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Spans {
    /// A recorder; a disabled one records nothing.
    pub fn new(enabled: bool) -> Self {
        Spans {
            enabled,
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Open a span nested in the innermost open one.
    pub fn open(&mut self, name: impl FnOnce() -> String) {
        if !self.enabled {
            return;
        }
        let span = Span {
            name: name(),
            start_ns: self.now_ns(),
            end_ns: 0,
            parent: self.open.last().copied(),
        };
        self.open.push(self.spans.len());
        self.spans.push(span);
    }

    /// Close the innermost open span.
    pub fn close(&mut self) {
        if !self.enabled {
            return;
        }
        let end = self.now_ns();
        if let Some(i) = self.open.pop() {
            self.spans[i].end_ns = end;
        }
    }

    /// Run `f` inside a span.
    pub fn scope<T>(&mut self, name: impl FnOnce() -> String, f: impl FnOnce(&mut Self) -> T) -> T {
        self.open(name);
        let out = f(self);
        self.close();
        out
    }

    /// Spans recorded so far.
    pub fn len(&self) -> usize {
        self.spans.len()
    }

    /// Self time per span name (duration minus the time its direct
    /// children cover), ms, largest first.
    pub fn self_times_ms(&self) -> Vec<(String, f64)> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p] += s.end_ns.saturating_sub(s.start_ns);
            }
        }
        let mut by_name: BTreeMap<&str, f64> = BTreeMap::new();
        for (s, child) in self.spans.iter().zip(&child_ns) {
            // Group per-cell spans by their layer call (the text
            // before the first space).
            let key = s.name.split(' ').next().unwrap_or(&s.name);
            let own = s.end_ns.saturating_sub(s.start_ns).saturating_sub(*child);
            *by_name.entry(key).or_default() += own as f64 / 1e6;
        }
        let mut out: Vec<(String, f64)> = by_name
            .into_iter()
            .map(|(k, v)| (k.to_string(), v))
            .collect();
        out.sort_by(|a, b| b.1.total_cmp(&a.1));
        out
    }

    /// The spans as a Chrome trace-event document (complete events).
    pub fn to_chrome_json(&self) -> Json {
        let events = self
            .spans
            .iter()
            .enumerate()
            .map(|(i, s)| {
                Json::obj([
                    ("name", Json::Str(s.name.clone())),
                    ("ph", Json::Str("X".into())),
                    ("ts", Json::Num(s.start_ns as f64 / 1e3)),
                    (
                        "dur",
                        Json::Num(s.end_ns.saturating_sub(s.start_ns) as f64 / 1e3),
                    ),
                    ("pid", Json::Num(1.0)),
                    ("tid", Json::Num(1.0)),
                    (
                        "args",
                        Json::obj([
                            ("id", Json::Num(i as f64)),
                            (
                                "parent",
                                s.parent.map_or(Json::Null, |p| Json::Num(p as f64)),
                            ),
                        ]),
                    ),
                ])
            })
            .collect();
        Json::obj([("traceEvents", Json::Arr(events))])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nesting_and_self_time() {
        let mut s = Spans::new(true);
        s.scope(
            || "outer".into(),
            |s| {
                s.scope(
                    || "inner x".into(),
                    |_| std::thread::sleep(std::time::Duration::from_millis(2)),
                );
            },
        );
        assert_eq!(s.len(), 2);
        assert_eq!(s.spans[1].parent, Some(0));
        let selfs = s.self_times_ms();
        let inner = selfs
            .iter()
            .find(|(n, _)| n == "inner")
            .expect("inner span");
        let outer = selfs
            .iter()
            .find(|(n, _)| n == "outer")
            .expect("outer span");
        assert!(inner.1 >= 2.0 && outer.1 < inner.1, "{selfs:?}");
        let doc = s.to_chrome_json().to_string();
        assert!(doc.contains("\"traceEvents\""));
    }

    #[test]
    fn disabled_recorder_keeps_nothing() {
        let mut s = Spans::new(false);
        s.scope(|| unreachable!("names are not built when disabled"), |_| ());
        assert_eq!(s.len(), 0);
    }
}
