//! The per-run recorder and its frozen end-of-run report.

use crate::event::{EventKind, TraceEvent};
use crate::hist::Log2Hist;
use crate::ring::Ring;

/// Capacity of a [`TraceSink`]'s event ring.
///
/// The ring is allocated once at construction; recording an event is
/// allocation-free thereafter. When it fills, the oldest events are
/// overwritten and counted as dropped.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceConfig {
    /// Maximum scheduling events retained (newest win).
    pub event_capacity: usize,
}

impl Default for TraceConfig {
    fn default() -> Self {
        TraceConfig {
            event_capacity: 16_384,
        }
    }
}

/// One change point of a node's occupancy track.
///
/// The sink keeps a sample only when its node's state (`usage`,
/// `overflow`, `waitlisted`, `busy_cores`) differs from that node's
/// previous sample, so each sample holds from `t_cycles` until the
/// node's next one: the track is a step function over the whole run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OccupancySample {
    /// Logical timestamp in simulated cycles.
    pub t_cycles: u64,
    /// NUMA node the sample describes (0 on single-node machines, so
    /// scalar-era traces keep their original track layout).
    pub node: u32,
    /// Bytes accounted in the nominal LLC load table.
    pub usage: u64,
    /// Bytes accounted in the aging overflow bucket.
    pub overflow: u64,
    /// Periods parked on the LLC waitlist.
    pub waitlisted: u32,
    /// Cores executing a runnable thread (for a traffic run, requests
    /// in service).
    pub busy_cores: u32,
}

/// Whether two samples record the same state, time aside.
fn same_state(a: &OccupancySample, b: &OccupancySample) -> bool {
    (a.node, a.usage, a.overflow, a.waitlisted, a.busy_cores)
        == (b.node, b.usage, b.overflow, b.waitlisted, b.busy_cores)
}

/// Predicate-outcome and lifecycle counters.
///
/// Unlike the event ring these never drop: they are exact totals for
/// the whole run even when the ring wrapped.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct PredicateCounts {
    /// `pp_begin` calls observed.
    pub begins: u64,
    /// Admissions served by the memoised fast path.
    pub fast_admits: u64,
    /// Admissions decided by the full predicate.
    pub slow_admits: u64,
    /// Periods waitlisted at begin time (predicate said no).
    pub pauses: u64,
    /// Waitlisted periods later admitted nominally.
    pub resumes: u64,
    /// Waitlisted periods force-admitted by aging.
    pub aged: u64,
    /// `pp_end` completions.
    pub ends: u64,
    /// Completions served by the memoised fast path.
    pub fast_ends: u64,
    /// Process exits observed.
    pub exits: u64,
    /// Typed rejections (audit refusals, unknown/double ends, …).
    pub rejects: u64,
    /// Arrivals shed (or waiters evicted) by overload control.
    pub shed: u64,
    /// Waitlisted periods expired past their deadline.
    pub expired: u64,
    /// Client-side retries of shed or expired arrivals.
    pub retried: u64,
    /// Saturation-breaker trips.
    pub breaker_trips: u64,
    /// Saturation-breaker resets after recovery hysteresis.
    pub breaker_resets: u64,
}

/// One non-empty wait-histogram bucket in a [`WaitSummary`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WaitBucket {
    /// Largest wait (cycles) this bucket can hold.
    pub upper_cycles: u64,
    /// Samples that landed in it.
    pub count: u64,
}

/// Waitlist-residency percentiles derived from the log₂ histogram.
///
/// `p50`/`p95` are the upper bound of the histogram bucket containing
/// the rank (clamped to `max`); `max` is exact.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct WaitSummary {
    /// Waits recorded (one per resume or aged admission).
    pub samples: u64,
    /// Median wait, in cycles (bucket upper bound).
    pub p50: u64,
    /// 95th-percentile wait, in cycles (bucket upper bound).
    pub p95: u64,
    /// Exact longest wait, in cycles.
    pub max: u64,
}

/// The frozen end-of-run view of a [`TraceSink`].
#[derive(Debug, Clone, PartialEq)]
pub struct TraceReport {
    /// Retained scheduling events, oldest → newest.
    pub events: Vec<TraceEvent>,
    /// Events overwritten because the ring was full.
    pub dropped_events: u64,
    /// Every node's occupancy change points over the whole run,
    /// oldest → newest, the nodes' tracks interleaved.
    pub occupancy: Vec<OccupancySample>,
    /// Exact lifecycle totals for the whole run.
    pub counts: PredicateCounts,
    /// Waitlist-residency percentiles.
    pub wait: WaitSummary,
    /// Non-empty wait-histogram buckets, ascending.
    pub wait_buckets: Vec<WaitBucket>,
}

/// Per-run event and occupancy recorder.
///
/// Created from a [`TraceConfig`], fed by the RDA extension (events)
/// and the simulators (occupancy samples), and frozen into a
/// [`TraceReport`] at end of run.
#[derive(Debug, Clone, PartialEq)]
pub struct TraceSink {
    events: Ring<TraceEvent>,
    occupancy: Vec<OccupancySample>,
    /// Each node's latest kept sample, in first-seen order.
    last: Vec<OccupancySample>,
    wait_hist: Log2Hist,
    counts: PredicateCounts,
}

impl TraceSink {
    /// A fresh sink with its event ring sized by `cfg` (allocated up
    /// front).
    pub fn new(cfg: TraceConfig) -> Self {
        TraceSink {
            events: Ring::new(cfg.event_capacity),
            occupancy: Vec::new(),
            last: Vec::new(),
            wait_hist: Log2Hist::new(),
            counts: PredicateCounts::default(),
        }
    }

    /// Record one scheduling event (allocation-free).
    pub fn record(&mut self, ev: TraceEvent) {
        match ev.kind {
            EventKind::Begin => self.counts.begins += 1,
            EventKind::Admit => {
                if ev.fast {
                    self.counts.fast_admits += 1;
                } else {
                    self.counts.slow_admits += 1;
                }
            }
            EventKind::Pause => self.counts.pauses += 1,
            EventKind::Resume => {
                self.counts.resumes += 1;
                self.wait_hist.record(ev.wait_cycles);
            }
            EventKind::Age => {
                self.counts.aged += 1;
                self.wait_hist.record(ev.wait_cycles);
            }
            EventKind::End => {
                self.counts.ends += 1;
                if ev.fast {
                    self.counts.fast_ends += 1;
                }
            }
            EventKind::Exit => self.counts.exits += 1,
            EventKind::Reject => self.counts.rejects += 1,
            EventKind::Shed => self.counts.shed += 1,
            EventKind::Expire => {
                // An expiry ends a waitlist residency just like a
                // resume or aged admission; its wait belongs in the
                // same histogram.
                self.counts.expired += 1;
                self.wait_hist.record(ev.wait_cycles);
            }
            EventKind::Retry => self.counts.retried += 1,
            EventKind::BreakerTrip => self.counts.breaker_trips += 1,
            EventKind::BreakerReset => self.counts.breaker_resets += 1,
        }
        self.events.push(ev);
    }

    /// Record one node's occupancy at `sample.t_cycles`. The sample is
    /// kept only when it differs from that node's last kept one (time
    /// aside), so a caller may record every tick and the track still
    /// holds one sample per change.
    pub fn record_occupancy(&mut self, sample: OccupancySample) {
        match self.last.iter_mut().find(|s| s.node == sample.node) {
            Some(last) if same_state(last, &sample) => return,
            Some(last) => *last = sample,
            None => self.last.push(sample),
        }
        self.occupancy.push(sample);
    }

    /// Events currently retained, oldest → newest.
    pub fn events(&self) -> Vec<TraceEvent> {
        self.events.to_vec()
    }

    /// Exact lifecycle totals so far.
    pub fn counts(&self) -> &PredicateCounts {
        &self.counts
    }

    /// Consume the sink, freezing it into a [`TraceReport`].
    pub fn into_report(self) -> TraceReport {
        TraceReport {
            events: self.events.to_vec(),
            dropped_events: self.events.dropped(),
            occupancy: self.occupancy,
            counts: self.counts,
            wait: WaitSummary {
                samples: self.wait_hist.count(),
                p50: self.wait_hist.quantile(0.50),
                p95: self.wait_hist.quantile(0.95),
                max: self.wait_hist.max(),
            },
            wait_buckets: self
                .wait_hist
                .nonzero_buckets()
                .into_iter()
                .map(|(upper_cycles, count)| WaitBucket {
                    upper_cycles,
                    count,
                })
                .collect(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::{EventKind, TraceEvent};
    use proptest::prelude::*;
    use rda_simcore::Xoshiro256;

    fn ev(t: u64, kind: EventKind) -> TraceEvent {
        TraceEvent::at(t, kind)
    }

    #[test]
    fn counts_track_every_kind_even_after_wrap() {
        let mut sink = TraceSink::new(TraceConfig { event_capacity: 4 });
        sink.record(ev(1, EventKind::Begin));
        let mut fast = ev(2, EventKind::Admit);
        fast.fast = true;
        sink.record(fast);
        sink.record(ev(3, EventKind::Pause));
        let mut resume = ev(9, EventKind::Resume);
        resume.wait_cycles = 6;
        sink.record(resume);
        let mut aged = ev(40, EventKind::Age);
        aged.wait_cycles = 37;
        sink.record(aged);
        sink.record(ev(50, EventKind::End));
        sink.record(ev(60, EventKind::Exit));
        sink.record(ev(61, EventKind::Reject));

        let report = sink.into_report();
        assert_eq!(report.events.len(), 4, "ring keeps the newest four");
        assert_eq!(report.dropped_events, 4);
        let c = report.counts;
        assert_eq!(
            (c.begins, c.fast_admits, c.slow_admits, c.pauses),
            (1, 1, 0, 1)
        );
        assert_eq!(
            (c.resumes, c.aged, c.ends, c.exits, c.rejects),
            (1, 1, 1, 1, 1)
        );
        assert_eq!(
            (
                c.shed,
                c.expired,
                c.retried,
                c.breaker_trips,
                c.breaker_resets
            ),
            (0, 0, 0, 0, 0)
        );
        assert_eq!(report.wait.samples, 2, "histogram never drops");
        assert_eq!(report.wait.max, 37);
        assert!(report.wait.p50 >= 6);
        assert_eq!(report.wait_buckets.iter().map(|b| b.count).sum::<u64>(), 2);
    }

    #[test]
    fn overload_kinds_feed_their_counters() {
        let mut sink = TraceSink::new(TraceConfig::default());
        sink.record(ev(1, EventKind::Shed));
        let mut expire = ev(2, EventKind::Expire);
        expire.wait_cycles = 12;
        sink.record(expire);
        sink.record(ev(3, EventKind::Retry));
        sink.record(ev(4, EventKind::BreakerTrip));
        sink.record(ev(5, EventKind::BreakerReset));

        let report = sink.into_report();
        let c = report.counts;
        assert_eq!(
            (
                c.shed,
                c.expired,
                c.retried,
                c.breaker_trips,
                c.breaker_resets
            ),
            (1, 1, 1, 1, 1)
        );
        assert_eq!(report.wait.samples, 1, "expiry ends a waitlist residency");
        assert_eq!(report.wait.max, 12);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// Every node's tick series, recorded with runs of repeats,
        /// comes back exactly from the change points: at each input
        /// tick the node's last kept sample at or before it is the
        /// input, and no kept sample repeats its predecessor.
        #[test]
        fn occupancy_track_expands_to_every_recorded_tick(
            nodes in 1u32..5,
            ticks in 1u64..300,
            seed in any::<u64>(),
        ) {
            let mut rng = Xoshiro256::new(seed);
            let mut state: Vec<OccupancySample> = (0..nodes)
                .map(|node| OccupancySample {
                    t_cycles: 0,
                    node,
                    usage: 0,
                    overflow: 0,
                    waitlisted: 0,
                    busy_cores: 0,
                })
                .collect();
            let mut input = Vec::new();
            let mut sink = TraceSink::new(TraceConfig::default());
            for t in 0..ticks {
                let first = rng.next_below(u64::from(nodes)) as u32;
                for k in 0..nodes {
                    let s = &mut state[((first + k) % nodes) as usize];
                    s.t_cycles = t;
                    // Few values, so most ticks repeat and a fresh draw
                    // sometimes lands on the held state.
                    match rng.next_below(8) {
                        0 => s.usage = rng.next_below(3) << 20,
                        1 => s.overflow = rng.next_below(2) << 20,
                        2 => s.waitlisted = rng.next_below(3) as u32,
                        3 => s.busy_cores = rng.next_below(3) as u32,
                        _ => {}
                    }
                    input.push(*s);
                    sink.record_occupancy(*s);
                }
            }
            let track = sink.into_report().occupancy;
            for want in &input {
                let got = track
                    .iter()
                    .rev()
                    .find(|s| s.node == want.node && s.t_cycles <= want.t_cycles);
                prop_assert_eq!(
                    got.map(|s| OccupancySample { t_cycles: want.t_cycles, ..*s }),
                    Some(*want)
                );
            }
            for node in 0..nodes {
                let per: Vec<_> = track.iter().filter(|s| s.node == node).collect();
                prop_assert_eq!(per[0].t_cycles, 0);
                for pair in per.windows(2) {
                    prop_assert!(pair[0].t_cycles < pair[1].t_cycles);
                    prop_assert!(!same_state(pair[0], pair[1]), "{:?}", pair);
                }
            }
        }
    }
}
