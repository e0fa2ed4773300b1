//! The trace event vocabulary.
//!
//! One [`TraceEvent`] is recorded per observable action of the RDA
//! extension. Events are plain `Copy` records (no heap payload) so the
//! ring buffer can overwrite them without allocating.

/// Sentinel for events recorded before a period id exists (a `Begin`
/// is emitted before the registry allocates, and a rejected begin never
/// allocates at all).
pub const NO_PP: u64 = u64::MAX;

/// Sentinel node id for events with no placed node (a `Begin` precedes
/// placement; rejects and sheds never place).
pub const NO_NODE: u32 = u32::MAX;

/// What happened.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum EventKind {
    /// A `pp_begin` call arrived (before auditing or admission).
    Begin,
    /// A period was admitted at begin time (fast or slow path).
    Admit,
    /// A period was waitlisted; its process pauses.
    Pause,
    /// A waitlisted period was admitted nominally by the predicate.
    Resume,
    /// A waitlisted period was force-admitted by aging into the
    /// overflow bucket.
    Age,
    /// A period completed via `pp_end`.
    End,
    /// A process exited; its open periods were reclaimed.
    Exit,
    /// A call was rejected with a typed error (see [`RejectKind`]).
    Reject,
    /// Overload control shed an arrival or evicted a waiter (bounded
    /// gate or open breaker; see [`RejectKind`] for which).
    Shed,
    /// A waitlisted period expired past its deadline.
    Expire,
    /// The client retried a previously shed or expired arrival.
    Retry,
    /// The saturation circuit breaker tripped open for a resource.
    BreakerTrip,
    /// The saturation circuit breaker reset after recovery hysteresis.
    BreakerReset,
}

impl EventKind {
    /// Short lowercase label (stable; used by exporters).
    pub fn label(self) -> &'static str {
        match self {
            EventKind::Begin => "begin",
            EventKind::Admit => "admit",
            EventKind::Pause => "pause",
            EventKind::Resume => "resume",
            EventKind::Age => "age",
            EventKind::End => "end",
            EventKind::Exit => "exit",
            EventKind::Reject => "reject",
            EventKind::Shed => "shed",
            EventKind::Expire => "expire",
            EventKind::Retry => "retry",
            EventKind::BreakerTrip => "breaker_trip",
            EventKind::BreakerReset => "breaker_reset",
        }
    }
}

/// Mirror of the core crate's resource enums, kept here so `rda-core`
/// can depend on this crate without a cycle. Covers both the scalar
/// extension's LLC and the topology engine's per-node kinds.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TraceResource {
    /// Last-level cache capacity (bytes).
    Llc,
    /// Memory bandwidth (bytes/second; topology engine only).
    MemBandwidth,
    /// DRAM capacity (bytes; topology engine only).
    DramCap,
}

impl TraceResource {
    /// Short lowercase label (stable; used by exporters).
    pub fn label(self) -> &'static str {
        match self {
            TraceResource::Llc => "llc",
            TraceResource::MemBandwidth => "membw",
            TraceResource::DramCap => "dram",
        }
    }
}

/// Why a call was rejected (payload of [`EventKind::Reject`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum RejectKind {
    /// Not a rejection (every non-`Reject` event).
    None,
    /// The demand auditor (or the 64-bit load-table guard) refused the
    /// declared demand.
    DemandOverflow,
    /// `pp_end` of an id that was never allocated.
    UnknownPp,
    /// `pp_end` of a period that already ended.
    DoubleEnd,
    /// `pp_end` of a period still parked on the waitlist.
    EndWhileWaitlisted,
    /// The bounded admission gate shed at the waitlist cap.
    WaitlistFull,
    /// The open saturation breaker shed the arrival.
    BreakerOpen,
}

impl RejectKind {
    /// Short label (stable; used by exporters).
    pub fn label(self) -> &'static str {
        match self {
            RejectKind::None => "none",
            RejectKind::DemandOverflow => "demand_overflow",
            RejectKind::UnknownPp => "unknown_pp",
            RejectKind::DoubleEnd => "double_end",
            RejectKind::EndWhileWaitlisted => "end_while_waitlisted",
            RejectKind::WaitlistFull => "waitlist_full",
            RejectKind::BreakerOpen => "breaker_open",
        }
    }
}

/// One recorded scheduling event.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceEvent {
    /// Logical timestamp in simulated cycles.
    pub t_cycles: u64,
    /// What happened.
    pub kind: EventKind,
    /// NUMA node the event concerns (0 on single-node machines; the
    /// topology engine sets the placed node, [`NO_NODE`] before
    /// placement or for events with no node).
    pub node: u32,
    /// The calling (or exiting) process id.
    pub process: u32,
    /// Static call site of the period (0 when not applicable).
    pub site: u32,
    /// Progress-period id, or [`NO_PP`] when none was allocated.
    pub pp: u64,
    /// The resource the period demands.
    pub resource: TraceResource,
    /// Demand payload in resource units: the declared amount for
    /// `Begin`/`Reject`, the accounted amount for
    /// `Admit`/`Pause`/`Resume`/`Age`/`End`, and the number of
    /// reclaimed periods for `Exit`.
    pub amount: u64,
    /// Cycles spent waitlisted (`Resume`/`Age` only, else 0).
    pub wait_cycles: u64,
    /// Whether the memoised fast path served the call (`Admit`/`End`).
    pub fast: bool,
    /// Rejection reason (`Reject` only, else [`RejectKind::None`]).
    pub reject: RejectKind,
}

impl TraceEvent {
    /// A blank event template; emitters override the relevant fields.
    pub fn at(t_cycles: u64, kind: EventKind) -> Self {
        TraceEvent {
            t_cycles,
            kind,
            node: 0,
            process: 0,
            site: 0,
            pp: NO_PP,
            resource: TraceResource::Llc,
            amount: 0,
            wait_cycles: 0,
            fast: false,
            reject: RejectKind::None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn labels_are_stable_and_distinct() {
        let kinds = [
            EventKind::Begin,
            EventKind::Admit,
            EventKind::Pause,
            EventKind::Resume,
            EventKind::Age,
            EventKind::End,
            EventKind::Exit,
            EventKind::Reject,
            EventKind::Shed,
            EventKind::Expire,
            EventKind::Retry,
            EventKind::BreakerTrip,
            EventKind::BreakerReset,
        ];
        let mut labels: Vec<&str> = kinds.iter().map(|k| k.label()).collect();
        labels.sort_unstable();
        labels.dedup();
        assert_eq!(labels.len(), kinds.len());
        assert_eq!(EventKind::Begin.label(), "begin");
        assert_eq!(EventKind::Shed.label(), "shed");
        assert_eq!(EventKind::BreakerTrip.label(), "breaker_trip");
        assert_eq!(TraceResource::Llc.label(), "llc");
        assert_eq!(RejectKind::DoubleEnd.label(), "double_end");
        assert_eq!(RejectKind::WaitlistFull.label(), "waitlist_full");
        assert_eq!(RejectKind::BreakerOpen.label(), "breaker_open");

        let rejects = [
            RejectKind::None,
            RejectKind::DemandOverflow,
            RejectKind::UnknownPp,
            RejectKind::DoubleEnd,
            RejectKind::EndWhileWaitlisted,
            RejectKind::WaitlistFull,
            RejectKind::BreakerOpen,
        ];
        let mut rlabels: Vec<&str> = rejects.iter().map(|k| k.label()).collect();
        rlabels.sort_unstable();
        rlabels.dedup();
        assert_eq!(rlabels.len(), rejects.len());
    }

    #[test]
    fn template_defaults_are_inert() {
        let e = TraceEvent::at(7, EventKind::Begin);
        assert_eq!(e.t_cycles, 7);
        assert_eq!(e.pp, NO_PP);
        assert_eq!(e.reject, RejectKind::None);
        assert!(!e.fast);
    }
}
