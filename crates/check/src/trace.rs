//! The `.trace` text format: replayable event traces for the
//! differential oracle.
//!
//! A trace file is a configuration header followed by one event per
//! line, `#` comments and blank lines ignored:
//!
//! ```text
//! # Two processes contending for a 15 MB LLC under RDA:Strict.
//! policy strict
//! audit trust
//! timeout 1000000
//!
//! begin 0      0 0 llc 10mb
//! begin 1000   1 1 llc 10mb
//! end   2000   0
//! ```
//!
//! Header keys (each optional; defaults are the Xeon E5-2420 machine
//! under `policy strict`, `audit trust`, no aging):
//!
//! * `policy default | strict | compromise <factor> | partitioned <frac>`
//!   — a factor is finite and at least 1, a fraction finite and in
//!   (0, 1]
//! * `llc <bytes>` — LLC capacity, nonzero (as the topology lift of
//!   the document requires)
//! * `audit trust | clamp | reject`
//! * `timeout none | <cycles>` — waitlist aging timeout
//! * `interval <cycles>` — fast-path re-evaluation interval
//! * `overload <cap> <reject_newest|reject_oldest|degrade>` — bounded
//!   waitlist gate with its shedding policy
//! * `deadline <cycles>` — per-request waitlist deadline (requires a
//!   preceding `overload` line)
//! * `breaker <high> <low> <trip> <recover> <min>` — saturation
//!   circuit breaker: high/low occupancy water marks and minimum shed
//!   demand as amounts, trip/recover hysteresis in ticks (requires a
//!   preceding `overload` line)
//!
//! Events (all times in cycles; amounts accept a raw byte count or a
//! decimal with an `mb` suffix):
//!
//! * `begin <t> <process> <site> llc <amount>` — the scalar engine
//!   tracks one resource, so the resource word is always `llc`
//! * `end <t> <pp>` — pp ids are allocated sequentially from 0 in
//!   begin order, so traces reference them by index
//! * `exit <t> <process>`
//! * `age <t>`
//! * `retry <t> <process> <site> llc` — a client-side retry of a shed
//!   or expired arrival
//!
//! Both dialects parse their events into the simulator's one call
//! record, [`rda_sim::TopoCall`]: a scalar `begin` becomes an LLC-only
//! demand vector and a scalar `retry` names the LLC, so a scalar
//! document already holds the calls the one reference model replays,
//! and only its configuration needs lifting ([`crate::topo_trace::lift`]).
//!
//! Shrunk counterexamples from the random generator are written in this
//! format under `tests/corpus/` and replayed by CI forever after.
//!
//! The topology dialect ([`crate::topo_trace`]) reads its lines with the
//! same reader and event parser, and parses and writes the `audit`,
//! `timeout`, `overload`, `deadline` and `breaker` directives and the
//! policy spelling with the same code.

use rda_core::{
    BreakerConfig, Demand, DemandAudit, OverloadConfig, PolicyKind, PpId, RdaConfig, ResourceKind,
    ShedPolicy, SiteId, SpecError, TopoConfig,
};
use rda_machine::MachineConfig;
use rda_sched::ProcessId;
use rda_sim::TopoCall;
use rda_simcore::SimTime;
use std::fmt::Write as _;

/// A parsed trace: the extension configuration plus the calls, each an
/// LLC-only demand or a retry that names the LLC.
#[derive(Debug, Clone, PartialEq)]
pub struct TraceDoc {
    /// Configuration both the model and the implementation replay under.
    pub cfg: RdaConfig,
    /// The calls, in call order.
    pub events: Vec<TopoCall>,
}

/// The header defaults: the paper's machine under RDA:Strict.
pub fn default_config() -> RdaConfig {
    RdaConfig::for_machine(&MachineConfig::xeon_e5_2420(), PolicyKind::Strict)
}

impl TraceDoc {
    /// A trace over the default header with the given calls.
    pub fn new(events: Vec<TopoCall>) -> Self {
        TraceDoc {
            cfg: default_config(),
            events,
        }
    }

    /// Parse the text format. Errors carry the 1-based line number.
    pub fn parse(text: &str) -> Result<Self, String> {
        let mut cfg = default_config();
        let events = read_lines(text, &SCALAR, |key, fields, fail| {
            let (audit, timeout) = (&mut cfg.demand_audit, &mut cfg.waitlist_timeout_cycles);
            if parse_shared_header(key, fields, fail, audit, timeout, &mut cfg.overload)? {
                return Ok(());
            }
            match key {
                "policy" => {
                    cfg.policy = match parse_policy(fields, fail)? {
                        (policy, used) if used == fields.len() => policy,
                        _ => return Err(fail("trailing words after policy")),
                    }
                }
                "llc" => cfg.llc_capacity = parse_amount(fields.first(), fail)?,
                "interval" => {
                    cfg.min_eval_interval_cycles = match fields {
                        [n] => n.parse().map_err(|_| fail("bad interval"))?,
                        _ => return Err(fail("expected `interval <cycles>`")),
                    }
                }
                _ => return Err(fail("unknown directive")),
            }
            Ok(())
        })?;
        // A scalar document is well formed when its topology lift is:
        // an `llc 0` lifts to a node with no LLC.
        let TopoConfig { spec, layers, .. } = TopoConfig::compat(&cfg);
        TopoConfig::validated(spec, layers)
            .map_err(|e| spec_error(keyed_lines(text, "llc").last(), e))?;
        Ok(TraceDoc { cfg, events })
    }

    /// Serialize to the text format. `parse(to_text(d)) == d` for any
    /// document the format can hold (amounts are written as raw bytes).
    /// A call it cannot hold is written as the topology dialect writes
    /// it, a line the scalar reader refuses.
    pub fn to_text(&self) -> String {
        let mut out = String::new();
        let c = &self.cfg;
        let _ = writeln!(out, "policy {}", policy_words(c.policy));
        let _ = writeln!(out, "llc {}", c.llc_capacity);
        let _ = writeln!(out, "interval {}", c.min_eval_interval_cycles);
        write_shared_header(
            &mut out,
            c.demand_audit,
            c.waitlist_timeout_cycles,
            c.overload,
        );
        SCALAR.write_calls(&mut out, &self.events);
        out
    }
}

/// The event lines of one `.trace` dialect. Both dialects read `begin`,
/// `end`, `exit`, `age` and `retry` lines into [`TopoCall`]s with one
/// parser and write them with one writer; they differ in the resource
/// words a `begin` or `retry` takes, and in `vbegin` vectors, which
/// only the topology dialect reads and which it writes for every begin.
pub(crate) struct Dialect {
    /// Whether `vbegin` lines are events.
    vectors: bool,
    /// The resource word as the expected line shapes spell it.
    res: &'static str,
    /// The resource kinds a `begin` or `retry` line may name.
    kinds: &'static [ResourceKind],
    /// The error for any other resource word.
    bad_kind: &'static str,
}

/// The scalar dialect: the scalar engine tracks the LLC only, so any
/// other resource word is a parse error (memory bandwidth and DRAM
/// belong to the topology dialect).
pub(crate) const SCALAR: Dialect = Dialect {
    vectors: false,
    res: "llc",
    kinds: &[ResourceKind::Llc],
    bad_kind: "the scalar engine tracks only `llc`",
};

/// The topology dialect: vector demands and every resource word.
pub(crate) const TOPO: Dialect = Dialect {
    vectors: true,
    res: "<res>",
    kinds: &ResourceKind::ALL,
    bad_kind: "resource must be llc|membw|dram",
};

impl Dialect {
    /// Read a resource word.
    fn kind(&self, word: &str, fail: &dyn Fn(&str) -> String) -> Result<ResourceKind, String> {
        let mut kinds = self.kinds.iter().copied();
        kinds
            .find(|k| k.label() == word)
            .ok_or_else(|| fail(self.bad_kind))
    }

    /// Read an event line into its call; `None` when `key` names no
    /// event of this dialect.
    fn call(
        &self,
        key: &str,
        fields: &[&str],
        fail: &dyn Fn(&str) -> String,
    ) -> Result<Option<TopoCall>, String> {
        let now = |t: &str| {
            t.parse()
                .map(SimTime::from_cycles)
                .map_err(|_| fail("bad time"))
        };
        let process = |p: &str| p.parse().map(ProcessId).map_err(|_| fail("bad process"));
        let site = |s: &str| s.parse().map(SiteId).map_err(|_| fail("bad site"));
        let shape = |line: &str| fail(&format!("expected `{line}`"));
        let call = match (key, fields) {
            ("vbegin", [t, p, s, v @ ..]) if self.vectors => TopoCall::Begin {
                now: now(t)?,
                process: process(p)?,
                site: site(s)?,
                demand: parse_vector(v, fail)?,
            },
            ("vbegin", _) if self.vectors => {
                return Err(shape("vbegin <t> <proc> <site> <llc> <membw> <dram>"))
            }
            ("begin", [t, p, s, k, amount]) => {
                let kind = self.kind(k, fail)?;
                TopoCall::Begin {
                    now: now(t)?,
                    process: process(p)?,
                    site: site(s)?,
                    demand: Demand::ZERO.with(kind, parse_amount(Some(amount), fail)?),
                }
            }
            ("begin", _) => {
                let res = self.res;
                return Err(shape(&format!("begin <t> <proc> <site> {res} <amount>")));
            }
            ("end", [t, pp]) => TopoCall::End {
                now: now(t)?,
                pp: pp.parse().map(PpId).map_err(|_| fail("bad pp id"))?,
            },
            ("end", _) => return Err(shape("end <t> <pp>")),
            ("exit", [t, p]) => TopoCall::Exit {
                now: now(t)?,
                process: process(p)?,
            },
            ("exit", _) => return Err(shape("exit <t> <process>")),
            ("age", [t]) => TopoCall::Age { now: now(t)? },
            ("age", _) => return Err(shape("age <t>")),
            ("retry", [t, p, s, k]) => {
                let kind = self.kind(k, fail)?;
                TopoCall::Retry {
                    now: now(t)?,
                    process: process(p)?,
                    site: site(s)?,
                    kind,
                }
            }
            ("retry", _) => return Err(shape(&format!("retry <t> <proc> <site> {}", self.res))),
            _ => return Ok(None),
        };
        Ok(Some(call))
    }

    /// Write one line per call, as [`Self::call`] reads them back. The
    /// scalar dialect writes an LLC-only begin as `begin … llc`; every
    /// other begin is a `vbegin` vector.
    pub(crate) fn write_calls(&self, out: &mut String, calls: &[TopoCall]) {
        for call in calls {
            let _ = match *call {
                TopoCall::Begin {
                    now,
                    process,
                    site,
                    demand,
                } => {
                    let (t, p, s) = (now.cycles(), process.0, site.0);
                    match demand.amounts {
                        [llc, 0, 0] if !self.vectors => {
                            writeln!(out, "begin {t} {p} {s} llc {llc}")
                        }
                        [llc, membw, dram] => {
                            writeln!(out, "vbegin {t} {p} {s} {llc} {membw} {dram}")
                        }
                    }
                }
                TopoCall::End { now, pp } => writeln!(out, "end {} {}", now.cycles(), pp.0),
                TopoCall::Exit { now, process } => {
                    writeln!(out, "exit {} {}", now.cycles(), process.0)
                }
                TopoCall::Age { now } => writeln!(out, "age {}", now.cycles()),
                TopoCall::Retry {
                    now,
                    process,
                    site,
                    kind,
                } => {
                    let (t, p, s) = (now.cycles(), process.0, site.0);
                    writeln!(out, "retry {t} {p} {s} {}", kind.label())
                }
            };
        }
    }
}

/// The line reader both dialects share. Skips blank lines and `#`
/// comments, splits each line into its first word (the key) and the
/// remaining fields, and reads the dialect's event lines into calls.
/// Every other line goes to `header`, with a `fail` that formats an
/// error carrying the 1-based line number; a header line after the
/// first event is an error.
pub(crate) fn read_lines(
    text: &str,
    dialect: &Dialect,
    mut header: impl FnMut(&str, &[&str], &dyn Fn(&str) -> String) -> Result<(), String>,
) -> Result<Vec<TopoCall>, String> {
    let mut calls = Vec::new();
    for (no, raw) in text.lines().enumerate() {
        let mut words = line_words(raw);
        let Some(key) = words.next() else {
            continue;
        };
        let fields: Vec<&str> = words.collect();
        let fail = |msg: &str| located(no, raw, msg);
        match dialect.call(key, &fields, &fail)? {
            Some(call) => calls.push(call),
            None if !calls.is_empty() => return Err(fail("header line after the first event")),
            None => header(key, &fields, &fail)?,
        }
    }
    Ok(calls)
}

/// The words of one line, `#` comment stripped.
fn line_words(raw: &str) -> std::str::SplitWhitespace<'_> {
    raw.split('#').next().unwrap_or_default().split_whitespace()
}

/// `msg` as the error of line `no` (0-based), whose text is `raw`.
fn located(no: usize, raw: &str, msg: &str) -> String {
    format!("line {}: {msg}: `{raw}`", no + 1)
}

/// The lines whose first word is `key`, each with its 0-based number,
/// in file order.
pub(crate) fn keyed_lines<'a>(
    text: &'a str,
    key: &'a str,
) -> impl Iterator<Item = (usize, &'a str)> + 'a {
    text.lines()
        .enumerate()
        .filter(move |(_, raw)| line_words(raw).next() == Some(key))
}

/// A [`TopoConfig::validated`] refusal, located at the header line that
/// declared the offending capacity when there is one.
pub(crate) fn spec_error(line: Option<(usize, &str)>, err: SpecError) -> String {
    match line {
        Some((no, raw)) => located(no, raw, &err.to_string()),
        None => err.to_string(),
    }
}

/// A `<llc> <membw> <dram>` vector of amounts.
pub(crate) fn parse_vector(
    fields: &[&str],
    fail: &dyn Fn(&str) -> String,
) -> Result<Demand, String> {
    match fields {
        [llc, membw, dram] => Ok(Demand::new(
            parse_amount(Some(llc), fail)?,
            parse_amount(Some(membw), fail)?,
            parse_amount(Some(dram), fail)?,
        )),
        _ => Err(fail("expected `<llc> <membw> <dram>`")),
    }
}

/// Parse one of the header directives both dialects share into the
/// configuration fields they set: `audit`, `timeout`, `overload`,
/// `deadline` and `breaker`. Returns `false` when `key` is none of
/// them.
pub(crate) fn parse_shared_header(
    key: &str,
    fields: &[&str],
    fail: &dyn Fn(&str) -> String,
    audit: &mut DemandAudit,
    timeout: &mut Option<u64>,
    overload: &mut Option<OverloadConfig>,
) -> Result<bool, String> {
    match key {
        "audit" => {
            *audit = match fields {
                ["trust"] => DemandAudit::Trust,
                ["clamp"] => DemandAudit::Clamp,
                ["reject"] => DemandAudit::Reject,
                _ => return Err(fail("unknown audit mode")),
            }
        }
        "timeout" => {
            *timeout = match fields {
                ["none"] => None,
                [n] => Some(n.parse().map_err(|_| fail("bad timeout"))?),
                _ => return Err(fail("expected `timeout none|<cycles>`")),
            }
        }
        "overload" => {
            *overload = match fields {
                [cap, policy] => Some(OverloadConfig {
                    waitlist_cap: cap.parse().map_err(|_| fail("bad waitlist cap"))?,
                    shed_policy: match *policy {
                        "reject_newest" => ShedPolicy::RejectNewest,
                        "reject_oldest" => ShedPolicy::RejectOldest,
                        "degrade" => ShedPolicy::DegradeToOverflow,
                        _ => {
                            return Err(fail(
                                "shed policy must be reject_newest|reject_oldest|degrade",
                            ))
                        }
                    },
                    deadline_cycles: None,
                    breaker: None,
                }),
                _ => return Err(fail("expected `overload <cap> <policy>`")),
            }
        }
        "deadline" => {
            let ov = overload
                .as_mut()
                .ok_or_else(|| fail("deadline requires a preceding overload line"))?;
            ov.deadline_cycles = match fields {
                [n] => Some(n.parse().map_err(|_| fail("bad deadline"))?),
                _ => return Err(fail("expected `deadline <cycles>`")),
            }
        }
        "breaker" => {
            let breaker = match fields {
                [high, low, trip, recover, min] => BreakerConfig {
                    high_water: parse_amount(Some(high), fail)?,
                    low_water: parse_amount(Some(low), fail)?,
                    trip_after: trip.parse().map_err(|_| fail("bad trip count"))?,
                    recover_after: recover.parse().map_err(|_| fail("bad recover count"))?,
                    shed_min_demand: parse_amount(Some(min), fail)?,
                },
                _ => {
                    return Err(fail(
                        "expected `breaker <high> <low> <trip> <recover> <min>`",
                    ))
                }
            };
            overload
                .as_mut()
                .ok_or_else(|| fail("breaker requires a preceding overload line"))?
                .breaker = Some(breaker);
        }
        _ => return Ok(false),
    }
    Ok(true)
}

/// Write the header directives both dialects share, as
/// [`parse_shared_header`] reads them.
pub(crate) fn write_shared_header(
    out: &mut String,
    audit: DemandAudit,
    timeout: Option<u64>,
    overload: Option<OverloadConfig>,
) {
    let audit = match audit {
        DemandAudit::Trust => "trust",
        DemandAudit::Clamp => "clamp",
        DemandAudit::Reject => "reject",
    };
    let _ = writeln!(out, "audit {audit}");
    match timeout {
        None => out.push_str("timeout none\n"),
        Some(t) => {
            let _ = writeln!(out, "timeout {t}");
        }
    }
    if let Some(ov) = overload {
        let policy = match ov.shed_policy {
            ShedPolicy::RejectNewest => "reject_newest",
            ShedPolicy::RejectOldest => "reject_oldest",
            ShedPolicy::DegradeToOverflow => "degrade",
        };
        let _ = writeln!(out, "overload {} {policy}", ov.waitlist_cap);
        if let Some(d) = ov.deadline_cycles {
            let _ = writeln!(out, "deadline {d}");
        }
        if let Some(b) = ov.breaker {
            let _ = writeln!(
                out,
                "breaker {} {} {} {} {}",
                b.high_water, b.low_water, b.trip_after, b.recover_after, b.shed_min_demand
            );
        }
    }
}

/// Parse a policy spelling from the front of `fields`; returns the
/// policy and the number of words it took. A Compromise factor must be
/// finite and at least 1, a Partitioned quota finite and in (0, 1].
pub(crate) fn parse_policy(
    fields: &[&str],
    fail: &dyn Fn(&str) -> String,
) -> Result<(PolicyKind, usize), String> {
    let number = |f: &str, ok: fn(f64) -> bool, what: &str| match f.parse::<f64>() {
        Ok(v) if v.is_finite() && ok(v) => Ok(v),
        _ => Err(fail(what)),
    };
    match fields {
        ["default", ..] => Ok((PolicyKind::DefaultOnly, 1)),
        ["strict", ..] => Ok((PolicyKind::Strict, 1)),
        ["compromise", f, ..] => {
            let what = "compromise factor must be finite and at least 1";
            let factor = number(f, |v| v >= 1.0, what)?;
            Ok((PolicyKind::Compromise { factor }, 2))
        }
        ["partitioned", f, ..] => {
            let what = "partitioned quota must be finite and in (0, 1]";
            let quota_frac = number(f, |v| v > 0.0 && v <= 1.0, what)?;
            Ok((PolicyKind::Partitioned { quota_frac }, 2))
        }
        _ => Err(fail("unknown policy")),
    }
}

/// The spelling [`parse_policy`] reads back as `policy`.
pub(crate) fn policy_words(policy: PolicyKind) -> String {
    match policy {
        PolicyKind::DefaultOnly => "default".to_string(),
        PolicyKind::Strict => "strict".to_string(),
        PolicyKind::Compromise { factor } => format!("compromise {factor}"),
        PolicyKind::Partitioned { quota_frac } => format!("partitioned {quota_frac}"),
    }
}

/// An amount field: a raw byte count, or a decimal with an `mb` suffix
/// (`10mb`, `6.3mb`). Shared with the topology trace format.
pub(crate) fn parse_amount(
    field: Option<&&str>,
    fail: &dyn Fn(&str) -> String,
) -> Result<u64, String> {
    let s = field.ok_or_else(|| fail("missing amount"))?;
    if let Some(mbs) = s.strip_suffix("mb") {
        let v: f64 = mbs.parse().map_err(|_| fail("bad mb amount"))?;
        if !v.is_finite() || v < 0.0 {
            return Err(fail("mb amount must be finite and non-negative"));
        }
        Ok(rda_core::mb(v))
    } else {
        s.parse().map_err(|_| fail("bad amount"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_header_and_events() {
        let doc = TraceDoc::parse(
            "# demo\npolicy compromise 2\nllc 1000\naudit clamp\ntimeout 500\n\
             begin 0 0 0 llc 600\nbegin 10 1 1 llc 5mb\nend 20 0\nexit 30 1\nage 40\n",
        )
        .unwrap();
        assert_eq!(doc.cfg.policy, PolicyKind::Compromise { factor: 2.0 });
        assert_eq!(doc.cfg.llc_capacity, 1000);
        assert_eq!(doc.cfg.demand_audit, DemandAudit::Clamp);
        assert_eq!(doc.cfg.waitlist_timeout_cycles, Some(500));
        assert_eq!(doc.events.len(), 5);
        assert_eq!(
            doc.events[1],
            TopoCall::Begin {
                now: SimTime::from_cycles(10),
                process: ProcessId(1),
                site: SiteId(1),
                demand: Demand::llc(rda_core::mb(5.0)),
            }
        );
    }

    #[test]
    fn roundtrips_through_text() {
        let at = SimTime::from_cycles;
        let mut doc = TraceDoc::new(vec![
            TopoCall::Begin {
                now: at(0),
                process: ProcessId(0),
                site: SiteId(3),
                demand: Demand::llc(123_456),
            },
            TopoCall::Age { now: at(7) },
            TopoCall::End {
                now: at(9),
                pp: PpId(0),
            },
            TopoCall::Exit {
                now: at(11),
                process: ProcessId(0),
            },
            TopoCall::Retry {
                now: at(13),
                process: ProcessId(2),
                site: SiteId(1),
                kind: ResourceKind::Llc,
            },
        ]);
        doc.cfg.policy = PolicyKind::Partitioned { quota_frac: 0.25 };
        doc.cfg.waitlist_timeout_cycles = Some(999);
        doc.cfg.overload = Some(OverloadConfig {
            waitlist_cap: 8,
            shed_policy: ShedPolicy::RejectOldest,
            deadline_cycles: Some(12_000),
            breaker: Some(BreakerConfig {
                high_water: 14_000_000,
                low_water: 7_000_000,
                trip_after: 3,
                recover_after: 5,
                shed_min_demand: 1_000,
            }),
        });
        let reparsed = TraceDoc::parse(&doc.to_text()).unwrap();
        assert_eq!(reparsed, doc);
    }

    #[test]
    fn parses_overload_headers() {
        let doc =
            TraceDoc::parse("overload 4 degrade\ndeadline 500\nbreaker 10mb 5mb 2 3 1000\nage 1\n")
                .unwrap();
        let ov = doc.cfg.overload.expect("overload parsed");
        assert_eq!(ov.waitlist_cap, 4);
        assert_eq!(ov.shed_policy, ShedPolicy::DegradeToOverflow);
        assert_eq!(ov.deadline_cycles, Some(500));
        let b = ov.breaker.expect("breaker parsed");
        assert_eq!(b.high_water, rda_core::mb(10.0));
        assert_eq!(b.low_water, rda_core::mb(5.0));
        assert_eq!((b.trip_after, b.recover_after), (2, 3));
        assert_eq!(b.shed_min_demand, 1000);
    }

    #[test]
    fn rejects_malformed_lines_with_line_numbers() {
        for (text, needle) in [
            ("begin 0 0 0 llc", "line 1"),
            ("policy sloppy", "unknown policy"),
            (
                "end 0 0\npolicy strict",
                "header line after the first event",
            ),
            ("frobnicate 1 2 3", "unknown directive"),
            ("begin 0 0 0 disk 10", "tracks only `llc`"),
            (
                "age 0\nbegin 1 0 0 membw 10",
                "line 2: the scalar engine tracks only `llc`",
            ),
            ("membw 1000", "line 1: unknown directive"),
            ("deadline 500", "requires a preceding overload"),
            ("breaker 1 2 3 4 5", "requires a preceding overload"),
            ("overload 4 sloppy", "reject_newest|reject_oldest|degrade"),
            ("overload 4 degrade\nbreaker 1 2 3", "expected `breaker"),
            ("retry 0 0 0 membw", "tracks only `llc`"),
            ("policy compromise 0.5", "line 1: compromise factor"),
            ("policy compromise NaN", "line 1: compromise factor"),
            ("policy compromise inf", "compromise factor must be"),
            ("policy compromise x", "compromise factor must be"),
            ("policy partitioned 0", "line 1: partitioned quota"),
            ("policy partitioned 1.5", "partitioned quota must be"),
            ("policy partitioned NaN", "partitioned quota must be"),
            (
                "policy strict\nllc 0\nbegin 0 0 0 llc 10",
                "line 2: node0 declares zero capacity for constrained resource llc",
            ),
        ] {
            let err = TraceDoc::parse(text).unwrap_err();
            assert!(err.contains(needle), "`{text}` gave `{err}`");
        }
    }

    #[test]
    fn comments_and_blanks_are_ignored() {
        let doc = TraceDoc::parse("\n# hi\n  # indented\nage 5 # trailing\n").unwrap();
        let age = TopoCall::Age {
            now: SimTime::from_cycles(5),
        };
        assert_eq!(doc.events, vec![age]);
    }
}
