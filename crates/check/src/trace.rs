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
//! * `llc <bytes>` — LLC capacity
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
//! Shrunk counterexamples from the random generator are written in this
//! format under `tests/corpus/` and replayed by CI forever after.
//!
//! The topology dialect ([`crate::topo_trace`]) reads its lines with the
//! same reader, and parses and writes the `audit`, `timeout`,
//! `overload`, `deadline` and `breaker` directives and the policy
//! spelling with the same code.

use rda_core::{BreakerConfig, DemandAudit, OverloadConfig, PolicyKind, RdaConfig, ShedPolicy};
use rda_machine::MachineConfig;
use std::fmt::Write as _;

/// One replayable extension call.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TraceEvent {
    /// `pp_begin(process, site, {LLC, amount})` at cycle `t`.
    Begin {
        /// Call time, cycles.
        t: u64,
        /// Calling process.
        process: u32,
        /// Static call site.
        site: u32,
        /// Declared LLC demand (pre-audit), bytes.
        amount: u64,
    },
    /// `pp_end(pp)` at cycle `t`.
    End {
        /// Call time, cycles.
        t: u64,
        /// The period id to end (sequential from 0 in begin order).
        pp: u64,
    },
    /// `process_exit(process)` at cycle `t`.
    Exit {
        /// Call time, cycles.
        t: u64,
        /// The exiting process.
        process: u32,
    },
    /// `age_waitlist()` at cycle `t`.
    Age {
        /// Call time, cycles.
        t: u64,
    },
    /// `note_retry(process, site, LLC)` at cycle `t`.
    Retry {
        /// Call time, cycles.
        t: u64,
        /// The retrying process.
        process: u32,
        /// Static call site of the retried demand.
        site: u32,
    },
}

/// A parsed trace: the extension configuration plus the event sequence.
#[derive(Debug, Clone, PartialEq)]
pub struct TraceDoc {
    /// Configuration both the model and the implementation replay under.
    pub cfg: RdaConfig,
    /// The events, in call order.
    pub events: Vec<TraceEvent>,
}

/// The header defaults: the paper's machine under RDA:Strict.
pub fn default_config() -> RdaConfig {
    RdaConfig::for_machine(&MachineConfig::xeon_e5_2420(), PolicyKind::Strict)
}

impl TraceDoc {
    /// A trace over the default header with the given events.
    pub fn new(events: Vec<TraceEvent>) -> Self {
        TraceDoc {
            cfg: default_config(),
            events,
        }
    }

    /// Parse the text format. Errors carry the 1-based line number.
    pub fn parse(text: &str) -> Result<Self, String> {
        let mut cfg = default_config();
        let mut events = Vec::new();
        let event_keys = ["begin", "end", "exit", "age", "retry"];
        read_lines(text, &event_keys, |key, fields, fail| {
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
                "begin" => match fields {
                    [t, process, site, resource, amount] => {
                        expect_llc(resource, fail)?;
                        events.push(TraceEvent::Begin {
                            t: t.parse().map_err(|_| fail("bad time"))?,
                            process: process.parse().map_err(|_| fail("bad process"))?,
                            site: site.parse().map_err(|_| fail("bad site"))?,
                            amount: parse_amount(Some(amount), fail)?,
                        })
                    }
                    _ => return Err(fail("expected `begin <t> <proc> <site> llc <amount>`")),
                },
                "end" => match fields {
                    [t, pp] => events.push(TraceEvent::End {
                        t: t.parse().map_err(|_| fail("bad time"))?,
                        pp: pp.parse().map_err(|_| fail("bad pp id"))?,
                    }),
                    _ => return Err(fail("expected `end <t> <pp>`")),
                },
                "exit" => match fields {
                    [t, process] => events.push(TraceEvent::Exit {
                        t: t.parse().map_err(|_| fail("bad time"))?,
                        process: process.parse().map_err(|_| fail("bad process"))?,
                    }),
                    _ => return Err(fail("expected `exit <t> <process>`")),
                },
                "age" => match fields {
                    [t] => events.push(TraceEvent::Age {
                        t: t.parse().map_err(|_| fail("bad time"))?,
                    }),
                    _ => return Err(fail("expected `age <t>`")),
                },
                "retry" => match fields {
                    [t, process, site, resource] => {
                        expect_llc(resource, fail)?;
                        events.push(TraceEvent::Retry {
                            t: t.parse().map_err(|_| fail("bad time"))?,
                            process: process.parse().map_err(|_| fail("bad process"))?,
                            site: site.parse().map_err(|_| fail("bad site"))?,
                        })
                    }
                    _ => return Err(fail("expected `retry <t> <proc> <site> llc`")),
                },
                _ => return Err(fail("unknown directive")),
            }
            Ok(())
        })?;
        Ok(TraceDoc { cfg, events })
    }

    /// Serialize to the text format. `parse(to_text(d)) == d` for any
    /// document (amounts are written as raw bytes).
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
        for ev in &self.events {
            let _ = match *ev {
                TraceEvent::Begin {
                    t,
                    process,
                    site,
                    amount,
                } => writeln!(out, "begin {t} {process} {site} llc {amount}"),
                TraceEvent::End { t, pp } => writeln!(out, "end {t} {pp}"),
                TraceEvent::Exit { t, process } => writeln!(out, "exit {t} {process}"),
                TraceEvent::Age { t } => writeln!(out, "age {t}"),
                TraceEvent::Retry { t, process, site } => {
                    writeln!(out, "retry {t} {process} {site} llc")
                }
            };
        }
        out
    }
}

/// The scalar engine tracks the LLC only; any other resource word is
/// a parse error (memory bandwidth and DRAM belong to the topology
/// dialect).
fn expect_llc(word: &str, fail: &dyn Fn(&str) -> String) -> Result<(), String> {
    match word {
        "llc" => Ok(()),
        _ => Err(fail("the scalar engine tracks only `llc`")),
    }
}

/// The line reader both dialects share. Skips blank lines and `#`
/// comments, splits each line into its first word (the key) and the
/// remaining fields, rejects a header line after the first event (a
/// key in `event_keys`), and hands each line to `line` with a `fail`
/// that formats an error carrying the 1-based line number.
pub(crate) fn read_lines(
    text: &str,
    event_keys: &[&str],
    mut line: impl FnMut(&str, &[&str], &dyn Fn(&str) -> String) -> Result<(), String>,
) -> Result<(), String> {
    let mut in_events = false;
    for (no, raw) in text.lines().enumerate() {
        let content = raw.split('#').next().unwrap_or_default();
        let mut words = content.split_whitespace();
        let Some(key) = words.next() else {
            continue;
        };
        let fields: Vec<&str> = words.collect();
        let fail = |msg: &str| format!("line {}: {msg}: `{raw}`", no + 1);
        let is_event = event_keys.contains(&key);
        if in_events && !is_event {
            return Err(fail("header line after the first event"));
        }
        in_events |= is_event;
        line(key, &fields, &fail)?;
    }
    Ok(())
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
/// policy and the number of words it took.
pub(crate) fn parse_policy(
    fields: &[&str],
    fail: &dyn Fn(&str) -> String,
) -> Result<(PolicyKind, usize), String> {
    match fields {
        ["default", ..] => Ok((PolicyKind::DefaultOnly, 1)),
        ["strict", ..] => Ok((PolicyKind::Strict, 1)),
        ["compromise", f, ..] => Ok((
            PolicyKind::Compromise {
                factor: f.parse().map_err(|_| fail("bad factor"))?,
            },
            2,
        )),
        ["partitioned", f, ..] => Ok((
            PolicyKind::Partitioned {
                quota_frac: f.parse().map_err(|_| fail("bad quota"))?,
            },
            2,
        )),
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
            TraceEvent::Begin {
                t: 10,
                process: 1,
                site: 1,
                amount: rda_core::mb(5.0),
            }
        );
    }

    #[test]
    fn roundtrips_through_text() {
        let mut doc = TraceDoc::new(vec![
            TraceEvent::Begin {
                t: 0,
                process: 0,
                site: 3,
                amount: 123_456,
            },
            TraceEvent::Age { t: 7 },
            TraceEvent::End { t: 9, pp: 0 },
            TraceEvent::Exit { t: 11, process: 0 },
            TraceEvent::Retry {
                t: 13,
                process: 2,
                site: 1,
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
        let doc = TraceDoc::parse(
            "overload 4 degrade\ndeadline 500\nbreaker 10mb 5mb 2 3 1000\nage 1\n",
        )
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
            ("end 0 0\npolicy strict", "header line after the first event"),
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
        ] {
            let err = TraceDoc::parse(text).unwrap_err();
            assert!(err.contains(needle), "`{text}` gave `{err}`");
        }
    }

    #[test]
    fn comments_and_blanks_are_ignored() {
        let doc = TraceDoc::parse("\n# hi\n  # indented\nage 5 # trailing\n").unwrap();
        assert_eq!(doc.events, vec![TraceEvent::Age { t: 5 }]);
    }
}
