//! The `.trace` text format for the topology engine: replayable event
//! traces over multi-node, multi-resource, layered configurations.
//!
//! A topology trace extends the scalar format of [`crate::trace`] with
//! a machine header and vector demands:
//!
//! ```text
//! # Two NUMA nodes, a guaranteed latency layer, vector demands.
//! node 100 50 1000
//! node 100 50 1000
//! layer batch strict
//! layer latency strict guarantee 40 0 0
//! assign 2 1
//! audit trust
//!
//! vbegin 0    0 0 60 0 0
//! vbegin 10   2 1 30 10 0
//! end    20   0
//! ```
//!
//! Header keys (each optional; the default is the single-node
//! compatibility lift of the scalar default header):
//!
//! * `node <llc> <membw> <dram>` — appends one NUMA node; the first
//!   `node` line replaces the default topology
//! * `layer <name> <policy...> [guarantee <llc> <membw> <dram>]` —
//!   appends one layer (policy spelled as in the scalar format); the
//!   first `layer` line replaces the default single layer
//! * `assign <process> <layer>` — pins a process to a layer by index
//! * `audit`, `timeout`, `overload`, `deadline`, `breaker` — exactly as
//!   in the scalar format
//!
//! Events (amounts accept raw bytes or a decimal `mb` suffix):
//!
//! * `vbegin <t> <process> <site> <llc> <membw> <dram>` — a vector
//!   demand; `begin <t> <process> <site> <llc|membw|dram> <amount>` is
//!   accepted as single-component sugar
//! * `end <t> <pp>` / `exit <t> <process>` / `age <t>` — as scalar
//! * `retry <t> <process> <site> <llc|membw|dram>`
//!
//! [`lift`] converts any scalar [`TraceDoc`] into this vocabulary under
//! [`TopoConfig::compat`] — the bridge that replays the whole legacy
//! corpus through the topology oracle (DESIGN.md §9's compatibility
//! argument, checked event by event).

use crate::trace::{parse_amount, TraceDoc, TraceEvent};
use rda_core::{
    BreakerConfig, Demand, DemandAudit, LayerId, LayerSet, LayerSpec, OverloadConfig, PolicyKind,
    Resource, ResourceKind, ShedPolicy, TopoConfig, TopoSpec,
};
use std::fmt::Write as _;

/// One replayable topology-engine call.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TopoEvent {
    /// `pp_begin(process, site, demand)` at cycle `t`.
    Begin {
        /// Call time, cycles.
        t: u64,
        /// Calling process.
        process: u32,
        /// Static call site.
        site: u32,
        /// Declared demand vector (pre-audit).
        demand: Demand,
    },
    /// `pp_end(pp)` at cycle `t` (pp ids sequential from 0 in begin
    /// order).
    End {
        /// Call time, cycles.
        t: u64,
        /// The period id to end.
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
    /// `note_retry(process, site, kind)` at cycle `t`.
    Retry {
        /// Call time, cycles.
        t: u64,
        /// The retrying process.
        process: u32,
        /// Static call site of the retried demand.
        site: u32,
        /// The resource kind the retried demand targets.
        kind: ResourceKind,
    },
}

/// A parsed topology trace: configuration plus the event sequence.
#[derive(Debug, Clone, PartialEq)]
pub struct TopoDoc {
    /// Configuration both machines replay under.
    pub cfg: TopoConfig,
    /// The events, in call order.
    pub events: Vec<TopoEvent>,
}

/// The header defaults: the scalar default header lifted to one node.
pub fn default_topo_config() -> TopoConfig {
    TopoConfig::compat(&crate::trace::default_config())
}

fn parse_kind(word: &str) -> Option<ResourceKind> {
    match word {
        "llc" => Some(ResourceKind::Llc),
        "membw" => Some(ResourceKind::MemBw),
        "dram" => Some(ResourceKind::DramCap),
        _ => None,
    }
}

fn parse_policy(
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

fn parse_vector(fields: &[&str], fail: &dyn Fn(&str) -> String) -> Result<Demand, String> {
    match fields {
        [llc, membw, dram] => Ok(Demand::new(
            parse_amount(Some(llc), fail)?,
            parse_amount(Some(membw), fail)?,
            parse_amount(Some(dram), fail)?,
        )),
        _ => Err(fail("expected `<llc> <membw> <dram>`")),
    }
}

impl TopoDoc {
    /// A trace over the default header with the given events.
    pub fn new(events: Vec<TopoEvent>) -> Self {
        TopoDoc {
            cfg: default_topo_config(),
            events,
        }
    }

    /// Parse the text format. Errors carry the 1-based line number.
    pub fn parse(text: &str) -> Result<Self, String> {
        let mut cfg = default_topo_config();
        let mut caps: Vec<[u64; 3]> = Vec::new();
        let mut layers: Vec<LayerSpec> = Vec::new();
        let mut assigns: Vec<(u32, u32)> = Vec::new();
        let mut events = Vec::new();
        for (no, raw) in text.lines().enumerate() {
            let line = raw.split('#').next().unwrap_or("").trim();
            if line.is_empty() {
                continue;
            }
            let no = no + 1;
            let mut words = line.split_whitespace();
            let key = words.next().expect("non-empty line has a first word");
            let fields: Vec<&str> = words.collect();
            let fail = |msg: &str| format!("line {no}: {msg}: `{raw}`");
            let is_event = matches!(key, "vbegin" | "begin" | "end" | "exit" | "age" | "retry");
            if !is_event && !events.is_empty() {
                return Err(fail("header line after the first event"));
            }
            match key {
                "node" => caps.push(parse_vector(&fields, &fail)?.amounts),
                "layer" => match fields.as_slice() {
                    [name, rest @ ..] if !rest.is_empty() => {
                        let (policy, used) = parse_policy(rest, &fail)?;
                        let mut spec = LayerSpec::new(*name, policy);
                        match &rest[used..] {
                            [] => {}
                            ["guarantee", g @ ..] => {
                                spec = spec.with_guarantee(parse_vector(g, &fail)?);
                            }
                            _ => return Err(fail("trailing words after layer policy")),
                        }
                        layers.push(spec);
                    }
                    _ => return Err(fail("expected `layer <name> <policy...>`")),
                },
                "assign" => match fields.as_slice() {
                    [process, layer] => assigns.push((
                        process.parse().map_err(|_| fail("bad process"))?,
                        layer.parse().map_err(|_| fail("bad layer index"))?,
                    )),
                    _ => return Err(fail("expected `assign <process> <layer>`")),
                },
                "audit" => {
                    cfg.demand_audit = match fields.as_slice() {
                        ["trust"] => DemandAudit::Trust,
                        ["clamp"] => DemandAudit::Clamp,
                        ["reject"] => DemandAudit::Reject,
                        _ => return Err(fail("unknown audit mode")),
                    }
                }
                "timeout" => {
                    cfg.waitlist_timeout_cycles = match fields.as_slice() {
                        ["none"] => None,
                        [n] => Some(n.parse().map_err(|_| fail("bad timeout"))?),
                        _ => return Err(fail("expected `timeout none|<cycles>`")),
                    }
                }
                "overload" => {
                    cfg.overload = match fields.as_slice() {
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
                    let ov = cfg
                        .overload
                        .as_mut()
                        .ok_or_else(|| fail("deadline requires a preceding overload line"))?;
                    ov.deadline_cycles = match fields.as_slice() {
                        [n] => Some(n.parse().map_err(|_| fail("bad deadline"))?),
                        _ => return Err(fail("expected `deadline <cycles>`")),
                    }
                }
                "breaker" => {
                    let breaker = match fields.as_slice() {
                        [high, low, trip, recover, min] => BreakerConfig {
                            high_water: parse_amount(Some(high), &fail)?,
                            low_water: parse_amount(Some(low), &fail)?,
                            trip_after: trip.parse().map_err(|_| fail("bad trip count"))?,
                            recover_after: recover
                                .parse()
                                .map_err(|_| fail("bad recover count"))?,
                            shed_min_demand: parse_amount(Some(min), &fail)?,
                        },
                        _ => {
                            return Err(fail(
                                "expected `breaker <high> <low> <trip> <recover> <min>`",
                            ))
                        }
                    };
                    cfg.overload
                        .as_mut()
                        .ok_or_else(|| fail("breaker requires a preceding overload line"))?
                        .breaker = Some(breaker);
                }
                "vbegin" => match fields.as_slice() {
                    [t, process, site, v @ ..] => events.push(TopoEvent::Begin {
                        t: t.parse().map_err(|_| fail("bad time"))?,
                        process: process.parse().map_err(|_| fail("bad process"))?,
                        site: site.parse().map_err(|_| fail("bad site"))?,
                        demand: parse_vector(v, &fail)?,
                    }),
                    _ => return Err(fail(
                        "expected `vbegin <t> <proc> <site> <llc> <membw> <dram>`",
                    )),
                },
                "begin" => match fields.as_slice() {
                    [t, process, site, kind, amount] => {
                        let k = parse_kind(kind)
                            .ok_or_else(|| fail("resource must be llc|membw|dram"))?;
                        events.push(TopoEvent::Begin {
                            t: t.parse().map_err(|_| fail("bad time"))?,
                            process: process.parse().map_err(|_| fail("bad process"))?,
                            site: site.parse().map_err(|_| fail("bad site"))?,
                            demand: Demand::ZERO.with(k, parse_amount(Some(amount), &fail)?),
                        });
                    }
                    _ => return Err(fail("expected `begin <t> <proc> <site> <res> <amount>`")),
                },
                "end" => match fields.as_slice() {
                    [t, pp] => events.push(TopoEvent::End {
                        t: t.parse().map_err(|_| fail("bad time"))?,
                        pp: pp.parse().map_err(|_| fail("bad pp id"))?,
                    }),
                    _ => return Err(fail("expected `end <t> <pp>`")),
                },
                "exit" => match fields.as_slice() {
                    [t, process] => events.push(TopoEvent::Exit {
                        t: t.parse().map_err(|_| fail("bad time"))?,
                        process: process.parse().map_err(|_| fail("bad process"))?,
                    }),
                    _ => return Err(fail("expected `exit <t> <process>`")),
                },
                "age" => match fields.as_slice() {
                    [t] => events.push(TopoEvent::Age {
                        t: t.parse().map_err(|_| fail("bad time"))?,
                    }),
                    _ => return Err(fail("expected `age <t>`")),
                },
                "retry" => match fields.as_slice() {
                    [t, process, site, kind] => events.push(TopoEvent::Retry {
                        t: t.parse().map_err(|_| fail("bad time"))?,
                        process: process.parse().map_err(|_| fail("bad process"))?,
                        site: site.parse().map_err(|_| fail("bad site"))?,
                        kind: parse_kind(kind)
                            .ok_or_else(|| fail("resource must be llc|membw|dram"))?,
                    }),
                    _ => return Err(fail("expected `retry <t> <proc> <site> <res>`")),
                },
                _ => return Err(fail("unknown directive")),
            }
        }
        if !caps.is_empty() {
            cfg.spec = TopoSpec { caps };
        }
        if !layers.is_empty() || !assigns.is_empty() {
            let mut set = if layers.is_empty() {
                cfg.layers.clone()
            } else {
                LayerSet::new(layers)
            };
            for (process, layer) in assigns {
                if layer as usize >= set.len() {
                    return Err(format!("assign references unknown layer {layer}"));
                }
                set.assign(process, LayerId(layer));
            }
            cfg.layers = set;
        }
        Ok(TopoDoc { cfg, events })
    }

    /// Serialize to the text format. `parse(to_text(d)) == d` for any
    /// document (amounts are written as raw bytes, demands as
    /// `vbegin`).
    pub fn to_text(&self) -> String {
        let mut out = String::new();
        let c = &self.cfg;
        for cap in &c.spec.caps {
            let _ = writeln!(out, "node {} {} {}", cap[0], cap[1], cap[2]);
        }
        for spec in &c.layers.layers {
            let policy = match spec.policy {
                PolicyKind::DefaultOnly => "default".to_string(),
                PolicyKind::Strict => "strict".to_string(),
                PolicyKind::Compromise { factor } => format!("compromise {factor}"),
                PolicyKind::Partitioned { quota_frac } => format!("partitioned {quota_frac}"),
            };
            let _ = write!(out, "layer {} {policy}", spec.name);
            if let Some(g) = spec.guarantee {
                let _ = write!(
                    out,
                    " guarantee {} {} {}",
                    g.amounts[0], g.amounts[1], g.amounts[2]
                );
            }
            out.push('\n');
        }
        for &(process, layer) in c.layers.assignments() {
            let _ = writeln!(out, "assign {process} {layer}");
        }
        let audit = match c.demand_audit {
            DemandAudit::Trust => "trust",
            DemandAudit::Clamp => "clamp",
            DemandAudit::Reject => "reject",
        };
        let _ = writeln!(out, "audit {audit}");
        match c.waitlist_timeout_cycles {
            None => out.push_str("timeout none\n"),
            Some(t) => {
                let _ = writeln!(out, "timeout {t}");
            }
        }
        if let Some(ov) = c.overload {
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
        for ev in &self.events {
            match *ev {
                TopoEvent::Begin {
                    t,
                    process,
                    site,
                    demand,
                } => {
                    let _ = writeln!(
                        out,
                        "vbegin {t} {process} {site} {} {} {}",
                        demand.amounts[0], demand.amounts[1], demand.amounts[2]
                    );
                }
                TopoEvent::End { t, pp } => {
                    let _ = writeln!(out, "end {t} {pp}");
                }
                TopoEvent::Exit { t, process } => {
                    let _ = writeln!(out, "exit {t} {process}");
                }
                TopoEvent::Age { t } => {
                    let _ = writeln!(out, "age {t}");
                }
                TopoEvent::Retry {
                    t,
                    process,
                    site,
                    kind,
                } => {
                    let _ = writeln!(
                        out,
                        "retry {t} {process} {site} {}",
                        kind.label()
                    );
                }
            }
        }
        out
    }
}

/// Lift a scalar trace into the topology vocabulary: the configuration
/// through [`TopoConfig::compat`] and every scalar demand as a
/// single-component vector. Replaying the lifted document through the
/// topology oracle is the executable form of DESIGN.md §9's
/// compatibility argument.
pub fn lift(doc: &TraceDoc) -> TopoDoc {
    let events = doc
        .events
        .iter()
        .map(|ev| match *ev {
            TraceEvent::Begin {
                t,
                process,
                site,
                resource,
                amount,
            } => TopoEvent::Begin {
                t,
                process,
                site,
                demand: Demand::ZERO.with(lift_kind(resource), amount),
            },
            TraceEvent::End { t, pp } => TopoEvent::End { t, pp },
            TraceEvent::Exit { t, process } => TopoEvent::Exit { t, process },
            TraceEvent::Age { t } => TopoEvent::Age { t },
            TraceEvent::Retry {
                t,
                process,
                site,
                resource,
            } => TopoEvent::Retry {
                t,
                process,
                site,
                kind: lift_kind(resource),
            },
        })
        .collect();
    TopoDoc {
        cfg: TopoConfig::compat(&doc.cfg),
        events,
    }
}

/// The topology kind a scalar resource lifts to.
pub fn lift_kind(r: Resource) -> ResourceKind {
    match r {
        Resource::Llc => ResourceKind::Llc,
        Resource::MemBandwidth => ResourceKind::MemBw,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_topology_header_and_vector_events() {
        let doc = TopoDoc::parse(
            "# demo\nnode 100 50 1000\nnode 100 50 1000\n\
             layer batch compromise 2\nlayer latency strict guarantee 40 0 0\nassign 2 1\n\
             audit clamp\ntimeout 500\n\
             vbegin 0 0 0 60 5 0\nbegin 10 2 1 membw 5mb\nend 20 0\nexit 30 2\nage 40\n\
             retry 50 0 0 dram\n",
        )
        .unwrap();
        assert_eq!(doc.cfg.spec.node_count(), 2);
        assert_eq!(doc.cfg.layers.len(), 2);
        assert_eq!(doc.cfg.layers.layer_of(2), LayerId(1));
        assert_eq!(doc.cfg.layers.spec(LayerId(1)).guarantee, Some(Demand::llc(40)));
        assert_eq!(doc.cfg.demand_audit, DemandAudit::Clamp);
        assert_eq!(doc.events.len(), 6);
        assert_eq!(
            doc.events[0],
            TopoEvent::Begin {
                t: 0,
                process: 0,
                site: 0,
                demand: Demand::new(60, 5, 0),
            }
        );
        assert_eq!(
            doc.events[1],
            TopoEvent::Begin {
                t: 10,
                process: 2,
                site: 1,
                demand: Demand::new(0, rda_core::mb(5.0), 0),
            }
        );
        assert_eq!(
            doc.events[5],
            TopoEvent::Retry {
                t: 50,
                process: 0,
                site: 0,
                kind: ResourceKind::DramCap,
            }
        );
    }

    #[test]
    fn roundtrips_through_text() {
        let mut doc = TopoDoc::parse(
            "node 10 20 30\nnode 40 50 60\n\
             layer a strict\nlayer b partitioned 0.25 guarantee 1 2 3\nassign 7 1\n\
             audit reject\ntimeout 999\noverload 8 reject_oldest\ndeadline 12000\n\
             breaker 14000000 7000000 3 5 1000\n\
             vbegin 0 0 3 123456 0 7\nage 7\nend 9 0\nexit 11 0\nretry 13 2 1 membw\n",
        )
        .unwrap();
        let reparsed = TopoDoc::parse(&doc.to_text()).unwrap();
        assert_eq!(reparsed, doc);
        // Single-component `begin` sugar normalizes to `vbegin`.
        doc.events.push(TopoEvent::Begin {
            t: 20,
            process: 1,
            site: 0,
            demand: Demand::llc(5),
        });
        assert_eq!(TopoDoc::parse(&doc.to_text()).unwrap(), doc);
    }

    #[test]
    fn rejects_malformed_lines_with_line_numbers() {
        for (text, needle) in [
            ("node 1 2", "expected `<llc> <membw> <dram>`"),
            ("layer solo", "expected `layer"),
            ("layer solo sloppy", "unknown policy"),
            ("layer a strict guarantee 1 2", "expected `<llc> <membw> <dram>`"),
            ("layer a strict extra", "trailing words"),
            ("assign 0 3", "unknown layer 3"),
            ("vbegin 0 0 0 1 2", "expected `<llc> <membw> <dram>`"),
            ("vbegin 0 0", "expected `vbegin"),
            ("begin 0 0 0 disk 10", "llc|membw|dram"),
            ("retry 0 0 0 disk", "llc|membw|dram"),
            ("end 0 0\nnode 1 2 3", "header line after the first event"),
            ("frobnicate", "unknown directive"),
        ] {
            let err = TopoDoc::parse(text).unwrap_err();
            assert!(err.contains(needle), "`{text}` gave `{err}`");
        }
    }

    #[test]
    fn lifting_preserves_the_scalar_configuration_shape() {
        let scalar = TraceDoc::parse(
            "policy strict\nllc 1000\naudit clamp\ntimeout 500\n\
             begin 0 0 0 llc 600\nbegin 10 1 1 membw 5mb\nend 20 0\nretry 30 1 1 membw\n",
        )
        .unwrap();
        let lifted = lift(&scalar);
        assert_eq!(lifted.cfg.spec.node_count(), 1);
        assert!(lifted.cfg.layers.is_trivial());
        assert_eq!(lifted.cfg.spec.caps[0][0], 1000);
        assert_eq!(lifted.events.len(), 4);
        assert_eq!(
            lifted.events[1],
            TopoEvent::Begin {
                t: 10,
                process: 1,
                site: 1,
                demand: Demand::new(0, rda_core::mb(5.0), 0),
            }
        );
        // Lifted docs roundtrip through the topology text format too.
        assert_eq!(TopoDoc::parse(&lifted.to_text()).unwrap(), lifted);
    }
}
