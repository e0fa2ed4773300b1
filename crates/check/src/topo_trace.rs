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
//! * `audit`, `timeout`, `overload`, `deadline`, `breaker` — as in the
//!   scalar format, read and written by its code
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

use crate::trace::{
    parse_amount, parse_policy, parse_shared_header, policy_words, read_lines, write_shared_header,
    TraceDoc, TraceEvent,
};
use rda_core::{Demand, LayerId, LayerSet, LayerSpec, ResourceKind, TopoConfig, TopoSpec};
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

fn parse_kind(word: &str, fail: &dyn Fn(&str) -> String) -> Result<ResourceKind, String> {
    match word {
        "llc" => Ok(ResourceKind::Llc),
        "membw" => Ok(ResourceKind::MemBw),
        "dram" => Ok(ResourceKind::DramCap),
        _ => Err(fail("resource must be llc|membw|dram")),
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
        let event_keys = ["vbegin", "begin", "end", "exit", "age", "retry"];
        read_lines(text, &event_keys, |key, fields, fail| {
            let (audit, timeout) = (&mut cfg.demand_audit, &mut cfg.waitlist_timeout_cycles);
            if parse_shared_header(key, fields, fail, audit, timeout, &mut cfg.overload)? {
                return Ok(());
            }
            match key {
                "node" => caps.push(parse_vector(fields, fail)?.amounts),
                "layer" => match fields {
                    [name, rest @ ..] if !rest.is_empty() => {
                        let (policy, used) = parse_policy(rest, fail)?;
                        let mut spec = LayerSpec::new(*name, policy);
                        match &rest[used..] {
                            [] => {}
                            ["guarantee", g @ ..] => {
                                spec = spec.with_guarantee(parse_vector(g, fail)?);
                            }
                            _ => return Err(fail("trailing words after layer policy")),
                        }
                        layers.push(spec);
                    }
                    _ => return Err(fail("expected `layer <name> <policy...>`")),
                },
                "assign" => match fields {
                    [process, layer] => assigns.push((
                        process.parse().map_err(|_| fail("bad process"))?,
                        layer.parse().map_err(|_| fail("bad layer index"))?,
                    )),
                    _ => return Err(fail("expected `assign <process> <layer>`")),
                },
                "vbegin" => match fields {
                    [t, process, site, v @ ..] => events.push(TopoEvent::Begin {
                        t: t.parse().map_err(|_| fail("bad time"))?,
                        process: process.parse().map_err(|_| fail("bad process"))?,
                        site: site.parse().map_err(|_| fail("bad site"))?,
                        demand: parse_vector(v, fail)?,
                    }),
                    _ => {
                        return Err(fail(
                            "expected `vbegin <t> <proc> <site> <llc> <membw> <dram>`",
                        ))
                    }
                },
                "begin" => match fields {
                    [t, process, site, kind, amount] => events.push(TopoEvent::Begin {
                        t: t.parse().map_err(|_| fail("bad time"))?,
                        process: process.parse().map_err(|_| fail("bad process"))?,
                        site: site.parse().map_err(|_| fail("bad site"))?,
                        demand: Demand::ZERO
                            .with(parse_kind(kind, fail)?, parse_amount(Some(amount), fail)?),
                    }),
                    _ => return Err(fail("expected `begin <t> <proc> <site> <res> <amount>`")),
                },
                "end" => match fields {
                    [t, pp] => events.push(TopoEvent::End {
                        t: t.parse().map_err(|_| fail("bad time"))?,
                        pp: pp.parse().map_err(|_| fail("bad pp id"))?,
                    }),
                    _ => return Err(fail("expected `end <t> <pp>`")),
                },
                "exit" => match fields {
                    [t, process] => events.push(TopoEvent::Exit {
                        t: t.parse().map_err(|_| fail("bad time"))?,
                        process: process.parse().map_err(|_| fail("bad process"))?,
                    }),
                    _ => return Err(fail("expected `exit <t> <process>`")),
                },
                "age" => match fields {
                    [t] => events.push(TopoEvent::Age {
                        t: t.parse().map_err(|_| fail("bad time"))?,
                    }),
                    _ => return Err(fail("expected `age <t>`")),
                },
                "retry" => match fields {
                    [t, process, site, kind] => events.push(TopoEvent::Retry {
                        t: t.parse().map_err(|_| fail("bad time"))?,
                        process: process.parse().map_err(|_| fail("bad process"))?,
                        site: site.parse().map_err(|_| fail("bad site"))?,
                        kind: parse_kind(kind, fail)?,
                    }),
                    _ => return Err(fail("expected `retry <t> <proc> <site> <res>`")),
                },
                _ => return Err(fail("unknown directive")),
            }
            Ok(())
        })?;
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
            let _ = write!(out, "layer {} {}", spec.name, policy_words(spec.policy));
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
        write_shared_header(
            &mut out,
            c.demand_audit,
            c.waitlist_timeout_cycles,
            c.overload,
        );
        for ev in &self.events {
            let _ = match *ev {
                TopoEvent::Begin {
                    t,
                    process,
                    site,
                    demand,
                } => {
                    let [llc, membw, dram] = demand.amounts;
                    writeln!(out, "vbegin {t} {process} {site} {llc} {membw} {dram}")
                }
                TopoEvent::End { t, pp } => writeln!(out, "end {t} {pp}"),
                TopoEvent::Exit { t, process } => writeln!(out, "exit {t} {process}"),
                TopoEvent::Age { t } => writeln!(out, "age {t}"),
                TopoEvent::Retry {
                    t,
                    process,
                    site,
                    kind,
                } => writeln!(out, "retry {t} {process} {site} {}", kind.label()),
            };
        }
        out
    }
}

/// Lift a scalar trace into the topology vocabulary: the configuration
/// through [`TopoConfig::compat`] and every scalar demand as an
/// LLC-only vector. Replaying the lifted document through the
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
                amount,
            } => TopoEvent::Begin {
                t,
                process,
                site,
                demand: Demand::llc(amount),
            },
            TraceEvent::End { t, pp } => TopoEvent::End { t, pp },
            TraceEvent::Exit { t, process } => TopoEvent::Exit { t, process },
            TraceEvent::Age { t } => TopoEvent::Age { t },
            TraceEvent::Retry { t, process, site } => TopoEvent::Retry {
                t,
                process,
                site,
                kind: ResourceKind::Llc,
            },
        })
        .collect();
    TopoDoc {
        cfg: TopoConfig::compat(&doc.cfg),
        events,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rda_core::DemandAudit;

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
             begin 0 0 0 llc 600\nbegin 10 1 1 llc 5mb\nend 20 0\nretry 30 1 1 llc\n",
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
                demand: Demand::llc(rda_core::mb(5.0)),
            }
        );
        assert_eq!(
            lifted.events[3],
            TopoEvent::Retry {
                t: 30,
                process: 1,
                site: 1,
                kind: ResourceKind::Llc,
            }
        );
        // Lifted docs roundtrip through the topology text format too.
        assert_eq!(TopoDoc::parse(&lifted.to_text()).unwrap(), lifted);
    }
}
