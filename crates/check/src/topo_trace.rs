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
//! * `node <llc> <membw> <dram>` — appends one NUMA node, every
//!   capacity nonzero; the first `node` line replaces the default
//!   topology
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
//! Events parse into [`TopoCall`]s with the event parser both dialects
//! share. [`lift`] converts any scalar [`TraceDoc`] into this dialect:
//! its calls are already in the topology vocabulary, so only the
//! configuration changes, through [`TopoConfig::compat`] — the bridge
//! that replays the whole legacy corpus through the topology oracle
//! (DESIGN.md §9's compatibility argument, checked call by call).

use crate::trace::{
    keyed_lines, parse_policy, parse_shared_header, parse_vector, policy_words, read_lines,
    spec_error, write_shared_header, TraceDoc, TOPO,
};
use rda_core::{LayerId, LayerSet, LayerSpec, SpecError, TopoConfig, TopoSpec};
use rda_sim::TopoCall;
use std::fmt::Write as _;

/// A parsed topology trace: configuration plus the calls.
#[derive(Debug, Clone, PartialEq)]
pub struct TopoDoc {
    /// Configuration both machines replay under.
    pub cfg: TopoConfig,
    /// The calls, in call order.
    pub events: Vec<TopoCall>,
}

/// The header defaults: the scalar default header lifted to one node.
pub fn default_topo_config() -> TopoConfig {
    TopoConfig::compat(&crate::trace::default_config())
}

impl TopoDoc {
    /// A trace over the default header with the given calls.
    pub fn new(events: Vec<TopoCall>) -> Self {
        TopoDoc {
            cfg: default_topo_config(),
            events,
        }
    }

    /// Parse the text format. Errors carry the 1-based line number; a
    /// capacity table [`TopoConfig::validated`] refuses is reported at
    /// the `node` line that declares the zero.
    pub fn parse(text: &str) -> Result<Self, String> {
        let mut cfg = default_topo_config();
        let mut caps: Vec<[u64; 3]> = Vec::new();
        let mut layers: Vec<LayerSpec> = Vec::new();
        // Each assignment keeps the error its line reports if the
        // layer it names turns out not to exist.
        let mut assigns: Vec<(u32, u32, String)> = Vec::new();
        let events = read_lines(text, &TOPO, |key, fields, fail| {
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
                    [process, layer] => {
                        let process: u32 = process.parse().map_err(|_| fail("bad process"))?;
                        let layer: u32 = layer.parse().map_err(|_| fail("bad layer index"))?;
                        let unknown = fail(&format!("assign references unknown layer {layer}"));
                        assigns.push((process, layer, unknown));
                    }
                    _ => return Err(fail("expected `assign <process> <layer>`")),
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
            for (process, layer, unknown) in assigns {
                if layer as usize >= set.len() {
                    return Err(unknown);
                }
                set.assign(process, LayerId(layer));
            }
            cfg.layers = set;
        }
        let checked = TopoConfig::validated(cfg.spec, cfg.layers).map_err(|e| {
            let node = match e {
                SpecError::ZeroCapacity { node, .. } => node.0 as usize,
                SpecError::NoNodes => 0,
            };
            spec_error(keyed_lines(text, "node").nth(node), e)
        })?;
        let cfg = TopoConfig {
            spec: checked.spec,
            layers: checked.layers,
            ..cfg
        };
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
        TOPO.write_calls(&mut out, &self.events);
        out
    }
}

/// Lift a scalar trace into the topology dialect: the configuration
/// through [`TopoConfig::compat`], the calls as they are. Replaying the
/// lifted document through the topology oracle is the executable form
/// of DESIGN.md §9's compatibility argument.
pub fn lift(doc: &TraceDoc) -> TopoDoc {
    TopoDoc {
        cfg: TopoConfig::compat(&doc.cfg),
        events: doc.events.clone(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rda_core::{Demand, DemandAudit, ResourceKind, SiteId};
    use rda_sched::ProcessId;
    use rda_simcore::SimTime;

    /// A begin of `demand` at cycle `t`.
    fn begin(t: u64, process: u32, site: u32, demand: Demand) -> TopoCall {
        TopoCall::Begin {
            now: SimTime::from_cycles(t),
            process: ProcessId(process),
            site: SiteId(site),
            demand,
        }
    }

    /// A retry at cycle `t` naming `kind`.
    fn retry(t: u64, process: u32, site: u32, kind: ResourceKind) -> TopoCall {
        TopoCall::Retry {
            now: SimTime::from_cycles(t),
            process: ProcessId(process),
            site: SiteId(site),
            kind,
        }
    }

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
        assert_eq!(
            doc.cfg.layers.spec(LayerId(1)).guarantee,
            Some(Demand::llc(40))
        );
        assert_eq!(doc.cfg.demand_audit, DemandAudit::Clamp);
        assert_eq!(doc.events.len(), 6);
        assert_eq!(doc.events[0], begin(0, 0, 0, Demand::new(60, 5, 0)));
        let membw = Demand::new(0, rda_core::mb(5.0), 0);
        assert_eq!(doc.events[1], begin(10, 2, 1, membw));
        assert_eq!(doc.events[5], retry(50, 0, 0, ResourceKind::DramCap));
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
        doc.events.push(begin(20, 1, 0, Demand::llc(5)));
        assert_eq!(TopoDoc::parse(&doc.to_text()).unwrap(), doc);
    }

    #[test]
    fn rejects_malformed_lines_with_line_numbers() {
        for (text, needle) in [
            ("node 1 2", "expected `<llc> <membw> <dram>`"),
            ("layer solo", "expected `layer"),
            ("layer solo sloppy", "unknown policy"),
            (
                "layer a strict guarantee 1 2",
                "expected `<llc> <membw> <dram>`",
            ),
            ("layer a strict extra", "trailing words"),
            ("assign 0 3", "line 1: assign references unknown layer 3"),
            ("vbegin 0 0 0 1 2", "expected `<llc> <membw> <dram>`"),
            ("vbegin 0 0", "expected `vbegin"),
            ("begin 0 0 0 disk 10", "llc|membw|dram"),
            ("retry 0 0 0 disk", "llc|membw|dram"),
            ("end 0 0\nnode 1 2 3", "header line after the first event"),
            ("frobnicate", "unknown directive"),
            ("layer a compromise 0.5", "line 1: compromise factor"),
            ("layer a compromise NaN", "line 1: compromise factor"),
            ("layer a partitioned 0", "line 1: partitioned quota"),
            ("layer a partitioned 1.5", "partitioned quota must be"),
            ("layer a partitioned NaN", "partitioned quota must be"),
            (
                "node 0 50 1000\nvbegin 0 0 0 10 0 0\nvbegin 1 1 1 10 0 0",
                "line 1: node0 declares zero capacity for constrained resource llc",
            ),
            (
                "node 100 50 1000\n# second node\nnode 100 0 1000",
                "line 3: node1 declares zero capacity for constrained resource membw",
            ),
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
        let five = Demand::llc(rda_core::mb(5.0));
        assert_eq!(lifted.events[1], begin(10, 1, 1, five));
        assert_eq!(lifted.events[3], retry(30, 1, 1, ResourceKind::Llc));
        // Lifted docs roundtrip through the topology text format too.
        assert_eq!(TopoDoc::parse(&lifted.to_text()).unwrap(), lifted);
    }
}
