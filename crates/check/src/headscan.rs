//! The waitlist drain's head-scan property.
//!
//! Both engines re-admit waiters through the one shared drain, which
//! fits each waiter by its record's accounted demand and layer.
//! [`headscan_prediction`] re-implements the classical head scan from
//! [`Snapshot`] data alone, with its own statement of Algorithm 1 and of
//! the layer reservations, and demands the drain wake exactly the
//! entries it predicts, in the same order: in the topology engine
//! ([`check_headscan_property`]) and in the scalar engine, whose
//! snapshot has the compat shape ([`check_scalar_headscan_property`]).

use crate::diff::{Explorable, Oracle};
use crate::model::Effect;
use crate::topo_diff::TopoOracle;
use crate::topo_trace::TopoDoc;
use crate::trace::TraceDoc;
use rda_core::{PpId, ResourceKind, Snapshot, TopoConfig, KIND_COUNT};
use rda_sched::ProcessId;
use rda_sim::TopoCall;

/// Algorithm 1 for one accounted component `a` against a book holding
/// `usage`, restated so the scan shares no code with the engine: the
/// 64-bit book must not wrap; then a zero component and one above the
/// layer's usage `limit` always run; otherwise `usage + a` must fit
/// under the limit less `reserved`, the other layers' unused
/// guarantees.
fn runs(limit: u64, reserved: u64, usage: u128, a: u64) -> bool {
    let sum = usage + a as u128;
    sum <= u64::MAX as u128 && (a == 0 || a > limit || sum + reserved as u128 <= limit as u128)
}

/// Predict, by the classical head scan, which waiters `pp_end(pp)`
/// would wake: release the period on its node, then admit that node's
/// queue from the front while every component of the waiter runs under
/// its layer's limit, stopping at the first waiter that does not. Usage
/// is recomputed per layer from the snapshot's live periods, so the
/// prediction shares no state with the drain under test. Returns `None`
/// where the prediction is undefined: aging enabled (force-admissions
/// interleave with the scan) or an end that will be rejected.
pub fn headscan_prediction(snap: &Snapshot, cfg: &TopoConfig, pp: PpId) -> Option<Vec<PpId>> {
    if cfg.waitlist_timeout_cycles.is_some() {
        return None;
    }
    let ended = snap.periods.iter().find(|p| p.id == pp)?;
    if !ended.admitted {
        return None;
    }
    // Nominal usage per layer on the ended period's node, without it.
    let node = ended.node;
    let mut layer_usage = vec![[0u64; KIND_COUNT]; cfg.layers.len()];
    let holders = snap.periods.iter().filter(|p| p.id != pp && p.node == node);
    for p in holders.filter(|p| p.admitted && !p.overflow) {
        let held = &mut layer_usage[p.layer.0 as usize];
        for (u, a) in held.iter_mut().zip(p.accounted.amounts) {
            *u += a;
        }
    }
    let mut woken = Vec::new();
    for w in &snap.waitlists[node.0 as usize] {
        let layer = snap.periods.iter().find(|p| p.id == w.pp)?.layer.0 as usize;
        let fits = ResourceKind::ALL.into_iter().all(|k| {
            let i = k.index();
            let usage = layer_usage.iter().map(|u| u[i] as u128).sum();
            let spec = &cfg.layers.layers[layer];
            let limit = spec.policy.usage_limit(cfg.spec.capacity(node, k));
            let reserved = (cfg.layers.layers.iter().zip(&layer_usage).enumerate())
                .filter(|&(other, _)| other != layer)
                .filter_map(|(_, (s, u))| s.guarantee.map(|g| g.get(k).saturating_sub(u[i])))
                .fold(0, u64::saturating_add);
            runs(limit, reserved, usage, w.accounted.amounts[i])
        });
        if !fits {
            break;
        }
        for (u, a) in layer_usage[layer].iter_mut().zip(w.accounted.amounts) {
            *u += a;
        }
        woken.push(w.pp);
    }
    Some(woken)
}

/// Check one `pp_end`'s wake list against the head scan's prediction;
/// returns how many waiters it woke.
fn compare(idx: usize, want: Vec<PpId>, resumed: &[(PpId, ProcessId)]) -> Result<usize, String> {
    let got: Vec<PpId> = resumed.iter().map(|&(id, _)| id).collect();
    if got != want {
        return Err(format!(
            "wake-set mismatch at event {idx}: head scan predicts {want:?}, drain woke {got:?}"
        ));
    }
    Ok(got.len())
}

/// Replay `calls` through the fresh `oracle` and, before every
/// `pp_end`, check the drain wakes exactly the entries the head scan
/// predicts under `cfg`, in the same order. Returns how many waiters
/// the checked ends woke.
fn check<O: Explorable>(
    mut oracle: O,
    cfg: &TopoConfig,
    calls: &[TopoCall],
) -> Result<usize, String> {
    let mut woken = 0;
    for (idx, call) in calls.iter().enumerate() {
        let want = match *call {
            TopoCall::End { pp, .. } => headscan_prediction(&oracle.snapshot(), cfg, pp),
            _ => None,
        };
        let got = oracle.apply(call).map_err(|d| d.to_string())?;
        if let (Some(want), Effect::End { resumed, .. }) = (want, got) {
            woken += compare(idx, want, &resumed)?;
        }
    }
    Ok(woken)
}

/// The check on the topology engine: replay `doc` through the topology
/// oracle.
pub fn check_headscan_property(doc: &TopoDoc) -> Result<usize, String> {
    check(TopoOracle::new(doc.cfg.clone()), &doc.cfg, &doc.events)
}

/// The same check on the scalar engine: replay `doc` through the scalar
/// oracle and predict each `pp_end` from its compat-shaped snapshot
/// under [`TopoConfig::compat`].
pub fn check_scalar_headscan_property(doc: &TraceDoc) -> Result<usize, String> {
    let cfg = TopoConfig::compat(&doc.cfg);
    check(Oracle::new(doc.cfg.clone()), &cfg, &doc.events)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::{random_doc, GenParams};
    use crate::topo_trace::lift;
    use rda_core::{Demand, LayerSet, LayerSpec, OverloadConfig, PolicyKind, ShedPolicy, TopoSpec};
    use rda_sim::{FaultConfig, TopoTrafficConfig, TopoTrafficSim};

    /// `random_doc` schedules in the scalar engine and, lifted onto
    /// `TopoConfig::compat`, in the topology engine.
    #[test]
    fn accounted_gate_drain_matches_the_head_scan() {
        let p = GenParams {
            procs: 4,
            sites: 3,
            events: 60,
        };
        let mut woken = 0;
        for seed in 0..150 {
            let doc = random_doc(seed, &p);
            let scalar = check_scalar_headscan_property(&doc)
                .unwrap_or_else(|e| panic!("seed {seed}, scalar: {e}"));
            let lifted = check_headscan_property(&lift(&doc))
                .unwrap_or_else(|e| panic!("seed {seed}, lifted: {e}"));
            assert_eq!(scalar, lifted, "seed {seed}: wake counts");
            woken += scalar;
        }
        assert!(woken > 0, "no end woke a waiter");
    }

    /// Recorded two-node, two-layer traffic with a guaranteed latency
    /// layer, aging off, under every shed policy and faults.
    #[test]
    fn recorded_two_layer_topo_drains_match_the_head_scan() {
        let guarantee = Demand::new(4 << 20, 1_000, 64 << 20);
        let layers = LayerSet::new(vec![
            LayerSpec::new("batch", PolicyKind::Strict),
            LayerSpec::new("latency", PolicyKind::Strict).with_guarantee(guarantee),
        ]);
        let spec = TopoSpec::uniform(2, 15 << 20, 6_000, 1 << 30);
        let mut traffic = TopoTrafficConfig::two_tenant(15_000.0, 0.05);
        traffic.record_calls = true;
        for shed_policy in [
            ShedPolicy::RejectNewest,
            ShedPolicy::RejectOldest,
            ShedPolicy::DegradeToOverflow,
        ] {
            let overload = OverloadConfig {
                waitlist_cap: 8,
                shed_policy,
                deadline_cycles: Some(30_000_000),
                breaker: None,
            };
            let cfg = TopoConfig::new(spec.clone(), layers.clone()).with_overload(overload);
            let run = TopoTrafficSim::new(traffic.clone(), cfg)
                .with_faults(FaultConfig::uniform(0.05))
                .run(7);
            let doc = TopoDoc {
                cfg: run.config.expect("the run reports its configuration"),
                events: run.calls.expect("record_calls retains the schedule"),
            };
            let woken =
                check_headscan_property(&doc).unwrap_or_else(|e| panic!("{shed_policy:?}: {e}"));
            assert!(woken > 0, "{shed_policy:?}: no end woke a waiter");
        }
    }
}
