//! The waitlist drain's head-scan property.
//!
//! The scalar engine's side of the shared waitlist drain gates on each
//! entry's *stored accounted demand* instead of re-deriving it from the
//! registry record. [`check_headscan_property`] re-implements the
//! classical head scan from snapshot data alone, with its own statement
//! of Algorithm 1, and demands the drain wake exactly the entries it
//! predicts, in the same order.

use crate::trace::{TraceDoc, TraceEvent};
use rda_core::{PolicyKind, PpDemand, PpId, RdaConfig, RdaExtension, Resource, SiteId};
use rda_machine::ReuseLevel;
use rda_sched::ProcessId;
use rda_simcore::SimTime;

/// Algorithm 1 for an accounted demand against the cache's usage,
/// restated so the scan shares no code with the engine: a zero-byte
/// demand and one above the policy's usage limit always run; otherwise
/// the demand must fit under that limit.
fn runs(policy: PolicyKind, capacity: u64, usage: u64, accounted: u64) -> bool {
    let limit = policy.usage_limit(capacity) as u128;
    accounted == 0 || accounted as u128 > limit || usage as u128 + accounted as u128 <= limit
}

/// Predict, by the classical head scan, which waiters `pp_end(pp)`
/// would wake: release the period's accounted demand, then admit from
/// the queue front while the predicate passes, stopping at the first
/// entry that pauses. Built from snapshot data alone, so it shares no
/// state with the drain under test. Returns `None` where the
/// prediction is undefined: aging enabled (force-admissions interleave
/// with the scan) or an end that will be rejected.
pub fn headscan_prediction(ext: &RdaExtension, cfg: &RdaConfig, pp: PpId) -> Option<Vec<PpId>> {
    if cfg.waitlist_timeout_cycles.is_some() {
        return None;
    }
    let snap = ext.snapshot();
    let rec = snap.periods.iter().find(|p| p.id == pp)?;
    if !rec.admitted {
        return None;
    }
    let capacity = cfg.llc_capacity;
    let mut usage = snap.usage;
    if !rec.overflow {
        usage -= rec.accounted;
    }
    let mut woken = Vec::new();
    for e in &snap.waitlist {
        if !runs(cfg.policy, capacity, usage, e.accounted) {
            break;
        }
        usage += e.accounted;
        woken.push(e.pp);
    }
    Some(woken)
}

/// Replay `doc` through one extension and, before every `pp_end`,
/// check the accounted-gate drain wakes exactly the entries the
/// head-scan prediction names, in the same order.
pub fn check_headscan_property(doc: &TraceDoc) -> Result<(), String> {
    let mut ext = RdaExtension::new(doc.cfg.clone());
    for (idx, ev) in doc.events.iter().enumerate() {
        match *ev {
            TraceEvent::Begin {
                t,
                process,
                site,
                amount,
            } => {
                let demand = PpDemand::llc(amount, ReuseLevel::High);
                let _ = ext.pp_begin(
                    ProcessId(process),
                    SiteId(site),
                    demand,
                    SimTime::from_cycles(t),
                );
            }
            TraceEvent::End { t, pp } => {
                let predicted = headscan_prediction(&ext, &doc.cfg, PpId(pp));
                let got = ext.pp_end(PpId(pp), SimTime::from_cycles(t));
                if let (Some(want), Ok(out)) = (predicted, got) {
                    let woken: Vec<PpId> = out.resumed.iter().map(|&(id, _)| id).collect();
                    if woken != want {
                        return Err(format!(
                            "wake-set mismatch at event {idx}: head scan predicts {want:?}, drain woke {woken:?}"
                        ));
                    }
                }
            }
            TraceEvent::Exit { t, process } => {
                ext.process_exit(ProcessId(process), SimTime::from_cycles(t));
            }
            TraceEvent::Age { t } => {
                ext.age_waitlist(SimTime::from_cycles(t));
            }
            TraceEvent::Retry { t, process, site } => {
                ext.note_retry(
                    ProcessId(process),
                    SiteId(site),
                    Resource::Llc,
                    SimTime::from_cycles(t),
                );
            }
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::{random_doc, GenParams};

    #[test]
    fn accounted_gate_drain_matches_the_head_scan() {
        let p = GenParams {
            procs: 4,
            sites: 3,
            events: 60,
        };
        for seed in 0..150 {
            if let Err(e) = check_headscan_property(&random_doc(seed, &p)) {
                panic!("seed {seed}: {e}");
            }
        }
    }
}
