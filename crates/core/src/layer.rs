//! Layers: named process groups with per-layer policy and optional
//! capacity guarantees (scx_layered-style multi-tenancy).
//!
//! On a multi-tenant box, "one policy for the whole machine" is the
//! wrong granularity: a latency-critical tenant wants Strict isolation,
//! a batch tenant is happy with Compromise oversubscription, and
//! unmodified applications ride the default scheduler. A [`LayerSpec`]
//! names such a group, carries its own [`PolicyKind`], and may pin a
//! per-node capacity **guarantee**: a slice of every node's resources
//! that other layers' admissions can never consume (the guaranteed
//! layer's own demand draws it down first).
//!
//! Guarantee semantics, per node `n`, kind `k`, admitting layer `L`:
//!
//! ```text
//! reserved_by_others(n, k, L) = Σ_{L' ≠ L} max(0, guarantee_{L'}[k] − usage_{L'}(n, k))
//! limit(n, k, L)              = policy_L.usage_limit(cap[n][k]) − reserved_by_others
//! admit iff usage_total(n, k) + accounted_k ≤ limit(n, k, L)   (for every demanded k)
//! ```
//!
//! With a single guarantee-free layer the reservation term vanishes and
//! the predicate degenerates to the paper's Algorithm 1 exactly — the
//! compatibility argument of DESIGN.md §9.

use crate::policy::PolicyKind;
use crate::topology::Demand;
use std::fmt;

/// Identifier of a layer (dense; layer id = index in the [`LayerSet`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct LayerId(pub u32);

impl fmt::Display for LayerId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "layer{}", self.0)
    }
}

/// One layer: a named process group with its own policy and an
/// optional per-node capacity guarantee.
#[derive(Debug, Clone, PartialEq)]
pub struct LayerSpec {
    /// Human-readable name (reports, traces).
    pub name: String,
    /// The admission policy this layer's periods are gated by.
    pub policy: PolicyKind,
    /// Per-node reserved capacity other layers cannot consume (`None`
    /// reserves nothing — a best-effort layer).
    pub guarantee: Option<Demand>,
}

impl LayerSpec {
    /// A guarantee-free layer.
    pub fn new(name: impl Into<String>, policy: PolicyKind) -> Self {
        LayerSpec {
            name: name.into(),
            policy,
            guarantee: None,
        }
    }

    /// Attach a per-node capacity guarantee.
    pub fn with_guarantee(mut self, g: Demand) -> Self {
        self.guarantee = Some(g);
        self
    }
}

/// The layers of one box plus the process → layer assignment.
///
/// Assignment is an explicit sparse map (process id → layer id);
/// unmapped processes land in layer 0, which therefore plays the role
/// of the machine-wide default. The map is stored sorted so iteration
/// and digests are deterministic.
#[derive(Debug, Clone, PartialEq)]
pub struct LayerSet {
    /// The layers; layer id = index. Never empty.
    pub layers: Vec<LayerSpec>,
    /// Sorted `(process, layer)` assignment pairs.
    assign: Vec<(u32, u32)>,
}

impl LayerSet {
    /// A single guarantee-free layer under `policy` — the trivial set
    /// every compatibility mode uses.
    pub fn single(policy: PolicyKind) -> Self {
        LayerSet {
            layers: vec![LayerSpec::new("default", policy)],
            assign: Vec::new(),
        }
    }

    /// A set from explicit layers (panics if empty — layer 0 must
    /// exist to catch unmapped processes).
    pub fn new(layers: Vec<LayerSpec>) -> Self {
        assert!(!layers.is_empty(), "a LayerSet needs at least one layer");
        LayerSet {
            layers,
            assign: Vec::new(),
        }
    }

    /// Map a process to a layer (replacing any earlier mapping).
    ///
    /// # Panics
    /// If `layer` is out of range.
    pub fn assign(&mut self, process: u32, layer: LayerId) {
        assert!(
            (layer.0 as usize) < self.layers.len(),
            "assignment to unknown {layer}"
        );
        match self.assign.binary_search_by_key(&process, |&(p, _)| p) {
            Ok(i) => self.assign[i].1 = layer.0,
            Err(i) => self.assign.insert(i, (process, layer.0)),
        }
    }

    /// Builder form of [`LayerSet::assign`].
    pub fn with_assignment(mut self, process: u32, layer: LayerId) -> Self {
        self.assign(process, layer);
        self
    }

    /// The layer a process belongs to (layer 0 when unmapped).
    pub fn layer_of(&self, process: u32) -> LayerId {
        match self.assign.binary_search_by_key(&process, |&(p, _)| p) {
            Ok(i) => LayerId(self.assign[i].1),
            Err(_) => LayerId(0),
        }
    }

    /// The spec of a layer.
    pub fn spec(&self, layer: LayerId) -> &LayerSpec {
        &self.layers[layer.0 as usize]
    }

    /// Number of layers.
    pub fn len(&self) -> usize {
        self.layers.len()
    }

    /// Always false ([`LayerSet::new`] rejects empty sets); present for
    /// the len/is_empty idiom.
    pub fn is_empty(&self) -> bool {
        self.layers.is_empty()
    }

    /// The sorted `(process, layer)` assignment pairs.
    pub fn assignments(&self) -> &[(u32, u32)] {
        &self.assign
    }

    /// True when this set is the trivial compatibility shape: exactly
    /// one layer, no guarantee, no explicit assignments.
    pub fn is_trivial(&self) -> bool {
        self.layers.len() == 1 && self.layers[0].guarantee.is_none() && self.assign.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::topology::ResourceKind;

    #[test]
    fn single_set_is_trivial_and_maps_everyone_to_zero() {
        let s = LayerSet::single(PolicyKind::Strict);
        assert!(s.is_trivial());
        assert_eq!(s.layer_of(0), LayerId(0));
        assert_eq!(s.layer_of(999), LayerId(0));
        assert_eq!(s.spec(LayerId(0)).policy, PolicyKind::Strict);
    }

    #[test]
    fn assignment_maps_and_replaces() {
        let mut s = LayerSet::new(vec![
            LayerSpec::new("batch", PolicyKind::compromise_default()),
            LayerSpec::new("latency", PolicyKind::Strict).with_guarantee(Demand::llc(1024)),
        ]);
        s.assign(7, LayerId(1));
        s.assign(3, LayerId(1));
        assert!(!s.is_trivial());
        assert_eq!(s.layer_of(7), LayerId(1));
        assert_eq!(s.layer_of(3), LayerId(1));
        assert_eq!(s.layer_of(4), LayerId(0));
        // Replacement, not duplication.
        s.assign(7, LayerId(0));
        assert_eq!(s.layer_of(7), LayerId(0));
        assert_eq!(s.assignments(), &[(3, 1), (7, 0)]);
        assert_eq!(
            s.spec(LayerId(1)).guarantee.unwrap().get(ResourceKind::Llc),
            1024
        );
    }

    #[test]
    #[should_panic(expected = "unknown layer")]
    fn assignment_to_unknown_layer_panics() {
        let mut s = LayerSet::single(PolicyKind::Strict);
        s.assign(0, LayerId(5));
    }

    #[test]
    fn guarantee_marks_set_nontrivial() {
        let s = LayerSet::new(vec![
            LayerSpec::new("only", PolicyKind::Strict).with_guarantee(Demand::llc(1))
        ]);
        assert!(!s.is_trivial());
    }
}
