//! Multi-resource machine topology: resource kinds, demand vectors,
//! and per-node capacity tables.
//!
//! The paper's Algorithm 1 gates admission on one scalar load table.
//! This module supplies the vocabulary that generalizes it to a
//! *machine topology* (see DESIGN.md §9):
//!
//! * [`ResourceKind`] — the three constrained resources of a NUMA node:
//!   LLC footprint, memory bandwidth, DRAM capacity;
//! * [`Demand`] — a demand *vector*: one amount per resource kind, the
//!   multi-resource successor of the scalar [`crate::api::PpDemand`];
//! * [`NodeId`] / [`TopoSpec`] — per-node capacity tables, one
//!   capacity per resource kind per node.
//!
//! The scheduling mechanism over these types lives in [`crate::topo`].

use std::fmt;

/// Number of resource kinds a node tracks.
pub const KIND_COUNT: usize = 3;

/// The constrained resources of one NUMA node.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum ResourceKind {
    /// Node-local last-level cache footprint, bytes.
    Llc,
    /// Node-local memory bandwidth, bytes/second.
    MemBw,
    /// Node-local DRAM capacity, bytes.
    DramCap,
}

impl ResourceKind {
    /// Every kind, in stable index order.
    pub const ALL: [ResourceKind; KIND_COUNT] = [
        ResourceKind::Llc,
        ResourceKind::MemBw,
        ResourceKind::DramCap,
    ];

    /// Dense index in `0..KIND_COUNT`, matching [`Self::ALL`].
    pub const fn index(self) -> usize {
        match self {
            ResourceKind::Llc => 0,
            ResourceKind::MemBw => 1,
            ResourceKind::DramCap => 2,
        }
    }

    /// Stable lowercase label (used by trace formats).
    pub const fn label(self) -> &'static str {
        match self {
            ResourceKind::Llc => "llc",
            ResourceKind::MemBw => "membw",
            ResourceKind::DramCap => "dram",
        }
    }
}

impl fmt::Display for ResourceKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

/// A demand vector: how much of each [`ResourceKind`] a progress
/// period needs. The all-zero vector is legal (an untracked-equivalent
/// period that always fits).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Hash)]
pub struct Demand {
    /// Amounts in [`ResourceKind::ALL`] order.
    pub amounts: [u64; KIND_COUNT],
}

impl Demand {
    /// The zero vector.
    pub const ZERO: Demand = Demand {
        amounts: [0; KIND_COUNT],
    };

    /// A vector from explicit per-kind amounts.
    pub fn new(llc: u64, membw: u64, dram: u64) -> Self {
        Demand {
            amounts: [llc, membw, dram],
        }
    }

    /// A pure-LLC demand (the paper's common case).
    pub fn llc(bytes: u64) -> Self {
        Demand::new(bytes, 0, 0)
    }

    /// The amount demanded of one kind.
    pub fn get(&self, k: ResourceKind) -> u64 {
        self.amounts[k.index()]
    }

    /// This vector with one component replaced.
    pub fn with(mut self, k: ResourceKind, amount: u64) -> Self {
        self.amounts[k.index()] = amount;
        self
    }

    /// True when no component demands anything.
    pub fn is_zero(&self) -> bool {
        self.amounts.iter().all(|&a| a == 0)
    }

    /// The kinds with a nonzero component, in index order.
    pub fn touched(&self) -> impl Iterator<Item = ResourceKind> + '_ {
        ResourceKind::ALL
            .into_iter()
            .filter(move |k| self.get(*k) > 0)
    }

    /// The first touched component and its amount, `(Llc, 0)` for the
    /// zero vector: what single-slot trace payloads, retry notes and
    /// traffic plan amounts are keyed on.
    pub fn primary(&self) -> (ResourceKind, u64) {
        match self.touched().next() {
            Some(k) => (k, self.get(k)),
            None => (ResourceKind::Llc, 0),
        }
    }
}

impl fmt::Display for Demand {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "[llc={} membw={} dram={}]",
            self.amounts[0], self.amounts[1], self.amounts[2]
        )
    }
}

/// Identifier of one NUMA node in a topology (dense, node id = index).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct NodeId(pub u32);

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "node{}", self.0)
    }
}

/// Typed configuration error of a [`TopoSpec`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SpecError {
    /// A node declares zero capacity for a constrained resource. The
    /// placement score and the admission predicate both divide by (or
    /// skip on) the capacity, so a zero-capacity node would silently
    /// bypass gating for that kind instead of constraining it.
    ZeroCapacity {
        /// The offending node.
        node: NodeId,
        /// The kind with zero declared capacity.
        kind: ResourceKind,
    },
    /// A topology with no nodes at all.
    NoNodes,
}

impl fmt::Display for SpecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SpecError::ZeroCapacity { node, kind } => {
                write!(
                    f,
                    "{node} declares zero capacity for constrained resource {kind}"
                )
            }
            SpecError::NoNodes => write!(f, "a topology needs at least one node"),
        }
    }
}

impl std::error::Error for SpecError {}

/// The capacity table of a topology: per node, one capacity per
/// [`ResourceKind`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TopoSpec {
    /// Per-node capacities in [`ResourceKind::ALL`] order.
    pub caps: Vec<[u64; KIND_COUNT]>,
}

impl TopoSpec {
    /// Build a validated spec: every node must declare nonzero
    /// capacity for every constrained resource kind (see
    /// [`SpecError::ZeroCapacity`]).
    pub fn checked(caps: Vec<[u64; KIND_COUNT]>) -> Result<Self, SpecError> {
        let spec = TopoSpec { caps };
        spec.validate()?;
        Ok(spec)
    }

    /// Validate the capacity table against [`SpecError`]'s rules.
    pub fn validate(&self) -> Result<(), SpecError> {
        if self.caps.is_empty() {
            return Err(SpecError::NoNodes);
        }
        for (n, caps) in self.caps.iter().enumerate() {
            for k in ResourceKind::ALL {
                if caps[k.index()] == 0 {
                    return Err(SpecError::ZeroCapacity {
                        node: NodeId(n as u32),
                        kind: k,
                    });
                }
            }
        }
        Ok(())
    }

    /// A single node with the given capacities.
    pub fn single(llc: u64, membw: u64, dram: u64) -> Self {
        TopoSpec {
            caps: vec![[llc, membw, dram]],
        }
    }

    /// `n` identical nodes.
    pub fn uniform(n: usize, llc: u64, membw: u64, dram: u64) -> Self {
        assert!(n >= 1, "a topology needs at least one node");
        TopoSpec {
            caps: vec![[llc, membw, dram]; n],
        }
    }

    /// Number of nodes.
    pub fn node_count(&self) -> usize {
        self.caps.len()
    }

    /// Capacity of one kind on one node.
    pub fn capacity(&self, node: NodeId, k: ResourceKind) -> u64 {
        self.caps[node.0 as usize][k.index()]
    }

    /// The largest capacity any node offers for a kind — what the
    /// demand auditor clamps against (a demand no node could ever hold
    /// nominally is impossible machine-wide).
    pub fn max_capacity(&self, k: ResourceKind) -> u64 {
        self.caps.iter().map(|c| c[k.index()]).max().unwrap_or(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kind_indexing_roundtrips() {
        for k in ResourceKind::ALL {
            assert_eq!(ResourceKind::ALL[k.index()], k);
        }
        assert_eq!(ResourceKind::Llc.to_string(), "llc");
        assert_eq!(ResourceKind::DramCap.to_string(), "dram");
    }

    #[test]
    fn zero_capacity_constrained_resource_is_rejected() {
        let err = TopoSpec::checked(vec![[100, 0, 1000]]).unwrap_err();
        assert_eq!(
            err,
            SpecError::ZeroCapacity {
                node: NodeId(0),
                kind: ResourceKind::MemBw,
            }
        );
        assert_eq!(TopoSpec::checked(vec![]).unwrap_err(), SpecError::NoNodes);
        let ok = TopoSpec::checked(vec![[100, 50, 1000]]).unwrap();
        assert_eq!(ok.node_count(), 1);
        assert!(TopoSpec::uniform(2, 100, 50, 1000).validate().is_ok());
        // The error names the node and kind for operators.
        let msg = SpecError::ZeroCapacity {
            node: NodeId(3),
            kind: ResourceKind::Llc,
        }
        .to_string();
        assert!(msg.contains("node3") && msg.contains("llc"));
    }

    #[test]
    fn demand_vector_accessors() {
        let d = Demand::llc(10).with(ResourceKind::MemBw, 7);
        assert_eq!(d.get(ResourceKind::Llc), 10);
        assert_eq!(d.get(ResourceKind::MemBw), 7);
        assert_eq!(d.get(ResourceKind::DramCap), 0);
        assert!(!d.is_zero());
        assert!(Demand::ZERO.is_zero());
        let touched: Vec<ResourceKind> = d.touched().collect();
        assert_eq!(touched, vec![ResourceKind::Llc, ResourceKind::MemBw]);
        assert_eq!(d.primary(), (ResourceKind::Llc, 10));
        assert_eq!(Demand::new(0, 0, 5).primary(), (ResourceKind::DramCap, 5));
        assert_eq!(Demand::ZERO.primary(), (ResourceKind::Llc, 0));
        assert_eq!(d.to_string(), "[llc=10 membw=7 dram=0]");
    }

    #[test]
    fn max_capacity_over_heterogeneous_nodes() {
        let spec = TopoSpec {
            caps: vec![[10, 1, 5], [4, 9, 5]],
        };
        assert_eq!(spec.max_capacity(ResourceKind::Llc), 10);
        assert_eq!(spec.max_capacity(ResourceKind::MemBw), 9);
        assert_eq!(spec.max_capacity(ResourceKind::DramCap), 5);
    }
}
