//! Loop-nest mapping (the Dyninst ParseAPI stand-in, §2.4).
//!
//! *"We sample the linear memory addresses of the JMP instructions
//! retired within each window, and use Dyninst ParseAPI to locate these
//! JMPs within the loop nest structure of the binary. The outermost
//! loop that contains the identified progress period is then used as
//! the beginning and ending of the period."*
//!
//! Our traces carry loop ids directly on back-edge records; this module
//! supplies the structural half: a loop-nest tree declared by the
//! instrumented application, and the walk from a sampled loop to its
//! outermost enclosing loop (stopping below a declared *function root*,
//! which models the paper's per-function period placement).

use std::collections::HashMap;

/// A loop-nest forest: each loop has an optional parent loop.
#[derive(Debug, Clone, Default)]
pub struct LoopNest {
    parent: HashMap<u32, Option<u32>>,
}

impl LoopNest {
    /// Empty forest.
    pub fn new() -> Self {
        Self::default()
    }

    /// Declare a top-level loop (directly inside a function body).
    pub fn add_root(&mut self, id: u32) -> &mut Self {
        self.declare(id, None)
    }

    /// Declare a loop nested inside `parent`.
    pub fn add_child(&mut self, id: u32, parent: u32) -> &mut Self {
        assert!(
            self.parent.contains_key(&parent),
            "parent loop {parent} not declared"
        );
        self.declare(id, Some(parent))
    }

    fn declare(&mut self, id: u32, parent: Option<u32>) -> &mut Self {
        let prev = self.parent.insert(id, parent);
        assert!(prev.is_none(), "loop {id} declared twice");
        self
    }

    /// Is `id` a declared loop?
    pub fn contains(&self, id: u32) -> bool {
        self.parent.contains_key(&id)
    }

    /// Nesting depth of a loop (roots have depth 0).
    pub fn depth(&self, id: u32) -> usize {
        let mut d = 0;
        let mut cur = id;
        while let Some(Some(p)) = self.parent.get(&cur) {
            d += 1;
            cur = *p;
        }
        d
    }

    /// The outermost loop enclosing `id` (possibly `id` itself).
    /// Returns `None` for undeclared loops.
    pub fn outermost(&self, id: u32) -> Option<u32> {
        if !self.parent.contains_key(&id) {
            return None;
        }
        let mut cur = id;
        while let Some(&Some(p)) = self.parent.get(&cur) {
            cur = p;
        }
        Some(cur)
    }

    /// Number of declared loops.
    pub fn len(&self) -> usize {
        self.parent.len()
    }

    /// True when no loops are declared.
    pub fn is_empty(&self) -> bool {
        self.parent.is_empty()
    }
}

/// The loop nest of the traced dgemm kernel (`i → j → k`), matching the
/// loop ids `rda_workloads::blas::level3::dgemm_traced` emits.
pub fn dgemm_loop_nest() -> LoopNest {
    let mut nest = LoopNest::new();
    nest.add_root(0);
    nest.add_child(1, 0);
    nest.add_child(2, 1);
    nest
}

/// The loop nest of the traced water-nsquared timestep: three sibling
/// phase loops directly inside the timestep function.
pub fn water_loop_nest() -> LoopNest {
    use rda_workloads::splash::water::loops;
    let mut nest = LoopNest::new();
    nest.add_root(loops::PREDICT);
    nest.add_root(loops::INTERF);
    nest.add_root(loops::CORRECT);
    nest
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn outermost_walks_to_the_root() {
        let nest = dgemm_loop_nest();
        assert_eq!(nest.outermost(2), Some(0));
        assert_eq!(nest.outermost(1), Some(0));
        assert_eq!(nest.outermost(0), Some(0));
        assert_eq!(nest.outermost(99), None);
    }

    #[test]
    fn depth_and_ancestry() {
        let nest = dgemm_loop_nest();
        assert_eq!(nest.depth(0), 0);
        assert_eq!(nest.depth(2), 2);
    }

    #[test]
    fn sibling_roots_map_to_themselves() {
        let nest = water_loop_nest();
        use rda_workloads::splash::water::loops;
        assert_eq!(nest.outermost(loops::INTERF), Some(loops::INTERF));
        assert_eq!(nest.depth(loops::PREDICT), 0);
        assert_eq!(nest.len(), 3);
    }

    #[test]
    #[should_panic(expected = "declared twice")]
    fn double_declaration_panics() {
        let mut nest = LoopNest::new();
        nest.add_root(1);
        nest.add_root(1);
    }

    #[test]
    #[should_panic(expected = "not declared")]
    fn child_of_unknown_parent_panics() {
        let mut nest = LoopNest::new();
        nest.add_child(2, 1);
    }
}
