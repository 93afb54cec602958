//! The RR-set sampler abstraction (Definition 1 of the paper).

use comic_graph::{DiGraph, NodeId};
use rand::{Rng, RngExt};

/// Produces one random reverse-reachable set per call.
///
/// Per **Definition 1**: for a possible world `W` drawn from the model's
/// equivalent possible-world distribution and a root `v`, the RR-set
/// `R_W(v)` contains every node `u` such that the *singleton* seed set
/// `{u}` would activate `v` in `W`. "Activate" is model- and
/// problem-specific: A-adoption of the root for SelfInfMax, flipping the
/// root from non-A-adopted to A-adopted for CompInfMax, plain activation
/// for classic IC.
///
/// Implementations lazily sample the world during the search ("principle of
/// deferred decisions", §6.2.1) and reuse internal scratch buffers across
/// calls.
pub trait RrSampler {
    /// The graph being sampled over.
    fn graph(&self) -> &DiGraph;

    /// Sample a fresh possible world and emit `R_W(root)` into `out`
    /// (cleared first). Members are distinct; an empty `out` means no
    /// singleton seed can activate `root` in this world.
    fn sample<R: Rng>(&mut self, root: NodeId, rng: &mut R, out: &mut Vec<NodeId>);

    /// Like [`RrSampler::sample`], but also return the RR-set's width
    /// `ω(R)` — the number of in-edges pointing into the set, which the KPT
    /// estimator and [`crate::rr::RrStore`] need for every set.
    ///
    /// The default recomputes it with an `in_degree` pass over the members;
    /// samplers override it to accumulate the width during the reverse BFS
    /// itself, where the CSR offsets are already hot.
    fn sample_with_width<R: Rng>(
        &mut self,
        root: NodeId,
        rng: &mut R,
        out: &mut Vec<NodeId>,
    ) -> u64 {
        self.sample(root, rng, out);
        let g = self.graph();
        out.iter().map(|&v| g.in_degree(v) as u64).sum()
    }

    /// Whether this sampler's emitted members are exactly the nodes whose
    /// in-adjacency runs its reverse search read — the precondition for
    /// member-keyed touch tracking ([`crate::pool::SketchPool::invalidate`]):
    /// an edge delta on `(u, v)` can change a sampled set's replay only if
    /// `v` is among the set's members.
    ///
    /// Defaults to `false` (touch-opaque): samplers that probe nodes they
    /// do not emit (e.g. the Com-IC samplers' adoption tests against
    /// non-member neighbours) must keep the default, and pools built from
    /// them fall back to full rebuilds on graph deltas.
    fn touch_is_members(&self) -> bool {
        false
    }

    /// Draw a uniformly random root. Overridable for models where certain
    /// roots are statically irrelevant.
    fn random_root<R: Rng>(&self, rng: &mut R) -> NodeId {
        NodeId(rng.random_range(0..self.graph().num_nodes() as u32))
    }

    /// Sample with a uniformly random root.
    fn sample_random<R: Rng>(&mut self, rng: &mut R, out: &mut Vec<NodeId>) -> NodeId {
        let root = self.random_root(rng);
        self.sample(root, rng, out);
        root
    }

    /// Sample with a uniformly random root, returning `(root, width)`.
    fn sample_random_with_width<R: Rng>(
        &mut self,
        rng: &mut R,
        out: &mut Vec<NodeId>,
    ) -> (NodeId, u64) {
        let root = self.random_root(rng);
        let width = self.sample_with_width(root, rng, out);
        (root, width)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    /// A degenerate sampler: RR-set is always exactly the root.
    struct SelfOnly<'g> {
        g: &'g DiGraph,
    }

    impl RrSampler for SelfOnly<'_> {
        fn graph(&self) -> &DiGraph {
            self.g
        }
        fn sample<R: Rng>(&mut self, root: NodeId, _rng: &mut R, out: &mut Vec<NodeId>) {
            out.clear();
            out.push(root);
        }
    }

    #[test]
    fn random_root_is_in_range_and_covers_nodes() {
        let g = comic_graph::gen::path(10, 1.0);
        let s = SelfOnly { g: &g };
        let mut rng = SmallRng::seed_from_u64(1);
        let mut seen = std::collections::HashSet::new();
        for _ in 0..1000 {
            let r = s.random_root(&mut rng);
            assert!(r.index() < 10);
            seen.insert(r);
        }
        assert_eq!(seen.len(), 10, "uniform roots should hit every node");
    }

    #[test]
    fn sample_random_returns_root() {
        let g = comic_graph::gen::path(5, 1.0);
        let mut s = SelfOnly { g: &g };
        let mut rng = SmallRng::seed_from_u64(2);
        let mut out = Vec::new();
        let root = s.sample_random(&mut rng, &mut out);
        assert_eq!(out, vec![root]);
    }

    #[test]
    fn default_width_is_indegree_sum_of_members() {
        let g = comic_graph::gen::path(5, 1.0); // in-degrees 0,1,1,1,1
        let mut s = SelfOnly { g: &g };
        let mut rng = SmallRng::seed_from_u64(3);
        let mut out = Vec::new();
        assert_eq!(s.sample_with_width(NodeId(0), &mut rng, &mut out), 0);
        assert_eq!(s.sample_with_width(NodeId(3), &mut rng, &mut out), 1);
        let (root, width) = s.sample_random_with_width(&mut rng, &mut out);
        assert_eq!(width, g.in_degree(root) as u64);
    }
}
