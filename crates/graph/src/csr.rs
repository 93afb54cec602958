//! Compressed-sparse-row directed graph with per-edge influence probabilities.

use crate::store::Section;
use std::fmt;

/// Identifier of a node in a [`DiGraph`].
///
/// Nodes are dense indices `0..n`. A `u32` keeps hot structures (queues,
/// reverse-reachable sets, adjacency lists) half the size of `usize` on
/// 64-bit targets, which matters in the samplers' inner loops; graphs in the
/// paper top out at one million nodes.
///
/// `repr(transparent)` pins the layout to exactly a `u32`, which is what
/// lets [`crate::store`] reinterpret an on-disk little-endian id section as
/// a `&[NodeId]` without a per-element conversion.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
#[repr(transparent)]
pub struct NodeId(pub u32);

impl NodeId {
    /// The node's dense index as a `usize`, for array indexing.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }

    /// Construct from a dense `usize` index.
    ///
    /// # Panics
    /// Panics if `i` does not fit in `u32`.
    #[inline]
    pub fn from_index(i: usize) -> Self {
        NodeId(u32::try_from(i).expect("node index exceeds u32::MAX"))
    }
}

impl fmt::Debug for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "n{}", self.0)
    }
}

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.0)
    }
}

impl From<u32> for NodeId {
    #[inline]
    fn from(v: u32) -> Self {
        NodeId(v)
    }
}

/// Identifier of a directed edge in a [`DiGraph`].
///
/// Edge ids index the graph's canonical (source-major) edge order; they are
/// stable across the out- and in-adjacency views, which lets diffusion
/// engines record "this edge has been tested live/blocked" exactly once per
/// possible world regardless of the traversal direction (a core requirement
/// of the Com-IC model, see Figure 2 step 1 of the paper).
///
/// `repr(transparent)` pins the layout to exactly a `u32` so [`crate::store`]
/// can view a mapped id section as `&[EdgeId]` (see [`NodeId`]).
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
#[repr(transparent)]
pub struct EdgeId(pub u32);

impl EdgeId {
    /// The edge's dense index as a `usize`.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Debug for EdgeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "e{}", self.0)
    }
}

/// A directed edge `(source, target)` with influence probability `p`.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Edge {
    /// Tail of the edge (the influencer).
    pub source: NodeId,
    /// Head of the edge (the node being informed).
    pub target: NodeId,
    /// Influence probability `p(source, target) ∈ [0, 1]`.
    pub p: f64,
}

/// An adjacency entry: the neighbour on the far end of an edge together with
/// the edge's id and probability.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Adj {
    /// The neighbouring node (out-neighbour when iterating forwards,
    /// in-neighbour when iterating backwards).
    pub node: NodeId,
    /// Canonical id of the underlying edge.
    pub edge: EdgeId,
    /// Influence probability of the underlying edge.
    pub p: f64,
}

/// A directed graph `G = (V, E, p)` in CSR form with both directions
/// materialized.
///
/// Construction goes through [`crate::builder::GraphBuilder`] (or the
/// generators in [`crate::gen`]); the finished graph is immutable, which is
/// what lets the simulation and sampling engines share it freely across
/// threads (`DiGraph: Send + Sync`).
///
/// # Example
/// ```
/// use comic_graph::{GraphBuilder, NodeId};
///
/// let mut b = GraphBuilder::new(3);
/// b.add_edge(0, 1, 0.5);
/// b.add_edge(1, 2, 0.25);
/// let g = b.build().unwrap();
/// assert_eq!(g.num_nodes(), 3);
/// assert_eq!(g.num_edges(), 2);
/// assert_eq!(g.out_degree(NodeId(1)), 1);
/// assert_eq!(g.in_degree(NodeId(1)), 1);
/// ```
#[derive(Clone, Debug)]
pub struct DiGraph {
    n: usize,
    // Every array is a `Section`: either an owned `Vec` (built graphs) or a
    // zero-copy view into a mapped v4 store file (see `crate::store`).
    // Out-CSR: canonical edge order. out_offsets.len() == n + 1.
    out_offsets: Section<u32>,
    out_targets: Section<NodeId>,
    out_probs: Section<f64>,
    // In-CSR: permutation of the canonical edges grouped by target.
    in_offsets: Section<u32>,
    in_sources: Section<NodeId>,
    in_probs: Section<f64>,
    // For each in-CSR slot, the canonical EdgeId it refers to.
    in_edge_ids: Section<EdgeId>,
}

/// Borrowed views of all seven CSR arrays, in v4 store section order.
/// Consumed by [`crate::store`]'s writer and by delta compaction
/// ([`DiGraph::apply_deltas`]).
pub(crate) struct CsrParts<'a> {
    pub out_offsets: &'a [u32],
    pub out_targets: &'a [NodeId],
    pub out_probs: &'a [f64],
    pub in_offsets: &'a [u32],
    pub in_sources: &'a [NodeId],
    pub in_probs: &'a [f64],
    pub in_edge_ids: &'a [EdgeId],
}

impl DiGraph {
    /// Build a graph from `n` nodes and a list of edges already sorted in
    /// source-major order with no duplicates. Intended to be called by
    /// [`crate::builder::GraphBuilder`]; invariants are debug-asserted.
    pub(crate) fn from_sorted_edges(n: usize, edges: &[Edge]) -> DiGraph {
        debug_assert!(edges
            .windows(2)
            .all(|w| { (w[0].source, w[0].target) < (w[1].source, w[1].target) }));
        let m = edges.len();
        let mut out_offsets = vec![0u32; n + 1];
        let mut out_targets = Vec::with_capacity(m);
        let mut out_probs = Vec::with_capacity(m);
        for e in edges {
            out_offsets[e.source.index() + 1] += 1;
            out_targets.push(e.target);
            out_probs.push(e.p);
        }
        for i in 0..n {
            out_offsets[i + 1] += out_offsets[i];
        }

        // Counting sort of the canonical edges by target to build the in-CSR.
        let mut in_offsets = vec![0u32; n + 1];
        for e in edges {
            in_offsets[e.target.index() + 1] += 1;
        }
        for i in 0..n {
            in_offsets[i + 1] += in_offsets[i];
        }
        let mut cursor: Vec<u32> = in_offsets[..n].to_vec();
        let mut in_sources = vec![NodeId(0); m];
        let mut in_probs = vec![0.0; m];
        let mut in_edge_ids = vec![EdgeId(0); m];
        for (eid, e) in edges.iter().enumerate() {
            let slot = cursor[e.target.index()] as usize;
            cursor[e.target.index()] += 1;
            in_sources[slot] = e.source;
            in_probs[slot] = e.p;
            in_edge_ids[slot] = EdgeId(eid as u32);
        }

        DiGraph {
            n,
            out_offsets: out_offsets.into(),
            out_targets: out_targets.into(),
            out_probs: out_probs.into(),
            in_offsets: in_offsets.into(),
            in_sources: in_sources.into(),
            in_probs: in_probs.into(),
            in_edge_ids: in_edge_ids.into(),
        }
    }

    /// Assemble a graph directly from pre-validated CSR sections — the v4
    /// store's zero-copy load path and delta compaction's output. The
    /// caller ([`crate::store`], [`DiGraph::apply_deltas`]) has already
    /// established the structural invariants (offset monotonicity, id
    /// ranges, probability domain), so no per-edge work happens here.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn from_csr_parts(
        n: usize,
        out_offsets: Section<u32>,
        out_targets: Section<NodeId>,
        out_probs: Section<f64>,
        in_offsets: Section<u32>,
        in_sources: Section<NodeId>,
        in_probs: Section<f64>,
        in_edge_ids: Section<EdgeId>,
    ) -> DiGraph {
        debug_assert_eq!(out_offsets.len(), n + 1);
        debug_assert_eq!(in_offsets.len(), n + 1);
        debug_assert_eq!(out_targets.len(), out_probs.len());
        debug_assert_eq!(in_sources.len(), in_edge_ids.len());
        DiGraph {
            n,
            out_offsets,
            out_targets,
            out_probs,
            in_offsets,
            in_sources,
            in_probs,
            in_edge_ids,
        }
    }

    /// Borrowed views of all CSR arrays (v4 store writer, compaction).
    pub(crate) fn csr_parts(&self) -> CsrParts<'_> {
        CsrParts {
            out_offsets: &self.out_offsets,
            out_targets: &self.out_targets,
            out_probs: &self.out_probs,
            in_offsets: &self.in_offsets,
            in_sources: &self.in_sources,
            in_probs: &self.in_probs,
            in_edge_ids: &self.in_edge_ids,
        }
    }

    /// Whether any of the graph's arrays is a zero-copy view into a mapped
    /// store file (diagnostics; owned and mapped graphs behave identically).
    pub fn is_mapped(&self) -> bool {
        self.out_offsets.is_mapped()
            || self.out_targets.is_mapped()
            || self.out_probs.is_mapped()
            || self.in_offsets.is_mapped()
            || self.in_sources.is_mapped()
            || self.in_probs.is_mapped()
            || self.in_edge_ids.is_mapped()
    }

    /// Number of nodes `|V|`.
    #[inline]
    pub fn num_nodes(&self) -> usize {
        self.n
    }

    /// Number of directed edges `|E|`.
    #[inline]
    pub fn num_edges(&self) -> usize {
        self.out_targets.len()
    }

    /// Iterator over all node ids `0..n`.
    pub fn nodes(&self) -> impl ExactSizeIterator<Item = NodeId> + Clone {
        (0..self.n as u32).map(NodeId)
    }

    /// Iterator over all edges in canonical (source-major) order.
    pub fn edges(&self) -> impl Iterator<Item = (EdgeId, Edge)> + '_ {
        (0..self.n).flat_map(move |u| {
            let lo = self.out_offsets[u] as usize;
            let hi = self.out_offsets[u + 1] as usize;
            (lo..hi).map(move |slot| {
                (
                    EdgeId(slot as u32),
                    Edge {
                        source: NodeId(u as u32),
                        target: self.out_targets[slot],
                        p: self.out_probs[slot],
                    },
                )
            })
        })
    }

    /// Out-degree of `u`.
    #[inline]
    pub fn out_degree(&self, u: NodeId) -> usize {
        (self.out_offsets[u.index() + 1] - self.out_offsets[u.index()]) as usize
    }

    /// In-degree of `v`.
    #[inline]
    pub fn in_degree(&self, v: NodeId) -> usize {
        (self.in_offsets[v.index() + 1] - self.in_offsets[v.index()]) as usize
    }

    /// Out-neighbourhood `N⁺(u)` with edge ids and probabilities.
    #[inline]
    pub fn out_edges(&self, u: NodeId) -> impl ExactSizeIterator<Item = Adj> + '_ {
        let lo = self.out_offsets[u.index()] as usize;
        let hi = self.out_offsets[u.index() + 1] as usize;
        // Slice the row once, so the loop indexes plain slices.
        let row = self.out_targets[lo..hi].iter().zip(&self.out_probs[lo..hi]);
        row.enumerate().map(move |(i, (&node, &p))| Adj {
            node,
            edge: EdgeId((lo + i) as u32),
            p,
        })
    }

    /// In-neighbourhood `N⁻(v)` with (canonical) edge ids and probabilities.
    #[inline]
    pub fn in_edges(&self, v: NodeId) -> impl ExactSizeIterator<Item = Adj> + '_ {
        let lo = self.in_offsets[v.index()] as usize;
        let hi = self.in_offsets[v.index() + 1] as usize;
        (lo..hi).map(move |slot| Adj {
            node: self.in_sources[slot],
            edge: self.in_edge_ids[slot],
            p: self.in_probs[slot],
        })
    }

    /// Raw in-CSR slices for `v`: sources and probabilities, index-aligned.
    ///
    /// The RR-set samplers' inner loop wants direct slice access (one keyed
    /// coin per source, with one threshold for a uniform-probability run)
    /// without paying the iterator's per-element `Adj` construction.
    #[inline]
    pub fn in_sources_probs(&self, v: NodeId) -> (&[NodeId], &[f64]) {
        let lo = self.in_offsets[v.index()] as usize;
        let hi = self.in_offsets[v.index() + 1] as usize;
        (&self.in_sources[lo..hi], &self.in_probs[lo..hi])
    }

    /// The endpoints and probability of a canonical edge id.
    pub fn edge(&self, e: EdgeId) -> Edge {
        let slot = e.index();
        assert!(slot < self.num_edges(), "edge id out of range");
        // The source is the last node whose offset is <= slot (offsets are
        // non-decreasing; empty ranges of isolated nodes collapse to runs of
        // equal offsets, which partition_point handles correctly).
        let source =
            NodeId((self.out_offsets.partition_point(|&off| off <= slot as u32) - 1) as u32);
        Edge {
            source,
            target: self.out_targets[slot],
            p: self.out_probs[slot],
        }
    }

    /// Probability of the canonical edge `e` (O(1)).
    #[inline]
    pub fn edge_prob(&self, e: EdgeId) -> f64 {
        self.out_probs[e.index()]
    }

    /// Whether the directed edge `(u, v)` exists (O(log out_degree(u))).
    pub fn has_edge(&self, u: NodeId, v: NodeId) -> bool {
        let lo = self.out_offsets[u.index()] as usize;
        let hi = self.out_offsets[u.index() + 1] as usize;
        self.out_targets[lo..hi].binary_search(&v).is_ok()
    }

    /// Sum of all edge probabilities; useful for quick sanity statistics.
    pub fn total_edge_weight(&self) -> f64 {
        self.out_probs.iter().sum()
    }

    /// Returns a graph with every edge reversed (probabilities preserved).
    ///
    /// PageRank-style algorithms and some tests want the transpose view as a
    /// first-class graph.
    pub fn transpose(&self) -> DiGraph {
        let mut b = crate::builder::GraphBuilder::new(self.n);
        for (_, e) in self.edges() {
            b.add_edge(e.target.0, e.source.0, e.p);
        }
        b.build().expect("transpose of a valid graph is valid")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::GraphBuilder;

    fn diamond() -> DiGraph {
        // 0 -> 1 -> 3, 0 -> 2 -> 3
        let mut b = GraphBuilder::new(4);
        b.add_edge(0, 1, 0.1);
        b.add_edge(0, 2, 0.2);
        b.add_edge(1, 3, 0.3);
        b.add_edge(2, 3, 0.4);
        b.build().unwrap()
    }

    #[test]
    fn basic_counts() {
        let g = diamond();
        assert_eq!(g.num_nodes(), 4);
        assert_eq!(g.num_edges(), 4);
        assert_eq!(g.out_degree(NodeId(0)), 2);
        assert_eq!(g.in_degree(NodeId(3)), 2);
        assert_eq!(g.out_degree(NodeId(3)), 0);
        assert_eq!(g.in_degree(NodeId(0)), 0);
    }

    #[test]
    fn out_edges_sorted_and_probs() {
        let g = diamond();
        let out: Vec<Adj> = g.out_edges(NodeId(0)).collect();
        assert_eq!(out.len(), 2);
        assert_eq!(out[0].node, NodeId(1));
        assert_eq!(out[0].p, 0.1);
        assert_eq!(out[1].node, NodeId(2));
        assert_eq!(out[1].p, 0.2);
    }

    #[test]
    fn in_edges_reference_canonical_edge_ids() {
        let g = diamond();
        for v in g.nodes() {
            for adj in g.in_edges(v) {
                let e = g.edge(adj.edge);
                assert_eq!(e.source, adj.node);
                assert_eq!(e.target, v);
                assert_eq!(e.p, adj.p);
            }
        }
    }

    #[test]
    fn in_sources_probs_match_in_edges() {
        let g = diamond();
        for v in g.nodes() {
            let (srcs, probs) = g.in_sources_probs(v);
            let via_iter: Vec<(NodeId, f64)> = g.in_edges(v).map(|a| (a.node, a.p)).collect();
            assert_eq!(srcs.len(), via_iter.len());
            assert_eq!(probs.len(), via_iter.len());
            for (i, &(node, p)) in via_iter.iter().enumerate() {
                assert_eq!(srcs[i], node);
                assert_eq!(probs[i], p);
            }
        }
    }

    #[test]
    fn edge_lookup_roundtrip() {
        let g = diamond();
        for (eid, e) in g.edges() {
            assert_eq!(g.edge(eid), e);
            assert_eq!(g.edge_prob(eid), e.p);
        }
    }

    #[test]
    fn edge_lookup_with_isolated_nodes() {
        // Node 1 and 3 isolated as sources.
        let mut b = GraphBuilder::new(5);
        b.add_edge(0, 1, 0.5);
        b.add_edge(2, 3, 0.5);
        b.add_edge(4, 0, 0.5);
        let g = b.build().unwrap();
        for (eid, e) in g.edges() {
            assert_eq!(g.edge(eid), e, "edge id {eid:?}");
        }
    }

    #[test]
    fn has_edge() {
        let g = diamond();
        assert!(g.has_edge(NodeId(0), NodeId(1)));
        assert!(g.has_edge(NodeId(2), NodeId(3)));
        assert!(!g.has_edge(NodeId(1), NodeId(0)));
        assert!(!g.has_edge(NodeId(0), NodeId(3)));
    }

    #[test]
    fn transpose_swaps_directions() {
        let g = diamond();
        let t = g.transpose();
        assert_eq!(t.num_edges(), g.num_edges());
        assert!(t.has_edge(NodeId(1), NodeId(0)));
        assert!(t.has_edge(NodeId(3), NodeId(1)));
        assert_eq!(t.in_degree(NodeId(0)), g.out_degree(NodeId(0)));
    }

    #[test]
    fn empty_graph() {
        let g = GraphBuilder::new(0).build().unwrap();
        assert_eq!(g.num_nodes(), 0);
        assert_eq!(g.num_edges(), 0);
        assert_eq!(g.nodes().count(), 0);
    }

    #[test]
    fn nodes_without_edges() {
        let g = GraphBuilder::new(7).build().unwrap();
        assert_eq!(g.num_nodes(), 7);
        for v in g.nodes() {
            assert_eq!(g.out_degree(v), 0);
            assert_eq!(g.in_degree(v), 0);
        }
    }
}
