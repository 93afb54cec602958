//! Incremental graph construction with validation and de-duplication.

use crate::csr::{DiGraph, Edge, NodeId};
use crate::error::GraphError;

/// What to do when the same directed edge `(u, v)` is added more than once.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub enum DuplicatePolicy {
    /// Keep the first probability seen (default).
    #[default]
    KeepFirst,
    /// Keep the last probability seen.
    KeepLast,
    /// Combine duplicates with "noisy-or": `1 − (1−p₁)(1−p₂)…`, the standard
    /// way to merge parallel influence channels between the same pair.
    NoisyOr,
    /// Keep the maximum probability.
    Max,
}

/// Builder for [`DiGraph`].
///
/// Self-loops are dropped (a node does not inform itself in any cascade
/// model), duplicate edges are merged according to [`DuplicatePolicy`], and
/// node ids / probabilities are validated at [`GraphBuilder::build`] time.
#[derive(Clone, Debug)]
pub struct GraphBuilder {
    n: usize,
    edges: Vec<Edge>,
    policy: DuplicatePolicy,
    dropped_self_loops: usize,
}

impl GraphBuilder {
    /// Start building a graph with `n` nodes (ids `0..n`).
    pub fn new(n: usize) -> Self {
        GraphBuilder {
            n,
            edges: Vec::new(),
            policy: DuplicatePolicy::default(),
            dropped_self_loops: 0,
        }
    }

    /// Like [`GraphBuilder::new`] but pre-allocates room for `m` edges.
    pub fn with_capacity(n: usize, m: usize) -> Self {
        GraphBuilder {
            n,
            edges: Vec::with_capacity(m),
            policy: DuplicatePolicy::default(),
            dropped_self_loops: 0,
        }
    }

    /// Set the duplicate-edge policy (default [`DuplicatePolicy::KeepFirst`]).
    pub fn duplicate_policy(mut self, policy: DuplicatePolicy) -> Self {
        self.policy = policy;
        self
    }

    /// Queue the directed edge `(u, v)` with probability `p`.
    ///
    /// Self-loops are silently dropped and counted
    /// (see [`GraphBuilder::dropped_self_loops`]).
    pub fn add_edge(&mut self, u: u32, v: u32, p: f64) {
        if u == v {
            self.dropped_self_loops += 1;
            return;
        }
        self.edges.push(Edge {
            source: NodeId(u),
            target: NodeId(v),
            p,
        });
    }

    /// Queue both `(u, v)` and `(v, u)` with the same probability — how the
    /// paper directs the undirected Flixster / Last.fm friendship links.
    pub fn add_undirected(&mut self, u: u32, v: u32, p: f64) {
        self.add_edge(u, v, p);
        self.add_edge(v, u, p);
    }

    /// Number of self-loops dropped so far.
    pub fn dropped_self_loops(&self) -> usize {
        self.dropped_self_loops
    }

    /// Number of edges currently queued (before de-duplication).
    pub fn queued_edges(&self) -> usize {
        self.edges.len()
    }

    /// Validate, de-duplicate, sort, and produce the immutable [`DiGraph`].
    pub fn build(self) -> Result<DiGraph, GraphError> {
        self.build_with_report().map(|(g, _)| g)
    }

    /// Like [`GraphBuilder::build`], but also report how many queued edges
    /// were merged away as duplicates (and how many self-loops were dropped
    /// at [`GraphBuilder::add_edge`] time) — ingestion surfaces these so
    /// that silently-messy input files are visible to callers.
    pub fn build_with_report(mut self) -> Result<(DiGraph, BuildReport), GraphError> {
        for e in &self.edges {
            if e.source.index() >= self.n {
                return Err(GraphError::NodeOutOfRange {
                    node: e.source.0,
                    n: self.n,
                });
            }
            if e.target.index() >= self.n {
                return Err(GraphError::NodeOutOfRange {
                    node: e.target.0,
                    n: self.n,
                });
            }
            if !e.p.is_finite() || e.p < 0.0 || e.p > 1.0 {
                return Err(GraphError::InvalidProbability {
                    source: e.source.0,
                    target: e.target.0,
                    p: e.p,
                });
            }
        }
        // Stable sort so KeepFirst/KeepLast see duplicates in insertion order.
        self.edges.sort_by_key(|e| (e.source, e.target));
        let policy = self.policy;
        let queued = self.edges.len();
        let mut deduped: Vec<Edge> = Vec::with_capacity(self.edges.len());
        for e in self.edges {
            match deduped.last_mut() {
                Some(last) if last.source == e.source && last.target == e.target => {
                    last.p = match policy {
                        DuplicatePolicy::KeepFirst => last.p,
                        DuplicatePolicy::KeepLast => e.p,
                        DuplicatePolicy::NoisyOr => 1.0 - (1.0 - last.p) * (1.0 - e.p),
                        DuplicatePolicy::Max => last.p.max(e.p),
                    };
                }
                _ => deduped.push(e),
            }
        }
        let report = BuildReport {
            duplicate_edges_merged: queued - deduped.len(),
            dropped_self_loops: self.dropped_self_loops,
        };
        Ok((DiGraph::from_sorted_edges(self.n, &deduped), report))
    }
}

/// Construction counters from [`GraphBuilder::build_with_report`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct BuildReport {
    /// Queued edges merged into an earlier `(u, v)` occurrence.
    pub duplicate_edges_merged: usize,
    /// Self-loops dropped at queue time.
    pub dropped_self_loops: usize,
}

/// Convenience: build a graph from an explicit edge list
/// `(source, target, probability)`.
///
/// # Example
/// ```
/// let g = comic_graph::builder::from_edges(3, &[(0, 1, 1.0), (1, 2, 0.5)]).unwrap();
/// assert_eq!(g.num_edges(), 2);
/// ```
pub fn from_edges(n: usize, edges: &[(u32, u32, f64)]) -> Result<DiGraph, GraphError> {
    let mut b = GraphBuilder::with_capacity(n, edges.len());
    for &(u, v, p) in edges {
        b.add_edge(u, v, p);
    }
    b.build()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rejects_out_of_range_nodes() {
        let mut b = GraphBuilder::new(2);
        b.add_edge(0, 5, 0.5);
        assert!(matches!(
            b.build(),
            Err(GraphError::NodeOutOfRange { node: 5, n: 2 })
        ));
    }

    #[test]
    fn rejects_bad_probability() {
        for p in [-0.1, 1.1, f64::NAN, f64::INFINITY] {
            let mut b = GraphBuilder::new(2);
            b.add_edge(0, 1, p);
            assert!(matches!(
                b.build(),
                Err(GraphError::InvalidProbability { .. })
            ));
        }
    }

    #[test]
    fn boundary_probabilities_accepted() {
        let g = from_edges(2, &[(0, 1, 0.0), (1, 0, 1.0)]).unwrap();
        assert_eq!(g.num_edges(), 2);
    }

    #[test]
    fn drops_self_loops() {
        let mut b = GraphBuilder::new(2);
        b.add_edge(0, 0, 0.9);
        b.add_edge(0, 1, 0.5);
        assert_eq!(b.dropped_self_loops(), 1);
        let g = b.build().unwrap();
        assert_eq!(g.num_edges(), 1);
    }

    #[test]
    fn duplicate_keep_first_and_last() {
        let mut b = GraphBuilder::new(2).duplicate_policy(DuplicatePolicy::KeepFirst);
        b.add_edge(0, 1, 0.2);
        b.add_edge(0, 1, 0.8);
        let g = b.build().unwrap();
        assert_eq!(g.out_edges(NodeId(0)).next().unwrap().p, 0.2);

        let mut b = GraphBuilder::new(2).duplicate_policy(DuplicatePolicy::KeepLast);
        b.add_edge(0, 1, 0.2);
        b.add_edge(0, 1, 0.8);
        let g = b.build().unwrap();
        assert_eq!(g.out_edges(NodeId(0)).next().unwrap().p, 0.8);
    }

    #[test]
    fn duplicate_noisy_or() {
        let mut b = GraphBuilder::new(2).duplicate_policy(DuplicatePolicy::NoisyOr);
        b.add_edge(0, 1, 0.5);
        b.add_edge(0, 1, 0.5);
        let g = b.build().unwrap();
        let p = g.out_edges(NodeId(0)).next().unwrap().p;
        assert!((p - 0.75).abs() < 1e-12);
    }

    #[test]
    fn duplicate_max() {
        let mut b = GraphBuilder::new(2).duplicate_policy(DuplicatePolicy::Max);
        b.add_edge(0, 1, 0.3);
        b.add_edge(0, 1, 0.7);
        b.add_edge(0, 1, 0.4);
        let g = b.build().unwrap();
        assert_eq!(g.out_edges(NodeId(0)).next().unwrap().p, 0.7);
    }

    #[test]
    fn undirected_adds_both_directions() {
        let mut b = GraphBuilder::new(2);
        b.add_undirected(0, 1, 0.5);
        let g = b.build().unwrap();
        assert!(g.has_edge(NodeId(0), NodeId(1)));
        assert!(g.has_edge(NodeId(1), NodeId(0)));
    }

    #[test]
    fn build_report_counts_merges_and_loops() {
        let mut b = GraphBuilder::new(3).duplicate_policy(DuplicatePolicy::KeepLast);
        b.add_edge(0, 1, 0.2);
        b.add_edge(0, 1, 0.8);
        b.add_edge(1, 1, 0.5);
        b.add_edge(1, 2, 0.4);
        let (g, r) = b.build_with_report().unwrap();
        assert_eq!(g.num_edges(), 2);
        assert_eq!(r.duplicate_edges_merged, 1);
        assert_eq!(r.dropped_self_loops, 1);
        assert_eq!(g.out_edges(NodeId(0)).next().unwrap().p, 0.8);
    }

    #[test]
    fn unsorted_input_is_sorted() {
        let g = from_edges(4, &[(3, 0, 0.1), (0, 2, 0.2), (0, 1, 0.3), (2, 1, 0.4)]).unwrap();
        let sources: Vec<u32> = g.edges().map(|(_, e)| e.source.0).collect();
        let mut sorted = sources.clone();
        sorted.sort_unstable();
        assert_eq!(sources, sorted);
    }
}
