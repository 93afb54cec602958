//! Graph text I/O and content digests: whitespace-separated text edge
//! lists (including SNAP-style files), plus the source and graph digests
//! that the binary store ([`crate::store`]) and pool spills record.

use crate::builder::GraphBuilder;
use crate::csr::DiGraph;
use crate::error::GraphError;
use crate::stats::{stats_with_merged, GraphStats};
use std::hash::Hasher;
use std::io::{BufRead, BufReader, BufWriter, Read, Write};

/// Write `g` as a text edge list: a header line `# nodes <n> edges <m>`
/// followed by one `source target probability` triple per line.
pub fn write_edge_list<W: Write>(g: &DiGraph, w: W) -> Result<(), GraphError> {
    let mut out = BufWriter::new(w);
    writeln!(out, "# nodes {} edges {}", g.num_nodes(), g.num_edges())?;
    for (_, e) in g.edges() {
        writeln!(out, "{} {} {}", e.source, e.target, e.p)?;
    }
    out.flush()?;
    Ok(())
}

/// What a text-edge-list ingestion produced, beyond the graph itself.
///
/// Real-world edge lists are messy: SNAP exports repeat edges (undirected
/// pairs saved twice, concatenated crawls) and contain self-loops. The
/// policy here is **last-wins** — of several `(u, v)` lines the final
/// probability is kept — with the merge count surfaced so callers can
/// decide whether the file was as clean as its manifest claimed.
#[derive(Clone, Debug)]
pub struct IngestReport {
    /// The ingested graph.
    pub graph: DiGraph,
    /// Number of `(u, v)` lines merged into a later occurrence (last-wins).
    pub duplicate_edges_merged: usize,
    /// Number of self-loop lines dropped.
    pub self_loops_dropped: usize,
    /// Node count declared by a `# nodes N edges M` header, if any.
    pub declared_nodes: Option<usize>,
    /// Edge count declared by a `# nodes N edges M` header, if any.
    pub declared_edges: Option<usize>,
}

impl IngestReport {
    /// [`GraphStats`] for the ingested graph, with the ingestion-time
    /// duplicate-merge count filled in.
    pub fn stats(&self) -> GraphStats {
        stats_with_merged(&self.graph, self.duplicate_edges_merged)
    }
}

/// Read a text edge list produced by [`write_edge_list`] (or hand-written:
/// the header is optional, in which case `n` = max node id + 1; a missing
/// probability column defaults to 1.0; `#`-prefixed lines are comments).
///
/// SNAP-style files are accepted as-is: the `# Nodes: N Edges: M` header
/// (any capitalisation, with or without colons) is recognised alongside the
/// canonical `# nodes N edges M`, other `#` comment lines (`# Directed
/// graph …`, `# FromNodeId  ToNodeId`) are skipped, and pairs may be
/// tab-separated with no probability column.
///
/// Duplicate `(u, v)` lines are merged **last-wins** and self-loops are
/// dropped; see [`read_edge_list_report`] to observe the counts.
pub fn read_edge_list<R: Read>(r: R) -> Result<DiGraph, GraphError> {
    read_edge_list_report(r).map(|rep| rep.graph)
}

/// Like [`read_edge_list`], but return the full [`IngestReport`] including
/// the duplicate-merge and self-loop counts and any declared header sizes.
pub fn read_edge_list_report<R: Read>(r: R) -> Result<IngestReport, GraphError> {
    use crate::builder::DuplicatePolicy;
    let reader = BufReader::new(r);
    let mut declared_n: Option<usize> = None;
    let mut declared_m: Option<usize> = None;
    let mut edges: Vec<(u32, u32, f64)> = Vec::new();
    let mut max_node: u32 = 0;
    let mut saw_node = false;

    for (lineno, line) in reader.lines().enumerate() {
        let line = line?;
        let line_num = lineno + 1;
        let trimmed = line.trim();
        if trimmed.is_empty() {
            continue;
        }
        if let Some(rest) = trimmed.strip_prefix('#') {
            // Recognise the canonical and SNAP headers ("# nodes N edges M"
            // / "# Nodes: N Edges: M"); ignore other comments.
            let toks: Vec<&str> = rest.split_whitespace().collect();
            let keyword = |t: &str| t.trim_end_matches(':').to_ascii_lowercase();
            if toks.len() >= 4 && keyword(toks[0]) == "nodes" && keyword(toks[2]) == "edges" {
                declared_n = Some(toks[1].parse().map_err(|_| GraphError::Parse {
                    line: line_num,
                    msg: format!("bad node count '{}'", toks[1]),
                })?);
                declared_m = Some(toks[3].parse().map_err(|_| GraphError::Parse {
                    line: line_num,
                    msg: format!("bad edge count '{}'", toks[3]),
                })?);
            }
            continue;
        }
        let toks: Vec<&str> = trimmed.split_whitespace().collect();
        if toks.len() < 2 {
            return Err(GraphError::Parse {
                line: line_num,
                msg: format!("expected 'source target [p]', got '{trimmed}'"),
            });
        }
        let u: u32 = toks[0].parse().map_err(|_| GraphError::Parse {
            line: line_num,
            msg: format!("bad source '{}'", toks[0]),
        })?;
        let v: u32 = toks[1].parse().map_err(|_| GraphError::Parse {
            line: line_num,
            msg: format!("bad target '{}'", toks[1]),
        })?;
        let p: f64 = if toks.len() >= 3 {
            toks[2].parse().map_err(|_| GraphError::Parse {
                line: line_num,
                msg: format!("bad probability '{}'", toks[2]),
            })?
        } else {
            1.0
        };
        max_node = max_node.max(u).max(v);
        saw_node = true;
        edges.push((u, v, p));
    }

    // SNAP's "Nodes:" header counts *distinct* nodes, not max id + 1, and
    // real SNAP files have non-contiguous ids (e.g. web-Google declares
    // 875,713 nodes but contains id 916,427) — so a declared count only
    // ever widens the universe, never shrinks it below what the edges need.
    let inferred = if saw_node { max_node as usize + 1 } else { 0 };
    let n = declared_n.map_or(inferred, |d| d.max(inferred));
    let mut b =
        GraphBuilder::with_capacity(n, edges.len()).duplicate_policy(DuplicatePolicy::KeepLast);
    for (u, v, p) in edges {
        b.add_edge(u, v, p);
    }
    let (graph, report) = b.build_with_report()?;
    Ok(IngestReport {
        graph,
        duplicate_edges_merged: report.duplicate_edges_merged,
        self_loops_dropped: report.dropped_self_loops,
        declared_nodes: declared_n,
        declared_edges: declared_m,
    })
}

/// The sentinel meaning "no source file digest was recorded": a store
/// written by [`crate::store::write_store`] for a graph that is its own
/// provenance (generated, or built in memory). Staleness checking is
/// skipped for such files.
pub const NO_SOURCE_DIGEST: u64 = 0;

/// Fx content digest of raw source bytes, as recorded in the graph store's
/// meta words ([`crate::store`]): length-prefixed so that truncation plus
/// zero-padding cannot collide.
pub fn source_digest(bytes: &[u8]) -> u64 {
    let mut h = crate::fasthash::FxHasher::default();
    h.write_u64(bytes.len() as u64);
    h.write(bytes);
    h.finish()
}

/// Content digest of a graph: an Fx-hash fold over the node count and the
/// canonical edge list (source, target, probability bits). Pool spills
/// record it as the graph their sketches were sampled over, and callers
/// use it to check that two load paths produced the same graph.
pub fn graph_digest(g: &DiGraph) -> u64 {
    let mut h = crate::fasthash::FxHasher::default();
    h.write_u64(g.num_nodes() as u64);
    h.write_u64(g.num_edges() as u64);
    for (_, e) in g.edges() {
        h.write_u32(e.source.0);
        h.write_u32(e.target.0);
        h.write_u64(e.p.to_bits());
    }
    h.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    fn assert_graph_eq(a: &DiGraph, b: &DiGraph) {
        assert_eq!(a.num_nodes(), b.num_nodes());
        assert_eq!(a.num_edges(), b.num_edges());
        let ea: Vec<_> = a.edges().map(|(_, e)| e).collect();
        let eb: Vec<_> = b.edges().map(|(_, e)| e).collect();
        assert_eq!(ea, eb);
    }

    #[test]
    fn text_roundtrip() {
        let mut rng = SmallRng::seed_from_u64(1);
        let g = crate::prob::ProbModel::Uniform { lo: 0.1, hi: 0.9 }
            .apply(&gen::gnm(40, 150, &mut rng).unwrap(), &mut rng);
        let mut buf = Vec::new();
        write_edge_list(&g, &mut buf).unwrap();
        let g2 = read_edge_list(&buf[..]).unwrap();
        assert_graph_eq(&g, &g2);
    }

    #[test]
    fn text_without_header_or_probs() {
        let src = "0 1\n1 2 0.5\n\n# comment\n2 0\n";
        let g = read_edge_list(src.as_bytes()).unwrap();
        assert_eq!(g.num_nodes(), 3);
        assert_eq!(g.num_edges(), 3);
        let probs: Vec<f64> = g.edges().map(|(_, e)| e.p).collect();
        assert_eq!(probs, vec![1.0, 0.5, 1.0]);
    }

    #[test]
    fn text_header_allows_isolated_tail_nodes() {
        let src = "# nodes 10 edges 1\n0 1 0.3\n";
        let g = read_edge_list(src.as_bytes()).unwrap();
        assert_eq!(g.num_nodes(), 10);
        assert_eq!(g.num_edges(), 1);
    }

    #[test]
    fn snap_format_with_tabs_and_colon_header() {
        // A verbatim SNAP-style prelude: descriptive comments, the
        // "# Nodes: N Edges: M" header, a column-caption comment, then
        // tab-separated pairs without probabilities.
        let src = "# Directed graph (each unordered pair of nodes is saved once)\n\
                   # Example social network\n\
                   # Nodes: 7 Edges: 3\n\
                   # FromNodeId\tToNodeId\n\
                   0\t1\n\
                   1\t2\n\
                   4\t0\n";
        let g = read_edge_list(src.as_bytes()).unwrap();
        assert_eq!(g.num_nodes(), 7);
        assert_eq!(g.num_edges(), 3);
        assert!(g.edges().all(|(_, e)| e.p == 1.0));
        // Lower-case colon variant also works.
        let g = read_edge_list("# nodes: 4 edges: 1\n2\t3\n".as_bytes()).unwrap();
        assert_eq!(g.num_nodes(), 4);
        assert_eq!(g.num_edges(), 1);
    }

    #[test]
    fn snap_undercounting_header_does_not_reject_sparse_ids() {
        // SNAP headers count distinct nodes; ids can exceed the count.
        // The declared 2 must not shrink the universe below max id + 1.
        let g = read_edge_list("# Nodes: 2 Edges: 2\n0 9\n9 5\n".as_bytes()).unwrap();
        assert_eq!(g.num_nodes(), 10);
        assert_eq!(g.num_edges(), 2);
    }

    #[test]
    fn snap_header_with_bad_count_is_an_error() {
        match read_edge_list("# Nodes: many Edges: 3\n0 1\n".as_bytes()) {
            Err(GraphError::Parse { line, .. }) => assert_eq!(line, 1),
            other => panic!("expected parse error, got {other:?}"),
        }
    }

    #[test]
    fn duplicate_edges_merge_last_wins_and_are_counted() {
        let src = "# Nodes: 3 Edges: 4\n0 1 0.2\n1 2 0.9\n0 1 0.7\n2 2 0.5\n";
        let rep = read_edge_list_report(src.as_bytes()).unwrap();
        assert_eq!(rep.graph.num_edges(), 2);
        assert_eq!(rep.duplicate_edges_merged, 1);
        assert_eq!(rep.self_loops_dropped, 1);
        assert_eq!(rep.declared_nodes, Some(3));
        assert_eq!(rep.declared_edges, Some(4));
        // Last probability wins.
        let p01 = rep
            .graph
            .out_edges(crate::NodeId(0))
            .next()
            .expect("edge (0,1) survives")
            .p;
        assert_eq!(p01, 0.7);
        // And the count is surfaced through GraphStats.
        let s = rep.stats();
        assert_eq!(s.duplicate_edges_merged, 1);
        assert!(s.to_string().contains("dup-merged=1"));
    }

    #[test]
    fn clean_input_reports_zero_merges() {
        let rep = read_edge_list_report("0 1 0.5\n1 2 0.5\n".as_bytes()).unwrap();
        assert_eq!(rep.duplicate_edges_merged, 0);
        assert_eq!(rep.self_loops_dropped, 0);
        assert_eq!(rep.declared_nodes, None);
        assert!(!rep.stats().to_string().contains("dup-merged"));
    }

    #[test]
    fn text_parse_errors_carry_line_numbers() {
        let src = "0 1 0.5\nnot an edge\n";
        match read_edge_list(src.as_bytes()) {
            Err(GraphError::Parse { line, .. }) => assert_eq!(line, 2),
            other => panic!("expected parse error, got {other:?}"),
        }
    }

    #[test]
    fn source_digest_is_length_prefixed() {
        assert_ne!(source_digest(b"ab"), source_digest(b"ab\0"));
        assert_ne!(source_digest(b""), source_digest(b"\0"));
        assert_eq!(source_digest(b"xyz"), source_digest(b"xyz"));
    }

    #[test]
    fn empty_graph_roundtrips() {
        let g = crate::builder::from_edges(0, &[]).unwrap();
        let mut buf = Vec::new();
        write_edge_list(&g, &mut buf).unwrap();
        let g2 = read_edge_list(&buf[..]).unwrap();
        assert_eq!(g2.num_nodes(), 0);
        assert_eq!(graph_digest(&g), graph_digest(&g2));
    }
}
