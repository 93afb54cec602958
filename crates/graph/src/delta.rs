//! Append-only edge-delta log and compaction (the `COMICDLT` v1 format).
//!
//! A dynamic graph is represented as an immutable base [`DiGraph`] plus an
//! ordered log of [`EdgeDelta`] records (add / remove / reweight). The log
//! rides the same segment container as the v4 graph store — magic, version,
//! meta words, header digest, content digest — so any single-bit flip or
//! truncation is rejected with a typed [`GraphError`], never applied.
//!
//! Compaction is [`DiGraph::apply_deltas`]: fold the log into a fresh CSR
//! over the **same node universe** and return it (with a new
//! [`crate::io::graph_digest`]). Deltas that disagree with the base graph —
//! adding an edge that exists, removing or reweighting one that doesn't,
//! adding a self-loop — are conflicts and fail typed
//! ([`GraphError::DeltaConflict`]) rather than being silently reconciled:
//! the log is an authoritative journal, not a hint.
//!
//! Compaction costs the batch plus one sequential copy of both CSR
//! directions: the records fold against a batch-sized overlay and the
//! base's sorted out-rows, untouched rows are copied in bulk, and only the
//! rows the batch touched are merged. There is no per-edge hashing or
//! sort. The result is byte-identical to building the compacted edge set
//! with [`crate::builder::from_edges`] (same seven arrays, same digest).

use std::collections::HashMap;
use std::io::{BufWriter, Write};
use std::ops::Range;
use std::path::Path;

use crate::csr::{CsrParts, DiGraph, EdgeId, NodeId};
use crate::error::{GraphError, StaleArtifact};
use crate::store::{write_segment, SectionData, SegmentFile, MAX_PLAUSIBLE_EDGES};

/// Magic bytes identifying an edge-delta log.
pub const DELTA_MAGIC: &[u8; 8] = b"COMICDLT";

/// The delta-log format version this build reads and writes (the only one).
pub const DELTA_FORMAT_VERSION: u32 = 1;

/// Meta words: `[base_graph_digest, record_count]`.
pub const DELTA_META_LEN: usize = 2;

/// One record of the edge-delta log.
///
/// Node ids refer to the base graph's fixed universe `0..n`; deltas never
/// grow or shrink the node set (see [`node_removal_deltas`] for how "remove
/// a node" is expressed as edge deltas).
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum EdgeDelta {
    /// Insert a new directed edge `(source, target)` with probability `p`.
    Add {
        /// Tail of the new edge.
        source: NodeId,
        /// Head of the new edge.
        target: NodeId,
        /// Influence probability, validated into `[0, 1]` at apply time.
        p: f64,
    },
    /// Delete the existing directed edge `(source, target)`.
    Remove {
        /// Tail of the edge to delete.
        source: NodeId,
        /// Head of the edge to delete.
        target: NodeId,
    },
    /// Change the probability of the existing edge `(source, target)`.
    Reweight {
        /// Tail of the edge to reweight.
        source: NodeId,
        /// Head of the edge to reweight.
        target: NodeId,
        /// New influence probability, validated into `[0, 1]` at apply time.
        p: f64,
    },
}

impl EdgeDelta {
    /// Tail node of the affected edge.
    pub fn source(&self) -> NodeId {
        match *self {
            EdgeDelta::Add { source, .. }
            | EdgeDelta::Remove { source, .. }
            | EdgeDelta::Reweight { source, .. } => source,
        }
    }

    /// Head node of the affected edge — the node whose **in**-adjacency run
    /// changes, and therefore the key the RR-sketch invalidation layer
    /// tests against sampled-set membership.
    pub fn target(&self) -> NodeId {
        match *self {
            EdgeDelta::Add { target, .. }
            | EdgeDelta::Remove { target, .. }
            | EdgeDelta::Reweight { target, .. } => target,
        }
    }

    fn op_code(&self) -> u32 {
        match self {
            EdgeDelta::Add { .. } => 0,
            EdgeDelta::Remove { .. } => 1,
            EdgeDelta::Reweight { .. } => 2,
        }
    }

    fn p_word(&self) -> f64 {
        match *self {
            EdgeDelta::Add { p, .. } | EdgeDelta::Reweight { p, .. } => p,
            // Canonical zero so the encoding of a Remove is unique and the
            // reader can insist on it.
            EdgeDelta::Remove { .. } => 0.0,
        }
    }
}

/// Serialize a delta log for the graph whose digest is `base_digest`.
pub fn write_delta_log<W: Write>(
    w: &mut W,
    base_digest: u64,
    deltas: &[EdgeDelta],
) -> Result<(), GraphError> {
    let ops: Vec<u32> = deltas.iter().map(EdgeDelta::op_code).collect();
    let sources: Vec<NodeId> = deltas.iter().map(EdgeDelta::source).collect();
    let targets: Vec<NodeId> = deltas.iter().map(EdgeDelta::target).collect();
    let probs: Vec<f64> = deltas.iter().map(EdgeDelta::p_word).collect();
    let meta = [base_digest, deltas.len() as u64];
    let sections = [
        SectionData::U32(&ops),
        SectionData::Nodes(&sources),
        SectionData::Nodes(&targets),
        SectionData::F64(&probs),
    ];
    write_segment(w, DELTA_MAGIC, DELTA_FORMAT_VERSION, &meta, &sections).map_err(GraphError::Io)
}

/// [`write_delta_log`] to a file path (buffered).
pub fn write_delta_log_file(
    path: &Path,
    base_digest: u64,
    deltas: &[EdgeDelta],
) -> Result<(), GraphError> {
    let f = std::fs::File::create(path).map_err(GraphError::Io)?;
    let mut w = BufWriter::new(f);
    write_delta_log(&mut w, base_digest, deltas)?;
    w.flush().map_err(GraphError::Io)
}

/// Parse and verify a delta log already in memory. `expected_base` is the
/// [`crate::io::graph_digest`] of the graph the log is about to be applied
/// to; a log recorded against a different base fails typed
/// ([`GraphError::StaleSource`]) before any record is surfaced.
pub fn read_delta_log_bytes(
    bytes: Vec<u8>,
    expected_base: u64,
) -> Result<Vec<EdgeDelta>, GraphError> {
    let seg = SegmentFile::from_bytes(bytes, DELTA_MAGIC, DELTA_FORMAT_VERSION, DELTA_META_LEN)?;
    deltas_from_segment(&seg, expected_base)
}

/// Read, verify, and decode a delta-log file.
pub fn read_delta_log_file(path: &Path, expected_base: u64) -> Result<Vec<EdgeDelta>, GraphError> {
    let seg = SegmentFile::open(path, DELTA_MAGIC, DELTA_FORMAT_VERSION, DELTA_META_LEN)?;
    deltas_from_segment(&seg, expected_base)
}

fn deltas_from_segment(
    seg: &SegmentFile,
    expected_base: u64,
) -> Result<Vec<EdgeDelta>, GraphError> {
    let &[base, count] = seg.meta() else {
        unreachable!("SegmentFile::meta always has DELTA_META_LEN words");
    };
    if count > MAX_PLAUSIBLE_EDGES {
        return Err(GraphError::Corrupt(format!(
            "implausible delta count {count}"
        )));
    }
    if base != expected_base {
        return Err(GraphError::StaleSource {
            artifact: StaleArtifact::DeltaLog,
            expected: expected_base,
            found: base,
        });
    }
    if seg.num_sections() != 4 {
        return Err(GraphError::Corrupt(format!(
            "delta log has {} sections, expected 4",
            seg.num_sections()
        )));
    }
    let count = count as usize;
    let ops = seg.section::<u32>(0, count)?;
    let sources = seg.section::<NodeId>(1, count)?;
    let targets = seg.section::<NodeId>(2, count)?;
    let probs = seg.section::<f64>(3, count)?;
    let (ops, sources, targets, probs) = (
        ops.as_slice(),
        sources.as_slice(),
        targets.as_slice(),
        probs.as_slice(),
    );
    let mut out = Vec::with_capacity(count);
    for i in 0..count {
        let (source, target, p) = (sources[i], targets[i], probs[i]);
        out.push(match ops[i] {
            0 => EdgeDelta::Add { source, target, p },
            1 => {
                if p.to_bits() != 0 {
                    return Err(GraphError::Corrupt(format!(
                        "delta {i}: remove record carries probability {p}"
                    )));
                }
                EdgeDelta::Remove { source, target }
            }
            2 => EdgeDelta::Reweight { source, target, p },
            op => {
                return Err(GraphError::Corrupt(format!(
                    "delta {i}: unknown op code {op}"
                )))
            }
        });
    }
    Ok(out)
}

/// Expand "remove node `v`" into the edge deltas that detach it: one
/// [`EdgeDelta::Remove`] per out-edge, then one per in-edge. The node id
/// itself stays in the universe (as an isolated node), so downstream sketch
/// pools keep a stable id space.
pub fn node_removal_deltas(g: &DiGraph, v: NodeId) -> Vec<EdgeDelta> {
    let mut out = Vec::with_capacity(g.out_degree(v) + g.in_degree(v));
    for adj in g.out_edges(v) {
        out.push(EdgeDelta::Remove {
            source: v,
            target: adj.node,
        });
    }
    let (sources, _) = g.in_sources_probs(v);
    for &s in sources {
        out.push(EdgeDelta::Remove {
            source: s,
            target: v,
        });
    }
    out
}

/// One edge the batch named, keyed `(row, head)` — `(source, target)` for
/// the out-CSR, `(target, source)` for the in-CSR — with its state after
/// the batch: `Some(p)` live with probability `p`, `None` absent.
type Change = (u32, NodeId, Option<f64>);

impl DiGraph {
    /// Fold an ordered delta log into a fresh CSR over the same node
    /// universe (compaction). Applying an empty log reproduces a graph with
    /// the same [`crate::io::graph_digest`].
    ///
    /// Typed failures, checked record by record in log order — node range,
    /// then probability, then the record against the graph state the
    /// earlier records left: out-of-range endpoints
    /// ([`GraphError::NodeOutOfRange`]), non-finite or out-of-`[0, 1]`
    /// probabilities ([`GraphError::InvalidProbability`]), and records that
    /// contradict that state ([`GraphError::DeltaConflict`] with the
    /// record's index): a self-loop add, an add of a live edge, a remove or
    /// reweight of an absent one, and an add that would grow the graph past
    /// [`MAX_PLAUSIBLE_EDGES`] (offsets and edge ids are `u32`).
    ///
    /// Cost: the batch plus one sequential copy of both CSR directions.
    /// Records fold against a batch-sized overlay and a binary search in the
    /// base's out-row; untouched rows of each direction are copied in bulk
    /// with shifted offsets; only the rows the batch touched are merged.
    /// The result is byte-identical to [`crate::builder::from_edges`] over
    /// the compacted edge set: the same seven arrays, so the same digest.
    pub fn apply_deltas(&self, deltas: &[EdgeDelta]) -> Result<DiGraph, GraphError> {
        let (by_source, m) = self.fold_batch(deltas, MAX_PLAUSIBLE_EDGES)?;
        let base = self.csr_parts();
        let out = Rows::rebuild(
            base.out_offsets,
            base.out_targets,
            base.out_probs,
            &by_source,
            m,
        );
        let mut by_target: Vec<Change> = by_source
            .iter()
            .map(|&(s, t, state)| (t.0, NodeId(s), state))
            .collect();
        by_target.sort_unstable_by_key(|&(t, s, _)| (t, s));
        let inn = Rows::rebuild(
            base.in_offsets,
            base.in_sources,
            base.in_probs,
            &by_target,
            m,
        );
        let in_edge_ids = in_edge_ids(&base, &out, &inn, &by_target);
        Ok(DiGraph::from_csr_parts(
            self.num_nodes(),
            out.offsets.into(),
            out.heads.into(),
            out.probs.into(),
            inn.offsets.into(),
            inn.heads.into(),
            inn.probs.into(),
            in_edge_ids.into(),
        ))
    }

    /// Check and fold `deltas` in log order against a batch-sized overlay
    /// over the base's out-rows. Returns each named edge's final state,
    /// sorted by `(source, target)`, and the compacted edge count, which may
    /// never pass `max_edges`.
    fn fold_batch(
        &self,
        deltas: &[EdgeDelta],
        max_edges: u64,
    ) -> Result<(Vec<Change>, usize), GraphError> {
        let n = self.num_nodes();
        let base = self.csr_parts();
        let conflict = |index: usize, msg: String| GraphError::DeltaConflict { index, msg };
        // The keys come from clients: std's keyed hasher, not Fx.
        let mut overlay: HashMap<(u32, u32), Option<f64>> = HashMap::with_capacity(deltas.len());
        let mut edges = self.num_edges() as u64;
        for (i, d) in deltas.iter().enumerate() {
            let (u, v) = (d.source(), d.target());
            for node in [u, v] {
                if node.index() >= n {
                    return Err(GraphError::NodeOutOfRange { node: node.0, n });
                }
            }
            let key = (u.0, v.0);
            let live = || match overlay.get(&key) {
                Some(state) => state.is_some(),
                None => {
                    let row = base.out_offsets[u.index()] as usize
                        ..base.out_offsets[u.index() + 1] as usize;
                    base.out_targets[row].binary_search(&v).is_ok()
                }
            };
            let state = match *d {
                EdgeDelta::Add { p, .. } => {
                    validate_p(u, v, p)?;
                    if u == v {
                        return Err(conflict(i, format!("self-loop add on node {}", u.0)));
                    }
                    if live() {
                        return Err(conflict(
                            i,
                            format!("add of existing edge ({}, {})", u.0, v.0),
                        ));
                    }
                    edges += 1;
                    if edges > max_edges {
                        return Err(conflict(
                            i,
                            format!(
                                "add of ({}, {}) grows the graph past {max_edges} edges",
                                u.0, v.0
                            ),
                        ));
                    }
                    Some(p)
                }
                EdgeDelta::Remove { .. } => {
                    if !live() {
                        return Err(conflict(
                            i,
                            format!("remove of missing edge ({}, {})", u.0, v.0),
                        ));
                    }
                    edges -= 1;
                    None
                }
                EdgeDelta::Reweight { p, .. } => {
                    validate_p(u, v, p)?;
                    if !live() {
                        return Err(conflict(
                            i,
                            format!("reweight of missing edge ({}, {})", u.0, v.0),
                        ));
                    }
                    Some(p)
                }
            };
            overlay.insert(key, state);
        }
        let mut changes: Vec<Change> = overlay
            .into_iter()
            .map(|((s, t), state)| (s, NodeId(t), state))
            .collect();
        changes.sort_unstable_by_key(|&(s, t, _)| (s, t));
        Ok((changes, edges as usize))
    }
}

/// One CSR direction under construction: row offsets, and per slot the
/// far endpoint (`heads`) and the edge probability.
struct Rows {
    offsets: Vec<u32>,
    heads: Vec<NodeId>,
    probs: Vec<f64>,
}

impl Rows {
    /// Rebuild one base direction with `changes` (sorted by `(row, head)`)
    /// applied, for `m` edges in all: each stretch of untouched rows is one
    /// bulk copy, each touched row a merge.
    fn rebuild(
        offsets: &[u32],
        heads: &[NodeId],
        probs: &[f64],
        changes: &[Change],
        m: usize,
    ) -> Rows {
        let n = offsets.len() - 1;
        let mut rows = Rows {
            offsets: Vec::with_capacity(n + 1),
            heads: Vec::with_capacity(m),
            probs: Vec::with_capacity(m),
        };
        rows.offsets.push(0);
        let mut next = 0;
        for row_changes in changes.chunk_by(|a, b| a.0 == b.0) {
            let r = row_changes[0].0 as usize;
            rows.copy(offsets, heads, probs, next..r);
            let slots = offsets[r] as usize..offsets[r + 1] as usize;
            rows.merge(&heads[slots.clone()], &probs[slots], row_changes);
            next = r + 1;
        }
        rows.copy(offsets, heads, probs, next..n);
        rows
    }

    /// Append the base rows `rows` unchanged: one copy per array, offsets
    /// shifted by the net edge count change so far.
    fn copy(&mut self, offsets: &[u32], heads: &[NodeId], probs: &[f64], rows: Range<usize>) {
        let slots = offsets[rows.start] as usize..offsets[rows.end] as usize;
        // Wrapping u32 arithmetic: the shift may be negative, but every
        // shifted offset is a valid one of the result (at most its edge
        // count, which `fold_batch` bounds by `u32::MAX`).
        let shift = (self.heads.len() as u32).wrapping_sub(slots.start as u32);
        self.offsets.extend(
            offsets[rows.start + 1..rows.end + 1]
                .iter()
                .map(|&o| o.wrapping_add(shift)),
        );
        self.heads.extend_from_slice(&heads[slots.clone()]);
        self.probs.extend_from_slice(&probs[slots]);
    }

    /// Append one touched row: the base row (`heads` ascending) merged with
    /// its changes (ascending heads). A change replaces or deletes the base
    /// entry with its head, or inserts one.
    fn merge(&mut self, heads: &[NodeId], probs: &[f64], changes: &[Change]) {
        let mut cur = 0;
        for &(_, head, state) in changes {
            let stop = cur + heads[cur..].partition_point(|&h| h < head);
            self.heads.extend_from_slice(&heads[cur..stop]);
            self.probs.extend_from_slice(&probs[cur..stop]);
            cur = stop + usize::from(heads.get(stop) == Some(&head));
            if let Some(p) = state {
                self.heads.push(head);
                self.probs.push(p);
            }
        }
        self.heads.extend_from_slice(&heads[cur..]);
        self.probs.extend_from_slice(&probs[cur..]);
        self.offsets.push(self.heads.len() as u32);
    }
}

/// The canonical edge id of every slot of the rebuilt in-CSR `inn`. A
/// copied in-row keeps its base ids, each shifted by its source row's
/// offset shift in the rebuilt out-CSR `out`; where that source row was
/// merged, and in every merged in-row, the id is the edge's position in
/// its source's merged out-row (a binary search).
fn in_edge_ids(base: &CsrParts<'_>, out: &Rows, inn: &Rows, by_target: &[Change]) -> Vec<EdgeId> {
    let n = inn.offsets.len() - 1;
    let locate = |s: NodeId, v: NodeId| {
        let row = out.offsets[s.index()] as usize..out.offsets[s.index() + 1] as usize;
        let k = out.heads[row.clone()]
            .binary_search(&v)
            .expect("every live edge sits in its source's out-row");
        EdgeId((row.start + k) as u32)
    };
    // Per source: the shift of its out-row's ids, `None` where it merged.
    let mut shift: Vec<Option<u32>> = out.offsets[..n]
        .iter()
        .zip(&base.out_offsets[..n])
        .map(|(&new, &old)| Some(new.wrapping_sub(old)))
        .collect();
    for &(_, s, _) in by_target {
        shift[s.index()] = None;
    }
    let mut ids = Vec::with_capacity(inn.heads.len());
    let copy = |ids: &mut Vec<EdgeId>, rows: Range<usize>| {
        let slots = base.in_offsets[rows.start] as usize..base.in_offsets[rows.end] as usize;
        let pairs = base.in_edge_ids[slots.clone()]
            .iter()
            .zip(&base.in_sources[slots]);
        ids.extend(pairs.map(|(&e, &s)| match shift[s.index()] {
            Some(d) => EdgeId(e.0.wrapping_add(d)),
            None => locate(s, base.out_targets[e.index()]),
        }));
    };
    let mut next = 0;
    for row_changes in by_target.chunk_by(|a, b| a.0 == b.0) {
        let v = row_changes[0].0 as usize;
        copy(&mut ids, next..v);
        let slots = inn.offsets[v] as usize..inn.offsets[v + 1] as usize;
        ids.extend(
            inn.heads[slots]
                .iter()
                .map(|&s| locate(s, NodeId(v as u32))),
        );
        next = v + 1;
    }
    copy(&mut ids, next..n);
    ids
}

fn validate_p(u: NodeId, v: NodeId, p: f64) -> Result<(), GraphError> {
    if !p.is_finite() || !(0.0..=1.0).contains(&p) {
        return Err(GraphError::InvalidProbability {
            source: u.0,
            target: v.0,
            p,
        });
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::from_edges;
    use crate::io::graph_digest;

    fn base() -> DiGraph {
        from_edges(4, &[(0, 1, 0.5), (1, 2, 0.25), (2, 0, 1.0), (3, 2, 0.75)]).unwrap()
    }

    fn tmp_path(tag: &str) -> std::path::PathBuf {
        static SEQ: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);
        let k = SEQ.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        std::env::temp_dir().join(format!(
            "comic_delta_{}_{}_{tag}.dlt",
            std::process::id(),
            k
        ))
    }

    #[test]
    fn apply_empty_log_is_identity() {
        let g = base();
        let h = g.apply_deltas(&[]).unwrap();
        assert_eq!(graph_digest(&g), graph_digest(&h));
    }

    #[test]
    fn apply_folds_all_three_ops() {
        let g = base();
        let h = g
            .apply_deltas(&[
                EdgeDelta::Add {
                    source: NodeId(0),
                    target: NodeId(2),
                    p: 0.125,
                },
                EdgeDelta::Remove {
                    source: NodeId(1),
                    target: NodeId(2),
                },
                EdgeDelta::Reweight {
                    source: NodeId(2),
                    target: NodeId(0),
                    p: 0.5,
                },
            ])
            .unwrap();
        let want = from_edges(4, &[(0, 1, 0.5), (0, 2, 0.125), (2, 0, 0.5), (3, 2, 0.75)]).unwrap();
        assert_eq!(graph_digest(&h), graph_digest(&want));
        assert_eq!(h.num_nodes(), 4);
    }

    #[test]
    fn conflicts_and_bad_records_are_typed() {
        let g = base();
        let add_existing = EdgeDelta::Add {
            source: NodeId(0),
            target: NodeId(1),
            p: 0.5,
        };
        assert!(matches!(
            g.apply_deltas(&[add_existing]),
            Err(GraphError::DeltaConflict { index: 0, .. })
        ));
        let remove_missing = EdgeDelta::Remove {
            source: NodeId(0),
            target: NodeId(2),
        };
        assert!(matches!(
            g.apply_deltas(&[remove_missing]),
            Err(GraphError::DeltaConflict { index: 0, .. })
        ));
        let reweight_missing = EdgeDelta::Reweight {
            source: NodeId(3),
            target: NodeId(0),
            p: 0.1,
        };
        assert!(matches!(
            g.apply_deltas(&[reweight_missing]),
            Err(GraphError::DeltaConflict { index: 0, .. })
        ));
        let self_loop = EdgeDelta::Add {
            source: NodeId(1),
            target: NodeId(1),
            p: 0.5,
        };
        assert!(matches!(
            g.apply_deltas(&[self_loop]),
            Err(GraphError::DeltaConflict { index: 0, .. })
        ));
        let out_of_range = EdgeDelta::Add {
            source: NodeId(0),
            target: NodeId(9),
            p: 0.5,
        };
        assert!(matches!(
            g.apply_deltas(&[out_of_range]),
            Err(GraphError::NodeOutOfRange { node: 9, n: 4 })
        ));
        let bad_p = EdgeDelta::Add {
            source: NodeId(0),
            target: NodeId(3),
            p: 1.5,
        };
        assert!(matches!(
            g.apply_deltas(&[bad_p]),
            Err(GraphError::InvalidProbability { .. })
        ));
        // A conflict mid-log reports its position.
        let ok_then_bad = [
            EdgeDelta::Remove {
                source: NodeId(0),
                target: NodeId(1),
            },
            EdgeDelta::Remove {
                source: NodeId(0),
                target: NodeId(1),
            },
        ];
        assert!(matches!(
            g.apply_deltas(&ok_then_bad),
            Err(GraphError::DeltaConflict { index: 1, .. })
        ));
    }

    #[test]
    fn an_add_past_the_edge_cap_is_a_typed_conflict() {
        let g = base();
        let add = EdgeDelta::Add {
            source: NodeId(0),
            target: NodeId(3),
            p: 0.5,
        };
        let remove = EdgeDelta::Remove {
            source: NodeId(0),
            target: NodeId(1),
        };
        // At the cap an add fails at its own index; a remove makes room.
        assert!(matches!(
            g.fold_batch(&[remove, add, add], 4),
            Err(GraphError::DeltaConflict { index: 2, .. })
        ));
        assert!(matches!(
            g.fold_batch(&[add], 4),
            Err(GraphError::DeltaConflict { index: 0, .. })
        ));
        let (_, m) = g.fold_batch(&[remove, add], 4).unwrap();
        assert_eq!(m, 4);
    }

    #[test]
    fn log_round_trips_through_bytes_and_file() {
        let g = base();
        let deltas = vec![
            EdgeDelta::Add {
                source: NodeId(0),
                target: NodeId(3),
                p: 0.625,
            },
            EdgeDelta::Remove {
                source: NodeId(2),
                target: NodeId(0),
            },
            EdgeDelta::Reweight {
                source: NodeId(0),
                target: NodeId(1),
                p: 1.0,
            },
        ];
        let digest = graph_digest(&g);
        let mut buf = Vec::new();
        write_delta_log(&mut buf, digest, &deltas).unwrap();
        assert_eq!(read_delta_log_bytes(buf, digest).unwrap(), deltas);

        let path = tmp_path("roundtrip");
        write_delta_log_file(&path, digest, &deltas).unwrap();
        assert_eq!(read_delta_log_file(&path, digest).unwrap(), deltas);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn stale_base_digest_is_typed() {
        let g = base();
        let digest = graph_digest(&g);
        let mut buf = Vec::new();
        write_delta_log(&mut buf, digest, &[]).unwrap();
        let err = read_delta_log_bytes(buf, digest ^ 1).unwrap_err();
        assert!(matches!(
            err,
            GraphError::StaleSource {
                artifact: StaleArtifact::DeltaLog,
                expected,
                found,
            } if expected == digest ^ 1 && found == digest
        ));
        assert_eq!(
            err.to_string(),
            format!(
                "stale delta log: the base graph has digest {:#018x} but the log was \
                 recorded against base {digest:#018x}",
                digest ^ 1
            )
        );
    }

    #[test]
    fn unknown_op_code_is_typed() {
        // Craft a log whose single record has op code 3.
        let ops = [3u32];
        let nodes = [NodeId(0)];
        let probs = [0.0f64];
        let mut buf = Vec::new();
        write_segment(
            &mut buf,
            DELTA_MAGIC,
            DELTA_FORMAT_VERSION,
            &[7, 1],
            &[
                SectionData::U32(&ops),
                SectionData::Nodes(&nodes),
                SectionData::Nodes(&nodes),
                SectionData::F64(&probs),
            ],
        )
        .unwrap();
        assert!(matches!(
            read_delta_log_bytes(buf, 7),
            Err(GraphError::Corrupt(msg)) if msg.contains("op code 3")
        ));
    }

    #[test]
    fn remove_record_with_probability_is_typed() {
        let ops = [1u32];
        let nodes = [NodeId(0)];
        let probs = [0.5f64];
        let mut buf = Vec::new();
        write_segment(
            &mut buf,
            DELTA_MAGIC,
            DELTA_FORMAT_VERSION,
            &[7, 1],
            &[
                SectionData::U32(&ops),
                SectionData::Nodes(&nodes),
                SectionData::Nodes(&nodes),
                SectionData::F64(&probs),
            ],
        )
        .unwrap();
        assert!(matches!(
            read_delta_log_bytes(buf, 7),
            Err(GraphError::Corrupt(msg)) if msg.contains("carries probability")
        ));
    }

    #[test]
    fn node_removal_expands_to_detaching_edge_deltas() {
        let g = base();
        let deltas = node_removal_deltas(&g, NodeId(2));
        // Out-edge (2, 0); in-edges (1, 2) and (3, 2).
        assert_eq!(deltas.len(), 3);
        let h = g.apply_deltas(&deltas).unwrap();
        assert_eq!(h.num_nodes(), 4);
        assert_eq!(h.out_degree(NodeId(2)), 0);
        assert_eq!(h.in_degree(NodeId(2)), 0);
        let want = from_edges(4, &[(0, 1, 0.5)]).unwrap();
        assert_eq!(graph_digest(&h), graph_digest(&want));
    }
}
