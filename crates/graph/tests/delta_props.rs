//! Property tests for the edge-delta log and its compaction:
//!
//! * folding a valid delta log with [`DiGraph::apply_deltas`] produces the
//!   same graph as rebuilding from the independently-compacted edge set
//!   with `from_edges`: digest-equal, byte-identical as a canonical text
//!   edge list and as a v4 store (all seven CSR arrays), and equal in
//!   every node's in-row (source, canonical edge id, probability bits,
//!   in-degree);
//! * a log holding invalid records fails with the same typed error as a
//!   sequential fold over a plain edge map — the same variant, and for a
//!   `DeltaConflict` the same record index;
//! * the `COMICDLT` log round-trips exactly;
//! * ANY single-bit flip and ANY truncation of a delta-log file is rejected
//!   with a typed [`GraphError`] — never a panic, never a silently-wrong
//!   delta applied to a live graph.

// The proptest shim's macro expands tests recursively; several properties
// in one block exceed the default limit.
#![recursion_limit = "256"]

use std::collections::BTreeMap;

use comic_graph::builder::{from_edges, GraphBuilder};
use comic_graph::delta::{read_delta_log_bytes, write_delta_log, EdgeDelta};
use comic_graph::error::GraphError;
use comic_graph::io::{graph_digest, write_edge_list};
use comic_graph::store::write_store;
use comic_graph::{DiGraph, NodeId};
use proptest::prelude::*;

type EdgeMap = BTreeMap<(u32, u32), f64>;

fn edge_map(g: &DiGraph) -> EdgeMap {
    g.edges()
        .map(|(_, e)| ((e.source.0, e.target.0), e.p))
        .collect()
}

/// The typed verdict on an invalid log, as the reference fold states it.
#[derive(Debug, PartialEq)]
enum Verdict {
    OutOfRange {
        node: u32,
        n: usize,
    },
    BadProbability {
        source: u32,
        target: u32,
        p_bits: u64,
    },
    Conflict {
        index: usize,
    },
}

fn verdict(e: &GraphError) -> Verdict {
    match *e {
        GraphError::NodeOutOfRange { node, n } => Verdict::OutOfRange { node, n },
        GraphError::InvalidProbability { source, target, p } => Verdict::BadProbability {
            source,
            target,
            p_bits: p.to_bits(),
        },
        GraphError::DeltaConflict { index, .. } => Verdict::Conflict { index },
        ref other => panic!("apply_deltas failed with an unexpected error: {other}"),
    }
}

/// The reference compaction: check and replay the log one record at a time
/// against a plain edge map — node range, then probability, then the
/// record against the map as the earlier records left it.
fn model_fold(g: &DiGraph, deltas: &[EdgeDelta]) -> Result<EdgeMap, Verdict> {
    let n = g.num_nodes();
    let mut live = edge_map(g);
    for (index, d) in deltas.iter().enumerate() {
        let (u, v) = (d.source().0, d.target().0);
        if let Some(node) = [u, v].into_iter().find(|&x| x as usize >= n) {
            return Err(Verdict::OutOfRange { node, n });
        }
        let check_p = |p: f64| {
            if (0.0..=1.0).contains(&p) {
                Ok(())
            } else {
                Err(Verdict::BadProbability {
                    source: u,
                    target: v,
                    p_bits: p.to_bits(),
                })
            }
        };
        let ok = match *d {
            EdgeDelta::Add { p, .. } => {
                check_p(p)?;
                u != v && live.insert((u, v), p).is_none()
            }
            EdgeDelta::Remove { .. } => live.remove(&(u, v)).is_some(),
            EdgeDelta::Reweight { p, .. } => {
                check_p(p)?;
                live.get_mut(&(u, v)).map(|slot| *slot = p).is_some()
            }
        };
        if !ok {
            return Err(Verdict::Conflict { index });
        }
    }
    Ok(live)
}

/// A live-edge model that turns raw `(op, u, v, p)` soup into records
/// valid at their position: adds of present edges become reweights,
/// removes and reweights of absent edges become adds. It remembers which
/// edges the batch added and removed, so invalid records can be aimed at
/// state the batch itself changed.
#[derive(Clone)]
struct ValidLog {
    live: EdgeMap,
    deltas: Vec<EdgeDelta>,
    added: Vec<(u32, u32)>,
    removed: Vec<(u32, u32)>,
}

impl ValidLog {
    fn new(g: &DiGraph) -> ValidLog {
        ValidLog {
            live: edge_map(g),
            deltas: Vec::new(),
            added: Vec::new(),
            removed: Vec::new(),
        }
    }

    /// Append a record that is valid at this position.
    fn apply(&mut self, d: EdgeDelta) {
        let key = (d.source().0, d.target().0);
        match d {
            EdgeDelta::Add { p, .. } => {
                self.live.insert(key, p);
                self.added.push(key);
            }
            EdgeDelta::Remove { .. } => {
                self.live.remove(&key);
                self.removed.push(key);
            }
            EdgeDelta::Reweight { p, .. } => {
                self.live.insert(key, p);
            }
        }
        self.deltas.push(d);
    }

    fn push(&mut self, op: u32, u: u32, v: u32, p: f64) {
        let (source, target) = (NodeId(u), NodeId(v));
        self.apply(match (op, self.live.contains_key(&(u, v))) {
            (1, true) => EdgeDelta::Remove { source, target },
            (_, false) => EdgeDelta::Add { source, target, p },
            (_, true) => EdgeDelta::Reweight { source, target, p },
        });
    }
}

/// A base graph plus a delta log that is valid against it. Besides the raw
/// soup, cases cover an empty base graph, records on the first and last
/// node rows of both directions, and an add → remove → add of one edge.
fn arb_base_and_log() -> impl Strategy<Value = (DiGraph, ValidLog)> {
    (
        2u32..32,
        (0u32..4, 0u32..2, 0u32..2),
        proptest::collection::vec((0u32..1024, 0u32..1024, 1u64..1000), 0..64),
        proptest::collection::vec((0u32..3, 0u32..1024, 0u32..1024, 1u64..1000), 0..48),
        (0u32..1024, 0u32..1024, 0u32..1024, 0u32..1024),
    )
        .prop_map(
            |(n, (keep_base, ends, twice), base_edges, raw, (a, b, at_ends, at_twice))| {
                // One case in four starts from a base graph with no edges.
                let mut builder = GraphBuilder::new(n as usize);
                if keep_base != 0 {
                    for (u, v, w) in base_edges {
                        builder.add_edge(u % n, v % n, w as f64 / 1000.0);
                    }
                }
                let g = builder.build().expect("generated base graphs are valid");
                let mut log = ValidLog::new(&g);
                let slots = raw.len() as u32 + 1;
                for j in 0..slots {
                    if ends != 0 && j == at_ends % slots {
                        // (0, n-1) and (n-1, 0) touch the first and the
                        // last row of both CSR directions.
                        log.push(a % 3, 0, n - 1, 0.125);
                        log.push(b % 3, n - 1, 0, 0.875);
                    }
                    if twice != 0 && j == at_twice % slots {
                        let u = a % n;
                        let v = (u + 1 + b % (n - 1)) % n;
                        if log.live.contains_key(&(u, v)) {
                            log.push(1, u, v, 0.0);
                        }
                        log.push(0, u, v, 0.25);
                        log.push(1, u, v, 0.0);
                        log.push(0, u, v, 0.75);
                    }
                    if let Some(&(op, u, v, w)) = raw.get(j as usize) {
                        let (u, v) = (u % n, v % n);
                        if u != v {
                            log.push(op, u, v, w as f64 / 1000.0);
                        }
                    }
                }
                (g, log)
            },
        )
}

fn arb_base_and_deltas() -> impl Strategy<Value = (DiGraph, Vec<EdgeDelta>)> {
    arb_base_and_log().prop_map(|(g, log)| (g, log.deltas))
}

/// A base graph and a log that holds 1–3 invalid records among valid
/// ones: an add of a live edge, a remove or reweight of an absent one, a
/// self-loop add, an endpoint `>= n`, or a probability outside `[0, 1]`
/// (NaN and infinities included). Half the aimed records target edges the
/// batch itself added or removed, where the overlay decides the verdict.
fn arb_base_and_bad_log() -> impl Strategy<Value = (DiGraph, Vec<EdgeDelta>)> {
    (
        arb_base_and_log(),
        proptest::collection::vec(
            (0u32..6, 0u32..1024, 0u32..1024, 0u32..1024, 0u32..1024),
            1..4,
        ),
    )
        .prop_map(|((g, log), mut bad)| {
            let n = g.num_nodes() as u32;
            let slots = log.deltas.len() + 1;
            bad.sort_by_key(|&(_, _, _, _, at)| at as usize % slots);
            let mut bad = bad.into_iter().peekable();
            // Replay the valid log; invalid records go into the output at
            // their slot but never into the live-edge model.
            let mut replay = ValidLog::new(&g);
            for j in 0..slots {
                while let Some((kind, x, y, pick, _)) =
                    bad.next_if(|&(_, _, _, _, at)| at as usize % slots == j)
                {
                    let d = invalid_record(&replay, n, kind, x, y, pick);
                    replay.deltas.push(d);
                }
                if let Some(&d) = log.deltas.get(j) {
                    replay.apply(d);
                }
            }
            (g, replay.deltas)
        })
}

/// One record that is invalid against `state` (see [`arb_base_and_bad_log`]).
fn invalid_record(state: &ValidLog, n: u32, kind: u32, x: u32, y: u32, pick: u32) -> EdgeDelta {
    let any = |keys: &[(u32, u32)]| keys.get(pick as usize % keys.len().max(1)).copied();
    let live: Vec<(u32, u32)> = state.live.keys().copied().collect();
    let batch_live: Vec<(u32, u32)> = state
        .added
        .iter()
        .copied()
        .filter(|k| state.live.contains_key(k))
        .collect();
    let batch_gone: Vec<(u32, u32)> = state
        .removed
        .iter()
        .copied()
        .filter(|k| !state.live.contains_key(k))
        .collect();
    let from_batch = pick % 2 == 0;
    let (u, v) = (x % n, y % n);
    let absent = if from_batch { any(&batch_gone) } else { None }
        .or_else(|| (!state.live.contains_key(&(u, v))).then_some((u, v)))
        // A self-loop is never live.
        .unwrap_or((u, u));
    let (source, target) = (NodeId(absent.0), NodeId(absent.1));
    let bad_p = [-0.25, 1.5, f64::NAN, f64::INFINITY, f64::NEG_INFINITY][pick as usize % 5];
    match kind {
        0 => {
            // An add of a live edge; a self-loop add when none is live.
            let (s, t) = if from_batch { any(&batch_live) } else { None }
                .or_else(|| any(&live))
                .unwrap_or((u, u));
            EdgeDelta::Add {
                source: NodeId(s),
                target: NodeId(t),
                p: 0.5,
            }
        }
        1 => EdgeDelta::Remove { source, target },
        2 => EdgeDelta::Reweight {
            source,
            target,
            p: 0.5,
        },
        3 => EdgeDelta::Add {
            source: NodeId(u),
            target: NodeId(u),
            p: if pick % 3 == 0 { bad_p } else { 0.5 },
        },
        4 => {
            let far = NodeId(n + x % 3);
            let (source, target) = if pick % 2 == 0 {
                (far, NodeId(v))
            } else {
                (NodeId(u), far)
            };
            match y % 3 {
                0 => EdgeDelta::Add {
                    source,
                    target,
                    p: bad_p,
                },
                1 => EdgeDelta::Remove { source, target },
                _ => EdgeDelta::Reweight {
                    source,
                    target,
                    p: 0.5,
                },
            }
        }
        _ => {
            let (source, target) = (NodeId(u), NodeId(v));
            if pick % 2 == 0 {
                EdgeDelta::Add {
                    source,
                    target,
                    p: bad_p,
                }
            } else {
                EdgeDelta::Reweight {
                    source,
                    target,
                    p: bad_p,
                }
            }
        }
    }
}

fn text_bytes(g: &DiGraph) -> Vec<u8> {
    let mut buf = Vec::new();
    write_edge_list(g, &mut buf).expect("writing to a Vec cannot fail");
    buf
}

fn store_bytes(g: &DiGraph) -> Vec<u8> {
    let mut buf = Vec::new();
    write_store(g, 0, &mut buf).expect("writing to a Vec cannot fail");
    buf
}

/// Every node's in-row: (source, canonical edge id, probability bits).
fn in_rows(g: &DiGraph) -> Vec<Vec<(u32, u32, u64)>> {
    g.nodes()
        .map(|v| {
            g.in_edges(v)
                .map(|a| (a.node.0, a.edge.0, a.p.to_bits()))
                .collect()
        })
        .collect()
}

fn log_bytes(g: &DiGraph, deltas: &[EdgeDelta]) -> Vec<u8> {
    let mut buf = Vec::new();
    write_delta_log(&mut buf, graph_digest(g), deltas).expect("writing to a Vec cannot fail");
    buf
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// apply-log ≡ rebuild-from-compacted-text: folding the log into the
    /// CSR gives the same graph as building one from the reference edge
    /// set — the same digest and text edge list (out-CSR), the same
    /// in-rows and in-degrees (in-CSR), and the same v4 store bytes (all
    /// seven arrays).
    #[test]
    fn apply_log_equals_compacted_rebuild(case in arb_base_and_deltas()) {
        let (g, deltas) = case;
        let h = g.apply_deltas(&deltas).expect("generated logs are valid");
        let edges: Vec<(u32, u32, f64)> = model_fold(&g, &deltas)
            .expect("generated logs are valid")
            .into_iter()
            .map(|((u, v), p)| (u, v, p))
            .collect();
        let want = from_edges(g.num_nodes(), &edges).expect("compacted edge set is valid");
        prop_assert_eq!(graph_digest(&h), graph_digest(&want));
        prop_assert_eq!(text_bytes(&h), text_bytes(&want));
        for v in g.nodes() {
            prop_assert_eq!(h.in_degree(v), want.in_degree(v));
        }
        prop_assert_eq!(in_rows(&h), in_rows(&want));
        prop_assert!(store_bytes(&h) == store_bytes(&want), "CSR arrays differ");
    }

    /// A log with invalid records fails exactly as the sequential
    /// reference fold says: the same typed variant (with its node or
    /// probability), and for a conflict the same record index.
    #[test]
    fn invalid_logs_fail_like_a_sequential_fold(case in arb_base_and_bad_log()) {
        let (g, deltas) = case;
        let want = model_fold(&g, &deltas).expect_err("every generated log holds an invalid record");
        let got = g.apply_deltas(&deltas).expect_err("every generated log holds an invalid record");
        prop_assert_eq!(verdict(&got), want);
    }

    /// The delta log round-trips exactly through its binary encoding.
    #[test]
    fn delta_log_round_trips(case in arb_base_and_deltas()) {
        let (g, deltas) = case;
        let bytes = log_bytes(&g, &deltas);
        let back = read_delta_log_bytes(bytes, graph_digest(&g)).expect("own bytes must load");
        prop_assert_eq!(back, deltas);
    }

    /// Flipping ANY single bit of a delta log makes the load fail typed:
    /// every byte is covered by the magic, the version word, the header
    /// digest, or the content digest.
    #[test]
    fn delta_log_any_single_bit_flip_is_rejected(
        case in arb_base_and_deltas(),
        pos_seed in 0usize..1 << 20,
        bit in 0u32..8,
    ) {
        let (g, deltas) = case;
        let mut bytes = log_bytes(&g, &deltas);
        let pos = pos_seed % bytes.len();
        bytes[pos] ^= 1u8 << bit;
        match read_delta_log_bytes(bytes, graph_digest(&g)) {
            Err(GraphError::Corrupt(_)
                | GraphError::DigestMismatch { .. }
                | GraphError::UnsupportedVersion { .. }
                | GraphError::StaleSource { .. }) => {}
            Err(e) => prop_assert!(false, "untyped error for flip at byte {pos}: {e}"),
            Ok(_) => prop_assert!(false, "flip at byte {pos} bit {bit} loaded successfully"),
        }
    }

    /// Truncating a delta log at ANY proper prefix is rejected typed.
    #[test]
    fn delta_log_any_truncation_is_rejected(
        case in arb_base_and_deltas(),
        cut_seed in 0usize..1 << 20,
    ) {
        let (g, deltas) = case;
        let bytes = log_bytes(&g, &deltas);
        let cut = cut_seed % bytes.len();
        match read_delta_log_bytes(bytes[..cut].to_vec(), graph_digest(&g)) {
            Err(GraphError::Corrupt(_) | GraphError::DigestMismatch { .. }) => {}
            Err(e) => prop_assert!(false, "untyped error for truncation at {cut}: {e}"),
            Ok(_) => prop_assert!(false, "truncation at {cut} loaded successfully"),
        }
    }
}
