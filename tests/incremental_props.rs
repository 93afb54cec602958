//! Property tests for the incremental sketch-maintenance path: after a
//! batch of edge deltas, the index-driven partial refresh
//! ([`SketchPool::invalidate`] + [`refresh_pool_marked`]) must produce a
//! pool byte-identical to resampling *every* set on the compacted graph —
//! in particular it must not resurrect RR-sets rooted in removed
//! structure — and the regeneration must be thread-invariant.
//!
//! The all-marks refresh is the from-scratch oracle: marking every set
//! resamples the whole pool against the new graph through the exact
//! per-set seed streams the pool was generated from, so any set the
//! invalidation wrongly left untouched shows up as a byte diff. Those
//! streams are keyed on each set's index alone, so the refresh also equals
//! a fresh `generate_pool` on the compacted graph at any thread count.
//!
//! A churn-shaped batch (adds, removes and reweights) checks the
//! compaction's in-CSR through the sampler, which reads it: the refit pool
//! on the compacted graph must equal `generate_pool` on a `from_edges`
//! rebuild of the reference edge set.
//!
//! The keyed invalidation rule is checked for soundness against that
//! regeneration directly: every set whose members change on the new graph
//! is marked, and no set is marked that does not hold a delta's target.

use std::collections::BTreeMap;

use comic_bench::invariance::{assert_thread_invariance, thread_counts};
use comic_graph::builder::from_edges;
use comic_graph::delta::node_removal_deltas;
use comic_graph::{DiGraph, EdgeDelta, NodeId};
use comic_ris::ic_sampler::IcRrSampler;
use comic_ris::pipeline::refresh_pool_marked;
use comic_ris::tim::TimConfig;
use comic_ris::{RisPipeline, SketchPool};
use proptest::prelude::*;

const GEN_THREADS: usize = 2;

/// Strategy: a small random graph as an edge list (same shape as
/// `tests/properties.rs`), with probabilities bounded away from 0 so
/// removals actually change reachability.
fn arb_graph() -> impl Strategy<Value = DiGraph> {
    (
        2usize..20,
        proptest::collection::vec((0u32..20, 0u32..20, 0.05f64..=1.0), 1..60),
    )
        .prop_map(|(n, edges)| {
            let n = n.max(
                edges
                    .iter()
                    .map(|&(a, b, _)| a.max(b) as usize + 1)
                    .max()
                    .unwrap_or(0),
            );
            let mut b = comic_graph::GraphBuilder::new(n);
            for (u, v, p) in edges {
                b.add_edge(u, v, p);
            }
            b.build().expect("arbitrary edges within range are valid")
        })
}

/// Build a touch-tracked IC pool over `g` through the real pipeline, so its
/// seed/θ provenance matches what [`refresh_pool_marked`] re-derives.
fn build_pool(g: &DiGraph, seed: u64) -> SketchPool {
    build_pool_with(g, seed, GEN_THREADS, 512)
}

/// [`build_pool`] at an explicit generation thread count and sketch cap.
fn build_pool_with(g: &DiGraph, seed: u64, threads: usize, cap: u64) -> SketchPool {
    RisPipeline::new(
        TimConfig::new(2)
            .seed(seed)
            .threads(threads)
            .max_rr_sets(cap),
    )
    .generate_pool(|| IcRrSampler::new(g))
    .expect("IC pool over a small proptest graph")
}

/// Refresh with every set marked — from-scratch generation on `g2` with the
/// pool's frozen `(seed, θ)` provenance.
fn scratch_refresh(pool: &SketchPool, g2: &DiGraph) -> SketchPool {
    let all = vec![true; pool.len()];
    refresh_pool_marked(pool, &all, || IcRrSampler::new(g2), GEN_THREADS)
}

/// Assert two pools over the same provenance are byte-identical: store,
/// coverage index, and touch tracking.
fn assert_pools_equal(a: &SketchPool, b: &SketchPool) {
    assert_eq!(a.store(), b.store(), "store mismatch");
    assert_eq!(
        a.coverage_index(),
        b.coverage_index(),
        "coverage index mismatch"
    );
    assert_eq!(a.touch_tracked(), b.touch_tracked());
}

/// Every RR-set must be internally consistent with the *current* graph:
/// each non-root member needs a live out-edge to another member (reverse
/// reachability leaves the whole path in the set). A set sampled against
/// the stale graph — the resurrection bug — violates this as soon as the
/// edge it walked is gone.
fn assert_sets_live(pool: &SketchPool, g: &DiGraph) {
    for i in 0..pool.len() {
        let set = pool.store().set(i);
        let root = set[0];
        for &v in &set[1..] {
            let ok = g
                .out_edges(v)
                .any(|adj| adj.p > 0.0 && (adj.node == root || set.contains(&adj.node)));
            assert!(
                ok,
                "set {i}: member {v:?} has no live out-edge into the set on the compacted graph"
            );
        }
    }
}

/// A churn-shaped batch against `g` from raw `(op, a, b, p)` soup — op 0
/// removes the `a`-th live edge, op 1 reweights it to `p`, op 2 adds
/// `(a, b)` with `p` when absent — plus the reference edge set it leaves,
/// replayed on a plain map.
fn churn_batch(
    g: &DiGraph,
    raw: &[(u32, u32, u32, f64)],
) -> (Vec<EdgeDelta>, Vec<(u32, u32, f64)>) {
    let n = g.num_nodes() as u32;
    let mut live: BTreeMap<(u32, u32), f64> = g
        .edges()
        .map(|(_, e)| ((e.source.0, e.target.0), e.p))
        .collect();
    let mut deltas = Vec::new();
    for &(op, a, b, p) in raw {
        let nth = (!live.is_empty()).then(|| *live.keys().nth(a as usize % live.len()).unwrap());
        let d = match (op, nth) {
            (0, Some((s, t))) => {
                live.remove(&(s, t));
                EdgeDelta::Remove {
                    source: NodeId(s),
                    target: NodeId(t),
                }
            }
            (1, Some((s, t))) => {
                live.insert((s, t), p);
                EdgeDelta::Reweight {
                    source: NodeId(s),
                    target: NodeId(t),
                    p,
                }
            }
            _ => {
                let (s, t) = (a % n, b % n);
                if s == t || live.contains_key(&(s, t)) {
                    continue;
                }
                live.insert((s, t), p);
                EdgeDelta::Add {
                    source: NodeId(s),
                    target: NodeId(t),
                    p,
                }
            }
        };
        deltas.push(d);
    }
    let edges = live.into_iter().map(|((s, t), p)| (s, t, p)).collect();
    (deltas, edges)
}

/// [`churn_batch`] followed by an add → remove → add of one edge absent
/// from its result (when the picked pair is free) and the removal of every
/// edge at one node, as the compacted graph after those changes has them.
fn churn_batch_with_flip_and_node_removal(
    g: &DiGraph,
    raw: &[(u32, u32, u32, f64)],
    flip: (u32, u32, f64, f64),
    node: usize,
) -> Vec<EdgeDelta> {
    let (mut deltas, edges) = churn_batch(g, raw);
    let n = g.num_nodes() as u32;
    let (s, t) = (NodeId(flip.0 % n), NodeId(flip.1 % n));
    if s != t && !edges.iter().any(|&(a, b, _)| (a, b) == (s.0, t.0)) {
        deltas.extend([
            EdgeDelta::Add {
                source: s,
                target: t,
                p: flip.2,
            },
            EdgeDelta::Remove {
                source: s,
                target: t,
            },
            EdgeDelta::Add {
                source: s,
                target: t,
                p: flip.3,
            },
        ]);
    }
    let mid = g.apply_deltas(&deltas).expect("the churn batch applies");
    deltas.extend(node_removal_deltas(
        &mid,
        NodeId((node % g.num_nodes()) as u32),
    ));
    deltas
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Soundness of the keyed rule over churn-shaped batches (adds,
    /// removes, reweights, an add → remove → add of one edge, a node
    /// removal): every set whose from-scratch keyed regeneration on the new
    /// graph holds other members is marked, the refit (marked sets
    /// resampled, the rest spliced with widths recomputed) equals that
    /// regeneration in members and widths, and every marked set holds a
    /// delta's target, as the target-membership rule would mark it.
    #[test]
    fn keyed_marks_cover_every_changed_set_within_the_target_rule(
        g in arb_graph(),
        seed in 0u64..1_000,
        raw in proptest::collection::vec((0u32..3, 0u32..1024, 0u32..1024, 0.05f64..=1.0), 0..24),
        flip in (0u32..1024, 0u32..1024, 0.05f64..=1.0, 0.05f64..=1.0),
        node in 0usize..10_000,
    ) {
        let deltas = churn_batch_with_flip_and_node_removal(&g, &raw, flip, node);
        prop_assume!(!deltas.is_empty());
        let pool = build_pool(&g, seed);
        let g2 = g.apply_deltas(&deltas).unwrap();
        let marks = pool.invalidate(&deltas).expect("IC pools are touch-tracked");
        let fresh = scratch_refresh(&pool, &g2);

        let index = pool.coverage_index();
        let mut touched = vec![false; pool.len()];
        for d in &deltas {
            for &i in index.sets_containing(d.target()) {
                touched[i as usize] = true;
            }
        }
        for (i, (&marked, &touched)) in marks.iter().zip(&touched).enumerate() {
            if fresh.store().set(i) != pool.store().set(i) {
                prop_assert!(marked, "set {} changed on the new graph but is unmarked", i);
            }
            prop_assert!(!marked || touched, "set {} is marked without holding a target", i);
        }
        let refreshed = refresh_pool_marked(&pool, &marks, || IcRrSampler::new(&g2), GEN_THREADS);
        assert_pools_equal(&refreshed, &fresh);
        assert_sets_live(&refreshed, &g2);
    }

    /// Removing an arbitrary edge: the partial refresh equals the
    /// from-scratch pool on the compacted graph.
    #[test]
    fn edge_removal_refresh_matches_scratch(
        g in arb_graph(),
        seed in 0u64..1_000,
        pick in 0usize..10_000,
    ) {
        prop_assume!(g.num_edges() > 0);
        let (_, e) = g.edges().nth(pick % g.num_edges()).unwrap();
        let deltas = vec![EdgeDelta::Remove { source: e.source, target: e.target }];

        let pool = build_pool(&g, seed);
        let g2 = g.apply_deltas(&deltas).unwrap();
        let marks = pool.invalidate(&deltas).expect("IC pools carry touch provenance");

        let refreshed = refresh_pool_marked(&pool, &marks, || IcRrSampler::new(&g2), GEN_THREADS);
        assert_pools_equal(&refreshed, &scratch_refresh(&pool, &g2));
        assert_sets_live(&refreshed, &g2);
    }

    /// Removing a whole node (all incident edges): beyond matching the
    /// from-scratch pool, no regenerated set may keep the detached node as
    /// a member — sets rooted at it collapse to the bare root.
    #[test]
    fn node_removal_refresh_buries_the_node(
        g in arb_graph(),
        seed in 0u64..1_000,
        pick in 0usize..10_000,
    ) {
        let v = NodeId((pick % g.num_nodes()) as u32);
        let deltas = node_removal_deltas(&g, v);
        prop_assume!(!deltas.is_empty());

        let pool = build_pool(&g, seed);
        let g2 = g.apply_deltas(&deltas).unwrap();
        let marks = pool.invalidate(&deltas).expect("IC pools carry touch provenance");

        let refreshed = refresh_pool_marked(&pool, &marks, || IcRrSampler::new(&g2), GEN_THREADS);
        assert_pools_equal(&refreshed, &scratch_refresh(&pool, &g2));
        assert_sets_live(&refreshed, &g2);

        for i in 0..refreshed.len() {
            let set = refreshed.store().set(i);
            if set.contains(&v) {
                prop_assert_eq!(
                    set, &[v][..],
                    "set {} still reaches detached node {:?}", i, v
                );
            }
        }
        // The refreshed index buries v too: it lists v only under its own
        // bare-root sets.
        let index = refreshed.coverage_index();
        for &set in index.sets_containing(v) {
            prop_assert_eq!(refreshed.store().set(set as usize), &[v][..]);
        }
    }

    /// The regeneration thread count is a latency-only knob: refreshing on
    /// 1, 2, 4, … workers yields byte-identical stores.
    #[test]
    fn incremental_refresh_is_thread_invariant(
        g in arb_graph(),
        seed in 0u64..1_000,
        pick in 0usize..10_000,
    ) {
        prop_assume!(g.num_edges() > 0);
        let (_, e) = g.edges().nth(pick % g.num_edges()).unwrap();
        let deltas = vec![EdgeDelta::Remove { source: e.source, target: e.target }];

        let pool = build_pool(&g, seed);
        let g2 = g.apply_deltas(&deltas).unwrap();
        let marks = pool.invalidate(&deltas).expect("IC pools carry touch provenance");

        let report = assert_thread_invariance("incremental_refresh(proptest)", |threads| {
            let refreshed =
                refresh_pool_marked(&pool, &marks, || IcRrSampler::new(&g2), threads);
            refreshed
                .store()
                .iter()
                .map(|set| set.iter().map(|v| v.0).collect::<Vec<u32>>())
                .collect::<Vec<_>>()
        });
        prop_assert_eq!(report.digests.len(), thread_counts().len());
    }

    /// A refresh at thread count `t` equals `generate_pool` on the
    /// compacted graph at a different thread count: pool bytes depend on
    /// the seed and each set's index, never on who sampled it. The cap sits
    /// below Equation (3)'s θ for every graph here (θ ≥ 2λ/n ≈ 100 at
    /// ε = 0.5, ℓ = 1), so both pools hold exactly `CAP` sets.
    #[test]
    fn refresh_equals_generate_pool_on_the_compacted_graph(
        g in arb_graph(),
        seed in 0u64..1_000,
        pick in 0usize..10_000,
    ) {
        const CAP: u64 = 96;
        prop_assume!(g.num_edges() > 0);
        let (_, e) = g.edges().nth(pick % g.num_edges()).unwrap();
        let deltas = vec![EdgeDelta::Remove { source: e.source, target: e.target }];
        let counts = thread_counts();

        let pool = build_pool_with(&g, seed, counts[counts.len() - 1], CAP);
        prop_assert_eq!(pool.len() as u64, CAP);
        let g2 = g.apply_deltas(&deltas).unwrap();
        let marks = pool.invalidate(&deltas).expect("IC pools are touch-tracked");

        let report = assert_thread_invariance("refresh_vs_generate_pool(proptest)", |t| {
            let refreshed = refresh_pool_marked(&pool, &marks, || IcRrSampler::new(&g2), t);
            let other = counts[(counts.iter().position(|&c| c == t).unwrap() + 1) % counts.len()];
            let fresh = build_pool_with(&g2, seed, other, CAP);
            assert_pools_equal(&refreshed, &fresh);
            refreshed
                .store()
                .iter()
                .map(|set| set.iter().map(|v| v.0).collect::<Vec<u32>>())
                .collect::<Vec<_>>()
        });
        prop_assert_eq!(report.digests.len(), counts.len());
    }

    /// A churn-shaped batch of adds, removes and reweights leaves in-rows
    /// with mixed probabilities. The refit pool on the compacted graph
    /// equals `generate_pool` on a `from_edges` rebuild of the reference
    /// edge set, so the compaction's in-CSR (which the sampler reads)
    /// matches the rebuild's byte for byte. `CAP` sits below θ as above.
    #[test]
    fn mixed_batch_refit_equals_generate_pool_on_a_rebuild(
        g in arb_graph(),
        seed in 0u64..1_000,
        raw in proptest::collection::vec((0u32..3, 0u32..1024, 0u32..1024, 0.05f64..=1.0), 1..24),
    ) {
        const CAP: u64 = 96;
        let (deltas, edges) = churn_batch(&g, &raw);
        prop_assume!(!deltas.is_empty());
        let pool = build_pool_with(&g, seed, GEN_THREADS, CAP);
        prop_assert_eq!(pool.len() as u64, CAP);
        let g2 = g.apply_deltas(&deltas).unwrap();
        let rebuilt = from_edges(g.num_nodes(), &edges).unwrap();
        let marks = pool.invalidate(&deltas).expect("IC pools are touch-tracked");

        let refreshed = refresh_pool_marked(&pool, &marks, || IcRrSampler::new(&g2), GEN_THREADS);
        assert_pools_equal(&refreshed, &build_pool_with(&rebuilt, seed, GEN_THREADS, CAP));
        assert_sets_live(&refreshed, &g2);
    }
}
