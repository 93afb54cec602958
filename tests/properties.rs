//! Property-based tests (proptest) on cross-crate invariants.

use comic::model::oracle::CoinOracle;
use comic::model::seeds::seeds;
use comic::prelude::*;
use comic::ris::sampler::RrSampler;
use comic_core::simulate::CascadeEngine;
use comic_graph::builder::from_edges;
use comic_graph::gen;
use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::SeedableRng;

/// Strategy: a small random graph as an edge list with probabilities.
fn arb_graph() -> impl Strategy<Value = DiGraph> {
    (
        2usize..20,
        proptest::collection::vec((0u32..20, 0u32..20, 0.0f64..=1.0), 0..60),
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

fn arb_gap() -> impl Strategy<Value = Gap> {
    (0.0f64..=1.0, 0.0f64..=1.0, 0.0f64..=1.0, 0.0f64..=1.0)
        .prop_map(|(a, b, c, d)| Gap::new(a, b, c, d).unwrap())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The cascade engine never produces unreachable joint states, never
    /// double-counts, and adoption sets contain the seeds.
    #[test]
    fn cascade_invariants(g in arb_graph(), gap in arb_gap(), seed in 0u64..1000) {
        let n = g.num_nodes() as u32;
        let sp = SeedPair::new(
            seeds(&[0 % n.max(1)]),
            seeds(&[(n.saturating_sub(1)).min(1)]),
        );
        let mut engine = CascadeEngine::new(&g);
        let mut oracle = CoinOracle::new(g.num_edges(), SmallRng::seed_from_u64(seed));
        let stats = engine.run(&gap, &sp, &mut oracle);
        prop_assert_eq!(stats.a_count as usize, engine.a_adopted().len());
        prop_assert_eq!(stats.b_count as usize, engine.b_adopted().len());
        prop_assert!(stats.a_count as usize <= g.num_nodes());
        for &s in &sp.a {
            prop_assert!(engine.a_adopted().contains(&s));
        }
        for &s in &sp.b {
            prop_assert!(engine.b_adopted().contains(&s));
        }
        for v in g.nodes() {
            prop_assert!(engine.final_state(v).is_reachable());
        }
        let mut a = engine.a_adopted().to_vec();
        a.sort_unstable();
        a.dedup();
        prop_assert_eq!(a.len(), stats.a_count as usize);
    }

    /// IC RR-sets: root membership, distinctness, and backward reachability.
    #[test]
    fn ic_rr_set_invariants(g in arb_graph(), seed in 0u64..1000) {
        let mut sampler = comic::ris::ic_sampler::IcRrSampler::new(&g);
        let mut rng = SmallRng::seed_from_u64(seed);
        let mut out = Vec::new();
        for root in g.nodes().take(5) {
            sampler.sample(root, &mut rng, &mut out);
            prop_assert!(out.contains(&root));
            let mut sorted = out.clone();
            sorted.sort_unstable();
            sorted.dedup();
            prop_assert_eq!(sorted.len(), out.len());
            let reach = comic_graph::traversal::reachable(
                &g, &[root], comic_graph::traversal::Direction::Backward);
            for v in &out {
                prop_assert!(reach.contains(v));
            }
        }
    }

    /// Spread estimates are bounded by |V| and at least |seeds|.
    #[test]
    fn spread_bounds(g in arb_graph(), gap in arb_gap(), seed in 0u64..100) {
        prop_assume!(g.num_nodes() >= 2);
        let sp = SeedPair::new(seeds(&[0]), seeds(&[1]));
        let est = SpreadEstimator::new(&g, gap).estimate(&sp, 200, seed);
        prop_assert!(est.sigma_a >= 1.0 - 1e-9);
        prop_assert!(est.sigma_a <= g.num_nodes() as f64 + 1e-9);
        prop_assert!(est.sigma_b >= 1.0 - 1e-9);
        prop_assert!(est.sigma_b <= g.num_nodes() as f64 + 1e-9);
    }

    /// Reconsideration probability always satisfies the defining identity
    /// in the complementary direction and is zero in the competitive one.
    #[test]
    fn reconsideration_identity(gap in arb_gap()) {
        for item in comic::model::Item::BOTH {
            let rho = gap.reconsider_prob(item);
            prop_assert!((0.0..=1.0).contains(&rho));
            let (q0, qx) = match item {
                comic::model::Item::A => (gap.q_a0, gap.q_ab),
                comic::model::Item::B => (gap.q_b0, gap.q_ba),
            };
            if qx >= q0 && q0 < 1.0 {
                prop_assert!((q0 + (1.0 - q0) * rho - qx).abs() < 1e-9);
            } else {
                prop_assert_eq!(rho, 0.0);
            }
        }
    }

    /// The CELF lazy-greedy selector returns exactly the same seeds,
    /// coverage and marginals as the exhaustive naive-greedy oracle on
    /// arbitrary RR-set collections, over an index built at any thread
    /// count — the determinism contract of `comic_ris::select`.
    #[test]
    fn celf_selection_matches_naive_greedy(
        raw_sets in proptest::collection::vec(
            proptest::collection::vec(0u32..24, 0..7), 0..60),
        k in 1usize..10,
    ) {
        use comic::ris::select::{CelfGreedy, CoverageIndex, NaiveGreedy, SeedSelector};
        let n = 24usize;
        let mut store = comic::ris::RrStore::new();
        for raw in &raw_sets {
            let mut members: Vec<NodeId> = raw.iter().copied().map(NodeId).collect();
            members.sort_unstable();
            members.dedup();
            store.push_with_width(&members, 0);
        }
        let index = CoverageIndex::build(&store, n, 1);
        prop_assert_eq!(CoverageIndex::build(&store, n, 3), index.clone());
        let naive = NaiveGreedy.select(&index, k);
        let celf = CelfGreedy.select(&index, k);
        prop_assert_eq!(&celf.seeds, &naive.seeds);
        prop_assert_eq!(celf.covered, naive.covered);
        prop_assert_eq!(&celf.marginals, &naive.marginals);
        // Coverage really is the number of intersected sets.
        let mut mark = vec![false; n];
        for s in &naive.seeds {
            mark[s.index()] = true;
        }
        let recount = (0..store.len())
            .filter(|&i| store.set(i).iter().any(|v| mark[v.index()]))
            .count() as u64;
        prop_assert_eq!(naive.covered, recount);
    }

    /// SIMD ≡ scalar and sharded ≡ one-range index builds on arbitrary
    /// stores: every kernel mode available on the host returns the
    /// identical naive selection, CELF matches it, and the index built on
    /// `parts` workers (contiguous set ranges, some possibly holding only
    /// empty sets, and more workers than sets on short stores) equals the
    /// one-worker build. A hub node in `hub_extra` extra sets gives the
    /// draws a dominant, high-degree node of varying weight.
    #[test]
    fn simd_and_fused_paths_match_scalar_standalone(
        raw_sets in proptest::collection::vec(
            proptest::collection::vec(0u32..12, 0..5), 0..60),
        hub_extra in 0usize..400,
        parts in 1usize..5,
        k in 1usize..8,
    ) {
        use comic::ris::select::{CelfGreedy, CoverageIndex, NaiveGreedy, SeedSelector};
        use comic::ris::simd::{self, SimdMode};
        let n = 12usize;
        let mut store = comic::ris::RrStore::new();
        for raw in &raw_sets {
            let mut members: Vec<NodeId> = raw.iter().copied().map(NodeId).collect();
            members.sort_unstable();
            members.dedup();
            store.push_with_width(&members, 0);
        }
        // A hub (node 0) in `hub_extra` extra singleton sets.
        for _ in 0..hub_extra {
            store.push_with_width(&[NodeId(0)], 0);
        }
        let index = CoverageIndex::build(&store, n, 1);
        prop_assert_eq!(&CoverageIndex::build(&store, n, parts), &index);
        // Selection: scalar NaiveGreedy is the oracle; naive in every
        // available mode, and CELF, must agree exactly.
        let oracle = NaiveGreedy.select_with(&index, k, store.len(), SimdMode::Scalar);
        let mut modes = vec![SimdMode::Scalar];
        if simd::detect() == SimdMode::Avx2 {
            modes.push(SimdMode::Avx2);
        }
        for &mode in &modes {
            let nv = NaiveGreedy.select_with(&index, k, store.len(), mode);
            prop_assert_eq!(&nv, &oracle, "naive mode {:?}", mode);
        }
        prop_assert_eq!(&CelfGreedy.select(&index, k), &oracle);
    }

    /// Budgeted stage 4 and estimates read the resident index in place,
    /// and answer exactly what the copied prefix pool answers. Random
    /// stores (empty sets and a hub node included), cuts {1, random,
    /// len−1, len, len+7}, k up to n+2, both selectors: `run_on_prefix`
    /// equals `run_on_pool(&pool.prefix(cut))` in every field
    /// (`est_spread` by bits, errors by message), CELF equals naive over
    /// the cut in every SIMD mode, and the cut estimate has the bits of
    /// the prefix pool's estimate and of a brute-force scan of the copied
    /// sets, for duplicate, out-of-range and empty seed lists.
    #[test]
    fn in_place_prefix_answers_match_the_copied_prefix(
        raw_sets in proptest::collection::vec(
            proptest::collection::vec(0u32..16, 0..6), 1..60),
        hub_every in 1usize..6,
        cut_pick in 0usize..10_000,
        k in 1usize..19,
        est_seeds in proptest::collection::vec(0u32..20, 0..6),
    ) {
        use comic::ris::select::{
            CelfGreedy, CoverageIndex, NaiveGreedy, SeedSelector, SelectorKind,
        };
        use comic::ris::simd::{self, SimdMode};
        use comic::ris::{RisPipeline, SketchPool, TimConfig};
        use std::sync::Arc;
        let n = 16usize;
        let mut store = comic::ris::RrStore::new();
        for (i, raw) in raw_sets.iter().enumerate() {
            let mut members: Vec<NodeId> = raw.iter().copied().map(NodeId).collect();
            // A hub (node 0) in every `hub_every`-th set.
            if i % hub_every == 0 {
                members.push(NodeId(0));
            }
            members.sort_unstable();
            members.dedup();
            store.push_with_width(&members, 0);
        }
        let len = store.len();
        let index = Arc::new(CoverageIndex::build(&store, n, 1));
        let pool = SketchPool::new(Arc::new(store), Arc::clone(&index), 5, 3, 0.5, 2.0, false);
        let mut modes = vec![SimdMode::Scalar];
        if simd::detect() == SimdMode::Avx2 {
            modes.push(SimdMode::Avx2);
        }
        let seeds: Vec<NodeId> = est_seeds.iter().copied().map(NodeId).collect();
        let cuts = [1, 1 + cut_pick % len, len - 1, len, len + 7];
        for cut in cuts {
            let copied = pool.prefix(cut);
            for selector in [SelectorKind::Celf, SelectorKind::NaiveGreedy] {
                let pipe = RisPipeline::new(TimConfig::new(k).selector(selector));
                let oracle = pipe.run_on_pool(&copied).map_err(|e| e.to_string());
                let got = pipe.run_on_prefix(&pool, cut).map_err(|e| e.to_string());
                match (&got, &oracle) {
                    (Ok(a), Ok(b)) => {
                        prop_assert_eq!(&a.seeds, &b.seeds, "cut {} {:?}", cut, selector);
                        prop_assert_eq!(a.theta, b.theta);
                        prop_assert_eq!(a.kpt.to_bits(), b.kpt.to_bits());
                        prop_assert_eq!(a.covered, b.covered);
                        prop_assert_eq!(a.est_spread.to_bits(), b.est_spread.to_bits());
                        prop_assert_eq!(a.capped, b.capped);
                    }
                    (Err(a), Err(b)) => prop_assert_eq!(a, b),
                    _ => prop_assert!(false, "cut {}: {:?} vs {:?}", cut, got, oracle),
                }
            }
            // The selectors themselves: CELF over the cut equals naive
            // over the cut in every mode, and both equal a selection over
            // an index built for the copied prefix alone.
            let celf = CelfGreedy.select_prefix(&index, k, cut);
            for &mode in &modes {
                prop_assert_eq!(
                    &NaiveGreedy.select_with(&index, k, cut, mode),
                    &celf,
                    "cut {} mode {:?}", cut, mode
                );
            }
            let cut_index = copied.coverage_index();
            prop_assert_eq!(&**cut_index, &CoverageIndex::build(copied.store(), n, 1));
            prop_assert_eq!(&CelfGreedy.select(cut_index, k), &celf);
            // Estimates: in place, through the copy, and by a brute-force
            // scan of the copied sets agree bit for bit, for the drawn
            // seeds, their doubling and none (an empty cut estimates 0).
            let doubled: Vec<NodeId> = seeds.iter().chain(&seeds).copied().collect();
            for list in [&seeds[..], &doubled[..], &[]] {
                let sets = copied.len();
                let hit = (0..sets)
                    .filter(|&i| copied.store().set(i).iter().any(|v| list.contains(v)))
                    .count();
                let want = if sets == 0 {
                    0.0f64.to_bits()
                } else {
                    (n as f64 * (hit as f64 / sets as f64)).to_bits()
                };
                prop_assert_eq!(copied.estimate_spread(list).to_bits(), want);
                prop_assert_eq!(pool.estimate_spread_prefix(list, cut).to_bits(), want);
            }
        }
    }

    /// Graph serialization round-trips exactly.
    #[test]
    fn graph_io_roundtrip(g in arb_graph()) {
        let mut text = Vec::new();
        comic_graph::io::write_edge_list(&g, &mut text).unwrap();
        let g2 = comic_graph::io::read_edge_list(&text[..]).unwrap();
        prop_assert_eq!(g.num_nodes(), g2.num_nodes());
        let e1: Vec<_> = g.edges().map(|(_, e)| e).collect();
        let e2: Vec<_> = g2.edges().map(|(_, e)| e).collect();
        prop_assert_eq!(e1, e2);

        let mut bin = Vec::new();
        comic_graph::store::write_store(&g, comic_graph::io::NO_SOURCE_DIGEST, &mut bin).unwrap();
        let g3 = comic_graph::store::read_store_bytes(bin, None).unwrap();
        prop_assert_eq!(g.num_edges(), g3.num_edges());
    }

    /// Classic-IC special case: Com-IC with Q=(1,0,0,0) equals plain IC in
    /// distribution (compared on the same seed with generous tolerance).
    #[test]
    fn classic_ic_reduction(seed in 0u64..50) {
        let mut grng = SmallRng::seed_from_u64(seed);
        let topo = gen::gnm(30, 120, &mut grng).unwrap();
        let g = comic_graph::prob::ProbModel::Constant(0.3).apply(&topo, &mut grng);
        let s = seeds(&[0, 1]);
        let mut rng = SmallRng::seed_from_u64(seed ^ 0xabc);
        let ic = comic::model::ic::ic_spread(&g, &s, 4000, &mut rng);
        let comic_est = SpreadEstimator::new(&g, Gap::classic_ic())
            .estimate(&SeedPair::a_only(s), 4000, seed);
        let tol = 8.0 * comic_est.stderr_a().max(0.05);
        prop_assert!((ic - comic_est.sigma_a).abs() < tol,
            "IC {} vs Com-IC {}", ic, comic_est.sigma_a);
    }
}

#[test]
fn seedpair_common_is_sorted_intersection() {
    let sp = SeedPair::new(seeds(&[5, 1, 9, 3]), seeds(&[3, 9, 11]));
    assert_eq!(sp.common(), seeds(&[3, 9]));
}

#[test]
fn rr_sim_empty_b_matches_ic_rr_distribution_under_full_gaps() {
    // With q_{A|∅} = q_{A|B} = 1 and no B-seeds, every node passes its A
    // test, so RR-SIM's sets are exactly the classic-IC backward-reachable
    // sets in distribution. Compare mean sizes statistically.
    let g = from_edges(6, &[(0, 1, 0.6), (1, 2, 0.7), (3, 2, 0.4), (4, 5, 0.9)]).unwrap();
    let gap = Gap::new(1.0, 1.0, 0.5, 0.5).unwrap();
    let mut sim = comic::algos::RrSimSampler::new(&g, gap, vec![]).unwrap();
    let mut ic = comic::ris::ic_sampler::IcRrSampler::new(&g);
    let mut out = Vec::new();
    let trials = 30_000;
    let mut r1 = SmallRng::seed_from_u64(1);
    let mut size_sim = 0usize;
    for _ in 0..trials {
        sim.sample(NodeId(2), &mut r1, &mut out);
        size_sim += out.len();
    }
    let mut r2 = SmallRng::seed_from_u64(2);
    let mut size_ic = 0usize;
    for _ in 0..trials {
        ic.sample(NodeId(2), &mut r2, &mut out);
        size_ic += out.len();
    }
    let (a, b) = (
        size_sim as f64 / trials as f64,
        size_ic as f64 / trials as f64,
    );
    assert!((a - b).abs() < 0.02, "mean RR sizes: RR-SIM {a} vs IC {b}");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The store's source provenance: a cache written for one source
    /// digest loads for that digest, is a typed `StaleSource` error
    /// carrying both digests for any other (the `cp -p` replacement case),
    /// and single-bit corruption of the recorded digest itself is caught
    /// as corruption, never misread as staleness.
    #[test]
    fn stale_source_caches_are_rejected_typed(
        g in arb_graph(),
        src_words in proptest::collection::vec(0u32..=255, 1..200),
        flip_bit in 0u32..8,
        flip_byte in 28usize..36,
    ) {
        use comic::graph::io::source_digest;
        use comic::graph::store::{read_store_bytes, write_store};
        use comic::graph::{GraphError, StaleArtifact};
        let src: Vec<u8> = src_words.iter().map(|&w| w as u8).collect();
        let d = source_digest(&src);
        let mut buf = Vec::new();
        write_store(&g, d, &mut buf).expect("serialize");
        prop_assert!(read_store_bytes(buf.clone(), Some(d)).is_ok());
        // A modified source (flip one bit of one byte) must be stale.
        let mut other = src.clone();
        other[0] ^= 1u8 << flip_bit;
        let d2 = source_digest(&other);
        prop_assert_ne!(d, d2);
        match read_store_bytes(buf.clone(), Some(d2)) {
            Err(GraphError::StaleSource { artifact: StaleArtifact::SourceCache, expected, found }) => {
                prop_assert_eq!(expected, d2);
                prop_assert_eq!(found, d);
            }
            other => prop_assert!(false, "expected StaleSource, got {:?}", other),
        }
        // Corrupting the *recorded* source digest (header bytes 28..36)
        // is integrity damage, not staleness — for the recorded source and
        // for any other.
        let mut corrupt = buf;
        corrupt[flip_byte] ^= 1u8 << flip_bit;
        for expected in [d, d2] {
            match read_store_bytes(corrupt.clone(), Some(expected)) {
                Err(GraphError::DigestMismatch { .. }) => {}
                other => prop_assert!(false, "expected DigestMismatch, got {:?}", other),
            }
        }
    }

    /// Text ingestion merges duplicate edges last-wins and reports exactly
    /// how many lines were merged away.
    #[test]
    fn duplicate_edge_lines_merge_last_wins(
        n in 2u32..12,
        dups in proptest::collection::vec((0u32..12, 0u32..12, 0.0f64..=1.0), 1..30),
    ) {
        use comic::graph::io::read_edge_list_report;
        let n = n.max(dups.iter().map(|&(a, b, _)| a.max(b) + 1).max().unwrap_or(0));
        let mut text = format!("# nodes {n} edges {}\n", dups.len());
        for (u, v, p) in &dups {
            text.push_str(&format!("{u}\t{v}\t{p}\n"));
        }
        let rep = read_edge_list_report(text.as_bytes()).expect("parses");
        // Expected survivors: last probability per distinct non-loop pair.
        let mut last: std::collections::BTreeMap<(u32, u32), f64> = Default::default();
        let mut loops = 0usize;
        for &(u, v, p) in &dups {
            if u == v { loops += 1; } else { last.insert((u, v), p); }
        }
        prop_assert_eq!(rep.graph.num_edges(), last.len());
        prop_assert_eq!(rep.self_loops_dropped, loops);
        prop_assert_eq!(
            rep.duplicate_edges_merged,
            dups.len() - loops - last.len()
        );
        for (_, e) in rep.graph.edges() {
            prop_assert_eq!(e.p, last[&(e.source.0, e.target.0)]);
        }
    }
}
