//! RR-set sampler for the classic IC model — the engine of the paper's
//! *VanillaIC* baseline and the reference implementation the generalized
//! framework is validated against.
//!
//! # Keyed coins
//!
//! An RR-set needs each edge to be live with probability `p` independently
//! in the world it samples (Definition 1; Lu, Chen & Lakshmanan,
//! arXiv:1507.00317). The sampler draws that world from a 64-bit **set
//! key** instead of an RNG stream: edge `s → t` is live in the world of key
//! `k` iff `mix(k ⊕ s<<32 ⊕ t) >> 11 < ⌊p·2^53⌋` ([`edge_live`]), where
//! `mix` is the two xorshift-multiply rounds of SplitMix64's finalizer and
//! `s`, `t` are node ids. A coin is a pure function of the key and the
//! edge's endpoints, so it does not depend on the edge's position in its
//! in-run, on which edges were examined before it, or on the edge id a
//! compaction assigns. An RR-set is then exactly the set of nodes with a
//! live path to the root in its key's world.
//!
//! That is what makes delta invalidation exact
//! ([`crate::pool::SketchPool::invalidate`]): a change to edge `s → t` can
//! only alter the sets that hold `t` and in which the edge's coin is, or
//! becomes, live. Set `i` of a pool takes its key from its stream seed
//! through [`coin_key`], the one function the sampler and the invalidation
//! share.

use crate::sampler::RrSampler;
use comic_graph::fasthash::splitmix64;
use comic_graph::scratch::StampedSet;
use comic_graph::{DiGraph, NodeId};
use rand::rngs::SmallRng;
use rand::{Rng, RngExt, SeedableRng};

/// The threshold of a certain edge: every 53-bit coin lies below it.
const ALWAYS: u64 = 1 << 53;

/// Threshold marker of a node whose in-edges carry different
/// probabilities: its coins compute their threshold per edge.
const MIXED: u64 = u64::MAX;

/// The coin threshold of probability `p`: `⌊p·2^53⌋`, so a 53-bit uniform
/// coin lies below it with probability `p` (to within 2^-53). `p ≥ 1` is
/// 2^53 (always live); `p ≤ 0` and NaN are 0 (never live).
#[inline]
pub fn coin_threshold(p: f64) -> u64 {
    if p >= 1.0 {
        ALWAYS
    } else if p > 0.0 {
        (p * ALWAYS as f64) as u64
    } else {
        0
    }
}

/// The coin key of the RR-set sampled from stream seed `stream` (set `i`
/// of a batch anchored at `seed` has stream `set_seed(seed, i)`, see
/// [`crate::parallel`]).
#[inline]
pub fn coin_key(stream: u64) -> u64 {
    splitmix64(stream ^ 0x636f_696e_6b65_7973)
}

/// Whether edge `source → target` is live in the world of set key `key`,
/// under the coin threshold `threshold` ([`coin_threshold`] of the edge's
/// probability).
#[inline]
pub fn edge_live(key: u64, source: NodeId, target: NodeId, threshold: u64) -> bool {
    coin(key ^ u64::from(target.0), source, threshold)
}

/// [`edge_live`] with the target already folded into the key.
#[inline]
fn coin(key_target: u64, source: NodeId, threshold: u64) -> bool {
    mix(key_target ^ (u64::from(source.0) << 32)) >> 11 < threshold
}

/// The mixer behind every coin: the two xorshift-multiply rounds of
/// SplitMix64's finalizer (Stafford's Mix13). The finalizer's last step,
/// `x ^ x >> 31`, is a bijection that leaves the top 31 bits alone, so
/// without it a coin's probability is unchanged and its outcome differs
/// only where those bits tie with the threshold's; leaving it (and the
/// generator's additive step) out saves three of about a dozen operations
/// per examined edge.
#[inline]
fn mix(x: u64) -> u64 {
    let x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb)
}

/// Classic-IC reverse BFS: an in-edge `(w, u)` is live with probability
/// `p(w, u)`; the RR-set is every node with a live path *to* the root.
///
/// Each examined in-edge flips one keyed coin ([`edge_live`]), so a set is
/// a function of its root, its key and the graph alone. Two hot-path
/// details on top of the textbook loop:
///
/// * the RR-set width `ω(R)` is accumulated during the BFS itself (the
///   in-CSR offsets are already in cache), so consumers never pay a second
///   `in_degree` pass over the members;
/// * nodes whose in-edges all share one probability `p` — the whole graph
///   under `ProbModel::Constant`, every node under weighted cascade —
///   compare each coin with one threshold precomputed at construction, so
///   the inner loop reads no probability and takes no logarithm; the coin
///   is tested before the visited mark, which it usually makes unnecessary
///   to read.
pub struct IcRrSampler<'g> {
    g: &'g DiGraph,
    visited: StampedSet,
    // Per node: the coin threshold its in-edges share, or `MIXED`.
    threshold: Vec<u64>,
}

impl<'g> IcRrSampler<'g> {
    /// Create a sampler for `g`.
    ///
    /// Cheap enough (one O(m) scan for uniform-probability runs) to call
    /// once per worker thread; the parallel generator constructs one
    /// instance per shard through its sampler factory.
    pub fn new(g: &'g DiGraph) -> Self {
        let threshold = g
            .nodes()
            .map(|v| {
                let (_, probs) = g.in_sources_probs(v);
                match probs.split_first() {
                    Some((&first, rest)) if rest.iter().any(|&p| p != first) => MIXED,
                    Some((&first, _)) => coin_threshold(first),
                    None => 0,
                }
            })
            .collect();
        IcRrSampler {
            g,
            visited: StampedSet::new(g.num_nodes()),
            threshold,
        }
    }

    /// The reverse BFS from `root` in the world of `key`: members into
    /// `out` (cleared first, root first, BFS order), width returned.
    fn walk(&mut self, root: NodeId, key: u64, out: &mut Vec<NodeId>) -> u64 {
        out.clear();
        self.visited.clear();
        self.visited.insert(root.index());
        out.push(root);
        let mut width: u64 = 0;
        let mut head = 0;
        while head < out.len() {
            let u = out[head];
            head += 1;
            let (srcs, probs) = self.g.in_sources_probs(u);
            width += srcs.len() as u64;
            let key_u = key ^ u64::from(u.0);
            match self.threshold[u.index()] {
                MIXED => {
                    for (&w, &p) in srcs.iter().zip(probs) {
                        if coin(key_u, w, coin_threshold(p)) && self.visited.insert(w.index()) {
                            out.push(w);
                        }
                    }
                }
                ALWAYS => {
                    for &w in srcs {
                        if self.visited.insert(w.index()) {
                            out.push(w);
                        }
                    }
                }
                0 => {} // no in-edge of u is ever live
                t => {
                    for &w in srcs {
                        if coin(key_u, w, t) && self.visited.insert(w.index()) {
                            out.push(w);
                        }
                    }
                }
            }
        }
        width
    }
}

impl RrSampler for IcRrSampler<'_> {
    fn graph(&self) -> &DiGraph {
        self.g
    }

    // Every member's in-run is read, only members' in-runs are read, and
    // every coin is keyed on (set, edge): the keyed invalidation contract.
    fn touch_is_members(&self) -> bool {
        true
    }

    /// One RR-set in the world of a key drawn from `rng`.
    fn sample<R: Rng>(&mut self, root: NodeId, rng: &mut R, out: &mut Vec<NodeId>) {
        self.sample_with_width(root, rng, out);
    }

    fn sample_with_width<R: Rng>(
        &mut self,
        root: NodeId,
        rng: &mut R,
        out: &mut Vec<NodeId>,
    ) -> u64 {
        let key = rng.random::<u64>();
        self.walk(root, key, out)
    }

    /// The root from the stream's RNG, the coins from [`coin_key`] of the
    /// stream.
    fn sample_stream(&mut self, stream: u64, out: &mut Vec<NodeId>) -> u64 {
        let root = self.random_root(&mut SmallRng::seed_from_u64(stream));
        self.walk(root, coin_key(stream), out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parallel::ShardedGenerator;
    use comic_core::ic::IcSimulator;
    use comic_graph::prob::ProbModel;

    #[test]
    fn rr_set_contains_root() {
        let g = comic_graph::gen::path(5, 0.5);
        let mut s = IcRrSampler::new(&g);
        let mut rng = SmallRng::seed_from_u64(1);
        let mut out = Vec::new();
        for v in g.nodes() {
            s.sample(v, &mut rng, &mut out);
            assert_eq!(out[0], v);
        }
    }

    #[test]
    fn certain_edges_give_full_backward_reachability() {
        let g = comic_graph::gen::path(5, 1.0);
        let mut s = IcRrSampler::new(&g);
        let mut rng = SmallRng::seed_from_u64(2);
        let mut out = Vec::new();
        s.sample(NodeId(4), &mut rng, &mut out);
        let mut got: Vec<u32> = out.iter().map(|v| v.0).collect();
        got.sort_unstable();
        assert_eq!(got, vec![0, 1, 2, 3, 4]);
    }

    #[test]
    fn blocked_edges_give_singleton() {
        let g = comic_graph::gen::path(5, 0.0);
        let mut s = IcRrSampler::new(&g);
        let mut rng = SmallRng::seed_from_u64(3);
        let mut out = Vec::new();
        s.sample(NodeId(4), &mut rng, &mut out);
        assert_eq!(out, vec![NodeId(4)]);
    }

    #[test]
    fn thresholds_bracket_the_probability() {
        assert_eq!(coin_threshold(0.0), 0);
        assert_eq!(coin_threshold(-0.5), 0);
        assert_eq!(coin_threshold(f64::NAN), 0);
        assert_eq!(coin_threshold(1.0), ALWAYS);
        assert_eq!(coin_threshold(0.5), ALWAYS / 2);
        // A certain edge is live under every key, an impossible one never.
        for key in 0..64u64 {
            assert!(edge_live(key, NodeId(3), NodeId(9), ALWAYS));
            assert!(!edge_live(key, NodeId(3), NodeId(9), 0));
        }
    }

    #[test]
    fn width_accumulated_during_bfs_matches_indegree_sum() {
        let mut grng = SmallRng::seed_from_u64(6);
        let g = comic_graph::gen::gnm(40, 200, &mut grng).unwrap();
        let g = ProbModel::trivalency().apply(&g, &mut grng);
        let mut s = IcRrSampler::new(&g);
        let mut rng = SmallRng::seed_from_u64(7);
        let mut out = Vec::new();
        for v in g.nodes() {
            let w = s.sample_with_width(v, &mut rng, &mut out);
            let expect: u64 = out.iter().map(|&v| g.in_degree(v) as u64).sum();
            assert_eq!(w, expect, "width mismatch at root {v}");
        }
    }

    /// A set is the live-path closure of its key's world: a member has a
    /// live path to the root, and no live in-edge of a member leaves the
    /// set, checked edge by edge through [`edge_live`].
    #[test]
    fn sets_are_the_live_closure_of_their_key() {
        let mut grng = SmallRng::seed_from_u64(8);
        let g = comic_graph::gen::gnm(60, 400, &mut grng).unwrap();
        let g = ProbModel::trivalency().apply(&g, &mut grng);
        let mut s = IcRrSampler::new(&g);
        let mut out = Vec::new();
        for stream in 0..300u64 {
            s.sample_stream(stream, &mut out);
            let key = coin_key(stream);
            for &u in &out {
                let (srcs, probs) = g.in_sources_probs(u);
                for (&w, &p) in srcs.iter().zip(probs) {
                    if edge_live(key, w, u, coin_threshold(p)) {
                        assert!(
                            out.contains(&w),
                            "stream {stream}: live {w} -> {u} left out"
                        );
                    }
                }
            }
            for &w in &out[1..] {
                let reached = g.out_edges(w).any(|adj| {
                    out.contains(&adj.node) && edge_live(key, w, adj.node, coin_threshold(adj.p))
                });
                assert!(reached, "stream {stream}: member {w} has no live out-edge");
            }
        }
    }

    /// Live in-edge counts at the sink of a fan (many sources, one sink)
    /// over the keys of consecutive streams: mean and variance of
    /// Binomial(d, p) for a uniform fan, of the Poisson binomial for a
    /// mixed one, each within 5 standard errors.
    fn assert_fan_counts(probs: &[f64], trials: u64) {
        let d = probs.len() as u32;
        let root = d; // node `d` is the sink; 0..d point at it
        let edges: Vec<(u32, u32, f64)> = (0..d).map(|i| (i, root, probs[i as usize])).collect();
        let g = comic_graph::builder::from_edges(d as usize + 1, &edges).unwrap();
        let mut s = IcRrSampler::new(&g);
        let uniform = probs.iter().all(|&p| p == probs[0]);
        assert_eq!(s.threshold[root as usize] == MIXED, !uniform);
        let mut out = Vec::new();
        let (mut sum, mut sum_sq) = (0.0f64, 0.0f64);
        for stream in 0..trials {
            s.walk(NodeId(root), coin_key(stream), &mut out);
            let live = (out.len() - 1) as f64; // minus the root itself
            sum += live;
            sum_sq += live * live;
        }
        let t = trials as f64;
        let mean = sum / t;
        let var = sum_sq / t - mean * mean;
        let expect_mean: f64 = probs.iter().sum();
        let expect_var: f64 = probs.iter().map(|p| p * (1.0 - p)).sum();
        let se_mean = (expect_var / t).sqrt().max(1e-3);
        assert!(
            (mean - expect_mean).abs() < 5.0 * se_mean,
            "{probs:?}: mean {mean} vs {expect_mean}"
        );
        // The variance of a sample variance is about 2σ⁴/t for these
        // near-normal counts (plus the excess kurtosis term, small here).
        let se_var = (2.0 * expect_var * expect_var / t).sqrt().max(1e-3);
        assert!(
            (var - expect_var).abs() < 5.0 * se_var + 0.02 * expect_var,
            "{probs:?}: variance {var} vs {expect_var}"
        );
    }

    #[test]
    fn keyed_coins_are_binomial_on_a_uniform_fan() {
        for p in [0.03, 0.25, 0.75] {
            assert_fan_counts(&[p; 40], 40_000);
        }
    }

    #[test]
    fn keyed_coins_are_independent_bernoullis_on_a_mixed_fan() {
        let probs: Vec<f64> = (0..30).map(|i| 0.1 + 0.8 * f64::from(i) / 30.0).collect();
        assert_fan_counts(&probs, 40_000);
    }

    /// The activation-equivalence property (Definition 2 / Proposition 1):
    /// `Pr[S ∩ R(v) ≠ ∅]` over the keys of consecutive streams equals the
    /// probability the forward cascade from `S` activates `v`.
    #[test]
    fn activation_equivalence_holds_statistically() {
        let mut grng = SmallRng::seed_from_u64(4);
        let g = comic_graph::gen::gnm(30, 140, &mut grng).unwrap();
        let g = ProbModel::Constant(0.3).apply(&g, &mut grng);
        let seed_set = [NodeId(0), NodeId(1), NodeId(2)];
        let trials = 30_000u64;

        let mut rng = SmallRng::seed_from_u64(5);
        for (t, &target) in [NodeId(5), NodeId(17), NodeId(29)].iter().enumerate() {
            // Backward: fraction of RR-sets rooted at target hit by S.
            let mut sampler = IcRrSampler::new(&g);
            let mut out = Vec::new();
            let mut hit = 0usize;
            for stream in 0..trials {
                sampler.walk(target, coin_key(stream ^ ((t as u64) << 40)), &mut out);
                if out.iter().any(|v| seed_set.contains(v)) {
                    hit += 1;
                }
            }
            let rho2 = hit as f64 / trials as f64;

            // Forward: fraction of cascades from S activating target.
            let mut sim = IcSimulator::new(&g);
            let mut act = 0usize;
            for _ in 0..trials {
                sim.run(&seed_set, &mut rng);
                if sim.active_nodes().contains(&target) {
                    act += 1;
                }
            }
            let rho1 = act as f64 / trials as f64;

            let sigma = (rho1 * (1.0 - rho1) / trials as f64).sqrt();
            assert!(
                (rho1 - rho2).abs() < 6.0 * sigma.max(0.004),
                "target {target}: forward {rho1} vs backward {rho2}"
            );
        }
    }

    /// Mean and standard error of `sizes`.
    fn mean_se(sizes: &[f64]) -> (f64, f64) {
        let t = sizes.len() as f64;
        let mean = sizes.iter().sum::<f64>() / t;
        let var = sizes.iter().map(|s| (s - mean) * (s - mean)).sum::<f64>() / (t - 1.0);
        (mean, (var / t).sqrt())
    }

    /// The generator's keyed sets have the mean size of sets drawn by an
    /// independent reverse BFS that flips one `random_bool(p)` per examined
    /// in-edge, on a small weighted-cascade Chung–Lu graph (every node's
    /// in-run uniform, so the precomputed thresholds run): within 4
    /// standard errors of the difference.
    #[test]
    fn mean_set_size_matches_a_per_edge_coin_bfs() {
        let mut grng = SmallRng::seed_from_u64(11);
        let topo = comic_graph::gen::chung_lu(
            &comic_graph::gen::ChungLuConfig {
                n: 2_000,
                target_edges: 12_000,
                exponent: 2.16,
            },
            &mut grng,
        )
        .unwrap();
        let g = ProbModel::WeightedCascade.apply(&topo, &mut grng);
        let trials = 20_000u64;

        let store = ShardedGenerator::new(|| IcRrSampler::new(&g), 0x5e7, 2).generate(trials, 8);
        let keyed: Vec<f64> = store.iter().map(|s| s.len() as f64).collect();

        let n = g.num_nodes() as u32;
        let mut rng = SmallRng::seed_from_u64(12);
        let mut seen = vec![false; g.num_nodes()];
        let mut queue = Vec::new();
        let reference: Vec<f64> = (0..trials)
            .map(|_| {
                seen.iter_mut().for_each(|s| *s = false);
                queue.clear();
                let root = rng.random_range(0..n) as usize;
                seen[root] = true;
                queue.push(NodeId(root as u32));
                let mut head = 0;
                while head < queue.len() {
                    let u = queue[head];
                    head += 1;
                    let (srcs, probs) = g.in_sources_probs(u);
                    for (&w, &p) in srcs.iter().zip(probs) {
                        if !seen[w.index()] && rng.random_bool(p) {
                            seen[w.index()] = true;
                            queue.push(w);
                        }
                    }
                }
                queue.len() as f64
            })
            .collect();

        let (m1, se1) = mean_se(&keyed);
        let (m2, se2) = mean_se(&reference);
        let se = (se1 * se1 + se2 * se2).sqrt();
        assert!(
            (m1 - m2).abs() < 4.0 * se,
            "keyed mean {m1} vs per-edge-coin mean {m2} (se {se})"
        );
    }
}
