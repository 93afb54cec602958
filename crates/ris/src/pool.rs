//! Immutable, shareable RR-sketch pools — the pipeline's generation stages
//! reified as a value.
//!
//! [`crate::pipeline::RisPipeline::run`] historically owned its RR-sets:
//! every call re-estimated KPT*, re-sampled θ sets, selected seeds, and
//! threw the sets away. A long-running service answering many queries over
//! one resident graph wants the opposite ownership: sample **once** into a
//! [`SketchPool`] ([`crate::pipeline::RisPipeline::generate_pool`], stages
//! 1–3), then run the selection stage as many times as there are queries
//! ([`crate::pipeline::RisPipeline::run_on_pool`], stage 4 only) with
//! per-query `k`, selector, and budget — each query costs a greedy pass
//! over the pool's resident coverage index instead of millions of reverse
//! BFS walks. A budget is a sketch count: budgeted selects and estimates
//! read the first `sets` sketches in place
//! ([`crate::pipeline::RisPipeline::run_on_prefix`],
//! [`SketchPool::estimate_spread_prefix`]). The first CELF select at a
//! cut at or below half the pool derives the index rung it seeds its
//! keys from ([`crate::select::CoverageIndex::rung_for`]: one binary
//! search per node and a counting sort, 2.5–5 ms at n = 100k and
//! 200k sketches, `8n` bytes, 0.8 MB at n = 100k, at most eight per
//! pool), and every later select at that rung, on any thread, reads it.
//! A spill never carries rungs and a refit's index starts without them,
//! so neither a restart nor a refit pays for one.
//!
//! A pool is immutable after construction and hands its [`RrStore`] around
//! behind an [`Arc`], so any number of concurrent readers (query worker
//! threads, a background refresher swapping in a successor pool) share one
//! arena with no locks and no copies. The pool records the provenance
//! needed to reason about an answer computed from it: the seed that fixes
//! the sample streams byte-for-byte (at every thread count), the design
//! `k` and ε its θ was derived for, the KPT* estimate, and a
//! caller-maintained `generation` counter for refresh bookkeeping.
//!
//! # Delta invalidation
//!
//! A pool built from the IC sampler is *touch-tracked*: set `i`'s members
//! are the live-path closure of the keyed-coin world of its stream seed
//! ([`crate::ic_sampler`]). After a batch of edge deltas,
//! [`SketchPool::invalidate`] marks, among the sets the resident index
//! lists under a delta's target, only those the change can alter — the
//! ones where the edge's coin is, or was, live — and
//! [`crate::pipeline::refresh_pool_marked`] resamples exactly those. The
//! rule needs neither the old graph nor the sets' stored bytes, only the
//! index and each set's key.
//!
//! # Guarantee semantics
//!
//! θ is a function of `(n, design_k, ε, KPT*)` — Equation (3). Queries at
//! `k ≤ design_k` over an uncapped pool keep the `(1 − 1/e − ε)` guarantee
//! (their λ requirement is no larger); queries at larger `k`, with a
//! sketch budget below the pool size, or over a capped pool are best-effort
//! estimates, exactly like a capped [`crate::tim::TimResult`].

use crate::ic_sampler::{coin_key, coin_threshold, edge_live};
use crate::parallel::set_seed;
use crate::rr::RrStore;
use crate::select::CoverageIndex;
use crate::simd;
use comic_graph::delta::EdgeDelta;
use comic_graph::fasthash::splitmix64;
use comic_graph::NodeId;
use std::sync::Arc;

/// The generation-stage stream anchor of a pool whose configured seed is
/// `seed`: set `i` is sampled from stream `set_seed(anchor, i)`. Shared by
/// [`crate::pipeline::RisPipeline::generate_pool`], the incremental
/// [`crate::pipeline::refresh_pool_marked`] (which must re-derive the exact
/// per-set streams) and [`SketchPool::invalidate`] (which recomputes each
/// set's coin key).
pub(crate) fn theta_stream_seed(seed: u64) -> u64 {
    splitmix64(seed ^ 0x74_6865_7461)
}

/// An immutable pool of pre-generated RR-sketches, their node→set
/// coverage index, and the provenance of their generation. Built by
/// [`crate::pipeline::RisPipeline::generate_pool`] (or [`SketchPool::new`]
/// for pre-sampled stores); consumed by
/// [`crate::pipeline::RisPipeline::run_on_prefix`] and
/// [`SketchPool::estimate_spread_prefix`], whole or up to a sketch count.
#[derive(Clone, Debug)]
pub struct SketchPool {
    store: Arc<RrStore>,
    index: Arc<CoverageIndex>,
    touch_tracked: bool,
    seed: u64,
    design_k: usize,
    epsilon: f64,
    kpt: f64,
    capped: bool,
    generation: u64,
}

impl SketchPool {
    /// Wrap a pre-sampled store and its resident [`CoverageIndex`] (a
    /// [`CoverageIndex::build`] over that store, or the index a spill file
    /// was written with) so every selection and estimate reads the index
    /// in place. The index must describe exactly this store (checked
    /// against its set/entry counts), and its node count is the node count
    /// of the graph the sets were sampled over.
    /// `seed` documents the generation seed; `design_k`/`epsilon` the θ
    /// derivation; `kpt` the KPT* estimate (pass 1.0 for stores not
    /// produced by the pipeline); `capped` whether θ was clamped below
    /// Equation (3)'s bound.
    pub fn new(
        store: Arc<RrStore>,
        index: Arc<CoverageIndex>,
        seed: u64,
        design_k: usize,
        epsilon: f64,
        kpt: f64,
        capped: bool,
    ) -> SketchPool {
        assert_eq!(index.num_sets(), store.len(), "index/store mismatch");
        assert_eq!(index.total_entries(), store.total_members());
        SketchPool {
            store,
            index,
            touch_tracked: false,
            seed,
            design_k,
            epsilon,
            kpt,
            capped,
            generation: 0,
        }
    }

    /// The resident coverage index over the pool's full store.
    pub fn coverage_index(&self) -> &Arc<CoverageIndex> {
        &self.index
    }

    /// Record whether the sampler's members are its touch set
    /// ([`crate::sampler::RrSampler::touch_is_members`]) — the pipeline
    /// sets this at generation. Touch-opaque pools keep `false` and are
    /// fully rebuilt on graph deltas.
    pub fn with_touch_tracked(mut self, tracked: bool) -> SketchPool {
        self.touch_tracked = tracked;
        self
    }

    /// Whether the pool's members are its sampler's touch sets, so
    /// [`SketchPool::invalidate`] can mark dirty sets from them.
    pub fn touch_tracked(&self) -> bool {
        self.touch_tracked
    }

    /// Mark the RR-sets a batch of edge deltas can change. Among the sets
    /// the resident coverage index lists under a delta's **target** `t`
    /// (the node whose in-run changed), where "the edge's coin" is the one
    /// keyed on that set ([`crate::ic_sampler::edge_live`]):
    ///
    /// * `Add(s, t, p)` marks a set where the edge's coin is live at `p`;
    /// * `Remove(s, t)` marks a set that also holds `s` — an old live edge
    ///   into a member puts its source in the set, so where `s` is absent
    ///   the edge was not live and its removal changes nothing;
    /// * `Reweight(s, t, p)` marks a set where either holds.
    ///
    /// A set none of these mark keeps the live status of every edge into
    /// its members, so it resamples to the same members on the new graph
    /// (only its width moves, which the refit recomputes). The rule reads
    /// no old graph, and it is sound for any sequence of changes to one
    /// edge within a batch: the edge's final liveness is decided by its
    /// last add or reweight, and its old liveness needs `s` in the set.
    /// Every marked set holds a target, as under a plain target-membership
    /// rule, but only where the edge's coin says so.
    ///
    /// Returns `None` for a touch-opaque pool — the caller must fall back
    /// to a full rebuild. Delta targets outside the pool's node universe
    /// are ignored (the compaction step rejects them with typed errors
    /// before any invalidation runs). A touch-tracked pool's sets must come
    /// from the generation streams the pipeline derives from
    /// [`SketchPool::seed`], as every pipeline-built pool's do.
    pub fn invalidate(&self, deltas: &[EdgeDelta]) -> Option<Vec<bool>> {
        if !self.touch_tracked {
            return None;
        }
        let n = self.num_nodes();
        let anchor = theta_stream_seed(self.seed);
        let mut marks = vec![false; self.len()];
        for d in deltas {
            let (source, target) = (d.source(), d.target());
            if target.index() >= n {
                continue;
            }
            let live_at = match *d {
                EdgeDelta::Add { p, .. } | EdgeDelta::Reweight { p, .. } => Some(coin_threshold(p)),
                EdgeDelta::Remove { .. } => None,
            };
            let source_sets = match d {
                EdgeDelta::Add { .. } => None,
                _ => (source.index() < n).then(|| self.index.sets_containing(source)),
            };
            for &i in self.index.sets_containing(target) {
                let mark = &mut marks[i as usize];
                if *mark {
                    continue;
                }
                let key = || coin_key(set_seed(anchor, u64::from(i)));
                *mark = source_sets.is_some_and(|run| run.binary_search(&i).is_ok())
                    || live_at.is_some_and(|t| edge_live(key(), source, target, t));
            }
        }
        Some(marks)
    }

    /// The shared RR-set arena.
    pub fn store(&self) -> &RrStore {
        &self.store
    }

    /// Another handle to the arena (no copy).
    pub fn store_arc(&self) -> Arc<RrStore> {
        Arc::clone(&self.store)
    }

    /// Number of sketches in the pool.
    pub fn len(&self) -> usize {
        self.store.len()
    }

    /// Whether the pool holds no sketches.
    pub fn is_empty(&self) -> bool {
        self.store.is_empty()
    }

    /// Node count of the graph the sketches were sampled over.
    pub fn num_nodes(&self) -> usize {
        self.index.num_nodes()
    }

    /// The RNG seed the generation streams were derived from — with the
    /// graph, it fixes the pool's bytes at every thread count.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// The `k` the pool's θ was derived for.
    pub fn design_k(&self) -> usize {
        self.design_k
    }

    /// The ε the pool's θ was derived for.
    pub fn epsilon(&self) -> f64 {
        self.epsilon
    }

    /// The KPT* lower-bound estimate from generation.
    pub fn kpt(&self) -> f64 {
        self.kpt
    }

    /// Whether θ was clamped below Equation (3)'s bound.
    pub fn capped(&self) -> bool {
        self.capped
    }

    /// Caller-maintained refresh counter (0 for a fresh build).
    pub fn generation(&self) -> u64 {
        self.generation
    }

    /// Same pool with the generation counter replaced — for refresh
    /// bookkeeping by resident-pool owners.
    pub fn with_generation(mut self, generation: u64) -> SketchPool {
        self.generation = generation;
        self
    }

    /// A copy of the pool holding only its first `sets` sketches, marked
    /// [`SketchPool::capped`], with a standalone [`CoverageIndex::build`]
    /// over the copy (the resident index spans the full set range).
    /// O(members copied); the original pool is untouched. Budgeted queries
    /// do not use it: they read the resident index in place
    /// ([`crate::pipeline::RisPipeline::run_on_prefix`],
    /// [`SketchPool::estimate_spread_prefix`]). It stays as the oracle
    /// those in-place answers are tested against.
    pub fn prefix(&self, sets: usize) -> SketchPool {
        if sets >= self.len() {
            return self.clone();
        }
        let store = self.store.prefix(sets);
        let index = CoverageIndex::build(&store, self.num_nodes(), 1);
        SketchPool {
            store: Arc::new(store),
            index: Arc::new(index),
            capped: true,
            ..self.clone()
        }
    }

    /// RIS spread estimate for an explicit seed set over every sketch: the
    /// full-cut case of [`SketchPool::estimate_spread_prefix`].
    pub fn estimate_spread(&self, seeds: &[NodeId]) -> f64 {
        self.estimate_spread_prefix(seeds, self.len())
    }

    /// RIS spread estimate for an explicit seed set over the first `sets`
    /// sketches (all of them when `sets ≥ len`): `n · (fraction of
    /// consulted sketches hit)`. This is the unbiased estimator of the
    /// sampler's objective by the activation-equivalence property — a
    /// spread *query* answered from pooled sketches with zero sampling.
    ///
    /// It counts the distinct set ids below the cut in the seeds' index
    /// runs, O(Σ|run|), with no store scan and no copy; the result has the
    /// same bits as `self.prefix(sets).estimate_spread(seeds)`. Duplicate
    /// seeds count once, and seeds outside the graph are ignored (callers
    /// validate; see `comic-serve`'s typed errors).
    pub fn estimate_spread_prefix(&self, seeds: &[NodeId], sets: usize) -> f64 {
        let sets = sets.min(self.len());
        if sets == 0 {
            return 0.0;
        }
        let n = self.num_nodes();
        let mut hit = vec![0u64; simd::words_for(sets)];
        let mut covered = 0u64;
        for s in seeds.iter().copied().filter(|s| s.index() < n) {
            for &id in self.index.sets_below(s, sets) {
                if !simd::test_bit(&hit, id as usize) {
                    simd::set_bit(&mut hit, id as usize);
                    covered += 1;
                }
            }
        }
        n as f64 * (covered as f64 / sets as f64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ic_sampler::IcRrSampler;
    use crate::parallel::ShardedGenerator;
    use comic_graph::gen;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    fn pool_over_star() -> SketchPool {
        let g = gen::star(40, 1.0);
        let store = ShardedGenerator::new(|| IcRrSampler::new(&g), 9, 2).generate(1_000, 2);
        let index = CoverageIndex::build(&store, 40, 1);
        SketchPool::new(Arc::new(store), Arc::new(index), 9, 5, 0.5, 1.0, false)
    }

    #[test]
    fn accessors_report_provenance() {
        let pool = pool_over_star();
        assert_eq!(pool.len(), 1_000);
        assert!(!pool.is_empty());
        assert_eq!(pool.num_nodes(), 40);
        assert_eq!(pool.seed(), 9);
        assert!(!pool.touch_tracked());
        assert_eq!(pool.design_k(), 5);
        assert_eq!(pool.epsilon(), 0.5);
        assert_eq!(pool.generation(), 0);
        assert!(!pool.capped());
        assert_eq!(pool.clone().with_generation(3).generation(), 3);
    }

    #[test]
    fn estimate_spread_matches_coverage_fraction() {
        let pool = pool_over_star();
        // The hub of a certain star intersects every RR-set.
        let hub = pool.estimate_spread(&[NodeId(0)]);
        assert!((hub - 40.0).abs() < 1e-9, "hub spread {hub}");
        // A leaf only covers sets rooted at itself (and via the hub root's
        // set membership): strictly less than the hub.
        let leaf = pool.estimate_spread(&[NodeId(1)]);
        assert!(leaf < hub);
        // Out-of-range seeds are ignored, not a panic.
        assert_eq!(pool.estimate_spread(&[NodeId(10_000)]), 0.0);
        assert_eq!(pool.estimate_spread(&[]), 0.0);
    }

    #[test]
    fn prefix_truncates_and_marks_capped() {
        let pool = pool_over_star();
        let cut = pool.prefix(100);
        assert_eq!(cut.len(), 100);
        assert!(cut.capped());
        assert_eq!(cut.num_nodes(), pool.num_nodes());
        for i in 0..100 {
            assert_eq!(cut.store().set(i), pool.store().set(i));
            assert_eq!(cut.store().width(i), pool.store().width(i));
        }
        // A budget at or above the pool size is the identity (shared arena,
        // no copy).
        let same = pool.prefix(1_000_000);
        assert_eq!(same.len(), pool.len());
        assert!(!same.capped());
        assert!(Arc::ptr_eq(&same.store, &pool.store));
    }

    #[test]
    fn store_arc_shares_the_arena() {
        let pool = pool_over_star();
        let a = pool.store_arc();
        assert!(Arc::ptr_eq(&a, &pool.store));
    }

    #[test]
    fn resident_index_is_shared_and_rebuilt_for_prefix_copies() {
        let pool = pool_over_star();
        let index = Arc::clone(pool.coverage_index());
        // Clones share the same resident index.
        let cloned = pool.clone();
        assert!(Arc::ptr_eq(cloned.coverage_index(), &index));
        // A budget prefix cannot keep an index over the full set range: it
        // carries a standalone build over its own copy.
        let cut = pool.prefix(10);
        assert_eq!(
            **cut.coverage_index(),
            CoverageIndex::build(cut.store(), pool.num_nodes(), 1)
        );
        assert_eq!(cut.coverage_index().num_sets(), 10);
        // ...but an identity prefix (no truncation) keeps the shared one.
        assert!(Arc::ptr_eq(
            pool.prefix(pool.len()).coverage_index(),
            &index
        ));
    }

    fn touch_tracked_pool(g: &comic_graph::DiGraph) -> SketchPool {
        let store =
            ShardedGenerator::new(|| IcRrSampler::new(g), theta_stream_seed(9), 3).generate(800, 2);
        let index = CoverageIndex::build(&store, g.num_nodes(), 3);
        SketchPool::new(Arc::new(store), Arc::new(index), 9, 5, 0.5, 1.0, false)
            .with_touch_tracked(true)
    }

    /// The keyed rule replayed by brute force over the stored sets: a set
    /// is marked iff it holds some delta's target and the edge's coin is
    /// live at an added or reweighted probability, or (for a removal or
    /// reweight) the set also holds the source.
    fn replay_marks(pool: &SketchPool, deltas: &[EdgeDelta]) -> Vec<bool> {
        let anchor = theta_stream_seed(pool.seed());
        (0..pool.len())
            .map(|i| {
                let set = pool.store().set(i);
                let key = coin_key(set_seed(anchor, i as u64));
                deltas.iter().any(|d| {
                    let (s, t) = (d.source(), d.target());
                    let coin = |p: f64| edge_live(key, s, t, coin_threshold(p));
                    set.contains(&t)
                        && match *d {
                            EdgeDelta::Add { p, .. } => coin(p),
                            EdgeDelta::Remove { .. } => set.contains(&s),
                            EdgeDelta::Reweight { p, .. } => coin(p) || set.contains(&s),
                        }
                })
            })
            .collect()
    }

    #[test]
    fn invalidate_marks_the_sets_a_brute_force_replay_marks() {
        let mut grng = SmallRng::seed_from_u64(21);
        let g = gen::gnm(40, 260, &mut grng).unwrap();
        let g = comic_graph::prob::ProbModel::trivalency().apply(&g, &mut grng);
        let pool = touch_tracked_pool(&g);
        let edges: Vec<_> = g.edges().map(|(_, e)| (e.source, e.target)).collect();
        let absent = (0..40u32)
            .flat_map(|s| (0..40u32).map(move |t| (NodeId(s), NodeId(t))))
            .find(|&(s, t)| s != t && !g.has_edge(s, t))
            .unwrap();
        let deltas = [
            EdgeDelta::Remove {
                source: edges[3].0,
                target: edges[3].1,
            },
            EdgeDelta::Reweight {
                source: edges[40].0,
                target: edges[40].1,
                p: 0.3,
            },
            EdgeDelta::Add {
                source: absent.0,
                target: absent.1,
                p: 0.5,
            },
        ];
        let marks = pool.invalidate(&deltas).expect("touch-tracked pool marks");
        assert_eq!(marks, replay_marks(&pool, &deltas));
        assert!(marks.iter().any(|&m| m), "the fixture must mark some set");

        // Every set whose regeneration on the new graph changes is marked,
        // and only sets holding a target are.
        let g2 = g.apply_deltas(&deltas).unwrap();
        let fresh = ShardedGenerator::new(|| IcRrSampler::new(&g2), theta_stream_seed(9), 2)
            .generate(pool.len() as u64, 2);
        for (i, &m) in marks.iter().enumerate() {
            let set = pool.store().set(i);
            if fresh.set(i) != set {
                assert!(m, "set {i} changed but is unmarked");
            }
            if m {
                assert!(deltas.iter().any(|d| set.contains(&d.target())), "set {i}");
            }
        }

        // Out-of-universe targets are ignored; an empty batch marks nothing.
        let far = [EdgeDelta::Remove {
            source: NodeId(0),
            target: NodeId(9_999),
        }];
        assert!(pool.invalidate(&far).unwrap().iter().all(|&m| !m));
        assert!(pool.invalidate(&[]).unwrap().iter().all(|&m| !m));
    }

    #[test]
    fn invalidate_is_none_only_without_touch_tracking() {
        let g = gen::star(40, 0.6);
        let deltas = [EdgeDelta::Remove {
            source: NodeId(1),
            target: NodeId(0),
        }];
        let pool = touch_tracked_pool(&g);
        let marks = pool.invalidate(&deltas).expect("touch-tracked pool marks");
        // Touch-opaque: the sampler's members do not bound what it read.
        assert!(pool
            .clone()
            .with_touch_tracked(false)
            .invalidate(&deltas)
            .is_none());
        // A prefix copy marks from its own index: the full pool's marks,
        // cut at the prefix.
        assert_eq!(pool.prefix(10).invalidate(&deltas).unwrap(), marks[..10]);
    }

    #[test]
    #[should_panic(expected = "index/store mismatch")]
    fn new_rejects_a_foreign_index() {
        let pool = pool_over_star();
        let index = Arc::new(CoverageIndex::build(&RrStore::new(), pool.num_nodes(), 1));
        let _ = SketchPool::new(pool.store_arc(), index, 9, 5, 0.5, 1.0, false);
    }
}
