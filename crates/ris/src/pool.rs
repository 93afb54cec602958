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
//! [`SketchPool::estimate_spread_prefix`]).
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
//! # Guarantee semantics
//!
//! θ is a function of `(n, design_k, ε, KPT*)` — Equation (3). Queries at
//! `k ≤ design_k` over an uncapped pool keep the `(1 − 1/e − ε)` guarantee
//! (their λ requirement is no larger); queries at larger `k`, with a
//! sketch budget below the pool size, or over a capped pool are best-effort
//! estimates, exactly like a capped [`crate::tim::TimResult`].

use crate::rr::RrStore;
use crate::select::CoverageIndex;
use crate::simd;
use comic_graph::delta::EdgeDelta;
use comic_graph::NodeId;
use std::sync::Arc;

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

    /// Mark the RR-sets whose replay a batch of edge deltas can change:
    /// for member-touch samplers those are exactly the sets containing a
    /// delta's **target** node (the node whose in-adjacency run changed),
    /// read off the resident coverage index.
    ///
    /// Returns `None` for a touch-opaque pool — the caller must fall back
    /// to a full rebuild. Delta targets outside the pool's node universe
    /// are ignored (the compaction step rejects them with typed errors
    /// before any invalidation runs).
    pub fn invalidate(&self, deltas: &[EdgeDelta]) -> Option<Vec<bool>> {
        if !self.touch_tracked {
            return None;
        }
        let n = self.num_nodes();
        let mut targets: Vec<NodeId> = deltas
            .iter()
            .map(EdgeDelta::target)
            .filter(|v| v.index() < n)
            .collect();
        targets.sort_unstable();
        targets.dedup();
        let mut marks = vec![false; self.len()];
        for v in targets {
            for &s in self.index.sets_containing(v) {
                marks[s as usize] = true;
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
        let store = ShardedGenerator::new(|| IcRrSampler::new(g), 9, 3).generate(800, 2);
        let index = CoverageIndex::build(&store, 40, 3);
        SketchPool::new(Arc::new(store), Arc::new(index), 9, 5, 0.5, 1.0, false)
            .with_touch_tracked(true)
    }

    #[test]
    fn invalidate_marks_exactly_the_sets_containing_a_target() {
        let g = gen::star(40, 0.6);
        let pool = touch_tracked_pool(&g);
        let deltas = [
            EdgeDelta::Remove {
                source: NodeId(3),
                target: NodeId(0),
            },
            EdgeDelta::Reweight {
                source: NodeId(0),
                target: NodeId(7),
                p: 0.3,
            },
        ];
        let marks = pool.invalidate(&deltas).expect("touch-tracked pool marks");
        assert_eq!(marks.len(), pool.len());
        for (i, &m) in marks.iter().enumerate() {
            let set = pool.store().set(i);
            let dirty = set.contains(&NodeId(0)) || set.contains(&NodeId(7));
            assert_eq!(m, dirty, "set {i}");
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
