//! The shared RIS pipeline: config → sharded RR-set generation → coverage
//! index → seed selector.
//!
//! Every RIS-based solver in the workspace — GeneralTIM under the classic
//! IC sampler (VanillaIC) and under the Com-IC samplers RR-SIM, RR-SIM+
//! and RR-CIM, plus both sandwich surrogates — runs through
//! [`RisPipeline`], so generation sharding, index construction and
//! selector choice are configured in exactly one place
//! ([`TimConfig`]). Stage by stage:
//!
//! 1. **KPT\*** lower-bound estimation, sharded
//!    ([`crate::kpt::kpt_star_with_dims`]);
//! 2. **θ** from Equation (3) ([`crate::tim::theta`]), optionally capped;
//! 3. **generation** of θ RR-sets over per-thread sampler instances
//!    ([`crate::parallel::ShardedGenerator::generate`]), then one
//!    [`crate::select::CoverageIndex::build`] over the finished store — the
//!    pool comes out carrying that index resident;
//! 4. **selection** — the pool's resident index feeding the configured
//!    [`crate::select::SelectorKind`], read in place up to a sketch count
//!    when a query consults only a prefix of the pool
//!    ([`RisPipeline::run_on_prefix`]).
//!
//! Every RR-set draws from a stream keyed on the configured seed and its
//! index in the batch, so the output — pool bytes, KPT*, θ and the
//! selected seeds — is bit-for-bit identical for every thread count, and
//! the *selection* stage is additionally identical across selectors (see
//! the [`crate::select`] determinism contract).

use crate::error::RisError;
use crate::kpt::kpt_star_with_dims;
use crate::parallel::ShardedGenerator;
use crate::pool::SketchPool;
use crate::sampler::RrSampler;
use crate::select::{CoverageIndex, CoverageResult};
use crate::tim::{theta, TimConfig, TimResult};
use comic_graph::fasthash::splitmix64;
use std::sync::Arc;

/// The unified seed-selection engine (stages 1–4 above).
///
/// # Example
/// ```
/// use comic_ris::ic_sampler::IcRrSampler;
/// use comic_ris::pipeline::RisPipeline;
/// use comic_ris::select::SelectorKind;
/// use comic_ris::tim::TimConfig;
/// use comic_graph::gen;
///
/// let g = gen::star(100, 1.0);
/// let cfg = TimConfig::new(1).threads(2).selector(SelectorKind::Celf);
/// let r = RisPipeline::new(cfg).run(|| IcRrSampler::new(&g)).unwrap();
/// assert_eq!(r.seeds, vec![comic_graph::NodeId(0)]); // the hub
/// ```
#[derive(Clone, Debug)]
pub struct RisPipeline {
    cfg: TimConfig,
}

/// A named stage of [`RisPipeline::generate_pool`], reported to the
/// observer of [`RisPipeline::generate_pool_observed`] immediately before
/// the stage runs. Gives embedders (the serving layer's fault-injection
/// substrate, progress reporting) a hook *inside* a pool build without the
/// pipeline knowing about either.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum PoolStage {
    /// Stage 1: KPT* lower-bound estimation is about to run.
    Kpt,
    /// Stage 2: θ derivation (Equation (3)) is about to run.
    Theta,
    /// Stage 3: sharded RR-set generation is about to run.
    Generate,
}

impl RisPipeline {
    /// A pipeline running under `cfg`.
    pub fn new(cfg: TimConfig) -> RisPipeline {
        RisPipeline { cfg }
    }

    /// The configuration in effect.
    pub fn config(&self) -> &TimConfig {
        &self.cfg
    }

    /// Run all stages. `factory` builds one sampler per worker thread
    /// (plus one probe on the calling thread).
    ///
    /// Since the pool refactor this is literally
    /// [`RisPipeline::generate_pool`] followed by
    /// [`RisPipeline::run_on_pool`]: the pipeline *consumes* an immutable
    /// sketch pool rather than owning generation, and this entry point is
    /// the one-shot composition (generate, select once, drop the pool).
    pub fn run<S, F>(&self, factory: F) -> Result<TimResult, RisError>
    where
        S: RrSampler,
        F: Fn() -> S + Sync,
    {
        let pool = self.generate_pool(factory)?;
        self.run_on_pool(&pool)
    }

    /// Stages 1–3: KPT* estimation, θ, and sharded generation of θ RR-sets
    /// into an immutable [`SketchPool`] that any number of later
    /// [`RisPipeline::run_on_pool`] calls (possibly under different
    /// configs, concurrently) can select over.
    ///
    /// Only `k`, `epsilon`, `ell`, `max_rr_sets`, `seed`, and `threads`
    /// matter here; the pool records all but `threads` as its provenance.
    /// The pool's bytes are a function of the graph and `seed` alone —
    /// identical for every thread count.
    pub fn generate_pool<S, F>(&self, factory: F) -> Result<SketchPool, RisError>
    where
        S: RrSampler,
        F: Fn() -> S + Sync,
    {
        self.generate_pool_observed(factory, |_| {})
    }

    /// [`RisPipeline::generate_pool`] with a stage observer: `observe` is
    /// called with each [`PoolStage`] immediately before that stage runs
    /// (after config validation). The observer may panic to abort the
    /// build mid-flight — the serving layer's chaos harness injects
    /// pool-build panics through exactly this hook, so panic isolation is
    /// exercised against a failure *inside* the pipeline, not a stand-in
    /// before it.
    pub fn generate_pool_observed<S, F, O>(
        &self,
        factory: F,
        observe: O,
    ) -> Result<SketchPool, RisError>
    where
        S: RrSampler,
        F: Fn() -> S + Sync,
        O: Fn(PoolStage),
    {
        let cfg = &self.cfg;
        // One probe construction serves validation, the graph dimensions,
        // and the sampler's touch-tracking capability.
        let (n, m, touch_capable) = {
            let probe = factory();
            (
                probe.graph().num_nodes(),
                probe.graph().num_edges(),
                probe.touch_is_members(),
            )
        };
        cfg.validate(n)?;

        // Stage 1: lower-bound estimation (sharded rounds).
        observe(PoolStage::Kpt);
        let kpt_seed = splitmix64(cfg.seed ^ 0x006b_7074);
        let kpt = kpt_star_with_dims(&factory, cfg.k, cfg.ell, kpt_seed, cfg.threads, n, m);

        // Stage 2: θ from Equation (3).
        observe(PoolStage::Theta);
        let (theta_n, capped) = cfg.cap_theta(theta(n, cfg.k, cfg.epsilon, cfg.ell, kpt.kpt));

        // Stage 3: sample θ RR-sets across the worker shards, then index
        // them once — the pool keeps the index resident, so later
        // selections never re-scan the store.
        observe(PoolStage::Generate);
        let avg = (kpt.total_members / kpt.samples.max(1)).max(1) as usize;
        let store = ShardedGenerator::new(&factory, theta_stream_seed(cfg.seed), cfg.threads)
            .generate(theta_n, avg);
        let index = CoverageIndex::build(&store, n, cfg.threads);

        // "Sets containing a changed node are the dirty sets" only holds
        // for samplers whose members are their full visit set; marking a
        // touch-opaque pool would make incremental invalidation silently
        // unsound, so those pools stay untracked and the serving layer
        // falls back to full rebuilds for them.
        Ok(SketchPool::new(
            Arc::new(store),
            Arc::new(index),
            cfg.seed,
            cfg.k,
            cfg.epsilon,
            kpt.kpt,
            capped,
        )
        .with_touch_tracked(touch_capable))
    }

    /// Stage 4 alone over every sketch of a pre-generated pool: the
    /// full-cut case of [`RisPipeline::run_on_prefix`].
    pub fn run_on_pool(&self, pool: &SketchPool) -> Result<TimResult, RisError> {
        self.run_on_prefix(pool, pool.len())
    }

    /// Stage 4 alone over the first `sets` sketches of a pre-generated
    /// pool (all of them when `sets ≥ pool.len()`): run the configured
    /// selector over the pool's **resident coverage index** in place, cut
    /// at `sets` ([`crate::select::SeedSelector::select_prefix`]), with
    /// **no RR-set regeneration, no store copy and no index build** — the
    /// warm path a resident query service answers every select from,
    /// budgeted or not.
    ///
    /// Honors this config's `k` and `selector`; KPT* comes from the pool.
    /// The result's θ is the number of sketches consulted, and it is
    /// capped when the pool is or when the cut drops sketches — field for
    /// field what [`RisPipeline::run_on_pool`] returns over
    /// `pool.prefix(sets)`.
    ///
    /// Errors if `k` exceeds the pool's node count. See the
    /// [`crate::pool`] docs for when the approximation guarantee carries
    /// over to `k ≠ design_k` queries.
    pub fn run_on_prefix(&self, pool: &SketchPool, sets: usize) -> Result<TimResult, RisError> {
        let cfg = &self.cfg;
        cfg.validate(pool.num_nodes())?;
        let sets = sets.min(pool.len());
        let cov = cfg
            .selector
            .select_prefix(pool.coverage_index(), pool.store(), cfg.k, sets);
        Ok(wrap(
            pool.num_nodes(),
            pool.kpt(),
            sets as u64,
            pool.capped() || sets < pool.len(),
            cov,
        ))
    }
}

/// The generation-stage RNG anchor derived from a pool's configured seed —
/// shared by [`RisPipeline::generate_pool_observed`] and the incremental
/// [`refresh_pool_marked`], which must re-derive the exact per-set streams
/// the pool was generated from.
fn theta_stream_seed(seed: u64) -> u64 {
    splitmix64(seed ^ 0x74_6865_7461)
}

/// Incrementally refresh a pool after a graph change: resample exactly the
/// sets flagged in `marks` against the *new* graph (the one `factory`'s
/// samplers walk), splicing every unmarked set byte-for-byte from the
/// resident pool.
///
/// θ, KPT*, ε, and the capped flag are **frozen** from the pool's
/// provenance — an incremental refresh answers "what do my θ sketches look
/// like on the updated graph", not "what θ does the updated graph need".
/// Set `i` is resampled from the stream keyed on the pool's seed and `i`,
/// so provided `marks` covers every set the change affects (the
/// [`SketchPool::invalidate`] contract), the result's bytes equal
/// [`RisPipeline::generate_pool`] on the new graph at the same seed and θ,
/// at any thread count; marking every set is that regeneration. `threads`
/// only sets regeneration concurrency. The generation counter is carried
/// over unchanged — callers bump it when they swap the pool in.
///
/// # Panics
///
/// If `marks` does not cover the pool's store.
pub fn refresh_pool_marked<S, F>(
    pool: &SketchPool,
    marks: &[bool],
    factory: F,
    threads: usize,
) -> SketchPool
where
    S: RrSampler,
    F: Fn() -> S + Sync,
{
    let store = pool.store();
    let avg = (store.total_members() as usize / store.len().max(1)).max(1);
    let store = ShardedGenerator::new(factory, theta_stream_seed(pool.seed()), threads)
        .regenerate_marked(store, marks, avg);
    let index = CoverageIndex::build(&store, pool.num_nodes(), threads);
    SketchPool::new(
        Arc::new(store),
        Arc::new(index),
        pool.seed(),
        pool.design_k(),
        pool.epsilon(),
        pool.kpt(),
        pool.capped(),
    )
    .with_touch_tracked(pool.touch_tracked())
    .with_generation(pool.generation())
}

/// Package an already-computed coverage selection into a [`TimResult`].
fn wrap(n: usize, kpt: f64, theta_n: u64, capped: bool, cov: CoverageResult) -> TimResult {
    let est_spread = n as f64 * cov.covered as f64 / theta_n as f64;
    TimResult {
        seeds: cov.seeds,
        theta: theta_n,
        kpt,
        covered: cov.covered,
        est_spread,
        capped,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ic_sampler::IcRrSampler;
    use crate::select::SelectorKind;
    use comic_graph::{gen, NodeId};
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    fn test_graph() -> comic_graph::DiGraph {
        let mut grng = SmallRng::seed_from_u64(31);
        let g = gen::gnm(300, 1800, &mut grng).unwrap();
        comic_graph::prob::ProbModel::WeightedCascade.apply(&g, &mut grng)
    }

    #[test]
    fn pipeline_runs_are_deterministic_with_consistent_diagnostics() {
        // (general_tim_with is a literal delegation to RisPipeline, so an
        // equivalence test between them would be tautological; pin the
        // pipeline's own contract instead.)
        let g = test_graph();
        let cfg = TimConfig::new(5).seed(7).max_rr_sets(30_000).threads(3);
        let a = RisPipeline::new(cfg.clone())
            .run(|| IcRrSampler::new(&g))
            .unwrap();
        let b = RisPipeline::new(cfg).run(|| IcRrSampler::new(&g)).unwrap();
        assert_eq!(a.seeds, b.seeds);
        assert_eq!(a.theta, b.theta);
        assert_eq!(a.covered, b.covered);
        // Diagnostics are internally consistent.
        assert_eq!(a.seeds.len(), 5);
        assert!(a.covered <= a.theta);
        let expect_spread = g.num_nodes() as f64 * a.covered as f64 / a.theta as f64;
        assert!((a.est_spread - expect_spread).abs() < 1e-9);
        assert!(a.capped || a.theta > 0);
    }

    #[test]
    fn selector_choice_does_not_change_seeds() {
        let g = test_graph();
        for threads in [1, 4] {
            let base = TimConfig::new(8)
                .seed(5)
                .max_rr_sets(20_000)
                .threads(threads);
            let celf = RisPipeline::new(base.clone().selector(SelectorKind::Celf))
                .run(|| IcRrSampler::new(&g))
                .unwrap();
            let naive = RisPipeline::new(base.selector(SelectorKind::NaiveGreedy))
                .run(|| IcRrSampler::new(&g))
                .unwrap();
            assert_eq!(celf.seeds, naive.seeds, "threads {threads}");
            assert_eq!(celf.covered, naive.covered);
            assert_eq!(celf.est_spread, naive.est_spread);
        }
    }

    #[test]
    fn run_is_generate_pool_then_run_on_pool() {
        // The one-shot path must be bit-identical to the decomposed one —
        // the refactor's compatibility contract.
        let g = test_graph();
        let cfg = TimConfig::new(5).seed(9).max_rr_sets(25_000).threads(2);
        let pipe = RisPipeline::new(cfg);
        let oneshot = pipe.run(|| IcRrSampler::new(&g)).unwrap();
        let pool = pipe.generate_pool(|| IcRrSampler::new(&g)).unwrap();
        let pooled = pipe.run_on_pool(&pool).unwrap();
        assert_eq!(oneshot.seeds, pooled.seeds);
        assert_eq!(oneshot.theta, pooled.theta);
        assert_eq!(oneshot.kpt, pooled.kpt);
        assert_eq!(oneshot.covered, pooled.covered);
        assert_eq!(oneshot.est_spread, pooled.est_spread);
        assert_eq!(oneshot.capped, pooled.capped);
        // Pool provenance mirrors the generating config.
        assert_eq!(pool.design_k(), 5);
        assert_eq!(pool.seed(), 9);
        assert_eq!(pool.len() as u64, oneshot.theta);
    }

    #[test]
    fn one_pool_answers_many_query_shapes_without_regeneration() {
        let g = test_graph();
        let pool = RisPipeline::new(TimConfig::new(10).seed(4).max_rr_sets(20_000))
            .generate_pool(|| IcRrSampler::new(&g))
            .unwrap();
        // Different k, selector, and thread count — all over the same
        // immutable pool; k-prefix consistency of greedy selection and
        // selector/thread invariance both hold.
        let r10 = RisPipeline::new(TimConfig::new(10).threads(4))
            .run_on_pool(&pool)
            .unwrap();
        let r3 = RisPipeline::new(TimConfig::new(3).selector(SelectorKind::NaiveGreedy))
            .run_on_pool(&pool)
            .unwrap();
        assert_eq!(r10.seeds[..3], r3.seeds[..]);
        assert_eq!(r10.theta, pool.len() as u64);
        // Budgeted (prefix) queries run over fewer sketches and say so.
        let cut = pool.prefix(pool.len() / 2);
        let rb = RisPipeline::new(TimConfig::new(3))
            .run_on_pool(&cut)
            .unwrap();
        assert!(rb.capped);
        assert_eq!(rb.theta, cut.len() as u64);
        // Validation still applies against the pool's graph.
        assert!(RisPipeline::new(TimConfig::new(0))
            .run_on_pool(&pool)
            .is_err());
        assert!(RisPipeline::new(TimConfig::new(10_000))
            .run_on_pool(&pool)
            .is_err());
    }

    #[test]
    fn observed_builds_report_stages_in_order_and_match_unobserved() {
        use std::sync::Mutex;
        let g = test_graph();
        let pipe = RisPipeline::new(TimConfig::new(4).seed(11).max_rr_sets(10_000));
        let stages = Mutex::new(Vec::new());
        let observed = pipe
            .generate_pool_observed(|| IcRrSampler::new(&g), |s| stages.lock().unwrap().push(s))
            .unwrap();
        assert_eq!(
            *stages.lock().unwrap(),
            [PoolStage::Kpt, PoolStage::Theta, PoolStage::Generate]
        );
        // The observer must not perturb the build.
        let plain = pipe.generate_pool(|| IcRrSampler::new(&g)).unwrap();
        assert_eq!(observed.len(), plain.len());
        assert_eq!(observed.kpt(), plain.kpt());
        assert!((0..observed.len()).all(|i| observed.store().set(i) == plain.store().set(i)));
        // A panicking observer aborts the build and unwinds cleanly.
        let boom = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            pipe.generate_pool_observed(
                || IcRrSampler::new(&g),
                |s| {
                    if s == PoolStage::Generate {
                        panic!("injected");
                    }
                },
            )
        }));
        assert!(boom.is_err());
    }

    #[test]
    fn generated_pools_carry_a_resident_index() {
        let g = test_graph();
        let pipe = RisPipeline::new(TimConfig::new(5).seed(13).max_rr_sets(15_000).threads(2));
        let pool = pipe.generate_pool(|| IcRrSampler::new(&g)).unwrap();
        // The resident index (built on 2 workers) is exactly a one-worker
        // build, so stage 4 over it is a from-scratch selection over the
        // store.
        let standalone = CoverageIndex::build(pool.store(), pool.num_nodes(), 1);
        assert_eq!(**pool.coverage_index(), standalone);
        let warm = pipe.run_on_pool(&pool).unwrap();
        let cold = pipe
            .config()
            .selector
            .select(&standalone, pool.store(), pipe.config().k, 1);
        assert_eq!(warm.seeds, cold.seeds);
        assert_eq!(warm.covered, cold.covered);
        // A prefix copy carries an index over its own sets and answers as
        // a capped pool.
        let cut = pool.prefix(pool.len() / 2);
        assert_eq!(cut.coverage_index().num_sets(), cut.len());
        assert!(pipe.run_on_pool(&cut).unwrap().capped);
    }

    #[test]
    fn generated_pools_record_touch_tracking_from_the_sampler() {
        let g = test_graph();
        let pipe = RisPipeline::new(TimConfig::new(4).seed(21).max_rr_sets(10_000).threads(2));
        let pool = pipe.generate_pool(|| IcRrSampler::new(&g)).unwrap();
        assert!(pool.touch_tracked(), "IC sampler is member-touch");
        assert!(pool.invalidate(&[]).is_some());
    }

    #[test]
    fn incremental_refresh_equals_from_scratch_generation_on_the_new_graph() {
        use comic_graph::delta::EdgeDelta;
        let g = test_graph();
        let pipe = RisPipeline::new(TimConfig::new(4).seed(17).max_rr_sets(12_000).threads(3));
        let pool = pipe.generate_pool(|| IcRrSampler::new(&g)).unwrap();

        // Remove the first edge the graph exposes.
        let (source, target) = g
            .nodes()
            .find_map(|v| g.in_sources_probs(v).0.first().map(|&w| (w, v)))
            .expect("fixture has edges");
        let deltas = [EdgeDelta::Remove { source, target }];
        let g2 = g.apply_deltas(&deltas).unwrap();

        let marks = pool.invalidate(&deltas).expect("touch-tracked pool");
        let refreshed = refresh_pool_marked(&pool, &marks, || IcRrSampler::new(&g2), 2);

        // Provenance (θ, KPT*, seed) is frozen; only dirty sets' bytes move
        // — and the result is exactly what a from-scratch generation on the
        // new graph produces, at yet another thread count.
        assert_eq!(refreshed.len(), pool.len());
        assert_eq!(refreshed.seed(), pool.seed());
        assert_eq!(refreshed.kpt(), pool.kpt());
        assert!(refreshed.touch_tracked());
        let scratch =
            ShardedGenerator::new(|| IcRrSampler::new(&g2), theta_stream_seed(pool.seed()), 1)
                .generate(pool.len() as u64, 1);
        assert_eq!(refreshed.store(), &scratch);
        assert_eq!(
            **refreshed.coverage_index(),
            CoverageIndex::build(&scratch, pool.num_nodes(), 1)
        );
    }

    #[test]
    fn wrapped_store_stage_4_is_reusable_and_thread_independent() {
        let g = gen::star(50, 1.0);
        let store = ShardedGenerator::new(|| IcRrSampler::new(&g), 3, 2).generate(2_000, 2);
        let index = CoverageIndex::build(&store, 50, 2);
        let pool = SketchPool::new(Arc::new(store), Arc::new(index), 3, 1, 0.5, 1.0, false);
        let run = |threads: usize| {
            RisPipeline::new(TimConfig::new(1).threads(threads))
                .run_on_pool(&pool)
                .unwrap()
        };
        let (a, b) = (run(1), run(4));
        assert_eq!(a.seeds, b.seeds);
        assert_eq!(a.covered, b.covered);
        assert_eq!(a.est_spread.to_bits(), b.est_spread.to_bits());
        assert_eq!(a.seeds, vec![NodeId(0)]);
    }
}
