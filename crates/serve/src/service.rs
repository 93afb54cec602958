//! The resident query service: one loaded graph, a registry of GAP presets,
//! and a pool of pre-generated RR-sketches per [`PoolKey`], answering typed
//! [`Request`]s without regenerating samples.
//!
//! # Determinism contract
//!
//! Two service instances started from the same [`ServeConfig`] produce
//! **byte-identical** response lines for every deterministic op (`ping`,
//! `select`, `estimate`, `refresh`, `batch` thereof, and errors), because:
//!
//! - each pool's sketches are fixed by its pool seed alone — every RR-set
//!   draws from a stream keyed on that seed and the set's index
//!   ([`comic_ris::parallel`]) — where the pool seed is derived from the
//!   service seed, the pool key, and the refresh generation, so
//!   [`ServeConfig::gen_threads`] is purely a latency knob;
//! - seed *selection* and spread estimates read the pool's resident
//!   coverage index on the query's own thread ([`comic_ris::select`]), so
//!   no served answer depends on a thread count ([`ServeConfig::threads`]
//!   sizes no served work);
//! - responses carry no wall-clock fields. Timing lives only in the
//!   `stats` op ([`Response::Stats`]), which is exempt from the contract.
//!
//! The warm path never samples and never copies: a `select` is a greedy
//! pass over the resident index
//! ([`comic_ris::RisPipeline::run_on_prefix`]), an `estimate` a count of
//! the distinct sets in the seeds' index runs
//! ([`SketchPool::estimate_spread_prefix`]), both cut at the query's
//! sketch budget in place. The [`ComicService::pool_builds`] counter makes
//! "no regeneration" observable: it moves only on startup warming and
//! explicit/background refresh.

use crate::faults::{FaultInjector, FaultPlan, FaultSite};
use crate::protocol::{
    EpsTier, ErrorCode, PoolKey, PoolMeta, PoolStats, Request, Response, SamplerKind,
};
use comic_algos::rr_cim::RrCimSampler;
use comic_algos::rr_sim::RrSimSampler;
use comic_algos::rr_sim_plus::RrSimPlusSampler;
use comic_bench::datasets;
use comic_core::Gap;
use comic_graph::fasthash::splitmix64;
use comic_graph::{DiGraph, EdgeDelta, NodeId};
use comic_ris::ic_sampler::IcRrSampler;
use comic_ris::pipeline::{refresh_pool_marked, PoolStage};
use comic_ris::select::SelectorKind;
use comic_ris::tim::TimConfig;
use comic_ris::{spill, RisPipeline, SketchPool};
use std::collections::BTreeMap;
use std::fmt;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, RwLock};
use std::time::{Duration, Instant};

/// Static configuration of a service instance. Everything that affects
/// response *bytes* is here (dataset, seed, design `k`, sketch cap, pool
/// set); [`ServeConfig::gen_threads`] affects latency only, and
/// [`ServeConfig::threads`] affects nothing served.
#[derive(Clone, Debug)]
pub struct ServeConfig {
    /// Dataset argument ([`comic_bench::datasets::load`] syntax: a registry
    /// name like `fixture-small`, or a path with optional `:model` suffix).
    pub dataset: String,
    /// Service seed; every pool's generation stream derives from it.
    pub seed: u64,
    /// Worker threads for pool *generation* and delta refits — pool bytes
    /// are the same for every thread count, so this is a pure latency knob
    /// (a spill written at one count reloads at any other).
    pub gen_threads: usize,
    /// Sizes no served work: every select and estimate runs on the
    /// query's own thread and reads the pool's resident coverage index in
    /// place, budgeted or not. Still parsed from `--threads` so existing
    /// command lines keep working.
    pub threads: usize,
    /// The `k` pool θ derivation targets (queries with `k` ≤ this keep the
    /// approximation guarantee; see [`comic_ris::pool`]).
    pub design_k: usize,
    /// Hard cap on sketches per pool (bounds memory and startup latency;
    /// pools clamped by it are marked `capped`).
    pub max_rr_sets: Option<u64>,
    /// How many "other item" seeds the Com-IC samplers condition on
    /// (RR-SIM's `S_B`, RR-CIM's `S_A`): the top out-degree nodes,
    /// ties broken toward smaller ids.
    pub other_seeds: usize,
    /// The pools to warm at startup. Every key's preset must exist and its
    /// sampler must accept the preset's regime — violations fail startup.
    pub pools: Vec<PoolKey>,
    /// Admission cap: at most this many `select`/`estimate` ops in flight
    /// at once; the excess is *shed* with a typed `overloaded` error
    /// instead of queueing. `None` (the default) admits everything.
    pub max_in_flight: Option<u64>,
    /// Deadline applied to queries that do not carry their own
    /// `deadline_ms`. `None` (the default) means no implicit deadline.
    pub default_deadline_ms: Option<u64>,
    /// Cost-model constant: estimated nanoseconds of selection work per
    /// consulted sketch. Deadline routing is *deterministic* — it degrades
    /// a query when `sketches × sketch_cost_ns` exceeds the deadline,
    /// independent of wall-clock load. `0` disables the model.
    pub sketch_cost_ns: u64,
    /// Deterministic fault-injection plan (chaos testing). The default
    /// [`FaultPlan::none`] arms nothing and costs one branch per site.
    pub faults: FaultPlan,
    /// Directory for pool spill files (`COMICRRS` segments, one per
    /// [`PoolKey`]). When set, startup reloads any spill whose graph
    /// digest *and* generation provenance match instead of regenerating
    /// (so a restart pays zero sampling — observable as `pool_builds ==
    /// 0`), and every successful build or refresh re-spills. Spill names
    /// carry no dataset, so a directory holds one dataset's spills. The
    /// spills are read on a thread of their own while the dataset loads.
    /// `None` (the default) disables persistence entirely, and no reader
    /// thread starts.
    pub pool_dir: Option<PathBuf>,
    /// Staleness bound for the incremental delta path: when a single apply
    /// folds more than this many queued deltas, every pool is rebuilt from
    /// scratch instead of incrementally resampled. A refit freezes θ and
    /// KPT* at the pool's build, so the bound caps how far a pool drifts
    /// from what the new graph would derive; a rebuild re-tightens θ to the
    /// new graph. It is a delta count, not a measured cost: under the keyed
    /// invalidation rule a batch marks only the sets where a changed edge's
    /// coin is, or was, live (about 1k of 50k sets, holding 0.2M of 1.2M
    /// members, per 100-change batch on the churn benchmark's pool), so a
    /// batch at the bound still marks far less than the whole pool.
    pub max_stale_deltas: u64,
}

impl ServeConfig {
    /// A config over `dataset` with the default pool set
    /// ([`ServeConfig::default_pools`]) and conservative sizing.
    pub fn new(dataset: impl Into<String>) -> ServeConfig {
        ServeConfig {
            dataset: dataset.into(),
            seed: 0xC0111C,
            gen_threads: 2,
            threads: 2,
            design_k: 50,
            max_rr_sets: Some(200_000),
            other_seeds: 10,
            pools: ServeConfig::default_pools(),
            max_in_flight: None,
            default_deadline_ms: None,
            sketch_cost_ns: 2_000,
            faults: FaultPlan::none(),
            pool_dir: None,
            max_stale_deltas: 1_000,
        }
    }

    /// One pool per sampler at the coarse tier, each under the preset whose
    /// regime that sampler requires (see [`ComicService::start`] presets).
    pub fn default_pools() -> Vec<PoolKey> {
        vec![
            PoolKey::new(
                SamplerKind::VanillaIc,
                "default",
                crate::protocol::EpsTier::Coarse,
            )
            .expect("static key"),
            PoolKey::new(
                SamplerKind::RrSim,
                "one-way",
                crate::protocol::EpsTier::Coarse,
            )
            .expect("static key"),
            PoolKey::new(
                SamplerKind::RrSimPlus,
                "one-way",
                crate::protocol::EpsTier::Coarse,
            )
            .expect("static key"),
            PoolKey::new(SamplerKind::RrCim, "cim", crate::protocol::EpsTier::Coarse)
                .expect("static key"),
        ]
    }
}

/// Why a service failed to start or refresh a pool.
#[derive(Debug)]
pub enum ServeError {
    /// Dataset resolution or ingestion failed.
    Dataset(String),
    /// A configured pool key is unusable (unknown preset, regime mismatch,
    /// or pipeline validation failure).
    Pool {
        /// The offending key's wire spelling.
        key: String,
        /// What went wrong.
        cause: String,
    },
}

impl fmt::Display for ServeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ServeError::Dataset(e) => write!(f, "dataset: {e}"),
            ServeError::Pool { key, cause } => write!(f, "pool {key}: {cause}"),
        }
    }
}

impl std::error::Error for ServeError {}

/// One resident pool plus its bookkeeping. The sketch arena itself is
/// shared via the pool's internal [`Arc`], so cloning out of the registry
/// lock is O(1) and queries never hold the lock while selecting.
#[derive(Debug)]
struct PoolEntry {
    pool: SketchPool,
    built: Instant,
    refreshes: u64,
    /// Refresh attempts that failed (build error or isolated panic). The
    /// resident generation keeps serving through every failure.
    refresh_failures: u64,
    /// Whether the *latest* refresh attempt failed; cleared by the next
    /// successful refresh. Answers from a degraded pool carry
    /// `degraded: true` with reason `stale_refresh`.
    degraded: bool,
    /// Queries answered from this key (survives refresh swaps).
    queries: Arc<AtomicU64>,
}

/// The served graph plus its content digest, swapped as one unit when a
/// delta batch is applied (queries racing an apply see either the old
/// graph or the new one, never a torn pair).
#[derive(Debug)]
struct GraphState {
    graph: Arc<DiGraph>,
    /// `comic_graph::io::graph_digest` of the served graph — recorded in
    /// every pool spill so a reload against a different graph is typed
    /// stale, never silently wrong.
    digest: u64,
}

/// How a spill reload attempt ended — the distinction
/// [`ComicService::install_spilled`] must never flatten: a missing file
/// is an expected cold start, while a file that *exists* but cannot be
/// served is an observable fault (stderr warning + `spill_rejects`).
enum SpillLoad {
    /// The spill matched the graph digest and this config's provenance.
    Loaded(SketchPool),
    /// No spill on disk (or persistence is disabled) — a silent cold start.
    Missing,
    /// A spill exists but is unusable: corrupt, unreadable, written for a
    /// different graph, or carrying another config's provenance.
    Rejected(String),
}

/// The long-running query service (tentpole of the serving layer). Owns
/// the graph and pools; [`ComicService::handle`] is safe to call from any
/// number of threads concurrently.
#[derive(Debug)]
pub struct ComicService {
    cfg: ServeConfig,
    graph: RwLock<GraphState>,
    graph_name: String,
    presets: BTreeMap<String, Gap>,
    other_seeds: Vec<NodeId>,
    pools: RwLock<BTreeMap<PoolKey, PoolEntry>>,
    faults: FaultInjector,
    queries: AtomicU64,
    pool_builds: AtomicU64,
    in_flight: AtomicU64,
    shed: AtomicU64,
    deadline_misses: AtomicU64,
    /// Edge deltas accepted but not yet folded into the served graph.
    pending_deltas: Mutex<Vec<EdgeDelta>>,
    /// Deltas folded into the served graph since start. Non-zero disables
    /// pool spilling: spill files describe the on-disk dataset, and a
    /// post-delta pool would lie to the next cold start.
    deltas_applied: AtomicU64,
    spill_rejects: AtomicU64,
    sets_invalidated: AtomicU64,
    sets_regenerated: AtomicU64,
    full_rebuilds: AtomicU64,
    draining: AtomicBool,
    started: Instant,
}

/// RAII in-flight marker so graceful shutdown can drain active queries.
struct InFlight<'a>(&'a AtomicU64);

impl Drop for InFlight<'_> {
    fn drop(&mut self) {
        self.0.fetch_sub(1, Ordering::SeqCst);
    }
}

/// Per-query deadline context: the wall clock is only a *backstop* (the
/// deterministic cost model in [`ComicService`] routing does the real
/// work), checked once after the answer is computed.
struct QueryCtx {
    started: Instant,
    limit_ms: Option<u64>,
}

impl QueryCtx {
    fn exceeded(&self) -> bool {
        self.limit_ms
            .is_some_and(|d| self.started.elapsed() >= Duration::from_millis(d))
    }
}

/// How a query was routed after deadline/staleness consideration.
struct Routed {
    key: PoolKey,
    pool: SketchPool,
    counter: Arc<AtomicU64>,
    /// The answering pool is serving through failed refreshes.
    stale: bool,
    /// The deadline cost model re-routed the query (coarser tier or
    /// sketch-prefix fit).
    deadline_limited: bool,
    /// Effective sketch budget (user budget ∧ deadline fit).
    budget: Option<u64>,
}

impl Routed {
    /// Sketches the answer consults: the budget, clamped to the pool.
    /// Budgets are prefixes, so budgeted answers stay deterministic.
    fn consulted(&self) -> usize {
        let len = self.pool.len();
        self.budget.map_or(len, |b| b.min(len as u64) as usize)
    }

    /// Whether the answer is capped: the pool is, or the budget drops
    /// sketches.
    fn capped(&self) -> bool {
        self.pool.capped() || self.consulted() < self.pool.len()
    }
}

/// `degraded` flag + reason string for a routed answer.
fn degrade_info(stale: bool, deadline_limited: bool) -> (bool, Option<String>) {
    let reason = match (stale, deadline_limited) {
        (true, true) => Some("stale_refresh+deadline"),
        (true, false) => Some("stale_refresh"),
        (false, true) => Some("deadline"),
        (false, false) => None,
    };
    (reason.is_some(), reason.map(String::from))
}

/// Best-effort extraction of a panic payload's message.
fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// Wait before the next background refresh sweep: the base period doubled
/// per consecutive failed sweep (capped at 32×), plus a deterministic
/// jitter in `[0, every)` derived from `(seed, attempt)` so two instances
/// replaying the same schedule stay in lockstep while distinct services
/// desynchronize.
pub(crate) fn refresh_backoff(
    every: Duration,
    consecutive_failures: u32,
    seed: u64,
    attempt: u64,
) -> Duration {
    if consecutive_failures == 0 {
        return every;
    }
    let mult = 1u32 << consecutive_failures.min(5);
    let span = (every.as_millis() as u64).max(1);
    let jitter = splitmix64(seed ^ attempt.wrapping_mul(0x6a69_7474_6572)) % span;
    every * mult + Duration::from_millis(jitter)
}

fn key_fingerprint(key: &PoolKey) -> u64 {
    key.to_string()
        .bytes()
        .fold(0x636f_6d69_635f_7376, |h, b| splitmix64(h ^ u64::from(b)))
}

impl ComicService {
    /// Load the dataset, derive the preset registry, and warm every
    /// configured pool. Presets:
    ///
    /// - `default` — the dataset's registered GAP (its learned item pair);
    /// - `one-way` — the one-way-complement projection `q_{B|A} := q_{B|∅}`
    ///   (the regime RR-SIM/RR-SIM+ are exact for), when valid;
    /// - `cim` — the CIM-submodular projection `q_{B|A} := 1` (RR-CIM's
    ///   regime, per the Chen & Zhang correction), when valid.
    ///
    /// Sampler/preset regime compatibility is checked here, at
    /// registration time, so a misconfigured pool is a startup error with
    /// the key named — never a per-query surprise.
    pub fn start(cfg: ServeConfig) -> Result<ComicService, ServeError> {
        // The dataset and the spills are independent reads: with a pool
        // directory configured, one scoped thread reads every configured
        // pool's spill while this thread loads the dataset. Only after the
        // join is each spill compared with the loaded graph.
        let (loaded, spills) = std::thread::scope(|s| {
            let reader = cfg
                .pool_dir
                .as_deref()
                .map(|dir| s.spawn(|| read_spills(dir, &cfg.pools)));
            let loaded = datasets::load(&cfg.dataset);
            let spills = reader.map(|r| r.join().unwrap_or_else(|p| std::panic::resume_unwind(p)));
            (loaded, spills)
        });
        let loaded = loaded.map_err(|e| ServeError::Dataset(e.to_string()))?;
        let gap = loaded.gap;
        let graph = Arc::clone(&loaded.graph);
        let graph_name = loaded.name.clone();
        let graph_digest = loaded.digest;

        let mut presets = BTreeMap::new();
        presets.insert("default".to_string(), gap);
        if let Ok(one_way) = gap.with_q_ba(gap.q_b0) {
            if one_way.is_one_way_complement() {
                presets.insert("one-way".to_string(), one_way);
            }
        }
        if let Ok(cim) = gap.with_q_ba(1.0) {
            if cim.is_cim_submodular() {
                presets.insert("cim".to_string(), cim);
            }
        }

        let other_seeds = top_out_degree(&graph, cfg.other_seeds);

        let faults = cfg.faults.arm();
        let svc = ComicService {
            cfg,
            graph: RwLock::new(GraphState {
                graph,
                digest: graph_digest,
            }),
            graph_name,
            presets,
            other_seeds,
            pools: RwLock::new(BTreeMap::new()),
            faults,
            queries: AtomicU64::new(0),
            pool_builds: AtomicU64::new(0),
            in_flight: AtomicU64::new(0),
            shed: AtomicU64::new(0),
            deadline_misses: AtomicU64::new(0),
            pending_deltas: Mutex::new(Vec::new()),
            deltas_applied: AtomicU64::new(0),
            spill_rejects: AtomicU64::new(0),
            sets_invalidated: AtomicU64::new(0),
            sets_regenerated: AtomicU64::new(0),
            full_rebuilds: AtomicU64::new(0),
            draining: AtomicBool::new(false),
            started: Instant::now(),
        };

        // Startup warming never injects build faults: a service must fail
        // *loudly* at start, not come up half-warm under a chaos plan.
        // With a pool directory configured, a spill whose graph digest and
        // generation provenance check out is installed *without sampling*
        // (`pool_builds` stays 0 across a clean restart); anything else
        // falls through to a fresh build, which is then re-spilled — and
        // only a *missing* file does so silently. A spill that exists but
        // cannot be served is warned to stderr and counted in
        // `spill_rejects`.
        let mut spills = spills.map(Vec::into_iter);
        for key in svc.cfg.pools.clone() {
            let mut read = spills.as_mut().and_then(Iterator::next);
            if read.is_some() && svc.pools.read().expect("pool lock").contains_key(&key) {
                // A key listed twice: its first warming may have spilled
                // it since the reader ran, so read the file as it is now.
                read = svc.spill_path(&key).map(|p| spill::read_pool_spill(&p));
            }
            let pool = match svc.install_spilled(&key, read) {
                SpillLoad::Loaded(pool) => pool,
                cold => {
                    if let SpillLoad::Rejected(why) = cold {
                        svc.note_spill_reject(&key, &why);
                    }
                    let pool =
                        svc.build_pool(&key, 0, false)
                            .map_err(|cause| ServeError::Pool {
                                key: key.to_string(),
                                cause,
                            })?;
                    svc.spill_pool(&key, &pool);
                    pool
                }
            };
            svc.pools.write().expect("pool lock").insert(
                key,
                PoolEntry {
                    pool,
                    built: Instant::now(),
                    refreshes: 0,
                    refresh_failures: 0,
                    degraded: false,
                    queries: Arc::new(AtomicU64::new(0)),
                },
            );
        }
        Ok(svc)
    }

    /// The currently served graph (the startup dataset until the first
    /// delta apply swaps in a compacted successor). O(1): clones the
    /// shared handle, so callers never hold the graph lock.
    pub fn graph(&self) -> Arc<DiGraph> {
        Arc::clone(&self.graph.read().expect("graph lock").graph)
    }

    /// Content digest of the currently served graph.
    fn graph_digest(&self) -> u64 {
        self.graph.read().expect("graph lock").digest
    }

    /// The "other item" seed set Com-IC pools condition on.
    pub fn other_seeds(&self) -> &[NodeId] {
        &self.other_seeds
    }

    /// The config the service started under.
    pub fn config(&self) -> &ServeConfig {
        &self.cfg
    }

    /// Registered preset names and their GAPs, name order.
    pub fn presets(&self) -> Vec<(String, Gap)> {
        self.presets.iter().map(|(n, g)| (n.clone(), *g)).collect()
    }

    /// Resident pool keys, key order.
    pub fn pool_keys(&self) -> Vec<PoolKey> {
        self.pools
            .read()
            .expect("pool lock")
            .keys()
            .cloned()
            .collect()
    }

    /// A clone of one resident pool (O(1): the arena is shared). Tests use
    /// this to run a cold [`RisPipeline::run_on_pool`] against the exact
    /// sketches the service answers from.
    pub fn pool(&self, key: &PoolKey) -> Option<SketchPool> {
        self.pools
            .read()
            .expect("pool lock")
            .get(key)
            .map(|e| e.pool.clone())
    }

    /// Pool (re)builds since start — startup warming plus refreshes. A
    /// warm query leaves this unchanged; tests assert exactly that.
    pub fn pool_builds(&self) -> u64 {
        self.pool_builds.load(Ordering::SeqCst)
    }

    /// The armed fault injector (the transports consult it for connection
    /// I/O faults; chaos tests for trip counts).
    pub fn faults(&self) -> &FaultInjector {
        &self.faults
    }

    /// Queries shed by admission control so far (both the service's own
    /// in-flight gate and transport-level sheds recorded via
    /// [`ComicService::note_shed`]).
    pub fn shed(&self) -> u64 {
        self.shed.load(Ordering::SeqCst)
    }

    /// Record a transport-level shed (e.g. the TCP connection cap) so
    /// `stats` reports one shed counter across layers.
    pub fn note_shed(&self) {
        self.shed.fetch_add(1, Ordering::SeqCst);
    }

    /// Queries whose wall-clock backstop fired (`deadline_exceeded`).
    pub fn deadline_misses(&self) -> u64 {
        self.deadline_misses.load(Ordering::SeqCst)
    }

    /// Spill files rejected at load (corrupt, foreign-graph, or
    /// provenance-mismatched). Missing files are not rejects.
    pub fn spill_rejects(&self) -> u64 {
        self.spill_rejects.load(Ordering::SeqCst)
    }

    /// RR-sets marked dirty by delta invalidation, service lifetime.
    pub fn sets_invalidated(&self) -> u64 {
        self.sets_invalidated.load(Ordering::SeqCst)
    }

    /// RR-sets resampled by the incremental refresh path.
    pub fn sets_regenerated(&self) -> u64 {
        self.sets_regenerated.load(Ordering::SeqCst)
    }

    /// Pools rebuilt from scratch on a delta apply (touch-opaque sampler
    /// or staleness bound exceeded).
    pub fn full_rebuilds(&self) -> u64 {
        self.full_rebuilds.load(Ordering::SeqCst)
    }

    /// Edge deltas folded into the served graph since start.
    pub fn deltas_applied(&self) -> u64 {
        self.deltas_applied.load(Ordering::SeqCst)
    }

    /// Edge deltas accepted but not yet applied.
    pub fn pending_delta_count(&self) -> u64 {
        self.pending_deltas.lock().expect("delta lock").len() as u64
    }

    /// Queue a batch of edge deltas in wire order (adds, then removes,
    /// then reweights). Returns the queue depth afterwards. Node ids must
    /// already be validated against the served graph, and self-loop adds
    /// refused.
    pub fn queue_deltas(
        &self,
        add: &[(u32, u32, f64)],
        remove: &[(u32, u32)],
        reweight: &[(u32, u32, f64)],
    ) -> u64 {
        let mut q = self.pending_deltas.lock().expect("delta lock");
        for &(s, t, p) in add {
            q.push(EdgeDelta::Add {
                source: NodeId(s),
                target: NodeId(t),
                p,
            });
        }
        for &(s, t) in remove {
            q.push(EdgeDelta::Remove {
                source: NodeId(s),
                target: NodeId(t),
            });
        }
        for &(s, t, p) in reweight {
            q.push(EdgeDelta::Reweight {
                source: NodeId(s),
                target: NodeId(t),
                p,
            });
        }
        q.len() as u64
    }

    /// Drain the pending delta queue into the served graph and refit every
    /// resident pool. Returns how many deltas were folded (0 when the
    /// queue was empty).
    ///
    /// The graph swap is compaction ([`DiGraph::apply_deltas`]): queries
    /// racing the apply see the old graph or the new one, never a torn
    /// pair. Each pool is then refitted — *incrementally* when it is
    /// touch-tracked (vanilla IC: its sets are the live-path closures of
    /// per-set keyed coins) and the batch is within
    /// [`ServeConfig::max_stale_deltas`]: among the RR-sets the resident
    /// coverage index lists under a changed in-adjacency's target, only
    /// those where the changed edge's coin is, or was, live are resampled
    /// ([`SketchPool::invalidate`]); the rest keep their members, with
    /// their widths recomputed on the new graph. Every other pool takes a
    /// full rebuild, counted in `full_rebuilds`.
    ///
    /// A conflicting batch ([`comic_graph::GraphError::DeltaConflict`] —
    /// e.g. removing an edge that is not there) is *dropped whole* with a
    /// typed `bad_query` error: the log is a journal, and applying a
    /// prefix would leave the queue and the graph silently diverged.
    // The Err IS the wire response — boxing it would just move the copy.
    #[allow(clippy::result_large_err)]
    pub fn apply_pending_deltas(&self) -> Result<u64, Response> {
        let deltas: Vec<EdgeDelta> = {
            let mut q = self.pending_deltas.lock().expect("delta lock");
            std::mem::take(&mut *q)
        };
        if deltas.is_empty() {
            return Ok(0);
        }
        let old = self.graph();
        let next = match old.apply_deltas(&deltas) {
            Ok(g) => Arc::new(g),
            Err(e) => {
                return Err(Response::Error {
                    code: ErrorCode::BadQuery,
                    message: format!("delta batch dropped: {e}"),
                })
            }
        };
        let digest = comic_graph::io::graph_digest(&next);
        {
            let mut gs = self.graph.write().expect("graph lock");
            gs.graph = Arc::clone(&next);
            gs.digest = digest;
        }
        let count = deltas.len() as u64;
        self.deltas_applied.fetch_add(count, Ordering::SeqCst);
        for key in self.pool_keys() {
            self.refit_pool(&key, &next, &deltas, count);
        }
        Ok(count)
    }

    /// Refit one pool to the just-swapped graph: incremental resample when
    /// eligible, full rebuild otherwise.
    fn refit_pool(&self, key: &PoolKey, g: &Arc<DiGraph>, deltas: &[EdgeDelta], batch: u64) {
        let Some(pool) = self.pool(key) else {
            return;
        };
        // Incremental refresh replays only marked sets with the *original*
        // sampler semantics, so it is sound only where sets are the
        // live-path closures of keyed coins — the vanilla IC sampler.
        // Com-IC samplers are touch-opaque (their pools are not
        // touch-tracked, so `invalidate` yields no marks), which makes that
        // structural rather than by sampler name alone.
        let eligible = key.sampler == SamplerKind::VanillaIc && batch <= self.cfg.max_stale_deltas;
        if eligible {
            if let Some(marks) = pool.invalidate(deltas) {
                let dirty = marks.iter().filter(|&&m| m).count() as u64;
                self.sets_invalidated.fetch_add(dirty, Ordering::SeqCst);
                let g2 = Arc::clone(g);
                let refreshed = refresh_pool_marked(
                    &pool,
                    &marks,
                    || IcRrSampler::new(&g2),
                    self.cfg.gen_threads,
                )
                .with_generation(pool.generation() + 1);
                self.sets_regenerated.fetch_add(dirty, Ordering::SeqCst);
                let mut pools = self.pools.write().expect("pool lock");
                if let Some(entry) = pools.get_mut(key) {
                    entry.pool = refreshed;
                    entry.built = Instant::now();
                    entry.refreshes += 1;
                    entry.degraded = false;
                }
                return;
            }
        }
        self.full_rebuilds.fetch_add(1, Ordering::SeqCst);
        let _ = self.refresh(key);
    }

    /// Whether shutdown has been requested.
    pub fn is_draining(&self) -> bool {
        self.draining.load(Ordering::SeqCst)
    }

    /// Request shutdown: new queries are refused with `shutting_down`.
    pub fn begin_shutdown(&self) {
        self.draining.store(true, Ordering::SeqCst);
    }

    /// Block until every in-flight query has finished (call after
    /// [`ComicService::begin_shutdown`]).
    pub fn drain(&self) {
        while self.in_flight.load(Ordering::SeqCst) > 0 {
            std::thread::yield_now();
        }
    }

    /// Deterministic generation seed for `(key, generation)`.
    fn pool_seed(&self, key: &PoolKey, generation: u64) -> u64 {
        splitmix64(self.cfg.seed ^ key_fingerprint(key) ^ splitmix64(generation ^ 0x7265_6672))
    }

    /// Where `key`'s spill file lives, when persistence is configured.
    fn spill_path(&self, key: &PoolKey) -> Option<PathBuf> {
        Some(spill_file(self.cfg.pool_dir.as_deref()?, key))
    }

    /// Finish the startup read of `key`'s spill (`read`, `None` without a
    /// pool directory) against the served graph, distinguishing the
    /// expected cold start (no file) from an observable fault (a file
    /// that exists but is corrupt, written for a different graph, or
    /// carrying provenance that disagrees with what *this* config would
    /// generate — seed chain, design `k`, tier ε, node count): a
    /// provenance mismatch means the spill's bytes are some other config's
    /// pool, and serving it would break the byte-determinism contract.
    /// `gen_threads` is not provenance: pool bytes are the same at every
    /// thread count.
    fn install_spilled(
        &self,
        key: &PoolKey,
        read: Option<Result<spill::SpilledPool, comic_graph::GraphError>>,
    ) -> SpillLoad {
        let Some(read) = read else {
            return SpillLoad::Missing;
        };
        let pool = match read.and_then(|spilled| spilled.against(self.graph_digest())) {
            Ok(pool) => pool,
            Err(comic_graph::GraphError::Io(e)) if e.kind() == std::io::ErrorKind::NotFound => {
                return SpillLoad::Missing;
            }
            Err(e) => return SpillLoad::Rejected(e.to_string()),
        };
        let provenance_ok = pool.seed() == self.pool_seed(key, pool.generation())
            && pool.design_k() == self.cfg.design_k
            && pool.epsilon() == key.tier.epsilon()
            && pool.num_nodes() == self.graph().num_nodes()
            && self
                .cfg
                .max_rr_sets
                .is_none_or(|cap| pool.len() as u64 <= cap);
        if provenance_ok {
            SpillLoad::Loaded(pool)
        } else {
            SpillLoad::Rejected(format!(
                "provenance mismatch: spill holds generation {} seed {:#x} \
                 (design-k {}, ε {}, {} nodes), which this config would \
                 not generate",
                pool.generation(),
                pool.seed(),
                pool.design_k(),
                pool.epsilon(),
                pool.num_nodes(),
            ))
        }
    }

    /// Record (and warn about) a rejected spill file.
    fn note_spill_reject(&self, key: &PoolKey, why: &str) {
        self.spill_rejects.fetch_add(1, Ordering::SeqCst);
        eprintln!("warning: rejecting spilled pool {key}: {why}; rebuilding from scratch");
    }

    /// Best-effort spill of a freshly built pool: persistence is an
    /// optimization, so a failed write (missing directory, full disk) must
    /// never fail the build that produced the pool. Atomic-enough: temp
    /// file, then rename over.
    fn spill_pool(&self, key: &PoolKey, pool: &SketchPool) {
        let Some(path) = self.spill_path(key) else {
            return;
        };
        // Once deltas have mutated the served graph, stop spilling: a
        // spill must describe the on-disk dataset, or the next cold start
        // would reject (or worse, serve) pools for a graph it never
        // loaded.
        if self.deltas_applied.load(Ordering::SeqCst) > 0 {
            return;
        }
        let tmp = path.with_extension("rrseg.tmp");
        let write = spill::write_pool_file(pool, self.graph_digest(), &tmp)
            .and_then(|()| std::fs::rename(&tmp, &path).map_err(comic_graph::GraphError::Io));
        if let Err(e) = write {
            let _ = std::fs::remove_file(&tmp);
            eprintln!(
                "warning: could not spill pool {key} to {}: {e}",
                path.display()
            );
        }
    }

    /// Build the sketches for `key` at `generation` (stages 1–3 of the
    /// pipeline, on `gen_threads` workers). The only sampling path in the
    /// service; bumps [`ComicService::pool_builds`]. With `inject` set
    /// (refresh path only), the armed fault plan may panic the build at
    /// the generate stage — [`ComicService::refresh`] isolates that.
    fn build_pool(
        &self,
        key: &PoolKey,
        generation: u64,
        inject: bool,
    ) -> Result<SketchPool, String> {
        let gap = *self.presets.get(&key.preset).ok_or_else(|| {
            let known: Vec<&str> = self.presets.keys().map(String::as_str).collect();
            format!(
                "unknown preset {:?} (registered: {})",
                key.preset,
                known.join(", ")
            )
        })?;
        let mut tc = TimConfig::new(self.cfg.design_k)
            .epsilon(key.tier.epsilon())
            .seed(self.pool_seed(key, generation))
            .threads(self.cfg.gen_threads);
        if let Some(cap) = self.cfg.max_rr_sets {
            tc = tc.max_rr_sets(cap);
        }
        let pipe = RisPipeline::new(tc);
        let graph = self.graph();
        let g = graph.as_ref();
        let observe = |stage: PoolStage| {
            if inject && stage == PoolStage::Generate && self.faults.trip(FaultSite::BuildPanic) {
                panic!("injected pool-build panic ({key})");
            }
        };
        let pool = match key.sampler {
            SamplerKind::VanillaIc => pipe
                .generate_pool_observed(|| IcRrSampler::new(g), observe)
                .map_err(|e| e.to_string())?,
            SamplerKind::RrSim => {
                let f =
                    RrSimSampler::factory(g, gap, &self.other_seeds).map_err(|e| e.to_string())?;
                pipe.generate_pool_observed(f, observe)
                    .map_err(|e| e.to_string())?
            }
            SamplerKind::RrSimPlus => {
                let f = RrSimPlusSampler::factory(g, gap, &self.other_seeds)
                    .map_err(|e| e.to_string())?;
                pipe.generate_pool_observed(f, observe)
                    .map_err(|e| e.to_string())?
            }
            SamplerKind::RrCim => {
                let f =
                    RrCimSampler::factory(g, gap, &self.other_seeds).map_err(|e| e.to_string())?;
                pipe.generate_pool_observed(f, observe)
                    .map_err(|e| e.to_string())?
            }
        };
        self.pool_builds.fetch_add(1, Ordering::SeqCst);
        Ok(pool.with_generation(generation))
    }

    /// Regenerate one pool (generation + 1) and swap it in. Deterministic:
    /// generation `g` of a key has the same bytes in every instance.
    ///
    /// Failure is *contained*: an injected fault, a build error, or even a
    /// panic inside the pipeline leaves the resident generation serving,
    /// bumps the key's `refresh_failures`, marks it degraded, and returns
    /// a typed `pool` error. The next successful refresh clears the
    /// degraded state.
    // The Err IS the wire response — boxing it would just move the copy.
    #[allow(clippy::result_large_err)]
    pub fn refresh(&self, key: &PoolKey) -> Result<PoolMeta, Response> {
        let current = self.pool(key).ok_or_else(|| unknown_pool(key))?;
        let next_gen = current.generation() + 1;
        let built: Result<SketchPool, String> = if self.faults.trip(FaultSite::RefreshBuild) {
            Err("injected refresh-build failure".to_string())
        } else {
            match catch_unwind(AssertUnwindSafe(|| self.build_pool(key, next_gen, true))) {
                Ok(result) => result,
                Err(payload) => Err(format!("pool build panicked: {}", panic_message(&payload))),
            }
        };
        match built {
            Ok(pool) => {
                let meta = meta_of(key, &pool);
                self.spill_pool(key, &pool);
                let mut pools = self.pools.write().expect("pool lock");
                if let Some(entry) = pools.get_mut(key) {
                    entry.pool = pool;
                    entry.built = Instant::now();
                    entry.refreshes += 1;
                    entry.degraded = false;
                }
                Ok(meta)
            }
            Err(cause) => {
                let mut pools = self.pools.write().expect("pool lock");
                if let Some(entry) = pools.get_mut(key) {
                    entry.refresh_failures += 1;
                    entry.degraded = true;
                }
                Err(Response::Error {
                    code: ErrorCode::Pool,
                    message: format!(
                        "refresh of {key} failed; still serving generation {} ({cause})",
                        current.generation()
                    ),
                })
            }
        }
    }

    /// Refresh every resident pool (the background refresher's body).
    /// Returns how many refreshes failed this sweep.
    pub fn refresh_all(&self) -> u32 {
        let mut failed = 0;
        for key in self.pool_keys() {
            if self.is_draining() {
                return failed;
            }
            if self.refresh(&key).is_err() {
                failed += 1;
            }
        }
        failed
    }

    /// Spawn the background refresh thread: every `every`, fold any
    /// pending edge deltas into the served graph (the incremental path —
    /// see [`ComicService::apply_pending_deltas`]), or, with nothing
    /// queued, regenerate all pools on the deterministic generation
    /// schedule; exits promptly once shutdown begins. Join the handle
    /// after [`ComicService::drain`].
    ///
    /// Failed sweeps back off exponentially ([`refresh_backoff`]) so a
    /// persistently failing build does not spin the CPU; one success
    /// resets the backoff. Panics escaping `refresh_all` (already
    /// contained per-key) are additionally isolated here so the refresher
    /// thread itself can never die.
    pub fn spawn_refresher(self: &Arc<Self>, every: Duration) -> std::thread::JoinHandle<()> {
        let svc = Arc::clone(self);
        std::thread::spawn(move || {
            let tick = Duration::from_millis(5);
            let mut attempt: u64 = 0;
            let mut failures: u32 = 0;
            while !svc.is_draining() {
                let wait = refresh_backoff(every, failures, svc.cfg.seed, attempt);
                let slept_from = Instant::now();
                while slept_from.elapsed() < wait {
                    if svc.is_draining() {
                        return;
                    }
                    std::thread::sleep(tick);
                }
                if svc.is_draining() {
                    return;
                }
                attempt += 1;
                let failed = catch_unwind(AssertUnwindSafe(|| {
                    if svc.pending_delta_count() > 0 {
                        match svc.apply_pending_deltas() {
                            Ok(_) => 0,
                            Err(_) => 1,
                        }
                    } else {
                        svc.refresh_all()
                    }
                }))
                .unwrap_or(1);
                failures = if failed == 0 {
                    0
                } else {
                    failures.saturating_add(1)
                };
            }
        })
    }

    /// Handle one raw request line (parse + [`ComicService::handle`]).
    pub fn handle_line(&self, line: &str) -> Response {
        match crate::protocol::parse_request(line) {
            Ok(req) => self.handle(&req),
            Err(e) => Response::parse_error(&e),
        }
    }

    /// Handle one typed request.
    pub fn handle(&self, req: &Request) -> Response {
        match req {
            Request::Ping => Response::Pong,
            Request::Shutdown => {
                self.begin_shutdown();
                Response::ShuttingDown
            }
            Request::Stats => self.stats(),
            Request::Refresh { pool } => match self.refresh(pool) {
                Ok(meta) => Response::Refreshed { pool: meta },
                Err(resp) => resp,
            },
            Request::Batch(reqs) => Response::Batch(reqs.iter().map(|r| self.handle(r)).collect()),
            Request::Delta {
                add,
                remove,
                reweight,
                apply,
            } => {
                if self.is_draining() {
                    return Response::Error {
                        code: ErrorCode::ShuttingDown,
                        message: "service is draining; no new deltas".to_string(),
                    };
                }
                // Validate node ids and self-loop adds before queueing:
                // a record that fails whatever the graph holds must fail
                // *this* request, not poison a later apply of the queue.
                let n = self.graph().num_nodes();
                let bad = add
                    .iter()
                    .chain(reweight.iter())
                    .flat_map(|&(s, t, _)| [s, t])
                    .chain(remove.iter().flat_map(|&(s, t)| [s, t]))
                    .find(|&v| v as usize >= n);
                if let Some(v) = bad {
                    return Response::Error {
                        code: ErrorCode::BadQuery,
                        message: format!("delta node {v} out of range for a {n}-node graph"),
                    };
                }
                if let Some(&(v, _, _)) = add.iter().find(|&&(s, t, _)| s == t) {
                    return Response::Error {
                        code: ErrorCode::BadQuery,
                        message: format!("delta adds a self-loop on node {v}"),
                    };
                }
                self.queue_deltas(add, remove, reweight);
                let applied = if *apply {
                    match self.apply_pending_deltas() {
                        Ok(count) => count,
                        Err(resp) => return resp,
                    }
                } else {
                    0
                };
                Response::Deltas {
                    pending: self.pending_delta_count(),
                    applied,
                    sets_invalidated: self.sets_invalidated(),
                    sets_regenerated: self.sets_regenerated(),
                    full_rebuilds: self.full_rebuilds(),
                }
            }
            Request::Select { .. } | Request::Estimate { .. } => {
                if self.is_draining() {
                    return Response::Error {
                        code: ErrorCode::ShuttingDown,
                        message: "service is draining; no new queries".to_string(),
                    };
                }
                if !self.admit() {
                    self.shed.fetch_add(1, Ordering::SeqCst);
                    return Response::Error {
                        code: ErrorCode::Overloaded,
                        message: format!(
                            "in-flight cap of {} reached; request shed",
                            self.cfg.max_in_flight.unwrap_or(0)
                        ),
                    };
                }
                let _guard = InFlight(&self.in_flight);
                self.queries.fetch_add(1, Ordering::SeqCst);
                // The deadline clock starts before the injected delay, so
                // a chaos `query-delay` sleep counts against the budget
                // and can trip the wall-clock backstop deterministically.
                let ctx = self.query_ctx(match req {
                    Request::Select { deadline_ms, .. } | Request::Estimate { deadline_ms, .. } => {
                        *deadline_ms
                    }
                    _ => unreachable!(),
                });
                if let Some(d) = self.faults.delay(FaultSite::QueryDelay) {
                    std::thread::sleep(d);
                }
                match req {
                    Request::Select {
                        pool,
                        k,
                        selector,
                        budget,
                        ..
                    } => self.select(pool, *k, *selector, *budget, &ctx),
                    Request::Estimate {
                        pool,
                        seeds,
                        budget,
                        ..
                    } => self.estimate(pool, seeds, *budget, &ctx),
                    _ => unreachable!(),
                }
            }
        }
    }

    /// Try to take an in-flight permit. Lock-free CAS against the cap so
    /// admission never queues: over the cap, the caller sheds immediately.
    fn admit(&self) -> bool {
        let Some(cap) = self.cfg.max_in_flight else {
            self.in_flight.fetch_add(1, Ordering::SeqCst);
            return true;
        };
        let mut cur = self.in_flight.load(Ordering::SeqCst);
        loop {
            if cur >= cap {
                return false;
            }
            match self
                .in_flight
                .compare_exchange(cur, cur + 1, Ordering::SeqCst, Ordering::SeqCst)
            {
                Ok(_) => return true,
                Err(now) => cur = now,
            }
        }
    }

    fn query_ctx(&self, deadline_ms: Option<u64>) -> QueryCtx {
        QueryCtx {
            started: Instant::now(),
            limit_ms: deadline_ms.or(self.cfg.default_deadline_ms),
        }
    }

    /// The wall-clock backstop, checked after the answer is computed. The
    /// deterministic cost model should keep real queries inside their
    /// deadline; this fires only when actual work blew far past the
    /// estimate (or a chaos `query-delay` fault slept through it).
    fn deadline_blown(&self, ctx: &QueryCtx) -> Option<Response> {
        if ctx.exceeded() {
            self.deadline_misses.fetch_add(1, Ordering::SeqCst);
            Some(Response::Error {
                code: ErrorCode::DeadlineExceeded,
                message: format!(
                    "deadline of {} ms elapsed before the answer was ready",
                    ctx.limit_ms.unwrap_or(0)
                ),
            })
        } else {
            None
        }
    }

    /// Route a query under the deterministic deadline cost model. With no
    /// deadline, the requested pool answers as-is. Otherwise, in order:
    ///
    /// 1. the requested pool, if `sketches × sketch_cost_ns` fits;
    /// 2. the *finest* coarser resident ε-tier of the same sampler/preset
    ///    that fits (coarser tiers hold fewer sketches);
    /// 3. the requested pool prefixed to the largest sketch count the
    ///    deadline affords (never below one sketch).
    ///
    /// Everything here depends only on config + resident pool sizes +
    /// request fields, so routing is byte-deterministic across instances.
    // The Err IS the wire response — boxing it would just move the copy.
    #[allow(clippy::result_large_err)]
    fn route_query(
        &self,
        key: &PoolKey,
        user_budget: Option<u64>,
        limit_ms: Option<u64>,
    ) -> Result<Routed, Response> {
        let pools = self.pools.read().expect("pool lock");
        let entry = pools.get(key).ok_or_else(|| unknown_pool(key))?;
        let effective_len = |e: &PoolEntry| {
            let len = e.pool.len() as u64;
            user_budget.map_or(len, |b| b.min(len))
        };
        let cost_ms = |sketches: u64| sketches.saturating_mul(self.cfg.sketch_cost_ns) / 1_000_000;
        let routed = |key: &PoolKey, e: &PoolEntry, budget, deadline_limited| Routed {
            key: key.clone(),
            pool: e.pool.clone(),
            counter: Arc::clone(&e.queries),
            stale: e.degraded,
            deadline_limited,
            budget,
        };
        let Some(d) = limit_ms else {
            return Ok(routed(key, entry, user_budget, false));
        };
        if cost_ms(effective_len(entry)) <= d {
            return Ok(routed(key, entry, user_budget, false));
        }
        // Coarser resident tiers of the same sampler/preset, finest first
        // (EpsTier::ALL is coarse→fine, so walk it reversed).
        for tier in EpsTier::ALL.iter().rev() {
            if tier.epsilon() <= key.tier.epsilon() {
                continue;
            }
            let cand = PoolKey::new(key.sampler, key.preset.clone(), *tier)
                .expect("tier swap of a valid key");
            if let Some(e) = pools.get(&cand) {
                if cost_ms(effective_len(e)) <= d {
                    return Ok(routed(&cand, e, user_budget, true));
                }
            }
        }
        // Nothing resident fits whole: consult the longest prefix of the
        // requested pool the deadline affords.
        let fit = (d.saturating_mul(1_000_000) / self.cfg.sketch_cost_ns.max(1)).max(1);
        let budget = Some(user_budget.map_or(fit, |b| b.min(fit)));
        Ok(routed(key, entry, budget, true))
    }

    fn select(
        &self,
        key: &PoolKey,
        k: usize,
        selector: Option<SelectorKind>,
        budget: Option<u64>,
        ctx: &QueryCtx,
    ) -> Response {
        let routed = match self.route_query(key, budget, ctx.limit_ms) {
            Ok(r) => r,
            Err(resp) => return resp,
        };
        routed.counter.fetch_add(1, Ordering::SeqCst);
        let consulted = routed.consulted();
        let selector = selector.unwrap_or(SelectorKind::Celf);
        let tc = TimConfig::new(k).selector(selector);
        // Warm path: selection only, zero sampling and no copy (the
        // pipeline reads the resident pool's index up to the budget).
        let r = match RisPipeline::new(tc).run_on_prefix(&routed.pool, consulted) {
            Ok(r) => r,
            Err(e) => {
                return Response::Error {
                    code: ErrorCode::BadQuery,
                    message: e.to_string(),
                }
            }
        };
        if let Some(resp) = self.deadline_blown(ctx) {
            return resp;
        }
        let mut meta = meta_of(&routed.key, &routed.pool);
        meta.capped = routed.capped();
        let (degraded, degrade_reason) = degrade_info(routed.stale, routed.deadline_limited);
        Response::Selected {
            pool: meta,
            k: k as u64,
            selector,
            consulted: consulted as u64,
            seeds: r.seeds.iter().map(|s| s.0).collect(),
            covered: r.covered,
            est_spread: r.est_spread,
            warm: true,
            degraded,
            degrade_reason,
        }
    }

    fn estimate(
        &self,
        key: &PoolKey,
        seeds: &[u32],
        budget: Option<u64>,
        ctx: &QueryCtx,
    ) -> Response {
        let routed = match self.route_query(key, budget, ctx.limit_ms) {
            Ok(r) => r,
            Err(resp) => return resp,
        };
        routed.counter.fetch_add(1, Ordering::SeqCst);
        let n = routed.pool.num_nodes();
        if let Some(&bad) = seeds.iter().find(|&&s| s as usize >= n) {
            return Response::Error {
                code: ErrorCode::BadQuery,
                message: format!("seed {bad} out of range for a {n}-node graph"),
            };
        }
        let consulted = routed.consulted();
        let nodes: Vec<NodeId> = seeds.iter().map(|&s| NodeId(s)).collect();
        let est = routed.pool.estimate_spread_prefix(&nodes, consulted);
        if let Some(resp) = self.deadline_blown(ctx) {
            return resp;
        }
        let mut meta = meta_of(&routed.key, &routed.pool);
        meta.capped = routed.capped();
        let (degraded, degrade_reason) = degrade_info(routed.stale, routed.deadline_limited);
        Response::Estimated {
            pool: meta,
            seeds: seeds.len() as u64,
            consulted: consulted as u64,
            est_spread: est,
            warm: true,
            degraded,
            degrade_reason,
        }
    }

    fn stats(&self) -> Response {
        let pools = self.pools.read().expect("pool lock");
        let rows = pools
            .iter()
            .map(|(key, entry)| PoolStats {
                meta: meta_of(key, &entry.pool),
                age_ms: entry.built.elapsed().as_millis() as u64,
                refreshes: entry.refreshes,
                refresh_failures: entry.refresh_failures,
                degraded: entry.degraded,
                queries: entry.queries.load(Ordering::SeqCst),
            })
            .collect();
        let g = self.graph();
        Response::Stats {
            graph: self.graph_name.clone(),
            nodes: g.num_nodes() as u64,
            edges: g.num_edges() as u64,
            uptime_ms: self.started.elapsed().as_millis() as u64,
            queries: self.queries.load(Ordering::SeqCst),
            pool_builds: self.pool_builds(),
            shed: self.shed.load(Ordering::SeqCst),
            deadline_misses: self.deadline_misses.load(Ordering::SeqCst),
            spill_rejects: self.spill_rejects(),
            sets_invalidated: self.sets_invalidated(),
            sets_regenerated: self.sets_regenerated(),
            full_rebuilds: self.full_rebuilds(),
            pools: rows,
        }
    }
}

/// Where `key`'s spill file lives in the pool directory `dir`.
fn spill_file(dir: &Path, key: &PoolKey) -> PathBuf {
    dir.join(format!("{}.rrseg", key.to_string().replace('/', "-")))
}

/// The startup half of every configured pool's spill read, in `keys`
/// order: everything [`spill::read_pool_spill`] checks before a graph is
/// known. Leftover temp files are swept first, before any pool is
/// rebuilt and re-spilled.
fn read_spills(
    dir: &Path,
    keys: &[PoolKey],
) -> Vec<Result<spill::SpilledPool, comic_graph::GraphError>> {
    sweep_stale_tmp(dir);
    keys.iter()
        .map(|key| spill::read_pool_spill(&spill_file(dir, key)))
        .collect()
}

/// The `k` nodes of largest out-degree, ties toward smaller ids, in that
/// order — the "other item" seed set the Com-IC samplers condition on.
/// Deterministic, no RNG: the keys `(Reverse(out_degree), id)` are unique,
/// so a selection of the first `k` plus a sort of those `k` gives the same
/// nodes in the same order as a sort of all n, in O(n + k log k).
fn top_out_degree(graph: &DiGraph, k: usize) -> Vec<NodeId> {
    let key = |v: &NodeId| (std::cmp::Reverse(graph.out_degree(*v)), v.0);
    let mut nodes: Vec<NodeId> = graph.nodes().collect();
    if k < nodes.len() {
        nodes.select_nth_unstable_by_key(k, key);
        nodes.truncate(k);
    }
    nodes.sort_unstable_by_key(key);
    nodes
}

/// Delete leftover `*.rrseg.tmp` files in the pool directory (debris of a
/// crash between a spill's temp-write and its rename in
/// `ComicService::spill_pool`; nothing reads them). Other files, `.tmp` or
/// not, are not the service's and stay.
fn sweep_stale_tmp(dir: &Path) {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return;
    };
    for entry in entries.flatten() {
        let name = entry.file_name();
        if name.to_str().is_some_and(|n| n.ends_with(".rrseg.tmp")) {
            let _ = std::fs::remove_file(entry.path());
        }
    }
}

fn unknown_pool(key: &PoolKey) -> Response {
    Response::Error {
        code: ErrorCode::UnknownPool,
        message: format!("no resident pool {key}"),
    }
}

fn meta_of(key: &PoolKey, pool: &SketchPool) -> PoolMeta {
    PoolMeta {
        key: key.to_string(),
        sketches: pool.len() as u64,
        generation: pool.generation(),
        design_k: pool.design_k() as u64,
        epsilon: pool.epsilon(),
        capped: pool.capped(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::protocol::EpsTier;

    fn small_cfg() -> ServeConfig {
        let mut cfg = ServeConfig::new("fixture-small");
        cfg.design_k = 10;
        cfg.max_rr_sets = Some(8_000);
        cfg.pools = vec![
            PoolKey::new(SamplerKind::VanillaIc, "default", EpsTier::Coarse).unwrap(),
            PoolKey::new(SamplerKind::RrSim, "one-way", EpsTier::Coarse).unwrap(),
        ];
        cfg
    }

    #[test]
    fn startup_warms_the_configured_pools() {
        let svc = ComicService::start(small_cfg()).unwrap();
        assert_eq!(svc.pool_keys().len(), 2);
        assert_eq!(svc.pool_builds(), 2);
        let key = PoolKey::new(SamplerKind::VanillaIc, "default", EpsTier::Coarse).unwrap();
        let pool = svc.pool(&key).unwrap();
        assert!(!pool.is_empty());
        assert_eq!(pool.generation(), 0);
        assert_eq!(pool.design_k(), 10);
        // Presets: the fixture gap is mutually complementary, so all three
        // projections register.
        let names: Vec<String> = svc.presets().into_iter().map(|(n, _)| n).collect();
        assert_eq!(names, ["cim", "default", "one-way"]);
        // Other-item seeds are the top out-degree nodes, deterministic.
        assert_eq!(svc.other_seeds().len(), svc.config().other_seeds);
        let g = svc.graph();
        for w in svc.other_seeds().windows(2) {
            let (a, b) = (g.out_degree(w[0]), g.out_degree(w[1]));
            assert!(a > b || (a == b && w[0].0 < w[1].0));
        }
    }

    fn temp_pool_dir(tag: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("comic-serve-pools-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn cold_restart_reuses_spilled_pools_without_building() {
        let dir = temp_pool_dir("restart");
        let mut cfg = small_cfg();
        cfg.pool_dir = Some(dir.clone());

        // First start: nothing spilled yet, so every pool is built — and
        // spilled on the way.
        let first = ComicService::start(cfg.clone()).unwrap();
        assert_eq!(first.pool_builds(), 2);
        let key = PoolKey::new(SamplerKind::VanillaIc, "default", EpsTier::Coarse).unwrap();
        let original = first.pool(&key).unwrap();
        drop(first);

        // Restart with the same config: pools come back from the spills,
        // byte-identical, with zero sampling.
        let second = ComicService::start(cfg).unwrap();
        assert_eq!(second.pool_builds(), 0, "restart must not regenerate");
        let reloaded = second.pool(&key).unwrap();
        assert_eq!(reloaded.store(), original.store());
        assert_eq!(reloaded.seed(), original.seed());
        assert_eq!(reloaded.generation(), original.generation());
        assert_eq!(reloaded.coverage_index(), original.coverage_index());
        // And the reloaded pools actually answer queries.
        let sel = second.handle(&Request::Select {
            pool: key,
            k: 3,
            selector: None,
            budget: None,
            deadline_ms: None,
        });
        assert!(matches!(sel, Response::Selected { .. }), "{sel:?}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_key_listed_twice_reloads_the_spill_its_first_warming_wrote() {
        // The spills are read before any pool is built, but a repeated key
        // must see the file its first occurrence (re)spilled: one build,
        // and a corrupt spill counted once.
        let dir = temp_pool_dir("twice");
        let key = PoolKey::new(SamplerKind::VanillaIc, "default", EpsTier::Coarse).unwrap();
        let mut cfg = small_cfg();
        cfg.pools = vec![key.clone(), key];
        cfg.pool_dir = Some(dir.clone());
        let cold = ComicService::start(cfg.clone()).unwrap();
        assert_eq!((cold.pool_builds(), cold.spill_rejects()), (1, 0));
        drop(cold);
        let spill = dir.join("vanilla-ic-default-coarse.rrseg");
        let mut bytes = std::fs::read(&spill).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0xFF;
        std::fs::write(&spill, &bytes).unwrap();
        let healed = ComicService::start(cfg).unwrap();
        assert_eq!((healed.pool_builds(), healed.spill_rejects()), (1, 1));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_v3_spill_rebuilds_once_and_is_rewritten_as_v4() {
        // A v3 spill's IC sets came from geometric-skip streams, which the
        // keyed invalidation rule cannot reason about: the reader rejects
        // the version, the pool rebuilds, and the rebuild re-spills as v4.
        let dir = temp_pool_dir("v3");
        let key = PoolKey::new(SamplerKind::VanillaIc, "default", EpsTier::Coarse).unwrap();
        let mut cfg = small_cfg();
        cfg.pools = vec![key];
        cfg.pool_dir = Some(dir.clone());
        drop(ComicService::start(cfg.clone()).unwrap());
        let spill = dir.join("vanilla-ic-default-coarse.rrseg");
        let mut bytes = std::fs::read(&spill).unwrap();
        assert_eq!(bytes[8..12], spill::POOL_FORMAT_VERSION.to_le_bytes());
        bytes[8..12].copy_from_slice(&3u32.to_le_bytes());
        std::fs::write(&spill, &bytes).unwrap();
        let rebuilt = ComicService::start(cfg.clone()).unwrap();
        assert_eq!((rebuilt.pool_builds(), rebuilt.spill_rejects()), (1, 1));
        drop(rebuilt);
        let warm = ComicService::start(cfg).unwrap();
        assert_eq!((warm.pool_builds(), warm.spill_rejects()), (0, 0));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn spills_reload_at_any_gen_threads_with_identical_answers() {
        let dir = temp_pool_dir("genthreads");
        let mut cfg = small_cfg();
        cfg.gen_threads = 2;
        cfg.pool_dir = Some(dir.clone());
        let first = ComicService::start(cfg.clone()).unwrap();
        assert_eq!(first.pool_builds(), 2);
        let spilled = select_lines(&first);
        drop(first);

        // Generation threads are a latency knob, not provenance: the
        // spills reload at another count, and answer identically.
        cfg.gen_threads = 1;
        let reloaded = ComicService::start(cfg.clone()).unwrap();
        assert_eq!(
            reloaded.pool_builds(),
            0,
            "spills reload across gen_threads"
        );
        assert_eq!(reloaded.spill_rejects(), 0);
        assert_eq!(select_lines(&reloaded), spilled);
        drop(reloaded);

        // A cold build at that count lands on the same bytes too.
        cfg.pool_dir = None;
        let cold = ComicService::start(cfg).unwrap();
        assert_eq!(cold.pool_builds(), 2);
        assert_eq!(select_lines(&cold), spilled);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn provenance_mismatched_spills_are_rebuilt_not_served() {
        let dir = temp_pool_dir("mismatch");
        let mut cfg = small_cfg();
        cfg.pool_dir = Some(dir.clone());
        let first = ComicService::start(cfg.clone()).unwrap();
        assert_eq!(first.pool_builds(), 2);
        drop(first);

        // A different service seed changes every pool's generation stream,
        // so the spills on disk describe some other config's pools.
        let mut other = cfg.clone();
        other.seed ^= 0xDEAD;
        let svc = ComicService::start(other).unwrap();
        assert_eq!(
            svc.pool_builds(),
            2,
            "foreign-seed spills must be rebuilt, not served"
        );
        assert_eq!(
            svc.spill_rejects(),
            2,
            "provenance mismatches are observable rejects"
        );
        drop(svc);

        // The foreign-seed run re-spilled its own pools; restore spills
        // matching `cfg` before the corruption scenario.
        let svc = ComicService::start(cfg.clone()).unwrap();
        assert_eq!(svc.pool_builds(), 2);
        drop(svc);

        // Corrupt one spill on disk: typed rejection inside the reader
        // routes that key to a rebuild; the intact spill still loads.
        let mut entries: Vec<PathBuf> = std::fs::read_dir(&dir)
            .unwrap()
            .map(|e| e.unwrap().path())
            .filter(|p| p.extension().is_some_and(|x| x == "rrseg"))
            .collect();
        entries.sort();
        assert_eq!(entries.len(), 2);
        let mut bytes = std::fs::read(&entries[0]).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0xFF;
        std::fs::write(&entries[0], &bytes).unwrap();
        let svc = ComicService::start(cfg).unwrap();
        assert_eq!(svc.pool_builds(), 1, "only the corrupt spill rebuilds");
        assert_eq!(svc.spill_rejects(), 1, "the corrupt spill is counted");
        // The reject surfaces on the stats line too.
        let line = svc.stats().to_line();
        assert!(line.contains("\"spill_rejects\":1"), "{line}");
        // A missing file, by contrast, is a silent cold start: fresh dir,
        // two builds, zero rejects.
        drop(svc);
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let mut cold = small_cfg();
        cold.pool_dir = Some(dir.clone());
        let svc = ComicService::start(cold).unwrap();
        assert_eq!(svc.pool_builds(), 2);
        assert_eq!(svc.spill_rejects(), 0, "missing spills are not rejects");
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// One select line per resident pool, key order.
    fn select_lines(svc: &ComicService) -> Vec<String> {
        svc.pool_keys()
            .into_iter()
            .map(|pool| {
                svc.handle(&Request::Select {
                    pool,
                    k: 5,
                    selector: None,
                    budget: None,
                    deadline_ms: None,
                })
                .to_line()
            })
            .collect()
    }

    #[test]
    fn spills_of_another_graph_are_rebuilt_not_served() {
        // The spills are read while the dataset loads, so the graph digest
        // check runs only after the join: a restart over an edited dataset
        // must still reject every spill as stale and rebuild it.
        let dir = temp_pool_dir("stale");
        let data_dir = temp_pool_dir("stale-data");
        let source = data_dir.join("edited.txt");
        let text = std::fs::read_to_string(
            Path::new(env!("CARGO_MANIFEST_DIR")).join("../../tests/fixtures/fixture-small.txt"),
        )
        .unwrap();
        std::fs::write(&source, &text).unwrap();
        let mut cfg = small_cfg();
        cfg.dataset = source.to_str().unwrap().to_string();
        cfg.pool_dir = Some(dir.clone());
        let first = ComicService::start(cfg.clone()).unwrap();
        assert_eq!(first.pool_builds(), 2);
        let n = first.graph().num_nodes();
        drop(first);

        // Retarget the first edge at a node it does not reach yet.
        let lines: Vec<&str> = text.lines().collect();
        let at = lines.iter().position(|l| !l.starts_with('#')).unwrap();
        let (u, v) = lines[at].split_once('\t').unwrap();
        let (u, v): (u32, u32) = (u.parse().unwrap(), v.parse().unwrap());
        let w = (v + 1..)
            .find(|&w| w != u && !lines.contains(&format!("{u}\t{w}").as_str()))
            .unwrap();
        let mut edited: Vec<String> = lines.iter().map(|l| l.to_string()).collect();
        edited[at] = format!("{u}\t{w}");
        std::fs::write(&source, edited.join("\n") + "\n").unwrap();

        let restarted = ComicService::start(cfg.clone()).unwrap();
        assert_eq!(restarted.graph().num_nodes(), n, "only an edge changed");
        assert_eq!(restarted.spill_rejects(), 2, "every spill is stale");
        assert_eq!(restarted.pool_builds(), 2, "every stale spill rebuilds");
        cfg.pool_dir = None;
        let cold = ComicService::start(cfg).unwrap();
        assert_eq!(select_lines(&restarted), select_lines(&cold));
        let _ = std::fs::remove_dir_all(&dir);
        let _ = std::fs::remove_dir_all(&data_dir);
    }

    #[test]
    fn top_out_degree_equals_a_full_sort() {
        // Out-degrees take four values over 50 nodes, so most keys tie on
        // degree and the id breaks them.
        let n = 50u32;
        let mut b = comic_graph::GraphBuilder::new(n as usize);
        for u in 0..n {
            for j in 1..=(u * 7 % 4) {
                b.add_edge(u, (u + j) % n, 0.5);
            }
        }
        let g = b.build().unwrap();
        let mut sorted: Vec<NodeId> = g.nodes().collect();
        sorted.sort_by_key(|&v| (std::cmp::Reverse(g.out_degree(v)), v.0));
        let n = n as usize;
        for k in [0, 1, 10, n - 1, n, n + 5] {
            assert_eq!(top_out_degree(&g, k), sorted[..k.min(n)], "k = {k}");
        }
        assert!(top_out_degree(&comic_graph::GraphBuilder::new(0).build().unwrap(), 3).is_empty());
    }

    #[test]
    fn startup_sweeps_stale_tmp_files() {
        let dir = temp_pool_dir("tmpsweep");
        let stale = dir.join("vanilla-ic-default-coarse.rrseg.tmp");
        std::fs::write(&stale, b"half-written debris").unwrap();
        // Someone else's temp file in the same directory is not debris.
        let unrelated = dir.join("notes.tmp");
        std::fs::write(&unrelated, b"not a spill").unwrap();
        let mut cfg = small_cfg();
        cfg.pool_dir = Some(dir.clone());
        let svc = ComicService::start(cfg).unwrap();
        assert!(!stale.exists(), "stale .rrseg.tmp must be swept at startup");
        assert_eq!(
            std::fs::read(&unrelated).ok().as_deref(),
            Some(&b"not a spill"[..]),
            "an unrelated .tmp must survive the sweep"
        );
        assert_eq!(svc.spill_rejects(), 0, "a swept .tmp is not a reject");
        drop(svc);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn failed_spill_rename_leaves_no_tmp_behind() {
        let dir = temp_pool_dir("renamefail");
        // A *directory* squatting on the spill path makes the rename fail
        // after the temp write succeeded.
        std::fs::create_dir_all(dir.join("vanilla-ic-default-coarse.rrseg")).unwrap();
        let mut cfg = small_cfg();
        cfg.pools = vec![PoolKey::new(SamplerKind::VanillaIc, "default", EpsTier::Coarse).unwrap()];
        cfg.pool_dir = Some(dir.clone());
        let svc = ComicService::start(cfg).unwrap();
        assert_eq!(svc.pool_builds(), 1, "squatted spill path still builds");
        assert!(
            !dir.join("vanilla-ic-default-coarse.rrseg.tmp").exists(),
            "a failed rename must clean up its temp file"
        );
        drop(svc);
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// One removable edge of the served graph, picked deterministically.
    fn first_edge(svc: &ComicService) -> (u32, u32) {
        let g = svc.graph();
        let (_, e) = g.edges().next().expect("fixture graph has edges");
        (e.source.0, e.target.0)
    }

    #[test]
    fn deltas_queue_then_apply_incrementally() {
        let mut cfg = small_cfg();
        cfg.pools = vec![PoolKey::new(SamplerKind::VanillaIc, "default", EpsTier::Coarse).unwrap()];
        let svc = ComicService::start(cfg.clone()).unwrap();
        let key = PoolKey::new(SamplerKind::VanillaIc, "default", EpsTier::Coarse).unwrap();
        let before = svc.pool(&key).unwrap();
        assert!(before.touch_tracked(), "IC pools are touch-tracked");
        let edges_before = svc.graph().num_edges();
        let (s, t) = first_edge(&svc);

        // Queue without applying: nothing changes but the queue depth.
        let resp = svc.handle(&Request::Delta {
            add: vec![],
            remove: vec![(s, t)],
            reweight: vec![],
            apply: false,
        });
        assert_eq!(
            resp,
            Response::Deltas {
                pending: 1,
                applied: 0,
                sets_invalidated: 0,
                sets_regenerated: 0,
                full_rebuilds: 0,
            }
        );
        assert_eq!(svc.graph().num_edges(), edges_before);
        assert_eq!(svc.pool(&key).unwrap().generation(), 0);

        // Apply: the graph compacts, the pool refits incrementally.
        let resp = svc.handle(&Request::Delta {
            add: vec![],
            remove: vec![],
            reweight: vec![],
            apply: true,
        });
        match resp {
            Response::Deltas {
                pending,
                applied,
                sets_invalidated,
                sets_regenerated,
                full_rebuilds,
            } => {
                assert_eq!((pending, applied), (0, 1));
                assert_eq!(sets_invalidated, sets_regenerated);
                assert_eq!(full_rebuilds, 0, "IC pools within bound refit in place");
            }
            other => panic!("expected Deltas, got {other:?}"),
        }
        assert_eq!(svc.graph().num_edges(), edges_before - 1);
        let after = svc.pool(&key).unwrap();
        assert_eq!(after.generation(), 1);
        assert_eq!(after.len(), before.len(), "θ is frozen across the refit");
        assert_eq!(after.seed(), before.seed());
        // No sampling-from-scratch happened: builds stayed at startup's 1.
        assert_eq!(svc.pool_builds(), 1);

        // Determinism: a second instance fed the same deltas lands on
        // byte-identical sketches.
        let svc2 = ComicService::start(cfg).unwrap();
        let resp2 = svc2.handle(&Request::Delta {
            add: vec![],
            remove: vec![(s, t)],
            reweight: vec![],
            apply: true,
        });
        assert!(
            matches!(resp2, Response::Deltas { applied: 1, .. }),
            "{resp2:?}"
        );
        let other = svc2.pool(&key).unwrap();
        assert_eq!(after.store(), other.store());
        assert_eq!(after.coverage_index(), other.coverage_index());

        // And the refitted pool still answers queries.
        let sel = svc.handle(&Request::Select {
            pool: key,
            k: 3,
            selector: None,
            budget: None,
            deadline_ms: None,
        });
        assert!(matches!(sel, Response::Selected { .. }), "{sel:?}");
    }

    #[test]
    fn touch_opaque_pools_and_exceeded_bounds_take_full_rebuilds() {
        // An RR-SIM pool has no touch provenance: a delta apply rebuilds it
        // from scratch while the IC pool refits incrementally.
        let svc = ComicService::start(small_cfg()).unwrap();
        let (s, t) = first_edge(&svc);
        let builds = svc.pool_builds();
        let resp = svc.handle(&Request::Delta {
            add: vec![],
            remove: vec![(s, t)],
            reweight: vec![],
            apply: true,
        });
        match resp {
            Response::Deltas { full_rebuilds, .. } => assert_eq!(full_rebuilds, 1),
            other => panic!("expected Deltas, got {other:?}"),
        }
        assert_eq!(
            svc.pool_builds(),
            builds + 1,
            "only the RR-SIM pool resamples"
        );
        let sim = PoolKey::new(SamplerKind::RrSim, "one-way", EpsTier::Coarse).unwrap();
        assert_eq!(svc.pool(&sim).unwrap().generation(), 1);

        // A zero staleness bound pushes even the IC pool to a full rebuild.
        let mut cfg = small_cfg();
        cfg.pools = vec![PoolKey::new(SamplerKind::VanillaIc, "default", EpsTier::Coarse).unwrap()];
        cfg.max_stale_deltas = 0;
        let svc = ComicService::start(cfg).unwrap();
        let (s, t) = first_edge(&svc);
        let resp = svc.handle(&Request::Delta {
            add: vec![],
            remove: vec![(s, t)],
            reweight: vec![],
            apply: true,
        });
        match resp {
            Response::Deltas {
                full_rebuilds,
                sets_regenerated,
                ..
            } => {
                assert_eq!(full_rebuilds, 1, "bound exceeded forces a rebuild");
                assert_eq!(sets_regenerated, 0);
            }
            other => panic!("expected Deltas, got {other:?}"),
        }
    }

    #[test]
    fn conflicting_or_out_of_range_deltas_are_typed_and_dropped() {
        let mut cfg = small_cfg();
        cfg.pools = vec![PoolKey::new(SamplerKind::VanillaIc, "default", EpsTier::Coarse).unwrap()];
        let svc = ComicService::start(cfg).unwrap();
        // Out-of-range node: rejected before queueing.
        let resp = svc.handle(&Request::Delta {
            add: vec![(0, 4_000_000, 0.5)],
            remove: vec![],
            reweight: vec![],
            apply: false,
        });
        assert!(
            matches!(
                resp,
                Response::Error {
                    code: ErrorCode::BadQuery,
                    ..
                }
            ),
            "{resp:?}"
        );
        assert_eq!(svc.pending_delta_count(), 0);
        // A conflicting batch (removing an absent edge) is dropped whole —
        // the queue does not keep poison around for the next apply.
        let g = svc.graph();
        let absent = (0..g.num_nodes() as u32)
            .flat_map(|s| (0..g.num_nodes() as u32).map(move |t| (s, t)))
            .find(|&(s, t)| s != t && !g.out_edges(NodeId(s)).any(|adj| adj.node == NodeId(t)))
            .expect("fixture graph is not complete");
        let resp = svc.handle(&Request::Delta {
            add: vec![],
            remove: vec![absent],
            reweight: vec![],
            apply: true,
        });
        match resp {
            Response::Error { code, message } => {
                assert_eq!(code, ErrorCode::BadQuery);
                assert!(message.contains("delta batch dropped"), "{message}");
            }
            other => panic!("expected Error, got {other:?}"),
        }
        assert_eq!(svc.pending_delta_count(), 0, "poison batch is gone");
        assert_eq!(svc.deltas_applied(), 0);
        assert_eq!(svc.pool(&cfg_key()).unwrap().generation(), 0);
    }

    #[test]
    fn a_self_loop_add_is_refused_before_it_reaches_the_queue() {
        let mut cfg = small_cfg();
        cfg.pools = vec![cfg_key()];
        let svc = ComicService::start(cfg).unwrap();
        let (s, t) = first_edge(&svc);
        // One client queues a valid removal without applying it.
        let queued = svc.handle(&Request::Delta {
            add: vec![],
            remove: vec![(s, t)],
            reweight: vec![],
            apply: false,
        });
        assert!(
            matches!(queued, Response::Deltas { pending: 1, .. }),
            "{queued:?}"
        );
        // Another queues a self-loop add: refused, the queue untouched.
        let refused = svc.handle(&Request::Delta {
            add: vec![(3, 3, 0.5)],
            remove: vec![],
            reweight: vec![],
            apply: false,
        });
        match refused {
            Response::Error { code, message } => {
                assert_eq!(code, ErrorCode::BadQuery);
                assert!(message.contains("self-loop on node 3"), "{message}");
            }
            other => panic!("expected Error, got {other:?}"),
        }
        assert_eq!(svc.pending_delta_count(), 1);
        // A third applies the queue: the first client's removal lands.
        let applied = svc.handle(&Request::Delta {
            add: vec![],
            remove: vec![],
            reweight: vec![],
            apply: true,
        });
        assert!(
            matches!(
                applied,
                Response::Deltas {
                    pending: 0,
                    applied: 1,
                    ..
                }
            ),
            "{applied:?}"
        );
        assert_eq!(svc.deltas_applied(), 1);
        assert!(!svc.graph().has_edge(NodeId(s), NodeId(t)));
    }

    fn cfg_key() -> PoolKey {
        PoolKey::new(SamplerKind::VanillaIc, "default", EpsTier::Coarse).unwrap()
    }

    #[test]
    fn misconfigured_pools_fail_startup_loudly() {
        // Unknown preset.
        let mut cfg = small_cfg();
        cfg.pools = vec![PoolKey::new(SamplerKind::VanillaIc, "nope", EpsTier::Coarse).unwrap()];
        let err = ComicService::start(cfg).unwrap_err().to_string();
        assert!(err.contains("nope") && err.contains("preset"), "{err}");
        // Regime mismatch: RR-CIM on the raw dataset gap (q_B|A ≠ 1).
        let mut cfg = small_cfg();
        cfg.pools = vec![PoolKey::new(SamplerKind::RrCim, "default", EpsTier::Coarse).unwrap()];
        let err = ComicService::start(cfg).unwrap_err().to_string();
        assert!(err.contains("RR-CIM"), "{err}");
        // Unknown dataset.
        let err = ComicService::start(ServeConfig::new("no-such-dataset"))
            .unwrap_err()
            .to_string();
        assert!(err.contains("no-such-dataset"), "{err}");
    }

    #[test]
    fn warm_queries_never_rebuild_pools() {
        let svc = ComicService::start(small_cfg()).unwrap();
        let builds = svc.pool_builds();
        let key = "vanilla-ic/default/coarse";
        for line in [
            format!("{{\"op\":\"select\",\"pool\":\"{key}\",\"k\":5}}"),
            format!("{{\"op\":\"select\",\"pool\":\"{key}\",\"k\":3,\"selector\":\"naive\",\"budget\":500}}"),
            format!("{{\"op\":\"estimate\",\"pool\":\"{key}\",\"seeds\":[0,1,2]}}"),
        ] {
            let resp = svc.handle_line(&line);
            assert!(resp.to_line().contains("\"ok\":true"), "{line}");
        }
        assert_eq!(svc.pool_builds(), builds, "warm queries must not sample");
    }

    #[test]
    fn select_answers_match_a_cold_pipeline_over_the_same_pool() {
        let svc = ComicService::start(small_cfg()).unwrap();
        let key = PoolKey::new(SamplerKind::RrSim, "one-way", EpsTier::Coarse).unwrap();
        let pool = svc.pool(&key).unwrap();
        let cold = RisPipeline::new(TimConfig::new(5).threads(1))
            .run_on_pool(&pool)
            .unwrap();
        let resp = svc.handle(&Request::Select {
            pool: key,
            k: 5,
            selector: None,
            budget: None,
            deadline_ms: None,
        });
        match resp {
            Response::Selected {
                seeds,
                covered,
                est_spread,
                consulted,
                warm,
                ..
            } => {
                let cold_seeds: Vec<u32> = cold.seeds.iter().map(|s| s.0).collect();
                assert_eq!(seeds, cold_seeds);
                assert_eq!(covered, cold.covered);
                assert_eq!(est_spread, cold.est_spread);
                assert_eq!(consulted, pool.len() as u64);
                assert!(warm);
            }
            other => panic!("expected Selected, got {other:?}"),
        }
    }

    #[test]
    fn refresh_advances_the_generation_deterministically() {
        let svc = ComicService::start(small_cfg()).unwrap();
        let key = PoolKey::new(SamplerKind::VanillaIc, "default", EpsTier::Coarse).unwrap();
        let g0 = svc.pool(&key).unwrap();
        let meta = svc.refresh(&key).unwrap();
        assert_eq!(meta.generation, 1);
        let g1 = svc.pool(&key).unwrap();
        assert_eq!(g1.generation(), 1);
        // Different generation, different (deterministic) stream.
        assert_ne!(g0.seed(), g1.seed());
        // A second instance refreshed the same way lands on identical bytes.
        let svc2 = ComicService::start(small_cfg()).unwrap();
        svc2.refresh(&key).unwrap();
        let h1 = svc2.pool(&key).unwrap();
        assert_eq!(g1.seed(), h1.seed());
        assert_eq!(g1.len(), h1.len());
        assert!((0..g1.len()).all(|i| g1.store().set(i) == h1.store().set(i)));
        // Unknown keys refresh to a typed error.
        let missing = PoolKey::new(SamplerKind::RrCim, "cim", EpsTier::Fine).unwrap();
        assert!(svc.refresh(&missing).is_err());
    }

    #[test]
    fn shutdown_refuses_new_queries_but_answers_control_ops() {
        let svc = ComicService::start(small_cfg()).unwrap();
        assert_eq!(svc.handle(&Request::Shutdown), Response::ShuttingDown);
        assert!(svc.is_draining());
        let resp = svc.handle(&Request::Select {
            pool: PoolKey::new(SamplerKind::VanillaIc, "default", EpsTier::Coarse).unwrap(),
            k: 1,
            selector: None,
            budget: None,
            deadline_ms: None,
        });
        assert!(matches!(
            resp,
            Response::Error {
                code: ErrorCode::ShuttingDown,
                ..
            }
        ));
        assert_eq!(svc.handle(&Request::Ping), Response::Pong);
        svc.drain(); // nothing in flight: returns immediately
    }

    #[test]
    fn bad_queries_are_typed_errors() {
        let svc = ComicService::start(small_cfg()).unwrap();
        let key = PoolKey::new(SamplerKind::VanillaIc, "default", EpsTier::Coarse).unwrap();
        // k larger than the graph.
        let resp = svc.handle(&Request::Select {
            pool: key.clone(),
            k: 10_000_000,
            selector: None,
            budget: None,
            deadline_ms: None,
        });
        assert!(matches!(
            resp,
            Response::Error {
                code: ErrorCode::BadQuery,
                ..
            }
        ));
        // Seed out of range.
        let resp = svc.handle(&Request::Estimate {
            pool: key,
            seeds: vec![4_000_000],
            budget: None,
            deadline_ms: None,
        });
        assert!(matches!(
            resp,
            Response::Error {
                code: ErrorCode::BadQuery,
                ..
            }
        ));
        // Unknown pool.
        let resp = svc.handle(&Request::Estimate {
            pool: PoolKey::new(SamplerKind::RrCim, "cim", EpsTier::Fine).unwrap(),
            seeds: vec![0],
            budget: None,
            deadline_ms: None,
        });
        assert!(matches!(
            resp,
            Response::Error {
                code: ErrorCode::UnknownPool,
                ..
            }
        ));
    }

    #[test]
    fn refresh_backoff_is_deterministic_and_capped() {
        let every = Duration::from_millis(100);
        // No failures: exactly the base period, no jitter.
        assert_eq!(refresh_backoff(every, 0, 7, 3), every);
        // Same inputs, same wait; different attempt, different jitter.
        let a = refresh_backoff(every, 2, 7, 3);
        assert_eq!(a, refresh_backoff(every, 2, 7, 3));
        // Multiplier doubles per failure and caps at 32×; jitter < every.
        for failures in 1..=10u32 {
            let w = refresh_backoff(every, failures, 7, 0);
            let mult = 1u32 << failures.min(5);
            assert!(w >= every * mult, "{failures}: {w:?}");
            assert!(w < every * mult + every, "{failures}: {w:?}");
        }
    }

    #[test]
    fn failed_refresh_keeps_serving_and_clears_on_success() {
        let mut cfg = small_cfg();
        cfg.pools = vec![PoolKey::new(SamplerKind::VanillaIc, "default", EpsTier::Coarse).unwrap()];
        // First two refresh attempts fail (one injected error, one injected
        // panic), then the plan is exhausted.
        cfg.faults = FaultPlan::none()
            .seed(9)
            .first(FaultSite::RefreshBuild, 1)
            .first(FaultSite::BuildPanic, 1);
        let svc = ComicService::start(cfg).unwrap();
        let key = PoolKey::new(SamplerKind::VanillaIc, "default", EpsTier::Coarse).unwrap();
        let builds = svc.pool_builds();

        // Attempt 1: injected build error. Old generation keeps serving.
        let err = svc.refresh(&key).unwrap_err().to_line();
        assert!(err.contains("\"error\":\"pool\""), "{err}");
        assert!(err.contains("injected refresh-build failure"), "{err}");
        assert_eq!(svc.pool(&key).unwrap().generation(), 0);

        // Attempt 2: injected panic inside the pipeline — contained, typed.
        let err = svc.refresh(&key).unwrap_err().to_line();
        assert!(err.contains("panicked"), "{err}");
        assert_eq!(svc.pool(&key).unwrap().generation(), 0);

        // Degraded answers say so, with a reason.
        let resp = svc.handle(&Request::Select {
            pool: key.clone(),
            k: 2,
            selector: None,
            budget: None,
            deadline_ms: None,
        });
        let line = resp.to_line();
        assert!(
            line.contains("\"degraded\":true") && line.contains("stale_refresh"),
            "{line}"
        );

        // Stats surface the failure count and the degraded flag.
        match svc.stats() {
            Response::Stats { pools, .. } => {
                assert_eq!(pools[0].refresh_failures, 2);
                assert!(pools[0].degraded);
            }
            other => panic!("expected Stats, got {other:?}"),
        }

        // Attempt 3: the plan is exhausted, refresh succeeds and clears
        // the degraded state.
        let meta = svc.refresh(&key).unwrap();
        assert_eq!(meta.generation, 1);
        let resp = svc.handle(&Request::Select {
            pool: key,
            k: 2,
            selector: None,
            budget: None,
            deadline_ms: None,
        });
        assert!(resp.to_line().contains("\"degraded\":false"));
        // Failed attempts still burned builds? No: the injected error
        // fired before sampling, the panic mid-generate. Only the
        // successful refresh is guaranteed to add exactly one build.
        assert!(svc.pool_builds() > builds);
    }

    #[test]
    fn admission_cap_sheds_with_a_typed_overloaded_error() {
        let mut cfg = small_cfg();
        cfg.pools = vec![PoolKey::new(SamplerKind::VanillaIc, "default", EpsTier::Coarse).unwrap()];
        cfg.max_in_flight = Some(0); // admit nothing: every query sheds
        let svc = ComicService::start(cfg).unwrap();
        let resp = svc.handle(&Request::Select {
            pool: PoolKey::new(SamplerKind::VanillaIc, "default", EpsTier::Coarse).unwrap(),
            k: 1,
            selector: None,
            budget: None,
            deadline_ms: None,
        });
        assert!(matches!(
            resp,
            Response::Error {
                code: ErrorCode::Overloaded,
                ..
            }
        ));
        assert_eq!(svc.shed(), 1);
        match svc.stats() {
            Response::Stats { shed, queries, .. } => {
                assert_eq!(shed, 1);
                assert_eq!(queries, 0, "shed requests are not queries");
            }
            other => panic!("expected Stats, got {other:?}"),
        }
        // Control ops are never shed.
        assert_eq!(svc.handle(&Request::Ping), Response::Pong);
    }

    #[test]
    fn deadline_routing_degrades_deterministically() {
        let mk = || {
            let mut cfg = small_cfg();
            cfg.pools =
                vec![PoolKey::new(SamplerKind::VanillaIc, "default", EpsTier::Coarse).unwrap()];
            cfg.sketch_cost_ns = 1_000_000; // cost model: 1 ms per sketch
            ComicService::start(cfg).unwrap()
        };
        let svc = mk();
        let key = PoolKey::new(SamplerKind::VanillaIc, "default", EpsTier::Coarse).unwrap();
        let len = svc.pool(&key).unwrap().len() as u64;
        assert!(len > 1);
        // A deadline shorter than the full pool's modelled cost: no coarser
        // tier is resident, so the query consults a deadline-sized prefix.
        let d = len / 2;
        let req = Request::Select {
            pool: key.clone(),
            k: 2,
            selector: None,
            budget: None,
            deadline_ms: Some(d),
        };
        let line = svc.handle(&req).to_line();
        assert!(
            line.contains(&format!("\"consulted\":{d}"))
                && line.contains("\"degraded\":true")
                && line.contains("\"degrade_reason\":\"deadline\""),
            "{line}"
        );
        // Routing depends only on config + request: a second instance
        // produces the identical byte string.
        assert_eq!(line, mk().handle(&req).to_line());
        // A generous deadline changes nothing.
        let full = svc.handle(&Request::Select {
            pool: key,
            k: 2,
            selector: None,
            budget: None,
            deadline_ms: Some(len * 10),
        });
        assert!(full.to_line().contains("\"degraded\":false"));
    }

    #[test]
    fn deadline_routing_prefers_a_coarser_resident_tier() {
        let mut cfg = small_cfg();
        cfg.pools = vec![
            PoolKey::new(SamplerKind::VanillaIc, "default", EpsTier::Coarse).unwrap(),
            PoolKey::new(SamplerKind::VanillaIc, "default", EpsTier::Fine).unwrap(),
        ];
        cfg.sketch_cost_ns = 1_000_000; // 1 ms per sketch
        let svc = ComicService::start(cfg).unwrap();
        let coarse = PoolKey::new(SamplerKind::VanillaIc, "default", EpsTier::Coarse).unwrap();
        let fine = PoolKey::new(SamplerKind::VanillaIc, "default", EpsTier::Fine).unwrap();
        let coarse_len = svc.pool(&coarse).unwrap().len() as u64;
        let fine_len = svc.pool(&fine).unwrap().len() as u64;
        if fine_len > coarse_len {
            // Deadline fits the coarse pool but not the fine one: the fine
            // query answers from the coarse tier, flagged degraded.
            let line = svc
                .handle(&Request::Select {
                    pool: fine,
                    k: 2,
                    selector: None,
                    budget: None,
                    deadline_ms: Some(coarse_len),
                })
                .to_line();
            assert!(
                line.contains("vanilla-ic/default/coarse")
                    && line.contains("\"degrade_reason\":\"deadline\""),
                "{line}"
            );
        } else {
            // Both tiers hit the sketch cap (equal sizes): force the
            // prefix path instead and make sure it still degrades.
            let line = svc
                .handle(&Request::Select {
                    pool: fine,
                    k: 2,
                    selector: None,
                    budget: None,
                    deadline_ms: Some(fine_len - 1),
                })
                .to_line();
            assert!(line.contains("\"degrade_reason\":\"deadline\""), "{line}");
        }
    }
}
