//! `paper-solve`: the paper's two problems, SelfInfMax (RR-SIM+) and
//! CompInfMax (RR-CIM), both through the sandwich approximation under
//! Flixster's learned GAP (a mutually complementary `Q⁺` pair).
//!
//! Set-up is loading the generated graph text and assigning
//! weighted-cascade probabilities. The load alternates the two solves at a
//! fixed solver RNG seed, θ cap and Monte-Carlo iteration count; the fixed
//! "other item" seeds are the top-10 out-degree nodes.
//!
//! Main operation: one SelfInfMax solve. Side operation: one CompInfMax
//! solve. Answer quality: the sum of the two solutions' objectives.
//!
//! The traced run replays each solve as the calls it is made of (pool
//! builds with their stages timed, selection, Monte-Carlo evaluation,
//! sandwich pick). The replay follows the solvers' current seeding, which
//! is theirs to change, so it is a timing split only: whether it returns
//! the solver's answer is recorded in the provenance, not checked.

use crate::harness::{peak_rss_mib, timed, Outcome, RunOpts, WorkDir, RECONCILE_REPS, THREADS};
use crate::inputs::{
    dataset_arg, generate_graph, stream_seed, top_out_degree, write_graph, GraphSpec, GRAPH_FILE,
};
use crate::metrics::{beyond, mean, median, rel_err, windowed, Metrics, WINDOWS};
use crate::stages::{generate_timed, Stages};
use comic_algos::sandwich::{solve_sandwich, SandwichCandidate};
use comic_algos::{CompInfMax, RrCimSampler, RrSimPlusSampler, SelfInfMax};
use comic_bench::datasets::{load_with, CacheMode};
use comic_core::seeds::SeedPair;
use comic_core::{Gap, SpreadEstimator};
use comic_graph::{DiGraph, NodeId};
use comic_ris::kpt::kpt_star_with;
use comic_ris::select::SelectorKind;
use comic_ris::tim::{TimConfig, TimResult};
use comic_ris::{RisPipeline, RrSampler};
use rand::rngs::SmallRng;
use rand::{RngExt, SeedableRng};
use std::cell::{Cell, RefCell};
use std::time::{Duration, Instant};

/// The graph instance every run solves on. One instance rather than one
/// per workload seed: the KPT* round at which RR-CIM's estimate stops
/// depends on the instance, and over the generated instances it falls on
/// either side of a round boundary, doubling the CompInfMax cost for some
/// seeds. The workload seed varies the solvers' RNG stream instead.
const GRAPH_INSTANCE: u64 = 1;

/// Flixster's learned GAP `(q_A|∅, q_A|B, q_B|∅, q_B|A)` (paper §7.3).
fn flixster_gap() -> Gap {
    Gap::new(0.88, 0.92, 0.92, 0.96).expect("valid GAP")
}

/// Sizes of one paper-solve run.
#[derive(Clone, Debug)]
pub struct Config {
    /// The graph.
    pub graph: GraphSpec,
    /// Seeds to select.
    pub k: usize,
    /// θ cap of every pool build.
    pub theta_cap: u64,
    /// Monte-Carlo iterations per objective evaluation.
    pub mc_iters: usize,
    /// Loads timed for `setup_s` (the median is reported).
    pub setup_reps: usize,
    /// Size of the fixed "other item" seed set.
    pub other_seeds: usize,
    /// RR-CIM sets sampled on one thread for the memo hit rate (traced
    /// runs).
    pub memo_probe_sets: usize,
}

impl Config {
    /// The benchmark's size.
    pub fn full() -> Config {
        Config {
            graph: GraphSpec {
                n: 10_000,
                edges: 50_000,
                exponent: 2.16,
            },
            k: 50,
            theta_cap: 10_000,
            mc_iters: 300,
            setup_reps: 9,
            other_seeds: 10,
            memo_probe_sets: 5_000,
        }
    }

    /// A seconds-long size for tests.
    pub fn smoke() -> Config {
        Config {
            graph: GraphSpec {
                n: 1_000,
                edges: 5_000,
                exponent: 2.16,
            },
            k: 10,
            theta_cap: 2_000,
            mc_iters: 50,
            setup_reps: 2,
            other_seeds: 10,
            memo_probe_sets: 200,
        }
    }

    fn tim(&self, seed: u64) -> TimConfig {
        // The solvers' own defaults: ε = 0.5, ℓ = 1, CELF.
        TimConfig::new(self.k)
            .epsilon(0.5)
            .seed(seed)
            .selector(SelectorKind::Celf)
            .max_rr_sets(self.theta_cap)
            .threads(THREADS)
    }
}

/// Write the run's input: the graph file (the same for every seed).
pub fn prepare(dir: &std::path::Path, cfg: &Config) -> Result<(), String> {
    let g = generate_graph(&cfg.graph, stream_seed(GRAPH_INSTANCE, "paper-solve/graph"))?;
    write_graph(&dir.join(GRAPH_FILE), &g)
}

/// The solvers' RNG seed for workload seed `seed`: every solve of a run
/// draws the same stream, so repeated solves must return the same seeds.
pub fn solver_seed(seed: u64) -> u64 {
    stream_seed(seed, "paper-solve/solver")
}

/// One solve's answer.
#[derive(Clone, Debug, PartialEq)]
struct Solved {
    seeds: Vec<NodeId>,
    objective: f64,
}

fn solve_self(
    g: &DiGraph,
    others: &[NodeId],
    cfg: &Config,
    rng_seed: u64,
) -> Result<Solved, String> {
    let sol = SelfInfMax::new(g, flixster_gap(), others.to_vec())
        .max_rr_sets(cfg.theta_cap)
        .eval_iterations(cfg.mc_iters)
        .threads(THREADS)
        .solve(cfg.k, &mut SmallRng::seed_from_u64(rng_seed))
        .map_err(|e| format!("SelfInfMax: {e}"))?;
    Ok(Solved {
        seeds: sol.seeds,
        objective: sol.objective,
    })
}

fn solve_comp(
    g: &DiGraph,
    others: &[NodeId],
    cfg: &Config,
    rng_seed: u64,
) -> Result<Solved, String> {
    let sol = CompInfMax::new(g, flixster_gap(), others.to_vec())
        .max_rr_sets(cfg.theta_cap)
        .eval_iterations(cfg.mc_iters)
        .threads(THREADS)
        .solve(cfg.k, &mut SmallRng::seed_from_u64(rng_seed))
        .map_err(|e| format!("CompInfMax: {e}"))?;
    Ok(Solved {
        seeds: sol.seeds,
        objective: sol.objective,
    })
}

/// Spans of the traced solve replays.
#[derive(Debug, Default)]
struct Spans {
    kpt_ms: Vec<f64>,
    theta_ms: Vec<f64>,
    generate_ms: Vec<f64>,
    sets: Vec<f64>,
    members: Vec<f64>,
    select_ms: Vec<f64>,
    mc_ms: Vec<f64>,
    /// `(sets, generate seconds)` per sampler: RR-SIM+ then RR-CIM.
    sim_plus: (f64, f64),
    cim: (f64, f64),
    first_pool: Option<(usize, u64)>,
}

impl Spans {
    /// Build a pool and select from it, as `RisPipeline::run` does.
    fn run_tim<S, F>(
        &mut self,
        cfg: &Config,
        seed: u64,
        factory: F,
        cim: bool,
    ) -> Result<TimResult, String>
    where
        S: RrSampler,
        F: Fn() -> S + Sync,
    {
        let pipe = RisPipeline::new(cfg.tim(seed));
        let st: Stages = generate_timed(&pipe, factory)?;
        let (r, ms) = timed(|| pipe.run_on_pool(&st.pool));
        self.select_ms.push(ms);
        self.kpt_ms.push(st.kpt_ms);
        self.theta_ms.push(st.theta_ms);
        self.generate_ms.push(st.generate_ms);
        let sets = st.pool.len() as f64;
        self.sets.push(sets);
        self.members.push(st.pool.store().total_members() as f64);
        let slot = if cim {
            &mut self.cim
        } else {
            &mut self.sim_plus
        };
        slot.0 += sets;
        slot.1 += st.generate_ms / 1e3;
        self.first_pool
            .get_or_insert((st.pool.len(), st.pool.store().total_members()));
        r.map_err(|e| format!("selection: {e}"))
    }

    fn mc<T>(&mut self, f: impl FnOnce() -> T) -> T {
        let (v, ms) = timed(f);
        self.mc_ms.push(ms);
        v
    }
}

/// `SelfInfMax::solve` under a sandwich GAP, replayed call by call.
fn replay_self(
    g: &DiGraph,
    others: &[NodeId],
    cfg: &Config,
    rng_seed: u64,
    sp: &mut Spans,
) -> Result<Solved, String> {
    let gap = flixster_gap();
    let seed: u64 = SmallRng::seed_from_u64(rng_seed).random();
    let nu_gap = gap.with_q_b0(gap.q_ba).map_err(|e| e.to_string())?;
    let mu_gap = gap.with_q_ba(gap.q_b0).map_err(|e| e.to_string())?;
    let f_nu = RrSimPlusSampler::factory(g, nu_gap, others).map_err(|e| e.to_string())?;
    let tim_nu = sp.run_tim(cfg, seed, f_nu, false)?;
    let f_mu = RrSimPlusSampler::factory(g, mu_gap, others).map_err(|e| e.to_string())?;
    let tim_mu = sp.run_tim(cfg, seed ^ 2, f_mu, false)?;
    let mut sigma = |gap: Gap, seeds: &[NodeId], s: u64| {
        let pair = SeedPair::new(seeds.to_vec(), others.to_vec());
        sp.mc(|| {
            SpreadEstimator::new(g, gap)
                .estimate_parallel(&pair, cfg.mc_iters, s, THREADS)
                .sigma_a
        })
    };
    let candidates = vec![
        SandwichCandidate {
            name: "nu",
            objective: sigma(gap, &tim_nu.seeds, seed ^ 3),
            seeds: tim_nu.seeds.clone(),
        },
        SandwichCandidate {
            name: "mu",
            objective: sigma(gap, &tim_mu.seeds, seed ^ 3),
            seeds: tim_mu.seeds.clone(),
        },
    ];
    let nu_value = sigma(nu_gap, &tim_nu.seeds, seed ^ 4);
    let ratio = if nu_value > 0.0 {
        candidates[0].objective / nu_value
    } else {
        1.0
    };
    let sol = solve_sandwich(candidates, ratio, vec![("nu", tim_nu), ("mu", tim_mu)]);
    Ok(Solved {
        seeds: sol.seeds,
        objective: sol.objective,
    })
}

/// `CompInfMax::solve` under a sandwich GAP, replayed call by call.
fn replay_comp(
    g: &DiGraph,
    others: &[NodeId],
    cfg: &Config,
    rng_seed: u64,
    sp: &mut Spans,
) -> Result<Solved, String> {
    let gap = flixster_gap();
    let seed: u64 = SmallRng::seed_from_u64(rng_seed).random();
    let nu_gap = gap.with_q_ba(1.0).map_err(|e| e.to_string())?;
    let f_nu = RrCimSampler::factory(g, nu_gap, others).map_err(|e| e.to_string())?;
    let tim_nu = sp.run_tim(cfg, seed, f_nu, true)?;
    let mut boost = |gap: Gap, seeds: &[NodeId], s: u64| {
        let pair = SeedPair::new(others.to_vec(), seeds.to_vec());
        sp.mc(|| SpreadEstimator::new(g, gap).estimate_boost(&pair, cfg.mc_iters, s, THREADS))
    };
    let candidates = vec![SandwichCandidate {
        name: "nu",
        objective: boost(gap, &tim_nu.seeds, seed ^ 3),
        seeds: tim_nu.seeds.clone(),
    }];
    let nu_value = boost(nu_gap, &tim_nu.seeds, seed ^ 4);
    let ratio = if nu_value > 0.0 {
        candidates[0].objective / nu_value
    } else {
        1.0
    };
    let sol = solve_sandwich(candidates, ratio, vec![("nu", tim_nu)]);
    Ok(Solved {
        seeds: sol.seeds,
        objective: sol.objective,
    })
}

/// A solver entry point: graph, other item's seeds, sizes, RNG seed.
type SolveFn = dyn Fn(&DiGraph, &[NodeId], &Config, u64) -> Result<Solved, String>;
/// Its call-by-call replay, recording spans.
type ReplayFn = dyn Fn(&DiGraph, &[NodeId], &Config, u64, &mut Spans) -> Result<Solved, String>;

/// SelfInfMax solves per CompInfMax solve: the SelfInfMax solve is about a
/// tenth of the cost, and its p90 needs the samples.
const SELF_PER_COMP: usize = 3;

/// One timed solve, and in traced runs its call-by-call replay right
/// after it (same load, same answer expected).
#[derive(Debug)]
struct Solve {
    ms: f64,
    /// Seconds from the start of the loop to the end of the solve (and
    /// its replay).
    done_s: f64,
    answer: Solved,
    /// Replay wall time, the sum of its spans, and its answer.
    replay: Option<(f64, f64, Solved)>,
}

/// Alternate [`SELF_PER_COMP`] runs of `self_op` with one of `comp_op`
/// until `phase` has passed and `comp_op` has run at least `min_comp`
/// times. Returns the solves of each and the wall time in seconds.
fn alternate(
    phase: Duration,
    min_comp: usize,
    mut self_op: impl FnMut() -> Result<Solve, String>,
    mut comp_op: impl FnMut() -> Result<Solve, String>,
) -> Result<(Vec<Solve>, Vec<Solve>, f64), String> {
    let t0 = Instant::now();
    let (mut selfs, mut comps) = (Vec::new(), Vec::new());
    let stamped = |mut s: Solve| {
        s.done_s = t0.elapsed().as_secs_f64();
        s
    };
    while t0.elapsed() < phase || comps.len() < min_comp {
        for _ in 0..SELF_PER_COMP {
            selfs.push(stamped(self_op()?));
        }
        comps.push(stamped(comp_op()?));
    }
    Ok((selfs, comps, t0.elapsed().as_secs_f64()))
}

/// End-to-end metrics of the solves, timed by `time` (the untraced solve
/// or its traced replay), each the median of its value per time window,
/// and solves completed per second of `busy_s`. A run holds too few solves
/// for a tail estimate either way; a p90 over the whole phase would be its
/// slowest solve, which one burst of host contention sets.
fn solve_metrics(
    selfs: &[Solve],
    comps: &[Solve],
    wall_s: f64,
    busy_s: f64,
    time: impl Fn(&Solve) -> f64,
    m: &mut Metrics,
) {
    let s_ms: Vec<(f64, f64)> = selfs.iter().map(|s| (s.done_s, time(s))).collect();
    let c_ms: Vec<(f64, f64)> = comps.iter().map(|s| (s.done_s, time(s))).collect();
    m.set("main_p50_ms", windowed(&s_ms, wall_s, 0.5));
    m.set("main_p90_ms", windowed(&s_ms, wall_s, 0.9));
    m.set("side_p50_ms", windowed(&c_ms, wall_s, 0.5));
    m.set(
        "ops_per_s",
        (selfs.len() + comps.len()) as f64 / busy_s.max(1e-9),
    );
}

/// Run the workload.
pub fn run(cfg: &Config, opts: &RunOpts) -> Result<Outcome, String> {
    let work = WorkDir::create(&opts.work_root, "paper-solve", opts.seed)?;
    let dir = work.path();
    prepare(dir, cfg)?;
    let rng_seed = solver_seed(opts.seed);
    let arg = dataset_arg(&dir.join(GRAPH_FILE));
    let mut out = Outcome::default();
    out.note_common("paper-solve", opts);
    out.note("client_threads", 1);
    out.note("k", cfg.k);
    out.note("theta_cap", cfg.theta_cap);
    out.note("mc_iters", cfg.mc_iters);

    // Set-up: parse the text and assign probabilities (no cache). A load
    // takes ~15 ms, so loads run back to back all fall in the same moment
    // of host contention: one more is timed after every solve, and the
    // median spans the whole run.
    let mut setup_ms = Vec::with_capacity(cfg.setup_reps);
    let mut loaded = None;
    for _ in 0..cfg.setup_reps.max(1) {
        drop(loaded.take());
        let (l, ms) = timed(|| load_with(&arg, CacheMode::Off));
        loaded = Some(l.map_err(|e| format!("load: {e}"))?);
        setup_ms.push(ms);
    }
    let g = loaded.expect("at least one load").graph;
    let rss_setup = peak_rss_mib();
    out.note_graph(&g);
    let setup_ms = RefCell::new(setup_ms);
    let others = top_out_degree(&g, cfg.other_seeds);

    // One untimed solve first, so timing starts with the allocator and
    // page tables warm.
    solve_self(&g, &others, cfg, rng_seed)?;
    let peak_untraced = peak_rss_mib();
    let spans = RefCell::new(Spans::default());
    let count = Cell::new(0usize);
    // One solve, and in traced runs its replay, in alternating order so
    // neither always runs on the caches the other warmed.
    let paired = |solve: &SolveFn, replay: &ReplayFn| -> Result<Solve, String> {
        count.set(count.get() + 1);
        let untraced = || timed(|| solve(&g, &others, cfg, rng_seed));
        let traced = || {
            let mut sp = spans.borrow_mut();
            let before = sp.total_ms();
            let (r, t) = timed(|| replay(&g, &others, cfg, rng_seed, &mut sp));
            r.map(|r| (t, sp.total_ms() - before, r))
        };
        let ((answer, ms), replay) = match (opts.trace, count.get().is_multiple_of(2)) {
            (false, _) => (untraced(), None),
            (true, true) => {
                let u = untraced();
                (u, Some(traced()?))
            }
            (true, false) => {
                let r = traced()?;
                (untraced(), Some(r))
            }
        };
        let (l, load_ms) = timed(|| load_with(&arg, CacheMode::Off));
        drop(l.map_err(|e| format!("load: {e}"))?);
        setup_ms.borrow_mut().push(load_ms);
        Ok(Solve {
            ms,
            done_s: 0.0,
            answer: answer?,
            replay,
        })
    };
    let (selfs, comps, wall_s) = alternate(
        Duration::from_secs_f64(opts.seconds),
        2,
        || paired(&solve_self, &replay_self),
        || paired(&solve_comp, &replay_comp),
    )?;
    // Every repeat of a solve at the same RNG seed returns the same
    // answer. Whether each replay returned its solve's answer is noted.
    for (name, runs) in [("SelfInfMax", &selfs), ("CompInfMax", &comps)] {
        for (i, s) in runs.iter().enumerate() {
            out.tally.op(s.answer == runs[0].answer, || {
                format!("{name} repeat {i} differs from the first solve")
            });
        }
    }
    if opts.trace {
        for (key, runs) in [
            ("replay_matches_self", &selfs),
            ("replay_matches_comp", &comps),
        ] {
            let same = runs
                .iter()
                .all(|s| s.replay.as_ref().is_none_or(|r| r.2 == s.answer));
            out.note(key, same);
        }
    }
    // Untraced runs spend the whole loop solving; traced runs interleave
    // replays, so their rate is taken over the solves' own time.
    let solve_s =
        |time: &dyn Fn(&Solve) -> f64| selfs.iter().chain(&comps).map(time).sum::<f64>() / 1e3;
    let busy_s = if opts.trace {
        solve_s(&|s| s.ms)
    } else {
        wall_s
    };
    let mut e2e = Metrics::default();
    solve_metrics(&selfs, &comps, wall_s, busy_s, |s| s.ms, &mut e2e);
    let setup_ms = setup_ms.into_inner();
    e2e.set("setup_s", median(&setup_ms) / 1e3);
    out.note("setup_samples", setup_ms.len());
    let quality = selfs[0].answer.objective + comps[0].answer.objective;
    e2e.set("answer_quality", quality);
    e2e.set(
        "peak_rss_mb",
        if opts.trace {
            peak_untraced
        } else {
            peak_rss_mib()
        },
    );
    out.note("main_samples", selfs.len());
    // Per window, where the p90 is taken.
    out.note("main_p90_beyond", beyond(selfs.len() / WINDOWS, 0.9));
    out.note("side_samples", comps.len());
    out.note("objective_self", selfs[0].answer.objective);
    out.note("objective_comp", comps[0].answer.objective);

    if opts.trace {
        let mut traced = e2e.clone();
        let replay_ms = |s: &Solve| s.replay.as_ref().map_or(s.ms, |r| r.0);
        solve_metrics(
            &selfs,
            &comps,
            wall_s,
            solve_s(&replay_ms),
            replay_ms,
            &mut traced,
        );
        let sp = spans.into_inner();
        let layers = &mut out.layers;
        layers.set("kpt.ms", mean(&sp.kpt_ms));
        layers.set("theta.sets", mean(&sp.sets));
        layers.set("generate.ms", mean(&sp.generate_ms));
        layers.set("generate.sets", mean(&sp.sets));
        layers.set("generate.members", mean(&sp.members));
        let gen_s: f64 = sp.generate_ms.iter().sum::<f64>() / 1e3;
        layers.set(
            "generate.members_per_s",
            sp.members.iter().sum::<f64>() / gen_s.max(1e-9),
        );
        layers.set("select.celf_k50_ms", mean(&sp.select_ms));
        layers.set("mc.eval_ms", mean(&sp.mc_ms));
        layers.set(
            "sampler.rr_sim_plus.sets_per_s",
            sp.sim_plus.0 / sp.sim_plus.1.max(1e-9),
        );
        layers.set("sampler.rr_cim.sets_per_s", sp.cim.0 / sp.cim.1.max(1e-9));
        if let Some((sets, members)) = sp.first_pool {
            layers.set("pool.sketches", sets as f64);
            layers.set("pool.members", members as f64);
        }
        // The replayed spans of each SelfInfMax solve against the solve.
        let span_ms: Vec<f64> = selfs
            .iter()
            .filter_map(|s| s.replay.as_ref().map(|r| r.1))
            .collect();
        let solve_ms: Vec<f64> = selfs.iter().map(|s| s.ms).collect();
        layers.set(
            "reconcile.main_err",
            rel_err(median(&span_ms), median(&solve_ms)),
        );

        // KPT* samples an RR-SIM+ build draws (the estimator run once
        // more at the builds' k and ℓ, under the benchmark's own seed; the
        // pipeline does not report the count), and the RR-CIM memo hit
        // rate of one sampler on one thread.
        let gap = flixster_gap();
        let nu_gap = gap.with_q_b0(gap.q_ba).map_err(|e| e.to_string())?;
        let f = RrSimPlusSampler::factory(&g, nu_gap, &others).map_err(|e| e.to_string())?;
        let kpt_seed = stream_seed(opts.seed, "paper-solve/kpt");
        let kpt = kpt_star_with(f, cfg.k, cfg.tim(0).ell, kpt_seed, THREADS);
        layers.set("kpt.samples", kpt.samples as f64);
        let cim_gap = gap.with_q_ba(1.0).map_err(|e| e.to_string())?;
        let mut sampler =
            RrCimSampler::new(&g, cim_gap, others.clone()).map_err(|e| e.to_string())?;
        let mut rng = SmallRng::seed_from_u64(stream_seed(opts.seed, "paper-solve/memo"));
        let mut members = Vec::new();
        for _ in 0..cfg.memo_probe_sets {
            let root = NodeId(rng.random_range(0..g.num_nodes() as u32));
            sampler.sample(root, &mut rng, &mut members);
        }
        layers.set(
            "sampler.rr_cim.memo_hit_frac",
            sampler.memo_stats().hit_rate(),
        );

        // Set-up is one layer call: each traced load next to an untraced
        // one.
        let (mut plain_ms, mut load_ms) = (vec![], vec![]);
        for _ in 0..RECONCILE_REPS {
            for times in [&mut plain_ms, &mut load_ms] {
                let (l, ms) = timed(|| load_with(&arg, CacheMode::Off));
                l.map_err(|e| format!("load: {e}"))?;
                times.push(ms);
            }
        }
        layers.set("datasets.load_ms", median(&load_ms));
        layers.set(
            "reconcile.setup_err",
            rel_err(median(&load_ms), median(&plain_ms)),
        );
        let mut untraced = e2e.clone();
        untraced.set("setup_s", median(&plain_ms) / 1e3);
        traced.set("setup_s", median(&load_ms) / 1e3);
        layers.set("rss.setup_mb", rss_setup);
        traced.set("peak_rss_mb", peak_rss_mib());
        out.layers.set_overheads(&untraced, &traced);
    }
    out.e2e = e2e;
    Ok(out)
}

impl Spans {
    /// Milliseconds spent in every recorded span so far.
    fn total_ms(&self) -> f64 {
        [
            &self.kpt_ms,
            &self.theta_ms,
            &self.generate_ms,
            &self.select_ms,
            &self.mc_ms,
        ]
        .iter()
        .map(|xs| xs.iter().sum::<f64>())
        .sum()
    }
}
