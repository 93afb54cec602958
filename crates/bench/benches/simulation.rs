//! Criterion: Monte-Carlo diffusion throughput — the engine behind every
//! spread evaluation in the paper's tables (10K simulations each) and
//! behind the sandwich solvers' candidate scoring.
//!
//! The `simulation_comparison` section runs at perfbench paper-solve's
//! shape: a Chung–Lu graph (n = 10k, ~50k edges, exponent 2.16, weighted
//! cascade), Flixster's learned GAP, the top-10 out-degree nodes as B-seeds
//! and the next 50 as A-seeds (n = 1k and 10 + 10 seeds under
//! `COMIC_BENCH_QUICK`). Its rows, each the median of 9 calls (one under
//! quick mode):
//!
//! - `cascade/coin`, `cascade/world`: one [`CascadeEngine::run`] under the
//!   coin and the possible-world oracle (a call runs a batch; `secs` is per
//!   cascade);
//! - `estimate/1t`, `estimate/2t`: a 300-iteration
//!   [`SpreadEstimator::estimate_parallel`] at 1 and 2 threads;
//! - `surrogates/sequential`: SelfInfMax's ν and μ RR-SIM+ pool builds one
//!   after the other at 2 threads each; `surrogates/join`: the same two
//!   builds through [`comic_graph::par::join`] under a budget of 2, as
//!   `SelfInfMax::solve` runs them. Both give the same results (asserted).
//!
//! `COMIC_BENCH_JSON=$PWD/BENCH_simulation.json cargo bench -p comic-bench
//! --bench simulation`, run from the repository root, writes the committed
//! snapshot; `comic-serve-load --validate` gates its ratios.

use comic_algos::RrSimPlusSampler;
use comic_bench::runtime::timed;
use comic_core::oracle::CoinOracle;
use comic_core::possible_world::WorldOracle;
use comic_core::seeds::SeedPair;
use comic_core::simulate::CascadeEngine;
use comic_core::{Gap, SpreadEstimator};
use comic_graph::gen::{chung_lu_par, ChungLuConfig, ParGen};
use comic_graph::par::{join, resolve_threads};
use comic_graph::prob::ProbModel;
use comic_graph::{DiGraph, NodeId};
use comic_ris::select::SelectorKind;
use comic_ris::tim::{TimConfig, TimResult};
use comic_ris::RisPipeline;
use criterion::{criterion_group, criterion_main, Criterion};
use rand::rngs::SmallRng;
use rand::SeedableRng;
use std::hint::black_box;

/// Seed of the paper-solve-shaped graph.
const GRAPH_SEED: u64 = 0x5A4D;

/// Flixster's learned GAP `(q_A|∅, q_A|B, q_B|∅, q_B|A)` (paper §7.3), as
/// perfbench paper-solve uses it.
fn flixster_gap() -> Gap {
    Gap::new(0.88, 0.92, 0.92, 0.96).expect("valid GAP")
}

/// The graph and seed pair: B-seeds are the top `b` out-degree nodes, the
/// A-seeds the next `a`.
fn workload(quick: bool) -> (DiGraph, SeedPair) {
    let (n, target_edges, a, b) = if quick {
        (1_000, 5_000, 10, 10)
    } else {
        (10_000, 50_000, 50, 10)
    };
    let topology = chung_lu_par(
        &ChungLuConfig {
            n,
            target_edges,
            exponent: 2.16,
        },
        &ParGen::with_threads(GRAPH_SEED, 2),
    )
    .expect("Chung–Lu generation");
    let g = ProbModel::WeightedCascade.apply(&topology, &mut SmallRng::seed_from_u64(GRAPH_SEED));
    let mut by_degree: Vec<NodeId> = g.nodes().collect();
    by_degree.sort_by_key(|&v| (std::cmp::Reverse(g.out_degree(v)), v.0));
    let sp = SeedPair::new(by_degree[b..a + b].to_vec(), by_degree[..b].to_vec());
    (g, sp)
}

fn bench_simulation(c: &mut Criterion) {
    let (g, sp) = workload(criterion::quick_mode());
    let gap = flixster_gap();

    let mut group = c.benchmark_group("simulation");
    group.sample_size(20);

    group.bench_function("comic_coin_oracle", |b| {
        let mut engine = CascadeEngine::new(&g);
        let mut oracle = CoinOracle::new(g.num_edges(), SmallRng::seed_from_u64(1));
        b.iter(|| black_box(engine.run(&gap, &sp, &mut oracle)));
    });

    group.bench_function("comic_world_oracle", |b| {
        let mut engine = CascadeEngine::new(&g);
        let mut oracle = WorldOracle::new(g.num_nodes(), g.num_edges(), SmallRng::seed_from_u64(2));
        b.iter(|| black_box(engine.run(&gap, &sp, &mut oracle)));
    });

    group.bench_function("classic_ic", |b| {
        let mut sim = comic_core::ic::IcSimulator::new(&g);
        let mut rng = SmallRng::seed_from_u64(3);
        b.iter(|| black_box(sim.run(&sp.a, &mut rng)));
    });

    group.bench_function("pure_competition", |b| {
        let mut engine = CascadeEngine::new(&g);
        let mut oracle = CoinOracle::new(g.num_edges(), SmallRng::seed_from_u64(4));
        let cgap = Gap::competitive_ic();
        b.iter(|| black_box(engine.run(&cgap, &sp, &mut oracle)));
    });

    group.finish();
}

/// One row of the snapshot: the median wall-clock seconds of its calls.
struct Run {
    label: &'static str,
    threads: usize,
    secs: f64,
}

/// Call `f` `reps` times, asserting that every call returns the first
/// call's result; returns that result and the median wall-clock seconds.
fn median_timed<T: PartialEq>(reps: usize, what: &str, mut f: impl FnMut() -> T) -> (T, f64) {
    let (first, s) = timed(&mut f);
    let mut secs = vec![s];
    for _ in 1..reps {
        let (out, s) = timed(&mut f);
        assert!(
            out == first,
            "{what}: a repeated call returned a different result"
        );
        secs.push(s);
    }
    secs.sort_by(f64::total_cmp);
    (first, secs[secs.len() / 2])
}

/// The parts of a pool build a solver reads, with KPT* as bits.
fn tim_key(r: &TimResult) -> (Vec<NodeId>, u64, u64, u64) {
    (r.seeds.clone(), r.theta, r.kpt.to_bits(), r.covered)
}

/// One SelfInfMax surrogate build: RR-SIM+ under `gap` at `threads`
/// workers, with the solver's defaults and paper-solve's θ cap.
fn surrogate(
    g: &DiGraph,
    gap: Gap,
    b_seeds: &[NodeId],
    k: usize,
    seed: u64,
    threads: usize,
) -> TimResult {
    let cfg = TimConfig::new(k)
        .epsilon(0.5)
        .seed(seed)
        .selector(SelectorKind::Celf)
        .max_rr_sets(10_000)
        .threads(threads);
    RisPipeline::new(cfg)
        .run(RrSimPlusSampler::factory(g, gap, b_seeds).expect("valid RR-SIM+ set-up"))
        .expect("pool build")
}

fn bench_simulation_comparison(c: &mut Criterion) {
    let mut group = c.benchmark_group("simulation_comparison");
    group.finish();

    let quick = criterion::quick_mode();
    let reps: usize = if quick { 1 } else { 9 };
    let batch: usize = if quick { 10 } else { 100 };
    let iterations = 300;
    let k = if quick { 10 } else { 50 };
    let (g, sp) = workload(quick);
    let gap = flixster_gap();
    let mut runs = Vec::new();

    let mut engine = CascadeEngine::new(&g);
    let mut coin = CoinOracle::new(g.num_edges(), SmallRng::seed_from_u64(1));
    let (_, secs) = median_timed(reps, "cascade/coin", || {
        (0..batch).for_each(|_| {
            black_box(engine.run(&gap, &sp, &mut coin));
        })
    });
    runs.push(Run {
        label: "cascade/coin",
        threads: 1,
        secs: secs / batch as f64,
    });
    let mut world = WorldOracle::new(g.num_nodes(), g.num_edges(), SmallRng::seed_from_u64(2));
    let (_, secs) = median_timed(reps, "cascade/world", || {
        (0..batch).for_each(|_| {
            black_box(engine.run(&gap, &sp, &mut world));
        })
    });
    runs.push(Run {
        label: "cascade/world",
        threads: 1,
        secs: secs / batch as f64,
    });

    let est = SpreadEstimator::new(&g, gap);
    for (label, threads) in [("estimate/1t", 1), ("estimate/2t", 2)] {
        let (_, secs) = median_timed(reps, label, || {
            est.estimate_parallel(&sp, iterations, 7, threads)
                .sigma_a
                .to_bits()
        });
        runs.push(Run {
            label,
            threads,
            secs,
        });
    }

    let nu = gap.with_q_b0(gap.q_ba).expect("ν GAP");
    let mu = gap.with_q_ba(gap.q_b0).expect("μ GAP");
    let (sequential, secs) = median_timed(reps, "surrogates/sequential", || {
        let a = surrogate(&g, nu, &sp.b, k, 11, 2);
        let b = surrogate(&g, mu, &sp.b, k, 11 ^ 2, 2);
        (tim_key(&a), tim_key(&b))
    });
    runs.push(Run {
        label: "surrogates/sequential",
        threads: 2,
        secs,
    });
    let (joined, secs) = median_timed(reps, "surrogates/join", || {
        let (a, b) = join(
            2,
            |t| surrogate(&g, nu, &sp.b, k, 11, t),
            |t| surrogate(&g, mu, &sp.b, k, 11 ^ 2, t),
        );
        (tim_key(&a), tim_key(&b))
    });
    assert!(
        joined == sequential,
        "the joined builds diverged from the sequential pair"
    );
    runs.push(Run {
        label: "surrogates/join",
        threads: 2,
        secs,
    });

    for r in &runs {
        println!(
            "bench: simulation_comparison/{}/threads={} ... {:.6}s (median of {reps})",
            r.label, r.threads, r.secs
        );
    }

    comic_bench::runtime::write_json_snapshot(
        "simulation",
        &[
            ("host_cores", resolve_threads(0).to_string()),
            (
                "graph",
                format!(
                    "{{ \"model\": \"chung_lu (exponent 2.16) + weighted_cascade\", \"nodes\": {}, \"edges\": {} }}",
                    g.num_nodes(),
                    g.num_edges()
                ),
            ),
            ("gap", format!("\"{gap}\"")),
            ("a_seeds", sp.a.len().to_string()),
            ("b_seeds", sp.b.len().to_string()),
            ("iterations", iterations.to_string()),
            ("k", k.to_string()),
            ("reps", reps.to_string()),
            (
                "note",
                "\"each row is the median wall-clock of reps calls; cascade rows are per cascade (a call runs a batch); estimate rows are one 300-iteration estimate_parallel; surrogates rows build SelfInfMax's nu and mu RR-SIM+ pools (theta cap 10000) one after the other at 2 threads each, or through par::join under a budget of 2 (1 thread each), with identical results (asserted); rows with more threads than host_cores measure oversubscription\"".into(),
            ),
        ],
        &runs
            .iter()
            .map(|r| {
                vec![
                    ("label", format!("\"{}\"", r.label)),
                    ("threads", r.threads.to_string()),
                    ("reps", reps.to_string()),
                    ("host_cores", resolve_threads(0).to_string()),
                    ("secs", format!("{:.6}", r.secs)),
                ]
            })
            .collect::<Vec<_>>(),
    );
}

criterion_group!(benches, bench_simulation, bench_simulation_comparison);
criterion_main!(benches);
