//! Criterion: GeneralTIM end-to-end over growing power-law graphs — the
//! microbenchmark twin of Figure 7(b). The shape to observe is near-linear
//! growth of time with graph size for all three samplers.
//!
//! The `rr_generation` section measures raw RR-set generation throughput
//! (the wall-clock bottleneck of the whole pipeline) of the IC, RR-SIM+ and
//! RR-CIM samplers: the pre-optimization sequential loop (single sampler,
//! per-set `in_degree` width pass) against the sharded generator at 1, 4
//! and all-cores threads. Set
//! `COMIC_BENCH_JSON=<path>` to also write the numbers as a JSON snapshot
//! (committed as `BENCH_rr_generation.json` at the repo root).

use comic_bench::datasets::{bench_source, scalability_series, Dataset};
use comic_bench::exp::common::OppositeMode;
use comic_bench::runtime::timed;
use comic_core::Gap;
use comic_graph::DiGraph;
use comic_ris::parallel::{resolve_threads, ShardedGenerator};
use comic_ris::rr::RrStore;
use comic_ris::sampler::RrSampler;
use comic_ris::tim::{general_tim_with, TimConfig};
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use rand::rngs::SmallRng;
use rand::SeedableRng;
use std::hint::black_box;

fn bench_scalability(c: &mut Criterion) {
    let lg = bench_source(Dataset::Flixster).gap();
    let gap_sim = Gap::new(lg.q_a0, lg.q_ab, lg.q_b0, lg.q_b0).unwrap();
    let gap_cim = Gap::new(lg.q_a0, lg.q_ab, lg.q_b0, 1.0).unwrap();

    let mut group = c.benchmark_group("scalability");
    group.sample_size(10);
    group.warm_up_time(std::time::Duration::from_millis(500));
    group.measurement_time(std::time::Duration::from_secs(8));

    for (n, g) in scalability_series(&[5_000, 10_000, 20_000]) {
        let opposite = OppositeMode::Random100.seeds(&g, 100, 7);
        let cfg = {
            let mut cfg = TimConfig::new(10).epsilon(0.5).seed(1);
            cfg.max_rr_sets = Some(100_000);
            cfg
        };
        group.bench_with_input(BenchmarkId::new("rr_sim_plus", n), &g, |b, g| {
            let factory = comic_algos::RrSimPlusSampler::factory(g, gap_sim, &opposite).unwrap();
            b.iter(|| black_box(general_tim_with(&factory, &cfg).unwrap().covered));
        });
        group.bench_with_input(BenchmarkId::new("rr_cim", n), &g, |b, g| {
            let factory = comic_algos::RrCimSampler::factory(g, gap_cim, &opposite).unwrap();
            b.iter(|| black_box(general_tim_with(&factory, &cfg).unwrap().covered));
        });
    }
    group.finish();
}

/// One throughput measurement of the rr_generation section.
struct GenRate {
    label: String,
    threads: usize,
    secs: f64,
    sets_per_sec: f64,
    members_per_sec: f64,
}

fn rate(label: &str, threads: usize, secs: f64, store: &RrStore) -> GenRate {
    GenRate {
        label: label.to_string(),
        threads,
        secs,
        sets_per_sec: store.len() as f64 / secs,
        members_per_sec: store.total_members() as f64 / secs,
    }
}

/// The pre-optimization generation loop, kept verbatim as the baseline:
/// one sampler, `sample_random` (no width from the BFS), and the
/// width-recomputing `RrStore::push`.
fn baseline_generate<S: RrSampler>(mut sampler: S, g: &DiGraph, theta: u64, seed: u64) -> RrStore {
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut store = RrStore::new();
    let mut out = Vec::new();
    for _ in 0..theta {
        sampler.sample_random(&mut rng, &mut out);
        store.push(&out, g);
    }
    store
}

fn measure_generation<S, F>(
    label: &str,
    factory: F,
    g: &DiGraph,
    theta: u64,
    results: &mut Vec<GenRate>,
) where
    S: RrSampler,
    F: Fn() -> S + Sync,
{
    let (store, secs) = timed(|| baseline_generate(factory(), g, theta, 0xba5e));
    results.push(rate(
        &format!("{label}/baseline_sequential"),
        1,
        secs,
        &store,
    ));
    let max_threads = resolve_threads(0);
    let mut thread_counts = vec![1usize, 4];
    if !thread_counts.contains(&max_threads) {
        thread_counts.push(max_threads);
    }
    for threads in thread_counts {
        let gen = ShardedGenerator::new(&factory, 0x5eed, threads);
        let (store, secs) = timed(|| gen.generate(theta, 8));
        results.push(rate(&format!("{label}/sharded"), threads, secs, &store));
    }
}

fn bench_rr_generation(c: &mut Criterion) {
    // The group exists so the section shows up in criterion's output
    // ordering; the real measurements below need whole-batch wall-clock
    // numbers (for throughput + the JSON snapshot), not per-iter medians.
    let mut group = c.benchmark_group("rr_generation");
    group.finish();

    let quick = criterion::quick_mode();
    let theta: u64 = if quick { 2_000 } else { 1_000_000 };
    let (n, g) = scalability_series(&[20_000]).pop().expect("one size");
    let lg = Dataset::Flixster.learned_gap();
    let gap_sim = Gap::new(lg.q_a0, lg.q_ab, lg.q_b0, lg.q_b0).unwrap();
    let gap_cim = Gap::new(lg.q_a0, lg.q_ab, lg.q_b0, 1.0).unwrap();
    let opposite = OppositeMode::Random100.seeds(&g, 100, 7);

    let mut results: Vec<GenRate> = Vec::new();
    measure_generation(
        "ic",
        || comic_ris::ic_sampler::IcRrSampler::new(&g),
        &g,
        theta,
        &mut results,
    );
    measure_generation(
        "rr_sim_plus",
        || comic_algos::RrSimPlusSampler::new(&g, gap_sim, opposite.clone()).unwrap(),
        &g,
        theta,
        &mut results,
    );
    measure_generation(
        "rr_cim",
        || comic_algos::RrCimSampler::new(&g, gap_cim, opposite.clone()).unwrap(),
        &g,
        theta,
        &mut results,
    );

    for r in &results {
        println!(
            "bench: rr_generation/{}/threads={} ... {:.3}s ({:.0} sets/s, {:.0} members/s)",
            r.label, r.threads, r.secs, r.sets_per_sec, r.members_per_sec
        );
    }

    comic_bench::runtime::write_json_snapshot(
        "rr_generation",
        &[
            ("host_cores", resolve_threads(0).to_string()),
            (
                "graph",
                format!(
                    "{{ \"model\": \"chung_lu(2.16) + weighted_cascade\", \"nodes\": {}, \"edges\": {} }}",
                    n,
                    g.num_edges()
                ),
            ),
            ("theta", theta.to_string()),
            (
                "note",
                "\"shards are fully independent, so throughput scales with physical cores; on a host where host_cores <= threads the extra workers only add oversubscription overhead\"".into(),
            ),
        ],
        &results
            .iter()
            .map(|r| {
                vec![
                    ("label", format!("\"{}\"", r.label)),
                    ("threads", r.threads.to_string()),
                    ("secs", format!("{:.4}", r.secs)),
                    ("sets_per_sec", format!("{:.0}", r.sets_per_sec)),
                    ("members_per_sec", format!("{:.0}", r.members_per_sec)),
                ]
            })
            .collect::<Vec<_>>(),
    );
}

criterion_group!(benches, bench_scalability, bench_rr_generation);
criterion_main!(benches);
