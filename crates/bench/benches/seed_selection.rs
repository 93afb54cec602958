//! Criterion: the non-sampling halves of seed selection — KPT estimation,
//! the coverage-index build, and the selector strategies of the
//! `comic_ris::select` engine over a stored RR-set arena.
//!
//! The `selector_comparison` section measures the extracted selection
//! engine end-to-end on the scalability dataset: [`CoverageIndex::build`]
//! at 1 / 4 / all-cores threads, then [`NaiveGreedy`] vs [`CelfGreedy`]
//! (both on the active SIMD kernel) at `k = 50`, and CELF again over the
//! first half of the sets (a set cut, as a budgeted query reads it),
//! each row the median of 9 calls (one under `COMIC_BENCH_QUICK`). The
//! three selector rows run again at serving scale (`*/chung-lu` labels):
//! 200k sets over a generated Chung–Lu graph (n = 100k, exponent 2.16,
//! ~1M edges, weighted cascade — `incremental.rs`'s `chung-lu-1m`; a
//! 10k-node graph and 5k sets under `COMIC_BENCH_QUICK`), where a cost
//! that grows with n shows. It also **asserts** the determinism contract
//! on every call — parallel index builds byte-identical to the one-thread
//! build, CELF seed sets byte-identical to the naive oracle's over every
//! set and at the cut, on both graphs — so the quick-mode CI smoke run,
//! repeated with `COMIC_SIMD=off`, fails if a selector ever diverges.
//! `COMIC_BENCH_JSON=$PWD/BENCH_seed_selection.json cargo bench -p
//! comic-bench --bench seed_selection`, run from the repository root,
//! writes the committed snapshot.

use comic_algos::greedy::celf;
use comic_bench::datasets::{bench_source, Dataset};
use comic_bench::runtime::timed;
use comic_graph::gen::{chung_lu_par, ChungLuConfig, ParGen};
use comic_graph::prob::ProbModel;
use comic_graph::{DiGraph, NodeId};
use comic_ris::ic_sampler::IcRrSampler;
use comic_ris::kpt::kpt_star_with;
use comic_ris::parallel::resolve_threads;
use comic_ris::rr::RrStore;
use comic_ris::sampler::RrSampler;
use comic_ris::select::{CelfGreedy, CoverageIndex, NaiveGreedy, SeedSelector};
use comic_ris::simd;
use criterion::{criterion_group, criterion_main, Criterion};
use rand::rngs::SmallRng;
use rand::SeedableRng;
use std::hint::black_box;

fn sample_store(g: &comic_graph::DiGraph, count: usize) -> RrStore {
    let mut sampler = IcRrSampler::new(g);
    let mut rng = SmallRng::seed_from_u64(1);
    let mut store = RrStore::with_capacity(count, 4);
    let mut out = Vec::new();
    for _ in 0..count {
        let (_, width) = sampler.sample_random_with_width(&mut rng, &mut out);
        store.push_with_width(&out, width);
    }
    store
}

fn bench_seed_selection(c: &mut Criterion) {
    let g = bench_source(Dataset::Flixster).graph(0.08);
    let n = g.num_nodes();
    let quick = criterion::quick_mode();
    let store = sample_store(&g, if quick { 5_000 } else { 200_000 });

    let mut group = c.benchmark_group("seed_selection");
    group.sample_size(10);
    group.warm_up_time(std::time::Duration::from_millis(500));
    group.measurement_time(std::time::Duration::from_secs(8));

    group.bench_function("coverage_index_build_1t", |b| {
        b.iter(|| black_box(CoverageIndex::build(&store, n, 1).total_entries()));
    });

    group.bench_function("celf_select_k50", |b| {
        let index = CoverageIndex::build(&store, n, 1);
        b.iter(|| black_box(CelfGreedy.select(&index, 50).covered));
    });

    group.bench_function("kpt_star_k50", |b| {
        b.iter(|| black_box(kpt_star_with(|| IcRrSampler::new(&g), 50, 1.0, 2, 1).kpt));
    });

    group.bench_function("celf_mc_objective", |b| {
        // The Monte-Carlo CELF of comic_algos on a deterministic
        // weighted-coverage objective over 2k sets.
        let sets: Vec<(f64, Vec<u32>)> = (0..2_000u32)
            .map(|i| (1.0 + (i % 13) as f64, vec![i % 500, (i * 7) % 500]))
            .collect();
        let candidates: Vec<NodeId> = (0..500u32).map(NodeId).collect();
        b.iter(|| {
            let r = celf(&candidates, 20, |s: &[NodeId]| {
                sets.iter()
                    .filter(|(_, m)| m.iter().any(|&x| s.contains(&NodeId(x))))
                    .map(|(w, _)| w)
                    .sum()
            });
            black_box(r.seeds.len())
        });
    });

    group.finish();
}

/// One row of the selector_comparison section: the median wall-clock
/// seconds of its calls.
struct Run {
    label: String,
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

/// The selector rows over `index`, labels suffixed with `suffix`: the
/// naive oracle, CELF, and CELF over the first half of the sets, each the
/// median of `reps` calls, asserting that CELF returns the oracle's seed
/// set over every set and at the cut.
fn selector_runs(index: &CoverageIndex, k: usize, reps: usize, suffix: &str) -> Vec<Run> {
    let run = |label: &str, secs| Run {
        label: format!("{label}{suffix}"),
        threads: 1,
        secs,
    };
    let (naive, naive_secs) = median_timed(reps, "select_naive", || NaiveGreedy.select(index, k));
    let (celf_r, celf_secs) = median_timed(reps, "select_celf", || CelfGreedy.select(index, k));
    // The determinism contract CI enforces: byte-identical seed sets.
    assert_eq!(
        celf_r,
        naive,
        "CELF diverged from the naive-greedy oracle ({}{suffix})",
        simd::active().name()
    );
    // The same contract under a set cut: CELF's untouched keys are
    // full-index run lengths, which only bound the gains below the cut.
    let half = index.num_sets() / 2;
    let naive_half = NaiveGreedy.select_prefix(index, k, half);
    let (celf_half, half_secs) = median_timed(reps, "select_celf_half", || {
        CelfGreedy.select_prefix(index, k, half)
    });
    assert_eq!(
        celf_half,
        naive_half,
        "CELF diverged from the naive-greedy oracle over the first {half} sets ({}{suffix})",
        simd::active().name()
    );
    vec![
        run("select_naive", naive_secs),
        run("select_celf", celf_secs),
        run("select_celf_half", half_secs),
    ]
}

/// Seed of the serving-scale Chung–Lu graph (`incremental.rs`'s).
const CHUNG_LU_SEED: u64 = 0xD317A;

/// The serving-scale graph: Chung–Lu, n = 100k, exponent 2.16, ~1M edges,
/// weighted cascade, built as `incremental.rs` builds `chung-lu-1m`;
/// a tenth of that under quick mode.
fn chung_lu_graph(quick: bool) -> DiGraph {
    let (n, target_edges) = if quick {
        (10_000, 100_000)
    } else {
        (100_000, 1_000_000)
    };
    let topology = chung_lu_par(
        &ChungLuConfig {
            n,
            target_edges,
            exponent: 2.16,
        },
        &ParGen::with_threads(CHUNG_LU_SEED, 2),
    )
    .expect("Chung–Lu generation");
    ProbModel::WeightedCascade.apply(&topology, &mut SmallRng::seed_from_u64(CHUNG_LU_SEED))
}

/// Wall-clock comparison of the selection engine, each row the median of
/// `reps` calls, with the naive-vs-CELF cross-check assertion CI relies
/// on.
fn bench_selector_comparison(c: &mut Criterion) {
    // The group exists so the section shows up in criterion's output
    // ordering; the real measurements below need whole-call wall-clock
    // numbers for the JSON snapshot, not per-iter medians.
    let mut group = c.benchmark_group("selector_comparison");
    group.finish();

    let quick = criterion::quick_mode();
    let sets: usize = if quick { 5_000 } else { 200_000 };
    // One call moves by up to a third on a shared host; the median of 9
    // is steady enough to compare rows.
    let reps: usize = if quick { 1 } else { 9 };
    let k = 50;
    let g = bench_source(Dataset::Flixster).graph(if quick { 0.04 } else { 0.08 });
    let n = g.num_nodes();
    let store = sample_store(&g, sets);

    let mut runs: Vec<Run> = Vec::new();

    // Index builds: sequential, 4 workers, all cores.
    let (index, secs) = median_timed(reps, "index_build", || CoverageIndex::build(&store, n, 1));
    runs.push(Run {
        label: "index_build".into(),
        threads: 1,
        secs,
    });
    let max_threads = resolve_threads(0);
    let mut thread_counts = vec![4usize, max_threads];
    thread_counts.retain(|&t| t != 1);
    thread_counts.dedup();
    for threads in thread_counts {
        let (parallel, secs) = median_timed(reps, "index_build", || {
            CoverageIndex::build(&store, n, threads)
        });
        assert!(
            parallel == index,
            "parallel index build diverged at {threads} threads"
        );
        runs.push(Run {
            label: "index_build".into(),
            threads,
            secs,
        });
    }

    runs.extend(selector_runs(&index, k, reps, ""));

    // The same rows at serving scale, where n is a hundred times larger.
    let chung_lu = chung_lu_graph(quick);
    let cl_store = sample_store(&chung_lu, sets);
    let cl_index = CoverageIndex::build(&cl_store, chung_lu.num_nodes(), max_threads);
    runs.extend(selector_runs(&cl_index, k, reps, "/chung-lu"));

    for r in &runs {
        println!(
            "bench: selector_comparison/{}/threads={} ... {:.4}s (median of {reps})",
            r.label, r.threads, r.secs
        );
    }
    println!(
        "bench: selector_comparison cross-check OK — CELF == naive greedy on {} sets over {n} nodes and {} sets over {} nodes, and on the first half of each (k={k})",
        store.len(),
        cl_store.len(),
        chung_lu.num_nodes()
    );

    comic_bench::runtime::write_json_snapshot(
        "seed_selection",
        &[
            ("host_cores", resolve_threads(0).to_string()),
            (
                "graph",
                format!(
                    "{{ \"model\": \"flixster stand-in (chung_lu + weighted_cascade)\", \"nodes\": {}, \"edges\": {} }}",
                    n,
                    g.num_edges()
                ),
            ),
            (
                "chung_lu",
                format!(
                    "{{ \"model\": \"chung_lu (exponent 2.16) + weighted_cascade\", \"nodes\": {}, \"edges\": {}, \"rr_sets\": {}, \"total_members\": {} }}",
                    chung_lu.num_nodes(),
                    chung_lu.num_edges(),
                    cl_store.len(),
                    cl_store.total_members()
                ),
            ),
            ("rr_sets", store.len().to_string()),
            ("k", k.to_string()),
            ("reps", reps.to_string()),
            ("total_members", store.total_members().to_string()),
            ("simd", format!("\"{}\"", simd::active().name())),
            (
                "note",
                "\"each row is the median wall-clock of reps calls, and every call's result is asserted; selectors return byte-identical seed sets over every set and over the first half (asserted; select_celf_half times CELF at that cut, as a budgeted query reads the index); '/chung-lu' rows run the same selectors over chung_lu's graph and sets; both run on one thread, on the simd kernel named above; index_build is the one coverage-index builder (pool builds, refits and prefix copies all run it over a finished store) and every thread count gives the same bytes (asserted); rows with more threads than host_cores measure oversubscription overhead\"".into(),
            ),
        ],
        &runs
            .iter()
            .map(|r| {
                vec![
                    ("label", format!("\"{}\"", r.label)),
                    ("threads", r.threads.to_string()),
                    ("secs", format!("{:.4}", r.secs)),
                ]
            })
            .collect::<Vec<_>>(),
    );
}

criterion_group!(benches, bench_seed_selection, bench_selector_comparison);
criterion_main!(benches);
