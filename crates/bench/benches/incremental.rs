//! Criterion: incremental RR-sketch maintenance under edge deltas vs
//! regenerating the pool from scratch — the update-throughput story of the
//! delta ingestion layer. Both paths run through the identical
//! `refresh_pool_marked` machinery (the "full" rows mark every set), so
//! the comparison isolates exactly the resampling that index-driven
//! invalidation avoids.
//!
//! The compaction rows time the graph swap that precedes every refit:
//! `DiGraph::apply_deltas` of one churn-shaped 100-change batch against a
//! `from_edges` build of the same compacted edge set, on fixture-medium
//! and on a generated ~1M-edge Chung–Lu graph.
//!
//! `COMIC_BENCH_JSON=$PWD/BENCH_incremental.json cargo bench -p comic-bench
//! --bench incremental`, run from the repository root, writes the committed
//! snapshot (cargo runs a bench from its package directory, so a relative
//! path lands in `crates/bench/`).

use comic_bench::datasets;
use comic_graph::builder::from_edges;
use comic_graph::gen::{chung_lu_par, ChungLuConfig, ParGen};
use comic_graph::io::graph_digest;
use comic_graph::prob::ProbModel;
use comic_graph::{DiGraph, EdgeDelta, EdgeId, NodeId};
use comic_ris::ic_sampler::IcRrSampler;
use comic_ris::pipeline::refresh_pool_marked;
use comic_ris::tim::TimConfig;
use comic_ris::{RisPipeline, SketchPool};
use criterion::{criterion_group, criterion_main, Criterion};
use rand::rngs::SmallRng;
use rand::{RngExt, SeedableRng};
use std::collections::HashSet;
use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;

const SEED: u64 = 0xD317A;
const THREADS: usize = 2;
/// Calls per compaction row; the row is their median.
const COMPACTION_REPS: usize = 9;

/// Remove every `stride`-th edge until `ratio_bp` basis points of the edge
/// count are covered — deterministic and spread across the whole graph, so
/// the invalidation sweep sees no artificial locality.
fn delta_batch(g: &DiGraph, ratio_bp: usize) -> Vec<EdgeDelta> {
    let m = g.num_edges();
    let count = (m * ratio_bp / 10_000).max(1);
    let stride = (m / count).max(1);
    g.edges()
        .step_by(stride)
        .take(count)
        .map(|(_, e)| EdgeDelta::Remove {
            source: e.source,
            target: e.target,
        })
        .collect()
}

/// One seeded churn-shaped batch against `g`, in the service's queue
/// order: 40 adds, 40 removes and 20 reweights, no edge named twice.
fn churn_batch(g: &DiGraph, seed: u64) -> Vec<EdgeDelta> {
    let mut rng = SmallRng::seed_from_u64(seed);
    let n = g.num_nodes() as u32;
    let m = g.num_edges();
    let prob = |rng: &mut SmallRng| f64::from(rng.random_range(1..=300u32)) / 1000.0;
    let mut named = HashSet::new();
    let mut adds = Vec::new();
    while adds.len() < 40 {
        let (source, target) = (
            NodeId(rng.random_range(0..n)),
            NodeId(rng.random_range(0..n)),
        );
        if source != target && !g.has_edge(source, target) && named.insert((source, target)) {
            let p = prob(&mut rng);
            adds.push(EdgeDelta::Add { source, target, p });
        }
    }
    let mut pick = |count: usize, rng: &mut SmallRng| {
        let mut out = Vec::new();
        while out.len() < count {
            let e = g.edge(EdgeId(rng.random_range(0..m as u32)));
            if named.insert((e.source, e.target)) {
                out.push((e.source, e.target));
            }
        }
        out
    };
    let removes = pick(40, &mut rng);
    let reweights = pick(20, &mut rng);
    adds.into_iter()
        .chain(
            removes
                .into_iter()
                .map(|(source, target)| EdgeDelta::Remove { source, target }),
        )
        .chain(
            reweights
                .into_iter()
                .map(|(source, target)| EdgeDelta::Reweight {
                    source,
                    target,
                    p: prob(&mut rng),
                }),
        )
        .collect()
}

/// Median seconds of [`COMPACTION_REPS`] calls of `f`; each result is
/// dropped outside the timed region.
fn median_secs<T>(mut f: impl FnMut() -> T) -> f64 {
    let mut secs: Vec<f64> = (0..COMPACTION_REPS)
        .map(|_| {
            let start = Instant::now();
            let out = black_box(f());
            let elapsed = start.elapsed().as_secs_f64();
            drop(out);
            elapsed
        })
        .collect();
    secs.sort_by(f64::total_cmp);
    secs[COMPACTION_REPS / 2]
}

struct CompactionRow {
    label: String,
    graph: &'static str,
    nodes: usize,
    edges: usize,
    secs: f64,
}

/// Time one churn-shaped batch's compaction of `g` against a `from_edges`
/// build of the same compacted edge set: a rebuild of both CSR directions
/// from an edge list, the least that a compaction which does not merge
/// rows pays.
fn compaction_rows(name: &'static str, g: &DiGraph) -> [CompactionRow; 2] {
    let deltas = churn_batch(g, SEED);
    let compacted = g
        .apply_deltas(&deltas)
        .expect("churn batches are conflict-free");
    let edges: Vec<(u32, u32, f64)> = compacted
        .edges()
        .map(|(_, e)| (e.source.0, e.target.0, e.p))
        .collect();
    let rebuilt = from_edges(g.num_nodes(), &edges).expect("compacted edges are valid");
    assert_eq!(
        graph_digest(&rebuilt),
        graph_digest(&compacted),
        "compaction must equal the rebuild"
    );
    let row = |kind: &str, secs: f64| CompactionRow {
        label: format!("{kind}/{name}"),
        graph: name,
        nodes: g.num_nodes(),
        edges: g.num_edges(),
        secs,
    };
    [
        row("compaction", median_secs(|| g.apply_deltas(&deltas))),
        row("rebuild", median_secs(|| from_edges(g.num_nodes(), &edges))),
    ]
}

struct Row {
    label: String,
    delta_bp: usize,
    secs: f64,
    sets_regenerated: usize,
}

fn timed_refresh(pool: &SketchPool, marks: &[bool], g: &Arc<DiGraph>, reps: usize) -> f64 {
    let mut best = f64::INFINITY;
    for _ in 0..reps {
        let start = Instant::now();
        black_box(refresh_pool_marked(
            pool,
            marks,
            || IcRrSampler::new(g),
            THREADS,
        ));
        best = best.min(start.elapsed().as_secs_f64());
    }
    best
}

fn bench_incremental(c: &mut Criterion) {
    let loaded = datasets::load("fixture-medium").expect("fixture-medium fixture");
    let g = Arc::clone(&loaded.graph);
    let pool = RisPipeline::new(
        TimConfig::new(10)
            .seed(SEED)
            .threads(THREADS)
            .max_rr_sets(60_000),
    )
    .generate_pool(|| IcRrSampler::new(&g))
    .expect("IC pool over fixture-medium");
    let total_sets = pool.len();
    let all_marks = vec![true; total_sets];

    let mut group = c.benchmark_group("incremental_refresh");
    group.sample_size(10);
    let mut rows: Vec<Row> = Vec::new();

    // 0.1% and 1% of edges deleted — the regime the staleness bound keeps
    // the incremental path in.
    for ratio_bp in [10usize, 100] {
        let deltas = delta_batch(&g, ratio_bp);
        let g2 = Arc::new(g.apply_deltas(&deltas).expect("compaction"));
        let marks = pool
            .invalidate(&deltas)
            .expect("IC pools carry touch provenance");
        let dirty = marks.iter().filter(|&&m| m).count();

        group.bench_function(&format!("incremental/{ratio_bp}bp"), |b| {
            b.iter(|| {
                black_box(refresh_pool_marked(
                    &pool,
                    &marks,
                    || IcRrSampler::new(&g2),
                    THREADS,
                ))
            })
        });
        group.bench_function(&format!("full/{ratio_bp}bp"), |b| {
            b.iter(|| {
                black_box(refresh_pool_marked(
                    &pool,
                    &all_marks,
                    || IcRrSampler::new(&g2),
                    THREADS,
                ))
            })
        });

        rows.push(Row {
            label: format!("incremental/{ratio_bp}bp"),
            delta_bp: ratio_bp,
            secs: timed_refresh(&pool, &marks, &g2, 3),
            sets_regenerated: dirty,
        });
        rows.push(Row {
            label: format!("full_rebuild/{ratio_bp}bp"),
            delta_bp: ratio_bp,
            secs: timed_refresh(&pool, &all_marks, &g2, 3),
            sets_regenerated: total_sets,
        });
    }
    group.finish();

    for pair in rows.chunks(2) {
        println!(
            "bench: incremental/{}bp ... {:.4}s ({} of {} sets) vs full {:.4}s — {:.1}x",
            pair[0].delta_bp,
            pair[0].secs,
            pair[0].sets_regenerated,
            total_sets,
            pair[1].secs,
            pair[1].secs / pair[0].secs.max(1e-9),
        );
    }

    let chung_lu = {
        let topology = chung_lu_par(
            &ChungLuConfig {
                n: 100_000,
                target_edges: 1_000_000,
                exponent: 2.16,
            },
            &ParGen::with_threads(SEED, THREADS),
        )
        .expect("Chung–Lu generation");
        ProbModel::WeightedCascade.apply(&topology, &mut SmallRng::seed_from_u64(SEED))
    };
    let compaction: Vec<CompactionRow> = compaction_rows("fixture-medium", &g)
        .into_iter()
        .chain(compaction_rows("chung-lu-1m", &chung_lu))
        .collect();
    for pair in compaction.chunks(2) {
        println!(
            "bench: compaction/{} ({} edges, 100 changes) ... {:.2} ms vs rebuild {:.2} ms — {:.1}x",
            pair[0].graph,
            pair[0].edges,
            pair[0].secs * 1e3,
            pair[1].secs * 1e3,
            pair[1].secs / pair[0].secs.max(1e-9),
        );
    }

    let refit_rows = rows.iter().map(|r| {
        vec![
            ("label", format!("\"{}\"", r.label)),
            ("delta_bp", r.delta_bp.to_string()),
            ("secs", format!("{:.4}", r.secs)),
            ("sets_regenerated", r.sets_regenerated.to_string()),
            ("total_sets", total_sets.to_string()),
        ]
    });
    let compaction_rows = compaction.iter().map(|r| {
        vec![
            ("label", format!("\"{}\"", r.label)),
            ("graph", format!("\"{}\"", r.graph)),
            ("nodes", r.nodes.to_string()),
            ("edges", r.edges.to_string()),
            ("changes", "100".to_string()),
            ("threads", "1".to_string()),
            ("reps", COMPACTION_REPS.to_string()),
            ("secs", format!("{:.6}", r.secs)),
        ]
    });
    comic_bench::runtime::write_json_snapshot(
        "incremental",
        &[
            (
                "graph",
                format!(
                    "{{ \"dataset\": \"fixture-medium\", \"nodes\": {}, \"edges\": {} }}",
                    g.num_nodes(),
                    g.num_edges()
                ),
            ),
            ("host_cores", comic_ris::parallel::resolve_threads(0).to_string()),
            ("sketches", total_sets.to_string()),
            ("threads", THREADS.to_string()),
            (
                "note",
                "\"both refit paths run refresh_pool_marked; 'full_rebuild' rows mark every set, so the gap is exactly the resampling that index-driven invalidation avoids. 'compaction' rows time apply_deltas of one 100-change batch (40 adds, 40 removes, 20 reweights), 'rebuild' rows from_edges over the same compacted edge set, each the median of 'reps' single-threaded calls; chung-lu-1m is n = 100k, exponent 2.16, weighted cascade\"".into(),
            ),
        ],
        &refit_rows.chain(compaction_rows).collect::<Vec<_>>(),
    );
}

criterion_group!(benches, bench_incremental);
criterion_main!(benches);
