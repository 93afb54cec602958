//! Criterion: incremental RR-sketch maintenance under edge deltas vs
//! regenerating the pool from scratch — the update-throughput story of the
//! delta ingestion layer. Both paths run through the identical
//! `refresh_pool_marked` machinery (the "full" rows mark every set), so
//! the comparison isolates exactly the resampling that index-driven
//! invalidation avoids.
//!
//! `COMIC_BENCH_JSON=BENCH_incremental.json cargo bench --bench incremental`
//! writes the committed snapshot.

use comic_bench::datasets;
use comic_graph::{DiGraph, EdgeDelta};
use comic_ris::ic_sampler::IcRrSampler;
use comic_ris::pipeline::refresh_pool_marked;
use comic_ris::tim::TimConfig;
use comic_ris::{RisPipeline, SketchPool};
use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;

const SEED: u64 = 0xD317A;
const THREADS: usize = 2;

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
                "\"both paths run refresh_pool_marked; 'full_rebuild' rows mark every set, so the gap is exactly the resampling that index-driven invalidation avoids\"".into(),
            ),
        ],
        &rows
            .iter()
            .map(|r| {
                vec![
                    ("label", format!("\"{}\"", r.label)),
                    ("delta_bp", r.delta_bp.to_string()),
                    ("secs", format!("{:.4}", r.secs)),
                    ("sets_regenerated", r.sets_regenerated.to_string()),
                    ("total_sets", total_sets.to_string()),
                ]
            })
            .collect::<Vec<_>>(),
    );
}

criterion_group!(benches, bench_incremental);
criterion_main!(benches);
