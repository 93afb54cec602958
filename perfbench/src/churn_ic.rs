//! `churn-ic`: graph deltas applied between select queries.
//!
//! Set-up is a cold start of the service (KPT*, θ and generation of the
//! `vanilla-ic/default/coarse` pool) over a graph whose dataset cache was
//! written beforehand. The load is an open-loop feed: one `delta` line
//! with `apply: true` every fixed interval, each followed by a select
//! k=10 answered from the freshly refit pool.
//!
//! Main operation: a delta batch, timed from its scheduled send time to its
//! apply reply. Side operation: the select after it. Answer quality:
//! Monte-Carlo IC spread of the k=50 answer once the whole feed is applied.

use crate::harness::{
    ms_since, peak_rss_mib, timed, Outcome, RunOpts, Tally, WorkDir, RECONCILE_REPS,
};
use crate::inputs::{
    dataset_arg, delta_feed, generate_graph, ic_pool, ic_serve_config, read_lines, select_line,
    stream_seed, write_graph, write_lines, BatchShape, GraphSpec, DELTAS_FILE, GRAPH_FILE,
};
use crate::metrics::{beyond, mean, median, quantile, rel_err, Metrics};
use crate::query::probe_pool;
use crate::stages::generate_timed;
use comic_bench::datasets::{load_with, CacheMode};
use comic_graph::{DiGraph, EdgeDelta, NodeId};
use comic_ris::ic_sampler::IcRrSampler;
use comic_ris::kpt::kpt_star_with;
use comic_ris::pipeline::refresh_pool_marked;
use comic_ris::tim::TimConfig;
use comic_ris::{RisPipeline, SketchPool};
use comic_serve::protocol::{parse_request, Request, Response};
use comic_serve::service::{ComicService, ServeConfig};
use rand::rngs::SmallRng;
use rand::SeedableRng;
use std::time::{Duration, Instant};

/// Monte-Carlo stream of the answer-quality evaluation.
const QUALITY_MC_SEED: u64 = 0xc4_0e1c;

/// Sizes of one churn-ic run.
#[derive(Clone, Debug)]
pub struct Config {
    /// The served graph.
    pub graph: GraphSpec,
    /// Sketch cap; `None` keeps the `ServeConfig` default.
    pub max_rr_sets: Option<u64>,
    /// Milliseconds between scheduled delta batches.
    pub interval_ms: u64,
    /// Changes per batch.
    pub shape: BatchShape,
    /// Cold starts timed for `setup_s` (the median is reported).
    pub setup_reps: usize,
    /// Monte-Carlo iterations of the answer-quality evaluation.
    pub spread_iters: usize,
    /// Calls per direct selection-layer probe (traced runs).
    pub probe_reps: usize,
}

impl Config {
    /// The benchmark's size.
    pub fn full() -> Config {
        Config {
            graph: GraphSpec {
                n: 20_000,
                edges: 200_000,
                exponent: 2.16,
            },
            max_rr_sets: Some(50_000),
            interval_ms: 300,
            shape: BatchShape {
                adds: 40,
                removes: 40,
                reweights: 20,
            },
            setup_reps: 5,
            spread_iters: 300,
            probe_reps: 3,
        }
    }

    /// A seconds-long size for tests.
    pub fn smoke() -> Config {
        Config {
            graph: GraphSpec {
                n: 2_000,
                edges: 10_000,
                exponent: 2.16,
            },
            max_rr_sets: Some(4_000),
            interval_ms: 50,
            shape: BatchShape {
                adds: 4,
                removes: 4,
                reweights: 2,
            },
            setup_reps: 2,
            spread_iters: 50,
            probe_reps: 1,
        }
    }
}

/// Write the run's inputs: the graph file and the delta feed.
pub fn prepare(
    dir: &std::path::Path,
    seed: u64,
    cfg: &Config,
    batches: usize,
) -> Result<(), String> {
    let g = generate_graph(&cfg.graph, stream_seed(seed, "churn-ic/graph"))?;
    write_graph(&dir.join(GRAPH_FILE), &g)?;
    let feed = delta_feed(&g, stream_seed(seed, "churn-ic/deltas"), batches, cfg.shape);
    write_lines(&dir.join(DELTAS_FILE), &feed)
}

/// One applied batch of the feed.
#[derive(Debug)]
struct Batch {
    /// Scheduled send time to apply reply, milliseconds.
    lag_ms: f64,
    /// Scheduled send time to actual send, milliseconds.
    late_ms: f64,
    /// The select sent after the batch, milliseconds.
    select_ms: f64,
    /// Whether the whole batch applied.
    ok: bool,
    /// The reply line.
    reply: String,
    /// Whether the select was answered.
    select_ok: bool,
}

/// The changes of a delta line, in the service's wire order (adds,
/// removes, reweights).
fn edge_deltas(line: &str) -> Result<Vec<EdgeDelta>, String> {
    let Ok(Request::Delta {
        add,
        remove,
        reweight,
        ..
    }) = parse_request(line)
    else {
        return Err(format!("not a delta line: {line}"));
    };
    let id = NodeId;
    Ok(add
        .iter()
        .map(|&(s, t, p)| EdgeDelta::Add {
            source: id(s),
            target: id(t),
            p,
        })
        .chain(remove.iter().map(|&(s, t)| EdgeDelta::Remove {
            source: id(s),
            target: id(t),
        }))
        .chain(reweight.iter().map(|&(s, t, p)| EdgeDelta::Reweight {
            source: id(s),
            target: id(t),
            p,
        }))
        .collect())
}

/// Send `feed[b]` at `t0 + (b + 1) · interval` through `apply(b, line)`,
/// which returns the reply and whether the whole batch applied, then send
/// select k=10 to the service, so each answer comes from a freshly refit
/// pool. Returns the batches and the wall time in seconds.
fn feed_phase(
    svc: &ComicService,
    feed: &[String],
    interval: Duration,
    mut apply: impl FnMut(usize, &str) -> (String, bool),
) -> (Vec<Batch>, f64) {
    let select = select_line(10, None);
    let t0 = Instant::now();
    let mut batches = Vec::with_capacity(feed.len());
    for (b, line) in feed.iter().enumerate() {
        let due = t0 + interval * (b as u32 + 1);
        if let Some(wait) = due.checked_duration_since(Instant::now()) {
            std::thread::sleep(wait);
        }
        let sent = Instant::now();
        let (reply, ok) = apply(b, line);
        let end = Instant::now();
        let (answer, select_ms) = timed(|| svc.handle_line(&select).to_line());
        batches.push(Batch {
            lag_ms: (end - due).as_secs_f64() * 1e3,
            late_ms: (sent - due).as_secs_f64() * 1e3,
            select_ms,
            ok,
            reply,
            select_ok: answer.contains("\"seeds\""),
        });
    }
    (batches, t0.elapsed().as_secs_f64())
}

/// Per-batch spans of the replica's delta path.
#[derive(Debug, Default)]
struct DeltaSpans {
    /// The whole path, milliseconds.
    path_ms: Vec<f64>,
    parse_ms: Vec<f64>,
    apply_ms: Vec<f64>,
    digest_ms: Vec<f64>,
    invalidate_ms: Vec<f64>,
    refit_ms: Vec<f64>,
    serialize_ms: Vec<f64>,
    /// Sets marked dirty, and their share of the pool.
    dirty: Vec<f64>,
    dirty_frac: Vec<f64>,
}

/// The replica the traced feed applies batches to, one layer call at a
/// time: compaction, digest, invalidation and the marked refit.
struct Replica {
    graph: DiGraph,
    pool: SketchPool,
    threads: usize,
    spans: DeltaSpans,
}

impl Replica {
    fn apply(&mut self, line: &str) -> Result<String, String> {
        let Replica {
            graph,
            pool,
            threads,
            spans,
        } = self;
        let start = Instant::now();
        let (deltas, ms) = timed(|| edge_deltas(line));
        let deltas = deltas?;
        spans.parse_ms.push(ms);
        let (next, ms) = timed(|| graph.apply_deltas(&deltas));
        let next = next.map_err(|e| format!("replica apply: {e}"))?;
        spans.apply_ms.push(ms);
        spans
            .digest_ms
            .push(timed(|| comic_graph::io::graph_digest(&next)).1);
        let (marks, ms) = timed(|| pool.invalidate(&deltas));
        let marks = marks.ok_or("the IC pool lost its touch provenance")?;
        spans.invalidate_ms.push(ms);
        let dirty = marks.iter().filter(|&&m| m).count();
        spans.dirty.push(dirty as f64);
        spans
            .dirty_frac
            .push(dirty as f64 / pool.len().max(1) as f64);
        let (refit, ms) =
            timed(|| refresh_pool_marked(pool, &marks, || IcRrSampler::new(&next), *threads));
        spans.refit_ms.push(ms);
        *pool = refit.with_generation(pool.generation() + 1);
        *graph = next;
        let (reply, ms) = timed(|| {
            Response::Deltas {
                pending: 0,
                applied: deltas.len() as u64,
                sets_invalidated: dirty as u64,
                sets_regenerated: dirty as u64,
                full_rebuilds: 0,
            }
            .to_line()
        });
        spans.serialize_ms.push(ms);
        spans.path_ms.push(ms_since(start));
        Ok(reply)
    }

    fn record(&self, m: &mut Metrics) {
        let s = &self.spans;
        m.set("delta.apply_ms", mean(&s.apply_ms));
        m.set("graph.digest_ms", mean(&s.digest_ms));
        m.set("pool.invalidate_ms", mean(&s.invalidate_ms));
        m.set("pool.invalidated_frac", mean(&s.dirty_frac));
        m.set("refit.ms", mean(&s.refit_ms));
        m.set("refit.sets", mean(&s.dirty));
    }
}

/// Latency and throughput metrics of one feed phase: lag (main) and the
/// select after each batch (side), over the whole phase (a fifth of it
/// holds too few batches for a steady median), and batches plus selects
/// completed per second of the phase. The open-loop feed fixes that rate
/// at two per interval until the service falls behind it.
fn phase_metrics(batches: &[Batch], wall_s: f64, m: &mut Metrics) {
    let lag_ms: Vec<f64> = batches.iter().map(|b| b.lag_ms).collect();
    let select_ms: Vec<f64> = batches.iter().map(|b| b.select_ms).collect();
    m.set("main_p50_ms", median(&lag_ms));
    m.set("main_p90_ms", quantile(&lag_ms, 0.9));
    m.set("side_p50_ms", median(&select_ms));
    m.set("ops_per_s", 2.0 * batches.len() as f64 / wall_s.max(1e-9));
}

/// Count each batch and its select as operations.
fn tally_batches(batches: &[Batch], first: usize, tally: &mut Tally) {
    for (b, batch) in batches.iter().enumerate() {
        tally.op(batch.ok, || {
            format!(
                "delta batch {} did not apply whole: {}",
                first + b,
                batch.reply
            )
        });
        tally.op(batch.select_ok, || {
            format!("select after batch {} failed", first + b)
        });
    }
}

/// Select `k` seeds on the served pool and evaluate their spread on the
/// served graph.
fn answer_quality(
    svc: &ComicService,
    k: usize,
    iters: usize,
) -> Result<(Vec<NodeId>, f64), String> {
    let resp = svc.handle_line(&select_line(k, None));
    let Response::Selected { seeds, .. } = resp else {
        return Err(format!("final select failed: {}", resp.to_line()));
    };
    let seeds: Vec<NodeId> = seeds.into_iter().map(NodeId).collect();
    let mut mc = SmallRng::seed_from_u64(QUALITY_MC_SEED);
    let q = comic_core::ic::ic_spread(&svc.graph(), &seeds, iters, &mut mc);
    Ok((seeds, q))
}

/// The traced set-up split: the dataset load, then the pool build with
/// its stages timed, under the provenance of the service's own pool.
fn setup_split(
    sc: &ServeConfig,
    served: &SketchPool,
    kpt_seed: u64,
    m: &mut Metrics,
) -> Result<f64, String> {
    let (loaded, load_ms) = timed(|| load_with(&sc.dataset, CacheMode::Use));
    let loaded = loaded.map_err(|e| format!("traced load: {e}"))?;
    let g = &loaded.graph;
    let mut tc = TimConfig::new(sc.design_k)
        .epsilon(served.epsilon())
        .seed(served.seed())
        .threads(sc.gen_threads);
    if let Some(cap) = sc.max_rr_sets {
        tc = tc.max_rr_sets(cap);
    }
    let ell = tc.ell;
    let pipe = RisPipeline::new(tc);
    let st = generate_timed(&pipe, || IcRrSampler::new(g))?;
    if m.get("kpt.samples").is_none() {
        // Untimed: the pipeline does not report its KPT* sample count, so
        // run the estimator once more, at the pool's k and ℓ under the
        // benchmark's own seed.
        let kpt = kpt_star_with(
            || IcRrSampler::new(g),
            sc.design_k,
            ell,
            kpt_seed,
            sc.gen_threads,
        );
        m.set("kpt.samples", kpt.samples as f64);
    }
    m.set("datasets.load_ms", load_ms);
    m.set("kpt.ms", st.kpt_ms);
    m.set("theta.sets", st.pool.len() as f64);
    m.set("generate.ms", st.generate_ms);
    m.set("generate.sets", st.pool.len() as f64);
    let members = st.pool.store().total_members() as f64;
    m.set("generate.members", members);
    m.set(
        "generate.members_per_s",
        members / (st.generate_ms / 1e3).max(1e-9),
    );
    Ok(load_ms + st.total_ms())
}

/// Run the workload.
pub fn run(cfg: &Config, opts: &RunOpts) -> Result<Outcome, String> {
    let work = WorkDir::create(&opts.work_root, "churn-ic", opts.seed)?;
    let dir = work.path();
    let interval = Duration::from_millis(cfg.interval_ms);
    let batches = ((opts.seconds * 1e3 / cfg.interval_ms as f64) as usize).max(2);
    prepare(dir, opts.seed, cfg, batches)?;
    let graph_path = dir.join(GRAPH_FILE);
    let feed = read_lines(&dir.join(DELTAS_FILE))?;
    let mut out = Outcome::default();
    out.note_common("churn-ic", opts);
    out.note("client_threads", 1);
    out.note("interval_ms", cfg.interval_ms);
    out.note("batches", feed.len());
    let expected: Vec<usize> = feed
        .iter()
        .map(|l| edge_deltas(l).map(|d| d.len()))
        .collect::<Result<_, _>>()?;

    // The dataset cache is written before timing: set-up measures the
    // cold pool build, not text parsing.
    load_with(&dataset_arg(&graph_path), CacheMode::Use).map_err(|e| format!("load: {e}"))?;
    let sc = ic_serve_config(&graph_path, cfg.max_rr_sets, None);
    let mut setup_ms = Vec::with_capacity(cfg.setup_reps);
    let mut svc = None;
    for _ in 0..cfg.setup_reps.max(1) {
        drop(svc.take());
        let (s, ms) = timed(|| ComicService::start(sc.clone()));
        svc = Some(s.map_err(|e| format!("cold start: {e}"))?);
        setup_ms.push(ms);
    }
    let svc = svc.expect("at least one cold start");
    let rss_setup = peak_rss_mib();
    let key = ic_pool();
    let start_pool = svc.pool(&key).ok_or("no resident pool")?;
    out.note_graph(&svc.graph());
    out.note("pool_sketches", start_pool.len());
    out.note("pool_members", start_pool.store().total_members());
    out.note("setup_samples", setup_ms.len());

    // A traced run feeds the first half of the batches untraced, then
    // each batch of the second half to the service and, right after, one
    // layer call at a time to a replica of the service's graph and pool.
    let split = if opts.trace { batches / 2 } else { batches };
    let (fed, wall_s) = feed_phase(&svc, &feed[..split], interval, |b, line| {
        let resp = svc.handle_line(line);
        let whole = matches!(resp, Response::Deltas { applied, .. }
            if applied as usize == expected[b]);
        (resp.to_line(), whole)
    });
    tally_batches(&fed, 0, &mut out.tally);
    let mut e2e = Metrics::default();
    phase_metrics(&fed, wall_s, &mut e2e);
    e2e.set("setup_s", median(&setup_ms) / 1e3);
    out.note("main_samples", fed.len());
    out.note("main_p90_beyond", beyond(fed.len(), 0.9));
    out.note("side_samples", fed.len());
    let late: Vec<f64> = fed.iter().map(|b| b.late_ms).collect();
    let (_, quality) = answer_quality(&svc, 50, cfg.spread_iters)?;
    e2e.set("answer_quality", quality);
    e2e.set("peak_rss_mb", peak_rss_mib());

    if opts.trace {
        let mut replica = Replica {
            graph: (*svc.graph()).clone(),
            pool: svc.pool(&key).ok_or("no resident pool")?,
            threads: sc.gen_threads,
            spans: DeltaSpans::default(),
        };
        let mut service_ms = Vec::with_capacity(batches - split);
        let (p_fed, _) = feed_phase(&svc, &feed[split..], interval, |b, line| {
            let mut untraced = || {
                let t = Instant::now();
                let resp = svc.handle_line(line);
                let reply = resp.to_line();
                service_ms.push(ms_since(t));
                let whole = matches!(resp, Response::Deltas { applied, .. }
                        if applied as usize == expected[split + b]);
                (reply, whole)
            };
            // Alternate which goes first, so neither always runs on
            // the caches the other warmed.
            let ((reply, whole), traced) = if b.is_multiple_of(2) {
                let u = untraced();
                (u, replica.apply(line))
            } else {
                let r = replica.apply(line);
                (untraced(), r)
            };
            match traced {
                Ok(_) => (reply, whole),
                Err(e) => (e, false),
            }
        });
        tally_batches(&p_fed, split, &mut out.tally);
        // The replica applied the service's batches: same graph, same
        // answer.
        let same_graph = comic_graph::io::graph_digest(&svc.graph())
            == comic_graph::io::graph_digest(&replica.graph);
        out.tally.op(same_graph, || {
            "replica graph differs from the service's".into()
        });
        let tc = TimConfig::new(10).threads(sc.threads);
        let replica_seeds = RisPipeline::new(tc)
            .run_on_pool(&replica.pool)
            .map_err(|e| format!("replica select: {e}"))?
            .seeds;
        let (served_seeds, _) = answer_quality(&svc, 10, 1)?;
        out.tally.op(replica_seeds == served_seeds, || {
            "replica answer differs from the service's".into()
        });

        // Untraced and traced lag of the same batches: schedule slip plus
        // the service's handling, or plus the replica's layer calls.
        let (mut untraced, mut traced) = (e2e.clone(), e2e.clone());
        for (m, path) in [
            (&mut untraced, &service_ms),
            (&mut traced, &replica.spans.path_ms),
        ] {
            let lags: Vec<f64> = p_fed
                .iter()
                .zip(path)
                .map(|(b, ms)| b.late_ms + ms)
                .collect();
            m.set("main_p50_ms", median(&lags));
            m.set("main_p90_ms", quantile(&lags, 0.9));
        }
        let layers = &mut out.layers;
        replica.record(layers);
        layers.set(
            "reconcile.main_err",
            rel_err(median(&replica.spans.path_ms), median(&service_ms)),
        );
        layers.set("feed.late_ms", median(&late));

        // Set-up split, each replay next to an untraced cold start so the
        // two are compared under the same memory state.
        let (mut cold_ms, mut split_ms) = (vec![], vec![]);
        let kpt_seed = stream_seed(opts.seed, "churn-ic/kpt");
        for _ in 0..RECONCILE_REPS {
            let (s, ms) = timed(|| ComicService::start(sc.clone()));
            drop(s.map_err(|e| format!("cold start: {e}"))?);
            cold_ms.push(ms);
            split_ms.push(setup_split(&sc, &start_pool, kpt_seed, layers)?);
        }
        layers.set(
            "reconcile.setup_err",
            rel_err(median(&split_ms), median(&cold_ms)),
        );
        untraced.set("setup_s", median(&cold_ms) / 1e3);
        traced.set("setup_s", median(&split_ms) / 1e3);
        let pool = svc.pool(&key).ok_or("no resident pool")?;
        probe_pool(&pool, cfg.probe_reps, layers);
        layers.set("rss.setup_mb", rss_setup);
        traced.set("peak_rss_mb", peak_rss_mib());
        out.layers.set_overheads(&untraced, &traced);
    }
    out.tally.op(svc.full_rebuilds() == 0, || {
        format!("{} full rebuilds under churn", svc.full_rebuilds())
    });
    out.e2e = e2e;
    Ok(out)
}
