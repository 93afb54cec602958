//! `serve-ic`: warm serving of select and estimate queries at about a
//! million edges.
//!
//! Preparation (untimed, in a child process) generates the graph, loads it
//! once so the dataset loader writes its v4 cache, starts the service once
//! so it builds and spills the `vanilla-ic/default/coarse` pool, and writes
//! the query mix. Set-up is then a restart from the cache and the spill
//! (`pool_builds` must stay 0), and the load is a closed loop of clients
//! sending the mix through `handle_line` and `to_line`.
//!
//! Main operation: select (k=10, k=50, k=10 over half the pool). Side
//! operation: estimate of ten seeds. Answer quality: Monte-Carlo IC spread
//! of the k=50 answer.

use crate::harness::{
    client_threads, peak_rss_mib, timed, Outcome, RunOpts, Tally, WorkDir, RECONCILE_REPS,
};
use crate::inputs::{
    dataset_arg, generate_graph, ic_pool, ic_serve_config, query_mix, read_lines, select_line,
    stream_seed, write_graph, write_lines, GraphSpec, GRAPH_FILE, QUERIES_FILE,
};
use crate::metrics::{beyond, median, quantile, rel_err, windowed, windowed_rate, Metrics};
use crate::query::{closed_loop, paired_metrics, probe_pool, split_metrics, timeline, Answer};
use comic_bench::datasets::{load_with, CacheMode};
use comic_graph::NodeId;
use comic_ris::select::SelectorKind;
use comic_ris::spill;
use comic_serve::json::{self, Json};
use comic_serve::protocol::{parse_request, Request, Response};
use comic_serve::service::ComicService;
use rand::rngs::SmallRng;
use rand::{RngExt, SeedableRng};
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

/// Subdirectory holding the pool spill.
const POOLS_DIR: &str = "pools";
/// Monte-Carlo stream of the answer-quality evaluation.
const QUALITY_MC_SEED: u64 = 0x005e_4e1c;

/// Sizes of one serve-ic run.
#[derive(Clone, Debug)]
pub struct Config {
    /// The served graph.
    pub graph: GraphSpec,
    /// Sketch cap; `None` keeps the `ServeConfig` default.
    pub max_rr_sets: Option<u64>,
    /// Lines in the query mix (clients wrap around it).
    pub mix_len: usize,
    /// Restarts timed for `setup_s` (the median is reported).
    pub setup_reps: usize,
    /// Monte-Carlo iterations of the answer-quality evaluation.
    pub spread_iters: usize,
    /// Answered lines replayed serially and compared byte for byte.
    pub replay_lines: usize,
    /// Calls per direct selection-layer probe (traced runs).
    pub probe_reps: usize,
}

impl Config {
    /// The benchmark's size: a ~1M-edge graph at `ServeConfig` defaults.
    pub fn full() -> Config {
        Config {
            graph: GraphSpec {
                n: 100_000,
                edges: 1_000_000,
                exponent: 2.16,
            },
            max_rr_sets: None,
            mix_len: 4096,
            setup_reps: 9,
            spread_iters: 300,
            replay_lines: 12,
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
            mix_len: 64,
            setup_reps: 2,
            spread_iters: 50,
            replay_lines: 4,
            probe_reps: 1,
        }
    }
}

/// Generate the inputs and the state a restart reloads: the graph file,
/// its v4 cache, the spilled pool, and the query mix.
pub fn prepare(dir: &Path, seed: u64, cfg: &Config) -> Result<(), String> {
    let g = generate_graph(&cfg.graph, stream_seed(seed, "serve-ic/graph"))?;
    let graph_path = dir.join(GRAPH_FILE);
    write_graph(&graph_path, &g)?;
    drop(g);
    let pools = dir.join(POOLS_DIR);
    std::fs::create_dir_all(&pools).map_err(|e| format!("mkdir {}: {e}", pools.display()))?;
    let svc = ComicService::start(ic_serve_config(&graph_path, cfg.max_rr_sets, Some(pools)))
        .map_err(|e| format!("first start: {e}"))?;
    let pool = svc.pool(&ic_pool()).ok_or("first start left no pool")?;
    let lines = query_mix(
        stream_seed(seed, "serve-ic/queries"),
        cfg.mix_len,
        svc.graph().num_nodes(),
        pool.len(),
    );
    write_lines(&dir.join(QUERIES_FILE), &lines)
}

fn prepare_in_child(exe: &Path, args: &[String], dir: &Path, seed: u64) -> Result<(), String> {
    let status = std::process::Command::new(exe)
        .args(args)
        .arg("--prepare")
        .arg("serve-ic")
        .arg("--seed")
        .arg(seed.to_string())
        .arg("--work")
        .arg(dir)
        .stdout(std::process::Stdio::null())
        .status()
        .map_err(|e| format!("spawn preparation: {e}"))?;
    if status.success() {
        Ok(())
    } else {
        Err(format!("preparation process failed: {status}"))
    }
}

/// The spill file the service wrote into `pools`.
fn spill_file(pools: &Path) -> Result<PathBuf, String> {
    std::fs::read_dir(pools)
        .map_err(|e| format!("read {}: {e}", pools.display()))?
        .flatten()
        .map(|e| e.path())
        .find(|p| p.extension().is_some_and(|x| x == "rrseg"))
        .ok_or_else(|| format!("no spill file in {}", pools.display()))
}

/// `(seeds, covered, est_spread)` of a select reply line.
fn select_fields(reply: &str) -> Option<(Vec<u32>, u64, f64)> {
    let v = json::parse(reply).ok()?;
    let seeds = v
        .get("seeds")?
        .as_arr()?
        .iter()
        .map(|s| s.as_u64().map(|x| x as u32))
        .collect::<Option<Vec<u32>>>()?;
    Some((
        seeds,
        v.get("covered").and_then(Json::as_u64)?,
        v.get("est_spread").and_then(Json::as_f64)?,
    ))
}

/// Output checks on a seeded sample of the answered selects: CELF equals
/// the naive-greedy oracle in seeds and covered count, and estimating a
/// select's own seeds reproduces its `est_spread`; plus a serial replay of
/// a seeded sample of answered lines, byte for byte.
fn check_answers(
    svc: &ComicService,
    lines: &[String],
    answers: &[Answer],
    cfg: &Config,
    seed: u64,
    tally: &mut Tally,
) {
    let mut rng = SmallRng::seed_from_u64(stream_seed(seed, "serve-ic/checks"));
    // One select of each shape in the mix.
    let mut shapes: Vec<&String> = Vec::new();
    for a in answers.iter().filter(|a| a.select && a.ok) {
        if !shapes.contains(&&lines[a.line]) {
            shapes.push(&lines[a.line]);
        }
    }
    for line in shapes {
        let picks: Vec<&Answer> = answers.iter().filter(|a| &lines[a.line] == line).collect();
        let a = picks[rng.random_range(0..picks.len())];
        let Ok(Request::Select {
            pool, k, budget, ..
        }) = parse_request(line)
        else {
            tally.op(false, || format!("unparsable select line {line}"));
            continue;
        };
        let Some((seeds, covered, est)) = select_fields(&a.reply) else {
            tally.op(false, || format!("unreadable select reply {}", a.reply));
            continue;
        };
        let oracle = svc.handle(&Request::Select {
            pool: pool.clone(),
            k,
            selector: Some(SelectorKind::NaiveGreedy),
            budget,
            deadline_ms: None,
        });
        let same = matches!(&oracle, Response::Selected { seeds: s, covered: c, .. }
            if *s == seeds && *c == covered);
        tally.op(same, || format!("CELF differs from naive greedy on {line}"));
        let estimated = svc.handle(&Request::Estimate {
            pool,
            seeds: seeds.clone(),
            budget,
            deadline_ms: None,
        });
        let close = matches!(estimated, Response::Estimated { est_spread, .. }
            if rel_err(est_spread, est) <= 1e-9);
        tally.op(close, || {
            format!("estimate of the seeds of {line} != its est_spread")
        });
    }
    for _ in 0..cfg.replay_lines.min(answers.len()) {
        let a = &answers[rng.random_range(0..answers.len())];
        let again = svc.handle_line(&lines[a.line]).to_line();
        tally.op(again == a.reply, || {
            format!("serial replay of line {} differs", a.line)
        });
    }
}

/// Latency and throughput metrics of one closed-loop phase. The p90 is
/// taken over the whole phase, so that enough samples lie beyond it.
fn loop_metrics(answers: &[Answer], wall_s: f64, m: &mut Metrics) {
    let main = timeline(answers, |a| a.select);
    let side = timeline(answers, |a| !a.select);
    let done: Vec<f64> = answers.iter().map(|a| a.done_s).collect();
    let main_ms: Vec<f64> = main.iter().map(|s| s.1).collect();
    m.set("main_p50_ms", windowed(&main, wall_s, 0.5));
    m.set("main_p90_ms", quantile(&main_ms, 0.9));
    m.set("side_p50_ms", windowed(&side, wall_s, 0.5));
    m.set("ops_per_s", windowed_rate(&done, wall_s));
}

/// Run the workload.
pub fn run(cfg: &Config, opts: &RunOpts) -> Result<Outcome, String> {
    let work = WorkDir::create(&opts.work_root, "serve-ic", opts.seed)?;
    let dir = work.path();
    prepare_in_child(&opts.exe, &opts.exe_args, dir, opts.seed)?;
    let graph_path = dir.join(GRAPH_FILE);
    let pools = dir.join(POOLS_DIR);
    let sc = ic_serve_config(&graph_path, cfg.max_rr_sets, Some(pools.clone()));
    let lines = read_lines(&dir.join(QUERIES_FILE))?;
    let mut out = Outcome::default();
    out.note_common("serve-ic", opts);

    // Set-up: restart from the v4 cache and the spilled pool.
    let mut setup_ms = Vec::with_capacity(cfg.setup_reps);
    let mut svc = None;
    for _ in 0..cfg.setup_reps.max(1) {
        drop(svc.take());
        let (s, ms) = timed(|| ComicService::start(sc.clone()));
        let s = s.map_err(|e| format!("restart: {e}"))?;
        out.tally
            .op(s.pool_builds() == 0 && s.spill_rejects() == 0, || {
                format!(
                    "restart rebuilt pools ({} builds, {} spill rejects)",
                    s.pool_builds(),
                    s.spill_rejects()
                )
            });
        setup_ms.push(ms);
        svc = Some(s);
    }
    let svc = svc.expect("at least one restart");
    let rss_setup = peak_rss_mib();
    let pool = svc.pool(&ic_pool()).ok_or("no resident pool")?;
    let graph = svc.graph();
    out.note_graph(&graph);
    out.note("pool_sketches", pool.len());
    out.note("pool_members", pool.store().total_members());
    out.note("setup_samples", setup_ms.len());

    // Load: closed loop, untraced (half the time in a traced run).
    let phase = Duration::from_secs_f64(if opts.trace {
        opts.seconds / 2.0
    } else {
        opts.seconds
    });
    let clients = client_threads();
    let deadline = Instant::now() + phase;
    let (answers, wall_s) = closed_loop(&svc, &lines, 0, clients, false, &|| {
        Instant::now() < deadline
    });
    for a in &answers {
        out.tally
            .op(a.ok, || format!("line {} failed: {}", a.line, a.reply));
    }
    let mut e2e = Metrics::default();
    loop_metrics(&answers, wall_s, &mut e2e);
    e2e.set("setup_s", median(&setup_ms) / 1e3);
    let selects = answers.iter().filter(|a| a.select).count();
    out.note("main_samples", selects);
    out.note("main_p90_beyond", beyond(selects, 0.9));
    let estimates = answers.len() - selects;
    out.note("side_samples", estimates);

    check_answers(&svc, &lines, &answers, cfg, opts.seed, &mut out.tally);

    // Answer quality: MC spread of the k=50 answer, outside the timed loop.
    let k50_line = select_line(50, None);
    let k50_reply = answers
        .iter()
        .find(|a| lines[a.line] == k50_line)
        .map(|a| a.reply.clone())
        .unwrap_or_else(|| svc.handle_line(&k50_line).to_line());
    let (k50_seeds, _, _) = select_fields(&k50_reply).ok_or("no k=50 answer")?;
    let k50: Vec<NodeId> = k50_seeds.iter().map(|&s| NodeId(s)).collect();
    let mut mc = SmallRng::seed_from_u64(QUALITY_MC_SEED);
    e2e.set(
        "answer_quality",
        comic_core::ic::ic_spread(&graph, &k50, cfg.spread_iters, &mut mc),
    );
    e2e.set("peak_rss_mb", peak_rss_mib());

    if opts.trace {
        // The same lines again, each answered untraced, then traced, then
        // by the direct layer call, so all three see the same load.
        let deadline = Instant::now() + phase;
        let (paired, _) = closed_loop(&svc, &lines, 0, clients, true, &|| {
            Instant::now() < deadline
        });
        for a in &paired {
            out.tally
                .op(a.ok, || format!("line {} failed: {}", a.line, a.reply));
            out.tally.op(a.split.is_some_and(|s| s.same_reply), || {
                format!("traced reply to line {} differs from untraced", a.line)
            });
        }
        let (mut untraced, mut traced) = (e2e.clone(), e2e.clone());
        paired_metrics(&paired, clients, &mut untraced, &mut traced);
        let layers = &mut out.layers;
        split_metrics(&paired, layers);

        // Set-up split: the dataset load and the spill read, called
        // directly, each next to an untraced restart so the two are
        // compared under the same memory state.
        let spill_path = spill_file(&pools)?;
        let arg = dataset_arg(&graph_path);
        let (mut load_ms, mut read_ms, mut split_ms, mut restart_ms) =
            (vec![], vec![], vec![], vec![]);
        for _ in 0..RECONCILE_REPS {
            let (s, ms) = timed(|| ComicService::start(sc.clone()));
            drop(s.map_err(|e| format!("restart: {e}"))?);
            restart_ms.push(ms);
            let (loaded, l) = timed(|| load_with(&arg, CacheMode::Use));
            let loaded = loaded.map_err(|e| format!("traced load: {e}"))?;
            let (p, r) = timed(|| spill::read_pool_file(&spill_path, loaded.digest));
            p.map_err(|e| format!("traced spill read: {e}"))?;
            load_ms.push(l);
            read_ms.push(r);
            split_ms.push(l + r);
        }
        layers.set("datasets.load_ms", median(&load_ms));
        layers.set("spill.read_ms", median(&read_ms));
        let bytes = std::fs::metadata(&spill_path).map_or(0, |m| m.len());
        layers.set("spill.bytes", bytes as f64);
        layers.set(
            "reconcile.setup_err",
            rel_err(median(&split_ms), median(&restart_ms)),
        );
        // What a restart spends outside the load and the spill read.
        layers.set(
            "service.start_self_ms",
            median(&restart_ms) - median(&split_ms),
        );
        untraced.set("setup_s", median(&restart_ms) / 1e3);
        traced.set("setup_s", median(&split_ms) / 1e3);

        probe_pool(&pool, cfg.probe_reps, layers);
        layers.set("rss.setup_mb", rss_setup);
        traced.set("peak_rss_mb", peak_rss_mib());
        out.layers.set_overheads(&untraced, &traced);
    }
    out.tally.op(svc.pool_builds() == 0, || {
        format!("{} pool builds while serving", svc.pool_builds())
    });
    out.e2e = e2e;
    Ok(out)
}
