//! Closed-loop query clients over an in-process `ComicService`, the traced
//! variant that times each layer call separately, and direct probes of the
//! selection layer on a resident pool.

use crate::harness::{ms_since, timed, THREADS};
use crate::metrics::{mean, median, quantile, rel_err, Metrics};
use comic_graph::NodeId;
use comic_ris::select::{CoverageIndex, SelectorKind};
use comic_ris::tim::TimConfig;
use comic_ris::{RisPipeline, SketchPool};
use comic_serve::protocol::{parse_request, Request, Response};
use comic_serve::service::ComicService;
use std::time::Instant;

/// The per-layer split of one traced query.
#[derive(Clone, Copy, Debug, Default)]
pub struct Split {
    /// `parse_request`, microseconds.
    pub parse_us: f64,
    /// `ComicService::handle`, milliseconds.
    pub handle_ms: f64,
    /// The same selection or estimate called directly on the pool,
    /// milliseconds (run after the spans, not inside them).
    pub inner_ms: f64,
    /// `Response::to_line`, microseconds.
    pub serialize_us: f64,
    /// Whether the traced reply equals the untraced one byte for byte.
    pub same_reply: bool,
}

impl Split {
    /// The traced request, line in to line out: the sum of its spans.
    pub fn traced_ms(&self) -> f64 {
        (self.parse_us + self.serialize_us) / 1e3 + self.handle_ms
    }
}

/// One answered request line.
#[derive(Clone, Debug)]
pub struct Answer {
    /// Index of the line in the input list.
    pub line: usize,
    /// Whether it was a select (otherwise an estimate).
    pub select: bool,
    /// Line in to line out, untraced, milliseconds.
    pub ms: f64,
    /// Seconds from the start of the client loop to the reply.
    pub done_s: f64,
    /// The untraced response line.
    pub reply: String,
    /// Whether the response was a success.
    pub ok: bool,
    /// Layer split, for traced queries.
    pub split: Option<Split>,
}

/// Time one untraced request: the line goes through `handle_line` and the
/// reply through `to_line`, as a transport would do it.
pub fn answer(svc: &ComicService, lines: &[String], i: usize) -> Answer {
    let line = &lines[i];
    let t = Instant::now();
    let resp = svc.handle_line(line);
    let reply = resp.to_line();
    let ms = ms_since(t);
    Answer {
        line: i,
        select: line.contains("\"select\""),
        ms,
        done_s: 0.0,
        ok: !matches!(resp, Response::Error { .. }),
        reply,
        split: None,
    }
}

/// Time one request three ways, back to back under the same load: untraced
/// as [`answer`] does; traced, with parse, handle and serialize as
/// separate spans; and the selection or estimate inside `handle` called
/// directly on the pool.
pub fn answer_paired(svc: &ComicService, lines: &[String], i: usize) -> Answer {
    let mut a = answer(svc, lines, i);
    let t0 = Instant::now();
    let req = parse_request(&lines[i]);
    let parse_us = ms_since(t0) * 1e3;
    let t1 = Instant::now();
    let resp = match &req {
        Ok(r) => svc.handle(r),
        Err(e) => Response::parse_error(e),
    };
    let handle_ms = ms_since(t1);
    let t2 = Instant::now();
    let reply = resp.to_line();
    let serialize_us = ms_since(t2) * 1e3;
    let inner_ms = req.as_ref().map_or(0.0, |r| direct_call(svc, r));
    a.split = Some(Split {
        parse_us,
        handle_ms,
        inner_ms,
        serialize_us,
        same_reply: reply == a.reply,
    });
    a
}

/// The work `handle` does for `req`, called on the pool directly:
/// prefix → standalone index build → selector for a budgeted select,
/// `run_on_pool` over the resident index otherwise, `estimate_spread` for
/// an estimate. Returns milliseconds.
fn direct_call(svc: &ComicService, req: &Request) -> f64 {
    match req {
        Request::Select {
            pool,
            k,
            selector,
            budget,
            ..
        } => {
            let Some(p) = svc.pool(pool) else { return 0.0 };
            let selector = selector.unwrap_or(SelectorKind::Celf);
            let t = Instant::now();
            match budget {
                Some(b) if (*b as usize) < p.len() => {
                    let pre = p.prefix(*b as usize);
                    let index = CoverageIndex::build(pre.store(), pre.num_nodes(), THREADS);
                    selector.select(&index, pre.store(), *k, THREADS);
                }
                _ => {
                    let tc = TimConfig::new(*k).selector(selector).threads(THREADS);
                    let _ = RisPipeline::new(tc).run_on_pool(&p);
                }
            }
            ms_since(t)
        }
        Request::Estimate { pool, seeds, .. } => {
            let Some(p) = svc.pool(pool) else { return 0.0 };
            let nodes: Vec<NodeId> = seeds.iter().map(|&s| NodeId(s)).collect();
            timed(|| p.estimate_spread(&nodes)).1
        }
        _ => 0.0,
    }
}

/// Run `clients` closed-loop clients until `keep_going` turns false.
/// Client `c` sends lines `start + c`, `start + c + clients`, … (wrapping),
/// each only after the previous reply. Returns the answers and the wall
/// time in seconds from start to the last reply.
pub fn closed_loop(
    svc: &ComicService,
    lines: &[String],
    start: usize,
    clients: usize,
    traced: bool,
    keep_going: &(dyn Fn() -> bool + Sync),
) -> (Vec<Answer>, f64) {
    let t0 = Instant::now();
    let per_client: Vec<Vec<Answer>> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..clients)
            .map(|c| {
                s.spawn(move || {
                    let mut out = Vec::new();
                    let mut i = start + c;
                    while keep_going() {
                        let idx = i % lines.len();
                        let mut a = if traced {
                            answer_paired(svc, lines, idx)
                        } else {
                            answer(svc, lines, idx)
                        };
                        a.done_s = t0.elapsed().as_secs_f64();
                        out.push(a);
                        i += clients;
                    }
                    out
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect()
    });
    let wall_s = t0.elapsed().as_secs_f64();
    (per_client.into_iter().flatten().collect(), wall_s)
}

/// `(completion second, latency)` of the answers `pick` selects.
pub fn timeline(answers: &[Answer], pick: impl Fn(&Answer) -> bool) -> Vec<(f64, f64)> {
    answers
        .iter()
        .filter(|a| pick(a))
        .map(|a| (a.done_s, a.ms))
        .collect()
}

/// Protocol and service metrics from paired selects (see
/// [`answer_paired`]), and the reconciliation of their stage sum (parse +
/// service self + selection + serialize) with the untraced select time.
pub fn split_metrics(paired: &[Answer], m: &mut Metrics) {
    let selects: Vec<(f64, Split)> = paired
        .iter()
        .filter(|a| a.select)
        .filter_map(|a| a.split.map(|s| (a.ms, s)))
        .collect();
    if selects.is_empty() {
        return;
    }
    let avg = |f: &dyn Fn(&(f64, Split)) -> f64| mean(&selects.iter().map(f).collect::<Vec<_>>());
    let parse_ms = avg(&|(_, s)| s.parse_us / 1e3);
    let ser_ms = avg(&|(_, s)| s.serialize_us / 1e3);
    let inner_ms = avg(&|(_, s)| s.inner_ms);
    let self_ms = avg(&|(_, s)| s.handle_ms - s.inner_ms);
    let untraced_ms = avg(&|(ms, _)| *ms);
    let stage_sum = parse_ms + self_ms + inner_ms + ser_ms;
    m.set("protocol.parse_us", parse_ms * 1e3);
    m.set("protocol.serialize_us", ser_ms * 1e3);
    m.set("service.self_ms", self_ms);
    if stage_sum > 0.0 {
        m.set("protocol.parse_share", parse_ms / stage_sum);
        m.set("protocol.serialize_share", ser_ms / stage_sum);
        m.set("service.self_share", self_ms / stage_sum);
    }
    m.set("reconcile.main_err", rel_err(stage_sum, untraced_ms));
}

/// End-to-end metrics of a paired phase (see [`answer_paired`]), once from
/// the untraced times and once from the traced span sums: select p50/p90
/// (main), estimate p50 (side), and requests per second of the `clients`
/// busy clients.
pub fn paired_metrics(
    paired: &[Answer],
    clients: usize,
    untraced: &mut Metrics,
    traced: &mut Metrics,
) {
    let fill = |m: &mut Metrics, time: &dyn Fn(&Answer) -> f64| {
        let main: Vec<f64> = paired.iter().filter(|a| a.select).map(time).collect();
        let side: Vec<f64> = paired.iter().filter(|a| !a.select).map(time).collect();
        let busy_s = paired.iter().map(time).sum::<f64>() / 1e3;
        m.set("main_p50_ms", median(&main));
        m.set("main_p90_ms", quantile(&main, 0.9));
        m.set("side_p50_ms", median(&side));
        m.set(
            "ops_per_s",
            clients as f64 * paired.len() as f64 / busy_s.max(1e-9),
        );
    };
    fill(untraced, &|a| a.ms);
    fill(traced, &|a| a.split.map_or(a.ms, |s| s.traced_ms()));
}

/// Direct calls into the selection layer on a resident pool, each the
/// median of `reps` serial calls: CELF at k=10 and k=50 on the query
/// thread count, CELF k=10 on one thread, naive greedy k=10, the budgeted
/// path (half-pool prefix, then a standalone index build), and an
/// estimate of ten seeds. Also records the pool's exact size.
pub fn probe_pool(pool: &SketchPool, reps: usize, m: &mut Metrics) {
    let reps = reps.max(1);
    let run = |k: usize, selector: SelectorKind, threads: usize| {
        let tc = TimConfig::new(k).selector(selector).threads(threads);
        let pipe = RisPipeline::new(tc);
        let mut ms = Vec::with_capacity(reps);
        let mut last = None;
        for _ in 0..reps {
            let (r, t) = timed(|| pipe.run_on_pool(pool).expect("k within the pool's nodes"));
            ms.push(t);
            last = Some(r);
        }
        (median(&ms), last.expect("reps >= 1"))
    };
    let (k10, _) = run(10, SelectorKind::Celf, THREADS);
    let (k50, r50) = run(50, SelectorKind::Celf, THREADS);
    let (k10_1t, _) = run(10, SelectorKind::Celf, 1);
    let (naive, _) = run(10, SelectorKind::NaiveGreedy, THREADS);
    m.set("select.celf_k10_ms", k10);
    m.set("select.celf_k50_ms", k50);
    m.set("select.celf_k10_1t_ms", k10_1t);
    m.set("select.naive_k10_ms", naive);
    m.set("select.covered_k50", r50.covered as f64);

    let half = (pool.len() / 2).max(1);
    let (mut prefix_ms, mut build_ms, mut est_ms) = (vec![], vec![], vec![]);
    let seeds: Vec<NodeId> = r50.seeds.iter().take(10).copied().collect();
    for _ in 0..reps {
        let (pre, t) = timed(|| pool.prefix(half));
        prefix_ms.push(t);
        build_ms.push(timed(|| CoverageIndex::build(pre.store(), pre.num_nodes(), THREADS)).1);
        est_ms.push(timed(|| pool.estimate_spread(&seeds)).1);
    }
    m.set("pool.prefix_ms", median(&prefix_ms));
    m.set("index.build_ms", median(&build_ms));
    m.set("pool.estimate_ms", median(&est_ms));
    m.set("pool.sketches", pool.len() as f64);
    m.set("pool.members", pool.store().total_members() as f64);
}
