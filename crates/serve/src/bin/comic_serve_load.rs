//! `comic-serve-load` — deterministic load driver for the query service.
//!
//! Starts an in-process [`ComicService`], replays a fixed query mix per
//! class (warm selects at several shapes, warm estimates, and a cold
//! full-pipeline baseline that re-samples from scratch), and writes
//! `BENCH_serving.json` with queries/sec, p50/p99 latency, and outcome
//! counts (`ok`/`degraded`/`shed`/`deadline`) per class. The query *mix*
//! is deterministic; only the measured timings vary run to run.
//!
//! Robustness knobs mirror `comic-serve`: `--inflight-cap` and
//! `--deadline-ms` exercise admission control and deadline degradation,
//! `--faults` replays a deterministic chaos plan under load (the CI chaos
//! smoke runs `--quick` with a nonzero fault rate and still requires a
//! schema-valid snapshot and zero unexpected errors).
//!
//! `--validate <path>` re-checks an existing snapshot against its schema —
//! `BENCH_serving.json` (`"bench": "serving"`) or the criterion driver's
//! `BENCH_seed_selection.json` (`"bench": "seed_selection"`) — and exits
//! nonzero on a mismatch (the CI smoke steps).

use comic_bench::datasets::{load_with, CacheMode};
use comic_bench::metrics::{percentile, round3, OutcomeCounts};
use comic_graph::fasthash::splitmix64;
use comic_graph::io::graph_digest;
use comic_graph::store;
use comic_graph::DiGraph;
use comic_ris::ic_sampler::IcRrSampler;
use comic_ris::parallel::resolve_threads;
use comic_ris::select::SelectorKind;
use comic_ris::tim::TimConfig;
use comic_ris::RisPipeline;
use comic_serve::faults::FaultPlan;
use comic_serve::json::{self, build, Json};
use comic_serve::protocol::{EpsTier, PoolKey, Request, SamplerKind};
use comic_serve::service::{ComicService, ServeConfig};
use std::process::ExitCode;
use std::sync::Arc;
use std::time::Instant;

const USAGE: &str = "\
comic-serve-load — deterministic load driver for comic-serve

USAGE:
  comic-serve-load [--dataset <name>] [--quick] [--out <path>]
                   [--inflight-cap <n|none>] [--deadline-ms <n|none>]
                   [--faults <spec>]
  comic-serve-load --validate <path>

OPTIONS:
  --dataset <name>         dataset to serve (default: fixture-small)
  --quick                  small repetition counts (CI smoke)
  --out <path>             output path (default: BENCH_serving.json)
  --inflight-cap <n|none>  service admission cap; over-cap queries shed
                           with 'overloaded' (default: none)
  --deadline-ms <n|none>   implicit per-query deadline; short deadlines
                           degrade answers deterministically
                           (default: none)
  --faults <spec>          deterministic fault plan, e.g.
                           'seed=7,query-delay=0.1@20' (default: none)
  --validate <path>        schema-check an existing snapshot; write nothing
  -h, --help               this help
";

struct Timings {
    name: &'static str,
    millis: Vec<f64>,
    outcomes: OutcomeCounts,
}

impl Timings {
    fn row(&self) -> Json {
        let mut sorted = self.millis.clone();
        sorted.sort_by(|a, b| a.total_cmp(b));
        let total_s: f64 = self.millis.iter().sum::<f64>() / 1_000.0;
        let qps = if total_s > 0.0 {
            self.millis.len() as f64 / total_s
        } else {
            0.0
        };
        build::obj(vec![
            ("name", build::str(self.name)),
            ("queries", build::num_u64(self.millis.len() as u64)),
            ("qps", build::num(round3(qps))),
            ("p50_ms", build::num(round3(percentile(&sorted, 0.50)))),
            ("p99_ms", build::num(round3(percentile(&sorted, 0.99)))),
            (
                "mean_ms",
                build::num(round3(
                    self.millis.iter().sum::<f64>() / self.millis.len().max(1) as f64,
                )),
            ),
            ("ok", build::num_u64(self.outcomes.ok)),
            ("degraded", build::num_u64(self.outcomes.degraded)),
            ("shed", build::num_u64(self.outcomes.shed)),
            ("deadline", build::num_u64(self.outcomes.deadline)),
        ])
    }
}

/// Time `reps` runs of `f`, classifying each returned response line
/// (`None` — e.g. the cold baseline, which has no protocol line — counts
/// as `ok`).
fn timed<F: FnMut() -> Option<String>>(name: &'static str, reps: usize, mut f: F) -> Timings {
    let mut millis = Vec::with_capacity(reps);
    let mut outcomes = OutcomeCounts::default();
    for _ in 0..reps {
        let t = Instant::now();
        let line = f();
        millis.push(t.elapsed().as_secs_f64() * 1_000.0);
        match line {
            Some(l) => outcomes.record_line(&l),
            None => outcomes.ok += 1,
        }
    }
    Timings {
        name,
        millis,
        outcomes,
    }
}

/// Schema dispatch on the snapshot's `"bench"` field: `"serving"`
/// snapshots (this driver's own output) and `"seed_selection"` snapshots
/// (the committed `BENCH_seed_selection.json` from the criterion driver)
/// are both accepted; the error names the first missing piece.
fn validate_schema(v: &Json) -> Result<(), String> {
    match v.get("bench").and_then(Json::as_str) {
        Some("serving") => validate_serving_schema(v),
        Some("seed_selection") => validate_seed_selection_schema(v),
        Some("incremental") => validate_incremental_schema(v),
        _ => Err(
            "field \"bench\" must be \"serving\", \"seed_selection\", or \"incremental\"".into(),
        ),
    }
}

/// Required schema of a `BENCH_incremental.json` snapshot: graph
/// provenance, pool size, the host's core count next to the thread count,
/// and per-ratio run rows pairing the incremental refit against the full
/// rebuild it replaces.
fn validate_incremental_schema(v: &Json) -> Result<(), String> {
    v.get("graph")
        .and_then(Json::as_obj)
        .ok_or("missing object field \"graph\"")?;
    for f in ["host_cores", "sketches", "threads"] {
        if v.get(f).and_then(Json::as_f64).is_none() {
            return Err(format!("missing numeric field {f:?}"));
        }
    }
    let runs = v
        .get("runs")
        .and_then(Json::as_arr)
        .ok_or("missing array field \"runs\"")?;
    if runs.is_empty() {
        return Err("\"runs\" must be non-empty".into());
    }
    let mut labels = Vec::new();
    for (i, r) in runs.iter().enumerate() {
        let label = r
            .get("label")
            .and_then(Json::as_str)
            .ok_or_else(|| format!("runs[{i}]: missing \"label\""))?;
        labels.push(label.to_string());
        for f in ["delta_bp", "secs", "sets_regenerated", "total_sets"] {
            if r.get(f).and_then(Json::as_f64).is_none() {
                return Err(format!("runs[{i}] ({label}): missing numeric {f:?}"));
            }
        }
    }
    for prefix in ["incremental/", "full_rebuild/"] {
        if !labels.iter().any(|l| l.starts_with(prefix)) {
            return Err(format!("no run labelled with prefix {prefix:?}"));
        }
    }
    Ok(())
}

/// Required schema of a `BENCH_seed_selection.json` snapshot: graph and
/// workload provenance, the host's core count, the calls per row
/// (`reps`, each row their median), the active SIMD mode, the caveat
/// note, and per-run `{label, threads, secs}` rows for the index build and
/// both selectors.
fn validate_seed_selection_schema(v: &Json) -> Result<(), String> {
    for f in ["simd", "note"] {
        if v.get(f).and_then(Json::as_str).is_none() {
            return Err(format!("missing string field {f:?}"));
        }
    }
    for f in ["host_cores", "rr_sets", "k", "reps", "total_members"] {
        if v.get(f).and_then(Json::as_f64).is_none() {
            return Err(format!("missing numeric field {f:?}"));
        }
    }
    if v.get("graph").is_none() {
        return Err("missing field \"graph\"".into());
    }
    let runs = v
        .get("runs")
        .and_then(Json::as_arr)
        .ok_or("missing array field \"runs\"")?;
    if runs.is_empty() {
        return Err("\"runs\" must be non-empty".into());
    }
    let mut labels = Vec::new();
    for (i, r) in runs.iter().enumerate() {
        let label = r
            .get("label")
            .and_then(Json::as_str)
            .ok_or_else(|| format!("runs[{i}]: missing \"label\""))?;
        labels.push(label.to_string());
        for f in ["threads", "secs"] {
            if r.get(f).and_then(Json::as_f64).is_none() {
                return Err(format!("runs[{i}] ({label}): missing numeric {f:?}"));
            }
        }
    }
    for required in ["index_build", "select_naive", "select_celf"] {
        if !labels.iter().any(|l| l == required) {
            return Err(format!("required run label {required:?} is absent"));
        }
    }
    Ok(())
}

/// Measure the restart story on `fixture-medium`: the wall-clock of
/// re-materializing the graph without a cache (read and parse the source
/// text, then apply the probability model —
/// `load_with(.., CacheMode::Off)`) vs a v4 zero-copy store load (open →
/// map/bulk-read → verify → reinterpret), min over `reps` to suppress
/// scheduler noise. Returns the `"restart"` snapshot object.
fn restart_rows(quick: bool) -> Result<Json, String> {
    let reps = if quick { 3 } else { 7 };
    let parse = || load_with("fixture-medium", CacheMode::Off).map(|l| l.graph);
    let g = parse().map_err(|e| format!("fixture-medium load failed: {e}"))?;
    let want = graph_digest(&g);

    let dir = std::env::temp_dir().join(format!("comic-serve-load-restart-{}", std::process::id()));
    std::fs::create_dir_all(&dir).map_err(|e| format!("mkdir {}: {e}", dir.display()))?;
    let v4_path = dir.join("fixture-medium.v4.grb");
    // The graph digest stands in for the recorded source digest: any
    // recorded word makes the timed load run its staleness check.
    store::write_store_file(&g, want, &v4_path).map_err(|e| format!("v4 write: {e}"))?;

    let mode = store::detect();
    // Time ONLY the load; the structural-digest correctness check runs on
    // the last loaded graph outside the timed region (it is a full graph
    // walk and would otherwise dominate both columns).
    let min_ms = |f: &mut dyn FnMut() -> Arc<DiGraph>| -> (f64, f64) {
        let (mut best, mut sum) = (f64::INFINITY, 0.0);
        let mut last = None;
        for _ in 0..reps {
            let t = Instant::now();
            let h = f();
            let ms = t.elapsed().as_secs_f64() * 1_000.0;
            best = best.min(ms);
            sum += ms;
            last = Some(h);
        }
        let last = last.expect("reps >= 1");
        assert_eq!(
            graph_digest(&last),
            want,
            "restart load must reproduce the graph"
        );
        (best, sum / reps as f64)
    };
    let (text_min, text_mean) = min_ms(&mut || parse().expect("text load"));
    let (v4_min, v4_mean) = min_ms(&mut || {
        Arc::new(store::read_store_file_with(&v4_path, Some(want), mode).expect("v4 load"))
    });
    let _ = std::fs::remove_dir_all(&dir);

    let row = |name: &str, min: f64, mean: f64| {
        build::obj(vec![
            ("name", build::str(name)),
            ("reps", build::num_u64(reps as u64)),
            ("min_ms", build::num(round3(min))),
            ("mean_ms", build::num(round3(mean))),
        ])
    };
    Ok(build::obj(vec![
        ("dataset", build::str("fixture-medium")),
        ("nodes", build::num_u64(g.num_nodes() as u64)),
        ("edges", build::num_u64(g.num_edges() as u64)),
        ("store_mode", build::str(store::StoreMode::name(mode))),
        (
            "rows",
            Json::Arr(vec![
                row("text_parse", text_min, text_mean),
                row("v4_zero_copy", v4_min, v4_mean),
            ]),
        ),
        (
            "speedup_v4_vs_text",
            build::num(round3(if v4_min > 0.0 { text_min / v4_min } else { 0.0 })),
        ),
    ]))
}

/// Required schema of a `BENCH_serving.json` snapshot.
fn validate_serving_schema(v: &Json) -> Result<(), String> {
    let expect_str = |f: &str| {
        v.get(f)
            .and_then(Json::as_str)
            .map(|_| ())
            .ok_or_else(|| format!("missing string field {f:?}"))
    };
    let expect_num = |f: &str| {
        v.get(f)
            .and_then(Json::as_f64)
            .map(|_| ())
            .ok_or_else(|| format!("missing numeric field {f:?}"))
    };
    expect_str("dataset")?;
    expect_str("pool")?;
    expect_str("caveat")?;
    expect_str("faults")?;
    for f in [
        "host_cores",
        "gen_threads",
        "threads",
        "design_k",
        "sketches",
    ] {
        expect_num(f)?;
    }
    let classes = v
        .get("classes")
        .and_then(Json::as_arr)
        .ok_or("missing array field \"classes\"")?;
    if classes.is_empty() {
        return Err("\"classes\" must be non-empty".into());
    }
    let mut names = Vec::new();
    for (i, c) in classes.iter().enumerate() {
        let name = c
            .get("name")
            .and_then(Json::as_str)
            .ok_or_else(|| format!("classes[{i}]: missing \"name\""))?;
        names.push(name.to_string());
        for f in [
            "queries", "qps", "p50_ms", "p99_ms", "mean_ms", "ok", "degraded", "shed", "deadline",
        ] {
            if c.get(f).and_then(Json::as_f64).is_none() {
                return Err(format!("classes[{i}] ({name}): missing numeric {f:?}"));
            }
        }
    }
    for required in ["warm_select_k10", "cold_pipeline_k10"] {
        if !names.iter().any(|n| n == required) {
            return Err(format!("required class {required:?} is absent"));
        }
    }
    // The restart section records the zero-copy store's reason to exist:
    // a cache-less reload (text parse) vs a v4 zero-copy reload of
    // fixture-medium.
    let restart = v.get("restart").ok_or("missing object field \"restart\"")?;
    if restart
        .get("speedup_v4_vs_text")
        .and_then(Json::as_f64)
        .is_none()
    {
        return Err("restart: missing numeric \"speedup_v4_vs_text\"".into());
    }
    let rows = restart
        .get("rows")
        .and_then(Json::as_arr)
        .ok_or("restart: missing array field \"rows\"")?;
    for required in ["text_parse", "v4_zero_copy"] {
        let row = rows
            .iter()
            .find(|r| r.get("name").and_then(Json::as_str) == Some(required))
            .ok_or_else(|| format!("restart: required row {required:?} is absent"))?;
        for f in ["reps", "min_ms", "mean_ms"] {
            if row.get(f).and_then(Json::as_f64).is_none() {
                return Err(format!("restart row {required}: missing numeric {f:?}"));
            }
        }
    }
    Ok(())
}

fn main() -> ExitCode {
    let mut dataset = "fixture-small".to_string();
    let mut quick = false;
    let mut out = "BENCH_serving.json".to_string();
    let mut validate: Option<String> = None;
    let mut inflight_cap: Option<u64> = None;
    let mut deadline_ms: Option<u64> = None;
    let mut fault_spec = String::new();

    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--dataset" => match args.next() {
                Some(v) => dataset = v,
                None => return fail("--dataset needs a value"),
            },
            "--quick" => quick = true,
            "--out" => match args.next() {
                Some(v) => out = v,
                None => return fail("--out needs a value"),
            },
            "--inflight-cap" => match args.next() {
                Some(v) if v == "none" => inflight_cap = None,
                Some(v) => match v.parse() {
                    Ok(n) => inflight_cap = Some(n),
                    Err(e) => return fail(&format!("--inflight-cap: {e}")),
                },
                None => return fail("--inflight-cap needs a value"),
            },
            "--deadline-ms" => match args.next() {
                Some(v) if v == "none" => deadline_ms = None,
                Some(v) => match v.parse() {
                    Ok(n) => deadline_ms = Some(n),
                    Err(e) => return fail(&format!("--deadline-ms: {e}")),
                },
                None => return fail("--deadline-ms needs a value"),
            },
            "--faults" => match args.next() {
                Some(v) => fault_spec = v,
                None => return fail("--faults needs a value"),
            },
            "--validate" => match args.next() {
                Some(v) => validate = Some(v),
                None => return fail("--validate needs a value"),
            },
            "-h" | "--help" => {
                println!("{USAGE}");
                return ExitCode::SUCCESS;
            }
            other => return fail(&format!("unknown argument {other:?}")),
        }
    }

    if let Some(path) = validate {
        let text = match std::fs::read_to_string(&path) {
            Ok(t) => t,
            Err(e) => return fail(&format!("cannot read {path}: {e}")),
        };
        let v = match json::parse(&text) {
            Ok(v) => v,
            Err(e) => return fail(&format!("{path}: not valid JSON: {e}")),
        };
        return match validate_schema(&v) {
            Ok(()) => {
                println!("comic-serve-load: {path} matches the snapshot schema");
                ExitCode::SUCCESS
            }
            Err(e) => fail(&format!("{path}: schema violation: {e}")),
        };
    }

    let faults = match FaultPlan::parse(&fault_spec) {
        Ok(p) => p,
        Err(e) => return fail(&format!("--faults: {e}")),
    };

    let (warm_reps, cold_reps) = if quick { (5, 1) } else { (40, 3) };

    let mut cfg = ServeConfig::new(&dataset);
    cfg.design_k = 50;
    cfg.max_rr_sets = Some(if quick { 20_000 } else { 60_000 });
    cfg.max_in_flight = inflight_cap;
    cfg.default_deadline_ms = deadline_ms;
    cfg.faults = faults;
    let pool_key =
        PoolKey::new(SamplerKind::VanillaIc, "default", EpsTier::Coarse).expect("static key");
    cfg.pools = vec![pool_key.clone()];
    let host_cores = resolve_threads(0);
    let gen_threads = cfg.gen_threads;
    let threads = cfg.threads;
    let design_k = cfg.design_k;
    let max_rr = cfg.max_rr_sets;
    let seed = cfg.seed;

    eprintln!("comic-serve-load: warming {dataset}...");
    let svc = match ComicService::start(cfg) {
        Ok(s) => s,
        Err(e) => return fail(&format!("startup failed: {e}")),
    };
    let pool = svc.pool(&pool_key).expect("warmed pool");
    let sketches = pool.len();
    let n = svc.graph().num_nodes() as u32;
    let builds_before = svc.pool_builds();

    let select = |k: usize, selector: Option<SelectorKind>, budget: Option<u64>| Request::Select {
        pool: pool_key.clone(),
        k,
        selector,
        budget,
        deadline_ms: None,
    };
    // Deterministic estimate seed sets, spread over the id space.
    let estimate_req = |i: u64| {
        let seeds = (0..10)
            .map(|j| (splitmix64(i ^ (j << 32)) % u64::from(n.max(1))) as u32)
            .collect();
        Request::Estimate {
            pool: pool_key.clone(),
            seeds,
            budget: None,
            deadline_ms: None,
        }
    };

    eprintln!("comic-serve-load: replaying query mix ({warm_reps} warm reps/class)...");
    let mut classes = Vec::new();
    classes.push(timed("warm_select_k10", warm_reps, || {
        Some(svc.handle(&select(10, None, None)).to_line())
    }));
    classes.push(timed("warm_select_k50", warm_reps, || {
        Some(svc.handle(&select(50, None, None)).to_line())
    }));
    classes.push(timed("warm_select_k10_budget_half", warm_reps, || {
        Some(
            svc.handle(&select(10, None, Some((sketches / 2).max(1) as u64)))
                .to_line(),
        )
    }));
    classes.push(timed("warm_select_k10_naive", warm_reps, || {
        Some(
            svc.handle(&select(10, Some(SelectorKind::NaiveGreedy), None))
                .to_line(),
        )
    }));
    {
        let mut i = 0u64;
        classes.push(timed("warm_estimate_10seeds", warm_reps, || {
            i += 1;
            Some(svc.handle(&estimate_req(i)).to_line())
        }));
    }
    assert_eq!(
        svc.pool_builds(),
        builds_before,
        "warm classes must not regenerate sketches"
    );
    // Shed/degraded/deadline outcomes are legitimate under a cap, a tight
    // deadline, or a fault plan — but *unexpected* errors never are.
    for t in &classes {
        if t.outcomes.other_error > 0 {
            return fail(&format!(
                "class {} had {} unexpected error responses",
                t.name, t.outcomes.other_error
            ));
        }
    }

    // Cold baseline: a full pipeline run (KPT* + theta sampling + select)
    // on the same graph and sampler — what every query would cost without
    // the resident pool.
    eprintln!("comic-serve-load: cold full-pipeline baseline ({cold_reps} reps)...");
    let g = svc.graph().clone();
    classes.push(timed("cold_pipeline_k10", cold_reps, || {
        let mut tc = TimConfig::new(10)
            .epsilon(EpsTier::Coarse.epsilon())
            .seed(seed)
            .threads(gen_threads);
        if let Some(cap) = max_rr {
            tc = tc.max_rr_sets(cap);
        }
        RisPipeline::new(tc)
            .run(|| IcRrSampler::new(&g))
            .expect("cold pipeline");
        None
    }));

    eprintln!("comic-serve-load: restart reload comparison (fixture-medium, text vs v4)...");
    let restart = match restart_rows(quick) {
        Ok(r) => r,
        Err(e) => return fail(&format!("restart rows: {e}")),
    };

    let report = build::obj(vec![
        ("bench", build::str("serving")),
        ("dataset", build::str(&*dataset)),
        ("quick", Json::Bool(quick)),
        ("host_cores", build::num_u64(host_cores as u64)),
        ("gen_threads", build::num_u64(gen_threads as u64)),
        ("threads", build::num_u64(threads as u64)),
        ("design_k", build::num_u64(design_k as u64)),
        ("pool", build::str(pool_key.to_string())),
        ("sketches", build::num_u64(sketches as u64)),
        ("faults", build::str(&*fault_spec)),
        (
            "inflight_cap",
            match inflight_cap {
                Some(n) => build::num_u64(n),
                None => Json::Null,
            },
        ),
        (
            "deadline_ms",
            match deadline_ms {
                Some(n) => build::num_u64(n),
                None => Json::Null,
            },
        ),
        (
            "classes",
            Json::Arr(classes.iter().map(Timings::row).collect()),
        ),
        ("restart", restart.clone()),
        (
            "caveat",
            build::str(format!(
                "measured on a {host_cores}-core host: absolute latencies and qps are \
                 indicative only; the warm-vs-cold ratio is the signal"
            )),
        ),
    ]);
    let text = report.serialize();
    // Self-check before committing bytes to disk: the snapshot must parse
    // and satisfy the same schema `--validate` enforces.
    let reparsed = json::parse(&text).expect("self-emitted JSON parses");
    if let Err(e) = validate_schema(&reparsed) {
        return fail(&format!(
            "internal error: emitted snapshot fails schema: {e}"
        ));
    }
    if let Err(e) = std::fs::write(&out, format!("{text}\n")) {
        return fail(&format!("cannot write {out}: {e}"));
    }
    println!("comic-serve-load: wrote {out}");
    if let Some(speedup) = restart.get("speedup_v4_vs_text").and_then(Json::as_f64) {
        println!("  restart reload (fixture-medium): v4 zero-copy is {speedup:.1}x the text parse");
    }
    for t in &classes {
        let mut sorted = t.millis.clone();
        sorted.sort_by(|a, b| a.total_cmp(b));
        println!(
            "  {:28} {:4} queries  p50 {:9.3} ms  p99 {:9.3} ms  \
             ok {} degraded {} shed {} deadline {}",
            t.name,
            t.millis.len(),
            percentile(&sorted, 0.50),
            percentile(&sorted, 0.99),
            t.outcomes.ok,
            t.outcomes.degraded,
            t.outcomes.shed,
            t.outcomes.deadline,
        );
    }
    ExitCode::SUCCESS
}

fn fail(msg: &str) -> ExitCode {
    eprintln!("comic-serve-load: {msg}");
    eprintln!("{USAGE}");
    ExitCode::FAILURE
}
