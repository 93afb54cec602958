//! `comic-serve-load` — deterministic load driver for the query service.
//!
//! Starts an in-process [`ComicService`], replays a fixed query mix per
//! class (warm selects at several shapes, warm estimates, and a cold
//! full-pipeline baseline that re-samples from scratch), and writes
//! `BENCH_serving.json` with queries/sec, p50/p99 latency, and outcome
//! counts (`ok`/`degraded`/`shed`/`deadline`) per class. The query *mix*
//! is deterministic; only the measured timings vary run to run. A
//! `restart` section times fixture-medium reloads: a text parse against a
//! v4 store load, and a service restart from a spilled pool against its
//! two reads, each timed alone.
//!
//! Robustness knobs mirror `comic-serve`: `--inflight-cap` and
//! `--deadline-ms` exercise admission control and deadline degradation,
//! `--faults` replays a deterministic chaos plan under load (the CI chaos
//! smoke runs `--quick` with a nonzero fault rate and still requires a
//! schema-valid snapshot and zero unexpected errors).
//!
//! `--validate <path>` re-checks an existing snapshot against its schema
//! and ratio gates — `BENCH_serving.json` (`"bench": "serving"`) or the
//! criterion drivers' `BENCH_seed_selection.json` (`"bench":
//! "seed_selection"`), `BENCH_incremental.json` (`"bench":
//! "incremental"`) and `BENCH_simulation.json` (`"bench": "simulation"`)
//! — and exits nonzero on a mismatch (the CI smoke steps).

use comic_bench::datasets::{self, load_with, CacheMode};
use comic_bench::metrics::{percentile, round3, OutcomeCounts};
use comic_graph::fasthash::splitmix64;
use comic_graph::io::graph_digest;
use comic_graph::store;
use comic_ris::ic_sampler::IcRrSampler;
use comic_ris::parallel::resolve_threads;
use comic_ris::select::SelectorKind;
use comic_ris::tim::TimConfig;
use comic_ris::{spill, RisPipeline};
use comic_serve::faults::FaultPlan;
use comic_serve::json::{self, build, Json};
use comic_serve::protocol::{EpsTier, PoolKey, Request, SamplerKind};
use comic_serve::service::{ComicService, ServeConfig};
use std::process::ExitCode;
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
/// snapshots (this driver's own output), and `"seed_selection"`,
/// `"incremental"` and `"simulation"` snapshots (the committed ones from
/// the criterion drivers) are accepted; the error names the first missing
/// piece.
fn validate_schema(v: &Json) -> Result<(), String> {
    match v.get("bench").and_then(Json::as_str) {
        Some("serving") => validate_serving_schema(v),
        Some("seed_selection") => validate_seed_selection_schema(v),
        Some("incremental") => validate_incremental_schema(v),
        Some("simulation") => validate_simulation_schema(v),
        _ => Err(
            "field \"bench\" must be \"serving\", \"seed_selection\", \"incremental\", \
                  or \"simulation\""
                .into(),
        ),
    }
}

/// Rows a `BENCH_simulation.json` snapshot must hold.
const SIMULATION_ROWS: [&str; 6] = [
    "cascade/coin",
    "cascade/world",
    "estimate/1t",
    "estimate/2t",
    "surrogates/sequential",
    "surrogates/join",
];

/// Required schema of a `BENCH_simulation.json` snapshot: graph
/// provenance, the host's core count, the calls per row, and the
/// [`SIMULATION_ROWS`], each with its thread count, `reps`, `host_cores`
/// and median `secs`. Two ratios are gated, never an absolute time: the
/// 2-thread estimate must be faster than the 1-thread one when the host
/// has 2 or more cores, and the surrogate builds through `join` faster
/// than the same two builds one after the other.
fn validate_simulation_schema(v: &Json) -> Result<(), String> {
    v.get("graph")
        .and_then(Json::as_obj)
        .ok_or("missing object field \"graph\"")?;
    let header = |f: &str| {
        v.get(f)
            .and_then(Json::as_f64)
            .ok_or_else(|| format!("missing numeric field {f:?}"))
    };
    let host_cores = header("host_cores")?;
    header("reps")?;
    let runs = v
        .get("runs")
        .and_then(Json::as_arr)
        .ok_or("missing array field \"runs\"")?;
    let mut secs_by_label = Vec::new();
    for (i, r) in runs.iter().enumerate() {
        let label = r
            .get("label")
            .and_then(Json::as_str)
            .ok_or_else(|| format!("runs[{i}]: missing \"label\""))?;
        for f in ["threads", "reps", "host_cores"] {
            if r.get(f).and_then(Json::as_f64).is_none() {
                return Err(format!("runs[{i}] ({label}): missing numeric {f:?}"));
            }
        }
        let secs = r
            .get("secs")
            .and_then(Json::as_f64)
            .ok_or_else(|| format!("runs[{i}] ({label}): missing numeric \"secs\""))?;
        secs_by_label.push((label, secs));
    }
    let secs = |required: &str| {
        secs_by_label
            .iter()
            .find(|(l, _)| *l == required)
            .map(|&(_, s)| s)
            .ok_or_else(|| format!("required run label {required:?} is absent"))
    };
    for row in SIMULATION_ROWS {
        secs(row)?;
    }
    let faster = |fast: &str, slow: &str| {
        let (a, b) = (secs(fast)?, secs(slow)?);
        if a < b {
            Ok(())
        } else {
            Err(format!("{fast} ({a} s) is not faster than {slow} ({b} s)"))
        }
    };
    if host_cores >= 2.0 {
        faster("estimate/2t", "estimate/1t")?;
    }
    faster("surrogates/join", "surrogates/sequential")
}

/// Graphs whose churn and compaction rows a `BENCH_incremental.json`
/// snapshot must hold.
const COMPACTION_GRAPHS: [&str; 2] = ["fixture-medium", "chung-lu-1m"];

/// Numeric fields of a `churn/<graph>` row, besides `secs`.
const CHURN_FIELDS: [&str; 11] = [
    "nodes",
    "edges",
    "changes",
    "threads",
    "reps",
    "total_sets",
    "sets_marked",
    "members_marked",
    "sets_touched",
    "members_touched",
    "full_rebuild_secs",
];

/// Required schema of a `BENCH_incremental.json` snapshot: graph
/// provenance, pool size, the host's core count next to the thread count,
/// per-ratio refit rows pairing the incremental refit against the full
/// rebuild it replaces, per-graph churn rows (one churn-shaped batch's
/// keyed marks next to the target-membership rule's, and the marked refit
/// next to a full rebuild), and per-graph compaction rows pairing
/// `apply_deltas` against a `from_edges` rebuild (each with its graph
/// size, batch size, thread count and calls per median). Ratios are
/// gated, never an absolute time: each `incremental/<bp>` must be faster
/// than its `full_rebuild/<bp>`; each `churn/<graph>` must mark fewer
/// members than the target rule and refit faster than its full rebuild;
/// and each `compaction/<graph>` must be faster than its
/// `rebuild/<graph>`.
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
    let mut secs_by_label = Vec::new();
    let mut churn_rows = Vec::new();
    for (i, r) in runs.iter().enumerate() {
        let label = r
            .get("label")
            .and_then(Json::as_str)
            .ok_or_else(|| format!("runs[{i}]: missing \"label\""))?;
        let compaction = label.starts_with("compaction/") || label.starts_with("rebuild/");
        let churn = label.starts_with("churn/");
        let fields: &[&str] = if compaction {
            &["nodes", "edges", "changes", "threads", "reps"]
        } else if churn {
            &CHURN_FIELDS
        } else {
            &["delta_bp", "sets_regenerated", "total_sets"]
        };
        for &f in fields {
            if r.get(f).and_then(Json::as_f64).is_none() {
                return Err(format!("runs[{i}] ({label}): missing numeric {f:?}"));
            }
        }
        if (compaction || churn) && r.get("graph").and_then(Json::as_str).is_none() {
            return Err(format!("runs[{i}] ({label}): missing string \"graph\""));
        }
        let secs = r
            .get("secs")
            .and_then(Json::as_f64)
            .ok_or_else(|| format!("runs[{i}] ({label}): missing numeric \"secs\""))?;
        secs_by_label.push((label, secs));
        if churn {
            churn_rows.push((label, r));
        }
    }
    let secs = |required: &str| {
        secs_by_label
            .iter()
            .find(|(l, _)| *l == required)
            .map(|&(_, s)| s)
            .ok_or_else(|| format!("required run label {required:?} is absent"))
    };
    let faster = |fast: &str, slow: &str| {
        let (a, b) = (secs(fast)?, secs(slow)?);
        if a < b {
            Ok(())
        } else {
            Err(format!("{fast} ({a} s) is not faster than {slow} ({b} s)"))
        }
    };
    let refits: Vec<&str> = secs_by_label
        .iter()
        .filter_map(|(l, _)| l.strip_prefix("incremental/"))
        .collect();
    if refits.is_empty() {
        return Err("no run labelled with prefix \"incremental/\"".into());
    }
    for bp in refits {
        faster(&format!("incremental/{bp}"), &format!("full_rebuild/{bp}"))?;
    }
    for graph in COMPACTION_GRAPHS {
        let label = format!("churn/{graph}");
        let row = churn_rows
            .iter()
            .find(|(l, _)| *l == label)
            .map(|&(_, r)| r)
            .ok_or_else(|| format!("required run label {label:?} is absent"))?;
        let num = |f: &str| row.get(f).and_then(Json::as_f64).unwrap_or(f64::NAN);
        let (marked, touched) = (num("members_marked"), num("members_touched"));
        (marked < touched).then_some(()).ok_or_else(|| {
            format!("{label}: members_marked ({marked}) is not below members_touched ({touched})")
        })?;
        let (refit, full) = (secs(&label)?, num("full_rebuild_secs"));
        (refit < full).then_some(()).ok_or_else(|| {
            format!("{label} ({refit} s) is not faster than its full rebuild ({full} s)")
        })?;
        faster(&format!("compaction/{graph}"), &format!("rebuild/{graph}"))?;
    }
    Ok(())
}

/// Required schema of a `BENCH_seed_selection.json` snapshot: graph and
/// workload provenance, the host's core count, the calls per row
/// (`reps`, each row their median), the active SIMD mode, the caveat
/// note, and per-run `{label, threads, secs}` rows for the index build,
/// both selectors and CELF at the ½, ⅛ and 1/64 cuts, the selector rows
/// again over the serving-scale `chung_lu` graph (`*/chung-lu` labels)
/// with that graph's provenance, and `rung_derive/chung-lu`. Only ratios
/// are gated, never an absolute time: on each graph `select_celf` must
/// be faster than `select_naive`, and on `chung_lu` each cut row must be
/// faster than `select_celf`, the whole pool.
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
    let chung_lu = v
        .get("chung_lu")
        .filter(|c| c.as_obj().is_some())
        .ok_or("missing object field \"chung_lu\"")?;
    for f in ["nodes", "edges", "rr_sets", "total_members"] {
        if chung_lu.get(f).and_then(Json::as_f64).is_none() {
            return Err(format!("chung_lu: missing numeric {f:?}"));
        }
    }
    let runs = v
        .get("runs")
        .and_then(Json::as_arr)
        .ok_or("missing array field \"runs\"")?;
    let mut secs_by_label = Vec::new();
    for (i, r) in runs.iter().enumerate() {
        let label = r
            .get("label")
            .and_then(Json::as_str)
            .ok_or_else(|| format!("runs[{i}]: missing \"label\""))?;
        let num = |f: &str| {
            r.get(f)
                .and_then(Json::as_f64)
                .ok_or_else(|| format!("runs[{i}] ({label}): missing numeric {f:?}"))
        };
        num("threads")?;
        secs_by_label.push((label, num("secs")?));
    }
    let secs = |required: &str| {
        secs_by_label
            .iter()
            .find(|(l, _)| *l == required)
            .map(|&(_, s)| s)
            .ok_or_else(|| format!("required run label {required:?} is absent"))
    };
    secs("index_build")?;
    secs("rung_derive/chung-lu")?;
    for suffix in ["", "/chung-lu"] {
        let (celf, naive) = (
            secs(&format!("select_celf{suffix}"))?,
            secs(&format!("select_naive{suffix}"))?,
        );
        if celf >= naive {
            return Err(format!(
                "select_celf{suffix} ({celf} s) is not faster than select_naive{suffix} ({naive} s)"
            ));
        }
        for cut in ["half", "eighth", "64th"] {
            let label = format!("select_celf_{cut}{suffix}");
            let at_cut = secs(&label)?;
            if suffix == "/chung-lu" && at_cut >= celf {
                return Err(format!(
                    "{label} ({at_cut} s) is not faster than select_celf{suffix} ({celf} s)"
                ));
            }
        }
    }
    Ok(())
}

/// Min and mean wall-clock milliseconds over `reps` calls of `f`, plus the
/// last call's result for the caller to check outside the timed region
/// (each earlier result is dropped outside it too).
fn min_mean_ms<T>(reps: usize, mut f: impl FnMut() -> T) -> (f64, f64, T) {
    let (mut best, mut sum) = (f64::INFINITY, 0.0);
    let mut last = None;
    for _ in 0..reps {
        let t = Instant::now();
        let out = f();
        let ms = t.elapsed().as_secs_f64() * 1_000.0;
        best = best.min(ms);
        sum += ms;
        last = Some(out);
    }
    (best, sum / reps as f64, last.expect("reps >= 1"))
}

/// Sketch cap of the pool the `service_restart` row reloads: its spill
/// read takes about as long as the fixture-medium load on a 2-core host,
/// as serve-ic's two reads do, so the overlap shows.
const RESTART_SKETCHES: u64 = 100_000;

/// Measure the restart story on `fixture-medium`, each row the min and
/// mean over `reps` calls to suppress scheduler noise:
///
/// - `text_parse` re-materializes the graph without a cache (read and
///   parse the source text, then apply the probability model —
///   `load_with(.., CacheMode::Off)`), `v4_zero_copy` loads a v4 store
///   (open → map/bulk-read → verify → reinterpret);
/// - `service_restart` is [`ComicService::start`] from a pool directory
///   holding one spilled `vanilla-ic/default/coarse` pool, and
///   `dataset_load` and `spill_read` time that start's two reads alone:
///   the dataset load (cache on) and [`spill::read_pool_file`].
///
/// Returns the `"restart"` snapshot object.
fn restart_rows(quick: bool) -> Result<Json, String> {
    let reps = if quick { 3 } else { 7 };
    let parse = || load_with("fixture-medium", CacheMode::Off).map(|l| l.graph);
    let g = parse().map_err(|e| format!("fixture-medium load failed: {e}"))?;
    let want = graph_digest(&g);

    let dir = std::env::temp_dir().join(format!("comic-serve-load-restart-{}", std::process::id()));
    let pool_dir = dir.join("pools");
    std::fs::create_dir_all(&pool_dir).map_err(|e| format!("mkdir {}: {e}", pool_dir.display()))?;
    let v4_path = dir.join("fixture-medium.v4.grb");
    // The graph digest stands in for the recorded source digest: any
    // recorded word makes the timed load run its staleness check.
    store::write_store_file(&g, want, &v4_path).map_err(|e| format!("v4 write: {e}"))?;

    let mode = store::detect();
    // Time ONLY the load; the structural-digest correctness check runs on
    // the last loaded graph outside the timed region (it is a full graph
    // walk and would otherwise dominate both columns).
    let (text_min, text_mean, last) = min_mean_ms(reps, || parse().expect("text load"));
    assert_eq!(
        graph_digest(&last),
        want,
        "text load must reproduce the graph"
    );
    let (v4_min, v4_mean, last) = min_mean_ms(reps, || {
        store::read_store_file_with(&v4_path, Some(want), mode).expect("v4 load")
    });
    assert_eq!(
        graph_digest(&last),
        want,
        "v4 load must reproduce the graph"
    );

    // The first start builds the pool and spills it; every timed start
    // reloads it without sampling.
    let mut cfg = ServeConfig::new("fixture-medium");
    cfg.pools = vec![restart_pool()];
    cfg.max_rr_sets = Some(RESTART_SKETCHES);
    cfg.pool_dir = Some(pool_dir.clone());
    let first = ComicService::start(cfg.clone()).map_err(|e| format!("first start: {e}"))?;
    let sketches = first.pool(&restart_pool()).map_or(0, |p| p.len());
    drop(first);
    let spill_path = std::fs::read_dir(&pool_dir)
        .map_err(|e| format!("read {}: {e}", pool_dir.display()))?
        .flatten()
        .map(|e| e.path())
        .find(|p| p.extension().is_some_and(|x| x == "rrseg"))
        .ok_or("the first start spilled no pool")?;
    let (restart_min, restart_mean, svc) = min_mean_ms(reps, || {
        let svc = ComicService::start(cfg.clone()).expect("restart");
        assert_eq!(
            (svc.pool_builds(), svc.spill_rejects()),
            (0, 0),
            "a restart must reload its spill"
        );
        svc
    });
    drop(svc);
    let (load_min, load_mean, loaded) = min_mean_ms(reps, || {
        datasets::load("fixture-medium").expect("dataset load")
    });
    assert_eq!(
        loaded.digest, want,
        "the dataset load must reproduce the graph"
    );
    let (read_min, read_mean, pool) = min_mean_ms(reps, || {
        spill::read_pool_file(&spill_path, want).expect("spill read")
    });
    assert_eq!(
        pool.len(),
        sketches,
        "the spill read must reproduce the pool"
    );
    let _ = std::fs::remove_dir_all(&dir);

    let row = |name: &str, min: f64, mean: f64| {
        build::obj(vec![
            ("name", build::str(name)),
            ("reps", build::num_u64(reps as u64)),
            ("min_ms", build::num(round3(min))),
            ("mean_ms", build::num(round3(mean))),
        ])
    };
    let ratio = |a: f64, b: f64| build::num(round3(if b > 0.0 { a / b } else { 0.0 }));
    Ok(build::obj(vec![
        ("dataset", build::str("fixture-medium")),
        ("nodes", build::num_u64(g.num_nodes() as u64)),
        ("edges", build::num_u64(g.num_edges() as u64)),
        ("store_mode", build::str(store::StoreMode::name(mode))),
        ("pool", build::str(restart_pool().to_string())),
        ("sketches", build::num_u64(sketches as u64)),
        (
            "rows",
            Json::Arr(vec![
                row("text_parse", text_min, text_mean),
                row("v4_zero_copy", v4_min, v4_mean),
                row("service_restart", restart_min, restart_mean),
                row("dataset_load", load_min, load_mean),
                row("spill_read", read_min, read_mean),
            ]),
        ),
        ("speedup_v4_vs_text", ratio(text_min, v4_min)),
        ("restart_vs_reads", ratio(restart_min, load_min + read_min)),
    ]))
}

/// The pool the `service_restart` row reloads.
fn restart_pool() -> PoolKey {
    PoolKey::new(SamplerKind::VanillaIc, "default", EpsTier::Coarse).expect("static key")
}

/// Required schema of a `BENCH_serving.json` snapshot. Two ratios are
/// gated, never an absolute time: the resident pool's `warm_select_k10`
/// p50 must be below the `cold_pipeline_k10` p50 it replaces, and the
/// restart section's `service_restart` min below the sum of its
/// `dataset_load` and `spill_read` mins.
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
    let mut p50_by_name = Vec::new();
    for (i, c) in classes.iter().enumerate() {
        let name = c
            .get("name")
            .and_then(Json::as_str)
            .ok_or_else(|| format!("classes[{i}]: missing \"name\""))?;
        let num = |f: &str| {
            c.get(f)
                .and_then(Json::as_f64)
                .ok_or_else(|| format!("classes[{i}] ({name}): missing numeric {f:?}"))
        };
        for f in [
            "queries", "qps", "p99_ms", "mean_ms", "ok", "degraded", "shed", "deadline",
        ] {
            num(f)?;
        }
        p50_by_name.push((name, num("p50_ms")?));
    }
    let p50 = |required: &str| {
        p50_by_name
            .iter()
            .find(|(n, _)| *n == required)
            .map(|&(_, p)| p)
            .ok_or_else(|| format!("required class {required:?} is absent"))
    };
    let (warm, cold) = (p50("warm_select_k10")?, p50("cold_pipeline_k10")?);
    if warm >= cold {
        return Err(format!(
            "warm_select_k10 p50 ({warm} ms) is not below cold_pipeline_k10's ({cold} ms)"
        ));
    }
    // The restart section records the zero-copy store's reason to exist
    // (a cache-less reload, text parse, vs a v4 zero-copy reload of
    // fixture-medium) and a service restart next to its two reads, each
    // timed alone.
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
    let min_ms = |required: &str| {
        let row = rows
            .iter()
            .find(|r| r.get("name").and_then(Json::as_str) == Some(required))
            .ok_or_else(|| format!("restart: required row {required:?} is absent"))?;
        for f in ["reps", "mean_ms"] {
            if row.get(f).and_then(Json::as_f64).is_none() {
                return Err(format!("restart row {required}: missing numeric {f:?}"));
            }
        }
        row.get("min_ms")
            .and_then(Json::as_f64)
            .ok_or_else(|| format!("restart row {required}: missing numeric \"min_ms\""))
    };
    for required in ["text_parse", "v4_zero_copy"] {
        min_ms(required)?;
    }
    // A start that reads its spills while the dataset loads beats the two
    // reads back to back; one that runs them in turn cannot.
    let (restart, load, read) = (
        min_ms("service_restart")?,
        min_ms("dataset_load")?,
        min_ms("spill_read")?,
    );
    if restart >= load + read {
        return Err(format!(
            "service_restart ({restart} ms) is not below dataset_load + spill_read \
             ({load} + {read} ms)"
        ));
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

    eprintln!(
        "comic-serve-load: restart comparison (fixture-medium: text vs v4, service restart vs its reads)..."
    );
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
    if let Some(ratio) = restart.get("restart_vs_reads").and_then(Json::as_f64) {
        println!(
            "  service restart (fixture-medium): {ratio:.2} of its dataset load plus spill read"
        );
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

#[cfg(test)]
mod tests {
    use super::*;

    const CHUNG_LU: &str =
        r#"{"model":"m","nodes":100000,"edges":999673,"rr_sets":10,"total_members":20}"#;

    fn seed_selection(chung_lu: &str, runs: &[(&str, f64)]) -> Json {
        let runs: Vec<String> = runs
            .iter()
            .map(|(label, secs)| format!(r#"{{"label":"{label}","threads":1,"secs":{secs}}}"#))
            .collect();
        json::parse(&format!(
            r#"{{"bench":"seed_selection","host_cores":2,"graph":{{}},"rr_sets":10,"k":5,
                "reps":1,"total_members":20,"simd":"scalar","note":"n",
                "chung_lu":{chung_lu},"runs":[{}]}}"#,
            runs.join(",")
        ))
        .expect("valid JSON")
    }

    #[test]
    fn seed_selection_gate_requires_the_cut_row_and_celf_faster_than_naive() {
        let good = [
            ("index_build", 0.03),
            ("select_naive", 0.06),
            ("select_celf", 0.006),
            ("select_celf_half", 0.004),
            ("select_celf_eighth", 0.007),
            ("select_celf_64th", 0.008),
            ("select_naive/chung-lu", 0.9),
            ("select_celf/chung-lu", 0.002),
            ("select_celf_half/chung-lu", 0.001),
            ("select_celf_eighth/chung-lu", 0.0005),
            ("select_celf_64th/chung-lu", 0.0003),
            ("rung_derive/chung-lu", 0.0025),
        ];
        assert_eq!(validate_schema(&seed_selection(CHUNG_LU, &good)), Ok(()));
        for missing in 0..good.len() {
            let mut rows = good.to_vec();
            let (label, _) = rows.remove(missing);
            let err = validate_schema(&seed_selection(CHUNG_LU, &rows)).unwrap_err();
            assert!(err.contains(&format!("{label:?}")), "{err}");
        }
        // CELF at or above naive on either graph, and a chung-lu cut row at
        // or above the whole-pool CELF row (the flixster cut rows, above
        // their whole-pool row in `good`, are not gated).
        for (row, secs) in [
            (2, 0.06),
            (2, 0.07),
            (7, 0.9),
            (7, 1.0),
            (8, 0.002),
            (8, 0.003),
            (9, 0.002),
            (10, 0.0021),
        ] {
            let mut slow = good;
            slow[row].1 = secs;
            let err = validate_schema(&seed_selection(CHUNG_LU, &slow)).unwrap_err();
            assert!(err.contains("not faster"), "{err}");
        }
        let bare = r#"{"model":"m","nodes":100000,"edges":999673,"rr_sets":10}"#;
        let err = validate_schema(&seed_selection(bare, &good)).unwrap_err();
        assert!(
            err.contains("chung_lu: missing numeric \"total_members\""),
            "{err}"
        );
    }

    /// A churn row's fields after `secs`: marked/touched members and the
    /// full-rebuild time.
    fn churn_extra(members_marked: u32, members_touched: u32, full: f64) -> String {
        format!(
            r#""graph":"g","nodes":9,"edges":50,"changes":100,"threads":2,"reps":9,
                "total_sets":60,"sets_marked":2,"members_marked":{members_marked},
                "sets_touched":7,"members_touched":{members_touched},"full_rebuild_secs":{full}"#
        )
    }

    fn incremental(runs: &[(&str, f64)]) -> Json {
        incremental_with(runs, &churn_extra(30, 200, 0.02))
    }

    /// [`incremental`] with `churn` as every churn row's extra fields.
    fn incremental_with(runs: &[(&str, f64)], churn: &str) -> Json {
        let runs: Vec<String> = runs
            .iter()
            .map(|(label, secs)| {
                let extra = if label.starts_with("compaction/") || label.starts_with("rebuild/") {
                    r#""graph":"g","nodes":9,"edges":50,"changes":100,"threads":1,"reps":9"#.into()
                } else if label.starts_with("churn/") {
                    churn.to_string()
                } else {
                    r#""delta_bp":10,"sets_regenerated":4,"total_sets":60"#.into()
                };
                format!(r#"{{"label":"{label}","secs":{secs},{extra}}}"#)
            })
            .collect();
        json::parse(&format!(
            r#"{{"bench":"incremental","graph":{{}},"host_cores":2,"sketches":60,"threads":2,
                "runs":[{}]}}"#,
            runs.join(",")
        ))
        .expect("valid JSON")
    }

    #[test]
    fn incremental_gate_requires_churn_and_compaction_rows_and_every_ratio() {
        let good = [
            ("incremental/10bp", 0.003),
            ("full_rebuild/10bp", 0.008),
            ("churn/fixture-medium", 0.004),
            ("churn/chung-lu-1m", 0.009),
            ("compaction/fixture-medium", 0.0003),
            ("rebuild/fixture-medium", 0.001),
            ("compaction/chung-lu-1m", 0.008),
            ("rebuild/chung-lu-1m", 0.045),
        ];
        assert_eq!(validate_schema(&incremental(&good)), Ok(()));
        for missing in 1..good.len() {
            let mut rows = good.to_vec();
            let (label, _) = rows.remove(missing);
            let err = validate_schema(&incremental(&rows)).unwrap_err();
            assert!(err.contains(label), "{err}");
        }
        // The churn rows' full rebuild reads 0.02 s.
        for (slow_row, slow) in [(0, 0.008), (2, 0.03), (3, 0.02), (4, 0.002), (6, 0.05)] {
            let mut rows = good;
            rows[slow_row].1 = slow;
            let err = validate_schema(&incremental(&rows)).unwrap_err();
            assert!(err.contains("not faster"), "{err}");
        }
        // Churn rows whose keyed marks hold as many members as the target
        // rule's, or that lack a field, fail.
        let err =
            validate_schema(&incremental_with(&good, &churn_extra(200, 200, 0.02))).unwrap_err();
        assert!(err.contains("is not below members_touched"), "{err}");
        let err = validate_schema(&incremental_with(&good, r#""graph":"g""#)).unwrap_err();
        assert!(err.contains("missing numeric \"nodes\""), "{err}");
        let bare = json::parse(
            r#"{"bench":"incremental","graph":{},"host_cores":2,"sketches":60,"threads":2,
                "runs":[{"label":"compaction/fixture-medium","secs":0.0003}]}"#,
        )
        .expect("valid JSON");
        let err = validate_schema(&bare).unwrap_err();
        assert!(err.contains("missing numeric \"nodes\""), "{err}");
    }

    fn simulation(host_cores: u32, runs: &[(&str, f64)]) -> Json {
        let runs: Vec<String> = runs
            .iter()
            .map(|(label, secs)| {
                format!(
                    r#"{{"label":"{label}","threads":2,"reps":9,"host_cores":{host_cores},"secs":{secs}}}"#
                )
            })
            .collect();
        json::parse(&format!(
            r#"{{"bench":"simulation","graph":{{}},"host_cores":{host_cores},"reps":9,
                "runs":[{}]}}"#,
            runs.join(",")
        ))
        .expect("valid JSON")
    }

    #[test]
    fn simulation_gate_requires_every_row_and_both_ratios() {
        let good = [
            ("cascade/coin", 0.0005),
            ("cascade/world", 0.0006),
            ("estimate/1t", 0.15),
            ("estimate/2t", 0.09),
            ("surrogates/sequential", 0.12),
            ("surrogates/join", 0.08),
        ];
        assert_eq!(validate_schema(&simulation(2, &good)), Ok(()));
        for missing in 0..good.len() {
            let mut rows = good.to_vec();
            let (label, _) = rows.remove(missing);
            let err = validate_schema(&simulation(2, &rows)).unwrap_err();
            assert!(err.contains(label), "{err}");
        }
        let mut slow_join = good;
        slow_join[5].1 = 0.13;
        let err = validate_schema(&simulation(2, &slow_join)).unwrap_err();
        assert!(err.contains("surrogates/join"), "{err}");
        // The 2-thread estimate is gated only on a host with 2 or more cores.
        let mut slow_2t = good;
        slow_2t[3].1 = 0.16;
        let err = validate_schema(&simulation(2, &slow_2t)).unwrap_err();
        assert!(err.contains("estimate/2t"), "{err}");
        assert_eq!(validate_schema(&simulation(1, &slow_2t)), Ok(()));
        let bare = json::parse(
            r#"{"bench":"simulation","graph":{},"host_cores":2,"reps":9,
                "runs":[{"label":"cascade/coin","secs":0.0005}]}"#,
        )
        .expect("valid JSON");
        let err = validate_schema(&bare).unwrap_err();
        assert!(err.contains("missing numeric \"threads\""), "{err}");
    }

    /// Restart rows whose `service_restart` min is below the sum of the
    /// two reads' (0.75 + 1.0 ms, exact in binary).
    const RESTART: [(&str, f64); 5] = [
        ("text_parse", 10.7),
        ("v4_zero_copy", 0.36),
        ("service_restart", 1.2),
        ("dataset_load", 0.75),
        ("spill_read", 1.0),
    ];

    fn serving(warm_p50: f64, cold_p50: f64, restart: &[(&str, f64)]) -> Json {
        let class = |name: &str, p50: f64| {
            format!(
                r#"{{"name":"{name}","queries":3,"qps":1,"p50_ms":{p50},"p99_ms":{p50},
                    "mean_ms":{p50},"ok":3,"degraded":0,"shed":0,"deadline":0}}"#
            )
        };
        let rows: Vec<String> = restart
            .iter()
            .map(|(name, min)| {
                format!(r#"{{"name":"{name}","reps":3,"min_ms":{min},"mean_ms":{min}}}"#)
            })
            .collect();
        json::parse(&format!(
            r#"{{"bench":"serving","dataset":"d","pool":"p","caveat":"c","faults":"",
                "host_cores":2,"gen_threads":2,"threads":2,"design_k":10,"sketches":100,
                "classes":[{},{}],
                "restart":{{"speedup_v4_vs_text":10,"rows":[{}]}}}}"#,
            class("warm_select_k10", warm_p50),
            class("cold_pipeline_k10", cold_p50),
            rows.join(","),
        ))
        .expect("valid JSON")
    }

    #[test]
    fn serving_gate_requires_warm_select_below_the_cold_pipeline() {
        assert_eq!(validate_schema(&serving(0.56, 71.8, &RESTART)), Ok(()));
        for warm in [71.8, 90.0] {
            let err = validate_schema(&serving(warm, 71.8, &RESTART)).unwrap_err();
            assert!(err.contains("not below"), "{err}");
        }
    }

    #[test]
    fn serving_gate_requires_the_restart_rows_and_the_overlap() {
        for missing in 0..RESTART.len() {
            let mut rows = RESTART.to_vec();
            let (name, _) = rows.remove(missing);
            let err = validate_schema(&serving(0.56, 71.8, &rows)).unwrap_err();
            assert!(err.contains(name), "{err}");
        }
        // A start that runs its two reads back to back takes at least
        // their sum.
        for restart in [1.75, 2.0] {
            let mut rows = RESTART;
            rows[2].1 = restart;
            let err = validate_schema(&serving(0.56, 71.8, &rows)).unwrap_err();
            assert!(err.contains("not below dataset_load + spill_read"), "{err}");
        }
    }
}
