//! Reduced-size runs of every workload through the benchmark executable,
//! input determinism, and the agreement between `BENCHMARK.json` and the
//! metrics this crate emits.

use comic_perfbench::harness::WORK_ROOT;
use comic_perfbench::metrics::{MetricDef, END_TO_END, PER_LAYER};
use comic_perfbench::{churn_ic, inputs, paper_solve, serve_ic, WORKLOADS};
use comic_serve::json::{self, Json};
use std::path::{Path, PathBuf};
use std::process::{Command, Output};

fn scratch(tag: &str) -> PathBuf {
    let dir = Path::new(env!("CARGO_TARGET_TMPDIR")).join(format!("perfbench-{tag}"));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// Run the benchmark executable at smoke size in `cwd`.
fn bench(cwd: &Path, workload: &str, trace: bool) -> Output {
    Command::new(env!("CARGO_BIN_EXE_comic-perfbench"))
        .args(["--workload", workload, "--seed", "3", "--seconds", "1"])
        .args(["--trace", if trace { "1" } else { "0" }, "--smoke"])
        .current_dir(cwd)
        .output()
        .expect("run the benchmark executable")
}

/// The provenance line and the result line of a successful run.
fn last_lines(out: &Output) -> (String, String) {
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        out.status.success(),
        "{}\n{}",
        stdout,
        String::from_utf8_lossy(&out.stderr)
    );
    let lines: Vec<&str> = stdout.lines().collect();
    assert!(lines.len() >= 2, "{stdout}");
    let n = lines.len();
    (lines[n - 2].to_string(), lines[n - 1].to_string())
}

/// Per-layer metrics each workload must measure (non-zero) when traced.
fn layers_of(workload: &str) -> Vec<&'static str> {
    let served_pool = [
        "datasets.load_ms",
        "select.celf_k10_ms",
        "select.celf_k50_ms",
        "select.celf_k10_1t_ms",
        "select.naive_k10_ms",
        "select.covered_k50",
        "pool.prefix_ms",
        "index.build_ms",
        "pool.estimate_ms",
        "pool.sketches",
        "pool.members",
        "rss.setup_mb",
    ];
    let pool_build = [
        "kpt.ms",
        "kpt.samples",
        "theta.sets",
        "generate.ms",
        "generate.sets",
        "generate.members",
        "generate.members_per_s",
    ];
    match workload {
        "serve-ic" => [
            &served_pool[..],
            &[
                "spill.read_ms",
                "spill.bytes",
                "protocol.parse_us",
                "protocol.serialize_us",
            ],
        ]
        .concat(),
        "churn-ic" => [
            &served_pool[..],
            &pool_build,
            &[
                "delta.apply_ms",
                "graph.digest_ms",
                "pool.invalidate_ms",
                "refit.ms",
            ],
        ]
        .concat(),
        "paper-solve" => [
            &pool_build[..],
            &[
                "datasets.load_ms",
                "select.celf_k50_ms",
                "sampler.rr_sim_plus.sets_per_s",
                "sampler.rr_cim.sets_per_s",
                "mc.eval_ms",
                "pool.sketches",
                "pool.members",
                "rss.setup_mb",
            ],
        ]
        .concat(),
        other => panic!("unknown workload {other}"),
    }
}

/// The result line parses, has exactly the four keys, and carries every
/// metric of `defs` with its unit.
fn assert_result(line: &str, defs: &[MetricDef]) -> Json {
    let v = json::parse(line).unwrap_or_else(|e| panic!("{e}: {line}"));
    let keys: Vec<&str> = v
        .as_obj()
        .unwrap()
        .iter()
        .map(|(k, _)| k.as_str())
        .collect();
    assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
    assert_eq!(
        v.get("correct").and_then(Json::as_bool),
        Some(true),
        "{line}"
    );
    assert_eq!(v.get("failed").and_then(Json::as_u64), Some(0));
    assert!(v.get("attempted").and_then(Json::as_u64).unwrap() >= 1);
    let metrics = v.get("metrics").unwrap();
    assert_eq!(metrics.as_obj().unwrap().len(), defs.len());
    for def in defs {
        let m = metrics
            .get(def.name)
            .unwrap_or_else(|| panic!("{} missing", def.name));
        assert_eq!(m.get("unit").and_then(Json::as_str), Some(def.unit));
        assert!(m.get("value").and_then(Json::as_f64).unwrap().is_finite());
    }
    v
}

fn smoke(workload: &str) {
    let root = scratch(&format!("smoke-{workload}"));
    let (provenance, line) = last_lines(&bench(&root, workload, false));
    let v = assert_result(&line, END_TO_END);
    for def in END_TO_END {
        let x = v.get("metrics").unwrap().get(def.name).unwrap();
        assert!(
            x.get("value").and_then(Json::as_f64).unwrap() > 0.0,
            "{}",
            def.name
        );
    }
    let provenance = json::parse(&provenance).unwrap_or_else(|e| panic!("{e}: {provenance}"));
    let fields = provenance.get("provenance").unwrap();
    for key in ["host_cores", "seed", "graph_digest", "main_p90_beyond"] {
        assert!(fields.get(key).is_some(), "{workload}: no {key}");
    }

    let (_, line) = last_lines(&bench(&root, workload, true));
    let v = assert_result(&line, PER_LAYER);
    for name in layers_of(workload) {
        let x = v.get("metrics").unwrap().get(name).unwrap();
        let value = x.get("value").and_then(Json::as_f64).unwrap();
        assert!(value > 0.0, "{workload}: {name} = {value}");
    }
    // The runs cleaned up after themselves, down to the scratch root.
    assert!(!root.join(WORK_ROOT).exists());
    let _ = std::fs::remove_dir_all(&root);
}

#[test]
fn serve_ic_smoke() {
    smoke("serve-ic");
}

#[test]
fn churn_ic_smoke() {
    smoke("churn-ic");
}

#[test]
fn paper_solve_smoke() {
    smoke("paper-solve");
}

#[test]
fn unknown_workload_is_an_error() {
    let root = scratch("unknown");
    let out = bench(&root, "nope", false);
    assert!(!out.status.success());
    assert!(out.stdout.is_empty());
    let _ = std::fs::remove_dir_all(&root);
}

fn read(dir: &Path, file: &str) -> Vec<u8> {
    std::fs::read(dir.join(file)).unwrap()
}

#[test]
fn inputs_are_a_function_of_the_seed() {
    let root = scratch("inputs");
    let dir = |tag: &str| {
        let d = root.join(tag);
        std::fs::create_dir_all(&d).unwrap();
        d
    };

    let cfg = serve_ic::Config::smoke();
    let (a, b, c) = (dir("serve-a"), dir("serve-b"), dir("serve-c"));
    serve_ic::prepare(&a, 11, &cfg).unwrap();
    serve_ic::prepare(&b, 11, &cfg).unwrap();
    serve_ic::prepare(&c, 12, &cfg).unwrap();
    for file in [inputs::GRAPH_FILE, inputs::QUERIES_FILE] {
        assert_eq!(read(&a, file), read(&b, file), "{file}");
        assert_ne!(read(&a, file), read(&c, file), "{file}");
    }

    let cfg = churn_ic::Config::smoke();
    let (a, b, c) = (dir("churn-a"), dir("churn-b"), dir("churn-c"));
    churn_ic::prepare(&a, 11, &cfg, 8).unwrap();
    churn_ic::prepare(&b, 11, &cfg, 8).unwrap();
    churn_ic::prepare(&c, 12, &cfg, 8).unwrap();
    for file in [inputs::GRAPH_FILE, inputs::DELTAS_FILE] {
        assert_eq!(read(&a, file), read(&b, file), "{file}");
        assert_ne!(read(&a, file), read(&c, file), "{file}");
    }

    // paper-solve solves one graph instance; the seed varies the solvers'
    // RNG stream.
    let cfg = paper_solve::Config::smoke();
    let (a, b) = (dir("paper-a"), dir("paper-b"));
    paper_solve::prepare(&a, &cfg).unwrap();
    paper_solve::prepare(&b, &cfg).unwrap();
    assert_eq!(read(&a, inputs::GRAPH_FILE), read(&b, inputs::GRAPH_FILE));
    assert_eq!(paper_solve::solver_seed(11), paper_solve::solver_seed(11));
    assert_ne!(paper_solve::solver_seed(11), paper_solve::solver_seed(12));
    let _ = std::fs::remove_dir_all(&root);
}

#[test]
fn benchmark_json_lists_exactly_these_metrics() {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let v = json::parse(&std::fs::read_to_string(path).unwrap()).unwrap();
    let workloads: Vec<&str> = v
        .get("workloads")
        .and_then(Json::as_arr)
        .unwrap()
        .iter()
        .map(|w| w.get("name").and_then(Json::as_str).unwrap())
        .collect();
    assert_eq!(workloads, WORKLOADS);
    for (key, defs) in [("end_to_end", END_TO_END), ("per_layer", PER_LAYER)] {
        let listed = v.get(key).and_then(Json::as_arr).unwrap();
        assert_eq!(listed.len(), defs.len(), "{key}");
        for (m, def) in listed.iter().zip(defs) {
            assert_eq!(m.get("name").and_then(Json::as_str), Some(def.name));
            assert_eq!(m.get("unit").and_then(Json::as_str), Some(def.unit));
            let better = m.get("better").and_then(Json::as_str);
            assert_eq!(better, Some(def.better.name()), "{}", def.name);
        }
    }
    let setup = &v.get("end_to_end").and_then(Json::as_arr).unwrap()[0];
    assert_eq!(setup.get("name").and_then(Json::as_str), Some("setup_s"));
}
