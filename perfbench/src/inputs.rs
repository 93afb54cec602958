//! Seeded input generation: graphs, query mixes and delta feeds.
//!
//! Every input is a pure function of the workload seed and is written as a
//! file into the run's scratch directory; the program under test only ever
//! sees those files (graphs through the dataset loader, queries and deltas
//! as protocol lines).

use comic_graph::fasthash::splitmix64;
use comic_graph::gen::{chung_lu_par, ChungLuConfig, ParGen};
use comic_graph::{DiGraph, NodeId};
use comic_serve::protocol::{PoolKey, Request};
use comic_serve::service::ServeConfig;
use rand::rngs::SmallRng;
use rand::{RngExt, SeedableRng};
use std::collections::HashSet;
use std::io::Write;
use std::path::{Path, PathBuf};

/// Name of the generated graph inside a scratch directory.
pub const GRAPH_FILE: &str = "graph.txt";
/// Name of the generated query mix.
pub const QUERIES_FILE: &str = "queries.jsonl";
/// Name of the generated delta feed.
pub const DELTAS_FILE: &str = "deltas.jsonl";

/// A Chung–Lu power-law graph family member.
#[derive(Clone, Copy, Debug)]
pub struct GraphSpec {
    /// Nodes.
    pub n: usize,
    /// Expected directed edges.
    pub edges: usize,
    /// Degree exponent (the paper's 2.16).
    pub exponent: f64,
}

/// An independent stream seed for one input of one workload.
pub fn stream_seed(seed: u64, tag: &str) -> u64 {
    tag.bytes()
        .fold(splitmix64(seed ^ 0x7065_7266_6265_6e63), |h, b| {
            splitmix64(h ^ u64::from(b))
        })
}

/// Generate the topology (every edge probability 1; the loader assigns
/// weighted-cascade probabilities).
pub fn generate_graph(spec: &GraphSpec, seed: u64) -> Result<DiGraph, String> {
    chung_lu_par(
        &ChungLuConfig {
            n: spec.n,
            target_edges: spec.edges,
            exponent: spec.exponent,
        },
        &ParGen::with_threads(seed, 2),
    )
    .map_err(|e| format!("graph generation: {e}"))
}

/// Write `g` as a text edge list at `path`.
pub fn write_graph(path: &Path, g: &DiGraph) -> Result<(), String> {
    let f = std::fs::File::create(path).map_err(|e| format!("create {}: {e}", path.display()))?;
    comic_graph::io::write_edge_list(g, f).map_err(|e| format!("write {}: {e}", path.display()))
}

/// The dataset argument that loads `path` with weighted-cascade
/// probabilities.
pub fn dataset_arg(path: &Path) -> String {
    format!("{}:wc", path.display())
}

/// Write one protocol line per entry of `lines`.
pub fn write_lines(path: &Path, lines: &[String]) -> Result<(), String> {
    let mut f = std::io::BufWriter::new(
        std::fs::File::create(path).map_err(|e| format!("create {}: {e}", path.display()))?,
    );
    for l in lines {
        writeln!(f, "{l}").map_err(|e| format!("write {}: {e}", path.display()))?;
    }
    f.flush()
        .map_err(|e| format!("write {}: {e}", path.display()))
}

/// Read back the lines [`write_lines`] wrote.
pub fn read_lines(path: &Path) -> Result<Vec<String>, String> {
    let text =
        std::fs::read_to_string(path).map_err(|e| format!("read {}: {e}", path.display()))?;
    Ok(text.lines().map(str::to_string).collect())
}

/// The one pool the IC workloads serve.
pub fn ic_pool() -> PoolKey {
    PoolKey::parse("vanilla-ic/default/coarse").expect("static pool key")
}

/// Service config for an IC workload over the graph file at `graph`:
/// `ServeConfig` defaults, one IC pool, optionally a sketch cap and a
/// spill directory.
pub fn ic_serve_config(graph: &Path, cap: Option<u64>, pool_dir: Option<PathBuf>) -> ServeConfig {
    let mut sc = ServeConfig::new(dataset_arg(graph));
    sc.pools = vec![ic_pool()];
    if cap.is_some() {
        sc.max_rr_sets = cap;
    }
    sc.pool_dir = pool_dir;
    sc
}

/// A select request line on the IC pool.
pub fn select_line(k: usize, budget: Option<u64>) -> String {
    Request::Select {
        pool: ic_pool(),
        k,
        selector: None,
        budget,
        deadline_ms: None,
    }
    .to_line()
}

/// The serve-ic query mix: `count` lines of select k=10, select k=50,
/// select k=10 over half the pool (`sketches / 2`), and estimate of 10
/// random node ids. Every block of eight lines holds each class twice, in
/// a seeded order, so any stretch of the mix has the same class shares.
pub fn query_mix(seed: u64, count: usize, n: usize, sketches: usize) -> Vec<String> {
    let mut rng = SmallRng::seed_from_u64(seed);
    let half = (sketches as u64 / 2).max(1);
    let mut block: Vec<u32> = Vec::new();
    (0..count)
        .map(|_| {
            if block.is_empty() {
                block = vec![0, 0, 1, 1, 2, 2, 3, 3];
                for i in (1..block.len()).rev() {
                    block.swap(i, rng.random_range(0..=i));
                }
            }
            match block.pop().expect("refilled above") {
                0 => select_line(10, None),
                1 => select_line(50, None),
                2 => select_line(10, Some(half)),
                _ => Request::Estimate {
                    pool: ic_pool(),
                    seeds: (0..10).map(|_| rng.random_range(0..n as u32)).collect(),
                    budget: None,
                    deadline_ms: None,
                }
                .to_line(),
            }
        })
        .collect()
}

/// Change mix of one delta batch.
#[derive(Clone, Copy, Debug)]
pub struct BatchShape {
    /// Edges added per batch.
    pub adds: usize,
    /// Edges removed per batch.
    pub removes: usize,
    /// Edges reweighted per batch.
    pub reweights: usize,
}

/// `batches` delta lines (`apply: true`) against `g`, each conflict-free
/// against the graph as the earlier batches left it: the generator keeps
/// its own copy of the edge set, and no edge appears twice in a batch.
pub fn delta_feed(g: &DiGraph, seed: u64, batches: usize, shape: BatchShape) -> Vec<String> {
    let mut rng = SmallRng::seed_from_u64(seed);
    let n = g.num_nodes() as u32;
    let mut live: Vec<(u32, u32)> = g.edges().map(|(_, e)| (e.source.0, e.target.0)).collect();
    let mut present: HashSet<(u32, u32)> = live.iter().copied().collect();
    let prob = |rng: &mut SmallRng| f64::from(rng.random_range(1..=300u32)) / 1000.0;
    (0..batches)
        .map(|_| {
            let mut touched: HashSet<(u32, u32)> = HashSet::new();
            let mut remove = Vec::with_capacity(shape.removes);
            while remove.len() < shape.removes && !live.is_empty() {
                let i = rng.random_range(0..live.len());
                let e = live[i];
                if touched.insert(e) {
                    live.swap_remove(i);
                    present.remove(&e);
                    remove.push(e);
                }
            }
            let mut reweight = Vec::with_capacity(shape.reweights);
            while reweight.len() < shape.reweights && reweight.len() < live.len() {
                let e = live[rng.random_range(0..live.len())];
                if touched.insert(e) {
                    reweight.push((e.0, e.1, prob(&mut rng)));
                }
            }
            let mut add = Vec::with_capacity(shape.adds);
            while add.len() < shape.adds {
                let e = (rng.random_range(0..n), rng.random_range(0..n));
                if e.0 != e.1 && !present.contains(&e) && touched.insert(e) {
                    add.push((e.0, e.1, prob(&mut rng)));
                }
            }
            for &(s, t, _) in &add {
                live.push((s, t));
                present.insert((s, t));
            }
            Request::Delta {
                add,
                remove,
                reweight,
                apply: true,
            }
            .to_line()
        })
        .collect()
}

/// The `count` highest out-degree nodes, ties toward smaller ids (the
/// fixed "other item" seed set of the Com-IC problems).
pub fn top_out_degree(g: &DiGraph, count: usize) -> Vec<NodeId> {
    let mut by_degree: Vec<NodeId> = g.nodes().collect();
    by_degree.sort_by_key(|&v| (std::cmp::Reverse(g.out_degree(v)), v.0));
    by_degree.truncate(count);
    by_degree
}
