//! The dataset subsystem: a named registry of on-disk graphs (committed
//! fixtures plus slots for the paper's real SNAP exports) with transparent
//! digest-validated binary caching, and the synthetic stand-ins for the
//! paper's four datasets (Table 1).
//!
//! | name         | paper |V| | paper |E| | avg out | max out | provenance            |
//! |--------------|-----------|-----------|---------|---------|------------------------|
//! | Douban-Book  | 23.3K     | 141K      | 6.5     | 1690    | follower links, directed |
//! | Douban-Movie | 34.9K     | 274K      | 7.9     | 545     | follower links, directed |
//! | Flixster     | 12.9K     | 192K      | 14.8    | 189     | friendships, SCC, bidirected |
//! | Last.fm      | 61K       | 584K      | 9.6     | 1073    | friendships, bidirected |
//!
//! The stand-ins are Chung–Lu power-law graphs whose exponents are tuned so
//! the out-degree skew brackets the reported maxima at full scale, with
//! weighted-cascade edge probabilities (the standard proxy for the paper's
//! learned probabilities — DIVERGENCES.md, "Datasets and action logs").
//! Everything is deterministic given the scale factor.
//!
//! On-disk datasets flow `file → ProbAssignment → manifest validation →
//! driver`: [`load`] resolves a registry name (or a bare path) to a SNAP or
//! edge-list text file, parses it once, applies the configured probability
//! model, checks the result against the manifest's expected node/edge
//! counts, and drops a versioned binary cache next to the source so every
//! later run memory-loads the bytes after a digest check. [`DataSource`]
//! unifies the two worlds so every experiment driver can run on either.

use comic_core::Gap;
use comic_graph::gen::{chung_lu, ChungLuConfig};
use comic_graph::io::{graph_digest, read_edge_list_report, source_digest};
use comic_graph::prob::ProbModel;
use comic_graph::scc::largest_scc;
use comic_graph::stats::{stats_with_merged, GraphStats};
use comic_graph::store;
use comic_graph::{DiGraph, GraphError};
use rand::rngs::SmallRng;
use rand::SeedableRng;
use std::fmt;
use std::path::{Path, PathBuf};
use std::sync::Arc;

/// One of the four evaluation datasets.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Dataset {
    /// Douban book-rating follower graph stand-in.
    DoubanBook,
    /// Douban movie-rating follower graph stand-in.
    DoubanMovie,
    /// Flixster friendship SCC stand-in.
    Flixster,
    /// Last.fm friendship graph stand-in.
    LastFm,
}

impl Dataset {
    /// All four, in the paper's Table 1 order.
    pub const ALL: [Dataset; 4] = [
        Dataset::DoubanBook,
        Dataset::DoubanMovie,
        Dataset::Flixster,
        Dataset::LastFm,
    ];

    /// Display name matching the paper.
    pub fn name(self) -> &'static str {
        match self {
            Dataset::DoubanBook => "Douban-Book",
            Dataset::DoubanMovie => "Douban-Movie",
            Dataset::Flixster => "Flixster",
            Dataset::LastFm => "Last.fm",
        }
    }

    /// Paper-scale `(nodes, edges)` from Table 1.
    pub fn paper_scale(self) -> (usize, usize) {
        match self {
            Dataset::DoubanBook => (23_300, 141_000),
            Dataset::DoubanMovie => (34_900, 274_000),
            Dataset::Flixster => (12_900, 192_000),
            Dataset::LastFm => (61_000, 584_000),
        }
    }

    /// Power-law exponent used for the stand-in (lower = heavier tail;
    /// chosen so max out-degree at full scale brackets Table 1's values:
    /// Douban-Book's 1690 needs a very heavy tail, Flixster's 189 a mild
    /// one).
    fn exponent(self) -> f64 {
        match self {
            Dataset::DoubanBook => 2.05,
            Dataset::DoubanMovie => 2.3,
            Dataset::Flixster => 2.9,
            Dataset::LastFm => 2.2,
        }
    }

    fn gen_seed(self) -> u64 {
        match self {
            Dataset::DoubanBook => 0xD00B,
            Dataset::DoubanMovie => 0xD003,
            Dataset::Flixster => 0xF11C,
            Dataset::LastFm => 0x1A57,
        }
    }

    /// The learned GAPs the paper uses for this dataset in §7.3 (Last.fm has
    /// no inform signal, so the paper uses a synthetic Q).
    pub fn learned_gap(self) -> comic_core::Gap {
        use comic_core::Gap;
        match self {
            // The Unbearable Lightness of Being / Norwegian Wood.
            Dataset::DoubanBook => Gap::new(0.75, 0.85, 0.92, 0.97).unwrap(),
            // Fight Club / Se7en.
            Dataset::DoubanMovie => Gap::new(0.84, 0.89, 0.89, 0.95).unwrap(),
            // Monster Inc / Shrek.
            Dataset::Flixster => Gap::new(0.88, 0.92, 0.92, 0.96).unwrap(),
            // Synthetic (§7.3).
            Dataset::LastFm => Gap::new(0.5, 0.75, 0.5, 0.75).unwrap(),
        }
    }

    /// Instantiate the stand-in at `size_factor` of paper scale with
    /// weighted-cascade probabilities. Flixster additionally extracts the
    /// largest SCC, mirroring the paper's preprocessing.
    pub fn instantiate(self, size_factor: f64) -> DiGraph {
        let (n0, m0) = self.paper_scale();
        let n = ((n0 as f64 * size_factor) as usize).max(200);
        let m = ((m0 as f64 * size_factor) as usize).max(5 * n);
        let mut rng = SmallRng::seed_from_u64(self.gen_seed());
        let topo = chung_lu(
            &ChungLuConfig {
                n,
                target_edges: m,
                exponent: self.exponent(),
            },
            &mut rng,
        )
        .expect("stand-in configuration is valid");
        let topo = if self == Dataset::Flixster {
            let (scc, _) = largest_scc(&topo);
            if scc.num_nodes() >= n / 10 {
                scc
            } else {
                topo // extremely sparse scales: keep the full graph
            }
        } else {
            topo
        };
        ProbModel::WeightedCascade.apply(&topo, &mut rng)
    }
}

/// Power-law graphs for the Figure 7(b) scalability sweep: `sizes` node
/// counts with exponent 2.16 and average degree ≈ 5, as in the paper.
pub fn scalability_series(sizes: &[usize]) -> Vec<(usize, DiGraph)> {
    sizes
        .iter()
        .map(|&n| {
            let mut rng = SmallRng::seed_from_u64(0x5CA1E + n as u64);
            let topo = chung_lu(
                &ChungLuConfig {
                    n,
                    target_edges: 5 * n / 2,
                    exponent: 2.16,
                },
                &mut rng,
            )
            .expect("valid scalability config");
            (n, ProbModel::WeightedCascade.apply(&topo, &mut rng))
        })
        .collect()
}

// ---------------------------------------------------------------------------
// On-disk dataset registry.
// ---------------------------------------------------------------------------

/// How edge probabilities are assigned after a text file is parsed.
///
/// SNAP exports carry no probability column (every parsed edge defaults to
/// 1.0), so real ingestion always composes the topology with one of the
/// standard models; `Keep` is for files that already carry learned or
/// previously-assigned probabilities.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum ProbAssignment {
    /// Keep the probabilities found in the file.
    Keep,
    /// Every edge gets the same probability.
    Constant(f64),
    /// `p(u, v) = 1 / indeg(v)` (weighted cascade) — deterministic.
    WeightedCascade,
    /// The classic trivalency model `{0.1, 0.01, 0.001}`, drawn with the
    /// spec's `prob_seed` so assignment is reproducible.
    Trivalency,
    /// Uniform draw from `[lo, hi]`, seeded like `Trivalency`.
    Uniform {
        /// Inclusive lower bound.
        lo: f64,
        /// Inclusive upper bound.
        hi: f64,
    },
}

impl ProbAssignment {
    /// Apply to `g`; stochastic models draw from a `SmallRng` seeded with
    /// `seed`, so the result is deterministic per spec.
    pub fn apply(&self, g: &DiGraph, seed: u64) -> DiGraph {
        let mut rng = SmallRng::seed_from_u64(seed);
        let model = match self {
            ProbAssignment::Keep => return g.clone(),
            ProbAssignment::Constant(p) => ProbModel::Constant(*p),
            ProbAssignment::WeightedCascade => ProbModel::WeightedCascade,
            ProbAssignment::Trivalency => ProbModel::trivalency(),
            ProbAssignment::Uniform { lo, hi } => ProbModel::Uniform { lo: *lo, hi: *hi },
        };
        model.apply(g, &mut rng)
    }

    /// Short label for listings (`keep`, `wc`, `triv`, `uniform[a,b]`, `p=x`).
    pub fn label(&self) -> String {
        match self {
            ProbAssignment::Keep => "keep".into(),
            ProbAssignment::Constant(p) => format!("p={p}"),
            ProbAssignment::WeightedCascade => "wc".into(),
            ProbAssignment::Trivalency => "triv".into(),
            ProbAssignment::Uniform { lo, hi } => format!("uniform[{lo},{hi}]"),
        }
    }

    /// Parse a label produced by [`ProbAssignment::label`] (the `--dataset
    /// path:model` suffix syntax): `keep | wc | triv | uniform |
    /// uniform[lo,hi] | p=<x>` — every `label()` output round-trips.
    pub fn parse(s: &str) -> Option<ProbAssignment> {
        match s {
            "keep" => return Some(ProbAssignment::Keep),
            "wc" | "weighted-cascade" => return Some(ProbAssignment::WeightedCascade),
            "triv" | "trivalency" => return Some(ProbAssignment::Trivalency),
            "uniform" => return Some(ProbAssignment::Uniform { lo: 0.0, hi: 0.1 }),
            _ => {}
        }
        if let Some(inner) = s.strip_prefix("uniform[").and_then(|r| r.strip_suffix(']')) {
            let (lo, hi) = inner.split_once(',')?;
            let lo: f64 = lo.trim().parse().ok()?;
            let hi: f64 = hi.trim().parse().ok()?;
            return (0.0 <= lo && lo <= hi && hi <= 1.0)
                .then_some(ProbAssignment::Uniform { lo, hi });
        }
        s.strip_prefix("p=")
            .and_then(|v| v.parse().ok())
            .filter(|p| (0.0..=1.0).contains(p))
            .map(ProbAssignment::Constant)
    }

    /// Filename-safe form of [`ProbAssignment::label`], used to key the
    /// binary cache so that switching models on the same source file can
    /// never serve a stale graph.
    pub fn file_tag(&self) -> String {
        self.label()
            .chars()
            .map(|c| if c.is_ascii_alphanumeric() { c } else { '-' })
            .collect::<String>()
            .trim_matches('-')
            .to_string()
    }
}

/// One registry entry: where a dataset lives, what it should contain, and
/// how to turn its topology into a Com-IC-ready probabilistic graph.
#[derive(Clone, Debug)]
pub struct DatasetSpec {
    /// Registry name (`--dataset <name>`).
    pub name: &'static str,
    /// Source path, relative to [`data_root`] unless absolute.
    pub path: &'static str,
    /// Manifest: expected node count after ingestion (`None` = unchecked,
    /// for real downloads whose exact snapshot varies).
    pub expected_nodes: Option<usize>,
    /// Manifest: expected edge count after ingestion.
    pub expected_edges: Option<usize>,
    /// Probability model applied after parsing.
    pub prob: ProbAssignment,
    /// Seed for stochastic probability models.
    pub prob_seed: u64,
    /// GAP preset `(q_A|0, q_A|B, q_B|0, q_B|A)` for the item pair run on
    /// this dataset (the paper's learned values where available).
    pub gap: (f64, f64, f64, f64),
    /// Whether the file ships with the repository (fixtures) — `--validate`
    /// fails when a required file is missing, and merely notes optional
    /// ones (real downloads).
    pub required: bool,
    /// One-line provenance note for listings.
    pub note: &'static str,
}

impl DatasetSpec {
    /// The GAP preset as a [`Gap`].
    pub fn gap(&self) -> Gap {
        Gap::new(self.gap.0, self.gap.1, self.gap.2, self.gap.3).expect("registry GAPs are valid")
    }

    /// Absolute source path. Committed fixtures (under `tests/`) resolve
    /// against the workspace root; download slots against [`data_root`].
    pub fn source_path(&self) -> PathBuf {
        let p = Path::new(self.path);
        if p.is_absolute() {
            p.to_path_buf()
        } else if self.path.starts_with("tests/") {
            workspace_root().join(p)
        } else {
            data_root().join(p)
        }
    }

    /// Where this entry's binary cache lives.
    pub fn cache_path(&self) -> PathBuf {
        cache_path_for(&self.source_path(), &self.prob.file_tag(), self.prob_seed)
    }

    /// Whether the manifest actually pins both sizes. Entries with `None`
    /// expectations (real downloads whose snapshot varies) pass
    /// [`validate_manifest`] vacuously, so `--validate` reports them as
    /// `unverified` rather than `ok` — a pass that checked nothing must
    /// not read like a pass that checked everything.
    pub fn manifest_complete(&self) -> bool {
        self.expected_nodes.is_some() && self.expected_edges.is_some()
    }
}

/// Expected sizes of the committed fixtures (see `make_fixtures`): the
/// manifest the ingestion path is validated against in CI.
pub const FIXTURE_SMALL_NODES: usize = 1_200;
/// Edge count of `fixture-small` (see [`FIXTURE_SMALL_NODES`]).
pub const FIXTURE_SMALL_EDGES: usize = 5_000;
/// Node count of `fixture-medium`.
pub const FIXTURE_MEDIUM_NODES: usize = 9_000;
/// Edge count of `fixture-medium`.
pub const FIXTURE_MEDIUM_EDGES: usize = 50_000;

/// The registry: committed fixtures first, then slots for the paper's real
/// datasets (downloaded separately; see README "Datasets").
pub static REGISTRY: &[DatasetSpec] = &[
    DatasetSpec {
        name: "fixture-small",
        path: "tests/fixtures/fixture-small.txt",
        expected_nodes: Some(FIXTURE_SMALL_NODES),
        expected_edges: Some(FIXTURE_SMALL_EDGES),
        prob: ProbAssignment::WeightedCascade,
        prob_seed: 0,
        gap: (0.75, 0.85, 0.92, 0.97), // Douban-Book's learned pair
        required: true,
        note: "committed Chung-Lu fixture (~5k edges), SNAP text format",
    },
    DatasetSpec {
        name: "fixture-medium",
        path: "tests/fixtures/fixture-medium.txt",
        expected_nodes: Some(FIXTURE_MEDIUM_NODES),
        expected_edges: Some(FIXTURE_MEDIUM_EDGES),
        prob: ProbAssignment::Trivalency,
        prob_seed: 0xF1C6,
        gap: (0.88, 0.92, 0.92, 0.96), // Flixster's learned pair
        required: true,
        note: "committed Chung-Lu fixture (~50k edges), SNAP text format",
    },
    DatasetSpec {
        name: "flixster",
        path: "data/flixster.txt",
        expected_nodes: None,
        expected_edges: None,
        prob: ProbAssignment::WeightedCascade,
        prob_seed: 0xF11C,
        gap: (0.88, 0.92, 0.92, 0.96),
        required: false,
        note: "real Flixster friendship graph (download; bidirect + SCC upstream)",
    },
    DatasetSpec {
        name: "douban-book",
        path: "data/douban-book.txt",
        expected_nodes: None,
        expected_edges: None,
        prob: ProbAssignment::WeightedCascade,
        prob_seed: 0xD00B,
        gap: (0.75, 0.85, 0.92, 0.97),
        required: false,
        note: "real Douban-Book follower graph (download)",
    },
    DatasetSpec {
        name: "douban-movie",
        path: "data/douban-movie.txt",
        expected_nodes: None,
        expected_edges: None,
        prob: ProbAssignment::WeightedCascade,
        prob_seed: 0xD003,
        gap: (0.84, 0.89, 0.89, 0.95),
        required: false,
        note: "real Douban-Movie follower graph (download)",
    },
    DatasetSpec {
        name: "lastfm",
        path: "data/lastfm.txt",
        expected_nodes: None,
        expected_edges: None,
        prob: ProbAssignment::WeightedCascade,
        prob_seed: 0x1A57,
        gap: (0.5, 0.75, 0.5, 0.75),
        required: false,
        note: "real Last.fm friendship graph (download; synthetic GAPs, §7.3)",
    },
];

/// Look a registry entry up by name.
pub fn find_spec(name: &str) -> Option<&'static DatasetSpec> {
    REGISTRY.iter().find(|s| s.name == name)
}

/// The workspace root — where the committed fixture corpus lives,
/// independent of any environment override.
pub fn workspace_root() -> PathBuf {
    // crates/bench/ -> workspace root.
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .canonicalize()
        .unwrap_or_else(|_| PathBuf::from("."))
}

/// Root against which *downloaded* registry paths (`data/...`) resolve:
/// `$COMIC_DATA_DIR` when set, the workspace root otherwise. Committed
/// fixtures always resolve against [`workspace_root`], so pointing
/// `COMIC_DATA_DIR` at a download directory cannot orphan them.
pub fn data_root() -> PathBuf {
    if let Ok(dir) = std::env::var("COMIC_DATA_DIR") {
        return PathBuf::from(dir);
    }
    workspace_root()
}

/// Cache file that sits next to a dataset source, keyed by the probability
/// model (its [`ProbAssignment::file_tag`]), its seed, and the source's
/// byte length — a different model, seed, or re-downloaded file of another
/// size resolves to a different cache file, so one can never be mistaken
/// for the other. Same-length replacements are caught by the **source
/// content digest** recorded in the cache's meta words, which the loader
/// verifies on every cache hit — no mtime heuristics, so even a `cp -p`
/// replacement (same length, deliberately preserved older timestamp) is
/// detected and the cache rebuilt.
pub fn cache_path_for(source: &Path, prob_tag: &str, prob_seed: u64) -> PathBuf {
    let len = std::fs::metadata(source).map(|m| m.len()).unwrap_or(0);
    let mut os = source.as_os_str().to_os_string();
    os.push(format!(".{prob_tag}-{prob_seed:x}-{len:x}.cache"));
    PathBuf::from(os)
}

/// Whether and how the binary cache participates in a load.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CacheMode {
    /// Read the cache when present and valid; (re)write it otherwise.
    Use,
    /// Ignore any existing cache but write a fresh one.
    Refresh,
    /// Never read nor write the cache.
    Off,
}

/// A dataset pulled through the full ingestion path, ready for a driver.
#[derive(Clone, Debug)]
pub struct LoadedDataset {
    /// Registry name, or the file stem for ad-hoc paths.
    pub name: String,
    /// Resolved source file.
    pub source: PathBuf,
    /// Cache file location (whether or not it exists).
    pub cache: PathBuf,
    /// The ready probabilistic graph (shared — experiment drivers may hold
    /// many handles to one multi-million-edge load).
    pub graph: Arc<DiGraph>,
    /// GAP preset for the item pair on this dataset.
    pub gap: Gap,
    /// Content digest of `graph` (see `comic_graph::io::graph_digest`).
    pub digest: u64,
    /// Whether this load was served from the binary cache.
    pub from_cache: bool,
    /// Duplicate edges merged during text parsing; `None` on cache hits,
    /// where the text was never re-read (the cache stores the merged graph
    /// only).
    pub duplicates_merged: Option<usize>,
}

impl LoadedDataset {
    /// Graph statistics with the ingestion dedup count filled in (0 when
    /// unknown, i.e. on cache hits).
    pub fn stats(&self) -> GraphStats {
        stats_with_merged(&self.graph, self.duplicates_merged.unwrap_or(0))
    }
}

/// Everything that can go wrong between `--dataset` and a ready graph.
#[derive(Debug)]
pub enum DatasetError {
    /// The argument named neither a registry entry nor an existing file.
    Unknown(String),
    /// The spec's source file does not exist.
    Missing(PathBuf),
    /// Parsing, probability validation, or cache I/O failed.
    Graph(GraphError),
    /// The ingested graph contradicts the manifest.
    Manifest {
        /// Dataset name.
        name: String,
        /// Which quantity mismatched (`nodes` / `edges`).
        what: &'static str,
        /// Manifest expectation.
        expected: usize,
        /// What ingestion produced.
        found: usize,
    },
}

impl fmt::Display for DatasetError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DatasetError::Unknown(arg) => {
                let names: Vec<&str> = REGISTRY.iter().map(|s| s.name).collect();
                write!(
                    f,
                    "'{arg}' is neither a registered dataset ({}) nor an existing file",
                    names.join(", ")
                )
            }
            DatasetError::Missing(p) => write!(
                f,
                "dataset file {} does not exist (set COMIC_DATA_DIR or download it; \
                 see README 'Datasets')",
                p.display()
            ),
            DatasetError::Graph(e) => write!(f, "dataset ingestion failed: {e}"),
            DatasetError::Manifest {
                name,
                what,
                expected,
                found,
            } => write!(
                f,
                "dataset '{name}' failed manifest validation: expected {expected} {what}, \
                 ingested {found}"
            ),
        }
    }
}

impl std::error::Error for DatasetError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            DatasetError::Graph(e) => Some(e),
            _ => None,
        }
    }
}

impl From<GraphError> for DatasetError {
    fn from(e: GraphError) -> Self {
        DatasetError::Graph(e)
    }
}

/// Resolve a `--dataset` argument: a registry name, or a path to an
/// edge-list/SNAP text file, optionally suffixed `:keep | :wc | :triv |
/// :uniform | :p=<x>` to pick the probability model (ad-hoc paths default
/// to weighted cascade when the file carries no probability column, and to
/// `keep` when it does).
pub fn load(arg: &str) -> Result<LoadedDataset, DatasetError> {
    load_with(arg, CacheMode::Use)
}

/// [`load`] with explicit cache behaviour.
pub fn load_with(arg: &str, cache: CacheMode) -> Result<LoadedDataset, DatasetError> {
    if let Some(spec) = find_spec(arg) {
        return load_spec(spec, cache);
    }
    // `path:model` suffix?
    let (path_str, forced_prob) = match arg.rsplit_once(':') {
        Some((head, tail)) if ProbAssignment::parse(tail).is_some() && !head.is_empty() => {
            (head, ProbAssignment::parse(tail))
        }
        _ => (arg, None),
    };
    let path = Path::new(path_str);
    if !path.exists() {
        return Err(if path_str == arg {
            DatasetError::Unknown(arg.to_string())
        } else {
            DatasetError::Missing(path.to_path_buf())
        });
    }
    load_path(path, forced_prob, cache)
}

/// Load a registry entry through the cache-then-parse path.
pub fn load_spec(spec: &DatasetSpec, cache: CacheMode) -> Result<LoadedDataset, DatasetError> {
    let source = spec.source_path();
    if !source.exists() {
        return Err(DatasetError::Missing(source));
    }
    let loaded = load_file(
        spec.name,
        &source,
        ProbChoice::Fixed(spec.prob),
        spec.prob_seed,
        spec.gap(),
        cache,
    )?;
    validate_manifest(spec, &loaded)?;
    Ok(loaded)
}

/// Manifest check: the ingested graph must match the spec's expected sizes.
pub fn validate_manifest(spec: &DatasetSpec, loaded: &LoadedDataset) -> Result<(), DatasetError> {
    let checks = [
        ("nodes", spec.expected_nodes, loaded.graph.num_nodes()),
        ("edges", spec.expected_edges, loaded.graph.num_edges()),
    ];
    for (what, expected, found) in checks {
        if let Some(expected) = expected {
            if expected != found {
                return Err(DatasetError::Manifest {
                    name: spec.name.to_string(),
                    what,
                    expected,
                    found,
                });
            }
        }
    }
    Ok(())
}

/// How the probability model for a load is determined: pinned by a spec or
/// a `:model` suffix, or sniffed from the parsed file (ad-hoc paths with no
/// suffix). `Auto` gets its own cache-file tag so the decision is stable
/// across cache hits without re-reading the text.
enum ProbChoice {
    Fixed(ProbAssignment),
    Auto,
}

impl ProbChoice {
    fn file_tag(&self) -> String {
        match self {
            ProbChoice::Fixed(p) => p.file_tag(),
            ProbChoice::Auto => "auto".to_string(),
        }
    }

    /// Resolve against a parsed file: keep an existing probability column,
    /// otherwise fall back to weighted cascade (an all-1.0 graph is never
    /// what a SNAP pair file means).
    fn resolve(&self, parsed: &DiGraph) -> ProbAssignment {
        match self {
            ProbChoice::Fixed(p) => *p,
            ProbChoice::Auto => {
                if parsed.edges().any(|(_, e)| e.p != 1.0) {
                    ProbAssignment::Keep
                } else {
                    ProbAssignment::WeightedCascade
                }
            }
        }
    }
}

/// Caches are keyed by source length, so every re-download of a different
/// size would leave the previous `<file>.<tag>-<seed>-<len>.cache` behind;
/// sweep same-model siblings of the one just written (best-effort — other
/// probability models' caches on the same source stay untouched).
fn remove_superseded_caches(source: &Path, prob_tag: &str, prob_seed: u64, current: &Path) {
    let Some(dir) = source.parent() else { return };
    let Some(fname) = source.file_name().and_then(|f| f.to_str()) else {
        return;
    };
    let prefix = format!("{fname}.{prob_tag}-{prob_seed:x}-");
    let Ok(entries) = std::fs::read_dir(dir) else {
        return;
    };
    for entry in entries.flatten() {
        let name = entry.file_name();
        let Some(name) = name.to_str() else { continue };
        if name.starts_with(&prefix) && name.ends_with(".cache") && entry.path() != current {
            let _ = std::fs::remove_file(entry.path());
        }
    }
}

fn load_path(
    path: &Path,
    forced_prob: Option<ProbAssignment>,
    cache: CacheMode,
) -> Result<LoadedDataset, DatasetError> {
    let name = path
        .file_stem()
        .map(|s| s.to_string_lossy().into_owned())
        .unwrap_or_else(|| path.display().to_string());
    // Ad-hoc GAP preset: a mutually complementary mid-range pair.
    let gap = Gap::new(0.5, 0.75, 0.5, 0.75).expect("default GAP is valid");
    let choice = forced_prob.map_or(ProbChoice::Auto, ProbChoice::Fixed);
    load_file(&name, path, choice, 0xADC0C, gap, cache)
}

/// Best-effort cache write: the cache is a pure optimization, so a
/// failed write (read-only directory, full disk) must not fail the load
/// itself. Atomic-enough: write a sibling temp file, then rename over.
/// Returns whether the cache landed.
fn write_cache(graph: &DiGraph, src_digest: u64, cache_file: &Path) -> bool {
    let tmp = cache_file.with_extension("cache.tmp");
    let write = store::write_store_file(graph, src_digest, &tmp)
        .and_then(|()| std::fs::rename(&tmp, cache_file).map_err(GraphError::Io));
    if let Err(e) = write {
        let _ = std::fs::remove_file(&tmp);
        eprintln!(
            "warning: could not write dataset cache {}: {e}",
            cache_file.display()
        );
        false
    } else {
        true
    }
}

fn load_file(
    name: &str,
    source: &Path,
    choice: ProbChoice,
    prob_seed: u64,
    gap: Gap,
    cache: CacheMode,
) -> Result<LoadedDataset, DatasetError> {
    let cache_file = cache_path_for(source, &choice.file_tag(), prob_seed);
    // Hash the source text up front: the digest keys both the cache-hit
    // staleness check (the store records it) and the provenance recorded on
    // a rebuild. Hashing is a single sequential read — far cheaper than
    // parsing, and the price of making staleness a *content* property
    // instead of an mtime guess.
    let src_bytes = std::fs::read(source).map_err(GraphError::Io)?;
    let src_digest = source_digest(&src_bytes);
    if cache == CacheMode::Use {
        // A stale or corrupt cache (bad magic, another format version,
        // digest mismatch, short file, or a source content change,
        // including the same-length `cp -p` replacement the old mtime
        // check missed) is not fatal — fall through and rebuild it from
        // the source text.
        if let Ok(graph) = store::read_store_file(&cache_file, Some(src_digest)) {
            let digest = graph_digest(&graph);
            return Ok(LoadedDataset {
                name: name.to_string(),
                source: source.to_path_buf(),
                cache: cache_file,
                graph: Arc::new(graph),
                gap,
                digest,
                from_cache: true,
                duplicates_merged: None,
            });
        }
    }

    let rep = read_edge_list_report(&src_bytes[..])?;
    let graph = choice.resolve(&rep.graph).apply(&rep.graph, prob_seed);
    let digest = graph_digest(&graph);
    if cache != CacheMode::Off && write_cache(&graph, src_digest, &cache_file) {
        remove_superseded_caches(source, &choice.file_tag(), prob_seed, &cache_file);
    }
    Ok(LoadedDataset {
        name: name.to_string(),
        source: source.to_path_buf(),
        cache: cache_file,
        graph: Arc::new(graph),
        gap,
        digest,
        from_cache: false,
        duplicates_merged: Some(rep.duplicate_edges_merged),
    })
}

// ---------------------------------------------------------------------------
// DataSource: synthetic stand-ins and loaded files behind one face.
// ---------------------------------------------------------------------------

/// What an experiment driver runs on: one of the four synthetic stand-ins,
/// or a dataset pulled through the on-disk ingestion path.
#[derive(Clone)]
pub enum DataSource {
    /// A Table 1 stand-in, instantiated per `size_factor`.
    Synthetic(Dataset),
    /// A loaded on-disk dataset (shared, loaded once).
    Loaded(Arc<LoadedDataset>),
}

impl DataSource {
    /// The four synthetic stand-ins, in Table 1 order — the default when no
    /// `--dataset` is given.
    pub fn default_sources() -> Vec<DataSource> {
        Dataset::ALL
            .into_iter()
            .map(DataSource::Synthetic)
            .collect()
    }

    /// Display name.
    pub fn name(&self) -> String {
        match self {
            DataSource::Synthetic(d) => d.name().to_string(),
            DataSource::Loaded(l) => l.name.clone(),
        }
    }

    /// The ready graph. Synthetic stand-ins instantiate at `size_factor`;
    /// loaded datasets are what they are on disk and ignore it (and hand
    /// out another `Arc` handle rather than copying the CSR).
    pub fn graph(&self, size_factor: f64) -> Arc<DiGraph> {
        match self {
            DataSource::Synthetic(d) => Arc::new(d.instantiate(size_factor)),
            DataSource::Loaded(l) => Arc::clone(&l.graph),
        }
    }

    /// The GAP preset for the item pair on this dataset.
    pub fn gap(&self) -> Gap {
        match self {
            DataSource::Synthetic(d) => d.learned_gap(),
            DataSource::Loaded(l) => l.gap,
        }
    }

    /// The underlying stand-in, when synthetic.
    pub fn synthetic(&self) -> Option<Dataset> {
        match self {
            DataSource::Synthetic(d) => Some(*d),
            DataSource::Loaded(_) => None,
        }
    }

    /// The underlying loaded dataset, when on-disk.
    pub fn loaded(&self) -> Option<&LoadedDataset> {
        match self {
            DataSource::Synthetic(_) => None,
            DataSource::Loaded(l) => Some(l),
        }
    }
}

/// Source for the criterion micro-benchmarks, which have no CLI of their
/// own: `$COMIC_BENCH_DATASET` (a registry name or `path[:prob-model]`,
/// pulled through the full ingestion path with the binary cache) when set,
/// the synthetic stand-in `default` otherwise.
pub fn bench_source(default: Dataset) -> DataSource {
    match std::env::var("COMIC_BENCH_DATASET") {
        Ok(arg) => DataSource::Loaded(Arc::new(
            load(&arg).unwrap_or_else(|e| panic!("COMIC_BENCH_DATASET: {e}")),
        )),
        Err(_) => DataSource::Synthetic(default),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stand_ins_instantiate_at_small_scale() {
        for d in Dataset::ALL {
            let g = d.instantiate(0.05);
            assert!(g.num_nodes() >= 200, "{}", d.name());
            assert!(g.num_edges() > g.num_nodes(), "{}", d.name());
            let s = comic_graph::stats::stats(&g);
            // Tail heaviness shrinks with scale; Flixster is deliberately
            // the mildest (paper max/avg ≈ 13 vs Douban-Book's ≈ 260).
            assert!(
                s.max_out_degree as f64 > 3.0 * s.avg_out_degree,
                "{} should be heavy-tailed: {s}",
                d.name()
            );
        }
    }

    #[test]
    fn deterministic_per_dataset() {
        let a = Dataset::Flixster.instantiate(0.05);
        let b = Dataset::Flixster.instantiate(0.05);
        assert_eq!(a.num_nodes(), b.num_nodes());
        assert_eq!(a.num_edges(), b.num_edges());
    }

    #[test]
    fn learned_gaps_are_mutually_complementary() {
        for d in Dataset::ALL {
            assert_eq!(
                d.learned_gap().regime(),
                comic_core::Regime::MutualComplement,
                "{}",
                d.name()
            );
        }
    }

    #[test]
    fn scalability_series_scales() {
        let series = scalability_series(&[500, 1000]);
        assert_eq!(series.len(), 2);
        assert_eq!(series[0].1.num_nodes(), 500);
        assert_eq!(series[1].1.num_nodes(), 1000);
    }

    #[test]
    fn registry_names_resolve_and_unknowns_list_the_registry() {
        assert!(find_spec("fixture-small").is_some());
        assert!(find_spec("nope").is_none());
        let err = load("nope").unwrap_err();
        let msg = err.to_string();
        assert!(msg.contains("fixture-small"), "{msg}");
        assert!(msg.contains("douban-book"), "{msg}");
    }

    #[test]
    fn prob_assignment_parse_matches_label() {
        for p in [
            ProbAssignment::Keep,
            ProbAssignment::WeightedCascade,
            ProbAssignment::Trivalency,
            ProbAssignment::Constant(0.05),
            ProbAssignment::Uniform { lo: 0.1, hi: 0.3 },
        ] {
            assert_eq!(ProbAssignment::parse(&p.label()), Some(p));
        }
        assert!(ProbAssignment::parse("p=1.5").is_none());
        assert!(ProbAssignment::parse("garbage").is_none());
    }

    #[test]
    fn cache_sits_next_to_the_source_keyed_by_model() {
        let c = cache_path_for(Path::new("/tmp/x/no-such-graph.txt"), "wc", 0);
        assert_eq!(c, PathBuf::from("/tmp/x/no-such-graph.txt.wc-0-0.cache"));
        // Different models (or seeds) on one source use different caches.
        let p1 = ProbAssignment::Constant(0.5).file_tag();
        let p2 = ProbAssignment::WeightedCascade.file_tag();
        assert_ne!(
            cache_path_for(Path::new("g.txt"), &p1, 1),
            cache_path_for(Path::new("g.txt"), &p2, 1)
        );
        assert_eq!(
            ProbAssignment::Uniform { lo: 0.0, hi: 0.1 }.file_tag(),
            "uniform-0-0-1"
        );
    }

    fn temp_dataset(name: &str, contents: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("comic-datasets-test-{}-{name}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("graph.txt");
        std::fs::write(&path, contents).unwrap();
        path
    }

    #[test]
    fn ad_hoc_path_ingests_dedups_and_caches() {
        // Duplicate (0,1) line: last-wins, surfaced in the report; no
        // probability column → weighted cascade is auto-applied.
        let path = temp_dataset(
            "adhoc",
            "# Nodes: 5 Edges: 4\n0\t1\n1\t2\n0\t1\n2\t1\n3\t4\n",
        );
        let cold = load_with(path.to_str().unwrap(), CacheMode::Use).unwrap();
        assert!(!cold.from_cache);
        assert_eq!(cold.duplicates_merged, Some(1));
        assert_eq!(cold.graph.num_edges(), 4);
        assert_eq!(cold.stats().duplicate_edges_merged, 1);
        // Weighted cascade replaced the default 1.0 column.
        assert!(cold.graph.edges().any(|(_, e)| e.p < 1.0));
        let cache_bytes = std::fs::read(&cold.cache).unwrap();

        // Second load: served from the digest-validated cache, same graph.
        let warm = load_with(path.to_str().unwrap(), CacheMode::Use).unwrap();
        assert!(warm.from_cache);
        assert_eq!(warm.digest, cold.digest);
        assert_eq!(warm.graph.num_edges(), cold.graph.num_edges());
        assert_eq!(std::fs::read(&warm.cache).unwrap(), cache_bytes);

        // A corrupted cache is rebuilt transparently, not trusted.
        let mut bad = cache_bytes.clone();
        let last = bad.len() - 1;
        bad[last] ^= 0xFF;
        std::fs::write(&cold.cache, &bad).unwrap();
        let healed = load_with(path.to_str().unwrap(), CacheMode::Use).unwrap();
        assert!(!healed.from_cache);
        assert_eq!(healed.digest, cold.digest);
        assert_eq!(std::fs::read(&healed.cache).unwrap(), cache_bytes);
    }

    /// The ROADMAP's one undetected staleness case, closed by the recorded
    /// source digest: replace the source with a same-length file whose
    /// mtime is deliberately kept older than the cache (`cp -p`). The old
    /// mtime heuristic served the stale cache; the content hash rebuilds.
    #[test]
    fn same_length_older_mtime_replacement_is_detected() {
        let v1 = "0 1 0.25\n1 2 0.25\n";
        let v2 = "0 1 0.75\n1 2 0.75\n"; // same byte length, new content
        assert_eq!(v1.len(), v2.len());
        let path = temp_dataset("cp-p", v1);
        let arg = path.to_str().unwrap();

        let cold = load_with(arg, CacheMode::Use).unwrap();
        assert!(!cold.from_cache);
        let warm = load_with(arg, CacheMode::Use).unwrap();
        assert!(warm.from_cache, "sanity: unchanged source hits the cache");

        // Replace the content but push the source mtime well behind the
        // cache's, simulating `cp -p old-backup graph.txt`.
        std::fs::write(&path, v2).unwrap();
        let older = std::time::SystemTime::now() - std::time::Duration::from_secs(3_600);
        std::fs::File::options()
            .write(true)
            .open(&path)
            .unwrap()
            .set_times(std::fs::FileTimes::new().set_modified(older))
            .unwrap();

        let healed = load_with(arg, CacheMode::Use).unwrap();
        assert!(
            !healed.from_cache,
            "stale cache with older-mtime source must be rebuilt"
        );
        assert_ne!(healed.digest, cold.digest, "new content, new graph");
        // And the rebuilt cache serves the new content from then on.
        let warm2 = load_with(arg, CacheMode::Use).unwrap();
        assert!(warm2.from_cache);
        assert_eq!(warm2.digest, healed.digest);
    }

    #[test]
    fn cache_with_an_older_version_field_is_rebuilt_from_text() {
        let path = temp_dataset("old-version", "0 1 0.5\n1 2 0.5\n2 0 0.5\n");
        let arg = path.to_str().unwrap();
        let cold = load_with(arg, CacheMode::Use).unwrap();
        assert!(!cold.from_cache);
        let fresh = std::fs::read(&cold.cache).unwrap();

        // Patch the version field to 3, the retired edge-record layout.
        let mut old = fresh.clone();
        old[8..12].copy_from_slice(&3u32.to_le_bytes());
        std::fs::write(&cold.cache, &old).unwrap();
        assert!(matches!(
            store::read_store_file(&cold.cache, None),
            Err(GraphError::UnsupportedVersion { found: 3, .. })
        ));

        // It takes the ordinary stale path: rebuilt from the text and
        // rewritten as the current store, which the next load maps.
        let rebuilt = load_with(arg, CacheMode::Use).unwrap();
        assert!(!rebuilt.from_cache, "an old-version cache must not serve");
        assert_eq!(rebuilt.digest, cold.digest);
        assert_eq!(std::fs::read(&cold.cache).unwrap(), fresh);
        let warm = load_with(arg, CacheMode::Use).unwrap();
        assert!(warm.from_cache);
        assert_eq!(warm.digest, cold.digest);
    }

    /// The acceptance gate for the zero-copy store: on BOTH committed
    /// fixtures, a store load reproduces the parsed graph's digest in both
    /// store modes (mmap and safe bulk-read — the `COMIC_MMAP=on|off`
    /// axis, pinned explicitly here since the env override is
    /// process-wide).
    #[test]
    fn store_loads_reproduce_the_committed_fixtures() {
        use comic_graph::store::StoreMode;
        let dir = std::env::temp_dir().join(format!(
            "comic-datasets-test-{}-fixtures",
            std::process::id()
        ));
        std::fs::create_dir_all(&dir).unwrap();
        for name in ["fixture-small", "fixture-medium"] {
            let loaded = load_with(name, CacheMode::Off).unwrap();
            let src = source_digest(&std::fs::read(&loaded.source).unwrap());
            let path = dir.join(format!("{name}.grb"));
            store::write_store_file(&loaded.graph, src, &path).unwrap();
            for mode in [StoreMode::Mmap, StoreMode::Read] {
                let from_store = store::read_store_file_with(&path, Some(src), mode).unwrap();
                assert_eq!(
                    graph_digest(&from_store),
                    loaded.digest,
                    "{name} mode {}",
                    mode.name()
                );
            }
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn manifest_complete_requires_both_expectations() {
        let full = &REGISTRY[0];
        assert!(full.manifest_complete(), "fixtures pin both sizes");
        let mut partial = full.clone();
        partial.expected_edges = None;
        assert!(!partial.manifest_complete());
        partial.expected_nodes = None;
        assert!(!partial.manifest_complete());
        // Every non-required registry entry (real downloads) is unverified.
        for spec in REGISTRY.iter().filter(|s| !s.required) {
            assert!(
                !spec.manifest_complete(),
                "{} should be unverified",
                spec.name
            );
        }
    }

    #[test]
    fn prob_suffix_forces_the_model() {
        let path = temp_dataset("suffix", "0 1 0.25\n1 2 0.25\n");
        // Default sniffing keeps the probability column…
        let kept = load_with(path.to_str().unwrap(), CacheMode::Off).unwrap();
        assert!(kept.graph.edges().all(|(_, e)| e.p == 0.25));
        // …while an explicit suffix overrides it.
        let arg = format!("{}:p=0.5", path.display());
        let forced = load_with(&arg, CacheMode::Off).unwrap();
        assert!(forced.graph.edges().all(|(_, e)| e.p == 0.5));
    }

    #[test]
    fn manifest_mismatch_is_a_typed_error() {
        let path = temp_dataset("manifest", "0 1\n1 2\n");
        let leaked: &'static str = Box::leak(path.display().to_string().into_boxed_str());
        let spec = DatasetSpec {
            name: "manifest-test",
            path: leaked,
            expected_nodes: Some(3),
            expected_edges: Some(99),
            prob: ProbAssignment::Constant(0.5),
            prob_seed: 0,
            gap: (0.5, 0.75, 0.5, 0.75),
            required: true,
            note: "",
        };
        match load_spec(&spec, CacheMode::Off) {
            Err(DatasetError::Manifest {
                what: "edges",
                expected: 99,
                found: 2,
                ..
            }) => {}
            other => panic!("expected manifest error, got {other:?}"),
        }
    }

    #[test]
    fn data_source_unifies_both_worlds() {
        let synth = DataSource::Synthetic(Dataset::Flixster);
        assert_eq!(synth.name(), "Flixster");
        assert!(synth.synthetic().is_some());
        let path = temp_dataset("source", "0 1 0.5\n1 0 0.5\n");
        let loaded = DataSource::Loaded(Arc::new(
            load_with(path.to_str().unwrap(), CacheMode::Off).unwrap(),
        ));
        assert_eq!(loaded.name(), "graph");
        assert!(loaded.synthetic().is_none());
        // size_factor is a no-op for loaded datasets.
        assert_eq!(
            loaded.graph(0.01).num_nodes(),
            loaded.graph(1.0).num_nodes()
        );
        assert_eq!(loaded.gap().regime(), comic_core::Regime::MutualComplement);
    }
}
