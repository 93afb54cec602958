//! What every workload shares: run options, the scratch directory the
//! generated inputs live in, the tally of attempted and failed
//! operations, process memory readings, and run provenance.

use crate::metrics::Metrics;
use std::path::{Path, PathBuf};
use std::time::Instant;

/// Worker threads for pool generation, selection and Monte-Carlo. Fixed
/// rather than taken from the host so that answers (pool bytes are fixed
/// per seed and thread count) do not depend on the machine;
/// `host_cores` in the provenance says how many cores ran them.
pub const THREADS: usize = 2;

/// Set-ups timed, each next to its split replay, for the traced run's
/// set-up reconciliation (set-ups of ~0.1 s vary by ~20% one to the next).
pub const RECONCILE_REPS: usize = 25;

/// Directory, relative to the working directory, under which each run
/// creates (and removes) its own scratch directory.
pub const WORK_ROOT: &str = ".perfbench-work";

/// Options shared by every workload.
#[derive(Clone, Debug)]
pub struct RunOpts {
    /// Workload seed; every generated input derives from it.
    pub seed: u64,
    /// Seconds of measured load.
    pub seconds: f64,
    /// Whether this is the traced (per-layer) run.
    pub trace: bool,
    /// Where to create the scratch directory.
    pub work_root: PathBuf,
    /// This benchmark's executable. A workload that prepares state in a
    /// child process (so the measured process's peak memory excludes it)
    /// runs it with `--prepare`.
    pub exe: PathBuf,
    /// Size arguments passed on to the child (`--smoke` or none).
    pub exe_args: Vec<String>,
}

/// Cores the host offers this process.
pub fn host_cores() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Client threads for closed-loop load: at most the host's cores.
pub fn client_threads() -> usize {
    host_cores().clamp(1, THREADS)
}

/// A scratch directory removed (with everything in it) when dropped.
#[derive(Debug)]
pub struct WorkDir(PathBuf);

impl WorkDir {
    /// Create `<root>/<label>-s<seed>-p<pid>`, replacing any leftover.
    pub fn create(root: &Path, label: &str, seed: u64) -> Result<WorkDir, String> {
        let dir = root.join(format!("{label}-s{seed}-p{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).map_err(|e| format!("mkdir {}: {e}", dir.display()))?;
        Ok(WorkDir(dir))
    }

    /// The directory.
    pub fn path(&self) -> &Path {
        &self.0
    }
}

impl Drop for WorkDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
        // Remove the shared root too once the last run has left it.
        if let Some(parent) = self.0.parent() {
            let _ = std::fs::remove_dir(parent);
        }
    }
}

/// Operations attempted and failed, with the first few failure reasons.
#[derive(Debug, Default)]
pub struct Tally {
    /// Operations attempted, output checks included.
    pub attempted: u64,
    /// Operations that failed or were refused, and failed checks.
    pub failed: u64,
    /// Why, for the first failures.
    pub reasons: Vec<String>,
}

impl Tally {
    /// Count one operation; on failure record `why()`.
    pub fn op(&mut self, ok: bool, why: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            if self.reasons.len() < 8 {
                self.reasons.push(why());
            }
        }
    }
}

/// What a workload run produced.
#[derive(Debug, Default)]
pub struct Outcome {
    /// End-to-end metrics (untraced values).
    pub e2e: Metrics,
    /// Per-layer metrics (traced runs only).
    pub layers: Metrics,
    /// Attempted and failed operations.
    pub tally: Tally,
    /// Provenance, as `(key, JSON value)` pairs.
    pub provenance: Vec<(String, String)>,
}

impl Outcome {
    /// Record a provenance field whose value is a number or bool,
    /// replacing an earlier value of the same field.
    pub fn note(&mut self, key: &str, value: impl std::fmt::Display) {
        self.set_field(key, value.to_string());
    }

    fn set_field(&mut self, key: &str, json: String) {
        match self.provenance.iter_mut().find(|(k, _)| k == key) {
            Some(slot) => slot.1 = json,
            None => self.provenance.push((key.to_string(), json)),
        }
    }

    /// Record a provenance field whose value is a string.
    pub fn note_str(&mut self, key: &str, value: &str) {
        let escaped: String = value
            .chars()
            .flat_map(|c| match c {
                '"' | '\\' => vec!['\\', c],
                c if c.is_control() => vec![' '],
                c => vec![c],
            })
            .collect();
        self.set_field(key, format!("\"{escaped}\""));
    }

    /// Record the fields every workload shares: host, thread counts,
    /// kernel and store modes, and the run's own options.
    pub fn note_common(&mut self, workload: &str, opts: &RunOpts) {
        self.note_str("workload", workload);
        self.note("seed", opts.seed);
        self.note("seconds", opts.seconds);
        self.note("trace", opts.trace);
        self.note("host_cores", host_cores());
        self.note("client_threads", client_threads());
        self.note("gen_threads", THREADS);
        self.note("query_threads", THREADS);
        self.note_str("simd", comic_ris::simd::active().name());
        self.note_str("store_mode", comic_graph::store::active().name());
        for var in ["COMIC_SIMD", "COMIC_MMAP"] {
            let v = std::env::var(var).unwrap_or_default();
            self.note_str(var, &v);
        }
    }

    /// Record the served graph's size and content digest.
    pub fn note_graph(&mut self, g: &comic_graph::DiGraph) {
        self.note("graph_n", g.num_nodes());
        self.note("graph_m", g.num_edges());
        self.note_str(
            "graph_digest",
            &format!("{:016x}", comic_graph::io::graph_digest(g)),
        );
    }

    /// The provenance as one JSON object line.
    pub fn provenance_line(&self) -> String {
        let body: Vec<String> = self
            .provenance
            .iter()
            .map(|(k, v)| format!("\"{k}\": {v}"))
            .collect();
        format!("{{\"provenance\": {{{}}}}}", body.join(", "))
    }
}

/// Milliseconds elapsed since `t`.
pub fn ms_since(t: Instant) -> f64 {
    t.elapsed().as_secs_f64() * 1e3
}

/// Run `f`, returning its result and its wall time in milliseconds.
pub fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let t = Instant::now();
    let out = f();
    (out, ms_since(t))
}

/// A field of `/proc/self/status` in MiB (0 where procfs is absent).
fn status_mib(field: &str) -> f64 {
    let Ok(text) = std::fs::read_to_string("/proc/self/status") else {
        return 0.0;
    };
    text.lines()
        .find_map(|l| l.strip_prefix(field))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map_or(0.0, |kib| kib / 1024.0)
}

/// Peak resident set size of this process so far (`VmHWM`), in MiB.
pub fn peak_rss_mib() -> f64 {
    status_mib("VmHWM:")
}

/// CPU time the hypervisor gave to other guests (`steal` in `/proc/stat`,
/// all CPUs), in seconds since boot; 0 where procfs is absent. Runs on a
/// shared host slow down when this grows.
pub fn host_steal_s() -> f64 {
    std::fs::read_to_string("/proc/stat")
        .ok()
        .and_then(|text| {
            let cpu = text.lines().next()?.strip_prefix("cpu ")?.to_string();
            cpu.split_whitespace().nth(7)?.parse::<f64>().ok()
        })
        .map_or(0.0, |ticks| ticks / 100.0)
}
