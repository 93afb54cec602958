//! Metric names, units and directions, the sample statistics every
//! workload reports through, and the one-line JSON result.
//!
//! `BENCHMARK.json` at the repository root lists exactly the metrics
//! defined here (the smoke tests assert it), so a metric is added or
//! renamed in one place.

use std::collections::BTreeMap;

/// Which direction of change is an improvement.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Better {
    /// Smaller values are better (times, memory, error shares).
    Lower,
    /// Larger values are better (throughput, answer quality).
    Higher,
}

impl Better {
    /// The spelling used in `BENCHMARK.json`.
    pub fn name(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// One reported metric.
#[derive(Clone, Copy, Debug)]
pub struct MetricDef {
    /// Metric name as printed.
    pub name: &'static str,
    /// Unit as printed.
    pub unit: &'static str,
    /// Direction of improvement.
    pub better: Better,
}

const fn lo(name: &'static str, unit: &'static str) -> MetricDef {
    MetricDef {
        name,
        unit,
        better: Better::Lower,
    }
}

const fn hi(name: &'static str, unit: &'static str) -> MetricDef {
    MetricDef {
        name,
        unit,
        better: Better::Higher,
    }
}

/// End-to-end metrics, printed by every untraced run of every workload.
/// "Main" and "side" name each workload's two operation classes (see
/// the crate README for the per-workload meaning).
pub const END_TO_END: &[MetricDef] = &[
    lo("setup_s", "s"),
    lo("main_p50_ms", "ms"),
    lo("main_p90_ms", "ms"),
    lo("side_p50_ms", "ms"),
    hi("ops_per_s", "1/s"),
    hi("answer_quality", "nodes"),
    lo("peak_rss_mb", "MiB"),
];

/// Per-layer metrics, printed by every traced run. A layer a workload
/// never calls reports 0.
pub const PER_LAYER: &[MetricDef] = &[
    lo("datasets.load_ms", "ms"),
    lo("spill.read_ms", "ms"),
    lo("spill.bytes", "bytes"),
    lo("kpt.ms", "ms"),
    lo("kpt.samples", "count"),
    lo("theta.sets", "count"),
    lo("generate.ms", "ms"),
    lo("generate.sets", "count"),
    lo("generate.members", "count"),
    hi("generate.members_per_s", "1/s"),
    lo("select.celf_k10_ms", "ms"),
    lo("select.celf_k50_ms", "ms"),
    lo("select.celf_k10_1t_ms", "ms"),
    lo("select.naive_k10_ms", "ms"),
    hi("select.covered_k50", "count"),
    lo("pool.prefix_ms", "ms"),
    lo("index.build_ms", "ms"),
    lo("pool.estimate_ms", "ms"),
    lo("delta.apply_ms", "ms"),
    lo("graph.digest_ms", "ms"),
    lo("pool.invalidate_ms", "ms"),
    lo("pool.invalidated_frac", "ratio"),
    lo("refit.ms", "ms"),
    lo("refit.sets", "count"),
    lo("protocol.parse_us", "us"),
    lo("protocol.parse_share", "ratio"),
    lo("protocol.serialize_us", "us"),
    lo("protocol.serialize_share", "ratio"),
    lo("service.self_ms", "ms"),
    lo("service.self_share", "ratio"),
    lo("service.start_self_ms", "ms"),
    hi("sampler.rr_sim_plus.sets_per_s", "1/s"),
    hi("sampler.rr_cim.sets_per_s", "1/s"),
    hi("sampler.rr_cim.memo_hit_frac", "ratio"),
    lo("mc.eval_ms", "ms"),
    lo("pool.sketches", "count"),
    lo("pool.members", "count"),
    lo("rss.setup_mb", "MiB"),
    lo("feed.late_ms", "ms"),
    lo("reconcile.main_err", "ratio"),
    lo("reconcile.setup_err", "ratio"),
    lo("overhead.setup_s", "s"),
    lo("overhead.main_p50_ms", "ms"),
    lo("overhead.main_p90_ms", "ms"),
    lo("overhead.side_p50_ms", "ms"),
    lo("overhead.ops_per_s", "1/s"),
    lo("overhead.answer_quality", "nodes"),
    lo("overhead.peak_rss_mb", "MiB"),
];

/// Metric values by name.
#[derive(Clone, Debug, Default)]
pub struct Metrics(BTreeMap<&'static str, f64>);

impl Metrics {
    /// Record `value` under `name`, replacing any earlier value.
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.0.insert(name, value);
    }

    /// The value recorded under `name`.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.get(name).copied()
    }

    /// Set `overhead.<name>` to traced minus untraced for every
    /// end-to-end metric, given the traced run's own end-to-end values.
    pub fn set_overheads(&mut self, untraced: &Metrics, traced: &Metrics) {
        for def in END_TO_END {
            let (Some(u), Some(t)) = (untraced.get(def.name), traced.get(def.name)) else {
                continue;
            };
            let name = PER_LAYER
                .iter()
                .find(|d| d.name.strip_prefix("overhead.") == Some(def.name))
                .expect("every end-to-end metric has an overhead row")
                .name;
            self.set(name, t - u);
        }
    }
}

/// Linear-interpolated quantile `q ∈ [0, 1]` of `samples` (0 when empty).
pub fn quantile(samples: &[f64], q: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut s = samples.to_vec();
    s.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (s.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    s[lo] + (s[hi] - s[lo]) * (pos - lo as f64)
}

/// Median of `samples` (0 when empty).
pub fn median(samples: &[f64]) -> f64 {
    quantile(samples, 0.5)
}

/// Arithmetic mean of `samples` (0 when empty).
pub fn mean(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        0.0
    } else {
        samples.iter().sum::<f64>() / samples.len() as f64
    }
}

/// Samples beyond the `q`-quantile of `n` samples: how many observations a
/// tail percentile rests on (reported next to each p90).
pub fn beyond(n: usize, q: f64) -> usize {
    ((1.0 - q) * n as f64).floor() as usize
}

/// Windows a measured phase is cut into for [`windowed`].
pub const WINDOWS: usize = 5;

/// The median over [`WINDOWS`] equal time windows of `[0, span_s)` of the
/// `q`-quantile of the values completed in each window (`samples` are
/// `(completion second, value)`). A burst of host contention that covers
/// fewer than half the windows leaves it unchanged, where it would drag a
/// quantile over the whole phase.
pub fn windowed(samples: &[(f64, f64)], span_s: f64, q: f64) -> f64 {
    let per_window: Vec<f64> = windows(samples, span_s)
        .iter()
        .filter(|w| !w.is_empty())
        .map(|w| quantile(w, q))
        .collect();
    median(&per_window)
}

/// Completions per second: the median over [`WINDOWS`] equal time windows
/// of `[0, span_s)` (see [`windowed`]).
pub fn windowed_rate(done_s: &[f64], span_s: f64) -> f64 {
    let samples: Vec<(f64, f64)> = done_s.iter().map(|&t| (t, 0.0)).collect();
    let width = span_s / WINDOWS as f64;
    let rates: Vec<f64> = windows(&samples, span_s)
        .iter()
        .map(|w| w.len() as f64 / width.max(1e-9))
        .collect();
    median(&rates)
}

fn windows(samples: &[(f64, f64)], span_s: f64) -> Vec<Vec<f64>> {
    let mut out = vec![Vec::new(); WINDOWS];
    for &(t, v) in samples {
        let i = (t / span_s.max(1e-9) * WINDOWS as f64) as usize;
        out[i.min(WINDOWS - 1)].push(v);
    }
    out
}

/// `|a − b| / b`, or 0 when `b` is 0.
pub fn rel_err(a: f64, b: f64) -> f64 {
    if b == 0.0 {
        0.0
    } else {
        (a - b).abs() / b.abs()
    }
}

/// The last line of a run: verdict, operation counts, and every metric in
/// `defs` with its unit. A metric missing from `m` is an error for
/// end-to-end metrics and 0 for per-layer ones.
pub fn result_line(
    correct: bool,
    attempted: u64,
    failed: u64,
    defs: &[MetricDef],
    m: &Metrics,
    missing_is_zero: bool,
) -> Result<String, String> {
    let mut fields = Vec::with_capacity(defs.len());
    for def in defs {
        let value = match m.get(def.name) {
            Some(v) => v,
            None if missing_is_zero => 0.0,
            None => return Err(format!("metric {} was not measured", def.name)),
        };
        if !value.is_finite() {
            return Err(format!("metric {} is not finite ({value})", def.name));
        }
        fields.push(format!(
            "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
            def.name, value, def.unit
        ));
    }
    Ok(format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \
         \"metrics\": {{{}}}}}",
        fields.join(", ")
    ))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate() {
        let xs = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(quantile(&xs, 0.0), 1.0);
        assert_eq!(quantile(&xs, 1.0), 4.0);
        assert_eq!(median(&xs), 2.5);
        assert_eq!(quantile(&[], 0.5), 0.0);
    }

    #[test]
    fn windowed_quantiles_ignore_a_short_burst() {
        // 50 samples a second for 10 s; the second window runs 10x slower.
        let samples: Vec<(f64, f64)> = (0..500)
            .map(|i| {
                let t = i as f64 / 50.0;
                (t, if (2.0..4.0).contains(&t) { 10.0 } else { 1.0 })
            })
            .collect();
        assert_eq!(windowed(&samples, 10.0, 0.5), 1.0);
        assert!(median(&samples.iter().map(|s| s.1).collect::<Vec<_>>()) == 1.0);
        assert_eq!(
            quantile(&samples.iter().map(|s| s.1).collect::<Vec<_>>(), 0.9),
            10.0
        );
        assert_eq!(windowed(&samples, 10.0, 0.9), 1.0);
        let done: Vec<f64> = samples.iter().map(|s| s.0).collect();
        assert_eq!(windowed_rate(&done, 10.0), 50.0);
    }

    #[test]
    fn names_are_unique_and_overheads_cover_end_to_end() {
        let mut names: Vec<&str> = END_TO_END.iter().chain(PER_LAYER).map(|d| d.name).collect();
        let total = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), total);
        for def in END_TO_END {
            let o = format!("overhead.{}", def.name);
            assert!(PER_LAYER.iter().any(|d| d.name == o), "{o}");
        }
    }
}
