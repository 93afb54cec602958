//! # comic-bench
//!
//! The experiment harness: everything needed to regenerate every table and
//! figure of the paper's evaluation (§7) on the offline dataset stand-ins.
//!
//! * [`datasets`] — the dataset registry: committed fixture corpora and
//!   real SNAP files behind `--dataset <name|path>` (file → probability
//!   model → manifest validation → digest-checked binary cache), plus
//!   synthetic stand-ins for Flixster / Douban-Book / Douban-Movie /
//!   Last.fm matched to Table 1's scale and degree profile (see
//!   DIVERGENCES.md, "Datasets and action logs"), at a scaled-down default
//!   size with `--full` for paper scale.
//! * [`invariance`] — the thread-count-invariance test harness enforcing
//!   the workspace determinism contract (learning, generation,
//!   RR-generation, seed selection) as one API.
//! * [`report`] — plain-text table/series rendering shaped like the paper's
//!   tables, plus CSV output.
//! * [`metrics`] — percentiles, snapshot rounding, and serving outcome
//!   tallies shared by the load driver and the chaos suite.
//! * [`runtime`] — wall-clock measurement helpers.
//! * [`exp`] — one module per table/figure; the `src/bin/*` drivers are
//!   thin wrappers around these.
//!
//! Run everything: `cargo run -p comic-bench --release --bin run_all`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use comic_ris::select::SelectorKind;
use datasets::{DataSource, Dataset, DatasetError};
use std::sync::Arc;

pub mod datasets;
pub mod exp;
pub mod invariance;
pub mod metrics;
pub mod report;
pub mod runtime;

/// Shared experiment scale knobs, parsed from CLI args by the drivers.
#[derive(Clone, Debug)]
pub struct Scale {
    /// Fraction of the paper's dataset sizes to instantiate (default 0.12,
    /// keeping the whole harness in the minutes range; `--full` = 1.0).
    pub size_factor: f64,
    /// Monte-Carlo iterations for quality evaluation (paper: 10,000).
    pub mc_iterations: usize,
    /// Seed budget k (paper: 50).
    pub k: usize,
    /// RR-set cap guarding the harness against degenerate θ blow-ups
    /// (`None` = faithful θ).
    pub max_rr_sets: Option<u64>,
    /// Base RNG seed for the whole experiment.
    pub seed: u64,
    /// Worker threads for RR-set generation and MC evaluation (`0` = one
    /// per core). Results are deterministic for a fixed `(seed, threads)`
    /// pair, so pin `--threads` when regenerating paper tables for
    /// comparison across machines.
    pub threads: usize,
    /// Max-coverage selection strategy for every RIS pipeline run
    /// (`--selector naive|celf`; default CELF). Selectors return identical
    /// seed sets, so this only moves the selection-phase wall clock.
    pub selector: SelectorKind,
    /// On-disk dataset to run on instead of the synthetic stand-ins
    /// (`--dataset <registry name | path[:prob-model]>`; see
    /// [`datasets::load`]). `None` = the four Table 1 stand-ins.
    pub dataset: Option<String>,
}

impl Default for Scale {
    fn default() -> Self {
        Scale {
            size_factor: 0.12,
            mc_iterations: 10_000,
            k: 50,
            max_rr_sets: Some(4_000_000),
            seed: 20160905, // VLDB'16 opening day
            threads: 0,
            selector: SelectorKind::default(),
            dataset: None,
        }
    }
}

impl Scale {
    /// Parse `--full`, `--size-factor X`, `--k K`, `--mc N`, `--seed S`,
    /// `--threads T`, `--selector naive|celf`, `--dataset NAME|PATH` from
    /// the process arguments; unknown arguments are ignored so each driver
    /// can add its own.
    pub fn from_args() -> Scale {
        let mut scale = Scale::default();
        let args: Vec<String> = std::env::args().collect();
        let mut i = 1;
        while i < args.len() {
            match args[i].as_str() {
                "--full" => scale.size_factor = 1.0,
                "--size-factor" if i + 1 < args.len() => {
                    scale.size_factor = args[i + 1].parse().unwrap_or(scale.size_factor);
                    i += 1;
                }
                "--k" if i + 1 < args.len() => {
                    scale.k = args[i + 1].parse().unwrap_or(scale.k);
                    i += 1;
                }
                "--mc" if i + 1 < args.len() => {
                    scale.mc_iterations = args[i + 1].parse().unwrap_or(scale.mc_iterations);
                    i += 1;
                }
                "--seed" if i + 1 < args.len() => {
                    scale.seed = args[i + 1].parse().unwrap_or(scale.seed);
                    i += 1;
                }
                "--threads" if i + 1 < args.len() => {
                    scale.threads = args[i + 1].parse().unwrap_or(scale.threads);
                    i += 1;
                }
                "--selector" if i + 1 < args.len() => {
                    scale.selector = SelectorKind::parse(&args[i + 1]).unwrap_or(scale.selector);
                    i += 1;
                }
                "--dataset" if i + 1 < args.len() => {
                    scale.dataset = Some(args[i + 1].clone());
                    i += 1;
                }
                _ => {}
            }
            i += 1;
        }
        scale
    }

    /// The data sources this run iterates: the single `--dataset` when one
    /// was given (pulled through the full ingestion path, with the binary
    /// cache), the four synthetic stand-ins otherwise.
    pub fn sources(&self) -> Result<Vec<DataSource>, DatasetError> {
        match &self.dataset {
            Some(arg) => Ok(vec![DataSource::Loaded(Arc::new(datasets::load(arg)?))]),
            None => Ok(DataSource::default_sources()),
        }
    }

    /// Like [`Scale::sources`] for single-dataset drivers: the `--dataset`
    /// when given, `default` otherwise.
    pub fn source_or(&self, default: Dataset) -> Result<DataSource, DatasetError> {
        match &self.dataset {
            Some(arg) => Ok(DataSource::Loaded(Arc::new(datasets::load(arg)?))),
            None => Ok(DataSource::Synthetic(default)),
        }
    }

    /// [`Scale::sources`] for `main()`s: exit with a message on a bad
    /// `--dataset` instead of returning an error.
    pub fn sources_or_exit(&self) -> Vec<DataSource> {
        self.sources().unwrap_or_else(|e| {
            eprintln!("error: {e}");
            std::process::exit(2);
        })
    }

    /// [`Scale::source_or`] for `main()`s: exit with a message on a bad
    /// `--dataset`.
    pub fn source_or_exit(&self, default: Dataset) -> DataSource {
        self.source_or(default).unwrap_or_else(|e| {
            eprintln!("error: {e}");
            std::process::exit(2);
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_scale_is_sane() {
        let s = Scale::default();
        assert!(s.size_factor > 0.0 && s.size_factor <= 1.0);
        assert!(s.mc_iterations >= 1000);
        assert_eq!(s.k, 50);
    }
}
