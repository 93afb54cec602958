//! End-to-end and per-layer benchmark of the comic workspace.
//!
//! One command (`comic-perfbench --workload <name> --seed <n> --seconds <s>
//! --trace <0|1>`) generates seeded inputs, runs one workload against the
//! library crates in-process, checks the answers, and prints every metric
//! of [`metrics::END_TO_END`] (untraced) or [`metrics::PER_LAYER`]
//! (traced) as the last line of its output. See `README.md` next to this
//! crate for the workloads and what each metric means on each.

pub mod churn_ic;
pub mod harness;
pub mod inputs;
pub mod metrics;
pub mod paper_solve;
pub mod query;
pub mod serve_ic;
pub mod stages;

/// The workloads, by name.
pub const WORKLOADS: [&str; 3] = ["serve-ic", "churn-ic", "paper-solve"];

/// Full-size or test-size inputs.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Size {
    /// The benchmark's size.
    Full,
    /// Seconds-long inputs for the crate's own tests.
    Smoke,
}

/// Run workload `name` at `size`.
pub fn run(name: &str, size: Size, opts: &harness::RunOpts) -> Result<harness::Outcome, String> {
    let full = size == Size::Full;
    let steal_before = harness::host_steal_s();
    let mut out = match name {
        "serve-ic" => serve_ic::run(
            &if full {
                serve_ic::Config::full()
            } else {
                serve_ic::Config::smoke()
            },
            opts,
        ),
        "churn-ic" => churn_ic::run(
            &if full {
                churn_ic::Config::full()
            } else {
                churn_ic::Config::smoke()
            },
            opts,
        ),
        "paper-solve" => paper_solve::run(
            &if full {
                paper_solve::Config::full()
            } else {
                paper_solve::Config::smoke()
            },
            opts,
        ),
        other => Err(format!(
            "unknown workload {other:?} (known: {})",
            WORKLOADS.join(", ")
        )),
    }?;
    out.note("host_steal_s", harness::host_steal_s() - steal_before);
    Ok(out)
}

/// Render an outcome as the run's result line: end-to-end metrics for an
/// untraced run, per-layer metrics for a traced one.
pub fn result_line(out: &harness::Outcome, trace: bool) -> Result<String, String> {
    let t = &out.tally;
    let correct = t.failed == 0 && t.attempted > 0;
    if trace {
        metrics::result_line(
            correct,
            t.attempted,
            t.failed,
            metrics::PER_LAYER,
            &out.layers,
            true,
        )
    } else {
        metrics::result_line(
            correct,
            t.attempted,
            t.failed,
            metrics::END_TO_END,
            &out.e2e,
            false,
        )
    }
}
