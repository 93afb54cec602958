//! `comic-perfbench` — run one benchmark workload and print its metrics.
//!
//! ```text
//! comic-perfbench --workload <serve-ic|churn-ic|paper-solve> --seed <n>
//!                 --seconds <s> --trace <0|1> [--smoke]
//! ```
//!
//! The last line of standard output is the result object
//! `{"correct", "attempted", "failed", "metrics"}`; the line before it is
//! the run's provenance. Failed output checks count in `failed`; an error
//! that stops the run exits non-zero without a result line.

use comic_perfbench::harness::{RunOpts, WORK_ROOT};
use comic_perfbench::{result_line, run, serve_ic, Size};
use std::path::PathBuf;
use std::process::ExitCode;

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    size: Size,
    /// Internal: prepare the named workload's state in `--work` and exit.
    prepare: Option<String>,
    work: Option<PathBuf>,
}

fn parse_args() -> Result<Args, String> {
    let mut a = Args {
        workload: String::new(),
        seed: 0,
        seconds: 10.0,
        trace: false,
        size: Size::Full,
        prepare: None,
        work: None,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => a.workload = value()?,
            "--seed" => a.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                a.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(a.seconds > 0.0 && a.seconds.is_finite()) {
                    return Err("--seconds must be positive".into());
                }
            }
            "--trace" => {
                a.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    v => return Err(format!("--trace must be 0 or 1, got {v:?}")),
                }
            }
            "--smoke" => a.size = Size::Smoke,
            "--prepare" => a.prepare = Some(value()?),
            "--work" => a.work = Some(PathBuf::from(value()?)),
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    if a.workload.is_empty() && a.prepare.is_none() {
        return Err("--workload is required".into());
    }
    Ok(a)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("comic-perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    if let Some(workload) = &args.prepare {
        let (Some(dir), "serve-ic") = (&args.work, workload.as_str()) else {
            eprintln!("comic-perfbench: --prepare serve-ic needs --work");
            return ExitCode::from(2);
        };
        let cfg = match args.size {
            Size::Full => serve_ic::Config::full(),
            Size::Smoke => serve_ic::Config::smoke(),
        };
        return match serve_ic::prepare(dir, args.seed, &cfg) {
            Ok(()) => ExitCode::SUCCESS,
            Err(e) => {
                eprintln!("comic-perfbench: preparation failed: {e}");
                ExitCode::FAILURE
            }
        };
    }
    let exe = match std::env::current_exe() {
        Ok(exe) => exe,
        Err(e) => {
            eprintln!("comic-perfbench: cannot locate this executable: {e}");
            return ExitCode::FAILURE;
        }
    };
    let opts = RunOpts {
        seed: args.seed,
        seconds: args.seconds,
        trace: args.trace,
        work_root: PathBuf::from(WORK_ROOT),
        exe,
        exe_args: match args.size {
            Size::Full => vec![],
            Size::Smoke => vec!["--smoke".to_string()],
        },
    };
    let out = match run(&args.workload, args.size, &opts) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("comic-perfbench: {}: {e}", args.workload);
            return ExitCode::FAILURE;
        }
    };
    for reason in &out.tally.reasons {
        eprintln!("comic-perfbench: check failed: {reason}");
    }
    match result_line(&out, args.trace) {
        Ok(line) => {
            println!("{}", out.provenance_line());
            println!("{line}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("comic-perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}
