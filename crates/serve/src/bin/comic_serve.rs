//! `comic-serve` — the resident influence query service.
//!
//! Loads a dataset once, warms the configured sketch pools, then answers
//! newline-delimited JSON requests on stdin/stdout (default) or a TCP
//! listener (`--tcp`). See the README "Serving" section for the protocol.

use comic_serve::faults::FaultPlan;
use comic_serve::protocol::PoolKey;
use comic_serve::server::{serve_lines, TcpServer};
use comic_serve::service::{ComicService, ServeConfig};
use std::process::ExitCode;
use std::sync::Arc;
use std::time::Duration;

const USAGE: &str = "\
comic-serve — online influence query service (newline-delimited JSON)

USAGE:
  comic-serve [OPTIONS]

OPTIONS:
  --dataset <name|path[:model]>  dataset to load (default: fixture-small)
  --seed <u64>                   service seed (default: 0xC0111C)
  --gen-threads <n>              pool-generation and refit workers;
                                 latency-only knob, spills reload at any
                                 count (default: 2)
  --threads <n>                  accepted for compatibility; sizes no served
                                 work (selects and estimates read the
                                 resident index on the query thread)
                                 (default: 2)
  --design-k <n>                 k the pools' theta derivation targets
                                 (default: 50)
  --max-rr <n|none>              sketch cap per pool (default: 200000)
  --other-seeds <n>              'other item' seed count for the Com-IC
                                 samplers (default: 10)
  --pool <sampler/preset/tier>   pool to warm; repeatable (default: one
                                 pool per sampler at the coarse tier)
  --pool-dir <path>              persist pools as COMICRRS spill files in
                                 this directory; a restart reloads matching
                                 spills instead of regenerating (the
                                 directory is created if missing). It holds
                                 one dataset's spills: another dataset
                                 rejects and overwrites them
  --tcp <addr>                   serve on a TCP listener (e.g.
                                 127.0.0.1:7717) instead of stdio
  --refresh-ms <n>               background-refresh all pools every n ms
                                 (a sweep with queued edge deltas applies
                                 them incrementally instead)
  --max-stale-deltas <n>         delta batches larger than n rebuild every
                                 pool from scratch instead of refitting
                                 incrementally (default: 1000)
  --inflight-cap <n|none>        admit at most n concurrent queries; the
                                 rest shed with a typed 'overloaded' error
                                 (default: none)
  --deadline-ms <n|none>         implicit per-query deadline for requests
                                 without their own (default: none)
  --sketch-cost-ns <n>           deadline cost model: modelled ns of work
                                 per consulted sketch; 0 disables the
                                 model (default: 2000)
  --max-conns <n>                TCP connection cap; over-cap connections
                                 shed with 'overloaded' (default: 32)
  --read-deadline-ms <n>         close a TCP connection stalled mid-line
                                 this long (default: 10000)
  --faults <spec>                deterministic fault plan, e.g.
                                 'seed=42,refresh-build=0.5,conn-read=first:3'
                                 (chaos testing; default: none)
  -h, --help                     this help
";

fn fail(msg: &str) -> ExitCode {
    eprintln!("comic-serve: {msg}");
    eprintln!("{USAGE}");
    ExitCode::FAILURE
}

fn main() -> ExitCode {
    let mut cfg = ServeConfig::new("fixture-small");
    let mut pools: Vec<PoolKey> = Vec::new();
    let mut tcp: Option<String> = None;
    let mut refresh_ms: Option<u64> = None;
    let mut max_conns: usize = 32;
    let mut read_deadline_ms: u64 = 10_000;

    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        let mut value = |name: &str| args.next().ok_or_else(|| format!("{name} needs a value"));
        match arg.as_str() {
            "--dataset" => match value("--dataset") {
                Ok(v) => cfg.dataset = v,
                Err(e) => return fail(&e),
            },
            "--seed" => {
                match value("--seed").and_then(|v| v.parse().map_err(|e| format!("--seed: {e}"))) {
                    Ok(v) => cfg.seed = v,
                    Err(e) => return fail(&e),
                }
            }
            "--gen-threads" => match value("--gen-threads")
                .and_then(|v| v.parse().map_err(|e| format!("--gen-threads: {e}")))
            {
                Ok(v) => cfg.gen_threads = v,
                Err(e) => return fail(&e),
            },
            "--threads" => match value("--threads")
                .and_then(|v| v.parse().map_err(|e| format!("--threads: {e}")))
            {
                Ok(v) => cfg.threads = v,
                Err(e) => return fail(&e),
            },
            "--design-k" => match value("--design-k")
                .and_then(|v| v.parse().map_err(|e| format!("--design-k: {e}")))
            {
                Ok(v) => cfg.design_k = v,
                Err(e) => return fail(&e),
            },
            "--max-rr" => match value("--max-rr") {
                Ok(v) if v == "none" => cfg.max_rr_sets = None,
                Ok(v) => match v.parse() {
                    Ok(n) => cfg.max_rr_sets = Some(n),
                    Err(e) => return fail(&format!("--max-rr: {e}")),
                },
                Err(e) => return fail(&e),
            },
            "--other-seeds" => match value("--other-seeds")
                .and_then(|v| v.parse().map_err(|e| format!("--other-seeds: {e}")))
            {
                Ok(v) => cfg.other_seeds = v,
                Err(e) => return fail(&e),
            },
            "--pool" => match value("--pool") {
                Ok(v) => match PoolKey::parse(&v) {
                    Some(k) => pools.push(k),
                    None => {
                        return fail(&format!(
                            "--pool: malformed key {v:?} (sampler/preset/tier)"
                        ))
                    }
                },
                Err(e) => return fail(&e),
            },
            "--pool-dir" => match value("--pool-dir") {
                Ok(v) => {
                    let dir = std::path::PathBuf::from(v);
                    if let Err(e) = std::fs::create_dir_all(&dir) {
                        return fail(&format!("--pool-dir: cannot create {}: {e}", dir.display()));
                    }
                    cfg.pool_dir = Some(dir);
                }
                Err(e) => return fail(&e),
            },
            "--tcp" => match value("--tcp") {
                Ok(v) => tcp = Some(v),
                Err(e) => return fail(&e),
            },
            "--refresh-ms" => match value("--refresh-ms")
                .and_then(|v| v.parse().map_err(|e| format!("--refresh-ms: {e}")))
            {
                Ok(v) => refresh_ms = Some(v),
                Err(e) => return fail(&e),
            },
            "--max-stale-deltas" => match value("--max-stale-deltas")
                .and_then(|v| v.parse().map_err(|e| format!("--max-stale-deltas: {e}")))
            {
                Ok(v) => cfg.max_stale_deltas = v,
                Err(e) => return fail(&e),
            },
            "--inflight-cap" => match value("--inflight-cap") {
                Ok(v) if v == "none" => cfg.max_in_flight = None,
                Ok(v) => match v.parse() {
                    Ok(n) => cfg.max_in_flight = Some(n),
                    Err(e) => return fail(&format!("--inflight-cap: {e}")),
                },
                Err(e) => return fail(&e),
            },
            "--deadline-ms" => match value("--deadline-ms") {
                Ok(v) if v == "none" => cfg.default_deadline_ms = None,
                Ok(v) => match v.parse() {
                    Ok(n) => cfg.default_deadline_ms = Some(n),
                    Err(e) => return fail(&format!("--deadline-ms: {e}")),
                },
                Err(e) => return fail(&e),
            },
            "--sketch-cost-ns" => match value("--sketch-cost-ns")
                .and_then(|v| v.parse().map_err(|e| format!("--sketch-cost-ns: {e}")))
            {
                Ok(v) => cfg.sketch_cost_ns = v,
                Err(e) => return fail(&e),
            },
            "--max-conns" => match value("--max-conns")
                .and_then(|v| v.parse().map_err(|e| format!("--max-conns: {e}")))
            {
                Ok(v) => max_conns = v,
                Err(e) => return fail(&e),
            },
            "--read-deadline-ms" => match value("--read-deadline-ms")
                .and_then(|v| v.parse().map_err(|e| format!("--read-deadline-ms: {e}")))
            {
                Ok(v) => read_deadline_ms = v,
                Err(e) => return fail(&e),
            },
            "--faults" => match value("--faults").and_then(|v| FaultPlan::parse(&v)) {
                Ok(plan) => cfg.faults = plan,
                Err(e) => return fail(&format!("--faults: {e}")),
            },
            "-h" | "--help" => {
                println!("{USAGE}");
                return ExitCode::SUCCESS;
            }
            other => return fail(&format!("unknown argument {other:?}")),
        }
    }
    if !pools.is_empty() {
        cfg.pools = pools;
    }

    eprintln!(
        "comic-serve: loading {} (seed {:#x}, gen-threads {}, design-k {})...",
        cfg.dataset, cfg.seed, cfg.gen_threads, cfg.design_k
    );
    let svc = match ComicService::start(cfg) {
        Ok(svc) => Arc::new(svc),
        Err(e) => {
            eprintln!("comic-serve: startup failed: {e}");
            return ExitCode::FAILURE;
        }
    };
    let g = svc.graph();
    eprintln!(
        "comic-serve: ready — {} nodes, {} edges, pools: {}",
        g.num_nodes(),
        g.num_edges(),
        svc.pool_keys()
            .iter()
            .map(|k| k.to_string())
            .collect::<Vec<_>>()
            .join(", ")
    );

    let refresher = refresh_ms.map(|ms| svc.spawn_refresher(Duration::from_millis(ms)));

    let result = match tcp {
        Some(addr) => match TcpServer::bind(&addr) {
            Ok(server) => {
                let server = server
                    .max_conns(max_conns)
                    .read_deadline(Duration::from_millis(read_deadline_ms));
                eprintln!("comic-serve: listening on {}", server.local_addr());
                server.run(&svc)
            }
            Err(e) => {
                eprintln!("comic-serve: cannot bind {addr}: {e}");
                return ExitCode::FAILURE;
            }
        },
        None => {
            let stdin = std::io::stdin();
            let mut stdout = std::io::stdout();
            serve_lines(&svc, stdin.lock(), &mut stdout)
        }
    };
    if let Some(h) = refresher {
        let _ = h.join();
    }
    match result {
        Ok(()) => {
            eprintln!("comic-serve: drained, bye");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("comic-serve: transport error: {e}");
            ExitCode::FAILURE
        }
    }
}
