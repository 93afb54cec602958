//! End-to-end tests for the `comic-serve` query service (the serving PR's
//! tentpole): an in-process service over the committed fixture corpus,
//! driven through the real wire protocol.
//!
//! Contracts verified here:
//!
//! - **instance determinism** — two services started from the same
//!   [`ServeConfig`] answer a scripted query batch with byte-identical
//!   response lines, including across a deterministic refresh;
//! - **thread invariance** — response bytes are identical for every
//!   query-thread count in the `comic_bench::invariance` matrix
//!   (`gen_threads` stays pinned, so only the query knob varies);
//! - **warm ≡ cold** — a pooled (warm) `select` returns exactly the seed
//!   set a cold [`RisPipeline::run_on_pool`] computes over the same pool,
//!   on fixture-small and fixture-medium, with `pool_builds` unchanged
//!   (no RR regeneration on the query path);
//! - **concurrency regression** — interleaved clients on the
//!   `comic_graph::par` scoped-thread substrate get the same bytes as a
//!   serial replay.

use comic_bench::invariance;
use comic_graph::par::run_sharded;
use comic_ris::select::SelectorKind;
use comic_ris::tim::TimConfig;
use comic_ris::RisPipeline;
use comic_serve::protocol::{EpsTier, PoolKey, Request, Response, SamplerKind};
use comic_serve::server::run_script;
use comic_serve::service::{ComicService, ServeConfig};

/// Service config over fixture-small: two pools (the classic-IC baseline
/// and RR-SIM under the one-way preset), small sketch caps so the whole
/// suite stays fast. `threads` is the knob under test (it sizes no
/// served work, so answers must not move with it); `gen_threads` is
/// pinned so only that knob varies.
fn small_cfg(threads: usize) -> ServeConfig {
    let mut cfg = ServeConfig::new("fixture-small");
    cfg.design_k = 10;
    cfg.max_rr_sets = Some(6_000);
    cfg.gen_threads = 2;
    cfg.threads = threads;
    cfg.pools = vec![
        PoolKey::new(SamplerKind::VanillaIc, "default", EpsTier::Coarse).unwrap(),
        PoolKey::new(SamplerKind::RrSim, "one-way", EpsTier::Coarse).unwrap(),
    ];
    cfg
}

/// The scripted query batch: selection shapes, estimation, budgets, a
/// batch op, typed errors, and a deterministic refresh. Deliberately no
/// `stats` — that op carries wall-clock fields and is exempt from the
/// byte-identity contract.
const SCRIPT: &[&str] = &[
    "{\"op\":\"ping\"}",
    "{\"op\":\"select\",\"pool\":\"vanilla-ic/default/coarse\",\"k\":10}",
    "{\"op\":\"select\",\"pool\":\"vanilla-ic/default/coarse\",\"k\":3,\"selector\":\"naive\"}",
    "{\"op\":\"select\",\"pool\":\"rr-sim/one-way/coarse\",\"k\":5,\"budget\":2000}",
    "{\"op\":\"estimate\",\"pool\":\"rr-sim/one-way/coarse\",\"seeds\":[0,17,42,900]}",
    "{\"op\":\"estimate\",\"pool\":\"vanilla-ic/default/coarse\",\"seeds\":[3],\"budget\":100}",
    "{\"op\":\"batch\",\"requests\":[{\"op\":\"ping\"},\
     {\"op\":\"select\",\"pool\":\"vanilla-ic/default/coarse\",\"k\":1}]}",
    // Typed errors are part of the deterministic surface too.
    "{\"op\":\"select\",\"pool\":\"rr-cim/cim/fine\",\"k\":2}",
    "{\"op\":\"select\",\"pool\":\"not a key\",\"k\":2}",
    "{\"op\":\"select\",\"pool\":\"vanilla-ic/default/coarse\",\"k\":0}",
    "{\"op\":\"estimate\",\"pool\":\"vanilla-ic/default/coarse\",\"seeds\":[999999]}",
    "this is not json",
    // Refresh pool generation 0 -> 1, then query the refreshed pool.
    "{\"op\":\"refresh\",\"pool\":\"vanilla-ic/default/coarse\"}",
    "{\"op\":\"select\",\"pool\":\"vanilla-ic/default/coarse\",\"k\":10}",
];

#[test]
fn two_instances_answer_the_script_byte_identically() {
    let a = ComicService::start(small_cfg(2)).expect("instance A");
    let b = ComicService::start(small_cfg(2)).expect("instance B");
    let ra = run_script(&a, SCRIPT);
    let rb = run_script(&b, SCRIPT);
    assert_eq!(ra.len(), SCRIPT.len());
    for (i, (x, y)) in ra.iter().zip(&rb).enumerate() {
        assert_eq!(x, y, "line {i} diverged for {:?}", SCRIPT[i]);
    }
    // Sanity on shapes: successes and the scripted failures.
    assert!(ra[0].contains("pong"));
    assert!(ra[1].contains("\"warm\":true"));
    assert!(ra[7].contains("unknown_pool"));
    assert!(ra[8].contains("\"error\":\"parse\""));
    assert!(
        ra[9].contains("\"error\":\"parse\""),
        "k=0 is a parser-level reject"
    );
    assert!(ra[10].contains("bad_query"));
    assert!(ra[11].contains("\"error\":\"parse\""));
    assert!(ra[12].contains("\"generation\":1"));
    assert!(ra[13].contains("\"generation\":1"));
    // The refresh changed the sketches, so the same query may answer
    // differently than line 1 — but deterministically so (checked above).
}

#[test]
fn responses_are_invariant_across_query_thread_counts() {
    // gen_threads is fixed; the per-query selection
    // thread count must be a pure latency knob. The shared harness drives
    // the full {1, 2, 4, 7} matrix (or COMIC_TEST_THREADS).
    invariance::assert_thread_invariance("serve: scripted batch", |threads| {
        let svc = ComicService::start(small_cfg(threads)).expect("service");
        run_script(&svc, SCRIPT)
    });
}

/// Warm select ≡ cold pipeline over the *same* pool, and the query path
/// never regenerates sketches — asserted on both committed fixtures.
/// (fixture-medium is the acceptance-criterion case: ~9k nodes, 50k
/// edges, pool capped at 5k sketches.)
#[test]
fn warm_select_matches_cold_pipeline_with_no_regeneration() {
    let cases = [("fixture-small", 6_000u64), ("fixture-medium", 5_000u64)];
    for (dataset, cap) in cases {
        let mut cfg = ServeConfig::new(dataset);
        cfg.design_k = 10;
        cfg.max_rr_sets = Some(cap);
        cfg.pools = vec![PoolKey::new(SamplerKind::VanillaIc, "default", EpsTier::Coarse).unwrap()];
        let svc = ComicService::start(cfg).expect(dataset);
        let key = PoolKey::new(SamplerKind::VanillaIc, "default", EpsTier::Coarse).unwrap();
        let pool = svc.pool(&key).expect("warmed pool");
        assert!(pool.len() as u64 <= cap);

        // Cold path: an independent pipeline selecting over the same pool.
        let cold = RisPipeline::new(TimConfig::new(10).threads(1))
            .run_on_pool(&pool)
            .expect("cold selection");

        let builds = svc.pool_builds();
        let resp = svc.handle(&Request::Select {
            pool: key,
            k: 10,
            selector: None,
            budget: None,
            deadline_ms: None,
        });
        assert_eq!(
            svc.pool_builds(),
            builds,
            "{dataset}: warm query must not trigger RR regeneration"
        );
        match resp {
            Response::Selected {
                seeds,
                covered,
                est_spread,
                consulted,
                warm,
                ..
            } => {
                let cold_seeds: Vec<u32> = cold.seeds.iter().map(|s| s.0).collect();
                assert_eq!(seeds, cold_seeds, "{dataset}: seed sets diverged");
                assert_eq!(covered, cold.covered, "{dataset}");
                assert_eq!(est_spread, cold.est_spread, "{dataset}");
                assert_eq!(consulted, pool.len() as u64, "{dataset}");
                assert!(warm, "{dataset}");
            }
            other => panic!("{dataset}: expected Selected, got {other:?}"),
        }
    }
}

#[test]
fn budgeted_queries_match_a_cold_run_over_the_prefix() {
    let svc = ComicService::start(small_cfg(2)).expect("service");
    let key = PoolKey::new(SamplerKind::RrSim, "one-way", EpsTier::Coarse).unwrap();
    let pool = svc.pool(&key).unwrap();
    for budget in [1, pool.len() / 3, pool.len() - 1] {
        let copied = pool.prefix(budget);
        let cold = RisPipeline::new(TimConfig::new(4))
            .run_on_pool(&copied)
            .unwrap();
        let cold_seeds: Vec<u32> = cold.seeds.iter().map(|s| s.0).collect();
        match svc.handle(&Request::Select {
            pool: key.clone(),
            k: 4,
            selector: Some(SelectorKind::Celf),
            budget: Some(budget as u64),
            deadline_ms: None,
        }) {
            Response::Selected {
                seeds,
                covered,
                est_spread,
                consulted,
                pool: meta,
                ..
            } => {
                assert_eq!(seeds, cold_seeds, "budget {budget}");
                assert_eq!(covered, cold.covered);
                assert_eq!(est_spread.to_bits(), cold.est_spread.to_bits());
                assert_eq!(consulted, budget as u64);
                assert!(meta.capped, "a budgeted answer must be marked capped");
                assert_eq!(
                    meta.sketches,
                    pool.len() as u64,
                    "meta reports the full pool"
                );
            }
            other => panic!("expected Selected, got {other:?}"),
        }
        // A budgeted estimate of those seeds, one listed twice, counts the
        // same prefix the copied pool does.
        let mut listed = cold_seeds.clone();
        listed.push(cold_seeds[0]);
        let nodes: Vec<_> = listed.iter().map(|&s| comic_graph::NodeId(s)).collect();
        match svc.handle(&Request::Estimate {
            pool: key.clone(),
            seeds: listed,
            budget: Some(budget as u64),
            deadline_ms: None,
        }) {
            Response::Estimated {
                est_spread,
                consulted,
                pool: meta,
                ..
            } => {
                assert_eq!(
                    est_spread.to_bits(),
                    copied.estimate_spread(&nodes).to_bits(),
                    "budget {budget}"
                );
                assert_eq!(consulted, budget as u64);
                assert!(meta.capped);
            }
            other => panic!("expected Estimated, got {other:?}"),
        }
    }
}

/// Interleaved clients see exactly the serial bytes: `run_sharded` (the
/// workspace's scoped-thread substrate) replays a deterministic query mix
/// from several worker threads against one shared service.
#[test]
fn concurrent_clients_match_the_serial_replay() {
    let svc = ComicService::start(small_cfg(1)).expect("service");
    let n = svc.graph().num_nodes() as u32;
    // One query per shard, shape varying with the index.
    let query = |i: usize| -> String {
        match i % 4 {
            0 => format!(
                "{{\"op\":\"select\",\"pool\":\"vanilla-ic/default/coarse\",\"k\":{}}}",
                1 + (i % 7)
            ),
            1 => format!(
                "{{\"op\":\"select\",\"pool\":\"rr-sim/one-way/coarse\",\"k\":{},\"selector\":\"naive\"}}",
                1 + (i % 5)
            ),
            2 => format!(
                "{{\"op\":\"estimate\",\"pool\":\"vanilla-ic/default/coarse\",\"seeds\":[{},{}]}}",
                (i as u32 * 37) % n,
                (i as u32 * 101) % n
            ),
            _ => format!(
                "{{\"op\":\"select\",\"pool\":\"rr-sim/one-way/coarse\",\"k\":2,\"budget\":{}}}",
                500 + 100 * (i % 3)
            ),
        }
    };
    const QUERIES: usize = 24;
    let serial: Vec<String> = (0..QUERIES)
        .map(|i| svc.handle_line(&query(i)).to_line())
        .collect();
    for workers in [2, 4, 7] {
        let concurrent = run_sharded(QUERIES, workers, |i| svc.handle_line(&query(i)).to_line());
        assert_eq!(
            concurrent, serial,
            "{workers} interleaved clients diverged from the serial replay"
        );
    }
    // All those queries were warm: startup built 2 pools, nothing since.
    assert_eq!(svc.pool_builds(), 2);
}

#[test]
fn shutdown_drains_and_refuses_new_queries_end_to_end() {
    let svc = ComicService::start(small_cfg(2)).expect("service");
    let lines = run_script(
        &svc,
        &[
            "{\"op\":\"select\",\"pool\":\"vanilla-ic/default/coarse\",\"k\":2}",
            "{\"op\":\"shutdown\"}",
            "{\"op\":\"select\",\"pool\":\"vanilla-ic/default/coarse\",\"k\":2}",
            "{\"op\":\"ping\"}",
        ],
    );
    assert!(lines[0].contains("\"ok\":true"));
    assert!(lines[1].contains("\"draining\":true"));
    assert!(lines[2].contains("shutting_down"));
    assert!(lines[3].contains("pong"), "control ops still answer");
    svc.drain(); // no queries in flight: must return immediately
    assert!(svc.is_draining());
}
