//! Bit-level pins of the Com-IC cascade engine and of everything built on
//! it: Monte-Carlo estimates and the SelfInfMax / CompInfMax solutions.
//!
//! Every case folds what a run exposes into one FNV-1a digest and compares
//! it with a constant read from the list-of-lists engine these pins were
//! written against. A rewrite of `CascadeEngine` that makes the same
//! `Oracle` calls in the same order reproduces every constant; one that
//! reorders a single edge test, adoption draw or tie priority does not.
//!
//! The cascade cases cover a seeded G(n, m) graph and a small Chung–Lu
//! weighted-cascade graph, GAPs from the four regimes of §3 (plus a mixed
//! one and competitive IC), seed pairs where one node seeds both items and
//! a field-by-field pair with repeated ids, under the coin oracle, the
//! possible-world oracle and a table-driven oracle shaped like the exact
//! engine's, with event recording on and off. Each case also folds the
//! sequence of oracle calls and, where the oracle exposes its RNG, the
//! RNG's next draw after each run.

use comic::model::exact::ExactComIc;
use comic::model::oracle::{CoinOracle, Oracle};
use comic::model::possible_world::WorldOracle;
use comic::model::seeds::seeds;
use comic::prelude::*;
use comic_algos::self_inf_max::Solution;
use comic_core::simulate::{CascadeEngine, CascadeStats, EventKind};
use comic_core::state::ItemState;
use comic_graph::gen;
use comic_graph::prob::ProbModel;
use comic_graph::{EdgeId, NodeId};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// FNV-1a over 64-bit words.
#[derive(Clone, Copy)]
struct Fnv(u64);

impl Fnv {
    fn new() -> Fnv {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn word(&mut self, w: u64) {
        for b in w.to_le_bytes() {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn f64(&mut self, x: f64) {
        self.word(x.to_bits());
    }

    fn nodes(&mut self, xs: &[NodeId]) {
        self.word(xs.len() as u64);
        for v in xs {
            self.word(u64::from(v.0));
        }
    }
}

fn item_code(item: Item) -> u64 {
    match item {
        Item::A => 0,
        Item::B => 1,
    }
}

fn state_code(s: ItemState) -> u64 {
    match s {
        ItemState::Idle => 0,
        ItemState::Suspended => 1,
        ItemState::Adopted => 2,
        ItemState::Rejected => 3,
    }
}

fn event_code(k: EventKind) -> u64 {
    match k {
        EventKind::Informed => 0,
        EventKind::Adopted => 1,
        EventKind::Suspended => 2,
        EventKind::Rejected => 3,
    }
}

/// Wraps an oracle and folds every call (its kind, arguments and answer)
/// into a digest, so the pins see the call order, not only the outcome.
struct Recorder<O> {
    inner: O,
    calls: Fnv,
}

impl<O: Oracle> Oracle for Recorder<O> {
    fn edge_live(&mut self, e: EdgeId, p: f64) -> bool {
        let r = self.inner.edge_live(e, p);
        self.calls.word(1);
        self.calls.word(u64::from(e.0));
        self.calls.word(u64::from(r));
        r
    }

    fn adopt(&mut self, v: NodeId, item: Item, other_adopted: bool, gap: &Gap) -> bool {
        let r = self.inner.adopt(v, item, other_adopted, gap);
        self.calls.word(2);
        self.calls.word(u64::from(v.0));
        self.calls.word(item_code(item));
        self.calls.word(u64::from(other_adopted));
        self.calls.word(u64::from(r));
        r
    }

    fn reconsider(&mut self, v: NodeId, item: Item, gap: &Gap) -> bool {
        let r = self.inner.reconsider(v, item, gap);
        self.calls.word(3);
        self.calls.word(u64::from(v.0));
        self.calls.word(item_code(item));
        self.calls.word(u64::from(r));
        r
    }

    fn tie_priority(&mut self, e: EdgeId) -> u64 {
        let r = self.inner.tie_priority(e);
        self.calls.word(4);
        self.calls.word(u64::from(e.0));
        self.calls.word(r);
        r
    }

    fn seed_a_first(&mut self, v: NodeId) -> bool {
        let r = self.inner.seed_a_first(v);
        self.calls.word(5);
        self.calls.word(u64::from(v.0));
        self.calls.word(u64::from(r));
        r
    }

    fn reset(&mut self) {
        self.calls.word(6);
        self.inner.reset();
    }
}

/// A deterministic oracle over fixed per-edge and per-node tables, the
/// shape of the exact engine's enumeration oracle: the same world on
/// every run, with every edge priority distinct.
struct TableOracle {
    live: Vec<bool>,
    prio: Vec<u64>,
    alpha_a: Vec<f64>,
    alpha_b: Vec<f64>,
    tau: Vec<bool>,
}

impl TableOracle {
    fn new(g: &DiGraph, seed: u64) -> TableOracle {
        let mut rng = SmallRng::seed_from_u64(seed);
        let live = g
            .edges()
            .map(|(_, e)| rand::RngExt::random_bool(&mut rng, e.p))
            .collect();
        // Distinct: an odd multiplier is a bijection on u64.
        let prio = (0..g.num_edges() as u64)
            .map(|i| i.wrapping_mul(0x9e37_79b9_7f4a_7c15))
            .collect();
        let n = g.num_nodes();
        let mut draw = || -> f64 { rand::RngExt::random(&mut rng) };
        let alpha_a = (0..n).map(|_| draw()).collect();
        let alpha_b = (0..n).map(|_| draw()).collect();
        let tau = (0..n).map(|i| i % 3 != 1).collect();
        TableOracle {
            live,
            prio,
            alpha_a,
            alpha_b,
            tau,
        }
    }
}

impl Oracle for TableOracle {
    fn edge_live(&mut self, e: EdgeId, _p: f64) -> bool {
        self.live[e.index()]
    }

    fn adopt(&mut self, v: NodeId, item: Item, other_adopted: bool, gap: &Gap) -> bool {
        let alpha = match item {
            Item::A => self.alpha_a[v.index()],
            Item::B => self.alpha_b[v.index()],
        };
        alpha <= gap.adopt_prob(item, other_adopted)
    }

    fn reconsider(&mut self, v: NodeId, item: Item, gap: &Gap) -> bool {
        self.adopt(v, item, true, gap)
    }

    fn tie_priority(&mut self, e: EdgeId) -> u64 {
        self.prio[e.index()]
    }

    fn seed_a_first(&mut self, v: NodeId) -> bool {
        self.tau[v.index()]
    }

    fn reset(&mut self) {}
}

/// Fold one finished run into `h`: stats, both adopted lists, the events
/// and every node's final state.
fn fold_run(h: &mut Fnv, engine: &CascadeEngine<'_>, stats: CascadeStats) {
    h.word(u64::from(stats.a_count));
    h.word(u64::from(stats.b_count));
    h.word(u64::from(stats.steps));
    h.nodes(engine.a_adopted());
    h.nodes(engine.b_adopted());
    h.word(engine.events().len() as u64);
    for ev in engine.events() {
        h.word(u64::from(ev.t));
        h.word(u64::from(ev.node.0));
        h.word(item_code(ev.item));
        h.word(event_code(ev.kind));
    }
    for v in engine.graph().nodes() {
        let st = engine.final_state(v);
        h.word(state_code(st.a) << 2 | state_code(st.b));
    }
}

fn gnm_graph() -> DiGraph {
    let mut rng = SmallRng::seed_from_u64(2024);
    let topo = gen::gnm(300, 2_400, &mut rng).unwrap();
    ProbModel::Constant(0.3).apply(&topo, &mut rng)
}

fn chung_lu_graph() -> DiGraph {
    let mut rng = SmallRng::seed_from_u64(2025);
    let topo = gen::chung_lu(
        &gen::ChungLuConfig {
            n: 600,
            target_edges: 3_600,
            exponent: 2.16,
        },
        &mut rng,
    )
    .unwrap();
    ProbModel::WeightedCascade.apply(&topo, &mut rng)
}

/// GAPs of the four regimes of §3 — competition, one-way complementarity,
/// mutual complementarity, independence — plus a mixed one and
/// competitive IC.
fn gaps() -> Vec<(&'static str, Gap)> {
    vec![
        ("compete", Gap::new(0.8, 0.2, 0.9, 0.3).unwrap()),
        ("one-way", Gap::new(0.2, 0.9, 0.6, 0.6).unwrap()),
        ("mutual", Gap::new(0.3, 0.8, 0.4, 0.9).unwrap()),
        ("independent", Gap::new(0.6, 0.6, 0.7, 0.7).unwrap()),
        ("mixed", Gap::new(0.3, 0.9, 0.9, 0.2).unwrap()),
        ("competitive-ic", Gap::competitive_ic()),
    ]
}

/// Seed pairs: A only, B only, disjoint, overlapping (nodes seeding both
/// items), and one built field by field with repeated ids in both lists.
fn seed_pairs() -> Vec<SeedPair> {
    vec![
        SeedPair::a_only(seeds(&[0, 7, 19])),
        SeedPair::b_only(seeds(&[3, 11])),
        SeedPair::new(seeds(&[0, 1, 2, 5, 8]), seeds(&[3, 4, 6, 9])),
        SeedPair::new(seeds(&[0, 2, 4, 10]), seeds(&[2, 4, 12])),
        SeedPair {
            a: seeds(&[4, 4, 11, 1]),
            b: seeds(&[11, 2, 2, 4]),
        },
    ]
}

const RUNS_PER_CASE: usize = 12;

/// The digest of one (graph, oracle kind, events on/off) sweep over every
/// GAP and seed pair.
fn cascade_digest(g: &DiGraph, oracle_kind: &str, events: bool) -> u64 {
    let mut h = Fnv::new();
    let mut engine = CascadeEngine::new(g);
    engine.record_events(events);
    for (gi, (_, gap)) in gaps().into_iter().enumerate() {
        for (si, sp) in seed_pairs().iter().enumerate() {
            let case_seed = 1_000 + 100 * gi as u64 + si as u64;
            let mut calls = Fnv::new();
            match oracle_kind {
                "coin" => {
                    let mut o = Recorder {
                        inner: CoinOracle::new(g.num_edges(), SmallRng::seed_from_u64(case_seed)),
                        calls,
                    };
                    for _ in 0..RUNS_PER_CASE {
                        let stats = engine.run(&gap, sp, &mut o);
                        fold_run(&mut h, &engine, stats);
                        h.word(o.inner.rng_mut().next_u64());
                    }
                    calls = o.calls;
                }
                "world" => {
                    let mut o = Recorder {
                        inner: WorldOracle::new(
                            g.num_nodes(),
                            g.num_edges(),
                            SmallRng::seed_from_u64(case_seed),
                        ),
                        calls,
                    };
                    for _ in 0..RUNS_PER_CASE {
                        let stats = engine.run(&gap, sp, &mut o);
                        fold_run(&mut h, &engine, stats);
                        h.word(o.inner.parts_mut().1.next_u64());
                    }
                    calls = o.calls;
                }
                "table" => {
                    let mut o = Recorder {
                        inner: TableOracle::new(g, case_seed),
                        calls,
                    };
                    let stats = engine.run(&gap, sp, &mut o);
                    fold_run(&mut h, &engine, stats);
                    calls = o.calls;
                }
                other => unreachable!("unknown oracle kind {other}"),
            }
            h.word(calls.0);
        }
    }
    h.0
}

/// Compare `(name, got)` pairs against the pinned table, reporting every
/// mismatch (with the value read) at once.
fn check(pinned: &[(&str, u64)], got: &[(String, u64)]) {
    assert_eq!(pinned.len(), got.len(), "pin table size");
    let mut bad = Vec::new();
    for ((name, want), (got_name, value)) in pinned.iter().zip(got) {
        assert_eq!(name, got_name, "pin table order");
        if want != value {
            bad.push(format!("(\"{got_name}\", {value:#018x}),"));
        }
    }
    assert!(
        bad.is_empty(),
        "pins moved; values read:\n{}",
        bad.join("\n")
    );
}

const CASCADE_PINS: &[(&str, u64)] = &[
    ("gnm/coin/events", 0x2828cbccfdc9d9a6),
    ("gnm/coin/quiet", 0x21259b6965fd2b89),
    ("gnm/world/events", 0xf26438db99423d72),
    ("gnm/world/quiet", 0xc146afa71d3258c2),
    ("gnm/table/events", 0x7622a38334e90e6b),
    ("gnm/table/quiet", 0xf566719070344757),
    ("chung-lu/coin/events", 0x5f36f8834fd64057),
    ("chung-lu/coin/quiet", 0xdb80477c99e29d2c),
    ("chung-lu/world/events", 0x34348ef78eec3128),
    ("chung-lu/world/quiet", 0x98378c695c90a652),
    ("chung-lu/table/events", 0x37082064a4292379),
    ("chung-lu/table/quiet", 0xc00e7f79081e9e0b),
];

#[test]
fn cascade_runs_match_the_pinned_digests() {
    let mut got = Vec::new();
    for (gname, g) in [("gnm", gnm_graph()), ("chung-lu", chung_lu_graph())] {
        for oracle in ["coin", "world", "table"] {
            for (events, tag) in [(true, "events"), (false, "quiet")] {
                got.push((
                    format!("{gname}/{oracle}/{tag}"),
                    cascade_digest(&g, oracle, events),
                ));
            }
        }
    }
    check(CASCADE_PINS, &got);
}

const EXACT_PINS: &[(&str, u64)] = &[
    ("compete", 0x2934233e355c2ae1),
    ("one-way", 0x6ef7be50ae2b66fe),
    ("mutual", 0x4bca7a4026df4dd3),
    ("independent", 0xd3bd6c20f50e3e01),
    ("mixed", 0x3d048de4200c27b7),
    ("competitive-ic", 0x7b0674fb85c9d70d),
];

/// The exact engine's enumeration over a gadget with probabilistic edges,
/// a node informed by three in-neighbours in one step, and a dual seed.
#[test]
fn exact_enumeration_matches_the_pinned_digests() {
    let g = comic_graph::builder::from_edges(
        6,
        &[
            (0, 2, 0.5),
            (1, 2, 0.6),
            (3, 2, 1.0),
            (2, 4, 0.4),
            (0, 3, 1.0),
            (3, 5, 0.7),
            (1, 5, 1.0),
        ],
    )
    .unwrap();
    let pairs = [
        SeedPair::new(seeds(&[0]), seeds(&[1])),
        SeedPair::new(seeds(&[0, 1]), seeds(&[1])),
        SeedPair::a_only(seeds(&[0, 1])),
    ];
    let mut got = Vec::new();
    for (name, gap) in gaps() {
        let mut h = Fnv::new();
        for sp in &pairs {
            let r = ExactComIc::new(&g, gap).compute(sp).unwrap();
            h.f64(r.sigma_a);
            h.f64(r.sigma_b);
            h.word(r.worlds);
            for (a, b) in r.adopt_a.iter().zip(&r.adopt_b) {
                h.f64(*a);
                h.f64(*b);
            }
        }
        got.push((name.to_string(), h.0));
    }
    check(EXACT_PINS, &got);
}

const ESTIMATE_PINS: &[(&str, u64)] = &[
    ("compete/t1", 0x7f65628838ddf3a6),
    ("compete/t2", 0x685d82ff1e83ccb9),
    ("compete/t3", 0x4b060f946a091e6a),
    ("mutual/t1", 0x96dda7b68fc858c3),
    ("mutual/t2", 0x8e407726f7724499),
    ("mutual/t3", 0x6e5a9ac38fe19d2c),
];

#[test]
fn spread_estimates_match_the_pinned_bits() {
    let g = chung_lu_graph();
    let sp = SeedPair::new(seeds(&[0, 1, 2, 5, 8]), seeds(&[2, 4, 6, 9]));
    let mut got = Vec::new();
    for (name, gap) in gaps() {
        if name != "mutual" && name != "compete" {
            continue;
        }
        let est = SpreadEstimator::new(&g, gap);
        for threads in [1, 2, 3] {
            let mut h = Fnv::new();
            // 5 iterations at 3 threads is below the 2-per-thread floor, so
            // it takes the sequential path.
            for iters in [5, 301] {
                let e = est.estimate_parallel(&sp, iters, 77, threads);
                h.f64(e.sigma_a);
                h.f64(e.sigma_b);
                h.f64(e.var_a);
                h.f64(e.var_b);
                h.word(e.iterations as u64);
            }
            got.push((format!("{name}/t{threads}"), h.0));
        }
    }
    check(ESTIMATE_PINS, &got);
}

fn fold_solution(h: &mut Fnv, sol: &Solution) {
    h.nodes(&sol.seeds);
    h.f64(sol.objective);
    h.nodes(&sol.tim.seeds);
    h.word(sol.tim.theta);
    h.f64(sol.tim.kpt);
    h.word(sol.tim.covered);
    h.f64(sol.tim.est_spread);
    h.word(u64::from(sol.tim.capped));
    if let Some(report) = &sol.sandwich {
        h.word(report.chosen as u64);
        h.f64(report.upper_bound_ratio);
        for c in &report.candidates {
            h.nodes(&c.seeds);
            h.f64(c.objective);
        }
    }
}

const SOLVER_PINS: &[(&str, u64)] = &[
    ("self/t1", 0x5175e2e4b738328f),
    ("self/t2", 0x8205716af8f96ecc),
    ("self/t4", 0x613e6a2dff6a25c6),
    ("comp/t1", 0x3238353fae8db564),
    ("comp/t2", 0xba21f694467dc8e8),
    ("comp/t4", 0xbb57d714c70ec4ac),
];

#[test]
fn sandwich_solutions_match_the_pinned_digests() {
    let g = chung_lu_graph();
    // Flixster's learned GAP: general Q+, so both solvers take the
    // sandwich route (two pools for SelfInfMax, one for CompInfMax).
    let gap = Gap::new(0.88, 0.92, 0.92, 0.96).unwrap();
    let others = seeds(&[0, 1, 2, 3, 4]);
    let mut got = Vec::new();
    for threads in [1, 2, 4] {
        let mut h = Fnv::new();
        let sol = SelfInfMax::new(&g, gap, others.clone())
            .max_rr_sets(3_000)
            .eval_iterations(200)
            .threads(threads)
            .solve(5, &mut SmallRng::seed_from_u64(31))
            .unwrap();
        fold_solution(&mut h, &sol);
        got.push((format!("self/t{threads}"), h.0));
    }
    for threads in [1, 2, 4] {
        let mut h = Fnv::new();
        let sol = CompInfMax::new(&g, gap, others.clone())
            .max_rr_sets(3_000)
            .eval_iterations(200)
            .threads(threads)
            .solve(5, &mut SmallRng::seed_from_u64(32))
            .unwrap();
        fold_solution(&mut h, &sol);
        got.push((format!("comp/t{threads}"), h.0));
    }
    check(SOLVER_PINS, &got);
}
