//! The Com-IC diffusion engine (paper §3, Figure 2).
//!
//! One engine drives all three execution modes (model-faithful coins,
//! possible worlds, exact enumeration) by delegating every stochastic
//! decision to an [`Oracle`](crate::oracle::Oracle). The dynamics follow
//! Figure 2 of the paper exactly:
//!
//! 1. **Edge transition** — when a node adopts an item at step `t−1`, each of
//!    its untested outgoing edges is tested once; live edges deliver the
//!    information at step `t`.
//! 2. **Tie-breaking** — a node informed by several in-neighbours in the same
//!    step processes them in a random order; an informer that adopted both
//!    items delivers them in its own adoption order.
//! 3. **Adoption** — the node-level automaton consumes the *first* inform
//!    event per item: adopt with the applicable GAP, otherwise become
//!    suspended (not yet other-adopted) or rejected (already other-adopted).
//! 4. **Reconsideration** — a node suspended on X that adopts Y re-tests X
//!    (probability ρ_X under the coin oracle, `α_X ≤ q_{X|Y}` under possible
//!    worlds).

use crate::gap::Gap;
use crate::item::Item;
use crate::oracle::Oracle;
use crate::seeds::SeedPair;
use crate::state::{ItemState, JointState};
use comic_graph::{DiGraph, EdgeId, NodeId};

/// Which item(s) a node newly adopted within one time step, in order.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub enum AdoptKind {
    /// Adopted A only (placeholder default — never emitted for real events).
    #[default]
    A,
    /// Adopted B only.
    B,
    /// Adopted A first, then B in the same step.
    AThenB,
    /// Adopted B first, then A in the same step.
    BThenA,
}

impl AdoptKind {
    fn single(item: Item) -> AdoptKind {
        match item {
            Item::A => AdoptKind::A,
            Item::B => AdoptKind::B,
        }
    }

    fn merge(self, later: Item) -> AdoptKind {
        match (self, later) {
            (AdoptKind::A, Item::B) => AdoptKind::AThenB,
            (AdoptKind::B, Item::A) => AdoptKind::BThenA,
            // A node cannot adopt the same item twice; other combinations
            // indicate an engine bug.
            _ => unreachable!("invalid adoption merge: {self:?} + {later}"),
        }
    }

    /// The items in adoption order.
    pub fn items(self) -> &'static [Item] {
        match self {
            AdoptKind::A => &[Item::A],
            AdoptKind::B => &[Item::B],
            AdoptKind::AThenB => &[Item::A, Item::B],
            AdoptKind::BThenA => &[Item::B, Item::A],
        }
    }

    /// The delivered items as a bitmask (bit 0 = A, bit 1 = B).
    #[inline]
    fn mask(self) -> u32 {
        match self {
            AdoptKind::A => 0b01,
            AdoptKind::B => 0b10,
            AdoptKind::AThenB | AdoptKind::BThenA => 0b11,
        }
    }

    fn from_bits(bits: u64) -> AdoptKind {
        match bits {
            0 => AdoptKind::A,
            1 => AdoptKind::B,
            2 => AdoptKind::AThenB,
            _ => AdoptKind::BThenA,
        }
    }
}

/// What happened to a node, for event recording.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum EventKind {
    /// First informed of the item.
    Informed,
    /// Adopted the item.
    Adopted,
    /// Entered the suspended state for the item.
    Suspended,
    /// Rejected the item.
    Rejected,
}

/// A timestamped state-transition event.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Event {
    /// Time step (seeds adopt at 0).
    pub t: u32,
    /// The node.
    pub node: NodeId,
    /// The item concerned.
    pub item: Item,
    /// What happened.
    pub kind: EventKind,
}

/// Summary of one diffusion.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct CascadeStats {
    /// Number of A-adopted nodes (including A-seeds).
    pub a_count: u32,
    /// Number of B-adopted nodes (including B-seeds).
    pub b_count: u32,
    /// Number of steps until quiescence (0 = nothing propagated past seeds).
    pub steps: u32,
}

// A node's joint state packs into four bits, two per item (A high, B low):
// idle 0, suspended 1, adopted 2, rejected 3.
const IDLE: u32 = 0;
const SUSPENDED: u32 = 1;
const ADOPTED: u32 = 2;
const REJECTED: u32 = 3;
const STATE_BITS: u32 = 4;
/// Largest run stamp that fits above the four state bits.
const MAX_RUN: u32 = u32::MAX >> STATE_BITS;

#[inline]
fn shift(item: Item) -> u32 {
    match item {
        Item::A => 2,
        Item::B => 0,
    }
}

#[inline]
fn item_state(code: u32, item: Item) -> u32 {
    (code >> shift(item)) & 3
}

#[inline]
fn with_item_state(code: u32, item: Item, s: u32) -> u32 {
    (code & !(3 << shift(item))) | (s << shift(item))
}

/// The idle items of a joint state as a bitmask (bit 0 = A, bit 1 = B), to
/// meet [`AdoptKind::mask`].
#[inline]
fn idle_mask(code: u32) -> u32 {
    u32::from(item_state(code, Item::A) == IDLE) | u32::from(item_state(code, Item::B) == IDLE) << 1
}

fn decode_item_state(s: u32) -> ItemState {
    match s {
        IDLE => ItemState::Idle,
        SUSPENDED => ItemState::Suspended,
        ADOPTED => ItemState::Adopted,
        _ => ItemState::Rejected,
    }
}

/// End of an inform chain.
const END: u32 = u32::MAX;

/// One live-edge inform registered in phase 1: the edge, what its source
/// delivers, and the next inform of the same target.
#[derive(Clone, Copy)]
struct Inform {
    edge: EdgeId,
    next: u32,
    kind: AdoptKind,
}

/// A node informed in the current step: the first and last inform of its
/// chain, in registration order.
#[derive(Clone, Copy)]
struct Target {
    node: NodeId,
    first: u32,
    last: u32,
}

/// Reusable Com-IC diffusion engine over a fixed graph.
///
/// The scratch state is flat arrays. Each node has one run-stamped word,
/// the run's stamp above its two 2-bit item states, and one step-stamped
/// word, the step's stamp above a payload (a seed's adoption kind at step
/// 0, the node's target slot in later steps). A step's informs are flat
/// `(edge, kind)` entries chained per informed target. Bumping a stamp
/// clears its words, so back-to-back [`CascadeEngine::run`] calls perform
/// no allocation in the steady state — the property that makes
/// Monte-Carlo spread estimation and RR-set sampling affordable.
///
/// Every stochastic decision goes to the [`Oracle`] in a fixed order:
/// edge tests in frontier order × out-edge order, then the informed
/// targets in first-registration order, drawing tie priorities (only for
/// a target with more than one informer) in registration order and
/// processing informs in (priority, edge id) order.
///
/// # Example
/// ```
/// use comic_core::{CascadeEngine, Gap, SeedPair};
/// use comic_core::oracle::CoinOracle;
/// use comic_core::seeds::seeds;
/// use comic_graph::gen;
/// use rand::rngs::SmallRng;
/// use rand::SeedableRng;
///
/// let g = gen::path(4, 1.0); // 0 -> 1 -> 2 -> 3, all edges certain
/// let gap = Gap::new(1.0, 1.0, 0.0, 0.0).unwrap(); // A always adopted
/// let mut engine = CascadeEngine::new(&g);
/// let mut oracle = CoinOracle::new(g.num_edges(), SmallRng::seed_from_u64(1));
/// let stats = engine.run(&gap, &SeedPair::a_only(seeds(&[0])), &mut oracle);
/// assert_eq!(stats.a_count, 4);
/// ```
pub struct CascadeEngine<'g> {
    g: &'g DiGraph,
    // Per node: `run << STATE_BITS | joint state`.
    state: Vec<u32>,
    run: u32,
    // Per node: `step << 32 | payload`.
    step_word: Vec<u64>,
    step: u32,
    informs: Vec<Inform>,
    targets: Vec<Target>,
    // Tie-breaking buffer: (priority, edge, kind).
    sort_buf: Vec<(u64, EdgeId, AdoptKind)>,
    // Adopters of the previous step (the frontier) and of this one.
    cur: Vec<(NodeId, AdoptKind)>,
    next: Vec<(NodeId, AdoptKind)>,
    // Outputs.
    a_adopted: Vec<NodeId>,
    b_adopted: Vec<NodeId>,
    events: Vec<Event>,
    record_events: bool,
}

impl<'g> CascadeEngine<'g> {
    /// Create an engine for `g`.
    pub fn new(g: &'g DiGraph) -> Self {
        CascadeEngine {
            g,
            state: vec![0; g.num_nodes()],
            run: 0,
            step_word: vec![0; g.num_nodes()],
            step: 0,
            informs: Vec::new(),
            targets: Vec::new(),
            sort_buf: Vec::new(),
            cur: Vec::new(),
            next: Vec::new(),
            a_adopted: Vec::new(),
            b_adopted: Vec::new(),
            events: Vec::new(),
            record_events: false,
        }
    }

    /// Enable or disable event recording (disabled by default; recording
    /// allocates proportionally to cascade size).
    pub fn record_events(&mut self, on: bool) -> &mut Self {
        self.record_events = on;
        self
    }

    /// The graph this engine runs on.
    pub fn graph(&self) -> &'g DiGraph {
        self.g
    }

    /// Nodes that adopted A in the last run (seeds first, then in adoption
    /// order).
    pub fn a_adopted(&self) -> &[NodeId] {
        &self.a_adopted
    }

    /// Nodes that adopted B in the last run.
    pub fn b_adopted(&self) -> &[NodeId] {
        &self.b_adopted
    }

    /// Events of the last run (empty unless [`Self::record_events`] is on).
    pub fn events(&self) -> &[Event] {
        &self.events
    }

    /// Final joint state of `v` after the last run.
    pub fn final_state(&self, v: NodeId) -> JointState {
        let code = self.code(v);
        JointState {
            a: decode_item_state(item_state(code, Item::A)),
            b: decode_item_state(item_state(code, Item::B)),
        }
    }

    /// Run one diffusion from `seeds` under `gap`, drawing every stochastic
    /// decision from `oracle`.
    ///
    /// # Panics
    /// Panics if a seed node id is out of range for the graph.
    pub fn run<O: Oracle>(&mut self, gap: &Gap, seeds: &SeedPair, oracle: &mut O) -> CascadeStats {
        if self.run == MAX_RUN {
            self.state.fill(0);
            self.run = 0;
        }
        self.run += 1;
        self.cur.clear();
        self.next.clear();
        self.a_adopted.clear();
        self.b_adopted.clear();
        self.events.clear();
        oracle.reset();

        // --- Step 0: seeds adopt without running the NLA. The step word
        // holds each seed's adoption kind until the frontier is built. A
        // node listed twice for one item (a pair built field by field) is
        // seeded once. ---
        self.begin_step();
        for &u in &seeds.a {
            let code = self.code(u);
            if item_state(code, Item::A) == ADOPTED {
                continue;
            }
            self.set_code(u, with_item_state(code, Item::A, ADOPTED));
            self.a_adopted.push(u);
            self.push_event(0, u, Item::A, EventKind::Adopted);
            self.set_step_payload(u, AdoptKind::A as u32);
            self.next.push((u, AdoptKind::A));
        }
        for &u in &seeds.b {
            let code = self.code(u);
            if item_state(code, Item::B) == ADOPTED {
                continue;
            }
            self.set_code(u, with_item_state(code, Item::B, ADOPTED));
            self.b_adopted.push(u);
            self.push_event(0, u, Item::B, EventKind::Adopted);
            if self.step_payload(u).is_some() {
                // Seed of both items: a fair coin decides the adoption order,
                // which governs the order the node informs its neighbours.
                let kind = if oracle.seed_a_first(u) {
                    AdoptKind::AThenB
                } else {
                    AdoptKind::BThenA
                };
                self.set_step_payload(u, kind as u32);
            } else {
                self.set_step_payload(u, AdoptKind::B as u32);
                self.next.push((u, AdoptKind::B));
            }
        }
        for i in 0..self.next.len() {
            let u = self.next[i].0;
            let payload = self.step_payload(u).expect("seeds carry their kind");
            self.next[i].1 = AdoptKind::from_bits(payload);
        }
        std::mem::swap(&mut self.cur, &mut self.next);

        // --- Steps t >= 1. ---
        let mut steps: u32 = 0;
        let mut t: u32 = 1;
        while !self.cur.is_empty() {
            steps = t;
            self.begin_step();
            self.informs.clear();
            self.targets.clear();
            // Phase 1: test out-edges of the previous step's adopters and
            // register inform events on live edges. Edges whose target can no
            // longer react to the delivered items are skipped — the coin is
            // deferred, which is distributionally identical (the oracle
            // memoizes per-edge outcomes).
            for i in 0..self.cur.len() {
                let (u, kind) = self.cur[i];
                let delivered = kind.mask();
                for adj in self.g.out_edges(u) {
                    if delivered & idle_mask(self.code(adj.node)) != 0
                        && oracle.edge_live(adj.edge, adj.p)
                    {
                        self.register_inform(adj.node, adj.edge, kind);
                    }
                }
            }
            // Phase 2: each informed node processes its informers in a
            // random order (fresh priorities are a uniform permutation; the
            // possible-world oracle supplies its fixed permutation instead).
            // All of a node's adoptions in a step happen here, so its
            // adoption kind is a local.
            let mut buf = std::mem::take(&mut self.sort_buf);
            for ti in 0..self.targets.len() {
                let Target {
                    node: v,
                    first,
                    last,
                } = self.targets[ti];
                let mut adopted = None;
                if first == last {
                    let kind = self.informs[first as usize].kind;
                    for &item in kind.items() {
                        self.process_inform(v, item, gap, oracle, t, &mut adopted);
                    }
                } else {
                    buf.clear();
                    let mut i = first;
                    while i != END {
                        let inform = self.informs[i as usize];
                        buf.push((oracle.tie_priority(inform.edge), inform.edge, inform.kind));
                        i = inform.next;
                    }
                    buf.sort_unstable_by_key(|&(p, e, _)| (p, e.0));
                    for &(_, _, kind) in &buf {
                        for &item in kind.items() {
                            self.process_inform(v, item, gap, oracle, t, &mut adopted);
                        }
                    }
                }
                if let Some(kind) = adopted {
                    self.next.push((v, kind));
                }
            }
            self.sort_buf = buf;
            std::mem::swap(&mut self.cur, &mut self.next);
            self.next.clear();
            t += 1;
        }

        CascadeStats {
            a_count: self.a_adopted.len() as u32,
            b_count: self.b_adopted.len() as u32,
            steps: if self.a_adopted.is_empty() && self.b_adopted.is_empty() {
                0
            } else {
                steps.saturating_sub(1)
            },
        }
    }

    /// `v`'s 4-bit joint state in the current run.
    #[inline]
    fn code(&self, v: NodeId) -> u32 {
        let w = self.state[v.index()];
        if w >> STATE_BITS == self.run {
            w & ((1 << STATE_BITS) - 1)
        } else {
            0
        }
    }

    #[inline]
    fn set_code(&mut self, v: NodeId, code: u32) {
        self.state[v.index()] = self.run << STATE_BITS | code;
    }

    /// Start a step: every step word goes stale.
    fn begin_step(&mut self) {
        if self.step == u32::MAX {
            self.step_word.fill(0);
            self.step = 0;
        }
        self.step += 1;
    }

    #[inline]
    fn step_payload(&self, v: NodeId) -> Option<u64> {
        let w = self.step_word[v.index()];
        (w >> 32 == u64::from(self.step)).then_some(w & u64::from(u32::MAX))
    }

    #[inline]
    fn set_step_payload(&mut self, v: NodeId, payload: u32) {
        self.step_word[v.index()] = u64::from(self.step) << 32 | u64::from(payload);
    }

    fn register_inform(&mut self, v: NodeId, edge: EdgeId, kind: AdoptKind) {
        let id = self.informs.len() as u32;
        self.informs.push(Inform {
            edge,
            next: END,
            kind,
        });
        match self.step_payload(v) {
            Some(slot) => {
                let target = &mut self.targets[slot as usize];
                self.informs[target.last as usize].next = id;
                target.last = id;
            }
            None => {
                self.set_step_payload(v, self.targets.len() as u32);
                self.targets.push(Target {
                    node: v,
                    first: id,
                    last: id,
                });
            }
        }
    }

    fn process_inform<O: Oracle>(
        &mut self,
        v: NodeId,
        item: Item,
        gap: &Gap,
        oracle: &mut O,
        t: u32,
        adopted: &mut Option<AdoptKind>,
    ) {
        let mut code = self.code(v);
        if item_state(code, item) != IDLE {
            return; // the NLA consumes only the first inform per item
        }
        self.push_event(t, v, item, EventKind::Informed);
        let other = item.other();
        let other_adopted = item_state(code, other) == ADOPTED;
        if oracle.adopt(v, item, other_adopted, gap) {
            code = with_item_state(code, item, ADOPTED);
            self.on_adopt(v, item, t, adopted);
            // Reconsideration: adopting `item` may rescue the other item from
            // suspension (Figure 2, step 4).
            if item_state(code, other) == SUSPENDED {
                if oracle.reconsider(v, other, gap) {
                    code = with_item_state(code, other, ADOPTED);
                    self.on_adopt(v, other, t, adopted);
                } else {
                    code = with_item_state(code, other, REJECTED);
                    self.push_event(t, v, other, EventKind::Rejected);
                }
            }
        } else if other_adopted {
            code = with_item_state(code, item, REJECTED);
            self.push_event(t, v, item, EventKind::Rejected);
        } else {
            code = with_item_state(code, item, SUSPENDED);
            self.push_event(t, v, item, EventKind::Suspended);
        }
        self.set_code(v, code);
    }

    fn on_adopt(&mut self, v: NodeId, item: Item, t: u32, adopted: &mut Option<AdoptKind>) {
        match item {
            Item::A => self.a_adopted.push(v),
            Item::B => self.b_adopted.push(v),
        }
        self.push_event(t, v, item, EventKind::Adopted);
        *adopted = Some(match *adopted {
            Some(kind) => kind.merge(item),
            None => AdoptKind::single(item),
        });
    }

    #[inline]
    fn push_event(&mut self, t: u32, node: NodeId, item: Item, kind: EventKind) {
        if self.record_events {
            self.events.push(Event {
                t,
                node,
                item,
                kind,
            });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::oracle::CoinOracle;
    use crate::seeds::seeds;
    use comic_graph::gen;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    fn engine_run(
        g: &DiGraph,
        gap: &Gap,
        sp: &SeedPair,
        seed: u64,
    ) -> (CascadeStats, Vec<NodeId>, Vec<NodeId>) {
        let mut eng = CascadeEngine::new(g);
        let mut o = CoinOracle::new(g.num_edges(), SmallRng::seed_from_u64(seed));
        let stats = eng.run(gap, sp, &mut o);
        (stats, eng.a_adopted().to_vec(), eng.b_adopted().to_vec())
    }

    #[test]
    fn certain_path_full_adoption() {
        let g = gen::path(6, 1.0);
        let gap = Gap::new(1.0, 1.0, 1.0, 1.0).unwrap();
        let (stats, a, _) = engine_run(&g, &gap, &SeedPair::a_only(seeds(&[0])), 1);
        assert_eq!(stats.a_count, 6);
        assert_eq!(a.len(), 6);
        assert_eq!(stats.b_count, 0);
    }

    #[test]
    fn blocked_edges_stop_diffusion() {
        let g = gen::path(6, 0.0);
        let gap = Gap::new(1.0, 1.0, 1.0, 1.0).unwrap();
        let (stats, ..) = engine_run(&g, &gap, &SeedPair::a_only(seeds(&[0])), 2);
        assert_eq!(stats.a_count, 1);
        assert_eq!(stats.steps, 0);
    }

    #[test]
    fn zero_gap_blocks_all_nonseeds() {
        let g = gen::complete(5, 1.0);
        let gap = Gap::new(0.0, 0.0, 0.0, 0.0).unwrap();
        let (stats, ..) = engine_run(&g, &gap, &SeedPair::new(seeds(&[0]), seeds(&[1])), 3);
        assert_eq!(stats.a_count, 1);
        assert_eq!(stats.b_count, 1);
    }

    #[test]
    fn pure_competition_splits_the_ring() {
        // Competitive IC on a certain ring: every node adopts exactly one item.
        let g = gen::ring(10, 1.0);
        let gap = Gap::competitive_ic();
        let (stats, a, b) = engine_run(&g, &gap, &SeedPair::new(seeds(&[0]), seeds(&[5])), 4);
        assert_eq!(stats.a_count + stats.b_count, 10);
        let a: std::collections::HashSet<_> = a.into_iter().collect();
        let b: std::collections::HashSet<_> = b.into_iter().collect();
        assert!(a.is_disjoint(&b), "pure competition forbids dual adoption");
    }

    #[test]
    fn perfect_complements_travel_together() {
        // q_{X|other} = 1: once one item is adopted, the other always follows
        // where informed.
        let g = gen::path(5, 1.0);
        let gap = Gap::new(1.0, 1.0, 1.0, 1.0).unwrap();
        let (stats, ..) = engine_run(&g, &gap, &SeedPair::new(seeds(&[0]), seeds(&[0])), 5);
        assert_eq!(stats.a_count, 5);
        assert_eq!(stats.b_count, 5);
    }

    #[test]
    fn reconsideration_rescues_suspended_nodes() {
        // Node 1 on a path 0->1 with A-seed 0; q_{A|∅} = 0 so node 1 always
        // suspends on A. B arrives from seed 2 via 2->1; q_{A|B} = 1 forces
        // reconsideration to adopt A.
        let g = comic_graph::builder::from_edges(3, &[(0, 1, 1.0), (2, 1, 1.0)]).unwrap();
        let gap = Gap::new(0.0, 1.0, 1.0, 1.0).unwrap();
        for seed in 0..20 {
            let (stats, a, _) =
                engine_run(&g, &gap, &SeedPair::new(seeds(&[0]), seeds(&[2])), seed);
            assert_eq!(stats.a_count, 2, "seed {seed}");
            assert!(a.contains(&NodeId(1)));
        }
    }

    #[test]
    fn no_reconsideration_under_competition() {
        // Same gadget but B competes with A (q_{A|B} = 0 < q_{A|∅} = 0.0)...
        // make q_{A|∅}=0.0, q_{A|B}=0.0: node 1 never adopts A.
        let g = comic_graph::builder::from_edges(3, &[(0, 1, 1.0), (2, 1, 1.0)]).unwrap();
        let gap = Gap::new(0.0, 0.0, 1.0, 1.0).unwrap();
        for seed in 0..10 {
            let (stats, ..) = engine_run(&g, &gap, &SeedPair::new(seeds(&[0]), seeds(&[2])), seed);
            assert_eq!(stats.a_count, 1, "seed {seed}");
        }
    }

    #[test]
    fn final_states_are_reachable_joint_states() {
        let mut rng = SmallRng::seed_from_u64(99);
        let g = gen::gnm(60, 400, &mut rng).unwrap();
        let g = comic_graph::prob::ProbModel::Constant(0.4).apply(&g, &mut rng);
        // A mixed regime stresses all transitions.
        for gap in [
            Gap::new(0.3, 0.9, 0.6, 0.2).unwrap(),
            Gap::new(0.9, 0.1, 0.2, 0.8).unwrap(),
            Gap::new(0.5, 0.5, 0.5, 0.5).unwrap(),
        ] {
            let mut eng = CascadeEngine::new(&g);
            let mut o = CoinOracle::new(g.num_edges(), SmallRng::seed_from_u64(7));
            for _ in 0..50 {
                eng.run(
                    &gap,
                    &SeedPair::new(seeds(&[0, 1, 2]), seeds(&[3, 4, 5])),
                    &mut o,
                );
                for v in g.nodes() {
                    let st = eng.final_state(v);
                    assert!(
                        st.is_reachable(),
                        "unreachable joint state {st:?} at {v} (Appendix A.1)"
                    );
                }
            }
        }
    }

    #[test]
    fn adoption_counts_match_adopted_lists() {
        let mut rng = SmallRng::seed_from_u64(17);
        let g = gen::gnm(40, 200, &mut rng).unwrap();
        let g = comic_graph::prob::ProbModel::Constant(0.3).apply(&g, &mut rng);
        let gap = Gap::new(0.4, 0.8, 0.3, 0.7).unwrap();
        let mut eng = CascadeEngine::new(&g);
        let mut o = CoinOracle::new(g.num_edges(), SmallRng::seed_from_u64(5));
        for _ in 0..30 {
            let stats = eng.run(&gap, &SeedPair::new(seeds(&[1, 2]), seeds(&[3])), &mut o);
            assert_eq!(stats.a_count as usize, eng.a_adopted().len());
            assert_eq!(stats.b_count as usize, eng.b_adopted().len());
            // No duplicates in adopted lists.
            let mut a = eng.a_adopted().to_vec();
            a.sort_unstable();
            a.dedup();
            assert_eq!(a.len(), stats.a_count as usize);
            // Each adopted node's final state agrees.
            for &v in eng.a_adopted() {
                assert!(eng.final_state(v).adopted(Item::A));
            }
        }
    }

    #[test]
    fn events_recorded_in_time_order() {
        let g = gen::path(4, 1.0);
        let gap = Gap::new(1.0, 1.0, 0.5, 0.5).unwrap();
        let mut eng = CascadeEngine::new(&g);
        eng.record_events(true);
        let mut o = CoinOracle::new(g.num_edges(), SmallRng::seed_from_u64(8));
        eng.run(&gap, &SeedPair::a_only(seeds(&[0])), &mut o);
        let events = eng.events();
        assert!(!events.is_empty());
        assert!(events.windows(2).all(|w| w[0].t <= w[1].t));
        // Node 3 is informed at t=3 and adopts.
        assert!(events.contains(&Event {
            t: 3,
            node: NodeId(3),
            item: Item::A,
            kind: EventKind::Adopted
        }));
    }

    #[test]
    fn seed_of_both_items_adopts_both() {
        let g = gen::path(2, 1.0);
        let gap = Gap::new(0.0, 0.0, 0.0, 0.0).unwrap();
        let (stats, a, b) = engine_run(&g, &gap, &SeedPair::new(seeds(&[0]), seeds(&[0])), 6);
        assert_eq!(stats.a_count, 1);
        assert_eq!(stats.b_count, 1);
        assert_eq!(a, seeds(&[0]));
        assert_eq!(b, seeds(&[0]));
    }

    #[test]
    fn repeated_seed_ids_seed_each_item_once() {
        // A node listed twice in `b` stays a B-only seed: it never informs
        // its neighbour of A, and it adopts B once.
        let g = gen::path(2, 1.0);
        let gap = Gap::new(1.0, 1.0, 1.0, 1.0).unwrap();
        let twice_b = SeedPair {
            a: Vec::new(),
            b: seeds(&[0, 0]),
        };
        for rng_seed in 0..20 {
            let (stats, a, b) = engine_run(&g, &gap, &twice_b, rng_seed);
            assert!(a.is_empty(), "A adopted at {a:?}");
            assert_eq!(b, seeds(&[0, 1]));
            assert_eq!(stats.b_count, 2);
        }
        // The same for A, and for a node listed twice in both lists.
        let twice_a = SeedPair {
            a: seeds(&[0, 0]),
            b: Vec::new(),
        };
        let (_, a, b) = engine_run(&g, &gap, &twice_a, 3);
        assert_eq!((a, b), (seeds(&[0, 1]), Vec::new()));
        let twice_both = SeedPair {
            a: seeds(&[0, 0]),
            b: seeds(&[0, 0]),
        };
        let (_, a, b) = engine_run(&g, &gap, &twice_both, 4);
        assert_eq!((a, b), (seeds(&[0, 1]), seeds(&[0, 1])));
    }

    #[test]
    #[should_panic]
    fn out_of_range_seed_panics() {
        let g = gen::path(3, 1.0);
        let gap = Gap::classic_ic();
        let mut eng = CascadeEngine::new(&g);
        let mut o = CoinOracle::new(g.num_edges(), SmallRng::seed_from_u64(1));
        eng.run(&gap, &SeedPair::a_only(seeds(&[99])), &mut o);
    }
}

/// Statistical tests that the NLA drives adoption exactly as §3 of the
/// paper specifies under each of the four GAP orderings: pure competition,
/// one-way complementarity, mutual complementarity, and independence.
///
/// The gadget is two certain edges 0→2 and 1→2 with A seeded at 0 and
/// (optionally) B at 1, so node 2 is always informed of every seeded item.
/// The NLA is built so that whenever B is (eventually) adopted at a node,
/// the node's overall probability of adopting A is exactly `q_{A|B}` —
/// regardless of whether B arrived before A (direct `q_{A|B}` test) or
/// after (suspension + reconsideration with ρ chosen to compose to
/// `q_{A|B}`). Without B it is `q_{A|∅}`. Each test measures the empirical
/// frequency over many independent cascades.
#[cfg(test)]
mod nla_gap_ordering_tests {
    use super::*;
    use crate::gap::Regime;
    use crate::oracle::CoinOracle;
    use crate::seeds::seeds;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    const TRIALS: u32 = 20_000;
    // 3.9 sigma at p=0.5, n=20_000 — deterministic seeds keep this stable.
    const TOL: f64 = 0.015;

    /// Frequency with which node 2 adopts `item` on `g`, under `gap` and
    /// the given seed placement.
    fn freq_on(g: &DiGraph, gap: &Gap, sp: &SeedPair, item: Item, rng_seed: u64) -> f64 {
        let mut eng = CascadeEngine::new(g);
        let mut o = CoinOracle::new(g.num_edges(), SmallRng::seed_from_u64(rng_seed));
        let mut hits = 0u32;
        for _ in 0..TRIALS {
            eng.run(gap, sp, &mut o);
            if eng.final_state(NodeId(2)).adopted(item) {
                hits += 1;
            }
        }
        hits as f64 / TRIALS as f64
    }

    /// The co-arrival gadget: certain edges 0→2 and 1→2, so node 2 hears
    /// of A (seed 0) and B (seed 1) in the same step and tie-breaks.
    fn adoption_freq(gap: &Gap, sp: &SeedPair, item: Item, rng_seed: u64) -> f64 {
        let g = comic_graph::builder::from_edges(3, &[(0, 2, 1.0), (1, 2, 1.0)]).unwrap();
        freq_on(&g, gap, sp, item, rng_seed)
    }

    /// The B-first gadget: B (seed 1) reaches node 2 at t=1, A (seed 0)
    /// only at t=2 through relay node 3.
    fn b_first_freq(gap: &Gap, item: Item, rng_seed: u64) -> f64 {
        let g =
            comic_graph::builder::from_edges(4, &[(0, 3, 1.0), (3, 2, 1.0), (1, 2, 1.0)]).unwrap();
        freq_on(&g, gap, &both(), item, rng_seed)
    }

    fn both() -> SeedPair {
        SeedPair::new(seeds(&[0]), seeds(&[1]))
    }

    #[test]
    fn pure_competition_suppresses_adoption_to_q_ab() {
        // q_{A|B} < q_{A|∅} and q_{B|A} < q_{B|∅}: each item hurts the
        // other. B is certainly adopted at node 2 (q_{B|∅} = q_{B|A} = 1
        // would be complementary-indifferent, so instead B seeds only and
        // q_{B|∅} = 1 with q_{B|A} = 0.9 < 1 keeps the ordering strict
        // while B still nearly always lands first or co-arrives).
        let gap = Gap::new(0.8, 0.2, 1.0, 0.9).unwrap();
        assert_eq!(gap.regime(), Regime::MutualCompete);
        let alone = adoption_freq(&gap, &SeedPair::a_only(seeds(&[0])), Item::A, 11);
        assert!((alone - gap.q_a0).abs() < TOL, "alone {alone}");
        let with_b = adoption_freq(&gap, &both(), Item::A, 12);
        // The two informs co-arrive and tie-break uniformly: A first gives
        // q_{A|∅} = 0.8 (suspension is final, ρ_A = 0); B first gives
        // q_{A|B} = 0.2. Expected frequency (0.8 + 0.2) / 2 = 0.5.
        assert!((with_b - 0.5).abs() < TOL, "with B {with_b}");
        assert!(
            with_b < alone - 0.2,
            "competition must suppress A: {with_b} vs {alone}"
        );
    }

    #[test]
    fn competition_with_b_first_hits_q_ab_exactly() {
        // On the B-first gadget B is adopted at node 2 (q_{B|∅} = 1,
        // certain edge) before A's inform arrives, so the NLA tests A with
        // exactly q_{A|B}. q_{A|∅} = 1 keeps the relay node 3 certain.
        let gap = Gap::new(1.0, 0.25, 1.0, 1.0).unwrap();
        assert!(gap.b_competes_with_a());
        let f = b_first_freq(&gap, Item::A, 13);
        assert!((f - gap.q_ab).abs() < TOL, "freq {f} vs q_ab {}", gap.q_ab);
    }

    #[test]
    fn one_way_complement_boosts_a_via_reconsideration() {
        // B complements A (q_{A|B} > q_{A|∅}), A indifferent to B
        // (q_{B|A} = q_{B|∅} = 1): the Theorem-4 one-way regime. B is
        // certain at node 2, so A-adoption frequency must equal q_{A|B},
        // strictly above the no-B baseline q_{A|∅}.
        let gap = Gap::new(0.2, 0.9, 1.0, 1.0).unwrap();
        assert!(gap.is_one_way_complement());
        let alone = adoption_freq(&gap, &SeedPair::a_only(seeds(&[0])), Item::A, 21);
        let with_b = adoption_freq(&gap, &both(), Item::A, 22);
        assert!((alone - gap.q_a0).abs() < TOL, "alone {alone}");
        assert!((with_b - gap.q_ab).abs() < TOL, "with B {with_b}");
        assert!(with_b > alone + 0.5);
    }

    #[test]
    fn reconsideration_only_path_composes_to_q_ab() {
        // q_{A|∅} = 0: node 2 always suspends on A first contact, so the
        // *only* route to A-adoption is reconsideration after adopting B.
        // The frequency must still compose to exactly q_{A|B}.
        let gap = Gap::new(0.0, 0.6, 1.0, 1.0).unwrap();
        let f = adoption_freq(&gap, &both(), Item::A, 31);
        assert!((f - gap.q_ab).abs() < TOL, "freq {f} vs q_ab {}", gap.q_ab);
    }

    #[test]
    fn mutual_complementarity_boosts_both_items() {
        // Q+ with strict boosts both ways: seeding the other item raises
        // each item's adoption frequency at the shared target.
        let gap = Gap::new(0.3, 0.8, 0.4, 0.9).unwrap();
        assert_eq!(gap.regime(), Regime::MutualComplement);
        let a_alone = adoption_freq(&gap, &SeedPair::a_only(seeds(&[0])), Item::A, 41);
        let a_with_b = adoption_freq(&gap, &both(), Item::A, 42);
        // Exact law of total probability over the uniform tie-break:
        // B first: 0.4·q_{A|B} + 0.6·q_{A|∅} = 0.32 + 0.18 = 0.5;
        // A first: q_{A|∅} + (1−q_{A|∅})·q_{B|∅}·ρ_A = 0.3 + 0.7·0.4·5/7
        //        = 0.5. Either order: 0.5 > q_{A|∅} = 0.3.
        assert!((a_alone - gap.q_a0).abs() < TOL, "alone {a_alone}");
        assert!((a_with_b - 0.5).abs() < TOL, "with B {a_with_b}");
        assert!(a_with_b > a_alone + 0.1, "{a_with_b} vs {a_alone}");
        let b_alone = adoption_freq(&gap, &SeedPair::b_only(seeds(&[1])), Item::B, 43);
        let b_with_a = adoption_freq(&gap, &both(), Item::B, 44);
        // Symmetrically for B: both orders compose to 0.55 > q_{B|∅} = 0.4.
        assert!((b_alone - gap.q_b0).abs() < TOL, "alone {b_alone}");
        assert!((b_with_a - 0.55).abs() < TOL, "with A {b_with_a}");
        assert!(b_with_a > b_alone + 0.1, "{b_with_a} vs {b_alone}");
    }

    #[test]
    fn independence_leaves_marginals_untouched() {
        // q_{X|∅} = q_{X|Y}: the items are indifferent to each other and
        // each marginal must match its GAP with and without the other item.
        let gap = Gap::new(0.6, 0.6, 0.7, 0.7).unwrap();
        let a_alone = adoption_freq(&gap, &SeedPair::a_only(seeds(&[0])), Item::A, 51);
        let a_with_b = adoption_freq(&gap, &both(), Item::A, 52);
        assert!((a_alone - 0.6).abs() < TOL, "alone {a_alone}");
        assert!((a_with_b - 0.6).abs() < TOL, "with B {a_with_b}");
        let b_with_a = adoption_freq(&gap, &both(), Item::B, 53);
        assert!((b_with_a - 0.7).abs() < TOL, "B with A {b_with_a}");
    }
}
