//! RR-CIM — RR-set generation for CompInfMax (paper §6.3, Algorithm 4).
//!
//! Valid when `q_{A|∅} ≤ q_{A|B}` and `q_{B|∅} ≤ q_{B|A} = 1` (Theorems
//! 5/8). A node `u` belongs to `R_W(v)` iff the root `v` is *not* A-adopted
//! in world `W` without B-seeds, but becomes A-adopted when `u` is the only
//! B-seed.
//!
//! **Phase I** forward-labels every node's counterfactual A-status with no
//! B-seeds (Equation 4): `A-adopted` / `A-rejected` / `A-suspended`
//! (informed of A, needs B to adopt) / `A-potential` (would be informed if
//! upstream suspended nodes were unlocked). Labels only strengthen
//! (potential → suspended → adopted), so the pass runs to a fixpoint with
//! re-enqueueing — this covers the paper's "promotion" of potential nodes
//! reached later by adopted neighbours.
//!
//! **Phase II** runs the primary backward search from the root through
//! AB-diffusible potential nodes, harvesting:
//! * case 1 — suspended ∧ AB-diffusible: the node plus its backward cone
//!   through B-diffusible nodes (any of them seeding B reaches it);
//! * case 2 — suspended ∧ ¬AB-diffusible: the node alone;
//! * case 3 — potential ∧ AB-diffusible: keep climbing;
//! * case 4 — potential ∧ ¬AB-diffusible: the `S_f ∩ S_b` loop test of
//!   Figure 3 (the node can seed B, route it forward to a suspended
//!   unlocker, and receive A back).
//!
//! **Root screen.** Before Phase I, a two-stage backward BFS from the root
//! over live in-edges (`root_is_boostable`) decides Algorithm 4 lines 2–3:
//! Phase I leaves the root suspended or potential iff the root is not an
//! A-seed, some live path from `S_A` reaches it through nodes with
//! `α_A ≤ q_{A|B}`, and no live path reaches it through nodes with
//! `α_A ≤ q_{A|∅}` only. Only roots that pass pay for the whole A-cascade.
//! Each set is the same function of the world as without the screen; only
//! the order of lazy draws differs (DIVERGENCES.md, "RR-CIM root screen").
//!
//! The construction follows Algorithm 4 verbatim. Note (DIVERGENCES.md,
//! "RR-CIM's static B-diffusible gate"): the *static* B-diffusible gate
//! `α_B ≤ q_{B|∅} ∨ label = adopted` can under-collect in a rare corner
//! where an A-ready but merely-potential node would relay B only thanks to
//! `q_{B|A} = 1` after receiving A along the same path; the brute-force
//! replay tests in this module quantify the effect (soundness — no false
//! members — always holds).

use comic_core::gap::Gap;
use comic_core::item::Item;
use comic_core::possible_world::LazyWorld;
use comic_graph::scratch::{StampedSet, StampedVec};
use comic_graph::{DiGraph, NodeId};
use comic_ris::sampler::RrSampler;
use rand::Rng;

use crate::error::AlgoError;

/// Counterfactual A-status labels of the Phase-I forward pass, ordered by
/// strength so the fixpoint is a monotone max-merge.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Default)]
#[repr(u8)]
enum FLabel {
    /// Never informed of A (even counterfactually).
    #[default]
    Unreached = 0,
    /// Would be informed of A if upstream suspended nodes adopted.
    Potential = 1,
    /// Informed of A, declined, awaiting a B boost.
    Suspended = 2,
    /// Adopts A with no B-seeds at all.
    Adopted = 3,
}

/// The RR-CIM sampler (Algorithm 4).
pub struct RrCimSampler<'g> {
    g: &'g DiGraph,
    gap: Gap,
    seeds_a: Vec<NodeId>,
    /// `is_seed_a[v]` iff `v ∈ S_A`, for the root screen.
    is_seed_a: Vec<bool>,
    world: LazyWorld,
    label: StampedVec<FLabel>,
    in_r: StampedSet,
    prim_visited: StampedSet,
    sec_b_visited: StampedSet,
    sf: StampedSet,
    sb: StampedSet,
    queue: Vec<NodeId>,
    queue2: Vec<NodeId>,
    sf_list: Vec<NodeId>,
    last_width: u64,
}

impl<'g> RrCimSampler<'g> {
    /// Create a sampler; requires the CompInfMax-submodular regime
    /// `q_{A|∅} ≤ q_{A|B}`, `q_{B|∅} ≤ q_{B|A} = 1`.
    pub fn new(g: &'g DiGraph, gap: Gap, seeds_a: Vec<NodeId>) -> Result<Self, AlgoError> {
        if !gap.is_cim_submodular() {
            return Err(AlgoError::UnsupportedRegime(format!(
                "RR-CIM requires mutual complementarity with q_B|A = 1, got {gap}"
            )));
        }
        for &s in &seeds_a {
            if s.index() >= g.num_nodes() {
                return Err(AlgoError::Model(comic_core::ModelError::SeedOutOfRange {
                    node: s.0,
                    n: g.num_nodes(),
                }));
            }
        }
        let n = g.num_nodes();
        let mut is_seed_a = vec![false; n];
        for &s in &seeds_a {
            is_seed_a[s.index()] = true;
        }
        Ok(RrCimSampler {
            g,
            gap,
            seeds_a,
            is_seed_a,
            world: LazyWorld::new(n, g.num_edges()),
            label: StampedVec::new(n),
            in_r: StampedSet::new(n),
            prim_visited: StampedSet::new(n),
            sec_b_visited: StampedSet::new(n),
            sf: StampedSet::new(n),
            sb: StampedSet::new(n),
            queue: Vec::new(),
            queue2: Vec::new(),
            sf_list: Vec::new(),
            last_width: 0,
        })
    }

    /// The GAP vector in use.
    pub fn gap(&self) -> Gap {
        self.gap
    }

    /// Memoization pressure of the sampler's owned [`LazyWorld`],
    /// accumulated over every [`RrSampler::sample`] call so far: how often
    /// Phase I (re-reading the root screen's coins) and Phase II's backward
    /// searches (especially the case-4 `S_f ∩ S_b` loop test, which
    /// re-walks edges the primary search already flipped) were answered
    /// from the per-world memo instead of drawing fresh coins.
    pub fn memo_stats(&self) -> comic_core::possible_world::MemoStats {
        self.world.memo_stats()
    }

    /// Zero the [`RrCimSampler::memo_stats`] counters.
    pub fn reset_memo_stats(&mut self) {
        self.world.reset_memo_stats();
    }

    /// Validate the regime and seed set once, then return an infallible
    /// per-thread sampler factory for the sharded
    /// [`comic_ris::RisPipeline`].
    pub fn factory(
        g: &'g DiGraph,
        gap: Gap,
        seeds_a: &'g [NodeId],
    ) -> Result<impl Fn() -> RrCimSampler<'g> + Sync + 'g, AlgoError> {
        RrCimSampler::new(g, gap, seeds_a.to_vec())?;
        Ok(move || {
            RrCimSampler::new(g, gap, seeds_a.to_vec()).expect("validated RR-CIM construction")
        })
    }

    #[inline]
    fn get_label(&self, v: NodeId) -> FLabel {
        self.label.get_copied(v.index()).unwrap_or_default()
    }

    /// AB-diffusible: adopts both items when informed of both —
    /// `α_A ≤ q_{A|∅} ∨ (α_A ≤ q_{A|B} ∧ α_B ≤ q_{B|∅})`.
    #[inline]
    fn ab_diffusible<R: Rng>(&mut self, v: NodeId, world: &mut LazyWorld, rng: &mut R) -> bool {
        let aa = world.alpha(Item::A, v, rng);
        aa <= self.gap.q_a0
            || (aa <= self.gap.q_ab && world.alpha(Item::B, v, rng) <= self.gap.q_b0)
    }

    /// B-diffusible: adopts B when informed of it —
    /// `α_B ≤ q_{B|∅} ∨ A-adopted-as-labeled` (the latter because
    /// `q_{B|A} = 1`).
    #[inline]
    fn b_diffusible<R: Rng>(&mut self, v: NodeId, world: &mut LazyWorld, rng: &mut R) -> bool {
        world.alpha(Item::B, v, rng) <= self.gap.q_b0 || self.get_label(v) == FLabel::Adopted
    }

    /// Phase I: fixpoint forward labeling from `S_A` per Equation (4).
    fn forward_label<R: Rng>(&mut self, world: &mut LazyWorld, rng: &mut R) {
        self.queue.clear();
        for i in 0..self.seeds_a.len() {
            let s = self.seeds_a[i];
            self.label.set(s.index(), FLabel::Adopted);
            self.queue.push(s);
        }
        let mut head = 0;
        while head < self.queue.len() {
            let u = self.queue[head];
            head += 1;
            let lu = self.get_label(u);
            for adj in self.g.out_edges(u) {
                if !world.edge_live(adj.edge, adj.p, rng) {
                    continue;
                }
                let v = adj.node;
                let av = world.alpha(Item::A, v, rng);
                let cand = match lu {
                    FLabel::Adopted => {
                        if av <= self.gap.q_a0 {
                            FLabel::Adopted
                        } else if av <= self.gap.q_ab {
                            FLabel::Suspended
                        } else {
                            continue; // A-rejected: α_A > q_{A|B}
                        }
                    }
                    _ => {
                        if av <= self.gap.q_ab {
                            FLabel::Potential
                        } else {
                            continue;
                        }
                    }
                };
                if cand > self.get_label(v) {
                    self.label.set(v.index(), cand);
                    self.queue.push(v);
                }
            }
        }
    }

    #[inline]
    fn add_to_r(&mut self, v: NodeId, out: &mut Vec<NodeId>) {
        if self.in_r.insert(v.index()) {
            out.push(v);
            // Every member enters through here, so ω(R) is tallied in place.
            self.last_width += self.g.in_degree(v) as u64;
        }
    }

    /// Case 1 secondary: backward cone from `u` through B-diffusible nodes;
    /// every touched node joins R, non-B-diffusible nodes end their branch.
    fn secondary_backward<R: Rng>(
        &mut self,
        u: NodeId,
        world: &mut LazyWorld,
        rng: &mut R,
        out: &mut Vec<NodeId>,
    ) {
        if !self.sec_b_visited.insert(u.index()) {
            return; // cone already harvested by an earlier secondary search
        }
        self.queue2.clear();
        self.queue2.push(u);
        let mut head = 0;
        while head < self.queue2.len() {
            let x = self.queue2[head];
            head += 1;
            for adj in self.g.in_edges(x) {
                let w = adj.node;
                if self.sec_b_visited.contains(w.index()) || !world.edge_live(adj.edge, adj.p, rng)
                {
                    continue;
                }
                self.sec_b_visited.insert(w.index());
                self.add_to_r(w, out);
                if self.b_diffusible(w, world, rng) {
                    self.queue2.push(w);
                }
            }
        }
    }

    /// Case 4: can `u`, seeding B, route B forward through B-diffusible
    /// nodes to an A-suspended unlocker `u₀` that routes A back to `u`
    /// through AB-diffusible labeled nodes? (Figure 3.)
    fn case4_loop_exists<R: Rng>(&mut self, u: NodeId, world: &mut LazyWorld, rng: &mut R) -> bool {
        // Forward sweep (S_f): B-diffusible interior, endpoints included.
        self.sf.clear();
        self.sf_list.clear();
        self.queue2.clear();
        self.sf.insert(u.index());
        self.queue2.push(u);
        let mut head = 0;
        while head < self.queue2.len() {
            let x = self.queue2[head];
            head += 1;
            for adj in self.g.out_edges(x) {
                let y = adj.node;
                if self.sf.contains(y.index()) || !world.edge_live(adj.edge, adj.p, rng) {
                    continue;
                }
                self.sf.insert(y.index());
                self.sf_list.push(y);
                if self.b_diffusible(y, world, rng) {
                    self.queue2.push(y);
                }
            }
        }
        // Backward sweep (S_b): AB-diffusible nodes with label ≥ potential.
        self.sb.clear();
        self.queue2.clear();
        self.sb.insert(u.index());
        self.queue2.push(u);
        let mut head = 0;
        while head < self.queue2.len() {
            let x = self.queue2[head];
            head += 1;
            for adj in self.g.in_edges(x) {
                let w = adj.node;
                if self.sb.contains(w.index()) || !world.edge_live(adj.edge, adj.p, rng) {
                    continue;
                }
                if self.get_label(w) >= FLabel::Potential && self.ab_diffusible(w, world, rng) {
                    self.sb.insert(w.index());
                    self.queue2.push(w);
                }
            }
        }
        // Intersection check for an A-suspended unlocker.
        for i in 0..self.sf_list.len() {
            let y = self.sf_list[i];
            if self.sb.contains(y.index()) && self.get_label(y) == FLabel::Suspended {
                return true;
            }
        }
        false
    }

    /// The root screen: whether Phase I would leave `root` suspended or
    /// potential in `world`, decided by a backward BFS over live in-edges
    /// instead of the forward A-cascade. Stage 1 climbs through nodes with
    /// `α_A ≤ q_{A|∅}`: a seed there makes the root A-adopted. Stage 2
    /// resumes from the nodes stage 1 set aside (`q_{A|∅} < α_A ≤ q_{A|B}`)
    /// and climbs through `α_A ≤ q_{A|B}`: a seed there informs the root
    /// without adopting it, none leaves it unreached.
    fn root_is_boostable<R: Rng>(
        &mut self,
        root: NodeId,
        world: &mut LazyWorld,
        rng: &mut R,
    ) -> bool {
        if self.is_seed_a[root.index()] {
            return false;
        }
        let ar = world.alpha(Item::A, root, rng);
        if ar > self.gap.q_ab {
            return false;
        }
        self.prim_visited.clear();
        self.prim_visited.insert(root.index());
        self.queue.clear();
        self.queue2.clear();
        if ar <= self.gap.q_a0 {
            self.queue.push(root);
        } else {
            self.queue2.push(root);
        }
        let mut head = 0;
        while head < self.queue.len() {
            let x = self.queue[head];
            head += 1;
            for adj in self.g.in_edges(x) {
                let w = adj.node;
                if self.prim_visited.contains(w.index()) || !world.edge_live(adj.edge, adj.p, rng) {
                    continue;
                }
                if self.is_seed_a[w.index()] {
                    return false;
                }
                self.prim_visited.insert(w.index());
                let aw = world.alpha(Item::A, w, rng);
                if aw <= self.gap.q_a0 {
                    self.queue.push(w);
                } else if aw <= self.gap.q_ab {
                    self.queue2.push(w);
                }
            }
        }
        let mut head = 0;
        while head < self.queue2.len() {
            let x = self.queue2[head];
            head += 1;
            for adj in self.g.in_edges(x) {
                let w = adj.node;
                if self.prim_visited.contains(w.index()) || !world.edge_live(adj.edge, adj.p, rng) {
                    continue;
                }
                if self.is_seed_a[w.index()] {
                    return true;
                }
                self.prim_visited.insert(w.index());
                if world.alpha(Item::A, w, rng) <= self.gap.q_ab {
                    self.queue2.push(w);
                }
            }
        }
        false
    }

    /// Sample `R_W(root)` in the provided (already reset) world — exposed so
    /// validation code can replay the identical world through the
    /// brute-force reference sampler.
    pub fn sample_in_world<R: Rng>(
        &mut self,
        root: NodeId,
        world: &mut LazyWorld,
        rng: &mut R,
        out: &mut Vec<NodeId>,
    ) {
        out.clear();
        self.last_width = 0;
        // Roots that adopt A on their own, were rejected, or can never be
        // informed, cannot be boosted (Algorithm 4 lines 2–3).
        if !self.root_is_boostable(root, world, rng) {
            return;
        }
        self.label.clear();
        self.in_r.clear();
        self.prim_visited.clear();
        self.sec_b_visited.clear();

        self.forward_label(world, rng);
        debug_assert!(matches!(
            self.get_label(root),
            FLabel::Suspended | FLabel::Potential
        ));

        self.queue.clear();
        self.prim_visited.insert(root.index());
        self.queue.push(root);
        let mut head = 0;
        while head < self.queue.len() {
            let u = self.queue[head];
            head += 1;
            match self.get_label(u) {
                FLabel::Suspended => {
                    // Cases 1 & 2: u itself always qualifies.
                    self.add_to_r(u, out);
                    if self.ab_diffusible(u, world, rng) {
                        self.secondary_backward(u, world, rng, out);
                    }
                }
                FLabel::Potential => {
                    if self.ab_diffusible(u, world, rng) {
                        // Case 3: continue the primary climb.
                        for adj in self.g.in_edges(u) {
                            let w = adj.node;
                            if !self.prim_visited.contains(w.index())
                                && world.edge_live(adj.edge, adj.p, rng)
                            {
                                self.prim_visited.insert(w.index());
                                self.queue.push(w);
                            }
                        }
                    } else if self.case4_loop_exists(u, world, rng) {
                        // Case 4 special treatment; primary stops here.
                        self.add_to_r(u, out);
                    }
                }
                _ => {} // adopted / unreached: nothing to harvest or climb
            }
        }
    }
}

impl RrSampler for RrCimSampler<'_> {
    fn graph(&self) -> &DiGraph {
        self.g
    }

    fn sample<R: Rng>(&mut self, root: NodeId, rng: &mut R, out: &mut Vec<NodeId>) {
        // Detach the owned world to satisfy the borrow checker, then restore.
        let mut world = std::mem::replace(&mut self.world, LazyWorld::new(0, 0));
        world.reset();
        self.sample_in_world(root, &mut world, rng, out);
        self.world = world;
    }

    fn sample_with_width<R: Rng>(
        &mut self,
        root: NodeId,
        rng: &mut R,
        out: &mut Vec<NodeId>,
    ) -> u64 {
        self.sample(root, rng, out);
        self.last_width
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reference::reference_rr_cim;
    use comic_core::seeds::seeds;
    use comic_graph::gen;
    use rand::rngs::SmallRng;
    use rand::{RngExt, SeedableRng};

    fn cim_gap() -> Gap {
        Gap::new(0.2, 0.8, 0.4, 1.0).unwrap()
    }

    #[test]
    fn rejects_bad_regime() {
        let g = gen::path(3, 1.0);
        // q_ba != 1
        assert!(RrCimSampler::new(&g, Gap::new(0.2, 0.8, 0.4, 0.9).unwrap(), vec![]).is_err());
        // not mutually complementary
        assert!(RrCimSampler::new(&g, Gap::new(0.8, 0.2, 0.4, 1.0).unwrap(), vec![]).is_err());
        assert!(RrCimSampler::new(&g, cim_gap(), vec![]).is_ok());
        assert!(RrCimSampler::new(&g, cim_gap(), seeds(&[9])).is_err());
    }

    #[test]
    fn adopted_or_unreachable_roots_give_empty_sets() {
        // Path 0 -> 1 with q_{A|∅} = 1: node 1 always adopts without B.
        let g = gen::path(2, 1.0);
        let gap = Gap::new(1.0, 1.0, 0.5, 1.0).unwrap();
        let mut s = RrCimSampler::new(&g, gap, seeds(&[0])).unwrap();
        let mut rng = SmallRng::seed_from_u64(1);
        let mut out = Vec::new();
        for _ in 0..20 {
            s.sample(NodeId(1), &mut rng, &mut out);
            assert!(out.is_empty());
        }
        // A node with no A-seed upstream can never be boosted either.
        let g2 = gen::path(3, 1.0);
        let mut s2 = RrCimSampler::new(&g2, cim_gap(), seeds(&[1])).unwrap();
        for _ in 0..20 {
            s2.sample(NodeId(0), &mut rng, &mut out);
            assert!(out.is_empty());
        }
    }

    #[test]
    fn suspended_root_harvests_its_b_cone() {
        // 2 -> 1 -> 0(root), A-seed at 2; q_{A|∅}=0 so everything reachable
        // is suspended/potential; q_{B|∅}=1 makes every node B-diffusible.
        let g = comic_graph::builder::from_edges(3, &[(2, 1, 1.0), (1, 0, 1.0)]).unwrap();
        let gap = Gap::new(0.0, 1.0, 1.0, 1.0).unwrap();
        let mut s = RrCimSampler::new(&g, gap, seeds(&[2])).unwrap();
        let mut rng = SmallRng::seed_from_u64(2);
        let mut out = Vec::new();
        // Node 1 is suspended (informed by adopted seed 2); root 0 is merely
        // potential. Seeding B at 1 (reconsideration) or at 2 (B relayed to
        // 1, then reconsideration) flips the root; seeding B at the root
        // itself does not — the root is never informed of A that way.
        s.sample(NodeId(0), &mut rng, &mut out);
        let mut got: Vec<u32> = out.iter().map(|v| v.0).collect();
        got.sort_unstable();
        assert_eq!(got, vec![1, 2]);
    }

    /// Replay-based validation against the brute-force Definition-1
    /// reference: in the *same* possible world, Algorithm 4 must never
    /// include a node whose solo B-seeding fails to flip the root
    /// (soundness), and should almost always find exactly the reference set
    /// (the rare static-gate under-collection is tolerated and counted).
    #[test]
    fn matches_definition_one_reference_per_world() {
        let mut grng = SmallRng::seed_from_u64(3);
        let mut total_sets = 0usize;
        let mut undercollected = 0usize;
        for (gi, gap) in [
            cim_gap(),
            Gap::new(0.0, 1.0, 0.3, 1.0).unwrap(),
            Gap::new(0.4, 0.7, 0.6, 1.0).unwrap(),
        ]
        .into_iter()
        .enumerate()
        {
            let topo = gen::gnm(14, 42, &mut grng).unwrap();
            let g = comic_graph::prob::ProbModel::Constant(0.7).apply(&topo, &mut grng);
            let seeds_a = seeds(&[0, 1]);
            let mut sampler = RrCimSampler::new(&g, gap, seeds_a.clone()).unwrap();
            let mut rng = SmallRng::seed_from_u64(40 + gi as u64);
            let mut world = LazyWorld::new(g.num_nodes(), g.num_edges());
            let mut out = Vec::new();
            for trial in 0..400 {
                let root = NodeId(rng.random_range(0..g.num_nodes() as u32));
                world.reset();
                sampler.sample_in_world(root, &mut world, &mut rng, &mut out);
                let reference = reference_rr_cim(&g, gap, &seeds_a, root, &mut world, &mut rng);
                let alg: std::collections::BTreeSet<NodeId> = out.iter().copied().collect();
                let rf: std::collections::BTreeSet<NodeId> = reference.into_iter().collect();
                assert!(
                    alg.is_subset(&rf),
                    "gap {gi} trial {trial} root {root}: Algorithm 4 produced \
                     non-activating members {:?} (reference {:?})",
                    alg.difference(&rf).collect::<Vec<_>>(),
                    rf
                );
                total_sets += 1;
                if alg != rf {
                    undercollected += 1;
                }
            }
        }
        // The static B-diffusible gate may under-collect in a rare corner;
        // it must stay rare or seed quality would degrade measurably.
        assert!(
            (undercollected as f64) < 0.02 * total_sets as f64,
            "under-collection too frequent: {undercollected}/{total_sets}"
        );
    }

    /// The root screen is exact per world: its verdict equals "Phase I
    /// leaves the root suspended or potential" in the same world, whichever
    /// of the two draws the shared coins first.
    #[test]
    fn root_screen_matches_phase_one_labels_per_world() {
        let mut grng = SmallRng::seed_from_u64(13);
        let topo = gen::gnm(40, 200, &mut grng).unwrap();
        let seeds_a = seeds(&[0, 1, 2]);
        for (gi, gap) in [
            cim_gap(),
            Gap::new(0.88, 0.92, 0.92, 1.0).unwrap(), // Flixster's ν
            Gap::new(0.0, 1.0, 0.3, 1.0).unwrap(),
            Gap::new(0.4, 0.7, 0.6, 1.0).unwrap(),
            Gap::new(0.5, 0.5, 0.5, 1.0).unwrap(), // nobody is ever suspended
        ]
        .into_iter()
        .enumerate()
        {
            let mut boostable = [0usize; 2];
            for p in [0.2, 0.5, 0.9] {
                let g = comic_graph::prob::ProbModel::Constant(p).apply(&topo, &mut grng);
                let mut s = RrCimSampler::new(&g, gap, seeds_a.clone()).unwrap();
                let mut rng = SmallRng::seed_from_u64(50 + gi as u64);
                let mut world = LazyWorld::new(g.num_nodes(), g.num_edges());
                for trial in 0..2_000 {
                    let root = NodeId(rng.random_range(0..g.num_nodes() as u32));
                    world.reset();
                    s.label.clear();
                    let verdict = if trial % 2 == 0 {
                        let v = s.root_is_boostable(root, &mut world, &mut rng);
                        s.forward_label(&mut world, &mut rng);
                        v
                    } else {
                        s.forward_label(&mut world, &mut rng);
                        s.root_is_boostable(root, &mut world, &mut rng)
                    };
                    let label = s.get_label(root);
                    assert_eq!(
                        verdict,
                        matches!(label, FLabel::Suspended | FLabel::Potential),
                        "gap {gap} p {p} trial {trial} root {root}: screen says \
                         {verdict}, Phase I labels {label:?}"
                    );
                    boostable[verdict as usize] += 1;
                }
            }
            assert!(boostable[0] > 0, "gap {gap}: every root boostable");
            if gap.q_a0 < gap.q_ab {
                assert!(boostable[1] > 0, "gap {gap}: no root boostable");
            } else {
                assert_eq!(boostable[1], 0, "gap {gap}: suspension needs q_A|∅ < q_A|B");
            }
        }
    }

    /// The memo pressure counters are surfaced, deterministic for a fixed
    /// seed, and show real re-probing in the case-4-heavy regime.
    #[test]
    fn memo_stats_are_surfaced_and_deterministic() {
        let run = || {
            let mut grng = SmallRng::seed_from_u64(77);
            let topo = gen::gnm(60, 400, &mut grng).unwrap();
            let g = comic_graph::prob::ProbModel::Constant(0.4).apply(&topo, &mut grng);
            // Low q_{A|∅} keeps most labels potential/suspended, which is
            // what drives Phase II into the case-4 loop test.
            let gap = Gap::new(0.05, 0.9, 0.3, 1.0).unwrap();
            let mut s = RrCimSampler::new(&g, gap, seeds(&[0, 1])).unwrap();
            assert_eq!(s.memo_stats().probes(), 0);
            let mut rng = SmallRng::seed_from_u64(78);
            let mut out = Vec::new();
            for _ in 0..300 {
                let root = NodeId(rng.random_range(0..60));
                s.sample(root, &mut rng, &mut out);
            }
            s.memo_stats()
        };
        let a = run();
        let b = run();
        assert_eq!(a, b, "memo pressure must be reproducible per seed");
        assert!(a.probes() > 0, "sampling must surface memo probes");
        assert!(
            a.hits > 0,
            "phase II re-probes phase-I coins; zero hits means the memo broke: {a}"
        );
        assert!(a.hit_rate() < 1.0, "every world must draw fresh coins: {a}");
        // reset_memo_stats really zeroes.
        let mut grng = SmallRng::seed_from_u64(1);
        let topo = gen::gnm(10, 30, &mut grng).unwrap();
        let g = comic_graph::prob::ProbModel::Constant(0.5).apply(&topo, &mut grng);
        let mut s = RrCimSampler::new(&g, cim_gap(), seeds(&[0])).unwrap();
        let mut rng = SmallRng::seed_from_u64(2);
        let mut out = Vec::new();
        s.sample(NodeId(3), &mut rng, &mut out);
        assert!(s.memo_stats().probes() > 0);
        s.reset_memo_stats();
        assert_eq!(s.memo_stats().probes(), 0);
    }

    #[test]
    fn members_are_distinct() {
        let mut grng = SmallRng::seed_from_u64(9);
        let topo = gen::gnm(30, 150, &mut grng).unwrap();
        let g = comic_graph::prob::ProbModel::Constant(0.5).apply(&topo, &mut grng);
        let mut s = RrCimSampler::new(&g, cim_gap(), seeds(&[0, 1, 2])).unwrap();
        let mut rng = SmallRng::seed_from_u64(10);
        let mut out = Vec::new();
        for _ in 0..500 {
            let root = NodeId(rng.random_range(0..30));
            s.sample(root, &mut rng, &mut out);
            let mut sorted = out.clone();
            sorted.sort_unstable();
            sorted.dedup();
            assert_eq!(sorted.len(), out.len());
        }
    }

    #[test]
    fn width_accumulated_in_add_to_r_matches_indegree_sum() {
        let mut grng = SmallRng::seed_from_u64(11);
        let topo = gen::gnm(30, 150, &mut grng).unwrap();
        let g = comic_graph::prob::ProbModel::Constant(0.5).apply(&topo, &mut grng);
        let mut s = RrCimSampler::new(&g, cim_gap(), seeds(&[0, 1, 2])).unwrap();
        let mut rng = SmallRng::seed_from_u64(12);
        let mut out = Vec::new();
        for _ in 0..300 {
            let root = NodeId(rng.random_range(0..30));
            let w = s.sample_with_width(root, &mut rng, &mut out);
            let expect: u64 = out.iter().map(|&v| g.in_degree(v) as u64).sum();
            assert_eq!(w, expect);
        }
    }
}
