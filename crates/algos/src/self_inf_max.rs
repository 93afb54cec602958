//! SelfInfMax (Problem 1): pick `k` A-seeds maximizing `σ_A(S_A, S_B)`
//! for a fixed B-seed set under mutual complementarity.

use comic_core::gap::{Gap, Regime};
use comic_core::seeds::SeedPair;
use comic_core::spread::SpreadEstimator;
use comic_graph::par::join;
use comic_graph::{DiGraph, NodeId};
use comic_ris::select::SelectorKind;
use comic_ris::tim::{TimConfig, TimResult};
use comic_ris::RisPipeline;
use rand::{Rng, RngExt};

use crate::error::AlgoError;
use crate::greedy::{greedy_self_inf_max, GreedyConfig};
use crate::rr_sim::RrSimSampler;
use crate::rr_sim_plus::RrSimPlusSampler;
use crate::sandwich::{solve_sandwich, SandwichCandidate, SandwichReport};

/// How a solution was obtained.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Strategy {
    /// The GAPs fall in a provably-submodular region; GeneralTIM was run
    /// directly and carries its `(1 − 1/e − ε)` guarantee.
    Direct,
    /// General mutual complementarity; the sandwich approximation picked the
    /// best of the surrogate solutions (data-dependent factor).
    Sandwich,
}

/// A solved instance.
#[derive(Clone, Debug)]
pub struct Solution {
    /// Selected seeds.
    pub seeds: Vec<NodeId>,
    /// Monte-Carlo estimate of the objective under the true GAPs
    /// (`σ_A` for SelfInfMax, the boost for CompInfMax).
    pub objective: f64,
    /// Which route produced the seeds.
    pub strategy: Strategy,
    /// TIM diagnostics of the winning run (θ, KPT*, coverage).
    pub tim: TimResult,
    /// Sandwich diagnostics when [`Strategy::Sandwich`] was used.
    pub sandwich: Option<SandwichReport>,
}

/// SelfInfMax solver (builder-style).
///
/// # Example
/// ```
/// use comic_algos::SelfInfMax;
/// use comic_core::Gap;
/// use comic_core::seeds::seeds;
/// use comic_graph::gen;
/// use rand::rngs::SmallRng;
/// use rand::SeedableRng;
///
/// let g = gen::star(50, 0.6);
/// let gap = Gap::new(0.3, 0.8, 0.5, 0.5).unwrap(); // one-way: direct TIM
/// let mut rng = SmallRng::seed_from_u64(1);
/// let sol = SelfInfMax::new(&g, gap, seeds(&[1]))
///     .epsilon(0.5)
///     .solve(1, &mut rng)
///     .unwrap();
/// assert_eq!(sol.seeds.len(), 1);
/// assert_eq!(sol.seeds[0], comic_graph::NodeId(0)); // the hub
/// ```
pub struct SelfInfMax<'g> {
    g: &'g DiGraph,
    gap: Gap,
    seeds_b: Vec<NodeId>,
    epsilon: f64,
    ell: f64,
    max_rr_sets: Option<u64>,
    use_plus: bool,
    eval_iterations: usize,
    threads: usize,
    selector: SelectorKind,
    with_greedy_candidate: Option<GreedyConfig>,
}

impl<'g> SelfInfMax<'g> {
    /// New solver for graph `g`, GAPs `gap`, and the fixed B-seed set.
    pub fn new(g: &'g DiGraph, gap: Gap, seeds_b: Vec<NodeId>) -> Self {
        SelfInfMax {
            g,
            gap,
            seeds_b,
            epsilon: 0.5,
            ell: 1.0,
            max_rr_sets: None,
            use_plus: true,
            eval_iterations: 10_000,
            threads: 0,
            selector: SelectorKind::default(),
            with_greedy_candidate: None,
        }
    }

    /// Set ε (default 0.5, the paper's choice).
    pub fn epsilon(mut self, epsilon: f64) -> Self {
        self.epsilon = epsilon;
        self
    }

    /// Set ℓ (default 1: success probability `1 − 1/n`).
    pub fn ell(mut self, ell: f64) -> Self {
        self.ell = ell;
        self
    }

    /// Cap θ (forfeits the approximation guarantee when hit).
    pub fn max_rr_sets(mut self, cap: u64) -> Self {
        self.max_rr_sets = Some(cap);
        self
    }

    /// Choose RR-SIM (`false`) instead of the default RR-SIM+ (`true`).
    pub fn use_rr_sim_plus(mut self, yes: bool) -> Self {
        self.use_plus = yes;
        self
    }

    /// Monte-Carlo iterations for candidate evaluation (default 10,000).
    pub fn eval_iterations(mut self, iters: usize) -> Self {
        self.eval_iterations = iters;
        self
    }

    /// Worker threads for RR-set generation and MC evaluations
    /// (0 = all cores).
    pub fn threads(mut self, threads: usize) -> Self {
        self.threads = threads;
        self
    }

    /// Max-coverage strategy for the pipeline's selection phase (default
    /// CELF; selectors return identical seed sets, so this is a
    /// performance knob).
    pub fn selector(mut self, selector: SelectorKind) -> Self {
        self.selector = selector;
        self
    }

    /// Also run MC greedy on the true objective as a sandwich candidate
    /// `S_σ` (expensive; the paper does this for its Greedy+SA runs).
    pub fn with_greedy_candidate(mut self, cfg: GreedyConfig) -> Self {
        self.with_greedy_candidate = Some(cfg);
        self
    }

    fn tim_config(&self, k: usize, seed: u64, threads: usize) -> TimConfig {
        let mut cfg = TimConfig::new(k)
            .epsilon(self.epsilon)
            .seed(seed)
            .selector(self.selector);
        cfg.ell = self.ell;
        cfg.max_rr_sets = self.max_rr_sets;
        cfg.threads = threads;
        cfg
    }

    /// One pipeline run under `gap` with the configured RR-SIM(+) sampler,
    /// on `threads` workers.
    fn run_tim(
        &self,
        gap: Gap,
        k: usize,
        seed: u64,
        threads: usize,
    ) -> Result<TimResult, AlgoError> {
        let pipeline = RisPipeline::new(self.tim_config(k, seed, threads));
        if self.use_plus {
            Ok(pipeline.run(RrSimPlusSampler::factory(self.g, gap, &self.seeds_b)?)?)
        } else {
            Ok(pipeline.run(RrSimSampler::factory(self.g, gap, &self.seeds_b)?)?)
        }
    }

    /// MC estimate of `σ_A(seeds, S_B)` under an arbitrary GAP vector.
    fn sigma_a(&self, gap: Gap, seeds: &[NodeId], seed: u64) -> f64 {
        let sp = SeedPair::new(seeds.to_vec(), self.seeds_b.clone());
        SpreadEstimator::new(self.g, gap)
            .estimate_parallel(&sp, self.eval_iterations, seed, self.threads)
            .sigma_a
    }

    /// Solve for `k` A-seeds.
    ///
    /// * One-way complementarity (`q_{B|∅} = q_{B|A}`): direct GeneralTIM
    ///   with RR-SIM(+), Theorem 7.
    /// * General `Q⁺`: sandwich approximation over the ν/µ surrogates
    ///   (§6.4), optionally plus a greedy `S_σ` candidate.
    /// * Other regimes: unsupported (the paper's problems are posed on `Q⁺`).
    pub fn solve<R: Rng>(&self, k: usize, rng: &mut R) -> Result<Solution, AlgoError> {
        if self.gap.regime() != Regime::MutualComplement {
            return Err(AlgoError::UnsupportedRegime(format!(
                "SelfInfMax is defined for mutual complementarity (Q+); got {}",
                self.gap
            )));
        }
        let seed: u64 = rng.random();

        if self.gap.is_one_way_complement() {
            let tim = self.run_tim(self.gap, k, seed, self.threads)?;
            let objective = self.sigma_a(self.gap, &tim.seeds, seed ^ 1);
            return Ok(Solution {
                seeds: tim.seeds.clone(),
                objective,
                strategy: Strategy::Direct,
                tim,
                sandwich: None,
            });
        }

        // Sandwich: ν raises q_{B|∅} to q_{B|A}; µ lowers q_{B|A} to q_{B|∅}.
        let nu_gap = self.gap.with_q_b0(self.gap.q_ba)?;
        let mu_gap = self.gap.with_q_ba(self.gap.q_b0)?;
        // The two pools are independent: build them at once, splitting the
        // thread budget. Pool bytes and KPT* do not depend on the thread
        // count, so neither does the solution.
        let (tim_nu, tim_mu) = join(
            self.threads,
            |threads| self.run_tim(nu_gap, k, seed, threads),
            |threads| self.run_tim(mu_gap, k, seed ^ 2, threads),
        );
        let (tim_nu, tim_mu) = (tim_nu?, tim_mu?);

        let mut candidates = vec![
            SandwichCandidate {
                name: "nu",
                objective: self.sigma_a(self.gap, &tim_nu.seeds, seed ^ 3),
                seeds: tim_nu.seeds.clone(),
            },
            SandwichCandidate {
                name: "mu",
                objective: self.sigma_a(self.gap, &tim_mu.seeds, seed ^ 3),
                seeds: tim_mu.seeds.clone(),
            },
        ];
        if let Some(gcfg) = &self.with_greedy_candidate {
            let gr = greedy_self_inf_max(self.g, self.gap, &self.seeds_b, k, gcfg);
            candidates.push(SandwichCandidate {
                name: "sigma",
                objective: self.sigma_a(self.gap, &gr.seeds, seed ^ 3),
                seeds: gr.seeds,
            });
        }
        // The observable factor σ(S_ν)/ν(S_ν) (Table 8).
        let nu_value = self.sigma_a(nu_gap, &tim_nu.seeds, seed ^ 4);
        let ratio = if nu_value > 0.0 {
            candidates[0].objective / nu_value
        } else {
            1.0
        };
        Ok(solve_sandwich(
            candidates,
            ratio,
            vec![("nu", tim_nu), ("mu", tim_mu)],
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use comic_core::seeds::seeds;
    use comic_graph::gen;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    #[test]
    fn rejects_non_q_plus() {
        let g = gen::path(5, 1.0);
        let gap = Gap::new(0.8, 0.2, 0.9, 0.3).unwrap();
        let mut rng = SmallRng::seed_from_u64(1);
        assert!(matches!(
            SelfInfMax::new(&g, gap, vec![]).solve(1, &mut rng),
            Err(AlgoError::UnsupportedRegime(_))
        ));
    }

    #[test]
    fn direct_route_on_one_way_gap() {
        let g = gen::star(60, 0.7);
        let gap = Gap::new(0.4, 0.9, 0.5, 0.5).unwrap();
        let mut rng = SmallRng::seed_from_u64(2);
        let sol = SelfInfMax::new(&g, gap, seeds(&[5]))
            .eval_iterations(2000)
            .threads(1)
            .solve(1, &mut rng)
            .unwrap();
        assert_eq!(sol.strategy, Strategy::Direct);
        assert!(sol.sandwich.is_none());
        assert_eq!(sol.seeds, vec![NodeId(0)]);
        assert!(sol.objective > 1.0);
    }

    #[test]
    fn sandwich_route_on_general_q_plus() {
        let mut grng = SmallRng::seed_from_u64(3);
        let topo = gen::gnm(80, 500, &mut grng).unwrap();
        let g = comic_graph::prob::ProbModel::WeightedCascade.apply(&topo, &mut grng);
        let gap = Gap::new(0.3, 0.8, 0.4, 0.9).unwrap(); // q_b0 < q_ba
        let mut rng = SmallRng::seed_from_u64(4);
        let sol = SelfInfMax::new(&g, gap, seeds(&[0, 1]))
            .eval_iterations(2000)
            .threads(1)
            .solve(3, &mut rng)
            .unwrap();
        assert_eq!(sol.strategy, Strategy::Sandwich);
        let report = sol.sandwich.as_ref().unwrap();
        assert_eq!(report.candidates.len(), 2);
        assert!(
            report.upper_bound_ratio > 0.0 && report.upper_bound_ratio <= 1.05,
            "ratio {}",
            report.upper_bound_ratio
        );
        assert_eq!(sol.seeds.len(), 3);
        // Winner's objective is the max across candidates.
        for c in &report.candidates {
            assert!(sol.objective >= c.objective - 1e-9);
        }
    }

    #[test]
    fn selector_choice_is_invisible_in_solutions() {
        // Both the RR-SIM and RR-SIM+ routes must pick byte-identical
        // seeds under CELF and the naive-greedy oracle for a fixed
        // (seed, threads) — the select-engine determinism contract
        // surfaced at the solver level.
        let mut grng = SmallRng::seed_from_u64(9);
        let topo = gen::gnm(100, 600, &mut grng).unwrap();
        let g = comic_graph::prob::ProbModel::WeightedCascade.apply(&topo, &mut grng);
        let gap = Gap::new(0.3, 0.8, 0.5, 0.5).unwrap(); // one-way: direct route
        for use_plus in [false, true] {
            let solve = |selector| {
                let mut rng = SmallRng::seed_from_u64(33);
                SelfInfMax::new(&g, gap, seeds(&[1, 2]))
                    .eval_iterations(500)
                    .threads(2)
                    .max_rr_sets(20_000)
                    .use_rr_sim_plus(use_plus)
                    .selector(selector)
                    .solve(4, &mut rng)
                    .unwrap()
            };
            let celf = solve(SelectorKind::Celf);
            let naive = solve(SelectorKind::NaiveGreedy);
            assert_eq!(celf.seeds, naive.seeds, "use_plus = {use_plus}");
            assert_eq!(celf.tim.covered, naive.tim.covered);
        }
    }

    #[test]
    fn beats_random_seeds() {
        let mut grng = SmallRng::seed_from_u64(5);
        let topo = gen::chung_lu(
            &gen::ChungLuConfig {
                n: 300,
                target_edges: 1800,
                exponent: 2.2,
            },
            &mut grng,
        )
        .unwrap();
        let g = comic_graph::prob::ProbModel::WeightedCascade.apply(&topo, &mut grng);
        let gap = Gap::new(0.3, 0.8, 0.5, 0.5).unwrap();
        let b_seeds = seeds(&[10, 11, 12]);
        let mut rng = SmallRng::seed_from_u64(6);
        let sol = SelfInfMax::new(&g, gap, b_seeds.clone())
            .eval_iterations(4000)
            .threads(1)
            .solve(5, &mut rng)
            .unwrap();
        let est = SpreadEstimator::new(&g, gap);
        let random = SeedPair::new(seeds(&[100, 101, 102, 103, 104]), b_seeds);
        let random_sigma = est.estimate(&random, 4000, 7).sigma_a;
        assert!(
            sol.objective > random_sigma,
            "TIM {} vs random {random_sigma}",
            sol.objective
        );
    }
}
