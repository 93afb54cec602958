//! KPT* estimation — TIM's Algorithm 2 generalized to arbitrary RR-sets.
//!
//! GeneralTIM needs a lower bound `LB ≤ OPT_k` to size θ (Equation 3 of the
//! paper). TIM estimates one by measuring random RR-sets: for a set `R`,
//! `κ(R) = 1 − (1 − ω(R)/m)^k` is an unbiased estimate of the probability
//! that a *random* k-seed-set (drawn by picking k edges) covers `R`, whose
//! expectation times `n` lower-bounds `OPT_k` within a constant factor. The
//! estimator doubles its sample budget geometrically until the measured mean
//! clears the `2^{-i}` threshold — as in TIM, the paper's analysis only
//! relies on the activation-equivalence property, so the identical procedure
//! applies to RR-SIM / RR-CIM sets.

use crate::parallel::{resolve_threads, ShardedGenerator};
use crate::sampler::RrSampler;

/// Outcome of the KPT* estimation.
#[derive(Clone, Copy, Debug)]
pub struct KptEstimate {
    /// The lower-bound estimate of `OPT_k` (≥ 1; the paper's experiments
    /// treat `k ≥ KPT* ≥ 1` as the degenerate fallback).
    pub kpt: f64,
    /// RR-sets sampled during estimation.
    pub samples: u64,
    /// Total members across the sampled sets (for EPT accounting).
    pub total_members: u64,
}

impl KptEstimate {
    /// The degenerate floor: no round cleared its threshold (or the graph
    /// cannot support estimation at all).
    fn floor(samples: u64, total_members: u64) -> KptEstimate {
        KptEstimate {
            kpt: 1.0,
            samples,
            total_members,
        }
    }
}

/// The geometric round schedule of TIM's Algorithm 2.
struct RoundPlan {
    nf: f64,
    mf: f64,
    k: usize,
    ell: f64,
    rounds: i64,
}

impl RoundPlan {
    /// `None` means the graph is too degenerate to estimate on (the caller
    /// returns the floor immediately).
    fn new(n: usize, m: usize, k: usize, ell: f64) -> Option<RoundPlan> {
        if n < 2 || m == 0 {
            return None;
        }
        let nf = n as f64;
        Some(RoundPlan {
            nf,
            mf: m as f64,
            k,
            ell,
            rounds: (nf.log2() as i64 - 1).max(1),
        })
    }

    /// Sample budget `c_i` of round `i`.
    fn budget(&self, i: i64) -> u64 {
        let log2n = self.nf.log2();
        ((6.0 * self.ell * self.nf.ln() + 6.0 * log2n.ln().max(1.0)) * 2f64.powi(i as i32))
            .ceil()
            .max(1.0) as u64
    }

    /// `κ(R) = 1 − (1 − ω(R)/m)^k` for one RR-set of width `width`.
    fn kappa(&self, width: u64) -> f64 {
        1.0 - (1.0 - width as f64 / self.mf).powi(self.k as i32)
    }

    /// If round `i`'s κ-sum clears the `2^{-i}` threshold, the final
    /// estimate `n · Σκ / (2 c_i)` (floored at 1).
    fn verdict(&self, i: i64, sum: f64, c_i: u64) -> Option<f64> {
        if sum / c_i as f64 > 1.0 / 2f64.powi(i as i32) {
            Some((self.nf * sum / (2.0 * c_i as f64)).max(1.0))
        } else {
            None
        }
    }
}

/// Workers below this per-shard sample share cost more in sampler
/// construction (each worker builds a fresh instance: O(n + m) scans and
/// n-sized scratch tables) than they save, so early rounds clamp their
/// thread count. Worker counts never change the sampled sets.
const MIN_SAMPLES_PER_SHARD: u64 = 512;

/// Estimate `KPT*` for budget `k` over per-thread sampler instances (TIM
/// Algorithm 2). `ell` is the confidence exponent (failure probability
/// `n^{-ell}`).
///
/// Each geometric round generates its `c_i` RR-sets through a
/// [`ShardedGenerator`] anchored at a round-distinct seed derived from
/// `seed`, then folds `κ` over the merged store in set order — so the
/// estimate is a function of `seed` alone, identical for every thread
/// count. `threads` follows the [`crate::parallel`] convention (`0` = all
/// cores).
pub fn kpt_star_with<S, F>(factory: F, k: usize, ell: f64, seed: u64, threads: usize) -> KptEstimate
where
    S: RrSampler,
    F: Fn() -> S + Sync,
{
    let (n, m) = {
        let probe = factory();
        (probe.graph().num_nodes(), probe.graph().num_edges())
    };
    kpt_star_with_dims(factory, k, ell, seed, threads, n, m)
}

/// [`kpt_star_with`] for callers that already know the graph dimensions
/// (GeneralTIM probes the factory once for validation and passes them on,
/// avoiding a second throwaway sampler construction).
pub(crate) fn kpt_star_with_dims<S, F>(
    factory: F,
    k: usize,
    ell: f64,
    seed: u64,
    threads: usize,
    n: usize,
    m: usize,
) -> KptEstimate
where
    S: RrSampler,
    F: Fn() -> S + Sync,
{
    let Some(plan) = RoundPlan::new(n, m, k, ell) else {
        return KptEstimate::floor(0, 0);
    };
    let threads = resolve_threads(threads);
    let mut samples: u64 = 0;
    let mut total_members: u64 = 0;
    for i in 1..=plan.rounds {
        let c_i = plan.budget(i);
        let avg = (total_members / samples.max(1)).max(1) as usize;
        let round_seed = comic_graph::fasthash::splitmix64(seed ^ (0x6b70_7400 + i as u64));
        let round_threads = threads.min((c_i / MIN_SAMPLES_PER_SHARD).max(1) as usize);
        let store = ShardedGenerator::new(&factory, round_seed, round_threads).generate(c_i, avg);
        samples += store.len() as u64;
        total_members += store.total_members();
        let mut sum = 0.0f64;
        for j in 0..store.len() {
            sum += plan.kappa(store.width(j));
        }
        if let Some(kpt) = plan.verdict(i, sum, c_i) {
            return KptEstimate {
                kpt,
                samples,
                total_members,
            };
        }
    }
    KptEstimate::floor(samples, total_members)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ic_sampler::IcRrSampler;
    use comic_core::ic::ic_spread;
    use comic_core::seeds::seeds;
    use comic_graph::gen;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    #[test]
    fn kpt_lower_bounds_opt_on_star() {
        // Star with certain edges: OPT_1 = spread of the hub = n.
        let g = gen::star(200, 1.0);
        let est = kpt_star_with(|| IcRrSampler::new(&g), 1, 1.0, 1, 1);
        let opt = 200.0;
        // Correctness of GeneralTIM only needs KPT* ≤ OPT (θ = λ/LB then
        // oversamples). The hub star is TIM's adversarial case for the
        // estimator: κ measures the spread of *random edge targets* (leaves,
        // spread 1), so KPT* legitimately collapses to its floor of 1 here —
        // trading run time (huge θ), never correctness.
        assert!(est.kpt <= opt * 1.05, "kpt {} exceeds OPT {opt}", est.kpt);
        assert!(est.kpt >= 1.0);
        assert!(est.samples > 0);
    }

    #[test]
    fn kpt_reasonable_on_random_graph() {
        let mut grng = SmallRng::seed_from_u64(2);
        let g = gen::gnm(300, 1500, &mut grng).unwrap();
        let g = comic_graph::prob::ProbModel::WeightedCascade.apply(&g, &mut grng);
        let k = 5;
        let est = kpt_star_with(|| IcRrSampler::new(&g), k, 1.0, 3, 1);
        // Compare against the spread of a decent heuristic k-set (high degree):
        // KPT* must not exceed OPT, and a high-degree set lower-bounds OPT.
        let mut by_deg: Vec<u32> = (0..300).collect();
        by_deg.sort_by_key(|&v| std::cmp::Reverse(g.out_degree(comic_graph::NodeId(v))));
        let hd: Vec<u32> = by_deg[..k].to_vec();
        let mut rng = SmallRng::seed_from_u64(3);
        let hd_spread = ic_spread(&g, &seeds(&hd), 20_000, &mut rng);
        // OPT >= hd_spread, and kpt <= OPT. We can't observe OPT directly, so
        // check kpt is within a generous window around the heuristic spread.
        assert!(
            est.kpt <= hd_spread * 2.0,
            "kpt {} vs high-degree spread {hd_spread}",
            est.kpt
        );
        assert!(est.kpt >= 1.0);
    }

    #[test]
    fn degenerate_graphs_return_floor() {
        let g = gen::path(1, 1.0);
        let est = kpt_star_with(|| IcRrSampler::new(&g), 1, 1.0, 4, 2);
        assert_eq!(est.kpt, 1.0);
        assert_eq!(est.samples, 0);
    }

    #[test]
    fn kpt_star_with_is_identical_across_thread_counts() {
        let mut grng = SmallRng::seed_from_u64(5);
        let g = gen::gnm(300, 1500, &mut grng).unwrap();
        let g = comic_graph::prob::ProbModel::WeightedCascade.apply(&g, &mut grng);
        let k = 5;
        let base = kpt_star_with(|| IcRrSampler::new(&g), k, 1.0, 99, 1);
        assert!(base.samples > 0);
        for threads in [2, 3, 4, 7] {
            let est = kpt_star_with(|| IcRrSampler::new(&g), k, 1.0, 99, threads);
            assert_eq!(
                (est.kpt.to_bits(), est.samples, est.total_members),
                (base.kpt.to_bits(), base.samples, base.total_members),
                "threads = {threads}"
            );
        }
    }
}
