//! GeneralTIM — Algorithm 1 of the paper.
//!
//! The orchestration lives in [`crate::pipeline::RisPipeline`]; this module
//! holds the configuration ([`TimConfig`]), the θ math of Equation (3), and
//! the classic entry point [`general_tim_with`].

use crate::error::RisError;
use crate::pipeline::RisPipeline;
use crate::sampler::RrSampler;
use crate::select::SelectorKind;
use comic_graph::NodeId;

/// Configuration for [`general_tim_with`].
#[derive(Clone, Debug)]
pub struct TimConfig {
    /// Seed budget `k`.
    pub k: usize,
    /// Approximation/efficiency trade-off ε (the paper uses 0.5 by default
    /// and shows spread is insensitive over `[0.1, 1.0]`, Figure 4).
    pub epsilon: f64,
    /// Confidence exponent ℓ: success probability at least `1 − n^{−ℓ}`.
    pub ell: f64,
    /// Optional cap on θ; when hit, the (1−1/e−ε) guarantee is forfeited and
    /// [`TimResult::capped`] is set. Intended for the experiment harness.
    pub max_rr_sets: Option<u64>,
    /// RNG seed for the whole pipeline.
    pub seed: u64,
    /// Worker threads for KPT\*, RR-set generation and the standalone
    /// coverage-index build (`0` = one per available core; default `1`).
    /// The selector itself runs on the calling thread. A pure latency
    /// knob: results are identical for every thread count at a fixed seed.
    pub threads: usize,
    /// Max-coverage strategy for the selection phase (default
    /// [`SelectorKind::Celf`]). Every selector returns identical seeds for
    /// the same sampled store — see the [`crate::select`] determinism
    /// contract — so this is purely a performance knob.
    pub selector: SelectorKind,
}

impl TimConfig {
    /// The paper's default configuration: `ε = 0.5`, `ℓ = 1`.
    pub fn new(k: usize) -> TimConfig {
        TimConfig {
            k,
            epsilon: 0.5,
            ell: 1.0,
            max_rr_sets: None,
            seed: 0x5eed,
            threads: 1,
            selector: SelectorKind::default(),
        }
    }

    /// Set ε.
    pub fn epsilon(mut self, epsilon: f64) -> Self {
        self.epsilon = epsilon;
        self
    }

    /// Set the RNG seed.
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Cap the number of RR-sets.
    pub fn max_rr_sets(mut self, cap: u64) -> Self {
        self.max_rr_sets = Some(cap);
        self
    }

    /// Set the worker-thread count (`0` = all cores).
    pub fn threads(mut self, threads: usize) -> Self {
        self.threads = threads;
        self
    }

    /// Choose the max-coverage selection strategy.
    pub fn selector(mut self, selector: SelectorKind) -> Self {
        self.selector = selector;
        self
    }

    pub(crate) fn validate(&self, n: usize) -> Result<(), RisError> {
        if self.k == 0 {
            return Err(RisError::InvalidConfig("k must be >= 1".into()));
        }
        if self.k > n {
            return Err(RisError::KTooLarge { k: self.k, n });
        }
        if self.epsilon <= 0.0 || !self.epsilon.is_finite() {
            return Err(RisError::InvalidConfig(format!(
                "epsilon must be positive, got {}",
                self.epsilon
            )));
        }
        if self.ell <= 0.0 || !self.ell.is_finite() {
            return Err(RisError::InvalidConfig(format!(
                "ell must be positive, got {}",
                self.ell
            )));
        }
        Ok(())
    }

    pub(crate) fn cap_theta(&self, mut theta_n: u64) -> (u64, bool) {
        let mut capped = false;
        if let Some(cap) = self.max_rr_sets {
            if theta_n > cap {
                theta_n = cap;
                capped = true;
            }
        }
        (theta_n, capped)
    }
}

/// Output of [`general_tim_with`].
#[derive(Clone, Debug)]
pub struct TimResult {
    /// Selected seeds, in greedy pick order.
    pub seeds: Vec<NodeId>,
    /// The θ actually used.
    pub theta: u64,
    /// The KPT* lower-bound estimate.
    pub kpt: f64,
    /// RR-sets covered by the selection.
    pub covered: u64,
    /// RIS estimate of the selection's spread: `n · covered / θ`.
    pub est_spread: f64,
    /// Whether θ was clamped by [`TimConfig::max_rr_sets`].
    pub capped: bool,
}

/// `ln C(n, k)` without overflow: `Σ_{i=1..k} ln((n−k+i)/i)`.
pub fn ln_choose(n: usize, k: usize) -> f64 {
    if k > n {
        return f64::NEG_INFINITY;
    }
    let k = k.min(n - k);
    (1..=k)
        .map(|i| (((n - k + i) as f64) / i as f64).ln())
        .sum()
}

/// The sample bound of Equation (3):
/// `θ = λ / LB` with `λ = (8 + 2ε) · n · (ℓ·ln n + ln C(n,k) + ln 2) / ε²`.
pub fn theta(n: usize, k: usize, epsilon: f64, ell: f64, lower_bound: f64) -> u64 {
    let nf = n as f64;
    let lambda = (8.0 + 2.0 * epsilon) * nf * (ell * nf.ln() + ln_choose(n, k) + 2f64.ln())
        / (epsilon * epsilon);
    (lambda / lower_bound.max(1.0)).ceil().max(1.0) as u64
}

/// Run GeneralTIM over any [`RrSampler`] (Algorithm 1), with sharded,
/// multi-threaded RR-set generation.
///
/// For samplers whose per-world activation indicator is monotone and
/// submodular (Lemmas 4–5 / Theorem 6), the result is a
/// `(1 − 1/e − ε)`-approximation with probability ≥ `1 − n^{−ℓ}`
/// (unless capped).
///
/// `factory` builds one sampler per worker thread (plus one probe on the
/// calling thread); both the KPT* rounds and the θ-loop generate their
/// RR-sets through a [`crate::parallel::ShardedGenerator`] honoring
/// [`TimConfig::threads`]. The output — selected seeds, θ, coverage — is
/// **bit-for-bit identical for every thread count at a fixed seed** (see
/// the [`crate::parallel`] module docs for the stream-derivation contract).
///
/// This is a thin wrapper over [`RisPipeline`], which exposes the stages
/// individually.
pub fn general_tim_with<S, F>(factory: F, cfg: &TimConfig) -> Result<TimResult, RisError>
where
    S: RrSampler,
    F: Fn() -> S + Sync,
{
    RisPipeline::new(cfg.clone()).run(factory)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ic_sampler::IcRrSampler;
    use comic_core::ic::ic_spread;
    use comic_graph::gen;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    #[test]
    fn ln_choose_matches_small_cases() {
        assert!((ln_choose(5, 2) - (10f64).ln()).abs() < 1e-12);
        assert!((ln_choose(10, 0) - 0.0).abs() < 1e-12);
        assert!((ln_choose(10, 10) - 0.0).abs() < 1e-12);
        assert!((ln_choose(52, 5) - (2_598_960f64).ln()).abs() < 1e-9);
        assert_eq!(ln_choose(3, 7), f64::NEG_INFINITY);
    }

    #[test]
    fn theta_scales_inversely_with_lower_bound() {
        let t1 = theta(1000, 10, 0.5, 1.0, 10.0);
        let t2 = theta(1000, 10, 0.5, 1.0, 100.0);
        assert!(t1 > t2);
        assert!((t1 as f64 / t2 as f64 - 10.0).abs() < 0.5);
        // Smaller epsilon = more samples.
        let t3 = theta(1000, 10, 0.1, 1.0, 10.0);
        assert!(t3 > t1);
    }

    #[test]
    fn config_validation() {
        let g = gen::path(5, 1.0);
        let tim = |cfg: TimConfig| general_tim_with(|| IcRrSampler::new(&g), &cfg);
        assert!(tim(TimConfig::new(0)).is_err());
        assert!(tim(TimConfig::new(9)).is_err());
        assert!(tim(TimConfig::new(2).epsilon(-1.0)).is_err());
    }

    #[test]
    fn finds_the_hub_of_a_star() {
        let g = gen::star(100, 1.0);
        for threads in [1, 0] {
            let cfg = TimConfig::new(1).threads(threads);
            let r = general_tim_with(|| IcRrSampler::new(&g), &cfg).unwrap();
            assert_eq!(r.seeds, vec![NodeId(0)]);
            assert!(!r.capped);
            assert!(
                (r.est_spread - 100.0).abs() < 10.0,
                "est_spread {}",
                r.est_spread
            );
        }
    }

    #[test]
    fn finds_both_hubs_of_two_stars() {
        // Hub 0 -> 1..=59, hub 60 -> 61..=99 (certain edges).
        let mut b = comic_graph::GraphBuilder::new(100);
        for v in 1..60 {
            b.add_edge(0, v, 1.0);
        }
        for v in 61..100 {
            b.add_edge(60, v, 1.0);
        }
        let g = b.build().unwrap();
        let r = general_tim_with(|| IcRrSampler::new(&g), &TimConfig::new(2)).unwrap();
        let mut seeds: Vec<u32> = r.seeds.iter().map(|v| v.0).collect();
        seeds.sort_unstable();
        assert_eq!(seeds, vec![0, 60]);
    }

    #[test]
    fn tim_seeds_beat_random_seeds_on_random_graph() {
        let mut grng = SmallRng::seed_from_u64(10);
        let g = gen::gnm(400, 2400, &mut grng).unwrap();
        let g = comic_graph::prob::ProbModel::WeightedCascade.apply(&g, &mut grng);
        let k = 5;
        let r = general_tim_with(|| IcRrSampler::new(&g), &TimConfig::new(k).seed(3)).unwrap();
        let mut rng = SmallRng::seed_from_u64(11);
        let tim_spread = ic_spread(&g, &r.seeds, 20_000, &mut rng);
        let random_seeds: Vec<NodeId> = (0..k as u32).map(NodeId).collect();
        let rnd_spread = ic_spread(&g, &random_seeds, 20_000, &mut rng);
        assert!(
            tim_spread > rnd_spread,
            "TIM {tim_spread} vs random {rnd_spread}"
        );
        // The RIS internal estimate should agree with forward MC.
        assert!(
            (r.est_spread - tim_spread).abs() / tim_spread < 0.15,
            "RIS estimate {} vs MC {tim_spread}",
            r.est_spread
        );
    }

    #[test]
    fn general_tim_with_is_identical_across_thread_counts() {
        let mut grng = SmallRng::seed_from_u64(20);
        let g = gen::gnm(300, 1800, &mut grng).unwrap();
        let g = comic_graph::prob::ProbModel::WeightedCascade.apply(&g, &mut grng);
        let run = |threads: usize| {
            let cfg = TimConfig::new(5)
                .seed(77)
                .max_rr_sets(40_000)
                .threads(threads);
            let r = general_tim_with(|| IcRrSampler::new(&g), &cfg).unwrap();
            (
                r.seeds,
                r.theta,
                r.kpt.to_bits(),
                r.covered,
                r.est_spread.to_bits(),
            )
        };
        let base = run(1);
        for threads in [1, 2, 3, 4, 7] {
            assert_eq!(run(threads), base, "threads = {threads}");
        }
    }

    #[test]
    fn cap_limits_theta() {
        let g = gen::star(50, 1.0);
        let cfg = TimConfig::new(1).max_rr_sets(100);
        let r = general_tim_with(|| IcRrSampler::new(&g), &cfg).unwrap();
        assert!(r.capped);
        assert_eq!(r.theta, 100);
        // Even capped, the hub of a certain star is unmissable.
        assert_eq!(r.seeds, vec![NodeId(0)]);
    }
}
