//! Monte-Carlo estimation of the expected spreads `σ_A` and `σ_B`.
//!
//! Computing `σ_A(S_A, S_B)` exactly is #P-hard (paper §4), so everything in
//! the experiment harness evaluates seed sets by simulation — the paper uses
//! 10,000 iterations for its quality tables. Estimation is embarrassingly
//! parallel; [`SpreadEstimator::estimate_parallel`] shards iterations over
//! `std::thread::scope` with independently-seeded RNG streams so results are
//! reproducible for a fixed `(seed, threads)` pair.

use crate::gap::Gap;
use crate::oracle::CoinOracle;
use crate::seeds::SeedPair;
use crate::simulate::CascadeEngine;
use comic_graph::fasthash::splitmix64;
use comic_graph::par::resolve_threads;
use comic_graph::DiGraph;
use rand::rngs::SmallRng;
use rand::SeedableRng;

/// A Monte-Carlo estimate of both spreads, with enough accumulated moments
/// to report standard errors.
#[derive(Clone, Copy, Debug)]
pub struct SpreadEstimate {
    /// Estimated `σ_A` (expected number of A-adopted nodes).
    pub sigma_a: f64,
    /// Estimated `σ_B`.
    pub sigma_b: f64,
    /// Sample variance of the per-run A-adoption count.
    pub var_a: f64,
    /// Sample variance of the per-run B-adoption count.
    pub var_b: f64,
    /// Number of Monte-Carlo iterations.
    pub iterations: usize,
}

impl SpreadEstimate {
    /// Standard error of [`SpreadEstimate::sigma_a`].
    pub fn stderr_a(&self) -> f64 {
        (self.var_a / self.iterations as f64).sqrt()
    }

    /// Standard error of [`SpreadEstimate::sigma_b`].
    pub fn stderr_b(&self) -> f64 {
        (self.var_b / self.iterations as f64).sqrt()
    }

    fn from_sums(sum_a: f64, sum_b: f64, sumsq_a: f64, sumsq_b: f64, n: usize) -> SpreadEstimate {
        let nf = n as f64;
        let mean_a = sum_a / nf;
        let mean_b = sum_b / nf;
        let var = |sumsq: f64, mean: f64| {
            if n > 1 {
                ((sumsq - nf * mean * mean) / (nf - 1.0)).max(0.0)
            } else {
                0.0
            }
        };
        SpreadEstimate {
            sigma_a: mean_a,
            sigma_b: mean_b,
            var_a: var(sumsq_a, mean_a),
            var_b: var(sumsq_b, mean_b),
            iterations: n,
        }
    }
}

/// Monte-Carlo spread estimator for a fixed graph and GAP vector.
///
/// # Example
/// ```
/// use comic_core::{Gap, SeedPair, SpreadEstimator};
/// use comic_core::seeds::seeds;
/// use comic_graph::gen;
///
/// let g = gen::path(4, 1.0);
/// let gap = Gap::new(0.5, 0.5, 0.0, 0.0).unwrap();
/// let est = SpreadEstimator::new(&g, gap)
///     .estimate(&SeedPair::a_only(seeds(&[0])), 20_000, 42);
/// // σ_A = 1 + 0.5 + 0.25 + 0.125 = 1.875 on a certain path with q=0.5.
/// assert!((est.sigma_a - 1.875).abs() < 0.05);
/// ```
pub struct SpreadEstimator<'g> {
    g: &'g DiGraph,
    gap: Gap,
}

impl<'g> SpreadEstimator<'g> {
    /// Create an estimator.
    pub fn new(g: &'g DiGraph, gap: Gap) -> Self {
        SpreadEstimator { g, gap }
    }

    /// The GAP vector in use.
    pub fn gap(&self) -> Gap {
        self.gap
    }

    /// Sequential estimation with `iterations` Monte-Carlo runs.
    pub fn estimate(&self, seeds: &SeedPair, iterations: usize, seed: u64) -> SpreadEstimate {
        self.estimate_parallel(seeds, iterations, seed, 1)
    }

    /// Parallel estimation across `threads` worker threads (`0` = use
    /// [`std::thread::available_parallelism`]).
    ///
    /// Iterations are split evenly; thread `i` uses RNG stream
    /// `seed ⊕ splitmix(i)`, so results are reproducible for a fixed
    /// `(seed, threads)` configuration. One thread, or fewer than two
    /// iterations per thread, runs a single shard on stream `seed`.
    pub fn estimate_parallel(
        &self,
        seeds: &SeedPair,
        iterations: usize,
        seed: u64,
        threads: usize,
    ) -> SpreadEstimate {
        assert!(iterations > 0, "need at least one iteration");
        let threads = resolve_threads(threads);
        if threads <= 1 || iterations < 2 * threads {
            let (sa, sb, qa, qb) = self.shard(seeds, iterations, seed);
            return SpreadEstimate::from_sums(sa, sb, qa, qb, iterations);
        }
        let per = iterations / threads;
        let extra = iterations % threads;
        let partials = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..threads)
                .map(|tid| {
                    let iters = per + usize::from(tid < extra);
                    let stream = seed ^ splitmix64(tid as u64 + 1);
                    scope.spawn(move || self.shard(seeds, iters, stream))
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("spread worker panicked"))
                .collect::<Vec<_>>()
        });
        // Summed in thread order, so the bits depend only on (seed, threads).
        let (mut sa, mut sb, mut qa, mut qb) = (0.0, 0.0, 0.0, 0.0);
        for (a, b, x, y) in partials {
            sa += a;
            sb += b;
            qa += x;
            qb += y;
        }
        SpreadEstimate::from_sums(sa, sb, qa, qb, iterations)
    }

    /// One shard: `iterations` cascades on RNG stream `stream`, returning
    /// the sums and sums of squares of both adoption counts.
    fn shard(&self, seeds: &SeedPair, iterations: usize, stream: u64) -> (f64, f64, f64, f64) {
        let mut engine = CascadeEngine::new(self.g);
        let mut oracle = CoinOracle::new(self.g.num_edges(), SmallRng::seed_from_u64(stream));
        let (mut sa, mut sb, mut qa, mut qb) = (0.0f64, 0.0f64, 0.0f64, 0.0f64);
        for _ in 0..iterations {
            let stats = engine.run(&self.gap, seeds, &mut oracle);
            let (a, b) = (stats.a_count as f64, stats.b_count as f64);
            sa += a;
            sb += b;
            qa += a * a;
            qb += b * b;
        }
        (sa, sb, qa, qb)
    }

    /// Estimate of the *boost* objective of CompInfMax:
    /// `σ_A(S_A, S_B) − σ_A(S_A, ∅)` (paper Problem 2), both terms estimated
    /// with the same iteration budget.
    pub fn estimate_boost(
        &self,
        seeds: &SeedPair,
        iterations: usize,
        seed: u64,
        threads: usize,
    ) -> f64 {
        let with_b = self.estimate_parallel(seeds, iterations, seed, threads);
        let baseline = SeedPair {
            a: seeds.a.clone(),
            b: Vec::new(),
        };
        let without_b = self.estimate_parallel(&baseline, iterations, seed, threads);
        with_b.sigma_a - without_b.sigma_a
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::seeds::seeds;
    use comic_graph::gen;

    #[test]
    fn deterministic_for_fixed_seed() {
        let g = gen::star(50, 0.3);
        let gap = Gap::new(0.7, 0.9, 0.5, 0.8).unwrap();
        let est = SpreadEstimator::new(&g, gap);
        let sp = SeedPair::new(seeds(&[0]), seeds(&[1]));
        let e1 = est.estimate(&sp, 500, 7);
        let e2 = est.estimate(&sp, 500, 7);
        assert_eq!(e1.sigma_a, e2.sigma_a);
        assert_eq!(e1.sigma_b, e2.sigma_b);
    }

    #[test]
    fn star_spread_closed_form() {
        // Star with hub seed: σ_A = 1 + 49 * p * q_{A|∅}.
        let g = gen::star(50, 0.3);
        let gap = Gap::new(0.5, 0.5, 0.0, 0.0).unwrap();
        let est = SpreadEstimator::new(&g, gap).estimate(&SeedPair::a_only(seeds(&[0])), 40_000, 3);
        let expect = 1.0 + 49.0 * 0.3 * 0.5;
        assert!(
            (est.sigma_a - expect).abs() < 4.0 * est.stderr_a() + 1e-9,
            "got {} want {expect} (stderr {})",
            est.sigma_a,
            est.stderr_a()
        );
        assert_eq!(est.sigma_b, 0.0);
        assert_eq!(est.var_b, 0.0);
    }

    #[test]
    fn parallel_matches_sequential_in_expectation() {
        let g = gen::complete(20, 0.1);
        let gap = Gap::new(0.6, 0.9, 0.4, 0.7).unwrap();
        let est = SpreadEstimator::new(&g, gap);
        let sp = SeedPair::new(seeds(&[0, 1]), seeds(&[2]));
        let seq = est.estimate(&sp, 20_000, 11);
        let par = est.estimate_parallel(&sp, 20_000, 11, 4);
        assert_eq!(par.iterations, 20_000);
        let tol = 4.0 * (seq.stderr_a() + par.stderr_a());
        assert!(
            (seq.sigma_a - par.sigma_a).abs() < tol,
            "seq {} vs par {} (tol {tol})",
            seq.sigma_a,
            par.sigma_a
        );
    }

    #[test]
    fn boost_is_nonnegative_in_mutual_complement() {
        let g = gen::complete(15, 0.2);
        let gap = Gap::new(0.2, 0.9, 0.3, 0.9).unwrap();
        let est = SpreadEstimator::new(&g, gap);
        let sp = SeedPair::new(seeds(&[0]), seeds(&[1, 2]));
        let boost = est.estimate_boost(&sp, 20_000, 5, 2);
        assert!(boost > -0.5, "boost {boost} should be ≈ nonnegative (Q+)");
    }

    #[test]
    fn splitmix_streams_differ() {
        let a = splitmix64(1);
        let b = splitmix64(2);
        assert_ne!(a, b);
        assert_ne!(a, 1);
    }
}
