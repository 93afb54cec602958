//! The thread-count-invariance test harness: one enforced API for the
//! workspace's determinism contract.
//!
//! The workspace's parallel subsystems promise **thread-count
//! invariance**: the output is byte-identical for every worker count at a
//! fixed seed. This is the contract of the learning layer
//! (`comic_actionlog::{learn_influence, learn_gaps_with}`), the parallel
//! generators (`comic_graph::gen::par`), RR-set generation
//! (`comic_ris::parallel::ShardedGenerator`, whose per-set RNG streams are
//! keyed on each set's index — so pool bytes, KPT* estimates and
//! GeneralTIM results match at every thread count), and the
//! seed-selection engine (`comic_ris::select`: index builds, and CELF
//! over them). Checked by [`assert_thread_invariance`] /
//! [`check_thread_invariance`].
//!
//! Monte-Carlo spread estimation
//! (`comic_core::SpreadEstimator::estimate_parallel`) is the one exception:
//! its per-shard streams stay keyed on `(seed, threads)`, so its output is
//! reproducible for a fixed pair while different thread counts draw
//! different (equally distributed) samples.
//!
//! Before this module each crate hand-rolled ad-hoc versions of these
//! assertions; the harness turns them into one API so a new parallel code
//! path gets the whole matrix (threads ∈ {1, 2, 4, 7} by default,
//! overridable via `COMIC_TEST_THREADS=1,4` for CI's thread-matrix step)
//! with two lines of test code. The subject under test is any
//! `Fn(threads) -> T` with `T: Hash + PartialEq`; results are compared
//! both structurally and by Fx digest, and the digests are reported so a
//! violation message pinpoints the diverging thread count.

use comic_graph::fasthash::FxHasher;
use std::fmt;
use std::hash::{Hash, Hasher};

/// The default worker-count matrix: sequential, even splits, and a prime
/// that exercises uneven shard remainders.
pub const DEFAULT_THREAD_COUNTS: [usize; 4] = [1, 2, 4, 7];

/// The thread matrix in effect: `COMIC_TEST_THREADS` (a comma-separated
/// list, e.g. `1,4`) when set and parseable, [`DEFAULT_THREAD_COUNTS`]
/// otherwise. CI's thread-matrix step pins this so the same suite runs
/// under different matrices without recompiling.
pub fn thread_counts() -> Vec<usize> {
    match std::env::var("COMIC_TEST_THREADS") {
        Ok(raw) => parse_thread_counts(&raw),
        Err(_) => DEFAULT_THREAD_COUNTS.to_vec(),
    }
}

/// Parse a `COMIC_TEST_THREADS`-style matrix (`"1,4"`); an unparseable or
/// empty list falls back to [`DEFAULT_THREAD_COUNTS`]. Split out from
/// [`thread_counts`] so it is testable without mutating the process
/// environment (which would race parallel tests and strip CI's pin).
pub fn parse_thread_counts(raw: &str) -> Vec<usize> {
    let parsed: Vec<usize> = raw
        .split(',')
        .filter_map(|tok| tok.trim().parse().ok())
        .filter(|&t| t >= 1)
        .collect();
    if parsed.is_empty() {
        DEFAULT_THREAD_COUNTS.to_vec()
    } else {
        parsed
    }
}

/// Fx digest of any hashable value — the harness's comparison currency,
/// also handy for callers that want to log what a run produced.
pub fn digest<T: Hash + ?Sized>(value: &T) -> u64 {
    let mut h = FxHasher::default();
    value.hash(&mut h);
    h.finish()
}

/// A passed check: which thread counts ran and the digest each produced
/// (all equal, by construction, for the invariance check).
#[derive(Clone, Debug)]
pub struct InvarianceReport {
    /// Label the caller gave the subject under test.
    pub label: String,
    /// `(threads, digest)` per run, in matrix order.
    pub digests: Vec<(usize, u64)>,
}

/// A failed check: the first thread count whose result diverged from the
/// baseline.
#[derive(Clone, Debug)]
pub struct InvarianceViolation {
    /// Label the caller gave the subject under test.
    pub label: String,
    /// Thread count of the baseline run (first in the matrix).
    pub baseline_threads: usize,
    /// Digest of the baseline result.
    pub baseline_digest: u64,
    /// First diverging thread count.
    pub offender_threads: usize,
    /// Digest of the diverging result.
    pub offender_digest: u64,
}

impl fmt::Display for InvarianceViolation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}: threads={} produced {:#018x}, but threads={} produced {:#018x} — \
             output depends on the worker count",
            self.label,
            self.baseline_threads,
            self.baseline_digest,
            self.offender_threads,
            self.offender_digest
        )
    }
}

impl std::error::Error for InvarianceViolation {}

/// Run `subject` once per entry of `threads` and verify every result is
/// identical (structurally via `PartialEq` and by Fx digest) to the first.
///
/// Returns the per-thread digests on success, the first divergence
/// otherwise. [`assert_thread_invariance`] is the panicking wrapper tests
/// want.
pub fn check_thread_invariance<T, F>(
    label: &str,
    threads: &[usize],
    subject: F,
) -> Result<InvarianceReport, InvarianceViolation>
where
    T: Hash + PartialEq,
    F: Fn(usize) -> T,
{
    assert!(!threads.is_empty(), "empty thread matrix for {label}");
    let baseline = subject(threads[0]);
    let baseline_digest = digest(&baseline);
    let mut digests = vec![(threads[0], baseline_digest)];
    for &t in &threads[1..] {
        let run = subject(t);
        let d = digest(&run);
        if run != baseline || d != baseline_digest {
            return Err(InvarianceViolation {
                label: label.to_string(),
                baseline_threads: threads[0],
                baseline_digest,
                offender_threads: t,
                offender_digest: d,
            });
        }
        digests.push((t, d));
    }
    Ok(InvarianceReport {
        label: label.to_string(),
        digests,
    })
}

/// [`check_thread_invariance`] over the ambient [`thread_counts`] matrix,
/// panicking with the violation message on divergence.
pub fn assert_thread_invariance<T, F>(label: &str, subject: F) -> InvarianceReport
where
    T: Hash + PartialEq,
    F: Fn(usize) -> T,
{
    match check_thread_invariance(label, &thread_counts(), subject) {
        Ok(report) => report,
        Err(v) => panic!("thread-count invariance violated — {v}"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use comic_actionlog::synth::{synthesize_pair_log, SynthConfig};
    use comic_actionlog::{
        learn_gaps_with, learn_influence, GapLearnConfig, InfluenceLearnConfig, ItemId,
    };
    use comic_core::gap::Gap;
    use comic_graph::gen::{self, ParGen};
    use comic_graph::io::graph_digest;
    use comic_graph::prob::ProbModel;
    use comic_ris::ic_sampler::IcRrSampler;
    use comic_ris::kpt::kpt_star_with;
    use comic_ris::parallel::ShardedGenerator;
    use comic_ris::select::{CelfGreedy, CoverageIndex, SeedSelector};
    use comic_ris::tim::TimConfig;
    use comic_ris::{RisPipeline, RrSampler, RrStore};
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    fn test_graph(n: usize, m: usize, seed: u64) -> comic_graph::DiGraph {
        let mut rng = SmallRng::seed_from_u64(seed);
        let topo = gen::gnm(n, m, &mut rng).unwrap();
        ProbModel::Constant(0.3).apply(&topo, &mut rng)
    }

    #[test]
    fn harness_passes_an_invariant_subject_and_reports_digests() {
        let counts = thread_counts();
        let report = assert_thread_invariance("sum", |t| {
            // Thread count changes scheduling, not the value.
            comic_graph::par::run_sharded(10, t, |i| i as u64)
                .into_iter()
                .sum::<u64>()
        });
        assert_eq!(report.digests.len(), counts.len());
        assert!(report.digests.windows(2).all(|w| w[0].1 == w[1].1));
        assert_eq!(report.label, "sum");
    }

    #[test]
    fn harness_catches_a_thread_dependent_subject() {
        let err = check_thread_invariance("leaky", &[1, 2, 4], |t| t * 100)
            .expect_err("a thread-dependent result must be flagged");
        assert_eq!(err.baseline_threads, 1);
        assert_eq!(err.offender_threads, 2);
        let msg = err.to_string();
        assert!(msg.contains("leaky"), "{msg}");
        assert!(msg.contains("threads=2"), "{msg}");
    }

    #[test]
    fn env_override_shapes_the_matrix() {
        // The env var itself is CI's to set (and process-global, so tests
        // must not mutate it); the parser carries the whole contract.
        assert_eq!(parse_thread_counts("1, 3,9"), vec![1, 3, 9]);
        assert_eq!(parse_thread_counts("4"), vec![4]);
        assert_eq!(
            parse_thread_counts("garbage"),
            DEFAULT_THREAD_COUNTS.to_vec()
        );
        assert_eq!(parse_thread_counts(""), DEFAULT_THREAD_COUNTS.to_vec());
        // Zero workers is meaningless for a matrix entry and is dropped.
        assert_eq!(parse_thread_counts("0,2"), vec![2]);
    }

    /// Learning: `learn_influence` is thread-count invariant on a
    /// synthesized log (the tentpole contract, via the shared harness).
    #[test]
    fn influence_learning_is_thread_invariant() {
        let g = test_graph(80, 500, 3);
        let mut rng = SmallRng::seed_from_u64(4);
        let log = synthesize_pair_log(
            &g,
            Gap::classic_ic(),
            ItemId(0),
            ItemId(1),
            &SynthConfig {
                sessions: 60,
                seeds_per_item: 3,
                fresh_cohorts: false,
            },
            &mut rng,
        );
        assert_thread_invariance("learn_influence", |threads| {
            graph_digest(&learn_influence(
                &g,
                &log,
                &InfluenceLearnConfig {
                    tau: 100_000,
                    default_p: 0.01,
                    threads,
                },
            ))
        });
    }

    /// Learning: `learn_gaps_with` is thread-count invariant.
    #[test]
    fn gap_learning_is_thread_invariant() {
        let g = test_graph(60, 400, 5);
        let mut rng = SmallRng::seed_from_u64(6);
        let truth = Gap::new(0.5, 0.75, 0.5, 0.75).unwrap();
        let log = synthesize_pair_log(
            &g,
            truth,
            ItemId(0),
            ItemId(1),
            &SynthConfig {
                sessions: 150,
                seeds_per_item: 3,
                fresh_cohorts: true,
            },
            &mut rng,
        );
        assert_thread_invariance("learn_gaps", |threads| {
            let l = learn_gaps_with(&log, ItemId(0), ItemId(1), &GapLearnConfig { threads })
                .expect("synthetic log has every denominator");
            [
                l.q_a0.value.to_bits(),
                l.q_ab.value.to_bits(),
                l.q_b0.value.to_bits(),
                l.q_ba.value.to_bits(),
                l.q_a0.samples as u64,
                l.q_ab.samples as u64,
                l.q_b0.samples as u64,
                l.q_ba.samples as u64,
            ]
        });
    }

    /// Generation: every parallel generator through the harness.
    #[test]
    fn generators_are_thread_invariant() {
        assert_thread_invariance("gnp_par", |t| {
            graph_digest(&gen::gnp_par(1_500, 0.004, &ParGen::with_threads(11, t)).unwrap())
        });
        assert_thread_invariance("gnm_par", |t| {
            graph_digest(&gen::gnm_par(700, 4_000, &ParGen::with_threads(12, t)).unwrap())
        });
        assert_thread_invariance("chung_lu_par", |t| {
            let cfg = gen::ChungLuConfig {
                n: 1_000,
                target_edges: 5_000,
                exponent: 2.16,
            };
            graph_digest(&gen::chung_lu_par(&cfg, &ParGen::with_threads(13, t)).unwrap())
        });
        assert_thread_invariance("watts_strogatz_par", |t| {
            graph_digest(
                &gen::watts_strogatz_par(600, 3, 0.25, &ParGen::with_threads(14, t)).unwrap(),
            )
        });
        assert_thread_invariance("barabasi_albert_par", |t| {
            graph_digest(&gen::barabasi_albert_par(400, 3, &ParGen::with_threads(15, t)).unwrap())
        });
    }

    /// A store as hashable words: per set, its width, size and members.
    fn store_words(store: &RrStore) -> Vec<u64> {
        let mut acc = Vec::with_capacity(store.len() * 3 + store.total_members() as usize);
        for i in 0..store.len() {
            let set = store.set(i);
            acc.extend([store.width(i), set.len() as u64]);
            acc.extend(set.iter().map(|v| u64::from(v.0)));
        }
        acc
    }

    /// RR generation: every set draws from a stream keyed on its index, so
    /// the store is the same at every thread count.
    #[test]
    fn rr_generation_is_thread_invariant() {
        let g = test_graph(100, 600, 7);
        assert_thread_invariance("sharded_rr_generation", |threads| {
            store_words(
                &ShardedGenerator::new(|| IcRrSampler::new(&g), 21, threads).generate(400, 4),
            )
        });
    }

    /// The bytes of a pool from `RisPipeline::generate_pool` — its store,
    /// its resident coverage index and its KPT* estimate — at `threads`.
    fn pool_bytes<S, F>(factory: F, threads: usize) -> (Vec<u64>, CoverageIndex, u64)
    where
        S: RrSampler,
        F: Fn() -> S + Sync,
    {
        let cfg = TimConfig::new(4)
            .seed(31)
            .max_rr_sets(3_000)
            .threads(threads);
        let pool = RisPipeline::new(cfg)
            .generate_pool(factory)
            .expect("pool over the test graph");
        let index = pool.coverage_index();
        (
            store_words(pool.store()),
            (**index).clone(),
            pool.kpt().to_bits(),
        )
    }

    /// Pool builds under every sampler the service pools: the same bytes
    /// at every generation thread count.
    #[test]
    fn pool_bytes_are_thread_invariant_for_every_sampler() {
        let g = test_graph(150, 700, 16);
        let other: Vec<comic_graph::NodeId> = (0..3).map(comic_graph::NodeId).collect();
        let one_way = Gap::new(0.3, 0.8, 0.5, 0.5).unwrap();
        let mutual = Gap::new(0.3, 0.8, 0.5, 1.0).unwrap();
        assert_thread_invariance("pool_bytes/ic", |t| pool_bytes(|| IcRrSampler::new(&g), t));
        let sim = comic_algos::RrSimSampler::factory(&g, one_way, &other).unwrap();
        assert_thread_invariance("pool_bytes/rr_sim", |t| pool_bytes(&sim, t));
        let sim_plus = comic_algos::RrSimPlusSampler::factory(&g, one_way, &other).unwrap();
        assert_thread_invariance("pool_bytes/rr_sim_plus", |t| pool_bytes(&sim_plus, t));
        let cim = comic_algos::RrCimSampler::factory(&g, mutual, &other).unwrap();
        assert_thread_invariance("pool_bytes/rr_cim", |t| pool_bytes(&cim, t));
    }

    /// KPT* estimation: rounds large enough to shard still give the same
    /// estimate, sample count and member count at every thread count.
    #[test]
    fn kpt_estimate_is_thread_invariant() {
        let mut rng = SmallRng::seed_from_u64(18);
        let topo = gen::gnm(2_000, 8_000, &mut rng).unwrap();
        let g = ProbModel::WeightedCascade.apply(&topo, &mut rng);
        let report = assert_thread_invariance("kpt_star_with", |t| {
            let est = kpt_star_with(|| IcRrSampler::new(&g), 5, 1.0, 41, t);
            (est.kpt.to_bits(), est.samples, est.total_members)
        });
        let samples = kpt_star_with(|| IcRrSampler::new(&g), 5, 1.0, 41, 1).samples;
        assert!(
            samples > 4 * 512,
            "rounds must span several shards ({samples})"
        );
        assert!(!report.digests.is_empty());
    }

    /// The coverage-index build over a fixed store is byte-identical at
    /// every thread count in the matrix.
    #[test]
    fn coverage_index_build_is_thread_invariant() {
        let g = test_graph(120, 700, 9);
        let n = g.num_nodes();
        let store = ShardedGenerator::new(|| IcRrSampler::new(&g), 17, 1).generate(3_000, 4);
        let report = assert_thread_invariance("coverage_index_build", |t| {
            CoverageIndex::build(&store, n, t)
        });
        assert!(report.digests.windows(2).all(|w| w[0].1 == w[1].1));
    }

    /// Seed selection: given a fixed RR-set store, the index build and the
    /// CELF selection over it are fully thread-count invariant.
    #[test]
    fn seed_selection_is_thread_invariant() {
        let g = test_graph(120, 700, 8);
        let store = ShardedGenerator::new(|| IcRrSampler::new(&g), 9, 1).generate(3_000, 4);
        let n = g.num_nodes();
        assert_thread_invariance("coverage_index+celf", |threads| {
            let index = CoverageIndex::build(&store, n, threads);
            let sol = CelfGreedy.select(&index, &store, 10);
            let mut acc: Vec<u64> = sol.seeds.iter().map(|s| s.0 as u64).collect();
            acc.push(sol.covered);
            acc.extend(sol.marginals.iter().copied());
            acc
        });
    }
}
