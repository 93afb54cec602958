//! Sharded, multi-threaded RR-set generation.
//!
//! θ routinely reaches millions of RR-sets in GeneralTIM (Algorithm 1), and
//! every sample is independent — the generation loop is embarrassingly
//! parallel. [`ShardedGenerator`] splits a batch into one contiguous index
//! range per worker thread; each worker owns a *private* sampler instance
//! (built by a caller-supplied factory, so no `&mut` sharing and no locks),
//! fills a thread-local [`RrStore`], and the shards are merged in index
//! order with the offset-rebasing [`RrStore::absorb`].
//!
//! # Determinism contract
//!
//! Set `i` of a batch draws from its own RNG stream, seeded by
//! `set_seed(seed, i)` — a pure function of the generator's anchor
//! seed and the set's index in the final store. Which worker sampled the
//! set, and what that worker sampled before it, never enter. The merged
//! store is therefore **byte-identical for every thread count**,
//! independent of scheduling or machine: `threads` only decides how the
//! index range is split among workers, a pure latency knob. The same
//! keying lets [`ShardedGenerator::regenerate_marked`] resample any subset
//! of a store in isolation.
//!
//! Both entry points — [`ShardedGenerator::generate`] (KPT* rounds and
//! pool builds) and [`ShardedGenerator::regenerate_marked`] (delta
//! refits) — run the one private sampling loop below. Sampling builds no
//! coverage index: callers index the finished store with
//! [`crate::select::CoverageIndex::build`].

use crate::rr::{RrStore, MAX_PREALLOC_SETS};
use crate::sampler::RrSampler;
use comic_graph::fasthash::splitmix64;
use rand::rngs::SmallRng;
use rand::SeedableRng;

// The workspace-wide `threads` knob semantics now live at the bottom of the
// crate graph (`comic_graph::par`), shared with the learning layer and the
// parallel generators; this re-export keeps the long-standing RIS-side path
// working.
pub use comic_graph::par::resolve_threads;

/// The RNG seed of set `i` in a batch anchored at `seed`: each set owns an
/// independent, re-derivable stream, so any set can be (re)sampled without
/// replaying its predecessors and without knowing which worker drew it.
fn set_seed(seed: u64, i: u64) -> u64 {
    splitmix64(seed ^ splitmix64(i + 1))
}

/// Parallel RR-set generator over per-thread sampler instances.
///
/// # Example
/// ```
/// use comic_ris::ic_sampler::IcRrSampler;
/// use comic_ris::parallel::ShardedGenerator;
/// use comic_graph::gen;
///
/// let g = gen::star(100, 0.5);
/// let store = ShardedGenerator::new(|| IcRrSampler::new(&g), 7, 4).generate(1_000, 2);
/// assert_eq!(store.len(), 1_000);
/// // Same seed ⇒ byte-identical output, at any thread count.
/// assert_eq!(ShardedGenerator::new(|| IcRrSampler::new(&g), 7, 1).generate(1_000, 2), store);
/// ```
pub struct ShardedGenerator<F> {
    factory: F,
    seed: u64,
    threads: usize,
}

impl<S, F> ShardedGenerator<F>
where
    S: RrSampler,
    F: Fn() -> S + Sync,
{
    /// Create a generator; `factory` builds one sampler per worker thread
    /// (samplers own their scratch state, so they cannot be shared), `seed`
    /// anchors the per-set RNG streams, and `threads` follows
    /// [`resolve_threads`].
    pub fn new(factory: F, seed: u64, threads: usize) -> Self {
        ShardedGenerator {
            factory,
            seed,
            threads: resolve_threads(threads),
        }
    }

    /// The one sampling loop: positions `0..count` of a batch, split into
    /// one contiguous range per worker, where position `p` samples set
    /// `index(p)` from its `set_seed` stream. Returns the sets merged in
    /// position order; one worker runs inline on the calling thread.
    fn sample_batch<I>(&self, count: usize, index: I, avg_hint: usize) -> RrStore
    where
        I: Fn(usize) -> u64 + Sync,
    {
        let workers = self.threads.min(count).max(1);
        let (per, extra) = (count / workers, count % workers);
        let work = |w: usize| {
            let start = w * per + w.min(extra);
            let share = per + usize::from(w < extra);
            let mut sampler = (self.factory)();
            let mut store =
                RrStore::with_capacity(share.min(MAX_PREALLOC_SETS as usize), avg_hint.max(1));
            let mut out = Vec::new();
            for p in start..start + share {
                let mut rng = SmallRng::seed_from_u64(set_seed(self.seed, index(p)));
                let (_, width) = sampler.sample_random_with_width(&mut rng, &mut out);
                store.push_with_width(&out, width);
            }
            store
        };
        // One scoped thread per range, joined in order: running the ranges
        // through `comic_graph::par::run_sharded`'s shared cursor measured
        // ~1 MiB more peak RSS on the paper-solve benchmark (2-core host).
        let stores: Vec<RrStore> = if workers == 1 {
            vec![work(0)]
        } else {
            std::thread::scope(|scope| {
                let handles: Vec<_> = (0..workers)
                    .map(|w| {
                        let work = &work;
                        scope.spawn(move || work(w))
                    })
                    .collect();
                handles
                    .into_iter()
                    .map(|h| h.join().expect("RR-generation worker panicked"))
                    .collect()
            })
        };
        merge(stores, count, avg_hint)
    }

    /// Generate sets `0..count` with uniformly random roots, preallocating
    /// for an expected `avg_hint` members per set. Byte-identical for every
    /// thread count (see the module docs).
    pub fn generate(&self, count: u64, avg_hint: usize) -> RrStore {
        self.sample_batch(batch_len(count), |p| p as u64, avg_hint)
    }

    /// Resample exactly the sets flagged in `marks` against this
    /// generator's (new) graph, splicing the rest byte-for-byte from
    /// `store` — the incremental leg of a delta refresh.
    ///
    /// Set `i` is reseeded from `set_seed(seed, i)` directly, so when
    /// this generator's `seed` is the one `store` was generated with, the
    /// result is **identical to a from-scratch
    /// [`ShardedGenerator::generate`] on the new graph** — provided
    /// `marks` covers every set whose replay the graph change affects (the
    /// [`crate::pool::SketchPool::invalidate`] contract). Marking every set
    /// is that from-scratch generation.
    pub fn regenerate_marked(&self, store: &RrStore, marks: &[bool], avg_hint: usize) -> RrStore {
        assert_eq!(marks.len(), store.len(), "marks must cover the store");
        let marked: Vec<u64> = (0..marks.len())
            .filter(|&i| marks[i])
            .map(|i| i as u64)
            .collect();
        let fresh = self.sample_batch(marked.len(), |p| marked[p], avg_hint);
        let mut spliced = RrStore::with_capacity(store.len(), avg_hint.max(1));
        let mut next = 0usize;
        for (i, &dirty) in marks.iter().enumerate() {
            if dirty {
                spliced.push_with_width(fresh.set(next), fresh.width(next));
                next += 1;
            } else {
                spliced.push_with_width(store.set(i), store.width(i));
            }
        }
        spliced
    }
}

/// A batch size as an in-memory set count.
fn batch_len(count: u64) -> usize {
    usize::try_from(count).expect("RR batch size exceeds the address space")
}

/// Absorb worker stores, in order, into one store sized for `count` sets.
fn merge(mut stores: Vec<RrStore>, count: usize, avg_hint: usize) -> RrStore {
    if stores.len() == 1 {
        return stores.pop().expect("one store");
    }
    let mut merged = RrStore::with_capacity(count.min(MAX_PREALLOC_SETS as usize), avg_hint.max(1));
    for store in stores {
        merged.absorb(store);
    }
    merged
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ic_sampler::IcRrSampler;
    use comic_graph::gen;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    fn test_graph() -> comic_graph::DiGraph {
        let mut grng = SmallRng::seed_from_u64(1);
        let g = gen::gnm(120, 700, &mut grng).unwrap();
        comic_graph::prob::ProbModel::Constant(0.2).apply(&g, &mut grng)
    }

    #[test]
    fn every_thread_count_gives_the_same_bytes() {
        let g = test_graph();
        let base = ShardedGenerator::new(|| IcRrSampler::new(&g), 42, 1).generate(997, 4);
        assert_eq!(base.len(), 997);
        for threads in [2, 3, 8] {
            let store =
                ShardedGenerator::new(|| IcRrSampler::new(&g), 42, threads).generate(997, 4);
            assert_eq!(store, base, "threads = {threads}");
        }
        // A longer batch extends a shorter one: set i depends on i alone.
        let longer = ShardedGenerator::new(|| IcRrSampler::new(&g), 42, 3).generate(1_200, 4);
        assert_eq!(longer.prefix(997), base);
    }

    #[test]
    fn uneven_split_covers_every_sample() {
        let g = test_graph();
        // 10 samples over 4 threads: shares 3/3/2/2.
        let store = ShardedGenerator::new(|| IcRrSampler::new(&g), 5, 4).generate(10, 4);
        assert_eq!(store.len(), 10);
        // More threads than samples is clamped, not a panic.
        let store = ShardedGenerator::new(|| IcRrSampler::new(&g), 5, 16).generate(3, 4);
        assert_eq!(store.len(), 3);
        // Zero samples is an empty store.
        let store = ShardedGenerator::new(|| IcRrSampler::new(&g), 5, 4).generate(0, 4);
        assert!(store.is_empty());
    }

    #[test]
    fn widths_match_a_recomputation_from_the_graph() {
        let g = test_graph();
        let store = ShardedGenerator::new(|| IcRrSampler::new(&g), 13, 3).generate(500, 4);
        for i in 0..store.len() {
            let expect: u64 = store.set(i).iter().map(|&v| g.in_degree(v) as u64).sum();
            assert_eq!(store.width(i), expect, "set {i}");
        }
    }

    #[test]
    fn regenerate_marked_equals_from_scratch_on_the_delta_graph() {
        use comic_graph::delta::EdgeDelta;
        let g = test_graph();
        let seed = 77u64;
        let store = ShardedGenerator::new(|| IcRrSampler::new(&g), seed, 3).generate(600, 4);

        // Remove one existing edge and reweight another.
        let mut picks = Vec::new();
        for v in g.nodes() {
            let (srcs, _) = g.in_sources_probs(v);
            if let Some(&w) = srcs.first() {
                picks.push((w, v));
                if picks.len() == 2 {
                    break;
                }
            }
        }
        let deltas = vec![
            EdgeDelta::Remove {
                source: picks[0].0,
                target: picks[0].1,
            },
            EdgeDelta::Reweight {
                source: picks[1].0,
                target: picks[1].1,
                p: 0.9,
            },
        ];
        let g2 = g.apply_deltas(&deltas).unwrap();

        // Exact dirty marks: an IC replay only changes if the set visited a
        // target whose in-run changed.
        let targets = [picks[0].1, picks[1].1];
        let marks: Vec<bool> = (0..store.len())
            .map(|i| store.set(i).iter().any(|v| targets.contains(v)))
            .collect();
        assert!(marks.iter().any(|&m| m), "fixture must dirty some sets");
        assert!(!marks.iter().all(|&m| m), "fixture must keep some sets");

        let scratch = ShardedGenerator::new(|| IcRrSampler::new(&g2), seed, 2).generate(600, 4);
        // Regeneration concurrency is a free knob: the spliced output is
        // identical at every worker count and equals the from-scratch run.
        for regen_threads in [1, 2, 8] {
            let rstore = ShardedGenerator::new(|| IcRrSampler::new(&g2), seed, regen_threads)
                .regenerate_marked(&store, &marks, 4);
            assert_eq!(rstore, scratch, "regen threads {regen_threads}");
        }
        // Unmarked sets were spliced byte-for-byte.
        let rstore = ShardedGenerator::new(|| IcRrSampler::new(&g2), seed, 2)
            .regenerate_marked(&store, &marks, 4);
        for (i, &dirty) in marks.iter().enumerate() {
            if !dirty {
                assert_eq!(rstore.set(i), store.set(i), "unmarked set {i} changed");
                assert_eq!(rstore.width(i), store.width(i));
            }
        }
    }
}
