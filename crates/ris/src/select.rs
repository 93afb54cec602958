//! Seed selection over an [`RrStore`] — the greedy max-coverage phase of
//! GeneralTIM (Algorithm 1, lines 4–8), extracted into a reusable engine.
//!
//! The subsystem has three halves:
//!
//! * [`CoverageIndex`] — an inverted node→RR-set index in CSR layout
//!   (which sets contain each node, ascending by set id), built once over
//!   a finished store by [`CoverageIndex::build`]: workers count and
//!   locally index contiguous set ranges, then a node-partitioned gather
//!   concatenates their runs, with the same `std::thread::scope` +
//!   deterministic-merge pattern as [`crate::parallel::ShardedGenerator`].
//!   Pool builds, delta refits and prefix copies all index their store
//!   through it.
//! * [`SeedSelector`] — interchangeable max-coverage strategies sharing the
//!   index and reading nothing else: [`NaiveGreedy`], an exhaustive-rescan
//!   oracle, and [`CelfGreedy`], a single-threaded CELF lazy-greedy over a
//!   max-heap of upper-bound gains that recounts only the node it pops.
//!   Both count a node's marginal gain with the [`crate::simd`] gather
//!   kernel, scanning its run against a covered-set bitset.
//!
//! Both selectors take a **set cut** ([`SeedSelector::select_prefix`]): a
//! selection over the first `sets` sets reads the full index in place,
//! each node's ascending run cut with a binary search
//! ([`CoverageIndex::sets_below`], no search when the cut spans the
//! index), and counts and covers only ids below the cut. A budgeted query
//! therefore copies no sketches and builds no index, and answers exactly
//! what a selection over an index built for that prefix alone would.
//!
//! # Determinism contract
//!
//! Selection is **bit-for-bit deterministic and independent of thread
//! count and SIMD mode**: the index is an exact structure (a build at any
//! thread count produces byte-identical arrays), marginal gains are exact
//! integers, and ties are broken by the *smallest node id* among
//! maximum-gain candidates. Because the marginal coverage objective is
//! monotone and submodular, every key CELF holds (a node's full run
//! length, or an earlier recount) is an upper bound on the node's fresh
//! gain, so its lazy-forward rule selects exactly the same argmax
//! sequence as the exhaustive oracle, and **every selector, over an index
//! built at any thread count, in every SIMD mode, returns the identical
//! seed set** on the same store — the contract the cross-selector tests,
//! the SIMD ≡ scalar proptests, and the CI bench smoke enforce.

use crate::parallel::resolve_threads;
use crate::rr::RrStore;
use crate::simd::{self, SimdMode};
use comic_graph::store::Section;
use comic_graph::NodeId;
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// Result of a greedy coverage phase.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CoverageResult {
    /// The selected seeds in pick order.
    pub seeds: Vec<NodeId>,
    /// Number of RR-sets covered by the selection.
    pub covered: u64,
    /// Marginal number of sets newly covered by each successive pick.
    pub marginals: Vec<u64>,
}

/// Inverted node→RR-set index in CSR layout.
///
/// For each node, the ids of the sets containing it, ascending. One flat
/// `u32` array plus an offsets table — the same storage idea as
/// [`RrStore`] itself, pointing the other way.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub struct CoverageIndex {
    num_nodes: usize,
    num_sets: usize,
    offsets: Section<u64>,
    sets: Section<u32>,
}

impl CoverageIndex {
    /// Build the index over `store` for node universe `0..n`, fanning the
    /// scan out over `threads` workers (`0` = one per core) — the one
    /// index builder: pool builds, delta refits and prefix copies all run
    /// it over their finished store.
    ///
    /// Each worker counts and locally indexes a contiguous range of sets;
    /// one range is the whole index. With more, a gather copies every
    /// node's per-range runs in range order, so within a node's slice set
    /// ids are globally ascending and the result is **byte-identical for
    /// every thread count**.
    pub fn build(store: &RrStore, n: usize, threads: usize) -> CoverageIndex {
        let workers = resolve_threads(threads).min(store.len()).max(1);
        let (offsets, sets) = if workers == 1 {
            csr_over_range(store, n, 0..store.len())
        } else {
            // Shard the set range contiguously, like ShardedGenerator, one
            // scoped thread per range, joined in order: running the ranges
            // through `comic_graph::par::run_sharded` measured ~1 MiB more
            // peak RSS here too (paper-solve benchmark, 2-core host).
            let (per, extra) = (store.len() / workers, store.len() % workers);
            let locals: Vec<(Vec<u64>, Vec<u32>)> = std::thread::scope(|scope| {
                let handles: Vec<_> = (0..workers)
                    .map(|w| {
                        let start = w * per + w.min(extra);
                        let range = start..start + per + usize::from(w < extra);
                        scope.spawn(move || csr_over_range(store, n, range))
                    })
                    .collect();
                handles
                    .into_iter()
                    .map(|h| h.join().expect("coverage-index worker panicked"))
                    .collect()
            });
            gather_runs(&locals, n, workers)
        };
        CoverageIndex {
            num_nodes: n,
            num_sets: store.len(),
            offsets: offsets.into(),
            sets: sets.into(),
        }
    }

    /// Size of the node universe the index was built for.
    pub fn num_nodes(&self) -> usize {
        self.num_nodes
    }

    /// Number of indexed RR-sets.
    pub fn num_sets(&self) -> usize {
        self.num_sets
    }

    /// Ids of the sets containing `v`, ascending.
    pub fn sets_containing(&self, v: NodeId) -> &[u32] {
        &self.sets[self.offsets[v.index()] as usize..self.offsets[v.index() + 1] as usize]
    }

    /// Ids of the sets containing `v` among the first `sets` sets,
    /// ascending: the node's run cut with a binary search, or the whole
    /// run, with no search, when the cut spans the index.
    pub fn sets_below(&self, v: NodeId, sets: usize) -> &[u32] {
        let run = self.sets_containing(v);
        if sets >= self.num_sets {
            run
        } else {
            &run[..run.partition_point(|&s| (s as usize) < sets)]
        }
    }

    /// Total membership entries (= `store.total_members()`).
    pub fn total_entries(&self) -> u64 {
        self.sets.len() as u64
    }

    /// Reassemble an index from its raw arrays — the spill reader's
    /// constructor ([`crate::spill::read_pool_file`]). The caller has
    /// already validated the CSR invariants (monotone offsets over
    /// `num_nodes + 1` entries, set ids `< num_sets`, ascending per node);
    /// debug builds re-assert the cheap ones.
    pub(crate) fn from_parts(
        num_nodes: usize,
        num_sets: usize,
        offsets: Section<u64>,
        sets: Section<u32>,
    ) -> CoverageIndex {
        debug_assert_eq!(offsets.len(), num_nodes + 1);
        debug_assert_eq!(offsets.first(), Some(&0));
        debug_assert_eq!(offsets.last().copied(), Some(sets.len() as u64));
        CoverageIndex {
            num_nodes,
            num_sets,
            offsets,
            sets,
        }
    }

    /// The raw per-node offsets table.
    pub(crate) fn offsets_raw(&self) -> &[u64] {
        &self.offsets
    }

    /// The flat ascending set-id array.
    pub(crate) fn sets_raw(&self) -> &[u32] {
        &self.sets
    }
}

/// Two-pass CSR build of the inverted node→set index over one contiguous
/// range of `store`'s sets: count per-node memberships, prefix-sum into
/// offsets, then scatter set ids in range order (so each node's list comes
/// out ascending). [`CoverageIndex::build`] runs one per worker range.
fn csr_over_range(
    store: &RrStore,
    n: usize,
    range: std::ops::Range<usize>,
) -> (Vec<u64>, Vec<u32>) {
    let mut counts = vec![0u32; n];
    for i in range.clone() {
        for &v in store.set(i) {
            counts[v.index()] += 1;
        }
    }
    let mut offsets = vec![0u64; n + 1];
    for v in 0..n {
        offsets[v + 1] = offsets[v] + counts[v] as u64;
    }
    let mut cursor: Vec<u64> = offsets[..n].to_vec();
    let mut sets = vec![0u32; offsets[n] as usize];
    for i in range {
        for &v in store.set(i) {
            sets[cursor[v.index()] as usize] = i as u32;
            cursor[v.index()] += 1;
        }
    }
    (offsets, sets)
}

/// Concatenate per-range local CSRs (in range order) into the global one:
/// offsets are per-node sums of the local counts, and each node's runs are
/// copied in range order, so its set ids stay ascending. The copy is split
/// over `parts` workers by [`partition_nodes`], each owning a contiguous
/// (and therefore disjointly borrowable) slice of the output.
fn gather_runs(locals: &[(Vec<u64>, Vec<u32>)], n: usize, parts: usize) -> (Vec<u64>, Vec<u32>) {
    let mut offsets = vec![0u64; n + 1];
    for v in 0..n {
        let total: u64 = locals.iter().map(|(o, _)| o[v + 1] - o[v]).sum();
        offsets[v + 1] = offsets[v] + total;
    }
    let mut sets = vec![0u32; offsets[n] as usize];
    let bounds = partition_nodes(&offsets, parts);
    std::thread::scope(|scope| {
        let mut rest: &mut [u32] = &mut sets;
        for w in bounds.windows(2) {
            let (lo, hi) = (w[0], w[1]);
            let len = (offsets[hi] - offsets[lo]) as usize;
            let (mine, tail) = rest.split_at_mut(len);
            rest = tail;
            scope.spawn(move || {
                let mut out = 0usize;
                for v in lo..hi {
                    for (o, s) in locals {
                        let run = &s[o[v] as usize..o[v + 1] as usize];
                        mine[out..out + run.len()].copy_from_slice(run);
                        out += run.len();
                    }
                }
                debug_assert_eq!(out, mine.len());
            });
        }
    });
    (offsets, sets)
}

/// Split `0..n` (as recorded in `offsets`) into at most `parts` contiguous
/// node ranges of roughly equal membership mass. Returns the boundary list
/// `[0, b1, …, n]`.
fn partition_nodes(offsets: &[u64], parts: usize) -> Vec<usize> {
    let n = offsets.len() - 1;
    let total = offsets[n];
    let parts = parts.min(n.max(1)).max(1);
    let mut bounds = vec![0usize];
    let mut v = 0usize;
    for p in 1..parts {
        let target = total * p as u64 / parts as u64;
        while v < n && offsets[v] < target {
            v += 1;
        }
        if v > *bounds.last().expect("non-empty") && v < n {
            bounds.push(v);
        }
    }
    bounds.push(n);
    bounds
}

/// A max-coverage seed-selection strategy over a prebuilt [`CoverageIndex`].
///
/// Implementations must obey the module-level determinism contract: for the
/// same `(index, k, sets)` every selector returns the identical
/// [`CoverageResult`], with ties broken by smallest node id, in every SIMD
/// mode.
pub trait SeedSelector {
    /// Human-readable strategy name (used in bench reports).
    fn name(&self) -> &'static str;

    /// Pick up to `k` seeds maximizing covered RR-sets among the first
    /// `sets` indexed sets (every set when `sets` reaches the index's set
    /// count), reading the index in place: the answer equals a selection
    /// over an index built for that prefix alone. Selectors run their
    /// SIMD kernel on the ambient [`simd::active`] mode.
    fn select_prefix(&self, index: &CoverageIndex, k: usize, sets: usize) -> CoverageResult;

    /// [`SeedSelector::select_prefix`] over every indexed set.
    fn select(&self, index: &CoverageIndex, k: usize) -> CoverageResult {
        self.select_prefix(index, k, index.num_sets())
    }
}

/// The exhaustive-rescan greedy: every round recounts each candidate's
/// marginal gain from the index and picks the smallest-id argmax.
///
/// `O(k · total_members)` — far slower than [`CelfGreedy`] but so simple it
/// serves as the test oracle the lazy selector is checked against. The
/// recount *is* the "marginal-gain coverage counting" kernel
/// ([`simd::count_uncovered`]): each candidate's set-id list scanned
/// against the covered bitset.
#[derive(Clone, Copy, Debug, Default)]
pub struct NaiveGreedy;

impl NaiveGreedy {
    /// [`SeedSelector::select_prefix`] with an explicit SIMD mode (benches
    /// and the SIMD ≡ scalar property tests pin both paths through this).
    pub fn select_with(
        &self,
        index: &CoverageIndex,
        k: usize,
        sets: usize,
        mode: SimdMode,
    ) -> CoverageResult {
        let n = index.num_nodes();
        let mut covered_bits = vec![0u64; simd::words_for(sets.min(index.num_sets()))];
        let mut picked = vec![false; n];
        let mut seeds = Vec::with_capacity(k.min(n));
        let mut marginals = Vec::with_capacity(k.min(n));
        let mut covered = 0u64;
        while seeds.len() < k.min(n) {
            let mut best: Option<(u64, usize)> = None;
            for (v, &is_picked) in picked.iter().enumerate() {
                if is_picked {
                    continue;
                }
                let gain = simd::count_uncovered(
                    mode,
                    index.sets_below(NodeId(v as u32), sets),
                    &covered_bits,
                );
                // Strict `>` over ascending ids = smallest id wins ties.
                if best.is_none_or(|(bg, _)| gain > bg) {
                    best = Some((gain, v));
                }
            }
            let Some((gain, v)) = best else { break };
            picked[v] = true;
            seeds.push(NodeId(v as u32));
            marginals.push(gain);
            covered += gain;
            for &s in index.sets_below(NodeId(v as u32), sets) {
                simd::set_bit(&mut covered_bits, s as usize);
            }
        }
        CoverageResult {
            seeds,
            covered,
            marginals,
        }
    }
}

impl SeedSelector for NaiveGreedy {
    fn name(&self) -> &'static str {
        "naive-greedy"
    }

    fn select_prefix(&self, index: &CoverageIndex, k: usize, sets: usize) -> CoverageResult {
        self.select_with(index, k, sets, simd::active())
    }
}

/// CELF lazy-greedy max coverage.
///
/// A max-heap holds one key per unpicked node, an upper bound on its
/// marginal gain: first its full-index run length (a bound under any
/// cut), later its last recount (gains only shrink under submodularity).
/// Each pop recounts the node's run below the cut against the covered-set
/// bitset with [`simd::count_uncovered`], the oracle's kernel. A recount
/// equal to the key makes the node the smallest-id argmax, since every
/// other key bounds its node's gain and equal keys pop smallest id first,
/// so it is picked and its run's bits are set; otherwise the node goes
/// back with the recount. Its only state is the heap and the bitset, so a
/// pick costs its own run and a round recounts only the few heads whose
/// keys went stale.
#[derive(Clone, Copy, Debug)]
pub struct CelfGreedy;

impl SeedSelector for CelfGreedy {
    fn name(&self) -> &'static str {
        "celf"
    }

    fn select_prefix(&self, index: &CoverageIndex, k: usize, sets: usize) -> CoverageResult {
        let n = index.num_nodes();
        let mode = simd::active();
        let mut covered_bits = vec![0u64; simd::words_for(sets.min(index.num_sets()))];

        // Max-heap on (key, Reverse(node id)): among equal keys the
        // smallest id pops first, matching NaiveGreedy's rule. Each node
        // holds exactly one entry until it is picked, so a popped node is
        // never already a seed.
        let mut heap: BinaryHeap<(u32, Reverse<u32>)> = (0..n as u32)
            .map(|v| (index.sets_containing(NodeId(v)).len() as u32, Reverse(v)))
            .collect();

        let mut seeds = Vec::with_capacity(k.min(n));
        let mut marginals = Vec::with_capacity(k.min(n));
        let mut covered = 0u64;

        while seeds.len() < k {
            let Some((key, Reverse(v))) = heap.pop() else {
                break;
            };
            let run = index.sets_below(NodeId(v), sets);
            let fresh = simd::count_uncovered(mode, run, &covered_bits) as u32;
            debug_assert!(fresh <= key);
            if fresh < key {
                heap.push((fresh, Reverse(v)));
                continue;
            }
            // Fresh maximum (smallest id among ties): pick it.
            seeds.push(NodeId(v));
            marginals.push(fresh as u64);
            covered += fresh as u64;
            for &s in run {
                simd::set_bit(&mut covered_bits, s as usize);
            }
        }

        CoverageResult {
            seeds,
            covered,
            marginals,
        }
    }
}

/// Which [`SeedSelector`] the pipeline runs — the config-level knob wired
/// through [`crate::tim::TimConfig::selector`] and the bench drivers'
/// `--selector` flag.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub enum SelectorKind {
    /// Exhaustive-rescan greedy ([`NaiveGreedy`]) — the slow oracle.
    NaiveGreedy,
    /// CELF lazy-greedy ([`CelfGreedy`]) — the default fast path.
    #[default]
    Celf,
}

impl SelectorKind {
    /// Parse a CLI spelling (`"naive"` / `"celf"`).
    pub fn parse(s: &str) -> Option<SelectorKind> {
        match s {
            "naive" | "naive-greedy" => Some(SelectorKind::NaiveGreedy),
            "celf" => Some(SelectorKind::Celf),
            _ => None,
        }
    }

    /// The strategy's display name.
    pub fn name(self) -> &'static str {
        match self {
            SelectorKind::NaiveGreedy => NaiveGreedy.name(),
            SelectorKind::Celf => CelfGreedy.name(),
        }
    }

    /// Run the chosen selector over every indexed set, on the ambient
    /// [`simd::active`] kernels. `_store` and `_threads` are unused and
    /// stay only for existing callers (the benchmark harness): the
    /// selectors read the index alone and run on the calling thread, and
    /// only index builds ([`CoverageIndex::build`]) take a thread count.
    pub fn select(
        self,
        index: &CoverageIndex,
        _store: &RrStore,
        k: usize,
        _threads: usize,
    ) -> CoverageResult {
        self.select_prefix(index, k, index.num_sets())
    }

    /// Run the chosen selector over the first `sets` indexed sets
    /// ([`SeedSelector::select_prefix`]).
    pub fn select_prefix(self, index: &CoverageIndex, k: usize, sets: usize) -> CoverageResult {
        match self {
            SelectorKind::NaiveGreedy => NaiveGreedy.select_prefix(index, k, sets),
            SelectorKind::Celf => CelfGreedy.select_prefix(index, k, sets),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use comic_graph::gen;
    use rand::rngs::SmallRng;
    use rand::{RngExt, SeedableRng};

    /// Scalar plus AVX2 when the host has it — cross-mode tests iterate
    /// this so the vector path is exercised wherever possible.
    fn modes() -> Vec<SimdMode> {
        let mut m = vec![SimdMode::Scalar];
        if simd::detect() == SimdMode::Avx2 {
            m.push(SimdMode::Avx2);
        }
        m
    }

    fn store_from(sets: &[&[u32]]) -> (RrStore, usize) {
        let n = 1 + sets
            .iter()
            .flat_map(|s| s.iter())
            .copied()
            .max()
            .unwrap_or(0) as usize;
        let g = gen::complete(n.max(2), 1.0);
        let mut store = RrStore::new();
        for s in sets {
            let members: Vec<NodeId> = s.iter().copied().map(NodeId).collect();
            store.push(&members, &g);
        }
        (store, n.max(2))
    }

    fn random_store(seed: u64, n: u32, sets: usize, max_size: usize) -> RrStore {
        let mut rng = SmallRng::seed_from_u64(seed);
        let mut store = RrStore::new();
        for _ in 0..sets {
            let size = rng.random_range(0..max_size);
            let mut members: Vec<NodeId> = Vec::new();
            while members.len() < size {
                let v = NodeId(rng.random_range(0..n));
                if !members.contains(&v) {
                    members.push(v);
                }
            }
            store.push_with_width(&members, 0);
        }
        store
    }

    #[test]
    fn index_counts_match_bruteforce() {
        let store = random_store(1, 25, 300, 6);
        let index = CoverageIndex::build(&store, 25, 1);
        assert_eq!(index.num_sets(), 300);
        assert_eq!(index.total_entries(), store.total_members());
        for v in 0..25u32 {
            let expect: Vec<u32> = (0..store.len())
                .filter(|&i| store.set(i).contains(&NodeId(v)))
                .map(|i| i as u32)
                .collect();
            assert_eq!(index.sets_containing(NodeId(v)), &expect[..], "node {v}");
            for cut in [0usize, 1, 7, 150, 299, 300, 400] {
                let below: Vec<u32> = expect
                    .iter()
                    .copied()
                    .filter(|&s| (s as usize) < cut)
                    .collect();
                assert_eq!(
                    index.sets_below(NodeId(v), cut),
                    &below[..],
                    "node {v} cut {cut}"
                );
            }
        }
    }

    #[test]
    fn parallel_index_build_is_byte_identical() {
        let store = random_store(2, 40, 1000, 8);
        let base = CoverageIndex::build(&store, 40, 1);
        for threads in [2, 3, 7, 16] {
            assert_eq!(
                CoverageIndex::build(&store, 40, threads),
                base,
                "threads {threads}"
            );
        }
        // Runs of empty sets at the start, in the middle and at the end, so
        // whole worker ranges hold no members.
        let mut gappy = RrStore::new();
        let filled = random_store(22, 12, 60, 5);
        for i in 0..filled.len() {
            if i < 20 || (35..45).contains(&i) || i >= 55 {
                gappy.push_with_width(&[], 0);
            } else {
                gappy.push_with_width(filled.set(i), 0);
            }
        }
        let base = CoverageIndex::build(&gappy, 12, 1);
        assert_eq!(base.num_sets(), 60);
        assert_eq!(base.total_entries(), gappy.total_members());
        for threads in [2, 3, 4, 6, 8] {
            assert_eq!(
                CoverageIndex::build(&gappy, 12, threads),
                base,
                "gappy threads {threads}"
            );
        }
        // An empty store, and more threads than sets.
        let empty = CoverageIndex::build(&RrStore::new(), 12, 1);
        assert_eq!((empty.num_sets(), empty.total_entries()), (0, 0));
        assert_eq!(empty.offsets_raw(), &[0u64; 13][..]);
        for threads in [2, 4] {
            assert_eq!(CoverageIndex::build(&RrStore::new(), 12, threads), empty);
        }
        let tiny = random_store(23, 15, 3, 6);
        let base = CoverageIndex::build(&tiny, 15, 1);
        for threads in [4, 8] {
            assert_eq!(
                CoverageIndex::build(&tiny, 15, threads),
                base,
                "tiny threads {threads}"
            );
        }
    }

    #[test]
    fn empty_store_and_tiny_universes() {
        let store = RrStore::new();
        let index = CoverageIndex::build(&store, 0, 4);
        assert_eq!(index.num_nodes(), 0);
        assert_eq!(index.total_entries(), 0);
        let r = CelfGreedy.select(&index, 3);
        assert!(r.seeds.is_empty());
        assert_eq!(r.covered, 0);
        let r = NaiveGreedy.select(&index, 3);
        assert!(r.seeds.is_empty());
    }

    #[test]
    fn selectors_agree_including_ties() {
        // Nodes 1 and 2 tie on gain; both selectors must take node 1.
        let (store, n) = store_from(&[&[1, 3], &[2, 3], &[1], &[2]]);
        let index = CoverageIndex::build(&store, n, 1);
        let naive = NaiveGreedy.select(&index, 2);
        let celf = CelfGreedy.select(&index, 2);
        assert_eq!(naive, celf);
        assert_eq!(naive.seeds[0], NodeId(1), "smallest id wins the tie");
    }

    /// CELF against the naive oracle in every SIMD mode the host offers,
    /// over every set and at cuts {0, 1, len/2, len−1}: CELF's seeded
    /// keys are full-index run lengths, upper bounds under any cut.
    fn assert_celf_matches_naive(index: &CoverageIndex, k: usize, what: &str) {
        let len = index.num_sets();
        for cut in [0, 1, len / 2, len.saturating_sub(1), len] {
            let celf = CelfGreedy.select_prefix(index, k, cut);
            for mode in modes() {
                let naive = NaiveGreedy.select_with(index, k, cut, mode);
                assert_eq!(naive, celf, "{what} cut {cut} {mode:?}");
            }
        }
    }

    #[test]
    fn celf_matches_naive_on_random_stores() {
        for trial in 0..10 {
            let store = random_store(100 + trial, 30, 400, 5);
            let index = CoverageIndex::build(&store, 30, 2);
            assert_celf_matches_naive(&index, 6, &format!("trial {trial}"));
        }
    }

    #[test]
    fn celf_matches_naive_on_a_hub_store() {
        // 512 sets: a hub (node 0) in the first 144, random filler from
        // 3..23 in every one, then 48 singleton sets of node 1 and 47 of
        // node 2, whose counts differ by one.
        let (num_sets, th) = (512usize, 48usize);
        let mut rng = SmallRng::seed_from_u64(77);
        let mut store = RrStore::new();
        for i in 0..num_sets {
            let mut members: Vec<NodeId> = Vec::new();
            if i < th * 3 {
                members.push(NodeId(0));
            }
            let filler = NodeId(3 + rng.random_range(0..20u32));
            if !members.contains(&filler) {
                members.push(filler);
            }
            store.push_with_width(&members, 0);
        }
        for i in 0..th {
            store.push_with_width(&[NodeId(1)], 0);
            if i + 1 < th {
                store.push_with_width(&[NodeId(2)], 0);
            }
        }
        let index = CoverageIndex::build(&store, 23, 1);
        assert_celf_matches_naive(&index, 8, "hub store");
    }

    #[test]
    fn celf_matches_naive_when_the_leader_lies_beyond_the_cut() {
        // Node 0 is in every set of the second half and in none of the
        // first, so it leads the full index (and CELF's seeded heap) while
        // holding no set below len/2; filler nodes 1..=12 fill both halves.
        let mut rng = SmallRng::seed_from_u64(31);
        let mut store = RrStore::new();
        let half = 200usize;
        for i in 0..2 * half {
            let mut members = vec![NodeId(1 + rng.random_range(0..12u32))];
            if i >= half {
                members.push(NodeId(0));
            }
            store.push_with_width(&members, 0);
        }
        let index = CoverageIndex::build(&store, 13, 1);
        let leader = (0..13u32)
            .max_by_key(|&v| (index.sets_containing(NodeId(v)).len(), Reverse(v)))
            .unwrap();
        assert_eq!(leader, 0);
        assert!(index.sets_below(NodeId(0), half).is_empty());
        assert_celf_matches_naive(&index, 4, "leader beyond the cut");
    }

    #[test]
    fn marginals_match_per_set_recounts() {
        // The reported marginal of pick i equals the number of sets
        // containing seed i and none of seeds 0..i.
        let store = random_store(7, 20, 250, 5);
        let index = CoverageIndex::build(&store, 20, 1);
        let r = CelfGreedy.select(&index, 8);
        for (i, (&seed, &marginal)) in r.seeds.iter().zip(&r.marginals).enumerate() {
            let recount = (0..store.len())
                .filter(|&s| {
                    let members = store.set(s);
                    members.contains(&seed)
                        && !r.seeds[..i].iter().any(|prev| members.contains(prev))
                })
                .count() as u64;
            assert_eq!(marginal, recount, "pick {i} (node {seed})");
        }
        assert_eq!(r.covered, r.marginals.iter().sum::<u64>());
    }

    #[test]
    fn celf_matches_naive_on_a_dense_store() {
        // Big dense sets: every node sits in roughly 800 of the 1,200 sets
        // of 200 members, so each recount scans a long run and after the
        // first pick nearly every popped key is stale.
        let mut rng = SmallRng::seed_from_u64(9);
        let mut store = RrStore::new();
        let n = 300u32;
        let mut in_set = vec![false; n as usize];
        for _ in 0..1200 {
            let mut members: Vec<NodeId> = Vec::new();
            while members.len() < 200 {
                let v = rng.random_range(0..n);
                if !in_set[v as usize] {
                    in_set[v as usize] = true;
                    members.push(NodeId(v));
                }
            }
            for m in &members {
                in_set[m.index()] = false;
            }
            store.push_with_width(&members, 0);
        }
        let index = CoverageIndex::build(&store, n as usize, 4);
        assert_celf_matches_naive(&index, 10, "dense store");
    }

    /// Both selectors through the config-level [`SelectorKind::select`]
    /// dispatch, asserted identical; returns the shared result.
    fn select_both(store: &RrStore, n: usize, k: usize, threads: usize) -> CoverageResult {
        let index = CoverageIndex::build(store, n, threads);
        let celf = SelectorKind::Celf.select(&index, store, k, threads);
        assert_eq!(
            SelectorKind::NaiveGreedy.select(&index, store, k, threads),
            celf
        );
        celf
    }

    #[test]
    fn picks_the_dominant_node_first() {
        let (store, n) = store_from(&[&[0, 1], &[0, 2], &[0, 3], &[4]]);
        let r = select_both(&store, n, 1, 1);
        assert_eq!(r.seeds, vec![NodeId(0)]);
        assert_eq!(r.covered, 3);
        assert_eq!(r.marginals, vec![3]);
    }

    #[test]
    fn second_pick_maximizes_marginal_not_raw_count() {
        // Node 1 appears in 2 sets but both covered by node 0's pick;
        // node 4 appears in 1 uncovered set.
        let (store, n) = store_from(&[&[0, 1], &[0, 1], &[0], &[4]]);
        let r = select_both(&store, n, 2, 1);
        assert_eq!(r.seeds, vec![NodeId(0), NodeId(4)]);
        assert_eq!(r.covered, 4);
        assert_eq!(r.marginals, vec![3, 1]);
    }

    #[test]
    fn covers_everything_with_enough_budget() {
        let (store, n) = store_from(&[&[0], &[1], &[2], &[3]]);
        let r = select_both(&store, n, 4, 1);
        assert_eq!(r.covered, 4);
        assert_eq!(r.seeds.len(), 4);
    }

    #[test]
    fn greedy_is_within_the_greedy_bound_of_bruteforce_optimum() {
        let mut rng = SmallRng::seed_from_u64(42);
        for trial in 0..20 {
            let n = 8;
            let g = gen::complete(n, 1.0);
            let mut store = RrStore::new();
            for _ in 0..30 {
                let size = rng.random_range(1..4usize);
                let mut members = Vec::new();
                while members.len() < size {
                    let v = NodeId(rng.random_range(0..n as u32));
                    if !members.contains(&v) {
                        members.push(v);
                    }
                }
                store.push(&members, &g);
            }
            let greedy = select_both(&store, n, 2, 2);
            // Brute force best pair.
            let mut best = 0u64;
            for a in 0..n {
                for b in (a + 1)..n {
                    let mut mark = vec![false; n];
                    mark[a] = true;
                    mark[b] = true;
                    let c = (store.coverage_fraction(&mark) * store.len() as f64).round() as u64;
                    best = best.max(c);
                }
            }
            // Greedy max coverage is a (1 - 1/e) approximation; on these tiny
            // instances it is nearly always optimal, and must never exceed it.
            assert!(greedy.covered <= best);
            assert!(
                greedy.covered as f64 >= 0.63 * best as f64,
                "trial {trial}: greedy {} vs best {best}",
                greedy.covered
            );
        }
    }

    #[test]
    fn k_beyond_useful_nodes_fills_with_smallest_ids() {
        let (store, n) = store_from(&[&[0], &[0]]);
        for threads in [1, 4] {
            let r = select_both(&store, n, n + 5, threads);
            assert_eq!(r.covered, 2);
            assert!(r.seeds.len() <= n);
        }
    }

    #[test]
    fn selector_kind_parses_and_dispatches() {
        assert_eq!(
            SelectorKind::parse("naive"),
            Some(SelectorKind::NaiveGreedy)
        );
        assert_eq!(SelectorKind::parse("celf"), Some(SelectorKind::Celf));
        assert_eq!(SelectorKind::parse("bogus"), None);
        assert_eq!(SelectorKind::default(), SelectorKind::Celf);
        let (store, n) = store_from(&[&[0, 1], &[2]]);
        let index = CoverageIndex::build(&store, n, 1);
        let a = SelectorKind::NaiveGreedy.select(&index, &store, 1, 1);
        let b = SelectorKind::Celf.select(&index, &store, 1, 1);
        assert_eq!(a, b);
        for mode in modes() {
            assert_eq!(NaiveGreedy.select_with(&index, 1, store.len(), mode), a);
        }
    }

    #[test]
    fn partition_bounds_are_monotone_and_cover() {
        let store = random_store(3, 50, 600, 6);
        let index = CoverageIndex::build(&store, 50, 1);
        for parts in [1, 2, 5, 13, 64] {
            let b = partition_nodes(&index.offsets, parts);
            assert_eq!(*b.first().unwrap(), 0);
            assert_eq!(*b.last().unwrap(), 50);
            assert!(b.windows(2).all(|w| w[0] < w[1]), "{b:?}");
            assert!(b.len() <= parts + 1);
        }
    }
}
