//! RR-sketch pool spill files — the v4 segment layout applied to
//! [`SketchPool`]s.
//!
//! A resident pool is expensive: millions of reverse BFS walks, merged
//! shards, and a coverage index. All of that is pure derived data — a
//! function of the graph and the generation provenance
//! `(seed, design_k, ε)` — so a service restart that re-pays
//! generation is wasted work. This module spills a pool to a
//! `COMICRRS` segment file using the exact machinery of
//! [`comic_graph::store`] (fixed-width little-endian sections, header
//! digest, footer content digest) and reloads it without re-rebasing:
//! the offsets/members/widths arrays come back as [`Section`] views,
//! zero-copy under the mmap fast path, via one bulk read otherwise
//! (`COMIC_MMAP=off`).
//!
//! # Layout (`COMICRRS` v4)
//!
//! Meta words: `[graph_digest, n, seed, design_k, epsilon_bits, kpt_bits,
//! capped, generation, touched]` — the full provenance a [`SketchPool`]
//! carries, plus the digest of the graph the sets were sampled over.
//! `touched ∈ {0, 1}` records whether the pool is touch-tracked
//! ([`SketchPool::touch_tracked`]), so a reloaded pool stays incrementally
//! refreshable. No thread count is recorded: pool bytes are the same for
//! every generation thread count. Sections, in order:
//!
//! | # | contents            | elements          |
//! |---|---------------------|-------------------|
//! | 0 | set offsets         | `(sets+1)×u64`    |
//! | 1 | flat members        | `members×u32`     |
//! | 2 | per-set widths      | `sets×u64`        |
//! | 3 | index offsets       | `(n+1)×u64`       |
//! | 4 | index set ids       | `members×u32`     |
//!
//! Every pool carries its resident [`CoverageIndex`] and spills it, so a
//! warm reload skips both regeneration *and* the index build. A file with
//! any other section count is [`GraphError::Corrupt`]. Older versions are
//! rejected with [`GraphError::UnsupportedVersion`]: v1 and v2 (which
//! recorded the generation thread count, and v2 per-shard touch blooms),
//! and v3, whose layout v4 keeps but whose IC sets were sampled with
//! geometric skips over RNG streams — the keyed invalidation rule
//! ([`SketchPool::invalidate`]) cannot tell which of them a delta
//! changes. The serving layer observes either as a `spill_reject` and
//! rebuilds once, which rewrites the spill as v4.
//!
//! # Untrusted-header contract
//!
//! Same rules as the graph store: the segment reader bounds every
//! allocation by the actual file length and verifies both digests before
//! any section is touched; this module then structurally validates the two
//! CSRs (offset monotonicity, id ranges, index/store agreement) so a
//! crafted digest-consistent file yields a typed [`GraphError`], never a
//! panic inside [`SketchPool::new`]'s assertions. A spill whose
//! recorded graph digest differs from the caller's expectation is
//! [`GraphError::StaleSource`] — the pool describes some *other* graph and
//! must be regenerated, exactly like a stale binary cache. Staleness ranks
//! below meta sanity and above structure, also when the read is split:
//! [`read_pool_spill`] does all the work that needs no expected digest,
//! and [`SpilledPool::against`] compares the digest afterwards.

use crate::pool::SketchPool;
use crate::rr::RrStore;
use crate::select::CoverageIndex;
use comic_graph::store::{write_segment, Section, SectionData, SegmentFile, MAX_PLAUSIBLE_NODES};
use comic_graph::{GraphError, NodeId, StaleArtifact};
use std::fs::File;
use std::io::{BufWriter, Write};
use std::path::Path;
use std::sync::Arc;

/// Magic prefix of a pool spill file.
pub const POOL_MAGIC: &[u8; 8] = b"COMICRRS";

/// Format version written and required by this module. v4 has v3's
/// layout; it marks IC sets sampled with keyed coins, which the keyed
/// invalidation rule needs (v3 IC sets came from geometric-skip streams).
/// v3 dropped the generation thread count and the touch blooms.
pub const POOL_FORMAT_VERSION: u32 = 4;

/// Meta words: `[graph_digest, n, seed, design_k, epsilon_bits, kpt_bits,
/// capped, generation, touched]`.
const POOL_META_LEN: usize = 9;

/// Section count of a pool spill (see the module docs for the order).
const POOL_SECTIONS: usize = 5;

fn corrupt(msg: impl Into<String>) -> GraphError {
    GraphError::Corrupt(msg.into())
}

/// Spill `pool` to `w`. `graph_digest` is
/// [`comic_graph::io::graph_digest`] of the graph the pool was sampled
/// over — recorded so a reload against a different graph is typed
/// [`GraphError::StaleSource`], not silently wrong answers.
pub fn write_pool<W: Write>(pool: &SketchPool, graph_digest: u64, w: W) -> Result<(), GraphError> {
    let store = pool.store();
    let meta = [
        graph_digest,
        pool.num_nodes() as u64,
        pool.seed(),
        pool.design_k() as u64,
        pool.epsilon().to_bits(),
        pool.kpt().to_bits(),
        u64::from(pool.capped()),
        pool.generation(),
        u64::from(pool.touch_tracked()),
    ];
    let index = pool.coverage_index();
    let sections = [
        SectionData::U64(store.offsets_raw()),
        SectionData::Nodes(store.nodes_raw()),
        SectionData::U64(store.widths_raw()),
        SectionData::U64(index.offsets_raw()),
        SectionData::U32(index.sets_raw()),
    ];
    let mut w = BufWriter::new(w);
    write_segment(&mut w, POOL_MAGIC, POOL_FORMAT_VERSION, &meta, &sections)
        .and_then(|()| w.flush())
        .map_err(GraphError::Io)
}

/// [`write_pool`] to a fresh file at `path` (not atomic; callers that need
/// atomicity write to a temp name and rename, as `comic-serve` does).
pub fn write_pool_file(
    pool: &SketchPool,
    graph_digest: u64,
    path: &Path,
) -> Result<(), GraphError> {
    let f = File::create(path).map_err(GraphError::Io)?;
    write_pool(pool, graph_digest, f)
}

/// A spill read up to, but not including, its comparison with a graph:
/// the segment is mapped (or bulk-read) and both of its digests verified,
/// its meta words passed their sanity checks, and its two CSRs were
/// validated and the pool assembled (`pool`), or refused with the typed
/// error that validation found. [`SpilledPool::against`] finishes the
/// read.
///
/// The split lets a caller read a spill before it knows the graph it will
/// serve the pool over (`comic-serve` reads its spills on one thread while
/// the dataset loads on another) without changing which error a file
/// reports: meta sanity (returned by [`read_pool_spill`] itself), then
/// staleness, then structure.
#[derive(Debug)]
pub struct SpilledPool {
    graph_digest: u64,
    pool: Result<SketchPool, GraphError>,
}

impl SpilledPool {
    /// The digest of the graph the spilled sets were sampled over.
    pub fn graph_digest(&self) -> u64 {
        self.graph_digest
    }

    /// The pool, served over a graph whose digest is `expected_graph`: a
    /// spill recorded for another graph is [`GraphError::StaleSource`],
    /// even when its structure is bad too.
    pub fn against(self, expected_graph: u64) -> Result<SketchPool, GraphError> {
        if self.graph_digest != expected_graph {
            return Err(GraphError::StaleSource {
                artifact: StaleArtifact::PoolSpill,
                expected: expected_graph,
                found: self.graph_digest,
            });
        }
        self.pool
    }
}

/// Reload a spilled pool under the process-wide
/// [`comic_graph::store::active`] mode, verifying integrity, graph
/// provenance, and CSR structure. The reloaded pool is byte-identical to
/// the one spilled: same sets, widths, provenance, generation, and
/// resident coverage index.
pub fn read_pool_file(path: &Path, expected_graph: u64) -> Result<SketchPool, GraphError> {
    read_pool_spill(path)?.against(expected_graph)
}

/// [`read_pool_file`] without the graph comparison: everything that does
/// not depend on the expected graph digest (see [`SpilledPool`]).
pub fn read_pool_spill(path: &Path) -> Result<SpilledPool, GraphError> {
    let seg = SegmentFile::open(path, POOL_MAGIC, POOL_FORMAT_VERSION, POOL_META_LEN)?;
    spilled_from_segment(seg)
}

/// [`read_pool_file`] over an in-memory byte buffer (always the safe owned
/// path) — tests and fuzzing use this.
pub fn read_pool_bytes(bytes: Vec<u8>, expected_graph: u64) -> Result<SketchPool, GraphError> {
    let seg = SegmentFile::from_bytes(bytes, POOL_MAGIC, POOL_FORMAT_VERSION, POOL_META_LEN)?;
    spilled_from_segment(seg)?.against(expected_graph)
}

/// Meta sanity, then structure: a meta error is returned outright, since
/// it ranks above staleness, while a structural one is kept inside the
/// [`SpilledPool`], below it.
fn spilled_from_segment(seg: SegmentFile) -> Result<SpilledPool, GraphError> {
    let [graph_digest, n64, seed, design_k64, eps_bits, kpt_bits, capped64, generation, touched64] =
        seg.meta()
    else {
        unreachable!("POOL_META_LEN is 9");
    };
    let (graph_digest, n64) = (*graph_digest, *n64);

    // Implausibility before anything else: these fields feed index
    // validation loops and the reconstructed pool's `n`.
    if n64 > MAX_PLAUSIBLE_NODES {
        return Err(corrupt(format!("implausible node count {n64}")));
    }
    let n = usize::try_from(n64).map_err(|_| corrupt("node count exceeds address space"))?;
    let design_k = usize::try_from(*design_k64).map_err(|_| corrupt("implausible design k"))?;
    let epsilon = f64::from_bits(*eps_bits);
    if !epsilon.is_finite() || epsilon <= 0.0 {
        return Err(corrupt(format!("implausible epsilon {epsilon}")));
    }
    let kpt = f64::from_bits(*kpt_bits);
    if !kpt.is_finite() || kpt <= 0.0 {
        return Err(corrupt(format!("implausible KPT* {kpt}")));
    }
    let capped = flag(*capped64, "capped")?;
    let touched = flag(*touched64, "touched")?;

    // Integrity is proven by the segment digests; staleness ranks above
    // structure, matching the graph store's ordering, so a structural
    // error waits inside the result for `against` to rank it.
    let pool = pool_from_sections(&seg, n).map(|(store, index)| {
        SketchPool::new(
            Arc::new(store),
            Arc::new(index),
            *seed,
            design_k,
            epsilon,
            kpt,
            capped,
        )
        .with_touch_tracked(touched)
        .with_generation(*generation)
    });
    Ok(SpilledPool { graph_digest, pool })
}

/// The store and coverage index of a spill over `n` nodes, structurally
/// validated.
fn pool_from_sections(seg: &SegmentFile, n: usize) -> Result<(RrStore, CoverageIndex), GraphError> {
    if seg.num_sections() != POOL_SECTIONS {
        return Err(corrupt(format!(
            "pool spill needs {POOL_SECTIONS} sections, found {}",
            seg.num_sections()
        )));
    }

    let offset_elems = seg.section_elems::<u64>(0)?;
    let sets = offset_elems
        .checked_sub(1)
        .ok_or_else(|| corrupt("set offsets section is empty"))?;
    let members = seg.section_elems::<NodeId>(1)?;
    let offsets: Section<u64> = seg.section(0, sets + 1)?;
    let nodes: Section<NodeId> = seg.section(1, members)?;
    let widths: Section<u64> = seg.section(2, sets)?;

    validate_csr(&offsets, members as u64, "set offsets")?;
    if let Some(bad) = nodes.iter().find(|v| v.index() >= n) {
        return Err(corrupt(format!(
            "member node id {} out of range (n = {n})",
            bad.0
        )));
    }

    let entries = seg.section_elems::<u32>(4)?;
    if entries != members {
        return Err(corrupt(format!(
            "index entries ({entries}) disagree with member count ({members})"
        )));
    }
    let idx_offsets: Section<u64> = seg.section(3, n + 1)?;
    let idx_sets: Section<u32> = seg.section(4, entries)?;
    validate_csr(&idx_offsets, entries as u64, "index offsets")?;
    // Per-node runs must hold ascending in-range set ids — the selectors'
    // binary merges and bitset builds rely on both.
    for v in 0..n {
        let run = &idx_sets[idx_offsets[v] as usize..idx_offsets[v + 1] as usize];
        for w in run.windows(2) {
            if w[0] >= w[1] {
                return Err(corrupt(format!(
                    "index run for node {v} is not strictly ascending"
                )));
            }
        }
        if let Some(&last) = run.last() {
            if last as usize >= sets {
                return Err(corrupt(format!(
                    "index set id {last} out of range ({sets} sets)"
                )));
            }
        }
    }
    let index = CoverageIndex::from_parts(n, sets, idx_offsets, idx_sets);
    Ok((RrStore::from_raw_parts(offsets, nodes, widths), index))
}

/// A 0/1 meta word as a bool.
fn flag(word: u64, what: &str) -> Result<bool, GraphError> {
    match word {
        0 => Ok(false),
        1 => Ok(true),
        other => Err(corrupt(format!(
            "{what} flag must be 0 or 1, found {other}"
        ))),
    }
}

/// Offsets table validation shared by the set CSR and the index CSR:
/// leading 0, monotone, final entry equal to the flat array's length.
fn validate_csr(offsets: &[u64], total: u64, what: &str) -> Result<(), GraphError> {
    if offsets.first() != Some(&0) {
        return Err(corrupt(format!("{what} must start at 0")));
    }
    if let Some(w) = offsets.windows(2).find(|w| w[0] > w[1]) {
        return Err(corrupt(format!(
            "{what} not monotone ({} > {})",
            w[0], w[1]
        )));
    }
    if offsets.last() != Some(&total) {
        return Err(corrupt(format!(
            "{what} end {:?} disagrees with element count {total}",
            offsets.last()
        )));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ic_sampler::IcRrSampler;
    use crate::parallel::ShardedGenerator;
    use comic_graph::io::graph_digest;
    use comic_graph::{gen, DiGraph};
    use std::sync::atomic::{AtomicU64, Ordering};

    fn tmp_path(tag: &str) -> std::path::PathBuf {
        static SEQ: AtomicU64 = AtomicU64::new(0);
        let k = SEQ.fetch_add(1, Ordering::Relaxed);
        std::env::temp_dir().join(format!(
            "comic-spill-{tag}-{}-{k}.rrseg",
            std::process::id()
        ))
    }

    fn sample_pool(g: &DiGraph) -> SketchPool {
        let store = ShardedGenerator::new(|| IcRrSampler::new(g), 7, 2).generate(500, 2);
        let index = CoverageIndex::build(&store, g.num_nodes(), 2);
        SketchPool::new(Arc::new(store), Arc::new(index), 7, 5, 0.4, 1.25, false).with_generation(3)
    }

    /// Meta words of a spill of `pool` over a graph with digest `d`.
    fn meta_of(pool: &SketchPool, d: u64) -> Vec<u64> {
        vec![
            d,
            pool.num_nodes() as u64,
            pool.seed(),
            pool.design_k() as u64,
            pool.epsilon().to_bits(),
            pool.kpt().to_bits(),
            u64::from(pool.capped()),
            pool.generation(),
            u64::from(pool.touch_tracked()),
        ]
    }

    fn assert_pools_equal(a: &SketchPool, b: &SketchPool) {
        assert_eq!(a.store(), b.store());
        assert_eq!(a.num_nodes(), b.num_nodes());
        assert_eq!(a.seed(), b.seed());
        assert_eq!(a.touch_tracked(), b.touch_tracked());
        assert_eq!(a.design_k(), b.design_k());
        assert_eq!(a.epsilon(), b.epsilon());
        assert_eq!(a.kpt(), b.kpt());
        assert_eq!(a.capped(), b.capped());
        assert_eq!(a.generation(), b.generation());
        assert_eq!(**a.coverage_index(), **b.coverage_index());
    }

    #[test]
    fn pool_round_trips_through_bytes() {
        let g = gen::star(30, 0.8);
        let d = graph_digest(&g);
        let pool = sample_pool(&g);
        let mut bytes = Vec::new();
        write_pool(&pool, d, &mut bytes).unwrap();
        let back = read_pool_bytes(bytes, d).unwrap();
        assert_pools_equal(&pool, &back);
    }

    #[test]
    fn three_section_spill_is_rejected_as_corrupt() {
        // The layout once written for pools without an index: the store's
        // three sections under the current version and meta. Every pool
        // carries its index, so the reader refuses it typed and the
        // serving layer counts a spill reject and rebuilds.
        let g = gen::path(12, 0.9);
        let d = graph_digest(&g);
        let pool = sample_pool(&g);
        let store = pool.store();
        let sections = [
            SectionData::U64(store.offsets_raw()),
            SectionData::Nodes(store.nodes_raw()),
            SectionData::U64(store.widths_raw()),
        ];
        let mut bytes = Vec::new();
        write_segment(
            &mut bytes,
            POOL_MAGIC,
            POOL_FORMAT_VERSION,
            &meta_of(&pool, d),
            &sections,
        )
        .unwrap();
        match read_pool_bytes(bytes, d) {
            Err(GraphError::Corrupt(msg)) => {
                assert!(msg.contains("needs 5 sections, found 3"), "msg: {msg}");
            }
            other => panic!("expected Corrupt, got {other:?}"),
        }
    }

    #[test]
    fn file_round_trip_is_identical_and_mapped_where_supported() {
        let g = gen::star(25, 0.7);
        let d = graph_digest(&g);
        let pool = sample_pool(&g);
        let path = tmp_path("file");
        write_pool_file(&pool, d, &path).unwrap();
        let back = read_pool_file(&path, d).unwrap();
        std::fs::remove_file(&path).ok();
        assert_pools_equal(&pool, &back);
        if comic_graph::store::mmap_supported()
            && comic_graph::store::active() == comic_graph::store::StoreMode::Mmap
        {
            assert!(back.store().is_mapped(), "mmap path should borrow the file");
        }
        // Mutating a reloaded (possibly mapped) store is safe: COW kicks in.
        let mut store = back.store().clone();
        store.push_with_width(&[NodeId(1)], 9);
        assert_eq!(store.len(), back.store().len() + 1);
    }

    #[test]
    fn touch_tracked_pool_round_trips_and_stays_refreshable() {
        let g = gen::star(24, 0.7);
        let d = graph_digest(&g);
        let pool = sample_pool(&g).with_touch_tracked(true);
        let mut bytes = Vec::new();
        write_pool(&pool, d, &mut bytes).unwrap();
        let back = read_pool_bytes(bytes, d).unwrap();
        assert_pools_equal(&pool, &back);
        assert!(back.touch_tracked());
        let deltas = [comic_graph::EdgeDelta::Remove {
            source: NodeId(0),
            target: NodeId(3),
        }];
        assert_eq!(back.invalidate(&deltas), pool.invalidate(&deltas));
        assert!(back.invalidate(&deltas).is_some());
    }

    #[test]
    fn v1_to_v3_spill_files_are_rejected_as_unsupported() {
        // Re-encode a pool under the retired versions — v1 (9 meta words
        // with a thread count, no touch provenance), v2 (11 meta words,
        // touch flag and bloom width) and v3 (today's layout, sets from
        // skip streams): the reader must refuse each with a typed version
        // error, which the serving layer surfaces as a spill reject.
        let g = gen::path(6, 0.5);
        let d = graph_digest(&g);
        let pool = sample_pool(&g);
        let store = pool.store();
        let v1_meta = vec![
            d,
            pool.num_nodes() as u64,
            pool.seed(),
            2, // threads
            pool.design_k() as u64,
            pool.epsilon().to_bits(),
            pool.kpt().to_bits(),
            u64::from(pool.capped()),
            pool.generation(),
        ];
        let mut v2_meta = v1_meta.clone();
        v2_meta.extend([0, 0]); // untouched, no blooms
        let sections = [
            SectionData::U64(store.offsets_raw()),
            SectionData::Nodes(store.nodes_raw()),
            SectionData::U64(store.widths_raw()),
        ];
        let mut v3 = Vec::new();
        write_pool(&pool, d, &mut v3).unwrap();
        v3[8..12].copy_from_slice(&3u32.to_le_bytes());
        let retired = [(1u32, v1_meta), (2, v2_meta)].map(|(version, meta)| {
            let mut bytes = Vec::new();
            write_segment(&mut bytes, POOL_MAGIC, version, &meta, &sections).unwrap();
            (version, bytes)
        });
        for (version, bytes) in retired.into_iter().chain([(3, v3)]) {
            match read_pool_bytes(bytes, d) {
                Err(GraphError::UnsupportedVersion { found, supported }) => {
                    assert_eq!(found, version);
                    assert_eq!(supported, POOL_FORMAT_VERSION);
                }
                other => panic!("v{version}: expected UnsupportedVersion, got {other:?}"),
            }
        }
    }

    #[test]
    fn stale_graph_digest_is_typed() {
        let g = gen::path(8, 0.5);
        let d = graph_digest(&g);
        let pool = sample_pool(&g);
        let mut bytes = Vec::new();
        write_pool(&pool, d, &mut bytes).unwrap();
        match read_pool_bytes(bytes, d ^ 1) {
            Err(
                e @ GraphError::StaleSource {
                    artifact: StaleArtifact::PoolSpill,
                    expected,
                    found,
                },
            ) => {
                assert_eq!(expected, d ^ 1);
                assert_eq!(found, d);
                assert_eq!(
                    e.to_string(),
                    format!(
                        "stale pool spill: the served graph has digest {:#018x} but the \
                         spill was sampled over graph {d:#018x} — rebuild the pool",
                        d ^ 1
                    )
                );
            }
            other => panic!("expected StaleSource, got {other:?}"),
        }
    }

    /// Write `sections` under the current version with `meta`, digests
    /// recomputed, to a fresh temp file.
    fn crafted_file(tag: &str, meta: &[u64], sections: &[SectionData]) -> std::path::PathBuf {
        let path = tmp_path(tag);
        let mut f = File::create(&path).unwrap();
        write_segment(&mut f, POOL_MAGIC, POOL_FORMAT_VERSION, meta, sections).unwrap();
        path
    }

    #[test]
    fn staleness_ranks_below_meta_sanity_and_above_structure() {
        // A digest-valid spill whose index has a run out of order: only
        // structural validation can tell, and a stale graph digest must
        // still win over it, both in `read_pool_file` and in the split
        // read the service combines after loading its dataset.
        let g = gen::star(30, 0.8);
        let d = graph_digest(&g);
        let pool = sample_pool(&g);
        let (store, index) = (pool.store(), pool.coverage_index());
        let mut sets = index.sets_raw().to_vec();
        let offsets = index.offsets_raw();
        let v = (0..pool.num_nodes())
            .find(|&v| offsets[v + 1] - offsets[v] >= 2)
            .expect("some node lies in two sets");
        sets.swap(offsets[v] as usize, offsets[v] as usize + 1);
        let sections = [
            SectionData::U64(store.offsets_raw()),
            SectionData::Nodes(store.nodes_raw()),
            SectionData::U64(store.widths_raw()),
            SectionData::U64(offsets),
            SectionData::U32(&sets),
        ];
        let path = crafted_file("stale-and-bad", &meta_of(&pool, d), &sections);
        let stale = d ^ 1;
        let is_stale = |r: Result<SketchPool, GraphError>| {
            matches!(r, Err(GraphError::StaleSource { artifact: StaleArtifact::PoolSpill, expected, found })
                if expected == stale && found == d)
        };
        assert!(is_stale(read_pool_file(&path, stale)));
        let spilled = read_pool_spill(&path).expect("digest-independent checks pass");
        assert_eq!(spilled.graph_digest(), d);
        assert!(is_stale(spilled.against(stale)));
        // Against the graph it was written for, the bad run is reported.
        let is_unordered = |r: Result<SketchPool, GraphError>| matches!(r, Err(GraphError::Corrupt(msg)) if msg.contains("not strictly ascending"));
        assert!(is_unordered(read_pool_file(&path, d)));
        assert!(is_unordered(read_pool_spill(&path).unwrap().against(d)));
        std::fs::remove_file(&path).ok();

        // Meta sanity ranks above staleness: the split read refuses the
        // file before any graph is known.
        let mut meta = meta_of(&pool, d);
        meta[4] = f64::NAN.to_bits();
        let path = crafted_file("bad-meta", &meta, &sections);
        for r in [
            read_pool_file(&path, stale).map(|_| ()),
            read_pool_spill(&path).map(|_| ()),
        ] {
            assert!(
                matches!(&r, Err(GraphError::Corrupt(msg)) if msg.contains("implausible epsilon")),
                "{r:?}"
            );
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn every_header_bit_flip_is_typed() {
        let g = gen::path(6, 0.6);
        let d = graph_digest(&g);
        let pool = sample_pool(&g);
        let mut bytes = Vec::new();
        write_pool(&pool, d, &mut bytes).unwrap();
        // Prefix = magic(8) + version(4) + meta(72) + count(4) + digest(8).
        let prefix = 8 + 4 + 8 * POOL_META_LEN + 4 + 8;
        for byte in 0..prefix {
            for bit in 0..8 {
                let mut b = bytes.clone();
                b[byte] ^= 1 << bit;
                assert!(
                    read_pool_bytes(b, d).is_err(),
                    "flip at byte {byte} bit {bit} must not parse"
                );
            }
        }
    }

    #[test]
    fn truncations_are_typed() {
        let g = gen::path(5, 0.5);
        let d = graph_digest(&g);
        let pool = sample_pool(&g);
        let mut bytes = Vec::new();
        write_pool(&pool, d, &mut bytes).unwrap();
        for cut in [0, 7, 50, bytes.len() - 1] {
            assert!(
                read_pool_bytes(bytes[..cut].to_vec(), d).is_err(),
                "truncation to {cut} bytes must not parse"
            );
        }
    }

    #[test]
    fn crafted_out_of_range_member_is_typed_not_a_panic() {
        // Rebuild a valid spill whose member array points past n, with the
        // digests recomputed so only structural validation can catch it:
        // a pool over 100 nodes whose meta claims n = 4.
        let g = gen::path(4, 0.5);
        let d = graph_digest(&g);
        let mut store = RrStore::new();
        store.push_with_width(&[NodeId(99)], 1); // 99 >= n = 4
        let index = CoverageIndex::build(&store, 100, 1);
        let pool = SketchPool::new(Arc::new(store), Arc::new(index), 1, 2, 0.5, 1.0, false);
        let mut meta = meta_of(&pool, d);
        meta[1] = 4;
        let (store, index) = (pool.store(), pool.coverage_index());
        let sections = [
            SectionData::U64(store.offsets_raw()),
            SectionData::Nodes(store.nodes_raw()),
            SectionData::U64(store.widths_raw()),
            SectionData::U64(index.offsets_raw()),
            SectionData::U32(index.sets_raw()),
        ];
        let mut bytes = Vec::new();
        write_segment(
            &mut bytes,
            POOL_MAGIC,
            POOL_FORMAT_VERSION,
            &meta,
            &sections,
        )
        .unwrap();
        match read_pool_bytes(bytes, d) {
            Err(GraphError::Corrupt(msg)) => {
                assert!(msg.contains("out of range"), "msg: {msg}");
            }
            other => panic!("expected Corrupt, got {other:?}"),
        }
    }
}
