//! Property tests for the on-disk graph store (`COMICGRB` v4):
//!
//! * the segment store round-trips bit-exactly and digest-stably;
//! * ANY single-bit flip and ANY truncation of a store file is rejected
//!   with a typed [`GraphError`] — never a panic, never a silently-wrong
//!   graph;
//! * a store loaded from bytes or from a file, in `StoreMode::Mmap` and
//!   `StoreMode::Read`, carries the original graph's [`graph_digest`].

// The proptest shim's macro expands tests recursively; several properties
// in one block exceed the default limit.
#![recursion_limit = "256"]

use comic_graph::builder::GraphBuilder;
use comic_graph::error::GraphError;
use comic_graph::io::graph_digest;
use comic_graph::store::{
    mmap_supported, read_store_bytes, read_store_file_with, write_store, write_store_file,
    StoreMode, STORE_FORMAT_VERSION,
};
use comic_graph::DiGraph;
use proptest::prelude::*;

/// Arbitrary small graphs: a node count and an edge soup (endpoints taken
/// modulo `n`, so every generated pair is in range; the builder dedups and
/// drops self-loops on its own).
fn arb_graph() -> impl Strategy<Value = DiGraph> {
    (
        2u32..48,
        proptest::collection::vec((0u32..1024, 0u32..1024, 1u64..1000), 0..96),
    )
        .prop_map(|(n, edges)| {
            let mut b = GraphBuilder::new(n as usize);
            for (u, v, w) in edges {
                b.add_edge(u % n, v % n, w as f64 / 1000.0);
            }
            b.build().expect("generated graphs are structurally valid")
        })
}

fn v4_bytes(g: &DiGraph, src: u64) -> Vec<u8> {
    let mut buf = Vec::new();
    write_store(g, src, &mut buf).expect("serializing to a Vec cannot fail");
    buf
}

/// The errors a damaged store may produce. `StaleSource` is not one of
/// them: the header digest covers the recorded source digest, so a flipped
/// provenance bit is a `DigestMismatch`, never a stale cache.
fn is_typed_rejection(e: &GraphError) -> bool {
    matches!(
        e,
        GraphError::Corrupt(_)
            | GraphError::DigestMismatch { .. }
            | GraphError::UnsupportedVersion { .. }
    )
}

fn tmp_path(tag: &str) -> std::path::PathBuf {
    static SEQ: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);
    let k = SEQ.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
    std::env::temp_dir().join(format!(
        "comic_store_props_{}_{}_{tag}.grb",
        std::process::id(),
        k
    ))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// write ∘ read ∘ write is bit-exact, and the loaded graph carries the
    /// same structural digest as the original.
    #[test]
    fn v4_round_trip_is_bit_exact(g in arb_graph()) {
        let src = 0x5EED_u64;
        let bytes = v4_bytes(&g, src);
        let h = read_store_bytes(bytes.clone(), Some(src)).expect("own bytes must load");
        prop_assert_eq!(graph_digest(&g), graph_digest(&h));
        prop_assert_eq!(g.num_nodes(), h.num_nodes());
        prop_assert_eq!(g.num_edges(), h.num_edges());
        prop_assert_eq!(v4_bytes(&h, src), bytes);
    }

    /// Flipping ANY single bit of a v4 file makes the load fail with a
    /// typed error: every byte is covered by the magic, the version field,
    /// the header digest, or the content digest (including the digest
    /// fields themselves).
    #[test]
    fn v4_any_single_bit_flip_is_rejected(g in arb_graph(), pos_seed in 0usize..1 << 20, bit in 0u32..8) {
        let mut bytes = v4_bytes(&g, 0x5EED);
        let pos = pos_seed % bytes.len();
        bytes[pos] ^= 1u8 << bit;
        match read_store_bytes(bytes, Some(0x5EED)) {
            Err(e) if is_typed_rejection(&e) => {}
            Err(e) => prop_assert!(false, "untyped error for flip at byte {pos}: {e}"),
            Ok(_) => prop_assert!(false, "flip at byte {pos} bit {bit} loaded successfully"),
        }
    }

    /// Truncating a v4 file at ANY proper prefix is rejected typed.
    #[test]
    fn v4_any_truncation_is_rejected(g in arb_graph(), cut_seed in 0usize..1 << 20) {
        let bytes = v4_bytes(&g, 0x5EED);
        let cut = cut_seed % bytes.len();
        match read_store_bytes(bytes[..cut].to_vec(), Some(0x5EED)) {
            Err(GraphError::Corrupt(_) | GraphError::DigestMismatch { .. }) => {}
            Err(e) => prop_assert!(false, "untyped error for truncation at {cut}: {e}"),
            Ok(_) => prop_assert!(false, "truncation at {cut} loaded successfully"),
        }
    }

    /// A store read back from bytes, and from a file in both store modes,
    /// carries the original graph's digest.
    #[test]
    fn v4_load_paths_reproduce_the_graph(g in arb_graph()) {
        let src = 0xF1D0_u64;
        let want = graph_digest(&g);
        let from_bytes = read_store_bytes(v4_bytes(&g, src), Some(src)).expect("v4 bytes must load");
        prop_assert_eq!(graph_digest(&from_bytes), want);

        let path = tmp_path("agree");
        write_store_file(&g, src, &path).expect("v4 file write");
        for mode in [StoreMode::Read, StoreMode::Mmap] {
            let h = read_store_file_with(&path, Some(src), mode).expect("v4 file load");
            prop_assert_eq!(graph_digest(&h), want);
            if mode == StoreMode::Mmap && mmap_supported() {
                prop_assert!(h.is_mapped());
            }
        }
        std::fs::remove_file(&path).ok();
    }
}

/// Every single-bit flip of the version field (bytes 8..12) is a typed
/// `UnsupportedVersion` naming the version it found. A seeded sweep rarely
/// lands on these 32 cases, so they are checked one by one.
#[test]
fn v4_version_field_flips_are_unsupported_versions() {
    let g = GraphBuilder::new(3).build().expect("empty graph");
    let bytes = v4_bytes(&g, 0x5EED);
    for byte in 8..12 {
        for bit in 0..8 {
            let mut b = bytes.clone();
            b[byte] ^= 1u8 << bit;
            let found = u32::from_le_bytes(b[8..12].try_into().expect("4 bytes"));
            match read_store_bytes(b, Some(0x5EED)) {
                Err(GraphError::UnsupportedVersion {
                    found: f,
                    supported: STORE_FORMAT_VERSION,
                }) => assert_eq!(f, found, "flip {byte}.{bit}"),
                other => panic!("flip {byte}.{bit}: expected UnsupportedVersion, got {other:?}"),
            }
        }
    }
}
