//! # comic-graph
//!
//! Directed probabilistic graph substrate for the Com-IC reproduction.
//!
//! A social network in this workspace is a [`DiGraph`]: a directed graph in
//! compressed-sparse-row (CSR) form storing an influence probability
//! `p(u, v) ∈ [0, 1]` on every edge, with O(1) access to both the
//! out-neighbourhood and the in-neighbourhood of a node. Influence
//! maximization algorithms traverse edges forwards (diffusion) and backwards
//! (reverse-reachable set sampling) in tight inner loops, so both directions
//! are laid out contiguously.
//!
//! The crate also provides:
//!
//! * [`builder::GraphBuilder`] — incremental construction with de-duplication.
//! * [`delta`] — the append-only edge-delta log (`COMICDLT`) and
//!   [`DiGraph::apply_deltas`] compaction for dynamic graphs.
//! * [`gen`] — random-graph generators (Erdős–Rényi, Chung–Lu power law,
//!   Watts–Strogatz, Barabási–Albert) and deterministic gadget builders used
//!   by tests and the paper's counter-examples.
//! * [`prob`] — edge-probability assignment models (weighted cascade,
//!   trivalency, constant, uniform).
//! * [`stats`] — degree statistics matching the paper's Table 1.
//! * [`scc`] — Tarjan strongly-connected components (the paper extracts an
//!   SCC of Flixster).
//! * [`io`] — text edge-list and compact binary formats.
//! * [`store`] — the zero-copy v4 segment store (mmap fast path with a safe
//!   bulk-read fallback, `COMIC_MMAP` override).
//! * [`fasthash`] / [`scratch`] — the Fx hash and generation-stamped scratch
//!   arrays shared by every sampler in the workspace.

// `deny` (not `forbid`) so the two audited modules inside `store` — the
// read-only file mapping and the Pod reinterpretation — can scope an
// `allow`; everything else in the crate remains unsafe-free.
#![deny(unsafe_code)]
#![warn(missing_docs)]

pub mod builder;
pub mod csr;
pub mod delta;
pub mod error;
pub mod fasthash;
pub mod gen;
pub mod io;
pub mod par;
pub mod prob;
pub mod scc;
pub mod scratch;
pub mod stats;
pub mod store;
pub mod traversal;

pub use builder::GraphBuilder;
pub use csr::{DiGraph, Edge, EdgeId, NodeId};
pub use delta::EdgeDelta;
pub use error::{GraphError, StaleArtifact};
