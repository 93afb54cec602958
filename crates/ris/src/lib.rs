//! # comic-ris
//!
//! The generalized **reverse-reachable set** (RR-set) framework of the paper's
//! §6.1 — a from-scratch implementation of the TIM algorithm of Tang et al.
//! (SIGMOD'14) lifted to *any* diffusion model with an equivalent possible
//! world model satisfying properties (P1)/(P2) (monotonicity and
//! submodularity of the per-world activation indicator, Lemmas 4–5).
//!
//! The framework is agnostic to how a single RR-set is produced: a
//! [`sampler::RrSampler`] implements Definition 1 ("all nodes `u` such that
//! the singleton seed `{u}` would activate the root in the sampled world").
//! This crate ships the classic-IC sampler ([`ic_sampler::IcRrSampler`],
//! powering the paper's *VanillaIC* baseline); the Com-IC samplers RR-SIM,
//! RR-SIM+ and RR-CIM live in `comic-algos`.
//!
//! Pipeline ([`pipeline::RisPipeline`], running `GeneralTIM` = Algorithm 1
//! of the paper):
//!
//! 1. estimate a lower bound `KPT*` of the optimal spread
//!    ([`kpt::kpt_star_with`], TIM's Algorithm 2 generalized to arbitrary
//!    RR-sets);
//! 2. derive the sample count θ from Equation (3) ([`tim::theta`]);
//! 3. sample θ random RR-sets ([`rr::RrStore`]);
//! 4. greedily pick the `k` nodes covering the most sets through the
//!    [`select`] engine: an inverted [`select::CoverageIndex`] plus an
//!    interchangeable [`select::SeedSelector`] (CELF lazy-greedy by
//!    default, exhaustive greedy as the oracle).
//!
//! Steps 1 and 3 — the wall-clock bottleneck at paper scale — run sharded
//! across worker threads through one sampling loop,
//! [`parallel::ShardedGenerator`], where every RR-set is sampled from a
//! stream seed keyed on its index in the batch (the IC sampler keys its
//! coins on that seed and each edge, which lets a delta refit resample
//! only the sets whose live edges changed). Sampling builds no index: step
//! 4's coverage index is built once over the finished store by
//! [`select::CoverageIndex::build`] (parallel over contiguous set ranges)
//! and stays resident on the [`pool::SketchPool`], so every later
//! selection reads it in place. Both selectors' marginal-gain recounts
//! run on the runtime-dispatched kernel of [`simd`] (AVX2 with a scalar
//! reference fallback, overridable via `COMIC_SIMD=off`).
//! [`tim::general_tim_with`] is the classic entry point. Everything is
//! deterministic for a fixed seed and identical for every thread count —
//! pool bytes, KPT*, θ and the selected seeds — and seed *selection* is
//! additionally identical across selectors and SIMD modes.

// `unsafe` is denied crate-wide and allowed back in exactly one place: the
// AVX2 intrinsics of `simd::avx2`, whose outputs are pinned byte-identical
// to the safe scalar reference by tests and proptests.
#![deny(unsafe_code)]
#![warn(missing_docs)]

pub mod error;
pub mod ic_sampler;
pub mod kpt;
pub mod parallel;
pub mod pipeline;
pub mod pool;
pub mod rr;
pub mod sampler;
pub mod select;
pub mod simd;
pub mod spill;
pub mod tim;

pub use error::RisError;
pub use parallel::ShardedGenerator;
pub use pipeline::{PoolStage, RisPipeline};
pub use pool::SketchPool;
pub use rr::RrStore;
pub use sampler::RrSampler;
pub use select::{CoverageIndex, SeedSelector, SelectorKind};
pub use simd::SimdMode;
pub use tim::{general_tim_with, TimConfig, TimResult};
