//! Runtime-dispatched SIMD kernel for both selectors' marginal-gain count.
//!
//! [`crate::select::NaiveGreedy`] recounts every candidate's marginal gain
//! each round, and [`crate::select::CelfGreedy`] recounts each node it
//! pops from its heap, by scanning the node's set-id list against the
//! covered-set bitset. That scan is [`count_uncovered`], with two
//! implementations:
//!
//! * [`scalar`] — portable safe Rust, the **reference implementation**.
//!   Every other path is defined as "byte-identical output to scalar".
//! * [`avx2`] (x86-64 only) — explicit 256-bit vectors: `vpgatherdd` word
//!   gathers, a variable shift and a mask, 8 ids per iteration.
//!
//! The bit helpers ([`words_for`], [`test_bit`], [`set_bit`]) are the
//! covered-set bitset both selectors share.
//!
//! # Dispatch
//!
//! [`active`] resolves the mode once per process: the `COMIC_SIMD`
//! environment variable wins (`off` / `scalar` / `0` force the scalar
//! reference for both selectors — CI's forced-scalar leg pins exactly
//! this; `avx2` requests the vector path), otherwise [`detect`] probes
//! the CPU with `is_x86_feature_detected!("avx2")`. A requested-but-unsupported mode
//! falls back to scalar rather than failing: the knob selects among
//! *correct* implementations, so the worst case is speed, never output.
//!
//! # Determinism contract
//!
//! The kernel computes an exact integer count with no
//! reassociation-sensitive arithmetic, so every mode returns bit-identical
//! values on every input — the property `tests/properties.rs` pins with a
//! SIMD ≡ scalar proptest and the selector suite extends to whole seed
//! selections.

#[cfg(target_arch = "x86_64")]
pub(crate) mod avx2;
pub(crate) mod scalar;

use std::sync::OnceLock;

/// Which kernel implementation services [`count_uncovered`].
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum SimdMode {
    /// Portable scalar reference (always available, defines correctness).
    Scalar,
    /// Runtime-detected AVX2 vector kernels (x86-64 with the `avx2`
    /// feature flag set by [`detect`]).
    Avx2,
}

impl SimdMode {
    /// Display name (`"scalar"` / `"avx2"`), used in bench snapshots.
    pub fn name(self) -> &'static str {
        match self {
            SimdMode::Scalar => "scalar",
            SimdMode::Avx2 => "avx2",
        }
    }
}

/// Probe the CPU: [`SimdMode::Avx2`] when the host supports it, scalar
/// otherwise. Ignores the `COMIC_SIMD` override — see [`active`] for the
/// process-wide policy.
pub fn detect() -> SimdMode {
    #[cfg(target_arch = "x86_64")]
    {
        if std::arch::is_x86_feature_detected!("avx2") {
            return SimdMode::Avx2;
        }
    }
    SimdMode::Scalar
}

/// The process-wide kernel mode: `COMIC_SIMD` override first (`off`,
/// `scalar`, or `0` force scalar; `avx2` requests vectors, granted only
/// when [`detect`] agrees), hardware detection otherwise. Resolved once
/// and cached — selectors call this on every `select`, so it must be a
/// load, not a `getenv`.
pub fn active() -> SimdMode {
    static MODE: OnceLock<SimdMode> = OnceLock::new();
    *MODE.get_or_init(|| match std::env::var("COMIC_SIMD") {
        Ok(v) => match v.to_ascii_lowercase().as_str() {
            "off" | "scalar" | "0" | "false" => SimdMode::Scalar,
            "avx2" | "on" => detect(),
            _ => detect(),
        },
        Err(_) => detect(),
    })
}

/// Number of `u64` words a bitset over `bits` bits needs.
pub fn words_for(bits: usize) -> usize {
    bits.div_ceil(64)
}

/// Test bit `i` of a word-array bitset.
#[inline]
pub fn test_bit(words: &[u64], i: usize) -> bool {
    words[i >> 6] & (1u64 << (i & 63)) != 0
}

/// Set bit `i` of a word-array bitset.
#[inline]
pub fn set_bit(words: &mut [u64], i: usize) {
    words[i >> 6] |= 1u64 << (i & 63);
}

/// How many of `ids` index a **zero** bit of `covered` — the marginal-gain
/// coverage count over a node's (set-id-sorted) membership list against
/// the covered-set bitset. Every id must be `< covered.len() * 64`.
#[inline]
pub fn count_uncovered(mode: SimdMode, ids: &[u32], covered: &[u64]) -> u64 {
    match mode {
        SimdMode::Scalar => scalar::count_uncovered(ids, covered),
        #[cfg(target_arch = "x86_64")]
        // SAFETY-by-construction: Avx2 is only ever produced by `detect`,
        // which gates on `is_x86_feature_detected!("avx2")`.
        SimdMode::Avx2 => avx2::count_uncovered(ids, covered),
        #[cfg(not(target_arch = "x86_64"))]
        SimdMode::Avx2 => scalar::count_uncovered(ids, covered),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::SmallRng;
    use rand::{RngExt, SeedableRng};

    /// Every mode available on this host (scalar always; AVX2 when
    /// detected). Cross-mode tests iterate this so they are vacuous
    /// nowhere and exhaustive on capable hardware.
    fn modes() -> Vec<SimdMode> {
        let mut m = vec![SimdMode::Scalar];
        if detect() == SimdMode::Avx2 {
            m.push(SimdMode::Avx2);
        }
        m
    }

    fn random_words(rng: &mut SmallRng, len: usize, density_num: u64) -> Vec<u64> {
        (0..len)
            .map(|_| {
                let mut w = 0u64;
                for _ in 0..density_num {
                    w |= 1u64 << rng.random_range(0..64u32);
                }
                w
            })
            .collect()
    }

    #[test]
    fn bit_helpers_round_trip() {
        assert_eq!(words_for(0), 0);
        assert_eq!(words_for(1), 1);
        assert_eq!(words_for(64), 1);
        assert_eq!(words_for(65), 2);
        let mut w = vec![0u64; 3];
        for i in [0usize, 1, 63, 64, 127, 128, 191] {
            assert!(!test_bit(&w, i));
            set_bit(&mut w, i);
            assert!(test_bit(&w, i));
        }
        assert_eq!(w.iter().map(|x| x.count_ones()).sum::<u32>(), 7);
    }

    #[test]
    fn count_uncovered_matches_bruteforce_in_every_mode() {
        let mut rng = SmallRng::seed_from_u64(3);
        let words = random_words(&mut rng, 16, 30); // bit space 0..1024
        for ids_len in [0usize, 1, 5, 7, 8, 9, 16, 100, 333] {
            let ids: Vec<u32> = (0..ids_len).map(|_| rng.random_range(0..1024u32)).collect();
            let expect = ids
                .iter()
                .filter(|&&i| !test_bit(&words, i as usize))
                .count() as u64;
            for mode in modes() {
                assert_eq!(
                    count_uncovered(mode, &ids, &words),
                    expect,
                    "{mode:?} len {ids_len}"
                );
            }
        }
    }

    #[test]
    fn count_uncovered_hits_every_word_boundary() {
        // Ids landing on bits 63/64 and at the very top of the space catch
        // shift/index errors in the gather path.
        let mut words = vec![0u64; 4];
        for i in [0usize, 63, 64, 127, 128, 255] {
            set_bit(&mut words, i);
        }
        let ids: Vec<u32> = (0..256u32).collect();
        for mode in modes() {
            assert_eq!(count_uncovered(mode, &ids, &words), 256 - 6, "{mode:?}");
        }
    }

    #[test]
    fn dispatcher_names_and_detection_are_sane() {
        assert_eq!(SimdMode::Scalar.name(), "scalar");
        assert_eq!(SimdMode::Avx2.name(), "avx2");
        // `active` must be one of the two modes and stable across calls.
        assert_eq!(active(), active());
        assert!(matches!(active(), SimdMode::Scalar | SimdMode::Avx2));
        // The override can only ever *restrict* to scalar; if the env asked
        // for scalar, active must obey (CI's forced-scalar leg relies on
        // this).
        if std::env::var("COMIC_SIMD")
            .map(|v| ["off", "scalar", "0", "false"].contains(&v.to_ascii_lowercase().as_str()))
            == Ok(true)
        {
            assert_eq!(active(), SimdMode::Scalar);
        }
    }
}
