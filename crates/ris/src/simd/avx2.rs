//! AVX2 kernel (x86-64). Byte-identical output to [`crate::simd::scalar`]
//! — the reference implementation — just 8 lanes at a time.
//!
//! Safety: every `#[target_feature(enable = "avx2")]` function here is
//! reachable only through the [`crate::simd`] dispatcher with
//! [`crate::simd::SimdMode::Avx2`], which is only ever produced after
//! `is_x86_feature_detected!("avx2")` succeeded, so the required CPU
//! features are guaranteed at every call site. All loads and stores are
//! unaligned (`loadu`/`storeu`); a remainder that does not fill a vector
//! is handled by the scalar reference.

#![allow(unsafe_code)]

use super::scalar;
use std::arch::x86_64::{
    __m256i, _mm256_add_epi32, _mm256_and_si256, _mm256_i32gather_epi32, _mm256_loadu_si256,
    _mm256_set1_epi32, _mm256_setzero_si256, _mm256_srli_epi32, _mm256_srlv_epi32,
    _mm256_storeu_si256,
};

/// Count ids whose bit in `covered` is clear: 8 ids per iteration via a
/// `vpgatherdd` gather of the 32-bit words holding each bit, then a
/// variable shift and mask. The bitset is addressed as little-endian
/// 32-bit words, which on x86-64 lays out identically to the `u64` array
/// (bit `i` lives in 32-bit word `i / 32` at position `i % 32`).
pub(crate) fn count_uncovered(ids: &[u32], covered: &[u64]) -> u64 {
    // SAFETY: dispatcher guarantees AVX2 (module docs).
    unsafe { count_uncovered_impl(ids, covered) }
}

#[target_feature(enable = "avx2")]
unsafe fn count_uncovered_impl(ids: &[u32], covered: &[u64]) -> u64 {
    let chunks = ids.len() / 8;
    let base = covered.as_ptr() as *const i32;
    let thirty_one = _mm256_set1_epi32(31);
    let one = _mm256_set1_epi32(1);
    let mut acc = _mm256_setzero_si256();
    for c in 0..chunks {
        let v = _mm256_loadu_si256(ids.as_ptr().add(c * 8) as *const __m256i);
        // Word index = id / 32; the caller guarantees id < 64 * covered.len(),
        // so every gathered lane stays inside the bitset allocation.
        let word_idx = _mm256_srli_epi32(v, 5);
        let words = _mm256_i32gather_epi32::<4>(base, word_idx);
        let bit = _mm256_and_si256(
            _mm256_srlv_epi32(words, _mm256_and_si256(v, thirty_one)),
            one,
        );
        // Count *covered* lanes; uncovered = len - covered at the end.
        acc = _mm256_add_epi32(acc, bit);
    }
    let mut lanes = [0i32; 8];
    _mm256_storeu_si256(lanes.as_mut_ptr() as *mut __m256i, acc);
    let covered_cnt: u64 = lanes.iter().map(|&x| x as u64).sum();
    let head = chunks * 8;
    (head as u64 - covered_cnt) + scalar::count_uncovered(&ids[head..], covered)
}
