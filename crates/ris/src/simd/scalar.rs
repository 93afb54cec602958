//! Portable scalar kernel — the reference implementation the SIMD path is
//! checked against (see the [`crate::simd`] module docs).
//!
//! The loop is written for clarity first: the bit test in
//! [`count_uncovered`] is a load, shift, and mask. The AVX2 variant wins
//! by processing 8 lanes per iteration, not by doing anything smarter.

/// Count ids whose bit in `covered` is clear — see
/// [`crate::simd::count_uncovered`].
pub(crate) fn count_uncovered(ids: &[u32], covered: &[u64]) -> u64 {
    let mut uncovered = 0u64;
    for &id in ids {
        let word = covered[(id >> 6) as usize];
        uncovered += u64::from(word >> (id & 63) & 1 == 0);
    }
    uncovered
}
