//! A mergeable distinct counter: dense HyperLogLog registers.
//!
//! State is a fixed array of `m = 2^P` one-byte registers, each holding
//! the maximum leading-zero rank observed for hashes routed to it. Merge
//! is register-wise max — trivially associative, commutative, idempotent,
//! and order-invariant down to the byte, which is exactly the confluence
//! property PS3's picked-partition combination requires (see
//! [`crate::quantile`] for the full argument; it applies verbatim here).
//!
//! The estimator is the classic HyperLogLog one with the small-range
//! linear-counting correction; at `P = 12` the standard error is
//! `1.04/√4096 ≈ 1.6%`. No sparse mode and no 64-bit large-range
//! correction: registers cost 4 KiB per sketch, which the per-partition
//! statistics budget absorbs, and 64-bit hashes don't saturate.

/// Dense-register HyperLogLog distinct counter.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DistinctSketch {
    /// `2^P` registers of max leading-zero ranks.
    registers: Box<[u8]>,
}

impl Default for DistinctSketch {
    fn default() -> Self {
        Self::new()
    }
}

impl DistinctSketch {
    /// Register-index bits: `m = 2^P = 4096` registers (SE ≈ 1.6%).
    pub const PRECISION: u32 = 12;

    /// Number of registers.
    pub const REGISTERS: usize = 1 << Self::PRECISION;

    /// Relative standard error of the estimator: `1.04/√m`.
    pub fn standard_error() -> f64 {
        1.04 / (Self::REGISTERS as f64).sqrt()
    }

    /// An empty sketch.
    pub fn new() -> Self {
        Self {
            registers: vec![0u8; Self::REGISTERS].into_boxed_slice(),
        }
    }

    /// Insert a pre-hashed key (use [`crate::hash`] so equal values hash
    /// equal: `hash_f64` canonicalizes `±0.0` and NaN payloads).
    #[inline]
    pub fn insert_hash(&mut self, h: u64) {
        let j = (h >> (64 - Self::PRECISION)) as usize;
        let rest = h << Self::PRECISION;
        // Rank of the first set bit in the remaining 52 bits (1-based);
        // an all-zero remainder gets the saturating rank 53.
        let rho = (rest.leading_zeros() + 1).min(64 - Self::PRECISION + 1) as u8;
        if rho > self.registers[j] {
            self.registers[j] = rho;
        }
    }

    /// Merge: register-wise max.
    pub fn merge_from(&mut self, other: &DistinctSketch) {
        for (a, &b) in self.registers.iter_mut().zip(other.registers.iter()) {
            if b > *a {
                *a = b;
            }
        }
    }

    /// Whether no key was ever inserted.
    pub fn is_empty(&self) -> bool {
        self.registers.iter().all(|&r| r == 0)
    }

    /// The distinct-count estimate. Deterministic: the harmonic sum runs
    /// in register order.
    pub fn estimate(&self) -> f64 {
        let m = Self::REGISTERS as f64;
        let mut sum = 0.0;
        let mut zeros = 0u32;
        for &r in self.registers.iter() {
            sum += pow2_neg(r);
            if r == 0 {
                zeros += 1;
            }
        }
        let alpha = 0.7213 / (1.0 + 1.079 / m);
        let raw = alpha * m * m / sum;
        if raw <= 2.5 * m && zeros > 0 {
            // Small-range correction: linear counting on empty registers.
            m * (m / f64::from(zeros)).ln()
        } else {
            raw
        }
    }

    /// The raw registers (codec + tests).
    pub fn registers(&self) -> &[u8] {
        &self.registers
    }

    /// Rebuild from raw registers; the codec validates length and rank
    /// range before calling.
    pub fn from_registers(registers: Box<[u8]>) -> Self {
        debug_assert_eq!(registers.len(), Self::REGISTERS);
        Self { registers }
    }
}

/// `2^-r` exactly, for register ranks `0 ≤ r ≤ 53`.
#[inline]
fn pow2_neg(r: u8) -> f64 {
    f64::from_bits((1023 - u64::from(r)) << 52)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hash::{hash_f64, hash_u64};

    #[test]
    fn empty_estimates_zero() {
        let s = DistinctSketch::new();
        assert!(s.is_empty());
        assert_eq!(s.estimate(), 0.0);
    }

    #[test]
    fn pow2_neg_is_exact() {
        for r in 0u8..=53 {
            assert_eq!(pow2_neg(r), 2f64.powi(-i32::from(r)), "r={r}");
        }
    }

    #[test]
    fn estimate_tracks_cardinality() {
        for &n in &[10u64, 500, 5_000, 100_000] {
            let mut s = DistinctSketch::new();
            for i in 0..n {
                s.insert_hash(hash_u64(i));
            }
            let est = s.estimate();
            let rel = (est - n as f64).abs() / n as f64;
            // 5 standard errors of slack keeps this deterministic test
            // far from the boundary while still meaningful.
            assert!(
                rel < 5.0 * DistinctSketch::standard_error(),
                "n={n} est={est} rel={rel}"
            );
        }
    }

    #[test]
    fn duplicates_do_not_inflate() {
        let mut s = DistinctSketch::new();
        for _ in 0..10_000 {
            s.insert_hash(hash_f64(3.25));
        }
        assert!(!s.is_empty());
        let est = s.estimate();
        assert!((0.5..=2.0).contains(&est), "est={est}");
    }

    #[test]
    fn merge_is_register_max_and_order_invariant() {
        let mut a = DistinctSketch::new();
        let mut b = DistinctSketch::new();
        for i in 0..1000u64 {
            a.insert_hash(hash_u64(i));
            b.insert_hash(hash_u64(i + 500)); // overlap 500..1000
        }
        let mut ab = a.clone();
        ab.merge_from(&b);
        let mut ba = b.clone();
        ba.merge_from(&a);
        assert_eq!(ab, ba);
        // Merge equals single-pass over the union.
        let mut whole = DistinctSketch::new();
        for i in 0..1500u64 {
            whole.insert_hash(hash_u64(i));
        }
        assert_eq!(ab, whole);
        let rel = (ab.estimate() - 1500.0).abs() / 1500.0;
        assert!(rel < 5.0 * DistinctSketch::standard_error(), "rel={rel}");
    }

    #[test]
    fn saturating_rank_on_zero_remainder() {
        // A hash whose low 52 bits are zero must take the max rank, not 65.
        let mut s = DistinctSketch::new();
        s.insert_hash(0);
        assert_eq!(s.registers()[0], 53);
    }
}
