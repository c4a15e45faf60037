//! The measures sketch: min, max, first and second moments — and the same on
//! the log-transformed column when every value is positive (§3.1).
//!
//! The log variants let the picker reason about multiplicative aggregates
//! (paper footnote 2: multiply/divide projections are supported "using
//! statistics computed over the logs of the columns").

/// Streaming O(1)-space summary of a numeric column slice.
#[derive(Debug, Clone, PartialEq)]
pub struct Measures {
    count: u64,
    sum: f64,
    sum_sq: f64,
    min: f64,
    max: f64,
    /// Log-space moments; only meaningful while `all_positive` holds.
    log_sum: f64,
    log_sum_sq: f64,
    log_min: f64,
    log_max: f64,
    all_positive: bool,
}

impl Default for Measures {
    fn default() -> Self {
        Self::new()
    }
}

impl Measures {
    /// An empty sketch.
    pub fn new() -> Self {
        Self {
            count: 0,
            sum: 0.0,
            sum_sq: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
            log_sum: 0.0,
            log_sum_sq: 0.0,
            log_min: f64::INFINITY,
            log_max: f64::NEG_INFINITY,
            all_positive: true,
        }
    }

    /// Build from a slice in one pass.
    pub fn from_values(values: &[f64]) -> Self {
        let mut m = Self::new();
        for &v in values {
            m.update(v);
        }
        m
    }

    /// Fold one value into the sketch.
    #[inline]
    pub fn update(&mut self, v: f64) {
        self.count += 1;
        self.sum += v;
        self.sum_sq += v * v;
        if v < self.min {
            self.min = v;
        }
        if v > self.max {
            self.max = v;
        }
        if self.all_positive {
            if v > 0.0 {
                let l = v.ln();
                self.log_sum += l;
                self.log_sum_sq += l * l;
                if l < self.log_min {
                    self.log_min = l;
                }
                if l > self.log_max {
                    self.log_max = l;
                }
            } else {
                self.all_positive = false;
            }
        }
    }

    /// Merge another sketch built over disjoint rows (bulk-append support).
    pub fn merge(&mut self, other: &Measures) {
        self.count += other.count;
        self.sum += other.sum;
        self.sum_sq += other.sum_sq;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
        self.all_positive &= other.all_positive;
        if self.all_positive {
            self.log_sum += other.log_sum;
            self.log_sum_sq += other.log_sum_sq;
            self.log_min = self.log_min.min(other.log_min);
            self.log_max = self.log_max.max(other.log_max);
        }
    }

    /// Number of values folded in.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of values.
    pub fn sum(&self) -> f64 {
        self.sum
    }

    /// Mean, or 0 for an empty sketch.
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum / self.count as f64
        }
    }

    /// Mean of squares (the paper's `x²` feature), or 0 when empty.
    pub fn second_moment(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum_sq / self.count as f64
        }
    }

    /// Population standard deviation, clamped at 0 against rounding.
    pub fn std(&self) -> f64 {
        let var = self.second_moment() - self.mean() * self.mean();
        var.max(0.0).sqrt()
    }

    /// Minimum, or 0 when empty.
    pub fn min(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.min
        }
    }

    /// Maximum, or 0 when empty.
    pub fn max(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.max
        }
    }

    /// Whether every observed value was strictly positive (log stats valid).
    pub fn all_positive(&self) -> bool {
        self.all_positive && self.count > 0
    }

    /// `(mean(log x), mean(log²x), min(log x), max(log x))`, or `None` when a
    /// non-positive value was seen.
    pub fn log_stats(&self) -> Option<(f64, f64, f64, f64)> {
        if !self.all_positive() {
            return None;
        }
        let n = self.count as f64;
        Some((
            self.log_sum / n,
            self.log_sum_sq / n,
            self.log_min,
            self.log_max,
        ))
    }

    /// The raw accumulator state, for bit-exact persistence: artifacts
    /// round-trip the raw sums, not derived values (mean, second moment),
    /// so a thawed sketch is indistinguishable — to the last bit — from the
    /// one the trainer built.
    pub fn raw_parts(&self) -> MeasuresRaw {
        MeasuresRaw {
            count: self.count,
            sum: self.sum,
            sum_sq: self.sum_sq,
            min: self.min,
            max: self.max,
            log_sum: self.log_sum,
            log_sum_sq: self.log_sum_sq,
            log_min: self.log_min,
            log_max: self.log_max,
            all_positive: self.all_positive,
        }
    }

    /// Rebuild a sketch from [`raw_parts`](Self::raw_parts) output.
    pub fn from_raw_parts(raw: MeasuresRaw) -> Self {
        Self {
            count: raw.count,
            sum: raw.sum,
            sum_sq: raw.sum_sq,
            min: raw.min,
            max: raw.max,
            log_sum: raw.log_sum,
            log_sum_sq: raw.log_sum_sq,
            log_min: raw.log_min,
            log_max: raw.log_max,
            all_positive: raw.all_positive,
        }
    }
}

/// The complete accumulator state of a [`Measures`] sketch, exposed for
/// bit-exact persistence (`ps3_stats`' artifact codec).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MeasuresRaw {
    /// Number of values folded in.
    pub count: u64,
    /// Raw sum.
    pub sum: f64,
    /// Raw sum of squares.
    pub sum_sq: f64,
    /// Minimum (`+inf` when empty).
    pub min: f64,
    /// Maximum (`-inf` when empty).
    pub max: f64,
    /// Sum of logs (valid while `all_positive`).
    pub log_sum: f64,
    /// Sum of squared logs.
    pub log_sum_sq: f64,
    /// Minimum log.
    pub log_min: f64,
    /// Maximum log.
    pub log_max: f64,
    /// Whether every observed value was strictly positive.
    pub all_positive: bool,
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn basic_stats() {
        let m = Measures::from_values(&[1.0, 2.0, 3.0, 4.0]);
        assert_eq!(m.count(), 4);
        assert_eq!(m.sum(), 10.0);
        assert_eq!(m.mean(), 2.5);
        assert_eq!(m.min(), 1.0);
        assert_eq!(m.max(), 4.0);
        assert!((m.std() - (1.25f64).sqrt()).abs() < 1e-12);
        assert!((m.second_moment() - 7.5).abs() < 1e-12);
    }

    #[test]
    fn log_stats_for_positive_columns() {
        let m = Measures::from_values(&[1.0, std::f64::consts::E]);
        let (mean_l, m2_l, min_l, max_l) = m.log_stats().unwrap();
        assert!((mean_l - 0.5).abs() < 1e-12);
        assert!((m2_l - 0.5).abs() < 1e-12);
        assert_eq!(min_l, 0.0);
        assert!((max_l - 1.0).abs() < 1e-12);
    }

    #[test]
    fn log_stats_disabled_by_nonpositive() {
        assert!(Measures::from_values(&[1.0, 0.0]).log_stats().is_none());
        assert!(Measures::from_values(&[-1.0, 2.0]).log_stats().is_none());
        assert!(Measures::from_values(&[]).log_stats().is_none());
    }

    #[test]
    fn empty_is_all_zeros() {
        let m = Measures::new();
        assert_eq!(m.mean(), 0.0);
        assert_eq!(m.min(), 0.0);
        assert_eq!(m.max(), 0.0);
        assert_eq!(m.std(), 0.0);
    }

    #[test]
    fn merge_matches_bulk() {
        let all = [5.0, 1.0, 4.0, 2.0, 9.0, 6.0];
        let mut a = Measures::from_values(&all[..3]);
        let b = Measures::from_values(&all[3..]);
        a.merge(&b);
        let whole = Measures::from_values(&all);
        assert_eq!(a.count(), whole.count());
        assert!((a.mean() - whole.mean()).abs() < 1e-12);
        assert_eq!(a.min(), whole.min());
        assert_eq!(a.max(), whole.max());
        assert_eq!(a.log_stats().is_some(), whole.log_stats().is_some());
    }

    proptest! {
        #[test]
        fn ordering_invariant(values in prop::collection::vec(-1e6f64..1e6, 1..200)) {
            let m = Measures::from_values(&values);
            prop_assert!(m.min() <= m.mean() + 1e-9);
            prop_assert!(m.mean() <= m.max() + 1e-9);
            prop_assert!(m.std() >= 0.0);
            prop_assert!(m.std() <= (m.max() - m.min()) + 1e-9);
        }

        #[test]
        fn merge_is_append(values in prop::collection::vec(-1e3f64..1e3, 2..100),
                           split in 0usize..100) {
            let split = split % values.len();
            let mut left = Measures::from_values(&values[..split]);
            left.merge(&Measures::from_values(&values[split..]));
            let whole = Measures::from_values(&values);
            prop_assert_eq!(left.count(), whole.count());
            prop_assert!((left.sum() - whole.sum()).abs() < 1e-6);
            prop_assert_eq!(left.min().to_bits(), whole.min().to_bits());
            prop_assert_eq!(left.max().to_bits(), whole.max().to_bits());
        }
    }
}
