//! Merge-law property suite for the answer sketches.
//!
//! Budgeted answering is sound only if per-partition sketches combine
//! across the picked set exactly like sums do. This suite pins the
//! algebra for each of the three answer sketches against exact in-test
//! oracles:
//!
//! - **associativity**: `(a ⊔ b) ⊔ c == a ⊔ (b ⊔ c)` (state equality,
//!   hence serialized byte identity);
//! - **commutativity**: `a ⊔ b == b ⊔ a`;
//! - **idempotent empty-merge**: `a ⊔ ∅ == a` and `∅ ⊔ a == a`;
//! - **merged == single-pass**: folding per-slice sketches in *any*
//!   order is bit-identical to one pass over the concatenated slices;
//! - **serialization round-trip**: `decode(encode(a)) == a` and
//!   `encode(decode(encode(a))) == encode(a)` byte for byte;
//! - **oracle accuracy**: the sketch answer tracks the exact answer
//!   (exact rank walk / exact distinct set / exact count map) within
//!   each sketch's stated error.
//!
//! Runs at 96 cases per law by default; the `PS3_STRICT_KERNELS=1` CI
//! step raises that to 384 for a deeper sweep.

use proptest::prelude::*;

use ps3_sketch::codec::{answer_sketch_from_bytes, answer_sketch_to_bytes};
use ps3_sketch::hash::{canon_f64_bits, hash_u64};
use ps3_sketch::{AnswerSketch, DistinctSketch, QuantileSketch, TopKSketch};

/// Case count: 96 normally, 384 under the strict CI sweep.
fn cases() -> u32 {
    if std::env::var("PS3_STRICT_KERNELS").as_deref() == Ok("1") {
        384
    } else {
        96
    }
}

/// Values spanning magnitudes, signs, and the IEEE special cases the
/// quantile sketch must carry exactly.
fn arb_values() -> impl Strategy<Value = Vec<f64>> {
    let v = prop_oneof![
        -1e9f64..1e9,
        -1.0f64..1.0,
        Just(0.0),
        Just(-0.0),
        Just(f64::NAN),
        Just(f64::INFINITY),
        Just(f64::NEG_INFINITY),
        Just(1e-300),
        Just(-1e300),
    ];
    prop::collection::vec(v, 0..400)
}

/// Keys drawn from a small domain so collisions (shared keys across
/// slices) actually happen.
fn arb_keys() -> impl Strategy<Value = Vec<u64>> {
    prop::collection::vec(0u64..64, 0..400)
}

/// Split `values` into three slices at the (sorted) cut points.
fn split3<T: Clone>(values: &[T], a: usize, b: usize) -> (Vec<T>, Vec<T>, Vec<T>) {
    let n = values.len();
    let (mut a, mut b) = (a % (n + 1), b % (n + 1));
    if a > b {
        std::mem::swap(&mut a, &mut b);
    }
    (
        values[..a].to_vec(),
        values[a..b].to_vec(),
        values[b..].to_vec(),
    )
}

fn quantile_of(values: &[f64]) -> QuantileSketch {
    let mut s = QuantileSketch::new();
    for &v in values {
        s.insert(v);
    }
    s
}

fn distinct_of(keys: &[u64]) -> DistinctSketch {
    let mut s = DistinctSketch::new();
    for &k in keys {
        s.insert_hash(hash_u64(k));
    }
    s
}

fn topk_of(keys: &[u64]) -> TopKSketch {
    let mut s = TopKSketch::new();
    for &k in keys {
        s.insert(k);
    }
    s
}

/// Exact oracle for the quantile: nearest-rank over the sorted ranked
/// population (NaNs excluded), mirroring `QuantileSketch::quantile`'s
/// rank rule exactly.
fn exact_quantile(values: &[f64], p: f64) -> f64 {
    let mut ranked: Vec<f64> = values.iter().copied().filter(|v| !v.is_nan()).collect();
    if ranked.is_empty() {
        return f64::NAN;
    }
    ranked.sort_by(|a, b| a.partial_cmp(b).unwrap());
    let n = ranked.len();
    let k = ((p * n as f64).ceil() as usize).clamp(1, n);
    ranked[k - 1]
}

/// `est` within relative error `alpha` of `exact`, with exact agreement
/// required for zeros and infinities.
fn within_alpha(est: f64, exact: f64, alpha: f64) -> bool {
    if exact == 0.0 || exact.is_infinite() {
        est == exact
    } else {
        (est - exact).abs() / exact.abs() <= alpha + 1e-12
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(cases()))]

    // ---------------- QuantileSketch ----------------

    #[test]
    fn quantile_merge_laws(values in arb_values(), a in 0usize..1000, b in 0usize..1000) {
        let (va, vb, vc) = split3(&values, a, b);
        let (sa, sb, sc) = (quantile_of(&va), quantile_of(&vb), quantile_of(&vc));

        // Associativity: (a ⊔ b) ⊔ c == a ⊔ (b ⊔ c).
        let mut left = sa.clone();
        left.merge_from(&sb);
        left.merge_from(&sc);
        let mut right_tail = sb.clone();
        right_tail.merge_from(&sc);
        let mut right = sa.clone();
        right.merge_from(&right_tail);
        prop_assert_eq!(&left, &right);

        // Commutativity: b ⊔ a (then c) equals the same state.
        let mut comm = sb.clone();
        comm.merge_from(&sa);
        comm.merge_from(&sc);
        prop_assert_eq!(&left, &comm);

        // Idempotent empty merge.
        let mut padded = left.clone();
        padded.merge_from(&QuantileSketch::new());
        prop_assert_eq!(&left, &padded);
        let mut from_empty = QuantileSketch::new();
        from_empty.merge_from(&left);
        prop_assert_eq!(&left, &from_empty);

        // Merged == single-pass over the concatenation, bit for bit.
        let whole = quantile_of(&values);
        prop_assert_eq!(&left, &whole);
        prop_assert_eq!(
            answer_sketch_to_bytes(&AnswerSketch::Quantile(left)),
            answer_sketch_to_bytes(&AnswerSketch::Quantile(whole))
        );
    }

    #[test]
    fn quantile_tracks_exact_oracle(values in arb_values(), p in 0.0f64..1.0) {
        let s = quantile_of(&values);
        for p in [p, 0.0, 1.0] {
            let exact = exact_quantile(&values, p);
            let est = s.quantile(p);
            if exact.is_nan() {
                prop_assert!(est.is_nan());
            } else {
                prop_assert!(
                    within_alpha(est, exact, s.alpha()),
                    "p={} exact={} est={} alpha={}", p, exact, est, s.alpha()
                );
            }
        }
    }

    #[test]
    fn quantile_roundtrip_byte_identity(values in arb_values()) {
        let s = AnswerSketch::Quantile(quantile_of(&values));
        let bytes = answer_sketch_to_bytes(&s);
        let back = answer_sketch_from_bytes(&bytes).expect("valid bytes");
        prop_assert_eq!(&back, &s);
        prop_assert_eq!(answer_sketch_to_bytes(&back), bytes);
    }

    // ---------------- DistinctSketch ----------------

    #[test]
    fn distinct_merge_laws(keys in arb_keys(), a in 0usize..1000, b in 0usize..1000) {
        let (ka, kb, kc) = split3(&keys, a, b);
        let (sa, sb, sc) = (distinct_of(&ka), distinct_of(&kb), distinct_of(&kc));

        let mut left = sa.clone();
        left.merge_from(&sb);
        left.merge_from(&sc);
        let mut right_tail = sb.clone();
        right_tail.merge_from(&sc);
        let mut right = sa.clone();
        right.merge_from(&right_tail);
        prop_assert_eq!(&left, &right);

        let mut comm = sc.clone();
        comm.merge_from(&sb);
        comm.merge_from(&sa);
        prop_assert_eq!(&left, &comm);

        let mut padded = left.clone();
        padded.merge_from(&DistinctSketch::new());
        prop_assert_eq!(&left, &padded);

        // Self-merge idempotence (register max): a ⊔ a == a.
        let mut twice = left.clone();
        let snapshot = left.clone();
        twice.merge_from(&snapshot);
        prop_assert_eq!(&left, &twice);

        let whole = distinct_of(&keys);
        prop_assert_eq!(&left, &whole);
    }

    #[test]
    fn distinct_tracks_exact_oracle(keys in arb_keys()) {
        let s = distinct_of(&keys);
        let exact = {
            let mut set: Vec<u64> = keys.clone();
            set.sort_unstable();
            set.dedup();
            set.len() as f64
        };
        if exact == 0.0 {
            prop_assert!(s.is_empty());
            prop_assert_eq!(s.estimate(), 0.0);
        } else {
            // The domain is ≤64 keys — deep inside the linear-counting
            // range. 5 SEs of relative slack, floored at 3 absolute: a
            // same-rank register collision at tiny n costs ~1 count,
            // which dwarfs the relative bound there.
            let err = (s.estimate() - exact).abs();
            let tol = (5.0 * DistinctSketch::standard_error() * exact).max(3.0);
            prop_assert!(err <= tol, "exact={} est={} err={}", exact, s.estimate(), err);
        }
    }

    #[test]
    fn distinct_roundtrip_byte_identity(keys in arb_keys()) {
        let s = AnswerSketch::Distinct(distinct_of(&keys));
        let bytes = answer_sketch_to_bytes(&s);
        let back = answer_sketch_from_bytes(&bytes).expect("valid bytes");
        prop_assert_eq!(&back, &s);
        prop_assert_eq!(answer_sketch_to_bytes(&back), bytes);
    }

    // ---------------- TopKSketch ----------------

    #[test]
    fn topk_merge_laws(keys in arb_keys(), a in 0usize..1000, b in 0usize..1000) {
        let (ka, kb, kc) = split3(&keys, a, b);
        let (sa, sb, sc) = (topk_of(&ka), topk_of(&kb), topk_of(&kc));

        let mut left = sa.clone();
        left.merge_from(&sb);
        left.merge_from(&sc);
        let mut right_tail = sb.clone();
        right_tail.merge_from(&sc);
        let mut right = sa.clone();
        right.merge_from(&right_tail);
        prop_assert_eq!(&left, &right);

        let mut comm = sb.clone();
        comm.merge_from(&sc);
        comm.merge_from(&sa);
        prop_assert_eq!(&left, &comm);

        let mut padded = left.clone();
        padded.merge_from(&TopKSketch::new());
        prop_assert_eq!(&left, &padded);

        let whole = topk_of(&keys);
        prop_assert_eq!(&left, &whole);
    }

    #[test]
    fn topk_counts_match_exact_oracle(keys in arb_keys(), k in 0usize..10) {
        let s = topk_of(&keys);
        // Exact oracle: count map + the same (count desc, key asc) rank.
        let mut counts: Vec<(u64, u64)> = Vec::new();
        for &key in &keys {
            match counts.binary_search_by_key(&key, |&(k, _)| k) {
                Ok(i) => counts[i].1 += 1,
                Err(i) => counts.insert(i, (key, 1)),
            }
        }
        for &(key, c) in &counts {
            prop_assert_eq!(s.count_of(key), c);
        }
        prop_assert_eq!(s.total(), keys.len() as u64);
        let mut ranked = counts.clone();
        ranked.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
        ranked.truncate(k);
        prop_assert_eq!(s.top(k), ranked);
    }

    #[test]
    fn topk_roundtrip_byte_identity(keys in arb_keys()) {
        let s = AnswerSketch::TopK(topk_of(&keys));
        let bytes = answer_sketch_to_bytes(&s);
        let back = answer_sketch_from_bytes(&bytes).expect("valid bytes");
        prop_assert_eq!(&back, &s);
        prop_assert_eq!(answer_sketch_to_bytes(&back), bytes);
    }

    // -------- canonical numeric keys for TOP_K over f64 columns --------

    #[test]
    fn canon_bits_collapse_equal_values(x in prop_oneof![-10.0f64..10.0, Just(0.0), Just(-0.0), Just(f64::NAN)]) {
        let k = canon_f64_bits(x);
        prop_assert_eq!(canon_f64_bits(x), k);
        if x == 0.0 {
            prop_assert_eq!(k, 0.0f64.to_bits());
            prop_assert_eq!(canon_f64_bits(-x), k);
        }
        if x.is_nan() {
            prop_assert_eq!(canon_f64_bits(f64::from_bits(f64::NAN.to_bits() | 1)), k);
        }
    }
}

/// Deterministic pinned case: a 7-way partition split of a mixed-sign,
/// special-value-laden column merged in several shuffled orders must be
/// byte-identical to the single-pass sketch — the acceptance-criteria
/// invariant in miniature.
#[test]
fn pinned_seven_way_merge_order_sweep() {
    let values: Vec<f64> = (0..700)
        .map(|i| match i % 9 {
            0 => f64::NAN,
            1 => 0.0,
            2 => -0.0,
            3 => f64::INFINITY,
            4 => f64::NEG_INFINITY,
            _ => ((i as f64) - 350.0) * 1.7e3,
        })
        .collect();
    let slices: Vec<&[f64]> = values.chunks(100).collect();
    let sketches: Vec<QuantileSketch> = slices.iter().map(|s| quantile_of(s)).collect();
    let whole = quantile_of(&values);
    let whole_bytes = answer_sketch_to_bytes(&AnswerSketch::Quantile(whole));
    for rot in 0..sketches.len() {
        let mut merged = QuantileSketch::new();
        for i in 0..sketches.len() {
            merged.merge_from(&sketches[(i + rot) % sketches.len()]);
        }
        assert_eq!(
            answer_sketch_to_bytes(&AnswerSketch::Quantile(merged)),
            whole_bytes,
            "rotation {rot} diverged"
        );
    }
}
