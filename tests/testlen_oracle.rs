//! Differential tests: the zero-term-cut solver in `protest_core::testlen`
//! against the exponential-then-binary search it replaced, kept here
//! verbatim as the reference. Every result must match bit for bit: the
//! same `patterns`, the same `confidence.to_bits()`, and the same `None`s.

use proptest::prelude::*;
use protest_core::testlen::{
    ln_set_detection_probability, ln_set_detection_probability_weighted, required_test_length,
    required_test_length_fraction, required_test_length_fraction_weighted,
    required_test_length_weighted, set_detection_probability, TestLength, TestLengthSolver,
    MAX_PATTERNS,
};

// ---- The reference search, as it stood before the zero-term cut. ----

fn oracle_required_test_length_weighted(
    ps: &[f64],
    counts: &[u32],
    confidence: f64,
) -> Option<TestLength> {
    assert!(
        confidence > 0.0 && confidence < 1.0,
        "confidence must be in (0, 1)"
    );
    assert_eq!(ps.len(), counts.len(), "one count per probability");
    if counts.iter().all(|&c| c == 0) {
        return Some(TestLength {
            patterns: 0,
            confidence: 1.0,
        });
    }
    let target = confidence.ln();
    let reaches = |n: u64| ln_set_detection_probability_weighted(ps, counts, n) >= target;
    let mut hi = 1u64;
    while !reaches(hi) {
        if hi >= MAX_PATTERNS {
            return None;
        }
        hi = (hi * 2).min(MAX_PATTERNS);
    }
    let mut lo = hi / 2;
    while hi - lo > 1 {
        let mid = lo + (hi - lo) / 2;
        if reaches(mid) {
            hi = mid;
        } else {
            lo = mid;
        }
    }
    Some(TestLength {
        patterns: hi,
        confidence: ln_set_detection_probability_weighted(ps, counts, hi).exp(),
    })
}
fn oracle_required_test_length_fraction_weighted(
    ps: &[f64],
    counts: &[u32],
    d: f64,
    e: f64,
) -> Option<TestLength> {
    assert!(d > 0.0 && d <= 1.0, "fraction d must be in (0, 1]");
    assert_eq!(ps.len(), counts.len(), "one count per probability");
    let total: u64 = counts.iter().map(|&c| c as u64).sum();
    let mut keep = ((d * total as f64).round() as u64).min(total);
    // Highest detection probability first; keep the easiest `keep` faults.
    let mut order: Vec<usize> = (0..ps.len()).collect();
    order.sort_by(|&a, &b| {
        ps[b]
            .partial_cmp(&ps[a])
            .unwrap_or(std::cmp::Ordering::Equal)
    });
    let mut kept_ps = Vec::with_capacity(ps.len());
    let mut kept_counts = Vec::with_capacity(counts.len());
    for &i in &order {
        if keep == 0 {
            break;
        }
        let take = (counts[i] as u64).min(keep) as u32;
        if take > 0 {
            kept_ps.push(ps[i]);
            kept_counts.push(take);
            keep -= take as u64;
        }
    }
    oracle_required_test_length_weighted(&kept_ps, &kept_counts, e)
}
fn oracle_required_test_length(ps: &[f64], confidence: f64) -> Option<TestLength> {
    assert!(
        confidence > 0.0 && confidence < 1.0,
        "confidence must be in (0, 1)"
    );
    if ps.is_empty() {
        return Some(TestLength {
            patterns: 0,
            confidence: 1.0,
        });
    }
    let target = confidence.ln();
    let reaches = |n: u64| ln_set_detection_probability(ps, n) >= target;
    // Exponential search for an upper bound.
    let mut hi = 1u64;
    while !reaches(hi) {
        if hi >= MAX_PATTERNS {
            return None;
        }
        hi = (hi * 2).min(MAX_PATTERNS);
    }
    // Binary search for the minimal N in (hi/2, hi].
    let mut lo = hi / 2; // reaches(lo) is false (or lo == 0)
    while hi - lo > 1 {
        let mid = lo + (hi - lo) / 2;
        if reaches(mid) {
            hi = mid;
        } else {
            lo = mid;
        }
    }
    // Handle N = 1 lower edge: hi==1 may itself be minimal.
    Some(TestLength {
        patterns: hi,
        confidence: set_detection_probability(ps, hi),
    })
}
fn oracle_required_test_length_fraction(ps: &[f64], d: f64, e: f64) -> Option<TestLength> {
    assert!(d > 0.0 && d <= 1.0, "fraction d must be in (0, 1]");
    let mut sorted: Vec<f64> = ps.to_vec();
    // Highest first; the kept set is the easiest d·100 %.
    sorted.sort_by(|a, b| b.partial_cmp(a).unwrap_or(std::cmp::Ordering::Equal));
    let keep = ((d * ps.len() as f64).round() as usize).min(ps.len());
    oracle_required_test_length(&sorted[..keep], e)
}

// ---- Inputs. ----

/// Probabilities over the whole range the solver meets: log-uniform down
/// to 1e-12, uniform, a few repeated values, and rare edge values (`0`,
/// `1`, `1e-300` past the `MAX_PATTERNS` cap, subnormals).
fn prob() -> BoxedStrategy<f64> {
    let log_uniform = (-12.0f64..0.0).prop_map(|x| 10f64.powf(x)).boxed();
    let uniform = (0.0f64..1.0).boxed();
    let repeated = (0usize..4).prop_map(|i| [0.5, 0.01, 1e-6, 0.3][i]).boxed();
    let edge = (0usize..5)
        .prop_map(|i| [0.0, 1.0, 1e-300, 5e-324, f64::MIN_POSITIVE / 3.0][i])
        .boxed();
    let mut arms = vec![log_uniform; 6];
    arms.extend([uniform.clone(), uniform, repeated.clone(), repeated, edge]);
    OneOf::new(arms).boxed()
}

/// `d ∈ (0, 1]`, often exactly 1 and sometimes small enough to keep
/// nothing.
fn fraction() -> BoxedStrategy<f64> {
    prop_oneof![Just(1.0), (1u32..=1000).prop_map(|k| f64::from(k) / 1000.0)].boxed()
}

/// `e ∈ (0, 1)`.
fn confidence() -> BoxedStrategy<f64> {
    prop_oneof![
        (1u32..1000).prop_map(|k| f64::from(k) / 1000.0),
        Just(0.999_999),
        Just(1e-9),
    ]
    .boxed()
}

/// `(p, count)` pairs with `count = 0` (a fully pruned class) included.
fn weighted(max_len: usize) -> impl Strategy<Value = (Vec<f64>, Vec<u32>)> {
    collection::vec((prob(), 0u32..5), 0..max_len).prop_map(|v| v.into_iter().unzip())
}

fn assert_same(got: Option<TestLength>, want: Option<TestLength>, what: &str) {
    match (got, want) {
        (None, None) => {}
        (Some(g), Some(w)) => {
            assert_eq!(g.patterns, w.patterns, "{what}: patterns");
            assert_eq!(
                g.confidence.to_bits(),
                w.confidence.to_bits(),
                "{what}: confidence {} vs {}",
                g.confidence,
                w.confidence
            );
        }
        _ => panic!("{what}: {got:?} vs oracle {want:?}"),
    }
}

/// Every public solver on one input against its reference.
fn check_all(ps: &[f64], counts: &[u32], d: f64, e: f64) {
    assert_same(
        required_test_length(ps, e),
        oracle_required_test_length(ps, e),
        "plain",
    );
    assert_same(
        required_test_length_weighted(ps, counts, e),
        oracle_required_test_length_weighted(ps, counts, e),
        "weighted",
    );
    let fraction = oracle_required_test_length_fraction(ps, d, e);
    assert_same(
        required_test_length_fraction(ps, d, e),
        fraction,
        "fraction",
    );
    assert_same(TestLengthSolver::new(ps).solve(d, e), fraction, "solver");
    let fraction_weighted = oracle_required_test_length_fraction_weighted(ps, counts, d, e);
    assert_same(
        required_test_length_fraction_weighted(ps, counts, d, e),
        fraction_weighted,
        "fraction weighted",
    );
    assert_same(
        TestLengthSolver::weighted(ps, counts).solve(d, e),
        fraction_weighted,
        "solver weighted",
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn small_sets_match_the_oracle(
        set in weighted(40),
        d in fraction(),
        e in confidence(),
    ) {
        let (ps, counts) = set;
        check_all(&ps, &counts, d, e);
    }

    /// One solver serves several rows exactly like one solve per row.
    #[test]
    fn one_solver_serves_every_row(
        set in weighted(60),
        rows in collection::vec((fraction(), confidence()), 1..5),
    ) {
        let (ps, counts) = set;
        let plain = TestLengthSolver::new(&ps);
        let expanded = TestLengthSolver::weighted(&ps, &counts);
        for &(d, e) in &rows {
            assert_same(plain.solve(d, e), oracle_required_test_length_fraction(&ps, d, e), "plain row");
            assert_same(
                expanded.solve(d, e),
                oracle_required_test_length_fraction_weighted(&ps, &counts, d, e),
                "weighted row",
            );
        }
    }

    /// A NaN probability makes every set that keeps it unsolvable. The
    /// unsorted solvers match the oracle; the `d`-fraction solvers sort a
    /// NaN first, so it is kept by every non-empty `F_d` (the oracle's
    /// sort had no place for it: it cut at an arbitrary position or
    /// panicked on the inconsistent comparison).
    #[test]
    fn nan_probability_yields_none(
        set in weighted(30),
        at in 0usize..30,
        d in fraction(),
        e in confidence(),
    ) {
        let (mut ps, mut counts) = set;
        let at = at.min(ps.len());
        ps.insert(at, f64::NAN);
        counts.insert(at, 1);
        assert_same(required_test_length(&ps, e), oracle_required_test_length(&ps, e), "plain");
        assert_same(
            required_test_length_weighted(&ps, &counts, e),
            oracle_required_test_length_weighted(&ps, &counts, e),
            "weighted",
        );
        prop_assert!(required_test_length(&ps, e).is_none());
        let keeps_any = (d * ps.len() as f64).round() >= 1.0;
        prop_assert_eq!(required_test_length_fraction(&ps, d, e).is_none(), keeps_any);
        let total: u32 = counts.iter().sum();
        let keeps_any = (d * f64::from(total)).round() >= 1.0;
        prop_assert_eq!(
            required_test_length_fraction_weighted(&ps, &counts, d, e).is_none(),
            keeps_any
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Larger sets, where most terms fall behind the cut at large `N`.
    #[test]
    fn large_sets_match_the_oracle(
        set in weighted(3000),
        d in fraction(),
        e in confidence(),
    ) {
        let (ps, counts) = set;
        check_all(&ps, &counts, d, e);
    }
}

#[test]
fn edge_sets_match_the_oracle() {
    let sets: [&[f64]; 8] = [
        &[],
        &[0.0],
        &[1.0, 1.0],
        &[1e-300],
        &[5e-324, 0.5],
        &[0.5, 0.5, 0.5, 1e-9, 1e-9],
        &[1.0, 0.5, 0.0, 1e-7],
        &[-0.0, 0.25],
    ];
    for ps in sets {
        for counts in [
            vec![1; ps.len()],
            vec![0; ps.len()],
            (0..ps.len() as u32).collect(),
        ] {
            for d in [1.0, 0.75, 0.5, 1e-9] {
                for e in [1e-9, 0.5, 0.95, 0.999_999] {
                    check_all(ps, &counts, d, e);
                }
            }
        }
    }
    // 1e-300 needs N beyond the cap.
    assert!(required_test_length(&[1e-300], 0.5).is_none());
    assert!(oracle_required_test_length(&[1e-300], 0.5).is_none());
}
