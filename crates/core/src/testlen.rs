//! Necessary test lengths (paper Sec. 5, formula (3)).
//!
//! Under the independence assumption, the probability that `N` random
//! patterns detect every fault in `F` is
//!
//! ```text
//! P_F(N) = Π_{f ∈ F} (1 − (1 − p_f)^N)
//! ```
//!
//! All computation happens in log space so the paper's extreme regimes
//! (`N ≈ 3·10⁸` at `p_f ≈ 10⁻⁸`, Table 3) remain numerically stable.
//!
//! # One solver, and the zero-term cut
//!
//! Every test-length function runs one search: an exponential, then a
//! binary search for the least `N` whose probe
//!
//! ```text
//! ln P_F(N) = Σ_i count_i · ln(−expm1(N · c_i)),   c_i = ln(1 − p_i)
//! ```
//!
//! reaches `ln e`. [`TestLengthSolver`] sorts the faults by descending
//! `p` and hoists every `c_i` once; a plain fault set is the weighted one
//! with every count 1 (`1.0 · x == x` exactly).
//!
//! A term with `t = N · c_i ≤ −40` is exactly `0.0`: `e^t < 2⁻⁵⁷` is
//! below half an ulp of 1, so `expm1(t)` rounds to `−1` and the term is
//! `ln(1) = 0`. The unit test `zero_term_cut_is_exact` pins this for the
//! platform's libm. Sorted by descending `p`, the `c_i` ascend, so at
//! every `N` these zero terms form a prefix that one binary search finds,
//! and a probe sums only the tail behind it. Skipping is bit-identical to
//! summing everything: the tail is the same terms, in the same order, with
//! the same expression, and each skipped term would have added exactly
//! `0.0` to a sum that starts at `+0.0` and never becomes `−0.0`. At the
//! large `N` of hard circuits (`≈ 5·10¹⁰`) nearly every fault falls in the
//! prefix, so a probe costs a binary search and a few tail terms instead
//! of three transcendental calls per fault.
//!
//! At small `N` nothing is cut, but the probe fails anyway: every term is
//! `≤ 0` and rounding is monotone, so the sum ends at or below each single
//! term. The probe first evaluates the hardest kept fault's term, and when
//! that alone is below `ln e` it reports "not reached" without the rest.
//! The search makes the same probes with the same outcomes, and the
//! returned confidence is always the full sum.

use std::borrow::Cow;
use std::cell::Cell;
use std::cmp::Ordering;

use protest_telemetry::Site;

/// A computed test length.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TestLength {
    /// The minimal pattern count `N`.
    pub patterns: u64,
    /// `P_F(N)` actually achieved at that length.
    pub confidence: f64,
}

/// Search cap: beyond this the test is deemed uneconomical / unreachable.
pub const MAX_PATTERNS: u64 = 1 << 50;

/// `ln P_F(N)` for detection probabilities `ps`.
///
/// Returns `-inf` if any probability is 0 (an undetectable fault can never
/// be covered) and 0.0 for an empty set.
pub fn ln_set_detection_probability(ps: &[f64], n: u64) -> f64 {
    if n == 0 {
        return if ps.is_empty() {
            0.0
        } else {
            f64::NEG_INFINITY
        };
    }
    let mut total = 0.0f64;
    for &p in ps {
        if p <= 0.0 {
            return f64::NEG_INFINITY;
        }
        if p >= 1.0 {
            continue;
        }
        // t = ln (1-p)^N;  term = ln(1 − e^t) = ln(−expm1(t)).
        let t = n as f64 * (-p).ln_1p();
        total += (-t.exp_m1()).ln();
    }
    total
}

/// `P_F(N)` (see [`ln_set_detection_probability`]).
pub fn set_detection_probability(ps: &[f64], n: u64) -> f64 {
    ln_set_detection_probability(ps, n).exp()
}

/// [`ln_set_detection_probability`] with a multiplicity per probability —
/// the class-expansion form: a collapsed fault class of size `k` whose
/// members share the representative's detection probability contributes
/// its product term `k` times.
///
/// Entries with `count == 0` are skipped (a fully pruned class).
pub fn ln_set_detection_probability_weighted(ps: &[f64], counts: &[u32], n: u64) -> f64 {
    assert_eq!(ps.len(), counts.len(), "one count per probability");
    if n == 0 {
        return if counts.iter().all(|&c| c == 0) {
            0.0
        } else {
            f64::NEG_INFINITY
        };
    }
    let mut total = 0.0f64;
    for (&p, &count) in ps.iter().zip(counts) {
        if count == 0 {
            continue;
        }
        if p <= 0.0 {
            return f64::NEG_INFINITY;
        }
        if p >= 1.0 {
            continue;
        }
        let t = n as f64 * (-p).ln_1p();
        total += count as f64 * (-t.exp_m1()).ln();
    }
    total
}

/// Below this `t = N·ln(1 − p)` a fault's term `ln(1 − e^t)` is exactly
/// `0.0` (see the module docs and `zero_term_cut_is_exact`).
const ZERO_TERM_T: f64 = -40.0;

thread_local! {
    /// `(probes, evaluated terms)` of the solver on this thread: a
    /// deterministic work count for the tests.
    static WORK: Cell<(u64, u64)> = const { Cell::new((0, 0)) };
}

/// Detection probabilities prepared once for any number of test-length
/// solves: sorted by descending probability, with `ln(1 − p)` hoisted.
///
/// Every `solve(d, e)` returns exactly what
/// [`required_test_length_fraction`] (or its weighted form) returns for
/// the same input, so callers with several `(d, e)` rows build one.
///
/// ```
/// use protest_core::testlen::{required_test_length_fraction, TestLengthSolver};
///
/// let ps = [0.5, 0.1, 0.01, 1e-6];
/// let solver = TestLengthSolver::new(&ps);
/// for (d, e) in [(1.0, 0.95), (0.75, 0.98)] {
///     assert_eq!(solver.solve(d, e), required_test_length_fraction(&ps, d, e));
/// }
/// ```
#[derive(Debug, Clone)]
pub struct TestLengthSolver {
    /// `ln(1 − p)` per kept entry in solve order (`−∞` for `p ≥ 1`).
    ln_miss: Vec<f64>,
    /// Multiplicity per entry; zero-count entries are dropped.
    counts: Vec<u32>,
    /// Sum of `counts`: the size of the expanded universe.
    total: u64,
    /// Length of the prefix whose probabilities are all `> 0` (not NaN).
    valid: usize,
    /// Length of the prefix of `ln_miss[..valid]` that is non-decreasing,
    /// where the zero terms of a probe form a prefix.
    sorted: usize,
}

impl TestLengthSolver {
    /// Prepares `ps`, each fault counted once.
    pub fn new(ps: &[f64]) -> Self {
        let _span = protest_telemetry::span(Site::TestlenSolve);
        let mut sorted = ps.to_vec();
        sorted.sort_by(|&a, &b| easiest_first(a, b));
        Self::in_order(sorted.into_iter().map(|p| (p, 1)))
    }

    /// Prepares `ps` with a multiplicity per probability — the
    /// class-expansion form (see [`ln_set_detection_probability_weighted`]).
    ///
    /// # Panics
    ///
    /// Panics if the slices differ in length.
    pub fn weighted(ps: &[f64], counts: &[u32]) -> Self {
        assert_eq!(ps.len(), counts.len(), "one count per probability");
        let _span = protest_telemetry::span(Site::TestlenSolve);
        let mut order: Vec<usize> = (0..ps.len()).collect();
        order.sort_by(|&a, &b| easiest_first(ps[a], ps[b]));
        Self::in_order(order.into_iter().map(|i| (ps[i], counts[i])))
    }

    /// `(p, count)` pairs kept in the order given; that order is the
    /// summation order of every probe.
    fn in_order(pairs: impl Iterator<Item = (f64, u32)>) -> Self {
        let (mut ln_miss, mut counts, mut valid) = (Vec::new(), Vec::new(), None);
        for (p, count) in pairs.filter(|&(_, count)| count > 0) {
            if valid.is_none() && (p.is_nan() || p <= 0.0) {
                valid = Some(counts.len());
            }
            ln_miss.push(if p >= 1.0 {
                f64::NEG_INFINITY
            } else {
                (-p).ln_1p()
            });
            counts.push(count);
        }
        let valid = valid.unwrap_or(counts.len());
        let sorted = ln_miss[..valid]
            .windows(2)
            .position(|w| w[0] > w[1])
            .map_or(valid, |i| i + 1);
        TestLengthSolver {
            total: counts.iter().map(|&c| u64::from(c)).sum(),
            ln_miss,
            counts,
            valid,
            sorted,
        }
    }

    /// The minimal `N` detecting the easiest `d`-fraction of the expanded
    /// universe with probability `≥ e`, or `None` beyond [`MAX_PATTERNS`]
    /// or when a kept fault is undetectable (`p ≤ 0` or NaN). A class at
    /// the `d` boundary is split.
    ///
    /// # Panics
    ///
    /// Panics if `d` is not within `(0, 1]` or `e` not within `(0, 1)`.
    pub fn solve(&self, d: f64, e: f64) -> Option<TestLength> {
        assert!(d > 0.0 && d <= 1.0, "fraction d must be in (0, 1]");
        assert!(e > 0.0 && e < 1.0, "confidence must be in (0, 1)");
        let _span = protest_telemetry::span(Site::TestlenSolve);
        let mut left = ((d * self.total as f64).round() as u64).min(self.total);
        let (mut kept, mut last) = (0, 0);
        while left > 0 {
            last = u64::from(self.counts[kept]).min(left);
            left -= last;
            kept += 1;
        }
        if kept > self.valid {
            // ln P_F(N) is −∞ or NaN at every N.
            return None;
        }
        let mut counts = Cow::Borrowed(&self.counts[..kept]);
        if kept > 0 && u64::from(counts[kept - 1]) != last {
            // `last` < the class's count, so it fits.
            counts.to_mut()[kept - 1] = last as u32;
        }
        search(&self.ln_miss[..kept], &counts, self.sorted.min(kept), e)
    }
}

/// Records one probe that evaluated `terms` terms.
fn count_work(terms: usize) {
    WORK.with(|w| {
        let (probes, total) = w.get();
        w.set((probes + 1, total + terms as u64));
    });
}

/// Sort order of the kept set: highest probability first, so the kept
/// set is the easiest `d·100 %`. NaN goes before everything, so it is in
/// every non-empty kept set and makes it unsolvable; without NaN this is
/// the stable order of `b.partial_cmp(a)`.
fn easiest_first(a: f64, b: f64) -> Ordering {
    b.partial_cmp(&a)
        .unwrap_or_else(|| b.is_nan().cmp(&a.is_nan()))
}

/// The exponential-then-binary search for the least `N` with
/// `ln P_F(N) ≥ ln confidence` over the kept terms (`ln_miss`, `counts`),
/// whose first `sorted` entries are non-decreasing.
fn search(ln_miss: &[f64], counts: &[u32], sorted: usize, confidence: f64) -> Option<TestLength> {
    if ln_miss.is_empty() {
        return Some(TestLength {
            patterns: 0,
            confidence: 1.0,
        });
    }
    // ln P_F(N), or any value below `floor` once the sum is known to end
    // there. Every term is ≤ 0 and rounding is monotone, so the sum ends
    // at or below each single term: when the hardest kept fault's term
    // alone is below `target`, `reaches(n)` is false exactly as the full
    // sum would say.
    let last = ln_miss.len() - 1;
    let ln_p = |n: u64, floor: f64| {
        let n = n as f64;
        let term = |c: f64, k: u32| f64::from(k) * (-(n * c).exp_m1()).ln();
        let hardest = term(ln_miss[last], counts[last]);
        if hardest < floor {
            count_work(1);
            return hardest;
        }
        // Every term before `start` has t < ZERO_TERM_T and adds exactly 0.0.
        let start = ln_miss[..sorted].partition_point(|&c| n * c < ZERO_TERM_T);
        count_work(1 + ln_miss.len() - start);
        ln_miss[start..]
            .iter()
            .zip(&counts[start..])
            .fold(0.0f64, |total, (&c, &k)| total + term(c, k))
    };
    let target = confidence.ln();
    let reaches = |n: u64| ln_p(n, target) >= target;
    // Exponential search for an upper bound.
    let mut hi = 1u64;
    while !reaches(hi) {
        if hi >= MAX_PATTERNS {
            return None;
        }
        hi = (hi * 2).min(MAX_PATTERNS);
    }
    // Binary search for the minimal N in (hi/2, hi]; reaches(lo) is false
    // (or lo == 0).
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
        confidence: ln_p(hi, f64::NEG_INFINITY).exp(),
    })
}

/// The weighted companion of [`required_test_length`]: minimal `N` with
/// `Π_i (1 − (1 − p_i)^N)^{count_i} ≥ confidence`, or `None` beyond
/// [`MAX_PATTERNS`].
///
/// # Panics
///
/// Panics if `confidence` is not within `(0, 1)` or the slices differ in
/// length.
pub fn required_test_length_weighted(
    ps: &[f64],
    counts: &[u32],
    confidence: f64,
) -> Option<TestLength> {
    assert_eq!(ps.len(), counts.len(), "one count per probability");
    TestLengthSolver::in_order(ps.iter().copied().zip(counts.iter().copied()))
        .solve(1.0, confidence)
}

/// The weighted `d`-fraction variant: drops the hardest `(1 − d)`-fraction
/// of the *expanded* universe (counting multiplicities), splitting a class
/// at the boundary when necessary, then computes the weighted test length.
/// Solving several `(d, e)` rows over one vector? Build one
/// [`TestLengthSolver::weighted`] instead.
///
/// # Panics
///
/// Panics like [`required_test_length_weighted`], and if `d` is not within
/// `(0, 1]`.
pub fn required_test_length_fraction_weighted(
    ps: &[f64],
    counts: &[u32],
    d: f64,
    e: f64,
) -> Option<TestLength> {
    assert!(d > 0.0 && d <= 1.0, "fraction d must be in (0, 1]");
    TestLengthSolver::weighted(ps, counts).solve(d, e)
}

/// `ln Σ_f (1 − p_f)^N` — the log of the *expected number of undetected
/// faults* after `N` patterns.
///
/// This is the numerically robust companion of `J_N`: once every fault is
/// nearly certain to be caught, `ln J_N` saturates to 0 in `f64` while this
/// quantity keeps discriminating (`J_N ≈ exp(−Σ q_f)` for small
/// `q_f = (1−p_f)^N`). The optimizer climbs on it for exactly that reason.
///
/// Returns `-inf` for an empty set or when every `p_f ≥ 1`.
pub fn ln_expected_undetected(ps: &[f64], n: u64) -> f64 {
    // Log-sum-exp over t_f = N·ln(1 − p_f).
    let ts: Vec<f64> = ps
        .iter()
        .filter(|&&p| p < 1.0)
        .map(|&p| {
            if p <= 0.0 {
                0.0 // (1-0)^N = 1
            } else {
                n as f64 * (-p).ln_1p()
            }
        })
        .collect();
    let m = ts.iter().copied().fold(f64::NEG_INFINITY, f64::max);
    if m == f64::NEG_INFINITY {
        return f64::NEG_INFINITY;
    }
    m + ts.iter().map(|t| (t - m).exp()).sum::<f64>().ln()
}

/// The minimal `N` with `P_F(N) ≥ confidence`, or `None` if unreachable
/// within [`MAX_PATTERNS`] (e.g. an estimated-undetectable fault in `F`).
///
/// # Example
///
/// ```
/// use protest_core::testlen::required_test_length;
///
/// // Three faults, the hardest detected by 1% of patterns:
/// let n = required_test_length(&[0.5, 0.1, 0.01], 0.98).unwrap();
/// assert!(n.patterns > 100 && n.patterns < 1000);
/// assert!(n.confidence >= 0.98);
/// ```
///
/// # Panics
///
/// Panics if `confidence` is not within `(0, 1)`.
pub fn required_test_length(ps: &[f64], confidence: f64) -> Option<TestLength> {
    TestLengthSolver::in_order(ps.iter().map(|&p| (p, 1))).solve(1.0, confidence)
}

/// The paper's `d`-fraction variant: `F_d` keeps the `d·100 %` faults with
/// the *highest* detection probabilities (dropping the hardest tail), and
/// `N` is the minimal length detecting all of `F_d` with probability ≥ `e`.
/// Solving several `(d, e)` rows over one vector? Build one
/// [`TestLengthSolver`] instead.
///
/// # Panics
///
/// Panics if `d` is not within `(0, 1]` or `e` not within `(0, 1)`.
pub fn required_test_length_fraction(ps: &[f64], d: f64, e: f64) -> Option<TestLength> {
    assert!(d > 0.0 && d <= 1.0, "fraction d must be in (0, 1]");
    TestLengthSolver::new(ps).solve(d, e)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zero_term_cut_is_exact() {
        // The skip is bit-identical only if every term at t ≤ ZERO_TERM_T
        // is exactly +0.0 under this platform's expm1 and ln.
        let term = |t: f64| (-t.exp_m1()).ln();
        let mut t = ZERO_TERM_T;
        while t > -800.0 {
            assert_eq!(term(t).to_bits(), 0.0f64.to_bits(), "t = {t}");
            assert_eq!(term(t.next_down()).to_bits(), 0.0f64.to_bits(), "t = {t}");
            t -= 1.0 / 1024.0;
        }
        for t in [-1e3, -1e10, -1e300, f64::MIN, f64::NEG_INFINITY] {
            assert_eq!(term(t).to_bits(), 0.0f64.to_bits(), "t = {t}");
        }
    }

    #[test]
    fn the_cut_skips_almost_every_term() {
        // 100k faults: easy ones spread over [0.05, 0.5], then a hard tail
        // of ten faults at 1e-10 … 1e-9 that sets N ≈ 10¹⁰.
        let n = 100_000;
        let mut ps: Vec<f64> = (0..n - 10)
            .map(|i| 0.05 + 0.45 * i as f64 / n as f64)
            .collect();
        ps.extend((1..=10).map(|k| k as f64 * 1e-10));
        for (d, e) in [(1.0, 0.95), (1.0, 0.5), (0.99995, 0.98)] {
            WORK.with(|w| w.set((0, 0)));
            let got = required_test_length_fraction(&ps, d, e).unwrap();
            let (probes, terms) = WORK.with(Cell::get);
            // The search the cut replaced made the same probes and
            // evaluated every kept term on each.
            let kept = (d * n as f64).round() as u64;
            assert!(got.patterns > 1_000_000_000, "N = {}", got.patterns);
            assert!(
                terms * 100 <= kept * probes,
                "{terms} of {} terms",
                kept * probes
            );
        }
    }

    #[test]
    fn single_fault_closed_form() {
        // One fault at p: N = ceil(ln(1−e)/ln(1−p)).
        let p = 0.01;
        let e = 0.98;
        let want = ((1.0f64 - e).ln() / (1.0f64 - p).ln()).ceil() as u64;
        let got = required_test_length(&[p], e).unwrap();
        assert_eq!(got.patterns, want);
        assert!(got.confidence >= e);
        // Minimality.
        assert!(set_detection_probability(&[p], got.patterns - 1) < e);
    }

    #[test]
    fn paper_scale_magnitudes() {
        // p ≈ 6·10⁻⁹ (COMP's hardest faults at p=0.5) needs N ≈ 5·10⁸ at
        // e=0.95 — the Table 3 regime must not overflow or round to junk.
        let got = required_test_length(&[6e-9], 0.95).unwrap();
        assert!(got.patterns > 100_000_000, "N = {}", got.patterns);
        assert!(got.patterns < 1_000_000_000, "N = {}", got.patterns);
    }

    #[test]
    fn monotone_in_confidence_and_probability() {
        let ps = [0.001, 0.01, 0.3];
        let n95 = required_test_length(&ps, 0.95).unwrap().patterns;
        let n98 = required_test_length(&ps, 0.98).unwrap().patterns;
        let n999 = required_test_length(&ps, 0.999).unwrap().patterns;
        assert!(n95 <= n98 && n98 <= n999);
        let easier = [0.01, 0.1, 0.3];
        let ne = required_test_length(&easier, 0.95).unwrap().patterns;
        assert!(ne <= n95);
    }

    #[test]
    fn undetectable_fault_is_unreachable() {
        assert!(required_test_length(&[0.0, 0.5], 0.9).is_none());
    }

    #[test]
    fn fraction_drops_hardest_faults() {
        // One pathological fault at 1e-12 dominates d=1.0; d=0.5 drops it.
        let ps = [0.5, 1e-12];
        let full = required_test_length_fraction(&ps, 1.0, 0.95).unwrap();
        let half = required_test_length_fraction(&ps, 0.5, 0.95).unwrap();
        assert!(full.patterns > 1_000_000_000);
        assert!(half.patterns < 100);
    }

    #[test]
    fn certain_detection_needs_one_pattern() {
        let got = required_test_length(&[1.0, 1.0], 0.99).unwrap();
        assert_eq!(got.patterns, 1);
        assert_eq!(got.confidence, 1.0);
    }

    #[test]
    fn empty_fault_set() {
        let got = required_test_length(&[], 0.9).unwrap();
        assert_eq!(got.patterns, 0);
    }

    #[test]
    fn formula_matches_direct_product_in_easy_regime() {
        let ps = [0.3, 0.2, 0.6];
        for n in [1u64, 5, 20] {
            let direct: f64 = ps
                .iter()
                .map(|&p: &f64| 1.0 - (1.0 - p).powi(n as i32))
                .product();
            let log_space = set_detection_probability(&ps, n);
            assert!((direct - log_space).abs() < 1e-12, "n={n}");
        }
    }

    #[test]
    #[should_panic(expected = "confidence")]
    fn rejects_confidence_one() {
        let _ = required_test_length(&[0.5], 1.0);
    }

    #[test]
    fn weighted_matches_repeated_expansion() {
        // A class of size k contributes exactly like k copies of its
        // representative's probability.
        let ps = [0.4, 0.05, 0.7];
        let counts = [3u32, 2, 1];
        let expanded: Vec<f64> = ps
            .iter()
            .zip(&counts)
            .flat_map(|(&p, &c)| std::iter::repeat_n(p, c as usize))
            .collect();
        for n in [1u64, 7, 40] {
            let w = ln_set_detection_probability_weighted(&ps, &counts, n);
            let e = ln_set_detection_probability(&expanded, n);
            assert!((w - e).abs() < 1e-12, "n={n}: {w} vs {e}");
        }
        let nw = required_test_length_weighted(&ps, &counts, 0.95).unwrap();
        let ne = required_test_length(&expanded, 0.95).unwrap();
        assert_eq!(nw.patterns, ne.patterns);
        assert!((nw.confidence - ne.confidence).abs() < 1e-12);
    }

    #[test]
    fn weighted_fraction_splits_boundary_classes() {
        // Universe of 4 expanded faults; d = 0.75 keeps 3, cutting the
        // hard class of size 2 down to one member.
        let ps = [0.9, 0.01];
        let counts = [2u32, 2];
        let full = required_test_length_fraction_weighted(&ps, &counts, 1.0, 0.95).unwrap();
        let part = required_test_length_fraction_weighted(&ps, &counts, 0.75, 0.95).unwrap();
        let expanded = [0.9, 0.9, 0.01, 0.01];
        let reference = required_test_length_fraction(&expanded, 0.75, 0.95).unwrap();
        assert_eq!(part.patterns, reference.patterns);
        assert!(part.patterns < full.patterns);
    }

    #[test]
    fn weighted_skips_empty_classes() {
        let got = required_test_length_weighted(&[0.5, 0.2], &[1, 0], 0.9).unwrap();
        let reference = required_test_length(&[0.5], 0.9).unwrap();
        assert_eq!(got.patterns, reference.patterns);
        let none = required_test_length_weighted(&[0.5], &[0], 0.9).unwrap();
        assert_eq!(none.patterns, 0);
    }
}
