//! The walk-per-assignment conditioning kernel this crate shipped before
//! the assignment-major sweep, kept verbatim as a test oracle: the sweep
//! must produce `to_bits`-identical estimates to it at every `MAXVERS`,
//! `MAXLIST` and thread count, with fresh and with persistent scratches.
//!
//! The only additions to the old code are the [`WORK`](super::WORK)
//! increments where it runs nested conditioning, so the tests can compare
//! how often each kernel pays for a nested evaluation.

use proptest::prelude::*;
use protest_circuits::{by_name, random_circuit, RandomCircuitParams};
use protest_netlist::NodeId;

use super::{
    for_each_set_bit, lit_prob, AndCache, Scratch, Scratch2, SignalProbEstimator,
    MAX_NESTED_SCORING, MAX_NESTED_VERS, WORK,
};
use crate::aig::{Aig, AigLit, AigNodeId};
use crate::cancel::CancelToken;
use crate::exec::Exec;
use crate::params::{AnalyzerParams, InputProbs};
use crate::Analyzer;

impl Scratch {
    /// Like [`lit_value`](Scratch::lit_value) with a two-level fallback:
    /// this scratch first, then `outer`, then `base`.
    fn lit_value_over(&self, outer: &Scratch, base: &[f64], lit: AigLit) -> f64 {
        let n = lit.node();
        let p = if self.is_set(n) {
            self.value[n.index()]
        } else {
            outer.get(base, n)
        };
        if lit.is_complement() {
            1.0 - p
        } else {
            p
        }
    }
}

/// The cone indices (ascending) a walk pinning `w_idx` can touch: the
/// union of the candidates' descendant bitsets.
fn affected_sublist(cache: &AndCache, w_idx: &[u32]) -> Vec<u32> {
    let mut mask = vec![0u64; cache.inner.len().div_ceil(64)];
    for &j in w_idx {
        for (wi, &d) in cache.desc(j as usize).iter().enumerate() {
            mask[wi] |= d;
        }
    }
    let mut out = Vec::new();
    for_each_set_bit(&mask, |ci| out.push(ci as u32));
    out
}

/// The old scratch: AIG-indexed outer and nested buffers, the memo, and
/// the per-node `W`-dependent structures.
#[derive(Debug, Clone)]
struct RefScratch {
    outer: Scratch,
    inner: Scratch,
    memo: Memo,
    cond: Vec<CondState>,
}

/// See the old `Scratch2::cond`.
#[derive(Debug, Clone, Default)]
struct CondState {
    /// Joining-candidate indices of the last selected `W` (ascending).
    w: Vec<u32>,
    /// Pin-dependency masks over the full cone for that `W`.
    dep: Vec<u32>,
    /// Union of the pins' descendant sublists (cone indices, ascending).
    affected: Vec<u32>,
}

impl RefScratch {
    fn new(n: usize) -> Self {
        RefScratch {
            outer: Scratch::new(n),
            inner: Scratch::new(n),
            memo: Memo::default(),
            cond: (0..n).map(|_| CondState::default()).collect(),
        }
    }
    /// Invalidates all memo entries and guarantees capacity for `slots`.
    fn memo_begin(&mut self, slots: usize) {
        self.memo.begin(slots);
    }
}

/// Epoch-stamped memo table for nested cone values, keyed by
/// `(cone index) << |W| | projected assignment`.
#[derive(Debug, Clone, Default)]
struct Memo {
    value: Vec<f64>,
    stamp: Vec<u32>,
    epoch: u32,
}

impl Memo {
    fn begin(&mut self, slots: usize) {
        if self.stamp.len() < slots {
            self.stamp.resize(slots, 0);
            self.value.resize(slots, 0.0);
        }
        self.epoch = self.epoch.wrapping_add(1);
        if self.epoch == 0 {
            self.stamp.iter_mut().for_each(|s| *s = 0);
            self.epoch = 1;
        }
    }
    fn lookup(&self, key: usize) -> Option<f64> {
        (self.stamp[key] == self.epoch).then(|| self.value[key])
    }
    fn store(&mut self, key: usize, v: f64) {
        self.value[key] = v;
        self.stamp[key] = self.epoch;
    }
}

impl SignalProbEstimator {
    /// The old serial full pass over the old kernel, with a caller-held
    /// scratch so session-style sequences can keep it warm.
    fn reference_full_estimate(&self, input_probs: &[f64], scratch: &mut RefScratch) -> Vec<f64> {
        let n = self.aig.len();
        let mut probs = vec![0.0f64; n];
        probs[0] = 1.0;
        for k in 1..n {
            let id = AigNodeId::from_index(k);
            if let Some(pos) = self.aig.input_position(id) {
                probs[k] = input_probs[pos];
                continue;
            }
            let (la, lb) = self.aig.and_fanins(id).expect("AND");
            let cache = &self.cache[k];
            probs[k] = if cache.joining.is_empty() {
                lit_prob(&probs, la) * lit_prob(&probs, lb)
            } else {
                self.reference_conditioned(&probs, k, la, lb, cache, scratch)
            };
        }
        probs
    }

    fn reference_conditioned(
        &self,
        base: &[f64],
        k: usize,
        la: AigLit,
        lb: AigLit,
        cache: &AndCache,
        scratch: &mut RefScratch,
    ) -> f64 {
        let pa = lit_prob(base, la);
        let pb = lit_prob(base, lb);
        // Score each joining point by |Cov(a,x)·Cov(b,x)| / S(x)². Nested
        // conditioning during scoring sharpens the ranking, but its cost
        // multiplies with the candidate count — restrict it to small sets.
        let nest_scores = cache.joining.len() <= MAX_NESTED_SCORING;
        let mut scored: Vec<(f64, u32)> = Vec::with_capacity(cache.joining.len());
        for (j, &x) in cache.joining.iter().enumerate() {
            let px = base[x.index()];
            if px <= f64::EPSILON || px >= 1.0 - f64::EPSILON {
                continue; // deterministic node carries no correlation
            }
            let (pa1, pb1) =
                self.reference_repropagate_scoring(base, cache, j, nest_scores, la, lb, scratch);
            let cov_a = (pa1 - pa) * px;
            let cov_b = (pb1 - pb) * px;
            let score = (cov_a * cov_b).abs() / (px * (1.0 - px));
            if score > 1e-15 {
                scored.push((score, j as u32));
            }
        }
        if scored.is_empty() {
            return (pa * pb).clamp(0.0, 1.0);
        }
        scored.sort_by(|a, b| b.0.partial_cmp(&a.0).unwrap_or(std::cmp::Ordering::Equal));
        scored.truncate(self.maxvers);
        if scored.is_empty() {
            return (pa * pb).clamp(0.0, 1.0); // maxvers = 0: product rule
        }
        // Drop joining points whose score is negligible next to the top
        // one: every kept point doubles the enumeration below.
        let cutoff = scored[0].0 * 3e-3;
        scored.retain(|&(s, _)| s >= cutoff);
        let mut w_idx: Vec<u32> = scored.iter().map(|&(_, j)| j).collect();
        // Topological order: chain-rule weights condition each joining point
        // on the pins of its ancestors (`joining` is ascending, so sorting
        // the candidate indices sorts the nodes).
        w_idx.sort_unstable();

        // W-dependent, value-independent structures: pin-dependency masks
        // and the affected sublist (union of the pins' descendant bitsets —
        // the only cone nodes an enumeration walk can touch). Rebuilt only
        // when the selected W differs from this node's last evaluation with
        // this scratch.
        if scratch.cond[k].w != w_idx {
            let dep = self.reference_build_dep_masks(cache, &w_idx);
            let affected = affected_sublist(cache, &w_idx);
            let cc = &mut scratch.cond[k];
            cc.w = w_idx.clone();
            cc.dep = dep;
            cc.affected = affected;
        }
        scratch.memo_begin(cache.inner.len() << w_idx.len());
        let RefScratch {
            outer,
            inner,
            memo,
            cond,
        } = scratch;
        let cc = &cond[k];

        // Enumerate the 2^|W| assignments (formula (2)). `P(A_v)` is the
        // *joint* probability of the assignment, accumulated by the chain
        // rule inside the walk — joining points are often correlated
        // with each other (one may even imply another), so the product of
        // marginals would put weight on impossible assignments.
        let mut total = 0.0f64;
        let mut norm = 0.0f64;
        let mut pinned: Vec<(AigNodeId, f64)> = w_idx
            .iter()
            .map(|&j| (cache.joining[j as usize], 0.0))
            .collect();
        for v in 0..(1usize << w_idx.len()) {
            for (i, _) in w_idx.iter().enumerate() {
                pinned[i].1 = f64::from((v >> i) & 1 == 1);
            }
            let (pa_v, pb_v, weight) = self.reference_repropagate_memo(
                base,
                cache,
                &cc.affected,
                &pinned,
                la,
                lb,
                outer,
                inner,
                memo,
                v,
                &cc.dep,
                w_idx.len() as u32,
            );
            if weight <= 0.0 {
                continue;
            }
            total += weight * pa_v * pb_v;
            norm += weight;
        }
        if norm <= 0.0 {
            return (pa * pb).clamp(0.0, 1.0);
        }
        (total / norm).clamp(0.0, 1.0)
    }

    fn reference_build_dep_masks(&self, cache: &AndCache, w_idx: &[u32]) -> Vec<u32> {
        let mut dep: Vec<u32> = vec![0; cache.inner.len()];
        for ci in 0..cache.inner.len() {
            let x = cache.inner[ci];
            let mut m = match w_idx.iter().position(|&j| cache.joining[j as usize] == x) {
                Some(i) => 1u32 << i,
                None => 0,
            };
            for &fc in &cache.fanin_ci[ci] {
                if fc >= 0 {
                    m |= dep[fc as usize];
                }
            }
            let xcache = &self.cache[x.index()];
            if xcache.nests() {
                let absorb = |m: &mut u32, node: AigNodeId, dep: &[u32]| {
                    if let Ok(i) = cache.inner.binary_search(&node) {
                        *m |= dep[i];
                    }
                };
                for &y in &xcache.inner {
                    absorb(&mut m, y, &dep);
                    if let Some((ga, gb)) = self.aig.and_fanins(y) {
                        absorb(&mut m, ga.node(), &dep);
                        absorb(&mut m, gb.node(), &dep);
                    }
                }
            }
            dep[ci] = m;
        }
        dep
    }

    #[allow(clippy::too_many_arguments)]
    fn reference_repropagate_scoring(
        &self,
        base: &[f64],
        cache: &AndCache,
        j: usize,
        nest: bool,
        la: AigLit,
        lb: AigLit,
        scratch: &mut RefScratch,
    ) -> (f64, f64) {
        let x = cache.joining[j];
        let (outer, inner) = (&mut scratch.outer, &mut scratch.inner);
        outer.begin();
        for (wi, &word0) in cache.desc(j).iter().enumerate() {
            let mut word = word0;
            while word != 0 {
                let ci = (wi << 6) | word.trailing_zeros() as usize;
                word &= word - 1;
                let n = cache.inner[ci];
                // Conditional estimate of `n` under the pin. Nodes
                // unaffected by it keep their base estimate: the base
                // values already include bounded conditioning, so
                // recomputing them with the plain product rule would
                // *degrade* them.
                let affected = match self.aig.and_fanins(n) {
                    Some((fa, fb)) => outer.is_set(fa.node()) || outer.is_set(fb.node()),
                    None => false,
                };
                let phat = if !affected {
                    base[n.index()]
                } else if nest {
                    self.reference_cone_node_value(base, n, outer, inner)
                } else {
                    let (fa, fb) = self.aig.and_fanins(n).expect("affected implies AND");
                    outer.lit_value(base, fa) * outer.lit_value(base, fb)
                };
                if n == x {
                    outer.set(n, 1.0);
                } else if affected {
                    outer.set(n, phat);
                }
            }
        }
        (outer.lit_value(base, la), outer.lit_value(base, lb))
    }

    #[allow(clippy::too_many_arguments)]
    fn reference_repropagate_memo(
        &self,
        base: &[f64],
        cache: &AndCache,
        affected: &[u32],
        pinned: &[(AigNodeId, f64)],
        la: AigLit,
        lb: AigLit,
        outer: &mut Scratch,
        inner: &mut Scratch,
        memo: &mut Memo,
        v: usize,
        dep: &[u32],
        bits: u32,
    ) -> (f64, f64, f64) {
        outer.begin();
        let mut weight = 1.0f64;
        for &ci in affected {
            let ci = ci as usize;
            let n = cache.inner[ci];
            let is_affected = match self.aig.and_fanins(n) {
                Some((fa, fb)) => outer.is_set(fa.node()) || outer.is_set(fb.node()),
                None => false,
            };
            let pin_idx = pinned.iter().position(|&(x, _)| x == n);
            let phat = if !is_affected {
                base[n.index()]
            } else {
                // A pinned node's pre-pin estimate cannot depend on its own
                // pin bit — mask it out so both branches share the entry.
                let mask = dep[ci] & !pin_idx.map_or(0, |i| 1u32 << i);
                let key = (ci << bits) | (v & mask as usize);
                match memo.lookup(key) {
                    Some(cached) => cached,
                    None => {
                        let computed = self.reference_cone_node_value(base, n, outer, inner);
                        memo.store(key, computed);
                        computed
                    }
                }
            };
            if let Some(&(_, pv)) = pin_idx.map(|i| &pinned[i]) {
                weight *= if pv > 0.5 { phat } else { 1.0 - phat };
                if weight <= 0.0 {
                    return (0.0, 0.0, 0.0); // impossible assignment
                }
                outer.set(n, pv);
            } else if is_affected {
                outer.set(n, phat);
            }
        }
        (outer.lit_value(base, la), outer.lit_value(base, lb), weight)
    }

    fn reference_cone_node_value(
        &self,
        base: &[f64],
        n: AigNodeId,
        outer: &Scratch,
        inner: &mut Scratch,
    ) -> f64 {
        let (fa, fb) = self
            .aig
            .and_fanins(n)
            .expect("cone interior node is an AND");
        let ncache = &self.cache[n.index()];
        if !ncache.nests() {
            let va = outer.lit_value(base, fa);
            let vb = outer.lit_value(base, fb);
            return va * vb;
        }
        WORK.with(|w| w.set(w.get() + 1));
        // Bound the nested enumeration tighter than MAXVERS: this runs per
        // affected node per outer assignment.
        let wn = ncache.joining.len().min(self.maxvers.min(MAX_NESTED_VERS));
        let w = &ncache.joining[..wn];
        // The nested cone has at most MAX_NESTED_CONE (= 32) entries, so
        // the descendant bitsets are single words; the walk visits only the
        // pins' descendant closure (everything else falls back to the outer
        // context / base values unchanged).
        let mut sublist: u64 = 0;
        for j in 0..wn {
            sublist |= ncache.desc(j)[0];
        }
        let mut total = 0.0f64;
        let mut norm = 0.0f64;
        for v in 0..(1usize << wn) {
            inner.begin();
            let mut weight = 1.0f64;
            let mut bitsleft = sublist;
            while bitsleft != 0 {
                let ci = bitsleft.trailing_zeros() as usize;
                bitsleft &= bitsleft - 1;
                let m = ncache.inner[ci];
                let affected = match self.aig.and_fanins(m) {
                    Some((ga, gb)) => inner.is_set(ga.node()) || inner.is_set(gb.node()),
                    None => false,
                };
                let phat = if affected {
                    let (ga, gb) = self.aig.and_fanins(m).expect("affected implies AND");
                    // Fallback chain: nested scratch → outer scratch → base.
                    let va = inner.lit_value_over(outer, base, ga);
                    let vb = inner.lit_value_over(outer, base, gb);
                    va * vb
                } else {
                    outer.get(base, m)
                };
                if let Some(i) = w.iter().position(|&x| x == m) {
                    let bit = (v >> i) & 1 == 1;
                    weight *= if bit { phat } else { 1.0 - phat };
                    if weight <= 0.0 {
                        break;
                    }
                    inner.set(m, f64::from(bit));
                } else if affected {
                    inner.set(m, phat);
                }
            }
            if weight <= 0.0 {
                continue;
            }
            let va = inner.lit_value_over(outer, base, fa);
            let vb = inner.lit_value_over(outer, base, fb);
            total += weight * va * vb;
            norm += weight;
        }
        if norm <= 0.0 {
            let va = outer.lit_value(base, fa);
            let vb = outer.lit_value(base, fb);
            return va * vb;
        }
        (total / norm).clamp(0.0, 1.0)
    }
}

/// A serial pass of the sweep kernel with a caller-held scratch, the way
/// a session re-evaluates nodes.
fn sweep_with(est: &SignalProbEstimator, input_probs: &[f64], scratch: &mut Scratch2) -> Vec<f64> {
    let n = est.aig.len();
    let mut probs = vec![0.0f64; n];
    probs[0] = 1.0;
    for k in 1..n {
        let id = AigNodeId::from_index(k);
        probs[k] = match est.aig.input_position(id) {
            Some(pos) => input_probs[pos],
            None => est.and_node_value(&probs, id, scratch),
        };
    }
    probs
}

/// Input vectors of `k/16` probabilities and one of `k/18`, each
/// including exactly 0 and 1. Dyadic inputs keep much of the arithmetic
/// exact, so only the `k/18` vector shows a change of operation order.
fn input_vectors(inputs: usize) -> Vec<Vec<f64>> {
    let mut vs: Vec<Vec<f64>> = (0..3usize)
        .map(|s| {
            (0..inputs)
                .map(|i| ((i * 5 + s * 3) % 17) as f64 / 16.0)
                .collect()
        })
        .collect();
    vs.push(
        (0..inputs)
            .map(|i| ((i * 7 + 3) % 19) as f64 / 18.0)
            .collect(),
    );
    vs
}

/// Asserts two probability vectors are `to_bits`-equal.
fn assert_bits(got: &[f64], want: &[f64], what: &str) {
    assert_eq!(got.len(), want.len(), "{what}: length");
    for (k, (g, w)) in got.iter().zip(want).enumerate() {
        assert_eq!(g.to_bits(), w.to_bits(), "{what}: node {k}: {g} vs {w}");
    }
}

/// Checks the sweep against the old kernel on `aig` at every `MAXVERS`
/// and `MAXLIST` in the sweep, at 1, 2 and 4 threads.
fn check(aig: &Aig, name: &str, maxvers: &[usize], maxlist: &[usize]) {
    for &ml in maxlist {
        for &mv in maxvers {
            let params = AnalyzerParams {
                maxvers: mv,
                maxlist: ml,
                num_threads: 1,
                ..AnalyzerParams::default()
            };
            let est = SignalProbEstimator::new(aig.clone(), &params);
            let mut oracle = RefScratch::new(aig.len());
            for (s, probs) in input_vectors(aig.num_inputs()).iter().enumerate() {
                let want = est.reference_full_estimate(probs, &mut oracle);
                for threads in [1, 2, 4] {
                    let got = est
                        .full_estimate_exec_cancellable(
                            probs,
                            &Exec::new(threads),
                            &CancelToken::never(),
                        )
                        .expect("never cancelled");
                    let what =
                        format!("{name} maxvers={mv} maxlist={ml} vector={s} threads={threads}");
                    assert_bits(&got, &want, &what);
                }
            }
        }
    }
}

const MAXVERS: [usize; 5] = [0, 1, 3, 5, 8];
const MAXLIST: [usize; 4] = [0, 1, 3, 10];

fn check_named(name: &str, maxvers: &[usize], maxlist: &[usize]) {
    let circuit = by_name(name).expect("known circuit");
    check(&Aig::from_circuit(&circuit), name, maxvers, maxlist);
}

#[test]
fn sweep_matches_reference_on_paper_circuits() {
    for name in ["c17", "comp24", "alu", "div8x8"] {
        check_named(name, &MAXVERS, &MAXLIST);
    }
}

#[test]
fn sweep_matches_reference_on_coupled_alu_mesh() {
    check_named("alumesh:8x12", &MAXVERS, &MAXLIST);
}

#[test]
fn sweep_matches_reference_on_coupled_multiplier_mesh() {
    // 13k nodes: the default parameters plus the extremes of the sweep.
    check_named("multmesh:4x12x16", &[0, 5, 8], &[3, 10]);
}

#[test]
fn sweep_matches_reference_on_uncoupled_lane() {
    check_named("multmesh:4x16x1:uncoupled", &MAXVERS, &MAXLIST);
}

/// A session keeps its scratch across runs, so the sweep's reused buffers
/// (cone slots, row table, projection memo) still hold the previous node's
/// and the previous run's values. A `set_input_prob` sequence that
/// repeats inputs (every re-evaluated node re-selects its `W`) and moves
/// one input across k/16 and k/18 values (some nodes select a different
/// `W`) stays bit-identical to the old kernel with its own persistent
/// scratch, through a hand-held scratch and through an
/// [`AnalysisSession`](crate::AnalysisSession) at 1 and 2 threads.
#[test]
fn persistent_scratch_sequence_matches_reference() {
    for name in ["alu", "div8x8", "multmesh:4x16x1:uncoupled"] {
        let circuit = by_name(name).expect("known circuit");
        let aig = Aig::from_circuit(&circuit);
        let params = AnalyzerParams {
            num_threads: 1,
            ..AnalyzerParams::default()
        };
        let est = SignalProbEstimator::new(aig.clone(), &params);
        let mut oracle = RefScratch::new(aig.len());
        let mut scratch = est.new_scratch();
        let start = vec![0.5; aig.num_inputs()];
        let analyzers: Vec<Analyzer<'_>> = [1, 2]
            .map(|num_threads| {
                Analyzer::with_params(
                    &circuit,
                    AnalyzerParams {
                        num_threads,
                        ..params
                    },
                )
            })
            .into();
        let uniform = InputProbs::from_slice(&start).expect("valid");
        let mut sessions: Vec<_> = analyzers
            .iter()
            .map(|a| a.session(&uniform).expect("session"))
            .collect();
        let mut probs = start;
        for step in 0..12 {
            if step % 3 != 1 {
                let i = (step * 7) % probs.len();
                probs[i] = if step % 2 == 0 {
                    ((step * 5) % 17) as f64 / 16.0
                } else {
                    ((step * 7) % 19) as f64 / 18.0
                };
                for session in &mut sessions {
                    session.set_input_prob(i, probs[i]).expect("in range");
                }
            }
            let want = est.reference_full_estimate(&probs, &mut oracle);
            let got = sweep_with(&est, &probs, &mut scratch);
            assert_bits(&got, &want, &format!("{name} step {step}"));
            assert_bits(
                &est.full_estimate(&probs),
                &want,
                &format!("{name} fresh {step}"),
            );
            let want_circuit: Vec<f64> = (0..circuit.num_nodes())
                .map(|c| lit_prob(&want, aig.lit_of(NodeId::from_index(c))))
                .collect();
            for (t, session) in sessions.iter_mut().enumerate() {
                let what = format!("{name} session threads={} step {step}", t + 1);
                assert_bits(session.signal_probs(), &want_circuit, &what);
            }
        }
    }
}

/// The sweep evaluates a nested node once per live projection of the
/// assignment, so it never runs more nested evaluations than the old
/// kernel's memo misses (plus the identical nested scoring walks).
#[test]
fn sweep_runs_no_more_nested_evaluations_than_the_memo() {
    let aig = Aig::from_circuit(&by_name("multmesh:4x16x1:uncoupled").expect("known circuit"));
    let params = AnalyzerParams {
        num_threads: 1,
        ..AnalyzerParams::default()
    };
    let est = SignalProbEstimator::new(aig.clone(), &params);
    let probs: Vec<f64> = (0..aig.num_inputs())
        .map(|i| ((i * 7 + 3) % 19) as f64 / 18.0)
        .collect();
    WORK.with(|w| w.set(0));
    let want = est.reference_full_estimate(&probs, &mut RefScratch::new(aig.len()));
    let oracle = WORK.with(|w| w.replace(0));
    let got = est.full_estimate(&probs);
    let sweep = WORK.with(|w| w.replace(0));
    assert_bits(&got, &want, "lane");
    assert!(sweep > 0, "the lane runs nested conditioning");
    assert!(
        sweep <= oracle,
        "sweep {sweep} > oracle {oracle} nested evaluations"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    #[test]
    fn sweep_matches_reference_on_random_circuits(seed in 0u64..10_000, gates in 10usize..600) {
        let circuit = random_circuit(RandomCircuitParams {
            inputs: 12,
            gates,
            outputs: 4,
            seed,
        });
        check(
            &Aig::from_circuit(&circuit),
            &format!("random seed={seed} gates={gates}"),
            &MAXVERS,
            &MAXLIST,
        );
    }
}
