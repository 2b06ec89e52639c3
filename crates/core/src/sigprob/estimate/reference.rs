//! The serial single-pass estimator construction this crate shipped before
//! the per-node [`ConeBuilder`](super::ConeBuilder), kept verbatim as a
//! test oracle: the rebuilt construction must produce every [`AndCache`]
//! field equal to it, at every `MAXLIST` and thread count.

use proptest::prelude::*;
use protest_circuits::{by_name, random_circuit, RandomCircuitParams};

use super::{build_caches, AndCache, MAX_NESTED_CONE};
use crate::aig::{Aig, AigNodeId};
use crate::cancel::CancelToken;
use crate::exec::Exec;

/// The old per-AND cache layout: a `Vec` per descendant bitset, plus the
/// cached nested-conditioning flag the rebuilt cache recomputes from the
/// cone node's own cache.
#[derive(Debug, Clone, Default)]
struct RefAndCache {
    joining: Vec<AigNodeId>,
    inner: Vec<AigNodeId>,
    fanin_ci: Vec<[i32; 2]>,
    nested_ok: Vec<bool>,
    desc: Vec<Vec<u64>>,
}

/// The old construction body of `SignalProbEstimator::new`.
fn reference_caches(aig: &Aig, maxlist: usize) -> Vec<RefAndCache> {
    let fanouts = aig.fanout_map();
    let n = aig.len();
    let mut cache = vec![RefAndCache::default(); n];
    // Scratch bitsets for cone membership.
    let mut in_a = vec![u32::MAX; n];
    let mut in_b = vec![u32::MAX; n];
    let mut epoch = 0u32;
    #[allow(clippy::needless_range_loop)]
    for k in 0..n {
        let id = AigNodeId::from_index(k);
        let Some((la, lb)) = aig.and_fanins(id) else {
            continue;
        };
        let (a, b) = (la.node(), lb.node());
        epoch += 1;
        let cone_a = bounded_cone(aig, a, maxlist, &mut in_a, epoch);
        let cone_b = bounded_cone(aig, b, maxlist, &mut in_b, epoch);
        // Joining points: in both cones, fanout ≥ 2, with distinct
        // immediate successors toward a and b.
        let mut joining = Vec::new();
        for &x in cone_a.iter() {
            if in_b[x.index()] != epoch {
                continue;
            }
            let succs = fanouts.of(x.index());
            if succs.len() < 2 && !(!succs.is_empty() && (x == a || x == b)) {
                // A fanout of 1 can still join if x *is* a or b itself
                // (x feeds the other side through its single successor
                // while feeding the AND directly).
                if !(x == a || x == b) {
                    continue;
                }
            }
            let mut to_a = x == a;
            let mut to_b = x == b;
            let mut branches_a = usize::from(x == a);
            let mut branches_b = usize::from(x == b);
            for &s in succs {
                let sa = s == a || (s.index() < in_a.len() && in_a[s.index()] == epoch);
                let sb = s == b || (s.index() < in_b.len() && in_b[s.index()] == epoch);
                if sa {
                    to_a = true;
                    branches_a += 1;
                }
                if sb {
                    to_b = true;
                    branches_b += 1;
                }
            }
            // Need two *different* routes: total distinct branch uses ≥ 2.
            if to_a && to_b && branches_a + branches_b >= 2 {
                joining.push(x);
            }
        }
        if joining.is_empty() {
            continue;
        }
        // Union cone in ascending (= topological) order.
        let mut cone: Vec<AigNodeId> = cone_a
            .iter()
            .copied()
            .chain(cone_b.iter().copied().filter(|x| in_a[x.index()] != epoch))
            .collect();
        cone.sort_unstable();
        joining.sort_unstable();
        // Forward pass: keep only joining points and their descendants —
        // the subgraph a pinned assignment can actually change.
        let mut desc = vec![false; cone.len()];
        let is_desc = |cone: &[AigNodeId], desc: &[bool], node: AigNodeId| {
            cone.binary_search(&node).map(|i| desc[i]).unwrap_or(false)
        };
        let mut inner = Vec::new();
        for ci in 0..cone.len() {
            let x = cone[ci];
            let d = joining.binary_search(&x).is_ok()
                || aig.and_fanins(x).is_some_and(|(fa, fb)| {
                    is_desc(&cone, &desc, fa.node()) || is_desc(&cone, &desc, fb.node())
                });
            if d {
                desc[ci] = true;
                inner.push(x);
            }
        }
        // Cone-local structure: fanin positions, nested-conditioning
        // flags and per-candidate descendant bitsets.
        let words = inner.len().div_ceil(64);
        let mut fanin_ci = vec![[-1i32; 2]; inner.len()];
        let mut nested_ok = vec![false; inner.len()];
        for (ci, &x) in inner.iter().enumerate() {
            if let Some((fa, fb)) = aig.and_fanins(x) {
                for (side, f) in [fa, fb].into_iter().enumerate() {
                    if let Ok(i) = inner.binary_search(&f.node()) {
                        fanin_ci[ci][side] = i as i32;
                    }
                }
            }
            let xc = &cache[x.index()];
            nested_ok[ci] = !xc.joining.is_empty() && xc.inner.len() <= MAX_NESTED_CONE;
        }
        let mut cand_desc = Vec::with_capacity(joining.len());
        for &x in &joining {
            let mut bits = vec![0u64; words];
            for (ci, &node) in inner.iter().enumerate() {
                let d = node == x
                    || fanin_ci[ci].iter().any(|&fc| {
                        fc >= 0 && (bits[fc as usize >> 6] >> (fc as usize & 63)) & 1 == 1
                    });
                if d {
                    bits[ci >> 6] |= 1 << (ci & 63);
                }
            }
            cand_desc.push(bits);
        }
        cache[k] = RefAndCache {
            joining,
            inner,
            fanin_ci,
            nested_ok,
            desc: cand_desc,
        };
    }
    cache
}

/// The old bounded-cone search (returns a fresh `Vec` per call).
fn bounded_cone(
    aig: &Aig,
    root: AigNodeId,
    max_depth: usize,
    mark: &mut [u32],
    epoch: u32,
) -> Vec<AigNodeId> {
    let mut cone = vec![root];
    mark[root.index()] = epoch;
    let mut frontier = vec![root];
    for _ in 0..max_depth {
        let mut next = Vec::new();
        for id in frontier.drain(..) {
            if let Some((a, b)) = aig.and_fanins(id) {
                for f in [a.node(), b.node()] {
                    if mark[f.index()] != epoch {
                        mark[f.index()] = epoch;
                        cone.push(f);
                        next.push(f);
                    }
                }
            }
        }
        if next.is_empty() {
            break;
        }
        frontier = next;
    }
    cone
}

/// Asserts `got` equals the reference field by field, `desc` row by row,
/// and that every cone node's recomputed nesting predicate equals the
/// reference's cached `nested_ok` flag.
fn assert_same(got: &[AndCache], want: &[RefAndCache], what: &str) {
    assert_eq!(got.len(), want.len(), "{what}: node count");
    for (k, (g, w)) in got.iter().zip(want).enumerate() {
        assert_eq!(g.joining, w.joining, "{what}: node {k} joining");
        assert_eq!(g.inner, w.inner, "{what}: node {k} inner");
        assert_eq!(g.fanin_ci, w.fanin_ci, "{what}: node {k} fanin_ci");
        let words: usize = w.desc.iter().map(Vec::len).sum();
        assert_eq!(g.desc.len(), words, "{what}: node {k} desc size");
        for (j, row) in w.desc.iter().enumerate() {
            assert_eq!(g.desc(j), &row[..], "{what}: node {k} desc row {j}");
        }
        for (ci, &x) in w.inner.iter().enumerate() {
            assert_eq!(
                got[x.index()].nests(),
                w.nested_ok[ci],
                "{what}: node {k} nested_ok at {ci}"
            );
        }
    }
}

/// Checks the rebuilt construction against the reference at every
/// `MAXLIST` in the sweep and at 1, 2 and 4 threads; the thread counts
/// also show the parallel build equals the serial one.
fn check(aig: &Aig, name: &str) {
    for maxlist in [0, 1, 3, 10] {
        let want = reference_caches(aig, maxlist);
        for threads in [1, 2, 4] {
            let got = build_caches(aig, maxlist, &Exec::new(threads), &CancelToken::never())
                .expect("a disarmed token never cancels");
            assert_same(
                &got,
                &want,
                &format!("{name} maxlist={maxlist} threads={threads}"),
            );
        }
    }
}

fn check_named(name: &str) {
    let circuit = by_name(name).expect("known circuit");
    check(&Aig::from_circuit(&circuit), name);
}

#[test]
fn matches_reference_on_paper_circuits() {
    for name in ["c17", "comp24", "alu", "div8x8"] {
        check_named(name);
    }
}

#[test]
fn matches_reference_on_coupled_multiplier_mesh() {
    check_named("multmesh:4x12x16");
}

#[test]
fn matches_reference_on_coupled_alu_mesh() {
    check_named("alumesh:8x12");
}

#[test]
fn fired_token_cancels_the_build() {
    let aig = Aig::from_circuit(&by_name("div8x8").expect("known circuit"));
    let token = CancelToken::new();
    token.cancel();
    for threads in [1, 2] {
        assert!(build_caches(&aig, 10, &Exec::new(threads), &token).is_err());
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn matches_reference_on_random_circuits(seed in 0u64..10_000, gates in 10usize..1500) {
        let circuit = random_circuit(RandomCircuitParams {
            inputs: 12,
            gates,
            outputs: 4,
            seed,
        });
        check(&Aig::from_circuit(&circuit), &format!("random seed={seed} gates={gates}"));
    }
}
