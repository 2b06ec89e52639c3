//! Golden pin of the signal-probability estimator's output bits.
//!
//! One FNV-1a fold of every AIG node's `to_bits` per (circuit, `MAXVERS`,
//! `MAXLIST`), over three input vectors of `k/16` probabilities and one
//! of `k/18`, each including exactly 0 and 1. The constants were recorded from the
//! walk-per-assignment conditioning kernel that preceded the
//! assignment-major sweep, so a kernel change that drifts by one ulp
//! anywhere fails here even after the in-crate oracle is gone.
//!
//! The file also holds the `MAXVERS` limit contract: the estimator and
//! every analysis entry point accept [`MAXVERS_LIMIT`] and return the
//! typed [`CoreError::MaxversTooLarge`] one past it.

use protest_circuits::by_name;
use protest_core::optimize::{HillClimber, OptimizeParams};
use protest_core::sigprob::SignalProbEstimator;
use protest_core::tpi::{self, TpiParams};
use protest_core::{Aig, Analyzer, AnalyzerParams, CoreError, InputProbs, MAXVERS_LIMIT};

/// `(circuit, maxvers, maxlist, fold)`.
const GOLDEN: &[(&str, usize, usize, u64)] = &[
    ("c17", 0, 1, 0x3629c297078a2b6a),
    ("c17", 0, 3, 0x3629c297078a2b6a),
    ("c17", 0, 10, 0x3629c297078a2b6a),
    ("c17", 1, 1, 0x881ad57702d3463e),
    ("c17", 1, 3, 0xa1d7b31c2517f539),
    ("c17", 1, 10, 0xa1d7b31c2517f539),
    ("c17", 3, 1, 0x881ad57702d3463e),
    ("c17", 3, 3, 0xa1d7b31c2517f539),
    ("c17", 3, 10, 0xa1d7b31c2517f539),
    ("c17", 5, 1, 0x881ad57702d3463e),
    ("c17", 5, 3, 0xa1d7b31c2517f539),
    ("c17", 5, 10, 0xa1d7b31c2517f539),
    ("c17", 8, 1, 0x881ad57702d3463e),
    ("c17", 8, 3, 0xa1d7b31c2517f539),
    ("c17", 8, 10, 0xa1d7b31c2517f539),
    ("comp24", 0, 1, 0xb1cb238d3df54494),
    ("comp24", 0, 3, 0xb1cb238d3df54494),
    ("comp24", 0, 10, 0xb1cb238d3df54494),
    ("comp24", 1, 1, 0xd59bd609b2ca0f58),
    ("comp24", 1, 3, 0x1f706436a1401405),
    ("comp24", 1, 10, 0x90803430e1a426aa),
    ("comp24", 3, 1, 0x2fc397aee1409d7a),
    ("comp24", 3, 3, 0x5baf95d99d6d8099),
    ("comp24", 3, 10, 0xda5961ebe608225f),
    ("comp24", 5, 1, 0x2fc397aee1409d7a),
    ("comp24", 5, 3, 0x5baf95d99d6d8099),
    ("comp24", 5, 10, 0x645ab637c4da708e),
    ("comp24", 8, 1, 0x2fc397aee1409d7a),
    ("comp24", 8, 3, 0x5baf95d99d6d8099),
    ("comp24", 8, 10, 0x645ab637c4da708e),
    ("alu", 0, 1, 0xb46904846e7a2ee6),
    ("alu", 0, 3, 0xb46904846e7a2ee6),
    ("alu", 0, 10, 0xb46904846e7a2ee6),
    ("alu", 1, 1, 0x72bc5efac0c37eeb),
    ("alu", 1, 3, 0xbc2d458a25aa09bb),
    ("alu", 1, 10, 0x83f412168908ba31),
    ("alu", 3, 1, 0x5e456d8442abf025),
    ("alu", 3, 3, 0x3403e8ab42faa076),
    ("alu", 3, 10, 0x9661cd4733208238),
    ("alu", 5, 1, 0x5e456d8442abf025),
    ("alu", 5, 3, 0xdd74e71f7c0f5fb3),
    ("alu", 5, 10, 0xea7ecc74546b86b4),
    ("alu", 8, 1, 0x5e456d8442abf025),
    ("alu", 8, 3, 0xdd74e71f7c0f5fb3),
    ("alu", 8, 10, 0xd77a0caf5b9fe7b7),
    ("div8x8", 0, 1, 0x27ee6933fab3dfba),
    ("div8x8", 0, 3, 0x27ee6933fab3dfba),
    ("div8x8", 0, 10, 0x27ee6933fab3dfba),
    ("div8x8", 1, 1, 0xcc15db274973b0da),
    ("div8x8", 1, 3, 0x9ecc611c38bfd772),
    ("div8x8", 1, 10, 0xe8db5c86090e92e2),
    ("div8x8", 3, 1, 0xdf720fa06a4679fc),
    ("div8x8", 3, 3, 0x8b785e882e168fc5),
    ("div8x8", 3, 10, 0x070d385a320c060f),
    ("div8x8", 5, 1, 0xdf720fa06a4679fc),
    ("div8x8", 5, 3, 0x9c85d721136feb78),
    ("div8x8", 5, 10, 0x55e5ac2c76d24e61),
    ("div8x8", 8, 1, 0xdf720fa06a4679fc),
    ("div8x8", 8, 3, 0x6d481db2570418cc),
    ("div8x8", 8, 10, 0x3db386da34fc7200),
    ("alumesh:8x12", 0, 1, 0x252366e2272e393b),
    ("alumesh:8x12", 0, 3, 0x252366e2272e393b),
    ("alumesh:8x12", 0, 10, 0x252366e2272e393b),
    ("alumesh:8x12", 1, 1, 0xe3c6bb4936bc010d),
    ("alumesh:8x12", 1, 3, 0xe927a85a598b3e9f),
    ("alumesh:8x12", 1, 10, 0x265e0ae86b0e005a),
    ("alumesh:8x12", 3, 1, 0x206d3fbb9fe68271),
    ("alumesh:8x12", 3, 3, 0x72ad69abd832364f),
    ("alumesh:8x12", 3, 10, 0x8b5c7d2b85debb4c),
    ("alumesh:8x12", 5, 1, 0x206d3fbb9fe68271),
    ("alumesh:8x12", 5, 3, 0x28bb22468f3d2ea8),
    ("alumesh:8x12", 5, 10, 0xbf5c582c07bcb52a),
    ("alumesh:8x12", 8, 1, 0x206d3fbb9fe68271),
    ("alumesh:8x12", 8, 3, 0x0864b860fbd269cd),
    ("alumesh:8x12", 8, 10, 0x28abca3544d5ea9c),
    ("multmesh:4x8x2", 0, 1, 0x856c874ef056ccdd),
    ("multmesh:4x8x2", 0, 3, 0x856c874ef056ccdd),
    ("multmesh:4x8x2", 0, 10, 0x856c874ef056ccdd),
    ("multmesh:4x8x2", 1, 1, 0xf813b35f4ff3c90f),
    ("multmesh:4x8x2", 1, 3, 0x87637106083d56d5),
    ("multmesh:4x8x2", 1, 10, 0x6185d4daa46928ad),
    ("multmesh:4x8x2", 3, 1, 0x2152b693dc1dcdd4),
    ("multmesh:4x8x2", 3, 3, 0xbb314b7277d0c7c9),
    ("multmesh:4x8x2", 3, 10, 0xc7bc3d4ae41db017),
    ("multmesh:4x8x2", 5, 1, 0x2152b693dc1dcdd4),
    ("multmesh:4x8x2", 5, 3, 0x0fe79dac292c1c62),
    ("multmesh:4x8x2", 5, 10, 0xcc1cddc4cabd69d2),
    ("multmesh:4x8x2", 8, 1, 0x2152b693dc1dcdd4),
    ("multmesh:4x8x2", 8, 3, 0xd0cbbfffa82c70cb),
    ("multmesh:4x8x2", 8, 10, 0x135b5350dcb4e28f),
];

/// Three input vectors of `k/16` probabilities and one of `k/18`, each
/// including exactly 0 and 1. Dyadic inputs keep much of the arithmetic
/// exact, so they pin the edge cases but not the operation order; the
/// `k/18` vector rounds, and catches a reordered sum.
fn input_vectors(inputs: usize) -> Vec<Vec<f64>> {
    let mut vs: Vec<Vec<f64>> = (0..3u64)
        .map(|s| {
            (0..inputs as u64)
                .map(|i| ((i * 5 + s * 3) % 17) as f64 / 16.0)
                .collect()
        })
        .collect();
    vs.push(
        (0..inputs as u64)
            .map(|i| ((i * 7 + 3) % 19) as f64 / 18.0)
            .collect(),
    );
    vs
}

/// FNV-1a over the `to_bits` of every node estimate of every vector.
fn fold(aig: &Aig, maxvers: usize, maxlist: usize) -> u64 {
    let params = AnalyzerParams {
        maxvers,
        maxlist,
        num_threads: 1,
        ..AnalyzerParams::default()
    };
    let est = SignalProbEstimator::new(aig.clone(), &params);
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for probs in input_vectors(aig.num_inputs()) {
        for p in est.full_estimate(&probs) {
            h = (h ^ p.to_bits()).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    h
}

#[test]
fn estimator_output_bits_match_the_golden_folds() {
    let mut failures = Vec::new();
    let mut last: Option<(&str, Aig)> = None;
    for &(name, maxvers, maxlist, want) in GOLDEN {
        if last.as_ref().map(|(n, _)| *n) != Some(name) {
            let circuit = by_name(name).expect("known circuit");
            last = Some((name, Aig::from_circuit(&circuit)));
        }
        let aig = &last.as_ref().expect("loaded").1;
        let got = fold(aig, maxvers, maxlist);
        if got != want {
            failures.push(format!(
                "{name} maxvers={maxvers} maxlist={maxlist}: 0x{got:016x} != 0x{want:016x}"
            ));
        }
    }
    assert!(failures.is_empty(), "{}", failures.join("\n"));
}

fn params(maxvers: usize) -> AnalyzerParams {
    AnalyzerParams {
        maxvers,
        ..AnalyzerParams::default()
    }
}

#[test]
fn maxvers_at_the_limit_works_and_one_past_it_is_a_typed_error() {
    let circuit = by_name("c17").expect("known circuit");
    let probs = InputProbs::uniform(circuit.num_inputs());
    let aig = Aig::from_circuit(&circuit);
    let never = protest_core::CancelToken::never();
    let too_large = CoreError::MaxversTooLarge {
        maxvers: MAXVERS_LIMIT + 1,
        limit: MAXVERS_LIMIT,
    };

    // At the limit every entry point runs.
    let ok = params(MAXVERS_LIMIT);
    assert!(SignalProbEstimator::try_new(aig.clone(), &ok, &never).is_ok());
    let analyzer = Analyzer::with_params(&circuit, ok);
    assert!(analyzer.run(&probs).is_ok());
    assert!(analyzer.session(&probs).is_ok());
    let climb = OptimizeParams {
        max_rounds: 1,
        ..OptimizeParams::default()
    };
    assert!(HillClimber::new(&analyzer, climb).optimize().is_ok());
    let tpi_ok = TpiParams {
        analyzer: ok,
        budget: 1,
        ..TpiParams::default()
    };
    assert!(tpi::advise(&circuit, &tpi_ok).is_ok());

    // One past it, each returns the typed error instead of panicking.
    let bad = params(MAXVERS_LIMIT + 1);
    assert_eq!(
        SignalProbEstimator::try_new(aig, &bad, &never).unwrap_err(),
        too_large
    );
    let analyzer = Analyzer::with_params(&circuit, bad);
    assert_eq!(analyzer.run(&probs).unwrap_err(), too_large);
    assert_eq!(analyzer.session(&probs).unwrap_err(), too_large);
    assert_eq!(
        HillClimber::new(&analyzer, climb).optimize().unwrap_err(),
        too_large
    );
    let tpi_bad = TpiParams {
        analyzer: bad,
        ..tpi_ok
    };
    assert_eq!(tpi::advise(&circuit, &tpi_bad).unwrap_err(), too_large);
    assert_eq!(tpi::rank(&circuit, &tpi_bad).unwrap_err(), too_large);
}
