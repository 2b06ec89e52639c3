//! Cooperative-cancellation semantics of the analysis engine: fired
//! tokens stop work with a typed error, disarmed tokens change nothing,
//! and poisoned sessions are quarantined by the pool.

use std::time::{Duration, Instant};

use protest_core::optimize::{HillClimber, OptimizeParams};
use protest_core::sigprob::SignalProbEstimator;
use protest_core::staticanalysis::{self, CheckParams};
use protest_core::tpi::{self, TpiParams};
use protest_core::{Aig, Analyzer, CancelToken, CoreError, InputProbs, SessionPool};
use protest_netlist::CircuitBuilder;

fn circuit() -> protest_netlist::Circuit {
    let mut b = CircuitBuilder::new("cancel");
    let xs = b.input_bus("x", 8);
    let t = b.and_tree(&xs);
    b.output(t, "z");
    b.finish().unwrap()
}

fn fired() -> CancelToken {
    let token = CancelToken::new();
    token.cancel();
    token
}

#[test]
fn fired_token_aborts_session_construction() {
    let ckt = circuit();
    let analyzer = Analyzer::new(&ckt);
    let err = analyzer
        .session_with_cancel(&InputProbs::uniform(8), fired())
        .expect_err("construction must abort");
    assert!(matches!(err, CoreError::Cancelled), "{err:?}");
}

#[test]
fn fired_token_aborts_run_with_cancel() {
    let ckt = circuit();
    let analyzer = Analyzer::new(&ckt);
    let err = analyzer
        .run_with_cancel(&InputProbs::uniform(8), fired())
        .expect_err("run must abort");
    assert!(matches!(err, CoreError::Cancelled), "{err:?}");
}

#[test]
fn disarmed_token_is_invisible() {
    // Results through the cancellable paths with a never-token are
    // bit-identical to the plain entry points.
    let ckt = circuit();
    let analyzer = Analyzer::new(&ckt);
    let probs = InputProbs::uniform(8);
    let plain = analyzer.run(&probs).unwrap();
    let cancellable = analyzer
        .run_with_cancel(&probs, CancelToken::never())
        .unwrap();
    let a: Vec<u64> = plain
        .detection_probabilities()
        .iter()
        .map(|p| p.to_bits())
        .collect();
    let b: Vec<u64> = cancellable
        .detection_probabilities()
        .iter()
        .map(|p| p.to_bits())
        .collect();
    assert_eq!(a, b);
}

#[test]
fn cancel_mid_session_poisons_and_try_queries_refuse() {
    let ckt = circuit();
    let analyzer = Analyzer::new(&ckt);
    let token = CancelToken::new();
    let mut session = analyzer
        .session_with_cancel(&InputProbs::uniform(8), token.clone())
        .unwrap();
    assert!(!session.is_poisoned());
    token.cancel();
    let err = session.set_input_prob(0, 0.25).expect_err("must cancel");
    assert!(matches!(err, CoreError::Cancelled), "{err:?}");
    assert!(session.is_poisoned(), "mid-propagate cancel poisons");
    assert!(matches!(
        session.try_fault_detect_probs(),
        Err(CoreError::Cancelled)
    ));
}

#[test]
fn deadline_token_fires_after_elapsing() {
    let ckt = circuit();
    let analyzer = Analyzer::new(&ckt);
    let token = CancelToken::after(Duration::from_millis(1));
    let mut session = match analyzer.session_with_cancel(&InputProbs::uniform(8), token) {
        Ok(s) => s,
        // The deadline may legitimately fire during construction on a
        // slow machine; that is already the behavior under test.
        Err(CoreError::Cancelled) => return,
        Err(e) => panic!("unexpected error {e:?}"),
    };
    std::thread::sleep(Duration::from_millis(5));
    assert!(matches!(
        session.set_input_prob(0, 0.25),
        Err(CoreError::Cancelled)
    ));
}

#[test]
fn pool_discards_poisoned_sessions() {
    let ckt = circuit();
    let analyzer = Analyzer::new(&ckt);
    let pool = SessionPool::new(&analyzer, InputProbs::uniform(8)).unwrap();
    {
        let mut s = pool.checkout();
        let token = CancelToken::new();
        s.set_cancel(token.clone());
        token.cancel();
        assert!(s.set_input_prob(0, 0.25).is_err());
        assert!(s.is_poisoned());
    }
    let stats = pool.stats();
    assert_eq!(stats.discarded, 1, "{stats:?}");
    assert_eq!(stats.idle, 0, "poisoned session must not return to idle");
    // The pool still serves: the next checkout is a healthy cold clone.
    let mut s = pool.checkout();
    s.set_input_prob(0, 0.25).unwrap();
    assert!(!s.is_poisoned());
}

#[test]
fn explicit_discard_counts_and_skips_resync() {
    let ckt = circuit();
    let analyzer = Analyzer::new(&ckt);
    let pool = SessionPool::new(&analyzer, InputProbs::uniform(8)).unwrap();
    let s = pool.checkout();
    s.discard();
    let stats = pool.stats();
    assert_eq!(stats.discarded, 1);
    assert_eq!(stats.live, 0);
    assert_eq!(stats.idle, 0);
}

#[test]
fn fired_token_aborts_hill_climb() {
    let ckt = circuit();
    let analyzer = Analyzer::new(&ckt);
    let err = HillClimber::new(&analyzer, OptimizeParams::default())
        .with_cancel(fired())
        .optimize()
        .expect_err("climb must abort");
    assert!(matches!(err, CoreError::Cancelled), "{err:?}");
}

#[test]
fn fired_token_aborts_static_check() {
    let ckt = circuit();
    let params = CheckParams {
        prove_redundant: true,
        ..CheckParams::default()
    };
    let err =
        staticanalysis::check_cancellable(&ckt, &params, &fired()).expect_err("check must abort");
    assert!(matches!(err, CoreError::Cancelled), "{err:?}");
}

#[test]
fn fired_token_aborts_tpi() {
    let ckt = circuit();
    let params = TpiParams::default();
    assert!(matches!(
        tpi::rank_with_cancel(&ckt, &params, &fired()),
        Err(CoreError::Cancelled)
    ));
    assert!(matches!(
        tpi::advise_with_cancel(&ckt, &params, &fired()),
        Err(CoreError::Cancelled)
    ));
}

#[test]
fn clean_cancel_on_full_sweep_is_recoverable() {
    // Cancelling before any incremental state exists (fresh session,
    // never queried) aborts construction; but a cancel that hits a
    // *full* recomputation path leaves the session unpoisoned and a
    // disarmed retry succeeds.
    let ckt = circuit();
    let analyzer = Analyzer::new(&ckt);
    let token = CancelToken::new();
    let mut session = analyzer
        .session_with_cancel(&InputProbs::uniform(8), token.clone())
        .unwrap();
    // Warm nothing; cancel; the observability query aborts on its full
    // sweep without poisoning.
    token.cancel();
    assert!(matches!(
        session.try_observabilities(),
        Err(CoreError::Cancelled)
    ));
    assert!(!session.is_poisoned(), "full-sweep cancel must stay clean");
    session.set_cancel(CancelToken::never());
    session.try_observabilities().expect("retry succeeds");
}

#[test]
fn cancelled_estimator_build_is_fast_and_leaves_the_analyzer_reusable() {
    // A coupled mesh runs the monolithic path, whose first step is the
    // estimator build.
    let ckt = protest_circuits::mesh_by_spec("multmesh:4x12x64").expect("valid mesh spec");
    let probs = InputProbs::uniform(ckt.num_inputs());
    let analyzer = Analyzer::new(&ckt);
    let start = Instant::now();
    std::hint::black_box(SignalProbEstimator::new(
        Aig::from_circuit(&ckt),
        analyzer.params(),
    ));
    let build = start.elapsed();

    let start = Instant::now();
    let err = analyzer
        .run_with_cancel(&probs, fired())
        .expect_err("run must abort");
    let cancelled = start.elapsed();
    assert!(matches!(err, CoreError::Cancelled), "{err:?}");
    assert!(
        cancelled * 4 < build,
        "cancelled run took {cancelled:?}, uncancelled build {build:?}"
    );
    // A token firing mid-build abandons it as well.
    let err = analyzer
        .run_with_cancel(&probs, CancelToken::after(build / 4))
        .expect_err("run must abort");
    assert!(matches!(err, CoreError::Cancelled), "{err:?}");

    // Neither cancelled build left anything behind: the next run builds
    // afresh and matches a fresh analyzer bit for bit.
    let retried = analyzer.run(&probs).expect("retry after cancelled builds");
    let fresh = Analyzer::new(&ckt).run(&probs).expect("fresh run");
    let bits = |a: &protest_core::CircuitAnalysis| -> Vec<u64> {
        a.signal_probabilities()
            .iter()
            .chain(&a.detection_probabilities())
            .map(|p| p.to_bits())
            .collect()
    };
    assert_eq!(bits(&retried), bits(&fresh));
}
