//! The accuracy guard: how far the estimated test length is from the one
//! the redundancy prover's exact detection probabilities give.

use protest_circuits::by_name;
use protest_core::staticanalysis::Verdict;
use protest_core::testlen::required_test_length_fraction_weighted;
use protest_core::{check, Analyzer, InputProbs};

use crate::{analyzer_params, check_params};

/// Circuits whose every fault class the prover settles in well under a
/// second (the `dft_loop` circuits).
const CIRCUITS: [&str; 2] = ["comp24", "alu"];

/// `max |log10(N_est / N_exact)|` over [`CIRCUITS`] at `d = 1`, `e = 0.95`
/// and uniform inputs, class-expanded. `N_exact` uses the prover's exact
/// per-class probability, falling back to the estimate for unproven
/// classes and dropping proven-redundant ones. Returns the figure and one
/// report row per circuit.
pub fn testlen_log10_err(threads: usize) -> (f64, Vec<String>) {
    let mut worst = 0.0f64;
    let mut rows = Vec::new();
    for name in CIRCUITS {
        let circuit = by_name(name).expect("built-in circuit");
        let report = check(&circuit, &check_params(threads));
        let prover = report.prover.expect("prover ran");
        let analyzer = Analyzer::with_params(&circuit, analyzer_params(threads));
        let estimates = analyzer
            .run(&InputProbs::uniform(circuit.num_inputs()))
            .expect("uniform analysis")
            .detection_probabilities();
        let sizes = analyzer.class_sizes();
        assert_eq!(prover.verdicts.len(), estimates.len(), "class lists agree");
        let mut exact = Vec::new();
        let mut counts = Vec::new();
        for ((verdict, &est), &size) in prover.verdicts.iter().zip(&estimates).zip(sizes) {
            match verdict {
                Verdict::Redundant(_) => continue,
                Verdict::Testable { p_exact } => exact.push(*p_exact),
                Verdict::Unproven => exact.push(est),
            }
            counts.push(size);
        }
        let n_est = required_test_length_fraction_weighted(&estimates, sizes, 1.0, 0.95)
            .expect("estimated N within the search cap")
            .patterns;
        let n_exact = required_test_length_fraction_weighted(&exact, &counts, 1.0, 0.95)
            .expect("exact N within the search cap")
            .patterns;
        let err = (n_est as f64 / n_exact as f64).log10().abs();
        worst = worst.max(err);
        rows.push(format!(
            "{name}: N_est {n_est}, N_exact {n_exact}, |log10 ratio| {err:.4}, \
             {} unproven classes",
            prover.stats.unproven
        ));
    }
    (worst, rows)
}
