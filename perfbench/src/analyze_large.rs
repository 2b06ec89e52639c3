//! `analyze_large`: the CLI's one-shot `protest analyze` on two large
//! meshes, parsed from BLIF text inside every job.
//!
//! The coupled `multmesh:4x12x16` is one partition, so its time goes to
//! the estimator's build and sweep; the uncoupled `multmesh:4x16x32` is 32
//! identical partitions with a ~140k-fault test-length solve.

use std::time::Instant;

use protest_circuits::mesh_by_spec;
use protest_core::detect::detection_probability;
use protest_core::observe::ObservabilityEngine;
use protest_core::report::TestabilityReport;
use protest_core::sigprob::SignalProbEstimator;
use protest_core::testlen::{
    required_test_length_fraction, required_test_length_fraction_weighted,
};
use protest_core::{Aig, Analyzer, InputProbs};
use protest_netlist::{parse_blif, to_blif, Circuit, NodeId};

use crate::{
    analyzer_params, fold_bits, median, n_le, nproc, peak_rss_mb, secs, test_lengths, Args, Checks,
    JobTimes, Layers, Outcome, Rng, Stopwatch,
};

/// `(mesh spec, coupled)`: the coupled mesh is analyzed monolithically.
const MESHES: [(&str, bool); 2] = [
    ("multmesh:4x12x16", true),
    ("multmesh:4x16x32:uncoupled", false),
];
/// The CLI's default test-length rows `N(d, e)`.
const TARGETS: [(f64, f64); 2] = [(1.0, 0.95), (0.98, 0.98)];
/// The CLI's default hardest-fault count.
const HARDEST: usize = 10;
/// Set-up repetitions; `setup_s` is their median.
const SETUPS: usize = 9;

struct Input {
    name: String,
    text: String,
    probs: InputProbs,
    coupled: bool,
}

fn setup(seed: u64) -> Vec<Input> {
    let mut rng = Rng::new(seed);
    MESHES
        .iter()
        .map(|&(spec, coupled)| {
            let circuit = mesh_by_spec(spec).expect("valid mesh spec");
            let ks = rng.grid16(circuit.num_inputs());
            Input {
                name: circuit.name().to_string(),
                text: to_blif(&circuit),
                probs: InputProbs::from_grid(&ks, 16).expect("k/16 weights"),
                coupled,
            }
        })
        .collect()
}

/// One circuit's analysis, kept for the output checks.
struct Analyzed {
    node_probs: Vec<f64>,
    obs: Vec<f64>,
    detect: Vec<f64>,
    class_sizes: Vec<u32>,
    uncollapsed: usize,
    lengths: Vec<Option<u64>>,
    hardest: Vec<(String, f64)>,
}

/// The bits a job must reproduce exactly.
#[derive(Debug, PartialEq)]
struct Digest {
    faults: usize,
    node_probs: u64,
    obs: u64,
    detect: u64,
    lengths: Vec<Option<u64>>,
    hardest: Vec<(String, u64)>,
}

impl Analyzed {
    fn digest(&self) -> Digest {
        Digest {
            faults: self.detect.len(),
            node_probs: fold_bits(&self.node_probs),
            obs: fold_bits(&self.obs),
            detect: fold_bits(&self.detect),
            lengths: self.lengths.clone(),
            hardest: self
                .hardest
                .iter()
                .map(|(l, p)| (l.clone(), p.to_bits()))
                .collect(),
        }
    }

    /// Probabilities finite in [0, 1] and the fault count consistent with
    /// the analyzer's class list.
    fn invariants(&self, problems: &mut Vec<String>) {
        let in_unit = |xs: &[f64]| xs.iter().all(|p| p.is_finite() && (0.0..=1.0).contains(p));
        if !in_unit(&self.node_probs) || !in_unit(&self.obs) || !in_unit(&self.detect) {
            problems.push("probability outside [0, 1]".into());
        }
        let expanded: usize = self.class_sizes.iter().map(|&c| c as usize).sum();
        if self.detect.is_empty()
            || self.detect.len() != self.class_sizes.len()
            || expanded != self.uncollapsed
        {
            problems.push(format!(
                "fault count: {} estimates, {} classes, {expanded} of {} faults",
                self.detect.len(),
                self.class_sizes.len(),
                self.uncollapsed
            ));
        }
    }

    /// `N(d, e)` never shrinks when `d` or `e` grows.
    fn monotone(&self, problems: &mut Vec<String>) {
        let n = test_lengths(&self.detect, &[(0.98, 0.95), (1.0, 0.95), (0.98, 0.98)]);
        let (low, by_d, by_e) = (n[0], n[1], n[2]);
        if !n_le(low, by_d) || !n_le(low, by_e) || [by_d, by_e] != self.lengths[..] {
            problems.push(format!(
                "N not monotone: N(.98,.95)={low:?} N(1,.95)={by_d:?} N(.98,.98)={by_e:?}"
            ));
        }
    }
}

fn parse(input: &Input) -> Result<Circuit, String> {
    parse_blif(&input.name, &input.text).map_err(|e| format!("parse: {e}"))
}

/// The untraced job: exactly what `protest analyze` runs per circuit.
fn job(inputs: &[Input], threads: usize) -> Result<Vec<Analyzed>, String> {
    let mut out = Vec::new();
    for input in inputs {
        let circuit = parse(input)?;
        let analyzer = Analyzer::with_params(&circuit, analyzer_params(threads));
        let analysis = analyzer.run(&input.probs).map_err(|e| e.to_string())?;
        let report = TestabilityReport::new(&analyzer, &analysis, &TARGETS, HARDEST);
        std::hint::black_box(report.to_string());
        out.push(Analyzed {
            node_probs: analysis.signal_probabilities().to_vec(),
            obs: analysis.observabilities().node_values().to_vec(),
            detect: analysis.detection_probabilities(),
            class_sizes: analyzer.class_sizes().to_vec(),
            uncollapsed: analyzer.uncollapsed_fault_count(),
            lengths: report
                .test_lengths()
                .iter()
                .map(|(_, _, t)| t.map(|t| t.patterns))
                .collect(),
            hardest: report.hardest().to_vec(),
        });
    }
    Ok(out)
}

/// The traced job: the same analysis with every layer called on its own.
/// The coupled mesh runs the monolithic path step by step (AIG, estimator
/// build, sweep, observability, per-fault detection); the uncoupled mesh
/// runs the partitioned one-shot pass, which has no public seams.
fn traced_job(
    inputs: &[Input],
    threads: usize,
    layers: &mut Layers,
) -> Result<Vec<Analyzed>, String> {
    let mut out = Vec::new();
    for input in inputs {
        let params = analyzer_params(threads);
        let circuit = layers.time("netlist.parse_ms", || parse(input))?;
        let analyzer = layers.time("analyzer.build_ms", || {
            Analyzer::with_params(&circuit, params)
        });
        layers.count("analyzer.faults", analyzer.faults().len() as f64);
        let (node_probs, obs, detect) = if input.coupled {
            let aig = layers.time("sigprob.aig_ms", || Aig::from_circuit(&circuit));
            layers.count("sigprob.and_nodes", aig.num_ands() as f64);
            let est = layers.time("sigprob.build_ms", || {
                SignalProbEstimator::new(aig, &params)
            });
            let node_probs = layers.time("sigprob.sweep_ms", || {
                let aig_probs = est.full_estimate(input.probs.as_slice());
                (0..circuit.num_nodes())
                    .map(|i| {
                        let lit = est.aig().lit_of(NodeId::from_index(i));
                        let p = aig_probs[lit.node().index()];
                        if lit.is_complement() {
                            1.0 - p
                        } else {
                            p
                        }
                    })
                    .collect::<Vec<f64>>()
            });
            let obs = layers.time("observe.compute_ms", || {
                ObservabilityEngine::new(&circuit, &params).compute(&node_probs)
            });
            let detect = layers.time("detect.faults_ms", || {
                analyzer
                    .faults()
                    .iter()
                    .map(|&f| detection_probability(&circuit, f, &node_probs, &obs))
                    .collect::<Vec<f64>>()
            });
            (node_probs, obs.node_values().to_vec(), detect)
        } else {
            let analysis = layers
                .time("partition.run_ms", || analyzer.run(&input.probs))
                .map_err(|e| e.to_string())?;
            layers.count("partition.count", analyzer.partition_count() as f64);
            layers.count("partition.classes", analyzer.partition_class_count() as f64);
            (
                analysis.signal_probabilities().to_vec(),
                analysis.observabilities().node_values().to_vec(),
                analysis.detection_probabilities(),
            )
        };
        // The report's four solves: plain and class-expanded per row.
        let sizes = analyzer.class_sizes();
        let lengths = layers.time("testlen.solve_ms", || {
            TARGETS
                .iter()
                .map(|&(d, e)| {
                    std::hint::black_box(required_test_length_fraction_weighted(
                        &detect, sizes, d, e,
                    ));
                    required_test_length_fraction(&detect, d, e).map(|t| t.patterns)
                })
                .collect::<Vec<_>>()
        });
        layers.count("testlen.calls", 2.0 * TARGETS.len() as f64);
        let mut order: Vec<usize> = (0..detect.len()).collect();
        order.sort_by(|&a, &b| {
            detect[a]
                .partial_cmp(&detect[b])
                .unwrap_or(std::cmp::Ordering::Equal)
        });
        let hardest = order
            .iter()
            .take(HARDEST)
            .map(|&i| (analyzer.faults()[i].label(&circuit), detect[i]))
            .collect();
        out.push(Analyzed {
            node_probs,
            obs,
            detect,
            class_sizes: sizes.to_vec(),
            uncollapsed: analyzer.uncollapsed_fault_count(),
            lengths,
            hardest,
        });
    }
    Ok(out)
}

pub fn run(args: &Args) -> Outcome {
    let threads = nproc();
    let mut setup_times = Vec::new();
    let mut inputs = Vec::new();
    for _ in 0..SETUPS {
        let watch = Stopwatch::start();
        inputs = setup(args.seed);
        setup_times.push(watch.read());
    }

    let mut checks = Checks::default();
    let mut layers = Layers::default();
    let mut jobs = JobTimes::default();
    let mut traced_ms = Vec::new();
    let mut reference: Option<Vec<Digest>> = None;
    let start = Instant::now();
    let mut i = 0usize;
    // Traced runs alternate untraced and traced jobs (job 0 untraced: it
    // is the `Analyzer::run` reference the traced path must reproduce).
    while secs(start) < args.seconds || (args.trace && traced_ms.is_empty()) {
        let traced = args.trace && i % 2 == 1;
        let watch = Stopwatch::start();
        let result = if traced {
            traced_job(&inputs, threads, &mut layers)
        } else {
            job(&inputs, threads)
        };
        let elapsed = watch.read();
        if traced {
            let ms = elapsed.wall_s * 1e3;
            layers.end_job(ms);
            traced_ms.push(ms);
        } else {
            jobs.push(elapsed);
        }
        let mut problems = Vec::new();
        match result {
            Err(e) => problems.push(e),
            Ok(analyzed) => {
                let digests: Vec<Digest> = analyzed.iter().map(Analyzed::digest).collect();
                for a in &analyzed {
                    a.invariants(&mut problems);
                    if i == 0 {
                        a.monotone(&mut problems);
                    }
                }
                match &reference {
                    None => reference = Some(digests),
                    Some(r) => {
                        for (k, (got, want)) in digests.iter().zip(r).enumerate() {
                            if got != want {
                                problems.push(format!(
                                    "{} differs from the Analyzer::run reference",
                                    inputs[k].name
                                ));
                            }
                        }
                    }
                }
            }
        }
        checks.record(if traced { "traced job" } else { "job" }, problems);
        i += 1;
    }
    let peak = peak_rss_mb();

    let jobs_per_s = jobs.serial_rates();
    if args.trace {
        let traced_jps = traced_ms.len() as f64 / (traced_ms.iter().sum::<f64>() / 1e3);
        layers.set("trace.overhead_ratio", 1.0 - traced_jps / jobs_per_s.1);
        println!(
            "# traced jobs: {} (median {:.1} ms), untraced: {} (median {:.1} ms)",
            traced_ms.len(),
            median(&traced_ms),
            jobs.wall_ms.len(),
            median(&jobs.wall_ms)
        );
    }
    let resolved =
        Analyzer::with_params(&protest_circuits::c17(), analyzer_params(threads)).num_threads();
    Outcome {
        setup: setup_times,
        jobs,
        jobs_per_s,
        peak_rss_mb: peak,
        checks,
        layers,
        env: vec![
            ("analyzer_threads", resolved.to_string()),
            ("meshes", MESHES.map(|(s, _)| s).join(", ")),
        ],
    }
}
