//! `dft_loop`: the designer's closure loop on small circuits. Per circuit
//! (order seeded per job): parse, `check` with the redundancy prover, a
//! hill climb from a seeded k/16 start, the test-length rows at the
//! optimum, then the test-point advisor with budget 3 at the optimized
//! weights.

use std::time::Instant;

use protest_circuits::by_name;
use protest_core::optimize::{HillClimber, OptimizationResult, OptimizeParams};
use protest_core::testlen::{ln_expected_undetected, required_test_length_fraction};
use protest_core::tpi::{self, TpiParams, TpiResult};
use protest_core::{check, Analyzer, InputProbs, StaticReport};
use protest_netlist::{insert_test_point, parse_bench, to_bench, Circuit};

use crate::{
    analyzer_params, check_params, median, n_le, nproc, peak_rss_mb, secs, test_lengths, Args,
    Checks, JobTimes, Layers, Outcome, Rng, Stopwatch,
};

/// The loop's circuits. Circuits whose prover takes tens of seconds
/// (`div8x8`, `mult`) are left out so a job stays around a second.
const CIRCUITS: [&str; 2] = ["comp24", "alu"];
/// Test-length rows reported at the climb's optimum.
const TARGETS: [(f64, f64); 2] = [(1.0, 0.95), (0.98, 0.98)];
const TPI_BUDGET: usize = 3;
/// Set-up repetitions; `setup_s` is their median.
const SETUPS: usize = 101;

struct Input {
    name: &'static str,
    text: String,
}

fn setup() -> Vec<Input> {
    CIRCUITS
        .iter()
        .map(|&name| Input {
            name,
            text: to_bench(&by_name(name).expect("built-in circuit")),
        })
        .collect()
}

/// One job's seeded plan: circuit order and per-circuit climb start.
struct Plan {
    order: Vec<usize>,
    starts: Vec<Vec<u32>>,
    climb_seed: u64,
}

fn plan(seed: u64, job: u64, circuits: &[Circuit]) -> Plan {
    let mut rng = Rng::new(seed.wrapping_mul(0x1000_0000_01B3) ^ job);
    let mut order: Vec<usize> = (0..circuits.len()).collect();
    for i in (1..order.len()).rev() {
        order.swap(i, rng.range(0, i as u64 + 1) as usize);
    }
    Plan {
        order,
        starts: circuits
            .iter()
            .map(|c| rng.grid16(c.num_inputs()))
            .collect(),
        climb_seed: rng.next_u64(),
    }
}

/// One circuit's pass through the loop.
struct Closed {
    circuit: usize,
    report: StaticReport,
    climb: OptimizationResult,
    lengths: Vec<Option<u64>>,
    tpi: TpiResult,
}

/// The advisor's settings: budget 3 from the climb's optimized weights.
fn tpi_params(threads: usize, probs: &InputProbs) -> TpiParams {
    TpiParams {
        analyzer: analyzer_params(threads),
        budget: TPI_BUDGET,
        base_probs: Some(probs.clone()),
        ..TpiParams::default()
    }
}

/// Runs the loop on every circuit of the plan. With `layers`, each call
/// into a library layer is timed on its own.
fn job(
    inputs: &[Input],
    plan: &Plan,
    threads: usize,
    mut layers: Option<&mut Layers>,
) -> Result<Vec<Closed>, String> {
    // Times `f` under `layer` when tracing, otherwise just runs it.
    fn step<T>(layers: &mut Option<&mut Layers>, layer: &'static str, f: impl FnOnce() -> T) -> T {
        match layers {
            Some(l) => l.time(layer, f),
            None => f(),
        }
    }
    let mut out = Vec::new();
    for &c in &plan.order {
        let input = &inputs[c];
        let circuit = step(&mut layers, "netlist.parse_ms", || {
            parse_bench(input.name, &input.text)
        })
        .map_err(|e| format!("parse: {e}"))?;
        let report = step(&mut layers, "check.ms", || {
            check(&circuit, &check_params(threads))
        });
        let analyzer = step(&mut layers, "analyzer.build_ms", || {
            Analyzer::with_params(&circuit, analyzer_params(threads))
        });
        let climb = step(&mut layers, "optimize.climb_ms", || {
            HillClimber::new(
                &analyzer,
                OptimizeParams {
                    seed: plan.climb_seed,
                    ..OptimizeParams::default()
                },
            )
            .optimize_from_grid(plan.starts[c].clone())
        })
        .map_err(|e| format!("climb: {e}"))?;
        let detect = step(&mut layers, "session.build_ms", || {
            analyzer
                .session(&climb.probs)
                .map(|mut s| s.fault_detect_probs().to_vec())
        })
        .map_err(|e| format!("session: {e}"))?;
        let lengths = step(&mut layers, "testlen.solve_ms", || {
            test_lengths(&detect, &TARGETS)
        });
        let params = tpi_params(threads, &climb.probs);
        let tpi = step(&mut layers, "tpi.advise_ms", || {
            tpi::advise(&circuit, &params)
        })
        .map_err(|e| format!("tpi: {e}"))?;
        if let Some(l) = layers.as_deref_mut() {
            let prover = report.prover.as_ref().map(|p| p.stats).unwrap_or_default();
            l.count("check.bdd_calls", prover.bdd_calls as f64);
            l.count("check.budget_exceeded", prover.budget_exceeded as f64);
            l.count("check.unproven", prover.unproven as f64);
            l.count("analyzer.faults", analyzer.faults().len() as f64);
            l.count("optimize.evaluations", climb.evaluations as f64);
            l.count("session.and_evals", climb.session_stats.and_evals as f64);
            l.count(
                "session.fault_evals",
                climb.session_stats.fault_evals as f64,
            );
            l.count(
                "session.obs_node_evals",
                climb.session_stats.obs_node_evals as f64,
            );
            l.count("testlen.calls", TARGETS.len() as f64);
            l.count("tpi.steps", tpi.steps.len() as f64);
            let scored: usize = tpi.steps.iter().map(|s| s.candidates_scored).sum();
            l.count("tpi.candidates", scored as f64);
        }
        out.push(Closed {
            circuit: c,
            report,
            climb,
            lengths,
            tpi,
        });
    }
    Ok(out)
}

/// `N(d, e)` over the estimated-detectable faults of a fresh analysis —
/// the advisor's ground-truth objective.
fn fresh_length(circuit: &Circuit, weights: &[f64], params: &TpiParams) -> Option<u64> {
    let analyzer = Analyzer::with_params(circuit, params.analyzer);
    let probs = InputProbs::from_slice(weights).ok()?;
    let detect: Vec<f64> = analyzer
        .run(&probs)
        .ok()?
        .detection_probabilities()
        .into_iter()
        .filter(|&p| p > 0.0)
        .collect();
    required_test_length_fraction(&detect, params.frac_d, params.conf_e).map(|t| t.patterns)
}

/// Checks one circuit's pass against fresh direct-API runs.
fn verify(
    closed: &Closed,
    circuits: &[Circuit],
    reports: &[String],
    threads: usize,
) -> Vec<String> {
    let mut problems = Vec::new();
    let circuit = &circuits[closed.circuit];
    let name = circuit.name();
    if closed.report.to_json() != reports[closed.circuit] {
        problems.push(format!("{name}: check report differs from the reference"));
    }
    let analyzer = Analyzer::with_params(circuit, analyzer_params(threads));
    let climb = &closed.climb;
    if climb.objective_ln < climb.initial_objective_ln
        || climb
            .grid_ks
            .iter()
            .zip(climb.probs.as_slice())
            .any(|(&k, &p)| p != k as f64 / 16.0)
    {
        problems.push(format!("{name}: climb made things worse or left the grid"));
    }
    match analyzer.run(&climb.probs) {
        Err(e) => problems.push(format!("{name}: fresh analysis failed: {e}")),
        Ok(analysis) => {
            let detect = analysis.detection_probabilities();
            let clamped: Vec<f64> = detect.iter().map(|p| p.max(1e-12)).collect();
            let objective = -ln_expected_undetected(&clamped, OptimizeParams::default().n_target);
            if objective.to_bits() != climb.objective_ln.to_bits() {
                problems.push(format!(
                    "{name}: climb objective {} vs fresh {objective}",
                    climb.objective_ln
                ));
            }
            if test_lengths(&detect, &TARGETS) != closed.lengths {
                problems.push(format!("{name}: N rows differ from a fresh run"));
            }
        }
    }
    // Replay the committed insertions: each realized N must strictly
    // decrease and match a fresh analysis of the modified circuit.
    let params = tpi_params(threads, &climb.probs);
    let mut current = circuit.clone();
    let mut weights = climb.probs.as_slice().to_vec();
    let mut last = closed.tpi.base_patterns;
    if fresh_length(&current, &weights, &params) != last {
        problems.push(format!("{name}: TPI base N differs from a fresh run"));
    }
    for (k, step) in closed.tpi.steps.iter().enumerate() {
        let Ok((next, point)) = insert_test_point(&current, step.spec) else {
            problems.push(format!("{name}: TPI step {k} does not replay"));
            break;
        };
        if point.control_input.is_some() {
            weights.push(params.control_prob);
        }
        current = next;
        let realized = step.realized_patterns;
        let decreases = !n_le(last, realized);
        if !decreases || fresh_length(&current, &weights, &params) != realized {
            problems.push(format!(
                "{name}: TPI step {k} realized {realized:?} after {last:?} does not check"
            ));
        }
        last = realized;
    }
    if current.num_nodes() != closed.tpi.circuit.num_nodes() || weights != closed.tpi.weights {
        problems.push(format!("{name}: TPI final circuit does not replay"));
    }
    problems
}

pub fn run(args: &Args) -> Outcome {
    let threads = nproc();
    let mut setup_times = Vec::new();
    let mut inputs = Vec::new();
    for _ in 0..SETUPS {
        let watch = Stopwatch::start();
        inputs = setup();
        setup_times.push(watch.read());
    }
    // References for the checks, outside the timed phase.
    let circuits: Vec<Circuit> = inputs
        .iter()
        .map(|i| parse_bench(i.name, &i.text).expect("written BENCH text parses"))
        .collect();
    let reports: Vec<String> = circuits
        .iter()
        .map(|c| check(c, &check_params(threads)).to_json())
        .collect();

    let mut checks = Checks::default();
    let mut layers = Layers::default();
    let mut jobs = JobTimes::default();
    let mut traced_ms = Vec::new();
    let mut rank_ms = Vec::new();
    let start = Instant::now();
    let mut i = 0u64;
    while secs(start) < args.seconds || (args.trace && traced_ms.is_empty()) {
        let plan = plan(args.seed, i, &circuits);
        let traced = args.trace && i % 2 == 1;
        let watch = Stopwatch::start();
        let result = job(&inputs, &plan, threads, traced.then_some(&mut layers));
        let elapsed = watch.read();
        if traced {
            let ms = elapsed.wall_s * 1e3;
            layers.end_job(ms);
            traced_ms.push(ms);
        } else {
            jobs.push(elapsed);
        }
        let problems = match result {
            Err(e) => vec![e],
            Ok(closed) => {
                if traced {
                    // One scoring round per circuit at the job's optimized
                    // weights, timed outside the job: the advisor's hot
                    // loop on its own.
                    let watch = Stopwatch::start();
                    let ranked = closed.iter().try_for_each(|c| {
                        let params = tpi_params(threads, &c.climb.probs);
                        tpi::rank(&circuits[c.circuit], &params).map(drop)
                    });
                    if ranked.is_ok() {
                        rank_ms.push(watch.read().wall_s * 1e3);
                    }
                }
                closed
                    .iter()
                    .flat_map(|c| verify(c, &circuits, &reports, threads))
                    .collect()
            }
        };
        checks.record(if traced { "traced job" } else { "job" }, problems);
        i += 1;
    }
    let peak = peak_rss_mb();

    let jobs_per_s = jobs.serial_rates();
    if args.trace {
        let traced_jps = traced_ms.len() as f64 / (traced_ms.iter().sum::<f64>() / 1e3);
        layers.set("trace.overhead_ratio", 1.0 - traced_jps / jobs_per_s.1);
        if !rank_ms.is_empty() {
            layers.set("tpi.rank_ms", median(&rank_ms));
        }
        println!(
            "# traced jobs: {} (median {:.1} ms), untraced: {} (median {:.1} ms)",
            traced_ms.len(),
            median(&traced_ms),
            jobs.wall_ms.len(),
            median(&jobs.wall_ms)
        );
    }
    let resolved = Analyzer::with_params(&circuits[0], analyzer_params(threads)).num_threads();
    Outcome {
        setup: setup_times,
        jobs,
        jobs_per_s,
        peak_rss_mb: peak,
        checks,
        layers,
        env: vec![
            ("analyzer_threads", resolved.to_string()),
            ("circuits", CIRCUITS.join(", ")),
        ],
    }
}
