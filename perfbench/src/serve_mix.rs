//! `serve_mix`: a closed loop of client connections to an in-process
//! `protest serve` over loopback. Each client waits for its reply before
//! sending the next request, from a seeded stream of
//!
//! * `analyze` on a warm builtin with a fresh explicit `probs` vector,
//! * 8-op `batch` envelopes of such analyses,
//! * `submit`s of a unique random circuit, each followed by an `analyze`
//!   (the registry-miss path: parse, analyzer build, session warm-up).

use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::time::Instant;

use protest_circuits::{by_name, random_circuit, RandomCircuitParams};
use protest_core::{Analyzer, InputProbs};
use protest_netlist::{parse_bench, to_bench};
use protest_serve::{serve, Json, ServeConfig, ServerHandle};

use crate::{
    fold_bits, median, n_le, nproc, peak_rss_mb, quantile, secs, test_lengths, thread_cpu_secs,
    Args, Checks, JobTimes, Layers, Outcome, Rng, Stopwatch,
};

/// The warm builtins the analyze traffic targets.
const BUILTINS: [&str; 3] = ["comp24", "alu", "div8x8"];
/// Test-length rows `(d, e)` of every analyze: `N(.98, .95)` must not
/// exceed either of the other two. `TESTLEN` is the same list on the wire.
const TARGETS: [(f64, f64); 3] = [(0.98, 0.95), (1.0, 0.95), (0.98, 0.98)];
const TESTLEN: &str = "[[0.98,0.95],[1.0,0.95],[0.98,0.98]]";
const BATCH_OPS: usize = 8;
/// One deck of a client's stream, dealt in a seeded order and then dealt
/// again: per 50 slots, one submit (plus the analyze of the new circuit),
/// five batches on `comp24` or `alu`, and single analyzes split 22 / 18 / 4
/// over [`BUILTINS`]. A fixed composition keeps every run's mix the same,
/// so the seed moves only the order and the probability vectors. `div8x8`
/// analyses cost ~30× a `comp24` one, so they are few but still make up
/// the top percent of latencies.
///
/// The proportions are an assumption, not a recording: no real or CI
/// request trace exists to draw them from. They only follow the shape
/// "mostly single analyzes, some batches, a few submits", and every
/// request carries fresh probabilities, so the content-hash cache is never
/// hit.
const DECK: [(Slot, usize); 5] = [
    (Slot::Submit, 1),
    (Slot::Batch, 5),
    (Slot::Single(0), 22),
    (Slot::Single(1), 18),
    (Slot::Single(2), 4),
];

#[derive(Clone, Copy)]
enum Slot {
    Submit,
    /// A batch on `comp24` or `alu` (seeded).
    Batch,
    /// One analyze on `BUILTINS[i]`.
    Single(usize),
}

fn deal(rng: &mut Rng) -> Vec<Slot> {
    let mut deck: Vec<Slot> = DECK
        .iter()
        .flat_map(|&(slot, n)| std::iter::repeat_n(slot, n))
        .collect();
    for i in (1..deck.len()).rev() {
        deck.swap(i, rng.range(0, i as u64 + 1) as usize);
    }
    deck
}

/// Every `SAMPLE_EVERY`-th analyze or batch (and every submit) is
/// compared with a direct-API run after the timed phase.
const SAMPLE_EVERY: u64 = 8;
/// Resident-circuit cap of the daemon: the warm builtins plus the five
/// most recent submits. Each resident circuit keeps a host and its workers
/// polling, so without a cap a run's memory and idle CPU would grow with
/// its length; the least recently used idle circuit, always an old
/// submit, is evicted instead.
const MAX_CIRCUITS: usize = BUILTINS.len() + 5;
/// Set-up repetitions; `setup_s` is their median.
const SETUPS: usize = 5;

/// A circuit the daemon holds: registry key, input count and, for the
/// warm builtins, the fault count every analyze must report.
struct Target {
    key: String,
    inputs: usize,
    faults: Option<usize>,
}

struct Conn {
    writer: TcpStream,
    reader: BufReader<TcpStream>,
}

impl Conn {
    fn open(handle: &ServerHandle) -> Result<Conn, String> {
        let writer = TcpStream::connect(handle.addr()).map_err(|e| e.to_string())?;
        writer.set_nodelay(true).map_err(|e| e.to_string())?;
        let reader = BufReader::new(writer.try_clone().map_err(|e| e.to_string())?);
        Ok(Conn { writer, reader })
    }

    /// Sends one line, waits for its reply; returns it with the latency.
    fn call(&mut self, line: &str) -> Result<(Json, f64), String> {
        let start = Instant::now();
        self.writer
            .write_all(format!("{line}\n").as_bytes())
            .map_err(|e| e.to_string())?;
        let mut reply = String::new();
        self.reader
            .read_line(&mut reply)
            .map_err(|e| e.to_string())?;
        let us = secs(start) * 1e6;
        Ok((Json::parse(&reply).map_err(|e| e.to_string())?, us))
    }
}

/// The `result` of a success reply, or the error as text.
fn result_of(reply: &Json) -> Result<&Json, String> {
    if reply.get("ok").and_then(Json::as_bool) == Some(true) {
        reply
            .get("result")
            .ok_or_else(|| "reply without result".into())
    } else {
        Err(format!("error reply: {}", reply.to_line()))
    }
}

fn submit_builtin(conn: &mut Conn, name: &str) -> Result<Target, String> {
    let (reply, _) = conn.call(&format!("{{\"op\":\"submit\",\"builtin\":\"{name}\"}}"))?;
    let result = result_of(&reply)?;
    let key = result
        .get("circuit")
        .and_then(Json::as_str)
        .ok_or("no key")?;
    let inputs = result
        .get("inputs")
        .and_then(Json::as_u64)
        .ok_or("no inputs")?;
    // One analyze builds the analyzer and warms the session pool.
    let (reply, _) = conn.call(&format!(
        "{{\"op\":\"analyze\",\"circuit\":\"{key}\",\"testlen\":{TESTLEN}}}"
    ))?;
    let faults = result_of(&reply)?
        .get("faults")
        .and_then(Json::as_u64)
        .ok_or("no fault count")?;
    Ok(Target {
        key: key.to_string(),
        inputs: inputs as usize,
        faults: Some(faults as usize),
    })
}

/// Starts the daemon and warms the builtins.
fn setup() -> Result<(ServerHandle, Vec<Target>), String> {
    let handle = serve(ServeConfig {
        handlers: nproc(),
        workers_per_circuit: nproc(),
        max_circuits: MAX_CIRCUITS,
        ..ServeConfig::default()
    })
    .map_err(|e| e.to_string())?;
    let mut conn = Conn::open(&handle)?;
    let targets = BUILTINS
        .iter()
        .map(|name| submit_builtin(&mut conn, name))
        .collect::<Result<Vec<_>, _>>()?;
    Ok((handle, targets))
}

fn stop(handle: ServerHandle) {
    handle.shutdown();
    handle.wait();
}

#[derive(Clone, Copy, PartialEq)]
enum Kind {
    Analyze,
    Batch,
    Submit,
}

/// One analyze op's served answer, kept for the direct-API comparison.
/// It stays small until the memory reading after the timed phase: the
/// input-weight numerators (weights `k/16`) and a digest of the detection
/// probabilities.
struct Answer {
    ks: Vec<u32>,
    detect: u64,
    lengths: Vec<Option<u64>>,
}

/// The circuit a sampled request went to.
enum Sampled {
    /// `BUILTINS[i]`.
    Builtin(usize),
    /// A submitted random circuit, rebuilt from its parameters.
    Random(RandomCircuitParams),
}

struct Sample {
    circuit: Sampled,
    answers: Vec<Answer>,
}

struct Record {
    kind: Kind,
    latency_us: f64,
    timing: Option<[f64; 3]>,
}

/// Checks one analyze result: fault count, probabilities in [0, 1] and
/// `N` monotone in `(d, e)`. Returns the parsed answer.
fn check_analysis(result: &Json, ks: Vec<u32>, faults: Option<usize>) -> Result<Answer, String> {
    let detect: Vec<f64> = result
        .get("detect_probs")
        .and_then(Json::as_arr)
        .ok_or("no detect_probs")?
        .iter()
        .map(|v| v.as_f64().ok_or("non-numeric probability"))
        .collect::<Result<_, _>>()?;
    if faults.is_some_and(|f| f != detect.len()) || detect.is_empty() {
        return Err(format!("{} estimates, expected {faults:?}", detect.len()));
    }
    if !detect
        .iter()
        .all(|p| p.is_finite() && (0.0..=1.0).contains(p))
    {
        return Err("probability outside [0, 1]".into());
    }
    let lengths: Vec<Option<u64>> = result
        .get("testlen")
        .and_then(Json::as_arr)
        .ok_or("no testlen rows")?
        .iter()
        .map(|row| row.get("patterns").and_then(Json::as_u64))
        .collect();
    if lengths.len() != 3 || !n_le(lengths[0], lengths[1]) || !n_le(lengths[0], lengths[2]) {
        return Err(format!("N rows {lengths:?} not monotone"));
    }
    Ok(Answer {
        ks,
        detect: fold_bits(&detect),
        lengths,
    })
}

fn timing_of(reply: &Json) -> Option<[f64; 3]> {
    let t = reply.get("timing")?;
    let f = |k: &str| t.get(k).and_then(Json::as_f64);
    Some([f("queue_wait_us")?, f("checkout_us")?, f("compute_us")?])
}

/// The input weights `k/16` of the numerators `ks`.
fn probs_of(ks: &[u32]) -> Vec<f64> {
    ks.iter().map(|&k| k as f64 / 16.0).collect()
}

fn probs_json(ks: &[u32]) -> String {
    Json::Arr(probs_of(ks).into_iter().map(Json::Num).collect()).to_line()
}

/// What one client saw.
#[derive(Default)]
struct ClientLog {
    records: Vec<Record>,
    samples: Vec<Sample>,
    checks: Checks,
    /// CPU seconds the client thread itself spent (building requests,
    /// parsing and checking replies), taken out of the daemon's figure.
    cpu_s: f64,
}

/// Sends one analyze (or an 8-op batch of them) on `target` and checks
/// every result; returns the parsed answers.
fn analyze(
    conn: &mut Conn,
    log: &mut ClientLog,
    target: &Target,
    ks: Vec<Vec<u32>>,
    flag: &str,
) -> Result<Vec<Answer>, String> {
    let op = |k: &[u32]| format!("\"probs\":{},\"testlen\":{TESTLEN}", probs_json(k));
    let batch = ks.len() > 1;
    let line = if batch {
        let reqs: Vec<String> = ks
            .iter()
            .map(|p| format!("{{\"op\":\"analyze\",{}}}", op(p)))
            .collect();
        format!(
            "{{\"op\":\"batch\",\"circuit\":\"{}\",\"requests\":[{}]{flag}}}",
            target.key,
            reqs.join(",")
        )
    } else {
        format!(
            "{{\"op\":\"analyze\",\"circuit\":\"{}\",{}{flag}}}",
            target.key,
            op(&ks[0])
        )
    };
    let (reply, us) = conn.call(&line)?;
    log.records.push(Record {
        kind: if batch { Kind::Batch } else { Kind::Analyze },
        latency_us: us,
        timing: timing_of(&reply),
    });
    let result = result_of(&reply)?;
    let results: Vec<&Json> = if batch {
        let items = result
            .get("results")
            .and_then(Json::as_arr)
            .ok_or("batch without results")?;
        if items.len() != ks.len() {
            return Err(format!(
                "{} batch results for {} ops",
                items.len(),
                ks.len()
            ));
        }
        items.iter().map(result_of).collect::<Result<_, _>>()?
    } else {
        vec![result]
    };
    results
        .into_iter()
        .zip(ks)
        .map(|(r, k)| check_analysis(r, k, target.faults))
        .collect()
}

/// Submits a unique random circuit, then analyzes it once.
fn submit_and_analyze(
    conn: &mut Conn,
    log: &mut ClientLog,
    rng: &mut Rng,
    flag: &str,
) -> Result<Sample, String> {
    let params = RandomCircuitParams {
        inputs: 16,
        gates: 160,
        outputs: 8,
        seed: rng.next_u64(),
    };
    let line = format!(
        "{{\"op\":\"submit\",\"format\":\"bench\",\"name\":\"rand\",\"text\":{}}}",
        Json::str(&to_bench(&random_circuit(params))).to_line()
    );
    let (reply, us) = conn.call(&line)?;
    log.records.push(Record {
        kind: Kind::Submit,
        latency_us: us,
        timing: None,
    });
    let key = result_of(&reply)?
        .get("circuit")
        .and_then(Json::as_str)
        .ok_or("submit reply without key")?;
    let target = Target {
        key: key.to_string(),
        inputs: params.inputs,
        faults: None,
    };
    let ks = vec![rng.grid16(params.inputs)];
    let answers = analyze(conn, log, &target, ks, flag)?;
    Ok(Sample {
        circuit: Sampled::Random(params),
        answers,
    })
}

/// One closed-loop client: deals its seeded stream until `seconds` after
/// `start`. In traced runs every other slot sets the `timing` flag.
fn client(
    handle: &ServerHandle,
    targets: &[Target],
    seed: u64,
    id: u64,
    start: Instant,
    seconds: f64,
    trace: bool,
) -> ClientLog {
    let mut log = ClientLog::default();
    let mut conn = match Conn::open(handle) {
        Ok(c) => c,
        Err(e) => {
            log.checks.record("connect", vec![e]);
            log.cpu_s = thread_cpu_secs();
            return log;
        }
    };
    let mut rng = Rng::new(seed.wrapping_mul(0x2545_F491_4F6C_DD1D) ^ id);
    let mut deck = Vec::new();
    let mut seq = 0u64;
    while secs(start) < seconds {
        if deck.is_empty() {
            deck = deal(&mut rng);
        }
        seq += 1;
        let flag = if trace && seq.is_multiple_of(2) {
            ",\"timing\":true"
        } else {
            ""
        };
        let result = match deck.pop().expect("dealt") {
            Slot::Submit => submit_and_analyze(&mut conn, &mut log, &mut rng, flag).map(Some),
            slot => {
                let (t, ops) = match slot {
                    Slot::Batch => (rng.range(0, 2) as usize, BATCH_OPS),
                    Slot::Single(t) => (t, 1),
                    Slot::Submit => unreachable!(),
                };
                let target = &targets[t];
                let ks = (0..ops).map(|_| rng.grid16(target.inputs)).collect();
                analyze(&mut conn, &mut log, target, ks, flag).map(|answers| {
                    seq.is_multiple_of(SAMPLE_EVERY).then_some(Sample {
                        circuit: Sampled::Builtin(t),
                        answers,
                    })
                })
            }
        };
        match result {
            Err(e) => log.checks.record("request", vec![e]),
            Ok(sample) => {
                log.samples.extend(sample);
                log.checks.record("request", vec![]);
            }
        }
    }
    log.cpu_s = thread_cpu_secs();
    log
}

/// Compares a sampled reply with a fresh direct-API analysis.
fn verify(sample: &Sample, analyzer: &Analyzer<'_>) -> Vec<String> {
    let mut problems = Vec::new();
    for answer in &sample.answers {
        let want = InputProbs::from_slice(&probs_of(&answer.ks))
            .and_then(|p| analyzer.run(&p))
            .map(|a| a.detection_probabilities());
        match want {
            Err(e) => problems.push(format!("direct run failed: {e}")),
            Ok(want) => {
                if fold_bits(&want) != answer.detect
                    || test_lengths(&want, &TARGETS) != answer.lengths
                {
                    problems.push(format!(
                        "{} served reply differs from the direct API",
                        analyzer.circuit().name()
                    ));
                }
            }
        }
    }
    problems
}

pub fn run(args: &Args) -> Outcome {
    let clients = nproc();
    let mut setup_times = Vec::new();
    let mut daemon = None;
    for _ in 0..SETUPS {
        if let Some((handle, _)) = daemon.take() {
            stop(handle);
        }
        let watch = Stopwatch::start();
        let ready = setup();
        setup_times.push(watch.read());
        match ready {
            Ok(d) => daemon = Some(d),
            Err(e) => {
                eprintln!("error: daemon set-up failed: {e}");
                std::process::exit(1);
            }
        }
    }
    let (handle, targets) = daemon.expect("set up at least once");

    let watch = Stopwatch::start();
    let start = Instant::now();
    let logs: Vec<ClientLog> = std::thread::scope(|scope| {
        let workers: Vec<_> = (0..clients as u64)
            .map(|id| {
                let (handle, targets) = (&handle, &targets);
                scope.spawn(move || {
                    client(
                        handle,
                        targets,
                        args.seed,
                        id,
                        start,
                        args.seconds,
                        args.trace,
                    )
                })
            })
            .collect();
        workers
            .into_iter()
            .map(|w| w.join().expect("client thread panicked"))
            .collect()
    });
    let timed_phase = watch.read();
    let peak = peak_rss_mb();

    let stats = Conn::open(&handle)
        .and_then(|mut c| c.call("{\"op\":\"stats\"}"))
        .and_then(|(reply, _)| result_of(&reply).cloned());
    stop(handle);

    let mut checks = Checks::default();
    let mut records = Vec::new();
    let mut samples = Vec::new();
    let mut client_cpu_s = 0.0;
    for log in logs {
        client_cpu_s += log.cpu_s;
        checks.attempted += log.checks.attempted;
        checks.failed += log.checks.failed;
        checks.messages.extend(log.checks.messages);
        records.extend(log.records);
        samples.extend(log.samples);
    }

    // Direct-API references, outside the timed phase.
    let builtins: Vec<_> = BUILTINS
        .iter()
        .map(|n| by_name(n).expect("built-in circuit"))
        .collect();
    let builtin_analyzers: Vec<Analyzer<'_>> = builtins.iter().map(Analyzer::new).collect();
    let mut build_ms = Vec::new();
    for sample in &samples {
        let problems = match sample.circuit {
            Sampled::Builtin(i) => verify(sample, &builtin_analyzers[i]),
            Sampled::Random(params) => {
                let text = to_bench(&random_circuit(params));
                match parse_bench("rand", &text) {
                    Err(e) => vec![format!("submitted text does not parse: {e}")],
                    Ok(circuit) => {
                        let watch = Stopwatch::start();
                        let analyzer = Analyzer::new(&circuit);
                        build_ms.push(watch.read().wall_s * 1e3);
                        verify(sample, &analyzer)
                    }
                }
            }
        };
        if !problems.is_empty() {
            checks.failed += 1;
            checks.messages.push(problems.join("; "));
        }
    }

    // Requests overlap, so each latency is discounted by the timed phase's
    // stolen share as a whole.
    let unstolen = 1.0 - timed_phase.stolen_share;
    let n = records.len() as f64;
    let jobs = JobTimes {
        wall_ms: records.iter().map(|r| r.latency_us / 1e3).collect(),
        unstolen_ms: records
            .iter()
            .map(|r| r.latency_us / 1e3 * unstolen)
            .collect(),
        cpu_s: timed_phase.cpu_s - client_cpu_s,
    };
    let jobs_per_s = (n / timed_phase.unstolen_s(), n / timed_phase.wall_s);
    let mut layers = Layers::default();
    if args.trace {
        let timed_records: Vec<(&Record, [f64; 3])> = records
            .iter()
            .filter_map(|r| r.timing.map(|t| (r, t)))
            .collect();
        let phase = |k: usize| {
            timed_records
                .iter()
                .map(|(_, t)| t[k])
                .collect::<Vec<f64>>()
        };
        let (qw, co, cp) = (phase(0), phase(1), phase(2));
        let io: Vec<f64> = timed_records
            .iter()
            .map(|(r, t)| r.latency_us - t.iter().sum::<f64>())
            .collect();
        if !timed_records.is_empty() {
            layers.set("serve.queue_wait_us_p50", median(&qw));
            layers.set(
                "serve.queue_wait_us_p99",
                quantile(&qw, 0.99).unwrap_or(0.0),
            );
            layers.set("serve.checkout_us_p50", median(&co));
            layers.set("serve.compute_us_p50", median(&cp));
            layers.set("serve.compute_us_p99", quantile(&cp, 0.99).unwrap_or(0.0));
            // `serve.io` is the latency the daemon's reported phases leave
            // over: transport, framing, JSON, and the session's return to
            // the pool, which re-syncs it (compute the daemon does not
            // report). It is a remainder, not a measured layer, so its
            // share of the latency is the unattributed share.
            layers.set("serve.io_us_p50", median(&io));
            let latency: f64 = timed_records.iter().map(|(r, _)| r.latency_us).sum();
            layers.set("trace.unattributed_ratio", io.iter().sum::<f64>() / latency);
        }
        let submit_ms: Vec<f64> = records
            .iter()
            .filter(|r| r.kind == Kind::Submit)
            .map(|r| r.latency_us / 1e3)
            .collect();
        if !submit_ms.is_empty() {
            layers.set("serve.submit_ms_p50", median(&submit_ms));
        }
        if !build_ms.is_empty() {
            layers.set("analyzer.build_ms", median(&build_ms));
        }
        // Throughput of flagged vs unflagged analyze/batch requests.
        let rate = |flag: bool| {
            let lat: Vec<f64> = records
                .iter()
                .filter(|r| r.kind != Kind::Submit && r.timing.is_some() == flag)
                .map(|r| r.latency_us)
                .collect();
            lat.len() as f64 / lat.iter().sum::<f64>()
        };
        layers.set("trace.overhead_ratio", 1.0 - rate(true) / rate(false));
        match &stats {
            Ok(s) => {
                let num = |path: &[&str]| {
                    path.iter()
                        .try_fold(s, |j, k| j.get(k))
                        .and_then(Json::as_f64)
                        .unwrap_or(0.0)
                };
                layers.set("serve.cache_hit_ratio", num(&["cache", "hit_rate"]));
                let warm = num(&["sessions", "warm_hits"]);
                let cold = num(&["sessions", "cold_clones"]);
                layers.set("serve.warm_hit_ratio", warm / (warm + cold).max(1.0));
                layers.set("serve.cold_clones", cold);
                layers.set("serve.busy", num(&["rejections", "busy"]));
                let errors = s
                    .get("endpoints")
                    .and_then(|e| match e {
                        Json::Obj(fields) => Some(
                            fields
                                .iter()
                                .filter_map(|(_, v)| v.get("errors").and_then(Json::as_f64))
                                .sum::<f64>(),
                        ),
                        _ => None,
                    })
                    .unwrap_or(0.0);
                layers.set("serve.errors", errors);
            }
            Err(e) => checks.messages.push(format!("stats request failed: {e}")),
        }
    }
    let count = |k: Kind| records.iter().filter(|r| r.kind == k).count();
    println!(
        "# requests: {} analyze, {} batch, {} submit; {} sampled replies checked",
        count(Kind::Analyze),
        count(Kind::Batch),
        count(Kind::Submit),
        samples.len()
    );
    println!(
        "# timed phase: {:.3} s wall, {:.3} s process CPU of which clients {:.3} s, \
         stolen share {:.4}",
        timed_phase.wall_s, timed_phase.cpu_s, client_cpu_s, timed_phase.stolen_share
    );
    Outcome {
        setup: setup_times,
        jobs,
        jobs_per_s,
        peak_rss_mb: peak,
        checks,
        layers,
        env: vec![
            ("clients", clients.to_string()),
            ("serve_handlers", nproc().to_string()),
            ("serve_workers_per_circuit", nproc().to_string()),
            ("serve_max_circuits", MAX_CIRCUITS.to_string()),
            ("builtins", BUILTINS.join(", ")),
        ],
    }
}
