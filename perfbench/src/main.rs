//! The PROTEST benchmark: one process runs one workload for a fixed time,
//! checks every output, and prints its metrics.
//!
//! ```text
//! protest-perfbench --workload <analyze_large|dft_loop|serve_mix>
//!                   --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! `--trace 0` measures the end-to-end metrics with nothing but the
//! benchmark's own job timers running: set-up and per-job process CPU
//! time, throughput and latency percentiles, the output checks, peak
//! memory and the test-length accuracy guard. On a virtual machine the
//! host may steal CPU time, which swells wall-clock; throughput and
//! latency are therefore reported less the share the host stole, and the
//! wall-clock figures as measured are printed beside them. `--trace 1`
//! runs the same jobs with every call into a library layer timed from this
//! crate (no span sites inside the library) and reports the per-layer
//! metrics instead. The last line of standard output is one JSON object:
//! `{"correct": …, "attempted": …, "failed": …, "metrics": {…}}`.
//! Everything before it is a human-readable report.

mod analyze_large;
mod dft_loop;
mod guard;
mod layers;
mod serve_mix;

use std::collections::BTreeMap;
use std::time::Instant;

use protest_core::testlen::required_test_length_fraction;
use protest_core::{AnalyzerParams, CheckParams};

pub use layers::Layers;

/// Command-line arguments.
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s: f64 = value.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s.is_finite()) {
                    return Err("--seconds must be positive".into());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace must be 0 or 1".into()),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

/// The worker-thread and connection budget: the machine's parallelism.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// SplitMix64 — the benchmark's own seeded generator, so its inputs do
/// not depend on any library RNG.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Rng(seed ^ 0x5DEE_CE66_D1CE_4E5B)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `lo..hi`.
    pub fn range(&mut self, lo: u64, hi: u64) -> u64 {
        lo + self.next_u64() % (hi - lo)
    }

    /// `n` grid numerators `k` in `1..16` (input weights `k/16`).
    pub fn grid16(&mut self, n: usize) -> Vec<u32> {
        (0..n).map(|_| self.range(1, 16) as u32).collect()
    }
}

/// Seconds since `start`.
pub fn secs(start: Instant) -> f64 {
    start.elapsed().as_secs_f64()
}

/// A POSIX clock's reading in seconds.
fn clock_secs(clock: i32) -> f64 {
    #[repr(C)]
    struct Timespec {
        tv_sec: i64,
        tv_nsec: i64,
    }
    extern "C" {
        fn clock_gettime(clock: i32, tp: *mut Timespec) -> i32;
    }
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a live, writable `struct timespec` (two 64-bit fields
    // on 64-bit Linux) for the whole call, and clock_gettime writes nothing
    // else.
    let rc = unsafe { clock_gettime(clock, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime({clock}) failed");
    ts.tv_sec as f64 + ts.tv_nsec as f64 * 1e-9
}

/// CPU time of this whole process so far (every thread, live or exited),
/// in seconds. The kernel leaves out time the hypervisor stole from this
/// virtual machine, so unlike wall-clock it does not swell when other
/// guests load the host.
pub fn cpu_secs() -> f64 {
    const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;
    clock_secs(CLOCK_PROCESS_CPUTIME_ID)
}

/// CPU time of the calling thread so far, in seconds.
pub fn thread_cpu_secs() -> f64 {
    const CLOCK_THREAD_CPUTIME_ID: i32 = 3;
    clock_secs(CLOCK_THREAD_CPUTIME_ID)
}

/// `(busy, steal)` CPU jiffies of the machine so far (`/proc/stat`), or
/// zeros where unavailable. Busy is user, nice, system, irq and softirq
/// time. Steal is time the host ran something else while this virtual
/// machine wanted the CPU.
fn cpu_jiffies() -> (u64, u64) {
    let stat = std::fs::read_to_string("/proc/stat").unwrap_or_default();
    let fields: Vec<u64> = stat
        .lines()
        .next()
        .and_then(|l| l.strip_prefix("cpu "))
        .map(|l| {
            l.split_whitespace()
                .filter_map(|f| f.parse().ok())
                .collect()
        })
        .unwrap_or_default();
    let f = |i: usize| fields.get(i).copied().unwrap_or(0);
    (f(0) + f(1) + f(2) + f(5) + f(6), f(7))
}

/// What a [`Stopwatch`] measured.
#[derive(Clone, Copy)]
pub struct Elapsed {
    pub wall_s: f64,
    /// Process CPU seconds.
    pub cpu_s: f64,
    /// Share of the CPU time this machine wanted that the host stole.
    pub stolen_share: f64,
}

impl Elapsed {
    /// Wall-clock seconds less the stolen share: what the interval would
    /// have taken on a host that stole nothing, assuming the steal fell
    /// evenly on the wanted CPU time.
    pub fn unstolen_s(&self) -> f64 {
        self.wall_s * (1.0 - self.stolen_share)
    }
}

/// Wall-clock, process CPU time and the machine's steal since it was
/// started.
#[derive(Clone, Copy)]
pub struct Stopwatch {
    wall: Instant,
    cpu: f64,
    jiffies: (u64, u64),
}

impl Stopwatch {
    pub fn start() -> Self {
        Stopwatch {
            wall: Instant::now(),
            cpu: cpu_secs(),
            jiffies: cpu_jiffies(),
        }
    }

    pub fn read(&self) -> Elapsed {
        let (busy, steal) = cpu_jiffies();
        let (busy, steal) = (busy - self.jiffies.0, steal - self.jiffies.1);
        Elapsed {
            wall_s: secs(self.wall),
            cpu_s: cpu_secs() - self.cpu,
            stolen_share: steal as f64 / (busy + steal).max(1) as f64,
        }
    }
}

/// The analyzer settings every workload uses: `threads` workers.
pub fn analyzer_params(threads: usize) -> AnalyzerParams {
    AnalyzerParams {
        num_threads: threads,
        ..AnalyzerParams::default()
    }
}

/// `check` with the redundancy prover on `threads` workers.
pub fn check_params(threads: usize) -> CheckParams {
    CheckParams {
        prove_redundant: true,
        num_threads: threads,
        ..CheckParams::default()
    }
}

/// An FNV-1a fold of the bit patterns of `xs`: equal digests mean (but
/// for a collision) `to_bits`-equal slices.
pub fn fold_bits(xs: &[f64]) -> u64 {
    xs.iter().fold(0xCBF2_9CE4_8422_2325u64, |h, x| {
        (h ^ x.to_bits()).wrapping_mul(0x0000_0100_0000_01B3)
    })
}

/// The `q`-quantile (0..=1) of `xs` by nearest rank on the sorted values;
/// `None` for an empty sample.
pub fn quantile(xs: &[f64], q: f64) -> Option<f64> {
    if xs.is_empty() {
        return None;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = ((q * v.len() as f64).ceil() as usize).clamp(1, v.len());
    Some(v[rank - 1])
}

/// The median of `xs` (mean of the two middle values for even counts).
pub fn median(xs: &[f64]) -> f64 {
    assert!(!xs.is_empty(), "median of an empty sample");
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let m = v.len() / 2;
    if v.len() % 2 == 1 {
        v[m]
    } else {
        0.5 * (v[m - 1] + v[m])
    }
}

/// `N(d, e)` per target over the detection probabilities `detect`
/// (`None`: beyond the solver's search cap).
pub fn test_lengths(detect: &[f64], targets: &[(f64, f64)]) -> Vec<Option<u64>> {
    targets
        .iter()
        .map(|&(d, e)| required_test_length_fraction(detect, d, e).map(|t| t.patterns))
        .collect()
}

/// `a ≤ b` for pattern counts, where `None` is unreachable (infinite).
pub fn n_le(a: Option<u64>, b: Option<u64>) -> bool {
    match (a, b) {
        (_, None) => true,
        (None, Some(_)) => false,
        (Some(a), Some(b)) => a <= b,
    }
}

/// Peak resident set size of this process (`VmHWM`) in MiB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Tallies output checks: every job (or request) is one attempt, failed
/// when it errored or any of its checks disagreed.
#[derive(Default)]
pub struct Checks {
    pub attempted: u64,
    pub failed: u64,
    /// The first few failure messages, for the report.
    pub messages: Vec<String>,
}

impl Checks {
    /// Records one attempt; `problems` empty means it passed.
    pub fn record(&mut self, what: &str, problems: Vec<String>) {
        self.attempted += 1;
        if !problems.is_empty() {
            self.failed += 1;
            if self.messages.len() < 8 {
                self.messages
                    .push(format!("{what}: {}", problems.join("; ")));
            }
        }
    }
}

/// Per-job times of a timed phase.
#[derive(Default)]
pub struct JobTimes {
    /// Wall-clock latency of every job (or request), in ms.
    pub wall_ms: Vec<f64>,
    /// The same latencies less the host's stolen share, in ms.
    pub unstolen_ms: Vec<f64>,
    /// Process CPU seconds the jobs took.
    pub cpu_s: f64,
}

impl JobTimes {
    /// Adds one job that ran on its own.
    pub fn push(&mut self, job: Elapsed) {
        self.wall_ms.push(job.wall_s * 1e3);
        self.unstolen_ms.push(job.unstolen_s() * 1e3);
        self.cpu_s += job.cpu_s;
    }

    /// `(unstolen, wall-clock)` jobs per second, for jobs run one after
    /// another.
    pub fn serial_rates(&self) -> (f64, f64) {
        let n = self.wall_ms.len() as f64;
        let sum = |ms: &[f64]| ms.iter().sum::<f64>() / 1e3;
        (n / sum(&self.unstolen_ms), n / sum(&self.wall_ms))
    }
}

/// What one workload run measured.
pub struct Outcome {
    /// Each repetition of the workload's set-up.
    pub setup: Vec<Elapsed>,
    /// The untraced jobs (or requests) of the timed phase.
    pub jobs: JobTimes,
    /// `(unstolen, wall-clock)` jobs completed per second.
    pub jobs_per_s: (f64, f64),
    /// `VmHWM` read right after the timed phase.
    pub peak_rss_mb: f64,
    /// Output checks over every job of the timed phase.
    pub checks: Checks,
    /// Per-layer metrics (traced runs only).
    pub layers: Layers,
    /// Extra environment stamps (thread counts the workload used).
    pub env: Vec<(&'static str, String)>,
}

fn json_str(s: &str) -> String {
    let mut out = String::from("\"");
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// A JSON number with every digit Rust's shortest round-trip form gives.
fn json_num(x: f64) -> String {
    if x.is_finite() {
        format!("{x:?}")
    } else {
        "null".into()
    }
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}");
            std::process::exit(2);
        }
    };
    let run = Stopwatch::start();
    let outcome = match args.workload.as_str() {
        "analyze_large" => analyze_large::run(&args),
        "dft_loop" => dft_loop::run(&args),
        "serve_mix" => serve_mix::run(&args),
        other => {
            eprintln!("error: unknown workload {other}");
            std::process::exit(2);
        }
    };

    // The accuracy guard is computed outside every timed phase and is the
    // same deterministic figure on every workload.
    let (guard_err, guard_rows) = guard::testlen_log10_err(nproc());

    let mut env: Vec<(&str, String)> = vec![
        ("workload", args.workload.clone()),
        ("seed", args.seed.to_string()),
        ("seconds", args.seconds.to_string()),
        ("traced", args.trace.to_string()),
        ("nproc", nproc().to_string()),
    ];
    env.extend(outcome.env.iter().cloned());
    let steal = run.read().stolen_share;
    env.push(("cpu_steal_share", format!("{steal:.4}")));
    println!("# environment");
    for (k, v) in &env {
        println!("#   {k} = {v}");
    }
    for row in &guard_rows {
        println!("# testlen guard: {row}");
    }
    for m in &outcome.checks.messages {
        println!("# check failed: {m}");
    }

    let jobs = &outcome.jobs;
    let n = jobs.wall_ms.len();
    let attempted = outcome.checks.attempted;
    let fail_ratio = outcome.checks.failed as f64 / attempted.max(1) as f64;
    // name -> (value, unit, sample count)
    let mut metrics: BTreeMap<String, (f64, &str, usize)> = BTreeMap::new();
    if args.trace {
        for (name, (value, unit)) in outcome.layers.metrics() {
            metrics.insert(name, (value, unit, 1));
        }
    } else {
        let setups = outcome.setup.len();
        let setup_cpu: Vec<f64> = outcome.setup.iter().map(|s| s.cpu_s).collect();
        let pct = |ms: &[f64], q| quantile(ms, q).unwrap_or(0.0);
        // Latency and throughput less the host's steal (see
        // `Elapsed::unstolen_s`), so they follow the program and not the
        // neighbours of a shared machine.
        for (name, value, unit, samples) in [
            ("setup_s", median(&setup_cpu), "s", setups),
            ("cpu_ms_per_job", jobs.cpu_s * 1e3 / n as f64, "ms", n),
            ("jobs_per_s", outcome.jobs_per_s.0, "1/s", n),
            ("job_p50_ms", pct(&jobs.unstolen_ms, 0.5), "ms", n),
            ("job_p99_ms", pct(&jobs.unstolen_ms, 0.99), "ms", n),
            ("ok_ratio", 1.0 - fail_ratio, "ratio", attempted as usize),
            ("peak_rss_mb", outcome.peak_rss_mb, "MiB", 1),
            ("testlen_log10_err", guard_err, "log10", guard_rows.len()),
        ] {
            metrics.insert(name.to_string(), (value, unit, samples));
        }
        let setup_wall: Vec<f64> = outcome.setup.iter().map(|s| s.wall_s).collect();
        println!("# wall-clock as measured, steal included:");
        println!("#   setup_wall_s = {} s (n={setups})", median(&setup_wall));
        println!("#   jobs_per_s = {} 1/s (n={n})", outcome.jobs_per_s.1);
        println!("#   job_p50_ms = {} ms (n={n})", pct(&jobs.wall_ms, 0.5));
        println!("#   job_p99_ms = {} ms (n={n})", pct(&jobs.wall_ms, 0.99));
        if n <= 64 {
            let ms: Vec<String> = jobs.wall_ms.iter().map(|t| format!("{t:.1}")).collect();
            println!("#   job ms: {}", ms.join(" "));
        }
        println!("fail_ratio = {fail_ratio} ratio (n={attempted})");
    }
    for (name, (value, unit, samples)) in &metrics {
        println!("{name} = {value} {unit} (n={samples})");
    }

    let correct = outcome.checks.failed == 0 && outcome.checks.attempted > 0;
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, (value, unit, _))| {
            format!(
                "{}: {{\"value\": {}, \"unit\": {}}}",
                json_str(name),
                json_num(*value),
                json_str(unit)
            )
        })
        .collect();
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        correct,
        outcome.checks.attempted.max(1),
        outcome.checks.failed,
        body.join(", ")
    );
}
