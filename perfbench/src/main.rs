//! End-to-end and per-layer benchmark of the multi-clock flow.
//!
//! ```text
//! perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! perfbench steady --workload <name> --runs <k> [--seconds <s>] [--trace <0|1>]
//! ```
//!
//! The first form runs one workload in this process and prints every
//! metric by name and unit, then one JSON line: `correct`, `attempted`,
//! `failed` and `metrics` (the end-to-end metrics with `--trace 0`, the
//! per-layer metrics of a traced run with `--trace 1`). The second runs
//! the first form `k` times with seeds `1..=k` and reports each metric's
//! median and quartile spread against its bound in `BENCHMARK.json`
//! (read from the working directory); with `--trace 1` it instead checks
//! that the deterministic counters repeat exactly under one seed.
//!
//! See `perfbench/README.md` for the workloads, the metrics and the
//! layer each metric belongs to.

mod check;
mod explore;
mod layers;
mod serve;
mod stats;

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::Instant;

use layers::Layers;

/// Every thread count the benchmark sets: the worker-pool width of the
/// explorer and of the server, and the number of closed-loop clients.
pub const THREADS: usize = 2;

const WORKLOADS: &[&str] = &[
    "explore_scale",
    "montecarlo_paper",
    "montecarlo_wide",
    "serve_mix",
];

/// What a workload is asked to do.
pub struct Config {
    pub seed: u64,
    pub seconds: f64,
    /// A fresh directory inside the checkout for caches and checkpoints.
    pub scratch: PathBuf,
}

/// Cost class of one operation; latency percentiles are taken within a
/// class, never over a mix.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Class {
    /// Nothing cached: the pipeline runs.
    Cold,
    /// Answered from a filled cache.
    Warm,
    /// The `/explore` voltage probe (see `serve.rs`).
    Probe,
}

/// One timed operation.
#[derive(Debug, Clone)]
pub struct Op {
    pub class: Class,
    /// The kind of request within the class (endpoint and benchmark on
    /// `serve_mix`, one kind elsewhere); latency percentiles are taken
    /// per kind.
    pub kind: usize,
    /// The round the operation belongs to; every round of a workload
    /// attempts the same operations.
    pub round: usize,
    pub secs: f64,
    /// Design points the operation evaluated or served.
    pub points: u64,
    pub ok: bool,
}

/// Everything an untraced run measured.
#[derive(Debug, Default)]
pub struct Measured {
    /// Mean duration of one set-up in each batch (s).
    pub setups: Vec<f64>,
    pub ops: Vec<Op>,
    /// Peak resident memory (MB) read at a fixed point of the run; when
    /// unset, it is read at the end.
    pub peak_rss_mb: Option<f64>,
    /// Wall time from the first operation's start to the last one's end,
    /// less any set-up batches timed in between.
    pub window_s: f64,
    /// Failed output checks; empty when every output was correct.
    pub problems: Vec<String>,
}

/// Everything a traced run measured.
pub struct Traced {
    pub layers: Layers,
    pub attempted: u64,
    pub failed: u64,
    pub problems: Vec<String>,
}

/// Records a failed check.
pub fn require(problems: &mut Vec<String>, ok: bool, what: impl FnOnce() -> String) {
    if !ok {
        problems.push(what());
    }
}

/// Least duration (s) of one timed batch of set-ups. One set-up takes
/// well under a millisecond; a batch repeats it until this much time has
/// passed and reports the mean.
pub const SETUP_BATCH_S: f64 = 0.025;

/// Moments of the timed window at which a batch of set-ups is timed, at
/// the next round boundary (plus one batch before the window). The
/// machine runs faster or slower from one moment to the next, so set-ups
/// timed in one burst moved by a third between runs; spread over the
/// window they follow the same machine as the operations.
pub const SETUP_MARKS: usize = 20;

/// Runs `f` until [`SETUP_BATCH_S`] has passed; returns the mean duration
/// (s) of one call and the last result.
pub fn setup_batch<T>(mut f: impl FnMut() -> T) -> (f64, T) {
    let t = Instant::now();
    let mut calls = 1;
    let mut last = f();
    while t.elapsed().as_secs_f64() < SETUP_BATCH_S {
        last = f();
        calls += 1;
    }
    (t.elapsed().as_secs_f64() / f64::from(calls), last)
}

/// Tracing overhead in percent: median traced time over median untraced.
pub fn overhead_pct(untraced: &[f64], traced: &[f64]) -> f64 {
    let u = stats::median(untraced).unwrap_or(f64::NAN);
    let t = stats::median(traced).unwrap_or(f64::NAN);
    (t - u) / u * 100.0
}

/// SplitMix64 step: the benchmark's own seed derivation.
pub fn mix(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Peak resident memory (MB) of this process so far.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

/// `f` of the latencies (ms) of each kind within a class, combined over
/// the kinds by their geometric mean: a percentile is never taken over a
/// mix of costs, and the result does not depend on how often each kind
/// occurs. `None` when `f` gives nothing for some kind.
fn per_kind(m: &Measured, c: Class, f: impl Fn(&[f64]) -> Option<f64>) -> Option<f64> {
    let mut kinds: BTreeMap<usize, Vec<f64>> = BTreeMap::new();
    for o in m.ops.iter().filter(|o| o.class == c && o.ok) {
        kinds.entry(o.kind).or_default().push(o.secs * 1e3);
    }
    let each: Option<Vec<f64>> = kinds.values().map(|ms| f(ms)).collect();
    stats::geomean(&each?)
}

/// The end-to-end metrics of one untraced run, in `BENCHMARK.json` order.
fn end_to_end(m: &Measured) -> Vec<(&'static str, f64, &'static str)> {
    let class = |c: Class| m.ops.iter().filter(move |o| o.class == c && o.ok);
    // Points per second of one class within each round (rounds are alike
    // by construction), then the median over rounds.
    let rate = |c: Class| {
        let mut rounds: BTreeMap<usize, (u64, f64)> = BTreeMap::new();
        for o in class(c) {
            let r = rounds.entry(o.round).or_default();
            *r = (r.0 + o.points, r.1 + o.secs);
        }
        let rates: Vec<f64> = rounds.values().map(|(p, s)| *p as f64 / s).collect();
        stats::median(&rates).unwrap_or(f64::NAN)
    };
    let p50 = |c: Class| per_kind(m, c, stats::median).unwrap_or(f64::NAN);
    vec![
        ("setup_s", stats::median(&m.setups).unwrap_or(f64::NAN), "s"),
        ("points_per_s", rate(Class::Cold), "1/s"),
        ("warm_points_per_s", rate(Class::Warm), "1/s"),
        ("req_per_s", m.ops.len() as f64 / m.window_s, "1/s"),
        ("cold_p50_ms", p50(Class::Cold), "ms"),
        ("warm_p50_ms", p50(Class::Warm), "ms"),
        (
            "peak_rss_mb",
            m.peak_rss_mb.unwrap_or_else(peak_rss_mb),
            "MB",
        ),
    ]
}

fn print_result(correct: bool, attempted: u64, failed: u64, metrics: &[(&str, f64, &str)]) {
    let body: Vec<String> = metrics
        .iter()
        .map(|(n, v, u)| {
            format!(
                "\"{n}\": {{\"value\": {}, \"unit\": \"{u}\"}}",
                json_num(*v)
            )
        })
        .collect();
    println!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    );
}

fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "null".to_owned()
    }
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    runs: usize,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: 10.0,
        trace: false,
        runs: 10,
    };
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("bad value `{value}` for {flag}");
        match flag.as_str() {
            "--workload" => args.workload = value.clone(),
            "--seed" => args.seed = value.parse().map_err(|_| bad())?,
            "--seconds" => args.seconds = value.parse().map_err(|_| bad())?,
            "--runs" => args.runs = value.parse().map_err(|_| bad())?,
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                }
            }
            other => return Err(format!("unknown flag `{other}`")),
        }
    }
    if !WORKLOADS.contains(&args.workload.as_str()) {
        return Err(format!(
            "--workload must be one of {}, not `{}`",
            WORKLOADS.join(", "),
            args.workload
        ));
    }
    if !(args.seconds > 0.0 && args.seconds <= 600.0) {
        return Err("--seconds must lie in (0, 600]".to_owned());
    }
    Ok(args)
}

fn run_once(args: &Args) -> ExitCode {
    let exe = std::env::current_exe().expect("own executable path");
    let scratch = exe
        .parent()
        .unwrap_or(Path::new("."))
        .join("perfbench-scratch")
        .join(format!("{}-{}", args.workload, std::process::id()));
    let _ = std::fs::remove_dir_all(&scratch);
    if let Err(e) = std::fs::create_dir_all(&scratch) {
        eprintln!("perfbench: cannot create {}: {e}", scratch.display());
        return ExitCode::FAILURE;
    }
    let cfg = Config {
        seed: args.seed,
        seconds: args.seconds,
        scratch: scratch.clone(),
    };
    let outcome = if args.trace {
        let t = match args.workload.as_str() {
            "serve_mix" => serve::traced(&cfg),
            name => explore::traced(name, &cfg),
        };
        let metrics: Vec<(&str, f64, &str)> = layers::LAYER_METRICS
            .iter()
            .map(|&(n, u)| (n, t.layers.0[n], u))
            .collect();
        (t.problems, t.attempted, t.failed, metrics)
    } else {
        let m = match args.workload.as_str() {
            "serve_mix" => serve::measure(&cfg),
            name => explore::measure(name, &cfg),
        };
        let failed = m.ops.iter().filter(|o| !o.ok).count() as u64;
        for class in [Class::Cold, Class::Warm] {
            let ops = m.ops.iter().filter(|o| o.class == class && o.ok);
            let samples = ops.clone().count();
            let kinds: std::collections::BTreeSet<usize> = ops.map(|o| o.kind).collect();
            let p90 = per_kind(&m, class, |ms| stats::percentile(ms, 90.0)).map_or_else(
                || "n/a (fewer than 100 samples of some kind)".to_owned(),
                |v| format!("{v:.4} ms"),
            );
            println!(
                "{class:?} operations: {samples} samples of {} kinds, p90 {p90}",
                kinds.len()
            );
        }
        let batches: Vec<String> = m.setups.iter().map(|s| format!("{:.1}", s * 1e6)).collect();
        println!("set-up batches (us per set-up): {}", batches.join(" "));
        let e2e = end_to_end(&m);
        (m.problems, m.ops.len() as u64, failed, e2e)
    };
    let _ = std::fs::remove_dir_all(&scratch);
    let (problems, attempted, failed, metrics) = outcome;
    for p in &problems {
        eprintln!("perfbench: CHECK FAILED: {p}");
    }
    for (n, v, u) in &metrics {
        println!("{n} = {v} {u}");
    }
    println!("attempted = {attempted}, failed = {failed}");
    print_result(problems.is_empty(), attempted, failed, &metrics);
    ExitCode::SUCCESS
}

/// Bounds of the end-to-end metrics, from `BENCHMARK.json`.
fn bounds() -> Result<BTreeMap<String, f64>, String> {
    let text = std::fs::read_to_string("BENCHMARK.json")
        .map_err(|e| format!("cannot read BENCHMARK.json in the working directory: {e}"))?;
    let doc = mc_trace::json::parse(&text).map_err(|e| e.to_string())?;
    let list = doc
        .get("end_to_end")
        .and_then(|v| v.as_array())
        .ok_or("BENCHMARK.json has no end_to_end list")?;
    Ok(list
        .iter()
        .filter_map(|m| {
            Some((
                m.get("name")?.as_str()?.to_owned(),
                m.get("bound")?.as_f64()?,
            ))
        })
        .collect())
}

/// Runs the benchmark `runs` times as child processes and reports, per
/// metric, the median and the quartile spread against its bound.
fn steady(args: &Args) -> ExitCode {
    let exe = std::env::current_exe().expect("own executable path");
    let mut values: BTreeMap<String, Vec<f64>> = BTreeMap::new();
    let mut shares = Vec::new();
    let mut all_correct = true;
    for run in 1..=args.runs {
        // One seed throughout for traced runs: their counters must repeat.
        let seed = if args.trace { 1 } else { run as u64 };
        let out = std::process::Command::new(&exe)
            .args(["--workload", &args.workload])
            .args(["--seed", &seed.to_string()])
            .args(["--seconds", &args.seconds.to_string()])
            .args(["--trace", if args.trace { "1" } else { "0" }])
            .stderr(std::process::Stdio::inherit())
            .output()
            .expect("spawn benchmark run");
        let stdout = String::from_utf8_lossy(&out.stdout);
        let Some(doc) = stdout
            .lines()
            .last()
            .and_then(|l| mc_trace::json::parse(l).ok())
        else {
            eprintln!("run {run}: no result line");
            return ExitCode::FAILURE;
        };
        let num = |k: &str| doc.get(k).and_then(|v| v.as_f64()).unwrap_or(f64::NAN);
        let correct = matches!(doc.get("correct"), Some(mc_trace::json::Value::Bool(true)));
        all_correct &= correct;
        shares.push((num("failed"), num("attempted")));
        let mut row = format!(
            "run {run} (seed {seed}): correct {correct}, failed {}/{}",
            num("failed"),
            num("attempted")
        );
        for (name, m) in doc
            .get("metrics")
            .and_then(|m| m.as_object())
            .unwrap_or(&[])
        {
            let v = m.get("value").and_then(|v| v.as_f64()).unwrap_or(f64::NAN);
            if !args.trace {
                row.push_str(&format!(" {name}={v:.6}"));
            }
            values.entry(name.clone()).or_default().push(v);
        }
        println!("{row}");
    }
    let share_set: std::collections::BTreeSet<String> =
        shares.iter().map(|(f, a)| format!("{}", f / a)).collect();
    println!("failed share per run: {share_set:?} (must be one value)");
    if args.trace {
        let mut ok = all_correct && share_set.len() == 1;
        for name in layers::DETERMINISTIC {
            let v = &values[*name];
            let same = v.iter().all(|x| x == &v[0]);
            ok &= same;
            println!(
                "{name:<28} {:>16} {}",
                v[0],
                if same { "repeats" } else { "DIFFERS" }
            );
        }
        return if ok {
            ExitCode::SUCCESS
        } else {
            ExitCode::FAILURE
        };
    }
    let bounds = match bounds() {
        Ok(b) => b,
        Err(e) => {
            eprintln!("perfbench steady: {e}");
            return ExitCode::FAILURE;
        }
    };
    let mut ok = all_correct && share_set.len() == 1;
    for (name, v) in &values {
        let spread = stats::spread(v).unwrap_or(f64::NAN);
        let bound = bounds.get(name).copied().unwrap_or(f64::NAN);
        let steady = spread < bound;
        ok &= steady;
        println!(
            "{name:<20} median {:>14.6}  spread {:>7.4}  bound {bound:.2}  {}",
            stats::median(v).unwrap_or(f64::NAN),
            spread,
            if spread < bound / 3.0 {
                "steady"
            } else if steady {
                "within bound"
            } else {
                "TOO WIDE"
            }
        );
    }
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let (is_steady, rest) = match argv.first().map(String::as_str) {
        Some("steady") => (true, &argv[1..]),
        _ => (false, &argv[..]),
    };
    let args = match parse_args(rest) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    if is_steady {
        steady(&args)
    } else {
        run_once(&args)
    }
}
