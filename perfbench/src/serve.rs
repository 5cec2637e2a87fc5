//! The `serve_mix` workload: an in-process `mc_serve::Server` with two
//! workers, driven over real TCP by two closed-loop clients.
//!
//! Each client runs whole rounds of 25 requests. A round holds one cold
//! `/eval`, `/sweep` and `/retrofit` per paper benchmark, in a seeded
//! order, each with a seed value no request used before (so it misses
//! the cache and runs the pipeline); after each cold request comes a warm
//! one that repeats one of the client's earlier bodies, picked by the
//! seed (so it is answered from the cache). The round ends with the
//! voltage probe: a `POST /explore` with `"voltages":[0.9]`, a body that
//! does not depend on the run seed. Today it trips the `assert!` in
//! `TechLibrary::at_voltage`, the worker drops the connection unanswered,
//! and the probe counts as failed; a typed 4xx answer would count as
//! success. Whole rounds keep the failed share at exactly 1/25.
//!
//! No recorded usage of the service exists to weigh this mix by; the
//! weights are an assumption, set out in the README. The latency medians
//! are therefore taken per kind (endpoint and benchmark), so they do not
//! depend on the weights.

use std::net::SocketAddr;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Barrier};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use mc_serve::api::{parse_request, FlowPool};
use mc_serve::http::http_request;
use mc_serve::{ServeConfig, ServeError, Server};
use mc_trace::json::{self, Value};

use crate::layers::{self, Layers};
use crate::{
    mix, overhead_pct, require, Class, Config, Measured, Op, Traced, SETUP_BATCH_S, SETUP_MARKS,
};

const BENCHMARKS: [&str; 4] = ["facet", "hal", "biquad", "bandpass"];
const KINDS: [&str; 3] = ["eval", "sweep", "retrofit"];
/// `Op::kind` of the probe; a cold or warm request to endpoint `k` for
/// benchmark `b` has kind `k * BENCHMARKS.len() + b`.
const PROBE_KIND: usize = KINDS.len() * BENCHMARKS.len();
/// Rounds per client in a fixed pass: each server pass of the traced
/// run, and the pass that `peak_rss_mb` is read after.
const FIXED_ROUNDS: usize = 8;

static PANICS: AtomicU64 = AtomicU64::new(0);

/// Counts panics instead of printing a backtrace for each probe; the
/// first message is still shown.
fn count_panics() {
    std::panic::set_hook(Box::new(|info| {
        if PANICS.fetch_add(1, Ordering::Relaxed) == 0 {
            eprintln!("perfbench: a server thread panicked (later panics are counted): {info}");
        }
    }));
}

struct Running {
    addr: SocketAddr,
    handle: JoinHandle<Result<(), ServeError>>,
}

/// Binds a server on an ephemeral port and waits until `/healthz` answers.
fn start(cache_dir: std::path::PathBuf) -> Result<Running, String> {
    let config = ServeConfig {
        addr: "127.0.0.1:0".to_owned(),
        cache_dir,
        threads: crate::THREADS,
    };
    let server = Server::bind(&config).map_err(|e| e.to_string())?;
    let addr = server.local_addr().map_err(|e| e.to_string())?;
    let handle = std::thread::spawn(move || server.run());
    for _ in 0..1000 {
        if let Ok((200, _)) = http_request(addr, "GET", "/healthz", "") {
            return Ok(Running { addr, handle });
        }
        std::thread::sleep(Duration::from_millis(1));
    }
    Err("server never answered /healthz".to_owned())
}

fn stop(r: Running) -> Result<(), String> {
    http_request(r.addr, "POST", "/shutdown", "").map_err(|e| format!("shutdown: {e}"))?;
    match r.handle.join() {
        Ok(result) => result.map_err(|e| e.to_string()),
        Err(_) => Err("server thread panicked".to_owned()),
    }
}

fn stats(addr: SocketAddr) -> Result<Value, String> {
    let (_, body) = http_request(addr, "GET", "/stats", "").map_err(|e| format!("/stats: {e}"))?;
    json::parse(&body).map_err(|e| format!("/stats: {e}"))
}

fn stat(v: &Value, key: &str) -> u64 {
    v.get(key).and_then(Value::as_f64).unwrap_or(f64::NAN) as u64
}

/// The endpoint of a request kind.
fn endpoint(kind: usize) -> &'static str {
    KINDS[kind / BENCHMARKS.len()]
}

/// One cold request body: `seed` is unique within the run.
fn body(bm: &str, seed: u64) -> String {
    format!("{{\"benchmark\":\"{bm}\",\"seed\":{seed}}}")
}

/// What one client did, in order.
#[derive(Default)]
struct ClientLog {
    /// Rounds run so far.
    rounds: usize,
    ops: Vec<Op>,
    /// Every answered cold request: (kind, body, response, points).
    cold: Vec<(usize, String, String, u64)>,
    /// Probes that reached the compute path, so each ran the flow once:
    /// every probe not answered with a 4xx.
    probes_computed: u64,
    /// Round-trip seconds of every compute request.
    rtt: f64,
    problems: Vec<String>,
    end: Option<Instant>,
}

/// Runs whole rounds until `deadline` passes (at least one) or, without
/// a deadline, exactly `rounds` rounds, continuing `log`.
fn client(
    addr: SocketAddr,
    run_seed: u64,
    id: u64,
    mut log: ClientLog,
    deadline: Option<Instant>,
    rounds: usize,
) -> ClientLog {
    let base = (mix(run_seed) % 1_000_000_000) * 1_000_000 + id * 400_000;
    let mut done = 0;
    while deadline.map_or(done < rounds, |d| done == 0 || Instant::now() < d) {
        let round = log.rounds;
        // Rounds of the two clients are kept apart for the per-round rates.
        let op = |class, kind, secs, points, ok| Op {
            class,
            kind,
            round: (id as usize) << 32 | round,
            secs,
            points,
            ok,
        };
        let mut rng = mix(run_seed ^ (id << 48) ^ round as u64);
        let mut plan: Vec<usize> = (0..PROBE_KIND).collect();
        for i in (1..plan.len()).rev() {
            rng = mix(rng);
            plan.swap(i, (rng % (i as u64 + 1)) as usize);
        }
        for (k, &kind) in plan.iter().enumerate() {
            let name = endpoint(kind);
            let b = body(
                BENCHMARKS[kind % BENCHMARKS.len()],
                base + round as u64 * 16 + k as u64,
            );
            let (secs, response) = send(addr, name, &b, &mut log);
            let points = match (name, &response) {
                ("retrofit", Some(r)) => {
                    let reduction = json::parse(r)
                        .ok()
                        .and_then(|d| d.get("power_reduction_pct").and_then(Value::as_f64));
                    require(
                        &mut log.problems,
                        reduction.is_some_and(|p| p > 0.0),
                        || format!("/retrofit {b}: no positive power reduction in {r}"),
                    );
                    2
                }
                (_, Some(r)) => json::parse(r)
                    .ok()
                    .and_then(|d| {
                        d.get("rows")
                            .and_then(|rows| rows.as_array().map(<[Value]>::len))
                    })
                    .unwrap_or(0) as u64,
                _ => 0,
            };
            log.ops
                .push(op(Class::Cold, kind, secs, points, response.is_some()));
            if let Some(r) = response {
                log.cold.push((kind, b, r, points));
            }
            // A warm request repeats an earlier cold body of this client.
            if let Some(i) = log.cold.len().checked_sub(1) {
                rng = mix(rng);
                let pick = (rng % (i as u64 + 1)) as usize;
                let (kind, b, original, points) = log.cold[pick].clone();
                let name = endpoint(kind);
                let (secs, response) = send(addr, name, &b, &mut log);
                require(
                    &mut log.problems,
                    response.as_deref() == Some(original.as_str()),
                    || format!("warm /{name} {b} differs from its cold original"),
                );
                log.ops
                    .push(op(Class::Warm, kind, secs, points, response.is_some()));
            }
        }
        // The voltage probe; its body does not depend on the run seed.
        let probe = format!(
            "{{\"benchmark\":\"hal\",\"voltages\":[0.9],\"threads\":{},\"seed\":{}}}",
            crate::THREADS,
            id * 1_000_000 + log.rounds as u64
        );
        let t = Instant::now();
        let answer = http_request(addr, "POST", "/explore", &probe);
        let secs = t.elapsed().as_secs_f64();
        log.rtt += secs;
        let typed_4xx = matches!(&answer, Ok((400..=499, b)) if json::parse(b).is_ok_and(|d| d.get("error").is_some()));
        if !matches!(&answer, Ok((400..=499, _))) {
            log.probes_computed += 1;
        }
        log.ops
            .push(op(Class::Probe, PROBE_KIND, secs, 0, typed_4xx));
        log.rounds += 1;
        done += 1;
    }
    log.end = Some(Instant::now());
    log
}

/// Sends one compute request; returns its round trip (s) and the body of
/// a 200 answer. Any other outcome is recorded as a problem.
fn send(addr: SocketAddr, kind: &str, body: &str, log: &mut ClientLog) -> (f64, Option<String>) {
    let t = Instant::now();
    let answer = http_request(addr, "POST", &format!("/{kind}"), body);
    let secs = t.elapsed().as_secs_f64();
    log.rtt += secs;
    let response = match answer {
        Ok((200, r)) => Some(r),
        Ok((status, r)) => {
            log.problems
                .push(format!("/{kind} {body}: status {status}: {r}"));
            None
        }
        Err(e) => {
            log.problems.push(format!("/{kind} {body}: {e}"));
            None
        }
    };
    (secs, response)
}

/// Both clients, released together, each continuing its log; returns
/// the logs and the window.
fn drive(
    addr: SocketAddr,
    run_seed: u64,
    logs: Vec<ClientLog>,
    deadline_s: Option<f64>,
    rounds: usize,
) -> (Vec<ClientLog>, f64) {
    let barrier = Arc::new(Barrier::new(logs.len() + 1));
    let clients: Vec<_> = logs
        .into_iter()
        .zip(0..)
        .map(|(log, id)| {
            let barrier = Arc::clone(&barrier);
            std::thread::spawn(move || {
                barrier.wait();
                let deadline = deadline_s.map(|s| Instant::now() + Duration::from_secs_f64(s));
                client(addr, run_seed, id, log, deadline, rounds)
            })
        })
        .collect();
    barrier.wait();
    let start = Instant::now();
    let logs: Vec<ClientLog> = clients
        .into_iter()
        .map(|h| h.join().expect("client thread"))
        .collect();
    let end = logs.iter().filter_map(|l| l.end).max().unwrap_or(start);
    (logs, (end - start).as_secs_f64())
}

fn fresh_logs() -> Vec<ClientLog> {
    (0..crate::THREADS).map(|_| ClientLog::default()).collect()
}

/// Sends the same fresh body from two threads at once, `n` times: one
/// request leads, the other coalesces onto it or reads its cached answer.
fn coalesce(addr: SocketAddr, run_seed: u64, n: u64, problems: &mut Vec<String>) -> u64 {
    for i in 0..n {
        let b = body(
            "biquad",
            (mix(run_seed) % 1_000_000_000) * 1_000_000 + 900_000 + i,
        );
        let barrier = Arc::new(Barrier::new(2));
        let answers: Vec<_> = (0..2)
            .map(|_| {
                let (barrier, b) = (Arc::clone(&barrier), b.clone());
                std::thread::spawn(move || {
                    barrier.wait();
                    http_request(addr, "POST", "/eval", &b).ok()
                })
            })
            .collect();
        let answers: Vec<_> = answers
            .into_iter()
            .map(|h| h.join().expect("client"))
            .collect();
        require(
            problems,
            matches!(&answers[..], [Some((200, a)), Some((200, b))] if a == b),
            || format!("concurrent identical /eval {b} did not get one identical answer"),
        );
    }
    n
}

/// Most servers one batch of set-ups keeps up at once.
const SETUP_SERVERS: usize = 64;

/// Times one batch of set-ups: binds fresh servers, each answering
/// `/healthz`, until [`SETUP_BATCH_S`] has passed, and keeps them up until
/// the batch is timed, so that no shutdown falls inside the timing.
/// Returns the last server and stops the others.
///
/// Every server opens the run's one cache directory, as a restarted
/// server does: creating a fresh directory on the checkout's disk took
/// 0.07–0.86 ms, more than the rest of a set-up and far less steady.
fn time_setups(cfg: &Config, m: &mut Measured) -> Option<Running> {
    let t = Instant::now();
    let mut up = Vec::new();
    let more = |up: &Vec<Running>| {
        up.is_empty() || (up.len() < SETUP_SERVERS && t.elapsed().as_secs_f64() < SETUP_BATCH_S)
    };
    while more(&up) {
        match start(cfg.scratch.join("serve-cache")) {
            Ok(s) => up.push(s),
            Err(e) => {
                m.problems.push(e);
                break;
            }
        }
    }
    m.setups
        .push(t.elapsed().as_secs_f64() / up.len().max(1) as f64);
    let last = up.pop();
    for s in up {
        if let Err(e) = stop(s) {
            m.problems.push(e);
        }
    }
    last
}

pub fn measure(cfg: &Config) -> Measured {
    count_panics();
    let mut m = Measured::default();
    let Some(server) = time_setups(cfg, &mut m) else {
        return m;
    };
    let addr = server.addr;
    // Peak memory after a fixed amount of work, on a server of its own
    // with its own seeds: the server's flow pool keeps every distinct seed
    // it served, so a peak over the timed window would follow throughput.
    match start(cfg.scratch.join("fixed-cache")) {
        Ok(fixed) => {
            let (logs, _) = drive(fixed.addr, !cfg.seed, fresh_logs(), None, FIXED_ROUNDS);
            if let Err(e) = stop(fixed) {
                m.problems.push(e);
            }
            m.problems.extend(logs.into_iter().flat_map(|l| l.problems));
            m.peak_rss_mb = Some(crate::peak_rss_mb());
        }
        Err(e) => m.problems.push(e),
    }
    // The timed window runs in segments, with a batch of set-ups timed
    // between two segments while the clients wait.
    let mut logs = fresh_logs();
    let segment = cfg.seconds / SETUP_MARKS as f64;
    for mark in 0..SETUP_MARKS {
        if mark > 0 {
            match time_setups(cfg, &mut m) {
                Some(s) => {
                    if let Err(e) = stop(s) {
                        m.problems.push(e);
                    }
                }
                None => break,
            }
        }
        let (next, window) = drive(addr, cfg.seed, logs, Some(segment), 0);
        logs = next;
        m.window_s += window;
    }
    let ops = || logs.iter().flat_map(|l| &l.ops);
    for class in [Class::Cold, Class::Warm] {
        let row: Vec<String> = (0..PROBE_KIND)
            .map(|kind| {
                let ms: Vec<f64> = ops()
                    .filter(|o| o.class == class && o.kind == kind && o.ok)
                    .map(|o| o.secs * 1e3)
                    .collect();
                format!(
                    "{}/{} {:.3}",
                    endpoint(kind),
                    BENCHMARKS[kind % BENCHMARKS.len()],
                    crate::stats::median(&ms).unwrap_or(f64::NAN)
                )
            })
            .collect();
        println!("{class:?} p50 per kind (ms): {}", row.join(", "));
    }
    // Every answered cold body ran the flow once, and so did every probe
    // that reached the compute path; every warm request was a cache hit.
    let cold: u64 = logs.iter().map(|l| l.cold.len() as u64).sum();
    let probes_computed: u64 = logs.iter().map(|l| l.probes_computed).sum();
    let warm = ops().filter(|o| o.class == Class::Warm).count() as u64;
    match stats(addr) {
        Ok(before) => {
            let runs = stat(&before, "flow_runs");
            require(&mut m.problems, runs == cold + probes_computed, || {
                format!("/stats flow_runs {runs} for {cold} distinct cold bodies and {probes_computed} computed probes")
            });
            let hits = stat(&before, "cache_hits");
            require(&mut m.problems, hits == warm, || {
                format!("/stats cache_hits {hits} for {warm} warm requests")
            });
            // Two identical requests at once run the flow once: the
            // second coalesces onto the first or reads its cached answer.
            let n = coalesce(addr, cfg.seed, 4, &mut m.problems);
            match stats(addr) {
                Ok(after) => {
                    let delta = |k: &str| stat(&after, k).wrapping_sub(stat(&before, k));
                    require(&mut m.problems, delta("flow_runs") == n, || {
                        format!(
                            "{n} coalesced pairs ran the flow {} times",
                            delta("flow_runs")
                        )
                    });
                    require(
                        &mut m.problems,
                        delta("cache_hits") + delta("coalesced") == n,
                        || {
                            format!(
                                "{n} coalesced pairs: {} cache hits and {} coalesced",
                                delta("cache_hits"),
                                delta("coalesced")
                            )
                        },
                    );
                    println!(
                        "/stats: flow_runs {}, cache_hits {}, coalesced {}, errors {}; server panics {}",
                        stat(&after, "flow_runs"),
                        stat(&after, "cache_hits"),
                        stat(&after, "coalesced"),
                        stat(&after, "errors"),
                        PANICS.load(Ordering::Relaxed)
                    );
                }
                Err(e) => m.problems.push(e),
            }
        }
        Err(e) => m.problems.push(e),
    }
    // The served bytes are the API's bytes: re-run one cold body of each
    // endpoint in process.
    for name in KINDS {
        if let Some((_, b, served, _)) = logs[0].cold.iter().find(|(k, ..)| endpoint(*k) == name) {
            let direct = parse_request(name, b).and_then(|r| r.run_json(&FlowPool::new()));
            require(
                &mut m.problems,
                direct.as_ref().map(|d| format!("{d}\n")).as_ref() == Ok(served),
                || format!("/{name} {b}: served bytes differ from ApiRequest::run_json"),
            );
        }
    }
    if let Err(e) = stop(server) {
        m.problems.push(e);
    }
    for log in logs {
        m.ops.extend(log.ops);
        m.problems.extend(log.problems);
    }
    m
}

/// The traced run: three untraced and three traced server passes in
/// alternation, each a fresh server answering the same fixed rounds;
/// their medians give the tracing overhead and the first traced pass
/// gives the layers.
pub fn traced(cfg: &Config) -> Traced {
    count_panics();
    let mut out = Traced {
        layers: Layers::new(),
        attempted: 0,
        failed: 0,
        problems: Vec::new(),
    };
    let (mut untraced, mut traced) = (Vec::new(), Vec::new());
    let mut first: Option<(mc_trace::Trace, Vec<ClientLog>, u64)> = None;
    for pass in 0..6 {
        let tracing = pass % 2 == 1;
        let server = match start(cfg.scratch.join(format!("traced-cache-{pass}"))) {
            Ok(s) => s,
            Err(e) => {
                out.problems.push(e);
                return out;
            }
        };
        if tracing {
            mc_trace::enable();
        }
        let (logs, window) = drive(server.addr, cfg.seed, fresh_logs(), None, FIXED_ROUNDS);
        let runs = stats(server.addr).map_or(0, |s| stat(&s, "flow_runs"));
        if let Err(e) = stop(server) {
            out.problems.push(e);
        }
        mc_trace::disable();
        let trace = mc_trace::take();
        for log in &logs {
            out.attempted += log.ops.len() as u64;
            out.failed += log.ops.iter().filter(|o| !o.ok).count() as u64;
            out.problems.extend(log.problems.iter().cloned());
        }
        if tracing {
            traced.push(window);
            first.get_or_insert((trace, logs, runs));
        } else {
            untraced.push(window);
        }
    }
    let (trace, logs, runs) = first.expect("three traced passes");
    let l = &mut out.layers;
    l.read_trace(&trace, 1);
    let (requests, request_ms) = layers::prefixed(&trace, "serve.request.");
    let rtt_ms: f64 = logs.iter().map(|l| l.rtt * 1e3).sum();
    if requests > 0 {
        l.set("serve.request_ms", request_ms / requests as f64);
        l.set(
            "serve.transport_ms",
            (rtt_ms - request_ms) / requests as f64,
        );
    }
    let (computes, compute_ms) = layers::prefixed(&trace, "serve.compute");
    if computes > 0 {
        l.set("serve.compute_ms", compute_ms / computes as f64);
    }
    l.set("serve.flow_runs", runs as f64);
    // The API layer alone: the same cold bodies through run_json, in
    // process, untraced.
    let pool = FlowPool::new();
    let cold: Vec<_> = logs.iter().flat_map(|l| &l.cold).collect();
    let t = Instant::now();
    for (kind, b, ..) in &cold {
        let name = endpoint(*kind);
        if let Err(e) = parse_request(name, b).and_then(|r| r.run_json(&pool)) {
            out.problems.push(format!("/{name} {b} in process: {e}"));
        }
    }
    if !cold.is_empty() {
        l.set(
            "serve.api_ms",
            t.elapsed().as_secs_f64() * 1e3 / cold.len() as f64,
        );
    }
    l.set("trace.overhead_pct", overhead_pct(&untraced, &traced));
    out
}
