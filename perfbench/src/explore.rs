//! The three exploration workloads: `explore_scale`, `montecarlo_paper`
//! and `montecarlo_wide`, all driven through `mc_explore::Explorer::run`
//! and checked through fresh `mc_core::Flow`s.
//!
//! A run sets up once, fills each job's persistent cache with an untimed
//! cold pass, then measures whole rounds until the time is up. A round is
//! one cold operation (every job explored with no persistent cache) and a
//! fixed number of warm operations (every job re-run against its filled
//! cache). The cold operations run with no cache because the cache is a
//! directory inside the checkout, on disk: its per-entry fsync makes a
//! cache-filling pass slow and unsteady (see the README), so that cost is
//! left out of the timed operations. One batch of set-ups is timed before
//! the first round and one per twentieth of the window, at the next round
//! boundary; `setup_s` is the median batch.

use std::path::PathBuf;
use std::time::Instant;

use mc_core::dfg::benchmarks::{self, Benchmark};
use mc_core::dfg::random::{random_dfg, RandomDfgConfig};
use mc_core::dfg::{parse, scheduler, Op as DfgOp};
use mc_core::passes::Behavior;
use mc_core::{verify_rewrite, DesignStyle, Flow, RewriteOptions};
use mc_explore::{DesignPoint, ExploreReport, ExploreSpace, Explorer, NOMINAL_VOLTS};

use crate::check::{self, corrupt, Keyed, Obj, VoltagePoint};
use crate::layers::{self, Layers};
use crate::{
    mix, overhead_pct, require, setup_batch, Class, Config, Measured, Op, Traced, SETUP_MARKS,
};

/// Structure seed of the generated wide behaviours. It is fixed so that
/// every run seed prices the same netlists; the run seed moves the
/// stimulus and the checked samples.
const WIDE_STRUCTURE_SEED: u64 = 3;

/// Points of the `--scale` lattice slice explored per pass.
const SCALE_BUDGET: usize = 30_000;

struct Job {
    bm: Benchmark,
    explorer: Explorer,
    cache: PathBuf,
}

/// A workload's inputs and the parameters of its checks.
struct Workload {
    jobs: Vec<Job>,
    space: ExploreSpace,
    computations: usize,
    power_seeds: usize,
    seed: u64,
    /// Lattice points per job re-evaluated through a fresh flow.
    samples: usize,
    /// Voltages the V² check evaluates every sampled point at.
    law_volts: Vec<f64>,
    /// Frontier points per job re-priced seed by seed (Monte-Carlo only).
    repriced: usize,
    /// Check the paper's claim on each job (paper benchmarks only).
    paper_claim: bool,
    /// Check an interrupted-and-resumed run against a straight one.
    resume: bool,
    /// Warm operations per round. A warm pass costs a small share of a
    /// cold one; repeating it gives the warm class enough samples.
    warm_per_round: usize,
    /// Untraced/traced pairs of cold operations in the traced run.
    traced_pairs: usize,
}

/// A multiplier-heavy behaviour at `width` bits, renamed for its width.
fn wide_behaviour(width: u8) -> Benchmark {
    let cfg = RandomDfgConfig::new(12)
        .with_inputs(4)
        .with_width(width)
        .with_seed(WIDE_STRUCTURE_SEED)
        .with_ops(&[DfgOp::Mul, DfgOp::Mul, DfgOp::Add, DfgOp::Sub]);
    let name = format!("mac{width}");
    let dfg = parse::parse_dfg(&name, &parse::to_dsl(&random_dfg(&cfg)))
        .expect("a rendered DFG parses back");
    let schedule = scheduler::asap(&dfg);
    Benchmark {
        dfg,
        schedule,
        description: "generated multiplier-heavy behaviour",
    }
}

/// Builds the workload: behaviours, explorers, cache directories, and
/// the equivalence proof of every rewrite the space applies (the check
/// `Explorer::run` makes before it evaluates a point).
fn setup(name: &str, cfg: &Config) -> Result<Workload, String> {
    let (bms, space, computations, power_seeds, budget) = match name {
        "explore_scale" => (
            vec![benchmarks::facet()],
            ExploreSpace::scale(),
            6,
            1,
            Some(SCALE_BUDGET),
        ),
        "montecarlo_paper" => (
            benchmarks::paper_benchmarks(),
            ExploreSpace {
                voltages: vec![NOMINAL_VOLTS, 3.3, 2.5],
                ..ExploreSpace::default()
            },
            400,
            64,
            None,
        ),
        "montecarlo_wide" => (
            vec![wide_behaviour(16), wide_behaviour(32)],
            ExploreSpace {
                voltages: vec![NOMINAL_VOLTS],
                ..ExploreSpace::default()
            },
            400,
            64,
            None,
        ),
        other => return Err(format!("no exploration workload `{other}`")),
    };
    let seed = mix(cfg.seed) >> 12;
    let mut jobs = Vec::new();
    for bm in bms {
        let base = Behavior::for_benchmark(&bm);
        for &choice in &space.rewrites {
            let rewritten = choice.apply(&base);
            if rewritten.dfg != base.dfg || rewritten.schedule != base.schedule {
                let opts = RewriteOptions {
                    computations,
                    seeds: mc_core::power::derive_seeds(seed, 3),
                };
                verify_rewrite(&base, &rewritten, &opts)
                    .map_err(|e| format!("{}: rewrite {}: {e}", bm.name(), choice.label()))?;
            }
        }
        let mut explorer = Explorer::new()
            .with_space(space.clone())
            .with_computations(computations)
            .with_power_seeds(power_seeds)
            .with_seed(seed)
            .with_threads(crate::THREADS);
        if let Some(b) = budget {
            explorer = explorer.with_budget(b);
        }
        let cache = cfg.scratch.join(format!("cache-{}", bm.name()));
        mc_core::cache::DiskCache::open(&cache).map_err(|e| format!("cache: {e}"))?;
        jobs.push(Job {
            bm,
            explorer,
            cache,
        });
    }
    let paper = name == "montecarlo_paper";
    Ok(Workload {
        jobs,
        law_volts: match name {
            "explore_scale" => vec![NOMINAL_VOLTS, 3.3, 2.5, 5.0],
            _ => vec![NOMINAL_VOLTS, 3.3, 2.5],
        },
        samples: if name == "explore_scale" { 12 } else { 3 },
        repriced: usize::from(power_seeds > 1),
        paper_claim: paper,
        resume: name == "explore_scale",
        warm_per_round: match name {
            "explore_scale" => 2,
            "montecarlo_paper" => 64,
            _ => 32,
        },
        traced_pairs: if name == "montecarlo_wide" { 9 } else { 3 },
        space,
        computations,
        power_seeds,
        seed,
    })
}

/// One operation: every job explored, cold (no cache) or warm (its
/// filled cache). Returns the reports and the operation.
fn explore_all(
    w: &Workload,
    class: Class,
    round: usize,
) -> (Vec<Result<ExploreReport, String>>, Op) {
    let t = Instant::now();
    let reports: Vec<Result<ExploreReport, String>> = w
        .jobs
        .iter()
        .map(|j| {
            let ex = match class {
                Class::Warm => j.explorer.clone().with_cache_dir(&j.cache),
                _ => j.explorer.clone(),
            };
            ex.run(&j.bm).map_err(|e| format!("{}: {e}", j.bm.name()))
        })
        .collect();
    let secs = t.elapsed().as_secs_f64();
    let points = reports.iter().flatten().map(|r| r.evaluated as u64).sum();
    let ok = reports.iter().all(Result::is_ok);
    let op = Op {
        class,
        kind: 0,
        round,
        secs,
        points,
        ok,
    };
    (reports, op)
}

/// Compares an operation's reports with the reference reports of the
/// cache-filling pass: byte-identical JSON, and no flow evaluation when
/// warm.
fn compare(
    problems: &mut Vec<String>,
    reference: &[String],
    reports: &[Result<ExploreReport, String>],
    class: Class,
) {
    for (i, r) in reports.iter().enumerate() {
        match r {
            Ok(r) => {
                require(problems, r.to_json() == reference[i], || {
                    format!(
                        "{}: {class:?} report differs from the cold report",
                        r.benchmark
                    )
                });
                if class == Class::Warm {
                    require(problems, r.flow_evals == 0, || {
                        format!(
                            "{}: warm pass ran {} flow evaluations",
                            r.benchmark, r.flow_evals
                        )
                    });
                }
            }
            Err(e) => problems.push(e.clone()),
        }
    }
}

/// The untimed pass that fills every job's persistent cache.
fn fill(w: &Workload, problems: &mut Vec<String>) -> Vec<ExploreReport> {
    let mut out = Vec::new();
    for j in &w.jobs {
        match j.explorer.clone().with_cache_dir(&j.cache).run(&j.bm) {
            Ok(r) => out.push(r),
            Err(e) => problems.push(format!("{}: filling the cache: {e}", j.bm.name())),
        }
    }
    out
}

pub fn measure(name: &str, cfg: &Config) -> Measured {
    let mut m = Measured::default();
    let (first, w) = setup_batch(|| setup(name, cfg));
    m.setups.push(first);
    let w = match w {
        Ok(w) => w,
        Err(e) => {
            m.problems.push(e);
            return m;
        }
    };
    let t = Instant::now();
    let filled = fill(&w, &mut m.problems);
    println!(
        "cache fill (untimed, on disk): {:.3} s",
        t.elapsed().as_secs_f64()
    );
    if filled.len() != w.jobs.len() {
        return m;
    }
    let reference: Vec<String> = filled.iter().map(ExploreReport::to_json).collect();

    // One batch of set-ups per twentieth of the window, taken at round
    // boundaries so that every batch follows the same operation; the time
    // they take does not count towards the window.
    let start = Instant::now();
    let mut in_setups = 0.0;
    let window = |in_setups: f64| start.elapsed().as_secs_f64() - in_setups;
    let every = cfg.seconds / SETUP_MARKS as f64;
    let mut mark = every;
    let mut round = 0;
    while round == 0 || window(in_setups) < cfg.seconds {
        for i in 0..=w.warm_per_round {
            let class = if i == 0 { Class::Cold } else { Class::Warm };
            let (reports, op) = explore_all(&w, class, round);
            compare(&mut m.problems, &reference, &reports, class);
            m.ops.push(op);
        }
        round += 1;
        while mark <= window(in_setups) {
            let t = Instant::now();
            let (secs, again) = setup_batch(|| setup(name, cfg));
            m.setups.push(secs);
            if let Err(e) = again {
                m.problems.push(e);
            }
            in_setups += t.elapsed().as_secs_f64();
            mark += every;
        }
    }
    m.window_s = window(in_setups);
    verify(&w, &filled, &mut m.problems);
    m
}

/// The output checks of one run, on the reports of the filling pass
/// (which every timed pass matched byte for byte).
fn verify(w: &Workload, reports: &[ExploreReport], problems: &mut Vec<String>) {
    for (k, (job, report)) in w.jobs.iter().zip(reports).enumerate() {
        if let Err(e) = verify_job(w, job, report, mix(w.seed ^ k as u64)) {
            problems.push(format!("{}: {e}", job.bm.name()));
        }
    }
    if w.resume {
        let job = &w.jobs[0];
        let ck = job.cache.with_extension("ckpt");
        let half = job
            .explorer
            .clone()
            .with_budget(SCALE_BUDGET / 2)
            .with_checkpoint(&ck);
        let resumed = half.run(&job.bm).and_then(|_| {
            job.explorer
                .clone()
                .with_checkpoint(&ck)
                .with_resume(true)
                .run(&job.bm)
        });
        match resumed {
            Ok(r) => require(problems, r.to_json() == reports[0].to_json(), || {
                "a run resumed from a mid-run checkpoint differs from a straight run".to_owned()
            }),
            Err(e) => problems.push(format!("resume: {e}")),
        }
    }
}

/// Objectives of `p` evaluated through a fresh flow: no explorer, no
/// cache. Latency is steps × max(critical path, clock period), the
/// explorer's documented definition.
fn fresh_objectives(w: &Workload, bm: &Benchmark, p: &DesignPoint) -> Result<Obj, String> {
    let flow = p
        .flow_spec()
        .build(bm, w.computations, w.seed)
        .with_power_seeds(w.power_seeds);
    let rep = flow.evaluate(p.style).map_err(|e| e.to_string())?;
    let period = rep
        .timing
        .critical_path_ns
        .max(1000.0 / flow.tech().clock_mhz());
    Ok([
        rep.power.total_mw,
        rep.area.total_lambda2,
        f64::from(flow.schedule().length()) * period,
    ])
}

fn verify_job(w: &Workload, job: &Job, report: &ExploreReport, seed: u64) -> Result<(), String> {
    let front: Keyed = report
        .results
        .iter()
        .map(|r| {
            let o = &r.objectives;
            (
                format!("{:?}", r.point),
                [o.power_mw, o.area_lambda2, o.latency_ns],
            )
        })
        .collect();
    let objs: Vec<Obj> = front.iter().map(|(_, o)| *o).collect();
    check::self_tested("frontier", &objs, corrupt::frontier, |f| {
        check::frontier_nondominated(f)
    })?;

    // A seeded sample of the explored slice, re-evaluated independently,
    // and the same points again at other supply voltages.
    let gen = w.space.generator();
    let mut samples = Vec::new();
    let mut law = Vec::new();
    for s in 0..w.samples {
        let index = (mix(seed ^ (s as u64 + 1)) % report.evaluated as u64) as usize;
        let p = gen.point_at(index);
        samples.push((format!("{p:?}"), fresh_objectives(w, &job.bm, &p)?));
        for &volts in &w.law_volts {
            let q = DesignPoint { volts, ..p };
            law.push(VoltagePoint {
                group: format!("{:?}", DesignPoint { volts: 0.0, ..p }),
                volts,
                obj: fresh_objectives(w, &job.bm, &q)?,
            });
        }
    }
    check::self_tested("sample", &(samples, front), corrupt::sample, |(s, f)| {
        check::sample_covered(s, f)
    })?;
    check::self_tested(
        "V² law",
        &law,
        |l| corrupt::voltage(l),
        |l| check::v_squared_law(l),
    )?;

    // Frontier points re-priced one derived seed at a time through the
    // scalar kernel.
    for s in 0..w.repriced {
        let r =
            &report.results[(mix(seed ^ 0x5eed ^ s as u64) % report.results.len() as u64) as usize];
        let flow = r.point.flow_spec().build(&job.bm, w.computations, w.seed);
        let design = flow.synthesize(r.point.style).map_err(|e| e.to_string())?;
        let totals: Vec<f64> = mc_core::power::derive_seeds(flow.seed(), w.power_seeds)
            .into_iter()
            .map(|seed| {
                mc_core::power::evaluate_design(
                    &design.datapath.netlist,
                    design.mode,
                    flow.tech(),
                    w.computations,
                    seed,
                )
                .power
                .total_mw
            })
            .collect();
        let reported = r.power_ci.map_or(r.objectives.power_mw, |ci| ci.mean_mw);
        check::self_tested(
            "Monte-Carlo mean",
            &(totals, reported),
            corrupt::mean,
            |(t, m)| check::monte_carlo_mean(t, *m),
        )?;
    }

    if w.paper_claim {
        let flow = Flow::for_benchmark(&job.bm)
            .with_computations(w.computations)
            .with_seed(w.seed)
            .with_power_seeds(w.power_seeds);
        let rows = flow
            .evaluate_styles(&DesignStyle::paper_rows())
            .map_err(|e| e.to_string())?;
        let power = |e: &mc_core::Evaluated| e.report.power.total_mw;
        let gated = rows
            .iter()
            .find(|e| e.style == DesignStyle::ConventionalGated)
            .map(power)
            .ok_or("no gated conventional row")?;
        let best = rows
            .iter()
            .filter(|e| matches!(e.style, DesignStyle::MultiClock(n) if n >= 2))
            .map(power)
            .fold(f64::INFINITY, f64::min);
        if best >= gated {
            return Err(format!(
                "best multi-clock row {best} mW does not beat the gated conventional row {gated} mW"
            ));
        }
    }
    Ok(())
}

/// The traced run: a traced cache-filling pass (which also warms the
/// process up), untraced and traced cold operations in alternation
/// (their medians give the tracing overhead), then a traced warm
/// operation. The layers come from the first traced cold operation, so
/// every count covers a fixed amount of work and repeats exactly under
/// one seed.
pub fn traced(name: &str, cfg: &Config) -> Traced {
    let mut out = Traced {
        layers: Layers::new(),
        attempted: 0,
        failed: 0,
        problems: Vec::new(),
    };
    let w = match setup(name, cfg) {
        Ok(w) => w,
        Err(e) => {
            out.problems.push(e);
            return out;
        }
    };
    mc_trace::enable();
    let filled = fill(&w, &mut out.problems);
    mc_trace::disable();
    let fill_trace = mc_trace::take();
    out.attempted += w.jobs.len() as u64;
    out.failed += (w.jobs.len() - filled.len()) as u64;
    let (mut untraced, mut traced) = (Vec::new(), Vec::new());
    let mut cold_trace = None;
    let mut reference: Option<Vec<String>> = None;
    let mut record = |out: &mut Traced, reports: &[Result<ExploreReport, String>], op: &Op| {
        out.attempted += 1;
        out.failed += u64::from(!op.ok);
        let json: Vec<String> = reports
            .iter()
            .flatten()
            .map(ExploreReport::to_json)
            .collect();
        let reference = reference.get_or_insert_with(|| json.clone());
        require(&mut out.problems, &json == reference, || {
            "tracing changed a report".to_owned()
        });
    };
    for _ in 0..w.traced_pairs {
        let (reports, op) = explore_all(&w, Class::Cold, 0);
        record(&mut out, &reports, &op);
        untraced.push(op.secs);
        mc_trace::enable();
        let (reports, op) = explore_all(&w, Class::Cold, 0);
        mc_trace::disable();
        let trace = mc_trace::take();
        record(&mut out, &reports, &op);
        traced.push(op.secs);
        cold_trace.get_or_insert(trace);
    }
    mc_trace::enable();
    let (reports, op) = explore_all(&w, Class::Warm, 0);
    mc_trace::disable();
    let warm_trace = mc_trace::take();
    out.attempted += 1;
    out.failed += u64::from(!op.ok);
    for r in reports.iter().flatten() {
        require(&mut out.problems, r.flow_evals == 0, || {
            format!(
                "{}: warm pass ran {} flow evaluations",
                r.benchmark, r.flow_evals
            )
        });
    }

    let l = &mut out.layers;
    l.read_trace(
        cold_trace.as_ref().expect("at least one traced pass"),
        w.power_seeds,
    );
    l.set(
        "explore.warm_self_ms",
        layers::self_ms(&warm_trace, "explore.run"),
    );
    let runtime =
        |t: &mc_trace::Trace, n: &str| t.runtime_counters.get(n).copied().unwrap_or(0) as f64;
    l.set(
        "explore.cache.disk_hits",
        runtime(&warm_trace, "explore.cache.disk_hits"),
    );
    l.set(
        "explore.cache.disk_puts",
        runtime(&fill_trace, "explore.cache.disk_puts"),
    );
    l.set("trace.overhead_pct", overhead_pct(&untraced, &traced));
    out
}
