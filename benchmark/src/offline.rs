//! The two in-process workloads: `offline-plain` (the paper's own use of
//! the engine) and `offline-stored-compressed` (the same engine over
//! mmap-backed delta-varint rows, store read path included).
//!
//! A *repetition* runs the workload's fixed list of jobs once; repetitions
//! repeat until the window is over. A *job* is one algorithm execution.

use crate::spec::OfflineParams;
use crate::trace::{layer_self_times, Tracer};
use crate::{stats, Ctx, Outcome};
use graphmine_algos::{run_algorithm_digest, AlgorithmKind, SuiteConfig, Workload};
use graphmine_engine::{DirectionChoice, ExecutionConfig, RunTrace, SPARSE_FRONTIER_THRESHOLD};
use graphmine_graph::Representation;
use graphmine_store::{load_workload, pack_workload, StoredGraph};
use serde_json::{json, Value};
use std::path::{Path, PathBuf};
use std::process::Command;
use std::time::Instant;

/// The committed digests and counts for seed 42.
const GOLDEN: &str = include_str!("../golden.json");

/// The seed `golden.json` was recorded with.
pub const GOLDEN_SEED: u64 = 42;

/// Which generated input a job runs on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Input {
    PowerLaw,
    Ratings,
    Grid,
}

/// The jobs of one `offline-plain` repetition: dense pull (PR), sparse
/// push (SSSP), dense→sparse (CC), apply-heavy (ALS), regular topology
/// (LBP). The index is also the position in `OfflineParams::caps`.
const PLAIN_JOBS: [(AlgorithmKind, Input); 5] = [
    (AlgorithmKind::Pr, Input::PowerLaw),
    (AlgorithmKind::Sssp, Input::PowerLaw),
    (AlgorithmKind::Cc, Input::PowerLaw),
    (AlgorithmKind::Als, Input::Ratings),
    (AlgorithmKind::Lbp, Input::Grid),
];

/// The jobs of one `offline-stored-compressed` repetition.
const STORED_JOBS: [(AlgorithmKind, Input); 3] = [
    (AlgorithmKind::Pr, Input::PowerLaw),
    (AlgorithmKind::Sssp, Input::PowerLaw),
    (AlgorithmKind::Cc, Input::PowerLaw),
];

struct Inputs {
    powerlaw: Workload,
    ratings: Option<Workload>,
    grid: Option<Workload>,
}

impl Inputs {
    fn get(&self, input: Input) -> &Workload {
        match input {
            Input::PowerLaw => &self.powerlaw,
            Input::Ratings => self
                .ratings
                .as_ref()
                .expect("ratings generated for this workload"),
            Input::Grid => self
                .grid
                .as_ref()
                .expect("grid generated for this workload"),
        }
    }
}

fn generate_plain(p: &OfflineParams, seed: u64) -> Inputs {
    Inputs {
        powerlaw: Workload::powerlaw(p.powerlaw_edges, p.alpha, seed),
        ratings: Some(Workload::ratings(p.ratings_edges, p.alpha, seed)),
        grid: Some(Workload::grid(p.grid_side, seed)),
    }
}

fn suite(cap: usize) -> SuiteConfig {
    SuiteConfig {
        exec: ExecutionConfig::with_max_iterations(cap),
        ..SuiteConfig::default()
    }
}

/// What a job must reproduce exactly, run after run.
#[derive(Debug, Clone, PartialEq)]
pub struct JobRef {
    /// Algorithm abbreviation.
    pub algorithm: String,
    /// FNV digest of the exact result bytes.
    pub digest: u64,
    /// Edge reads + messages over the whole run.
    pub traversals: u64,
    /// Iterations executed.
    pub iterations: usize,
    /// Whether it converged before its cap.
    pub converged: bool,
}

impl JobRef {
    fn from_run(alg: AlgorithmKind, digest: u64, trace: &RunTrace) -> JobRef {
        JobRef {
            algorithm: alg.abbrev().to_string(),
            digest,
            traversals: trace
                .iterations
                .iter()
                .map(|i| i.edge_reads + i.messages)
                .sum(),
            iterations: trace.num_iterations(),
            converged: trace.converged,
        }
    }

    fn to_json(&self) -> Value {
        json!({
            "algorithm": self.algorithm,
            "digest": format!("{:016x}", self.digest),
            "traversals": self.traversals,
            "iterations": self.iterations,
            "converged": self.converged,
        })
    }

    fn from_json(v: &Value) -> Option<JobRef> {
        Some(JobRef {
            algorithm: v["algorithm"].as_str()?.to_string(),
            digest: u64::from_str_radix(v["digest"].as_str()?, 16).ok()?,
            traversals: v["traversals"].as_u64()?,
            iterations: v["iterations"].as_u64()? as usize,
            converged: v["converged"].as_bool()?,
        })
    }
}

/// Timings and counts of one job.
#[derive(Debug, Clone, Default)]
struct JobSample {
    /// Latency the caller saw (for the first stored job: open + load + run).
    wall_s: f64,
    /// Time inside `run_algorithm_digest`.
    engine_s: f64,
    traversals: u64,
    gather_s: f64,
    scatter_s: f64,
    apply_cpu_s: f64,
    iterations: usize,
    pull_iterations: usize,
    sparse_iterations: usize,
}

#[derive(Debug, Clone, Default)]
struct RepSample {
    wall_s: f64,
    open_s: f64,
    load_s: f64,
    jobs: Vec<JobSample>,
}

fn run_job(
    alg: AlgorithmKind,
    workload: &Workload,
    cap: usize,
    tracer: &Tracer,
    parent: Option<u32>,
    rep: u64,
) -> (JobRef, JobSample) {
    let t0 = Instant::now();
    let (digest, trace) = tracer.span("engine", alg.abbrev(), parent, rep, |_| {
        run_algorithm_digest(alg, workload, &suite(cap))
            .expect("job list pairs each algorithm with its own workload class")
    });
    let engine_s = t0.elapsed().as_secs_f64();
    let sum_ns = |f: fn(&graphmine_engine::IterationStats) -> u64| {
        trace.iterations.iter().map(f).sum::<u64>() as f64 / 1e9
    };
    let reference = JobRef::from_run(alg, digest, &trace);
    let sample = JobSample {
        wall_s: engine_s,
        engine_s,
        traversals: reference.traversals,
        gather_s: sum_ns(|i| i.gather_ns),
        scatter_s: sum_ns(|i| i.scatter_ns),
        apply_cpu_s: sum_ns(|i| i.apply_ns),
        iterations: trace.num_iterations(),
        pull_iterations: trace
            .iterations
            .iter()
            .filter(|i| i.direction == DirectionChoice::Pull)
            .count(),
        sparse_iterations: trace.sparse_iterations(SPARSE_FRONTIER_THRESHOLD),
    };
    (reference, sample)
}

/// Where a repetition's inputs come from.
enum Source<'a> {
    /// Generated once, kept in memory.
    Plain(&'a Inputs),
    /// Opened and mmap-loaded from this store file every repetition.
    Stored(&'a Path),
}

fn run_rep(
    source: &Source<'_>,
    caps: &[usize; 5],
    tracer: &Tracer,
    rep: u64,
) -> (RepSample, Vec<JobRef>) {
    tracer.span("driver", "rep", None, rep, |span| {
        let t0 = Instant::now();
        let mut sample = RepSample::default();
        let mut refs = Vec::new();
        match source {
            Source::Plain(inputs) => {
                for (i, (alg, input)) in PLAIN_JOBS.iter().enumerate() {
                    let (r, s) = run_job(*alg, inputs.get(*input), caps[i], tracer, span, rep);
                    refs.push(r);
                    sample.jobs.push(s);
                }
            }
            Source::Stored(path) => {
                let stored = tracer.span("store", "open", span, rep, |_| {
                    StoredGraph::open(path).expect("set-up verified this store file")
                });
                sample.open_s = t0.elapsed().as_secs_f64();
                let workload = tracer.span("store", "load", span, rep, |_| {
                    load_workload(&stored).expect("set-up verified this store file")
                });
                let loaded_s = t0.elapsed().as_secs_f64();
                sample.load_s = loaded_s - sample.open_s;
                for (i, (alg, _)) in STORED_JOBS.iter().enumerate() {
                    let (r, mut s) = run_job(*alg, &workload, caps[i], tracer, span, rep);
                    if i == 0 {
                        // The first job is the one that waited for the load.
                        s.wall_s += loaded_s;
                    }
                    refs.push(r);
                    sample.jobs.push(s);
                }
            }
        }
        sample.wall_s = t0.elapsed().as_secs_f64();
        (sample, refs)
    })
}

/// Repeat until `seconds` have passed and at least `min_reps` repetitions
/// ran, checking every job against `reference`.
fn measure(
    source: &Source<'_>,
    p: &OfflineParams,
    tracer: &Tracer,
    seconds: f64,
    min_reps: usize,
    reference: &[JobRef],
    out: &mut Outcome,
) -> Vec<RepSample> {
    let start = Instant::now();
    let mut reps = Vec::new();
    while start.elapsed().as_secs_f64() < seconds || reps.len() < min_reps {
        let (sample, refs) = run_rep(source, &p.caps, tracer, reps.len() as u64);
        for (got, want) in refs.iter().zip(reference) {
            out.check(got == want, || {
                format!(
                    "rep {}: {} gave {:?}, first run gave {:?}",
                    reps.len(),
                    got.algorithm,
                    got,
                    want
                )
            });
        }
        reps.push(sample);
    }
    reps
}

/// Median over repetitions of a per-repetition quantity.
fn rep_median(reps: &[RepSample], f: impl Fn(&RepSample) -> f64) -> f64 {
    stats::median(&reps.iter().map(f).collect::<Vec<_>>())
}

fn end_to_end(reps: &[RepSample], out: &mut Outcome) {
    let latencies: Vec<f64> = reps
        .iter()
        .flat_map(|r| r.jobs.iter().map(|j| j.wall_s * 1e3))
        .collect();
    let window_s: f64 = reps.iter().map(|r| r.wall_s).sum();
    out.set("jobs_per_s", latencies.len() as f64 / window_s);
    out.set(
        "edges_per_s",
        rep_median(reps, |r| {
            r.jobs.iter().map(|j| j.traversals as f64).sum::<f64>()
                / r.jobs.iter().map(|j| j.engine_s).sum::<f64>()
        }),
    );
    out.set("job_latency_p50_ms", stats::percentile(&latencies, 50.0));
    out.set("job_latency_p95_ms", stats::percentile(&latencies, 95.0));
    out.details.insert(
        "samples".into(),
        json!({
            "repetitions": reps.len(),
            "jobs": latencies.len(),
            "beyond_p95": stats::samples_beyond(latencies.len(), 95.0),
            "window_s": window_s,
        }),
    );
}

fn layer_metrics(
    jobs: &[(AlgorithmKind, Input)],
    reps: &[RepSample],
    tracer: &Tracer,
    out: &mut Outcome,
) {
    const RATE_NAMES: [(&str, &str); 5] = [
        ("PR", "engine.pr.edges_per_s"),
        ("SSSP", "engine.sssp.edges_per_s"),
        ("CC", "engine.cc.edges_per_s"),
        ("ALS", "engine.als.edges_per_s"),
        ("LBP", "engine.lbp.edges_per_s"),
    ];
    for (i, (alg, _)) in jobs.iter().enumerate() {
        if let Some((_, name)) = RATE_NAMES.iter().find(|(a, _)| *a == alg.abbrev()) {
            out.set(
                name,
                rep_median(reps, |r| r.jobs[i].traversals as f64 / r.jobs[i].engine_s),
            );
        }
    }
    let per_rep = |f: fn(&JobSample) -> f64| rep_median(reps, |r| r.jobs.iter().map(f).sum());
    let engine_s = per_rep(|j| j.engine_s);
    let gather_s = per_rep(|j| j.gather_s);
    let scatter_s = per_rep(|j| j.scatter_s);
    let apply_cpu_s = per_rep(|j| j.apply_cpu_s);
    out.set("engine.gather_s", gather_s);
    out.set("engine.scatter_s", scatter_s);
    out.set("engine.apply_cpu_s", apply_cpu_s);
    // `apply_ns` sums per-vertex timers over all pool threads, so its wall
    // share is estimated as cpu ÷ threads; what is left of the engine's
    // wall is exchange, frontier advance and bookkeeping.
    let apply_wall_s = apply_cpu_s / rayon::current_num_threads() as f64;
    out.set(
        "engine.other_s",
        (engine_s - gather_s - scatter_s - apply_wall_s).max(0.0),
    );
    out.set("engine.iterations", per_rep(|j| j.iterations as f64));
    out.set("engine.edge_traversals", per_rep(|j| j.traversals as f64));
    out.set(
        "engine.pull_iterations",
        per_rep(|j| j.pull_iterations as f64),
    );
    out.set(
        "engine.sparse_iterations",
        per_rep(|j| j.sparse_iterations as f64),
    );
    out.set("driver.rep_makespan_s", rep_median(reps, |r| r.wall_s));
    out.set(
        "driver.samples",
        reps.iter().map(|r| r.jobs.len()).sum::<usize>() as f64,
    );
    out.set(
        "store.open_load_share",
        rep_median(reps, |r| (r.open_s + r.load_s) / r.wall_s),
    );
    // Engine self time as a share of all traced time, from the spans.
    let own = layer_self_times(&tracer.spans());
    let total: u64 = own.values().sum();
    if total > 0 {
        out.set(
            "engine.self_share",
            own.get("engine").copied().unwrap_or(0) as f64 / total as f64,
        );
    }
}

fn golden_for(scale: &str) -> Option<Vec<JobRef>> {
    let doc: Value = serde_json::from_str(GOLDEN).ok()?;
    doc[scale]
        .as_array()?
        .iter()
        .map(JobRef::from_json)
        .collect()
}

/// For the golden seed, every job of the first repetition must equal the
/// committed digest and counts.
fn check_golden(ctx: &Ctx, reference: &[JobRef], out: &mut Outcome) {
    if ctx.seed != GOLDEN_SEED {
        return;
    }
    let golden = golden_for(ctx.scale.name()).unwrap_or_default();
    for r in reference {
        let want = golden.iter().find(|g| g.algorithm == r.algorithm);
        out.check(want == Some(r), || {
            format!(
                "{}: {:?} differs from golden.json {:?}",
                r.algorithm, r, want
            )
        });
    }
}

/// Run each job once more under `variant` and require the same digest and
/// counts as the measured runs.
fn cross_check(
    label: &str,
    jobs: &[(AlgorithmKind, Input)],
    inputs: &Inputs,
    caps: &[usize; 5],
    reference: &[JobRef],
    out: &mut Outcome,
) {
    let quiet = Tracer::new(false);
    for (i, (alg, input)) in jobs.iter().enumerate() {
        let (got, _) = run_job(*alg, inputs.get(*input), caps[i], &quiet, None, 0);
        out.check(got == reference[i], || {
            format!(
                "{label}: {} gave {:?}, measured runs gave {:?}",
                got.algorithm, got, reference[i]
            )
        });
    }
}

/// Engine extras of a traced offline run: the 1-thread rate of PageRank,
/// the 2-thread scaling efficiency, and the cost and size of a checkpoint.
fn engine_probes(ctx: &Ctx, powerlaw: &Workload, cap: usize, out: &mut Outcome) {
    let quiet = Tracer::new(false);
    let rate = |s: &JobSample| s.traversals as f64 / s.engine_s;
    let two = (0..3)
        .map(|_| rate(&run_job(AlgorithmKind::Pr, powerlaw, cap, &quiet, None, 0).1))
        .fold(0.0, f64::max);
    let one_pool = rayon::ThreadPoolBuilder::new()
        .num_threads(1)
        .build()
        .expect("a 1-thread pool spawns no threads");
    let one = one_pool.install(|| {
        (0..3)
            .map(|_| rate(&run_job(AlgorithmKind::Pr, powerlaw, cap, &quiet, None, 0).1))
            .fold(0.0, f64::max)
    });
    out.set("engine.t1_edges_per_s", one);
    out.set(
        "engine.scaling_eff",
        two / (rayon::current_num_threads() as f64 * one),
    );

    // PageRank again, checkpointing every 5 iterations into a temp dir.
    // The engine deletes its checkpoints when the run ends, so a watcher
    // thread records the largest generation file it sees meanwhile.
    let dir = ctx.work.join("ckpt-probe");
    let _ = std::fs::create_dir_all(&dir);
    let ckpt_stats = std::sync::Arc::new(graphmine_engine::CheckpointStats::default());
    let policy =
        graphmine_engine::CheckpointPolicy::new(5, &dir, "probe").with_stats(ckpt_stats.clone());
    let config = SuiteConfig {
        exec: ExecutionConfig::with_max_iterations(cap).with_checkpoint(policy),
        ..SuiteConfig::default()
    };
    let done = std::sync::atomic::AtomicBool::new(false);
    let plain_s = run_job(AlgorithmKind::Pr, powerlaw, cap, &quiet, None, 0)
        .1
        .engine_s;
    let (ckpt_s, max_bytes) = std::thread::scope(|s| {
        let watcher = s.spawn(|| {
            let mut max_bytes = 0u64;
            // SeqCst: a plain stop flag between two threads.
            while !done.load(std::sync::atomic::Ordering::SeqCst) {
                if let Ok(entries) = std::fs::read_dir(&dir) {
                    for e in entries.flatten() {
                        let name = e.file_name().to_string_lossy().into_owned();
                        if name.contains(".ckpt.") && !name.contains(".tmp") {
                            max_bytes = max_bytes.max(e.metadata().map_or(0, |m| m.len()));
                        }
                    }
                }
                std::thread::sleep(std::time::Duration::from_millis(1));
            }
            max_bytes
        });
        let t0 = Instant::now();
        let _ = run_algorithm_digest(AlgorithmKind::Pr, powerlaw, &config);
        let ckpt_s = t0.elapsed().as_secs_f64();
        done.store(true, std::sync::atomic::Ordering::SeqCst);
        (
            ckpt_s,
            watcher
                .join()
                .expect("watcher only reads directory entries"),
        )
    });
    let written = ckpt_stats
        .written
        .load(std::sync::atomic::Ordering::Relaxed);
    if written > 0 {
        out.set(
            "engine.ckpt_write_ms",
            (ckpt_s - plain_s).max(0.0) * 1e3 / written as f64,
        );
    }
    out.set("engine.ckpt_bytes", max_bytes as f64);
    let _ = std::fs::remove_dir_all(&dir);
}

/// Split a traced window in two — spans off, then spans on — and report
/// the per-layer metrics of the traced half plus the overhead of tracing.
fn traced_window(
    ctx: &Ctx,
    source: &Source<'_>,
    jobs: &[(AlgorithmKind, Input)],
    p: &OfflineParams,
    reference: &[JobRef],
    out: &mut Outcome,
) -> Tracer {
    let half = ctx.seconds / 2.0;
    let min_reps = p.min_reps.div_ceil(2);
    let untraced = measure(
        source,
        p,
        &Tracer::new(false),
        half,
        min_reps,
        reference,
        out,
    );
    let tracer = Tracer::new(true);
    let traced = measure(source, p, &tracer, half, min_reps, reference, out);
    layer_metrics(jobs, &traced, &tracer, out);
    let base = rep_median(&untraced, |r| r.wall_s);
    if base > 0.0 {
        out.set(
            "driver.trace_overhead",
            rep_median(&traced, |r| r.wall_s) / base - 1.0,
        );
    }
    tracer
}

/// `offline-plain`.
pub fn run_plain(ctx: &Ctx) -> Outcome {
    let mut out = Outcome::default();
    let p = ctx.scale.offline();

    let mut setups = Vec::new();
    let mut inputs: Option<Inputs> = None;
    for _ in 0..ctx.scale.setup_repeats() {
        // Drop the previous inputs first: two live copies would double
        // the peak memory the run reports.
        drop(inputs.take());
        let t0 = Instant::now();
        inputs = Some(generate_plain(&p, ctx.seed));
        setups.push(t0.elapsed().as_secs_f64());
    }
    let inputs = inputs.expect("at least one set-up ran");
    out.set("setup_s", stats::median(&setups));

    // One discarded repetition: warms caches and fixes the reference.
    let source = Source::Plain(&inputs);
    let (_, reference) = run_rep(&source, &p.caps, &Tracer::new(false), 0);
    check_golden(ctx, &reference, &mut out);

    if ctx.traced {
        let tracer = traced_window(ctx, &source, &PLAIN_JOBS, &p, &reference, &mut out);
        engine_probes(ctx, &inputs.powerlaw, p.caps[0], &mut out);
        crate::probes::run_all(ctx, &mut out);
        let _ = tracer.write_json(&ctx.work.join("trace.json"));
    } else {
        let reps = measure(
            &source,
            &p,
            &Tracer::new(false),
            ctx.seconds,
            p.min_reps,
            &reference,
            &mut out,
        );
        end_to_end(&reps, &mut out);
    }

    // Plain = compressed = 1-thread pool, for whatever seed this is.
    let compressed = Inputs {
        powerlaw: inputs
            .powerlaw
            .with_representation(Representation::Compressed)
            .expect("generated graphs have sorted rows"),
        ratings: inputs.ratings.as_ref().map(|w| {
            w.with_representation(Representation::Compressed)
                .expect("sorted rows")
        }),
        grid: inputs.grid.as_ref().map(|w| {
            w.with_representation(Representation::Compressed)
                .expect("sorted rows")
        }),
    };
    cross_check(
        "compressed rows",
        &PLAIN_JOBS,
        &compressed,
        &p.caps,
        &reference,
        &mut out,
    );
    drop(compressed);
    let one_pool = rayon::ThreadPoolBuilder::new()
        .num_threads(1)
        .build()
        .expect("a 1-thread pool spawns no threads");
    one_pool.install(|| {
        cross_check(
            "1-thread pool",
            &PLAIN_JOBS,
            &inputs,
            &p.caps,
            &reference,
            &mut out,
        )
    });

    out.details.insert(
        "reference".into(),
        reference
            .iter()
            .map(JobRef::to_json)
            .collect::<Vec<_>>()
            .into(),
    );
    out.details.insert("params".into(), json!({
        "powerlaw_edges": p.powerlaw_edges, "ratings_edges": p.ratings_edges, "grid_side": p.grid_side,
        "alpha": p.alpha, "iteration_caps": p.caps.to_vec(), "min_reps": p.min_reps,
        "setup_repeats": ctx.scale.setup_repeats(),
    }));
    out
}

/// File the set-up child leaves next to the packed graph.
const REFERENCE_FILE: &str = "reference.json";
/// Name of the packed graph inside the set-up directory.
const GRAPH_FILE: &str = "powerlaw.gmg";

/// Set-up of `offline-stored-compressed`, run in a child process so that
/// the generator's and packer's memory never counts toward the measuring
/// process's peak: generate, run the plain reference, compress, pack,
/// re-open and verify. Writes the graph and `reference.json` into `dir`.
pub fn prepare_stored(scale: crate::spec::Scale, seed: u64, dir: &Path) -> Result<(), String> {
    let p = scale.offline();
    std::fs::create_dir_all(dir).map_err(|e| e.to_string())?;
    let t0 = Instant::now();
    let plain = Workload::powerlaw(p.powerlaw_edges, p.alpha, seed);
    let generate_s = t0.elapsed().as_secs_f64();
    let inputs = Inputs {
        powerlaw: plain,
        ratings: None,
        grid: None,
    };
    let quiet = Tracer::new(false);
    let reference: Vec<JobRef> = STORED_JOBS
        .iter()
        .enumerate()
        .map(|(i, (alg, input))| run_job(*alg, inputs.get(*input), p.caps[i], &quiet, None, 0).0)
        .collect();
    let t1 = Instant::now();
    let compressed = inputs
        .powerlaw
        .with_representation(Representation::Compressed)
        .map_err(|e| format!("compress: {e}"))?;
    let compress_s = t1.elapsed().as_secs_f64();
    let path = dir.join(GRAPH_FILE);
    let t2 = Instant::now();
    pack_workload(&path, &compressed, "benchmark:powerlaw", seed)
        .map_err(|e| format!("pack: {e}"))?;
    let pack_s = t2.elapsed().as_secs_f64();
    let t3 = Instant::now();
    StoredGraph::open(&path)
        .and_then(|s| s.verify())
        .map_err(|e| format!("verify: {e}"))?;
    let verify_s = t3.elapsed().as_secs_f64();
    let doc = json!({
        "reference": reference.iter().map(JobRef::to_json).collect::<Vec<_>>(),
        "phases_s": {"generate": generate_s, "compress": compress_s, "pack": pack_s, "verify": verify_s},
        "num_edges": inputs.powerlaw.graph().num_edges(),
    });
    std::fs::write(dir.join(REFERENCE_FILE), doc.to_string()).map_err(|e| e.to_string())
}

fn spawn_prepare(ctx: &Ctx, dir: &Path) -> Result<(), String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let status = Command::new(exe)
        .arg("prepare-stored")
        .args(["--seed", &ctx.seed.to_string()])
        .args(["--scale", ctx.scale.name()])
        .arg("--dir")
        .arg(dir)
        .status()
        .map_err(|e| format!("spawn set-up child: {e}"))?;
    if status.success() {
        Ok(())
    } else {
        Err(format!("set-up child exited with {status}"))
    }
}

/// `offline-stored-compressed`.
pub fn run_stored(ctx: &Ctx) -> Outcome {
    let mut out = Outcome::default();
    let p = ctx.scale.offline();
    let dir: PathBuf = ctx.work.join("stored");

    let mut setups = Vec::new();
    for _ in 0..ctx.scale.setup_repeats() {
        let _ = std::fs::remove_dir_all(&dir);
        let t0 = Instant::now();
        if let Err(e) = spawn_prepare(ctx, &dir) {
            out.fail(format!("set-up failed: {e}"));
            return out;
        }
        setups.push(t0.elapsed().as_secs_f64());
    }
    out.set("setup_s", stats::median(&setups));
    let doc: Value = std::fs::read_to_string(dir.join(REFERENCE_FILE))
        .ok()
        .and_then(|s| serde_json::from_str(&s).ok())
        .unwrap_or_default();
    let plain_reference: Vec<JobRef> = doc["reference"]
        .as_array()
        .map(|a| a.iter().filter_map(JobRef::from_json).collect())
        .unwrap_or_default();
    if plain_reference.len() != STORED_JOBS.len() {
        out.fail("set-up child left no usable reference.json".to_string());
        return out;
    }
    check_golden(ctx, &plain_reference, &mut out);

    // The reference is what the *plain* in-memory graph produced in the
    // child, so every measured job also proves mmap + compressed = plain.
    let path = dir.join(GRAPH_FILE);
    let source = Source::Stored(&path);
    let _ = run_rep(&source, &p.caps, &Tracer::new(false), 0);

    if ctx.traced {
        let tracer = traced_window(ctx, &source, &STORED_JOBS, &p, &plain_reference, &mut out);
        match StoredGraph::open(&path).and_then(|s| load_workload(&s)) {
            Ok(workload) => engine_probes(ctx, &workload, p.caps[0], &mut out),
            Err(e) => out.fail(format!("re-open for probes: {e}")),
        }
        crate::probes::run_all(ctx, &mut out);
        let _ = tracer.write_json(&ctx.work.join("trace.json"));
    } else {
        let reps = measure(
            &source,
            &p,
            &Tracer::new(false),
            ctx.seconds,
            p.min_reps,
            &plain_reference,
            &mut out,
        );
        end_to_end(&reps, &mut out);
    }

    out.details
        .insert("reference".into(), doc["reference"].clone());
    out.details
        .insert("setup_phases_s".into(), doc["phases_s"].clone());
    out.details.insert("params".into(), json!({
        "powerlaw_edges": p.powerlaw_edges, "alpha": p.alpha, "representation": "compressed",
        "iteration_caps": p.caps[..3].to_vec(), "min_reps": p.min_reps, "setup_repeats": ctx.scale.setup_repeats(),
        "store_file_bytes": std::fs::metadata(&path).map_or(0, |m| m.len()),
    }));
    out
}

/// The digests and counts `golden.json` holds for `scale`, recomputed.
pub fn compute_golden(scale: crate::spec::Scale) -> Value {
    let p = scale.offline();
    let inputs = generate_plain(&p, GOLDEN_SEED);
    let (_, reference) = run_rep(&Source::Plain(&inputs), &p.caps, &Tracer::new(false), 0);
    reference
        .iter()
        .map(JobRef::to_json)
        .collect::<Vec<_>>()
        .into()
}
