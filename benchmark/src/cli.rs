//! Command line: the driver form (`--workload … --seed … --seconds …
//! --trace …`), `run` (all workloads, one child process each), `compare`,
//! and the small helpers `spec`, `golden` and `prepare-stored`.

use crate::service::{Kind, Loop};
use crate::spec::{self, Scale};
use crate::{compare, host, offline, service, Ctx, Outcome};
use serde_json::{json, Map, Value};
use std::path::{Path, PathBuf};
use std::process::Command;

/// Length of the measured window `BENCHMARK.json` fixes.
pub const RUN_SECONDS: u64 = 20;

const USAGE: &str = "\
usage:
  benchmark --workload NAME --seed N --seconds S --trace 0|1 [--scale full|toy] [--out FILE] [--trace-out FILE]
            [--rate R]                        one run; the last stdout line is the result
  benchmark run (--all | --workload NAME) [--seed N] [--seconds S] [--repeat K] [--no-trace] [--scale S] [--out FILE]
                                              every workload in its own process, untraced then traced
  benchmark compare BASE.json NEW.json        table of end-to-end metrics; exit 1 on any `worse`
  benchmark spec                              print what BENCHMARK.json must contain
  benchmark golden                            recompute golden.json
workloads: offline-plain offline-stored-compressed service-hot service-open-mixed";

/// The document `BENCHMARK.json` must equal.
pub fn benchmark_json() -> Value {
    json!({
        "command": ["cargo", "run", "--release", "--offline", "--quiet", "--manifest-path", "benchmark/Cargo.toml", "--"],
        "paths": ["benchmark"],
        "run_seconds": RUN_SECONDS,
        "workloads": spec::WORKLOADS.iter().map(|w| json!({"name": w.name, "why": w.why})).collect::<Vec<_>>(),
        "end_to_end": spec::END_TO_END.iter().map(|m| json!({
            "name": m.name, "unit": m.unit, "better": m.better.as_str(), "bound": m.bound,
        })).collect::<Vec<_>>(),
        "per_layer": spec::PER_LAYER.iter().map(|m| json!({
            "name": m.name, "unit": m.unit, "better": m.better.as_str(),
        })).collect::<Vec<_>>(),
    })
}

/// Parsed `--key value` options plus bare words.
struct Args {
    words: Vec<String>,
    options: Map<String, Value>,
}

const FLAGS: [&str; 3] = ["--all", "--no-trace", "--help"];

fn parse(args: &[String]) -> Result<Args, String> {
    let mut words = Vec::new();
    let mut options = Map::new();
    let mut it = args.iter();
    while let Some(a) = it.next() {
        if FLAGS.contains(&a.as_str()) {
            options.insert(a.clone(), Value::Bool(true));
        } else if a.starts_with("--") {
            let v = it.next().ok_or_else(|| format!("{a} needs a value"))?;
            options.insert(a.clone(), Value::String(v.clone()));
        } else {
            words.push(a.clone());
        }
    }
    Ok(Args { words, options })
}

impl Args {
    fn text(&self, key: &str) -> Option<&str> {
        self.options.get(key).and_then(Value::as_str)
    }
    fn flag(&self, key: &str) -> bool {
        self.options.contains_key(key)
    }
    fn number<T: std::str::FromStr>(&self, key: &str, default: T) -> Result<T, String> {
        match self.text(key) {
            Some(s) => s.parse().map_err(|_| format!("{key}: cannot parse {s:?}")),
            None => Ok(default),
        }
    }
    fn scale(&self) -> Result<Scale, String> {
        match self.text("--scale") {
            None | Some("full") => Ok(Scale::Full),
            Some("toy") => Ok(Scale::Toy),
            Some(other) => Err(format!("--scale: unknown scale {other:?}")),
        }
    }
}

/// Scratch space lives next to the executable, i.e. inside the build
/// directory of the checkout the benchmark was started from.
fn work_root() -> Result<PathBuf, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    Ok(exe
        .parent()
        .ok_or("executable has no parent directory")?
        .join("bench-work"))
}

/// Removes the run's scratch directory however the run ends.
struct Scratch(PathBuf);

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

fn run_workload(ctx: &Ctx, how: Option<Loop>) -> Outcome {
    let mut out = match ctx.workload {
        "offline-plain" => offline::run_plain(ctx),
        "offline-stored-compressed" => offline::run_stored(ctx),
        "service-hot" => service::run(Kind::Hot, how, ctx),
        "service-open-mixed" => service::run(Kind::Mixed, how, ctx),
        other => unreachable!("workload {other} was validated against the spec"),
    };
    match host::peak_rss_mib() {
        Some(mib) => out.set("peak_rss_mb", mib),
        None => out.fail("cannot read VmHWM from /proc/self/status".to_string()),
    }
    out
}

/// The fixed environment of every measuring process: at least two cores,
/// a pinned allocator threshold, a pool of `pool_threads`.
fn fix_environment(pool_threads: usize) -> Result<(), String> {
    host::check_cores(host::logical_cores())?;
    host::pin_allocator();
    rayon::ThreadPoolBuilder::new()
        .num_threads(pool_threads)
        .build_global()
        .map_err(|e| format!("rayon pool: {e}"))
}

/// One run of one workload in this process.
fn single(args: &Args) -> Result<i32, String> {
    let name = args.text("--workload").ok_or("--workload is required")?;
    let workload = spec::WORKLOADS
        .iter()
        .find(|w| w.name == name)
        .ok_or_else(|| format!("unknown workload {name:?}"))?
        .name;
    let traced = match args.text("--trace") {
        None | Some("0") => false,
        Some("1") => true,
        Some(other) => return Err(format!("--trace takes 0 or 1, got {other:?}")),
    };
    let seconds: f64 = args.number("--seconds", RUN_SECONDS as f64)?;
    if !(seconds > 0.0 && seconds <= 3600.0) {
        return Err("--seconds must be positive".to_string());
    }
    // Calibration only: the open-loop mix at another arrival rate.
    let how = match args.text("--rate") {
        Some(_) => Some(Loop::Open(args.number("--rate", 0.0)?)),
        None => None,
    };
    fix_environment(if workload.starts_with("service-") {
        host::SERVICE_POOL_THREADS
    } else {
        host::POOL_THREADS
    })?;
    let seed: u64 = args.number("--seed", offline::GOLDEN_SEED)?;
    let work = work_root()?.join(format!("{}-{workload}", std::process::id()));
    std::fs::create_dir_all(&work).map_err(|e| format!("{}: {e}", work.display()))?;
    let _scratch = Scratch(work.clone());
    let ctx = Ctx {
        workload,
        seed,
        seconds,
        traced,
        scale: args.scale()?,
        work,
    };
    let out = run_workload(&ctx, how);
    let host = host::host_block(seed);
    let result = out.result_line(traced);
    eprintln!("host: {host}");
    for v in &out.violations {
        eprintln!("VIOLATION: {v}");
    }
    if let Some(path) = args.text("--trace-out") {
        if traced {
            let _ = std::fs::copy(ctx.work.join("trace.json"), path);
        }
    }
    if let Some(path) = args.text("--out") {
        let mut doc = result.as_object().cloned().unwrap_or_default();
        doc.insert("workload".into(), json!(workload));
        doc.insert("seed".into(), json!(seed));
        doc.insert("seconds".into(), json!(seconds));
        doc.insert("trace".into(), json!(traced));
        doc.insert("scale".into(), json!(ctx.scale.name()));
        doc.insert("host".into(), host);
        doc.insert("violations".into(), json!(out.violations));
        doc.insert("details".into(), Value::Object(out.details.clone()));
        std::fs::write(path, Value::Object(doc).to_string()).map_err(|e| format!("{path}: {e}"))?;
    }
    // The driver reads the last line of standard output.
    println!("{result}");
    Ok(0)
}

fn print_run(doc: &Value) {
    let metrics = doc["metrics"].as_object().cloned().unwrap_or_default();
    println!(
        "== {} seed {} trace {} — correct {} ({} attempted, {} failed)",
        doc["workload"].as_str().unwrap_or("?"),
        doc["seed"],
        doc["trace"],
        doc["correct"],
        doc["attempted"],
        doc["failed"]
    );
    for (name, m) in &metrics {
        println!(
            "  {:<40} {:>18.6} {}",
            name,
            m["value"].as_f64().unwrap_or(0.0),
            m["unit"].as_str().unwrap_or("")
        );
    }
}

/// Every requested workload in its own child process (so each has its own
/// peak memory), untraced and then traced, `--repeat` times with
/// consecutive seeds.
fn run_all(args: &Args) -> Result<i32, String> {
    let names: Vec<&str> = if args.flag("--all") {
        spec::WORKLOADS.iter().map(|w| w.name).collect()
    } else {
        vec![args
            .text("--workload")
            .ok_or("run needs --all or --workload NAME")?]
    };
    host::check_cores(host::logical_cores())?;
    let seed: u64 = args.number("--seed", offline::GOLDEN_SEED)?;
    let repeat: u64 = args.number("--repeat", 1)?;
    let seconds = args
        .text("--seconds")
        .map_or_else(|| RUN_SECONDS.to_string(), str::to_string);
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let scratch = work_root()?.join(format!("{}-run", std::process::id()));
    std::fs::create_dir_all(&scratch).map_err(|e| e.to_string())?;
    let _scratch = Scratch(scratch.clone());
    let out_path = args.text("--out").map(PathBuf::from);
    let mut runs = Vec::new();
    let mut all_correct = true;
    for name in names {
        for round in 0..repeat {
            for traced in [false, true] {
                if traced && args.flag("--no-trace") {
                    continue;
                }
                let file = scratch.join("result.json");
                let mut cmd = Command::new(&exe);
                cmd.args(["--workload", name, "--seconds", &seconds])
                    .args(["--seed", &(seed + round).to_string()])
                    .args(["--trace", if traced { "1" } else { "0" }])
                    .args(["--scale", args.text("--scale").unwrap_or("full")])
                    .arg("--out")
                    .arg(&file)
                    .stdout(std::process::Stdio::null());
                if let (true, Some(out)) = (traced, &out_path) {
                    cmd.arg("--trace-out")
                        .arg(out.with_file_name(format!("trace-{name}.json")));
                }
                let status = cmd.status().map_err(|e| format!("spawn {name}: {e}"))?;
                let doc: Value = std::fs::read_to_string(&file)
                    .ok()
                    .and_then(|s| serde_json::from_str(&s).ok())
                    .unwrap_or_default();
                let _ = std::fs::remove_file(&file);
                if !status.success() || doc["correct"] != true {
                    all_correct = false;
                    eprintln!(
                        "{name} (trace {traced}): exit {status}, correct {}",
                        doc["correct"]
                    );
                }
                print_run(&doc);
                runs.push(doc);
            }
        }
    }
    if let Some(path) = out_path {
        let doc = json!({
            "claim": null,
            "host": host::host_block(seed),
            "benchmark": benchmark_json(),
            "runs": runs,
        });
        std::fs::write(&path, doc.to_string()).map_err(|e| format!("{}: {e}", path.display()))?;
    }
    Ok(if all_correct { 0 } else { 1 })
}

fn read_json(path: &str) -> Result<Value, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    serde_json::from_str(&text).map_err(|e| format!("{path}: {e}"))
}

fn compare_files(args: &Args) -> Result<i32, String> {
    let [_, base, new] = args.words.as_slice() else {
        return Err("compare takes two result files".to_string());
    };
    let rows = compare::compare(&read_json(base)?, &read_json(new)?);
    if rows.is_empty() {
        return Err("the two files share no workload with end-to-end metrics".to_string());
    }
    print!("{}", compare::render(&rows));
    let worse = rows
        .iter()
        .filter(|r| r.verdict == compare::Verdict::Worse)
        .count();
    Ok(if worse > 0 { 1 } else { 0 })
}

fn prepare_stored(args: &Args) -> Result<i32, String> {
    let dir = args.text("--dir").ok_or("prepare-stored needs --dir")?;
    fix_environment(host::POOL_THREADS)?;
    offline::prepare_stored(
        args.scale()?,
        args.number("--seed", offline::GOLDEN_SEED)?,
        Path::new(dir),
    )?;
    Ok(0)
}

/// Entry point; returns the process exit code.
pub fn main(args: &[String]) -> i32 {
    let result = parse(args).and_then(|args| {
        if args.flag("--help") {
            println!("{USAGE}");
            return Ok(0);
        }
        match args.words.first().map(String::as_str) {
            None => single(&args),
            Some("run") => run_all(&args),
            Some("compare") => compare_files(&args),
            Some("prepare-stored") => prepare_stored(&args),
            Some("spec") => {
                println!("{:#}", benchmark_json());
                Ok(0)
            }
            Some("golden") => {
                fix_environment(host::POOL_THREADS)?;
                let doc = json!({
                    "full": offline::compute_golden(Scale::Full),
                    "toy": offline::compute_golden(Scale::Toy),
                });
                println!("{doc:#}");
                Ok(0)
            }
            Some(other) => Err(format!("unknown command {other:?}\n{USAGE}")),
        }
    });
    match result {
        Ok(code) => code,
        Err(msg) => {
            eprintln!("benchmark: {msg}");
            2
        }
    }
}
