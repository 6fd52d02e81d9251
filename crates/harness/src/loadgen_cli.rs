//! `graphmine loadgen` — CLI front-end for `graphmine-loadgen`.
//!
//! Drives a running `graphmine-service` (or spawns an in-process one with
//! `--spawn`) through an open- or closed-loop load run, a rate sweep, or
//! a p99-SLO max-throughput search, and emits a text table plus optional
//! machine-readable JSON.

use graphmine_loadgen::{
    find_max_sustainable, run, sweep_table, ArrivalProcess, JobMix, LoadReport, Mode, RunConfig,
    SloConfig, TenantLoad,
};
use graphmine_shard::TenantSpec;
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Duration;

struct LoadgenArgs {
    addr: String,
    spawn: bool,
    workers: usize,
    mode: String,
    process: ArrivalProcess,
    rate: f64,
    clients: usize,
    think: Duration,
    duration: Duration,
    seed: u64,
    size: u64,
    hot_ratio: f64,
    algorithm: Option<String>,
    graph: Option<String>,
    graph_dir: Option<PathBuf>,
    representation: Option<String>,
    max_retries: u32,
    concurrency: usize,
    sweep: Option<Vec<f64>>,
    slo_p99_ms: Option<f64>,
    max_probes: usize,
    json: Option<PathBuf>,
    fail_on_errors: bool,
    tenants: usize,
    tenants_file: Option<PathBuf>,
    noisy_factor: u32,
    tenant_quota: usize,
}

fn usage() -> String {
    "usage: graphmine loadgen [--addr HOST:PORT | --spawn [--workers N]]\n\
     \x20      [--mode open|closed] [--process poisson|uniform] [--rate R]\n\
     \x20      [--clients N] [--think-ms MS] [--duration 5s] [--seed N]\n\
     \x20      [--size N] [--hot-ratio F] [--algorithm ABBREV]\n\
     \x20      [--graph NAME] [--graph-dir DIR] [--representation plain|compressed]\n\
     \x20      [--max-retries N] [--concurrency N] [--sweep R1,R2,...]\n\
     \x20      [--tenants N [--noisy-factor F] [--tenant-quota Q] | --tenants-file PATH]\n\
     \x20      [--slo-p99-ms MS [--max-probes N]] [--json PATH] [--fail-on-errors]"
        .to_string()
}

/// Parse `"5s"`, `"250ms"`, `"2m"`, or a bare number of seconds.
fn parse_duration(s: &str) -> Result<Duration, String> {
    let parsed = if let Some(ms) = s.strip_suffix("ms") {
        ms.parse().ok().map(Duration::from_millis)
    } else if let Some(sec) = s.strip_suffix('s') {
        sec.parse().ok().map(Duration::from_secs_f64)
    } else if let Some(min) = s.strip_suffix('m') {
        min.parse()
            .ok()
            .map(|m: f64| Duration::from_secs_f64(m * 60.0))
    } else {
        s.parse().ok().map(Duration::from_secs_f64)
    };
    parsed.ok_or_else(|| format!("unparseable duration `{s}`"))
}

fn parse(mut args: impl Iterator<Item = String>) -> Result<LoadgenArgs, String> {
    let mut out = LoadgenArgs {
        addr: "127.0.0.1:7745".to_string(),
        spawn: false,
        workers: 4,
        mode: "open".to_string(),
        process: ArrivalProcess::Poisson,
        rate: 20.0,
        clients: 4,
        think: Duration::ZERO,
        duration: Duration::from_secs(10),
        seed: 42,
        size: 300,
        hot_ratio: 0.9,
        algorithm: None,
        graph: None,
        graph_dir: None,
        representation: None,
        max_retries: 3,
        concurrency: 16,
        sweep: None,
        slo_p99_ms: None,
        max_probes: 12,
        json: None,
        fail_on_errors: false,
        tenants: 0,
        tenants_file: None,
        noisy_factor: 1,
        tenant_quota: 0,
    };
    while let Some(flag) = args.next() {
        let mut value = |name: &str| args.next().ok_or_else(|| format!("{name} needs a value"));
        match flag.as_str() {
            "--addr" => out.addr = value("--addr")?,
            "--spawn" => out.spawn = true,
            "--workers" => {
                out.workers = value("--workers")?
                    .parse()
                    .map_err(|_| "unparseable --workers")?;
            }
            "--mode" => {
                out.mode = value("--mode")?;
                if out.mode != "open" && out.mode != "closed" {
                    return Err(format!("unknown mode `{}` (open|closed)", out.mode));
                }
            }
            "--process" => out.process = ArrivalProcess::parse(&value("--process")?)?,
            "--rate" => {
                out.rate = value("--rate")?.parse().map_err(|_| "unparseable --rate")?;
                if out.rate.is_nan() || out.rate <= 0.0 {
                    return Err("--rate must be positive".to_string());
                }
            }
            "--clients" => {
                out.clients = value("--clients")?
                    .parse()
                    .map_err(|_| "unparseable --clients")?;
            }
            "--think-ms" => {
                out.think = Duration::from_millis(
                    value("--think-ms")?
                        .parse()
                        .map_err(|_| "unparseable --think-ms")?,
                );
            }
            "--duration" => out.duration = parse_duration(&value("--duration")?)?,
            "--seed" => {
                out.seed = value("--seed")?.parse().map_err(|_| "unparseable --seed")?;
            }
            "--size" => {
                out.size = value("--size")?.parse().map_err(|_| "unparseable --size")?;
            }
            "--hot-ratio" => {
                out.hot_ratio = value("--hot-ratio")?
                    .parse()
                    .map_err(|_| "unparseable --hot-ratio")?;
            }
            "--algorithm" => out.algorithm = Some(value("--algorithm")?),
            "--graph" => out.graph = Some(value("--graph")?),
            "--graph-dir" => out.graph_dir = Some(PathBuf::from(value("--graph-dir")?)),
            "--representation" => {
                let v = value("--representation")?;
                v.parse::<graphmine_graph::Representation>()?;
                out.representation = Some(v);
            }
            "--max-retries" => {
                out.max_retries = value("--max-retries")?
                    .parse()
                    .map_err(|_| "unparseable --max-retries")?;
            }
            "--concurrency" => {
                out.concurrency = value("--concurrency")?
                    .parse()
                    .map_err(|_| "unparseable --concurrency")?;
            }
            "--sweep" => {
                let rates: Result<Vec<f64>, _> = value("--sweep")?
                    .split(',')
                    .map(|r| r.trim().parse::<f64>())
                    .collect();
                let rates = rates.map_err(|_| "unparseable --sweep rate list")?;
                if rates.is_empty() || rates.iter().any(|&r| r.is_nan() || r <= 0.0) {
                    return Err("--sweep needs positive comma-separated rates".to_string());
                }
                out.sweep = Some(rates);
            }
            "--slo-p99-ms" => {
                out.slo_p99_ms = Some(
                    value("--slo-p99-ms")?
                        .parse()
                        .map_err(|_| "unparseable --slo-p99-ms")?,
                );
            }
            "--max-probes" => {
                out.max_probes = value("--max-probes")?
                    .parse()
                    .map_err(|_| "unparseable --max-probes")?;
            }
            "--json" => out.json = Some(PathBuf::from(value("--json")?)),
            "--fail-on-errors" => out.fail_on_errors = true,
            "--tenants" => {
                out.tenants = value("--tenants")?
                    .parse()
                    .map_err(|_| "unparseable --tenants")?;
            }
            "--tenants-file" => out.tenants_file = Some(PathBuf::from(value("--tenants-file")?)),
            "--noisy-factor" => {
                out.noisy_factor = value("--noisy-factor")?
                    .parse()
                    .map_err(|_| "unparseable --noisy-factor")?;
                if out.noisy_factor == 0 {
                    return Err("--noisy-factor must be at least 1".to_string());
                }
            }
            "--tenant-quota" => {
                out.tenant_quota = value("--tenant-quota")?
                    .parse()
                    .map_err(|_| "unparseable --tenant-quota")?;
            }
            other => return Err(format!("unknown loadgen flag `{other}`")),
        }
    }
    Ok(out)
}

/// The tenant population, from `--tenants-file` or derived from
/// `--tenants N` (the same derivation the spawned server uses, so keys
/// line up without a file handoff). `None` when single-tenant.
fn tenant_specs(args: &LoadgenArgs) -> Result<Option<Vec<TenantSpec>>, String> {
    if let Some(path) = &args.tenants_file {
        let registry = graphmine_shard::TenantRegistry::load(path)
            .map_err(|e| format!("failed to load tenants from {}: {e}", path.display()))?;
        return Ok(Some(registry.iter().cloned().collect()));
    }
    if args.tenants == 0 {
        return Ok(None);
    }
    let specs = (0..args.tenants)
        .map(|i| {
            let spec = TenantSpec::derived(i);
            if args.tenant_quota > 0 {
                spec.with_max_queued(args.tenant_quota)
            } else {
                spec
            }
        })
        .collect();
    Ok(Some(specs))
}

/// Traffic assignment per tenant: tenant 0 is the (optionally) noisy one
/// offering `--noisy-factor` times everyone else's share.
fn tenant_loads(args: &LoadgenArgs) -> Result<Vec<TenantLoad>, String> {
    let Some(specs) = tenant_specs(args)? else {
        return Ok(Vec::new());
    };
    Ok(specs
        .iter()
        .enumerate()
        .map(|(i, s)| {
            let share = if i == 0 { args.noisy_factor } else { 1 };
            TenantLoad::new(&s.id, &s.key).with_share(share)
        })
        .collect())
}

fn base_config(args: &LoadgenArgs, addr: &str) -> RunConfig {
    let mut mix = match &args.algorithm {
        Some(algo) => JobMix::single(algo, args.size, args.hot_ratio >= 0.5),
        None => JobMix::suite(args.size, args.hot_ratio),
    };
    if let Some(graph) = &args.graph {
        mix = mix.with_graph(graph);
    }
    if let Some(representation) = &args.representation {
        mix = mix.with_representation(representation);
    }
    let mode = if args.mode == "closed" {
        Mode::Closed {
            clients: args.clients,
            think: args.think,
        }
    } else {
        Mode::Open {
            rate_per_s: args.rate,
            process: args.process,
        }
    };
    RunConfig {
        addr: addr.to_string(),
        mode,
        duration: args.duration,
        seed: args.seed,
        mix,
        max_retries: args.max_retries,
        concurrency: args.concurrency,
        job_timeout: Duration::from_secs(30),
        tenants: Vec::new(),
    }
}

/// Errors that should fail a `--fail-on-errors` run: everything except
/// clean completions. Shed requests count — a smoke test that sheds is
/// overdriving its target — and so does any tenant-stamp mismatch, which
/// is cross-tenant leakage.
fn error_count(r: &LoadReport) -> u64 {
    r.counts.failed + r.counts.transport_errors + r.counts.shed + r.tenant_mismatches
}

fn write_json(path: &PathBuf, value: &serde_json::Value) -> Result<(), String> {
    std::fs::write(path, format!("{value:#}\n"))
        .map_err(|e| format!("failed to write {}: {e}", path.display()))
}

/// Entry point for `graphmine loadgen <flags>`.
pub fn main(args: impl Iterator<Item = String>) -> ExitCode {
    let args = match parse(args) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}\n{}", usage());
            return ExitCode::FAILURE;
        }
    };

    // Spawn an in-process server on an ephemeral port when asked. A
    // multi-tenant run hands the spawned server the same derived specs
    // the generator will submit with.
    let tenants = match tenant_specs(&args) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::FAILURE;
        }
    };
    let mut spawned = None;
    let addr = if args.spawn {
        let config = graphmine_service::ServiceConfig {
            addr: "127.0.0.1:0".to_string(),
            workers: args.workers,
            persist_every: 0,
            graph_dir: args.graph_dir.clone(),
            tenants: tenants.clone(),
            ..graphmine_service::ServiceConfig::default()
        };
        match graphmine_service::Server::start(config) {
            Ok(handle) => {
                let addr = handle.addr().to_string();
                eprintln!("spawned in-process server on {addr}");
                spawned = Some(handle);
                addr
            }
            Err(e) => {
                eprintln!("failed to spawn server: {e}");
                return ExitCode::FAILURE;
            }
        }
    } else {
        args.addr.clone()
    };

    let outcome = drive(&args, &addr);

    if let Some(handle) = spawned {
        let mut stopper = graphmine_service::Client::new(&addr);
        if let Err(e) = stopper.request("POST", "/shutdown", None) {
            eprintln!("failed to stop spawned server: {e}");
        }
        if let Err(e) = handle.wait() {
            eprintln!("spawned server exited uncleanly: {e}");
        }
    }

    match outcome {
        Ok(code) => code,
        Err(e) => {
            eprintln!("loadgen failed: {e}");
            ExitCode::FAILURE
        }
    }
}

fn drive(args: &LoadgenArgs, addr: &str) -> Result<ExitCode, String> {
    let base = base_config(args, addr).with_tenants(tenant_loads(args)?);

    // SLO search mode.
    if let Some(limit_ms) = args.slo_p99_ms {
        let slo = SloConfig {
            p99_limit_ms: limit_ms,
            initial_rate: args.rate,
            max_probes: args.max_probes,
            ..SloConfig::default()
        };
        let result = find_max_sustainable(&base, &slo).map_err(|e| e.to_string())?;
        for p in &result.probes {
            println!(
                "probe rate={:.1}/s seed={} p99={:.2}ms achieved={:.1}/s shed={} -> {}",
                p.rate_per_s,
                p.seed,
                p.p99_ms,
                p.achieved_rate_per_s,
                p.shed,
                if p.pass { "pass" } else { "FAIL" }
            );
        }
        println!(
            "max sustainable rate under p99<={:.1}ms: {:.1}/s (converged: {})",
            result.p99_limit_ms, result.max_sustainable_rate_per_s, result.converged
        );
        if let Some(path) = &args.json {
            write_json(path, &result.to_json())?;
        }
        return Ok(ExitCode::SUCCESS);
    }

    // Throughput-vs-offered-load sweep.
    if let Some(rates) = &args.sweep {
        let mut reports = Vec::new();
        for (i, &rate) in rates.iter().enumerate() {
            let mut cfg = base.clone();
            cfg.mode = Mode::Open {
                rate_per_s: rate,
                process: args.process,
            };
            // One deterministic sub-seed per sweep point.
            cfg.seed = args.seed.wrapping_add(i as u64);
            let result = run(&cfg).map_err(|e| e.to_string())?;
            reports.push(LoadReport::build(&cfg, &result));
        }
        print!("{}", sweep_table(&reports));
        let errors: u64 = reports.iter().map(error_count).sum();
        if let Some(path) = &args.json {
            let v = serde_json::Value::Array(reports.iter().map(|r| r.to_json()).collect());
            write_json(path, &v)?;
        }
        if args.fail_on_errors && errors > 0 {
            eprintln!("loadgen: {errors} errored requests across sweep");
            return Ok(ExitCode::FAILURE);
        }
        return Ok(ExitCode::SUCCESS);
    }

    // Single run.
    let result = run(&base).map_err(|e| e.to_string())?;
    let report = LoadReport::build(&base, &result);
    print!("{}", report.text_table());
    if let Some(path) = &args.json {
        write_json(path, &report.to_json())?;
    }
    if args.fail_on_errors && error_count(&report) > 0 {
        eprintln!(
            "loadgen: {} errored requests (failed={} transport={} shed={} tenant_mismatches={})",
            error_count(&report),
            report.counts.failed,
            report.counts.transport_errors,
            report.counts.shed,
            report.tenant_mismatches
        );
        return Ok(ExitCode::FAILURE);
    }
    Ok(ExitCode::SUCCESS)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse_ok(flags: &[&str]) -> LoadgenArgs {
        parse(flags.iter().map(|s| s.to_string())).expect("flags parse")
    }

    #[test]
    fn duration_suffixes_parse() {
        assert_eq!(parse_duration("250ms").unwrap(), Duration::from_millis(250));
        assert_eq!(parse_duration("2s").unwrap(), Duration::from_secs(2));
        assert_eq!(parse_duration("1.5m").unwrap(), Duration::from_secs(90));
        assert_eq!(parse_duration("3").unwrap(), Duration::from_secs(3));
        // The integer and the float parses both name the input on failure.
        for input in ["x", "xms", "1.5ms", "x.s"] {
            let err = parse_duration(input).unwrap_err();
            assert!(err.contains(&format!("`{input}`")), "{err}");
        }
    }

    #[test]
    fn defaults_and_overrides() {
        let a = parse_ok(&[]);
        assert_eq!(a.mode, "open");
        assert_eq!(a.seed, 42);
        assert!(!a.fail_on_errors);
        let b = parse_ok(&[
            "--mode",
            "closed",
            "--clients",
            "8",
            "--think-ms",
            "5",
            "--duration",
            "2s",
            "--seed",
            "7",
            "--fail-on-errors",
        ]);
        assert_eq!(b.mode, "closed");
        assert_eq!(b.clients, 8);
        assert_eq!(b.think, Duration::from_millis(5));
        assert_eq!(b.duration, Duration::from_secs(2));
        assert_eq!(b.seed, 7);
        assert!(b.fail_on_errors);
    }

    #[test]
    fn sweep_and_slo_flags_parse() {
        let a = parse_ok(&["--sweep", "5,10,20", "--slo-p99-ms", "50"]);
        assert_eq!(a.sweep.as_deref(), Some(&[5.0, 10.0, 20.0][..]));
        assert_eq!(a.slo_p99_ms, Some(50.0));
        assert!(parse(["--sweep".to_string(), "0,5".to_string()].into_iter()).is_err());
        assert!(parse(["--rate".to_string(), "-1".to_string()].into_iter()).is_err());
        assert!(parse(["--bogus".to_string()].into_iter()).is_err());
    }

    #[test]
    fn graph_flag_retargets_the_mix_at_a_stored_graph() {
        let a = parse_ok(&["--graph", "twitter", "--graph-dir", "/tmp/graphs"]);
        assert_eq!(a.graph.as_deref(), Some("twitter"));
        assert_eq!(
            a.graph_dir.as_deref(),
            Some(std::path::Path::new("/tmp/graphs"))
        );
        let cfg = base_config(&a, "127.0.0.1:9");
        assert!(cfg
            .mix
            .classes()
            .iter()
            .all(|c| c.graph.as_deref() == Some("twitter")));
    }

    #[test]
    fn tenant_flags_derive_a_weighted_population() {
        let a = parse_ok(&[
            "--tenants",
            "4",
            "--noisy-factor",
            "8",
            "--tenant-quota",
            "16",
        ]);
        let specs = tenant_specs(&a).unwrap().expect("multi-tenant");
        assert_eq!(specs.len(), 4);
        assert!(specs.iter().all(|s| s.max_queued == 16));
        // The derivation matches what a spawned server would register.
        assert_eq!(specs[2], TenantSpec::derived(2).with_max_queued(16));
        let loads = tenant_loads(&a).unwrap();
        assert_eq!(loads.len(), 4);
        assert_eq!(loads[0].share, 8, "tenant-0 is the noisy one");
        assert!(loads[1..].iter().all(|t| t.share == 1));
        assert_eq!(loads[1].id, "tenant-1");
        assert_eq!(loads[1].key, TenantSpec::derived(1).key);
        // Single-tenant default: no specs, no loads, bad factor rejected.
        let plain = parse_ok(&[]);
        assert!(tenant_specs(&plain).unwrap().is_none());
        assert!(tenant_loads(&plain).unwrap().is_empty());
        assert!(parse(["--noisy-factor".to_string(), "0".to_string()].into_iter()).is_err());
    }

    #[test]
    fn base_config_respects_mode_and_mix() {
        let a = parse_ok(&["--algorithm", "PR", "--size", "123", "--hot-ratio", "1.0"]);
        let cfg = base_config(&a, "127.0.0.1:9");
        assert_eq!(cfg.mix.classes().len(), 1);
        assert_eq!(cfg.mix.classes()[0].algorithm, "PR");
        assert!(cfg.mix.classes()[0].hot);
        assert!(matches!(cfg.mode, Mode::Open { .. }));
        let b = parse_ok(&["--mode", "closed"]);
        let cfg = base_config(&b, "127.0.0.1:9");
        assert!(matches!(cfg.mode, Mode::Closed { .. }));
        assert_eq!(cfg.mix.classes().len(), 28);
    }
}
