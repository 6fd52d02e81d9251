//! `graphmine` — the CLI for reproducing the HPDC'15 behavior study.
//!
//! ```text
//! graphmine run     [--profile quick|default|full] [--db PATH]
//!                   [--reorder] [--representation plain|compressed]
//! graphmine <fig>   [--profile ...] [--db PATH] [--work ops|wall]
//! graphmine all     [--profile ...] [--db PATH] [--work ops|wall]
//! graphmine predict [--profile ...] [--db PATH]
//! graphmine analyze --input EDGELIST [--db PATH]
//! graphmine export  [--profile ...] [--db PATH]   # run rows as CSV
//! graphmine cluster                                # partition/remote-comm study
//! graphmine plot    [--db PATH] [--out DIR]        # SVG figures
//! graphmine serve   [--addr HOST:PORT] [--workers N] [--cache-mb MB] [--db PATH]
//!                   [--retry-budget N] [--max-queue-depth N] [--spill-dir DIR]
//!                   [--graph-dir DIR] [--shards N] [--tenants-file PATH]
//! graphmine graph   pack|inspect|verify ...          # binary store files
//! graphmine list
//! ```
//!
//! `<fig>` is any of `table2`, `fig1`–`fig23`, `table3`. Figures are
//! rendered from the cached run database (created on demand). `predict`
//! fits the §7 runtime model; `analyze` measures the behavior of a
//! user-supplied edge list and places it next to the study's runs.

mod graph_cli;

use graphmine_core::WorkMetric;
use graphmine_graph::Representation;
use graphmine_harness::{
    analyze_edge_list_file, export_runs_csv, render_cluster, render_correlations, render_figure,
    render_predict, run_or_load, run_or_load_with, write_plots, MatrixOptions, ScaleProfile,
    FIGURE_IDS,
};
use std::path::PathBuf;
use std::process::ExitCode;

struct Args {
    command: String,
    profile: ScaleProfile,
    db: PathBuf,
    work: WorkMetric,
    input: Option<PathBuf>,
    out: PathBuf,
    addr: String,
    workers: usize,
    cache_mb: u64,
    retry_budget: u32,
    max_queue_depth: usize,
    spill_dir: Option<PathBuf>,
    graph_dir: Option<PathBuf>,
    reorder: bool,
    representation: Representation,
    shards: usize,
    tenants_file: Option<PathBuf>,
}

fn parse_args() -> Result<Args, String> {
    let mut args = std::env::args().skip(1);
    let command = args.next().ok_or_else(usage)?;
    let mut profile = ScaleProfile::Default;
    let mut db = PathBuf::from("runs.json");
    let mut work = WorkMetric::WallNanos;
    let mut input: Option<PathBuf> = None;
    let mut out = PathBuf::from("plots");
    let mut addr = String::from("127.0.0.1:7745");
    let mut workers = 4usize;
    let mut cache_mb = 256u64;
    let mut retry_budget = 2u32;
    let mut max_queue_depth = 0usize;
    let mut spill_dir: Option<PathBuf> = None;
    let mut graph_dir: Option<PathBuf> = None;
    let mut reorder = false;
    let mut representation = Representation::Plain;
    let mut shards = 0usize;
    let mut tenants_file: Option<PathBuf> = None;
    while let Some(flag) = args.next() {
        match flag.as_str() {
            "--profile" => {
                let v = args.next().ok_or("--profile needs a value")?;
                profile = ScaleProfile::parse(&v)
                    .ok_or_else(|| format!("unknown profile `{v}` (quick|default|full)"))?;
            }
            "--db" => {
                db = PathBuf::from(args.next().ok_or("--db needs a value")?);
            }
            "--input" => {
                input = Some(PathBuf::from(args.next().ok_or("--input needs a value")?));
            }
            "--out" => {
                out = PathBuf::from(args.next().ok_or("--out needs a value")?);
            }
            "--work" => {
                let v = args.next().ok_or("--work needs a value")?;
                work = match v.as_str() {
                    "wall" => WorkMetric::WallNanos,
                    "ops" => WorkMetric::LogicalOps,
                    _ => return Err(format!("unknown work metric `{v}` (wall|ops)")),
                };
            }
            "--addr" => {
                addr = args.next().ok_or("--addr needs a value")?;
            }
            "--workers" => {
                let v = args.next().ok_or("--workers needs a value")?;
                workers = v
                    .parse()
                    .map_err(|_| format!("unparseable worker count `{v}`"))?;
                if workers == 0 {
                    return Err("--workers must be at least 1".to_string());
                }
            }
            "--cache-mb" => {
                let v = args.next().ok_or("--cache-mb needs a value")?;
                cache_mb = v
                    .parse()
                    .map_err(|_| format!("unparseable cache budget `{v}`"))?;
            }
            "--retry-budget" => {
                let v = args.next().ok_or("--retry-budget needs a value")?;
                retry_budget = v
                    .parse()
                    .map_err(|_| format!("unparseable retry budget `{v}`"))?;
            }
            "--max-queue-depth" => {
                let v = args.next().ok_or("--max-queue-depth needs a value")?;
                max_queue_depth = v
                    .parse()
                    .map_err(|_| format!("unparseable queue depth `{v}` (0 = unbounded)"))?;
            }
            "--spill-dir" => {
                spill_dir = Some(PathBuf::from(
                    args.next().ok_or("--spill-dir needs a value")?,
                ));
            }
            "--graph-dir" => {
                graph_dir = Some(PathBuf::from(
                    args.next().ok_or("--graph-dir needs a value")?,
                ));
            }
            "--reorder" => {
                reorder = true;
            }
            "--representation" => {
                let v = args.next().ok_or("--representation needs a value")?;
                representation = v.parse::<Representation>()?;
            }
            "--shards" => {
                let v = args.next().ok_or("--shards needs a value")?;
                shards = v
                    .parse()
                    .map_err(|_| format!("unparseable shard count `{v}` (0 = unsharded)"))?;
            }
            "--tenants-file" => {
                tenants_file = Some(PathBuf::from(
                    args.next().ok_or("--tenants-file needs a value")?,
                ));
            }
            other => return Err(format!("unknown flag `{other}`")),
        }
    }
    Ok(Args {
        command,
        profile,
        db,
        work,
        input,
        out,
        addr,
        workers,
        cache_mb,
        retry_budget,
        max_queue_depth,
        spill_dir,
        graph_dir,
        reorder,
        representation,
        shards,
        tenants_file,
    })
}

fn usage() -> String {
    format!(
        "usage: graphmine <command> [--profile quick|default|full] [--db PATH] [--work wall|ops] [--input EDGELIST]\n\
         \x20      graphmine run   [--profile ...] [--db PATH] [--reorder] [--representation plain|compressed]\n\
         \x20      graphmine serve [--addr HOST:PORT] [--workers N] [--cache-mb MB] [--db PATH]\n\
         \x20                      [--retry-budget N] [--max-queue-depth N] [--spill-dir DIR]\n\
         \x20                      [--graph-dir DIR] [--shards N] [--tenants-file PATH]\n\
         \x20      graphmine graph pack|inspect|verify ...\n\
         commands: run, all, list, predict, analyze, export, cluster, correlations, plot, serve, graph, {}",
        FIGURE_IDS.join(", ")
    )
}

fn main() -> ExitCode {
    // `graph` has its own flag set; dispatch before the shared parser.
    let mut raw = std::env::args().skip(1);
    if raw.next().as_deref() == Some("graph") {
        return graph_cli::main(raw);
    }
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}\n{}", usage());
            return ExitCode::FAILURE;
        }
    };
    match args.command.as_str() {
        "list" => {
            println!("{}", FIGURE_IDS.join("\n"));
            ExitCode::SUCCESS
        }
        "run" => match run_or_load_with(
            args.profile,
            MatrixOptions {
                reorder: args.reorder,
                representation: args.representation,
            },
            &args.db,
            |line| eprintln!("{line}"),
        ) {
            Ok(db) => {
                println!(
                    "run database ready: {} runs cached at {}",
                    db.len(),
                    args.db.display()
                );
                ExitCode::SUCCESS
            }
            Err(e) => {
                eprintln!("failed to run matrix: {e}");
                ExitCode::FAILURE
            }
        },
        "all" => {
            let db = match run_or_load(args.profile, &args.db, |line| eprintln!("{line}")) {
                Ok(db) => db,
                Err(e) => {
                    eprintln!("failed to load run database: {e}");
                    return ExitCode::FAILURE;
                }
            };
            for id in FIGURE_IDS {
                match render_figure(id, &db, args.profile, args.work) {
                    Some(out) => println!("{out}"),
                    None => eprintln!("(internal) figure {id} did not render"),
                }
            }
            ExitCode::SUCCESS
        }
        "plot" => {
            let db = match run_or_load(args.profile, &args.db, |line| eprintln!("{line}")) {
                Ok(db) => db,
                Err(e) => {
                    eprintln!("failed to load run database: {e}");
                    return ExitCode::FAILURE;
                }
            };
            match write_plots(&db, args.profile, args.work, &args.out) {
                Ok(files) => {
                    for f in files {
                        println!("{}", args.out.join(f).display());
                    }
                    ExitCode::SUCCESS
                }
                Err(e) => {
                    eprintln!("failed to write plots: {e}");
                    ExitCode::FAILURE
                }
            }
        }
        "correlations" => {
            let db = match run_or_load(args.profile, &args.db, |line| eprintln!("{line}")) {
                Ok(db) => db,
                Err(e) => {
                    eprintln!("failed to load run database: {e}");
                    return ExitCode::FAILURE;
                }
            };
            println!("{}", render_correlations(&db));
            ExitCode::SUCCESS
        }
        "cluster" => {
            println!("{}", render_cluster(100_000, 2.5, 7));
            ExitCode::SUCCESS
        }
        "serve" => {
            // A tenants file switches the server into multi-tenant mode:
            // keyed submissions, per-tenant quotas, DRR fair queueing.
            let tenants = match &args.tenants_file {
                Some(path) => match graphmine_shard::TenantRegistry::load(path) {
                    Ok(registry) => Some(registry.iter().cloned().collect::<Vec<_>>()),
                    Err(e) => {
                        eprintln!("failed to load tenants from {}: {e}", path.display());
                        return ExitCode::FAILURE;
                    }
                },
                None => None,
            };
            let tenant_count = tenants.as_ref().map(Vec::len);
            let config = graphmine_service::ServiceConfig {
                addr: args.addr.clone(),
                workers: args.workers,
                db_path: Some(args.db.clone()),
                cache_bytes: args.cache_mb * 1024 * 1024,
                retry_budget: args.retry_budget,
                max_queue_depth: args.max_queue_depth,
                spill_dir: args.spill_dir.clone(),
                graph_dir: args.graph_dir.clone(),
                shards: args.shards,
                tenants,
                ..graphmine_service::ServiceConfig::default()
            };
            match graphmine_service::Server::start(config) {
                Ok(handle) => {
                    println!(
                        "graphmine-service listening on {} ({} workers, {} MiB graph cache, db {})",
                        handle.addr(),
                        args.workers,
                        args.cache_mb,
                        args.db.display()
                    );
                    if let Some(n) = tenant_count {
                        println!(
                            "multi-tenant mode: {n} tenants, DRR fair queueing{}",
                            if args.shards > 0 {
                                format!(", {} engine shards", args.shards)
                            } else {
                                String::new()
                            }
                        );
                    }
                    println!("POST /shutdown to drain and exit");
                    match handle.wait() {
                        Ok(()) => ExitCode::SUCCESS,
                        Err(e) => {
                            eprintln!("failed to persist run database: {e}");
                            ExitCode::FAILURE
                        }
                    }
                }
                Err(e) => {
                    eprintln!("failed to start server on {}: {e}", args.addr);
                    ExitCode::FAILURE
                }
            }
        }
        "export" => {
            let db = match run_or_load(args.profile, &args.db, |line| eprintln!("{line}")) {
                Ok(db) => db,
                Err(e) => {
                    eprintln!("failed to load run database: {e}");
                    return ExitCode::FAILURE;
                }
            };
            print!("{}", export_runs_csv(&db));
            ExitCode::SUCCESS
        }
        "predict" => {
            let db = match run_or_load(args.profile, &args.db, |line| eprintln!("{line}")) {
                Ok(db) => db,
                Err(e) => {
                    eprintln!("failed to load run database: {e}");
                    return ExitCode::FAILURE;
                }
            };
            match render_predict(&db) {
                Ok(out) => {
                    println!("{out}");
                    ExitCode::SUCCESS
                }
                Err(e) => {
                    eprintln!("{e}");
                    ExitCode::FAILURE
                }
            }
        }
        "analyze" => {
            let Some(input) = args.input.as_deref() else {
                eprintln!("analyze requires --input EDGELIST");
                return ExitCode::FAILURE;
            };
            // The reference DB is optional: use it only when cached.
            let db = args
                .db
                .exists()
                .then(|| graphmine_core::RunDb::load(&args.db))
                .transpose()
                .unwrap_or_else(|e| {
                    eprintln!("warning: could not load {}: {e}", args.db.display());
                    None
                });
            match analyze_edge_list_file(input, db.as_ref(), 200) {
                Ok(out) => {
                    println!("{out}");
                    ExitCode::SUCCESS
                }
                Err(e) => {
                    eprintln!("{e}");
                    ExitCode::FAILURE
                }
            }
        }
        fig if FIGURE_IDS.contains(&fig) => {
            let db = match run_or_load(args.profile, &args.db, |line| eprintln!("{line}")) {
                Ok(db) => db,
                Err(e) => {
                    eprintln!("failed to load run database: {e}");
                    return ExitCode::FAILURE;
                }
            };
            match render_figure(fig, &db, args.profile, args.work) {
                Some(out) => {
                    println!("{out}");
                    ExitCode::SUCCESS
                }
                None => {
                    eprintln!("figure {fig} did not render");
                    ExitCode::FAILURE
                }
            }
        }
        other => {
            eprintln!("unknown command `{other}`\n{}", usage());
            ExitCode::FAILURE
        }
    }
}
