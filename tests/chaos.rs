//! Chaos suite: deterministic fault injection and simulated process
//! death against the full service stack. The invariants under test:
//!
//! 1. **No job is lost** — every accepted job reaches a terminal state,
//!    across panics, injected I/O faults, and kill-and-restart cycles.
//! 2. **No checkpoint or crash corrupts the run database** — it parses
//!    after every scenario, and journal replay reconstructs any finished
//!    records a crash kept out of it.
//! 3. **Resume is exact** — a job recovered from an engine checkpoint
//!    after a crash produces the same iteration count, logical-ops
//!    behavior, and active-fraction trace as an unfaulted run (wall-clock
//!    is the only legitimate difference).

use graphmine_core::RunDb;
use graphmine_engine::{FaultKind, FaultPlan, FaultSite};
use graphmine_service::{client, Server, ServerHandle, ServiceConfig};
use serde_json::{json, Value};
use std::path::PathBuf;
use std::sync::Arc;
use std::time::{Duration, Instant};

const WAIT: Duration = Duration::from_secs(120);

fn temp_db(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join("graphmine_chaos_tests");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join(format!("{}_{}.json", name, std::process::id()));
    let _ = std::fs::remove_file(&path);
    let _ = std::fs::remove_file(PathBuf::from(format!("{}.journal", path.display())));
    let _ = std::fs::remove_dir_all(PathBuf::from(format!("{}.ckpts", path.display())));
    path
}

fn config(db_path: Option<PathBuf>, workers: usize) -> ServiceConfig {
    ServiceConfig {
        addr: "127.0.0.1:0".to_string(),
        workers,
        http_workers: 4,
        db_path,
        cache_bytes: 64 * 1024 * 1024,
        default_timeout_ms: 120_000,
        persist_every: 1,
        retry_backoff_ms: 5,
        ..ServiceConfig::default()
    }
}

fn start_with(config: ServiceConfig) -> (String, ServerHandle) {
    let handle = Server::start(config).expect("server failed to start");
    (handle.addr().to_string(), handle)
}

fn submit(addr: &str, body: Value) -> u64 {
    let (status, response) = client::request(addr, "POST", "/jobs", Some(&body)).unwrap();
    assert_eq!(status, 202, "submission rejected: {response}");
    response["id"].as_u64().unwrap()
}

fn shutdown(addr: &str, handle: ServerHandle) {
    let (status, _) = client::request(addr, "POST", "/shutdown", None).unwrap();
    assert_eq!(status, 200);
    handle.wait().unwrap();
}

fn metrics(addr: &str) -> Value {
    let (status, m) = client::request(addr, "GET", "/metrics", None).unwrap();
    assert_eq!(status, 200);
    m
}

/// Terminal-state accounting: every submitted job is exactly one of
/// done/failed/cancelled/timed_out once the queue is empty.
fn assert_no_job_lost(m: &Value) {
    let jobs = &m["jobs"];
    let submitted = jobs["submitted"].as_u64().unwrap();
    let terminal = jobs["done"].as_u64().unwrap()
        + jobs["failed"].as_u64().unwrap()
        + jobs["cancelled"].as_u64().unwrap()
        + jobs["timed_out"].as_u64().unwrap();
    assert_eq!(submitted, terminal, "accepted jobs unaccounted for: {jobs}");
}

#[test]
fn kill_and_restart_loses_no_accepted_job() {
    let db_path = temp_db("kill_restart");

    // One worker: the first job occupies it, the rest sit in the queue
    // when the "process" dies.
    let (addr, handle) = start_with(config(Some(db_path.clone()), 1));
    submit(
        &addr,
        json!({"algorithm": "PR", "size": 100_000, "seed": 1, "max_iterations": 60}),
    );
    for seed in 0..4u64 {
        submit(
            &addr,
            json!({"algorithm": "CC", "size": 1500, "seed": seed, "profile": "quick"}),
        );
    }
    handle.simulate_crash().unwrap();

    // Restart on the same database: journal replay must re-enqueue all 5
    // (none reached a terminal state before the crash).
    let (addr, handle) = start_with(config(Some(db_path.clone()), 2));
    let m = metrics(&addr);
    assert_eq!(
        m["robustness"]["jobs_recovered"], 5,
        "journal replay missed jobs: {m}"
    );
    let (_, jobs) = client::request(&addr, "GET", "/jobs", None).unwrap();
    assert_eq!(jobs["count"], 5);
    for job in jobs["jobs"].as_array().unwrap() {
        let id = job["id"].as_u64().unwrap();
        let terminal = client::wait_for_job(&addr, id, WAIT).unwrap();
        assert_eq!(terminal["state"], "done", "recovered job {id}: {terminal}");
    }
    assert_no_job_lost(&metrics(&addr));
    shutdown(&addr, handle);

    let db = RunDb::load(&db_path).unwrap();
    assert_eq!(db.len(), 5, "all recovered jobs must land in the database");
}

#[test]
fn journal_replay_restores_records_lost_to_a_persist_fault() {
    let db_path = temp_db("persist_fault");

    // Fail the only database save this run will attempt; the journal's
    // Finished record becomes the sole durable copy.
    let plan = Arc::new(FaultPlan::new());
    plan.arm(FaultSite::DbPersist, 1, FaultKind::IoError);
    let mut cfg = config(Some(db_path.clone()), 1);
    cfg.fault_plan = Some(Arc::clone(&plan));
    let (addr, handle) = start_with(cfg);
    let id = submit(
        &addr,
        json!({"algorithm": "PR", "size": 1000, "seed": 7, "profile": "quick"}),
    );
    let done = client::wait_for_job(&addr, id, WAIT).unwrap();
    assert_eq!(done["state"], "done", "{done}");
    assert_eq!(plan.fired(), 1, "the persist fault must have fired");
    // Crash without the final shutdown save: the database file never saw
    // this run.
    handle.simulate_crash().unwrap();
    assert!(
        !db_path.exists(),
        "the faulted persist should have left no database file"
    );

    let (addr, handle) = start_with(config(Some(db_path.clone()), 1));
    let m = metrics(&addr);
    assert_eq!(
        m["db_runs"], 1,
        "journal replay must restore the record: {m}"
    );
    assert_eq!(m["robustness"]["jobs_recovered"], 0);
    shutdown(&addr, handle);
    let db = RunDb::load(&db_path).unwrap();
    assert_eq!(db.len(), 1);
    assert_eq!(db.runs[0].algorithm, "PR");
}

#[test]
fn finished_runs_survive_a_second_crash_after_journal_compaction() {
    let db_path = temp_db("two_generations");
    // No periodic save: between restarts the journal is the only durable
    // copy of a finished run.
    let cfg = || ServiceConfig {
        persist_every: 0,
        ..config(Some(db_path.clone()), 1)
    };
    let finish = |addr: &str, seeds: std::ops::Range<u64>| {
        for seed in seeds {
            let id = submit(
                addr,
                json!({"algorithm": "CC", "size": 1000, "seed": seed, "profile": "quick"}),
            );
            let terminal = client::wait_for_job(addr, id, WAIT).unwrap();
            assert_eq!(terminal["state"], "done", "{terminal}");
        }
    };

    // Generation 1: three runs, then the process dies.
    let (addr, handle) = start_with(cfg());
    finish(&addr, 0..3);
    handle.simulate_crash().unwrap();

    // Generation 2: recovery restores the three, saves them and compacts
    // the journal; FEWER runs than before finish, then it dies again. The
    // journal now holds two finished records against a database of three,
    // so counting them would conclude nothing is missing.
    let (addr, handle) = start_with(cfg());
    assert_eq!(metrics(&addr)["db_runs"], 3);
    finish(&addr, 3..5);
    handle.simulate_crash().unwrap();

    // Generation 3: every run is present once, in order.
    let (addr, handle) = start_with(cfg());
    assert_eq!(metrics(&addr)["db_runs"], 5);
    shutdown(&addr, handle);
    let db = RunDb::load(&db_path).unwrap();
    let seeds: Vec<u64> = db.runs.iter().map(|r| r.seed).collect();
    assert_eq!(seeds, vec![0, 1, 2, 3, 4]);
}

#[test]
fn injected_panic_is_retried_to_success() {
    let plan = Arc::new(FaultPlan::new());
    // Job id 0 panics on its first attempt; one-shot disarm lets the
    // retry through.
    plan.arm(FaultSite::JobStart, 0, FaultKind::Panic);
    let mut cfg = config(None, 1);
    cfg.fault_plan = Some(Arc::clone(&plan));
    let (addr, handle) = start_with(cfg);
    let id = submit(
        &addr,
        json!({"algorithm": "CC", "size": 1000, "seed": 3, "profile": "quick"}),
    );
    let terminal = client::wait_for_job(&addr, id, WAIT).unwrap();
    assert_eq!(terminal["state"], "done", "{terminal}");
    assert_eq!(terminal["attempt"], 2, "exactly one retry expected");
    let m = metrics(&addr);
    assert_eq!(m["robustness"]["retries"], 1);
    assert_eq!(m["robustness"]["panics_quarantined"], 0);
    assert_no_job_lost(&m);
    shutdown(&addr, handle);
}

#[test]
fn exhausted_retry_budget_quarantines_the_job() {
    let plan = Arc::new(FaultPlan::new());
    plan.arm(FaultSite::JobStart, 0, FaultKind::Panic);
    let mut cfg = config(None, 1);
    cfg.retry_budget = 0; // no second chances
    cfg.fault_plan = Some(Arc::clone(&plan));
    let (addr, handle) = start_with(cfg);
    let id = submit(
        &addr,
        json!({"algorithm": "CC", "size": 1000, "seed": 3, "profile": "quick"}),
    );
    let terminal = client::wait_for_job(&addr, id, WAIT).unwrap();
    assert_eq!(terminal["state"], "failed", "{terminal}");
    assert!(
        terminal["error"].as_str().unwrap().contains("quarantined"),
        "{terminal}"
    );
    let m = metrics(&addr);
    assert_eq!(m["robustness"]["panics_quarantined"], 1);
    assert_eq!(m["robustness"]["retries"], 0);
    assert_no_job_lost(&m);
    shutdown(&addr, handle);
}

#[test]
fn checkpointed_job_resumes_across_crash_with_identical_behavior() {
    let request = json!({
        "algorithm": "PR",
        "size": 100_000,
        "seed": 5,
        "max_iterations": 50,
        "checkpoint_every": 2,
    });

    // Reference: the same request on an unfaulted server.
    let clean_db = temp_db("resume_clean");
    let (addr, handle) = start_with(config(Some(clean_db.clone()), 1));
    let id = submit(&addr, request.clone());
    let done = client::wait_for_job(&addr, id, WAIT).unwrap();
    assert_eq!(done["state"], "done", "{done}");
    shutdown(&addr, handle);
    let clean = RunDb::load(&clean_db).unwrap();
    assert_eq!(clean.len(), 1);

    // Faulted path: crash the server once the engine has checkpointed.
    let db_path = temp_db("resume_crash");
    let (addr, handle) = start_with(config(Some(db_path.clone()), 1));
    submit(&addr, request);
    let deadline = Instant::now() + WAIT;
    loop {
        let m = metrics(&addr);
        if m["robustness"]["checkpoints"]["written"].as_u64().unwrap() >= 1 {
            break;
        }
        if m["jobs"]["done"].as_u64().unwrap() >= 1 {
            panic!("job finished before any checkpoint was written; enlarge the workload");
        }
        assert!(Instant::now() < deadline, "no checkpoint appeared in time");
        std::thread::sleep(Duration::from_millis(5));
    }
    handle.simulate_crash().unwrap();

    let (addr, handle) = start_with(config(Some(db_path.clone()), 1));
    let m = metrics(&addr);
    assert_eq!(m["robustness"]["jobs_recovered"], 1, "{m}");
    let terminal = client::wait_for_job(&addr, 0, WAIT).unwrap();
    assert_eq!(terminal["state"], "done", "{terminal}");
    let m = metrics(&addr);
    assert!(
        m["robustness"]["checkpoints"]["restored"].as_u64().unwrap() >= 1,
        "the recovered job should resume from its checkpoint: {m}"
    );
    shutdown(&addr, handle);

    // Exactness: iterations, logical-ops behavior, and the per-iteration
    // active-fraction trace all match the unfaulted run bitwise. Only
    // wall-clock measurements may differ.
    let crashed = RunDb::load(&db_path).unwrap();
    assert_eq!(crashed.len(), 1);
    let (a, b) = (&clean.runs[0], &crashed.runs[0]);
    assert_eq!(a.iterations, b.iterations);
    assert_eq!(a.converged, b.converged);
    assert_eq!(a.num_vertices, b.num_vertices);
    assert_eq!(a.num_edges, b.num_edges);
    assert_eq!(a.active_fraction, b.active_fraction);
    assert_eq!(a.behavior_ops, b.behavior_ops, "resume must be exact");
}

// ---------------------------------------------------------------------------
// Storage storms: every durable write/read goes through the I/O shim, and a
// seeded storm of byte-level storage faults (torn writes, short reads,
// ENOSPC, failed fsync, silent bit flips, stale renames) must leave the
// service bitwise-identical to a fault-free run — every fault either
// recovered by the self-healing machinery or surfaced as a typed error.
// ---------------------------------------------------------------------------

/// Deterministic edge list for the storage-storm scenarios: a 600-vertex
/// ring plus two chord families — big enough to split across several
/// ingest chunks, small enough to run in milliseconds.
fn storm_edge_list() -> String {
    let n = 600u32;
    let mut s = String::new();
    for v in 0..n {
        s.push_str(&format!("{} {}\n", v, (v + 1) % n));
        s.push_str(&format!("{} {}\n", v, (v * 7 + 3) % n));
        s.push_str(&format!("{} {}\n", v, (v * 13 + 5) % n));
    }
    s
}

/// Split `edges` into `parts` chunks on line boundaries.
fn chunked(edges: &str, parts: usize) -> Vec<Vec<u8>> {
    let lines: Vec<&str> = edges.lines().collect();
    let per = lines.len().div_ceil(parts);
    lines
        .chunks(per)
        .map(|c| (c.join("\n") + "\n").into_bytes())
        .collect()
}

/// Upload `edges` as stored graph `name`, riding out injected storage
/// faults. Typed chunk and finalize failures are retried — the on-disk
/// session resumes and truncates torn appends, so re-uploads land at the
/// last acknowledged boundary. A finalize that *succeeds* with the wrong
/// fingerprint (a silent bit flip in a chunk append) is caught by the
/// end-to-end check against `expect_fp`, discarded, and re-ingested; a
/// spool corrupted beyond parsing fails finalize twice and is likewise
/// discarded. Returns the installed fingerprint.
fn ingest_stored_graph(addr: &str, name: &str, edges: &str, expect_fp: Option<&str>) -> String {
    let mut c = client::Client::new(addr);
    let chunks = chunked(edges, 3);
    let mut finalize_failures = 0u32;
    for _ in 0..60 {
        let (status, body) = c
            .request("POST", "/graphs", Some(&json!({"name": name})))
            .unwrap();
        assert!(
            status == 200 || status == 201,
            "ingest begin for `{name}`: {status} {body}"
        );
        let mut next = body["next_seq"].as_u64().unwrap();
        let mut chunk_failed = false;
        while (next as usize) < chunks.len() {
            let r = c
                .send_raw(
                    "POST",
                    &format!("/graphs/{name}/chunks?seq={next}"),
                    &chunks[next as usize],
                )
                .unwrap();
            if r.status != 200 {
                chunk_failed = true;
                break;
            }
            next = r.body["next_seq"].as_u64().unwrap();
        }
        if chunk_failed {
            finalize_failures = 0;
            continue;
        }
        let (status, entry) = c
            .request("POST", &format!("/graphs/{name}/finalize"), None)
            .unwrap();
        if status != 201 {
            // Transient (injected pack fault) or permanent (corrupted
            // spool): retry once, then discard the session and re-upload.
            finalize_failures += 1;
            if finalize_failures >= 2 {
                let (s, _) = c
                    .request("DELETE", &format!("/graphs/{name}"), None)
                    .unwrap();
                assert_eq!(s, 200);
                finalize_failures = 0;
            }
            continue;
        }
        let fp = entry["fingerprint"].as_str().unwrap().to_string();
        match expect_fp {
            Some(want) if want != fp => {
                // Installed, verified... and wrong: a bit flip slipped into
                // a chunk append below the store's checksums. The client's
                // content check is the last line of defense.
                let (s, _) = c
                    .request("DELETE", &format!("/graphs/{name}"), None)
                    .unwrap();
                assert_eq!(s, 200);
            }
            _ => return fp,
        }
    }
    panic!("ingest of `{name}` did not converge under the fault storm");
}

struct StormOutcome {
    fingerprint: String,
    runs: Vec<graphmine_core::RunRecord>,
    fired: u64,
}

/// Ingest the storm graph, run a fixed four-job mix (two on the stored
/// graph, two generated, all checkpointing), and return the sorted run
/// records plus how many injected faults fired.
fn run_storm_scenario(
    tag: &str,
    edges: &str,
    plan: Option<Arc<FaultPlan>>,
    expect_fp: Option<&str>,
) -> StormOutcome {
    let db_path = temp_db(tag);
    let graph_dir = PathBuf::from(format!("{}.graphs", db_path.display()));
    let _ = std::fs::remove_dir_all(&graph_dir);
    let mut cfg = config(Some(db_path.clone()), 2);
    cfg.graph_dir = Some(graph_dir.clone());
    cfg.fault_plan = plan.clone();
    let (addr, handle) = start_with(cfg);

    let fingerprint = ingest_stored_graph(&addr, "storm", edges, expect_fp);
    let jobs = [
        json!({"algorithm": "PR", "graph": "storm", "seed": 1, "profile": "quick", "checkpoint_every": 2}),
        json!({"algorithm": "CC", "graph": "storm", "seed": 2, "profile": "quick", "checkpoint_every": 2}),
        json!({"algorithm": "PR", "size": 1200, "seed": 3, "profile": "quick", "checkpoint_every": 2}),
        json!({"algorithm": "CC", "size": 1500, "seed": 4, "profile": "quick", "checkpoint_every": 3}),
    ];
    let ids: Vec<u64> = jobs.iter().map(|j| submit(&addr, j.clone())).collect();
    for id in ids {
        let terminal = client::wait_for_job(&addr, id, WAIT).unwrap();
        assert_eq!(terminal["state"], "done", "{tag}: job {id}: {terminal}");
    }
    let m = metrics(&addr);
    assert_no_job_lost(&m);
    shutdown(&addr, handle);

    let db = RunDb::load(&db_path).unwrap();
    let mut runs = db.runs;
    runs.sort_by_key(|r| (r.algorithm.clone(), r.num_vertices, r.seed));
    let _ = std::fs::remove_dir_all(&graph_dir);
    StormOutcome {
        fingerprint,
        runs,
        fired: plan.map(|p| p.fired()).unwrap_or(0),
    }
}

#[test]
fn seeded_storage_storms_yield_bitwise_identical_results() {
    let edges = storm_edge_list();
    let clean = run_storm_scenario("storage_clean", &edges, None, None);
    assert_eq!(clean.runs.len(), 4);

    // Seeds chosen so the storms collectively hit all six storage sites
    // and all six fault kinds, including silent bit flips on ingest chunk
    // appends (seed 303) and on database persists (seeds 202, 404).
    for seed in [202u64, 303, 404] {
        let plan = Arc::new(FaultPlan::seeded_storage(seed, 8, 12));
        let storm = run_storm_scenario(
            &format!("storage_storm_{seed}"),
            &edges,
            Some(Arc::clone(&plan)),
            Some(&clean.fingerprint),
        );
        assert!(
            storm.fired >= 4,
            "seed {seed}: the storm fired only {} faults",
            storm.fired
        );
        // The stored graph that survived the storm is the one the clean
        // run built, and every job's results are bitwise-identical: no
        // injected fault escaped detection or recovery.
        assert_eq!(storm.fingerprint, clean.fingerprint, "seed {seed}");
        assert_eq!(storm.runs.len(), clean.runs.len(), "seed {seed}");
        for (a, b) in clean.runs.iter().zip(&storm.runs) {
            assert_eq!(a.algorithm, b.algorithm, "seed {seed}");
            assert_eq!(a.seed, b.seed, "seed {seed}");
            assert_eq!(a.iterations, b.iterations, "seed {seed} {}", a.algorithm);
            assert_eq!(a.converged, b.converged, "seed {seed} {}", a.algorithm);
            assert_eq!(a.num_vertices, b.num_vertices, "seed {seed}");
            assert_eq!(a.num_edges, b.num_edges, "seed {seed}");
            assert_eq!(
                a.active_fraction, b.active_fraction,
                "seed {seed} {}: active-fraction trace diverged",
                a.algorithm
            );
            assert_eq!(
                a.behavior_ops, b.behavior_ops,
                "seed {seed} {}: behavior diverged under storage faults",
                a.algorithm
            );
        }
    }
}

#[test]
fn scrub_quarantined_graph_is_refused_with_4xx_not_a_crash() {
    use graphmine_algos::Workload;
    use graphmine_engine::IoShim;
    use graphmine_store::{pack_workload, scrub_catalog, Catalog, StoredGraph};
    use std::io::{Seek, SeekFrom, Write};

    let dir =
        std::env::temp_dir().join(format!("graphmine_chaos_quarantine_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let catalog = Catalog::open(dir.clone()).unwrap();
    let w = Workload::powerlaw(300, 2.0, 11);
    let path = catalog.dir().join("fragile.gmg");
    pack_workload(&path, &w, "synthetic:powerlaw", 11).unwrap();

    // Flip one bit in the middle of a payload section. With no registered
    // edge-list source, the scrub must quarantine rather than re-pack.
    let sec = {
        let stored = StoredGraph::open(&path).unwrap();
        let s = stored.sections().iter().max_by_key(|s| s.offset).unwrap();
        (s.offset, s.len_bytes)
    };
    let at = sec.0 + sec.1 / 2;
    let byte = std::fs::read(&path).unwrap()[at as usize] ^ 0x08;
    let mut f = std::fs::OpenOptions::new().write(true).open(&path).unwrap();
    f.seek(SeekFrom::Start(at)).unwrap();
    f.write_all(&[byte]).unwrap();
    drop(f);

    let report = scrub_catalog(&catalog, &IoShim::disabled()).unwrap();
    assert_eq!(report.quarantined(), 1, "{:?}", report.entries);
    assert!(!path.exists());
    assert!(path.with_file_name("fragile.gmg.corrupt").exists());

    // The service now refuses the graph with a 4xx instead of crashing or
    // serving corrupt bytes — and stays healthy for other work.
    let mut cfg = config(None, 1);
    cfg.graph_dir = Some(dir.clone());
    let (addr, handle) = start_with(cfg);
    let (status, body) = client::request(
        &addr,
        "POST",
        "/jobs",
        Some(&json!({"algorithm": "PR", "graph": "fragile"})),
    )
    .unwrap();
    assert_eq!(status, 404, "{body}");
    let id = submit(
        &addr,
        json!({"algorithm": "CC", "size": 800, "seed": 1, "profile": "quick"}),
    );
    let done = client::wait_for_job(&addr, id, WAIT).unwrap();
    assert_eq!(done["state"], "done", "{done}");
    shutdown(&addr, handle);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn seeded_fault_storms_never_lose_jobs_or_corrupt_the_db() {
    for seed in [11u64, 23, 47] {
        let db_path = temp_db(&format!("storm_{seed}"));
        let plan = Arc::new(FaultPlan::seeded(
            seed,
            &[
                FaultSite::JobStart,
                FaultSite::Iteration,
                FaultSite::CheckpointWrite,
                FaultSite::DbPersist,
            ],
            16,
            10,
        ));
        let mut cfg = config(Some(db_path.clone()), 2);
        cfg.fault_plan = Some(Arc::clone(&plan));
        let (addr, handle) = start_with(cfg);
        for seed in 0..6u64 {
            submit(
                &addr,
                json!({
                    "algorithm": if seed % 2 == 0 { "CC" } else { "PR" },
                    "size": 1200,
                    "seed": seed,
                    "profile": "quick",
                    "checkpoint_every": 4,
                }),
            );
        }
        for id in 0..6u64 {
            let terminal = client::wait_for_job(&addr, id, WAIT).unwrap();
            let state = terminal["state"].as_str().unwrap();
            assert!(
                matches!(state, "done" | "failed" | "timed_out"),
                "seed {seed} job {id} in unexpected state: {terminal}"
            );
        }
        let m = metrics(&addr);
        assert_no_job_lost(&m);
        shutdown(&addr, handle);
        // Whatever the fault storm did, the database parses and holds
        // exactly the done jobs.
        let db = RunDb::load(&db_path).unwrap();
        assert_eq!(db.len() as u64, m["jobs"]["done"].as_u64().unwrap());
    }
}
