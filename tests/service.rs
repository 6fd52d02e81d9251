//! End-to-end tests of the benchmark-job service over real TCP sockets:
//! submission, polling, caching, cancellation, timeouts, concurrent mixed
//! workloads (single- and multi-tenant), stored graphs in both
//! representations, ensemble search parity with the offline library, and
//! graceful shutdown with a durable run database.

use graphmine_algos::{run_algorithm, AlgorithmKind, SuiteConfig, Workload};
use graphmine_core::{best_spread_ensemble, RunDb, WorkMetric};
use graphmine_engine::ExecutionConfig;
use graphmine_graph::Representation;
use graphmine_service::{client, Server, ServerHandle, ServiceConfig};
use graphmine_shard::TenantSpec;
use graphmine_store::pack_workload;
use serde_json::{json, Value};
use std::path::PathBuf;
use std::time::Duration;

const WAIT: Duration = Duration::from_secs(120);

fn temp_db(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join("graphmine_service_tests");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join(format!("{}_{}.json", name, std::process::id()));
    let _ = std::fs::remove_file(&path);
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
        ..ServiceConfig::default()
    }
}

fn start_with(config: ServiceConfig) -> (String, ServerHandle) {
    let handle = Server::start(config).expect("server failed to bind");
    (handle.addr().to_string(), handle)
}

fn start(db_path: Option<PathBuf>, workers: usize) -> (String, ServerHandle) {
    start_with(config(db_path, workers))
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

#[test]
fn pr_job_end_to_end_with_behavior_vector() {
    let db_path = temp_db("pr_end_to_end");
    let (addr, handle) = start(Some(db_path.clone()), 2);

    let id = submit(
        &addr,
        json!({"algorithm": "PR", "size": 2000, "seed": 11, "profile": "quick"}),
    );
    let done = client::wait_for_job(&addr, id, WAIT).unwrap();
    assert_eq!(done["state"], "done", "job did not finish: {done}");
    assert!(done["iterations"].as_u64().unwrap() > 0);
    assert_eq!(done["run_index"], 0);

    // Its behavior vector is served, 4-dimensional and max-normalized.
    let (status, behavior) = client::request(&addr, "GET", "/behavior?work=ops", None).unwrap();
    assert_eq!(status, 200);
    assert_eq!(behavior["count"], 1);
    assert_eq!(behavior["labels"][0], "PR");
    let vector = behavior["vectors"][0].as_array().unwrap();
    assert_eq!(vector.len(), 4);
    for component in vector {
        let x = component.as_f64().unwrap();
        assert!((0.0..=1.0).contains(&x), "component {x} out of [0,1]");
    }

    shutdown(&addr, handle);
    let db = RunDb::load(&db_path).unwrap();
    assert_eq!(db.len(), 1);
    assert_eq!(db.runs[0].algorithm, "PR");
    assert!(db.runs[0].runtime_ms > 0.0);
}

#[test]
fn repeated_graph_spec_hits_the_cache() {
    let (addr, handle) = start(None, 1);
    let spec = json!({"algorithm": "CC", "size": 3000, "seed": 5, "profile": "quick"});
    let first = submit(&addr, spec.clone());
    let cold = client::wait_for_job(&addr, first, WAIT).unwrap();
    assert_eq!(cold["state"], "done");
    assert_eq!(cold["cache_hit"], false);

    // Same spec, different algorithm: the workload is shared.
    let second = submit(
        &addr,
        json!({"algorithm": "PR", "size": 3000, "seed": 5, "profile": "quick"}),
    );
    let warm = client::wait_for_job(&addr, second, WAIT).unwrap();
    assert_eq!(warm["state"], "done");
    assert_eq!(warm["cache_hit"], true);

    let (_, metrics) = client::request(&addr, "GET", "/metrics", None).unwrap();
    assert_eq!(metrics["cache"]["hits"], 1);
    assert_eq!(metrics["cache"]["misses"], 1);
    assert_eq!(metrics["cache"]["entries"], 1);
    assert!(
        metrics["cache"]["resident_bytes"].as_u64().unwrap() > 0,
        "cached workload reports no resident bytes: {metrics}"
    );

    // A reordered run of the same spec is a different workload: it must
    // miss and occupy its own cache slot.
    let third = submit(
        &addr,
        json!({"algorithm": "PR", "size": 3000, "seed": 5, "profile": "quick", "reorder": true}),
    );
    let reordered = client::wait_for_job(&addr, third, WAIT).unwrap();
    assert_eq!(reordered["state"], "done");
    assert_eq!(reordered["cache_hit"], false);
    let (_, metrics) = client::request(&addr, "GET", "/metrics", None).unwrap();
    assert_eq!(metrics["cache"]["misses"], 2);
    assert_eq!(metrics["cache"]["entries"], 2);
    shutdown(&addr, handle);
}

#[test]
fn direction_jobs_validate_and_report_counters() {
    let (addr, handle) = start(None, 1);

    // Scatter direction and segment size are engine-internal; a job body
    // that still names them (older clients) is accepted, and the keys are
    // ignored — even a direction no engine knows.
    let id = submit(
        &addr,
        json!({
            "algorithm": "PR",
            "size": 2000,
            "seed": 21,
            "profile": "quick",
            "direction": "sideways",
            "segment_bytes": 4096,
        }),
    );
    let done = client::wait_for_job(&addr, id, WAIT).unwrap();
    assert_eq!(done["state"], "done", "job did not finish: {done}");
    let iterations = done["iterations"].as_u64().unwrap();
    assert!(iterations > 0);

    // The metrics split every executed iteration between push and pull.
    let (_, metrics) = client::request(&addr, "GET", "/metrics", None).unwrap();
    let push = metrics["direction"]["push_iterations"].as_u64().unwrap();
    let pull = metrics["direction"]["pull_iterations"].as_u64().unwrap();
    assert_eq!(push + pull, iterations, "{metrics}");
    shutdown(&addr, handle);
}

#[test]
fn stored_graphs_serve_plain_and_compressed_like_the_direct_run() {
    let dir = std::env::temp_dir().join(format!("graphmine_service_graphs_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    // What `graphmine graph pack --class powerlaw --size 2000 --seed 1
    // [--representation compressed]` writes.
    let plain = Workload::powerlaw(2_000, 2.5, 1);
    let compressed = plain
        .with_representation(Representation::Compressed)
        .unwrap();
    pack_workload(&dir.join("plain.gmg"), &plain, "synthetic:powerlaw", 1).unwrap();
    pack_workload(
        &dir.join("packed.gmg"),
        &compressed,
        "synthetic:powerlaw",
        1,
    )
    .unwrap();
    // A job without a profile runs under the default profile's cap of 200.
    let direct = run_algorithm(
        AlgorithmKind::Pr,
        &plain,
        &SuiteConfig {
            exec: ExecutionConfig::with_max_iterations(200),
            ..SuiteConfig::default()
        },
    )
    .unwrap();

    let (addr, handle) = start_with(ServiceConfig {
        graph_dir: Some(dir.clone()),
        ..config(None, 2)
    });
    for (graph, representation) in [("plain", "plain"), ("packed", "compressed")] {
        let id = submit(
            &addr,
            json!({"algorithm": "PR", "graph": graph, "representation": representation}),
        );
        let done = client::wait_for_job(&addr, id, WAIT).unwrap();
        assert_eq!(done["state"], "done", "{graph}: {done}");
        assert_eq!(
            done["iterations"].as_u64(),
            Some(direct.num_iterations() as u64),
            "{graph}: {done}"
        );
        assert_eq!(
            done["converged"].as_bool(),
            Some(direct.converged),
            "{graph}: {done}"
        );
    }
    // Both files loaded as written: no rebuild from the edge list, no
    // fallback from compressed rows to plain ones.
    let (_, metrics) = client::request(&addr, "GET", "/metrics", None).unwrap();
    assert_eq!(metrics["store"]["graphs"], 2, "{metrics}");
    assert_eq!(metrics["robustness"]["store_rebuilds"], 0, "{metrics}");
    assert_eq!(
        metrics["robustness"]["compressed_fallbacks"], 0,
        "{metrics}"
    );
    shutdown(&addr, handle);
    let _ = std::fs::remove_dir_all(&dir);
}

/// Eight client threads, one per algorithm, submit three jobs each and
/// wait for all of them. With `tenants > 0` the server runs multi-tenant
/// and client `i` submits as derived tenant `i % tenants`; every reply
/// must carry the submitter's tenant, and `/metrics` must slice the jobs
/// by tenant.
fn eight_concurrent_clients(db_name: &str, tenants: usize) {
    let db_path = temp_db(db_name);
    let specs: Vec<TenantSpec> = (0..tenants).map(TenantSpec::derived).collect();
    let keys: Vec<String> = specs.iter().map(|s| s.key.clone()).collect();
    let (addr, handle) = start_with(ServiceConfig {
        tenants: (tenants > 0).then_some(specs),
        ..config(Some(db_path.clone()), 4)
    });
    let algorithms = ["CC", "PR", "KC", "SSSP", "AD", "KM", "ALS", "Jacobi"];

    let clients: Vec<_> = algorithms
        .iter()
        .enumerate()
        .map(|(i, alg)| {
            let addr = addr.clone();
            let alg = alg.to_string();
            let tenant = (tenants > 0).then(|| i % tenants);
            let key = tenant.map(|t| keys[t].clone());
            std::thread::spawn(move || {
                let mut c = client::Client::new(&addr);
                if let Some(key) = &key {
                    c = c.with_api_key(key);
                }
                let want = tenant.map(|t| format!("tenant-{t}"));
                let mut ids = Vec::new();
                for j in 0..3u64 {
                    let job = json!({
                        "algorithm": alg,
                        "size": 1500,
                        "seed": i as u64 * 10 + j,
                        "profile": "quick",
                    });
                    let (status, body) = c.request("POST", "/jobs", Some(&job)).unwrap();
                    assert_eq!(status, 202, "submission rejected: {body}");
                    assert_eq!(body["tenant"].as_str(), want.as_deref(), "{body}");
                    ids.push(body["id"].as_u64().unwrap());
                }
                for id in ids {
                    let terminal = client::wait_for_job_with(&mut c, id, WAIT).unwrap();
                    assert_eq!(terminal["state"], "done", "job {id}: {terminal}");
                    assert_eq!(terminal["tenant"].as_str(), want.as_deref(), "{terminal}");
                }
            })
        })
        .collect();
    for c in clients {
        c.join().expect("client thread panicked");
    }

    let (_, metrics) = client::request(&addr, "GET", "/metrics", None).unwrap();
    assert_eq!(metrics["jobs"]["submitted"], 24);
    assert_eq!(metrics["jobs"]["done"], 24);
    assert_eq!(metrics["jobs"]["failed"], 0);
    assert_eq!(metrics["db_runs"], 24);
    if tenants > 0 {
        let per = metrics["tenants"]["per_tenant"].as_array().unwrap();
        assert_eq!(per.len(), tenants, "{metrics}");
        for (t, row) in per.iter().enumerate() {
            assert_eq!(row["id"], format!("tenant-{t}"));
            assert!(row["jobs"]["done"].as_u64().unwrap() >= 1, "{row}");
            let total = &row["stages"]["total"]["summary"];
            assert!(total["count"].as_u64().unwrap() >= 1, "{row}");
            assert!(total["p99_us"].as_u64().unwrap() > 0, "{row}");
        }
    }

    shutdown(&addr, handle);
    // Per-job persistence under concurrency never corrupted the database.
    let db = RunDb::load(&db_path).unwrap();
    assert_eq!(db.len(), 24);
    let mut seen: Vec<&str> = db.runs.iter().map(|r| r.algorithm.as_str()).collect();
    seen.sort_unstable();
    seen.dedup();
    assert_eq!(seen.len(), algorithms.len());
}

#[test]
fn eight_concurrent_clients_mixed_algorithms() {
    eight_concurrent_clients("concurrent", 0);
}

#[test]
fn eight_concurrent_clients_across_four_tenants() {
    eight_concurrent_clients("concurrent_tenants", 4);
}

#[test]
fn wall_clock_timeout_stops_long_jobs() {
    let (addr, handle) = start(None, 1);
    let id = submit(
        &addr,
        json!({
            "algorithm": "PR",
            "size": 300_000,
            "seed": 1,
            "max_iterations": 400,
            "timeout_ms": 1,
        }),
    );
    let terminal = client::wait_for_job(&addr, id, WAIT).unwrap();
    assert_eq!(terminal["state"], "timed_out", "got: {terminal}");
    // The engine stopped at an iteration boundary, far short of the cap.
    assert!(terminal["iterations"].as_u64().unwrap() < 400);
    let (_, metrics) = client::request(&addr, "GET", "/metrics", None).unwrap();
    assert_eq!(metrics["jobs"]["timed_out"], 1);
    shutdown(&addr, handle);
}

#[test]
fn cancel_endpoint_stops_a_job() {
    let (addr, handle) = start(None, 1);
    let id = submit(
        &addr,
        json!({"algorithm": "PR", "size": 300_000, "seed": 2, "max_iterations": 400}),
    );
    let (status, _) = client::request(&addr, "POST", &format!("/jobs/{id}/cancel"), None).unwrap();
    assert_eq!(status, 200);
    let terminal = client::wait_for_job(&addr, id, WAIT).unwrap();
    assert_eq!(terminal["state"], "cancelled", "got: {terminal}");
    shutdown(&addr, handle);
}

#[test]
fn ensemble_search_agrees_with_offline_library() {
    let db_path = temp_db("ensemble_parity");
    let (addr, handle) = start(Some(db_path.clone()), 2);

    // A mixed pool: graph-analytics and CF runs at two sizes.
    for (alg, size, seed) in [
        ("CC", 2000u64, 1u64),
        ("PR", 2000, 1),
        ("KC", 2000, 1),
        ("SSSP", 4000, 2),
        ("AD", 4000, 2),
        ("ALS", 2000, 3),
        ("SGD", 2000, 3),
    ] {
        let id = submit(
            &addr,
            json!({"algorithm": alg, "size": size, "seed": seed, "profile": "quick"}),
        );
        let terminal = client::wait_for_job(&addr, id, WAIT).unwrap();
        assert_eq!(terminal["state"], "done", "{alg}: {terminal}");
    }

    let (status, served) = client::request(
        &addr,
        "POST",
        "/ensemble/search",
        Some(&json!({"objective": "spread", "size": 3, "work": "ops"})),
    )
    .unwrap();
    assert_eq!(status, 200);

    shutdown(&addr, handle);

    // Offline search over the very same persisted runs must agree exactly:
    // both sides are deterministic over identical inputs.
    let db = RunDb::load(&db_path).unwrap();
    assert_eq!(db.len(), 7);
    let pool = db.behaviors(WorkMetric::LogicalOps);
    let (members, score) = best_spread_ensemble(&pool, 3);
    let served_members: Vec<usize> = served["members"]
        .as_array()
        .unwrap()
        .iter()
        .map(|v| v.as_u64().unwrap() as usize)
        .collect();
    assert_eq!(served_members, members);
    let served_score = served["score"].as_f64().unwrap();
    assert!(
        (served_score - score).abs() < 1e-12,
        "served {served_score} vs offline {score}"
    );
    let labels = db.labels();
    for (slot, &member) in served_members.iter().enumerate() {
        assert_eq!(served["algorithms"][slot], labels[member].as_str());
    }
}

#[test]
fn shutdown_drains_queued_jobs_into_the_db() {
    let db_path = temp_db("drain");
    // One worker so most of the burst is still queued at shutdown time.
    let (addr, handle) = start(Some(db_path.clone()), 1);
    for seed in 0..6u64 {
        submit(
            &addr,
            json!({"algorithm": "CC", "size": 1500, "seed": seed, "profile": "quick"}),
        );
    }
    let (status, drain) = client::request(&addr, "POST", "/shutdown", None).unwrap();
    assert_eq!(status, 200);
    assert_eq!(drain["state"], "draining");

    // New submissions are refused while draining (the acceptor may already
    // be gone, in which case the connection itself fails — also fine).
    if let Ok((status, _)) = client::request(
        &addr,
        "POST",
        "/jobs",
        Some(&json!({"algorithm": "PR", "size": 100})),
    ) {
        assert_eq!(status, 503);
    }

    handle.wait().unwrap();
    // Every accepted job ran before the server exited.
    let db = RunDb::load(&db_path).unwrap();
    assert_eq!(db.len(), 6);
}
