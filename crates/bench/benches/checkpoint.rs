//! Robustness-cost benchmarks: what durability charges the hot path.
//!
//! Two prices are measured — engine checkpointing as a function of the
//! checkpoint interval (EXPERIMENTS.md "checkpoint overhead vs interval"),
//! and the service job journal's per-event append. Both features are
//! opt-in; the baselines here are the no-op configurations they must not
//! perturb.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use graphmine_algos::cc::ConnectedComponents;
use graphmine_engine::{CheckpointPolicy, ExecutionConfig, SyncEngine};
use graphmine_gen::{powerlaw_graph, PowerLawConfig};
use graphmine_service::{journal::JournalEvent, JobRequest, Journal};
use std::path::PathBuf;
use std::time::Duration;

fn bench_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("graphmine_bench_{name}_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// Connected components to convergence, checkpointing every `every`
/// iterations (0 = checkpointing disabled). CC state is one u32 per
/// vertex, so the serialized image is dominated by the state and message
/// vectors — the representative cost for every algorithm in the suite.
fn run_cc(graph: &graphmine_graph::Graph, every: usize, dir: &PathBuf) {
    let labels: Vec<u32> = (0..graph.num_vertices() as u32).collect();
    let engine = SyncEngine::new(
        graph,
        ConnectedComponents,
        labels,
        vec![(); graph.num_edges()],
    );
    let mut cfg = ExecutionConfig::with_max_iterations(100);
    if every > 0 {
        cfg = cfg.with_checkpoint(CheckpointPolicy::new(every, dir, format!("bench-{every}")));
    }
    let _ = engine.run_resumable(&cfg);
}

fn checkpoint_overhead_vs_interval(c: &mut Criterion) {
    let graph = powerlaw_graph(&PowerLawConfig::new(100_000, 2.5, 6));
    let dir = bench_dir("ckpt");
    let mut g = c.benchmark_group("checkpoint_overhead");
    g.sample_size(10).measurement_time(Duration::from_secs(4));
    g.bench_function("baseline_no_checkpoint", |b| {
        b.iter(|| run_cc(&graph, 0, &dir))
    });
    for every in [1usize, 4, 16] {
        g.bench_with_input(BenchmarkId::new("every", every), &every, |b, &every| {
            b.iter(|| run_cc(&graph, every, &dir))
        });
    }
    g.finish();
    let _ = std::fs::remove_dir_all(&dir);
}

fn journal_append_throughput(c: &mut Criterion) {
    let dir = bench_dir("journal");
    let path = dir.join("bench.journal");
    let journal = Journal::open(&path).unwrap();
    let request = JobRequest {
        algorithm: "CC".to_string(),
        graph: None,
        size: 10_000,
        seed: 1,
        alpha: None,
        profile: None,
        max_iterations: None,
        timeout_ms: None,
        checkpoint_every: None,
        direction: None,
        reorder: false,
        representation: None,
        segment_bytes: None,
    };
    let mut g = c.benchmark_group("journal_append");
    g.sample_size(20).measurement_time(Duration::from_secs(3));
    // The WAL write on the submission path: serialize + append + flush.
    g.bench_function("submitted_event", |b| {
        let mut id = 0u64;
        b.iter(|| {
            id += 1;
            journal
                .append(&JournalEvent::Submitted {
                    id,
                    algorithm: "CC".to_string(),
                    ckpt_tag: format!("job{id}"),
                    attempt: 0,
                    request: request.clone(),
                })
                .unwrap()
        })
    });
    g.bench_function("finished_event", |b| {
        let mut id = 0u64;
        b.iter(|| {
            id += 1;
            journal
                .append(&JournalEvent::Finished {
                    id,
                    outcome: "done".to_string(),
                    record: None,
                    run_index: None,
                })
                .unwrap()
        })
    });
    g.finish();
    let _ = std::fs::remove_dir_all(&dir);
}

criterion_group!(
    benches,
    checkpoint_overhead_vs_interval,
    journal_append_throughput
);
criterion_main!(benches);
