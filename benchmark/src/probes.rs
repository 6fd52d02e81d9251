//! Fixed-size probes of the layers no workload isolates on its own: the
//! generators, the CSR row scan and varint decode, the store's write and
//! read paths, the fair queue and tenant authentication, and the run
//! database's whole-file save. Every traced run executes all of them on
//! the same generated inputs, so the figures mean the same thing whichever
//! workload they appear under. Each is the median of a few repeats.

use crate::spec::Scale;
use crate::{stats, Ctx, Outcome};
use graphmine_algos::{run_algorithm, AlgorithmKind, SuiteConfig, Workload};
use graphmine_core::{GraphSpec, RunDb, RunRecord};
use graphmine_engine::ExecutionConfig;
use graphmine_graph::{write_edge_list, Direction, Graph, Representation};
use graphmine_shard::{DrrQueue, TenantRegistry};
use graphmine_store::{
    finalize_ingest, load_workload, pack_workload, Catalog, IngestConfig, IngestSession,
    StoredGraph,
};
use std::hint::black_box;
use std::time::Instant;

/// Repeats per probe; the median is reported.
const REPEATS: usize = 3;

fn median_of<T>(mut f: impl FnMut() -> (f64, T)) -> (f64, T) {
    let mut times = Vec::with_capacity(REPEATS);
    let mut last = None;
    for _ in 0..REPEATS {
        let (t, v) = f();
        times.push(t);
        last = Some(v);
    }
    (stats::median(&times), last.expect("REPEATS is at least 1"))
}

fn timed<T>(f: impl FnOnce() -> T) -> (f64, T) {
    let t0 = Instant::now();
    let v = f();
    (t0.elapsed().as_secs_f64(), v)
}

/// Walk every out-row through `Graph::incident_row` on one thread and
/// return the slots visited (the checksum keeps the loop alive).
fn sweep_rows(graph: &Graph) -> u64 {
    let mut scratch = Vec::new();
    let mut slots = 0u64;
    let mut checksum = 0u64;
    for v in graph.vertices() {
        let (_, neighbors) = graph.incident_row(v, Direction::Out, &mut scratch);
        slots += neighbors.len() as u64;
        for &n in neighbors {
            checksum = checksum.wrapping_add(n as u64);
        }
    }
    black_box(checksum);
    slots
}

/// Run every probe and record its metric.
pub fn run_all(ctx: &Ctx, out: &mut Outcome) {
    let edges = match ctx.scale {
        Scale::Full => 200_000,
        Scale::Toy => 8_000,
    };
    let dir = ctx.work.join("probes");
    if let Err(e) = std::fs::create_dir_all(&dir) {
        out.fail(format!("probe directory: {e}"));
        return;
    }

    // gen
    let (t, powerlaw) = median_of(|| timed(|| Workload::powerlaw(edges, 2.5, ctx.seed)));
    out.set(
        "gen.powerlaw_edges_per_s",
        powerlaw.graph().num_edges() as f64 / t,
    );
    let (t, ratings) = median_of(|| timed(|| Workload::ratings(edges / 2, 2.5, ctx.seed)));
    out.set(
        "gen.ratings_edges_per_s",
        ratings.graph().num_edges() as f64 / t,
    );
    drop(ratings);

    // graph
    let plain = powerlaw.graph();
    let (t, slots) = median_of(|| timed(|| sweep_rows(plain)));
    out.set("graph.plain_scan_edges_per_s", slots as f64 / t);
    let (t, compressed) = median_of(|| {
        timed(|| {
            powerlaw
                .with_representation(Representation::Compressed)
                .expect("generated graphs have sorted rows")
        })
    });
    out.set("graph.compress_s", t);
    let (t, decoded) = median_of(|| timed(|| sweep_rows(compressed.graph())));
    out.set("graph.decode_edges_per_s", decoded as f64 / t);
    out.check(decoded == slots, || {
        format!("compressed sweep visited {decoded} slots, plain {slots}")
    });
    out.set(
        "graph.compression_ratio",
        plain.neighbor_payload_bytes(Direction::Out) as f64
            / compressed
                .graph()
                .neighbor_payload_bytes(Direction::Out)
                .max(1) as f64,
    );

    // store: write side, then read side
    let file = dir.join("probe.gmg");
    let (t, packed) = median_of(|| timed(|| pack_workload(&file, &compressed, "probe", ctx.seed)));
    if let Err(e) = packed {
        out.fail(format!("store probe pack: {e}"));
        return;
    }
    let file_bytes = std::fs::metadata(&file).map_or(0, |m| m.len());
    out.set("store.pack_mb_per_s", file_bytes as f64 / 1e6 / t);
    out.set(
        "store.file_bytes_per_edge",
        file_bytes as f64 / plain.num_edges().max(1) as f64,
    );
    let (t, verified) = median_of(|| timed(|| StoredGraph::open(&file).and_then(|s| s.verify())));
    out.check(verified.is_ok(), || {
        format!("store probe verify: {verified:?}")
    });
    out.set("store.verify_mb_per_s", file_bytes as f64 / 1e6 / t);
    let mut open_us = Vec::new();
    let mut load_us = Vec::new();
    for _ in 0..20 {
        let (t_open, stored) = timed(|| StoredGraph::open(&file));
        let Ok(stored) = stored else { break };
        let (t_load, loaded) = timed(|| load_workload(&stored));
        open_us.push(t_open * 1e6);
        load_us.push(t_load * 1e6);
        black_box(loaded.is_ok());
    }
    out.set("store.open_us", stats::median(&open_us));
    out.set("store.load_us", stats::median(&load_us));

    // store: chunked ingest of the same graph as an edge list, direct
    let mut text = Vec::new();
    let weights = match &powerlaw {
        Workload::PowerLaw { weights, .. } => Some(weights.as_slice()),
        _ => None,
    };
    if write_edge_list(&mut text, plain, weights).is_ok() {
        let catalog_dir = dir.join("catalog");
        let (t, installed) = median_of(|| {
            let _ = std::fs::remove_dir_all(&catalog_dir);
            timed(|| -> Result<u64, graphmine_store::StoreError> {
                let catalog = Catalog::open(&catalog_dir)?;
                let mut session = IngestSession::begin(
                    &catalog_dir.join(".ingest"),
                    IngestConfig {
                        name: "probe".to_string(),
                        directed: false,
                        num_vertices: plain.num_vertices(),
                        seed: ctx.seed,
                    },
                )?;
                for (seq, chunk) in text.chunks(512 * 1024).enumerate() {
                    session.append_chunk(seq as u64, chunk)?;
                }
                Ok(finalize_ingest(&catalog, session)?.num_edges)
            })
        });
        match installed {
            Ok(n) => {
                out.check(n as usize == plain.num_edges(), || {
                    format!(
                        "ingest probe installed {n} edges, generated {}",
                        plain.num_edges()
                    )
                });
                out.set("store.ingest_mb_per_s", text.len() as f64 / 1e6 / t);
            }
            Err(e) => out.fail(format!("store probe ingest: {e}")),
        }
    }
    drop(compressed);
    drop(powerlaw);

    // shard
    let ops = match ctx.scale {
        Scale::Full => 200_000u64,
        Scale::Toy => 20_000,
    };
    let (t, _) = median_of(|| {
        let queue: DrrQueue<u64> = DrrQueue::new(&[1, 1, 1, 1]);
        timed(|| {
            let mut sum = 0u64;
            for i in 0..ops {
                queue.push((i % 4) as usize, i);
                sum = sum.wrapping_add(queue.pop().unwrap_or(0));
            }
            black_box(sum)
        })
    });
    out.set("shard.drr_push_pop_ns", t * 1e9 / ops as f64);
    if let Ok(registry) = TenantRegistry::derived(4, 16) {
        let keys: Vec<String> = registry.iter().map(|t| t.key.clone()).collect();
        let (t, hits) = median_of(|| {
            timed(|| {
                (0..ops)
                    .filter(|i| registry.authenticate(&keys[(*i % 4) as usize]).is_some())
                    .count() as u64
            })
        });
        out.check(hits == ops, || {
            format!("{hits} of {ops} derived keys authenticated")
        });
        out.set("shard.auth_ns", t * 1e9 / ops as f64);
    }

    // core: the whole-file save the server does after every job
    let tiny = Workload::powerlaw(2_000, 2.5, ctx.seed);
    let config = SuiteConfig {
        exec: ExecutionConfig::with_max_iterations(60),
        ..SuiteConfig::default()
    };
    if let Ok(trace) = run_algorithm(AlgorithmKind::Pr, &tiny, &config) {
        let mut db = RunDb::new();
        for i in 0..1000u64 {
            db.push(
                RunRecord::from_trace(
                    "PR",
                    "GraphAnalytics",
                    GraphSpec {
                        size: 2_000,
                        alpha: Some(2.5),
                        label: "2000".to_string(),
                    },
                    i,
                    &trace,
                )
                .with_runtime_ms(1.0),
            );
        }
        let path = dir.join("runs.json");
        let (t, saved) = median_of(|| timed(|| db.save(&path)));
        out.check(saved.is_ok(), || format!("RunDb::save: {saved:?}"));
        out.set("core.rundb_save_ms_1k", t * 1e3);
        out.set(
            "core.rundb_bytes_per_record",
            std::fs::metadata(&path).map_or(0, |m| m.len()) as f64 / 1000.0,
        );
    }
    let _ = std::fs::remove_dir_all(&dir);
}
