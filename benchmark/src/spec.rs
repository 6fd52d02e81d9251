//! The benchmark's contract in one place: workload names and frozen
//! parameters, end-to-end metrics with their bounds, per-layer metrics
//! with the end-to-end metric each is expected to move. `BENCHMARK.json`
//! lists exactly these names (a test checks it); README.md explains them.

/// Which way a metric improves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// Smaller is better.
    Lower,
    /// Larger is better.
    Higher,
}

impl Better {
    /// The word `BENCHMARK.json` uses.
    pub fn as_str(&self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// An end-to-end metric: what a user of the system sees.
#[derive(Debug, Clone, Copy)]
pub struct EndToEnd {
    /// Metric name.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Direction.
    pub better: Better,
    /// Share of the parent's median by which it may worsen.
    pub bound: f64,
    /// Definition.
    pub what: &'static str,
}

/// The end-to-end metrics, reported by every workload. A *job* is one
/// algorithm execution a user asked for: a direct `run_algorithm_digest`
/// call (plus the store open/load in front of it) on the offline
/// workloads, one `POST /jobs` → terminal state on the service workloads.
pub const END_TO_END: [EndToEnd; 6] = [
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: Better::Lower,
        bound: 0.25,
        what: "median of 3 complete set-ups: generate, compress, pack, verify, ingest, server start, warm-up, references",
    },
    EndToEnd {
        name: "jobs_per_s",
        unit: "jobs/s",
        better: Better::Higher,
        bound: 0.10,
        what: "jobs completed ÷ wall time of the measured window",
    },
    EndToEnd {
        name: "edges_per_s",
        unit: "edges/s",
        better: Better::Higher,
        bound: 0.10,
        what: "edge reads + messages of completed jobs (exact counts) ÷ engine wall, median repetition (offline: processing rate) or ÷ the window (service: delivered rate)",
    },
    EndToEnd {
        name: "job_latency_p50_ms",
        unit: "ms",
        better: Better::Lower,
        // On `service-open-mixed` the median falls in the thin upper tail
        // of the small jobs, where queueing behind a large one decides
        // it: its run-to-run spread there is 9–12 % (1–3 % on the other
        // workloads), and a bound must stay clear of that.
        bound: 0.25,
        what: "median job latency: call → result (offline), submit or intended send → terminal state seen by the client (service)",
    },
    EndToEnd {
        name: "job_latency_p95_ms",
        unit: "ms",
        better: Better::Lower,
        bound: 0.10,
        what: "95th percentile of the same latencies",
    },
    EndToEnd {
        name: "peak_rss_mb",
        unit: "MiB",
        better: Better::Lower,
        // The server's resident set grows all through the open-loop
        // window (retained job records, heap fragmentation) and ends
        // 4–5 % apart from run to run; elsewhere it repeats within 2 %.
        bound: 0.10,
        what: "VmHWM of the workload's process when it exits",
    },
];

/// A per-layer metric and the prediction attached to it.
#[derive(Debug, Clone, Copy)]
pub struct PerLayer {
    /// Metric name; the part before the first `.` is the layer (crate).
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Direction.
    pub better: Better,
    /// End-to-end metric it should move.
    pub moves: &'static str,
    /// Workload on which it should move it.
    pub on: &'static str,
}

const fn layer(
    name: &'static str,
    unit: &'static str,
    better: Better,
    moves: &'static str,
    on: &'static str,
) -> PerLayer {
    PerLayer {
        name,
        unit,
        better,
        moves,
        on,
    }
}

use Better::{Higher as H, Lower as L};

const PLAIN: &str = "offline-plain";
const STORED: &str = "offline-stored-compressed";
const HOT: &str = "service-hot";
const MIXED: &str = "service-open-mixed";

/// Every per-layer metric. A traced run reports all of them; a layer the
/// workload does not exercise reports 0.
#[rustfmt::skip] // one metric per line, as a table
pub const PER_LAYER: &[PerLayer] = &[
    // gen, graph, store, shard, core: fixed-size probes run in every traced run.
    layer("gen.powerlaw_edges_per_s", "edges/s", H, "setup_s", PLAIN),
    layer("gen.ratings_edges_per_s", "edges/s", H, "setup_s", PLAIN),
    layer("graph.plain_scan_edges_per_s", "edges/s", H, "edges_per_s", PLAIN),
    layer("graph.decode_edges_per_s", "edges/s", H, "edges_per_s", STORED),
    layer("graph.compress_s", "s", L, "setup_s", STORED),
    layer("graph.compression_ratio", "ratio", H, "peak_rss_mb", STORED),
    layer("store.pack_mb_per_s", "MB/s", H, "setup_s", STORED),
    layer("store.verify_mb_per_s", "MB/s", H, "setup_s", STORED),
    layer("store.open_us", "us", L, "job_latency_p95_ms", STORED),
    layer("store.load_us", "us", L, "job_latency_p95_ms", STORED),
    layer("store.file_bytes_per_edge", "bytes", L, "peak_rss_mb", STORED),
    layer("store.ingest_mb_per_s", "MB/s", H, "setup_s", MIXED),
    layer("store.open_load_share", "ratio", L, "jobs_per_s", STORED),
    layer("shard.drr_push_pop_ns", "ns", L, "job_latency_p95_ms", MIXED),
    layer("shard.auth_ns", "ns", L, "job_latency_p95_ms", MIXED),
    layer("core.rundb_save_ms_1k", "ms", L, "jobs_per_s", HOT),
    layer("core.rundb_bytes_per_record", "bytes", L, "jobs_per_s", HOT),
    // engine: from the RunTraces of the offline workloads.
    layer("engine.pr.edges_per_s", "edges/s", H, "edges_per_s", PLAIN),
    layer("engine.sssp.edges_per_s", "edges/s", H, "edges_per_s", PLAIN),
    layer("engine.cc.edges_per_s", "edges/s", H, "edges_per_s", PLAIN),
    layer("engine.als.edges_per_s", "edges/s", H, "edges_per_s", PLAIN),
    layer("engine.lbp.edges_per_s", "edges/s", H, "edges_per_s", PLAIN),
    layer("engine.gather_s", "s", L, "edges_per_s", PLAIN),
    layer("engine.scatter_s", "s", L, "edges_per_s", PLAIN),
    layer("engine.apply_cpu_s", "s", L, "edges_per_s", PLAIN),
    layer("engine.other_s", "s", L, "edges_per_s", PLAIN),
    layer("engine.iterations", "count", L, "edges_per_s", PLAIN),
    layer("engine.edge_traversals", "count", L, "edges_per_s", PLAIN),
    layer("engine.pull_iterations", "count", H, "edges_per_s", PLAIN),
    layer("engine.sparse_iterations", "count", H, "edges_per_s", PLAIN),
    layer("engine.t1_edges_per_s", "edges/s", H, "edges_per_s", PLAIN),
    layer("engine.scaling_eff", "ratio", H, "edges_per_s", PLAIN),
    layer("engine.ckpt_write_ms", "ms", L, "job_latency_p95_ms", MIXED),
    layer("engine.ckpt_bytes", "bytes", L, "job_latency_p95_ms", MIXED),
    layer("engine.self_share", "ratio", H, "jobs_per_s", PLAIN),
    // service: from the `stages` of GET /jobs/:id and GET /metrics.
    layer("service.start_ms", "ms", L, "setup_s", HOT),
    layer("service.drain_ms", "ms", L, "setup_s", HOT),
    layer("service.submit_ms_p50", "ms", L, "job_latency_p50_ms", HOT),
    layer("service.keepalive_exchange_ms", "ms", L, "job_latency_p50_ms", HOT),
    layer("service.polls_per_job", "count", L, "jobs_per_s", HOT),
    layer("service.queue_wait_ms_p50", "ms", L, "job_latency_p50_ms", MIXED),
    layer("service.queue_wait_ms_p95", "ms", L, "job_latency_p95_ms", MIXED),
    layer("service.cache_load_ms_p50", "ms", L, "job_latency_p50_ms", MIXED),
    layer("service.cache_load_ms_p95", "ms", L, "job_latency_p95_ms", MIXED),
    layer("service.execute_ms_p50", "ms", L, "job_latency_p50_ms", MIXED),
    layer("service.execute_ms_p95", "ms", L, "job_latency_p95_ms", MIXED),
    layer("service.serialize_ms_p50", "ms", L, "job_latency_p50_ms", HOT),
    layer("service.serialize_ms_p95", "ms", L, "job_latency_p95_ms", HOT),
    layer("service.residual_ms_p50", "ms", L, "job_latency_p50_ms", HOT),
    layer("service.execute_share", "ratio", H, "jobs_per_s", HOT),
    layer("service.execute_edges_per_s", "edges/s", H, "job_latency_p95_ms", MIXED),
    layer("service.serialize_growth_us_per_kjob", "us/kjob", L, "jobs_per_s", HOT),
    layer("service.cache_hit_ratio", "ratio", H, "job_latency_p95_ms", MIXED),
    layer("service.http_429", "count", L, "job_latency_p95_ms", MIXED),
    layer("service.retries", "count", L, "job_latency_p95_ms", MIXED),
    layer("service.db_bytes", "bytes", L, "jobs_per_s", HOT),
    layer("service.journal_bytes", "bytes", L, "jobs_per_s", HOT),
    layer("service.ingest_mb_per_s", "MB/s", H, "setup_s", MIXED),
    // client / driver: the benchmark's own view.
    layer("client.latency_p99_ms", "ms", L, "job_latency_p95_ms", MIXED),
    layer("client.small-hot.p50_ms", "ms", L, "job_latency_p50_ms", MIXED),
    layer("client.small-hot.p95_ms", "ms", L, "job_latency_p95_ms", MIXED),
    layer("client.stored-medium.p50_ms", "ms", L, "job_latency_p50_ms", MIXED),
    layer("client.stored-medium.p95_ms", "ms", L, "job_latency_p95_ms", MIXED),
    layer("client.gen-cold.p50_ms", "ms", L, "job_latency_p50_ms", MIXED),
    layer("client.gen-cold.p95_ms", "ms", L, "job_latency_p95_ms", MIXED),
    layer("client.tenant_p95_spread", "ratio", L, "job_latency_p95_ms", MIXED),
    layer("driver.late_p95_ms", "ms", L, "job_latency_p95_ms", MIXED),
    layer("driver.samples", "count", H, "job_latency_p95_ms", MIXED),
    layer("driver.rep_makespan_s", "s", L, "jobs_per_s", PLAIN),
    layer("driver.trace_overhead", "ratio", L, "jobs_per_s", PLAIN),
];

/// A workload: its name and the one-line reason it exists.
#[derive(Debug, Clone, Copy)]
pub struct WorkloadSpec {
    /// Name (`--workload`).
    pub name: &'static str,
    /// Why it was chosen.
    pub why: &'static str,
}

/// The four workloads.
pub const WORKLOADS: [WorkloadSpec; 4] = [
    WorkloadSpec {
        name: PLAIN,
        why: "In-process PR, SSSP, CC, ALS, LBP on generated plain-CSR graphs: engine, algos and graph::csr do nearly all the work, store and service none.",
    },
    WorkloadSpec {
        name: STORED,
        why: "Open, mmap-load and run PR, SSSP, CC on a packed delta-varint compressed graph: the same engine over compressed rows, with the store read path in every repetition.",
    },
    WorkloadSpec {
        name: HOT,
        why: "Closed loop, 2 clients, all 14 algorithms on small cache-hot inputs against a durable server: HTTP, scheduler, journal, RunDb rewrite and polling dominate, the engine does little.",
    },
    WorkloadSpec {
        name: MIXED,
        why: "Open-loop Poisson arrivals from 4 tenants at about half capacity, mixing cache-hot, stored-graph and cache-missing jobs: queueing, fairness, cache misses and checkpoints matter only under arrivals.",
    },
];

/// Input sizes. `Full` is what `BENCHMARK.json` freezes; `Toy` lets the
/// smoke test run all four workloads in seconds.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// The frozen benchmark sizes.
    Full,
    /// Tiny inputs for tests.
    Toy,
}

impl Scale {
    /// Name used on the command line and in `golden.json`.
    pub fn name(&self) -> &'static str {
        match self {
            Scale::Full => "full",
            Scale::Toy => "toy",
        }
    }
}

/// Frozen parameters of the offline workloads.
#[derive(Debug, Clone, Copy)]
pub struct OfflineParams {
    /// Edges of the power-law graph (PR, SSSP, CC).
    pub powerlaw_edges: usize,
    /// Edges of the ratings graph (ALS).
    pub ratings_edges: usize,
    /// Side of the LBP grid.
    pub grid_side: usize,
    /// Power-law exponent.
    pub alpha: f64,
    /// Iteration caps: PR, SSSP, CC, ALS, LBP.
    pub caps: [usize; 5],
    /// Repetitions a run must complete, whatever the window.
    pub min_reps: usize,
}

/// Frozen parameters of the service workloads.
#[derive(Debug, Clone, Copy)]
pub struct ServiceParams {
    /// Edge count of small-hot power-law inputs (graph analytics, KM).
    pub hot_edges: u64,
    /// Edge count of small-hot ratings inputs (ALS, NMF, SGD, SVD).
    pub hot_ratings: u64,
    /// Edge count of the small-hot MRF (DD).
    pub hot_mrf_edges: u64,
    /// Row count of the small-hot Jacobi matrix.
    pub hot_rows: u64,
    /// Side of the small-hot LBP grid.
    pub hot_grid: u64,
    /// Edges of the uploaded stored graph.
    pub stored_edges: usize,
    /// Edges of each gen-cold graph.
    pub cold_edges: u64,
    /// Open-loop arrival rate, requests per second.
    pub open_rate: f64,
    /// Closed-loop clients, and sender threads of the open loop.
    pub clients: usize,
    /// Tenants of the mixed workload.
    pub tenants: usize,
}

impl Scale {
    /// Set-ups performed per run; `setup_s` is their median. One is
    /// enough for the smoke test, whose timings nobody reads.
    pub fn setup_repeats(&self) -> usize {
        match self {
            Scale::Full => 3,
            Scale::Toy => 1,
        }
    }

    /// Offline parameters at this scale.
    pub fn offline(&self) -> OfflineParams {
        match self {
            Scale::Full => OfflineParams {
                powerlaw_edges: 1_000_000,
                ratings_edges: 250_000,
                grid_side: 256,
                alpha: 2.5,
                caps: [20, 500, 500, 10, 20],
                min_reps: 10,
            },
            Scale::Toy => OfflineParams {
                powerlaw_edges: 20_000,
                ratings_edges: 5_000,
                grid_side: 24,
                alpha: 2.5,
                caps: [20, 500, 500, 10, 20],
                min_reps: 2,
            },
        }
    }

    /// Service parameters at this scale.
    pub fn service(&self) -> ServiceParams {
        match self {
            Scale::Full => ServiceParams {
                // Sized so that no algorithm executes for much more than
                // 3 ms: at 4 000 edges each, DD took 67 ms and ALS 11 ms
                // and the tail latency measured those two alone.
                hot_edges: 4_000,
                hot_ratings: 1_500,
                hot_mrf_edges: 300,
                hot_rows: 2_000,
                hot_grid: 28,
                stored_edges: 200_000,
                cold_edges: 20_000,
                // Half of the ≈ 97 jobs/s at which the mix saturates the
                // server on the seed commit: open loop, 90 jobs/s is
                // sustained and 120 jobs/s is not (`--rate` finds it).
                open_rate: 50.0,
                clients: 2,
                tenants: 4,
            },
            Scale::Toy => ServiceParams {
                hot_edges: 600,
                hot_ratings: 400,
                hot_mrf_edges: 100,
                hot_rows: 200,
                hot_grid: 8,
                stored_edges: 4_000,
                cold_edges: 1_500,
                open_rate: 40.0,
                clients: 2,
                tenants: 4,
            },
        }
    }
}

/// Look up an end-to-end metric.
pub fn end_to_end(name: &str) -> Option<&'static EndToEnd> {
    END_TO_END.iter().find(|m| m.name == name)
}

/// Whether `name` is a workload.
pub fn is_workload(name: &str) -> bool {
    WORKLOADS.iter().any(|w| w.name == name)
}

/// Whether a metric, unit or workload name fits the contract's alphabet.
pub fn valid_name(name: &str) -> bool {
    !name.is_empty()
        && name.len() <= 64
        && name.starts_with(|c: char| c.is_ascii_alphanumeric())
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    #[test]
    fn the_registry_is_internally_consistent() {
        let mut names = BTreeSet::new();
        for m in END_TO_END {
            assert!(valid_name(m.name) && names.insert(m.name), "{}", m.name);
            assert!(m.bound > 0.0 && m.bound <= 0.25);
        }
        for m in PER_LAYER {
            assert!(valid_name(m.name) && names.insert(m.name), "{}", m.name);
            assert!(end_to_end(m.moves).is_some(), "{} -> {}", m.name, m.moves);
            assert!(is_workload(m.on), "{} on {}", m.name, m.on);
            assert!(m.unit.len() <= 16);
        }
        for w in WORKLOADS {
            assert!(valid_name(w.name) && names.insert(w.name));
            assert!(w.why.len() <= 200 && !w.why.contains('\n'), "{}", w.name);
        }
        assert!(WORKLOADS.len() <= 8 && END_TO_END.len() <= 16 && PER_LAYER.len() <= 128);
        assert!(END_TO_END
            .iter()
            .any(|m| m.name == "setup_s" && m.unit == "s"));
        assert!(!valid_name("-x") && !valid_name("a b") && !valid_name(""));
    }
}
