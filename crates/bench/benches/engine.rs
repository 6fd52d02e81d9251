//! Engine micro-benchmarks and ablations: synchronous GAS iteration
//! throughput, parallel vs sequential execution, executors and frontier
//! modes (the ablations DESIGN.md calls out).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use graphmine_engine::{
    ActiveInit, ApplyInfo, EdgeSet, ExecutionConfig, FrontierMode, NoGlobal, SyncEngine,
    VertexProgram,
};
use graphmine_gen::{powerlaw_graph, PowerLawConfig};
use graphmine_graph::{EdgeId, Graph, GraphBuilder, VertexId};
use std::time::Duration;

/// Gather-heavy probe: sums neighbor values for a fixed iteration count.
struct SumNeighbors {
    iterations: usize,
}

impl VertexProgram for SumNeighbors {
    type State = f64;
    type EdgeData = ();
    type Accum = f64;
    type Message = ();
    type Global = NoGlobal;

    fn gather_edges(&self) -> EdgeSet {
        EdgeSet::Out
    }
    fn scatter_edges(&self) -> EdgeSet {
        EdgeSet::None
    }
    fn always_active(&self) -> bool {
        true
    }
    fn gather(
        &self,
        _g: &Graph,
        _v: VertexId,
        _e: EdgeId,
        _n: VertexId,
        _vs: &f64,
        ns: &f64,
        _ed: &(),
        _gl: &NoGlobal,
    ) -> f64 {
        *ns
    }
    fn merge(&self, a: &mut f64, b: f64) {
        *a += b;
    }
    fn apply(
        &self,
        _v: VertexId,
        state: &mut f64,
        acc: Option<f64>,
        _m: Option<&()>,
        _g: &NoGlobal,
        info: &mut ApplyInfo,
    ) {
        info.ops += 1;
        *state = acc.unwrap_or(0.0) * 0.5;
    }
    fn should_halt(&self, iter: usize, _s: &[f64], _g: &NoGlobal) -> bool {
        iter + 1 >= self.iterations
    }
}

fn run_probe(graph: &Graph, cfg: &ExecutionConfig) {
    let engine = SyncEngine::new(
        graph,
        SumNeighbors { iterations: 5 },
        vec![1.0; graph.num_vertices()],
        vec![(); graph.num_edges()],
    );
    let _ = engine.run(cfg);
}

fn engine_throughput(c: &mut Criterion) {
    let mut g = c.benchmark_group("engine_iteration_throughput");
    g.sample_size(10).measurement_time(Duration::from_secs(3));
    for nedges in [10_000usize, 50_000, 200_000] {
        let graph = powerlaw_graph(&PowerLawConfig::new(nedges, 2.5, 1));
        g.bench_with_input(BenchmarkId::from_parameter(nedges), &graph, |b, graph| {
            b.iter(|| run_probe(graph, &ExecutionConfig::default()))
        });
    }
    g.finish();
}

fn ablation_parallel_vs_sequential(c: &mut Criterion) {
    let graph = powerlaw_graph(&PowerLawConfig::new(100_000, 2.5, 2));
    let mut g = c.benchmark_group("ablation_parallelism");
    g.sample_size(10).measurement_time(Duration::from_secs(3));
    for (name, sequential) in [("parallel", false), ("sequential", true)] {
        g.bench_function(name, |b| {
            b.iter(|| {
                let cfg = ExecutionConfig {
                    sequential,
                    ..ExecutionConfig::default()
                };
                run_probe(&graph, &cfg)
            })
        });
    }
    g.finish();
}

fn ablation_executors(c: &mut Criterion) {
    // DESIGN ablation: the three execution models on the same vertex
    // program (Connected Components) and graph — synchronous vertex-centric
    // (the paper's mode), asynchronous FIFO (GraphLab's other mode), and
    // edge-centric streaming (X-Stream).
    use graphmine_algos::cc::ConnectedComponents;
    use graphmine_engine::{
        async_run, edge_centric_run, AsyncConfig, EdgeCentricConfig, NoGlobal, SyncEngine,
    };
    let graph = powerlaw_graph(&PowerLawConfig::new(100_000, 2.5, 4));
    let labels: Vec<u32> = (0..graph.num_vertices() as u32).collect();
    let edges = vec![(); graph.num_edges()];
    let mut g = c.benchmark_group("ablation_executors");
    g.sample_size(10).measurement_time(Duration::from_secs(4));
    g.bench_function("sync_vertex_centric", |b| {
        b.iter(|| {
            SyncEngine::new(&graph, ConnectedComponents, labels.clone(), edges.clone())
                .run(&ExecutionConfig::default())
        })
    });
    g.bench_function("async_fifo", |b| {
        b.iter(|| {
            async_run(
                &graph,
                &ConnectedComponents,
                labels.clone(),
                edges.clone(),
                NoGlobal,
                &AsyncConfig::default(),
            )
        })
    });
    g.bench_function("edge_centric_stream", |b| {
        b.iter(|| {
            edge_centric_run(
                &graph,
                &ConnectedComponents,
                labels.clone(),
                &edges,
                NoGlobal,
                &EdgeCentricConfig::default(),
            )
        })
    });
    g.finish();
}

/// SSSP-style probe for the frontier benchmarks: hop-count flood from a
/// single source, message-driven activation. On a long path graph the
/// frontier is one vertex per iteration — ≤ 0.01% of vertices — so the
/// engine's per-iteration overhead dominates and the dense-vs-sparse gap is
/// maximal.
struct HopFlood;

impl VertexProgram for HopFlood {
    type State = u32;
    type EdgeData = ();
    type Accum = ();
    type Message = u32;
    type Global = NoGlobal;

    fn gather_edges(&self) -> EdgeSet {
        EdgeSet::None
    }
    fn scatter_edges(&self) -> EdgeSet {
        EdgeSet::Out
    }
    fn initial_active(&self) -> ActiveInit {
        ActiveInit::Vertices(vec![0])
    }
    fn apply(
        &self,
        _v: VertexId,
        state: &mut u32,
        _acc: Option<()>,
        msg: Option<&u32>,
        _g: &NoGlobal,
        info: &mut ApplyInfo,
    ) {
        info.ops += 1;
        if let Some(&m) = msg {
            if m < *state {
                *state = m;
            }
        }
    }
    fn scatter(
        &self,
        _graph: &Graph,
        _v: VertexId,
        _e: EdgeId,
        _nbr: VertexId,
        state: &u32,
        nbr_state: &u32,
        _edge: &(),
        _g: &NoGlobal,
    ) -> Option<u32> {
        (*state != u32::MAX && state.saturating_add(1) < *nbr_state).then(|| state + 1)
    }
    fn combine(&self, into: &mut u32, from: u32) {
        *into = (*into).min(from);
    }
}

fn frontier_modes(c: &mut Criterion) {
    // Sparse workload: 200k-vertex path, 50 iterations of a single-vertex
    // frontier. The seed engine paid O(n) per iteration here; the sparse
    // path pays O(frontier). The ≥2× acceptance bar for this PR lives on
    // this benchmark.
    let n = 200_000usize;
    let mut b = GraphBuilder::undirected(n);
    for v in 0..(n as u32 - 1) {
        b.push_edge(v, v + 1);
    }
    let path_graph = b.build();
    let sssp_states: Vec<u32> = (0..n as u32)
        .map(|v| if v == 0 { 0 } else { u32::MAX })
        .collect();

    let mut g = c.benchmark_group("frontier");
    g.sample_size(10).measurement_time(Duration::from_secs(4));
    for (name, mode) in [
        ("sparse_sssp/dense_path", FrontierMode::Dense),
        ("sparse_sssp/frontier_path", FrontierMode::Adaptive),
    ] {
        g.bench_function(name, |b| {
            b.iter(|| {
                let cfg = ExecutionConfig::with_max_iterations(50).with_frontier_mode(mode);
                SyncEngine::new(
                    &path_graph,
                    HopFlood,
                    sssp_states.clone(),
                    vec![(); path_graph.num_edges()],
                )
                .run(&cfg)
            })
        });
    }

    // Always-active workload: every iteration is a full sweep, so the
    // adaptive engine must stay on the dense path and show no regression
    // (the ≤5% bar).
    let dense_graph = powerlaw_graph(&PowerLawConfig::new(100_000, 2.5, 5));
    for (name, mode) in [
        ("always_active/dense_path", FrontierMode::Dense),
        ("always_active/frontier_path", FrontierMode::Adaptive),
    ] {
        g.bench_function(name, |b| {
            b.iter(|| {
                let cfg = ExecutionConfig::default().with_frontier_mode(mode);
                run_probe(&dense_graph, &cfg)
            })
        });
    }
    g.finish();
}

criterion_group!(
    benches,
    engine_throughput,
    ablation_parallel_vs_sequential,
    ablation_executors,
    frontier_modes
);
criterion_main!(benches);
