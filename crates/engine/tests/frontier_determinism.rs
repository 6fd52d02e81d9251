//! Bit-level determinism of the parallel message exchange.
//!
//! Floating-point addition is not associative, so a parallel engine is only
//! deterministic if it fixes the *order* in which messages targeting the
//! same vertex are combined. The engine's contract: messages are combined
//! per destination chunk, walking source chunks in ascending order and each
//! source's emissions in scan order — an order that depends only on the
//! graph and the vertex count, never on thread scheduling. These tests pin
//! that contract with float-accumulating programs run under rayon pools of
//! 1, 2, and 8 threads, in sequential mode, and under all three frontier
//! representations: every combination must produce bit-identical states and
//! (timing aside) bit-identical traces.

use graphmine_engine::{
    ActiveInit, ApplyInfo, DirectionMode, EdgeSet, ExecutionConfig, FrontierMode, IterationStats,
    NoGlobal, RunTrace, SyncEngine, VertexProgram, SPARSE_FRONTIER_THRESHOLD,
};
use graphmine_gen::{powerlaw_graph, PowerLawConfig};
use graphmine_graph::{EdgeId, Graph, VertexId};

/// PageRank-style program: every vertex stays active and pushes a share of
/// its rank to each neighbor every iteration; shares are float-added by the
/// combiner, so high-degree vertices fold hundreds of messages — maximum
/// sensitivity to combine order.
struct PushRank;

impl VertexProgram for PushRank {
    type State = f64;
    type EdgeData = ();
    type Accum = ();
    type Message = f64;
    type Global = NoGlobal;

    fn gather_edges(&self) -> EdgeSet {
        EdgeSet::None
    }
    fn scatter_edges(&self) -> EdgeSet {
        EdgeSet::Out
    }
    fn always_active(&self) -> bool {
        true
    }
    fn apply(
        &self,
        _v: VertexId,
        state: &mut f64,
        _acc: Option<()>,
        msg: Option<&f64>,
        _g: &NoGlobal,
        info: &mut ApplyInfo,
    ) {
        info.ops += 1;
        if let Some(&sum) = msg {
            *state = 0.15 + 0.85 * sum;
        }
    }
    fn scatter(
        &self,
        graph: &Graph,
        v: VertexId,
        _e: EdgeId,
        _nbr: VertexId,
        state: &f64,
        _nbr_state: &f64,
        _edge: &(),
        _g: &NoGlobal,
    ) -> Option<f64> {
        let deg = graph.neighbors(v, graphmine_graph::Direction::Out).len();
        Some(*state / deg as f64)
    }
    fn combine(&self, into: &mut f64, from: f64) {
        *into += from;
    }
    fn should_halt(&self, iter: usize, _s: &[f64], _g: &NoGlobal) -> bool {
        iter + 1 >= 8
    }
}

/// Heat diffusion from a few seeds with message-driven activation: the
/// frontier starts at 3 vertices, grows across the sparse threshold, and
/// every message is a float that decays per hop — so this run crosses the
/// sparse/dense boundary *while* float-combining, the hardest case for the
/// exchange's determinism.
struct Diffuse;

impl VertexProgram for Diffuse {
    type State = f64;
    type EdgeData = ();
    type Accum = ();
    type Message = f64;
    type Global = NoGlobal;

    fn gather_edges(&self) -> EdgeSet {
        EdgeSet::None
    }
    fn scatter_edges(&self) -> EdgeSet {
        EdgeSet::Out
    }
    fn initial_active(&self) -> ActiveInit {
        ActiveInit::Vertices(vec![0, 1, 2])
    }
    fn apply(
        &self,
        v: VertexId,
        state: &mut f64,
        _acc: Option<()>,
        msg: Option<&f64>,
        _g: &NoGlobal,
        info: &mut ApplyInfo,
    ) {
        info.ops += 1;
        match msg {
            Some(&heat) => *state += heat,
            None => *state = 100.0 + v as f64, // seed heat on first activation
        }
    }
    fn scatter(
        &self,
        graph: &Graph,
        v: VertexId,
        _e: EdgeId,
        _nbr: VertexId,
        state: &f64,
        _nbr_state: &f64,
        _edge: &(),
        _g: &NoGlobal,
    ) -> Option<f64> {
        let deg = graph.neighbors(v, graphmine_graph::Direction::Out).len();
        let share = *state * 0.2 / deg as f64;
        (share > 1e-4).then_some(share)
    }
    fn combine(&self, into: &mut f64, from: f64) {
        *into += from;
    }
}

fn strip(t: &RunTrace) -> Vec<IterationStats> {
    t.iterations
        .iter()
        .map(IterationStats::normalized)
        .collect()
}

fn graph() -> Graph {
    powerlaw_graph(&PowerLawConfig::new(12_000, 2.3, 99))
}

fn run_in_pool<P, F>(threads: usize, f: F) -> P
where
    P: Send,
    F: FnOnce() -> P + Send,
{
    rayon::ThreadPoolBuilder::new()
        .num_threads(threads)
        .build()
        .expect("pool")
        .install(f)
}

#[test]
fn pushrank_bit_identical_across_thread_counts() {
    let g = graph();
    let n = g.num_vertices();
    let init = vec![1.0f64; n];
    let run = |cfg: ExecutionConfig| {
        let edge_data = vec![(); g.num_edges()];
        SyncEngine::new(&g, PushRank, init.clone(), &edge_data).run(&cfg)
    };

    let (ref_states, ref_trace) = run(ExecutionConfig::default().sequential());
    for threads in [1, 2, 8] {
        let (states, trace) = run_in_pool(threads, || run(ExecutionConfig::default()));
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        assert_eq!(
            bits(&states),
            bits(&ref_states),
            "{threads}-thread pool diverged from sequential"
        );
        assert_eq!(strip(&trace), strip(&ref_trace), "{threads}-thread trace");
    }
}

#[test]
fn pushrank_forced_push_bit_identical_across_thread_counts() {
    // The direction refactor must leave the push exchange's float combine
    // order untouched: forced-Push runs under pools of 1/2/8 threads stay
    // bit-identical to the sequential push run.
    let g = graph();
    let n = g.num_vertices();
    let init = vec![1.0f64; n];
    let run = |cfg: ExecutionConfig| {
        let edge_data = vec![(); g.num_edges()];
        SyncEngine::new(&g, PushRank, init.clone(), &edge_data)
            .run(&cfg.with_direction(DirectionMode::Push))
    };
    let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();

    let (ref_states, ref_trace) = run(ExecutionConfig::default().sequential());
    for threads in [1, 2, 8] {
        let (states, trace) = run_in_pool(threads, || run(ExecutionConfig::default()));
        assert_eq!(
            bits(&states),
            bits(&ref_states),
            "{threads}-thread forced-push diverged from sequential"
        );
        assert_eq!(strip(&trace), strip(&ref_trace), "{threads}-thread trace");
    }

    // And forced-Pull, whose per-destination combine order is the in-row
    // order, must reproduce the push run's float sums bit-for-bit on this
    // deduplicated build (sorted rows make the two orders equal) — across
    // the same pool sizes.
    let pull = |threads: usize| {
        run_in_pool(threads, || {
            let edge_data = vec![(); g.num_edges()];
            SyncEngine::new(&g, PushRank, init.clone(), &edge_data)
                .run(&ExecutionConfig::default().with_direction(DirectionMode::Pull))
        })
    };
    for threads in [1, 2, 8] {
        let (states, trace) = pull(threads);
        assert_eq!(
            bits(&states),
            bits(&ref_states),
            "{threads}-thread forced-pull diverged from push"
        );
        assert_eq!(
            strip(&trace),
            strip(&ref_trace),
            "{threads}-thread forced-pull trace"
        );
    }
}

#[test]
fn compressed_adjacency_bit_identical_across_thread_counts() {
    // Delta-varint rows feed the exact same `incident()` traversal order
    // as plain slots, so the float combine order — and therefore every
    // state bit — must match the plain run under any pool size, in both
    // scatter directions and for both programs.
    let plain = graph();
    let packed = plain
        .to_representation(graphmine_graph::Representation::Compressed)
        .expect("dedup build has sorted rows");
    let n = plain.num_vertices();
    let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();

    let rank_init = vec![1.0f64; n];
    let rank = |g: &Graph, cfg: ExecutionConfig| {
        let edge_data = vec![(); g.num_edges()];
        SyncEngine::new(g, PushRank, rank_init.clone(), &edge_data).run(&cfg)
    };
    let diffuse_init = vec![0.0f64; n];
    let diffuse = |g: &Graph, cfg: ExecutionConfig| {
        let edge_data = vec![(); g.num_edges()];
        let cfg = ExecutionConfig {
            max_iterations: 40,
            ..cfg
        };
        SyncEngine::new(g, Diffuse, diffuse_init.clone(), &edge_data).run(&cfg)
    };

    for dir in [
        DirectionMode::Push,
        DirectionMode::Pull,
        DirectionMode::Auto,
    ] {
        let cfg = || ExecutionConfig::default().with_direction(dir);
        let (ref_rank, ref_rank_trace) = rank(&plain, cfg().sequential());
        let (ref_diff, ref_diff_trace) = diffuse(&plain, cfg().sequential());
        for threads in [1, 2, 8] {
            let (states, trace) = run_in_pool(threads, || rank(&packed, cfg()));
            assert_eq!(
                bits(&states),
                bits(&ref_rank),
                "{threads}-thread compressed pushrank ({dir:?}) diverged from plain"
            );
            assert_eq!(strip(&trace), strip(&ref_rank_trace), "{threads} ({dir:?})");
            let (states, trace) = run_in_pool(threads, || diffuse(&packed, cfg()));
            assert_eq!(
                bits(&states),
                bits(&ref_diff),
                "{threads}-thread compressed diffusion ({dir:?}) diverged from plain"
            );
            assert_eq!(strip(&trace), strip(&ref_diff_trace), "{threads} ({dir:?})");
        }
    }
}

#[test]
fn diffusion_bit_identical_across_threads_and_frontier_modes() {
    let g = graph();
    let n = g.num_vertices();
    let init = vec![0.0f64; n];
    let run = |cfg: ExecutionConfig| {
        let edge_data = vec![(); g.num_edges()];
        SyncEngine::new(&g, Diffuse, init.clone(), &edge_data)
            .run(&ExecutionConfig::with_max_iterations(40).with_frontier_mode(cfg.frontier_mode))
    };

    let reference = run_in_pool(1, || run(ExecutionConfig::default()));
    // The workload must actually straddle the threshold, or this test
    // proves nothing about the sparse path.
    assert!(reference
        .1
        .iterations
        .iter()
        .any(|it| it.frontier_density < SPARSE_FRONTIER_THRESHOLD));
    assert!(reference
        .1
        .iterations
        .iter()
        .any(|it| it.frontier_density >= SPARSE_FRONTIER_THRESHOLD));

    let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
    for threads in [1, 2, 8] {
        for mode in [
            FrontierMode::Adaptive,
            FrontierMode::Dense,
            FrontierMode::Sparse,
        ] {
            let (states, trace) = run_in_pool(threads, || {
                run(ExecutionConfig::default().with_frontier_mode(mode))
            });
            assert_eq!(
                bits(&states),
                bits(&reference.0),
                "{threads} threads / {mode:?} states diverged"
            );
            assert_eq!(
                strip(&trace),
                strip(&reference.1),
                "{threads} threads / {mode:?} trace diverged"
            );
        }
    }
}
