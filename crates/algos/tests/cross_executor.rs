//! Cross-executor parity on realistic workloads.
//!
//! The paper's premise (§3.3) is that behavior is a property of the
//! *computation*, not the execution engine: "the basic behavior of graph
//! computation is conserved" across computation models. These tests pin
//! that down for the three executors — synchronous vertex-centric,
//! asynchronous queue-driven, and edge-centric streaming — and double as
//! the guard rail for the frontier-aware engine refactor: CC and SSSP are
//! exactly the sparse-frontier algorithms whose active sets collapse to a
//! trickle, so they exercise the sparse path hard on a graph big enough
//! (~50k vertices) that chunked parallelism and the adaptive threshold both
//! engage.

use graphmine_algos::cc::ConnectedComponents;
use graphmine_algos::sssp::{dijkstra, ShortestPath};
use graphmine_algos::{
    run_algorithm, run_algorithm_digest, AlgorithmKind, Domain, SuiteConfig, Workload,
};
use graphmine_engine::{
    async_run, edge_centric_run, AsyncConfig, DirectionChoice, DirectionMode, EdgeCentricConfig,
    ExecutionConfig, FrontierMode, IterationStats, NoGlobal, RunTrace, SyncEngine,
    SPARSE_FRONTIER_THRESHOLD,
};
use graphmine_gen::{gaussian_edge_weights, powerlaw_graph, PowerLawConfig};
use graphmine_graph::{Graph, Representation};

/// A ~50k-vertex scale-free graph (mean degree 16 ⇒ 400k edges / 8).
fn big_powerlaw() -> Graph {
    powerlaw_graph(&PowerLawConfig::new(400_000, 2.5, 42))
}

fn strip(t: &RunTrace) -> Vec<IterationStats> {
    t.iterations
        .iter()
        .map(IterationStats::normalized)
        .collect()
}

#[test]
fn cc_final_states_agree_across_executors() {
    let g = big_powerlaw();
    let n = g.num_vertices();
    assert!(n >= 40_000, "graph too small to exercise chunking: {n}");
    let init: Vec<u32> = (0..n as u32).collect();
    let edge_data = vec![(); g.num_edges()];

    let (sync_labels, sync_trace) =
        SyncEngine::new(&g, ConnectedComponents, init.clone(), &edge_data)
            .run(&ExecutionConfig::default());
    assert!(sync_trace.converged);

    let (async_labels, _) = async_run(
        &g,
        &ConnectedComponents,
        init.clone(),
        &edge_data,
        NoGlobal,
        &AsyncConfig::default(),
    );
    let (ec_labels, ec_trace) = edge_centric_run(
        &g,
        &ConnectedComponents,
        init,
        &edge_data,
        NoGlobal,
        &EdgeCentricConfig::default(),
    );
    assert!(ec_trace.converged);

    // Min-label is order-insensitive, so all three executors must land on
    // the identical fixed point.
    assert_eq!(sync_labels, async_labels);
    assert_eq!(sync_labels, ec_labels);
}

#[test]
fn sssp_final_states_agree_across_executors_and_match_dijkstra() {
    let g = big_powerlaw();
    let n = g.num_vertices();
    let weights = gaussian_edge_weights(g.num_edges(), 7);
    let source = 0u32;
    let init = vec![f64::INFINITY; n];

    let (sync_dist, sync_trace) =
        SyncEngine::new(&g, ShortestPath { source }, init.clone(), &weights)
            .run(&ExecutionConfig::default());
    assert!(sync_trace.converged);

    let (async_dist, _) = async_run(
        &g,
        &ShortestPath { source },
        init.clone(),
        &weights,
        NoGlobal,
        &AsyncConfig::default(),
    );
    let (ec_dist, ec_trace) = edge_centric_run(
        &g,
        &ShortestPath { source },
        init,
        &weights,
        NoGlobal,
        &EdgeCentricConfig::default(),
    );
    assert!(ec_trace.converged);

    // Distance relaxation computes every candidate as the same hop-by-hop
    // sum regardless of executor, and min-combining is exact on f64, so
    // parity is bitwise, not approximate.
    assert_eq!(sync_dist, async_dist);
    assert_eq!(sync_dist, ec_dist);
    assert_eq!(sync_dist, dijkstra(&g, &weights, source));

    // SSSP's frontier collapses far below the adaptive threshold in its
    // tail — the whole point of the sparse path. Make sure this workload
    // actually exercised it.
    assert!(sync_trace.sparse_iterations(SPARSE_FRONTIER_THRESHOLD) > 0);
}

/// Behavior counters must be byte-for-byte identical between the dense and
/// adaptive frontier paths on the full 14-algorithm suite: the frontier
/// representation is a mechanical speedup, never a semantic change.
#[test]
fn frontier_mode_preserves_counters_on_full_suite() {
    let pl = Workload::powerlaw(20_000, 2.5, 11);
    let ratings = Workload::ratings(8_000, 2.5, 12);
    let matrix = Workload::matrix(300, 13);
    let grid = Workload::grid(12, 14);
    let mrf = Workload::mrf(1_000, 15);

    let config_with = |mode: FrontierMode| SuiteConfig {
        exec: ExecutionConfig::with_max_iterations(60).with_frontier_mode(mode),
        ..SuiteConfig::default()
    };

    for alg in AlgorithmKind::ALL {
        let workload = match alg.domain() {
            Domain::GraphAnalytics | Domain::Clustering => &pl,
            Domain::CollaborativeFiltering => &ratings,
            Domain::LinearSolver => &matrix,
            Domain::GraphicalModel => {
                if alg == AlgorithmKind::Lbp {
                    &grid
                } else {
                    &mrf
                }
            }
        };
        let dense = run_algorithm(alg, workload, &config_with(FrontierMode::Dense))
            .unwrap_or_else(|e| panic!("{alg}: {e}"));
        let adaptive = run_algorithm(alg, workload, &config_with(FrontierMode::Adaptive))
            .unwrap_or_else(|e| panic!("{alg}: {e}"));
        assert_eq!(
            strip(&dense),
            strip(&adaptive),
            "{alg}: dense vs adaptive counters diverged"
        );
        assert_eq!(dense.converged, adaptive.converged, "{alg}: convergence");
    }
}

/// Delta-varint compressed adjacency must be invisible to every
/// algorithm: across the full 14-algorithm suite and all three scatter
/// modes, the final result (labels, distances, factors, …) must be
/// **bit-identical** between `Plain` and `Compressed` — the engine
/// traverses both through the same `incident()` iterator in the same
/// order, so even non-associative f64 reductions agree exactly.
#[test]
fn compressed_representation_is_bit_identical_on_full_suite() {
    let pl = Workload::powerlaw(20_000, 2.5, 11);
    let ratings = Workload::ratings(8_000, 2.5, 12);
    let matrix = Workload::matrix(300, 13);
    let grid = Workload::grid(12, 14);
    let mrf = Workload::mrf(1_000, 15);

    let config_with = |dir: DirectionMode| SuiteConfig {
        exec: ExecutionConfig::with_max_iterations(40).with_direction(dir),
        ..SuiteConfig::default()
    };

    for plain in [&pl, &ratings, &matrix, &grid, &mrf] {
        let compressed = plain
            .with_representation(Representation::Compressed)
            .expect("suite workloads have sorted rows");
        assert_eq!(
            compressed.graph().representation(),
            Representation::Compressed
        );
        // The compressed rows must genuinely shrink the neighbor payload
        // (guards against a silent fall-back to plain).
        let plain_bytes = plain
            .graph()
            .neighbor_payload_bytes(graphmine_graph::Direction::Out);
        let packed_bytes = compressed
            .graph()
            .neighbor_payload_bytes(graphmine_graph::Direction::Out);
        assert!(
            packed_bytes < plain_bytes,
            "compression did not shrink payload: {packed_bytes} vs {plain_bytes}"
        );
        for alg in AlgorithmKind::ALL {
            let expected = match alg.domain() {
                Domain::GraphAnalytics | Domain::Clustering => &pl,
                Domain::CollaborativeFiltering => &ratings,
                Domain::LinearSolver => &matrix,
                Domain::GraphicalModel => {
                    if alg == AlgorithmKind::Lbp {
                        &grid
                    } else {
                        &mrf
                    }
                }
            };
            if !std::ptr::eq(expected as *const _, plain as *const _) {
                continue;
            }
            for dir in [
                DirectionMode::Push,
                DirectionMode::Pull,
                DirectionMode::Auto,
            ] {
                let (d_plain, t_plain) = run_algorithm_digest(alg, plain, &config_with(dir))
                    .unwrap_or_else(|e| panic!("{alg}: {e}"));
                let (d_packed, t_packed) =
                    run_algorithm_digest(alg, &compressed, &config_with(dir))
                        .unwrap_or_else(|e| panic!("{alg}: {e}"));
                assert_eq!(
                    d_plain, d_packed,
                    "{alg} ({dir:?}): plain vs compressed results diverged"
                );
                assert_eq!(
                    t_plain.without_wall_clock(),
                    t_packed.without_wall_clock(),
                    "{alg} ({dir:?}): plain vs compressed counters diverged"
                );
            }
        }
    }
}

/// The task plan must never change results: the cache window
/// (`segment_bytes`), the shard count and the pool size only decide how
/// destination chunks are grouped into tasks, and chunks inside a task
/// process in the same ascending order with unchanged per-chunk merge
/// order. Referenced by the `ExecutionConfig::segment_bytes` docs.
#[test]
fn segment_bytes_is_bit_identical() {
    let pl = Workload::powerlaw(20_000, 2.5, 11);
    let compressed = pl
        .with_representation(Representation::Compressed)
        .expect("power-law has sorted rows");
    let config_with = |bytes: usize, shards: usize| SuiteConfig {
        exec: ExecutionConfig::with_max_iterations(40)
            .with_direction(DirectionMode::Auto)
            .with_segment_bytes(bytes)
            .with_shards(shards),
        ..SuiteConfig::default()
    };
    let pools: Vec<rayon::ThreadPool> = [1, 2, 8]
        .into_iter()
        .map(|threads| {
            rayon::ThreadPoolBuilder::new()
                .num_threads(threads)
                .build()
                .expect("pool")
        })
        .collect();
    for alg in [AlgorithmKind::Pr, AlgorithmKind::Sssp, AlgorithmKind::Cc] {
        for workload in [&pl, &compressed] {
            let mut digests: Vec<u64> = Vec::new();
            // The plan follows the pool size, so every window and shard
            // count runs under every pool.
            for pool in &pools {
                for shards in [1usize, 2, 8] {
                    // 0 clamps to one chunk per task; 1 MiB spans many
                    // chunks; the default sits between.
                    for bytes in [0usize, 16 * 1024, 256 * 1024, 1024 * 1024] {
                        let config = config_with(bytes, shards);
                        let (digest, _) = pool
                            .install(|| run_algorithm_digest(alg, workload, &config))
                            .unwrap_or_else(|e| panic!("{alg}: {e}"));
                        digests.push(digest);
                    }
                }
            }
            assert!(
                digests.windows(2).all(|w| w[0] == w[1]),
                "{alg}: the task plan changed results: {digests:?}"
            );
        }
    }
}

/// Forced-`Push`, forced-`Pull`, and `Auto` scatter must produce
/// bit-identical normalized traces on the full 14-algorithm suite: the
/// scatter direction is a mechanical speedup, never a semantic change.
/// (Programs without an out-edge scatter fall back to push in every mode,
/// which makes the identity trivially — and deliberately — covered too.)
#[test]
fn direction_mode_preserves_counters_on_full_suite() {
    let pl = Workload::powerlaw(20_000, 2.5, 11);
    let ratings = Workload::ratings(8_000, 2.5, 12);
    let matrix = Workload::matrix(300, 13);
    let grid = Workload::grid(12, 14);
    let mrf = Workload::mrf(1_000, 15);

    let config_with = |dir: DirectionMode| SuiteConfig {
        exec: ExecutionConfig::with_max_iterations(60).with_direction(dir),
        ..SuiteConfig::default()
    };

    let mut auto_pulled = false;
    let mut auto_pushed = false;
    for alg in AlgorithmKind::ALL {
        let workload = match alg.domain() {
            Domain::GraphAnalytics | Domain::Clustering => &pl,
            Domain::CollaborativeFiltering => &ratings,
            Domain::LinearSolver => &matrix,
            Domain::GraphicalModel => {
                if alg == AlgorithmKind::Lbp {
                    &grid
                } else {
                    &mrf
                }
            }
        };
        let push = run_algorithm(alg, workload, &config_with(DirectionMode::Push))
            .unwrap_or_else(|e| panic!("{alg}: {e}"));
        let pull = run_algorithm(alg, workload, &config_with(DirectionMode::Pull))
            .unwrap_or_else(|e| panic!("{alg}: {e}"));
        let auto = run_algorithm(alg, workload, &config_with(DirectionMode::Auto))
            .unwrap_or_else(|e| panic!("{alg}: {e}"));
        assert_eq!(
            push.without_wall_clock(),
            pull.without_wall_clock(),
            "{alg}: push vs pull counters diverged"
        );
        assert_eq!(
            push.without_wall_clock(),
            auto.without_wall_clock(),
            "{alg}: push vs auto counters diverged"
        );
        auto_pulled |= auto
            .iterations
            .iter()
            .any(|it| it.direction == DirectionChoice::Pull);
        auto_pushed |= auto
            .iterations
            .iter()
            .any(|it| it.direction == DirectionChoice::Push);
    }
    // The suite must genuinely exercise both paths under Auto: the
    // constant-active programs (PR, KC start) keep dense frontiers that
    // pull, while SSSP/CC tails collapse to push territory.
    assert!(auto_pulled, "Auto never chose pull anywhere in the suite");
    assert!(auto_pushed, "Auto never chose push anywhere in the suite");
}
