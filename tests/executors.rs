//! Cross-executor equivalence: the same vertex programs reach the same
//! fixed points on the synchronous, asynchronous, and edge-centric
//! engines (paper §3.3: "the basic behavior of graph computation is
//! conserved" across computation models).

use graphmine_algos::cc::ConnectedComponents;
use graphmine_algos::sssp::ShortestPath;
use graphmine_engine::{
    async_run, edge_centric_run, AsyncConfig, EdgeCentricConfig, ExecutionConfig, NoGlobal,
    SyncEngine,
};
use graphmine_gen::{gaussian_edge_weights, powerlaw_graph, PowerLawConfig};
use graphmine_graph::union_find_components;

#[test]
fn cc_same_fixed_point_on_all_three_executors() {
    let graph = powerlaw_graph(&PowerLawConfig::new(4_000, 2.5, 77));
    let labels: Vec<u32> = (0..graph.num_vertices() as u32).collect();
    let edges = vec![(); graph.num_edges()];
    let expected = union_find_components(&graph);

    let (sync_labels, sync_trace) =
        SyncEngine::new(&graph, ConnectedComponents, labels.clone(), &edges)
            .run(&ExecutionConfig::default());
    assert_eq!(sync_labels, expected);
    assert!(sync_trace.converged);

    let (async_labels, async_stats) = async_run(
        &graph,
        &ConnectedComponents,
        labels.clone(),
        &edges,
        NoGlobal,
        &AsyncConfig::default(),
    );
    assert_eq!(async_labels, expected);
    assert!(async_stats.converged);

    let (ec_labels, ec_trace) = edge_centric_run(
        &graph,
        &ConnectedComponents,
        labels,
        &edges,
        NoGlobal,
        &EdgeCentricConfig::default(),
    );
    assert_eq!(ec_labels, expected);
    assert!(ec_trace.converged);
}

#[test]
fn sssp_same_distances_on_all_three_executors() {
    let graph = powerlaw_graph(&PowerLawConfig::new(3_000, 2.25, 31));
    let weights = gaussian_edge_weights(graph.num_edges(), 31);
    let program = ShortestPath { source: 0 };
    let init = vec![f64::INFINITY; graph.num_vertices()];

    let (sync_dist, _) =
        SyncEngine::new(&graph, ShortestPath { source: 0 }, init.clone(), &weights)
            .run(&ExecutionConfig::default());

    let (async_dist, stats) = async_run(
        &graph,
        &program,
        init.clone(),
        &weights,
        NoGlobal,
        &AsyncConfig::default(),
    );
    assert!(stats.converged);
    for (v, (a, b)) in sync_dist.iter().zip(async_dist.iter()).enumerate() {
        assert!(
            (a - b).abs() < 1e-9 || (a.is_infinite() && b.is_infinite()),
            "vertex {v}: sync {a} vs async {b}"
        );
    }

    let (ec_dist, _) = edge_centric_run(
        &graph,
        &program,
        init,
        &weights,
        NoGlobal,
        &EdgeCentricConfig::default(),
    );
    for (v, (a, b)) in sync_dist.iter().zip(ec_dist.iter()).enumerate() {
        assert!(
            (a - b).abs() < 1e-9 || (a.is_infinite() && b.is_infinite()),
            "vertex {v}: sync {a} vs edge-centric {b}"
        );
    }
}

#[test]
fn async_does_no_more_updates_than_it_needs() {
    // Asynchronous CC typically performs far fewer updates than
    // synchronous iterations x vertices, because quiet vertices are never
    // rescheduled. Sanity-check the accounting is in that regime.
    let graph = powerlaw_graph(&PowerLawConfig::new(5_000, 2.5, 3));
    let labels: Vec<u32> = (0..graph.num_vertices() as u32).collect();
    let edges = vec![(); graph.num_edges()];
    let (_, sync_trace) = SyncEngine::new(&graph, ConnectedComponents, labels.clone(), &edges)
        .run(&ExecutionConfig::default());
    let sync_updates: u64 = sync_trace.iterations.iter().map(|it| it.updates).sum();
    let (_, stats) = async_run(
        &graph,
        &ConnectedComponents,
        labels,
        &edges,
        NoGlobal,
        &AsyncConfig::default(),
    );
    assert!(
        stats.updates <= 3 * sync_updates,
        "async {} vs sync {}",
        stats.updates,
        sync_updates
    );
    assert!(stats.updates >= graph.num_vertices() as u64);
}

#[test]
fn priority_scheduler_wastes_fewer_sssp_updates() {
    // Single worker so the comparison is about scheduling order, not
    // thread interleaving. Closest-first ordering approximates Dijkstra,
    // so it should never need more updates than FIFO (and usually far
    // fewer on weighted graphs).
    let graph = powerlaw_graph(&PowerLawConfig::new(4_000, 2.5, 5));
    let weights = gaussian_edge_weights(graph.num_edges(), 5);
    let program = ShortestPath { source: 0 };
    let init = vec![f64::INFINITY; graph.num_vertices()];
    let run = |priority: bool| {
        let mut cfg = AsyncConfig {
            threads: 1,
            ..AsyncConfig::default()
        };
        if priority {
            cfg = cfg.with_priority_scheduler();
        }
        async_run(&graph, &program, init.clone(), &weights, NoGlobal, &cfg)
    };
    let (fifo_dist, fifo_stats) = run(false);
    let (prio_dist, prio_stats) = run(true);
    for (a, b) in fifo_dist.iter().zip(prio_dist.iter()) {
        assert!((a - b).abs() < 1e-9 || (a.is_infinite() && b.is_infinite()));
    }
    assert!(
        prio_stats.updates <= fifo_stats.updates,
        "priority {} vs fifo {}",
        prio_stats.updates,
        fifo_stats.updates
    );
}
