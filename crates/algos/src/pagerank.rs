//! PageRank (paper §2.1).
//!
//! "All vertices are active initially. A vertex becomes inactive when its
//! rank remains stable within a given tolerance." Ranks are gathered from
//! neighbors (one edge read per neighbor per iteration), so PR exercises
//! both communication channels: EREADs for rank flow and MSGs for
//! reactivation signals — the distinction the paper calls out in §3.4.

use graphmine_engine::{
    ApplyInfo, EdgeSet, ExecutionConfig, NoGlobal, RunTrace, SyncEngine, VertexProgram,
};
use graphmine_graph::{Direction, EdgeId, Graph, VertexId};
use serde::{Deserialize, Serialize};

/// Damping factor (the classic 0.85).
pub const DAMPING: f64 = 0.85;

/// Per-vertex PageRank state.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct PrState {
    /// Current rank estimate (un-normalized "random surfer mass"; the
    /// stationary values average to 1).
    pub rank: f64,
    /// Magnitude of the last apply's change, used to gate scattering.
    pub last_change: f64,
}

/// The PageRank vertex program over an undirected graph: each neighbor
/// contributes `rank / degree`.
pub struct PageRank {
    /// Convergence tolerance on per-vertex rank change.
    pub tolerance: f64,
}

impl Default for PageRank {
    fn default() -> PageRank {
        PageRank { tolerance: 1e-3 }
    }
}

impl VertexProgram for PageRank {
    type State = PrState;
    type EdgeData = ();
    type Accum = f64;
    type Message = ();
    type Global = NoGlobal;

    fn gather_edges(&self) -> EdgeSet {
        EdgeSet::Out
    }

    fn scatter_edges(&self) -> EdgeSet {
        EdgeSet::Out
    }

    fn gather(
        &self,
        graph: &Graph,
        _v: VertexId,
        _e: EdgeId,
        nbr: VertexId,
        _v_state: &PrState,
        nbr_state: &PrState,
        _edge: &(),
        _global: &NoGlobal,
    ) -> f64 {
        nbr_state.rank / graph.degree_dir(nbr, Direction::Out).max(1) as f64
    }

    fn merge(&self, into: &mut f64, from: f64) {
        *into += from;
    }

    fn apply(
        &self,
        _v: VertexId,
        state: &mut PrState,
        acc: Option<f64>,
        _msg: Option<&()>,
        _global: &NoGlobal,
        info: &mut ApplyInfo,
    ) {
        info.ops += 2;
        let sum = acc.unwrap_or(0.0);
        let new_rank = (1.0 - DAMPING) + DAMPING * sum;
        state.last_change = (new_rank - state.rank).abs();
        state.rank = new_rank;
    }

    fn scatter(
        &self,
        _graph: &Graph,
        _v: VertexId,
        _e: EdgeId,
        _nbr: VertexId,
        state: &PrState,
        _nbr_state: &PrState,
        _edge: &(),
        _global: &NoGlobal,
    ) -> Option<()> {
        // Keep neighbors active while this vertex's rank is still moving.
        (state.last_change > self.tolerance).then_some(())
    }

    fn combine(&self, _into: &mut (), _from: ()) {}
}

/// Run PageRank; returns per-vertex ranks and the behavior trace.
pub fn run_pagerank(graph: &Graph, config: &ExecutionConfig) -> (Vec<f64>, RunTrace) {
    run_pagerank_with_tolerance(graph, 1e-3, config)
}

/// Run PageRank with an explicit tolerance.
pub fn run_pagerank_with_tolerance(
    graph: &Graph,
    tolerance: f64,
    config: &ExecutionConfig,
) -> (Vec<f64>, RunTrace) {
    run_pagerank_with_config(graph, tolerance, config)
}

/// Run PageRank with full control over the execution configuration
/// (including the cluster-simulation partition).
pub fn run_pagerank_with_config(
    graph: &Graph,
    tolerance: f64,
    config: &ExecutionConfig,
) -> (Vec<f64>, RunTrace) {
    let states = vec![
        PrState {
            rank: 1.0,
            last_change: f64::INFINITY,
        };
        graph.num_vertices()
    ];
    let edge_data = vec![(); graph.num_edges()];
    let (finals, trace) =
        SyncEngine::new(graph, PageRank { tolerance }, states, &edge_data).run_resumable(config);
    (finals.into_iter().map(|s| s.rank).collect(), trace)
}

/// Sequential power-iteration reference (fixed iteration count).
pub fn power_iteration(graph: &Graph, iterations: usize) -> Vec<f64> {
    let n = graph.num_vertices();
    let mut rank = vec![1.0f64; n];
    for _ in 0..iterations {
        let mut next = vec![1.0 - DAMPING; n];
        for v in graph.vertices() {
            let share = rank[v as usize] / graph.degree_dir(v, Direction::Out).max(1) as f64;
            for u in graph.neighbors(v, Direction::Out) {
                next[u as usize] += DAMPING * share;
            }
        }
        rank = next;
    }
    rank
}

#[cfg(test)]
mod tests {
    use super::*;
    use graphmine_graph::GraphBuilder;

    fn lollipop() -> Graph {
        // Triangle 0-1-2 with a tail 2-3-4.
        GraphBuilder::undirected(5)
            .edge(0, 1)
            .edge(1, 2)
            .edge(2, 0)
            .edge(2, 3)
            .edge(3, 4)
            .build()
    }

    #[test]
    fn matches_power_iteration() {
        let g = lollipop();
        let cfg = ExecutionConfig::default();
        let (ranks, _) = run_pagerank_with_tolerance(&g, 1e-9, &cfg);
        let reference = power_iteration(&g, 200);
        for (a, b) in ranks.iter().zip(reference.iter()) {
            assert!((a - b).abs() < 1e-6, "{a} vs {b}");
        }
    }

    #[test]
    fn hub_outranks_leaf() {
        let g = lollipop();
        let (ranks, _) = run_pagerank(&g, &ExecutionConfig::default());
        assert!(ranks[2] > ranks[4], "hub {} vs leaf {}", ranks[2], ranks[4]);
    }

    #[test]
    fn mass_is_conserved_approximately() {
        let g = lollipop();
        let (ranks, _) = run_pagerank_with_tolerance(&g, 1e-9, &ExecutionConfig::default());
        let total: f64 = ranks.iter().sum();
        // Undirected graph, no dangling mass: total ≈ n.
        assert!((total - 5.0).abs() < 1e-3, "total {total}");
    }

    #[test]
    fn active_fraction_decays_gradually() {
        // Per the paper: PR starts fully active, then the fraction decreases.
        let mut b = GraphBuilder::undirected(60);
        for v in 0..59u32 {
            b.push_edge(v, v + 1);
        }
        b.push_edge(0, 30); // a chord to vary degrees
        let g = b.build();
        let (_, trace) = run_pagerank(&g, &ExecutionConfig::default());
        let af = trace.active_fraction();
        assert_eq!(af[0], 1.0);
        assert!(trace.converged);
        assert!(af[af.len() - 1] < 1.0);
    }

    #[test]
    fn ereads_track_active_degree() {
        let g = lollipop(); // degree sum 10
        let (_, trace) = run_pagerank(&g, &ExecutionConfig::default());
        // First iteration: everything active → exactly one read per
        // directed adjacency slot.
        assert_eq!(trace.iterations[0].edge_reads, 10);
    }

    #[test]
    fn looser_tolerance_converges_faster() {
        let mut b = GraphBuilder::undirected(40);
        for v in 0..39u32 {
            b.push_edge(v, v + 1);
        }
        let g = b.build();
        let cfg = ExecutionConfig::default();
        let (_, loose) = run_pagerank_with_tolerance(&g, 1e-2, &cfg);
        let (_, tight) = run_pagerank_with_tolerance(&g, 1e-8, &cfg);
        assert!(loose.num_iterations() < tight.num_iterations());
    }
}
