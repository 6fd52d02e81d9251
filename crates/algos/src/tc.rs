//! Triangle Counting (paper §2.1).
//!
//! "For each edge in the graph, the TC program counts the number of
//! intersections of the neighbor sets on both endpoints." One gather pass
//! visits every edge from both sides and intersects sorted adjacency lists;
//! the program halts after a single iteration. TC is the paper's
//! fastest-converging algorithm (§4.5: three orders of magnitude fewer
//! iterations than DD) with constant per-edge EREAD (Figure 3).

use graphmine_engine::{ApplyInfo, EdgeSet, ExecutionConfig, RunTrace, SyncEngine, VertexProgram};
use graphmine_graph::{Direction, EdgeId, Graph, VertexId};

/// TC vertex program; the pre-sorted adjacency lives in the program since
/// CSR rows are not guaranteed sorted.
pub struct TriangleCount {
    sorted_adj: Vec<Vec<VertexId>>,
}

impl TriangleCount {
    /// Pre-sort every adjacency row of an undirected graph.
    pub fn new(graph: &Graph) -> TriangleCount {
        let sorted_adj = graph
            .vertices()
            .map(|v| {
                let mut row: Vec<VertexId> = graph.neighbors(v, Direction::Out).collect();
                row.sort_unstable();
                row
            })
            .collect();
        TriangleCount { sorted_adj }
    }

    /// Size of `N(a) ∩ N(b)` by sorted-merge.
    fn intersection(&self, a: VertexId, b: VertexId) -> u64 {
        let (mut i, mut j, mut count) = (0usize, 0usize, 0u64);
        let (ra, rb) = (&self.sorted_adj[a as usize], &self.sorted_adj[b as usize]);
        while i < ra.len() && j < rb.len() {
            match ra[i].cmp(&rb[j]) {
                std::cmp::Ordering::Less => i += 1,
                std::cmp::Ordering::Greater => j += 1,
                std::cmp::Ordering::Equal => {
                    count += 1;
                    i += 1;
                    j += 1;
                }
            }
        }
        count
    }
}

impl VertexProgram for TriangleCount {
    /// Twice the number of triangles incident to the vertex.
    type State = u64;
    type EdgeData = ();
    type Accum = u64;
    type Message = ();
    type Global = ();

    fn gather_edges(&self) -> EdgeSet {
        EdgeSet::Out
    }

    fn scatter_edges(&self) -> EdgeSet {
        EdgeSet::None
    }

    fn gather(
        &self,
        _graph: &Graph,
        v: VertexId,
        _e: EdgeId,
        nbr: VertexId,
        _v_state: &u64,
        _nbr_state: &u64,
        _edge: &(),
        _global: &(),
    ) -> u64 {
        self.intersection(v, nbr)
    }

    fn merge(&self, into: &mut u64, from: u64) {
        *into += from;
    }

    fn apply(
        &self,
        _v: VertexId,
        state: &mut u64,
        acc: Option<u64>,
        _msg: Option<&()>,
        _global: &(),
        info: &mut ApplyInfo,
    ) {
        let twice_local = acc.unwrap_or(0);
        info.ops += twice_local + 1;
        *state = twice_local;
    }

    fn should_halt(&self, iter: usize, _states: &[u64], _global: &()) -> bool {
        iter == 0
    }
}

/// Run triangle counting on an undirected graph. Returns the global
/// triangle count and the behavior trace. (Per-vertex incident counts are
/// `state / 2`.)
pub fn run_tc(graph: &Graph, config: &ExecutionConfig) -> (u64, RunTrace) {
    assert!(!graph.is_directed(), "TC expects an undirected graph");
    let program = TriangleCount::new(graph);
    let states = vec![0u64; graph.num_vertices()];
    let edge_data = vec![(); graph.num_edges()];
    let (finals, trace) =
        SyncEngine::with_global(graph, program, states, &edge_data, ()).run_resumable(config);
    // Each triangle is counted twice at each of its three vertices.
    let total: u64 = finals.iter().sum::<u64>() / 6;
    (total, trace)
}

/// Sequential node-iterator reference.
pub fn triangle_count_reference(graph: &Graph) -> u64 {
    let tc = TriangleCount::new(graph);
    let mut total = 0u64;
    for &(s, d) in graph.edge_list() {
        total += tc.intersection(s, d);
    }
    total / 3
}

#[cfg(test)]
mod tests {
    use super::*;
    use graphmine_graph::GraphBuilder;

    #[test]
    fn single_triangle() {
        let g = GraphBuilder::undirected(3)
            .edge(0, 1)
            .edge(1, 2)
            .edge(2, 0)
            .build();
        let (t, trace) = run_tc(&g, &ExecutionConfig::default());
        assert_eq!(t, 1);
        assert_eq!(trace.num_iterations(), 1);
    }

    #[test]
    fn k4_has_four_triangles() {
        let g = GraphBuilder::undirected(4)
            .edge(0, 1)
            .edge(0, 2)
            .edge(0, 3)
            .edge(1, 2)
            .edge(1, 3)
            .edge(2, 3)
            .build();
        let (t, _) = run_tc(&g, &ExecutionConfig::default());
        assert_eq!(t, 4);
        assert_eq!(t, triangle_count_reference(&g));
    }

    #[test]
    fn triangle_free_graph() {
        let mut b = GraphBuilder::undirected(10);
        for v in 0..9u32 {
            b.push_edge(v, v + 1);
        }
        let (t, _) = run_tc(&b.build(), &ExecutionConfig::default());
        assert_eq!(t, 0);
    }

    #[test]
    fn eread_is_exactly_two_per_edge() {
        let g = GraphBuilder::undirected(5)
            .edge(0, 1)
            .edge(1, 2)
            .edge(2, 3)
            .edge(3, 4)
            .edge(4, 0)
            .edge(0, 2)
            .build();
        let (_, trace) = run_tc(&g, &ExecutionConfig::default());
        assert_eq!(trace.iterations[0].edge_reads, 2 * 6);
        assert_eq!(trace.iterations[0].messages, 0);
    }

    #[test]
    fn matches_reference_on_denser_graph() {
        // Wheel graph: hub 0 connected to a cycle 1..=8.
        let mut b = GraphBuilder::undirected(9);
        for v in 1..=8u32 {
            b.push_edge(0, v);
            b.push_edge(v, if v == 8 { 1 } else { v + 1 });
        }
        let g = b.build();
        let (t, _) = run_tc(&g, &ExecutionConfig::default());
        assert_eq!(t, triangle_count_reference(&g));
        assert_eq!(t, 8); // one triangle per rim edge
    }

    #[test]
    #[should_panic(expected = "undirected")]
    fn directed_input_rejected() {
        let g = GraphBuilder::directed(3).edge(0, 1).build();
        let _ = run_tc(&g, &ExecutionConfig::default());
    }
}
