//! Single-Source Shortest Path (paper §2.1).
//!
//! "The source vertex is active initially. In each iteration, an active
//! vertex computes and updates distances for adjacent vertices." The active
//! fraction starts at 1/n and grows rapidly as the frontier expands — the
//! opposite shape from PageRank (paper §1) — then collapses once distances
//! settle.

use graphmine_engine::{
    ActiveInit, ApplyInfo, EdgeSet, ExecutionConfig, NoGlobal, RunTrace, SyncEngine, VertexProgram,
};
use graphmine_graph::{EdgeId, Graph, VertexId};

/// SSSP vertex program: state is the tentative distance; edges carry
/// non-negative weights.
pub struct ShortestPath {
    /// The source vertex.
    pub source: VertexId,
}

impl VertexProgram for ShortestPath {
    type State = f64;
    type EdgeData = f64;
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
        ActiveInit::Vertices(vec![self.source])
    }

    fn apply(
        &self,
        v: VertexId,
        state: &mut f64,
        _acc: Option<()>,
        msg: Option<&f64>,
        _global: &NoGlobal,
        info: &mut ApplyInfo,
    ) {
        info.ops += 1;
        match msg {
            Some(&candidate) if candidate < *state => *state = candidate,
            // First activation of the source carries no message.
            None if v == self.source => *state = 0.0,
            _ => {}
        }
    }

    fn scatter(
        &self,
        _graph: &Graph,
        _v: VertexId,
        _e: EdgeId,
        _nbr: VertexId,
        state: &f64,
        nbr_state: &f64,
        edge: &f64,
        _global: &NoGlobal,
    ) -> Option<f64> {
        let relaxed = state + edge;
        (relaxed < *nbr_state).then_some(relaxed)
    }

    fn combine(&self, into: &mut f64, from: f64) {
        *into = into.min(from);
    }

    fn schedule_priority(&self, _v: VertexId, msg: Option<&f64>) -> f64 {
        // Closest-frontier-first: on the async priority scheduler this
        // approximates Dijkstra order, cutting wasted re-relaxations.
        msg.map(|&d| -d).unwrap_or(f64::INFINITY)
    }
}

/// Run SSSP from `source` over an undirected weighted graph. Returns final
/// distances (`f64::INFINITY` when unreachable) and the behavior trace.
pub fn run_sssp(
    graph: &Graph,
    weights: &[f64],
    source: VertexId,
    config: &ExecutionConfig,
) -> (Vec<f64>, RunTrace) {
    assert_eq!(weights.len(), graph.num_edges());
    assert!(weights.iter().all(|&w| w >= 0.0), "negative edge weight");
    let states = vec![f64::INFINITY; graph.num_vertices()];
    SyncEngine::new(graph, ShortestPath { source }, states, weights).run_resumable(config)
}

/// Sequential Dijkstra reference implementation.
pub fn dijkstra(graph: &Graph, weights: &[f64], source: VertexId) -> Vec<f64> {
    use std::cmp::Reverse;
    use std::collections::BinaryHeap;

    /// f64 ordered wrapper; weights are non-negative and finite.
    #[derive(PartialEq)]
    struct D(f64);
    impl Eq for D {}
    impl PartialOrd for D {
        fn partial_cmp(&self, o: &D) -> Option<std::cmp::Ordering> {
            Some(self.cmp(o))
        }
    }
    impl Ord for D {
        fn cmp(&self, o: &D) -> std::cmp::Ordering {
            self.0.partial_cmp(&o.0).expect("finite distances")
        }
    }

    let n = graph.num_vertices();
    let mut dist = vec![f64::INFINITY; n];
    let mut heap = BinaryHeap::new();
    dist[source as usize] = 0.0;
    heap.push(Reverse((D(0.0), source)));
    while let Some(Reverse((D(d), v))) = heap.pop() {
        if d > dist[v as usize] {
            continue;
        }
        for (e, u) in graph.incident(v, graphmine_graph::Direction::Out) {
            let nd = d + weights[e as usize];
            if nd < dist[u as usize] {
                dist[u as usize] = nd;
                heap.push(Reverse((D(nd), u)));
            }
        }
    }
    dist
}

#[cfg(test)]
mod tests {
    use super::*;
    use graphmine_graph::GraphBuilder;

    fn weighted_diamond() -> (Graph, Vec<f64>) {
        // 0 -1.0- 1 -1.0- 3, 0 -5.0- 2 -0.5- 3: best 0→3 is 2.0 via 1.
        let g = GraphBuilder::undirected(4)
            .edge(0, 1)
            .edge(1, 3)
            .edge(0, 2)
            .edge(2, 3)
            .build();
        let mut w = vec![0.0; 4];
        for (i, &(s, d)) in g.edge_list().iter().enumerate() {
            w[i] = match (s, d) {
                (0, 1) => 1.0,
                (1, 3) => 1.0,
                (0, 2) => 5.0,
                (2, 3) => 0.5,
                _ => unreachable!(),
            };
        }
        (g, w)
    }

    #[test]
    fn matches_dijkstra_on_diamond() {
        let (g, w) = weighted_diamond();
        let (dist, trace) = run_sssp(&g, &w, 0, &ExecutionConfig::default());
        assert_eq!(dist, dijkstra(&g, &w, 0));
        assert_eq!(dist[3], 2.0);
        // Path through 2 costs 2.5 from the other side: 0→1→3→2 = 2.5.
        assert_eq!(dist[2], 2.5);
        assert!(trace.converged);
    }

    #[test]
    fn frontier_grows_from_one() {
        let mut b = GraphBuilder::undirected(64);
        for v in 0..63u32 {
            b.push_edge(v, v + 1);
        }
        let g = b.build();
        let w = vec![1.0; g.num_edges()];
        let (_, trace) = run_sssp(&g, &w, 0, &ExecutionConfig::default());
        let af = trace.active_fraction();
        assert!(af[0] < 0.05, "starts with just the source");
        // On a path the frontier is constant-size; on expanders it grows.
        // Either way iteration 1 is at least as active as iteration 0.
        assert!(af[1] >= af[0]);
    }

    #[test]
    fn unreachable_stays_infinite() {
        let g = GraphBuilder::undirected(3).edge(0, 1).build();
        let w = vec![1.0; 1];
        let (dist, _) = run_sssp(&g, &w, 0, &ExecutionConfig::default());
        assert_eq!(dist[2], f64::INFINITY);
    }

    #[test]
    #[should_panic(expected = "negative edge weight")]
    fn negative_weights_rejected() {
        let g = GraphBuilder::undirected(2).edge(0, 1).build();
        let _ = run_sssp(&g, &[-1.0], 0, &ExecutionConfig::default());
    }

    #[test]
    fn source_distance_zero() {
        let (g, w) = weighted_diamond();
        let (dist, _) = run_sssp(&g, &w, 3, &ExecutionConfig::default());
        assert_eq!(dist[3], 0.0);
        assert_eq!(dist, dijkstra(&g, &w, 3));
    }
}
