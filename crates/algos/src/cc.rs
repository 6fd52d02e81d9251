//! Connected Components (paper §2.1).
//!
//! "The CC program compares the IDs of adjacent vertices and only updates a
//! vertex if its ID is larger than the minimum value. Vertices only receive
//! data from neighbors that activate it." — minimum-label propagation over
//! an undirected graph, with message-driven activation: all vertices start
//! active, and the active set shrinks as labels settle (paper Figure 1).

use graphmine_engine::{
    ApplyInfo, EdgeSet, ExecutionConfig, NoGlobal, RunTrace, SyncEngine, VertexProgram,
};
use graphmine_graph::{EdgeId, Graph, VertexId};

/// The CC vertex program: state is the component label.
pub struct ConnectedComponents;

impl VertexProgram for ConnectedComponents {
    type State = u32;
    type EdgeData = ();
    type Accum = ();
    type Message = u32;
    type Global = NoGlobal;

    fn gather_edges(&self) -> EdgeSet {
        // Labels arrive as messages (neighbors that activate the vertex),
        // not gathers — matching the paper's description of CC.
        EdgeSet::None
    }

    fn scatter_edges(&self) -> EdgeSet {
        EdgeSet::Out
    }

    fn apply(
        &self,
        _v: VertexId,
        state: &mut u32,
        _acc: Option<()>,
        msg: Option<&u32>,
        _global: &NoGlobal,
        info: &mut ApplyInfo,
    ) {
        info.ops += 1;
        if let Some(&candidate) = msg {
            if candidate < *state {
                *state = candidate;
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
        _global: &NoGlobal,
    ) -> Option<u32> {
        // Signal only neighbors whose label is provably stale.
        (state < nbr_state).then_some(*state)
    }

    fn combine(&self, into: &mut u32, from: u32) {
        *into = (*into).min(from);
    }
}

/// Run CC on an undirected graph. Returns per-vertex component labels (the
/// minimum vertex id in each component) and the behavior trace.
pub fn run_cc(graph: &Graph, config: &ExecutionConfig) -> (Vec<u32>, RunTrace) {
    let states: Vec<u32> = (0..graph.num_vertices() as u32).collect();
    let edge_data = vec![(); graph.num_edges()];
    SyncEngine::new(graph, ConnectedComponents, states, &edge_data).run_resumable(config)
}

#[cfg(test)]
mod tests {
    use super::*;
    use graphmine_graph::{union_find_components, GraphBuilder};

    #[test]
    fn matches_union_find_on_two_components() {
        let g = GraphBuilder::undirected(7)
            .edge(0, 1)
            .edge(1, 2)
            .edge(2, 0)
            .edge(4, 5)
            .edge(5, 6)
            .build();
        let (labels, trace) = run_cc(&g, &ExecutionConfig::default());
        assert_eq!(labels, union_find_components(&g));
        assert!(trace.converged);
    }

    #[test]
    fn active_fraction_starts_full_and_shrinks() {
        // Long path: label 0 creeps rightward one hop per iteration, so the
        // active set decays from n to a trickle (the paper's CC shape).
        let mut b = GraphBuilder::undirected(50);
        for v in 0..49u32 {
            b.push_edge(v, v + 1);
        }
        let g = b.build();
        let (_, trace) = run_cc(&g, &ExecutionConfig::default());
        let af = trace.active_fraction();
        assert_eq!(af[0], 1.0);
        assert!(af[af.len() - 1] < 0.2);
    }

    #[test]
    fn isolated_vertices_keep_their_ids() {
        let g = GraphBuilder::undirected(4).edge(1, 2).build();
        let (labels, _) = run_cc(&g, &ExecutionConfig::default());
        assert_eq!(labels, vec![0, 1, 1, 3]);
    }

    #[test]
    fn single_component_converges_to_zero() {
        let mut b = GraphBuilder::undirected(16);
        for v in 0..16u32 {
            b.push_edge(v, (v + 1) % 16);
        }
        let (labels, _) = run_cc(&b.build(), &ExecutionConfig::default());
        assert!(labels.iter().all(|&l| l == 0));
    }

    #[test]
    fn no_edge_reads_and_bounded_messages() {
        let g = GraphBuilder::undirected(6)
            .edge(0, 1)
            .edge(2, 3)
            .edge(4, 5)
            .build();
        let (_, trace) = run_cc(&g, &ExecutionConfig::default());
        for it in &trace.iterations {
            assert_eq!(it.edge_reads, 0);
            assert!(it.messages <= 2 * trace.num_edges);
        }
    }
}
