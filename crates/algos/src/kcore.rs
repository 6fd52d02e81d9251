//! K-Core decomposition (paper §2.1).
//!
//! "To find all K-Cores of the input graph, the KC program recursively
//! removes all vertices with degree d = 0, 1, 2, …. Vertices only receive
//! data from neighbors that activate it."
//!
//! The outer peel over k is a driver loop; each k-phase is one engine run
//! in which removals cascade message-by-message (a removed vertex tells its
//! neighbors to decrement their effective degree). Traces of all phases are
//! concatenated into the single behavior trace of the run, so KC's active
//! fraction oscillates per-phase — the sawtooth visible in paper Figure 1.

use graphmine_engine::{
    ActiveInit, ApplyInfo, EdgeSet, ExecutionConfig, RunTrace, SyncEngine, VertexProgram,
};
use graphmine_graph::{EdgeId, Graph, VertexId};
use serde::{Deserialize, Serialize};

/// Per-vertex K-Core state.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct KcState {
    /// Still part of the residual graph.
    pub alive: bool,
    /// Degree within the residual graph.
    pub eff_degree: u32,
    /// Core number assigned at removal time (`k - 1` when peeled in the
    /// k-phase); meaningful once `alive` is false.
    pub core: u32,
    /// Removed during the current iteration (drives scatter).
    just_removed: bool,
}

/// One k-phase of the peel.
struct KCorePhase {
    k: u32,
    /// Vertices alive at phase start (initial active set).
    alive_now: Vec<VertexId>,
}

impl VertexProgram for KCorePhase {
    type State = KcState;
    type EdgeData = ();
    type Accum = ();
    type Message = u32;
    type Global = ();

    fn gather_edges(&self) -> EdgeSet {
        EdgeSet::None
    }

    fn scatter_edges(&self) -> EdgeSet {
        EdgeSet::Out
    }

    fn initial_active(&self) -> ActiveInit {
        ActiveInit::Vertices(self.alive_now.clone())
    }

    fn apply(
        &self,
        _v: VertexId,
        state: &mut KcState,
        _acc: Option<()>,
        msg: Option<&u32>,
        _global: &(),
        info: &mut ApplyInfo,
    ) {
        info.ops += 1;
        state.just_removed = false;
        if !state.alive {
            // A neighbor removed in the same iteration we were: its message
            // arrives one step late and is ignored.
            return;
        }
        if let Some(&removed_neighbors) = msg {
            state.eff_degree = state.eff_degree.saturating_sub(removed_neighbors);
        }
        if state.eff_degree < self.k {
            state.alive = false;
            state.core = self.k - 1;
            state.just_removed = true;
        }
    }

    fn scatter(
        &self,
        _graph: &Graph,
        _v: VertexId,
        _e: EdgeId,
        _nbr: VertexId,
        state: &KcState,
        nbr_state: &KcState,
        _edge: &(),
        _global: &(),
    ) -> Option<u32> {
        (state.just_removed && nbr_state.alive).then_some(1)
    }

    fn combine(&self, into: &mut u32, from: u32) {
        *into += from;
    }
}

/// Run the full K-Core decomposition. Returns per-vertex core numbers and
/// the concatenated behavior trace across all k-phases.
pub fn run_kcore(graph: &Graph, config: &ExecutionConfig) -> (Vec<u32>, RunTrace) {
    let n = graph.num_vertices();
    let mut states: Vec<KcState> = graph
        .vertices()
        .map(|v| KcState {
            alive: true,
            eff_degree: graph.degree(v) as u32,
            core: 0,
            just_removed: false,
        })
        .collect();
    let mut trace = RunTrace {
        num_vertices: n as u64,
        num_edges: graph.num_edges() as u64,
        iterations: Vec::new(),
        converged: true,
    };
    let edge_data = vec![(); graph.num_edges()];
    let mut k = 1u32;
    // The peel needs at most max_degree + 1 phases.
    let max_k = states.iter().map(|s| s.eff_degree).max().unwrap_or(0) + 1;
    while k <= max_k {
        let alive_now: Vec<VertexId> = graph
            .vertices()
            .filter(|&v| states[v as usize].alive)
            .collect();
        if alive_now.is_empty() {
            break;
        }
        let remaining = config.max_iterations.saturating_sub(trace.iterations.len());
        if remaining == 0 {
            trace.converged = false;
            break;
        }
        let phase = KCorePhase { k, alive_now };
        let engine = SyncEngine::with_global(graph, phase, states, &edge_data, ());
        let mut phase_cfg = ExecutionConfig {
            max_iterations: remaining,
            ..config.clone()
        };
        // Each peel phase is an independent engine run; give every phase its
        // own checkpoint file so a resume never mixes states across k-values.
        if let Some(cp) = &mut phase_cfg.checkpoint {
            cp.tag = format!("{}-k{k}", cp.tag);
        }
        let (next_states, phase_trace) = engine.run_resumable(&phase_cfg);
        states = next_states;
        trace.converged &= phase_trace.converged;
        trace.iterations.extend(phase_trace.iterations);
        if !trace.converged {
            break;
        }
        k += 1;
    }
    let cores = states
        .iter()
        .map(|s| if s.alive { max_k } else { s.core })
        .collect();
    (cores, trace)
}

/// Sequential peeling reference: repeatedly remove minimum-degree vertices.
pub fn kcore_reference(graph: &Graph) -> Vec<u32> {
    let n = graph.num_vertices();
    let mut degree: Vec<u32> = graph.vertices().map(|v| graph.degree(v) as u32).collect();
    let mut alive = vec![true; n];
    let mut core = vec![0u32; n];
    let mut k = 1u32;
    let mut removed = 0usize;
    while removed < n {
        // Remove everything of degree < k until stable, then raise k.
        let mut queue: Vec<VertexId> = (0..n as u32)
            .filter(|&v| alive[v as usize] && degree[v as usize] < k)
            .collect();
        if queue.is_empty() {
            k += 1;
            continue;
        }
        while let Some(v) = queue.pop() {
            if !alive[v as usize] {
                continue;
            }
            alive[v as usize] = false;
            core[v as usize] = k - 1;
            removed += 1;
            for u in graph.neighbors(v, graphmine_graph::Direction::Out) {
                if alive[u as usize] {
                    degree[u as usize] = degree[u as usize].saturating_sub(1);
                    if degree[u as usize] < k {
                        queue.push(u);
                    }
                }
            }
        }
    }
    core
}

#[cfg(test)]
mod tests {
    use super::*;
    use graphmine_graph::GraphBuilder;

    fn clique_with_tail() -> Graph {
        // K4 on {0,1,2,3} plus a path 3-4-5: cores are 3,3,3,3,1,1.
        GraphBuilder::undirected(6)
            .edge(0, 1)
            .edge(0, 2)
            .edge(0, 3)
            .edge(1, 2)
            .edge(1, 3)
            .edge(2, 3)
            .edge(3, 4)
            .edge(4, 5)
            .build()
    }

    #[test]
    fn matches_reference_on_clique_with_tail() {
        let g = clique_with_tail();
        let (cores, trace) = run_kcore(&g, &ExecutionConfig::default());
        assert_eq!(cores, kcore_reference(&g));
        assert_eq!(cores, vec![3, 3, 3, 3, 1, 1]);
        assert!(trace.converged);
    }

    #[test]
    fn isolated_vertices_have_core_zero() {
        let g = GraphBuilder::undirected(3).edge(0, 1).build();
        let (cores, _) = run_kcore(&g, &ExecutionConfig::default());
        assert_eq!(cores, vec![1, 1, 0]);
    }

    #[test]
    fn cycle_is_its_own_two_core() {
        let mut b = GraphBuilder::undirected(8);
        for v in 0..8u32 {
            b.push_edge(v, (v + 1) % 8);
        }
        let (cores, _) = run_kcore(&b.build(), &ExecutionConfig::default());
        assert!(cores.iter().all(|&c| c == 2));
    }

    #[test]
    fn cascading_removal_within_one_phase() {
        // A path peels entirely in the k=2 phase via cascade: removing the
        // endpoints leaves new endpoints, and so on.
        let mut b = GraphBuilder::undirected(10);
        for v in 0..9u32 {
            b.push_edge(v, v + 1);
        }
        let g = b.build();
        let (cores, trace) = run_kcore(&g, &ExecutionConfig::default());
        assert!(cores.iter().all(|&c| c == 1));
        // The cascade takes ~n/2 iterations inside the k=2 phase.
        assert!(trace.num_iterations() >= 5);
    }

    #[test]
    fn trace_has_sawtooth_active_pattern() {
        let g = clique_with_tail();
        let (_, trace) = run_kcore(&g, &ExecutionConfig::default());
        let af = trace.active_fraction();
        // Phase starts hit 1.0 (all alive) early on, then decline.
        assert_eq!(af[0], 1.0);
        assert!(af.iter().any(|&f| f < 1.0));
    }

    #[test]
    fn no_edge_reads() {
        let g = clique_with_tail();
        let (_, trace) = run_kcore(&g, &ExecutionConfig::default());
        assert!(trace.iterations.iter().all(|it| it.edge_reads == 0));
    }
}
