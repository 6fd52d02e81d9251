//! Dual Decomposition for MAP inference (paper §2.1).
//!
//! "Dual Decomposition solves a relaxation of difficult optimization
//! problems by decomposing them into simpler sub-problems." Following
//! Komodakis-style DD-MRF, the MRF is decomposed into one slave per edge;
//! each gather solves the two-variable slave exactly, each apply takes a
//! projected-subgradient step on the duals pushing every slave's copy of a
//! variable toward the consensus label. All vertices stay active for the
//! entire run (paper §4.4) and DD is the suite's slowest converger (§4.5).

use graphmine_engine::{ApplyInfo, EdgeSet, ExecutionConfig, RunTrace, SyncEngine, VertexProgram};
use graphmine_gen::{mrf_energy, MrfGraph};
use graphmine_graph::{Direction, EdgeId, Graph, VertexId};
use serde::{Deserialize, Serialize};

/// Per-vertex DD state.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DdState {
    /// Dual variables per incident edge (by adjacency position) per label.
    duals: Vec<Vec<f64>>,
    /// Current consensus label.
    pub label: usize,
    /// Slaves disagreeing with the consensus after the last apply.
    pub disagreements: u32,
}

/// One slave vote: `(adjacency position at the central vertex, label the
/// slave chose for the central vertex)`.
type SlaveVote = (u32, u8);

/// The DD vertex program.
pub struct DualDecomposition {
    /// Unary potentials (already divided by degree — each slave carries an
    /// equal share).
    unary_share: Vec<Vec<f64>>,
    /// Adjacency position of each edge at `(src, dst)`.
    edge_pos: Vec<[u32; 2]>,
    /// Labels per variable.
    num_labels: usize,
    /// Subgradient step size.
    pub step: f64,
}

impl DualDecomposition {
    /// Build the program from an MRF.
    pub fn new(mrf: &MrfGraph, step: f64) -> DualDecomposition {
        let g = &mrf.graph;
        let unary_share = g
            .vertices()
            .map(|v| {
                let deg = g.degree(v).max(1) as f64;
                mrf.unary_row(v as usize).iter().map(|&u| u / deg).collect()
            })
            .collect();
        // Position of edge e within each endpoint's adjacency row.
        let mut edge_pos = vec![[u32::MAX; 2]; g.num_edges()];
        for v in g.vertices() {
            for (pos, (e, _)) in g.incident(v, Direction::Out).enumerate() {
                let (s, _) = g.edge_endpoints(e);
                let side = usize::from(s != v);
                edge_pos[e as usize][side] = pos as u32;
            }
        }
        DualDecomposition {
            unary_share,
            edge_pos,
            num_labels: mrf.num_labels,
            step,
        }
    }

    /// Position of edge `e` in `v`'s adjacency row.
    fn pos_of(&self, graph: &Graph, e: EdgeId, v: VertexId) -> u32 {
        let (s, _) = graph.edge_endpoints(e);
        let side = usize::from(s != v);
        self.edge_pos[e as usize][side]
    }

    /// Solve the edge slave exactly: maximize
    /// `my[a] + theirs[b] + λ·[a == b]`, returning the central vertex's
    /// label `a` (ties break toward smaller labels for determinism).
    fn solve_slave(&self, my: &[f64], theirs: &[f64], lambda: f64) -> usize {
        let l = self.num_labels;
        let mut best = (0usize, 0usize);
        let mut best_score = f64::NEG_INFINITY;
        for (a, &mine) in my.iter().enumerate().take(l) {
            for (b, &their) in theirs.iter().enumerate().take(l) {
                let score = mine + their + if a == b { lambda } else { 0.0 };
                if score > best_score {
                    best_score = score;
                    best = (a, b);
                }
            }
        }
        best.0
    }
}

impl VertexProgram for DualDecomposition {
    type State = DdState;
    /// Pairwise Potts strength λ per edge.
    type EdgeData = f64;
    type Accum = Vec<SlaveVote>;
    type Message = ();
    type Global = ();

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
        graph: &Graph,
        v: VertexId,
        e: EdgeId,
        nbr: VertexId,
        v_state: &DdState,
        nbr_state: &DdState,
        lambda: &f64,
        _global: &(),
    ) -> Vec<SlaveVote> {
        let my_pos = self.pos_of(graph, e, v);
        let nbr_pos = self.pos_of(graph, e, nbr);
        // Slave potential for each side: unary share + current duals.
        let my: Vec<f64> = self.unary_share[v as usize]
            .iter()
            .zip(v_state.duals[my_pos as usize].iter())
            .map(|(u, d)| u + d)
            .collect();
        let theirs: Vec<f64> = self.unary_share[nbr as usize]
            .iter()
            .zip(nbr_state.duals[nbr_pos as usize].iter())
            .map(|(u, d)| u + d)
            .collect();
        let label = self.solve_slave(&my, &theirs, *lambda);
        vec![(my_pos, label as u8)]
    }

    fn merge(&self, into: &mut Vec<SlaveVote>, from: Vec<SlaveVote>) {
        into.extend(from);
    }

    fn apply(
        &self,
        v: VertexId,
        state: &mut DdState,
        acc: Option<Vec<SlaveVote>>,
        _msg: Option<&()>,
        _global: &(),
        info: &mut ApplyInfo,
    ) {
        let votes = acc.unwrap_or_default();
        info.ops += (votes.len() * self.num_labels) as u64 + 1;
        if votes.is_empty() {
            // Isolated variable: consensus is the unary argmax.
            state.label = argmax(&self.unary_share[v as usize]);
            state.disagreements = 0;
            return;
        }
        // Consensus: majority vote over slave copies (ties → smaller label).
        let mut counts = vec![0u32; self.num_labels];
        for &(_, l) in &votes {
            counts[l as usize] += 1;
        }
        let consensus = argmax_u32(&counts);
        // Subgradient: pull disagreeing slaves toward the consensus.
        let mut disagreements = 0u32;
        for &(pos, l) in &votes {
            if l as usize != consensus {
                disagreements += 1;
                state.duals[pos as usize][consensus] += self.step;
                state.duals[pos as usize][l as usize] -= self.step;
            }
        }
        state.label = consensus;
        state.disagreements = disagreements;
    }

    fn should_halt(&self, _iter: usize, states: &[DdState], _global: &()) -> bool {
        states.iter().all(|s| s.disagreements == 0)
    }
}

fn argmax(xs: &[f64]) -> usize {
    let mut best = 0usize;
    for (i, &x) in xs.iter().enumerate() {
        if x > xs[best] {
            best = i;
        }
    }
    best
}

fn argmax_u32(xs: &[u32]) -> usize {
    let mut best = 0usize;
    for (i, &x) in xs.iter().enumerate() {
        if x > xs[best] {
            best = i;
        }
    }
    best
}

/// Result of a DD run.
#[derive(Debug, Clone, PartialEq)]
pub struct DdResult {
    /// Consensus labels.
    pub labels: Vec<usize>,
    /// Energy of the consensus labelling (to be maximized).
    pub energy: f64,
}

/// Run dual decomposition on an MRF. Returns consensus labels with their
/// energy, and the behavior trace.
pub fn run_dd(mrf: &MrfGraph, config: &ExecutionConfig) -> (DdResult, RunTrace) {
    let g = &mrf.graph;
    let program = DualDecomposition::new(mrf, 0.1);
    let states: Vec<DdState> = g
        .vertices()
        .map(|v| DdState {
            duals: vec![vec![0.0; mrf.num_labels]; g.degree(v)],
            label: 0,
            disagreements: 1, // pretend disagreement so we don't halt at iter 0
        })
        .collect();
    let engine = SyncEngine::with_global(g, program, states, &mrf.pairwise, ());
    let (finals, trace) = engine.run_resumable(config);
    let labels: Vec<usize> = finals.iter().map(|s| s.label).collect();
    let energy = mrf_energy(mrf, &labels);
    (DdResult { labels, energy }, trace)
}

/// Brute-force MAP energy (tiny MRFs only).
pub fn brute_force_energy(mrf: &MrfGraph) -> f64 {
    let n = mrf.graph.num_vertices();
    let l = mrf.num_labels;
    assert!(l.pow(n as u32) <= 1 << 20, "state space too large");
    let mut best = f64::NEG_INFINITY;
    for code in 0..l.pow(n as u32) {
        let mut labels = vec![0usize; n];
        let mut c = code;
        for slot in labels.iter_mut() {
            *slot = c % l;
            c /= l;
        }
        best = best.max(mrf_energy(mrf, &labels));
    }
    best
}

#[cfg(test)]
mod tests {
    use super::*;
    use graphmine_gen::MrfConfig;

    fn tiny_mrf() -> MrfGraph {
        graphmine_gen::mrf_graph(&MrfConfig {
            nvertices: Some(6),
            ..MrfConfig::new(8, 17)
        })
    }

    #[test]
    fn energy_close_to_brute_force() {
        let mrf = tiny_mrf();
        let optimum = brute_force_energy(&mrf);
        let (result, _) = run_dd(&mrf, &ExecutionConfig::with_max_iterations(300));
        assert!(result.energy <= optimum + 1e-9);
        // DD on a loopy graph is approximate; demand at least 90% of the
        // optimum on this easy instance.
        assert!(
            result.energy >= 0.9 * optimum.abs().max(1e-9) * optimum.signum()
                || (optimum - result.energy) < 0.1 * optimum.abs().max(1.0),
            "energy {} vs optimum {optimum}",
            result.energy
        );
    }

    #[test]
    fn all_vertices_active_throughout() {
        let mrf = tiny_mrf();
        let (_, trace) = run_dd(&mrf, &ExecutionConfig::with_max_iterations(50));
        assert!(trace
            .active_fraction()
            .iter()
            .all(|&f| (f - 1.0).abs() < 1e-12));
    }

    #[test]
    fn eread_is_every_slot_every_iteration() {
        let mrf = tiny_mrf();
        let slots = mrf.graph.total_out_slots();
        let (_, trace) = run_dd(&mrf, &ExecutionConfig::with_max_iterations(50));
        assert!(trace.iterations.iter().all(|it| it.edge_reads == slots));
    }

    #[test]
    fn strong_agreement_mrf_converges_uniform() {
        // Huge Potts strength: optimal labelling is uniform; DD must agree.
        let mut mrf = tiny_mrf();
        mrf.pairwise = vec![50.0; mrf.pairwise.len()].into();
        let (result, trace) = run_dd(&mrf, &ExecutionConfig::with_max_iterations(500));
        assert!(trace.converged, "did not converge");
        assert!(
            result.labels.iter().all(|&l| l == result.labels[0]),
            "{:?}",
            result.labels
        );
    }

    #[test]
    fn deterministic() {
        let mrf = tiny_mrf();
        let cfg = ExecutionConfig::with_max_iterations(100);
        let (r1, _) = run_dd(&mrf, &cfg);
        let (r2, _) = run_dd(&mrf, &cfg.clone().sequential());
        assert_eq!(r1.labels, r2.labels);
    }
}
