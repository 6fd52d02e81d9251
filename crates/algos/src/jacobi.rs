//! Jacobi iterative linear solver (paper §2.1).
//!
//! "Jacobi method is an iterative method to solve a diagonally dominant
//! system of linear equations." The matrix is the uniform-degree graph from
//! `graphmine-gen`; one iteration gathers the off-diagonal row product and
//! applies `x_i ← (b_i − Σ_j A_ij x_j) / A_ii`. All vertices are active for
//! all iterations (paper §4.4) and, uniquely in the suite, every behavior
//! metric except EREAD scales with the matrix dimension (Figure 12).

use graphmine_engine::{ApplyInfo, EdgeSet, ExecutionConfig, RunTrace, SyncEngine, VertexProgram};
use graphmine_gen::MatrixSystem;
use graphmine_graph::{EdgeId, Graph, SharedSlice, VertexId};
use serde::{Deserialize, Serialize};

/// Per-vertex Jacobi state.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct JacobiState {
    /// Current solution component.
    pub x: f64,
    /// Absolute change in the last apply.
    pub delta: f64,
}

/// The Jacobi vertex program. Diagonal and right-hand side live in the
/// program (they are per-row constants, not graph data).
pub struct Jacobi {
    diagonal: SharedSlice<f64>,
    rhs: SharedSlice<f64>,
    /// Convergence tolerance on the max component change.
    pub tolerance: f64,
}

impl Jacobi {
    /// Build from a generated system.
    pub fn new(system: &MatrixSystem, tolerance: f64) -> Jacobi {
        Jacobi {
            diagonal: system.diagonal.clone(),
            rhs: system.rhs.clone(),
            tolerance,
        }
    }
}

impl VertexProgram for Jacobi {
    type State = JacobiState;
    type EdgeData = f64;
    type Accum = f64;
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
        _graph: &Graph,
        _v: VertexId,
        _e: EdgeId,
        _nbr: VertexId,
        _v_state: &JacobiState,
        nbr_state: &JacobiState,
        a_ij: &f64,
        _global: &(),
    ) -> f64 {
        a_ij * nbr_state.x
    }

    fn merge(&self, into: &mut f64, from: f64) {
        *into += from;
    }

    fn apply(
        &self,
        v: VertexId,
        state: &mut JacobiState,
        acc: Option<f64>,
        _msg: Option<&()>,
        _global: &(),
        info: &mut ApplyInfo,
    ) {
        info.ops += 2;
        let i = v as usize;
        let next = (self.rhs[i] - acc.unwrap_or(0.0)) / self.diagonal[i];
        state.delta = (next - state.x).abs();
        state.x = next;
    }

    fn should_halt(&self, _iter: usize, states: &[JacobiState], _global: &()) -> bool {
        states.iter().all(|s| s.delta < self.tolerance)
    }
}

/// Run Jacobi on a generated system. Returns the solution vector and the
/// behavior trace.
pub fn run_jacobi(system: &MatrixSystem, config: &ExecutionConfig) -> (Vec<f64>, RunTrace) {
    let n = system.graph.num_vertices();
    let states = vec![
        JacobiState {
            x: 0.0,
            delta: f64::INFINITY,
        };
        n
    ];
    let program = Jacobi::new(system, 1e-10);
    let engine = SyncEngine::with_global(&system.graph, program, states, &system.off_diagonal, ());
    let (finals, trace) = engine.run_resumable(config);
    (finals.into_iter().map(|s| s.x).collect(), trace)
}

#[cfg(test)]
mod tests {
    use super::*;
    use graphmine_gen::matrix_graph;

    #[test]
    fn solves_generated_system() {
        let sys = matrix_graph(64, 4, 5);
        let (x, trace) = run_jacobi(&sys, &ExecutionConfig::default());
        assert!(trace.converged);
        let r = sys.residual(&x);
        assert!(r < 1e-8, "residual {r}");
    }

    #[test]
    fn all_active_constant_ereads() {
        let sys = matrix_graph(32, 4, 6);
        let (_, trace) = run_jacobi(&sys, &ExecutionConfig::default());
        for it in &trace.iterations {
            assert_eq!(it.active, 32);
            assert_eq!(it.edge_reads, 32 * 4);
            assert_eq!(it.messages, 0);
        }
    }

    #[test]
    fn larger_systems_do_more_work_per_iteration() {
        // The paper's Jacobi finding: WORK and UPDT scale with matrix size;
        // per-edge EREAD does not (uniform degree).
        let small = matrix_graph(32, 4, 7);
        let large = matrix_graph(128, 4, 7);
        let (_, ts) = run_jacobi(&small, &ExecutionConfig::default());
        let (_, tl) = run_jacobi(&large, &ExecutionConfig::default());
        assert!(tl.updt() > ts.updt());
        let per_edge_small = ts.eread() / ts.num_edges as f64;
        let per_edge_large = tl.eread() / tl.num_edges as f64;
        assert!((per_edge_small - per_edge_large).abs() < 1e-9);
    }

    #[test]
    fn iteration_cap_respected() {
        let sys = matrix_graph(64, 4, 8);
        let (_, trace) = run_jacobi(&sys, &ExecutionConfig::with_max_iterations(3));
        assert_eq!(trace.num_iterations(), 3);
        assert!(!trace.converged);
    }

    #[test]
    fn deterministic_solution() {
        let sys = matrix_graph(48, 4, 9);
        let (x1, _) = run_jacobi(&sys, &ExecutionConfig::default());
        let (x2, _) = run_jacobi(&sys, &ExecutionConfig::default().sequential());
        assert_eq!(x1, x2);
    }
}
