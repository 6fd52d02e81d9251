//! Stochastic Gradient Descent matrix factorization (paper §2.1).
//!
//! Vertex-centric SGD: each iteration every vertex gathers the gradient of
//! the squared rating error over its incident edges and takes one step.
//! All vertices stay active, every vertex signals all neighbors each
//! iteration — which is why SGD tops the suite's message counts (paper
//! Figure 13: "SGD requires the most message transferring") — and the run
//! is capped at 20 iterations like NMF (§3.3).

use crate::linalg::{axpy, dot, Factor, FACTOR_DIM};
use graphmine_engine::{
    ApplyInfo, EdgeSet, ExecutionConfig, NoGlobal, RunTrace, SyncEngine, VertexProgram,
};
use graphmine_gen::RatingGraph;
use graphmine_graph::{EdgeId, Graph, VertexId};

pub use crate::nmf::PAPER_ITERATION_CAP;

/// The SGD vertex program; state is the factor vector.
pub struct Sgd {
    /// Learning rate.
    pub learning_rate: f64,
    /// L2 regularization.
    pub lambda: f64,
}

impl Default for Sgd {
    fn default() -> Sgd {
        Sgd {
            learning_rate: 0.02,
            lambda: 0.05,
        }
    }
}

impl VertexProgram for Sgd {
    type State = Factor;
    type EdgeData = f64;
    /// Summed gradient plus the rating count (the step uses the *mean*
    /// gradient so hub vertices with thousands of ratings don't take
    /// degree-scaled steps and diverge).
    type Accum = (Factor, u32);
    type Message = ();
    type Global = NoGlobal;

    fn gather_edges(&self) -> EdgeSet {
        EdgeSet::Out
    }

    fn scatter_edges(&self) -> EdgeSet {
        EdgeSet::Out
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
        v_state: &Factor,
        nbr_state: &Factor,
        rating: &f64,
        _global: &NoGlobal,
    ) -> (Factor, u32) {
        let error = rating - dot(v_state, nbr_state);
        let mut grad = [0.0; FACTOR_DIM];
        axpy(&mut grad, error, nbr_state);
        (grad, 1)
    }

    fn merge(&self, into: &mut (Factor, u32), from: (Factor, u32)) {
        for i in 0..FACTOR_DIM {
            into.0[i] += from.0[i];
        }
        into.1 += from.1;
    }

    fn apply(
        &self,
        _v: VertexId,
        state: &mut Factor,
        acc: Option<(Factor, u32)>,
        _msg: Option<&()>,
        _global: &NoGlobal,
        info: &mut ApplyInfo,
    ) {
        let Some((grad, count)) = acc else { return };
        info.ops += FACTOR_DIM as u64;
        let scale = 1.0 / count.max(1) as f64;
        for i in 0..FACTOR_DIM {
            state[i] += self.learning_rate * (grad[i] * scale - self.lambda * state[i]);
        }
    }

    fn scatter(
        &self,
        _graph: &Graph,
        _v: VertexId,
        _e: EdgeId,
        _nbr: VertexId,
        _state: &Factor,
        _nbr_state: &Factor,
        _rating: &f64,
        _global: &NoGlobal,
    ) -> Option<()> {
        // SGD shares updated factors with every rating partner every
        // iteration — the suite's heaviest messenger.
        Some(())
    }

    fn combine(&self, _into: &mut (), _from: ()) {}
}

/// Run SGD (capped at [`PAPER_ITERATION_CAP`] unless the config is tighter).
pub fn run_sgd(rg: &RatingGraph, config: &ExecutionConfig) -> (Vec<Factor>, RunTrace) {
    let capped = ExecutionConfig {
        max_iterations: config.max_iterations.min(PAPER_ITERATION_CAP),
        ..config.clone()
    };
    let states: Vec<Factor> = (0..rg.graph.num_vertices() as u64)
        .map(crate::als::init_factor)
        .collect();
    SyncEngine::new(&rg.graph, Sgd::default(), states, &rg.ratings).run_resumable(&capped)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::als::{init_factor, rmse};
    use graphmine_gen::BipartiteConfig;

    fn small_ratings() -> RatingGraph {
        RatingGraph::generate(&BipartiteConfig::new(600, 2.5, 21))
    }

    #[test]
    fn training_error_decreases() {
        let rg = small_ratings();
        let initial: Vec<Factor> = (0..rg.graph.num_vertices() as u64)
            .map(init_factor)
            .collect();
        let before = rmse(&rg.graph, &rg.ratings, &initial);
        let (factors, _) = run_sgd(&rg, &ExecutionConfig::default());
        let after = rmse(&rg.graph, &rg.ratings, &factors);
        assert!(after < before, "RMSE before {before}, after {after}");
    }

    #[test]
    fn messages_saturate_every_edge_slot() {
        let rg = small_ratings();
        let (_, trace) = run_sgd(&rg, &ExecutionConfig::default());
        let slots = rg.graph.total_out_slots();
        assert!(trace.iterations.iter().all(|it| it.messages == slots));
    }

    #[test]
    fn capped_at_twenty() {
        let rg = small_ratings();
        let (_, trace) = run_sgd(&rg, &ExecutionConfig::default());
        assert_eq!(trace.num_iterations(), PAPER_ITERATION_CAP);
        assert!(!trace.converged);
    }

    #[test]
    fn always_fully_active() {
        let rg = small_ratings();
        let (_, trace) = run_sgd(&rg, &ExecutionConfig::default());
        assert!(trace
            .active_fraction()
            .iter()
            .all(|&f| (f - 1.0).abs() < 1e-12));
    }

    #[test]
    fn factors_remain_finite() {
        let rg = small_ratings();
        let (factors, _) = run_sgd(&rg, &ExecutionConfig::default());
        assert!(factors.iter().all(|f| f.iter().all(|x| x.is_finite())));
    }
}
