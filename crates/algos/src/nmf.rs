//! Non-negative Matrix Factorization (paper §2.1).
//!
//! Lee–Seung multiplicative updates on the bipartite rating graph: factors
//! stay elementwise non-negative, every vertex is active every iteration,
//! and the run is capped at 20 iterations exactly as the paper does for the
//! two non-converging algorithms, NMF and SGD (§3.3).

use crate::linalg::{dot, Factor, FACTOR_DIM};
use graphmine_engine::{
    ApplyInfo, EdgeSet, ExecutionConfig, NoGlobal, RunTrace, SyncEngine, VertexProgram,
};
use graphmine_gen::RatingGraph;
use graphmine_graph::{EdgeId, Graph, VertexId};

/// The paper's iteration cap for NMF and SGD.
pub const PAPER_ITERATION_CAP: usize = 20;

/// Accumulated multiplicative-update terms.
#[derive(Debug, Clone, Copy, Default)]
pub struct NmfAccum {
    /// Numerator Σ rating · h.
    numerator: Factor,
    /// Denominator Σ (w·h) · h.
    denominator: Factor,
}

/// The NMF vertex program; state is the non-negative factor vector.
pub struct Nmf;

impl VertexProgram for Nmf {
    type State = Factor;
    type EdgeData = f64;
    type Accum = NmfAccum;
    type Message = ();
    type Global = NoGlobal;

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
        v_state: &Factor,
        nbr_state: &Factor,
        rating: &f64,
        _global: &NoGlobal,
    ) -> NmfAccum {
        let prediction = dot(v_state, nbr_state);
        let mut numerator = [0.0; FACTOR_DIM];
        let mut denominator = [0.0; FACTOR_DIM];
        for i in 0..FACTOR_DIM {
            numerator[i] = rating * nbr_state[i];
            denominator[i] = prediction * nbr_state[i];
        }
        NmfAccum {
            numerator,
            denominator,
        }
    }

    fn merge(&self, into: &mut NmfAccum, from: NmfAccum) {
        for i in 0..FACTOR_DIM {
            into.numerator[i] += from.numerator[i];
            into.denominator[i] += from.denominator[i];
        }
    }

    fn apply(
        &self,
        _v: VertexId,
        state: &mut Factor,
        acc: Option<NmfAccum>,
        _msg: Option<&()>,
        _global: &NoGlobal,
        info: &mut ApplyInfo,
    ) {
        let Some(acc) = acc else { return };
        info.ops += FACTOR_DIM as u64;
        for (i, x) in state.iter_mut().enumerate() {
            // Multiplicative update preserves non-negativity by
            // construction (ratings and factors are non-negative).
            *x *= acc.numerator[i] / (acc.denominator[i] + 1e-9);
        }
    }
}

/// Deterministic strictly-positive factor initialization.
pub fn init_positive_factor(v: u64) -> Factor {
    let base = crate::als::init_factor(v);
    std::array::from_fn(|i| base[i].abs().max(1e-2))
}

/// Run NMF (capped at [`PAPER_ITERATION_CAP`] unless the config is tighter).
pub fn run_nmf(rg: &RatingGraph, config: &ExecutionConfig) -> (Vec<Factor>, RunTrace) {
    let capped = ExecutionConfig {
        max_iterations: config.max_iterations.min(PAPER_ITERATION_CAP),
        ..config.clone()
    };
    let states: Vec<Factor> = (0..rg.graph.num_vertices() as u64)
        .map(init_positive_factor)
        .collect();
    SyncEngine::new(&rg.graph, Nmf, states, &rg.ratings).run_resumable(&capped)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::als::rmse;
    use graphmine_gen::BipartiteConfig;

    fn small_ratings() -> RatingGraph {
        RatingGraph::generate(&BipartiteConfig::new(600, 2.5, 13))
    }

    #[test]
    fn factors_stay_non_negative() {
        let rg = small_ratings();
        let (factors, _) = run_nmf(&rg, &ExecutionConfig::default());
        assert!(factors
            .iter()
            .all(|f| f.iter().all(|&x| x >= 0.0 && x.is_finite())));
    }

    #[test]
    fn capped_at_twenty_iterations() {
        let rg = small_ratings();
        let (_, trace) = run_nmf(&rg, &ExecutionConfig::default());
        assert_eq!(trace.num_iterations(), PAPER_ITERATION_CAP);
        assert!(!trace.converged);
    }

    #[test]
    fn reconstruction_error_improves() {
        let rg = small_ratings();
        let initial: Vec<Factor> = (0..rg.graph.num_vertices() as u64)
            .map(init_positive_factor)
            .collect();
        let before = rmse(&rg.graph, &rg.ratings, &initial);
        let (factors, _) = run_nmf(&rg, &ExecutionConfig::default());
        let after = rmse(&rg.graph, &rg.ratings, &factors);
        assert!(after < before, "RMSE before {before}, after {after}");
    }

    #[test]
    fn all_active_no_messages() {
        let rg = small_ratings();
        let (_, trace) = run_nmf(&rg, &ExecutionConfig::default());
        for it in &trace.iterations {
            assert_eq!(it.active, trace.num_vertices);
            assert_eq!(it.messages, 0);
        }
    }

    #[test]
    fn tighter_external_cap_wins() {
        let rg = small_ratings();
        let (_, trace) = run_nmf(&rg, &ExecutionConfig::with_max_iterations(5));
        assert_eq!(trace.num_iterations(), 5);
    }
}
