//! Singular Value Decomposition (paper §2.1).
//!
//! The paper's SVD "decomposes a matrix into the product of unitary matrices
//! and a diagonal matrix using [the] Restarted Lanczos algorithm". The
//! per-iteration *behavior* of restarted Lanczos on a graph engine is a
//! sparse matrix–vector product: every vertex gathers weighted neighbor
//! values and applies a normalization — which is exactly what this program
//! does, iterated to convergence of the dominant singular value (power
//! iteration with deflation-free restarts). Behavior-wise the two are
//! indistinguishable on the engine's metrics (all vertices active, EREAD =
//! every edge slot, normalization via a global aggregate); numerically we
//! recover the top singular value, which the tests validate against a dense
//! reference. See DESIGN.md for this documented simplification.

use graphmine_engine::{ApplyInfo, EdgeSet, ExecutionConfig, RunTrace, SyncEngine, VertexProgram};
use graphmine_gen::RatingGraph;
use graphmine_graph::{EdgeId, Graph, VertexId};
use serde::{Deserialize, Serialize};

/// Global normalization/convergence state, refreshed each iteration.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct SvdGlobal {
    /// 1 / ‖x‖ of the previous iterate (applied during apply).
    pub inv_norm: f64,
    /// Current dominant-singular-value estimate (the iterate norm).
    pub sigma: f64,
    /// Previous estimate, for the convergence test.
    pub sigma_prev: f64,
}

impl Default for SvdGlobal {
    fn default() -> SvdGlobal {
        SvdGlobal {
            inv_norm: 1.0,
            sigma: 0.0,
            sigma_prev: -1.0,
        }
    }
}

/// Per-vertex SVD state.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct SvdState {
    /// Current singular-vector component.
    pub value: f64,
    /// Change magnitude in the last apply (gates messaging).
    pub last_change: f64,
}

/// The SVD (restarted-Lanczos-style power method) vertex program.
pub struct Svd {
    /// Positive diagonal shift: the bipartite adjacency has a symmetric
    /// ±σ spectrum, so plain power iteration oscillates between the u- and
    /// v-sides; iterating on `A + shift·I` makes `shift + σ` the unique
    /// dominant eigenvalue.
    pub shift: f64,
    /// Relative tolerance on the singular-value estimate.
    pub tolerance: f64,
    /// Component-change threshold below which a vertex stops signalling
    /// (coarser than `tolerance` so message traffic tapers before the
    /// eigenvalue fully settles, as in the GraphLab implementation).
    pub message_tolerance: f64,
}

impl Default for Svd {
    fn default() -> Svd {
        Svd {
            shift: 1.0,
            tolerance: 1e-6,
            message_tolerance: 1e-4,
        }
    }
}

impl VertexProgram for Svd {
    type State = SvdState;
    type EdgeData = f64;
    type Accum = f64;
    type Message = ();
    type Global = SvdGlobal;

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
        _v_state: &SvdState,
        nbr_state: &SvdState,
        rating: &f64,
        _global: &SvdGlobal,
    ) -> f64 {
        rating * nbr_state.value
    }

    fn merge(&self, into: &mut f64, from: f64) {
        *into += from;
    }

    fn before_iteration(&self, iter: usize, states: &[SvdState], global: &mut SvdGlobal) {
        let norm: f64 = states.iter().map(|s| s.value * s.value).sum::<f64>().sqrt();
        global.sigma_prev = global.sigma;
        // After the first multiply the iterate norm estimates σ (the input
        // was unit-normalized by inv_norm).
        if iter > 0 {
            global.sigma = norm - self.shift;
        }
        global.inv_norm = if norm > 0.0 { 1.0 / norm } else { 1.0 };
    }

    fn apply(
        &self,
        _v: VertexId,
        state: &mut SvdState,
        acc: Option<f64>,
        _msg: Option<&()>,
        global: &SvdGlobal,
        info: &mut ApplyInfo,
    ) {
        info.ops += 2;
        let product = (acc.unwrap_or(0.0) + self.shift * state.value) * global.inv_norm;
        state.last_change = (product - state.value).abs();
        state.value = product;
    }

    fn scatter(
        &self,
        _graph: &Graph,
        _v: VertexId,
        _e: EdgeId,
        _nbr: VertexId,
        state: &SvdState,
        _nbr_state: &SvdState,
        _rating: &f64,
        _global: &SvdGlobal,
    ) -> Option<()> {
        (state.last_change > self.message_tolerance).then_some(())
    }

    fn combine(&self, _into: &mut (), _from: ()) {}

    fn should_halt(&self, iter: usize, states: &[SvdState], global: &SvdGlobal) -> bool {
        // The norm (σ estimate) settles long before the singular vector
        // does, so convergence also requires per-component quiescence.
        iter >= 2
            && (global.sigma - global.sigma_prev).abs()
                <= self.tolerance * global.sigma.abs().max(1e-12)
            && states
                .iter()
                .all(|s| s.last_change <= self.message_tolerance)
    }
}

/// Result of an SVD run.
#[derive(Debug, Clone, PartialEq)]
pub struct SvdResult {
    /// Dominant singular value of the rating matrix.
    pub sigma: f64,
    /// The (bipartite, stacked) dominant singular vector.
    pub vector: Vec<f64>,
}

/// Run the dominant-singular-value computation on a rating graph.
pub fn run_svd(rg: &RatingGraph, config: &ExecutionConfig) -> (SvdResult, RunTrace) {
    let n = rg.graph.num_vertices();
    // Deterministic non-degenerate start vector.
    let states: Vec<SvdState> = (0..n as u64)
        .map(|v| SvdState {
            value: 1.0 + (v % 7) as f64 * 0.1,
            last_change: f64::INFINITY,
        })
        .collect();
    let engine = SyncEngine::new(&rg.graph, Svd::default(), states, &rg.ratings);
    let (finals, global, trace) = engine.run_resumable_with_global(config);
    // Normalize the returned singular vector (states carry the raw iterate).
    let mut vector: Vec<f64> = finals.into_iter().map(|s| s.value).collect();
    let norm: f64 = vector.iter().map(|v| v * v).sum::<f64>().sqrt();
    if norm > 0.0 {
        for v in &mut vector {
            *v /= norm;
        }
    }
    (
        SvdResult {
            sigma: global.sigma,
            vector,
        },
        trace,
    )
}

/// Dense power-iteration reference over the symmetric bipartite adjacency.
pub fn dense_top_singular_value(graph: &Graph, ratings: &[f64], iterations: usize) -> f64 {
    let n = graph.num_vertices();
    let mut x = vec![1.0f64; n];
    let mut sigma = 0.0;
    for _ in 0..iterations {
        let norm: f64 = x.iter().map(|v| v * v).sum::<f64>().sqrt();
        for v in &mut x {
            *v /= norm.max(1e-300);
        }
        let mut y = vec![0.0f64; n];
        for (e, &(s, d)) in graph.edge_list().iter().enumerate() {
            y[s as usize] += ratings[e] * x[d as usize];
            y[d as usize] += ratings[e] * x[s as usize];
        }
        sigma = y.iter().map(|v| v * v).sum::<f64>().sqrt();
        x = y;
    }
    sigma
}

#[cfg(test)]
mod tests {
    use super::*;
    use graphmine_gen::BipartiteConfig;
    use graphmine_graph::GraphBuilder;

    fn small_ratings() -> RatingGraph {
        RatingGraph::generate(&BipartiteConfig::new(500, 2.5, 31))
    }

    #[test]
    fn sigma_matches_dense_reference() {
        let rg = small_ratings();
        let (result, trace) = run_svd(&rg, &ExecutionConfig::with_max_iterations(500));
        let reference = dense_top_singular_value(&rg.graph, &rg.ratings, 300);
        assert!(trace.converged);
        assert!(
            (result.sigma - reference).abs() < 1e-3 * reference,
            "sigma {} vs reference {reference}",
            result.sigma
        );
    }

    #[test]
    fn known_two_by_two() {
        // Bipartite: users {0,1}, items {2,3}; ratings matrix [[3,0],[0,2]]
        // → top singular value 3.
        let g = GraphBuilder::undirected(4).edge(0, 2).edge(1, 3).build();
        let mut ratings = vec![0.0; 2];
        for (e, &(s, d)) in g.edge_list().iter().enumerate() {
            ratings[e] = if (s, d) == (0, 2) || (s, d) == (2, 0) {
                3.0
            } else {
                2.0
            };
        }
        let rg = RatingGraph {
            graph: g,
            ratings: ratings.into(),
            num_users: 2,
        };
        let (result, _) = run_svd(&rg, &ExecutionConfig::with_max_iterations(500));
        assert!((result.sigma - 3.0).abs() < 1e-4, "sigma {}", result.sigma);
    }

    #[test]
    fn all_active_constant_ereads() {
        let rg = small_ratings();
        let (_, trace) = run_svd(&rg, &ExecutionConfig::with_max_iterations(100));
        let slots = rg.graph.total_out_slots();
        for it in &trace.iterations {
            assert_eq!(it.active, trace.num_vertices);
            assert_eq!(it.edge_reads, slots);
        }
    }

    #[test]
    fn vector_is_unit_normalized() {
        let rg = small_ratings();
        let (result, _) = run_svd(&rg, &ExecutionConfig::with_max_iterations(500));
        let norm: f64 = result.vector.iter().map(|v| v * v).sum::<f64>().sqrt();
        assert!((norm - 1.0).abs() < 1e-6, "norm {norm}");
    }

    #[test]
    fn messages_taper_as_vector_settles() {
        let rg = small_ratings();
        let (_, trace) = run_svd(&rg, &ExecutionConfig::with_max_iterations(500));
        let first = trace.iterations.first().unwrap().messages;
        let last = trace.iterations.last().unwrap().messages;
        assert!(last < first, "messages never tapered: {first} → {last}");
    }
}
