//! Alternating Least Squares matrix factorization (paper §2.1).
//!
//! Each user and item vertex holds a latent factor vector; one apply solves
//! that vertex's regularized least-squares problem against its neighbors'
//! factors (the normal equations are gathered edge-by-edge, then solved by
//! Cholesky). A vertex whose factors moved more than the tolerance signals
//! its neighbors, so activity decays unevenly — the input-dependent behavior
//! that makes ALS the paper's most valuable spread algorithm (Table 3,
//! Figure 20).

use crate::linalg::{axpy, cholesky_solve, distance, dot, rank_one_update, Factor, FACTOR_DIM};
use graphmine_engine::{ApplyInfo, EdgeSet, ExecutionConfig, RunTrace, SyncEngine, VertexProgram};
use graphmine_gen::RatingGraph;
use graphmine_graph::{EdgeId, Graph, VertexId};
use serde::{Deserialize, Serialize};

/// Per-vertex ALS state.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct AlsState {
    /// Latent factor vector.
    pub factor: Factor,
    /// Euclidean movement of the factor in the last apply.
    pub last_delta: f64,
    /// Whether this vertex is on the user side of the bipartite graph.
    pub is_user: bool,
}

/// Whose turn it is: ALS alternates solving the user side (even
/// iterations) and the item side (odd iterations), exactly like the
/// original alternating scheme.
#[derive(Debug, Clone, Copy, Default, Serialize, Deserialize)]
pub struct AlsGlobal {
    /// True when the user side updates this iteration.
    pub users_turn: bool,
}

/// Gathered normal equations: `(XᵀX, Xᵀr)`.
// Not derivable: `[f64; FACTOR_DIM * FACTOR_DIM]` exceeds the 32-element
// `Default` impl for arrays.
impl Default for Normal {
    fn default() -> Normal {
        Normal {
            xtx: [0.0; FACTOR_DIM * FACTOR_DIM],
            xtr: [0.0; FACTOR_DIM],
            count: 0,
        }
    }
}

#[derive(Debug, Clone)]
pub struct Normal {
    xtx: [f64; FACTOR_DIM * FACTOR_DIM],
    xtr: Factor,
    count: u32,
}

/// The ALS vertex program.
pub struct Als {
    /// Ridge regularization λ (scaled by each vertex's rating count, the
    /// "weighted-λ" scheme of Zhou et al.).
    pub lambda: f64,
    /// Factor-movement tolerance controlling deactivation.
    pub tolerance: f64,
}

impl Default for Als {
    fn default() -> Als {
        Als {
            lambda: 0.05,
            tolerance: 5e-3,
        }
    }
}

impl VertexProgram for Als {
    type State = AlsState;
    type EdgeData = f64;
    type Accum = Normal;
    type Message = ();
    type Global = AlsGlobal;

    fn gather_edges(&self) -> EdgeSet {
        EdgeSet::Out
    }

    fn scatter_edges(&self) -> EdgeSet {
        EdgeSet::Out
    }

    fn gather(
        &self,
        _graph: &Graph,
        _v: VertexId,
        _e: EdgeId,
        _nbr: VertexId,
        _v_state: &AlsState,
        nbr_state: &AlsState,
        rating: &f64,
        _global: &AlsGlobal,
    ) -> Normal {
        let mut xtx = [0.0; FACTOR_DIM * FACTOR_DIM];
        rank_one_update(&mut xtx, &nbr_state.factor);
        let mut xtr = [0.0; FACTOR_DIM];
        axpy(&mut xtr, *rating, &nbr_state.factor);
        Normal { xtx, xtr, count: 1 }
    }

    fn merge(&self, into: &mut Normal, from: Normal) {
        for i in 0..FACTOR_DIM * FACTOR_DIM {
            into.xtx[i] += from.xtx[i];
        }
        for i in 0..FACTOR_DIM {
            into.xtr[i] += from.xtr[i];
        }
        into.count += from.count;
    }

    fn before_iteration(&self, iter: usize, _states: &[AlsState], global: &mut AlsGlobal) {
        global.users_turn = iter.is_multiple_of(2);
    }

    fn apply(
        &self,
        _v: VertexId,
        state: &mut AlsState,
        acc: Option<Normal>,
        _msg: Option<&()>,
        global: &AlsGlobal,
        info: &mut ApplyInfo,
    ) {
        if state.is_user != global.users_turn {
            // Off-turn side: keep factors, and keep signalling so the
            // on-turn side sees this vertex's latest movement next round.
            return;
        }
        let Some(normal) = acc else {
            state.last_delta = 0.0;
            return;
        };
        info.ops += (FACTOR_DIM * FACTOR_DIM * FACTOR_DIM) as u64;
        let ridge = self.lambda * normal.count.max(1) as f64;
        if let Some(solution) = cholesky_solve(&normal.xtx, &normal.xtr, ridge) {
            // Relative movement: a fixed absolute threshold never fires for
            // large-magnitude factors, pinning activity at 0.5 forever.
            let scale = 1.0 + solution.iter().map(|x| x * x).sum::<f64>().sqrt();
            state.last_delta = distance(&solution, &state.factor) / scale;
            state.factor = solution;
        } else {
            state.last_delta = 0.0;
        }
    }

    fn scatter(
        &self,
        _graph: &Graph,
        _v: VertexId,
        _e: EdgeId,
        _nbr: VertexId,
        state: &AlsState,
        _nbr_state: &AlsState,
        _rating: &f64,
        global: &AlsGlobal,
    ) -> Option<()> {
        // Only the side that just solved signals: its neighbors (the other
        // side) must re-solve next iteration if the factors moved.
        (state.is_user == global.users_turn && state.last_delta > self.tolerance).then_some(())
    }

    fn combine(&self, _into: &mut (), _from: ()) {}
}

/// Deterministic small pseudo-random factor initialization.
pub fn init_factor(v: u64) -> Factor {
    let mut x = v.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ 0x1234_5678;
    std::array::from_fn(|_| {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        // Uniform-ish in (0, 0.5] keeps initial predictions small/positive.
        ((x >> 11) as f64 / (1u64 << 53) as f64) * 0.5 + 1e-3
    })
}

/// Run ALS on a rating graph. Returns final factors and the behavior trace.
pub fn run_als(rg: &RatingGraph, config: &ExecutionConfig) -> (Vec<Factor>, RunTrace) {
    run_als_with(rg, Als::default(), config)
}

/// Run ALS with explicit hyper-parameters.
pub fn run_als_with(
    rg: &RatingGraph,
    program: Als,
    config: &ExecutionConfig,
) -> (Vec<Factor>, RunTrace) {
    let states: Vec<AlsState> = (0..rg.graph.num_vertices() as u64)
        .map(|v| AlsState {
            factor: init_factor(v),
            last_delta: f64::INFINITY,
            is_user: rg.is_user(v as u32),
        })
        .collect();
    let (finals, trace) =
        SyncEngine::new(&rg.graph, program, states, &rg.ratings).run_resumable(config);
    (finals.into_iter().map(|s| s.factor).collect(), trace)
}

/// Root-mean-square error of factor predictions over all ratings.
pub fn rmse(graph: &Graph, ratings: &[f64], factors: &[Factor]) -> f64 {
    let mut se = 0.0f64;
    for (e, &(u, i)) in graph.edge_list().iter().enumerate() {
        let pred = dot(&factors[u as usize], &factors[i as usize]);
        let err = pred - ratings[e];
        se += err * err;
    }
    (se / graph.num_edges().max(1) as f64).sqrt()
}

#[cfg(test)]
mod tests {
    use super::*;
    use graphmine_gen::BipartiteConfig;

    fn small_ratings() -> RatingGraph {
        RatingGraph::generate(&BipartiteConfig::new(600, 2.5, 7))
    }

    #[test]
    fn training_rmse_improves() {
        let rg = small_ratings();
        let initial: Vec<Factor> = (0..rg.graph.num_vertices() as u64)
            .map(init_factor)
            .collect();
        let before = rmse(&rg.graph, &rg.ratings, &initial);
        let (factors, trace) = run_als(&rg, &ExecutionConfig::with_max_iterations(30));
        let after = rmse(&rg.graph, &rg.ratings, &factors);
        assert!(after < before * 0.5, "RMSE before {before}, after {after}");
        assert!(trace.num_iterations() >= 2);
    }

    #[test]
    fn activity_decays_from_full() {
        let rg = small_ratings();
        let (_, trace) = run_als(&rg, &ExecutionConfig::with_max_iterations(50));
        let af = trace.active_fraction();
        assert_eq!(af[0], 1.0);
        assert!(af.last().unwrap() < &1.0, "activity never decayed: {af:?}");
    }

    #[test]
    fn perfectly_factorizable_ratings_are_recovered() {
        // Build ratings from known factors; ALS should reach near-zero RMSE.
        let rg0 = small_ratings();
        let truth: Vec<Factor> = (0..rg0.graph.num_vertices() as u64)
            .map(|v| init_factor(v ^ 0xFFFF))
            .collect();
        let ratings: Vec<f64> = rg0
            .graph
            .edge_list()
            .iter()
            .map(|&(u, i)| dot(&truth[u as usize], &truth[i as usize]))
            .collect();
        let rg = RatingGraph {
            graph: rg0.graph.clone(),
            ratings: ratings.into(),
            num_users: rg0.num_users,
        };
        // Minimal regularization: the ridge otherwise shrinks the exact
        // solution measurably.
        let program = Als {
            lambda: 1e-4,
            ..Als::default()
        };
        let (factors, _) = run_als_with(&rg, program, &ExecutionConfig::with_max_iterations(60));
        let err = rmse(&rg.graph, &rg.ratings, &factors);
        assert!(err < 0.05, "RMSE {err}");
    }

    #[test]
    fn isolated_vertices_keep_factors() {
        // Vertices with no ratings never gather; factors must not change.
        let rg = small_ratings();
        let isolated: Vec<u32> = rg
            .graph
            .vertices()
            .filter(|&v| rg.graph.degree(v) == 0)
            .collect();
        let (factors, _) = run_als(&rg, &ExecutionConfig::with_max_iterations(10));
        for v in isolated {
            assert_eq!(factors[v as usize], init_factor(v as u64));
        }
    }

    #[test]
    fn ereads_decline_with_activity() {
        let rg = small_ratings();
        let (_, trace) = run_als(&rg, &ExecutionConfig::with_max_iterations(50));
        let first = trace.iterations.first().unwrap().edge_reads;
        let last = trace.iterations.last().unwrap().edge_reads;
        assert!(last <= first);
        assert_eq!(first, rg.graph.total_out_slots());
    }
}
