//! Approximate Diameter (paper §2.1).
//!
//! "Approximate Diameter estimates the diameter of a graph, which is the
//! longest distance between any two vertices." Implemented, as in the
//! GraphLab toolkit, with Flajolet–Martin neighborhood sketches: every
//! vertex keeps K bitmask registers approximating `|N_h(v)|`, the number of
//! vertices within h hops; each iteration ORs in the neighbors' sketches.
//! The diameter estimate is the first h at which the global neighborhood
//! function stops growing. All vertices stay active for the whole run —
//! the paper's "active fraction = 1.0 for the whole lifecycle" (Figure 1).

use graphmine_engine::{ApplyInfo, EdgeSet, ExecutionConfig, RunTrace, SyncEngine, VertexProgram};
use graphmine_graph::{Direction, EdgeId, Graph, VertexId};
use parking_lot::Mutex;

/// Number of FM registers per vertex (more = tighter estimate).
pub const NUM_SKETCHES: usize = 8;

/// A Flajolet–Martin bitmask sketch set.
pub type Sketch = [u64; NUM_SKETCHES];

/// Splitmix-style hash for seeding sketch bits.
fn hash64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// Geometric bit position: index of the lowest set bit of a hash (FM's
/// ρ function), capped to 63.
fn fm_bit(h: u64) -> u32 {
    h.trailing_zeros().min(63)
}

/// FM estimate of the cardinality from one bitmask: 2^r / 0.77351 where r is
/// the lowest unset bit.
fn fm_estimate(mask: u64) -> f64 {
    let r = (!mask).trailing_zeros();
    2f64.powi(r as i32) / 0.77351
}

/// Global convergence tracker shared across iterations.
#[derive(Debug, Clone, Default)]
pub struct AdGlobal {
    /// Neighborhood-function estimate after the previous iteration.
    pub prev_nf: f64,
    /// Estimate after the current iteration (filled by `should_halt`).
    pub curr_nf: f64,
    /// Iteration at which growth stopped (the diameter estimate).
    pub converged_at: Option<usize>,
}

/// The AD vertex program.
pub struct ApproxDiameter {
    /// Relative growth below which the neighborhood function is "stable".
    pub growth_tolerance: f64,
    /// Interior mutability for convergence bookkeeping computed in
    /// `should_halt` (the engine hands `&Global` there).
    tracker: Mutex<AdGlobal>,
}

impl ApproxDiameter {
    /// Standard configuration (0.1% growth tolerance).
    pub fn new() -> ApproxDiameter {
        ApproxDiameter {
            growth_tolerance: 1e-3,
            tracker: Mutex::new(AdGlobal::default()),
        }
    }

    fn neighborhood_function(states: &[Sketch]) -> f64 {
        states
            .iter()
            .map(|s| {
                let mean: f64 =
                    s.iter().map(|&m| fm_estimate(m)).sum::<f64>() / NUM_SKETCHES as f64;
                mean
            })
            .sum()
    }
}

impl Default for ApproxDiameter {
    fn default() -> Self {
        Self::new()
    }
}

impl VertexProgram for ApproxDiameter {
    type State = Sketch;
    type EdgeData = ();
    type Accum = Sketch;
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
        _v_state: &Sketch,
        nbr_state: &Sketch,
        _edge: &(),
        _global: &(),
    ) -> Sketch {
        *nbr_state
    }

    fn merge(&self, into: &mut Sketch, from: Sketch) {
        for i in 0..NUM_SKETCHES {
            into[i] |= from[i];
        }
    }

    fn apply(
        &self,
        _v: VertexId,
        state: &mut Sketch,
        acc: Option<Sketch>,
        _msg: Option<&()>,
        _global: &(),
        info: &mut ApplyInfo,
    ) {
        info.ops += NUM_SKETCHES as u64;
        if let Some(acc) = acc {
            for i in 0..NUM_SKETCHES {
                state[i] |= acc[i];
            }
        }
    }

    fn should_halt(&self, iter: usize, states: &[Sketch], _global: &()) -> bool {
        let nf = Self::neighborhood_function(states);
        let mut t = self.tracker.lock();
        let grew = nf > t.prev_nf * (1.0 + self.growth_tolerance);
        t.curr_nf = nf;
        if !grew && iter > 0 {
            t.converged_at = Some(iter);
            return true;
        }
        t.prev_nf = nf;
        false
    }
}

/// Result of a diameter estimation run.
#[derive(Debug, Clone, PartialEq)]
pub struct DiameterEstimate {
    /// Estimated diameter in hops.
    pub diameter: usize,
    /// Final neighborhood-function estimate (≈ reachable pairs).
    pub neighborhood_function: f64,
}

/// Run approximate diameter estimation on an undirected graph.
pub fn run_adiam(graph: &Graph, config: &ExecutionConfig) -> (DiameterEstimate, RunTrace) {
    let n = graph.num_vertices();
    // Seed sketches: vertex v sets one FM bit per register, hashed from its
    // id before any degree reordering so a reordered graph runs the same
    // estimate.
    let inverse = graph.vertex_inverse();
    let states: Vec<Sketch> = (0..n)
        .map(|v| {
            let id = inverse.map_or(v as u64, |inv| u64::from(inv[v]));
            let mut s = [0u64; NUM_SKETCHES];
            for (r, slot) in s.iter_mut().enumerate() {
                *slot = 1u64 << fm_bit(hash64(id ^ ((r as u64) << 56) ^ 0xABCD));
            }
            s
        })
        .collect();
    let program = ApproxDiameter::new();
    let edge_data = vec![(); graph.num_edges()];
    let engine = SyncEngine::with_global(graph, program, states, &edge_data, ());
    let (final_states, trace) = engine.run_resumable(config);
    let nf = ApproxDiameter::neighborhood_function(&final_states);
    // Diameter ≈ iterations until the neighborhood function stabilized; the
    // final iteration confirmed no growth, so the distance reached is one
    // less than the number of iterations run.
    let diameter = trace.num_iterations().saturating_sub(1);
    (
        DiameterEstimate {
            diameter,
            neighborhood_function: nf,
        },
        trace,
    )
}

/// Exact diameter by all-pairs BFS (small graphs only).
pub fn exact_diameter(graph: &Graph) -> usize {
    let mut best = 0usize;
    for v in graph.vertices() {
        let dist = graphmine_graph::bfs_distances(graph, v, Direction::Out);
        for &d in &dist {
            if d != u32::MAX {
                best = best.max(d as usize);
            }
        }
    }
    best
}

#[cfg(test)]
mod tests {
    use super::*;
    use graphmine_graph::GraphBuilder;

    fn path(n: usize) -> Graph {
        let mut b = GraphBuilder::undirected(n);
        for v in 0..(n as u32 - 1) {
            b.push_edge(v, v + 1);
        }
        b.build()
    }

    #[test]
    fn path_diameter_close_to_exact() {
        let g = path(20);
        let exact = exact_diameter(&g); // 19
        let (est, trace) = run_adiam(&g, &ExecutionConfig::default());
        assert!(trace.converged);
        // FM bitmask estimates move in powers of two, so the tail of a
        // path is blurred; accept the estimate within 35% of exact.
        assert!(
            (est.diameter as f64 - exact as f64).abs() <= 0.35 * exact as f64,
            "estimated {} vs exact {exact}",
            est.diameter
        );
    }

    #[test]
    fn clique_diameter_is_tiny() {
        let mut b = GraphBuilder::undirected(8);
        for i in 0..8u32 {
            for j in (i + 1)..8 {
                b.push_edge(i, j);
            }
        }
        let (est, _) = run_adiam(&b.build(), &ExecutionConfig::default());
        assert!(est.diameter <= 2, "estimated {}", est.diameter);
    }

    #[test]
    fn all_vertices_active_throughout() {
        let g = path(12);
        let (_, trace) = run_adiam(&g, &ExecutionConfig::default());
        assert!(trace
            .active_fraction()
            .iter()
            .all(|&f| (f - 1.0).abs() < 1e-12));
    }

    #[test]
    fn neighborhood_function_approximates_pair_count() {
        // Connected graph: NF should approach n^2 (every vertex reaches all
        // n vertices). FM error is within a factor ~2 at 8 registers.
        let g = path(30);
        let (est, _) = run_adiam(&g, &ExecutionConfig::default());
        let n2 = 30.0 * 30.0;
        assert!(
            est.neighborhood_function > n2 / 3.0 && est.neighborhood_function < n2 * 3.0,
            "NF {} vs n^2 {n2}",
            est.neighborhood_function
        );
    }

    #[test]
    fn eread_constant_per_iteration() {
        let g = path(16); // degree sum 30
        let (_, trace) = run_adiam(&g, &ExecutionConfig::default());
        assert!(trace.iterations.iter().all(|it| it.edge_reads == 30));
    }

    #[test]
    fn exact_diameter_of_cycle() {
        let mut b = GraphBuilder::undirected(10);
        for v in 0..10u32 {
            b.push_edge(v, (v + 1) % 10);
        }
        assert_eq!(exact_diameter(&b.build()), 5);
    }
}
