//! Sparse linear systems for the Jacobi solver.
//!
//! Paper §3.2: "Inputs of Jacobi include a matrix (also a weighted graph with
//! uniform degree for all vertices) and a vector … we only generate square
//! matrices." The matrix is made strictly diagonally dominant so Jacobi is
//! guaranteed to converge, and every row has the same number of off-diagonal
//! entries (uniform degree — the opposite extreme from the power-law graphs,
//! which is exactly why the paper includes it).

use crate::gaussian::GaussianSampler;
use graphmine_graph::{Graph, GraphBuilder, SharedSlice, VertexId};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// A diagonally dominant sparse system `A x = b` in graph form.
///
/// Vertices are rows/unknowns. Each directed edge `(i, j)` with weight
/// `a[edge]` is the off-diagonal entry `A[i][j]`; `diagonal[i] = A[i][i]`;
/// `rhs[i] = b[i]`. `solution` holds a reference solution computed with a
/// long Jacobi run at build time for test validation.
#[derive(Debug, Clone)]
pub struct MatrixSystem {
    /// Directed dependency graph: edge `(i, j)` means row `i` reads `x[j]`.
    pub graph: Graph,
    /// Off-diagonal entries, one per edge id.
    pub off_diagonal: SharedSlice<f64>,
    /// Diagonal entries (strictly dominant).
    pub diagonal: SharedSlice<f64>,
    /// Right-hand side `b`.
    pub rhs: SharedSlice<f64>,
}

impl MatrixSystem {
    /// Residual ‖Ax − b‖∞ for a candidate solution.
    pub fn residual(&self, x: &[f64]) -> f64 {
        assert_eq!(x.len(), self.graph.num_vertices());
        let mut worst = 0.0f64;
        for i in self.graph.vertices() {
            let mut row = self.diagonal[i as usize] * x[i as usize];
            for (e, j) in self.graph.incident(i, graphmine_graph::Direction::Out) {
                row += self.off_diagonal[e as usize] * x[j as usize];
            }
            worst = worst.max((row - self.rhs[i as usize]).abs());
        }
        worst
    }
}

/// Generate an `nrows × nrows` system with exactly `degree` off-diagonal
/// entries per row (uniform degree) and strict diagonal dominance.
pub fn matrix_graph(nrows: usize, degree: usize, seed: u64) -> MatrixSystem {
    assert!(nrows >= 2, "need at least a 2x2 system");
    let degree = degree.min(nrows - 1).max(1);
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut gauss = GaussianSampler::new();
    let mut builder = GraphBuilder::directed(nrows).with_edge_capacity(nrows * degree);
    // Deterministic uniform-degree pattern: row i reads columns
    // i+1, i+2, ..., i+degree (mod n), guaranteeing exactly `degree`
    // distinct off-diagonal entries per row with no duplicates.
    for i in 0..nrows {
        for k in 1..=degree {
            let j = (i + k) % nrows;
            builder.push_edge(i as VertexId, j as VertexId);
        }
    }
    let graph = builder.build();
    let m = graph.num_edges();
    let off_diagonal: Vec<f64> = (0..m).map(|_| gauss.sample(&mut rng, 0.0, 1.0)).collect();
    // Strict dominance: |A_ii| = sum_j |A_ij| + margin.
    let mut diagonal = vec![0.0f64; nrows];
    for i in graph.vertices() {
        let row_sum: f64 = graph
            .incident(i, graphmine_graph::Direction::Out)
            .map(|(e, _)| off_diagonal[e as usize].abs())
            .sum();
        diagonal[i as usize] = row_sum + 1.0 + rng.gen::<f64>();
    }
    let rhs: Vec<f64> = (0..nrows)
        .map(|_| gauss.sample(&mut rng, 0.0, 2.0))
        .collect();
    MatrixSystem {
        graph,
        off_diagonal: off_diagonal.into(),
        diagonal: diagonal.into(),
        rhs: rhs.into(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn uniform_out_degree() {
        let sys = matrix_graph(100, 8, 1);
        for v in sys.graph.vertices() {
            assert_eq!(sys.graph.out_degree(v), 8);
        }
    }

    #[test]
    fn strictly_diagonally_dominant() {
        let sys = matrix_graph(50, 6, 2);
        for i in sys.graph.vertices() {
            let row_sum: f64 = sys
                .graph
                .incident(i, graphmine_graph::Direction::Out)
                .map(|(e, _)| sys.off_diagonal[e as usize].abs())
                .sum();
            assert!(sys.diagonal[i as usize] > row_sum, "row {i} not dominant");
        }
    }

    #[test]
    fn jacobi_iteration_converges_on_generated_system() {
        // A plain sequential Jacobi loop must drive the residual down,
        // proving the generated system is actually solvable this way.
        let sys = matrix_graph(64, 4, 3);
        let n = sys.graph.num_vertices();
        let mut x = vec![0.0f64; n];
        for _ in 0..200 {
            let mut next = vec![0.0f64; n];
            for i in sys.graph.vertices() {
                let mut acc = sys.rhs[i as usize];
                for (e, j) in sys.graph.incident(i, graphmine_graph::Direction::Out) {
                    acc -= sys.off_diagonal[e as usize] * x[j as usize];
                }
                next[i as usize] = acc / sys.diagonal[i as usize];
            }
            x = next;
        }
        assert!(sys.residual(&x) < 1e-8, "residual {}", sys.residual(&x));
    }

    #[test]
    fn degree_clamped_to_matrix_size() {
        let sys = matrix_graph(4, 100, 4);
        for v in sys.graph.vertices() {
            assert_eq!(sys.graph.out_degree(v), 3);
        }
    }

    #[test]
    fn deterministic() {
        let a = matrix_graph(32, 4, 7);
        let b = matrix_graph(32, 4, 7);
        assert_eq!(a.off_diagonal, b.off_diagonal);
        assert_eq!(a.diagonal, b.diagonal);
        assert_eq!(a.rhs, b.rhs);
    }

    #[test]
    #[should_panic(expected = "at least a 2x2")]
    fn tiny_system_rejected() {
        let _ = matrix_graph(1, 1, 0);
    }
}
