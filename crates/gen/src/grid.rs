//! Square pixel grids for Loopy Belief Propagation.
//!
//! Paper §3.2: "Inputs of LBP include a pixel matrix and vertex data, which
//! are prior estimates for each pixel color. … we only generate square
//! matrices." The grid is the classic 4-connected image MRF; priors are a
//! noisy two-region image so LBP has actual smoothing work to do and
//! converges region-by-region (producing the sharp active-fraction drop of
//! paper Figure 11).

use crate::gaussian::GaussianSampler;
use graphmine_graph::{Graph, GraphBuilder, SharedSlice, VertexId};
use rand::rngs::SmallRng;
use rand::SeedableRng;

/// Build a `side × side` 4-connected undirected grid graph. Vertex `(r, c)`
/// has id `r * side + c`.
pub fn grid_graph(side: usize) -> Graph {
    assert!(side >= 2, "grid side must be >= 2");
    let n = side * side;
    let mut b = GraphBuilder::undirected(n).with_edge_capacity(2 * side * (side - 1));
    for r in 0..side {
        for c in 0..side {
            let v = (r * side + c) as VertexId;
            if c + 1 < side {
                b.push_edge(v, v + 1);
            }
            if r + 1 < side {
                b.push_edge(v, v + side as VertexId);
            }
        }
    }
    b.build()
}

/// A grid MRF instance for LBP: topology plus per-pixel label priors.
#[derive(Debug, Clone)]
pub struct GridMrf {
    /// 4-connected grid topology.
    pub graph: Graph,
    /// Grid side length.
    pub side: usize,
    /// Number of labels (colors).
    pub num_labels: usize,
    /// Prior log-potentials, `num_labels` per vertex, vertex-major
    /// (`n × num_labels`); [`GridMrf::prior_row`] slices one vertex.
    pub priors: SharedSlice<f64>,
    /// Smoothness strength of the pairwise Potts potential.
    pub smoothing: f64,
}

impl GridMrf {
    /// Generate a noisy two-region image MRF: the left half prefers label 0,
    /// the right half prefers label `num_labels - 1`, with Gaussian noise on
    /// every prior so boundary pixels are genuinely ambiguous.
    pub fn generate(side: usize, num_labels: usize, seed: u64) -> GridMrf {
        assert!(num_labels >= 2, "need at least two labels");
        let graph = grid_graph(side);
        let mut rng = SmallRng::seed_from_u64(seed);
        let mut gauss = GaussianSampler::new();
        let mut priors = Vec::with_capacity(side * side * num_labels);
        for _ in 0..side {
            for c in 0..side {
                let preferred = if c < side / 2 { 0 } else { num_labels - 1 };
                let start = priors.len();
                priors.extend((0..num_labels).map(|l| {
                    let signal = if l == preferred { 2.0 } else { 0.0 };
                    signal + 0.5 * gauss.standard(&mut rng)
                }));
                // Normalize to log-probabilities-like scale (max 0).
                let p = &mut priors[start..];
                let max = p.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
                for x in p {
                    *x -= max;
                }
            }
        }
        GridMrf {
            graph,
            side,
            num_labels,
            priors: priors.into(),
            smoothing: 1.0,
        }
    }

    /// Vertex `v`'s prior log-potentials (`num_labels` values).
    #[inline]
    pub fn prior_row(&self, v: usize) -> &[f64] {
        &self.priors[v * self.num_labels..(v + 1) * self.num_labels]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use graphmine_graph::is_connected;

    #[test]
    fn grid_edge_count() {
        // side*side vertices, 2*side*(side-1) edges.
        for side in [2usize, 3, 5, 8] {
            let g = grid_graph(side);
            assert_eq!(g.num_vertices(), side * side);
            assert_eq!(g.num_edges(), 2 * side * (side - 1));
        }
    }

    #[test]
    fn grid_is_connected() {
        assert!(is_connected(&grid_graph(6)));
    }

    #[test]
    fn corner_edge_interior_degrees() {
        let g = grid_graph(4);
        // Corners have degree 2, edges 3, interior 4.
        assert_eq!(g.degree(0), 2); // top-left corner
        assert_eq!(g.degree(1), 3); // top edge
        assert_eq!(g.degree(5), 4); // interior (1,1)
    }

    #[test]
    fn mrf_priors_shape() {
        let mrf = GridMrf::generate(6, 3, 1);
        assert_eq!(mrf.priors.len(), 36 * 3);
        assert_eq!(mrf.prior_row(35).len(), 3);
        // Normalized: every prior has max exactly 0.
        for p in mrf.priors.chunks(3) {
            let max = p.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
            assert!((max - 0.0).abs() < 1e-12);
        }
    }

    #[test]
    fn mrf_left_prefers_zero_right_prefers_last() {
        let mrf = GridMrf::generate(16, 2, 2);
        let side = mrf.side;
        let mut left_zero = 0usize;
        let mut right_one = 0usize;
        for r in 0..side {
            for c in 0..side {
                let p = mrf.prior_row(r * side + c);
                let best = p
                    .iter()
                    .enumerate()
                    .max_by(|a, b| a.1.partial_cmp(b.1).unwrap())
                    .unwrap()
                    .0;
                if c < side / 2 && best == 0 {
                    left_zero += 1;
                }
                if c >= side / 2 && best == 1 {
                    right_one += 1;
                }
            }
        }
        let half = side * side / 2;
        assert!(left_zero > half * 8 / 10, "{left_zero}/{half}");
        assert!(right_one > half * 8 / 10, "{right_one}/{half}");
    }

    #[test]
    fn deterministic() {
        let a = GridMrf::generate(5, 3, 9);
        let b = GridMrf::generate(5, 3, 9);
        assert_eq!(a.priors, b.priors);
    }

    #[test]
    #[should_panic(expected = "side must be >= 2")]
    fn degenerate_grid_rejected() {
        let _ = grid_graph(1);
    }
}
