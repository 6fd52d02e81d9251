//! Power-law (scale-free) graph generation via Chung–Lu sampling.
//!
//! Given a target edge count and exponent α, each vertex `v` receives a Zipf
//! weight `w_v = (v + 1)^(-1/(α-1))`; edges are sampled by drawing both
//! endpoints independently with probability proportional to `w`. The
//! resulting *expected* degree of vertex `v` is proportional to `w_v`, which
//! yields a degree distribution `P(k) ~ k^-α` — the standard Chung–Lu
//! construction for scale-free networks.
//!
//! The paper fixes `nedges` and lets the number of vertices vary slightly
//! (§3.2: "accepting slight variation in the number of vertices"); we do the
//! same by deriving `n` from `nedges` and a target mean degree.

use crate::gaussian::GaussianSampler;
use graphmine_graph::{Graph, GraphBuilder, VertexId};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// Configuration for [`powerlaw_graph`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PowerLawConfig {
    /// Target number of edges (the realized count may be slightly lower
    /// after removing duplicates).
    pub nedges: usize,
    /// Power-law exponent α, typically in 2.0–3.0 (paper Eq. 1).
    pub alpha: f64,
    /// Mean degree used to derive the vertex count: `n = 2·nedges / mean`.
    pub mean_degree: f64,
    /// Whether the graph is directed.
    pub directed: bool,
    /// RNG seed (all generators are deterministic).
    pub seed: u64,
}

impl PowerLawConfig {
    /// A standard configuration matching the paper's experiment matrix:
    /// undirected, mean degree 16.
    pub fn new(nedges: usize, alpha: f64, seed: u64) -> PowerLawConfig {
        PowerLawConfig {
            nedges,
            alpha,
            mean_degree: 16.0,
            directed: false,
            seed,
        }
    }

    /// Switch to a directed graph.
    pub fn directed(mut self) -> PowerLawConfig {
        self.directed = true;
        self
    }

    /// Override the target mean degree.
    pub fn with_mean_degree(mut self, mean: f64) -> PowerLawConfig {
        self.mean_degree = mean;
        self
    }

    /// Number of vertices this configuration will produce.
    pub fn num_vertices(&self) -> usize {
        ((2.0 * self.nedges as f64 / self.mean_degree).round() as usize).max(4)
    }
}

/// Alias-free weighted endpoint sampler: inverse-CDF over cumulative Zipf
/// weights with binary search. O(log n) per draw.
struct EndpointSampler {
    cumulative: Vec<f64>,
}

impl EndpointSampler {
    fn new(n: usize, alpha: f64) -> EndpointSampler {
        assert!(alpha > 1.0, "alpha must exceed 1 (paper uses 2.0..3.0)");
        let exponent = -1.0 / (alpha - 1.0);
        let mut cumulative = Vec::with_capacity(n);
        let mut acc = 0.0f64;
        for v in 0..n {
            acc += ((v + 1) as f64).powf(exponent);
            cumulative.push(acc);
        }
        EndpointSampler { cumulative }
    }

    fn draw(&self, rng: &mut impl Rng) -> VertexId {
        let total = *self.cumulative.last().expect("non-empty sampler");
        let x = rng.gen::<f64>() * total;
        self.cumulative.partition_point(|&c| c < x) as VertexId
    }
}

/// Generate a scale-free graph per `config`.
///
/// Duplicate samples and self-loops are discarded and re-drawn (Chung–Lu
/// sampling concentrates both endpoints on the hubs, so at α = 2.0 a large
/// fraction of raw draws collide). Sampling continues until the distinct
/// edge target is met or a 6× attempt budget is exhausted, so the realized
/// count matches `config.nedges` except for pathologically small/skewed
/// settings — the paper's "slight variation" tolerance.
pub fn powerlaw_graph(config: &PowerLawConfig) -> Graph {
    let n = config.num_vertices();
    let mut rng = SmallRng::seed_from_u64(config.seed);
    let sampler = EndpointSampler::new(n, config.alpha);
    let mut builder = if config.directed {
        GraphBuilder::directed(n)
    } else {
        GraphBuilder::undirected(n)
    }
    .with_edge_capacity(config.nedges + config.nedges / 16);
    let mut seen = std::collections::HashSet::with_capacity(config.nedges * 2);
    let max_attempts = 6 * config.nedges + 64;
    let mut attempts = 0usize;
    while seen.len() < config.nedges && attempts < max_attempts {
        attempts += 1;
        let s = sampler.draw(&mut rng);
        let d = sampler.draw(&mut rng);
        if s == d {
            continue;
        }
        let key = if config.directed || s < d {
            (s, d)
        } else {
            (d, s)
        };
        if seen.insert(key) {
            builder.push_edge(s, d);
        }
    }
    builder.build()
}

/// Generate 2-D Gaussian vertex data (the Clustering domain's data points,
/// §3.2) for a graph with `n` vertices, as an x column and a y column.
/// Each point draws x, then y.
pub fn gaussian_points(n: usize, seed: u64) -> (Vec<f64>, Vec<f64>) {
    let mut rng = SmallRng::seed_from_u64(seed ^ 0x9E37_79B9_7F4A_7C15);
    let mut g = GaussianSampler::new();
    let mut xs = Vec::with_capacity(n);
    let mut ys = Vec::with_capacity(n);
    for _ in 0..n {
        xs.push(g.standard(&mut rng));
        ys.push(g.standard(&mut rng));
    }
    (xs, ys)
}

/// Generate Gaussian edge weights (mean 1, σ 0.25, clamped positive) for a
/// graph with `m` edges — used as SSSP distances.
pub fn gaussian_edge_weights(m: usize, seed: u64) -> Vec<f64> {
    let mut rng = SmallRng::seed_from_u64(seed ^ 0xDEAD_BEEF_CAFE_F00D);
    let mut g = GaussianSampler::new();
    (0..m)
        .map(|_| g.sample(&mut rng, 1.0, 0.25).max(0.05))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use graphmine_graph::{estimate_powerlaw_alpha, DegreeStats};

    #[test]
    fn realized_edge_count_close_to_target() {
        let g = powerlaw_graph(&PowerLawConfig::new(20_000, 2.5, 1));
        let m = g.num_edges();
        assert!(
            (18_000..=21_100).contains(&m),
            "realized edges {m} too far from 20k"
        );
    }

    #[test]
    fn alpha_recovered_within_tolerance() {
        // The discrete MLE on a finite Chung-Lu sample is biased toward the
        // bulk, so we require (a) a generous absolute band and (b) strict
        // monotonicity: a larger configured alpha must estimate larger.
        let mut estimates = Vec::new();
        for &alpha in &[2.0, 2.5, 3.0] {
            let g = powerlaw_graph(&PowerLawConfig::new(50_000, alpha, 42));
            let est = estimate_powerlaw_alpha(&g, 8).expect("estimable");
            assert!((est - alpha).abs() < 0.8, "alpha {alpha}: estimated {est}");
            estimates.push(est);
        }
        assert!(
            estimates.windows(2).all(|w| w[0] < w[1]),
            "estimates not monotone: {estimates:?}"
        );
    }

    #[test]
    fn smaller_alpha_is_more_skewed() {
        // α = 2.0 concentrates mass on hubs far more than α = 3.0.
        let g20 = powerlaw_graph(&PowerLawConfig::new(30_000, 2.0, 3));
        let g30 = powerlaw_graph(&PowerLawConfig::new(30_000, 3.0, 3));
        let s20 = DegreeStats::of(&g20);
        let s30 = DegreeStats::of(&g30);
        assert!(
            s20.max > 2 * s30.max,
            "max degree α=2.0: {}, α=3.0: {}",
            s20.max,
            s30.max
        );
    }

    #[test]
    fn deterministic_per_seed_distinct_across_seeds() {
        let a = powerlaw_graph(&PowerLawConfig::new(2_000, 2.5, 5));
        let b = powerlaw_graph(&PowerLawConfig::new(2_000, 2.5, 5));
        let c = powerlaw_graph(&PowerLawConfig::new(2_000, 2.5, 6));
        assert_eq!(a.edge_list(), b.edge_list());
        assert_ne!(a.edge_list(), c.edge_list());
    }

    #[test]
    fn directed_variant() {
        let g = powerlaw_graph(&PowerLawConfig::new(5_000, 2.5, 7).directed());
        assert!(g.is_directed());
        assert!(g.validate().is_ok());
    }

    #[test]
    fn vertex_count_follows_mean_degree() {
        let cfg = PowerLawConfig::new(10_000, 2.5, 0).with_mean_degree(10.0);
        assert_eq!(cfg.num_vertices(), 2_000);
    }

    #[test]
    fn gaussian_points_and_weights_are_deterministic() {
        assert_eq!(gaussian_points(8, 3), gaussian_points(8, 3));
        assert_ne!(gaussian_points(8, 3), gaussian_points(8, 4));
        let w = gaussian_edge_weights(100, 1);
        assert!(w.iter().all(|&x| x > 0.0));
    }

    #[test]
    #[should_panic(expected = "alpha must exceed 1")]
    fn alpha_below_one_rejected() {
        let _ = powerlaw_graph(&PowerLawConfig::new(100, 0.5, 0));
    }
}
