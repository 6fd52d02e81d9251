//! Bipartite user–item rating graphs for Collaborative Filtering.
//!
//! Paper §3.2: "source vertices of edges are users, target vertices are items
//! to be recommended, and the weight of an edge represents the rating that a
//! user gives to an item … we assume the number of items is equal to the
//! number of users." Item popularity follows the configured power law
//! (blockbuster items collect most ratings); users are near-uniform raters.

use crate::gaussian::GaussianSampler;
use graphmine_graph::{Graph, GraphBuilder, SharedSlice, VertexId};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// Configuration for a [`RatingGraph`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BipartiteConfig {
    /// Target number of ratings (edges).
    pub nedges: usize,
    /// Power-law exponent of item popularity.
    pub alpha: f64,
    /// Ratings per user on average; derives the user count.
    pub mean_ratings_per_user: f64,
    /// Center of the rating scale.
    pub rating_mean: f64,
    /// Spread of ratings.
    pub rating_std: f64,
    /// RNG seed.
    pub seed: u64,
}

impl BipartiteConfig {
    /// Standard CF configuration: 1–5-star-like ratings, 16 per user.
    pub fn new(nedges: usize, alpha: f64, seed: u64) -> BipartiteConfig {
        BipartiteConfig {
            nedges,
            alpha,
            mean_ratings_per_user: 16.0,
            rating_mean: 3.0,
            rating_std: 1.0,
            seed,
        }
    }

    /// Number of users (equals the number of items, per the paper).
    pub fn num_users(&self) -> usize {
        ((self.nedges as f64 / self.mean_ratings_per_user).round() as usize).max(2)
    }
}

/// A bipartite rating graph: vertices `0..num_users` are users, vertices
/// `num_users..2*num_users` are items; every edge runs user → item and
/// carries a rating.
#[derive(Debug, Clone)]
pub struct RatingGraph {
    /// The underlying undirected topology (GAS gathers run over all incident
    /// edges for both user and item vertices, as in GraphLab's ALS toolkit).
    pub graph: Graph,
    /// One rating per edge id.
    pub ratings: SharedSlice<f64>,
    /// Number of user vertices; items are `num_users..2*num_users`.
    pub num_users: usize,
}

impl RatingGraph {
    /// Whether vertex `v` is a user.
    #[inline]
    pub fn is_user(&self, v: VertexId) -> bool {
        (v as usize) < self.num_users
    }

    /// Whether vertex `v` is an item.
    #[inline]
    pub fn is_item(&self, v: VertexId) -> bool {
        !self.is_user(v)
    }

    /// Generate a rating graph per `config`.
    pub fn generate(config: &BipartiteConfig) -> RatingGraph {
        let users = config.num_users();
        let items = users;
        let n = users + items;
        let mut rng = SmallRng::seed_from_u64(config.seed);
        // Item popularity: Zipf weights with exponent derived from alpha,
        // same scheme as the Chung-Lu generator.
        let exponent = -1.0 / (config.alpha - 1.0);
        let mut cumulative = Vec::with_capacity(items);
        let mut acc = 0.0f64;
        for i in 0..items {
            acc += ((i + 1) as f64).powf(exponent);
            cumulative.push(acc);
        }
        let total = acc;
        let mut builder =
            GraphBuilder::undirected(n).with_edge_capacity(config.nedges + config.nedges / 16);
        // Redraw colliding (user, item) pairs until the target is met, as
        // in the power-law generator (popular items collide often).
        let mut seen = std::collections::HashSet::with_capacity(config.nedges * 2);
        let max_attempts = 6 * config.nedges + 64;
        let mut attempts = 0usize;
        while seen.len() < config.nedges && attempts < max_attempts {
            attempts += 1;
            let user = rng.gen_range(0..users) as VertexId;
            let x = rng.gen::<f64>() * total;
            let item = (users + cumulative.partition_point(|&c| c < x)) as VertexId;
            if seen.insert((user, item)) {
                builder.push_edge(user, item);
            }
        }
        let graph = builder.build();
        let mut g = GaussianSampler::new();
        let ratings: Vec<f64> = (0..graph.num_edges())
            .map(|_| {
                g.sample(&mut rng, config.rating_mean, config.rating_std)
                    .clamp(0.5, 5.5)
            })
            .collect();
        RatingGraph {
            graph,
            ratings: ratings.into(),
            num_users: users,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn edges_connect_users_to_items_only() {
        let rg = RatingGraph::generate(&BipartiteConfig::new(5_000, 2.5, 1));
        for &(s, d) in rg.graph.edge_list() {
            let user_side = rg.is_user(s) as usize + rg.is_user(d) as usize;
            assert_eq!(user_side, 1, "edge ({s},{d}) not user-item");
        }
    }

    #[test]
    fn users_equal_items() {
        let cfg = BipartiteConfig::new(8_000, 2.25, 2);
        let rg = RatingGraph::generate(&cfg);
        assert_eq!(rg.graph.num_vertices(), 2 * rg.num_users);
        assert_eq!(rg.num_users, cfg.num_users());
    }

    #[test]
    fn ratings_in_scale_and_one_per_edge() {
        let rg = RatingGraph::generate(&BipartiteConfig::new(3_000, 2.5, 3));
        assert_eq!(rg.ratings.len(), rg.graph.num_edges());
        assert!(rg.ratings.iter().all(|&r| (0.5..=5.5).contains(&r)));
    }

    #[test]
    fn popular_items_dominate_with_small_alpha() {
        let rg = RatingGraph::generate(&BipartiteConfig::new(20_000, 2.0, 4));
        let top_item_degree = (rg.num_users..2 * rg.num_users)
            .map(|v| rg.graph.degree(v as VertexId))
            .max()
            .unwrap();
        let mean_item_degree = rg.graph.num_edges() as f64 / rg.num_users as f64;
        assert!(
            top_item_degree as f64 > 8.0 * mean_item_degree,
            "top {top_item_degree} vs mean {mean_item_degree}"
        );
    }

    #[test]
    fn deterministic() {
        let a = RatingGraph::generate(&BipartiteConfig::new(1_000, 2.5, 9));
        let b = RatingGraph::generate(&BipartiteConfig::new(1_000, 2.5, 9));
        assert_eq!(a.graph.edge_list(), b.graph.edge_list());
        assert_eq!(a.ratings, b.ratings);
    }

    #[test]
    fn realized_edges_close_to_target() {
        let rg = RatingGraph::generate(&BipartiteConfig::new(10_000, 2.5, 5));
        let m = rg.graph.num_edges();
        assert!((9_000..=10_600).contains(&m), "m = {m}");
    }
}
