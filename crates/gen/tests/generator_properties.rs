//! Property tests over all synthetic generators, as seeded case loops.

use graphmine_gen::{
    grid_graph, matrix_graph, mrf_graph, powerlaw_graph, BipartiteConfig, GridMrf, MrfConfig,
    PowerLawConfig, RatingGraph,
};
use graphmine_graph::{is_connected, DegreeStats};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// Seeded cases per property test; a failure names its seed and case.
const CASES: u64 = 12;
const SEED: u64 = 0x6E4;

/// Power-law graphs respect the configured size within tolerance and
/// always validate. Duplicate-sample loss grows as graphs shrink and
/// skew increases (α → 2.0 concentrates both endpoints on a few hubs),
/// so the lower bound is scale-aware: tiny graphs may realize only
/// half the requested edges, larger ones must reach 80%.
#[test]
fn powerlaw_well_formed() {
    let check = |nedges: usize, alpha: f64, graph_seed: u64, at: &str| {
        let g = powerlaw_graph(&PowerLawConfig::new(nedges, alpha, graph_seed));
        assert!(g.validate().is_ok(), "{at}");
        let m = g.num_edges();
        let floor = if nedges >= 2_000 {
            nedges * 8 / 10
        } else {
            nedges * 4 / 10
        };
        assert!(m >= floor, "{at}: only {m} of {nedges} edges realized");
        assert!(
            m <= nedges + nedges / 10 + 16,
            "{at}: {m} of {nedges} edges"
        );
    };
    // The smallest, most skewed corner once broke a scale-blind bound.
    check(200, 2.0, 0, "fixed case (200, 2.0, 0)");
    for case in 0..CASES {
        let seed = SEED + case;
        let at = format!("seed {seed}, case {case}");
        let mut rng = SmallRng::seed_from_u64(seed);
        let nedges = rng.gen_range(200..5_000);
        let alpha = rng.gen_range(2.0..3.0);
        let graph_seed = rng.gen_range(0..10_000);
        check(nedges, alpha, graph_seed, &at);
    }
}

/// Mean degree lands near the configured target.
#[test]
fn powerlaw_mean_degree() {
    for case in 0..CASES {
        let seed = SEED + case;
        let at = format!("seed {seed}, case {case}");
        let mut rng = SmallRng::seed_from_u64(seed);
        let nedges = rng.gen_range(2_000..8_000);
        let g = powerlaw_graph(&PowerLawConfig::new(nedges, 2.5, rng.gen_range(0..1_000)));
        let stats = DegreeStats::of(&g);
        assert!(
            (stats.mean - 16.0).abs() < 6.0,
            "{at}: mean degree {}",
            stats.mean
        );
    }
}

/// Rating graphs are strictly bipartite with in-scale ratings.
#[test]
fn ratings_bipartite() {
    for case in 0..CASES {
        let seed = SEED + case;
        let at = format!("seed {seed}, case {case}");
        let mut rng = SmallRng::seed_from_u64(seed);
        let nedges = rng.gen_range(200..4_000);
        let alpha = rng.gen_range(2.0..3.0);
        let rg = RatingGraph::generate(&BipartiteConfig::new(
            nedges,
            alpha,
            rng.gen_range(0..10_000),
        ));
        for &(s, d) in rg.graph.edge_list() {
            assert!(rg.is_user(s) != rg.is_user(d), "{at}: edge {s}-{d}");
        }
        assert!(rg.ratings.iter().all(|r| r.is_finite() && *r > 0.0), "{at}");
    }
}

/// Matrix systems are strictly diagonally dominant with uniform degree.
#[test]
fn matrices_dominant() {
    for case in 0..CASES {
        let seed = SEED + case;
        let at = format!("seed {seed}, case {case}");
        let mut rng = SmallRng::seed_from_u64(seed);
        let nrows = rng.gen_range(8..300);
        let degree = rng.gen_range(2..12);
        let sys = matrix_graph(nrows, degree, rng.gen_range(0..10_000));
        let expect = degree.min(nrows - 1);
        for v in sys.graph.vertices() {
            assert_eq!(sys.graph.out_degree(v), expect, "{at}: row {v}");
            let row: f64 = sys
                .graph
                .incident(v, graphmine_graph::Direction::Out)
                .map(|(e, _)| sys.off_diagonal[e as usize].abs())
                .sum();
            assert!(sys.diagonal[v as usize] > row, "{at}: row {v}");
        }
    }
}

/// Grid MRFs have the exact lattice shape.
#[test]
fn grids_exact() {
    for case in 0..CASES {
        let seed = SEED + case;
        let side = SmallRng::seed_from_u64(seed).gen_range(2..40);
        let g = grid_graph(side);
        let at = format!("seed {seed}, case {case}: side {side}");
        assert_eq!(g.num_vertices(), side * side, "{at}");
        assert_eq!(g.num_edges(), 2 * side * (side - 1), "{at}");
        assert!(is_connected(&g), "{at}");
    }
}

/// MRF generator produces the exact requested edge count, connected.
#[test]
fn mrfs_exact_edges() {
    for case in 0..CASES {
        let seed = SEED + case;
        let mut rng = SmallRng::seed_from_u64(seed);
        let nedges = 60 + rng.gen_range(0..400usize);
        let mrf = mrf_graph(&MrfConfig::new(nedges, rng.gen_range(0..10_000)));
        let at = format!("seed {seed}, case {case}");
        assert_eq!(mrf.graph.num_edges(), nedges, "{at}");
        assert!(is_connected(&mrf.graph), "{at}");
        assert_eq!(
            mrf.unary.len(),
            mrf.graph.num_vertices() * mrf.num_labels,
            "{at}"
        );
    }
}

/// Grid MRF priors are normalized log-potentials.
#[test]
fn grid_mrf_priors_normalized() {
    for case in 0..CASES {
        let seed = SEED + case;
        let at = format!("seed {seed}, case {case}");
        let mut rng = SmallRng::seed_from_u64(seed);
        let side = rng.gen_range(2..20);
        let labels = rng.gen_range(2..5);
        let mrf = GridMrf::generate(side, labels, rng.gen_range(0..10_000));
        assert_eq!(mrf.priors.len(), side * side * labels, "{at}");
        for p in mrf.priors.chunks(labels) {
            let max = p.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
            assert!(max.abs() < 1e-9, "{at}: prior max {max} not normalized");
        }
    }
}

#[test]
fn all_generators_deterministic() {
    let p1 = powerlaw_graph(&PowerLawConfig::new(1_000, 2.5, 7));
    let p2 = powerlaw_graph(&PowerLawConfig::new(1_000, 2.5, 7));
    assert_eq!(p1.edge_list(), p2.edge_list());

    let r1 = RatingGraph::generate(&BipartiteConfig::new(800, 2.5, 7));
    let r2 = RatingGraph::generate(&BipartiteConfig::new(800, 2.5, 7));
    assert_eq!(r1.ratings, r2.ratings);

    let m1 = matrix_graph(64, 4, 7);
    let m2 = matrix_graph(64, 4, 7);
    assert_eq!(m1.rhs, m2.rhs);

    let g1 = GridMrf::generate(8, 2, 7);
    let g2 = GridMrf::generate(8, 2, 7);
    assert_eq!(g1.priors, g2.priors);

    let f1 = mrf_graph(&MrfConfig::new(100, 7));
    let f2 = mrf_graph(&MrfConfig::new(100, 7));
    assert_eq!(f1.pairwise, f2.pairwise);
}
