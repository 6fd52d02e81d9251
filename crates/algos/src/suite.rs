//! Uniform `(algorithm, workload) → behavior trace` dispatch.
//!
//! The paper's experiment matrix (Table 2) crosses algorithms with
//! domain-appropriate synthetic workloads; this module gives the harness a
//! single entry point for every cell of that matrix.

use crate::{adiam, als, cc, dd, jacobi, kcore, kmeans, lbp, nmf, pagerank, sgd, sssp, svd, tc};
use graphmine_engine::{ExecutionConfig, RunTrace};
use graphmine_gen::{
    gaussian_edge_weights, gaussian_points, mrf_graph, powerlaw_graph, BipartiteConfig, GridMrf,
    MatrixSystem, MrfConfig, MrfGraph, PowerLawConfig, RatingGraph,
};
use graphmine_graph::{Graph, Representation, SharedSlice};
use serde::{Deserialize, Serialize};
use std::fmt;

/// Application domains (paper §2.1).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Domain {
    /// Graph Analytics.
    GraphAnalytics,
    /// Clustering.
    Clustering,
    /// Collaborative Filtering.
    CollaborativeFiltering,
    /// Linear Solver.
    LinearSolver,
    /// Graphical Models.
    GraphicalModel,
}

/// The fourteen algorithms of the study.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
#[allow(missing_docs)]
pub enum AlgorithmKind {
    Cc,
    Kc,
    Tc,
    Sssp,
    Pr,
    Ad,
    Km,
    Als,
    Nmf,
    Sgd,
    Svd,
    Jacobi,
    Lbp,
    Dd,
}

impl AlgorithmKind {
    /// All fourteen algorithms in paper order.
    pub const ALL: [AlgorithmKind; 14] = [
        AlgorithmKind::Cc,
        AlgorithmKind::Kc,
        AlgorithmKind::Tc,
        AlgorithmKind::Sssp,
        AlgorithmKind::Pr,
        AlgorithmKind::Ad,
        AlgorithmKind::Km,
        AlgorithmKind::Als,
        AlgorithmKind::Nmf,
        AlgorithmKind::Sgd,
        AlgorithmKind::Svd,
        AlgorithmKind::Jacobi,
        AlgorithmKind::Lbp,
        AlgorithmKind::Dd,
    ];

    /// The eleven algorithms the paper's ensemble analysis covers (§5.2):
    /// Jacobi, LBP, and DD are excluded "because their graph structures do
    /// not vary".
    pub const ENSEMBLE: [AlgorithmKind; 11] = [
        AlgorithmKind::Cc,
        AlgorithmKind::Kc,
        AlgorithmKind::Tc,
        AlgorithmKind::Sssp,
        AlgorithmKind::Pr,
        AlgorithmKind::Ad,
        AlgorithmKind::Km,
        AlgorithmKind::Als,
        AlgorithmKind::Nmf,
        AlgorithmKind::Sgd,
        AlgorithmKind::Svd,
    ];

    /// Short paper abbreviation.
    pub fn abbrev(&self) -> &'static str {
        match self {
            AlgorithmKind::Cc => "CC",
            AlgorithmKind::Kc => "KC",
            AlgorithmKind::Tc => "TC",
            AlgorithmKind::Sssp => "SSSP",
            AlgorithmKind::Pr => "PR",
            AlgorithmKind::Ad => "AD",
            AlgorithmKind::Km => "KM",
            AlgorithmKind::Als => "ALS",
            AlgorithmKind::Nmf => "NMF",
            AlgorithmKind::Sgd => "SGD",
            AlgorithmKind::Svd => "SVD",
            AlgorithmKind::Jacobi => "Jacobi",
            AlgorithmKind::Lbp => "LBP",
            AlgorithmKind::Dd => "DD",
        }
    }

    /// Application domain.
    pub fn domain(&self) -> Domain {
        match self {
            AlgorithmKind::Cc
            | AlgorithmKind::Kc
            | AlgorithmKind::Tc
            | AlgorithmKind::Sssp
            | AlgorithmKind::Pr
            | AlgorithmKind::Ad => Domain::GraphAnalytics,
            AlgorithmKind::Km => Domain::Clustering,
            AlgorithmKind::Als | AlgorithmKind::Nmf | AlgorithmKind::Sgd | AlgorithmKind::Svd => {
                Domain::CollaborativeFiltering
            }
            AlgorithmKind::Jacobi => Domain::LinearSolver,
            AlgorithmKind::Lbp | AlgorithmKind::Dd => Domain::GraphicalModel,
        }
    }

    /// Whether the algorithm keeps all vertices active for its whole run
    /// (the paper's runtime-shortenable set, §5.6, plus Jacobi and DD).
    pub fn constant_active(&self) -> bool {
        matches!(
            self,
            AlgorithmKind::Ad
                | AlgorithmKind::Km
                | AlgorithmKind::Nmf
                | AlgorithmKind::Sgd
                | AlgorithmKind::Svd
                | AlgorithmKind::Jacobi
                | AlgorithmKind::Dd
        )
    }
}

impl fmt::Display for AlgorithmKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.abbrev())
    }
}

/// A generated workload, one variant per input domain (paper §3.2).
#[derive(Debug, Clone)]
pub enum Workload {
    /// Scale-free graph with Gaussian edge weights and 2-D vertex points —
    /// inputs to Graph Analytics and Clustering.
    PowerLaw {
        /// Topology.
        graph: Graph,
        /// Per-edge weights (used by SSSP).
        weights: SharedSlice<f64>,
        /// Per-vertex point x coordinates (used by KM).
        px: SharedSlice<f64>,
        /// Per-vertex point y coordinates (used by KM).
        py: SharedSlice<f64>,
    },
    /// Bipartite user–item ratings — inputs to Collaborative Filtering.
    Ratings(RatingGraph),
    /// Diagonally dominant sparse system — input to Jacobi.
    Matrix(MatrixSystem),
    /// Square-grid MRF — input to LBP.
    Grid(GridMrf),
    /// General pairwise MRF — input to DD.
    Mrf(MrfGraph),
}

impl Workload {
    /// Generate a power-law workload (GA + Clustering inputs).
    pub fn powerlaw(nedges: usize, alpha: f64, seed: u64) -> Workload {
        let graph = powerlaw_graph(&PowerLawConfig::new(nedges, alpha, seed));
        let weights = gaussian_edge_weights(graph.num_edges(), seed);
        Workload::weighted(graph, weights, seed)
    }

    /// A power-law-class workload over a given graph and per-edge weights
    /// (an ingested or parsed edge list), with the k-means points that
    /// [`gaussian_points`] draws for `seed`.
    pub fn weighted(graph: Graph, weights: Vec<f64>, seed: u64) -> Workload {
        let (px, py) = gaussian_points(graph.num_vertices(), seed);
        Workload::PowerLaw {
            graph,
            weights: weights.into(),
            px: px.into(),
            py: py.into(),
        }
    }

    /// Generate a Collaborative Filtering ratings workload.
    pub fn ratings(nedges: usize, alpha: f64, seed: u64) -> Workload {
        Workload::Ratings(RatingGraph::generate(&BipartiteConfig::new(
            nedges, alpha, seed,
        )))
    }

    /// Generate a Jacobi matrix workload with uniform degree 8.
    pub fn matrix(nrows: usize, seed: u64) -> Workload {
        Workload::Matrix(graphmine_gen::matrix_graph(nrows, 8, seed))
    }

    /// Generate an LBP grid workload (binary labels).
    pub fn grid(side: usize, seed: u64) -> Workload {
        Workload::Grid(GridMrf::generate(side, 2, seed))
    }

    /// Generate a DD MRF workload with an exact edge count.
    pub fn mrf(nedges: usize, seed: u64) -> Workload {
        Workload::Mrf(mrf_graph(&MrfConfig::new(nedges, seed)))
    }

    /// The underlying topology.
    pub fn graph(&self) -> &Graph {
        match self {
            Workload::PowerLaw { graph, .. } => graph,
            Workload::Ratings(rg) => &rg.graph,
            Workload::Matrix(sys) => &sys.graph,
            Workload::Grid(mrf) => &mrf.graph,
            Workload::Mrf(mrf) => &mrf.graph,
        }
    }

    /// Degree-descending relabeled copy of the workload (the CSR locality
    /// layer): hubs get the lowest vertex ids, packing the hottest
    /// adjacency rows together. Per-edge weights and per-vertex points are
    /// permuted to match, so the relabeled workload describes the same
    /// weighted graph. Variants whose vertex numbering is part of their
    /// semantics (ratings bipartition, matrix rows, grid coordinates, MRF
    /// factors) are returned unchanged.
    pub fn reordered_by_degree(&self) -> Workload {
        match self {
            Workload::PowerLaw {
                graph,
                weights,
                px,
                py,
            } => {
                let reordered = graph.reordered_by_degree();
                let remap = reordered
                    .vertex_remap()
                    .expect("reordered build records its permutation")
                    .to_vec();
                // Edge ids change with the rebuild; recover each new edge's
                // old weight through its (relabeled) endpoints. Dedup
                // builds make the canonical endpoint pair a unique key.
                let canon = |s: u32, d: u32| {
                    if graph.is_directed() || s <= d {
                        (s, d)
                    } else {
                        (d, s)
                    }
                };
                let old_edge: std::collections::HashMap<(u32, u32), usize> = graph
                    .edge_list()
                    .iter()
                    .enumerate()
                    .map(|(i, &(s, d))| (canon(remap[s as usize], remap[d as usize]), i))
                    .collect();
                let weights: Vec<f64> = reordered
                    .edge_list()
                    .iter()
                    .map(|&(s, d)| weights[old_edge[&canon(s, d)]])
                    .collect();
                let permute = |column: &[f64]| {
                    let mut out = vec![0.0f64; column.len()];
                    for (old, &x) in column.iter().enumerate() {
                        out[remap[old] as usize] = x;
                    }
                    SharedSlice::from_vec(out)
                };
                Workload::PowerLaw {
                    graph: reordered,
                    weights: weights.into(),
                    px: permute(px),
                    py: permute(py),
                }
            }
            other => other.clone(),
        }
    }

    /// The same workload with its topology converted to `repr`
    /// (delta-varint compressed or plain adjacency). Conversion rebuilds
    /// only the neighbor arrays — vertex/edge numbering, weights, and every
    /// data column are untouched (shared with `self`, not copied), so
    /// results are bit-identical across representations by construction. Errors when the topology's rows are
    /// not sorted (compression requires dedup builds; every generator here
    /// produces them).
    pub fn with_representation(&self, repr: Representation) -> Result<Workload, String> {
        let convert = |g: &Graph| g.to_representation(repr);
        Ok(match self {
            Workload::PowerLaw {
                graph,
                weights,
                px,
                py,
            } => Workload::PowerLaw {
                graph: convert(graph)?,
                weights: weights.clone(),
                px: px.clone(),
                py: py.clone(),
            },
            Workload::Ratings(rg) => {
                let mut rg = rg.clone();
                rg.graph = convert(&rg.graph)?;
                Workload::Ratings(rg)
            }
            Workload::Matrix(sys) => {
                let mut sys = sys.clone();
                sys.graph = convert(&sys.graph)?;
                Workload::Matrix(sys)
            }
            Workload::Grid(mrf) => {
                let mut mrf = mrf.clone();
                mrf.graph = convert(&mrf.graph)?;
                Workload::Grid(mrf)
            }
            Workload::Mrf(mrf) => {
                let mut mrf = mrf.clone();
                mrf.graph = convert(&mrf.graph)?;
                Workload::Mrf(mrf)
            }
        })
    }
}

/// Suite-level execution knobs.
#[derive(Debug, Clone)]
pub struct SuiteConfig {
    /// Engine configuration (iteration caps, sequential mode).
    pub exec: ExecutionConfig,
    /// K for K-Means.
    pub kmeans_k: usize,
    /// SSSP source vertex.
    pub sssp_source: u32,
}

impl Default for SuiteConfig {
    fn default() -> SuiteConfig {
        SuiteConfig {
            exec: ExecutionConfig::with_max_iterations(500),
            kmeans_k: 4,
            sssp_source: 0,
        }
    }
}

/// Mismatch between an algorithm and a workload variant.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WorkloadMismatch {
    /// The algorithm that was requested.
    pub algorithm: AlgorithmKind,
    /// Human-readable description of what it expected.
    pub expected: &'static str,
}

impl fmt::Display for WorkloadMismatch {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} expects a {} workload", self.algorithm, self.expected)
    }
}

impl std::error::Error for WorkloadMismatch {}

/// Run `algorithm` on `workload`, returning the behavior trace.
///
/// Results (labels, distances, factors, …) are discarded here; callers that
/// need them use the per-module `run_*` entry points. The harness only
/// needs traces.
pub fn run_algorithm(
    algorithm: AlgorithmKind,
    workload: &Workload,
    config: &SuiteConfig,
) -> Result<RunTrace, WorkloadMismatch> {
    run_algorithm_digest(algorithm, workload, config).map(|(_, trace)| trace)
}

/// FNV-1a over a byte stream; the result digest of
/// [`run_algorithm_digest`].
fn fnv1a(bytes: impl IntoIterator<Item = u8>) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Run `algorithm` on `workload`, returning a 64-bit digest of the exact
/// bytes of the final result (labels, distances, factors, …) alongside the
/// behavior trace. Two runs share a digest iff their results are
/// bit-identical — the representation/direction/segmentation parity tests
/// compare digests instead of hauling the states around.
pub fn run_algorithm_digest(
    algorithm: AlgorithmKind,
    workload: &Workload,
    config: &SuiteConfig,
) -> Result<(u64, RunTrace), WorkloadMismatch> {
    let exec = &config.exec;
    let mismatch = |expected: &'static str| WorkloadMismatch {
        algorithm,
        expected,
    };
    fn f64s(xs: &[f64]) -> u64 {
        fnv1a(xs.iter().flat_map(|x| x.to_bits().to_le_bytes()))
    }
    fn u32s(xs: &[u32]) -> u64 {
        fnv1a(xs.iter().flat_map(|x| x.to_le_bytes()))
    }
    fn usizes(xs: &[usize]) -> u64 {
        fnv1a(xs.iter().flat_map(|&x| (x as u64).to_le_bytes()))
    }
    fn factors(xs: &[crate::linalg::Factor]) -> u64 {
        fnv1a(
            xs.iter()
                .flat_map(|f| f.iter())
                .flat_map(|x| x.to_bits().to_le_bytes()),
        )
    }
    let (digest, trace) = match (algorithm, workload) {
        (AlgorithmKind::Cc, Workload::PowerLaw { graph, .. }) => {
            let (labels, trace) = cc::run_cc(graph, exec);
            (u32s(&labels), trace)
        }
        (AlgorithmKind::Kc, Workload::PowerLaw { graph, .. }) => {
            let (cores, trace) = kcore::run_kcore(graph, exec);
            (u32s(&cores), trace)
        }
        (AlgorithmKind::Tc, Workload::PowerLaw { graph, .. }) => {
            let (count, trace) = tc::run_tc(graph, exec);
            (fnv1a(count.to_le_bytes()), trace)
        }
        (AlgorithmKind::Sssp, Workload::PowerLaw { graph, weights, .. }) => {
            let source = config.sssp_source.min(graph.num_vertices() as u32 - 1);
            // `sssp_source` names a vertex of the natural numbering; a
            // reordered graph must start from that same vertex.
            let source = graph
                .vertex_remap()
                .map_or(source, |remap| remap[source as usize]);
            let (dist, trace) = sssp::run_sssp(graph, weights, source, exec);
            (f64s(&dist), trace)
        }
        (AlgorithmKind::Pr, Workload::PowerLaw { graph, .. }) => {
            let (ranks, trace) = pagerank::run_pagerank(graph, exec);
            (f64s(&ranks), trace)
        }
        (AlgorithmKind::Ad, Workload::PowerLaw { graph, .. }) => {
            let (est, trace) = adiam::run_adiam(graph, exec);
            (
                fnv1a(
                    (est.diameter as u64)
                        .to_le_bytes()
                        .into_iter()
                        .chain(est.neighborhood_function.to_bits().to_le_bytes()),
                ),
                trace,
            )
        }
        (AlgorithmKind::Km, Workload::PowerLaw { graph, px, py, .. }) => {
            let (assign, trace) = kmeans::run_kmeans(graph, px, py, config.kmeans_k, exec);
            (u32s(&assign), trace)
        }
        (AlgorithmKind::Als, Workload::Ratings(rg)) => {
            let (f, trace) = als::run_als(rg, exec);
            (factors(&f), trace)
        }
        (AlgorithmKind::Nmf, Workload::Ratings(rg)) => {
            let (f, trace) = nmf::run_nmf(rg, exec);
            (factors(&f), trace)
        }
        (AlgorithmKind::Sgd, Workload::Ratings(rg)) => {
            let (f, trace) = sgd::run_sgd(rg, exec);
            (factors(&f), trace)
        }
        (AlgorithmKind::Svd, Workload::Ratings(rg)) => {
            let (result, trace) = svd::run_svd(rg, exec);
            (
                fnv1a(
                    result
                        .sigma
                        .to_bits()
                        .to_le_bytes()
                        .into_iter()
                        .chain(result.vector.iter().flat_map(|x| x.to_bits().to_le_bytes())),
                ),
                trace,
            )
        }
        (AlgorithmKind::Jacobi, Workload::Matrix(sys)) => {
            let (x, trace) = jacobi::run_jacobi(sys, exec);
            (f64s(&x), trace)
        }
        (AlgorithmKind::Lbp, Workload::Grid(mrf)) => {
            let (labels, trace) = lbp::run_lbp(mrf, exec);
            (usizes(&labels), trace)
        }
        (AlgorithmKind::Dd, Workload::Mrf(mrf)) => {
            let (result, trace) = dd::run_dd(mrf, exec);
            (
                fnv1a(
                    result
                        .labels
                        .iter()
                        .flat_map(|&l| (l as u64).to_le_bytes())
                        .chain(result.energy.to_bits().to_le_bytes()),
                ),
                trace,
            )
        }
        (
            AlgorithmKind::Cc
            | AlgorithmKind::Kc
            | AlgorithmKind::Tc
            | AlgorithmKind::Sssp
            | AlgorithmKind::Pr
            | AlgorithmKind::Ad
            | AlgorithmKind::Km,
            _,
        ) => return Err(mismatch("power-law")),
        (AlgorithmKind::Als | AlgorithmKind::Nmf | AlgorithmKind::Sgd | AlgorithmKind::Svd, _) => {
            return Err(mismatch("ratings"))
        }
        (AlgorithmKind::Jacobi, _) => return Err(mismatch("matrix")),
        (AlgorithmKind::Lbp, _) => return Err(mismatch("grid")),
        (AlgorithmKind::Dd, _) => return Err(mismatch("mrf")),
    };
    Ok((digest, trace))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_config() -> SuiteConfig {
        SuiteConfig {
            exec: ExecutionConfig::with_max_iterations(30),
            ..SuiteConfig::default()
        }
    }

    #[test]
    fn every_algorithm_runs_on_its_domain_workload() {
        let pl = Workload::powerlaw(500, 2.5, 1);
        let ratings = Workload::ratings(400, 2.5, 2);
        let matrix = Workload::matrix(50, 3);
        let grid = Workload::grid(6, 4);
        let mrf = Workload::mrf(40, 5);
        let cfg = tiny_config();
        for alg in AlgorithmKind::ALL {
            let workload = match alg.domain() {
                Domain::GraphAnalytics | Domain::Clustering => &pl,
                Domain::CollaborativeFiltering => &ratings,
                Domain::LinearSolver => &matrix,
                Domain::GraphicalModel => {
                    if alg == AlgorithmKind::Lbp {
                        &grid
                    } else {
                        &mrf
                    }
                }
            };
            let trace = run_algorithm(alg, workload, &cfg).unwrap_or_else(|e| panic!("{alg}: {e}"));
            assert!(trace.num_iterations() > 0, "{alg} ran zero iterations");
        }
    }

    #[test]
    fn wrong_workload_is_reported() {
        let ratings = Workload::ratings(200, 2.5, 2);
        let err = run_algorithm(AlgorithmKind::Cc, &ratings, &tiny_config()).unwrap_err();
        assert_eq!(err.algorithm, AlgorithmKind::Cc);
        assert!(err.to_string().contains("power-law"));
    }

    #[test]
    fn constant_active_set_matches_paper() {
        // §5.6: AD, KM, NMF, SGD, SVD have constant active fraction (plus
        // Jacobi and DD per §4.4).
        let constant: Vec<_> = AlgorithmKind::ALL
            .iter()
            .filter(|a| a.constant_active())
            .map(|a| a.abbrev())
            .collect();
        assert_eq!(constant, ["AD", "KM", "NMF", "SGD", "SVD", "Jacobi", "DD"]);
    }

    #[test]
    fn ensemble_set_excludes_fixed_structure_domains() {
        assert_eq!(AlgorithmKind::ENSEMBLE.len(), 11);
        assert!(!AlgorithmKind::ENSEMBLE.contains(&AlgorithmKind::Jacobi));
        assert!(!AlgorithmKind::ENSEMBLE.contains(&AlgorithmKind::Lbp));
        assert!(!AlgorithmKind::ENSEMBLE.contains(&AlgorithmKind::Dd));
    }

    #[test]
    fn workload_graph_accessor() {
        let w = Workload::powerlaw(300, 2.5, 9);
        assert!(w.graph().num_edges() > 0);
        let w = Workload::matrix(20, 0);
        assert_eq!(w.graph().num_vertices(), 20);
    }

    #[test]
    fn reordered_powerlaw_describes_the_same_weighted_graph() {
        let w = Workload::powerlaw(600, 2.5, 7);
        let r = w.reordered_by_degree();
        let (
            Workload::PowerLaw {
                graph: g0,
                weights: w0,
                px: x0,
                py: y0,
            },
            Workload::PowerLaw {
                graph: g1,
                weights: w1,
                px: x1,
                py: y1,
            },
        ) = (&w, &r)
        else {
            panic!("powerlaw stays powerlaw");
        };
        assert_eq!(g0.num_vertices(), g1.num_vertices());
        assert_eq!(g0.num_edges(), g1.num_edges());
        let remap = g1.vertex_remap().expect("permutation recorded");
        let canon = |s: u32, d: u32| if s <= d { (s, d) } else { (d, s) };
        let new_idx: std::collections::HashMap<(u32, u32), usize> = g1
            .edge_list()
            .iter()
            .enumerate()
            .map(|(j, &(s, d))| (canon(s, d), j))
            .collect();
        for (i, &(s, d)) in g0.edge_list().iter().enumerate() {
            let j = new_idx[&canon(remap[s as usize], remap[d as usize])];
            assert_eq!(w0[i].to_bits(), w1[j].to_bits(), "weight of edge {i}");
        }
        for v in 0..x0.len() {
            let new = remap[v] as usize;
            assert_eq!((x0[v], y0[v]), (x1[new], y1[new]), "point of vertex {v}");
        }

        // SSSP from a vertex the reordering moves is the same run on both:
        // `sssp_source` names the vertex in the natural numbering.
        let source = (1..g0.num_vertices())
            .find(|&v| g0.degree(v as u32) > 0 && remap[v] as usize != v)
            .expect("a connected vertex that the reordering moves");
        let cfg = SuiteConfig {
            sssp_source: source as u32,
            ..SuiteConfig::default()
        };
        let (d0, t0) = run_algorithm_digest(AlgorithmKind::Sssp, &w, &cfg).unwrap();
        let (d1, t1) = run_algorithm_digest(AlgorithmKind::Sssp, &r, &cfg).unwrap();
        assert!(
            t0.num_iterations() > 2,
            "source reaches past its neighbours"
        );
        assert_eq!(t0.num_iterations(), t1.num_iterations());
        for (i, (a, b)) in t0.iterations.iter().zip(&t1.iterations).enumerate() {
            assert_eq!(
                (a.active, a.messages),
                (b.active, b.messages),
                "iteration {i}"
            );
        }
        let (dist0, _) = sssp::run_sssp(g0, w0, cfg.sssp_source, &cfg.exec);
        let (dist1, _) = sssp::run_sssp(g1, w1, remap[source], &cfg.exec);
        let bits = |d: &[f64]| fnv1a(d.iter().flat_map(|x| x.to_bits().to_le_bytes()));
        assert_eq!((d0, d1), (bits(&dist0), bits(&dist1)));
        for (v, &new) in remap.iter().enumerate() {
            assert_eq!(
                dist1[new as usize].to_bits(),
                dist0[v].to_bits(),
                "distance of vertex {v}"
            );
        }
    }

    #[test]
    fn reordered_powerlaw_runs_ad_and_km_from_the_same_start() {
        let w = Workload::powerlaw(600, 2.5, 7);
        let r = w.reordered_by_degree();
        let (
            Workload::PowerLaw {
                graph: g0,
                px: x0,
                py: y0,
                ..
            },
            Workload::PowerLaw {
                graph: g1,
                px: x1,
                py: y1,
                ..
            },
        ) = (&w, &r)
        else {
            panic!("powerlaw stays powerlaw");
        };
        let remap = g1.vertex_remap().expect("permutation recorded");
        let cfg = SuiteConfig::default();
        let same_iterations = |alg: &str, t0: &RunTrace, t1: &RunTrace| {
            assert_eq!(t0.num_iterations(), t1.num_iterations(), "{alg}");
            for (i, (a, b)) in t0.iterations.iter().zip(&t1.iterations).enumerate() {
                assert_eq!(
                    (a.active, a.messages),
                    (b.active, b.messages),
                    "{alg} iteration {i}"
                );
            }
        };

        // AD seeds each sketch from the vertex's natural id.
        let (est0, t0) = adiam::run_adiam(g0, &cfg.exec);
        let (est1, t1) = adiam::run_adiam(g1, &cfg.exec);
        same_iterations("AD", &t0, &t1);
        assert_eq!(est0.diameter, est1.diameter);
        // Converged sketches of a connected graph are the same whatever
        // vertex holds which seed; one hop in, they are not. The estimate
        // sums per-vertex values in vertex order, so the two numberings
        // may differ by rounding, and by nothing else.
        let one_hop = ExecutionConfig::with_max_iterations(1);
        let (hop0, _) = adiam::run_adiam(g0, &one_hop);
        let (hop1, _) = adiam::run_adiam(g1, &one_hop);
        let (nf0, nf1) = (hop0.neighborhood_function, hop1.neighborhood_function);
        assert!(
            (nf0 - nf1).abs() <= 1e-12 * nf0,
            "one-hop estimate {nf0} vs {nf1}"
        );

        // KM's initial partition follows the natural id too.
        let (a0, t0) = kmeans::run_kmeans(g0, x0, y0, cfg.kmeans_k, &cfg.exec);
        let (a1, t1) = kmeans::run_kmeans(g1, x1, y1, cfg.kmeans_k, &cfg.exec);
        same_iterations("KM", &t0, &t1);
        for (v, &new) in remap.iter().enumerate() {
            assert_eq!(a1[new as usize], a0[v], "cluster of vertex {v}");
        }
    }

    #[test]
    fn reorder_leaves_fixed_numbering_workloads_untouched() {
        assert!(matches!(
            Workload::matrix(20, 0).reordered_by_degree(),
            Workload::Matrix(_)
        ));
        assert!(matches!(
            Workload::grid(4, 1).reordered_by_degree(),
            Workload::Grid(_)
        ));
    }

    #[test]
    fn abbreviations_unique() {
        let mut seen = std::collections::HashSet::new();
        for a in AlgorithmKind::ALL {
            assert!(seen.insert(a.abbrev()));
        }
    }
}
