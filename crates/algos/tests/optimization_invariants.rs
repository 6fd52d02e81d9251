//! Optimization-theoretic invariants of the iterative algorithms: each
//! learner's objective must improve as its iteration budget grows, and
//! solver errors must shrink the way the underlying theory says they do.

use graphmine_algos::als::{rmse, run_als};
use graphmine_algos::jacobi::run_jacobi;
use graphmine_algos::kmeans::run_kmeans;
use graphmine_algos::lbp::run_lbp;
use graphmine_algos::nmf::run_nmf;
use graphmine_algos::sgd::run_sgd;
use graphmine_engine::ExecutionConfig;
use graphmine_gen::{
    gaussian_points, matrix_graph, powerlaw_graph, BipartiteConfig, GridMrf, PowerLawConfig,
    RatingGraph,
};

fn ratings() -> RatingGraph {
    RatingGraph::generate(&BipartiteConfig::new(2_000, 2.5, 99))
}

fn cfg(iters: usize) -> ExecutionConfig {
    ExecutionConfig::with_max_iterations(iters)
}

#[test]
fn als_rmse_improves_with_budget() {
    let rg = ratings();
    let errs: Vec<f64> = [2usize, 6, 20]
        .iter()
        .map(|&k| {
            let (factors, _) = run_als(&rg, &cfg(k));
            rmse(&rg.graph, &rg.ratings, &factors)
        })
        .collect();
    assert!(
        errs[2] <= errs[1] + 1e-6 && errs[1] <= errs[0] + 1e-6,
        "ALS RMSE not improving: {errs:?}"
    );
}

#[test]
fn nmf_rmse_improves_with_budget() {
    let rg = ratings();
    let errs: Vec<f64> = [2usize, 8, 20]
        .iter()
        .map(|&k| {
            let (factors, _) = run_nmf(&rg, &cfg(k));
            rmse(&rg.graph, &rg.ratings, &factors)
        })
        .collect();
    // Simultaneous multiplicative updates are approximately monotone;
    // allow 2% slack per comparison.
    assert!(
        errs[2] <= errs[0] * 1.02,
        "NMF RMSE not improving: {errs:?}"
    );
}

#[test]
fn sgd_rmse_improves_with_budget() {
    let rg = ratings();
    let errs: Vec<f64> = [1usize, 5, 20]
        .iter()
        .map(|&k| {
            let (factors, _) = run_sgd(&rg, &cfg(k));
            rmse(&rg.graph, &rg.ratings, &factors)
        })
        .collect();
    assert!(errs[2] < errs[0], "SGD RMSE not improving: {errs:?}");
}

#[test]
fn kmeans_reduces_within_cluster_scatter() {
    let graph = powerlaw_graph(&PowerLawConfig::new(3_000, 2.5, 4));
    let (xs, ys) = gaussian_points(graph.num_vertices(), 4);
    let points: Vec<[f64; 2]> = xs.iter().zip(&ys).map(|(&x, &y)| [x, y]).collect();
    let k = 4usize;
    let wcss = |assign: &[u32]| -> f64 {
        let mut sums = vec![[0.0f64; 2]; k];
        let mut counts = vec![0usize; k];
        for (p, &a) in points.iter().zip(assign.iter()) {
            sums[a as usize][0] += p[0];
            sums[a as usize][1] += p[1];
            counts[a as usize] += 1;
        }
        let centroids: Vec<[f64; 2]> = sums
            .iter()
            .zip(&counts)
            .map(|(s, &c)| {
                if c > 0 {
                    [s[0] / c as f64, s[1] / c as f64]
                } else {
                    [0.0, 0.0]
                }
            })
            .collect();
        points
            .iter()
            .zip(assign.iter())
            .map(|(p, &a)| {
                let c = centroids[a as usize];
                (p[0] - c[0]).powi(2) + (p[1] - c[1]).powi(2)
            })
            .sum()
    };
    let initial: Vec<u32> = (0..graph.num_vertices()).map(|v| (v % k) as u32).collect();
    let (assign, trace) = run_kmeans(&graph, &xs, &ys, k, &cfg(100));
    assert!(trace.num_iterations() >= 2);
    assert!(
        wcss(&assign) < wcss(&initial) * 0.9,
        "K-Means did not reduce scatter: {} vs {}",
        wcss(&assign),
        wcss(&initial)
    );
}

#[test]
fn jacobi_error_decays_geometrically() {
    let sys = matrix_graph(200, 6, 11);
    let residual_after = |k: usize| -> f64 {
        let (x, _) = run_jacobi(&sys, &cfg(k));
        sys.residual(&x)
    };
    let r5 = residual_after(5);
    let r10 = residual_after(10);
    let r20 = residual_after(20);
    assert!(r10 < r5 * 0.5, "r5 {r5} r10 {r10}");
    assert!(r20 < r10 * 0.5, "r10 {r10} r20 {r20}");
}

#[test]
fn lbp_beliefs_stay_normalized_and_labels_stabilize() {
    let mrf = GridMrf::generate(10, 2, 21);
    let (labels_a, trace) = run_lbp(&mrf, &cfg(300));
    assert!(trace.converged, "LBP did not converge");
    // Re-running with a larger budget changes nothing once converged.
    let (labels_b, _) = run_lbp(&mrf, &cfg(600));
    assert_eq!(labels_a, labels_b);
}
