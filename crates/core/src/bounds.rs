//! Empirical upper bounds for spread and coverage (paper §5.2).
//!
//! "To understand the quality of the achieved spread, we also plot an
//! empirical upper bound … computed assuming ensemble members uniformly and
//! maximally distributed in the behavior space." Members of a bound
//! configuration are *free points* of `[0, 1]⁴`, not actual runs:
//!
//! * the spread bound places n free points to maximize mean pairwise
//!   distance (projected gradient ascent with restarts — the optimum pushes
//!   points into hypercube corners);
//! * the coverage bound places n free points to minimize the mean
//!   sample-to-nearest distance (Lloyd-style k-means over the sample cloud).

use crate::behavior::{BehaviorVector, DIMS};
use crate::coverage::{coverage, CoverageSampler};
use crate::ensemble::spread;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// Empirical upper bound on the spread of an `n`-member ensemble.
pub fn spread_upper_bound(n: usize, seed: u64) -> f64 {
    if n < 2 {
        return 0.0;
    }
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut best = 0.0f64;
    for _restart in 0..4 {
        let mut points: Vec<[f64; DIMS]> = (0..n)
            .map(|_| std::array::from_fn(|_| rng.gen::<f64>()))
            .collect();
        let mut step = 0.25;
        for _iter in 0..200 {
            // Gradient of mean pairwise distance w.r.t. point i is
            // Σ_j (p_i - p_j) / d(p_i, p_j) (up to constant factor).
            let grads: Vec<[f64; DIMS]> = (0..n)
                .map(|i| {
                    let mut g = [0.0f64; DIMS];
                    for j in 0..n {
                        if i == j {
                            continue;
                        }
                        let mut d2 = 0.0;
                        for (a, b) in points[i].iter().zip(&points[j]) {
                            let d = a - b;
                            d2 += d * d;
                        }
                        let d = d2.sqrt().max(1e-9);
                        for k in 0..DIMS {
                            g[k] += (points[i][k] - points[j][k]) / d;
                        }
                    }
                    g
                })
                .collect();
            for (p, g) in points.iter_mut().zip(grads.iter()) {
                for k in 0..DIMS {
                    p[k] = (p[k] + step * g[k] / (n - 1) as f64).clamp(0.0, 1.0);
                }
            }
            step *= 0.98;
        }
        let vs: Vec<BehaviorVector> = points.into_iter().map(BehaviorVector).collect();
        best = best.max(spread(&vs));
    }
    best
}

/// Empirical upper bound on the coverage of an `n`-member ensemble,
/// evaluated against the given sampler.
pub fn coverage_upper_bound(n: usize, sampler: &CoverageSampler, seed: u64) -> f64 {
    if n == 0 {
        return 0.0;
    }
    let samples = sampler.points();
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut best = 0.0f64;
    for _restart in 0..3 {
        // k-means++-ish init: random distinct samples.
        let mut centers: Vec<[f64; DIMS]> = (0..n)
            .map(|_| samples[rng.gen_range(0..samples.len())])
            .collect();
        for _iter in 0..30 {
            // Assign samples to nearest center, accumulate means.
            let mut sums = vec![[0.0f64; DIMS]; n];
            let mut counts = vec![0usize; n];
            for p in samples {
                let mut bi = 0usize;
                let mut bd = f64::INFINITY;
                for (ci, c) in centers.iter().enumerate() {
                    let mut d2 = 0.0;
                    for k in 0..DIMS {
                        let d = p[k] - c[k];
                        d2 += d * d;
                    }
                    if d2 < bd {
                        bd = d2;
                        bi = ci;
                    }
                }
                counts[bi] += 1;
                for k in 0..DIMS {
                    sums[bi][k] += p[k];
                }
            }
            for i in 0..n {
                if counts[i] > 0 {
                    for k in 0..DIMS {
                        centers[i][k] = sums[i][k] / counts[i] as f64;
                    }
                } else {
                    // Re-seed empty clusters.
                    centers[i] = samples[rng.gen_range(0..samples.len())];
                }
            }
        }
        let vs: Vec<BehaviorVector> = centers.into_iter().map(BehaviorVector).collect();
        best = best.max(coverage(&vs, sampler));
    }
    best
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spread_bound_pair_reaches_main_diagonal() {
        // Two free points maximize at opposite corners: distance 2 in 4-D.
        let b = spread_upper_bound(2, 1);
        assert!(b > 1.9, "bound {b}");
        assert!(b <= 2.0 + 1e-9);
    }

    #[test]
    fn spread_bound_decreases_with_n() {
        let b2 = spread_upper_bound(2, 2);
        let b8 = spread_upper_bound(8, 2);
        let b20 = spread_upper_bound(20, 2);
        assert!(b2 >= b8 - 0.05, "{b2} vs {b8}");
        assert!(b8 >= b20 - 0.05, "{b8} vs {b20}");
    }

    #[test]
    fn spread_bound_degenerate() {
        assert_eq!(spread_upper_bound(0, 0), 0.0);
        assert_eq!(spread_upper_bound(1, 0), 0.0);
    }

    #[test]
    fn coverage_bound_grows_with_n() {
        let sampler = CoverageSampler::new(20_000, 7);
        let c1 = coverage_upper_bound(1, &sampler, 3);
        let c4 = coverage_upper_bound(4, &sampler, 3);
        let c16 = coverage_upper_bound(16, &sampler, 3);
        assert!(c4 > c1, "{c4} vs {c1}");
        assert!(c16 > c4, "{c16} vs {c4}");
    }

    #[test]
    fn coverage_bound_beats_any_single_run() {
        // The single-point bound is the centroid — better than any corner.
        let sampler = CoverageSampler::new(20_000, 8);
        let bound = coverage_upper_bound(1, &sampler, 4);
        let corner = coverage(&[BehaviorVector([0.0; 4])], &sampler);
        assert!(bound > corner);
        // Centroid coverage in [0,1]^4 is ≈ 1.78.
        assert!((bound - 1.78).abs() < 0.25, "bound {bound}");
    }

    #[test]
    fn bounds_dominate_real_ensembles() {
        // Any ensemble drawn from actual pool points is below the bound.
        let sampler = CoverageSampler::new(10_000, 9);
        let pool: Vec<BehaviorVector> = (0..10)
            .map(|i| BehaviorVector([i as f64 / 9.0, 0.3, 0.7, 0.1]))
            .collect();
        let real_spread = spread(&pool);
        assert!(spread_upper_bound(10, 5) >= real_spread);
        let real_cov = coverage(&pool, &sampler);
        assert!(coverage_upper_bound(10, &sampler, 5) >= real_cov);
    }
}
