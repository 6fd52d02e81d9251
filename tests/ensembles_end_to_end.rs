//! Ensemble methodology end-to-end on a real (quick-profile) run database:
//! the paper's headline claims, checked.

use graphmine_core::{
    best_coverage_ensemble, best_spread_ensemble, coverage_upper_bound, frequency_in_top_ensembles,
    spread_upper_bound, top_k_ensembles, BehaviorVector, CoverageSampler, Objective, RunDb,
    WorkMetric,
};
use graphmine_harness::{run_matrix, ScaleProfile};
use std::sync::OnceLock;

fn db() -> &'static RunDb {
    static DB: OnceLock<RunDb> = OnceLock::new();
    DB.get_or_init(|| run_matrix(ScaleProfile::Quick, |_| ()))
}

const ENSEMBLE_ALGOS: [&str; 11] = [
    "CC", "KC", "TC", "SSSP", "PR", "AD", "KM", "ALS", "NMF", "SGD", "SVD",
];

fn unrestricted_pool(db: &RunDb) -> Vec<BehaviorVector> {
    let behaviors = db.behaviors(WorkMetric::LogicalOps);
    ENSEMBLE_ALGOS
        .iter()
        .flat_map(|a| db.indices_of_algorithm(a))
        .map(|i| behaviors[i])
        .collect()
}

fn single_algo_pool(db: &RunDb, alg: &str) -> Vec<BehaviorVector> {
    let behaviors = db.behaviors(WorkMetric::LogicalOps);
    db.indices_of_algorithm(alg)
        .into_iter()
        .map(|i| behaviors[i])
        .collect()
}

#[test]
fn claim_unrestricted_beats_every_single_algorithm_spread() {
    // Paper contribution 3 / Figure 18: unrestricted ensembles achieve far
    // better spread than any single-algorithm ensemble.
    let pool = unrestricted_pool(db());
    let size = 10;
    let (_, unrestricted) = best_spread_ensemble(&pool, size);
    for alg in ENSEMBLE_ALGOS {
        let single = single_algo_pool(db(), alg);
        let (_, s) = best_spread_ensemble(&single, size);
        assert!(
            unrestricted >= s,
            "{alg}: single {s} beats unrestricted {unrestricted}"
        );
    }
    // And the advantage over the *average* single algorithm is large.
    let mean_single: f64 = ENSEMBLE_ALGOS
        .iter()
        .map(|alg| best_spread_ensemble(&single_algo_pool(db(), alg), size).1)
        .sum::<f64>()
        / ENSEMBLE_ALGOS.len() as f64;
    assert!(
        unrestricted > 1.5 * mean_single,
        "unrestricted {unrestricted} vs mean single {mean_single}"
    );
}

#[test]
fn claim_unrestricted_beats_single_algorithm_coverage() {
    // Figure 19: ~30% better coverage than single-algorithm ensembles.
    let sampler = CoverageSampler::new(20_000, 0xBEEF);
    let pool = unrestricted_pool(db());
    let size = 10;
    let (_, unrestricted) = best_coverage_ensemble(&pool, size, &sampler);
    let best_single: f64 = ENSEMBLE_ALGOS
        .iter()
        .map(|alg| best_coverage_ensemble(&single_algo_pool(db(), alg), size, &sampler).1)
        .fold(0.0, f64::max);
    assert!(
        unrestricted >= best_single,
        "unrestricted {unrestricted} < best single {best_single}"
    );
}

#[test]
fn claim_spread_decays_and_coverage_grows_with_size() {
    // Figures 14–15 shapes.
    let pool = unrestricted_pool(db());
    let sampler = CoverageSampler::new(10_000, 0xCAFE);
    let mut last_spread = f64::INFINITY;
    let mut last_cov = 0.0;
    for size in [2usize, 5, 10, 15] {
        let (_, s) = best_spread_ensemble(&pool, size);
        let (_, c) = best_coverage_ensemble(&pool, size, &sampler);
        assert!(s <= last_spread + 1e-9, "spread grew at size {size}");
        assert!(c >= last_cov - 1e-9, "coverage shrank at size {size}");
        last_spread = s;
        last_cov = c;
    }
}

#[test]
fn claim_achieved_values_below_upper_bounds() {
    let pool = unrestricted_pool(db());
    let sampler = CoverageSampler::new(10_000, 0xF00D);
    for size in [5usize, 10] {
        let (_, s) = best_spread_ensemble(&pool, size);
        let bound = spread_upper_bound(size, 3);
        assert!(
            s <= bound + 1e-6,
            "size {size}: spread {s} above bound {bound}"
        );
        let (_, c) = best_coverage_ensemble(&pool, size, &sampler);
        let cbound = coverage_upper_bound(size, &sampler, 3);
        assert!(
            c <= cbound + 1e-6,
            "size {size}: coverage {c} above bound {cbound}"
        );
    }
}

#[test]
fn claim_thousandfold_behavior_variation() {
    // Paper contribution 1: "1000-fold variation across five dimensions of
    // graph computation behavior". Check the raw (pre-normalization)
    // dynamic range across the database on at least one dimension.
    let db = db();
    let mut min = [f64::INFINITY; 4];
    let mut max = [0.0f64; 4];
    for r in &db.runs {
        let c = r.raw(WorkMetric::LogicalOps).components();
        for k in 0..4 {
            if c[k] > 0.0 {
                min[k] = min[k].min(c[k]);
                max[k] = max[k].max(c[k]);
            }
        }
    }
    let best_ratio = (0..4).map(|k| max[k] / min[k]).fold(0.0, f64::max);
    assert!(
        best_ratio > 1000.0,
        "largest dynamic range only {best_ratio:.1}x"
    );
}

#[test]
fn claim_useful_algorithms_appear_in_top_sets() {
    // Contribution 4 / Figures 20–21: KM, ALS, TC are disproportionately
    // useful. At quick scale the exact ranking can differ, so assert the
    // weaker invariant the paper's conclusion rests on: the frequency
    // distribution over the top-100 sets is strongly non-uniform, and at
    // least one of {KM, ALS, TC} ranks in the top three contributors.
    let pool = unrestricted_pool(db());
    let labels: Vec<String> = ENSEMBLE_ALGOS
        .iter()
        .flat_map(|a| std::iter::repeat_n(a.to_string(), 20))
        .collect();
    let sampler = CoverageSampler::new(4_000, 0xABCD);
    let top = top_k_ensembles(&pool, 5, 100, Objective::Spread, &sampler);
    assert_eq!(top.len(), 100);
    let freq = frequency_in_top_ensembles(&top, &labels);
    let mut ranked: Vec<(&str, usize)> = ENSEMBLE_ALGOS
        .iter()
        .map(|a| (*a, freq.get(*a).copied().unwrap_or(0)))
        .collect();
    ranked.sort_by_key(|r| std::cmp::Reverse(r.1));
    let top3: Vec<&str> = ranked[..3].iter().map(|(a, _)| *a).collect();
    assert!(
        top3.iter().any(|a| ["KM", "ALS", "TC"].contains(a)),
        "none of KM/ALS/TC in top-3 contributors: {ranked:?}"
    );
    // Non-uniformity: the top contributor appears at least 3x the median.
    let median = ranked[ENSEMBLE_ALGOS.len() / 2].1.max(1);
    assert!(
        ranked[0].1 >= 3 * median,
        "frequency distribution too flat: {ranked:?}"
    );
}

#[test]
fn claim_limited_algorithms_conserve_quality() {
    // Contribution 5 / Figures 22–23: a {KM, ALS, TC} suite keeps most of
    // the unrestricted spread.
    let db = db();
    let behaviors = db.behaviors(WorkMetric::LogicalOps);
    let limited: Vec<BehaviorVector> =
        graphmine_core::limited_algorithm_pool(db, &["KM", "ALS", "TC"])
            .into_iter()
            .map(|i| behaviors[i])
            .collect();
    let pool = unrestricted_pool(db);
    let size = 10;
    let (_, full) = best_spread_ensemble(&pool, size);
    let (_, lim) = best_spread_ensemble(&limited, size);
    assert!(
        lim > 0.5 * full,
        "limited suite lost too much spread: {lim} vs {full}"
    );
}
