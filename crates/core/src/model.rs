//! Runtime prediction from behavior vectors — the paper's future-work
//! question (§7): *"Can we model precisely a graph computation's behavior,
//! and predict its performance?"*
//!
//! The model is deliberately simple and interpretable: ridge-regularized
//! linear regression from a run's behavior features to the logarithm of its
//! end-to-end runtime,
//!
//! ```text
//! log10(runtime) ≈ w · [1, log10(m), log10(iters),
//!                       UPDT/edge, log10(1 + WORK/edge),
//!                       EREAD/edge, MSG/edge]
//! ```
//!
//! which is exactly the hypothesis behind the behavior space: if
//! `<UPDT, WORK, EREAD, MSG>` captures what a computation *does*, then
//! together with problem scale it should explain what the computation
//! *costs*. The `graphmine predict` command fits the model on a run
//! database and reports train/holdout R².

use crate::behavior::WorkMetric;
use crate::rundb::{RunDb, RunRecord};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};

/// Number of regression features (including the intercept).
pub const NUM_FEATURES: usize = 7;

/// A fitted runtime model.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RuntimeModel {
    /// Regression weights, aligned with [`RuntimeModel::feature_names`].
    pub weights: Vec<f64>,
}

/// Extract the feature vector of a run.
pub fn features(record: &RunRecord) -> [f64; NUM_FEATURES] {
    let b = record.raw(WorkMetric::WallNanos);
    [
        1.0,
        (record.num_edges.max(1) as f64).log10(),
        (record.iterations.max(1) as f64).log10(),
        b.updt,
        (1.0 + b.work).log10(),
        b.eread,
        b.msg,
    ]
}

/// Solve the dense linear system `A x = b` by Gaussian elimination with
/// partial pivoting. Returns `None` for (numerically) singular systems.
fn solve_dense(mut a: Vec<Vec<f64>>, mut b: Vec<f64>) -> Option<Vec<f64>> {
    let n = b.len();
    for col in 0..n {
        // Pivot.
        let pivot = (col..n).max_by(|&i, &j| {
            a[i][col]
                .abs()
                .partial_cmp(&a[j][col].abs())
                .expect("finite matrix")
        })?;
        if a[pivot][col].abs() < 1e-12 {
            return None;
        }
        a.swap(col, pivot);
        b.swap(col, pivot);
        // Eliminate below.
        for row in (col + 1)..n {
            let factor = a[row][col] / a[col][col];
            let (upper, lower) = a.split_at_mut(row);
            for (x, p) in lower[0][col..n].iter_mut().zip(&upper[col][col..n]) {
                *x -= factor * p;
            }
            b[row] -= factor * b[col];
        }
    }
    // Back substitution.
    let mut x = vec![0.0; n];
    for col in (0..n).rev() {
        let mut sum = b[col];
        for k in (col + 1)..n {
            sum -= a[col][k] * x[k];
        }
        x[col] = sum / a[col][col];
    }
    Some(x)
}

impl RuntimeModel {
    /// Human-readable feature names aligned with the weights.
    pub fn feature_names() -> [&'static str; NUM_FEATURES] {
        [
            "intercept",
            "log10(edges)",
            "log10(iterations)",
            "UPDT/edge",
            "log10(1+WORK/edge)",
            "EREAD/edge",
            "MSG/edge",
        ]
    }

    /// Fit by ridge-regularized least squares on all runs with a measured
    /// runtime. Returns `None` with fewer than `NUM_FEATURES` usable runs.
    pub fn fit(db: &RunDb) -> Option<RuntimeModel> {
        Self::fit_on(db, &Self::usable_indices(db))
    }

    /// Indices of runs carrying a runtime measurement.
    pub fn usable_indices(db: &RunDb) -> Vec<usize> {
        db.runs
            .iter()
            .enumerate()
            .filter(|(_, r)| r.runtime_ms > 0.0)
            .map(|(i, _)| i)
            .collect()
    }

    /// Fit on a subset of run indices.
    pub fn fit_on(db: &RunDb, indices: &[usize]) -> Option<RuntimeModel> {
        if indices.len() < NUM_FEATURES {
            return None;
        }
        // Normal equations with a small ridge on non-intercept terms.
        let mut xtx = vec![vec![0.0f64; NUM_FEATURES]; NUM_FEATURES];
        let mut xty = vec![0.0f64; NUM_FEATURES];
        for &i in indices {
            let r = &db.runs[i];
            let x = features(r);
            let y = r.runtime_ms.max(1e-6).log10();
            for a in 0..NUM_FEATURES {
                for b in 0..NUM_FEATURES {
                    xtx[a][b] += x[a] * x[b];
                }
                xty[a] += x[a] * y;
            }
        }
        for (d, row) in xtx.iter_mut().enumerate().skip(1) {
            row[d] += 1e-6 * indices.len() as f64;
        }
        let weights = solve_dense(xtx, xty)?;
        Some(RuntimeModel { weights })
    }

    /// Predicted runtime in milliseconds.
    pub fn predict_ms(&self, record: &RunRecord) -> f64 {
        let x = features(record);
        let log10: f64 = x.iter().zip(self.weights.iter()).map(|(a, w)| a * w).sum();
        10f64.powf(log10)
    }

    /// Coefficient of determination (R²) of log-runtime predictions over
    /// the given runs.
    pub fn r_squared(&self, db: &RunDb, indices: &[usize]) -> f64 {
        let ys: Vec<f64> = indices
            .iter()
            .map(|&i| db.runs[i].runtime_ms.max(1e-6).log10())
            .collect();
        if ys.len() < 2 {
            return 0.0;
        }
        let mean = ys.iter().sum::<f64>() / ys.len() as f64;
        let ss_tot: f64 = ys.iter().map(|y| (y - mean) * (y - mean)).sum();
        let ss_res: f64 = indices
            .iter()
            .zip(ys.iter())
            .map(|(&i, y)| {
                let pred = self.predict_ms(&db.runs[i]).max(1e-6).log10();
                (y - pred) * (y - pred)
            })
            .sum();
        if ss_tot <= 0.0 {
            return 0.0;
        }
        1.0 - ss_res / ss_tot
    }

    /// Train/holdout evaluation: fit on a random `1 - holdout_fraction` of
    /// the runs, report `(train_r2, holdout_r2)`.
    pub fn evaluate(
        db: &RunDb,
        holdout_fraction: f64,
        seed: u64,
    ) -> Option<(RuntimeModel, f64, f64)> {
        let mut indices = Self::usable_indices(db);
        if indices.len() < 2 * NUM_FEATURES {
            return None;
        }
        let mut rng = SmallRng::seed_from_u64(seed);
        // Fisher-Yates shuffle.
        for i in (1..indices.len()).rev() {
            let j = rng.gen_range(0..=i);
            indices.swap(i, j);
        }
        let split = ((indices.len() as f64) * (1.0 - holdout_fraction)).round() as usize;
        let split = split.clamp(NUM_FEATURES, indices.len() - 1);
        let (train, test) = indices.split_at(split);
        let model = Self::fit_on(db, train)?;
        let train_r2 = model.r_squared(db, train);
        let test_r2 = model.r_squared(db, test);
        Some((model, train_r2, test_r2))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::behavior::RawBehavior;
    use crate::rundb::GraphSpec;

    /// Build a synthetic database whose log-runtime is an exact linear
    /// function of the features.
    fn synthetic_db(n: usize) -> RunDb {
        let true_w = [0.5, 0.8, 0.3, 2.0, 1.5, 0.7, 0.4];
        let mut db = RunDb::new();
        let mut rng = SmallRng::seed_from_u64(1);
        for i in 0..n {
            let edges = 1_000 + (i as u64 * 37) % 100_000;
            let iterations = 1 + (i * 13) % 400;
            let raw = RawBehavior {
                updt: rng.gen::<f64>(),
                work: rng.gen::<f64>() * 100.0,
                eread: rng.gen::<f64>() * 2.0,
                msg: rng.gen::<f64>() * 2.0,
            };
            let mut record = RunRecord {
                algorithm: "X".into(),
                domain: "Y".into(),
                graph: GraphSpec {
                    size: edges,
                    alpha: None,
                    label: "s".into(),
                },
                seed: 0,
                iterations,
                converged: true,
                num_vertices: edges / 16,
                num_edges: edges,
                active_fraction: vec![],
                behavior_wall: raw,
                behavior_ops: raw,
                runtime_ms: 0.0,
                tenant: None,
            };
            let x = features(&record);
            let log_y: f64 = x.iter().zip(true_w.iter()).map(|(a, w)| a * w).sum();
            record.runtime_ms = 10f64.powf(log_y);
            db.push(record);
        }
        db
    }

    #[test]
    fn recovers_exact_linear_model() {
        let db = synthetic_db(120);
        let model = RuntimeModel::fit(&db).expect("fits");
        let idx = RuntimeModel::usable_indices(&db);
        let r2 = model.r_squared(&db, &idx);
        assert!(r2 > 0.9999, "R² = {r2}");
        // Point predictions land within 1% on log scale.
        for &i in idx.iter().take(10) {
            let pred = model.predict_ms(&db.runs[i]);
            let truth = db.runs[i].runtime_ms;
            assert!(
                (pred.log10() - truth.log10()).abs() < 0.01,
                "{pred} vs {truth}"
            );
        }
    }

    #[test]
    fn holdout_generalizes_on_clean_data() {
        let db = synthetic_db(200);
        let (_, train_r2, test_r2) = RuntimeModel::evaluate(&db, 0.25, 7).expect("evaluates");
        assert!(train_r2 > 0.999);
        assert!(test_r2 > 0.999, "holdout R² = {test_r2}");
    }

    #[test]
    fn too_few_runs_is_none() {
        let db = synthetic_db(3);
        assert!(RuntimeModel::fit(&db).is_none());
        assert!(RuntimeModel::evaluate(&db, 0.25, 1).is_none());
    }

    #[test]
    fn unmeasured_runs_excluded() {
        let mut db = synthetic_db(30);
        db.runs[0].runtime_ms = 0.0;
        assert_eq!(RuntimeModel::usable_indices(&db).len(), 29);
    }

    #[test]
    fn solve_dense_rejects_singular() {
        let a = vec![vec![1.0, 2.0], vec![2.0, 4.0]];
        assert!(solve_dense(a, vec![1.0, 2.0]).is_none());
        let a = vec![vec![2.0, 0.0], vec![0.0, 3.0]];
        let x = solve_dense(a, vec![4.0, 9.0]).unwrap();
        assert!((x[0] - 2.0).abs() < 1e-12 && (x[1] - 3.0).abs() < 1e-12);
    }
}
