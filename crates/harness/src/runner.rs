//! Execute the experiment matrix into a cached [`RunDb`].

use crate::matrix::{build_matrix, ExperimentCell, ScaleProfile};
use graphmine_algos::{run_algorithm, AlgorithmKind, Domain, SuiteConfig, Workload};
use graphmine_core::{GraphSpec, RunDb, RunRecord};
use graphmine_engine::ExecutionConfig;
use graphmine_graph::Representation;
use std::collections::HashMap;
use std::path::Path;

fn domain_name(d: Domain) -> &'static str {
    match d {
        Domain::GraphAnalytics => "GraphAnalytics",
        Domain::Clustering => "Clustering",
        Domain::CollaborativeFiltering => "CollaborativeFiltering",
        Domain::LinearSolver => "LinearSolver",
        Domain::GraphicalModel => "GraphicalModel",
    }
}

/// Key identifying a generated workload so all algorithms of a domain
/// reuse the same graph.
#[derive(PartialEq, Eq, Hash, Clone)]
struct WorkloadKey {
    domain_class: u8,
    size: u64,
    alpha_milli: u64,
}

fn workload_for(cell: &ExperimentCell) -> (WorkloadKey, fn(&ExperimentCell) -> Workload) {
    let class = match cell.algorithm.domain() {
        Domain::GraphAnalytics | Domain::Clustering => 0u8,
        Domain::CollaborativeFiltering => 1,
        Domain::LinearSolver => 2,
        Domain::GraphicalModel => {
            if cell.algorithm == AlgorithmKind::Lbp {
                3
            } else {
                4
            }
        }
    };
    let build: fn(&ExperimentCell) -> Workload = match class {
        0 => |c| Workload::powerlaw(c.size as usize, c.alpha.unwrap_or(2.5), c.seed),
        1 => |c| Workload::ratings(c.size as usize, c.alpha.unwrap_or(2.5), c.seed),
        2 => |c| Workload::matrix(c.size as usize, c.seed),
        3 => |c| Workload::grid(c.size as usize, c.seed),
        _ => |c| Workload::mrf(c.size as usize, c.seed),
    };
    (
        WorkloadKey {
            domain_class: class,
            size: cell.size,
            alpha_milli: cell.alpha.map(|a| (a * 1000.0) as u64).unwrap_or(0),
        },
        build,
    )
}

/// How the CLI prepares each generated graph of a matrix run, orthogonal
/// to the scale profile: CSR vertex reordering and adjacency
/// representation. The engine picks scatter direction and segment size
/// itself.
#[derive(Debug, Clone, Copy, Default)]
pub struct MatrixOptions {
    /// Permute each generated graph degree-descending before running.
    pub reorder: bool,
    /// Adjacency representation for every generated graph.
    pub representation: Representation,
}

/// Run the full experiment matrix for `profile`, logging progress through
/// `progress` (pass `|_| ()` to silence).
pub fn run_matrix(profile: ScaleProfile, progress: impl FnMut(&str)) -> RunDb {
    run_matrix_with(profile, MatrixOptions::default(), progress)
}

/// [`run_matrix`] with explicit reorder/representation options.
pub fn run_matrix_with(
    profile: ScaleProfile,
    options: MatrixOptions,
    mut progress: impl FnMut(&str),
) -> RunDb {
    let cells = build_matrix(profile);
    let config = SuiteConfig {
        exec: ExecutionConfig::with_max_iterations(profile.max_iterations()),
        ..SuiteConfig::default()
    };
    let mut db = RunDb::new();
    // Cache the most recent workload per key: cells are grouped by
    // algorithm, so an LRU of a few entries suffices; we keep all (bounded
    // by the distinct graph count, ≤ 52).
    let mut workloads: HashMap<WorkloadKey, Workload> = HashMap::new();
    let total = cells.len();
    for (i, cell) in cells.iter().enumerate() {
        let (key, build) = workload_for(cell);
        let workload = workloads.entry(key).or_insert_with(|| {
            let w = build(cell);
            let w = if options.reorder {
                w.reordered_by_degree()
            } else {
                w
            };
            if options.representation == Representation::Compressed {
                w.with_representation(Representation::Compressed)
                    .expect("generated graphs have sorted rows")
            } else {
                w
            }
        });
        let t0 = std::time::Instant::now();
        let trace = run_algorithm(cell.algorithm, workload, &config)
            .expect("matrix cells are domain-consistent");
        let runtime_ms = t0.elapsed().as_secs_f64() * 1e3;
        progress(&format!(
            "[{}/{}] {} size={} alpha={} iters={} converged={}",
            i + 1,
            total,
            cell.algorithm,
            cell.size_label,
            cell.alpha
                .map(|a| a.to_string())
                .unwrap_or_else(|| "-".into()),
            trace.num_iterations(),
            trace.converged
        ));
        db.push(
            RunRecord::from_trace(
                cell.algorithm.abbrev(),
                domain_name(cell.algorithm.domain()),
                GraphSpec {
                    size: cell.size,
                    alpha: cell.alpha,
                    label: cell.size_label.clone(),
                },
                cell.seed,
                &trace,
            )
            .with_runtime_ms(runtime_ms),
        );
    }
    db
}

/// Load the cached database at `path` if present, otherwise run the matrix
/// and cache it.
pub fn run_or_load(
    profile: ScaleProfile,
    path: &Path,
    progress: impl FnMut(&str),
) -> std::io::Result<RunDb> {
    run_or_load_with(profile, MatrixOptions::default(), path, progress)
}

/// [`run_or_load`] with explicit reorder/representation options. The options
/// only matter when the matrix actually runs — a cached database is served
/// as-is (behavior counters are identical across options anyway).
pub fn run_or_load_with(
    profile: ScaleProfile,
    options: MatrixOptions,
    path: &Path,
    progress: impl FnMut(&str),
) -> std::io::Result<RunDb> {
    if path.exists() {
        return Ok(RunDb::load(path)?);
    }
    let db = run_matrix_with(profile, options, progress);
    if let Some(parent) = path.parent() {
        if !parent.as_os_str().is_empty() {
            std::fs::create_dir_all(parent)?;
        }
    }
    db.save(path)?;
    Ok(db)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_matrix_runs_end_to_end() {
        let db = run_matrix(ScaleProfile::Quick, |_| ());
        assert_eq!(db.len(), 232);
        // Every ensemble algorithm contributed 20 runs.
        for alg in AlgorithmKind::ENSEMBLE {
            assert_eq!(db.indices_of_algorithm(alg.abbrev()).len(), 20, "{alg}");
        }
        // Behavior vectors well-formed.
        let behaviors = db.behaviors(graphmine_core::WorkMetric::LogicalOps);
        assert_eq!(behaviors.len(), db.len());
        for b in &behaviors {
            assert!(b
                .0
                .iter()
                .all(|&x| (0.0..=1.0).contains(&x) && x.is_finite()));
        }
    }

    #[test]
    fn cache_round_trip() {
        let dir = std::env::temp_dir().join("graphmine_runner_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("quick.json");
        let _ = std::fs::remove_file(&path);
        let db1 = run_or_load(ScaleProfile::Quick, &path, |_| ()).unwrap();
        assert!(path.exists());
        let db2 = run_or_load(ScaleProfile::Quick, &path, |_| ()).unwrap();
        assert_eq!(db1, db2);
        let _ = std::fs::remove_file(&path);
    }
}
