//! Beyond-the-figures commands: runtime prediction (`graphmine predict`)
//! and behavior analysis of user-supplied graphs (`graphmine analyze`).
//!
//! Both implement "possible uses of our graph computation behavior
//! characterization" from paper §5.1 — performance prediction and basic
//! algorithm/workload analysis — and the §7 future-work question on
//! predicting performance from behavior.

use graphmine_algos::{run_algorithm, AlgorithmKind, SuiteConfig, Workload};
use graphmine_core::{normalize_behaviors, RawBehavior, RunDb, RuntimeModel, WorkMetric};
use graphmine_engine::ExecutionConfig;
use graphmine_graph::{
    degree_assortativity, estimate_powerlaw_alpha, global_clustering_coefficient, parse_edge_list,
    DegreeStats, Graph,
};
use std::fmt::Write as _;
use std::io::BufReader;
use std::path::Path;

/// Fit and evaluate the runtime model on a run database.
pub fn render_predict(db: &RunDb) -> Result<String, String> {
    let (model, train_r2, test_r2) = RuntimeModel::evaluate(db, 0.25, 0xFEED)
        .ok_or("not enough measured runs to fit the runtime model")?;
    let mut s = String::new();
    let _ = writeln!(
        s,
        "Runtime prediction (paper §7): log10(runtime_ms) ~ behavior features"
    );
    let _ = writeln!(s, "\nweights:");
    for (name, w) in RuntimeModel::feature_names().iter().zip(&model.weights) {
        let _ = writeln!(s, "  {name:<20} {w:>9.4}");
    }
    let _ = writeln!(s, "\ntrain R² = {train_r2:.4}   holdout R² = {test_r2:.4}");
    let _ = writeln!(s, "\nsample predictions (one run per algorithm):");
    let _ = writeln!(
        s,
        "  {:<7} {:<8} {:>12} {:>12}",
        "algo", "size", "actual(ms)", "predicted(ms)"
    );
    for alg in db.algorithms() {
        if let Some(&i) = db.indices_of_algorithm(&alg).last() {
            let r = &db.runs[i];
            if r.runtime_ms > 0.0 {
                let _ = writeln!(
                    s,
                    "  {:<7} {:<8} {:>12.2} {:>12.2}",
                    r.algorithm,
                    r.graph.label,
                    r.runtime_ms,
                    model.predict_ms(r)
                );
            }
        }
    }
    Ok(s)
}

/// Behavior vectors of the GA + Clustering suite on a user-supplied graph,
/// optionally placed in an existing run database's normalized space.
pub fn analyze_graph(
    graph: &Graph,
    weights: &[f64],
    db: Option<&RunDb>,
    max_iterations: usize,
) -> String {
    let workload = Workload::weighted(graph.clone(), weights.to_vec(), 0xA11CE);
    let config = SuiteConfig {
        exec: ExecutionConfig::with_max_iterations(max_iterations),
        ..SuiteConfig::default()
    };
    let algos = [
        AlgorithmKind::Cc,
        AlgorithmKind::Kc,
        AlgorithmKind::Tc,
        AlgorithmKind::Sssp,
        AlgorithmKind::Pr,
        AlgorithmKind::Ad,
        AlgorithmKind::Km,
    ];
    let mut s = String::new();
    let _ = writeln!(
        s,
        "behavior analysis: {} vertices, {} edges",
        graph.num_vertices(),
        graph.num_edges()
    );
    let ds = DegreeStats::of(graph);
    let _ = writeln!(
        s,
        "structure: degree min/mean/max = {}/{:.1}/{}, clustering = {:.3}, assortativity = {:+.3}{}",
        ds.min,
        ds.mean,
        ds.max,
        global_clustering_coefficient(graph),
        degree_assortativity(graph),
        estimate_powerlaw_alpha(graph, 4)
            .map(|a| format!(", power-law α ≈ {a:.2}"))
            .unwrap_or_default()
    );
    let mut raws: Vec<(AlgorithmKind, RawBehavior, usize)> = Vec::new();
    for alg in algos {
        match run_algorithm(alg, &workload, &config) {
            Ok(trace) => {
                raws.push((
                    alg,
                    RawBehavior::from_trace(&trace, WorkMetric::WallNanos),
                    trace.num_iterations(),
                ));
            }
            Err(e) => {
                let _ = writeln!(s, "{alg}: skipped ({e})");
            }
        }
    }
    let _ = writeln!(
        s,
        "\n{:<6} {:>6} {:>12} {:>14} {:>12} {:>12}",
        "algo", "iters", "UPDT/edge", "WORK(ns)/edge", "EREAD/edge", "MSG/edge"
    );
    for (alg, b, iters) in &raws {
        let _ = writeln!(
            s,
            "{:<6} {:>6} {:>12.4} {:>14.1} {:>12.4} {:>12.4}",
            alg.abbrev(),
            iters,
            b.updt,
            b.work,
            b.eread,
            b.msg
        );
    }
    // Placement relative to an existing study database.
    if let Some(db) = db {
        let mut all_raw: Vec<RawBehavior> = db
            .runs
            .iter()
            .map(|r| r.raw(WorkMetric::WallNanos))
            .collect();
        let base = all_raw.len();
        all_raw.extend(raws.iter().map(|(_, b, _)| *b));
        let normalized = normalize_behaviors(&all_raw);
        let _ = writeln!(s, "\nnearest study runs (normalized behavior space):");
        for (k, (alg, _, _)) in raws.iter().enumerate() {
            let me = normalized[base + k];
            let nearest = normalized[..base].iter().enumerate().min_by(|a, b| {
                me.distance(a.1)
                    .partial_cmp(&me.distance(b.1))
                    .expect("finite distances")
            });
            if let Some((i, v)) = nearest {
                let r = &db.runs[i];
                let _ = writeln!(
                    s,
                    "  {:<6} ↦ <{}, {}, {}>  (distance {:.3})",
                    alg.abbrev(),
                    r.algorithm,
                    r.graph.label,
                    r.graph
                        .alpha
                        .map(|a| format!("{a:.2}"))
                        .unwrap_or_else(|| "-".into()),
                    me.distance(v)
                );
            }
        }
    }
    s
}

/// Load an edge list from disk (auto-sizing the vertex set) and analyze it.
pub fn analyze_edge_list_file(
    path: &Path,
    db: Option<&RunDb>,
    max_iterations: usize,
) -> Result<String, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    // Pre-scan for the vertex-id range.
    let mut max_id: u64 = 0;
    let mut any = false;
    for line in text.lines() {
        let t = line.trim();
        if t.is_empty() || t.starts_with('#') || t.starts_with('%') {
            continue;
        }
        let mut it = t.split_whitespace();
        if let (Some(a), Some(b)) = (it.next(), it.next()) {
            if let (Ok(a), Ok(b)) = (a.parse::<u64>(), b.parse::<u64>()) {
                max_id = max_id.max(a).max(b);
                any = true;
            }
        }
    }
    if !any {
        return Err(format!("{}: no edges found", path.display()));
    }
    let (graph, weights) =
        parse_edge_list(BufReader::new(text.as_bytes()), max_id as usize + 1, false)
            .map_err(|e| format!("{}: {e}", path.display()))?;
    Ok(analyze_graph(&graph, &weights, db, max_iterations))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::matrix::ScaleProfile;
    use crate::runner::run_matrix;

    #[test]
    fn predict_renders_on_quick_db() {
        let db = run_matrix(ScaleProfile::Quick, |_| ());
        let out = render_predict(&db).expect("model fits");
        assert!(out.contains("train R²"));
        assert!(out.contains("holdout R²"));
        assert!(out.contains("log10(edges)"));
    }

    #[test]
    fn predict_model_explains_quick_runtimes() {
        // The behavior features should explain a solid share of runtime
        // variance even at quick scale.
        let db = run_matrix(ScaleProfile::Quick, |_| ());
        let model = RuntimeModel::fit(&db).expect("fits");
        let idx = RuntimeModel::usable_indices(&db);
        let r2 = model.r_squared(&db, &idx);
        assert!(r2 > 0.5, "train R² only {r2}");
    }

    #[test]
    fn analyze_edge_list_roundtrip() {
        let dir = std::env::temp_dir().join("graphmine_analyze_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("toy.txt");
        std::fs::write(&path, "# toy\n0 1\n1 2\n2 0\n2 3\n3 4\n").unwrap();
        let out = analyze_edge_list_file(&path, None, 30).expect("analyzes");
        assert!(out.contains("5 vertices, 5 edges"));
        assert!(out.contains("CC"));
        assert!(out.contains("AD"));
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn analyze_with_reference_db_reports_neighbors() {
        let db = run_matrix(ScaleProfile::Quick, |_| ());
        let dir = std::env::temp_dir().join("graphmine_analyze_test2");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("toy.txt");
        std::fs::write(&path, "0 1\n1 2\n2 0\n2 3\n3 4\n4 5\n5 0\n").unwrap();
        let out = analyze_edge_list_file(&path, Some(&db), 30).expect("analyzes");
        assert!(out.contains("nearest study runs"));
        assert!(out.contains('↦'));
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn analyze_rejects_garbage() {
        let dir = std::env::temp_dir().join("graphmine_analyze_test3");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("empty.txt");
        std::fs::write(&path, "# nothing\n").unwrap();
        assert!(analyze_edge_list_file(&path, None, 10).is_err());
        assert!(analyze_edge_list_file(Path::new("/nonexistent/x"), None, 10).is_err());
    }
}
