//! `benchmark compare BASE.json NEW.json`: one row per workload ×
//! end-to-end metric, with a verdict against the metric's bound.

use crate::{spec, stats};
use serde_json::Value;
use std::collections::BTreeMap;

/// What a row concludes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// Improved by more than the bound.
    Better,
    /// Within the bound either way.
    Same,
    /// Worsened by more than the bound.
    Worse,
    /// The run-to-run spread of either side exceeds the bound, so a
    /// difference of that size cannot be told from noise.
    Unresolved,
}

impl Verdict {
    /// Word printed in the table.
    pub fn as_str(&self) -> &'static str {
        match self {
            Verdict::Better => "better",
            Verdict::Same => "same",
            Verdict::Worse => "worse",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// One compared metric.
#[derive(Debug, Clone)]
pub struct Row {
    /// Workload name.
    pub workload: String,
    /// Metric name.
    pub metric: &'static str,
    /// Median of the base runs.
    pub base: f64,
    /// Median of the new runs.
    pub new: f64,
    /// `new / base`.
    pub ratio: f64,
    /// The larger of the two sides' relative inter-quartile spreads.
    pub spread: f64,
    /// The metric's bound.
    pub bound: f64,
    /// The conclusion.
    pub verdict: Verdict,
}

/// Values of every end-to-end metric per workload, one entry per
/// untraced run in the file.
fn collect(doc: &Value) -> BTreeMap<String, BTreeMap<&'static str, Vec<f64>>> {
    let mut out: BTreeMap<String, BTreeMap<&'static str, Vec<f64>>> = BTreeMap::new();
    for run in doc["runs"]
        .as_array()
        .map(Vec::as_slice)
        .unwrap_or_default()
    {
        if run["trace"].as_bool() == Some(true) {
            continue;
        }
        let Some(workload) = run["workload"].as_str() else {
            continue;
        };
        for m in &spec::END_TO_END {
            if let Some(v) = run["metrics"][m.name]["value"].as_f64() {
                out.entry(workload.to_string())
                    .or_default()
                    .entry(m.name)
                    .or_default()
                    .push(v);
            }
        }
    }
    out
}

/// Decide one row.
pub fn judge(base: &[f64], new: &[f64], m: &spec::EndToEnd) -> (f64, f64, f64, Verdict) {
    let (b, n) = (stats::median(base), stats::median(new));
    let spread = stats::relative_spread(base).max(stats::relative_spread(new));
    // Positive = worse, as a share of the base.
    let worsening = match m.better {
        spec::Better::Lower => (n - b) / b,
        spec::Better::Higher => (b - n) / b,
    };
    let verdict = if !worsening.is_finite() || spread > m.bound {
        Verdict::Unresolved
    } else if worsening > m.bound {
        Verdict::Worse
    } else if worsening < -m.bound {
        Verdict::Better
    } else {
        Verdict::Same
    };
    (b, n, spread, verdict)
}

/// Compare two result documents (as written by `benchmark run --out`).
pub fn compare(base: &Value, new: &Value) -> Vec<Row> {
    let (base, new) = (collect(base), collect(new));
    let mut rows = Vec::new();
    for (workload, metrics) in &base {
        for m in &spec::END_TO_END {
            let (Some(b), Some(n)) = (
                metrics.get(m.name),
                new.get(workload).and_then(|w| w.get(m.name)),
            ) else {
                continue;
            };
            let (bm, nm, spread, verdict) = judge(b, n, m);
            rows.push(Row {
                workload: workload.clone(),
                metric: m.name,
                base: bm,
                new: nm,
                ratio: nm / bm,
                spread,
                bound: m.bound,
                verdict,
            });
        }
    }
    rows
}

/// The table `compare` prints.
pub fn render(rows: &[Row]) -> String {
    let mut out = format!(
        "{:<28} {:<20} {:>14} {:>14} {:>7} {:>7} {:>6}  {}\n",
        "workload", "metric", "base", "new", "ratio", "spread", "bound", "verdict"
    );
    for r in rows {
        out.push_str(&format!(
            "{:<28} {:<20} {:>14.4} {:>14.4} {:>7.3} {:>7.3} {:>6.2}  {}\n",
            r.workload,
            r.metric,
            r.base,
            r.new,
            r.ratio,
            r.spread,
            r.bound,
            r.verdict.as_str()
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use serde_json::json;

    fn doc(workload: &str, jobs: &[f64], p95: &[f64]) -> Value {
        let runs: Vec<Value> = jobs
            .iter()
            .zip(p95)
            .map(|(j, p)| {
                json!({"workload": workload, "trace": false, "metrics": {
                    "jobs_per_s": {"value": j, "unit": "jobs/s"},
                    "job_latency_p95_ms": {"value": p, "unit": "ms"},
                }})
            })
            .collect();
        json!({ "runs": runs })
    }

    fn verdict_of(rows: &[Row], metric: &str) -> Verdict {
        rows.iter().find(|r| r.metric == metric).unwrap().verdict
    }

    #[test]
    fn verdicts_follow_direction_bound_and_spread() {
        let base = doc("service-hot", &[100.0, 101.0, 99.0], &[5.0, 5.0, 5.1]);
        // Throughput up 20 % (better: higher), latency up 20 % (worse: lower).
        let new = doc("service-hot", &[120.0, 121.0, 119.0], &[6.0, 6.0, 6.1]);
        let rows = compare(&base, &new);
        assert_eq!(rows.len(), 2);
        assert_eq!(verdict_of(&rows, "jobs_per_s"), Verdict::Better);
        assert_eq!(verdict_of(&rows, "job_latency_p95_ms"), Verdict::Worse);
        // Within the bound either way.
        let near = doc("service-hot", &[104.0, 105.0, 103.0], &[5.2, 5.2, 5.3]);
        let rows = compare(&base, &near);
        assert_eq!(verdict_of(&rows, "jobs_per_s"), Verdict::Same);
        assert_eq!(verdict_of(&rows, "job_latency_p95_ms"), Verdict::Same);
        // A side whose own runs disagree by more than the bound settles nothing.
        let noisy = doc("service-hot", &[60.0, 100.0, 140.0], &[5.0, 5.0, 5.0]);
        let rows = compare(&base, &noisy);
        assert_eq!(verdict_of(&rows, "jobs_per_s"), Verdict::Unresolved);
        assert!(render(&rows).contains("unresolved"));
        // Workloads missing from the new file produce no rows.
        assert!(compare(&base, &doc("other", &[1.0], &[1.0])).is_empty());
    }
}
