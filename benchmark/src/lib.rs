//! graphmine's benchmark: four workloads, six end-to-end metrics reported
//! by each, and per-layer metrics measured from outside the program —
//! from spans around the calls made into each crate and from the counts
//! the program already returns. README.md has the how and the why.

pub mod cli;
pub mod compare;
pub mod host;
pub mod http;
pub mod offline;
pub mod probes;
pub mod sched;
pub mod service;
pub mod spec;
pub mod stats;
pub mod trace;

use serde_json::{json, Map, Value};
use spec::Scale;
use std::collections::BTreeMap;
use std::path::PathBuf;

/// What one run was asked to do.
#[derive(Debug, Clone)]
pub struct Ctx {
    /// Workload name.
    pub workload: &'static str,
    /// Seed for every generator, class draw and arrival schedule.
    pub seed: u64,
    /// Length of the measured window.
    pub seconds: f64,
    /// Whether this is the traced (per-layer) run.
    pub traced: bool,
    /// Input sizes.
    pub scale: Scale,
    /// Scratch directory of this run (inside the checkout), removed when
    /// the run ends.
    pub work: PathBuf,
}

/// What one run found.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Operations attempted: jobs of the measured window plus the
    /// correctness cross-checks.
    pub attempted: u64,
    /// Operations that failed or returned a wrong result.
    pub failed: u64,
    /// One line per failure (capped), for the human reading stderr.
    pub violations: Vec<String>,
    /// Every metric the run measured, end-to-end and per-layer, by name.
    pub metrics: BTreeMap<&'static str, f64>,
    /// Sample counts and frozen parameters, for the `--out` file.
    pub details: Map<String, Value>,
}

impl Outcome {
    /// Record a metric.
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.metrics.insert(name, value);
    }

    /// Count one passed check or completed job.
    pub fn pass(&mut self) {
        self.attempted += 1;
    }

    /// Count one failed check or job and remember why.
    pub fn fail(&mut self, why: String) {
        self.attempted += 1;
        self.failed += 1;
        if self.violations.len() < 20 {
            self.violations.push(why);
        }
    }

    /// Count a check that passes iff `ok`.
    pub fn check(&mut self, ok: bool, why: impl FnOnce() -> String) {
        if ok {
            self.pass()
        } else {
            self.fail(why())
        }
    }

    /// The one-line result the driver reads: end-to-end metrics for an
    /// untraced run, per-layer metrics for a traced one. A metric the
    /// run did not set is reported as 0 (layer not exercised).
    pub fn result_line(&self, traced: bool) -> Value {
        let mut metrics = Map::new();
        if traced {
            for m in spec::PER_LAYER {
                let v = self.metrics.get(m.name).copied().unwrap_or(0.0);
                metrics.insert(m.name.to_string(), json!({"value": v, "unit": m.unit}));
            }
        } else {
            for m in spec::END_TO_END {
                let v = self.metrics.get(m.name).copied().unwrap_or(0.0);
                metrics.insert(m.name.to_string(), json!({"value": v, "unit": m.unit}));
            }
        }
        json!({
            "correct": self.failed == 0,
            "attempted": self.attempted.max(1),
            "failed": self.failed,
            "metrics": metrics,
        })
    }
}
