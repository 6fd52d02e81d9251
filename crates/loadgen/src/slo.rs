//! Maximum-sustainable-throughput search under a latency SLO.
//!
//! The headline number a robust benchmark wants is not "throughput at
//! some arbitrary offered load" but *the highest arrival rate the
//! service sustains while meeting its tail-latency objective* — beyond
//! it, queueing theory guarantees the tail diverges. The search probes
//! with short open-loop runs: geometric expansion doubles the rate until
//! a probe violates the SLO (bracketing the knee), then bisection
//! narrows the bracket. Probe seeds derive deterministically from the
//! base seed and probe index, so a search is exactly repeatable.

use crate::report::LoadReport;
use crate::run::{self, Mode, RunConfig};
use serde::{Deserialize, Serialize};
use std::io;

/// Search parameters.
#[derive(Debug, Clone)]
pub struct SloConfig {
    /// The objective: corrected p99 must not exceed this many ms.
    pub p99_limit_ms: f64,
    /// First probe rate (requests/second).
    pub initial_rate: f64,
    /// Stop when the bracket is within this relative width (e.g. 0.1 ⇒
    /// upper/lower < 1.1).
    pub resolution: f64,
    /// Hard cap on probes (expansion + bisection).
    pub max_probes: usize,
}

impl Default for SloConfig {
    fn default() -> SloConfig {
        SloConfig {
            p99_limit_ms: 50.0,
            initial_rate: 10.0,
            resolution: 0.1,
            max_probes: 12,
        }
    }
}

/// One probe of the search.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Probe {
    pub rate_per_s: f64,
    pub seed: u64,
    pub p99_ms: f64,
    pub achieved_rate_per_s: f64,
    pub shed: u64,
    pub transport_errors: u64,
    /// Whether this probe met the SLO.
    pub pass: bool,
}

/// The search outcome.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct SloResult {
    pub p99_limit_ms: f64,
    /// Highest probed rate that met the SLO; 0 when even the initial rate
    /// violated it and bisection-down found no passing rate.
    pub max_sustainable_rate_per_s: f64,
    /// The bracket narrowed to `resolution` (or probes ran out first).
    pub converged: bool,
    /// Every probe, in execution order.
    pub probes: Vec<Probe>,
    /// Full report of the highest passing probe — carries the per-class
    /// and per-stage percentile summaries at the sustained rate. `None`
    /// when no probe passed.
    pub best_report: Option<LoadReport>,
}

impl SloResult {
    /// Machine-readable JSON.
    pub fn to_json(&self) -> serde_json::Value {
        serde_json::to_value(self).expect("slo result serializes")
    }
}

/// A probe passes when its corrected p99 meets the objective, nothing was
/// shed past the retry budget, and the transport held up.
fn passes(limit_ms: f64, report: &LoadReport) -> bool {
    report.counts.done > 0
        && report.counts.transport_errors == 0
        && report.counts.shed == 0
        && report.p99_ms() <= limit_ms
}

/// Run the search. `base` supplies the target address, probe duration,
/// mix, seed, and retry policy; its mode is replaced per probe with an
/// open-loop run at the probed rate.
pub fn find_max_sustainable(base: &RunConfig, slo: &SloConfig) -> io::Result<SloResult> {
    assert!(slo.initial_rate > 0.0, "initial rate must be positive");
    let mut probes: Vec<Probe> = Vec::new();
    let mut probe_at = |rate: f64, index: usize| -> io::Result<(bool, LoadReport)> {
        let mut cfg = base.clone();
        // Each probe gets its own deterministic stream; splitmix-style
        // scramble keeps neighboring probe seeds uncorrelated.
        cfg.seed = base
            .seed
            .wrapping_add((index as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15));
        cfg.mode = Mode::Open {
            rate_per_s: rate,
            process: match base.mode {
                Mode::Open { process, .. } => process,
                Mode::Closed { .. } => crate::schedule::ArrivalProcess::Poisson,
            },
        };
        let result = run::run(&cfg)?;
        let report = LoadReport::build(&cfg, &result);
        let pass = passes(slo.p99_limit_ms, &report);
        probes.push(Probe {
            rate_per_s: rate,
            seed: cfg.seed,
            p99_ms: report.p99_ms(),
            achieved_rate_per_s: report.achieved_rate_per_s,
            shed: report.counts.shed,
            transport_errors: report.counts.transport_errors,
            pass,
        });
        Ok((pass, report))
    };

    // Expansion: double until a probe fails (or probes run out).
    let mut lo = 0.0f64; // highest passing rate seen
    let mut hi: Option<f64> = None; // lowest failing rate seen
    let mut best_report: Option<LoadReport> = None;
    let mut rate = slo.initial_rate;
    let mut index = 0;
    while index < slo.max_probes {
        let (pass, report) = probe_at(rate, index)?;
        index += 1;
        if pass {
            lo = rate;
            best_report = Some(report);
            rate *= 2.0;
        } else {
            hi = Some(rate);
            break;
        }
    }

    // Bisection inside (lo, hi). With lo == 0 (initial rate failed) this
    // bisects down toward zero until the bracket closes.
    let mut converged = hi.is_none(); // all expansion probes passed ⇒ lo is a floor
    if let Some(mut high) = hi {
        loop {
            let width_ok = lo > 0.0 && (high - lo) <= lo * slo.resolution;
            let floor_ok = lo == 0.0 && high <= slo.initial_rate * slo.resolution.max(0.01);
            if width_ok || floor_ok {
                converged = true;
                break;
            }
            if index >= slo.max_probes {
                break;
            }
            let mid = if lo > 0.0 {
                (lo + high) / 2.0
            } else {
                high / 2.0
            };
            let (pass, report) = probe_at(mid, index)?;
            index += 1;
            if pass {
                lo = mid;
                best_report = Some(report);
            } else {
                high = mid;
            }
        }
    }

    Ok(SloResult {
        p99_limit_ms: slo.p99_limit_ms,
        max_sustainable_rate_per_s: lo,
        converged,
        probes,
        best_report,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use graphmine_core::LogHistogram;
    use serde_json::json;

    fn report_with_p99_us(p99_us: u64, shed: u64) -> LoadReport {
        let mut h = LogHistogram::new();
        h.record(p99_us);
        LoadReport {
            mode: "open".into(),
            process: Some("poisson".into()),
            clients: None,
            think_ms: None,
            seed: 1,
            duration_s: 1.0,
            elapsed_s: 1.0,
            offered_rate_per_s: Some(10.0),
            achieved_rate_per_s: 10.0,
            counts: crate::report::Counts {
                submitted: 1,
                done: 1,
                failed: 0,
                shed,
                transport_errors: 0,
                http_429: 0,
            },
            latency: json!({}),
            latency_histogram: h,
            per_class: vec![],
            per_tenant: vec![],
            tenant_mismatches: 0,
            service_stages: json!({}),
        }
    }

    #[test]
    fn pass_criterion_checks_p99_and_sheds() {
        // 10 ms p99 against a 50 ms SLO passes…
        assert!(passes(50.0, &report_with_p99_us(10_000, 0)));
        // …a 100 ms p99 does not…
        assert!(!passes(50.0, &report_with_p99_us(100_000, 0)));
        // …and sheds disqualify even a fast probe.
        assert!(!passes(50.0, &report_with_p99_us(10_000, 3)));
    }

    #[test]
    fn probe_seeds_are_deterministic_and_distinct() {
        let base = 7u64;
        let seed = |i: u64| base.wrapping_add(i.wrapping_mul(0x9E37_79B9_7F4A_7C15));
        assert_eq!(seed(3), seed(3));
        assert_ne!(seed(0), seed(1));
    }

    #[test]
    fn slo_result_serializes_with_required_fields() {
        let r = SloResult {
            p99_limit_ms: 50.0,
            max_sustainable_rate_per_s: 80.0,
            converged: true,
            probes: vec![Probe {
                rate_per_s: 80.0,
                seed: 9,
                p99_ms: 31.0,
                achieved_rate_per_s: 79.0,
                shed: 0,
                transport_errors: 0,
                pass: true,
            }],
            best_report: None,
        };
        let v = r.to_json();
        assert_eq!(v["max_sustainable_rate_per_s"], 80.0);
        assert_eq!(v["probes"][0]["pass"], true);
        let back: SloResult = serde_json::from_value(v).unwrap();
        assert_eq!(back.probes.len(), 1);
    }
}
