//! Behavior vectors and their normalization (paper §3.4, §5.1).

use graphmine_engine::RunTrace;
use serde::{Deserialize, Serialize};

/// Dimensionality of the behavior space: `<UPDT, WORK, EREAD, MSG>`.
pub const DIMS: usize = 4;

/// Which WORK measurement to use.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum WorkMetric {
    /// Wall-clock nanoseconds spent in apply (the paper's definition).
    WallNanos,
    /// Logical apply operations — deterministic, used by tests and anywhere
    /// reproducibility across machines matters.
    LogicalOps,
}

/// Un-normalized behavior: per-iteration averages *divided by the edge
/// count* (the paper's per-edge normalization), before database-level max
/// scaling.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct RawBehavior {
    /// Vertex updates per iteration per edge.
    pub updt: f64,
    /// Apply work per iteration per edge (ns or ops, see [`WorkMetric`]).
    pub work: f64,
    /// Edge reads per iteration per edge.
    pub eread: f64,
    /// Messages per iteration per edge.
    pub msg: f64,
}

impl RawBehavior {
    /// Extract the per-edge behavior of a trace.
    pub fn from_trace(trace: &RunTrace, work: WorkMetric) -> RawBehavior {
        let m = trace.num_edges.max(1) as f64;
        RawBehavior {
            updt: trace.updt() / m,
            work: match work {
                WorkMetric::WallNanos => trace.work_ns() / m,
                WorkMetric::LogicalOps => trace.work_ops() / m,
            },
            eread: trace.eread() / m,
            msg: trace.msg() / m,
        }
    }

    /// The four components as an array.
    pub fn components(&self) -> [f64; DIMS] {
        [self.updt, self.work, self.eread, self.msg]
    }
}

/// A point in the normalized behavior space, each component in `[0, 1]`.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct BehaviorVector(pub [f64; DIMS]);

impl BehaviorVector {
    /// Euclidean distance to another behavior (the paper's `d(·,·)`).
    #[inline]
    pub fn distance(&self, other: &BehaviorVector) -> f64 {
        let mut s = 0.0;
        for i in 0..DIMS {
            let d = self.0[i] - other.0[i];
            s += d * d;
        }
        s.sqrt()
    }

    /// Distance to a raw sample point.
    #[inline]
    pub fn distance_to_point(&self, p: &[f64; DIMS]) -> f64 {
        let mut s = 0.0;
        for (a, b) in self.0.iter().zip(p) {
            let d = a - b;
            s += d * d;
        }
        s.sqrt()
    }
}

/// Max-normalize a set of raw behaviors into `[0, 1]⁴` (paper §3.4: "we
/// also normalize these metrics to make [them] less than 1.0 for
/// highlighting the relative difference").
///
/// Dimensions that are zero everywhere stay zero.
pub fn normalize_behaviors(raw: &[RawBehavior]) -> Vec<BehaviorVector> {
    let mut max = [0.0f64; DIMS];
    for r in raw {
        for (m, c) in max.iter_mut().zip(r.components()) {
            *m = m.max(c);
        }
    }
    raw.iter()
        .map(|r| {
            let c = r.components();
            BehaviorVector(std::array::from_fn(|i| {
                if max[i] > 0.0 {
                    c[i] / max[i]
                } else {
                    0.0
                }
            }))
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use graphmine_engine::IterationStats;

    fn trace() -> RunTrace {
        RunTrace {
            num_vertices: 10,
            num_edges: 5,
            iterations: vec![
                IterationStats {
                    active: 10,
                    updates: 10,
                    edge_reads: 20,
                    messages: 5,
                    apply_ns: 1000,
                    apply_ops: 100,
                    remote_edge_reads: 0,
                    remote_messages: 0,
                    frontier_density: 1.0,
                    ..IterationStats::default()
                },
                IterationStats {
                    active: 2,
                    updates: 2,
                    edge_reads: 4,
                    messages: 1,
                    apply_ns: 200,
                    apply_ops: 20,
                    remote_edge_reads: 0,
                    remote_messages: 0,
                    frontier_density: 0.2,
                    ..IterationStats::default()
                },
            ],
            converged: true,
        }
    }

    #[test]
    fn from_trace_per_edge() {
        let r = RawBehavior::from_trace(&trace(), WorkMetric::LogicalOps);
        assert_eq!(r.updt, 6.0 / 5.0);
        assert_eq!(r.eread, 12.0 / 5.0);
        assert_eq!(r.msg, 3.0 / 5.0);
        assert_eq!(r.work, 60.0 / 5.0);
    }

    #[test]
    fn work_metric_selection() {
        let ns = RawBehavior::from_trace(&trace(), WorkMetric::WallNanos);
        assert_eq!(ns.work, 600.0 / 5.0);
    }

    #[test]
    fn normalization_hits_one_per_dimension() {
        let raw = vec![
            RawBehavior {
                updt: 2.0,
                work: 1.0,
                eread: 8.0,
                msg: 0.0,
            },
            RawBehavior {
                updt: 1.0,
                work: 4.0,
                eread: 2.0,
                msg: 0.0,
            },
        ];
        let norm = normalize_behaviors(&raw);
        assert_eq!(norm[0].0, [1.0, 0.25, 1.0, 0.0]);
        assert_eq!(norm[1].0, [0.5, 1.0, 0.25, 0.0]);
    }

    #[test]
    fn all_zero_dimension_stays_zero() {
        let raw = vec![RawBehavior {
            updt: 0.0,
            work: 0.0,
            eread: 0.0,
            msg: 0.0,
        }];
        let norm = normalize_behaviors(&raw);
        assert_eq!(norm[0].0, [0.0; 4]);
    }

    #[test]
    fn distance_is_euclidean() {
        let a = BehaviorVector([0.0, 0.0, 0.0, 0.0]);
        let b = BehaviorVector([1.0, 1.0, 1.0, 1.0]);
        assert!((a.distance(&b) - 2.0).abs() < 1e-12);
        assert_eq!(a.distance(&a), 0.0);
        assert!((a.distance_to_point(&[0.0, 3.0, 4.0, 0.0]) - 5.0).abs() < 1e-12);
    }

    #[test]
    fn normalized_values_bounded() {
        let raw: Vec<RawBehavior> = (0..20)
            .map(|i| RawBehavior {
                updt: i as f64,
                work: (i * 7 % 13) as f64,
                eread: (i * 3 % 5) as f64,
                msg: (i % 4) as f64,
            })
            .collect();
        for v in normalize_behaviors(&raw) {
            assert!(v.0.iter().all(|&x| (0.0..=1.0).contains(&x)));
        }
    }
}
