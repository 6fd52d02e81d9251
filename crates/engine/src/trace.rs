//! Per-iteration behavior traces — the raw material of the paper's metrics.

use serde::{Deserialize, Serialize};

/// The physical strategy that executed an iteration's scatter/exchange:
/// `Push` walks the out-edges of active vertices; `Pull` walks the
/// in-edges of destination vertices. Both deliver the identical logical
/// message stream (same combine order), so the choice is an execution
/// detail — recorded for performance analysis, projected away by
/// [`IterationStats::normalized`] for parity comparisons.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub enum DirectionChoice {
    /// Active vertices scattered along out-edges into the inbox.
    #[default]
    Push,
    /// Destination vertices gathered messages over their in-edges.
    Pull,
}

/// Counters recorded for one synchronous GAS iteration.
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize, Deserialize)]
pub struct IterationStats {
    /// Vertices active at the start of the iteration.
    pub active: u64,
    /// Vertex updates performed (apply calls) — UPDT numerator.
    pub updates: u64,
    /// Edge reads performed during gather — EREAD numerator.
    pub edge_reads: u64,
    /// Messages sent during scatter (pre-combining) — MSG numerator.
    pub messages: u64,
    /// Nanoseconds spent in apply — WORK numerator. The synchronous and
    /// edge-centric executors read the clock once per apply task (a
    /// chunk's apply loop, after any state sync) and sum over tasks, so
    /// this is CPU time summed over threads and includes the loop's own
    /// slot takes and active tests.
    pub apply_ns: u64,
    /// Logical work units reported by apply (deterministic WORK proxy).
    pub apply_ops: u64,
    /// Edge reads whose neighbor lives on another partition (only counted
    /// when the run is given a partitioning — the cluster simulation).
    #[serde(default)]
    pub remote_edge_reads: u64,
    /// Messages crossing a partition boundary (cluster simulation).
    #[serde(default)]
    pub remote_messages: u64,
    /// Active fraction at the start of the iteration (`active / |V|`).
    /// Recorded so the benchmark layer can report which iterations a
    /// frontier-aware engine would run in sparse mode without re-deriving
    /// the graph size. Identical across executors and frontier modes.
    #[serde(default)]
    pub frontier_density: f64,
    /// Wall-clock nanoseconds in the gather phase (scheduling + user
    /// gather/merge calls). Non-deterministic, like `apply_ns`.
    #[serde(default)]
    pub gather_ns: u64,
    /// Wall-clock nanoseconds in the scatter + exchange phase.
    /// Non-deterministic, like `apply_ns`.
    #[serde(default)]
    pub scatter_ns: u64,
    /// Which direction executed this iteration's scatter/exchange. An
    /// execution-strategy field: differs between forced directions,
    /// projected away by [`IterationStats::normalized`].
    #[serde(default)]
    pub direction: DirectionChoice,
    /// Out-edge slots walked by the push scatter path this iteration.
    /// Execution-strategy field (see `direction`).
    #[serde(default)]
    pub push_edge_traversals: u64,
    /// In-edge slots walked by the pull scatter path this iteration.
    /// Execution-strategy field (see `direction`).
    #[serde(default)]
    pub pull_edge_traversals: u64,
}

impl IterationStats {
    /// The deterministic projection of these counters: every wall-clock
    /// field (`*_ns`) is zeroed and every execution-strategy field
    /// (`direction`, `push_edge_traversals`, `pull_edge_traversals`) is
    /// reset to its default, leaving exactly the logical behavior counters
    /// that must be bit-identical across thread counts, frontier modes,
    /// scatter directions, and checkpoint/resume boundaries.
    ///
    /// The body destructures the struct exhaustively *without* `..` on
    /// purpose: adding a field to [`IterationStats`] without classifying it
    /// here (kept, zeroed, or defaulted) is a compile error, so a new
    /// timing or strategy counter can never silently leak into bitwise
    /// parity comparisons.
    pub fn normalized(&self) -> IterationStats {
        let IterationStats {
            active,
            updates,
            edge_reads,
            messages,
            apply_ns: _,
            apply_ops,
            remote_edge_reads,
            remote_messages,
            frontier_density,
            gather_ns: _,
            scatter_ns: _,
            direction: _,
            push_edge_traversals: _,
            pull_edge_traversals: _,
        } = *self;
        IterationStats {
            active,
            updates,
            edge_reads,
            messages,
            apply_ns: 0,
            apply_ops,
            remote_edge_reads,
            remote_messages,
            frontier_density,
            gather_ns: 0,
            scatter_ns: 0,
            direction: DirectionChoice::default(),
            push_edge_traversals: 0,
            pull_edge_traversals: 0,
        }
    }
}

/// The complete record of one graph-computation run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RunTrace {
    /// Number of vertices in the input graph.
    pub num_vertices: u64,
    /// Number of edges in the input graph.
    pub num_edges: u64,
    /// One entry per executed iteration.
    pub iterations: Vec<IterationStats>,
    /// True when the run ended by vote-to-halt or program convergence
    /// (false when the iteration cap stopped it).
    pub converged: bool,
}

impl RunTrace {
    /// Number of iterations executed.
    pub fn num_iterations(&self) -> usize {
        self.iterations.len()
    }

    /// Active fraction per iteration (paper metric 1).
    pub fn active_fraction(&self) -> Vec<f64> {
        let n = self.num_vertices.max(1) as f64;
        self.iterations
            .iter()
            .map(|it| it.active as f64 / n)
            .collect()
    }

    fn mean(&self, f: impl Fn(&IterationStats) -> u64) -> f64 {
        if self.iterations.is_empty() {
            return 0.0;
        }
        let total: u64 = self.iterations.iter().map(f).sum();
        total as f64 / self.iterations.len() as f64
    }

    /// UPDT: average vertex updates per iteration (paper metric 2).
    pub fn updt(&self) -> f64 {
        self.mean(|it| it.updates)
    }

    /// WORK: average apply CPU time per iteration, in nanoseconds
    /// (paper metric 3).
    pub fn work_ns(&self) -> f64 {
        self.mean(|it| it.apply_ns)
    }

    /// Deterministic WORK proxy: average logical apply ops per iteration.
    pub fn work_ops(&self) -> f64 {
        self.mean(|it| it.apply_ops)
    }

    /// EREAD: average edge reads per iteration (paper metric 4).
    pub fn eread(&self) -> f64 {
        self.mean(|it| it.edge_reads)
    }

    /// MSG: average messages per iteration (paper metric 5).
    pub fn msg(&self) -> f64 {
        self.mean(|it| it.messages)
    }

    /// Average remote edge reads per iteration (cluster simulation).
    pub fn remote_eread(&self) -> f64 {
        self.mean(|it| it.remote_edge_reads)
    }

    /// Average remote messages per iteration (cluster simulation).
    pub fn remote_msg(&self) -> f64 {
        self.mean(|it| it.remote_messages)
    }

    /// Frontier density per iteration, as recorded by the engine (equal to
    /// [`RunTrace::active_fraction`] for engines that populate it).
    pub fn frontier_density(&self) -> Vec<f64> {
        self.iterations
            .iter()
            .map(|it| it.frontier_density)
            .collect()
    }

    /// Number of iterations whose frontier density was below `threshold` —
    /// the iterations an adaptive engine runs on the compact active list.
    pub fn sparse_iterations(&self, threshold: f64) -> usize {
        self.iterations
            .iter()
            .filter(|it| it.frontier_density < threshold)
            .count()
    }

    /// A copy with every wall-clock counter (`apply_ns`, `gather_ns`,
    /// `scatter_ns`) zeroed and every execution-strategy field reset (see
    /// [`IterationStats::normalized`]). All remaining counters are
    /// deterministic, so two runs of the same computation — across thread
    /// counts, frontier modes, forced scatter directions, or a
    /// checkpoint-resumed continuation versus the uninterrupted run — must
    /// compare equal under this projection.
    pub fn without_wall_clock(&self) -> RunTrace {
        RunTrace {
            num_vertices: self.num_vertices,
            num_edges: self.num_edges,
            iterations: self
                .iterations
                .iter()
                .map(IterationStats::normalized)
                .collect(),
            converged: self.converged,
        }
    }

    /// Mean active fraction across the whole run.
    pub fn mean_active_fraction(&self) -> f64 {
        if self.iterations.is_empty() {
            return 0.0;
        }
        self.active_fraction().iter().sum::<f64>() / self.iterations.len() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn stats(active: u64, updates: u64, ereads: u64, msgs: u64, ops: u64) -> IterationStats {
        IterationStats {
            active,
            updates,
            edge_reads: ereads,
            messages: msgs,
            apply_ns: ops * 10,
            apply_ops: ops,
            remote_edge_reads: 0,
            remote_messages: 0,
            frontier_density: active as f64 / 10.0,
            gather_ns: ops * 3,
            scatter_ns: ops * 5,
            direction: DirectionChoice::Push,
            push_edge_traversals: msgs,
            pull_edge_traversals: 0,
        }
    }

    fn sample_trace() -> RunTrace {
        RunTrace {
            num_vertices: 10,
            num_edges: 20,
            iterations: vec![stats(10, 10, 40, 15, 100), stats(5, 5, 20, 5, 50)],
            converged: true,
        }
    }

    #[test]
    fn averages() {
        let t = sample_trace();
        assert_eq!(t.num_iterations(), 2);
        assert_eq!(t.updt(), 7.5);
        assert_eq!(t.eread(), 30.0);
        assert_eq!(t.msg(), 10.0);
        assert_eq!(t.work_ops(), 75.0);
        assert_eq!(t.work_ns(), 750.0);
    }

    #[test]
    fn active_fraction_series() {
        let t = sample_trace();
        assert_eq!(t.active_fraction(), vec![1.0, 0.5]);
        assert_eq!(t.mean_active_fraction(), 0.75);
    }

    #[test]
    fn frontier_density_series() {
        let t = sample_trace();
        assert_eq!(t.frontier_density(), vec![1.0, 0.5]);
        assert_eq!(t.sparse_iterations(0.75), 1);
        assert_eq!(t.sparse_iterations(0.25), 0);
    }

    #[test]
    fn old_traces_deserialize_with_zero_density() {
        // Traces persisted before the frontier work lack the field; serde
        // must default it rather than reject the document.
        let json = r#"{"active":3,"updates":3,"edge_reads":0,"messages":2,
                       "apply_ns":0,"apply_ops":3}"#;
        let it: IterationStats = serde_json::from_str(json).unwrap();
        assert_eq!(it.frontier_density, 0.0);
        assert_eq!(it.remote_messages, 0);
        // Pre-direction traces likewise default the phase timings and the
        // execution-strategy fields.
        assert_eq!(it.gather_ns, 0);
        assert_eq!(it.scatter_ns, 0);
        assert_eq!(it.direction, DirectionChoice::Push);
        assert_eq!(it.push_edge_traversals, 0);
        assert_eq!(it.pull_edge_traversals, 0);
    }

    /// Reflection guard for the wall-clock contract: serialize a fully
    /// populated sample through [`IterationStats::normalized`] and check
    /// every `*_ns` JSON key landed on zero. A new timing field that is
    /// added to the struct but not classified in `normalized` fails to
    /// compile (exhaustive destructure); one that is classified as "kept"
    /// by mistake fails here.
    #[test]
    fn normalized_zeroes_every_timing_field() {
        let it = stats(10, 10, 40, 15, 100);
        let raw = serde_json::to_value(it).unwrap();
        let timing_keys: Vec<String> = raw
            .as_object()
            .unwrap()
            .keys()
            .filter(|k| k.ends_with("_ns"))
            .cloned()
            .collect();
        assert!(
            timing_keys.len() >= 3,
            "expected apply/gather/scatter timings, found {timing_keys:?}"
        );
        // The sample must exercise the guard: every timing field nonzero
        // before normalization.
        for key in &timing_keys {
            assert_ne!(raw[key].as_u64(), Some(0), "sample leaves {key} zero");
        }
        let projected = serde_json::to_value(it.normalized()).unwrap();
        for key in &timing_keys {
            assert_eq!(
                projected[key].as_u64(),
                Some(0),
                "normalized() left wall-clock field {key} nonzero"
            );
        }
    }

    #[test]
    fn normalized_erases_execution_strategy() {
        let mut push = stats(10, 10, 40, 15, 100);
        push.direction = DirectionChoice::Push;
        push.push_edge_traversals = 15;
        push.pull_edge_traversals = 0;
        let mut pull = stats(10, 10, 40, 15, 100);
        pull.direction = DirectionChoice::Pull;
        pull.push_edge_traversals = 0;
        pull.pull_edge_traversals = 40;
        // Same logical iteration executed by opposite strategies must be
        // indistinguishable after projection.
        assert_ne!(push, pull);
        assert_eq!(push.normalized(), pull.normalized());
    }

    #[test]
    fn empty_trace_is_all_zero() {
        let t = RunTrace {
            num_vertices: 4,
            num_edges: 3,
            iterations: vec![],
            converged: false,
        };
        assert_eq!(t.updt(), 0.0);
        assert_eq!(t.eread(), 0.0);
        assert_eq!(t.mean_active_fraction(), 0.0);
    }

    #[test]
    fn serde_round_trip() {
        let t = sample_trace();
        let json = serde_json::to_string(&t).unwrap();
        let back: RunTrace = serde_json::from_str(&json).unwrap();
        assert_eq!(t, back);
    }
}
