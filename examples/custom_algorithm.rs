//! Implement a *custom* vertex program against the public engine API and
//! place it in the behavior space next to the built-in suite — the paper's
//! "basic algorithm analysis" use case (§5.1).
//!
//! The custom program is label-propagation community detection (LPA):
//! every vertex adopts its neighborhood's most frequent label.
//!
//! ```text
//! cargo run --release -p graphmine-examples --bin custom_algorithm
//! ```

use graphmine_algos::{run_algorithm, AlgorithmKind, SuiteConfig, Workload};
use graphmine_core::{normalize_behaviors, RawBehavior, WorkMetric};
use graphmine_engine::{ApplyInfo, EdgeSet, ExecutionConfig, NoGlobal, SyncEngine, VertexProgram};
use graphmine_graph::{EdgeId, Graph, VertexId};
use std::collections::HashMap;

/// Label-propagation community detection.
struct LabelPropagation;

/// Vertex state: current community label + whether the last apply changed.
#[derive(Clone, Copy)]
struct LpaState {
    label: u32,
    changed: bool,
}

impl VertexProgram for LabelPropagation {
    type State = LpaState;
    type EdgeData = ();
    /// Neighbor label histogram.
    type Accum = HashMap<u32, u32>;
    type Message = ();
    type Global = NoGlobal;

    fn gather_edges(&self) -> EdgeSet {
        EdgeSet::Out
    }
    fn scatter_edges(&self) -> EdgeSet {
        EdgeSet::Out
    }

    fn gather(
        &self,
        _graph: &Graph,
        _v: VertexId,
        _e: EdgeId,
        _nbr: VertexId,
        _v_state: &LpaState,
        nbr_state: &LpaState,
        _edge: &(),
        _g: &NoGlobal,
    ) -> HashMap<u32, u32> {
        HashMap::from([(nbr_state.label, 1)])
    }

    fn merge(&self, into: &mut HashMap<u32, u32>, from: HashMap<u32, u32>) {
        for (label, count) in from {
            *into.entry(label).or_insert(0) += count;
        }
    }

    fn apply(
        &self,
        _v: VertexId,
        state: &mut LpaState,
        acc: Option<HashMap<u32, u32>>,
        _msg: Option<&()>,
        _g: &NoGlobal,
        info: &mut ApplyInfo,
    ) {
        let Some(histogram) = acc else {
            state.changed = false;
            return;
        };
        info.ops += histogram.len() as u64;
        // Most frequent neighbor label; ties break toward the smaller label
        // for determinism.
        let best = histogram
            .iter()
            .map(|(&l, &c)| (c, std::cmp::Reverse(l)))
            .max()
            .map(|(_, std::cmp::Reverse(l))| l)
            .unwrap_or(state.label);
        state.changed = best != state.label;
        state.label = best;
    }

    fn scatter(
        &self,
        _graph: &Graph,
        _v: VertexId,
        _e: EdgeId,
        _nbr: VertexId,
        state: &LpaState,
        _nbr_state: &LpaState,
        _edge: &(),
        _g: &NoGlobal,
    ) -> Option<()> {
        state.changed.then_some(())
    }

    fn combine(&self, _into: &mut (), _from: ()) {}
}

fn main() {
    let workload = Workload::powerlaw(30_000, 2.5, 123);
    let graph = workload.graph();

    // Run the custom program on the public engine API.
    let states: Vec<LpaState> = graph
        .vertices()
        .map(|v| LpaState {
            label: v,
            changed: true,
        })
        .collect();
    // The engine borrows per-edge data; LPA has none, so a unit slice.
    let edge_data = vec![(); graph.num_edges()];
    let engine = SyncEngine::new(graph, LabelPropagation, states, &edge_data);
    let (finals, lpa_trace) = engine.run(&ExecutionConfig::with_max_iterations(100));
    let mut communities: Vec<u32> = finals.iter().map(|s| s.label).collect();
    communities.sort_unstable();
    communities.dedup();
    println!(
        "LPA: {} iterations, {} communities found on {} vertices",
        lpa_trace.num_iterations(),
        communities.len(),
        graph.num_vertices()
    );

    // Place LPA in the behavior space next to the built-in GA suite.
    let config = SuiteConfig {
        exec: ExecutionConfig::with_max_iterations(100),
        ..SuiteConfig::default()
    };
    let mut raw = vec![RawBehavior::from_trace(&lpa_trace, WorkMetric::WallNanos)];
    let mut names = vec!["LPA (custom)".to_string()];
    for alg in [
        AlgorithmKind::Cc,
        AlgorithmKind::Kc,
        AlgorithmKind::Tc,
        AlgorithmKind::Sssp,
        AlgorithmKind::Pr,
        AlgorithmKind::Ad,
        AlgorithmKind::Km,
    ] {
        let trace = run_algorithm(alg, &workload, &config).expect("GA workload");
        raw.push(RawBehavior::from_trace(&trace, WorkMetric::WallNanos));
        names.push(alg.abbrev().to_string());
    }
    let behaviors = normalize_behaviors(&raw);
    println!("\nnormalized behavior vectors <UPDT, WORK, EREAD, MSG>:");
    for (name, b) in names.iter().zip(behaviors.iter()) {
        println!(
            "  {:<13} [{:.3} {:.3} {:.3} {:.3}]",
            name, b.0[0], b.0[1], b.0[2], b.0[3]
        );
    }
    // Who does LPA behave most like?
    let (nearest, d) = behaviors[1..]
        .iter()
        .enumerate()
        .map(|(i, b)| (i + 1, behaviors[0].distance(b)))
        .min_by(|a, b| a.1.partial_cmp(&b.1).unwrap())
        .unwrap();
    println!(
        "\nLPA's nearest behavioral neighbor: {} (distance {:.3})\n\
         → a benchmark suite already containing {} gains little from adding LPA.",
        names[nearest], d, names[nearest]
    );
}
