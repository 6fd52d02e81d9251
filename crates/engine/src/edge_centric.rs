//! An edge-centric executor — the X-Stream model the paper cites in §3.3.
//!
//! "There are also other computation models used in current graph-processing
//! systems (edge-centric model [20] …), but the basic behavior of graph
//! computation is conserved." This executor demonstrates exactly that: it
//! runs the *same* [`VertexProgram`]s with identical synchronous semantics,
//! but drives every phase by **streaming the edge list** instead of walking
//! CSR adjacency rows:
//!
//! * gather: one sequential sweep over all edges, folding each edge's
//!   contribution into its endpoint accumulators (X-Stream's
//!   "edge-scatter/update-gather" pattern with perfect streaming locality);
//! * apply: rayon-parallel over vertices, as in the vertex-centric engine;
//! * scatter: a second edge sweep emitting messages.
//!
//! Results and behavior counters match [`SyncEngine`] exactly for
//! programs with order-insensitive combiners (min/max/integer sums — the
//! cross-executor tests enforce it), and up to floating-point reduction
//! order otherwise; only the memory access pattern — and
//! therefore the wall-clock profile — differs. Edge sweeps are sequential, which
//! is faithful to X-Stream's design point (sequential streaming bandwidth
//! over random access, not intra-partition parallelism).
//!
//! [`SyncEngine`]: crate::sync_engine::SyncEngine

use crate::program::{ActiveInit, ApplyInfo, EdgeSet, VertexProgram};
use crate::sync_engine::chunk_size;
use crate::trace::{IterationStats, RunTrace};
use graphmine_graph::{EdgeId, Graph, VertexId};
use rayon::prelude::*;
use std::time::Instant;

/// Configuration for the edge-centric executor.
#[derive(Debug, Clone)]
pub struct EdgeCentricConfig {
    /// Hard iteration cap.
    pub max_iterations: usize,
}

impl Default for EdgeCentricConfig {
    fn default() -> EdgeCentricConfig {
        EdgeCentricConfig {
            max_iterations: 10_000,
        }
    }
}

/// Whether an edge endpoint participates in a phase for direction `dir`.
///
/// In the vertex-centric engine a vertex visits its `Out` row; streaming
/// edge `(s, d)` of an undirected graph touches the rows of both endpoints
/// once each, and of a directed graph touches `s`'s out-row and `d`'s
/// in-row.
fn endpoint_roles(directed: bool, dir: EdgeSet) -> (bool, bool, bool, bool) {
    // (src_as_out, dst_as_in, src_as_in_rev, dst_as_out_rev):
    // undirected graphs treat the edge from both sides for any direction.
    match (directed, dir) {
        (_, EdgeSet::None) => (false, false, false, false),
        (false, _) => (true, true, false, false), // both endpoints, shared row
        (true, EdgeSet::Out) => (true, false, false, false),
        (true, EdgeSet::In) => (false, true, false, false),
        (true, EdgeSet::Both) => (true, true, false, false),
    }
}

/// Run a vertex program to convergence with edge-streaming phases.
///
/// Semantics match [`crate::SyncEngine::run`]; see the module docs.
pub fn edge_centric_run<P: VertexProgram>(
    graph: &Graph,
    program: &P,
    mut states: Vec<P::State>,
    edge_data: &[P::EdgeData],
    mut global: P::Global,
    config: &EdgeCentricConfig,
) -> (Vec<P::State>, RunTrace) {
    assert_eq!(states.len(), graph.num_vertices());
    assert_eq!(edge_data.len(), graph.num_edges());
    let n = graph.num_vertices();
    let mut trace = RunTrace {
        num_vertices: n as u64,
        num_edges: graph.num_edges() as u64,
        iterations: Vec::new(),
        converged: false,
    };
    if n == 0 {
        trace.converged = true;
        return (states, trace);
    }
    let mut active = vec![false; n];
    let mut active_count: u64;
    match program.initial_active() {
        ActiveInit::All => {
            active.iter_mut().for_each(|a| *a = true);
            active_count = n as u64;
        }
        ActiveInit::Vertices(vs) => {
            for v in &vs {
                active[*v as usize] = true;
            }
            active_count = active.iter().filter(|&&a| a).count() as u64;
        }
    }
    // Run-lifetime scratch, mirroring the vertex-centric engine: the
    // accumulator table and both inbox buffers return to all-`None` each
    // iteration (apply `take`s exactly the slots gather/scatter filled), so
    // none of them is reallocated or cleared per iteration, and the
    // previous-state snapshot buffer is reused via `clone_from_slice`.
    let mut accums: Vec<Option<P::Accum>> = (0..n).map(|_| None).collect();
    let mut inbox: Vec<Option<P::Message>> = (0..n).map(|_| None).collect();
    let mut next_inbox: Vec<Option<P::Message>> = (0..n).map(|_| None).collect();
    let mut prev_states = states.clone();
    let cs = chunk_size(n);

    for iter in 0..config.max_iterations {
        if active_count == 0 {
            trace.converged = true;
            break;
        }
        program.before_iteration(iter, &states, &mut global);

        // ---- Gather: stream the edge list once. ----
        let gather_dir = program.gather_edges();
        let mut edge_reads = 0u64;
        if gather_dir != EdgeSet::None {
            let (src_out, dst_in, _, _) = endpoint_roles(graph.is_directed(), gather_dir);
            for (e, &(s, d)) in graph.edge_list().iter().enumerate() {
                let e = e as EdgeId;
                if src_out && active[s as usize] {
                    edge_reads += 1;
                    let contrib = program.gather(
                        graph,
                        s,
                        e,
                        d,
                        &states[s as usize],
                        &states[d as usize],
                        &edge_data[e as usize],
                        &global,
                    );
                    match &mut accums[s as usize] {
                        Some(a) => program.merge(a, contrib),
                        slot @ None => *slot = Some(contrib),
                    }
                }
                if dst_in && active[d as usize] {
                    edge_reads += 1;
                    let contrib = program.gather(
                        graph,
                        d,
                        e,
                        s,
                        &states[d as usize],
                        &states[s as usize],
                        &edge_data[e as usize],
                        &global,
                    );
                    match &mut accums[d as usize] {
                        Some(a) => program.merge(a, contrib),
                        slot @ None => *slot = Some(contrib),
                    }
                }
            }
        }

        // ---- Apply (parallel over vertices, like the vertex engine). ----
        // Apply consumes each active vertex's accumulator *and* inbox
        // message, leaving both scratch tables all-`None` for the next
        // iteration without a clearing pass.
        prev_states
            .par_chunks_mut(cs)
            .zip(states.par_chunks(cs))
            .for_each(|(dst, src)| dst.clone_from_slice(src));
        let active_ref = &active;
        let (apply_ns, apply_ops) = states
            .par_chunks_mut(cs)
            .zip(accums.par_chunks_mut(cs))
            .zip(inbox.par_chunks_mut(cs))
            .enumerate()
            .map(|(ci, ((state_chunk, acc_chunk), inbox_chunk))| {
                let base = ci * cs;
                let mut ops = 0u64;
                // One clock pair per chunk, like `SyncEngine`'s apply tasks,
                // so WORK(ns) is comparable across the two executors.
                let t0 = Instant::now();
                for (off, ((slot, acc), msg)) in state_chunk
                    .iter_mut()
                    .zip(acc_chunk.iter_mut())
                    .zip(inbox_chunk.iter_mut())
                    .enumerate()
                {
                    let v = (base + off) as VertexId;
                    if !active_ref[v as usize] {
                        continue;
                    }
                    let mut info = ApplyInfo::default();
                    let msg = msg.take();
                    program.apply(v, slot, acc.take(), msg.as_ref(), &global, &mut info);
                    ops += info.ops;
                }
                (t0.elapsed().as_nanos() as u64, ops)
            })
            .reduce(|| (0, 0), |a, b| (a.0 + b.0, a.1 + b.1));

        // ---- Scatter: second edge stream. ----
        let scatter_dir = program.scatter_edges();
        let mut messages = 0u64;
        if scatter_dir != EdgeSet::None {
            let (src_out, dst_in, _, _) = endpoint_roles(graph.is_directed(), scatter_dir);
            let mut deliver = |from: VertexId, to: VertexId, e: EdgeId| {
                if let Some(m) = program.scatter(
                    graph,
                    from,
                    e,
                    to,
                    &states[from as usize],
                    &prev_states[to as usize],
                    &edge_data[e as usize],
                    &global,
                ) {
                    messages += 1;
                    match &mut next_inbox[to as usize] {
                        Some(existing) => program.combine(existing, m),
                        slot @ None => *slot = Some(m),
                    }
                }
            };
            for (e, &(s, d)) in graph.edge_list().iter().enumerate() {
                let e = e as EdgeId;
                if src_out && active[s as usize] {
                    deliver(s, d, e);
                }
                if dst_in && active[d as usize] {
                    deliver(d, s, e);
                }
            }
        }
        std::mem::swap(&mut inbox, &mut next_inbox);
        trace.iterations.push(IterationStats {
            active: active_count,
            updates: active_count,
            edge_reads,
            messages,
            apply_ns,
            apply_ops,
            remote_edge_reads: 0,
            remote_messages: 0,
            frontier_density: active_count as f64 / n as f64,
            ..IterationStats::default()
        });

        if program.always_active() {
            active.iter_mut().for_each(|a| *a = true);
            active_count = n as u64;
        } else {
            // Fold the activation scan and the next iteration's active
            // count into one pass (no separate O(n) count).
            let mut count = 0u64;
            for (a, m) in active.iter_mut().zip(inbox.iter()) {
                *a = m.is_some();
                count += *a as u64;
            }
            active_count = count;
        }
        if program.should_halt(iter, &states, &global) {
            trace.converged = true;
            break;
        }
    }
    (states, trace)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::program::NoGlobal;
    use crate::sync_engine::{ExecutionConfig, SyncEngine};
    use graphmine_graph::GraphBuilder;

    struct MinLabel;

    impl VertexProgram for MinLabel {
        type State = u32;
        type EdgeData = ();
        type Accum = ();
        type Message = u32;
        type Global = NoGlobal;

        fn gather_edges(&self) -> EdgeSet {
            EdgeSet::None
        }
        fn scatter_edges(&self) -> EdgeSet {
            EdgeSet::Out
        }
        fn apply(
            &self,
            _v: VertexId,
            state: &mut u32,
            _acc: Option<()>,
            msg: Option<&u32>,
            _g: &NoGlobal,
            info: &mut ApplyInfo,
        ) {
            info.ops += 1;
            if let Some(&m) = msg {
                if m < *state {
                    *state = m;
                }
            }
        }
        fn scatter(
            &self,
            _graph: &Graph,
            _v: VertexId,
            _e: EdgeId,
            _nbr: VertexId,
            state: &u32,
            nbr_state: &u32,
            _edge: &(),
            _g: &NoGlobal,
        ) -> Option<u32> {
            (state < nbr_state).then_some(*state)
        }
        fn combine(&self, into: &mut u32, from: u32) {
            *into = (*into).min(from);
        }
    }

    struct NeighborSum;

    impl VertexProgram for NeighborSum {
        type State = u64;
        type EdgeData = ();
        type Accum = u64;
        type Message = ();
        type Global = NoGlobal;

        fn gather_edges(&self) -> EdgeSet {
            EdgeSet::Out
        }
        fn scatter_edges(&self) -> EdgeSet {
            EdgeSet::None
        }
        fn always_active(&self) -> bool {
            true
        }
        fn gather(
            &self,
            _g: &Graph,
            _v: VertexId,
            _e: EdgeId,
            _n: VertexId,
            _vs: &u64,
            ns: &u64,
            _ed: &(),
            _gl: &NoGlobal,
        ) -> u64 {
            *ns
        }
        fn merge(&self, a: &mut u64, b: u64) {
            *a += b;
        }
        fn apply(
            &self,
            _v: VertexId,
            state: &mut u64,
            acc: Option<u64>,
            _m: Option<&()>,
            _g: &NoGlobal,
            info: &mut ApplyInfo,
        ) {
            info.ops += 1;
            *state = acc.unwrap_or(0);
        }
        fn should_halt(&self, iter: usize, _s: &[u64], _g: &NoGlobal) -> bool {
            iter >= 2
        }
    }

    fn lollipop() -> Graph {
        GraphBuilder::undirected(5)
            .edge(0, 1)
            .edge(1, 2)
            .edge(2, 0)
            .edge(2, 3)
            .edge(3, 4)
            .build()
    }

    fn strip(t: &RunTrace) -> Vec<IterationStats> {
        t.iterations
            .iter()
            .map(IterationStats::normalized)
            .collect()
    }

    #[test]
    fn matches_vertex_engine_on_min_label() {
        let g = lollipop();
        let states: Vec<u32> = vec![4, 3, 2, 1, 0];
        let (ec_states, ec_trace) = edge_centric_run(
            &g,
            &MinLabel,
            states.clone(),
            &vec![(); g.num_edges()],
            NoGlobal,
            &EdgeCentricConfig::default(),
        );
        let (vc_states, vc_trace) = SyncEngine::new(&g, MinLabel, states, &vec![(); g.num_edges()])
            .run(&ExecutionConfig::default());
        assert_eq!(ec_states, vc_states);
        assert_eq!(strip(&ec_trace), strip(&vc_trace));
    }

    #[test]
    fn matches_vertex_engine_on_gather_program() {
        let g = lollipop();
        let states: Vec<u64> = vec![1, 10, 100, 1000, 10000];
        let (ec_states, ec_trace) = edge_centric_run(
            &g,
            &NeighborSum,
            states.clone(),
            &vec![(); g.num_edges()],
            NoGlobal,
            &EdgeCentricConfig::default(),
        );
        let (vc_states, vc_trace) =
            SyncEngine::new(&g, NeighborSum, states, &vec![(); g.num_edges()])
                .run(&ExecutionConfig::default());
        assert_eq!(ec_states, vc_states);
        assert_eq!(strip(&ec_trace), strip(&vc_trace));
    }

    #[test]
    fn directed_gather_uses_requested_direction() {
        // Directed path 0→1→2 with gather over Out edges: vertex 0 sees
        // vertex 1's value; vertex 2 sees nothing.
        let g = GraphBuilder::directed(3).edge(0, 1).edge(1, 2).build();
        let (finals, _) = edge_centric_run(
            &g,
            &NeighborSum,
            vec![5, 7, 9],
            &[(); 2],
            NoGlobal,
            &EdgeCentricConfig::default(),
        );
        // One iteration: 0 ← 7, 1 ← 9, 2 ← 0; then two more iterations.
        // Just check the first-iteration semantics via a 1-iteration run.
        let (one, _) = edge_centric_run(
            &g,
            &NeighborSum,
            vec![5, 7, 9],
            &[(); 2],
            NoGlobal,
            &EdgeCentricConfig { max_iterations: 1 },
        );
        assert_eq!(one, vec![7, 9, 0]);
        let _ = finals;
    }

    #[test]
    fn empty_graph() {
        let g = GraphBuilder::undirected(0).build();
        let (finals, trace) = edge_centric_run(
            &g,
            &MinLabel,
            vec![],
            &[],
            NoGlobal,
            &EdgeCentricConfig::default(),
        );
        assert!(finals.is_empty());
        assert!(trace.converged);
    }

    #[test]
    fn iteration_cap() {
        let g = lollipop();
        let (_, trace) = edge_centric_run(
            &g,
            &NeighborSum,
            vec![1; 5],
            &vec![(); g.num_edges()],
            NoGlobal,
            &EdgeCentricConfig { max_iterations: 2 },
        );
        assert_eq!(trace.num_iterations(), 2);
        assert!(!trace.converged);
    }
}
