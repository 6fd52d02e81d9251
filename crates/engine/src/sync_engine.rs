//! The synchronous BSP executor.
//!
//! One [`SyncEngine::run`] call executes the paper's synchronous mode
//! (§3.1): the Gather, Apply, and Scatter phases are performed without
//! overlap, each data-parallel over fixed-size vertex chunks. Double
//! buffering gives gather/scatter a consistent snapshot of the previous
//! iteration while apply writes the next one.
//!
//! # Frontier-aware sparse execution
//!
//! The paper's behavior series (§4) exist because the active fraction
//! varies by orders of magnitude over a run; this engine makes the
//! *per-iteration cost* track that variation instead of paying dense O(|V|)
//! sweeps regardless of how few vertices are active. The active set is kept
//! in two interchangeable forms — a dense bitmap and a compact sorted
//! vertex list grouped by chunk — and each iteration picks one
//! ([`FrontierMode::Adaptive`]): below [`SPARSE_FRONTIER_THRESHOLD`] the
//! three phases visit only the chunks that contain active vertices; above
//! it they sweep every chunk like a classic BSP engine.
//!
//! The per-iteration cost model is therefore
//!
//! * sparse mode: `O(|F| + deg(F) + M)` where `F` is the frontier, `deg(F)`
//!   its incident-edge count, and `M` the messages sent — plus
//!   `O(num_chunks)` pointer arithmetic to locate active chunks;
//! * dense mode: `O(|V| + deg(F) + M)`, the seed engine's shape, chosen
//!   exactly when `|F|` is already a sizable fraction of `|V|`.
//!
//! Supporting invariants keep both paths allocation-light:
//!
//! * the gather accumulator table and the message inbox are scratch buffers
//!   owned for the whole run; apply *takes* each active vertex's
//!   accumulator and message, so both buffers return to all-`None` without
//!   any O(|V|) clearing pass;
//! * `next_states` is re-synchronized with `states` lazily — only the
//!   vertices rewritten by the previous apply are copied back
//!   ([`PendingSync`]), not the whole state vector;
//! * scatter buckets outgoing messages by destination chunk and the
//!   exchange combines each destination chunk in parallel, always in the
//!   same fixed order (source chunk ascending, then emission order), so
//!   floating-point message reductions are bit-identical across thread
//!   counts, the sequential fallback, and both frontier modes;
//! * the push scatter and exchange run in ascending waves of source chunks
//!   of at most |V| planned edge work each, so the outboxes hold one
//!   wave's messages rather than a whole round's — the engine's working
//!   memory follows |V|, not |E| or the round's message count;
//! * the engine borrows the per-edge data (`&[P::EdgeData]`) instead of
//!   owning a copy of the input's edge columns;
//! * scatter, exchange and pull run as work-balanced tasks over runs of
//!   consecutive chunks (`task_plan`), each borrowing its buffers from
//!   run-lifetime scratch — the plan follows the pool size, the results
//!   do not.
//!
//! Behavior counters (UPDATE/EREAD/MESSAGE, their remote variants, and
//! `apply_ops`) are byte-for-byte identical between the sparse and dense
//! paths: both issue exactly the same per-vertex program calls and differ
//! only in how they find the active vertices.
//!
//! # Direction-optimizing scatter (push vs pull)
//!
//! The scatter/exchange phase additionally supports two dataflow
//! directions ([`DirectionMode`]):
//!
//! * **Push** (the classic path): active vertices walk their out-edges,
//!   emit messages into per-task outboxes, and a separate exchange pass
//!   merges the outboxes into the inbox. Cost tracks the frontier's summed
//!   out-degree — ideal for sparse frontiers.
//! * **Pull**: destination vertices walk their *in*-edges and evaluate the
//!   same `scatter` calls for the active sources they find, combining
//!   directly into their own inbox slot. Cost tracks the total in-slot
//!   count but needs no outbox allocation, no bucketing sort, and touches
//!   each inbox cache line exactly once — ideal for dense frontiers.
//!
//! [`DirectionMode::Auto`] picks per iteration from a cost model over the
//! frontier's summed out-degree (maintained incrementally via the CSR
//! prefix-degree index) against the graph's total in-slots. Both paths
//! produce bit-identical traces on deduplicated builds: CSR rows are
//! source-ascending there ([`Graph::has_sorted_rows`]), so the pull path's
//! per-destination combine order (in-row order) equals the push exchange's
//! fixed order (source chunk ascending, then emission order) — for any
//! `combine`, order-sensitive ones included. `Auto` therefore considers
//! pull on sorted rows only, and stays on push elsewhere.

use crate::checkpoint::{
    read_latest_checkpoint, write_checkpoint_generation, CheckpointError, CheckpointPolicy,
    EngineCheckpoint, CHECKPOINT_FORMAT_VERSION,
};
use crate::fault::{FaultPlan, FaultSite};
use crate::program::{ActiveInit, ApplyInfo, EdgeSet, VertexProgram};
use crate::soa::{SlotChunk, SlotTable};
use crate::task_plan::{
    dest_chunk_counts, into_tasks, pooled, select_chunks_mut, select_slot_chunks_mut, split_runs,
    sum_tasks, wave_outboxes, ScatterScratch, TaskBounds,
};
use crate::trace::{DirectionChoice, IterationStats, RunTrace};
use graphmine_graph::{chunk_edge_spans, Direction, Graph, VertexId};
use rayon::prelude::*;
use serde::de::DeserializeOwned;
use serde::Serialize;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// What a run returns: the final vertex states, the final global value and
/// the behavior trace.
pub type RunOutput<P> = (
    Vec<<P as VertexProgram>::State>,
    <P as VertexProgram>::Global,
    RunTrace,
);

/// How the engine represents and walks the active set each iteration.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum FrontierMode {
    /// Decide per iteration from the frontier density: a compact sorted
    /// active-vertex list below [`SPARSE_FRONTIER_THRESHOLD`], a dense
    /// bitmap sweep otherwise.
    #[default]
    Adaptive,
    /// Always sweep the dense bitmap (the pre-frontier engine's behavior;
    /// kept selectable so benchmarks can measure the sparse path's gain).
    Dense,
    /// Always walk the sorted active-vertex list, whatever the density.
    Sparse,
}

/// Frontier density below which [`FrontierMode::Adaptive`] switches to the
/// compact active-list representation.
///
/// At 1/16 of the vertices active, the list path touches at most ~6% of the
/// chunk footprint the dense sweep would, comfortably amortizing its extra
/// indirection; above it the bitmap sweep's linear scans are cheaper than
/// maintaining per-chunk vertex lists.
pub const SPARSE_FRONTIER_THRESHOLD: f64 = 1.0 / 16.0;

/// Which side of an edge drives the scatter/exchange phase.
///
/// Only programs whose scatter set is `EdgeSet::Out` have a pull
/// formulation; for everything else (including scatter-free programs) the
/// engine silently stays on the push path whatever the mode says.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum DirectionMode {
    /// Decide per iteration from the cost model: pull when
    /// [`PULL_COST_FACTOR`] × the frontier's summed out-degree reaches the
    /// graph's total in-slot count, push otherwise. Pull is only considered
    /// when the graph has sorted adjacency rows, where it combines every
    /// destination's messages in push's order, so `Auto` never risks the
    /// bit-identity contract.
    #[default]
    Auto,
    /// Always scatter from active sources along out-edges (the classic
    /// path, and the fallback whenever pull does not apply).
    Push,
    /// Always gather at destinations over in-edges. Bit-identical to push
    /// on deduplicated builds ([`Graph::has_sorted_rows`]); on multigraph
    /// builds the combine order may differ for order-sensitive combiners.
    Pull,
}

/// `Auto` picks pull when `PULL_COST_FACTOR * deg_out(frontier) >=
/// total_in_slots`.
///
/// Push work is ~`deg_out(F)` edge visits plus outbox allocation, a stable
/// bucketing sort, and a second merge pass over every message; pull work is
/// a flat read of all in-slots with none of that machinery. The factor-3
/// discount on pull's apparent cost reflects the push path's per-message
/// overhead and matches the crossover observed in the `direction` benchmark
/// (frontiers above roughly a third of the edge mass run faster pulled).
pub const PULL_COST_FACTOR: u64 = 3;

/// Execution knobs.
#[derive(Debug, Clone)]
pub struct ExecutionConfig {
    /// Hard iteration cap (the paper caps NMF/SGD at 20; everything else
    /// converges on its own).
    pub max_iterations: usize,
    /// Run phases sequentially (deterministic debugging / tiny graphs).
    pub sequential: bool,
    /// Cluster simulation: a partition id per vertex. When set, edge reads
    /// and messages whose endpoints live on different partitions are also
    /// tallied as *remote* — modeling the network traffic the computation
    /// would generate on a distributed deployment like the paper's 48-node
    /// cluster.
    pub partition: Option<std::sync::Arc<[u32]>>,
    /// Cooperative cancellation: checked once per iteration boundary. When
    /// the flag becomes true the run stops before its next iteration and
    /// the trace is returned with `converged = false` and whatever
    /// iterations completed. Cancellation is iteration-granular — a single
    /// long iteration cannot be interrupted mid-phase. Used by the
    /// benchmark-job service to enforce wall-clock timeouts and client
    /// cancellation on long runs.
    pub cancel: Option<Arc<AtomicBool>>,
    /// Active-set representation policy. [`FrontierMode::Adaptive`] (the
    /// default) never changes results or behavior counters — only which
    /// data structure the engine walks to find active vertices.
    pub frontier_mode: FrontierMode,
    /// Scatter dataflow direction. [`DirectionMode::Auto`] (the default)
    /// never changes results or behavior counters — only which side of the
    /// edges evaluates the scatter calls.
    pub direction: DirectionMode,
    /// Iteration-granularity checkpointing. Honored by the checkpoint-aware
    /// entry points ([`SyncEngine::run_resumable`] and friends): the engine
    /// resumes from the policy's file when one exists, snapshots state
    /// every `every` iterations, and removes the file when the run reaches
    /// a terminal boundary (converged or iteration cap — not cancellation,
    /// which is exactly the case resume exists for). The bound-free
    /// [`SyncEngine::run`] ignores it.
    pub checkpoint: Option<CheckpointPolicy>,
    /// Deterministic fault injection for chaos tests. The engine fires
    /// [`FaultSite::Iteration`] at each iteration boundary and
    /// [`FaultSite::CheckpointWrite`] before each checkpoint write; `None`
    /// (the default) costs one branch per boundary.
    pub fault_plan: Option<Arc<FaultPlan>>,
    /// Cache window of the exchange and pull phases: the most inbox state,
    /// in bytes, one task's destination chunks may span, so a task's writes
    /// stay inside an L2-sized window instead of striding the whole inbox.
    /// It is an *upper* bound — within it the task plan cuts tasks by work
    /// (see `task_plan`). Like the frontier and direction knobs this
    /// **never changes results**: per destination chunk the merge order is
    /// fixed by the outbox walk, and chunks are independent, so any window
    /// and any plan yield bit-identical state (see
    /// `segment_bytes_is_bit_identical`). The default (256 KiB) targets
    /// common per-core L2 capacities.
    pub segment_bytes: usize,
    /// Shard-per-core execution: partition the chunk space into this many
    /// contiguous shards. `0` or `1` (the default) runs unsharded. When
    /// ≥ 2, no task of the scatter, exchange or pull phase holds chunks of
    /// two shards: every outbox is filled by one source shard walking its
    /// chunks ascending, and every inbox chunk is written by exactly one
    /// shard's task. Like `segment_bytes` this **never changes results**:
    /// per destination chunk the combine order (source chunk ascending,
    /// emission order within) is exactly the order a single-shard merge
    /// uses, so any shard count yields bit-identical state (see the
    /// `sharded identity` suites). Cross-shard traffic is accounted by
    /// pairing this with [`ExecutionConfig::partition`] set to the shard
    /// map — see `graphmine-shard`.
    pub num_shards: usize,
}

/// Default for [`ExecutionConfig::segment_bytes`].
pub const DEFAULT_SEGMENT_BYTES: usize = 256 * 1024;

impl Default for ExecutionConfig {
    fn default() -> ExecutionConfig {
        ExecutionConfig {
            max_iterations: 10_000,
            sequential: false,
            partition: None,
            cancel: None,
            frontier_mode: FrontierMode::Adaptive,
            direction: DirectionMode::Auto,
            checkpoint: None,
            fault_plan: None,
            segment_bytes: DEFAULT_SEGMENT_BYTES,
            num_shards: 0,
        }
    }
}

impl ExecutionConfig {
    /// Config with the given iteration cap.
    pub fn with_max_iterations(max: usize) -> ExecutionConfig {
        ExecutionConfig {
            max_iterations: max,
            ..ExecutionConfig::default()
        }
    }

    /// Force sequential execution.
    pub fn sequential(mut self) -> ExecutionConfig {
        self.sequential = true;
        self
    }

    /// Enable the cluster simulation with the given per-vertex partition.
    pub fn with_partition(mut self, partition: Vec<u32>) -> ExecutionConfig {
        self.partition = Some(partition.into());
        self
    }

    /// Attach a cooperative cancellation flag. Setting the flag (from any
    /// thread) stops the run at the next iteration boundary.
    pub fn with_cancel_flag(mut self, flag: Arc<AtomicBool>) -> ExecutionConfig {
        self.cancel = Some(flag);
        self
    }

    /// Force a frontier representation (benchmarks and tests; the default
    /// adaptive policy is right for production runs).
    pub fn with_frontier_mode(mut self, mode: FrontierMode) -> ExecutionConfig {
        self.frontier_mode = mode;
        self
    }

    /// Force a scatter direction (benchmarks and tests; the default auto
    /// policy is right for production runs).
    pub fn with_direction(mut self, direction: DirectionMode) -> ExecutionConfig {
        self.direction = direction;
        self
    }

    /// Enable iteration-granularity checkpointing under the given policy.
    pub fn with_checkpoint(mut self, policy: CheckpointPolicy) -> ExecutionConfig {
        self.checkpoint = Some(policy);
        self
    }

    /// Attach a deterministic fault-injection plan (chaos tests only).
    pub fn with_fault_plan(mut self, plan: Arc<FaultPlan>) -> ExecutionConfig {
        self.fault_plan = Some(plan);
        self
    }

    /// Set the exchange/pull cache window (most bytes of inbox state per
    /// task). `0` is clamped to one chunk per task.
    pub fn with_segment_bytes(mut self, bytes: usize) -> ExecutionConfig {
        self.segment_bytes = bytes;
        self
    }

    /// Partition execution into `shards` contiguous chunk shards (0/1 =
    /// unsharded). Results are bit-identical for every shard count.
    pub fn with_shards(mut self, shards: usize) -> ExecutionConfig {
        self.num_shards = shards;
        self
    }

    /// Whether an attached cancellation flag has been raised.
    #[inline]
    pub fn is_cancelled(&self) -> bool {
        self.cancel
            .as_ref()
            .is_some_and(|f| f.load(Ordering::Relaxed))
    }
}

/// The synchronous GAS engine, borrowing a graph and its per-edge data and
/// owning program state.
pub struct SyncEngine<'g, P: VertexProgram> {
    graph: &'g Graph,
    program: P,
    states: Vec<P::State>,
    edge_data: &'g [P::EdgeData],
    global: P::Global,
}

/// Deterministic data-parallel chunk size for `n` vertices.
///
/// The value depends **only** on the vertex count — never on thread count,
/// machine, or frontier mode — because chunk boundaries fix the
/// message-merge order and therefore every floating-point reduction order
/// in a run. `n / 256` targets a few chunks per core on typical machines;
/// the clamp keeps chunks at ≥ 64 vertices so tiny graphs don't drown in
/// per-chunk overhead, and at ≤ 8192 so huge graphs still expose enough
/// chunks for work stealing to balance skewed degree distributions.
pub fn chunk_size(n: usize) -> usize {
    (n / 256).clamp(64, 8192)
}

/// The part of `next_states` left stale by the previous apply phase.
///
/// `next_states` must equal `states` everywhere before an apply rewrites
/// the current frontier. Rather than a dense O(|V|) `clone_from_slice`
/// every iteration, the engine records which vertices the *last* apply
/// touched and copies only those back.
enum PendingSync {
    /// Buffers already identical (start of run).
    Clean,
    /// Exactly these vertices differ (last iteration ran sparse).
    Vertices(Vec<VertexId>),
    /// Last iteration ran dense: resynchronize chunk-wise. When the current
    /// iteration is also dense this folds into its apply sweep for free.
    All,
}

/// Adaptive frontier bookkeeping shared by the three phases.
///
/// The bitmap is always maintained; the sorted vertex `list` and its
/// per-chunk grouping `chunks` are rebuilt only for iterations that run in
/// sparse mode, so each rayon task receives exactly the vertices it owns.
struct FrontierSet {
    mode: FrontierMode,
    n: usize,
    cs: usize,
    bitmap: Vec<bool>,
    /// Sorted active vertices; valid only when `sparse`.
    list: Vec<VertexId>,
    /// `(chunk_index, lo, hi)`: `list[lo..hi]` falls in that chunk.
    /// Ascending by chunk index; valid only when `sparse`.
    chunks: Vec<(usize, usize, usize)>,
    count: usize,
    sparse: bool,
    /// Summed out-degree of the active set, maintained incrementally via
    /// the CSR prefix-degree index: O(|F|) per frontier change and O(1)
    /// for the everyone-active case — the direction cost model's input.
    out_deg: u64,
}

impl FrontierSet {
    fn new(n: usize, cs: usize, mode: FrontierMode) -> FrontierSet {
        FrontierSet {
            mode,
            n,
            cs,
            bitmap: vec![false; n],
            list: Vec::new(),
            chunks: Vec::new(),
            count: 0,
            sparse: false,
            out_deg: 0,
        }
    }

    /// Summed out-degree of `vs` via the prefix-degree index.
    fn sum_out_degree(prefix: &[u64], vs: &[VertexId]) -> u64 {
        vs.iter()
            .map(|&v| prefix[v as usize + 1] - prefix[v as usize])
            .sum()
    }

    fn pick_sparse(&self, count: usize) -> bool {
        match self.mode {
            FrontierMode::Dense => false,
            FrontierMode::Sparse => true,
            FrontierMode::Adaptive => (count as f64) < SPARSE_FRONTIER_THRESHOLD * self.n as f64,
        }
    }

    /// Regroup `list` (sorted) into per-chunk sub-ranges.
    fn rebuild_chunks(&mut self) {
        self.chunks.clear();
        let mut i = 0;
        while i < self.list.len() {
            let ci = self.list[i] as usize / self.cs;
            let lo = i;
            while i < self.list.len() && self.list[i] as usize / self.cs == ci {
                i += 1;
            }
            self.chunks.push((ci, lo, i));
        }
    }

    /// Every vertex active (`ActiveInit::All`). `prefix` is the graph's
    /// out-direction prefix-degree index.
    fn init_all(&mut self, prefix: &[u64]) {
        self.bitmap.iter_mut().for_each(|b| *b = true);
        self.count = self.n;
        self.out_deg = prefix[self.n];
        self.sparse = self.pick_sparse(self.n);
        if self.sparse {
            self.list = (0..self.n as VertexId).collect();
            self.rebuild_chunks();
        }
    }

    /// Only the listed vertices active (`ActiveInit::Vertices`).
    fn init_subset(&mut self, mut vs: Vec<VertexId>, prefix: &[u64]) {
        vs.sort_unstable();
        vs.dedup();
        for &v in &vs {
            self.bitmap[v as usize] = true;
        }
        self.count = vs.len();
        self.out_deg = Self::sum_out_degree(prefix, &vs);
        self.sparse = self.pick_sparse(self.count);
        self.list = vs;
        if self.sparse {
            self.rebuild_chunks();
        } else {
            self.chunks.clear();
        }
    }

    /// Replace the frontier with `next` (sorted, deduplicated), maintaining
    /// the bitmap, count, and summed out-degree incrementally: clearing
    /// costs the old frontier, setting costs the new one — never O(|V|)
    /// while sparse.
    fn advance(&mut self, next: Vec<VertexId>, prefix: &[u64]) {
        if self.sparse {
            for &v in &self.list {
                self.bitmap[v as usize] = false;
            }
        } else {
            self.bitmap.iter_mut().for_each(|b| *b = false);
        }
        for &v in &next {
            self.bitmap[v as usize] = true;
        }
        self.count = next.len();
        self.out_deg = Self::sum_out_degree(prefix, &next);
        self.sparse = self.pick_sparse(self.count);
        self.list = next;
        if self.sparse {
            self.rebuild_chunks();
        } else {
            self.chunks.clear();
        }
    }

    /// The sorted active-vertex list, whatever the current representation.
    /// `list` mirrors the bitmap after every `init_subset`/`advance`; the
    /// one state where it does not (`init_all` in dense mode leaves it
    /// empty) is recognizable by the length mismatch and means "everyone".
    fn snapshot_list(&self) -> Vec<VertexId> {
        if self.list.len() == self.count {
            self.list.clone()
        } else {
            (0..self.n as VertexId).collect()
        }
    }
}

/// The adjacency directions an [`EdgeSet`] visits, in visiting order.
fn edge_dirs(set: EdgeSet, directed: bool) -> &'static [Direction] {
    match set {
        EdgeSet::None => &[],
        EdgeSet::In => &[Direction::In],
        EdgeSet::Out => &[Direction::Out],
        EdgeSet::Both if directed => &[Direction::Out, Direction::In],
        EdgeSet::Both => &[Direction::Out],
    }
}

/// What the scatter phase's task plan is computed from, fixed for a run.
struct ScatterGeometry {
    /// Vertex range of every chunk.
    ranges: Vec<(usize, usize)>,
    /// In-edge slots per chunk: the pull path's work per destination chunk,
    /// and what lets it skip in-slot-free chunks in O(1) each.
    in_spans: Vec<u64>,
    /// Scatter-direction edge slots per chunk: the dense push path's work
    /// per source chunk.
    push_spans: Vec<u64>,
    /// Cache window, shard boundary and pool size bounding every task that
    /// writes inbox slots.
    dest_bounds: TaskBounds,
}

/// A deserialized iteration boundary handed to [`SyncEngine::run_core`] to
/// continue a run instead of starting fresh.
struct ResumeState<P: VertexProgram> {
    completed_iterations: usize,
    states: Vec<P::State>,
    frontier: Vec<VertexId>,
    inbox: Vec<(VertexId, P::Message)>,
    global: P::Global,
    trace: RunTrace,
}

impl<P: VertexProgram> ResumeState<P> {
    fn from_checkpoint(c: EngineCheckpoint<P::State, P::Message, P::Global>) -> ResumeState<P> {
        ResumeState {
            completed_iterations: c.completed_iterations,
            states: c.states,
            frontier: c.frontier,
            inbox: c.inbox,
            global: c.global,
            trace: c.trace,
        }
    }
}

/// A borrowed view of one completed, non-terminal iteration boundary —
/// everything a continuation of the run needs, by reference.
struct BoundaryView<'a, P: VertexProgram> {
    completed_iterations: usize,
    states: &'a [P::State],
    frontier: &'a FrontierSet,
    inbox: &'a SlotTable<P::Message>,
    global: &'a P::Global,
    trace: &'a RunTrace,
}

impl<'g, P: VertexProgram> SyncEngine<'g, P>
where
    P::Global: Default,
{
    /// Create an engine with a default-initialized global.
    pub fn new(
        graph: &'g Graph,
        program: P,
        states: Vec<P::State>,
        edge_data: &'g [P::EdgeData],
    ) -> SyncEngine<'g, P> {
        Self::with_global(graph, program, states, edge_data, P::Global::default())
    }
}

impl<'g, P: VertexProgram> SyncEngine<'g, P> {
    /// Create an engine with an explicit initial global value.
    pub fn with_global(
        graph: &'g Graph,
        program: P,
        states: Vec<P::State>,
        edge_data: &'g [P::EdgeData],
        global: P::Global,
    ) -> SyncEngine<'g, P> {
        assert_eq!(
            states.len(),
            graph.num_vertices(),
            "one state per vertex required"
        );
        assert_eq!(
            edge_data.len(),
            graph.num_edges(),
            "one edge datum per edge required"
        );
        SyncEngine {
            graph,
            program,
            states,
            edge_data,
            global,
        }
    }

    /// Read-only access to the current states (useful mid-construction in
    /// tests).
    pub fn states(&self) -> &[P::State] {
        &self.states
    }

    /// Run to convergence or the iteration cap, returning final states and
    /// the behavior trace.
    pub fn run(self, config: &ExecutionConfig) -> (Vec<P::State>, RunTrace) {
        let (states, _global, trace) = self.run_with_global(config);
        (states, trace)
    }

    /// Like [`SyncEngine::run`] but also returns the final global value.
    pub fn run_with_global(self, config: &ExecutionConfig) -> RunOutput<P> {
        self.run_core(config, None, &mut |_| {})
    }

    /// The shared run loop behind every entry point. `resume` restarts the
    /// engine at a previously captured iteration boundary; `observer` is
    /// invoked at each non-terminal boundary with a complete view of the
    /// resumable state (the checkpoint-aware entry points serialize it —
    /// this core stays free of serde bounds).
    fn run_core(
        mut self,
        config: &ExecutionConfig,
        resume: Option<ResumeState<P>>,
        observer: &mut dyn FnMut(BoundaryView<'_, P>),
    ) -> RunOutput<P> {
        let n = self.graph.num_vertices();
        let m = self.graph.num_edges();
        let mut trace = RunTrace {
            num_vertices: n as u64,
            num_edges: m as u64,
            iterations: Vec::new(),
            converged: false,
        };
        if n == 0 {
            trace.converged = true;
            return (self.states, self.global, trace);
        }

        let cs = chunk_size(n);
        let always_active = self.program.always_active();
        // The direction cost model's input, borrowed from the CSR: the
        // out-direction prefix-degree index.
        let out_prefix: &[u64] = self.graph.degree_prefix(Direction::Out);
        let mut frontier = FrontierSet::new(n, cs, config.frontier_mode);
        let mut inbox: SlotTable<P::Message> = SlotTable::new(n);

        // A boundary is fully described by (states, frontier, undelivered
        // inbox, global, trace-so-far): the accumulator table is drained by
        // apply every iteration, and `next_states`/`pending` start Clean
        // because `next_states` is cloned from the restored states below —
        // exactly the invariant a fresh run starts with.
        let start_iter = match resume {
            Some(r) => {
                self.states = r.states;
                self.global = r.global;
                trace.iterations = r.trace.iterations;
                frontier.init_subset(r.frontier, out_prefix);
                for (v, msg) in r.inbox {
                    inbox.set(v as usize, msg);
                }
                r.completed_iterations
            }
            None => {
                match self.program.initial_active() {
                    ActiveInit::All => frontier.init_all(out_prefix),
                    ActiveInit::Vertices(vs) => frontier.init_subset(vs, out_prefix),
                }
                0
            }
        };

        // Run-lifetime scratch: hoisted out of the iteration loop so the
        // steady state allocates proportionally to frontier work only.
        let ranges: Vec<(usize, usize)> = (0..n)
            .step_by(cs)
            .map(|start| (start, (start + cs).min(n)))
            .collect();
        let mut push_spans = vec![0u64; ranges.len()];
        for &dir in edge_dirs(self.program.scatter_edges(), self.graph.is_directed()) {
            for (sum, span) in push_spans
                .iter_mut()
                .zip(chunk_edge_spans(self.graph, dir, cs))
            {
                *sum += span;
            }
        }
        let geometry = ScatterGeometry {
            in_spans: chunk_edge_spans(self.graph, Direction::In, cs),
            push_spans,
            // One inbox slot costs the message payload plus its presence
            // byte.
            dest_bounds: TaskBounds::new(
                cs,
                std::mem::size_of::<P::Message>() + 1,
                config.segment_bytes,
                ranges.len(),
                config.num_shards,
                if config.sequential {
                    1
                } else {
                    rayon::current_num_threads()
                },
            ),
            ranges,
        };
        let mut scratch: ScatterScratch<P::Message> = ScatterScratch::default();
        let mut accums: SlotTable<P::Accum> = SlotTable::new(n);
        let mut next_states = self.states.clone();
        let mut pending = PendingSync::Clean;

        for iter in start_iter..config.max_iterations {
            if config.is_cancelled() {
                break;
            }
            if frontier.count == 0 {
                trace.converged = true;
                break;
            }
            if let Some(plan) = &config.fault_plan {
                // An I/O-error fault is meaningless at a pure-compute
                // boundary; panics and stalls take effect.
                let _ = plan.fire(FaultSite::Iteration, iter as u64);
            }

            self.program
                .before_iteration(iter, &self.states, &mut self.global);

            let (stats, next_frontier) = self.iteration(
                config,
                &frontier,
                &geometry,
                &mut accums,
                &mut inbox,
                &mut scratch,
                &mut next_states,
                &pending,
                !always_active,
            );
            // Promote next states to current (reuse the old buffer) and
            // remember which vertices now need back-filling.
            std::mem::swap(&mut self.states, &mut next_states);
            pending = if frontier.sparse {
                PendingSync::Vertices(frontier.list.clone())
            } else {
                PendingSync::All
            };
            trace.iterations.push(stats);

            // Next-iteration activation: message receipt, unless the program
            // keeps everything alive.
            if !always_active {
                frontier.advance(next_frontier, out_prefix);
            }

            if self.program.should_halt(iter, &self.states, &self.global) {
                trace.converged = true;
                break;
            }

            // The boundary after iteration `iter` is complete and the run
            // continues: everything an identical continuation needs is
            // visible here. Terminal boundaries (halt/convergence/cap) are
            // deliberately not observed — there is nothing left to resume.
            observer(BoundaryView {
                completed_iterations: iter + 1,
                states: &self.states,
                frontier: &frontier,
                inbox: &inbox,
                global: &self.global,
                trace: &trace,
            });
        }
        (self.states, self.global, trace)
    }

    /// Execute one synchronous iteration. Consumes the frontier's inbox
    /// messages and refills `inbox` with the next iteration's; returns the
    /// iteration's stats and the sorted list of vertices that received a
    /// message (the next frontier, when activation is message-driven).
    #[allow(clippy::too_many_arguments)]
    fn iteration(
        &self,
        config: &ExecutionConfig,
        frontier: &FrontierSet,
        geometry: &ScatterGeometry,
        accums: &mut SlotTable<P::Accum>,
        inbox: &mut SlotTable<P::Message>,
        scratch: &mut ScatterScratch<P::Message>,
        next_states: &mut [P::State],
        pending: &PendingSync,
        track_receivers: bool,
    ) -> (IterationStats, Vec<VertexId>) {
        let n = self.graph.num_vertices();
        let cs = frontier.cs;
        let graph = self.graph;
        let program = &self.program;
        let states = &self.states;
        let edge_data = self.edge_data;
        let global = &self.global;
        let active = &frontier.bitmap;
        let sparse = frontier.sparse;
        let active_count = frontier.count as u64;
        let sum2 = |a: (u64, u64), b: (u64, u64)| (a.0 + b.0, a.1 + b.1);

        // ---- Gather ----
        let gather_t0 = Instant::now();
        let partition = config.partition.as_deref();
        let gather_dir = program.gather_edges();
        let mut edge_reads: u64 = 0;
        let mut remote_edge_reads: u64 = 0;
        let gather_dirs = edge_dirs(gather_dir, graph.is_directed());
        // Rows prefetched one vertex ahead target the first direction a
        // gather/scatter visits.
        if let Some(&gather_pf) = gather_dirs.first() {
            // Each parallel task owns a reusable row buffer: compressed
            // rows batch-decode into it (guard-elided, see
            // `graphmine_graph::varint::decode_row_into`), plain rows
            // bypass it entirely. Decode order is unchanged, so traces
            // stay bit-identical to the streaming path.
            let gather_one = |v: VertexId,
                              row: &mut Vec<VertexId>,
                              local_reads: &mut u64,
                              remote: &mut u64|
             -> Option<P::Accum> {
                let v_state = &states[v as usize];
                let mut acc: Option<P::Accum> = None;
                let mut visit = |dir: Direction, row: &mut Vec<VertexId>| {
                    let (eids, nbrs) = graph.incident_row(v, dir, row);
                    *local_reads += eids.len() as u64;
                    for (&e, &nbr) in eids.iter().zip(nbrs) {
                        if let Some(p) = partition {
                            if p[v as usize] != p[nbr as usize] {
                                *remote += 1;
                            }
                        }
                        let contrib = program.gather(
                            graph,
                            v,
                            e,
                            nbr,
                            v_state,
                            &states[nbr as usize],
                            &edge_data[e as usize],
                            global,
                        );
                        match &mut acc {
                            Some(a) => program.merge(a, contrib),
                            None => acc = Some(contrib),
                        }
                    }
                };
                for &dir in gather_dirs {
                    visit(dir, row);
                }
                acc
            };
            let (total, remote) = if sparse {
                // Only chunks holding active vertices, and within each only
                // the listed vertices.
                type GatherItem<'a, A> = (SlotChunk<'a, A>, usize, &'a [VertexId]);
                let work: Vec<GatherItem<'_, P::Accum>> =
                    select_slot_chunks_mut(accums, cs, frontier.chunks.iter().map(|c| c.0))
                        .into_iter()
                        .zip(frontier.chunks.iter())
                        .map(|(chunk, &(ci, lo, hi))| (chunk, ci, &frontier.list[lo..hi]))
                        .collect();
                let per_item =
                    |(mut chunk, ci, verts): (SlotChunk<'_, P::Accum>, usize, &[VertexId])| {
                        let base = ci * cs;
                        let mut row: Vec<VertexId> = Vec::new();
                        let mut local: u64 = 0;
                        let mut remote: u64 = 0;
                        for (i, &v) in verts.iter().enumerate() {
                            if let Some(&nv) = verts.get(i + 1) {
                                graph.prefetch_row(nv, gather_pf);
                            }
                            let acc = gather_one(v, &mut row, &mut local, &mut remote);
                            chunk.set_opt(v as usize - base, acc);
                        }
                        (local, remote)
                    };
                if config.sequential {
                    work.into_iter().map(per_item).fold((0, 0), sum2)
                } else {
                    work.into_par_iter().map(per_item).reduce(|| (0, 0), sum2)
                }
            } else {
                let per_chunk = |(ci, mut chunk): (usize, SlotChunk<'_, P::Accum>)| -> (u64, u64) {
                    let base = ci * cs;
                    let mut row: Vec<VertexId> = Vec::new();
                    let mut local: u64 = 0;
                    let mut remote: u64 = 0;
                    for off in 0..chunk.len() {
                        let v = (base + off) as VertexId;
                        if active[v as usize] {
                            graph.prefetch_row(v + 1, gather_pf);
                            let acc = gather_one(v, &mut row, &mut local, &mut remote);
                            chunk.set_opt(off, acc);
                        }
                    }
                    (local, remote)
                };
                if config.sequential {
                    accums
                        .chunks_mut(cs)
                        .enumerate()
                        .map(per_chunk)
                        .fold((0, 0), sum2)
                } else {
                    accums
                        .present
                        .par_chunks_mut(cs)
                        .zip(accums.values.par_chunks_mut(cs))
                        .enumerate()
                        .map(|(ci, (p, v))| per_chunk((ci, SlotChunk::from_planes(p, v))))
                        .reduce(|| (0, 0), sum2)
                }
            };
            edge_reads = total;
            remote_edge_reads = remote;
        }
        let gather_ns = gather_t0.elapsed().as_nanos() as u64;

        // ---- Apply ----
        // Invariant: next_states == states everywhere except the vertices
        // the *previous* apply rewrote (tracked by `pending`). Restore those
        // first, then rewrite only the current frontier. The one dense
        // full-resync folds into the dense sweep below instead of running as
        // a separate pass.
        let fused_sync = matches!(pending, PendingSync::All) && !sparse;
        match pending {
            PendingSync::Clean => {}
            PendingSync::Vertices(stale) => {
                for &v in stale {
                    next_states[v as usize].clone_from(&states[v as usize]);
                }
            }
            PendingSync::All => {
                if !fused_sync {
                    if config.sequential {
                        next_states
                            .chunks_mut(cs)
                            .zip(states.chunks(cs))
                            .for_each(|(dst, src)| dst.clone_from_slice(src));
                    } else {
                        next_states
                            .par_chunks_mut(cs)
                            .zip(states.par_chunks(cs))
                            .for_each(|(dst, src)| dst.clone_from_slice(src));
                    }
                }
            }
        }
        // WORK is timed per task, not per vertex: one clock pair brackets a
        // task's whole apply loop (after the fused state sync), so a
        // two-flop apply is not drowned by two clock reads. `apply_ns` is
        // the sum over tasks, i.e. CPU time summed over threads.
        let apply_one = |v: VertexId,
                         slot: &mut P::State,
                         acc: Option<P::Accum>,
                         msg: Option<P::Message>,
                         ops: &mut u64| {
            let mut info = ApplyInfo::default();
            program.apply(v, slot, acc, msg.as_ref(), global, &mut info);
            *ops += info.ops;
        };
        let (apply_ns, apply_ops) = if sparse {
            let ids = || frontier.chunks.iter().map(|c| c.0);
            let dst_chunks = select_chunks_mut(next_states, cs, ids());
            let acc_chunks = select_slot_chunks_mut(accums, cs, ids());
            let inb_chunks = select_slot_chunks_mut(inbox, cs, ids());
            type ApplyItem<'a, P> = (
                &'a mut [<P as VertexProgram>::State],
                SlotChunk<'a, <P as VertexProgram>::Accum>,
                SlotChunk<'a, <P as VertexProgram>::Message>,
                usize,
                &'a [VertexId],
            );
            let work: Vec<ApplyItem<'_, P>> = dst_chunks
                .into_iter()
                .zip(acc_chunks)
                .zip(inb_chunks)
                .zip(frontier.chunks.iter())
                .map(|(((dst, acc), inb), &(ci, lo, hi))| {
                    (dst, acc, inb, ci, &frontier.list[lo..hi])
                })
                .collect();
            let per_item = |(dst, mut acc, mut inb, ci, verts): ApplyItem<'_, P>| -> (u64, u64) {
                let base = ci * cs;
                let mut ops: u64 = 0;
                let t0 = Instant::now();
                for &v in verts {
                    let off = v as usize - base;
                    apply_one(v, &mut dst[off], acc.take(off), inb.take(off), &mut ops);
                }
                (t0.elapsed().as_nanos() as u64, ops)
            };
            if config.sequential {
                work.into_iter().map(per_item).fold((0, 0), sum2)
            } else {
                work.into_par_iter().map(per_item).reduce(|| (0, 0), sum2)
            }
        } else {
            type DenseItem<'a, P> = (
                usize,
                (
                    (
                        (
                            &'a mut [<P as VertexProgram>::State],
                            &'a [<P as VertexProgram>::State],
                        ),
                        SlotChunk<'a, <P as VertexProgram>::Accum>,
                    ),
                    SlotChunk<'a, <P as VertexProgram>::Message>,
                ),
            );
            let per_chunk =
                |(ci, (((dst, src), mut acc), mut inb)): DenseItem<'_, P>| -> (u64, u64) {
                    if fused_sync {
                        dst.clone_from_slice(src);
                    }
                    let base = ci * cs;
                    let mut ops: u64 = 0;
                    let t0 = Instant::now();
                    for (off, slot) in dst.iter_mut().enumerate() {
                        let v = (base + off) as VertexId;
                        if !active[v as usize] {
                            continue;
                        }
                        apply_one(v, slot, acc.take(off), inb.take(off), &mut ops);
                    }
                    (t0.elapsed().as_nanos() as u64, ops)
                };
            if config.sequential {
                next_states
                    .chunks_mut(cs)
                    .zip(states.chunks(cs))
                    .zip(accums.chunks_mut(cs))
                    .zip(inbox.chunks_mut(cs))
                    .enumerate()
                    .map(per_chunk)
                    .fold((0, 0), sum2)
            } else {
                next_states
                    .par_chunks_mut(cs)
                    .zip(states.par_chunks(cs))
                    .zip(
                        accums
                            .present
                            .par_chunks_mut(cs)
                            .zip(accums.values.par_chunks_mut(cs)),
                    )
                    .zip(
                        inbox
                            .present
                            .par_chunks_mut(cs)
                            .zip(inbox.values.par_chunks_mut(cs)),
                    )
                    .enumerate()
                    .map(|(ci, (((dst, src), (ap, av)), (ip, iv)))| {
                        per_chunk((
                            ci,
                            (
                                ((dst, src), SlotChunk::from_planes(ap, av)),
                                SlotChunk::from_planes(ip, iv),
                            ),
                        ))
                    })
                    .reduce(|| (0, 0), sum2)
            }
        };

        // ---- Direction selection ----
        // Only an out-edge scatter has a pull formulation. Auto picks pull
        // when the frontier's summed out-degree makes the push path's
        // outbox machinery cost more than a flat in-slot sweep, and only on
        // sorted rows, where pull's per-destination combine order (in-row
        // order, ascending source) is exactly push's. Forced Pull trusts
        // the caller.
        let scatter_dir = program.scatter_edges();
        let use_pull = scatter_dir == EdgeSet::Out
            && match config.direction {
                DirectionMode::Push => false,
                DirectionMode::Pull => true,
                DirectionMode::Auto => {
                    graph.has_sorted_rows()
                        && PULL_COST_FACTOR * frontier.out_deg >= graph.total_in_slots()
                }
            };

        // ---- Scatter + Exchange ----
        // Both directions run as work-balanced tasks over consecutive
        // chunks (see `task_plan`): chunks inside a task run ascending with
        // the per-chunk combine order untouched, so results are
        // bit-identical for every plan. Each task borrows its row and hit
        // buffers from run-lifetime scratch.
        let scatter_t0 = Instant::now();
        let next_states_ref: &[P::State] = next_states;
        // [messages, remote messages, edge traversals].
        let (sent, receivers) = if use_pull {
            let mut receivers: Vec<VertexId> = Vec::new();
            // Pull: each destination chunk walks its vertices' in-edges,
            // evaluates scatter for the active sources it finds, and
            // combines straight into its own inbox slots — scatter and
            // exchange fused, no outboxes, no bucketing sort. In-rows list
            // sources ascending on deduplicated builds, so per destination
            // this is byte-for-byte the push exchange's combine order.
            // Chunks with no in-slots are skipped via the cached spans,
            // which are also each chunk's weight in the plan.
            let in_spans = &geometry.in_spans;
            let chunks: Vec<(usize, SlotChunk<'_, P::Message>)> = inbox
                .chunks_mut(cs)
                .enumerate()
                .filter(|&(ci, _)| in_spans[ci] > 0)
                .collect();
            let tasks = into_tasks(chunks, |ci, _| in_spans[ci], geometry.dest_bounds);
            let bufs = pooled(&mut scratch.bufs, tasks.len());
            let work: Vec<_> = tasks.into_iter().zip(bufs.iter_mut()).collect();
            let sent = sum_tasks(config.sequential, work, |(task, buf)| {
                let mut sent = [0u64; 3];
                for (ci, mut chunk) in task {
                    let base = ci * cs;
                    for off in 0..chunk.len() {
                        let v = (base + off) as VertexId;
                        // The next destination's in-row payload is fetched
                        // while this one decodes and combines.
                        graph.prefetch_row(v + 1, Direction::In);
                        // Gather specialization: one destination's whole
                        // combine chain runs in a register, so the SoA
                        // present/value arrays are read once and written
                        // once per destination instead of once per in-edge
                        // — same combine order (slot value first, then
                        // in-row order), so results stay bit-identical.
                        let mut acc: Option<P::Message> = chunk.take(off);
                        let had_prior = acc.is_some();
                        let (eids, nbrs) = graph.incident_row(v, Direction::In, &mut buf.row);
                        sent[2] += eids.len() as u64;
                        for (&e, &u) in eids.iter().zip(nbrs) {
                            if !active[u as usize] {
                                continue;
                            }
                            if let Some(msg) = program.scatter(
                                graph,
                                u,
                                e,
                                v,
                                &next_states_ref[u as usize],
                                &states[v as usize],
                                &edge_data[e as usize],
                                global,
                            ) {
                                sent[0] += 1;
                                if let Some(p) = partition {
                                    if p[u as usize] != p[v as usize] {
                                        sent[1] += 1;
                                    }
                                }
                                match acc.as_mut() {
                                    Some(a) => program.combine(a, msg),
                                    None => acc = Some(msg),
                                }
                            }
                        }
                        if acc.is_some() {
                            if !had_prior && track_receivers {
                                buf.hits.push(v);
                            }
                            chunk.set_opt(off, acc);
                        }
                    }
                }
                sent
            });
            // Tasks ascend, their chunks ascend and each chunk's hits
            // ascend, so the receiver list comes out sorted without a sort.
            for buf in bufs {
                receivers.append(&mut buf.hits);
            }
            (sent, receivers)
        } else {
            self.push_exchange(config, frontier, geometry, inbox, scratch, next_states_ref)
        };
        let scatter_ns = scatter_t0.elapsed().as_nanos() as u64;

        let stats = IterationStats {
            active: active_count,
            updates: active_count,
            edge_reads,
            messages: sent[0],
            apply_ns,
            apply_ops,
            remote_edge_reads,
            remote_messages: sent[1],
            frontier_density: active_count as f64 / n as f64,
            gather_ns,
            scatter_ns,
            direction: if use_pull {
                DirectionChoice::Pull
            } else {
                DirectionChoice::Push
            },
            push_edge_traversals: if use_pull { 0 } else { sent[2] },
            pull_edge_traversals: if use_pull { sent[2] } else { 0 },
        };
        (stats, receivers)
    }

    /// The push scatter and exchange: active vertices emit into per-task
    /// outboxes, then the exchange combines the outboxes into the inbox.
    /// Returns `[messages, remote messages, edge traversals]` and the
    /// sorted vertices whose inbox slot this phase filled.
    ///
    /// The sources run in ascending *waves*: runs of consecutive chunks
    /// whose planned edge work adds up to at most |V|, each scattered,
    /// bucketed and exchanged before the next starts. A chunk heavier than
    /// that is cut between its vertices, so a wave holds at least one
    /// vertex and exceeds |V| only for a vertex whose own edges do. A wave
    /// sends at most one message per edge it visits, so the outboxes hold
    /// about one inbox's worth of entries whatever the round sends. Waves
    /// ascend by source, so every destination still combines its messages
    /// in ascending source order — results are bit-identical to a single
    /// wave.
    fn push_exchange(
        &self,
        config: &ExecutionConfig,
        frontier: &FrontierSet,
        geometry: &ScatterGeometry,
        inbox: &mut SlotTable<P::Message>,
        scratch: &mut ScatterScratch<P::Message>,
        next_states: &[P::State],
    ) -> ([u64; 3], Vec<VertexId>) {
        let graph = self.graph;
        let program = &self.program;
        let (states, edge_data, global) = (&self.states, self.edge_data, &self.global);
        let partition = config.partition.as_deref();
        let track_receivers = !program.always_active();
        let (cs, sparse, active) = (frontier.cs, frontier.sparse, &frontier.bitmap);
        let scatter_dirs = edge_dirs(program.scatter_edges(), graph.is_directed());
        let mut sent = [0u64; 3];
        let mut receivers: Vec<VertexId> = Vec::new();
        let Some(&scatter_pf) = scatter_dirs.first() else {
            return (sent, receivers);
        };
        let scatter_one = |v: VertexId,
                           row: &mut Vec<VertexId>,
                           out: &mut Vec<(VertexId, P::Message)>,
                           sent: &mut [u64; 3]| {
            let v_state = &next_states[v as usize];
            for &dir in scatter_dirs {
                let (eids, nbrs) = graph.incident_row(v, dir, row);
                sent[2] += eids.len() as u64;
                for (&e, &nbr) in eids.iter().zip(nbrs) {
                    if let Some(msg) = program.scatter(
                        graph,
                        v,
                        e,
                        nbr,
                        v_state,
                        &states[nbr as usize],
                        &edge_data[e as usize],
                        global,
                    ) {
                        sent[0] += 1;
                        if let Some(p) = partition {
                            if p[v as usize] != p[nbr as usize] {
                                sent[1] += 1;
                            }
                        }
                        out.push((nbr, msg));
                    }
                }
            }
        };
        // Source chunks weigh their planned edge work — the listed
        // vertices' degrees when sparse, the chunk's whole edge span when
        // dense: `(chunk, (lo, hi, work))`, with `lo..hi` a range of
        // `frontier.list` when sparse and of vertices when dense.
        let prefixes: Vec<&[u64]> = scatter_dirs
            .iter()
            .map(|&dir| graph.degree_prefix(dir))
            .collect();
        let degree = |i: usize| -> u64 {
            let v = if sparse { frontier.list[i] as usize } else { i };
            prefixes.iter().map(|p| p[v + 1] - p[v]).sum()
        };
        let chunks: Vec<(usize, usize, usize, u64)> = if sparse {
            frontier
                .chunks
                .iter()
                .map(|&(ci, lo, hi)| (ci, lo, hi, (lo..hi).map(degree).sum()))
                .collect()
        } else {
            geometry
                .ranges
                .iter()
                .enumerate()
                .map(|(ci, &(lo, hi))| (ci, lo, hi, geometry.push_spans[ci]))
                .collect()
        };
        // A hub chunk heavier than a wave is cut between its vertices, so
        // only a single vertex's edges can take a wave past |V|.
        let budget = graph.num_vertices() as u64;
        let mut items: Vec<(usize, (usize, usize, u64))> = Vec::with_capacity(chunks.len());
        for (ci, lo, hi, work) in chunks {
            if work <= budget {
                items.push((ci, (lo, hi, work)));
                continue;
            }
            let (mut start, mut part) = (lo, 0);
            for i in lo..hi {
                let d = degree(i);
                if part + d > budget && i > start {
                    items.push((ci, (start, i, part)));
                    (start, part) = (i, 0);
                }
                part += d;
            }
            items.push((ci, (start, hi, part)));
        }
        let mut waves = 0;
        let mut rest = &items[..];
        while !rest.is_empty() {
            let mut len = 1;
            let mut work = rest[0].1 .2;
            while let Some(&(_, (_, _, w))) = rest.get(len) {
                if work + w > budget {
                    break;
                }
                work += w;
                len += 1;
            }
            let (wave, tail) = rest.split_at(len);
            rest = tail;
            waves += 1;

            // Source tasks: runs of a wave's chunks weighing about the
            // same in edges to visit. All of a task's chunks fill ONE
            // outbox, walked ascending, so the flattened emission order per
            // destination chunk is identical to walking one outbox per
            // source chunk in ascending order and the exchange's combine
            // order (and every result bit) is the same for every grouping.
            // A source task reads its chunks but writes no inbox slot, so
            // only the shard boundary bounds it.
            let tasks = into_tasks(
                wave.to_vec(),
                |_, &(_, _, work)| work,
                geometry.dest_bounds.without_window(),
            );
            let bufs = pooled(&mut scratch.bufs, tasks.len());
            let outboxes = wave_outboxes(&mut scratch.outboxes, tasks.len());
            let work: Vec<_> = tasks
                .into_iter()
                .zip(bufs.iter_mut().zip(outboxes.iter_mut()))
                .collect();
            let wave_sent = sum_tasks(config.sequential, work, |(task, (buf, outbox))| {
                let mut sent = [0u64; 3];
                let planned = task.iter().map(|&(_, (_, _, work))| work).sum::<u64>();
                let out = outbox.begin(planned as usize);
                for &(_, (lo, hi, _)) in &task {
                    if sparse {
                        let verts = &frontier.list[lo..hi];
                        for (i, &v) in verts.iter().enumerate() {
                            if let Some(&nv) = verts.get(i + 1) {
                                graph.prefetch_row(nv, scatter_pf);
                            }
                            scatter_one(v, &mut buf.row, out, &mut sent);
                        }
                    } else {
                        for (i, &is_active) in active[lo..hi].iter().enumerate() {
                            if is_active {
                                let v = (lo + i) as VertexId;
                                graph.prefetch_row(v + 1, scatter_pf);
                                scatter_one(v, &mut buf.row, out, &mut sent);
                            }
                        }
                    }
                }
                outbox.bucket(cs);
                sent
            });
            for (total, s) in sent.iter_mut().zip(wave_sent) {
                *total += s;
            }

            // Exchange: combine the wave's messages into the inbox. Apply
            // drained every delivered message, so before the first wave
            // the inbox is all-empty — no O(|V|) clear. Destination tasks
            // are planned over the chunks that received anything, weighted
            // by how much; each owns its messages (one run per outbox,
            // split off in place) and merges its chunks ascending, each
            // chunk walking the outboxes in source order and each run in
            // emission order: the exact combine order a single-threaded
            // merge of the un-bucketed outboxes would use, for any plan.
            let (first, counts) = dest_chunk_counts(outboxes);
            if counts.is_empty() {
                continue;
            }
            let ids = || (first..).zip(&counts).filter(|c| *c.1 > 0).map(|c| c.0);
            let chunks: Vec<(usize, SlotChunk<'_, P::Message>)> = ids()
                .zip(select_slot_chunks_mut(inbox, cs, ids()))
                .collect();
            let tasks = into_tasks(chunks, |ci, _| counts[ci - first], geometry.dest_bounds);
            let last_chunks: Vec<usize> = tasks.iter().map(|t| t[t.len() - 1].0).collect();
            let num_outboxes = outboxes.len();
            let mut runs = split_runs(outboxes, &last_chunks);
            let bufs = pooled(&mut scratch.bufs, tasks.len());
            let work: Vec<_> = tasks
                .into_iter()
                .zip(runs.chunks_mut(num_outboxes))
                .zip(bufs.iter_mut())
                .collect();
            sum_tasks(config.sequential, work, |((task, runs), buf)| {
                for (ci, mut chunk) in task {
                    let base = ci * cs;
                    let first_hit = buf.hits.len();
                    for run in runs.iter_mut() {
                        // Runs are sorted by destination chunk and the
                        // earlier chunks' messages are already gone.
                        let here = run.partition_point(|m| (m.0 as usize) < base + chunk.len());
                        let (msgs, rest) = std::mem::take(run).split_at_mut(here);
                        *run = rest;
                        for (target, msg) in msgs {
                            let inserted = chunk.merge_or_insert(
                                *target as usize - base,
                                std::mem::take(msg),
                                |a, b| program.combine(a, b),
                            );
                            if inserted && track_receivers {
                                buf.hits.push(*target);
                            }
                        }
                    }
                    buf.hits[first_hit..].sort_unstable();
                }
                [0; 3]
            });
            for buf in bufs {
                receivers.append(&mut buf.hits);
            }
        }
        // Each wave's receivers ascend, and a vertex is a receiver of the
        // wave that filled its slot only.
        if waves > 1 {
            receivers.sort_unstable();
        }
        (sent, receivers)
    }
}

/// Checkpoint-aware entry points, available whenever the program's state,
/// message, and global types are serde-serializable. The determinism of the
/// engine (bit-identical exchange across thread counts and frontier modes)
/// makes resume exact: a continuation from any boundary reproduces the
/// uninterrupted run's states and behavior counters bitwise — only the
/// wall-clock `apply_ns` legitimately differs.
impl<'g, P: VertexProgram> SyncEngine<'g, P>
where
    P::State: Serialize + DeserializeOwned,
    P::Message: Serialize + DeserializeOwned,
    P::Global: Serialize + DeserializeOwned,
{
    /// Like [`SyncEngine::run`], honoring `config.checkpoint`: resume from
    /// the policy's file when a valid checkpoint exists, write one every
    /// `every` iterations, and delete it once the run ends on its own
    /// (convergence or iteration cap). With no policy configured this is
    /// exactly [`SyncEngine::run`].
    pub fn run_resumable(self, config: &ExecutionConfig) -> (Vec<P::State>, RunTrace) {
        let (states, _global, trace) = self.run_resumable_with_global(config);
        (states, trace)
    }

    /// [`SyncEngine::run_resumable`] returning the final global value too.
    pub fn run_resumable_with_global(self, config: &ExecutionConfig) -> RunOutput<P> {
        let Some(policy) = config.checkpoint.clone() else {
            return self.run_core(config, None, &mut |_| {});
        };
        // A missing checkpoint is the normal first-attempt case; an
        // unreadable, corrupt, or mismatched one must never lose the job —
        // the chain walks back to the newest generation that validates
        // (counting the fallback), and a fully unusable chain just means a
        // fresh run whose next write replaces it.
        let (resume, skipped) = read_latest_checkpoint::<P::State, P::Message, P::Global>(
            &policy,
            self.graph.num_vertices(),
            self.graph.num_edges(),
        );
        if let Some(stats) = &policy.stats {
            if resume.is_some() {
                stats.restored.fetch_add(1, Ordering::Relaxed);
            }
            if skipped > 0 && resume.is_some() {
                stats.fallbacks.fetch_add(1, Ordering::Relaxed);
            }
        }
        self.run_checkpointed(config, &policy, resume)
    }

    /// Resume explicitly from `ckpt`, validating it against this engine's
    /// graph first. Periodic checkpoint writes continue if
    /// `config.checkpoint` is set; otherwise the continuation runs bare.
    pub fn run_from_checkpoint(
        self,
        config: &ExecutionConfig,
        ckpt: EngineCheckpoint<P::State, P::Message, P::Global>,
    ) -> Result<RunOutput<P>, CheckpointError> {
        ckpt.validate(self.graph.num_vertices(), self.graph.num_edges())?;
        Ok(match config.checkpoint.clone() {
            Some(policy) => self.run_checkpointed(config, &policy, Some(ckpt)),
            None => self.run_core(
                config,
                Some(ResumeState::from_checkpoint(ckpt)),
                &mut |_| {},
            ),
        })
    }

    fn run_checkpointed(
        self,
        config: &ExecutionConfig,
        policy: &CheckpointPolicy,
        resume: Option<EngineCheckpoint<P::State, P::Message, P::Global>>,
    ) -> RunOutput<P> {
        let num_vertices = self.graph.num_vertices() as u64;
        let num_edges = self.graph.num_edges() as u64;
        let mut observer = |b: BoundaryView<'_, P>| {
            if policy.every == 0 || !b.completed_iterations.is_multiple_of(policy.every) {
                return;
            }
            let ckpt = EngineCheckpoint {
                version: CHECKPOINT_FORMAT_VERSION,
                num_vertices,
                num_edges,
                completed_iterations: b.completed_iterations,
                states: b.states.to_vec(),
                frontier: b.frontier.snapshot_list(),
                inbox: b
                    .inbox
                    .iter_present()
                    .map(|(v, m)| (v as VertexId, m.clone()))
                    .collect(),
                global: b.global.clone(),
                trace: b.trace.clone(),
            };
            let wrote = (|| {
                if let Some(plan) = &config.fault_plan {
                    plan.fire(FaultSite::CheckpointWrite, b.completed_iterations as u64)?;
                }
                write_checkpoint_generation(policy, &ckpt).map(|_| ())
            })();
            // A failed write is not fatal to the run: the previous
            // checkpoint (if any) is still intact thanks to the atomic
            // rename, so resume just loses some progress.
            if let Some(stats) = &policy.stats {
                match wrote {
                    Ok(()) => stats.written.fetch_add(1, Ordering::Relaxed),
                    Err(_) => stats.write_failures.fetch_add(1, Ordering::Relaxed),
                };
            }
        };
        let resume = resume.map(ResumeState::from_checkpoint);
        let cancelled = config.cancel.clone();
        let out = self.run_core(config, resume, &mut observer);
        // A run that ended on its own has nothing left to resume; one that
        // was cancelled (timeout, shutdown, crash) keeps its checkpoint so
        // the next attempt continues instead of restarting.
        let was_cancelled = cancelled.is_some_and(|f| f.load(Ordering::Relaxed));
        if !was_cancelled {
            let _ = std::fs::remove_file(policy.path());
            for (_, gen_path) in policy.generations() {
                let _ = std::fs::remove_file(gen_path);
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::program::NoGlobal;
    use graphmine_graph::GraphBuilder;

    /// Minimum-label propagation (CC core) used as the engine's test probe.
    struct MinLabel;

    impl VertexProgram for MinLabel {
        type State = u32;
        type EdgeData = ();
        type Accum = u32;
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
            _acc: Option<u32>,
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
            _e: graphmine_graph::EdgeId,
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

    fn path(n: usize) -> Graph {
        let mut b = GraphBuilder::undirected(n);
        for v in 0..(n as u32 - 1) {
            b.push_edge(v, v + 1);
        }
        b.build()
    }

    #[test]
    fn min_label_converges_on_path() {
        let g = path(8);
        let states: Vec<u32> = (0..8).collect();
        let engine = SyncEngine::new(&g, MinLabel, states, &[(); 7]);
        let (finals, trace) = engine.run(&ExecutionConfig::default());
        assert_eq!(finals, vec![0; 8]);
        assert!(trace.converged);
        // Propagation along a path of length 7 takes 7 hops + 1 final quiet
        // iteration detection; allow the engine's exact count.
        assert!(trace.num_iterations() >= 7);
    }

    #[test]
    fn sequential_matches_parallel() {
        let g = path(64);
        let states: Vec<u32> = (0..64).rev().collect();
        let run = |seq: bool| {
            let cfg = if seq {
                ExecutionConfig::default().sequential()
            } else {
                ExecutionConfig::default()
            };
            SyncEngine::new(&g, MinLabel, states.clone(), &[(); 63]).run(&cfg)
        };
        let (s1, t1) = run(true);
        let (s2, t2) = run(false);
        assert_eq!(s1, s2);
        // Wall-clock fields legitimately vary; everything else must be
        // bit-identical.
        assert_eq!(
            t1.without_wall_clock().iterations,
            t2.without_wall_clock().iterations
        );
    }

    #[test]
    fn frontier_modes_agree_bitwise() {
        // The path run decays from a full frontier to a single-vertex one,
        // so the adaptive engine crosses the sparse threshold mid-run; all
        // three forced representations must give identical states and
        // counters anyway.
        let g = path(200);
        let states: Vec<u32> = (0..200).rev().collect();
        let run = |mode: FrontierMode| {
            let cfg = ExecutionConfig::default().with_frontier_mode(mode);
            SyncEngine::new(&g, MinLabel, states.clone(), &[(); 199]).run(&cfg)
        };
        let strip = |t: &RunTrace| -> Vec<IterationStats> {
            t.iterations
                .iter()
                .map(IterationStats::normalized)
                .collect()
        };
        let (s_adaptive, t_adaptive) = run(FrontierMode::Adaptive);
        let (s_dense, t_dense) = run(FrontierMode::Dense);
        let (s_sparse, t_sparse) = run(FrontierMode::Sparse);
        assert_eq!(s_adaptive, s_dense);
        assert_eq!(s_adaptive, s_sparse);
        assert_eq!(strip(&t_adaptive), strip(&t_dense));
        assert_eq!(strip(&t_adaptive), strip(&t_sparse));
        // The run must actually have exercised both representations.
        assert!(t_adaptive
            .iterations
            .iter()
            .any(|it| it.frontier_density < SPARSE_FRONTIER_THRESHOLD));
        assert!(t_adaptive
            .iterations
            .iter()
            .any(|it| it.frontier_density >= SPARSE_FRONTIER_THRESHOLD));
    }

    #[test]
    fn direction_modes_agree_bitwise() {
        // Reversed labels on a path: the frontier starts dense (everyone
        // active) and decays toward a handful of vertices, so the auto run
        // crosses the pull/push cost boundary mid-run. All three modes must
        // produce identical states and normalized traces.
        let g = path(300);
        let states: Vec<u32> = (0..300).rev().collect();
        let run = |dir: DirectionMode| {
            let cfg = ExecutionConfig::default().with_direction(dir);
            SyncEngine::new(&g, MinLabel, states.clone(), &[(); 299]).run(&cfg)
        };
        let (s_auto, t_auto) = run(DirectionMode::Auto);
        let (s_push, t_push) = run(DirectionMode::Push);
        let (s_pull, t_pull) = run(DirectionMode::Pull);
        assert_eq!(s_auto, s_push);
        assert_eq!(s_auto, s_pull);
        assert_eq!(t_auto.without_wall_clock(), t_push.without_wall_clock());
        assert_eq!(t_auto.without_wall_clock(), t_pull.without_wall_clock());
        // Forced runs record their direction and traversal side faithfully.
        // Iteration 0 is fully dense: push walks the frontier's 598 out
        // slots, pull walks all 598 in slots.
        assert!(t_push
            .iterations
            .iter()
            .all(|it| it.direction == DirectionChoice::Push));
        assert!(t_pull
            .iterations
            .iter()
            .all(|it| it.direction == DirectionChoice::Pull));
        assert_eq!(t_push.iterations[0].push_edge_traversals, 598);
        assert_eq!(t_push.iterations[0].pull_edge_traversals, 0);
        assert_eq!(t_pull.iterations[0].pull_edge_traversals, 598);
        assert_eq!(t_pull.iterations[0].push_edge_traversals, 0);
        // The auto run actually exercised both paths.
        assert!(t_auto
            .iterations
            .iter()
            .any(|it| it.direction == DirectionChoice::Pull));
        assert!(t_auto
            .iterations
            .iter()
            .any(|it| it.direction == DirectionChoice::Push));
    }

    #[test]
    fn direction_sequential_matches_parallel_on_pull() {
        let g = path(200);
        let states: Vec<u32> = (0..200).rev().collect();
        let run = |seq: bool| {
            let mut cfg = ExecutionConfig::default().with_direction(DirectionMode::Pull);
            cfg.sequential = seq;
            SyncEngine::new(&g, MinLabel, states.clone(), &[(); 199]).run(&cfg)
        };
        let (s1, t1) = run(true);
        let (s2, t2) = run(false);
        assert_eq!(s1, s2);
        assert_eq!(t1.without_wall_clock(), t2.without_wall_clock());
    }

    /// A program whose combine is order-sensitive: a polynomial hash of the
    /// messages in arrival order. Every vertex stays active and messages a
    /// neighbor unless their states agree mod 3, so the frontier stays dense
    /// while the run's states depend on every combine order it used.
    struct OrderHash;

    impl VertexProgram for OrderHash {
        type State = u64;
        type EdgeData = ();
        type Accum = ();
        type Message = u64;
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
            state: &mut u64,
            _acc: Option<()>,
            msg: Option<&u64>,
            _g: &NoGlobal,
            info: &mut ApplyInfo,
        ) {
            info.ops += 1;
            if let Some(&m) = msg {
                *state = state.wrapping_mul(0x0100_0000_01B3) ^ m;
            }
        }
        fn scatter(
            &self,
            _graph: &Graph,
            _v: VertexId,
            _e: graphmine_graph::EdgeId,
            nbr: VertexId,
            state: &u64,
            nbr_state: &u64,
            _edge: &(),
            _g: &NoGlobal,
        ) -> Option<u64> {
            (!(state ^ nbr_state).is_multiple_of(3)).then(|| state.wrapping_add(nbr as u64))
        }
        fn combine(&self, into: &mut u64, from: u64) {
            *into = into.wrapping_mul(31).wrapping_add(from);
        }
    }

    #[test]
    fn auto_pulls_an_order_sensitive_combine_on_sorted_rows_only() {
        let n = 300;
        let states: Vec<u64> = (0..n as u64).map(|v| v * v + 1).collect();
        let unit = vec![(); n - 1];
        let run = |g: &Graph, dir: DirectionMode| {
            let cfg = ExecutionConfig::with_max_iterations(12).with_direction(dir);
            SyncEngine::new(g, OrderHash, states.clone(), &unit).run(&cfg)
        };
        // Sorted rows: Auto pulls exactly the rounds whose frontier
        // out-degree (what forced push walks) reaches a third of the
        // in-slots, and still equals forced push bitwise.
        let sorted = path(n);
        assert!(sorted.has_sorted_rows());
        let (s_auto, t_auto) = run(&sorted, DirectionMode::Auto);
        let (s_push, t_push) = run(&sorted, DirectionMode::Push);
        assert_eq!(s_auto, s_push);
        assert_eq!(t_auto.without_wall_clock(), t_push.without_wall_clock());
        for (auto, push) in t_auto.iterations.iter().zip(&t_push.iterations) {
            let dense = PULL_COST_FACTOR * push.push_edge_traversals >= sorted.total_in_slots();
            let want = if dense {
                DirectionChoice::Pull
            } else {
                DirectionChoice::Push
            };
            assert_eq!(auto.direction, want);
        }
        assert_eq!(t_auto.iterations[0].direction, DirectionChoice::Pull);
        // The same path built without sorted rows: Auto never pulls.
        let mut b = GraphBuilder::undirected(n).allow_parallel_edges();
        for v in 0..(n as u32 - 1) {
            b.push_edge(v, v + 1);
        }
        let unsorted = b.build();
        assert!(!unsorted.has_sorted_rows());
        let (s_unsorted, t_unsorted) = run(&unsorted, DirectionMode::Auto);
        assert!(t_unsorted
            .iterations
            .iter()
            .all(|it| it.direction == DirectionChoice::Push));
        assert_eq!(s_unsorted, s_push);
    }

    #[test]
    fn forced_pull_without_out_scatter_stays_on_push() {
        // NeighborAvg never scatters, so there is nothing to pull; the
        // forced mode must fall back to the push path untouched.
        let g = path(4);
        let cfg = ExecutionConfig::default().with_direction(DirectionMode::Pull);
        let engine = SyncEngine::new(&g, NeighborAvg, vec![0.0, 1.0, 2.0, 3.0], &[(); 3]);
        let (_, trace) = engine.run(&cfg);
        assert_eq!(trace.num_iterations(), 5);
        for it in &trace.iterations {
            assert_eq!(it.direction, DirectionChoice::Push);
            assert_eq!(it.pull_edge_traversals, 0);
            assert_eq!(it.push_edge_traversals, 0);
        }
    }

    #[test]
    fn chunk_size_is_clamped_and_deterministic() {
        // Tiny graphs: floor of 64 keeps per-chunk overhead bounded.
        assert_eq!(chunk_size(1), 64);
        assert_eq!(chunk_size(100), 64);
        assert_eq!(chunk_size(16_384), 64);
        // Mid sizes: n / 256 exactly.
        assert_eq!(chunk_size(256 * 100), 100);
        assert_eq!(chunk_size(1_000_000), 3906);
        // Huge graphs: ceiling of 8192 preserves work-stealing granularity.
        assert_eq!(chunk_size(4_000_000), 8192);
        assert_eq!(chunk_size(usize::MAX / 2), 8192);
        // Determinism contract: same n, same chunks — every call.
        for n in [1, 63, 64, 65, 10_000, 1 << 20] {
            assert_eq!(chunk_size(n), chunk_size(n));
        }
    }

    #[test]
    fn first_iteration_counts_are_exact() {
        // Path 0-1-2, labels [2, 1, 0]. Iteration 0: all 3 active, 3 updates,
        // gather=None so 0 ereads. Scatter: v0 sends to nobody smaller... v0
        // has label 2, neighbor 1 has 1: no send. v1(1) -> v0(2): send. v2(0)
        // -> v1(1): send. So 2 messages.
        let g = path(3);
        let engine = SyncEngine::new(&g, MinLabel, vec![2, 1, 0], &[(); 2]);
        let (_, trace) = engine.run(&ExecutionConfig::default());
        let it0 = trace.iterations[0];
        assert_eq!(it0.active, 3);
        assert_eq!(it0.updates, 3);
        assert_eq!(it0.edge_reads, 0);
        assert_eq!(it0.messages, 2);
        assert_eq!(it0.apply_ops, 3);
        assert_eq!(it0.frontier_density, 1.0);
    }

    #[test]
    fn vote_to_halt_terminates() {
        // Uniform labels: no scatter fires, so iteration 1 has no active
        // vertices and the run converges after exactly one iteration.
        let g = path(4);
        let engine = SyncEngine::new(&g, MinLabel, vec![5; 4], &[(); 3]);
        let (_, trace) = engine.run(&ExecutionConfig::default());
        assert!(trace.converged);
        assert_eq!(trace.num_iterations(), 1);
    }

    #[test]
    fn iteration_cap_reports_non_convergence() {
        let g = path(32);
        let states: Vec<u32> = (0..32).rev().collect();
        let engine = SyncEngine::new(&g, MinLabel, states, &[(); 31]);
        let (_, trace) = engine.run(&ExecutionConfig::with_max_iterations(3));
        assert!(!trace.converged);
        assert_eq!(trace.num_iterations(), 3);
    }

    /// A gather-only averaging program to exercise EREAD accounting and
    /// always_active.
    struct NeighborAvg;

    impl VertexProgram for NeighborAvg {
        type State = f64;
        type EdgeData = ();
        type Accum = (f64, u32);
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
            _graph: &Graph,
            _v: VertexId,
            _e: graphmine_graph::EdgeId,
            _nbr: VertexId,
            _v_state: &f64,
            nbr_state: &f64,
            _edge: &(),
            _g: &NoGlobal,
        ) -> (f64, u32) {
            (*nbr_state, 1)
        }
        fn merge(&self, into: &mut (f64, u32), from: (f64, u32)) {
            into.0 += from.0;
            into.1 += from.1;
        }
        fn apply(
            &self,
            _v: VertexId,
            state: &mut f64,
            acc: Option<(f64, u32)>,
            _msg: Option<&()>,
            _g: &NoGlobal,
            info: &mut ApplyInfo,
        ) {
            if let Some((sum, cnt)) = acc {
                if cnt > 0 {
                    *state = sum / cnt as f64;
                    info.ops += cnt as u64;
                }
            }
        }
        fn should_halt(&self, iter: usize, _states: &[f64], _g: &NoGlobal) -> bool {
            iter + 1 >= 5
        }
    }

    #[test]
    fn always_active_and_eread_accounting() {
        let g = path(4); // 3 edges, degree sum 6
        let engine = SyncEngine::new(&g, NeighborAvg, vec![0.0, 1.0, 2.0, 3.0], &[(); 3]);
        let (_, trace) = engine.run(&ExecutionConfig::default());
        assert_eq!(trace.num_iterations(), 5);
        for it in &trace.iterations {
            assert_eq!(it.active, 4);
            assert_eq!(it.edge_reads, 6);
            assert_eq!(it.messages, 0);
            assert_eq!(it.frontier_density, 1.0);
        }
    }

    #[test]
    fn neighbor_avg_converges_toward_mean() {
        let g = path(4);
        let engine = SyncEngine::new(&g, NeighborAvg, vec![0.0, 0.0, 0.0, 12.0], &[(); 3]);
        let (finals, _) = engine.run(&ExecutionConfig::default());
        // Mass spreads leftward; the exact fixed point is not the mean, but
        // every vertex must have moved off its initial extreme.
        assert!(finals[0] > 0.0);
        assert!(finals[3] < 12.0);
    }

    #[test]
    fn initial_active_subset() {
        /// Program where only listed sources start active; propagates a flag.
        struct Flood;
        impl VertexProgram for Flood {
            type State = bool;
            type EdgeData = ();
            type Accum = ();
            type Message = ();
            type Global = NoGlobal;
            fn gather_edges(&self) -> EdgeSet {
                EdgeSet::None
            }
            fn scatter_edges(&self) -> EdgeSet {
                EdgeSet::Out
            }
            fn initial_active(&self) -> ActiveInit {
                ActiveInit::Vertices(vec![0])
            }
            fn apply(
                &self,
                _v: VertexId,
                state: &mut bool,
                _acc: Option<()>,
                _msg: Option<&()>,
                _g: &NoGlobal,
                _info: &mut ApplyInfo,
            ) {
                *state = true;
            }
            fn scatter(
                &self,
                _graph: &Graph,
                _v: VertexId,
                _e: graphmine_graph::EdgeId,
                _nbr: VertexId,
                state: &bool,
                nbr_state: &bool,
                _edge: &(),
                _g: &NoGlobal,
            ) -> Option<()> {
                (*state && !*nbr_state).then_some(())
            }
            fn combine(&self, _into: &mut (), _from: ()) {}
        }
        let g = path(5);
        let engine = SyncEngine::new(&g, Flood, vec![false; 5], &[(); 4]);
        let (finals, trace) = engine.run(&ExecutionConfig::default());
        assert_eq!(finals, vec![true; 5]);
        // Active counts grow like a BFS frontier from one source.
        assert_eq!(trace.iterations[0].active, 1);
        assert!(trace.iterations[1].active >= 1);
        assert!(trace.converged);
    }

    #[test]
    fn sparse_subset_start_on_larger_path() {
        // A single-source flood on a path long enough that the adaptive
        // engine starts (and stays) in sparse mode: the frontier is one or
        // two vertices out of 2000 the whole run.
        let n = 2000;
        let g = path(n);
        let states: Vec<u32> = (0..n as u32)
            .map(|v| if v == 0 { 0 } else { u32::MAX })
            .collect();
        /// Hop-count flood from vertex 0.
        struct Hops;
        impl VertexProgram for Hops {
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
            fn initial_active(&self) -> ActiveInit {
                ActiveInit::Vertices(vec![0])
            }
            fn apply(
                &self,
                _v: VertexId,
                state: &mut u32,
                _acc: Option<()>,
                msg: Option<&u32>,
                _g: &NoGlobal,
                _info: &mut ApplyInfo,
            ) {
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
                _e: graphmine_graph::EdgeId,
                _nbr: VertexId,
                state: &u32,
                nbr_state: &u32,
                _edge: &(),
                _g: &NoGlobal,
            ) -> Option<u32> {
                (*state != u32::MAX && state.saturating_add(1) < *nbr_state).then(|| state + 1)
            }
            fn combine(&self, into: &mut u32, from: u32) {
                *into = (*into).min(from);
            }
        }
        let (finals, trace) =
            SyncEngine::new(&g, Hops, states, &vec![(); n - 1]).run(&ExecutionConfig::default());
        let expected: Vec<u32> = (0..n as u32).collect();
        assert_eq!(finals, expected);
        assert!(trace.converged);
        // Every iteration's frontier is tiny: all sparse-mode territory.
        for it in &trace.iterations {
            assert!(it.active <= 2);
            assert!(it.frontier_density < SPARSE_FRONTIER_THRESHOLD);
        }
    }

    #[test]
    fn pre_set_cancel_flag_stops_before_first_iteration() {
        let g = path(32);
        let states: Vec<u32> = (0..32).rev().collect();
        let flag = Arc::new(AtomicBool::new(true));
        let cfg = ExecutionConfig::default().with_cancel_flag(flag);
        let engine = SyncEngine::new(&g, MinLabel, states, &[(); 31]);
        let (_, trace) = engine.run(&cfg);
        assert!(!trace.converged);
        assert_eq!(trace.num_iterations(), 0);
    }

    #[test]
    fn cancel_flag_stops_run_mid_flight() {
        /// Halts after the iteration in which the flag was raised.
        struct FlagAfter {
            flag: Arc<AtomicBool>,
            after: usize,
        }
        impl VertexProgram for FlagAfter {
            type State = u32;
            type EdgeData = ();
            type Accum = ();
            type Message = ();
            type Global = NoGlobal;
            fn gather_edges(&self) -> EdgeSet {
                EdgeSet::None
            }
            fn scatter_edges(&self) -> EdgeSet {
                EdgeSet::None
            }
            fn always_active(&self) -> bool {
                true
            }
            fn apply(
                &self,
                _v: VertexId,
                _state: &mut u32,
                _acc: Option<()>,
                _msg: Option<&()>,
                _g: &NoGlobal,
                _info: &mut ApplyInfo,
            ) {
            }
            fn before_iteration(&self, iter: usize, _states: &[u32], _g: &mut NoGlobal) {
                if iter == self.after {
                    self.flag.store(true, Ordering::Relaxed);
                }
            }
        }
        let g = path(8);
        let flag = Arc::new(AtomicBool::new(false));
        let program = FlagAfter {
            flag: flag.clone(),
            after: 2,
        };
        let cfg = ExecutionConfig::default().with_cancel_flag(flag);
        let engine = SyncEngine::new(&g, program, vec![0; 8], &[(); 7]);
        let (_, trace) = engine.run(&cfg);
        // Flag raised while iteration 2 ran, so iteration 3 never starts.
        assert!(!trace.converged);
        assert_eq!(trace.num_iterations(), 3);
    }

    #[test]
    fn empty_graph_converges_immediately() {
        let g = GraphBuilder::undirected(0).build();
        let engine = SyncEngine::new(&g, MinLabel, vec![], &[]);
        let (finals, trace) = engine.run(&ExecutionConfig::default());
        assert!(finals.is_empty());
        assert!(trace.converged);
        assert_eq!(trace.num_iterations(), 0);
    }

    #[test]
    fn trace_graph_dimensions() {
        let g = path(6);
        let engine = SyncEngine::new(&g, MinLabel, vec![9; 6], &[(); 5]);
        let (_, trace) = engine.run(&ExecutionConfig::default());
        assert_eq!(trace.num_vertices, 6);
        assert_eq!(trace.num_edges, 5);
    }
}
