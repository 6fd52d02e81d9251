//! A GraphLab-style synchronous Gather–Apply–Scatter engine with full
//! behavior instrumentation.
//!
//! This crate reproduces the computation model of paper §3.3: vertex-centric
//! programs expressed as **Gather** (collect data through adjacent edges —
//! each visit is an *edge read*), **Apply** (update the central vertex — a
//! *vertex update*, whose CPU time is *work*), and **Scatter** (send signals
//! to activate neighbors — each signal is a *message*). Only vertices that
//! receive a message are active in the next iteration; a program converges
//! when no vertices remain active, when it declares convergence, or when the
//! iteration cap is reached (the paper caps NMF and SGD at 20 iterations).
//!
//! Every iteration is recorded in a [`RunTrace`] carrying the five behavior
//! metrics of §3.4 — active fraction, UPDT, WORK, EREAD, and MSG — which the
//! `graphmine-core` crate turns into `Behavior(GC)` vectors.
//!
//! The engine executes each phase data-parallel over vertex chunks (rayon),
//! with per-chunk counter accumulation so the hot path shares no atomics;
//! results are deterministic — bit-identical across thread counts and the
//! sequential fallback — because chunk boundaries depend only on the vertex
//! count and the message exchange combines every destination chunk in a
//! fixed order (see [`sync_engine`]). Per-iteration cost tracks the active
//! frontier, not |V|: below [`SPARSE_FRONTIER_THRESHOLD`] the engine walks
//! a compact sorted active-vertex list instead of sweeping a dense bitmap
//! ([`FrontierMode`]), and the scatter phase is direction-optimizing
//! ([`DirectionMode`]): sparse frontiers push along out-edges while dense
//! ones pull over in-edges, chosen per iteration by a cost model that
//! preserves bit-identical traces.
//!
//! ```
//! use graphmine_engine::{
//!     ActiveInit, EdgeSet, ExecutionConfig, SyncEngine, VertexProgram, ApplyInfo, NoGlobal,
//! };
//! use graphmine_graph::{EdgeId, Graph, GraphBuilder, VertexId};
//!
//! /// Minimum-label propagation: each vertex adopts the smallest label it
//! /// hears about (the core of Connected Components).
//! struct MinLabel;
//!
//! impl VertexProgram for MinLabel {
//!     type State = u32;
//!     type EdgeData = ();
//!     type Accum = u32;
//!     type Message = u32;
//!     type Global = NoGlobal;
//!
//!     fn gather_edges(&self) -> EdgeSet { EdgeSet::None }
//!     fn scatter_edges(&self) -> EdgeSet { EdgeSet::Out }
//!
//!     fn apply(
//!         &self,
//!         _v: VertexId,
//!         state: &mut u32,
//!         _acc: Option<u32>,
//!         msg: Option<&u32>,
//!         _g: &NoGlobal,
//!         _info: &mut ApplyInfo,
//!     ) {
//!         if let Some(&m) = msg {
//!             if m < *state { *state = m; }
//!         }
//!     }
//!
//!     fn scatter(
//!         &self,
//!         _graph: &Graph,
//!         _v: VertexId,
//!         _e: EdgeId,
//!         _nbr: VertexId,
//!         state: &u32,
//!         nbr_state: &u32,
//!         _edge: &(),
//!         _g: &NoGlobal,
//!     ) -> Option<u32> {
//!         (state < nbr_state).then_some(*state)
//!     }
//!
//!     fn combine(&self, into: &mut u32, from: u32) {
//!         if from < *into { *into = from; }
//!     }
//! }
//!
//! let g = GraphBuilder::undirected(4).edge(0, 1).edge(1, 2).edge(2, 3).build();
//! let states: Vec<u32> = (0..4).collect();
//! let engine = SyncEngine::new(&g, MinLabel, states, &[(); 3]);
//! let (final_states, trace) = engine.run(&ExecutionConfig::default());
//! assert_eq!(final_states, vec![0, 0, 0, 0]);
//! assert!(trace.converged);
//! ```

pub mod async_engine;
pub mod checkpoint;
pub mod edge_centric;
pub mod fault;
pub mod faultfs;
pub mod program;
pub mod soa;
pub mod sync_engine;
mod task_plan;
pub mod trace;

pub use async_engine::{async_run, AsyncConfig, AsyncStats, Scheduler};
pub use checkpoint::{
    read_checkpoint, read_latest_checkpoint, write_checkpoint, write_checkpoint_generation,
    CheckpointError, CheckpointPolicy, CheckpointStats, EngineCheckpoint,
    CHECKPOINT_FORMAT_VERSION, DEFAULT_CHECKPOINT_KEEP,
};
pub use edge_centric::{edge_centric_run, EdgeCentricConfig};
pub use fault::{FaultKind, FaultPlan, FaultSite};
pub use faultfs::IoShim;
pub use program::{ActiveInit, ApplyInfo, EdgeSet, NoGlobal, VertexProgram};
pub use soa::{SlotChunk, SlotTable};
pub use sync_engine::{
    chunk_size, DirectionMode, ExecutionConfig, FrontierMode, SyncEngine, PULL_COST_FACTOR,
    SPARSE_FRONTIER_THRESHOLD,
};
pub use trace::{DirectionChoice, IterationStats, RunTrace};

/// Threads of the pool the parallel phases run on. The first call from
/// anywhere starts rayon's global pool, whose threads inherit the caller's
/// CPU affinity — so a process that pins threads calls this first, from a
/// thread that is not pinned.
pub fn pool_threads() -> usize {
    rayon::current_num_threads()
}
