//! The [`VertexProgram`] abstraction — the paper's GAS computation model.

use graphmine_graph::{EdgeId, Graph, VertexId};
use serde::{Deserialize, Serialize};

/// Which incident edges a phase visits.
///
/// For undirected graphs `In`, `Out`, and `Both` are all the full incident
/// set (the adjacency is shared), so programs on undirected inputs
/// conventionally use `Out`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EdgeSet {
    /// Visit no edges (skip the phase).
    None,
    /// In-edges of the central vertex.
    In,
    /// Out-edges of the central vertex.
    Out,
    /// Both in- and out-edges.
    Both,
}

/// Which vertices are active in iteration 0.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ActiveInit {
    /// All vertices start active (PageRank, K-Means, …).
    All,
    /// Only the listed vertices start active (SSSP's source).
    Vertices(Vec<VertexId>),
}

/// Placeholder global state for programs that need none.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct NoGlobal;

/// Mutable per-apply bookkeeping handed to [`VertexProgram::apply`].
///
/// `ops` is a *logical* work counter: programs bump it by the number of
/// arithmetic work units an apply performed, giving a deterministic stand-in
/// for wall-clock WORK in tests (the engine records both).
#[derive(Debug, Default)]
pub struct ApplyInfo {
    /// Logical work units performed by this apply.
    pub ops: u64,
}

/// A vertex program in the Gather–Apply–Scatter model (paper §3.3).
///
/// Semantics per synchronous iteration:
///
/// 1. **Gather** — for each active vertex `v`, visit [`gather_edges`] and
///    fold per-edge [`gather`] values with [`merge`]. Each visit counts one
///    EREAD. Reads the *previous* iteration's states.
/// 2. **Apply** — update `v`'s state from the gathered accumulator and the
///    combined inbox message. Counts one UPDT; its time counts toward WORK.
/// 3. **Scatter** — for each [`scatter_edges`] edge of `v`, optionally emit
///    a message to the neighbor. Each emission counts one MSG and activates
///    the receiver next iteration. Scatter sees `v`'s *new* state and the
///    neighbor's *previous* state.
///
/// Programs whose vertices all stay active regardless of messages (AD, KM,
/// NMF, SGD, SVD, Jacobi, DD in the paper's suite) override
/// [`always_active`].
///
/// [`gather_edges`]: VertexProgram::gather_edges
/// [`gather`]: VertexProgram::gather
/// [`merge`]: VertexProgram::merge
/// [`scatter_edges`]: VertexProgram::scatter_edges
/// [`always_active`]: VertexProgram::always_active
pub trait VertexProgram: Sync {
    /// Per-vertex state.
    type State: Clone + Send + Sync;
    /// Immutable per-edge data (weights, ratings, potentials).
    type EdgeData: Send + Sync;
    /// Gather accumulator. `Default` lets the engine store accumulators in
    /// a structure-of-arrays slot table (dense value plane + presence
    /// bytes) instead of `Vec<Option<_>>`; taking a value out leaves
    /// `Default::default()` behind, which the engine never observes.
    type Accum: Send + Default;
    /// Inter-vertex message (the paper's "signal" carrying data).
    /// `Default` for the same slot-table reason as [`Self::Accum`].
    type Message: Clone + Send + Sync + Default;
    /// Global (aggregator) state shared read-only within an iteration.
    type Global: Clone + Send + Sync;

    /// Edges visited by gather.
    fn gather_edges(&self) -> EdgeSet;

    /// Edges visited by scatter.
    fn scatter_edges(&self) -> EdgeSet;

    /// Initial active set. Defaults to all vertices.
    fn initial_active(&self) -> ActiveInit {
        ActiveInit::All
    }

    /// When true, every vertex is active every iteration regardless of
    /// messages (the paper's constant-active-fraction algorithms).
    fn always_active(&self) -> bool {
        false
    }

    /// Gather one edge's contribution. `v_state` and `nbr_state` are the
    /// previous iteration's values. Only called when
    /// `gather_edges() != EdgeSet::None`.
    #[allow(clippy::too_many_arguments)]
    fn gather(
        &self,
        _graph: &Graph,
        _v: VertexId,
        _e: EdgeId,
        _nbr: VertexId,
        _v_state: &Self::State,
        _nbr_state: &Self::State,
        _edge: &Self::EdgeData,
        _global: &Self::Global,
    ) -> Self::Accum {
        unreachable!("program gathers but does not implement gather()")
    }

    /// Fold two accumulators (must be commutative and associative).
    fn merge(&self, _into: &mut Self::Accum, _from: Self::Accum) {
        unreachable!("program gathers but does not implement merge()")
    }

    /// Update the central vertex.
    fn apply(
        &self,
        v: VertexId,
        state: &mut Self::State,
        acc: Option<Self::Accum>,
        msg: Option<&Self::Message>,
        global: &Self::Global,
        info: &mut ApplyInfo,
    );

    /// Optionally emit a message along one scatter edge. `state` is the
    /// central vertex's *new* value; `nbr_state` the neighbor's previous
    /// value. Only called when `scatter_edges() != EdgeSet::None`.
    #[allow(clippy::too_many_arguments)]
    fn scatter(
        &self,
        _graph: &Graph,
        _v: VertexId,
        _e: EdgeId,
        _nbr: VertexId,
        _state: &Self::State,
        _nbr_state: &Self::State,
        _edge: &Self::EdgeData,
        _global: &Self::Global,
    ) -> Option<Self::Message> {
        None
    }

    /// Combine two messages addressed to the same vertex. The engine always
    /// calls it in a fixed, deterministic order — ascending source vertex,
    /// then the source's edge order — whichever direction the round runs:
    /// the push exchange walks its outboxes in that order, and the pull path
    /// walks the destination's in-row, which lists sources ascending on
    /// sorted rows (the only rows `DirectionMode::Auto` pulls on). So
    /// implementations need not be commutative — LBP concatenates.
    fn combine(&self, _into: &mut Self::Message, _from: Self::Message) {
        unreachable!("program sends messages but does not implement combine()")
    }

    /// Hook run once before each iteration with read access to all previous
    /// states; used to refresh aggregators (K-Means centroids, Lanczos
    /// coefficients). `iter` is 0-based.
    fn before_iteration(&self, _iter: usize, _states: &[Self::State], _global: &mut Self::Global) {}

    /// Program-declared convergence, checked after each iteration against
    /// the new states. Complements vote-to-halt (no active vertices).
    fn should_halt(&self, _iter: usize, _states: &[Self::State], _global: &Self::Global) -> bool {
        false
    }

    /// Scheduling priority of a pending activation, used by the
    /// asynchronous engine's priority scheduler (higher runs first; the
    /// synchronous engine ignores it). `msg` is the combined inbox value
    /// that triggered the activation, when one exists.
    fn schedule_priority(&self, _v: VertexId, _msg: Option<&Self::Message>) -> f64 {
        0.0
    }
}
