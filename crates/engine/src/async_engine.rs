//! An asynchronous GAS executor — GraphLab's other execution mode.
//!
//! The paper runs everything in the *synchronous* mode (§3.1), but the
//! platform it instruments also offers asynchronous execution, where active
//! vertices are processed from a work queue without global barriers. This
//! module provides that mode so the engine substrate is complete and so the
//! repository can compare the design choice (`tests/executors.rs`):
//!
//! * workers pop vertices from a shared FIFO (GraphLab's `fifo` scheduler);
//! * a popped vertex consumes its combined inbox message, gathers over the
//!   *current* neighbor states (vertex-consistency model: neighbor reads
//!   are unsynchronized snapshots), applies, and scatters — each emitted
//!   message is combined into the target's inbox and (re)schedules it;
//! * the run terminates when the queue drains or the update budget is hit.
//!
//! Execution is **not deterministic** (update order depends on thread
//! interleaving), so only order-insensitive programs — monotone label/
//! distance propagation like CC and SSSP — are guaranteed to reach the same
//! fixed point as the synchronous engine; the tests check exactly those.
//!
//! Counters carry the same meanings as the synchronous engine's, but
//! without iteration structure: totals for the whole run.
//!
//! This executor is inherently frontier-proportional: work items *are*
//! active vertices, so it never paid the dense per-iteration O(|V|) sweeps
//! the synchronous engine's adaptive frontier
//! ([`crate::sync_engine::FrontierMode`]) was introduced to avoid; no
//! sparse/dense mode distinction applies here.

use crate::program::{ActiveInit, ApplyInfo, EdgeSet, VertexProgram};
use graphmine_graph::{Direction, Graph, VertexId};
use parking_lot::Mutex;
use std::cmp::Ordering as CmpOrdering;
use std::collections::{BinaryHeap, VecDeque};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::time::Instant;

/// Which scheduler orders pending vertex activations.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Scheduler {
    /// First-in first-out (GraphLab's `fifo`).
    #[default]
    Fifo,
    /// Highest [`VertexProgram::schedule_priority`] first (GraphLab's
    /// `priority` scheduler) — e.g. SSSP runs closest-frontier-first,
    /// approximating Dijkstra order and cutting wasted relaxations.
    Priority,
}

/// A pending activation in the priority queue.
struct HeapItem {
    priority: f64,
    vertex: VertexId,
}

impl PartialEq for HeapItem {
    fn eq(&self, other: &Self) -> bool {
        self.priority == other.priority && self.vertex == other.vertex
    }
}
impl Eq for HeapItem {}
impl PartialOrd for HeapItem {
    fn partial_cmp(&self, other: &Self) -> Option<CmpOrdering> {
        Some(self.cmp(other))
    }
}
impl Ord for HeapItem {
    fn cmp(&self, other: &Self) -> CmpOrdering {
        self.priority
            .total_cmp(&other.priority)
            .then(self.vertex.cmp(&other.vertex))
    }
}

/// The scheduler's queue.
enum Queue {
    Fifo(VecDeque<VertexId>),
    Priority(BinaryHeap<HeapItem>),
}

impl Queue {
    fn push(&mut self, v: VertexId, priority: f64) {
        match self {
            Queue::Fifo(q) => q.push_back(v),
            Queue::Priority(h) => h.push(HeapItem {
                priority,
                vertex: v,
            }),
        }
    }

    fn pop(&mut self) -> Option<VertexId> {
        match self {
            Queue::Fifo(q) => q.pop_front(),
            Queue::Priority(h) => h.pop().map(|i| i.vertex),
        }
    }
}

/// Aggregate counters of an asynchronous run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AsyncStats {
    /// Vertex updates executed.
    pub updates: u64,
    /// Edge reads during gathers.
    pub edge_reads: u64,
    /// Messages sent by scatters.
    pub messages: u64,
    /// Nanoseconds spent inside user apply functions (summed over workers).
    pub apply_ns: u64,
    /// True when the queue drained (false when the update budget stopped
    /// the run).
    pub converged: bool,
}

/// Configuration for [`async_run`].
#[derive(Debug, Clone)]
pub struct AsyncConfig {
    /// Worker thread count (0 = one per available core).
    pub threads: usize,
    /// Hard cap on total vertex updates (a "budget", the async analogue of
    /// the synchronous iteration cap).
    pub max_updates: u64,
    /// Activation ordering.
    pub scheduler: Scheduler,
}

impl Default for AsyncConfig {
    fn default() -> AsyncConfig {
        AsyncConfig {
            threads: 0,
            max_updates: u64::MAX,
            scheduler: Scheduler::Fifo,
        }
    }
}

impl AsyncConfig {
    /// Use the priority scheduler.
    pub fn with_priority_scheduler(mut self) -> AsyncConfig {
        self.scheduler = Scheduler::Priority;
        self
    }
}

struct Shared<'g, P: VertexProgram> {
    graph: &'g Graph,
    program: &'g P,
    edge_data: &'g [P::EdgeData],
    states: Vec<Mutex<P::State>>,
    inbox: Vec<Mutex<Option<P::Message>>>,
    queued: Vec<AtomicBool>,
    queue: Mutex<Queue>,
    in_flight: AtomicUsize,
    updates: AtomicU64,
    edge_reads: AtomicU64,
    messages: AtomicU64,
    apply_ns: AtomicU64,
    budget_exhausted: AtomicBool,
    global: P::Global,
}

impl<'g, P: VertexProgram> Shared<'g, P> {
    fn schedule(&self, v: VertexId) {
        if !self.queued[v as usize].swap(true, Ordering::AcqRel) {
            self.in_flight.fetch_add(1, Ordering::AcqRel);
            let priority = {
                let msg = self.inbox[v as usize].lock();
                self.program.schedule_priority(v, msg.as_ref())
            };
            self.queue.lock().push(v, priority);
        }
    }

    fn try_pop(&self) -> Option<VertexId> {
        self.queue.lock().pop()
    }

    fn process(&self, v: VertexId, max_updates: u64) {
        // Mark dequeued *before* running so a concurrent signal re-queues.
        self.queued[v as usize].store(false, Ordering::Release);
        let msg = self.inbox[v as usize].lock().take();

        // Gather under the vertex-consistency model: neighbor snapshots.
        let gather_dir = self.program.gather_edges();
        let mut acc: Option<P::Accum> = None;
        let mut reads = 0u64;
        if gather_dir != EdgeSet::None {
            let v_state = self.states[v as usize].lock().clone();
            let mut visit = |dir: Direction| {
                for (e, nbr) in self.graph.incident(v, dir) {
                    reads += 1;
                    let nbr_state = self.states[nbr as usize].lock().clone();
                    let contrib = self.program.gather(
                        self.graph,
                        v,
                        e,
                        nbr,
                        &v_state,
                        &nbr_state,
                        self.edge_data(e),
                        &self.global,
                    );
                    match &mut acc {
                        Some(a) => self.program.merge(a, contrib),
                        None => acc = Some(contrib),
                    }
                }
            };
            match gather_dir {
                EdgeSet::In => visit(Direction::In),
                EdgeSet::Out => visit(Direction::Out),
                EdgeSet::Both => {
                    visit(Direction::Out);
                    if self.graph.is_directed() {
                        visit(Direction::In);
                    }
                }
                EdgeSet::None => {}
            }
        }
        self.edge_reads.fetch_add(reads, Ordering::Relaxed);

        // Apply under the vertex lock.
        let mut info = ApplyInfo::default();
        let new_state = {
            let mut state = self.states[v as usize].lock();
            let t0 = Instant::now();
            self.program
                .apply(v, &mut state, acc, msg.as_ref(), &self.global, &mut info);
            self.apply_ns
                .fetch_add(t0.elapsed().as_nanos() as u64, Ordering::Relaxed);
            state.clone()
        };
        let total = self.updates.fetch_add(1, Ordering::AcqRel) + 1;
        if total >= max_updates {
            self.budget_exhausted.store(true, Ordering::Release);
        }

        // Scatter: combine into inboxes, schedule receivers.
        let scatter_dir = self.program.scatter_edges();
        if scatter_dir != EdgeSet::None && !self.budget_exhausted.load(Ordering::Acquire) {
            let mut sent = 0u64;
            let mut visit = |dir: Direction| {
                for (e, nbr) in self.graph.incident(v, dir) {
                    let nbr_state = self.states[nbr as usize].lock().clone();
                    if let Some(m) = self.program.scatter(
                        self.graph,
                        v,
                        e,
                        nbr,
                        &new_state,
                        &nbr_state,
                        self.edge_data(e),
                        &self.global,
                    ) {
                        sent += 1;
                        let mut slot = self.inbox[nbr as usize].lock();
                        match slot.as_mut() {
                            Some(existing) => self.program.combine(existing, m),
                            None => *slot = Some(m),
                        }
                        drop(slot);
                        self.schedule(nbr);
                    }
                }
            };
            match scatter_dir {
                EdgeSet::In => visit(Direction::In),
                EdgeSet::Out => visit(Direction::Out),
                EdgeSet::Both => {
                    visit(Direction::Out);
                    if self.graph.is_directed() {
                        visit(Direction::In);
                    }
                }
                EdgeSet::None => {}
            }
            self.messages.fetch_add(sent, Ordering::Relaxed);
        }
        self.in_flight.fetch_sub(1, Ordering::AcqRel);
    }

    fn edge_data(&self, e: graphmine_graph::EdgeId) -> &P::EdgeData {
        &self.edge_data[e as usize]
    }
}

/// Run `program` asynchronously over `graph`. Returns final states and the
/// aggregate counters.
///
/// The program's `before_iteration`/`should_halt` hooks are *not* called —
/// asynchronous execution has no iteration boundary; programs that rely on
/// global aggregation per round (K-Means, SVD) belong on the synchronous
/// engine. Message-driven programs (CC, SSSP, LBP-style) work as-is.
pub fn async_run<P: VertexProgram>(
    graph: &Graph,
    program: &P,
    states: Vec<P::State>,
    edge_data: &[P::EdgeData],
    global: P::Global,
    config: &AsyncConfig,
) -> (Vec<P::State>, AsyncStats) {
    assert_eq!(states.len(), graph.num_vertices());
    assert_eq!(edge_data.len(), graph.num_edges());
    let n = graph.num_vertices();
    let shared = Shared {
        graph,
        program,
        edge_data,
        states: states.into_iter().map(Mutex::new).collect(),
        inbox: (0..n).map(|_| Mutex::new(None)).collect(),
        queued: (0..n).map(|_| AtomicBool::new(false)).collect(),
        queue: Mutex::new(match config.scheduler {
            Scheduler::Fifo => Queue::Fifo(VecDeque::new()),
            Scheduler::Priority => Queue::Priority(BinaryHeap::new()),
        }),
        in_flight: AtomicUsize::new(0),
        updates: AtomicU64::new(0),
        edge_reads: AtomicU64::new(0),
        messages: AtomicU64::new(0),
        apply_ns: AtomicU64::new(0),
        budget_exhausted: AtomicBool::new(false),
        global,
    };
    match program.initial_active() {
        ActiveInit::All => {
            for v in graph.vertices() {
                shared.schedule(v);
            }
        }
        ActiveInit::Vertices(vs) => {
            for v in vs {
                shared.schedule(v);
            }
        }
    }
    let threads = if config.threads == 0 {
        std::thread::available_parallelism()
            .map(|p| p.get())
            .unwrap_or(4)
    } else {
        config.threads
    };
    std::thread::scope(|scope| {
        for _ in 0..threads {
            scope.spawn(|| loop {
                if shared.budget_exhausted.load(Ordering::Acquire) {
                    break;
                }
                match shared.try_pop() {
                    Some(v) => shared.process(v, config.max_updates),
                    None => {
                        if shared.in_flight.load(Ordering::Acquire) == 0 {
                            break;
                        }
                        std::thread::yield_now();
                    }
                }
            });
        }
    });
    let stats = AsyncStats {
        updates: shared.updates.load(Ordering::Acquire),
        edge_reads: shared.edge_reads.load(Ordering::Acquire),
        messages: shared.messages.load(Ordering::Acquire),
        apply_ns: shared.apply_ns.load(Ordering::Acquire),
        converged: !shared.budget_exhausted.load(Ordering::Acquire),
    };
    let finals = shared.states.into_iter().map(|m| m.into_inner()).collect();
    (finals, stats)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::program::NoGlobal;
    use graphmine_graph::{EdgeId, GraphBuilder};

    /// Minimum-label propagation (order-insensitive; same fixed point as
    /// the synchronous engine).
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

    fn ring(n: usize) -> Graph {
        let mut b = GraphBuilder::undirected(n);
        for v in 0..n as u32 {
            b.push_edge(v, (v + 1) % n as u32);
        }
        b.build()
    }

    #[test]
    fn min_label_reaches_sync_fixed_point() {
        let g = ring(64);
        let states: Vec<u32> = (0..64).collect();
        let (finals, stats) = async_run(
            &g,
            &MinLabel,
            states,
            &vec![(); g.num_edges()],
            NoGlobal,
            &AsyncConfig::default(),
        );
        assert!(finals.iter().all(|&l| l == 0), "{finals:?}");
        assert!(stats.converged);
        assert!(stats.updates >= 64);
    }

    #[test]
    fn single_threaded_matches_too() {
        let g = ring(32);
        let states: Vec<u32> = (0..32).rev().collect();
        let cfg = AsyncConfig {
            threads: 1,
            ..AsyncConfig::default()
        };
        let (finals, _) = async_run(&g, &MinLabel, states, &[(); 32], NoGlobal, &cfg);
        assert!(finals.iter().all(|&l| l == 0));
    }

    #[test]
    fn budget_stops_early() {
        let g = ring(128);
        let states: Vec<u32> = (0..128).collect();
        let cfg = AsyncConfig {
            threads: 2,
            max_updates: 10,
            ..AsyncConfig::default()
        };
        let (_, stats) = async_run(&g, &MinLabel, states, &[(); 128], NoGlobal, &cfg);
        assert!(!stats.converged);
        // A couple of in-flight updates may land after the budget trips.
        assert!(
            stats.updates >= 10 && stats.updates <= 14,
            "{}",
            stats.updates
        );
    }

    #[test]
    fn counters_are_plausible() {
        let g = ring(16);
        let states: Vec<u32> = (0..16).collect();
        let (_, stats) = async_run(
            &g,
            &MinLabel,
            states,
            &[(); 16],
            NoGlobal,
            &AsyncConfig::default(),
        );
        // Gather is None so no edge reads; messages flowed.
        assert_eq!(stats.edge_reads, 0);
        assert!(stats.messages > 0);
        assert!(stats.apply_ns > 0);
    }

    #[test]
    fn priority_scheduler_reaches_same_fixed_point() {
        let g = ring(48);
        let states: Vec<u32> = (0..48).collect();
        let cfg = AsyncConfig::default().with_priority_scheduler();
        let (finals, stats) = async_run(&g, &MinLabel, states, &[(); 48], NoGlobal, &cfg);
        assert!(finals.iter().all(|&l| l == 0));
        assert!(stats.converged);
    }

    #[test]
    fn quiescent_start_converges_immediately_per_vertex() {
        // Uniform labels: every vertex runs once (initially active), sends
        // nothing, queue drains.
        let g = ring(8);
        let (finals, stats) = async_run(
            &g,
            &MinLabel,
            vec![5u32; 8],
            &[(); 8],
            NoGlobal,
            &AsyncConfig::default(),
        );
        assert!(finals.iter().all(|&l| l == 5));
        assert_eq!(stats.updates, 8);
        assert_eq!(stats.messages, 0);
    }
}
