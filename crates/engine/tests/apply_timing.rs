//! What `IterationStats::apply_ns` (the paper's WORK) brackets.
//!
//! The executors read the clock once per apply *task* — a chunk's apply
//! loop — not once per vertex, and report the sum over tasks. These tests
//! pin the two ends of that contract: a slow apply is counted in full and
//! only once, and a trivially cheap one still registers on every path.

use graphmine_engine::{
    edge_centric_run, ApplyInfo, EdgeCentricConfig, EdgeSet, ExecutionConfig, FrontierMode,
    NoGlobal, RunTrace, SyncEngine, VertexProgram,
};
use graphmine_graph::{EdgeId, Graph, GraphBuilder, VertexId};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

fn path(n: usize) -> Graph {
    let mut b = GraphBuilder::undirected(n);
    for v in 0..n - 1 {
        b.push_edge(v as VertexId, v as VertexId + 1);
    }
    b.build()
}

/// One iteration in which every apply sleeps about a millisecond and adds
/// what it really slept to `slept_ns`, so the assertions compare the
/// engine's timer with the program's own and hold on a loaded host.
#[derive(Clone, Default)]
struct Sleeper {
    slept_ns: Arc<AtomicU64>,
}

impl VertexProgram for Sleeper {
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
    fn apply(
        &self,
        _v: VertexId,
        state: &mut u32,
        _acc: Option<()>,
        _msg: Option<&()>,
        _g: &NoGlobal,
        _info: &mut ApplyInfo,
    ) {
        let t0 = Instant::now();
        std::thread::sleep(Duration::from_millis(1));
        self.slept_ns
            .fetch_add(t0.elapsed().as_nanos() as u64, Ordering::Relaxed);
        *state += 1;
    }
}

/// `apply_ns` of the single iteration must cover the eight sleeps and
/// count none of them twice.
fn assert_counts_each_sleep_once(trace: &RunTrace, program: &Sleeper) {
    assert_eq!(trace.iterations.len(), 1);
    let apply_ns = trace.iterations[0].apply_ns;
    let slept_ns = program.slept_ns.load(Ordering::Relaxed);
    assert!(slept_ns >= 8_000_000, "slept only {slept_ns} ns");
    assert!(
        apply_ns >= slept_ns && apply_ns < 2 * slept_ns,
        "apply_ns {apply_ns} for {slept_ns} ns of sleep"
    );
}

#[test]
fn slow_apply_in_one_chunk_is_counted_once() {
    // Eight vertices share one chunk (chunks hold at least 64), so the
    // whole iteration is one apply task.
    let g = path(8);
    for sequential in [false, true] {
        let program = Sleeper::default();
        let cfg = ExecutionConfig {
            sequential,
            ..ExecutionConfig::default()
        };
        let engine = SyncEngine::new(&g, program.clone(), vec![0u32; 8], &[(); 7]);
        let (states, trace) = engine.run(&cfg);
        assert_eq!(states, vec![1; 8]);
        assert_counts_each_sleep_once(&trace, &program);
    }
    let program = Sleeper::default();
    let (states, trace) = edge_centric_run(
        &g,
        &program,
        vec![0u32; 8],
        &[(); 7],
        NoGlobal,
        &EdgeCentricConfig::default(),
    );
    assert_eq!(states, vec![1; 8]);
    assert_counts_each_sleep_once(&trace, &program);
}

/// Min-label propagation: a two-instruction apply.
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
            *state = (*state).min(m);
        }
    }
    fn scatter(
        &self,
        _g: &Graph,
        _v: VertexId,
        _e: EdgeId,
        _n: VertexId,
        s: &u32,
        ns: &u32,
        _ed: &(),
        _gl: &NoGlobal,
    ) -> Option<u32> {
        (s < ns).then_some(*s)
    }
    fn combine(&self, into: &mut u32, from: u32) {
        *into = (*into).min(from);
    }
}

#[test]
fn cheap_apply_registers_on_sparse_and_dense_paths() {
    let n = 300;
    let g = path(n);
    let states: Vec<u32> = (0..n as u32).collect();
    let edge_data = vec![(); n - 1];
    for mode in [FrontierMode::Sparse, FrontierMode::Dense] {
        let cfg = ExecutionConfig::default().with_frontier_mode(mode);
        let engine = SyncEngine::new(&g, MinLabel, states.clone(), &edge_data);
        let (_, trace) = engine.run(&cfg);
        assert!(trace.converged);
        for (i, it) in trace.iterations.iter().enumerate() {
            assert!(it.active > 0 && it.apply_ns > 0, "{mode:?} iteration {i}");
        }
    }
}
