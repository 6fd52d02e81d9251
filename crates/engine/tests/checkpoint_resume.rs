//! Checkpoint/resume correctness: a run interrupted at an iteration
//! boundary and resumed from its checkpoint must reproduce the
//! uninterrupted run bitwise (states, behavior counters, convergence) —
//! only the wall-clock `apply_ns` may differ. Fault injection at the
//! checkpoint-write site must degrade durability, never correctness.

use graphmine_engine::{
    read_checkpoint, ActiveInit, ApplyInfo, CheckpointPolicy, CheckpointStats, DirectionMode,
    EdgeSet, ExecutionConfig, FaultKind, FaultPlan, FaultSite, NoGlobal, SyncEngine, VertexProgram,
};
use graphmine_gen::{powerlaw_graph, PowerLawConfig};
use graphmine_graph::{EdgeId, Graph, VertexId};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

/// Min-label propagation with a self-cancel tripwire: the program raises
/// the shared cancel flag while iteration `stop_at - 1` runs, and the
/// engine (which checks the flag at the next iteration boundary, letting
/// the raising iteration complete — pinned by
/// `cancel_flag_stops_run_mid_flight`) then stops with exactly `stop_at`
/// completed iterations — no racing threads, no timing.
struct SelfCancelMinLabel {
    stop_at: Option<usize>,
    cancel: Arc<AtomicBool>,
}

impl VertexProgram for SelfCancelMinLabel {
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
    fn initial_active(&self) -> ActiveInit {
        ActiveInit::All
    }
    fn before_iteration(&self, iter: usize, _states: &[u32], _global: &mut NoGlobal) {
        if self.stop_at == Some(iter + 1) {
            self.cancel.store(true, Ordering::Relaxed);
        }
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
        _e: EdgeId,
        _nbr: VertexId,
        state: &u32,
        nbr_state: &u32,
        _edge: &(),
        _g: &NoGlobal,
    ) -> Option<u32> {
        (*state < *nbr_state).then_some(*state)
    }
    fn combine(&self, into: &mut u32, from: u32) {
        *into = (*into).min(from);
    }
}

fn test_graph() -> Graph {
    powerlaw_graph(&PowerLawConfig::new(4000, 2.3, 42))
}

fn initial_states(g: &Graph) -> Vec<u32> {
    g.vertices().collect()
}

fn ckpt_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("gm-ckpt-tests-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    // Per-test tag so parallel tests never share checkpoint files.
    dir.join(tag)
}

fn engine(
    g: &Graph,
    stop_at: Option<usize>,
    cancel: Arc<AtomicBool>,
) -> SyncEngine<'_, SelfCancelMinLabel> {
    SyncEngine::new(
        g,
        SelfCancelMinLabel { stop_at, cancel },
        initial_states(g),
        // Unit edge data occupies no memory: the leaked slice costs nothing.
        vec![(); g.num_edges()].leak(),
    )
}

#[test]
fn resumed_run_is_bitwise_equal_to_uninterrupted() {
    let g = test_graph();
    let config = ExecutionConfig::with_max_iterations(100);

    // Reference: uninterrupted run, no checkpointing.
    let (ref_states, ref_trace) =
        engine(&g, None, Arc::new(AtomicBool::new(false))).run_resumable(&config);
    assert!(ref_trace.converged);
    assert!(
        ref_trace.num_iterations() >= 4,
        "graph converged too fast to interrupt"
    );

    for stop_at in [1usize, 2, 3] {
        let dir = ckpt_dir("bitwise");
        let stats = Arc::new(CheckpointStats::default());
        let policy = CheckpointPolicy::new(1, &dir, format!("resume-{stop_at}"))
            .with_stats(Arc::clone(&stats));
        for (_, gen) in policy.generations() {
            let _ = std::fs::remove_file(gen);
        }

        // Interrupted attempt: the program cancels itself at `stop_at`.
        let cancel = Arc::new(AtomicBool::new(false));
        let interrupted_cfg = ExecutionConfig::with_max_iterations(100)
            .with_cancel_flag(Arc::clone(&cancel))
            .with_checkpoint(policy.clone());
        let (_, interrupted_trace) =
            engine(&g, Some(stop_at), Arc::clone(&cancel)).run_resumable(&interrupted_cfg);
        assert!(!interrupted_trace.converged, "stop_at={stop_at}");
        assert_eq!(interrupted_trace.num_iterations(), stop_at);
        assert_eq!(
            policy.generations().len(),
            stop_at,
            "cancelled run must keep its checkpoint generations"
        );
        assert_eq!(stats.written.load(Ordering::Relaxed), stop_at as u64);

        // Resume: fresh engine, same policy → picks the checkpoint up.
        let resume_cfg = ExecutionConfig::with_max_iterations(100).with_checkpoint(policy.clone());
        let (resumed_states, resumed_trace) =
            engine(&g, None, Arc::new(AtomicBool::new(false))).run_resumable(&resume_cfg);
        assert_eq!(stats.restored.load(Ordering::Relaxed), 1);
        assert!(resumed_trace.converged);
        assert_eq!(resumed_states, ref_states, "stop_at={stop_at}");
        assert_eq!(
            resumed_trace.without_wall_clock(),
            ref_trace.without_wall_clock(),
            "stop_at={stop_at}"
        );
        assert!(
            policy.generations().is_empty(),
            "completed run must delete its checkpoint generations (stop_at={stop_at})"
        );
    }
}

#[test]
fn resume_is_bitwise_exact_under_every_direction_mode() {
    // Direction selection is stateless — a function of the frontier's
    // summed out-degree, the graph, and the config — so a resumed run must
    // re-derive the exact same push/pull choices the uninterrupted run
    // made, and the checkpoint format needs no direction field. Pin that
    // for all three modes, including `Auto`, whose per-iteration choice
    // flips as the min-label frontier collapses.
    let g = test_graph();

    for dir in [
        DirectionMode::Push,
        DirectionMode::Pull,
        DirectionMode::Auto,
    ] {
        let config = ExecutionConfig::with_max_iterations(100).with_direction(dir);
        let (ref_states, ref_trace) =
            engine(&g, None, Arc::new(AtomicBool::new(false))).run_resumable(&config);
        assert!(ref_trace.converged, "{dir:?}");
        assert!(
            ref_trace.num_iterations() >= 4,
            "{dir:?}: converged too fast to interrupt"
        );

        let stop_at = 2usize;
        let dir_tag = format!("direction-{dir:?}");
        let ckpt = ckpt_dir(&dir_tag);
        let policy = CheckpointPolicy::new(1, &ckpt, dir_tag.clone());
        for (_, gen) in policy.generations() {
            let _ = std::fs::remove_file(gen);
        }

        let cancel = Arc::new(AtomicBool::new(false));
        let interrupted_cfg = ExecutionConfig::with_max_iterations(100)
            .with_direction(dir)
            .with_cancel_flag(Arc::clone(&cancel))
            .with_checkpoint(policy.clone());
        let (_, interrupted_trace) =
            engine(&g, Some(stop_at), Arc::clone(&cancel)).run_resumable(&interrupted_cfg);
        assert!(!interrupted_trace.converged, "{dir:?}");
        assert!(
            !policy.generations().is_empty(),
            "{dir:?}: cancelled run must keep checkpoint"
        );

        let resume_cfg = ExecutionConfig::with_max_iterations(100)
            .with_direction(dir)
            .with_checkpoint(policy);
        let (resumed_states, resumed_trace) =
            engine(&g, None, Arc::new(AtomicBool::new(false))).run_resumable(&resume_cfg);
        assert_eq!(resumed_states, ref_states, "{dir:?}");
        assert_eq!(
            resumed_trace.without_wall_clock(),
            ref_trace.without_wall_clock(),
            "{dir:?}"
        );
        // The resumed tail must have re-chosen the same directions, not
        // merely the same counters.
        assert_eq!(
            resumed_trace
                .iterations
                .iter()
                .map(|it| it.direction)
                .collect::<Vec<_>>(),
            ref_trace
                .iterations
                .iter()
                .map(|it| it.direction)
                .collect::<Vec<_>>(),
            "{dir:?}: direction choices diverged across resume"
        );
    }
}

#[test]
fn explicit_resume_from_checkpoint_object() {
    let g = test_graph();
    let dir = ckpt_dir("explicit");
    let policy = CheckpointPolicy::new(1, &dir, "explicit");
    for (_, gen) in policy.generations() {
        let _ = std::fs::remove_file(gen);
    }

    let cancel = Arc::new(AtomicBool::new(false));
    let cfg = ExecutionConfig::with_max_iterations(100)
        .with_cancel_flag(Arc::clone(&cancel))
        .with_checkpoint(policy.clone());
    let (_, trace) = engine(&g, Some(2), Arc::clone(&cancel)).run_resumable(&cfg);
    assert_eq!(trace.num_iterations(), 2);

    let ckpt = read_checkpoint::<u32, u32, NoGlobal>(&policy.gen_path(2)).unwrap();
    assert_eq!(ckpt.completed_iterations, 2);

    // Continuation without any further checkpointing.
    let bare = ExecutionConfig::with_max_iterations(100);
    let (states, _, resumed) = engine(&g, None, Arc::new(AtomicBool::new(false)))
        .run_from_checkpoint(&bare, ckpt)
        .unwrap();
    let (ref_states, ref_trace) =
        engine(&g, None, Arc::new(AtomicBool::new(false))).run_resumable(&bare);
    assert_eq!(states, ref_states);
    assert_eq!(resumed.without_wall_clock(), ref_trace.without_wall_clock());
    for (_, gen) in policy.generations() {
        let _ = std::fs::remove_file(gen);
    }
}

#[test]
fn injected_checkpoint_write_faults_never_corrupt_the_run() {
    let g = test_graph();
    let dir = ckpt_dir("faulty-writes");
    let stats = Arc::new(CheckpointStats::default());
    let policy = CheckpointPolicy::new(1, &dir, "faulty").with_stats(Arc::clone(&stats));
    let _ = std::fs::remove_file(policy.path());

    // Fail every checkpoint write with an injected I/O error.
    let plan = Arc::new(FaultPlan::new());
    for i in 0..100u64 {
        plan.arm(FaultSite::CheckpointWrite, i, FaultKind::IoError);
    }
    let cfg = ExecutionConfig::with_max_iterations(100)
        .with_checkpoint(policy)
        .with_fault_plan(Arc::clone(&plan));
    let (states, trace) = engine(&g, None, Arc::new(AtomicBool::new(false))).run_resumable(&cfg);

    let (ref_states, ref_trace) = engine(&g, None, Arc::new(AtomicBool::new(false)))
        .run_resumable(&ExecutionConfig::with_max_iterations(100));
    assert_eq!(states, ref_states, "write faults must not change results");
    assert_eq!(trace.without_wall_clock(), ref_trace.without_wall_clock());
    assert!(stats.write_failures.load(Ordering::Relaxed) > 0);
    assert_eq!(stats.written.load(Ordering::Relaxed), 0);
    assert!(plan.fired() > 0);
}

#[test]
fn damaged_generations_fall_back_along_the_chain_bitwise() {
    let g = test_graph();
    let bare = ExecutionConfig::with_max_iterations(100);
    let (ref_states, ref_trace) =
        engine(&g, None, Arc::new(AtomicBool::new(false))).run_resumable(&bare);
    assert!(ref_trace.converged);
    assert!(
        ref_trace.num_iterations() >= 4,
        "graph converged too fast to interrupt"
    );

    let dir = ckpt_dir("gen-fallback");
    let stats = Arc::new(CheckpointStats::default());
    let policy = CheckpointPolicy::new(1, &dir, "gen-fallback")
        .with_stats(Arc::clone(&stats))
        .with_keep(3);

    // Interrupt after three iterations: generations 1, 2, 3 are on disk.
    let cancel = Arc::new(AtomicBool::new(false));
    let interrupted_cfg = ExecutionConfig::with_max_iterations(100)
        .with_cancel_flag(Arc::clone(&cancel))
        .with_checkpoint(policy.clone());
    let (_, interrupted_trace) =
        engine(&g, Some(3), Arc::clone(&cancel)).run_resumable(&interrupted_cfg);
    assert!(!interrupted_trace.converged);
    let gens: Vec<u64> = policy.generations().iter().map(|(n, _)| *n).collect();
    assert_eq!(gens, vec![1, 2, 3]);

    // Tear the newest generation (a crash mid-write that beat the rename)
    // and corrupt the one before it: resume must walk back to generation
    // 1, count the fallback, and still reproduce the reference bitwise.
    let g3 = std::fs::read(policy.gen_path(3)).unwrap();
    std::fs::write(policy.gen_path(3), &g3[..g3.len() / 3]).unwrap();
    std::fs::write(policy.gen_path(2), b"{\"version\":").unwrap();

    let resume_cfg = ExecutionConfig::with_max_iterations(100).with_checkpoint(policy);
    let (resumed_states, resumed_trace) =
        engine(&g, None, Arc::new(AtomicBool::new(false))).run_resumable(&resume_cfg);
    assert_eq!(stats.restored.load(Ordering::Relaxed), 1);
    assert_eq!(
        stats.fallbacks.load(Ordering::Relaxed),
        1,
        "resume must record that it skipped damaged generations"
    );
    assert!(resumed_trace.converged);
    assert_eq!(resumed_states, ref_states);
    assert_eq!(
        resumed_trace.without_wall_clock(),
        ref_trace.without_wall_clock(),
        "fallback resume from generation K-2 must be bitwise-exact"
    );
}

#[test]
fn seeded_fault_plans_are_reproducible() {
    let sites = [FaultSite::Iteration, FaultSite::CheckpointWrite];
    let a = FaultPlan::seeded(7, &sites, 50, 5);
    let b = FaultPlan::seeded(7, &sites, 50, 5);
    assert_eq!(a.remaining(), b.remaining());
    // Firing every (site, index) pair in order must trip identically.
    let mut fired_a = Vec::new();
    let mut fired_b = Vec::new();
    for site in sites {
        for i in 0..50u64 {
            // Panic faults would unwind; seeded plans may contain them, so
            // catch and record uniformly.
            let ra =
                std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| a.fire(site, i).is_err()))
                    .unwrap_or(true);
            let rb =
                std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| b.fire(site, i).is_err()))
                    .unwrap_or(true);
            fired_a.push(ra);
            fired_b.push(rb);
        }
    }
    assert_eq!(fired_a, fired_b);
    assert_eq!(a.fired(), b.fired());
    assert_eq!(a.remaining(), 0);
}
