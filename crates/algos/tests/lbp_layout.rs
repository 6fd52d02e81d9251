//! LBP's inline message/state layout changes what is allocated and what a
//! checkpoint looks like — never what is computed.

use graphmine_algos::lbp::{run_lbp, LbpMessage, LbpState, Packet, MAX_DEGREE};
use graphmine_engine::{
    read_latest_checkpoint, write_checkpoint_generation, CheckpointPolicy, CheckpointStats,
    DirectionChoice, DirectionMode, EngineCheckpoint, ExecutionConfig, FaultKind, FaultPlan,
    FaultSite, FrontierMode, IterationStats, RunTrace, CHECKPOINT_FORMAT_VERSION,
};
use graphmine_gen::GridMrf;
use graphmine_graph::VertexId;
use serde::{Deserialize, Serialize};
use std::sync::atomic::Ordering;
use std::sync::Arc;

fn cap(max_iterations: usize) -> ExecutionConfig {
    ExecutionConfig::with_max_iterations(max_iterations)
}

/// `(active, messages, apply_ops)` of one iteration.
type Row = (u64, u64, u64);

fn rows(trace: &RunTrace) -> Vec<Row> {
    trace
        .iterations
        .iter()
        .map(|i| (i.active, i.messages, i.apply_ops))
        .collect()
}

/// Per-iteration counts and MAP labels recorded from the nested-`Vec`
/// implementation (commit e12396f), which every direction and frontier
/// mode reproduced exactly. The message counts depend on which beliefs
/// moved by more than the tolerance, so they pin the float arithmetic and
/// its summation order, not just the topology.
#[test]
fn counts_and_labels_match_the_recorded_run() {
    let recorded: [(usize, u64, [Row; 4]); 2] = [
        (
            12,
            3,
            [
                (144, 528, 288),
                (144, 528, 1344),
                (144, 103, 1344),
                (46, 0, 442),
            ],
        ),
        (
            32,
            9,
            [
                (1024, 3968, 2048),
                (1024, 3968, 9984),
                (1024, 1010, 9984),
                (469, 0, 4600),
            ],
        ),
    ];
    for (side, seed, expected) in recorded {
        let mrf = GridMrf::generate(side, 2, seed);
        // Both recorded labelings are exactly the planted split: label 0
        // left of the middle column, label 1 from it on.
        let planted: Vec<usize> = (0..side * side)
            .map(|v| usize::from(v % side >= side / 2))
            .collect();
        for config in [
            cap(200),
            cap(200).with_direction(DirectionMode::Push),
            cap(200).with_direction(DirectionMode::Pull),
            cap(200).with_frontier_mode(FrontierMode::Sparse),
            cap(200).with_frontier_mode(FrontierMode::Dense),
            cap(200).sequential(),
        ] {
            let (labels, trace) = run_lbp(&mrf, &config);
            assert!(trace.converged);
            assert_eq!(rows(&trace), expected, "side {side}: {config:?}");
            assert_eq!(labels, planted, "side {side}: {config:?}");
            // Grid rows are sorted, so the default direction pulls LBP's
            // dense rounds despite its order-sensitive combine.
            if config.direction == DirectionMode::Auto {
                assert!(
                    trace
                        .iterations
                        .iter()
                        .any(|i| i.direction == DirectionChoice::Pull),
                    "side {side}: {config:?} never pulled"
                );
            }
        }
    }
}

fn ckpt_dir(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("gm-lbp-layout-{}-{tag}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// The state the nested-`Vec` implementation serialized.
#[derive(Serialize, Deserialize)]
struct NestedState {
    belief: Vec<f64>,
    incoming: Vec<(VertexId, Vec<f64>)>,
    delta: f64,
}

type NestedMessage = Vec<(VertexId, Vec<f64>)>;

/// A packet as the spill layout serialized it: four values whatever the
/// label count.
#[derive(Serialize, Deserialize)]
struct SpillPacket {
    sender: VertexId,
    values: [f64; 4],
}

/// The state the spill layout serialized: a `Vec` packet table.
#[derive(Serialize, Deserialize)]
struct SpillState {
    belief: [f64; 4],
    incoming: Vec<SpillPacket>,
    delta: f64,
}

/// The message the spill layout serialized: one inline packet, later
/// packets in a `Vec`.
#[derive(Serialize, Deserialize)]
struct SpillMessage {
    first: SpillPacket,
    rest: Vec<SpillPacket>,
}

/// An 8 × 8 grid checkpoint at boundary 1 with the given states and inbox.
fn fixture<S, M>(
    mrf: &GridMrf,
    states: Vec<S>,
    inbox: Vec<(VertexId, M)>,
) -> EngineCheckpoint<S, M, usize> {
    let (n, m) = (mrf.graph.num_vertices(), mrf.graph.num_edges());
    EngineCheckpoint {
        version: CHECKPOINT_FORMAT_VERSION,
        num_vertices: n as u64,
        num_edges: m as u64,
        completed_iterations: 1,
        states,
        frontier: (0..n as VertexId).collect(),
        inbox,
        global: 1,
        trace: RunTrace {
            num_vertices: n as u64,
            num_edges: m as u64,
            iterations: vec![IterationStats::default()],
            converged: false,
        },
    }
}

/// Schema drift must never lose a job: `old`, a resumable checkpoint of
/// an earlier layout, is one more unreadable generation for today's
/// types, and the run starts over.
fn assert_skipped_and_restarted<S, M>(mrf: &GridMrf, tag: &str, old: EngineCheckpoint<S, M, usize>)
where
    S: Serialize + serde::de::DeserializeOwned,
    M: Serialize + serde::de::DeserializeOwned,
{
    let (n, m) = (mrf.graph.num_vertices(), mrf.graph.num_edges());
    let stats = Arc::new(CheckpointStats::default());
    let policy = CheckpointPolicy::new(1, ckpt_dir(tag), "lbp").with_stats(Arc::clone(&stats));
    write_checkpoint_generation(&policy, &old).expect("write fixture");
    // Read as what it is, the fixture is a resumable checkpoint …
    let (same, skipped) = read_latest_checkpoint::<S, M, usize>(&policy, n, m);
    assert!(same.is_some() && skipped == 0);
    // … read as today's types it is skipped, not an error.
    let (inline, skipped) =
        read_latest_checkpoint::<LbpState<2>, LbpMessage<2>, usize>(&policy, n, m);
    assert!(inline.is_none());
    assert_eq!(skipped, 1);

    let (fresh_labels, fresh_trace) = run_lbp(mrf, &cap(200));
    let (labels, trace) = run_lbp(mrf, &cap(200).with_checkpoint(policy.clone()));
    assert_eq!(stats.restored.load(Ordering::Relaxed), 0);
    assert_eq!(labels, fresh_labels);
    assert_eq!(trace.without_wall_clock(), fresh_trace.without_wall_clock());
    assert!(policy.generations().is_empty(), "finished run left files");
}

#[test]
fn old_shape_checkpoint_is_skipped_and_the_job_restarts() {
    let mrf = GridMrf::generate(8, 2, 5);
    let states = mrf
        .priors
        .chunks(mrf.num_labels)
        .map(|p| NestedState {
            belief: p.to_vec(),
            incoming: vec![(0, vec![0.0, -1.0])],
            delta: 0.5,
        })
        .collect();
    let inbox: Vec<(VertexId, NestedMessage)> =
        vec![(1, vec![(0, vec![0.0, -1.0]), (2, vec![-0.5, 0.0])])];
    assert_skipped_and_restarted(&mrf, "old-shape", fixture(&mrf, states, inbox));
}

/// The same for the layout with a `Vec` packet table per state and a
/// per-destination spill `Vec`.
#[test]
fn spill_shape_checkpoint_is_skipped_and_the_job_restarts() {
    let mrf = GridMrf::generate(8, 2, 5);
    let packet = |sender, [a, b]: [f64; 2]| SpillPacket {
        sender,
        values: [a, b, 0.0, 0.0],
    };
    let states = mrf
        .priors
        .chunks(mrf.num_labels)
        .map(|p| SpillState {
            belief: [p[0], p[1], 0.0, 0.0],
            incoming: vec![packet(0, [0.0, -1.0])],
            delta: 0.5,
        })
        .collect();
    let inbox = vec![(
        1,
        SpillMessage {
            first: packet(0, [0.0, -1.0]),
            rest: vec![packet(2, [-0.5, 0.0])],
        },
    )];
    assert_skipped_and_restarted(&mrf, "spill-shape", fixture(&mrf, states, inbox));
}

/// Today's state shape with a packet table of any length.
#[derive(Serialize, Deserialize)]
struct TableState {
    belief: [f64; 2],
    incoming: Vec<Packet<2>>,
    delta: f64,
}

/// A packet table longer than `MAX_DEGREE` cannot come from a run; a file
/// that holds one is rejected like any unreadable generation.
#[test]
fn overfull_packet_table_is_skipped_and_the_job_restarts() {
    let mrf = GridMrf::generate(8, 2, 5);
    let incoming: Vec<Packet<2>> = (0..=MAX_DEGREE as VertexId)
        .map(|sender| Packet {
            sender,
            values: [0.0, -1.0],
        })
        .collect();
    let states = mrf
        .priors
        .chunks(mrf.num_labels)
        .map(|p| TableState {
            belief: [p[0], p[1]],
            incoming: incoming.clone(),
            delta: 0.5,
        })
        .collect();
    let inbox: Vec<(VertexId, LbpMessage<2>)> = Vec::new();
    assert_skipped_and_restarted(&mrf, "overfull", fixture(&mrf, states, inbox));
}

/// A checkpoint taken with messages in flight (more than one packet to a
/// destination) resumes to the uninterrupted run's result.
#[test]
fn checkpoint_round_trips_in_flight_messages() {
    let mrf = GridMrf::generate(8, 2, 5);
    let (fresh_labels, fresh_trace) = run_lbp(&mrf, &cap(200));
    assert!(fresh_trace.iterations[1].messages > 0);

    let stats = Arc::new(CheckpointStats::default());
    let policy = CheckpointPolicy::new(1, ckpt_dir("resume"), "lbp").with_stats(Arc::clone(&stats));
    // Die entering iteration 2, after the boundary-2 checkpoint is written.
    let plan = FaultPlan::new();
    plan.arm(FaultSite::Iteration, 2, FaultKind::Panic);
    let doomed = cap(200)
        .with_checkpoint(policy.clone())
        .with_fault_plan(Arc::new(plan));
    let crashed = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        run_lbp(&mrf, &doomed);
    }));
    assert!(crashed.is_err());
    let (ckpt, _) = read_latest_checkpoint::<LbpState<2>, LbpMessage<2>, usize>(
        &policy,
        mrf.graph.num_vertices(),
        mrf.graph.num_edges(),
    );
    let ckpt = ckpt.expect("boundary checkpoint");
    assert_eq!(ckpt.completed_iterations, 2);
    assert!(ckpt.inbox.iter().any(|(_, msg)| msg.packets().count() > 1));

    let (labels, trace) = run_lbp(&mrf, &cap(200).with_checkpoint(policy));
    assert_eq!(stats.restored.load(Ordering::Relaxed), 1);
    assert_eq!(labels, fresh_labels);
    assert_eq!(trace.without_wall_clock(), fresh_trace.without_wall_clock());
}
