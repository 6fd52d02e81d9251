//! The synchronous engine's working memory follows |V|, not |E| or one
//! round's message count.
//!
//! Two engine properties keep it there: the push exchange runs in waves
//! of at most |V| planned edge work, each wave's outboxes sized to that
//! work, so the outboxes never hold a whole dense round's messages nor an
//! earlier wave's capacity, and the engine borrows per-edge data instead
//! of copying the input's edge columns. A third follows from the direction
//! rule: on sorted rows `Auto` pulls LBP's dense rounds, which need no
//! outbox at all. This file holds one test because the counting allocator
//! is global to the test binary.

use graphmine_algos::lbp::{run_lbp, LbpMessage};
use graphmine_algos::sssp::run_sssp;
use graphmine_engine::{DirectionMode, ExecutionConfig};
use graphmine_gen::{gaussian_edge_weights, powerlaw_graph, GridMrf, PowerLawConfig};
use graphmine_graph::VertexId;
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

struct Counting;

static LIVE: AtomicUsize = AtomicUsize::new(0);
static PEAK: AtomicUsize = AtomicUsize::new(0);

fn grow(bytes: usize) {
    let live = LIVE.fetch_add(bytes, Ordering::Relaxed) + bytes;
    PEAK.fetch_max(live, Ordering::Relaxed);
}

// SAFETY: every call is forwarded unchanged to the system allocator; the
// counters are statistics that publish no other data.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        grow(layout.size());
        System.alloc(layout)
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        LIVE.fetch_sub(layout.size(), Ordering::Relaxed);
        System.dealloc(ptr, layout)
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        if new_size >= layout.size() {
            grow(new_size - layout.size());
        } else {
            LIVE.fetch_sub(layout.size() - new_size, Ordering::Relaxed);
        }
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Peak live heap, in bytes above what was live when `run` started.
fn peak_of<R>(run: impl FnOnce() -> R) -> usize {
    let before = LIVE.load(Ordering::Relaxed);
    PEAK.store(before, Ordering::Relaxed);
    drop(run());
    PEAK.load(Ordering::Relaxed) - before
}

#[test]
fn engine_memory_follows_vertices_not_messages() {
    // One pool thread: nothing else allocates while a run is measured.
    let pool = rayon::ThreadPoolBuilder::new()
        .num_threads(1)
        .build()
        .expect("build pool");
    let push = ExecutionConfig::default().with_direction(DirectionMode::Push);

    // SSSP's dense push rounds send about 9 messages per vertex (16 B each,
    // plus 4 B of bucketing scratch), and a copy of the weight column would
    // cost 8 B per edge. Measured: 76 B/vertex with waves, outboxes sized
    // to each wave's planned work (kept up to twice it) and borrowed
    // weights; 101 B/vertex when
    // pooled outboxes kept the heaviest wave's capacity (2.6 |V| entries);
    // 384 B/vertex with one outbox per round and a copied column. The
    // bound leaves 25 % headroom over 76.
    let graph = powerlaw_graph(&PowerLawConfig::new(200_000, 2.3, 42));
    let weights = gaussian_edge_weights(graph.num_edges(), 42);
    let n = graph.num_vertices();
    let sssp = pool.install(|| peak_of(|| run_sssp(&graph, &weights, 0, &push)));
    let per_vertex = sssp as f64 / n as f64;
    assert!(
        per_vertex <= 96.0,
        "forced-push SSSP peaked at {per_vertex:.1} B/vertex ({sssp} B, {n} vertices)"
    );

    // LBP's default run pulls its dense rounds, so it needs no outbox: it
    // peaks at least half an outbox entry per vertex below forced push
    // (measured: 118 B/vertex below, with 112 B entries). What stays is
    // per-vertex state, all of it inline: two state buffers of 128 B
    // (two beliefs, a four-packet table, the delta) and a 104 B inbox
    // message, plus frontier and task scratch: measured at 395 B/vertex.
    let mrf = GridMrf::generate(96, 2, 42);
    let n = mrf.graph.num_vertices();
    let lbp_auto = pool.install(|| peak_of(|| run_lbp(&mrf, &ExecutionConfig::default())));
    let lbp_push = pool.install(|| peak_of(|| run_lbp(&mrf, &push)));
    let entry = std::mem::size_of::<(VertexId, LbpMessage<2>)>();
    assert!(
        lbp_push >= lbp_auto + n * entry / 2,
        "default LBP peaked at {lbp_auto} B, forced push at {lbp_push} B ({n} vertices)"
    );
    let per_vertex = lbp_auto as f64 / n as f64;
    assert!(
        per_vertex <= 480.0,
        "default LBP peaked at {per_vertex:.1} B/vertex ({lbp_auto} B, {n} vertices)"
    );
}
