//! LBP allocates nothing per vertex.
//!
//! States and messages are fixed-size `Copy` values (packet tables held
//! inline, label arrays sized to the run), so a run allocates only the
//! engine's own buffers: the state double buffer, the inbox, frontier and
//! task scratch, the trace. Their number follows neither the vertex count
//! nor how many messages flow. This file holds one test because the
//! counting allocator is global to the test binary.

use graphmine_algos::lbp::run_lbp;
use graphmine_engine::ExecutionConfig;
use graphmine_gen::GridMrf;
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

struct Counting;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

// SAFETY: every call is forwarded unchanged to the system allocator; the
// counter is a statistic that publishes no other data.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Allocations (and reallocations) made by one LBP run capped at
/// `max_iterations`, plus the messages it sent.
fn run_counted(mrf: &GridMrf, max_iterations: usize) -> (u64, u64) {
    let before = ALLOCATIONS.load(Ordering::Relaxed);
    let (_, trace) = run_lbp(mrf, &ExecutionConfig::with_max_iterations(max_iterations));
    let allocations = ALLOCATIONS.load(Ordering::Relaxed) - before;
    (
        allocations,
        trace.iterations.iter().map(|i| i.messages).sum(),
    )
}

#[test]
fn allocations_follow_vertices_not_messages() {
    let mrf = GridMrf::generate(64, 2, 7);
    let n = mrf.graph.num_vertices() as u64;
    // One pool thread: nothing else allocates while the run is counted.
    let pool = rayon::ThreadPoolBuilder::new()
        .num_threads(1)
        .build()
        .expect("build pool");
    let ((short, short_msgs), (long, _)) =
        pool.install(|| (run_counted(&mrf, 3), run_counted(&mrf, 20)));
    assert!(short_msgs > 8 * n, "only {short_msgs} messages sent");
    // Measured: 104 allocations at cap 3 and 119 at cap 20 for 4 096
    // vertices. One allocation per vertex (a heap packet table, a spill
    // per destination) or per message (9|V| of them) would exceed the
    // bound many times over.
    assert!(short <= n / 16, "{short} allocations for {n} vertices");
    assert!(long <= n / 16, "{long} allocations for {n} vertices");
}
