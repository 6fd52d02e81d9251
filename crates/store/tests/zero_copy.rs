//! A stored workload loads with no heap copy of its data.
//!
//! Every data column of every workload class is a `SharedSlice<f64>`: a
//! view of the store file's mapping after `load_workload`, and shared, not
//! copied, by `clone` and `with_representation`. The live heap a load adds
//! is measured with a counting allocator, which is global to the test
//! binary, so the tests here take one lock and run one at a time.

use graphmine_algos::Workload;
use graphmine_graph::{Representation, SharedSlice};
use graphmine_store::{load_workload, pack_workload, StoredGraph};
use std::alloc::{GlobalAlloc, Layout, System};
use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

struct Counting;

static LIVE: AtomicUsize = AtomicUsize::new(0);

// SAFETY: every call is forwarded unchanged to the system allocator; the
// counter is a statistic that publishes no other data.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        LIVE.fetch_add(layout.size(), Ordering::Relaxed);
        System.alloc(layout)
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        LIVE.fetch_sub(layout.size(), Ordering::Relaxed);
        System.dealloc(ptr, layout)
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        LIVE.fetch_add(new_size, Ordering::Relaxed);
        LIVE.fetch_sub(layout.size(), Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Held by every test: a measurement sees only its own allocations.
static SERIAL: Mutex<()> = Mutex::new(());

/// Live heap a load may add whatever the graph's size: the `Graph` and
/// `Workload` headers, the section table lookups, the mapping's keeper.
const LOAD_HEAP_LIMIT: usize = 64 << 10;

/// Every data column of `w`, by its store section name. The patterns name
/// every field, so a column added to a class must be listed here.
fn columns(w: &Workload) -> Vec<(&'static str, &SharedSlice<f64>)> {
    match w {
        Workload::PowerLaw {
            graph: _,
            weights,
            px,
            py,
        } => vec![("c:weights", weights), ("c:px", px), ("c:py", py)],
        Workload::Ratings(rg) => {
            let graphmine_gen::RatingGraph {
                graph: _,
                ratings,
                num_users: _,
            } = rg;
            vec![("c:ratings", ratings)]
        }
        Workload::Matrix(ms) => {
            let graphmine_gen::MatrixSystem {
                graph: _,
                off_diagonal,
                diagonal,
                rhs,
            } = ms;
            vec![
                ("c:off_diag", off_diagonal),
                ("c:diagonal", diagonal),
                ("c:rhs", rhs),
            ]
        }
        Workload::Grid(grid) => {
            let graphmine_gen::GridMrf {
                graph: _,
                side: _,
                num_labels: _,
                priors,
                smoothing: _,
            } = grid;
            vec![("c:priors", priors)]
        }
        Workload::Mrf(mrf) => {
            let graphmine_gen::MrfGraph {
                graph: _,
                unary,
                pairwise,
                num_labels: _,
            } = mrf;
            vec![("c:unary", unary), ("c:pairwise", pairwise)]
        }
    }
}

/// One workload of each class, `scale` times the smallest size in edges
/// and vertices. Even at scale 1 each class holds more than
/// [`LOAD_HEAP_LIMIT`] of column data, so a copied column fails both
/// sizes.
fn every_class(scale: usize) -> Vec<(&'static str, Workload)> {
    let grid_side = (80.0 * (scale as f64).sqrt()) as usize;
    vec![
        ("powerlaw", Workload::powerlaw(20_000 * scale, 2.3, 5)),
        ("ratings", Workload::ratings(20_000 * scale, 2.3, 5)),
        ("matrix", Workload::matrix(2_500 * scale, 5)),
        ("grid", Workload::grid(grid_side, 5)),
        ("mrf", Workload::mrf(20_000 * scale, 5)),
    ]
}

fn pack(tag: &str, w: &Workload) -> (PathBuf, StoredGraph) {
    let dir =
        std::env::temp_dir().join(format!("graphmine-zero-copy-{tag}-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("w.gmg");
    pack_workload(&path, w, "test", 5).unwrap();
    let stored = StoredGraph::open(&path).unwrap();
    stored.verify().unwrap();
    (dir, stored)
}

#[test]
fn every_loaded_column_is_a_view_of_the_file() {
    let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    for (class, w) in every_class(1) {
        let (dir, stored) = pack(class, &w);
        let loaded = load_workload(&stored).unwrap();
        for ((name, a), (_, b)) in columns(&w).into_iter().zip(columns(&loaded)) {
            assert_eq!(a, b, "{class} {name}");
            if stored.is_mmap() {
                assert!(b.is_mapped(), "{class} {name} was copied to the heap");
                assert_eq!(b.heap_bytes(), 0, "{class} {name}");
            }
        }
        if stored.is_mmap() {
            assert!(loaded.graph().is_mapped(), "{class} topology");
        }
        std::fs::remove_dir_all(&dir).ok();
    }
}

#[test]
fn a_load_adds_the_same_small_heap_at_every_size() {
    let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    for scale in [1, 10] {
        for (class, w) in every_class(scale) {
            let (dir, stored) = pack(&format!("{class}-{scale}"), &w);
            if !stored.is_mmap() {
                std::fs::remove_dir_all(&dir).ok();
                continue;
            }
            let column_bytes: usize = columns(&w).iter().map(|(_, c)| c.len() * 8).sum();
            let before = LIVE.load(Ordering::Relaxed);
            let loaded = load_workload(&stored).unwrap();
            let added = LIVE.load(Ordering::Relaxed).saturating_sub(before);
            assert!(
                added < LOAD_HEAP_LIMIT,
                "{class} ×{scale}: loading added {added} B of heap \
                 ({column_bytes} B of columns)"
            );
            drop(loaded);
            std::fs::remove_dir_all(&dir).ok();
        }
    }
}

#[test]
fn clones_and_representation_changes_share_every_column() {
    let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    for (class, w) in every_class(1) {
        let (dir, stored) = pack(class, &w);
        let loaded = load_workload(&stored).unwrap();
        for source in [&w, &loaded] {
            let compressed = source
                .with_representation(Representation::Compressed)
                .unwrap();
            let plain = compressed
                .with_representation(Representation::Plain)
                .unwrap();
            for copy in [source.clone(), compressed, plain] {
                for ((name, a), (_, b)) in columns(source).into_iter().zip(columns(&copy)) {
                    assert_eq!(a.as_ptr(), b.as_ptr(), "{class} {name} was copied");
                    assert_eq!(a.is_mapped(), b.is_mapped(), "{class} {name}");
                }
            }
        }
        std::fs::remove_dir_all(&dir).ok();
    }
}
