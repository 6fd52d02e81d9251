//! The run database: every `<algorithm, graph>` execution the study
//! produced, with enough metadata to rebuild every figure.

use crate::behavior::{normalize_behaviors, BehaviorVector, RawBehavior, WorkMetric};
use graphmine_engine::{FaultSite, IoShim, RunTrace};
use serde::{Deserialize, Serialize};
use std::io;
use std::path::Path;

/// The graph configuration of a run (paper Table 2 row).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct GraphSpec {
    /// Configured size parameter: `nedges` for power-law/CF/MRF inputs,
    /// `nrows` for matrices, grid side for LBP.
    pub size: u64,
    /// Power-law exponent, when the input has one.
    pub alpha: Option<f64>,
    /// Human-readable size label used in figures ("1e5" etc.).
    pub label: String,
}

impl GraphSpec {
    /// Key identifying a graph structure (size, alpha) for single-graph
    /// ensembles.
    pub fn structure_key(&self) -> (u64, Option<u64>) {
        (self.size, self.alpha.map(|a| (a * 1000.0) as u64))
    }
}

/// One run record: `<algorithm, graph>` plus its measured behavior.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RunRecord {
    /// Algorithm abbreviation ("CC", "ALS", …).
    pub algorithm: String,
    /// Application domain name.
    pub domain: String,
    /// The input graph configuration.
    pub graph: GraphSpec,
    /// Generator seed.
    pub seed: u64,
    /// Iterations executed.
    pub iterations: usize,
    /// Whether the run converged before its cap.
    pub converged: bool,
    /// Vertices in the realized graph.
    pub num_vertices: u64,
    /// Edges in the realized graph.
    pub num_edges: u64,
    /// Active-fraction series (for the Figure 1/5/7/11 plots); truncated to
    /// at most 512 entries to bound storage.
    pub active_fraction: Vec<f64>,
    /// Per-edge behavior with wall-clock WORK.
    pub behavior_wall: RawBehavior,
    /// Per-edge behavior with logical-ops WORK.
    pub behavior_ops: RawBehavior,
    /// End-to-end wall-clock runtime of the run in milliseconds (0 when
    /// not measured — e.g. records built directly from traces).
    #[serde(default)]
    pub runtime_ms: f64,
    /// Tenant that submitted the run, when the producing server had
    /// multi-tenancy enabled (`None` for single-tenant and offline runs).
    #[serde(default)]
    pub tenant: Option<String>,
}

impl RunRecord {
    /// Build a record from a finished trace.
    #[allow(clippy::too_many_arguments)]
    pub fn from_trace(
        algorithm: &str,
        domain: &str,
        graph: GraphSpec,
        seed: u64,
        trace: &RunTrace,
    ) -> RunRecord {
        let mut active_fraction = trace.active_fraction();
        if active_fraction.len() > 512 {
            active_fraction.truncate(512);
        }
        RunRecord {
            algorithm: algorithm.to_string(),
            domain: domain.to_string(),
            graph,
            seed,
            iterations: trace.num_iterations(),
            converged: trace.converged,
            num_vertices: trace.num_vertices,
            num_edges: trace.num_edges,
            active_fraction,
            behavior_wall: RawBehavior::from_trace(trace, WorkMetric::WallNanos),
            behavior_ops: RawBehavior::from_trace(trace, WorkMetric::LogicalOps),
            runtime_ms: 0.0,
            tenant: None,
        }
    }

    /// Attach a measured end-to-end runtime.
    pub fn with_runtime_ms(mut self, ms: f64) -> RunRecord {
        self.runtime_ms = ms;
        self
    }

    /// Attach the submitting tenant's id.
    pub fn with_tenant(mut self, tenant: Option<String>) -> RunRecord {
        self.tenant = tenant;
        self
    }

    /// The selected raw behavior.
    pub fn raw(&self, metric: WorkMetric) -> RawBehavior {
        match metric {
            WorkMetric::WallNanos => self.behavior_wall,
            WorkMetric::LogicalOps => self.behavior_ops,
        }
    }
}

/// The full study database.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct RunDb {
    /// All recorded runs.
    pub runs: Vec<RunRecord>,
}

impl RunDb {
    /// Create an empty database.
    pub fn new() -> RunDb {
        RunDb::default()
    }

    /// Number of runs.
    pub fn len(&self) -> usize {
        self.runs.len()
    }

    /// Whether the database is empty.
    pub fn is_empty(&self) -> bool {
        self.runs.is_empty()
    }

    /// Add a run.
    pub fn push(&mut self, record: RunRecord) {
        self.runs.push(record);
    }

    /// Normalized behavior vectors for all runs (database-level max
    /// scaling, paper §3.4).
    pub fn behaviors(&self, metric: WorkMetric) -> Vec<BehaviorVector> {
        let raw: Vec<RawBehavior> = self.runs.iter().map(|r| r.raw(metric)).collect();
        normalize_behaviors(&raw)
    }

    /// Indices of runs of one algorithm.
    pub fn indices_of_algorithm(&self, algorithm: &str) -> Vec<usize> {
        self.runs
            .iter()
            .enumerate()
            .filter(|(_, r)| r.algorithm == algorithm)
            .map(|(i, _)| i)
            .collect()
    }

    /// Indices of runs on one graph structure (size + alpha).
    pub fn indices_of_graph(&self, size: u64, alpha: Option<f64>) -> Vec<usize> {
        let key = (size, alpha.map(|a| (a * 1000.0) as u64));
        self.runs
            .iter()
            .enumerate()
            .filter(|(_, r)| r.graph.structure_key() == key)
            .map(|(i, _)| i)
            .collect()
    }

    /// Distinct algorithm abbreviations, in first-appearance order.
    pub fn algorithms(&self) -> Vec<String> {
        let mut seen = Vec::new();
        for r in &self.runs {
            if !seen.contains(&r.algorithm) {
                seen.push(r.algorithm.clone());
            }
        }
        seen
    }

    /// Distinct graph structures `(size, alpha)` in first-appearance order.
    pub fn graph_structures(&self) -> Vec<(u64, Option<f64>)> {
        let mut seen: Vec<(u64, Option<f64>)> = Vec::new();
        for r in &self.runs {
            let item = (r.graph.size, r.graph.alpha);
            if !seen.iter().any(|s| {
                s.0 == item.0
                    && s.1.map(|a| (a * 1000.0) as u64) == item.1.map(|a| (a * 1000.0) as u64)
            }) {
                seen.push(item);
            }
        }
        seen
    }

    /// Algorithm label per run (aligned with `behaviors()` indices).
    pub fn labels(&self) -> Vec<String> {
        self.runs.iter().map(|r| r.algorithm.clone()).collect()
    }

    /// Iteration count per run (for cost accounting).
    pub fn iteration_counts(&self) -> Vec<usize> {
        self.runs.iter().map(|r| r.iterations).collect()
    }

    /// Serialize to JSON at `path`, atomically: the JSON is written to a
    /// temporary file in the same directory and renamed over the target, so
    /// a crash mid-write can never leave a truncated database behind — the
    /// previous version stays intact until the rename commits.
    pub fn save(&self, path: &Path) -> io::Result<()> {
        self.save_with(path, &IoShim::disabled())
    }

    /// [`RunDb::save`] with durable I/O routed through a fault-injection
    /// shim at the [`FaultSite::DbPersist`] site. An injected fault errors
    /// out of the save while the previous on-disk version stays intact
    /// (torn writes land only in the temp sibling, which the recovery path
    /// in [`RunDb::load_or_recover`] already knows to triage).
    pub fn save_with(&self, path: &Path, shim: &IoShim) -> io::Result<()> {
        let json = serde_json::to_string(self).map_err(io::Error::other)?;
        let tmp = tmp_path_for(path);
        shim.write_atomic(FaultSite::DbPersist, None, path, &tmp, json.as_bytes())
    }

    /// Load from JSON at `path`, distinguishing I/O failure from corrupt
    /// content so callers can decide to recover instead of erroring out.
    pub fn load(path: &Path) -> Result<RunDb, LoadError> {
        let data = std::fs::read_to_string(path).map_err(LoadError::Io)?;
        serde_json::from_str(&data).map_err(|e| LoadError::Corrupt {
            path: path.to_path_buf(),
            detail: e.to_string(),
        })
    }

    /// Load from `path`, falling back to the best parseable temp sibling
    /// when the canonical file is missing or corrupt. Siblings are the
    /// `{name}.tmp.{pid}.{n}` files [`RunDb::save`] renames from: a writer
    /// that crashed between write and rename leaves a complete database
    /// under the temp name, and that database may hold *more* runs than the
    /// canonical file. Among parseable candidates the one with the most
    /// runs wins. Returns the database and whether recovery was used; errs
    /// with the canonical file's own failure when nothing is salvageable.
    pub fn load_or_recover(path: &Path) -> Result<(RunDb, bool), LoadError> {
        match RunDb::load(path) {
            Ok(db) => Ok((db, false)),
            Err(primary) => match best_temp_sibling(path) {
                Some(db) => Ok((db, true)),
                None => Err(primary),
            },
        }
    }
}

/// Why a [`RunDb`] could not be loaded.
#[derive(Debug)]
pub enum LoadError {
    /// The file could not be read (includes not-found).
    Io(io::Error),
    /// The file was readable but not valid run-database JSON (truncated by
    /// disk corruption, or not a database at all).
    Corrupt {
        /// The file that failed to parse.
        path: std::path::PathBuf,
        /// The parser's diagnostic.
        detail: String,
    },
}

impl std::fmt::Display for LoadError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            LoadError::Io(e) => write!(f, "run database I/O error: {e}"),
            LoadError::Corrupt { path, detail } => {
                write!(f, "corrupt run database {}: {detail}", path.display())
            }
        }
    }
}

impl std::error::Error for LoadError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            LoadError::Io(e) => Some(e),
            LoadError::Corrupt { .. } => None,
        }
    }
}

impl From<io::Error> for LoadError {
    fn from(e: io::Error) -> LoadError {
        LoadError::Io(e)
    }
}

/// Keeps `RunDb::load(path)?` working in `io::Result` functions.
impl From<LoadError> for io::Error {
    fn from(e: LoadError) -> io::Error {
        match e {
            LoadError::Io(inner) => inner,
            corrupt => io::Error::new(io::ErrorKind::InvalidData, corrupt.to_string()),
        }
    }
}

/// The largest parseable database among `path`'s temp siblings, if any.
fn best_temp_sibling(path: &Path) -> Option<RunDb> {
    let dir = match path.parent() {
        Some(d) if !d.as_os_str().is_empty() => d,
        _ => Path::new("."),
    };
    let prefix = format!("{}.tmp.", path.file_name()?.to_string_lossy());
    let mut best: Option<RunDb> = None;
    for entry in std::fs::read_dir(dir).ok()?.flatten() {
        if !entry.file_name().to_string_lossy().starts_with(&prefix) {
            continue;
        }
        let Ok(text) = std::fs::read_to_string(entry.path()) else {
            continue;
        };
        let Ok(db) = serde_json::from_str::<RunDb>(&text) else {
            continue;
        };
        if best.as_ref().is_none_or(|b| db.len() > b.len()) {
            best = Some(db);
        }
    }
    best
}

/// Unique sibling path for the write-then-rename dance. Same directory as
/// the target so the rename stays within one filesystem (atomic on POSIX).
fn tmp_path_for(path: &Path) -> std::path::PathBuf {
    use std::sync::atomic::{AtomicU64, Ordering};
    static COUNTER: AtomicU64 = AtomicU64::new(0);
    let n = COUNTER.fetch_add(1, Ordering::Relaxed);
    let pid = std::process::id();
    let name = path
        .file_name()
        .map(|f| f.to_string_lossy().into_owned())
        .unwrap_or_else(|| "rundb".to_string());
    path.with_file_name(format!("{name}.tmp.{pid}.{n}"))
}

/// A [`RunDb`] behind a mutex: many worker threads append finished runs
/// while readers take consistent snapshots. Persistence goes through the
/// atomic [`RunDb::save`], serialized under the same lock so two concurrent
/// saves can never interleave their temp-file renames out of order.
#[derive(Debug, Default)]
pub struct SharedRunDb {
    inner: std::sync::Mutex<RunDb>,
}

impl SharedRunDb {
    /// Wrap an existing database.
    pub fn new(db: RunDb) -> SharedRunDb {
        SharedRunDb {
            inner: std::sync::Mutex::new(db),
        }
    }

    /// Lock helper: a poisoned mutex just means a writer panicked mid-push;
    /// the `RunDb` itself is always structurally valid, so keep going.
    fn lock(&self) -> std::sync::MutexGuard<'_, RunDb> {
        self.inner.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Number of runs currently recorded.
    pub fn len(&self) -> usize {
        self.lock().len()
    }

    /// Whether the database is empty.
    pub fn is_empty(&self) -> bool {
        self.lock().is_empty()
    }

    /// Append a run, returning its index in the database.
    pub fn append(&self, record: RunRecord) -> usize {
        let mut db = self.lock();
        db.push(record);
        db.len() - 1
    }

    /// A consistent point-in-time copy of the whole database.
    pub fn snapshot(&self) -> RunDb {
        self.lock().clone()
    }

    /// Persist the current contents atomically. The lock is held across
    /// serialization and rename, so the file always reflects a consistent
    /// prefix of appends.
    pub fn save(&self, path: &Path) -> io::Result<()> {
        self.lock().save(path)
    }

    /// [`SharedRunDb::save`] through a fault-injection shim.
    pub fn save_with(&self, path: &Path, shim: &IoShim) -> io::Result<()> {
        self.lock().save_with(path, shim)
    }

    /// Append then persist in one critical section.
    pub fn append_and_save(&self, record: RunRecord, path: &Path) -> io::Result<usize> {
        self.append_and_save_with(record, path, &IoShim::disabled())
    }

    /// [`SharedRunDb::append_and_save`] through a fault-injection shim. The
    /// append lands in memory even when the persist faults: the record is
    /// not lost, only its durability is delayed until the next save.
    pub fn append_and_save_with(
        &self,
        record: RunRecord,
        path: &Path,
        shim: &IoShim,
    ) -> io::Result<usize> {
        let mut db = self.lock();
        db.push(record);
        let index = db.len() - 1;
        db.save_with(path, shim)?;
        Ok(index)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use graphmine_engine::IterationStats;

    fn record(alg: &str, size: u64, alpha: f64, updt: u64) -> RunRecord {
        let trace = RunTrace {
            num_vertices: 10,
            num_edges: 10,
            iterations: vec![IterationStats {
                active: 10,
                updates: updt,
                edge_reads: 20,
                messages: 5,
                apply_ns: 100,
                apply_ops: 50,
                remote_edge_reads: 0,
                remote_messages: 0,
                frontier_density: 1.0,
                ..IterationStats::default()
            }],
            converged: true,
        };
        RunRecord::from_trace(
            alg,
            "GA",
            GraphSpec {
                size,
                alpha: Some(alpha),
                label: format!("{size}"),
            },
            0,
            &trace,
        )
    }

    fn sample_db() -> RunDb {
        let mut db = RunDb::new();
        db.push(record("CC", 100, 2.0, 10));
        db.push(record("CC", 1000, 2.5, 8));
        db.push(record("PR", 100, 2.0, 6));
        db.push(record("ALS", 1000, 2.5, 4));
        db
    }

    #[test]
    fn filters() {
        let db = sample_db();
        assert_eq!(db.indices_of_algorithm("CC"), vec![0, 1]);
        assert_eq!(db.indices_of_algorithm("ALS"), vec![3]);
        assert_eq!(db.indices_of_graph(100, Some(2.0)), vec![0, 2]);
        assert_eq!(db.indices_of_graph(999, Some(2.0)), Vec::<usize>::new());
    }

    #[test]
    fn distinct_listings() {
        let db = sample_db();
        assert_eq!(db.algorithms(), vec!["CC", "PR", "ALS"]);
        assert_eq!(db.graph_structures().len(), 2);
    }

    #[test]
    fn behaviors_normalized() {
        let db = sample_db();
        let b = db.behaviors(WorkMetric::LogicalOps);
        assert_eq!(b.len(), 4);
        // UPDT dimension: max is run 0 (10 updates / 10 edges = 1.0 raw).
        assert_eq!(b[0].0[0], 1.0);
        assert!((b[3].0[0] - 0.4).abs() < 1e-12);
    }

    #[test]
    fn save_load_round_trip() {
        let db = sample_db();
        let dir = std::env::temp_dir().join("graphmine_rundb_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("db.json");
        db.save(&path).unwrap();
        let back = RunDb::load(&path).unwrap();
        assert_eq!(db, back);
    }

    #[test]
    fn save_leaves_no_temp_files_behind() {
        let db = sample_db();
        let dir = std::env::temp_dir().join("graphmine_rundb_tmpclean_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("db.json");
        db.save(&path).unwrap();
        db.save(&path).unwrap();
        let leftovers: Vec<String> = std::fs::read_dir(&dir)
            .unwrap()
            .filter_map(|e| e.ok())
            .map(|e| e.file_name().to_string_lossy().into_owned())
            .filter(|n| n.contains(".tmp."))
            .collect();
        assert!(
            leftovers.is_empty(),
            "temp files left behind: {leftovers:?}"
        );
    }

    #[test]
    fn partial_write_crash_never_corrupts_existing_db() {
        // Simulate a crash mid-save: a good database exists on disk, then a
        // writer gets as far as dumping partial JSON into a temp sibling and
        // dies before the rename. The original file must still load intact.
        let db = sample_db();
        let dir = std::env::temp_dir().join("graphmine_rundb_crash_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("db.json");
        db.save(&path).unwrap();
        // The "crash": a partial write to the same temp naming scheme the
        // real save uses, never renamed.
        let orphan = tmp_path_for(&path);
        std::fs::write(&orphan, "{\"runs\":[{\"algorithm\":\"CC\",\"dom").unwrap();
        let back = RunDb::load(&path).unwrap();
        assert_eq!(db, back);
        std::fs::remove_file(&orphan).unwrap();
    }

    #[test]
    fn injected_persist_fault_leaves_previous_db_intact() {
        use graphmine_engine::{FaultKind, FaultPlan};
        let dir =
            std::env::temp_dir().join(format!("graphmine_rundb_shim_test_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("db.json");
        let db = sample_db();
        db.save(&path).unwrap();

        let mut bigger = db.clone();
        bigger.push(record("PR", 1000, 2.5, 7));
        let plan = FaultPlan::new();
        plan.arm(FaultSite::DbPersist, 0, FaultKind::TornWrite);
        let shim = IoShim::armed(std::sync::Arc::new(plan));
        let err = bigger.save_with(&path, &shim).unwrap_err();
        assert!(err.to_string().contains("injected torn write"));
        // The canonical file still holds the previous generation.
        assert_eq!(RunDb::load(&path).unwrap(), db);
        // A retry through the now-exhausted plan lands the new version.
        bigger.save_with(&path, &shim).unwrap();
        assert_eq!(RunDb::load(&path).unwrap(), bigger);
    }

    #[test]
    fn load_errors_are_typed() {
        let dir = std::env::temp_dir().join("graphmine_rundb_loaderr_test");
        std::fs::create_dir_all(&dir).unwrap();
        let missing = RunDb::load(&dir.join("nope.json")).unwrap_err();
        match missing {
            LoadError::Io(e) => assert_eq!(e.kind(), io::ErrorKind::NotFound),
            other => panic!("expected Io, got {other}"),
        }
        let garbled = dir.join("garbled.json");
        std::fs::write(&garbled, "{\"runs\":[{\"algori").unwrap();
        assert!(matches!(
            RunDb::load(&garbled),
            Err(LoadError::Corrupt { .. })
        ));
    }

    #[test]
    fn recovery_prefers_largest_parseable_temp_sibling() {
        // A crash between temp-write and rename leaves the only complete
        // copy of the data under the temp name; a corrupted canonical file
        // must not hide it.
        let dir = std::env::temp_dir().join(format!(
            "graphmine_rundb_recover_test_{}",
            std::process::id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("db.json");
        std::fs::write(&path, "{\"runs\":[{\"trunc").unwrap();
        let small = {
            let mut db = RunDb::new();
            db.push(record("CC", 100, 2.0, 10));
            db
        };
        let full = sample_db();
        std::fs::write(tmp_path_for(&path), serde_json::to_string(&small).unwrap()).unwrap();
        std::fs::write(tmp_path_for(&path), serde_json::to_string(&full).unwrap()).unwrap();
        std::fs::write(tmp_path_for(&path), "also corrupt").unwrap();
        let (back, recovered) = RunDb::load_or_recover(&path).unwrap();
        assert!(recovered);
        assert_eq!(back, full);
        // With nothing salvageable the canonical error surfaces.
        let bare = dir.join("other.json");
        std::fs::write(&bare, "nonsense").unwrap();
        assert!(matches!(
            RunDb::load_or_recover(&bare),
            Err(LoadError::Corrupt { .. })
        ));
    }

    #[test]
    fn load_error_converts_to_io_error() {
        let dir = std::env::temp_dir().join("graphmine_rundb_loadconv_test");
        std::fs::create_dir_all(&dir).unwrap();
        let garbled = dir.join("garbled.json");
        std::fs::write(&garbled, "not json").unwrap();
        let as_io: io::Error = RunDb::load(&garbled).unwrap_err().into();
        assert_eq!(as_io.kind(), io::ErrorKind::InvalidData);
        let as_io: io::Error = RunDb::load(&dir.join("nope.json")).unwrap_err().into();
        assert_eq!(as_io.kind(), io::ErrorKind::NotFound);
    }

    #[test]
    fn shared_rundb_threaded_appends_all_land() {
        let shared = std::sync::Arc::new(SharedRunDb::new(RunDb::new()));
        let threads: Vec<_> = (0..8)
            .map(|t| {
                let shared = std::sync::Arc::clone(&shared);
                std::thread::spawn(move || {
                    for i in 0..25 {
                        shared.append(record("CC", 100 + t * 100, 2.0, 1 + i));
                    }
                })
            })
            .collect();
        for t in threads {
            t.join().unwrap();
        }
        assert_eq!(shared.len(), 200);
        let snap = shared.snapshot();
        assert_eq!(snap.len(), 200);
    }

    #[test]
    fn shared_rundb_append_and_save_round_trips() {
        let dir = std::env::temp_dir().join("graphmine_rundb_shared_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("db.json");
        let shared = SharedRunDb::new(RunDb::new());
        let i0 = shared
            .append_and_save(record("CC", 100, 2.0, 5), &path)
            .unwrap();
        let i1 = shared
            .append_and_save(record("PR", 100, 2.0, 3), &path)
            .unwrap();
        assert_eq!((i0, i1), (0, 1));
        let back = RunDb::load(&path).unwrap();
        assert_eq!(back.len(), 2);
        assert_eq!(back, shared.snapshot());
    }

    #[test]
    fn labels_and_iterations_aligned() {
        let db = sample_db();
        assert_eq!(db.labels().len(), db.len());
        assert_eq!(db.iteration_counts(), vec![1, 1, 1, 1]);
    }

    #[test]
    fn active_fraction_truncated_to_512() {
        let trace = RunTrace {
            num_vertices: 2,
            num_edges: 1,
            iterations: vec![
                IterationStats {
                    active: 1,
                    updates: 1,
                    edge_reads: 0,
                    messages: 0,
                    apply_ns: 0,
                    apply_ops: 0,
                    remote_edge_reads: 0,
                    remote_messages: 0,
                    frontier_density: 0.0,
                    ..IterationStats::default()
                };
                600
            ],
            converged: false,
        };
        let r = RunRecord::from_trace(
            "KM",
            "Clustering",
            GraphSpec {
                size: 1,
                alpha: None,
                label: "1".into(),
            },
            0,
            &trace,
        );
        assert_eq!(r.active_fraction.len(), 512);
        assert_eq!(r.iterations, 600);
    }
}
