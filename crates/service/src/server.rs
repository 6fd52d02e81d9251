//! The benchmark-job server: acceptor thread, HTTP handler pool, job
//! worker pool, timeout watchdog, and the route table.
//!
//! Thread layout (all plain `std::thread`, no async runtime):
//!
//! ```text
//! acceptor ──▶ conn_queue ──▶ http workers (parse + route + respond)
//!                                   │ POST /jobs
//!                                   ▼
//!                              job_queue ──▶ job workers (generate/cache,
//!                                   ▲         run engine, append RunDb)
//!                              watchdog (raises cancel flags at deadlines)
//! ```
//!
//! Graceful drain: `POST /shutdown` closes the job queue (no new
//! submissions; queued jobs still execute), the acceptor notices the flag
//! and closes the connection queue, every pool drains its queue and
//! exits, and [`ServerHandle::wait`] persists the run database after the
//! last worker is gone.
//!
//! Crash safety: every job lifecycle transition is appended to a JSONL
//! journal next to the run database *before* it takes effect, so a crash
//! (or [`ServerHandle::simulate_crash`], its test stand-in) loses no
//! accepted work — on the next [`Server::start`] the journal is replayed,
//! finished records missing from the database are re-appended, and
//! submitted-but-unfinished jobs are re-enqueued under their original
//! checkpoint tags so checkpointed engines resume mid-computation rather
//! than restarting. Panicking jobs retry with exponential backoff against
//! a budget before being quarantined as `Failed`; the watchdog requeues
//! checkpointed jobs at their deadline instead of killing them; and
//! admission control sheds load with `429 Too Many Requests` once the
//! queue exceeds its configured depth.

use crate::affinity;
use crate::cache::{CacheKey, GraphCache};
use crate::http::{self, Request};
use crate::job::{
    build_workload, cache_key, domain_name, parse_algorithm, parse_representation, Job, JobRequest,
    JobState,
};
use crate::journal::{self, Journal, JournalEvent};
use crate::lock::{self, LockGuard};
use crate::metrics::{Metrics, StageHistograms, TenantMetrics};
use graphmine_algos::{run_algorithm, AlgorithmKind, Domain, SuiteConfig, WorkloadMismatch};
use graphmine_core::{
    best_coverage_ensemble, best_spread_ensemble, CoverageSampler, GraphSpec, LoadError, RunDb,
    RunRecord, SharedRunDb, WorkMetric,
};
use graphmine_engine::RunTrace;
use graphmine_engine::{
    CheckpointPolicy, CheckpointStats, DirectionChoice, ExecutionConfig, FaultPlan, FaultSite,
    IoShim,
};
use graphmine_shard::{DrrQueue, TenantRegistry, TenantSpec};
use graphmine_store::{
    finalize_ingest_with, gc_orphan_temps, gc_sessions, load_workload, rebuild_workload_plain,
    Catalog, CatalogEntry, IngestConfig, IngestSession, StoreError, StoredGraph,
    DEFAULT_INGEST_EXPIRY,
};
use parking_lot::{Mutex, RwLock};
use serde::Deserialize;
use serde_json::{json, Value};
use std::collections::HashMap;
use std::io;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Server configuration (CLI flags map onto this).
#[derive(Debug, Clone)]
pub struct ServiceConfig {
    /// Bind address; port 0 picks an ephemeral port (tests, benches).
    pub addr: String,
    /// Job worker threads (engine runs are internally parallel via rayon,
    /// so a few workers saturate a machine). When there are no more of
    /// them than CPUs, each is pinned to its own (see `affinity`).
    pub workers: usize,
    /// HTTP handler threads (cheap; they mostly wait on sockets).
    pub http_workers: usize,
    /// Run-database path. `None` keeps the database in memory only.
    pub db_path: Option<PathBuf>,
    /// Graph cache byte budget; 0 disables caching.
    pub cache_bytes: u64,
    /// Default per-job wall-clock timeout (execution phase) in ms.
    pub default_timeout_ms: u64,
    /// Persist the database every N completed jobs (0 = only at shutdown).
    pub persist_every: usize,
    /// Directory for engine checkpoints of jobs that request
    /// `checkpoint_every`. `None` derives `<db_path>.ckpts`; jobs cannot
    /// checkpoint when both this and `db_path` are unset.
    pub spill_dir: Option<PathBuf>,
    /// Execution attempts beyond the first a panicking (or injected-fault)
    /// job may consume before being quarantined as `Failed`.
    pub retry_budget: u32,
    /// Base retry delay; attempt `n` waits `2^(n-1)` times this plus a
    /// deterministic jitter.
    pub retry_backoff_ms: u64,
    /// Admission-control queue depth: submissions beyond this many queued
    /// jobs are shed with `429` (+ `Retry-After`). 0 = unlimited.
    pub max_queue_depth: usize,
    /// Deterministic fault injection for chaos tests; `None` in production.
    pub fault_plan: Option<Arc<FaultPlan>>,
    /// Catalog directory of stored graphs, enabling the `/graphs` ingest
    /// API and `"graph": "<name>"` job requests. `None` disables both.
    pub graph_dir: Option<PathBuf>,
    /// Tenant set enabling multi-tenant operation: API-key authentication
    /// on job routes, per-tenant admission quotas, deficit-round-robin
    /// fair queueing, and per-tenant metrics. `None` (the default) keeps
    /// the server single-tenant with a one-lane (FIFO) queue and no auth.
    pub tenants: Option<Vec<TenantSpec>>,
    /// Engine shards per job (shard-per-core message exchange). 0 or 1
    /// runs unsharded; any value produces bit-identical results.
    pub shards: usize,
}

impl Default for ServiceConfig {
    fn default() -> ServiceConfig {
        ServiceConfig {
            addr: "127.0.0.1:7745".to_string(),
            workers: 4,
            http_workers: 8,
            db_path: None,
            cache_bytes: 256 * 1024 * 1024,
            default_timeout_ms: 300_000,
            persist_every: 1,
            spill_dir: None,
            retry_budget: 2,
            retry_backoff_ms: 50,
            max_queue_depth: 0,
            fault_plan: None,
            graph_dir: None,
            tenants: None,
            shards: 0,
        }
    }
}

/// The journal lives next to the database it protects.
fn journal_path(db_path: &Path) -> PathBuf {
    PathBuf::from(format!("{}.journal", db_path.display()))
}

/// A job whose execution deadline the watchdog is tracking.
struct WatchEntry {
    deadline: Instant,
    job: Arc<Job>,
}

/// A job waiting out its retry backoff; the watchdog moves it back onto
/// the job queue once `ready_at` passes.
struct RetryEntry {
    ready_at: Instant,
    job: Arc<Job>,
}

/// Graph-store state: the catalog of named graphs plus in-flight chunked
/// ingest sessions. The sessions map is rebuilt lazily after a restart —
/// chunk and finalize handlers resume journaled sessions from disk on
/// first touch. The map mutex is held across chunk fsyncs, serializing
/// concurrent ingests; acceptable at bulk-upload rates, and it keeps the
/// strictly-sequential chunk protocol race-free.
struct StoreState {
    catalog: Catalog,
    sessions: Mutex<HashMap<String, IngestSession>>,
}

impl StoreState {
    /// Where ingest session directories live: a dot-prefixed subdirectory
    /// of the catalog, invisible to the catalog's `.gmg` listing.
    fn ingest_root(&self) -> PathBuf {
        self.catalog.dir().join(".ingest")
    }
}

/// Shared server state.
struct ServiceState {
    config: ServiceConfig,
    db: SharedRunDb,
    cache: GraphCache,
    jobs: RwLock<Vec<Arc<Job>>>,
    /// One lane per tenant in registry order, or one lane without tenants.
    job_queue: DrrQueue<Arc<Job>>,
    conn_queue: DrrQueue<TcpStream>,
    metrics: Metrics,
    /// Tenant registry when multi-tenancy is enabled; lane order of the
    /// DRR queue and index space of `tenant_metrics`.
    tenants: Option<Arc<TenantRegistry>>,
    /// Per-tenant counters and stage histograms, in registry order.
    tenant_metrics: Vec<TenantMetrics>,
    journal: Journal,
    /// Fault-injection shim every durable write/read goes through:
    /// checkpoints, journal appends, database saves, store packs, ingest
    /// chunk commits. Disabled (pure pass-through) without a fault plan.
    shim: IoShim,
    ckpt_stats: Arc<CheckpointStats>,
    running: AtomicU64,
    completed: AtomicU64,
    shutdown: AtomicBool,
    /// Simulated process death: workers stop all bookkeeping so the
    /// journal is left exactly as a real crash would leave it.
    crashed: AtomicBool,
    watchdog: Mutex<Vec<WatchEntry>>,
    retries: Mutex<Vec<RetryEntry>>,
    store: Option<StoreState>,
}

impl ServiceState {
    fn begin_shutdown(&self) {
        if !self.shutdown.swap(true, Ordering::SeqCst) {
            // No new jobs; queued ones still drain through the workers.
            self.job_queue.close();
        }
    }

    fn job_by_id(&self, id: u64) -> Option<Arc<Job>> {
        self.jobs.read().get(id as usize).map(Arc::clone)
    }

    /// The queue lane a job belongs to: its tenant's registry index, or
    /// lane 0 for tenant-less jobs (pre-tenancy journals, and every job on
    /// a server without tenants, whose queue has that one lane).
    fn job_lane(&self, job: &Job) -> usize {
        self.tenants
            .as_ref()
            .zip(job.request.tenant.as_deref())
            .and_then(|(registry, tenant)| registry.index_of(tenant))
            .unwrap_or(0)
    }

    /// This job's tenant metrics slot, when the server is multi-tenant
    /// and the job carries a known tenant id.
    fn tenant_slot(&self, job: &Job) -> Option<&TenantMetrics> {
        let registry = self.tenants.as_ref()?;
        let idx = registry.index_of(job.request.tenant.as_deref()?)?;
        self.tenant_metrics.get(idx)
    }

    fn crashed(&self) -> bool {
        self.crashed.load(Ordering::SeqCst)
    }

    /// Best-effort journal append: a full disk must not take a worker
    /// down, it only degrades recovery fidelity.
    fn journal(&self, event: JournalEvent) {
        let _ = self.journal.append(&event);
    }

    /// Where engine checkpoints for this server live.
    fn spill_dir(&self) -> Option<PathBuf> {
        self.config.spill_dir.clone().or_else(|| {
            self.config
                .db_path
                .as_ref()
                .map(|p| PathBuf::from(format!("{}.ckpts", p.display())))
        })
    }

    fn persist_if_due(&self, completed_total: u64) {
        let every = self.config.persist_every as u64;
        if every == 0 {
            return;
        }
        if let Some(path) = &self.config.db_path {
            if completed_total.is_multiple_of(every) {
                // Chaos tests inject I/O faults at the persistence site to
                // prove a skipped save is recovered from the journal.
                if let Some(plan) = &self.config.fault_plan {
                    if plan.fire(FaultSite::DbPersist, completed_total).is_err() {
                        return;
                    }
                }
                // Persistence failures must not take down the worker; the
                // in-memory database stays authoritative and the final
                // shutdown save retries. Storage-kind faults (torn write,
                // ENOSPC, …) are applied inside the shim at byte level.
                let _ = self.db.save_with(path, &self.shim);
            }
        }
    }
}

/// Constructor namespace for the daemon.
pub struct Server;

/// A running server: its bound address and the handles needed to join it.
pub struct ServerHandle {
    addr: SocketAddr,
    state: Arc<ServiceState>,
    threads: Vec<JoinHandle<()>>,
    /// Lock files on the database and spill directory; released on drop,
    /// which covers `wait`, `simulate_crash`, and panicking tests alike.
    _locks: Vec<LockGuard>,
}

impl Server {
    /// Bind, recover journaled state, spawn all threads, and return
    /// immediately.
    pub fn start(config: ServiceConfig) -> io::Result<ServerHandle> {
        let listener = TcpListener::bind(&config.addr)?;
        let addr = listener.local_addr()?;
        listener.set_nonblocking(true)?;

        // Exclusive lock on the durable paths before touching them: a
        // second server sharing the database (and its journal) or an
        // explicit spill directory would corrupt both. Fails with a
        // downcastable `AlreadyLocked` inside the `io::Error`.
        let mut locks: Vec<LockGuard> = Vec::new();
        if let Some(path) = &config.db_path {
            locks.push(lock::acquire(&lock::lock_path(path))?);
        }
        if let Some(dir) = &config.spill_dir {
            locks.push(lock::acquire(&lock::lock_path(dir))?);
        }

        // One shim instance for every durable-I/O site; per-site operation
        // counters only mean something if all writers share it.
        let shim = match &config.fault_plan {
            Some(plan) => IoShim::armed(Arc::clone(plan)),
            None => IoShim::disabled(),
        };

        // Load the database, falling back to the best parseable temp
        // sibling when the canonical file is corrupt (a crash mid-save).
        let mut recovery = journal::Recovery::default();
        let mut db_recovered = false;
        let (db, journal) = match &config.db_path {
            Some(path) => {
                let db = match RunDb::load_or_recover(path) {
                    Ok((db, recovered)) => {
                        db_recovered = recovered;
                        db
                    }
                    Err(LoadError::Io(e)) if e.kind() == io::ErrorKind::NotFound => RunDb::new(),
                    Err(e) => return Err(e.into()),
                };
                let jpath = journal_path(path);
                // Replay truncates a torn final record (a crash mid-append)
                // so post-recovery appends start at a record boundary.
                recovery = journal::replay(&jpath).unwrap_or_default();
                (db, Journal::open_with(&jpath, shim.clone())?)
            }
            None => (RunDb::new(), Journal::disabled()),
        };
        // The journal has the authoritative tail: re-append every finished
        // record the (less frequently saved) database does not reach.
        // Records are told apart by their run index, not counted — after a
        // compaction the journal no longer holds every record since the
        // database was empty.
        let mut db = db;
        let saved = db.len();
        let mut missing: Vec<(usize, RunRecord)> = std::mem::take(&mut recovery.finished_records)
            .into_iter()
            .filter(|(index, _)| *index >= saved)
            .collect();
        // Two workers may journal in the opposite order they appended.
        missing.sort_by_key(|(index, _)| *index);
        db_recovered |= !missing.is_empty();
        for (_, record) in missing {
            db.push(record);
        }
        let db = SharedRunDb::new(db);

        let cache = GraphCache::new(config.cache_bytes);
        let mut orphans_collected = 0u64;
        let store = match &config.graph_dir {
            Some(dir) => {
                let catalog = Catalog::open(dir).map_err(io::Error::other)?;
                // Startup self-healing sweep: temp siblings left by crashed
                // (or fault-injected) pack writers, plus ingest sessions
                // past their expiry or missing their journal.
                orphans_collected +=
                    gc_orphan_temps(catalog.dir()).map_err(io::Error::other)? as u64;
                let gc = gc_sessions(&catalog.dir().join(".ingest"), DEFAULT_INGEST_EXPIRY)
                    .map_err(io::Error::other)?;
                orphans_collected += (gc.sessions_removed + gc.temp_files_removed) as u64;
                Some(StoreState {
                    catalog,
                    sessions: Mutex::new(HashMap::new()),
                })
            }
            None => None,
        };
        let workers = config.workers.max(1);
        let http_workers = config.http_workers.max(1);
        // Multi-tenancy: validate the tenant set up front (duplicate ids
        // or shared keys must fail startup, not authentication), give the
        // job queue one weighted lane per tenant, and allocate the
        // per-tenant metric slots.
        let tenants = match config.tenants.clone() {
            Some(specs) => Some(Arc::new(
                TenantRegistry::new(specs).map_err(io::Error::other)?,
            )),
            None => None,
        };
        let job_queue = match &tenants {
            Some(registry) => DrrQueue::new(&registry.weights()),
            None => DrrQueue::new(&[1]),
        };
        let tenant_metrics: Vec<TenantMetrics> = tenants
            .iter()
            .flat_map(|r| r.iter())
            .map(|t| TenantMetrics::new(&t.id))
            .collect();
        let state = Arc::new(ServiceState {
            config,
            db,
            cache,
            jobs: RwLock::new(Vec::new()),
            job_queue,
            conn_queue: DrrQueue::new(&[1]),
            metrics: Metrics::new(),
            tenants,
            tenant_metrics,
            journal,
            shim,
            ckpt_stats: Arc::new(CheckpointStats::default()),
            running: AtomicU64::new(0),
            completed: AtomicU64::new(0),
            shutdown: AtomicBool::new(false),
            crashed: AtomicBool::new(false),
            watchdog: Mutex::new(Vec::new()),
            retries: Mutex::new(Vec::new()),
            store,
        });

        // Re-enqueue every journaled job that never reached a terminal
        // state, under its original checkpoint tag and attempt count, then
        // compact the journal down to exactly those entries.
        let mut resubmitted = Vec::new();
        for pending in std::mem::take(&mut recovery.pending) {
            let Some(algorithm) = parse_algorithm(&pending.algorithm) else {
                continue;
            };
            let job = {
                let mut jobs = state.jobs.write();
                let id = jobs.len() as u64;
                let job = Arc::new(Job::recovered(
                    id,
                    algorithm,
                    pending.request,
                    pending.ckpt_tag,
                    pending.attempt,
                ));
                jobs.push(Arc::clone(&job));
                job
            };
            resubmitted.push(JournalEvent::Submitted {
                id: job.id,
                algorithm: job.algorithm.abbrev().to_string(),
                ckpt_tag: job.ckpt_tag.clone(),
                attempt: job.attempts(),
                request: job.request.clone(),
            });
            state.metrics.submitted.fetch_add(1, Ordering::Relaxed);
            state.metrics.jobs_recovered.fetch_add(1, Ordering::Relaxed);
            if let Some(slot) = state.tenant_slot(&job) {
                slot.submitted.fetch_add(1, Ordering::Relaxed);
            }
            state.job_queue.push(state.job_lane(&job), Arc::clone(&job));
        }
        let _ = state.journal.compact(&resubmitted);
        if db_recovered {
            if let Some(path) = &state.config.db_path {
                state.db.save(path)?;
            }
        }
        // Only after recovery has mined temp siblings for salvageable
        // state is it safe to sweep them; the lock file guarantees no
        // concurrent writer is mid-rename.
        if let Some(path) = &state.config.db_path {
            orphans_collected += gc_db_temp_siblings(path);
        }
        if let Some(dir) = state.spill_dir() {
            orphans_collected += gc_temp_siblings(&dir);
        }
        state
            .metrics
            .orphans_collected
            .fetch_add(orphans_collected, Ordering::Relaxed);

        let mut threads = Vec::with_capacity(workers + http_workers + 2);
        {
            let state = Arc::clone(&state);
            threads.push(std::thread::spawn(move || accept_loop(listener, &state)));
        }
        for _ in 0..http_workers {
            let state = Arc::clone(&state);
            threads.push(std::thread::spawn(move || http_loop(&state)));
        }
        // The engine's pool must exist before a worker pins itself, or
        // its threads would inherit that worker's single CPU.
        graphmine_engine::pool_threads();
        let first_slot = affinity::reserve_slots(workers);
        for i in 0..workers {
            let state = Arc::clone(&state);
            threads.push(std::thread::spawn(move || {
                affinity::pin_worker(first_slot + i, workers);
                job_loop(&state)
            }));
        }
        {
            let state = Arc::clone(&state);
            threads.push(std::thread::spawn(move || watchdog_loop(&state)));
        }
        Ok(ServerHandle {
            addr,
            state,
            threads,
            _locks: locks,
        })
    }
}

/// Remove `{db_name}.tmp.*` siblings of the run database — debris from
/// saves that crashed (or were fault-injected) between write and rename.
/// Matches only the database's own temp naming so unrelated files in the
/// directory are never touched.
fn gc_db_temp_siblings(db_path: &Path) -> u64 {
    let Some(name) = db_path
        .file_name()
        .map(|n| n.to_string_lossy().into_owned())
    else {
        return 0;
    };
    let dir = match db_path.parent() {
        Some(d) if !d.as_os_str().is_empty() => d.to_path_buf(),
        _ => PathBuf::from("."),
    };
    let prefix = format!("{name}.tmp.");
    remove_matching(&dir, |file| file.starts_with(&prefix))
}

/// Remove every `*.tmp.*` file in the spill directory — checkpoint
/// generations whose writer died mid-rename (or whose shim injected a
/// torn write or stale rename).
fn gc_temp_siblings(dir: &Path) -> u64 {
    remove_matching(dir, |file| file.contains(".tmp."))
}

fn remove_matching(dir: &Path, matches: impl Fn(&str) -> bool) -> u64 {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return 0;
    };
    let mut removed = 0;
    for entry in entries.flatten() {
        let file = entry.file_name().to_string_lossy().into_owned();
        if matches(&file) && entry.path().is_file() && std::fs::remove_file(entry.path()).is_ok() {
            removed += 1;
        }
    }
    removed
}

impl ServerHandle {
    /// The actually bound address (resolves port 0).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Trigger the same graceful drain as `POST /shutdown`.
    pub fn begin_shutdown(&self) {
        self.state.begin_shutdown();
    }

    /// Whether a shutdown has been requested.
    pub fn shutdown_requested(&self) -> bool {
        self.state.shutdown.load(Ordering::SeqCst)
    }

    /// Block until every thread has drained and exited, then persist the
    /// database one final time. Returns the persistence result.
    pub fn wait(self) -> io::Result<()> {
        for t in self.threads {
            let _ = t.join();
        }
        if let Some(path) = &self.state.config.db_path {
            self.state.db.save(path)?;
        }
        Ok(())
    }

    /// Kill the server the way a crash would: queued jobs are dropped
    /// un-executed, running jobs are interrupted via their cancel flags,
    /// and *no* final bookkeeping happens — no journal `Finished` entries,
    /// no database save. Everything accepted so far is recoverable only
    /// through the journal, which is exactly what chaos tests verify.
    pub fn simulate_crash(self) -> io::Result<()> {
        self.state.crashed.store(true, Ordering::SeqCst);
        self.state.shutdown.store(true, Ordering::SeqCst);
        self.state.job_queue.close_and_clear();
        self.state.conn_queue.close_and_clear();
        self.state.retries.lock().clear();
        // Interrupt in-flight engines so the join below is prompt.
        for entry in self.state.watchdog.lock().iter() {
            entry.job.cancel.store(true, Ordering::Relaxed);
        }
        for t in self.threads {
            let _ = t.join();
        }
        Ok(())
    }
}

fn accept_loop(listener: TcpListener, state: &ServiceState) {
    loop {
        if state.shutdown.load(Ordering::SeqCst) {
            break;
        }
        match listener.accept() {
            Ok((stream, _peer)) => {
                // The listener is nonblocking (for shutdown polling); the
                // accepted socket must not inherit that.
                let _ = stream.set_nonblocking(false);
                let _ = stream.set_read_timeout(Some(Duration::from_secs(10)));
                let _ = stream.set_write_timeout(Some(Duration::from_secs(10)));
                // Responses leave in one write; with Nagle off none of them
                // waits for the client's delayed ACK of the one before.
                let _ = stream.set_nodelay(true);
                if !state.conn_queue.push(0, stream) {
                    break;
                }
            }
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                std::thread::sleep(Duration::from_millis(5));
            }
            Err(_) => {
                // Transient accept failure (e.g. EMFILE); back off briefly.
                std::thread::sleep(Duration::from_millis(5));
            }
        }
    }
    state.conn_queue.close();
}

fn http_loop(state: &Arc<ServiceState>) {
    while let Some(mut stream) = state.conn_queue.pop() {
        // Per-connection errors (malformed requests, client hangups) are
        // answered where possible and never take the worker down.
        let _ = handle_connection(state, &mut stream);
    }
}

/// How long a kept-alive connection may sit idle between requests before
/// the handler closes it. Short, because each idle kept-alive socket
/// occupies a blocking HTTP worker; steady pollers and benchmark
/// clients send well within this window and reconnect transparently if
/// they don't.
const KEEP_ALIVE_IDLE: Duration = Duration::from_millis(1_000);

/// Requests served on one connection before it is recycled. Bounds how
/// long a single busy client can camp on an HTTP worker while other
/// connections wait in the queue.
const MAX_REQUESTS_PER_CONNECTION: usize = 256;

fn handle_connection(state: &Arc<ServiceState>, stream: &mut TcpStream) -> io::Result<()> {
    let mut carry = Vec::new();
    for served in 0..MAX_REQUESTS_PER_CONNECTION {
        let request = match http::read_request(stream, &mut carry) {
            Ok(r) => r,
            Err(e) => {
                // Oversized requests get 413, malformed ones 400; pure
                // socket failures — including a kept-alive client idling
                // past the window or going away — have no one to answer.
                return match e.status() {
                    Some(status) => {
                        http::write_json(stream, status, &json!({"error": e.message()}))
                    }
                    None => Ok(()),
                };
            }
        };
        let (status, body) = route(state, &request);
        // Admission control advertises when to come back.
        let retry_after = (status == 429)
            .then(|| body["retry_after_s"].as_u64())
            .flatten();
        // Reuse is client opt-in, bounded per connection, and suspended
        // during drain so HTTP workers can exit.
        let keep_alive = request.keep_alive
            && served + 1 < MAX_REQUESTS_PER_CONNECTION
            && !state.shutdown.load(Ordering::SeqCst);
        http::write_response(stream, status, &body, retry_after, keep_alive)?;
        if !keep_alive {
            return Ok(());
        }
        // Subsequent requests wait at most the idle window, not the full
        // per-socket read timeout.
        stream.set_read_timeout(Some(KEEP_ALIVE_IDLE))?;
    }
    Ok(())
}

fn job_loop(state: &Arc<ServiceState>) {
    while let Some(job) = state.job_queue.pop() {
        execute_job(state, &job);
    }
}

fn watchdog_loop(state: &ServiceState) {
    loop {
        {
            let mut entries = state.watchdog.lock();
            let now = Instant::now();
            entries.retain(|e| {
                if now >= e.deadline {
                    e.job.cancel.store(true, Ordering::Relaxed);
                    false
                } else {
                    true
                }
            });
        }
        // Move retry-backoff jobs whose delay has elapsed back onto the
        // queue. During a drain the backoff is cut short: the queue is
        // closed, the push fails, and the job goes terminal instead of
        // being stranded in the retry list.
        let draining = state.shutdown.load(Ordering::SeqCst);
        {
            let mut retries = state.retries.lock();
            // A simulated crash abandons retries in place — no terminal
            // journal entries, so recovery re-enqueues them.
            if state.crashed() {
                retries.clear();
            }
            let now = Instant::now();
            let mut i = 0;
            while i < retries.len() {
                if draining || now >= retries[i].ready_at {
                    let entry = retries.swap_remove(i);
                    let lane = state.job_lane(&entry.job);
                    if !state.job_queue.push(lane, Arc::clone(&entry.job)) {
                        entry.job.status().state = JobState::Cancelled;
                        state.metrics.cancelled.fetch_add(1, Ordering::Relaxed);
                        state.journal(JournalEvent::Finished {
                            id: entry.job.id,
                            outcome: JobState::Cancelled.as_str().to_string(),
                            record: None,
                            run_index: None,
                        });
                    }
                } else {
                    i += 1;
                }
            }
        }
        if state.shutdown.load(Ordering::SeqCst)
            && state.job_queue.is_empty()
            && state.running.load(Ordering::SeqCst) == 0
            && state.retries.lock().is_empty()
        {
            break;
        }
        std::thread::sleep(Duration::from_millis(20));
    }
}

fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "job panicked".to_string()
    }
}

/// Mark `job` terminal: status, metrics, journal, latency — the single
/// exit point for every path out of [`execute_job`].
fn finish_job(
    state: &Arc<ServiceState>,
    job: &Arc<Job>,
    final_state: JobState,
    error: Option<String>,
    run_ms: f64,
    record: Option<(usize, RunRecord)>,
) {
    {
        let mut status = job.status();
        status.state = final_state;
        status.error = error;
        status.run_ms = run_ms;
    }
    match final_state {
        JobState::Done => state.metrics.done.fetch_add(1, Ordering::Relaxed),
        JobState::Failed => state.metrics.failed.fetch_add(1, Ordering::Relaxed),
        JobState::Cancelled => state.metrics.cancelled.fetch_add(1, Ordering::Relaxed),
        JobState::TimedOut => state.metrics.timed_out.fetch_add(1, Ordering::Relaxed),
        JobState::Queued | JobState::Running => unreachable!("finish_job with non-terminal state"),
    };
    let (run_index, record) = record.unzip();
    state.journal(JournalEvent::Finished {
        id: job.id,
        outcome: final_state.as_str().to_string(),
        record,
        run_index,
    });
    let total_ms = job.submitted.elapsed().as_secs_f64() * 1e3;
    state.metrics.observe_latency_ms(total_ms);
    StageHistograms::record_ms(&state.metrics.stages.total, total_ms);
    if let Some(slot) = state.tenant_slot(job) {
        match final_state {
            JobState::Done => slot.done.fetch_add(1, Ordering::Relaxed),
            JobState::Failed => slot.failed.fetch_add(1, Ordering::Relaxed),
            JobState::Cancelled => slot.cancelled.fetch_add(1, Ordering::Relaxed),
            JobState::TimedOut => slot.timed_out.fetch_add(1, Ordering::Relaxed),
            JobState::Queued | JobState::Running => unreachable!(),
        };
        StageHistograms::record_ms(&slot.stages.total, total_ms);
    }
}

/// Put `job` back on the queue after a backoff, or quarantine it as
/// `Failed` when its retry budget is spent.
fn retry_or_quarantine(state: &Arc<ServiceState>, job: &Arc<Job>, error: String, reason: &str) {
    let attempt = job.attempts();
    if attempt <= state.config.retry_budget {
        state.metrics.retries.fetch_add(1, Ordering::Relaxed);
        state.journal(JournalEvent::Requeued {
            id: job.id,
            attempt,
            reason: reason.to_string(),
        });
        // The previous attempt's watchdog may have set the flag; the next
        // attempt must start uncancelled.
        job.cancel.store(false, Ordering::Relaxed);
        {
            let mut status = job.status();
            status.state = JobState::Queued;
            status.error = Some(error);
        }
        // Exponential backoff with deterministic jitter (splitmix-style
        // hash of id and attempt) so co-failing jobs do not retry in
        // lockstep, yet chaos runs remain reproducible.
        let base = state.config.retry_backoff_ms;
        let backoff = base.saturating_mul(1u64 << (attempt - 1).min(16));
        let mut h = (job.id << 32) ^ u64::from(attempt) ^ 0x9E37_79B9_7F4A_7C15;
        h ^= h >> 30;
        h = h.wrapping_mul(0xBF58_476D_1CE4_E5B9);
        let jitter = if base == 0 { 0 } else { h % (base / 2 + 1) };
        state.retries.lock().push(RetryEntry {
            ready_at: Instant::now() + Duration::from_millis(backoff + jitter),
            job: Arc::clone(job),
        });
    } else {
        state
            .metrics
            .panics_quarantined
            .fetch_add(1, Ordering::Relaxed);
        finish_job(
            state,
            job,
            JobState::Failed,
            Some(format!(
                "quarantined after {attempt} attempts; last error: {error}"
            )),
            0.0,
            None,
        );
    }
}

fn execute_job(state: &Arc<ServiceState>, job: &Arc<Job>) {
    // Cancelled while still queued: never run.
    if job.cancel_requested.load(Ordering::Relaxed) || job.cancel.load(Ordering::Relaxed) {
        finish_job(state, job, JobState::Cancelled, None, 0.0, None);
        return;
    }

    let queue_ms = job.submitted.elapsed().as_secs_f64() * 1e3;
    let attempt = job.attempt.fetch_add(1, Ordering::Relaxed) + 1;
    {
        let mut status = job.status();
        status.state = JobState::Running;
        status.queue_ms = queue_ms;
    }
    state.running.fetch_add(1, Ordering::SeqCst);
    state.journal(JournalEvent::Started {
        id: job.id,
        attempt,
    });

    let started = Instant::now();

    // Workload: cache hit, mmap-open of a stored graph, or (slow)
    // generation — outside the timeout window, which covers the engine
    // run only.
    let request = job.request.clone();
    let algorithm = job.algorithm;
    let stored_entry = match resolve_stored_entry(state, &request) {
        Ok(entry) => entry,
        Err(msg) => {
            state.running.fetch_sub(1, Ordering::SeqCst);
            finish_job(state, job, JobState::Failed, Some(msg), 0.0, None);
            return;
        }
    };
    let resolved = match &stored_entry {
        Some(entry) => {
            let representation =
                parse_representation(request.representation.as_deref()).unwrap_or_default();
            let key = CacheKey::Stored {
                name: entry.name.clone(),
                fingerprint: entry.fingerprint,
                reorder: request.reorder,
                compressed: representation == graphmine_graph::Representation::Compressed,
            };
            let path = entry.path.clone();
            let reorder = request.reorder;
            state.cache.get_or_try_build(key, || {
                let stored = StoredGraph::open(&path)?;
                // Corrupt CSR or column sections degrade to a rebuild from
                // the canonical edge-list section (bit-identical topology)
                // instead of failing the job, as long as the edge list
                // itself still checksums.
                let workload = match load_workload(&stored) {
                    Ok(w) => w,
                    Err(
                        e @ (StoreError::CorruptSection { .. }
                        | StoreError::ChecksumMismatch { .. }
                        | StoreError::Corrupt(_)),
                    ) => match rebuild_workload_plain(&stored) {
                        Ok(w) => {
                            state.metrics.store_rebuilds.fetch_add(1, Ordering::Relaxed);
                            w
                        }
                        Err(_) => return Err(e),
                    },
                    Err(e) => return Err(e),
                };
                let workload = if reorder {
                    workload.reordered_by_degree()
                } else {
                    workload
                };
                if representation == graphmine_graph::Representation::Compressed {
                    match workload.with_representation(representation) {
                        Ok(w) => Ok(w),
                        Err(_) => {
                            // Row compression (or decode of the compressed
                            // form) failed: run on the plain representation
                            // — identical results, slower traversal.
                            state
                                .metrics
                                .compressed_fallbacks
                                .fetch_add(1, Ordering::Relaxed);
                            Ok(workload)
                        }
                    }
                } else {
                    Ok::<_, StoreError>(workload)
                }
            })
        }
        None => {
            let key = cache_key(algorithm, &request);
            Ok(state
                .cache
                .get_or_build(key, || build_workload(algorithm, &request)))
        }
    };
    let (workload, hit) = match resolved {
        Ok(pair) => pair,
        Err(e) => {
            // The file vanished or rotted between the catalog lookup and
            // the open; deterministic for this content, so no retry.
            state.running.fetch_sub(1, Ordering::SeqCst);
            finish_job(
                state,
                job,
                JobState::Failed,
                Some(format!("stored graph load failed: {e}")),
                0.0,
                None,
            );
            return;
        }
    };
    let cache_ms = started.elapsed().as_secs_f64() * 1e3;
    {
        let mut status = job.status();
        status.cache_hit = hit;
        status.cache_ms = cache_ms;
    }

    let timeout = Duration::from_millis(
        request
            .timeout_ms
            .unwrap_or(state.config.default_timeout_ms)
            .max(1),
    );
    state.watchdog.lock().push(WatchEntry {
        deadline: Instant::now() + timeout,
        job: Arc::clone(job),
    });

    // Shard-per-core exchange: results are bit-identical for any shard
    // count, so this is purely an execution-layout knob (0 = unsharded).
    let mut exec = ExecutionConfig::with_max_iterations(job.resolved_max_iterations())
        .with_shards(state.config.shards)
        .with_cancel_flag(Arc::clone(&job.cancel));
    let checkpointing = match request.checkpoint_every.filter(|&every| every > 0) {
        Some(every) => match state.spill_dir() {
            Some(dir) => {
                exec = exec.with_checkpoint(
                    CheckpointPolicy::new(every, dir, job.ckpt_tag.clone())
                        .with_stats(Arc::clone(&state.ckpt_stats))
                        .with_shim(state.shim.clone()),
                );
                true
            }
            None => false,
        },
        None => false,
    };
    if let Some(plan) = &state.config.fault_plan {
        exec = exec.with_fault_plan(Arc::clone(plan));
    }
    let suite = SuiteConfig {
        exec,
        ..SuiteConfig::default()
    };
    let fault_plan = state.config.fault_plan.clone();
    let execute_started = Instant::now();
    type RunOutcome = io::Result<Result<RunTrace, WorkloadMismatch>>;
    let result: Result<RunOutcome, _> =
        std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            // The job-start fault site models a worker dying between
            // pickup and completion (inside catch_unwind, like a panic in
            // the algorithm itself would be).
            if let Some(plan) = &fault_plan {
                plan.fire(FaultSite::JobStart, job.id)?;
            }
            Ok(run_algorithm(algorithm, &workload, &suite))
        }));
    let execute_ms = execute_started.elapsed().as_secs_f64() * 1e3;
    let run_ms = started.elapsed().as_secs_f64() * 1e3;
    job.status().execute_ms = execute_ms;

    {
        let mut entries = state.watchdog.lock();
        entries.retain(|e| !Arc::ptr_eq(&e.job, job));
    }

    // A simulated crash skips ALL terminal bookkeeping: no journal entry,
    // no database append, no metrics — the journal keeps the Started
    // record and recovery picks the job up on restart.
    if state.crashed() {
        state.running.fetch_sub(1, Ordering::SeqCst);
        return;
    }

    // Every attempt that actually ran contributes to the per-stage
    // histograms, whatever its outcome — the pipeline cost was paid.
    StageHistograms::record_ms(&state.metrics.stages.queue_wait, queue_ms);
    StageHistograms::record_ms(&state.metrics.stages.cache_load, cache_ms);
    StageHistograms::record_ms(&state.metrics.stages.execute, execute_ms);
    if let Some(slot) = state.tenant_slot(job) {
        StageHistograms::record_ms(&slot.stages.queue_wait, queue_ms);
        StageHistograms::record_ms(&slot.stages.cache_load, cache_ms);
        StageHistograms::record_ms(&slot.stages.execute, execute_ms);
    }

    match result {
        Err(payload) => {
            retry_or_quarantine(state, job, panic_message(payload), "panic");
        }
        Ok(Err(fault)) => {
            retry_or_quarantine(state, job, fault.to_string(), "fault");
        }
        Ok(Ok(Err(mismatch))) => {
            // A workload/algorithm mismatch is deterministic — retrying
            // cannot fix it.
            finish_job(
                state,
                job,
                JobState::Failed,
                Some(mismatch.to_string()),
                run_ms,
                None,
            );
        }
        Ok(Ok(Ok(trace))) => {
            let pushed = trace
                .iterations
                .iter()
                .filter(|it| it.direction == DirectionChoice::Push)
                .count() as u64;
            let pulled = trace.iterations.len() as u64 - pushed;
            state
                .metrics
                .push_iterations
                .fetch_add(pushed, Ordering::Relaxed);
            state
                .metrics
                .pull_iterations
                .fetch_add(pulled, Ordering::Relaxed);
            let stopped_early = job.cancel.load(Ordering::Relaxed) && !trace.converged;
            if stopped_early {
                if job.cancel_requested.load(Ordering::Relaxed) {
                    let mut status = job.status();
                    status.iterations = trace.num_iterations();
                    drop(status);
                    finish_job(state, job, JobState::Cancelled, None, run_ms, None);
                } else if checkpointing && attempt <= state.config.retry_budget {
                    // Watchdog deadline with a checkpoint on disk: requeue
                    // so the next attempt resumes at the last boundary
                    // instead of discarding the iterations already done.
                    state
                        .metrics
                        .watchdog_requeues
                        .fetch_add(1, Ordering::Relaxed);
                    state.journal(JournalEvent::Requeued {
                        id: job.id,
                        attempt,
                        reason: "watchdog".to_string(),
                    });
                    job.cancel.store(false, Ordering::Relaxed);
                    job.status().state = JobState::Queued;
                    state.retries.lock().push(RetryEntry {
                        ready_at: Instant::now(),
                        job: Arc::clone(job),
                    });
                } else {
                    let mut status = job.status();
                    status.iterations = trace.num_iterations();
                    drop(status);
                    finish_job(state, job, JobState::TimedOut, None, run_ms, None);
                }
            } else {
                let serialize_started = Instant::now();
                let spec = match &stored_entry {
                    // Stored graphs fix their own size; the label carries
                    // provenance so figures can tell stored runs from
                    // synthetic ones.
                    Some(entry) => GraphSpec {
                        size: entry.num_edges,
                        alpha: None,
                        label: format!("stored:{}", entry.name),
                    },
                    None => GraphSpec {
                        size: request.size,
                        alpha: request.alpha,
                        label: format!("{}", request.size),
                    },
                };
                let record = RunRecord::from_trace(
                    algorithm.abbrev(),
                    domain_name(algorithm.domain()),
                    spec,
                    request.seed,
                    &trace,
                )
                .with_runtime_ms(run_ms)
                .with_tenant(request.tenant.clone());
                let run_index = state.db.append(record.clone());
                let serialize_ms = serialize_started.elapsed().as_secs_f64() * 1e3;
                StageHistograms::record_ms(&state.metrics.stages.serialize, serialize_ms);
                if let Some(slot) = state.tenant_slot(job) {
                    StageHistograms::record_ms(&slot.stages.serialize, serialize_ms);
                }
                {
                    let mut status = job.status();
                    status.iterations = trace.num_iterations();
                    status.converged = trace.converged;
                    status.run_index = Some(run_index);
                    status.serialize_ms = serialize_ms;
                }
                finish_job(
                    state,
                    job,
                    JobState::Done,
                    None,
                    run_ms,
                    Some((run_index, record)),
                );
                let total = state.completed.fetch_add(1, Ordering::SeqCst) + 1;
                state.persist_if_due(total);
            }
        }
    }
    state.running.fetch_sub(1, Ordering::SeqCst);
}

/// Resolve a job's `graph` field to its catalog entry, or `Ok(None)` for
/// synthetic jobs. Submission already validated existence, but journal
/// recovery and DELETEs racing execution mean the lookup can still fail
/// here; the error string becomes the job's terminal failure.
fn resolve_stored_entry(
    state: &ServiceState,
    request: &JobRequest,
) -> Result<Option<CatalogEntry>, String> {
    let Some(name) = &request.graph else {
        return Ok(None);
    };
    let Some(store) = state.store.as_ref() else {
        return Err("graph store disabled (server started without --graph-dir)".to_string());
    };
    store
        .catalog
        .entry(name)
        .map(Some)
        .map_err(|e| format!("stored graph `{name}`: {e}"))
}

fn work_metric(name: Option<&str>) -> WorkMetric {
    match name {
        Some("wall") => WorkMetric::WallNanos,
        _ => WorkMetric::LogicalOps,
    }
}

/// Resolve a request's tenant on a multi-tenant server: `Ok(None)` when
/// tenancy is off, `Ok(Some(index))` for a valid key, and a uniform 401
/// otherwise — the body never distinguishes an absent key from an
/// unknown one.
fn authed_tenant(
    state: &ServiceState,
    api_key: Option<&str>,
) -> Result<Option<usize>, (u16, Value)> {
    let Some(registry) = &state.tenants else {
        return Ok(None);
    };
    api_key
        .and_then(|key| registry.authenticate(key))
        .map(Some)
        .ok_or((401, json!({"error": "missing or invalid API key"})))
}

/// The tenant id scoping a jobs route, from the request's `X-Api-Key`.
fn job_scope(state: &ServiceState, request: &Request) -> Result<Option<String>, (u16, Value)> {
    Ok(authed_tenant(state, request.api_key.as_deref())?.map(|i| {
        state
            .tenants
            .as_ref()
            .expect("authenticated index implies a registry")
            .get(i)
            .id
            .clone()
    }))
}

/// Whether a job is visible in `scope`. Tenant-owned jobs are visible
/// only to their own tenant — a cross-tenant lookup 404s exactly like a
/// nonexistent id, leaking neither the job's existence nor its owner.
/// Tenant-less jobs (single-tenant servers, pre-tenancy journals) are
/// visible to everyone.
fn visible_to(job: &Job, scope: Option<&str>) -> bool {
    match (&job.request.tenant, scope) {
        (None, _) | (Some(_), None) => true,
        (Some(owner), Some(scope)) => owner == scope,
    }
}

fn route(state: &Arc<ServiceState>, request: &Request) -> (u16, Value) {
    let segments: Vec<&str> = request.path.split('/').filter(|s| !s.is_empty()).collect();
    let method = request.method.as_str();
    match (method, segments.as_slice()) {
        ("GET", ["health"]) => (200, json!({"status": "ok"})),
        ("GET", ["graphs"]) => list_graphs(state),
        ("POST", ["graphs"]) => begin_graph_ingest(state, &request.body),
        ("GET", ["graphs", name]) => graph_entry(state, name),
        ("DELETE", ["graphs", name]) => delete_graph(state, name),
        ("POST", ["graphs", name, "chunks"]) => {
            append_graph_chunk(state, name, request.query.as_deref(), &request.body)
        }
        ("POST", ["graphs", name, "finalize"]) => finalize_graph(state, name),
        ("POST", ["jobs"]) => submit_job(state, &request.body, request.api_key.as_deref()),
        ("GET", ["jobs"]) => match job_scope(state, request) {
            Err(r) => r,
            Ok(scope) => {
                let jobs = state.jobs.read();
                let list: Vec<Value> = jobs
                    .iter()
                    .filter(|j| visible_to(j, scope.as_deref()))
                    .map(|j| j.to_json())
                    .collect();
                (200, json!({"count": list.len(), "jobs": list}))
            }
        },
        ("GET", ["jobs", id]) => match job_scope(state, request) {
            Err(r) => r,
            Ok(scope) => match id
                .parse::<u64>()
                .ok()
                .and_then(|i| state.job_by_id(i))
                .filter(|j| visible_to(j, scope.as_deref()))
            {
                Some(job) => (200, job.to_json()),
                None => (404, json!({"error": format!("no job {id}")})),
            },
        },
        ("POST", ["jobs", id, "cancel"]) => match job_scope(state, request) {
            Err(r) => r,
            Ok(scope) => match id
                .parse::<u64>()
                .ok()
                .and_then(|i| state.job_by_id(i))
                .filter(|j| visible_to(j, scope.as_deref()))
            {
                Some(job) => {
                    job.cancel_requested.store(true, Ordering::Relaxed);
                    job.cancel.store(true, Ordering::Relaxed);
                    (200, json!({"id": job.id, "state": job.state().as_str()}))
                }
                None => (404, json!({"error": format!("no job {id}")})),
            },
        },
        ("GET", ["runs"]) => {
            let snapshot = state.db.snapshot();
            let runs: Vec<Value> = snapshot
                .runs
                .iter()
                .enumerate()
                .map(|(i, r)| {
                    json!({
                        "index": i,
                        "algorithm": r.algorithm,
                        "domain": r.domain,
                        "size": r.graph.size,
                        "alpha": r.graph.alpha,
                        "seed": r.seed,
                        "iterations": r.iterations,
                        "converged": r.converged,
                        "num_vertices": r.num_vertices,
                        "num_edges": r.num_edges,
                        "runtime_ms": r.runtime_ms,
                        "tenant": r.tenant,
                    })
                })
                .collect();
            (200, json!({"count": runs.len(), "runs": runs}))
        }
        ("GET", ["behavior"]) => {
            let metric = work_metric(http::query_param(request.query.as_deref(), "work"));
            let snapshot = state.db.snapshot();
            let vectors: Vec<Vec<f64>> = snapshot
                .behaviors(metric)
                .iter()
                .map(|b| b.0.to_vec())
                .collect();
            (
                200,
                json!({
                    "work": if metric == WorkMetric::WallNanos { "wall" } else { "ops" },
                    "count": vectors.len(),
                    "labels": snapshot.labels(),
                    "dimensions": ["UPDT", "WORK", "EREAD", "MSG"],
                    "vectors": vectors,
                }),
            )
        }
        ("POST", ["ensemble", "search"]) => ensemble_search(state, &request.body),
        ("GET", ["metrics"]) => (200, metrics_json(state)),
        ("POST", ["shutdown"]) => {
            let queued = state.job_queue.len();
            let running = state.running.load(Ordering::SeqCst);
            state.begin_shutdown();
            (
                200,
                json!({"state": "draining", "queued": queued, "running": running}),
            )
        }
        _ => (
            404,
            json!({"error": format!("no route for {method} {}", request.path)}),
        ),
    }
}

/// HTTP status a store failure maps to.
fn store_status(e: &StoreError) -> u16 {
    match e {
        StoreError::InvalidName(_) => 400,
        StoreError::NotFound(_) => 404,
        StoreError::IngestConflict(_) => 409,
        StoreError::Io(_) => 500,
        // Corruption classes: the request was fine, the bytes were not.
        _ => 422,
    }
}

fn store_error(e: &StoreError) -> (u16, Value) {
    (store_status(e), json!({"error": e.to_string()}))
}

fn entry_json(entry: &CatalogEntry) -> Value {
    json!({
        "name": entry.name,
        "num_vertices": entry.num_vertices,
        "num_edges": entry.num_edges,
        "directed": entry.directed,
        "class": entry.class,
        "fingerprint": format!("{:#018x}", entry.fingerprint),
        "file_bytes": entry.file_bytes,
    })
}

/// The store state, or the uniform 503 for servers started without one.
fn graphs_state(state: &ServiceState) -> Result<&StoreState, (u16, Value)> {
    state.store.as_ref().ok_or((
        503,
        json!({"error": "graph store disabled (server started without --graph-dir)"}),
    ))
}

/// The workload class a stored graph must hold to feed this algorithm.
fn expected_class(algorithm: AlgorithmKind) -> &'static str {
    match algorithm.domain() {
        Domain::GraphAnalytics | Domain::Clustering => "powerlaw",
        Domain::CollaborativeFiltering => "ratings",
        Domain::LinearSolver => "matrix",
        Domain::GraphicalModel => {
            if algorithm == AlgorithmKind::Lbp {
                "grid"
            } else {
                "mrf"
            }
        }
    }
}

fn list_graphs(state: &Arc<ServiceState>) -> (u16, Value) {
    let store = match graphs_state(state) {
        Ok(s) => s,
        Err(r) => return r,
    };
    let entries: Vec<Value> = store.catalog.list().iter().map(entry_json).collect();
    let ingesting: Vec<String> = {
        let sessions = store.sessions.lock();
        let mut names: Vec<String> = sessions.keys().cloned().collect();
        names.sort();
        names
    };
    (
        200,
        json!({"count": entries.len(), "graphs": entries, "ingesting": ingesting}),
    )
}

fn graph_entry(state: &Arc<ServiceState>, name: &str) -> (u16, Value) {
    let store = match graphs_state(state) {
        Ok(s) => s,
        Err(r) => return r,
    };
    match store.catalog.entry(name) {
        Ok(entry) => (200, entry_json(&entry)),
        Err(e) => store_error(&e),
    }
}

/// `POST /graphs` — open (or resume) a chunked ingest session. The
/// response carries `next_seq`/`bytes_received` so an interrupted client
/// knows exactly where to pick up.
fn begin_graph_ingest(state: &Arc<ServiceState>, body: &[u8]) -> (u16, Value) {
    #[derive(Deserialize)]
    struct IngestRequest {
        name: String,
        #[serde(default)]
        directed: bool,
        #[serde(default)]
        num_vertices: usize,
        #[serde(default)]
        seed: u64,
    }
    let store = match graphs_state(state) {
        Ok(s) => s,
        Err(r) => return r,
    };
    let req: IngestRequest = match serde_json::from_slice(body) {
        Ok(r) => r,
        Err(e) => return (400, json!({"error": format!("bad ingest request: {e}")})),
    };
    let config = IngestConfig {
        name: req.name.clone(),
        directed: req.directed,
        num_vertices: req.num_vertices,
        seed: req.seed,
    };
    let mut sessions = store.sessions.lock();
    if let Some(existing) = sessions.get(&req.name) {
        if *existing.config() != config {
            return (
                409,
                json!({"error": format!(
                    "ingest session `{}` already active with different parameters", req.name
                )}),
            );
        }
        return (
            200,
            json!({
                "name": req.name,
                "next_seq": existing.next_seq(),
                "bytes_received": existing.bytes_received(),
                "resumed": true,
            }),
        );
    }
    match IngestSession::begin(&store.ingest_root(), config) {
        Ok(session) => {
            let session = session.with_shim(state.shim.clone());
            let resumed = session.next_seq() > 0;
            let response = json!({
                "name": req.name,
                "next_seq": session.next_seq(),
                "bytes_received": session.bytes_received(),
                "resumed": resumed,
            });
            sessions.insert(req.name, session);
            (if resumed { 200 } else { 201 }, response)
        }
        Err(e) => store_error(&e),
    }
}

/// `POST /graphs/:name/chunks?seq=N` — append one raw-body chunk. Bodies
/// are capped by the HTTP layer (1 MiB); clients upload larger graphs as
/// a sequence of chunks.
fn append_graph_chunk(
    state: &Arc<ServiceState>,
    name: &str,
    query: Option<&str>,
    body: &[u8],
) -> (u16, Value) {
    let store = match graphs_state(state) {
        Ok(s) => s,
        Err(r) => return r,
    };
    let Some(seq) = http::query_param(query, "seq").and_then(|s| s.parse::<u64>().ok()) else {
        return (
            400,
            json!({"error": "missing or unparseable ?seq= query parameter"}),
        );
    };
    let mut sessions = store.sessions.lock();
    if !sessions.contains_key(name) {
        // Journaled session from a previous process: resume it from disk.
        match IngestSession::resume(&store.ingest_root(), name) {
            Ok(session) => {
                sessions.insert(name.to_string(), session.with_shim(state.shim.clone()));
            }
            Err(e) => return store_error(&e),
        }
    }
    let session = sessions.get_mut(name).expect("session just ensured");
    match session.append_chunk(seq, body) {
        Ok(ack) => (
            200,
            json!({
                "name": name,
                "next_seq": ack.next_seq,
                "bytes_received": ack.bytes_received,
                "duplicate": ack.duplicate,
            }),
        ),
        Err(e) => {
            // A failed append (torn write, ENOSPC, failed sync) may have
            // left bytes past the last journaled boundary. Drop the
            // in-memory session so the next request resumes from disk,
            // which truncates the data file back to that boundary before
            // the client re-uploads.
            if matches!(e, StoreError::Io(_)) {
                sessions.remove(name);
            }
            store_error(&e)
        }
    }
}

/// `POST /graphs/:name/finalize` — parse, pack, verify, and install the
/// uploaded edge list. On failure the on-disk session survives for
/// resumption; on success it is discarded and the graph is live.
fn finalize_graph(state: &Arc<ServiceState>, name: &str) -> (u16, Value) {
    let store = match graphs_state(state) {
        Ok(s) => s,
        Err(r) => return r,
    };
    let session = {
        let mut sessions = store.sessions.lock();
        match sessions.remove(name) {
            Some(s) => s,
            None => match IngestSession::resume(&store.ingest_root(), name) {
                Ok(s) => s,
                Err(e) => return store_error(&e),
            },
        }
    };
    match finalize_ingest_with(&store.catalog, session, &state.shim) {
        Ok(entry) => (201, entry_json(&entry)),
        Err(e) => store_error(&e),
    }
}

/// `DELETE /graphs/:name` — remove the stored graph and/or abort its
/// in-flight ingest session.
fn delete_graph(state: &Arc<ServiceState>, name: &str) -> (u16, Value) {
    let store = match graphs_state(state) {
        Ok(s) => s,
        Err(r) => return r,
    };
    if let Err(e) = Catalog::validate_name(name) {
        return store_error(&e);
    }
    let removed_graph = match store.catalog.remove(name) {
        Ok(()) => true,
        Err(StoreError::NotFound(_)) => false,
        Err(e) => return store_error(&e),
    };
    let session = store
        .sessions
        .lock()
        .remove(name)
        .map(Ok)
        .unwrap_or_else(|| IngestSession::resume(&store.ingest_root(), name));
    let removed_session = matches!(session.map(|s| s.discard()), Ok(Ok(())));
    if removed_graph || removed_session {
        (
            200,
            json!({
                "name": name,
                "removed_graph": removed_graph,
                "removed_session": removed_session,
            }),
        )
    } else {
        (404, json!({"error": format!("graph `{name}` not found")}))
    }
}

fn submit_job(state: &Arc<ServiceState>, body: &[u8], header_key: Option<&str>) -> (u16, Value) {
    if state.shutdown.load(Ordering::SeqCst) {
        return (503, json!({"error": "server is draining"}));
    }
    let mut request: JobRequest = match serde_json::from_slice(body) {
        Ok(r) => r,
        Err(e) => return (400, json!({"error": format!("bad job request: {e}")})),
    };
    // Authenticate before admission so the quota check knows the lane.
    // The header wins; the body's `api_key` is a fallback for clients
    // that cannot set custom headers.
    let tenant_idx = match authed_tenant(state, header_key.or(request.api_key.as_deref())) {
        Ok(idx) => idx,
        Err(r) => return r,
    };
    let workers = state.config.workers.max(1) as u64;
    // Per-tenant admission quota: a tenant's own backlog beyond its
    // configured depth is shed with 429 — before the global check, so a
    // noisy tenant hits its own wall first and cannot consume the shared
    // budget.
    if let (Some(idx), Some(registry)) = (tenant_idx, &state.tenants) {
        let quota = registry.get(idx).max_queued;
        let queued = state.job_queue.lane_len(idx);
        if quota > 0 && queued >= quota {
            state.metrics.jobs_shed.fetch_add(1, Ordering::Relaxed);
            if let Some(slot) = state.tenant_metrics.get(idx) {
                slot.shed.fetch_add(1, Ordering::Relaxed);
            }
            let retry_after_s = (queued as u64 / workers).clamp(1, 60);
            return (
                429,
                json!({
                    "error": format!(
                        "tenant queue is full ({queued} queued, quota {quota})"
                    ),
                    "retry_after_s": retry_after_s,
                    "tenant": registry.get(idx).id,
                }),
            );
        }
    }
    // Global admission control: beyond the configured depth, shed rather
    // than queue — an unbounded queue turns overload into unbounded
    // latency.
    let max_depth = state.config.max_queue_depth;
    if max_depth > 0 {
        let queued = state.job_queue.len();
        if queued >= max_depth {
            state.metrics.jobs_shed.fetch_add(1, Ordering::Relaxed);
            if let Some(slot) = tenant_idx.and_then(|i| state.tenant_metrics.get(i)) {
                slot.shed.fetch_add(1, Ordering::Relaxed);
            }
            let retry_after_s = (queued as u64 / workers).clamp(1, 60);
            return (
                429,
                json!({
                    "error": format!("job queue is full ({queued} queued, cap {max_depth})"),
                    "retry_after_s": retry_after_s,
                }),
            );
        }
    }
    let Some(algorithm) = parse_algorithm(&request.algorithm) else {
        return (
            400,
            json!({"error": format!("unknown algorithm {:?}", request.algorithm)}),
        );
    };
    if request.size == 0 {
        return (400, json!({"error": "size must be at least 1"}));
    }
    // Stored-graph jobs are validated against the catalog at submission:
    // a missing name 404s and a workload-class mismatch 409s here instead
    // of surfacing minutes later as a failed job.
    if let Some(name) = &request.graph {
        let store = match graphs_state(state) {
            Ok(s) => s,
            Err(r) => return r,
        };
        match store.catalog.entry(name) {
            Ok(entry) => {
                let needed = expected_class(algorithm);
                if entry.class != needed {
                    return (
                        409,
                        json!({"error": format!(
                            "graph `{name}` holds a {} workload; algorithm {} needs {needed}",
                            entry.class, request.algorithm
                        )}),
                    );
                }
            }
            Err(e) => return store_error(&e),
        }
    }
    if let Err(e) = parse_representation(request.representation.as_deref()) {
        return (400, json!({"error": e}));
    }
    // The tenant stamp is server-authoritative: derived from the
    // authenticated key, never from a client-supplied label. The
    // credential itself is dropped before the request is stored,
    // journaled, or rendered.
    request.tenant = match (tenant_idx, &state.tenants) {
        (Some(idx), Some(registry)) => Some(registry.get(idx).id.clone()),
        _ => None,
    };
    request.api_key = None;
    let job = {
        let mut jobs = state.jobs.write();
        let id = jobs.len() as u64;
        let job = Arc::new(Job::new(id, algorithm, request));
        jobs.push(Arc::clone(&job));
        job
    };
    state.metrics.submitted.fetch_add(1, Ordering::Relaxed);
    if let Some(slot) = tenant_idx.and_then(|i| state.tenant_metrics.get(i)) {
        slot.submitted.fetch_add(1, Ordering::Relaxed);
    }
    // Journal the acceptance BEFORE queueing: once a worker can see the
    // job, a crash must leave a Submitted record behind.
    state.journal(JournalEvent::Submitted {
        id: job.id,
        algorithm: job.algorithm.abbrev().to_string(),
        ckpt_tag: job.ckpt_tag.clone(),
        attempt: 0,
        request: job.request.clone(),
    });
    if !state
        .job_queue
        .push(tenant_idx.unwrap_or(0), Arc::clone(&job))
    {
        // Shutdown raced the submission; the job never reaches a worker.
        job.status().state = JobState::Cancelled;
        state.metrics.cancelled.fetch_add(1, Ordering::Relaxed);
        state.journal(JournalEvent::Finished {
            id: job.id,
            outcome: JobState::Cancelled.as_str().to_string(),
            record: None,
            run_index: None,
        });
        return (503, json!({"error": "server is draining", "id": job.id}));
    }
    (
        202,
        json!({"id": job.id, "state": "queued", "tenant": job.request.tenant}),
    )
}

fn ensemble_search(state: &Arc<ServiceState>, body: &[u8]) -> (u16, Value) {
    #[derive(Deserialize)]
    struct SearchRequest {
        #[serde(default)]
        objective: Option<String>,
        #[serde(default = "default_ensemble_size")]
        size: usize,
        #[serde(default)]
        work: Option<String>,
        #[serde(default = "default_samples")]
        samples: usize,
        #[serde(default = "default_sampler_seed")]
        seed: u64,
    }
    fn default_ensemble_size() -> usize {
        5
    }
    fn default_samples() -> usize {
        10_000
    }
    fn default_sampler_seed() -> u64 {
        0xC0FFEE
    }

    let effective: &[u8] = if body.is_empty() { b"{}" } else { body };
    let search: SearchRequest = match serde_json::from_slice(effective) {
        Ok(s) => s,
        Err(e) => return (400, json!({"error": format!("bad search request: {e}")})),
    };
    let snapshot = state.db.snapshot();
    if snapshot.is_empty() {
        return (409, json!({"error": "run database is empty"}));
    }
    let metric = work_metric(search.work.as_deref());
    let pool = snapshot.behaviors(metric);
    if search.size == 0 || search.size > pool.len() {
        return (
            400,
            json!({"error": format!(
                "ensemble size {} out of range 1..={}", search.size, pool.len()
            )}),
        );
    }
    let objective = search.objective.as_deref().unwrap_or("spread");
    let (members, score) = match objective {
        "spread" => best_spread_ensemble(&pool, search.size),
        "coverage" => {
            let sampler = CoverageSampler::new(search.samples.max(1), search.seed);
            best_coverage_ensemble(&pool, search.size, &sampler)
        }
        other => {
            return (
                400,
                json!({"error": format!("unknown objective {other:?} (spread|coverage)")}),
            )
        }
    };
    let labels = snapshot.labels();
    let algorithms: Vec<&str> = members.iter().map(|&i| labels[i].as_str()).collect();
    (
        200,
        json!({
            "objective": objective,
            "size": search.size,
            "members": members,
            "algorithms": algorithms,
            "score": score,
        }),
    )
}

fn metrics_json(state: &ServiceState) -> Value {
    json!({
        "jobs": {
            "submitted": state.metrics.submitted.load(Ordering::Relaxed),
            "queued": state.job_queue.len(),
            "running": state.running.load(Ordering::SeqCst),
            "done": state.metrics.done.load(Ordering::Relaxed),
            "failed": state.metrics.failed.load(Ordering::Relaxed),
            "cancelled": state.metrics.cancelled.load(Ordering::Relaxed),
            "timed_out": state.metrics.timed_out.load(Ordering::Relaxed),
        },
        "latency_ms": state.metrics.latency_json(),
        "stages": state.metrics.stages.json(),
        "robustness": {
            "retries": state.metrics.retries.load(Ordering::Relaxed),
            "panics_quarantined": state.metrics.panics_quarantined.load(Ordering::Relaxed),
            "jobs_shed": state.metrics.jobs_shed.load(Ordering::Relaxed),
            "watchdog_requeues": state.metrics.watchdog_requeues.load(Ordering::Relaxed),
            "jobs_recovered": state.metrics.jobs_recovered.load(Ordering::Relaxed),
            "store_rebuilds": state.metrics.store_rebuilds.load(Ordering::Relaxed),
            "compressed_fallbacks": state.metrics.compressed_fallbacks.load(Ordering::Relaxed),
            "orphans_collected": state.metrics.orphans_collected.load(Ordering::Relaxed),
            "retry_pending": state.retries.lock().len(),
            "journal_enabled": state.journal.is_enabled(),
            "checkpoints": {
                "written": state.ckpt_stats.written.load(Ordering::Relaxed),
                "write_failures": state.ckpt_stats.write_failures.load(Ordering::Relaxed),
                "restored": state.ckpt_stats.restored.load(Ordering::Relaxed),
                "fallbacks": state.ckpt_stats.fallbacks.load(Ordering::Relaxed),
            },
        },
        "cache": {
            "hits": state.cache.hits(),
            "misses": state.cache.misses(),
            "resident_bytes": state.cache.resident_bytes(),
            "entries": state.cache.len(),
        },
        "store": match state.store.as_ref() {
            Some(store) => json!({
                "enabled": true,
                "graphs": store.catalog.list().len(),
                "ingesting": store.sessions.lock().len(),
            }),
            None => json!({"enabled": false}),
        },
        "direction": {
            "push_iterations": state.metrics.push_iterations.load(Ordering::Relaxed),
            "pull_iterations": state.metrics.pull_iterations.load(Ordering::Relaxed),
        },
        "tenants": match state.tenants.as_ref() {
            Some(registry) => {
                let per_tenant: Vec<Value> = state
                    .tenant_metrics
                    .iter()
                    .enumerate()
                    .map(|(i, t)| {
                        let mut v = t.json();
                        v["id"] = json!(t.id);
                        v["queued"] = json!(state.job_queue.lane_len(i));
                        v["weight"] = json!(registry.get(i).weight);
                        v["max_queued"] = json!(registry.get(i).max_queued);
                        v
                    })
                    .collect();
                json!({"enabled": true, "count": registry.len(), "per_tenant": per_tenant})
            }
            None => json!({"enabled": false}),
        },
        "shards": state.config.shards,
        "db_runs": state.db.len(),
        "draining": state.shutdown.load(Ordering::SeqCst),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::client;

    fn start_test_server() -> (String, ServerHandle) {
        let handle = Server::start(ServiceConfig {
            addr: "127.0.0.1:0".to_string(),
            workers: 2,
            http_workers: 2,
            cache_bytes: 16 * 1024 * 1024,
            default_timeout_ms: 60_000,
            persist_every: 0,
            ..ServiceConfig::default()
        })
        .unwrap();
        (handle.addr().to_string(), handle)
    }

    fn stop(addr: &str, handle: ServerHandle) {
        let (status, _) = client::request(addr, "POST", "/shutdown", None).unwrap();
        assert_eq!(status, 200);
        handle.wait().unwrap();
    }

    #[test]
    fn health_and_unknown_routes() {
        let (addr, handle) = start_test_server();
        let (status, body) = client::request(&addr, "GET", "/health", None).unwrap();
        assert_eq!(status, 200);
        assert_eq!(body["status"], "ok");
        let (status, _) = client::request(&addr, "GET", "/no/such/route", None).unwrap();
        assert_eq!(status, 404);
        stop(&addr, handle);
    }

    #[test]
    fn bad_submissions_are_rejected() {
        let (addr, handle) = start_test_server();
        let (status, body) =
            client::request(&addr, "POST", "/jobs", Some(&json!({"algorithm": "nope"}))).unwrap();
        assert_eq!(status, 400);
        assert!(body["error"]
            .as_str()
            .unwrap()
            .contains("unknown algorithm"));
        let (status, _) = client::request(
            &addr,
            "POST",
            "/jobs",
            Some(&json!({"algorithm": "PR", "size": 0})),
        )
        .unwrap();
        assert_eq!(status, 400);
        let (status, _) = client::request(&addr, "GET", "/jobs/99", None).unwrap();
        assert_eq!(status, 404);
        stop(&addr, handle);
    }

    #[test]
    fn job_runs_to_done_and_lands_in_db() {
        let (addr, handle) = start_test_server();
        let (status, body) = client::request(
            &addr,
            "POST",
            "/jobs",
            Some(&json!({"algorithm": "PR", "size": 500, "seed": 3, "profile": "quick"})),
        )
        .unwrap();
        assert_eq!(status, 202);
        let id = body["id"].as_u64().unwrap();
        let done = client::wait_for_job(&addr, id, Duration::from_secs(60)).unwrap();
        assert_eq!(done["state"], "done", "job failed: {done}");
        assert_eq!(done["run_index"], 0);
        let (status, runs) = client::request(&addr, "GET", "/runs", None).unwrap();
        assert_eq!(status, 200);
        assert_eq!(runs["count"], 1);
        assert_eq!(runs["runs"][0]["algorithm"], "PR");
        stop(&addr, handle);
    }

    #[test]
    fn keep_alive_client_reuses_one_connection_and_sees_stages() {
        let (addr, handle) = start_test_server();
        let mut c = client::Client::new(&addr);
        let (status, body) = c
            .request(
                "POST",
                "/jobs",
                Some(&json!({"algorithm": "PR", "size": 300, "profile": "quick"})),
            )
            .unwrap();
        assert_eq!(status, 202);
        let id = body["id"].as_u64().unwrap();
        // Polling on the same client keeps reusing the kept-alive socket.
        let done = client::wait_for_job_with(&mut c, id, Duration::from_secs(60)).unwrap();
        assert_eq!(done["state"], "done", "job failed: {done}");
        let stages = &done["stages"];
        for key in [
            "queue_wait_ms",
            "cache_load_ms",
            "execute_ms",
            "serialize_ms",
        ] {
            assert!(
                stages[key].as_f64().unwrap() >= 0.0,
                "missing stage key {key} in {done}"
            );
        }
        let (status, metrics) = c.request("GET", "/metrics", None).unwrap();
        assert_eq!(status, 200);
        for stage in ["queue_wait", "cache_load", "execute", "serialize", "total"] {
            let count = metrics["stages"][stage]["summary"]["count"]
                .as_u64()
                .unwrap();
            assert!(count >= 1, "stage {stage} recorded nothing: {metrics}");
        }
        stop(&addr, handle);
    }

    #[test]
    fn ensemble_search_on_empty_db_conflicts() {
        let (addr, handle) = start_test_server();
        let (status, _) =
            client::request(&addr, "POST", "/ensemble/search", Some(&json!({}))).unwrap();
        assert_eq!(status, 409);
        stop(&addr, handle);
    }

    #[test]
    fn metrics_expose_robustness_counters() {
        let (addr, handle) = start_test_server();
        let (status, body) = client::request(&addr, "GET", "/metrics", None).unwrap();
        assert_eq!(status, 200);
        let rob = &body["robustness"];
        for key in [
            "retries",
            "panics_quarantined",
            "jobs_shed",
            "watchdog_requeues",
            "jobs_recovered",
            "store_rebuilds",
            "compressed_fallbacks",
            "orphans_collected",
        ] {
            assert_eq!(rob[key], 0, "missing or nonzero robustness key {key}");
        }
        assert_eq!(rob["journal_enabled"], false);
        assert_eq!(rob["checkpoints"]["written"], 0);
        assert_eq!(rob["checkpoints"]["fallbacks"], 0);
        stop(&addr, handle);
    }

    #[test]
    fn second_server_on_same_db_is_refused_with_typed_lock_error() {
        let dir =
            std::env::temp_dir().join(format!("graphmine-service-lock-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let config = ServiceConfig {
            addr: "127.0.0.1:0".to_string(),
            workers: 1,
            http_workers: 1,
            db_path: Some(dir.join("db.json")),
            persist_every: 0,
            ..ServiceConfig::default()
        };
        let first = Server::start(config.clone()).unwrap();
        let err = Server::start(config.clone())
            .err()
            .expect("second server must be refused");
        let typed = err
            .get_ref()
            .and_then(|e| e.downcast_ref::<crate::lock::AlreadyLocked>())
            .expect("error should downcast to AlreadyLocked");
        assert_eq!(typed.pid, std::process::id());
        let addr = first.addr().to_string();
        stop(&addr, first);
        // The lock is released on shutdown; a restart succeeds.
        let again = Server::start(config).unwrap();
        let addr = again.addr().to_string();
        stop(&addr, again);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn graph_routes_503_when_store_is_disabled() {
        let (addr, handle) = start_test_server();
        let (status, _) = client::request(&addr, "GET", "/graphs", None).unwrap();
        assert_eq!(status, 503);
        let (status, body) = client::request(
            &addr,
            "POST",
            "/jobs",
            Some(&json!({"algorithm": "PR", "graph": "g"})),
        )
        .unwrap();
        assert_eq!(status, 503, "{body}");
        stop(&addr, handle);
    }

    #[test]
    fn graph_store_ingest_and_stored_jobs_end_to_end() {
        let dir =
            std::env::temp_dir().join(format!("graphmine-service-store-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let handle = Server::start(ServiceConfig {
            addr: "127.0.0.1:0".to_string(),
            workers: 2,
            http_workers: 2,
            cache_bytes: 64 * 1024 * 1024,
            default_timeout_ms: 60_000,
            persist_every: 0,
            graph_dir: Some(dir.clone()),
            ..ServiceConfig::default()
        })
        .unwrap();
        let addr = handle.addr().to_string();
        let mut c = client::Client::new(&addr);

        // Bad names never become sessions.
        let (status, _) = c
            .request("POST", "/graphs", Some(&json!({"name": "../evil"})))
            .unwrap();
        assert_eq!(status, 400);

        // Begin a session and upload a 100-vertex ring in two chunks.
        let (status, body) = c
            .request("POST", "/graphs", Some(&json!({"name": "ring"})))
            .unwrap();
        assert_eq!(status, 201, "{body}");
        assert_eq!(body["next_seq"], 0);
        let mut edges = String::new();
        for v in 0..100u32 {
            edges.push_str(&format!("{} {}\n", v, (v + 1) % 100));
        }
        // Split on a line boundary so each chunk is independently valid.
        let half = edges[..edges.len() / 2].rfind('\n').map(|i| i + 1).unwrap();
        let r = c
            .send_raw(
                "POST",
                "/graphs/ring/chunks?seq=0",
                &edges.as_bytes()[..half],
            )
            .unwrap();
        assert_eq!(r.status, 200, "{}", r.body);
        assert_eq!(r.body["next_seq"], 1);
        // Out-of-order chunks conflict; retries of applied chunks are
        // acknowledged idempotently.
        let gap = c
            .send_raw("POST", "/graphs/ring/chunks?seq=7", b"x")
            .unwrap();
        assert_eq!(gap.status, 409);
        let dup = c
            .send_raw(
                "POST",
                "/graphs/ring/chunks?seq=0",
                &edges.as_bytes()[..half],
            )
            .unwrap();
        assert_eq!(dup.status, 200);
        assert_eq!(dup.body["duplicate"], true);
        let r = c
            .send_raw(
                "POST",
                "/graphs/ring/chunks?seq=1",
                &edges.as_bytes()[half..],
            )
            .unwrap();
        assert_eq!(r.status, 200, "{}", r.body);

        // Finalize: parse → pack → verify → install.
        let (status, entry) = c.request("POST", "/graphs/ring/finalize", None).unwrap();
        assert_eq!(status, 201, "{entry}");
        assert_eq!(entry["num_vertices"], 100);
        assert_eq!(entry["num_edges"], 100);
        assert_eq!(entry["class"], "powerlaw");
        let (status, list) = c.request("GET", "/graphs", None).unwrap();
        assert_eq!(status, 200);
        assert_eq!(list["count"], 1);
        assert_eq!(list["graphs"][0]["name"], "ring");

        // Jobs referencing the stored graph run to completion; the second
        // submission hits the cache entry keyed by the store fingerprint.
        let job = json!({"algorithm": "PR", "graph": "ring", "profile": "quick"});
        let (status, body) = c.request("POST", "/jobs", Some(&job)).unwrap();
        assert_eq!(status, 202, "{body}");
        let id = body["id"].as_u64().unwrap();
        let done = client::wait_for_job(&addr, id, Duration::from_secs(60)).unwrap();
        assert_eq!(done["state"], "done", "job failed: {done}");
        let (_, body) = c.request("POST", "/jobs", Some(&job)).unwrap();
        let id2 = body["id"].as_u64().unwrap();
        let done2 = client::wait_for_job(&addr, id2, Duration::from_secs(60)).unwrap();
        assert_eq!(done2["state"], "done", "job failed: {done2}");
        assert_eq!(done2["cache_hit"], true);
        let (_, runs) = c.request("GET", "/runs", None).unwrap();
        assert_eq!(runs["runs"][0]["size"], 100);

        // Submission-time validation: unknown graphs 404, class
        // mismatches 409.
        let (status, _) = c
            .request(
                "POST",
                "/jobs",
                Some(&json!({"algorithm": "PR", "graph": "nope"})),
            )
            .unwrap();
        assert_eq!(status, 404);
        let (status, body) = c
            .request(
                "POST",
                "/jobs",
                Some(&json!({"algorithm": "ALS", "graph": "ring"})),
            )
            .unwrap();
        assert_eq!(status, 409, "{body}");

        // Metrics expose the store; DELETE removes the graph.
        let (_, metrics) = c.request("GET", "/metrics", None).unwrap();
        assert_eq!(metrics["store"]["enabled"], true);
        assert_eq!(metrics["store"]["graphs"], 1);
        let (status, _) = c.request("DELETE", "/graphs/ring", None).unwrap();
        assert_eq!(status, 200);
        let (status, _) = c.request("GET", "/graphs/ring", None).unwrap();
        assert_eq!(status, 404);

        stop(&addr, handle);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn admission_control_sheds_with_429_and_retry_after() {
        // One worker stuck on a slow job + depth cap of 1 ⇒ the second
        // queued submission is shed. The stuck job holds the worker via a
        // long engine run; queued depth is then deterministic.
        let handle = Server::start(ServiceConfig {
            addr: "127.0.0.1:0".to_string(),
            workers: 1,
            http_workers: 2,
            cache_bytes: 16 * 1024 * 1024,
            default_timeout_ms: 60_000,
            persist_every: 0,
            max_queue_depth: 1,
            ..ServiceConfig::default()
        })
        .unwrap();
        let addr = handle.addr().to_string();
        // Occupy the worker long enough for the queue to fill.
        let slow = json!({"algorithm": "PR", "size": 200_000, "max_iterations": 400});
        let (status, _) = client::request(&addr, "POST", "/jobs", Some(&slow)).unwrap();
        assert_eq!(status, 202);
        let quick = json!({"algorithm": "PR", "size": 100, "profile": "quick"});
        // Fill the queue (depth 1), then expect a shed. The worker may
        // dequeue between submissions, so allow a couple of rounds.
        let mut shed = None;
        for _ in 0..50 {
            let (status, body) = client::request(&addr, "POST", "/jobs", Some(&quick)).unwrap();
            if status == 429 {
                shed = Some(body);
                break;
            }
            assert_eq!(status, 202);
        }
        let body = shed.expect("never got a 429 with queue depth capped at 1");
        assert!(body["retry_after_s"].as_u64().unwrap() >= 1);
        let (_, metrics) = client::request(&addr, "GET", "/metrics", None).unwrap();
        assert!(metrics["robustness"]["jobs_shed"].as_u64().unwrap() >= 1);
        // Cancel everything so shutdown is prompt.
        let (_, jobs) = client::request(&addr, "GET", "/jobs", None).unwrap();
        for j in jobs["jobs"].as_array().unwrap() {
            let id = j["id"].as_u64().unwrap();
            let _ = client::request(&addr, "POST", &format!("/jobs/{id}/cancel"), None);
        }
        stop(&addr, handle);
    }

    #[test]
    fn multi_tenant_auth_scoping_and_stamping() {
        let specs = vec![TenantSpec::derived(0), TenantSpec::derived(1)];
        let key0 = specs[0].key.clone();
        let key1 = specs[1].key.clone();
        let handle = Server::start(ServiceConfig {
            addr: "127.0.0.1:0".to_string(),
            workers: 2,
            http_workers: 2,
            cache_bytes: 16 * 1024 * 1024,
            default_timeout_ms: 60_000,
            persist_every: 0,
            tenants: Some(specs),
            shards: 2,
            ..ServiceConfig::default()
        })
        .unwrap();
        let addr = handle.addr().to_string();
        let job = json!({"algorithm": "PR", "size": 300, "profile": "quick"});

        // Job routes demand a key: absent and unknown keys get the same
        // uniform 401; operational routes stay open.
        let (status, body) = client::request(&addr, "POST", "/jobs", Some(&job)).unwrap();
        assert_eq!(status, 401, "{body}");
        let (status, _) = client::request(&addr, "GET", "/jobs", None).unwrap();
        assert_eq!(status, 401);
        let mut bogus = client::Client::new(&addr).with_api_key("tk-0-0000000000000000");
        let (status, _) = bogus.request("POST", "/jobs", Some(&job)).unwrap();
        assert_eq!(status, 401);
        let (status, _) = client::request(&addr, "GET", "/health", None).unwrap();
        assert_eq!(status, 200);

        // An authenticated submission is stamped server-side with the
        // tenant resolved from the key — never from the request body.
        let mut c0 = client::Client::new(&addr).with_api_key(&key0);
        let mut c1 = client::Client::new(&addr).with_api_key(&key1);
        let (status, body) = c0.request("POST", "/jobs", Some(&job)).unwrap();
        assert_eq!(status, 202, "{body}");
        assert_eq!(body["tenant"], "tenant-0");
        let id = body["id"].as_u64().unwrap();

        // Cross-tenant access is indistinguishable from a missing job.
        let (status, _) = c1.request("GET", &format!("/jobs/{id}"), None).unwrap();
        assert_eq!(status, 404);
        let (status, _) = c1
            .request("POST", &format!("/jobs/{id}/cancel"), None)
            .unwrap();
        assert_eq!(status, 404);
        let (_, listing) = c1.request("GET", "/jobs", None).unwrap();
        assert_eq!(listing["count"], 0);

        // The owner sees the job through to completion, tenant-stamped and
        // with the API key scrubbed from the stored request.
        let done = client::wait_for_job_with(&mut c0, id, Duration::from_secs(60)).unwrap();
        assert_eq!(done["state"], "done", "job failed: {done}");
        assert_eq!(done["tenant"], "tenant-0");
        assert_eq!(done["request"]["tenant"], "tenant-0");
        assert!(done["request"].get("api_key").is_none(), "{done}");
        let (_, listing) = c0.request("GET", "/jobs", None).unwrap();
        assert_eq!(listing["count"], 1);

        // The run record and the metrics are sliced by tenant.
        let (_, runs) = client::request(&addr, "GET", "/runs", None).unwrap();
        assert_eq!(runs["runs"][0]["tenant"], "tenant-0");
        let (_, metrics) = client::request(&addr, "GET", "/metrics", None).unwrap();
        assert_eq!(metrics["tenants"]["enabled"], true);
        assert_eq!(metrics["tenants"]["count"], 2);
        assert_eq!(metrics["shards"], 2);
        let per = metrics["tenants"]["per_tenant"].as_array().unwrap();
        assert_eq!(per[0]["id"], "tenant-0");
        assert_eq!(per[0]["jobs"]["submitted"], 1);
        assert_eq!(per[0]["jobs"]["done"], 1);
        assert_eq!(per[1]["jobs"]["submitted"], 0);
        assert!(
            per[0]["stages"]["total"]["summary"]["count"]
                .as_u64()
                .unwrap()
                >= 1,
            "{metrics}"
        );
        stop(&addr, handle);
    }

    #[test]
    fn tenant_quota_sheds_noisy_tenant_but_admits_the_other() {
        // One worker held by a slow job; tenant-0 floods its own lane
        // (quota 2) until it sheds, while tenant-1's lane stays open.
        let specs = vec![
            TenantSpec::derived(0).with_max_queued(2),
            TenantSpec::derived(1).with_max_queued(2),
        ];
        let key0 = specs[0].key.clone();
        let key1 = specs[1].key.clone();
        let handle = Server::start(ServiceConfig {
            addr: "127.0.0.1:0".to_string(),
            workers: 1,
            http_workers: 2,
            cache_bytes: 16 * 1024 * 1024,
            default_timeout_ms: 60_000,
            persist_every: 0,
            tenants: Some(specs),
            ..ServiceConfig::default()
        })
        .unwrap();
        let addr = handle.addr().to_string();
        let mut c0 = client::Client::new(&addr).with_api_key(&key0);
        let mut c1 = client::Client::new(&addr).with_api_key(&key1);

        // Occupy the worker long enough for tenant-0's lane to fill.
        let slow = json!({"algorithm": "PR", "size": 200_000, "max_iterations": 400});
        let (status, _) = c0.request("POST", "/jobs", Some(&slow)).unwrap();
        assert_eq!(status, 202);
        let quick = json!({"algorithm": "PR", "size": 100, "profile": "quick"});
        let mut shed = None;
        for _ in 0..50 {
            let (status, body) = c0.request("POST", "/jobs", Some(&quick)).unwrap();
            if status == 429 {
                shed = Some(body);
                break;
            }
            assert_eq!(status, 202);
        }
        let body = shed.expect("tenant quota of 2 never shed");
        assert!(body["error"].as_str().unwrap().contains("tenant queue"));
        assert!(body["retry_after_s"].as_u64().unwrap() >= 1);
        assert_eq!(body["tenant"], "tenant-0");

        // The quiet tenant is not behind tenant-0's wall.
        let (status, accepted) = c1.request("POST", "/jobs", Some(&quick)).unwrap();
        assert_eq!(status, 202, "{accepted}");

        // The shed is attributed to the noisy tenant alone.
        let (_, metrics) = client::request(&addr, "GET", "/metrics", None).unwrap();
        let per = metrics["tenants"]["per_tenant"].as_array().unwrap();
        assert!(per[0]["jobs"]["shed"].as_u64().unwrap() >= 1);
        assert_eq!(per[1]["jobs"]["shed"], 0);

        // Cancel every job (each tenant sees only its own) for a prompt stop.
        for c in [&mut c0, &mut c1] {
            let (_, jobs) = c.request("GET", "/jobs", None).unwrap();
            for j in jobs["jobs"].as_array().unwrap() {
                let id = j["id"].as_u64().unwrap();
                let _ = c.request("POST", &format!("/jobs/{id}/cancel"), None);
            }
        }
        stop(&addr, handle);
    }
}
