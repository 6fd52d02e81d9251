//! Benchmark jobs: the request wire format, the lifecycle state machine,
//! and the mapping from a request to a generatable workload.

use crate::cache::CacheKey;
use graphmine_algos::{AlgorithmKind, Domain, Workload};
use graphmine_graph::Representation;
use serde::{Deserialize, Serialize};
use serde_json::json;
use std::sync::atomic::{AtomicBool, AtomicU32, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};
use std::time::Instant;

/// A job submission (`POST /jobs` body).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct JobRequest {
    /// Algorithm abbreviation, case-insensitive ("PR", "sssp", …).
    pub algorithm: String,
    /// Named graph from the store catalog to run on instead of generating
    /// a synthetic workload. When set, `size`, `alpha`, and `seed` are
    /// ignored (the stored graph fixes them) while `reorder` still applies.
    #[serde(default)]
    pub graph: Option<String>,
    /// Domain size parameter: edge count for power-law/ratings/MRF inputs,
    /// row count for matrices, grid side for LBP.
    #[serde(default = "default_size")]
    pub size: u64,
    /// Power-law exponent for degree-distribution workloads (default 2.5).
    #[serde(default)]
    pub alpha: Option<f64>,
    /// Generator seed.
    #[serde(default)]
    pub seed: u64,
    /// Scale profile ("quick" | "default" | "full") selecting the iteration
    /// cap; overridden by `max_iterations` when both are given.
    #[serde(default)]
    pub profile: Option<String>,
    /// Explicit engine iteration cap.
    #[serde(default)]
    pub max_iterations: Option<usize>,
    /// Wall-clock timeout in milliseconds; the server default applies when
    /// absent.
    #[serde(default)]
    pub timeout_ms: Option<u64>,
    /// Engine checkpoint interval in iterations (0/absent = no
    /// checkpointing). Checkpointed jobs resume from the last boundary
    /// after a crash, a panic retry, or a watchdog requeue instead of
    /// restarting from iteration 0.
    #[serde(default)]
    pub checkpoint_every: Option<usize>,
    /// Permute the generated graph's vertices degree-descending before
    /// running (hub-first CSR locality). Off by default.
    #[serde(default)]
    pub reorder: bool,
    /// Adjacency representation: "plain" (default) or "compressed"
    /// (delta-varint rows). Either choice produces bit-identical results;
    /// only memory footprint and wall-clock differ.
    #[serde(default)]
    pub representation: Option<String>,
    /// Submitting tenant's id. Server-authoritative on a multi-tenant
    /// server: admission overwrites it from the authenticated API key, so
    /// a client cannot label its jobs as another tenant's. `None` on
    /// single-tenant servers.
    #[serde(default)]
    pub tenant: Option<String>,
    /// API key presented with the submission (`X-Api-Key` wins when both
    /// are present). Never echoed back: the server strips it before the
    /// request is journaled or rendered.
    #[serde(default, skip_serializing)]
    pub api_key: Option<String>,
}

fn default_size() -> u64 {
    1000
}

/// Job lifecycle: `queued → running → done | failed | cancelled | timed_out`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum JobState {
    /// Accepted, waiting for a worker.
    #[default]
    Queued,
    /// A worker is executing it.
    Running,
    /// Finished; its run record is in the database.
    Done,
    /// Panicked or rejected (e.g. algorithm/workload mismatch).
    Failed,
    /// Stopped by `POST /jobs/:id/cancel`.
    Cancelled,
    /// Stopped by the watchdog at its wall-clock deadline.
    TimedOut,
}

impl JobState {
    /// Wire name of the state.
    pub fn as_str(&self) -> &'static str {
        match self {
            JobState::Queued => "queued",
            JobState::Running => "running",
            JobState::Done => "done",
            JobState::Failed => "failed",
            JobState::Cancelled => "cancelled",
            JobState::TimedOut => "timed_out",
        }
    }

    /// Whether the job can no longer change state.
    pub fn is_terminal(&self) -> bool {
        !matches!(self, JobState::Queued | JobState::Running)
    }
}

/// Mutable per-job bookkeeping, behind the job's mutex.
#[derive(Debug, Default)]
pub struct JobStatus {
    /// Current lifecycle state.
    pub state: JobState,
    /// Failure description, when `state == Failed`.
    pub error: Option<String>,
    /// Iterations the engine executed (terminal states only).
    pub iterations: usize,
    /// Whether the run converged before its cap.
    pub converged: bool,
    /// Whether the workload came out of the graph cache.
    pub cache_hit: bool,
    /// Index of the produced record in the run database (`Done` only).
    pub run_index: Option<usize>,
    /// Milliseconds spent queued before a worker picked the job up
    /// (enqueue → dequeue).
    pub queue_ms: f64,
    /// Milliseconds of execution (workload build + run).
    pub run_ms: f64,
    /// Milliseconds resolving the workload: cache probe, plus generation
    /// on a miss (dequeue → cache-resolve).
    pub cache_ms: f64,
    /// Milliseconds of engine execution (execute-start → execute-end).
    pub execute_ms: f64,
    /// Milliseconds serializing the result: run-record build + database
    /// append (execute-end → respond). `Done` jobs only.
    pub serialize_ms: f64,
}

impl JobStatus {
    /// Stage timings as JSON: per-stage durations plus the derived
    /// timestamps of each pipeline boundary, in milliseconds relative to
    /// submission (enqueue = 0).
    pub fn stages_json(&self) -> serde_json::Value {
        let dequeue = self.queue_ms;
        let cache_resolve = dequeue + self.cache_ms;
        let execute_end = cache_resolve + self.execute_ms;
        let respond = execute_end + self.serialize_ms;
        json!({
            "queue_wait_ms": self.queue_ms,
            "cache_load_ms": self.cache_ms,
            "execute_ms": self.execute_ms,
            "serialize_ms": self.serialize_ms,
            "timestamps_ms": {
                "enqueue": 0.0,
                "dequeue": dequeue,
                "cache_resolve": cache_resolve,
                "execute_start": cache_resolve,
                "execute_end": execute_end,
                "respond": respond,
            },
        })
    }
}

/// One submitted job.
#[derive(Debug)]
pub struct Job {
    /// Server-assigned id (index into the job table).
    pub id: u64,
    /// The submission as received.
    pub request: JobRequest,
    /// Parsed algorithm.
    pub algorithm: AlgorithmKind,
    /// Submission instant (latency accounting baseline).
    pub submitted: Instant,
    /// Cooperative stop flag threaded into the engine; set by the watchdog
    /// at the deadline or by a cancel request.
    pub cancel: Arc<AtomicBool>,
    /// Set only by an explicit cancel request — distinguishes `Cancelled`
    /// from `TimedOut` when the engine stops on the shared `cancel` flag.
    pub cancel_requested: AtomicBool,
    /// Execution attempts consumed (incremented when a worker starts the
    /// job; retries and watchdog requeues run against a retry budget).
    pub attempt: AtomicU32,
    /// Stable checkpoint tag. Job ids are reassigned across restarts, so
    /// the tag — not the id — names the checkpoint file a recovered job
    /// resumes from.
    pub ckpt_tag: String,
    status: Mutex<JobStatus>,
}

impl Job {
    /// Create a freshly queued job.
    pub fn new(id: u64, algorithm: AlgorithmKind, request: JobRequest) -> Job {
        Job::recovered(id, algorithm, request, format!("job{id}"), 0)
    }

    /// Re-create a job from the journal: the checkpoint tag and consumed
    /// attempts carry over from its previous incarnation.
    pub fn recovered(
        id: u64,
        algorithm: AlgorithmKind,
        request: JobRequest,
        ckpt_tag: String,
        attempt: u32,
    ) -> Job {
        Job {
            id,
            request,
            algorithm,
            submitted: Instant::now(),
            cancel: Arc::new(AtomicBool::new(false)),
            cancel_requested: AtomicBool::new(false),
            attempt: AtomicU32::new(attempt),
            ckpt_tag,
            status: Mutex::new(JobStatus::default()),
        }
    }

    /// Attempts consumed so far.
    pub fn attempts(&self) -> u32 {
        self.attempt.load(Ordering::Relaxed)
    }

    /// Lock the mutable status (poison-tolerant: state transitions are
    /// single-field writes, never left half-done).
    pub fn status(&self) -> MutexGuard<'_, JobStatus> {
        self.status.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Current lifecycle state.
    pub fn state(&self) -> JobState {
        self.status().state
    }

    /// JSON rendering of the job for the API.
    pub fn to_json(&self) -> serde_json::Value {
        let status = self.status();
        json!({
            "id": self.id,
            "algorithm": self.algorithm.abbrev(),
            "tenant": self.request.tenant,
            "request": self.request,
            "state": status.state.as_str(),
            "error": status.error,
            "iterations": status.iterations,
            "converged": status.converged,
            "cache_hit": status.cache_hit,
            "run_index": status.run_index,
            "queue_ms": status.queue_ms,
            "run_ms": status.run_ms,
            "stages": status.stages_json(),
            "attempt": self.attempts(),
        })
    }

    /// The engine iteration cap this request resolves to: explicit
    /// `max_iterations` wins, then a named profile, then the default
    /// profile's cap.
    pub fn resolved_max_iterations(&self) -> usize {
        if let Some(n) = self.request.max_iterations {
            return n.max(1);
        }
        match self.request.profile.as_deref() {
            Some("quick") => 60,
            Some("full") => 400,
            _ => 200,
        }
    }
}

/// Parse a request's adjacency-representation field; `None` means `Plain`.
pub fn parse_representation(name: Option<&str>) -> Result<Representation, String> {
    match name {
        None => Ok(Representation::Plain),
        Some(s) => s.to_ascii_lowercase().parse::<Representation>(),
    }
}

/// Look up an algorithm by its paper abbreviation, case-insensitively.
pub fn parse_algorithm(name: &str) -> Option<AlgorithmKind> {
    AlgorithmKind::ALL
        .into_iter()
        .find(|a| a.abbrev().eq_ignore_ascii_case(name))
}

/// Stable domain name used in run records (matches the harness).
pub fn domain_name(domain: Domain) -> &'static str {
    match domain {
        Domain::GraphAnalytics => "GraphAnalytics",
        Domain::Clustering => "Clustering",
        Domain::CollaborativeFiltering => "CollaborativeFiltering",
        Domain::LinearSolver => "LinearSolver",
        Domain::GraphicalModel => "GraphicalModel",
    }
}

/// Default power-law exponent when the request leaves `alpha` unset.
pub const DEFAULT_ALPHA: f64 = 2.5;

/// Whether this algorithm's workload takes a power-law exponent.
fn uses_alpha(algorithm: AlgorithmKind) -> bool {
    matches!(
        algorithm.domain(),
        Domain::GraphAnalytics | Domain::Clustering | Domain::CollaborativeFiltering
    )
}

/// The cache identity of the workload this request generates. Jobs with
/// the same key share one workload regardless of algorithm, matching
/// [`build_workload`] exactly: two requests map to the same key iff they
/// generate identical workloads.
pub fn cache_key(algorithm: AlgorithmKind, request: &JobRequest) -> CacheKey {
    let class = match algorithm.domain() {
        Domain::GraphAnalytics | Domain::Clustering => 0,
        Domain::CollaborativeFiltering => 1,
        Domain::LinearSolver => 2,
        Domain::GraphicalModel => {
            if algorithm == AlgorithmKind::Lbp {
                3
            } else {
                4
            }
        }
    };
    let alpha_milli = if uses_alpha(algorithm) {
        (request.alpha.unwrap_or(DEFAULT_ALPHA) * 1000.0).round() as u64
    } else {
        0
    };
    CacheKey::Generated {
        class,
        size: request.size,
        alpha_milli,
        seed: request.seed,
        reorder: request.reorder,
        compressed: parse_representation(request.representation.as_deref()).unwrap_or_default()
            == Representation::Compressed,
    }
}

/// Generate the workload this request describes (same domain mapping as
/// the offline harness).
pub fn build_workload(algorithm: AlgorithmKind, request: &JobRequest) -> Workload {
    let size = request.size as usize;
    let alpha = request.alpha.unwrap_or(DEFAULT_ALPHA);
    let seed = request.seed;
    let workload = match algorithm.domain() {
        Domain::GraphAnalytics | Domain::Clustering => Workload::powerlaw(size, alpha, seed),
        Domain::CollaborativeFiltering => Workload::ratings(size, alpha, seed),
        Domain::LinearSolver => Workload::matrix(size, seed),
        Domain::GraphicalModel => {
            if algorithm == AlgorithmKind::Lbp {
                Workload::grid(size, seed)
            } else {
                Workload::mrf(size, seed)
            }
        }
    };
    let workload = if request.reorder {
        workload.reordered_by_degree()
    } else {
        workload
    };
    if parse_representation(request.representation.as_deref()).unwrap_or_default()
        == Representation::Compressed
    {
        workload
            .with_representation(Representation::Compressed)
            .expect("generated graphs have sorted rows")
    } else {
        workload
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn request(alg: &str) -> JobRequest {
        JobRequest {
            algorithm: alg.to_string(),
            graph: None,
            size: 500,
            alpha: None,
            seed: 7,
            profile: None,
            max_iterations: None,
            timeout_ms: None,
            checkpoint_every: None,
            reorder: false,
            representation: None,
            tenant: None,
            api_key: None,
        }
    }

    #[test]
    fn algorithm_parsing_is_case_insensitive() {
        assert_eq!(parse_algorithm("PR"), Some(AlgorithmKind::Pr));
        assert_eq!(parse_algorithm("sssp"), Some(AlgorithmKind::Sssp));
        assert_eq!(parse_algorithm("jacobi"), Some(AlgorithmKind::Jacobi));
        assert_eq!(parse_algorithm("nope"), None);
    }

    #[test]
    fn request_defaults_fill_in() {
        let req: JobRequest = serde_json::from_str(r#"{"algorithm":"CC"}"#).unwrap();
        assert_eq!(req.size, 1000);
        assert_eq!(req.seed, 0);
        assert!(req.alpha.is_none());
        assert!(req.timeout_ms.is_none());
    }

    #[test]
    fn api_key_is_never_serialized_but_tenant_is() {
        let mut req = request("PR");
        req.tenant = Some("tenant-1".into());
        req.api_key = Some("tk-secret".into());
        let v = serde_json::to_value(&req).unwrap();
        assert_eq!(v["tenant"], "tenant-1");
        assert!(v.get("api_key").is_none(), "api key must not leak: {v}");
        let round: JobRequest = serde_json::from_value(v).unwrap();
        assert_eq!(round.tenant.as_deref(), Some("tenant-1"));
        assert!(round.api_key.is_none());
    }

    #[test]
    fn iteration_cap_resolution_order() {
        let mut job = Job::new(0, AlgorithmKind::Pr, request("PR"));
        assert_eq!(job.resolved_max_iterations(), 200);
        job.request.profile = Some("quick".into());
        assert_eq!(job.resolved_max_iterations(), 60);
        job.request.profile = Some("full".into());
        assert_eq!(job.resolved_max_iterations(), 400);
        job.request.max_iterations = Some(3);
        assert_eq!(job.resolved_max_iterations(), 3);
    }

    #[test]
    fn same_workload_different_algorithm_shares_cache_key() {
        let pr = cache_key(AlgorithmKind::Pr, &request("PR"));
        let cc = cache_key(AlgorithmKind::Cc, &request("CC"));
        let km = cache_key(AlgorithmKind::Km, &request("KM"));
        assert_eq!(pr, cc);
        assert_eq!(pr, km);
        let als = cache_key(AlgorithmKind::Als, &request("ALS"));
        assert_ne!(pr, als, "ratings workloads must not collide with power-law");
        let jacobi = cache_key(AlgorithmKind::Jacobi, &request("Jacobi"));
        let lbp = cache_key(AlgorithmKind::Lbp, &request("LBP"));
        let dd = cache_key(AlgorithmKind::Dd, &request("DD"));
        assert_ne!(jacobi, lbp);
        assert_ne!(lbp, dd);
    }

    #[test]
    fn representation_changes_the_cache_key_and_the_workload() {
        let plain = request("PR");
        let mut compressed = request("PR");
        compressed.representation = Some("compressed".into());
        assert_ne!(
            cache_key(AlgorithmKind::Pr, &plain),
            cache_key(AlgorithmKind::Pr, &compressed),
            "a compressed workload must not share a cache slot with plain"
        );
        let w = build_workload(AlgorithmKind::Pr, &compressed);
        assert_eq!(
            w.graph().representation(),
            graphmine_graph::Representation::Compressed
        );
        assert!(parse_representation(Some("sideways")).is_err());
    }

    #[test]
    fn reorder_changes_the_cache_key() {
        let natural = request("PR");
        let mut reordered = request("PR");
        reordered.reorder = true;
        assert_ne!(
            cache_key(AlgorithmKind::Pr, &natural),
            cache_key(AlgorithmKind::Pr, &reordered),
            "reordered workloads must not share a cache slot with natural order"
        );
    }

    #[test]
    fn reordered_request_builds_a_permuted_workload() {
        let mut req = request("PR");
        req.size = 2_000;
        req.reorder = true;
        let w = build_workload(AlgorithmKind::Pr, &req);
        let g = w.graph();
        assert!(g.vertex_remap().is_some(), "permutation was not recorded");
        // Hub-first: out-degrees must be non-increasing.
        let degs: Vec<usize> = g
            .vertices()
            .map(|v| g.neighbors(v, graphmine_graph::Direction::Out).len())
            .collect();
        assert!(degs.windows(2).all(|w| w[0] >= w[1]));
    }

    #[test]
    fn state_machine_wire_names_and_terminality() {
        assert_eq!(JobState::Queued.as_str(), "queued");
        assert_eq!(JobState::TimedOut.as_str(), "timed_out");
        assert!(!JobState::Queued.is_terminal());
        assert!(!JobState::Running.is_terminal());
        for s in [
            JobState::Done,
            JobState::Failed,
            JobState::Cancelled,
            JobState::TimedOut,
        ] {
            assert!(s.is_terminal());
        }
    }

    #[test]
    fn job_json_has_wire_fields() {
        let job = Job::new(3, AlgorithmKind::Pr, request("PR"));
        let v = job.to_json();
        assert_eq!(v["id"], 3);
        assert_eq!(v["state"], "queued");
        assert_eq!(v["algorithm"], "PR");
        assert_eq!(v["stages"]["queue_wait_ms"], 0.0);
        assert_eq!(v["stages"]["timestamps_ms"]["enqueue"], 0.0);
    }

    #[test]
    fn stage_timestamps_are_cumulative_durations() {
        let status = JobStatus {
            queue_ms: 2.0,
            cache_ms: 10.0,
            execute_ms: 100.0,
            serialize_ms: 1.0,
            ..JobStatus::default()
        };
        let v = status.stages_json();
        let ts = &v["timestamps_ms"];
        assert_eq!(ts["enqueue"], 0.0);
        assert_eq!(ts["dequeue"], 2.0);
        assert_eq!(ts["cache_resolve"], 12.0);
        assert_eq!(ts["execute_start"], 12.0);
        assert_eq!(ts["execute_end"], 112.0);
        assert_eq!(ts["respond"], 113.0);
        // Boundary timestamps are non-decreasing along the pipeline.
        let order = [
            "enqueue",
            "dequeue",
            "cache_resolve",
            "execute_start",
            "execute_end",
            "respond",
        ];
        let mut last = -1.0;
        for key in order {
            let t = ts[key].as_f64().unwrap();
            assert!(t >= last, "{key} = {t} regressed below {last}");
            last = t;
        }
    }
}
