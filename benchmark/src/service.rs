//! The two server workloads: `service-hot` (closed loop, one tenant, every
//! job cache-hot) and `service-open-mixed` (open-loop Poisson arrivals
//! from four tenants over three traffic classes).
//!
//! The server runs in this process, durable — run database, journal and
//! checkpoint directory in the run's scratch directory, persisted after
//! every job — because that is how `graphmine serve` starts by default.
//! All traffic goes through the HTTP API on a loopback socket.

use crate::http::Conn;
use crate::sched::{self, Arrival, Class, Mix, Picks};
use crate::spec::ServiceParams;
use crate::trace::Tracer;
use crate::{stats, Ctx, Outcome};
use graphmine_algos::{run_algorithm, AlgorithmKind, Domain, SuiteConfig, Workload};
use graphmine_engine::ExecutionConfig;
use graphmine_graph::write_edge_list;
use graphmine_service::{Server, ServerHandle, ServiceConfig};
use graphmine_shard::TenantRegistry;
use serde_json::{json, Value};
use std::cmp::Reverse;
use std::collections::{BTreeMap, BinaryHeap, HashMap};
use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// Generator seed of the small-hot inputs, the same under every `--seed`:
/// the 14 small graphs are 14 draws, and how many iterations each
/// algorithm needs on its draw moved the delivered edge rate of
/// `service-hot` by 8 % from seed to seed. `--seed` still decides the
/// order of requests, their arrival times, the uploaded graph and every
/// gen-cold input.
const HOT_INPUT_SEED: u64 = 42;
/// Name the uploaded graph is stored under.
const STORED_NAME: &str = "plstored";
/// Iteration cap the `quick` profile resolves to (part of the job API).
const QUICK_CAP: usize = 60;
/// Iteration cap and checkpoint interval of stored-medium jobs.
const STORED_CAP: usize = 10;
const STORED_CKPT_EVERY: usize = 5;
/// Algorithms of the stored-medium class.
const STORED_ALGOS: [AlgorithmKind; 3] =
    [AlgorithmKind::Pr, AlgorithmKind::Cc, AlgorithmKind::Sssp];
/// Resubmissions after a `429` before a request counts as shed.
const MAX_RETRIES: u32 = 3;
/// How long stragglers may take after the window before they count as failed.
const DRAIN_LIMIT: Duration = Duration::from_secs(30);

/// Which workload, and therefore which server shape and traffic.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// `service-hot`.
    Hot,
    /// `service-open-mixed`.
    Mixed,
}

/// How requests are issued. `--rate` runs the open loop at another rate
/// than the frozen one, to find the rate at which the server saturates.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Loop {
    /// Each client sends its next request when the previous one finished.
    Closed,
    /// Requests are sent on a Poisson schedule at this rate.
    Open(f64),
}

/// What the server must reproduce for a request.
#[derive(Debug, Clone, Copy, PartialEq)]
struct Expected {
    iterations: usize,
    converged: bool,
    traversals: u64,
}

fn expected_from(algorithm: AlgorithmKind, workload: &Workload, cap: usize) -> Expected {
    let config = SuiteConfig {
        exec: ExecutionConfig::with_max_iterations(cap),
        ..SuiteConfig::default()
    };
    let trace = run_algorithm(algorithm, workload, &config)
        .expect("each class pairs an algorithm with its own workload kind");
    Expected {
        iterations: trace.num_iterations(),
        converged: trace.converged,
        traversals: trace
            .iterations
            .iter()
            .map(|i| i.edge_reads + i.messages)
            .sum(),
    }
}

/// The `size` field a small-hot request carries for `algorithm`.
fn hot_size(algorithm: AlgorithmKind, p: &ServiceParams) -> u64 {
    match algorithm.domain() {
        Domain::GraphAnalytics | Domain::Clustering => p.hot_edges,
        Domain::CollaborativeFiltering => p.hot_ratings,
        Domain::LinearSolver => p.hot_rows,
        Domain::GraphicalModel if algorithm == AlgorithmKind::Lbp => p.hot_grid,
        Domain::GraphicalModel => p.hot_mrf_edges,
    }
}

/// The input a `size`/`seed` request describes, built the way the job API
/// documents it — independently of the server's own request mapping.
fn generated_input(algorithm: AlgorithmKind, size: u64, seed: u64) -> Workload {
    let size = size as usize;
    match algorithm.domain() {
        Domain::GraphAnalytics | Domain::Clustering => Workload::powerlaw(size, 2.5, seed),
        Domain::CollaborativeFiltering => Workload::ratings(size, 2.5, seed),
        Domain::LinearSolver => Workload::matrix(size, seed),
        Domain::GraphicalModel if algorithm == AlgorithmKind::Lbp => Workload::grid(size, seed),
        Domain::GraphicalModel => Workload::mrf(size, seed),
    }
}

/// Everything a run needs to talk to its server and judge the replies.
struct Bench {
    kind: Kind,
    params: ServiceParams,
    seed: u64,
    addr: SocketAddr,
    /// Tenant `(id, key)` pairs; empty on the single-tenant server.
    tenants: Vec<(String, String)>,
    hot_expected: Vec<Expected>,
    stored_expected: Vec<Expected>,
    db_path: PathBuf,
    start_ms: f64,
    ingest_mb_per_s: f64,
    /// How long each part of this set-up took, for the `--out` file.
    setup_phases_ms: Value,
}

impl Bench {
    fn mix(&self) -> Mix {
        match self.kind {
            Kind::Hot => Mix {
                small_hot: 1,
                stored_medium: 0,
                gen_cold: 0,
            },
            // 60 % / 25 % / 15 %, exact in every block of 20 arrivals.
            Kind::Mixed => Mix {
                small_hot: 12,
                stored_medium: 5,
                gen_cold: 3,
            },
        }
    }

    fn picks(&self) -> Picks {
        Picks {
            small_hot: AlgorithmKind::ALL.len(),
            stored_medium: STORED_ALGOS.len(),
        }
    }

    fn arrival(&self, index: usize) -> Arrival {
        sched::arrival(
            self.seed,
            index,
            self.mix(),
            self.picks(),
            self.tenants.len().max(1),
        )
    }

    fn key_of(&self, tenant: usize) -> Option<&str> {
        self.tenants.get(tenant).map(|(_, key)| key.as_str())
    }

    fn request_body(&self, a: &Arrival) -> Value {
        match a.class {
            Class::SmallHot => {
                let algorithm = AlgorithmKind::ALL[a.pick];
                json!({
                    "algorithm": algorithm.abbrev(),
                    "size": hot_size(algorithm, &self.params),
                    "seed": HOT_INPUT_SEED,
                    "profile": "quick",
                })
            }
            Class::StoredMedium => json!({
                "algorithm": STORED_ALGOS[a.pick].abbrev(),
                "graph": STORED_NAME,
                "max_iterations": STORED_CAP,
                "checkpoint_every": STORED_CKPT_EVERY,
            }),
            Class::GenCold => json!({
                "algorithm": "PR",
                "size": self.params.cold_edges,
                "seed": a.fresh_seed,
                "profile": "quick",
            }),
        }
    }

    /// What the reply to `a` must say; computed on demand for gen-cold.
    fn expected(&self, a: &Arrival) -> Expected {
        match a.class {
            Class::SmallHot => self.hot_expected[a.pick],
            Class::StoredMedium => self.stored_expected[a.pick],
            Class::GenCold => expected_from(
                AlgorithmKind::Pr,
                &generated_input(AlgorithmKind::Pr, self.params.cold_edges, a.fresh_seed),
                QUICK_CAP,
            ),
        }
    }
}

/// One request's fate as the client saw it.
#[derive(Debug, Clone)]
struct Sample {
    arrival: Arrival,
    job_id: Option<u64>,
    /// Intended send (open) or submit (closed) → terminal state seen.
    latency_ms: f64,
    submit_ms: f64,
    late_ms: f64,
    polls: u32,
    retries: u32,
    shed: u32,
    /// Seconds after the window started at which the job was seen done.
    done_at_s: f64,
    /// The terminal `GET /jobs/:id` body, or why there is none.
    reply: Result<Value, String>,
}

// ---------------------------------------------------------------------
// Set-up
// ---------------------------------------------------------------------

fn server_config(kind: Kind, p: &ServiceParams, dir: &Path) -> Result<ServiceConfig, String> {
    let base = ServiceConfig {
        addr: "127.0.0.1:0".to_string(),
        workers: crate::host::POOL_THREADS,
        // One connection per client or sender, one for the poller.
        http_workers: p.clients + 1,
        db_path: Some(dir.join("runs.json")),
        spill_dir: Some(dir.join("ckpts")),
        persist_every: 1,
        ..ServiceConfig::default()
    };
    Ok(match kind {
        Kind::Hot => base,
        Kind::Mixed => ServiceConfig {
            tenants: Some(
                TenantRegistry::derived(p.tenants, 16)
                    .map_err(|e| e.to_string())?
                    .iter()
                    .cloned()
                    .collect(),
            ),
            shards: 2,
            cache_bytes: 32 * 1024 * 1024,
            max_queue_depth: 64,
            graph_dir: Some(dir.join("graphs")),
            ..base
        },
    })
}

/// Submit `body`, wait for the job, return the terminal reply.
fn run_one(conn: &mut Conn, body: &Value) -> Result<Value, String> {
    let r = conn.post_json("/jobs", body).map_err(|e| e.to_string())?;
    if r.status != 202 {
        return Err(format!("submit answered {}: {}", r.status, r.body));
    }
    let id = r.body["id"].as_u64().ok_or("submit reply without id")?;
    let deadline = Instant::now() + Duration::from_secs(60);
    loop {
        let r = conn
            .get(&format!("/jobs/{id}"))
            .map_err(|e| e.to_string())?;
        if is_terminal(&r.body) {
            return Ok(r.body);
        }
        if Instant::now() > deadline {
            return Err(format!("job {id} still running after 60 s"));
        }
        std::thread::sleep(Duration::from_millis(1));
    }
}

fn is_terminal(job: &Value) -> bool {
    matches!(
        job["state"].as_str(),
        Some("done" | "failed" | "cancelled" | "timed_out")
    )
}

/// Upload `workload` as an edge list through `POST /graphs`, chunks,
/// finalize. Returns the bytes uploaded.
fn upload_graph(conn: &mut Conn, workload: &Workload, seed: u64) -> Result<usize, String> {
    let Workload::PowerLaw { graph, weights, .. } = workload else {
        return Err("only power-law workloads are uploaded".to_string());
    };
    let mut text = Vec::new();
    write_edge_list(&mut text, graph, Some(weights)).map_err(|e| e.to_string())?;
    let begin = json!({
        "name": STORED_NAME,
        "directed": false,
        "num_vertices": graph.num_vertices(),
        "seed": seed,
    });
    let r = conn
        .post_json("/graphs", &begin)
        .map_err(|e| e.to_string())?;
    if r.status != 201 && r.status != 200 {
        return Err(format!("begin ingest answered {}: {}", r.status, r.body));
    }
    // The server caps bodies at 1 MiB.
    for (seq, chunk) in text.chunks(768 * 1024).enumerate() {
        let r = conn
            .request(
                "POST",
                &format!("/graphs/{STORED_NAME}/chunks?seq={seq}"),
                Some(chunk),
            )
            .map_err(|e| e.to_string())?;
        if r.status != 200 {
            return Err(format!("chunk {seq} answered {}: {}", r.status, r.body));
        }
    }
    let r = conn
        .request("POST", &format!("/graphs/{STORED_NAME}/finalize"), None)
        .map_err(|e| e.to_string())?;
    if r.status != 201 {
        return Err(format!("finalize answered {}: {}", r.status, r.body));
    }
    if r.body["num_edges"].as_u64() != Some(graph.num_edges() as u64) {
        return Err(format!(
            "server stored {} edges, uploaded {}",
            r.body["num_edges"],
            graph.num_edges()
        ));
    }
    Ok(text.len())
}

/// One complete set-up: scratch directory, server start, upload (mixed),
/// reference runs, one warm-up job per class.
fn set_up(kind: Kind, ctx: &Ctx, dir: &Path) -> Result<(ServerHandle, Bench), String> {
    let p = ctx.scale.service();
    let _ = std::fs::remove_dir_all(dir);
    std::fs::create_dir_all(dir).map_err(|e| e.to_string())?;
    let config = server_config(kind, &p, dir)?;
    let tenants: Vec<(String, String)> = config
        .tenants
        .iter()
        .flatten()
        .map(|t| (t.id.clone(), t.key.clone()))
        .collect();
    let db_path = config.db_path.clone().expect("durable by construction");
    let t0 = Instant::now();
    let handle = Server::start(config).map_err(|e| format!("server start: {e}"))?;
    let start_ms = t0.elapsed().as_secs_f64() * 1e3;
    let mut bench = Bench {
        kind,
        params: p,
        seed: ctx.seed,
        addr: handle.addr(),
        tenants,
        hot_expected: Vec::new(),
        stored_expected: Vec::new(),
        db_path,
        start_ms,
        ingest_mb_per_s: 0.0,
        setup_phases_ms: Value::Null,
    };
    let mut conn = Conn::new(bench.addr, bench.key_of(0));

    // References: a direct in-process run of every pinned-seed request.
    let t_references = Instant::now();
    let mut upload_ms = 0.0;
    for algorithm in AlgorithmKind::ALL {
        let input = generated_input(algorithm, hot_size(algorithm, &p), HOT_INPUT_SEED);
        bench
            .hot_expected
            .push(expected_from(algorithm, &input, QUICK_CAP));
    }
    if kind == Kind::Mixed {
        let stored = Workload::powerlaw(p.stored_edges, 2.5, ctx.seed);
        let t0 = Instant::now();
        let bytes = upload_graph(&mut conn, &stored, ctx.seed)?;
        upload_ms = ms_since(t0);
        bench.ingest_mb_per_s = bytes as f64 / 1e3 / upload_ms;
        for algorithm in STORED_ALGOS {
            bench
                .stored_expected
                .push(expected_from(algorithm, &stored, STORED_CAP));
        }
    }

    let references_ms = ms_since(t_references) - upload_ms;

    // Warm-up: one job of every class a run can draw, so caches are loaded
    // and lazy paths taken before the clock starts.
    let t_warm = Instant::now();
    let mut warm: Vec<Arrival> = Vec::new();
    let template = |class, pick| Arrival {
        index: 0,
        at_s: 0.0,
        class,
        pick,
        tenant: 0,
        fresh_seed: ctx.seed ^ 0x5EED,
    };
    warm.extend((0..AlgorithmKind::ALL.len()).map(|i| template(Class::SmallHot, i)));
    if kind == Kind::Mixed {
        warm.extend((0..STORED_ALGOS.len()).map(|i| template(Class::StoredMedium, i)));
        warm.push(template(Class::GenCold, 0));
    }
    for a in &warm {
        let reply = run_one(&mut conn, &bench.request_body(a))?;
        if reply["state"] != "done" {
            return Err(format!("warm-up {:?} ended {}", a.class, reply));
        }
    }
    bench.setup_phases_ms = json!({
        "server_start": start_ms, "references": references_ms, "upload": upload_ms, "warm_up": ms_since(t_warm),
    });
    Ok((handle, bench))
}

/// `POST /shutdown` and join the server; returns the drain time.
fn shut_down(handle: ServerHandle, addr: SocketAddr) -> Result<f64, String> {
    let t0 = Instant::now();
    let mut conn = Conn::new(addr, None);
    let r = conn
        .request("POST", "/shutdown", None)
        .map_err(|e| e.to_string())?;
    if r.status != 200 {
        return Err(format!("shutdown answered {}", r.status));
    }
    handle.wait().map_err(|e| format!("final save: {e}"))?;
    Ok(t0.elapsed().as_secs_f64() * 1e3)
}

// ---------------------------------------------------------------------
// Driving
// ---------------------------------------------------------------------

/// Poll pacing: every millisecond at first, then a twentieth of the time
/// the job has taken so far, up to 20 ms. A job is seen finished at the
/// first poll after it finished, so this is the resolution of every
/// latency: 1 ms below 20 ms, 5 % above. (Steps that grew by half each
/// time left two polls 5 ms apart around the median job of `service-hot`,
/// and its `job_latency_p50_ms` flipped between them from run to run.)
fn next_poll_delay(waited: Duration) -> Duration {
    (waited / 20).clamp(Duration::from_millis(1), Duration::from_millis(20))
}

/// Submit one request, resubmitting after `429` up to [`MAX_RETRIES`]
/// times. Returns `(job id or error, retries, 429s seen, submit ms)`.
fn submit(conn: &mut Conn, bench: &Bench, a: &Arrival) -> (Result<u64, String>, u32, u32, f64) {
    let body = bench.request_body(a);
    conn.set_api_key(bench.key_of(a.tenant));
    let mut shed = 0;
    let t0 = Instant::now();
    for attempt in 0..=MAX_RETRIES {
        let r = match conn.post_json("/jobs", &body) {
            Ok(r) => r,
            Err(e) => return (Err(format!("transport: {e}")), attempt, shed, ms_since(t0)),
        };
        match (r.status, r.body["id"].as_u64()) {
            (202, Some(id)) => return (Ok(id), attempt, shed, ms_since(t0)),
            (429, _) => {
                shed += 1;
                std::thread::sleep(Duration::from_millis(20 * (attempt as u64 + 1)));
            }
            (status, _) => {
                return (
                    Err(format!("submit answered {status}: {}", r.body)),
                    attempt,
                    shed,
                    ms_since(t0),
                )
            }
        }
    }
    (
        Err("shed after retries".to_string()),
        MAX_RETRIES,
        shed,
        ms_since(t0),
    )
}

fn ms_since(t: Instant) -> f64 {
    t.elapsed().as_secs_f64() * 1e3
}

/// Closed loop: `clients` threads, each submitting and polling its own
/// jobs back to back until the window closes.
fn drive_closed(bench: &Bench, seconds: f64, tracer: &Tracer) -> (Vec<Sample>, f64) {
    let next = AtomicUsize::new(0);
    let samples = Mutex::new(Vec::new());
    let start = Instant::now();
    let window = Duration::from_secs_f64(seconds);
    std::thread::scope(|s| {
        for _ in 0..bench.params.clients {
            s.spawn(|| {
                let mut conn = Conn::new(bench.addr, None);
                while start.elapsed() < window {
                    // Relaxed: the counter only hands out schedule indices.
                    let index = next.fetch_add(1, Ordering::Relaxed);
                    let arrival = bench.arrival(index);
                    let t0 = Instant::now();
                    let t0_ns = tracer.now_ns();
                    let (id, retries, shed, submit_ms) = submit(&mut conn, bench, &arrival);
                    let mut polls = 0;
                    let reply = id.clone().and_then(|id| loop {
                        std::thread::sleep(next_poll_delay(t0.elapsed()));
                        polls += 1;
                        match conn.get(&format!("/jobs/{id}")) {
                            Ok(r) if is_terminal(&r.body) => break Ok(r.body),
                            Ok(_) if t0.elapsed() > DRAIN_LIMIT => {
                                break Err(format!("job {id} never finished"))
                            }
                            Ok(_) => {}
                            Err(e) => break Err(format!("transport: {e}")),
                        }
                    });
                    let sample = Sample {
                        arrival,
                        job_id: id.ok(),
                        latency_ms: ms_since(t0),
                        submit_ms,
                        late_ms: 0.0,
                        polls,
                        retries,
                        shed,
                        done_at_s: start.elapsed().as_secs_f64(),
                        reply,
                    };
                    record_spans(tracer, &sample, t0_ns);
                    samples.lock().expect("sample list").push(sample);
                }
            });
        }
    });
    let elapsed = start.elapsed().as_secs_f64();
    (samples.into_inner().expect("sample list"), elapsed)
}

/// A submitted job waiting for its next poll.
struct InFlight {
    due: Instant,
    intended: Instant,
    started_ns: u64,
    id: u64,
    sample: Sample,
}

impl PartialEq for InFlight {
    fn eq(&self, other: &InFlight) -> bool {
        self.due == other.due && self.id == other.id
    }
}
impl Eq for InFlight {}
impl PartialOrd for InFlight {
    fn partial_cmp(&self, other: &InFlight) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for InFlight {
    fn cmp(&self, other: &InFlight) -> std::cmp::Ordering {
        (self.due, self.id).cmp(&(other.due, other.id))
    }
}

/// Open loop over `clients + 1` connections (one per HTTP worker of the
/// server). Every thread takes whichever action is due — the next arrival
/// of the schedule at its intended time, or the next poll of a job in
/// flight — so a slow exchange on one connection delays neither sends nor
/// polls on the others. Latency runs from the *intended* send time: when
/// the generator falls behind, the delay is charged to the system.
fn drive_open(bench: &Bench, rate: f64, seconds: f64, tracer: &Tracer) -> (Vec<Sample>, f64) {
    let schedule = sched::poisson_schedule(
        bench.seed,
        rate,
        seconds,
        bench.mix(),
        bench.picks(),
        bench.tenants.len().max(1),
    );
    let next = AtomicUsize::new(0);
    // Arrivals claimed but not yet in the poll queue (or finished).
    let submitting = AtomicU64::new(0);
    let queue: Mutex<BinaryHeap<Reverse<InFlight>>> = Mutex::new(BinaryHeap::new());
    let samples = Mutex::new(Vec::with_capacity(schedule.len()));
    let start = Instant::now();
    let finished = |mut f: InFlight, reply: Result<Value, String>| {
        f.sample.latency_ms = ms_since(f.intended);
        f.sample.done_at_s = start.elapsed().as_secs_f64();
        f.sample.reply = reply;
        record_spans(tracer, &f.sample, f.started_ns);
        samples.lock().expect("sample list").push(f.sample);
    };
    let intended_at = |a: &Arrival| start + Duration::from_secs_f64(a.at_s);

    /// What a thread found to do.
    enum Action {
        Send(Arrival),
        Poll(InFlight),
        Wait(Duration),
        Done,
    }
    let pick = || -> Action {
        let now = Instant::now();
        // SeqCst throughout: `next`, `submitting` and the queue together
        // decide when the run is over, and no thread may see a claimed
        // arrival as neither pending nor queued.
        let index = next.load(Ordering::SeqCst);
        let mut wake = Duration::from_millis(1);
        if let Some(arrival) = schedule.get(index) {
            let at = intended_at(arrival);
            if at <= now {
                submitting.fetch_add(1, Ordering::SeqCst);
                if next
                    .compare_exchange(index, index + 1, Ordering::SeqCst, Ordering::SeqCst)
                    .is_ok()
                {
                    return Action::Send(arrival.clone());
                }
                // Another thread claimed it first.
                submitting.fetch_sub(1, Ordering::SeqCst);
                return Action::Wait(Duration::ZERO);
            }
            wake = wake.min(at - now);
        }
        let mut q = queue.lock().expect("poll queue");
        match q.peek() {
            Some(Reverse(f)) if f.due <= now => Action::Poll(q.pop().expect("peeked").0),
            Some(Reverse(f)) => Action::Wait(wake.min(f.due - now)),
            None if index >= schedule.len() && submitting.load(Ordering::SeqCst) == 0 => {
                Action::Done
            }
            None => Action::Wait(wake),
        }
    };

    std::thread::scope(|s| {
        for _ in 0..bench.params.clients + 1 {
            s.spawn(|| {
                let mut conn = Conn::new(bench.addr, None);
                loop {
                    match pick() {
                        Action::Done => break,
                        // Sleep all the way: a sleeping thread wakes tens of
                        // µs late, which `driver.late_p95_ms` reports, while
                        // spinning would take a core from the server on the
                        // 2-core host the two share.
                        Action::Wait(d) => std::thread::sleep(d.max(Duration::from_micros(20))),
                        Action::Send(arrival) => {
                            let intended = intended_at(&arrival);
                            let late_ms = ms_since(intended);
                            let started_ns = tracer.now_ns();
                            let (id, retries, shed, submit_ms) = submit(&mut conn, bench, &arrival);
                            let flight = InFlight {
                                due: Instant::now() + next_poll_delay(intended.elapsed()),
                                intended,
                                started_ns,
                                id: id.as_ref().ok().copied().unwrap_or(u64::MAX),
                                sample: Sample {
                                    arrival,
                                    job_id: id.as_ref().ok().copied(),
                                    latency_ms: 0.0,
                                    submit_ms,
                                    late_ms,
                                    polls: 0,
                                    retries,
                                    shed,
                                    done_at_s: 0.0,
                                    reply: Err(String::new()),
                                },
                            };
                            match id {
                                Ok(_) => queue.lock().expect("poll queue").push(Reverse(flight)),
                                Err(e) => finished(flight, Err(e)),
                            }
                            submitting.fetch_sub(1, Ordering::SeqCst);
                        }
                        Action::Poll(mut f) => {
                            // Until the reply is in, the job counts as
                            // pending so no thread concludes the run is over.
                            submitting.fetch_add(1, Ordering::SeqCst);
                            conn.set_api_key(bench.key_of(f.sample.arrival.tenant));
                            f.sample.polls += 1;
                            match conn.get(&format!("/jobs/{}", f.id)) {
                                Ok(r) if is_terminal(&r.body) => finished(f, Ok(r.body)),
                                Ok(_) if f.intended.elapsed() > DRAIN_LIMIT => {
                                    let id = f.id;
                                    finished(f, Err(format!("job {id} never finished")))
                                }
                                Ok(_) => {
                                    f.due = Instant::now() + next_poll_delay(f.intended.elapsed());
                                    queue.lock().expect("poll queue").push(Reverse(f));
                                }
                                Err(e) => finished(f, Err(format!("transport: {e}"))),
                            }
                            submitting.fetch_sub(1, Ordering::SeqCst);
                        }
                    }
                }
            });
        }
    });
    let elapsed = start.elapsed().as_secs_f64();
    let mut samples = samples.into_inner().expect("sample list");
    samples.sort_by_key(|s| s.arrival.index);
    (samples, elapsed)
}

/// In a traced run, one client span per job with the HTTP submit under it
/// and the server-reported stages laid out from the submit time.
fn record_spans(tracer: &Tracer, s: &Sample, started_ns: u64) {
    if !tracer.enabled() {
        return;
    }
    let request = s.job_id.unwrap_or(u64::MAX);
    let end_ns = tracer.now_ns();
    let job = tracer.record(
        "client",
        s.arrival.class.name(),
        None,
        request,
        started_ns,
        end_ns,
    );
    let submit_end = started_ns + (s.submit_ms * 1e6) as u64;
    tracer.record(
        "service",
        "http.submit",
        job,
        request,
        started_ns,
        submit_end,
    );
    if let Ok(reply) = &s.reply {
        let stamps = &reply["stages"]["timestamps_ms"];
        let at = |name: &str| submit_end + (stamps[name].as_f64().unwrap_or(0.0) * 1e6) as u64;
        tracer.record(
            "service",
            "queue_wait",
            job,
            request,
            at("enqueue"),
            at("dequeue"),
        );
        tracer.record(
            "service",
            "cache_load",
            job,
            request,
            at("dequeue"),
            at("cache_resolve"),
        );
        tracer.record(
            "engine",
            "execute",
            job,
            request,
            at("execute_start"),
            at("execute_end"),
        );
        tracer.record(
            "service",
            "serialize",
            job,
            request,
            at("execute_end"),
            at("respond"),
        );
    }
}

// ---------------------------------------------------------------------
// Judging and reporting
// ---------------------------------------------------------------------

struct Window {
    samples: Vec<Sample>,
    elapsed_s: f64,
    /// Latencies (ms) of the jobs that came back correct.
    good_latencies: Vec<f64>,
    /// Edge reads + messages of those jobs (from their references), and
    /// the engine time the server reported for them.
    traversals: u64,
    execute_s: f64,
}

/// Check every reply: finished `done`, iteration count and convergence
/// equal to the direct in-process run, tenant stamp equal to the key's.
fn judge(bench: &Bench, samples: Vec<Sample>, elapsed_s: f64, out: &mut Outcome) -> Window {
    let mut good_latencies = Vec::with_capacity(samples.len());
    let mut traversals = 0u64;
    let mut execute_s = 0.0;
    let mut cold_cache: HashMap<u64, Expected> = HashMap::new();
    for s in &samples {
        let reply = match &s.reply {
            Ok(r) => r,
            Err(e) => {
                out.fail(format!(
                    "request {} ({}): {e}",
                    s.arrival.index,
                    s.arrival.class.name()
                ));
                continue;
            }
        };
        let want = match s.arrival.class {
            Class::GenCold => *cold_cache
                .entry(s.arrival.fresh_seed)
                .or_insert_with(|| bench.expected(&s.arrival)),
            _ => bench.expected(&s.arrival),
        };
        let want_tenant = bench
            .tenants
            .get(s.arrival.tenant)
            .map(|(id, _)| id.as_str());
        let ok = reply["state"] == "done"
            && reply["iterations"].as_u64() == Some(want.iterations as u64)
            && reply["converged"].as_bool() == Some(want.converged)
            && reply["tenant"].as_str() == want_tenant;
        if ok {
            out.pass();
            good_latencies.push(s.latency_ms);
            traversals += want.traversals;
            execute_s += stage(reply, "execute_ms") / 1e3;
        } else {
            out.fail(format!(
                "request {} ({} {}): state {} iterations {} converged {} tenant {}, expected done {} {} {:?}",
                s.arrival.index,
                s.arrival.class.name(),
                reply["algorithm"],
                reply["state"],
                reply["iterations"],
                reply["converged"],
                reply["tenant"],
                want.iterations,
                want.converged,
                want_tenant,
            ));
        }
    }
    Window {
        samples,
        elapsed_s,
        good_latencies,
        traversals,
        execute_s,
    }
}

fn end_to_end(w: &Window, out: &mut Outcome) {
    let n = w.good_latencies.len();
    out.set("jobs_per_s", n as f64 / w.elapsed_s);
    // Delivered rate: exact traversal counts of the jobs that came back
    // correct ÷ the window. The rate *while executing* (÷ Σ `execute_ms`)
    // is one layer's figure, reported as `service.execute_edges_per_s`;
    // under open-loop arrivals it moved by 7 % from run to run with how
    // often two jobs happened to execute side by side.
    out.set("edges_per_s", w.traversals as f64 / w.elapsed_s);
    out.set(
        "job_latency_p50_ms",
        stats::percentile(&w.good_latencies, 50.0),
    );
    out.set(
        "job_latency_p95_ms",
        stats::percentile(&w.good_latencies, 95.0),
    );
    out.details.insert(
        "samples".into(),
        json!({
            "jobs": n,
            "beyond_p95": stats::samples_beyond(n, 95.0),
            "highest_reportable_percentile": stats::highest_reportable(n),
            "window_s": w.elapsed_s,
        }),
    );
    out.details.insert("by_algorithm".into(), by_algorithm(w));
}

/// Per class and algorithm: jobs, median server execute time and median
/// client latency — what the window was made of, for the `--out` file.
fn by_algorithm(w: &Window) -> Value {
    let mut groups: BTreeMap<String, (Vec<f64>, Vec<f64>)> = BTreeMap::new();
    for s in &w.samples {
        if let Ok(reply) = &s.reply {
            let key = format!(
                "{}/{}",
                s.arrival.class.name(),
                reply["algorithm"].as_str().unwrap_or("?")
            );
            let (execute, latency) = groups.entry(key).or_default();
            execute.push(stage(reply, "execute_ms"));
            latency.push(s.latency_ms);
        }
    }
    groups
        .into_iter()
        .map(|(key, (execute, latency))| {
            let row = json!({
                "jobs": execute.len(),
                "execute_ms_p50": stats::median(&execute),
                "latency_ms_p50": stats::median(&latency),
            });
            (key, row)
        })
        .collect::<serde_json::Map<String, Value>>()
        .into()
}

fn stage(reply: &Value, name: &str) -> f64 {
    reply["stages"][name].as_f64().unwrap_or(0.0)
}

fn layer_metrics(
    bench: &Bench,
    w: &Window,
    metrics_before: &Value,
    metrics_after: &Value,
    out: &mut Outcome,
) {
    let done: Vec<(&Sample, &Value)> = w
        .samples
        .iter()
        .filter_map(|s| s.reply.as_ref().ok().map(|r| (s, r)))
        .filter(|(_, r)| r["state"] == "done")
        .collect();
    let column = |f: &dyn Fn(&Sample, &Value) -> f64| -> Vec<f64> {
        done.iter().map(|(s, r)| f(s, r)).collect()
    };
    for (name, p50, p95) in [
        (
            "queue_wait_ms",
            "service.queue_wait_ms_p50",
            "service.queue_wait_ms_p95",
        ),
        (
            "cache_load_ms",
            "service.cache_load_ms_p50",
            "service.cache_load_ms_p95",
        ),
        (
            "execute_ms",
            "service.execute_ms_p50",
            "service.execute_ms_p95",
        ),
        (
            "serialize_ms",
            "service.serialize_ms_p50",
            "service.serialize_ms_p95",
        ),
    ] {
        let values = column(&|_, r| stage(r, name));
        out.set(p50, stats::percentile(&values, 50.0));
        out.set(p95, stats::percentile(&values, 95.0));
    }
    let stages_total = |r: &Value| {
        stage(r, "queue_wait_ms")
            + stage(r, "cache_load_ms")
            + stage(r, "execute_ms")
            + stage(r, "serialize_ms")
    };
    // Client latency not explained by any server stage: accept, HTTP parse
    // and write, and the wait until the next poll.
    out.set(
        "service.residual_ms_p50",
        stats::median(&column(&|s, r| s.latency_ms - s.late_ms - stages_total(r))),
    );
    if w.execute_s > 0.0 {
        out.set(
            "service.execute_edges_per_s",
            w.traversals as f64 / w.execute_s,
        );
    }
    let latency_sum: f64 = done.iter().map(|(s, _)| s.latency_ms).sum();
    if latency_sum > 0.0 {
        out.set(
            "service.execute_share",
            done.iter()
                .map(|(_, r)| stage(r, "execute_ms"))
                .sum::<f64>()
                / latency_sum,
        );
    }
    // Slope of serialize time against completion order: the run database
    // is rewritten whole after every job, so this grows with its size.
    let mut by_completion: Vec<(f64, f64)> = done
        .iter()
        .map(|(s, r)| (s.done_at_s, stage(r, "serialize_ms") * 1e3))
        .collect();
    by_completion.sort_by(|a, b| a.0.total_cmp(&b.0));
    let order: Vec<f64> = (0..by_completion.len()).map(|i| i as f64 / 1e3).collect();
    let serialize_us: Vec<f64> = by_completion.iter().map(|x| x.1).collect();
    out.set(
        "service.serialize_growth_us_per_kjob",
        stats::slope(&order, &serialize_us),
    );

    out.set(
        "service.submit_ms_p50",
        stats::median(&column(&|s, _| s.submit_ms)),
    );
    out.set(
        "service.polls_per_job",
        column(&|s, _| s.polls as f64).iter().sum::<f64>() / done.len().max(1) as f64,
    );
    out.set(
        "service.http_429",
        w.samples.iter().map(|s| s.shed as f64).sum(),
    );
    out.set(
        "service.retries",
        w.samples.iter().map(|s| s.retries as f64).sum(),
    );
    let delta = |path: [&str; 2]| {
        metrics_after[path[0]][path[1]].as_f64().unwrap_or(0.0)
            - metrics_before[path[0]][path[1]].as_f64().unwrap_or(0.0)
    };
    let (hits, misses) = (delta(["cache", "hits"]), delta(["cache", "misses"]));
    if hits + misses > 0.0 {
        out.set("service.cache_hit_ratio", hits / (hits + misses));
    }
    out.set("service.start_ms", bench.start_ms);
    out.set("service.ingest_mb_per_s", bench.ingest_mb_per_s);
    let file_len = |p: &Path| std::fs::metadata(p).map_or(0.0, |m| m.len() as f64);
    out.set("service.db_bytes", file_len(&bench.db_path));
    out.set(
        "service.journal_bytes",
        file_len(Path::new(&format!("{}.journal", bench.db_path.display()))),
    );

    out.set(
        "client.latency_p99_ms",
        stats::percentile(&w.good_latencies, 99.0),
    );
    for (class, p50, p95) in [
        (
            Class::SmallHot,
            "client.small-hot.p50_ms",
            "client.small-hot.p95_ms",
        ),
        (
            Class::StoredMedium,
            "client.stored-medium.p50_ms",
            "client.stored-medium.p95_ms",
        ),
        (
            Class::GenCold,
            "client.gen-cold.p50_ms",
            "client.gen-cold.p95_ms",
        ),
    ] {
        let values: Vec<f64> = done
            .iter()
            .filter(|(s, _)| s.arrival.class == class)
            .map(|(s, _)| s.latency_ms)
            .collect();
        out.set(p50, stats::percentile(&values, 50.0));
        out.set(p95, stats::percentile(&values, 95.0));
    }
    if bench.tenants.len() > 1 {
        let mut per_tenant: BTreeMap<usize, Vec<f64>> = BTreeMap::new();
        for (s, _) in &done {
            per_tenant
                .entry(s.arrival.tenant)
                .or_default()
                .push(s.latency_ms);
        }
        let p95s: Vec<f64> = per_tenant
            .values()
            .map(|v| stats::percentile(v, 95.0))
            .collect();
        let (lo, hi) = p95s.iter().fold((f64::INFINITY, 0.0f64), |(lo, hi), &x| {
            (lo.min(x), hi.max(x))
        });
        if lo > 0.0 && lo.is_finite() {
            out.set("client.tenant_p95_spread", hi / lo);
        }
    }
    out.set(
        "driver.late_p95_ms",
        stats::percentile(&column(&|s, _| s.late_ms), 95.0),
    );
    out.set("driver.samples", done.len() as f64);
}

/// What one back-to-back `GET /health` costs a kept-alive client that does
/// *not* ask for immediate ACKs (see `http::quick_ack`): the median of ten
/// exchanges after two that settle the connection.
fn plain_exchange_ms(addr: SocketAddr) -> f64 {
    let mut conn = Conn::plain(addr);
    let mut times = Vec::new();
    for i in 0..12 {
        let t0 = Instant::now();
        if conn.get("/health").is_err() {
            break;
        }
        if i >= 2 {
            times.push(ms_since(t0));
        }
    }
    stats::median(&times)
}

fn get_metrics(addr: SocketAddr) -> Value {
    Conn::new(addr, None)
        .get("/metrics")
        .map(|r| r.body)
        .unwrap_or_default()
}

fn drive(bench: &Bench, how: Loop, seconds: f64, tracer: &Tracer) -> (Vec<Sample>, f64) {
    match how {
        Loop::Closed => drive_closed(bench, seconds, tracer),
        Loop::Open(rate) => drive_open(bench, rate, seconds, tracer),
    }
}

/// Run `service-hot` or `service-open-mixed`.
pub fn run(kind: Kind, how: Option<Loop>, ctx: &Ctx) -> Outcome {
    let mut out = Outcome::default();
    let p = ctx.scale.service();
    let how = how.unwrap_or(match kind {
        Kind::Hot => Loop::Closed,
        Kind::Mixed => Loop::Open(p.open_rate),
    });
    let dir = ctx.work.join("server");

    let mut setups = Vec::new();
    let mut live = None;
    for round in 0..ctx.scale.setup_repeats() {
        let t0 = Instant::now();
        match set_up(kind, ctx, &dir) {
            Ok((handle, bench)) => {
                setups.push(t0.elapsed().as_secs_f64());
                if round + 1 < ctx.scale.setup_repeats() {
                    if let Err(e) = shut_down(handle, bench.addr) {
                        out.fail(format!("set-up round {round}: {e}"));
                        return out;
                    }
                } else {
                    live = Some((handle, bench));
                }
            }
            Err(e) => {
                out.fail(format!("set-up failed: {e}"));
                return out;
            }
        }
    }
    out.set("setup_s", stats::median(&setups));
    let (handle, bench) = live.expect("the last set-up round is kept");
    out.details.insert("setup_rounds_s".into(), json!(setups));
    out.details
        .insert("setup_phases_ms".into(), bench.setup_phases_ms.clone());

    let window = if ctx.traced {
        // Untraced half on this server, traced half on a fresh one, so
        // both halves start from an empty run database.
        let half = ctx.seconds / 2.0;
        let (samples, elapsed) = drive(&bench, how, half, &Tracer::new(false));
        let plain = judge(&bench, samples, elapsed, &mut out);
        if let Err(e) = shut_down(handle, bench.addr) {
            out.fail(e);
        }
        let (handle, bench) = match set_up(kind, ctx, &dir) {
            Ok(pair) => pair,
            Err(e) => {
                out.fail(format!("second set-up failed: {e}"));
                return out;
            }
        };
        let tracer = Tracer::new(true);
        let before = get_metrics(bench.addr);
        let (samples, elapsed) = drive(&bench, how, half, &tracer);
        let after = get_metrics(bench.addr);
        let traced = judge(&bench, samples, elapsed, &mut out);
        layer_metrics(&bench, &traced, &before, &after, &mut out);
        out.set(
            "service.keepalive_exchange_ms",
            plain_exchange_ms(bench.addr),
        );
        // Headline: throughput for the closed loop, median latency for
        // the open one (whose throughput is the arrival rate).
        let worsening = match how {
            Loop::Closed => {
                plain.good_latencies.len() as f64
                    / plain.elapsed_s
                    / (traced.good_latencies.len() as f64 / traced.elapsed_s).max(f64::MIN_POSITIVE)
            }
            Loop::Open(_) => {
                stats::median(&traced.good_latencies)
                    / stats::median(&plain.good_latencies).max(f64::MIN_POSITIVE)
            }
        };
        out.set("driver.trace_overhead", worsening - 1.0);
        match shut_down(handle, bench.addr) {
            Ok(ms) => out.set("service.drain_ms", ms),
            Err(e) => out.fail(e),
        }
        crate::probes::run_all(ctx, &mut out);
        let _ = tracer.write_json(&ctx.work.join("trace.json"));
        traced
    } else {
        let (samples, elapsed) = drive(&bench, how, ctx.seconds, &Tracer::new(false));
        let window = judge(&bench, samples, elapsed, &mut out);
        end_to_end(&window, &mut out);
        if let Err(e) = shut_down(handle, bench.addr) {
            out.fail(e);
        }
        window
    };

    let by_class = |class: Class| {
        window
            .samples
            .iter()
            .filter(|s| s.arrival.class == class)
            .count()
    };
    out.details.insert("params".into(), json!({
        "loop": match how { Loop::Closed => json!("closed"), Loop::Open(rate) => json!({"open_poisson_per_s": rate}) },
        "clients": p.clients, "workers": crate::host::POOL_THREADS, "http_workers": p.clients + 1,
        "tenants": bench.tenants.len(), "durable": true, "persist_every": 1,
        "small_hot": {"powerlaw_edges": p.hot_edges, "ratings_edges": p.hot_ratings, "mrf_edges": p.hot_mrf_edges,
            "rows": p.hot_rows, "grid_side": p.hot_grid, "profile": "quick", "algorithms": 14},
        "stored_medium": {"edges": p.stored_edges, "max_iterations": STORED_CAP, "checkpoint_every": STORED_CKPT_EVERY},
        "gen_cold": {"edges": p.cold_edges, "profile": "quick"},
        "setup_repeats": ctx.scale.setup_repeats(),
    }));
    out.details.insert(
        "requests".into(),
        json!({
            "small-hot": by_class(Class::SmallHot),
            "stored-medium": by_class(Class::StoredMedium),
            "gen-cold": by_class(Class::GenCold),
        }),
    );
    out
}
