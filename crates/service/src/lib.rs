//! `graphmine-service` — a concurrent benchmark-job server.
//!
//! The paper argues behavior measurement should be a reusable capability,
//! not a pile of one-shot scripts; LDBC Graphalytics' driver/platform
//! split is the mature form. This crate is that driver: a long-lived
//! daemon that accepts benchmark jobs over a minimal HTTP/1.1 + JSON
//! protocol, executes them on a fixed worker pool, caches generated
//! workloads (the dominant cost of small jobs), appends every result to
//! the same durable [`RunDb`](graphmine_core::RunDb) the figures and
//! ensemble search read, and serves live behavior vectors, best-ensemble
//! queries, and operational metrics while it runs.
//!
//! Everything is built on `std::net` + `std::thread` — the dependency set
//! deliberately has no async runtime or HTTP framework, and none is
//! needed at benchmark-job request rates.
//!
//! Start one from code (the CLI does the same via `graphmine serve`):
//!
//! ```no_run
//! use graphmine_service::{Server, ServiceConfig};
//!
//! let handle = Server::start(ServiceConfig::default()).unwrap();
//! println!("listening on {}", handle.addr());
//! handle.wait().unwrap(); // returns after POST /shutdown drains
//! ```

mod affinity;
pub mod cache;
pub mod client;
pub mod http;
pub mod job;
pub mod journal;
pub mod lock;
pub mod metrics;
pub mod server;

pub use cache::{workload_resident_bytes, CacheKey, GraphCache};
pub use client::{Client, Response};
pub use http::RequestError;
pub use job::{parse_algorithm, Job, JobRequest, JobState, JobStatus};
pub use journal::{Journal, JournalEvent, PendingJob, Recovery};
pub use lock::{AlreadyLocked, LockGuard};
pub use metrics::{Metrics, StageHistograms, TenantMetrics, LATENCY_BUCKETS_MS};
pub use server::{Server, ServerHandle, ServiceConfig};
