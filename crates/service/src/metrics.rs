//! Live service counters: job terminal states, end-to-end latency
//! (sum/count plus fixed histogram buckets), and per-stage latency
//! histograms. Counters are lock-free atomics; the stage histograms sit
//! behind short-critical-section mutexes (a handful of O(1) records per
//! job, so `GET /metrics` readers never contend meaningfully).

use graphmine_core::LogHistogram;
use parking_lot::Mutex;
use serde_json::json;
use std::sync::atomic::{AtomicU64, Ordering};

/// Upper bounds (milliseconds, inclusive) of the latency histogram
/// buckets; a final implicit +inf bucket catches the rest.
pub const LATENCY_BUCKETS_MS: [u64; 5] = [1, 10, 100, 1_000, 10_000];

/// Monotonic service counters.
#[derive(Debug, Default)]
pub struct Metrics {
    /// Jobs accepted by `POST /jobs`.
    pub submitted: AtomicU64,
    /// Jobs finished successfully.
    pub done: AtomicU64,
    /// Jobs that panicked or were rejected by the suite.
    pub failed: AtomicU64,
    /// Jobs stopped by an explicit cancel.
    pub cancelled: AtomicU64,
    /// Jobs stopped by the watchdog deadline.
    pub timed_out: AtomicU64,
    /// Execution attempts re-queued after a panic or injected fault.
    pub retries: AtomicU64,
    /// Jobs that exhausted their retry budget and were quarantined as
    /// `Failed` instead of being re-queued again.
    pub panics_quarantined: AtomicU64,
    /// Submissions shed with `429 Too Many Requests` by admission control.
    pub jobs_shed: AtomicU64,
    /// Timed-out jobs the watchdog re-queued to resume from a checkpoint
    /// instead of marking terminal.
    pub watchdog_requeues: AtomicU64,
    /// Jobs re-enqueued from the journal at startup.
    pub jobs_recovered: AtomicU64,
    /// Stored-graph loads that failed checksum or CSR validation and were
    /// re-derived from the canonical edge-list section instead.
    pub store_rebuilds: AtomicU64,
    /// Jobs that requested the compressed representation but fell back to
    /// plain after compression/row-decode failed.
    pub compressed_fallbacks: AtomicU64,
    /// Orphaned temp files and expired ingest sessions collected by the
    /// startup GC sweep.
    pub orphans_collected: AtomicU64,
    /// Engine iterations that ran the push (scatter-along-out-edges) path.
    pub push_iterations: AtomicU64,
    /// Engine iterations that ran the pull (gather-over-in-edges) path.
    pub pull_iterations: AtomicU64,
    /// Per-stage latency histograms across the job pipeline.
    pub stages: StageHistograms,
    latency_sum_us: AtomicU64,
    latency_count: AtomicU64,
    buckets: [AtomicU64; LATENCY_BUCKETS_MS.len() + 1],
}

/// Log-bucketed latency histograms (microseconds) for each stage of a
/// job's life, recorded where `job.rs` stamps its stage boundaries:
/// enqueue → dequeue → cache-resolve → execute → respond. `/metrics`
/// exports each stage's percentile summary.
#[derive(Debug, Default)]
pub struct StageHistograms {
    /// Submission to worker pickup (enqueue → dequeue).
    pub queue_wait: Mutex<LogHistogram>,
    /// Workload resolution: cache probe, plus generation on a miss
    /// (dequeue → cache-resolve).
    pub cache_load: Mutex<LogHistogram>,
    /// Engine execution (execute-start → execute-end).
    pub execute: Mutex<LogHistogram>,
    /// Result serialization: run-record build + database append
    /// (execute-end → respond).
    pub serialize: Mutex<LogHistogram>,
    /// Submission to terminal state, every outcome.
    pub total: Mutex<LogHistogram>,
}

impl StageHistograms {
    /// Record a stage duration given in milliseconds (stored as µs).
    pub fn record_ms(hist: &Mutex<LogHistogram>, ms: f64) {
        hist.lock().record((ms * 1000.0).max(0.0) as u64);
    }

    /// JSON rendering: per stage, a percentile summary.
    pub fn json(&self) -> serde_json::Value {
        let render =
            |hist: &Mutex<LogHistogram>| json!({ "summary": hist.lock().summary_json("us") });
        json!({
            "queue_wait": render(&self.queue_wait),
            "cache_load": render(&self.cache_load),
            "execute": render(&self.execute),
            "serialize": render(&self.serialize),
            "total": render(&self.total),
        })
    }
}

/// Per-tenant counters and stage histograms, allocated once per tenant at
/// startup when multi-tenancy is enabled. The global [`Metrics`] keep
/// counting everything; these slice the same events by tenant so
/// `GET /metrics` can show isolation (one tenant's queue growing while
/// the others' stay flat) without any cross-tenant aggregation step.
#[derive(Debug)]
pub struct TenantMetrics {
    /// Tenant id the counters belong to.
    pub id: String,
    /// Jobs accepted from this tenant.
    pub submitted: AtomicU64,
    /// This tenant's jobs finished successfully.
    pub done: AtomicU64,
    /// This tenant's jobs that panicked or were rejected.
    pub failed: AtomicU64,
    /// This tenant's jobs stopped by an explicit cancel.
    pub cancelled: AtomicU64,
    /// This tenant's jobs stopped by the watchdog deadline.
    pub timed_out: AtomicU64,
    /// This tenant's submissions shed with `429` (per-tenant quota or
    /// global admission control).
    pub shed: AtomicU64,
    /// Per-stage latency histograms over this tenant's jobs alone.
    pub stages: StageHistograms,
}

impl TenantMetrics {
    /// Fresh all-zero counters for tenant `id`.
    pub fn new(id: &str) -> TenantMetrics {
        TenantMetrics {
            id: id.to_string(),
            submitted: AtomicU64::new(0),
            done: AtomicU64::new(0),
            failed: AtomicU64::new(0),
            cancelled: AtomicU64::new(0),
            timed_out: AtomicU64::new(0),
            shed: AtomicU64::new(0),
            stages: StageHistograms::default(),
        }
    }

    /// JSON rendering for the `/metrics` `tenants` section.
    pub fn json(&self) -> serde_json::Value {
        let c = |a: &AtomicU64| a.load(Ordering::Relaxed);
        json!({
            "jobs": {
                "submitted": c(&self.submitted),
                "done": c(&self.done),
                "failed": c(&self.failed),
                "cancelled": c(&self.cancelled),
                "timed_out": c(&self.timed_out),
                "shed": c(&self.shed),
            },
            "stages": self.stages.json(),
        })
    }
}

impl Metrics {
    /// Fresh all-zero counters.
    pub fn new() -> Metrics {
        Metrics::default()
    }

    /// Record one job's submit-to-terminal latency.
    pub fn observe_latency_ms(&self, ms: f64) {
        self.latency_sum_us
            .fetch_add((ms * 1000.0).max(0.0) as u64, Ordering::Relaxed);
        self.latency_count.fetch_add(1, Ordering::Relaxed);
        let idx = LATENCY_BUCKETS_MS
            .iter()
            .position(|&bound| ms <= bound as f64)
            .unwrap_or(LATENCY_BUCKETS_MS.len());
        self.buckets[idx].fetch_add(1, Ordering::Relaxed);
    }

    /// Observed latencies so far.
    pub fn latency_count(&self) -> u64 {
        self.latency_count.load(Ordering::Relaxed)
    }

    /// JSON rendering of the latency distribution. Buckets are
    /// non-cumulative: each counts latencies in `(previous bound, le]`.
    pub fn latency_json(&self) -> serde_json::Value {
        let buckets: Vec<serde_json::Value> = LATENCY_BUCKETS_MS
            .iter()
            .map(|b| json!(b.to_string()))
            .chain(std::iter::once(json!("inf")))
            .zip(self.buckets.iter())
            .map(|(le, count)| json!({"le_ms": le, "count": count.load(Ordering::Relaxed)}))
            .collect();
        json!({
            "sum_ms": self.latency_sum_us.load(Ordering::Relaxed) as f64 / 1000.0,
            "count": self.latency_count.load(Ordering::Relaxed),
            "buckets": buckets,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn latency_lands_in_the_right_bucket() {
        let m = Metrics::new();
        m.observe_latency_ms(0.5); // ≤ 1
        m.observe_latency_ms(7.0); // ≤ 10
        m.observe_latency_ms(50.0); // ≤ 100
        m.observe_latency_ms(99_999.0); // inf
        let v = m.latency_json();
        assert_eq!(v["count"], 4);
        let buckets = v["buckets"].as_array().unwrap();
        assert_eq!(buckets.len(), 6);
        assert_eq!(buckets[0]["count"], 1);
        assert_eq!(buckets[1]["count"], 1);
        assert_eq!(buckets[2]["count"], 1);
        assert_eq!(buckets[5]["count"], 1);
        let sum = v["sum_ms"].as_f64().unwrap();
        assert!((sum - 100_056.5).abs() < 0.01, "sum was {sum}");
    }

    #[test]
    fn counters_accumulate() {
        let m = Metrics::new();
        m.submitted.fetch_add(3, Ordering::Relaxed);
        m.done.fetch_add(2, Ordering::Relaxed);
        m.failed.fetch_add(1, Ordering::Relaxed);
        assert_eq!(m.submitted.load(Ordering::Relaxed), 3);
        assert_eq!(m.done.load(Ordering::Relaxed), 2);
        assert_eq!(m.failed.load(Ordering::Relaxed), 1);
        assert_eq!(m.latency_count(), 0);
    }

    #[test]
    fn stage_histograms_record_and_round_trip() {
        let m = Metrics::new();
        StageHistograms::record_ms(&m.stages.queue_wait, 1.5);
        StageHistograms::record_ms(&m.stages.execute, 250.0);
        let v = m.stages.json();
        assert_eq!(v["queue_wait"]["summary"]["count"], 1);
        assert_eq!(v["cache_load"]["summary"]["count"], 0);
        assert_eq!(v["execute"]["summary"]["count"], 1);
        // Only the summary is exported.
        assert_eq!(v["execute"].as_object().unwrap().len(), 1);
        // 250 ms = 250_000 µs, within the 3.1% bucket quantization.
        let p50 = v["execute"]["summary"]["p50_us"].as_u64().unwrap();
        assert!((242_000..=258_000).contains(&p50), "p50 = {p50}");
    }

    #[test]
    fn tenant_metrics_render_counters_and_stages() {
        let t = TenantMetrics::new("tenant-3");
        t.submitted.fetch_add(5, Ordering::Relaxed);
        t.done.fetch_add(4, Ordering::Relaxed);
        t.shed.fetch_add(2, Ordering::Relaxed);
        StageHistograms::record_ms(&t.stages.total, 12.0);
        let v = t.json();
        assert_eq!(v["jobs"]["submitted"], 5);
        assert_eq!(v["jobs"]["done"], 4);
        assert_eq!(v["jobs"]["shed"], 2);
        assert_eq!(v["jobs"]["failed"], 0);
        assert_eq!(v["stages"]["total"]["summary"]["count"], 1);
        assert_eq!(t.id, "tenant-3");
    }

    #[test]
    fn robustness_counters_start_at_zero() {
        let m = Metrics::new();
        for c in [
            &m.retries,
            &m.panics_quarantined,
            &m.jobs_shed,
            &m.watchdog_requeues,
            &m.jobs_recovered,
            &m.store_rebuilds,
            &m.compressed_fallbacks,
            &m.orphans_collected,
            &m.push_iterations,
            &m.pull_iterations,
        ] {
            assert_eq!(c.load(Ordering::Relaxed), 0);
        }
    }
}
