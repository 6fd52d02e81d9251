//! Shard-per-core execution plans and multi-tenant isolation primitives.
//!
//! The paper's behavior-space methodology becomes a robust *serving*
//! benchmark only once one process can host many isolated workloads at
//! once. This crate supplies the three pieces the server composes for
//! that regime:
//!
//! - [`ShardPlan`] — partitions a graph's vertex space into contiguous,
//!   chunk-aligned shards (one per core). The plan mirrors the engine's
//!   deterministic chunk geometry exactly, so applying it via
//!   [`ShardPlan::config`] drives the engine's shard-aware message
//!   exchange (`ExecutionConfig::with_shards`) where sharded results are
//!   **bit-identical** to single-shard runs for every algorithm,
//!   direction mode, and representation. Pairing the plan's
//!   [`ShardPlan::partition_vec`] with the engine's cluster simulation
//!   additionally tallies cross-shard traffic without changing results.
//! - [`TenantRegistry`] — tenant identity: API keys checked with a
//!   constant-time comparison (no early exit across tenants either, so
//!   timing reveals neither key prefixes nor which tenant matched),
//!   per-tenant admission quotas, and DRR weights.
//! - [`DrrQueue`] — a closeable blocking MPMC queue with one FIFO lane
//!   per tenant, served deficit-round-robin by weight so a noisy tenant
//!   cannot starve the others. It is every queue the server has: one
//!   lane per tenant for jobs (one lane without tenants) and one lane
//!   for connections.

pub mod drr;
pub mod plan;
pub mod tenant;

pub use drr::DrrQueue;
pub use plan::ShardPlan;
pub use tenant::{
    TenantError, TenantRegistry, TenantSpec, DEFAULT_MAX_QUEUED, DEFAULT_TENANT_WEIGHT,
};
