//! The graph cache: repeated jobs on the same synthetic workload skip
//! regeneration.
//!
//! Workload generation (power-law sampling, CSR construction, Gaussian
//! weights) dominates small-job latency, and benchmark traffic is heavily
//! repetitive — sweeps re-run many algorithms over the same few graph
//! specs. Entries are shared as `Arc<Workload>` so eviction never
//! invalidates a running job, hits take only the `parking_lot` read lock
//! (recency is tracked with a per-entry atomic, not a write lock), and an
//! LRU sweep under the write lock keeps the estimated resident bytes under
//! a configurable budget.

use graphmine_algos::Workload;
use parking_lot::RwLock;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Identity of a cacheable workload: either a synthetic spec the server
/// can regenerate, or a named graph resolved from the store catalog.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum CacheKey {
    /// A generatable synthetic workload.
    Generated {
        /// Workload variant discriminant (power-law, ratings, matrix, grid,
        /// mrf).
        class: u8,
        /// Domain size parameter (edges, rows, or grid side).
        size: u64,
        /// `alpha * 1000` rounded, or 0 for variants without an exponent.
        alpha_milli: u64,
        /// Generator seed.
        seed: u64,
        /// Degree-descending vertex reordering applied — a reordered
        /// workload is a different in-memory object than its natural-order
        /// twin, so it must never share a cache slot with it.
        reorder: bool,
        /// Delta-varint compressed adjacency requested — a compressed
        /// workload holds different row bytes than its plain twin and
        /// must occupy its own slot.
        compressed: bool,
    },
    /// A named graph from the store catalog. The content fingerprint is
    /// part of the identity: re-ingesting a name with different bytes
    /// changes the fingerprint and misses the stale entry instead of
    /// serving it.
    Stored {
        /// Catalog name.
        name: String,
        /// Store-file content fingerprint.
        fingerprint: u64,
        /// Degree-descending reordering applied after load.
        reorder: bool,
        /// Compressed adjacency requested for the loaded graph.
        compressed: bool,
    },
}

#[derive(Debug)]
struct CacheEntry {
    workload: Arc<Workload>,
    bytes: u64,
    last_used: AtomicU64,
}

/// Byte-budgeted LRU cache of generated workloads.
#[derive(Debug)]
pub struct GraphCache {
    budget: u64,
    clock: AtomicU64,
    resident: AtomicU64,
    hits: AtomicU64,
    misses: AtomicU64,
    inner: RwLock<HashMap<CacheKey, CacheEntry>>,
}

impl GraphCache {
    /// Create a cache with the given byte budget. A budget of 0 disables
    /// caching entirely: every lookup builds fresh and nothing is retained.
    pub fn new(budget_bytes: u64) -> GraphCache {
        GraphCache {
            budget: budget_bytes,
            clock: AtomicU64::new(0),
            resident: AtomicU64::new(0),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            inner: RwLock::new(HashMap::new()),
        }
    }

    /// Cache hits so far.
    pub fn hits(&self) -> u64 {
        self.hits.load(Ordering::Relaxed)
    }

    /// Cache misses so far (lookups that had to build).
    pub fn misses(&self) -> u64 {
        self.misses.load(Ordering::Relaxed)
    }

    /// Estimated bytes of all resident entries.
    pub fn resident_bytes(&self) -> u64 {
        self.resident.load(Ordering::Relaxed)
    }

    /// Number of resident entries.
    pub fn len(&self) -> usize {
        self.inner.read().len()
    }

    /// Whether the cache is empty.
    pub fn is_empty(&self) -> bool {
        self.inner.read().is_empty()
    }

    fn tick(&self) -> u64 {
        self.clock.fetch_add(1, Ordering::Relaxed) + 1
    }

    /// Fetch the workload for `key`, building it with `build` on a miss.
    /// Returns the shared workload and whether this was a hit. The build
    /// runs outside any lock, so a slow generation never blocks hits on
    /// other keys; if two threads race to build the same key, the first
    /// insert wins and the loser's workload is discarded.
    pub fn get_or_build<F>(&self, key: CacheKey, build: F) -> (Arc<Workload>, bool)
    where
        F: FnOnce() -> Workload,
    {
        match self.get_or_try_build::<_, std::convert::Infallible>(key, || Ok(build())) {
            Ok(result) => result,
            Err(never) => match never {},
        }
    }

    /// [`GraphCache::get_or_build`] for fallible builds — stored-graph
    /// loads can fail (file corrupted or removed since the catalog
    /// lookup), and a failed build must not poison the cache.
    pub fn get_or_try_build<F, E>(
        &self,
        key: CacheKey,
        build: F,
    ) -> Result<(Arc<Workload>, bool), E>
    where
        F: FnOnce() -> Result<Workload, E>,
    {
        if self.budget == 0 {
            self.misses.fetch_add(1, Ordering::Relaxed);
            return Ok((Arc::new(build()?), false));
        }
        {
            let map = self.inner.read();
            if let Some(entry) = map.get(&key) {
                entry.last_used.store(self.tick(), Ordering::Relaxed);
                self.hits.fetch_add(1, Ordering::Relaxed);
                return Ok((Arc::clone(&entry.workload), true));
            }
        }

        let workload = Arc::new(build()?);
        let bytes = workload_resident_bytes(&workload);
        self.misses.fetch_add(1, Ordering::Relaxed);

        let mut map = self.inner.write();
        if let Some(entry) = map.get(&key) {
            // Lost a build race; still a miss (we paid for a build), but
            // converge on the shared copy.
            entry.last_used.store(self.tick(), Ordering::Relaxed);
            return Ok((Arc::clone(&entry.workload), false));
        }
        // Evict least-recently-used entries until the newcomer fits. An
        // entry larger than the whole budget is admitted alone — the job
        // needs the workload regardless, so refusing would only disable
        // sharing for exactly the graphs that are most expensive to rebuild.
        let mut resident = self.resident.load(Ordering::Relaxed);
        while resident + bytes > self.budget && !map.is_empty() {
            let lru_key = map
                .iter()
                .min_by_key(|(_, e)| e.last_used.load(Ordering::Relaxed))
                .map(|(k, _)| k.clone());
            match lru_key {
                Some(k) => {
                    if let Some(evicted) = map.remove(&k) {
                        resident = resident.saturating_sub(evicted.bytes);
                    }
                }
                None => break,
            }
        }
        self.resident.store(resident + bytes, Ordering::Relaxed);
        map.insert(
            key,
            CacheEntry {
                workload: Arc::clone(&workload),
                bytes,
                last_used: AtomicU64::new(self.tick()),
            },
        );
        Ok((workload, false))
    }
}

/// Estimated *resident* (heap) size of a workload — what eviction charges
/// against the budget. Topology is counted from the graph's actual heap
/// footprint, so an mmap-backed stored graph (whose CSR arrays live in the
/// page cache, reclaimable by the kernel, and cost milliseconds to reopen)
/// charges only its dense data columns while a generated graph charges its
/// full CSR. This keeps the LRU from evicting expensive synthetic rebuilds
/// to protect cheap-to-reopen mapped graphs. The payload terms are a
/// budget heuristic, not an allocator audit.
pub fn workload_resident_bytes(workload: &Workload) -> u64 {
    let graph = workload.graph();
    let v = graph.num_vertices() as u64;
    let e = graph.num_edges() as u64;
    let topology = graph.topology_heap_bytes();
    let payload = match workload {
        // Per-edge f64 weights + per-vertex x and y point coordinates.
        Workload::PowerLaw { .. } => e * 8 + v * 16,
        // Per-edge f64 ratings.
        Workload::Ratings(_) => e * 8,
        // Off-diagonal per edge; diagonal + rhs + iterate per row.
        Workload::Matrix(_) => e * 8 + v * 24,
        // Per-vertex label priors/beliefs (small label counts).
        Workload::Grid(_) | Workload::Mrf(_) => v * 32 + e * 8,
    };
    topology + payload
}

#[cfg(test)]
mod tests {
    use super::*;

    fn key(seed: u64) -> CacheKey {
        CacheKey::Generated {
            class: 0,
            size: 200,
            alpha_milli: 2500,
            seed,
            reorder: false,
            compressed: false,
        }
    }

    fn build(seed: u64) -> Workload {
        Workload::powerlaw(200, 2.5, seed)
    }

    #[test]
    fn second_lookup_is_a_hit_and_shares_the_graph() {
        let cache = GraphCache::new(64 * 1024 * 1024);
        let (first, hit1) = cache.get_or_build(key(1), || build(1));
        let (second, hit2) = cache.get_or_build(key(1), || build(1));
        assert!(!hit1);
        assert!(hit2);
        assert!(Arc::ptr_eq(&first, &second));
        assert_eq!(cache.hits(), 1);
        assert_eq!(cache.misses(), 1);
        assert_eq!(cache.len(), 1);
    }

    #[test]
    fn zero_budget_disables_caching() {
        let cache = GraphCache::new(0);
        let (_, hit1) = cache.get_or_build(key(1), || build(1));
        let (_, hit2) = cache.get_or_build(key(1), || build(1));
        assert!(!hit1);
        assert!(!hit2);
        assert_eq!(cache.len(), 0);
        assert_eq!(cache.misses(), 2);
    }

    #[test]
    fn lru_eviction_respects_budget_and_recency() {
        let one = build(1);
        let entry_bytes = workload_resident_bytes(&one);
        // Room for two entries, not three.
        let cache = GraphCache::new(entry_bytes * 2 + entry_bytes / 2);
        cache.get_or_build(key(1), || build(1));
        cache.get_or_build(key(2), || build(2));
        // Touch key 1 so key 2 is the LRU when key 3 arrives.
        let (_, hit) = cache.get_or_build(key(1), || build(1));
        assert!(hit);
        cache.get_or_build(key(3), || build(3));
        assert_eq!(cache.len(), 2);
        let (_, hit1) = cache.get_or_build(key(1), || build(1));
        assert!(hit1, "recently used entry was evicted");
        let (_, hit2) = cache.get_or_build(key(2), || build(2));
        assert!(!hit2, "LRU entry survived eviction");
    }

    #[test]
    fn resident_bytes_tracks_entries() {
        let cache = GraphCache::new(u64::MAX);
        assert_eq!(cache.resident_bytes(), 0);
        cache.get_or_build(key(1), || build(1));
        let after_one = cache.resident_bytes();
        assert!(after_one > 0);
        cache.get_or_build(key(2), || build(2));
        assert!(cache.resident_bytes() > after_one);
    }

    #[test]
    fn concurrent_lookups_converge_on_one_copy() {
        let cache = Arc::new(GraphCache::new(64 * 1024 * 1024));
        let handles: Vec<_> = (0..8)
            .map(|_| {
                let cache = Arc::clone(&cache);
                std::thread::spawn(move || cache.get_or_build(key(7), || build(7)).0)
            })
            .collect();
        let copies: Vec<Arc<Workload>> = handles.into_iter().map(|h| h.join().unwrap()).collect();
        assert_eq!(cache.len(), 1);
        for c in &copies[1..] {
            assert!(Arc::ptr_eq(&copies[0], c));
        }
        assert_eq!(cache.hits() + cache.misses(), 8);
    }

    #[test]
    fn eviction_under_contention_never_invalidates_held_workloads() {
        let entry_bytes = workload_resident_bytes(&build(0));
        // Budget for ~2 entries while 6 distinct keys churn: constant
        // eviction pressure under concurrent access.
        let cache = Arc::new(GraphCache::new(entry_bytes * 2 + entry_bytes / 2));
        let handles: Vec<_> = (0..6u64)
            .map(|t| {
                let cache = Arc::clone(&cache);
                std::thread::spawn(move || {
                    let mut held = Vec::new();
                    for round in 0..20u64 {
                        let seed = (t + round) % 6;
                        let (w, _) = cache.get_or_build(key(seed), || build(seed));
                        // Shared copies must stay usable even after the
                        // cache evicts the entry behind them.
                        assert!(w.graph().num_vertices() > 0);
                        held.push(w);
                    }
                    held
                })
            })
            .collect();
        let held: Vec<_> = handles
            .into_iter()
            .flat_map(|h| h.join().unwrap())
            .collect();
        for w in &held {
            assert!(w.graph().num_edges() > 0, "evicted workload was corrupted");
        }
        assert_eq!(cache.hits() + cache.misses(), 6 * 20);
        assert!(
            cache.resident_bytes() <= entry_bytes * 3,
            "resident bytes exceeded budget plus one oversize admission"
        );
        assert!(
            cache.len() <= 2,
            "more entries resident than the budget allows"
        );
    }

    #[test]
    fn failed_builds_do_not_poison_the_cache() {
        let cache = GraphCache::new(64 * 1024 * 1024);
        let err: Result<(Arc<Workload>, bool), String> =
            cache.get_or_try_build(key(1), || Err("load failed".to_string()));
        assert!(err.is_err());
        assert_eq!(cache.len(), 0);
        assert_eq!(cache.resident_bytes(), 0);
        let (_, hit) = cache.get_or_build(key(1), || build(1));
        assert!(!hit, "a failed build must not satisfy later lookups");
        assert_eq!(cache.len(), 1);
    }

    #[test]
    fn stored_and_generated_keys_occupy_distinct_slots() {
        let cache = GraphCache::new(64 * 1024 * 1024);
        let stored = CacheKey::Stored {
            name: "g".to_string(),
            fingerprint: 7,
            reorder: false,
            compressed: false,
        };
        let restamped = CacheKey::Stored {
            name: "g".to_string(),
            fingerprint: 8,
            reorder: false,
            compressed: false,
        };
        cache.get_or_build(key(1), || build(1));
        let (_, hit) = cache.get_or_build(stored.clone(), || build(1));
        assert!(!hit, "stored key must not alias a generated key");
        let (_, hit) = cache.get_or_build(stored, || build(1));
        assert!(hit);
        // A new fingerprint is a new identity: re-ingested content misses.
        let (_, hit) = cache.get_or_build(restamped, || build(1));
        assert!(!hit, "fingerprint change must invalidate the slot");
    }

    #[test]
    fn racing_builders_on_distinct_keys_each_insert_once() {
        let cache = Arc::new(GraphCache::new(u64::MAX));
        let handles: Vec<_> = (0..4u64)
            .flat_map(|seed| (0..4).map(move |_| seed).collect::<Vec<_>>())
            .map(|seed| {
                let cache = Arc::clone(&cache);
                std::thread::spawn(move || cache.get_or_build(key(seed), || build(seed)).0)
            })
            .collect();
        let copies: Vec<Arc<Workload>> = handles.into_iter().map(|h| h.join().unwrap()).collect();
        // 4 distinct keys, each raced by 4 threads: exactly 4 entries, and
        // every thread on the same key got the same shared copy.
        assert_eq!(cache.len(), 4);
        assert_eq!(copies.len(), 16);
        assert_eq!(cache.hits() + cache.misses(), 16);
        assert!(cache.misses() >= 4, "each key must be built at least once");
        let mut distinct = 0;
        for (i, a) in copies.iter().enumerate() {
            if copies[..i].iter().all(|b| !Arc::ptr_eq(a, b)) {
                distinct += 1;
            }
        }
        assert_eq!(distinct, 4, "same-key lookups must converge on one copy");
    }
}
