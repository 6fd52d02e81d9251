//! Tenant identity: specs, a JSON tenants file, and an API-key registry.
//!
//! Authentication is deliberately boring and deliberately constant-time:
//! [`TenantRegistry::authenticate`] compares the presented key against
//! *every* tenant's key with a branch-free byte fold — no early exit on
//! the first mismatched byte (which would leak key prefixes byte by
//! byte) and no early exit on a match (which would leak *which* tenant
//! matched by position). The tenants file is parsed through
//! `serde_json::Value` rather than derive so malformed entries produce
//! targeted errors naming the offending tenant index.

use serde_json::Value;
use std::fmt;
use std::path::Path;

/// Default DRR weight for tenants that do not specify one.
pub const DEFAULT_TENANT_WEIGHT: u32 = 1;

/// Default per-tenant admission quota (max queued jobs) when the
/// tenants file does not specify one.
pub const DEFAULT_MAX_QUEUED: usize = 64;

/// One tenant: identity, credential, fair-share weight, and quota.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TenantSpec {
    /// Stable id stamped into journal entries, run records, and metrics.
    pub id: String,
    /// API key presented in the `X-Api-Key` header.
    pub key: String,
    /// DRR quantum: relative service share while backlogged (≥ 1).
    pub weight: u32,
    /// Admission quota: jobs this tenant may hold queued before the
    /// server sheds with 429.
    pub max_queued: usize,
}

impl TenantSpec {
    /// Spec with default weight and quota.
    pub fn new(id: impl Into<String>, key: impl Into<String>) -> TenantSpec {
        TenantSpec {
            id: id.into(),
            key: key.into(),
            weight: DEFAULT_TENANT_WEIGHT,
            max_queued: DEFAULT_MAX_QUEUED,
        }
    }

    /// Deterministically derived tenant `index`: id `tenant-<index>` and
    /// a key derived by SplitMix64. The benchmark's clients and the
    /// in-process test servers derive the same specs from the same indices,
    /// so no tenants file needs to change hands.
    pub fn derived(index: usize) -> TenantSpec {
        TenantSpec::new(
            format!("tenant-{index}"),
            format!("tk-{index}-{:016x}", splitmix64(0x7E4A_A2C1 ^ index as u64)),
        )
    }

    /// Builder: override the DRR weight.
    pub fn with_weight(mut self, weight: u32) -> TenantSpec {
        self.weight = weight;
        self
    }

    /// Builder: override the admission quota.
    pub fn with_max_queued(mut self, max_queued: usize) -> TenantSpec {
        self.max_queued = max_queued;
        self
    }
}

fn splitmix64(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Why a tenants file or registry could not be built.
#[derive(Debug)]
pub enum TenantError {
    /// The tenants file could not be read.
    Io(std::io::Error),
    /// The tenants file is not valid JSON or violates the schema.
    Parse(String),
}

impl fmt::Display for TenantError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TenantError::Io(e) => write!(f, "tenants file unreadable: {e}"),
            TenantError::Parse(msg) => write!(f, "tenants file invalid: {msg}"),
        }
    }
}

impl std::error::Error for TenantError {}

impl From<std::io::Error> for TenantError {
    fn from(e: std::io::Error) -> TenantError {
        TenantError::Io(e)
    }
}

/// The validated tenant set the server authenticates and schedules by.
/// Tenant order is the lane order of the DRR queue and the index space
/// of per-tenant metrics.
#[derive(Debug, Clone)]
pub struct TenantRegistry {
    tenants: Vec<TenantSpec>,
}

impl TenantRegistry {
    /// Validate and adopt `tenants`: at least one, ids and keys non-empty
    /// and unique, weights ≥ 1.
    pub fn new(tenants: Vec<TenantSpec>) -> Result<TenantRegistry, TenantError> {
        if tenants.is_empty() {
            return Err(TenantError::Parse("no tenants defined".into()));
        }
        for (i, t) in tenants.iter().enumerate() {
            if t.id.is_empty() {
                return Err(TenantError::Parse(format!("tenant {i}: empty id")));
            }
            if t.key.is_empty() {
                return Err(TenantError::Parse(format!("tenant {i} ({}): empty key", t.id)));
            }
            if t.weight == 0 {
                return Err(TenantError::Parse(format!(
                    "tenant {i} ({}): weight must be ≥ 1",
                    t.id
                )));
            }
            for other in &tenants[..i] {
                if other.id == t.id {
                    return Err(TenantError::Parse(format!("duplicate tenant id {}", t.id)));
                }
                if other.key == t.key {
                    return Err(TenantError::Parse(format!(
                        "tenants {} and {} share a key",
                        other.id, t.id
                    )));
                }
            }
        }
        Ok(TenantRegistry { tenants })
    }

    /// `count` deterministically derived tenants (see
    /// [`TenantSpec::derived`]), all with quota `max_queued`.
    pub fn derived(count: usize, max_queued: usize) -> Result<TenantRegistry, TenantError> {
        TenantRegistry::new(
            (0..count)
                .map(|i| TenantSpec::derived(i).with_max_queued(max_queued))
                .collect(),
        )
    }

    /// Parse a tenants file: either `{"tenants": [...]}` or a bare
    /// array, each entry `{"id", "key", "weight"?, "max_queued"?}`.
    pub fn from_json(text: &str) -> Result<TenantRegistry, TenantError> {
        let doc: Value =
            serde_json::from_str(text).map_err(|e| TenantError::Parse(e.to_string()))?;
        let entries = doc["tenants"]
            .as_array()
            .or_else(|| doc.as_array())
            .ok_or_else(|| {
                TenantError::Parse("expected {\"tenants\": [...]} or a bare array".into())
            })?;
        let mut tenants = Vec::with_capacity(entries.len());
        for (i, e) in entries.iter().enumerate() {
            let field_str = |name: &str| {
                e[name]
                    .as_str()
                    .map(str::to_string)
                    .ok_or_else(|| TenantError::Parse(format!("tenant {i}: missing \"{name}\"")))
            };
            let mut spec = TenantSpec::new(field_str("id")?, field_str("key")?);
            if let Some(w) = e["weight"].as_u64() {
                spec.weight = w.min(u64::from(u32::MAX)) as u32;
            }
            if let Some(q) = e["max_queued"].as_u64() {
                spec.max_queued = q as usize;
            }
            tenants.push(spec);
        }
        TenantRegistry::new(tenants)
    }

    /// Read and parse a tenants file from disk.
    pub fn load(path: &Path) -> Result<TenantRegistry, TenantError> {
        TenantRegistry::from_json(&std::fs::read_to_string(path)?)
    }

    /// Serialize back to the `{"tenants": [...]}` file form.
    pub fn to_json(&self) -> String {
        let tenants: Vec<Value> = self
            .tenants
            .iter()
            .map(|t| {
                serde_json::json!({
                    "id": t.id,
                    "key": t.key,
                    "weight": t.weight,
                    "max_queued": t.max_queued,
                })
            })
            .collect();
        serde_json::to_string_pretty(&serde_json::json!({ "tenants": tenants }))
            .expect("tenants serialize")
    }

    /// Constant-time authentication: the tenant index for `key`, or
    /// `None`. Scans every tenant unconditionally.
    pub fn authenticate(&self, key: &str) -> Option<usize> {
        let mut found: Option<usize> = None;
        for (i, t) in self.tenants.iter().enumerate() {
            let matched = constant_time_eq(t.key.as_bytes(), key.as_bytes());
            if matched && found.is_none() {
                found = Some(i);
            }
        }
        found
    }

    /// Index of the tenant with this id (journal replay, metrics).
    pub fn index_of(&self, id: &str) -> Option<usize> {
        self.tenants.iter().position(|t| t.id == id)
    }

    /// The tenant at `index`.
    pub fn get(&self, index: usize) -> &TenantSpec {
        &self.tenants[index]
    }

    pub fn len(&self) -> usize {
        self.tenants.len()
    }

    pub fn is_empty(&self) -> bool {
        self.tenants.is_empty()
    }

    pub fn iter(&self) -> impl Iterator<Item = &TenantSpec> {
        self.tenants.iter()
    }

    /// Per-tenant DRR weights in lane order.
    pub fn weights(&self) -> Vec<u32> {
        self.tenants.iter().map(|t| t.weight).collect()
    }
}

/// Branch-free byte-fold equality. Runs in time dependent only on the
/// *presented* key's length, never on where the first difference lies.
fn constant_time_eq(secret: &[u8], presented: &[u8]) -> bool {
    let mut diff = secret.len() ^ presented.len();
    for i in 0..secret.len().min(presented.len()) {
        diff |= usize::from(secret[i] ^ presented[i]);
    }
    diff == 0
}

#[cfg(test)]
mod tests {
    use super::*;

    fn registry() -> TenantRegistry {
        TenantRegistry::new(vec![
            TenantSpec::new("alpha", "key-alpha").with_weight(4),
            TenantSpec::new("beta", "key-beta").with_max_queued(2),
        ])
        .unwrap()
    }

    #[test]
    fn authenticate_maps_keys_to_indices() {
        let r = registry();
        assert_eq!(r.authenticate("key-alpha"), Some(0));
        assert_eq!(r.authenticate("key-beta"), Some(1));
        assert_eq!(r.authenticate("key-gamma"), None);
        assert_eq!(r.authenticate(""), None);
        // Prefixes and extensions of a real key do not match.
        assert_eq!(r.authenticate("key-alph"), None);
        assert_eq!(r.authenticate("key-alphaa"), None);
    }

    #[test]
    fn constant_time_eq_is_exact() {
        assert!(constant_time_eq(b"abc", b"abc"));
        assert!(!constant_time_eq(b"abc", b"abd"));
        assert!(!constant_time_eq(b"abc", b"ab"));
        assert!(!constant_time_eq(b"", b"x"));
        assert!(constant_time_eq(b"", b""));
    }

    #[test]
    fn validation_rejects_duplicates_and_empties() {
        assert!(TenantRegistry::new(vec![]).is_err());
        assert!(TenantRegistry::new(vec![TenantSpec::new("", "k")]).is_err());
        assert!(TenantRegistry::new(vec![TenantSpec::new("a", "")]).is_err());
        assert!(TenantRegistry::new(vec![
            TenantSpec::new("a", "k1"),
            TenantSpec::new("a", "k2"),
        ])
        .is_err());
        assert!(TenantRegistry::new(vec![
            TenantSpec::new("a", "k"),
            TenantSpec::new("b", "k"),
        ])
        .is_err());
        assert!(
            TenantRegistry::new(vec![TenantSpec::new("a", "k").with_weight(0)]).is_err(),
            "zero weight must be rejected"
        );
    }

    #[test]
    fn tenants_file_round_trips() {
        let r = registry();
        let text = r.to_json();
        let back = TenantRegistry::from_json(&text).unwrap();
        assert_eq!(back.len(), 2);
        assert_eq!(back.get(0), r.get(0));
        assert_eq!(back.get(1), r.get(1));
        assert_eq!(back.weights(), vec![4, 1]);
    }

    #[test]
    fn tenants_file_accepts_bare_arrays_and_defaults() {
        let r = TenantRegistry::from_json(r#"[{"id": "solo", "key": "sk"}]"#).unwrap();
        assert_eq!(r.len(), 1);
        assert_eq!(r.get(0).weight, DEFAULT_TENANT_WEIGHT);
        assert_eq!(r.get(0).max_queued, DEFAULT_MAX_QUEUED);
    }

    #[test]
    fn tenants_file_errors_name_the_offender() {
        let err = TenantRegistry::from_json(r#"{"tenants": [{"id": "a"}]}"#)
            .unwrap_err()
            .to_string();
        assert!(err.contains("tenant 0"), "{err}");
        assert!(err.contains("key"), "{err}");
        assert!(TenantRegistry::from_json("not json").is_err());
        assert!(TenantRegistry::from_json("{}").is_err());
    }

    #[test]
    fn derived_tenants_are_deterministic_and_distinct() {
        let a = TenantSpec::derived(3);
        let b = TenantSpec::derived(3);
        assert_eq!(a, b);
        assert_eq!(a.id, "tenant-3");
        let r = TenantRegistry::derived(8, 16).unwrap();
        assert_eq!(r.len(), 8);
        assert!(r.iter().all(|t| t.max_queued == 16));
        // Every derived key authenticates to its own index.
        for i in 0..8 {
            assert_eq!(r.authenticate(&r.get(i).key), Some(i));
        }
    }
}
