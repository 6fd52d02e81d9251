//! The graph catalog: a directory mapping validated names to store files.
//!
//! A catalog is just a directory of `<name>.gmg` files — no manifest to
//! drift out of sync. Names are restricted to `[A-Za-z0-9_-]{1,64}`
//! (rejecting path traversal from HTTP-supplied names), installs go
//! through `rename` so a catalog never exposes a partially written file,
//! and every entry carries the store fingerprint that the service folds
//! into its cache keys (re-ingesting a name with different content changes
//! the fingerprint and therefore misses the old cache entry). The
//! vertex/edge counts in each entry are what the engine's checkpoint
//! machinery validates on resume, so checkpoints taken against a stored
//! graph remain portable across processes serving the same catalog.

use crate::reader::StoredGraph;
use crate::StoreError;
use std::fs;
use std::path::{Path, PathBuf};

/// File extension of store files inside a catalog.
pub const STORE_EXT: &str = "gmg";

/// A directory of named stored graphs.
#[derive(Debug, Clone)]
pub struct Catalog {
    dir: PathBuf,
}

/// Summary of one catalog entry, cheap to produce (header-only open).
#[derive(Debug, Clone)]
pub struct CatalogEntry {
    /// Graph name (the file stem).
    pub name: String,
    /// Full path of the store file.
    pub path: PathBuf,
    /// Vertex count.
    pub num_vertices: u64,
    /// Edge count.
    pub num_edges: u64,
    /// Whether the graph is directed.
    pub directed: bool,
    /// Workload class name from the meta section.
    pub class: String,
    /// Content fingerprint.
    pub fingerprint: u64,
    /// File size in bytes.
    pub file_bytes: u64,
}

impl Catalog {
    /// Open (creating if needed) the catalog directory.
    pub fn open(dir: impl Into<PathBuf>) -> Result<Catalog, StoreError> {
        let dir = dir.into();
        fs::create_dir_all(&dir)?;
        Ok(Catalog { dir })
    }

    /// The catalog directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// Validate a graph name: 1–64 characters from `[A-Za-z0-9_-]`.
    pub fn validate_name(name: &str) -> Result<(), StoreError> {
        let ok = !name.is_empty()
            && name.len() <= 64
            && name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || c == '_' || c == '-');
        if ok {
            Ok(())
        } else {
            Err(StoreError::InvalidName(name.to_string()))
        }
    }

    /// The store file path a name maps to (the name need not exist yet).
    pub fn graph_path(&self, name: &str) -> Result<PathBuf, StoreError> {
        Catalog::validate_name(name)?;
        Ok(self.dir.join(format!("{name}.{STORE_EXT}")))
    }

    /// Whether the named graph exists.
    pub fn contains(&self, name: &str) -> bool {
        self.graph_path(name).map(|p| p.is_file()).unwrap_or(false)
    }

    /// Open the named graph (validated header/TOC/meta, mapped lazily).
    pub fn get(&self, name: &str) -> Result<StoredGraph, StoreError> {
        let path = self.graph_path(name)?;
        if !path.is_file() {
            return Err(StoreError::NotFound(name.to_string()));
        }
        StoredGraph::open(path)
    }

    /// Summarize the named graph.
    pub fn entry(&self, name: &str) -> Result<CatalogEntry, StoreError> {
        let stored = self.get(name)?;
        Ok(entry_from(name, &stored))
    }

    /// Atomically install a finished store file under `name`, replacing
    /// any previous graph of that name. `src` must live on the same
    /// filesystem (in practice: written into the catalog directory as a
    /// temp sibling).
    pub fn install(&self, name: &str, src: &Path) -> Result<CatalogEntry, StoreError> {
        let dst = self.graph_path(name)?;
        // Validate before exposing: a catalog never serves an unopenable
        // file via install.
        let stored = StoredGraph::open(src)?;
        let entry = entry_from(name, &stored);
        drop(stored);
        fs::rename(src, &dst)?;
        Ok(CatalogEntry { path: dst, ..entry })
    }

    /// Remove the named graph.
    pub fn remove(&self, name: &str) -> Result<(), StoreError> {
        let path = self.graph_path(name)?;
        if !path.is_file() {
            return Err(StoreError::NotFound(name.to_string()));
        }
        fs::remove_file(path)?;
        Ok(())
    }

    /// List every readable entry, sorted by name. Unreadable or foreign
    /// files are skipped (a catalog directory may hold ingest scratch
    /// space and temp siblings).
    pub fn list(&self) -> Vec<CatalogEntry> {
        let mut out = Vec::new();
        let Ok(dir) = fs::read_dir(&self.dir) else {
            return out;
        };
        for item in dir.flatten() {
            let path = item.path();
            if path.extension().and_then(|e| e.to_str()) != Some(STORE_EXT) {
                continue;
            }
            let Some(name) = path.file_stem().and_then(|s| s.to_str()) else {
                continue;
            };
            if Catalog::validate_name(name).is_err() {
                continue;
            }
            if let Ok(stored) = StoredGraph::open(&path) {
                out.push(entry_from(name, &stored));
            }
        }
        out.sort_by(|a, b| a.name.cmp(&b.name));
        out
    }
}

fn entry_from(name: &str, stored: &StoredGraph) -> CatalogEntry {
    CatalogEntry {
        name: name.to_string(),
        path: stored.path().to_path_buf(),
        num_vertices: stored.header().num_vertices,
        num_edges: stored.header().num_edges,
        directed: stored.header().flags & crate::format::FLAG_DIRECTED != 0,
        class: stored.meta().class.clone(),
        fingerprint: stored.fingerprint(),
        file_bytes: stored.file_len(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::format::StoreMeta;
    use crate::writer::write_graph_store;
    use graphmine_graph::GraphBuilder;
    use std::path::PathBuf;

    fn temp_dir(tag: &str) -> PathBuf {
        let mut p = std::env::temp_dir();
        p.push(format!("graphmine-catalog-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&p);
        fs::create_dir_all(&p).unwrap();
        p
    }

    fn pack_to(path: &Path) -> u64 {
        let mut b = GraphBuilder::undirected(4);
        b.extend_edges([(0, 1), (1, 2), (2, 3)]);
        let graph = b.build();
        let meta = StoreMeta {
            class: "powerlaw".to_string(),
            num_users: 0,
            side: 0,
            num_labels: 0,
            smoothing: 0.0,
            source: "test".to_string(),
            seed: 0,
        };
        write_graph_store(path, &graph, &meta, 0, Vec::new()).unwrap()
    }

    #[test]
    fn install_get_list_remove() {
        let root = temp_dir("basic");
        let catalog = Catalog::open(root.join("cat")).unwrap();
        assert!(catalog.list().is_empty());
        assert!(!catalog.contains("g1"));
        let staged = catalog.dir().join(".staged.tmp");
        let fp = pack_to(&staged);
        let entry = catalog.install("g1", &staged).unwrap();
        assert_eq!(entry.name, "g1");
        assert_eq!(entry.fingerprint, fp);
        assert_eq!(entry.num_vertices, 4);
        assert!(!staged.exists());
        assert!(catalog.contains("g1"));
        let stored = catalog.get("g1").unwrap();
        assert_eq!(stored.fingerprint(), fp);
        let listed = catalog.list();
        assert_eq!(listed.len(), 1);
        assert_eq!(listed[0].name, "g1");
        catalog.remove("g1").unwrap();
        assert!(matches!(catalog.get("g1"), Err(StoreError::NotFound(_))));
        fs::remove_dir_all(&root).ok();
    }

    #[test]
    fn install_rejects_invalid_source_and_leaves_nothing() {
        let root = temp_dir("badsrc");
        let catalog = Catalog::open(root.join("cat")).unwrap();
        let staged = catalog.dir().join(".junk.tmp");
        fs::write(&staged, b"definitely not a store").unwrap();
        assert!(catalog.install("g1", &staged).is_err());
        assert!(!catalog.contains("g1"));
        fs::remove_dir_all(&root).ok();
    }

    #[test]
    fn names_are_validated() {
        assert!(Catalog::validate_name("ok_name-123").is_ok());
        for bad in ["", "../up", "a/b", "dot.dot", "space name", &"x".repeat(65)] {
            assert!(
                matches!(Catalog::validate_name(bad), Err(StoreError::InvalidName(_))),
                "{bad:?} should be rejected"
            );
        }
    }

    #[test]
    fn list_skips_foreign_and_unreadable_files() {
        let root = temp_dir("foreign");
        let catalog = Catalog::open(root.join("cat")).unwrap();
        fs::write(catalog.dir().join("notes.txt"), b"hi").unwrap();
        fs::write(catalog.dir().join("broken.gmg"), b"garbage").unwrap();
        fs::write(catalog.dir().join("bad name.gmg"), b"garbage").unwrap();
        let staged = catalog.dir().join(".staged.tmp");
        pack_to(&staged);
        catalog.install("good", &staged).unwrap();
        let listed = catalog.list();
        assert_eq!(listed.len(), 1);
        assert_eq!(listed[0].name, "good");
        fs::remove_dir_all(&root).ok();
    }
}
