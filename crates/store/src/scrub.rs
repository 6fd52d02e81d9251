//! Catalog scrub: verify every store file, quarantine corruption,
//! re-pack what has a registered source.
//!
//! A scrub walks every `*.gmg` file in a catalog directory — including
//! files the catalog's own `list()` would skip as unreadable — and runs
//! the full checksum verification on each. Files that fail are renamed to
//! `<file>.corrupt` (quarantine: the catalog stops serving them, but the
//! bytes survive for forensics), and when the store's recorded provenance
//! is an edge-list file that still exists (`source = "edgelist:<path>"`),
//! the graph is re-packed from that source and re-installed under the
//! same name. Orphaned temp siblings from crashed earlier writes
//! (`.*.tmp-*` files) are collected along the way.
//!
//! The sweep is deliberately conservative: a re-pack re-derives columns
//! exactly as the original edge-list pack did (weights from the file,
//! points from the recorded seed), goes through the same
//! pack → deep-verify → rename install pipeline as ingest, and on any
//! failure leaves the quarantined file as the only artifact — a scrub
//! never destroys the last copy of anything.

use crate::catalog::Catalog;
use crate::reader::StoredGraph;
use crate::workload::pack_workload_with;
use crate::StoreError;
use graphmine_algos::Workload;
use graphmine_engine::IoShim;
use graphmine_graph::parse_edge_list;
use std::fs::{self, File};
use std::io::BufReader;
use std::path::Path;

/// What the scrub did with one catalog entry.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ScrubOutcome {
    /// Every section checksum (and the deep structural validation) passed.
    Clean,
    /// The file failed verification and was renamed to `*.corrupt`; no
    /// usable source was registered, so it could not be re-packed.
    Quarantined {
        /// Damaged sections, or the open/verify error for unreadable files.
        detail: String,
    },
    /// The file was quarantined, then re-packed from its registered
    /// edge-list source and re-installed under the same name.
    Repacked {
        /// Damaged sections that triggered the quarantine.
        detail: String,
    },
}

/// Summary of one scrub sweep over a catalog.
#[derive(Debug, Default)]
pub struct ScrubReport {
    /// Per-file outcomes, in scan order.
    pub entries: Vec<(String, ScrubOutcome)>,
    /// Orphaned temp-sibling files removed from the catalog directory.
    pub orphans_removed: usize,
}

impl ScrubReport {
    /// Number of files scanned.
    pub fn scanned(&self) -> usize {
        self.entries.len()
    }

    /// Number of files that verified clean.
    pub fn clean(&self) -> usize {
        self.count(|o| matches!(o, ScrubOutcome::Clean))
    }

    /// Number of files quarantined without a re-pack.
    pub fn quarantined(&self) -> usize {
        self.count(|o| matches!(o, ScrubOutcome::Quarantined { .. }))
    }

    /// Number of files quarantined and successfully re-packed.
    pub fn repacked(&self) -> usize {
        self.count(|o| matches!(o, ScrubOutcome::Repacked { .. }))
    }

    fn count(&self, f: impl Fn(&ScrubOutcome) -> bool) -> usize {
        self.entries.iter().filter(|(_, o)| f(o)).count()
    }
}

/// Scrub every `*.gmg` file under `catalog`'s directory: verify, quarantine
/// failures to `*.corrupt`, re-pack quarantined graphs whose recorded
/// source (`edgelist:<path>`) still exists, and remove orphaned `.*.tmp-*`
/// siblings left by crashed writes. Durable writes go through `shim`.
pub fn scrub_catalog(catalog: &Catalog, shim: &IoShim) -> Result<ScrubReport, StoreError> {
    let mut report = ScrubReport {
        orphans_removed: gc_orphan_temps(catalog.dir())?,
        ..ScrubReport::default()
    };
    let mut names = Vec::new();
    for entry in fs::read_dir(catalog.dir())? {
        let entry = entry?;
        let path = entry.path();
        if !entry.file_type()?.is_file() {
            continue;
        }
        if path.extension().and_then(|e| e.to_str()) == Some(crate::catalog::STORE_EXT) {
            if let Some(stem) = path.file_stem().and_then(|s| s.to_str()) {
                if Catalog::validate_name(stem).is_ok() {
                    names.push(stem.to_string());
                }
            }
        }
    }
    names.sort();
    for name in names {
        let outcome = scrub_one(catalog, &name, shim)?;
        report.entries.push((name, outcome));
    }
    Ok(report)
}

/// Remove orphaned temp siblings (`.*.tmp*` files left by crashed atomic
/// writes) from `dir`, returning how many were collected. Cheap — no
/// store file is opened or verified — so the service runs it on every
/// start. A missing `dir` counts as zero orphans.
pub fn gc_orphan_temps(dir: &Path) -> Result<usize, StoreError> {
    let mut removed = 0;
    let entries = match fs::read_dir(dir) {
        Ok(e) => e,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(0),
        Err(e) => return Err(e.into()),
    };
    for entry in entries {
        let entry = entry?;
        let path = entry.path();
        let Some(file_name) = path.file_name().and_then(|n| n.to_str()) else {
            continue;
        };
        if entry.file_type()?.is_file() && file_name.starts_with('.') && file_name.contains(".tmp")
        {
            fs::remove_file(&path)?;
            removed += 1;
        }
    }
    Ok(removed)
}

fn scrub_one(catalog: &Catalog, name: &str, shim: &IoShim) -> Result<ScrubOutcome, StoreError> {
    let path = catalog
        .dir()
        .join(format!("{name}.{}", crate::catalog::STORE_EXT));
    // Open + verify, capturing everything a re-pack needs before the file
    // is renamed away.
    let mut source = None;
    let detail = match StoredGraph::open(&path) {
        Err(e) => format!("unreadable: {e}"),
        Ok(stored) => match stored.verify() {
            Ok(()) => return Ok(ScrubOutcome::Clean),
            Err(e) => {
                // Only trust the recorded provenance if the meta section
                // itself verified — a bit flip there could point the
                // re-pack at the wrong source.
                let meta_damaged = matches!(
                    &e,
                    StoreError::CorruptSection { sections }
                        if sections.iter().any(|s| s == crate::format::SEC_META)
                );
                let meta = stored.meta();
                if !meta_damaged && meta.class == "powerlaw" {
                    if let Some(src) = meta.source.strip_prefix("edgelist:") {
                        source = Some((
                            src.to_string(),
                            stored.header().flags & crate::format::FLAG_DIRECTED != 0,
                            stored.header().num_vertices as usize,
                            meta.seed,
                        ));
                    }
                }
                e.to_string()
            }
        },
    };
    let quarantine = path.with_file_name(format!(
        "{}.corrupt",
        path.file_name().unwrap_or_default().to_string_lossy()
    ));
    fs::rename(&path, &quarantine)?;
    let Some((src, directed, num_vertices, seed)) = source else {
        return Ok(ScrubOutcome::Quarantined { detail });
    };
    match repack_from_edge_list(
        catalog,
        name,
        Path::new(&src),
        directed,
        num_vertices,
        seed,
        shim,
    ) {
        Ok(()) => Ok(ScrubOutcome::Repacked { detail }),
        Err(e) => Ok(ScrubOutcome::Quarantined {
            detail: format!("{detail}; re-pack failed: {e}"),
        }),
    }
}

/// Re-derive the workload from its source edge list exactly as the
/// original `graph pack --input` did, then pack, deep-verify, and install
/// — the same pipeline as ingest finalize.
fn repack_from_edge_list(
    catalog: &Catalog,
    name: &str,
    src: &Path,
    directed: bool,
    num_vertices: usize,
    seed: u64,
    shim: &IoShim,
) -> Result<(), StoreError> {
    let (graph, weights) =
        parse_edge_list(BufReader::new(File::open(src)?), num_vertices, directed)
            .map_err(|e| StoreError::Corrupt(format!("edge list: {e}")))?;
    let workload = Workload::weighted(graph, weights, seed);
    let staging = catalog
        .dir()
        .join(format!(".scrub-{name}.tmp-{}", std::process::id()));
    let result = (|| {
        pack_workload_with(
            &staging,
            &workload,
            &format!("edgelist:{}", src.display()),
            seed,
            shim,
        )?;
        StoredGraph::open(&staging)?.verify()?;
        catalog.install(name, &staging).map(|_| ())
    })();
    if result.is_err() {
        let _ = fs::remove_file(&staging);
    }
    result
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::pack_workload;
    use std::io::{Seek, SeekFrom, Write};
    use std::path::PathBuf;

    fn temp_dir(tag: &str) -> PathBuf {
        let mut p = std::env::temp_dir();
        p.push(format!("graphmine-scrub-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&p);
        fs::create_dir_all(&p).unwrap();
        p
    }

    fn flip_payload_byte(path: &Path) {
        let stored = StoredGraph::open(path).unwrap();
        let sec = stored
            .sections()
            .iter()
            .max_by_key(|s| s.offset)
            .unwrap()
            .clone();
        drop(stored);
        let at = sec.offset + sec.len_bytes / 2;
        let b = fs::read(path).unwrap()[at as usize] ^ 0x10;
        let mut f = fs::OpenOptions::new().write(true).open(path).unwrap();
        f.seek(SeekFrom::Start(at)).unwrap();
        f.write_all(&[b]).unwrap();
    }

    #[test]
    fn clean_catalog_scrubs_clean() {
        let dir = temp_dir("clean");
        let catalog = Catalog::open(dir.join("cat")).unwrap();
        let w = Workload::powerlaw(100, 2.0, 3);
        pack_workload(&catalog.dir().join("a.gmg"), &w, "synthetic:powerlaw", 3).unwrap();
        let report = scrub_catalog(&catalog, &IoShim::disabled()).unwrap();
        assert_eq!(report.scanned(), 1);
        assert_eq!(report.clean(), 1);
        assert_eq!(report.quarantined() + report.repacked(), 0);
        assert!(catalog.get("a").is_ok());
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn corrupt_synthetic_graph_is_quarantined() {
        let dir = temp_dir("quarantine");
        let catalog = Catalog::open(dir.join("cat")).unwrap();
        let w = Workload::powerlaw(100, 2.0, 3);
        let path = catalog.dir().join("a.gmg");
        pack_workload(&path, &w, "synthetic:powerlaw", 3).unwrap();
        flip_payload_byte(&path);
        let report = scrub_catalog(&catalog, &IoShim::disabled()).unwrap();
        assert_eq!(report.quarantined(), 1);
        assert!(!path.exists());
        assert!(path.with_file_name("a.gmg.corrupt").exists());
        // The catalog now refuses the name with a typed error.
        assert!(matches!(catalog.get("a"), Err(StoreError::NotFound(_))));
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn corrupt_edgelist_graph_is_repacked_from_source() {
        let dir = temp_dir("repack");
        let catalog = Catalog::open(dir.join("cat")).unwrap();
        let edges = dir.join("edges.txt");
        fs::write(&edges, b"0 1\n1 2\n2 3 0.5\n0 3\n").unwrap();
        let (graph, weights) =
            parse_edge_list(BufReader::new(File::open(&edges).unwrap()), 4, false).unwrap();
        let w = Workload::weighted(graph, weights, 9);
        let path = catalog.dir().join("g.gmg");
        let fp = pack_workload(&path, &w, &format!("edgelist:{}", edges.display()), 9).unwrap();
        flip_payload_byte(&path);
        let report = scrub_catalog(&catalog, &IoShim::disabled()).unwrap();
        assert_eq!(report.repacked(), 1, "{:?}", report.entries);
        // The quarantined copy survives and the re-packed file verifies
        // with the original fingerprint (same source, same seed).
        assert!(path.with_file_name("g.gmg.corrupt").exists());
        let stored = catalog.get("g").unwrap();
        stored.verify().unwrap();
        assert_eq!(stored.fingerprint(), fp);
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn missing_source_degrades_to_quarantine() {
        let dir = temp_dir("nosrc");
        let catalog = Catalog::open(dir.join("cat")).unwrap();
        let w = Workload::powerlaw(80, 2.0, 5);
        let path = catalog.dir().join("a.gmg");
        pack_workload(&path, &w, "edgelist:/no/such/file.txt", 5).unwrap();
        flip_payload_byte(&path);
        let report = scrub_catalog(&catalog, &IoShim::disabled()).unwrap();
        assert_eq!(report.quarantined(), 1);
        let (_, outcome) = &report.entries[0];
        let ScrubOutcome::Quarantined { detail } = outcome else {
            panic!("expected quarantine, got {outcome:?}");
        };
        assert!(detail.contains("re-pack failed"), "{detail}");
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn orphan_temp_siblings_are_collected() {
        let dir = temp_dir("orphans");
        let catalog = Catalog::open(dir.join("cat")).unwrap();
        fs::write(catalog.dir().join(".a.gmg.tmp-12345"), b"torn").unwrap();
        fs::write(catalog.dir().join(".ingest-b.tmp-999"), b"stale").unwrap();
        let report = scrub_catalog(&catalog, &IoShim::disabled()).unwrap();
        assert_eq!(report.orphans_removed, 2);
        assert_eq!(report.scanned(), 0);
        assert_eq!(fs::read_dir(catalog.dir()).unwrap().count(), 0);
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn totally_unreadable_file_is_quarantined_not_crashed() {
        let dir = temp_dir("junk");
        let catalog = Catalog::open(dir.join("cat")).unwrap();
        let path = catalog.dir().join("junk.gmg");
        fs::write(&path, b"not a store at all").unwrap();
        let report = scrub_catalog(&catalog, &IoShim::disabled()).unwrap();
        assert_eq!(report.quarantined(), 1);
        assert!(!path.exists());
        assert!(path.with_file_name("junk.gmg.corrupt").exists());
        fs::remove_dir_all(&dir).ok();
    }
}
