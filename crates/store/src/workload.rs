//! Packing and loading whole [`Workload`]s, and edge-list ingest finalize.
//!
//! A store file holds more than topology: each workload class carries data
//! columns (`c:`-prefixed sections) — edge weights and k-means point
//! coordinates for the power-law class, ratings for collaborative
//! filtering, the matrix entries for Jacobi, vertex-major label potentials
//! for the MRF classes. Every workload column is a
//! [`graphmine_graph::SharedSlice<f64>`] laid out exactly as its section,
//! so [`pack_workload`] writes each one straight from the workload and
//! [`load_workload`] maps each one, topology and columns alike, without
//! copying: a loaded workload owns no column bytes, and a stored-vs-
//! generated pair produces bit-identical run traces.

use crate::catalog::{Catalog, CatalogEntry};
use crate::format::{
    f64_bytes, ElemType, StoreMeta, FLAG_DIRECTED, FLAG_SORTED_ROWS, SEC_EDGE_LIST, SEC_META,
};
use crate::ingest::IngestSession;
use crate::reader::StoredGraph;
use crate::writer::{write_graph_store_with, SectionData};
use crate::StoreError;
use graphmine_algos::Workload;
use graphmine_engine::IoShim;
use graphmine_gen::{GridMrf, MatrixSystem, MrfGraph, RatingGraph};
use graphmine_graph::{parse_edge_list, Graph, GraphBuilder, SharedSlice};
use std::borrow::Cow;
use std::fs::{self, File};
use std::io::{BufRead, BufReader};
use std::path::Path;

/// Column holding per-edge weights (power-law class).
pub const COL_WEIGHTS: &str = "c:weights";
/// Column holding k-means point x coordinates (power-law class).
pub const COL_PX: &str = "c:px";
/// Column holding k-means point y coordinates (power-law class).
pub const COL_PY: &str = "c:py";
/// Column holding per-edge ratings (ratings class).
pub const COL_RATINGS: &str = "c:ratings";
/// Column holding off-diagonal matrix entries (matrix class).
pub const COL_OFF_DIAG: &str = "c:off_diag";
/// Column holding the matrix diagonal (matrix class).
pub const COL_DIAGONAL: &str = "c:diagonal";
/// Column holding the right-hand side vector (matrix class).
pub const COL_RHS: &str = "c:rhs";
/// Column holding flattened per-vertex priors (grid class).
pub const COL_PRIORS: &str = "c:priors";
/// Column holding flattened per-vertex unary potentials (MRF class).
pub const COL_UNARY: &str = "c:unary";
/// Column holding per-edge Potts bonuses (MRF class).
pub const COL_PAIRWISE: &str = "c:pairwise";

/// The class code recorded in the header (and folded into the
/// fingerprint) for a workload.
pub fn class_code(workload: &Workload) -> u32 {
    match workload {
        Workload::PowerLaw { .. } => 0,
        Workload::Ratings(_) => 1,
        Workload::Matrix(_) => 2,
        Workload::Grid(_) => 3,
        Workload::Mrf(_) => 4,
    }
}

/// Human-readable name for a class code (`"unknown"` for codes this build
/// does not know).
pub fn class_name(code: u32) -> &'static str {
    match code {
        0 => "powerlaw",
        1 => "ratings",
        2 => "matrix",
        3 => "grid",
        4 => "mrf",
        _ => "unknown",
    }
}

fn borrowed_col<'a>(name: &str, values: &'a [f64]) -> SectionData<'a> {
    SectionData {
        name: name.to_string(),
        elem: ElemType::F64,
        bytes: Cow::Borrowed(f64_bytes(values)),
    }
}

/// Pack a complete workload (topology, metadata, and every data column its
/// class needs) into a store file at `path`. Returns the content
/// fingerprint.
pub fn pack_workload(
    path: &Path,
    workload: &Workload,
    source: &str,
    seed: u64,
) -> Result<u64, StoreError> {
    pack_workload_with(path, workload, source, seed, &IoShim::disabled())
}

/// [`pack_workload`] with an explicit [`IoShim`] through which the file
/// hits disk (chaos testing and scrub re-packs).
pub fn pack_workload_with(
    path: &Path,
    workload: &Workload,
    source: &str,
    seed: u64,
    shim: &IoShim,
) -> Result<u64, StoreError> {
    let code = class_code(workload);
    let mut meta = StoreMeta {
        class: class_name(code).to_string(),
        num_users: 0,
        side: 0,
        num_labels: 0,
        smoothing: 0.0,
        source: source.to_string(),
        seed,
    };
    let columns: Vec<SectionData<'_>> = match workload {
        Workload::PowerLaw {
            weights, px, py, ..
        } => vec![
            borrowed_col(COL_WEIGHTS, weights),
            borrowed_col(COL_PX, px),
            borrowed_col(COL_PY, py),
        ],
        Workload::Ratings(rg) => {
            meta.num_users = rg.num_users;
            vec![borrowed_col(COL_RATINGS, &rg.ratings)]
        }
        Workload::Matrix(ms) => vec![
            borrowed_col(COL_OFF_DIAG, &ms.off_diagonal),
            borrowed_col(COL_DIAGONAL, &ms.diagonal),
            borrowed_col(COL_RHS, &ms.rhs),
        ],
        Workload::Grid(grid) => {
            meta.side = grid.side;
            meta.num_labels = grid.num_labels;
            meta.smoothing = grid.smoothing;
            vec![borrowed_col(COL_PRIORS, &grid.priors)]
        }
        Workload::Mrf(mrf) => {
            meta.num_labels = mrf.num_labels;
            vec![
                borrowed_col(COL_UNARY, &mrf.unary),
                borrowed_col(COL_PAIRWISE, &mrf.pairwise),
            ]
        }
    };
    write_graph_store_with(path, workload.graph(), &meta, code, columns, shim)
}

fn column_exact(
    stored: &StoredGraph,
    name: &str,
    expected: usize,
) -> Result<SharedSlice<f64>, StoreError> {
    let values = stored.column_f64(name)?;
    if values.len() != expected {
        return Err(StoreError::Corrupt(format!(
            "column `{name}` holds {} values, expected {expected}",
            values.len()
        )));
    }
    Ok(values)
}

/// Reconstruct the workload stored in `stored`. The topology and every
/// data column are loaded zero-copy: each is a
/// [`graphmine_graph::SharedSlice`] view into the file's mapping (a heap
/// copy only where the platform cannot map, or a section is misaligned),
/// and the workload keeps the mapping alive.
pub fn load_workload(stored: &StoredGraph) -> Result<Workload, StoreError> {
    let graph = stored.load_graph()?;
    workload_from_graph(stored, graph)
}

/// Rebuild the workload with *plain* CSR topology re-derived from the
/// canonical edge-list section, bypassing the compressed neighbor
/// sections entirely.
///
/// This is the self-healing path for a compressed (v2) store whose varint
/// payload fails to decode: the edge list is verified against its own
/// checksum first (so a damaged edge list cannot silently rebuild a wrong
/// graph), then the CSR indexes are reconstructed exactly as the original
/// plain pack would have built them — the stored edge list is already
/// canonical, so the rebuild is bit-identical to a plain load. Fails with
/// [`StoreError::CorruptSection`] when the damage extends beyond the
/// topology sections (edge list, meta, or a data column is corrupt).
pub fn rebuild_workload_plain(stored: &StoredGraph) -> Result<Workload, StoreError> {
    let essential: Vec<String> = stored
        .triage()
        .into_iter()
        .filter(|s| s == SEC_EDGE_LIST || s == SEC_META || s.starts_with("c:"))
        .collect();
    if !essential.is_empty() {
        return Err(StoreError::CorruptSection {
            sections: essential,
        });
    }
    let header = stored.header();
    let directed = header.flags & FLAG_DIRECTED != 0;
    let sorted_rows = header.flags & FLAG_SORTED_ROWS != 0;
    let entry = stored
        .section(SEC_EDGE_LIST)
        .ok_or_else(|| StoreError::Corrupt(format!("missing section `{SEC_EDGE_LIST}`")))?
        .clone();
    let bytes = stored.section_payload(&entry);
    let mut b = if directed {
        GraphBuilder::directed(header.num_vertices as usize)
    } else {
        GraphBuilder::undirected(header.num_vertices as usize)
    };
    if !sorted_rows {
        b = b.allow_parallel_edges();
    }
    b = b.with_edge_capacity(bytes.len() / 8);
    for pair in bytes.chunks_exact(8) {
        let src = u32::from_ne_bytes(pair[..4].try_into().expect("4 bytes"));
        let dst = u32::from_ne_bytes(pair[4..].try_into().expect("4 bytes"));
        if src == dst || src as u64 >= header.num_vertices || dst as u64 >= header.num_vertices {
            return Err(StoreError::Corrupt(format!(
                "edge ({src},{dst}) invalid for {} vertices",
                header.num_vertices
            )));
        }
        b.push_edge(src, dst);
    }
    let graph = b.build();
    if graph.num_edges() as u64 != header.num_edges {
        return Err(StoreError::Corrupt(format!(
            "rebuilt graph has {} edges, header says {}",
            graph.num_edges(),
            header.num_edges
        )));
    }
    workload_from_graph(stored, graph)
}

fn workload_from_graph(stored: &StoredGraph, graph: Graph) -> Result<Workload, StoreError> {
    let n = graph.num_vertices();
    let m = graph.num_edges();
    let meta = stored.meta();
    match meta.class.as_str() {
        "powerlaw" => Ok(Workload::PowerLaw {
            weights: column_exact(stored, COL_WEIGHTS, m)?,
            px: column_exact(stored, COL_PX, n)?,
            py: column_exact(stored, COL_PY, n)?,
            graph,
        }),
        "ratings" => {
            if meta.num_users > n {
                return Err(StoreError::Corrupt(format!(
                    "num_users {} exceeds vertex count {n}",
                    meta.num_users
                )));
            }
            Ok(Workload::Ratings(RatingGraph {
                ratings: column_exact(stored, COL_RATINGS, m)?,
                num_users: meta.num_users,
                graph,
            }))
        }
        "matrix" => Ok(Workload::Matrix(MatrixSystem {
            off_diagonal: column_exact(stored, COL_OFF_DIAG, m)?,
            diagonal: column_exact(stored, COL_DIAGONAL, n)?,
            rhs: column_exact(stored, COL_RHS, n)?,
            graph,
        })),
        "grid" => {
            let labels = meta.num_labels;
            if labels == 0 || meta.side * meta.side != n {
                return Err(StoreError::Corrupt(format!(
                    "grid meta inconsistent: side {} labels {labels} for {n} vertices",
                    meta.side
                )));
            }
            Ok(Workload::Grid(GridMrf {
                side: meta.side,
                num_labels: labels,
                priors: column_exact(stored, COL_PRIORS, n * labels)?,
                smoothing: meta.smoothing,
                graph,
            }))
        }
        "mrf" => {
            let labels = meta.num_labels;
            if labels == 0 {
                return Err(StoreError::Corrupt("mrf meta has zero labels".to_string()));
            }
            Ok(Workload::Mrf(MrfGraph {
                unary: column_exact(stored, COL_UNARY, n * labels)?,
                pairwise: column_exact(stored, COL_PAIRWISE, m)?,
                num_labels: labels,
                graph,
            }))
        }
        other => Err(StoreError::Corrupt(format!(
            "unknown workload class `{other}`"
        ))),
    }
}

/// Scan an edge-list file for `max endpoint + 1`, used when an ingest (or
/// a CLI pack) declares `num_vertices == 0` (infer). Malformed lines are
/// left for [`parse_edge_list`] to diagnose with line numbers.
pub fn infer_vertex_count(path: &Path) -> Result<usize, StoreError> {
    let mut max_id = 0u64;
    let mut any = false;
    for line in BufReader::new(File::open(path)?).lines() {
        let line = line?;
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') || line.starts_with('%') {
            continue;
        }
        for tok in line.split_whitespace().take(2) {
            if let Ok(v) = tok.parse::<u64>() {
                max_id = max_id.max(v);
                any = true;
            }
        }
    }
    Ok(if any { max_id as usize + 1 } else { 0 })
}

/// Finalize a completed ingest session: parse the accumulated edge list,
/// synthesize the derived power-law columns, pack, fully verify, and
/// atomically install into the catalog. The session directory is removed
/// on success and kept (still resumable) on failure.
pub fn finalize_ingest(
    catalog: &Catalog,
    session: IngestSession,
) -> Result<CatalogEntry, StoreError> {
    finalize_ingest_with(catalog, session, &IoShim::disabled())
}

/// [`finalize_ingest`] with an explicit [`IoShim`] through which the
/// packed store hits disk.
pub fn finalize_ingest_with(
    catalog: &Catalog,
    session: IngestSession,
    shim: &IoShim,
) -> Result<CatalogEntry, StoreError> {
    let config = session.config().clone();
    let data = session.data_path();
    let num_vertices = if config.num_vertices == 0 {
        infer_vertex_count(&data)?
    } else {
        config.num_vertices
    };
    let (graph, weights) = parse_edge_list(
        BufReader::new(File::open(&data)?),
        num_vertices,
        config.directed,
    )
    .map_err(|e| StoreError::Corrupt(format!("edge list: {e}")))?;
    let workload = Workload::weighted(graph, weights, config.seed);
    // Pack into a temp sibling inside the catalog dir, deep-verify, then
    // install via rename: the catalog never exposes an unverified file.
    let staging = catalog.dir().join(format!(
        ".ingest-{}.tmp-{}",
        config.name,
        std::process::id()
    ));
    let result = (|| {
        pack_workload_with(&staging, &workload, "ingest:edgelist", config.seed, shim)?;
        StoredGraph::open(&staging)?.verify()?;
        catalog.install(&config.name, &staging)
    })();
    if result.is_err() {
        let _ = fs::remove_file(&staging);
        return result;
    }
    session.discard()?;
    result
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ingest::IngestConfig;
    use std::path::PathBuf;

    fn temp_dir(tag: &str) -> PathBuf {
        let mut p = std::env::temp_dir();
        p.push(format!("graphmine-workload-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&p);
        fs::create_dir_all(&p).unwrap();
        p
    }

    fn pack_and_load(tag: &str, workload: &Workload) -> Workload {
        let dir = temp_dir(tag);
        let path = dir.join("w.gmg");
        pack_workload(&path, workload, "test", 7).unwrap();
        let stored = StoredGraph::open(&path).unwrap();
        stored.verify().unwrap();
        let loaded = load_workload(&stored).unwrap();
        fs::remove_dir_all(&dir).ok();
        loaded
    }

    #[test]
    fn powerlaw_round_trips() {
        let w = Workload::powerlaw(200, 2.0, 11);
        let loaded = pack_and_load("pl", &w);
        let (
            Workload::PowerLaw {
                graph: ga,
                weights: wa,
                px: xa,
                py: ya,
            },
            Workload::PowerLaw {
                graph: gb,
                weights: wb,
                px: xb,
                py: yb,
            },
        ) = (&w, &loaded)
        else {
            panic!("class changed in round trip");
        };
        assert_eq!(ga.edge_list(), gb.edge_list());
        assert_eq!(ga.num_vertices(), gb.num_vertices());
        assert_eq!(wa, wb);
        assert_eq!((xa, ya), (xb, yb));
        assert!(gb.validate().is_ok());
    }

    #[test]
    fn every_class_round_trips() {
        let cases = [
            ("rt-ratings", Workload::ratings(150, 2.0, 3)),
            ("rt-matrix", Workload::matrix(40, 3)),
            ("rt-grid", Workload::grid(6, 3)),
            ("rt-mrf", Workload::mrf(60, 3)),
        ];
        for (tag, w) in cases {
            let loaded = pack_and_load(tag, &w);
            assert_eq!(class_code(&loaded), class_code(&w), "{tag}");
            assert_eq!(loaded.graph().edge_list(), w.graph().edge_list(), "{tag}");
            match (&w, &loaded) {
                (Workload::Ratings(a), Workload::Ratings(b)) => {
                    assert_eq!(a.ratings, b.ratings);
                    assert_eq!(a.num_users, b.num_users);
                }
                (Workload::Matrix(a), Workload::Matrix(b)) => {
                    assert_eq!(a.off_diagonal, b.off_diagonal);
                    assert_eq!(a.diagonal, b.diagonal);
                    assert_eq!(a.rhs, b.rhs);
                }
                (Workload::Grid(a), Workload::Grid(b)) => {
                    assert_eq!(a.priors, b.priors);
                    assert_eq!((a.side, a.num_labels), (b.side, b.num_labels));
                    assert_eq!(a.smoothing, b.smoothing);
                }
                (Workload::Mrf(a), Workload::Mrf(b)) => {
                    assert_eq!(a.unary, b.unary);
                    assert_eq!(a.pairwise, b.pairwise);
                    assert_eq!(a.num_labels, b.num_labels);
                }
                _ => unreachable!(),
            }
        }
    }

    #[test]
    fn loaded_topology_is_mmap_backed() {
        let dir = temp_dir("mmap");
        let path = dir.join("w.gmg");
        let w = Workload::powerlaw(100, 2.0, 5);
        pack_workload(&path, &w, "test", 5).unwrap();
        let stored = StoredGraph::open(&path).unwrap();
        let loaded = load_workload(&stored).unwrap();
        if stored.is_mmap() {
            assert!(loaded.graph().is_mapped());
        }
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn finalize_ingest_installs_verified_graph() {
        let dir = temp_dir("finalize");
        let catalog = Catalog::open(dir.join("catalog")).unwrap();
        let sessions = dir.join("sessions");
        let mut s = IngestSession::begin(
            &sessions,
            IngestConfig {
                name: "tiny".to_string(),
                directed: false,
                num_vertices: 0,
                seed: 9,
            },
        )
        .unwrap();
        s.append_chunk(0, b"# tiny test graph\n0 1\n1 2\n").unwrap();
        s.append_chunk(1, b"2 3 0.5\n0 3\n").unwrap();
        let entry = finalize_ingest(&catalog, s).unwrap();
        assert_eq!(entry.name, "tiny");
        assert_eq!(entry.num_vertices, 4);
        assert_eq!(entry.num_edges, 4);
        assert!(!sessions.join("tiny").exists());
        let stored = catalog.get("tiny").unwrap();
        let Workload::PowerLaw { weights, .. } = load_workload(&stored).unwrap() else {
            panic!("ingest should produce a powerlaw workload");
        };
        assert!(weights.contains(&0.5));
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn rebuild_plain_recovers_from_corrupt_compressed_payload() {
        use graphmine_graph::{Direction, Representation};
        let dir = temp_dir("rebuild");
        let path = dir.join("w.gmg");
        let reference = Workload::powerlaw(300, 2.0, 11);
        let compressed = Workload::powerlaw(300, 2.0, 11)
            .with_representation(Representation::Compressed)
            .unwrap();
        pack_workload(&path, &compressed, "test", 11).unwrap();
        let stored = StoredGraph::open(&path).unwrap();
        let sec = stored
            .sections()
            .iter()
            .find(|s| s.name == "out_nbr_data")
            .expect("compressed pack has varint payload")
            .clone();
        drop(stored);
        let mut bytes = fs::read(&path).unwrap();
        bytes[(sec.offset + sec.len_bytes / 2) as usize] ^= 0xFF;
        fs::write(&path, &bytes).unwrap();
        let stored = StoredGraph::open(&path).unwrap();
        assert!(stored.verify().is_err());
        // The fallback rebuilds the exact plain CSR from the edge list.
        let rebuilt = rebuild_workload_plain(&stored).unwrap();
        assert_eq!(rebuilt.graph().edge_list(), reference.graph().edge_list());
        let (ro, rn, re) = rebuilt.graph().csr_slices(Direction::Out);
        let (eo, en, ee) = reference.graph().csr_slices(Direction::Out);
        assert_eq!(ro, eo);
        assert_eq!(rn, en);
        assert_eq!(re, ee);
        let (Workload::PowerLaw { weights: wa, .. }, Workload::PowerLaw { weights: wb, .. }) =
            (&reference, &rebuilt)
        else {
            panic!("class changed in rebuild");
        };
        assert_eq!(wa, wb);
        // Damage reaching the edge list itself is not recoverable.
        let edge_sec = stored
            .sections()
            .iter()
            .find(|s| s.name == SEC_EDGE_LIST)
            .unwrap()
            .clone();
        drop(stored);
        let mut bytes = fs::read(&path).unwrap();
        bytes[(edge_sec.offset + 1) as usize] ^= 0x01;
        fs::write(&path, &bytes).unwrap();
        let stored = StoredGraph::open(&path).unwrap();
        match rebuild_workload_plain(&stored) {
            Err(StoreError::CorruptSection { sections }) => {
                assert!(sections.contains(&SEC_EDGE_LIST.to_string()))
            }
            other => panic!("expected CorruptSection, got {other:?}"),
        }
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn finalize_rejects_malformed_edges_and_keeps_session() {
        let dir = temp_dir("badfinalize");
        let catalog = Catalog::open(dir.join("catalog")).unwrap();
        let sessions = dir.join("sessions");
        let mut s = IngestSession::begin(
            &sessions,
            IngestConfig {
                name: "bad".to_string(),
                directed: false,
                num_vertices: 0,
                seed: 1,
            },
        )
        .unwrap();
        s.append_chunk(0, b"0 1\nnot an edge\n").unwrap();
        assert!(matches!(
            finalize_ingest(&catalog, s),
            Err(StoreError::Corrupt(_))
        ));
        // The session survives a failed finalize so the client can fix and
        // retry (here: resume still works).
        assert!(IngestSession::resume(&sessions, "bad").is_ok());
        assert!(!catalog.contains("bad"));
        fs::remove_dir_all(&dir).ok();
    }
}
