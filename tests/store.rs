//! Store round-trip fidelity: a packed-and-reloaded workload must be
//! indistinguishable from the original to every algorithm of the suite.
//!
//! The unit tests in `graphmine-store` prove the bytes round-trip; these
//! tests prove the *behavior* does — each of the 14 algorithms is run on
//! the in-memory workload and on its mmap-loaded twin, and the full
//! behavior traces (iterations, active counts, work, convergence) must be
//! bit-identical once wall-clock noise is stripped.

use graphmine_algos::{
    run_algorithm, run_algorithm_digest, AlgorithmKind, Domain, SuiteConfig, Workload,
};
use graphmine_graph::Representation;
use graphmine_store::{load_workload, pack_workload, StoreError, StoredGraph};
use std::fs::{self, OpenOptions};
use std::io::{Seek, SeekFrom, Write};
use std::path::PathBuf;

fn temp_dir(tag: &str) -> PathBuf {
    let mut p = std::env::temp_dir();
    p.push(format!("graphmine-store-it-{tag}-{}", std::process::id()));
    let _ = fs::remove_dir_all(&p);
    fs::create_dir_all(&p).unwrap();
    p
}

/// The workload each algorithm's domain expects, at probe scale.
fn workload_for(algorithm: AlgorithmKind, seed: u64) -> Workload {
    match algorithm.domain() {
        Domain::GraphAnalytics | Domain::Clustering => Workload::powerlaw(2_000, 2.5, seed),
        Domain::CollaborativeFiltering => Workload::ratings(2_000, 2.5, seed),
        Domain::LinearSolver => Workload::matrix(64, seed),
        Domain::GraphicalModel => {
            if algorithm == AlgorithmKind::Lbp {
                Workload::grid(16, seed)
            } else {
                Workload::mrf(1_000, seed)
            }
        }
    }
}

#[test]
fn all_fourteen_algorithms_trace_identically_after_round_trip() {
    let dir = temp_dir("traces");
    let config = SuiteConfig::default();
    for algorithm in AlgorithmKind::ALL {
        let seed = 7;
        let original = workload_for(algorithm, seed);
        let path = dir.join(format!("{}.gmg", algorithm.abbrev()));
        pack_workload(&path, &original, "test", seed).unwrap();
        let stored = StoredGraph::open(&path).unwrap();
        stored.verify().unwrap();
        let loaded = load_workload(&stored).unwrap();
        // Satellite guarantee: on mmap platforms the reloaded topology
        // lives in the file, not on the heap.
        if stored.is_mmap() {
            assert_eq!(
                loaded.graph().topology_heap_bytes(),
                0,
                "{}: mmap-backed load copied its topology",
                algorithm.abbrev()
            );
        }
        let reference = run_algorithm(algorithm, &original, &config).unwrap();
        let replayed = run_algorithm(algorithm, &loaded, &config).unwrap();
        assert_eq!(
            reference.without_wall_clock(),
            replayed.without_wall_clock(),
            "{}: stored-graph trace diverged from the in-memory run",
            algorithm.abbrev()
        );
    }
    fs::remove_dir_all(&dir).ok();
}

#[test]
fn reordered_round_trip_still_traces_identically() {
    // Degree-reordering after load is how the service applies `reorder` to
    // stored graphs; it must commute with the round trip.
    let dir = temp_dir("reorder");
    let original = Workload::powerlaw(2_000, 2.5, 11);
    let path = dir.join("pl.gmg");
    pack_workload(&path, &original, "test", 11).unwrap();
    let loaded = load_workload(&StoredGraph::open(&path).unwrap()).unwrap();
    let config = SuiteConfig::default();
    for algorithm in [AlgorithmKind::Pr, AlgorithmKind::Cc, AlgorithmKind::Sssp] {
        let a = run_algorithm(algorithm, &original.reordered_by_degree(), &config).unwrap();
        let b = run_algorithm(algorithm, &loaded.reordered_by_degree(), &config).unwrap();
        assert_eq!(
            a.without_wall_clock(),
            b.without_wall_clock(),
            "{}: reorder-after-load diverged",
            algorithm.abbrev()
        );
    }
    fs::remove_dir_all(&dir).ok();
}

#[test]
fn compressed_round_trip_is_bit_identical_for_all_fourteen_algorithms() {
    // Pack every suite workload with delta-varint compressed adjacency,
    // reopen it via mmap, and require the final result of every algorithm
    // to be **bit-identical** to the in-memory plain run — compression
    // plus the store round trip must be completely invisible.
    let dir = temp_dir("compressed");
    let config = SuiteConfig::default();
    for algorithm in AlgorithmKind::ALL {
        let seed = 7;
        let plain = workload_for(algorithm, seed);
        let compressed = plain
            .with_representation(Representation::Compressed)
            .unwrap();
        let path = dir.join(format!("{}.gmg", algorithm.abbrev()));
        pack_workload(&path, &compressed, "test", seed).unwrap();
        let stored = StoredGraph::open(&path).unwrap();
        stored.verify().unwrap();
        let loaded = load_workload(&stored).unwrap();
        assert_eq!(
            loaded.graph().representation(),
            Representation::Compressed,
            "{}: representation lost in round trip",
            algorithm.abbrev()
        );
        if stored.is_mmap() {
            assert_eq!(
                loaded.graph().topology_heap_bytes(),
                0,
                "{}: mmap-backed compressed load copied its topology",
                algorithm.abbrev()
            );
        }
        let (ref_digest, ref_trace) = run_algorithm_digest(algorithm, &plain, &config).unwrap();
        let (digest, trace) = run_algorithm_digest(algorithm, &loaded, &config).unwrap();
        assert_eq!(
            ref_digest,
            digest,
            "{}: compressed round trip changed the result bits",
            algorithm.abbrev()
        );
        assert_eq!(
            ref_trace.without_wall_clock(),
            trace.without_wall_clock(),
            "{}: compressed round trip changed the behavior trace",
            algorithm.abbrev()
        );
    }
    fs::remove_dir_all(&dir).ok();
}

#[test]
fn corrupted_compressed_section_fails_closed_with_typed_error() {
    // Flip one byte inside the varint payload: verify() must report the
    // exact section, and a full-checksum bypass (load without verify) must
    // still be caught by the CSR validation.
    let dir = temp_dir("compressed-corrupt");
    let workload = Workload::powerlaw(2_000, 2.5, 3)
        .with_representation(Representation::Compressed)
        .unwrap();
    let path = dir.join("pl.gmg");
    pack_workload(&path, &workload, "test", 3).unwrap();
    let stored = StoredGraph::open(&path).unwrap();
    let data_section = stored
        .sections()
        .iter()
        .find(|s| s.name == "out_nbr_data")
        .expect("compressed pack has an out_nbr_data section")
        .clone();
    drop(stored);
    let at = data_section.offset + data_section.len_bytes / 2;
    let flipped = fs::read(&path).unwrap()[at as usize] ^ 0x80;
    let mut f = OpenOptions::new().write(true).open(&path).unwrap();
    f.seek(SeekFrom::Start(at)).unwrap();
    f.write_all(&[flipped]).unwrap();
    drop(f);
    let stored = StoredGraph::open(&path).unwrap();
    match stored.verify() {
        Err(StoreError::CorruptSection { sections }) => {
            assert_eq!(sections, vec![data_section.name.clone()])
        }
        other => panic!("expected CorruptSection, got {other:?}"),
    }
    fs::remove_dir_all(&dir).ok();
}

#[test]
fn plain_packs_keep_format_version_one() {
    // Backward compatibility: plain packs must keep writing version 1 so
    // pre-compression readers still open them; only compressed packs bump
    // the version (and set the flag that makes old readers fail closed).
    // Compressed packs write version 3 (word-padded varint payloads).
    let dir = temp_dir("versions");
    let plain_path = dir.join("plain.gmg");
    let packed_path = dir.join("packed.gmg");
    let workload = Workload::powerlaw(1_000, 2.5, 5);
    pack_workload(&plain_path, &workload, "test", 5).unwrap();
    pack_workload(
        &packed_path,
        &workload
            .with_representation(Representation::Compressed)
            .unwrap(),
        "test",
        5,
    )
    .unwrap();
    let plain = StoredGraph::open(&plain_path).unwrap();
    let packed = StoredGraph::open(&packed_path).unwrap();
    assert_eq!(plain.header().version, 1);
    assert_eq!(packed.header().version, 3);
    assert!(
        packed.header().num_edges == plain.header().num_edges
            && packed.file_len() < plain.file_len(),
        "compressed file {} not smaller than plain {}",
        packed.file_len(),
        plain.file_len()
    );
    fs::remove_dir_all(&dir).ok();
}

#[test]
fn v3_padded_payloads_round_trip_bitwise() {
    // Version-3 stores pad every varint payload section to a word multiple
    // with at least one full zero guard word. The padding must be present
    // on disk, be all-zero, and survive the round trip bitwise: the mapped
    // compressed slices must equal the in-memory builder's byte for byte,
    // guard bytes included.
    use graphmine_graph::Direction;
    let dir = temp_dir("v3-bitwise");
    let workload = Workload::powerlaw(2_000, 2.5, 9)
        .with_representation(Representation::Compressed)
        .unwrap();
    let path = dir.join("pl.gmg");
    pack_workload(&path, &workload, "test", 9).unwrap();
    let stored = StoredGraph::open(&path).unwrap();
    assert_eq!(stored.header().version, 3);
    stored.verify().unwrap();
    for entry in stored
        .sections()
        .iter()
        .filter(|s| s.name.ends_with("nbr_data"))
    {
        let boff = stored
            .section(&entry.name.replace("nbr_data", "nbr_offsets"))
            .expect("varint payload has a matching byte-offsets section");
        let offsets = stored.section_payload(boff);
        let logical = u64::from_ne_bytes(offsets[offsets.len() - 8..].try_into().unwrap()) as usize;
        assert_eq!(
            entry.len_bytes % 8,
            0,
            "{}: padded section not a word multiple",
            entry.name
        );
        assert!(
            entry.len_bytes as usize >= logical + 8,
            "{}: padded length {} leaves no full guard word past logical {logical}",
            entry.name,
            entry.len_bytes
        );
        assert!(
            stored.section_payload(entry)[logical..]
                .iter()
                .all(|&b| b == 0),
            "{}: nonzero guard padding",
            entry.name
        );
    }
    let loaded = load_workload(&stored).unwrap();
    let dirs: &[Direction] = if loaded.graph().is_directed() {
        &[Direction::Out, Direction::In]
    } else {
        &[Direction::Out]
    };
    for &d in dirs {
        let a = workload.graph().compressed_slices(d).unwrap();
        let b = loaded.graph().compressed_slices(d).unwrap();
        assert_eq!(a.0, b.0, "row offsets diverged");
        assert_eq!(a.1, b.1, "byte offsets diverged");
        assert_eq!(a.2, b.2, "varint payload (incl. padding) diverged");
        assert_eq!(a.3, b.3, "edge ids diverged");
    }
    fs::remove_dir_all(&dir).ok();
}

#[test]
fn legacy_unpadded_v2_files_still_open_and_run_identically() {
    // Files written by the pre-padding (version 2) writer have varint
    // payloads that end exactly at their logical length. They must keep
    // opening, verifying, and producing bit-identical results — interior
    // rows batch-decode, the unguarded tail falls back to the scalar path.
    use graphmine_engine::IoShim;
    use graphmine_store::format::{FLAG_DIRECTED, FLAG_SORTED_ROWS, FORMAT_VERSION_COMPRESSED};
    use graphmine_store::writer::{write_store_with, SectionData};
    use std::borrow::Cow;

    let dir = temp_dir("legacy-v2");
    let plain = Workload::powerlaw(2_000, 2.5, 7);
    let compressed = plain
        .with_representation(Representation::Compressed)
        .unwrap();
    let v3_path = dir.join("v3.gmg");
    pack_workload(&v3_path, &compressed, "test", 7).unwrap();

    // Reconstruct the file exactly as the version-2 writer laid it out:
    // truncate each varint payload to its logical length, then patch the
    // header version back down (the fingerprint does not cover the
    // version, so only the header bytes change).
    let v2_path = dir.join("v2.gmg");
    {
        let stored = StoredGraph::open(&v3_path).unwrap();
        let mut sections = Vec::new();
        for entry in stored.sections() {
            let mut bytes = stored.section_payload(entry).to_vec();
            if entry.name.ends_with("nbr_data") {
                let boff = stored
                    .section(&entry.name.replace("nbr_data", "nbr_offsets"))
                    .unwrap();
                let offsets = stored.section_payload(boff);
                let logical = u64::from_ne_bytes(offsets[offsets.len() - 8..].try_into().unwrap());
                bytes.truncate(logical as usize);
            }
            sections.push(SectionData {
                name: entry.name.clone(),
                elem: entry.elem,
                bytes: Cow::Owned(bytes),
            });
        }
        let h = *stored.header();
        write_store_with(
            &v2_path,
            h.flags & FLAG_DIRECTED != 0,
            h.flags & FLAG_SORTED_ROWS != 0,
            true,
            h.num_vertices,
            h.num_edges,
            h.workload_class,
            &sections,
            &IoShim::disabled(),
        )
        .unwrap();
        let mut header = *StoredGraph::open(&v2_path).unwrap().header();
        header.version = FORMAT_VERSION_COMPRESSED;
        let mut f = OpenOptions::new().write(true).open(&v2_path).unwrap();
        f.seek(SeekFrom::Start(0)).unwrap();
        f.write_all(&header.encode()).unwrap();
    }

    let stored = StoredGraph::open(&v2_path).unwrap();
    assert_eq!(stored.header().version, 2);
    stored.verify().unwrap();
    let loaded = load_workload(&stored).unwrap();
    assert_eq!(loaded.graph().representation(), Representation::Compressed);
    let config = SuiteConfig::default();
    for algorithm in [AlgorithmKind::Pr, AlgorithmKind::Sssp, AlgorithmKind::Cc] {
        let (ref_digest, ref_trace) = run_algorithm_digest(algorithm, &plain, &config).unwrap();
        let (digest, trace) = run_algorithm_digest(algorithm, &loaded, &config).unwrap();
        assert_eq!(
            ref_digest,
            digest,
            "{}: legacy v2 file changed the result bits",
            algorithm.abbrev()
        );
        assert_eq!(
            ref_trace.without_wall_clock(),
            trace.without_wall_clock(),
            "{}: legacy v2 file changed the behavior trace",
            algorithm.abbrev()
        );
    }
    fs::remove_dir_all(&dir).ok();
}

#[test]
fn files_from_a_future_format_version_fail_closed() {
    // A stale reader meeting a file from the future must refuse with a
    // typed error, not misread padded sections as unpadded (or vice versa).
    let dir = temp_dir("future-version");
    let workload = Workload::powerlaw(1_000, 2.5, 13)
        .with_representation(Representation::Compressed)
        .unwrap();
    let path = dir.join("pl.gmg");
    pack_workload(&path, &workload, "test", 13).unwrap();
    let mut header = *StoredGraph::open(&path).unwrap().header();
    header.version = 4;
    let mut f = OpenOptions::new().write(true).open(&path).unwrap();
    f.seek(SeekFrom::Start(0)).unwrap();
    f.write_all(&header.encode()).unwrap();
    drop(f);
    match StoredGraph::open(&path) {
        Err(StoreError::UnsupportedVersion(4)) => {}
        other => panic!("expected UnsupportedVersion(4), got {other:?}"),
    }
    fs::remove_dir_all(&dir).ok();
}

#[test]
fn scrub_quarantines_corruption_inside_the_guard_padding() {
    // The per-section checksum covers the guard padding too: a flipped
    // byte inside the padding (which no decode would ever read) must still
    // fail verification and get the file quarantined by a scrub.
    use graphmine_engine::IoShim;
    use graphmine_store::{scrub_catalog, Catalog, ScrubOutcome};

    let dir = temp_dir("scrub-padding");
    let catalog = Catalog::open(dir.clone()).unwrap();
    let workload = Workload::powerlaw(1_000, 2.5, 17)
        .with_representation(Representation::Compressed)
        .unwrap();
    let path = catalog.dir().join("padded.gmg");
    pack_workload(&path, &workload, "synthetic:powerlaw", 17).unwrap();
    let entry = StoredGraph::open(&path)
        .unwrap()
        .sections()
        .iter()
        .find(|s| s.name == "out_nbr_data")
        .expect("compressed pack has an out_nbr_data section")
        .clone();
    // The section's final byte is always inside the zero guard word.
    let at = entry.offset + entry.len_bytes - 1;
    let mut f = OpenOptions::new().write(true).open(&path).unwrap();
    f.seek(SeekFrom::Start(at)).unwrap();
    f.write_all(&[0x5A]).unwrap();
    drop(f);
    let report = scrub_catalog(&catalog, &IoShim::disabled()).unwrap();
    assert_eq!(report.quarantined(), 1, "{:?}", report.entries);
    match &report.entries[0].1 {
        ScrubOutcome::Quarantined { detail } => {
            assert!(
                detail.contains("out_nbr_data"),
                "quarantine detail should name the damaged section: {detail}"
            );
        }
        other => panic!("expected Quarantined, got {other:?}"),
    }
    assert!(!path.exists());
    assert!(path.with_file_name("padded.gmg.corrupt").exists());
    fs::remove_dir_all(&dir).ok();
}

#[test]
fn corrupted_payload_is_caught_before_any_algorithm_runs() {
    let dir = temp_dir("corrupt");
    let workload = Workload::powerlaw(1_000, 2.5, 3);
    let path = dir.join("pl.gmg");
    pack_workload(&path, &workload, "test", 3).unwrap();
    // Flip one byte in the last data section (well past header and TOC).
    let stored = StoredGraph::open(&path).unwrap();
    let last = stored
        .sections()
        .iter()
        .max_by_key(|s| s.offset)
        .unwrap()
        .clone();
    drop(stored);
    let at = last.offset + last.len_bytes - 1;
    let flipped = !fs::read(&path).unwrap()[at as usize];
    let mut f = OpenOptions::new().write(true).open(&path).unwrap();
    f.seek(SeekFrom::Start(at)).unwrap();
    f.write_all(&[flipped]).unwrap();
    drop(f);
    let stored = StoredGraph::open(&path).unwrap();
    match stored.verify() {
        Err(StoreError::CorruptSection { sections }) => assert_eq!(sections, vec![last.name]),
        other => panic!("expected CorruptSection, got {other:?}"),
    }
    fs::remove_dir_all(&dir).ok();
}
