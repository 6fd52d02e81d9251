//! Atomic store-file writer.
//!
//! Layout is computed up front (all section checksums are hashed before a
//! single byte hits disk, because the header's fingerprint covers them),
//! then the file is written to a hidden temp sibling, fsynced, and renamed
//! into place — the same crash-safety idiom the engine's checkpoints use.
//! A crash at any point leaves either the old file or no file, never a
//! torn one.

use crate::format::{
    align_up, pair_bytes, u32_bytes, u64_bytes, ElemType, Header, SectionEntry, StoreMeta,
    FLAG_COMPRESSED, FLAG_DIRECTED, FLAG_SORTED_ROWS, FORMAT_VERSION, FORMAT_VERSION_PADDED,
    HEADER_LEN, SEC_EDGE_LIST, SEC_IN_EDGES, SEC_IN_NBR_DATA, SEC_IN_NBR_OFFSETS, SEC_IN_NEIGHBORS,
    SEC_IN_OFFSETS, SEC_META, SEC_OUT_EDGES, SEC_OUT_NBR_DATA, SEC_OUT_NBR_OFFSETS,
    SEC_OUT_NEIGHBORS, SEC_OUT_OFFSETS, TOC_ENTRY_LEN,
};
use crate::StoreError;
use graphmine_engine::fault::FaultSite;
use graphmine_engine::IoShim;
use graphmine_graph::Representation;
use graphmine_graph::{Direction, Graph};
use std::borrow::Cow;
use std::fs::{self, File};
use std::io::{BufWriter, Write};
use std::path::Path;

/// One section staged for writing: a name, an element type, and its raw
/// bytes (borrowed where the in-memory layout already matches the wire
/// layout).
pub struct SectionData<'a> {
    /// Section name (≤ 32 bytes).
    pub name: String,
    /// Element type recorded in the TOC.
    pub elem: ElemType,
    /// Payload bytes.
    pub bytes: Cow<'a, [u8]>,
}

/// Write a complete store file atomically through `shim`. Returns the
/// content fingerprint recorded in the header. The disabled shim streams
/// sections straight to the temp sibling (no whole-file buffer); an armed
/// shim assembles the file in memory so byte-level faults (torn write, bit
/// flip, stale rename) can be applied to the exact on-disk image.
#[allow(clippy::too_many_arguments)]
pub fn write_store_with(
    path: &Path,
    directed: bool,
    sorted_rows: bool,
    compressed: bool,
    num_vertices: u64,
    num_edges: u64,
    workload_class: u32,
    sections: &[SectionData<'_>],
    shim: &IoShim,
) -> Result<u64, StoreError> {
    let mut flags = 0u32;
    if directed {
        flags |= FLAG_DIRECTED;
    }
    if sorted_rows {
        flags |= FLAG_SORTED_ROWS;
    }
    // Compressed payloads bump the format version (v3: word-padded varint
    // sections); plain files stay at version 1 so pre-compression readers
    // keep opening them.
    let version = if compressed {
        flags |= FLAG_COMPRESSED;
        FORMAT_VERSION_PADDED
    } else {
        FORMAT_VERSION
    };

    // Lay out sections and hash them before writing anything: the header
    // (which comes first in the file) commits to every section checksum.
    let toc_len = sections.len() * TOC_ENTRY_LEN;
    let mut cursor = (HEADER_LEN + toc_len) as u64;
    let mut entries = Vec::with_capacity(sections.len());
    for s in sections {
        let offset = align_up(cursor);
        entries.push(SectionEntry {
            name: s.name.clone(),
            elem: s.elem,
            offset,
            len_bytes: s.bytes.len() as u64,
            checksum: crate::xxh::xxh64(&s.bytes, 0),
        });
        cursor = offset + s.bytes.len() as u64;
    }
    let file_len = cursor;
    let fingerprint = crate::format::fingerprint(
        num_vertices,
        num_edges,
        flags,
        workload_class,
        entries.iter().map(|e| e.checksum),
    );
    let header = Header {
        version,
        flags,
        num_vertices,
        num_edges,
        section_count: sections.len() as u32,
        workload_class,
        file_len,
        fingerprint,
    };

    let file_name = path
        .file_name()
        .ok_or_else(|| {
            StoreError::Corrupt(format!("store path {} has no file name", path.display()))
        })?
        .to_string_lossy()
        .into_owned();
    let tmp = path.with_file_name(format!(".{file_name}.tmp-{}", std::process::id()));
    if shim.is_armed() {
        // Assemble the exact on-disk image so the shim can tear, flip, or
        // drop it at the byte level. Chaos runs only; the production path
        // below never buffers the whole file.
        let mut image = Vec::with_capacity(file_len as usize);
        image.extend_from_slice(&header.encode());
        for e in &entries {
            image.extend_from_slice(&e.encode()?);
        }
        for (e, s) in entries.iter().zip(sections) {
            image.resize(e.offset as usize, 0);
            image.extend_from_slice(&s.bytes);
        }
        shim.write_atomic(FaultSite::StoreWrite, None, path, &tmp, &image)?;
        return Ok(fingerprint);
    }
    let write_all = || -> Result<(), StoreError> {
        let mut w = BufWriter::new(File::create(&tmp)?);
        w.write_all(&header.encode())?;
        for e in &entries {
            w.write_all(&e.encode()?)?;
        }
        let mut pos = (HEADER_LEN + toc_len) as u64;
        let pad = [0u8; crate::format::ALIGN as usize];
        for (e, s) in entries.iter().zip(sections) {
            w.write_all(&pad[..(e.offset - pos) as usize])?;
            w.write_all(&s.bytes)?;
            pos = e.offset + e.len_bytes;
        }
        let f = w.into_inner().map_err(|e| StoreError::Io(e.into_error()))?;
        f.sync_all()?;
        Ok(())
    };
    if let Err(e) = write_all() {
        let _ = fs::remove_file(&tmp);
        return Err(e);
    }
    if let Err(e) = fs::rename(&tmp, path) {
        let _ = fs::remove_file(&tmp);
        return Err(StoreError::Io(e));
    }
    Ok(fingerprint)
}

/// Pack a graph plus metadata and data columns into a store file.
///
/// The topology sections are borrowed views of the graph's own CSR arrays
/// (no copies); `columns` carries the workload's data sections (named with
/// the `c:` prefix by convention). Returns the content fingerprint.
pub fn write_graph_store<'a>(
    path: &Path,
    graph: &'a Graph,
    meta: &StoreMeta,
    workload_class: u32,
    columns: Vec<SectionData<'a>>,
) -> Result<u64, StoreError> {
    write_graph_store_with(
        path,
        graph,
        meta,
        workload_class,
        columns,
        &IoShim::disabled(),
    )
}

/// [`write_graph_store`] with an explicit [`IoShim`] (see
/// [`write_store_with`]).
pub fn write_graph_store_with<'a>(
    path: &Path,
    graph: &'a Graph,
    meta: &StoreMeta,
    workload_class: u32,
    columns: Vec<SectionData<'a>>,
    shim: &IoShim,
) -> Result<u64, StoreError> {
    let mut sections = Vec::with_capacity(9 + columns.len());
    sections.push(SectionData {
        name: SEC_META.to_string(),
        elem: ElemType::Bytes,
        bytes: Cow::Owned(meta.to_json_bytes()),
    });
    sections.push(SectionData {
        name: SEC_EDGE_LIST.to_string(),
        elem: ElemType::PairU32,
        bytes: pair_bytes(graph.edge_list()),
    });
    let compressed = graph.representation() == Representation::Compressed;
    // Topology sections per direction: plain graphs write neighbor-slot
    // arrays, compressed graphs write per-row byte offsets plus the
    // delta-varint payload. The degree-prefix and edge-id sections are the
    // same in both layouts.
    let push_dir = |sections: &mut Vec<SectionData<'a>>, dir: Direction| {
        let (off_name, nbr_name, edge_name, boff_name, data_name) = match dir {
            Direction::Out => (
                SEC_OUT_OFFSETS,
                SEC_OUT_NEIGHBORS,
                SEC_OUT_EDGES,
                SEC_OUT_NBR_OFFSETS,
                SEC_OUT_NBR_DATA,
            ),
            Direction::In => (
                SEC_IN_OFFSETS,
                SEC_IN_NEIGHBORS,
                SEC_IN_EDGES,
                SEC_IN_NBR_OFFSETS,
                SEC_IN_NBR_DATA,
            ),
        };
        if compressed {
            let (offsets, byte_offsets, data, edges) = graph
                .compressed_slices(dir)
                .expect("compressed graph exposes compressed slices");
            sections.push(SectionData {
                name: off_name.to_string(),
                elem: ElemType::U64,
                bytes: Cow::Borrowed(u64_bytes(offsets)),
            });
            sections.push(SectionData {
                name: boff_name.to_string(),
                elem: ElemType::U64,
                bytes: Cow::Borrowed(u64_bytes(byte_offsets)),
            });
            // v3 files pad each varint payload to a word multiple with at
            // least one full guard word of zeroes so readers can batch-decode
            // every row. Graphs built in memory are already padded; graphs
            // adopted zero-copy from an unpadded v2 file are padded here.
            let logical = byte_offsets.last().copied().unwrap_or(0) as usize;
            let padded = graphmine_graph::varint::padded_payload_len(logical);
            sections.push(SectionData {
                name: data_name.to_string(),
                elem: ElemType::Bytes,
                bytes: if data.len() >= padded {
                    Cow::Borrowed(data)
                } else {
                    let mut owned = data.to_vec();
                    owned.resize(padded, 0);
                    Cow::Owned(owned)
                },
            });
            sections.push(SectionData {
                name: edge_name.to_string(),
                elem: ElemType::U32,
                bytes: Cow::Borrowed(u32_bytes(edges)),
            });
        } else {
            let (offsets, neighbors, edges) = graph.csr_slices(dir);
            sections.push(SectionData {
                name: off_name.to_string(),
                elem: ElemType::U64,
                bytes: Cow::Borrowed(u64_bytes(offsets)),
            });
            sections.push(SectionData {
                name: nbr_name.to_string(),
                elem: ElemType::U32,
                bytes: Cow::Borrowed(u32_bytes(neighbors)),
            });
            sections.push(SectionData {
                name: edge_name.to_string(),
                elem: ElemType::U32,
                bytes: Cow::Borrowed(u32_bytes(edges)),
            });
        }
    };
    push_dir(&mut sections, Direction::Out);
    if graph.is_directed() {
        push_dir(&mut sections, Direction::In);
    }
    sections.extend(columns);
    write_store_with(
        path,
        graph.is_directed(),
        graph.has_sorted_rows(),
        compressed,
        graph.num_vertices() as u64,
        graph.num_edges() as u64,
        workload_class,
        &sections,
        shim,
    )
}
