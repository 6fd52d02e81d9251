//! Memory-mapped store reader exposing zero-copy [`Graph`] views.
//!
//! [`StoredGraph::open`] maps the file and validates everything that can
//! be checked in O(1) page touches: the header (magic, version,
//! endianness, header checksum), every TOC entry's bounds and alignment,
//! the meta section, and the content fingerprint recomputed from the TOC.
//! The data sections themselves are *not* hashed on open — that would page
//! in the whole file and defeat millisecond cold-opens — but every byte of
//! them is covered by per-section checksums that [`StoredGraph::verify`]
//! checks (ingest and the `graphmine graph verify` CLI run it before a
//! file is ever served).
//!
//! [`StoredGraph::load_graph`] hands the mapped CSR arrays to
//! [`Graph::from_parts`] as [`SharedSlice`] views keyed to the mapping's
//! lifetime: no neighbor-array copy, no allocation proportional to graph
//! size.

use crate::format::{
    pair_layout_matches, ElemType, Header, SectionEntry, StoreMeta, FLAG_COMPRESSED, FLAG_DIRECTED,
    FLAG_SORTED_ROWS, HEADER_LEN, SEC_EDGE_LIST, SEC_IN_EDGES, SEC_IN_NBR_DATA, SEC_IN_NBR_OFFSETS,
    SEC_IN_NEIGHBORS, SEC_IN_OFFSETS, SEC_META, SEC_OUT_EDGES, SEC_OUT_NBR_DATA,
    SEC_OUT_NBR_OFFSETS, SEC_OUT_NEIGHBORS, SEC_OUT_OFFSETS, TOC_ENTRY_LEN,
};
use crate::mmap::Mapping;
use crate::xxh::xxh64;
use crate::StoreError;
use graphmine_graph::{Graph, GraphParts, NeighborsPart, SharedSlice, SliceKeeper};
use std::fs::File;
use std::path::{Path, PathBuf};
use std::sync::Arc;

/// An open, validated, memory-mapped store file.
pub struct StoredGraph {
    path: PathBuf,
    mapping: Arc<Mapping>,
    header: Header,
    sections: Vec<SectionEntry>,
    meta: StoreMeta,
}

impl StoredGraph {
    /// Map `path` and validate header, TOC, meta, and fingerprint (O(1)
    /// page touches; see the module docs for what is deferred to
    /// [`StoredGraph::verify`]).
    pub fn open(path: impl AsRef<Path>) -> Result<StoredGraph, StoreError> {
        let path = path.as_ref().to_path_buf();
        let mut file = File::open(&path).map_err(|e| {
            if e.kind() == std::io::ErrorKind::NotFound {
                StoreError::NotFound(path.display().to_string())
            } else {
                StoreError::Io(e)
            }
        })?;
        let mapping = Arc::new(Mapping::map_file(&mut file)?);
        drop(file);
        let bytes = mapping.bytes();
        let header = Header::decode(bytes)?;
        if header.file_len != bytes.len() as u64 {
            return Err(StoreError::Truncated {
                needed: header.file_len,
                actual: bytes.len() as u64,
            });
        }
        let toc_end = HEADER_LEN as u64 + header.section_count as u64 * TOC_ENTRY_LEN as u64;
        if (bytes.len() as u64) < toc_end {
            return Err(StoreError::Truncated {
                needed: toc_end,
                actual: bytes.len() as u64,
            });
        }
        let mut sections = Vec::with_capacity(header.section_count as usize);
        for i in 0..header.section_count as usize {
            let at = HEADER_LEN + i * TOC_ENTRY_LEN;
            let entry = SectionEntry::decode(&bytes[at..at + TOC_ENTRY_LEN])?;
            let end = entry.offset.checked_add(entry.len_bytes).ok_or_else(|| {
                StoreError::Corrupt(format!("section `{}` length overflows", entry.name))
            })?;
            if entry.offset < toc_end || end > header.file_len {
                return Err(StoreError::Corrupt(format!(
                    "section `{}` spans {}..{end}, outside data region {toc_end}..{}",
                    entry.name, entry.offset, header.file_len
                )));
            }
            if entry.offset % crate::format::ALIGN != 0 {
                return Err(StoreError::Corrupt(format!(
                    "section `{}` offset {} not {}-byte aligned",
                    entry.name,
                    entry.offset,
                    crate::format::ALIGN
                )));
            }
            if entry.len_bytes % entry.elem.width() != 0 {
                return Err(StoreError::Corrupt(format!(
                    "section `{}` length {} not a multiple of element width {}",
                    entry.name,
                    entry.len_bytes,
                    entry.elem.width()
                )));
            }
            sections.push(entry);
        }
        let expected = crate::format::fingerprint(
            header.num_vertices,
            header.num_edges,
            header.flags,
            header.workload_class,
            sections.iter().map(|e| e.checksum),
        );
        if expected != header.fingerprint {
            return Err(StoreError::Corrupt(format!(
                "fingerprint mismatch: header says {:#018x}, TOC implies {expected:#018x}",
                header.fingerprint
            )));
        }
        let meta_entry = sections
            .iter()
            .find(|e| e.name == SEC_META)
            .cloned()
            .ok_or_else(|| StoreError::Corrupt("missing meta section".to_string()))?;
        let meta = StoreMeta::from_json_bytes(section_bytes(&mapping, &meta_entry))?;
        Ok(StoredGraph {
            path,
            mapping,
            header,
            sections,
            meta,
        })
    }

    /// The parsed header.
    pub fn header(&self) -> &Header {
        &self.header
    }

    /// The parsed workload metadata.
    pub fn meta(&self) -> &StoreMeta {
        &self.meta
    }

    /// The TOC.
    pub fn sections(&self) -> &[SectionEntry] {
        &self.sections
    }

    /// The file this store was opened from.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Content fingerprint from the header (validated against the TOC on
    /// open).
    pub fn fingerprint(&self) -> u64 {
        self.header.fingerprint
    }

    /// Total file length in bytes.
    pub fn file_len(&self) -> u64 {
        self.header.file_len
    }

    /// Whether the file is backed by a real kernel mapping (zero heap
    /// copies) rather than the portable read fallback.
    pub fn is_mmap(&self) -> bool {
        self.mapping.is_mmap()
    }

    /// Look up a section by name.
    pub fn section(&self, name: &str) -> Option<&SectionEntry> {
        self.sections.iter().find(|e| e.name == name)
    }

    /// Raw payload bytes of a section.
    pub fn section_payload(&self, entry: &SectionEntry) -> &[u8] {
        section_bytes(&self.mapping, entry)
    }

    /// Hash every section and compare against its recorded checksum, then
    /// load the graph and run its deep structural validation. This is the
    /// thorough pass: it touches every page. Checksum failures are
    /// aggregated across all sections into one
    /// [`StoreError::CorruptSection`] so a scrub can report the full damage
    /// in a single verify.
    pub fn verify(&self) -> Result<(), StoreError> {
        let corrupt = self.triage();
        if !corrupt.is_empty() {
            return Err(StoreError::CorruptSection { sections: corrupt });
        }
        let graph = self.load_graph()?;
        graph.validate().map_err(StoreError::Corrupt)
    }

    /// Hash every section against its recorded checksum and return the
    /// names of those that fail (empty = all payload bytes intact). Unlike
    /// [`StoredGraph::verify`] this never errors and checks *all* sections,
    /// which is what a scrub wants for its damage report.
    pub fn triage(&self) -> Vec<String> {
        self.sections
            .iter()
            .filter(|entry| xxh64(self.section_payload(entry), 0) != entry.checksum)
            .map(|entry| entry.name.clone())
            .collect()
    }

    /// Verify only the named section's checksum. Used by recovery paths
    /// that need one trusted section (e.g. the canonical edge list) out of
    /// an otherwise damaged file.
    pub fn verify_section(&self, name: &str) -> Result<(), StoreError> {
        let entry = self.required(name)?;
        let actual = xxh64(self.section_payload(entry), 0);
        if actual != entry.checksum {
            return Err(StoreError::CorruptSection {
                sections: vec![entry.name.clone()],
            });
        }
        Ok(())
    }

    /// Build a zero-copy [`Graph`] view over the mapped CSR sections. The
    /// returned graph (and any clone of it) keeps the mapping alive.
    pub fn load_graph(&self) -> Result<Graph, StoreError> {
        let directed = self.header.flags & FLAG_DIRECTED != 0;
        let sorted_rows = self.header.flags & FLAG_SORTED_ROWS != 0;
        let edge_list = self.edge_pairs()?;
        if edge_list.len() as u64 != self.header.num_edges {
            return Err(StoreError::Corrupt(format!(
                "edge list has {} pairs, header says {}",
                edge_list.len(),
                self.header.num_edges
            )));
        }
        let compressed = self.header.flags & FLAG_COMPRESSED != 0;
        // Compressed stores map the per-row byte offsets plus the varint
        // payload; plain stores map the neighbor-slot array. Both are
        // zero-copy views into the file.
        let neighbors_part =
            |nbr: &str, boff: &str, data: &str| -> Result<NeighborsPart, StoreError> {
                if compressed {
                    Ok(NeighborsPart::Compressed {
                        byte_offsets: self.typed_slice::<u64>(self.required(boff)?)?,
                        data: self.typed_slice::<u8>(self.required(data)?)?,
                    })
                } else {
                    Ok(NeighborsPart::Plain(
                        self.typed_slice::<u32>(self.required(nbr)?)?,
                    ))
                }
            };
        let (in_offsets, in_neighbors, in_edges) = if directed {
            (
                Some(self.typed_slice::<u64>(self.required(SEC_IN_OFFSETS)?)?),
                Some(neighbors_part(
                    SEC_IN_NEIGHBORS,
                    SEC_IN_NBR_OFFSETS,
                    SEC_IN_NBR_DATA,
                )?),
                Some(self.typed_slice::<u32>(self.required(SEC_IN_EDGES)?)?),
            )
        } else {
            (None, None, None)
        };
        let parts = GraphParts {
            directed,
            num_vertices: self.header.num_vertices as usize,
            edge_list,
            out_offsets: self.typed_slice::<u64>(self.required(SEC_OUT_OFFSETS)?)?,
            out_neighbors: neighbors_part(
                SEC_OUT_NEIGHBORS,
                SEC_OUT_NBR_OFFSETS,
                SEC_OUT_NBR_DATA,
            )?,
            out_edges: self.typed_slice::<u32>(self.required(SEC_OUT_EDGES)?)?,
            in_offsets,
            in_neighbors,
            in_edges,
            sorted_rows,
        };
        Graph::from_parts(parts).map_err(StoreError::Corrupt)
    }

    /// An `f64` data column as a zero-copy [`SharedSlice`] view into the
    /// mapping, like the CSR arrays [`StoredGraph::load_graph`] returns.
    pub fn column_f64(&self, name: &str) -> Result<SharedSlice<f64>, StoreError> {
        let entry = self.required(name)?;
        if entry.elem != ElemType::F64 {
            return Err(StoreError::Corrupt(format!(
                "section `{name}` is not an f64 column"
            )));
        }
        self.typed_slice::<f64>(entry)
    }

    fn required(&self, name: &str) -> Result<&SectionEntry, StoreError> {
        self.section(name)
            .ok_or_else(|| StoreError::Corrupt(format!("missing section `{name}`")))
    }

    /// Expose a section as a typed [`SharedSlice`] view into the mapping.
    /// Falls back to an element-wise copy if the mapped bytes are not
    /// sufficiently aligned for `T` (cannot happen with this crate's
    /// writer, which 64-byte-aligns sections, but tolerated defensively).
    fn typed_slice<T: Copy + Send + Sync + 'static>(
        &self,
        entry: &SectionEntry,
    ) -> Result<SharedSlice<T>, StoreError> {
        let bytes = self.section_payload(entry);
        let width = std::mem::size_of::<T>();
        if width == 0 || !bytes.len().is_multiple_of(width) {
            return Err(StoreError::Corrupt(format!(
                "section `{}` length {} not a multiple of {width}",
                entry.name,
                bytes.len()
            )));
        }
        let len = bytes.len() / width;
        let ptr = bytes.as_ptr() as *const T;
        if (ptr as usize).is_multiple_of(std::mem::align_of::<T>()) {
            let keep: SliceKeeper = self.mapping.clone();
            // SAFETY: `ptr..ptr+len` lies inside the mapping, which `keep`
            // holds alive; the region is immutable; `T` is plain old data
            // (u32/u64/f64/(u32,u32)) valid for any bit pattern.
            Ok(unsafe { SharedSlice::from_raw(ptr, len, keep) })
        } else {
            let mut v: Vec<T> = Vec::with_capacity(len);
            for i in 0..len {
                // SAFETY: in-bounds unaligned read of plain-old-data.
                v.push(unsafe { std::ptr::read_unaligned(ptr.add(i)) });
            }
            Ok(SharedSlice::from_vec(v))
        }
    }

    /// The edge list as `(u32, u32)` pairs — zero-copy when the tuple
    /// layout matches the wire layout, copied otherwise.
    fn edge_pairs(&self) -> Result<SharedSlice<(u32, u32)>, StoreError> {
        let entry = self.required(SEC_EDGE_LIST)?;
        if pair_layout_matches() {
            return self.typed_slice::<(u32, u32)>(entry);
        }
        let raw = self.typed_slice::<u32>(entry)?;
        let mut pairs = Vec::with_capacity(raw.len() / 2);
        for chunk in raw.chunks_exact(2) {
            pairs.push((chunk[0], chunk[1]));
        }
        Ok(SharedSlice::from_vec(pairs))
    }
}

impl std::fmt::Debug for StoredGraph {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("StoredGraph")
            .field("path", &self.path)
            .field("num_vertices", &self.header.num_vertices)
            .field("num_edges", &self.header.num_edges)
            .field("class", &self.meta.class)
            .field("fingerprint", &self.header.fingerprint)
            .finish()
    }
}

fn section_bytes<'a>(mapping: &'a Mapping, entry: &SectionEntry) -> &'a [u8] {
    &mapping.bytes()[entry.offset as usize..(entry.offset + entry.len_bytes) as usize]
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::format::f64_bytes;
    use crate::writer::{write_graph_store, SectionData};
    use graphmine_graph::{Direction, GraphBuilder};
    use std::borrow::Cow;
    use std::fs::{self, OpenOptions};
    use std::io::{Seek, SeekFrom, Write};
    use std::path::PathBuf;

    fn temp_dir(tag: &str) -> PathBuf {
        let mut p = std::env::temp_dir();
        p.push(format!("graphmine-reader-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&p);
        fs::create_dir_all(&p).unwrap();
        p
    }

    fn sample_graph(directed: bool) -> Graph {
        let mut b = if directed {
            GraphBuilder::directed(6)
        } else {
            GraphBuilder::undirected(6)
        };
        b.extend_edges([(0, 1), (0, 2), (1, 3), (2, 3), (3, 4), (4, 5), (0, 5)]);
        b.build()
    }

    fn pack_sample(dir: &std::path::Path, directed: bool) -> (PathBuf, Graph) {
        let graph = sample_graph(directed);
        let path = dir.join("g.gmg");
        let weights = vec![0.5f64; graph.num_edges()];
        let meta = StoreMeta {
            class: "powerlaw".to_string(),
            num_users: 0,
            side: 0,
            num_labels: 0,
            smoothing: 0.0,
            source: "test".to_string(),
            seed: 1,
        };
        write_graph_store(
            &path,
            &graph,
            &meta,
            0,
            vec![SectionData {
                name: "c:weights".to_string(),
                elem: ElemType::F64,
                bytes: Cow::Owned(f64_bytes(&weights).to_vec()),
            }],
        )
        .unwrap();
        (path, graph)
    }

    fn assert_same_topology(a: &Graph, b: &Graph) {
        assert_eq!(a.num_vertices(), b.num_vertices());
        assert_eq!(a.num_edges(), b.num_edges());
        assert_eq!(a.edge_list(), b.edge_list());
        for dir in [Direction::Out, Direction::In] {
            let (ao, an, ae) = a.csr_slices(dir);
            let (bo, bn, be) = b.csr_slices(dir);
            assert_eq!(ao, bo);
            assert_eq!(an, bn);
            assert_eq!(ae, be);
        }
    }

    #[test]
    fn round_trips_undirected_and_directed() {
        for directed in [false, true] {
            let dir = temp_dir(if directed { "rt-d" } else { "rt-u" });
            let (path, graph) = pack_sample(&dir, directed);
            let stored = StoredGraph::open(&path).unwrap();
            stored.verify().unwrap();
            assert_eq!(stored.header().num_vertices, 6);
            assert_eq!(stored.meta().class, "powerlaw");
            let loaded = stored.load_graph().unwrap();
            assert_eq!(loaded.is_directed(), directed);
            assert_eq!(loaded.has_sorted_rows(), graph.has_sorted_rows());
            assert_same_topology(&graph, &loaded);
            assert_eq!(
                stored.column_f64("c:weights").unwrap().len(),
                graph.num_edges()
            );
            // The view must stay valid after the StoredGraph is dropped:
            // the mapping is kept alive by the slices themselves.
            drop(stored);
            assert_eq!(loaded.edge_list(), graph.edge_list());
            fs::remove_dir_all(&dir).ok();
        }
    }

    #[test]
    fn zero_copy_on_mmap_platforms() {
        let dir = temp_dir("zc");
        let (path, _) = pack_sample(&dir, false);
        let stored = StoredGraph::open(&path).unwrap();
        let loaded = stored.load_graph().unwrap();
        if stored.is_mmap() {
            assert!(loaded.is_mapped());
            assert_eq!(loaded.topology_heap_bytes(), 0);
        }
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn truncation_is_a_typed_error() {
        let dir = temp_dir("trunc");
        let (path, _) = pack_sample(&dir, false);
        let full = fs::metadata(&path).unwrap().len();
        for keep in [0u64, 7, HEADER_LEN as u64 - 1, full - 1] {
            let f = OpenOptions::new().write(true).open(&path).unwrap();
            f.set_len(keep).unwrap();
            drop(f);
            match StoredGraph::open(&path) {
                Err(StoreError::Truncated { .. }) => {}
                other => panic!("truncate to {keep}: expected Truncated, got {other:?}"),
            }
            // restore for the next iteration
            fs::remove_file(&path).ok();
            pack_sample(&dir, false);
        }
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn bad_magic_and_version_are_typed_errors() {
        let dir = temp_dir("magic");
        let (path, _) = pack_sample(&dir, false);
        let patch = |at: u64, val: u8| {
            let mut f = OpenOptions::new().write(true).open(&path).unwrap();
            f.seek(SeekFrom::Start(at)).unwrap();
            f.write_all(&[val]).unwrap();
        };
        let orig = fs::read(&path).unwrap();
        patch(0, b'X');
        assert!(matches!(
            StoredGraph::open(&path),
            Err(StoreError::BadMagic)
        ));
        fs::write(&path, &orig).unwrap();
        patch(8, 0xEE); // version field
        assert!(matches!(
            StoredGraph::open(&path),
            Err(StoreError::UnsupportedVersion(_))
        ));
        fs::write(&path, &orig).unwrap();
        // Swap the endianness tag bytes wholesale.
        let mut swapped = orig.clone();
        swapped.swap(10, 11);
        fs::write(&path, &swapped).unwrap();
        assert!(matches!(
            StoredGraph::open(&path),
            Err(StoreError::Endianness)
        ));
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn flipped_payload_byte_fails_verify_with_section_name() {
        let dir = temp_dir("flip");
        let (path, _) = pack_sample(&dir, false);
        let stored = StoredGraph::open(&path).unwrap();
        let target = stored.section(SEC_OUT_NEIGHBORS).unwrap().clone();
        drop(stored);
        let mut f = OpenOptions::new().write(true).open(&path).unwrap();
        f.seek(SeekFrom::Start(target.offset)).unwrap();
        f.write_all(&[0xFF]).unwrap();
        drop(f);
        // Open still succeeds (checksums are deferred) …
        let stored = StoredGraph::open(&path).unwrap();
        // … but verify names the damaged section.
        match stored.verify() {
            Err(StoreError::CorruptSection { sections }) => {
                assert_eq!(sections, vec![SEC_OUT_NEIGHBORS.to_string()]);
            }
            other => panic!("expected CorruptSection, got {other:?}"),
        }
        // Triage agrees, and the intact edge list still verifies alone.
        assert_eq!(stored.triage(), vec![SEC_OUT_NEIGHBORS.to_string()]);
        stored.verify_section(SEC_EDGE_LIST).unwrap();
        assert!(matches!(
            stored.verify_section(SEC_OUT_NEIGHBORS),
            Err(StoreError::CorruptSection { .. })
        ));
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn flipped_header_byte_is_a_typed_error() {
        let dir = temp_dir("hflip");
        let (path, _) = pack_sample(&dir, false);
        let mut f = OpenOptions::new().write(true).open(&path).unwrap();
        f.seek(SeekFrom::Start(17)).unwrap(); // inside num_vertices
        f.write_all(&[0xAB]).unwrap();
        drop(f);
        assert!(matches!(
            StoredGraph::open(&path),
            Err(StoreError::ChecksumMismatch { .. })
        ));
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn garbage_file_never_panics() {
        let dir = temp_dir("garbage");
        let path = dir.join("junk.gmg");
        // A spread of adversarial inputs: empty, tiny, header-sized noise,
        // and pseudo-random larger blobs. Every one must yield Err.
        let mut blobs: Vec<Vec<u8>> = vec![
            Vec::new(),
            vec![0u8; 1],
            vec![0u8; HEADER_LEN],
            vec![0xFF; HEADER_LEN * 4],
        ];
        let mut x = 0x9E3779B97F4A7C15u64;
        let mut noise = Vec::with_capacity(4096);
        for _ in 0..4096 {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            noise.push(x as u8);
        }
        blobs.push(noise);
        for blob in blobs {
            fs::write(&path, &blob).unwrap();
            assert!(StoredGraph::open(&path).is_err());
        }
        fs::remove_dir_all(&dir).ok();
    }
}
