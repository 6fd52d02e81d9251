//! The core compressed-sparse-row [`Graph`] type.
//!
//! A [`Graph`] holds a canonical edge list (`edge id = index into that list`)
//! plus two CSR adjacency indexes, one per [`Direction`]. For undirected
//! graphs each edge appears in the adjacency rows of *both* endpoints under
//! the same [`EdgeId`], and `Direction::In` is an alias of `Direction::Out`
//! (the engine's "edge read" accounting then naturally matches GraphLab's,
//! where gathering over the neighbors of an undirected vertex reads each
//! incident edge once).

use crate::storage::SharedSlice;
use crate::varint::{self, RowDecoder};
use serde::{Deserialize, Serialize};

/// Index of a vertex. Dense in `0..num_vertices`.
pub type VertexId = u32;
/// Index of an edge into the canonical edge list. Dense in `0..num_edges`.
pub type EdgeId = u32;
/// A compressed graph's raw arrays for one direction: `(slot_offsets,
/// byte_offsets, varint_data, edge_ids)`.
pub type CompressedSlices<'a> = (&'a [u64], &'a [u64], &'a [u8], &'a [EdgeId]);

/// Which adjacency index to traverse.
///
/// For undirected graphs the two directions are identical.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Direction {
    /// Edges leaving a vertex (`src == v`).
    Out,
    /// Edges entering a vertex (`dst == v`).
    In,
}

impl Direction {
    /// The opposite direction.
    #[inline]
    pub fn reverse(self) -> Direction {
        match self {
            Direction::Out => Direction::In,
            Direction::In => Direction::Out,
        }
    }
}

/// How a [`Graph`] stores its neighbor arrays.
///
/// The two representations are observationally identical — every row-level
/// accessor yields the same neighbor sequence in the same order, so engine
/// traces (including floating-point combine orders) are bit-identical
/// between them. They differ only in bytes moved per traversed edge.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default, Serialize, Deserialize)]
pub enum Representation {
    /// Plain 4-byte neighbor slots (the CSR default).
    #[default]
    Plain,
    /// Delta-varint compressed rows (see [`crate::varint`]): the first
    /// neighbor absolute, later neighbors as gaps, decoded streaming.
    /// Requires [`Graph::has_sorted_rows`].
    Compressed,
}

impl Representation {
    /// Short lowercase name (`plain` / `compressed`).
    pub fn name(self) -> &'static str {
        match self {
            Representation::Plain => "plain",
            Representation::Compressed => "compressed",
        }
    }
}

impl std::str::FromStr for Representation {
    type Err = String;

    fn from_str(s: &str) -> Result<Representation, String> {
        match s {
            "plain" => Ok(Representation::Plain),
            "compressed" => Ok(Representation::Compressed),
            other => Err(format!(
                "unknown representation `{other}` (want plain|compressed)"
            )),
        }
    }
}

impl std::fmt::Display for Representation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// Physical storage of one adjacency's neighbor slots.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub(crate) enum NeighborStore {
    /// One `u32` per slot, indexable by the slot-offset array.
    Plain(SharedSlice<VertexId>),
    /// Per-row delta-varint byte streams: row `v` spans
    /// `byte_offsets[v]..byte_offsets[v + 1]` in `data`.
    Compressed {
        byte_offsets: SharedSlice<u64>,
        data: SharedSlice<u8>,
    },
}

impl NeighborStore {
    fn heap_bytes(&self) -> u64 {
        match self {
            NeighborStore::Plain(nb) => nb.heap_bytes(),
            NeighborStore::Compressed { byte_offsets, data } => {
                byte_offsets.heap_bytes() + data.heap_bytes()
            }
        }
    }

    fn is_mapped(&self) -> bool {
        match self {
            NeighborStore::Plain(nb) => nb.is_mapped(),
            NeighborStore::Compressed { byte_offsets, data } => {
                byte_offsets.is_mapped() || data.is_mapped()
            }
        }
    }
}

/// Streaming iterator over one adjacency row's neighbor ids, monomorphic
/// over both representations so `Graph::neighbors`/`Graph::incident` have a
/// single return type. The decoded sequence is identical between variants;
/// only the bytes read differ.
#[derive(Debug, Clone)]
pub enum NeighborIter<'a> {
    /// Plain slice walk.
    Plain(std::iter::Copied<std::slice::Iter<'a, VertexId>>),
    /// Delta-varint streaming decode.
    Compressed(RowDecoder<'a>),
}

impl Iterator for NeighborIter<'_> {
    type Item = VertexId;

    #[inline]
    fn next(&mut self) -> Option<VertexId> {
        match self {
            NeighborIter::Plain(it) => it.next(),
            NeighborIter::Compressed(it) => it.next(),
        }
    }

    #[inline]
    fn size_hint(&self) -> (usize, Option<usize>) {
        match self {
            NeighborIter::Plain(it) => it.size_hint(),
            NeighborIter::Compressed(it) => it.size_hint(),
        }
    }
}

impl ExactSizeIterator for NeighborIter<'_> {}

/// One CSR adjacency index: row `v` spans
/// `offsets[v] as usize .. offsets[v + 1] as usize` in the neighbor /
/// `edges` slot arrays. Neighbor slots are stored plain or delta-varint
/// compressed ([`NeighborStore`]); the slot-offset and edge-id arrays are
/// always plain, so degrees and edge-id lookups never decode anything.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub(crate) struct Adjacency {
    pub(crate) offsets: SharedSlice<u64>,
    pub(crate) neighbors: NeighborStore,
    pub(crate) edges: SharedSlice<EdgeId>,
}

impl Adjacency {
    #[inline]
    fn row(&self, v: VertexId) -> std::ops::Range<usize> {
        let v = v as usize;
        self.offsets[v] as usize..self.offsets[v + 1] as usize
    }

    /// Streaming iterator over row `v`'s neighbors, either representation.
    #[inline]
    fn neighbor_iter(&self, v: VertexId) -> NeighborIter<'_> {
        let row = self.row(v);
        match &self.neighbors {
            NeighborStore::Plain(nb) => NeighborIter::Plain(nb[row].iter().copied()),
            NeighborStore::Compressed { byte_offsets, data } => {
                let v = v as usize;
                let span = byte_offsets[v] as usize..byte_offsets[v + 1] as usize;
                NeighborIter::Compressed(RowDecoder::new(&data[span], row.len()))
            }
        }
    }

    /// Row `v` as a contiguous slice; `None` for compressed storage.
    #[inline]
    fn neighbor_row_slice(&self, v: VertexId) -> Option<&[VertexId]> {
        match &self.neighbors {
            NeighborStore::Plain(nb) => Some(&nb[self.row(v)]),
            NeighborStore::Compressed { .. } => None,
        }
    }

    /// Delta-varint encode a plain adjacency (rows must be sorted). The
    /// payload is padded to the word-aligned layout
    /// ([`varint::padded_payload_len`]) so every row is eligible for the
    /// guard-elided batch decoder; `byte_offsets[n]` still records the
    /// logical payload length.
    fn compress(&self, num_vertices: usize) -> Adjacency {
        let NeighborStore::Plain(nb) = &self.neighbors else {
            return self.clone();
        };
        let mut byte_offsets = Vec::with_capacity(num_vertices + 1);
        let mut data = Vec::new();
        byte_offsets.push(0u64);
        for v in 0..num_vertices {
            let row = self.row(v as VertexId);
            varint::encode_row(nb[row].iter().copied(), &mut data);
            byte_offsets.push(data.len() as u64);
        }
        data.resize(varint::padded_payload_len(data.len()), 0);
        Adjacency {
            offsets: self.offsets.clone(),
            neighbors: NeighborStore::Compressed {
                byte_offsets: byte_offsets.into(),
                data: data.into(),
            },
            edges: self.edges.clone(),
        }
    }

    /// Decode a compressed adjacency back to plain slots.
    fn decompress(&self, num_vertices: usize) -> Adjacency {
        if matches!(self.neighbors, NeighborStore::Plain(_)) {
            return self.clone();
        }
        let total = self.offsets[num_vertices] as usize;
        let mut nb = Vec::with_capacity(total);
        for v in 0..num_vertices {
            nb.extend(self.neighbor_iter(v as VertexId));
        }
        Adjacency {
            offsets: self.offsets.clone(),
            neighbors: NeighborStore::Plain(nb.into()),
            edges: self.edges.clone(),
        }
    }

    /// Bytes of the neighbor payload: 4 per slot plain, the *logical*
    /// varint stream length compressed — word-alignment padding is a fixed
    /// ≤ 15-byte overhead excluded from the compression-ratio metric (the
    /// row index overhead is likewise reported separately by heap
    /// accounting).
    fn neighbor_payload_bytes(&self) -> u64 {
        match &self.neighbors {
            NeighborStore::Plain(nb) => (nb.len() * std::mem::size_of::<VertexId>()) as u64,
            NeighborStore::Compressed { byte_offsets, .. } => byte_offsets[byte_offsets.len() - 1],
        }
    }

    /// Decode row `v` into `scratch` and return it as a slice; plain rows
    /// come back as the CSR slice itself with `scratch` untouched. The
    /// returned sequence is identical to [`Adjacency::neighbor_iter`]'s —
    /// compressed rows go through the guard-elided batch decoder when the
    /// payload has guard bytes past the row (always true under the padded
    /// layout; unpadded v1/v2 mapped payloads batch-decode every row except
    /// the last few bytes' worth, which fall back to the scalar decoder so
    /// no load can cross the mapping edge).
    #[inline]
    fn neighbor_row_into<'a>(
        &'a self,
        v: VertexId,
        scratch: &'a mut Vec<VertexId>,
    ) -> &'a [VertexId] {
        let row = self.row(v);
        match &self.neighbors {
            NeighborStore::Plain(nb) => &nb[row],
            NeighborStore::Compressed { byte_offsets, data } => {
                let v = v as usize;
                let (start, end) = (byte_offsets[v] as usize, byte_offsets[v + 1] as usize);
                if end + varint::WORD_GUARD <= data.len() {
                    varint::decode_row_into(data, start, end, row.len(), scratch);
                } else {
                    scratch.clear();
                    scratch.extend(RowDecoder::new(&data[start..end], row.len()));
                }
                scratch
            }
        }
    }

    /// Issue a software prefetch for the first bytes of row `v`'s neighbor
    /// payload (no-op off x86_64). Hot loops call this one row ahead so the
    /// payload line is in flight while the current row decodes.
    #[inline(always)]
    fn prefetch_row(&self, v: VertexId) {
        let v = v as usize;
        let at: *const u8 = match &self.neighbors {
            NeighborStore::Plain(nb) => {
                let slot = self.offsets[v] as usize;
                if slot >= nb.len() {
                    return;
                }
                &nb[slot] as *const VertexId as *const u8
            }
            NeighborStore::Compressed { byte_offsets, data } => {
                let at = byte_offsets[v] as usize;
                if at >= data.len() {
                    return;
                }
                &data[at]
            }
        };
        #[cfg(target_arch = "x86_64")]
        // SAFETY: `at` points into a live slice; prefetch has no
        // architectural effect beyond the cache.
        unsafe {
            core::arch::x86_64::_mm_prefetch(at as *const i8, core::arch::x86_64::_MM_HINT_T0)
        };
        #[cfg(not(target_arch = "x86_64"))]
        let _ = at;
    }

    /// Build from `(endpoint, neighbor, edge id)` triples.
    pub(crate) fn from_triples(
        num_vertices: usize,
        triples: impl Iterator<Item = (VertexId, VertexId, EdgeId)> + Clone,
    ) -> Adjacency {
        let mut counts = vec![0u64; num_vertices + 1];
        for (v, _, _) in triples.clone() {
            counts[v as usize + 1] += 1;
        }
        for i in 1..counts.len() {
            counts[i] += counts[i - 1];
        }
        let total = counts[num_vertices] as usize;
        let mut neighbors = vec![0 as VertexId; total];
        let mut edges = vec![0 as EdgeId; total];
        let mut cursor = counts.clone();
        for (v, n, e) in triples {
            let slot = cursor[v as usize] as usize;
            neighbors[slot] = n;
            edges[slot] = e;
            cursor[v as usize] += 1;
        }
        Adjacency {
            offsets: counts.into(),
            neighbors: NeighborStore::Plain(neighbors.into()),
            edges: edges.into(),
        }
    }

    /// Heap bytes owned by this adjacency (zero for mapped storage).
    pub(crate) fn heap_bytes(&self) -> u64 {
        self.offsets.heap_bytes() + self.neighbors.heap_bytes() + self.edges.heap_bytes()
    }

    /// Whether any backing array borrows from a mapped region.
    pub(crate) fn is_mapped(&self) -> bool {
        self.offsets.is_mapped() || self.neighbors.is_mapped() || self.edges.is_mapped()
    }
}

/// Check that a compressed payload's physical length matches its logical
/// length: exactly `logical` bytes (the unpadded v1/v2 layout) or the
/// word-aligned padded length with all-zero padding (the v3 layout and the
/// in-memory builder). Shared by [`Graph::validate`] and
/// [`Graph::from_parts`].
fn check_payload_span(logical: usize, data: &[u8]) -> Result<(), String> {
    if data.len() == logical {
        return Ok(());
    }
    if data.len() != varint::padded_payload_len(logical) {
        return Err(format!(
            "byte offsets span 0..{logical} but data holds {} bytes \
             (neither unpadded nor word-padded)",
            data.len()
        ));
    }
    if data[logical..].iter().any(|&b| b != 0) {
        return Err("nonzero bytes in the word-alignment padding".to_string());
    }
    Ok(())
}

/// Immutable graph topology in CSR form.
///
/// Construct via [`crate::GraphBuilder`]. Vertex ids are dense `0..n`; edge
/// ids are dense `0..m` and index the canonical edge list returned by
/// [`Graph::edge_endpoints`].
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Graph {
    pub(crate) directed: bool,
    pub(crate) num_vertices: usize,
    /// Canonical edge list; for undirected graphs stored with the endpoints
    /// in insertion order (no canonical src < dst normalization is imposed).
    pub(crate) edge_list: SharedSlice<(VertexId, VertexId)>,
    pub(crate) out: Adjacency,
    /// `None` for undirected graphs, where `in == out`.
    pub(crate) in_: Option<Adjacency>,
    /// Whether every adjacency row lists its neighbors in ascending vertex
    /// order — true for deduplicating builds, where the sorted edge list
    /// plus the stable CSR counting sort yields sorted rows in both
    /// directions. Defaults to `false` when deserializing pre-flag graphs:
    /// conservatively safe, consumers only use `true` as a fast-path
    /// license.
    #[serde(default)]
    pub(crate) sorted_rows: bool,
    /// Degree-reordered graphs record the permutation applied at build
    /// time: `remap[old] = new` vertex id.
    #[serde(default)]
    pub(crate) remap: Option<Box<[VertexId]>>,
    /// Inverse of `remap`: `inverse[new] = old` vertex id.
    #[serde(default)]
    pub(crate) inverse: Option<Box<[VertexId]>>,
}

impl Graph {
    /// Number of vertices.
    #[inline]
    pub fn num_vertices(&self) -> usize {
        self.num_vertices
    }

    /// Number of edges (each undirected edge counted once).
    #[inline]
    pub fn num_edges(&self) -> usize {
        self.edge_list.len()
    }

    /// Whether the graph is directed.
    #[inline]
    pub fn is_directed(&self) -> bool {
        self.directed
    }

    /// The `(src, dst)` endpoints of edge `e` as inserted at build time.
    #[inline]
    pub fn edge_endpoints(&self, e: EdgeId) -> (VertexId, VertexId) {
        self.edge_list[e as usize]
    }

    /// The canonical edge list, `edge id = slice index`.
    #[inline]
    pub fn edge_list(&self) -> &[(VertexId, VertexId)] {
        &self.edge_list
    }

    #[inline]
    fn adj(&self, dir: Direction) -> &Adjacency {
        match dir {
            Direction::Out => &self.out,
            Direction::In => self.in_.as_ref().unwrap_or(&self.out),
        }
    }

    /// Degree of `v` in the given direction. For undirected graphs this is
    /// the plain degree (self-loops are rejected at build time so no
    /// double-count subtlety arises).
    #[inline]
    pub fn degree_dir(&self, v: VertexId, dir: Direction) -> usize {
        self.adj(dir).row(v).len()
    }

    /// Total degree: `out + in` for directed graphs, plain degree otherwise.
    #[inline]
    pub fn degree(&self, v: VertexId) -> usize {
        if self.directed {
            self.degree_dir(v, Direction::Out) + self.degree_dir(v, Direction::In)
        } else {
            self.degree_dir(v, Direction::Out)
        }
    }

    /// Out-degree of `v`.
    #[inline]
    pub fn out_degree(&self, v: VertexId) -> usize {
        self.degree_dir(v, Direction::Out)
    }

    /// In-degree of `v`.
    #[inline]
    pub fn in_degree(&self, v: VertexId) -> usize {
        self.degree_dir(v, Direction::In)
    }

    /// Iterate over the neighbor vertices of `v` in the given direction.
    /// Streams over both representations: plain rows walk the slice,
    /// compressed rows decode one varint per `next()` without ever
    /// materializing the row.
    #[inline]
    pub fn neighbors(&self, v: VertexId, dir: Direction) -> NeighborIter<'_> {
        self.adj(dir).neighbor_iter(v)
    }

    /// Neighbor vertices of `v` as a contiguous slice (CSR row).
    ///
    /// # Panics
    ///
    /// Panics for [`Representation::Compressed`] graphs, whose rows have no
    /// slice form — use [`Graph::neighbors`] (streaming) instead.
    #[inline]
    pub fn neighbor_slice(&self, v: VertexId, dir: Direction) -> &[VertexId] {
        self.adj(dir)
            .neighbor_row_slice(v)
            .expect("neighbor_slice requires Representation::Plain; use neighbors()")
    }

    /// Iterate over `(edge id, neighbor)` pairs incident to `v` in the given
    /// direction.
    #[inline]
    pub fn incident(
        &self,
        v: VertexId,
        dir: Direction,
    ) -> impl ExactSizeIterator<Item = (EdgeId, VertexId)> + '_ {
        let adj = self.adj(dir);
        adj.edges[adj.row(v)]
            .iter()
            .copied()
            .zip(adj.neighbor_iter(v))
    }

    /// Row `v` materialized: the `(edge id, neighbor)` columns of
    /// [`Graph::incident`] as parallel slices, decoding compressed rows
    /// into `scratch` with the guard-elided batch decoder. Plain rows
    /// borrow the CSR arrays directly and leave `scratch` untouched. The
    /// neighbor sequence is identical to the streaming iterator's, so
    /// engine traces are unchanged; only bytes-per-decoded-id differs.
    #[inline]
    pub fn incident_row<'a>(
        &'a self,
        v: VertexId,
        dir: Direction,
        scratch: &'a mut Vec<VertexId>,
    ) -> (&'a [EdgeId], &'a [VertexId]) {
        let adj = self.adj(dir);
        (&adj.edges[adj.row(v)], adj.neighbor_row_into(v, scratch))
    }

    /// Software-prefetch the start of row `v`'s neighbor payload in `dir`
    /// (no-op off x86_64, and for `v` out of range so loops can blindly
    /// prefetch `v + 1`). Hot loops issue this one row ahead of the decode.
    #[inline(always)]
    pub fn prefetch_row(&self, v: VertexId, dir: Direction) {
        if (v as usize) < self.num_vertices {
            self.adj(dir).prefetch_row(v);
        }
    }

    /// Whether every compressed row of `dir` is eligible for the batch
    /// decoder, i.e. the payload carries the word-aligned guard padding.
    /// `false` for plain graphs and for unpadded (format ≤ v2) mapped
    /// payloads, where the trailing rows fall back to scalar decode.
    /// Diagnostic for tests and CI coverage of the batch path.
    pub fn compressed_batch_capable(&self, dir: Direction) -> bool {
        match &self.adj(dir).neighbors {
            NeighborStore::Plain(_) => false,
            NeighborStore::Compressed { byte_offsets, data } => {
                byte_offsets[byte_offsets.len() - 1] as usize + varint::WORD_GUARD <= data.len()
            }
        }
    }

    /// Iterate over all vertex ids.
    #[inline]
    pub fn vertices(&self) -> impl ExactSizeIterator<Item = VertexId> {
        0..self.num_vertices as VertexId
    }

    /// Sum of out-degrees; equals `m` for directed graphs and `2m` for
    /// undirected graphs. Useful as the "edge slots visited by a full
    /// gather over every vertex" count.
    pub fn total_out_slots(&self) -> u64 {
        self.out.offsets[self.num_vertices]
    }

    /// Sum of in-degrees (equals [`Graph::total_out_slots`] for undirected
    /// graphs): the cost of one full pull sweep over every destination row.
    pub fn total_in_slots(&self) -> u64 {
        self.adj(Direction::In).offsets[self.num_vertices]
    }

    /// The CSR prefix-degree index for `dir`: `prefix[v]` is the number of
    /// `dir` edge slots of all vertices `< v`, so `prefix[v + 1] -
    /// prefix[v]` is `v`'s degree and any contiguous vertex range's summed
    /// degree is one subtraction. This is the adjacency offset array
    /// itself — no allocation, always current.
    #[inline]
    pub fn degree_prefix(&self, dir: Direction) -> &[u64] {
        &self.adj(dir).offsets
    }

    /// The raw CSR arrays for `dir` as `(offsets, neighbors, edge_ids)`.
    /// For undirected graphs both directions alias the same arrays. Used
    /// by serializers (e.g. `graphmine-store`) that persist the index
    /// verbatim; everything else should prefer the row-level accessors.
    ///
    /// # Panics
    ///
    /// Panics for [`Representation::Compressed`] graphs — serializers
    /// branch on [`Graph::representation`] and use
    /// [`Graph::compressed_slices`] there.
    #[inline]
    pub fn csr_slices(&self, dir: Direction) -> (&[u64], &[VertexId], &[EdgeId]) {
        let adj = self.adj(dir);
        let NeighborStore::Plain(nb) = &adj.neighbors else {
            panic!("csr_slices requires Representation::Plain; use compressed_slices()");
        };
        (&adj.offsets, nb, &adj.edges)
    }

    /// The raw compressed arrays for `dir` as `(slot_offsets, byte_offsets,
    /// varint_data, edge_ids)`; `None` for plain graphs. The serializer
    /// counterpart of [`Graph::csr_slices`].
    #[inline]
    pub fn compressed_slices(&self, dir: Direction) -> Option<CompressedSlices<'_>> {
        let adj = self.adj(dir);
        match &adj.neighbors {
            NeighborStore::Plain(_) => None,
            NeighborStore::Compressed { byte_offsets, data } => {
                Some((&adj.offsets, byte_offsets, data, &adj.edges))
            }
        }
    }

    /// Which physical neighbor representation this graph uses.
    #[inline]
    pub fn representation(&self) -> Representation {
        match self.out.neighbors {
            NeighborStore::Plain(_) => Representation::Plain,
            NeighborStore::Compressed { .. } => Representation::Compressed,
        }
    }

    /// A copy of this graph in the requested representation. Slot-offset,
    /// edge-id, and edge-list arrays are shared (`Arc` clones), so
    /// converting costs only the neighbor payload. Conversion to
    /// [`Representation::Compressed`] requires sorted rows (deduplicating
    /// builds) — gap encoding is meaningless on unsorted rows.
    pub fn to_representation(&self, repr: Representation) -> Result<Graph, String> {
        if self.representation() == repr {
            return Ok(self.clone());
        }
        let n = self.num_vertices;
        let (out, in_) = match repr {
            Representation::Compressed => {
                if !self.sorted_rows {
                    return Err("compressed representation requires sorted adjacency rows \
                         (build with dedup)"
                        .to_string());
                }
                (
                    self.out.compress(n),
                    self.in_.as_ref().map(|a| a.compress(n)),
                )
            }
            Representation::Plain => (
                self.out.decompress(n),
                self.in_.as_ref().map(|a| a.decompress(n)),
            ),
        };
        Ok(Graph {
            directed: self.directed,
            num_vertices: n,
            edge_list: self.edge_list.clone(),
            out,
            in_,
            sorted_rows: self.sorted_rows,
            remap: self.remap.clone(),
            inverse: self.inverse.clone(),
        })
    }

    /// Bytes of the neighbor payload for `dir`: `4 × slots` plain, the
    /// varint stream length compressed. The compression-ratio metric
    /// reported by benchmarks and `graphmine graph inspect`.
    pub fn neighbor_payload_bytes(&self, dir: Direction) -> u64 {
        self.adj(dir).neighbor_payload_bytes()
    }

    /// Whether every adjacency row lists neighbors in ascending vertex
    /// order (deduplicating builds). When true, a pull-style walk of a
    /// destination's in-row folds messages in exactly the engine's push
    /// combine order (ascending source), making the two directions
    /// bit-interchangeable.
    #[inline]
    pub fn has_sorted_rows(&self) -> bool {
        self.sorted_rows
    }

    /// The degree-descending build permutation, as `remap[old] = new`.
    /// `None` unless the graph was built with
    /// [`crate::GraphBuilder::reorder_by_degree`].
    #[inline]
    pub fn vertex_remap(&self) -> Option<&[VertexId]> {
        self.remap.as_deref()
    }

    /// Inverse of [`Graph::vertex_remap`]: `inverse[new] = old`.
    #[inline]
    pub fn vertex_inverse(&self) -> Option<&[VertexId]> {
        self.inverse.as_deref()
    }

    /// Verify internal invariants; used by tests and debug assertions.
    ///
    /// Checks CSR offsets are monotone, adjacency rows reference valid
    /// vertices/edges, and every edge appears the expected number of times.
    pub fn validate(&self) -> Result<(), String> {
        let n = self.num_vertices;
        let m = self.edge_list.len();
        for (s, d) in self.edge_list.iter() {
            if *s as usize >= n || *d as usize >= n {
                return Err(format!("edge ({s},{d}) out of range (n={n})"));
            }
        }
        let sorted = self.sorted_rows;
        let check_adj = |adj: &Adjacency, name: &str| -> Result<(), String> {
            if adj.offsets.len() != n + 1 {
                return Err(format!("{name}: offsets len {} != n+1", adj.offsets.len()));
            }
            if adj.offsets.windows(2).any(|w| w[0] > w[1]) {
                return Err(format!("{name}: offsets not monotone"));
            }
            let slots = adj.offsets[n] as usize;
            if adj.edges.len() != slots {
                return Err(format!("{name}: slot arrays inconsistent"));
            }
            for &e in adj.edges.iter() {
                if e as usize >= m {
                    return Err(format!("{name}: edge id {e} out of range"));
                }
            }
            match &adj.neighbors {
                NeighborStore::Plain(nbs) => {
                    if nbs.len() != slots {
                        return Err(format!("{name}: slot arrays inconsistent"));
                    }
                    for &nb in nbs.iter() {
                        if nb as usize >= n {
                            return Err(format!("{name}: neighbor {nb} out of range"));
                        }
                    }
                }
                NeighborStore::Compressed { byte_offsets, data } => {
                    if byte_offsets.len() != n + 1 {
                        return Err(format!(
                            "{name}: byte offsets len {} != n+1",
                            byte_offsets.len()
                        ));
                    }
                    if byte_offsets[0] != 0 {
                        return Err(format!("{name}: byte offsets do not start at 0"));
                    }
                    check_payload_span(byte_offsets[n] as usize, data)
                        .map_err(|e| format!("{name}: {e}"))?;
                    if byte_offsets.windows(2).any(|w| w[0] > w[1]) {
                        return Err(format!("{name}: byte offsets not monotone"));
                    }
                    // Decode every row: well-formed varints consuming the
                    // exact byte span, monotone (strictly ascending on
                    // dedup builds), in-bounds neighbor ids.
                    for v in 0..n {
                        let row = byte_offsets[v] as usize..byte_offsets[v + 1] as usize;
                        let len = (adj.offsets[v + 1] - adj.offsets[v]) as usize;
                        varint::decode_row_checked(&data[row], len, n, sorted)
                            .map_err(|e| format!("{name}: row {v}: {e}"))?;
                    }
                }
            }
            Ok(())
        };
        check_adj(&self.out, "out")?;
        if let Some(in_) = &self.in_ {
            check_adj(in_, "in")?;
        }
        // Every edge id must appear exactly once per adjacency for directed
        // graphs, exactly twice in `out` for undirected graphs.
        let mut seen = vec![0u8; m];
        for &e in self.out.edges.iter() {
            seen[e as usize] += 1;
        }
        let expect = if self.directed { 1 } else { 2 };
        if seen.iter().any(|&c| c != expect) {
            return Err(format!("edge multiplicity in out-adjacency != {expect}"));
        }
        Ok(())
    }

    /// Assemble a graph from pre-built CSR arrays — the zero-copy
    /// constructor used by `graphmine-store` to expose memory-mapped files
    /// as ordinary [`Graph`]s.
    ///
    /// Only *structural* invariants are checked here (array lengths and the
    /// slot totals implied by the offsets), touching O(1) pages so that
    /// opening a mapped multi-gigabyte graph stays at memory-map cost. The
    /// deep per-element checks of [`Graph::validate`] remain available and
    /// are run by the store's explicit verify path; callers handing in
    /// unchecksummed arrays should run it themselves.
    pub fn from_parts(parts: GraphParts) -> Result<Graph, String> {
        let n = parts.num_vertices;
        let m = parts.edge_list.len();
        let sorted_rows = parts.sorted_rows;
        let check = |offsets: &SharedSlice<u64>,
                     neighbors: &NeighborsPart,
                     edges: &SharedSlice<EdgeId>,
                     name: &str|
         -> Result<(), String> {
            if offsets.len() != n + 1 {
                return Err(format!(
                    "{name}: offsets len {} != n+1 ({})",
                    offsets.len(),
                    n + 1
                ));
            }
            if offsets[0] != 0 {
                return Err(format!("{name}: offsets[0] != 0"));
            }
            let slots = offsets[n] as usize;
            if edges.len() != slots {
                return Err(format!(
                    "{name}: edge-id slots ({}) != offsets total {slots}",
                    edges.len()
                ));
            }
            match neighbors {
                NeighborsPart::Plain(nbs) => {
                    if nbs.len() != slots {
                        return Err(format!(
                            "{name}: neighbor slots ({}) != offsets total {slots}",
                            nbs.len()
                        ));
                    }
                }
                NeighborsPart::Compressed { byte_offsets, data } => {
                    if !sorted_rows {
                        return Err(format!("{name}: compressed neighbors require sorted rows"));
                    }
                    if byte_offsets.len() != n + 1 {
                        return Err(format!(
                            "{name}: byte offsets len {} != n+1 ({})",
                            byte_offsets.len(),
                            n + 1
                        ));
                    }
                    if byte_offsets[0] != 0 {
                        return Err(format!("{name}: byte offsets do not start at 0"));
                    }
                    check_payload_span(byte_offsets[n] as usize, data)
                        .map_err(|e| format!("{name}: {e}"))?;
                }
            }
            Ok(())
        };
        check(
            &parts.out_offsets,
            &parts.out_neighbors,
            &parts.out_edges,
            "out",
        )?;
        let expected_out_slots = if parts.directed { m } else { 2 * m };
        if parts.out_offsets[n] as usize != expected_out_slots {
            return Err(format!(
                "out slot total {} != expected {expected_out_slots}",
                parts.out_offsets[n]
            ));
        }
        let in_ = match (parts.in_offsets, parts.in_neighbors, parts.in_edges) {
            (Some(offsets), Some(neighbors), Some(edges)) => {
                if !parts.directed {
                    return Err("undirected graph must not carry an in-adjacency".to_string());
                }
                check(&offsets, &neighbors, &edges, "in")?;
                if offsets[n] as usize != m {
                    return Err(format!("in slot total {} != edge count {m}", offsets[n]));
                }
                Some(Adjacency {
                    offsets,
                    neighbors: neighbors.into_store(),
                    edges,
                })
            }
            (None, None, None) => {
                if parts.directed {
                    return Err("directed graph requires an in-adjacency".to_string());
                }
                None
            }
            _ => return Err("in-adjacency arrays must be all present or all absent".to_string()),
        };
        Ok(Graph {
            directed: parts.directed,
            num_vertices: n,
            edge_list: parts.edge_list,
            out: Adjacency {
                offsets: parts.out_offsets,
                neighbors: parts.out_neighbors.into_store(),
                edges: parts.out_edges,
            },
            in_,
            sorted_rows: parts.sorted_rows,
            remap: None,
            inverse: None,
        })
    }

    /// Heap bytes owned by the topology arrays. Mapped (mmap-backed) arrays
    /// charge zero — their pages belong to the OS page cache and are
    /// reclaimed under memory pressure, so a byte-budgeted cache should not
    /// bill them as resident.
    pub fn topology_heap_bytes(&self) -> u64 {
        let mut total = self.edge_list.heap_bytes() + self.out.heap_bytes();
        if let Some(in_) = &self.in_ {
            total += in_.heap_bytes();
        }
        if let Some(r) = &self.remap {
            total += (r.len() * std::mem::size_of::<VertexId>()) as u64;
        }
        if let Some(r) = &self.inverse {
            total += (r.len() * std::mem::size_of::<VertexId>()) as u64;
        }
        total
    }

    /// Whether any topology array borrows from a mapped region (a
    /// `graphmine-store` zero-copy view) rather than owning heap storage.
    pub fn is_mapped(&self) -> bool {
        self.edge_list.is_mapped()
            || self.out.is_mapped()
            || self.in_.as_ref().is_some_and(Adjacency::is_mapped)
    }
}

/// Neighbor slots handed to [`Graph::from_parts`]: plain `u32` slots or a
/// pre-compressed delta-varint payload (a `graphmine-store` file packed
/// with [`Representation::Compressed`], mapped zero-copy).
pub enum NeighborsPart {
    /// One `u32` per slot.
    Plain(SharedSlice<VertexId>),
    /// Per-row varint streams: row `v` spans
    /// `byte_offsets[v]..byte_offsets[v + 1]` of `data`.
    Compressed {
        /// `n + 1` byte offsets into `data`.
        byte_offsets: SharedSlice<u64>,
        /// Concatenated delta-varint row encodings.
        data: SharedSlice<u8>,
    },
}

impl NeighborsPart {
    fn into_store(self) -> NeighborStore {
        match self {
            NeighborsPart::Plain(nb) => NeighborStore::Plain(nb),
            NeighborsPart::Compressed { byte_offsets, data } => {
                NeighborStore::Compressed { byte_offsets, data }
            }
        }
    }
}

/// The raw CSR arrays accepted by [`Graph::from_parts`]. Each array is a
/// [`SharedSlice`], so callers can hand in owned vectors or zero-copy views
/// into a mapped file interchangeably.
pub struct GraphParts {
    /// Whether the graph is directed.
    pub directed: bool,
    /// Number of vertices (`offsets` arrays must have this length + 1).
    pub num_vertices: usize,
    /// Canonical edge list, edge id = index.
    pub edge_list: SharedSlice<(VertexId, VertexId)>,
    /// Out-adjacency degree-prefix array (undirected: the single shared
    /// adjacency, with both orientations of every edge).
    pub out_offsets: SharedSlice<u64>,
    /// Out-adjacency neighbor slots, plain or compressed.
    pub out_neighbors: NeighborsPart,
    /// Out-adjacency edge-id slots.
    pub out_edges: SharedSlice<EdgeId>,
    /// In-adjacency arrays; required for directed graphs, forbidden for
    /// undirected ones.
    pub in_offsets: Option<SharedSlice<u64>>,
    /// See [`GraphParts::in_offsets`].
    pub in_neighbors: Option<NeighborsPart>,
    /// See [`GraphParts::in_offsets`].
    pub in_edges: Option<SharedSlice<EdgeId>>,
    /// Whether adjacency rows are ascending (see [`Graph::has_sorted_rows`]).
    /// Compressed neighbor parts require `true`.
    pub sorted_rows: bool,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::GraphBuilder;

    fn path3_directed() -> Graph {
        GraphBuilder::directed(3).edge(0, 1).edge(1, 2).build()
    }

    #[test]
    fn directed_degrees() {
        let g = path3_directed();
        assert!(g.is_directed());
        assert_eq!(g.out_degree(0), 1);
        assert_eq!(g.in_degree(0), 0);
        assert_eq!(g.out_degree(1), 1);
        assert_eq!(g.in_degree(1), 1);
        assert_eq!(g.degree(1), 2);
        assert_eq!(g.total_out_slots(), 2);
    }

    #[test]
    fn directed_neighbors_respect_direction() {
        let g = path3_directed();
        assert_eq!(g.neighbors(1, Direction::Out).collect::<Vec<_>>(), vec![2]);
        assert_eq!(g.neighbors(1, Direction::In).collect::<Vec<_>>(), vec![0]);
        assert!(g.neighbors(2, Direction::Out).next().is_none());
    }

    #[test]
    fn undirected_in_equals_out() {
        let g = GraphBuilder::undirected(3).edge(0, 1).edge(1, 2).build();
        assert_eq!(g.total_out_slots(), 4); // 2 edges x 2 endpoints
        for v in g.vertices() {
            let mut o: Vec<_> = g.neighbors(v, Direction::Out).collect();
            let mut i: Vec<_> = g.neighbors(v, Direction::In).collect();
            o.sort_unstable();
            i.sort_unstable();
            assert_eq!(o, i);
        }
    }

    #[test]
    fn incident_pairs_carry_edge_ids() {
        let g = GraphBuilder::undirected(3).edge(0, 1).edge(1, 2).build();
        let inc: Vec<_> = g.incident(1, Direction::Out).collect();
        assert_eq!(inc.len(), 2);
        for (e, nb) in inc {
            let (s, d) = g.edge_endpoints(e);
            assert!(s == 1 || d == 1);
            assert!(nb == s || nb == d);
            assert_ne!(nb, 1);
        }
    }

    #[test]
    fn edge_endpoints_round_trip() {
        // Dedup sorts the canonical edge list, so ids follow sorted order.
        let g = GraphBuilder::directed(4).edge(3, 0).edge(2, 1).build();
        assert_eq!(g.edge_endpoints(0), (2, 1));
        assert_eq!(g.edge_endpoints(1), (3, 0));
        assert_eq!(g.edge_list(), &[(2, 1), (3, 0)]);
    }

    #[test]
    fn validate_accepts_well_formed() {
        assert!(path3_directed().validate().is_ok());
        let g = GraphBuilder::undirected(5)
            .edge(0, 1)
            .edge(1, 2)
            .edge(2, 3)
            .edge(3, 4)
            .edge(4, 0)
            .build();
        assert!(g.validate().is_ok());
    }

    #[test]
    fn direction_reverse() {
        assert_eq!(Direction::Out.reverse(), Direction::In);
        assert_eq!(Direction::In.reverse(), Direction::Out);
    }

    #[test]
    fn empty_graph() {
        let g = GraphBuilder::undirected(0).build();
        assert_eq!(g.num_vertices(), 0);
        assert_eq!(g.num_edges(), 0);
        assert!(g.validate().is_ok());
    }

    #[test]
    fn isolated_vertices_have_empty_rows() {
        let g = GraphBuilder::directed(10).edge(0, 9).build();
        for v in 1..9 {
            assert_eq!(g.degree(v), 0);
            assert!(g.neighbors(v, Direction::Out).next().is_none());
        }
    }

    #[test]
    fn degree_prefix_sums_ranges() {
        let g = GraphBuilder::directed(4)
            .edge(0, 1)
            .edge(0, 2)
            .edge(1, 2)
            .edge(3, 0)
            .build();
        for dir in [Direction::Out, Direction::In] {
            let prefix = g.degree_prefix(dir);
            assert_eq!(prefix.len(), g.num_vertices() + 1);
            assert_eq!(prefix[0], 0);
            for v in g.vertices() {
                assert_eq!(
                    (prefix[v as usize + 1] - prefix[v as usize]) as usize,
                    g.degree_dir(v, dir)
                );
            }
        }
        assert_eq!(g.total_out_slots(), 4);
        assert_eq!(g.total_in_slots(), 4);
    }

    #[test]
    fn undirected_in_slots_equal_out_slots() {
        let g = GraphBuilder::undirected(3).edge(0, 1).edge(1, 2).build();
        assert_eq!(g.total_in_slots(), g.total_out_slots());
        assert_eq!(
            g.degree_prefix(Direction::In),
            g.degree_prefix(Direction::Out)
        );
    }

    #[test]
    fn dedup_builds_have_sorted_rows() {
        // Directed and undirected deduplicating builds both guarantee
        // ascending adjacency rows in both directions — the license for
        // pull-order/push-order interchangeability.
        let dg = GraphBuilder::directed(5)
            .edge(4, 1)
            .edge(0, 1)
            .edge(2, 1)
            .edge(1, 3)
            .build();
        let ug = GraphBuilder::undirected(5)
            .edge(3, 0)
            .edge(0, 1)
            .edge(4, 0)
            .edge(2, 0)
            .build();
        for g in [&dg, &ug] {
            assert!(g.has_sorted_rows());
            for dir in [Direction::Out, Direction::In] {
                for v in g.vertices() {
                    let row = g.neighbor_slice(v, dir);
                    assert!(
                        row.windows(2).all(|w| w[0] < w[1]),
                        "row of {v} not ascending: {row:?}"
                    );
                }
            }
        }
    }

    fn pl_like() -> Graph {
        let mut b = GraphBuilder::directed(40);
        // A hub-heavy directed graph with varied gaps.
        for d in 1..40u32 {
            b = b.edge(0, d);
        }
        b.edge(5, 7)
            .edge(5, 39)
            .edge(17, 3)
            .edge(17, 4)
            .edge(17, 38)
            .edge(39, 0)
            .build()
    }

    #[test]
    fn compressed_round_trip_preserves_every_row() {
        let ring = {
            let mut b = GraphBuilder::undirected(6);
            b.extend_edges([(0, 1), (0, 2), (1, 3), (2, 3), (3, 4), (4, 5), (0, 5)]);
            b.build()
        };
        for g in [
            pl_like(),
            ring,
            GraphBuilder::directed(10).edge(0, 9).build(),
            GraphBuilder::undirected(0).build(),
        ] {
            assert_eq!(g.representation(), Representation::Plain);
            let c = g.to_representation(Representation::Compressed).unwrap();
            assert_eq!(c.representation(), Representation::Compressed);
            assert!(c.validate().is_ok());
            assert_eq!(c.num_vertices(), g.num_vertices());
            assert_eq!(c.edge_list(), g.edge_list());
            for dir in [Direction::Out, Direction::In] {
                for v in g.vertices() {
                    assert_eq!(c.degree_dir(v, dir), g.degree_dir(v, dir));
                    let plain: Vec<_> = g.incident(v, dir).collect();
                    let comp: Vec<_> = c.incident(v, dir).collect();
                    assert_eq!(plain, comp, "row {v} {dir:?}");
                    assert_eq!(c.neighbors(v, dir).len(), g.degree_dir(v, dir));
                }
            }
            // Converting back yields the identical plain arrays.
            let back = c.to_representation(Representation::Plain).unwrap();
            assert_eq!(back.representation(), Representation::Plain);
            for dir in [Direction::Out, Direction::In] {
                assert_eq!(back.csr_slices(dir), g.csr_slices(dir));
            }
        }
    }

    #[test]
    fn compression_shrinks_neighbor_payload() {
        let g = pl_like();
        let c = g.to_representation(Representation::Compressed).unwrap();
        for dir in [Direction::Out, Direction::In] {
            assert!(c.neighbor_payload_bytes(dir) < g.neighbor_payload_bytes(dir));
        }
    }

    #[test]
    fn compression_requires_sorted_rows() {
        let g = GraphBuilder::directed(3)
            .allow_parallel_edges()
            .edge(0, 2)
            .edge(0, 1)
            .build();
        assert!(g.to_representation(Representation::Compressed).is_err());
    }

    #[test]
    #[should_panic(expected = "neighbor_slice requires Representation::Plain")]
    fn neighbor_slice_panics_on_compressed() {
        let c = pl_like()
            .to_representation(Representation::Compressed)
            .unwrap();
        let _ = c.neighbor_slice(0, Direction::Out);
    }

    #[test]
    fn validate_rejects_corrupt_compressed_rows() {
        let c = pl_like()
            .to_representation(Representation::Compressed)
            .unwrap();
        let (offsets, byte_offsets, data, edges) = c.compressed_slices(Direction::Out).unwrap();
        // Out-of-range neighbor: replace row 0's first (absolute) id with a
        // varint decoding past num_vertices.
        let mut bad = data.to_vec();
        bad[0] = 0x7F; // 127 >= 40 vertices
        let parts = |data: Vec<u8>, byte_offsets: Vec<u64>| GraphParts {
            directed: true,
            num_vertices: c.num_vertices(),
            edge_list: SharedSlice::from_vec(c.edge_list().to_vec()),
            out_offsets: SharedSlice::from_vec(offsets.to_vec()),
            out_neighbors: NeighborsPart::Compressed {
                byte_offsets: SharedSlice::from_vec(byte_offsets),
                data: SharedSlice::from_vec(data),
            },
            out_edges: SharedSlice::from_vec(edges.to_vec()),
            in_offsets: Some(SharedSlice::from_vec(
                c.compressed_slices(Direction::In).unwrap().0.to_vec(),
            )),
            in_neighbors: Some(NeighborsPart::Compressed {
                byte_offsets: SharedSlice::from_vec(
                    c.compressed_slices(Direction::In).unwrap().1.to_vec(),
                ),
                data: SharedSlice::from_vec(c.compressed_slices(Direction::In).unwrap().2.to_vec()),
            }),
            in_edges: Some(SharedSlice::from_vec(
                c.compressed_slices(Direction::In).unwrap().3.to_vec(),
            )),
            sorted_rows: true,
        };
        let g = Graph::from_parts(parts(bad, byte_offsets.to_vec())).unwrap();
        assert!(g.validate().unwrap_err().contains("row 0"));
        // An off-by-one final byte offset is caught structurally (when the
        // padded length no longer matches) or by the deep row decode (when
        // the stolen byte is padding) — either way it never validates.
        let mut bad_offsets = byte_offsets.to_vec();
        let last = bad_offsets.len() - 1;
        bad_offsets[last] += 1;
        let caught = match Graph::from_parts(parts(data.to_vec(), bad_offsets)) {
            Err(_) => true,
            Ok(g) => g.validate().is_err(),
        };
        assert!(caught);
        // Nonzero guard padding is corruption, not decodable payload.
        let mut dirty = data.to_vec();
        let len = dirty.len();
        dirty[len - 1] = 0x01;
        assert!(Graph::from_parts(parts(dirty, byte_offsets.to_vec()))
            .unwrap_err()
            .contains("padding"));
    }

    #[test]
    fn compressed_builds_are_padded_and_batch_capable() {
        let c = pl_like()
            .to_representation(Representation::Compressed)
            .unwrap();
        for dir in [Direction::Out, Direction::In] {
            assert!(c.compressed_batch_capable(dir));
            let (_, byte_offsets, data, _) = c.compressed_slices(dir).unwrap();
            let logical = byte_offsets[byte_offsets.len() - 1] as usize;
            assert_eq!(data.len(), varint::padded_payload_len(logical));
            assert!(data[logical..].iter().all(|&b| b == 0));
            // The ratio metric reports logical bytes, not padded bytes.
            assert_eq!(c.neighbor_payload_bytes(dir), logical as u64);
        }
        assert!(!pl_like().compressed_batch_capable(Direction::Out));
    }

    #[test]
    fn incident_row_matches_incident_on_both_representations() {
        let g = pl_like();
        let c = g.to_representation(Representation::Compressed).unwrap();
        let mut scratch = Vec::new();
        for graph in [&g, &c] {
            for dir in [Direction::Out, Direction::In] {
                for v in graph.vertices() {
                    graph.prefetch_row(v + 1, dir); // includes one-past-end
                    let streamed: Vec<_> = graph.incident(v, dir).collect();
                    let (eids, nbrs) = graph.incident_row(v, dir, &mut scratch);
                    let rowed: Vec<_> = eids.iter().copied().zip(nbrs.iter().copied()).collect();
                    assert_eq!(streamed, rowed, "row {v} {dir:?}");
                }
            }
        }
    }

    #[test]
    fn unpadded_compressed_parts_still_decode_via_scalar_fallback() {
        // A v1/v2-style payload with no guard bytes: from_parts accepts it,
        // batch capability reports false, and incident_row falls back to
        // the scalar decoder for the trailing rows — same sequences.
        let c = pl_like()
            .to_representation(Representation::Compressed)
            .unwrap();
        let (offsets, byte_offsets, data, edges) = c.compressed_slices(Direction::Out).unwrap();
        let logical = byte_offsets[byte_offsets.len() - 1] as usize;
        let (in_offsets, in_boffs, in_data, in_edges) = c.compressed_slices(Direction::In).unwrap();
        let in_logical = in_boffs[in_boffs.len() - 1] as usize;
        let g = Graph::from_parts(GraphParts {
            directed: true,
            num_vertices: c.num_vertices(),
            edge_list: SharedSlice::from_vec(c.edge_list().to_vec()),
            out_offsets: SharedSlice::from_vec(offsets.to_vec()),
            out_neighbors: NeighborsPart::Compressed {
                byte_offsets: SharedSlice::from_vec(byte_offsets.to_vec()),
                data: SharedSlice::from_vec(data[..logical].to_vec()),
            },
            out_edges: SharedSlice::from_vec(edges.to_vec()),
            in_offsets: Some(SharedSlice::from_vec(in_offsets.to_vec())),
            in_neighbors: Some(NeighborsPart::Compressed {
                byte_offsets: SharedSlice::from_vec(in_boffs.to_vec()),
                data: SharedSlice::from_vec(in_data[..in_logical].to_vec()),
            }),
            in_edges: Some(SharedSlice::from_vec(in_edges.to_vec())),
            sorted_rows: true,
        })
        .unwrap();
        assert!(g.validate().is_ok());
        assert!(!g.compressed_batch_capable(Direction::Out));
        let mut scratch = Vec::new();
        for dir in [Direction::Out, Direction::In] {
            for v in g.vertices() {
                let want: Vec<_> = c.neighbors(v, dir).collect();
                let (_, nbrs) = g.incident_row(v, dir, &mut scratch);
                assert_eq!(nbrs, &want[..], "row {v} {dir:?}");
            }
        }
    }

    #[test]
    fn parallel_edge_builds_do_not_claim_sorted_rows() {
        let g = GraphBuilder::directed(3)
            .allow_parallel_edges()
            .edge(0, 2)
            .edge(0, 1)
            .edge(0, 2)
            .build();
        assert!(!g.has_sorted_rows());
        assert!(g.vertex_remap().is_none());
    }
}
