//! Synthetic pairwise Markov Random Fields for Dual Decomposition.
//!
//! The paper's DD inputs are real-world MRFs from the PIC2011 challenge with
//! edge counts {1056, 1190, 1406, 1560} (Table 2). Those downloads are not
//! available here, so we build synthetic pairwise MRFs with *exactly* the
//! requested edge count: a spanning cycle (guaranteeing connectivity)
//! plus random chords, with random unary and Potts-style pairwise
//! log-potentials. See DESIGN.md substitution #3 for why this preserves the
//! paper's DD behavior (all vertices active every iteration; only WORK
//! responds to size).

use crate::gaussian::GaussianSampler;
use graphmine_graph::{Graph, GraphBuilder, SharedSlice, VertexId};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// Configuration for [`mrf_graph`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MrfConfig {
    /// Exact number of pairwise factors (edges) to produce.
    pub nedges: usize,
    /// Number of vertices; defaults to `nedges * 2 / 3` (denser than a tree,
    /// sparser than the grid), clamped to at least 3.
    pub nvertices: Option<usize>,
    /// Number of discrete labels per variable.
    pub num_labels: usize,
    /// RNG seed.
    pub seed: u64,
}

impl MrfConfig {
    /// Standard DD configuration with binary labels.
    pub fn new(nedges: usize, seed: u64) -> MrfConfig {
        MrfConfig {
            nedges,
            nvertices: None,
            num_labels: 2,
            seed,
        }
    }

    fn resolved_vertices(&self) -> usize {
        self.nvertices.unwrap_or(self.nedges * 2 / 3).max(3)
    }
}

/// A pairwise MRF: topology, unary potentials, and pairwise potentials.
#[derive(Debug, Clone)]
pub struct MrfGraph {
    /// Undirected factor topology; one pairwise factor per edge.
    pub graph: Graph,
    /// Unary log-potentials, `num_labels` per vertex, vertex-major
    /// (`n × num_labels`); [`MrfGraph::unary_row`] slices one vertex.
    pub unary: SharedSlice<f64>,
    /// Per-edge Potts agreement bonus (λ ≥ 0): the pairwise potential is
    /// `λ·[x_u == x_v]`.
    pub pairwise: SharedSlice<f64>,
    /// Labels per variable.
    pub num_labels: usize,
}

/// Generate a synthetic MRF with exactly `config.nedges` edges.
///
/// Panics if `nedges < nvertices` (the spanning cycle alone needs that many)
/// or if the requested count exceeds the complete graph.
pub fn mrf_graph(config: &MrfConfig) -> MrfGraph {
    let n = config.resolved_vertices();
    let m = config.nedges;
    assert!(
        m >= n,
        "need nedges >= nvertices ({m} < {n}) for the spanning cycle"
    );
    let max_edges = n * (n - 1) / 2;
    assert!(
        m <= max_edges,
        "nedges {m} exceeds complete graph {max_edges}"
    );
    let mut rng = SmallRng::seed_from_u64(config.seed);
    let mut builder = GraphBuilder::undirected(n).with_edge_capacity(m);
    // Spanning cycle for connectivity.
    let mut present = std::collections::HashSet::with_capacity(m);
    for v in 0..n as VertexId {
        let u = (v + 1) % n as VertexId;
        let key = (v.min(u), v.max(u));
        present.insert(key);
        builder.push_edge(v, u);
    }
    // Random chords until the exact target is reached.
    while present.len() < m {
        let a = rng.gen_range(0..n as u32);
        let b = rng.gen_range(0..n as u32);
        if a == b {
            continue;
        }
        let key = (a.min(b), a.max(b));
        if present.insert(key) {
            builder.push_edge(a, b);
        }
    }
    let graph = builder.build();
    debug_assert_eq!(graph.num_edges(), m);
    let mut gauss = GaussianSampler::new();
    let unary: Vec<f64> = (0..n * config.num_labels)
        .map(|_| gauss.standard(&mut rng))
        .collect();
    let pairwise: Vec<f64> = (0..m).map(|_| rng.gen::<f64>() * 1.5).collect();
    MrfGraph {
        graph,
        unary: unary.into(),
        pairwise: pairwise.into(),
        num_labels: config.num_labels,
    }
}

impl MrfGraph {
    /// Vertex `v`'s unary log-potentials (`num_labels` values).
    #[inline]
    pub fn unary_row(&self, v: usize) -> &[f64] {
        &self.unary[v * self.num_labels..(v + 1) * self.num_labels]
    }
}

/// Evaluate the MRF energy (to be *maximized*) of a full labelling:
/// `Σ_v unary[v][x_v] + Σ_(u,v) λ_(u,v) · [x_u == x_v]`.
pub fn mrf_energy(mrf: &MrfGraph, labels: &[usize]) -> f64 {
    assert_eq!(labels.len(), mrf.graph.num_vertices());
    let mut e: f64 = labels
        .iter()
        .enumerate()
        .map(|(v, &l)| mrf.unary_row(v)[l])
        .sum();
    for (id, &(u, v)) in mrf.graph.edge_list().iter().enumerate() {
        if labels[u as usize] == labels[v as usize] {
            e += mrf.pairwise[id];
        }
    }
    e
}

#[cfg(test)]
mod tests {
    use super::*;
    use graphmine_graph::is_connected;

    /// The paper's four DD workloads (Table 2).
    const PAPER_DD_EDGES: [usize; 4] = [1056, 1190, 1406, 1560];

    #[test]
    fn exact_edge_counts_for_paper_workloads() {
        for (i, &m) in PAPER_DD_EDGES.iter().enumerate() {
            let mrf = mrf_graph(&MrfConfig::new(m, i as u64));
            assert_eq!(mrf.graph.num_edges(), m);
        }
    }

    #[test]
    fn connected_topology() {
        let mrf = mrf_graph(&MrfConfig::new(200, 1));
        assert!(is_connected(&mrf.graph));
    }

    #[test]
    fn potentials_shapes() {
        let cfg = MrfConfig {
            num_labels: 4,
            ..MrfConfig::new(150, 2)
        };
        let mrf = mrf_graph(&cfg);
        assert_eq!(mrf.unary.len(), mrf.graph.num_vertices() * 4);
        assert_eq!(mrf.unary_row(0).len(), 4);
        assert_eq!(mrf.pairwise.len(), 150);
        assert!(mrf.pairwise.iter().all(|&l| l >= 0.0));
    }

    #[test]
    fn energy_rewards_agreement() {
        let mrf = mrf_graph(&MrfConfig::new(60, 3));
        let n = mrf.graph.num_vertices();
        let uniform = vec![0usize; n];
        // Alternating labels disagree on (at least) the cycle edges.
        let alternating: Vec<usize> = (0..n).map(|v| v % 2).collect();
        let e_uni = mrf_energy(&mrf, &uniform);
        let e_alt = mrf_energy(&mrf, &alternating);
        // Pairwise mass: uniform earns every agreement bonus.
        let unary_uni: f64 = (0..n).map(|v| mrf.unary_row(v)[0]).sum();
        let unary_alt: f64 = (0..n).map(|v| mrf.unary_row(v)[v % 2]).sum();
        assert!(e_uni - unary_uni >= e_alt - unary_alt);
    }

    #[test]
    fn deterministic() {
        let a = mrf_graph(&MrfConfig::new(100, 11));
        let b = mrf_graph(&MrfConfig::new(100, 11));
        assert_eq!(a.graph.edge_list(), b.graph.edge_list());
        assert_eq!(a.pairwise, b.pairwise);
    }

    #[test]
    #[should_panic(expected = "spanning cycle")]
    fn too_few_edges_rejected() {
        let _ = mrf_graph(&MrfConfig {
            nvertices: Some(100),
            ..MrfConfig::new(50, 0)
        });
    }

    #[test]
    #[should_panic(expected = "exceeds complete graph")]
    fn too_many_edges_rejected() {
        let _ = mrf_graph(&MrfConfig {
            nvertices: Some(4),
            ..MrfConfig::new(100, 0)
        });
    }
}
