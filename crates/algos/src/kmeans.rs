//! K-Means clustering (paper §2.1–2.2).
//!
//! The Clustering domain's vertices are 2-D data points and edges are
//! "pairwise rewards between vertices" (§3.2), so this is graph-regularized
//! K-Means: each vertex is assigned to the cluster minimizing distance to
//! the centroid *minus* a reward for agreeing with its graph neighbors. The
//! neighbor votes are gathered through every edge each iteration, which is
//! why KM has the highest per-edge data transfer of the whole suite (paper
//! Figure 13: "KM requires the most data transferring").
//!
//! Per the paper, "all vertices remain active through the whole lifecycle"
//! (Figure 5: active fraction ≡ 1.0); vertices whose assignment changed
//! message their neighbors.

use graphmine_engine::{ApplyInfo, EdgeSet, ExecutionConfig, RunTrace, SyncEngine, VertexProgram};
use graphmine_graph::{EdgeId, Graph, VertexId};
use serde::{Deserialize, Serialize};

/// Maximum supported cluster count (votes ride in a fixed array).
pub const MAX_K: usize = 8;

/// Per-vertex K-Means state.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct KmState {
    /// The data point.
    pub point: [f64; 2],
    /// Current cluster assignment.
    pub cluster: u32,
    /// Whether the last apply changed the assignment.
    pub changed: bool,
}

/// Global centroids, refreshed before every iteration.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct KmGlobal {
    /// One centroid per cluster.
    pub centroids: Vec<[f64; 2]>,
    /// Number of assignment changes observed when the centroids were
    /// refreshed (drives convergence).
    pub changes: usize,
}

/// The K-Means vertex program.
pub struct KMeans {
    /// Number of clusters (≤ [`MAX_K`]).
    pub k: usize,
    /// Weight of neighbor agreement relative to centroid distance.
    pub reward_weight: f64,
}

impl KMeans {
    /// Standard configuration.
    pub fn new(k: usize) -> KMeans {
        assert!((1..=MAX_K).contains(&k), "k must be in 1..={MAX_K}");
        KMeans {
            k,
            reward_weight: 0.1,
        }
    }
}

fn sq_dist(a: &[f64; 2], b: &[f64; 2]) -> f64 {
    let dx = a[0] - b[0];
    let dy = a[1] - b[1];
    dx * dx + dy * dy
}

impl VertexProgram for KMeans {
    type State = KmState;
    type EdgeData = ();
    /// Neighbor cluster votes.
    type Accum = [u32; MAX_K];
    type Message = ();
    type Global = KmGlobal;

    fn gather_edges(&self) -> EdgeSet {
        EdgeSet::Out
    }

    fn scatter_edges(&self) -> EdgeSet {
        EdgeSet::Out
    }

    fn always_active(&self) -> bool {
        true
    }

    fn gather(
        &self,
        _graph: &Graph,
        _v: VertexId,
        _e: EdgeId,
        _nbr: VertexId,
        _v_state: &KmState,
        nbr_state: &KmState,
        _edge: &(),
        _global: &KmGlobal,
    ) -> [u32; MAX_K] {
        let mut votes = [0u32; MAX_K];
        votes[nbr_state.cluster as usize] = 1;
        votes
    }

    fn merge(&self, into: &mut [u32; MAX_K], from: [u32; MAX_K]) {
        for i in 0..MAX_K {
            into[i] += from[i];
        }
    }

    fn before_iteration(&self, _iter: usize, states: &[KmState], global: &mut KmGlobal) {
        // Refresh centroids from the previous iteration's assignments.
        let mut sums = vec![[0.0f64; 2]; self.k];
        let mut counts = vec![0usize; self.k];
        let mut changes = 0usize;
        for s in states {
            let c = s.cluster as usize;
            sums[c][0] += s.point[0];
            sums[c][1] += s.point[1];
            counts[c] += 1;
            changes += s.changed as usize;
        }
        global.centroids = sums
            .iter()
            .zip(counts.iter())
            .map(|(s, &c)| {
                if c > 0 {
                    [s[0] / c as f64, s[1] / c as f64]
                } else {
                    [0.0, 0.0]
                }
            })
            .collect();
        global.changes = changes;
    }

    fn apply(
        &self,
        _v: VertexId,
        state: &mut KmState,
        acc: Option<[u32; MAX_K]>,
        _msg: Option<&()>,
        global: &KmGlobal,
        info: &mut ApplyInfo,
    ) {
        info.ops += self.k as u64;
        let votes = acc.unwrap_or([0; MAX_K]);
        let total_votes: u32 = votes.iter().sum();
        let mut best = state.cluster;
        let mut best_score = f64::INFINITY;
        for (c, centroid) in global.centroids.iter().enumerate() {
            let agreement = if total_votes > 0 {
                votes[c] as f64 / total_votes as f64
            } else {
                0.0
            };
            let score = sq_dist(&state.point, centroid) - self.reward_weight * agreement;
            if score < best_score {
                best_score = score;
                best = c as u32;
            }
        }
        state.changed = best != state.cluster;
        state.cluster = best;
    }

    fn scatter(
        &self,
        _graph: &Graph,
        _v: VertexId,
        _e: EdgeId,
        _nbr: VertexId,
        state: &KmState,
        _nbr_state: &KmState,
        _edge: &(),
        _global: &KmGlobal,
    ) -> Option<()> {
        state.changed.then_some(())
    }

    fn combine(&self, _into: &mut (), _from: ()) {}

    fn should_halt(&self, iter: usize, states: &[KmState], _global: &KmGlobal) -> bool {
        // Quiescence: two consecutive iterations with no assignment change
        // (iteration 0's changes are initialization noise).
        iter > 1 && states.iter().all(|s| !s.changed)
    }
}

/// Run graph-regularized K-Means on the points `(xs[v], ys[v])`. Returns
/// per-vertex assignments and the behavior trace.
pub fn run_kmeans(
    graph: &Graph,
    xs: &[f64],
    ys: &[f64],
    k: usize,
    config: &ExecutionConfig,
) -> (Vec<u32>, RunTrace) {
    assert_eq!(xs.len(), graph.num_vertices());
    assert_eq!(ys.len(), graph.num_vertices());
    // Initial clusters follow the id before any degree reordering, so a
    // reordered graph starts from the same partition.
    let inverse = graph.vertex_inverse();
    let states: Vec<KmState> = xs
        .iter()
        .zip(ys)
        .enumerate()
        .map(|(v, (&x, &y))| KmState {
            point: [x, y],
            cluster: (inverse.map_or(v, |inv| inv[v] as usize) % k) as u32,
            changed: true,
        })
        .collect();
    let edge_data = vec![(); graph.num_edges()];
    let (finals, trace) =
        SyncEngine::new(graph, KMeans::new(k), states, &edge_data).run_resumable(config);
    (finals.into_iter().map(|s| s.cluster).collect(), trace)
}

/// Plain (graph-free) Lloyd's algorithm reference on the points
/// `(xs[v], ys[v])`.
pub fn lloyd_reference(xs: &[f64], ys: &[f64], k: usize, iterations: usize) -> Vec<u32> {
    let points: Vec<[f64; 2]> = xs.iter().zip(ys).map(|(&x, &y)| [x, y]).collect();
    let n = points.len();
    let mut assign: Vec<u32> = (0..n).map(|v| (v % k) as u32).collect();
    for _ in 0..iterations {
        let mut sums = vec![[0.0f64; 2]; k];
        let mut counts = vec![0usize; k];
        for (p, &a) in points.iter().zip(assign.iter()) {
            sums[a as usize][0] += p[0];
            sums[a as usize][1] += p[1];
            counts[a as usize] += 1;
        }
        let centroids: Vec<[f64; 2]> = sums
            .iter()
            .zip(counts.iter())
            .map(|(s, &c)| {
                if c > 0 {
                    [s[0] / c as f64, s[1] / c as f64]
                } else {
                    [0.0, 0.0]
                }
            })
            .collect();
        for (p, a) in points.iter().zip(assign.iter_mut()) {
            let best = centroids
                .iter()
                .enumerate()
                .min_by(|x, y| sq_dist(p, x.1).partial_cmp(&sq_dist(p, y.1)).unwrap())
                .unwrap()
                .0;
            *a = best as u32;
        }
    }
    assign
}

#[cfg(test)]
mod tests {
    use super::*;
    use graphmine_graph::GraphBuilder;

    /// Two well-separated blobs of 4 points each, connected within blobs.
    fn two_blobs() -> (Graph, Vec<f64>, Vec<f64>) {
        let xs = vec![0.0, 0.1, 0.0, 0.1, 5.0, 5.1, 5.0, 5.1];
        let ys = vec![0.0, 0.0, 0.1, 0.1, 5.0, 5.0, 5.1, 5.1];
        let g = GraphBuilder::undirected(8)
            .edge(0, 1)
            .edge(1, 2)
            .edge(2, 3)
            .edge(3, 0)
            .edge(4, 5)
            .edge(5, 6)
            .edge(6, 7)
            .edge(7, 4)
            .build();
        (g, xs, ys)
    }

    #[test]
    fn separates_two_blobs() {
        let (g, xs, ys) = two_blobs();
        let (assign, trace) = run_kmeans(&g, &xs, &ys, 2, &ExecutionConfig::default());
        assert!(trace.converged);
        // All of blob 1 in one cluster, all of blob 2 in the other.
        assert!(assign[..4].iter().all(|&c| c == assign[0]));
        assert!(assign[4..].iter().all(|&c| c == assign[4]));
        assert_ne!(assign[0], assign[4]);
    }

    #[test]
    fn agrees_with_lloyd_on_blob_partition() {
        let (g, xs, ys) = two_blobs();
        let (assign, _) = run_kmeans(&g, &xs, &ys, 2, &ExecutionConfig::default());
        let reference = lloyd_reference(&xs, &ys, 2, 50);
        // Same partition up to label permutation.
        let same = assign == reference
            || assign
                .iter()
                .zip(reference.iter())
                .all(|(&a, &r)| a == 1 - r);
        assert!(same, "{assign:?} vs {reference:?}");
    }

    #[test]
    fn all_vertices_active_every_iteration() {
        let (g, xs, ys) = two_blobs();
        let (_, trace) = run_kmeans(&g, &xs, &ys, 2, &ExecutionConfig::default());
        assert!(trace
            .active_fraction()
            .iter()
            .all(|&f| (f - 1.0).abs() < 1e-12));
    }

    #[test]
    fn eread_is_full_adjacency_every_iteration() {
        let (g, xs, ys) = two_blobs();
        let (_, trace) = run_kmeans(&g, &xs, &ys, 2, &ExecutionConfig::default());
        let slots = g.total_out_slots();
        assert!(trace.iterations.iter().all(|it| it.edge_reads == slots));
    }

    #[test]
    fn messages_stop_once_stable() {
        let (g, xs, ys) = two_blobs();
        let (_, trace) = run_kmeans(&g, &xs, &ys, 2, &ExecutionConfig::default());
        assert_eq!(trace.iterations.last().unwrap().messages, 0);
    }

    #[test]
    fn single_cluster_trivially_converges() {
        let (g, xs, ys) = two_blobs();
        let (assign, _) = run_kmeans(&g, &xs, &ys, 1, &ExecutionConfig::default());
        assert!(assign.iter().all(|&c| c == 0));
    }

    #[test]
    #[should_panic(expected = "k must be in")]
    fn oversized_k_rejected() {
        let _ = KMeans::new(MAX_K + 1);
    }
}
