//! Loopy Belief Propagation (paper §2.1).
//!
//! Max-product BP in the log domain on a pairwise MRF with Potts smoothing.
//! Messages are genuine per-edge state carried in the vertex inboxes; a
//! vertex whose belief settles stops messaging, producing the "sharp drop
//! in the number of active vertices over time" of paper Figure 11, while
//! graph size leaves the *shape* of the active fraction unchanged.
//!
//! A destination's packets arrive in ascending sender order whichever way
//! the engine runs a round, so LBP's order-sensitive `combine` is safe on
//! both paths: under the default `Auto` direction its dense rounds pull
//! over in-rows, combining each destination's packets in place with no
//! outbox, and its sparse rounds push.
//!
//! States and messages are `Copy` values of fixed size: a vertex's packet
//! table holds at most [`MAX_DEGREE`] packets inline, and the program is
//! generic over its label width `L`, so a run allocates nothing per vertex
//! beyond the engine's own buffers.

use graphmine_engine::{ApplyInfo, EdgeSet, ExecutionConfig, RunTrace, SyncEngine, VertexProgram};
use graphmine_gen::GridMrf;
use graphmine_graph::{EdgeId, Graph, VertexId};
use serde::{Deserialize, Serialize};

/// Most labels a vertex can carry. [`run_lbp_on`] runs a program of label
/// width `L = 2` for up to two labels and `L = MAX_LABELS` above that.
pub const MAX_LABELS: usize = 4;

/// Most senders a vertex can hear from: the in-degree of an interior
/// vertex of a 4-neighbour grid. Packet tables hold this many packets
/// inline, so [`run_lbp_on`] rejects a graph with a larger in-degree.
pub const MAX_DEGREE: usize = 4;

fn to_labels<const L: usize>(values: &[f64]) -> [f64; L] {
    let mut out = [0.0; L];
    out[..values.len()].copy_from_slice(values);
    out
}

/// One sender's per-label log message; entries at and beyond the
/// program's `num_labels` stay `0.0` and are never read.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Packet<const L: usize> {
    /// The vertex that sent it.
    pub sender: VertexId,
    /// The log message, one entry per label.
    pub values: [f64; L],
}

impl<const L: usize> Default for Packet<L> {
    fn default() -> Packet<L> {
        Packet {
            sender: 0,
            values: [0.0; L],
        }
    }
}

/// Up to [`MAX_DEGREE`] packets, inline, in arrival order. Slots past
/// `len` hold default packets. Serialized as the sequence of its packets.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
struct Packets<const L: usize> {
    len: usize,
    slots: [Packet<L>; MAX_DEGREE],
}

impl<const L: usize> Packets<L> {
    /// The packets in arrival order.
    fn as_slice(&self) -> &[Packet<L>] {
        &self.slots[..self.len]
    }

    fn as_mut_slice(&mut self) -> &mut [Packet<L>] {
        &mut self.slots[..self.len]
    }

    fn push(&mut self, packet: Packet<L>) {
        assert!(
            self.len < MAX_DEGREE,
            "an LBP vertex hears from at most MAX_DEGREE = {MAX_DEGREE} senders"
        );
        self.slots[self.len] = packet;
        self.len += 1;
    }
}

impl<const L: usize> Serialize for Packets<L> {
    fn serialize<S: serde::Serializer>(&self, serializer: S) -> Result<S::Ok, S::Error> {
        self.as_slice().serialize(serializer)
    }
}

impl<'de, const L: usize> Deserialize<'de> for Packets<L> {
    fn deserialize<D: serde::Deserializer<'de>>(deserializer: D) -> Result<Packets<L>, D::Error> {
        let packets = Vec::<Packet<L>>::deserialize(deserializer)?;
        if packets.len() > MAX_DEGREE {
            return Err(serde::de::Error::custom(format!(
                "{} packets, more than MAX_DEGREE = {MAX_DEGREE}",
                packets.len()
            )));
        }
        let mut out = Packets::default();
        for packet in packets {
            out.push(packet);
        }
        Ok(out)
    }
}

/// The packets addressed to one vertex in one iteration, in arrival order.
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize, Deserialize)]
pub struct LbpMessage<const L: usize> {
    packets: Packets<L>,
}

impl<const L: usize> LbpMessage<L> {
    /// The packets in arrival order.
    pub fn packets(&self) -> impl Iterator<Item = &Packet<L>> {
        self.packets.as_slice().iter()
    }
}

/// Per-vertex LBP state.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct LbpState<const L: usize> {
    /// Log-domain belief per label.
    pub belief: [f64; L],
    /// Latest message from each neighbor, keyed by sender (a linear map of
    /// at most [`MAX_DEGREE`] entries), in first-arrival order.
    incoming: Packets<L>,
    /// Belief movement in the last apply.
    pub delta: f64,
}

/// The LBP vertex program, `L` labels wide.
pub struct Lbp<const L: usize> {
    /// Per-vertex prior log-potentials.
    priors: Vec<[f64; L]>,
    /// Potts agreement bonus.
    smoothing: f64,
    /// Number of labels.
    num_labels: usize,
    /// Belief-change tolerance controlling deactivation.
    pub tolerance: f64,
}

impl<const L: usize> Lbp<L> {
    /// Build a program from priors and a Potts smoothing strength.
    ///
    /// # Panics
    ///
    /// When `num_labels` exceeds [`MAX_LABELS`] or the width `L`, or
    /// `priors` (`num_labels` per vertex, vertex-major) is not whole rows.
    pub fn new(priors: &[f64], smoothing: f64, num_labels: usize) -> Lbp<L> {
        assert!(
            num_labels <= MAX_LABELS,
            "LBP supports at most MAX_LABELS = {MAX_LABELS} labels, got {num_labels}"
        );
        assert!(
            num_labels <= L,
            "an LBP program of width {L} holds at most {L} labels, got {num_labels}"
        );
        assert!(priors.len().is_multiple_of(num_labels));
        Lbp {
            priors: priors.chunks_exact(num_labels).map(to_labels).collect(),
            smoothing,
            num_labels,
            tolerance: 1e-4,
        }
    }
}

impl<const L: usize> VertexProgram for Lbp<L> {
    type State = LbpState<L>;
    type EdgeData = ();
    type Accum = ();
    type Message = LbpMessage<L>;
    /// Current iteration number (scatter must fire unconditionally on
    /// iteration 0 to seed the message flow).
    type Global = usize;

    fn gather_edges(&self) -> EdgeSet {
        EdgeSet::None
    }

    fn scatter_edges(&self) -> EdgeSet {
        EdgeSet::Out
    }

    fn before_iteration(&self, iter: usize, _states: &[LbpState<L>], global: &mut usize) {
        *global = iter;
    }

    fn apply(
        &self,
        v: VertexId,
        state: &mut LbpState<L>,
        _acc: Option<()>,
        msg: Option<&LbpMessage<L>>,
        _global: &usize,
        info: &mut ApplyInfo,
    ) {
        // Fold fresh messages into the stored table (latest per sender).
        if let Some(msg) = msg {
            for packet in msg.packets() {
                match state
                    .incoming
                    .as_mut_slice()
                    .iter_mut()
                    .find(|p| p.sender == packet.sender)
                {
                    Some(slot) => slot.values = packet.values,
                    None => state.incoming.push(*packet),
                }
            }
        }
        // Belief = prior + sum of incoming messages.
        let l = self.num_labels;
        let mut belief = self.priors[v as usize];
        let incoming = state.incoming.as_slice();
        for packet in incoming {
            for (b, x) in belief[..l].iter_mut().zip(&packet.values[..l]) {
                *b += x;
            }
        }
        // Normalize (max 0) to keep the log scale bounded.
        let max = belief[..l]
            .iter()
            .cloned()
            .fold(f64::NEG_INFINITY, f64::max);
        for b in &mut belief[..l] {
            *b -= max;
        }
        info.ops += (l * (incoming.len() + 1)) as u64;
        state.delta = belief[..l]
            .iter()
            .zip(&state.belief[..l])
            .map(|(a, b)| (a - b).abs())
            .fold(0.0, f64::max);
        state.belief = belief;
    }

    fn scatter(
        &self,
        _graph: &Graph,
        v: VertexId,
        _e: EdgeId,
        nbr: VertexId,
        state: &LbpState<L>,
        _nbr_state: &LbpState<L>,
        _edge: &(),
        iter: &usize,
    ) -> Option<LbpMessage<L>> {
        if *iter > 0 && state.delta <= self.tolerance {
            return None;
        }
        // Outgoing message to nbr: exclude nbr's own last message, then
        // max-product over source labels with the Potts bonus.
        let reverse = state
            .incoming
            .as_slice()
            .iter()
            .find(|p| p.sender == nbr)
            .map(|p| &p.values);
        let l = self.num_labels;
        let mut out = [0.0; L];
        out[..l].fill(f64::NEG_INFINITY);
        for (target, best) in out.iter_mut().enumerate().take(l) {
            for source in 0..l {
                let mut score = state.belief[source];
                if let Some(rev) = reverse {
                    score -= rev[source];
                }
                if source == target {
                    score += self.smoothing;
                }
                if score > *best {
                    *best = score;
                }
            }
        }
        let max = out[..l].iter().cloned().fold(f64::NEG_INFINITY, f64::max);
        for x in &mut out[..l] {
            *x -= max;
        }
        let mut packets = Packets::default();
        packets.push(Packet {
            sender: v,
            values: out,
        });
        Some(LbpMessage { packets })
    }

    /// Concatenation is order-sensitive: apply reads the packets in
    /// arrival order. The engine combines in ascending sender order on the
    /// push and the pull path alike, so runs are reproducible and every
    /// direction gives the same bits.
    fn combine(&self, into: &mut LbpMessage<L>, from: LbpMessage<L>) {
        for packet in from.packets() {
            into.packets.push(*packet);
        }
    }
}

/// Run LBP on any graph with the given priors (`num_labels` per vertex,
/// vertex-major). Returns MAP labels (argmax belief) and the behavior
/// trace.
///
/// # Panics
///
/// When a vertex's in-degree exceeds [`MAX_DEGREE`], or as [`Lbp::new`]
/// does.
pub fn run_lbp_on(
    graph: &Graph,
    priors: &[f64],
    smoothing: f64,
    num_labels: usize,
    config: &ExecutionConfig,
) -> (Vec<usize>, RunTrace) {
    if num_labels <= 2 {
        run_width::<2>(graph, priors, smoothing, num_labels, config)
    } else {
        run_width::<MAX_LABELS>(graph, priors, smoothing, num_labels, config)
    }
}

/// [`run_lbp_on`] with a program of label width `L`.
fn run_width<const L: usize>(
    graph: &Graph,
    priors: &[f64],
    smoothing: f64,
    num_labels: usize,
    config: &ExecutionConfig,
) -> (Vec<usize>, RunTrace) {
    assert_eq!(priors.len(), graph.num_vertices() * num_labels);
    if let Some(v) = graph.vertices().find(|&v| graph.in_degree(v) > MAX_DEGREE) {
        panic!(
            "LBP supports in-degree at most MAX_DEGREE = {MAX_DEGREE}, vertex {v} has {}",
            graph.in_degree(v)
        );
    }
    let program = Lbp::<L>::new(priors, smoothing, num_labels);
    let states: Vec<LbpState<L>> = program
        .priors
        .iter()
        .map(|&belief| LbpState {
            belief,
            incoming: Packets::default(),
            delta: f64::INFINITY,
        })
        .collect();
    let edge_data = vec![(); graph.num_edges()];
    let engine = SyncEngine::with_global(graph, program, states, &edge_data, 0usize);
    let (finals, trace) = engine.run_resumable(config);
    let labels = finals
        .iter()
        .map(|s| {
            s.belief[..num_labels]
                .iter()
                .enumerate()
                .max_by(|a, b| a.1.partial_cmp(b.1).expect("finite beliefs"))
                .map(|(i, _)| i)
                .unwrap_or(0)
        })
        .collect();
    (labels, trace)
}

/// Run LBP on a generated grid MRF.
pub fn run_lbp(mrf: &GridMrf, config: &ExecutionConfig) -> (Vec<usize>, RunTrace) {
    run_lbp_on(
        &mrf.graph,
        &mrf.priors,
        mrf.smoothing,
        mrf.num_labels,
        config,
    )
}

/// Brute-force MAP reference: maximize
/// `Σ priors[v][x_v] + Σ_(u,v) smoothing·[x_u == x_v]` (tiny graphs only;
/// `priors` is `num_labels` per vertex, vertex-major).
pub fn brute_force_map(
    graph: &Graph,
    priors: &[f64],
    smoothing: f64,
    num_labels: usize,
) -> Vec<usize> {
    let n = graph.num_vertices();
    assert!(num_labels.pow(n as u32) <= 1 << 20, "state space too large");
    let mut best = vec![0usize; n];
    let mut best_score = f64::NEG_INFINITY;
    let total = num_labels.pow(n as u32);
    for code in 0..total {
        let mut labels = vec![0usize; n];
        let mut c = code;
        for l in labels.iter_mut() {
            *l = c % num_labels;
            c /= num_labels;
        }
        let mut score: f64 = labels
            .iter()
            .enumerate()
            .map(|(v, &l)| priors[v * num_labels + l])
            .sum();
        for &(u, v) in graph.edge_list() {
            if labels[u as usize] == labels[v as usize] {
                score += smoothing;
            }
        }
        if score > best_score {
            best_score = score;
            best = labels;
        }
    }
    best
}

#[cfg(test)]
mod tests {
    use super::*;
    use graphmine_graph::GraphBuilder;

    /// A 4-vertex path (tree ⇒ max-product BP is exact).
    fn chain_priors() -> (Graph, Vec<f64>) {
        let g = GraphBuilder::undirected(4)
            .edge(0, 1)
            .edge(1, 2)
            .edge(2, 3)
            .build();
        // Ends strongly pull to opposite labels; middles are ambiguous.
        let priors = vec![
            2.0, 0.0, //
            0.1, 0.0, //
            0.0, 0.1, //
            0.0, 2.0,
        ];
        (g, priors)
    }

    #[test]
    fn exact_on_tree() {
        let (g, priors) = chain_priors();
        let (labels, trace) = run_lbp_on(&g, &priors, 0.5, 2, &ExecutionConfig::default());
        let reference = brute_force_map(&g, &priors, 0.5, 2);
        assert_eq!(labels, reference);
        assert!(trace.converged);
    }

    #[test]
    fn strong_smoothing_forces_agreement() {
        // Asymmetric priors so exactly one uniform labelling is optimal
        // (with symmetric priors all-0 and all-1 tie and per-vertex argmax
        // can legitimately mix).
        let (g, mut priors) = chain_priors();
        priors[0] = 5.0;
        let (labels, _) = run_lbp_on(&g, &priors, 10.0, 2, &ExecutionConfig::default());
        assert_eq!(labels, vec![0, 0, 0, 0]);
    }

    #[test]
    fn active_fraction_drops_sharply() {
        let mrf = GridMrf::generate(12, 2, 3);
        let (_, trace) = run_lbp(&mrf, &ExecutionConfig::with_max_iterations(200));
        let af = trace.active_fraction();
        assert_eq!(af[0], 1.0);
        let last = *af.last().unwrap();
        assert!(last < 0.5, "no sharp drop: {af:?}");
    }

    #[test]
    fn grid_map_recovers_two_regions() {
        let mrf = GridMrf::generate(10, 2, 4);
        let (labels, _) = run_lbp(&mrf, &ExecutionConfig::with_max_iterations(300));
        let side = mrf.side;
        // Count agreement with the planted left/right split.
        let mut correct = 0usize;
        for r in 0..side {
            for c in 0..side {
                let expect = if c < side / 2 { 0 } else { 1 };
                correct += (labels[r * side + c] == expect) as usize;
            }
        }
        let frac = correct as f64 / (side * side) as f64;
        assert!(frac > 0.85, "only {frac} recovered");
    }

    #[test]
    fn zero_ereads_messages_carry_everything() {
        let mrf = GridMrf::generate(6, 2, 5);
        let (_, trace) = run_lbp(&mrf, &ExecutionConfig::with_max_iterations(100));
        assert!(trace.iterations.iter().all(|it| it.edge_reads == 0));
        assert!(trace.iterations[0].messages > 0);
    }

    #[test]
    #[should_panic(expected = "at most MAX_LABELS = 4 labels, got 5")]
    fn too_many_labels_are_rejected_by_name() {
        let priors = vec![0.0; (MAX_LABELS + 1) * 2];
        Lbp::<MAX_LABELS>::new(&priors, 1.0, MAX_LABELS + 1);
    }

    /// Three labels run the `L = MAX_LABELS` program; on a tree it is
    /// still exact.
    #[test]
    fn three_labels_are_exact_on_tree() {
        let g = GraphBuilder::undirected(5)
            .edge(0, 1)
            .edge(1, 2)
            .edge(1, 3)
            .edge(3, 4)
            .build();
        let priors = vec![
            2.0, 0.0, 0.3, //
            0.1, 0.2, 0.0, //
            0.0, 1.5, 0.1, //
            0.0, 0.1, 0.3, //
            0.2, 0.0, 2.0,
        ];
        let (labels, trace) = run_lbp_on(&g, &priors, 0.5, 3, &ExecutionConfig::default());
        assert_eq!(labels, brute_force_map(&g, &priors, 0.5, 3));
        assert!(labels.contains(&2), "third label never chosen: {labels:?}");
        assert!(trace.converged);
    }

    #[test]
    #[should_panic(expected = "in-degree at most MAX_DEGREE = 4, vertex 0 has 5")]
    fn in_degree_above_max_degree_is_rejected_by_name() {
        let mut builder = GraphBuilder::undirected(6);
        for leaf in 1..6 {
            builder = builder.edge(0, leaf);
        }
        let priors = vec![0.0; 6 * 2];
        run_lbp_on(
            &builder.build(),
            &priors,
            1.0,
            2,
            &ExecutionConfig::default(),
        );
    }

    #[test]
    fn brute_force_rejects_oversized() {
        let result = std::panic::catch_unwind(|| {
            let g = GraphBuilder::undirected(30).edge(0, 1).build();
            let priors = vec![0.0; 30 * 2];
            brute_force_map(&g, &priors, 1.0, 2)
        });
        assert!(result.is_err());
    }
}
