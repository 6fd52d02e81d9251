//! The cluster simulation command (`graphmine cluster`).
//!
//! The paper measured on a 48-node Infiniband cluster; this reproduction
//! runs on one machine (DESIGN.md substitution #1), but the engine can
//! tally which edge reads and messages *would* cross machine boundaries
//! under a given vertex partitioning. This command reports, for several
//! partitioners and cluster sizes, the static structure quality (edge cut,
//! load imbalance) and the dynamic remote-communication fractions of a
//! PageRank run — making the substitution's cost model explicit.

use graphmine_algos::pagerank::run_pagerank_with_config;
use graphmine_engine::ExecutionConfig;
use graphmine_gen::{powerlaw_graph, PowerLawConfig};
use graphmine_graph::{
    edge_cut_fraction, greedy_ldg_partition, hash_partition, partition_load_imbalance,
    range_partition, Graph,
};
use std::fmt::Write as _;

/// Partition counts examined (48 = the paper's cluster size).
const CLUSTER_SIZES: [u32; 3] = [2, 8, 48];

/// Assigns each vertex of a graph to one of `p` partitions.
type Partitioner = fn(&Graph, u32) -> Vec<u32>;

fn partitioners() -> Vec<(&'static str, Partitioner)> {
    vec![
        ("hash", |g, p| hash_partition(g.num_vertices(), p)),
        ("range", range_partition),
        ("greedy-ldg", greedy_ldg_partition),
    ]
}

/// Render the cluster-communication study for a generated power-law graph.
pub fn render_cluster(nedges: usize, alpha: f64, seed: u64) -> String {
    let graph = powerlaw_graph(&PowerLawConfig::new(nedges, alpha, seed));
    let mut s = String::new();
    let _ = writeln!(
        s,
        "cluster simulation: PageRank on a {}-vertex / {}-edge power-law graph (α = {alpha})",
        graph.num_vertices(),
        graph.num_edges()
    );
    let _ = writeln!(
        s,
        "{:<12} {:>6} {:>9} {:>10} {:>13} {:>12}",
        "partitioner", "parts", "edge-cut", "imbalance", "remote-EREAD", "remote-MSG"
    );
    for (name, build) in partitioners() {
        for parts in CLUSTER_SIZES {
            let labels = build(&graph, parts);
            let cut = edge_cut_fraction(&graph, &labels);
            let imbalance = partition_load_imbalance(&graph, &labels, parts);
            let config = ExecutionConfig::with_max_iterations(50).with_partition(labels);
            let (_, trace) = run_pagerank_with_config(&graph, 1e-3, &config);
            let remote_eread = trace.remote_eread() / trace.eread().max(1e-12);
            let remote_msg = trace.remote_msg() / trace.msg().max(1e-12);
            let _ = writeln!(
                s,
                "{name:<12} {parts:>6} {cut:>9.4} {imbalance:>10.3} {remote_eread:>13.4} {remote_msg:>12.4}",
            );
        }
    }
    let _ = writeln!(
        s,
        "\nremote-EREAD / remote-MSG: fraction of the paper's EREAD / MSG\n\
         behavior metrics that would be network traffic at that cluster size."
    );
    s
}

/// Render the Spearman feature↔metric correlation tables
/// (`graphmine correlations`) — numeric checks of the §4 claims like "all
/// metrics of KC are positively correlated to α" (Figure 2) and
/// "communication intensity of PR is negatively correlated to α"
/// (Figure 4).
pub fn render_correlations(db: &graphmine_core::RunDb) -> String {
    use graphmine_core::{feature_correlations, Feature, WorkMetric};
    let mut s = String::new();
    for (title, feature) in [
        (
            "Spearman correlation with alpha (size held fixed)",
            Feature::Alpha,
        ),
        (
            "Spearman correlation with size (alpha held fixed)",
            Feature::Size,
        ),
    ] {
        let _ = writeln!(s, "{title}");
        let _ = writeln!(
            s,
            "{:<8} {:>8} {:>8} {:>8} {:>8}",
            "algo", "UPDT", "WORK", "EREAD", "MSG"
        );
        for row in feature_correlations(db, feature, WorkMetric::WallNanos) {
            let fmt = |v: Option<f64>| match v {
                Some(x) => format!("{x:+.3}"),
                None => "  -  ".to_string(),
            };
            let _ = writeln!(
                s,
                "{:<8} {:>8} {:>8} {:>8} {:>8}",
                row.algorithm,
                fmt(row.updt),
                fmt(row.work),
                fmt(row.eread),
                fmt(row.msg)
            );
        }
        let _ = writeln!(s);
    }
    s
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::matrix::ScaleProfile;
    use crate::runner::run_matrix;

    #[test]
    fn correlations_render_and_match_kc_claim() {
        // Figure 2's claim: KC metrics positively correlated with alpha.
        let db = run_matrix(ScaleProfile::Quick, |_| ());
        let rows = graphmine_core::feature_correlations(
            &db,
            graphmine_core::Feature::Alpha,
            graphmine_core::WorkMetric::LogicalOps,
        );
        let kc = rows.iter().find(|r| r.algorithm == "KC").expect("KC row");
        assert!(kc.updt.unwrap_or(0.0) > 0.0, "KC UPDT vs alpha: {kc:?}");
        assert!(kc.msg.unwrap_or(0.0) > 0.0, "KC MSG vs alpha: {kc:?}");
        let out = render_correlations(&db);
        assert!(out.contains("Spearman"));
        assert!(out.lines().any(|l| l.starts_with("KC")));
    }

    #[test]
    fn renders_all_rows() {
        let out = render_cluster(3_000, 2.5, 1);
        for name in ["hash", "range", "greedy-ldg"] {
            assert_eq!(
                out.lines().filter(|l| l.starts_with(name)).count(),
                CLUSTER_SIZES.len(),
                "{name} rows missing:\n{out}"
            );
        }
    }

    #[test]
    fn greedy_cuts_less_than_hash() {
        let out = render_cluster(3_000, 2.5, 2);
        let cut_of = |name: &str| -> f64 {
            out.lines()
                .find(|l| l.starts_with(name) && l.contains("     2 "))
                .and_then(|l| l.split_whitespace().nth(2))
                .and_then(|c| c.parse().ok())
                .unwrap_or_else(|| panic!("row for {name}:\n{out}"))
        };
        assert!(cut_of("greedy-ldg") <= cut_of("hash"));
    }

    #[test]
    fn remote_fractions_track_edge_cut() {
        // For PageRank (gather over every incident edge of active vertices)
        // the remote EREAD fraction approximately equals the edge cut.
        let graph = powerlaw_graph(&PowerLawConfig::new(3_000, 2.5, 3));
        let labels = hash_partition(graph.num_vertices(), 8);
        let cut = edge_cut_fraction(&graph, &labels);
        let config = ExecutionConfig::with_max_iterations(30).with_partition(labels);
        let (_, trace) = run_pagerank_with_config(&graph, 1e-3, &config);
        let remote_frac = trace.remote_eread() / trace.eread();
        assert!(
            (remote_frac - cut).abs() < 0.05,
            "remote {remote_frac} vs cut {cut}"
        );
    }

    #[test]
    fn no_partition_means_no_remote_counts() {
        let graph = powerlaw_graph(&PowerLawConfig::new(2_000, 2.5, 4));
        let (_, trace) =
            run_pagerank_with_config(&graph, 1e-3, &ExecutionConfig::with_max_iterations(20));
        assert_eq!(trace.remote_eread(), 0.0);
        assert_eq!(trace.remote_msg(), 0.0);
    }
}
