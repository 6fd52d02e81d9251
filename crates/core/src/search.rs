//! Best-ensemble search (paper §5.2–§5.5).
//!
//! The paper reports, for every ensemble size, the best achievable spread
//! and coverage over pools of runs (single-algorithm, single-graph, or
//! unrestricted), plus a diversity analysis over the *100 best* ensembles.
//! Exhaustive search over C(215, 20) is impossible, so — like any faithful
//! reproduction — we use a greedy-augment construction refined by pairwise
//! exchange for spread, incremental greedy for coverage (the per-sample
//! minimum-distance array makes each candidate evaluation linear), and a
//! beam search to enumerate the top-k ensembles. Exhaustive enumeration is
//! used automatically when the pool and size are small enough, so tests can
//! cross-validate the heuristics.

use crate::behavior::BehaviorVector;
use crate::coverage::CoverageSampler;
use crate::ensemble::spread_of;
use rayon::prelude::*;
use std::collections::HashMap;

/// Which ensemble quality to optimize.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Objective {
    /// Maximize mean pairwise distance.
    Spread,
    /// Maximize `NS / Σ min-distance`.
    Coverage,
}

/// Number of exhaustive candidate subsets we are willing to enumerate
/// before switching to heuristics.
const EXHAUSTIVE_LIMIT: u128 = 200_000;

fn binomial(n: usize, k: usize) -> u128 {
    if k > n {
        return 0;
    }
    let k = k.min(n - k);
    let mut acc: u128 = 1;
    for i in 0..k {
        acc = acc.saturating_mul((n - i) as u128) / (i as u128 + 1);
        if acc > EXHAUSTIVE_LIMIT * 1000 {
            return u128::MAX;
        }
    }
    acc
}

/// Visit every k-subset of `0..n` (lexicographic).
fn for_each_subset(n: usize, k: usize, mut f: impl FnMut(&[usize])) {
    if k == 0 || k > n {
        return;
    }
    let mut idx: Vec<usize> = (0..k).collect();
    loop {
        f(&idx);
        // Advance to the next combination.
        let mut i = k;
        loop {
            if i == 0 {
                return;
            }
            i -= 1;
            if idx[i] != i + n - k {
                break;
            }
            if i == 0 {
                return;
            }
        }
        idx[i] += 1;
        for j in (i + 1)..k {
            idx[j] = idx[j - 1] + 1;
        }
    }
}

/// Best ensemble of `size` members maximizing **spread**, returned as
/// indices into `pool` (sorted ascending), together with the achieved
/// spread.
///
/// Small problems are solved exhaustively; larger ones by greedy
/// construction plus pairwise-exchange local search.
pub fn best_spread_ensemble(pool: &[BehaviorVector], size: usize) -> (Vec<usize>, f64) {
    let n = pool.len();
    if size == 0 || n == 0 {
        return (Vec::new(), 0.0);
    }
    let size = size.min(n);
    if binomial(n, size) <= EXHAUSTIVE_LIMIT {
        let mut best: Vec<usize> = (0..size).collect();
        let mut best_val = spread_of(pool, &best);
        for_each_subset(n, size, |subset| {
            let v = spread_of(pool, subset);
            if v > best_val {
                best_val = v;
                best = subset.to_vec();
            }
        });
        return (best, best_val);
    }

    // Greedy: seed with the farthest pair, then add the point that
    // maximizes the resulting spread.
    let mut members: Vec<usize> = Vec::with_capacity(size);
    {
        let mut far = (0usize, 1usize.min(n - 1));
        let mut far_d = -1.0;
        for i in 0..n {
            for j in (i + 1)..n {
                let d = pool[i].distance(&pool[j]);
                if d > far_d {
                    far_d = d;
                    far = (i, j);
                }
            }
        }
        members.push(far.0);
        if size > 1 {
            members.push(far.1);
        }
    }
    while members.len() < size {
        // Adding x to a set S changes spread to
        // (sum_S + Σ_{s∈S} d(x,s)) / C(|S|+1, 2).
        let current_sum: f64 = pair_sum(pool, &members);
        let k = members.len();
        let best = (0..n)
            .into_par_iter()
            .filter(|i| !members.contains(i))
            .map(|i| {
                let add: f64 = members.iter().map(|&s| pool[s].distance(&pool[i])).sum();
                (i, (current_sum + add) / ((k + 1) * k / 2) as f64)
            })
            .max_by(|a, b| a.1.partial_cmp(&b.1).expect("finite spread"));
        match best {
            Some((i, _)) => members.push(i),
            None => break,
        }
    }

    // Pairwise exchange until no improvement.
    let mut improved = true;
    let mut guard = 0;
    while improved && guard < 64 {
        improved = false;
        guard += 1;
        let current = spread_of(pool, &members);
        'outer: for slot in 0..members.len() {
            for cand in 0..n {
                if members.contains(&cand) {
                    continue;
                }
                let saved = members[slot];
                members[slot] = cand;
                if spread_of(pool, &members) > current + 1e-15 {
                    improved = true;
                    break 'outer;
                }
                members[slot] = saved;
            }
        }
    }
    members.sort_unstable();
    let val = spread_of(pool, &members);
    (members, val)
}

fn pair_sum(pool: &[BehaviorVector], members: &[usize]) -> f64 {
    let mut s = 0.0;
    for i in 0..members.len() {
        for j in (i + 1)..members.len() {
            s += pool[members[i]].distance(&pool[members[j]]);
        }
    }
    s
}

/// Best ensemble of `size` members maximizing **coverage** (greedy; the
/// coverage objective is monotone and close to submodular, so greedy is the
/// standard near-optimal construction).
pub fn best_coverage_ensemble(
    pool: &[BehaviorVector],
    size: usize,
    sampler: &CoverageSampler,
) -> (Vec<usize>, f64) {
    let n = pool.len();
    if size == 0 || n == 0 {
        return (Vec::new(), 0.0);
    }
    let size = size.min(n);
    let mut members: Vec<usize> = Vec::with_capacity(size);
    // Per-sample distance to the nearest chosen member.
    let mut min_dist = vec![f64::INFINITY; sampler.len()];
    for _ in 0..size {
        let best = (0..n)
            .into_par_iter()
            .filter(|i| !members.contains(i))
            .map(|i| {
                let total: f64 = sampler
                    .points()
                    .iter()
                    .zip(min_dist.iter())
                    .map(|(p, &md)| md.min(pool[i].distance_to_point(p)))
                    .sum();
                (i, total)
            })
            .min_by(|a, b| a.1.partial_cmp(&b.1).expect("finite totals"));
        let Some((chosen, _)) = best else { break };
        members.push(chosen);
        for (md, p) in min_dist.iter_mut().zip(sampler.points()) {
            *md = md.min(pool[chosen].distance_to_point(p));
        }
    }
    members.sort_unstable();
    let total: f64 = min_dist.iter().sum();
    let cov = if total > 0.0 {
        sampler.len() as f64 / total
    } else {
        f64::MAX
    };
    (members, cov)
}

/// Enumerate the `k` best *behaviorally distinct* ensembles of `size`
/// members by beam search, returning `(members, score)` pairs sorted
/// best-first. Used for the paper's §5.5 "100 best ensembles" diversity
/// analysis.
///
/// Pools of real runs contain many near-duplicate behavior points (e.g.
/// twenty SGD runs whose vectors coincide); without care the top-k fills
/// with copies of one ensemble that differ only in *which* duplicate run
/// was picked, which is exactly the shadowing the paper's §5.5 analysis
/// tries to avoid. Candidate ensembles are therefore deduplicated by a
/// quantized behavior signature, so each beam slot holds a genuinely
/// different region of the space.
pub fn top_k_ensembles(
    pool: &[BehaviorVector],
    size: usize,
    k: usize,
    objective: Objective,
    sampler: &CoverageSampler,
) -> Vec<(Vec<usize>, f64)> {
    let n = pool.len();
    if size == 0 || n == 0 || k == 0 {
        return Vec::new();
    }
    let size = size.min(n);
    let score = |members: &[usize]| -> f64 {
        match objective {
            Objective::Spread => spread_of(pool, members),
            Objective::Coverage => {
                let vs: Vec<BehaviorVector> = members.iter().map(|&i| pool[i]).collect();
                crate::coverage::coverage(&vs, sampler)
            }
        }
    };
    // Quantized per-point signature: collapses duplicate behavior vectors.
    let point_sig = |i: usize| -> u64 {
        let b = pool[i].0;
        let mut sig: u64 = 0;
        for (d, &x) in b.iter().enumerate() {
            let q = (x.clamp(0.0, 1.0) * 4095.0).round() as u64;
            sig |= q << (d * 12);
        }
        sig
    };
    let sigs: Vec<u64> = (0..n).map(point_sig).collect();
    let ensemble_sig = |members: &[usize]| -> Vec<u64> {
        let mut v: Vec<u64> = members.iter().map(|&i| sigs[i]).collect();
        v.sort_unstable();
        v
    };
    // Beam width: enough to keep one slot per distinct pool point, without
    // quadratic blow-up when k << n (signature dedup already removes the
    // duplicate-swap clones that would otherwise demand extra width).
    let width = k.max(n);
    // Seed: one singleton per distinct behavior point.
    let mut beam: Vec<Vec<usize>> = Vec::new();
    {
        let mut seen = std::collections::HashSet::new();
        for (i, &sig) in sigs.iter().enumerate() {
            if seen.insert(sig) {
                beam.push(vec![i]);
            }
        }
    }
    for _round in 1..size {
        // Expand: add any non-member (unordered — the beam holds *sets*).
        let expanded: Vec<(Vec<usize>, f64)> = beam
            .par_iter()
            .flat_map_iter(|members| {
                (0..n).filter_map(move |cand| {
                    if members.contains(&cand) {
                        return None;
                    }
                    let mut next = members.clone();
                    next.push(cand);
                    next.sort_unstable();
                    Some(next)
                })
            })
            .map(|members| {
                let s = score(&members);
                (members, s)
            })
            .collect();
        // Dedup by behavior signature, keeping the best-scoring candidate.
        let mut best_by_sig: HashMap<Vec<u64>, (Vec<usize>, f64)> = HashMap::new();
        for (members, s) in expanded {
            let sig = ensemble_sig(&members);
            match best_by_sig.get(&sig) {
                Some((_, existing)) if *existing >= s => {}
                _ => {
                    best_by_sig.insert(sig, (members, s));
                }
            }
        }
        let mut deduped: Vec<(Vec<usize>, f64)> = best_by_sig.into_values().collect();
        deduped.sort_by(|a, b| b.1.partial_cmp(&a.1).expect("finite ensemble scores"));
        deduped.truncate(width);
        beam = deduped.into_iter().map(|(m, _)| m).collect();
        if beam.is_empty() {
            return Vec::new();
        }
    }
    let mut scored: Vec<(Vec<usize>, f64)> = beam
        .into_par_iter()
        .map(|m| {
            let s = score(&m);
            (m, s)
        })
        .collect();
    scored.sort_by(|a, b| b.1.partial_cmp(&a.1).expect("finite ensemble scores"));
    scored.truncate(k);
    scored
}

/// Frequency of appearance of each label among the members of the given
/// ensembles (paper Figures 20–21: "within the 100 best ensembles, we use
/// the frequency of appearance of each algorithm as an indication of
/// contribution to diversity").
///
/// `labels[i]` is the label (e.g. algorithm abbreviation) of pool member
/// `i`; the result maps label → total appearances.
pub fn frequency_in_top_ensembles(
    ensembles: &[(Vec<usize>, f64)],
    labels: &[String],
) -> HashMap<String, usize> {
    let mut freq = HashMap::new();
    for (members, _) in ensembles {
        for &i in members {
            *freq.entry(labels[i].clone()).or_insert(0) += 1;
        }
    }
    freq
}

#[cfg(test)]
mod tests {
    use super::*;

    fn bv(a: f64, b: f64) -> BehaviorVector {
        BehaviorVector([a, b, 0.0, 0.0])
    }

    fn grid_pool() -> Vec<BehaviorVector> {
        // 5x5 grid in the first two dimensions.
        let mut pool = Vec::new();
        for i in 0..5 {
            for j in 0..5 {
                pool.push(bv(i as f64 / 4.0, j as f64 / 4.0));
            }
        }
        pool
    }

    #[test]
    fn binomial_basics() {
        assert_eq!(binomial(5, 2), 10);
        assert_eq!(binomial(10, 0), 1);
        assert_eq!(binomial(4, 5), 0);
    }

    #[test]
    fn subset_enumeration_counts() {
        let mut count = 0;
        for_each_subset(5, 3, |_| count += 1);
        assert_eq!(count, 10);
    }

    #[test]
    fn best_spread_pair_is_the_diagonal() {
        let pool = grid_pool();
        let (members, val) = best_spread_ensemble(&pool, 2);
        // Opposite corners of the grid: (0,0) and (1,1) — indices 0 and 24,
        // or the anti-diagonal pair (0,1)/(1,0); both have distance sqrt(2).
        assert!((val - 2f64.sqrt()).abs() < 1e-9, "val {val}");
        assert_eq!(members.len(), 2);
    }

    #[test]
    fn exhaustive_matches_heuristic_on_small_pool() {
        // 8 points, size 3: exhaustive kicks in (C(8,3)=56); then force the
        // heuristic path on the same instance by replicating the pool until
        // binomial explodes, and check the achieved spread is at least 95%
        // of exhaustive.
        let pool: Vec<BehaviorVector> = (0..8)
            .map(|i| bv((i % 4) as f64 / 3.0, (i / 4) as f64))
            .collect();
        let (_, exact) = best_spread_ensemble(&pool, 3);
        // Heuristic on the identical pool: same optimum must be reachable —
        // build a bigger pool with the same extreme points plus clutter.
        let mut big = pool.clone();
        for i in 0..50 {
            big.push(bv(0.5 + (i as f64) * 1e-4, 0.5));
        }
        let (_, heur) = best_spread_ensemble(&big, 3);
        assert!(heur >= exact * 0.95, "heuristic {heur} vs exact {exact}");
    }

    #[test]
    fn spread_decreases_with_ensemble_size() {
        // Paper Figure 14: best spread declines as size grows.
        let pool = grid_pool();
        let mut prev = f64::INFINITY;
        for size in [2usize, 5, 10, 20] {
            let (_, val) = best_spread_ensemble(&pool, size);
            assert!(val <= prev + 1e-9, "size {size}: {val} > {prev}");
            prev = val;
        }
    }

    #[test]
    fn coverage_increases_with_ensemble_size() {
        // Paper Figure 15: best coverage grows with size.
        let pool = grid_pool();
        let sampler = CoverageSampler::new(5_000, 11);
        let mut prev = 0.0;
        for size in [1usize, 2, 5, 10] {
            let (_, val) = best_coverage_ensemble(&pool, size, &sampler);
            assert!(val >= prev - 1e-9, "size {size}: {val} < {prev}");
            prev = val;
        }
    }

    #[test]
    fn greedy_coverage_picks_center_first() {
        let pool = vec![
            bv(0.0, 0.0),
            BehaviorVector([0.5, 0.5, 0.5, 0.5]),
            bv(1.0, 0.0),
        ];
        let sampler = CoverageSampler::new(10_000, 12);
        let (members, _) = best_coverage_ensemble(&pool, 1, &sampler);
        assert_eq!(members, vec![1]);
    }

    #[test]
    fn top_k_sorted_and_unique() {
        let pool = grid_pool();
        let sampler = CoverageSampler::new(2_000, 13);
        let top = top_k_ensembles(&pool, 3, 10, Objective::Spread, &sampler);
        assert_eq!(top.len(), 10);
        for w in top.windows(2) {
            assert!(w[0].1 >= w[1].1);
        }
        let mut seen = std::collections::HashSet::new();
        for (m, _) in &top {
            assert!(seen.insert(m.clone()), "duplicate ensemble {m:?}");
        }
        // The best beam result should match the dedicated search closely.
        let (_, best) = best_spread_ensemble(&pool, 3);
        assert!(top[0].1 >= best * 0.99);
    }

    #[test]
    fn frequency_counts_labels() {
        let ensembles = vec![(vec![0, 1], 1.0), (vec![1, 2], 0.9)];
        let labels: Vec<String> = ["ALS", "KM", "ALS"].iter().map(|s| s.to_string()).collect();
        let freq = frequency_in_top_ensembles(&ensembles, &labels);
        assert_eq!(freq["ALS"], 2);
        assert_eq!(freq["KM"], 2);
    }

    #[test]
    fn degenerate_inputs() {
        let pool = grid_pool();
        let sampler = CoverageSampler::new(100, 1);
        assert_eq!(best_spread_ensemble(&[], 3).0, Vec::<usize>::new());
        assert_eq!(best_spread_ensemble(&pool, 0).0, Vec::<usize>::new());
        assert_eq!(
            best_coverage_ensemble(&pool, 0, &sampler).0,
            Vec::<usize>::new()
        );
        assert!(top_k_ensembles(&pool, 0, 5, Objective::Spread, &sampler).is_empty());
    }

    #[test]
    fn oversized_request_clamps_to_pool() {
        let pool: Vec<BehaviorVector> = (0..4).map(|i| bv(i as f64 / 3.0, 0.0)).collect();
        let (members, _) = best_spread_ensemble(&pool, 10);
        assert_eq!(members, vec![0, 1, 2, 3]);
    }
}
