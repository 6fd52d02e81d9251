//! A log-bucketed latency histogram in the HDR-histogram family.
//!
//! Robust latency reporting needs percentiles over the full distribution,
//! not an average ("SoK: The Faults in our Graph Benchmarks" catalogs the
//! averaged-latency failure mode). The classic answer is a histogram whose
//! buckets grow geometrically — constant *relative* error across nine
//! orders of magnitude at a few KiB of memory.
//!
//! Bucketing scheme: values below 2^[`SUB_BITS`] get exact unit buckets;
//! every octave `[2^m, 2^(m+1))` above that is split into `2^SUB_BITS`
//! linear sub-buckets, so no recorded value is distorted by more than
//! `2^-SUB_BITS` (≈3.1% at the default precision). Counts are plain
//! `u64`s; reports read the quantile summary (`summary_json`), not the
//! buckets.
//!
//! The histogram is value-unit agnostic; the service records
//! **microseconds**.

use serde_json::json;

/// Sub-bucket precision: each octave is split into `2^SUB_BITS` linear
/// buckets, bounding relative quantization error by `2^-SUB_BITS`.
pub const SUB_BITS: u32 = 5;

const SUB_COUNT: u64 = 1 << SUB_BITS;

/// The quantiles every latency report quotes, as (label, q) pairs.
pub const REPORT_QUANTILES: [(&str, f64); 4] =
    [("p50", 0.50), ("p90", 0.90), ("p99", 0.99), ("p999", 0.999)];

/// A log-bucketed histogram of `u64` values.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LogHistogram {
    /// Bucket counts, indexed by [`bucket_index`]; trailing buckets that
    /// were never touched are simply absent.
    counts: Vec<u64>,
    /// Total recorded values.
    total: u64,
    /// Saturating sum of recorded values (for the mean).
    sum: u64,
    /// Smallest recorded value (`u64::MAX` while empty).
    min: u64,
    /// Largest recorded value.
    max: u64,
}

/// The bucket a value lands in. Values below `2^SUB_BITS` map to exact
/// unit buckets `0..2^SUB_BITS`; larger values map to their octave's
/// linear sub-bucket.
pub fn bucket_index(value: u64) -> usize {
    if value < SUB_COUNT {
        return value as usize;
    }
    let msb = 63 - value.leading_zeros() as u64; // ≥ SUB_BITS here
    let octave = msb - u64::from(SUB_BITS);
    let sub = (value >> octave) - SUB_COUNT; // in [0, SUB_COUNT)
    (SUB_COUNT + octave * SUB_COUNT + sub) as usize
}

/// Inclusive lower bound of a bucket (the smallest value mapping to it).
pub fn bucket_low(index: usize) -> u64 {
    let index = index as u64;
    if index < SUB_COUNT {
        return index;
    }
    let k = index - SUB_COUNT;
    let octave = k / SUB_COUNT;
    let sub = k % SUB_COUNT;
    (SUB_COUNT + sub) << octave
}

/// Exclusive upper bound of a bucket (one past the largest value in it).
pub fn bucket_high(index: usize) -> u64 {
    let index = index as u64;
    if index < SUB_COUNT {
        return index + 1;
    }
    let k = index - SUB_COUNT;
    let octave = k / SUB_COUNT;
    bucket_low(index as usize).saturating_add(1 << octave)
}

impl Default for LogHistogram {
    /// Same as [`LogHistogram::new`] — a derived `Default` would zero the
    /// `min` sentinel and corrupt minimum tracking.
    fn default() -> LogHistogram {
        LogHistogram::new()
    }
}

impl LogHistogram {
    /// An empty histogram.
    pub fn new() -> LogHistogram {
        LogHistogram {
            counts: Vec::new(),
            total: 0,
            sum: 0,
            min: u64::MAX,
            max: 0,
        }
    }

    /// Record one value.
    pub fn record(&mut self, value: u64) {
        let idx = bucket_index(value);
        if self.counts.len() <= idx {
            self.counts.resize(idx + 1, 0);
        }
        self.counts[idx] += 1;
        self.total += 1;
        self.sum = self.sum.saturating_add(value);
        self.min = self.min.min(value);
        self.max = self.max.max(value);
    }

    /// Number of recorded values.
    pub fn count(&self) -> u64 {
        self.total
    }

    /// Whether nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.total == 0
    }

    /// Smallest recorded value (0 when empty).
    pub fn min(&self) -> u64 {
        if self.total == 0 {
            0
        } else {
            self.min
        }
    }

    /// Largest recorded value (0 when empty).
    pub fn max(&self) -> u64 {
        self.max
    }

    /// Mean of recorded values (0.0 when empty). Saturates with `sum` on
    /// astronomically large inputs.
    pub fn mean(&self) -> f64 {
        if self.total == 0 {
            0.0
        } else {
            self.sum as f64 / self.total as f64
        }
    }

    /// The value at quantile `q ∈ [0, 1]`: the smallest recorded value `v`
    /// such that at least `q · count` recordings are ≤ `v`, linearly
    /// interpolated within its bucket and clamped to the recorded
    /// `[min, max]` — so no quantile ever reports below a smaller recorded
    /// value, and `q1 ≤ q2 ⇒ value(q1) ≤ value(q2)`.
    pub fn value_at_quantile(&self, q: f64) -> u64 {
        if self.total == 0 {
            return 0;
        }
        let q = q.clamp(0.0, 1.0);
        // Rank of the target sample, 1-based.
        let target = ((q * self.total as f64).ceil() as u64).clamp(1, self.total);
        let mut cumulative = 0u64;
        for (idx, &count) in self.counts.iter().enumerate() {
            if count == 0 {
                continue;
            }
            if cumulative + count >= target {
                let low = bucket_low(idx);
                let width = bucket_high(idx) - low;
                // Zero-based position of the target rank within this
                // bucket: the bucket's first sample reports `low`.
                let position = (target - cumulative - 1) as f64 / count as f64;
                let value = low as f64 + position * width as f64;
                return (value.floor() as u64).clamp(self.min, self.max);
            }
            cumulative += count;
        }
        self.max
    }

    /// JSON summary: count, min/mean/max, and the report quantiles. Values
    /// are emitted under the unit name given (e.g. `"us"` →
    /// `{"p50_us": …}`).
    pub fn summary_json(&self, unit: &str) -> serde_json::Value {
        let mut obj = serde_json::Map::new();
        obj.insert("count".into(), json!(self.count()));
        obj.insert(format!("min_{unit}"), json!(self.min()));
        obj.insert(format!("mean_{unit}"), json!(self.mean()));
        obj.insert(format!("max_{unit}"), json!(self.max()));
        for (label, q) in REPORT_QUANTILES {
            obj.insert(format!("{label}_{unit}"), json!(self.value_at_quantile(q)));
        }
        serde_json::Value::Object(obj)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};

    #[test]
    fn small_values_get_exact_unit_buckets() {
        for v in 0..SUB_COUNT {
            let idx = bucket_index(v);
            assert_eq!(idx, v as usize);
            assert_eq!(bucket_low(idx), v);
            assert_eq!(bucket_high(idx), v + 1);
        }
    }

    #[test]
    fn bucket_bounds_bracket_their_values() {
        // Every probed value must satisfy low ≤ v < high for its bucket,
        // and the relative bucket width must stay within 2^-SUB_BITS.
        let mut probes = vec![0u64, 1, 31, 32, 33, 63, 64, 100, 1_000];
        for shift in 6..63 {
            probes.push(1u64 << shift);
            probes.push((1u64 << shift) + 1);
            probes.push((1u64 << shift) - 1);
        }
        probes.push(u64::MAX);
        for &v in &probes {
            let idx = bucket_index(v);
            let (low, high) = (bucket_low(idx), bucket_high(idx));
            assert!(low <= v, "low {low} > value {v}");
            // The topmost bucket's exclusive bound saturates at u64::MAX.
            assert!(
                v < high || high == u64::MAX,
                "value {v} outside [{low}, {high})"
            );
            if v >= SUB_COUNT {
                let width = high.saturating_sub(low);
                assert!(
                    (width as f64) <= (low as f64) / (SUB_COUNT as f64) + 1.0,
                    "bucket [{low}, {high}) too wide for value {v}"
                );
            }
        }
    }

    #[test]
    fn bucket_indices_are_monotone_in_value() {
        let mut probes: Vec<u64> = Vec::new();
        for shift in 0..64u32 {
            let base = 1u64 << shift;
            probes.extend([base, base.saturating_add(1), base.saturating_add(base / 2)]);
        }
        probes.sort_unstable();
        let mut last = 0usize;
        for v in probes {
            let idx = bucket_index(v);
            assert!(idx >= last, "index regressed at value {v}");
            last = idx;
        }
    }

    #[test]
    fn quantiles_of_a_known_distribution() {
        // 1..=100 recorded once each: p50 ≈ 50, p99 ≈ 99, exact at this
        // scale because values < 2^SUB_BITS*… fall in narrow buckets.
        let mut h = LogHistogram::new();
        for v in 1..=100u64 {
            h.record(v);
        }
        assert_eq!(h.count(), 100);
        assert_eq!(h.min(), 1);
        assert_eq!(h.max(), 100);
        let p50 = h.value_at_quantile(0.50);
        let p90 = h.value_at_quantile(0.90);
        let p99 = h.value_at_quantile(0.99);
        // 3.1% relative quantization error bound.
        assert!((47..=53).contains(&p50), "p50 = {p50}");
        assert!((87..=94).contains(&p90), "p90 = {p90}");
        assert!((96..=100).contains(&p99), "p99 = {p99}");
        assert_eq!(h.value_at_quantile(0.0), 1, "q=0 is the minimum");
        assert_eq!(h.value_at_quantile(1.0), 100, "q=1 is the maximum");
    }

    #[test]
    fn single_value_reports_itself_at_every_quantile() {
        let mut h = LogHistogram::new();
        h.record(7_777);
        for q in [0.0, 0.5, 0.99, 0.999, 1.0] {
            let v = h.value_at_quantile(q);
            assert_eq!(v, 7_777, "q={q} reported {v}");
        }
    }

    #[test]
    fn empty_histogram_is_all_zeros() {
        let h = LogHistogram::new();
        assert_eq!(h.count(), 0);
        assert_eq!(h.min(), 0);
        assert_eq!(h.max(), 0);
        assert_eq!(h.mean(), 0.0);
        assert_eq!(h.value_at_quantile(0.99), 0);
    }

    #[test]
    fn summary_json_has_the_report_quantiles() {
        let mut h = LogHistogram::new();
        for v in 1..=1000u64 {
            h.record(v);
        }
        let s = h.summary_json("us");
        assert_eq!(s["count"], 1000);
        for key in [
            "min_us", "mean_us", "max_us", "p50_us", "p90_us", "p99_us", "p999_us",
        ] {
            assert!(s.get(key).is_some(), "missing {key} in {s}");
        }
        assert!(s["p50_us"].as_u64().unwrap() <= s["p99_us"].as_u64().unwrap());
    }

    /// Seeded cases per property test; a failure names its seed and case.
    const CASES: u64 = 256;
    const SEED: u64 = 0x415;

    /// Quantiles are monotone in q and never report below a smaller
    /// recorded value (or above a larger one): for any recorded set,
    /// every reported quantile lies in [min, max] and ordering of
    /// quantile points implies ordering of reported values.
    #[test]
    fn quantiles_are_monotone_and_bounded() {
        for case in 0..CASES {
            let seed = SEED + case;
            let mut rng = SmallRng::seed_from_u64(seed);
            let values: Vec<u64> = (0..rng.gen_range(1..200))
                .map(|_| rng.gen_range(0..u64::MAX))
                .collect();
            let mut qs: Vec<f64> = (0..rng.gen_range(2..20))
                .map(|_| rng.gen_range(0.0..=1.0))
                .collect();
            let mut h = LogHistogram::new();
            let mut min = u64::MAX;
            let mut max = 0u64;
            for &v in &values {
                h.record(v);
                min = min.min(v);
                max = max.max(v);
            }
            qs.sort_by(|a, b| a.partial_cmp(b).unwrap());
            let mut last = 0u64;
            for (i, &q) in qs.iter().enumerate() {
                let v = h.value_at_quantile(q);
                let at = format!("seed {seed}, case {case}: quantile {q} reported {v}");
                assert!(v >= min, "{at} < min {min}");
                assert!(v <= max, "{at} > max {max}");
                if i > 0 {
                    assert!(v >= last, "{at} < previous {last}");
                }
                last = v;
            }
        }
    }
}
