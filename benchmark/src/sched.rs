//! Seeded request schedules. A schedule is built completely before the
//! clock starts: what arrival `i` asks for is a pure function of
//! `(seed, i)`, so which sender thread picks it up — and when — cannot
//! change what is sent.
//!
//! Classes and algorithms are *stratified*, not drawn independently: each
//! block of arrivals holds every class in exactly its configured share (in
//! a seeded order), and each class walks its algorithm list round-robin
//! (from a seeded start). Two seeds therefore send the same multiset of
//! requests in a different order, and a tail percentile does not move
//! because one seed happened to draw more heavy jobs than another.

/// SplitMix64: tiny, fast, and good enough to order classes and draw gaps.
#[derive(Debug, Clone)]
pub struct SplitMix64(u64);

impl SplitMix64 {
    /// A generator seeded with `seed`.
    pub fn new(seed: u64) -> SplitMix64 {
        SplitMix64(seed)
    }

    /// Next 64 bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Uniform in `[0, n)`; `n` must be positive. The modulo bias is
    /// below 2⁻⁵⁰ for the small `n` used here.
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }

    /// An independent stream for `(stream, index)` under `seed`.
    pub fn fork(seed: u64, stream: u64, index: u64) -> SplitMix64 {
        let mut mix = SplitMix64::new(seed ^ stream.wrapping_mul(0xD6E8_FEB8_6659_FD93));
        let base = mix.next_u64();
        SplitMix64::new(base ^ index.wrapping_mul(0xA076_1D64_78BD_642F))
    }

    /// Fisher–Yates shuffle.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.below(i as u64 + 1) as usize);
        }
    }
}

/// The traffic classes of the service workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Class {
    /// One of the 14 algorithms on a small pinned-seed input: cache-hot.
    SmallHot,
    /// PR/CC/SSSP on the uploaded stored graph, checkpointing.
    StoredMedium,
    /// PR on a freshly seeded generated graph: always a cache miss.
    GenCold,
}

impl Class {
    /// All classes, in reporting order.
    pub const ALL: [Class; 3] = [Class::SmallHot, Class::StoredMedium, Class::GenCold];

    /// Name used in metric names.
    pub fn name(&self) -> &'static str {
        match self {
            Class::SmallHot => "small-hot",
            Class::StoredMedium => "stored-medium",
            Class::GenCold => "gen-cold",
        }
    }
}

/// One request of a schedule.
#[derive(Debug, Clone, PartialEq)]
pub struct Arrival {
    /// Position in the schedule.
    pub index: usize,
    /// Intended send time, seconds after the clock starts (0 for
    /// closed-loop schedules, which send as fast as replies allow).
    pub at_s: f64,
    /// Traffic class.
    pub class: Class,
    /// Which algorithm of the class's list (index into it).
    pub pick: usize,
    /// Submitting tenant (index), for multi-tenant servers.
    pub tenant: usize,
    /// Seed for classes that generate a fresh input per request.
    pub fresh_seed: u64,
}

/// How many arrivals of each class one block of the schedule holds.
#[derive(Debug, Clone, Copy)]
pub struct Mix {
    /// [`Class::SmallHot`] arrivals per block.
    pub small_hot: usize,
    /// [`Class::StoredMedium`] arrivals per block.
    pub stored_medium: usize,
    /// [`Class::GenCold`] arrivals per block.
    pub gen_cold: usize,
}

impl Mix {
    fn count(&self, class: Class) -> usize {
        match class {
            Class::SmallHot => self.small_hot,
            Class::StoredMedium => self.stored_medium,
            Class::GenCold => self.gen_cold,
        }
    }

    fn block_len(&self) -> usize {
        (self.small_hot + self.stored_medium + self.gen_cold).max(1)
    }
}

/// How many algorithms each class walks through.
#[derive(Debug, Clone, Copy)]
pub struct Picks {
    /// Algorithms in the small-hot list.
    pub small_hot: usize,
    /// Algorithms in the stored-medium list.
    pub stored_medium: usize,
}

/// What arrival `index` of the schedule for `seed` asks for (its send
/// time is the schedule's business). Tenants take turns.
pub fn arrival(seed: u64, index: usize, mix: Mix, picks: Picks, tenants: usize) -> Arrival {
    let block_len = mix.block_len();
    let (block, slot) = (index / block_len, index % block_len);
    // The block's classes in their exact shares, in this block's order.
    let mut classes: Vec<Class> = Class::ALL
        .into_iter()
        .flat_map(|c| std::iter::repeat_n(c, mix.count(c)))
        .collect();
    if classes.is_empty() {
        classes.push(Class::SmallHot);
    }
    SplitMix64::fork(seed, 1, block as u64).shuffle(&mut classes);
    let class = classes[slot];
    // How many arrivals of this class came before this one.
    let rank = block * mix.count(class) + classes[..slot].iter().filter(|&&c| c == class).count();
    let list_len = match class {
        Class::SmallHot => picks.small_hot,
        Class::StoredMedium => picks.stored_medium,
        Class::GenCold => 1,
    }
    .max(1);
    // Round-robin over a seeded ordering of the class's algorithm list.
    let mut order: Vec<usize> = (0..list_len).collect();
    SplitMix64::fork(seed, 2, class as u64).shuffle(&mut order);
    Arrival {
        index,
        at_s: 0.0,
        class,
        pick: order[rank % list_len],
        tenant: index % tenants.max(1),
        fresh_seed: SplitMix64::fork(seed, 3, index as u64).next_u64() >> 16,
    }
}

/// An open-loop schedule of exactly `round(rate × seconds)` arrivals whose
/// times are those of a Poisson process conditioned on that count:
/// exponential gaps, rescaled so the schedule fills `seconds`. Fixing the
/// count keeps throughput from following the seed.
pub fn poisson_schedule(
    seed: u64,
    rate: f64,
    seconds: f64,
    mix: Mix,
    picks: Picks,
    tenants: usize,
) -> Vec<Arrival> {
    let count = (rate * seconds).round().max(1.0) as usize;
    // count + 1 gaps: the last one separates the final arrival from the
    // end of the window. 1 - u is in (0, 1], so the logarithm is finite.
    let gaps: Vec<f64> = (0..=count)
        .map(|i| -(1.0 - SplitMix64::fork(seed, 4, i as u64).next_f64()).ln())
        .collect();
    let total: f64 = gaps.iter().sum();
    let mut elapsed = 0.0;
    (0..count)
        .map(|index| {
            elapsed += gaps[index];
            Arrival {
                at_s: seconds * elapsed / total,
                ..arrival(seed, index, mix, picks, tenants)
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Mutex;

    const MIX: Mix = Mix {
        small_hot: 12,
        stored_medium: 5,
        gen_cold: 3,
    };
    const PICKS: Picks = Picks {
        small_hot: 14,
        stored_medium: 3,
    };

    fn count(schedule: &[Arrival], class: Class) -> usize {
        schedule.iter().filter(|a| a.class == class).count()
    }

    #[test]
    fn equal_seeds_give_equal_schedules_and_other_seeds_another_order() {
        let a = poisson_schedule(42, 11.0, 20.0, MIX, PICKS, 4);
        let b = poisson_schedule(42, 11.0, 20.0, MIX, PICKS, 4);
        let c = poisson_schedule(7, 11.0, 20.0, MIX, PICKS, 4);
        assert_eq!(a, b);
        assert_ne!(a, c);
        // The count is fixed by rate × seconds, the times fill the window.
        assert_eq!((a.len(), c.len()), (220, 220));
        assert!(a.windows(2).all(|w| w[0].at_s < w[1].at_s));
        assert!(a[0].at_s > 0.0 && a[219].at_s < 20.0);
        // Every seed sends the same shares of every class …
        for schedule in [&a, &c] {
            assert_eq!(count(schedule, Class::SmallHot), 132);
            assert_eq!(count(schedule, Class::StoredMedium), 55);
            assert_eq!(count(schedule, Class::GenCold), 33);
            // … spreads each class evenly over its algorithms …
            for pick in 0..3 {
                let n = schedule
                    .iter()
                    .filter(|x| x.class == Class::StoredMedium && x.pick == pick)
                    .count();
                assert!((18..=19).contains(&n), "stored pick {pick}: {n}");
            }
            // … and gives tenants equal turns.
            for t in 0..4 {
                assert_eq!(schedule.iter().filter(|x| x.tenant == t).count(), 55);
            }
        }
        // Fresh seeds are fresh.
        let mut seeds: Vec<u64> = a.iter().map(|x| x.fresh_seed).collect();
        seeds.sort_unstable();
        seeds.dedup();
        assert_eq!(seeds.len(), 220);
    }

    #[test]
    fn an_arrival_depends_on_seed_and_index_not_on_who_picks_it_up() {
        let schedule: Vec<Arrival> = (0..400).map(|i| arrival(9, i, MIX, PICKS, 4)).collect();
        // Two "senders" race for indices; whatever each one ends up with,
        // the union is the schedule, entry for entry.
        let next = AtomicUsize::new(0);
        let seen = Mutex::new(vec![None; schedule.len()]);
        std::thread::scope(|s| {
            for _ in 0..2 {
                s.spawn(|| loop {
                    let i = next.fetch_add(1, Ordering::Relaxed);
                    if i >= schedule.len() {
                        break;
                    }
                    // Recomputed on the picking thread, not read from the list.
                    seen.lock().unwrap()[i] = Some(arrival(9, i, MIX, PICKS, 4));
                    std::thread::yield_now();
                });
            }
        });
        let seen: Vec<Arrival> = seen
            .into_inner()
            .unwrap()
            .into_iter()
            .map(Option::unwrap)
            .collect();
        assert_eq!(seen, schedule);
        // A longer schedule starts with the shorter one.
        let open = poisson_schedule(9, 10.0, 10.0, MIX, PICKS, 4);
        for (a, b) in open.iter().zip(&schedule) {
            assert_eq!(
                (a.class, a.pick, a.tenant, a.fresh_seed),
                (b.class, b.pick, b.tenant, b.fresh_seed)
            );
        }
    }

    #[test]
    fn a_single_class_mix_walks_every_algorithm_evenly() {
        let hot = Mix {
            small_hot: 1,
            stored_medium: 0,
            gen_cold: 0,
        };
        let picks: Vec<usize> = (0..28).map(|i| arrival(3, i, hot, PICKS, 1).pick).collect();
        let mut first = picks[..14].to_vec();
        first.sort_unstable();
        assert_eq!(first, (0..14).collect::<Vec<_>>());
        assert_eq!(picks[..14], picks[14..]);
    }

    #[test]
    fn splitmix_is_reproducible() {
        let mut a = SplitMix64::new(1);
        let mut b = SplitMix64::new(1);
        assert_eq!(a.next_u64(), b.next_u64());
        let x = a.next_f64();
        assert!((0.0..1.0).contains(&x));
        assert!(a.below(7) < 7);
    }
}
