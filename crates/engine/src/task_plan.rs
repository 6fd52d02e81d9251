//! Work-balanced task planning for the scatter/exchange phase.
//!
//! The engine's chunk geometry is fixed by the vertex count alone (it pins
//! every floating-point reduction order), so parallel balance has to come
//! from how chunks are *grouped* into tasks. [`plan_tasks`] is the one
//! grouping rule, used by the pull scatter, the push scatter and the push
//! exchange alike. A task is a run of consecutive chunks that
//!
//! * never spans more than the cache window ([`TaskBounds::window_chunks`],
//!   `segment_bytes` of inbox slots — an *upper* bound),
//! * never crosses a shard boundary ([`TaskBounds::shard_chunks`]), and
//! * carries about `total_work / (TASKS_PER_THREAD · threads)` units of
//!   work, where work is whatever the caller measures per chunk: in-edge
//!   slots for pull, scatter-edge slots for push, bucketed messages for the
//!   exchange.
//!
//! A hub chunk heavier than the target becomes a task of its own, the light
//! tail is coalesced, and anything under [`MIN_TASK_WORK`] stays one task.
//! Chunks inside a task run ascending and the per-chunk combine order is
//! untouched, so **every plan yields bit-identical results** — the plan may
//! depend on the pool size without the results doing so.
//!
//! The rest of the module is what finer tasks need so they do not buy their
//! parallelism back in `malloc`: run-lifetime per-task buffers
//! ([`ScatterScratch`]) and a counting-sort [`Outbox`] whose messages the
//! exchange *moves* to their destination task ([`split_runs`]).

use crate::soa::{SlotChunk, SlotTable};
use graphmine_graph::VertexId;
use rayon::prelude::*;
use std::ops::Range;

/// Tasks the planner aims for per pool thread: enough that a thread which
/// drew a light task takes another instead of idling.
pub(crate) const TASKS_PER_THREAD: usize = 8;

/// Work (edge slots or messages) below which a task is not split further:
/// a few microseconds of edge visits, the scale of one task hand-off.
pub(crate) const MIN_TASK_WORK: u64 = 4096;

/// What bounds a task, besides its share of the work.
#[derive(Debug, Clone, Copy)]
pub(crate) struct TaskBounds {
    /// Most consecutive chunk indices one task may span: the chunks whose
    /// inbox slots fit `segment_bytes` (at least one). `usize::MAX` for
    /// tasks that write no inbox slots.
    pub window_chunks: usize,
    /// Chunks per shard; a task never holds chunks of two shards.
    /// `usize::MAX` when unsharded.
    pub shard_chunks: usize,
    /// Threads of the pool the tasks will run on.
    pub threads: usize,
}

impl TaskBounds {
    /// Bounds for tasks over `num_chunks` chunks of `cs` vertices whose
    /// inbox slots cost `slot_bytes` each. A shard count above the chunk
    /// count degenerates to one chunk per shard; 0/1 shards disable the
    /// boundary.
    pub fn new(
        cs: usize,
        slot_bytes: usize,
        segment_bytes: usize,
        num_chunks: usize,
        num_shards: usize,
        threads: usize,
    ) -> TaskBounds {
        TaskBounds {
            window_chunks: (segment_bytes / (cs * slot_bytes).max(1)).max(1),
            shard_chunks: if num_shards >= 2 {
                num_chunks.div_ceil(num_shards.min(num_chunks))
            } else {
                usize::MAX
            },
            threads,
        }
    }

    /// The same shard boundary without a cache window, for tasks that read
    /// chunks but write no inbox slots (the push scatter's source side).
    pub fn without_window(self) -> TaskBounds {
        TaskBounds {
            window_chunks: usize::MAX,
            ..self
        }
    }
}

/// Group ascending `(chunk_index, work)` pairs into tasks; returns each
/// task's index range into `chunks`. The ranges tile `chunks` in order.
///
/// Greedy: a task closes before the chunk that would take it past its
/// target (or out of its window or shard), so only a single-chunk task can
/// weigh more than the target. The target starts at the fair share and is
/// recomputed from the work and task slots still left, so the chunks after
/// a hub are cut finer rather than leaving slots unused; it never drops
/// below [`MIN_TASK_WORK`].
pub(crate) fn plan_tasks(chunks: &[(usize, u64)], bounds: TaskBounds) -> Vec<Range<usize>> {
    let total: u64 = chunks.iter().map(|c| c.1).sum();
    let slots = (bounds.threads.max(1) * TASKS_PER_THREAD) as u64;
    let fair = (total / slots).max(MIN_TASK_WORK);
    let mut tasks: Vec<Range<usize>> = Vec::new();
    let mut remaining = total;
    let mut start = 0;
    while start < chunks.len() {
        let slots_left = slots.saturating_sub(tasks.len() as u64).max(1);
        let target = (remaining / slots_left).clamp(MIN_TASK_WORK, fair);
        let (first, mut work) = chunks[start];
        let mut end = start + 1;
        while let Some(&(ci, w)) = chunks.get(end) {
            if work + w > target
                || ci - first >= bounds.window_chunks
                || ci / bounds.shard_chunks != first / bounds.shard_chunks
            {
                break;
            }
            work += w;
            end += 1;
        }
        remaining -= work;
        tasks.push(start..end);
        start = end;
    }
    tasks
}

/// [`plan_tasks`] over owned per-chunk items: `chunks` ascending by chunk
/// index, `work(ci, item)` that chunk's weight.
pub(crate) fn into_tasks<T>(
    chunks: Vec<(usize, T)>,
    work: impl Fn(usize, &T) -> u64,
    bounds: TaskBounds,
) -> Vec<Vec<(usize, T)>> {
    let weights: Vec<(usize, u64)> = chunks.iter().map(|(ci, t)| (*ci, work(*ci, t))).collect();
    let mut rest = chunks.into_iter();
    plan_tasks(&weights, bounds)
        .into_iter()
        .map(|task| rest.by_ref().take(task.len()).collect())
        .collect()
}

/// Pair each ascending chunk index in `ids` with its mutable chunk of
/// `data`. One forward pass over the chunk iterator — O(num_chunks) pointer
/// arithmetic, no allocation beyond the output.
pub(crate) fn select_chunks_mut<T>(
    data: &mut [T],
    cs: usize,
    ids: impl IntoIterator<Item = usize>,
) -> Vec<&mut [T]> {
    let mut out = Vec::new();
    let mut chunks = data.chunks_mut(cs);
    let mut next = 0usize;
    for ci in ids {
        let chunk = chunks.nth(ci - next).expect("chunk index out of range");
        next = ci + 1;
        out.push(chunk);
    }
    out
}

/// [`select_chunks_mut`] over both planes of a [`SlotTable`], zipped back
/// into per-chunk [`SlotChunk`] views.
pub(crate) fn select_slot_chunks_mut<T: Default>(
    table: &mut SlotTable<T>,
    cs: usize,
    ids: impl IntoIterator<Item = usize> + Clone,
) -> Vec<SlotChunk<'_, T>> {
    let present = select_chunks_mut(&mut table.present, cs, ids.clone());
    let values = select_chunks_mut(&mut table.values, cs, ids);
    present
        .into_iter()
        .zip(values)
        .map(|(p, v)| SlotChunk::from_planes(p, v))
        .collect()
}

/// One task's reusable buffers.
#[derive(Default)]
pub(crate) struct TaskBuf {
    /// Batch-decode target for compressed rows (plain rows bypass it).
    pub row: Vec<VertexId>,
    /// Vertices that received their first message from this task,
    /// ascending; drained into the next frontier after the phase.
    pub hits: Vec<VertexId>,
}

/// One push-scatter task's messages.
///
/// Scatter pushes into `msgs`; [`Outbox::bucket`] then counting-sorts them
/// in place by destination chunk, keeping emission order within a chunk
/// (that order is part of the determinism contract). [`Outbox::begin`]
/// sizes the buffers to the task's planned edge work, so a pooled outbox
/// holds at most twice what its current wave can send, never the capacity
/// of the heaviest wave it has served.
pub(crate) struct Outbox<M> {
    /// The messages: in emission order (source vertex ascending, then edge
    /// order) until [`Outbox::bucket`], ascending by destination chunk
    /// after it. Once the exchange has moved the payloads out, what is left
    /// are defaults for [`Outbox::begin`] to clear.
    pub msgs: Vec<(VertexId, M)>,
    /// Scratch of [`Outbox::bucket`]: each message's destination chunk,
    /// then its position.
    order: Vec<u32>,
    /// First destination chunk this outbox targets.
    lo: usize,
    /// `starts[c - lo]..starts[c - lo + 1]` is chunk `c`'s run in `msgs`;
    /// spans only the chunks actually targeted. Empty when there are no
    /// messages.
    starts: Vec<usize>,
}

impl<M> Default for Outbox<M> {
    fn default() -> Outbox<M> {
        Outbox {
            msgs: Vec::new(),
            order: Vec::new(),
            lo: 0,
            starts: Vec::new(),
        }
    }
}

impl<M> Outbox<M> {
    /// Empty the outbox for a task that plans `planned` edge visits, with
    /// room for that many messages and at most twice that: a task sends at
    /// most one message per edge it visits, so the buffers never grow
    /// during the scatter, and a wave's outboxes together hold at most
    /// twice its planned work (which is at most |V| plus one vertex's row)
    /// whatever earlier waves needed.
    pub fn begin(&mut self, planned: usize) -> &mut Vec<(VertexId, M)> {
        self.msgs.clear();
        self.order.clear();
        fit(&mut self.msgs, planned);
        fit(&mut self.order, planned);
        &mut self.msgs
    }

    /// Group `msgs` by destination chunk, stably and in place: one pass
    /// notes every message's chunk, a count and a prefix sum over the
    /// targeted chunk range turn chunks into positions, and the permutation
    /// is applied by cycles — O(messages + chunk range), 4 bytes of scratch
    /// per message, no allocation once the buffers have grown.
    pub fn bucket(&mut self, cs: usize) {
        self.starts.clear();
        if self.msgs.is_empty() {
            return;
        }
        assert!(self.msgs.len() <= u32::MAX as usize, "outbox overflow");
        let chunk_of = |m: &(VertexId, M)| m.0 / cs as VertexId;
        self.order.clear();
        self.order.extend(self.msgs.iter().map(chunk_of));
        let (mut lo, mut hi) = (u32::MAX, 0);
        for &c in &self.order {
            lo = lo.min(c);
            hi = hi.max(c);
        }
        self.lo = lo as usize;
        self.starts.resize((hi - lo) as usize + 2, 0);
        for &c in &self.order {
            self.starts[(c - lo) as usize + 1] += 1;
        }
        for i in 1..self.starts.len() {
            self.starts[i] += self.starts[i - 1];
        }
        // Handing out positions in emission order (which keeps the sort
        // stable) advances `starts[i]` from chunk i's start to its end,
        // the next chunk's start: afterwards the table is its own left
        // shift, and one rotation restores it.
        for c in &mut self.order {
            let cursor = &mut self.starts[(*c - lo) as usize];
            *c = *cursor as u32;
            *cursor += 1;
        }
        self.starts.rotate_right(1);
        self.starts[0] = 0;
        // Every swap puts one message where it belongs.
        for i in 0..self.msgs.len() {
            while self.order[i] as usize != i {
                let to = self.order[i] as usize;
                self.msgs.swap(i, to);
                self.order.swap(i, to);
            }
        }
    }

    /// Number of bucketed messages bound for chunks `<= ci`.
    fn upto(&self, ci: usize) -> usize {
        match self.starts.last() {
            Some(_) if ci >= self.lo => self.starts[(ci - self.lo + 1).min(self.starts.len() - 1)],
            _ => 0,
        }
    }
}

/// Give the empty `buf` a capacity between `n` and `2n`. A buffer in that
/// band is kept: refitting it to every wave's exact work cost throughput
/// and resident memory in allocator churn and page faults. A short one is
/// replaced by a fresh allocation of `n` rather than grown, which would
/// copy the dead contents; a long one is shrunk to `n`.
fn fit<T>(buf: &mut Vec<T>, n: usize) {
    if buf.capacity() < n {
        *buf = Vec::with_capacity(n);
    } else if buf.capacity() > 2 * n {
        buf.shrink_to(n);
    }
}

/// Bucketed messages per destination chunk, summed over `outboxes`:
/// `(lo, counts)` with `counts[c - lo]` the messages bound for chunk `c`.
/// Empty `counts` when nothing was sent.
pub(crate) fn dest_chunk_counts<M>(outboxes: &[Outbox<M>]) -> (usize, Vec<u64>) {
    let sending = || outboxes.iter().filter(|ob| !ob.starts.is_empty());
    let Some(lo) = sending().map(|ob| ob.lo).min() else {
        return (0, Vec::new());
    };
    let end = sending()
        .map(|ob| ob.lo + ob.starts.len() - 1)
        .max()
        .unwrap_or(lo);
    let mut counts = vec![0u64; end - lo];
    for ob in sending() {
        for (i, run) in ob.starts.windows(2).enumerate() {
            counts[ob.lo + i - lo] += (run[1] - run[0]) as u64;
        }
    }
    (lo, counts)
}

/// Hand every destination task the messages bound for it, by ownership.
///
/// `last_chunks[t]` is the last chunk of destination task `t`; the tasks
/// ascend and together hold every chunk that has a message. The result is
/// task-major: `runs[t * outboxes.len() + o]` is outbox `o`'s run for task
/// `t`, so `runs.chunks_mut(outboxes.len())` gives each task one mutable
/// run per outbox, in source order, to move messages out of.
pub(crate) fn split_runs<'a, M>(
    outboxes: &'a mut [Outbox<M>],
    last_chunks: &[usize],
) -> Vec<&'a mut [(VertexId, M)]> {
    let cuts: Vec<usize> = last_chunks
        .iter()
        .flat_map(|&last| outboxes.iter().map(move |ob| ob.upto(last)))
        .collect();
    let mut rest: Vec<(usize, &'a mut [(VertexId, M)])> = outboxes
        .iter_mut()
        .map(|ob| (0, &mut ob.msgs[..]))
        .collect();
    let mut runs = Vec::with_capacity(cuts.len());
    for task_cuts in cuts.chunks(rest.len().max(1)) {
        for ((taken, tail), &cut) in rest.iter_mut().zip(task_cuts) {
            let (run, after) = std::mem::take(tail).split_at_mut(cut - *taken);
            *taken = cut;
            *tail = after;
            runs.push(run);
        }
    }
    runs
}

/// Run-lifetime buffers of the scatter/exchange phase: one [`TaskBuf`] per
/// task, grown to the largest task count seen, and one [`Outbox`] per task
/// of the current push wave ([`wave_outboxes`]), each sized to its task's
/// planned edge work — reused every iteration and bounded by the number of
/// tasks plus twice one wave's planned work, never by |E|.
pub(crate) struct ScatterScratch<M> {
    pub bufs: Vec<TaskBuf>,
    pub outboxes: Vec<Outbox<M>>,
}

impl<M> Default for ScatterScratch<M> {
    fn default() -> ScatterScratch<M> {
        ScatterScratch {
            bufs: Vec::new(),
            outboxes: Vec::new(),
        }
    }
}

/// The first `n` entries of a buffer pool, grown on demand.
pub(crate) fn pooled<T: Default>(pool: &mut Vec<T>, n: usize) -> &mut [T] {
    if pool.len() < n {
        pool.resize_with(n, T::default);
    }
    &mut pool[..n]
}

/// The outboxes of a push wave of `n` tasks: the pool cut to exactly `n`
/// entries, so no outbox past this wave keeps an earlier wave's buffers.
pub(crate) fn wave_outboxes<M>(pool: &mut Vec<Outbox<M>>, n: usize) -> &mut [Outbox<M>] {
    pool.truncate(n);
    pooled(pool, n)
}

/// Run `task` over every item of `work` — in order on this thread, or on
/// the pool — and add up the counters each returns.
pub(crate) fn sum_tasks<W: Send>(
    sequential: bool,
    work: Vec<W>,
    task: impl Fn(W) -> [u64; 3] + Sync + Send,
) -> [u64; 3] {
    let add = |a: [u64; 3], b: [u64; 3]| [a[0] + b[0], a[1] + b[1], a[2] + b[2]];
    if sequential {
        work.into_iter().map(task).fold([0; 3], add)
    } else {
        work.into_par_iter().map(task).reduce(|| [0; 3], add)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn bounds(window_chunks: usize, shard_chunks: usize, threads: usize) -> TaskBounds {
        TaskBounds {
            window_chunks,
            shard_chunks,
            threads,
        }
    }

    /// Deterministic weights: SplitMix64 draws in `1..=max`.
    fn weights(n: usize, max: u64, mut seed: u64) -> Vec<(usize, u64)> {
        (0..n)
            .map(|ci| {
                seed = seed.wrapping_add(0x9E37_79B9_7F4A_7C15);
                let mut z = seed;
                z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
                z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
                (ci, (z ^ (z >> 31)) % max + 1)
            })
            .collect()
    }

    fn work(chunks: &[(usize, u64)], task: &Range<usize>) -> u64 {
        chunks[task.clone()].iter().map(|c| c.1).sum()
    }

    /// The invariants every plan must satisfy, whatever the input.
    fn check(chunks: &[(usize, u64)], b: TaskBounds) -> Vec<Range<usize>> {
        let tasks = plan_tasks(chunks, b);
        let mut next = 0;
        for t in &tasks {
            assert_eq!(t.start, next, "tasks tile the input without gaps");
            assert!(t.end > t.start, "no empty task");
            next = t.end;
            let (first, last) = (chunks[t.start].0, chunks[t.end - 1].0);
            assert!(last - first < b.window_chunks, "task exceeds the window");
            assert_eq!(
                first / b.shard_chunks,
                last / b.shard_chunks,
                "task crosses a shard boundary"
            );
        }
        assert_eq!(next, chunks.len());
        let total: u64 = chunks.iter().map(|c| c.1).sum();
        let fair = (total / (b.threads * TASKS_PER_THREAD) as u64).max(MIN_TASK_WORK);
        for t in tasks.iter().filter(|t| t.len() > 1) {
            assert!(
                work(chunks, t) <= 2 * fair,
                "multi-chunk task {t:?} weighs {} against a target of {fair}",
                work(chunks, t)
            );
        }
        tasks
    }

    #[test]
    fn plans_tile_and_respect_window_and_shards() {
        for seed in 0..40u64 {
            let n = 1 + (seed as usize * 37) % 400;
            let chunks = weights(n, 20_000, seed);
            // Sparse selections too: every third chunk dropped.
            let sparse: Vec<(usize, u64)> =
                chunks.iter().copied().filter(|c| c.0 % 3 != 1).collect();
            for threads in [1, 2, 8] {
                for window in [1, 7, 59, usize::MAX] {
                    for shards in [usize::MAX, 129, 33, 1] {
                        check(&chunks, bounds(window, shards, threads));
                        check(&sparse, bounds(window, shards, threads));
                    }
                }
            }
        }
        assert!(plan_tasks(&[], bounds(4, usize::MAX, 2)).is_empty());
    }

    #[test]
    fn enough_tasks_whenever_the_work_allows() {
        // "Allows" means: every chunk weighs at least the grain (so the
        // grain never binds), none dwarfs the rest (weights within 1–9
        // grains, so no task is forced to swallow the whole light tail),
        // and there are chunks to spare.
        for seed in 0..40u64 {
            for threads in [1, 2, 8] {
                let slots = threads * TASKS_PER_THREAD;
                let n = 2 * slots + (seed as usize * 53) % 400;
                let mut chunks = weights(n, 8 * MIN_TASK_WORK, seed);
                for c in &mut chunks {
                    c.1 += MIN_TASK_WORK;
                }
                let tasks = check(&chunks, bounds(usize::MAX, usize::MAX, threads));
                assert!(
                    tasks.len() >= slots,
                    "{} tasks for {n} chunks on {threads} threads",
                    tasks.len()
                );
            }
        }
        // Fewer chunks than slots, each above the fair share: one each.
        let chunks: Vec<(usize, u64)> = (0..5).map(|ci| (ci, 50_000)).collect();
        assert_eq!(check(&chunks, bounds(usize::MAX, usize::MAX, 2)).len(), 5);
    }

    #[test]
    fn a_hub_chunk_becomes_a_task_of_its_own() {
        // The measured skew: 257 chunks of 2 M in-slots, one of them 35×
        // the mean of the others.
        let mut chunks: Vec<(usize, u64)> = (0..257).map(|ci| (ci, 6_850)).collect();
        chunks[0].1 = 35 * 6_850;
        for threads in [2, 8] {
            let tasks = check(&chunks, bounds(537, usize::MAX, threads));
            assert_eq!(tasks[0], 0..1, "hub shares a task on {threads} threads");
            assert!(tasks.len() >= threads * TASKS_PER_THREAD);
            // The tail is coalesced, not left one chunk per task.
            assert!(tasks.len() < 257);
        }
    }

    #[test]
    fn too_little_work_stays_one_task() {
        let chunks: Vec<(usize, u64)> = (0..32).map(|ci| (ci, 100)).collect();
        for threads in [1, 2, 8] {
            assert_eq!(
                plan_tasks(&chunks, bounds(usize::MAX, usize::MAX, threads)),
                vec![0..32]
            );
        }
        // Window and shard still cut it.
        assert_eq!(plan_tasks(&chunks, bounds(8, usize::MAX, 2)).len(), 4);
        assert_eq!(plan_tasks(&chunks, bounds(usize::MAX, 16, 2)).len(), 2);
    }

    #[test]
    fn bounds_from_geometry() {
        // 488-vertex chunks of unit messages (1 presence byte per slot):
        // the default window holds 537 chunks; f64 messages, 59.
        let b = TaskBounds::new(488, 1, 256 * 1024, 257, 0, 2);
        assert_eq!((b.window_chunks, b.shard_chunks), (537, usize::MAX));
        assert_eq!(
            TaskBounds::new(488, 9, 256 * 1024, 257, 0, 2).window_chunks,
            59
        );
        // A zero window clamps to one chunk; shards split the chunk space
        // evenly, and more shards than chunks means one chunk each.
        let b = TaskBounds::new(488, 9, 0, 257, 8, 2);
        assert_eq!((b.window_chunks, b.shard_chunks), (1, 33));
        assert_eq!(TaskBounds::new(64, 9, 0, 3, 8, 2).shard_chunks, 1);
        assert_eq!(b.without_window().window_chunks, usize::MAX);
        assert_eq!(b.without_window().shard_chunks, 33);
    }

    #[test]
    fn into_tasks_keeps_items_with_their_chunks() {
        let chunks: Vec<(usize, char)> = vec![(0, 'a'), (2, 'b'), (3, 'c'), (9, 'd')];
        let tasks = into_tasks(chunks, |ci, _| ci as u64 * 1000, bounds(4, usize::MAX, 1));
        let flat: Vec<(usize, char)> = tasks.iter().flatten().copied().collect();
        assert_eq!(flat, vec![(0, 'a'), (2, 'b'), (3, 'c'), (9, 'd')]);
        assert_eq!(tasks[0], vec![(0, 'a'), (2, 'b')]);
    }

    #[test]
    fn select_chunks_mut_picks_the_listed_chunks() {
        let mut data: Vec<u32> = (0..10).collect();
        let picked = select_chunks_mut(&mut data, 3, [0, 2, 3]);
        assert_eq!(picked.len(), 3);
        assert_eq!(picked[0], &[0, 1, 2]);
        assert_eq!(picked[1], &[6, 7, 8]);
        assert_eq!(picked[2], &[9]);
    }

    #[test]
    fn bucket_is_a_stable_sort_by_destination_chunk() {
        let mut ob: Outbox<u32> = Outbox::default();
        // (target, payload): chunk = target / 4.
        ob.begin(6)
            .extend([(9, 0), (2, 1), (8, 2), (21, 3), (3, 4), (10, 5)]);
        ob.bucket(4);
        assert_eq!(
            ob.msgs,
            vec![(2, 1), (3, 4), (9, 0), (8, 2), (10, 5), (21, 3)]
        );
        assert_eq!(ob.lo, 0);
        assert_eq!(ob.starts, vec![0, 2, 2, 5, 5, 5, 6]);
        assert_eq!(
            [ob.upto(0), ob.upto(1), ob.upto(2), ob.upto(4)],
            [2, 2, 5, 5]
        );
        assert_eq!([ob.upto(5), ob.upto(99)], [6, 6]);
        // Reuse: an empty round leaves nothing behind.
        ob.begin(0);
        ob.bucket(4);
        assert!(ob.msgs.is_empty() && ob.starts.is_empty());
        assert_eq!(ob.upto(7), 0);
    }

    /// Capacity of the pooled outboxes' buffers, in messages.
    fn held(outboxes: &[Outbox<u32>]) -> usize {
        outboxes
            .iter()
            .map(|ob| ob.msgs.capacity().max(ob.order.capacity()))
            .sum()
    }

    #[test]
    fn a_light_wave_after_a_heavy_one_holds_only_its_own_work() {
        let mut s: ScatterScratch<u32> = ScatterScratch::default();
        let wave = |s: &mut ScatterScratch<u32>, planned: &[usize]| {
            let outboxes = wave_outboxes(&mut s.outboxes, planned.len());
            for (ob, &work) in outboxes.iter_mut().zip(planned) {
                let out = ob.begin(work);
                // Every planned edge sends: the fullest a task can get.
                out.extend((0..work as u32).map(|v| (v, v)));
                ob.bucket(64);
            }
        };
        // Heavy: four tasks of 5 000 edge visits, one a 9 000-edge hub row.
        wave(&mut s, &[5_000, 9_000, 5_000, 5_000]);
        assert!(held(&s.outboxes) >= 24_000);
        // Light: two tasks of 300 edge visits.
        wave(&mut s, &[300, 300]);
        assert!(
            held(&s.outboxes) <= 2 * 600,
            "outboxes hold {} messages after a wave of 600",
            held(&s.outboxes)
        );
        wave(&mut s, &[100, 100, 100, 100]);
        assert!(held(&s.outboxes) <= 2 * 400);
        // A wave within twice the last keeps the buffers as they are.
        let kept: Vec<*const (VertexId, u32)> =
            s.outboxes.iter().map(|ob| ob.msgs.as_ptr()).collect();
        wave(&mut s, &[60, 100, 190, 100]);
        let now: Vec<_> = s.outboxes.iter().map(|ob| ob.msgs.as_ptr()).collect();
        assert_eq!(now[..2], kept[..2]);
        assert_eq!(now[3], kept[3]);
    }

    #[test]
    fn split_runs_hands_each_task_its_messages_in_source_order() {
        let mut outboxes: Vec<Outbox<u32>> = (0..3).map(|_| Outbox::default()).collect();
        outboxes[0].msgs = vec![(1, 10), (5, 11), (13, 12)];
        outboxes[2].msgs = vec![(4, 30), (6, 31), (12, 32), (14, 33)];
        for ob in &mut outboxes {
            ob.bucket(4);
        }
        let (lo, counts) = dest_chunk_counts(&outboxes);
        assert_eq!((lo, counts), (0, vec![1, 3, 0, 3]));
        // Two destination tasks: chunks {0, 1} and {3}.
        let mut runs = split_runs(&mut outboxes, &[1, 3]);
        assert_eq!(runs.len(), 6);
        let payloads = |run: &[(VertexId, u32)]| run.iter().map(|m| m.1).collect::<Vec<_>>();
        assert_eq!(payloads(runs[0]), [10, 11]);
        assert_eq!(payloads(runs[1]), []);
        assert_eq!(payloads(runs[2]), [30, 31]);
        assert_eq!(payloads(runs[3]), [12]);
        assert_eq!(payloads(runs[5]), [32, 33]);
        // Messages are moved out, not cloned.
        assert_eq!(std::mem::take(&mut runs[3][0].1), 12);
        assert_eq!(dest_chunk_counts::<u32>(&[]), (0, Vec::new()));
    }

    #[test]
    fn pool_grows_to_the_task_count_and_is_reused() {
        let mut s: ScatterScratch<u32> = ScatterScratch::default();
        pooled(&mut s.bufs, 3)[2].hits.push(7);
        assert_eq!(pooled(&mut s.bufs, 2).len(), 2);
        assert_eq!(pooled(&mut s.outboxes, 5).len(), 5);
        assert_eq!(pooled(&mut s.bufs, 3)[2].hits, vec![7]);
    }

    #[test]
    fn sum_tasks_adds_counters_on_either_path() {
        for sequential in [true, false] {
            let work: Vec<u64> = (1..=100).collect();
            assert_eq!(sum_tasks(sequential, work, |w| [w, 1, 0]), [5050, 100, 0]);
        }
    }
}
