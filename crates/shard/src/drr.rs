//! Deficit-round-robin fair queueing across tenant lanes.
//!
//! One FIFO lane per tenant, served round-robin with a per-lane deficit
//! counter refilled by the lane's weight (its *quantum*) each time the
//! lane reaches the head of the rotation. Jobs have unit cost, so a lane
//! with weight `w` drains up to `w` consecutive jobs per visit and the
//! long-run service share of backlogged lanes is proportional to weight —
//! a lane with a 1000-job backlog cannot push another lane's next job
//! more than one full rotation away. Within a lane, order is strictly
//! FIFO.
//!
//! It is the service's only queue: the job queue has one lane per tenant
//! (one lane in all on a server without tenants, where DRR reduces to
//! plain FIFO), and the connection queue has one lane.
//! [`DrrQueue::pop`] blocks until an item arrives or the queue is closed
//! *and* drained (graceful shutdown finishes queued work),
//! [`DrrQueue::push`] refuses items once closed, and
//! [`DrrQueue::close_and_clear`] abandons the backlog for hard shutdown.
//! Locks are poison-tolerant: a panicking worker must not wedge the queue
//! for everyone else.

use std::collections::VecDeque;
use std::sync::{Condvar, Mutex, MutexGuard};

/// One tenant's FIFO plus its DRR bookkeeping.
struct Lane<T> {
    items: VecDeque<T>,
    /// Deficit refill per rotation visit (the tenant's weight, ≥ 1).
    quantum: u64,
    /// Pops remaining in the current visit; 0 = next visit refills.
    deficit: u64,
}

struct DrrState<T> {
    lanes: Vec<Lane<T>>,
    /// Rotation order over lanes that currently hold items.
    active: VecDeque<usize>,
    len: usize,
    closed: bool,
}

/// A closeable blocking MPMC queue with deficit-round-robin service
/// across weighted lanes. See the module docs for the exact semantics.
pub struct DrrQueue<T> {
    state: Mutex<DrrState<T>>,
    available: Condvar,
}

impl<T> DrrQueue<T> {
    /// Queue with one lane per entry of `weights` (each clamped to ≥ 1).
    pub fn new(weights: &[u32]) -> DrrQueue<T> {
        let lanes = weights
            .iter()
            .map(|&w| Lane {
                items: VecDeque::new(),
                quantum: u64::from(w.max(1)),
                deficit: 0,
            })
            .collect();
        DrrQueue {
            state: Mutex::new(DrrState {
                lanes,
                active: VecDeque::new(),
                len: 0,
                closed: false,
            }),
            available: Condvar::new(),
        }
    }

    /// Enqueue `item` on `lane`. Returns `false` (dropping nothing —
    /// the caller keeps the item) when the queue is closed or the lane
    /// does not exist.
    pub fn push(&self, lane: usize, item: T) -> bool {
        let mut state = self.lock();
        if state.closed || lane >= state.lanes.len() {
            return false;
        }
        if state.lanes[lane].items.is_empty() {
            state.active.push_back(lane);
        }
        state.lanes[lane].items.push_back(item);
        state.len += 1;
        drop(state);
        self.available.notify_one();
        true
    }

    /// Dequeue the next item under DRR order, blocking while the queue
    /// is open but empty. Returns `None` once the queue is closed and
    /// drained.
    pub fn pop(&self) -> Option<T> {
        let mut state = self.lock();
        loop {
            if state.len > 0 {
                return Some(Self::pop_locked(&mut state));
            }
            if state.closed {
                return None;
            }
            state = self
                .available
                .wait(state)
                .unwrap_or_else(|e| e.into_inner());
        }
    }

    fn pop_locked(state: &mut DrrState<T>) -> T {
        let lane_idx = *state.active.front().expect("len > 0 implies active lane");
        let (item, now_empty, visit_done) = {
            let lane = &mut state.lanes[lane_idx];
            if lane.deficit == 0 {
                lane.deficit = lane.quantum;
            }
            let item = lane.items.pop_front().expect("active lane holds items");
            lane.deficit -= 1;
            let now_empty = lane.items.is_empty();
            if now_empty {
                // Lane leaves the rotation; its visit (and deficit) ends.
                lane.deficit = 0;
            }
            (item, now_empty, lane.deficit == 0)
        };
        state.len -= 1;
        if now_empty {
            state.active.pop_front();
        } else if visit_done {
            // Visit exhausted: rotate the lane to the back.
            state.active.pop_front();
            state.active.push_back(lane_idx);
        }
        item
    }

    /// Stop accepting new items; blocked `pop`s drain the backlog then
    /// observe `None` (graceful shutdown).
    pub fn close(&self) {
        self.lock().closed = true;
        self.available.notify_all();
    }

    /// Close and abandon the backlog (hard shutdown). Returns how many
    /// queued items were dropped.
    pub fn close_and_clear(&self) -> usize {
        let mut state = self.lock();
        state.closed = true;
        let dropped = state.len;
        for lane in &mut state.lanes {
            lane.items.clear();
            lane.deficit = 0;
        }
        state.active.clear();
        state.len = 0;
        drop(state);
        self.available.notify_all();
        dropped
    }

    /// Total queued items across all lanes.
    pub fn len(&self) -> usize {
        self.lock().len
    }

    /// Queued items on one lane (0 for unknown lanes) — the admission
    /// quota check.
    pub fn lane_len(&self, lane: usize) -> usize {
        let state = self.lock();
        state.lanes.get(lane).map_or(0, |l| l.items.len())
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    pub fn is_closed(&self) -> bool {
        self.lock().closed
    }

    fn lock(&self) -> MutexGuard<'_, DrrState<T>> {
        self.state.lock().unwrap_or_else(|e| e.into_inner())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;
    use std::thread;
    use std::time::Duration;

    #[test]
    fn single_lane_is_fifo() {
        let q = DrrQueue::new(&[1]);
        for i in 0..5 {
            assert!(q.push(0, i));
        }
        let order: Vec<i32> = (0..5).map(|_| q.pop().unwrap()).collect();
        assert_eq!(order, vec![0, 1, 2, 3, 4]);
    }

    #[test]
    fn equal_weights_alternate_between_backlogged_lanes() {
        let q = DrrQueue::new(&[1, 1]);
        for i in 0..3 {
            q.push(0, (0, i));
            q.push(1, (1, i));
        }
        let order: Vec<(usize, i32)> = (0..6).map(|_| q.pop().unwrap()).collect();
        assert_eq!(order, vec![(0, 0), (1, 0), (0, 1), (1, 1), (0, 2), (1, 2)]);
    }

    #[test]
    fn weights_set_the_service_ratio() {
        let q = DrrQueue::new(&[3, 1]);
        for i in 0..6 {
            q.push(0, (0, i));
        }
        for i in 0..2 {
            q.push(1, (1, i));
        }
        let order: Vec<(usize, i32)> = (0..8).map(|_| q.pop().unwrap()).collect();
        // Three from lane 0, one from lane 1, repeat.
        assert_eq!(
            order,
            vec![
                (0, 0),
                (0, 1),
                (0, 2),
                (1, 0),
                (0, 3),
                (0, 4),
                (0, 5),
                (1, 1)
            ]
        );
    }

    #[test]
    fn a_flooded_lane_cannot_starve_a_light_one() {
        let q = DrrQueue::new(&[1, 1, 1, 1]);
        for i in 0..1000 {
            q.push(0, (0usize, i));
        }
        q.push(3, (3usize, 0));
        // The light tenant's job is served within one rotation, not after
        // the 1000-deep backlog.
        let served_at = (0..1001)
            .map(|_| q.pop().unwrap())
            .position(|(lane, _)| lane == 3)
            .unwrap();
        assert!(served_at <= 1, "light lane served at position {served_at}");
    }

    #[test]
    fn lane_rejoining_the_rotation_goes_to_the_back() {
        let q = DrrQueue::new(&[1, 1]);
        q.push(0, (0, 0));
        q.push(1, (1, 0));
        assert_eq!(q.pop(), Some((0, 0)));
        // Lane 0 emptied and left; it rejoins behind lane 1.
        q.push(0, (0, 1));
        assert_eq!(q.pop(), Some((1, 0)));
        assert_eq!(q.pop(), Some((0, 1)));
    }

    #[test]
    fn close_drains_then_yields_none_and_refuses_pushes() {
        let q = DrrQueue::new(&[1, 1]);
        assert!(q.push(0, 1));
        assert!(q.push(1, 2));
        q.close();
        assert!(!q.push(0, 3));
        assert_eq!(q.pop(), Some(1));
        assert_eq!(q.pop(), Some(2));
        assert_eq!(q.pop(), None);
        assert!(q.is_closed());
    }

    #[test]
    fn close_and_clear_reports_the_dropped_backlog() {
        let q = DrrQueue::new(&[1, 1]);
        q.push(0, 1);
        q.push(0, 2);
        q.push(1, 3);
        assert_eq!(q.lane_len(0), 2);
        assert_eq!(q.close_and_clear(), 3);
        assert!(q.is_empty());
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn push_to_unknown_lane_is_refused() {
        let q = DrrQueue::new(&[1]);
        assert!(!q.push(5, 1));
        assert!(q.is_empty());
    }

    #[test]
    fn blocked_pop_wakes_on_push_from_another_thread() {
        let q = Arc::new(DrrQueue::new(&[1, 1]));
        let popper = {
            let q = Arc::clone(&q);
            thread::spawn(move || q.pop())
        };
        thread::sleep(Duration::from_millis(20));
        assert!(q.push(1, 42));
        assert_eq!(popper.join().unwrap(), Some(42));
    }

    #[test]
    fn blocked_pop_wakes_on_close() {
        let q: Arc<DrrQueue<i32>> = Arc::new(DrrQueue::new(&[1]));
        let popper = {
            let q = Arc::clone(&q);
            thread::spawn(move || q.pop())
        };
        thread::sleep(Duration::from_millis(20));
        q.close();
        assert_eq!(popper.join().unwrap(), None);
    }

    #[test]
    fn blocked_consumers_wake_on_close() {
        let q: Arc<DrrQueue<u32>> = Arc::new(DrrQueue::new(&[1]));
        let consumers: Vec<_> = (0..4)
            .map(|_| {
                let q = Arc::clone(&q);
                thread::spawn(move || q.pop())
            })
            .collect();
        thread::sleep(Duration::from_millis(20));
        q.close();
        for c in consumers {
            assert_eq!(c.join().unwrap(), None);
        }
    }

    #[test]
    fn many_producers_many_consumers_deliver_everything() {
        let q: Arc<DrrQueue<u64>> = Arc::new(DrrQueue::new(&[1]));
        let producers: Vec<_> = (0..4u64)
            .map(|p| {
                let q = Arc::clone(&q);
                thread::spawn(move || {
                    for i in 0..100 {
                        assert!(q.push(0, p * 1000 + i));
                    }
                })
            })
            .collect();
        let consumers: Vec<_> = (0..4)
            .map(|_| {
                let q = Arc::clone(&q);
                thread::spawn(move || {
                    let mut got = Vec::new();
                    while let Some(x) = q.pop() {
                        got.push(x);
                    }
                    got
                })
            })
            .collect();
        for p in producers {
            p.join().unwrap();
        }
        q.close();
        let mut all: Vec<u64> = consumers
            .into_iter()
            .flat_map(|c| c.join().unwrap())
            .collect();
        all.sort_unstable();
        let expected: Vec<u64> = (0..4u64)
            .flat_map(|p| (0..100).map(move |i| p * 1000 + i))
            .collect();
        assert_eq!(all, expected);
    }
}
