//! A CPU of its own for each job worker.
//!
//! Workers sleep between jobs and are woken by an HTTP thread that a
//! client on the same host woke in turn; Linux places each wakee next to
//! its waker. A job mix whose total load fits one core then runs whole
//! runs with every thread on one core and the other idle, two jobs
//! time-slicing: the same CPU time, job times ×1.5–2 (EXPERIMENTS,
//! "Per-task apply timing"). Pinning each worker to a different CPU makes
//! that placement impossible. It is done only when every worker can have
//! a CPU to itself — with more workers than CPUs a fixed placement would
//! idle cores, so they float — and a refusal by the kernel leaves the
//! worker floating.

use std::sync::atomic::{AtomicUsize, Ordering};

/// Where the next server's first worker goes, so that servers sharing a
/// process (tests) do not all start at the same CPU.
static NEXT_SLOT: AtomicUsize = AtomicUsize::new(0);

/// Reserve `workers` consecutive slots; returns the first.
pub(crate) fn reserve_slots(workers: usize) -> usize {
    NEXT_SLOT.fetch_add(workers, Ordering::Relaxed)
}

/// Pin the calling thread to the `slot`-th CPU it is allowed on
/// (wrapping), provided `workers` threads can each have their own.
pub(crate) fn pin_worker(slot: usize, workers: usize) {
    if let Some(cpus) = sys::allowed_cpus().filter(|cpus| workers <= cpus.len()) {
        sys::pin_to(cpus[slot % cpus.len()]);
    }
}

#[cfg(all(target_os = "linux", target_pointer_width = "64"))]
mod sys {
    /// Words of glibc's `cpu_set_t` (1024 CPUs).
    const WORDS: usize = 16;

    extern "C" {
        fn sched_getaffinity(pid: i32, cpusetsize: usize, mask: *mut u64) -> i32;
        fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
    }

    /// CPUs the calling thread may run on, ascending.
    pub fn allowed_cpus() -> Option<Vec<usize>> {
        let mut mask = [0u64; WORDS];
        // SAFETY: `mask` is a writable buffer of exactly the size passed,
        // which is all `sched_getaffinity` asks of its arguments; pid 0 is
        // the calling thread.
        let rc = unsafe { sched_getaffinity(0, std::mem::size_of_val(&mask), mask.as_mut_ptr()) };
        (rc == 0).then(|| {
            (0..WORDS * 64)
                .filter(|cpu| mask[cpu / 64] >> (cpu % 64) & 1 == 1)
                .collect()
        })
    }

    /// Restrict the calling thread to `cpu`; a refusal changes nothing.
    pub fn pin_to(cpu: usize) {
        let mut mask = [0u64; WORDS];
        mask[cpu / 64] = 1 << (cpu % 64);
        // SAFETY: `mask` is a readable buffer of exactly the size passed;
        // pid 0 is the calling thread.
        unsafe {
            sched_setaffinity(0, std::mem::size_of_val(&mask), mask.as_ptr());
        }
    }
}

#[cfg(not(all(target_os = "linux", target_pointer_width = "64")))]
mod sys {
    pub fn allowed_cpus() -> Option<Vec<usize>> {
        None
    }

    pub fn pin_to(_cpu: usize) {}
}

#[cfg(all(test, target_os = "linux", target_pointer_width = "64"))]
mod tests {
    use super::*;

    /// Runs `f` on a thread of its own, so the pin dies with it.
    fn on_fresh_thread<T: Send + 'static>(f: impl FnOnce() -> T + Send + 'static) -> T {
        std::thread::spawn(f).join().expect("probe thread")
    }

    #[test]
    fn a_worker_gets_one_cpu_when_all_can() {
        let before = sys::allowed_cpus().expect("affinity readable");
        for slot in 0..2 * before.len() {
            let expected = before[slot % before.len()];
            let workers = before.len();
            let after = on_fresh_thread(move || {
                pin_worker(slot, workers);
                sys::allowed_cpus()
            });
            assert_eq!(after, Some(vec![expected]));
        }
    }

    #[test]
    fn workers_float_when_there_are_more_of_them_than_cpus() {
        let before = sys::allowed_cpus().expect("affinity readable");
        let workers = before.len() + 1;
        let after = on_fresh_thread(move || {
            pin_worker(0, workers);
            sys::allowed_cpus()
        });
        assert_eq!(after, Some(before));
    }
}
