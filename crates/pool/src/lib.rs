//! The thread pool of the G-Scalar workspace: one executor,
//! [`run_indexed`], a work-stealing pool over an index-addressed task
//! grid (whole simulations, milliseconds to minutes each).
//! `gscalar-sweep` uses it to run jobs in parallel *across* a grid; a
//! simulation itself always runs on one thread.
//!
//! It is built on scoped threads and standard-library primitives only,
//! and carries `gscalar-hostprof` probes (steal counters, a queue-depth
//! histogram) that are no-ops unless host profiling is globally
//! enabled.

use std::collections::VecDeque;
use std::sync::mpsc;
use std::sync::Mutex;

use gscalar_hostprof as hostprof;

/// Runs `work(i)` for every `i` in `0..count` on `threads` workers,
/// invoking `on_done(i, result)` on the calling thread as each task
/// completes (completion order, not index order).
///
/// Tasks are the integers `0..count`; each worker owns a deque seeded
/// round-robin and pops from its *back* (LIFO keeps caches warm for
/// neighboring grid cells), stealing from the *front* of sibling
/// deques when its own runs dry (FIFO steals take the oldest — largest
/// remaining — work). The pool uses plain mutex-guarded deques: the
/// workload is coarse, so lock traffic is noise and a lock-free
/// Chase–Lev deque would buy nothing.
///
/// `threads == 0` resolves to the machine's available parallelism. A
/// single thread still goes through the pool, so the scheduling code
/// path is the same at every thread count.
pub fn run_indexed<R, W, D>(threads: usize, count: usize, work: W, mut on_done: D)
where
    R: Send,
    W: Fn(usize) -> R + Sync,
    D: FnMut(usize, R),
{
    if count == 0 {
        return;
    }
    let threads = resolve_threads(threads).min(count);
    // Round-robin seeding spreads neighboring (usually similarly
    // sized) grid cells across workers.
    let queues: Vec<Mutex<VecDeque<usize>>> = (0..threads)
        .map(|w| Mutex::new((0..count).filter(|i| i % threads == w).collect()))
        .collect();
    let (tx, rx) = mpsc::channel::<(usize, R)>();
    std::thread::scope(|scope| {
        for w in 0..threads {
            let queues = &queues;
            let work = &work;
            let tx = tx.clone();
            scope.spawn(move || {
                while let Some(i) = next_task(queues, w) {
                    // A send can only fail if the receiver is gone,
                    // which means the caller is unwinding already.
                    let _ = tx.send((i, work(i)));
                }
                // Flush before the closure returns: `thread::scope`
                // can return before a worker's TLS destructors run.
                hostprof::flush();
            });
        }
        drop(tx);
        for _ in 0..count {
            let (i, r) = rx.recv().expect("a worker died without reporting");
            on_done(i, r);
        }
    });
}

/// Pops the next task for worker `w`: its own back, else steal the
/// front of the first non-empty sibling. `None` when every deque is
/// empty (no tasks are ever re-enqueued, so empty-everywhere is
/// terminal).
fn next_task(queues: &[Mutex<VecDeque<usize>>], w: usize) -> Option<usize> {
    let (depth, own) = {
        let mut q = queues[w].lock().expect("queue lock");
        (q.len() as u64, q.pop_back())
    };
    hostprof::hist_record(hostprof::Hist::QueueDepth, depth);
    if let Some(i) = own {
        return Some(i);
    }
    let n = queues.len();
    for off in 1..n {
        let victim = (w + off) % n;
        if let Some(i) = queues[victim].lock().expect("queue lock").pop_front() {
            hostprof::counter_add(hostprof::Counter::PoolSteals, 1);
            return Some(i);
        }
        hostprof::counter_add(hostprof::Counter::PoolFailedSteals, 1);
    }
    None
}

/// Resolves a thread-count request: 0 means "all the machine has".
#[must_use]
pub fn resolve_threads(requested: usize) -> usize {
    if requested > 0 {
        requested
    } else {
        std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn executes_every_task_exactly_once() {
        for threads in [1, 2, 5, 16] {
            let hits = (0..37).map(|_| AtomicUsize::new(0)).collect::<Vec<_>>();
            let mut seen = Vec::new();
            run_indexed(
                threads,
                hits.len(),
                |i| {
                    hits[i].fetch_add(1, Ordering::SeqCst);
                    i * 2
                },
                |i, r| {
                    assert_eq!(r, i * 2);
                    seen.push(i);
                },
            );
            assert_eq!(seen.len(), hits.len());
            assert!(hits.iter().all(|h| h.load(Ordering::SeqCst) == 1));
        }
    }

    #[test]
    fn stealing_drains_imbalanced_grids() {
        // One task is 100× the others: with 4 workers the other three
        // must steal the remaining work. Correctness (all done, once)
        // is what's asserted; the imbalance exercises the steal path.
        let done = AtomicUsize::new(0);
        run_indexed(
            4,
            64,
            |i| {
                let spins = if i == 0 { 100_000 } else { 1_000 };
                let mut x = 0u64;
                for k in 0..spins {
                    x = x.wrapping_mul(6364136223846793005).wrapping_add(k);
                }
                done.fetch_add(1, Ordering::SeqCst);
                x
            },
            |_, _| {},
        );
        assert_eq!(done.load(Ordering::SeqCst), 64);
    }

    #[test]
    fn zero_tasks_is_a_no_op() {
        run_indexed(
            4,
            0,
            |_| unreachable!("no tasks"),
            |_, _: ()| unreachable!("no results"),
        );
    }

    #[test]
    fn more_threads_than_tasks_is_fine() {
        let mut n = 0;
        run_indexed(64, 3, |i| i, |_, _| n += 1);
        assert_eq!(n, 3);
    }

    #[test]
    fn hostprof_telemetry_records_queue_depths() {
        // Telemetry is process-global and other tests may run
        // concurrently (they leave it disabled, so only this test's
        // window records) — assert lower bounds, not exact counts.
        hostprof::reset();
        hostprof::set_enabled(true);
        run_indexed(
            4,
            32,
            |i| {
                let _g = hostprof::phase(hostprof::Phase::Execute);
                i
            },
            |_, _| {},
        );
        hostprof::set_enabled(false);
        let s = hostprof::snapshot();
        assert!(s.hist(hostprof::Hist::QueueDepth).count() >= 32);
        // Worker totals are in as soon as the executor returns.
        assert!(s.phase(hostprof::Phase::Execute).calls >= 32);
        hostprof::reset();
    }
}
