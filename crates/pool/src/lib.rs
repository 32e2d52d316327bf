//! The job executor of the G-Scalar workspace: [`run_indexed`] runs an
//! index-addressed task grid (whole simulations, milliseconds to
//! minutes each) on scoped workers that claim indices from one shared
//! cursor. `gscalar-sweep` uses it to run jobs in parallel *across* a
//! grid; a simulation itself always runs on one thread.
//!
//! It is built on scoped threads and standard-library primitives only.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::mpsc;

use gscalar_hostprof as hostprof;

/// Runs `work(i)` for every `i` in `0..count` on `threads` workers,
/// invoking `on_done(i, result)` on the calling thread as each task
/// completes (completion order, not index order).
///
/// Workers claim tasks from one shared cursor in descending order,
/// `count - 1` down to `0`, so one thread runs them in exactly that
/// order. The tasks are coarse, so one atomic decrement per task is
/// all the scheduling they need: a worker that finishes early simply
/// claims the next index.
///
/// `threads == 0` resolves to the machine's available parallelism. A
/// single thread still runs on a scoped worker, so the code path is
/// the same at every thread count.
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
    let cursor = AtomicUsize::new(count);
    let (tx, rx) = mpsc::channel::<(usize, R)>();
    std::thread::scope(|scope| {
        for _ in 0..threads {
            let cursor = &cursor;
            let work = &work;
            let tx = tx.clone();
            scope.spawn(move || {
                while let Some(i) = claim(cursor) {
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

/// Claims the next task index from `cursor`, the number of indices not
/// yet claimed: `cursor - 1`, or `None` once every index is claimed.
fn claim(cursor: &AtomicUsize) -> Option<usize> {
    cursor
        .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |n| n.checked_sub(1))
        .ok()
        .map(|n| n - 1)
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
    fn one_thread_runs_tasks_in_descending_order() {
        // The order a one-thread sweep (and its deterministic live
        // stream) depends on.
        let started = std::sync::Mutex::new(Vec::new());
        let mut done = Vec::new();
        run_indexed(
            1,
            6,
            |i| started.lock().unwrap().push(i),
            |i, ()| done.push(i),
        );
        assert_eq!(*started.lock().unwrap(), [5, 4, 3, 2, 1, 0]);
        assert_eq!(done, [5, 4, 3, 2, 1, 0]);
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
    fn worker_phase_totals_are_in_when_the_executor_returns() {
        // Telemetry is process-global and other tests may run
        // concurrently (they leave it disabled, so only this test's
        // window records): assert a lower bound, not an exact count.
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
        assert!(hostprof::snapshot().phase(hostprof::Phase::Execute).calls >= 32);
        hostprof::reset();
    }
}
