//! Shared thread-pool primitives for the G-Scalar workspace.
//!
//! Two executors live here, one per parallelism grain:
//!
//! - [`run_indexed`]: a work-stealing pool over an index-addressed task
//!   grid (whole simulations, milliseconds to minutes each). Used by
//!   `gscalar-sweep` to parallelize *across* experiments.
//! - [`run_epochs`]: a persistent-worker gang executor for barrier-
//!   synchronized epochs (one simulated cycle, microseconds each).
//!   Used by the simulator's parallel engine to parallelize *within*
//!   one simulation, where spawning threads per cycle would dwarf the
//!   work.
//!
//! Both are built on scoped threads and standard-library primitives
//! only.
//!
//! Both executors carry `gscalar-hostprof` probes (steal counters,
//! queue-depth and barrier-wait histograms, epoch-wait phase timers);
//! the probes are no-ops unless host profiling is globally enabled.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::mpsc;
use std::sync::Mutex;
use std::time::Instant;

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
/// path is identical for serial and parallel runs.
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

/// Shared control word for one [`run_epochs`] gang.
struct EpochCtl {
    /// Monotonic epoch counter; a bump releases the waiting workers.
    epoch: AtomicU64,
    /// The epoch's timestamp, published before the bump.
    now: AtomicU64,
    /// Next unclaimed work index for the current epoch.
    next: AtomicUsize,
    /// Workers finished with the current epoch.
    done: AtomicUsize,
    /// Tells workers to exit their wait loop.
    stop: AtomicBool,
    /// A worker died; the coordinator re-raises instead of hanging.
    panicked: AtomicBool,
}

/// Increments `done` even if `work` unwound, so the coordinator's
/// barrier never waits for a dead worker; a panic additionally stops
/// the gang so the coordinator can re-raise.
struct DoneGuard<'a>(&'a EpochCtl);

impl Drop for DoneGuard<'_> {
    fn drop(&mut self) {
        if std::thread::panicking() {
            self.0.panicked.store(true, Ordering::Release);
            self.0.stop.store(true, Ordering::Release);
        }
        self.0.done.fetch_add(1, Ordering::Release);
    }
}

/// Stops the workers when the coordinator leaves the epoch loop — by
/// returning or by unwinding (a panic in `work`/`next` on the caller's
/// thread must not leave workers spinning, or the scope join would
/// deadlock).
struct StopGuard<'a>(&'a EpochCtl);

impl Drop for StopGuard<'_> {
    fn drop(&mut self) {
        self.0.stop.store(true, Ordering::Release);
    }
}

/// Spin briefly, then yield: epochs are microseconds apart, so a short
/// spin usually wins, but a descheduled sibling must not be starved.
#[inline]
fn backoff(spins: &mut u32) {
    *spins += 1;
    if *spins < 128 {
        std::hint::spin_loop();
    } else {
        std::thread::yield_now();
    }
}

/// Runs barrier-synchronized epochs over `count` work items on
/// `threads` persistent workers (0 resolves to the machine's available
/// parallelism).
///
/// Each epoch `t` (starting at `first`) calls `work(i, t)` exactly once
/// for every `i` in `0..count`, distributed dynamically over the
/// workers *and* the calling thread. When all items have completed —
/// the barrier — `next(t)` runs on the calling thread and returns the
/// next epoch's timestamp, or `None` to finish. Everything `work`
/// wrote is visible to `next`, and everything `next` wrote is visible
/// to the following epoch's `work` calls.
///
/// With one thread (or one work item) no threads are spawned and the
/// loop runs inline, so the serial path stays the trivially correct
/// reference.
///
/// # Panics
///
/// A panic in `work` or `next` propagates to the caller; the gang is
/// stopped first so the internal scope join cannot deadlock.
pub fn run_epochs<W, N>(threads: usize, count: usize, first: u64, work: W, mut next: N)
where
    W: Fn(usize, u64) + Sync,
    N: FnMut(u64) -> Option<u64>,
{
    let threads = resolve_threads(threads).min(count.max(1));
    if threads <= 1 {
        let mut now = Some(first);
        while let Some(t) = now {
            for i in 0..count {
                work(i, t);
            }
            now = next(t);
        }
        return;
    }
    let ctl = EpochCtl {
        epoch: AtomicU64::new(0),
        now: AtomicU64::new(0),
        next: AtomicUsize::new(0),
        done: AtomicUsize::new(0),
        stop: AtomicBool::new(false),
        panicked: AtomicBool::new(false),
    };
    let workers = threads - 1;
    std::thread::scope(|scope| {
        for _ in 0..workers {
            let ctl = &ctl;
            let work = &work;
            scope.spawn(move || {
                let mut seen = 0u64;
                'gang: loop {
                    let mut spins = 0u32;
                    // Epoch-release wait: attributed to PoolIdle so the
                    // per-worker barrier cost shows up in phase totals.
                    let idle = hostprof::phase(hostprof::Phase::PoolIdle);
                    let e = loop {
                        if ctl.stop.load(Ordering::Acquire) {
                            break 'gang;
                        }
                        let e = ctl.epoch.load(Ordering::Acquire);
                        if e != seen {
                            break e;
                        }
                        backoff(&mut spins);
                    };
                    drop(idle);
                    seen = e;
                    let guard = DoneGuard(ctl);
                    let now = ctl.now.load(Ordering::Relaxed);
                    loop {
                        let i = ctl.next.fetch_add(1, Ordering::Relaxed);
                        if i >= count {
                            break;
                        }
                        work(i, now);
                    }
                    drop(guard);
                }
                // As in `run_indexed`: the scope does not wait for
                // TLS destructors, so flush the PoolIdle totals here.
                hostprof::flush();
            });
        }
        let _stop = StopGuard(&ctl);
        let mut now = first;
        loop {
            // Publish the epoch (Release) so workers' Acquire load of
            // the bumped counter also sees `now`, the reset claim/done
            // words, and every serial-phase write since the last
            // barrier.
            ctl.now.store(now, Ordering::Relaxed);
            ctl.done.store(0, Ordering::Relaxed);
            ctl.next.store(0, Ordering::Relaxed);
            ctl.epoch.fetch_add(1, Ordering::Release);
            // The coordinator claims alongside the workers.
            loop {
                let i = ctl.next.fetch_add(1, Ordering::Relaxed);
                if i >= count {
                    break;
                }
                work(i, now);
            }
            // Barrier: their Release increments of `done` make every
            // worker's writes visible here.
            let wait_t0 = hostprof::enabled().then(Instant::now);
            {
                let _idle = hostprof::phase(hostprof::Phase::PoolIdle);
                let mut spins = 0u32;
                while ctl.done.load(Ordering::Acquire) < workers {
                    if ctl.panicked.load(Ordering::Acquire) {
                        break;
                    }
                    backoff(&mut spins);
                }
            }
            if let Some(t0) = wait_t0 {
                hostprof::hist_record(
                    hostprof::Hist::BarrierWaitNs,
                    u64::try_from(t0.elapsed().as_nanos()).unwrap_or(u64::MAX),
                );
                hostprof::counter_add(hostprof::Counter::PoolEpochs, 1);
            }
            assert!(
                !ctl.panicked.load(Ordering::Acquire),
                "an epoch worker panicked"
            );
            match next(now) {
                Some(t) => now = t,
                None => break,
            }
        }
    });
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
    fn epochs_cover_every_item_every_epoch() {
        for threads in [1, 2, 4, 8] {
            let cells: Vec<AtomicU64> = (0..11).map(|_| AtomicU64::new(0)).collect();
            let mut epochs = 0u64;
            run_epochs(
                threads,
                cells.len(),
                100,
                |i, now| {
                    cells[i].fetch_add(now, Ordering::SeqCst);
                },
                |now| {
                    epochs += 1;
                    // Uneven steps: the timestamp is the coordinator's
                    // to choose, workers just read it.
                    (epochs < 5).then_some(now + epochs)
                },
            );
            assert_eq!(epochs, 5);
            // Epochs ran at now = 100, 101, 103, 106, 110.
            let expected = 100 + 101 + 103 + 106 + 110;
            for c in &cells {
                assert_eq!(c.load(Ordering::SeqCst), expected, "threads={threads}");
            }
        }
    }

    #[test]
    fn barrier_orders_work_before_next() {
        // `next` observes the exact all-items count each epoch: any
        // work call leaking past the barrier would overshoot, any
        // straggler would undershoot.
        let count = 23;
        let done = AtomicUsize::new(0);
        let mut epoch = 0usize;
        run_epochs(
            4,
            count,
            0,
            |_, _| {
                done.fetch_add(1, Ordering::SeqCst);
            },
            |now| {
                epoch += 1;
                assert_eq!(done.load(Ordering::SeqCst), epoch * count);
                (epoch < 7).then_some(now + 1)
            },
        );
        assert_eq!(done.load(Ordering::SeqCst), 7 * count);
    }

    #[test]
    fn hostprof_telemetry_records_epochs_and_queue_depths() {
        // Telemetry is process-global and other tests may run
        // concurrently (they leave it disabled, so only this test's
        // window records) — assert lower bounds, not exact counts.
        hostprof::reset();
        hostprof::set_enabled(true);
        run_epochs(4, 16, 0, |_, _| {}, |now| (now < 3).then_some(now + 1));
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
        assert!(s.counter(hostprof::Counter::PoolEpochs) >= 4);
        assert!(s.hist(hostprof::Hist::BarrierWaitNs).count() >= 4);
        assert!(s.hist(hostprof::Hist::QueueDepth).count() >= 32);
        // Worker totals are in as soon as the executors return: the
        // coordinator waits once per epoch (4), and each of the 3
        // epoch workers waits once per epoch plus once for the stop.
        assert!(s.phase(hostprof::Phase::PoolIdle).calls >= 4 + 3 * 5);
        assert!(s.phase(hostprof::Phase::Execute).calls >= 32);
        hostprof::reset();
    }

    #[test]
    fn worker_panic_propagates_without_deadlock() {
        let hit = std::panic::catch_unwind(|| {
            run_epochs(
                4,
                16,
                0,
                |i, now| {
                    assert!(!(i == 7 && now == 2), "induced worker failure");
                },
                |now| (now < 5).then_some(now + 1),
            );
        });
        assert!(hit.is_err(), "the induced panic must propagate");
    }

    #[test]
    fn coordinator_panic_releases_workers() {
        let hit = std::panic::catch_unwind(|| {
            run_epochs(
                4,
                16,
                0,
                |_, _| {},
                |now| {
                    assert!(now < 3, "induced coordinator failure");
                    Some(now + 1)
                },
            );
        });
        assert!(hit.is_err(), "the induced panic must propagate");
    }
}
