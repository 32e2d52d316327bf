//! The in-process parallel execution engine: runs each cycle's SM steps
//! of [`crate::Gpu::run_with`] on a small pool of persistent worker
//! threads while producing **byte-identical** results to the serial
//! engine at any thread count. Everything between two cycles is the
//! shared driver's (see [`crate::gpu`]); this module only steps the SMs
//! against buffered ports and replays their effects at the barrier.
//!
//! # Determinism contract
//!
//! One simulated cycle is one *epoch*. Within an epoch every SM runs
//! [`Sm::cycle_port`] independently against
//!
//! - a read-only snapshot of global memory as of the epoch start,
//!   overlaid with the SM's *own* buffered stores (byte-granular, so
//!   within one SM even overlapping unaligned accesses behave exactly
//!   as under the serial engine), and
//! - a private [`EpochBuffer`] that defers every shared
//!   [`MemSystem`] request and a private trace sink / profiler fork.
//!
//! At the epoch barrier the coordinator thread applies the buffered
//! effects **in (cycle, sm-id, issue-order) order** — exactly the
//! order the serial engine's `for sm in &mut sms` loop would have
//! produced them. Because the serial SM only touches the shared
//! hierarchy at dispatch time and nothing later in its own cycle reads
//! the outcome, replaying the deferred requests at the barrier
//! reproduces every L1/L2/DRAM contention decision, every stat, every
//! trace event (deferred `Mem`/`ExecSpan` events are spliced back at
//! their recorded sink positions), and every profile counter bit for
//! bit.
//!
//! The one *modeling* relaxation: a store issued by SM *i* becomes
//! visible to loads of SM *j* (*j* ≠ *i*) only at the next cycle,
//! whereas the serial loop exposes it to SMs *j* > *i* within the same
//! cycle. Same-cycle cross-SM communication is already meaningless
//! under the simulator's memory timing model (a load completes tens of
//! cycles after issue), no benchmark relies on it, and the equivalence
//! suite compares engines on every benchmark and on randomized
//! kernels.

use std::ops::ControlFlow;
use std::sync::{Mutex, RwLock};

use gscalar_hostprof as hostprof;
use gscalar_profile::Profiler;
use gscalar_trace::{Record, TraceEvent, TraceSink, Tracer};

use crate::gpu::{step, BudgetExceeded, Driver, Instruments, Outcome, Shards};
use crate::memory::GlobalMemory;
use crate::memsys::MemSystem;
use crate::sm::{EpochBuffer, MemPort, Sm};
use crate::stats::Stats;

/// A per-epoch trace sink local to one SM; its position is spliced
/// against [`crate::sm::PendingMem::trace_pos`] at the barrier.
#[derive(Default)]
struct EpochSink {
    events: Vec<Record>,
}

impl TraceSink for EpochSink {
    fn record(&mut self, now: u64, ev: TraceEvent) {
        self.events.push(Record { now, ev });
    }

    fn position(&self) -> u64 {
        self.events.len() as u64
    }
}

/// One SM plus its private epoch state. Workers lock exactly one slot
/// at a time; the coordinator only touches slots between epochs.
struct SmSlot {
    sm: Sm,
    buf: EpochBuffer,
    sink: EpochSink,
    profiler: Profiler,
    /// This SM's outcome of the epoch, settled at the barrier.
    outcome: Outcome,
}

impl Shards for &[Mutex<SmSlot>] {
    fn each(&mut self, mut f: impl FnMut(&mut Sm)) {
        for slot in self.iter() {
            f(&mut slot.lock().expect("slot lock").sm);
        }
    }
}

/// The parallel engine's part of [`crate::Gpu::run_with`], entered when
/// the resolved [`GpuConfig::exec_threads`](crate::GpuConfig) exceeds
/// 1: each epoch steps every SM on the pool against buffered ports,
/// then the barrier replays and settles them in id order and hands the
/// cycle to the shared `driver`.
///
/// # Panics
///
/// Panics under the same conditions as the serial engine (unfittable
/// CTA, watchdog); panics from worker threads propagate to the caller.
pub(crate) fn run(
    driver: &mut Driver<'_>,
    threads: usize,
    sms: Vec<Sm>,
    memsys: &mut MemSystem,
    gmem: &mut GlobalMemory,
    ins: &mut Instruments<'_>,
) -> Result<Stats, BudgetExceeded> {
    let kernel = driver.kernel();
    let slots: Vec<Mutex<SmSlot>> = sms
        .into_iter()
        .map(|sm| {
            Mutex::new(SmSlot {
                sm,
                buf: EpochBuffer::default(),
                sink: EpochSink::default(),
                profiler: ins.profiler.fork(),
                outcome: Outcome::default(),
            })
        })
        .collect();
    // Workers read global memory during an epoch, the coordinator
    // writes the buffered stores at the barrier.
    let gmem = RwLock::new(gmem);
    let tracing = ins.tracer.is_on();
    let mut result = None;
    // One SM's cycle against its private buffers and the shared
    // read-only memory snapshot; runs on workers and the coordinator
    // alike.
    let work = |i: usize, now: u64| {
        let mut guard = slots[i].lock().expect("slot lock");
        let slot = &mut *guard;
        let gmem = gmem.read().expect("gmem read lock");
        let mut local = if tracing {
            Tracer::new(&mut slot.sink)
        } else {
            Tracer::off()
        };
        let mut port = MemPort::Buffered {
            gmem: &gmem,
            buf: &mut slot.buf,
        };
        slot.outcome = step(
            &mut slot.sm,
            now,
            kernel,
            &mut port,
            &mut local,
            &mut slot.profiler,
        );
    };
    // The barrier: replay and settle every SM in sm-id order, then end
    // the cycle exactly as the serial engine does.
    let barrier = |now: u64| {
        // The whole barrier is Barrier host time; nested guards
        // (Memsys in resolve_pending, CtaLaunch, IdleScan, Snapshot)
        // carve out their own shares.
        let _barrier_phase = hostprof::phase(hostprof::Phase::Barrier);
        {
            let mut gmem = gmem.write().expect("gmem write lock");
            for slot in &slots {
                let mut guard = slot.lock().expect("slot lock");
                let slot = &mut *guard;
                replay(slot, memsys, &mut gmem, &mut ins.tracer);
                driver.settle(&mut slot.sm, slot.outcome);
            }
        }
        match driver.end_cycle(now, &mut &slots[..], ins) {
            ControlFlow::Continue(next) => Some(next),
            ControlFlow::Break(end) => {
                result = Some(end);
                None
            }
        }
    };
    gscalar_pool::run_epochs(threads, slots.len(), 0, work, barrier);
    for slot in slots {
        let slot = slot.into_inner().expect("workers have exited");
        ins.profiler.absorb(slot.profiler);
    }
    result.expect("the driver ends every run")
}

/// Applies one SM's deferred effects of the epoch: its local trace,
/// paused at every deferred memory request's recorded position so its
/// Mem/ExecSpan events land exactly where the serial engine emitted
/// them; the requests themselves; and the buffered stores.
fn replay(
    slot: &mut SmSlot,
    memsys: &mut MemSystem,
    gmem: &mut GlobalMemory,
    tracer: &mut Tracer<'_>,
) {
    let SmSlot {
        sm,
        buf,
        sink,
        profiler,
        ..
    } = slot;
    let mut replayed = 0usize;
    for p in buf.take_pending() {
        while (replayed as u64) < p.trace_pos {
            let r = &sink.events[replayed];
            tracer.emit_with(r.now, || r.ev.clone());
            replayed += 1;
        }
        sm.resolve_pending(p, memsys, tracer, profiler);
    }
    for r in &sink.events[replayed..] {
        tracer.emit_with(r.now, || r.ev.clone());
    }
    sink.events.clear();
    buf.apply_writes(gmem);
}
