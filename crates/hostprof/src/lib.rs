//! Host-side self-profiling for the simulator process itself.
//!
//! `gscalar-trace`/`gscalar-metrics`/`gscalar-profile` give the
//! *simulated* GPU its observability; this crate is the same idea
//! pointed at the *host*: where does wall-clock time go while the
//! simulator runs? It provides:
//!
//! * [`phase`] — scoped monotonic phase timers (RAII guards over
//!   [`Instant`]) with **exclusive** (self-time) attribution: a nested
//!   phase pauses its parent, so the per-phase totals sum to the
//!   instrumented wall time instead of double-counting.
//! * [`timeline_scope`] — coarse named wall-time spans exported as
//!   Chrome trace-event JSON ([`chrome_timeline_json`]) so a host-time
//!   timeline loads in `chrome://tracing` next to the simulated-cycle
//!   trace.
//! * [`snapshot`] — a consistent read of everything above, exportable
//!   into a [`MetricsRegistry`] under `host/...` paths (which the
//!   regression comparator treats as informational, never a hard
//!   gate).
//!
//! # The off-path contract
//!
//! Profiling is **globally disabled by default**. Every entry point
//! first checks one relaxed atomic load and returns a no-op guard (or
//! does nothing) when disabled — no clock reads, no locks, no
//! thread-local access — so instrumented code paths cost on the order
//! of a nanosecond per probe until someone opts in with
//! [`set_enabled`]. Enabled or not, the profiler only *reads* clocks
//! and *writes* its own accumulators: it can never perturb simulation
//! results (`tests/parallel_determinism.rs` proves manifests, traces,
//! and profiles stay byte-identical with profiling on).
//!
//! Accumulation is thread-local and lock-free on the hot path; a
//! thread's totals flush into process-wide atomics when [`flush`] /
//! [`snapshot`] runs on it, or at the latest when the thread exits.
//! Scoped workers must call [`flush`] as their last step:
//! `std::thread::scope` can return before their thread-local
//! destructors have run.
//!
//! # Examples
//!
//! ```
//! use gscalar_hostprof as hp;
//!
//! hp::reset();
//! hp::set_enabled(true);
//! {
//!     let _outer = hp::phase(hp::Phase::Execute);
//!     let _inner = hp::phase(hp::Phase::Compressor); // pauses Execute
//! }
//! hp::set_enabled(false);
//! let snap = hp::snapshot();
//! assert_eq!(snap.phase(hp::Phase::Execute).calls, 1);
//! assert_eq!(snap.phase(hp::Phase::Compressor).calls, 1);
//! ```

use std::cell::RefCell;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

use gscalar_metrics::MetricsRegistry;
use gscalar_trace::export::ChromeTraceBuilder;

/// One slice of the host-time taxonomy. Variants mirror the
/// simulator's per-cycle pipeline stages plus the engine-level work
/// around them; see DESIGN.md "Host-side observability" for what each
/// covers.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Phase {
    /// Draining finished executions and releasing scoreboards.
    Writeback,
    /// Operand-collector bank arbitration.
    OperandCollect,
    /// Dispatching ready instructions to functional units.
    Dispatch,
    /// Scheduler warp picks and stall classification.
    Scheduler,
    /// Instruction execution (exclusive of the nested phases below).
    Execute,
    /// Register compression/decompression: `regmeta` reads and writes,
    /// the byte-wise/BDI comparison chains.
    Compressor,
    /// Memory-hierarchy accesses (L1/MSHR/L2/DRAM model).
    Memsys,
    /// SIMT reconvergence-stack operations on control flow.
    Simt,
    /// CTA scheduling: initial fill and refills.
    CtaLaunch,
    /// The idle-warp polling loop: scanning SMs for the next event.
    IdleScan,
    /// Interval snapshot and observer-sample emission.
    Snapshot,
    /// Unused: nothing records it since the simulator has one engine.
    /// Kept because the `benchmark/` package reads it.
    Barrier,
    /// Unused, like [`Phase::Barrier`], and kept for the same reason.
    PoolIdle,
    /// Harness overhead: everything inside an instrumented region not
    /// claimed by a more specific phase.
    Harness,
}

/// Number of [`Phase`] variants.
pub const PHASE_COUNT: usize = 14;

impl Phase {
    /// Every phase, in display order.
    pub const ALL: [Phase; PHASE_COUNT] = [
        Phase::Writeback,
        Phase::OperandCollect,
        Phase::Dispatch,
        Phase::Scheduler,
        Phase::Execute,
        Phase::Compressor,
        Phase::Memsys,
        Phase::Simt,
        Phase::CtaLaunch,
        Phase::IdleScan,
        Phase::Snapshot,
        Phase::Barrier,
        Phase::PoolIdle,
        Phase::Harness,
    ];

    /// Stable snake_case name (used in metric paths).
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Phase::Writeback => "writeback",
            Phase::OperandCollect => "operand_collect",
            Phase::Dispatch => "dispatch",
            Phase::Scheduler => "scheduler",
            Phase::Execute => "execute",
            Phase::Compressor => "compressor",
            Phase::Memsys => "memsys",
            Phase::Simt => "simt",
            Phase::CtaLaunch => "cta_launch",
            Phase::IdleScan => "idle_scan",
            Phase::Snapshot => "snapshot",
            Phase::Barrier => "barrier",
            Phase::PoolIdle => "pool_idle",
            Phase::Harness => "harness",
        }
    }
}

/// A process-wide event counter. Nothing increments one: its only
/// variant reads 0.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Counter {
    /// Unused (always 0), like [`Phase::Barrier`], and kept for the
    /// same reason.
    PoolEpochs,
}

static ENABLED: AtomicBool = AtomicBool::new(false);
static PHASE_NS: [AtomicU64; PHASE_COUNT] = [const { AtomicU64::new(0) }; PHASE_COUNT];
static PHASE_CALLS: [AtomicU64; PHASE_COUNT] = [const { AtomicU64::new(0) }; PHASE_COUNT];
static TIMELINE: Mutex<Vec<SpanRec>> = Mutex::new(Vec::new());
static ORIGIN: Mutex<Option<Instant>> = Mutex::new(None);
static NEXT_TID: AtomicU64 = AtomicU64::new(1);

/// Cap on retained timeline spans; further spans are counted but
/// dropped, keeping memory bounded on long runs.
const TIMELINE_CAP: usize = 1 << 16;

/// Globally enables or disables profiling. Cheap to call; takes effect
/// on the next probe. Flip only at quiescent points (no live guards on
/// other threads) if phase totals must stay exactly consistent —
/// mid-flight flips are safe, merely attributing partial scopes.
pub fn set_enabled(on: bool) {
    if on {
        // Pin the timeline origin before the first span can be taken.
        let mut o = ORIGIN.lock().expect("origin lock");
        if o.is_none() {
            *o = Some(Instant::now());
        }
    }
    ENABLED.store(on, Ordering::Relaxed);
}

/// Whether profiling is currently enabled.
#[inline]
#[must_use]
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Per-thread accumulator. Flushes into the process-wide atomics when
/// the thread exits or on an explicit [`flush`].
struct Local {
    ns: [u64; PHASE_COUNT],
    calls: [u64; PHASE_COUNT],
    /// Stack of active phase indices (exclusive-time bookkeeping).
    stack: Vec<usize>,
    /// Clock reading at the last enter/exit on this thread.
    last: Option<Instant>,
}

impl Local {
    const fn new() -> Self {
        Local {
            ns: [0; PHASE_COUNT],
            calls: [0; PHASE_COUNT],
            stack: Vec::new(),
            last: None,
        }
    }

    /// Charges time since `last` to the phase on top of the stack.
    fn charge_top(&mut self, now: Instant) {
        if let (Some(last), Some(&top)) = (self.last, self.stack.last()) {
            self.ns[top] += u64::try_from((now - last).as_nanos()).unwrap_or(u64::MAX);
        }
    }

    fn flush_into_globals(&mut self) {
        for i in 0..PHASE_COUNT {
            if self.ns[i] > 0 {
                PHASE_NS[i].fetch_add(self.ns[i], Ordering::Relaxed);
                self.ns[i] = 0;
            }
            if self.calls[i] > 0 {
                PHASE_CALLS[i].fetch_add(self.calls[i], Ordering::Relaxed);
                self.calls[i] = 0;
            }
        }
    }
}

impl Drop for Local {
    fn drop(&mut self) {
        self.flush_into_globals();
    }
}

thread_local! {
    static LOCAL: RefCell<Local> = const { RefCell::new(Local::new()) };
    static TID: u64 = NEXT_TID.fetch_add(1, Ordering::Relaxed);
}

/// RAII guard returned by [`phase`]; charges elapsed time on drop.
#[must_use = "dropping the guard immediately records a zero-length phase"]
pub struct PhaseGuard {
    active: bool,
}

/// Enters `p` on the calling thread. While the returned guard lives,
/// elapsed wall time is charged to `p` — except time spent under a
/// nested [`phase`] guard, which is charged to the inner phase
/// (exclusive/self-time semantics). When profiling is disabled this is
/// a no-op costing one relaxed atomic load.
#[inline]
pub fn phase(p: Phase) -> PhaseGuard {
    if !enabled() {
        return PhaseGuard { active: false };
    }
    let _ = LOCAL.try_with(|l| {
        let mut l = l.borrow_mut();
        let now = Instant::now();
        l.charge_top(now);
        l.stack.push(p as usize);
        l.calls[p as usize] += 1;
        l.last = Some(now);
    });
    PhaseGuard { active: true }
}

impl Drop for PhaseGuard {
    fn drop(&mut self) {
        if !self.active {
            return;
        }
        let _ = LOCAL.try_with(|l| {
            let mut l = l.borrow_mut();
            let now = Instant::now();
            if let (Some(last), Some(top)) = (l.last, l.stack.pop()) {
                l.ns[top] += u64::try_from((now - last).as_nanos()).unwrap_or(u64::MAX);
            }
            l.last = Some(now);
        });
    }
}

/// RAII guard returned by [`timeline_scope`]; records a Chrome-trace
/// span on drop.
#[must_use = "dropping the guard immediately ends the span"]
pub struct TimelineGuard {
    name: Option<String>,
    start: Instant,
}

/// One recorded timeline span, nanoseconds relative to the profiling
/// origin.
#[derive(Debug, Clone)]
struct SpanRec {
    name: String,
    start_ns: u64,
    end_ns: u64,
    tid: u64,
}

fn origin() -> Option<Instant> {
    *ORIGIN.lock().expect("origin lock")
}

/// Opens a named wall-time span for the Chrome timeline (coarse
/// granularity: one per workload or per run, not per cycle). No-op
/// when disabled.
pub fn timeline_scope(name: &str) -> TimelineGuard {
    TimelineGuard {
        name: enabled().then(|| name.to_string()),
        start: Instant::now(),
    }
}

impl Drop for TimelineGuard {
    fn drop(&mut self) {
        let Some(name) = self.name.take() else {
            return;
        };
        let Some(origin) = origin() else { return };
        let start_ns = u64::try_from(self.start.saturating_duration_since(origin).as_nanos())
            .unwrap_or(u64::MAX);
        let end_ns = u64::try_from(origin.elapsed().as_nanos()).unwrap_or(u64::MAX);
        let tid = TID.try_with(|t| *t).unwrap_or(0);
        let mut tl = TIMELINE.lock().expect("timeline lock");
        if tl.len() < TIMELINE_CAP {
            tl.push(SpanRec {
                name,
                start_ns,
                end_ns,
                tid,
            });
        }
    }
}

/// Flushes the calling thread's phase accumulators into the
/// process-wide totals. Threads also flush on exit, but a scoped
/// thread's exit can trail the end of its scope, so scoped workers
/// (those of the `gscalar-pool` executor) call this as their last step;
/// long-lived threads (e.g. `main`) call this — or just [`snapshot`],
/// which flushes first — before reading totals.
pub fn flush() {
    let _ = LOCAL.try_with(|l| l.borrow_mut().flush_into_globals());
}

/// Zeroes all process-wide totals and the timeline, plus the calling
/// thread's local accumulators. Call at quiescent points only (no live
/// guards anywhere); other threads' unflushed locals are untouched and
/// will still flush on their exit.
pub fn reset() {
    let _ = LOCAL.try_with(|l| {
        let mut l = l.borrow_mut();
        l.ns = [0; PHASE_COUNT];
        l.calls = [0; PHASE_COUNT];
        l.stack.clear();
        l.last = None;
    });
    for i in 0..PHASE_COUNT {
        PHASE_NS[i].store(0, Ordering::Relaxed);
        PHASE_CALLS[i].store(0, Ordering::Relaxed);
    }
    TIMELINE.lock().expect("timeline lock").clear();
}

/// Accumulated totals for one [`Phase`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PhaseStat {
    /// Exclusive (self) wall time, nanoseconds.
    pub ns: u64,
    /// Number of guard entries.
    pub calls: u64,
}

/// A consistent read of every accumulator, taken by [`snapshot`].
#[derive(Debug, Clone)]
pub struct Snapshot {
    /// Per-phase totals, indexed like [`Phase::ALL`].
    pub phases: [PhaseStat; PHASE_COUNT],
}

impl Snapshot {
    /// Totals for one phase.
    #[must_use]
    pub fn phase(&self, p: Phase) -> PhaseStat {
        self.phases[p as usize]
    }

    /// Total for one counter: always 0, as nothing increments one.
    #[must_use]
    pub fn counter(&self, c: Counter) -> u64 {
        match c {
            Counter::PoolEpochs => 0,
        }
    }

    /// Sum of exclusive phase time — the instrumented wall time.
    #[must_use]
    pub fn total_ns(&self) -> u64 {
        self.phases.iter().map(|p| p.ns).sum()
    }

    /// Exports everything under `host/...` paths: per-phase
    /// `host/phase/<name>/ns` and `/calls`, and `host/pool/epochs`
    /// (always 0, kept so committed metric files keep their keys). The
    /// `host/` prefix is what keeps these informational in
    /// `report compare`.
    pub fn export(&self, reg: &mut MetricsRegistry) {
        for (i, p) in Phase::ALL.iter().enumerate() {
            reg.counter_add(&format!("host/phase/{}/ns", p.name()), self.phases[i].ns);
            reg.counter_add(
                &format!("host/phase/{}/calls", p.name()),
                self.phases[i].calls,
            );
        }
        reg.counter_add("host/pool/epochs", self.counter(Counter::PoolEpochs));
    }

    /// Flat `(path, value)` pairs, as [`Self::export`] would produce.
    #[must_use]
    pub fn flatten(&self) -> Vec<(String, f64)> {
        let mut reg = MetricsRegistry::new();
        self.export(&mut reg);
        reg.flatten()
    }

    /// Renders a human-readable phase table.
    /// `wall_s`, when positive, adds a percent-of-total-wall column.
    #[must_use]
    pub fn render(&self, wall_s: f64) -> String {
        let total = self.total_ns();
        let mut out = String::from("host wall-time phase breakdown (exclusive)\n");
        out.push_str(&format!(
            "  {:<16} {:>12} {:>8} {:>8} {:>12}\n",
            "phase", "time", "% instr", "% wall", "calls"
        ));
        let mut rows: Vec<(usize, PhaseStat)> = self
            .phases
            .iter()
            .copied()
            .enumerate()
            .filter(|(_, p)| p.calls > 0 || p.ns > 0)
            .collect();
        rows.sort_by_key(|row| std::cmp::Reverse(row.1.ns));
        for (i, p) in rows {
            let pct_instr = if total > 0 {
                100.0 * p.ns as f64 / total as f64
            } else {
                0.0
            };
            let pct_wall = if wall_s > 0.0 {
                100.0 * p.ns as f64 / (wall_s * 1e9)
            } else {
                0.0
            };
            out.push_str(&format!(
                "  {:<16} {:>10.3}ms {:>7.2}% {:>7.2}% {:>12}\n",
                Phase::ALL[i].name(),
                p.ns as f64 / 1e6,
                pct_instr,
                pct_wall,
                p.calls
            ));
        }
        out.push_str(&format!(
            "  {:<16} {:>10.3}ms\n",
            "total(instr)",
            total as f64 / 1e6
        ));
        out
    }
}

/// Takes a consistent snapshot of every accumulator, flushing the
/// calling thread's locals first. Other still-running threads'
/// unflushed time is not included — snapshot after joining workers
/// (the executor's scoped threads always join before returning).
#[must_use]
pub fn snapshot() -> Snapshot {
    flush();
    let mut phases = [PhaseStat::default(); PHASE_COUNT];
    for (i, p) in phases.iter_mut().enumerate() {
        p.ns = PHASE_NS[i].load(Ordering::Relaxed);
        p.calls = PHASE_CALLS[i].load(Ordering::Relaxed);
    }
    Snapshot { phases }
}

/// Renders the recorded timeline spans plus per-phase aggregate bars
/// as Chrome trace-event JSON (open in `chrome://tracing` or
/// Perfetto). Span tracks use `pid` 0 with one `tid` per host thread;
/// the aggregate per-phase bars are laid end-to-end on `pid` 1.
#[must_use]
pub fn chrome_timeline_json() -> String {
    let snap = snapshot();
    let mut b = ChromeTraceBuilder::new();
    {
        let tl = TIMELINE.lock().expect("timeline lock");
        for s in tl.iter() {
            b.complete(
                &s.name,
                "host",
                s.start_ns / 1000,
                (s.end_ns.saturating_sub(s.start_ns)) / 1000,
                0,
                s.tid,
            );
        }
    }
    // Aggregate self-time bars: one track, phases laid end-to-end, so
    // relative widths read as a flame-style summary.
    let mut at = 0u64;
    for (i, p) in Phase::ALL.iter().enumerate() {
        let ns = snap.phases[i].ns;
        if ns == 0 {
            continue;
        }
        b.complete(
            &format!("phase:{}", p.name()),
            "host-agg",
            at / 1000,
            ns / 1000,
            1,
            0,
        );
        at += ns;
    }
    b.finish()
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The accumulators are process-wide; serialize tests that touch
    /// them.
    static TEST_LOCK: Mutex<()> = Mutex::new(());

    fn lock() -> std::sync::MutexGuard<'static, ()> {
        TEST_LOCK.lock().unwrap_or_else(|e| e.into_inner())
    }

    fn spin(us: u64) {
        let t0 = Instant::now();
        while t0.elapsed().as_micros() < u128::from(us) {
            std::hint::spin_loop();
        }
    }

    #[test]
    fn disabled_probes_record_nothing() {
        let _l = lock();
        reset();
        set_enabled(false);
        {
            let _g = phase(Phase::Execute);
            spin(50);
        }
        let _t = timeline_scope("x");
        drop(_t);
        let s = snapshot();
        assert_eq!(s.total_ns(), 0);
        assert_eq!(s.phase(Phase::Execute).calls, 0);
        assert_eq!(TIMELINE.lock().unwrap().len(), 0);
    }

    #[test]
    fn nested_phases_attribute_exclusive_time() {
        let _l = lock();
        reset();
        set_enabled(true);
        {
            let _outer = phase(Phase::Execute);
            spin(200);
            {
                let _inner = phase(Phase::Compressor);
                spin(200);
            }
            spin(200);
        }
        set_enabled(false);
        let s = snapshot();
        let exec = s.phase(Phase::Execute);
        let comp = s.phase(Phase::Compressor);
        assert_eq!(exec.calls, 1);
        assert_eq!(comp.calls, 1);
        assert!(exec.ns >= 300_000, "outer self time {} ns", exec.ns);
        assert!(comp.ns >= 150_000, "inner self time {} ns", comp.ns);
        // Exclusive semantics: outer self-time excludes the inner span,
        // so both are individually < total and sum ≈ total.
        assert_eq!(s.total_ns(), exec.ns + comp.ns);
    }

    #[test]
    fn timeline_accumulates_when_enabled() {
        let _l = lock();
        reset();
        set_enabled(true);
        {
            let _t = timeline_scope("workload BP");
            spin(50);
        }
        set_enabled(false);
        let json = chrome_timeline_json();
        assert!(json.starts_with("{\"traceEvents\":["));
        assert!(json.ends_with("]}"));
        assert!(json.contains("workload BP"));
        reset();
        assert_eq!(TIMELINE.lock().unwrap().len(), 0);
    }

    #[test]
    fn worker_thread_totals_flush_on_exit() {
        let _l = lock();
        reset();
        set_enabled(true);
        // The pattern `gscalar-pool`'s workers follow: `thread::scope`
        // may return before a scoped thread's TLS destructors run, so
        // the worker flushes as its last step.
        std::thread::scope(|s| {
            s.spawn(|| {
                {
                    let _g = phase(Phase::Execute);
                    spin(100);
                }
                flush();
            });
        });
        set_enabled(false);
        let s = snapshot();
        assert_eq!(s.phase(Phase::Execute).calls, 1);
        assert!(s.phase(Phase::Execute).ns > 0);
    }

    #[test]
    fn export_uses_host_prefixed_paths() {
        let _l = lock();
        reset();
        set_enabled(true);
        {
            let _g = phase(Phase::Scheduler);
        }
        set_enabled(false);
        let flat = snapshot().flatten();
        let get = |k: &str| {
            flat.iter()
                .find(|(p, _)| p == k)
                .unwrap_or_else(|| panic!("missing {k}"))
                .1
        };
        assert_eq!(get("host/phase/scheduler/calls"), 1.0);
        assert_eq!(get("host/pool/epochs"), 0.0);
        assert!(flat.iter().all(|(k, _)| k.starts_with("host/")));
        assert!(!flat
            .iter()
            .any(|(k, _)| k.starts_with("host/pool/") && k != "host/pool/epochs"));
        let text = snapshot().render(1.0);
        assert!(text.contains("scheduler"));
        reset();
    }

    #[test]
    fn render_sorts_and_sums() {
        let _l = lock();
        reset();
        set_enabled(true);
        {
            let _g = phase(Phase::Memsys);
            spin(50);
        }
        set_enabled(false);
        let s = snapshot();
        let text = s.render(0.0);
        assert!(text.contains("memsys"));
        assert!(text.contains("total(instr)"));
        reset();
    }
}
