//! Cycle-level tracing for the G-Scalar simulator.
//!
//! This crate is deliberately dependency-free (it sits *below*
//! `gscalar-sim` in the workspace graph): the simulator converts its own
//! types into the small enums defined here and pushes typed
//! [`TraceEvent`]s through a [`Tracer`] handle. When tracing is off the
//! handle holds no sink and every emission site reduces to a single
//! predictable branch — event payloads are built inside a closure that
//! is never called ([`Tracer::emit_with`]).
//!
//! The pieces:
//!
//! * [`TraceEvent`] — typed events: issue decisions, per-cycle
//!   [stall reasons](StallReason), SIMT stack pushes/pops, compressor
//!   encode/decode decisions, memory-hierarchy transactions, execution
//!   spans, and periodic interval [snapshots](TraceEvent::Snapshot).
//! * [`TraceSink`] / [`EventBuf`] — where events go; `EventBuf` is a
//!   bounded ring that drops the oldest events once full.
//! * [`StallBreakdown`] — an always-on counter block embedded in the
//!   simulator's statistics; the simulator maintains the invariant that
//!   its total equals the scheduler idle-cycle count.
//! * [`export`] — Chrome trace-event JSON (open in Perfetto or
//!   `chrome://tracing`), CSV time-series, a per-warp text waterfall,
//!   and a stall-breakdown report.
//!
//! # Examples
//!
//! ```
//! use gscalar_trace::{EventBuf, Tracer, TraceEvent, StallReason};
//!
//! let mut buf = EventBuf::new(1024);
//! let mut t = Tracer::new(&mut buf);
//! t.emit_with(10, || TraceEvent::Stall {
//!     sm: 0,
//!     sched: 1,
//!     warp: None,
//!     reason: StallReason::Scoreboard,
//! });
//! assert_eq!(buf.len(), 1);
//!
//! let mut off = Tracer::off();
//! off.emit_with(11, || unreachable!("never built when tracing is off"));
//! ```

pub mod export;

use std::collections::VecDeque;

// ---------------------------------------------------------------------------
// Stall taxonomy
// ---------------------------------------------------------------------------

/// Why a scheduler failed to issue in a cycle.
///
/// Exactly one reason is charged per idle scheduler-cycle, so the sum
/// over all reasons equals the scheduler idle-cycle count — the
/// simulator enforces this invariant in its tests.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum StallReason {
    /// No live warps left on this scheduler (drained at kernel tail).
    Drained,
    /// Every live warp is waiting at a CTA barrier.
    Barrier,
    /// Blocked on a scoreboard entry owned by an outstanding load/store.
    MemPending,
    /// Blocked on a scoreboard entry owned by an ALU/SFU instruction.
    Scoreboard,
    /// A warp was ready but no operand-collector slot was free.
    NoCollector,
    /// No collector slot was free *and* this cycle's bank arbitration
    /// had conflicts — collectors are draining slowly because of
    /// register-bank contention.
    RfBankConflict,
}

impl StallReason {
    /// Every reason, in reporting order.
    pub const ALL: [StallReason; 6] = [
        StallReason::Drained,
        StallReason::Barrier,
        StallReason::MemPending,
        StallReason::Scoreboard,
        StallReason::NoCollector,
        StallReason::RfBankConflict,
    ];

    /// A short stable label (used in CSV headers and reports).
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            StallReason::Drained => "drained",
            StallReason::Barrier => "barrier",
            StallReason::MemPending => "mem_pending",
            StallReason::Scoreboard => "scoreboard",
            StallReason::NoCollector => "no_collector",
            StallReason::RfBankConflict => "rf_bank_conflict",
        }
    }

    fn index(self) -> usize {
        match self {
            StallReason::Drained => 0,
            StallReason::Barrier => 1,
            StallReason::MemPending => 2,
            StallReason::Scoreboard => 3,
            StallReason::NoCollector => 4,
            StallReason::RfBankConflict => 5,
        }
    }
}

/// Per-reason stall-cycle counters.
///
/// # Examples
///
/// ```
/// use gscalar_trace::{StallBreakdown, StallReason};
///
/// let mut b = StallBreakdown::default();
/// b.add(StallReason::Barrier);
/// b.add(StallReason::Barrier);
/// b.add(StallReason::MemPending);
/// assert_eq!(b.get(StallReason::Barrier), 2);
/// assert_eq!(b.total(), 3);
/// ```
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StallBreakdown {
    counts: [u64; StallReason::ALL.len()],
}

impl StallBreakdown {
    /// Charges one idle cycle to `reason`.
    pub fn add(&mut self, reason: StallReason) {
        self.counts[reason.index()] += 1;
    }

    /// Charges `n` cycles to `reason` at once (a jump over cycles a
    /// sleeping SM polls charges each scheduler's held verdict in one
    /// call).
    pub fn add_n(&mut self, reason: StallReason, n: u64) {
        self.counts[reason.index()] += n;
    }

    /// Cycles charged to `reason`.
    #[must_use]
    pub fn get(&self, reason: StallReason) -> u64 {
        self.counts[reason.index()]
    }

    /// Total cycles across all reasons.
    #[must_use]
    pub fn total(&self) -> u64 {
        self.counts.iter().sum()
    }

    /// Accumulates `other` into `self`.
    pub fn merge(&mut self, other: &StallBreakdown) {
        for (a, b) in self.counts.iter_mut().zip(other.counts.iter()) {
            *a += b;
        }
    }

    /// Iterates `(reason, cycles)` pairs in reporting order.
    pub fn iter(&self) -> impl Iterator<Item = (StallReason, u64)> + '_ {
        StallReason::ALL
            .iter()
            .map(|&r| (r, self.counts[r.index()]))
    }
}

// ---------------------------------------------------------------------------
// Event vocabulary
// ---------------------------------------------------------------------------

/// Which functional unit an instruction used.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum UnitKind {
    /// Integer/FP ALU pipeline.
    Alu,
    /// Special-function unit.
    Sfu,
    /// Load/store unit.
    Mem,
    /// Control flow (branch/exit/barrier), handled at issue.
    Control,
}

impl UnitKind {
    /// A short stable label.
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            UnitKind::Alu => "alu",
            UnitKind::Sfu => "sfu",
            UnitKind::Mem => "mem",
            UnitKind::Control => "ctl",
        }
    }
}

/// How an instruction executed (paper terminology).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ModeKind {
    /// Full-width SIMD execution.
    Vector,
    /// Scalar execution on one lane.
    Scalar,
    /// Half-width execution (scalar SFU on the prior-work design).
    Half,
}

impl ModeKind {
    /// A short stable label.
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            ModeKind::Vector => "vector",
            ModeKind::Scalar => "scalar",
            ModeKind::Half => "half",
        }
    }
}

/// Where in the memory hierarchy a transaction was resolved.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MemLevel {
    /// Served by the SM-local L1.
    L1Hit,
    /// Merged into an outstanding L1 miss (MSHR hit).
    MshrMerge,
    /// Missed L1, hit the partitioned L2.
    L2Hit,
    /// Missed L2; serviced by a DRAM channel.
    Dram,
    /// Served by per-SM shared memory (never leaves the SM).
    Shared,
}

impl MemLevel {
    /// A short stable label.
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            MemLevel::L1Hit => "l1_hit",
            MemLevel::MshrMerge => "mshr_merge",
            MemLevel::L2Hit => "l2_hit",
            MemLevel::Dram => "dram",
            MemLevel::Shared => "shared",
        }
    }
}

/// One typed trace event. The cycle it occurred at travels alongside in
/// a [`Record`].
#[derive(Debug, Clone, PartialEq)]
pub enum TraceEvent {
    /// A scheduler issued an instruction.
    Issue {
        /// SM index.
        sm: u32,
        /// Scheduler index within the SM.
        sched: u32,
        /// Warp slot index within the SM.
        warp: u32,
        /// Program counter of the issued instruction.
        pc: u32,
        /// Functional unit it was sent to.
        unit: UnitKind,
        /// Vector/scalar/half execution decision.
        mode: ModeKind,
        /// Active lane mask at issue.
        mask: u64,
    },
    /// A scheduler idled for one cycle.
    Stall {
        /// SM index.
        sm: u32,
        /// Scheduler index within the SM.
        sched: u32,
        /// The warp the classification pinned the stall on, if any.
        warp: Option<u32>,
        /// Why nothing issued.
        reason: StallReason,
    },
    /// A branch diverged and pushed paths onto the SIMT stack.
    SimtPush {
        /// SM index.
        sm: u32,
        /// Warp slot index.
        warp: u32,
        /// PC of the diverging branch.
        pc: u32,
        /// Lanes that took the branch.
        taken: u64,
        /// Lanes that fell through.
        not_taken: u64,
        /// Stack depth after the push.
        depth: u32,
    },
    /// The SIMT stack popped back toward reconvergence.
    SimtPop {
        /// SM index.
        sm: u32,
        /// Warp slot index.
        warp: u32,
        /// PC after the pop.
        pc: u32,
        /// Stack depth after the pop.
        depth: u32,
    },
    /// The register-file compressor encoded a written value vector.
    CompressWrite {
        /// SM index.
        sm: u32,
        /// Warp slot index.
        warp: u32,
        /// Architectural destination register index.
        reg: u32,
        /// Encoding tag (the compress crate's `Encoding as u8`).
        encoding: u8,
        /// Bytes occupied after compression.
        bytes: u32,
        /// Whether the value was warp-uniform (scalar-eligible).
        uniform: bool,
    },
    /// A compressed operand had to be expanded before execution.
    Decompress {
        /// SM index.
        sm: u32,
        /// Warp slot index.
        warp: u32,
        /// PC of the consuming instruction.
        pc: u32,
        /// Whether the decode was hidden by a compiler-assisted move
        /// (`true`) or charged as extra pipeline latency (`false`).
        assisted: bool,
    },
    /// A memory transaction was resolved somewhere in the hierarchy.
    Mem {
        /// SM index that originated the access.
        sm: u32,
        /// Line-aligned address.
        addr: u64,
        /// Store (`true`) or load (`false`).
        store: bool,
        /// Where the transaction was resolved.
        level: MemLevel,
        /// Cycle at which data is available / the store retires.
        done: u64,
    },
    /// An instruction occupied a functional unit over a span of cycles.
    ExecSpan {
        /// SM index.
        sm: u32,
        /// Warp slot index.
        warp: u32,
        /// Program counter.
        pc: u32,
        /// The unit occupied.
        unit: UnitKind,
        /// Execution decision.
        mode: ModeKind,
        /// Completion cycle (the span starts at the record's cycle).
        end: u64,
    },
    /// Periodic interval metrics (one per SM per interval boundary).
    Snapshot {
        /// SM index.
        sm: u32,
        /// Cumulative warp instructions issued.
        issued: u64,
        /// Cumulative instructions executed scalar.
        scalar: u64,
        /// Cumulative compressed register-file bytes written.
        rf_bytes_compressed: u64,
        /// Cumulative uncompressed register-file bytes written.
        rf_bytes_uncompressed: u64,
        /// Cumulative register-file array activations.
        rf_activations: u64,
    },
}

/// A [`TraceEvent`] plus the cycle it was recorded at.
#[derive(Debug, Clone, PartialEq)]
pub struct Record {
    /// Simulation cycle.
    pub now: u64,
    /// The event.
    pub ev: TraceEvent,
}

// ---------------------------------------------------------------------------
// Sinks
// ---------------------------------------------------------------------------

/// Receives trace events; implemented by [`EventBuf`] and by tests.
pub trait TraceSink {
    /// Records one event at cycle `now`.
    fn record(&mut self, now: u64, ev: TraceEvent);
}

/// A bounded in-memory ring of trace records.
///
/// Once `capacity` records are held, each new record evicts the oldest
/// and bumps [`dropped`](EventBuf::dropped) — long runs keep the *tail*
/// of the trace, which is usually what post-mortem debugging wants.
///
/// # Examples
///
/// ```
/// use gscalar_trace::{EventBuf, TraceSink, TraceEvent, StallReason};
///
/// let mut buf = EventBuf::new(2);
/// for c in 0..5 {
///     buf.record(c, TraceEvent::Stall {
///         sm: 0, sched: 0, warp: None, reason: StallReason::Drained,
///     });
/// }
/// assert_eq!(buf.len(), 2);
/// assert_eq!(buf.dropped(), 3);
/// assert_eq!(buf.records()[0].now, 3);
/// ```
#[derive(Debug)]
pub struct EventBuf {
    buf: VecDeque<Record>,
    capacity: usize,
    dropped: u64,
}

impl EventBuf {
    /// Creates a ring holding at most `capacity` records.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    #[must_use]
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "EventBuf capacity must be non-zero");
        EventBuf {
            buf: VecDeque::with_capacity(capacity.min(1 << 20)),
            capacity,
            dropped: 0,
        }
    }

    /// Number of records currently held.
    #[must_use]
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// Whether the ring is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Records evicted because the ring was full.
    #[must_use]
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// The held records, oldest first.
    #[must_use]
    pub fn records(&self) -> Vec<&Record> {
        self.buf.iter().collect()
    }

    /// Consumes the ring, returning the records oldest-first.
    #[must_use]
    pub fn into_records(self) -> Vec<Record> {
        self.buf.into_iter().collect()
    }
}

impl TraceSink for EventBuf {
    fn record(&mut self, now: u64, ev: TraceEvent) {
        if self.buf.len() == self.capacity {
            self.buf.pop_front();
            self.dropped += 1;
        }
        self.buf.push_back(Record { now, ev });
    }
}

/// The handle instrumentation sites emit through.
///
/// Holds either a sink or nothing; [`emit_with`](Tracer::emit_with)
/// takes the event as a closure so the disabled path never constructs
/// the payload — the cost of a dormant trace point is one branch.
pub struct Tracer<'a> {
    sink: Option<&'a mut dyn TraceSink>,
}

impl<'a> Tracer<'a> {
    /// A tracer that records into `sink`.
    pub fn new(sink: &'a mut dyn TraceSink) -> Self {
        Tracer { sink: Some(sink) }
    }

    /// A disabled tracer; every emission is a no-op.
    #[must_use]
    pub fn off() -> Tracer<'a> {
        Tracer { sink: None }
    }

    /// Whether events are being recorded.
    #[must_use]
    pub fn is_on(&self) -> bool {
        self.sink.is_some()
    }

    /// Records the event built by `f` at cycle `now`; `f` is not called
    /// when tracing is off.
    #[inline]
    pub fn emit_with(&mut self, now: u64, f: impl FnOnce() -> TraceEvent) {
        if let Some(sink) = self.sink.as_mut() {
            sink.record(now, f());
        }
    }
}

impl std::fmt::Debug for Tracer<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Tracer").field("on", &self.is_on()).finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn stall(reason: StallReason) -> TraceEvent {
        TraceEvent::Stall {
            sm: 0,
            sched: 0,
            warp: None,
            reason,
        }
    }

    #[test]
    fn ring_keeps_newest_and_counts_drops() {
        let mut buf = EventBuf::new(3);
        for c in 0..10 {
            buf.record(c, stall(StallReason::Drained));
        }
        assert_eq!(buf.len(), 3);
        assert_eq!(buf.dropped(), 7);
        let cycles: Vec<u64> = buf.records().iter().map(|r| r.now).collect();
        assert_eq!(cycles, vec![7, 8, 9]);
    }

    #[test]
    fn tracer_off_never_builds_payload() {
        let mut t = Tracer::off();
        assert!(!t.is_on());
        t.emit_with(0, || panic!("payload built while tracing is off"));
    }

    #[test]
    fn tracer_on_records() {
        let mut buf = EventBuf::new(8);
        let mut t = Tracer::new(&mut buf);
        assert!(t.is_on());
        t.emit_with(42, || stall(StallReason::Barrier));
        assert_eq!(buf.len(), 1);
        assert_eq!(buf.records()[0].now, 42);
    }

    #[test]
    fn breakdown_totals_and_merge() {
        let mut a = StallBreakdown::default();
        a.add(StallReason::MemPending);
        a.add(StallReason::MemPending);
        let mut b = StallBreakdown::default();
        b.add(StallReason::RfBankConflict);
        a.merge(&b);
        assert_eq!(a.total(), 3);
        assert_eq!(a.get(StallReason::MemPending), 2);
        assert_eq!(a.get(StallReason::RfBankConflict), 1);
        assert_eq!(a.get(StallReason::Drained), 0);
        let sum: u64 = a.iter().map(|(_, n)| n).sum();
        assert_eq!(sum, a.total());
    }

    #[test]
    fn add_n_matches_repeated_add() {
        let mut a = StallBreakdown::default();
        let mut b = StallBreakdown::default();
        for _ in 0..17 {
            a.add(StallReason::Barrier);
        }
        b.add_n(StallReason::Barrier, 17);
        b.add_n(StallReason::Drained, 0);
        assert_eq!(a, b);
        assert_eq!(b.total(), 17);
    }

    #[test]
    fn every_reason_has_distinct_index_and_label() {
        let mut b = StallBreakdown::default();
        for r in StallReason::ALL {
            b.add(r);
        }
        assert_eq!(b.total(), StallReason::ALL.len() as u64);
        let mut labels: Vec<_> = StallReason::ALL.iter().map(|r| r.label()).collect();
        labels.sort_unstable();
        labels.dedup();
        assert_eq!(labels.len(), StallReason::ALL.len());
    }
}
