//! Per-static-instruction (PC-level) profiling for the G-Scalar
//! simulator — the attribution layer the aggregate counters lack.
//!
//! The simulator's `Stats` answer *how much* (issued instructions,
//! stall cycles, scalar executions); this crate answers *where*: which
//! static instruction is the hotspot, which branch originates the
//! divergence of the paper's Figure 1, which instructions carry the
//! scalar-execution opportunity of Figure 9 and the register
//! compressibility of Figure 8.
//!
//! The collection handle follows the same off-path-free pattern as
//! `gscalar_trace::Tracer`: a [`Profiler`] holds either a boxed
//! [`KernelProfile`] or nothing, and every `record_*` site reduces to a
//! single predictable branch when profiling is off — no payload is
//! built, no map is touched.
//!
//! Attribution rules (also documented in `DESIGN.md`):
//!
//! * An **issue slot** is charged to the PC of the issued instruction.
//! * A **stall cycle** is charged to the current PC of the warp the
//!   stall classification pinned the idle cycle on — the instruction at
//!   the head of the losing warp is the one *waiting*, so it is the one
//!   that accumulates the cost, exactly like `perf annotate` charges a
//!   stalled load.
//! * Idle cycles with no culprit warp (the scheduler drained at the
//!   kernel tail) go to the profile-level
//!   [`unattributed`](KernelProfile::unattributed) breakdown.
//!
//! Together these give the reconciliation invariant the property tests
//! pin down: summed over PCs, `issues` equals `Stats::pipe.issued` and
//! `stalls + unattributed` equals `Stats::pipe.scheduler_idle_cycles`.
//!
//! Per-PC records are kept in a dense `Vec` indexed by PC, so iteration
//! order is the program order — exports and reports are byte-stable by
//! construction, with no hash-map iteration anywhere.
//!
//! # Examples
//!
//! ```
//! use gscalar_profile::{EligClass, Profiler};
//! use gscalar_trace::StallReason;
//!
//! let mut p = Profiler::for_kernel(0, "tiny", 3);
//! p.record_issue(0, 32, false);
//! p.record_class(0, EligClass::Alu);
//! p.record_stall(Some(1), StallReason::Scoreboard);
//! p.record_stall(None, StallReason::Drained);
//! let prof = p.into_profile().unwrap();
//! assert_eq!(prof.total_issues(), 1);
//! assert_eq!(prof.record(1).stalls.get(StallReason::Scoreboard), 1);
//! assert_eq!(prof.unattributed.get(StallReason::Drained), 1);
//!
//! let mut off = Profiler::off();
//! off.record_issue(0, 32, false); // single branch, nothing recorded
//! assert!(!off.is_on());
//! ```

pub mod report;

pub use report::{annotate, branch_markdown, hotspot_markdown};

use gscalar_metrics::{Histogram, Scope};
use gscalar_trace::{StallBreakdown, StallReason};

/// Version of the per-PC export schema under the metrics registry.
///
/// Bump when the path layout or the meaning of an exported counter
/// changes; the value itself is exported as `<scope>/schema`.
pub const PROFILE_SCHEMA_VERSION: u64 = 1;

/// Number of byte-wise encoding outcome slots tracked per PC.
///
/// Indexed by the simulator's encoding tag: 0 = scalar, 1 = b321,
/// 2 = b32, 3 = b3, 4 = none (uncompressed).
pub const ENCODING_SLOTS: usize = 5;

/// Stable labels for the encoding tags, in tag order.
pub const ENCODING_LABELS: [&str; ENCODING_SLOTS] = ["scalar", "b321", "b32", "b3", "none"];

// ---------------------------------------------------------------------------
// Eligibility classes
// ---------------------------------------------------------------------------

/// Scalar-eligibility classification of an executed instruction
/// (paper Fig. 9), mirroring the simulator's `ScalarClass` without a
/// dependency on the sim crate.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum EligClass {
    /// Not scalar-eligible: lanes hold distinct values.
    Vector,
    /// Scalar-eligible ALU instruction.
    Alu,
    /// Scalar-eligible SFU instruction.
    Sfu,
    /// Scalar-eligible memory instruction.
    Mem,
    /// Eligible only for half-width execution (prior-work designs).
    Half,
    /// Scalar-eligible but under a divergent mask (G-Scalar §4.2).
    Divergent,
}

impl EligClass {
    /// Every class, in reporting order.
    pub const ALL: [EligClass; 6] = [
        EligClass::Vector,
        EligClass::Alu,
        EligClass::Sfu,
        EligClass::Mem,
        EligClass::Half,
        EligClass::Divergent,
    ];

    /// A stable label used in metric paths and JSON.
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            EligClass::Vector => "vector",
            EligClass::Alu => "alu",
            EligClass::Sfu => "sfu",
            EligClass::Mem => "mem",
            EligClass::Half => "half",
            EligClass::Divergent => "divergent",
        }
    }

    /// A short fixed-width label for annotated-disassembly columns.
    #[must_use]
    pub fn short(self) -> &'static str {
        match self {
            EligClass::Vector => "vec",
            EligClass::Alu => "alu",
            EligClass::Sfu => "sfu",
            EligClass::Mem => "mem",
            EligClass::Half => "half",
            EligClass::Divergent => "div",
        }
    }

    fn index(self) -> usize {
        match self {
            EligClass::Vector => 0,
            EligClass::Alu => 1,
            EligClass::Sfu => 2,
            EligClass::Mem => 3,
            EligClass::Half => 4,
            EligClass::Divergent => 5,
        }
    }
}

// ---------------------------------------------------------------------------
// Per-PC record
// ---------------------------------------------------------------------------

/// Per-branch divergence and reconvergence statistics.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct BranchStats {
    /// Times the branch executed (with a non-empty path mask).
    pub execs: u64,
    /// Executions that split the warp onto both paths.
    pub diverged: u64,
    /// Total lanes that took the branch, across executions.
    pub taken_lanes: u64,
    /// Total lanes that fell through, across executions.
    pub not_taken_lanes: u64,
    /// SIMT-stack paths pushed by this branch that later popped at
    /// their reconvergence point (the paths that rejoined).
    pub rejoined_paths: u64,
    /// Paths pushed by this branch that died before reconvergence
    /// (every lane exited on the path).
    pub exited_paths: u64,
}

/// Everything attributed to one static instruction.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct PcRecord {
    /// Warp-instruction issue slots charged to this PC.
    pub issues: u64,
    /// Total active lanes across issues (thread instructions).
    pub active_lanes: u64,
    /// Issues whose active mask was narrower than the full warp.
    pub divergent_issues: u64,
    /// Issues whose guard predicated every lane off.
    pub predicated_off: u64,
    /// Stall cycles charged to this PC, by reason (the warp whose head
    /// was this instruction lost the idle cycle).
    pub stalls: StallBreakdown,
    /// Log₂ histogram of functional-unit occupancy spans (cycles from
    /// dispatch to writeback) for this instruction.
    pub latency: Histogram,
    /// Log₂ histogram of active-lane counts at issue.
    pub lanes: Histogram,
    /// Scalar-eligibility class counts, indexed by [`EligClass`].
    class_counts: [u64; EligClass::ALL.len()],
    /// Byte-wise compressor outcomes for this instruction's register
    /// writes, indexed by encoding tag (see [`ENCODING_LABELS`]).
    enc_counts: [u64; ENCODING_SLOTS],
    /// Register writes under a divergent mask (bypass the compressor).
    pub enc_divergent: u64,
    /// Uncompressed bytes this instruction's writes would occupy.
    pub raw_bytes: u64,
    /// Bytes its writes occupy after byte-wise compression.
    pub compressed_bytes: u64,
    /// Branch statistics (all-zero for non-branches).
    pub branch: BranchStats,
}

impl PcRecord {
    /// Executions recorded for `class`.
    #[must_use]
    pub fn class_count(&self, class: EligClass) -> u64 {
        self.class_counts[class.index()]
    }

    /// Compressor outcomes recorded for encoding tag `tag`.
    #[must_use]
    pub fn enc_count(&self, tag: usize) -> u64 {
        self.enc_counts[tag]
    }

    /// Whether anything at all was attributed to this PC.
    #[must_use]
    pub fn has_activity(&self) -> bool {
        self.issues > 0 || self.stalls.total() > 0
    }

    /// Attribution cost used for hotspot ranking: issue slots plus
    /// stall cycles charged here.
    #[must_use]
    pub fn cost(&self) -> u64 {
        self.issues + self.stalls.total()
    }

    /// Mean active lanes per issue (0.0 when never issued).
    #[must_use]
    pub fn avg_active_lanes(&self) -> f64 {
        if self.issues == 0 {
            0.0
        } else {
            self.active_lanes as f64 / self.issues as f64
        }
    }

    /// Compression ratio (raw / compressed bytes) of this
    /// instruction's register writes; `None` when it wrote nothing.
    #[must_use]
    pub fn compression_ratio(&self) -> Option<f64> {
        (self.compressed_bytes > 0).then(|| self.raw_bytes as f64 / self.compressed_bytes as f64)
    }

    /// The most frequent eligibility class (`None` when the
    /// instruction never reached classification — control flow or
    /// fully predicated-off). Ties break toward the earlier class in
    /// [`EligClass::ALL`], keeping reports deterministic.
    #[must_use]
    pub fn dominant_class(&self) -> Option<EligClass> {
        let mut best: Option<(u64, EligClass)> = None;
        for class in EligClass::ALL {
            let n = self.class_counts[class.index()];
            if n > 0 && best.is_none_or(|(m, _)| n > m) {
                best = Some((n, class));
            }
        }
        best.map(|(_, c)| c)
    }
}

// ---------------------------------------------------------------------------
// Kernel profile
// ---------------------------------------------------------------------------

/// The complete per-PC profile of one kernel run.
#[derive(Debug, Clone, PartialEq)]
pub struct KernelProfile {
    kernel_id: u32,
    kernel: String,
    records: Vec<PcRecord>,
    /// Idle scheduler cycles with no culprit warp (drained tail).
    pub unattributed: StallBreakdown,
}

impl KernelProfile {
    /// An empty profile for a kernel of `len` static instructions.
    #[must_use]
    pub fn new(kernel_id: u32, kernel: impl Into<String>, len: usize) -> Self {
        KernelProfile {
            kernel_id,
            kernel: kernel.into(),
            records: vec![PcRecord::default(); len],
            unattributed: StallBreakdown::default(),
        }
    }

    /// The kernel id this profile belongs to.
    #[must_use]
    pub fn kernel_id(&self) -> u32 {
        self.kernel_id
    }

    /// The kernel name.
    #[must_use]
    pub fn kernel(&self) -> &str {
        &self.kernel
    }

    /// Number of static instructions covered.
    #[must_use]
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// Whether the kernel had no instructions.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    /// The record for `pc`.
    ///
    /// # Panics
    ///
    /// Panics if `pc` is out of range.
    #[must_use]
    pub fn record(&self, pc: usize) -> &PcRecord {
        &self.records[pc]
    }

    /// All records, indexed by PC (program order — deterministic).
    #[must_use]
    pub fn records(&self) -> &[PcRecord] {
        &self.records
    }

    /// PCs with any attributed activity, ascending.
    pub fn executed_pcs(&self) -> impl Iterator<Item = usize> + '_ {
        self.records
            .iter()
            .enumerate()
            .filter(|(_, r)| r.has_activity())
            .map(|(pc, _)| pc)
    }

    /// Total issue slots attributed across PCs.
    #[must_use]
    pub fn total_issues(&self) -> u64 {
        self.records.iter().map(|r| r.issues).sum()
    }

    /// Stall cycles attributed to specific PCs.
    #[must_use]
    pub fn attributed_stall_cycles(&self) -> u64 {
        self.records.iter().map(|r| r.stalls.total()).sum()
    }

    /// All idle scheduler cycles: attributed plus unattributed.
    #[must_use]
    pub fn total_stall_cycles(&self) -> u64 {
        self.attributed_stall_cycles() + self.unattributed.total()
    }

    /// The `n` highest-cost PCs (issues + stalls), cost descending,
    /// ties broken by ascending PC — deterministic.
    #[must_use]
    pub fn hotspots(&self, n: usize) -> Vec<usize> {
        let mut pcs: Vec<usize> = self.executed_pcs().collect();
        pcs.sort_by_key(|&pc| (std::cmp::Reverse(self.records[pc].cost()), pc));
        pcs.truncate(n);
        pcs
    }

    /// Exports the profile under `scope` as
    /// `k<kernel_id>/pc<PC>/<metric>` counters and histograms.
    ///
    /// Kernel ids and PCs are zero-padded so the registry's
    /// lexicographic key order equals (kernel id, PC) numeric order —
    /// manifests built from this export are byte-stable. Only PCs with
    /// activity are emitted; zero-valued sub-counters are skipped.
    pub fn export(&self, scope: &mut Scope<'_>) {
        let mut k = scope.scope(&format!("k{:02}", self.kernel_id));
        k.counter_add("schema", PROFILE_SCHEMA_VERSION);
        k.counter_add("pcs", self.records.len() as u64);
        k.counter_add("issues", self.total_issues());
        k.counter_add("attributed_stalls", self.attributed_stall_cycles());
        k.counter_add("unattributed_stalls", self.unattributed.total());
        for (reason, n) in self.unattributed.iter() {
            if n > 0 {
                k.counter_add(&format!("unattributed_stall/{}", reason.label()), n);
            }
        }
        for (pc, r) in self.records.iter().enumerate() {
            if !r.has_activity() {
                continue;
            }
            let mut s = k.scope(&format!("pc{pc:04}"));
            s.counter_add("issues", r.issues);
            if r.active_lanes > 0 {
                s.counter_add("active_lanes", r.active_lanes);
            }
            if r.divergent_issues > 0 {
                s.counter_add("divergent_issues", r.divergent_issues);
            }
            if r.predicated_off > 0 {
                s.counter_add("predicated_off", r.predicated_off);
            }
            for (reason, n) in r.stalls.iter() {
                if n > 0 {
                    s.counter_add(&format!("stall/{}", reason.label()), n);
                }
            }
            for class in EligClass::ALL {
                let n = r.class_count(class);
                if n > 0 {
                    s.counter_add(&format!("class/{}", class.label()), n);
                }
            }
            for (tag, label) in ENCODING_LABELS.iter().enumerate() {
                if r.enc_counts[tag] > 0 {
                    s.counter_add(&format!("enc/{label}"), r.enc_counts[tag]);
                }
            }
            if r.enc_divergent > 0 {
                s.counter_add("enc/divergent", r.enc_divergent);
            }
            if r.raw_bytes > 0 {
                s.counter_add("raw_bytes", r.raw_bytes);
                s.counter_add("compressed_bytes", r.compressed_bytes);
            }
            if r.latency.count() > 0 {
                s.histogram_merge("latency", &r.latency);
            }
            if r.lanes.count() > 0 {
                s.histogram_merge("lanes", &r.lanes);
            }
            if r.branch.execs > 0 {
                let mut b = s.scope("branch");
                b.counter_add("execs", r.branch.execs);
                if r.branch.diverged > 0 {
                    b.counter_add("diverged", r.branch.diverged);
                }
                if r.branch.taken_lanes > 0 {
                    b.counter_add("taken_lanes", r.branch.taken_lanes);
                }
                if r.branch.not_taken_lanes > 0 {
                    b.counter_add("not_taken_lanes", r.branch.not_taken_lanes);
                }
                if r.branch.rejoined_paths > 0 {
                    b.counter_add("rejoined_paths", r.branch.rejoined_paths);
                }
                if r.branch.exited_paths > 0 {
                    b.counter_add("exited_paths", r.branch.exited_paths);
                }
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Collection handle
// ---------------------------------------------------------------------------

/// The handle the simulator's collection sites record through.
///
/// Holds either a [`KernelProfile`] or nothing; every `record_*`
/// method is a single branch when profiling is off, mirroring
/// `gscalar_trace::Tracer` — the simulator threads one `&mut Profiler`
/// through the run and pays nothing on the disabled path.
#[derive(Debug, Default)]
pub struct Profiler {
    data: Option<Box<KernelProfile>>,
}

impl Profiler {
    /// A disabled profiler; every record call is a no-op.
    #[must_use]
    pub fn off() -> Profiler {
        Profiler { data: None }
    }

    /// A profiler collecting for a kernel of `len` static
    /// instructions.
    #[must_use]
    pub fn for_kernel(kernel_id: u32, kernel: impl Into<String>, len: usize) -> Profiler {
        Profiler {
            data: Some(Box::new(KernelProfile::new(kernel_id, kernel, len))),
        }
    }

    /// Whether records are being collected.
    #[must_use]
    pub fn is_on(&self) -> bool {
        self.data.is_some()
    }

    /// A view of the collected profile, if any.
    #[must_use]
    pub fn profile(&self) -> Option<&KernelProfile> {
        self.data.as_deref()
    }

    /// Consumes the profiler, returning the collected profile.
    #[must_use]
    pub fn into_profile(self) -> Option<KernelProfile> {
        self.data.map(|b| *b)
    }

    /// Charges one issue slot to `pc` with `lanes` active lanes;
    /// `divergent` marks a mask narrower than the full warp.
    #[inline]
    pub fn record_issue(&mut self, pc: usize, lanes: u32, divergent: bool) {
        if let Some(p) = self.data.as_deref_mut() {
            let r = &mut p.records[pc];
            r.issues += 1;
            r.active_lanes += u64::from(lanes);
            r.lanes.record(u64::from(lanes));
            if divergent {
                r.divergent_issues += 1;
            }
            if lanes == 0 {
                r.predicated_off += 1;
            }
        }
    }

    /// Records the scalar-eligibility classification of one execution
    /// of the instruction at `pc`.
    #[inline]
    pub fn record_class(&mut self, pc: usize, class: EligClass) {
        if let Some(p) = self.data.as_deref_mut() {
            p.records[pc].class_counts[class.index()] += 1;
        }
    }

    /// Charges one idle scheduler cycle to the instruction at `pc`
    /// (the head of the culprit warp), or to the unattributed pool
    /// when the classification produced no culprit.
    #[inline]
    pub fn record_stall(&mut self, pc: Option<usize>, reason: StallReason) {
        if let Some(p) = self.data.as_deref_mut() {
            match pc {
                Some(pc) => p.records[pc].stalls.add(reason),
                None => p.unattributed.add(reason),
            }
        }
    }

    /// Records a functional-unit occupancy span of `cycles` for the
    /// instruction at `pc`.
    #[inline]
    pub fn record_latency(&mut self, pc: usize, cycles: u64) {
        if let Some(p) = self.data.as_deref_mut() {
            p.records[pc].latency.record(cycles);
        }
    }

    /// Records a compressor outcome for a register write performed by
    /// the instruction at `pc`: encoding tag, uncompressed and
    /// compressed byte footprint, and whether the write happened under
    /// a divergent mask. Divergent writes bypass the compressor, so —
    /// matching the aggregate `rf` byte accounting — they count toward
    /// `enc_divergent` only, not the byte totals.
    #[inline]
    pub fn record_write(
        &mut self,
        pc: usize,
        enc_tag: u8,
        raw: u64,
        compressed: u64,
        divergent: bool,
    ) {
        if let Some(p) = self.data.as_deref_mut() {
            let r = &mut p.records[pc];
            if divergent {
                r.enc_divergent += 1;
            } else {
                if (enc_tag as usize) < ENCODING_SLOTS {
                    r.enc_counts[enc_tag as usize] += 1;
                }
                r.raw_bytes += raw;
                r.compressed_bytes += compressed;
            }
        }
    }

    /// Records one execution of the branch at `pc`.
    #[inline]
    pub fn record_branch(
        &mut self,
        pc: usize,
        diverged: bool,
        taken_lanes: u32,
        not_taken_lanes: u32,
    ) {
        if let Some(p) = self.data.as_deref_mut() {
            let b = &mut p.records[pc].branch;
            b.execs += 1;
            if diverged {
                b.diverged += 1;
            }
            b.taken_lanes += u64::from(taken_lanes);
            b.not_taken_lanes += u64::from(not_taken_lanes);
        }
    }

    /// Records the end of a SIMT path pushed by the branch at
    /// `origin_pc`: it either `rejoined` at its reconvergence point or
    /// died when all its lanes exited.
    #[inline]
    pub fn record_path_end(&mut self, origin_pc: usize, rejoined: bool) {
        if let Some(p) = self.data.as_deref_mut() {
            let b = &mut p.records[origin_pc].branch;
            if rejoined {
                b.rejoined_paths += 1;
            } else {
                b.exited_paths += 1;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gscalar_metrics::MetricsRegistry;

    fn sample_profile() -> KernelProfile {
        let mut p = Profiler::for_kernel(0, "demo", 4);
        for _ in 0..10 {
            p.record_issue(0, 32, false);
            p.record_class(0, EligClass::Alu);
        }
        for _ in 0..4 {
            p.record_issue(1, 8, true);
            p.record_class(1, EligClass::Vector);
        }
        p.record_class(1, EligClass::Divergent);
        p.record_issue(2, 0, true);
        p.record_stall(Some(1), StallReason::MemPending);
        p.record_stall(Some(1), StallReason::MemPending);
        p.record_stall(Some(3), StallReason::Scoreboard);
        p.record_stall(None, StallReason::Drained);
        p.record_latency(0, 5);
        p.record_write(0, 0, 128, 4, false);
        p.record_write(0, 4, 128, 128, false);
        p.record_write(1, 0, 128, 40, true);
        p.record_branch(2, true, 8, 24);
        p.record_path_end(2, true);
        p.record_path_end(2, false);
        p.into_profile().unwrap()
    }

    #[test]
    fn off_profiler_records_nothing() {
        let mut p = Profiler::off();
        p.record_issue(0, 32, false);
        p.record_stall(Some(0), StallReason::Barrier);
        p.record_write(0, 0, 128, 4, false);
        assert!(!p.is_on());
        assert!(p.into_profile().is_none());
    }

    #[test]
    fn totals_reconcile() {
        let prof = sample_profile();
        assert_eq!(prof.total_issues(), 15);
        assert_eq!(prof.attributed_stall_cycles(), 3);
        assert_eq!(prof.unattributed.total(), 1);
        assert_eq!(prof.total_stall_cycles(), 4);
        assert_eq!(prof.record(0).issues, 10);
        assert_eq!(prof.record(0).avg_active_lanes(), 32.0);
        assert_eq!(prof.record(1).divergent_issues, 4);
        assert_eq!(prof.record(2).predicated_off, 1);
        assert_eq!(prof.record(2).branch.diverged, 1);
        assert_eq!(prof.record(2).branch.rejoined_paths, 1);
        assert_eq!(prof.record(2).branch.exited_paths, 1);
    }

    #[test]
    fn dominant_class_breaks_ties_deterministically() {
        let prof = sample_profile();
        assert_eq!(prof.record(0).dominant_class(), Some(EligClass::Alu));
        // pc1: 4× Vector vs 1× Divergent → Vector wins on count.
        assert_eq!(prof.record(1).dominant_class(), Some(EligClass::Vector));
        // pc2 never reached classification.
        assert_eq!(prof.record(2).dominant_class(), None);
        let mut r = PcRecord::default();
        r.class_counts[EligClass::Alu.index()] = 3;
        r.class_counts[EligClass::Mem.index()] = 3;
        // Tie → earlier class in ALL order.
        assert_eq!(r.dominant_class(), Some(EligClass::Alu));
    }

    #[test]
    fn compression_ratio_and_write_accounting() {
        let prof = sample_profile();
        let r0 = prof.record(0);
        assert_eq!(r0.enc_count(0), 1);
        assert_eq!(r0.enc_count(4), 1);
        assert_eq!(r0.raw_bytes, 256);
        assert_eq!(r0.compressed_bytes, 132);
        let ratio = r0.compression_ratio().unwrap();
        assert!((ratio - 256.0 / 132.0).abs() < 1e-12);
        // Divergent write counts bytes but not an encoding slot.
        let r1 = prof.record(1);
        assert_eq!(r1.enc_divergent, 1);
        assert_eq!(r1.enc_count(0), 0);
        // pc3 only stalled — no writes.
        assert_eq!(prof.record(3).compression_ratio(), None);
    }

    #[test]
    fn hotspots_rank_by_cost_then_pc() {
        let prof = sample_profile();
        // Costs: pc0 = 10, pc1 = 4 + 2 = 6, pc2 = 1, pc3 = 1.
        assert_eq!(prof.hotspots(10), vec![0, 1, 2, 3]);
        assert_eq!(prof.hotspots(2), vec![0, 1]);
    }

    #[test]
    fn export_paths_are_zero_padded_and_reconcile() {
        let prof = sample_profile();
        let mut reg = MetricsRegistry::new();
        prof.export(&mut reg.scope("profile"));
        assert_eq!(
            reg.counter("profile/k00/schema"),
            Some(PROFILE_SCHEMA_VERSION)
        );
        assert_eq!(reg.counter("profile/k00/issues"), Some(15));
        assert_eq!(reg.counter("profile/k00/pc0000/issues"), Some(10));
        assert_eq!(reg.counter("profile/k00/pc0000/class/alu"), Some(10));
        assert_eq!(reg.counter("profile/k00/pc0001/stall/mem_pending"), Some(2));
        assert_eq!(reg.counter("profile/k00/pc0002/branch/execs"), Some(1));
        assert_eq!(
            reg.counter("profile/k00/unattributed_stall/drained"),
            Some(1)
        );
        // Flattened keys sort so numeric PC order == lexicographic order.
        let flat = reg.flatten();
        let keys: Vec<&str> = flat.iter().map(|(k, _)| k.as_str()).collect();
        assert!(keys.windows(2).all(|w| w[0] < w[1]));
        let per_pc_issues: f64 = flat
            .iter()
            .filter(|(k, _)| k.starts_with("profile/k00/pc") && k.ends_with("/issues"))
            .map(|(_, v)| v)
            .sum();
        assert_eq!(per_pc_issues, 15.0);
    }

    #[test]
    fn export_is_byte_stable() {
        let prof = sample_profile();
        let render = || {
            let mut reg = MetricsRegistry::new();
            prof.export(&mut reg.scope("profile"));
            format!("{:?}", reg.flatten())
        };
        assert_eq!(render(), render());
    }
}
