//! Simulation statistics: everything the paper's figures are built from.

use gscalar_compress::EncodingHistogram;
use gscalar_metrics::Histogram;
use gscalar_trace::StallBreakdown;

/// Scalar-execution eligibility classes, matching the cumulative
/// categories of Figure 9.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ScalarClass {
    /// Not eligible for any form of scalar execution.
    Vector,
    /// Non-divergent ALU instruction with all-scalar operands
    /// (the prior-work "ALU scalar" class).
    Alu,
    /// Non-divergent SFU instruction with all-scalar operands.
    Sfu,
    /// Non-divergent memory instruction with a uniform address (and
    /// value, for stores).
    Mem,
    /// Non-divergent instruction scalar per 16-lane chunk but not as a
    /// whole warp.
    Half,
    /// Divergent instruction whose active lanes see scalar operands
    /// with a matching recorded mask (Section 4.2).
    Divergent,
}

/// Instruction-mix and scalar-eligibility counters (warp-level
/// instructions).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct InstrStats {
    /// Warp-level dynamic instructions.
    pub warp_instrs: u64,
    /// Thread-level dynamic instructions (sum of active lanes).
    pub thread_instrs: u64,
    /// Warp instructions on each functional unit.
    pub alu_instrs: u64,
    /// SFU warp instructions.
    pub sfu_instrs: u64,
    /// Memory warp instructions.
    pub mem_instrs: u64,
    /// Control (branch/bar/exit) warp instructions.
    pub ctrl_instrs: u64,
    /// Divergent warp instructions (active mask ≠ warp mask).
    pub divergent_instrs: u64,
    /// Eligibility counts per class (Figure 9); `Vector` not counted.
    pub eligible_alu: u64,
    /// Eligible non-divergent SFU scalar instructions.
    pub eligible_sfu: u64,
    /// Eligible non-divergent memory scalar instructions.
    pub eligible_mem: u64,
    /// Eligible half-warp scalar instructions.
    pub eligible_half: u64,
    /// Eligible divergent scalar instructions (Figure 1's second bar).
    pub eligible_divergent: u64,
    /// Instructions actually *executed* scalar under the active
    /// architecture.
    pub executed_scalar: u64,
    /// Instructions executed half-warp scalar.
    pub executed_half: u64,
    /// Decompress-move instructions injected before divergent writes to
    /// compressed registers (Section 3.3 overhead).
    pub decompress_moves: u64,
    /// Decompress-moves elided by compiler-assisted liveness
    /// (Section 3.3's compile-time optimization).
    pub decompress_moves_elided: u64,
}

impl InstrStats {
    /// Records eligibility of one warp instruction.
    pub fn record_class(&mut self, class: ScalarClass) {
        match class {
            ScalarClass::Vector => {}
            ScalarClass::Alu => self.eligible_alu += 1,
            ScalarClass::Sfu => self.eligible_sfu += 1,
            ScalarClass::Mem => self.eligible_mem += 1,
            ScalarClass::Half => self.eligible_half += 1,
            ScalarClass::Divergent => self.eligible_divergent += 1,
        }
    }

    /// Total instructions eligible for any scalar class.
    #[must_use]
    pub fn eligible_total(&self) -> u64 {
        self.eligible_alu
            + self.eligible_sfu
            + self.eligible_mem
            + self.eligible_half
            + self.eligible_divergent
    }
}

/// Register-file access event counters, recorded *scheme-independently*
/// so Figure 12 can compare all four register-file designs from one run.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct RfStats {
    /// Vector-register read accesses.
    pub reads: u64,
    /// Vector-register write accesses.
    pub writes: u64,
    /// Baseline scheme: SRAM arrays activated (full-width accesses plus
    /// mask-dependent partial writes, Section 3.3).
    pub baseline_arrays: u64,
    /// Our byte-wise scheme: data SRAM arrays activated.
    pub ours_arrays: u64,
    /// Our scheme: BVR/EBR small-array accesses.
    pub ours_bvr: u64,
    /// W-C (BDI) scheme: SRAM arrays activated.
    pub bdi_arrays: u64,
    /// Scalar-RF scheme \[3\]: accesses served by the small scalar RF.
    pub scalar_rf_small: u64,
    /// Scalar-RF scheme \[3\]: accesses served by the full-width RF
    /// (in SRAM array activations).
    pub scalar_rf_arrays: u64,
    /// Crossbar bytes moved, baseline (full vector always).
    pub xbar_bytes_baseline: u64,
    /// Crossbar bytes moved, our scheme (base bytes never travel).
    pub xbar_bytes_ours: u64,
    /// Compressor invocations (one per write-back in compressed archs).
    pub compressor_ops: u64,
    /// Decompressor invocations (one per compressed operand read).
    pub decompressor_ops: u64,
    /// Raw bytes of all non-divergent register writes (ratio basis).
    pub raw_bytes: u64,
    /// Bytes after byte-wise compression for those writes.
    pub ours_bytes: u64,
    /// Bytes after BDI compression for those writes.
    pub bdi_bytes: u64,
    /// Figure 8 histogram over operand accesses.
    pub histogram: EncodingHistogram,
}

impl RfStats {
    /// Aggregate compression ratio of the byte-wise scheme
    /// (total raw bytes / total compressed bytes, Section 5.3).
    #[must_use]
    pub fn ours_ratio(&self) -> f64 {
        if self.ours_bytes == 0 {
            1.0
        } else {
            self.raw_bytes as f64 / self.ours_bytes as f64
        }
    }

    /// Aggregate compression ratio of BDI.
    #[must_use]
    pub fn bdi_ratio(&self) -> f64 {
        if self.bdi_bytes == 0 {
            1.0
        } else {
            self.raw_bytes as f64 / self.bdi_bytes as f64
        }
    }
}

/// Execution-unit activity counters (for the power model).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ExecStats {
    /// Integer ALU lane-operations.
    pub int_lane_ops: u64,
    /// Floating-point ALU lane-operations.
    pub fp_lane_ops: u64,
    /// SFU lane-operations.
    pub sfu_lane_ops: u64,
    /// Lane-operations *avoided* by scalar execution (clock-gated lanes
    /// that a vector execution would have driven), per unit class.
    pub int_lane_ops_saved: u64,
    /// FP lane-operations saved by scalar execution.
    pub fp_lane_ops_saved: u64,
    /// SFU lane-operations saved by scalar execution.
    pub sfu_lane_ops_saved: u64,
}

/// Memory-system counters.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct MemStats {
    /// Coalesced global accesses (cache-line granules) issued.
    pub global_accesses: u64,
    /// L1 hits.
    pub l1_hits: u64,
    /// L1 misses.
    pub l1_misses: u64,
    /// Loads absorbed by an outstanding L1 miss to the same line (MSHR
    /// merges). Neither hits nor misses: they cause no new L2 traffic
    /// and do not touch the L1 tags, but they still wait for the fill.
    /// `l1_hits + l1_misses + l1_mshr_hits` equals the load share of
    /// `global_accesses`.
    pub l1_mshr_hits: u64,
    /// L2 hits.
    pub l2_hits: u64,
    /// L2 misses (DRAM accesses).
    pub l2_misses: u64,
    /// Shared-memory accesses (warp-level).
    pub shared_accesses: u64,
    /// NoC flit-equivalents moved (line transfers × 2 directions).
    pub noc_flits: u64,
    /// Memory warp instructions whose lanes coalesced to one line.
    pub fully_coalesced: u64,
    /// Outstanding L1 misses (live MSHR entries) observed at each new
    /// miss allocation — the memory-level-parallelism profile that
    /// `gscalar-analyze` turns into an MLP estimate. One sample per L1
    /// miss, taken *after* the new entry is added, so an isolated miss
    /// records 1.
    pub mshr_occupancy: Histogram,
}

/// Pipeline/front-end counters.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct PipeStats {
    /// Instructions issued by schedulers.
    pub issued: u64,
    /// Cycles a scheduler found no ready warp.
    pub scheduler_idle_cycles: u64,
    /// Operand-collector allocations.
    pub oc_allocs: u64,
    /// Cycles instructions waited on RF bank conflicts (sum).
    pub bank_conflict_cycles: u64,
    /// Reads serialized on the dedicated scalar RF bank (prior-work
    /// architecture, the Section 4.1 bottleneck).
    pub scalar_bank_serializations: u64,
    /// Same-bank BVR read requests deferred to a later cycle.
    pub bvr_conflict_cycles: u64,
    /// Per-reason classification of `scheduler_idle_cycles`; the
    /// simulator charges exactly one reason per idle scheduler-cycle,
    /// so `stalls.total() == scheduler_idle_cycles` always holds.
    pub stalls: StallBreakdown,
}

/// Per-scheduler issue-slot accounting: the cycle-exact ledger behind
/// `gscalar-analyze`'s CPI stacks.
///
/// Every simulated cycle charges exactly one slot per scheduler —
/// either an issue or a classified stall, whether the cycle was polled
/// or jumped over in bulk while its SM slept. The accounting identity,
/// per SM and scheduler:
///
/// ```text
/// issued + stalls.total() == Stats::cycles
/// ```
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct SchedStats {
    /// Instructions this scheduler issued.
    pub issued: u64,
    /// Per-reason stall slots charged cycle-by-cycle (this scheduler's
    /// share of `PipeStats::stalls`).
    pub stalls: StallBreakdown,
}

impl SchedStats {
    /// Total issue slots this scheduler accounted for (equals elapsed
    /// cycles for a single SM's ledger).
    #[must_use]
    pub fn slots(&self) -> u64 {
        self.issued + self.stalls.total()
    }
}

/// Complete statistics for one simulated kernel run.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Stats {
    /// Elapsed SM cycles.
    pub cycles: u64,
    /// Instruction counters.
    pub instr: InstrStats,
    /// Register-file counters.
    pub rf: RfStats,
    /// Execution-unit counters.
    pub exec: ExecStats,
    /// Memory-system counters.
    pub mem: MemStats,
    /// Pipeline counters.
    pub pipe: PipeStats,
    /// Per-scheduler issue-slot ledgers (indexed by scheduler id;
    /// empty only for a default-constructed `Stats`). Merging across
    /// SMs sums element-wise, so a merged ledger's `slots()` equals
    /// `cycles × SMs` per scheduler.
    pub sched: Vec<SchedStats>,
}

impl Stats {
    /// Thread-level IPC.
    #[must_use]
    pub fn ipc(&self) -> f64 {
        if self.cycles == 0 {
            0.0
        } else {
            self.instr.thread_instrs as f64 / self.cycles as f64
        }
    }

    /// Warp-level IPC.
    #[must_use]
    pub fn warp_ipc(&self) -> f64 {
        if self.cycles == 0 {
            0.0
        } else {
            self.instr.warp_instrs as f64 / self.cycles as f64
        }
    }

    /// Fraction of warp instructions that are divergent (Figure 1).
    #[must_use]
    pub fn divergent_fraction(&self) -> f64 {
        if self.instr.warp_instrs == 0 {
            0.0
        } else {
            self.instr.divergent_instrs as f64 / self.instr.warp_instrs as f64
        }
    }

    /// Exports every counter into a [`gscalar_metrics::Scope`] under hierarchical
    /// paths (`instr/…`, `rf/…`, `exec/…`, `mem/…`, `pipe/…`).
    ///
    /// Like [`Stats::merge`], every sub-struct is exhaustively
    /// destructured: adding a counter field without deciding how it is
    /// exported is a compile error, not a silently missing metric.
    pub fn export(&self, scope: &mut gscalar_metrics::Scope<'_>) {
        let Stats {
            cycles,
            instr,
            rf,
            exec,
            mem,
            pipe,
            sched,
        } = self;
        scope.counter_add("cycles", *cycles);
        scope.gauge_set("ipc", self.ipc());
        scope.gauge_set("warp_ipc", self.warp_ipc());
        scope.gauge_set("divergent_fraction", self.divergent_fraction());

        let InstrStats {
            warp_instrs,
            thread_instrs,
            alu_instrs,
            sfu_instrs,
            mem_instrs,
            ctrl_instrs,
            divergent_instrs,
            eligible_alu,
            eligible_sfu,
            eligible_mem,
            eligible_half,
            eligible_divergent,
            executed_scalar,
            executed_half,
            decompress_moves,
            decompress_moves_elided,
        } = instr;
        let mut s = scope.scope("instr");
        s.counter_add("warp_instrs", *warp_instrs);
        s.counter_add("thread_instrs", *thread_instrs);
        s.counter_add("alu_instrs", *alu_instrs);
        s.counter_add("sfu_instrs", *sfu_instrs);
        s.counter_add("mem_instrs", *mem_instrs);
        s.counter_add("ctrl_instrs", *ctrl_instrs);
        s.counter_add("divergent_instrs", *divergent_instrs);
        s.counter_add("eligible_alu", *eligible_alu);
        s.counter_add("eligible_sfu", *eligible_sfu);
        s.counter_add("eligible_mem", *eligible_mem);
        s.counter_add("eligible_half", *eligible_half);
        s.counter_add("eligible_divergent", *eligible_divergent);
        s.counter_add("executed_scalar", *executed_scalar);
        s.counter_add("executed_half", *executed_half);
        s.counter_add("decompress_moves", *decompress_moves);
        s.counter_add("decompress_moves_elided", *decompress_moves_elided);

        let RfStats {
            reads,
            writes,
            baseline_arrays,
            ours_arrays,
            ours_bvr,
            bdi_arrays,
            scalar_rf_small,
            scalar_rf_arrays,
            xbar_bytes_baseline,
            xbar_bytes_ours,
            compressor_ops,
            decompressor_ops,
            raw_bytes,
            ours_bytes,
            bdi_bytes,
            histogram,
        } = rf;
        let mut s = scope.scope("rf");
        s.counter_add("reads", *reads);
        s.counter_add("writes", *writes);
        s.counter_add("baseline_arrays", *baseline_arrays);
        s.counter_add("ours_arrays", *ours_arrays);
        s.counter_add("ours_bvr", *ours_bvr);
        s.counter_add("bdi_arrays", *bdi_arrays);
        s.counter_add("scalar_rf_small", *scalar_rf_small);
        s.counter_add("scalar_rf_arrays", *scalar_rf_arrays);
        s.counter_add("xbar_bytes_baseline", *xbar_bytes_baseline);
        s.counter_add("xbar_bytes_ours", *xbar_bytes_ours);
        s.counter_add("compressor_ops", *compressor_ops);
        s.counter_add("decompressor_ops", *decompressor_ops);
        s.counter_add("raw_bytes", *raw_bytes);
        s.counter_add("ours_bytes", *ours_bytes);
        s.counter_add("bdi_bytes", *bdi_bytes);
        let mut h = s.scope("encoding");
        for (label, count) in histogram.iter() {
            h.counter_add(label, count);
        }

        let ExecStats {
            int_lane_ops,
            fp_lane_ops,
            sfu_lane_ops,
            int_lane_ops_saved,
            fp_lane_ops_saved,
            sfu_lane_ops_saved,
        } = exec;
        let mut s = scope.scope("exec");
        s.counter_add("int_lane_ops", *int_lane_ops);
        s.counter_add("fp_lane_ops", *fp_lane_ops);
        s.counter_add("sfu_lane_ops", *sfu_lane_ops);
        s.counter_add("int_lane_ops_saved", *int_lane_ops_saved);
        s.counter_add("fp_lane_ops_saved", *fp_lane_ops_saved);
        s.counter_add("sfu_lane_ops_saved", *sfu_lane_ops_saved);

        let MemStats {
            global_accesses,
            l1_hits,
            l1_misses,
            l1_mshr_hits,
            l2_hits,
            l2_misses,
            shared_accesses,
            noc_flits,
            fully_coalesced,
            mshr_occupancy,
        } = mem;
        let mut s = scope.scope("mem");
        s.counter_add("global_accesses", *global_accesses);
        s.counter_add("l1_hits", *l1_hits);
        s.counter_add("l1_misses", *l1_misses);
        s.counter_add("l1_mshr_hits", *l1_mshr_hits);
        s.counter_add("l2_hits", *l2_hits);
        s.counter_add("l2_misses", *l2_misses);
        s.counter_add("shared_accesses", *shared_accesses);
        s.counter_add("noc_flits", *noc_flits);
        s.counter_add("fully_coalesced", *fully_coalesced);
        s.histogram_merge("mshr_occupancy", mshr_occupancy);

        let PipeStats {
            issued,
            scheduler_idle_cycles,
            oc_allocs,
            bank_conflict_cycles,
            scalar_bank_serializations,
            bvr_conflict_cycles,
            stalls,
        } = pipe;
        let mut s = scope.scope("pipe");
        s.counter_add("issued", *issued);
        s.counter_add("scheduler_idle_cycles", *scheduler_idle_cycles);
        s.counter_add("oc_allocs", *oc_allocs);
        s.counter_add("bank_conflict_cycles", *bank_conflict_cycles);
        s.counter_add("scalar_bank_serializations", *scalar_bank_serializations);
        s.counter_add("bvr_conflict_cycles", *bvr_conflict_cycles);
        let mut st = s.scope("stall");
        for (reason, count) in stalls.iter() {
            st.counter_add(reason.label(), count);
        }

        let mut s = scope.scope("sched");
        for (i, sc) in sched.iter().enumerate() {
            let SchedStats { issued, stalls } = sc;
            let mut s = s.scope(&i.to_string());
            s.counter_add("issued", *issued);
            let mut st = s.scope("stall");
            for (reason, count) in stalls.iter() {
                st.counter_add(reason.label(), count);
            }
        }
    }

    /// Merges another run's statistics (used to aggregate across SMs).
    ///
    /// Every sub-struct is exhaustively destructured (no `..` rest
    /// patterns), so adding a counter field without deciding how it
    /// merges is a compile error — not a silently dropped statistic.
    pub fn merge(&mut self, o: &Stats) {
        let Stats {
            cycles,
            instr,
            rf,
            exec,
            mem,
            pipe,
            sched,
        } = o;
        self.cycles = self.cycles.max(*cycles);

        let InstrStats {
            warp_instrs,
            thread_instrs,
            alu_instrs,
            sfu_instrs,
            mem_instrs,
            ctrl_instrs,
            divergent_instrs,
            eligible_alu,
            eligible_sfu,
            eligible_mem,
            eligible_half,
            eligible_divergent,
            executed_scalar,
            executed_half,
            decompress_moves,
            decompress_moves_elided,
        } = instr;
        let i = &mut self.instr;
        i.warp_instrs += warp_instrs;
        i.thread_instrs += thread_instrs;
        i.alu_instrs += alu_instrs;
        i.sfu_instrs += sfu_instrs;
        i.mem_instrs += mem_instrs;
        i.ctrl_instrs += ctrl_instrs;
        i.divergent_instrs += divergent_instrs;
        i.eligible_alu += eligible_alu;
        i.eligible_sfu += eligible_sfu;
        i.eligible_mem += eligible_mem;
        i.eligible_half += eligible_half;
        i.eligible_divergent += eligible_divergent;
        i.executed_scalar += executed_scalar;
        i.executed_half += executed_half;
        i.decompress_moves += decompress_moves;
        i.decompress_moves_elided += decompress_moves_elided;

        let RfStats {
            reads,
            writes,
            baseline_arrays,
            ours_arrays,
            ours_bvr,
            bdi_arrays,
            scalar_rf_small,
            scalar_rf_arrays,
            xbar_bytes_baseline,
            xbar_bytes_ours,
            compressor_ops,
            decompressor_ops,
            raw_bytes,
            ours_bytes,
            bdi_bytes,
            histogram,
        } = rf;
        let r = &mut self.rf;
        r.reads += reads;
        r.writes += writes;
        r.baseline_arrays += baseline_arrays;
        r.ours_arrays += ours_arrays;
        r.ours_bvr += ours_bvr;
        r.bdi_arrays += bdi_arrays;
        r.scalar_rf_small += scalar_rf_small;
        r.scalar_rf_arrays += scalar_rf_arrays;
        r.xbar_bytes_baseline += xbar_bytes_baseline;
        r.xbar_bytes_ours += xbar_bytes_ours;
        r.compressor_ops += compressor_ops;
        r.decompressor_ops += decompressor_ops;
        r.raw_bytes += raw_bytes;
        r.ours_bytes += ours_bytes;
        r.bdi_bytes += bdi_bytes;
        r.histogram.merge(histogram);

        let ExecStats {
            int_lane_ops,
            fp_lane_ops,
            sfu_lane_ops,
            int_lane_ops_saved,
            fp_lane_ops_saved,
            sfu_lane_ops_saved,
        } = exec;
        let e = &mut self.exec;
        e.int_lane_ops += int_lane_ops;
        e.fp_lane_ops += fp_lane_ops;
        e.sfu_lane_ops += sfu_lane_ops;
        e.int_lane_ops_saved += int_lane_ops_saved;
        e.fp_lane_ops_saved += fp_lane_ops_saved;
        e.sfu_lane_ops_saved += sfu_lane_ops_saved;

        let MemStats {
            global_accesses,
            l1_hits,
            l1_misses,
            l1_mshr_hits,
            l2_hits,
            l2_misses,
            shared_accesses,
            noc_flits,
            fully_coalesced,
            mshr_occupancy,
        } = mem;
        let m = &mut self.mem;
        m.global_accesses += global_accesses;
        m.l1_hits += l1_hits;
        m.l1_misses += l1_misses;
        m.l1_mshr_hits += l1_mshr_hits;
        m.l2_hits += l2_hits;
        m.l2_misses += l2_misses;
        m.shared_accesses += shared_accesses;
        m.noc_flits += noc_flits;
        m.fully_coalesced += fully_coalesced;
        m.mshr_occupancy.merge(mshr_occupancy);

        let PipeStats {
            issued,
            scheduler_idle_cycles,
            oc_allocs,
            bank_conflict_cycles,
            scalar_bank_serializations,
            bvr_conflict_cycles,
            stalls,
        } = pipe;
        let p = &mut self.pipe;
        p.issued += issued;
        p.scheduler_idle_cycles += scheduler_idle_cycles;
        p.oc_allocs += oc_allocs;
        p.bank_conflict_cycles += bank_conflict_cycles;
        p.scalar_bank_serializations += scalar_bank_serializations;
        p.bvr_conflict_cycles += bvr_conflict_cycles;
        p.stalls.merge(stalls);

        // Element-wise per-scheduler merge; a default-constructed
        // destination grows to the source's scheduler count.
        if self.sched.len() < sched.len() {
            self.sched.resize(sched.len(), SchedStats::default());
        }
        for (d, s) in self.sched.iter_mut().zip(sched.iter()) {
            let SchedStats { issued, stalls } = s;
            d.issued += issued;
            d.stalls.merge(stalls);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn eligibility_classes_accumulate() {
        let mut s = InstrStats::default();
        s.record_class(ScalarClass::Alu);
        s.record_class(ScalarClass::Sfu);
        s.record_class(ScalarClass::Divergent);
        s.record_class(ScalarClass::Vector);
        assert_eq!(s.eligible_total(), 3);
        assert_eq!(s.eligible_alu, 1);
        assert_eq!(s.eligible_divergent, 1);
    }

    #[test]
    fn ipc_handles_zero_cycles() {
        let s = Stats::default();
        assert_eq!(s.ipc(), 0.0);
        assert_eq!(s.divergent_fraction(), 0.0);
    }

    #[test]
    fn merge_adds_counts_and_maxes_cycles() {
        let mut a = Stats {
            cycles: 100,
            ..Default::default()
        };
        a.instr.warp_instrs = 10;
        let mut b = Stats {
            cycles: 150,
            ..Default::default()
        };
        b.instr.warp_instrs = 5;
        b.rf.reads = 7;
        a.merge(&b);
        assert_eq!(a.cycles, 150);
        assert_eq!(a.instr.warp_instrs, 15);
        assert_eq!(a.rf.reads, 7);
    }

    #[test]
    fn merge_into_default_covers_every_field() {
        // Every field is built with an exhaustive literal (no
        // `..Default::default()`), and each gets a distinct nonzero
        // value. Merging into an empty Stats must reproduce the source
        // exactly; a counter silently dropped by `merge` would fail the
        // equality below, and a field added without updating this test
        // fails to compile.
        let mut stalls = StallBreakdown::default();
        stalls.add(gscalar_trace::StallReason::MemPending);
        let mut mshr_occupancy = Histogram::default();
        mshr_occupancy.record(3);
        let mut sched_stalls = StallBreakdown::default();
        sched_stalls.add(gscalar_trace::StallReason::Scoreboard);
        let src = Stats {
            cycles: 1,
            instr: InstrStats {
                warp_instrs: 2,
                thread_instrs: 3,
                alu_instrs: 4,
                sfu_instrs: 5,
                mem_instrs: 6,
                ctrl_instrs: 7,
                divergent_instrs: 8,
                eligible_alu: 9,
                eligible_sfu: 10,
                eligible_mem: 11,
                eligible_half: 12,
                eligible_divergent: 13,
                executed_scalar: 14,
                executed_half: 15,
                decompress_moves: 16,
                decompress_moves_elided: 17,
            },
            rf: RfStats {
                reads: 18,
                writes: 19,
                baseline_arrays: 20,
                ours_arrays: 21,
                ours_bvr: 22,
                bdi_arrays: 23,
                scalar_rf_small: 24,
                scalar_rf_arrays: 25,
                xbar_bytes_baseline: 26,
                xbar_bytes_ours: 27,
                compressor_ops: 28,
                decompressor_ops: 29,
                raw_bytes: 30,
                ours_bytes: 31,
                bdi_bytes: 32,
                histogram: EncodingHistogram::from_counts([33, 34, 35, 36, 37, 38]),
            },
            exec: ExecStats {
                int_lane_ops: 39,
                fp_lane_ops: 40,
                sfu_lane_ops: 41,
                int_lane_ops_saved: 42,
                fp_lane_ops_saved: 43,
                sfu_lane_ops_saved: 44,
            },
            mem: MemStats {
                global_accesses: 45,
                l1_hits: 46,
                l1_misses: 47,
                l1_mshr_hits: 59,
                l2_hits: 48,
                l2_misses: 49,
                shared_accesses: 50,
                noc_flits: 51,
                fully_coalesced: 52,
                mshr_occupancy,
            },
            pipe: PipeStats {
                issued: 53,
                scheduler_idle_cycles: 54,
                oc_allocs: 55,
                bank_conflict_cycles: 56,
                scalar_bank_serializations: 57,
                bvr_conflict_cycles: 58,
                stalls,
            },
            sched: vec![SchedStats {
                issued: 59,
                stalls: sched_stalls,
            }],
        };
        let mut dst = Stats::default();
        dst.merge(&src);
        assert_eq!(dst, src);
        // Merging twice doubles every additive counter but maxes cycles.
        dst.merge(&src);
        assert_eq!(dst.cycles, 1);
        assert_eq!(dst.instr.warp_instrs, 4);
        assert_eq!(dst.rf.histogram.divergent(), 76);
        assert_eq!(dst.pipe.stalls.total(), 2);
        assert_eq!(dst.pipe.bvr_conflict_cycles, 116);
        assert_eq!(dst.mem.mshr_occupancy.count(), 2);
        assert_eq!(dst.mem.mshr_occupancy.sum(), 6);
        assert_eq!(dst.sched.len(), 1);
        assert_eq!(dst.sched[0].issued, 118);
        assert_eq!(dst.sched[0].slots(), 2 * (59 + 1));
    }

    #[test]
    fn ratios_are_byte_aggregates() {
        let r = RfStats {
            raw_bytes: 256,
            ours_bytes: 100,
            bdi_bytes: 128,
            ..Default::default()
        };
        assert!((r.ours_ratio() - 2.56).abs() < 1e-9);
        assert!((r.bdi_ratio() - 2.0).abs() < 1e-9);
        assert_eq!(RfStats::default().ours_ratio(), 1.0);
        assert_eq!(RfStats::default().bdi_ratio(), 1.0);
    }
}
