//! Accounting identities, end to end. For every run — full suite and
//! generated kernels alike — each (SM, scheduler) ledger charges
//! exactly one slot per cycle, so the analyzer's stacks reconcile to
//! `cycles × ledgers` at kernel, per-SM and per-scheduler granularity,
//! and a traced run's stall events count the same slots. On generated
//! kernels, the interval power timeline also integrates to the one-shot
//! energy total, and the per-PC profile reconciles with the aggregate
//! statistics.

mod common;

use common::{build_kernel, initial_memory, multi_sm_config, program};
use gscalar::analyze::{analyze_trace, CpiStack};
use gscalar::core::{Arch, Runner, Workload};
use gscalar::isa::{Kernel, LaunchConfig};
use gscalar::sim::memory::GlobalMemory;
use gscalar::sim::{Gpu, GpuConfig, Instruments, RunObserver, SchedStats, Stats};
use gscalar::trace::{EventBuf, TraceEvent, Tracer};
use gscalar::workloads::{by_abbr, suite, Scale};
use gscalar_profile::EligClass;
use proptest::prelude::*;

struct PerSmCapture {
    per_sm: Vec<Stats>,
}

impl RunObserver for PerSmCapture {
    fn sample(&mut self, _cycle: u64, _stats: &Stats) {}

    fn finish(&mut self, _cycle: u64, _merged: &Stats, per_sm: &[Stats]) {
        self.per_sm = per_sm.to_vec();
    }
}

/// Runs the kernel on the Baseline architecture and returns (merged,
/// per-SM) statistics.
fn run_with_per_sm(
    cfg: &GpuConfig,
    kernel: &Kernel,
    launch: LaunchConfig,
    init: &GlobalMemory,
) -> (Stats, Vec<Stats>) {
    let mut gpu = Gpu::new(cfg.clone(), Arch::Baseline.config());
    let mut mem = init.clone();
    let mut capture = PerSmCapture { per_sm: Vec::new() };
    let stats = gpu
        .run_with(
            kernel,
            launch,
            &mut mem,
            &mut Instruments {
                observers: vec![&mut capture],
                ..Instruments::default()
            },
        )
        .unwrap();
    (stats, capture.per_sm)
}

/// Asserts the accounting identity at every granularity.
fn assert_reconciles(merged: &Stats, per_sm: &[Stats], num_sms: usize, what: &str) {
    let kernel = CpiStack::kernel(merged, num_sms);
    assert!(kernel.cycles > 0, "{what}: run simulated nothing");
    kernel
        .reconcile()
        .unwrap_or_else(|e| panic!("{what}: kernel stack: {e}"));
    // Per-SM and per-scheduler views split exactly the same slots.
    let mut sm_total = 0;
    for (i, sm) in per_sm.iter().enumerate() {
        let st = CpiStack::sm(sm, merged.cycles);
        st.reconcile()
            .unwrap_or_else(|e| panic!("{what}: sm{i} stack: {e}"));
        sm_total += st.total_slots();
        for (s, sc) in sm.sched.iter().enumerate() {
            CpiStack::scheduler(sc, merged.cycles, 1)
                .reconcile()
                .unwrap_or_else(|e| panic!("{what}: sm{i}/sched{s} stack: {e}"));
        }
    }
    assert_eq!(
        sm_total,
        kernel.total_slots(),
        "{what}: per-SM stacks must partition the kernel stack"
    );
}

#[test]
fn suite_stacks_reconcile_at_test_scale() {
    for w in suite(Scale::Test) {
        let (merged, per_sm) = run_with_per_sm(&multi_sm_config(), &w.kernel, w.launch, &w.memory);
        assert_reconciles(&merged, &per_sm, 4, &w.abbr);
    }
}

#[test]
fn suite_stacks_reconcile_on_the_full_chip_config() {
    // The gtx480 config (15 SMs, GTO) on a couple of benchmarks: the
    // same identity must hold where the bottleneck binary runs.
    let cfg = GpuConfig::gtx480();
    for w in suite(Scale::Test).into_iter().take(2) {
        let (merged, per_sm) = run_with_per_sm(&cfg, &w.kernel, w.launch, &w.memory);
        assert_reconciles(&merged, &per_sm, cfg.num_sms, &w.abbr);
    }
}

#[test]
fn trace_stall_events_count_the_stack_stall_slots() {
    // One number, one place: a traced run polls every cycle, so each
    // stalled scheduler-cycle of every SM is one `Stall` event, and the
    // trace's per-reason counts are the CPI stack's stall components.
    let cfg = GpuConfig::gtx480();
    let w = by_abbr("MV", Scale::Test).expect("known benchmark");
    let mut buf = EventBuf::new(1 << 20);
    let mut mem = w.memory.clone();
    let stats = Gpu::new(cfg.clone(), Arch::GScalar.config())
        .run_with(
            &w.kernel,
            w.launch,
            &mut mem,
            &mut Instruments {
                tracer: Tracer::new(&mut buf),
                ..Instruments::default()
            },
        )
        .unwrap();
    assert_eq!(buf.dropped(), 0, "the ring must hold the whole run");
    let records = buf.into_records();
    let traced = SchedStats {
        issued: records
            .iter()
            .filter(|r| matches!(r.ev, TraceEvent::Issue { .. }))
            .count() as u64,
        stalls: analyze_trace(&records, 1).by_reason,
    };
    let ledgers = (cfg.num_sms * cfg.schedulers) as u64;
    let stack = CpiStack::kernel(&stats, cfg.num_sms);
    stack.reconcile().unwrap();
    assert_eq!(
        CpiStack::from_ledgers([&traced], stats.cycles, ledgers),
        stack
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn random_kernels_reconcile(
        prog in program(),
        ctas in 1u32..7,
        warps in 1u32..3,
    ) {
        let kernel = build_kernel(&prog);
        let launch = LaunchConfig::linear(ctas, warps * 32);
        let init = initial_memory(ctas * warps * 32);
        let (merged, per_sm) = run_with_per_sm(&multi_sm_config(), &kernel, launch, &init);
        assert_reconciles(&merged, &per_sm, 4, "random kernel");
    }
}

/// A generated kernel as a workload on two CTAs of 64 threads.
fn two_cta_workload(prog: &[common::Stmt]) -> Workload {
    let launch = LaunchConfig::linear(2, 64);
    Workload::new(
        "rand",
        "RAND",
        build_kernel(prog),
        launch,
        initial_memory(128),
    )
}

/// The architectures the timeline and profile identities run on.
const METERED_ARCHS: [Arch; 3] = [Arch::Baseline, Arch::AluScalar, Arch::GScalar];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn timeline_integrates_to_one_shot_energy_and_stalls_stay_exhaustive(
        prog in program(),
        arch_pick in 0usize..3,
        interval_pick in 0usize..3,
    ) {
        let w = two_cta_workload(&prog);
        let arch = METERED_ARCHS[arch_pick];
        let sample_interval = [0u64, 7, 64][interval_pick];
        let runner = Runner::new(GpuConfig::test_small());
        let run = runner.run_metered(&w, arch, sample_interval);
        let stats = &run.report.stats;

        // The interval timeline re-integrates (sum of interval power ×
        // interval duration) to the one-shot total.
        let integrated = run.timeline.integrated_energy_pj();
        let one_shot = gscalar::power::total_energy_pj(
            stats,
            runner.config(),
            arch.rf_scheme(),
            arch.has_codec(),
            runner.energy(),
        );
        let rel = (integrated - one_shot).abs() / one_shot.max(1e-12);
        prop_assert!(
            rel < 1e-6,
            "timeline {integrated} pJ vs one-shot {one_shot} pJ (rel {rel:.3e}, \
             arch {arch:?}, interval {sample_interval})"
        );

        // Exactly one stall reason is charged per idle scheduler-cycle,
        // with metrics observation enabled.
        prop_assert_eq!(stats.pipe.stalls.total(), stats.pipe.scheduler_idle_cycles);

        // The registry saw the same run: its exported cycle counter
        // matches the merged statistics.
        let flat = run.registry.flatten();
        let cycles = flat
            .iter()
            .find(|(p, _)| p == "gpu/cycles")
            .expect("gpu/cycles exported")
            .1;
        prop_assert_eq!(cycles, stats.cycles as f64);
    }

    #[test]
    fn per_pc_profile_reconciles_with_aggregate_stats(
        prog in program(),
        arch_pick in 0usize..3,
    ) {
        let w = two_cta_workload(&prog);
        let arch = METERED_ARCHS[arch_pick];
        let runner = Runner::new(GpuConfig::test_small());
        let run = runner.run_profiled(&w, arch);
        let stats = &run.report.stats;
        let prof = &run.profile;

        // Profiling must not perturb the simulation.
        let plain = runner.run(&w, arch);
        prop_assert_eq!(&plain.stats, stats);

        // Issue slots: every issued warp-instruction is attributed to
        // exactly one PC; every idle scheduler-cycle is charged to the
        // losing warp's PC or recorded as unattributed.
        prop_assert_eq!(prof.total_issues(), stats.pipe.issued);
        prop_assert_eq!(prof.total_stall_cycles(), stats.pipe.scheduler_idle_cycles);

        // Lane-level totals.
        let recs = prof.records();
        let lanes: u64 = recs.iter().map(|r| r.active_lanes).sum();
        prop_assert_eq!(lanes, stats.instr.thread_instrs);
        let divergent: u64 = recs.iter().map(|r| r.divergent_issues).sum();
        prop_assert_eq!(divergent, stats.instr.divergent_instrs);

        // Scalar-eligibility classes: per-PC class counts sum to the
        // aggregate eligible_* counters.
        let class_sum = |c: EligClass| -> u64 { recs.iter().map(|r| r.class_count(c)).sum() };
        prop_assert_eq!(class_sum(EligClass::Alu), stats.instr.eligible_alu);
        prop_assert_eq!(class_sum(EligClass::Sfu), stats.instr.eligible_sfu);
        prop_assert_eq!(class_sum(EligClass::Mem), stats.instr.eligible_mem);
        prop_assert_eq!(class_sum(EligClass::Half), stats.instr.eligible_half);
        prop_assert_eq!(class_sum(EligClass::Divergent), stats.instr.eligible_divergent);

        // Register-write compressor outcomes: per-PC byte totals match
        // the aggregate register-file accounting (divergent writes are
        // excluded from both, by the same rule).
        let raw: u64 = recs.iter().map(|r| r.raw_bytes).sum();
        prop_assert_eq!(raw, stats.rf.raw_bytes);
        let compressed: u64 = recs.iter().map(|r| r.compressed_bytes).sum();
        prop_assert_eq!(compressed, stats.rf.ours_bytes);
        let writes: u64 = recs
            .iter()
            .map(|r| {
                (0..gscalar_profile::ENCODING_SLOTS)
                    .map(|t| r.enc_count(t))
                    .sum::<u64>()
                    + r.enc_divergent
            })
            .sum();
        prop_assert_eq!(writes, stats.rf.writes);
    }
}
