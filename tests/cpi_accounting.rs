//! The CPI-stack accounting identity, end to end: for every run — full
//! suite and randomized divergent/looping kernels alike — each
//! (SM, scheduler) ledger charges exactly one slot per cycle, so the
//! analyzer's stacks reconcile to `cycles × ledgers` at kernel, per-SM
//! and per-scheduler granularity, serial and parallel byte-identically.

mod common;

use common::{build_kernel, initial_memory, step_strategy};
use gscalar::analyze::CpiStack;
use gscalar::core::Arch;
use gscalar::isa::{Kernel, LaunchConfig};
use gscalar::sim::memory::GlobalMemory;
use gscalar::sim::{Gpu, GpuConfig, Instruments, RunObserver, Stats};
use gscalar::workloads::{suite, Scale};
use proptest::prelude::*;

/// A multi-SM configuration so idle-skip bulk charging, per-SM merge
/// and the parallel engine all participate.
fn multi_sm_config(threads: usize) -> GpuConfig {
    let mut cfg = GpuConfig::test_small();
    cfg.num_sms = 4;
    cfg.exec_threads = threads;
    cfg
}

struct PerSmCapture {
    per_sm: Vec<Stats>,
}

impl RunObserver for PerSmCapture {
    fn sample(&mut self, _cycle: u64, _stats: &Stats) {}

    fn finish(&mut self, _cycle: u64, _merged: &Stats, per_sm: &[Stats]) {
        self.per_sm = per_sm.to_vec();
    }
}

/// Runs the kernel and returns (merged, per-SM) statistics.
fn run_with_per_sm(
    kernel: &Kernel,
    launch: LaunchConfig,
    init: &GlobalMemory,
    threads: usize,
) -> (Stats, Vec<Stats>) {
    let mut gpu = Gpu::new(multi_sm_config(threads), Arch::Baseline.config());
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
        let (merged, per_sm) = run_with_per_sm(&w.kernel, w.launch, &w.memory, 1);
        assert_reconciles(&merged, &per_sm, 4, &w.abbr);
    }
}

#[test]
fn suite_stacks_reconcile_on_the_full_chip_config() {
    // The gtx480 config (15 SMs, GTO) on a couple of benchmarks: the
    // same identity must hold where the bottleneck binary runs.
    let cfg = GpuConfig::gtx480();
    for w in suite(Scale::Test).into_iter().take(2) {
        let mut gpu = Gpu::new(cfg.clone(), Arch::Baseline.config());
        let mut mem = w.memory.clone();
        let mut capture = PerSmCapture { per_sm: Vec::new() };
        let merged = gpu
            .run_with(
                &w.kernel,
                w.launch,
                &mut mem,
                &mut Instruments {
                    observers: vec![&mut capture],
                    ..Instruments::default()
                },
            )
            .unwrap();
        assert_reconciles(&merged, &capture.per_sm, cfg.num_sms, &w.abbr);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn random_kernels_reconcile_serial_and_parallel(
        steps in proptest::collection::vec(step_strategy(), 1..10),
        ctas in 1u32..7,
        warps in 1u32..3,
    ) {
        let kernel = build_kernel(&steps);
        let launch = LaunchConfig::linear(ctas, warps * 32);
        let init = initial_memory(ctas * warps * 32);
        let (serial, serial_per_sm) = run_with_per_sm(&kernel, launch, &init, 1);
        assert_reconciles(&serial, &serial_per_sm, 4, "serial");
        // The new ledgers obey the determinism contract too: a 4-thread
        // run carries byte-identical stats (sched ledgers, MSHR
        // occupancy histogram and all) at every granularity.
        let (parallel, parallel_per_sm) = run_with_per_sm(&kernel, launch, &init, 4);
        prop_assert_eq!(&serial, &parallel);
        prop_assert_eq!(&serial_per_sm, &parallel_per_sm);
        assert_reconciles(&parallel, &parallel_per_sm, 4, "parallel");
    }
}
