//! The engine's determinism contract: instruments only read a run.
//! `Gpu::run_with` with host profiling or live telemetry attached must
//! produce results **byte-identical** to a run without them — same
//! `Stats`, same final memory image, same trace event sequence, same
//! per-PC profile — and a budget must trip at exactly the sample
//! boundary it reaches. Generated kernels must also leave the memory
//! the reference interpreter does, on every architecture.
//!
//! Exercised two ways: over the full benchmark suite at test scale, and
//! over randomized kernels (ALU mixes, loads/stores, divergence,
//! loops) generated by proptest.

mod common;

use common::{build_kernel, initial_memory, step_strategy};
use gscalar::core::Arch;
use gscalar::isa::{Kernel, LaunchConfig};
use gscalar::sim::memory::GlobalMemory;
use gscalar::sim::reference::run_reference;
use gscalar::sim::{
    ArchConfig, BudgetExceeded, Gpu, GpuConfig, Instruments, LiveObserver, Profiler, RunObserver,
    Stats,
};
use gscalar::trace::{EventBuf, Record, Tracer};
use gscalar::workloads::{suite, Scale};
use proptest::prelude::*;

fn gscalar_arch() -> ArchConfig {
    Arch::GScalar.config()
}

/// A small multi-SM configuration: the 1-SM `test_small` widened to 4
/// SMs, so the idle skip and the per-SM merge both participate.
fn multi_sm_config() -> GpuConfig {
    let mut cfg = GpuConfig::test_small();
    cfg.num_sms = 4;
    cfg
}

struct RunOutput {
    stats: Stats,
    mem: GlobalMemory,
    trace: Vec<Record>,
    profile: Option<gscalar::sim::KernelProfile>,
}

/// Runs `kernel` fully instrumented (tracing and profiling at once).
fn run_instrumented(kernel: &Kernel, launch: LaunchConfig, init: &GlobalMemory) -> RunOutput {
    let mut gpu = Gpu::new(multi_sm_config(), gscalar_arch());
    let mut mem = init.clone();
    let mut buf = EventBuf::new(1 << 20);
    let (stats, profiler) = {
        let mut ins = Instruments {
            tracer: Tracer::new(&mut buf),
            profiler: Profiler::for_kernel(0, kernel.name(), kernel.len()),
            ..Instruments::default()
        };
        let stats = gpu.run_with(kernel, launch, &mut mem, &mut ins).unwrap();
        (stats, ins.profiler)
    };
    RunOutput {
        stats,
        mem,
        trace: buf.records().into_iter().cloned().collect(),
        profile: profiler.into_profile(),
    }
}

fn assert_identical(expected: &RunOutput, got: &RunOutput, what: &str) {
    assert_eq!(expected.stats, got.stats, "{what}: stats diverge");
    assert!(
        got.mem.content_eq(&expected.mem),
        "{what}: memory diverges at {:?}",
        got.mem.first_difference(&expected.mem)
    );
    assert_eq!(
        expected.trace.len(),
        got.trace.len(),
        "{what}: trace length diverges"
    );
    for (i, (e, g)) in expected.trace.iter().zip(&got.trace).enumerate() {
        assert_eq!(e, g, "{what}: trace record {i} diverges");
    }
    assert_eq!(expected.profile, got.profile, "{what}: profile diverges");
}

/// Serializes tests that touch process-wide state: host profiling,
/// whose switch the hostprof tests flip and whose pool counters the
/// live snapshots read (tests in this binary run concurrently).
static GLOBAL_LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());

#[test]
fn suite_outputs_are_identical_with_hostprof_enabled() {
    // Host-side profiling only reads clocks and writes its own
    // accumulators; enabling it must leave every simulated artifact
    // byte-identical.
    let _guard = GLOBAL_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    for w in suite(Scale::Test).into_iter().take(4) {
        gscalar::hostprof::set_enabled(false);
        let baseline = run_instrumented(&w.kernel, w.launch, &w.memory);
        gscalar::hostprof::set_enabled(true);
        let on = run_instrumented(&w.kernel, w.launch, &w.memory);
        gscalar::hostprof::set_enabled(false);
        assert_identical(&baseline, &on, &format!("{}: hostprof on", w.abbr));
    }
}

/// Records the boundary of every observer sample.
#[derive(Default)]
struct SampleCycles(Vec<u64>);

impl RunObserver for SampleCycles {
    fn sample(&mut self, cycle: u64, _stats: &Stats) {
        self.0.push(cycle);
    }
}

#[test]
fn budgets_trip_at_their_sample_boundary() {
    for w in suite(Scale::Test).into_iter().take(4) {
        let run = |ins: &mut Instruments<'_>| {
            let mut mem = w.memory.clone();
            Gpu::new(multi_sm_config(), gscalar_arch()).run_with(&w.kernel, w.launch, &mut mem, ins)
        };
        let full = run(&mut Instruments::default()).unwrap();
        let budget = full.cycles / 2;
        // A budgeted run checks at every sample boundary, sampling every
        // min(budget, 4096) cycles: it must trip at the first boundary
        // at or past the budget that the unbudgeted run crosses.
        let mut samples = SampleCycles::default();
        let mut ins = Instruments {
            observers: vec![&mut samples],
            sample_interval: budget.min(4096),
            ..Instruments::default()
        };
        run(&mut ins).unwrap();
        let expected = samples
            .0
            .iter()
            .copied()
            .find(|&c| c >= budget)
            .expect("a mid-run budget is crossed");
        let mut ins = Instruments {
            budget,
            ..Instruments::default()
        };
        let err = run(&mut ins).expect_err("a mid-run budget trips");
        assert_eq!(
            err,
            BudgetExceeded {
                cycles: expected,
                budget
            },
            "{}",
            w.abbr
        );
        // No sample boundary reaches the final cycle, so a budget of
        // the run's own length never trips.
        let mut ins = Instruments {
            budget: full.cycles,
            ..Instruments::default()
        };
        let within = run(&mut ins).expect("the budget holds");
        assert_eq!(within, full, "{}", w.abbr);
    }
}

/// Runs `w` through the core `Runner` traced, optionally with live
/// telemetry to a deterministic in-memory stream in
/// `Instruments::live`. Returns the stream's lines when live was on.
fn run_via_runner(
    w: &gscalar::core::Workload,
    live: bool,
) -> (Stats, Vec<Record>, Option<Vec<String>>) {
    let cfg = multi_sm_config();
    let arch = Arch::GScalar.config();
    let handle = live.then(|| {
        gscalar::live::LiveHandle::memory(gscalar::live::StreamConfig {
            deterministic: true,
            snapshot_interval: 32,
            ..gscalar::live::StreamConfig::default()
        })
    });
    let mut buf = EventBuf::new(1 << 20);
    let mut ins = Instruments {
        tracer: Tracer::new(&mut buf),
        snapshot_interval: 64,
        live: handle
            .clone()
            .map(|h| LiveObserver::start(h, &w.name, &arch.name, cfg.num_sms)),
        ..Instruments::default()
    };
    let stats = gscalar::core::Runner::new(cfg)
        .run_with(w, arch, &mut ins)
        .unwrap();
    drop(ins);
    let lines = handle.map(|h| {
        h.close();
        h.collected().expect("memory sink")
    });
    (stats, buf.records().into_iter().cloned().collect(), lines)
}

#[test]
fn suite_outputs_are_identical_with_live_telemetry() {
    // Live telemetry observes cumulative stats at sample boundaries and
    // streams them out of band; attaching it must leave stats and trace
    // byte-identical.
    let _guard = GLOBAL_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    for w in suite(Scale::Test).into_iter().take(4) {
        let (base_stats, base_trace, _) = run_via_runner(&w, false);
        let (stats, trace, lines) = run_via_runner(&w, true);
        assert_eq!(base_stats, stats, "{}: live on: stats", w.abbr);
        assert_eq!(
            base_trace.len(),
            trace.len(),
            "{}: live on: trace length",
            w.abbr
        );
        for (i, (b, t)) in base_trace.iter().zip(&trace).enumerate() {
            assert_eq!(b, t, "{}: live on: record {i}", w.abbr);
        }
        let lines = lines.unwrap();
        assert!(
            lines.iter().any(|l| l.contains("\"type\":\"snapshot\"")),
            "{}: no snapshot in stream",
            w.abbr
        );
        assert!(
            lines.iter().any(|l| l.contains("\"type\":\"run_end\"")),
            "{}: no run_end in stream",
            w.abbr
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn random_kernels_match_the_reference_on_every_arch(
        steps in proptest::collection::vec(step_strategy(), 1..10),
        ctas in 1u32..7,
        warps in 1u32..3,
    ) {
        let kernel = build_kernel(&steps);
        let launch = LaunchConfig::linear(ctas, warps * 32);
        let init = initial_memory(ctas * warps * 32);
        let mut expected = init.clone();
        run_reference(&kernel, launch, &mut expected);
        for arch in Arch::ALL {
            let mut mem = init.clone();
            Gpu::new(multi_sm_config(), arch.config()).run(&kernel, launch, &mut mem);
            prop_assert!(
                mem.content_eq(&expected),
                "{}: memory diverges from the reference at {:?}",
                arch,
                mem.first_difference(&expected)
            );
        }
    }

    #[test]
    fn hostprof_enabled_perturbs_nothing(
        steps in proptest::collection::vec(step_strategy(), 1..8),
        ctas in 1u32..5,
    ) {
        let kernel = build_kernel(&steps);
        let launch = LaunchConfig::linear(ctas, 32);
        let init = initial_memory(ctas * 32);
        let _guard = GLOBAL_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        gscalar::hostprof::set_enabled(false);
        let baseline = run_instrumented(&kernel, launch, &init);
        gscalar::hostprof::set_enabled(true);
        let on = run_instrumented(&kernel, launch, &init);
        gscalar::hostprof::set_enabled(false);
        assert_identical(&baseline, &on, "hostprof on");
    }

    #[test]
    fn live_telemetry_perturbs_nothing(
        steps in proptest::collection::vec(step_strategy(), 1..8),
        ctas in 1u32..5,
    ) {
        let kernel = build_kernel(&steps);
        let launch = LaunchConfig::linear(ctas, 32);
        let init = initial_memory(ctas * 32);
        let w = gscalar::core::Workload::new("rand", "RAND", kernel, launch, init);
        let _guard = GLOBAL_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        let (base_stats, base_trace, _) = run_via_runner(&w, false);
        let (stats, trace, lines) = run_via_runner(&w, true);
        prop_assert_eq!(&base_stats, &stats, "live on: stats");
        prop_assert_eq!(base_trace.len(), trace.len(), "live on: trace length");
        for (i, (b, t)) in base_trace.iter().zip(&trace).enumerate() {
            prop_assert_eq!(b, t, "live on: record {}", i);
        }
        // Tiny kernels may finish before the first snapshot boundary,
        // but the run lifecycle always streams.
        let lines = lines.unwrap();
        prop_assert!(lines.iter().any(|l| l.contains("\"type\":\"run_start\"")));
        prop_assert!(lines.iter().any(|l| l.contains("\"type\":\"run_end\"")));
    }
}
