//! Tracing- and metrics-overhead benchmark: the disabled-tracer and
//! disabled-observer paths must cost almost nothing (target ≤2% vs the
//! untraced run loop), and the enabled paths' costs are reported for
//! reference.

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use gscalar_core::{Arch, Instruments, Runner, Workload};
use gscalar_profile::Profiler;
use gscalar_sim::{GpuConfig, MetricsObserver, Stats};
use gscalar_trace::{EventBuf, Tracer};
use gscalar_workloads::{by_abbr, Scale};
use std::hint::black_box;

/// One G-Scalar run of `w` with `ins` attached.
fn run_with(runner: &Runner, w: &Workload, ins: &mut Instruments<'_>) -> Stats {
    runner
        .run_with(w, Arch::GScalar.config(), ins)
        .expect("no budget set")
}

fn bench_overhead(c: &mut Criterion) {
    let mut g = c.benchmark_group("tracing");
    g.sample_size(20);
    let runner = Runner::new(GpuConfig::test_small());
    let w = by_abbr("BP", Scale::Test).expect("known benchmark");
    let instrs = runner.run(&w, Arch::GScalar).stats.instr.warp_instrs;
    g.throughput(Throughput::Elements(instrs));

    // Baseline: the plain run loop (internally an off-tracer).
    g.bench_function("off/run", |b| {
        b.iter(|| black_box(runner.run(&w, Arch::GScalar).stats.cycles))
    });

    // Explicit off-tracer through the instrumented entry point:
    // measures the dispatch overhead of the Option branch alone.
    g.bench_function("off/run_traced", |b| {
        b.iter(|| {
            let mut ins = Instruments::default();
            black_box(run_with(&runner, &w, &mut ins).cycles)
        })
    });

    // Enabled: ring-buffered sink plus interval snapshots.
    g.bench_function("on/event_buf", |b| {
        b.iter(|| {
            let mut buf = EventBuf::new(1 << 16);
            let mut ins = Instruments {
                tracer: Tracer::new(&mut buf),
                sample_interval: 64,
                ..Instruments::default()
            };
            let cycles = run_with(&runner, &w, &mut ins).cycles;
            black_box((cycles, buf.len()))
        })
    });

    // Metrics-off: no observer and no sampling — measures the
    // per-iteration interval check alone.
    g.bench_function("metrics-off/run_observed", |b| {
        b.iter(|| {
            let mut ins = Instruments {
                sample_interval: 0,
                ..Instruments::default()
            };
            black_box(run_with(&runner, &w, &mut ins).cycles)
        })
    });

    // Metrics-on: registry observer with 64-cycle interval series.
    g.bench_function("metrics-on/run_observed", |b| {
        b.iter(|| {
            let mut obs = MetricsObserver::new();
            let mut ins = Instruments {
                observers: vec![&mut obs],
                sample_interval: 64,
                ..Instruments::default()
            };
            let cycles = run_with(&runner, &w, &mut ins).cycles;
            black_box((cycles, obs.into_registry().flatten().len()))
        })
    });

    // Profiler-off: a disabled profiler — measures the per-hook
    // `Option` checks alone (same ≤2% target as the off-tracer path).
    g.bench_function("profile-off/run_profiled", |b| {
        b.iter(|| {
            let mut ins = Instruments {
                profiler: Profiler::off(),
                ..Instruments::default()
            };
            black_box(run_with(&runner, &w, &mut ins).cycles)
        })
    });

    // Profiler-on: full per-PC attribution (issues, stalls, classes,
    // latencies, compressor outcomes, branch paths).
    g.bench_function("profile-on/run_profiled", |b| {
        b.iter(|| {
            let run = runner.run_profiled(&w, Arch::GScalar);
            black_box((run.report.stats.cycles, run.profile.total_issues()))
        })
    });

    // Full instrumentation: registry + interval power timeline +
    // energy/power summary gauges (what the `--json` bench path uses).
    g.bench_function("metrics-on/run_metered", |b| {
        b.iter(|| {
            let run = runner.run_metered(&w, Arch::GScalar, 64);
            black_box((run.report.stats.cycles, run.timeline.intervals().len()))
        })
    });
    g.finish();
}

criterion_group!(benches, bench_overhead);
criterion_main!(benches);
