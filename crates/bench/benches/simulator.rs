//! Criterion benchmarks for simulator throughput: warp instructions
//! simulated per second on representative issue-bound kernels, and
//! simulated cycles per second on a stall-bound one, per architecture.

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use gscalar_core::{Arch, Runner};
use gscalar_sim::GpuConfig;
use gscalar_workloads::{by_abbr, Scale};
use std::hint::black_box;

fn bench_kernels(c: &mut Criterion) {
    let mut g = c.benchmark_group("simulate");
    g.sample_size(10);
    let runner = Runner::new(GpuConfig::test_small());
    for abbr in ["BP", "LBM", "MM"] {
        let w = by_abbr(abbr, Scale::Test).expect("known benchmark");
        // Measure throughput in warp instructions.
        let instrs = runner.run(&w, Arch::Baseline).stats.instr.warp_instrs;
        g.throughput(Throughput::Elements(instrs));
        for arch in [Arch::Baseline, Arch::GScalar] {
            g.bench_function(format!("{abbr}/{}", arch.label()), |b| {
                b.iter(|| black_box(runner.run(&w, arch).stats.cycles))
            });
        }
    }
    g.finish();
}

/// The stalled-cycle layer on its own: MV (SpMV) is memory bound, so
/// most scheduler calls find no ready warp and charge a stall. Its cost
/// is scheduler pick plus stall classification; throughput is in
/// simulated cycles.
fn bench_stalled(c: &mut Criterion) {
    let mut g = c.benchmark_group("simulate_stalled");
    g.sample_size(10);
    let runner = Runner::new(GpuConfig::gtx480());
    let w = by_abbr("MV", Scale::Test).expect("known benchmark");
    for arch in [Arch::Baseline, Arch::GScalar] {
        let cycles = runner.run(&w, arch).stats.cycles;
        g.throughput(Throughput::Elements(cycles));
        g.bench_function(format!("MV/{}", arch.label()), |b| {
            b.iter(|| black_box(runner.run(&w, arch).stats.cycles))
        });
    }
    g.finish();
}

fn bench_simt_stack(c: &mut Criterion) {
    use gscalar_sim::simt::SimtStack;
    c.bench_function("simt_stack/diverge_reconverge", |b| {
        b.iter(|| {
            let mut s = SimtStack::new(0, u64::MAX);
            for i in 0..16 {
                s.branch(0x5555_5555_5555_5555 << (i % 2), 10, 1, Some(20));
                s.advance(20);
                s.advance(20);
            }
            s.exit();
            black_box(s.is_done())
        })
    });
}

criterion_group!(benches, bench_kernels, bench_stalled, bench_simt_stack);
criterion_main!(benches);
