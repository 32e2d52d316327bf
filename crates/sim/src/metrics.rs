//! Bridges the simulator's [`Stats`] into a
//! [`gscalar_metrics::MetricsRegistry`].
//!
//! A [`MetricsObserver`] plugs into [`Gpu::run_with`](crate::Gpu::run_with):
//! during the run it appends interval time-series (IPC, issue count,
//! scalar-execution rate) from the cumulative samples; at the end it
//! exports every counter of the merged statistics under `gpu/…` and of
//! each SM under `sm<i>/…`, using [`Stats::export`]'s exhaustive
//! destructuring so no counter can silently go missing.

use gscalar_metrics::MetricsRegistry;

use crate::gpu::RunObserver;
use crate::stats::Stats;

/// A [`RunObserver`] that populates a [`MetricsRegistry`].
///
/// # Examples
///
/// ```
/// use gscalar_isa::{KernelBuilder, LaunchConfig, Operand};
/// use gscalar_sim::{
///     memory::GlobalMemory, ArchConfig, Gpu, GpuConfig, Instruments, MetricsObserver,
/// };
///
/// let mut b = KernelBuilder::new("tiny");
/// b.mov(Operand::Imm(7));
/// b.exit();
/// let kernel = b.build().unwrap();
///
/// let mut gpu = Gpu::new(GpuConfig::test_small(), ArchConfig::baseline());
/// let mut mem = GlobalMemory::new();
/// let mut obs = MetricsObserver::new();
/// let mut ins = Instruments {
///     observers: vec![&mut obs],
///     sample_interval: 16,
///     ..Instruments::default()
/// };
/// let stats = gpu
///     .run_with(&kernel, LaunchConfig::linear(2, 64), &mut mem, &mut ins)
///     .unwrap();
/// let reg = obs.into_registry();
/// assert_eq!(reg.counter("gpu/cycles"), Some(stats.cycles));
/// assert_eq!(
///     reg.counter("gpu/instr/warp_instrs"),
///     Some(stats.instr.warp_instrs)
/// );
/// ```
#[derive(Debug, Default)]
pub struct MetricsObserver {
    reg: MetricsRegistry,
}

impl MetricsObserver {
    /// Creates an observer with an empty registry.
    #[must_use]
    pub fn new() -> Self {
        MetricsObserver::default()
    }

    /// Consumes the observer, returning the populated registry.
    #[must_use]
    pub fn into_registry(self) -> MetricsRegistry {
        self.reg
    }

    /// A view of the registry without consuming the observer.
    #[must_use]
    pub fn registry(&self) -> &MetricsRegistry {
        &self.reg
    }
}

impl RunObserver for MetricsObserver {
    fn sample(&mut self, cycle: u64, stats: &Stats) {
        let mut s = self.reg.scope("gpu/interval");
        s.series_push("ipc", cycle, stats.ipc());
        s.series_push("issued", cycle, stats.pipe.issued as f64);
        let scalar_rate = if stats.instr.warp_instrs == 0 {
            0.0
        } else {
            stats.instr.executed_scalar as f64 / stats.instr.warp_instrs as f64
        };
        s.series_push("scalar_rate", cycle, scalar_rate);
    }

    fn finish(&mut self, _cycle: u64, merged: &Stats, per_sm: &[Stats]) {
        merged.export(&mut self.reg.scope("gpu"));
        for (i, sm) in per_sm.iter().enumerate() {
            sm.export(&mut self.reg.scope(&format!("sm{i}")));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{ArchConfig, GpuConfig};
    use crate::gpu::{Gpu, Instruments};
    use crate::memory::GlobalMemory;
    use gscalar_isa::{KernelBuilder, LaunchConfig, Operand, SReg};

    fn busy_kernel() -> gscalar_isa::Kernel {
        let mut b = KernelBuilder::new("busy");
        let tid = b.s2r(SReg::TidX);
        let mut cur = tid;
        for i in 0..24 {
            cur = b.iadd(cur.into(), Operand::Imm(i));
        }
        b.exit();
        b.build().unwrap()
    }

    #[test]
    fn exports_merged_and_per_sm_scopes() {
        let cfg = GpuConfig::test_small();
        let num_sms = cfg.num_sms;
        let mut gpu = Gpu::new(cfg, ArchConfig::baseline());
        let mut mem = GlobalMemory::new();
        let mut obs = MetricsObserver::new();
        let stats = gpu
            .run_with(
                &busy_kernel(),
                LaunchConfig::linear(4, 64),
                &mut mem,
                &mut Instruments {
                    observers: vec![&mut obs],
                    sample_interval: 8,
                    ..Instruments::default()
                },
            )
            .unwrap();
        let reg = obs.into_registry();
        assert_eq!(reg.counter("gpu/cycles"), Some(stats.cycles));
        assert_eq!(reg.counter("gpu/pipe/issued"), Some(stats.pipe.issued));
        // Per-SM issue counts sum to the merged total.
        let per_sm_sum: u64 = (0..num_sms)
            .map(|i| reg.counter(&format!("sm{i}/pipe/issued")).unwrap())
            .sum();
        assert_eq!(per_sm_sum, stats.pipe.issued);
        // Interval series recorded at least one point and ends near the
        // final IPC.
        let ipc = reg.series("gpu/interval/ipc").expect("ipc series");
        assert!(!ipc.points().is_empty());
        // The stall invariant holds on the exported counters too.
        let stall_total: u64 = gscalar_trace::StallReason::ALL
            .iter()
            .map(|r| {
                reg.counter(&format!("gpu/pipe/stall/{}", r.label()))
                    .unwrap()
            })
            .sum();
        assert_eq!(
            stall_total,
            reg.counter("gpu/pipe/scheduler_idle_cycles").unwrap()
        );
    }

    #[test]
    fn sample_interval_zero_still_finishes() {
        let mut gpu = Gpu::new(GpuConfig::test_small(), ArchConfig::baseline());
        let mut mem = GlobalMemory::new();
        let mut obs = MetricsObserver::new();
        gpu.run_with(
            &busy_kernel(),
            LaunchConfig::linear(1, 32),
            &mut mem,
            &mut Instruments {
                observers: vec![&mut obs],
                ..Instruments::default()
            },
        )
        .unwrap();
        let reg = obs.into_registry();
        assert!(reg.counter("gpu/cycles").is_some());
        assert!(reg.series("gpu/interval/ipc").is_none());
    }
}
