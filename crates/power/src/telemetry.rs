//! Interval-sampled per-component power telemetry.
//!
//! A [`PowerTimeline`] plugs into the simulator's observer hook
//! ([`gscalar_sim::RunObserver`]) and converts the cumulative activity
//! counters delivered at each sample boundary into per-interval dynamic
//! power for every chip component of the [`chip_power`](crate::model)
//! breakdown, plus the constant static floor.
//!
//! The design invariant — enforced by tests here and property tests in
//! `gscalar-core` — is that the timeline integrates back to the same
//! total energy as the one-shot model:
//! [`PowerTimeline::integrated_energy_pj`] ==
//! [`total_energy_pj`](crate::model::total_energy_pj) (to floating-point
//! accumulation error). Both sides draw from the shared
//! [`component_energies_pj`] accounting, so a component added there is
//! telemetered automatically.

use gscalar_sim::{GpuConfig, RunObserver, Stats};

use crate::energy::EnergyModel;
use crate::model::{component_energies_pj, RfScheme};

/// Power over one sample interval.
#[derive(Debug, Clone, PartialEq)]
pub struct PowerInterval {
    /// First cycle of the interval (exclusive start of integration).
    pub start_cycle: u64,
    /// Last cycle of the interval.
    pub end_cycle: u64,
    /// Per-component dynamic power in watts, fixed component order.
    pub component_w: Vec<(&'static str, f64)>,
    /// Static/uncore power in watts (constant across intervals).
    pub static_w: f64,
}

impl PowerInterval {
    /// Total power over this interval in watts.
    #[must_use]
    pub fn total_w(&self) -> f64 {
        self.static_w + self.component_w.iter().map(|(_, w)| w).sum::<f64>()
    }

    /// Interval length in seconds at `sm_clock_hz`.
    #[must_use]
    pub fn duration_s(&self, sm_clock_hz: f64) -> f64 {
        (self.end_cycle - self.start_cycle) as f64 / sm_clock_hz
    }
}

/// A [`RunObserver`] recording an interval power timeline.
///
/// # Examples
///
/// ```
/// use gscalar_isa::{KernelBuilder, LaunchConfig, Operand};
/// use gscalar_power::{telemetry::PowerTimeline, EnergyModel, RfScheme};
/// use gscalar_sim::{memory::GlobalMemory, ArchConfig, Gpu, GpuConfig, Instruments};
///
/// let mut b = KernelBuilder::new("tiny");
/// b.mov(Operand::Imm(7));
/// b.exit();
/// let kernel = b.build().unwrap();
///
/// let cfg = GpuConfig::test_small();
/// let mut timeline =
///     PowerTimeline::new(&cfg, RfScheme::Baseline, false, EnergyModel::default_40nm());
/// let mut gpu = Gpu::new(cfg.clone(), ArchConfig::baseline());
/// let mut mem = GlobalMemory::new();
/// let mut ins = Instruments {
///     observers: vec![&mut timeline],
///     sample_interval: 8,
///     ..Instruments::default()
/// };
/// let stats = gpu
///     .run_with(&kernel, LaunchConfig::linear(2, 64), &mut mem, &mut ins)
///     .unwrap();
/// let total = gscalar_power::model::total_energy_pj(
///     &stats,
///     &cfg,
///     RfScheme::Baseline,
///     false,
///     &EnergyModel::default_40nm(),
/// );
/// let integrated = timeline.integrated_energy_pj();
/// assert!((integrated - total).abs() <= 1e-6 * total);
/// ```
#[derive(Debug, Clone)]
pub struct PowerTimeline {
    sm_clock_hz: f64,
    scheme: RfScheme,
    count_codec: bool,
    energy: EnergyModel,
    last_cycle: u64,
    last_cum_pj: Vec<(&'static str, f64)>,
    intervals: Vec<PowerInterval>,
}

impl PowerTimeline {
    /// Creates a timeline for a run under `cfg` with the register file
    /// modeled as `scheme` (`count_codec` as in
    /// [`chip_power`](crate::model::chip_power)).
    #[must_use]
    pub fn new(cfg: &GpuConfig, scheme: RfScheme, count_codec: bool, energy: EnergyModel) -> Self {
        let zero = component_energies_pj(&Stats::default(), scheme, count_codec, &energy);
        PowerTimeline {
            sm_clock_hz: cfg.sm_clock_hz,
            scheme,
            count_codec,
            energy,
            last_cycle: 0,
            last_cum_pj: zero,
            intervals: Vec::new(),
        }
    }

    fn record_to(&mut self, cycle: u64, stats: &Stats) {
        if cycle <= self.last_cycle {
            return;
        }
        let cum = component_energies_pj(stats, self.scheme, self.count_codec, &self.energy);
        let dt_s = (cycle - self.last_cycle) as f64 / self.sm_clock_hz;
        let component_w = cum
            .iter()
            .zip(self.last_cum_pj.iter())
            .map(|(&(name, now_pj), &(_, prev_pj))| (name, (now_pj - prev_pj) * 1e-12 / dt_s))
            .collect();
        self.intervals.push(PowerInterval {
            start_cycle: self.last_cycle,
            end_cycle: cycle,
            component_w,
            static_w: self.energy.static_w,
        });
        self.last_cycle = cycle;
        self.last_cum_pj = cum;
    }

    /// The recorded intervals, oldest first.
    #[must_use]
    pub fn intervals(&self) -> &[PowerInterval] {
        &self.intervals
    }

    /// Re-integrates the timeline: Σ over intervals of total power ×
    /// interval duration, in picojoules. Must equal
    /// [`total_energy_pj`](crate::model::total_energy_pj) of the run's
    /// final statistics up to floating-point accumulation error.
    #[must_use]
    pub fn integrated_energy_pj(&self) -> f64 {
        self.intervals
            .iter()
            .map(|iv| iv.total_w() * iv.duration_s(self.sm_clock_hz) * 1e12)
            .sum()
    }

    /// Mean total power across the whole timeline in watts (0 when
    /// empty).
    #[must_use]
    pub fn mean_power_w(&self) -> f64 {
        let end = self.last_cycle;
        if end == 0 {
            return 0.0;
        }
        self.integrated_energy_pj() * 1e-12 / (end as f64 / self.sm_clock_hz)
    }

    /// Exports the timeline as per-component power time-series under
    /// `scope` (`<component>` and `total`, one point per interval at its
    /// end cycle, in watts).
    pub fn export(&self, scope: &mut gscalar_metrics::Scope<'_>) {
        for iv in &self.intervals {
            for (name, w) in &iv.component_w {
                scope.series_push(name, iv.end_cycle, *w);
            }
            scope.series_push("static", iv.end_cycle, iv.static_w);
            scope.series_push("total", iv.end_cycle, iv.total_w());
        }
    }
}

impl RunObserver for PowerTimeline {
    fn sample(&mut self, cycle: u64, stats: &Stats) {
        self.record_to(cycle, stats);
    }

    fn finish(&mut self, cycle: u64, merged: &Stats, _per_sm: &[Stats]) {
        // Close the tail interval so the integral covers the full run
        // even when the end cycle is not a sample boundary.
        self.record_to(cycle, merged);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::total_energy_pj;
    use gscalar_isa::{KernelBuilder, LaunchConfig, Operand, SReg};
    use gscalar_sim::{memory::GlobalMemory, ArchConfig, Gpu, Instruments};

    fn kernel() -> gscalar_isa::Kernel {
        let mut b = KernelBuilder::new("work");
        let tid = b.s2r(SReg::TidX);
        let off = b.shl(tid.into(), Operand::Imm(2));
        let addr = b.iadd(off.into(), Operand::Imm(0x1000));
        let v = b.ld_global(addr, 0);
        let mut cur = v;
        for i in 0..12 {
            cur = b.iadd(cur.into(), Operand::Imm(i));
        }
        b.st_global(addr, cur, 0);
        b.exit();
        b.build().unwrap()
    }

    fn run_with_timeline(interval: u64) -> (Stats, PowerTimeline, GpuConfig) {
        let cfg = GpuConfig::test_small();
        let mut timeline =
            PowerTimeline::new(&cfg, RfScheme::ByteWise, true, EnergyModel::default_40nm());
        let mut gpu = Gpu::new(cfg.clone(), ArchConfig::baseline());
        let mut mem = GlobalMemory::new();
        let stats = gpu
            .run_with(
                &kernel(),
                LaunchConfig::linear(4, 64),
                &mut mem,
                &mut Instruments {
                    observers: vec![&mut timeline],
                    sample_interval: interval,
                    ..Instruments::default()
                },
            )
            .unwrap();
        (stats, timeline, cfg)
    }

    #[test]
    fn integrates_to_one_shot_total_energy() {
        for interval in [1, 7, 64, 0] {
            let (stats, timeline, cfg) = run_with_timeline(interval);
            let total = total_energy_pj(
                &stats,
                &cfg,
                RfScheme::ByteWise,
                true,
                &EnergyModel::default_40nm(),
            );
            let integrated = timeline.integrated_energy_pj();
            assert!(
                (integrated - total).abs() <= 1e-6 * total,
                "interval {interval}: integrated {integrated} != total {total}"
            );
        }
    }

    #[test]
    fn intervals_are_contiguous_and_cover_the_run() {
        let (stats, timeline, _) = run_with_timeline(8);
        let ivs = timeline.intervals();
        assert!(!ivs.is_empty());
        assert_eq!(ivs[0].start_cycle, 0);
        assert_eq!(ivs.last().unwrap().end_cycle, stats.cycles);
        for pair in ivs.windows(2) {
            assert_eq!(pair[0].end_cycle, pair[1].start_cycle);
        }
    }

    #[test]
    fn mean_power_at_least_static_floor() {
        let (_, timeline, _) = run_with_timeline(16);
        assert!(timeline.mean_power_w() >= EnergyModel::default_40nm().static_w);
    }

    #[test]
    fn export_emits_series_per_component() {
        let (_, timeline, _) = run_with_timeline(16);
        let mut reg = gscalar_metrics::MetricsRegistry::new();
        timeline.export(&mut reg.scope("power"));
        let total = reg.series("power/total").expect("total series");
        assert_eq!(total.points().len(), timeline.intervals().len());
        assert!(reg.series("power/register-file").is_some());
        assert!(reg.series("power/codec").is_some());
    }
}
