//! What-if projections: analytic speedup estimates from the CPI stack,
//! validated against real idealized re-simulations.
//!
//! Each [`WhatIf`] names one idealization knob of
//! [`gscalar_sim::IdealConfig`]. The *analytic* projection is a
//! first-order model over the CPI stack and run statistics — the point
//! is not that the model is exact, but that its error against a real
//! re-simulation with the knob flipped is *measured and reported*, so
//! the stack's attributions can be trusted (or distrusted) per kernel.

use gscalar_sim::{GpuConfig, Stats};

use crate::cpi::CpiStack;

/// One idealization study.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WhatIf {
    /// Every global load hits in L1.
    PerfectL1,
    /// Unbounded miss tracking. The simulator's MSHR model is already
    /// unbounded, so both the projection and the re-simulation honestly
    /// report 1.0× — the study documents the absence of that ceiling.
    InfiniteMshrs,
    /// Branches never split the SIMT stack (forced-uniform execution).
    NoDivergence,
    /// SFU operations complete in one cycle.
    ZeroLatencySfu,
}

impl WhatIf {
    /// Every study, in reporting order.
    pub const ALL: [WhatIf; 4] = [
        WhatIf::PerfectL1,
        WhatIf::InfiniteMshrs,
        WhatIf::NoDivergence,
        WhatIf::ZeroLatencySfu,
    ];

    /// Stable metric/report label.
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            WhatIf::PerfectL1 => "perfect_l1",
            WhatIf::InfiniteMshrs => "infinite_mshrs",
            WhatIf::NoDivergence => "no_divergence",
            WhatIf::ZeroLatencySfu => "zero_latency_sfu",
        }
    }

    /// A copy of `base` with exactly this study's idealization knob
    /// flipped on — the configuration for the validating re-simulation.
    #[must_use]
    pub fn apply(self, base: &GpuConfig) -> GpuConfig {
        let mut cfg = base.clone();
        match self {
            WhatIf::PerfectL1 => cfg.ideal.perfect_l1 = true,
            WhatIf::InfiniteMshrs => cfg.ideal.infinite_mshrs = true,
            WhatIf::NoDivergence => cfg.ideal.uniform_branches = true,
            WhatIf::ZeroLatencySfu => cfg.ideal.zero_latency_sfu = true,
        }
        cfg
    }

    /// First-order analytic speedup from the CPI stack and counters.
    ///
    /// Models (all clamped to ≥ 1.0 — removing a bottleneck cannot
    /// analytically slow the machine down):
    ///
    /// * **perfect L1** — memory-pending slots shrink by the ratio of
    ///   L1-hit latency to the counter-weighted average load latency.
    /// * **infinite MSHRs** — 1.0 (the model has no MSHR ceiling).
    /// * **no divergence** — a divergent branch executes both paths;
    ///   roughly half the divergent issue slots are the redundant
    ///   complement and disappear.
    /// * **zero-latency SFU** — scoreboard slots shrink by the SFU's
    ///   share of the latency-weighted instruction mix.
    #[must_use]
    pub fn projected_speedup(self, stack: &CpiStack, stats: &Stats, cfg: &GpuConfig) -> f64 {
        let slots = stack.expected_slots() as f64;
        if slots == 0.0 {
            return 1.0;
        }
        let saved_frac = match self {
            WhatIf::PerfectL1 => {
                let m = &stats.mem;
                let loads = m.l1_hits + m.l1_misses + m.l1_mshr_hits;
                if loads == 0 {
                    0.0
                } else {
                    let lat = &cfg.lat;
                    let l2_total = (m.l2_hits + m.l2_misses).max(1);
                    let dram_share = m.l2_misses as f64 / l2_total as f64;
                    let avg_miss = lat.l2 as f64 + dram_share * lat.dram as f64;
                    // An MSHR merge waits out the tail of an in-flight
                    // fill: half the miss latency on average.
                    let avg_load = (m.l1_hits as f64 * lat.l1_hit as f64
                        + m.l1_misses as f64 * avg_miss
                        + m.l1_mshr_hits as f64 * avg_miss * 0.5)
                        / loads as f64;
                    let shrink = 1.0 - lat.l1_hit as f64 / avg_load.max(lat.l1_hit as f64);
                    stack.mem_pending as f64 / slots * shrink
                }
            }
            WhatIf::InfiniteMshrs => 0.0,
            WhatIf::NoDivergence => stats.instr.divergent_instrs as f64 * 0.5 / slots,
            WhatIf::ZeroLatencySfu => {
                let i = &stats.instr;
                let lat = &cfg.lat;
                let w_sfu = i.sfu_instrs as f64 * lat.sfu as f64;
                let w_alu = i.alu_instrs as f64 * lat.int_alu as f64;
                let w_mem = i.mem_instrs as f64 * lat.l1_hit as f64;
                let mix = w_sfu + w_alu + w_mem;
                if mix == 0.0 {
                    0.0
                } else {
                    let shrink = 1.0 - 1.0 / lat.sfu.max(1) as f64;
                    stack.scoreboard as f64 / slots * (w_sfu / mix) * shrink
                }
            }
        };
        // Cap below 1.0 so pathological attributions cannot project an
        // infinite speedup.
        1.0 / (1.0 - saved_frac.clamp(0.0, 0.95))
    }
}

/// One validated what-if study: analytic projection next to the
/// measured idealized re-simulation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Projection {
    /// The study.
    pub what_if: WhatIf,
    /// Analytic speedup from the CPI stack.
    pub projected: f64,
    /// Measured speedup: baseline cycles / idealized cycles.
    pub measured: f64,
}

impl Projection {
    /// Builds the study from the baseline stack/stats and the cycle
    /// count of the real re-simulation with [`WhatIf::apply`]'s config.
    #[must_use]
    pub fn new(
        what_if: WhatIf,
        stack: &CpiStack,
        stats: &Stats,
        cfg: &GpuConfig,
        ideal_cycles: u64,
    ) -> Self {
        Projection {
            what_if,
            projected: what_if.projected_speedup(stack, stats, cfg),
            measured: if ideal_cycles == 0 {
                1.0
            } else {
                stats.cycles as f64 / ideal_cycles as f64
            },
        }
    }

    /// Relative projection error `|projected − measured| / measured`.
    #[must_use]
    pub fn error(&self) -> f64 {
        if self.measured == 0.0 {
            0.0
        } else {
            (self.projected - self.measured).abs() / self.measured
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gscalar_sim::{IdealConfig, SchedStats};
    use gscalar_trace::{StallBreakdown, StallReason};

    fn mem_bound_run() -> (CpiStack, Stats, GpuConfig) {
        let cfg = GpuConfig::test_small();
        let mut stats = Stats {
            cycles: 1000,
            ..Default::default()
        };
        let mut stalls = StallBreakdown::default();
        stalls.add_n(StallReason::MemPending, 600);
        stalls.add_n(StallReason::Scoreboard, 100);
        stats.sched = vec![SchedStats {
            issued: 300,
            stalls,
        }];
        stats.mem.l1_hits = 100;
        stats.mem.l1_misses = 400;
        stats.mem.l2_misses = 400;
        stats.instr.sfu_instrs = 10;
        stats.instr.alu_instrs = 200;
        stats.instr.mem_instrs = 90;
        stats.instr.divergent_instrs = 40;
        let stack = CpiStack::kernel(&stats, 1);
        assert!(stack.reconcile().is_ok());
        (stack, stats, cfg)
    }

    #[test]
    fn apply_flips_exactly_one_knob() {
        let base = GpuConfig::gtx480();
        for w in WhatIf::ALL {
            let cfg = w.apply(&base);
            let IdealConfig {
                perfect_l1,
                uniform_branches,
                zero_latency_sfu,
                infinite_mshrs,
            } = cfg.ideal;
            let on = [
                perfect_l1,
                uniform_branches,
                zero_latency_sfu,
                infinite_mshrs,
            ];
            assert_eq!(on.iter().filter(|&&b| b).count(), 1, "{}", w.label());
            // Everything outside `ideal` is untouched.
            let mut reset = cfg.clone();
            reset.ideal = IdealConfig::default();
            assert_eq!(format!("{reset:?}"), format!("{base:?}"));
        }
    }

    #[test]
    fn memory_bound_run_projects_perfect_l1_highest() {
        let (stack, stats, cfg) = mem_bound_run();
        let l1 = WhatIf::PerfectL1.projected_speedup(&stack, &stats, &cfg);
        let sfu = WhatIf::ZeroLatencySfu.projected_speedup(&stack, &stats, &cfg);
        let mshr = WhatIf::InfiniteMshrs.projected_speedup(&stack, &stats, &cfg);
        assert!(l1 > 1.5, "mem-bound run should project large L1 win ({l1})");
        assert!(l1 > sfu);
        assert_eq!(mshr, 1.0);
        assert!(sfu >= 1.0);
    }

    #[test]
    fn empty_stats_project_unity() {
        let cfg = GpuConfig::test_small();
        let stats = Stats::default();
        let stack = CpiStack::kernel(&stats, 1);
        for w in WhatIf::ALL {
            assert_eq!(w.projected_speedup(&stack, &stats, &cfg), 1.0);
        }
    }

    #[test]
    fn projection_error_is_relative() {
        let (stack, stats, cfg) = mem_bound_run();
        // Fake a measured ideal run at exactly the projected speedup:
        // error must be ~0.
        let projected = WhatIf::PerfectL1.projected_speedup(&stack, &stats, &cfg);
        let ideal_cycles = (stats.cycles as f64 / projected).round() as u64;
        let p = Projection::new(WhatIf::PerfectL1, &stack, &stats, &cfg, ideal_cycles);
        assert!(p.error() < 0.01, "error {} should be small", p.error());
        // A measured value far from the projection yields a large error.
        let p2 = Projection::new(WhatIf::PerfectL1, &stack, &stats, &cfg, stats.cycles);
        assert!((p2.measured - 1.0).abs() < 1e-12);
        assert!(p2.error() > 0.1);
        // Degenerate zero-cycle ideal runs fall back to 1.0×.
        let p3 = Projection::new(WhatIf::InfiniteMshrs, &stack, &stats, &cfg, 0);
        assert_eq!(p3.measured, 1.0);
    }
}
