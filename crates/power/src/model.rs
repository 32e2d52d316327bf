//! The chip power model: statistics × energies → watts and IPC/W.

use gscalar_sim::{GpuConfig, Stats};

use crate::energy::EnergyModel;

/// Register-file design, for Figure 12's comparison.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum RfScheme {
    /// Uncompressed banked register file.
    Baseline,
    /// Prior-work dedicated scalar register file (Gilani et al. \[3\]).
    ScalarRf,
    /// Warped-Compression: BDI-compressed register file (Lee et al. \[4\]).
    WarpedCompression,
    /// The paper's byte-wise compressed register file.
    ByteWise,
}

impl RfScheme {
    /// All schemes in Figure 12 order.
    pub const ALL: [RfScheme; 4] = [
        RfScheme::Baseline,
        RfScheme::ScalarRf,
        RfScheme::WarpedCompression,
        RfScheme::ByteWise,
    ];

    /// Display label.
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            RfScheme::Baseline => "baseline",
            RfScheme::ScalarRf => "scalar only",
            RfScheme::WarpedCompression => "W-C",
            RfScheme::ByteWise => "ours",
        }
    }
}

/// Register-file dynamic energy under `scheme`, in picojoules.
///
/// The codec (compressor/decompressor) energy is *not* included here —
/// the paper accounts it separately as a small chip-level adder
/// (Table 3 / Section 5.1) — so this matches Figure 12's "RF dynamic
/// power" definition.
#[must_use]
pub fn rf_energy_pj(stats: &Stats, scheme: RfScheme, e: &EnergyModel) -> f64 {
    let rf = &stats.rf;
    match scheme {
        RfScheme::Baseline => rf.baseline_arrays as f64 * e.rf_array_pj,
        RfScheme::ScalarRf => {
            rf.scalar_rf_small as f64 * e.scalar_rf_pj + rf.scalar_rf_arrays as f64 * e.rf_array_pj
        }
        RfScheme::WarpedCompression => rf.bdi_arrays as f64 * e.rf_array_pj,
        RfScheme::ByteWise => {
            rf.ours_arrays as f64 * e.rf_array_pj + rf.ours_bvr as f64 * e.rf_bvr_pj
        }
    }
}

/// Register-file dynamic energy under `scheme` normalized to the
/// baseline scheme's (Figure 12's metric); 0 when the baseline spends
/// nothing.
#[must_use]
pub fn rf_power_normalized(stats: &Stats, scheme: RfScheme, e: &EnergyModel) -> f64 {
    let base = rf_energy_pj(stats, RfScheme::Baseline, e);
    if base > 0.0 {
        rf_energy_pj(stats, scheme, e) / base
    } else {
        0.0
    }
}

/// A power breakdown for one simulated run.
#[derive(Debug, Clone, PartialEq)]
pub struct PowerReport {
    /// Runtime in seconds (cycles / SM clock).
    pub runtime_s: f64,
    /// Per-component dynamic power in watts, in fixed order.
    pub components: Vec<(&'static str, f64)>,
    /// Static/uncore power in watts.
    pub static_w: f64,
    /// Thread-level IPC.
    pub ipc: f64,
}

impl PowerReport {
    /// Total chip power in watts.
    #[must_use]
    pub fn total_w(&self) -> f64 {
        self.static_w + self.components.iter().map(|(_, w)| w).sum::<f64>()
    }

    /// Power efficiency (IPC per watt) — the paper's Figure 11 metric.
    #[must_use]
    pub fn ipc_per_watt(&self) -> f64 {
        self.ipc / self.total_w()
    }

    /// Dynamic power of one named component (0.0 when absent).
    #[must_use]
    pub fn component_w(&self, name: &str) -> f64 {
        self.components
            .iter()
            .find(|(n, _)| *n == name)
            .map_or(0.0, |(_, w)| *w)
    }
}

impl std::fmt::Display for PowerReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(
            f,
            "total {:.2} W | IPC {:.2} | IPC/W {:.4}",
            self.total_w(),
            self.ipc,
            self.ipc_per_watt()
        )?;
        writeln!(f, "  static/uncore: {:.2} W", self.static_w)?;
        for (name, w) in &self.components {
            writeln!(f, "  {name}: {w:.2} W")?;
        }
        Ok(())
    }
}

/// Per-component dynamic energy totals in picojoules, in the fixed
/// Figure-11 component order.
///
/// This is the single accounting point shared by [`chip_power`] (which
/// divides by runtime to get watts), the interval power telemetry in
/// [`telemetry`](crate::telemetry) (which differences cumulative
/// energies between samples), and [`total_energy_pj`]. Every component
/// is linear in the [`Stats`] counters, which is what makes the
/// timeline-integrates-to-total invariant hold structurally.
#[must_use]
pub fn component_energies_pj(
    stats: &Stats,
    rf_scheme: RfScheme,
    count_codec: bool,
    e: &EnergyModel,
) -> Vec<(&'static str, f64)> {
    let exec = stats.exec.int_lane_ops as f64 * e.int_lane_pj
        + stats.exec.fp_lane_ops as f64 * e.fp_lane_pj
        + stats.exec.sfu_lane_ops as f64 * e.sfu_lane_pj;
    let rf = rf_energy_pj(stats, rf_scheme, e);
    let xbar = match rf_scheme {
        RfScheme::ByteWise => stats.rf.xbar_bytes_ours as f64 * e.xbar_byte_pj,
        _ => stats.rf.xbar_bytes_baseline as f64 * e.xbar_byte_pj,
    };
    let oc = (stats.rf.reads + stats.rf.writes) as f64 * e.oc_pj;
    let codec = if count_codec {
        stats.rf.compressor_ops as f64 * e.compressor_pj
            + stats.rf.decompressor_ops as f64 * e.decompressor_pj
    } else {
        0.0
    };
    let l1 = (stats.mem.l1_hits + stats.mem.l1_misses) as f64 * e.l1_pj;
    let l2 = (stats.mem.l2_hits + stats.mem.l2_misses) as f64 * e.l2_pj;
    let dram = stats.mem.l2_misses as f64 * e.dram_pj;
    let shared = stats.mem.shared_accesses as f64 * e.shared_pj;
    let noc = stats.mem.noc_flits as f64 * e.noc_flit_pj;
    let frontend = stats.instr.warp_instrs as f64 * e.frontend_pj;
    vec![
        ("exec-units", exec),
        ("register-file", rf),
        ("crossbar", xbar),
        ("operand-collectors", oc),
        ("codec", codec),
        ("l1", l1),
        ("l2", l2),
        ("dram", dram),
        ("shared-mem", shared),
        ("noc", noc),
        ("frontend", frontend),
    ]
}

/// Total chip energy for a run in picojoules: every dynamic component
/// plus static power integrated over the runtime. This is the one-shot
/// figure the interval power timeline must integrate back to.
#[must_use]
pub fn total_energy_pj(
    stats: &Stats,
    cfg: &GpuConfig,
    rf_scheme: RfScheme,
    count_codec: bool,
    e: &EnergyModel,
) -> f64 {
    let runtime_s = (stats.cycles.max(1)) as f64 / cfg.sm_clock_hz;
    let dynamic: f64 = component_energies_pj(stats, rf_scheme, count_codec, e)
        .iter()
        .map(|(_, pj)| pj)
        .sum();
    dynamic + e.static_w * runtime_s * 1e12
}

/// Computes the chip power breakdown for a run, with the register file
/// modeled under `rf_scheme` (the scheme the simulated architecture
/// actually uses).
///
/// `count_codec` adds the compressor/decompressor event energy — true
/// for the compression-based architectures.
#[must_use]
pub fn chip_power(
    stats: &Stats,
    cfg: &GpuConfig,
    rf_scheme: RfScheme,
    count_codec: bool,
    e: &EnergyModel,
) -> PowerReport {
    let runtime_s = (stats.cycles.max(1)) as f64 / cfg.sm_clock_hz;
    let components = component_energies_pj(stats, rf_scheme, count_codec, e)
        .into_iter()
        .map(|(name, pj)| (name, pj * 1e-12 / runtime_s))
        .collect();
    PowerReport {
        runtime_s,
        components,
        static_w: e.static_w,
        ipc: stats.ipc(),
    }
}

/// Dynamic SFU power alone (for the Section 5.3 BP analysis).
#[must_use]
pub fn sfu_power_w(stats: &Stats, cfg: &GpuConfig, e: &EnergyModel) -> f64 {
    let runtime_s = (stats.cycles.max(1)) as f64 / cfg.sm_clock_hz;
    stats.exec.sfu_lane_ops as f64 * e.sfu_lane_pj * 1e-12 / runtime_s
}

#[cfg(test)]
mod tests {
    use super::*;

    #[allow(clippy::field_reassign_with_default)] // builder-style test fixture
    fn stats_with(f: impl FnOnce(&mut Stats)) -> Stats {
        let mut s = Stats::default();
        s.cycles = 1000;
        s.instr.thread_instrs = 32_000;
        f(&mut s);
        s
    }

    #[test]
    fn rf_scheme_ordering_on_scalar_heavy_mix() {
        // 100 accesses: 40 scalar, 30 3-byte-similar, 30 raw.
        let s = stats_with(|s| {
            s.rf.reads = 100;
            s.rf.baseline_arrays = 100 * 8;
            s.rf.scalar_rf_small = 40;
            s.rf.scalar_rf_arrays = 60 * 8;
            s.rf.ours_arrays = 30 * 2 + 30 * 8;
            s.rf.ours_bvr = 100;
            s.rf.bdi_arrays = 40 + 30 * 3 + 30 * 8;
        });
        let e = EnergyModel::default_40nm();
        let base = rf_energy_pj(&s, RfScheme::Baseline, &e);
        let scalar = rf_energy_pj(&s, RfScheme::ScalarRf, &e);
        let wc = rf_energy_pj(&s, RfScheme::WarpedCompression, &e);
        let ours = rf_energy_pj(&s, RfScheme::ByteWise, &e);
        assert!(scalar < base);
        assert!(wc < scalar);
        assert!(ours < wc, "ours {ours} should beat W-C {wc}");
        assert_eq!(rf_power_normalized(&s, RfScheme::Baseline, &e), 1.0);
        assert_eq!(rf_power_normalized(&s, RfScheme::ByteWise, &e), ours / base);
        let idle = stats_with(|_| {});
        assert_eq!(rf_power_normalized(&idle, RfScheme::ByteWise, &e), 0.0);
    }

    #[test]
    fn total_power_includes_static() {
        let s = stats_with(|_| {});
        let cfg = GpuConfig::gtx480();
        let e = EnergyModel::default_40nm();
        let p = chip_power(&s, &cfg, RfScheme::Baseline, false, &e);
        assert!(p.total_w() >= e.static_w);
        assert!(p.ipc_per_watt() > 0.0);
    }

    #[test]
    fn codec_counted_only_when_enabled() {
        let s = stats_with(|s| {
            s.rf.compressor_ops = 1_000_000;
            s.rf.decompressor_ops = 1_000_000;
        });
        let cfg = GpuConfig::gtx480();
        let e = EnergyModel::default_40nm();
        let with = chip_power(&s, &cfg, RfScheme::ByteWise, true, &e);
        let without = chip_power(&s, &cfg, RfScheme::ByteWise, false, &e);
        assert!(with.component_w("codec") > 0.0);
        assert_eq!(without.component_w("codec"), 0.0);
        assert!(with.total_w() > without.total_w());
    }

    #[test]
    fn sfu_energy_dominates_when_heavy() {
        let s = stats_with(|s| {
            s.exec.sfu_lane_ops = 1_000_000;
            s.exec.fp_lane_ops = 1_000_000;
        });
        let cfg = GpuConfig::gtx480();
        let e = EnergyModel::default_40nm();
        let sfu = sfu_power_w(&s, &cfg, &e);
        let p = chip_power(&s, &cfg, RfScheme::Baseline, false, &e);
        let exec = p.component_w("exec-units");
        assert!(sfu / exec > 0.8, "SFU should dominate an equal-count mix");
    }

    #[test]
    fn report_display_mentions_totals() {
        let s = stats_with(|_| {});
        let cfg = GpuConfig::gtx480();
        let p = chip_power(
            &s,
            &cfg,
            RfScheme::Baseline,
            false,
            &EnergyModel::default_40nm(),
        );
        let text = p.to_string();
        assert!(text.contains("IPC/W"));
        assert!(text.contains("register-file"));
    }
}
