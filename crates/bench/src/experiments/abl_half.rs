//! Ablation: half-warp scalar execution and half-register compression.
//!
//! Section 4.3 prices the second set of BVR/EBR registers at a register
//! file area increase from 3% to 7%. This ablation shows what the
//! feature buys: the efficiency delta of G-Scalar with and without
//! half-warp scalar execution.

use gscalar_core::Arch;
use gscalar_power::synthesis::rf_area_overhead_fraction;
use gscalar_sim::GpuConfig;
use gscalar_sweep::{JobOutput, JobSpec, ResultSet};
use gscalar_workloads::Scale;

use crate::Report;

use super::suite_grid;

/// Registry name.
pub const NAME: &str = "abl_half";

/// One job per benchmark: baseline, full G-Scalar, and G-Scalar with
/// half-warp scalar execution disabled (priced under the same
/// byte-wise RF scheme).
pub fn grid(scale: Scale) -> Vec<JobSpec> {
    suite_grid(NAME, scale, |w, sim| {
        let cfg = GpuConfig::gtx480();
        let runner = gscalar_core::Runner::new(cfg.clone());
        let base = sim.run(&runner, w, Arch::Baseline)?;
        let with = sim.run(&runner, w, Arch::GScalar)?;
        let mut arch = Arch::GScalar.config();
        arch.scalar_half = false;
        arch.name = "G-Scalar w/o half".into();
        let stats = sim.run_stats(&cfg, arch, w)?;
        let power = gscalar_power::chip_power(
            &stats,
            &cfg,
            gscalar_power::RfScheme::ByteWise,
            true,
            runner.energy(),
        );
        let b = base.power.ipc_per_watt();
        let no_half = power.ipc_per_watt() / b;
        let half = with.power.ipc_per_watt() / b;
        let mut out = JobOutput::default();
        out.metric("no-half", no_half);
        out.metric("with-half", half);
        out.metric("delta%", 100.0 * (half / no_half - 1.0));
        Ok(out)
    })
}

/// Renders the ablation table from job metrics.
pub fn render(r: &mut Report, rs: &ResultSet, _scale: Scale) {
    let cfg = GpuConfig::gtx480();
    r.config(&cfg);
    r.title("Ablation: half-warp scalar execution on/off (IPC/W, baseline = 1.0)");
    let avg = r.suite_table(rs, NAME, &["no-half", "with-half", "delta%"], |x| {
        format!("{x:.3}")
    })[2];
    r.row_text("AVG", &["".into(), "".into(), format!("{avg:+.2}")]);
    r.metric("AVG/delta%", avg);
    r.blank();
    r.note(&format!(
        "cost: RF area overhead {:.0}% → {:.0}% (Section 4.3); the paper keeps",
        100.0 * rf_area_overhead_fraction(false),
        100.0 * rf_area_overhead_fraction(true)
    ));
    r.note("half-warp scalar optional and non-divergent-only.");
}
