//! Figure 12: normalized register-file dynamic power under the four
//! register-file designs, plus average compression ratios.

use gscalar_core::Arch;
use gscalar_power::{rf_energy_pj, RfScheme};
use gscalar_sim::GpuConfig;
use gscalar_sweep::{JobOutput, JobSpec, ResultSet};
use gscalar_workloads::{Scale, ABBRS};

use crate::{mean, Report};

use super::{suite_grid, JobSim};

/// Registry name.
pub const NAME: &str = "fig12_rf_power";

/// The figure's columns.
const COLS: [&str; 5] = ["scalar-only", "W-C", "ours", "ratio", "bdi-ratio"];

/// One job per benchmark: a G-Scalar run priced under every RF scheme
/// (normalized to the baseline scheme) plus a baseline run for the
/// compression ratios. This inlines `Runner::rf_power_normalized` so
/// both runs go through the budgeted entry point.
pub fn grid(scale: Scale) -> Vec<JobSpec> {
    suite_grid(NAME, scale, |w, ctx| {
        let runner = gscalar_core::Runner::new(GpuConfig::gtx480());
        let mut sim = JobSim::new(ctx);
        let gs = sim.run(&runner, w, Arch::GScalar)?;
        let base_e = rf_energy_pj(&gs.stats, RfScheme::Baseline, runner.energy());
        let norm = |s: RfScheme| {
            let e = rf_energy_pj(&gs.stats, s, runner.energy());
            if base_e > 0.0 {
                e / base_e
            } else {
                0.0
            }
        };
        let report = sim.run(&runner, w, Arch::Baseline)?;
        let mut out = JobOutput {
            sim_cycles: gs.stats.cycles + report.stats.cycles,
            ..JobOutput::default()
        };
        out.metric("scalar-only", norm(RfScheme::ScalarRf));
        out.metric("W-C", norm(RfScheme::WarpedCompression));
        out.metric("ours", norm(RfScheme::ByteWise));
        out.metric("ratio", report.stats.rf.ours_ratio());
        out.metric("bdi-ratio", report.stats.rf.bdi_ratio());
        Ok(out)
    })
}

/// Renders the RF power table from job metrics.
pub fn render(r: &mut Report, rs: &ResultSet, _scale: Scale) {
    let cfg = GpuConfig::gtx480();
    r.config(&cfg);
    r.title("Figure 12: normalized RF dynamic power (baseline = 1.0)");
    r.table(&COLS);
    let mut cols: Vec<Vec<f64>> = vec![Vec::new(); COLS.len()];
    for abbr in ABBRS {
        let vals: Vec<f64> = COLS.iter().map(|c| rs.metric(NAME, abbr, c)).collect();
        for (c, v) in cols.iter_mut().zip(&vals) {
            c.push(*v);
        }
        r.row(abbr, &vals, |x| format!("{x:.3}"));
    }
    let avg: Vec<f64> = cols.iter().map(|c| mean(c)).collect();
    r.row("AVG", &avg, |x| format!("{x:.3}"));
    r.blank();
    r.note("paper: scalar RF 63% of baseline, ours 46% (i.e. -54%); ours beats");
    r.note("W-C slightly; compression ratio ours 2.17 vs BDI 2.13.");
    r.add_cycles(rs.sim_cycles(NAME));
}
