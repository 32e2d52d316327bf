//! Figure 11: normalized GPU power efficiency (IPC/W) and the IPC
//! impact of the +3-cycle compression latency.

use gscalar_core::Arch;
use gscalar_sim::GpuConfig;
use gscalar_sweep::{JobOutput, JobSpec, ResultSet};
use gscalar_workloads::Scale;

use crate::Report;

use super::suite_grid;

/// Registry name.
pub const NAME: &str = "fig11_power_efficiency";

/// The figure's columns.
const COLS: [&str; 4] = ["ALUscal", "GS-w/o-div", "G-Scalar", "GS(IPC)"];

/// One job per benchmark: all four architecture variants, reduced to
/// baseline-normalized IPC/W (and G-Scalar's normalized IPC).
pub fn grid(scale: Scale) -> Vec<JobSpec> {
    suite_grid(NAME, scale, |w, sim| {
        let runner = gscalar_core::Runner::new(GpuConfig::gtx480());
        let base = sim.run(&runner, w, Arch::Baseline)?;
        let alu = sim.run(&runner, w, Arch::AluScalar)?;
        let nod = sim.run(&runner, w, Arch::GScalarNoDivergent)?;
        let gs = sim.run(&runner, w, Arch::GScalar)?;
        let base_eff = base.ipc_per_watt();
        let base_ipc = base.stats.ipc();
        let mut out = JobOutput::default();
        out.metric("ALUscal", alu.ipc_per_watt() / base_eff);
        out.metric("GS-w/o-div", nod.ipc_per_watt() / base_eff);
        out.metric("G-Scalar", gs.ipc_per_watt() / base_eff);
        out.metric("GS(IPC)", gs.stats.ipc() / base_ipc);
        Ok(out)
    })
}

/// Renders the efficiency table and headline comparison from job
/// metrics.
pub fn render(r: &mut Report, rs: &ResultSet, _scale: Scale) {
    let cfg = GpuConfig::gtx480();
    r.config(&cfg);
    r.title("Figure 11: normalized IPC/W (baseline = 1.0) and G-Scalar IPC");
    let fmt = |x: f64| format!("{x:.3}");
    let avg = r.suite_table(rs, NAME, &COLS, fmt);
    r.row("AVG", &avg, fmt);
    r.blank();
    r.note("paper: G-Scalar +24% IPC/W vs baseline and +15% vs ALU-scalar;");
    r.note("mean IPC degradation 1.7% (LC worst); BP gains 79%.");
    let gs_avg = avg[2];
    let alu_avg = avg[0];
    r.note(&format!(
        "measured: G-Scalar {:+.1}% vs baseline, {:+.1}% vs ALU-scalar; IPC {:+.1}%.",
        100.0 * (gs_avg - 1.0),
        100.0 * (gs_avg / alu_avg - 1.0),
        100.0 * (avg[3] - 1.0)
    ));
}
