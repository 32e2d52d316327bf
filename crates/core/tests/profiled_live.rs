//! Profiled runs stream live telemetry like every other `Runner` run.
//!
//! Its own test binary: the live stream is installed process-wide, so
//! no other test may run alongside it.

use gscalar_core::{Arch, Runner, Workload};
use gscalar_isa::{KernelBuilder, LaunchConfig, Operand, SReg};
use gscalar_live::{LiveHandle, StreamConfig};
use gscalar_sim::memory::GlobalMemory;
use gscalar_sim::GpuConfig;

#[test]
fn profiled_runs_stream_their_lifecycle() {
    let mut b = KernelBuilder::new("busy");
    let tid = b.s2r(SReg::TidX);
    let mut cur = tid;
    for i in 0..32 {
        cur = b.iadd(cur.into(), Operand::Imm(i));
    }
    b.exit();
    let w = Workload::new(
        "busy",
        "BZ",
        b.build().unwrap(),
        LaunchConfig::linear(4, 64),
        GlobalMemory::new(),
    );
    let handle = LiveHandle::memory(StreamConfig {
        deterministic: true,
        snapshot_interval: 8,
        ..StreamConfig::default()
    });
    gscalar_live::install(handle.clone());
    let run = Runner::new(GpuConfig::test_small()).run_profiled(&w, Arch::GScalar);
    gscalar_live::uninstall();
    handle.close();
    let lines = handle.collected().expect("memory sink");
    for kind in ["run_start", "snapshot", "run_end"] {
        assert!(
            lines
                .iter()
                .any(|l| l.contains(&format!("\"type\":\"{kind}\""))),
            "no {kind} in {lines:?}"
        );
    }
    let end = format!("\"cycle\":{}", run.report.stats.cycles);
    assert!(
        lines
            .iter()
            .any(|l| l.contains("\"type\":\"run_end\"") && l.contains(&end)),
        "run_end does not carry the run's cycles"
    );
}
