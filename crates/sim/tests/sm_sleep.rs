//! A steadily stalled SM sleeps (DESIGN.md, "Hot path"): until its next
//! event, a poll charges each scheduler's held stall verdict without
//! entering the scheduler at all. The byte-identity checks elsewhere
//! would also pass if the sleep never happened; this one counts it.
//!
//! Every scheduler slot of every polled SM cycle is either an issue or
//! an idle cycle, and an awake cycle opens one `Phase::Scheduler` guard
//! per slot. MV (SpMV) is memory bound, so most of its slots fall in
//! sleeping polls, which open none, and over a quarter of its cycles
//! are ones every SM sleeps through, which the run driver jumps over
//! without stepping any SM. Its own
//! test binary: hostprof's totals are process-global.

use gscalar_core::Arch;
use gscalar_hostprof::{self as hostprof, Phase};
use gscalar_sim::{Gpu, GpuConfig};
use gscalar_workloads::{by_abbr, Scale};

/// MV's cycle counts as an engine that polls every cycle produces them
/// (`ci/baseline/bottleneck.json` pins the Baseline one too). A sleeping
/// poll or a jump over sleeping cycles that missed any of a full
/// cycle's effects, such as advancing the collector rotation, moves
/// them.
const POLLED_CYCLES: [(Arch, u64); 2] = [(Arch::Baseline, 2736), (Arch::GScalar, 2898)];

#[test]
fn stalled_sms_sleep_through_most_scheduler_slots() {
    let w = by_abbr("MV", Scale::Test).expect("known benchmark");
    hostprof::set_enabled(true);
    for (arch, cycles) in POLLED_CYCLES {
        hostprof::reset();
        let mut mem = w.memory.clone();
        let stats = Gpu::new(GpuConfig::gtx480(), arch.config()).run(&w.kernel, w.launch, &mut mem);
        let snap = hostprof::snapshot();
        let entered = snap.phase(Phase::Scheduler).calls;
        assert_eq!(stats.cycles, cycles, "{arch:?}");
        let slots = stats.pipe.issued + stats.pipe.scheduler_idle_cycles;
        assert!(
            2 * entered <= slots,
            "{arch:?}: scheduler entered on {entered} of {slots} polled slots"
        );
        // The driver scans once per cycle it runs; the cycles every SM
        // sleeps through are jumped over.
        let ran = snap.phase(Phase::IdleScan).calls;
        assert!(
            4 * ran <= 3 * cycles,
            "{arch:?}: driver ran {ran} of {cycles} cycles"
        );
    }
    hostprof::set_enabled(false);
}
