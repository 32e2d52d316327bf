//! Bridges the simulator's [`Stats`] into a live telemetry stream.
//!
//! A [`LiveObserver`] rides a [`Gpu::run_with`](crate::Gpu::run_with) in
//! [`Instruments::live`](crate::Instruments) and emits NDJSON
//! [`LiveRecord`]s to a [`gscalar_live::LiveHandle`] *while the run
//! executes*: one `run_start`, a `snapshot` (cumulative IPC, per-SM
//! IPC, stall mix, compression ratio, MSHR occupancy, and a `pool`
//! object whose three counters always read 0) at every multiple of the
//! stream's interval ([`LiveHandle::snapshot_interval`]), and one
//! `run_end` — when the run finishes, or at the deadline where its
//! budget stops it.
//!
//! The stream's grid is its own: the run driver wakes for it whatever
//! the run's `sample_interval`, so attaching a stream adds no trace
//! snapshot and no observer sample, and moves no budget deadline.
//! Emission goes through the handle's bounded non-blocking queue, so
//! the run loop never waits on I/O.

use gscalar_live::{LiveHandle, LiveRecord};

use crate::stats::Stats;

/// Streams a run's snapshots and its end to a live handle.
#[derive(Debug)]
pub struct LiveObserver {
    handle: LiveHandle,
    run: u64,
}

impl LiveObserver {
    /// Announces a new run on `handle` (emitting `run_start`) and
    /// returns the observer to attach to a run.
    #[must_use]
    pub fn start(handle: LiveHandle, workload: &str, arch: &str, sms: usize) -> Self {
        let run = handle.next_run_id();
        handle.emit(&LiveRecord::RunStart {
            run,
            workload: workload.to_string(),
            arch: arch.to_string(),
            sms: sms as u64,
            t_s: handle.now_s(),
        });
        LiveObserver { handle, run }
    }

    /// The stream's snapshot interval in cycles.
    pub(crate) fn interval(&self) -> u64 {
        self.handle.snapshot_interval()
    }

    /// One snapshot at `cycle`: `per_sm` holds each SM's cumulative
    /// statistics in id order, `stats` their merge.
    pub(crate) fn snapshot<'s>(
        &mut self,
        cycle: u64,
        per_sm: impl Iterator<Item = &'s Stats>,
        stats: &Stats,
    ) {
        let scalar_rate = if stats.instr.warp_instrs == 0 {
            0.0
        } else {
            stats.instr.executed_scalar as f64 / stats.instr.warp_instrs as f64
        };
        self.handle.emit(&LiveRecord::Snapshot {
            run: self.run,
            cycle,
            ipc: stats.ipc(),
            issued: stats.pipe.issued,
            warp_instrs: stats.instr.warp_instrs,
            scalar_rate,
            compression_ratio: stats.rf.ours_ratio(),
            mshr_mean: stats.mem.mshr_occupancy.mean(),
            mshr_max: stats.mem.mshr_occupancy.max().unwrap_or(0),
            per_sm_ipc: per_sm
                .map(|s| s.instr.thread_instrs as f64 / cycle as f64)
                .collect(),
            stalls: stats
                .pipe
                .stalls
                .iter()
                .map(|(reason, count)| (reason.label().to_string(), count))
                .collect(),
            pool: (0, 0, 0),
            t_s: self.handle.now_s(),
        });
    }

    /// Ends the run at `cycle` with its cumulative `stats`: the one
    /// `run_end` of a finished run or of one its budget stopped.
    pub(crate) fn end(&mut self, cycle: u64, stats: &Stats) {
        self.handle.emit(&LiveRecord::RunEnd {
            run: self.run,
            cycle,
            ipc: stats.ipc(),
            warp_instrs: stats.instr.warp_instrs,
            t_s: self.handle.now_s(),
        });
    }
}
