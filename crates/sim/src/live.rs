//! Bridges the simulator's [`Stats`] into a live telemetry stream.
//!
//! A [`LiveObserver`] rides a [`Gpu::run_with`](crate::Gpu::run_with) in
//! [`Instruments::live`](crate::Instruments) and observes like
//! [`MetricsObserver`](crate::MetricsObserver) does, but emits
//! NDJSON [`LiveRecord`]s to a [`gscalar_live::LiveHandle`] *while the
//! run executes*: one `run_start`, periodic `snapshot`s (cumulative
//! IPC, per-SM IPC, stall mix, compression ratio, MSHR occupancy, and
//! a `pool` object whose three counters always read 0), and one
//! `run_end` — when the run finishes, or at the sample boundary where
//! its budget stops it.
//!
//! The observer **downsamples internally** on its own cadence
//! ([`LiveHandle::snapshot_interval`]): callers attaching it to a run
//! that already samples at a finer interval (e.g. budgeted runs
//! checking every 4096 cycles) must *not* change the engine's sample
//! interval — a changed interval would move deterministic budget-abort
//! points. Emission goes through the handle's bounded non-blocking
//! queue, so the run loop never waits on I/O.

use gscalar_live::{LiveHandle, LiveRecord};

use crate::gpu::RunObserver;
use crate::stats::Stats;

/// A [`RunObserver`] that streams interval snapshots to a live handle.
#[derive(Debug)]
pub struct LiveObserver {
    handle: LiveHandle,
    run: u64,
    interval: u64,
    last_emit: u64,
    per_sm_ipc: Vec<f64>,
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
        let interval = handle.snapshot_interval();
        LiveObserver {
            handle,
            run,
            interval,
            last_emit: 0,
            per_sm_ipc: Vec::new(),
        }
    }

    /// The observer's snapshot cadence in cycles: the run's sample
    /// interval when nothing else sets one (see `Instruments::live`).
    #[must_use]
    pub fn sample_interval(&self) -> u64 {
        self.interval
    }

    /// The stream-unique id of this run.
    #[must_use]
    pub fn run_id(&self) -> u64 {
        self.run
    }

    fn due(&self, cycle: u64) -> bool {
        cycle >= self.last_emit + self.interval
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

impl RunObserver for LiveObserver {
    fn sample_sm(&mut self, cycle: u64, sm: usize, stats: &Stats) {
        if !self.due(cycle) {
            return;
        }
        if self.per_sm_ipc.len() <= sm {
            self.per_sm_ipc.resize(sm + 1, 0.0);
        }
        self.per_sm_ipc[sm] = if cycle == 0 {
            0.0
        } else {
            stats.instr.thread_instrs as f64 / cycle as f64
        };
    }

    fn sample(&mut self, cycle: u64, stats: &Stats) {
        if !self.due(cycle) {
            return;
        }
        self.last_emit = cycle;
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
            per_sm_ipc: self.per_sm_ipc.clone(),
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

    fn finish(&mut self, cycle: u64, merged: &Stats, _per_sm: &[Stats]) {
        self.end(cycle, merged);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{ArchConfig, GpuConfig};
    use crate::gpu::{Gpu, Instruments};
    use crate::memory::GlobalMemory;
    use gscalar_isa::{KernelBuilder, LaunchConfig, Operand, SReg};
    use gscalar_live::StreamConfig;

    fn busy_kernel() -> gscalar_isa::Kernel {
        let mut b = KernelBuilder::new("busy");
        let tid = b.s2r(SReg::TidX);
        let mut cur = tid;
        for i in 0..64 {
            cur = b.iadd(cur.into(), Operand::Imm(i));
        }
        b.exit();
        b.build().unwrap()
    }

    fn run_with_observer() -> (Stats, Vec<String>) {
        let handle = LiveHandle::memory(StreamConfig {
            deterministic: true,
            snapshot_interval: 8,
            ..StreamConfig::default()
        });
        let mut cfg = GpuConfig::test_small();
        cfg.num_sms = 4;
        let mut gpu = Gpu::new(cfg, ArchConfig::baseline());
        let mut mem = GlobalMemory::new();
        // No cadence of its own: the run samples at the stream's.
        let stats = gpu
            .run_with(
                &busy_kernel(),
                LaunchConfig::linear(4, 64),
                &mut mem,
                &mut Instruments {
                    live: Some(LiveObserver::start(handle.clone(), "busy", "base", 4)),
                    ..Instruments::default()
                },
            )
            .unwrap();
        handle.close();
        (stats, handle.collected().unwrap())
    }

    #[test]
    fn emits_start_snapshots_and_end() {
        let (stats, lines) = run_with_observer();
        let records: Vec<LiveRecord> = lines
            .iter()
            .map(|l| LiveRecord::parse(l).expect("parses"))
            .collect();
        assert!(matches!(records[0], LiveRecord::RunStart { sms: 4, .. }));
        let snapshots: Vec<&LiveRecord> = records
            .iter()
            .filter(|r| matches!(r, LiveRecord::Snapshot { .. }))
            .collect();
        assert!(!snapshots.is_empty(), "no snapshots in {lines:?}");
        for s in &snapshots {
            let LiveRecord::Snapshot {
                cycle,
                per_sm_ipc,
                stalls,
                t_s,
                ..
            } = s
            else {
                unreachable!()
            };
            assert_eq!(cycle % 8, 0, "snapshot off the cadence grid");
            assert_eq!(per_sm_ipc.len(), 4);
            assert!(!stalls.is_empty());
            assert_eq!(*t_s, 0.0, "deterministic stream leaks wall clock");
        }
        match records.last().unwrap() {
            LiveRecord::StreamEnd { .. } => {}
            other => panic!("missing terminal record, got {other:?}"),
        }
        let end = records
            .iter()
            .find(|r| matches!(r, LiveRecord::RunEnd { .. }))
            .expect("run_end");
        if let LiveRecord::RunEnd {
            cycle, warp_instrs, ..
        } = end
        {
            assert_eq!(*cycle, stats.cycles);
            assert_eq!(*warp_instrs, stats.instr.warp_instrs);
        }
    }

    #[test]
    fn observer_does_not_perturb_stats() {
        let mut cfg = GpuConfig::test_small();
        cfg.num_sms = 4;
        let mut bare_mem = GlobalMemory::new();
        let bare = Gpu::new(cfg, ArchConfig::baseline()).run(
            &busy_kernel(),
            LaunchConfig::linear(4, 64),
            &mut bare_mem,
        );
        let (observed, lines) = run_with_observer();
        assert_eq!(bare, observed, "live observer perturbed stats");
        assert!(lines.iter().any(|l| l.contains("\"type\":\"snapshot\"")));
    }

    #[test]
    fn downsamples_when_engine_samples_finer() {
        // Engine cadence 2, observer cadence 8: snapshots land only on
        // multiples of 8 even though samples arrive every 2 cycles.
        let handle = LiveHandle::memory(StreamConfig {
            deterministic: true,
            snapshot_interval: 8,
            ..StreamConfig::default()
        });
        let mut gpu = Gpu::new(GpuConfig::test_small(), ArchConfig::baseline());
        let mut mem = GlobalMemory::new();
        gpu.run_with(
            &busy_kernel(),
            LaunchConfig::linear(1, 32),
            &mut mem,
            &mut Instruments {
                live: Some(LiveObserver::start(handle.clone(), "busy", "base", 1)),
                sample_interval: 2,
                ..Instruments::default()
            },
        )
        .unwrap();
        handle.close();
        let cycles: Vec<u64> = handle
            .collected()
            .unwrap()
            .iter()
            .filter_map(|line| match LiveRecord::parse(line).unwrap() {
                LiveRecord::Snapshot { cycle, .. } => Some(cycle),
                _ => None,
            })
            .collect();
        assert!(!cycles.is_empty());
        for pair in cycles.windows(2) {
            assert!(
                pair[1] >= pair[0] + 8,
                "snapshots closer than the observer cadence: {cycles:?}"
            );
        }
        for c in &cycles {
            assert_eq!(c % 2, 0, "snapshot off the engine boundary grid");
        }
    }
}
