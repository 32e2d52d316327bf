//! A live stream on a run: `run_start`, a snapshot at every multiple
//! of the stream's interval whatever else the run samples, and one
//! `run_end` at the run's end or at its budget's deadline.

use gscalar_isa::{CmpOp, KernelBuilder, LaunchConfig, Operand, SReg};
use gscalar_live::{LiveHandle, LiveRecord, StreamConfig};
use gscalar_sim::memory::GlobalMemory;
use gscalar_sim::{
    ArchConfig, BudgetExceeded, Gpu, GpuConfig, Instruments, LiveObserver, RunObserver, Stats,
};

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

/// Records the cycle of every observer sample.
#[derive(Default)]
struct Samples(Vec<u64>);

impl RunObserver for Samples {
    fn sample(&mut self, cycle: u64, _stats: &Stats) {
        self.0.push(cycle);
    }
}

/// A loop long enough to cross several 4096-cycle boundaries.
fn long_kernel() -> gscalar_isa::Kernel {
    let mut b = KernelBuilder::new("long");
    let i = b.mov(Operand::Imm(0));
    b.while_loop(
        |b| b.isetp(CmpOp::Lt, i.into(), Operand::Imm(3000)).into(),
        |b| b.iadd_to(i, i.into(), Operand::Imm(1)),
    );
    b.exit();
    b.build().unwrap()
}

/// Runs `kernel` on one CTA with a live stream every `interval`
/// cycles, `ins` supplying everything else. Returns the run's result,
/// the stream's snapshot cycles and its `run_end` cycle.
fn stream(
    kernel: &gscalar_isa::Kernel,
    interval: u64,
    mut ins: Instruments<'_>,
) -> (Result<Stats, BudgetExceeded>, Vec<u64>, u64) {
    let handle = LiveHandle::memory(StreamConfig {
        deterministic: true,
        snapshot_interval: interval,
        ..StreamConfig::default()
    });
    ins.live = Some(LiveObserver::start(handle.clone(), "k", "base", 1));
    let mut gpu = Gpu::new(GpuConfig::test_small(), ArchConfig::baseline());
    let result = gpu.run_with(
        kernel,
        LaunchConfig::linear(1, 32),
        &mut GlobalMemory::new(),
        &mut ins,
    );
    drop(ins);
    handle.close();
    let (mut snapshots, mut end) = (Vec::new(), None);
    for line in handle.collected().unwrap() {
        match LiveRecord::parse(&line).unwrap() {
            LiveRecord::Snapshot { cycle, .. } => snapshots.push(cycle),
            LiveRecord::RunEnd { cycle, .. } => end = Some(cycle),
            _ => {}
        }
    }
    (result, snapshots, end.expect("run_end"))
}

/// Every multiple of `interval` in `1..=last`.
fn grid(interval: u64, last: u64) -> Vec<u64> {
    (1..=last / interval).map(|k| k * interval).collect()
}

#[test]
fn observed_runs_stream_on_the_streams_grid() {
    // Observers with no sample cadence of their own: the stream
    // still snapshots every 8 cycles, and the observers see no
    // sample.
    let mut samples = Samples::default();
    let (stats, snapshots, end) = stream(
        &busy_kernel(),
        8,
        Instruments {
            observers: vec![&mut samples],
            ..Instruments::default()
        },
    );
    let stats = stats.unwrap();
    assert_eq!(snapshots, grid(8, stats.cycles - 1));
    assert_eq!(end, stats.cycles);
    assert!(samples.0.is_empty(), "{:?}", samples.0);
}

#[test]
fn the_live_grid_ignores_sample_interval() {
    // Observers every 3 cycles, the stream every 8: each lands on
    // its own grid and neither moves the other.
    let mut samples = Samples::default();
    let (stats, snapshots, _) = stream(
        &busy_kernel(),
        8,
        Instruments {
            observers: vec![&mut samples],
            sample_interval: 3,
            ..Instruments::default()
        },
    );
    let last = stats.unwrap().cycles - 1;
    assert_eq!(snapshots, grid(8, last));
    assert_eq!(samples.0, grid(3, last));
}

#[test]
fn budgeted_runs_stream_on_the_live_grid_and_end_at_the_deadline() {
    // A 5000-cycle budget aborts at the next multiple of 4096; a
    // 256-cycle stream snapshots every 256 cycles up to there and
    // ends the run at the abort cycle.
    let kernel = long_kernel();
    let (err, snapshots, end) = stream(
        &kernel,
        256,
        Instruments {
            budget: 5000,
            ..Instruments::default()
        },
    );
    let err = err.unwrap_err();
    assert_eq!(
        err,
        BudgetExceeded {
            cycles: 8192,
            budget: 5000
        }
    );
    assert_eq!(snapshots, grid(256, 8192));
    assert_eq!(end, 8192);
    // The stream moves no abort cycle.
    let mut gpu = Gpu::new(GpuConfig::test_small(), ArchConfig::baseline());
    let bare = gpu.run_with(
        &kernel,
        LaunchConfig::linear(1, 32),
        &mut GlobalMemory::new(),
        &mut Instruments {
            budget: 5000,
            ..Instruments::default()
        },
    );
    assert_eq!(bare, Err(err));
}
