//! Sweep lifecycle telemetry: exactly one `job_start` and one
//! `job_end` per job — including panicking, retried, and
//! budget-overrun jobs — plus `sweep_start`/`sweep_end` bracketing and
//! deterministic redaction of every wall-clock field.

use std::collections::BTreeMap;

use gscalar_live::{LiveHandle, LiveRecord, StreamConfig};
use gscalar_sweep::{run_sweep, JobError, JobId, JobOutput, JobSpec, SweepConfig};

fn ok_job(unit: &str, cycles: u64) -> JobSpec {
    JobSpec::new(JobId::new("exp", unit), move |_| {
        let mut out = JobOutput::default();
        out.metric("v", 1.0);
        out.sim_cycles = cycles;
        Ok(out)
    })
}

fn collect(threads: usize) -> Vec<LiveRecord> {
    let live = LiveHandle::memory(StreamConfig {
        deterministic: true,
        ..StreamConfig::default()
    });
    let specs = vec![
        ok_job("good-a", 1000),
        // Panics once, succeeds on the retry.
        {
            let flaky = std::sync::atomic::AtomicU32::new(0);
            JobSpec::new(JobId::new("exp", "flaky"), move |_| {
                if flaky.fetch_add(1, std::sync::atomic::Ordering::SeqCst) == 0 {
                    panic!("transient fault");
                }
                Ok(JobOutput {
                    sim_cycles: 500,
                    ..JobOutput::default()
                })
            })
        },
        // Panics on every attempt.
        JobSpec::new(JobId::new("exp", "doomed"), |_| panic!("hard fault")),
        // Deterministic budget overrun: never retried.
        JobSpec::new(JobId::new("exp", "over"), |ctx| {
            Err(JobError::Budget {
                cycles: ctx.cycle_budget + 1,
                budget: ctx.cycle_budget,
            })
        })
        .with_budget(2000),
        ok_job("good-b", 1500),
    ];
    let cfg = SweepConfig {
        threads,
        max_retries: 1,
        live: Some(live.clone()),
        ..SweepConfig::default()
    };
    let out = run_sweep(&specs, &cfg);
    assert_eq!(out.executed, 5);
    assert_eq!(out.failures.len(), 2);
    live.close();
    live.collected()
        .unwrap()
        .iter()
        .map(|l| LiveRecord::parse(l).unwrap_or_else(|e| panic!("{l}: {e}")))
        .collect()
}

fn check_stream(records: &[LiveRecord]) {
    let mut starts: BTreeMap<String, u64> = BTreeMap::new();
    let mut ends: BTreeMap<String, (String, u64)> = BTreeMap::new();
    let mut retries: BTreeMap<String, u64> = BTreeMap::new();
    let mut sweep_starts = 0;
    let mut sweep_ends = 0;
    for r in records {
        match r {
            LiveRecord::SweepStart { jobs, t_s, .. } => {
                sweep_starts += 1;
                assert_eq!(*jobs, 5);
                assert_eq!(*t_s, 0.0);
            }
            LiveRecord::JobStart { job, t_s, .. } => {
                *starts.entry(job.clone()).or_insert(0) += 1;
                assert_eq!(*t_s, 0.0);
            }
            LiveRecord::JobRetry { job, kind, .. } => {
                *retries.entry(job.clone()).or_insert(0) += 1;
                assert_eq!(kind, "panic");
            }
            LiveRecord::JobEnd {
                job,
                status,
                attempts,
                wall_s,
                eta_s,
                progress,
                total,
                ..
            } => {
                ends.insert(job.clone(), (status.clone(), *attempts));
                assert_eq!(*wall_s, 0.0, "wall_s not redacted");
                assert_eq!(*eta_s, 0.0, "eta_s not redacted");
                assert!(*progress > 0.0 && *progress <= 1.0);
                assert_eq!(*total, 5);
            }
            LiveRecord::SweepEnd {
                done,
                total,
                failed,
                wall_s,
                ..
            } => {
                sweep_ends += 1;
                assert_eq!((*done, *total, *failed), (5, 5, 2));
                assert_eq!(*wall_s, 0.0);
            }
            LiveRecord::StreamEnd { dropped, .. } => assert_eq!(*dropped, 0),
            other => panic!("unexpected record in sweep stream: {other:?}"),
        }
    }
    assert_eq!(sweep_starts, 1);
    assert_eq!(sweep_ends, 1);
    let jobs = [
        "exp/good-a",
        "exp/flaky",
        "exp/doomed",
        "exp/over",
        "exp/good-b",
    ];
    for j in jobs {
        assert_eq!(starts.get(j), Some(&1), "job_start for {j}: {starts:?}");
        assert!(ends.contains_key(j), "job_end for {j}: {ends:?}");
    }
    assert_eq!(ends["exp/good-a"], ("ok".to_string(), 1));
    assert_eq!(ends["exp/flaky"], ("ok".to_string(), 2), "retried then ok");
    assert_eq!(ends["exp/doomed"], ("panic".to_string(), 2));
    assert_eq!(ends["exp/over"], ("budget".to_string(), 1), "never retried");
    assert_eq!(retries.get("exp/flaky"), Some(&1));
    assert_eq!(retries.get("exp/doomed"), Some(&1));
    assert!(!retries.contains_key("exp/over"), "budget overrun retried");
    // sweep_start precedes every job event; stream_end is last.
    assert!(matches!(records[0], LiveRecord::SweepStart { .. }));
    assert!(matches!(records.last(), Some(LiveRecord::StreamEnd { .. })));
    // The final job_end reports full weighted progress.
    let last_progress = records
        .iter()
        .filter_map(|r| match r {
            LiveRecord::JobEnd { progress, .. } => Some(*progress),
            _ => None,
        })
        .next_back()
        .unwrap();
    assert!((last_progress - 1.0).abs() < 1e-12);
}

#[test]
fn one_lifecycle_event_per_job_serial() {
    check_stream(&collect(1));
}

#[test]
fn one_lifecycle_event_per_job_parallel() {
    check_stream(&collect(4));
}

#[test]
fn one_thread_ends_each_job_before_starting_the_next() {
    let mut open: Option<String> = None;
    for r in collect(1) {
        match r {
            LiveRecord::JobStart { job, .. } => {
                assert!(open.is_none(), "{job} started while {open:?} was open");
                open = Some(job);
            }
            LiveRecord::JobEnd { job, .. } => {
                assert_eq!(open.take(), Some(job), "job_end of a job not open");
            }
            _ => {}
        }
    }
    assert!(open.is_none(), "{open:?} never ended");
}
