//! The typed NDJSON record vocabulary of the live telemetry stream.
//!
//! Every line of a stream is one JSON object with two envelope fields:
//! `"v"` (the [`crate::LIVE_SCHEMA_VERSION`]) and
//! `"type"` (the record discriminant). Serialization goes through
//! [`gscalar_metrics::json::Json`], whose sorted-key `Display` makes
//! every line byte-deterministic for a given record value — the
//! property the golden-file schema test pins.
//!
//! Wall-clock fields (`t_s`, `wall_s`, `eta_s`) are *redacted to zero*
//! by the emitting [`LiveHandle`](crate::LiveHandle) when the stream is
//! deterministic; the record layer itself is pure data.

use std::collections::BTreeMap;

use gscalar_metrics::json::Json;

use crate::LIVE_SCHEMA_VERSION;

/// One telemetry record: a line of the NDJSON stream.
#[derive(Debug, Clone, PartialEq)]
pub enum LiveRecord {
    /// A simulation run started.
    RunStart {
        /// Stream-unique run id.
        run: u64,
        /// Workload name (e.g. `"backprop"`).
        workload: String,
        /// Architecture label (e.g. `"G-Scalar"`).
        arch: String,
        /// Number of SMs in the simulated chip.
        sms: u64,
        /// Seconds since the stream opened (0 when deterministic).
        t_s: f64,
    },
    /// Periodic in-flight sample of one run, cumulative since cycle 0.
    Snapshot {
        /// Run id this sample belongs to.
        run: u64,
        /// Simulated cycle of the sample boundary.
        cycle: u64,
        /// Cumulative thread-level IPC.
        ipc: f64,
        /// Warp instructions issued so far.
        issued: u64,
        /// Warp instructions executed so far.
        warp_instrs: u64,
        /// Fraction of warp instructions executed on the scalar path.
        scalar_rate: f64,
        /// Register-file compression ratio (raw bytes / compressed).
        compression_ratio: f64,
        /// Mean MSHR occupancy over sampled fills.
        mshr_mean: f64,
        /// Peak MSHR occupancy observed.
        mshr_max: u64,
        /// Cumulative IPC of each SM, indexed by SM id.
        per_sm_ipc: Vec<f64>,
        /// Scheduler-idle cycles by stall reason label.
        stalls: BTreeMap<String, u64>,
        /// Work-stealing pool counters: (steals, failed steals, epochs).
        /// Epochs always read 0: the schema keeps the field, which
        /// nothing records any more.
        pool: (u64, u64, u64),
        /// Seconds since the stream opened (0 when deterministic).
        t_s: f64,
    },
    /// A simulation run ended: it finished, or it stopped at a budget
    /// boundary (the job's `job_end` then says `budget`).
    RunEnd {
        /// Run id.
        run: u64,
        /// Final cycle count (the boundary cycle of a budget stop).
        cycle: u64,
        /// Final thread-level IPC.
        ipc: f64,
        /// Total warp instructions executed.
        warp_instrs: u64,
        /// Seconds since the stream opened (0 when deterministic).
        t_s: f64,
    },
    /// A sweep over a job grid started.
    SweepStart {
        /// Number of jobs about to execute (after resume filtering).
        jobs: u64,
        /// Sum of per-job cycle budgets (0 when unbudgeted).
        budget_cycles: u64,
        /// Seconds since the stream opened (0 when deterministic).
        t_s: f64,
    },
    /// A sweep job began its first attempt.
    JobStart {
        /// Job id (`<experiment>/<cell>`).
        job: String,
        /// The job's simulated-cycle budget (0 = unbudgeted).
        budget: u64,
        /// Seconds since the stream opened (0 when deterministic).
        t_s: f64,
    },
    /// A failed attempt is about to be retried.
    JobRetry {
        /// Job id.
        job: String,
        /// 1-based number of the attempt that just failed.
        attempt: u64,
        /// Failure kind (`"panic"`, `"budget"`, `"error"`).
        kind: String,
        /// Failure message.
        message: String,
        /// Seconds since the stream opened (0 when deterministic).
        t_s: f64,
    },
    /// A sweep job finished (successfully or not).
    JobEnd {
        /// Job id.
        job: String,
        /// Final status: `"ok"`, `"panic"`, `"budget"`, or `"error"`.
        status: String,
        /// Total attempts made.
        attempts: u64,
        /// Simulated cycles the job ran (0 on failure).
        sim_cycles: u64,
        /// Wall seconds the final attempt took (0 when deterministic).
        wall_s: f64,
        /// Jobs finished so far, including this one.
        done: u64,
        /// Total jobs in the sweep.
        total: u64,
        /// Budget-weighted progress fraction in `[0, 1]`.
        progress: f64,
        /// Estimated seconds remaining (0 when deterministic).
        eta_s: f64,
        /// Seconds since the stream opened (0 when deterministic).
        t_s: f64,
    },
    /// The sweep finished.
    SweepEnd {
        /// Jobs that executed.
        done: u64,
        /// Total jobs in the sweep.
        total: u64,
        /// Jobs that exhausted their retries and failed.
        failed: u64,
        /// Wall seconds for the whole sweep (0 when deterministic).
        wall_s: f64,
        /// Seconds since the stream opened (0 when deterministic).
        t_s: f64,
    },
    /// Terminal record: the stream closed. Always the last line.
    StreamEnd {
        /// Records written to the sink, excluding this one.
        records: u64,
        /// Records dropped because the bounded buffer was full.
        dropped: u64,
        /// Seconds since the stream opened (0 when deterministic).
        t_s: f64,
    },
}

fn num(v: f64) -> Json {
    Json::Num(if v.is_finite() { v } else { 0.0 })
}

fn int(v: u64) -> Json {
    Json::Num(v as f64)
}

fn s(v: &str) -> Json {
    Json::Str(v.to_string())
}

impl LiveRecord {
    /// The record's `"type"` discriminant.
    #[must_use]
    pub fn type_name(&self) -> &'static str {
        match self {
            LiveRecord::RunStart { .. } => "run_start",
            LiveRecord::Snapshot { .. } => "snapshot",
            LiveRecord::RunEnd { .. } => "run_end",
            LiveRecord::SweepStart { .. } => "sweep_start",
            LiveRecord::JobStart { .. } => "job_start",
            LiveRecord::JobRetry { .. } => "job_retry",
            LiveRecord::JobEnd { .. } => "job_end",
            LiveRecord::SweepEnd { .. } => "sweep_end",
            LiveRecord::StreamEnd { .. } => "stream_end",
        }
    }

    /// The run id this record belongs to, if it is a per-run record.
    #[must_use]
    pub fn run_id(&self) -> Option<u64> {
        match self {
            LiveRecord::RunStart { run, .. }
            | LiveRecord::Snapshot { run, .. }
            | LiveRecord::RunEnd { run, .. } => Some(*run),
            _ => None,
        }
    }

    /// Serializes to one NDJSON line (no trailing newline). Keys are
    /// emitted in sorted order, so the output is byte-deterministic.
    #[must_use]
    pub fn to_json_line(&self) -> String {
        let mut fields: Vec<(String, Json)> = vec![
            ("v".into(), int(LIVE_SCHEMA_VERSION)),
            ("type".into(), s(self.type_name())),
        ];
        match self {
            LiveRecord::RunStart {
                run,
                workload,
                arch,
                sms,
                t_s,
            } => {
                fields.push(("run".into(), int(*run)));
                fields.push(("workload".into(), s(workload)));
                fields.push(("arch".into(), s(arch)));
                fields.push(("sms".into(), int(*sms)));
                fields.push(("t_s".into(), num(*t_s)));
            }
            LiveRecord::Snapshot {
                run,
                cycle,
                ipc,
                issued,
                warp_instrs,
                scalar_rate,
                compression_ratio,
                mshr_mean,
                mshr_max,
                per_sm_ipc,
                stalls,
                pool,
                t_s,
            } => {
                fields.push(("run".into(), int(*run)));
                fields.push(("cycle".into(), int(*cycle)));
                fields.push(("ipc".into(), num(*ipc)));
                fields.push(("issued".into(), int(*issued)));
                fields.push(("warp_instrs".into(), int(*warp_instrs)));
                fields.push(("scalar_rate".into(), num(*scalar_rate)));
                fields.push(("compression_ratio".into(), num(*compression_ratio)));
                fields.push(("mshr_mean".into(), num(*mshr_mean)));
                fields.push(("mshr_max".into(), int(*mshr_max)));
                fields.push((
                    "per_sm_ipc".into(),
                    Json::Arr(per_sm_ipc.iter().map(|v| num(*v)).collect()),
                ));
                fields.push((
                    "stalls".into(),
                    Json::Obj(stalls.iter().map(|(k, v)| (k.clone(), int(*v))).collect()),
                ));
                let (steals, failed, epochs) = pool;
                fields.push((
                    "pool".into(),
                    Json::obj([
                        ("steals".to_string(), int(*steals)),
                        ("failed_steals".to_string(), int(*failed)),
                        ("epochs".to_string(), int(*epochs)),
                    ]),
                ));
                fields.push(("t_s".into(), num(*t_s)));
            }
            LiveRecord::RunEnd {
                run,
                cycle,
                ipc,
                warp_instrs,
                t_s,
            } => {
                fields.push(("run".into(), int(*run)));
                fields.push(("cycle".into(), int(*cycle)));
                fields.push(("ipc".into(), num(*ipc)));
                fields.push(("warp_instrs".into(), int(*warp_instrs)));
                fields.push(("t_s".into(), num(*t_s)));
            }
            LiveRecord::SweepStart {
                jobs,
                budget_cycles,
                t_s,
            } => {
                fields.push(("jobs".into(), int(*jobs)));
                fields.push(("budget_cycles".into(), int(*budget_cycles)));
                fields.push(("t_s".into(), num(*t_s)));
            }
            LiveRecord::JobStart { job, budget, t_s } => {
                fields.push(("job".into(), s(job)));
                fields.push(("budget".into(), int(*budget)));
                fields.push(("t_s".into(), num(*t_s)));
            }
            LiveRecord::JobRetry {
                job,
                attempt,
                kind,
                message,
                t_s,
            } => {
                fields.push(("job".into(), s(job)));
                fields.push(("attempt".into(), int(*attempt)));
                fields.push(("kind".into(), s(kind)));
                fields.push(("message".into(), s(message)));
                fields.push(("t_s".into(), num(*t_s)));
            }
            LiveRecord::JobEnd {
                job,
                status,
                attempts,
                sim_cycles,
                wall_s,
                done,
                total,
                progress,
                eta_s,
                t_s,
            } => {
                fields.push(("job".into(), s(job)));
                fields.push(("status".into(), s(status)));
                fields.push(("attempts".into(), int(*attempts)));
                fields.push(("sim_cycles".into(), int(*sim_cycles)));
                fields.push(("wall_s".into(), num(*wall_s)));
                fields.push(("done".into(), int(*done)));
                fields.push(("total".into(), int(*total)));
                fields.push(("progress".into(), num(*progress)));
                fields.push(("eta_s".into(), num(*eta_s)));
                fields.push(("t_s".into(), num(*t_s)));
            }
            LiveRecord::SweepEnd {
                done,
                total,
                failed,
                wall_s,
                t_s,
            } => {
                fields.push(("done".into(), int(*done)));
                fields.push(("total".into(), int(*total)));
                fields.push(("failed".into(), int(*failed)));
                fields.push(("wall_s".into(), num(*wall_s)));
                fields.push(("t_s".into(), num(*t_s)));
            }
            LiveRecord::StreamEnd {
                records,
                dropped,
                t_s,
            } => {
                fields.push(("records".into(), int(*records)));
                fields.push(("dropped".into(), int(*dropped)));
                fields.push(("t_s".into(), num(*t_s)));
            }
        }
        Json::obj(fields).to_string()
    }

    /// Parses one NDJSON line back into a record.
    ///
    /// # Errors
    ///
    /// Returns a message when the line is not valid JSON, declares an
    /// unsupported schema version, has an unknown `"type"`, or misses
    /// a required field.
    pub fn parse(line: &str) -> Result<LiveRecord, String> {
        let doc = Json::parse(line)?;
        let v = doc
            .get("v")
            .and_then(Json::as_f64)
            .ok_or("record missing numeric 'v'")? as u64;
        if v != LIVE_SCHEMA_VERSION {
            return Err(format!(
                "unsupported live schema {v} (expected {LIVE_SCHEMA_VERSION})"
            ));
        }
        let ty = doc
            .get("type")
            .and_then(Json::as_str)
            .ok_or("record missing string 'type'")?;
        let f = |k: &str| -> Result<f64, String> {
            doc.get(k)
                .and_then(Json::as_f64)
                .ok_or_else(|| format!("{ty} record missing numeric {k:?}"))
        };
        let u = |k: &str| -> Result<u64, String> { f(k).map(|v| v as u64) };
        let st = |k: &str| -> Result<String, String> {
            doc.get(k)
                .and_then(Json::as_str)
                .map(str::to_string)
                .ok_or_else(|| format!("{ty} record missing string {k:?}"))
        };
        match ty {
            "run_start" => Ok(LiveRecord::RunStart {
                run: u("run")?,
                workload: st("workload")?,
                arch: st("arch")?,
                sms: u("sms")?,
                t_s: f("t_s")?,
            }),
            "snapshot" => {
                let per_sm_ipc = match doc.get("per_sm_ipc") {
                    Some(Json::Arr(items)) => items
                        .iter()
                        .map(|j| {
                            j.as_f64()
                                .ok_or_else(|| "non-numeric per_sm_ipc entry".to_string())
                        })
                        .collect::<Result<Vec<f64>, String>>()?,
                    _ => return Err("snapshot record missing array 'per_sm_ipc'".into()),
                };
                let stalls = doc
                    .get("stalls")
                    .and_then(Json::as_obj)
                    .ok_or("snapshot record missing object 'stalls'")?
                    .iter()
                    .map(|(k, v)| {
                        v.as_f64()
                            .map(|n| (k.clone(), n as u64))
                            .ok_or_else(|| format!("non-numeric stall count {k:?}"))
                    })
                    .collect::<Result<BTreeMap<String, u64>, String>>()?;
                let pool_obj = doc.get("pool");
                let pf = |k: &str| {
                    pool_obj
                        .and_then(|p| p.get(k))
                        .and_then(Json::as_f64)
                        .unwrap_or(0.0) as u64
                };
                Ok(LiveRecord::Snapshot {
                    run: u("run")?,
                    cycle: u("cycle")?,
                    ipc: f("ipc")?,
                    issued: u("issued")?,
                    warp_instrs: u("warp_instrs")?,
                    scalar_rate: f("scalar_rate")?,
                    compression_ratio: f("compression_ratio")?,
                    mshr_mean: f("mshr_mean")?,
                    mshr_max: u("mshr_max")?,
                    per_sm_ipc,
                    stalls,
                    pool: (pf("steals"), pf("failed_steals"), pf("epochs")),
                    t_s: f("t_s")?,
                })
            }
            "run_end" => Ok(LiveRecord::RunEnd {
                run: u("run")?,
                cycle: u("cycle")?,
                ipc: f("ipc")?,
                warp_instrs: u("warp_instrs")?,
                t_s: f("t_s")?,
            }),
            "sweep_start" => Ok(LiveRecord::SweepStart {
                jobs: u("jobs")?,
                budget_cycles: u("budget_cycles")?,
                t_s: f("t_s")?,
            }),
            "job_start" => Ok(LiveRecord::JobStart {
                job: st("job")?,
                budget: u("budget")?,
                t_s: f("t_s")?,
            }),
            "job_retry" => Ok(LiveRecord::JobRetry {
                job: st("job")?,
                attempt: u("attempt")?,
                kind: st("kind")?,
                message: st("message")?,
                t_s: f("t_s")?,
            }),
            "job_end" => Ok(LiveRecord::JobEnd {
                job: st("job")?,
                status: st("status")?,
                attempts: u("attempts")?,
                sim_cycles: u("sim_cycles")?,
                wall_s: f("wall_s")?,
                done: u("done")?,
                total: u("total")?,
                progress: f("progress")?,
                eta_s: f("eta_s")?,
                t_s: f("t_s")?,
            }),
            "sweep_end" => Ok(LiveRecord::SweepEnd {
                done: u("done")?,
                total: u("total")?,
                failed: u("failed")?,
                wall_s: f("wall_s")?,
                t_s: f("t_s")?,
            }),
            "stream_end" => Ok(LiveRecord::StreamEnd {
                records: u("records")?,
                dropped: u("dropped")?,
                t_s: f("t_s")?,
            }),
            other => Err(format!("unknown live record type {other:?}")),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_record_round_trips() {
        let records = vec![
            LiveRecord::RunStart {
                run: 1,
                workload: "backprop".into(),
                arch: "G-Scalar".into(),
                sms: 15,
                t_s: 0.5,
            },
            LiveRecord::Snapshot {
                run: 1,
                cycle: 8192,
                ipc: 12.25,
                issued: 4000,
                warp_instrs: 3900,
                scalar_rate: 0.31,
                compression_ratio: 1.75,
                mshr_mean: 2.5,
                mshr_max: 8,
                per_sm_ipc: vec![0.5, 0.75],
                stalls: [("mem".to_string(), 100u64), ("sync".to_string(), 5)]
                    .into_iter()
                    .collect(),
                pool: (3, 1, 40),
                t_s: 1.0,
            },
            LiveRecord::RunEnd {
                run: 1,
                cycle: 20000,
                ipc: 13.0,
                warp_instrs: 9000,
                t_s: 2.0,
            },
            LiveRecord::SweepStart {
                jobs: 6,
                budget_cycles: 120_000,
                t_s: 0.0,
            },
            LiveRecord::JobStart {
                job: "fig01/BP".into(),
                budget: 20_000,
                t_s: 0.1,
            },
            LiveRecord::JobRetry {
                job: "fig01/BP".into(),
                attempt: 1,
                kind: "panic".into(),
                message: "boom".into(),
                t_s: 0.2,
            },
            LiveRecord::JobEnd {
                job: "fig01/BP".into(),
                status: "ok".into(),
                attempts: 2,
                sim_cycles: 18_000,
                wall_s: 0.4,
                done: 1,
                total: 6,
                progress: 0.166_5,
                eta_s: 2.0,
                t_s: 0.5,
            },
            LiveRecord::SweepEnd {
                done: 6,
                total: 6,
                failed: 1,
                wall_s: 3.0,
                t_s: 3.0,
            },
            LiveRecord::StreamEnd {
                records: 42,
                dropped: 0,
                t_s: 3.0,
            },
        ];
        for r in records {
            let line = r.to_json_line();
            let back = LiveRecord::parse(&line).unwrap_or_else(|e| panic!("{line}: {e}"));
            assert_eq!(back, r, "round trip of {line}");
            // Envelope fields are always present.
            let doc = Json::parse(&line).unwrap();
            assert_eq!(doc.get("v").and_then(Json::as_f64), Some(1.0));
            assert_eq!(
                doc.get("type").and_then(Json::as_str),
                Some(r.type_name()),
                "type field"
            );
        }
    }

    #[test]
    fn parse_rejects_garbage() {
        assert!(LiveRecord::parse("not json").is_err());
        assert!(LiveRecord::parse("{}").is_err());
        assert!(LiveRecord::parse("{\"v\":99,\"type\":\"run_end\"}").is_err());
        assert!(LiveRecord::parse("{\"v\":1,\"type\":\"nope\"}").is_err());
        assert!(LiveRecord::parse("{\"v\":1,\"type\":\"run_end\"}").is_err());
    }

    #[test]
    fn non_finite_floats_are_sanitized() {
        let r = LiveRecord::RunEnd {
            run: 0,
            cycle: 1,
            ipc: f64::NAN,
            warp_instrs: 0,
            t_s: f64::INFINITY,
        };
        let line = r.to_json_line();
        let back = LiveRecord::parse(&line).unwrap();
        if let LiveRecord::RunEnd { ipc, t_s, .. } = back {
            assert_eq!(ipc, 0.0);
            assert_eq!(t_s, 0.0);
        } else {
            panic!("wrong variant");
        }
    }
}
