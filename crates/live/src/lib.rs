//! # gscalar-live — streaming run telemetry
//!
//! Everything the simulator's other observability layers produce
//! (traces, metrics, profiles, host timings) is post-hoc: nothing is
//! visible before a run or sweep finishes. This crate adds the live
//! channel: a schema-versioned **NDJSON stream** of typed
//! [`LiveRecord`]s — periodic interval [`Snapshot`](LiveRecord)s
//! sampled through the simulator's `RunObserver` hook, and sweep
//! lifecycle events (job started / retried / finished, with a
//! budget-weighted ETA) — written through a **bounded non-blocking
//! buffer** ([`LiveHandle`]) so the simulation hot path never stalls
//! on I/O. When the buffer is full, records are dropped and counted;
//! the terminal `stream_end` record reports the loss.
//!
//! Two sinks ship in-repo, both zero-dependency:
//!
//! * an append-only NDJSON **file** you can `tail -f` or feed to
//!   `watch <path>`, and
//! * an **HTTP/SSE server** (`GET /runs`, `GET /runs/<id>/stream`) —
//!   the first slice of the sweep-as-a-service API — which
//!   `watch <addr>` subscribes to. Its acceptor, feeds and SSE writer
//!   ([`http`]) also carry `gscalar-serve`'s job API.
//!
//! ## Determinism contract
//!
//! Telemetry is an *observer*: enabling it must leave stats, traces,
//! profiles, and manifests byte-identical, serially and at any thread
//! count (the run driver samples the stream on a grid of its own,
//! never on the run's `sample_interval`). In `--deterministic` mode every
//! wall-clock field of the stream (`t_s`, `wall_s`, `eta_s`) is
//! redacted to zero, the same rule applied to `.host.json` side
//! channels. Record *order* between concurrent jobs may vary with
//! thread count — the stream is a side channel, not a comparison
//! artifact.
//!
//! ## Attaching a stream to runs
//!
//! A stream reaches a simulation through its job: the sweep engine
//! hands `SweepConfig::live` to every job it runs, and the job starts a
//! `LiveObserver` into the run's `Instruments::live`. Nothing is
//! process-wide, so two sweeps in one process stream to their own
//! handles.

pub mod dashboard;
pub mod http;
pub mod progress;
pub mod record;
pub mod server;
pub mod stream;

pub use dashboard::Dashboard;
pub use progress::EtaTracker;
pub use record::LiveRecord;
pub use stream::{open_target, LineSink, LiveHandle, StreamConfig, DEFAULT_SNAPSHOT_INTERVAL};

/// Version stamped into every record's `"v"` field; bumped on
/// incompatible schema changes.
pub const LIVE_SCHEMA_VERSION: u64 = 1;
