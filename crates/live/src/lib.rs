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
//! count (the cadence adaptation lives on the observer side, never in
//! the engine's sampling interval). In `--deterministic` mode every
//! wall-clock field of the stream (`t_s`, `wall_s`, `eta_s`) is
//! redacted to zero, the same rule applied to `.host.json` side
//! channels. Record *order* between concurrent jobs may vary with
//! thread count — the stream is a side channel, not a comparison
//! artifact.
//!
//! ## Process-wide installation
//!
//! Binaries open one stream and [`install`] its handle; library layers
//! (the core runner) consult [`installed`] and attach an observer when
//! a stream is present, so the 18 experiment binaries need no
//! per-call-site plumbing.

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

use std::sync::Mutex;

/// Version stamped into every record's `"v"` field; bumped on
/// incompatible schema changes.
pub const LIVE_SCHEMA_VERSION: u64 = 1;

static INSTALLED: Mutex<Option<LiveHandle>> = Mutex::new(None);

/// Installs `handle` as the process-wide live stream consulted by
/// [`installed`]. Returns the previously installed handle, if any.
pub fn install(handle: LiveHandle) -> Option<LiveHandle> {
    INSTALLED
        .lock()
        .expect("live registry poisoned")
        .replace(handle)
}

/// The process-wide live stream, if one is installed.
#[must_use]
pub fn installed() -> Option<LiveHandle> {
    INSTALLED.lock().expect("live registry poisoned").clone()
}

/// Removes and returns the process-wide live stream.
pub fn uninstall() -> Option<LiveHandle> {
    INSTALLED.lock().expect("live registry poisoned").take()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn install_registry_round_trips() {
        // One test owns the global to avoid cross-test races.
        assert!(installed().is_none());
        let h = LiveHandle::memory(StreamConfig::default());
        assert!(install(h.clone()).is_none());
        let got = installed().expect("installed");
        got.emit(&LiveRecord::SweepStart {
            jobs: 1,
            budget_cycles: 0,
            t_s: 0.0,
        });
        assert!(uninstall().is_some());
        assert!(installed().is_none());
        h.close();
        assert_eq!(h.collected().unwrap().len(), 2);
    }
}
