//! # gscalar-serve — the simulator as a persistent service
//!
//! Everything below `gscalar-sweep` already behaves like
//! infrastructure: deterministic job grids, fault isolation, atomic
//! manifests, resume-by-scan. This crate adds the long-running front
//! door — a zero-dependency HTTP/JSON job server that accepts grids
//! over the wire and never re-simulates what it has already computed.
//!
//! ## API
//!
//! | Endpoint | Meaning |
//! |---|---|
//! | `POST /jobs` | submit a grid ([`SubmitSpec`] body) → job id |
//! | `GET /jobs` | list submissions |
//! | `GET /jobs/<id>` | status + outcome counters |
//! | `GET /jobs/<id>/manifest` | merged grid manifest (byte-stable) |
//! | `GET /jobs/<id>/stream` | live NDJSON progress over SSE |
//! | `DELETE /jobs/<id>` | cancel (dequeue, or drain if running) |
//! | `GET /stats` | cache counters, job phase counts, job latency |
//! | `GET /healthz` | liveness |
//!
//! ## The three serving pillars
//!
//! * **Content-addressed result cache** ([`ResultCache`]) — every
//!   simulation job is keyed by what determines its output (config
//!   digest + kernel + scale + budget); entries are the job's own
//!   byte-deterministic manifest, written atomically, corrupt entries
//!   evicted on read. The dominant traffic pattern — resubmitting a
//!   known grid — becomes O(1) disk reads.
//! * **Admission control + fair scheduling** — a bounded queue (429 on
//!   overflow, 503 while draining) feeding a single scheduler that
//!   round-robins across clients, so one chatty client cannot starve
//!   the rest.
//! * **Graceful shutdown with resume** — SIGTERM/ctrl-c (see
//!   [`signal`]) drains: in-flight units finish and persist, the rest
//!   are skipped; a restarted server completes any grid from its
//!   on-disk manifests without re-running finished work.
//!
//! The executable lives in `gscalar-bench` (`serve` binary) so grid
//! building can resolve experiment names against the bench registry;
//! this crate stays registry-agnostic via the [`GridBuilder`] hook.

pub mod cache;
pub mod server;
pub mod signal;
pub mod spec;

pub use cache::{CacheCounters, ResultCache};
pub use server::{GridBuilder, JobServer, ServeConfig};
pub use spec::SubmitSpec;
