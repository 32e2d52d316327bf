//! The bounded, non-blocking telemetry stream behind [`LiveHandle`].
//!
//! Emitters (simulation observers, the sweep engine) serialize records
//! and push the lines into a bounded in-memory queue; a background
//! writer thread drains the queue into the sink (NDJSON file, in-memory
//! vector, or the SSE server). The hot path therefore never blocks on
//! I/O: when the queue is full the line is **dropped** and a drop
//! counter incremented — the terminal [`StreamEnd`](LiveRecord)
//! record reports how many lines were lost.

use std::collections::VecDeque;
use std::fs::File;
use std::io::{BufWriter, Write};
use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::Instant;

use crate::http::HttpServer;
use crate::record::LiveRecord;
use crate::server::ServerShared;

/// Configuration of a live stream.
#[derive(Debug, Clone)]
pub struct StreamConfig {
    /// Redact wall-clock fields (`t_s`, `wall_s`, `eta_s`) to zero, the
    /// same contract `--deterministic` applies to manifests.
    pub deterministic: bool,
    /// Snapshot cadence in simulated cycles for run observers.
    pub snapshot_interval: u64,
    /// Bounded queue capacity in lines; excess lines are dropped.
    pub capacity: usize,
}

/// Default snapshot cadence: one sample every 4096 simulated cycles.
pub const DEFAULT_SNAPSHOT_INTERVAL: u64 = 4096;

impl Default for StreamConfig {
    fn default() -> Self {
        StreamConfig {
            deterministic: false,
            snapshot_interval: DEFAULT_SNAPSHOT_INTERVAL,
            capacity: 4096,
        }
    }
}

/// A pluggable destination for drained stream lines, for embedders
/// that fan records out to their own transport (e.g. a job server
/// replaying per-job progress to HTTP subscribers). Both methods are
/// called from the stream's writer thread, never the emitting thread,
/// so implementations may take locks freely but must not block for
/// long — the queue is bounded and drops under back-pressure.
pub trait LineSink: Send + Sync {
    /// Receives one NDJSON record line (without the trailing newline).
    fn line(&self, line: &str);
    /// Called exactly once, after the terminal `stream_end` line has
    /// been delivered via [`line`](LineSink::line).
    fn end(&self);
}

/// Where drained lines go.
enum Sink {
    File(BufWriter<File>),
    Memory(Arc<Mutex<Vec<String>>>),
    Shared(Arc<dyn LineSink>),
}

impl Sink {
    fn write_line(&mut self, line: &str) {
        match self {
            Sink::File(w) => {
                // A failed write must never take the simulation down;
                // the stream is advisory. Errors surface as a short
                // file, which `watch check` flags.
                let _ = writeln!(w, "{line}");
            }
            Sink::Memory(v) => v
                .lock()
                .expect("memory sink poisoned")
                .push(line.to_string()),
            Sink::Shared(s) => s.line(line),
        }
    }

    fn flush(&mut self) {
        match self {
            Sink::File(w) => {
                let _ = w.flush();
            }
            Sink::Memory(_) => {}
            Sink::Shared(s) => s.end(),
        }
    }
}

struct QueueState {
    queue: VecDeque<String>,
    /// Lines handed to the writer thread (excludes drops).
    emitted: u64,
    dropped: u64,
    closed: bool,
}

impl QueueState {
    /// Enqueues `line`, dropping it when the queue holds `capacity`
    /// lines already. Returns whether the line was accepted.
    fn push_line(&mut self, capacity: usize, line: String) -> bool {
        if self.queue.len() >= capacity {
            self.dropped += 1;
            return false;
        }
        self.queue.push_back(line);
        self.emitted += 1;
        true
    }
}

struct Inner {
    state: Mutex<QueueState>,
    cv: Condvar,
    cfg: StreamConfig,
    opened: Instant,
    next_run: AtomicU64,
    writer: Mutex<Option<JoinHandle<()>>>,
    memory: Option<Arc<Mutex<Vec<String>>>>,
    /// The SSE listener of a [`serve`](LiveHandle::serve) stream.
    server: Option<HttpServer>,
}

/// A cloneable handle onto one live telemetry stream.
///
/// All clones share the same queue, sink, and run-id counter; any clone
/// may emit from any thread. [`close`](LiveHandle::close) (idempotent)
/// flushes the queue, appends the terminal `stream_end` record, and
/// joins the writer thread.
///
/// # Examples
///
/// ```
/// use gscalar_live::{LiveHandle, LiveRecord, StreamConfig};
///
/// let h = LiveHandle::memory(StreamConfig {
///     deterministic: true,
///     ..StreamConfig::default()
/// });
/// h.emit(&LiveRecord::SweepStart { jobs: 2, budget_cycles: 0, t_s: h.now_s() });
/// h.close();
/// let lines = h.collected().unwrap();
/// assert_eq!(lines.len(), 2); // sweep_start + stream_end
/// assert!(lines[0].contains("\"type\":\"sweep_start\""));
/// assert!(lines[1].contains("\"type\":\"stream_end\""));
/// ```
#[derive(Clone)]
pub struct LiveHandle {
    inner: Arc<Inner>,
}

impl std::fmt::Debug for LiveHandle {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let st = self.inner.state.lock().expect("live state poisoned");
        f.debug_struct("LiveHandle")
            .field("deterministic", &self.inner.cfg.deterministic)
            .field("emitted", &st.emitted)
            .field("dropped", &st.dropped)
            .field("closed", &st.closed)
            .finish()
    }
}

impl LiveHandle {
    fn start(cfg: StreamConfig, mut sink: Sink, server: Option<HttpServer>) -> LiveHandle {
        let memory = match &sink {
            Sink::Memory(v) => Some(Arc::clone(v)),
            _ => None,
        };
        let inner = Arc::new(Inner {
            state: Mutex::new(QueueState {
                queue: VecDeque::new(),
                emitted: 0,
                dropped: 0,
                closed: false,
            }),
            cv: Condvar::new(),
            cfg,
            opened: Instant::now(),
            next_run: AtomicU64::new(1),
            writer: Mutex::new(None),
            memory,
            server,
        });
        let drain = Arc::clone(&inner);
        let handle = std::thread::spawn(move || loop {
            let (batch, end) = {
                let mut st = drain.state.lock().expect("live state poisoned");
                while st.queue.is_empty() && !st.closed {
                    st = drain.cv.wait(st).expect("live state poisoned");
                }
                let batch: Vec<String> = st.queue.drain(..).collect();
                let end = if st.closed {
                    Some((st.emitted, st.dropped))
                } else {
                    None
                };
                (batch, end)
            };
            for line in &batch {
                sink.write_line(line);
            }
            if let Some((records, dropped)) = end {
                let t_s = if drain.cfg.deterministic {
                    0.0
                } else {
                    drain.opened.elapsed().as_secs_f64()
                };
                let terminal = LiveRecord::StreamEnd {
                    records,
                    dropped,
                    t_s,
                };
                sink.write_line(&terminal.to_json_line());
                sink.flush();
                return;
            }
        });
        *inner.writer.lock().expect("live writer poisoned") = Some(handle);
        LiveHandle { inner }
    }

    /// Opens a stream writing NDJSON lines to `path` (truncating any
    /// existing file so a stream is always one self-contained session).
    ///
    /// # Errors
    ///
    /// Returns the I/O error when the file cannot be created.
    pub fn file(path: &Path, cfg: StreamConfig) -> std::io::Result<LiveHandle> {
        if let Some(dir) = path.parent().filter(|d| !d.as_os_str().is_empty()) {
            std::fs::create_dir_all(dir)?;
        }
        let f = File::create(path)?;
        Ok(LiveHandle::start(cfg, Sink::File(BufWriter::new(f)), None))
    }

    /// Opens a stream collecting lines in memory (for tests).
    #[must_use]
    pub fn memory(cfg: StreamConfig) -> LiveHandle {
        LiveHandle::start(cfg, Sink::Memory(Arc::new(Mutex::new(Vec::new()))), None)
    }

    /// Opens a stream served over HTTP/SSE on `addr` (see
    /// [`server`](crate::server) for the endpoints). Returns the handle
    /// and the actual bound address (useful with port 0). The listener
    /// stays open until [`shutdown_server`](LiveHandle::shutdown_server),
    /// or until the stream is closed and its last handle dropped.
    ///
    /// # Errors
    ///
    /// Returns the I/O error when the listener cannot bind.
    pub fn serve(addr: SocketAddr, cfg: StreamConfig) -> std::io::Result<(LiveHandle, SocketAddr)> {
        let (shared, http, bound) = ServerShared::bind(addr)?;
        let handle = LiveHandle::start(cfg, Sink::Shared(shared), Some(http));
        Ok((handle, bound))
    }

    /// Opens a stream forwarding every drained line to a caller-
    /// supplied [`LineSink`]. The sink receives lines from the writer
    /// thread in emission order, ending with the terminal `stream_end`
    /// line followed by one [`end`](LineSink::end) call.
    #[must_use]
    pub fn to_sink(cfg: StreamConfig, sink: Arc<dyn LineSink>) -> LiveHandle {
        LiveHandle::start(cfg, Sink::Shared(sink), None)
    }

    /// Serializes and enqueues `rec`. Never blocks: when the bounded
    /// queue is full the record is dropped and counted.
    pub fn emit(&self, rec: &LiveRecord) {
        let line = rec.to_json_line();
        let mut st = self.inner.state.lock().expect("live state poisoned");
        if st.closed {
            return;
        }
        if !st.push_line(self.inner.cfg.capacity, line) {
            return;
        }
        drop(st);
        self.inner.cv.notify_one();
    }

    /// Allocates the next stream-unique run id.
    #[must_use]
    pub fn next_run_id(&self) -> u64 {
        self.inner.next_run.fetch_add(1, Ordering::Relaxed)
    }

    /// Seconds since the stream opened — or `0.0` in deterministic
    /// mode, redacting wall clocks from every record built with it.
    #[must_use]
    pub fn now_s(&self) -> f64 {
        if self.inner.cfg.deterministic {
            0.0
        } else {
            self.inner.opened.elapsed().as_secs_f64()
        }
    }

    /// Passes `seconds` through, or `0.0` in deterministic mode. Used
    /// for wall-derived fields (`wall_s`, `eta_s`) computed elsewhere.
    #[must_use]
    pub fn redact(&self, seconds: f64) -> f64 {
        if self.inner.cfg.deterministic {
            0.0
        } else {
            seconds
        }
    }

    /// Whether wall-clock fields are redacted.
    #[must_use]
    pub fn deterministic(&self) -> bool {
        self.inner.cfg.deterministic
    }

    /// Snapshot cadence (simulated cycles) run observers should use.
    #[must_use]
    pub fn snapshot_interval(&self) -> u64 {
        self.inner.cfg.snapshot_interval.max(1)
    }

    /// Records dropped so far because the queue was full.
    #[must_use]
    pub fn dropped(&self) -> u64 {
        self.inner
            .state
            .lock()
            .expect("live state poisoned")
            .dropped
    }

    /// Closes the stream: drains the queue, writes the terminal
    /// `stream_end` record, flushes the sink, and joins the writer
    /// thread. Idempotent; later [`emit`](LiveHandle::emit)s are
    /// silently ignored.
    pub fn close(&self) {
        {
            let mut st = self.inner.state.lock().expect("live state poisoned");
            if st.closed {
                return;
            }
            st.closed = true;
        }
        self.inner.cv.notify_all();
        let handle = self
            .inner
            .writer
            .lock()
            .expect("live writer poisoned")
            .take();
        if let Some(h) = handle {
            let _ = h.join();
        }
    }

    /// Shuts a [`serve`](LiveHandle::serve) stream all the way down:
    /// closes the stream (draining the queue and buffering the
    /// terminal `stream_end` record, so open SSE streams end with it
    /// and the `end` event), then closes the listener and joins its
    /// acceptor, freeing the port. No-op beyond
    /// [`close`](LiveHandle::close) for non-server sinks. Unlike
    /// `close`, which leaves the server answering late subscribers
    /// with the full history, this is the graceful-exit path.
    pub fn shutdown_server(&self) {
        self.close();
        if let Some(s) = &self.inner.server {
            s.shutdown();
        }
    }

    /// The lines collected so far by a [`memory`](LiveHandle::memory)
    /// sink (`None` for file/server sinks). Call after
    /// [`close`](LiveHandle::close) for the complete stream.
    #[must_use]
    pub fn collected(&self) -> Option<Vec<String>> {
        self.inner
            .memory
            .as_ref()
            .map(|v| v.lock().expect("memory sink poisoned").clone())
    }
}

/// Opens a stream on a CLI `--live` target: a parseable socket address
/// (e.g. `127.0.0.1:8080`) starts the SSE server, anything else is
/// treated as an NDJSON file path.
///
/// # Errors
///
/// Returns a human-readable message when the file or listener cannot
/// be opened.
pub fn open_target(target: &str, cfg: StreamConfig) -> Result<LiveHandle, String> {
    if let Ok(addr) = target.parse::<SocketAddr>() {
        let (handle, bound) = LiveHandle::serve(addr, cfg)
            .map_err(|e| format!("--live: cannot serve on {addr}: {e}"))?;
        eprintln!("live: serving SSE on http://{bound}/runs/all/stream");
        Ok(handle)
    } else {
        LiveHandle::file(&PathBuf::from(target), cfg)
            .map_err(|e| format!("--live: cannot open {target}: {e}"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn det_cfg() -> StreamConfig {
        StreamConfig {
            deterministic: true,
            ..StreamConfig::default()
        }
    }

    #[test]
    fn memory_stream_preserves_order_and_appends_terminal() {
        let h = LiveHandle::memory(det_cfg());
        for i in 0..10 {
            h.emit(&LiveRecord::JobStart {
                job: format!("j{i}"),
                budget: 0,
                t_s: h.now_s(),
            });
        }
        h.close();
        let lines = h.collected().unwrap();
        assert_eq!(lines.len(), 11);
        for (i, line) in lines[..10].iter().enumerate() {
            match LiveRecord::parse(line).unwrap() {
                LiveRecord::JobStart { job, t_s, .. } => {
                    assert_eq!(job, format!("j{i}"));
                    assert_eq!(t_s, 0.0, "deterministic stream leaks wall clock");
                }
                other => panic!("unexpected {other:?}"),
            }
        }
        match LiveRecord::parse(&lines[10]).unwrap() {
            LiveRecord::StreamEnd {
                records, dropped, ..
            } => {
                assert_eq!(records, 10);
                assert_eq!(dropped, 0);
            }
            other => panic!("unexpected terminal {other:?}"),
        }
    }

    #[test]
    fn full_queue_drops_instead_of_blocking() {
        // Stall the writer by holding the state lock, so the queue
        // genuinely fills; `push_line` is exactly what `emit` runs
        // under that same lock.
        let h = LiveHandle::memory(StreamConfig {
            capacity: 2,
            ..det_cfg()
        });
        {
            let mut st = h.inner.state.lock().unwrap();
            let accepted: Vec<bool> = (0..5).map(|i| st.push_line(2, format!("l{i}"))).collect();
            assert_eq!(accepted, [true, true, false, false, false]);
            assert_eq!(st.dropped, 3);
            assert_eq!(st.emitted, 2);
        }
        h.close();
        // The terminal record reports the drops.
        let lines = h.collected().unwrap();
        let last = lines.last().unwrap();
        match LiveRecord::parse(last).unwrap() {
            LiveRecord::StreamEnd { dropped, .. } => assert_eq!(dropped, 3),
            other => panic!("unexpected terminal {other:?}"),
        }
    }

    #[test]
    fn close_is_idempotent_and_emits_after_close_are_ignored() {
        let h = LiveHandle::memory(det_cfg());
        h.close();
        h.close();
        h.emit(&LiveRecord::SweepEnd {
            done: 0,
            total: 0,
            failed: 0,
            wall_s: 0.0,
            t_s: 0.0,
        });
        let lines = h.collected().unwrap();
        assert_eq!(lines.len(), 1, "only the terminal record: {lines:?}");
    }

    #[test]
    fn run_ids_are_unique_across_clones() {
        let h = LiveHandle::memory(det_cfg());
        let h2 = h.clone();
        let a = h.next_run_id();
        let b = h2.next_run_id();
        assert_ne!(a, b);
        h.close();
    }

    #[test]
    fn file_sink_writes_ndjson() {
        let path = std::env::temp_dir().join("gscalar-live-file-sink.ndjson");
        let h = LiveHandle::file(&path, det_cfg()).unwrap();
        h.emit(&LiveRecord::SweepStart {
            jobs: 1,
            budget_cycles: 0,
            t_s: 0.0,
        });
        h.close();
        let text = std::fs::read_to_string(&path).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 2);
        assert!(LiveRecord::parse(lines[0]).is_ok());
        assert!(lines[1].contains("stream_end"));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn shared_sink_receives_lines_then_one_end() {
        #[derive(Default)]
        struct Probe {
            lines: Mutex<Vec<String>>,
            ends: AtomicU64,
        }
        impl LineSink for Probe {
            fn line(&self, line: &str) {
                self.lines.lock().unwrap().push(line.to_string());
            }
            fn end(&self) {
                self.ends.fetch_add(1, Ordering::SeqCst);
            }
        }
        let probe = Arc::new(Probe::default());
        let h = LiveHandle::to_sink(det_cfg(), probe.clone());
        h.emit(&LiveRecord::SweepStart {
            jobs: 1,
            budget_cycles: 0,
            t_s: 0.0,
        });
        h.close();
        h.close();
        let lines = probe.lines.lock().unwrap().clone();
        assert_eq!(lines.len(), 2, "{lines:?}");
        assert!(lines[0].contains("\"type\":\"sweep_start\""));
        assert!(lines[1].contains("\"type\":\"stream_end\""));
        assert_eq!(probe.ends.load(Ordering::SeqCst), 1);
    }

    #[test]
    fn open_target_treats_non_addresses_as_paths() {
        let path = std::env::temp_dir().join("gscalar-live-open-target.ndjson");
        let h = open_target(path.to_str().unwrap(), det_cfg()).unwrap();
        h.close();
        assert!(path.exists());
        std::fs::remove_file(&path).ok();
    }
}
