//! A deliberately small HTTP/SSE server for live streams — the first
//! slice of the sweep-as-a-service API.
//!
//! Endpoints (one request per connection, parsed and answered by the
//! job API's [`http`](crate::http) request layer):
//!
//! * `GET /runs` — JSON array of the runs seen so far (`run` id,
//!   `workload`, record count, whether the run is still in flight).
//! * `GET /runs/<id>/stream` — Server-Sent Events: every record of run
//!   `<id>` already buffered is replayed as one `data:` event, then new
//!   records are pushed as they arrive; when the stream closes the
//!   server sends `event: end` and drops the connection. The pseudo-id
//!   `all` subscribes to the merged stream (every record, including
//!   sweep lifecycle events), which is what `watch <addr>` uses.
//!
//! The server keeps the full record history in memory, so late
//! subscribers see the whole stream. It runs on the shared
//! [`HttpServer`] acceptor, one thread per connection, so any number of
//! subscribers follow the stream at once. The [`LiveHandle`] that
//! opened it owns the listener.
//!
//! [`LiveHandle`]: crate::LiveHandle

use std::collections::BTreeMap;
use std::net::{SocketAddr, TcpStream};
use std::sync::{Arc, Mutex};

use gscalar_metrics::json::Json;

use crate::http::{respond, serve_request, stream_sse, Feed, HttpServer, Request};
use crate::stream::LineSink;

#[derive(Default)]
struct RunMeta {
    workload: String,
    records: u64,
    ended: bool,
}

/// What the server serves: every line pushed, in arrival order, plus
/// per-run bookkeeping for `GET /runs`. Fed by the stream's writer
/// thread as a [`LineSink`].
#[derive(Default)]
pub(crate) struct ServerShared {
    feed: Feed,
    /// Per-run bookkeeping, keyed by run id.
    runs: Mutex<BTreeMap<u64, RunMeta>>,
}

impl ServerShared {
    /// Binds `addr` and starts serving. Returns the shared state, the
    /// listener (whose shutdown stops the server), and the actual bound
    /// address.
    pub(crate) fn bind(
        addr: SocketAddr,
    ) -> std::io::Result<(Arc<ServerShared>, HttpServer, SocketAddr)> {
        let shared = Arc::new(ServerShared::default());
        let srv = Arc::clone(&shared);
        let (http, bound) = HttpServer::bind(
            addr,
            Arc::new(move |stream| {
                serve_request(stream, |req, stream| {
                    // Connection handling is best-effort: a broken
                    // client must not take the server down.
                    let _ = srv.handle(&req, stream);
                });
            }),
        )?;
        Ok((shared, http, bound))
    }

    fn handle(&self, req: &Request, mut stream: TcpStream) -> std::io::Result<()> {
        if req.method != "GET" {
            return respond(
                &mut stream,
                "400 Bad Request",
                "text/plain",
                "bad request\n",
            );
        }
        if req.path == "/runs" {
            let body = self.runs_json();
            return respond(&mut stream, "200 OK", "application/json", &body);
        }
        if let Some(id) = req
            .path
            .strip_prefix("/runs/")
            .and_then(|rest| rest.strip_suffix("/stream"))
        {
            let filter = match id {
                "all" => None,
                n => match n.parse::<u64>() {
                    Ok(v) => Some(v),
                    Err(_) => {
                        return respond(
                            &mut stream,
                            "404 Not Found",
                            "text/plain",
                            "unknown run id\n",
                        );
                    }
                },
            };
            return self.stream_sse(stream, filter);
        }
        respond(&mut stream, "404 Not Found", "text/plain", "not found\n")
    }

    fn runs_json(&self) -> String {
        let runs = self.runs.lock().expect("server runs poisoned");
        let closed = self.feed.is_closed();
        let runs: Vec<Json> = runs
            .iter()
            .map(|(id, meta)| {
                Json::obj([
                    ("run".to_string(), Json::Num(*id as f64)),
                    ("workload".to_string(), Json::Str(meta.workload.clone())),
                    ("records".to_string(), Json::Num(meta.records as f64)),
                    ("live".to_string(), Json::Bool(!meta.ended && !closed)),
                ])
            })
            .collect();
        format!("{}\n", Json::Arr(runs))
    }

    /// Replays buffered records for `filter` (None = all) as SSE, then
    /// follows the live stream until it closes or the client hangs up.
    fn stream_sse(&self, mut stream: TcpStream, filter: Option<u64>) -> std::io::Result<()> {
        stream_sse(
            &self.feed,
            &mut stream,
            "HTTP/1.1 200 OK\r\nContent-Type: text/event-stream\r\nCache-Control: no-cache\r\nConnection: close\r\n\r\n",
            |line| match filter {
                None => true,
                Some(id) => Json::parse(line)
                    .ok()
                    .and_then(|d| d.get("run").and_then(Json::as_f64))
                    .is_some_and(|r| r as u64 == id),
            },
        )
    }
}

impl LineSink for ServerShared {
    fn line(&self, line: &str) {
        // Buffer first: a `/runs` count never runs ahead of the lines a
        // subscriber can replay.
        self.feed.line(line);
        let Ok(doc) = Json::parse(line) else {
            return;
        };
        let Some(run) = doc.get("run").and_then(Json::as_f64) else {
            return;
        };
        let mut runs = self.runs.lock().expect("server runs poisoned");
        let meta = runs.entry(run as u64).or_default();
        meta.records += 1;
        match doc.get("type").and_then(Json::as_str).unwrap_or("") {
            "run_start" => {
                meta.workload = doc
                    .get("workload")
                    .and_then(Json::as_str)
                    .unwrap_or("")
                    .to_string();
            }
            "run_end" => meta.ended = true,
            _ => {}
        }
    }

    fn end(&self) {
        self.feed.end();
    }
}

#[cfg(test)]
mod tests {
    use crate::{LiveHandle, LiveRecord, StreamConfig};
    use std::io::{BufRead, BufReader, Write};
    use std::net::TcpStream;
    use std::time::Duration;

    /// Subscribes to the merged stream and reads until the first
    /// `data:` event, so the subscriber is known to be following.
    fn subscribe(addr: std::net::SocketAddr) -> BufReader<TcpStream> {
        let mut conn = TcpStream::connect(addr).expect("connect");
        conn.set_read_timeout(Some(Duration::from_secs(10)))
            .unwrap();
        write!(conn, "GET /runs/all/stream HTTP/1.0\r\n\r\n").unwrap();
        let mut reader = BufReader::new(conn);
        let mut line = String::new();
        while !line.starts_with("data: ") {
            line.clear();
            assert!(reader.read_line(&mut line).expect("replay") > 0);
        }
        reader
    }

    #[test]
    fn concurrent_subscribers_each_follow_the_stream() {
        let (handle, addr) = LiveHandle::serve(
            "127.0.0.1:0".parse().unwrap(),
            StreamConfig {
                deterministic: true,
                ..StreamConfig::default()
            },
        )
        .expect("bind");
        handle.emit(&LiveRecord::SweepStart {
            jobs: 1,
            budget_cycles: 0,
            t_s: 0.0,
        });
        // Both are connected and following before the next record.
        let subscribers = [subscribe(addr), subscribe(addr)];
        handle.emit(&LiveRecord::SweepEnd {
            done: 1,
            total: 1,
            failed: 0,
            wall_s: 0.0,
            t_s: 0.0,
        });
        handle.shutdown_server();
        for reader in subscribers {
            let rest: Vec<String> = reader.lines().map_while(Result::ok).collect();
            assert!(
                rest.iter().any(|l| l.contains("\"type\":\"sweep_end\"")),
                "{rest:?}"
            );
            assert!(rest.iter().any(|l| l == "event: end"), "{rest:?}");
        }
    }
}
