//! The HTTP layer both in-repo servers share: a threaded acceptor with
//! a wakeable shutdown, the line feeds SSE responses follow, and the
//! bounded HTTP/1.1 request parser and response writer that answer
//! every request of `gscalar-serve`'s job API and of the live SSE
//! server ([`crate::server`]).
//!
//! Nothing on a request path sleeps. The listener blocks in `accept`
//! and [`HttpServer::shutdown`] wakes it by connecting once; an SSE
//! responder blocks on its [`Feed`]'s condition variable until a line
//! arrives or the feed closes.
//!
//! Connections are `Connection: close` — one request, one response —
//! which keeps the protocol surface tiny and is plenty for a
//! submit/stream/fetch client.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::{Ipv4Addr, Ipv6Addr, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex, PoisonError};
use std::thread::JoinHandle;
use std::time::Duration;

use crate::stream::LineSink;

/// Pause after a failed `accept` (e.g. `EMFILE`), so a persistent error
/// cannot spin the acceptor.
const ACCEPT_BACKOFF: Duration = Duration::from_millis(10);

/// Largest request line plus header block [`read_request`] reads.
const MAX_HEAD_BYTES: u64 = 64 << 10;

/// Largest body [`read_request`] accepts: far above any job spec, and
/// small enough that a client's `Content-Length` cannot exhaust memory.
const MAX_BODY_BYTES: usize = 1 << 20;

/// One parsed HTTP request.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Request {
    /// Upper-case method (`GET`, `POST`, `DELETE`, ...).
    pub method: String,
    /// Request path including any query string.
    pub path: String,
    /// Decoded body (`Content-Length` bytes; empty when absent).
    pub body: String,
}

/// Reads one request from `reader`.
///
/// # Errors
///
/// Returns a message on a malformed request line, an unreadable
/// header block, a request line plus headers over 64 KiB, a declared
/// body over 1 MiB, or a short body.
pub fn read_request(reader: &mut impl BufRead) -> Result<Request, String> {
    let mut head = reader.take(MAX_HEAD_BYTES);
    // One line of the head; a line the cap cuts off is an error.
    let mut read_line = |line: &mut String| -> std::io::Result<usize> {
        let n = head.read_line(line)?;
        if head.limit() == 0 && !line.ends_with('\n') {
            return Err(std::io::Error::other(format!(
                "request head exceeds {MAX_HEAD_BYTES} bytes"
            )));
        }
        Ok(n)
    };
    let mut request_line = String::new();
    read_line(&mut request_line).map_err(|e| format!("reading request line: {e}"))?;
    let mut parts = request_line.split_whitespace();
    let (method, path) = match (parts.next(), parts.next()) {
        (Some(m), Some(p)) => (m.to_uppercase(), p.to_string()),
        _ => return Err(format!("malformed request line {request_line:?}")),
    };
    let mut content_length = 0usize;
    loop {
        let mut line = String::new();
        match read_line(&mut line) {
            Ok(0) => break,
            Ok(_) if line == "\r\n" || line == "\n" => break,
            Ok(_) => {
                if let Some((name, value)) = line.split_once(':') {
                    if name.trim().eq_ignore_ascii_case("content-length") {
                        content_length = value
                            .trim()
                            .parse()
                            .map_err(|e| format!("bad content-length: {e}"))?;
                    }
                }
            }
            Err(e) => return Err(format!("reading headers: {e}")),
        }
    }
    if content_length > MAX_BODY_BYTES {
        return Err(format!(
            "{content_length}-byte body exceeds {MAX_BODY_BYTES} bytes"
        ));
    }
    let mut body = vec![0u8; content_length];
    if content_length > 0 {
        reader
            .read_exact(&mut body)
            .map_err(|e| format!("reading {content_length}-byte body: {e}"))?;
    }
    Ok(Request {
        method,
        path,
        body: String::from_utf8_lossy(&body).into_owned(),
    })
}

/// Writes one complete `Connection: close` response.
///
/// # Errors
///
/// Returns the underlying I/O error (the caller treats a broken client
/// as best-effort).
pub fn respond(
    stream: &mut TcpStream,
    status: &str,
    content_type: &str,
    body: &str,
) -> std::io::Result<()> {
    let head = format!(
        "HTTP/1.1 {status}\r\nContent-Type: {content_type}\r\nContent-Length: {}\r\nConnection: close\r\n\r\n",
        body.len()
    );
    stream.write_all(head.as_bytes())?;
    stream.write_all(body.as_bytes())?;
    stream.flush()
}

/// Reads one request from a fresh connection and passes it to
/// `handle`, which then owns the socket (long-lived SSE responses
/// included). A request that fails to parse is answered with 400.
pub fn serve_request(stream: TcpStream, handle: impl FnOnce(Request, TcpStream)) {
    // A stuck client must not pin a connection thread forever while
    // *sending* its request; streaming responses manage their own
    // pacing afterwards.
    let _ = stream.set_read_timeout(Some(Duration::from_secs(10)));
    let Ok(clone) = stream.try_clone() else {
        return;
    };
    match read_request(&mut BufReader::new(clone)) {
        Ok(req) => handle(req, stream),
        Err(msg) => {
            let mut stream = stream;
            let _ = respond(
                &mut stream,
                "400 Bad Request",
                "text/plain",
                &format!("{msg}\n"),
            );
        }
    }
}

/// The per-connection handler: runs on the connection's own thread and
/// owns the socket for the connection's lifetime.
pub type Handler = Arc<dyn Fn(TcpStream) + Send + Sync>;

/// A listening server: one acceptor thread, one thread per connection
/// (so a parked SSE subscriber never blocks the acceptor), and a
/// shutdown that closes the listener.
pub struct HttpServer {
    shutdown: Arc<AtomicBool>,
    /// Where [`shutdown`](HttpServer::shutdown) connects to wake the
    /// acceptor: the bound address, or loopback for a wildcard bind.
    wake: SocketAddr,
    acceptor: Mutex<Option<JoinHandle<()>>>,
}

impl HttpServer {
    /// Binds `addr`, spawns the acceptor, and returns the server plus
    /// the actual bound address (useful with port 0). Each accepted
    /// connection is handed to `handler` on its own thread.
    ///
    /// # Errors
    ///
    /// Returns the I/O error when the listener cannot bind.
    pub fn bind(addr: SocketAddr, handler: Handler) -> std::io::Result<(HttpServer, SocketAddr)> {
        let listener = TcpListener::bind(addr)?;
        let bound = listener.local_addr()?;
        let shutdown = Arc::new(AtomicBool::new(false));
        let flag = Arc::clone(&shutdown);
        let acceptor = std::thread::spawn(move || loop {
            let accepted = listener.accept();
            if flag.load(Ordering::SeqCst) {
                // Whatever woke us (normally `shutdown`'s own connect)
                // is dropped unanswered. Returning drops the listener,
                // which frees the port; connection threads already
                // running finish on their own.
                return;
            }
            match accepted {
                Ok((stream, _)) => {
                    let handler = Arc::clone(&handler);
                    std::thread::spawn(move || handler(stream));
                }
                Err(_) => std::thread::sleep(ACCEPT_BACKOFF),
            }
        });
        let mut wake = bound;
        if wake.ip().is_unspecified() {
            wake.set_ip(match wake {
                SocketAddr::V4(_) => Ipv4Addr::LOCALHOST.into(),
                SocketAddr::V6(_) => Ipv6Addr::LOCALHOST.into(),
            });
        }
        Ok((
            HttpServer {
                shutdown,
                wake,
                acceptor: Mutex::new(Some(acceptor)),
            },
            bound,
        ))
    }

    /// Stops accepting connections and joins the acceptor, closing the
    /// listener: sets the flag, then connects once to wake the blocked
    /// `accept`. Idempotent.
    pub fn shutdown(&self) {
        // A poisoned lock still holds a valid `Option`; recovering it
        // keeps this callable from `Drop`.
        let acceptor = self
            .acceptor
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .take();
        let Some(acceptor) = acceptor else {
            return;
        };
        self.shutdown.store(true, Ordering::SeqCst);
        // A refused connect means the listener is already gone; the
        // join then returns at once.
        let _ = TcpStream::connect(self.wake);
        let _ = acceptor.join();
    }
}

impl Drop for HttpServer {
    fn drop(&mut self) {
        self.shutdown();
    }
}

#[derive(Default)]
struct FeedState {
    lines: Vec<String>,
    closed: bool,
}

/// An append-only buffer of NDJSON record lines that SSE subscribers
/// replay and then follow. Subscribers block until a line past their
/// position arrives or the feed closes; every change wakes them.
///
/// As a [`LineSink`], a feed receives a live stream's lines and closes
/// after its terminal `stream_end` record.
#[derive(Default)]
pub struct Feed {
    state: Mutex<FeedState>,
    changed: Condvar,
}

impl Feed {
    fn update(&self, f: impl FnOnce(&mut FeedState)) {
        f(&mut self.state.lock().expect("feed poisoned"));
        self.changed.notify_all();
    }

    /// Appends `last` and closes the feed in one step, so no subscriber
    /// can see the feed closed without it. No-op on a closed feed.
    pub fn close_with(&self, last: &str) {
        self.update(|st| {
            if !st.closed {
                st.lines.push(last.to_string());
                st.closed = true;
            }
        });
    }

    /// Whether the feed has closed.
    #[must_use]
    pub(crate) fn is_closed(&self) -> bool {
        self.state.lock().expect("feed poisoned").closed
    }

    /// Blocks until the feed holds lines past `from` or has closed, then
    /// returns the lines from `from` onward and whether it has closed.
    /// A closed feed's batch holds every line it will ever have.
    #[must_use]
    pub fn wait_from(&self, from: usize) -> (Vec<String>, bool) {
        let mut st = self.state.lock().expect("feed poisoned");
        while st.lines.len() <= from && !st.closed {
            st = self.changed.wait(st).expect("feed poisoned");
        }
        (st.lines[from.min(st.lines.len())..].to_vec(), st.closed)
    }
}

impl LineSink for Feed {
    fn line(&self, line: &str) {
        self.update(|st| st.lines.push(line.to_string()));
    }
    fn end(&self) {
        self.update(|st| st.closed = true);
    }
}

/// Writes the response `head`, replays `feed` as SSE `data:` events
/// (only lines `keep` accepts), follows it until it closes, and ends
/// with `event: end`.
///
/// # Errors
///
/// Returns the I/O error once the client hangs up.
pub fn stream_sse(
    feed: &Feed,
    stream: &mut TcpStream,
    head: &str,
    keep: impl Fn(&str) -> bool,
) -> std::io::Result<()> {
    stream.write_all(head.as_bytes())?;
    let mut sent = 0usize;
    loop {
        let (batch, closed) = feed.wait_from(sent);
        sent += batch.len();
        for line in batch.iter().filter(|l| keep(l)) {
            stream.write_all(format!("data: {line}\n\n").as_bytes())?;
        }
        if closed {
            stream.write_all(b"event: end\ndata: {}\n\n")?;
            return stream.flush();
        }
        stream.flush()?;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Cursor;
    use std::time::Instant;

    #[test]
    fn parses_request_with_body() {
        let raw = "POST /jobs HTTP/1.1\r\nHost: x\r\nContent-Length: 11\r\n\r\nhello world";
        let req = read_request(&mut Cursor::new(raw)).unwrap();
        assert_eq!(req.method, "POST");
        assert_eq!(req.path, "/jobs");
        assert_eq!(req.body, "hello world");
    }

    #[test]
    fn parses_bodyless_request_and_case_insensitive_headers() {
        let raw = "get /stats HTTP/1.1\r\ncontent-length: 0\r\n\r\n";
        let req = read_request(&mut Cursor::new(raw)).unwrap();
        assert_eq!(req.method, "GET");
        assert_eq!(req.body, "");
    }

    #[test]
    fn rejects_garbage_and_short_bodies() {
        assert!(read_request(&mut Cursor::new("\r\n")).is_err());
        assert!(read_request(&mut Cursor::new("PUT\r\n\r\n")).is_err());
        let short = "POST / HTTP/1.1\r\nContent-Length: 10\r\n\r\nabc";
        assert!(read_request(&mut Cursor::new(short)).is_err());
        let bad_len = "POST / HTTP/1.1\r\nContent-Length: lots\r\n\r\n";
        assert!(read_request(&mut Cursor::new(bad_len)).is_err());
    }

    #[test]
    fn rejects_a_huge_declared_body_without_allocating_it() {
        // 64 TiB: allocating it up front aborts the process.
        let raw = "POST /jobs HTTP/1.1\r\nContent-Length: 70368744177664\r\n\r\n{}";
        let err = read_request(&mut Cursor::new(raw)).unwrap_err();
        assert!(err.contains("exceeds"), "{err}");
    }

    #[test]
    fn rejects_an_oversize_head() {
        let filler = format!("X-Filler: {}\r\n", "a".repeat(1000));
        let raw = format!(
            "GET /stats HTTP/1.1\r\n{}\r\n",
            filler.repeat(MAX_HEAD_BYTES as usize / filler.len() + 1)
        );
        let err = read_request(&mut Cursor::new(raw)).unwrap_err();
        assert!(err.contains("exceeds"), "{err}");
        // One unterminated line past the cap fails the same way.
        let long_line = format!("GET /{}", "a".repeat(MAX_HEAD_BYTES as usize));
        assert!(read_request(&mut Cursor::new(long_line)).is_err());
    }

    #[test]
    fn parses_a_body_exactly_at_the_cap() {
        let body = "b".repeat(MAX_BODY_BYTES);
        let raw = format!("POST /jobs HTTP/1.1\r\nContent-Length: {MAX_BODY_BYTES}\r\n\r\n{body}");
        let req = read_request(&mut Cursor::new(raw)).unwrap();
        assert_eq!(req.body, body);
    }

    fn echo() -> Handler {
        Arc::new(|stream| {
            serve_request(stream, |req, mut stream| {
                let body = format!("{} {} [{}]\n", req.method, req.path, req.body);
                let _ = respond(&mut stream, "200 OK", "text/plain", &body);
            });
        })
    }

    fn round_trip(addr: SocketAddr) -> String {
        let mut conn = TcpStream::connect(addr).unwrap();
        conn.set_read_timeout(Some(Duration::from_secs(10)))
            .unwrap();
        write!(conn, "POST /echo HTTP/1.1\r\nContent-Length: 2\r\n\r\nok").unwrap();
        let mut body = String::new();
        std::io::Read::read_to_string(&mut conn, &mut body).unwrap();
        body
    }

    #[test]
    fn server_round_trips_and_shuts_down() {
        let (srv, addr) = HttpServer::bind("127.0.0.1:0".parse().unwrap(), echo()).unwrap();
        let body = round_trip(addr);
        assert!(body.contains("POST /echo [ok]"), "{body}");
        srv.shutdown();
        // After shutdown the listener is gone: connects are refused
        // (or drained off the backlog and closed without a response).
        let deadline = std::time::Instant::now() + Duration::from_secs(5);
        loop {
            let dead = match TcpStream::connect(addr) {
                Err(_) => true,
                Ok(mut c) => {
                    c.set_read_timeout(Some(Duration::from_millis(500)))
                        .unwrap();
                    let _ = write!(c, "GET / HTTP/1.1\r\n\r\n");
                    let mut buf = String::new();
                    matches!(
                        std::io::Read::read_to_string(&mut c, &mut buf),
                        Ok(0) | Err(_)
                    )
                }
            };
            if dead {
                break;
            }
            assert!(
                std::time::Instant::now() < deadline,
                "listener alive after shutdown"
            );
            std::thread::sleep(Duration::from_millis(25));
        }
    }

    #[test]
    fn fresh_connections_are_accepted_without_waiting() {
        // The bound sits below what an acceptor polling every 25 ms
        // needs (~500 ms), so it fails if accept waits on a timer.
        let (_srv, addr) = HttpServer::bind("127.0.0.1:0".parse().unwrap(), echo()).unwrap();
        let start = Instant::now();
        for _ in 0..20 {
            assert!(round_trip(addr).contains("[ok]"));
        }
        let took = start.elapsed();
        assert!(
            took < Duration::from_millis(400),
            "20 round trips: {took:?}"
        );
    }

    #[test]
    fn wildcard_bind_wakes_through_loopback_on_shutdown() {
        let (srv, bound) = HttpServer::bind("0.0.0.0:0".parse().unwrap(), echo()).unwrap();
        let local = SocketAddr::from((Ipv4Addr::LOCALHOST, bound.port()));
        assert!(round_trip(local).contains("[ok]"));
        let start = Instant::now();
        srv.shutdown();
        let took = start.elapsed();
        assert!(took < Duration::from_secs(5), "shutdown took {took:?}");
        // The acceptor has been joined, so the listener is closed.
        assert!(TcpStream::connect(local).is_err(), "port still open");
    }
}
