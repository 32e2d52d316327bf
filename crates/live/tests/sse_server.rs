//! End-to-end exercise of the SSE sink: bind an ephemeral port, emit
//! records, and speak raw HTTP from a client socket — both endpoints.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::time::Duration;

use gscalar_live::{Dashboard, LiveHandle, LiveRecord, StreamConfig};

fn det_cfg() -> StreamConfig {
    StreamConfig {
        deterministic: true,
        ..StreamConfig::default()
    }
}

fn get(addr: std::net::SocketAddr, path: &str) -> String {
    let mut conn = TcpStream::connect(addr).expect("connect");
    conn.set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    write!(conn, "GET {path} HTTP/1.0\r\nHost: test\r\n\r\n").unwrap();
    let mut body = String::new();
    // The server closes the connection at end of response, so read to
    // EOF is well-defined for both JSON and (closed-stream) SSE.
    conn.read_to_string(&mut body).expect("read response");
    body
}

/// Waits until the server has buffered `n` lines (the writer thread is
/// asynchronous), then returns.
fn await_drain(handle: &LiveHandle, addr: std::net::SocketAddr, n: usize) {
    for _ in 0..400 {
        let body = get(addr, "/runs");
        if body.lines().next().is_some() && handle.dropped() == 0 {
            // /runs only counts per-run records; poll the merged count
            // via a cheap heuristic: records fields sum.
            let total: u64 = body
                .match_indices("\"records\":")
                .map(|(i, _)| {
                    body[i + 10..]
                        .chars()
                        .take_while(char::is_ascii_digit)
                        .collect::<String>()
                        .parse::<u64>()
                        .unwrap_or(0)
                })
                .sum();
            if total >= n as u64 {
                return;
            }
        }
        std::thread::sleep(Duration::from_millis(10));
    }
    panic!("server never buffered {n} records");
}

#[test]
fn serves_run_list_and_sse_stream() {
    let (handle, addr) =
        LiveHandle::serve("127.0.0.1:0".parse().unwrap(), det_cfg()).expect("bind");
    handle.emit(&LiveRecord::RunStart {
        run: 1,
        workload: "backprop".into(),
        arch: "G-Scalar".into(),
        sms: 4,
        t_s: 0.0,
    });
    handle.emit(&LiveRecord::Snapshot {
        run: 1,
        cycle: 4096,
        ipc: 8.0,
        issued: 100,
        warp_instrs: 90,
        scalar_rate: 0.2,
        compression_ratio: 1.4,
        mshr_mean: 1.0,
        mshr_max: 2,
        per_sm_ipc: vec![0.5; 4],
        stalls: [("mem".to_string(), 10u64)].into_iter().collect(),
        pool: (0, 0, 0),
        t_s: 0.0,
    });
    handle.emit(&LiveRecord::RunEnd {
        run: 1,
        cycle: 9000,
        ipc: 9.0,
        warp_instrs: 200,
        t_s: 0.0,
    });
    await_drain(&handle, addr, 3);

    // GET /runs lists the run with its workload.
    let body = get(addr, "/runs");
    let json = body.lines().last().expect("json body");
    assert!(json.contains("\"run\":1"), "{body}");
    assert!(json.contains("\"workload\":\"backprop\""), "{body}");
    assert!(json.contains("\"records\":3"), "{body}");

    // Unknown paths 404.
    assert!(get(addr, "/nope").starts_with("HTTP/1.1 404"));
    assert!(get(addr, "/runs/xyz/stream").starts_with("HTTP/1.1 404"));

    // Close the stream, then subscribe: full history replays and the
    // end event terminates the connection.
    handle.close();
    let sse = get(addr, "/runs/all/stream");
    assert!(sse.contains("Content-Type: text/event-stream"), "{sse}");
    let mut dash = Dashboard::new();
    let mut data_lines = 0;
    for line in sse.lines() {
        if let Some(payload) = line.strip_prefix("data: ") {
            if payload == "{}" {
                continue; // the end event's payload
            }
            dash.feed_line(payload).expect(payload);
            data_lines += 1;
        }
    }
    assert_eq!(data_lines, 4, "3 records + stream_end: {sse}");
    assert!(dash.ended());
    let rendered = dash.render(100);
    assert!(rendered.contains("backprop"), "{rendered}");
    assert!(sse.contains("event: end"), "{sse}");

    // Per-run filtering returns only that run's records (+ end event).
    let sse_one = get(addr, "/runs/1/stream");
    let count = sse_one
        .lines()
        .filter(|l| l.starts_with("data: {") && l.contains("\"run\":1"))
        .count();
    assert_eq!(count, 3, "{sse_one}");
}

#[test]
fn oversize_request_line_is_rejected_and_the_server_keeps_serving() {
    let (handle, addr) =
        LiveHandle::serve("127.0.0.1:0".parse().unwrap(), det_cfg()).expect("bind");
    let mut conn = TcpStream::connect(addr).expect("connect");
    conn.set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    // The server stops reading at the 64 KiB head cap and answers, so
    // the tail of this write or the read may see a reset: keep what
    // arrived.
    let _ = write!(conn, "GET /{} HTTP/1.1\r\n\r\n", "a".repeat(64 << 10));
    let mut resp = String::new();
    let _ = conn.read_to_string(&mut resp);
    assert!(resp.starts_with("HTTP/1.1 400"), "{resp:.80}");
    assert!(get(addr, "/runs").starts_with("HTTP/1.1 200"));
    // Only GET is served.
    let mut conn = TcpStream::connect(addr).expect("connect");
    write!(conn, "POST /runs HTTP/1.1\r\n\r\n").unwrap();
    let mut resp = String::new();
    conn.read_to_string(&mut resp).unwrap();
    assert!(resp.starts_with("HTTP/1.1 400"), "{resp}");
    handle.close();
}

#[test]
fn shutdown_ends_open_streams_and_closes_the_listener() {
    let (handle, addr) =
        LiveHandle::serve("127.0.0.1:0".parse().unwrap(), det_cfg()).expect("bind");
    handle.emit(&LiveRecord::SweepStart {
        jobs: 1,
        budget_cycles: 0,
        t_s: 0.0,
    });
    await_drain(&handle, addr, 0);

    // Subscribe, then shut the server down from another thread while
    // the stream is open.
    let mut conn = TcpStream::connect(addr).expect("connect");
    conn.set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    write!(conn, "GET /runs/all/stream HTTP/1.0\r\n\r\n").unwrap();
    let stopper = {
        let h = handle.clone();
        std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(100));
            h.shutdown_server();
        })
    };
    let reader = BufReader::new(conn);
    let mut seen_end = false;
    let mut payloads = Vec::new();
    for line in reader.lines() {
        let Ok(line) = line else { break };
        if let Some(p) = line.strip_prefix("data: ") {
            payloads.push(p.to_string());
        }
        if line == "event: end" {
            seen_end = true;
        }
    }
    stopper.join().unwrap();
    assert!(seen_end, "open stream did not receive the end event");
    assert!(
        payloads
            .iter()
            .any(|p| p.contains("\"type\":\"stream_end\"")),
        "open stream did not receive the terminal record: {payloads:?}"
    );

    // The listener closes within one poll interval: new connections
    // are refused (or accepted off the backlog and dropped without a
    // response). Poll briefly to absorb the acceptor's exit latency.
    let deadline = std::time::Instant::now() + Duration::from_secs(5);
    loop {
        let dead = match TcpStream::connect(addr) {
            Err(_) => true,
            Ok(mut c) => {
                c.set_read_timeout(Some(Duration::from_millis(500)))
                    .unwrap();
                let _ = write!(c, "GET /runs HTTP/1.0\r\n\r\n");
                let mut buf = String::new();
                matches!(c.read_to_string(&mut buf), Ok(0) | Err(_))
            }
        };
        if dead {
            break;
        }
        assert!(
            std::time::Instant::now() < deadline,
            "listener still answering after shutdown"
        );
        std::thread::sleep(Duration::from_millis(25));
    }
}

#[test]
fn live_subscriber_sees_records_pushed_after_connecting() {
    let (handle, addr) =
        LiveHandle::serve("127.0.0.1:0".parse().unwrap(), det_cfg()).expect("bind");
    handle.emit(&LiveRecord::SweepStart {
        jobs: 1,
        budget_cycles: 0,
        t_s: 0.0,
    });
    await_drain(&handle, addr, 0);

    // Subscribe first, then emit more and close from another thread.
    let pusher = {
        let h = handle.clone();
        std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(100));
            h.emit(&LiveRecord::SweepEnd {
                done: 1,
                total: 1,
                failed: 0,
                wall_s: 0.0,
                t_s: 0.0,
            });
            h.close();
        })
    };
    let mut conn = TcpStream::connect(addr).expect("connect");
    conn.set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    write!(conn, "GET /runs/all/stream HTTP/1.0\r\n\r\n").unwrap();
    let reader = BufReader::new(conn);
    let mut seen_end = false;
    let mut payloads = Vec::new();
    for line in reader.lines() {
        let Ok(line) = line else { break };
        if let Some(p) = line.strip_prefix("data: ") {
            payloads.push(p.to_string());
        }
        if line == "event: end" {
            seen_end = true;
        }
    }
    pusher.join().unwrap();
    assert!(seen_end, "no end event: {payloads:?}");
    assert!(
        payloads
            .iter()
            .any(|p| p.contains("\"type\":\"sweep_end\"")),
        "sweep_end pushed after subscribe was not delivered: {payloads:?}"
    );
    assert!(
        payloads
            .iter()
            .any(|p| p.contains("\"type\":\"stream_end\"")),
        "{payloads:?}"
    );
}
