//! The flight recorder's cost on the request path, measured soundly: a
//! traced and an untraced in-process daemon answer the same `/v2/check`
//! batch in paired, interleaved slices, and the median paired overhead
//! must stay within `max(5 %, 3 · MAD)` of the untraced time.
//!
//! Within a slice the two daemons take turns in short bursts of
//! pipelined requests (the leading leg alternates), so a host slow
//! spell lands on both legs alike; each leg's slice time is the median
//! of its bursts, so one stalled burst does not move it. Across slices
//! the gate reads the median overhead against the spread of the
//! overheads themselves rather than a best-of-N cell.

mod common;

use cc_server::{HttpClient, ProfileRegistry, Server, ServerConfig, ServerHandle};
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};

/// Rows per `/v2/check` request: enough that the handler, around which
/// the trace spans are recorded, dominates each request.
const BATCH_ROWS: usize = 2048;
/// Slices measured.
const SLICES: usize = 20;
/// Target wall time of one slice, both legs together.
const SLICE: Duration = Duration::from_millis(150);
/// Target wall time of one burst of pipelined requests to one daemon.
const BURST: Duration = Duration::from_millis(4);

fn start(dir: &std::path::Path, trace_buffer: usize) -> ServerHandle {
    let registry = ProfileRegistry::from_dir(dir).unwrap();
    let config = ServerConfig {
        addr: "127.0.0.1:0".to_owned(),
        workers: 1,
        trace_buffer,
        ..ServerConfig::default()
    };
    Server::start(config, registry).unwrap()
}

fn median(mut xs: Vec<f64>) -> f64 {
    xs.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
    xs[xs.len() / 2]
}

/// One keep-alive connection that sends a burst of identical `/v2/check`
/// requests back to back and only then reads the replies, so the daemon
/// works through them without waiting on the client: whatever it does
/// after sending a reply delays the next one, as under sustained load.
struct Pipeline {
    stream: TcpStream,
    request: Vec<u8>,
    /// Bytes of one full reply (head and body); the replies of a
    /// repeated request are all the same length.
    reply_len: usize,
    buf: Vec<u8>,
}

impl Pipeline {
    fn connect(addr: SocketAddr, body: &[u8]) -> Pipeline {
        let head = format!("POST /v2/check HTTP/1.1\r\ncontent-length: {}\r\n\r\n", body.len());
        let request = [head.as_bytes(), body].concat();
        let mut stream = TcpStream::connect(addr).unwrap();
        stream.set_nodelay(true).unwrap();
        stream.write_all(&request).unwrap();
        let mut buf = Vec::new();
        let mut chunk = [0u8; 16 * 1024];
        let reply_len = loop {
            let n = stream.read(&mut chunk).unwrap();
            assert!(n > 0, "daemon closed the connection");
            buf.extend_from_slice(&chunk[..n]);
            let Some(end) = buf.windows(4).position(|w| w == b"\r\n\r\n") else { continue };
            let head = std::str::from_utf8(&buf[..end]).unwrap().to_ascii_lowercase();
            let length: usize = head
                .lines()
                .find_map(|l| l.strip_prefix("content-length:"))
                .map(|v| v.trim().parse().unwrap())
                .expect("content-length");
            break end + 4 + length;
        };
        read_replies(&mut stream, &mut buf, reply_len, 1);
        Pipeline { stream, request, reply_len, buf }
    }

    /// Sends `n` requests back to back and reads their replies; returns
    /// the wall time in seconds.
    fn burst(&mut self, n: usize) -> f64 {
        let started = Instant::now();
        let mut writer = self.stream.try_clone().unwrap();
        let request = &self.request;
        std::thread::scope(|scope| {
            scope.spawn(move || (0..n).for_each(|_| writer.write_all(request).unwrap()));
            read_replies(&mut self.stream, &mut self.buf, self.reply_len, n);
        });
        started.elapsed().as_secs_f64()
    }
}

/// Reads `n` replies of `reply_len` bytes, the first of which may
/// already be in `buf`, and checks that each is a 200.
fn read_replies(stream: &mut TcpStream, buf: &mut Vec<u8>, reply_len: usize, n: usize) {
    let have = buf.len();
    buf.resize(n * reply_len, 0);
    stream.read_exact(&mut buf[have..]).unwrap();
    for reply in buf.chunks(reply_len) {
        assert!(reply.starts_with(b"HTTP/1.1 200 "), "{}", String::from_utf8_lossy(reply));
    }
    buf.clear();
}

#[test]
fn tracing_overhead_within_noise_of_untraced() {
    let dir = common::temp_dir("overhead");
    common::write_profile(&dir, "main", &common::regime_profile(600, 0.0));
    let untraced = start(&dir, 0);
    let traced = start(&dir, cc_trace::DEFAULT_BUFFER);
    let frame = common::regime_frame(BATCH_ROWS, 0.0);
    let body = serde_json::to_string(&common::columns_body(&frame)).unwrap().into_bytes();

    // The legs differ in tracing alone: only the traced daemon stamps
    // the trace header.
    for (handle, stamped) in [(&untraced, false), (&traced, true)] {
        let resp = HttpClient::connect(handle.addr())
            .and_then(|mut c| c.request("POST", "/v2/check", &body))
            .unwrap();
        assert_eq!(resp.status, 200, "{}", resp.text());
        assert_eq!(resp.headers.iter().any(|(n, _)| n == "x-ccsynth-trace"), stamped);
    }
    let [mut off, mut on] = [&untraced, &traced].map(|h| Pipeline::connect(h.addr(), &body));
    // Warm both daemons, then size bursts and slices from the untraced
    // request time.
    off.burst(4);
    on.burst(4);
    let per_request = off.burst(8) / 8.0;
    let requests = ((BURST.as_secs_f64() / per_request).ceil() as usize).clamp(4, 16);
    let turns = ((SLICE.as_secs_f64() / (2.0 * requests as f64 * per_request)).ceil() as usize)
        .clamp(3, 100);

    let overheads: Vec<f64> = (0..SLICES)
        .map(|_| {
            let (mut t_off, mut t_on) = (Vec::with_capacity(turns), Vec::with_capacity(turns));
            for turn in 0..turns {
                if turn % 2 == 0 {
                    t_off.push(off.burst(requests));
                    t_on.push(on.burst(requests));
                } else {
                    t_on.push(on.burst(requests));
                    t_off.push(off.burst(requests));
                }
            }
            median(t_on) / median(t_off) - 1.0
        })
        .collect();
    let med = median(overheads.clone());
    let mad = median(overheads.iter().map(|d| (d - med).abs()).collect());
    let bound = (3.0 * mad).max(0.05);
    assert!(
        med <= bound,
        "tracing costs {:.2} % per request (bound {:.2} %, MAD {:.2} %, {SLICES} slices of \
         {turns} burst pairs of {requests} requests)",
        med * 100.0,
        bound * 100.0,
        mad * 100.0
    );
    untraced.shutdown();
    traced.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}
