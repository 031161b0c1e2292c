//! A minimal blocking HTTP/1.1 client for driving the daemon.
//!
//! Exists for the same reason the server's HTTP layer does: no external
//! crates. It holds one keep-alive connection and issues sequential
//! requests — exactly the shape of the loopback integration tests, the
//! `ccbench` load generator, and the `serve_loadtest` example. Not a
//! general-purpose client (no redirects, no chunked decoding, no TLS).

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};

/// A parsed response.
#[derive(Clone, Debug)]
pub struct ClientResponse {
    /// Status code.
    pub status: u16,
    /// Headers with lower-cased names.
    pub headers: Vec<(String, String)>,
    /// Response body.
    pub body: Vec<u8>,
}

impl ClientResponse {
    /// Body as UTF-8 (panics on binary bodies — fine for JSON/text APIs).
    pub fn text(&self) -> &str {
        std::str::from_utf8(&self.body).expect("response body is UTF-8")
    }

    /// Body parsed as JSON.
    ///
    /// # Errors
    /// Fails when the body is not valid JSON.
    pub fn json(&self) -> Result<serde_json::Value, serde_json::Error> {
        serde_json::from_str(self.text())
    }
}

/// One keep-alive connection to the daemon.
pub struct HttpClient {
    stream: TcpStream,
    /// Bytes read past the previous response (responses are sequential
    /// on a connection, but reads are chunk-sized).
    leftover: Vec<u8>,
}

impl HttpClient {
    /// Connects.
    ///
    /// # Errors
    /// Propagates connect failures.
    pub fn connect(addr: SocketAddr) -> std::io::Result<Self> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        Ok(HttpClient { stream, leftover: Vec::new() })
    }

    /// Issues one request and reads the full response.
    ///
    /// # Errors
    /// Propagates socket failures and malformed responses.
    pub fn request(
        &mut self,
        method: &str,
        target: &str,
        body: &[u8],
    ) -> std::io::Result<ClientResponse> {
        self.request_with(method, target, body, &[])
    }

    /// Issues one request with extra headers (`(name, value)` pairs) and
    /// reads the full response.
    ///
    /// # Errors
    /// Propagates socket failures and malformed responses.
    pub fn request_with(
        &mut self,
        method: &str,
        target: &str,
        body: &[u8],
        headers: &[(&str, &str)],
    ) -> std::io::Result<ClientResponse> {
        let mut head = format!("{method} {target} HTTP/1.1\r\nhost: cc\r\n");
        for (name, value) in headers {
            head.push_str(&format!("{name}: {value}\r\n"));
        }
        head.push_str(&format!("content-length: {}\r\n\r\n", body.len()));
        let mut req = Vec::with_capacity(head.len() + body.len());
        req.extend_from_slice(head.as_bytes());
        req.extend_from_slice(body);
        self.stream.write_all(&req)?;
        self.read_response()
    }

    /// `GET` convenience.
    ///
    /// # Errors
    /// Propagates socket failures and malformed responses.
    pub fn get(&mut self, target: &str) -> std::io::Result<ClientResponse> {
        self.request("GET", target, b"")
    }

    /// `POST` convenience with a JSON value body.
    ///
    /// # Errors
    /// Propagates socket failures and malformed responses.
    pub fn post_json(
        &mut self,
        target: &str,
        body: &serde_json::Value,
    ) -> std::io::Result<ClientResponse> {
        let body = serde_json::to_string(body).expect("value trees serialize");
        self.request("POST", target, body.as_bytes())
    }

    /// `POST` convenience for the binary columnar wire format: encodes
    /// `frame` with [`crate::wire::encode_frame`], tags it with the
    /// columnar `Content-Type`, and asks for a columnar reply via
    /// `Accept` (the server honors that on `/v1/check`; others answer
    /// JSON). Handler fields (`profile`, `threads`, …) go in the query
    /// string of `target`.
    ///
    /// # Errors
    /// Propagates socket failures and malformed responses.
    pub fn post_columnar(
        &mut self,
        target: &str,
        frame: &cc_frame::DataFrame,
    ) -> std::io::Result<ClientResponse> {
        let body = crate::wire::encode_frame(frame);
        self.request_with(
            "POST",
            target,
            &body,
            &[
                ("content-type", crate::wire::CONTENT_TYPE_COLUMNAR),
                ("accept", crate::wire::CONTENT_TYPE_COLUMNAR),
            ],
        )
    }

    fn read_response(&mut self) -> std::io::Result<ClientResponse> {
        let bad = |msg: &str| std::io::Error::new(std::io::ErrorKind::InvalidData, msg.to_owned());
        let mut buf = std::mem::take(&mut self.leftover);
        let mut chunk = [0u8; 16 * 1024];
        let header_end = loop {
            if let Some(p) = buf.windows(4).position(|w| w == b"\r\n\r\n") {
                break p;
            }
            let n = self.stream.read(&mut chunk)?;
            if n == 0 {
                return Err(bad("connection closed mid-response"));
            }
            buf.extend_from_slice(&chunk[..n]);
        };
        let head = std::str::from_utf8(&buf[..header_end])
            .map_err(|_| bad("response head is not UTF-8"))?;
        let mut lines = head.split("\r\n");
        let status_line = lines.next().unwrap_or("");
        let status: u16 = status_line
            .split(' ')
            .nth(1)
            .and_then(|s| s.parse().ok())
            .ok_or_else(|| bad("malformed status line"))?;
        let headers: Vec<(String, String)> = lines
            .filter_map(|l| l.split_once(':'))
            .map(|(n, v)| (n.to_ascii_lowercase(), v.trim().to_owned()))
            .collect();
        let content_length: usize = headers
            .iter()
            .find(|(n, _)| n == "content-length")
            .and_then(|(_, v)| v.parse().ok())
            .ok_or_else(|| bad("response lacks content-length"))?;
        let total = header_end + 4 + content_length;
        while buf.len() < total {
            let n = self.stream.read(&mut chunk)?;
            if n == 0 {
                return Err(bad("connection closed mid-body"));
            }
            buf.extend_from_slice(&chunk[..n]);
        }
        self.leftover = buf.split_off(total);
        let body = buf.split_off(header_end + 4);
        Ok(ClientResponse { status, headers, body })
    }
}
