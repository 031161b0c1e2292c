//! A minimal-but-correct HTTP/1.1 layer on plain byte streams.
//!
//! The workspace is offline/vendored — no tokio, no hyper — so the daemon
//! speaks HTTP through this hand-rolled layer: an **incremental** request
//! parser ([`RequestParser`]) that a connection loop feeds raw reads into,
//! and a [`Response`] writer. The parser owns its buffer across calls, so
//! requests split arbitrarily across syscalls, pipelined back-to-back
//! requests, and keep-alive reuse all fall out of the same `feed` /
//! [`RequestParser::try_next`] cycle.
//!
//! Scope (exactly what the daemon needs, checked strictly):
//!
//! * request line + headers terminated by CRLF CRLF, headers bounded by
//!   [`MAX_HEADER_BYTES`] → `431` beyond that;
//! * bodies only via `Content-Length`, bounded by a configurable cap →
//!   `413` beyond it; `Transfer-Encoding` is answered `501`, never
//!   misparsed;
//! * `HTTP/1.1` (keep-alive default) and `HTTP/1.0` (close default);
//!   anything else → `505`;
//! * malformed anything → `400` with a one-line reason.

use std::fmt;

/// Hard ceiling on request-line + header bytes. Requests that have not
/// terminated their header block within this window are answered `431`.
pub const MAX_HEADER_BYTES: usize = 16 * 1024;

/// Default ceiling on declared body sizes (32 MiB — a ~1M-row batch of
/// a few numeric columns in JSON). Configurable per parser.
pub const DEFAULT_MAX_BODY_BYTES: usize = 32 * 1024 * 1024;

/// A parse failure, carrying the HTTP status the connection should answer
/// with before closing.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ParseError {
    /// Structurally malformed request → `400`.
    BadRequest(&'static str),
    /// Header block exceeded [`MAX_HEADER_BYTES`] → `431`.
    HeadersTooLarge,
    /// Declared `Content-Length` exceeds the parser's cap → `413`.
    BodyTooLarge,
    /// `Transfer-Encoding` is not implemented → `501`.
    UnsupportedTransferEncoding,
    /// Not HTTP/1.0 or HTTP/1.1 → `505`.
    VersionNotSupported,
}

impl ParseError {
    /// The status code this error maps to.
    pub fn status(&self) -> u16 {
        match self {
            ParseError::BadRequest(_) => 400,
            ParseError::HeadersTooLarge => 431,
            ParseError::BodyTooLarge => 413,
            ParseError::UnsupportedTransferEncoding => 501,
            ParseError::VersionNotSupported => 505,
        }
    }

    /// One-line human-readable reason.
    pub fn reason(&self) -> &'static str {
        match self {
            ParseError::BadRequest(r) => r,
            ParseError::HeadersTooLarge => "header block exceeds limit",
            ParseError::BodyTooLarge => "declared body exceeds limit",
            ParseError::UnsupportedTransferEncoding => "transfer-encoding not supported",
            ParseError::VersionNotSupported => "only HTTP/1.0 and HTTP/1.1 supported",
        }
    }
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} {}", self.status(), self.reason())
    }
}

impl std::error::Error for ParseError {}

/// One parsed request.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Request {
    /// Upper-case method (`GET`, `POST`, …), as sent.
    pub method: String,
    /// Percent-decoded path, query stripped (`/v1/check`).
    pub path: String,
    /// Percent-decoded query parameters, in order.
    pub query: Vec<(String, String)>,
    /// Headers with lower-cased names, values trimmed, in order.
    pub headers: Vec<(String, String)>,
    /// The body (empty when no `Content-Length`).
    pub body: Vec<u8>,
    /// Whether the client asked (explicitly or by HTTP/1.0 default) to
    /// close the connection after this response.
    pub close: bool,
}

impl Request {
    /// First header with this (lower-case) name.
    pub fn header(&self, name: &str) -> Option<&str> {
        self.headers.iter().find(|(n, _)| n == name).map(|(_, v)| v.as_str())
    }

    /// First query parameter with this name.
    pub fn query_param(&self, name: &str) -> Option<&str> {
        self.query.iter().find(|(n, _)| n == name).map(|(_, v)| v.as_str())
    }

    /// The media type of the request body: `Content-Type` with any
    /// `;`-parameters stripped, lower-cased, whitespace-trimmed. `None`
    /// when the header is absent.
    pub fn media_type(&self) -> Option<String> {
        self.header("content-type")
            .map(|v| v.split(';').next().unwrap_or("").trim().to_ascii_lowercase())
    }

    /// Whether the body is a binary columnar batch
    /// ([`crate::wire::CONTENT_TYPE_COLUMNAR`]).
    pub fn body_is_columnar(&self) -> bool {
        self.media_type().as_deref() == Some(crate::wire::CONTENT_TYPE_COLUMNAR)
    }

    /// Whether the client asked for a binary columnar reply (`Accept`
    /// lists the columnar media type).
    pub fn accepts_columnar(&self) -> bool {
        self.header("accept").is_some_and(|v| {
            v.split(',').any(|t| {
                t.split(';').next().unwrap_or("").trim() == crate::wire::CONTENT_TYPE_COLUMNAR
            })
        })
    }
}

/// Incremental HTTP/1.1 request parser.
///
/// Feed raw bytes as they arrive ([`Self::feed`]); pull zero or more
/// complete requests ([`Self::try_next`]). Bytes beyond one request stay
/// buffered for the next call — pipelining needs nothing extra. Errors
/// are terminal for the connection: the buffer can no longer be framed.
pub struct RequestParser {
    buf: Vec<u8>,
    /// How far the header-terminator scan has progressed, so repeated
    /// partial feeds never rescan the whole buffer.
    scanned: usize,
    /// The current request once its head is parsed, kept while its body
    /// arrives so a trickled body never re-parses the head.
    framed: Option<Framed>,
    max_body: usize,
}

/// A request whose head is parsed: everything but the body, and where in
/// the buffer the body lies.
struct Framed {
    request: Request,
    body_start: usize,
    total: usize,
}

impl RequestParser {
    /// A parser enforcing `max_body` on declared `Content-Length`s.
    pub fn new(max_body: usize) -> Self {
        RequestParser { buf: Vec::new(), scanned: 0, framed: None, max_body }
    }

    /// Appends newly read bytes.
    pub fn feed(&mut self, bytes: &[u8]) {
        self.buf.extend_from_slice(bytes);
    }

    /// Whether the buffer holds no unconsumed bytes (an EOF here is a
    /// clean connection close; mid-request it is an abrupt disconnect).
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Tries to frame one complete request from the buffer.
    ///
    /// `Ok(None)` means "need more bytes".
    ///
    /// # Errors
    /// Any [`ParseError`] is terminal: answer it and close.
    pub fn try_next(&mut self) -> Result<Option<Request>, ParseError> {
        let framed = match &mut self.framed {
            Some(framed) => framed,
            None => {
                let Some(framed) = self.frame_head()? else { return Ok(None) };
                // Room for the whole request up front: the body's
                // segments then append without reallocating.
                self.buf.reserve(framed.total.saturating_sub(self.buf.len()));
                self.framed.insert(framed)
            }
        };
        if self.buf.len() < framed.total {
            return Ok(None); // Body still in flight.
        }
        let Framed { mut request, body_start, total } = self.framed.take().expect("framed above");
        // The buffer becomes the body, so a connection never holds a
        // body-sized buffer next to the body it handed out. Only bytes
        // pipelined behind the request are copied, into a fresh buffer
        // (none at all when nothing is pipelined).
        let rest = self.buf.split_off(total);
        let mut body = std::mem::replace(&mut self.buf, rest);
        body.drain(..body_start);
        request.body = body;
        self.scanned = 0;
        Ok(Some(request))
    }

    /// Parses the head at the start of the buffer once its terminator has
    /// arrived.
    fn frame_head(&mut self) -> Result<Option<Framed>, ParseError> {
        let Some(header_end) = self.find_header_end() else {
            if self.buf.len() > MAX_HEADER_BYTES {
                return Err(ParseError::HeadersTooLarge);
            }
            return Ok(None);
        };
        if header_end > MAX_HEADER_BYTES {
            return Err(ParseError::HeadersTooLarge);
        }
        // Parse the header block (bytes [0, header_end); the terminator
        // occupies [header_end, header_end + 4)).
        let head = std::str::from_utf8(&self.buf[..header_end])
            .map_err(|_| ParseError::BadRequest("header block is not UTF-8"))?;
        let mut lines = head.split("\r\n");
        let request_line = lines.next().unwrap_or("");
        let (method, path, query, version) = parse_request_line(request_line)?;
        let mut headers = Vec::new();
        for line in lines {
            if line.is_empty() {
                return Err(ParseError::BadRequest("empty header line"));
            }
            let (name, value) =
                line.split_once(':').ok_or(ParseError::BadRequest("header line missing ':'"))?;
            if name.is_empty() || name.chars().any(|c| c.is_ascii_whitespace()) {
                return Err(ParseError::BadRequest("malformed header name"));
            }
            headers.push((name.to_ascii_lowercase(), value.trim().to_owned()));
        }
        if headers.iter().any(|(n, _)| n == "transfer-encoding") {
            return Err(ParseError::UnsupportedTransferEncoding);
        }
        let content_length = content_length(&headers)?;
        if content_length > self.max_body {
            return Err(ParseError::BodyTooLarge);
        }
        let close = connection_close(&headers, version);
        let request = Request { method, path, query, headers, body: Vec::new(), close };
        let body_start = header_end + 4;
        Ok(Some(Framed { request, body_start, total: body_start + content_length }))
    }

    /// Position of the `\r\n\r\n` header terminator, resuming from the
    /// previous scan position.
    fn find_header_end(&mut self) -> Option<usize> {
        let start = self.scanned.saturating_sub(3);
        let found = self.buf[start..].windows(4).position(|w| w == b"\r\n\r\n").map(|p| p + start);
        if found.is_none() {
            self.scanned = self.buf.len();
        }
        found
    }
}

/// HTTP version of a request line.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Version {
    Http10,
    Http11,
}

type RequestLine = (String, String, Vec<(String, String)>, Version);

fn parse_request_line(line: &str) -> Result<RequestLine, ParseError> {
    let mut parts = line.split(' ');
    let (Some(method), Some(target), Some(version), None) =
        (parts.next(), parts.next(), parts.next(), parts.next())
    else {
        return Err(ParseError::BadRequest("request line is not 'METHOD TARGET VERSION'"));
    };
    if method.is_empty() || !method.chars().all(|c| c.is_ascii_uppercase()) {
        return Err(ParseError::BadRequest("malformed method"));
    }
    let version = match version {
        "HTTP/1.1" => Version::Http11,
        "HTTP/1.0" => Version::Http10,
        _ => return Err(ParseError::VersionNotSupported),
    };
    if !target.starts_with('/') {
        return Err(ParseError::BadRequest("target must be origin-form (start with '/')"));
    }
    let (raw_path, raw_query) = match target.split_once('?') {
        Some((p, q)) => (p, Some(q)),
        None => (target, None),
    };
    let path = percent_decode(raw_path)
        .ok_or(ParseError::BadRequest("invalid percent-encoding in path"))?;
    let mut query = Vec::new();
    for pair in raw_query.unwrap_or("").split('&').filter(|p| !p.is_empty()) {
        let (k, v) = pair.split_once('=').unwrap_or((pair, ""));
        let k =
            percent_decode(k).ok_or(ParseError::BadRequest("invalid percent-encoding in query"))?;
        let v =
            percent_decode(v).ok_or(ParseError::BadRequest("invalid percent-encoding in query"))?;
        query.push((k, v));
    }
    Ok((method.to_owned(), path, query, version))
}

/// Decodes `%XX` escapes and `+`-as-space. `None` on truncated or
/// non-hex escapes or when the decoded bytes are not UTF-8.
fn percent_decode(s: &str) -> Option<String> {
    if !s.contains('%') && !s.contains('+') {
        return Some(s.to_owned());
    }
    let bytes = s.as_bytes();
    let mut out = Vec::with_capacity(bytes.len());
    let mut i = 0;
    while i < bytes.len() {
        match bytes[i] {
            b'%' => {
                let hex = bytes.get(i + 1..i + 3)?;
                let hi = (hex[0] as char).to_digit(16)?;
                let lo = (hex[1] as char).to_digit(16)?;
                out.push((hi * 16 + lo) as u8);
                i += 3;
            }
            b'+' => {
                out.push(b' ');
                i += 1;
            }
            b => {
                out.push(b);
                i += 1;
            }
        }
    }
    String::from_utf8(out).ok()
}

/// Extracts and validates `Content-Length` (0 when absent; duplicate
/// headers must agree, as RFC 9112 §6.2 requires).
fn content_length(headers: &[(String, String)]) -> Result<usize, ParseError> {
    let mut seen: Option<usize> = None;
    for (_, v) in headers.iter().filter(|(n, _)| n == "content-length") {
        let n: usize = v
            .parse()
            .map_err(|_| ParseError::BadRequest("content-length is not a non-negative integer"))?;
        if seen.is_some_and(|prev| prev != n) {
            return Err(ParseError::BadRequest("conflicting content-length headers"));
        }
        seen = Some(n);
    }
    Ok(seen.unwrap_or(0))
}

/// Whether the connection should close after this request: explicit
/// `Connection: close`, or HTTP/1.0 without `Connection: keep-alive`.
fn connection_close(headers: &[(String, String)], version: Version) -> bool {
    let connection = headers
        .iter()
        .find(|(n, _)| n == "connection")
        .map(|(_, v)| v.to_ascii_lowercase())
        .unwrap_or_default();
    match version {
        Version::Http11 => connection.split(',').any(|t| t.trim() == "close"),
        Version::Http10 => !connection.split(',').any(|t| t.trim() == "keep-alive"),
    }
}

/// Stable machine-readable error-code slug for the status codes this
/// daemon emits — the `error.code` field of the structured error
/// envelope (see [`Response::error`]).
pub fn error_code(status: u16) -> &'static str {
    match status {
        400 => "bad_request",
        404 => "not_found",
        405 => "method_not_allowed",
        408 => "request_timeout",
        409 => "conflict",
        413 => "payload_too_large",
        431 => "headers_too_large",
        500 => "internal",
        501 => "not_implemented",
        503 => "unavailable",
        505 => "http_version",
        _ => "error",
    }
}

/// Canonical reason phrase for the status codes this daemon emits.
pub fn status_reason(status: u16) -> &'static str {
    match status {
        200 => "OK",
        400 => "Bad Request",
        404 => "Not Found",
        405 => "Method Not Allowed",
        408 => "Request Timeout",
        409 => "Conflict",
        413 => "Content Too Large",
        431 => "Request Header Fields Too Large",
        500 => "Internal Server Error",
        501 => "Not Implemented",
        503 => "Service Unavailable",
        505 => "HTTP Version Not Supported",
        _ => "Unknown",
    }
}

/// An outgoing response: status + content type + body, serialized with
/// `Content-Length` framing and an explicit `Connection` header.
#[derive(Clone, Debug)]
pub struct Response {
    /// HTTP status code.
    pub status: u16,
    /// `Content-Type` header value.
    pub content_type: &'static str,
    /// Response body.
    pub body: Vec<u8>,
    /// Additional headers (name, value), written after the fixed set.
    /// Empty for almost every response, so serialization is byte-for-byte
    /// unchanged unless a header is explicitly attached.
    pub extra_headers: Vec<(&'static str, String)>,
}

impl Response {
    /// A `200 OK` JSON response.
    pub fn json(value: &serde_json::Value) -> Self {
        Response {
            status: 200,
            content_type: "application/json",
            body: serde_json::to_string(value).expect("value trees serialize").into_bytes(),
            extra_headers: Vec::new(),
        }
    }

    /// An error response carrying the structured envelope every non-2xx
    /// JSON body uses:
    /// `{"error": {"code": "<slug>", "message": "<human text>"}}`.
    /// The `code` is derived from the status ([`error_code`]); the
    /// message is free-form human-readable text.
    pub fn error(status: u16, message: &str) -> Self {
        Response::error_detail(status, message, None)
    }

    /// [`Self::error`] with an optional machine-readable `detail` value
    /// attached inside the envelope.
    pub fn error_detail(status: u16, message: &str, detail: Option<serde_json::Value>) -> Self {
        let mut inner = vec![
            ("code".to_owned(), serde_json::Value::String(error_code(status).to_owned())),
            ("message".to_owned(), serde_json::Value::String(message.to_owned())),
        ];
        if let Some(d) = detail {
            inner.push(("detail".to_owned(), d));
        }
        let v =
            serde_json::Value::Object(vec![("error".to_owned(), serde_json::Value::Object(inner))]);
        Response { status, ..Response::json(&v) }
    }

    /// A `200 OK` response whose body is already-serialized JSON — the
    /// `cc_state`-enveloped fleet payloads, which arrive pre-encoded so
    /// their checksum covers the exact bytes on the wire.
    pub fn json_text(body: String) -> Self {
        Response {
            status: 200,
            content_type: "application/json",
            body: body.into_bytes(),
            extra_headers: Vec::new(),
        }
    }

    /// A `200 OK` binary columnar response (see [`crate::wire`]).
    pub fn columnar(body: Vec<u8>) -> Self {
        Response {
            status: 200,
            content_type: crate::wire::CONTENT_TYPE_COLUMNAR,
            body,
            extra_headers: Vec::new(),
        }
    }

    /// A plain-text response (the `/metrics` exposition format).
    pub fn text(status: u16, body: String) -> Self {
        Response {
            status,
            content_type: "text/plain; version=0.0.4; charset=utf-8",
            body: body.into_bytes(),
            extra_headers: Vec::new(),
        }
    }

    /// Attaches an extra response header.
    pub fn set_header(&mut self, name: &'static str, value: String) {
        self.extra_headers.push((name, value));
    }

    /// Serializes the response head + body into one buffer (a single
    /// write per response keeps small responses in one TCP segment).
    pub fn serialize(&self, keep_alive: bool) -> Vec<u8> {
        let mut head = format!(
            "HTTP/1.1 {} {}\r\ncontent-type: {}\r\ncontent-length: {}\r\nconnection: {}\r\n",
            self.status,
            status_reason(self.status),
            self.content_type,
            self.body.len(),
            if keep_alive { "keep-alive" } else { "close" },
        );
        for (name, value) in &self.extra_headers {
            head.push_str(name);
            head.push_str(": ");
            head.push_str(value);
            head.push_str("\r\n");
        }
        head.push_str("\r\n");
        let mut out = Vec::with_capacity(head.len() + self.body.len());
        out.extend_from_slice(head.as_bytes());
        out.extend_from_slice(&self.body);
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse_all(input: &[u8]) -> Result<Vec<Request>, ParseError> {
        let mut p = RequestParser::new(DEFAULT_MAX_BODY_BYTES);
        p.feed(input);
        let mut out = Vec::new();
        while let Some(r) = p.try_next()? {
            out.push(r);
        }
        Ok(out)
    }

    #[test]
    fn simple_get() {
        let rs = parse_all(b"GET /healthz HTTP/1.1\r\nhost: x\r\n\r\n").unwrap();
        assert_eq!(rs.len(), 1);
        assert_eq!(rs[0].method, "GET");
        assert_eq!(rs[0].path, "/healthz");
        assert!(!rs[0].close);
        assert!(rs[0].body.is_empty());
    }

    #[test]
    fn query_and_percent_decoding() {
        let rs = parse_all(b"GET /v1/check?top=5&profile=my%20name+x HTTP/1.1\r\n\r\n").unwrap();
        assert_eq!(rs[0].query_param("top"), Some("5"));
        assert_eq!(rs[0].query_param("profile"), Some("my name x"));
    }

    #[test]
    fn connection_semantics() {
        let rs = parse_all(b"GET / HTTP/1.1\r\nconnection: close\r\n\r\n").unwrap();
        assert!(rs[0].close);
        let rs = parse_all(b"GET / HTTP/1.0\r\n\r\n").unwrap();
        assert!(rs[0].close, "HTTP/1.0 defaults to close");
        let rs = parse_all(b"GET / HTTP/1.0\r\nconnection: keep-alive\r\n\r\n").unwrap();
        assert!(!rs[0].close);
    }

    #[test]
    fn version_and_method_rejection() {
        assert_eq!(parse_all(b"GET / HTTP/2\r\n\r\n"), Err(ParseError::VersionNotSupported));
        assert!(matches!(parse_all(b"get / HTTP/1.1\r\n\r\n"), Err(ParseError::BadRequest(_))));
        assert!(matches!(parse_all(b"GET /\r\n\r\n"), Err(ParseError::BadRequest(_))));
        assert!(matches!(parse_all(b"GET x HTTP/1.1\r\n\r\n"), Err(ParseError::BadRequest(_))));
    }

    #[test]
    fn transfer_encoding_rejected() {
        assert_eq!(
            parse_all(b"POST / HTTP/1.1\r\ntransfer-encoding: chunked\r\n\r\n"),
            Err(ParseError::UnsupportedTransferEncoding)
        );
    }

    #[test]
    fn conflicting_content_lengths_rejected() {
        assert!(matches!(
            parse_all(b"POST / HTTP/1.1\r\ncontent-length: 2\r\ncontent-length: 3\r\n\r\nab"),
            Err(ParseError::BadRequest(_))
        ));
        // Agreeing duplicates are fine.
        let rs = parse_all(b"POST / HTTP/1.1\r\ncontent-length: 2\r\ncontent-length: 2\r\n\r\nab")
            .unwrap();
        assert_eq!(rs[0].body, b"ab");
    }

    /// Fed whole, the second request is split off behind the first;
    /// trickled, the buffer holds exactly the first request when it
    /// completes. Both hand out the same bodies.
    #[test]
    fn trickled_pipelined_requests_match_one_feed() {
        let input: &[u8] =
            b"POST /v2/check?top=2 HTTP/1.1\r\ncontent-length: 11\r\n\r\n{\"a\": [1]}\n\
            GET /healthz HTTP/1.0\r\nconnection: keep-alive\r\n\r\n";
        let whole = parse_all(input).unwrap();
        assert_eq!(whole.len(), 2);
        let mut p = RequestParser::new(DEFAULT_MAX_BODY_BYTES);
        let mut trickled = Vec::new();
        for &b in input {
            p.feed(&[b]);
            while let Some(r) = p.try_next().unwrap() {
                trickled.push(r);
            }
        }
        assert_eq!(trickled, whole);
        assert!(p.is_empty());
    }

    #[test]
    fn response_serialization() {
        let r = Response::error(404, "no such profile");
        let bytes = r.serialize(true);
        let s = String::from_utf8(bytes).unwrap();
        assert!(s.starts_with("HTTP/1.1 404 Not Found\r\n"), "{s}");
        assert!(s.contains("connection: keep-alive"));
        assert!(
            s.ends_with("{\"error\":{\"code\":\"not_found\",\"message\":\"no such profile\"}}"),
            "{s}"
        );
        let s = String::from_utf8(Response::text(200, "ok".into()).serialize(false)).unwrap();
        assert!(s.contains("connection: close"));
    }
}
