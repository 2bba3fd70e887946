//! A minimal, defensive HTTP/1.1 layer over `std::net::TcpStream`.
//!
//! The workspace is fully offline — no tokio, no hyper — so the daemon
//! carries its own request/response code. It implements exactly what the
//! job API needs and treats every byte from the socket as hostile:
//!
//! * the request head is capped ([`Limits::max_head_bytes`]) and the body
//!   is capped *before* it is read ([`Limits::max_body_bytes`] against the
//!   declared `Content-Length`), so an oversized upload is rejected with
//!   413 without buffering it;
//! * all reads run under the socket's read timeout, so a slow-loris client
//!   that dribbles one byte a minute is cut off, not accumulated;
//! * responses are `Connection: close` — one request per connection keeps
//!   the state machine trivial and leaks nothing between clients;
//! * progress streams use `Transfer-Encoding: chunked` via
//!   [`ChunkedWriter`], one JSONL event per chunk.

use std::io::{Read, Write};
use std::net::TcpStream;

/// Read-side limits for one request.
#[derive(Debug, Clone, Copy)]
pub struct Limits {
    /// Maximum bytes of request line + headers.
    pub max_head_bytes: usize,
    /// Maximum declared (and read) body size.
    pub max_body_bytes: usize,
}

impl Default for Limits {
    fn default() -> Self {
        Limits {
            max_head_bytes: 16 << 10,
            max_body_bytes: 1 << 20,
        }
    }
}

/// One parsed request.
#[derive(Debug, Clone)]
pub struct Request {
    /// Request method, uppercase as received (`GET`, `POST`, ...).
    pub method: String,
    /// Request target with any query string stripped.
    pub path: String,
    /// Query-string `key=value` pairs, in request order (no percent
    /// decoding: the daemon's parameters are plain ASCII tokens).
    pub query: Vec<(String, String)>,
    /// Header name/value pairs, names lowercased.
    pub headers: Vec<(String, String)>,
    /// Request body (empty unless `Content-Length` was given).
    pub body: Vec<u8>,
}

impl Request {
    /// First header value by (case-insensitive) name.
    pub fn header(&self, name: &str) -> Option<&str> {
        let name = name.to_ascii_lowercase();
        self.headers
            .iter()
            .find(|(k, _)| *k == name)
            .map(|(_, v)| v.as_str())
    }

    /// First query-string value by exact name.
    pub fn query_param(&self, name: &str) -> Option<&str> {
        self.query
            .iter()
            .find(|(k, _)| k == name)
            .map(|(_, v)| v.as_str())
    }
}

/// Why a request could not be read.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RecvError {
    /// The peer closed before sending anything (a health-checker probe, a
    /// cancelled client) — not worth a response.
    Closed,
    /// The socket read timeout expired mid-request (slow-loris defense).
    Timeout,
    /// The declared body exceeds the limit; respond 413.
    BodyTooLarge {
        /// The configured cap the declaration exceeded.
        limit: usize,
    },
    /// Anything else unparseable; respond 400.
    Malformed(String),
}

fn find_blank_line(buf: &[u8]) -> Option<usize> {
    buf.windows(4).position(|w| w == b"\r\n\r\n")
}

fn is_timeout(e: &std::io::Error) -> bool {
    matches!(
        e.kind(),
        std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
    )
}

/// Read and parse one request from `stream`. The caller is responsible for
/// having set the stream's read timeout; expiry surfaces as
/// [`RecvError::Timeout`].
pub fn read_request(stream: &mut TcpStream, limits: &Limits) -> Result<Request, RecvError> {
    let mut buf: Vec<u8> = Vec::with_capacity(1024);
    let mut tmp = [0u8; 4096];
    let head_end = loop {
        if let Some(pos) = find_blank_line(&buf) {
            break pos;
        }
        if buf.len() > limits.max_head_bytes {
            return Err(RecvError::Malformed("request head too large".to_string()));
        }
        match stream.read(&mut tmp) {
            Ok(0) if buf.is_empty() => return Err(RecvError::Closed),
            Ok(0) => return Err(RecvError::Malformed("truncated request head".to_string())),
            Ok(n) => buf.extend_from_slice(&tmp[..n]),
            Err(e) if is_timeout(&e) => return Err(RecvError::Timeout),
            Err(e) => return Err(RecvError::Malformed(e.to_string())),
        }
    };

    let head = std::str::from_utf8(&buf[..head_end])
        .map_err(|_| RecvError::Malformed("request head is not UTF-8".to_string()))?;
    let mut lines = head.split("\r\n");
    let request_line = lines.next().unwrap_or_default();
    let mut parts = request_line.split(' ');
    let (method, target, version) = match (parts.next(), parts.next(), parts.next(), parts.next()) {
        (Some(m), Some(t), Some(v), None) if !m.is_empty() && t.starts_with('/') => (m, t, v),
        _ => {
            return Err(RecvError::Malformed(format!(
                "bad request line `{request_line}`"
            )))
        }
    };
    if !version.starts_with("HTTP/1.") {
        return Err(RecvError::Malformed(format!("bad version `{version}`")));
    }
    let mut headers = Vec::new();
    for line in lines {
        let Some((k, v)) = line.split_once(':') else {
            return Err(RecvError::Malformed(format!("bad header line `{line}`")));
        };
        headers.push((k.trim().to_ascii_lowercase(), v.trim().to_string()));
    }

    let content_length = match headers.iter().find(|(k, _)| k == "content-length") {
        None => 0usize,
        Some((_, v)) => v
            .parse::<usize>()
            .map_err(|_| RecvError::Malformed(format!("bad Content-Length `{v}`")))?,
    };
    if content_length > limits.max_body_bytes {
        return Err(RecvError::BodyTooLarge {
            limit: limits.max_body_bytes,
        });
    }

    let mut body = buf[head_end + 4..].to_vec();
    if body.len() > content_length {
        return Err(RecvError::Malformed(
            "body longer than declared".to_string(),
        ));
    }
    while body.len() < content_length {
        match stream.read(&mut tmp) {
            Ok(0) => return Err(RecvError::Malformed("truncated body".to_string())),
            Ok(n) => body.extend_from_slice(&tmp[..n.min(content_length - body.len())]),
            Err(e) if is_timeout(&e) => return Err(RecvError::Timeout),
            Err(e) => return Err(RecvError::Malformed(e.to_string())),
        }
    }

    let (path, query_str) = match target.split_once('?') {
        Some((p, q)) => (p.to_string(), q),
        None => (target.to_string(), ""),
    };
    let query = query_str
        .split('&')
        .filter(|kv| !kv.is_empty())
        .map(|kv| match kv.split_once('=') {
            Some((k, v)) => (k.to_string(), v.to_string()),
            None => (kv.to_string(), String::new()),
        })
        .collect();
    Ok(Request {
        method: method.to_string(),
        path,
        query,
        headers,
        body,
    })
}

/// Canonical reason phrase for the status codes this daemon emits.
pub fn status_reason(code: u16) -> &'static str {
    match code {
        200 => "OK",
        201 => "Created",
        202 => "Accepted",
        400 => "Bad Request",
        404 => "Not Found",
        405 => "Method Not Allowed",
        408 => "Request Timeout",
        413 => "Payload Too Large",
        429 => "Too Many Requests",
        500 => "Internal Server Error",
        503 => "Service Unavailable",
        _ => "Unknown",
    }
}

/// Write one complete `Connection: close` response.
pub fn write_response(
    stream: &mut TcpStream,
    status: u16,
    content_type: &str,
    extra_headers: &[(&str, String)],
    body: &[u8],
) -> std::io::Result<()> {
    let mut head = format!(
        "HTTP/1.1 {status} {}\r\nContent-Type: {content_type}\r\nContent-Length: {}\r\nConnection: close\r\n",
        status_reason(status),
        body.len()
    );
    for (k, v) in extra_headers {
        head.push_str(k);
        head.push_str(": ");
        head.push_str(v);
        head.push_str("\r\n");
    }
    head.push_str("\r\n");
    stream.write_all(head.as_bytes())?;
    stream.write_all(body)?;
    stream.flush()
}

/// One parsed response, as read by [`client_call`].
#[derive(Debug, Clone)]
pub struct ClientResponse {
    /// Status code.
    pub status: u16,
    /// Header name/value pairs, names lowercased.
    pub headers: Vec<(String, String)>,
    /// Body bytes, de-chunked when the response was chunked.
    pub body: Vec<u8>,
}

impl ClientResponse {
    /// Body as UTF-8 (lossy — a hostile server cannot poison the caller
    /// with invalid bytes, only with wrong text, which the JSON layer then
    /// rejects).
    pub fn text(&self) -> String {
        String::from_utf8_lossy(&self.body).into_owned()
    }
}

/// Issue one request to a daemon and read the complete `Connection:
/// close` response — the blocking client that tools and benchmarks drive
/// the daemon with. Like the server side it is hand-rolled on `std::net`
/// (offline workspace) and defensive: the response is read under `timeout`
/// per socket read and de-chunked tolerantly (a truncated chunked stream
/// yields the bytes that did arrive, which is the honest signal for a
/// daemon that died mid-stream).
pub fn client_call(
    addr: &str,
    method: &str,
    path: &str,
    headers: &[(&str, String)],
    body: &[u8],
    timeout: std::time::Duration,
) -> Result<ClientResponse, String> {
    let mut s = TcpStream::connect(addr).map_err(|e| format!("{addr}: connect: {e}"))?;
    let _ = s.set_read_timeout(Some(timeout));
    let _ = s.set_write_timeout(Some(timeout));
    let mut head = format!("{method} {path} HTTP/1.1\r\nHost: {addr}\r\n");
    for (k, v) in headers {
        head.push_str(k);
        head.push_str(": ");
        head.push_str(v);
        head.push_str("\r\n");
    }
    if !body.is_empty() {
        head.push_str(&format!("Content-Length: {}\r\n", body.len()));
    }
    head.push_str("\r\n");
    s.write_all(head.as_bytes())
        .and_then(|_| s.write_all(body))
        .map_err(|e| format!("{addr}: send: {e}"))?;

    let mut buf = Vec::new();
    let mut tmp = [0u8; 4096];
    loop {
        match s.read(&mut tmp) {
            Ok(0) => break,
            Ok(n) => buf.extend_from_slice(&tmp[..n]),
            Err(e) if is_timeout(&e) => return Err(format!("{addr}: read timed out")),
            // A peer that rejects mid-upload closes with bytes in flight;
            // treat the reset as end-of-stream and parse what arrived.
            Err(_) => break,
        }
    }
    let head_end = buf
        .windows(4)
        .position(|w| w == b"\r\n\r\n")
        .ok_or_else(|| format!("{addr}: truncated response head"))?;
    let head = std::str::from_utf8(&buf[..head_end])
        .map_err(|_| format!("{addr}: response head is not UTF-8"))?;
    let mut lines = head.split("\r\n");
    let status: u16 = lines
        .next()
        .and_then(|l| l.split(' ').nth(1))
        .and_then(|c| c.parse().ok())
        .ok_or_else(|| format!("{addr}: bad status line"))?;
    let headers: Vec<(String, String)> = lines
        .filter_map(|l| l.split_once(':'))
        .map(|(k, v)| (k.trim().to_ascii_lowercase(), v.trim().to_string()))
        .collect();
    let mut body = buf[head_end + 4..].to_vec();
    if headers
        .iter()
        .any(|(k, v)| k == "transfer-encoding" && v == "chunked")
    {
        body = dechunk(&body);
    }
    Ok(ClientResponse {
        status,
        headers,
        body,
    })
}

/// Decode a chunked body; a truncated stream yields the bytes that arrived.
fn dechunk(mut b: &[u8]) -> Vec<u8> {
    let mut out = Vec::new();
    loop {
        let Some(eol) = b.windows(2).position(|w| w == b"\r\n") else {
            return out;
        };
        let Ok(size) = std::str::from_utf8(&b[..eol])
            .map(str::trim)
            .map_err(|_| ())
            .and_then(|s| usize::from_str_radix(s, 16).map_err(|_| ()))
        else {
            return out;
        };
        if size == 0 || b.len() < eol + 2 + size {
            return out;
        }
        out.extend_from_slice(&b[eol + 2..eol + 2 + size]);
        b = b.get(eol + 2 + size + 2..).unwrap_or(&[]);
    }
}

/// An in-progress `Transfer-Encoding: chunked` response (the progress
/// stream). Dropping it without [`ChunkedWriter::finish`] leaves the
/// response truncated, which clients observe as a broken stream — the
/// honest signal for an aborted job or a daemon shutdown.
pub struct ChunkedWriter<'a> {
    stream: &'a mut TcpStream,
}

impl<'a> ChunkedWriter<'a> {
    /// Write the response head and switch to chunked framing.
    pub fn start(
        stream: &'a mut TcpStream,
        status: u16,
        content_type: &str,
        extra_headers: &[(&str, String)],
    ) -> std::io::Result<Self> {
        let mut head = format!(
            "HTTP/1.1 {status} {}\r\nContent-Type: {content_type}\r\nTransfer-Encoding: chunked\r\nConnection: close\r\n",
            status_reason(status)
        );
        for (k, v) in extra_headers {
            head.push_str(k);
            head.push_str(": ");
            head.push_str(v);
            head.push_str("\r\n");
        }
        head.push_str("\r\n");
        stream.write_all(head.as_bytes())?;
        stream.flush()?;
        Ok(ChunkedWriter { stream })
    }

    /// Write one chunk (skipped when empty: an empty chunk would terminate
    /// the stream).
    pub fn chunk(&mut self, data: &[u8]) -> std::io::Result<()> {
        if data.is_empty() {
            return Ok(());
        }
        write!(self.stream, "{:x}\r\n", data.len())?;
        self.stream.write_all(data)?;
        self.stream.write_all(b"\r\n")?;
        self.stream.flush()
    }

    /// Terminate the stream cleanly.
    pub fn finish(self) -> std::io::Result<()> {
        self.stream.write_all(b"0\r\n\r\n")?;
        self.stream.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::{TcpListener, TcpStream};
    use std::time::Duration;

    fn pair() -> (TcpStream, TcpStream) {
        let l = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = l.local_addr().unwrap();
        let c = TcpStream::connect(addr).unwrap();
        let (s, _) = l.accept().unwrap();
        s.set_read_timeout(Some(Duration::from_millis(200)))
            .unwrap();
        (c, s)
    }

    #[test]
    fn parses_a_post_with_body() {
        let (mut c, mut s) = pair();
        c.write_all(b"POST /v1/campaigns?x=1 HTTP/1.1\r\nHost: h\r\nContent-Length: 4\r\n\r\nabcd")
            .unwrap();
        let r = read_request(&mut s, &Limits::default()).unwrap();
        assert_eq!(r.method, "POST");
        assert_eq!(r.path, "/v1/campaigns");
        assert_eq!(r.query_param("x"), Some("1"));
        assert_eq!(r.header("host"), Some("h"));
        assert_eq!(r.body, b"abcd");
    }

    #[test]
    fn query_strings_parse_into_pairs() {
        let (mut c, mut s) = pair();
        c.write_all(b"GET /v1/campaigns/cj-1?watch=queued&timeout_ms=250&flag HTTP/1.1\r\n\r\n")
            .unwrap();
        let r = read_request(&mut s, &Limits::default()).unwrap();
        assert_eq!(r.path, "/v1/campaigns/cj-1");
        assert_eq!(r.query_param("watch"), Some("queued"));
        assert_eq!(r.query_param("timeout_ms"), Some("250"));
        assert_eq!(r.query_param("flag"), Some(""));
        assert_eq!(r.query_param("missing"), None);
    }

    #[test]
    fn oversized_declaration_is_rejected_before_reading() {
        let (mut c, mut s) = pair();
        c.write_all(b"POST /x HTTP/1.1\r\nContent-Length: 999999999\r\n\r\n")
            .unwrap();
        let err = read_request(
            &mut s,
            &Limits {
                max_body_bytes: 1024,
                ..Limits::default()
            },
        )
        .unwrap_err();
        assert_eq!(err, RecvError::BodyTooLarge { limit: 1024 });
    }

    #[test]
    fn slow_loris_times_out() {
        let (mut c, mut s) = pair();
        c.write_all(b"GET /healthz HT").unwrap(); // never finishes the head
        let err = read_request(&mut s, &Limits::default()).unwrap_err();
        assert_eq!(err, RecvError::Timeout);
    }

    #[test]
    fn garbage_is_malformed() {
        let (mut c, mut s) = pair();
        c.write_all(b"NONSENSE\r\n\r\n").unwrap();
        assert!(matches!(
            read_request(&mut s, &Limits::default()),
            Err(RecvError::Malformed(_))
        ));
    }

    #[test]
    fn immediate_close_is_quiet() {
        let (c, mut s) = pair();
        drop(c);
        assert_eq!(
            read_request(&mut s, &Limits::default()).unwrap_err(),
            RecvError::Closed
        );
    }
}
