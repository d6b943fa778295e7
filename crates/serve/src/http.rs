//! A deliberately small HTTP/1.1 subset over `std::net` — just enough for
//! a JSON API: one request per connection (`Connection: close`), parsed
//! request line + headers + `Content-Length` body, and a response writer.
//!
//! No external deps, no keep-alive, no chunked encoding. Read sizes are
//! hard-capped so a misbehaving client cannot balloon memory, and callers
//! set socket timeouts so one cannot pin a connection thread.

use std::io::{Read, Write};

/// The server's cap on request-line + header bytes (slowloris protection).
pub const MAX_HEAD_BYTES: usize = 16 * 1024;

/// The server's cap on request bodies, bytes.
pub const MAX_BODY_BYTES: usize = 64 * 1024;

/// A parsed request.
#[derive(Clone, Debug)]
pub struct Request {
    /// Uppercase method (`GET`, `POST`, …).
    pub method: String,
    /// Request path, query string stripped.
    pub path: String,
    /// Raw query string (everything after the first `?`, without it).
    pub query: String,
    /// Lower-cased header names with their raw values.
    pub headers: Vec<(String, String)>,
    /// The body, exactly `Content-Length` bytes.
    pub body: Vec<u8>,
}

impl Request {
    /// The value of a header, if present (name compared case-insensitively).
    pub fn header(&self, name: &str) -> Option<&str> {
        self.headers
            .iter()
            .find(|(k, _)| k.eq_ignore_ascii_case(name))
            .map(|(_, v)| v.as_str())
    }

    /// The value of a `key=value` query parameter, if present. A bare `key`
    /// with no `=` yields `Some("")`. No percent-decoding — the parameters
    /// this API accepts are plain tokens.
    pub fn query_param(&self, name: &str) -> Option<&str> {
        self.query.split('&').find_map(|pair| {
            let (k, v) = pair.split_once('=').unwrap_or((pair, ""));
            (k == name).then_some(v)
        })
    }
}

/// Why a request could not be served at the transport layer.
#[derive(Debug)]
pub enum HttpError {
    /// Malformed request line, headers, or length fields → 400.
    BadRequest(String),
    /// Declared body larger than the server's cap → 413.
    PayloadTooLarge(usize),
    /// Request line + headers exceed the head cap → 413 (slowloris-style
    /// dribbling of an unbounded head is cut off here, not at OOM).
    HeadTooLarge(usize),
    /// The socket timed out before a full request arrived → 408.
    Timeout,
    /// Other socket-level failure; the connection is dropped without a
    /// response.
    Io(std::io::Error),
}

impl std::fmt::Display for HttpError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            HttpError::BadRequest(m) => write!(f, "bad request: {m}"),
            HttpError::PayloadTooLarge(n) => write!(f, "payload of {n} bytes exceeds the cap"),
            HttpError::HeadTooLarge(n) => write!(f, "request head of {n} bytes exceeds the cap"),
            HttpError::Timeout => f.write_str("timed out reading the request"),
            HttpError::Io(e) => write!(f, "i/o: {e}"),
        }
    }
}

impl From<std::io::Error> for HttpError {
    fn from(e: std::io::Error) -> Self {
        // A socket read timeout surfaces as WouldBlock (non-blocking
        // semantics) or TimedOut depending on the platform; both mean the
        // client was too slow and deserve a 408, not a silent drop.
        match e.kind() {
            std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut => HttpError::Timeout,
            _ => HttpError::Io(e),
        }
    }
}

/// Reads and parses one request from `stream`. Generic over the reader so
/// the parser can be driven by in-memory and chunk-dribbling fuzz harnesses
/// as well as sockets.
pub fn read_request<R: Read>(
    stream: &mut R,
    max_body: usize,
    max_head: usize,
) -> Result<Request, HttpError> {
    let head = read_head(stream, max_head)?;
    let text = String::from_utf8_lossy(&head.bytes);
    let mut lines = text.split("\r\n");
    let request_line = lines
        .next()
        .ok_or_else(|| HttpError::BadRequest("empty request".into()))?;
    let mut parts = request_line.split_ascii_whitespace();
    let method = parts
        .next()
        .ok_or_else(|| HttpError::BadRequest("missing method".into()))?
        .to_ascii_uppercase();
    let target = parts
        .next()
        .ok_or_else(|| HttpError::BadRequest("missing path".into()))?;
    let version = parts
        .next()
        .ok_or_else(|| HttpError::BadRequest("missing version".into()))?;
    if !version.starts_with("HTTP/1.") {
        return Err(HttpError::BadRequest(format!(
            "unsupported version `{version}`"
        )));
    }
    let (path, query) = match target.split_once('?') {
        Some((p, q)) => (p.to_string(), q.to_string()),
        None => (target.to_string(), String::new()),
    };

    let mut headers = Vec::new();
    for line in lines {
        if line.is_empty() {
            continue;
        }
        let (name, value) = line
            .split_once(':')
            .ok_or_else(|| HttpError::BadRequest(format!("malformed header `{line}`")))?;
        headers.push((name.trim().to_ascii_lowercase(), value.trim().to_string()));
    }

    let content_length = headers
        .iter()
        .find(|(k, _)| k == "content-length")
        .map(|(_, v)| {
            v.parse::<usize>()
                .map_err(|_| HttpError::BadRequest(format!("bad content-length `{v}`")))
        })
        .transpose()?
        .unwrap_or(0);
    if content_length > max_body {
        return Err(HttpError::PayloadTooLarge(content_length));
    }

    let mut body = head.body_prefix;
    if body.len() > content_length {
        return Err(HttpError::BadRequest(
            "body longer than content-length".into(),
        ));
    }
    while body.len() < content_length {
        let mut buf = [0u8; 4096];
        let want = (content_length - body.len()).min(buf.len());
        let n = stream.read(&mut buf[..want])?;
        if n == 0 {
            return Err(HttpError::BadRequest(
                "body shorter than content-length".into(),
            ));
        }
        body.extend_from_slice(&buf[..n]);
    }

    Ok(Request {
        method,
        path,
        query,
        headers,
        body,
    })
}

struct Head {
    bytes: Vec<u8>,
    body_prefix: Vec<u8>,
}

/// Reads up to and including the `\r\n\r\n` head terminator; whatever was
/// already read past it is returned as the start of the body.
fn read_head<R: Read>(stream: &mut R, max_head: usize) -> Result<Head, HttpError> {
    let mut bytes = Vec::with_capacity(512);
    let mut buf = [0u8; 1024];
    loop {
        let n = stream.read(&mut buf)?;
        if n == 0 {
            return Err(HttpError::BadRequest("connection closed mid-head".into()));
        }
        bytes.extend_from_slice(&buf[..n]);
        if let Some(end) = find_head_end(&bytes) {
            let body_prefix = bytes[end..].to_vec();
            bytes.truncate(end);
            return Ok(Head { bytes, body_prefix });
        }
        if bytes.len() > max_head {
            return Err(HttpError::HeadTooLarge(bytes.len()));
        }
    }
}

fn find_head_end(bytes: &[u8]) -> Option<usize> {
    bytes
        .windows(4)
        .position(|w| w == b"\r\n\r\n")
        .map(|i| i + 4)
}

/// The reason phrase for the status codes this server emits.
pub fn reason(status: u16) -> &'static str {
    match status {
        200 => "OK",
        202 => "Accepted",
        400 => "Bad Request",
        404 => "Not Found",
        405 => "Method Not Allowed",
        408 => "Request Timeout",
        413 => "Payload Too Large",
        500 => "Internal Server Error",
        503 => "Service Unavailable",
        504 => "Gateway Timeout",
        _ => "Unknown",
    }
}

/// Writes a complete response with the given content type and flushes.
/// `extra_headers` come after the standard set (used for `Retry-After` and
/// trace-ID echoing).
pub fn write_response<W: Write>(
    stream: &mut W,
    status: u16,
    content_type: &str,
    body: &str,
    extra_headers: &[(&str, String)],
) -> std::io::Result<()> {
    let mut head = format!(
        "HTTP/1.1 {} {}\r\ncontent-type: {}\r\ncontent-length: {}\r\nconnection: close\r\n",
        status,
        reason(status),
        content_type,
        body.len()
    );
    for (k, v) in extra_headers {
        head.push_str(&format!("{k}: {v}\r\n"));
    }
    head.push_str("\r\n");
    stream.write_all(head.as_bytes())?;
    stream.write_all(body.as_bytes())?;
    stream.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn head_end_detection() {
        assert_eq!(find_head_end(b"GET / HTTP/1.1\r\n\r\n"), Some(18));
        assert_eq!(find_head_end(b"GET / HTTP/1.1\r\n"), None);
        assert_eq!(find_head_end(b"a\r\n\r\nbody"), Some(5));
    }

    #[test]
    fn reasons_cover_served_statuses() {
        for s in [200, 202, 400, 404, 405, 408, 413, 500, 503, 504] {
            assert_ne!(reason(s), "Unknown", "{s}");
        }
    }

    #[test]
    fn parses_a_request_from_any_reader() {
        let mut raw: &[u8] =
            b"POST /v1/explore HTTP/1.1\r\ncontent-length: 4\r\nx-a: b\r\n\r\nbody";
        let req = read_request(&mut raw, 1024, MAX_HEAD_BYTES).unwrap();
        assert_eq!(req.method, "POST");
        assert_eq!(req.path, "/v1/explore");
        assert_eq!(req.header("x-a"), Some("b"));
        assert_eq!(req.body, b"body");
        assert_eq!(req.query, "");
        assert_eq!(req.query_param("format"), None);
    }

    #[test]
    fn query_string_is_split_off_and_parameterised() {
        let mut raw: &[u8] = b"GET /metrics?format=prometheus&raw HTTP/1.1\r\n\r\n";
        let req = read_request(&mut raw, 1024, MAX_HEAD_BYTES).unwrap();
        assert_eq!(req.path, "/metrics");
        assert_eq!(req.query, "format=prometheus&raw");
        assert_eq!(req.query_param("format"), Some("prometheus"));
        assert_eq!(req.query_param("raw"), Some(""));
        assert_eq!(req.query_param("missing"), None);
    }

    #[test]
    fn oversized_head_is_rejected_as_head_too_large() {
        let big = format!("GET / HTTP/1.1\r\nx-pad: {}\r\n\r\n", "a".repeat(4096));
        let mut raw = big.as_bytes();
        match read_request(&mut raw, 1024, 512) {
            Err(HttpError::HeadTooLarge(n)) => assert!(n > 512),
            other => panic!("expected HeadTooLarge, got {other:?}"),
        }
    }

    #[test]
    fn timeout_kinds_map_to_http_timeout() {
        for kind in [std::io::ErrorKind::WouldBlock, std::io::ErrorKind::TimedOut] {
            let e: HttpError = std::io::Error::from(kind).into();
            assert!(matches!(e, HttpError::Timeout), "{kind:?}");
        }
        let e: HttpError = std::io::Error::from(std::io::ErrorKind::ConnectionReset).into();
        assert!(matches!(e, HttpError::Io(_)));
    }
}
