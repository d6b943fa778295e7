//! A minimal blocking client for `isexd`, used by `isex explore --server`
//! and the integration tests. One request per connection, mirroring the
//! server's `Connection: close` discipline.
//!
//! [`explore_with_retry`] layers resilience on top: capped exponential
//! backoff with *deterministic* jitter (seeded SplitMix64, so a test can
//! predict every sleep), honouring the server's `Retry-After` on `503`.
//! Retrying is sound because `/v1/explore` is idempotent — the engine is
//! bitwise deterministic, so resubmitting a request cannot change the
//! answer — which is also why connection resets are safe to retry.

use std::io::{Read, Write};
use std::net::TcpStream;
use std::time::{Duration, Instant};

use crate::protocol::{ErrorBody, ExploreRequest, ExploreResponse, JobAccepted, JobStatusResponse};

/// Why a client call failed.
#[derive(Debug)]
pub enum ClientError {
    /// Could not connect or the socket failed mid-exchange.
    Io(std::io::Error),
    /// The server answered with a non-200 status.
    Http {
        /// HTTP status code.
        status: u16,
        /// The server's error message (decoded from its JSON envelope when
        /// possible, raw body otherwise).
        message: String,
        /// The server's `Retry-After` hint in seconds, if it sent one.
        retry_after_secs: Option<u64>,
    },
    /// The server answered 200 but the body did not decode.
    Protocol(String),
}

impl std::fmt::Display for ClientError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ClientError::Io(e) => write!(f, "connection failed: {e}"),
            ClientError::Http {
                status, message, ..
            } => write!(f, "server said {status}: {message}"),
            ClientError::Protocol(m) => write!(f, "bad server response: {m}"),
        }
    }
}

impl std::error::Error for ClientError {}

impl From<std::io::Error> for ClientError {
    fn from(e: std::io::Error) -> Self {
        ClientError::Io(e)
    }
}

/// A raw HTTP exchange result.
#[derive(Clone, Debug)]
pub struct RawResponse {
    /// HTTP status code.
    pub status: u16,
    /// The raw header block (status line excluded), lower-cased names.
    pub headers: Vec<(String, String)>,
    /// The body.
    pub body: String,
}

impl RawResponse {
    /// The value of a header, if present.
    pub fn header(&self, name: &str) -> Option<&str> {
        self.headers
            .iter()
            .find(|(k, _)| k.eq_ignore_ascii_case(name))
            .map(|(_, v)| v.as_str())
    }
}

/// Performs one HTTP exchange against `addr` (e.g. `"127.0.0.1:8173"`).
pub fn roundtrip(
    addr: &str,
    method: &str,
    path: &str,
    body: Option<&str>,
    read_timeout: Duration,
) -> Result<RawResponse, ClientError> {
    let mut stream = TcpStream::connect(addr)?;
    stream.set_read_timeout(Some(read_timeout))?;
    stream.set_write_timeout(Some(Duration::from_secs(30)))?;
    let body = body.unwrap_or("");
    let head = format!(
        "{method} {path} HTTP/1.1\r\nhost: {addr}\r\ncontent-type: application/json\r\ncontent-length: {}\r\nconnection: close\r\n\r\n",
        body.len()
    );
    stream.write_all(head.as_bytes())?;
    stream.write_all(body.as_bytes())?;
    stream.flush()?;

    let mut raw = Vec::new();
    stream.read_to_end(&mut raw)?;
    parse_response(&raw)
}

fn parse_response(raw: &[u8]) -> Result<RawResponse, ClientError> {
    let text = String::from_utf8_lossy(raw);
    let (head, body) = text
        .split_once("\r\n\r\n")
        .ok_or_else(|| ClientError::Protocol("no header/body separator".into()))?;
    let mut lines = head.split("\r\n");
    let status_line = lines
        .next()
        .ok_or_else(|| ClientError::Protocol("empty response".into()))?;
    let status = status_line
        .split_ascii_whitespace()
        .nth(1)
        .and_then(|s| s.parse::<u16>().ok())
        .ok_or_else(|| ClientError::Protocol(format!("bad status line `{status_line}`")))?;
    let headers = lines
        .filter_map(|l| l.split_once(':'))
        .map(|(k, v)| (k.trim().to_ascii_lowercase(), v.trim().to_string()))
        .collect();
    Ok(RawResponse {
        status,
        headers,
        body: body.to_string(),
    })
}

/// A non-success answer as a [`ClientError::Http`]: the message from the
/// server's error body (the raw body when it sent none) and its
/// `Retry-After` hint.
fn http_error(raw: &RawResponse) -> ClientError {
    ClientError::Http {
        status: raw.status,
        message: serde_json::from_str::<ErrorBody>(&raw.body)
            .map_or_else(|_| raw.body.clone(), |body| body.error),
        retry_after_secs: raw.header("retry-after").and_then(|v| v.parse().ok()),
    }
}

/// Submits an exploration and decodes the response.
pub fn explore(addr: &str, request: &ExploreRequest) -> Result<ExploreResponse, ClientError> {
    // Read timeout: the request's own deadline plus grace, so a server-side
    // 504 arrives before the client gives up on the socket.
    let timeout = Duration::from_millis(request.timeout_ms.unwrap_or(600_000) + 30_000);
    explore_within(addr, request, timeout)
}

/// [`explore`] with the socket read timeout bounded by `timeout` — the
/// remaining slice of a caller-owned total deadline, not a fresh
/// per-attempt allowance.
fn explore_within(
    addr: &str,
    request: &ExploreRequest,
    timeout: Duration,
) -> Result<ExploreResponse, ClientError> {
    let raw = roundtrip(
        addr,
        "POST",
        "/v1/explore",
        Some(&request.to_json()),
        timeout,
    )?;
    if raw.status != 200 {
        return Err(http_error(&raw));
    }
    ExploreResponse::from_json(&raw.body).map_err(ClientError::Protocol)
}

/// Fetches a control endpoint (`/healthz`, `/metrics`) as raw JSON text.
pub fn get(addr: &str, path: &str) -> Result<RawResponse, ClientError> {
    roundtrip(addr, "GET", path, None, Duration::from_secs(30))
}

/// Submits an exploration asynchronously (`POST /v1/jobs`): returns the
/// job handle immediately, without waiting for the run.
pub fn submit_job(addr: &str, request: &ExploreRequest) -> Result<JobAccepted, ClientError> {
    let raw = roundtrip(
        addr,
        "POST",
        "/v1/jobs",
        Some(&request.to_json()),
        Duration::from_secs(30),
    )?;
    if raw.status != 202 {
        return Err(http_error(&raw));
    }
    serde_json::from_str(&raw.body).map_err(|e| ClientError::Protocol(format!("bad 202 body: {e}")))
}

/// Fetches a job's current status (`GET /v1/jobs/{id}`) without blocking.
pub fn job_status(addr: &str, job_id: &str) -> Result<JobStatusResponse, ClientError> {
    job_exchange(addr, &format!("/v1/jobs/{job_id}"), Duration::from_secs(30))
}

/// Long-polls a job (`GET /v1/jobs/{id}/wait?timeout_ms=`): blocks until
/// it finishes or `timeout_ms` lapses, then reports whatever state it is
/// in. Polling never cancels the run.
pub fn wait_job(
    addr: &str,
    job_id: &str,
    timeout_ms: u64,
) -> Result<JobStatusResponse, ClientError> {
    job_exchange(
        addr,
        &format!("/v1/jobs/{job_id}/wait?timeout_ms={timeout_ms}"),
        Duration::from_millis(timeout_ms + 30_000),
    )
}

fn job_exchange(
    addr: &str,
    path: &str,
    read_timeout: Duration,
) -> Result<JobStatusResponse, ClientError> {
    let raw = roundtrip(addr, "GET", path, None, read_timeout)?;
    if raw.status != 200 {
        return Err(http_error(&raw));
    }
    JobStatusResponse::from_json(&raw.body).map_err(ClientError::Protocol)
}

/// Explores through the async API: submit, then long-poll until the job is
/// terminal (each poll bounded, reconnecting between polls — so the result
/// survives network blips that would kill one long synchronous exchange).
/// `deadline_ms` bounds the whole wait.
pub fn explore_async(
    addr: &str,
    request: &ExploreRequest,
    deadline_ms: u64,
) -> Result<ExploreResponse, ClientError> {
    let submitted = submit_job(addr, request)?;
    let deadline = std::time::Instant::now() + Duration::from_millis(deadline_ms);
    loop {
        let left = deadline
            .saturating_duration_since(std::time::Instant::now())
            .as_millis() as u64;
        if left == 0 {
            return Err(ClientError::Http {
                status: 504,
                message: format!(
                    "job {} still running after {deadline_ms}ms",
                    submitted.job_id
                ),
                retry_after_secs: None,
            });
        }
        let status = wait_job(addr, &submitted.job_id, left.min(30_000))?;
        match status.status.as_str() {
            "done" => {
                return status.into_explore_response().ok_or_else(|| {
                    ClientError::Protocol("done status without source/report/metrics".into())
                })
            }
            "failed" | "rejected" | "cancelled" => {
                return Err(ClientError::Http {
                    status: if status.status == "rejected" {
                        503
                    } else {
                        500
                    },
                    message: status
                        .error
                        .unwrap_or_else(|| format!("job {}", status.status)),
                    retry_after_secs: None,
                });
            }
            // queued / running: poll again until the deadline.
            _ => {}
        }
    }
}

/// Retry tuning for [`explore_with_retry`].
#[derive(Clone, Copy, Debug)]
pub struct RetryPolicy {
    /// Retries after the first attempt (`0` = single attempt).
    pub max_retries: usize,
    /// First backoff delay, ms (doubles per retry).
    pub base_delay_ms: u64,
    /// Backoff cap, ms (also caps an absurd `Retry-After`).
    pub max_delay_ms: u64,
    /// Jitter seed: the whole delay sequence is a pure function of it.
    pub seed: u64,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            max_retries: 4,
            base_delay_ms: 100,
            max_delay_ms: 5_000,
            seed: 0,
        }
    }
}

impl RetryPolicy {
    /// The delay before retry `attempt` (0-based) given the error that
    /// triggered it: `Retry-After` verbatim when the server sent one,
    /// otherwise capped exponential backoff with deterministic jitter in
    /// `[0, delay/2]` so a thundering herd decorrelates reproducibly.
    pub fn delay_ms(&self, attempt: usize, error: &ClientError) -> u64 {
        if let ClientError::Http {
            retry_after_secs: Some(secs),
            ..
        } = error
        {
            return (secs * 1000).min(self.max_delay_ms);
        }
        let exp = self
            .base_delay_ms
            .saturating_mul(1u64 << attempt.min(16))
            .min(self.max_delay_ms);
        let jitter_span = exp / 2 + 1;
        let jitter = isex_engine::derive_seed(self.seed, attempt as u64, 0) % jitter_span;
        (exp + jitter).min(self.max_delay_ms)
    }
}

/// Whether an error may be transient and the (idempotent) request is worth
/// resubmitting.
///
/// * `503` — explicit backpressure; the server asked us to come back.
/// * Connection reset / refused / aborted / broken pipe / unexpected EOF —
///   the exchange died mid-flight; determinism makes the resubmit safe.
///
/// Everything else is terminal: `400` stays wrong, `500` is deterministic
/// (the same request will panic the same job again), `504` already cost a
/// full deadline server-side, and decode failures are bugs, not weather.
pub fn is_retryable(error: &ClientError) -> bool {
    match error {
        ClientError::Http { status, .. } => *status == 503,
        ClientError::Io(e) => matches!(
            e.kind(),
            std::io::ErrorKind::ConnectionReset
                | std::io::ErrorKind::ConnectionRefused
                | std::io::ErrorKind::ConnectionAborted
                | std::io::ErrorKind::BrokenPipe
                | std::io::ErrorKind::UnexpectedEof
        ),
        ClientError::Protocol(_) => false,
    }
}

/// [`explore`] with retries per `policy` under one **total** deadline.
/// Returns the first success, the first terminal error, or — when every
/// attempt was retryable — the last error seen.
///
/// The deadline is derived once from the request's `timeout_ms` (plus the
/// same grace window a single [`explore`] gets) and shared by every
/// attempt and every backoff sleep. Each attempt's socket timeout is the
/// *remaining* budget, so `max_retries` failures cannot multiply the
/// caller's wait — a caller asking for a 10 s answer waits ~10 s total,
/// not 10 s per attempt.
pub fn explore_with_retry(
    addr: &str,
    request: &ExploreRequest,
    policy: &RetryPolicy,
) -> Result<ExploreResponse, ClientError> {
    let budget = Duration::from_millis(request.timeout_ms.unwrap_or(600_000) + 30_000);
    let deadline = Instant::now() + budget;
    let mut attempt = 0;
    loop {
        let left = deadline
            .saturating_duration_since(Instant::now())
            .max(Duration::from_millis(1));
        match explore_within(addr, request, left) {
            Ok(response) => return Ok(response),
            Err(error) => {
                if attempt >= policy.max_retries || !is_retryable(&error) {
                    return Err(error);
                }
                let delay = Duration::from_millis(policy.delay_ms(attempt, &error));
                // A backoff sleep that outlives the budget cannot be
                // followed by a useful attempt: surface the error now.
                if delay >= deadline.saturating_duration_since(Instant::now()) {
                    return Err(error);
                }
                std::thread::sleep(delay);
                attempt += 1;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn http(status: u16, retry_after_secs: Option<u64>) -> ClientError {
        ClientError::Http {
            status,
            message: String::new(),
            retry_after_secs,
        }
    }

    #[test]
    fn retryability_classification() {
        assert!(is_retryable(&http(503, None)));
        assert!(!is_retryable(&http(500, None)));
        assert!(!is_retryable(&http(504, None)));
        assert!(!is_retryable(&http(400, None)));
        assert!(is_retryable(&ClientError::Io(std::io::Error::from(
            std::io::ErrorKind::ConnectionReset
        ))));
        assert!(!is_retryable(&ClientError::Io(std::io::Error::from(
            std::io::ErrorKind::PermissionDenied
        ))));
        assert!(!is_retryable(&ClientError::Protocol("x".into())));
    }

    #[test]
    fn retry_after_wins_over_backoff() {
        let policy = RetryPolicy::default();
        assert_eq!(policy.delay_ms(0, &http(503, Some(2))), 2000);
        // An absurd hint is capped.
        assert_eq!(policy.delay_ms(0, &http(503, Some(9999))), 5000);
    }

    #[test]
    fn backoff_is_deterministic_capped_and_growing() {
        let policy = RetryPolicy {
            seed: 7,
            ..RetryPolicy::default()
        };
        let reset = || ClientError::Io(std::io::Error::from(std::io::ErrorKind::ConnectionReset));
        let delays: Vec<u64> = (0..8).map(|a| policy.delay_ms(a, &reset())).collect();
        let again: Vec<u64> = (0..8).map(|a| policy.delay_ms(a, &reset())).collect();
        assert_eq!(delays, again, "same seed, same schedule");
        for (a, &d) in delays.iter().enumerate() {
            let exp = (100u64 << a).min(5000);
            assert!(d >= exp && d <= 5000, "attempt {a}: {d}");
        }
        let other = RetryPolicy { seed: 8, ..policy };
        assert_ne!(
            delays,
            (0..8)
                .map(|a| other.delay_ms(a, &reset()))
                .collect::<Vec<_>>(),
            "different seed, different jitter"
        );
    }
}
