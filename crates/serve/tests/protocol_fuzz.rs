//! Adversarial tests of the server's parsing edges: the `/v1/explore`
//! wire protocol and the std-only HTTP/1.1 request parser.
//!
//! The contract under test is *graceful rejection*: no byte sequence —
//! truncated, oversized, dribbled one byte at a time, or outright random —
//! may panic a parser. Malformed input maps to a typed error (which the
//! server turns into `400`/`408`/`413`), and every well-formed request
//! round-trips losslessly through the client's JSON encoding.

use isex_flow::Algorithm;
use isex_isa::MachineConfig;
use isex_serve::http::{self, HttpError, Request, MAX_HEAD_BYTES};
use isex_serve::protocol::ExploreRequest;
use isex_workloads::{Benchmark, OptLevel};
use proptest::prelude::*;

// ---------------------------------------------------------------------------
// Generators
// ---------------------------------------------------------------------------

fn arb_request() -> impl Strategy<Value = ExploreRequest> {
    (
        (0usize..Benchmark::ALL.len(), any::<bool>(), any::<bool>()),
        (0usize..MachineConfig::named_presets().len(), any::<u64>()),
        (1u64..65, 1u64..1000, 0u64..257),
        (any::<bool>(), 1u64..600_000),
    )
        .prop_map(
            |((bench, o0, si), (machine, seed), (repeats, effort, jobs), (with_t, t))| {
                let (machine_name, machine) = MachineConfig::named_presets()[machine];
                ExploreRequest {
                    bench: Benchmark::ALL[bench],
                    opt: if o0 { OptLevel::O0 } else { OptLevel::O3 },
                    machine_name: machine_name.to_string(),
                    machine,
                    algorithm: if si {
                        Algorithm::SingleIssue
                    } else {
                        Algorithm::MultiIssue
                    },
                    seed,
                    repeats: repeats as usize,
                    effort: effort as usize,
                    jobs: jobs as usize,
                    timeout_ms: with_t.then_some(t),
                }
            },
        )
}

/// The exact bytes the blocking client would put on the wire.
fn wire_bytes(req: &ExploreRequest) -> Vec<u8> {
    let body = req.to_json();
    format!(
        "POST /v1/explore HTTP/1.1\r\nhost: t\r\ncontent-type: application/json\r\ncontent-length: {}\r\nconnection: close\r\n\r\n{body}",
        body.len()
    )
    .into_bytes()
}

/// A reader that hands out at most `chunk` bytes per `read` call —
/// simulates a peer whose writes arrive fragmented arbitrarily.
struct Dribble<'a> {
    data: &'a [u8],
    pos: usize,
    chunk: usize,
}

impl std::io::Read for Dribble<'_> {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        let n = self.chunk.min(buf.len()).min(self.data.len() - self.pos);
        buf[..n].copy_from_slice(&self.data[self.pos..self.pos + n]);
        self.pos += n;
        Ok(n)
    }
}

fn parse(data: &[u8], chunk: usize, max_body: usize) -> Result<Request, HttpError> {
    let mut reader = Dribble {
        data,
        pos: 0,
        chunk: chunk.max(1),
    };
    http::read_request(&mut reader, max_body, MAX_HEAD_BYTES)
}

// ---------------------------------------------------------------------------
// Properties
// ---------------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn explore_request_roundtrips_through_client_json(req in arb_request()) {
        let value = serde_json::parse(&req.to_json()).expect("client JSON parses");
        let back = ExploreRequest::from_json(&value).expect("client JSON is accepted");
        prop_assert_eq!(back.canonical_key(), req.canonical_key());
        prop_assert_eq!(back.jobs, req.jobs);
        prop_assert_eq!(back.timeout_ms, req.timeout_ms);
    }

    #[test]
    fn http_parser_never_panics_on_random_bytes(
        data in proptest::collection::vec(any::<u8>(), 0..1024),
        chunk in 1usize..64,
    ) {
        // The assertion is the absence of a panic; both outcomes are legal.
        let _ = parse(&data, chunk, 4096);
    }

    #[test]
    fn valid_request_survives_any_fragmentation(req in arb_request(), chunk in 1usize..16) {
        let wire = wire_bytes(&req);
        let whole = parse(&wire, wire.len(), 64 * 1024).expect("whole parse");
        let dribbled = parse(&wire, chunk, 64 * 1024).expect("dribbled parse");
        prop_assert_eq!(&dribbled.method, &whole.method);
        prop_assert_eq!(&dribbled.path, &whole.path);
        prop_assert_eq!(&dribbled.body, &whole.body);
        // And the reassembled body is still the same request.
        let value = serde_json::parse(std::str::from_utf8(&dribbled.body).unwrap()).unwrap();
        let back = ExploreRequest::from_json(&value).unwrap();
        prop_assert_eq!(back.canonical_key(), req.canonical_key());
    }

    #[test]
    fn truncated_valid_request_is_an_error_not_a_panic(
        req in arb_request(),
        cut_permille in 0usize..1000,
        chunk in 1usize..16,
    ) {
        let wire = wire_bytes(&req);
        let cut = cut_permille * (wire.len() - 1) / 1000; // strictly short
        prop_assert!(
            parse(&wire[..cut], chunk, 64 * 1024).is_err(),
            "a truncated request must be rejected"
        );
    }

    #[test]
    fn mutated_request_json_never_panics_the_protocol_parser(
        req in arb_request(),
        cut_permille in 0usize..1000,
        flip in any::<u8>(),
        at_permille in 0usize..1000,
    ) {
        // Truncate the valid body, then flip one byte: covers both invalid
        // JSON (parse error) and valid-JSON-wrong-shape (protocol error).
        let mut body = req.to_json().into_bytes();
        body.truncate(1 + cut_permille * (body.len() - 1) / 1000);
        let at = at_permille * (body.len() - 1) / 1000;
        body[at] ^= flip;
        if let Ok(text) = std::str::from_utf8(&body) {
            if let Ok(value) = serde_json::parse(text) {
                let _ = ExploreRequest::from_json(&value); // Ok or Err, never panic
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Deterministic edge cases
// ---------------------------------------------------------------------------

#[test]
fn absurd_content_length_is_rejected_without_allocation() {
    // Larger than the cap: typed PayloadTooLarge, not an OOM attempt.
    let wire = b"POST /v1/explore HTTP/1.1\r\ncontent-length: 999999999\r\n\r\n";
    match parse(wire, wire.len(), 4096) {
        Err(HttpError::PayloadTooLarge(n)) => assert_eq!(n, 999_999_999),
        other => panic!("expected PayloadTooLarge, got {other:?}"),
    }
    // Not even a number: BadRequest.
    let wire = b"POST / HTTP/1.1\r\ncontent-length: 99999999999999999999999\r\n\r\n";
    assert!(matches!(
        parse(wire, wire.len(), 4096),
        Err(HttpError::BadRequest(_))
    ));
    let wire = b"POST / HTTP/1.1\r\ncontent-length: -1\r\n\r\n";
    assert!(matches!(
        parse(wire, wire.len(), 4096),
        Err(HttpError::BadRequest(_))
    ));
}

#[test]
fn head_cap_applies_before_the_terminator_arrives() {
    // An endless header stream must be cut off at the cap even though the
    // `\r\n\r\n` terminator never shows up.
    let mut wire = b"GET / HTTP/1.1\r\n".to_vec();
    wire.extend(std::iter::repeat_n(b'a', MAX_HEAD_BYTES * 2));
    match parse(&wire, 512, 4096) {
        Err(HttpError::HeadTooLarge(n)) => assert!(n > MAX_HEAD_BYTES),
        other => panic!("expected HeadTooLarge, got {other:?}"),
    }
}

#[test]
fn body_longer_than_declared_is_rejected() {
    let wire = b"POST / HTTP/1.1\r\ncontent-length: 2\r\n\r\nfour";
    assert!(matches!(
        parse(wire, wire.len(), 4096),
        Err(HttpError::BadRequest(_))
    ));
}
