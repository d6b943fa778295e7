//! Adversarial tests of the cluster wire format, in the same spirit as
//! `crates/serve/tests/protocol_fuzz.rs`: no byte sequence off the
//! network — truncated, oversized, fragmented, or outright random — may
//! panic the frame reader or the message decoder. Malformed input maps to
//! a typed [`WireError`]; well-formed messages round-trip losslessly.

use isex_cluster::messages::{
    Hello, HelloAck, JobAssign, JobResult, Message, RepeatResult, TraceChunk, PROTOCOL_VERSION,
};
use isex_cluster::wire::{read_frame, Frame, OpCode, WireError, MAX_FRAME_BYTES};
use isex_core::{Exploration, IseCandidate};
use isex_dfg::{NodeId, NodeSet};
use isex_flow::{CheckpointEntry, RepeatOutcome};
use isex_trace::OwnedSpan;
use proptest::prelude::*;

// ---------------------------------------------------------------------------
// Generators
// ---------------------------------------------------------------------------

fn arb_entry() -> impl Strategy<Value = CheckpointEntry> {
    (
        ("[a-z0-9{}\",:]{0,40}", 0usize..64, "[a-z_]{1,16}"),
        (0usize..10_000, 0usize..64, 0usize..64, 0usize..8),
        (any::<bool>(), "[ -~]{0,60}"),
        (any::<bool>(), any::<bool>(), 0usize..10_000),
    )
        .prop_map(
            |(
                (run_key, block_index, block),
                (iterations, jobs_completed, jobs_failed, worker_restarts),
                (with_error, error),
                (degraded, with_rounds, rounds),
            )| CheckpointEntry {
                run_key,
                block_index,
                block,
                iterations,
                jobs_completed,
                jobs_failed,
                worker_restarts,
                spread: None,
                patterns: Vec::new(),
                error: with_error.then_some(error),
                degraded,
                rounds_completed: with_rounds.then_some(rounds),
            },
        )
}

/// Every positive finite `f64` bit pattern (subnormals included): the
/// areas a candidate can carry.
fn arb_area() -> impl Strategy<Value = f64> {
    any::<u64>().prop_map(|bits| f64::from_bits(bits % 0x7ff0_0000_0000_0000))
}

fn arb_candidate() -> impl Strategy<Value = IseCandidate> {
    (
        (1usize..40, proptest::collection::vec(0u32..40, 0..6)),
        (arb_area(), arb_area(), 0u32..8),
        (0usize..6, 0usize..4, 0u32..20),
    )
        .prop_map(
            |((universe, members), (delay_ns, area_um2, latency), (inputs, outputs, saved))| {
                let mut nodes = NodeSet::new(universe);
                for m in members {
                    nodes.insert(NodeId::new(m % universe as u32));
                }
                let choices = nodes.iter().map(|n| (n, n.index() % 3)).collect();
                IseCandidate {
                    nodes,
                    choices,
                    delay_ns,
                    latency,
                    area_um2,
                    inputs,
                    outputs,
                    saved_cycles: saved,
                }
            },
        )
}

fn arb_outcome() -> impl Strategy<Value = RepeatOutcome> {
    prop_oneof![
        (
            proptest::collection::vec(arb_candidate(), 0..4),
            (0u32..500, 0u32..500),
            (0usize..50, 0usize..10_000, any::<bool>()),
        )
            .prop_map(
                |(
                    candidates,
                    (baseline_cycles, cycles_with_ises),
                    (rounds, iterations, degraded),
                )| {
                    RepeatOutcome::Explored(Exploration {
                        candidates,
                        baseline_cycles,
                        cycles_with_ises,
                        rounds,
                        iterations,
                        degraded,
                    })
                }
            ),
        "[ -~]{0,40}".prop_map(RepeatOutcome::Panicked),
        Just(RepeatOutcome::Skipped),
    ]
}

fn arb_message() -> impl Strategy<Value = Message> {
    prop_oneof![
        ("[ -~]{0,32}", 1usize..8, any::<u32>()).prop_map(|(name, capacity, version)| {
            Message::Hello(Hello {
                version,
                name,
                capacity,
            })
        }),
        (any::<u32>(), 1u64..10_000).prop_map(|(version, heartbeat_ms)| {
            Message::HelloAck(HelloAck {
                version,
                heartbeat_ms,
            })
        }),
        (
            any::<u64>(),
            "[ -~]{0,64}",
            (any::<bool>(), "[a-z:/@. 0-9]{0,24}"),
            0usize..64,
            (0usize..8, 0usize..16),
            (
                "[a-z0-9-]{0,24}",
                any::<bool>(),
                1u64..600_000,
                any::<bool>(),
                any::<bool>(),
                any::<u64>(),
            ),
        )
            .prop_map(
                |(
                    job_id,
                    request,
                    (with_plan, plan),
                    block_index,
                    (repeat, attempt),
                    (trace_id, with_budget, budget, collect_spans, with_parent, parent),
                )| {
                    Message::Job(JobAssign {
                        job_id,
                        request,
                        fault_plan: with_plan.then_some(plan),
                        block_index,
                        repeat,
                        attempt,
                        trace_id,
                        budget_ms: with_budget.then_some(budget),
                        collect_spans,
                        parent_span: with_parent.then_some(parent),
                    })
                }
            ),
        (any::<u64>(), "[a-z0-9]{1,12}", arb_entry()).prop_map(|(job_id, worker, entry)| {
            Message::Result(JobResult {
                job_id,
                worker,
                entry,
            })
        }),
        (
            (any::<u64>(), "[a-z0-9{}\",:]{0,40}"),
            (0usize..64, 0usize..8),
            arb_outcome(),
        )
            .prop_map(|((job_id, run_key), (block_index, repeat), outcome)| {
                Message::RepeatResult(RepeatResult {
                    job_id,
                    run_key,
                    block_index,
                    repeat,
                    outcome,
                })
            }),
        (
            any::<u64>(),
            proptest::collection::vec(arb_span(), 0..4),
            proptest::collection::vec((any::<u64>(), "[ -~]{0,12}"), 0..3),
        )
            .prop_map(|(job_id, spans, threads)| {
                Message::TraceChunk(TraceChunk {
                    job_id,
                    spans,
                    threads,
                })
            }),
        Just(Message::Heartbeat),
        Just(Message::Goodbye),
    ]
}

/// Spans as they cross the wire in a [`TraceChunk`]. Timestamps stay
/// integral (they are `u64` nanoseconds) so the bitwise round-trip
/// property holds without float-formatting caveats.
fn arb_span() -> impl Strategy<Value = OwnedSpan> {
    (
        ((any::<u64>(), any::<bool>(), any::<u64>()), "[a-z.]{1,16}"),
        (any::<u64>(), any::<u64>(), any::<u64>()),
        proptest::collection::vec(("[a-z_]{1,8}", "[ -~]{0,16}"), 0..3),
    )
        .prop_map(
            |(((id, with_parent, parent), name), (start_ns, dur_ns, tid), args)| OwnedSpan {
                id,
                parent: with_parent.then_some(parent),
                name,
                start_ns,
                dur_ns,
                tid,
                args,
            },
        )
}

/// A reader that hands out at most `chunk` bytes per call — a peer whose
/// TCP segments arrive arbitrarily fragmented.
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

// ---------------------------------------------------------------------------
// Properties
// ---------------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn messages_round_trip_bitwise(message in arb_message()) {
        let frame = message.encode();
        let back = Message::decode(&frame).expect("own encoding decodes");
        prop_assert_eq!(back, message);
        // And through the byte layer too.
        let bytes = frame.encode();
        let reread = read_frame(&mut bytes.as_slice()).unwrap().unwrap();
        prop_assert_eq!(reread, frame);
    }

    #[test]
    fn frames_survive_any_fragmentation(message in arb_message(), chunk in 1usize..16) {
        let bytes = message.encode().encode();
        let mut reader = Dribble { data: &bytes, pos: 0, chunk };
        let frame = read_frame(&mut reader).unwrap().unwrap();
        prop_assert_eq!(Message::decode(&frame).unwrap(), message);
    }

    #[test]
    fn truncated_frames_error_instead_of_hanging_or_panicking(
        message in arb_message(),
        cut_permille in 0usize..1000,
    ) {
        let bytes = message.encode().encode();
        let cut = cut_permille * (bytes.len() - 1) / 1000; // strictly short
        match read_frame(&mut &bytes[..cut]) {
            Ok(None) => prop_assert_eq!(cut, 0, "only zero bytes is a clean close"),
            Ok(Some(_)) => prop_assert!(false, "truncated frame decoded whole"),
            Err(WireError::Io(_)) => {}
            Err(other) => prop_assert!(false, "unexpected error kind: {other}"),
        }
    }

    #[test]
    fn random_bytes_never_panic_the_reader(
        data in proptest::collection::vec(any::<u8>(), 0..512),
        chunk in 1usize..32,
    ) {
        let mut reader = Dribble { data: &data, pos: 0, chunk };
        // The assertion is the absence of a panic; decode whatever frames
        // come out until the stream errors or runs dry.
        while let Ok(Some(frame)) = read_frame(&mut reader) {
            let _ = Message::decode(&frame);
        }
    }

    #[test]
    fn hostile_payload_bytes_never_panic_the_decoder(
        opcode_byte in any::<u8>(),
        payload in proptest::collection::vec(any::<u8>(), 0..256),
    ) {
        let mut bytes = vec![opcode_byte];
        bytes.extend_from_slice(&(payload.len() as u32).to_be_bytes());
        bytes.extend_from_slice(&payload);
        match read_frame(&mut bytes.as_slice()) {
            Ok(Some(frame)) => {
                let _ = Message::decode(&frame); // Ok or Malformed, never panic
            }
            Ok(None) => prop_assert!(false, "non-empty stream read as clean close"),
            Err(WireError::UnknownOpCode(b)) => {
                prop_assert!(OpCode::from_u8(b).is_none());
            }
            Err(_) => {}
        }
    }

    #[test]
    fn mutated_result_payloads_never_panic(
        entry in arb_entry(),
        flip in any::<u8>(),
        at_permille in 0usize..1000,
    ) {
        let mut frame = Message::Result(JobResult {
            job_id: 1,
            worker: "w".to_string(),
            entry,
        })
        .encode();
        let at = at_permille * (frame.payload.len() - 1) / 1000;
        frame.payload[at] ^= flip;
        let _ = Message::decode(&frame); // Ok or Malformed, never panic
    }

    #[test]
    fn mutated_repeat_result_payloads_never_panic(
        outcome in arb_outcome(),
        flip in any::<u8>(),
        at_permille in 0usize..1000,
    ) {
        let mut frame = Message::RepeatResult(RepeatResult {
            job_id: 1,
            run_key: "k".to_string(),
            block_index: 0,
            repeat: 1,
            outcome,
        })
        .encode();
        let at = at_permille * (frame.payload.len() - 1) / 1000;
        frame.payload[at] ^= flip;
        let _ = Message::decode(&frame); // Ok or Malformed, never panic
    }
}

// ---------------------------------------------------------------------------
// Deterministic edge cases
// ---------------------------------------------------------------------------

#[test]
fn oversized_length_claim_is_refused_before_allocation() {
    for claimed in [MAX_FRAME_BYTES as u32 + 1, u32::MAX] {
        let mut bytes = vec![OpCode::Result as u8];
        bytes.extend_from_slice(&claimed.to_be_bytes());
        match read_frame(&mut bytes.as_slice()) {
            Err(WireError::Oversized(n)) => assert_eq!(n, claimed as usize),
            other => panic!("expected Oversized, got {other:?}"),
        }
    }
}

#[test]
fn length_at_the_cap_is_still_accepted() {
    let frame = Frame {
        opcode: OpCode::Job,
        payload: vec![b'x'; 4096],
    };
    let bytes = frame.encode();
    assert_eq!(read_frame(&mut bytes.as_slice()).unwrap().unwrap(), frame);
}

#[test]
fn every_known_opcode_round_trips_and_unknowns_do_not() {
    for op in [
        OpCode::Hello,
        OpCode::HelloAck,
        OpCode::Job,
        OpCode::Result,
        OpCode::Heartbeat,
        OpCode::Goodbye,
        OpCode::TraceChunk,
        OpCode::RepeatResult,
    ] {
        assert_eq!(OpCode::from_u8(op as u8), Some(op));
    }
    assert_eq!(OpCode::from_u8(0), None);
    assert_eq!(OpCode::from_u8(8), None, "8 is retired");
    assert_eq!(OpCode::from_u8(10), None);
    assert_eq!(OpCode::from_u8(255), None);
}

#[test]
fn the_retired_metrics_opcode_is_unknown() {
    // A protocol-3 worker's heartbeat-borne metrics frame, as it sent it.
    let mut bytes = vec![8];
    let payload = br#"{"worker":"w0","jobs_completed":1,"jobs_failed":0,"phase_profile":[]}"#;
    bytes.extend_from_slice(&(payload.len() as u32).to_be_bytes());
    bytes.extend_from_slice(payload);
    match read_frame(&mut bytes.as_slice()) {
        Err(WireError::UnknownOpCode(8)) => {}
        other => panic!("expected UnknownOpCode(8), got {other:?}"),
    }
}

#[test]
fn back_to_back_frames_parse_in_order() {
    let mut bytes = Message::Heartbeat.encode().encode();
    bytes.extend(
        Message::Hello(Hello {
            version: PROTOCOL_VERSION,
            name: "w0".to_string(),
            capacity: 1,
        })
        .encode()
        .encode(),
    );
    bytes.extend(Message::Goodbye.encode().encode());
    let mut reader = bytes.as_slice();
    assert_eq!(
        Message::decode(&read_frame(&mut reader).unwrap().unwrap()).unwrap(),
        Message::Heartbeat
    );
    assert!(matches!(
        Message::decode(&read_frame(&mut reader).unwrap().unwrap()).unwrap(),
        Message::Hello(_)
    ));
    assert_eq!(
        Message::decode(&read_frame(&mut reader).unwrap().unwrap()).unwrap(),
        Message::Goodbye
    );
    assert!(read_frame(&mut reader).unwrap().is_none(), "clean EOF");
}
