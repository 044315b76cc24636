//! CHAMWIRE frame fuzzer: corrupt, truncated, and oversized frames must
//! produce typed [`WireError`]s — never a panic, and never an allocation
//! sized by attacker-controlled length prefixes.
//!
//! Corruption is driven two ways: structured single-bit/byte mutations at
//! every offset, and the `chameleon-faults` checkpoint damage model
//! (truncation + XOR bursts) applied to encoded frames, so the wire codec
//! is fuzzed by the same machinery the rest of the repo uses for storage
//! faults.

use chameleon_faults::{
    CheckpointFaultModel, FaultInjector, FaultPlan, FileFaultModel, MemoryFaultModel,
    StreamFaultModel,
};
use chameleon_serve::wire::{
    decode_frame, encode_frame, ErrorCode, Request, Response, WireError, FRAME_OVERHEAD,
    MAX_PAYLOAD_BYTES, WIRE_MAGIC,
};
use proptest::prelude::*;

/// A fault plan that only damages "checkpoints" (here: encoded frames).
fn frame_damage_plan(seed: u64) -> FaultPlan {
    FaultPlan {
        seed,
        memory: MemoryFaultModel::disabled(),
        checkpoint: CheckpointFaultModel {
            truncate_prob: 0.5,
            corrupt_prob: 1.0,
            max_corrupt_bytes: 16,
        },
        stream: StreamFaultModel::disabled(),
        file: FileFaultModel::disabled(),
    }
}

proptest! {
    #[test]
    fn frame_roundtrip_is_identity(
        payload in prop::collection::vec(0u8..=255, 9..256),
    ) {
        let frame = encode_frame(&payload);
        prop_assert_eq!(frame.len(), payload.len() + FRAME_OVERHEAD);
        let (decoded, used) = decode_frame(&frame, MAX_PAYLOAD_BYTES).expect("roundtrip");
        prop_assert_eq!(&decoded, &payload);
        prop_assert_eq!(used, frame.len());
    }

    #[test]
    fn truncation_at_every_cut_is_a_typed_error(
        payload in prop::collection::vec(0u8..=255, 9..64),
    ) {
        let frame = encode_frame(&payload);
        for cut in 0..frame.len() {
            let err = decode_frame(&frame[..cut], MAX_PAYLOAD_BYTES).unwrap_err();
            // A cut inside the magic can only yield Truncated (waiting for
            // more bytes); anything after the full prefix arrived is also
            // Truncated. BadMagic would mean we misread intact bytes.
            prop_assert!(matches!(err, WireError::Truncated),
                "cut {} gave {:?}", cut, err);
        }
    }

    #[test]
    fn single_bit_flip_never_decodes_to_the_original(
        payload in prop::collection::vec(0u8..=255, 9..64),
        byte_frac in 0.0f64..1.0,
        bit in 0u64..8,
    ) {
        let frame = encode_frame(&payload);
        let index = ((byte_frac * frame.len() as f64) as usize).min(frame.len() - 1);
        let mut mutated = frame.clone();
        mutated[index] ^= 1u8 << bit;
        match decode_frame(&mutated, MAX_PAYLOAD_BYTES) {
            // CRC32 detects all single-bit payload/footer errors; magic and
            // length damage is caught structurally. The only decode that may
            // "succeed" is a shrunken length prefix whose bytes accidentally
            // self-describe — and then the payload cannot equal the original.
            Ok((decoded, _)) => prop_assert_ne!(decoded, payload),
            Err(
                WireError::BadMagic
                | WireError::Truncated
                | WireError::Oversized { .. }
                | WireError::BadChecksum { .. },
            ) => {}
            Err(other) => prop_assert!(false, "unexpected error {:?}", other),
        }
    }

    #[test]
    fn oversized_length_prefix_is_rejected_before_allocation(
        len in (MAX_PAYLOAD_BYTES as u64 + 1..=u32::MAX as u64),
    ) {
        // Header only: magic + hostile length. If decode tried to allocate
        // `len` bytes up front this test would OOM long before failing.
        let mut bytes = Vec::from(&WIRE_MAGIC[..]);
        bytes.extend_from_slice(&(len as u32).to_le_bytes());
        let err = decode_frame(&bytes, MAX_PAYLOAD_BYTES).unwrap_err();
        prop_assert!(matches!(err, WireError::Oversized { .. }), "{:?}", err);
    }

    #[test]
    fn small_payload_cap_is_honored(
        payload in prop::collection::vec(0u8..=255, 9..128),
        cap in 1usize..9,
    ) {
        let frame = encode_frame(&payload);
        let err = decode_frame(&frame, cap).unwrap_err();
        prop_assert!(matches!(err, WireError::Oversized { max, .. } if max == cap as u64),
            "{:?}", err);
    }

    #[test]
    fn garbage_payloads_never_panic_request_or_response_decode(
        payload in prop::collection::vec(0u8..=255, 0..96),
    ) {
        // Any outcome is fine — typed error or a successful decode of a
        // syntactically valid payload — as long as nothing panics and no
        // attacker-sized allocation happens.
        let _ = Request::decode_payload(&payload);
        let _ = Response::decode_payload(&payload);
    }

    #[test]
    fn fault_injected_frame_damage_is_detected(
        seed in 0u64..10_000,
        correlation in 0u64..u64::MAX,
        session in 0u64..1_000,
        batches in 1u32..64,
    ) {
        let request = Request::Step { session, batches };
        let payload = request.encode_payload(correlation);
        let frame = encode_frame(&payload);

        let mut injector = FaultInjector::new(frame_damage_plan(seed));
        let mut damaged = frame.clone();
        let _ = injector.corrupt_checkpoint(&mut damaged);

        if damaged == frame {
            // XOR bursts can cancel out (same byte hit twice); an intact
            // frame must still decode to the original request.
            let (decoded, _) = decode_frame(&damaged, MAX_PAYLOAD_BYTES).expect("intact");
            prop_assert_eq!(Request::decode_payload(&decoded).expect("intact payload").1, request);
        } else {
            if let Ok((decoded, _)) = decode_frame(&damaged, MAX_PAYLOAD_BYTES) {
                prop_assert_ne!(decoded, payload);
            }
        }
    }

    #[test]
    fn request_payloads_roundtrip(
        correlation in 0u64..u64::MAX,
        session in 0u64..u64::MAX,
        batches in 0u32..u32::MAX,
        blob in prop::collection::vec(0u8..=255, 0..64),
        which in 0u8..8,
    ) {
        let request = match which {
            0 => Request::Ping,
            1 => Request::Step { session, batches },
            2 => Request::Predict { session },
            3 => Request::Checkpoint { session },
            4 => Request::Observe,
            5 => Request::HandoffExport { session },
            6 => Request::Handoff { session, blob: blob.clone() },
            _ => Request::Evict { session },
        };
        let payload = request.encode_payload(correlation);
        let (corr, decoded) = Request::decode_payload(&payload).expect("roundtrip");
        prop_assert_eq!(corr, correlation);
        prop_assert_eq!(decoded, request);
    }

    #[test]
    fn response_payloads_roundtrip(
        correlation in 0u64..u64::MAX,
        delivered in 0u32..u32::MAX,
        millis in 0u32..u32::MAX,
        blob in prop::collection::vec(0u8..=255, 0..64),
        acc in 0.0f32..100.0,
        per_domain in prop::collection::vec(0.0f32..100.0, 0..8),
        which in 0u8..9,
    ) {
        let response = match which {
            0 => Response::Pong,
            1 => Response::Stepped { delivered, done: delivered % 2 == 0 },
            2 => Response::Checkpointed(blob.clone()),
            3 => Response::RetryAfter { millis },
            4 => Response::Error {
                code: ErrorCode::BadRequest,
                message: format!("detail {delivered}"),
            },
            5 => {
                let mut observation = chameleon_obs::Observation::default();
                observation.push_counter(format!("serve.c{delivered}"), u64::from(millis));
                Response::Observed(Box::new(observation))
            }
            6 => Response::HandoffExported(blob.clone()),
            7 => Response::HandoffAck,
            _ => Response::Predicted(chameleon_serve::wire::PredictSummary {
                acc_all: acc,
                per_domain: per_domain.clone(),
                per_class: vec![acc; 3],
                memory_overhead_mb: f64::from(acc) / 4.0,
            }),
        };
        let payload = response.encode_payload(correlation);
        let (corr, decoded) = Response::decode_payload(&payload).expect("roundtrip");
        prop_assert_eq!(corr, correlation);
        prop_assert_eq!(decoded, response);
    }
}

/// Deterministic exhaustive sweep alongside the randomized cases: every
/// single-byte truncation and every single-byte XOR of a realistic frame.
#[test]
fn exhaustive_single_byte_damage_on_a_real_request_frame() {
    let payload = Request::Step {
        session: 42,
        batches: 7,
    }
    .encode_payload(0xDEAD_BEEF);
    let frame = encode_frame(&payload);
    for cut in 0..frame.len() {
        assert!(decode_frame(&frame[..cut], MAX_PAYLOAD_BYTES).is_err());
    }
    for index in 0..frame.len() {
        for bit in 0..8u8 {
            let mut mutated = frame.clone();
            mutated[index] ^= 1 << bit;
            if let Ok((decoded, _)) = decode_frame(&mutated, MAX_PAYLOAD_BYTES) {
                assert_ne!(decoded, payload, "index {index} bit {bit}");
            }
        }
    }
}
