//! Record-log fuzzer for both durable formats, CHAMSEG1 (store segments)
//! and CHAMRTE1 (router state): corrupt, truncated, and oversized records
//! must produce typed [`RecordError`]s — never a panic, and never an
//! allocation sized by a hostile length prefix.
//!
//! Mirrors `tests/wire_fuzz.rs` for the shared on-disk framing:
//! structured single-bit/byte mutations at every offset, plus the
//! `chameleon-faults` file damage model (torn tails + tail bit flips)
//! applied to encoded records, so both codecs are fuzzed by the same
//! machinery the store's crash schedules use.

use chameleon_faults::{FaultInjector, FaultPlan, FileFaultModel};
use chameleon_replay::append_log::encode_frame;
use chameleon_route::state::{
    decode_state, decode_state_record, encode_state_record, StateError, StateRecord, STATE_MAGIC,
};
use chameleon_store::{
    check_segment_header, decode_record, encode_record, RecordError, MAX_RECORD_BYTES,
    RECORD_FRAME_BYTES, RECORD_HEADER_BYTES, SEGMENT_MAGIC,
};
use proptest::prelude::*;

/// A fault plan that only damages file tails (here: encoded records).
fn tail_damage_plan(seed: u64) -> FaultPlan {
    FaultPlan::file_faults(
        seed,
        FileFaultModel {
            torn_write_prob: 0.5,
            partial_fsync_prob: 0.0,
            short_read_prob: 0.0,
            bit_flip_prob: 0.8,
        },
    )
}

proptest! {
    #[test]
    fn record_roundtrip_is_identity(
        session in 0u64..u64::MAX,
        seq in 0u64..u64::MAX,
        payload in prop::collection::vec(0u8..=255, 0..256),
    ) {
        let encoded = encode_record(session, seq, &payload);
        prop_assert_eq!(
            encoded.len(),
            RECORD_FRAME_BYTES + RECORD_HEADER_BYTES + payload.len()
        );
        let (record, used) = decode_record(&encoded).expect("roundtrip");
        prop_assert_eq!(record.session, session);
        prop_assert_eq!(record.seq, seq);
        prop_assert_eq!(&record.payload, &payload);
        prop_assert_eq!(used, encoded.len());
    }

    #[test]
    fn truncation_at_every_cut_is_a_typed_error(
        session in 0u64..1_000,
        seq in 0u64..1_000,
        payload in prop::collection::vec(0u8..=255, 0..64),
    ) {
        let encoded = encode_record(session, seq, &payload);
        for cut in 0..encoded.len() {
            let err = decode_record(&encoded[..cut]).unwrap_err();
            // Every cut of an intact record means "wait for more bytes":
            // the length prefix itself is valid, so nothing but
            // Truncated may surface. Anything else would misread
            // intact bytes (and break torn-tail recovery, which leans
            // on this distinction).
            prop_assert!(matches!(err, RecordError::Truncated),
                "cut {} gave {:?}", cut, err);
        }
    }

    #[test]
    fn single_bit_flip_never_decodes_to_the_original(
        session in 0u64..1_000,
        seq in 0u64..1_000,
        payload in prop::collection::vec(0u8..=255, 0..64),
        byte_frac in 0.0f64..1.0,
        bit in 0u64..8,
    ) {
        let encoded = encode_record(session, seq, &payload);
        let index = ((byte_frac * encoded.len() as f64) as usize).min(encoded.len() - 1);
        let mut mutated = encoded.clone();
        mutated[index] ^= 1u8 << bit;
        match decode_record(&mutated) {
            // CRC32 detects all single-bit body/trailer errors; length
            // damage is caught structurally (Truncated / Oversized /
            // BadLength) or by the CRC over the re-sliced body.
            Ok((record, _)) => prop_assert!(
                record.session != session || record.seq != seq || record.payload != payload,
                "flipped record decoded to the original"
            ),
            Err(
                RecordError::Truncated
                | RecordError::Oversized { .. }
                | RecordError::BadLength { .. }
                | RecordError::BadChecksum { .. },
            ) => {}
            Err(other) => prop_assert!(false, "unexpected error {:?}", other),
        }
    }

    #[test]
    fn oversized_length_prefix_is_rejected_before_allocation(
        len in (MAX_RECORD_BYTES as u64 + 1..=u32::MAX as u64),
        noise in prop::collection::vec(0u8..=255, 0..16),
    ) {
        // Hostile length prefix with a few noise bytes behind it. If
        // decode sized a buffer from the prefix this test would OOM
        // long before failing an assertion.
        let mut bytes = (len as u32).to_le_bytes().to_vec();
        bytes.extend_from_slice(&noise);
        let err = decode_record(&bytes).unwrap_err();
        prop_assert!(matches!(err, RecordError::Oversized { .. }), "{:?}", err);
    }

    #[test]
    fn undersized_length_prefix_is_a_typed_error(
        len in 0u32..(RECORD_HEADER_BYTES as u32),
        noise in prop::collection::vec(0u8..=255, 0..64),
    ) {
        // A body shorter than the session+seq header cannot be a record.
        let mut bytes = len.to_le_bytes().to_vec();
        bytes.extend_from_slice(&noise);
        let err = decode_record(&bytes).unwrap_err();
        prop_assert!(matches!(err, RecordError::BadLength { .. }), "{:?}", err);
    }

    #[test]
    fn garbage_bytes_never_panic_the_decoder(
        bytes in prop::collection::vec(0u8..=255, 0..96),
    ) {
        // Any outcome is fine — typed error or a successful decode of
        // accidentally self-describing bytes — as long as nothing
        // panics and no attacker-sized allocation happens.
        let _ = decode_record(&bytes);
        let _ = check_segment_header(&bytes);
    }

    #[test]
    fn fault_injected_tail_damage_is_detected(
        seed in 0u64..10_000,
        session in 0u64..1_000,
        seq in 0u64..1_000,
        payload in prop::collection::vec(0u8..=255, 1..64),
    ) {
        let encoded = encode_record(session, seq, &payload);
        let mut injector = FaultInjector::new(tail_damage_plan(seed));
        let mut damaged = encoded.clone();
        let _ = injector.crash_damage(&mut damaged);

        if damaged == encoded {
            let (record, _) = decode_record(&damaged).expect("intact record");
            prop_assert_eq!(record.payload, payload);
        } else {
            // Torn or flipped: the decoder must refuse it — this is the
            // exact property the store's open-time torn-tail scan
            // relies on to find the last sealed record.
            prop_assert!(decode_record(&damaged).is_err());
        }
    }
}

/// A CHAMRTE1 record of opcode `op % 3` (pin, unpin, shadow) built from
/// fuzzed fields.
fn state_record(op: u8, session: u64, seq: u64, payload: &[u8]) -> StateRecord {
    match op % 3 {
        0 => StateRecord::Pin {
            session,
            addr: payload.iter().map(|b| char::from(b'0' + b % 10)).collect(),
        },
        1 => StateRecord::Unpin { session },
        _ => StateRecord::Shadow {
            session,
            seq,
            blob: payload.to_vec(),
        },
    }
}

proptest! {
    #[test]
    fn chamrte1_truncation_at_every_cut_is_a_typed_error(
        op in 0u8..3,
        session in 0u64..1_000,
        seq in 0u64..1_000,
        payload in prop::collection::vec(0u8..=255, 0..64),
    ) {
        let encoded = encode_state_record(&state_record(op, session, seq, &payload));
        for cut in 0..encoded.len() {
            let err = decode_state_record(&encoded[..cut]).unwrap_err();
            prop_assert_eq!(&err, &StateError::Record(RecordError::Truncated), "cut {}", cut);
            // Replayed as a log tail, the cut is a torn tail: nothing
            // replays and the clean prefix is the header.
            let mut log = STATE_MAGIC.to_vec();
            log.extend_from_slice(&encoded[..cut]);
            let decoded = decode_state(&log).expect("magic intact");
            prop_assert_eq!(decoded.records, 0);
            prop_assert_eq!(decoded.clean_len, STATE_MAGIC.len());
            let torn = (cut > 0).then_some(StateError::Record(RecordError::Truncated));
            prop_assert_eq!(decoded.damage, torn, "cut {}", cut);
        }
    }

    #[test]
    fn chamrte1_oversized_length_prefix_is_rejected_before_allocation(
        len in (MAX_RECORD_BYTES as u64 + 1..=u32::MAX as u64),
        noise in prop::collection::vec(0u8..=255, 0..16),
    ) {
        let mut bytes = (len as u32).to_le_bytes().to_vec();
        bytes.extend_from_slice(&noise);
        let err = decode_state_record(&bytes).unwrap_err();
        prop_assert!(
            matches!(err, StateError::Record(RecordError::Oversized { .. })),
            "{:?}", err
        );
    }

    #[test]
    fn chamrte1_garbage_bytes_never_panic_the_decoder(
        bytes in prop::collection::vec(0u8..=255, 0..96),
    ) {
        let _ = decode_state_record(&bytes);
        let _ = decode_state(&bytes);
        let mut log = STATE_MAGIC.to_vec();
        log.extend_from_slice(&bytes);
        let _ = decode_state(&log);
    }

    #[test]
    fn chamrte1_fault_injected_tail_damage_is_detected(
        seed in 0u64..10_000,
        op in 0u8..3,
        session in 0u64..1_000,
        seq in 0u64..1_000,
        payload in prop::collection::vec(0u8..=255, 1..64),
    ) {
        let record = state_record(op, session, seq, &payload);
        let encoded = encode_state_record(&record);
        let mut injector = FaultInjector::new(tail_damage_plan(seed));
        let mut damaged = encoded.clone();
        let _ = injector.crash_damage(&mut damaged);

        if damaged == encoded {
            let (decoded, _) = decode_state_record(&damaged).expect("intact record");
            prop_assert_eq!(decoded, record);
        } else {
            // Torn or flipped: the decoder must refuse it — the property
            // the router's open-time replay relies on to stop at the
            // last sealed record.
            prop_assert!(decode_state_record(&damaged).is_err());
        }
    }

    #[test]
    fn chamrte1_unknown_opcode_is_a_typed_error(
        op in 0u8..=255,
        session in 0u64..1_000,
        rest in prop::collection::vec(0u8..=255, 0..32),
    ) {
        prop_assume!(!(1..=3).contains(&op));
        let framed = encode_frame(&[&[op], &session.to_le_bytes(), &rest]);
        prop_assert_eq!(decode_state_record(&framed).unwrap_err(), StateError::BadOp { op });
    }

    #[test]
    fn chamrte1_non_utf8_pin_address_is_a_typed_error(
        session in 0u64..1_000,
        prefix in prop::collection::vec(b'a'..=b'z', 0..16),
    ) {
        // Opcode 0x01 is a pin; 0xFF never occurs in UTF-8.
        let mut addr = prefix;
        addr.push(0xFF);
        let framed = encode_frame(&[&[0x01], &session.to_le_bytes(), &addr]);
        prop_assert_eq!(decode_state_record(&framed).unwrap_err(), StateError::BadUtf8);
    }
}

/// Deterministic exhaustive sweep alongside the randomized cases: every
/// single-byte truncation and every single-bit XOR of a realistic
/// sealed record, plus the segment header gate.
#[test]
fn exhaustive_single_byte_damage_on_a_real_record() {
    let payload: Vec<u8> = (0u8..32).collect();
    let encoded = encode_record(42, 7, &payload);
    for cut in 0..encoded.len() {
        assert_eq!(
            decode_record(&encoded[..cut]).unwrap_err(),
            RecordError::Truncated,
            "cut {cut}"
        );
    }
    for index in 0..encoded.len() {
        for bit in 0..8u8 {
            let mut mutated = encoded.clone();
            mutated[index] ^= 1 << bit;
            if let Ok((record, _)) = decode_record(&mutated) {
                assert!(
                    record.session != 42 || record.seq != 7 || record.payload != payload,
                    "index {index} bit {bit} decoded to the original"
                );
            }
        }
    }

    assert!(check_segment_header(SEGMENT_MAGIC).is_ok());
    assert_eq!(
        check_segment_header(&SEGMENT_MAGIC[..7]).unwrap_err(),
        RecordError::Truncated
    );
    let mut wrong = *SEGMENT_MAGIC;
    wrong[7] ^= 1;
    assert_eq!(
        check_segment_header(&wrong).unwrap_err(),
        RecordError::BadMagic
    );
}
