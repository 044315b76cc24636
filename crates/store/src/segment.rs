//! The pure `CHAMSEG1` record body layout: bytes only, no I/O.
//!
//! The store's `SESSIONS.log` is a [`chameleon_replay::append_log`]
//! opening with the magic `"CHAMSEG1"`; the shared log owns the record
//! framing, length cap and torn-tail rule. Each record body is:
//!
//! ```text
//! body = session:u64 LE | seq:u64 LE | payload
//! ```
//!
//! A record whose checksum verifies is *sealed* and is the unit of
//! durability the store's fsync contract speaks about. A length prefix
//! too short for the 16-byte session/seq header is refused as
//! [`RecordError::BadLength`] before the truncation check; no input can
//! panic the decoder (see `tests/store_fuzz.rs`).

use chameleon_replay::append_log::{
    check_header, decode_frame, encode_frame, RecordError, MAX_RECORD_BYTES,
};

/// Magic bytes opening the store's log file.
pub const SEGMENT_MAGIC: &[u8; 8] = b"CHAMSEG1";

/// Body bytes before the payload: session id + sequence number.
pub const RECORD_HEADER_BYTES: usize = 8 + 8;

/// One decoded `CHAMSEG1` record.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Record {
    /// Session the checkpoint belongs to.
    pub session: u64,
    /// Monotone per-session sequence number (0 for the first append).
    pub seq: u64,
    /// The sealed payload (a `CHAMFLT1` checkpoint blob in production).
    pub payload: Vec<u8>,
}

/// Encodes one record: length-prefixed body sealed with a CRC32 trailer.
///
/// # Panics
/// Panics if `payload` would push the body over [`MAX_RECORD_BYTES`];
/// callers control payload sizes and never approach the cap.
pub fn encode_record(session: u64, seq: u64, payload: &[u8]) -> Vec<u8> {
    assert!(
        RECORD_HEADER_BYTES + payload.len() <= MAX_RECORD_BYTES,
        "record payload over cap"
    );
    encode_frame(&[&session.to_le_bytes(), &seq.to_le_bytes(), payload])
}

/// Splits a verified body into its session, sequence and payload. The
/// frame decoder guarantees the body holds the 16-byte header.
pub(crate) fn split_body(body: &[u8]) -> (u64, u64, &[u8]) {
    let word = |at: usize| u64::from_le_bytes(body[at..at + 8].try_into().expect("8 bytes"));
    (word(0), word(8), &body[RECORD_HEADER_BYTES..])
}

/// Decodes the record starting at the front of `bytes`, returning it with
/// the number of bytes consumed.
///
/// # Errors
/// [`RecordError::Truncated`] when `bytes` ends mid-record,
/// [`RecordError::Oversized`]/[`RecordError::BadLength`] for impossible
/// length prefixes (checked before any slicing or allocation), and
/// [`RecordError::BadChecksum`] when the sealed CRC does not match.
pub fn decode_record(bytes: &[u8]) -> Result<(Record, usize), RecordError> {
    let (body, used) = decode_frame(bytes, RECORD_HEADER_BYTES)?;
    let (session, seq, payload) = split_body(body);
    let payload = payload.to_vec();
    Ok((
        Record {
            session,
            seq,
            payload,
        },
        used,
    ))
}

/// Checks that `bytes` opens with the `CHAMSEG1` magic.
///
/// # Errors
/// [`RecordError::Truncated`] if fewer than 8 bytes are present,
/// [`RecordError::BadMagic`] if they are not `"CHAMSEG1"`.
pub fn check_segment_header(bytes: &[u8]) -> Result<(), RecordError> {
    check_header(bytes, SEGMENT_MAGIC)
}

#[cfg(test)]
mod tests {
    use super::*;
    use chameleon_replay::append_log::RECORD_FRAME_BYTES;

    #[test]
    fn roundtrip_is_identity() {
        let payload = vec![7u8, 0, 255, 42];
        let encoded = encode_record(9, 3, &payload);
        let (record, used) = decode_record(&encoded).expect("roundtrip");
        assert_eq!(used, encoded.len());
        assert_eq!(record.session, 9);
        assert_eq!(record.seq, 3);
        assert_eq!(record.payload, payload);
    }

    #[test]
    fn empty_payload_roundtrips() {
        let encoded = encode_record(0, 0, &[]);
        let (record, used) = decode_record(&encoded).expect("empty payload");
        assert_eq!(used, RECORD_FRAME_BYTES + RECORD_HEADER_BYTES);
        assert!(record.payload.is_empty());
    }

    #[test]
    fn every_truncation_is_truncated() {
        let encoded = encode_record(1, 2, b"abcdef");
        for cut in 0..encoded.len() {
            assert_eq!(
                decode_record(&encoded[..cut]).unwrap_err(),
                RecordError::Truncated,
                "cut {cut}"
            );
        }
    }

    #[test]
    fn oversized_prefix_rejected_before_body() {
        let mut bytes = ((MAX_RECORD_BYTES as u32) + 1).to_le_bytes().to_vec();
        bytes.extend_from_slice(&[0u8; 8]);
        assert!(matches!(
            decode_record(&bytes).unwrap_err(),
            RecordError::Oversized { .. }
        ));
    }

    #[test]
    fn undersized_prefix_is_bad_length() {
        let mut bytes = 3u32.to_le_bytes().to_vec();
        bytes.extend_from_slice(&[0u8; 16]);
        assert_eq!(
            decode_record(&bytes).unwrap_err(),
            RecordError::BadLength { len: 3 }
        );
    }

    #[test]
    fn flipped_body_bit_is_a_checksum_error() {
        let mut encoded = encode_record(4, 5, b"payload");
        let i = encoded.len() / 2;
        encoded[i] ^= 0x10;
        assert!(matches!(
            decode_record(&encoded).unwrap_err(),
            RecordError::BadChecksum { .. }
        ));
    }

    #[test]
    fn header_check_accepts_magic_and_rejects_noise() {
        let mut bytes = SEGMENT_MAGIC.to_vec();
        bytes.extend_from_slice(&encode_record(1, 0, b"x"));
        assert!(check_segment_header(&bytes).is_ok());
        assert_eq!(check_segment_header(b"CHAM"), Err(RecordError::Truncated));
        assert_eq!(
            check_segment_header(b"CHAMWIRE"),
            Err(RecordError::BadMagic)
        );
    }
}
