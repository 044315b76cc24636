//! Durable router state: the CHAMRTE1 append-only log.
//!
//! A router started with a state directory persists every pin-table
//! update and shadow-checkpoint refresh as it happens, so a restarted
//! router (including one that was SIGKILLed) resumes routing, pinning,
//! and failover without re-learning placement — the restart-amnesia
//! failure mode is gone.
//!
//! The file is a [`chameleon_replay::append_log`] opening with the magic
//! `"CHAMRTE1"` — the same framing, length cap, open, torn-tail
//! truncation and atomic replace as the store's CHAMSEG1 log (DESIGN.md
//! §12). Record bodies are `op:u8 | session:u64 LE | ...`:
//!
//! * `OP_PIN` — `addr` bytes (UTF-8): the session is pinned to the
//!   backend listening at `addr`. Pins are keyed by address, not index,
//!   so recovery maps onto whatever `--backends` order the restarted
//!   router was given; a pin whose address is no longer listed is
//!   dropped (and counted).
//! * `OP_UNPIN` — the pin is removed.
//! * `OP_SHADOW` — `seq:u64 LE | blob`: the session's shadow checkpoint,
//!   stamped one past the session's previous shadow.
//!
//! Later records win, so replaying the log front to back reproduces the
//! router's final image — except shadow records, where the *highest
//! sequence stamp* wins. The router writes a session's shadows under its
//! op lock, so they reach the log in stamp order and both rules keep the
//! same record; the stamp rule stays so that logs written by older
//! routers, whose refreshes of one session could land out of order,
//! replay to the newest checkpoint. When the log grows well past its
//! live size it is compacted: the current image atomically replaces the
//! log.
//!
//! The codec half of this module (`encode_*`, [`decode_state`]) is pure
//! — no I/O — for the golden corpus, the fuzz suites and the benchmark's
//! probes. A restarted router, including the simtest route explorer's,
//! recovers through [`StateLog::open`] on the file itself.

use std::collections::HashMap;
use std::path::Path;

use chameleon_fleet::SessionId;
use chameleon_replay::append_log::{self, AppendLog, RecordError, RECORD_FRAME_BYTES};

/// File magic opening a CHAMRTE1 router-state log.
pub const STATE_MAGIC: &[u8; 8] = b"CHAMRTE1";

const OP_PIN: u8 = 0x01;
const OP_UNPIN: u8 = 0x02;
const OP_SHADOW: u8 = 0x03;

/// Smallest body: op byte + session id.
const MIN_BODY_BYTES: usize = 9;

/// One replayable router-state mutation.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum StateRecord {
    /// Pin `session` to the backend at `addr`.
    Pin {
        /// The pinned session.
        session: SessionId,
        /// The owning backend's listen address.
        addr: String,
    },
    /// Remove `session`'s pin.
    Unpin {
        /// The unpinned session.
        session: SessionId,
    },
    /// Replace `session`'s shadow checkpoint.
    Shadow {
        /// The shadowed session.
        session: SessionId,
        /// Shadow stamp: one past the session's previous one.
        seq: u64,
        /// CHAMFLT checkpoint bytes.
        blob: Vec<u8>,
    },
}

/// Why a CHAMRTE1 log (or record) failed to decode. Every way of
/// *shortening* a valid log is the shared [`RecordError::Truncated`] (a
/// torn tail, recoverable by truncation); everything else is damage.
#[derive(Clone, PartialEq, Eq)]
pub enum StateError {
    /// A shared header or framing failure, or
    /// [`RecordError::BadLength`] for a body too short for its opcode's
    /// fixed fields.
    Record(RecordError),
    /// An unknown opcode byte.
    BadOp {
        /// The opcode as read.
        op: u8,
    },
    /// A pin record's address bytes are not UTF-8.
    BadUtf8,
}

impl From<RecordError> for StateError {
    fn from(error: RecordError) -> Self {
        Self::Record(error)
    }
}

// Transparent over the shared error, so a torn tail reads `Truncated` in
// both formats' diagnostics.
impl std::fmt::Debug for StateError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::Record(error) => std::fmt::Debug::fmt(error, f),
            Self::BadOp { op } => f.debug_struct("BadOp").field("op", op).finish(),
            Self::BadUtf8 => f.write_str("BadUtf8"),
        }
    }
}

impl std::fmt::Display for StateError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::Record(error) => write!(f, "CHAMRTE1 state log: {error}"),
            Self::BadOp { op } => write!(f, "unknown state record opcode {op:#04x}"),
            Self::BadUtf8 => write!(f, "pin record address is not UTF-8"),
        }
    }
}

impl std::error::Error for StateError {}

/// Encodes a pin record (framed, ready to append).
pub fn encode_pin(session: SessionId, addr: &str) -> Vec<u8> {
    append_log::encode_frame(&[&[OP_PIN], &session.to_le_bytes(), addr.as_bytes()])
}

/// Encodes an unpin record (framed, ready to append).
pub fn encode_unpin(session: SessionId) -> Vec<u8> {
    append_log::encode_frame(&[&[OP_UNPIN], &session.to_le_bytes()])
}

/// Encodes a shadow-checkpoint record (framed, ready to append).
pub fn encode_shadow(session: SessionId, seq: u64, blob: &[u8]) -> Vec<u8> {
    append_log::encode_frame(&[
        &[OP_SHADOW],
        &session.to_le_bytes(),
        &seq.to_le_bytes(),
        blob,
    ])
}

/// Encodes a [`StateRecord`] (framed, ready to append).
pub fn encode_state_record(record: &StateRecord) -> Vec<u8> {
    match record {
        StateRecord::Pin { session, addr } => encode_pin(*session, addr),
        StateRecord::Unpin { session } => encode_unpin(*session),
        StateRecord::Shadow { session, seq, blob } => encode_shadow(*session, *seq, blob),
    }
}

/// Decodes the record at the front of `bytes`, returning it and the
/// number of bytes consumed.
///
/// # Errors
///
/// Any shortening of a valid record is [`RecordError::Truncated`]; other
/// variants report the specific damage. Body lengths are checked only
/// once the checksum has verified the body.
pub fn decode_state_record(bytes: &[u8]) -> Result<(StateRecord, usize), StateError> {
    let (body, used) = append_log::decode_frame(bytes, 0)?;
    let bad_length = || RecordError::BadLength {
        len: body.len() as u64,
    };
    if body.len() < MIN_BODY_BYTES {
        return Err(bad_length().into());
    }
    let session = u64::from_le_bytes(body[1..9].try_into().expect("8 bytes"));
    let rest = &body[MIN_BODY_BYTES..];
    let record = match body[0] {
        OP_PIN => StateRecord::Pin {
            session,
            addr: std::str::from_utf8(rest)
                .map_err(|_| StateError::BadUtf8)?
                .to_string(),
        },
        OP_UNPIN if rest.is_empty() => StateRecord::Unpin { session },
        OP_SHADOW if rest.len() >= 8 => StateRecord::Shadow {
            session,
            seq: u64::from_le_bytes(rest[..8].try_into().expect("8 bytes")),
            blob: rest[8..].to_vec(),
        },
        OP_UNPIN | OP_SHADOW => return Err(bad_length().into()),
        op => return Err(StateError::BadOp { op }),
    };
    Ok((record, used))
}

/// The router image a log replays to: the pin table (by backend address)
/// and the shadow table (seq-stamped checkpoint blobs).
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct RouterImage {
    /// session → owning backend address.
    pub pins: HashMap<SessionId, String>,
    /// session → (shadow stamp, checkpoint blob).
    pub shadows: HashMap<SessionId, (u64, Vec<u8>)>,
}

impl RouterImage {
    /// Applies one record (later records win, except a shadow stamped
    /// *older* than the one already held, which is dropped — see the
    /// module docs on the highest-stamp rule).
    pub fn apply(&mut self, record: StateRecord) {
        match record {
            StateRecord::Pin { session, addr } => {
                self.pins.insert(session, addr);
            }
            StateRecord::Unpin { session } => {
                self.pins.remove(&session);
            }
            StateRecord::Shadow { session, seq, blob } => {
                if matches!(self.shadows.get(&session), Some((held, _)) if *held > seq) {
                    return;
                }
                self.shadows.insert(session, (seq, blob));
            }
        }
    }

    /// Bytes a compacted log of this image would occupy (framing
    /// included) — the live size the compaction trigger compares against.
    pub fn encoded_len(&self) -> u64 {
        let mut total = STATE_MAGIC.len() as u64;
        for addr in self.pins.values() {
            total += (RECORD_FRAME_BYTES + MIN_BODY_BYTES + addr.len()) as u64;
        }
        for (_, blob) in self.shadows.values() {
            total += (RECORD_FRAME_BYTES + MIN_BODY_BYTES + 8 + blob.len()) as u64;
        }
        total
    }

    /// Serializes the image as a fresh, minimal log (magic + one record
    /// per live pin/shadow, in sorted session order for determinism).
    pub fn encode(&self) -> Vec<u8> {
        let mut out = STATE_MAGIC.to_vec();
        let mut pins: Vec<_> = self.pins.iter().collect();
        pins.sort_by_key(|(session, _)| **session);
        for (session, addr) in pins {
            out.extend_from_slice(&encode_pin(*session, addr));
        }
        let mut shadows: Vec<_> = self.shadows.iter().collect();
        shadows.sort_by_key(|(session, _)| **session);
        for (session, (seq, blob)) in shadows {
            out.extend_from_slice(&encode_shadow(*session, *seq, blob));
        }
        out
    }
}

/// Decodes the record at the front of `rest` into `image`, returning the
/// bytes it used: the one replay step of [`decode_state`] and
/// [`StateLog::open`].
fn replay_record(image: &mut RouterImage, rest: &[u8]) -> Result<usize, StateError> {
    let (record, used) = decode_state_record(rest)?;
    image.apply(record);
    Ok(used)
}

/// Replays a whole log image from bytes (magic + records).
///
/// Returns the image replayed from the clean prefix, where that prefix
/// ends (`bytes.len()` for a clean log), and why replay stopped early:
/// `damage` is `None` for a clean log, `Some(Truncated)` for a torn tail
/// (the expected signature of a crash mid-append, including a partially
/// written header), and any other error for mid-file damage — recovered
/// by the same truncation, but worth counting separately.
///
/// # Errors
///
/// [`RecordError::BadMagic`] if the bytes do not open with (a prefix of)
/// [`STATE_MAGIC`].
pub fn decode_state(bytes: &[u8]) -> Result<DecodedState, StateError> {
    let head = bytes.len().min(STATE_MAGIC.len());
    if bytes[..head] != STATE_MAGIC[..head] {
        return Err(RecordError::BadMagic.into());
    }
    let mut image = RouterImage::default();
    let mut records = 0u64;
    let scanned = append_log::scan(bytes, STATE_MAGIC, |_, rest| {
        let used = replay_record(&mut image, rest)?;
        records += 1;
        Ok(used)
    });
    let (clean_len, damage) = match scanned {
        Ok(scanned) => scanned,
        // An empty or partially written header: nothing to replay.
        Err(error) => (bytes.len(), (!bytes.is_empty()).then(|| error.into())),
    };
    Ok(DecodedState {
        image,
        clean_len,
        records,
        damage,
    })
}

/// Result of replaying a log's bytes: the image from the clean prefix,
/// where that prefix ends, and what (if anything) stopped replay.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct DecodedState {
    /// Image replayed from the clean prefix.
    pub image: RouterImage,
    /// Byte offset the clean prefix ends at.
    pub clean_len: usize,
    /// Records replayed.
    pub records: u64,
    /// `None` for a clean log; `Some(Truncated)` for a torn tail;
    /// anything else is mid-file damage (still recovered by truncation,
    /// but worth counting separately).
    pub damage: Option<StateError>,
}

/// Counters the state log keeps about itself, surfaced through the
/// router's observation under `route.state_*` names.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct StateLogCounters {
    /// Records appended since open.
    pub appends: u64,
    /// Bytes appended since open (framing included).
    pub append_bytes: u64,
    /// Compactions performed.
    pub compactions: u64,
    /// Bytes truncated off the tail at open (0 for a clean log).
    pub truncated_bytes: u64,
    /// Bytes in the log file now, header included.
    pub log_bytes: u64,
}

impl StateLogCounters {
    /// The counters as `route.state_*` name/value pairs, in the order the
    /// router's `Observation` carries them. Every report of this block
    /// iterates this list.
    #[must_use]
    pub fn named(&self) -> Vec<(String, u64)> {
        [
            ("route.state_appends", self.appends),
            ("route.state_append_bytes", self.append_bytes),
            ("route.state_compactions", self.compactions),
            ("route.state_truncated_bytes", self.truncated_bytes),
            ("route.state_log_bytes", self.log_bytes),
        ]
        .map(|(name, value)| (name.to_string(), value))
        .into()
    }
}

/// The file-backed CHAMRTE1 log. Appends are written and fsynced before
/// they return — an acked pin or shadow survives a SIGKILL of the router
/// process, the same durability bar the session store sets.
#[derive(Debug)]
pub struct StateLog {
    log: AppendLog,
    counters: StateLogCounters,
}

/// Compaction triggers once the log is both past this floor and more
/// than four times its live size — small logs are never worth rewriting.
const COMPACT_FLOOR_BYTES: u64 = 1024 * 1024;

impl StateLog {
    /// Opens (creating if needed) `dir/ROUTER.log` through
    /// [`append_log::recover`], replaying it and truncating any torn or
    /// damaged tail, and returns the log handle plus the recovered image.
    ///
    /// # Errors
    ///
    /// I/O errors, or a file of 8 or more bytes that does not open with
    /// CHAMRTE1 (a state dir pointed at something that is not a
    /// router-state log is refused rather than clobbered).
    pub fn open(dir: &Path) -> std::io::Result<(Self, RouterImage)> {
        std::fs::create_dir_all(dir)?;
        let mut image = RouterImage::default();
        let (log, truncated_bytes, _) =
            append_log::recover(&dir.join("ROUTER.log"), STATE_MAGIC, |_, rest| {
                replay_record(&mut image, rest)
            })?;
        let counters = StateLogCounters {
            truncated_bytes,
            ..StateLogCounters::default()
        };
        Ok((Self { log, counters }, image))
    }

    /// Appends one already-framed record durably.
    ///
    /// # Errors
    ///
    /// The underlying write or fsync failure.
    pub fn append(&mut self, framed: &[u8]) -> std::io::Result<()> {
        self.log.append(framed)?;
        self.counters.appends += 1;
        self.counters.append_bytes += framed.len() as u64;
        Ok(())
    }

    /// Whether the log has grown enough past `live` (the current image's
    /// [`RouterImage::encoded_len`]) to be worth compacting.
    pub fn wants_compaction(&self, live: u64) -> bool {
        let bytes = self.log.bytes();
        bytes > COMPACT_FLOOR_BYTES && bytes > live.saturating_mul(4)
    }

    /// Rewrites the log as `image`'s minimal form through the shared
    /// atomic replace (temp file, fsync, rename, directory fsync).
    ///
    /// # Errors
    ///
    /// The underlying I/O failure. A failed directory fsync is an error
    /// too: the rename may not survive power loss, and with it every
    /// append acked after it. The original log is untouched unless the
    /// rename ran.
    pub fn compact(&mut self, image: &RouterImage) -> std::io::Result<()> {
        self.log.replace(&image.encode())?;
        self.counters.compactions += 1;
        Ok(())
    }

    /// Snapshot of the log's self-counters.
    pub fn counters(&self) -> StateLogCounters {
        StateLogCounters {
            log_bytes: self.log.bytes(),
            ..self.counters
        }
    }

    /// Current log size in bytes.
    pub fn bytes(&self) -> u64 {
        self.log.bytes()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_image() -> RouterImage {
        let mut image = RouterImage::default();
        image.pins.insert(7, "127.0.0.1:7411".to_string());
        image.pins.insert(3, "127.0.0.1:7412".to_string());
        image.shadows.insert(7, (4, vec![0xAB; 96]));
        image
    }

    #[test]
    fn records_roundtrip() {
        let records = [
            StateRecord::Pin {
                session: 42,
                addr: "10.0.0.1:9000".to_string(),
            },
            StateRecord::Unpin { session: 42 },
            StateRecord::Shadow {
                session: 42,
                seq: 17,
                blob: vec![1, 2, 3, 4, 5],
            },
        ];
        for record in &records {
            let framed = encode_state_record(record);
            let (decoded, used) = decode_state_record(&framed).expect("roundtrip");
            assert_eq!(&decoded, record);
            assert_eq!(used, framed.len());
        }
    }

    #[test]
    fn every_truncation_is_truncated() {
        // The invariant torn-tail recovery rests on: any prefix of a
        // valid record decodes to Truncated, never to a scarier error.
        let framed = encode_shadow(9, 3, &[7u8; 33]);
        for cut in 0..framed.len() {
            assert_eq!(
                decode_state_record(&framed[..cut]),
                Err(RecordError::Truncated.into()),
                "cut at {cut}"
            );
        }
    }

    #[test]
    fn image_roundtrips_through_encode_decode() {
        let image = sample_image();
        let decoded = decode_state(&image.encode()).expect("valid log");
        assert_eq!(decoded.image, image);
        assert_eq!(decoded.damage, None);
        assert_eq!(decoded.clean_len as u64, image.encoded_len());
    }

    #[test]
    fn bit_flip_stops_replay_at_the_damaged_record() {
        let mut log = STATE_MAGIC.to_vec();
        log.extend_from_slice(&encode_pin(1, "a:1"));
        let clean = log.len();
        log.extend_from_slice(&encode_pin(2, "b:2"));
        log[clean + 6] ^= 0x10; // inside the second record's body
        let decoded = decode_state(&log).expect("magic intact");
        assert_eq!(decoded.records, 1);
        assert_eq!(decoded.clean_len, clean);
        assert!(matches!(
            decoded.damage,
            Some(StateError::Record(RecordError::BadChecksum { .. }))
        ));
    }

    #[test]
    fn oversized_prefix_is_rejected_before_allocation() {
        let mut framed = (u32::MAX).to_le_bytes().to_vec();
        framed.extend_from_slice(&[0u8; 32]);
        assert!(matches!(
            decode_state_record(&framed),
            Err(StateError::Record(RecordError::Oversized { .. }))
        ));
    }

    #[test]
    fn open_truncates_torn_tail_and_recovers_clean_prefix() {
        let dir = std::env::temp_dir().join(format!("chamrte1-test-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        {
            let (mut log, image) = StateLog::open(&dir).expect("fresh open");
            assert_eq!(image, RouterImage::default());
            log.append(&encode_pin(5, "127.0.0.1:7411"))
                .expect("append");
            log.append(&encode_shadow(5, 2, &[9u8; 40]))
                .expect("append");
        }
        // Crash mid-append: garbage half-record at the tail.
        {
            use std::io::Write as _;
            let mut f = std::fs::OpenOptions::new()
                .append(true)
                .open(dir.join("ROUTER.log"))
                .expect("reopen");
            f.write_all(&[0x55; 7]).expect("tear");
        }
        let (log, image) = StateLog::open(&dir).expect("recovering open");
        assert_eq!(log.counters().truncated_bytes, 7);
        assert_eq!(
            image.pins.get(&5).map(String::as_str),
            Some("127.0.0.1:7411")
        );
        assert_eq!(image.shadows.get(&5), Some(&(2, vec![9u8; 40])));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn open_recovers_from_a_torn_initial_header() {
        // A crash during creation can leave fewer than 8 magic bytes.
        // Open must restart the header — appending after a partial magic
        // would make every later open fail with BadMagic forever.
        let dir = std::env::temp_dir().join(format!("chamrte1-torn-head-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("mkdir");
        std::fs::write(dir.join("ROUTER.log"), &STATE_MAGIC[..3]).expect("partial header");
        {
            let (mut log, image) = StateLog::open(&dir).expect("open over torn header");
            assert_eq!(image, RouterImage::default());
            assert_eq!(log.counters().truncated_bytes, 3);
            log.append(&encode_pin(11, "127.0.0.1:7411"))
                .expect("append");
        }
        let (log, image) = StateLog::open(&dir).expect("reopen");
        assert_eq!(log.counters().truncated_bytes, 0);
        assert_eq!(
            image.pins.get(&11).map(String::as_str),
            Some("127.0.0.1:7411")
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn shadow_replay_keeps_the_highest_sequence_stamp() {
        // A log an older router wrote, whose refreshes of one session
        // were not ordered by an op lock, can hold a newer-stamped shadow
        // *before* an older one. Replay must keep the max-seq record, not
        // the last.
        let mut log = STATE_MAGIC.to_vec();
        log.extend_from_slice(&encode_shadow(5, 8, &[8u8; 16]));
        log.extend_from_slice(&encode_shadow(5, 7, &[7u8; 16]));
        let decoded = decode_state(&log).expect("valid log");
        assert_eq!(decoded.damage, None);
        assert_eq!(decoded.image.shadows.get(&5), Some(&(8, vec![8u8; 16])));
        // Equal stamps keep last-record-wins (both reflect the same op).
        let mut log = STATE_MAGIC.to_vec();
        log.extend_from_slice(&encode_shadow(5, 8, &[1u8; 16]));
        log.extend_from_slice(&encode_shadow(5, 8, &[2u8; 16]));
        let decoded = decode_state(&log).expect("valid log");
        assert_eq!(decoded.image.shadows.get(&5), Some(&(8, vec![2u8; 16])));
    }

    #[test]
    fn compaction_keeps_only_the_live_image() {
        let dir = std::env::temp_dir().join(format!("chamrte1-compact-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let (mut log, _) = StateLog::open(&dir).expect("fresh open");
        // Many superseded shadows for one session: the live image is one
        // record, the log is many.
        let mut image = RouterImage::default();
        for seq in 1..=50u64 {
            log.append(&encode_shadow(1, seq, &[seq as u8; 64]))
                .expect("append");
        }
        image.shadows.insert(1, (50, vec![50u8; 64]));
        image.pins.insert(1, "127.0.0.1:7411".to_string());
        log.append(&encode_pin(1, "127.0.0.1:7411"))
            .expect("append");
        let on_disk = || {
            std::fs::metadata(dir.join("ROUTER.log"))
                .expect("stat")
                .len()
        };
        let before = log.bytes();
        assert_eq!(log.counters().log_bytes, on_disk());
        log.compact(&image).expect("compact");
        assert!(log.bytes() < before);
        assert_eq!(log.bytes(), image.encoded_len());
        assert_eq!(log.counters().log_bytes, on_disk());
        drop(log);
        // A later compaction that crashed before its rename left its image
        // in the temp sibling: open removes it and replays the log as is.
        let tmp = dir.join(".ROUTER.log.tmp");
        std::fs::write(&tmp, RouterImage::default().encode()).expect("staged image");
        let (log, recovered) = StateLog::open(&dir).expect("reopen");
        assert!(!tmp.exists());
        assert_eq!(recovered, image);
        assert_eq!(log.counters().truncated_bytes, 0);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
