//! **CHAMWIRE** — the versioned, length-prefixed, CRC32-sealed binary
//! frame protocol `chameleon-serve` speaks over TCP.
//!
//! ```text
//! frame   := magic "CHAMWIR3" (8) | len:u32le | payload[len] | crc32(payload):u32le
//! payload := correlation:u64le | opcode:u8 | body
//! ```
//!
//! Opcodes 0x06/0x86 (version 1's `Stats` pair) and 0x08/0x8A (version
//! 2's `Probe` pair) are unassigned: [`Request::Observe`] is the one
//! metrics snapshot. Like every byte outside the opcode tables they
//! decode to [`WireError::UnknownOpcode`].
//!
//! Every request carries a client-chosen correlation id; the matching
//! response echoes it, so a client may pipeline requests on one
//! connection and still pair answers unambiguously. The CRC32 footer (the
//! same IEEE polynomial the `CHAMFLT1`/`CHAMLN02` checkpoint envelopes
//! use) seals the payload against transport bit rot; the length prefix is
//! capped at [`MAX_PAYLOAD_BYTES`] so a corrupt or hostile prefix can
//! never drive an allocation.
//!
//! Decoding is total: any byte sequence either yields a value or a typed
//! [`WireError`] — never a panic, never an over-allocation. The proptest
//! frame fuzzer in `tests/wire_fuzz.rs` holds the protocol to that.

use std::io::Read;

use chameleon_fleet::{SessionId, SessionSpec};
use chameleon_obs::{EventRecord, Observation, Stage, StageStats, LATENCY_BUCKETS};
use chameleon_replay::crc32;

/// Magic bytes identifying a CHAMWIRE frame (protocol version 3).
pub const WIRE_MAGIC: &[u8; 8] = b"CHAMWIR3";

/// Hard cap on a frame's payload length. A length prefix above this is
/// rejected *before* any allocation happens.
pub const MAX_PAYLOAD_BYTES: usize = 64 << 20;

/// Fixed frame overhead: magic + length prefix + CRC32 footer.
pub const FRAME_OVERHEAD: usize = WIRE_MAGIC.len() + 4 + 4;

/// Why a frame or payload failed to decode.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum WireError {
    /// The frame does not start with [`WIRE_MAGIC`] (wrong protocol or
    /// version, or a desynchronized stream).
    BadMagic,
    /// The bytes end before the declared frame or field contents.
    Truncated,
    /// The length prefix exceeds the decoder's cap.
    Oversized {
        /// Declared payload length.
        len: u64,
        /// The cap in force.
        max: u64,
    },
    /// The payload does not match its CRC32 footer.
    BadChecksum {
        /// CRC32 recomputed over the payload as received.
        found: u32,
        /// CRC32 recorded in the footer at send time.
        expected: u32,
    },
    /// The payload's opcode byte names no known request/response.
    UnknownOpcode(u8),
    /// The body is structurally invalid for its opcode.
    Malformed(&'static str),
}

impl std::fmt::Display for WireError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::BadMagic => write!(f, "bad frame magic"),
            Self::Truncated => write!(f, "truncated frame"),
            Self::Oversized { len, max } => {
                write!(f, "payload length {len} exceeds cap {max}")
            }
            Self::BadChecksum { found, expected } => {
                write!(
                    f,
                    "frame CRC mismatch: found {found:#010x}, expected {expected:#010x}"
                )
            }
            Self::UnknownOpcode(op) => write!(f, "unknown opcode {op:#04x}"),
            Self::Malformed(what) => write!(f, "malformed payload: {what}"),
        }
    }
}

impl std::error::Error for WireError {}

// ---------------------------------------------------------------------------
// Frame envelope
// ---------------------------------------------------------------------------

/// Wraps a payload in the CHAMWIRE envelope.
pub fn encode_frame(payload: &[u8]) -> Vec<u8> {
    let mut frame = Vec::with_capacity(payload.len() + FRAME_OVERHEAD);
    frame.extend_from_slice(WIRE_MAGIC);
    frame.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    frame.extend_from_slice(payload);
    frame.extend_from_slice(&crc32(payload).to_le_bytes());
    frame
}

/// Decodes one frame from the front of `bytes`, returning the payload and
/// the total number of bytes the frame occupied.
///
/// # Errors
///
/// Returns a typed [`WireError`] on bad magic, truncation, an oversized
/// length prefix (checked before allocating), or a CRC mismatch.
pub fn decode_frame(bytes: &[u8], max_payload: usize) -> Result<(Vec<u8>, usize), WireError> {
    if bytes.len() < WIRE_MAGIC.len() + 4 {
        return Err(
            if bytes.is_empty() || WIRE_MAGIC.starts_with(&bytes[..bytes.len().min(8)]) {
                WireError::Truncated
            } else {
                WireError::BadMagic
            },
        );
    }
    let len = payload_len(bytes, max_payload)?;
    let total = FRAME_OVERHEAD + len;
    if bytes.len() < total {
        return Err(WireError::Truncated);
    }
    let payload = &bytes[12..12 + len];
    check_footer(payload, &bytes[12 + len..total])?;
    Ok((payload.to_vec(), total))
}

/// Reads one frame from a blocking reader and returns its CRC-verified
/// payload, checking the length prefix before allocating for it. A reader
/// that ends mid-frame is an I/O error here, not [`WireError::Truncated`].
///
/// # Errors
///
/// The outer error when the reader fails; the inner [`WireError`] when
/// the bytes read are not a sound frame.
pub fn read_frame(
    reader: &mut impl Read,
    max_payload: usize,
) -> std::io::Result<Result<Vec<u8>, WireError>> {
    let mut header = [0u8; WIRE_MAGIC.len() + 4];
    reader.read_exact(&mut header)?;
    let len = match payload_len(&header, max_payload) {
        Ok(len) => len,
        Err(error) => return Ok(Err(error)),
    };
    let mut body = vec![0u8; len + 4];
    reader.read_exact(&mut body)?;
    let checked = check_footer(&body[..len], &body[len..]);
    body.truncate(len);
    Ok(checked.map(|()| body))
}

/// Checks a frame header's magic and length prefix (against the cap),
/// returning the payload length.
fn payload_len(header: &[u8], max_payload: usize) -> Result<usize, WireError> {
    if header[..WIRE_MAGIC.len()] != WIRE_MAGIC[..] {
        return Err(WireError::BadMagic);
    }
    let len = u32::from_le_bytes(header[8..12].try_into().expect("4 bytes")) as usize;
    if len > max_payload {
        return Err(WireError::Oversized {
            len: len as u64,
            max: max_payload as u64,
        });
    }
    Ok(len)
}

/// Checks `payload` against its CRC32 `footer`.
fn check_footer(payload: &[u8], footer: &[u8]) -> Result<(), WireError> {
    let expected = u32::from_le_bytes(footer.try_into().expect("4 bytes"));
    let found = crc32(payload);
    if found != expected {
        return Err(WireError::BadChecksum { found, expected });
    }
    Ok(())
}

// ---------------------------------------------------------------------------
// Requests
// ---------------------------------------------------------------------------

/// A client request. Each maps to exactly one [`Response`].
#[derive(Clone, Debug, PartialEq)]
pub enum Request {
    /// Liveness probe; answered with [`Response::Pong`] without touching
    /// the engine.
    Ping,
    /// Create a session with this spec (acknowledged by
    /// [`Response::Created`]).
    CreateSession {
        /// Fleet-unique session id, chosen by the client.
        session: SessionId,
        /// Everything needed to build the session deterministically.
        spec: SessionSpec,
    },
    /// Deliver up to `batches` stream batches to the session's learner.
    Step {
        /// Target session.
        session: SessionId,
        /// Maximum batches to deliver.
        batches: u32,
    },
    /// Evaluate the session's learner on the scenario's test set.
    Predict {
        /// Target session.
        session: SessionId,
    },
    /// Serialize the session to a `CHAMFLT1` checkpoint blob.
    Checkpoint {
        /// Target session.
        session: SessionId,
    },
    /// Force the session out of residency into checkpoint form.
    Evict {
        /// Target session.
        session: SessionId,
    },
    /// Snapshot the unified observability view: per-stage span
    /// aggregates, the event-log tail, and flattened fleet / trace /
    /// serve counters ([`chameleon_obs::Observation`]).
    Observe,
    /// Export the session for handoff: serialize its `CHAMFLT1` blob and
    /// forget it, so exactly one node owns the session at a time.
    HandoffExport {
        /// Session to export.
        session: SessionId,
    },
    /// Import a handed-off session from its `CHAMFLT1` blob; acknowledged
    /// with [`Response::HandoffAck`].
    Handoff {
        /// Session being handed off (must match the blob's own id).
        session: SessionId,
        /// The full `CHAMFLT1` checkpoint captured on the old owner.
        blob: Vec<u8>,
    },
}

const REQ_PING: u8 = 0x00;
const REQ_CREATE: u8 = 0x01;
const REQ_STEP: u8 = 0x02;
const REQ_PREDICT: u8 = 0x03;
const REQ_CHECKPOINT: u8 = 0x04;
const REQ_EVICT: u8 = 0x05;
const REQ_OBSERVE: u8 = 0x07;
const REQ_HANDOFF_EXPORT: u8 = 0x09;
const REQ_HANDOFF: u8 = 0x0A;

impl Request {
    /// Serializes `correlation | opcode | body` (the frame payload).
    pub fn encode_payload(&self, correlation: u64) -> Vec<u8> {
        let mut p = Vec::with_capacity(32);
        p.extend_from_slice(&correlation.to_le_bytes());
        match self {
            Self::Ping => p.push(REQ_PING),
            Self::CreateSession { session, spec } => {
                p.push(REQ_CREATE);
                p.extend_from_slice(&session.to_le_bytes());
                let spec_bytes = spec.to_bytes();
                p.extend_from_slice(&(spec_bytes.len() as u32).to_le_bytes());
                p.extend_from_slice(&spec_bytes);
            }
            Self::Step { session, batches } => {
                p.push(REQ_STEP);
                p.extend_from_slice(&session.to_le_bytes());
                p.extend_from_slice(&batches.to_le_bytes());
            }
            Self::Predict { session } => {
                p.push(REQ_PREDICT);
                p.extend_from_slice(&session.to_le_bytes());
            }
            Self::Checkpoint { session } => {
                p.push(REQ_CHECKPOINT);
                p.extend_from_slice(&session.to_le_bytes());
            }
            Self::Evict { session } => {
                p.push(REQ_EVICT);
                p.extend_from_slice(&session.to_le_bytes());
            }
            Self::Observe => p.push(REQ_OBSERVE),
            Self::HandoffExport { session } => {
                p.push(REQ_HANDOFF_EXPORT);
                p.extend_from_slice(&session.to_le_bytes());
            }
            Self::Handoff { session, blob } => {
                p.push(REQ_HANDOFF);
                p.extend_from_slice(&session.to_le_bytes());
                p.extend_from_slice(&(blob.len() as u32).to_le_bytes());
                p.extend_from_slice(blob);
            }
        }
        p
    }

    /// Decodes a frame payload into `(correlation, request)`.
    ///
    /// # Errors
    ///
    /// Returns a typed [`WireError`]; never panics on arbitrary input.
    pub fn decode_payload(payload: &[u8]) -> Result<(u64, Self), WireError> {
        let mut r = Reader(payload);
        let correlation = r.u64()?;
        let opcode = r.u8()?;
        let request = match opcode {
            REQ_PING => Self::Ping,
            REQ_CREATE => {
                let session = r.u64()?;
                let spec_len = r.u32()? as usize;
                let spec_bytes = r.bytes(spec_len)?;
                let (spec, consumed) = SessionSpec::decode_prefix(spec_bytes)
                    .map_err(|_| WireError::Malformed("session spec"))?;
                if consumed != spec_bytes.len() {
                    return Err(WireError::Malformed("trailing bytes after session spec"));
                }
                Self::CreateSession { session, spec }
            }
            REQ_STEP => Self::Step {
                session: r.u64()?,
                batches: r.u32()?,
            },
            REQ_PREDICT => Self::Predict { session: r.u64()? },
            REQ_CHECKPOINT => Self::Checkpoint { session: r.u64()? },
            REQ_EVICT => Self::Evict { session: r.u64()? },
            REQ_OBSERVE => Self::Observe,
            REQ_HANDOFF_EXPORT => Self::HandoffExport { session: r.u64()? },
            REQ_HANDOFF => {
                let session = r.u64()?;
                let len = r.u32()? as usize;
                Self::Handoff {
                    session,
                    blob: r.bytes(len)?.to_vec(),
                }
            }
            other => return Err(WireError::UnknownOpcode(other)),
        };
        r.finish()?;
        Ok((correlation, request))
    }
}

// ---------------------------------------------------------------------------
// Responses
// ---------------------------------------------------------------------------

/// Typed reason a request was refused.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ErrorCode {
    /// The session id was never created on this server.
    UnknownSession,
    /// The session id already exists.
    DuplicateSession,
    /// The shard hosting the session lost its worker thread.
    ShardDown,
    /// The request was syntactically valid CHAMWIRE but semantically
    /// unusable (bad opcode body, invalid spec, …).
    BadRequest,
    /// The serving layer's engine thread is gone (server shutting down).
    EngineDown,
    /// The fleet accepted the request but the session reported a failure
    /// (invalid config, restore failure, …); the message carries the
    /// session's reason.
    SessionFailed,
}

impl ErrorCode {
    fn to_u8(self) -> u8 {
        match self {
            Self::UnknownSession => 0,
            Self::DuplicateSession => 1,
            Self::ShardDown => 2,
            Self::BadRequest => 3,
            Self::EngineDown => 4,
            Self::SessionFailed => 5,
        }
    }

    fn from_u8(v: u8) -> Result<Self, WireError> {
        Ok(match v {
            0 => Self::UnknownSession,
            1 => Self::DuplicateSession,
            2 => Self::ShardDown,
            3 => Self::BadRequest,
            4 => Self::EngineDown,
            5 => Self::SessionFailed,
            _ => return Err(WireError::Malformed("error code")),
        })
    }
}

impl std::fmt::Display for ErrorCode {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let name = match self {
            Self::UnknownSession => "unknown session",
            Self::DuplicateSession => "duplicate session",
            Self::ShardDown => "shard down",
            Self::BadRequest => "bad request",
            Self::EngineDown => "engine down",
            Self::SessionFailed => "session failed",
        };
        write!(f, "{name}")
    }
}

/// The summary a [`Request::Predict`] returns: the session's evaluation
/// report, minus nothing — the full per-domain/per-class breakdown rides
/// along so served clients see exactly what in-process callers see.
#[derive(Clone, Debug, PartialEq)]
pub struct PredictSummary {
    /// Final accuracy over the full test set, in percent.
    pub acc_all: f32,
    /// Accuracy per domain, in percent.
    pub per_domain: Vec<f32>,
    /// Accuracy per class, in percent.
    pub per_class: Vec<f32>,
    /// Nominal memory overhead of the strategy in MB.
    pub memory_overhead_mb: f64,
}

/// A server response; carries the request's correlation id on the wire.
#[derive(Clone, Debug, PartialEq)]
pub enum Response {
    /// Answer to [`Request::Ping`].
    Pong,
    /// The session was created and is resident.
    Created,
    /// A step ran.
    Stepped {
        /// Batches actually delivered (fewer when the stream ends).
        delivered: u32,
        /// Whether the session's stream is now exhausted and finalized.
        done: bool,
    },
    /// A predict (evaluation) ran.
    Predicted(PredictSummary),
    /// A checkpoint was serialized; the `CHAMFLT1` blob.
    Checkpointed(Vec<u8>),
    /// The session was evicted to checkpoint form (idempotent).
    Evicted,
    /// Unified observability snapshot (spans + events + counters).
    Observed(Box<Observation>),
    /// The request failed; typed code plus human-readable detail.
    Error {
        /// Typed refusal reason.
        code: ErrorCode,
        /// Human-readable detail.
        message: String,
    },
    /// The target shard's queue is full: retry after backing off. The
    /// wire-level surface of fleet [`chameleon_fleet::Backpressure`] —
    /// clients back off instead of stalling a shard, and the connection
    /// stays open.
    RetryAfter {
        /// Suggested minimum backoff before retrying, in milliseconds.
        millis: u32,
    },
    /// Answer to [`Request::HandoffExport`]: the session's `CHAMFLT1`
    /// blob; the exporting node no longer owns the session.
    HandoffExported(Vec<u8>),
    /// Answer to [`Request::Handoff`]: the importing node now owns the
    /// session.
    HandoffAck,
}

const RSP_PONG: u8 = 0x80;
const RSP_CREATED: u8 = 0x81;
const RSP_STEPPED: u8 = 0x82;
const RSP_PREDICTED: u8 = 0x83;
const RSP_CHECKPOINTED: u8 = 0x84;
const RSP_EVICTED: u8 = 0x85;
const RSP_ERROR: u8 = 0x87;
const RSP_RETRY_AFTER: u8 = 0x88;
const RSP_OBSERVED: u8 = 0x89;
const RSP_HANDOFF_EXPORTED: u8 = 0x8B;
const RSP_HANDOFF_ACK: u8 = 0x8C;

impl Response {
    /// Serializes `correlation | opcode | body` (the frame payload).
    pub fn encode_payload(&self, correlation: u64) -> Vec<u8> {
        let mut p = Vec::with_capacity(32);
        p.extend_from_slice(&correlation.to_le_bytes());
        match self {
            Self::Pong => p.push(RSP_PONG),
            Self::Created => p.push(RSP_CREATED),
            Self::Stepped { delivered, done } => {
                p.push(RSP_STEPPED);
                p.extend_from_slice(&delivered.to_le_bytes());
                p.push(u8::from(*done));
            }
            Self::Predicted(summary) => {
                p.push(RSP_PREDICTED);
                p.extend_from_slice(&summary.acc_all.to_le_bytes());
                put_f32_list(&mut p, &summary.per_domain);
                put_f32_list(&mut p, &summary.per_class);
                p.extend_from_slice(&summary.memory_overhead_mb.to_le_bytes());
            }
            Self::Checkpointed(blob) => {
                p.push(RSP_CHECKPOINTED);
                p.extend_from_slice(&(blob.len() as u32).to_le_bytes());
                p.extend_from_slice(blob);
            }
            Self::Evicted => p.push(RSP_EVICTED),
            Self::Observed(observation) => {
                p.push(RSP_OBSERVED);
                encode_observation(&mut p, observation);
            }
            Self::Error { code, message } => {
                p.push(RSP_ERROR);
                p.push(code.to_u8());
                let bytes = message.as_bytes();
                p.extend_from_slice(&(bytes.len() as u32).to_le_bytes());
                p.extend_from_slice(bytes);
            }
            Self::RetryAfter { millis } => {
                p.push(RSP_RETRY_AFTER);
                p.extend_from_slice(&millis.to_le_bytes());
            }
            Self::HandoffExported(blob) => {
                p.push(RSP_HANDOFF_EXPORTED);
                p.extend_from_slice(&(blob.len() as u32).to_le_bytes());
                p.extend_from_slice(blob);
            }
            Self::HandoffAck => p.push(RSP_HANDOFF_ACK),
        }
        p
    }

    /// Decodes a frame payload into `(correlation, response)`.
    ///
    /// # Errors
    ///
    /// Returns a typed [`WireError`]; never panics on arbitrary input.
    pub fn decode_payload(payload: &[u8]) -> Result<(u64, Self), WireError> {
        let mut r = Reader(payload);
        let correlation = r.u64()?;
        let opcode = r.u8()?;
        let response = match opcode {
            RSP_PONG => Self::Pong,
            RSP_CREATED => Self::Created,
            RSP_STEPPED => Self::Stepped {
                delivered: r.u32()?,
                done: r.u8()? != 0,
            },
            RSP_PREDICTED => Self::Predicted(PredictSummary {
                acc_all: r.f32()?,
                per_domain: r.f32_list()?,
                per_class: r.f32_list()?,
                memory_overhead_mb: r.f64()?,
            }),
            RSP_CHECKPOINTED => {
                let len = r.u32()? as usize;
                Self::Checkpointed(r.bytes(len)?.to_vec())
            }
            RSP_EVICTED => Self::Evicted,
            RSP_OBSERVED => Self::Observed(Box::new(decode_observation(&mut r)?)),
            RSP_ERROR => {
                let code = ErrorCode::from_u8(r.u8()?)?;
                let len = r.u32()? as usize;
                let bytes = r.bytes(len)?;
                let message = std::str::from_utf8(bytes)
                    .map_err(|_| WireError::Malformed("error message utf-8"))?
                    .to_string();
                Self::Error { code, message }
            }
            RSP_RETRY_AFTER => Self::RetryAfter { millis: r.u32()? },
            RSP_HANDOFF_EXPORTED => {
                let len = r.u32()? as usize;
                Self::HandoffExported(r.bytes(len)?.to_vec())
            }
            RSP_HANDOFF_ACK => Self::HandoffAck,
            other => return Err(WireError::UnknownOpcode(other)),
        };
        r.finish()?;
        Ok((correlation, response))
    }
}

fn put_f32_list(p: &mut Vec<u8>, list: &[f32]) {
    p.extend_from_slice(&(list.len() as u32).to_le_bytes());
    for v in list {
        p.extend_from_slice(&v.to_le_bytes());
    }
}

fn put_str(p: &mut Vec<u8>, text: &str) {
    let bytes = text.as_bytes();
    p.extend_from_slice(&(bytes.len() as u32).to_le_bytes());
    p.extend_from_slice(bytes);
}

fn encode_observation(p: &mut Vec<u8>, o: &Observation) {
    p.extend_from_slice(&(o.spans.len() as u32).to_le_bytes());
    for (stage, stats) in &o.spans {
        p.push(stage.id());
        p.extend_from_slice(&stats.count.to_le_bytes());
        p.extend_from_slice(&stats.total_nanos.to_le_bytes());
        p.extend_from_slice(&stats.max_nanos.to_le_bytes());
        p.extend_from_slice(&(LATENCY_BUCKETS as u32).to_le_bytes());
        for bucket in stats.histogram.buckets {
            p.extend_from_slice(&bucket.to_le_bytes());
        }
    }
    p.extend_from_slice(&o.events.capacity.to_le_bytes());
    p.extend_from_slice(&o.events.next_seq.to_le_bytes());
    p.extend_from_slice(&o.events.dropped.to_le_bytes());
    p.extend_from_slice(&(o.events.recent.len() as u32).to_le_bytes());
    for record in &o.events.recent {
        p.extend_from_slice(&record.seq.to_le_bytes());
        p.extend_from_slice(&record.nanos.to_le_bytes());
        put_str(p, &record.message);
    }
    p.extend_from_slice(&(o.counters.len() as u32).to_le_bytes());
    for (name, value) in &o.counters {
        put_str(p, name);
        p.extend_from_slice(&value.to_le_bytes());
    }
}

fn decode_observation(r: &mut Reader<'_>) -> Result<Observation, WireError> {
    let mut o = Observation::default();
    let spans = r.u32()? as usize;
    for _ in 0..spans {
        let stage = Stage::from_id(r.u8()?).ok_or(WireError::Malformed("span stage id"))?;
        let mut stats = StageStats {
            count: r.u64()?,
            total_nanos: r.u64()?,
            max_nanos: r.u64()?,
            ..StageStats::default()
        };
        let buckets = r.u32()? as usize;
        if buckets != LATENCY_BUCKETS {
            return Err(WireError::Malformed("span bucket count"));
        }
        for bucket in &mut stats.histogram.buckets {
            *bucket = r.u64()?;
        }
        o.spans.push((stage, stats));
    }
    o.events.capacity = r.u64()?;
    o.events.next_seq = r.u64()?;
    o.events.dropped = r.u64()?;
    let records = r.u32()? as usize;
    for _ in 0..records {
        let seq = r.u64()?;
        let nanos = r.u64()?;
        o.events.recent.push(EventRecord {
            seq,
            nanos,
            message: r.str("event message")?,
        });
    }
    let counters = r.u32()? as usize;
    for _ in 0..counters {
        let name = r.str("counter name")?;
        o.counters.push((name, r.u64()?));
    }
    Ok(o)
}

/// Best-effort extraction of the correlation id from a payload that failed
/// full decoding, so error replies can still be matched by the client.
pub fn correlation_of(payload: &[u8]) -> u64 {
    payload
        .get(..8)
        .map(|b| u64::from_le_bytes(b.try_into().expect("8 bytes")))
        .unwrap_or(0)
}

struct Reader<'a>(&'a [u8]);

impl Reader<'_> {
    fn bytes(&mut self, n: usize) -> Result<&[u8], WireError> {
        if self.0.len() < n {
            return Err(WireError::Truncated);
        }
        let (head, tail) = self.0.split_at(n);
        self.0 = tail;
        Ok(head)
    }

    fn u8(&mut self) -> Result<u8, WireError> {
        Ok(self.bytes(1)?[0])
    }

    fn u32(&mut self) -> Result<u32, WireError> {
        Ok(u32::from_le_bytes(
            self.bytes(4)?.try_into().expect("4 bytes"),
        ))
    }

    fn u64(&mut self) -> Result<u64, WireError> {
        Ok(u64::from_le_bytes(
            self.bytes(8)?.try_into().expect("8 bytes"),
        ))
    }

    fn f32(&mut self) -> Result<f32, WireError> {
        Ok(f32::from_le_bytes(
            self.bytes(4)?.try_into().expect("4 bytes"),
        ))
    }

    fn f64(&mut self) -> Result<f64, WireError> {
        Ok(f64::from_le_bytes(
            self.bytes(8)?.try_into().expect("8 bytes"),
        ))
    }

    fn str(&mut self, what: &'static str) -> Result<String, WireError> {
        let len = self.u32()? as usize;
        let bytes = self.bytes(len)?;
        std::str::from_utf8(bytes)
            .map(str::to_string)
            .map_err(|_| WireError::Malformed(what))
    }

    fn f32_list(&mut self) -> Result<Vec<f32>, WireError> {
        let len = self.u32()? as usize;
        if self.0.len() < len.saturating_mul(4) {
            return Err(WireError::Truncated);
        }
        let mut out = Vec::with_capacity(len);
        for _ in 0..len {
            out.push(self.f32()?);
        }
        Ok(out)
    }

    /// Rejects trailing bytes: a payload must be consumed exactly.
    fn finish(&self) -> Result<(), WireError> {
        if self.0.is_empty() {
            Ok(())
        } else {
            Err(WireError::Malformed("trailing bytes"))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use chameleon_core::ChameleonConfig;
    use chameleon_stream::{PreferenceProfile, StreamConfig};

    fn spec() -> SessionSpec {
        SessionSpec {
            learner: ChameleonConfig::default(),
            stream: StreamConfig {
                preference: PreferenceProfile::Skewed {
                    preferred: vec![1, 3],
                    boost: 4.0,
                },
                ..StreamConfig::default()
            },
            learner_seed: 11,
            stream_seed: 22,
        }
    }

    /// One value of every request variant.
    fn requests() -> Vec<Request> {
        vec![
            Request::Ping,
            Request::CreateSession {
                session: 7,
                spec: spec(),
            },
            Request::Step {
                session: 7,
                batches: 12,
            },
            Request::Predict { session: 7 },
            Request::Checkpoint { session: 7 },
            Request::Evict { session: 7 },
            Request::Observe,
            Request::HandoffExport { session: 7 },
            Request::Handoff {
                session: 7,
                blob: vec![0xCA, 0xFE, 0x00, 0x42],
            },
        ]
    }

    #[test]
    fn requests_roundtrip_through_frames() {
        for (i, request) in requests().iter().enumerate() {
            let corr = 1000 + i as u64;
            let frame = encode_frame(&request.encode_payload(corr));
            let (payload, used) = decode_frame(&frame, MAX_PAYLOAD_BYTES).expect("frame");
            assert_eq!(used, frame.len());
            let (back_corr, back) = Request::decode_payload(&payload).expect("payload");
            assert_eq!(back_corr, corr);
            assert_eq!(&back, request);
        }
    }

    fn observation() -> Observation {
        let mut o = Observation::default();
        let mut stats = StageStats {
            count: 4,
            total_nanos: 9_000,
            max_nanos: 5_000,
            ..StageStats::default()
        };
        stats.histogram.record_nanos(5_000);
        stats.histogram.record_nanos(1_000);
        o.spans = Stage::ALL
            .iter()
            .map(|&stage| {
                (
                    stage,
                    if stage == Stage::Step {
                        stats.clone()
                    } else {
                        StageStats::default()
                    },
                )
            })
            .collect();
        o.events.capacity = 256;
        o.events.next_seq = 3;
        o.events.dropped = 1;
        o.events.recent.push(EventRecord {
            seq: 2,
            nanos: 77_000,
            message: "shard 0: session 7 evicted".to_string(),
        });
        o.push_counter("fleet.batches", 99);
        o.push_counter("serve.frames_in", 120);
        o
    }

    #[test]
    fn malformed_observation_stage_id_is_rejected() {
        let frame = encode_frame(&Response::Observed(Box::new(observation())).encode_payload(5));
        let (mut payload, _) = decode_frame(&frame, MAX_PAYLOAD_BYTES).expect("frame");
        // First span's stage id sits right after correlation (8) +
        // opcode (1) + span count (4).
        payload[13] = 0xEE;
        assert_eq!(
            Response::decode_payload(&payload),
            Err(WireError::Malformed("span stage id"))
        );
    }

    /// One value of every response variant.
    fn responses() -> Vec<Response> {
        vec![
            Response::Pong,
            Response::Created,
            Response::Stepped {
                delivered: 5,
                done: true,
            },
            Response::Predicted(PredictSummary {
                acc_all: 81.25,
                per_domain: vec![80.0, 82.5],
                per_class: vec![79.0, 83.0, 81.0],
                memory_overhead_mb: 1.5,
            }),
            Response::Checkpointed(vec![1, 2, 3, 255]),
            Response::Evicted,
            Response::Error {
                code: ErrorCode::UnknownSession,
                message: "session 9 was never created".into(),
            },
            Response::RetryAfter { millis: 2 },
            Response::Observed(Box::new(observation())),
            Response::HandoffExported(vec![9, 8, 7]),
            Response::HandoffAck,
        ]
    }

    #[test]
    fn responses_roundtrip_through_frames() {
        for (i, response) in responses().iter().enumerate() {
            let corr = 42 + i as u64;
            let frame = encode_frame(&response.encode_payload(corr));
            let (payload, _) = decode_frame(&frame, MAX_PAYLOAD_BYTES).expect("frame");
            let (back_corr, back) = Response::decode_payload(&payload).expect("payload");
            assert_eq!(back_corr, corr);
            assert_eq!(&back, response);
        }
    }

    #[test]
    fn bytes_outside_the_opcode_tables_are_unknown_opcodes() {
        let payload = |opcode: u8| {
            let mut p = 3u64.to_le_bytes().to_vec();
            p.push(opcode);
            p
        };
        // The retired version-1 `Stats` and version-2 `Probe` opcodes.
        for (request, response) in [(0x06, 0x86), (0x08, 0x8A)] {
            assert_eq!(
                Request::decode_payload(&payload(request)),
                Err(WireError::UnknownOpcode(request))
            );
            assert_eq!(
                Response::decode_payload(&payload(response)),
                Err(WireError::UnknownOpcode(response))
            );
        }
        // The tables are the opcodes the encoders emit.
        let request_ops: Vec<u8> = requests().iter().map(|r| r.encode_payload(0)[8]).collect();
        let response_ops: Vec<u8> = responses().iter().map(|r| r.encode_payload(0)[8]).collect();
        for opcode in 0..=u8::MAX {
            if !request_ops.contains(&opcode) {
                assert_eq!(
                    Request::decode_payload(&payload(opcode)),
                    Err(WireError::UnknownOpcode(opcode))
                );
            }
            if !response_ops.contains(&opcode) {
                assert_eq!(
                    Response::decode_payload(&payload(opcode)),
                    Err(WireError::UnknownOpcode(opcode))
                );
            }
        }
    }

    #[test]
    fn oversized_length_prefix_is_rejected_before_allocation() {
        let mut frame = Vec::new();
        frame.extend_from_slice(WIRE_MAGIC);
        frame.extend_from_slice(&u32::MAX.to_le_bytes());
        frame.extend_from_slice(&[0u8; 64]);
        assert_eq!(
            decode_frame(&frame, MAX_PAYLOAD_BYTES),
            Err(WireError::Oversized {
                len: u64::from(u32::MAX),
                max: MAX_PAYLOAD_BYTES as u64,
            })
        );
    }

    #[test]
    fn flipped_payload_bits_fail_the_crc() {
        let frame = encode_frame(&Request::Observe.encode_payload(5));
        for bit in 0..8 {
            let mut bad = frame.clone();
            let i = WIRE_MAGIC.len() + 4 + 2; // a payload byte
            bad[i] ^= 1 << bit;
            assert!(matches!(
                decode_frame(&bad, MAX_PAYLOAD_BYTES),
                Err(WireError::BadChecksum { .. })
            ));
        }
    }

    #[test]
    fn trailing_bytes_are_malformed() {
        let mut payload = Request::Ping.encode_payload(1);
        payload.push(0);
        assert_eq!(
            Request::decode_payload(&payload),
            Err(WireError::Malformed("trailing bytes"))
        );
    }

    #[test]
    fn correlation_is_recoverable_from_short_garbage() {
        assert_eq!(correlation_of(&[1, 0, 0, 0, 0, 0, 0, 0, 99]), 1);
        assert_eq!(correlation_of(&[1, 2, 3]), 0);
    }
}
