//! Checkpointing: save and restore a learner's state.
//!
//! On-device continual learning must survive power cycles: the trained
//! head and the replay stores *are* the accumulated knowledge, so both are
//! persisted. The format is a small self-describing little-endian binary
//! layout, written without external serialization dependencies:
//!
//! ```text
//! "CHAMLN02" | payload (sections, f32 samples)    | CRC32(payload)
//! "CHAMLN03" | precision tag | payload (packed samples) | CRC32(payload)
//! ```
//!
//! Version 3 exists only for quantized learners (`Precision::F16`/
//! `Int8`): its sample sections carry codec-packed latents (see
//! [`chameleon_replay::codec`]) behind a leading precision tag, cutting
//! the dominant section of the blob by 2–4x. A learner configured at
//! `Precision::F32` always writes the byte-identical v2 format, and a
//! quantized learner still *reads* v2 blobs (the migration path),
//! re-projecting their f32 samples onto the quantization grid.
//!
//! The CRC32 footer makes every flash/transfer corruption detectable at
//! load time; a blob cut short by power loss mid-write is reported as
//! [`LoadCheckpointError::Truncated`]. Stored samples additionally persist
//! their own integrity checksums, so replay-store corruption that happened
//! *before* a save is still quarantined after the restore.
//!
//! What is and is not persisted:
//!
//! * **persisted** — head parameters, short-term and long-term store
//!   contents (features + labels + integrity checksums), lifetime class
//!   counts,
//! * **reset on load** — RNG streams, learning-window progress: these
//!   are transient training state, and restarting them
//!   only perturbs the next few selections.

use std::io::{self, Read, Write};

use chameleon_replay::codec::{CodecError, Precision, MAX_PACKED_ELEMS};
use chameleon_replay::{crc32, StoredSample};

/// Magic bytes identifying a Chameleon checkpoint (format version 2).
pub const MAGIC: &[u8; 8] = b"CHAMLN02";

/// Magic of the version-3 format: codec-packed (quantized) samples.
pub const MAGIC_V3: &[u8; 8] = b"CHAMLN03";

/// Magic of the retired version-1 format (no integrity footer).
pub const LEGACY_MAGIC: &[u8; 8] = b"CHAMLN01";

/// Which envelope a checkpoint blob carries.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum Version {
    /// `CHAMLN02` — f32 sample sections.
    V2,
    /// `CHAMLN03` — precision tag + codec-packed sample sections.
    V3,
}

/// Errors produced when decoding a checkpoint.
#[derive(Debug)]
pub enum LoadCheckpointError {
    /// Underlying I/O failure.
    Io(io::Error),
    /// The stream does not start with [`MAGIC`].
    BadMagic,
    /// The stream is a checkpoint of a format version this build no longer
    /// reads.
    UnsupportedVersion,
    /// The stream ends before the declared contents (interrupted write).
    Truncated,
    /// The payload does not match its CRC32 footer (bit rot / transfer
    /// corruption).
    BadChecksum {
        /// CRC32 recomputed over the payload as read.
        found: u32,
        /// CRC32 recorded in the footer at save time.
        expected: u32,
    },
    /// A section's declared shape conflicts with the model configuration.
    ShapeMismatch {
        /// What was being decoded.
        what: &'static str,
        /// Length found in the stream.
        found: usize,
        /// Length required by the configuration.
        expected: usize,
    },
    /// A packed (quantized) latent section failed to decode.
    LatentCodec(CodecError),
}

impl std::fmt::Display for LoadCheckpointError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::Io(e) => write!(f, "checkpoint i/o error: {e}"),
            Self::BadMagic => write!(f, "not a chameleon checkpoint (bad magic)"),
            Self::UnsupportedVersion => {
                write!(f, "checkpoint format version is no longer supported")
            }
            Self::Truncated => write!(f, "checkpoint is truncated"),
            Self::BadChecksum { found, expected } => write!(
                f,
                "checkpoint is corrupted: crc32 {found:#010x}, footer says {expected:#010x}"
            ),
            Self::ShapeMismatch {
                what,
                found,
                expected,
            } => write!(
                f,
                "checkpoint {what} has length {found}, model expects {expected}"
            ),
            Self::LatentCodec(e) => write!(f, "checkpoint packed latent: {e}"),
        }
    }
}

impl std::error::Error for LoadCheckpointError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            Self::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<io::Error> for LoadCheckpointError {
    fn from(e: io::Error) -> Self {
        // Running out of bytes mid-decode means the blob was cut short;
        // everything else is a real I/O failure.
        if e.kind() == io::ErrorKind::UnexpectedEof {
            Self::Truncated
        } else {
            Self::Io(e)
        }
    }
}

/// Wraps a serialized payload in the v2 envelope: magic + payload + CRC32.
pub(crate) fn seal(payload: &[u8]) -> Vec<u8> {
    seal_as(MAGIC, payload)
}

/// Wraps a serialized payload in the given envelope magic + CRC32.
pub(crate) fn seal_as(magic: &[u8; 8], payload: &[u8]) -> Vec<u8> {
    let mut blob = Vec::with_capacity(payload.len() + 12);
    blob.extend_from_slice(magic);
    blob.extend_from_slice(payload);
    blob.extend_from_slice(&crc32(payload).to_le_bytes());
    blob
}

/// Verifies the envelope of `blob`, returning the payload slice and
/// which format version the magic named.
pub(crate) fn open(blob: &[u8]) -> Result<(&[u8], Version), LoadCheckpointError> {
    if blob.len() < MAGIC.len() {
        return Err(LoadCheckpointError::Truncated);
    }
    let magic = &blob[..MAGIC.len()];
    if magic == LEGACY_MAGIC {
        return Err(LoadCheckpointError::UnsupportedVersion);
    }
    let version = if magic == MAGIC {
        Version::V2
    } else if magic == MAGIC_V3 {
        Version::V3
    } else {
        return Err(LoadCheckpointError::BadMagic);
    };
    if blob.len() < MAGIC.len() + 4 {
        return Err(LoadCheckpointError::Truncated);
    }
    let payload = &blob[MAGIC.len()..blob.len() - 4];
    let footer = &blob[blob.len() - 4..];
    let expected = u32::from_le_bytes(footer.try_into().expect("footer is 4 bytes"));
    let found = crc32(payload);
    if found != expected {
        return Err(LoadCheckpointError::BadChecksum { found, expected });
    }
    Ok((payload, version))
}

/// Reads the latent precision a checkpoint blob was written at, without
/// decoding its payload. A v2 (`CHAMLN02`) blob is always f32; a v3
/// (`CHAMLN03`) blob leads its payload with the codec precision tag.
/// Callers that load a checkpoint into a freshly-built config (the CLI's
/// `evaluate --load`) use this to match the grid the samples live on —
/// a v3 blob refuses to load under any other precision.
///
/// # Errors
///
/// The same envelope errors as a full load: bad magic, truncation, CRC32
/// mismatch, or an undefined precision tag.
pub fn stored_precision(blob: &[u8]) -> Result<Precision, LoadCheckpointError> {
    let (payload, version) = open(blob)?;
    match version {
        Version::V2 => Ok(Precision::F32),
        Version::V3 => {
            let mut r = payload;
            let tag = read_u32(&mut r)?;
            u8::try_from(tag)
                .ok()
                .and_then(Precision::from_tag)
                .ok_or(LoadCheckpointError::UnsupportedVersion)
        }
    }
}

pub(crate) fn write_u32(w: &mut impl Write, v: u32) -> io::Result<()> {
    w.write_all(&v.to_le_bytes())
}

pub(crate) fn read_u32(r: &mut impl Read) -> io::Result<u32> {
    let mut buf = [0u8; 4];
    r.read_exact(&mut buf)?;
    Ok(u32::from_le_bytes(buf))
}

pub(crate) fn write_u64(w: &mut impl Write, v: u64) -> io::Result<()> {
    w.write_all(&v.to_le_bytes())
}

pub(crate) fn read_u64(r: &mut impl Read) -> io::Result<u64> {
    let mut buf = [0u8; 8];
    r.read_exact(&mut buf)?;
    Ok(u64::from_le_bytes(buf))
}

pub(crate) fn write_f32_slice(w: &mut impl Write, values: &[f32]) -> io::Result<()> {
    write_u32(w, values.len() as u32)?;
    for &v in values {
        w.write_all(&v.to_le_bytes())?;
    }
    Ok(())
}

pub(crate) fn read_f32_vec(r: &mut impl Read) -> io::Result<Vec<f32>> {
    let len = read_u32(r)? as usize;
    let mut out = Vec::with_capacity(len.min(1 << 24));
    let mut buf = [0u8; 4];
    for _ in 0..len {
        r.read_exact(&mut buf)?;
        out.push(f32::from_le_bytes(buf));
    }
    Ok(out)
}

pub(crate) fn write_samples(w: &mut impl Write, samples: &[StoredSample]) -> io::Result<()> {
    write_u32(w, samples.len() as u32)?;
    for s in samples {
        write_u32(w, s.label as u32)?;
        write_f32_slice(w, &s.features)?;
        // The checksum recorded at insertion time, not a fresh one: a
        // sample corrupted in memory before the save stays detectable.
        write_u32(w, s.checksum())?;
    }
    Ok(())
}

pub(crate) fn read_samples(r: &mut impl Read) -> io::Result<Vec<StoredSample>> {
    let count = read_u32(r)? as usize;
    let mut out = Vec::with_capacity(count.min(1 << 20));
    for _ in 0..count {
        let label = read_u32(r)? as usize;
        let features = read_f32_vec(r)?;
        let checksum = read_u32(r)?;
        out.push(StoredSample::from_parts(
            features, label, None, None, checksum,
        ));
    }
    Ok(out)
}

/// Largest packed-latent blob a v3 sample record may declare: the codec
/// cap at its widest (f32) encoding. Checked before allocation.
const MAX_PACKED_BLOB: usize = 13 + 4 * MAX_PACKED_ELEMS;

/// Writes a sample section with codec-packed latents (v3). An intact
/// sample serializes its insertion-time packed bytes verbatim; a
/// corrupted one is re-encoded from its damaged floats so the recorded
/// checksum still flags it after a restore (see
/// [`StoredSample::packed_for_write`]).
pub(crate) fn write_packed_samples(
    w: &mut impl Write,
    samples: &[StoredSample],
    precision: Precision,
) -> io::Result<()> {
    write_u32(w, samples.len() as u32)?;
    for s in samples {
        write_u32(w, s.label as u32)?;
        let blob = s.packed_for_write(precision);
        write_u32(w, blob.len() as u32)?;
        w.write_all(&blob)?;
        // The checksum recorded at insertion time, not a fresh one: a
        // sample corrupted in memory before the save stays detectable.
        write_u32(w, s.checksum())?;
    }
    Ok(())
}

/// Reads a v3 packed sample section, decoding latents through the codec
/// (the fused dequantize-on-read path for restored replay stores).
pub(crate) fn read_packed_samples(
    r: &mut impl Read,
) -> Result<Vec<StoredSample>, LoadCheckpointError> {
    let count = read_u32(r)? as usize;
    let mut out = Vec::with_capacity(count.min(1 << 20));
    for _ in 0..count {
        let label = read_u32(r)? as usize;
        let len = read_u32(r)? as usize;
        if len > MAX_PACKED_BLOB {
            return Err(LoadCheckpointError::LatentCodec(CodecError::Oversized(len)));
        }
        let mut blob = vec![0u8; len];
        r.read_exact(&mut blob)?;
        let checksum = read_u32(r)?;
        out.push(
            StoredSample::from_packed_parts(blob, label, checksum)
                .map_err(LoadCheckpointError::LatentCodec)?,
        );
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn primitives_roundtrip() {
        let mut buf = Vec::new();
        write_u32(&mut buf, 0xDEAD_BEEF).expect("write");
        write_u64(&mut buf, 0x0123_4567_89AB_CDEF).expect("write");
        write_f32_slice(&mut buf, &[1.5, -2.25, 0.0]).expect("write");
        let mut r = buf.as_slice();
        assert_eq!(read_u32(&mut r).expect("read"), 0xDEAD_BEEF);
        assert_eq!(read_u64(&mut r).expect("read"), 0x0123_4567_89AB_CDEF);
        assert_eq!(read_f32_vec(&mut r).expect("read"), vec![1.5, -2.25, 0.0]);
    }

    #[test]
    fn samples_roundtrip_with_integrity() {
        let samples = vec![
            StoredSample::latent(vec![1.0, 2.0], 3),
            StoredSample::latent(vec![-0.5], 7),
        ];
        let mut buf = Vec::new();
        write_samples(&mut buf, &samples).expect("write");
        let back = read_samples(&mut buf.as_slice()).expect("read");
        assert_eq!(back, samples);
        assert!(back.iter().all(StoredSample::integrity_ok));
    }

    #[test]
    fn corrupted_samples_stay_detectable_across_roundtrip() {
        let mut s = StoredSample::latent(vec![1.0, 2.0], 0);
        s.features[0] = 9.0; // upset before the save; no reseal
        let mut buf = Vec::new();
        write_samples(&mut buf, &[s]).expect("write");
        let back = read_samples(&mut buf.as_slice()).expect("read");
        assert!(!back[0].integrity_ok());
    }

    #[test]
    fn truncated_stream_errors() {
        let mut buf = Vec::new();
        write_f32_slice(&mut buf, &[1.0, 2.0, 3.0]).expect("write");
        buf.truncate(buf.len() - 2);
        assert!(read_f32_vec(&mut buf.as_slice()).is_err());
    }

    #[test]
    fn seal_open_roundtrip() {
        let payload = b"section data".to_vec();
        let blob = seal(&payload);
        assert_eq!(
            open(&blob).expect("valid"),
            (payload.as_slice(), Version::V2)
        );
        let v3 = seal_as(MAGIC_V3, &payload);
        assert_eq!(open(&v3).expect("valid"), (payload.as_slice(), Version::V3));
    }

    #[test]
    fn packed_samples_roundtrip_with_integrity() {
        let wide = |offset: f32| (0..64).map(|i| (i as f32) * 0.31 + offset).collect();
        let samples = vec![
            StoredSample::latent_quantized(wide(0.2), 3, Precision::Int8),
            StoredSample::latent_quantized(wide(-4.5), 7, Precision::Int8),
        ];
        let mut buf = Vec::new();
        write_packed_samples(&mut buf, &samples, Precision::Int8).expect("write");
        assert!(
            buf.len() < {
                let mut f32_buf = Vec::new();
                write_samples(&mut f32_buf, &samples).expect("write");
                f32_buf.len()
            },
            "packed section must be smaller than the f32 section"
        );
        let back = read_packed_samples(&mut buf.as_slice()).expect("read");
        assert_eq!(back, samples);
        assert!(back.iter().all(StoredSample::integrity_ok));
    }

    #[test]
    fn corrupted_packed_samples_stay_detectable_across_roundtrip() {
        let mut s = StoredSample::latent_quantized(vec![1.0, 2.0], 0, Precision::F16);
        s.features[0] = 9.0; // upset before the save; no reseal
        let mut buf = Vec::new();
        write_packed_samples(&mut buf, &[s], Precision::F16).expect("write");
        let back = read_packed_samples(&mut buf.as_slice()).expect("read");
        assert!(!back[0].integrity_ok());
    }

    #[test]
    fn packed_section_rejects_oversized_and_garbage_blobs() {
        let mut buf = Vec::new();
        write_u32(&mut buf, 1).expect("count");
        write_u32(&mut buf, 0).expect("label");
        write_u32(&mut buf, u32::MAX).expect("blob len");
        assert!(matches!(
            read_packed_samples(&mut buf.as_slice()),
            Err(LoadCheckpointError::LatentCodec(CodecError::Oversized(_)))
        ));
        let mut garbage = Vec::new();
        write_u32(&mut garbage, 1).expect("count");
        write_u32(&mut garbage, 0).expect("label");
        write_u32(&mut garbage, 3).expect("blob len");
        garbage.extend_from_slice(&[0xFF, 0xFF, 0xFF]);
        write_u32(&mut garbage, 0).expect("checksum");
        assert!(matches!(
            read_packed_samples(&mut garbage.as_slice()),
            Err(LoadCheckpointError::LatentCodec(_))
        ));
    }

    #[test]
    fn open_rejects_every_single_byte_corruption() {
        let blob = seal(b"0123456789abcdef");
        for i in 0..blob.len() {
            let mut bad = blob.clone();
            bad[i] ^= 0x40;
            assert!(open(&bad).is_err(), "corruption at byte {i} accepted");
        }
    }

    #[test]
    fn open_rejects_every_truncation() {
        let blob = seal(&[7u8; 40]);
        for keep in 0..blob.len() {
            let err = open(&blob[..keep]).expect_err("truncated blob accepted");
            assert!(
                matches!(
                    err,
                    LoadCheckpointError::Truncated | LoadCheckpointError::BadChecksum { .. }
                ),
                "unexpected error at {keep}: {err}"
            );
        }
    }

    #[test]
    fn open_identifies_legacy_version() {
        let mut blob = seal(b"payload");
        blob[..8].copy_from_slice(LEGACY_MAGIC);
        assert!(matches!(
            open(&blob),
            Err(LoadCheckpointError::UnsupportedVersion)
        ));
    }

    #[test]
    fn error_display_is_informative() {
        let e = LoadCheckpointError::ShapeMismatch {
            what: "head",
            found: 3,
            expected: 5,
        };
        assert!(e.to_string().contains("head"));
        assert!(LoadCheckpointError::BadMagic.to_string().contains("magic"));
        assert!(LoadCheckpointError::Truncated
            .to_string()
            .contains("truncated"));
        let c = LoadCheckpointError::BadChecksum {
            found: 1,
            expected: 2,
        };
        assert!(c.to_string().contains("corrupted"));
    }
}
