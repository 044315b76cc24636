//! The append-only record log behind both durable formats: the `CHAMSEG1`
//! session log (`chameleon-store`) and the `CHAMRTE1` router-state log
//! (`chameleon-route`). Both open through [`recover`] and compact through
//! [`AppendLog::swap`]; each format adds only its body layout and its
//! policies (what to index or replay, when to compact).
//!
//! A log file is an 8-byte format magic followed by records framed as
//! `len:u32 LE | body | crc32(body):u32 LE`, where `len` counts the body
//! only. The length prefix is checked against [`MAX_RECORD_BYTES`] and
//! the format's minimum body before anything is sliced or allocated, and
//! every prefix of a valid record decodes as [`RecordError::Truncated`].
//! That makes torn-tail recovery sound: [`scan`] stops at the first record
//! that does not decode, [`recover`] truncates the file there, and
//! everything sealed before it survives. Appends are fsynced before they
//! are acknowledged; a compaction writes the whole new image at a temp
//! sibling and renames it over the log ([`AppendLog::swap`]).

use std::fs::{File, OpenOptions};
use std::io::{self, Write};
use std::path::{Path, PathBuf};

use crate::integrity::{crc32, Crc32};

/// Bytes of the format magic opening every log file.
pub const MAGIC_BYTES: usize = 8;

/// Bytes a record adds around its body: length prefix + CRC trailer.
pub const RECORD_FRAME_BYTES: usize = 4 + 4;

/// Upper bound on one record body. Checkpoints are a few hundred KiB to a
/// few MiB; the cap keeps a corrupt length prefix from driving a giant
/// allocation.
pub const MAX_RECORD_BYTES: usize = 64 * 1024 * 1024;

/// Typed decode failures for log headers and record frames.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum RecordError {
    /// Fewer bytes than the structure requires (torn tail, short read).
    Truncated,
    /// The log does not open with its format magic.
    BadMagic,
    /// Length prefix exceeds [`MAX_RECORD_BYTES`] — rejected before any
    /// allocation is sized by it.
    Oversized {
        /// The hostile length prefix.
        len: u64,
        /// The cap it violated.
        max: u64,
    },
    /// Body too short for the format's fixed fields.
    BadLength {
        /// The impossible body length.
        len: u64,
    },
    /// Body bytes do not match the CRC trailer.
    BadChecksum {
        /// CRC computed over the body as read.
        found: u32,
        /// CRC recorded in the trailer.
        expected: u32,
    },
}

impl std::fmt::Display for RecordError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RecordError::Truncated => write!(f, "log record truncated"),
            RecordError::BadMagic => write!(f, "log magic mismatch"),
            RecordError::Oversized { len, max } => {
                write!(f, "record length {len} exceeds cap {max}")
            }
            RecordError::BadLength { len } => {
                write!(f, "record body length {len} below its fixed fields")
            }
            RecordError::BadChecksum { found, expected } => {
                write!(
                    f,
                    "record checksum {found:#010x} != sealed {expected:#010x}"
                )
            }
        }
    }
}

impl std::error::Error for RecordError {}

/// Frames one record whose body is the concatenation of `parts`, copying
/// each part once.
pub fn encode_frame(parts: &[&[u8]]) -> Vec<u8> {
    let len: usize = parts.iter().map(|part| part.len()).sum();
    let mut out = Vec::with_capacity(RECORD_FRAME_BYTES + len);
    out.extend_from_slice(&(len as u32).to_le_bytes());
    let mut crc = Crc32::new();
    for part in parts {
        out.extend_from_slice(part);
        crc.update(part);
    }
    out.extend_from_slice(&crc.finish().to_le_bytes());
    out
}

/// Decodes the record frame at the front of `bytes`, returning its body
/// (borrowed, CRC-verified) and the number of bytes consumed.
///
/// # Errors
/// From the length prefix alone: [`RecordError::Oversized`] past the cap,
/// then [`RecordError::BadLength`] under `min_body`. Then
/// [`RecordError::Truncated`] if `bytes` ends mid-record and
/// [`RecordError::BadChecksum`] if the trailer does not seal the body.
pub fn decode_frame(bytes: &[u8], min_body: usize) -> Result<(&[u8], usize), RecordError> {
    if bytes.len() < 4 {
        return Err(RecordError::Truncated);
    }
    let len = u32::from_le_bytes(bytes[..4].try_into().expect("4 bytes")) as usize;
    if len > MAX_RECORD_BYTES {
        return Err(RecordError::Oversized {
            len: len as u64,
            max: MAX_RECORD_BYTES as u64,
        });
    }
    if len < min_body {
        return Err(RecordError::BadLength { len: len as u64 });
    }
    let total = RECORD_FRAME_BYTES + len;
    if bytes.len() < total {
        return Err(RecordError::Truncated);
    }
    let body = &bytes[4..4 + len];
    let expected = u32::from_le_bytes(bytes[4 + len..total].try_into().expect("4 bytes"));
    let found = crc32(body);
    if found != expected {
        return Err(RecordError::BadChecksum { found, expected });
    }
    Ok((body, total))
}

/// Checks that `bytes` opens with `magic`.
///
/// # Errors
/// [`RecordError::Truncated`] under [`MAGIC_BYTES`] bytes,
/// [`RecordError::BadMagic`] if they are not `magic`.
pub fn check_header(bytes: &[u8], magic: &[u8; MAGIC_BYTES]) -> Result<(), RecordError> {
    if bytes.len() < MAGIC_BYTES {
        return Err(RecordError::Truncated);
    }
    if &bytes[..MAGIC_BYTES] != magic {
        return Err(RecordError::BadMagic);
    }
    Ok(())
}

/// Walks a log image from just after its `magic` header to the first
/// record `decode` refuses. `decode` gets each record's offset and the
/// bytes from there on, and returns the bytes the record used. Returns
/// the clean length and the error that stopped the walk early, if any.
///
/// # Errors
/// The [`check_header`] failure, before any record is decoded.
pub fn scan<'a, E>(
    bytes: &'a [u8],
    magic: &[u8; MAGIC_BYTES],
    mut decode: impl FnMut(usize, &'a [u8]) -> Result<usize, E>,
) -> Result<(usize, Option<E>), RecordError> {
    check_header(bytes, magic)?;
    let mut offset = MAGIC_BYTES;
    while offset < bytes.len() {
        match decode(offset, &bytes[offset..]) {
            Ok(used) => offset += used,
            Err(error) => return Ok((offset, Some(error))),
        }
    }
    Ok((offset, None))
}

/// The hidden sibling a swap stages `path`'s new bytes in; a crash
/// before the rename can leave it behind, holding nothing live.
pub fn temp_path(path: &Path) -> PathBuf {
    let name = path.file_name().unwrap_or_default().to_string_lossy();
    path.with_file_name(format!(".{name}.tmp"))
}

/// Writes a new image of `path` through `fill` into a fresh log at
/// [`temp_path`], fsyncs it and renames it over `path`, returning the
/// handle that now holds `path` with what `fill` returned. A failure
/// before the rename leaves `path` as it was.
fn swap_in<T>(
    path: &Path,
    fill: impl FnOnce(&mut AppendLog) -> io::Result<T>,
) -> io::Result<(AppendLog, T)> {
    let tmp = temp_path(path);
    let mut staged = AppendLog::new(File::create(&tmp)?, path, 0);
    let out = fill(&mut staged)?;
    staged.sync()?;
    std::fs::rename(&tmp, path)?;
    staged.rename_pending = true;
    Ok((staged, out))
}

/// Fsyncs the directory holding `path`, making a rename there durable.
fn sync_parent(path: &Path) -> io::Result<()> {
    let dir = path.parent().filter(|dir| !dir.as_os_str().is_empty());
    File::open(dir.unwrap_or(Path::new(".")))?.sync_all()
}

/// Atomically replaces the file at `path` with `bytes`: temp sibling,
/// fsync, rename, directory fsync. A crash leaves the old or the new bytes.
///
/// # Errors
/// The first failing step — the directory fsync included, since until it
/// succeeds the rename may not survive power loss.
pub fn replace(path: &Path, bytes: &[u8]) -> io::Result<()> {
    swap_in(path, |staged| staged.write(bytes))?;
    sync_parent(path)
}

/// Opens the log at `path` for appending after whatever a crash left: a
/// [`temp_path`] sibling from a swap that never renamed is removed; a
/// missing file, or one shorter than `magic` (a crash during creation:
/// nothing decodable lives in fewer bytes), is created afresh and its
/// directory fsynced, so appends acked to it survive power loss; otherwise
/// the records are [`scan`]ned with `decode` and the file is truncated
/// (and fsynced) after the clean prefix. Returns the log, the bytes cut
/// off, and the error that stopped the scan early, if any.
///
/// # Errors
/// I/O failures, and `InvalidData` for a file of [`MAGIC_BYTES`] or more
/// that does not open with `magic`: a path pointed at some other file is
/// refused rather than clobbered.
pub fn recover<E>(
    path: &Path,
    magic: &[u8; MAGIC_BYTES],
    decode: impl FnMut(usize, &[u8]) -> Result<usize, E>,
) -> io::Result<(AppendLog, u64, Option<E>)> {
    let _ = std::fs::remove_file(temp_path(path));
    let bytes = match std::fs::read(path) {
        Ok(bytes) => bytes,
        Err(e) if e.kind() == io::ErrorKind::NotFound => Vec::new(),
        Err(e) => return Err(e),
    };
    if bytes.len() < MAGIC_BYTES {
        let mut log = AppendLog::create(path, magic)?;
        log.sync_dir()?;
        return Ok((log, bytes.len() as u64, None));
    }
    let (clean_len, damage) = scan(&bytes, magic, decode).map_err(|error| {
        let message = format!("{}: {error}", path.display());
        io::Error::new(io::ErrorKind::InvalidData, message)
    })?;
    let log = AppendLog::open(path, clean_len as u64)?;
    Ok((log, (bytes.len() - clean_len) as u64, damage))
}

/// One open log file, appended to at its end. Every method fails with the
/// underlying I/O error.
#[derive(Debug)]
pub struct AppendLog {
    file: File,
    path: PathBuf,
    len: u64,
    /// A swap renamed this file into place and no directory fsync has
    /// succeeded since: power loss may still undo the rename.
    rename_pending: bool,
}

impl AppendLog {
    /// A handle appending to `file`, the log at `path`, after `len` bytes.
    fn new(file: File, path: &Path, len: u64) -> Self {
        Self {
            file,
            path: path.to_path_buf(),
            len,
            rename_pending: false,
        }
    }

    /// Creates (or empties) the log at `path` holding only `magic`, fsynced
    /// before the file may be referenced.
    pub fn create(path: &Path, magic: &[u8; MAGIC_BYTES]) -> io::Result<Self> {
        let mut file = File::create(path)?;
        file.write_all(magic)?;
        file.sync_data()?;
        Ok(Self::new(file, path, MAGIC_BYTES as u64))
    }

    /// Opens the log at `path` to append after `clean_len` bytes, the clean
    /// prefix [`scan`] found, truncating (and fsyncing) any tail past it.
    pub fn open(path: &Path, clean_len: u64) -> io::Result<Self> {
        let file = OpenOptions::new().append(true).open(path)?;
        if file.metadata()?.len() > clean_len {
            file.set_len(clean_len)?;
            file.sync_data()?;
        }
        Ok(Self::new(file, path, clean_len))
    }

    /// Writes framed records without fsyncing; [`AppendLog::sync`] before
    /// acknowledging them.
    pub fn write(&mut self, framed: &[u8]) -> io::Result<()> {
        self.file.write_all(framed)?;
        self.len += framed.len() as u64;
        Ok(())
    }

    /// Fsyncs everything written so far, and the directory too while a
    /// swap's rename is not known durable: nothing is acknowledged in a
    /// file that power loss could still un-rename.
    pub fn sync(&mut self) -> io::Result<()> {
        self.file.sync_data()?;
        if self.rename_pending {
            self.sync_dir()?;
        }
        Ok(())
    }

    /// Writes and fsyncs framed records before returning.
    pub fn append(&mut self, framed: &[u8]) -> io::Result<()> {
        self.write(framed)?;
        self.sync()
    }

    /// Rewrites the log: `fill` writes the new image (magic included)
    /// into a fresh log at the [`temp_path`] sibling, which is fsynced and
    /// renamed over this one; appends then go to the new file. Returns
    /// what `fill` returned. The old log is untouched unless the rename
    /// ran. Follow with [`AppendLog::sync_dir`]: until the directory is
    /// fsynced the rename may not survive power loss, so until then
    /// [`AppendLog::sync`] retries it and fails while it fails.
    pub fn swap<T>(&mut self, fill: impl FnOnce(&mut AppendLog) -> io::Result<T>) -> io::Result<T> {
        let (swapped, out) = swap_in(&self.path, fill)?;
        *self = swapped;
        Ok(out)
    }

    /// Fsyncs the directory holding the log, making a swap's rename
    /// durable.
    pub fn sync_dir(&mut self) -> io::Result<()> {
        sync_parent(&self.path)?;
        self.rename_pending = false;
        Ok(())
    }

    /// Rewrites the log as `bytes` (magic included): a swap, then the
    /// directory fsync. Once the rename ran, appends go to the new file
    /// even if the directory fsync then failed, and none is acknowledged
    /// until a retry of it succeeds.
    pub fn replace(&mut self, bytes: &[u8]) -> io::Result<()> {
        self.swap(|staged| staged.write(bytes))?;
        self.sync_dir()
    }

    /// Bytes in the log, header included.
    pub fn bytes(&self) -> u64 {
        self.len
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const MAGIC: &[u8; MAGIC_BYTES] = b"TESTLOG1";

    fn scratch(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("append-log-{name}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("mkdir");
        dir
    }

    #[test]
    fn parts_frame_like_one_body() {
        let framed = encode_frame(&[b"ab", b"", b"cde"]);
        assert_eq!(framed, encode_frame(&[b"abcde"]));
        assert_eq!(decode_frame(&framed, 5), Ok((&b"abcde"[..], framed.len())));
        assert_eq!(
            decode_frame(&framed, 6),
            Err(RecordError::BadLength { len: 5 })
        );
    }

    #[test]
    fn scan_stops_at_the_first_undecodable_record() {
        let mut log = MAGIC.to_vec();
        log.extend_from_slice(&encode_frame(&[b"one"]));
        let clean = log.len();
        log.extend_from_slice(&encode_frame(&[b"two"])[..5]);
        let mut seen = Vec::new();
        let scanned = scan(&log, MAGIC, |offset, rest| {
            let (body, used) = decode_frame(rest, 0)?;
            seen.push((offset, body.to_vec()));
            Ok::<_, RecordError>(used)
        });
        assert_eq!(scanned, Ok((clean, Some(RecordError::Truncated))));
        assert_eq!(seen, vec![(MAGIC_BYTES, b"one".to_vec())]);
        let header = scan(&log[..3], MAGIC, |_, _| Ok::<_, RecordError>(0));
        assert_eq!(header, Err(RecordError::Truncated));
        assert_eq!(
            scan(b"NOTALOG!", MAGIC, |_, _| Ok::<_, RecordError>(0)),
            Err(RecordError::BadMagic)
        );
    }

    #[test]
    fn recover_truncates_the_tail_and_appends_after_the_clean_prefix() {
        let dir = scratch("open");
        let path = dir.join("log");
        let frames = |_: usize, rest: &[u8]| decode_frame(rest, 0).map(|(_, used)| used);
        let mut log = AppendLog::create(&path, MAGIC).expect("create");
        log.append(&encode_frame(&[b"kept"])).expect("append");
        let clean = log.bytes();
        log.append(&[0xAB; 5]).expect("torn tail");
        drop(log);
        std::fs::write(temp_path(&path), b"staged").expect("leftover temp");
        let (mut log, cut, damage) = recover(&path, MAGIC, frames).expect("recover");
        assert_eq!(cut, 5);
        assert!(matches!(damage, Some(RecordError::Oversized { .. })));
        assert!(!temp_path(&path).exists());
        assert_eq!(std::fs::metadata(&path).expect("stat").len(), clean);
        log.append(&encode_frame(&[b"next"])).expect("append");
        let bytes = std::fs::read(&path).expect("read");
        assert_eq!(bytes.len() as u64, log.bytes());
        assert_eq!(scan(&bytes, MAGIC, frames), Ok((bytes.len(), None)));
        // A partial header starts over; a foreign magic is refused as is.
        std::fs::write(&path, &MAGIC[..3]).expect("torn header");
        let (log, cut, _) = recover(&path, MAGIC, frames).expect("recover");
        assert_eq!((log.bytes(), cut), (MAGIC_BYTES as u64, 3));
        std::fs::write(&path, b"NOTALOG!").expect("foreign file");
        let refused = recover(&path, MAGIC, frames).map(|_| ()).unwrap_err();
        assert_eq!(refused.kind(), io::ErrorKind::InvalidData);
        assert_eq!(std::fs::read(&path).expect("read"), b"NOTALOG!");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn temp_path_stays_in_the_destination_directory() {
        // An absolute nested target: the temp file must be its sibling,
        // never a CWD-relative orphan, or the rename would cross
        // filesystems.
        assert_eq!(
            temp_path(Path::new("/a/b/ckpt.bin")),
            PathBuf::from("/a/b/.ckpt.bin.tmp")
        );
        assert_eq!(
            temp_path(Path::new("nested/dir/ckpt.bin")),
            PathBuf::from("nested/dir/.ckpt.bin.tmp")
        );
        // A bare filename has no parent; CWD-relative is then correct.
        assert_eq!(
            temp_path(Path::new("ckpt.bin")),
            PathBuf::from(".ckpt.bin.tmp")
        );
    }

    #[test]
    fn replace_swaps_the_file_and_the_append_handle() {
        let dir = scratch("replace");
        let path = dir.join("log");
        let mut log = AppendLog::create(&path, MAGIC).expect("create");
        log.append(&encode_frame(&[b"superseded"])).expect("append");
        let mut fresh = MAGIC.to_vec();
        fresh.extend_from_slice(&encode_frame(&[b"live"]));
        log.replace(&fresh).expect("replace");
        log.append(&encode_frame(&[b"after"])).expect("append");
        fresh.extend_from_slice(&encode_frame(&[b"after"]));
        assert_eq!(std::fs::read(&path).expect("read"), fresh);
        assert_eq!(log.bytes(), fresh.len() as u64);
        assert!(!temp_path(&path).exists());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn no_append_is_acked_until_a_swaps_rename_is_durable() {
        let dir = scratch("rename-pending");
        let path = dir.join("log");
        let mut log = AppendLog::create(&path, MAGIC).expect("create");
        // A swap whose directory fsync has not succeeded: the next sync
        // retries it, and fails while the directory cannot be fsynced.
        log.swap(|staged| staged.write(MAGIC)).expect("swap");
        let hidden = dir.with_extension("hidden");
        std::fs::rename(&dir, &hidden).expect("hide the directory");
        assert!(log.append(&encode_frame(&[b"unacked"])).is_err());
        std::fs::rename(&hidden, &dir).expect("restore the directory");
        log.append(&encode_frame(&[b"acked"])).expect("append");
        // Once the directory synced, a sync is the file's alone again.
        std::fs::rename(&dir, &hidden).expect("hide the directory");
        log.append(&encode_frame(&[b"file only"])).expect("append");
        std::fs::rename(&hidden, &dir).expect("restore the directory");
        let _ = std::fs::remove_dir_all(&dir);
    }
}
