//! The durable session store: segment files, manifest, index, recovery.

use std::collections::HashMap;
use std::fs::{self, File};
use std::io::{Read, Seek, SeekFrom};
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex, MutexGuard};

use chameleon_faults::{FaultInjector, FaultPlan};
use chameleon_replay::append_log::{self, AppendLog, RecordError};

use crate::segment::{
    decode_record, encode_record, split_body, Record, RECORD_HEADER_BYTES, SEGMENT_MAGIC,
};

/// Manifest file name inside the store directory.
const MANIFEST_NAME: &str = "MANIFEST";
/// First line of every manifest file.
const MANIFEST_MAGIC: &str = "CHAMMAN1";
/// Segment header length (the magic).
const HEADER_LEN: u64 = SEGMENT_MAGIC.len() as u64;

/// Configuration for opening a [`SessionStore`].
#[derive(Clone, Debug)]
pub struct StoreConfig {
    /// Directory holding the manifest and segment files (created if
    /// missing).
    pub dir: PathBuf,
    /// Active-segment size that triggers rotation to a fresh segment.
    pub segment_bytes: u64,
    /// Minimum dead (superseded) record bytes before compaction is
    /// considered.
    pub compact_min_bytes: u64,
    /// Dead fraction of total record bytes that triggers compaction once
    /// the minimum is met.
    pub compact_dead_ratio: f64,
    /// Optional file-fault campaign driving the I/O seam (crash
    /// schedules); `None` in production.
    pub faults: Option<FaultPlan>,
}

impl StoreConfig {
    /// Production defaults rooted at `dir`: 8 MiB segments, compaction at
    /// ≥1 MiB dead bytes forming ≥50% of the log, no injected faults.
    pub fn new(dir: impl Into<PathBuf>) -> Self {
        Self {
            dir: dir.into(),
            segment_bytes: 8 * 1024 * 1024,
            compact_min_bytes: 1024 * 1024,
            compact_dead_ratio: 0.5,
            faults: None,
        }
    }
}

/// Monotone counters describing everything the store has done, plus a
/// point-in-time view of log shape. Exposed through
/// `FleetEngine::store_counters` into `Observation` and the CLI JSON.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct StoreCounters {
    /// Records sealed and acknowledged.
    pub appends: u64,
    /// Total on-disk bytes of acknowledged records.
    pub append_bytes: u64,
    /// Fsyncs issued on segment files.
    pub fsyncs: u64,
    /// Active-segment rotations.
    pub rotations: u64,
    /// Compactions completed.
    pub compactions: u64,
    /// Torn tails truncated away during open.
    pub torn_truncations: u64,
    /// Bytes discarded by torn-tail truncation.
    pub truncated_bytes: u64,
    /// Records that failed CRC/structure checks (scan or read).
    pub decode_rejects: u64,
    /// Short reads detected and retried.
    pub short_reads: u64,
    /// Sessions indexed from disk at the last open.
    pub sessions_recovered: u64,
    /// Segment files currently in the manifest.
    pub segments: u64,
    /// Sessions with a live (latest-sealed) record.
    pub live_records: u64,
    /// Superseded record bytes awaiting compaction.
    pub dead_bytes: u64,
}

impl StoreCounters {
    /// The counters as `store.*` name/value pairs, in the order a
    /// server's `Observation` carries them. Every report of this block
    /// iterates this list.
    #[must_use]
    pub fn named(&self) -> Vec<(String, u64)> {
        [
            ("store.appends", self.appends),
            ("store.append_bytes", self.append_bytes),
            ("store.fsyncs", self.fsyncs),
            ("store.rotations", self.rotations),
            ("store.compactions", self.compactions),
            ("store.torn_truncations", self.torn_truncations),
            ("store.truncated_bytes", self.truncated_bytes),
            ("store.decode_rejects", self.decode_rejects),
            ("store.short_reads", self.short_reads),
            ("store.sessions_recovered", self.sessions_recovered),
            ("store.segments", self.segments),
            ("store.live_records", self.live_records),
            ("store.dead_bytes", self.dead_bytes),
        ]
        .map(|(name, value)| (name.to_string(), value))
        .into()
    }
}

/// Failures of store operations.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum StoreError {
    /// An OS file operation failed.
    Io {
        /// What the store was doing.
        op: &'static str,
        /// Path involved.
        path: String,
        /// OS error text.
        error: String,
    },
    /// A sealed record failed its structure/CRC check.
    Corrupt {
        /// Segment id holding the record.
        segment: u64,
        /// Byte offset of the record in that segment.
        offset: u64,
        /// The codec-level failure.
        error: RecordError,
    },
    /// A record decoded cleanly but disagrees with the index (wrong
    /// session or sequence at the indexed offset).
    IndexMismatch {
        /// Session the index expected.
        session: u64,
        /// Segment id read.
        segment: u64,
        /// Offset read.
        offset: u64,
    },
    /// The manifest file is missing, unreadable, or malformed.
    Manifest {
        /// Manifest path.
        path: String,
        /// What was wrong with it.
        reason: String,
    },
    /// The store simulated a crash; drop it and reopen the directory.
    Crashed,
}

impl std::fmt::Display for StoreError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            StoreError::Io { op, path, error } => {
                write!(f, "store {op} on {path}: {error}")
            }
            StoreError::Corrupt {
                segment,
                offset,
                error,
            } => write!(f, "segment {segment} offset {offset}: {error}"),
            StoreError::IndexMismatch {
                session,
                segment,
                offset,
            } => write!(
                f,
                "segment {segment} offset {offset}: record does not match index entry for session {session}"
            ),
            StoreError::Manifest { path, reason } => {
                write!(f, "manifest {path}: {reason}")
            }
            StoreError::Crashed => write!(f, "store crashed (simulated); reopen the directory"),
        }
    }
}

impl std::error::Error for StoreError {}

/// Index entry: where a session's latest sealed record lives.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
struct IndexEntry {
    segment: u64,
    offset: u64,
    len: u64,
    seq: u64,
}

/// A log-structured durable store of per-session checkpoint blobs.
///
/// Writes are append-only into the active `CHAMSEG1` segment and are
/// fsynced *before* [`SessionStore::append`] returns — the returned
/// sequence number is the durability acknowledgement the fleet's eviction
/// path relies on. An in-memory index maps each session to its latest
/// sealed record; open rebuilds the index by scanning the manifest's
/// segments, truncating each at its first undecodable record. Superseded
/// records are garbage; once they dominate the log a compaction rewrites
/// live records into a fresh segment and atomically swaps the manifest.
#[derive(Debug)]
pub struct SessionStore {
    config: StoreConfig,
    manifest: Vec<u64>,
    active: AppendLog,
    active_id: u64,
    /// Bytes of the active segment actually durable at the last fsync.
    /// Equal to its length unless a partial-fsync fault lied.
    durable_len: u64,
    index: HashMap<u64, IndexEntry>,
    /// Total record-frame bytes across all segments (live + dead).
    record_bytes_total: u64,
    /// Record-frame bytes referenced by the index.
    live_bytes: u64,
    injector: Option<FaultInjector>,
    counters: StoreCounters,
    crashed: bool,
}

fn io_err<'a>(op: &'static str, path: &'a Path) -> impl FnOnce(std::io::Error) -> StoreError + 'a {
    move |e| StoreError::Io {
        op,
        path: path.display().to_string(),
        error: e.to_string(),
    }
}

fn segment_path(dir: &Path, id: u64) -> PathBuf {
    dir.join(format!("seg-{id:08}.chamseg"))
}

/// Writes `manifest` atomically through [`append_log::replace`].
fn write_manifest(dir: &Path, manifest: &[u64]) -> Result<(), StoreError> {
    let target = dir.join(MANIFEST_NAME);
    let mut text = String::from(MANIFEST_MAGIC);
    text.push('\n');
    for id in manifest {
        text.push_str(&id.to_string());
        text.push('\n');
    }
    append_log::replace(&target, text.as_bytes()).map_err(io_err("swap manifest", &target))
}

fn read_manifest(dir: &Path) -> Result<Option<Vec<u64>>, StoreError> {
    let path = dir.join(MANIFEST_NAME);
    let text = match fs::read_to_string(&path) {
        Ok(text) => text,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(None),
        Err(e) => return Err(io_err("read manifest", &path)(e)),
    };
    let mut lines = text.lines();
    if lines.next() != Some(MANIFEST_MAGIC) {
        return Err(StoreError::Manifest {
            path: path.display().to_string(),
            reason: "missing CHAMMAN1 header".into(),
        });
    }
    let mut ids = Vec::new();
    for line in lines {
        if line.is_empty() {
            continue;
        }
        let id = line.parse::<u64>().map_err(|_| StoreError::Manifest {
            path: path.display().to_string(),
            reason: format!("bad segment id line {line:?}"),
        })?;
        ids.push(id);
    }
    if ids.is_empty() {
        return Err(StoreError::Manifest {
            path: path.display().to_string(),
            reason: "lists no segments".into(),
        });
    }
    Ok(Some(ids))
}

/// Creates a fresh segment file: magic written and fsynced before the
/// segment may be referenced by a manifest.
fn create_segment(dir: &Path, id: u64) -> Result<AppendLog, StoreError> {
    let path = segment_path(dir, id);
    AppendLog::create(&path, SEGMENT_MAGIC).map_err(io_err("create segment", &path))
}

impl SessionStore {
    /// Opens (or initializes) the store at `config.dir`, rebuilding the
    /// index from disk: scan every manifest segment in order, keep each
    /// session's highest-sequence sealed record, and truncate every
    /// segment at its first undecodable record (a torn tail, or damage
    /// that seals nothing after it). An active (last) segment whose header
    /// never became durable is reset to an empty segment.
    ///
    /// # Errors
    /// I/O failures, a malformed manifest, or a damaged header on a
    /// sealed (non-last) segment.
    pub fn open(config: StoreConfig) -> Result<Self, StoreError> {
        fs::create_dir_all(&config.dir).map_err(io_err("create store dir", &config.dir))?;
        // A temp left by a manifest swap interrupted before rename is dead.
        let _ = fs::remove_file(append_log::temp_path(&config.dir.join(MANIFEST_NAME)));
        let mut counters = StoreCounters::default();
        let manifest = match read_manifest(&config.dir)? {
            Some(ids) => ids,
            None => {
                drop(create_segment(&config.dir, 0)?);
                write_manifest(&config.dir, &[0])?;
                vec![0]
            }
        };

        let mut index: HashMap<u64, IndexEntry> = HashMap::new();
        let mut record_bytes_total = 0u64;
        let mut active = None;
        for (pos, &id) in manifest.iter().enumerate() {
            let is_last = pos + 1 == manifest.len();
            let path = segment_path(&config.dir, id);
            let bytes = fs::read(&path).map_err(io_err("read segment", &path))?;
            let scanned = append_log::scan(&bytes, SEGMENT_MAGIC, |offset, rest| {
                let (body, used) = append_log::decode_frame(rest, RECORD_HEADER_BYTES)?;
                let (session, seq, _) = split_body(body);
                if !matches!(index.get(&session), Some(existing) if existing.seq > seq) {
                    let entry = IndexEntry {
                        segment: id,
                        offset: offset as u64,
                        len: used as u64,
                        seq,
                    };
                    index.insert(session, entry);
                }
                record_bytes_total += used as u64;
                Ok::<_, RecordError>(used)
            });
            let clean_len = match scanned {
                Ok((clean_len, damage)) => {
                    if let Some(error) = damage {
                        // Torn or garbled tail: everything sealed before it
                        // survives; the tail is discarded. A clean
                        // `Truncated` is the expected crash shape; anything
                        // else means the torn region was also garbled.
                        if error != RecordError::Truncated {
                            counters.decode_rejects += 1;
                        }
                        counters.torn_truncations += 1;
                        counters.truncated_bytes += (bytes.len() - clean_len) as u64;
                    }
                    clean_len as u64
                }
                Err(_) if is_last => {
                    // The active segment never got a durable header; it
                    // holds nothing sealed. Reset it to an empty segment.
                    counters.torn_truncations += 1;
                    counters.truncated_bytes += bytes.len() as u64;
                    active = Some(create_segment(&config.dir, id)?);
                    continue;
                }
                Err(error) => {
                    return Err(StoreError::Corrupt {
                        segment: id,
                        offset: 0,
                        error,
                    })
                }
            };
            if is_last || clean_len < bytes.len() as u64 {
                // Opening truncates the damaged tail; the last segment
                // stays open as the active one.
                let log =
                    AppendLog::open(&path, clean_len).map_err(io_err("open segment", &path))?;
                if is_last {
                    active = Some(log);
                }
            }
        }

        let active = active.expect("manifest is never empty");
        let active_id = *manifest.last().expect("manifest is never empty");
        counters.sessions_recovered = index.len() as u64;
        let live_bytes = index.values().map(|e| e.len).sum();
        let injector = config.faults.map(FaultInjector::new);
        Ok(Self {
            config,
            manifest,
            durable_len: active.bytes(),
            active,
            active_id,
            index,
            record_bytes_total,
            live_bytes,
            injector,
            counters,
            crashed: false,
        })
    }

    fn check_alive(&self) -> Result<(), StoreError> {
        if self.crashed {
            return Err(StoreError::Crashed);
        }
        Ok(())
    }

    /// Fsyncs the active segment and advances the durability watermark —
    /// all the way, unless a partial-fsync fault makes the hardware lie.
    fn fsync_active(&mut self) -> Result<(), StoreError> {
        let path = segment_path(&self.config.dir, self.active_id);
        self.active
            .sync()
            .map_err(io_err("fsync active segment", &path))?;
        self.counters.fsyncs += 1;
        let pending = (self.active.bytes() - self.durable_len) as usize;
        let lie = self
            .injector
            .as_mut()
            .and_then(|injector| injector.partial_fsync(pending));
        match lie {
            Some(partial) => self.durable_len += partial as u64,
            None => self.durable_len = self.active.bytes(),
        }
        Ok(())
    }

    /// Rotates to a fresh active segment and swaps the manifest.
    fn rotate(&mut self) -> Result<(), StoreError> {
        let id = self.manifest.iter().max().expect("non-empty") + 1;
        let file = create_segment(&self.config.dir, id)?;
        self.manifest.push(id);
        write_manifest(&self.config.dir, &self.manifest)?;
        self.active = file;
        self.active_id = id;
        self.durable_len = HEADER_LEN;
        self.counters.rotations += 1;
        Ok(())
    }

    /// Appends `payload` as the next sealed record for `session` and
    /// returns its sequence number. The record is CRC-sealed and fsynced
    /// before this returns: a returned `Ok(seq)` is the write-ahead
    /// acknowledgement — the caller may discard its in-RAM copy.
    ///
    /// # Errors
    /// I/O failures, or [`StoreError::Crashed`] after a simulated crash.
    pub fn append(&mut self, session: u64, payload: &[u8]) -> Result<u64, StoreError> {
        self.check_alive()?;
        let seq = self.index.get(&session).map_or(0, |e| e.seq + 1);
        let record = encode_record(session, seq, payload);
        if self.active.bytes() + record.len() as u64 > self.config.segment_bytes
            && self.active.bytes() > HEADER_LEN
        {
            self.rotate()?;
        }
        let offset = self.active.bytes();
        let path = segment_path(&self.config.dir, self.active_id);
        self.active
            .write(&record)
            .map_err(io_err("append record", &path))?;
        self.fsync_active()?;
        let len = record.len() as u64;
        let entry = IndexEntry {
            segment: self.active_id,
            offset,
            len,
            seq,
        };
        if let Some(old) = self.index.insert(session, entry) {
            self.live_bytes -= old.len;
        }
        self.live_bytes += len;
        self.record_bytes_total += len;
        self.counters.appends += 1;
        self.counters.append_bytes += len;
        self.maybe_compact()?;
        Ok(seq)
    }

    /// Reads `entry.len` raw bytes at the indexed location, detecting and
    /// retrying injected short reads.
    fn read_entry_bytes(&mut self, entry: IndexEntry) -> Result<Vec<u8>, StoreError> {
        let path = segment_path(&self.config.dir, entry.segment);
        let mut file = File::open(&path).map_err(io_err("open segment for read", &path))?;
        file.seek(SeekFrom::Start(entry.offset))
            .map_err(io_err("seek record", &path))?;
        if let Some(short) = self
            .injector
            .as_mut()
            .and_then(|injector| injector.short_read(entry.len as usize))
        {
            // Transient short read: a prefix arrived; detect, rewind, retry.
            let mut partial = vec![0u8; short];
            file.read_exact(&mut partial)
                .map_err(io_err("short read", &path))?;
            self.counters.short_reads += 1;
            file.seek(SeekFrom::Start(entry.offset))
                .map_err(io_err("seek record retry", &path))?;
        }
        let mut bytes = vec![0u8; entry.len as usize];
        file.read_exact(&mut bytes)
            .map_err(io_err("read record", &path))?;
        Ok(bytes)
    }

    /// Reads the latest sealed payload for `session` (`None` if the
    /// session has never been appended).
    ///
    /// # Errors
    /// I/O failures, [`StoreError::Corrupt`]/[`StoreError::IndexMismatch`]
    /// if the sealed bytes fail verification, or [`StoreError::Crashed`].
    pub fn get(&mut self, session: u64) -> Result<Option<Vec<u8>>, StoreError> {
        self.check_alive()?;
        let Some(entry) = self.index.get(&session).copied() else {
            return Ok(None);
        };
        let bytes = self.read_entry_bytes(entry)?;
        match decode_record(&bytes) {
            Ok((record, _)) if record.session == session && record.seq == entry.seq => {
                Ok(Some(record.payload))
            }
            Ok(_) => {
                self.counters.decode_rejects += 1;
                Err(StoreError::IndexMismatch {
                    session,
                    segment: entry.segment,
                    offset: entry.offset,
                })
            }
            Err(error) => {
                self.counters.decode_rejects += 1;
                Err(StoreError::Corrupt {
                    segment: entry.segment,
                    offset: entry.offset,
                    error,
                })
            }
        }
    }

    /// Sessions with a live record, ascending.
    pub fn sessions(&self) -> Vec<u64> {
        let mut ids: Vec<u64> = self.index.keys().copied().collect();
        ids.sort_unstable();
        ids
    }

    /// Latest acknowledged sequence number for `session`.
    pub fn latest_seq(&self, session: u64) -> Option<u64> {
        self.index.get(&session).map(|e| e.seq)
    }

    /// Every sealed record currently on disk, in log order (diagnostic /
    /// test surface; not fault-injected). Stops a segment's scan at the
    /// first undecodable byte, mirroring recovery, and skips a segment
    /// whose header is damaged.
    ///
    /// # Errors
    /// I/O failures or [`StoreError::Crashed`].
    pub fn records(&self) -> Result<Vec<Record>, StoreError> {
        self.check_alive()?;
        let mut out = Vec::new();
        for &id in &self.manifest {
            let path = segment_path(&self.config.dir, id);
            let bytes = fs::read(&path).map_err(io_err("read segment", &path))?;
            let _ = append_log::scan(&bytes, SEGMENT_MAGIC, |_, rest| {
                let (record, used) = decode_record(rest)?;
                out.push(record);
                Ok::<_, RecordError>(used)
            });
        }
        Ok(out)
    }

    fn maybe_compact(&mut self) -> Result<(), StoreError> {
        let dead = self.record_bytes_total - self.live_bytes;
        if dead < self.config.compact_min_bytes {
            return Ok(());
        }
        if (dead as f64) < self.config.compact_dead_ratio * self.record_bytes_total as f64 {
            return Ok(());
        }
        self.compact()
    }

    /// Rewrites every live record into one fresh segment, atomically swaps
    /// the manifest to reference only it, and deletes the old segments.
    /// The new segment becomes the active one.
    ///
    /// # Errors
    /// I/O failures or [`StoreError::Crashed`].
    pub fn compact(&mut self) -> Result<(), StoreError> {
        self.check_alive()?;
        let id = self.manifest.iter().max().expect("non-empty") + 1;
        let path = segment_path(&self.config.dir, id);
        let mut file = create_segment(&self.config.dir, id)?;
        let mut sessions: Vec<u64> = self.index.keys().copied().collect();
        sessions.sort_unstable();
        let mut new_index = HashMap::with_capacity(sessions.len());
        for session in sessions {
            let entry = self.index[&session];
            // Raw byte copy: the record was CRC-verified when indexed, and
            // its seal travels with it.
            let bytes = self.read_entry_bytes(entry)?;
            new_index.insert(
                session,
                IndexEntry {
                    segment: id,
                    offset: file.bytes(),
                    len: entry.len,
                    seq: entry.seq,
                },
            );
            file.write(&bytes)
                .map_err(io_err("write compacted record", &path))?;
        }
        file.sync()
            .map_err(io_err("sync compacted segment", &path))?;
        self.counters.fsyncs += 1;
        let old = std::mem::replace(&mut self.manifest, vec![id]);
        write_manifest(&self.config.dir, &self.manifest)?;
        for old_id in old {
            let _ = fs::remove_file(segment_path(&self.config.dir, old_id));
        }
        let len = file.bytes();
        self.index = new_index;
        self.active = file;
        self.active_id = id;
        self.durable_len = len;
        self.record_bytes_total = len - HEADER_LEN;
        self.live_bytes = len - HEADER_LEN;
        self.counters.compactions += 1;
        Ok(())
    }

    /// Point-in-time counters (monotone event counts plus current log
    /// shape).
    pub fn counters(&self) -> StoreCounters {
        let mut c = self.counters;
        c.segments = self.manifest.len() as u64;
        c.live_records = self.index.len() as u64;
        c.dead_bytes = self.record_bytes_total - self.live_bytes;
        c
    }

    /// The directory this store lives in.
    pub fn dir(&self) -> &Path {
        &self.config.dir
    }

    /// Simulates power loss at this instant: everything past the durable
    /// watermark of the active segment is rewritten as whatever the fault
    /// model says survives (torn prefix, possibly with a flipped bit).
    /// Without file faults the non-durable suffix is dropped entirely —
    /// the conservative reading of "fsync did not return".
    ///
    /// After this call the in-memory state no longer matches disk; every
    /// further operation fails with [`StoreError::Crashed`]. Reopen the
    /// directory to recover.
    ///
    /// # Errors
    /// I/O failures or [`StoreError::Crashed`] if already crashed.
    pub fn simulate_crash(&mut self) -> Result<(), StoreError> {
        self.check_alive()?;
        self.crashed = true;
        let path = segment_path(&self.config.dir, self.active_id);
        let active_len = self.active.bytes();
        let mut tail = Vec::new();
        if active_len > self.durable_len {
            let mut file = File::open(&path).map_err(io_err("open segment for crash", &path))?;
            file.seek(SeekFrom::Start(self.durable_len))
                .map_err(io_err("seek crash tail", &path))?;
            tail = vec![0u8; (active_len - self.durable_len) as usize];
            file.read_exact(&mut tail)
                .map_err(io_err("read crash tail", &path))?;
            if let Some(injector) = self.injector.as_mut() {
                injector.crash_damage(&mut tail);
            } else {
                tail.clear();
            }
        }
        // Drop the non-durable tail, then write back what of it survived.
        AppendLog::open(&path, self.durable_len)
            .and_then(|mut segment| segment.append(&tail))
            .map_err(io_err("rewrite crash tail", &path))
    }
}

/// Clonable, thread-safe handle to one [`SessionStore`], shared between
/// shard workers and the engine. Lock poisoning is tolerated: the store's
/// on-disk state is always consistent (records seal atomically), so a
/// panicking peer does not invalidate it.
#[derive(Clone, Debug)]
pub struct SharedStore {
    inner: Arc<Mutex<SessionStore>>,
}

impl SharedStore {
    /// Wraps an already-open store.
    pub fn new(store: SessionStore) -> Self {
        Self {
            inner: Arc::new(Mutex::new(store)),
        }
    }

    /// Opens the store at `config.dir` and wraps it.
    ///
    /// # Errors
    /// Same as [`SessionStore::open`].
    pub fn open(config: StoreConfig) -> Result<Self, StoreError> {
        SessionStore::open(config).map(Self::new)
    }

    fn lock(&self) -> MutexGuard<'_, SessionStore> {
        self.inner
            .lock()
            .unwrap_or_else(|poisoned| poisoned.into_inner())
    }

    /// See [`SessionStore::append`].
    ///
    /// # Errors
    /// Same as [`SessionStore::append`].
    pub fn append(&self, session: u64, payload: &[u8]) -> Result<u64, StoreError> {
        self.lock().append(session, payload)
    }

    /// See [`SessionStore::get`].
    ///
    /// # Errors
    /// Same as [`SessionStore::get`].
    pub fn get(&self, session: u64) -> Result<Option<Vec<u8>>, StoreError> {
        self.lock().get(session)
    }

    /// See [`SessionStore::sessions`].
    pub fn sessions(&self) -> Vec<u64> {
        self.lock().sessions()
    }

    /// See [`SessionStore::records`].
    ///
    /// # Errors
    /// Same as [`SessionStore::records`].
    pub fn records(&self) -> Result<Vec<Record>, StoreError> {
        self.lock().records()
    }

    /// See [`SessionStore::compact`].
    ///
    /// # Errors
    /// Same as [`SessionStore::compact`].
    pub fn compact(&self) -> Result<(), StoreError> {
        self.lock().compact()
    }

    /// See [`SessionStore::counters`].
    pub fn counters(&self) -> StoreCounters {
        self.lock().counters()
    }

    /// See [`SessionStore::simulate_crash`].
    ///
    /// # Errors
    /// Same as [`SessionStore::simulate_crash`].
    pub fn simulate_crash(&self) -> Result<(), StoreError> {
        self.lock().simulate_crash()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use chameleon_faults::FileFaultModel;
    use std::fs::OpenOptions;
    use std::io::Write;

    fn scratch(name: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("chameleon-store-{name}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    fn tiny_config(dir: &Path) -> StoreConfig {
        StoreConfig {
            segment_bytes: 256,
            compact_min_bytes: 512,
            compact_dead_ratio: 0.5,
            ..StoreConfig::new(dir)
        }
    }

    #[test]
    fn append_get_roundtrip_with_monotone_seq() {
        let dir = scratch("roundtrip");
        let mut store = SessionStore::open(StoreConfig::new(&dir)).expect("open");
        assert_eq!(store.append(7, b"alpha").expect("append"), 0);
        assert_eq!(store.append(7, b"beta").expect("append"), 1);
        assert_eq!(store.append(9, b"gamma").expect("append"), 0);
        assert_eq!(store.get(7).expect("get"), Some(b"beta".to_vec()));
        assert_eq!(store.get(9).expect("get"), Some(b"gamma".to_vec()));
        assert_eq!(store.get(1).expect("get"), None);
        assert_eq!(store.sessions(), vec![7, 9]);
        let c = store.counters();
        assert_eq!(c.appends, 3);
        assert_eq!(c.fsyncs, 3);
        assert_eq!(c.live_records, 2);
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn reopen_rebuilds_the_index() {
        let dir = scratch("reopen");
        {
            let mut store = SessionStore::open(StoreConfig::new(&dir)).expect("open");
            store.append(1, b"one-a").expect("append");
            store.append(2, b"two").expect("append");
            store.append(1, b"one-b").expect("append");
        }
        let mut store = SessionStore::open(StoreConfig::new(&dir)).expect("reopen");
        assert_eq!(store.counters().sessions_recovered, 2);
        assert_eq!(store.get(1).expect("get"), Some(b"one-b".to_vec()));
        assert_eq!(store.latest_seq(1), Some(1));
        assert_eq!(store.get(2).expect("get"), Some(b"two".to_vec()));
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn torn_tail_is_truncated_on_open() {
        let dir = scratch("torn");
        {
            let mut store = SessionStore::open(StoreConfig::new(&dir)).expect("open");
            store.append(1, b"sealed").expect("append");
        }
        // A crash mid-append: half a record's worth of garbage at the tail.
        let path = segment_path(&dir, 0);
        let mut file = OpenOptions::new().append(true).open(&path).expect("open");
        file.write_all(&[0xAB; 11]).expect("tear");
        drop(file);
        let before = fs::metadata(&path).expect("stat").len();

        let mut store = SessionStore::open(StoreConfig::new(&dir)).expect("recover");
        let c = store.counters();
        assert_eq!(c.torn_truncations, 1);
        assert_eq!(c.truncated_bytes, 11);
        assert_eq!(c.sessions_recovered, 1);
        assert_eq!(store.get(1).expect("get"), Some(b"sealed".to_vec()));
        assert_eq!(fs::metadata(&path).expect("stat").len(), before - 11);
        // The log keeps working after repair.
        assert_eq!(store.append(1, b"after").expect("append"), 1);
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn rotation_spreads_records_across_segments() {
        let dir = scratch("rotate");
        let mut store = SessionStore::open(tiny_config(&dir)).expect("open");
        for round in 0..12u64 {
            store.append(round % 4, &[round as u8; 64]).expect("append");
        }
        let c = store.counters();
        assert!(c.rotations > 0, "{c:?}");
        assert!(c.segments > 1, "{c:?}");
        for session in 0..4u64 {
            assert!(store.get(session).expect("get").is_some());
        }
        // Reopen sees the same sessions through the multi-segment manifest.
        drop(store);
        let store = SessionStore::open(tiny_config(&dir)).expect("reopen");
        assert_eq!(store.sessions(), vec![0, 1, 2, 3]);
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn compaction_rewrites_live_records_and_drops_dead_ones() {
        let dir = scratch("compact");
        let mut store = SessionStore::open(tiny_config(&dir)).expect("open");
        for round in 0..40u64 {
            store.append(round % 2, &[round as u8; 48]).expect("append");
        }
        let c = store.counters();
        assert!(c.compactions > 0, "compaction never triggered: {c:?}");
        assert!(
            c.dead_bytes < 512 + 2 * (48 + 24),
            "dead bytes not reclaimed: {c:?}"
        );
        assert_eq!(store.get(0).expect("get"), Some(vec![38u8; 48]));
        assert_eq!(store.get(1).expect("get"), Some(vec![39u8; 48]));
        assert_eq!(store.latest_seq(0), Some(19));
        // Old segment files are gone from disk, not just the manifest.
        let files = fs::read_dir(&dir).expect("dir").count();
        let expected = store.counters().segments as usize + 1; // + MANIFEST
        assert_eq!(files, expected);
        drop(store);
        let mut store = SessionStore::open(tiny_config(&dir)).expect("reopen");
        assert_eq!(store.get(0).expect("get"), Some(vec![38u8; 48]));
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn crash_without_faults_keeps_everything_acknowledged() {
        let dir = scratch("crash-clean");
        let mut store = SessionStore::open(StoreConfig::new(&dir)).expect("open");
        store.append(3, b"survives").expect("append");
        store.simulate_crash().expect("crash");
        assert_eq!(store.append(3, b"x").unwrap_err(), StoreError::Crashed);
        assert_eq!(store.get(3).unwrap_err(), StoreError::Crashed);
        drop(store);
        let mut store = SessionStore::open(StoreConfig::new(&dir)).expect("recover");
        assert_eq!(store.get(3).expect("get"), Some(b"survives".to_vec()));
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn crash_with_lying_fsyncs_recovers_to_the_durable_prefix() {
        let dir = scratch("crash-faulty");
        let plan = FaultPlan::file_faults(
            41,
            FileFaultModel {
                torn_write_prob: 0.8,
                partial_fsync_prob: 0.9,
                short_read_prob: 0.0,
                bit_flip_prob: 0.6,
            },
        );
        let config = StoreConfig {
            faults: Some(plan),
            ..StoreConfig::new(&dir)
        };
        let mut store = SessionStore::open(config.clone()).expect("open");
        let mut acked = Vec::new();
        for round in 0..30u64 {
            let payload = vec![round as u8; 100];
            let seq = store.append(round % 5, &payload).expect("append");
            acked.push((round % 5, seq, payload));
        }
        store.simulate_crash().expect("crash");
        drop(store);

        // Reopen WITHOUT faults: recovery itself runs on honest I/O here.
        let mut store = SessionStore::open(StoreConfig::new(&dir)).expect("recover");
        // Whatever survived must be a sealed prefix of what was acked:
        // every indexed record decodes to exactly the payload acked at
        // that (session, seq).
        for session in store.sessions() {
            let seq = store.latest_seq(session).expect("indexed");
            let payload = store.get(session).expect("get").expect("payload");
            let acked_payload = acked
                .iter()
                .find(|(s, q, _)| *s == session && *q == seq)
                .map(|(_, _, p)| p.clone())
                .expect("recovered record was never acknowledged");
            assert_eq!(payload, acked_payload, "session {session} seq {seq}");
        }
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn short_reads_are_detected_and_retried() {
        let dir = scratch("short-read");
        let plan = FaultPlan::file_faults(
            17,
            FileFaultModel {
                torn_write_prob: 0.0,
                partial_fsync_prob: 0.0,
                short_read_prob: 1.0,
                bit_flip_prob: 0.0,
            },
        );
        let config = StoreConfig {
            faults: Some(plan),
            ..StoreConfig::new(&dir)
        };
        let mut store = SessionStore::open(config).expect("open");
        store
            .append(1, b"readable despite short reads")
            .expect("append");
        for _ in 0..10 {
            assert_eq!(
                store.get(1).expect("get"),
                Some(b"readable despite short reads".to_vec())
            );
        }
        assert_eq!(store.counters().short_reads, 10);
        assert_eq!(store.counters().decode_rejects, 0);
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn shared_store_is_clonable_and_consistent() {
        let dir = scratch("shared");
        let store = SharedStore::open(StoreConfig::new(&dir)).expect("open");
        let clone = store.clone();
        clone.append(5, b"via clone").expect("append");
        assert_eq!(store.get(5).expect("get"), Some(b"via clone".to_vec()));
        assert_eq!(store.counters().appends, 1);
        fs::remove_dir_all(&dir).ok();
    }
}
