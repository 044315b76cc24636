//! The durable session store: one CHAMSEG1 log, its index, recovery and
//! compaction.

use std::collections::HashMap;
use std::fs::{self, File};
use std::io::{self, Read, Seek, SeekFrom};
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex, MutexGuard};

use chameleon_faults::{FaultInjector, FaultPlan};
use chameleon_replay::append_log::{self, AppendLog, RecordError};

use crate::segment::{
    decode_record, encode_record, split_body, Record, RECORD_HEADER_BYTES, SEGMENT_MAGIC,
};

/// The log's file name inside the store directory.
const LOG_NAME: &str = "SESSIONS.log";
/// Log header length (the magic).
const HEADER_LEN: u64 = SEGMENT_MAGIC.len() as u64;

/// Configuration for opening a [`SessionStore`].
#[derive(Clone, Debug)]
pub struct StoreConfig {
    /// Directory holding the `SESSIONS.log` file (created if missing).
    pub dir: PathBuf,
    /// Minimum dead (superseded) record bytes before compaction is
    /// considered; compaction then runs once at least half of the record
    /// bytes are dead.
    pub compact_min_bytes: u64,
    /// Optional file-fault campaign driving the I/O seam (crash
    /// schedules); `None` in production.
    pub faults: Option<FaultPlan>,
}

impl StoreConfig {
    /// Production defaults rooted at `dir`: compaction at ≥1 MiB dead
    /// bytes forming ≥50% of the log, no injected faults.
    pub fn new(dir: impl Into<PathBuf>) -> Self {
        Self {
            dir: dir.into(),
            compact_min_bytes: 1024 * 1024,
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
    /// Fsyncs issued on the log file.
    pub fsyncs: u64,
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
    /// Bytes in the log file, header included: live record bytes are
    /// `log_bytes - 8 - dead_bytes`.
    pub log_bytes: u64,
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
            ("store.compactions", self.compactions),
            ("store.torn_truncations", self.torn_truncations),
            ("store.truncated_bytes", self.truncated_bytes),
            ("store.decode_rejects", self.decode_rejects),
            ("store.short_reads", self.short_reads),
            ("store.sessions_recovered", self.sessions_recovered),
            ("store.log_bytes", self.log_bytes),
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
    /// An OS file operation failed, or the directory holds a file this
    /// store refuses to open.
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
        /// Byte offset of the record in the log.
        offset: u64,
        /// The codec-level failure.
        error: RecordError,
    },
    /// A record decoded cleanly but disagrees with the index (wrong
    /// session or sequence at the indexed offset).
    IndexMismatch {
        /// Session the index expected.
        session: u64,
        /// Offset read.
        offset: u64,
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
            StoreError::Corrupt { offset, error } => {
                write!(f, "store log offset {offset}: {error}")
            }
            StoreError::IndexMismatch { session, offset } => write!(
                f,
                "store log offset {offset}: record does not match index entry for session {session}"
            ),
            StoreError::Crashed => write!(f, "store crashed (simulated); reopen the directory"),
        }
    }
}

impl std::error::Error for StoreError {}

/// Index entry: where a session's latest sealed record lives.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
struct IndexEntry {
    offset: u64,
    len: u64,
    seq: u64,
}

/// A log-structured durable store of per-session checkpoint blobs.
///
/// Writes are append-only into one `CHAMSEG1` log, `SESSIONS.log`, and
/// are fsynced *before* [`SessionStore::append`] returns — the returned
/// sequence number is the durability acknowledgement the fleet's eviction
/// path relies on. An in-memory index maps each session to its latest
/// sealed record; open rebuilds the index by scanning the log, truncating
/// it at its first undecodable record. Superseded records are garbage;
/// once they dominate the log a compaction copies the live records into a
/// temp sibling and renames it over the log.
#[derive(Debug)]
pub struct SessionStore {
    config: StoreConfig,
    log: AppendLog,
    /// Bytes of the log actually durable at the last fsync. Equal to its
    /// length unless a partial-fsync fault lied.
    durable_len: u64,
    index: HashMap<u64, IndexEntry>,
    /// Total record-frame bytes in the log (live + dead).
    record_bytes_total: u64,
    /// Record-frame bytes referenced by the index.
    live_bytes: u64,
    injector: Option<FaultInjector>,
    counters: StoreCounters,
    crashed: bool,
}

fn io_err<'a>(op: &'static str, path: &'a Path) -> impl FnOnce(io::Error) -> StoreError + 'a {
    move |e| StoreError::Io {
        op,
        path: path.display().to_string(),
        error: e.to_string(),
    }
}

/// Reads `entry.len` raw bytes at the indexed location of the log at
/// `path`, detecting and retrying injected short reads. Free of the store
/// so a compaction can read beside the log it is swapping.
fn read_entry_bytes(
    path: &Path,
    entry: IndexEntry,
    injector: Option<&mut FaultInjector>,
    short_reads: &mut u64,
) -> io::Result<Vec<u8>> {
    let mut file = File::open(path)?;
    file.seek(SeekFrom::Start(entry.offset))?;
    if let Some(short) = injector.and_then(|injector| injector.short_read(entry.len as usize)) {
        // Transient short read: a prefix arrived; detect, rewind, retry.
        let mut partial = vec![0u8; short];
        file.read_exact(&mut partial)?;
        *short_reads += 1;
        file.seek(SeekFrom::Start(entry.offset))?;
    }
    let mut bytes = vec![0u8; entry.len as usize];
    file.read_exact(&mut bytes)?;
    Ok(bytes)
}

impl SessionStore {
    /// Opens (or initializes) the store at `config.dir`, rebuilding the
    /// index from `SESSIONS.log` through [`append_log::recover`]: keep each
    /// session's highest-sequence sealed record, and truncate the log at
    /// its first undecodable record (a torn tail, or damage that seals
    /// nothing after it).
    ///
    /// # Errors
    /// I/O failures; a log of 8 or more bytes that does not open with
    /// `CHAMSEG1`; a directory holding a `MANIFEST`, the segmented layout
    /// older versions wrote (there is no migration).
    pub fn open(config: StoreConfig) -> Result<Self, StoreError> {
        fs::create_dir_all(&config.dir).map_err(io_err("create store dir", &config.dir))?;
        let old_layout = config.dir.join("MANIFEST");
        if old_layout.exists() {
            return Err(StoreError::Io {
                op: "open",
                path: old_layout.display().to_string(),
                error: "an older version's segmented layout; this one reads only SESSIONS.log"
                    .into(),
            });
        }
        let path = config.dir.join(LOG_NAME);
        let mut index: HashMap<u64, IndexEntry> = HashMap::new();
        let mut record_bytes_total = 0u64;
        let (log, truncated, damage) = append_log::recover(&path, SEGMENT_MAGIC, |offset, rest| {
            let (body, used) = append_log::decode_frame(rest, RECORD_HEADER_BYTES)?;
            let (session, seq, _) = split_body(body);
            if !matches!(index.get(&session), Some(existing) if existing.seq > seq) {
                let (offset, len) = (offset as u64, used as u64);
                index.insert(session, IndexEntry { offset, len, seq });
            }
            record_bytes_total += used as u64;
            Ok::<_, RecordError>(used)
        })
        .map_err(io_err("open log", &path))?;
        let mut counters = StoreCounters {
            sessions_recovered: index.len() as u64,
            ..StoreCounters::default()
        };
        if truncated > 0 {
            // Torn or garbled tail: everything sealed before it survives.
            counters.torn_truncations = 1;
            counters.truncated_bytes = truncated;
        }
        // A clean `Truncated` is the expected crash shape; anything else
        // means the torn region was also garbled.
        if damage.is_some_and(|error| error != RecordError::Truncated) {
            counters.decode_rejects = 1;
        }
        let live_bytes = index.values().map(|e| e.len).sum();
        let injector = config.faults.map(FaultInjector::new);
        Ok(Self {
            config,
            durable_len: log.bytes(),
            log,
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

    fn path(&self) -> PathBuf {
        self.config.dir.join(LOG_NAME)
    }

    /// Fsyncs the log and advances the durability watermark — all the
    /// way, unless a partial-fsync fault makes the hardware lie.
    fn fsync_log(&mut self) -> Result<(), StoreError> {
        self.log.sync().map_err(io_err("fsync log", &self.path()))?;
        self.counters.fsyncs += 1;
        let pending = (self.log.bytes() - self.durable_len) as usize;
        let lie = self
            .injector
            .as_mut()
            .and_then(|injector| injector.partial_fsync(pending));
        match lie {
            Some(partial) => self.durable_len += partial as u64,
            None => self.durable_len = self.log.bytes(),
        }
        Ok(())
    }

    /// Appends `payload` as the next sealed record for `session` and
    /// returns its sequence number. The record is CRC-sealed and fsynced
    /// before this returns: a returned `Ok(seq)` is the write-ahead
    /// acknowledgement — the caller may discard its in-RAM copy.
    ///
    /// # Errors
    /// I/O failures (a compaction this append triggered included), or
    /// [`StoreError::Crashed`] after a simulated crash.
    pub fn append(&mut self, session: u64, payload: &[u8]) -> Result<u64, StoreError> {
        self.check_alive()?;
        let seq = self.index.get(&session).map_or(0, |e| e.seq + 1);
        let record = encode_record(session, seq, payload);
        let offset = self.log.bytes();
        self.log
            .write(&record)
            .map_err(io_err("append record", &self.path()))?;
        // Written bytes count as dead until the index takes them.
        let len = record.len() as u64;
        self.record_bytes_total += len;
        self.fsync_log()?;
        if let Some(old) = self.index.insert(session, IndexEntry { offset, len, seq }) {
            self.live_bytes -= old.len;
        }
        self.live_bytes += len;
        self.counters.appends += 1;
        self.counters.append_bytes += len;
        self.maybe_compact()?;
        Ok(seq)
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
        let path = self.path();
        let short_reads = &mut self.counters.short_reads;
        let bytes = read_entry_bytes(&path, entry, self.injector.as_mut(), short_reads)
            .map_err(io_err("read record", &path))?;
        let offset = entry.offset;
        match decode_record(&bytes) {
            Ok((record, _)) if record.session == session && record.seq == entry.seq => {
                Ok(Some(record.payload))
            }
            Ok(_) => {
                self.counters.decode_rejects += 1;
                Err(StoreError::IndexMismatch { session, offset })
            }
            Err(error) => {
                self.counters.decode_rejects += 1;
                Err(StoreError::Corrupt { offset, error })
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
    /// test surface; not fault-injected). Stops the scan at the first
    /// undecodable byte, mirroring recovery.
    ///
    /// # Errors
    /// I/O failures or [`StoreError::Crashed`].
    pub fn records(&self) -> Result<Vec<Record>, StoreError> {
        self.check_alive()?;
        let path = self.path();
        let bytes = fs::read(&path).map_err(io_err("read log", &path))?;
        let mut out = Vec::new();
        let _ = append_log::scan(&bytes, SEGMENT_MAGIC, |_, rest| {
            let (record, used) = decode_record(rest)?;
            out.push(record);
            Ok::<_, RecordError>(used)
        });
        Ok(out)
    }

    /// Compacts once at least `compact_min_bytes` and at least half of the
    /// record bytes are dead.
    fn maybe_compact(&mut self) -> Result<(), StoreError> {
        let dead = self.record_bytes_total - self.live_bytes;
        if dead < self.config.compact_min_bytes || dead * 2 < self.record_bytes_total {
            return Ok(());
        }
        self.compact()
    }

    /// Copies every live record, raw and in session order, into a temp
    /// sibling of the log, fsyncs it and renames it over the log, then
    /// fsyncs the directory. A failure before the rename leaves the old
    /// log live and unchanged; once the rename ran, the index follows the
    /// new file even if the directory fsync then fails, and no append is
    /// acknowledged until a retry of that fsync succeeds.
    ///
    /// # Errors
    /// I/O failures or [`StoreError::Crashed`].
    pub fn compact(&mut self) -> Result<(), StoreError> {
        self.check_alive()?;
        let path = self.path();
        let mut sessions: Vec<u64> = self.index.keys().copied().collect();
        sessions.sort_unstable();
        let swapped = self.log.swap(|staged| {
            staged.write(SEGMENT_MAGIC)?;
            let mut moved = HashMap::with_capacity(sessions.len());
            for session in sessions {
                let entry = self.index[&session];
                let injector = self.injector.as_mut();
                let short_reads = &mut self.counters.short_reads;
                // Raw byte copy: the record was CRC-verified when indexed,
                // and its seal travels with it.
                let bytes = read_entry_bytes(&path, entry, injector, short_reads)?;
                let offset = staged.bytes();
                moved.insert(session, IndexEntry { offset, ..entry });
                staged.write(&bytes)?;
            }
            Ok(moved)
        });
        self.index = swapped.map_err(io_err("compact log", &path))?;
        let len = self.log.bytes();
        self.durable_len = len;
        self.record_bytes_total = len - HEADER_LEN;
        self.live_bytes = len - HEADER_LEN;
        self.counters.fsyncs += 1;
        self.counters.compactions += 1;
        self.log
            .sync_dir()
            .map_err(io_err("sync store dir", &self.config.dir))
    }

    /// Point-in-time counters (monotone event counts plus current log
    /// shape).
    pub fn counters(&self) -> StoreCounters {
        let mut c = self.counters;
        c.log_bytes = self.log.bytes();
        c.live_records = self.index.len() as u64;
        c.dead_bytes = self.record_bytes_total - self.live_bytes;
        c
    }

    /// The directory this store lives in.
    pub fn dir(&self) -> &Path {
        &self.config.dir
    }

    /// Simulates power loss at this instant: everything past the durable
    /// watermark of the log is rewritten as whatever the fault model says
    /// survives (torn prefix, possibly with a flipped bit). Without file
    /// faults the non-durable suffix is dropped entirely — the
    /// conservative reading of "fsync did not return".
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
        let path = self.path();
        let log_len = self.log.bytes();
        let mut tail = Vec::new();
        if log_len > self.durable_len {
            let mut file = File::open(&path).map_err(io_err("open log for crash", &path))?;
            file.seek(SeekFrom::Start(self.durable_len))
                .map_err(io_err("seek crash tail", &path))?;
            tail = vec![0u8; (log_len - self.durable_len) as usize];
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
            .and_then(|mut log| log.append(&tail))
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
            compact_min_bytes: 512,
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
        // A compaction that crashed before its rename left half an image
        // in the temp sibling: open removes it and the log is unchanged.
        let (path, tmp) = (dir.join(LOG_NAME), dir.join(".SESSIONS.log.tmp"));
        let before = fs::read(&path).expect("read");
        fs::write(&tmp, &before[..before.len() / 2]).expect("half-written image");
        let mut store = SessionStore::open(StoreConfig::new(&dir)).expect("reopen");
        assert!(!tmp.exists());
        assert_eq!(fs::read(&path).expect("read"), before);
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
        let path = dir.join(LOG_NAME);
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
        // The compacted image replaced the log, and the gauges read its
        // length on disk.
        let files: Vec<_> = fs::read_dir(&dir)
            .expect("dir")
            .map(|e| e.expect("entry"))
            .collect();
        assert_eq!(files.len(), 1);
        let c = store.counters();
        assert_eq!(c.log_bytes, files[0].metadata().expect("stat").len());
        assert_eq!(c.log_bytes - HEADER_LEN - c.dead_bytes, 2 * (48 + 24));
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
    fn crash_after_a_compaction_keeps_each_sessions_durable_record() {
        // A disk that tears writes, lies about fsyncs and flips tail bits,
        // then a clean one.
        let hostile = FileFaultModel {
            torn_write_prob: 0.8,
            partial_fsync_prob: 0.9,
            short_read_prob: 0.0,
            bit_flip_prob: 0.6,
        };
        for faults in [Some(FaultPlan::file_faults(43, hostile)), None] {
            let dir = scratch("crash-compacted");
            let config = StoreConfig {
                faults,
                ..tiny_config(&dir)
            };
            let mut store = SessionStore::open(config).expect("open");
            // Every ack, and each session's newest record known to lie in
            // the durable prefix: all of them right after the compaction.
            let (mut acked, mut durable) = (HashMap::new(), HashMap::new());
            for round in 0..16u64 {
                let (session, payload) = (round % 3, vec![round as u8; 40]);
                acked.insert(
                    (session, store.append(session, &payload).expect("append")),
                    payload,
                );
                if round == 11 {
                    store.compact().expect("compact");
                    durable.extend(store.index.iter().map(|(&s, entry)| (s, entry.seq)));
                } else if store.log.bytes() == store.durable_len {
                    durable.insert(session, store.index[&session].seq);
                }
            }
            store.simulate_crash().expect("crash");
            drop(store);
            let mut store = SessionStore::open(StoreConfig::new(&dir)).expect("recover");
            for (session, durable_seq) in durable {
                let seq = store.latest_seq(session).expect("session survives");
                assert!(seq >= durable_seq, "session {session} lost {durable_seq}");
                let payload = store.get(session).expect("get");
                assert_eq!(payload.as_ref(), acked.get(&(session, seq)));
            }
            fs::remove_dir_all(&dir).ok();
        }
    }

    #[test]
    fn a_failed_compaction_loses_no_acked_record() {
        let dir = scratch("compact-blocked");
        let mut store = SessionStore::open(tiny_config(&dir)).expect("open");
        for round in 0..4u64 {
            store.append(round % 2, &[round as u8; 48]).expect("append");
        }
        // A directory at the temp sibling fails the compaction before its
        // rename: the old log stays live and keeps taking appends.
        let tmp = append_log::temp_path(&dir.join(LOG_NAME));
        fs::create_dir(&tmp).expect("block the temp path");
        assert!(matches!(store.compact(), Err(StoreError::Io { .. })));
        assert_eq!(
            store.append(2, b"acked after the failure").expect("append"),
            0
        );
        fs::remove_dir(&tmp).expect("unblock");
        for round in 4..30u64 {
            store.append(round % 2, &[round as u8; 48]).expect("append");
        }
        store.compact().expect("compact");
        drop(store);
        let mut store = SessionStore::open(tiny_config(&dir)).expect("reopen");
        assert_eq!(store.get(0).expect("get"), Some(vec![28u8; 48]));
        assert_eq!(store.get(1).expect("get"), Some(vec![29u8; 48]));
        assert_eq!(
            store.get(2).expect("get"),
            Some(b"acked after the failure".to_vec())
        );
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn no_append_is_acked_until_a_compactions_rename_is_durable() {
        let dir = scratch("rename-pending");
        let mut store = SessionStore::open(StoreConfig::new(&dir)).expect("open");
        store.append(1, b"before").expect("append");
        // A compaction whose directory fsync failed: the same image
        // renamed in, the rename not yet durable.
        let image = fs::read(dir.join(LOG_NAME)).expect("read");
        store.log.swap(|staged| staged.write(&image)).expect("swap");
        let hidden = dir.with_extension("hidden");
        fs::rename(&dir, &hidden).expect("hide the directory");
        let unacked = store.append(1, b"unacked");
        assert!(matches!(
            unacked,
            Err(StoreError::Io {
                op: "fsync log",
                ..
            })
        ));
        assert_eq!(store.latest_seq(1), Some(0));
        fs::rename(&hidden, &dir).expect("restore the directory");
        assert_eq!(store.append(1, b"acked").expect("append"), 1);
        let c = store.counters();
        assert_eq!(c.log_bytes - HEADER_LEN - c.dead_bytes, 24 + 5);
        drop(store);
        let mut store = SessionStore::open(StoreConfig::new(&dir)).expect("reopen");
        assert_eq!(store.get(1).expect("get"), Some(b"acked".to_vec()));
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn foreign_files_are_refused_not_emptied() {
        // A log whose magic is not CHAMSEG1, and the segmented layout with
        // a MANIFEST that older versions wrote.
        for (file, refusing_op) in [(LOG_NAME, "open log"), ("MANIFEST", "open")] {
            let dir = scratch("foreign");
            fs::create_dir_all(&dir).expect("mkdir");
            fs::write(dir.join(file), b"CHAMRTE1 not a store").expect("write");
            let error = SessionStore::open(StoreConfig::new(&dir)).unwrap_err();
            assert!(matches!(error, StoreError::Io { op, .. } if op == refusing_op));
            assert_eq!(
                fs::read(dir.join(file)).expect("read"),
                b"CHAMRTE1 not a store"
            );
            fs::remove_dir_all(&dir).ok();
        }
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
