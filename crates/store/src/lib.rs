//! Durable log-structured session store for the Chameleon fleet.
//!
//! The north star is millions of resident users, but a learner whose
//! state lives only in RAM loses all continual-learning progress at the
//! first power cycle — the opposite of what an edge deployment needs.
//! This crate persists the fleet's unit of session state, the `CHAMFLT1`
//! checkpoint blob, in one append-only log file, `SESSIONS.log`:
//!
//! * **Log** — a [`chameleon_replay::append_log`] file opening with the
//!   `"CHAMSEG1"` magic, whose length-prefixed, CRC32-sealed records
//!   carry `(session, seq, payload)`. Records are immutable once written;
//!   updates append a higher sequence number.
//! * **Write-ahead discipline** — [`SessionStore::append`] seals the
//!   record and fsyncs it *before* returning: the returned sequence
//!   number is the durability acknowledgement the fleet's eviction path
//!   waits on before dropping its in-RAM copy.
//! * **Index** — an in-memory map from session to its latest sealed
//!   record, rebuilt on open by scanning the log, which is truncated at
//!   its first undecodable record (a torn tail from a crash mid-append);
//!   everything sealed before it survives.
//! * **Compaction** — once superseded records dominate the log, the live
//!   records are copied into a temp sibling that is fsynced and renamed
//!   over the log, as the router's `ROUTER.log` compacts. The rename is
//!   the commit: a crash before it leaves the old log live, and no
//!   append is acknowledged until the directory fsync after it succeeds.
//!
//! Storage failure modes are injectable through `chameleon-faults`
//! ([`chameleon_faults::FileFaultModel`]): lying partial fsyncs, torn
//! writes and tail bit flips at simulated power loss
//! ([`SessionStore::simulate_crash`]), and transient short reads — so
//! crash schedules are seeded, replayable, and explorable by
//! `chameleon-simtest`.
//!
//! # Example
//!
//! ```no_run
//! use chameleon_store::{SessionStore, StoreConfig};
//!
//! let mut store = SessionStore::open(StoreConfig::new("/tmp/sessions")).unwrap();
//! let seq = store.append(42, b"checkpoint blob").unwrap();
//! assert_eq!(seq, 0);
//! // ...crash, restart...
//! let mut store = SessionStore::open(StoreConfig::new("/tmp/sessions")).unwrap();
//! assert_eq!(store.get(42).unwrap(), Some(b"checkpoint blob".to_vec()));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod segment;
mod store;

pub use chameleon_replay::append_log::{RecordError, MAX_RECORD_BYTES, RECORD_FRAME_BYTES};
pub use segment::{
    check_segment_header, decode_record, encode_record, Record, RECORD_HEADER_BYTES, SEGMENT_MAGIC,
};
pub use store::{SessionStore, SharedStore, StoreConfig, StoreCounters, StoreError};
