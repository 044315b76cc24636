//! `chameleon-obs` — the std-only observability subsystem.
//!
//! The paper's evaluation is latency/energy pricing of every pipeline
//! stage on edge platforms; this crate is the repo's runtime counterpart
//! to that table. It unifies three previously fragmented telemetry
//! sources (serve counters, fleet metrics, step traces) behind one
//! vocabulary:
//!
//! * [`Observer`] — a lock-light span recorder: seven fixed [`Stage`]s
//!   (`step`/`checkpoint`/`restore`/`eval`/`encode`/`decode`/`request`), each
//!   aggregated as relaxed atomics (count / total / max / log₂-µs
//!   [`LatencyHistogram`]). Spans are opened with the [`span!`] macro or
//!   [`Observer::start`] against the injectable
//!   [`chameleon_runtime::Clock`] — on a `VirtualClock` the aggregates
//!   are bit-for-bit deterministic — or fed pre-measured elapsed time
//!   via [`Observer::record`] so they reconcile exactly with existing
//!   counters.
//! * [`EventLog`] — a bounded ring of annotated events with monotonic
//!   sequence numbers and a drop counter, so history loss is explicit.
//! * [`Observation`] — the single snapshot type carried over the wire
//!   (`Request::Observe` in `chameleon-serve`) and printed by
//!   `chameleon stats`: span aggregates + event tail + a flat list of
//!   named counters the embedding layer fills in.
//! * [`expose`] — a Prometheus-style text exposition of an
//!   [`Observation`].
//!
//! # Example
//!
//! ```
//! use chameleon_obs::{span, Observer, Stage};
//! use chameleon_runtime::VirtualClock;
//!
//! let observer = Observer::new(VirtualClock::shared(1_000));
//! {
//!     let _span = span!(observer, "step"); // records on drop
//! }
//! observer.record(Stage::Eval, 2_500); // pre-measured nanos
//! let stats = observer.stage_stats(Stage::Step);
//! assert_eq!((stats.count, stats.total_nanos), (1, 1_000));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod event;
mod hist;
mod observation;
mod span;

pub use event::{EventLog, EventLogStats, EventRecord, DEFAULT_EVENT_CAPACITY};
pub use hist::{bucket_index, bucket_upper_us, LatencyHistogram, LATENCY_BUCKETS};
pub use observation::{expose, Observation};
pub use span::{Observer, Span, Stage, StageStats};
