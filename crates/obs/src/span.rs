//! The span recorder: per-stage timing aggregates on an injectable
//! clock.
//!
//! A *span* is one timed unit of pipeline work. The taxonomy is closed —
//! the seven [`Stage`]s cover the fleet hot path (`step`, `checkpoint`,
//! `restore`, `eval`) and the serving hot path (`encode`, `decode`, and
//! the whole `request`) — so aggregates stay fixed-size and lock-free:
//! each stage is a block of relaxed `AtomicU64`s (count / total / max /
//! log₂ histogram), updated either by an RAII [`Span`] guard around a
//! region of code or by [`Observer::record`] when the caller already
//! measured the elapsed time itself (the fleet does this so span totals
//! reconcile *exactly* with its `ShardMetrics.*_nanos` counters, with no
//! extra clock reads on the simulated hot path).

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use chameleon_runtime::Clock;

use crate::event::{EventLog, EventLogStats, DEFAULT_EVENT_CAPACITY};
use crate::hist::{bucket_index, LatencyHistogram, LATENCY_BUCKETS};
use crate::observation::Observation;

/// One stage of the pipeline a span can time. The set is closed so the
/// recorder can keep fixed-size lock-free aggregates.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Stage {
    /// One training-step batch inside a shard worker.
    Step,
    /// Serialising a session to its `CHAMFLT1` checkpoint (including
    /// eviction-driven checkpoints).
    Checkpoint,
    /// Restoring an evicted session from its checkpoint.
    Restore,
    /// A full evaluation pass.
    Eval,
    /// Encoding + writing one CHAMWIRE response frame.
    Encode,
    /// Decoding one CHAMWIRE request payload.
    Decode,
    /// One served request end to end: frame decoded → response written.
    Request,
}

impl Stage {
    /// Number of stages.
    pub const COUNT: usize = 7;

    /// Every stage, in wire/display order.
    pub const ALL: [Stage; Stage::COUNT] = [
        Stage::Step,
        Stage::Checkpoint,
        Stage::Restore,
        Stage::Eval,
        Stage::Encode,
        Stage::Decode,
        Stage::Request,
    ];

    /// Stable lowercase name (`"step"`, `"checkpoint"`, …).
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Stage::Step => "step",
            Stage::Checkpoint => "checkpoint",
            Stage::Restore => "restore",
            Stage::Eval => "eval",
            Stage::Encode => "encode",
            Stage::Decode => "decode",
            Stage::Request => "request",
        }
    }

    /// Parses a [`Stage::name`] back into a stage.
    #[must_use]
    pub fn from_name(name: &str) -> Option<Stage> {
        Stage::ALL.into_iter().find(|s| s.name() == name)
    }

    /// Stable wire id (the index in [`Stage::ALL`]).
    #[must_use]
    pub fn id(self) -> u8 {
        self as u8
    }

    /// Parses a wire id back into a stage.
    #[must_use]
    pub fn from_id(id: u8) -> Option<Stage> {
        Stage::ALL.get(usize::from(id)).copied()
    }
}

impl std::fmt::Display for Stage {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// Plain-struct aggregate of every span recorded for one stage.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct StageStats {
    /// Completed spans.
    pub count: u64,
    /// Sum of elapsed nanoseconds across all spans.
    pub total_nanos: u64,
    /// Longest single span, in nanoseconds.
    pub max_nanos: u64,
    /// Log₂-µs distribution of span durations.
    pub histogram: LatencyHistogram,
}

impl StageStats {
    /// Mean span duration in nanoseconds (0 when no spans completed).
    #[must_use]
    pub fn mean_nanos(&self) -> u64 {
        self.total_nanos.checked_div(self.count).unwrap_or(0)
    }
}

/// Lock-free per-stage aggregate block.
#[derive(Debug)]
struct StageCell {
    count: AtomicU64,
    total_nanos: AtomicU64,
    max_nanos: AtomicU64,
    buckets: [AtomicU64; LATENCY_BUCKETS],
}

impl StageCell {
    fn new() -> Self {
        Self {
            count: AtomicU64::new(0),
            total_nanos: AtomicU64::new(0),
            max_nanos: AtomicU64::new(0),
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
        }
    }

    fn record(&self, nanos: u64) {
        self.count.fetch_add(1, Ordering::Relaxed);
        self.total_nanos.fetch_add(nanos, Ordering::Relaxed);
        self.max_nanos.fetch_max(nanos, Ordering::Relaxed);
        self.buckets[bucket_index(nanos)].fetch_add(1, Ordering::Relaxed);
    }

    fn snapshot(&self) -> StageStats {
        let mut histogram = LatencyHistogram::default();
        for (mine, theirs) in histogram.buckets.iter_mut().zip(self.buckets.iter()) {
            *mine = theirs.load(Ordering::Relaxed);
        }
        StageStats {
            count: self.count.load(Ordering::Relaxed),
            total_nanos: self.total_nanos.load(Ordering::Relaxed),
            max_nanos: self.max_nanos.load(Ordering::Relaxed),
            histogram,
        }
    }
}

/// The process-wide span recorder + event log, shared by `Arc` across
/// shard workers, connection workers, and the engine thread.
///
/// All span updates are relaxed atomics; the event log is the only
/// mutex, and it is off the hot path.
pub struct Observer {
    cells: [StageCell; Stage::COUNT],
    events: EventLog,
    clock: Arc<dyn Clock>,
}

impl std::fmt::Debug for Observer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Observer")
            .field("spans", &self.snapshot_spans())
            .field("events", &self.events)
            .finish_non_exhaustive()
    }
}

impl Observer {
    /// Creates an observer timing spans on `clock`, with the default
    /// event-log capacity.
    pub fn new(clock: Arc<dyn Clock>) -> Self {
        Self::with_event_capacity(clock, DEFAULT_EVENT_CAPACITY)
    }

    /// Creates an observer with an explicit event-log capacity.
    pub fn with_event_capacity(clock: Arc<dyn Clock>, capacity: usize) -> Self {
        Self {
            cells: std::array::from_fn(|_| StageCell::new()),
            events: EventLog::new(capacity),
            clock,
        }
    }

    /// The clock spans and events are stamped with.
    pub fn clock(&self) -> &Arc<dyn Clock> {
        &self.clock
    }

    /// Records one completed span whose elapsed time the caller already
    /// measured. Use this (rather than [`Observer::start`]) when the
    /// surrounding code takes its own clock readings, so the span total
    /// and the caller's own counter see the *same* nanoseconds.
    pub fn record(&self, stage: Stage, nanos: u64) {
        self.cells[stage as usize].record(nanos);
    }

    /// Opens a span on `stage`; it records itself when dropped (or via
    /// [`Span::finish`]).
    pub fn start(&self, stage: Stage) -> Span<'_> {
        Span {
            observer: self,
            stage,
            started_nanos: self.clock.now_nanos(),
            finished: false,
        }
    }

    /// Appends an event to the ring log, stamped with the observer's
    /// clock.
    pub fn event(&self, message: impl Into<String>) {
        self.events.push(self.clock.now_nanos(), message.into());
    }

    /// Aggregate for a single stage.
    pub fn stage_stats(&self, stage: Stage) -> StageStats {
        self.cells[stage as usize].snapshot()
    }

    /// Aggregates for every stage, in [`Stage::ALL`] order.
    pub fn snapshot_spans(&self) -> Vec<(Stage, StageStats)> {
        Stage::ALL
            .into_iter()
            .map(|stage| (stage, self.stage_stats(stage)))
            .collect()
    }

    /// Snapshot of the event log.
    pub fn snapshot_events(&self) -> EventLogStats {
        self.events.snapshot()
    }

    /// A full [`Observation`] of this observer: span aggregates plus the
    /// event log, with an empty counter section for the caller to fill
    /// (the serving layer merges `ServeCounters` / `FleetMetrics` /
    /// `StepTrace` in).
    pub fn observe(&self) -> Observation {
        Observation {
            spans: self.snapshot_spans(),
            events: self.snapshot_events(),
            counters: Vec::new(),
        }
    }
}

/// An open span; records into its [`Observer`] when dropped.
pub struct Span<'a> {
    observer: &'a Observer,
    stage: Stage,
    started_nanos: u64,
    finished: bool,
}

impl Span<'_> {
    /// Closes the span now, returning the elapsed nanoseconds it
    /// recorded.
    pub fn finish(mut self) -> u64 {
        self.close()
    }

    fn close(&mut self) -> u64 {
        if self.finished {
            return 0;
        }
        self.finished = true;
        let elapsed = self
            .observer
            .clock
            .now_nanos()
            .saturating_sub(self.started_nanos);
        self.observer.record(self.stage, elapsed);
        elapsed
    }
}

impl Drop for Span<'_> {
    fn drop(&mut self) {
        self.close();
    }
}

/// Opens an RAII span on an [`Observer`] — `span!(observer, "step")`
/// or `span!(observer, Stage::Step)`. The span records itself when the
/// returned guard drops.
///
/// # Panics
///
/// Panics if a string stage name is not one of the stages in the taxonomy.
#[macro_export]
macro_rules! span {
    ($observer:expr, $stage:literal) => {
        $observer.start($crate::Stage::from_name($stage).expect("unknown span stage name"))
    };
    ($observer:expr, $stage:expr) => {
        $observer.start($stage)
    };
}

#[cfg(test)]
mod tests {
    use super::*;
    use chameleon_runtime::VirtualClock;

    fn observer(tick: u64) -> Observer {
        Observer::new(VirtualClock::shared(tick))
    }

    #[test]
    fn stage_names_roundtrip() {
        for stage in Stage::ALL {
            assert_eq!(Stage::from_name(stage.name()), Some(stage));
            assert_eq!(Stage::from_id(stage.id()), Some(stage));
        }
        assert_eq!(Stage::from_name("nope"), None);
        assert_eq!(Stage::from_id(99), None);
    }

    #[test]
    fn spans_on_a_virtual_clock_aggregate_deterministically() {
        // Auto-tick 1 µs: every clock read advances time by exactly
        // 1000 ns, so each start/stop pair spans exactly one tick and
        // the aggregates are fully determined.
        let obs = observer(1_000);
        for _ in 0..5 {
            let span = obs.start(Stage::Step);
            span.finish();
        }
        let stats = obs.stage_stats(Stage::Step);
        assert_eq!(stats.count, 5);
        assert_eq!(stats.total_nanos, 5_000);
        assert_eq!(stats.max_nanos, 1_000);
        assert_eq!(stats.mean_nanos(), 1_000);
        assert_eq!(stats.histogram.buckets[0], 5, "1 µs spans → bucket 0");

        // A second observer on a fresh virtual clock reproduces the
        // exact same aggregates.
        let twin = observer(1_000);
        for _ in 0..5 {
            twin.start(Stage::Step).finish();
        }
        assert_eq!(twin.stage_stats(Stage::Step), stats);
    }

    #[test]
    fn drop_records_the_span_once() {
        let obs = observer(1_000);
        {
            let _guard = obs.start(Stage::Eval);
        }
        let span = obs.start(Stage::Eval);
        assert_eq!(span.finish(), 1_000);
        let stats = obs.stage_stats(Stage::Eval);
        assert_eq!(stats.count, 2, "finish + drop each record exactly once");
    }

    #[test]
    fn span_macro_accepts_names_and_stages() {
        let obs = observer(1_000);
        span!(obs, "decode").finish();
        span!(obs, Stage::Decode).finish();
        assert_eq!(obs.stage_stats(Stage::Decode).count, 2);
    }

    #[test]
    fn direct_record_takes_the_callers_nanos_verbatim() {
        let obs = observer(1_000);
        obs.record(Stage::Checkpoint, 123);
        obs.record(Stage::Checkpoint, 77);
        let stats = obs.stage_stats(Stage::Checkpoint);
        assert_eq!(stats.count, 2);
        assert_eq!(stats.total_nanos, 200);
        assert_eq!(stats.max_nanos, 123);
    }

    #[test]
    fn events_are_stamped_with_the_injected_clock() {
        let obs = observer(500);
        obs.event("first");
        obs.event("second");
        let events = obs.snapshot_events();
        assert_eq!(events.next_seq, 2);
        assert_eq!(events.recent[0].nanos, 500);
        assert_eq!(events.recent[1].nanos, 1_000);
    }

    #[test]
    fn observe_carries_spans_and_events() {
        let obs = observer(1_000);
        obs.start(Stage::Restore).finish();
        obs.event("restored");
        let observation = obs.observe();
        assert_eq!(observation.spans.len(), Stage::COUNT);
        assert_eq!(observation.spans[2].0, Stage::Restore);
        assert_eq!(observation.spans[2].1.count, 1);
        assert_eq!(observation.events.next_seq, 1);
        assert!(observation.counters.is_empty());
    }
}
