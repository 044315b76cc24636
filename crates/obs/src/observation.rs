//! The unified [`Observation`] snapshot and its Prometheus-style text
//! exposition.

use crate::event::EventLogStats;
use crate::hist::{bucket_upper_us, LATENCY_BUCKETS};
use crate::span::{Stage, StageStats};

/// One self-contained snapshot of everything observable: per-stage span
/// aggregates, the event-log tail, and a flat list of named counters
/// the embedding layer fills in (the serving layer merges
/// `ServeCounters`, `FleetMetrics`, and `StepTrace` here, so one
/// `Observe` round-trip answers every "where did the time go?"
/// question).
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Observation {
    /// Span aggregates, one entry per stage in [`Stage::ALL`] order.
    pub spans: Vec<(Stage, StageStats)>,
    /// Event-log tail plus drop accounting.
    pub events: EventLogStats,
    /// Named scalar counters (`"fleet.batches"`, `"serve.frames_in"`,
    /// `"trace.inputs"`, …), in insertion order.
    pub counters: Vec<(String, u64)>,
}

impl Observation {
    /// Looks up the aggregate for one stage.
    #[must_use]
    pub fn stage(&self, stage: Stage) -> Option<&StageStats> {
        self.spans
            .iter()
            .find(|(s, _)| *s == stage)
            .map(|(_, stats)| stats)
    }

    /// Looks up a named counter.
    #[must_use]
    pub fn counter(&self, name: &str) -> Option<u64> {
        self.counters
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, v)| *v)
    }

    /// Appends a named counter.
    pub fn push_counter(&mut self, name: impl Into<String>, value: u64) {
        self.counters.push((name.into(), value));
    }

    /// Folds another node's observation into this one, producing a
    /// fleet-wide view: per-stage span counts, totals, and histogram
    /// buckets are summed (max-of-max for the worst single span), named
    /// counters are summed by name (counters only `other` has are
    /// appended), and the event tails are concatenated with their drop
    /// accounting added. The routing tier uses this to answer one
    /// `Observe` with the aggregate of every live backend.
    pub fn merge(&mut self, other: &Observation) {
        for (stage, theirs) in &other.spans {
            match self.spans.iter_mut().find(|(s, _)| s == stage) {
                Some((_, ours)) => {
                    ours.count += theirs.count;
                    ours.total_nanos += theirs.total_nanos;
                    ours.max_nanos = ours.max_nanos.max(theirs.max_nanos);
                    ours.histogram.merge(&theirs.histogram);
                }
                None => self.spans.push((*stage, theirs.clone())),
            }
        }
        for (name, value) in &other.counters {
            match self.counters.iter_mut().find(|(n, _)| n == name) {
                Some((_, mine)) => *mine += value,
                None => self.counters.push((name.clone(), *value)),
            }
        }
        self.events.capacity = self.events.capacity.max(other.events.capacity);
        self.events.next_seq += other.events.next_seq;
        self.events.dropped += other.events.dropped;
        self.events
            .recent
            .extend(other.events.recent.iter().cloned());
    }
}

fn sanitize(name: &str) -> String {
    name.chars()
        .map(|c| if c.is_ascii_alphanumeric() { c } else { '_' })
        .collect()
}

/// Renders an [`Observation`] in the Prometheus text exposition style:
/// `# HELP`/`# TYPE` headers, `{stage="…"}` labels, and cumulative
/// `_bucket{le="…"}` histogram lines ending in `le="+Inf"`.
#[must_use]
pub fn expose(observation: &Observation) -> String {
    let mut out = String::new();

    out.push_str("# HELP chameleon_span_count Completed spans per pipeline stage.\n");
    out.push_str("# TYPE chameleon_span_count counter\n");
    for (stage, stats) in &observation.spans {
        out.push_str(&format!(
            "chameleon_span_count{{stage=\"{stage}\"}} {}\n",
            stats.count
        ));
    }

    out.push_str("# HELP chameleon_span_nanos_total Summed span duration per stage.\n");
    out.push_str("# TYPE chameleon_span_nanos_total counter\n");
    for (stage, stats) in &observation.spans {
        out.push_str(&format!(
            "chameleon_span_nanos_total{{stage=\"{stage}\"}} {}\n",
            stats.total_nanos
        ));
    }

    out.push_str("# HELP chameleon_span_nanos_max Longest single span per stage.\n");
    out.push_str("# TYPE chameleon_span_nanos_max gauge\n");
    for (stage, stats) in &observation.spans {
        out.push_str(&format!(
            "chameleon_span_nanos_max{{stage=\"{stage}\"}} {}\n",
            stats.max_nanos
        ));
    }

    out.push_str("# HELP chameleon_span_us Span duration distribution (log2 µs buckets).\n");
    out.push_str("# TYPE chameleon_span_us histogram\n");
    for (stage, stats) in &observation.spans {
        let mut cumulative = 0u64;
        for (i, &count) in stats.histogram.buckets.iter().enumerate() {
            cumulative += count;
            let le = if i == LATENCY_BUCKETS - 1 {
                "+Inf".to_string()
            } else {
                bucket_upper_us(i).to_string()
            };
            out.push_str(&format!(
                "chameleon_span_us_bucket{{stage=\"{stage}\",le=\"{le}\"}} {cumulative}\n"
            ));
        }
        out.push_str(&format!(
            "chameleon_span_us_count{{stage=\"{stage}\"}} {cumulative}\n"
        ));
    }

    out.push_str("# HELP chameleon_events_total Events ever logged (= next sequence number).\n");
    out.push_str("# TYPE chameleon_events_total counter\n");
    out.push_str(&format!(
        "chameleon_events_total {}\n",
        observation.events.next_seq
    ));
    out.push_str("# HELP chameleon_events_dropped_total Events dropped off the ring.\n");
    out.push_str("# TYPE chameleon_events_dropped_total counter\n");
    out.push_str(&format!(
        "chameleon_events_dropped_total {}\n",
        observation.events.dropped
    ));

    if !observation.counters.is_empty() {
        out.push_str("# HELP chameleon_counter Embedded layer counters, re-exported.\n");
        for (name, value) in &observation.counters {
            out.push_str(&format!("chameleon_{} {value}\n", sanitize(name)));
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Observer;
    use chameleon_runtime::VirtualClock;

    fn observation() -> Observation {
        let obs = Observer::new(VirtualClock::shared(1_000));
        obs.start(Stage::Step).finish();
        obs.start(Stage::Step).finish();
        obs.event("hello");
        let mut observation = obs.observe();
        observation.push_counter("fleet.batches", 7);
        observation
    }

    #[test]
    fn lookup_helpers_find_stages_and_counters() {
        let o = observation();
        assert_eq!(o.stage(Stage::Step).map(|s| s.count), Some(2));
        assert_eq!(o.stage(Stage::Eval).map(|s| s.count), Some(0));
        assert_eq!(o.counter("fleet.batches"), Some(7));
        assert_eq!(o.counter("missing"), None);
    }

    #[test]
    fn merge_sums_spans_counters_and_event_accounting() {
        let mut a = observation();
        let b = observation();
        a.merge(&b);
        assert_eq!(a.stage(Stage::Step).map(|s| s.count), Some(4));
        assert_eq!(
            a.stage(Stage::Step).map(|s| s.total_nanos),
            Some(2 * b.stage(Stage::Step).unwrap().total_nanos)
        );
        // max-of-max, not a sum.
        assert_eq!(
            a.stage(Stage::Step).map(|s| s.max_nanos),
            b.stage(Stage::Step).map(|s| s.max_nanos)
        );
        assert_eq!(a.counter("fleet.batches"), Some(14));
        assert_eq!(a.events.next_seq, 2);
        assert_eq!(a.events.recent.len(), 2);
        // A counter only one side has is carried over, not lost.
        let mut c = Observation::default();
        c.push_counter("route.failovers", 3);
        a.merge(&c);
        assert_eq!(a.counter("route.failovers"), Some(3));
    }

    #[test]
    fn exposition_is_prometheus_shaped() {
        let text = expose(&observation());
        assert!(text.contains("# TYPE chameleon_span_count counter"));
        assert!(text.contains("chameleon_span_count{stage=\"step\"} 2"));
        assert!(text.contains("chameleon_span_nanos_total{stage=\"step\"} 2000"));
        assert!(text.contains("chameleon_span_us_bucket{stage=\"step\",le=\"2\"} 2"));
        assert!(text.contains("chameleon_span_us_bucket{stage=\"step\",le=\"+Inf\"} 2"));
        assert!(text.contains("chameleon_span_us_count{stage=\"decode\"} 0"));
        assert!(text.contains("chameleon_events_total 1"));
        assert!(text.contains("chameleon_events_dropped_total 0"));
        assert!(text.contains("chameleon_fleet_batches 7"));
        // Every sample line is `name{labels} value` or `name value`.
        for line in text.lines().filter(|l| !l.starts_with('#')) {
            let (_, value) = line.rsplit_once(' ').expect("sample line");
            assert!(value.parse::<u64>().is_ok(), "bad sample line: {line}");
        }
    }

    #[test]
    fn histogram_buckets_are_cumulative() {
        let obs = Observer::new(VirtualClock::shared(1_000));
        obs.record(Stage::Decode, 1_000); // bucket 0
        obs.record(Stage::Decode, 3_000); // bucket 1
        let text = expose(&obs.observe());
        assert!(text.contains("chameleon_span_us_bucket{stage=\"decode\",le=\"2\"} 1"));
        assert!(text.contains("chameleon_span_us_bucket{stage=\"decode\",le=\"4\"} 2"));
        assert!(text.contains("chameleon_span_us_count{stage=\"decode\"} 2"));
    }
}
