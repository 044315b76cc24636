//! The statistics the benchmark reports: latency percentiles with failed
//! ops counted as slower than any limit, span self times, and ledger
//! coverage.

/// Latencies of one op kind in microseconds; a failed op is recorded as
/// `f32::INFINITY`, so it sorts above every finite latency.
#[derive(Clone, Debug, Default)]
pub struct Latencies(Vec<f32>);

impl Latencies {
    /// Records a completed op.
    pub fn push_us(&mut self, us: f32) {
        self.0.push(us);
    }

    /// Records a failed op.
    pub fn push_failed(&mut self) {
        self.0.push(f32::INFINITY);
    }

    /// Ops recorded, failed ones included.
    pub fn len(&self) -> usize {
        self.0.len()
    }

    /// Appends another recorder's samples.
    pub fn extend(&mut self, other: &Latencies) {
        self.0.extend_from_slice(&other.0);
    }

    /// Nearest-rank percentile `q` in `(0, 1]`, in microseconds: the
    /// smallest recorded value with at least `q` of all samples at or
    /// below it. `None` when nothing was recorded.
    pub fn percentile(&self, q: f64) -> Option<f64> {
        if self.0.is_empty() {
            return None;
        }
        let mut sorted = self.0.clone();
        sorted.sort_by(f32::total_cmp);
        let rank = (q * sorted.len() as f64).ceil().max(1.0) as usize;
        Some(f64::from(sorted[rank.min(sorted.len()) - 1]))
    }

    /// Mean of the completed ops, in microseconds (0 when none).
    pub fn mean_ok(&self) -> f64 {
        let ok: Vec<f64> = self
            .0
            .iter()
            .filter(|v| v.is_finite())
            .map(|&v| f64::from(v))
            .collect();
        if ok.is_empty() {
            0.0
        } else {
            ok.iter().sum::<f64>() / ok.len() as f64
        }
    }
}

/// One recorded span. Times are nanoseconds since the run's epoch.
#[derive(Clone, Debug, PartialEq)]
pub struct Span {
    /// Unique span id.
    pub id: u64,
    /// Layer name, e.g. `core.step`; `request` for a client request.
    pub name: &'static str,
    /// The client request this span belongs to (0 for offline probes).
    pub request: u64,
    /// Parent span id; `None` for a root.
    pub parent: Option<u64>,
    /// Start, nanoseconds since the epoch.
    pub start_ns: u64,
    /// End, nanoseconds since the epoch.
    pub end_ns: u64,
    /// The op of the request (`step`, `predict`, `checkpoint`, `probe`).
    pub op: &'static str,
}

impl Span {
    /// Wall duration.
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Self time of every span, in input order: its duration minus the part
/// of its interval covered by the union of its children's intervals
/// (children may overlap each other or overhang the parent).
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: std::collections::HashMap<u64, Vec<(u64, u64)>> =
        std::collections::HashMap::new();
    for s in spans {
        if let Some(parent) = s.parent {
            children
                .entry(parent)
                .or_default()
                .push((s.start_ns, s.end_ns));
        }
    }
    spans
        .iter()
        .map(|s| {
            let mut covered = 0u64;
            if let Some(kids) = children.get_mut(&s.id) {
                kids.sort_unstable();
                let mut cursor = s.start_ns;
                for &(start, end) in kids.iter() {
                    let (start, end) = (start.max(cursor), end.min(s.end_ns));
                    if end > start {
                        covered += end - start;
                        cursor = end;
                    }
                }
            }
            s.duration_ns() - covered
        })
        .collect()
}

/// Share of a client's mean latency that the ledger attributes to named
/// layers: `Σ attributed / client mean`. The remainder is waiting.
pub fn coverage(attributed_us: &[f64], client_mean_us: f64) -> f64 {
    if client_mean_us <= 0.0 {
        return 0.0;
    }
    attributed_us.iter().sum::<f64>() / client_mean_us
}

/// Median of a non-empty slice (mean of the middle pair when even).
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Median of the values measured under the least CPU steal: the `keep`
/// least-stolen ones plus any tied with the last one taken. Each value
/// comes with the steal share during its measurement; the plain median
/// of all values when a share is missing.
pub fn quiet_median(values: &[(f64, Option<f64>)], keep: usize) -> f64 {
    let Some(mut steal) = values.iter().map(|v| v.1).collect::<Option<Vec<f64>>>() else {
        return median(&values.iter().map(|v| v.0).collect::<Vec<_>>());
    };
    steal.sort_by(f64::total_cmp);
    let cut = steal[keep.clamp(1, steal.len()) - 1];
    let quiet: Vec<f64> = values
        .iter()
        .filter(|v| v.1.is_some_and(|s| s <= cut))
        .map(|v| v.0)
        .collect();
    median(&quiet)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lat(values: &[f32]) -> Latencies {
        let mut l = Latencies::default();
        for &v in values {
            l.push_us(v);
        }
        l
    }

    #[test]
    fn nearest_rank_percentiles_on_known_vectors() {
        let l = lat(&[5.0, 1.0, 4.0, 2.0, 3.0, 10.0, 9.0, 8.0, 7.0, 6.0]);
        assert_eq!(l.percentile(0.5), Some(5.0));
        assert_eq!(l.percentile(0.99), Some(10.0));
        assert_eq!(l.percentile(0.1), Some(1.0));
        assert_eq!(l.percentile(0.11), Some(2.0));
        let hundred = lat(&(1..=100).map(|v| v as f32).collect::<Vec<_>>());
        assert_eq!(hundred.percentile(0.5), Some(50.0));
        assert_eq!(hundred.percentile(0.99), Some(99.0));
        assert_eq!(lat(&[7.0]).percentile(0.99), Some(7.0));
        assert_eq!(Latencies::default().percentile(0.5), None);
    }

    #[test]
    fn failed_ops_sort_above_every_latency() {
        let mut l = lat(&(1..=98).map(|v| v as f32).collect::<Vec<_>>());
        l.push_failed();
        l.push_failed();
        assert_eq!(l.len(), 100);
        assert_eq!(l.percentile(0.5), Some(50.0));
        assert_eq!(l.percentile(0.98), Some(98.0));
        assert_eq!(l.percentile(0.99), Some(f64::INFINITY));
        assert!(
            (l.mean_ok() - 49.5).abs() < 1e-9,
            "failed ops have no latency"
        );
    }

    fn span(id: u64, parent: Option<u64>, start_ns: u64, end_ns: u64) -> Span {
        Span {
            id,
            name: "x",
            request: 1,
            parent,
            start_ns,
            end_ns,
            op: "step",
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let spans = [
            span(1, None, 0, 100),
            span(2, Some(1), 10, 40),
            span(3, Some(2), 20, 30),
            span(4, Some(1), 35, 60),   // overlaps span 2
            span(5, Some(1), 90, 120),  // overhangs the parent
            span(6, Some(4), 100, 200), // wholly outside its parent
            span(7, None, 500, 510),    // unrelated root
        ];
        // root: children cover [10,60] ∪ [90,100] = 60 of 100.
        assert_eq!(self_times(&spans), vec![40, 20, 10, 25, 30, 100, 10]);
    }

    #[test]
    fn coverage_is_attributed_over_client_mean() {
        assert!((coverage(&[250.0, 50.0, 20.0], 1280.0) - 0.25).abs() < 1e-12);
        assert_eq!(coverage(&[], 100.0), 0.0);
        assert_eq!(coverage(&[1.0], 0.0), 0.0);
    }

    #[test]
    fn median_of_odd_and_even() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }

    #[test]
    fn quiet_median_keeps_the_least_stolen_and_their_ties() {
        let runs = [
            (5.0, Some(0.3)),
            (1.0, Some(0.0)),
            (2.0, Some(0.1)),
            (9.0, Some(0.5)),
            (3.0, Some(0.1)),
        ];
        // Two least stolen: 0.0 and 0.1, and the other 0.1 ties.
        assert_eq!(quiet_median(&runs, 2), 2.0);
        assert_eq!(quiet_median(&runs, 1), 1.0);
        assert_eq!(quiet_median(&runs, 9), 3.0);
        let unknown = [(5.0, Some(0.0)), (1.0, None), (2.0, Some(0.0))];
        assert_eq!(quiet_median(&unknown, 1), 2.0);
    }
}
