//! The shared log₂-microsecond latency histogram.
//!
//! One bucketing rule serves every per-stage span aggregate, the serving
//! layer's end-to-end `request` latency included: bucket `i` covers
//! `[2^i, 2^(i+1))` µs, with bucket 0 widened to `[0, 2)` µs and the
//! last bucket open-ended (the Prometheus `le="+Inf"` analog).

/// Number of histogram buckets: bucket `i` counts latencies in
/// `[2^i, 2^(i+1))` microseconds; bucket 0 covers `[0, 2)` µs and the
/// last bucket is an open-ended catch-all from `2^19` µs ≈ 0.5 s up.
pub const LATENCY_BUCKETS: usize = 20;

/// Bucket index for one observation of `nanos` nanoseconds:
/// `floor(log2(µs))`, clamped so `< 2 µs` lands in bucket 0 and
/// everything from `2^19` µs up lands in the catch-all.
#[must_use]
pub fn bucket_index(nanos: u64) -> usize {
    let micros = nanos / 1_000;
    if micros < 2 {
        return 0;
    }
    (63 - micros.leading_zeros() as usize).min(LATENCY_BUCKETS - 1)
}

/// Exclusive upper bound, in µs, of bucket `index` — `2^(index+1)` for
/// bounded buckets, [`u64::MAX`] for the open-ended catch-all.
#[must_use]
pub fn bucket_upper_us(index: usize) -> u64 {
    if index >= LATENCY_BUCKETS - 1 {
        u64::MAX
    } else {
        2u64 << index
    }
}

/// A power-of-two-microsecond latency histogram (bucket `i` covers
/// `[2^i, 2^(i+1))` µs, bucket 0 is `< 2 µs`, the last bucket absorbs
/// everything from `2^19 µs` ≈ 0.5 s up).
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct LatencyHistogram {
    /// Counts per bucket.
    pub buckets: [u64; LATENCY_BUCKETS],
}

impl LatencyHistogram {
    /// Records one observation, in nanoseconds.
    pub fn record_nanos(&mut self, nanos: u64) {
        self.buckets[bucket_index(nanos)] += 1;
    }

    /// Total observations recorded.
    pub fn count(&self) -> u64 {
        self.buckets.iter().sum()
    }

    /// Adds another histogram's counts into this one.
    pub fn merge(&mut self, other: &Self) {
        for (mine, theirs) in self.buckets.iter_mut().zip(other.buckets.iter()) {
            *mine += theirs;
        }
    }

    /// Upper bound (µs) of the bucket containing the `q`-quantile
    /// (`0.0 ..= 1.0`), or 0 when empty. Bucket resolution, not exact;
    /// a quantile landing in the open-ended catch-all reports
    /// [`u64::MAX`].
    pub fn quantile_upper_us(&self, q: f64) -> u64 {
        let total = self.count();
        if total == 0 {
            return 0;
        }
        let target = ((q.clamp(0.0, 1.0) * total as f64).ceil() as u64).max(1);
        let mut seen = 0;
        for (i, &count) in self.buckets.iter().enumerate() {
            seen += count;
            if seen >= target {
                return bucket_upper_us(i);
            }
        }
        bucket_upper_us(LATENCY_BUCKETS - 1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn histogram_buckets_by_log2_micros() {
        let mut h = LatencyHistogram::default();
        h.record_nanos(500); // <1 µs → bucket 0
        h.record_nanos(1_000); // 1 µs → bucket 0 (docs: bucket 0 is < 2 µs)
        h.record_nanos(3_000); // 3 µs → bucket 1 ([2, 4) µs)
        h.record_nanos(1_000_000); // 1 ms → bucket 9 ([512, 1024) µs)
        h.record_nanos(u64::MAX); // clamped to the catch-all
        assert_eq!(h.buckets[0], 2);
        assert_eq!(h.buckets[1], 1);
        assert_eq!(h.buckets[9], 1);
        assert_eq!(h.buckets[LATENCY_BUCKETS - 1], 1);
        assert_eq!(h.count(), 5);
    }

    #[test]
    fn exact_powers_of_two_open_their_own_bucket() {
        // Regression for the off-by-one: bucket `i` must cover
        // [2^i, 2^(i+1)) µs, so an observation of exactly 2^i µs opens
        // bucket i — the pre-fix code put it one bucket higher.
        for i in 1..LATENCY_BUCKETS - 1 {
            let mut h = LatencyHistogram::default();
            h.record_nanos((1u64 << i) * 1_000); // exactly 2^i µs
            assert_eq!(h.buckets[i], 1, "2^{i} µs must open bucket {i}");
            h.record_nanos(((1u64 << (i + 1)) - 1) * 1_000); // top of the bucket
            assert_eq!(
                h.buckets[i],
                2,
                "(2^{} - 1) µs must stay in bucket {i}",
                i + 1
            );
        }
    }

    #[test]
    fn zero_and_sub_two_micro_observations_land_in_bucket_zero() {
        let mut h = LatencyHistogram::default();
        h.record_nanos(0);
        h.record_nanos(1);
        h.record_nanos(999);
        h.record_nanos(1_999); // 1 µs after integer division
        assert_eq!(h.buckets[0], 4);
        assert_eq!(h.count(), 4);
    }

    #[test]
    fn u64_max_lands_in_the_catch_all() {
        let mut h = LatencyHistogram::default();
        h.record_nanos(u64::MAX);
        assert_eq!(h.buckets[LATENCY_BUCKETS - 1], 1);
    }

    #[test]
    fn quantiles_walk_the_buckets() {
        let mut h = LatencyHistogram::default();
        assert_eq!(h.quantile_upper_us(0.5), 0);
        for _ in 0..98 {
            h.record_nanos(2_000); // bucket 1 ([2, 4) µs)
        }
        h.record_nanos(40_000_000); // 40 ms → bucket 15 ([32768, 65536) µs)
        h.record_nanos(40_000_000);
        assert_eq!(h.quantile_upper_us(0.5), 4);
        assert_eq!(h.quantile_upper_us(0.999), 65_536);
    }

    #[test]
    fn catch_all_quantile_is_open_ended() {
        let mut h = LatencyHistogram::default();
        h.record_nanos(u64::MAX);
        assert_eq!(h.quantile_upper_us(0.5), u64::MAX);
    }

    #[test]
    fn merge_adds_counts() {
        let mut a = LatencyHistogram::default();
        let mut b = LatencyHistogram::default();
        a.record_nanos(1_000);
        b.record_nanos(1_000);
        b.record_nanos(1_000_000);
        a.merge(&b);
        assert_eq!(a.count(), 3);
    }

    fn from_counts(counts: &[u64]) -> LatencyHistogram {
        let mut h = LatencyHistogram::default();
        for (bucket, &count) in h.buckets.iter_mut().zip(counts) {
            *bucket = count;
        }
        h
    }

    proptest! {
        #[test]
        fn quantile_upper_is_monotone_in_q(
            counts in prop::collection::vec(0u64..1_000, LATENCY_BUCKETS),
            qa in 0.0f64..1.0,
            qb in 0.0f64..1.0,
        ) {
            let h = from_counts(&counts);
            let (q1, q2) = if qa <= qb { (qa, qb) } else { (qb, qa) };
            prop_assert!(h.quantile_upper_us(q1) <= h.quantile_upper_us(q2));
        }

        #[test]
        fn quantile_upper_is_merge_invariant(
            counts_a in prop::collection::vec(0u64..1_000, LATENCY_BUCKETS),
            counts_b in prop::collection::vec(0u64..1_000, LATENCY_BUCKETS),
            q in 0.0f64..1.0,
        ) {
            let a = from_counts(&counts_a);
            let b = from_counts(&counts_b);
            // Merging can only move a quantile between the two inputs'
            // values, never outside their envelope.
            let mut merged = a.clone();
            merged.merge(&b);
            let (qa, qb) = (a.quantile_upper_us(q), b.quantile_upper_us(q));
            let qm = merged.quantile_upper_us(q);
            // Empty inputs report 0, which is below any real bucket —
            // ignore them on the lower edge.
            let lo = match (a.count(), b.count()) {
                (0, _) => qb.min(qm),
                (_, 0) => qa.min(qm),
                _ => qa.min(qb),
            };
            prop_assert!(qm >= lo, "merged {qm} below both inputs {qa}/{qb}");
            prop_assert!(qm <= qa.max(qb), "merged {qm} above both inputs {qa}/{qb}");
        }

        #[test]
        fn every_observation_lands_in_exactly_one_bucket(nanos in any::<u64>()) {
            let mut h = LatencyHistogram::default();
            h.record_nanos(nanos);
            prop_assert_eq!(h.count(), 1);
            let index = bucket_index(nanos);
            prop_assert_eq!(h.buckets[index], 1);
            // The docs' bucket contract, checked directly.
            let micros = nanos / 1_000;
            if index == 0 {
                prop_assert!(micros < 2);
            } else if index < LATENCY_BUCKETS - 1 {
                prop_assert!(micros >= 1 << index);
                prop_assert!(micros < 1 << (index + 1));
            } else {
                prop_assert!(micros >= 1 << (LATENCY_BUCKETS - 1));
            }
        }
    }
}
