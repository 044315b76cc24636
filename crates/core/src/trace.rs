//! Operation and memory-traffic counters for hardware costing.

/// Counts of architectural events accumulated by a strategy over a run.
///
/// These are *counts*, not costs: the `chameleon-hw` crate converts them to
/// latency and energy with device-specific constants (nominal MobileNetV1
/// MAC counts, per-sample byte sizes, SRAM/DRAM energy). Keeping strategies
/// cost-agnostic means a single recorded trace prices onto every device
/// model in Table II.
///
/// All counters are totals for the run; [`StepTrace::per_input`] normalizes
/// by the number of stream inputs, which is the unit of Table II
/// ("latency/energy per image").
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct StepTrace {
    /// New stream samples observed.
    pub inputs: u64,
    /// Forward passes through the frozen trunk `f_θ` (new inputs plus
    /// re-extraction of raw replay samples — ER/DER/GSS pay this again for
    /// every replayed image; latent methods do not).
    pub trunk_passes: u64,
    /// Per-sample forward passes through the trainable head `g_φ`.
    pub head_fwd_passes: u64,
    /// Per-sample backward passes through the head.
    pub head_bwd_passes: u64,
    /// Replay samples read from the on-chip store (Chameleon's `M_s`).
    pub onchip_sample_reads: u64,
    /// Replay samples written to the on-chip store.
    pub onchip_sample_writes: u64,
    /// Latent replay samples read from off-chip memory.
    pub offchip_latent_reads: u64,
    /// Latent replay samples written to off-chip memory.
    pub offchip_latent_writes: u64,
    /// Raw-image replay samples read from off-chip memory.
    pub offchip_raw_reads: u64,
    /// Raw-image replay samples written to off-chip memory.
    pub offchip_raw_writes: u64,
    /// Covariance / pseudo-inverse updates (SLDA's per-image `O(N²)` update).
    pub covariance_updates: u64,
    /// Full matrix inversions performed (SLDA's `O(N³)` step).
    pub matrix_inversions: u64,
    /// Dimension of the inverted matrix (0 when unused).
    pub inversion_dim: usize,
}

impl StepTrace {
    /// A zeroed trace.
    pub fn new() -> Self {
        Self::default()
    }

    /// Normalizes every counter by the number of inputs, yielding average
    /// events *per stream image* — the unit the paper's Table II reports.
    ///
    /// Returns `None` when no inputs were observed.
    pub fn per_input(&self) -> Option<PerInputTrace> {
        if self.inputs == 0 {
            return None;
        }
        let n = self.inputs as f64;
        Some(PerInputTrace {
            trunk_passes: self.trunk_passes as f64 / n,
            head_fwd_passes: self.head_fwd_passes as f64 / n,
            head_bwd_passes: self.head_bwd_passes as f64 / n,
            onchip_sample_reads: self.onchip_sample_reads as f64 / n,
            onchip_sample_writes: self.onchip_sample_writes as f64 / n,
            offchip_latent_reads: self.offchip_latent_reads as f64 / n,
            offchip_latent_writes: self.offchip_latent_writes as f64 / n,
            offchip_raw_reads: self.offchip_raw_reads as f64 / n,
            offchip_raw_writes: self.offchip_raw_writes as f64 / n,
            covariance_updates: self.covariance_updates as f64 / n,
            matrix_inversions: self.matrix_inversions as f64 / n,
            inversion_dim: self.inversion_dim,
        })
    }

    /// How many counters a trace has.
    pub const COUNTERS: usize = 13;

    /// Every counter as a name/value pair, in the one fixed order that
    /// checkpoints store them in and observations list them in.
    pub fn counters(&self) -> [(&'static str, u64); Self::COUNTERS] {
        [
            ("inputs", self.inputs),
            ("trunk_passes", self.trunk_passes),
            ("head_fwd_passes", self.head_fwd_passes),
            ("head_bwd_passes", self.head_bwd_passes),
            ("onchip_sample_reads", self.onchip_sample_reads),
            ("onchip_sample_writes", self.onchip_sample_writes),
            ("offchip_latent_reads", self.offchip_latent_reads),
            ("offchip_latent_writes", self.offchip_latent_writes),
            ("offchip_raw_reads", self.offchip_raw_reads),
            ("offchip_raw_writes", self.offchip_raw_writes),
            ("covariance_updates", self.covariance_updates),
            ("matrix_inversions", self.matrix_inversions),
            ("inversion_dim", self.inversion_dim as u64),
        ]
    }

    /// The trace whose [`Self::counters`] values are `values`, in order.
    pub fn from_counters(values: [u64; Self::COUNTERS]) -> Self {
        let mut values = values.into_iter();
        let mut next = || values.next().expect("one value per counter");
        Self {
            inputs: next(),
            trunk_passes: next(),
            head_fwd_passes: next(),
            head_bwd_passes: next(),
            onchip_sample_reads: next(),
            onchip_sample_writes: next(),
            offchip_latent_reads: next(),
            offchip_latent_writes: next(),
            offchip_raw_reads: next(),
            offchip_raw_writes: next(),
            covariance_updates: next(),
            matrix_inversions: next(),
            inversion_dim: next() as usize,
        }
    }

    /// Adds another trace's totals into this one. `inversion_dim` is a
    /// size, not a count: the merged trace keeps the larger.
    pub fn merge(&mut self, other: &StepTrace) {
        let mut values = self.counters().map(|(_, value)| value);
        for (value, (name, theirs)) in values.iter_mut().zip(other.counters()) {
            *value = if name == "inversion_dim" {
                (*value).max(theirs)
            } else {
                *value + theirs
            };
        }
        *self = Self::from_counters(values);
    }
}

/// Per-stream-image averages derived from a [`StepTrace`].
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct PerInputTrace {
    /// Trunk forward passes per image.
    pub trunk_passes: f64,
    /// Head forward sample-passes per image.
    pub head_fwd_passes: f64,
    /// Head backward sample-passes per image.
    pub head_bwd_passes: f64,
    /// On-chip replay reads per image.
    pub onchip_sample_reads: f64,
    /// On-chip replay writes per image.
    pub onchip_sample_writes: f64,
    /// Off-chip latent reads per image.
    pub offchip_latent_reads: f64,
    /// Off-chip latent writes per image.
    pub offchip_latent_writes: f64,
    /// Off-chip raw reads per image.
    pub offchip_raw_reads: f64,
    /// Off-chip raw writes per image.
    pub offchip_raw_writes: f64,
    /// Covariance updates per image.
    pub covariance_updates: f64,
    /// Matrix inversions per image.
    pub matrix_inversions: f64,
    /// Dimension of the inverted matrix.
    pub inversion_dim: usize,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn per_input_normalizes() {
        let t = StepTrace {
            inputs: 10,
            trunk_passes: 10,
            head_fwd_passes: 30,
            head_bwd_passes: 30,
            onchip_sample_reads: 100,
            ..StepTrace::default()
        };
        let p = t.per_input().expect("non-empty");
        assert_eq!(p.trunk_passes, 1.0);
        assert_eq!(p.head_fwd_passes, 3.0);
        assert_eq!(p.onchip_sample_reads, 10.0);
    }

    #[test]
    fn per_input_of_empty_trace_is_none() {
        assert!(StepTrace::new().per_input().is_none());
    }

    #[test]
    fn merge_adds_counters() {
        let mut a = StepTrace {
            inputs: 1,
            trunk_passes: 2,
            ..StepTrace::default()
        };
        let b = StepTrace {
            inputs: 3,
            trunk_passes: 4,
            inversion_dim: 64,
            ..StepTrace::default()
        };
        a.merge(&b);
        assert_eq!(a.inputs, 4);
        assert_eq!(a.trunk_passes, 6);
        assert_eq!(a.inversion_dim, 64);
    }
}
