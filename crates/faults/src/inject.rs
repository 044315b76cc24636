//! The stateful injector that turns a [`FaultPlan`] into concrete faults.

use chameleon_replay::StorePlacement;
use chameleon_stream::Batch;
use chameleon_tensor::Prng;

use crate::plan::FaultPlan;

/// Counters of every fault actually injected so far.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct FaultStats {
    /// Individual bits flipped in stored features.
    pub bits_flipped: u64,
    /// Feature vectors that received at least one flip.
    pub vectors_hit: u64,
    /// Batches removed from the stream.
    pub batches_dropped: u64,
    /// Batches delivered twice.
    pub batches_duplicated: u64,
    /// Labels replaced by a wrong class.
    pub labels_noised: u64,
    /// Checkpoint blobs truncated.
    pub checkpoints_truncated: u64,
    /// Checkpoint blobs with byte corruption.
    pub checkpoints_corrupted: u64,
    /// Total checkpoint bytes damaged by corruption events.
    pub checkpoint_bytes_damaged: u64,
    /// Fsyncs that acknowledged durability for only part of the pending
    /// bytes (lying write cache).
    pub fsyncs_partial: u64,
    /// Reads that returned fewer bytes than requested.
    pub short_reads: u64,
    /// Crash events that tore the non-durable file tail.
    pub writes_torn: u64,
    /// Bits flipped in surviving non-durable file tails at crash time.
    pub file_bits_flipped: u64,
}

impl FaultStats {
    /// Whether any fault of any category has been injected.
    pub fn any(&self) -> bool {
        *self != Self::default()
    }
}

/// What [`FaultInjector::corrupt_checkpoint`] did to one blob.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CheckpointDamage {
    /// Offset the blob was truncated at, if it was.
    pub truncated_at: Option<usize>,
    /// Number of bytes XOR-corrupted (0 if none).
    pub corrupted_bytes: usize,
}

impl CheckpointDamage {
    /// Whether the blob was modified at all.
    pub fn any(&self) -> bool {
        self.truncated_at.is_some() || self.corrupted_bytes > 0
    }
}

/// What [`FaultInjector::crash_damage`] did to one file tail.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CrashDamage {
    /// Bytes of the non-durable tail discarded by tearing.
    pub torn_bytes: usize,
    /// Offset within the surviving tail whose byte had a bit flipped.
    pub flipped_at: Option<usize>,
}

impl CrashDamage {
    /// Whether the tail was modified at all.
    pub fn any(&self) -> bool {
        self.torn_bytes > 0 || self.flipped_at.is_some()
    }
}

/// Stateful fault injector.
///
/// Each fault category draws from its own RNG stream forked from the plan
/// seed, so the faults one category injects are independent of how often
/// the others are invoked — a memory-faults-only sweep stays bit-identical
/// whether or not checkpointing happens mid-run.
///
/// Determinism contract: the same [`FaultPlan`] driving the same sequence
/// of calls produces the same faults, and a category whose rates are all
/// zero never consumes randomness.
#[derive(Clone, Debug)]
pub struct FaultInjector {
    plan: FaultPlan,
    memory_rng: Prng,
    checkpoint_rng: Prng,
    stream_rng: Prng,
    file_rng: Prng,
    stats: FaultStats,
}

impl FaultInjector {
    /// Creates an injector executing `plan`.
    pub fn new(plan: FaultPlan) -> Self {
        let mut root = Prng::new(plan.seed);
        Self {
            plan,
            memory_rng: root.fork(1),
            checkpoint_rng: root.fork(2),
            stream_rng: root.fork(3),
            file_rng: root.fork(4),
            stats: FaultStats::default(),
        }
    }

    /// The plan being executed.
    pub fn plan(&self) -> &FaultPlan {
        &self.plan
    }

    /// Counters of faults injected so far.
    pub fn stats(&self) -> FaultStats {
        self.stats
    }

    /// Whether this injector can never inject anything.
    pub fn is_noop(&self) -> bool {
        self.plan.is_noop()
    }

    /// Injects bit upsets into a stored feature vector that has been
    /// resident at `placement` for `ticks` stream ticks. Returns the number
    /// of bits flipped.
    ///
    /// The expected flip count is `rate × bits × ticks`; the integer part
    /// is injected deterministically and the fractional remainder by a
    /// single biased coin, so low rates still inject occasionally instead
    /// of rounding to zero. Checksums are deliberately *not* resealed —
    /// detection is the consumer's job.
    pub fn flip_bits(
        &mut self,
        features: &mut [f32],
        ticks: u64,
        placement: StorePlacement,
    ) -> u64 {
        let rate = self.plan.memory.rate_for(placement);
        if rate <= 0.0 || ticks == 0 || features.is_empty() {
            return 0;
        }
        let bits = features.len() as f64 * 32.0;
        let expected = rate * bits * ticks as f64;
        let mut count = expected.floor() as u64;
        let fraction = (expected - expected.floor()) as f32;
        if fraction > 0.0 && self.memory_rng.coin(fraction) {
            count += 1;
        }
        for _ in 0..count {
            let word = self.memory_rng.below(features.len());
            let bit = self.memory_rng.below(32) as u32;
            features[word] = f32::from_bits(features[word].to_bits() ^ (1u32 << bit));
        }
        if count > 0 {
            self.stats.bits_flipped += count;
            self.stats.vectors_hit += 1;
        }
        count
    }

    /// Damages a serialized checkpoint blob in place per the plan's
    /// checkpoint model: possibly truncates it at a random offset, then
    /// possibly XORs a few bytes with non-zero masks (every damaged byte is
    /// guaranteed to actually change).
    pub fn corrupt_checkpoint(&mut self, blob: &mut Vec<u8>) -> CheckpointDamage {
        let model = self.plan.checkpoint;
        let mut damage = CheckpointDamage::default();
        if model.is_zero() || blob.is_empty() {
            return damage;
        }
        if model.truncate_prob > 0.0 && self.checkpoint_rng.coin(model.truncate_prob as f32) {
            let keep = self.checkpoint_rng.below(blob.len());
            blob.truncate(keep);
            damage.truncated_at = Some(keep);
            self.stats.checkpoints_truncated += 1;
        }
        if !blob.is_empty()
            && model.corrupt_prob > 0.0
            && self.checkpoint_rng.coin(model.corrupt_prob as f32)
        {
            let n = 1 + self.checkpoint_rng.below(model.max_corrupt_bytes.max(1));
            for _ in 0..n {
                let i = self.checkpoint_rng.below(blob.len());
                let mask = 1 + self.checkpoint_rng.below(255) as u8;
                blob[i] ^= mask;
            }
            damage.corrupted_bytes = n;
            self.stats.checkpoints_corrupted += 1;
            self.stats.checkpoint_bytes_damaged += n as u64;
        }
        damage
    }

    /// Applies stream faults to one arriving batch, returning what the
    /// strategy actually sees: `[]` (dropped), `[batch]` (possibly with
    /// noised labels), or `[batch, batch]` (duplicated).
    pub fn mangle_batch(&mut self, mut batch: Batch) -> Vec<Batch> {
        let model = self.plan.stream;
        if model.is_zero() {
            return vec![batch];
        }
        if model.label_noise_prob > 0.0 && model.num_classes >= 2 {
            for label in batch.labels.iter_mut() {
                if self.stream_rng.coin(model.label_noise_prob as f32) {
                    let offset = 1 + self.stream_rng.below(model.num_classes - 1);
                    *label = (*label + offset) % model.num_classes;
                    self.stats.labels_noised += 1;
                }
            }
        }
        if model.drop_batch_prob > 0.0 && self.stream_rng.coin(model.drop_batch_prob as f32) {
            self.stats.batches_dropped += 1;
            return Vec::new();
        }
        if model.duplicate_batch_prob > 0.0
            && self.stream_rng.coin(model.duplicate_batch_prob as f32)
        {
            self.stats.batches_duplicated += 1;
            return vec![batch.clone(), batch];
        }
        vec![batch]
    }

    /// Decides whether an fsync covering `pending` un-durable bytes lies:
    /// returns `Some(durable_prefix)` (strictly less than `pending`) when
    /// the hardware acknowledges durability for only a prefix, `None` when
    /// the fsync is honest. The lost suffix only matters at the next crash.
    pub fn partial_fsync(&mut self, pending: usize) -> Option<usize> {
        let model = self.plan.file;
        if model.partial_fsync_prob <= 0.0 || pending == 0 {
            return None;
        }
        if !self.file_rng.coin(model.partial_fsync_prob as f32) {
            return None;
        }
        self.stats.fsyncs_partial += 1;
        Some(self.file_rng.below(pending))
    }

    /// Decides whether a read of `requested` bytes comes up short: returns
    /// `Some(delivered)` (strictly less than `requested`) for a transient
    /// short read the caller should detect and retry, `None` for a full
    /// read.
    pub fn short_read(&mut self, requested: usize) -> Option<usize> {
        let model = self.plan.file;
        if model.short_read_prob <= 0.0 || requested == 0 {
            return None;
        }
        if !self.file_rng.coin(model.short_read_prob as f32) {
            return None;
        }
        self.stats.short_reads += 1;
        Some(self.file_rng.below(requested))
    }

    /// Damages the non-durable tail of a file at simulated power loss:
    /// possibly tears it (keeping only a prefix), then possibly flips one
    /// bit at a chosen offset in whatever survives. Durable (fsynced) bytes
    /// are never touched — that is the whole point of the fsync contract.
    pub fn crash_damage(&mut self, tail: &mut Vec<u8>) -> CrashDamage {
        let model = self.plan.file;
        let mut damage = CrashDamage::default();
        if (model.torn_write_prob <= 0.0 && model.bit_flip_prob <= 0.0) || tail.is_empty() {
            return damage;
        }
        if model.torn_write_prob > 0.0 && self.file_rng.coin(model.torn_write_prob as f32) {
            let keep = self.file_rng.below(tail.len());
            damage.torn_bytes = tail.len() - keep;
            tail.truncate(keep);
            self.stats.writes_torn += 1;
        }
        if model.bit_flip_prob > 0.0
            && !tail.is_empty()
            && self.file_rng.coin(model.bit_flip_prob as f32)
        {
            let i = self.file_rng.below(tail.len());
            let bit = self.file_rng.below(8) as u8;
            tail[i] ^= 1 << bit;
            damage.flipped_at = Some(i);
            self.stats.file_bits_flipped += 1;
        }
        damage
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::{CheckpointFaultModel, FaultPlan, FileFaultModel, StreamFaultModel};
    use chameleon_tensor::Matrix;

    fn batch(labels: Vec<usize>) -> Batch {
        let rows = labels.len();
        Batch {
            raw: Matrix::zeros(rows, 4),
            labels,
            domain: 0,
        }
    }

    #[test]
    fn noop_injector_changes_nothing_and_draws_nothing() {
        let mut injector = FaultInjector::new(FaultPlan::disabled(3));
        let mut features = vec![1.0f32, -2.0, 3.5];
        assert_eq!(
            injector.flip_bits(&mut features, 10_000, StorePlacement::OffChipDram),
            0
        );
        assert_eq!(features, vec![1.0, -2.0, 3.5]);
        let mut blob = vec![1u8, 2, 3, 4];
        assert!(!injector.corrupt_checkpoint(&mut blob).any());
        assert_eq!(blob, vec![1, 2, 3, 4]);
        let out = injector.mangle_batch(batch(vec![0, 1]));
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].labels, vec![0, 1]);
        assert!(injector.partial_fsync(4096).is_none());
        assert!(injector.short_read(4096).is_none());
        let mut tail = vec![9u8; 32];
        assert!(!injector.crash_damage(&mut tail).any());
        assert_eq!(tail, vec![9u8; 32]);
        assert!(!injector.stats().any());
        // No randomness consumed: internal streams still match a fresh one.
        let fresh = FaultInjector::new(FaultPlan::disabled(3));
        assert_eq!(
            format!("{:?}", injector.memory_rng),
            format!("{:?}", fresh.memory_rng)
        );
        assert_eq!(
            format!("{:?}", injector.file_rng),
            format!("{:?}", fresh.file_rng)
        );
    }

    #[test]
    fn same_seed_injects_identical_faults() {
        let plan = FaultPlan::bit_flips(42, 1e-4);
        let run = |plan: FaultPlan| {
            let mut injector = FaultInjector::new(plan);
            let mut features = vec![0.25f32; 128];
            for _ in 0..50 {
                injector.flip_bits(&mut features, 100, StorePlacement::OffChipDram);
            }
            // Bit patterns, not values: flips can produce NaN.
            let bits: Vec<u32> = features.iter().map(|v| v.to_bits()).collect();
            (bits, injector.stats())
        };
        let (a, sa) = run(plan);
        let (b, sb) = run(plan);
        assert_eq!(a, b);
        assert_eq!(sa, sb);
        assert!(sa.bits_flipped > 0);
    }

    #[test]
    fn dram_residents_upset_faster_than_sram() {
        let plan = FaultPlan::bit_flips(7, 1e-5);
        let count = |placement| {
            let mut injector = FaultInjector::new(plan);
            let mut features = vec![0.5f32; 64];
            let mut flips = 0;
            for _ in 0..200 {
                flips += injector.flip_bits(&mut features, 50, placement);
            }
            flips
        };
        assert!(count(StorePlacement::OffChipDram) > count(StorePlacement::OnChipSram));
    }

    #[test]
    fn checkpoint_corruption_always_changes_the_blob() {
        let mut plan = FaultPlan::disabled(11);
        plan.checkpoint = CheckpointFaultModel {
            truncate_prob: 0.5,
            corrupt_prob: 1.0,
            max_corrupt_bytes: 8,
        };
        let mut injector = FaultInjector::new(plan);
        for trial in 0..50u8 {
            let original: Vec<u8> = (0..200).map(|i| (i as u8).wrapping_add(trial)).collect();
            let mut blob = original.clone();
            let damage = injector.corrupt_checkpoint(&mut blob);
            assert!(damage.any(), "trial {trial} left blob untouched");
            assert_ne!(blob, original);
        }
        let stats = injector.stats();
        assert!(stats.checkpoints_corrupted + stats.checkpoints_truncated >= 50);
    }

    #[test]
    fn stream_faults_drop_duplicate_and_noise() {
        let mut plan = FaultPlan::disabled(5);
        plan.stream = StreamFaultModel {
            drop_batch_prob: 0.3,
            duplicate_batch_prob: 0.3,
            label_noise_prob: 0.2,
            num_classes: 10,
        };
        let mut injector = FaultInjector::new(plan);
        let mut delivered = 0usize;
        for i in 0..300 {
            let out = injector.mangle_batch(batch(vec![i % 10, (i + 1) % 10]));
            assert!(out.len() <= 2);
            for b in &out {
                assert!(b.labels.iter().all(|&l| l < 10));
            }
            delivered += out.len();
        }
        let stats = injector.stats();
        assert!(stats.batches_dropped > 0, "no drops in 300 batches");
        assert!(stats.batches_duplicated > 0, "no duplicates in 300 batches");
        assert!(stats.labels_noised > 0, "no label noise in 600 labels");
        assert_eq!(
            delivered,
            300 - stats.batches_dropped as usize + stats.batches_duplicated as usize
        );
    }

    #[test]
    fn label_noise_never_keeps_the_original_label() {
        let mut plan = FaultPlan::disabled(9);
        plan.stream = StreamFaultModel {
            drop_batch_prob: 0.0,
            duplicate_batch_prob: 0.0,
            label_noise_prob: 1.0,
            num_classes: 4,
        };
        let mut injector = FaultInjector::new(plan);
        for _ in 0..100 {
            let out = injector.mangle_batch(batch(vec![2, 2, 2]));
            assert!(out[0].labels.iter().all(|&l| l != 2 && l < 4));
        }
    }

    #[test]
    fn file_faults_fire_and_replay_from_their_seed() {
        let model = FileFaultModel {
            torn_write_prob: 0.6,
            partial_fsync_prob: 0.4,
            short_read_prob: 0.5,
            bit_flip_prob: 0.5,
        };
        let run = || {
            let mut injector = FaultInjector::new(FaultPlan::file_faults(77, model));
            let mut outcomes = Vec::new();
            for round in 0..60usize {
                outcomes.push(injector.partial_fsync(100 + round));
                outcomes.push(injector.short_read(64));
                let mut tail: Vec<u8> = (0..40).map(|i| i as u8).collect();
                let damage = injector.crash_damage(&mut tail);
                outcomes.push(Some(damage.torn_bytes));
                outcomes.push(damage.flipped_at);
                outcomes.push(Some(tail.iter().map(|&b| b as usize).sum()));
            }
            (outcomes, injector.stats())
        };
        let (a, sa) = run();
        let (b, sb) = run();
        assert_eq!(a, b, "same seed must replay identical file faults");
        assert_eq!(sa, sb);
        assert!(sa.fsyncs_partial > 0, "{sa:?}");
        assert!(sa.short_reads > 0, "{sa:?}");
        assert!(sa.writes_torn > 0, "{sa:?}");
        assert!(sa.file_bits_flipped > 0, "{sa:?}");
    }

    #[test]
    fn partial_outcomes_are_strictly_smaller_than_requested() {
        let model = FileFaultModel {
            torn_write_prob: 0.0,
            partial_fsync_prob: 1.0,
            short_read_prob: 1.0,
            bit_flip_prob: 0.0,
        };
        let mut injector = FaultInjector::new(FaultPlan::file_faults(5, model));
        for _ in 0..200 {
            let durable = injector.partial_fsync(37).expect("prob 1.0");
            assert!(durable < 37);
            let delivered = injector.short_read(12).expect("prob 1.0");
            assert!(delivered < 12);
        }
        assert!(injector.partial_fsync(0).is_none());
        assert!(injector.short_read(0).is_none());
    }

    #[test]
    fn category_streams_are_independent() {
        // Interleaving checkpoint corruption and file faults between memory
        // injections must not change which memory bits flip.
        let plan = {
            let mut p = FaultPlan::bit_flips(13, 1e-4);
            p.checkpoint = CheckpointFaultModel {
                truncate_prob: 0.5,
                corrupt_prob: 0.5,
                max_corrupt_bytes: 4,
            };
            p.file = FileFaultModel {
                torn_write_prob: 0.5,
                partial_fsync_prob: 0.5,
                short_read_prob: 0.5,
                bit_flip_prob: 0.5,
            };
            p
        };
        let run = |interleave: bool| {
            let mut injector = FaultInjector::new(plan);
            let mut features = vec![0.125f32; 64];
            for _ in 0..40 {
                injector.flip_bits(&mut features, 100, StorePlacement::OffChipDram);
                if interleave {
                    let mut blob = vec![0u8; 64];
                    injector.corrupt_checkpoint(&mut blob);
                    injector.partial_fsync(128);
                    injector.short_read(128);
                    let mut tail = vec![0u8; 32];
                    injector.crash_damage(&mut tail);
                }
            }
            // Compare bit patterns: flips can produce NaN, and NaN != NaN.
            features.iter().map(|v| v.to_bits()).collect::<Vec<u32>>()
        };
        assert_eq!(run(false), run(true));
    }
}
