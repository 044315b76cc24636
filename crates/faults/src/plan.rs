//! Declarative description of which faults to inject, at which rates.

use chameleon_replay::StorePlacement;

/// Relative susceptibility of off-chip DRAM vs on-chip SRAM to bit upsets.
///
/// Must match `SoftErrorModel::DRAM_TO_SRAM_RATIO` in `chameleon-hw` (the
/// crates cannot share the constant without a dependency cycle; a
/// cross-crate test in the root package keeps them in sync).
pub const DRAM_TO_SRAM_RATIO: f64 = 16.0;

/// Bit-upset rates for data resident in each memory level, in expected
/// flips per stored bit per stream tick (one tick = one streamed sample).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct MemoryFaultModel {
    /// Upset rate for on-chip SRAM residents (short-term store).
    pub sram_flips_per_bit_per_tick: f64,
    /// Upset rate for off-chip DRAM residents (long-term store, baseline
    /// replay buffers).
    pub dram_flips_per_bit_per_tick: f64,
}

impl MemoryFaultModel {
    /// No memory faults.
    pub fn disabled() -> Self {
        Self {
            sram_flips_per_bit_per_tick: 0.0,
            dram_flips_per_bit_per_tick: 0.0,
        }
    }

    /// Explicit per-level rates (e.g. copied from a hardware soft-error
    /// model).
    pub fn from_rates(sram: f64, dram: f64) -> Self {
        Self {
            sram_flips_per_bit_per_tick: sram,
            dram_flips_per_bit_per_tick: dram,
        }
    }

    /// DRAM rate with the SRAM rate derived via [`DRAM_TO_SRAM_RATIO`].
    pub fn from_dram_rate(dram: f64) -> Self {
        Self::from_rates(dram / DRAM_TO_SRAM_RATIO, dram)
    }

    /// The upset rate applying to data at `placement`.
    pub fn rate_for(&self, placement: StorePlacement) -> f64 {
        match placement {
            StorePlacement::OnChipSram => self.sram_flips_per_bit_per_tick,
            StorePlacement::OffChipDram => self.dram_flips_per_bit_per_tick,
        }
    }

    /// Whether both rates are exactly zero.
    pub fn is_zero(&self) -> bool {
        self.sram_flips_per_bit_per_tick == 0.0 && self.dram_flips_per_bit_per_tick == 0.0
    }
}

/// Damage model for serialized checkpoint blobs.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct CheckpointFaultModel {
    /// Probability a saved blob is truncated at a random offset
    /// (interrupted write / power loss).
    pub truncate_prob: f64,
    /// Probability a saved blob has random bytes corrupted (bad flash
    /// sectors, transfer errors).
    pub corrupt_prob: f64,
    /// Upper bound on how many bytes one corruption event damages.
    pub max_corrupt_bytes: usize,
}

impl CheckpointFaultModel {
    /// No checkpoint faults.
    pub fn disabled() -> Self {
        Self {
            truncate_prob: 0.0,
            corrupt_prob: 0.0,
            max_corrupt_bytes: 0,
        }
    }

    /// Whether both damage probabilities are exactly zero.
    pub fn is_zero(&self) -> bool {
        self.truncate_prob == 0.0 && self.corrupt_prob == 0.0
    }
}

/// Perturbations of the input stream between scenario and strategy.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct StreamFaultModel {
    /// Probability an arriving batch is dropped entirely (sensor outage).
    pub drop_batch_prob: f64,
    /// Probability an arriving batch is delivered twice (retransmission).
    pub duplicate_batch_prob: f64,
    /// Per-sample probability the label is replaced by a different class
    /// (annotation/user-feedback noise). Requires `num_classes >= 2`.
    pub label_noise_prob: f64,
    /// Number of classes labels are drawn from, for noise replacement.
    pub num_classes: usize,
}

impl StreamFaultModel {
    /// No stream faults.
    pub fn disabled() -> Self {
        Self {
            drop_batch_prob: 0.0,
            duplicate_batch_prob: 0.0,
            label_noise_prob: 0.0,
            num_classes: 0,
        }
    }

    /// Whether every perturbation probability is exactly zero.
    pub fn is_zero(&self) -> bool {
        self.drop_batch_prob == 0.0
            && self.duplicate_batch_prob == 0.0
            && self.label_noise_prob == 0.0
    }
}

/// Damage model for durable file I/O (the `chameleon-store` session log).
///
/// These faults model what storage hardware does around a power cut, not
/// steady-state corruption: sealed-and-fsynced bytes are assumed stable,
/// while bytes still in the write path can be lost, partially persisted,
/// or garbled. The store's I/O seam consults the injector at three
/// points — fsync acknowledgement ([`crate::FaultInjector::partial_fsync`]),
/// reads ([`crate::FaultInjector::short_read`]), and simulated power loss
/// ([`crate::FaultInjector::crash_damage`]).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct FileFaultModel {
    /// Probability a crash tears the un-fsynced tail of the log: only a
    /// prefix of the not-yet-durable suffix survives.
    pub torn_write_prob: f64,
    /// Probability an fsync "succeeds" while actually persisting only a
    /// prefix of the pending bytes (write-cache hardware lying about
    /// durability). The lost suffix disappears at the next crash.
    pub partial_fsync_prob: f64,
    /// Probability a read returns fewer bytes than requested (transient
    /// short read; the store detects and retries).
    pub short_read_prob: f64,
    /// Probability a crash flips one bit at an injector-chosen offset
    /// inside the surviving non-durable tail region.
    pub bit_flip_prob: f64,
}

impl FileFaultModel {
    /// No file faults.
    pub fn disabled() -> Self {
        Self {
            torn_write_prob: 0.0,
            partial_fsync_prob: 0.0,
            short_read_prob: 0.0,
            bit_flip_prob: 0.0,
        }
    }

    /// Whether every file-fault probability is exactly zero.
    pub fn is_zero(&self) -> bool {
        self.torn_write_prob == 0.0
            && self.partial_fsync_prob == 0.0
            && self.short_read_prob == 0.0
            && self.bit_flip_prob == 0.0
    }
}

/// A complete, seeded fault-injection campaign description.
///
/// The same plan always produces the same faults over the same run: the
/// seed feeds independently forked RNG streams per category (see
/// [`crate::FaultInjector`]).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct FaultPlan {
    /// Root seed for all fault randomness.
    pub seed: u64,
    /// Memory bit-upset rates.
    pub memory: MemoryFaultModel,
    /// Checkpoint damage model.
    pub checkpoint: CheckpointFaultModel,
    /// Stream perturbation model.
    pub stream: StreamFaultModel,
    /// Durable file I/O damage model (session-store crash schedules).
    pub file: FileFaultModel,
}

impl FaultPlan {
    /// A plan injecting nothing; running under it is bit-identical to not
    /// running an injector at all.
    pub fn disabled(seed: u64) -> Self {
        Self {
            seed,
            memory: MemoryFaultModel::disabled(),
            checkpoint: CheckpointFaultModel::disabled(),
            stream: StreamFaultModel::disabled(),
            file: FileFaultModel::disabled(),
        }
    }

    /// A memory-faults-only plan at the given DRAM bit-flip rate, with the
    /// SRAM rate derived via the fixed DRAM:SRAM susceptibility ratio.
    pub fn bit_flips(seed: u64, dram_flips_per_bit_per_tick: f64) -> Self {
        Self {
            seed,
            memory: MemoryFaultModel::from_dram_rate(dram_flips_per_bit_per_tick),
            checkpoint: CheckpointFaultModel::disabled(),
            stream: StreamFaultModel::disabled(),
            file: FileFaultModel::disabled(),
        }
    }

    /// A file-faults-only plan: crash-time tearing, lying fsyncs, short
    /// reads, and tail bit flips at the given probabilities — the model
    /// the session store's crash schedules run under.
    pub fn file_faults(seed: u64, file: FileFaultModel) -> Self {
        Self {
            seed,
            memory: MemoryFaultModel::disabled(),
            checkpoint: CheckpointFaultModel::disabled(),
            stream: StreamFaultModel::disabled(),
            file,
        }
    }

    /// Whether every fault category is disabled.
    pub fn is_noop(&self) -> bool {
        self.memory.is_zero()
            && self.checkpoint.is_zero()
            && self.stream.is_zero()
            && self.file.is_zero()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_plan_is_noop() {
        assert!(FaultPlan::disabled(0).is_noop());
        assert!(!FaultPlan::bit_flips(0, 1e-6).is_noop());
        let file = FileFaultModel {
            torn_write_prob: 0.1,
            ..FileFaultModel::disabled()
        };
        assert!(!FaultPlan::file_faults(0, file).is_noop());
    }

    #[test]
    fn bit_flip_plan_keeps_hierarchy_asymmetry() {
        let plan = FaultPlan::bit_flips(0, 1.6e-5);
        assert!(
            plan.memory.rate_for(StorePlacement::OffChipDram)
                > plan.memory.rate_for(StorePlacement::OnChipSram)
        );
        assert_eq!(plan.memory.rate_for(StorePlacement::OffChipDram), 1.6e-5);
    }

    #[test]
    fn derived_sram_rate_follows_ratio() {
        let m = MemoryFaultModel::from_dram_rate(1.6e-5);
        assert_eq!(m.dram_flips_per_bit_per_tick, 1.6e-5);
        assert_eq!(m.sram_flips_per_bit_per_tick, 1.6e-5 / DRAM_TO_SRAM_RATIO);
    }
}
