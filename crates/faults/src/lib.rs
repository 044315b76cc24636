//! Seeded, reproducible fault injection for the Chameleon reproduction.
//!
//! An always-on edge learner keeps its replay stores resident in SRAM/DRAM
//! for the whole deployment, persists checkpoints across power cycles, and
//! consumes a sensor stream that drops, repeats, and mislabels data. This
//! crate models those three fault surfaces so the rest of the workspace can
//! measure how gracefully the dual-memory pipeline degrades:
//!
//! * **Memory faults** — bit flips in stored replay features, at per-bit
//!   rates scaled by residency time and by [`StorePlacement`]: the off-chip
//!   DRAM long-term store upsets faster than the on-chip SRAM short-term
//!   store (the same placement split `chameleon-hw`'s memory simulator
//!   prices for traffic).
//! * **Checkpoint faults** — truncation and byte corruption of serialized
//!   checkpoint blobs, exercising loader robustness and recovery.
//! * **Stream faults** — dropped batches, duplicated batches, and label
//!   noise between the scenario and the strategy.
//! * **File faults** — durable-storage failure modes around power loss
//!   (torn writes, lying partial fsyncs, short reads, tail bit flips),
//!   consumed by the `chameleon-store` session log's I/O seam so crash
//!   schedules are seeded and replayable.
//!
//! Everything is driven by a single [`FaultPlan`] seed through
//! independently forked RNG streams per fault category, so the same plan
//! over the same run produces bit-identical faults regardless of how the
//! categories interleave. A plan with all rates zero is a *true no-op*: the
//! injector consumes no randomness and perturbs nothing, so a run under a
//! zero plan is bit-identical to a run without an injector.
//!
//! # Example
//!
//! ```
//! use chameleon_faults::{FaultInjector, FaultPlan};
//! use chameleon_replay::StorePlacement;
//!
//! let plan = FaultPlan::bit_flips(7, 1e-4);
//! let mut injector = FaultInjector::new(plan);
//! let mut features = vec![0.5f32; 256];
//! injector.flip_bits(&mut features, 1000, StorePlacement::OffChipDram);
//! assert!(injector.stats().bits_flipped > 0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod inject;
mod plan;

pub use inject::{CheckpointDamage, CrashDamage, FaultInjector, FaultStats};
pub use plan::{
    CheckpointFaultModel, FaultPlan, FileFaultModel, MemoryFaultModel, StreamFaultModel,
    DRAM_TO_SRAM_RATIO,
};

pub use chameleon_replay::StorePlacement;
