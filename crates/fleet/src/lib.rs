//! `chameleon-fleet`: a sharded multi-session engine for concurrent
//! per-user continual learning.
//!
//! The paper evaluates one Chameleon learner against one user's stream.
//! Deployed on an edge gateway, the same learner runs once *per user* —
//! many small, independent `(Strategy, dual-memory state, stream cursor)`
//! triples that must share constrained compute and memory. This crate
//! provides that hosting layer:
//!
//! * [`FleetEngine`] — multiplexes sessions across N shard worker threads
//!   (`std::thread` + bounded `std::sync::mpsc` queues, no external deps);
//!   every [`SessionCommand`], admissions included, enters through one
//!   submit,
//! * [`UserSession`] — one user's resident session, bit-identical to a
//!   solo `Trainer` run over the same spec; an engine's sessions share
//!   one frozen `f_θ` and evaluate only their heads,
//! * [`SessionCheckpoint`] — the eviction format: learner blob +
//!   replay-buffer integrity metadata + exact stream position,
//! * [`ShardMetrics`]/[`FleetMetrics`] — per-shard and fleet-wide
//!   counters, including a merged [`chameleon_core::StepTrace`] that
//!   `chameleon-hw` can price.
//!
//! # Determinism contract
//!
//! Session→shard assignment is a seeded hash of the session id
//! ([`FleetEngine::shard_of`]) — independent of arrival order and shard
//! load. Sessions never share mutable state (an engine's sessions share
//! one immutable [`chameleon_core::FrozenModel`]: `f_θ` and its
//! write-once test-set latents), and fault plans are mixed per session
//! ([`session_fault_plan`]), so every session's outcome is a
//! pure function of `(scenario, spec, fault plan, command sequence)`:
//! the same fleet run with 1 shard, 4 shards, or as solo sessions yields
//! bit-identical evaluation reports and checkpoints, as long as the
//! per-session command sequence is the same and no budget eviction
//! occurs. Evictions preserve all *observable* state (stores, integrity
//! quarantine, counters, stream position) but restart transient training
//! state (sampling RNG, learning window) exactly as the learner
//! checkpoint format (`chameleon_core::checkpoint`) documents.
//!
//! # Example
//!
//! A compiling, runnable end-to-end fleet: every submit error propagates
//! through `?` (backpressure is absorbed by the blocking submits, so
//! the remaining failures — duplicate ids, dead shards — are real bugs
//! worth surfacing, not `unwrap()` fodder).
//!
//! ```
//! use std::sync::Arc;
//! use chameleon_core::ChameleonConfig;
//! use chameleon_fleet::{FleetConfig, FleetEngine, FleetError, SessionCommand, SessionSpec};
//! use chameleon_stream::{DatasetSpec, DomainIlScenario, StreamConfig};
//!
//! fn run() -> Result<(), FleetError> {
//!     let scenario = Arc::new(DomainIlScenario::generate(&DatasetSpec::core50_tiny(), 1));
//!     let mut fleet = FleetEngine::new(scenario, FleetConfig::default());
//!     for user in 0..4u64 {
//!         let spec = SessionSpec {
//!             learner: ChameleonConfig::default(),
//!             stream: StreamConfig::default(),
//!             learner_seed: user,
//!             stream_seed: user,
//!         };
//!         fleet.create_blocking(user, spec)?;
//!         fleet.command_blocking(user, SessionCommand::Step { batches: 4 })?;
//!     }
//!     let events = fleet.drain_pending();
//!     assert_eq!(events.len(), 8); // one ack per create + step
//!     assert_eq!(fleet.metrics().batches(), 16);
//!     Ok(())
//! }
//! run().expect("fleet example");
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod checkpoint;
mod engine;
mod metrics;
mod session;
mod shard;
mod sim;

pub use checkpoint::{SessionCheckpoint, FLEET_MAGIC, FLEET_MAGIC_V2};
pub use engine::{
    Backpressure, FleetConfig, FleetEngine, FleetError, RecoveryReport, MIGRATION_CORRELATION,
};
pub use metrics::{FleetMetrics, ShardMetrics};
pub use session::{session_fault_plan, SessionId, SessionSpec, UserSession};
pub use shard::{SessionCommand, SessionEvent, SessionEventKind, WakeHook};
