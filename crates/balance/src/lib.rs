//! `chameleon-balance`: a load-aware shard rebalancer for the fleet
//! engine, plus the seeded skewed-traffic shapes that make its win
//! provable.
//!
//! Session→shard placement in `chameleon-fleet` is a static seeded hash —
//! perfect for determinism, blind to load. Real traffic is Zipf-skewed,
//! bursty, and diurnal, so one hot shard saturates while the rest idle.
//! This crate closes the loop:
//!
//! * [`ShardLoad`] — per-shard load signals (queue depth, recent steps,
//!   resident bytes, eviction churn) sourced from the fleet's own
//!   [`chameleon_fleet::ShardMetrics`] counters,
//! * [`BalancePolicy`] — the pluggable planning trait, shipped with
//!   [`PeriodicLeastLoaded`] (periodic rebalance toward the least-loaded
//!   shard) and [`ThresholdWorkStealing`] (threshold-triggered stealing
//!   for single-user floods),
//! * [`Balancer`] — executes plans as **online session migrations**:
//!   export the session to its `CHAMFLT1` checkpoint, record the new
//!   placement in the engine's override table, import the blob cold on
//!   the target shard ([`chameleon_fleet::FleetEngine::migrate_session`]),
//! * [`TrafficShape`] — seeded zipf / burst / diurnal / flood traffic
//!   generators for loadgen, the bench bins, and the CLI.
//!
//! # Migration safety
//!
//! A migration is observably identical to a local
//! [`chameleon_fleet::SessionCommand::Evict`] at the same command
//! boundary: observable state (replay stores, quarantine, counters,
//! stream position) moves bit for bit; transient training state restarts
//! exactly as the checkpoint format documents. The
//! `chameleon-simtest` migration explorer proves learning outcomes are
//! bit-identical regardless of migration schedule (`simtest --explorer
//! balance --seeds N`), and the write-ahead store discipline from
//! `chameleon-store` makes mid-migration crashes recoverable: the
//! override table is in-memory, so recovery simply re-homes every
//! session on its hash-default shard and reads the latest sealed
//! checkpoint from the fleet-wide store.
//!
//! # Example
//!
//! ```
//! use std::sync::Arc;
//! use chameleon_balance::{BalanceConfig, TrafficShape};
//! use chameleon_core::ChameleonConfig;
//! use chameleon_fleet::{FleetConfig, FleetEngine, SessionCommand, SessionSpec};
//! use chameleon_stream::{DatasetSpec, DomainIlScenario, StreamConfig};
//!
//! let scenario = Arc::new(DomainIlScenario::generate(&DatasetSpec::core50_tiny(), 1));
//! let mut fleet = FleetEngine::new_sim(
//!     scenario,
//!     FleetConfig { num_shards: 2, ..FleetConfig::default() },
//!     7,
//! );
//! let mut shape = TrafficShape::parse("zipf:1.1", 4, 7).expect("shape");
//! let mut balancer = BalanceConfig::parse("steal:4").expect("policy").build();
//! for user in 0..4u64 {
//!     let spec = SessionSpec {
//!         learner: ChameleonConfig::default(),
//!         stream: StreamConfig::default(),
//!         learner_seed: user,
//!         stream_seed: user,
//!     };
//!     fleet.create_blocking(user, spec).expect("create");
//! }
//! for _ in 0..64 {
//!     let user = shape.next_session() as u64;
//!     fleet
//!         .command_blocking(user, SessionCommand::Step { batches: 1 })
//!         .expect("step");
//!     balancer.on_op(&mut fleet);
//! }
//! fleet.drain_pending();
//! assert!(balancer.counters().rebalance_ticks >= 1);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod balancer;
mod policy;
mod shape;

pub use balancer::{BalanceConfig, BalanceCounters, Balancer, PolicyKind};
pub use policy::{BalancePolicy, Migration, PeriodicLeastLoaded, ShardLoad, ThresholdWorkStealing};
pub use shape::{ShapeKind, TrafficShape};
