//! `chameleon-simtest` — deterministic simulation testing for the
//! fleet/serve stack, in the FoundationDB style.
//!
//! A single `u64` seed pins a complete test case end to end: the op
//! script a fleet engine executes ([`script`]), the fault plan it runs
//! under, the shard count, and — through the engine's own seeded
//! [`chameleon_runtime::SimScheduler`] — every queue-drain interleaving
//! and virtual-clock reading inside it. Re-running a seed reproduces a
//! failure bit for bit; sweeping seeds explores interleavings that a
//! wall-clock threaded run would only hit by luck.
//!
//! The crate's layers:
//!
//! - [`script`] — seeded generation of session-lifecycle op scripts and
//!   the fault plans / session specs that ride along;
//! - [`digest`] — stable byte encodings and CRC32 digests of every
//!   observable (events, checkpoint blobs, evaluation reports);
//! - [`explorer`] — the [`Explorer`] enum that names and runs each
//!   seeded explorer below, plus the plumbing they share;
//! - [`lifecycle`] — the invariant checker: one seed ⇒ the same script
//!   on a 1-shard engine, a K-shard engine, and a same-seed replay,
//!   asserting shard-count invariance after every prefix and replay
//!   determinism at the end (the `quantized` explorer reruns it at
//!   int8);
//! - [`crash`] — the durable-store crash schedule: kill a store-attached
//!   engine at every eviction boundary (optionally on a hostile disk),
//!   recover, and assert every session comes back to exactly its last
//!   sealed checkpoint with bit-identical subsequent training;
//! - [`multinode`] — the `route` explorer: handoff, node-kill, and
//!   router-restart schedules on a simulated cluster, proven observably
//!   identical to local evictions at the same boundaries;
//! - [`balance`] — the migration-schedule explorer: online session
//!   migrations (the `chameleon-balance` primitive) injected at seeded
//!   op boundaries, proven observably identical to local evictions at
//!   the same boundaries;
//! - [`soak`] — the budgeted seed sweep over any explorer, and
//!   [`golden`] — the committed conformance corpus that pins wire
//!   frames, checkpoint bytes, and metric digests against silent format
//!   drift.
//!
//! The `chameleon simtest` CLI subcommand fronts the soak runner and
//! the golden corpus gate.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod balance;
pub mod crash;
pub mod digest;
pub mod explorer;
pub mod golden;
pub mod lifecycle;
pub mod multinode;
pub mod script;
pub mod soak;

pub use balance::{check_balance_seed, migration_plan, BalanceSeedOutcome};
pub use crash::{check_crash_seed, CrashOutcome};
pub use digest::{digest_events, digest_spans, encode_event, ShardScope};
pub use explorer::{Explorer, Outcome};
pub use golden::{
    derive_corpus, diff, golden_scenario, parse, render, GoldenFile, GOLDEN_FILE_NAMES,
};
pub use lifecycle::{check_seed, check_seed_at, SeedOutcome};
pub use multinode::{check_route_seed, disruption_plan, Disruption, RouteSeedOutcome};
pub use script::{generate, Op};
pub use soak::{SoakConfig, SoakReport};
