//! The explorer harness: one [`Explorer`] enum naming every seeded
//! explorer, and the simulation plumbing the engine-level explorers
//! share — the `Op` → fleet-command mapping, logged op application with
//! post-op checkpoint probes, final-blob collection, the
//! Evict-at-the-same-boundary reference run, and scratch directories.
//! The `route` explorer drives the router instead and keeps its own
//! applier ([`multinode`]).

use std::collections::BTreeMap;
use std::fmt;
use std::path::PathBuf;
use std::str::FromStr;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use chameleon_core::Precision;
use chameleon_fleet::{
    FleetConfig, FleetEngine, FleetError, SessionCommand, SessionEvent, SessionEventKind, SessionId,
};
use chameleon_runtime::splitmix64;
use chameleon_stream::DomainIlScenario;

use crate::balance::{self, BalanceSeedOutcome};
use crate::crash::{self, CrashOutcome};
use crate::digest::{encode_event, ShardScope};
use crate::lifecycle::{self, SeedOutcome};
use crate::multinode::{self, RouteSeedOutcome};
use crate::script::{self, Op};

/// One seeded explorer. Each proves that one way of running, moving, or
/// interrupting a session leaves everything it observably learns
/// untouched; [`Explorer::check`] runs one seed of it.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Explorer {
    /// Shard-count invariance and same-seed replay of the lifecycle
    /// script ([`lifecycle`]).
    Lifecycle,
    /// [`Explorer::Lifecycle`] with every session's latents stored at
    /// int8.
    Quantized,
    /// Kill a store-attached engine at every eviction boundary, recover,
    /// and compare against the sealed records ([`crash`]).
    Crash,
    /// Drain, node-kill, and router-restart schedules through
    /// `chameleon-route`'s routing core over simulated nodes
    /// ([`multinode`]).
    Route,
    /// Online migration schedules on one multi-shard engine
    /// ([`balance`]).
    Balance,
}

impl Explorer {
    /// Every explorer, in the order their names are listed.
    const ALL: [Explorer; 5] = [
        Self::Lifecycle,
        Self::Quantized,
        Self::Crash,
        Self::Route,
        Self::Balance,
    ];

    /// The name that selects this explorer.
    fn name(self) -> &'static str {
        match self {
            Self::Lifecycle => "lifecycle",
            Self::Quantized => "quantized",
            Self::Crash => "crash",
            Self::Route => "route",
            Self::Balance => "balance",
        }
    }

    /// Runs one seed. A crash or route seed works in scratch directories
    /// of its own, removed afterwards whatever the result.
    ///
    /// # Errors
    ///
    /// A human-readable description of the first violated invariant; the
    /// seed reproduces it bit-identically.
    pub fn check(self, scenario: &Arc<DomainIlScenario>, seed: u64) -> Result<Outcome, String> {
        match self {
            Self::Lifecycle => lifecycle::check_seed(scenario, seed).map(Outcome::Lifecycle),
            Self::Quantized => {
                lifecycle::check_seed_at(scenario, seed, Precision::Int8).map(Outcome::Lifecycle)
            }
            Self::Crash => {
                let scratch = scratch_dir("crash");
                let outcome = crash::check_crash_seed(scenario, seed, &scratch);
                let _ = std::fs::remove_dir_all(&scratch);
                outcome.map(Outcome::Crash)
            }
            Self::Route => multinode::check_route_seed(scenario, seed).map(Outcome::Route),
            Self::Balance => balance::check_balance_seed(scenario, seed).map(Outcome::Balance),
        }
    }
}

impl fmt::Display for Explorer {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

impl FromStr for Explorer {
    type Err = String;

    fn from_str(name: &str) -> Result<Self, String> {
        Self::ALL
            .into_iter()
            .find(|explorer| explorer.name() == name)
            .ok_or_else(|| {
                let names: Vec<&str> = Self::ALL.iter().map(|e| e.name()).collect();
                format!(
                    "unknown explorer `{name}`; expected one of: {}",
                    names.join(", ")
                )
            })
    }
}

/// What one passing seed looked like, per explorer.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Outcome {
    /// A lifecycle or quantized seed.
    Lifecycle(SeedOutcome),
    /// A crash-schedule seed.
    Crash(CrashOutcome),
    /// A multi-node route seed.
    Route(RouteSeedOutcome),
    /// A migration-schedule seed.
    Balance(BalanceSeedOutcome),
}

impl Outcome {
    /// Whether the seed ran under an injected fault plan: memory bit
    /// flips, or a hostile disk for a crash seed.
    pub fn faulted(&self) -> bool {
        match self {
            Self::Lifecycle(o) => o.faulted,
            Self::Crash(o) => o.file_faulted,
            Self::Route(o) => o.faulted,
            Self::Balance(o) => o.faulted,
        }
    }

    /// Named counts a sweep sums across its passing seeds; the same names
    /// in the same order for every seed of one explorer.
    pub fn tallies(&self) -> Vec<(&'static str, u64)> {
        match self {
            Self::Lifecycle(o) => vec![("events", o.events)],
            Self::Crash(o) => vec![
                ("eviction boundaries", o.boundaries as u64),
                ("session recoveries", o.sessions_recovered),
                ("records lost", o.records_lost),
            ],
            Self::Route(o) => vec![
                ("handoffs", o.handoffs),
                ("node kills", o.kills),
                ("sessions re-homed", o.recovered),
                ("router restarts", o.router_restarts),
            ],
            Self::Balance(o) => vec![("migrations", o.migrations), ("skipped moves", o.skipped)],
        }
    }
}

impl fmt::Display for Outcome {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::Lifecycle(o) => write!(
                f,
                "{} ops, {} shards, {} events, event digest {:#010x}, \
                 checkpoint crc {:#010x}, span digest {:#010x}",
                o.ops, o.shards, o.events, o.event_digest, o.checkpoint_crc, o.span_digest
            ),
            Self::Crash(o) => write!(
                f,
                "{} ops, {} eviction boundaries, {} session recoveries, {} record(s) lost",
                o.ops, o.boundaries, o.sessions_recovered, o.records_lost
            ),
            Self::Route(o) => write!(
                f,
                "{} ops on {} nodes, {} handoff(s), {} kill(s) re-homing {} session(s), \
                 {} router restart(s), log digest {:#010x}, checkpoint crc {:#010x}",
                o.ops,
                o.nodes,
                o.handoffs,
                o.kills,
                o.recovered,
                o.router_restarts,
                o.log_digest,
                o.checkpoint_crc
            ),
            Self::Balance(o) => write!(
                f,
                "{} ops on {} shards, {} migration(s), {} skipped, log digest {:#010x}, \
                 checkpoint crc {:#010x}",
                o.ops, o.shards, o.migrations, o.skipped, o.log_digest, o.checkpoint_crc
            ),
        }?;
        if self.faulted() {
            f.write_str(" (faulted)")?;
        }
        Ok(())
    }
}

/// Per-session observable history: every event (probes included) and
/// every synchronous refusal, encoded without shard ids so histories
/// compare across placements.
pub(crate) type Logs = BTreeMap<SessionId, Vec<u8>>;

/// Final `CHAMFLT1` blob of every session.
pub(crate) type Blobs = BTreeMap<SessionId, Vec<u8>>;

/// Sessions a run moved or interrupted: `(op_index, session)` in apply
/// order, each before the op at `op_index`.
pub(crate) type Trace = Vec<(usize, SessionId)>;

/// A fresh scratch directory for one `kind` case (`crash`, `route`),
/// unique per call and per process so concurrent cases never collide.
pub(crate) fn scratch_dir(kind: &str) -> PathBuf {
    static CASES: AtomicU64 = AtomicU64::new(0);
    let case = CASES.fetch_add(1, Ordering::Relaxed);
    std::env::temp_dir().join(format!(
        "chameleon-{kind}-sim-{}-{case}",
        std::process::id()
    ))
}

/// Fleet config of a single-engine run of `seed`: the seed's fault plan
/// and assignment seed, and an unbounded budget so residency never
/// depends on which sessions share a shard.
pub(crate) fn sim_config(seed: u64, num_shards: usize) -> FleetConfig {
    FleetConfig {
        num_shards,
        queue_depth: 4,
        budget_bytes: u64::MAX,
        assignment_seed: splitmix64(seed ^ 0xA551),
        faults: script::fault_plan(seed),
    }
}

/// Submits `op` to `engine` as its fleet command, riding out
/// backpressure. Sessions are created from `seed`'s spec at `precision`.
///
/// # Errors
///
/// The engine's synchronous refusal (unknown or duplicate id); the
/// script issues those on purpose.
pub(crate) fn submit(
    engine: &mut FleetEngine,
    seed: u64,
    op: &Op,
    precision: Precision,
) -> Result<(), FleetError> {
    let command = match *op {
        Op::Create { session } => {
            SessionCommand::Create(Box::new(script::session_spec_at(seed, session, precision)))
        }
        Op::Step { batches, .. } => SessionCommand::Step { batches },
        Op::Checkpoint { .. } => SessionCommand::Checkpoint,
        Op::Evict { .. } => SessionCommand::Evict,
        Op::Evaluate { .. } => SessionCommand::Evaluate,
    };
    engine.command_blocking(op.session(), command)
}

/// Applies `op`, folds its refusal or its events into `logs`, then probes
/// the touched session with a `Checkpoint` so its post-op `CHAMFLT1`
/// bytes are part of the history. `observe` sees every event after it is
/// logged.
///
/// # Errors
///
/// A refused probe, or the first error `observe` returns.
pub(crate) fn apply_logged(
    engine: &mut FleetEngine,
    logs: &mut Logs,
    seed: u64,
    op: &Op,
    precision: Precision,
    mut observe: impl FnMut(SessionEvent) -> Result<(), String>,
) -> Result<(), String> {
    let session = op.session();
    if let Err(error) = submit(engine, seed, op, precision) {
        // Refusals are observable: every compared run must refuse the
        // same ops. `Rejected` cannot reach here (blocking submit).
        let log = logs.entry(session).or_default();
        log.push(0xFF);
        log.extend_from_slice(error.to_string().as_bytes());
    }
    let mut drain = |engine: &mut FleetEngine| {
        for event in engine.drain_pending() {
            encode_event(
                logs.entry(event.session).or_default(),
                &event,
                ShardScope::Exclude,
            );
            observe(event)?;
        }
        Ok::<(), String>(())
    };
    drain(engine)?;
    if engine.known(session) {
        engine
            .command_blocking(session, SessionCommand::Checkpoint)
            .map_err(|e| format!("checkpoint probe refused: {e}"))?;
        drain(engine)?;
    }
    Ok(())
}

/// The current `CHAMFLT1` blob of every session `engine` knows, probed
/// with a `Checkpoint` command in id order.
///
/// # Errors
///
/// A refused checkpoint, or one that produced no blob.
pub(crate) fn final_blobs(engine: &mut FleetEngine) -> Result<Blobs, String> {
    let mut blobs = Blobs::new();
    for id in 0..script::SESSION_POOL {
        if !engine.known(id) {
            continue;
        }
        engine
            .command_blocking(id, SessionCommand::Checkpoint)
            .map_err(|e| format!("final checkpoint refused: {e}"))?;
        let blob = engine
            .drain_pending()
            .into_iter()
            .find_map(|e| match e.kind {
                SessionEventKind::Checkpointed(blob) => Some(blob),
                _ => None,
            })
            .ok_or_else(|| format!("session {id}: final checkpoint produced no blob"))?;
        blobs.insert(id, blob);
    }
    Ok(blobs)
}

/// The Evict-at-the-same-boundary reference of the `balance` explorer:
/// an undisturbed `shards`-shard engine runs `ops`, evicting each traced
/// session before the op at its index (evict is idempotent on a cold
/// session). Moves restart transient training state by design, so a
/// moved session must match this run byte for byte. Eviction
/// acknowledgements stay out of the history, as the moves' own
/// export/import events do.
///
/// # Errors
///
/// As [`apply_logged`] and [`final_blobs`].
pub(crate) fn evict_reference(
    scenario: &Arc<DomainIlScenario>,
    seed: u64,
    shards: usize,
    ops: &[Op],
    trace: &Trace,
) -> Result<(Logs, Blobs), String> {
    let mut engine = FleetEngine::new_sim(Arc::clone(scenario), sim_config(seed, shards), seed);
    let mut logs = Logs::new();
    for (index, op) in ops.iter().enumerate() {
        for (_, session) in trace.iter().filter(|(at, _)| *at == index) {
            let _ = engine.command_blocking(*session, SessionCommand::Evict);
            engine.drain_pending();
        }
        apply_logged(&mut engine, &mut logs, seed, op, Precision::F32, |_| Ok(()))
            .map_err(|e| format!("op {index} ({op:?}): {e}"))?;
    }
    Ok((logs, final_blobs(&mut engine)?))
}
