//! The fleet engine: multiplexes many user sessions across N shard worker
//! threads with deterministic assignment and bounded-queue backpressure.

use std::collections::{HashMap, HashSet, VecDeque};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::mpsc::{self, Receiver, SyncSender, TrySendError};
use std::sync::Arc;
use std::thread::JoinHandle;

use chameleon_core::FrozenModel;
use chameleon_faults::FaultPlan;
use chameleon_obs::Observer;
use chameleon_runtime::{splitmix64, Clock, Runtime, WallClock};
use chameleon_store::{SharedStore, StoreCounters, StoreError};
use chameleon_stream::{ConfigError, DomainIlScenario};

use crate::checkpoint::SessionCheckpoint;
use crate::metrics::FleetMetrics;
use crate::session::{SessionId, SessionSpec};
use crate::shard::{
    RecoveredSession, Request, SessionCommand, SessionEvent, SessionEventKind, ShardWorker,
    WakeHook,
};
use crate::sim::SimExecutor;

/// Shape of a fleet: shard count, queue bound, per-shard session-memory
/// budget, and optional fleet-wide fault plan.
#[derive(Clone, Debug, PartialEq)]
pub struct FleetConfig {
    /// Worker shard count (threads).
    pub num_shards: usize,
    /// Bounded request-queue depth per shard; a full queue rejects with
    /// [`FleetError::Rejected`] instead of blocking the caller.
    pub queue_depth: usize,
    /// Per-shard resident session-memory budget in bytes; exceeding it
    /// evicts least-recently-used sessions to checkpoint form.
    pub budget_bytes: u64,
    /// Seed of the session→shard hash. Assignment depends only on this
    /// seed and the session id, never on arrival order.
    pub assignment_seed: u64,
    /// Optional fleet-wide fault plan; each session derives a private,
    /// interleaving-independent plan from it.
    pub faults: Option<FaultPlan>,
}

impl Default for FleetConfig {
    fn default() -> Self {
        Self {
            num_shards: 2,
            queue_depth: 64,
            budget_bytes: u64::MAX,
            assignment_seed: 0,
            faults: None,
        }
    }
}

impl FleetConfig {
    /// Checks structural validity.
    ///
    /// # Errors
    ///
    /// Returns the first violated requirement.
    pub fn validate(&self) -> Result<(), ConfigError> {
        if self.num_shards == 0 {
            return Err(ConfigError {
                field: "shard count",
                requirement: "must be positive",
            });
        }
        if self.queue_depth == 0 {
            return Err(ConfigError {
                field: "queue depth",
                requirement: "must be positive",
            });
        }
        if self.budget_bytes == 0 {
            return Err(ConfigError {
                field: "session-memory budget",
                requirement: "must be positive",
            });
        }
        Ok(())
    }

    /// The seeded-hash home shard of `id` (see [`FleetEngine::home_shard`]).
    fn home_shard(&self, id: SessionId) -> usize {
        (splitmix64(id ^ self.assignment_seed) % self.num_shards as u64) as usize
    }
}

/// Why a request was turned down at the engine boundary.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum FleetError {
    /// The target shard's bounded queue is full; retry after draining
    /// events (or submit through [`FleetEngine::command_blocking`]).
    Rejected(Backpressure),
    /// The session id is not admitted on this engine.
    UnknownSession,
    /// The session id is admitted, or its admission is in flight.
    DuplicateSession,
    /// The shard's worker thread is gone (it can no longer accept work).
    ShardDown(usize),
}

/// Details of a backpressure rejection.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Backpressure {
    /// Shard whose queue was full.
    pub shard: usize,
    /// The configured queue bound that was hit.
    pub queue_depth: usize,
}

impl std::fmt::Display for FleetError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::Rejected(bp) => write!(
                f,
                "shard {} queue full (depth {})",
                bp.shard, bp.queue_depth
            ),
            Self::UnknownSession => write!(f, "unknown session"),
            Self::DuplicateSession => write!(f, "session already exists"),
            Self::ShardDown(shard) => write!(f, "shard {shard} worker is down"),
        }
    }
}

impl std::error::Error for FleetError {}

struct ShardHandle {
    sender: SyncSender<Request>,
    in_flight: Arc<AtomicUsize>,
    join: Option<JoinHandle<()>>,
}

/// Correlation id reserved for engine-internal migration traffic.
///
/// Safe to reserve: the blocking submits use correlation `0` and
/// network frontends allocate correlations counting up from `1`, so a
/// caller-chosen id can never collide with this sentinel before the heat
/// death of the universe.
pub const MIGRATION_CORRELATION: u64 = u64::MAX;

/// How this engine executes its shard workers.
enum Backend {
    /// One OS thread per shard behind a bounded `mpsc` queue.
    Threads(Vec<ShardHandle>),
    /// Single-threaded seeded cooperative execution (`chameleon-simtest`).
    Sim(SimExecutor),
}

/// What [`FleetEngine::recover`] rebuilt from the durable session store.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct RecoveryReport {
    /// Sessions whose last sealed checkpoint was validated and re-seeded
    /// as cold state on their home shard.
    pub sessions_recovered: usize,
    /// Sealed records that failed validation (corrupt payload, session
    /// mismatch) and were skipped.
    pub decode_rejects: usize,
}

/// A sharded multi-session engine.
///
/// Sessions are assigned to shards by seeded hash of their id, so an
/// N-shard run processes each session with exactly the same request
/// sequence a 1-shard run (or a solo [`crate::UserSession`]) would — the
/// basis of the fleet's determinism contract (see `DESIGN.md`).
pub struct FleetEngine {
    config: FleetConfig,
    backend: Backend,
    events: Receiver<SessionEvent>,
    buffered: VecDeque<SessionEvent>,
    /// Sessions admitted, or with an admission in flight. Inserted by
    /// [`Self::command_correlated`], released by [`Self::account`].
    known: HashSet<SessionId>,
    /// Acks owed per session with requests in flight. A shard answers a
    /// session's requests in the order they were sent, so the count
    /// tells which ack answers an admission.
    owed: HashMap<SessionId, Owed>,
    /// Placement override table: sessions re-homed by online migration.
    /// Consulted by [`Self::shard_of`] before the seeded-hash default.
    /// In-memory only — after a crash, recovery re-seeds every session on
    /// its hash-home shard, which is always correct because the durable
    /// store is fleet-wide, not per-shard.
    overrides: HashMap<SessionId, usize>,
    /// Sessions moved by [`Self::migrate_session`] over this engine's
    /// lifetime (counts re-homes back to the hash default too).
    migrations: u64,
    pending: usize,
    observer: Arc<Observer>,
    store: Option<SharedStore>,
}

impl FleetEngine {
    /// Spawns the shard workers on real threads ([`Runtime::Threads`]).
    ///
    /// # Panics
    ///
    /// Panics if `config` fails [`FleetConfig::validate`].
    pub fn new(scenario: Arc<DomainIlScenario>, config: FleetConfig) -> Self {
        let observer = Self::default_observer(&Runtime::Threads);
        Self::with_observer(scenario, config, Runtime::Threads, observer, None)
    }

    /// An engine under deterministic simulation: no threads, a seeded
    /// scheduler picks which shard queue progresses, and all timing
    /// reads a shared virtual clock. The same `(scenario, config, seed,
    /// request sequence)` reproduces the same event log and checkpoint
    /// bytes, bit for bit.
    ///
    /// # Panics
    ///
    /// Panics if `config` fails [`FleetConfig::validate`].
    pub fn new_sim(scenario: Arc<DomainIlScenario>, config: FleetConfig, seed: u64) -> Self {
        let runtime = Runtime::sim(seed);
        let observer = Self::default_observer(&runtime);
        Self::with_observer(scenario, config, runtime, observer, None)
    }

    /// Builds an engine on an explicit [`Runtime`] with a caller-supplied
    /// span/event [`Observer`] — the serving layer passes its own so the
    /// fleet's per-stage spans land beside its encode/decode spans.
    ///
    /// The observer's clock should match the runtime's (wall vs virtual);
    /// the shard workers feed it the *same* elapsed nanos that accumulate
    /// in [`crate::ShardMetrics`], so span totals reconcile exactly.
    ///
    /// `wake`, when set, runs on a shard thread right after each event
    /// that shard sends, so a caller that blocks on its own inbox (the
    /// serving layer's engine thread) learns without polling that
    /// [`Self::drain`] has work. Under [`Runtime::Sim`] it never runs:
    /// nothing executes until the caller drives the engine.
    ///
    /// # Panics
    ///
    /// Panics if `config` fails [`FleetConfig::validate`].
    pub fn with_observer(
        scenario: Arc<DomainIlScenario>,
        config: FleetConfig,
        runtime: Runtime,
        observer: Arc<Observer>,
        wake: Option<WakeHook>,
    ) -> Self {
        Self::build(scenario, config, runtime, observer, None, Vec::new(), wake)
    }

    /// Builds an engine with the durable session store attached: LRU
    /// evictions write through it (checkpoint sealed + fsynced before the
    /// RAM copy is dropped) and cold restores read through it. Starts from
    /// whatever the store already holds *without* recovering it — use
    /// [`Self::recover`] to also re-seed sessions from disk.
    ///
    /// # Panics
    ///
    /// Panics if `config` fails [`FleetConfig::validate`].
    pub fn with_store(
        scenario: Arc<DomainIlScenario>,
        config: FleetConfig,
        runtime: Runtime,
        store: SharedStore,
    ) -> Self {
        let observer = Self::default_observer(&runtime);
        Self::build(
            scenario,
            config,
            runtime,
            observer,
            Some(store),
            Vec::new(),
            None,
        )
    }

    /// Rebuilds a fleet from the durable session store after a crash:
    /// every session with a sealed record is validated against its
    /// `CHAMFLT1` envelope and re-seeded cold on its home shard, to be
    /// restored (to exactly its last sealed checkpoint) on first touch.
    /// Records that fail validation are counted and skipped, never
    /// panicked on.
    ///
    /// # Errors
    ///
    /// I/O failures reading the store. Per-record corruption
    /// is *not* an error — it lands in [`RecoveryReport::decode_rejects`].
    ///
    /// # Panics
    ///
    /// Panics if `config` fails [`FleetConfig::validate`].
    pub fn recover(
        scenario: Arc<DomainIlScenario>,
        config: FleetConfig,
        runtime: Runtime,
        store: SharedStore,
    ) -> Result<(Self, RecoveryReport), StoreError> {
        let observer = Self::default_observer(&runtime);
        Self::recover_with_observer(scenario, config, runtime, observer, store, None)
    }

    /// [`Self::recover`] with a caller-supplied [`Observer`] and optional
    /// wake hook (see [`Self::with_observer`]).
    ///
    /// # Errors
    ///
    /// Same contract as [`Self::recover`].
    ///
    /// # Panics
    ///
    /// Panics if `config` fails [`FleetConfig::validate`].
    pub fn recover_with_observer(
        scenario: Arc<DomainIlScenario>,
        config: FleetConfig,
        runtime: Runtime,
        observer: Arc<Observer>,
        store: SharedStore,
        wake: Option<WakeHook>,
    ) -> Result<(Self, RecoveryReport), StoreError> {
        if let Err(e) = config.validate() {
            panic!("invalid fleet config: {e}");
        }
        let mut per_shard: Vec<Vec<RecoveredSession>> = vec![Vec::new(); config.num_shards];
        let mut rejects = 0usize;
        for id in store.sessions() {
            match store.get(id) {
                Ok(Some(blob)) => match SessionCheckpoint::from_bytes(&blob) {
                    Ok(checkpoint)
                        if checkpoint.session == id && checkpoint.check(&scenario).is_ok() =>
                    {
                        per_shard[config.home_shard(id)].push((id, checkpoint.counters));
                    }
                    _ => rejects += 1,
                },
                Ok(None) => {}
                Err(error @ StoreError::Io { .. }) => return Err(error),
                Err(StoreError::Crashed) => return Err(StoreError::Crashed),
                // Corrupt / IndexMismatch: that session's record is bad;
                // skip it and keep recovering the rest.
                Err(_) => rejects += 1,
            }
        }
        let sessions_recovered = per_shard.iter().map(Vec::len).sum();
        let engine = Self::build(
            scenario,
            config,
            runtime,
            observer,
            Some(store),
            per_shard,
            wake,
        );
        engine.observer.event(format!(
            "store: recovered {sessions_recovered} sessions ({rejects} rejects)"
        ));
        Ok((
            engine,
            RecoveryReport {
                sessions_recovered,
                decode_rejects: rejects,
            },
        ))
    }

    /// A default observer on the runtime-matching clock: wall time for
    /// threads, the scheduler's shared virtual clock for simulation.
    fn default_observer(runtime: &Runtime) -> Arc<Observer> {
        match runtime {
            Runtime::Threads => Arc::new(Observer::new(WallClock::shared())),
            Runtime::Sim(scheduler) => Arc::new(Observer::new(scheduler.clock())),
        }
    }

    fn build(
        scenario: Arc<DomainIlScenario>,
        config: FleetConfig,
        runtime: Runtime,
        observer: Arc<Observer>,
        store: Option<SharedStore>,
        mut recovered: Vec<Vec<RecoveredSession>>,
        wake: Option<WakeHook>,
    ) -> Self {
        if let Err(e) = config.validate() {
            panic!("invalid fleet config: {e}");
        }
        let known: HashSet<SessionId> = recovered
            .iter()
            .flat_map(|seeds| seeds.iter().map(|(id, _)| *id))
            .collect();
        let (event_tx, event_rx) = mpsc::channel();
        // f_θ is built here, once; its test-set latents wait for the
        // first evaluation, so starting an engine pays no test-set pass.
        let frozen = Arc::new(FrozenModel::new(scenario));
        let clock: Arc<dyn Clock> = match &runtime {
            Runtime::Threads => WallClock::shared(),
            Runtime::Sim(scheduler) => scheduler.clock(),
        };
        let workers = (0..config.num_shards).map(|shard| {
            let mut worker = ShardWorker::new(
                shard,
                Arc::clone(&frozen),
                config.faults,
                config.budget_bytes,
                Arc::clone(&clock),
                event_tx.clone(),
                Arc::clone(&observer),
            );
            if let Some(store) = &store {
                let seeds = recovered.get_mut(shard).map(std::mem::take);
                worker.attach_store(store.clone(), seeds.unwrap_or_default());
            }
            worker
        });
        let backend = match runtime {
            Runtime::Threads => Backend::Threads(
                workers
                    .enumerate()
                    .map(|(shard, worker)| {
                        let (tx, rx) = mpsc::sync_channel(config.queue_depth);
                        let wake = wake.clone();
                        let join = std::thread::Builder::new()
                            .name(format!("fleet-shard-{shard}"))
                            .spawn(move || worker.run(rx, wake))
                            .expect("spawn shard worker");
                        ShardHandle {
                            sender: tx,
                            in_flight: Arc::new(AtomicUsize::new(0)),
                            join: Some(join),
                        }
                    })
                    .collect(),
            ),
            Runtime::Sim(scheduler) => Backend::Sim(SimExecutor::new(
                scheduler,
                workers.collect(),
                config.queue_depth,
            )),
        };
        Self {
            config,
            backend,
            events: event_rx,
            buffered: VecDeque::new(),
            known,
            owed: HashMap::new(),
            overrides: HashMap::new(),
            migrations: 0,
            pending: 0,
            observer,
            store,
        }
    }

    /// The span recorder + event log this engine's shard workers feed.
    pub fn observer(&self) -> Arc<Observer> {
        Arc::clone(&self.observer)
    }

    /// Counters of the attached durable session store, `None` when the
    /// engine runs RAM-only.
    pub fn store_counters(&self) -> Option<StoreCounters> {
        self.store.as_ref().map(SharedStore::counters)
    }

    /// The engine's configuration.
    pub fn config(&self) -> &FleetConfig {
        &self.config
    }

    /// Current session→shard placement: the migration override when one
    /// exists, else the seeded-hash default ([`Self::home_shard`]).
    pub fn shard_of(&self, id: SessionId) -> usize {
        match self.overrides.get(&id) {
            Some(&shard) => shard,
            None => self.home_shard(id),
        }
    }

    /// The seeded-hash default placement, ignoring migration overrides:
    /// a pure function of the id and the assignment seed, independent of
    /// creation order and of every other session.
    pub fn home_shard(&self, id: SessionId) -> usize {
        self.config.home_shard(id)
    }

    /// Known sessions currently placed on `shard`, in ascending id order
    /// (deterministic victim enumeration for rebalance policies).
    pub fn sessions_on(&self, shard: usize) -> Vec<SessionId> {
        let mut ids: Vec<SessionId> = self
            .known
            .iter()
            .copied()
            .filter(|&id| self.shard_of(id) == shard)
            .collect();
        ids.sort_unstable();
        ids
    }

    /// Sessions currently placed away from their hash-home shard.
    pub fn placement_overrides(&self) -> usize {
        self.overrides.len()
    }

    /// Sessions moved by [`Self::migrate_session`] since construction.
    pub fn migrations(&self) -> u64 {
        self.migrations
    }

    /// Moves one session to another shard, online: exports it to its
    /// `CHAMFLT1` checkpoint on the current owner, records the new
    /// placement in the override table, and imports the blob cold on the
    /// target shard. The move is synchronous — when this returns the
    /// session is owned by exactly one shard — and observably identical
    /// to an [`SessionCommand::Evict`] at the same command boundary:
    /// observable state (stores, quarantine, counters, stream position)
    /// is preserved bit for bit, transient training state restarts
    /// exactly as the checkpoint format documents. Events of unrelated
    /// sessions arriving mid-move are buffered for the next
    /// [`Self::drain`] in arrival order.
    ///
    /// Returns `Ok(true)` when the session moved, `Ok(false)` when the
    /// move was skipped — already on `to`, or the export was declined
    /// (e.g. a cold read from a hostile disk failed) and the session
    /// safely stays where it was.
    ///
    /// # Errors
    ///
    /// [`FleetError::UnknownSession`] for an id never created,
    /// [`FleetError::ShardDown`] if a worker died mid-move.
    ///
    /// # Panics
    ///
    /// Panics if `to` is not a valid shard index, or on the engine
    /// invariant that a blob this engine just exported always re-imports.
    pub fn migrate_session(&mut self, id: SessionId, to: usize) -> Result<bool, FleetError> {
        assert!(
            to < self.config.num_shards,
            "migration target shard {to} out of range (num_shards {})",
            self.config.num_shards
        );
        if !self.known.contains(&id) {
            return Err(FleetError::UnknownSession);
        }
        let from = self.shard_of(id);
        if from == to {
            return Ok(false);
        }
        self.submit_blocking(id, SessionCommand::Export, MIGRATION_CORRELATION)?;
        let blob = match self.await_migration_event(id)? {
            SessionEventKind::Exported(blob) => blob,
            SessionEventKind::Failed(reason) => {
                // Export declined: the current owner still holds the
                // session, so skipping the move is safe.
                self.observer
                    .event(format!("migrate: session {id} export declined: {reason}"));
                return Ok(false);
            }
            other => panic!("export acknowledged with unexpected event {other:?}"),
        };
        if to == self.home_shard(id) {
            self.overrides.remove(&id);
        } else {
            self.overrides.insert(id, to);
        }
        self.submit_blocking(id, SessionCommand::Import(blob), MIGRATION_CORRELATION)?;
        match self.await_migration_event(id)? {
            SessionEventKind::Imported => {
                self.migrations += 1;
                self.observer
                    .event(format!("migrate: session {id} moved {from} -> {to}"));
                Ok(true)
            }
            other => panic!("re-import of a just-exported blob failed: {other:?}"),
        }
    }

    /// Waits for the migration-correlated event of `id`, buffering every
    /// unrelated event for the next [`Self::drain`] in arrival order.
    fn await_migration_event(&mut self, id: SessionId) -> Result<SessionEventKind, FleetError> {
        if let Backend::Sim(exec) = &mut self.backend {
            exec.run_until_idle();
        }
        loop {
            let received = match &self.backend {
                // Simulation ran every queued request above, so the event
                // is already in the channel.
                Backend::Sim(_) => self.events.try_recv().map_err(|_| ()),
                Backend::Threads(_) => self.events.recv().map_err(|_| ()),
            };
            let Ok(event) = received else {
                return Err(FleetError::ShardDown(self.shard_of(id)));
            };
            self.account(&event);
            if event.session == id && event.correlation == MIGRATION_CORRELATION {
                return Ok(event.kind);
            }
            self.buffered.push_back(event);
        }
    }

    /// Requests (once acknowledged by an event) not yet drained.
    pub fn pending(&self) -> usize {
        self.pending
    }

    /// Whether `id` is admitted on this engine or its admission is in
    /// flight. A refused admission releases the id when its `Failed` ack
    /// is drained, and an acknowledged `Export` when its blob is.
    pub fn known(&self, id: SessionId) -> bool {
        self.known.contains(&id)
    }

    /// Submits one session op with a caller-chosen correlation id, echoed
    /// on the one event that acknowledges it — the hook network frontends
    /// (`chameleon-serve`) use to match events to wire requests. Every
    /// way into a session enters here: an admission (`Create`, `Import`)
    /// needs an id not [`Self::known`], every other command a known one.
    ///
    /// # Errors
    ///
    /// [`FleetError::DuplicateSession`] for an admission of a known id,
    /// [`FleetError::UnknownSession`] for a command on an unknown one,
    /// [`FleetError::Rejected`] under backpressure,
    /// [`FleetError::ShardDown`] if the worker died.
    pub fn command_correlated(
        &mut self,
        id: SessionId,
        command: SessionCommand,
        correlation: u64,
    ) -> Result<(), FleetError> {
        let admission = matches!(
            command,
            SessionCommand::Create(_) | SessionCommand::Import(_)
        );
        match (admission, self.known.contains(&id)) {
            (true, true) => return Err(FleetError::DuplicateSession),
            (false, false) => return Err(FleetError::UnknownSession),
            _ => {}
        }
        self.dispatch(
            id,
            Request::Session {
                id,
                command,
                correlation,
            },
        )?;
        let owed = self.owed.entry(id).or_default();
        if admission {
            self.known.insert(id);
            owed.before_admission = Some(owed.acks);
        }
        owed.acks += 1;
        Ok(())
    }

    /// [`Self::command_correlated`] with correlation `0`, riding out
    /// backpressure by draining events (buffering them for the next
    /// [`Self::drain`]) and retrying.
    ///
    /// # Errors
    ///
    /// Propagates every failure except `Rejected`.
    pub fn command_blocking(
        &mut self,
        id: SessionId,
        command: SessionCommand,
    ) -> Result<(), FleetError> {
        self.submit_blocking(id, command, 0)
    }

    /// [`Self::command_blocking`] of a [`SessionCommand::Create`].
    ///
    /// # Errors
    ///
    /// Propagates every failure except `Rejected`.
    pub fn create_blocking(&mut self, id: SessionId, spec: SessionSpec) -> Result<(), FleetError> {
        self.submit_blocking(id, SessionCommand::Create(Box::new(spec)), 0)
    }

    /// The one retry loop: submits until the op is not `Rejected`.
    fn submit_blocking(
        &mut self,
        id: SessionId,
        command: SessionCommand,
        correlation: u64,
    ) -> Result<(), FleetError> {
        loop {
            match self.command_correlated(id, command.clone(), correlation) {
                Err(FleetError::Rejected(_)) => self.absorb_backpressure(),
                other => return other,
            }
        }
    }

    /// Pulls every event currently available without blocking. Buffered
    /// events from `_blocking` submits come first, in arrival order.
    ///
    /// Under simulation nothing runs until the engine is asked to, so
    /// "currently available" means *after executing all queued work* in
    /// scheduler order.
    pub fn drain(&mut self) -> Vec<SessionEvent> {
        if let Backend::Sim(exec) = &mut self.backend {
            exec.run_until_idle();
        }
        let mut out: Vec<SessionEvent> = self.buffered.drain(..).collect();
        while let Ok(event) = self.events.try_recv() {
            self.account(&event);
            out.push(event);
        }
        out
    }

    /// Blocks until every submitted request has been acknowledged, then
    /// returns all events (buffered first, then in arrival order).
    pub fn drain_pending(&mut self) -> Vec<SessionEvent> {
        let mut out = self.drain();
        if matches!(self.backend, Backend::Sim(_)) {
            // drain() already ran every queued request to completion and
            // each accepted request produced exactly one event.
            return out;
        }
        while self.pending > 0 {
            match self.events.recv() {
                Ok(event) => {
                    self.account(&event);
                    out.push(event);
                }
                Err(_) => break,
            }
        }
        out
    }

    /// Snapshots every shard's metrics (blocking round-trip per shard in
    /// threaded mode; direct reads under simulation).
    pub fn metrics(&mut self) -> FleetMetrics {
        let shards = match &mut self.backend {
            Backend::Sim(exec) => {
                return FleetMetrics {
                    per_shard: exec.metrics(),
                }
            }
            Backend::Threads(shards) => shards,
        };
        let mut per_shard = Vec::with_capacity(shards.len());
        for (index, shard) in shards.iter().enumerate() {
            let (reply_tx, reply_rx) = mpsc::channel();
            // A metrics request bypasses the bounded submit path: block
            // for space rather than reject, since it emits no event.
            if shard
                .sender
                .send(Request::Metrics { reply: reply_tx })
                .is_err()
            {
                continue;
            }
            let mut snapshot = match reply_rx.recv() {
                Ok(snapshot) => snapshot,
                Err(_) => continue,
            };
            snapshot.shard = index;
            snapshot.queue_depth = shard.in_flight.load(Ordering::Relaxed);
            per_shard.push(snapshot);
        }
        FleetMetrics { per_shard }
    }

    /// Stops all workers and joins their threads (runs queued work to
    /// completion under simulation). Called by `Drop`; explicit calls
    /// are idempotent.
    pub fn shutdown(&mut self) {
        match &mut self.backend {
            Backend::Sim(exec) => {
                exec.run_until_idle();
            }
            Backend::Threads(shards) => {
                for shard in shards.iter_mut() {
                    let _ = shard.sender.send(Request::Shutdown);
                }
                for shard in shards.iter_mut() {
                    if let Some(join) = shard.join.take() {
                        let _ = join.join();
                    }
                }
            }
        }
    }

    /// Runs `visit` on each threaded shard worker, on its own thread
    /// after the requests already queued there, and returns the results
    /// in shard order.
    #[cfg(test)]
    pub(crate) fn inspect<T: Send + 'static>(&self, visit: fn(&ShardWorker) -> T) -> Vec<T> {
        let Backend::Threads(shards) = &self.backend else {
            panic!("inspect reads threaded workers");
        };
        shards
            .iter()
            .map(|shard| {
                let (tx, rx) = mpsc::channel();
                let request = Request::Inspect(Box::new(move |worker| {
                    let _ = tx.send(visit(worker));
                }));
                shard.sender.send(request).expect("shard worker is up");
                rx.recv().expect("shard worker replied")
            })
            .collect()
    }

    fn dispatch(&mut self, id: SessionId, request: Request) -> Result<(), FleetError> {
        let shard = self.shard_of(id);
        match &mut self.backend {
            Backend::Sim(exec) => {
                exec.try_submit(shard, request)?;
                self.pending += 1;
                Ok(())
            }
            Backend::Threads(shards) => {
                let handle = &shards[shard];
                match handle.sender.try_send(request) {
                    Ok(()) => {
                        handle.in_flight.fetch_add(1, Ordering::Relaxed);
                        self.pending += 1;
                        Ok(())
                    }
                    Err(TrySendError::Full(_)) => Err(FleetError::Rejected(Backpressure {
                        shard,
                        queue_depth: self.config.queue_depth,
                    })),
                    Err(TrySendError::Disconnected(_)) => Err(FleetError::ShardDown(shard)),
                }
            }
        }
    }

    fn account(&mut self, event: &SessionEvent) {
        self.pending = self.pending.saturating_sub(1);
        let mut answers_admission = false;
        if let Some(owed) = self.owed.get_mut(&event.session) {
            answers_admission = owed.before_admission == Some(0);
            owed.before_admission = owed.before_admission.and_then(|n| n.checked_sub(1));
            owed.acks -= 1;
            if owed.acks == 0 {
                self.owed.remove(&event.session);
            }
        }
        // A successful export removes the session from this engine: the
        // blob carried on the event is now the only copy. A refused
        // admission never held the id. Either way the id may be admitted
        // again.
        let released = match event.kind {
            SessionEventKind::Exported(_) => true,
            SessionEventKind::Failed(_) => answers_admission,
            _ => false,
        };
        if released {
            self.known.remove(&event.session);
        }
        if let Backend::Threads(shards) = &mut self.backend {
            if let Some(shard) = shards.get(event.shard) {
                shard
                    .in_flight
                    .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |v| {
                        Some(v.saturating_sub(1))
                    })
                    .ok();
            }
        }
    }

    /// Under backpressure: make progress and buffer the resulting events
    /// so submit order is preserved for the caller's next `drain`. The
    /// threaded path waits for workers; the sim path *is* the worker, so
    /// it executes exactly one scheduler step (freeing one queue slot).
    fn absorb_backpressure(&mut self) {
        if let Backend::Sim(exec) = &mut self.backend {
            exec.step();
        }
        let mut drained = false;
        while let Ok(event) = self.events.try_recv() {
            self.account(&event);
            self.buffered.push_back(event);
            drained = true;
        }
        if !drained {
            if let Backend::Threads(_) = &self.backend {
                std::thread::sleep(std::time::Duration::from_micros(50));
            }
        }
    }
}

/// Acks one session is owed (see [`FleetEngine::account`]).
#[derive(Default)]
struct Owed {
    /// Requests sent and not yet acknowledged.
    acks: u32,
    /// While an admission is in flight: how many of `acks` come before
    /// its own.
    before_admission: Option<u32>,
}

impl Drop for FleetEngine {
    fn drop(&mut self) {
        self.shutdown();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use chameleon_core::ChameleonConfig;
    use chameleon_stream::{DatasetSpec, StreamConfig};
    use std::time::Duration;

    fn scenario() -> Arc<DomainIlScenario> {
        Arc::new(DomainIlScenario::generate(
            &DatasetSpec::core50_tiny(),
            0xDA7A,
        ))
    }

    fn spec(seed: u64) -> SessionSpec {
        SessionSpec {
            learner: ChameleonConfig {
                long_term_capacity: 30,
                ..ChameleonConfig::default()
            },
            stream: StreamConfig::default(),
            learner_seed: seed,
            stream_seed: seed,
        }
    }

    /// A hook that reports each of its calls on a channel.
    fn reporting_hook() -> (WakeHook, Receiver<()>) {
        let (tx, rx) = mpsc::channel();
        let hook: WakeHook = Arc::new(move || {
            let _ = tx.send(());
        });
        (hook, rx)
    }

    #[test]
    fn each_event_is_drainable_once_its_wake_has_run() {
        let (hook, wakes) = reporting_hook();
        let runtime = Runtime::Threads;
        let observer = FleetEngine::default_observer(&runtime);
        let mut fleet = FleetEngine::with_observer(
            scenario(),
            FleetConfig::default(),
            runtime,
            observer,
            Some(hook),
        );
        // Pipelined requests on both shards, so events and wakes from two
        // threads interleave; the bad import covers the `Failed` path.
        let ids = [1u64, 2, 3, 4];
        for &id in &ids {
            for command in [
                SessionCommand::Create(Box::new(spec(id))),
                SessionCommand::Step { batches: 2 },
                SessionCommand::Checkpoint,
                SessionCommand::Evict,
            ] {
                fleet.command_correlated(id, command, 0).expect("command");
            }
        }
        fleet
            .command_correlated(9, SessionCommand::Import(vec![0; 4]), 7)
            .expect("bad import is refused by the shard, not the engine");
        let events = fleet.pending();
        assert_eq!(events, 17);

        let mut drained = Vec::new();
        for woken in 1..=events {
            wakes
                .recv_timeout(Duration::from_secs(60))
                .expect("no wake for a submitted request");
            drained.extend(fleet.drain());
            assert!(
                drained.len() >= woken,
                "{woken} wakes ran but drain() returned {} events",
                drained.len()
            );
        }
        assert_eq!(drained.len(), events);
        assert!(drained
            .iter()
            .any(|e| e.correlation == 7 && matches!(e.kind, SessionEventKind::Failed(_))));
        // Joining the shards leaves nothing behind: one wake per event.
        drop(fleet);
        assert_eq!(wakes.try_iter().count(), 0, "a wake without an event");
    }

    #[test]
    fn a_simulated_engine_never_runs_the_hook() {
        let (hook, wakes) = reporting_hook();
        let runtime = Runtime::sim(3);
        let observer = FleetEngine::default_observer(&runtime);
        let mut fleet = FleetEngine::with_observer(
            scenario(),
            FleetConfig::default(),
            runtime,
            observer,
            Some(hook),
        );
        for id in 1..=3u64 {
            for command in [
                SessionCommand::Create(Box::new(spec(id))),
                SessionCommand::Step { batches: 2 },
            ] {
                fleet.command_correlated(id, command, 0).expect("submit");
            }
        }
        assert_eq!(fleet.drain_pending().len(), 6);
        drop(fleet);
        assert_eq!(wakes.try_iter().count(), 0);
    }
}
