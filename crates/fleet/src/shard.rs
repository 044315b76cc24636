//! A shard worker: owns a disjoint subset of the fleet's sessions and
//! processes requests from its bounded queue one at a time.
//!
//! Sessions a shard hosts are either **resident** (live [`UserSession`])
//! or **cold** (a [`SessionCheckpoint`]). Whenever the resident footprint
//! exceeds the shard's session-memory budget, the least-recently-used
//! resident session is evicted to checkpoint form; touching a cold session
//! restores it first. Budget-driven evictions are implicit — they show up
//! in [`ShardMetrics`] but emit no events; only an explicit
//! [`SessionCommand::Evict`] acknowledges with an event.

use std::collections::HashMap;
use std::sync::mpsc::{Receiver, Sender};
use std::sync::Arc;

use chameleon_core::{EvalReport, FrozenModel};
use chameleon_faults::FaultPlan;
use chameleon_obs::{Observer, Stage};
use chameleon_runtime::Clock;

use crate::checkpoint::SessionCheckpoint;
use crate::metrics::ShardMetrics;
use crate::session::{SessionId, SessionSpec, UserSession};

/// An operation on one session: its admission (`Create`, `Import`) or a
/// command on the admitted session. Every way into a session is one of
/// these, submitted through [`crate::FleetEngine::command_correlated`].
#[derive(Clone, Debug, PartialEq)]
pub enum SessionCommand {
    /// Admit a new session built from this spec; acknowledged by
    /// `Created`.
    Create(Box<SessionSpec>),
    /// Admit a handed-off session from its `CHAMFLT1` blob, cold, to be
    /// restored on first touch — the inverse of `Export`; acknowledged by
    /// `Imported`.
    Import(Vec<u8>),
    /// Deliver up to this many stream batches to the session's learner.
    Step {
        /// Maximum batches to deliver (fewer when the stream ends).
        batches: usize,
    },
    /// Evaluate the learner on the scenario's all-domain test set.
    Evaluate,
    /// Serialize the session to a portable checkpoint blob (the session
    /// stays in whatever residency state it was).
    Checkpoint,
    /// Force the session out of residency into checkpoint form.
    Evict,
    /// Serialize the session to its checkpoint blob and *forget* it —
    /// the handoff export: after this the session no longer lives on
    /// this engine, and exactly one node owns it at a time.
    Export,
}

/// What a shard did in response to one request. Every accepted
/// [`SessionCommand`] produces exactly one event.
#[derive(Clone, Debug, PartialEq)]
pub enum SessionEventKind {
    /// The session was created and is resident.
    Created,
    /// A `Step` command ran.
    Stepped {
        /// Batches actually delivered.
        delivered: usize,
        /// Whether the session's stream is now exhausted and finalized.
        done: bool,
    },
    /// An `Evaluate` command ran.
    Evaluated(Box<EvalReport>),
    /// A `Checkpoint` command ran; the serialized `CHAMFLT1` blob.
    Checkpointed(Vec<u8>),
    /// An explicit `Evict` command completed (idempotent when the session
    /// was already cold).
    Evicted,
    /// An `Export` command ran: the serialized `CHAMFLT1` blob, with the
    /// session removed from this engine.
    Exported(Vec<u8>),
    /// A handed-off session was imported from its checkpoint blob.
    Imported,
    /// The request could not be honored; human-readable reason.
    Failed(String),
}

/// A shard's response to one request, tagged with its origin.
#[derive(Clone, Debug, PartialEq)]
pub struct SessionEvent {
    /// Session the request addressed.
    pub session: SessionId,
    /// Shard that processed it.
    pub shard: usize,
    /// Correlation id the request was submitted with (0 for the blocking
    /// submits). Network frontends use this to match an event back to
    /// the wire request that caused it without relying on per-session
    /// ordering.
    pub correlation: u64,
    /// What happened.
    pub kind: SessionEventKind,
}

/// Called on a shard thread right after that shard sends an event, so a
/// caller blocked on something else learns that [`crate::FleetEngine::drain`]
/// has work.
pub type WakeHook = Arc<dyn Fn() + Send + Sync>;

/// A request on a shard's bounded queue.
pub(crate) enum Request {
    Session {
        id: SessionId,
        command: SessionCommand,
        correlation: u64,
    },
    Metrics {
        reply: Sender<ShardMetrics>,
    },
    /// Runs on the worker with read access to its state.
    #[cfg(test)]
    Inspect(Box<dyn FnOnce(&ShardWorker) + Send>),
    Shutdown,
}

struct Resident {
    session: UserSession,
    last_touch: u64,
    bytes: u64,
}

/// A non-resident session: either its checkpoint held in RAM (no durable
/// store attached, or the store write failed) or a marker for a blob whose
/// latest sealed record lives in the session store — the genuine spill
/// path, where eviction actually frees the checkpoint's memory.
enum Cold {
    Ram(Box<SessionCheckpoint>),
    Disk {
        /// Counters kept aside so metrics snapshots and trace merges do not
        /// need a disk read.
        counters: chameleon_core::LearnerCounters,
    },
}

/// A session pre-seeded into a shard's cold map by engine recovery.
pub(crate) type RecoveredSession = (SessionId, chameleon_core::LearnerCounters);

/// The state owned by one shard worker — on its own thread in
/// production, or driven request-by-request by the simulation executor.
pub(crate) struct ShardWorker {
    shard: usize,
    /// The engine's one frozen model: every session this worker creates
    /// or restores is built around it.
    frozen: Arc<FrozenModel>,
    faults: Option<FaultPlan>,
    budget_bytes: u64,
    resident: HashMap<SessionId, Resident>,
    cold: HashMap<SessionId, Cold>,
    resident_bytes: u64,
    lru_clock: u64,
    time: Arc<dyn Clock>,
    events: Sender<SessionEvent>,
    /// Set only on a threaded worker (see [`Self::run`]).
    wake: Option<WakeHook>,
    metrics: ShardMetrics,
    /// Fleet-wide span recorder + event log. Spans are fed the *same*
    /// elapsed nanos the `metrics.*_nanos` counters accumulate (no extra
    /// clock reads on the hot path), so per-stage span totals reconcile
    /// exactly with [`ShardMetrics`] and simulation digests stay put.
    obs: Arc<Observer>,
    /// Durable session store; when attached, evictions write through it
    /// and restores read through it.
    store: Option<chameleon_store::SharedStore>,
}

impl ShardWorker {
    pub(crate) fn new(
        shard: usize,
        frozen: Arc<FrozenModel>,
        faults: Option<FaultPlan>,
        budget_bytes: u64,
        time: Arc<dyn Clock>,
        events: Sender<SessionEvent>,
        obs: Arc<Observer>,
    ) -> Self {
        Self {
            shard,
            frozen,
            faults,
            budget_bytes,
            resident: HashMap::new(),
            cold: HashMap::new(),
            resident_bytes: 0,
            lru_clock: 0,
            time,
            events,
            wake: None,
            metrics: ShardMetrics {
                shard,
                budget_bytes,
                ..ShardMetrics::default()
            },
            obs,
            store: None,
        }
    }

    /// Attaches the durable store and pre-seeds recovered sessions as
    /// disk-cold. Called by the engine between worker construction and
    /// first request; recovered sessions restore lazily on first touch.
    pub(crate) fn attach_store(
        &mut self,
        store: chameleon_store::SharedStore,
        recovered: Vec<RecoveredSession>,
    ) {
        for (id, counters) in recovered {
            self.cold.insert(id, Cold::Disk { counters });
        }
        self.store = Some(store);
    }

    /// Reads a cold session's blob back from the attached store.
    fn fetch_cold_blob(&mut self, id: SessionId) -> Result<Vec<u8>, String> {
        let store = self
            .store
            .as_ref()
            .expect("disk-cold session without a store");
        match store.get(id) {
            Ok(Some(blob)) => Ok(blob),
            Ok(None) => Err(format!("store lost session {id}: no sealed record")),
            Err(e) => Err(format!("store read failed: {e}")),
        }
    }

    /// The `CHAMFLT1` blob of `id`, from whichever residency state it is
    /// in and without changing it: a resident session is captured (timed
    /// as a `checkpoint` span), a RAM-cold one re-serialized, and a
    /// disk-cold one served verbatim — the stored record *is* the
    /// `CHAMFLT1` envelope.
    fn session_blob(&mut self, id: SessionId) -> Result<Vec<u8>, String> {
        if let Some(resident) = self.resident.get(&id) {
            let start = self.time.now_nanos();
            let blob = SessionCheckpoint::capture(&resident.session).to_bytes();
            let elapsed = self.time.now_nanos().saturating_sub(start);
            self.metrics.checkpoint_nanos += elapsed;
            self.obs.record(Stage::Checkpoint, elapsed);
            return Ok(blob);
        }
        match self.cold.get(&id) {
            Some(Cold::Ram(checkpoint)) => Ok(checkpoint.to_bytes()),
            Some(Cold::Disk { .. }) => self.fetch_cold_blob(id),
            None => Err("session unknown to this shard".into()),
        }
    }

    /// Blocking request loop; returns when `Shutdown` arrives or every
    /// engine handle hung up. `wake`, when set, runs after every event
    /// this worker sends.
    pub(crate) fn run(mut self, requests: Receiver<Request>, wake: Option<WakeHook>) {
        self.wake = wake;
        while let Ok(request) = requests.recv() {
            if !self.process(request) {
                break;
            }
        }
    }

    /// Processes one request; returns `false` on `Shutdown`. This is the
    /// single entry point both execution modes share: the thread loop
    /// above and the simulation executor's seeded step function.
    pub(crate) fn process(&mut self, request: Request) -> bool {
        match request {
            Request::Session {
                id,
                command,
                correlation,
            } => self.handle_command(id, command, correlation),
            Request::Metrics { reply } => {
                let _ = reply.send(self.snapshot());
            }
            #[cfg(test)]
            Request::Inspect(visit) => visit(self),
            Request::Shutdown => return false,
        }
        true
    }

    fn emit(&self, session: SessionId, correlation: u64, kind: SessionEventKind) {
        // The engine may have dropped the receiver during teardown; events
        // are best-effort at that point.
        let _ = self.events.send(SessionEvent {
            session,
            shard: self.shard,
            correlation,
            kind,
        });
        // Only after the send: whoever the hook wakes finds the event
        // already in the channel.
        if let Some(wake) = &self.wake {
            wake();
        }
    }

    /// Runs one session op and emits the one event that acknowledges it.
    fn handle_command(&mut self, id: SessionId, command: SessionCommand, correlation: u64) {
        let outcome = match command {
            SessionCommand::Create(_) | SessionCommand::Import(_)
                if self.resident.contains_key(&id) || self.cold.contains_key(&id) =>
            {
                Err("session already exists".into())
            }
            SessionCommand::Create(spec) => self.create(id, *spec),
            SessionCommand::Import(blob) => self.import(id, &blob),
            SessionCommand::Step { batches } => self.touch(id).map(|()| {
                let start = self.time.now_nanos();
                let resident = self.resident.get_mut(&id).expect("touched");
                let delivered = resident.session.step_batches(batches);
                let done = resident.session.is_done();
                let elapsed = self.time.now_nanos().saturating_sub(start);
                self.metrics.step_nanos += elapsed;
                self.obs.record(Stage::Step, elapsed);
                self.metrics.step_commands += 1;
                self.metrics.batches += delivered as u64;
                self.refresh_footprint(id);
                SessionEventKind::Stepped { delivered, done }
            }),
            SessionCommand::Evaluate => self.touch(id).map(|()| {
                let start = self.time.now_nanos();
                let report = self.resident[&id].session.evaluate();
                let elapsed = self.time.now_nanos().saturating_sub(start);
                self.metrics.eval_nanos += elapsed;
                self.obs.record(Stage::Eval, elapsed);
                SessionEventKind::Evaluated(Box::new(report))
            }),
            SessionCommand::Checkpoint => self.session_blob(id).map(SessionEventKind::Checkpointed),
            SessionCommand::Evict => {
                if self.resident.contains_key(&id) {
                    self.evict(id);
                    Ok(SessionEventKind::Evicted)
                } else if self.cold.contains_key(&id) {
                    Ok(SessionEventKind::Evicted)
                } else {
                    Err("session unknown to this shard".into())
                }
            }
            // Capture, then forget the session entirely: after a
            // successful export the blob is the only copy, so exactly one
            // node can own the session. A stale record may remain in the
            // durable store; re-import (or router ownership) supersedes it.
            SessionCommand::Export => self.session_blob(id).map(|blob| {
                if let Some(resident) = self.resident.remove(&id) {
                    self.resident_bytes = self.resident_bytes.saturating_sub(resident.bytes);
                }
                self.cold.remove(&id);
                self.obs
                    .event(format!("shard {}: session {id} exported", self.shard));
                SessionEventKind::Exported(blob)
            }),
        };
        self.emit(
            id,
            correlation,
            outcome.unwrap_or_else(SessionEventKind::Failed),
        );
    }

    /// Builds and admits a new session, resident.
    fn create(&mut self, id: SessionId, spec: SessionSpec) -> Result<SessionEventKind, String> {
        spec.check()?;
        let session = UserSession::create(id, spec, Arc::clone(&self.frozen), self.faults.as_ref());
        self.admit(id, session);
        self.metrics.sessions_created += 1;
        self.enforce_budget(id);
        Ok(SessionEventKind::Created)
    }

    /// Imports a handed-off session from its `CHAMFLT1` blob: the inverse
    /// of `Export`. The checkpoint is parsed and admitted cold (RAM), so
    /// the learner rebuild cost lands on first touch, exactly like an
    /// eviction restore — bit-identical learning outcomes included.
    fn import(&mut self, id: SessionId, blob: &[u8]) -> Result<SessionEventKind, String> {
        let checkpoint = SessionCheckpoint::from_bytes(blob)
            .map_err(|e| format!("handoff blob rejected: {e:?}"))?;
        if checkpoint.session != id {
            return Err(format!(
                "handoff blob names session {}, not {id}",
                checkpoint.session
            ));
        }
        checkpoint
            .check(self.frozen.scenario())
            .map_err(|e| format!("handoff blob rejected: {e}"))?;
        self.cold.insert(id, Cold::Ram(Box::new(checkpoint)));
        self.metrics.sessions_created += 1;
        self.obs
            .event(format!("shard {}: session {id} imported", self.shard));
        Ok(SessionEventKind::Imported)
    }

    /// Makes `id` resident (restoring from cold if needed), bumps its LRU
    /// stamp, and re-enforces the budget with `id` protected.
    fn touch(&mut self, id: SessionId) -> Result<(), String> {
        if let Some(resident) = self.resident.get_mut(&id) {
            self.lru_clock += 1;
            resident.last_touch = self.lru_clock;
            return Ok(());
        }
        let Some(cold) = self.cold.remove(&id) else {
            return Err("session unknown to this shard".into());
        };
        // Resolve the checkpoint; a disk-cold session reads through the
        // store first. On any failure the cold entry is put back so the
        // session is not silently lost.
        let checkpoint = match cold {
            Cold::Ram(checkpoint) => checkpoint,
            Cold::Disk { counters } => {
                let loaded = self.fetch_cold_blob(id).and_then(|blob| {
                    SessionCheckpoint::from_bytes(&blob)
                        .map_err(|e| format!("stored checkpoint rejected: {e:?}"))
                });
                match loaded {
                    Ok(checkpoint) => Box::new(checkpoint),
                    Err(reason) => {
                        self.cold.insert(id, Cold::Disk { counters });
                        self.obs.event(format!(
                            "shard {}: session {id} restore failed: {reason}",
                            self.shard
                        ));
                        return Err(format!("restore failed: {reason}"));
                    }
                }
            }
        };
        let start = self.time.now_nanos();
        let restored = checkpoint.restore_with(Arc::clone(&self.frozen), self.faults.as_ref());
        let elapsed = self.time.now_nanos().saturating_sub(start);
        self.metrics.restore_nanos += elapsed;
        self.obs.record(Stage::Restore, elapsed);
        match restored {
            Ok(session) => {
                self.metrics.restores += 1;
                self.obs
                    .event(format!("shard {}: session {id} restored", self.shard));
                self.admit(id, session);
                self.enforce_budget(id);
                Ok(())
            }
            Err(e) => {
                // Put the blob back so the session is not silently lost.
                self.cold.insert(id, Cold::Ram(checkpoint));
                self.obs.event(format!(
                    "shard {}: session {id} restore failed: {e:?}",
                    self.shard
                ));
                Err(format!("restore failed: {e:?}"))
            }
        }
    }

    /// Admits a session as resident, pricing its footprint from the
    /// session *as admitted* — never from a figure remembered across an
    /// evict/restore cycle, which would let the shard-wide accounting
    /// drift from the real footprint.
    fn admit(&mut self, id: SessionId, session: UserSession) {
        self.lru_clock += 1;
        let bytes = session.resident_bytes();
        self.resident_bytes += bytes;
        self.resident.insert(
            id,
            Resident {
                session,
                last_touch: self.lru_clock,
                bytes,
            },
        );
    }

    /// Re-prices a resident session after it ran, folding any footprint
    /// change into the shard-wide accounting. Keeps `Resident::bytes`
    /// equal to what `session.resident_bytes()` reports *now*, so the
    /// figure subtracted at eviction/export time is always the figure
    /// that was added — the invariant
    /// `resident_bytes == Σ resident sessions' resident_bytes()` holds
    /// through arbitrary create/step/evict/restore/export/import churn.
    fn refresh_footprint(&mut self, id: SessionId) {
        if let Some(resident) = self.resident.get_mut(&id) {
            let bytes = resident.session.resident_bytes();
            self.resident_bytes = self
                .resident_bytes
                .saturating_sub(resident.bytes)
                .saturating_add(bytes);
            resident.bytes = bytes;
        }
    }

    /// Evicts least-recently-used residents (never `protect`, never the
    /// last one) until the footprint fits the budget.
    fn enforce_budget(&mut self, protect: SessionId) {
        while self.resident_bytes > self.budget_bytes && self.resident.len() > 1 {
            let victim = self
                .resident
                .iter()
                .filter(|(id, _)| **id != protect)
                .min_by_key(|(_, r)| r.last_touch)
                .map(|(id, _)| *id);
            match victim {
                Some(id) => self.evict(id),
                None => break,
            }
        }
    }

    fn evict(&mut self, id: SessionId) {
        let resident = self.resident.remove(&id).expect("evict target resident");
        self.resident_bytes = self.resident_bytes.saturating_sub(resident.bytes);
        let start = self.time.now_nanos();
        let checkpoint = SessionCheckpoint::capture(&resident.session);
        let elapsed = self.time.now_nanos().saturating_sub(start);
        self.metrics.checkpoint_nanos += elapsed;
        self.obs.record(Stage::Checkpoint, elapsed);
        self.metrics.evictions += 1;
        self.obs
            .event(format!("shard {}: session {id} evicted", self.shard));
        let cold = match &self.store {
            Some(store) => {
                // Write-ahead discipline: append seals + fsyncs before it
                // returns; only an acknowledged write lets the RAM copy go.
                match store.append(id, &checkpoint.to_bytes()) {
                    Ok(_) => Cold::Disk {
                        counters: checkpoint.counters,
                    },
                    Err(e) => {
                        self.obs.event(format!(
                            "shard {}: session {id} spill failed, kept in RAM: {e}",
                            self.shard
                        ));
                        Cold::Ram(Box::new(checkpoint))
                    }
                }
            }
            None => Cold::Ram(Box::new(checkpoint)),
        };
        self.cold.insert(id, cold);
    }

    pub(crate) fn snapshot(&self) -> ShardMetrics {
        let mut m = self.metrics.clone();
        m.sessions_resident = self.resident.len();
        m.sessions_cold = self.cold.len();
        m.resident_bytes = self.resident_bytes;
        m.codec_bytes_saved = self
            .resident
            .values()
            .map(|r| r.session.codec_bytes_saved())
            .sum();
        m.trace = chameleon_core::StepTrace::new();
        for resident in self.resident.values() {
            m.trace.merge(&resident.session.trace());
        }
        for cold in self.cold.values() {
            match cold {
                Cold::Ram(checkpoint) => m.trace.merge(&checkpoint.counters.trace),
                Cold::Disk { counters } => m.trace.merge(&counters.trace),
            }
        }
        m
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use chameleon_core::ChameleonConfig;
    use chameleon_stream::{DatasetSpec, DomainIlScenario, StreamConfig};
    use std::sync::mpsc;

    fn tiny_worker(budget_bytes: u64) -> (ShardWorker, Receiver<SessionEvent>) {
        let frozen = Arc::new(FrozenModel::new(Arc::new(DomainIlScenario::generate(
            &DatasetSpec::core50_tiny(),
            0xDA7A,
        ))));
        let (tx, rx) = mpsc::channel();
        let clock = chameleon_runtime::WallClock::shared();
        let obs = Arc::new(Observer::new(Arc::clone(&clock)));
        (
            ShardWorker::new(0, frozen, None, budget_bytes, clock, tx, obs),
            rx,
        )
    }

    fn tiny_spec(stream_seed: u64) -> SessionSpec {
        SessionSpec {
            learner: ChameleonConfig {
                long_term_capacity: 30,
                ..ChameleonConfig::default()
            },
            stream: StreamConfig::default(),
            learner_seed: 5,
            stream_seed,
        }
    }

    impl ShardWorker {
        fn handle_create(&mut self, id: SessionId, spec: SessionSpec, correlation: u64) {
            self.handle_command(id, SessionCommand::Create(Box::new(spec)), correlation);
        }

        fn handle_import(&mut self, id: SessionId, blob: &[u8], correlation: u64) {
            self.handle_command(id, SessionCommand::Import(blob.to_vec()), correlation);
        }
    }

    #[test]
    fn lru_eviction_kicks_in_over_budget() {
        // Budget fits roughly one session, so the second create evicts the
        // first, and stepping the first swaps residency back.
        let (mut worker, rx) = tiny_worker(1);
        worker.handle_create(1, tiny_spec(1), 0);
        worker.handle_create(2, tiny_spec(2), 0);
        assert_eq!(worker.resident.len(), 1);
        assert_eq!(worker.cold.len(), 1);
        assert!(worker.cold.contains_key(&1));
        assert_eq!(worker.metrics.evictions, 1);

        worker.handle_command(1, SessionCommand::Step { batches: 4 }, 0);
        assert!(worker.resident.contains_key(&1));
        assert!(worker.cold.contains_key(&2));
        assert_eq!(worker.metrics.restores, 1);
        assert_eq!(worker.metrics.evictions, 2);

        let kinds: Vec<_> = rx.try_iter().map(|e| e.kind).collect();
        assert_eq!(
            kinds,
            vec![
                SessionEventKind::Created,
                SessionEventKind::Created,
                SessionEventKind::Stepped {
                    delivered: 4,
                    done: false
                },
            ],
            "implicit evictions must not emit events"
        );
    }

    #[test]
    fn eviction_roundtrip_preserves_progress() {
        let (mut worker, rx) = tiny_worker(u64::MAX);
        worker.handle_create(7, tiny_spec(7), 0);
        worker.handle_command(7, SessionCommand::Step { batches: 17 }, 0);
        let before = worker.resident[&7].session.trace();
        worker.handle_command(7, SessionCommand::Evict, 0);
        assert!(worker.cold.contains_key(&7));
        worker.handle_command(7, SessionCommand::Step { batches: 0 }, 0);
        let after = worker.resident[&7].session.trace();
        assert_eq!(before, after);
        assert_eq!(worker.resident[&7].session.batches_into_domain(), 5);
        let last = rx.try_iter().last().expect("events");
        assert_eq!(
            last.kind,
            SessionEventKind::Stepped {
                delivered: 0,
                done: false
            }
        );
    }

    #[test]
    fn unknown_and_duplicate_sessions_fail_with_events() {
        let (mut worker, rx) = tiny_worker(u64::MAX);
        worker.handle_command(9, SessionCommand::Evaluate, 0);
        worker.handle_create(3, tiny_spec(3), 0);
        worker.handle_create(3, tiny_spec(3), 0);
        let kinds: Vec<_> = rx.try_iter().map(|e| e.kind).collect();
        assert!(matches!(kinds[0], SessionEventKind::Failed(_)));
        assert_eq!(kinds[1], SessionEventKind::Created);
        assert!(matches!(kinds[2], SessionEventKind::Failed(_)));
    }

    #[test]
    fn checkpoint_command_serves_cold_sessions_without_restoring() {
        let (mut worker, rx) = tiny_worker(u64::MAX);
        worker.handle_create(5, tiny_spec(5), 0);
        worker.handle_command(5, SessionCommand::Step { batches: 6 }, 0);
        worker.handle_command(5, SessionCommand::Evict, 0);
        worker.handle_command(5, SessionCommand::Checkpoint, 0);
        assert_eq!(worker.metrics.restores, 0);
        let blob = match rx.try_iter().last().expect("events").kind {
            SessionEventKind::Checkpointed(blob) => blob,
            other => panic!("expected checkpoint, got {other:?}"),
        };
        let ck = SessionCheckpoint::from_bytes(&blob).expect("valid blob");
        assert_eq!(ck.session, 5);
        assert_eq!(ck.batches_into_domain, 6);
    }

    #[test]
    fn export_forgets_the_session_and_import_restores_it_bit_identically() {
        let (mut worker, rx) = tiny_worker(u64::MAX);
        worker.handle_create(4, tiny_spec(4), 0);
        worker.handle_command(4, SessionCommand::Step { batches: 9 }, 0);
        worker.handle_command(4, SessionCommand::Export, 0);
        assert!(worker.resident.is_empty());
        assert!(worker.cold.is_empty());
        let blob = match rx.try_iter().last().expect("events").kind {
            SessionEventKind::Exported(blob) => blob,
            other => panic!("expected export, got {other:?}"),
        };
        // Stepping the exported session now fails: nobody owns it here.
        worker.handle_command(4, SessionCommand::Step { batches: 1 }, 0);
        assert!(matches!(
            rx.try_iter().last().expect("events").kind,
            SessionEventKind::Failed(_)
        ));
        // Import on the same worker (stands in for the new owner).
        worker.handle_import(4, &blob, 0);
        assert_eq!(
            rx.try_iter().last().expect("events").kind,
            SessionEventKind::Imported
        );
        worker.handle_command(4, SessionCommand::Checkpoint, 0);
        let back = match rx.try_iter().last().expect("events").kind {
            SessionEventKind::Checkpointed(blob) => blob,
            other => panic!("expected checkpoint, got {other:?}"),
        };
        assert_eq!(back, blob, "import must preserve the exact bytes");
    }

    #[test]
    fn import_rejects_duplicates_and_corrupt_or_mismatched_blobs() {
        let (mut worker, rx) = tiny_worker(u64::MAX);
        worker.handle_create(6, tiny_spec(6), 0);
        worker.handle_command(6, SessionCommand::Export, 0);
        let blob = match rx.try_iter().last().expect("events").kind {
            SessionEventKind::Exported(blob) => blob,
            other => panic!("expected export, got {other:?}"),
        };
        // Blob id and target id must agree.
        worker.handle_import(7, &blob, 0);
        assert!(matches!(
            rx.try_iter().last().expect("events").kind,
            SessionEventKind::Failed(_)
        ));
        // Corruption is rejected.
        let mut bad = blob.clone();
        bad[10] ^= 0x40;
        worker.handle_import(6, &bad, 0);
        assert!(matches!(
            rx.try_iter().last().expect("events").kind,
            SessionEventKind::Failed(_)
        ));
        // Clean import succeeds once, then duplicates are refused.
        worker.handle_import(6, &blob, 0);
        assert_eq!(
            rx.try_iter().last().expect("events").kind,
            SessionEventKind::Imported
        );
        worker.handle_import(6, &blob, 0);
        assert!(matches!(
            rx.try_iter().last().expect("events").kind,
            SessionEventKind::Failed(_)
        ));
    }

    #[test]
    fn resident_bytes_accounting_never_drifts_across_churn() {
        // Regression: the shard-wide footprint must always equal the sum
        // of what the resident sessions report *right now* — never a
        // figure remembered from before an evict/restore or export/import
        // cycle. Drive every residency transition and check the invariant
        // after each one.
        fn assert_reconciled(worker: &ShardWorker, at: &str) {
            let expected: u64 = worker
                .resident
                .values()
                .map(|r| r.session.resident_bytes())
                .sum();
            assert_eq!(
                worker.resident_bytes, expected,
                "resident_bytes drifted after {at}"
            );
            assert_eq!(worker.snapshot().resident_bytes, expected);
        }

        let (mut worker, rx) = tiny_worker(u64::MAX);
        for id in 0..4u64 {
            worker.handle_create(id, tiny_spec(id), 0);
            assert_reconciled(&worker, "create");
        }
        for id in 0..4u64 {
            worker.handle_command(id, SessionCommand::Step { batches: 5 }, 0);
            assert_reconciled(&worker, "step");
        }
        worker.handle_command(1, SessionCommand::Evict, 0);
        assert_reconciled(&worker, "evict");
        // Restore-after-evict is the cycle the figure must survive.
        worker.handle_command(1, SessionCommand::Step { batches: 3 }, 0);
        assert_reconciled(&worker, "restore");
        worker.handle_command(2, SessionCommand::Export, 0);
        assert_reconciled(&worker, "export of a resident session");
        let blob = match rx.try_iter().last().expect("events").kind {
            SessionEventKind::Exported(blob) => blob,
            other => panic!("expected export, got {other:?}"),
        };
        worker.handle_import(2, &blob, 0);
        assert_reconciled(&worker, "import (admitted cold)");
        worker.handle_command(2, SessionCommand::Step { batches: 2 }, 0);
        assert_reconciled(&worker, "first touch after import");
        // Export straight out of cold must not disturb the resident sum.
        worker.handle_command(3, SessionCommand::Evict, 0);
        worker.handle_command(3, SessionCommand::Export, 0);
        assert_reconciled(&worker, "export of a cold session");
    }

    #[test]
    fn eviction_under_budget_pressure_reconciles_accounting() {
        // Same invariant under a budget tight enough that every create
        // and restore triggers implicit LRU eviction churn.
        let (mut worker, _rx) = tiny_worker(1);
        for id in 0..3u64 {
            worker.handle_create(id, tiny_spec(id), 0);
        }
        for round in 0..3 {
            for id in 0..3u64 {
                worker.handle_command(id, SessionCommand::Step { batches: 2 }, 0);
                let expected: u64 = worker
                    .resident
                    .values()
                    .map(|r| r.session.resident_bytes())
                    .sum();
                assert_eq!(
                    worker.resident_bytes, expected,
                    "drift at round {round} session {id}"
                );
            }
        }
        assert!(worker.metrics.evictions > 0, "budget pressure must churn");
    }

    #[test]
    fn quantized_sessions_reprice_and_reconcile_accounting() {
        use chameleon_core::Precision;
        // Satellite invariant for the latent codec: int8 sessions must
        // reprice resident_bytes (half the nominal footprint), the shard
        // gauge must reconcile through evict/restore/export/import churn
        // with mixed precisions, and codec_bytes_saved must account the
        // exact delta versus nominal pricing.
        fn spec_at(stream_seed: u64, precision: Precision) -> SessionSpec {
            SessionSpec {
                learner: ChameleonConfig {
                    long_term_capacity: 30,
                    precision,
                    ..ChameleonConfig::default()
                },
                stream: StreamConfig::default(),
                learner_seed: 5,
                stream_seed,
            }
        }
        fn assert_reconciled(worker: &ShardWorker, at: &str) {
            let expected: u64 = worker
                .resident
                .values()
                .map(|r| r.session.resident_bytes())
                .sum();
            assert_eq!(
                worker.resident_bytes, expected,
                "resident_bytes drifted after {at}"
            );
            let saved: u64 = worker
                .resident
                .values()
                .map(|r| r.session.codec_bytes_saved())
                .sum();
            assert_eq!(worker.snapshot().codec_bytes_saved, saved);
        }

        let (mut worker, rx) = tiny_worker(u64::MAX);
        let precisions = [Precision::Int8, Precision::F32, Precision::Int8];
        for (id, &p) in precisions.iter().enumerate() {
            worker.handle_create(id as u64, spec_at(id as u64, p), 0);
            assert_reconciled(&worker, "create");
        }
        // An int8 session must be priced strictly below its f32 twin, and
        // its savings gauge must equal the difference exactly.
        let int8 = &worker.resident[&0].session;
        let f32s = &worker.resident[&1].session;
        assert!(int8.resident_bytes() * 2 <= f32s.resident_bytes() + 1024 * 1024);
        assert!(int8.resident_bytes() < f32s.resident_bytes());
        assert_eq!(
            int8.codec_bytes_saved(),
            f32s.resident_bytes() - int8.resident_bytes()
        );
        assert_eq!(f32s.codec_bytes_saved(), 0);

        for id in 0..3u64 {
            worker.handle_command(id, SessionCommand::Step { batches: 5 }, 0);
            assert_reconciled(&worker, "step");
        }
        worker.handle_command(0, SessionCommand::Evict, 0);
        assert_reconciled(&worker, "evict of an int8 session");
        worker.handle_command(0, SessionCommand::Step { batches: 3 }, 0);
        assert_reconciled(&worker, "restore of an int8 session");
        worker.handle_command(0, SessionCommand::Export, 0);
        let blob = match rx.try_iter().last().expect("events").kind {
            SessionEventKind::Exported(blob) => blob,
            other => panic!("expected export, got {other:?}"),
        };
        assert_eq!(&blob[..8], crate::FLEET_MAGIC_V2);
        worker.handle_import(0, &blob, 0);
        assert_reconciled(&worker, "import of an int8 session");
        worker.handle_command(0, SessionCommand::Step { batches: 2 }, 0);
        assert_reconciled(&worker, "first touch after import");
    }

    /// The worker's frozen model, and each resident session with whether
    /// the session and its learner are built around that model.
    fn frozen_sharing(worker: &ShardWorker) -> (Arc<FrozenModel>, Vec<(SessionId, bool)>) {
        let sessions = worker
            .resident
            .iter()
            .map(|(&id, r)| {
                let shares = Arc::ptr_eq(r.session.frozen(), &worker.frozen)
                    && Arc::ptr_eq(r.session.learner().extractor(), worker.frozen.extractor());
                (id, shares)
            })
            .collect();
        (Arc::clone(&worker.frozen), sessions)
    }

    #[test]
    fn every_resident_learner_shares_the_engines_one_frozen_model() {
        use crate::{FleetConfig, FleetEngine};
        use chameleon_runtime::Runtime;
        use chameleon_store::{SharedStore, StoreConfig};

        /// Runs one command to completion and returns its event.
        fn run(
            fleet: &mut FleetEngine,
            id: SessionId,
            command: SessionCommand,
        ) -> SessionEventKind {
            fleet.command_blocking(id, command).expect("submit");
            let event = fleet.drain_pending().pop().expect("one event");
            assert!(
                !matches!(event.kind, SessionEventKind::Failed(_)),
                "{event:?}"
            );
            event.kind
        }
        /// Asserts both shards and every resident session share one
        /// frozen model; returns it with the residents per shard.
        fn one_frozen(fleet: &FleetEngine, at: &str) -> (Arc<FrozenModel>, Vec<Vec<SessionId>>) {
            let shards = fleet.inspect(frozen_sharing);
            let frozen = Arc::clone(&shards[0].0);
            let mut residents = Vec::new();
            for (shard, (theirs, sessions)) in shards.into_iter().enumerate() {
                assert!(
                    Arc::ptr_eq(&theirs, &frozen),
                    "shard {shard}'s own model after {at}"
                );
                for &(id, shares) in &sessions {
                    assert!(
                        shares,
                        "session {id} on shard {shard} has its own f_θ after {at}"
                    );
                }
                assert_eq!(sessions.len(), 1, "budget holds one resident per shard");
                residents.push(sessions.into_iter().map(|(id, _)| id).collect());
            }
            (frozen, residents)
        }

        let dir =
            std::env::temp_dir().join(format!("chameleon-fleet-one-frozen-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let store = SharedStore::open(StoreConfig::new(&dir)).expect("open store");
        let scenario = Arc::new(DomainIlScenario::generate(
            &DatasetSpec::core50_tiny(),
            0xDA7A,
        ));
        // A one-byte budget keeps one resident per shard, so every create
        // and every restore evicts that shard's other session.
        let config = FleetConfig {
            num_shards: 2,
            budget_bytes: 1,
            ..FleetConfig::default()
        };
        let mut fleet = FleetEngine::with_store(scenario, config, Runtime::Threads, store.clone());
        let mut restores = 0;
        let mut restored = |fleet: &mut FleetEngine, at: &str| {
            restores += 1;
            let metrics = fleet.metrics();
            let total: u64 = metrics.per_shard.iter().map(|m| m.restores).sum();
            assert_eq!(total, restores, "no restore at {at}");
        };

        for id in 1..=6u64 {
            fleet.create_blocking(id, tiny_spec(id)).expect("create");
        }
        assert!(fleet
            .drain_pending()
            .iter()
            .all(|e| e.kind == SessionEventKind::Created));
        let (frozen, _) = one_frozen(&fleet, "create");
        assert!(
            frozen.cached_test_latents().is_none(),
            "computed before any evaluation"
        );

        // Session 1 was evicted to the store by a later create.
        run(&mut fleet, 1, SessionCommand::Evaluate);
        restored(&mut fleet, "disk-cold evaluate");
        one_frozen(&fleet, "a disk-cold restore");
        let latents = frozen
            .cached_test_latents()
            .expect("computed by the evaluation");

        let SessionEventKind::Exported(blob) = run(&mut fleet, 2, SessionCommand::Export) else {
            panic!("export");
        };
        fleet
            .command_blocking(2, SessionCommand::Import(blob))
            .expect("import");
        assert_eq!(
            fleet.drain_pending().pop().map(|e| e.kind),
            Some(SessionEventKind::Imported)
        );
        run(&mut fleet, 2, SessionCommand::Evaluate);
        restored(&mut fleet, "imported evaluate");
        one_frozen(&fleet, "an import");

        let to = 1 - fleet.shard_of(3);
        assert_eq!(fleet.migrate_session(3, to), Ok(true));
        run(&mut fleet, 3, SessionCommand::Step { batches: 2 });
        restored(&mut fleet, "migrated step");
        let (_, residents) = one_frozen(&fleet, "a migration");

        // With the store down, a budget eviction keeps the checkpoint in
        // RAM: create a session beside shard 0's resident, then touch it.
        store.simulate_crash().expect("crash the store");
        let victim = residents[0][0];
        let newcomer = (100u64..)
            .find(|&id| fleet.shard_of(id) == 0)
            .expect("some id lands on shard 0");
        fleet
            .create_blocking(newcomer, tiny_spec(newcomer))
            .expect("create");
        fleet.drain_pending();
        run(&mut fleet, victim, SessionCommand::Evaluate);
        restored(&mut fleet, "RAM-cold evaluate");
        let (_, residents) = one_frozen(&fleet, "a RAM-cold restore");
        assert_eq!(residents[0], vec![victim]);
        let events = fleet.observer().snapshot_events().recent;
        let spilled = format!("session {victim} spill failed, kept in RAM");
        assert!(
            events.iter().any(|e| e.message.contains(&spilled)),
            "{events:?}"
        );

        // Every evaluation above ran the head over one set of latents.
        assert!(std::ptr::eq(
            frozen.cached_test_latents().expect("kept"),
            latents
        ));
        drop(fleet);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn snapshot_merges_resident_and_cold_traces() {
        let (mut worker, _rx) = tiny_worker(u64::MAX);
        worker.handle_create(1, tiny_spec(1), 0);
        worker.handle_create(2, tiny_spec(2), 0);
        worker.handle_command(1, SessionCommand::Step { batches: 3 }, 0);
        worker.handle_command(2, SessionCommand::Step { batches: 2 }, 0);
        worker.handle_command(2, SessionCommand::Evict, 0);
        let snap = worker.snapshot();
        assert_eq!(snap.sessions_resident, 1);
        assert_eq!(snap.sessions_cold, 1);
        assert_eq!(snap.batches, 5);
        // Default batch size is 10 inputs per batch.
        assert_eq!(snap.trace.inputs, 50);
    }
}
