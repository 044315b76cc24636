//! The CHAMWIRE server: the shared front end ([`crate::front`]) in
//! front of one engine thread that owns the [`FleetEngine`].
//!
//! The **engine thread** is the only holder of the `FleetEngine`. It
//! blocks on one mpsc inbox that carries the requests the front's
//! dispatch callback posts, shard wake-ups and a stop message. It submits
//! each request with a monotonically increasing correlation id; a shard
//! that has sent an event wakes it, and it matches the fleet's
//! acknowledgement events back to the waiting reply handle. Fleet
//! backpressure ([`chameleon_fleet::FleetError::Rejected`]) is answered
//! with a wire-level [`Response::RetryAfter`] instead of blocking, so one
//! saturated shard never stalls the serving layer.
//!
//! Shutdown is graceful and ordered: the front stops accepting and joins
//! its workers (each finishes its in-flight requests), and then the
//! engine thread is sent its stop. It drains every outstanding fleet
//! acknowledgement before dropping the engine (which joins the shard
//! threads).

use std::collections::HashMap;
use std::io::ErrorKind;
use std::net::SocketAddr;
use std::sync::mpsc::{self, Receiver};
use std::sync::Arc;
use std::thread::JoinHandle;

use chameleon_balance::{BalanceConfig, Balancer};
use chameleon_fleet::{
    FleetConfig, FleetEngine, FleetError, SessionCommand, SessionEventKind, WakeHook,
};
use chameleon_obs::{Observation, Observer};
use chameleon_runtime::{Clock, Runtime, WallClock};
use chameleon_stream::{ConfigError, DomainIlScenario};

use crate::front::{Dispatch, Front, Reply, RETRY_AFTER_MILLIS};
use crate::metrics::{ServeCounters, ServeMetrics};
use crate::wire::{ErrorCode, PredictSummary, Request, Response};

/// Tunables of the serving layer (the fleet itself is shaped separately
/// by [`FleetConfig`]).
#[derive(Clone, Debug, PartialEq)]
pub struct ServeConfig {
    /// Address to bind, e.g. `"127.0.0.1:0"` (port 0 picks a free port;
    /// read it back from [`Server::local_addr`]).
    pub addr: String,
    /// Connection-worker pool size — the number of sockets served
    /// concurrently. The acceptor's hand-off queue has the same bound.
    pub workers: usize,
    /// When set, evicted sessions are spilled to a durable
    /// [`chameleon_store::SessionStore`] in this directory, and startup
    /// recovers every session sealed there back to its last checkpoint.
    pub store_dir: Option<std::path::PathBuf>,
    /// When set, the engine thread runs a [`chameleon_balance::Balancer`]
    /// with this policy, migrating sessions between shards online as load
    /// skews. `None` keeps placement purely hash-static.
    pub balance: Option<BalanceConfig>,
}

impl Default for ServeConfig {
    fn default() -> Self {
        Self {
            addr: "127.0.0.1:0".to_string(),
            workers: 4,
            store_dir: None,
            balance: None,
        }
    }
}

impl ServeConfig {
    /// Checks structural validity.
    ///
    /// # Errors
    ///
    /// Returns the first violated requirement.
    pub fn validate(&self) -> Result<(), ConfigError> {
        if self.workers == 0 {
            return Err(ConfigError {
                field: "worker count",
                requirement: "must be positive",
            });
        }
        Ok(())
    }
}

/// What the engine thread blocks on.
enum EngineMsg {
    /// A decoded request from the front, with the handle its reply goes
    /// out through.
    Op(Request, Reply),
    /// A shard has sent a fleet event.
    Wake,
    /// Sent by [`Server::shutdown`] once every connection worker has
    /// joined.
    Stop,
}

/// A running CHAMWIRE server in front of a [`FleetEngine`].
///
/// Dropping the server shuts it down gracefully (see module docs);
/// [`Server::shutdown`] does the same explicitly and is idempotent.
pub struct Server {
    front: Front,
    observer: Arc<Observer>,
    engine: Option<JoinHandle<()>>,
    engine_inbox: mpsc::Sender<EngineMsg>,
}

impl Server {
    /// Builds (or, with a store dir, recovers) the fleet, starts the
    /// front and the engine thread, and begins serving.
    ///
    /// # Errors
    ///
    /// Returns an [`std::io::Error`] if either config fails validation
    /// (`InvalidInput`), the store cannot be opened, or the listener
    /// cannot bind.
    pub fn start(
        scenario: Arc<DomainIlScenario>,
        fleet_config: FleetConfig,
        config: ServeConfig,
    ) -> std::io::Result<Self> {
        Self::start_with_clock(scenario, fleet_config, config, WallClock::shared())
    }

    /// [`Self::start`] with an injected [`Clock`]. Production callers
    /// pass a [`WallClock`]; simulation tests pass a
    /// [`chameleon_runtime::VirtualClock`] so time-dependent behavior —
    /// the idle reaper, request latency accounting — is driven by
    /// explicit `advance` calls instead of wall-clock sleeps.
    ///
    /// # Errors
    ///
    /// Same contract as [`Self::start`].
    pub fn start_with_clock(
        scenario: Arc<DomainIlScenario>,
        fleet_config: FleetConfig,
        config: ServeConfig,
        clock: Arc<dyn Clock>,
    ) -> std::io::Result<Self> {
        let invalid = |e: ConfigError| std::io::Error::new(ErrorKind::InvalidInput, e.to_string());
        config.validate().map_err(invalid)?;
        fleet_config.validate().map_err(invalid)?;

        // One observer for the whole server, on the injected clock: the
        // fleet's shard workers record step/eval/checkpoint/restore spans
        // into it, the front adds decode/encode/request spans, and
        // `Request::Observe` snapshots it all in one round-trip.
        let observer = Arc::new(Observer::new(Arc::clone(&clock)));
        let (engine_inbox, inbox_rx) = mpsc::channel::<EngineMsg>();
        // Each shard wakes the engine thread right after it sends an
        // event, so the engine blocks on its inbox with no timeout and
        // still answers a reply as soon as its shard finishes.
        let wake_tx = engine_inbox.clone();
        let wake: WakeHook = Arc::new(move || {
            let _ = wake_tx.send(EngineMsg::Wake);
        });
        let fleet = match &config.store_dir {
            Some(dir) => {
                // Durable mode: open (or create) the session store, then
                // recover — every sealed session comes back cold on its
                // home shard before the first request is accepted.
                let store_err =
                    |e: chameleon_store::StoreError| std::io::Error::other(e.to_string());
                let store =
                    chameleon_store::SharedStore::open(chameleon_store::StoreConfig::new(dir))
                        .map_err(store_err)?;
                let (fleet, _report) = FleetEngine::recover_with_observer(
                    scenario,
                    fleet_config,
                    Runtime::Threads,
                    Arc::clone(&observer),
                    store,
                    Some(wake),
                )
                .map_err(store_err)?;
                fleet
            }
            None => FleetEngine::with_observer(
                scenario,
                fleet_config,
                Runtime::Threads,
                Arc::clone(&observer),
                Some(wake),
            ),
        };
        // The front posts every request but `Ping` to the engine inbox;
        // the engine answers through the request's reply handle.
        let engine_tx = engine_inbox.clone();
        let dispatch: Dispatch = Arc::new(move |request, reply| {
            if let Err(mpsc::SendError(EngineMsg::Op(_, reply))) =
                engine_tx.send(EngineMsg::Op(request, reply))
            {
                reply.send(Response::Error {
                    code: ErrorCode::EngineDown,
                    message: "engine thread is gone".to_string(),
                });
            }
        });
        let front = Front::start(
            &config.addr,
            config.workers,
            Arc::clone(&observer),
            dispatch,
        )?;
        let metrics = front.metrics();
        let balance = config.balance.clone();
        let engine = std::thread::Builder::new()
            .name("serve-engine".to_string())
            .spawn(move || engine_loop(fleet, &inbox_rx, &metrics, balance))
            .expect("spawn engine thread");

        Ok(Self {
            front,
            observer,
            engine: Some(engine),
            engine_inbox,
        })
    }

    /// The bound address (resolves port 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.front.local_addr()
    }

    /// Snapshot of the serving-layer counters.
    pub fn metrics(&self) -> ServeCounters {
        self.front.metrics().snapshot()
    }

    /// The server-wide span recorder + event log (the same one
    /// `Request::Observe` snapshots).
    pub fn observer(&self) -> Arc<Observer> {
        Arc::clone(&self.observer)
    }

    /// Graceful shutdown: stop accepting, let workers finish their
    /// in-flight requests, drain the fleet, join every thread. Idempotent.
    pub fn shutdown(&mut self) {
        self.front.shutdown();
        // The shards' wake handles keep the inbox open, so the engine
        // stops only when told. Every op a worker sent is queued ahead of
        // this message, because every worker has joined.
        let _ = self.engine_inbox.send(EngineMsg::Stop);
        if let Some(join) = self.engine.take() {
            let _ = join.join();
        }
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        self.shutdown();
    }
}

// ---------------------------------------------------------------------------
// Engine thread
// ---------------------------------------------------------------------------

fn engine_loop(
    mut fleet: FleetEngine,
    inbox: &Receiver<EngineMsg>,
    metrics: &ServeMetrics,
    balance: Option<BalanceConfig>,
) {
    let mut next_correlation: u64 = 1;
    let mut pending: HashMap<u64, Reply> = HashMap::new();
    // The balancer lives here because migration needs exclusive engine
    // access; it ticks between ops, so a migration never interleaves with
    // a request's submit/acknowledge pair.
    let mut balancer = balance.as_ref().map(BalanceConfig::build);
    // No timeout: a shard sends its event before it wakes us, so the
    // flush after a `Wake` always finds that event.
    while let Ok(msg) = inbox.recv() {
        match msg {
            EngineMsg::Op(request, reply) => {
                handle_op(
                    &mut fleet,
                    request,
                    reply,
                    &mut pending,
                    &mut next_correlation,
                    metrics,
                    balancer.as_ref(),
                );
                if let Some(balancer) = balancer.as_mut() {
                    balancer.on_op(&mut fleet);
                }
            }
            EngineMsg::Wake => {}
            EngineMsg::Stop => break,
        }
        flush_events(&mut fleet, &mut pending);
    }
    // Every accepted fleet request is acknowledged by exactly one event;
    // resolve them all before dropping the engine (which joins shards).
    for event in fleet.drain_pending() {
        if let Some(reply) = pending.remove(&event.correlation) {
            reply.send(event_response(event.kind));
        }
    }
    for (_, reply) in pending.drain() {
        reply.send(Response::Error {
            code: ErrorCode::EngineDown,
            message: "server shut down before the request resolved".to_string(),
        });
    }
}

fn flush_events(fleet: &mut FleetEngine, pending: &mut HashMap<u64, Reply>) {
    for event in fleet.drain() {
        if let Some(reply) = pending.remove(&event.correlation) {
            reply.send(event_response(event.kind));
        }
    }
}

fn handle_op(
    fleet: &mut FleetEngine,
    request: Request,
    reply: Reply,
    pending: &mut HashMap<u64, Reply>,
    next_correlation: &mut u64,
    metrics: &ServeMetrics,
    balancer: Option<&Balancer>,
) {
    // The fleet's internal correlation space is the engine's own — the
    // wire correlation rides in the reply handle kept in `pending`.
    let correlation = *next_correlation;
    let (session, command) = match request {
        Request::Ping => {
            reply.send(Response::Pong);
            return;
        }
        Request::Observe => {
            let observation = build_observation(fleet, metrics, balancer);
            reply.send(Response::Observed(Box::new(observation)));
            return;
        }
        Request::CreateSession { session, spec } => {
            (session, SessionCommand::Create(Box::new(spec)))
        }
        Request::Step { session, batches } => (
            session,
            SessionCommand::Step {
                batches: batches as usize,
            },
        ),
        Request::Predict { session } => (session, SessionCommand::Evaluate),
        Request::Checkpoint { session } => (session, SessionCommand::Checkpoint),
        Request::Evict { session } => (session, SessionCommand::Evict),
        Request::HandoffExport { session } => (session, SessionCommand::Export),
        Request::Handoff { session, blob } => (session, SessionCommand::Import(blob)),
    };
    match fleet.command_correlated(session, command, correlation) {
        Ok(()) => {
            *next_correlation += 1;
            pending.insert(correlation, reply);
        }
        Err(error) => reply.send(fleet_error_response(&error)),
    }
}

/// Snapshots the unified observability view: the server observer's span
/// aggregates and event tail, plus every fleet / trace / serve counter
/// flattened under a dotted name. The `fleet.*_nanos` counters and the
/// corresponding span totals come from the *same* shard measurements, so
/// they reconcile exactly.
fn build_observation(
    fleet: &mut FleetEngine,
    metrics: &ServeMetrics,
    balancer: Option<&Balancer>,
) -> Observation {
    let mut o = fleet.observer().observe();
    let fm = fleet.metrics();
    o.push_counter("fleet.sessions_resident", fm.sessions_resident() as u64);
    o.push_counter("fleet.sessions_cold", fm.sessions_cold() as u64);
    o.push_counter("fleet.sessions_created", fm.sessions_created());
    o.push_counter("fleet.batches", fm.batches());
    o.push_counter("fleet.evictions", fm.evictions());
    o.push_counter("fleet.restores", fm.restores());
    o.push_counter("fleet.migrations", fleet.migrations());
    o.push_counter(
        "fleet.placement_overrides",
        fleet.placement_overrides() as u64,
    );
    o.push_counter("fleet.step_nanos", fm.step_nanos());
    o.push_counter("fleet.checkpoint_nanos", fm.checkpoint_nanos());
    o.push_counter("fleet.restore_nanos", fm.restore_nanos());
    o.push_counter("fleet.eval_nanos", fm.eval_nanos());
    // Per-shard load gauges: the signals the balancer itself watches, so
    // hot-shard skew (and its correction) is visible from the outside.
    for shard in &fm.per_shard {
        let prefix = format!("fleet.shard{}", shard.shard);
        o.push_counter(format!("{prefix}.queue_depth"), shard.queue_depth as u64);
        o.push_counter(format!("{prefix}.batches"), shard.batches);
        o.push_counter(format!("{prefix}.resident_bytes"), shard.resident_bytes);
        o.push_counter(format!("{prefix}.evictions"), shard.evictions);
    }
    if let Some(balancer) = balancer {
        for (name, value) in balancer.counters().named() {
            o.push_counter(name, value);
        }
    }
    for (name, value) in fm.merged_trace().counters() {
        o.push_counter(format!("trace.{name}"), value);
    }
    for (name, value) in metrics.snapshot().named() {
        o.push_counter(name, value);
    }
    if let Some(store) = fleet.store_counters() {
        for (name, value) in store.named() {
            o.push_counter(name, value);
        }
    }
    o
}

fn fleet_error_response(error: &FleetError) -> Response {
    match error {
        FleetError::Rejected(_) => Response::RetryAfter {
            millis: RETRY_AFTER_MILLIS,
        },
        FleetError::UnknownSession => Response::Error {
            code: ErrorCode::UnknownSession,
            message: "session was never created on this server".to_string(),
        },
        FleetError::DuplicateSession => Response::Error {
            code: ErrorCode::DuplicateSession,
            message: "session already exists".to_string(),
        },
        FleetError::ShardDown(shard) => Response::Error {
            code: ErrorCode::ShardDown,
            message: format!("shard {shard} worker is down"),
        },
    }
}

fn event_response(kind: SessionEventKind) -> Response {
    match kind {
        SessionEventKind::Created => Response::Created,
        SessionEventKind::Stepped { delivered, done } => Response::Stepped {
            delivered: delivered as u32,
            done,
        },
        SessionEventKind::Evaluated(report) => Response::Predicted(PredictSummary {
            acc_all: report.acc_all,
            per_domain: report.per_domain,
            per_class: report.per_class,
            memory_overhead_mb: report.memory_overhead_mb,
        }),
        SessionEventKind::Checkpointed(blob) => Response::Checkpointed(blob),
        SessionEventKind::Exported(blob) => Response::HandoffExported(blob),
        SessionEventKind::Imported => Response::HandoffAck,
        SessionEventKind::Evicted => Response::Evicted,
        SessionEventKind::Failed(reason) => Response::Error {
            code: ErrorCode::SessionFailed,
            message: reason,
        },
    }
}
