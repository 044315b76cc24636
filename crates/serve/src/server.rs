//! The CHAMWIRE TCP server: an acceptor thread, a bounded pool of
//! connection workers, and one engine thread that owns the
//! [`FleetEngine`].
//!
//! Threading model:
//!
//! * the **engine thread** is the only holder of the `FleetEngine`. It
//!   blocks on one mpsc inbox that carries decoded requests, shard
//!   wake-ups and a stop message. It submits each request with a
//!   monotonically increasing correlation id; a shard that has sent an
//!   event wakes it, and it matches the fleet's acknowledgement events
//!   back to the waiting connection worker.
//!   Fleet backpressure ([`chameleon_fleet::FleetError::Rejected`]) is
//!   answered with a wire-level [`Response::RetryAfter`] instead of
//!   blocking, so one saturated shard never stalls the serving layer;
//! * **connection workers** pull accepted sockets from a shared queue and
//!   speak CHAMWIRE: split frames, verify CRCs, decode requests, forward
//!   to the engine. Requests are served *pipelined*: the worker keeps
//!   reading and dispatching frames while earlier requests are still in
//!   the engine, and a per-connection **writer thread** sends responses
//!   back as they resolve — out of order is fine, the correlation id is
//!   what pairs them. One slow request therefore never head-of-line
//!   blocks the socket, and a peer multiplexing many logical streams
//!   over a single connection (the router's per-backend connection) gets
//!   full engine-side parallelism from one socket. Read timeouts double
//!   as the idle clock — a connection silent past `idle_timeout` is
//!   reaped;
//! * the **acceptor** admits sockets into the bounded worker queue; when
//!   the queue is full it turns the connection away with a `RetryAfter`
//!   frame rather than letting it queue unbounded.
//!
//! Shutdown is graceful and ordered: the stop flag is raised, the
//! acceptor is woken (a loopback self-connect) and joined, workers finish
//! their in-flight requests and exit when the connection queue closes,
//! and then the engine thread is sent its stop. It drains every
//! outstanding fleet acknowledgement before dropping the engine (which
//! joins the shard threads).

use std::collections::HashMap;
use std::io::{ErrorKind, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{self, Receiver, SyncSender, TrySendError};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::Duration;

use chameleon_balance::{BalanceConfig, Balancer};
use chameleon_fleet::{
    FleetConfig, FleetEngine, FleetError, SessionCommand, SessionEventKind, WakeHook,
};
use chameleon_obs::{Observation, Observer, Stage};
use chameleon_replay::crc32;
use chameleon_runtime::{timed, Clock, Runtime, WallClock};
use chameleon_stream::{ConfigError, DomainIlScenario};

use crate::metrics::{ServeCounters, ServeMetrics};
use crate::wire::{
    correlation_of, encode_frame, ErrorCode, PredictSummary, ProbeSummary, Request, Response,
    WireError, FRAME_OVERHEAD, MAX_PAYLOAD_BYTES, WIRE_MAGIC,
};

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
    /// Socket read timeout. This is also the granularity at which a
    /// worker notices the stop flag and advances the idle clock.
    pub read_timeout: Duration,
    /// Socket write timeout; a peer that stops reading is disconnected.
    pub write_timeout: Duration,
    /// A connection silent for this long is reaped.
    pub idle_timeout: Duration,
    /// Backoff hint carried by [`Response::RetryAfter`] replies.
    pub retry_after: Duration,
    /// Per-frame payload cap enforced by this server (≤
    /// [`MAX_PAYLOAD_BYTES`]).
    pub max_payload: usize,
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
            read_timeout: Duration::from_millis(25),
            write_timeout: Duration::from_secs(5),
            idle_timeout: Duration::from_secs(30),
            retry_after: Duration::from_millis(2),
            max_payload: MAX_PAYLOAD_BYTES,
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
        if self.read_timeout.is_zero() {
            return Err(ConfigError {
                field: "read timeout",
                requirement: "must be positive",
            });
        }
        if self.max_payload == 0 || self.max_payload > MAX_PAYLOAD_BYTES {
            return Err(ConfigError {
                field: "payload cap",
                requirement: "must be within (0, MAX_PAYLOAD_BYTES]",
            });
        }
        Ok(())
    }
}

/// What the engine thread blocks on.
enum EngineMsg {
    /// A decoded request from a connection worker.
    Op(EngineOp),
    /// A shard has sent a fleet event.
    Wake,
    /// Sent by [`Server::shutdown`] once every connection worker has
    /// joined.
    Stop,
}

/// One decoded request on its way to the engine thread, carrying the wire
/// correlation id and the frame's start timestamp so the reply can be
/// written (and its latency priced) by the connection's writer thread.
struct EngineOp {
    request: Request,
    correlation: u64,
    started: u64,
    reply: mpsc::Sender<Outbound>,
}

/// One response on its way to a connection's writer thread. Responses may
/// arrive out of order relative to their requests — the correlation id is
/// what lets the peer pair them back up.
struct Outbound {
    correlation: u64,
    started: u64,
    response: Response,
}

/// What the engine remembers about an accepted fleet request until the
/// fleet acknowledges it.
struct PendingReply {
    correlation: u64,
    started: u64,
    reply: mpsc::Sender<Outbound>,
}

fn answer(reply: &mpsc::Sender<Outbound>, correlation: u64, started: u64, response: Response) {
    let _ = reply.send(Outbound {
        correlation,
        started,
        response,
    });
}

/// Everything a connection worker needs, cloned once per worker thread.
#[derive(Clone)]
struct WorkerCtx {
    engine: mpsc::Sender<EngineMsg>,
    metrics: Arc<ServeMetrics>,
    stop: Arc<AtomicBool>,
    obs: Arc<Observer>,
    clock: Arc<dyn Clock>,
    read_timeout: Duration,
    write_timeout: Duration,
    idle_timeout: Duration,
    max_payload: usize,
}

/// A running CHAMWIRE server in front of a [`FleetEngine`].
///
/// Dropping the server shuts it down gracefully (see module docs);
/// [`Server::shutdown`] does the same explicitly and is idempotent.
pub struct Server {
    local_addr: SocketAddr,
    stop: Arc<AtomicBool>,
    metrics: Arc<ServeMetrics>,
    observer: Arc<Observer>,
    acceptor: Option<JoinHandle<()>>,
    workers: Vec<JoinHandle<()>>,
    engine: Option<JoinHandle<()>>,
    engine_inbox: mpsc::Sender<EngineMsg>,
}

impl Server {
    /// Binds, spawns the engine + worker + acceptor threads, and begins
    /// serving.
    ///
    /// # Errors
    ///
    /// Returns an [`std::io::Error`] if either config fails validation
    /// (`InvalidInput`) or the listener cannot bind.
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

        let listener = TcpListener::bind(&config.addr)?;
        let local_addr = listener.local_addr()?;
        let metrics = Arc::new(ServeMetrics::default());
        let stop = Arc::new(AtomicBool::new(false));

        // One observer for the whole server, on the injected clock: the
        // fleet's shard workers record step/eval/checkpoint/restore spans
        // into it, the connection workers add encode/decode spans, and
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
        let engine_metrics = Arc::clone(&metrics);
        let retry_after = config.retry_after;
        let balance = config.balance.clone();
        let engine = std::thread::Builder::new()
            .name("serve-engine".to_string())
            .spawn(move || engine_loop(fleet, &inbox_rx, &engine_metrics, retry_after, balance))
            .expect("spawn engine thread");

        let (conn_tx, conn_rx) = mpsc::sync_channel::<TcpStream>(config.workers);
        let conn_rx = Arc::new(Mutex::new(conn_rx));
        let ctx = WorkerCtx {
            engine: engine_inbox.clone(),
            metrics: Arc::clone(&metrics),
            stop: Arc::clone(&stop),
            obs: Arc::clone(&observer),
            clock,
            read_timeout: config.read_timeout,
            write_timeout: config.write_timeout,
            idle_timeout: config.idle_timeout,
            max_payload: config.max_payload,
        };
        let workers = (0..config.workers)
            .map(|index| {
                let ctx = ctx.clone();
                let conn_rx = Arc::clone(&conn_rx);
                std::thread::Builder::new()
                    .name(format!("serve-worker-{index}"))
                    .spawn(move || worker_loop(&ctx, &conn_rx))
                    .expect("spawn connection worker")
            })
            .collect();

        let acceptor_metrics = Arc::clone(&metrics);
        let acceptor_stop = Arc::clone(&stop);
        let acceptor = std::thread::Builder::new()
            .name("serve-acceptor".to_string())
            .spawn(move || {
                acceptor_loop(
                    &listener,
                    &conn_tx,
                    &acceptor_stop,
                    &acceptor_metrics,
                    retry_after,
                );
            })
            .expect("spawn acceptor thread");

        Ok(Self {
            local_addr,
            stop,
            metrics,
            observer,
            acceptor: Some(acceptor),
            workers,
            engine: Some(engine),
            engine_inbox,
        })
    }

    /// The bound address (resolves port 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// Snapshot of the serving-layer counters.
    pub fn metrics(&self) -> ServeCounters {
        self.metrics.snapshot()
    }

    /// The server-wide span recorder + event log (the same one
    /// `Request::Observe` snapshots).
    pub fn observer(&self) -> Arc<Observer> {
        Arc::clone(&self.observer)
    }

    /// Graceful shutdown: stop accepting, let workers finish their
    /// in-flight requests, drain the fleet, join every thread. Idempotent.
    pub fn shutdown(&mut self) {
        self.stop.store(true, Ordering::Relaxed);
        // Wake the acceptor out of its blocking accept().
        let _ = TcpStream::connect(self.local_addr);
        if let Some(join) = self.acceptor.take() {
            let _ = join.join();
        }
        for join in self.workers.drain(..) {
            let _ = join.join();
        }
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
    retry_after: Duration,
    balance: Option<BalanceConfig>,
) {
    let retry_millis = retry_after.as_millis().min(u128::from(u32::MAX)) as u32;
    let mut next_correlation: u64 = 1;
    let mut pending: HashMap<u64, PendingReply> = HashMap::new();
    // The balancer lives here because migration needs exclusive engine
    // access; it ticks between ops, so a migration never interleaves with
    // a request's submit/acknowledge pair.
    let mut balancer = balance.as_ref().map(BalanceConfig::build);
    // No timeout: a shard sends its event before it wakes us, so the
    // flush after a `Wake` always finds that event.
    while let Ok(msg) = inbox.recv() {
        match msg {
            EngineMsg::Op(op) => {
                handle_op(
                    &mut fleet,
                    op,
                    &mut pending,
                    &mut next_correlation,
                    metrics,
                    retry_millis,
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
        if let Some(p) = pending.remove(&event.correlation) {
            answer(
                &p.reply,
                p.correlation,
                p.started,
                event_response(event.kind),
            );
        }
    }
    for (_, p) in pending.drain() {
        answer(
            &p.reply,
            p.correlation,
            p.started,
            Response::Error {
                code: ErrorCode::EngineDown,
                message: "server shut down before the request resolved".to_string(),
            },
        );
    }
}

fn flush_events(fleet: &mut FleetEngine, pending: &mut HashMap<u64, PendingReply>) {
    for event in fleet.drain() {
        if let Some(p) = pending.remove(&event.correlation) {
            answer(
                &p.reply,
                p.correlation,
                p.started,
                event_response(event.kind),
            );
        }
    }
}

fn handle_op(
    fleet: &mut FleetEngine,
    op: EngineOp,
    pending: &mut HashMap<u64, PendingReply>,
    next_correlation: &mut u64,
    metrics: &ServeMetrics,
    retry_millis: u32,
    balancer: Option<&Balancer>,
) {
    // The fleet's internal correlation space is the engine's own — the
    // wire correlation rides alongside in `pending` and stamps the reply.
    let EngineOp {
        request,
        correlation: wire,
        started,
        reply,
    } = op;
    let correlation = *next_correlation;
    let submitted = match request {
        Request::Ping => {
            answer(&reply, wire, started, Response::Pong);
            return;
        }
        Request::Observe => {
            let observation = build_observation(fleet, metrics, balancer);
            answer(
                &reply,
                wire,
                started,
                Response::Observed(Box::new(observation)),
            );
            return;
        }
        Request::Probe => {
            // Answered engine-side so the summary reflects the fleet the
            // router would actually route to, yet without the cost of a
            // full observation.
            let fm = fleet.metrics();
            let summary = ProbeSummary {
                sessions_resident: fm.sessions_resident() as u64,
                sessions_cold: fm.sessions_cold() as u64,
                in_flight: fleet.pending() as u64,
            };
            answer(&reply, wire, started, Response::ProbeAck(summary));
            return;
        }
        Request::CreateSession { session, spec } => {
            fleet.create_correlated(session, spec, correlation)
        }
        Request::Step { session, batches } => fleet.command_correlated(
            session,
            SessionCommand::Step {
                batches: batches as usize,
            },
            correlation,
        ),
        Request::Predict { session } => {
            fleet.command_correlated(session, SessionCommand::Evaluate, correlation)
        }
        Request::Checkpoint { session } => {
            fleet.command_correlated(session, SessionCommand::Checkpoint, correlation)
        }
        Request::Evict { session } => {
            fleet.command_correlated(session, SessionCommand::Evict, correlation)
        }
        Request::HandoffExport { session } => {
            fleet.command_correlated(session, SessionCommand::Export, correlation)
        }
        Request::Handoff { session, blob } => fleet.import_correlated(session, blob, correlation),
    };
    match submitted {
        Ok(()) => {
            *next_correlation += 1;
            pending.insert(
                correlation,
                PendingReply {
                    correlation: wire,
                    started,
                    reply,
                },
            );
        }
        Err(error) => {
            answer(
                &reply,
                wire,
                started,
                fleet_error_response(&error, retry_millis),
            );
        }
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
    let t = fm.merged_trace();
    o.push_counter("trace.inputs", t.inputs);
    o.push_counter("trace.trunk_passes", t.trunk_passes);
    o.push_counter("trace.head_fwd_passes", t.head_fwd_passes);
    o.push_counter("trace.head_bwd_passes", t.head_bwd_passes);
    o.push_counter("trace.onchip_sample_reads", t.onchip_sample_reads);
    o.push_counter("trace.onchip_sample_writes", t.onchip_sample_writes);
    o.push_counter("trace.offchip_latent_reads", t.offchip_latent_reads);
    o.push_counter("trace.offchip_latent_writes", t.offchip_latent_writes);
    o.push_counter("trace.offchip_raw_reads", t.offchip_raw_reads);
    o.push_counter("trace.offchip_raw_writes", t.offchip_raw_writes);
    o.push_counter("trace.covariance_updates", t.covariance_updates);
    o.push_counter("trace.matrix_inversions", t.matrix_inversions);
    o.push_counter("trace.inversion_dim", t.inversion_dim as u64);
    let c = metrics.snapshot();
    o.push_counter("serve.connections_accepted", c.connections_accepted);
    o.push_counter("serve.connections_closed", c.connections_closed);
    o.push_counter("serve.frames_in", c.frames_in);
    o.push_counter("serve.frames_out", c.frames_out);
    o.push_counter("serve.bytes_in", c.bytes_in);
    o.push_counter("serve.bytes_out", c.bytes_out);
    o.push_counter("serve.decode_rejects", c.decode_rejects);
    o.push_counter("serve.backpressure_replies", c.backpressure_replies);
    o.push_counter("serve.requests_ok", c.requests_ok);
    o.push_counter("serve.requests_failed", c.requests_failed);
    if let Some(s) = fleet.store_counters() {
        o.push_counter("store.appends", s.appends);
        o.push_counter("store.append_bytes", s.append_bytes);
        o.push_counter("store.fsyncs", s.fsyncs);
        o.push_counter("store.rotations", s.rotations);
        o.push_counter("store.compactions", s.compactions);
        o.push_counter("store.torn_truncations", s.torn_truncations);
        o.push_counter("store.truncated_bytes", s.truncated_bytes);
        o.push_counter("store.decode_rejects", s.decode_rejects);
        o.push_counter("store.short_reads", s.short_reads);
        o.push_counter("store.sessions_recovered", s.sessions_recovered);
        o.push_counter("store.segments", s.segments);
        o.push_counter("store.live_records", s.live_records);
        o.push_counter("store.dead_bytes", s.dead_bytes);
    }
    o
}

fn fleet_error_response(error: &FleetError, retry_millis: u32) -> Response {
    match error {
        FleetError::Rejected(_) => Response::RetryAfter {
            millis: retry_millis,
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

// ---------------------------------------------------------------------------
// Acceptor
// ---------------------------------------------------------------------------

fn acceptor_loop(
    listener: &TcpListener,
    conn_tx: &SyncSender<TcpStream>,
    stop: &AtomicBool,
    metrics: &ServeMetrics,
    retry_after: Duration,
) {
    for incoming in listener.incoming() {
        if stop.load(Ordering::Relaxed) {
            break;
        }
        let stream = match incoming {
            Ok(stream) => stream,
            Err(_) => continue,
        };
        ServeMetrics::add(&metrics.connections_accepted, 1);
        match conn_tx.try_send(stream) {
            Ok(()) => {}
            Err(TrySendError::Full(stream)) => turn_away(stream, retry_after, metrics),
            Err(TrySendError::Disconnected(_)) => break,
        }
    }
}

/// Every worker is busy and the hand-off queue is full: answer with a
/// `RetryAfter` frame (correlation 0 — no request was read) and close.
fn turn_away(mut stream: TcpStream, retry_after: Duration, metrics: &ServeMetrics) {
    let millis = retry_after.as_millis().min(u128::from(u32::MAX)) as u32;
    let frame = encode_frame(&Response::RetryAfter { millis }.encode_payload(0));
    let _ = stream.set_write_timeout(Some(Duration::from_millis(250)));
    if stream.write_all(&frame).is_ok() {
        ServeMetrics::add(&metrics.frames_out, 1);
        ServeMetrics::add(&metrics.bytes_out, frame.len() as u64);
    }
    ServeMetrics::add(&metrics.backpressure_replies, 1);
    ServeMetrics::add(&metrics.connections_closed, 1);
}

// ---------------------------------------------------------------------------
// Connection workers
// ---------------------------------------------------------------------------

fn worker_loop(ctx: &WorkerCtx, conn_rx: &Mutex<Receiver<TcpStream>>) {
    loop {
        let stream = {
            let Ok(guard) = conn_rx.lock() else { return };
            match guard.recv() {
                Ok(stream) => stream,
                Err(_) => return, // acceptor gone: no more connections
            }
        };
        handle_connection(ctx, stream);
        ServeMetrics::add(&ctx.metrics.connections_closed, 1);
    }
}

/// How the front of the receive buffer splits.
enum FrameSplit {
    /// No complete frame yet; read more bytes.
    NeedMore,
    /// One CRC-valid frame of `used` bytes.
    Frame { payload: Vec<u8>, used: usize },
    /// A reject. `used == 0` means the stream cannot be resynchronized
    /// (bad magic, hostile length) and the connection must close; a
    /// nonzero `used` means the frame boundary is known, so the frame is
    /// skipped and the connection survives.
    Corrupt {
        used: usize,
        correlation: u64,
        error: WireError,
    },
}

fn split_frame(buf: &[u8], max_payload: usize) -> FrameSplit {
    let head = buf.len().min(WIRE_MAGIC.len());
    if buf[..head] != WIRE_MAGIC[..head] {
        return FrameSplit::Corrupt {
            used: 0,
            correlation: 0,
            error: WireError::BadMagic,
        };
    }
    if buf.len() < WIRE_MAGIC.len() + 4 {
        return FrameSplit::NeedMore;
    }
    let len = u32::from_le_bytes(buf[8..12].try_into().expect("4 bytes")) as usize;
    if len > max_payload {
        return FrameSplit::Corrupt {
            used: 0,
            correlation: 0,
            error: WireError::Oversized {
                len: len as u64,
                max: max_payload as u64,
            },
        };
    }
    let total = FRAME_OVERHEAD + len;
    if buf.len() < total {
        return FrameSplit::NeedMore;
    }
    let payload = &buf[12..12 + len];
    let footer = u32::from_le_bytes(buf[12 + len..total].try_into().expect("4 bytes"));
    let found = crc32(payload);
    if found != footer {
        return FrameSplit::Corrupt {
            used: total,
            correlation: correlation_of(payload),
            error: WireError::BadChecksum {
                found,
                expected: footer,
            },
        };
    }
    FrameSplit::Frame {
        payload: payload.to_vec(),
        used: total,
    }
}

fn handle_connection(ctx: &WorkerCtx, mut stream: TcpStream) {
    let _ = stream.set_nodelay(true);
    let _ = stream.set_read_timeout(Some(ctx.read_timeout));
    let _ = stream.set_write_timeout(Some(ctx.write_timeout));
    // The reader half (this thread) and the writer half share the socket:
    // responses stream back as they resolve while further requests are
    // still being read, paired by correlation id.
    let Ok(writer_stream) = stream.try_clone() else {
        return;
    };
    let (out_tx, out_rx) = mpsc::channel::<Outbound>();
    let writer_dead = Arc::new(AtomicBool::new(false));
    let writer = {
        let ctx = ctx.clone();
        let dead = Arc::clone(&writer_dead);
        std::thread::Builder::new()
            .name("serve-writer".to_string())
            .spawn(move || writer_loop(&ctx, writer_stream, &out_rx, &dead))
            .expect("spawn connection writer")
    };
    let mut buf: Vec<u8> = Vec::new();
    let mut scratch = [0u8; 16 * 1024];
    // Idle reaping reads the injected clock: each read timeout is a
    // chance to notice that `idle_timeout` has elapsed since the last
    // byte arrived. Under a virtual clock the connection only ages when
    // the test advances time.
    let mut last_activity = ctx.clock.now_nanos();
    let idle_timeout_nanos = ctx.idle_timeout.as_nanos() as u64;
    'conn: loop {
        // Dispatch every complete frame already buffered before reading
        // more; none of these dispatches blocks on the engine.
        loop {
            match split_frame(&buf, ctx.max_payload) {
                FrameSplit::NeedMore => break,
                FrameSplit::Frame { payload, used } => {
                    buf.drain(..used);
                    serve_one(ctx, &out_tx, &payload);
                }
                FrameSplit::Corrupt {
                    used,
                    correlation,
                    error,
                } => {
                    // requests_failed is counted by the writer when it
                    // sends the Error response — not here, or the reject
                    // would be double-counted.
                    ServeMetrics::add(&ctx.metrics.decode_rejects, 1);
                    let reply = Response::Error {
                        code: ErrorCode::BadRequest,
                        message: error.to_string(),
                    };
                    answer(&out_tx, correlation, ctx.clock.now_nanos(), reply);
                    if used == 0 {
                        break 'conn; // desynchronized: nothing after this parses
                    }
                    buf.drain(..used);
                }
            }
        }
        if ctx.stop.load(Ordering::Relaxed) || writer_dead.load(Ordering::Relaxed) {
            break; // in-flight frames above were dispatched first
        }
        match stream.read(&mut scratch) {
            Ok(0) => break, // clean EOF
            Ok(n) => {
                last_activity = ctx.clock.now_nanos();
                ServeMetrics::add(&ctx.metrics.bytes_in, n as u64);
                buf.extend_from_slice(&scratch[..n]);
            }
            Err(e) if e.kind() == ErrorKind::WouldBlock || e.kind() == ErrorKind::TimedOut => {
                if ctx.clock.now_nanos().saturating_sub(last_activity) >= idle_timeout_nanos {
                    break; // reaped
                }
            }
            Err(_) => break,
        }
    }
    // The writer drains what is already queued and exits once every sender
    // is gone — ours here, and the engine's transient clones as the last
    // in-flight requests resolve.
    drop(out_tx);
    let _ = writer.join();
}

/// Dispatches one CRC-valid frame. Never blocks on the engine: the
/// response reaches the connection's writer thread via `out`.
fn serve_one(ctx: &WorkerCtx, out: &mpsc::Sender<Outbound>, payload: &[u8]) {
    let started = ctx.clock.now_nanos();
    ServeMetrics::add(&ctx.metrics.frames_in, 1);
    let (decoded, decode_nanos) = timed(ctx.clock.as_ref(), || Request::decode_payload(payload));
    ctx.obs.record(Stage::Decode, decode_nanos);
    let (correlation, request) = match decoded {
        Ok(decoded) => decoded,
        Err(error) => {
            ServeMetrics::add(&ctx.metrics.decode_rejects, 1);
            let reply = Response::Error {
                code: ErrorCode::BadRequest,
                message: error.to_string(),
            };
            answer(out, correlation_of(payload), started, reply);
            return;
        }
    };
    match request {
        // Liveness must stay observable even when the engine is saturated.
        Request::Ping => answer(out, correlation, started, Response::Pong),
        request => {
            let op = EngineOp {
                request,
                correlation,
                started,
                reply: out.clone(),
            };
            if ctx.engine.send(EngineMsg::Op(op)).is_err() {
                let reply = Response::Error {
                    code: ErrorCode::EngineDown,
                    message: "engine thread is gone".to_string(),
                };
                answer(out, correlation, started, reply);
            }
        }
    }
}

/// Owns the write half of one connection: prices each response, writes it,
/// records its `request` span, and on a write failure faults the reader by
/// shutting the socket down.
fn writer_loop(
    ctx: &WorkerCtx,
    mut stream: TcpStream,
    out_rx: &Receiver<Outbound>,
    dead: &AtomicBool,
) {
    while let Ok(out) = out_rx.recv() {
        match &out.response {
            Response::RetryAfter { .. } => ServeMetrics::add(&ctx.metrics.backpressure_replies, 1),
            Response::Error { .. } => ServeMetrics::add(&ctx.metrics.requests_failed, 1),
            _ => ServeMetrics::add(&ctx.metrics.requests_ok, 1),
        }
        let (wrote, encode_nanos) = timed(ctx.clock.as_ref(), || {
            write_response(ctx, &mut stream, out.correlation, &out.response)
        });
        ctx.obs.record(Stage::Encode, encode_nanos);
        let elapsed = ctx.clock.now_nanos().saturating_sub(out.started);
        ctx.obs.record(Stage::Request, elapsed);
        if !wrote {
            // The peer stopped reading (or is gone): poison the connection
            // so the reader stops feeding it and unblock its pending read.
            dead.store(true, Ordering::Relaxed);
            let _ = stream.shutdown(std::net::Shutdown::Both);
            break;
        }
    }
}

fn write_response(
    ctx: &WorkerCtx,
    stream: &mut TcpStream,
    correlation: u64,
    response: &Response,
) -> bool {
    let frame = encode_frame(&response.encode_payload(correlation));
    if stream.write_all(&frame).is_err() {
        return false;
    }
    ServeMetrics::add(&ctx.metrics.frames_out, 1);
    ServeMetrics::add(&ctx.metrics.bytes_out, frame.len() as u64);
    true
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn split_frame_recognizes_partial_and_whole_frames() {
        let frame = encode_frame(&Request::Ping.encode_payload(9));
        for cut in 0..frame.len() {
            assert!(matches!(
                split_frame(&frame[..cut], MAX_PAYLOAD_BYTES),
                FrameSplit::NeedMore
            ));
        }
        match split_frame(&frame, MAX_PAYLOAD_BYTES) {
            FrameSplit::Frame { used, .. } => assert_eq!(used, frame.len()),
            _ => panic!("whole frame did not split"),
        }
    }

    #[test]
    fn split_frame_rejects_bad_magic_early() {
        // The very first wrong byte is enough — no need to buffer a
        // whole header before rejecting a desynchronized stream.
        assert!(matches!(
            split_frame(b"X", MAX_PAYLOAD_BYTES),
            FrameSplit::Corrupt {
                used: 0,
                error: WireError::BadMagic,
                ..
            }
        ));
    }

    #[test]
    fn split_frame_survivable_corruption_reports_boundary() {
        let mut frame = encode_frame(&Request::Observe.encode_payload(77));
        let i = frame.len() - 5; // the opcode byte — past the correlation
        frame[i] ^= 0x40;
        match split_frame(&frame, MAX_PAYLOAD_BYTES) {
            FrameSplit::Corrupt {
                used,
                correlation,
                error: WireError::BadChecksum { .. },
            } => {
                assert_eq!(used, frame.len());
                assert_eq!(correlation, 77);
            }
            _ => panic!("checksum corruption not detected"),
        }
    }

    #[test]
    fn split_frame_caps_length_before_buffering() {
        let mut frame = Vec::new();
        frame.extend_from_slice(WIRE_MAGIC);
        frame.extend_from_slice(&u32::MAX.to_le_bytes());
        assert!(matches!(
            split_frame(&frame, MAX_PAYLOAD_BYTES),
            FrameSplit::Corrupt {
                used: 0,
                error: WireError::Oversized { .. },
                ..
            }
        ));
    }
}
