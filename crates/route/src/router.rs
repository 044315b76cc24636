//! The routing proxy: CHAMWIRE in front, N CHAMWIRE backends behind.
//!
//! Threading model: clients are served by the same CHAMWIRE front end as
//! a server's ([`chameleon_serve::front`]: acceptor, bounded worker pool,
//! one writer thread per connection). Its dispatch callback routes each
//! request on the connection's worker thread and answers through the
//! reply handle, forwarding session ops over the **shared multiplexed
//! backend connections** (one [`MuxConnection`] per backend — see
//! `mux.rs`); a probe thread sends each backend an `Observe` on the
//! injected clock and advances lifecycle states. There is no engine
//! thread — the router holds no sessions, only the registry, the pin
//! table, and shadow checkpoints.
//!
//! **Shadow checkpoints** are the failover mechanism: after every
//! mutating operation (create, step) the router pulls a `CHAMFLT1`
//! checkpoint from the session's owner and caches it. When a backend
//! dies — probe streak past the threshold, or a forward that fails even
//! on a fresh connection — each of its sessions is re-homed by handing
//! the shadow blob to the rendezvous successor. The router runs one op
//! per session at a time and refreshes the shadow only *after* the
//! reply, so a failure observed mid-operation recovers to the
//! pre-operation state and re-sending the operation yields exactly the
//! single-node outcome.
//!
//! With [`RouterConfig::state_dir`] set, every pin update and shadow
//! refresh is also appended to a durable CHAMRTE1 log (`state.rs`) and
//! recovered on start, so a restarted router — graceful or SIGKILLed —
//! resumes routing, pinning, and failover without re-learning placement.

use std::collections::HashMap;
use std::io::ErrorKind;
use std::net::SocketAddr;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::thread::JoinHandle;
use std::time::Duration;

use chameleon_fleet::SessionId;
use chameleon_obs::{Observation, Observer};
use chameleon_runtime::{Clock, WallClock};
use chameleon_serve::front::{Dispatch, Front, WRITE_TIMEOUT};
use chameleon_serve::wire::{ErrorCode, Request, Response, MAX_PAYLOAD_BYTES};
use chameleon_serve::ServeMetrics;
use chameleon_stream::ConfigError;

use crate::mux::{MuxConnection, MuxOptions};
use crate::plock;
use crate::registry::{BackendState, Registry};
use crate::state::{self, StateLog};

/// How long one forwarded request may wait for its backend response
/// before it becomes a typed failure (feeding the normal bury and
/// failover path) instead of a silent stall.
const REQUEST_TIMEOUT: Duration = Duration::from_secs(30);
/// How many `RetryAfter` rounds a forward rides out before it counts as
/// a failure.
const BACKEND_RETRIES: u32 = 10_000;
/// How many `RetryAfter` rounds a probe rides out: small, so a saturated
/// backend is detected in bounded time.
const PROBE_RETRIES: u32 = 64;
/// Salt for the rendezvous hash (same salt ⇒ same placement).
const SALT: u64 = 0xC4A7;
/// Consecutive probe failures before a backend turns
/// [`BackendState::Degraded`].
const DEGRADED_AFTER: u32 = 2;
/// Consecutive probe failures before a backend is declared
/// [`BackendState::Dead`] and its sessions re-homed.
const DEAD_AFTER: u32 = 5;

/// Tunables of the routing tier.
#[derive(Clone, Debug, PartialEq)]
pub struct RouterConfig {
    /// Address to bind, e.g. `"127.0.0.1:0"`.
    pub addr: String,
    /// Backend addresses (`host:port`), registration order = index.
    pub backends: Vec<String>,
    /// Client-facing connection-worker pool size. Backends no longer
    /// need to be sized against this — all workers share one multiplexed
    /// connection per backend.
    pub workers: usize,
    /// Interval between probe sweeps over the backend set.
    pub probe_interval: Duration,
    /// When set, pins and shadow checkpoints are persisted to a CHAMRTE1
    /// log in this directory and recovered on start.
    pub state_dir: Option<PathBuf>,
    /// Test-only fault injection: the first `Step` routed for this
    /// session panics the handling worker *while it holds the registry
    /// lock* — the worst poison a dying worker can leave behind. Used by
    /// the poison-tolerance regression test; leave `None` in production.
    pub fault_panic_session: Option<SessionId>,
}

impl Default for RouterConfig {
    fn default() -> Self {
        Self {
            addr: "127.0.0.1:0".to_string(),
            backends: Vec::new(),
            workers: 4,
            probe_interval: Duration::from_millis(50),
            state_dir: None,
            fault_panic_session: None,
        }
    }
}

impl RouterConfig {
    /// Checks structural validity.
    ///
    /// # Errors
    ///
    /// Returns the first violated requirement.
    pub fn validate(&self) -> Result<(), ConfigError> {
        if self.backends.is_empty() {
            return Err(ConfigError {
                field: "backend list",
                requirement: "must name at least one backend",
            });
        }
        if self.workers == 0 {
            return Err(ConfigError {
                field: "worker count",
                requirement: "must be positive",
            });
        }
        if self.probe_interval.is_zero() {
            return Err(ConfigError {
                field: "probe interval",
                requirement: "must be positive",
            });
        }
        Ok(())
    }
}

/// Plain-struct snapshot of the router's counters.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct RouteCounters {
    /// Requests read from clients (excluding locally answered pings).
    pub requests_in: u64,
    /// Requests forwarded to a backend (including failover re-sends).
    pub requests_forwarded: u64,
    /// Forwards that failed even on a fresh backend connection.
    pub forward_failures: u64,
    /// Sessions moved between backends (drain handoffs + failovers).
    pub sessions_handed_off: u64,
    /// Sessions re-homed from a shadow checkpoint after a backend died.
    pub failovers: u64,
    /// Client frames or payloads rejected by the front's decoder.
    pub decode_rejects: u64,
    /// Successful health probes.
    pub probes_ok: u64,
    /// Failed health probes.
    pub probes_failed: u64,
    /// Shadow checkpoints refreshed after mutating operations.
    pub shadow_refreshes: u64,
    /// Shadow refresh attempts that failed (the previous shadow stays).
    pub shadow_refresh_failures: u64,
    /// Pins recovered from the CHAMRTE1 state log at start.
    pub pins_recovered: u64,
    /// Shadow checkpoints recovered from the CHAMRTE1 state log at start.
    pub shadows_recovered: u64,
    /// State-log appends (or compactions) that failed; the in-memory
    /// state stays authoritative, durability of that update is lost.
    pub state_append_failures: u64,
}

impl RouteCounters {
    /// The counters as `route.*` name/value pairs, in the order the
    /// router's `Observation` carries them. Every report of this block
    /// iterates this list.
    #[must_use]
    pub fn named(&self) -> Vec<(String, u64)> {
        [
            ("route.requests_in", self.requests_in),
            ("route.requests_forwarded", self.requests_forwarded),
            ("route.forward_failures", self.forward_failures),
            ("route.sessions_handed_off", self.sessions_handed_off),
            ("route.failovers", self.failovers),
            ("route.decode_rejects", self.decode_rejects),
            ("route.probes_ok", self.probes_ok),
            ("route.probes_failed", self.probes_failed),
            ("route.shadow_refreshes", self.shadow_refreshes),
            (
                "route.shadow_refresh_failures",
                self.shadow_refresh_failures,
            ),
            ("route.pins_recovered", self.pins_recovered),
            ("route.shadows_recovered", self.shadows_recovered),
            ("route.state_append_failures", self.state_append_failures),
        ]
        .map(|(name, value)| (name.to_string(), value))
        .into()
    }
}

#[derive(Debug, Default)]
struct RouteMetrics {
    requests_in: AtomicU64,
    requests_forwarded: AtomicU64,
    forward_failures: AtomicU64,
    sessions_handed_off: AtomicU64,
    failovers: AtomicU64,
    probes_ok: AtomicU64,
    probes_failed: AtomicU64,
    shadow_refreshes: AtomicU64,
    shadow_refresh_failures: AtomicU64,
    pins_recovered: AtomicU64,
    shadows_recovered: AtomicU64,
    state_append_failures: AtomicU64,
}

impl RouteMetrics {
    fn add(counter: &AtomicU64, v: u64) {
        counter.fetch_add(v, Ordering::Relaxed);
    }

    fn snapshot(&self, decode_rejects: u64) -> RouteCounters {
        RouteCounters {
            requests_in: self.requests_in.load(Ordering::Relaxed),
            requests_forwarded: self.requests_forwarded.load(Ordering::Relaxed),
            forward_failures: self.forward_failures.load(Ordering::Relaxed),
            sessions_handed_off: self.sessions_handed_off.load(Ordering::Relaxed),
            failovers: self.failovers.load(Ordering::Relaxed),
            decode_rejects,
            probes_ok: self.probes_ok.load(Ordering::Relaxed),
            probes_failed: self.probes_failed.load(Ordering::Relaxed),
            shadow_refreshes: self.shadow_refreshes.load(Ordering::Relaxed),
            shadow_refresh_failures: self.shadow_refresh_failures.load(Ordering::Relaxed),
            pins_recovered: self.pins_recovered.load(Ordering::Relaxed),
            shadows_recovered: self.shadows_recovered.load(Ordering::Relaxed),
            state_append_failures: self.state_append_failures.load(Ordering::Relaxed),
        }
    }
}

/// One cached shadow checkpoint and the stamp its CHAMRTE1 record
/// carries: one more than the session's previous shadow's.
struct Shadow {
    seq: u64,
    blob: Vec<u8>,
}

/// State shared by workers, the probe thread, and the admin API.
///
/// One writer per shadow: every session op a worker routes, and every
/// session a drain moves, runs under that session's op lock, and every
/// shadow write happens inside it. `fail_over_session` and
/// `bury_backend` take no op lock: they write no shadow, and a worker
/// that already holds one calls them.
///
/// Lock order where multiple are held: per-session op lock (strictly
/// outermost; the `op_locks` table mutex is only held to clone an Arc out
/// or drop an unused entry, never across another acquisition) →
/// `handoff` → `registry` → `shadows` → `state`. `Shared::persist` is
/// only called with neither registry nor shadows held (its compaction
/// path re-acquires registry and shadows while holding the state lock,
/// which is safe because no thread holds registry/shadows and then waits
/// on state).
struct Shared {
    registry: Mutex<Registry>,
    shadows: Mutex<HashMap<SessionId, Shadow>>,
    /// Serializes session moves (drain, failover) so two threads never
    /// re-home the same session to different backends concurrently.
    handoff: Mutex<()>,
    /// Per-session op locks: one op per session at a time, so a
    /// session's shadow writes and log appends happen in op order. An
    /// entry lives only while an op holds or waits on it.
    op_locks: Mutex<HashMap<SessionId, Arc<Mutex<()>>>>,
    /// The durable CHAMRTE1 log, when a state dir is configured.
    state: Option<Mutex<StateLog>>,
    /// One multiplexed connection per backend, shared by every worker
    /// and the prober.
    mux: Vec<MuxConnection>,
    metrics: RouteMetrics,
    /// The client-facing front's counters, set once it has started.
    front: OnceLock<Arc<ServeMetrics>>,
    stop: AtomicBool,
    /// See [`RouterConfig::fault_panic_session`].
    panic_session: Option<SessionId>,
    panic_fired: AtomicBool,
}

impl Shared {
    /// The shared state over `config.backends` and their `mux`
    /// connections. With a state dir, durable state is recovered first:
    /// pins come back keyed by address (mapped onto the current backend
    /// list; pins to addresses no longer listed are dropped), shadows come
    /// back with the stamps their next writes continue from. Also returns
    /// how many pins and shadows came back and how many pins were dropped.
    fn open(
        config: &RouterConfig,
        mux: Vec<MuxConnection>,
    ) -> std::io::Result<(Self, (u64, u64, u64))> {
        let mut registry = Registry::new(config.backends.clone(), SALT);
        let mut shadows = HashMap::new();
        let mut recovered = (0u64, 0u64, 0u64); // pins, shadows, dropped
        let state = match &config.state_dir {
            Some(dir) => {
                let (log, image) = StateLog::open(dir)?;
                for (session, addr) in image.pins {
                    match registry.index_of(&addr) {
                        Some(index) => {
                            registry.pin(session, index);
                            recovered.0 += 1;
                        }
                        None => recovered.2 += 1,
                    }
                }
                recovered.1 = image.shadows.len() as u64;
                shadows.extend(
                    image
                        .shadows
                        .into_iter()
                        .map(|(session, (seq, blob))| (session, Shadow { seq, blob })),
                );
                Some(Mutex::new(log))
            }
            None => None,
        };
        let shared = Self {
            registry: Mutex::new(registry),
            shadows: Mutex::new(shadows),
            handoff: Mutex::new(()),
            op_locks: Mutex::new(HashMap::new()),
            state,
            mux,
            metrics: RouteMetrics::default(),
            front: OnceLock::new(),
            stop: AtomicBool::new(false),
            panic_session: config.fault_panic_session,
            panic_fired: AtomicBool::new(false),
        };
        Ok((shared, recovered))
    }

    /// Snapshot of the `route.*` counters; `decode_rejects` is the
    /// front's.
    fn counters(&self) -> RouteCounters {
        let decode_rejects = self.front.get().map_or(0, |f| f.snapshot().decode_rejects);
        self.metrics.snapshot(decode_rejects)
    }

    /// Pins `session` to `index` in memory and in the durable log.
    fn pin_session(&self, session: SessionId, index: usize) {
        let addr = {
            let mut registry = plock(&self.registry);
            registry.pin(session, index);
            registry.backend(index).addr.clone()
        };
        self.persist(state::encode_pin(session, &addr));
    }

    /// Runs `op` under the lock serializing ops on `session` (created on
    /// first use). The table mutex is released before that lock is taken,
    /// so it never nests inside another acquisition. Afterwards the entry
    /// leaves the table unless another op holds or waits on it: the table
    /// holds only sessions with an op in flight.
    fn with_op_lock<T>(&self, session: SessionId, op: impl FnOnce() -> T) -> T {
        let lock = Arc::clone(plock(&self.op_locks).entry(session).or_default());
        let out = {
            let _guard = plock(&lock);
            op()
        };
        let mut table = plock(&self.op_locks);
        // Clones are only taken under the table mutex, and each caller
        // drops its own under it, so the last op out sees exactly the
        // table's clone and its own.
        if Arc::strong_count(&lock) == 2 {
            table.remove(&session);
        }
        drop(lock);
        out
    }

    /// Replaces `session`'s shadow in memory and in the durable log,
    /// stamped one past its previous shadow (a recovered stamp included),
    /// so replay's highest-stamp-wins keeps the newest record. The caller
    /// holds `session`'s op lock: nothing else writes this shadow between
    /// the stamp read and the insert.
    fn store_shadow(&self, session: SessionId, blob: Vec<u8>) {
        let seq = plock(&self.shadows).get(&session).map_or(0, |s| s.seq) + 1;
        let framed = state::encode_shadow(session, seq, &blob);
        plock(&self.shadows).insert(session, Shadow { seq, blob });
        self.persist(framed);
    }

    /// Appends one framed record to the state log (no-op without a state
    /// dir), compacting when the log has grown well past its live size.
    /// Must be called with neither registry nor shadows held.
    ///
    /// The image is taken and the log replaced under the same hold as the
    /// append. Every record already in the log was appended after its
    /// in-memory update, so the image reflects it; a record appended
    /// between a released image and the replace would be erased by it.
    fn persist(&self, framed: Vec<u8>) {
        let Some(state) = &self.state else { return };
        let mut log = plock(state);
        if log.append(&framed).is_err() {
            RouteMetrics::add(&self.metrics.state_append_failures, 1);
            return;
        }
        if log.wants_compaction(0) {
            let image = self.image();
            if log.wants_compaction(image.encoded_len()) && log.compact(&image).is_err() {
                RouteMetrics::add(&self.metrics.state_append_failures, 1);
            }
        }
    }

    /// Snapshot of the durable state: address-keyed pins plus seq-stamped
    /// shadows.
    fn image(&self) -> state::RouterImage {
        let mut image = state::RouterImage::default();
        {
            let registry = plock(&self.registry);
            for (&session, &index) in registry.pins() {
                image
                    .pins
                    .insert(session, registry.backend(index).addr.clone());
            }
        }
        let shadows = plock(&self.shadows);
        for (&session, shadow) in shadows.iter() {
            image
                .shadows
                .insert(session, (shadow.seq, shadow.blob.clone()));
        }
        image
    }
}

/// Sends one request to a backend over its shared multiplexed
/// connection. Retry semantics live in the mux: `RetryAfter` rides the
/// configured budget, a stale established connection gets exactly one
/// fresh-connect retry, and only a failure beyond that (including a
/// request timeout — the old silent stall, now typed) counts here.
fn send_to_backend(shared: &Shared, index: usize, request: &Request) -> Result<Response, String> {
    RouteMetrics::add(&shared.metrics.requests_forwarded, 1);
    match shared.mux[index].request(request) {
        Ok(response) => Ok(response),
        Err(e) => {
            RouteMetrics::add(&shared.metrics.forward_failures, 1);
            Err(format!(
                "backend {index} ({}): {e}",
                shared.mux[index].addr()
            ))
        }
    }
}

/// Pulls a fresh checkpoint of `session` from `owner` into the shadow
/// cache. Failure is tolerated (the previous shadow stays, and recovery
/// falls back to the pre-operation state); only counted.
fn refresh_shadow(shared: &Shared, session: SessionId, owner: usize) {
    match send_to_backend(shared, owner, &Request::Checkpoint { session }) {
        Ok(Response::Checkpointed(blob)) => {
            shared.store_shadow(session, blob);
            RouteMetrics::add(&shared.metrics.shadow_refreshes, 1);
        }
        _ => RouteMetrics::add(&shared.metrics.shadow_refresh_failures, 1),
    }
}

/// Re-homes one session off a failed backend using its shadow
/// checkpoint. Returns the new owner, or `None` when recovery is
/// impossible (no shadow, or no eligible backend).
fn fail_over_session(
    shared: &Shared,
    obs: &Observer,
    session: SessionId,
    dead: usize,
) -> Option<usize> {
    let _guard = plock(&shared.handoff);
    {
        // Another thread may have re-homed it while we waited.
        let registry = plock(&shared.registry);
        match registry.pinned(session) {
            Some(owner) if owner != dead => return Some(owner),
            _ => {}
        }
    }
    let blob = plock(&shared.shadows).get(&session)?.blob.clone();
    let new = plock(&shared.registry).rendezvous(session, Some(dead))?;
    match send_to_backend(shared, new, &Request::Handoff { session, blob }) {
        // DuplicateSession means an earlier, ambiguously failed import
        // actually landed — the session is already there, adopt it.
        Ok(Response::HandoffAck)
        | Ok(Response::Error {
            code: ErrorCode::DuplicateSession,
            ..
        }) => {
            shared.pin_session(session, new);
            RouteMetrics::add(&shared.metrics.failovers, 1);
            RouteMetrics::add(&shared.metrics.sessions_handed_off, 1);
            obs.event(format!(
                "route: session {session} failed over from backend {dead} to {new}"
            ));
            Some(new)
        }
        _ => None,
    }
}

/// Declares a backend dead and re-homes every session pinned to it from
/// the shadow cache. Returns how many sessions moved.
fn bury_backend(shared: &Shared, obs: &Observer, index: usize) -> usize {
    let sessions = {
        let mut registry = plock(&shared.registry);
        registry.set_state(index, BackendState::Dead);
        registry.sessions_on(index)
    };
    obs.event(format!(
        "route: backend {index} declared dead, re-homing {} sessions",
        sessions.len()
    ));
    sessions
        .into_iter()
        .filter(|&s| fail_over_session(shared, obs, s, index).is_some())
        .count()
}

// ---------------------------------------------------------------------------
// Request handling
// ---------------------------------------------------------------------------

struct Ctx {
    shared: Arc<Shared>,
    obs: Arc<Observer>,
}

fn no_backend() -> Response {
    Response::Error {
        code: ErrorCode::EngineDown,
        message: "no eligible backend".to_string(),
    }
}

/// Routes one session-scoped request to its owner under the session's op
/// lock, failing over and re-sending when the owner proves unreachable.
/// Mutating successes refresh the session's shadow checkpoint afterwards;
/// a client `Checkpoint`'s blob becomes the shadow as it passes.
fn route_session_op(ctx: &Ctx, session: SessionId, request: &Request) -> Response {
    let shared = &ctx.shared;
    if shared.panic_session == Some(session)
        && matches!(request, Request::Step { .. })
        && !shared.panic_fired.swap(true, Ordering::SeqCst)
    {
        // Injected fault (RouterConfig::fault_panic_session): die while
        // holding the registry lock — the worst-case poison a panicking
        // worker can leave for everyone else.
        let _guard = plock(&shared.registry);
        panic!("injected route-worker panic (fault_panic_session)");
    }
    // Held across send and shadow write: a shadow refreshed after this
    // op's reply can never capture a later op of the same session.
    shared.with_op_lock(session, || forward_session_op(ctx, session, request))
}

/// The body of [`route_session_op`], run under the session's op lock.
fn forward_session_op(ctx: &Ctx, session: SessionId, request: &Request) -> Response {
    let shared = &ctx.shared;
    let is_create = matches!(request, Request::CreateSession { .. });
    let attempts = plock(&shared.registry).len() + 1;
    let mut exclude = None;
    for _ in 0..attempts {
        let owner = {
            let registry = plock(&shared.registry);
            match registry.pinned(session) {
                Some(owner) => Some(owner),
                None if is_create => registry.rendezvous(session, exclude),
                None => {
                    return Response::Error {
                        code: ErrorCode::UnknownSession,
                        message: "session was never created through this router".to_string(),
                    }
                }
            }
        };
        let Some(owner) = owner else {
            return no_backend();
        };
        match send_to_backend(shared, owner, request) {
            Ok(response) => {
                match &response {
                    Response::Created => {
                        shared.pin_session(session, owner);
                        refresh_shadow(shared, session, owner);
                    }
                    Response::Stepped { .. } => refresh_shadow(shared, session, owner),
                    Response::Checkpointed(blob) => shared.store_shadow(session, blob.clone()),
                    _ => {}
                }
                return response;
            }
            Err(reason) => {
                ctx.obs.event(format!("route: forward failed: {reason}"));
                if is_create && plock(&shared.registry).pinned(session).is_none() {
                    // The session exists nowhere yet: no shadow to carry,
                    // just place it on the next-best backend.
                    plock(&shared.registry).set_state(owner, BackendState::Dead);
                    exclude = Some(owner);
                    continue;
                }
                if bury_backend(shared, &ctx.obs, owner) == 0
                    && fail_over_session(shared, &ctx.obs, session, owner).is_none()
                {
                    return no_backend();
                }
            }
        }
    }
    no_backend()
}

/// The cluster view: the router's own observation merged with every live
/// backend's, so `fleet.*` and `serve.*` are fleet-wide sums. The router's
/// front records `decode`, `encode` and `request` spans like a backend's,
/// so until nodes are labelled those three spans sum router and backend
/// time.
fn aggregate_observation(ctx: &Ctx) -> Response {
    let mut merged = build_route_observation(&ctx.shared, &ctx.obs);
    for index in live_backends(&ctx.shared) {
        if let Ok(Response::Observed(observation)) =
            send_to_backend(&ctx.shared, index, &Request::Observe)
        {
            merged.merge(&observation);
        }
    }
    Response::Observed(Box::new(merged))
}

/// The router's own observation: its observer's spans/events plus every
/// `route.*` counter, per-state backend gauges, and (in durable mode)
/// the state log's self-counters.
fn build_route_observation(shared: &Shared, obs: &Observer) -> Observation {
    let mut o = obs.observe();
    for (name, value) in shared.counters().named() {
        o.push_counter(name, value);
    }
    if let Some(state) = &shared.state {
        for (name, value) in plock(state).counters().named() {
            o.push_counter(name, value);
        }
    }
    let registry = plock(&shared.registry);
    o.push_counter(
        "route.backends_healthy",
        registry.count_in(BackendState::Healthy),
    );
    o.push_counter(
        "route.backends_degraded",
        registry.count_in(BackendState::Degraded),
    );
    o.push_counter(
        "route.backends_draining",
        registry.count_in(BackendState::Draining),
    );
    o.push_counter("route.backends_dead", registry.count_in(BackendState::Dead));
    o
}

fn live_backends(shared: &Shared) -> Vec<usize> {
    let registry = plock(&shared.registry);
    (0..registry.len())
        .filter(|&i| registry.backend(i).state != BackendState::Dead)
        .collect()
}

fn handle_request(ctx: &Ctx, request: &Request) -> Response {
    RouteMetrics::add(&ctx.shared.metrics.requests_in, 1);
    match request {
        Request::Ping => Response::Pong,
        Request::Observe => aggregate_observation(ctx),
        Request::HandoffExport { .. } | Request::Handoff { .. } => Response::Error {
            code: ErrorCode::BadRequest,
            message: "handoff frames are router-internal; use the router admin API".to_string(),
        },
        Request::CreateSession { session, .. }
        | Request::Step { session, .. }
        | Request::Predict { session }
        | Request::Checkpoint { session }
        | Request::Evict { session } => route_session_op(ctx, *session, request),
    }
}

// ---------------------------------------------------------------------------
// Probe loop
// ---------------------------------------------------------------------------

fn probe_loop(shared: &Arc<Shared>, obs: &Observer, clock: &dyn Clock, interval: Duration) {
    while !shared.stop.load(Ordering::Relaxed) {
        let n = plock(&shared.registry).len();
        for index in 0..n {
            let state = plock(&shared.registry).backend(index).state;
            if !state.eligible() {
                continue;
            }
            let ok = probe_once(shared, index);
            let mut registry = plock(&shared.registry);
            let streak = registry.record_probe(index, ok);
            if ok {
                RouteMetrics::add(&shared.metrics.probes_ok, 1);
                if registry.backend(index).state == BackendState::Degraded {
                    registry.set_state(index, BackendState::Healthy);
                    obs.event(format!("route: backend {index} recovered"));
                }
            } else {
                RouteMetrics::add(&shared.metrics.probes_failed, 1);
                if streak >= DEAD_AFTER {
                    drop(registry);
                    bury_backend(shared, obs, index);
                } else if streak >= DEGRADED_AFTER
                    && registry.backend(index).state == BackendState::Healthy
                {
                    registry.set_state(index, BackendState::Degraded);
                    obs.event(format!(
                        "route: backend {index} degraded after {streak} failed probes"
                    ));
                }
            }
        }
        clock.sleep(interval);
    }
}

/// One probe: an `Observe` over the backend's shared mux connection,
/// answered by its engine thread. Probes ride the small
/// [`PROBE_RETRIES`] budget and do not touch the forward counters.
fn probe_once(shared: &Shared, index: usize) -> bool {
    matches!(
        shared.mux[index].request_with_budget(&Request::Observe, PROBE_RETRIES),
        Ok(Response::Observed(_))
    )
}

// ---------------------------------------------------------------------------
// The router
// ---------------------------------------------------------------------------

/// A running routing proxy.
///
/// Dropping the router shuts it down gracefully; [`Router::shutdown`]
/// does the same explicitly and is idempotent.
pub struct Router {
    front: Front,
    shared: Arc<Shared>,
    observer: Arc<Observer>,
    prober: Option<JoinHandle<()>>,
}

impl Router {
    /// Binds and starts serving in front of `config.backends`. With a
    /// state dir configured, pins and shadows are first recovered from
    /// the CHAMRTE1 log (a torn tail from a crashed predecessor is
    /// truncated away).
    ///
    /// # Errors
    ///
    /// Returns an [`std::io::Error`] if the config fails validation
    /// (`InvalidInput`), the listener cannot bind, or the state log
    /// cannot be opened.
    pub fn start(config: RouterConfig) -> std::io::Result<Self> {
        Self::start_with_clock(config, WallClock::shared())
    }

    /// [`Self::start`] with an injected [`Clock`] driving the probe
    /// cadence and idle reaping (virtual in tests, wall in production).
    ///
    /// # Errors
    ///
    /// Same contract as [`Self::start`].
    pub fn start_with_clock(config: RouterConfig, clock: Arc<dyn Clock>) -> std::io::Result<Self> {
        config
            .validate()
            .map_err(|e| std::io::Error::new(ErrorKind::InvalidInput, e.to_string()))?;

        let mux = config
            .backends
            .iter()
            .enumerate()
            .map(|(index, addr)| {
                MuxConnection::new(
                    addr.clone(),
                    MuxOptions {
                        max_payload: MAX_PAYLOAD_BYTES,
                        write_timeout: WRITE_TIMEOUT,
                        request_timeout: REQUEST_TIMEOUT,
                        retry_budget: BACKEND_RETRIES,
                        clock: Arc::clone(&clock),
                        backoff_seed: SALT ^ (index as u64 + 1),
                    },
                )
            })
            .collect();

        let (shared, recovered) = Shared::open(&config, mux)?;
        let shared = Arc::new(shared);
        RouteMetrics::add(&shared.metrics.pins_recovered, recovered.0);
        RouteMetrics::add(&shared.metrics.shadows_recovered, recovered.1);
        let observer = Arc::new(Observer::new(Arc::clone(&clock)));
        if recovered.0 > 0 || recovered.1 > 0 || recovered.2 > 0 {
            observer.event(format!(
                "route: recovered {} pins and {} shadows from the state log ({} pins dropped: address not in --backends)",
                recovered.0, recovered.1, recovered.2
            ));
        }

        let ctx = Ctx {
            shared: Arc::clone(&shared),
            obs: Arc::clone(&observer),
        };
        let dispatch: Dispatch =
            Arc::new(move |request, reply| reply.send(handle_request(&ctx, &request)));
        let front = Front::start(
            &config.addr,
            config.workers,
            Arc::clone(&observer),
            dispatch,
        )?;
        let _ = shared.front.set(front.metrics());

        let probe_shared = Arc::clone(&shared);
        let probe_obs = Arc::clone(&observer);
        let interval = config.probe_interval;
        let prober = std::thread::Builder::new()
            .name("route-prober".to_string())
            .spawn(move || probe_loop(&probe_shared, &probe_obs, clock.as_ref(), interval))
            .expect("spawn route prober");

        Ok(Self {
            front,
            shared,
            observer,
            prober: Some(prober),
        })
    }

    /// The bound address (resolves port 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.front.local_addr()
    }

    /// Snapshot of the router's counters.
    pub fn metrics(&self) -> RouteCounters {
        self.shared.counters()
    }

    /// The router's span recorder + event log (merged into `Observe`
    /// responses alongside the backends').
    pub fn observer(&self) -> Arc<Observer> {
        Arc::clone(&self.observer)
    }

    /// Each backend's address and current lifecycle state.
    pub fn backend_states(&self) -> Vec<(String, BackendState)> {
        let registry = plock(&self.shared.registry);
        registry
            .backends()
            .iter()
            .map(|b| (b.addr.clone(), b.state))
            .collect()
    }

    /// Where `session` is currently pinned, if anywhere.
    pub fn owner_of(&self, session: SessionId) -> Option<usize> {
        plock(&self.shared.registry).pinned(session)
    }

    /// Administratively drains a backend: marks it
    /// [`BackendState::Draining`] (no new sessions), then hands every
    /// pinned session off — `HandoffExport` from the draining node,
    /// `Handoff` of the blob to its rendezvous successor. A session
    /// whose export fails (the node died mid-drain) is re-homed from its
    /// shadow checkpoint instead. Each move holds the session's op lock
    /// from the export to the shadow write, so a request for it runs
    /// either wholly on the old owner or wholly on the new one. Returns
    /// how many sessions moved.
    ///
    /// # Errors
    ///
    /// Returns `InvalidInput` for an out-of-range index.
    pub fn drain_backend(&self, index: usize) -> std::io::Result<usize> {
        let shared = &self.shared;
        let sessions = {
            let mut registry = plock(&shared.registry);
            if index >= registry.len() {
                return Err(std::io::Error::new(
                    ErrorKind::InvalidInput,
                    format!("no backend {index}"),
                ));
            }
            registry.set_state(index, BackendState::Draining);
            registry.sessions_on(index)
        };
        let moved = sessions
            .into_iter()
            .filter(|&session| shared.with_op_lock(session, || self.hand_off(index, session)));
        Ok(moved.count())
    }

    /// Moves `session` off the draining backend `index` (see
    /// [`Router::drain_backend`]); the caller holds its op lock. Returns
    /// whether it moved.
    fn hand_off(&self, index: usize, session: SessionId) -> bool {
        let shared = &self.shared;
        let (new, blob) = {
            let _guard = plock(&shared.handoff);
            let exported = match send_to_backend(shared, index, &Request::HandoffExport { session })
            {
                Ok(Response::HandoffExported(blob)) => Some(blob),
                _ => None,
            };
            let Some(new) = plock(&shared.registry).rendezvous(session, Some(index)) else {
                return false;
            };
            let blob = match exported {
                Some(blob) => blob,
                // Export failed (node died mid-drain): fall back to
                // the shadow checkpoint, exactly like a kill failover.
                None => {
                    let Some(blob) = plock(&shared.shadows).get(&session).map(|s| s.blob.clone())
                    else {
                        return false;
                    };
                    RouteMetrics::add(&shared.metrics.failovers, 1);
                    blob
                }
            };
            match send_to_backend(
                shared,
                new,
                &Request::Handoff {
                    session,
                    blob: blob.clone(),
                },
            ) {
                Ok(Response::HandoffAck)
                | Ok(Response::Error {
                    code: ErrorCode::DuplicateSession,
                    ..
                }) => (new, blob),
                _ => return false,
            }
        };
        // Persisting happens outside the handoff guard (persist must
        // not run under the other locks; see `Shared` lock order).
        shared.pin_session(session, new);
        shared.store_shadow(session, blob);
        RouteMetrics::add(&shared.metrics.sessions_handed_off, 1);
        self.observer.event(format!(
            "route: session {session} handed off from backend {index} to {new}"
        ));
        true
    }

    /// Administratively declares a backend dead and re-homes all its
    /// sessions from shadow checkpoints. Returns how many sessions were
    /// recovered.
    ///
    /// # Errors
    ///
    /// Returns `InvalidInput` for an out-of-range index.
    pub fn mark_dead(&self, index: usize) -> std::io::Result<usize> {
        if index >= plock(&self.shared.registry).len() {
            return Err(std::io::Error::new(
                ErrorKind::InvalidInput,
                format!("no backend {index}"),
            ));
        }
        Ok(bury_backend(&self.shared, &self.observer, index))
    }

    /// Graceful shutdown: stop accepting, join the front's workers and
    /// the prober. Idempotent. Backends are left running — they are not
    /// the router's to stop.
    pub fn shutdown(&mut self) {
        self.shared.stop.store(true, Ordering::Relaxed);
        self.front.shutdown();
        if let Some(join) = self.prober.take() {
            let _ = join.join();
        }
    }
}

impl Drop for Router {
    fn drop(&mut self) {
        self.shutdown();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A router over one backend that never answers, recovering from the
    /// CHAMRTE1 log in `dir`.
    fn open_shared(dir: &std::path::Path) -> Shared {
        let config = RouterConfig {
            backends: vec!["a:1".to_string()],
            state_dir: Some(dir.to_path_buf()),
            ..RouterConfig::default()
        };
        Shared::open(&config, Vec::new()).expect("recover").0
    }

    #[test]
    fn the_op_lock_table_keeps_only_locks_in_use() {
        // No backend is needed: a Predict of an id the router never
        // created is answered UnknownSession before any forward.
        let config = RouterConfig {
            backends: vec!["a:1".to_string()],
            ..RouterConfig::default()
        };
        let ctx = Ctx {
            shared: Arc::new(Shared::open(&config, Vec::new()).expect("open").0),
            obs: Arc::new(Observer::new(Arc::new(WallClock::new()))),
        };
        for session in 0..1000 {
            let response = route_session_op(&ctx, session, &Request::Predict { session });
            assert!(matches!(
                response,
                Response::Error {
                    code: ErrorCode::UnknownSession,
                    ..
                }
            ));
        }
        assert!(plock(&ctx.shared.op_locks).is_empty());
    }

    #[test]
    fn shadow_stamps_continue_from_the_recovered_log() {
        let dir = std::env::temp_dir().join(format!("chamrte1-stamps-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        // A log holding session 3's shadow stamped 7, as a router that
        // stamped each shadow with the session's op count wrote it.
        let (mut log, _) = StateLog::open(&dir).expect("fresh log");
        log.append(&state::encode_shadow(3, 7, b"seventh"))
            .expect("append");
        drop(log);
        let shared = open_shared(&dir);
        shared.store_shadow(3, b"eighth".to_vec());
        shared.store_shadow(3, b"ninth".to_vec());
        drop(shared);
        let (_, image) = StateLog::open(&dir).expect("reopen");
        assert_eq!(image.shadows.get(&3), Some(&(9, b"ninth".to_vec())));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn compaction_keeps_a_pin_appended_while_its_image_is_taken() {
        let dir = std::env::temp_dir().join(format!("chamrte1-persist-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let (mut log, _) = StateLog::open(&dir).expect("fresh log");
        // Superseded shadows put the log past the compaction floor while
        // the live image holds only the newest.
        for seq in 0..17 {
            log.append(&state::encode_shadow(9, seq, &[0u8; 64 << 10]))
                .expect("append");
        }
        drop(log);
        let shared = Arc::new(open_shared(&dir));
        plock(&shared.registry).pin(1, 0);
        // Holding the shadow table parks the compaction this append
        // triggers inside `image()`, after it has read the pin table. No
        // hook marks the park, so the test waits for it; the fixed code
        // keeps pin 2 under any interleaving, and the wait only lets a
        // compaction outside the state lock show its loss.
        let shadows = plock(&shared.shadows);
        let compactor = {
            let shared = Arc::clone(&shared);
            std::thread::spawn(move || shared.persist(state::encode_pin(1, "a:1")))
        };
        std::thread::sleep(Duration::from_millis(100));
        // Meanwhile another worker pins session 2 and appends its record.
        plock(&shared.registry).pin(2, 0);
        let (appended, on_append) = std::sync::mpsc::channel();
        let appender = {
            let shared = Arc::clone(&shared);
            std::thread::spawn(move || {
                let state = shared.state.as_ref().expect("durable");
                plock(state)
                    .append(&state::encode_pin(2, "a:1"))
                    .expect("append");
                let _ = appended.send(());
            })
        };
        let _ = on_append.recv_timeout(Duration::from_millis(250));
        drop(shadows);
        compactor.join().expect("compactor");
        appender.join().expect("appender");
        let state = shared.state.as_ref().expect("durable");
        assert_eq!(plock(state).counters().compactions, 1);
        drop(shared);
        let (_, image) = StateLog::open(&dir).expect("reopen");
        assert_eq!(image.pins.get(&1).map(String::as_str), Some("a:1"));
        assert_eq!(image.pins.get(&2).map(String::as_str), Some("a:1"));
        let _ = std::fs::remove_dir_all(&dir);
    }
}
