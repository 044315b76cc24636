//! The routing core: everything the router decides, with no socket in
//! it.
//!
//! One [`RouteCore`] holds the backend registry, the pin table, the
//! shadow checkpoints, the per-session op locks and the durable CHAMRTE1
//! log. Requests enter through one entry point, [`RouteCore::handle`];
//! forwarding, shadow refresh and failover happen behind it, and drain
//! and bury behind the admin calls next to it. The core reaches each
//! backend through a [`BackendLink`]. The [`crate::Router`] shell links
//! each backend over a [`crate::MuxConnection`] and puts the core behind
//! a CHAMWIRE front end and a probe thread. The simtest `route` explorer
//! links it to in-process sim engines and drives the same entry point,
//! so the code it proves is the code that serves.
//!
//! **Shadow checkpoints** are the failover mechanism: after every
//! mutating operation (create, step) the core pulls a `CHAMFLT1`
//! checkpoint from the session's owner and caches it. When a backend
//! dies — probe streak past the threshold, or a forward that fails even
//! on a fresh connection — each of its sessions is re-homed by handing
//! the shadow blob to the rendezvous successor. The core runs one op per
//! session at a time and refreshes the shadow only *after* the reply, so
//! a failure observed mid-operation recovers to the pre-operation state
//! and re-sending the operation yields exactly the single-node outcome.
//!
//! With [`RouterConfig::state_dir`] set, every pin update and shadow
//! refresh is also appended to a durable CHAMRTE1 log (`state.rs`) and
//! recovered on open, so a restarted router — graceful or SIGKILLed —
//! resumes routing, pinning, and failover without re-learning placement.

use std::collections::HashMap;
use std::io::ErrorKind;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};

use chameleon_fleet::SessionId;
use chameleon_obs::{Observation, Observer};
use chameleon_serve::wire::{ErrorCode, Request, Response};
use chameleon_serve::ServeMetrics;

use crate::plock;
use crate::registry::{BackendState, Registry};
use crate::router::RouterConfig;
use crate::state::{self, RouterImage, StateLog};

/// Salt for the rendezvous hash (same salt ⇒ same placement).
pub(crate) const SALT: u64 = 0xC4A7;
/// Consecutive probe failures before a backend turns
/// [`BackendState::Degraded`].
const DEGRADED_AFTER: u32 = 2;
/// Consecutive probe failures before a backend is declared
/// [`BackendState::Dead`] and its sessions re-homed.
const DEAD_AFTER: u32 = 5;

/// How the core reaches one backend.
pub trait BackendLink: Send + Sync {
    /// Sends one request and waits for its response. A typed error
    /// response is a success here.
    ///
    /// # Errors
    ///
    /// Why the backend could not be reached; the core then buries it
    /// and fails its sessions over.
    fn forward(&self, request: &Request) -> Result<Response, String>;

    /// One health probe: whether the backend answered.
    fn probe(&self) -> bool;
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

fn no_backend() -> Response {
    Response::Error {
        code: ErrorCode::EngineDown,
        message: "no eligible backend".to_string(),
    }
}

fn no_such_backend(index: usize) -> std::io::Error {
    std::io::Error::new(ErrorKind::InvalidInput, format!("no backend {index}"))
}

/// The socket-free routing core (see the module docs). Shared by the
/// shell's front workers, its prober and the admin API.
///
/// One writer per shadow: every session op [`Self::handle`] routes, and
/// every session a drain moves, runs under that session's op lock, and
/// every shadow write happens inside it. `fail_over_session` and
/// `bury_backend` take no op lock: they write no shadow, and a worker
/// that already holds one calls them.
///
/// Lock order where multiple are held: per-session op lock (strictly
/// outermost; the `op_locks` table mutex is only held to clone an Arc out
/// or drop an unused entry, never across another acquisition) →
/// `handoff` → `registry` → `shadows` → `state`. `persist` is only
/// called with neither registry nor shadows held (its compaction path
/// re-acquires registry and shadows while holding the state lock, which
/// is safe because no thread holds registry/shadows and then waits on
/// state).
pub struct RouteCore {
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
    /// One link per backend, in registry order.
    links: Vec<Arc<dyn BackendLink>>,
    metrics: RouteMetrics,
    obs: Arc<Observer>,
    /// The client-facing front's counters, set once a shell has started
    /// one.
    pub(crate) front: OnceLock<Arc<ServeMetrics>>,
    /// See [`RouterConfig::fault_panic_session`].
    panic_session: Option<SessionId>,
    panic_fired: AtomicBool,
}

impl RouteCore {
    /// A core over `config.backends`, reached through `links` (one per
    /// backend, in the same order), recording events into `obs`. With a
    /// state dir, pins (by address; unlisted ones are dropped) and
    /// stamped shadows are recovered first and counted in
    /// `route.pins_recovered` and `route.shadows_recovered`.
    ///
    /// # Errors
    ///
    /// The state log cannot be opened.
    ///
    /// # Panics
    ///
    /// If `links` and `config.backends` differ in length.
    pub fn open(
        config: &RouterConfig,
        links: Vec<Arc<dyn BackendLink>>,
        obs: Arc<Observer>,
    ) -> std::io::Result<Self> {
        assert_eq!(links.len(), config.backends.len(), "one link per backend");
        let mut registry = Registry::new(config.backends.clone(), SALT);
        let mut shadows = HashMap::new();
        let (mut pins, mut dropped) = (0u64, 0u64);
        let state = match &config.state_dir {
            Some(dir) => {
                let (log, image) = StateLog::open(dir)?;
                for (session, addr) in image.pins {
                    match registry.index_of(&addr) {
                        Some(index) => {
                            registry.pin(session, index);
                            pins += 1;
                        }
                        None => dropped += 1,
                    }
                }
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
        let metrics = RouteMetrics::default();
        RouteMetrics::add(&metrics.pins_recovered, pins);
        RouteMetrics::add(&metrics.shadows_recovered, shadows.len() as u64);
        if pins > 0 || !shadows.is_empty() || dropped > 0 {
            obs.event(format!(
                "route: recovered {pins} pins and {} shadows from the state log ({dropped} pins dropped: address not in --backends)",
                shadows.len()
            ));
        }
        Ok(Self {
            registry: Mutex::new(registry),
            shadows: Mutex::new(shadows),
            handoff: Mutex::new(()),
            op_locks: Mutex::new(HashMap::new()),
            state,
            links,
            metrics,
            obs,
            front: OnceLock::new(),
            panic_session: config.fault_panic_session,
            panic_fired: AtomicBool::new(false),
        })
    }

    /// The one request entry point: answers `request` as the router
    /// does — `Ping` and `Observe` here, session ops by forwarding to
    /// their owner.
    pub fn handle(&self, request: &Request) -> Response {
        RouteMetrics::add(&self.metrics.requests_in, 1);
        match request {
            Request::Ping => Response::Pong,
            Request::Observe => self.aggregate_observation(),
            Request::HandoffExport { .. } | Request::Handoff { .. } => Response::Error {
                code: ErrorCode::BadRequest,
                message: "handoff frames are router-internal; use the router admin API".to_string(),
            },
            Request::CreateSession { session, .. }
            | Request::Step { session, .. }
            | Request::Predict { session }
            | Request::Checkpoint { session }
            | Request::Evict { session } => self.route_session_op(*session, request),
        }
    }

    /// Snapshot of the `route.*` counters; `decode_rejects` is the
    /// front's.
    pub fn counters(&self) -> RouteCounters {
        let decode_rejects = self.front.get().map_or(0, |f| f.snapshot().decode_rejects);
        self.metrics.snapshot(decode_rejects)
    }

    /// Each backend's address and current lifecycle state.
    pub fn backend_states(&self) -> Vec<(String, BackendState)> {
        let registry = plock(&self.registry);
        registry
            .backends()
            .iter()
            .map(|b| (b.addr.clone(), b.state))
            .collect()
    }

    /// Where `session` is currently pinned, if anywhere.
    pub fn owner_of(&self, session: SessionId) -> Option<usize> {
        plock(&self.registry).pinned(session)
    }

    /// Snapshot of the durable state: address-keyed pins plus seq-stamped
    /// shadows — what a compaction writes, and what a core reopened on
    /// the same state dir recovers.
    pub fn image(&self) -> RouterImage {
        let mut image = RouterImage::default();
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
        let sessions = {
            let mut registry = plock(&self.registry);
            if index >= registry.len() {
                return Err(no_such_backend(index));
            }
            registry.set_state(index, BackendState::Draining);
            registry.sessions_on(index)
        };
        let moved = sessions
            .into_iter()
            .filter(|&session| self.with_op_lock(session, || self.hand_off(index, session)));
        Ok(moved.count())
    }

    /// Administratively declares a backend dead and re-homes all its
    /// sessions from shadow checkpoints. Returns how many sessions were
    /// recovered.
    ///
    /// # Errors
    ///
    /// Returns `InvalidInput` for an out-of-range index.
    pub fn mark_dead(&self, index: usize) -> std::io::Result<usize> {
        if index >= plock(&self.registry).len() {
            return Err(no_such_backend(index));
        }
        Ok(self.bury_backend(index))
    }

    /// One probe sweep over every eligible backend: a success clears a
    /// degraded state, a failure streak degrades and then buries.
    pub(crate) fn probe_sweep(&self) {
        let n = plock(&self.registry).len();
        for index in 0..n {
            let state = plock(&self.registry).backend(index).state;
            if !state.eligible() {
                continue;
            }
            let ok = self.links[index].probe();
            let mut registry = plock(&self.registry);
            let streak = registry.record_probe(index, ok);
            if ok {
                RouteMetrics::add(&self.metrics.probes_ok, 1);
                if registry.backend(index).state == BackendState::Degraded {
                    registry.set_state(index, BackendState::Healthy);
                    self.obs.event(format!("route: backend {index} recovered"));
                }
            } else {
                RouteMetrics::add(&self.metrics.probes_failed, 1);
                if streak >= DEAD_AFTER {
                    drop(registry);
                    self.bury_backend(index);
                } else if streak >= DEGRADED_AFTER
                    && registry.backend(index).state == BackendState::Healthy
                {
                    registry.set_state(index, BackendState::Degraded);
                    self.obs.event(format!(
                        "route: backend {index} degraded after {streak} failed probes"
                    ));
                }
            }
        }
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

    /// Sends one request to a backend over its link. Retry semantics
    /// live in the link (the mux rides `RetryAfter` and retries a stale
    /// connection once); only a failure beyond that counts here.
    fn send(&self, index: usize, request: &Request) -> Result<Response, String> {
        RouteMetrics::add(&self.metrics.requests_forwarded, 1);
        self.links[index].forward(request).map_err(|e| {
            RouteMetrics::add(&self.metrics.forward_failures, 1);
            format!(
                "backend {index} ({}): {e}",
                plock(&self.registry).backend(index).addr
            )
        })
    }

    /// Pulls a fresh checkpoint of `session` from `owner` into the shadow
    /// cache. Failure is tolerated (the previous shadow stays, and recovery
    /// falls back to the pre-operation state); only counted.
    fn refresh_shadow(&self, session: SessionId, owner: usize) {
        match self.send(owner, &Request::Checkpoint { session }) {
            Ok(Response::Checkpointed(blob)) => {
                self.store_shadow(session, blob);
                RouteMetrics::add(&self.metrics.shadow_refreshes, 1);
            }
            _ => RouteMetrics::add(&self.metrics.shadow_refresh_failures, 1),
        }
    }

    /// Re-homes one session off a failed backend using its shadow
    /// checkpoint. Returns the new owner, or `None` when recovery is
    /// impossible (no shadow, or no eligible backend).
    fn fail_over_session(&self, session: SessionId, dead: usize) -> Option<usize> {
        let _guard = plock(&self.handoff);
        {
            // Another thread may have re-homed it while we waited.
            let registry = plock(&self.registry);
            match registry.pinned(session) {
                Some(owner) if owner != dead => return Some(owner),
                _ => {}
            }
        }
        let blob = plock(&self.shadows).get(&session)?.blob.clone();
        let new = self.place(session, &blob, dead)?;
        self.pin_session(session, new);
        RouteMetrics::add(&self.metrics.failovers, 1);
        RouteMetrics::add(&self.metrics.sessions_handed_off, 1);
        self.obs.event(format!(
            "route: session {session} failed over from backend {dead} to {new}"
        ));
        Some(new)
    }

    /// Imports `blob` as `session` on its rendezvous choice among the
    /// eligible backends other than `from`; the caller holds the handoff
    /// lock. A backend the import cannot reach is marked dead and the
    /// next choice tried (its own sessions move on their next forward).
    /// Returns the backend that took the session.
    fn place(&self, session: SessionId, blob: &[u8], from: usize) -> Option<usize> {
        loop {
            let new = plock(&self.registry).rendezvous(session, Some(from))?;
            let import = Request::Handoff {
                session,
                blob: blob.to_vec(),
            };
            match self.send(new, &import) {
                // DuplicateSession means an earlier, ambiguously failed
                // import actually landed — the session is already there,
                // adopt it.
                Ok(Response::HandoffAck)
                | Ok(Response::Error {
                    code: ErrorCode::DuplicateSession,
                    ..
                }) => return Some(new),
                Ok(_) => return None,
                Err(reason) => {
                    self.obs.event(format!("route: import failed: {reason}"));
                    plock(&self.registry).set_state(new, BackendState::Dead);
                }
            }
        }
    }

    /// Declares a backend dead and re-homes every session pinned to it
    /// from the shadow cache. Returns how many sessions moved.
    fn bury_backend(&self, index: usize) -> usize {
        let sessions = {
            let mut registry = plock(&self.registry);
            registry.set_state(index, BackendState::Dead);
            registry.sessions_on(index)
        };
        self.obs.event(format!(
            "route: backend {index} declared dead, re-homing {} sessions",
            sessions.len()
        ));
        sessions
            .into_iter()
            .filter(|&s| self.fail_over_session(s, index).is_some())
            .count()
    }

    /// Routes one session-scoped request to its owner under the session's
    /// op lock, failing over and re-sending when the owner proves
    /// unreachable. Mutating successes refresh the session's shadow
    /// checkpoint afterwards; a client `Checkpoint`'s blob becomes the
    /// shadow as it passes.
    fn route_session_op(&self, session: SessionId, request: &Request) -> Response {
        if self.panic_session == Some(session)
            && matches!(request, Request::Step { .. })
            && !self.panic_fired.swap(true, Ordering::SeqCst)
        {
            // Injected fault (RouterConfig::fault_panic_session): die while
            // holding the registry lock — the worst-case poison a panicking
            // worker can leave for everyone else.
            let _guard = plock(&self.registry);
            panic!("injected route-worker panic (fault_panic_session)");
        }
        // Held across send and shadow write: a shadow refreshed after this
        // op's reply can never capture a later op of the same session.
        self.with_op_lock(session, || self.forward_session_op(session, request))
    }

    /// The body of [`Self::route_session_op`], run under the session's op
    /// lock.
    fn forward_session_op(&self, session: SessionId, request: &Request) -> Response {
        let is_create = matches!(request, Request::CreateSession { .. });
        let attempts = plock(&self.registry).len() + 1;
        let mut exclude = None;
        for _ in 0..attempts {
            let owner = {
                let registry = plock(&self.registry);
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
            match self.send(owner, request) {
                Ok(response) => {
                    match &response {
                        Response::Created => {
                            self.pin_session(session, owner);
                            self.refresh_shadow(session, owner);
                        }
                        Response::Stepped { .. } => self.refresh_shadow(session, owner),
                        Response::Checkpointed(blob) => self.store_shadow(session, blob.clone()),
                        _ => {}
                    }
                    return response;
                }
                Err(reason) => {
                    self.obs.event(format!("route: forward failed: {reason}"));
                    if is_create && plock(&self.registry).pinned(session).is_none() {
                        // The session exists nowhere yet: no shadow to carry,
                        // just place it on the next-best backend.
                        plock(&self.registry).set_state(owner, BackendState::Dead);
                        exclude = Some(owner);
                        continue;
                    }
                    if self.bury_backend(owner) == 0
                        && self.fail_over_session(session, owner).is_none()
                    {
                        return no_backend();
                    }
                }
            }
        }
        no_backend()
    }

    /// Moves `session` off the draining backend `index` (see
    /// [`Self::drain_backend`]); the caller holds its op lock. Returns
    /// whether it moved.
    fn hand_off(&self, index: usize, session: SessionId) -> bool {
        let (new, blob) = {
            let _guard = plock(&self.handoff);
            let (exported, blob) = match self.send(index, &Request::HandoffExport { session }) {
                Ok(Response::HandoffExported(blob)) => (true, blob),
                // Export failed (node died mid-drain): fall back to the
                // shadow checkpoint, exactly like a kill failover.
                _ => {
                    let Some(blob) = plock(&self.shadows).get(&session).map(|s| s.blob.clone())
                    else {
                        return false;
                    };
                    RouteMetrics::add(&self.metrics.failovers, 1);
                    (false, blob)
                }
            };
            let Some(new) = self.place(session, &blob, index) else {
                if exported {
                    // Nowhere took it: an exported session goes back to
                    // the draining node rather than being lost.
                    let _ = self.send(index, &Request::Handoff { session, blob });
                }
                return false;
            };
            (new, blob)
        };
        // Persisting happens outside the handoff guard (persist must
        // not run under the other locks; see the lock order above).
        self.pin_session(session, new);
        self.store_shadow(session, blob);
        RouteMetrics::add(&self.metrics.sessions_handed_off, 1);
        self.obs.event(format!(
            "route: session {session} handed off from backend {index} to {new}"
        ));
        true
    }

    /// The cluster view: the router's own observation merged with every
    /// live backend's, so `fleet.*` and `serve.*` are fleet-wide sums.
    /// The router's front records `decode`, `encode` and `request` spans
    /// like a backend's, so until nodes are labelled those three spans
    /// sum router and backend time.
    fn aggregate_observation(&self) -> Response {
        let mut merged = self.route_observation();
        for index in self.live_backends() {
            if let Ok(Response::Observed(observation)) = self.send(index, &Request::Observe) {
                merged.merge(&observation);
            }
        }
        Response::Observed(Box::new(merged))
    }

    /// The router's own observation: its observer's spans/events plus
    /// every `route.*` counter, per-state backend gauges, and (in durable
    /// mode) the state log's self-counters.
    fn route_observation(&self) -> Observation {
        let mut o = self.obs.observe();
        for (name, value) in self.counters().named() {
            o.push_counter(name, value);
        }
        if let Some(state) = &self.state {
            for (name, value) in plock(state).counters().named() {
                o.push_counter(name, value);
            }
        }
        let registry = plock(&self.registry);
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

    fn live_backends(&self) -> Vec<usize> {
        let registry = plock(&self.registry);
        (0..registry.len())
            .filter(|&i| registry.backend(i).state != BackendState::Dead)
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use chameleon_runtime::WallClock;
    use std::time::Duration;

    /// A backend that is never reachable.
    struct Unreachable;

    impl BackendLink for Unreachable {
        fn forward(&self, _: &Request) -> Result<Response, String> {
            Err("unreachable".to_string())
        }

        fn probe(&self) -> bool {
            false
        }
    }

    /// A core over one unreachable backend, recovering from the CHAMRTE1
    /// log in `dir` when one is given.
    fn open_core(dir: Option<&std::path::Path>) -> RouteCore {
        let config = RouterConfig {
            backends: vec!["a:1".to_string()],
            state_dir: dir.map(std::path::Path::to_path_buf),
            ..RouterConfig::default()
        };
        let obs = Arc::new(Observer::new(Arc::new(WallClock::new())));
        RouteCore::open(&config, vec![Arc::new(Unreachable)], obs).expect("open")
    }

    /// A backend holding a set of session ids: an export takes one out,
    /// an import puts one in.
    struct Holding {
        up: bool,
        held: Mutex<Vec<SessionId>>,
    }

    impl BackendLink for Holding {
        fn forward(&self, request: &Request) -> Result<Response, String> {
            if !self.up {
                return Err("down".to_string());
            }
            let mut held = plock(&self.held);
            Ok(match *request {
                Request::HandoffExport { session } if held.contains(&session) => {
                    held.retain(|&s| s != session);
                    Response::HandoffExported(Vec::new())
                }
                Request::Handoff { session, .. } => {
                    held.push(session);
                    Response::HandoffAck
                }
                _ => no_backend(),
            })
        }

        fn probe(&self) -> bool {
            self.up
        }
    }

    #[test]
    fn a_drain_with_nowhere_to_go_gives_the_session_back() {
        let links = [(true, vec![7]), (false, Vec::new())].map(|(up, held)| {
            Arc::new(Holding {
                up,
                held: Mutex::new(held),
            })
        });
        let config = RouterConfig {
            backends: vec!["a:1".to_string(), "b:1".to_string()],
            ..RouterConfig::default()
        };
        let obs = Arc::new(Observer::new(Arc::new(WallClock::new())));
        let core = RouteCore::open(
            &config,
            links
                .iter()
                .map(|l| Arc::clone(l) as Arc<dyn BackendLink>)
                .collect(),
            obs,
        )
        .expect("open");
        plock(&core.registry).pin(7, 0);
        // The only other backend is unreachable: the import fails, the
        // backend is marked dead, and the exported session goes home.
        assert_eq!(core.drain_backend(0).expect("drain"), 0);
        assert_eq!(*plock(&links[0].held), vec![7]);
        assert_eq!(core.owner_of(7), Some(0));
        assert_eq!(core.backend_states()[1].1, BackendState::Dead);
    }

    #[test]
    fn the_op_lock_table_keeps_only_locks_in_use() {
        // A Predict of an id the router never created is answered
        // UnknownSession before any forward.
        let core = open_core(None);
        for session in 0..1000 {
            let response = core.handle(&Request::Predict { session });
            assert!(matches!(
                response,
                Response::Error {
                    code: ErrorCode::UnknownSession,
                    ..
                }
            ));
        }
        assert!(plock(&core.op_locks).is_empty());
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
        let core = open_core(Some(&dir));
        core.store_shadow(3, b"eighth".to_vec());
        core.store_shadow(3, b"ninth".to_vec());
        drop(core);
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
        let core = Arc::new(open_core(Some(&dir)));
        plock(&core.registry).pin(1, 0);
        // Holding the shadow table parks the compaction this append
        // triggers inside `image()`, after it has read the pin table. No
        // hook marks the park, so the test waits for it; the fixed code
        // keeps pin 2 under any interleaving, and the wait only lets a
        // compaction outside the state lock show its loss.
        let shadows = plock(&core.shadows);
        let compactor = {
            let core = Arc::clone(&core);
            std::thread::spawn(move || core.persist(state::encode_pin(1, "a:1")))
        };
        std::thread::sleep(Duration::from_millis(100));
        // Meanwhile another worker pins session 2 and appends its record.
        plock(&core.registry).pin(2, 0);
        let (appended, on_append) = std::sync::mpsc::channel();
        let appender = {
            let core = Arc::clone(&core);
            std::thread::spawn(move || {
                let state = core.state.as_ref().expect("durable");
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
        let state = core.state.as_ref().expect("durable");
        assert_eq!(plock(state).counters().compactions, 1);
        drop(core);
        let (_, image) = StateLog::open(&dir).expect("reopen");
        assert_eq!(image.pins.get(&1).map(String::as_str), Some("a:1"));
        assert_eq!(image.pins.get(&2).map(String::as_str), Some("a:1"));
        let _ = std::fs::remove_dir_all(&dir);
    }
}
