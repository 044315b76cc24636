//! The routing proxy: CHAMWIRE in front, N CHAMWIRE backends behind.
//!
//! A shell around the socket-free [`RouteCore`] (`routing.rs`), which
//! decides everything. Clients are served by the same CHAMWIRE front end
//! as a server's ([`chameleon_serve::front`]), whose dispatch callback
//! hands each request to [`RouteCore::handle`] on the connection's worker
//! thread; the core reaches each backend over one shared [`MuxConnection`]
//! (`mux.rs`). A probe thread runs the core's probe sweep on the injected
//! clock. There is no engine thread: the router holds no sessions.

use std::io::ErrorKind;
use std::net::SocketAddr;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

use chameleon_fleet::SessionId;
use chameleon_obs::Observer;
use chameleon_runtime::{Clock, WallClock};
use chameleon_serve::front::{Dispatch, Front, WRITE_TIMEOUT};
use chameleon_serve::wire::{Request, Response, MAX_PAYLOAD_BYTES};
use chameleon_stream::ConfigError;

use crate::mux::{MuxConnection, MuxOptions};
use crate::registry::BackendState;
use crate::routing::{BackendLink, RouteCore, RouteCounters, SALT};

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

impl BackendLink for MuxConnection {
    fn forward(&self, request: &Request) -> Result<Response, String> {
        self.request(request).map_err(|e| e.to_string())
    }

    /// An `Observe` answered by the backend's engine thread, riding the
    /// small `PROBE_RETRIES` budget.
    fn probe(&self) -> bool {
        matches!(
            self.request_with_budget(&Request::Observe, PROBE_RETRIES),
            Ok(Response::Observed(_))
        )
    }
}

/// A running routing proxy.
///
/// Dropping the router shuts it down gracefully; [`Router::shutdown`]
/// does the same explicitly and is idempotent.
pub struct Router {
    front: Front,
    core: Arc<RouteCore>,
    observer: Arc<Observer>,
    stop: Arc<AtomicBool>,
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

        let links = config
            .backends
            .iter()
            .enumerate()
            .map(|(index, addr)| {
                Arc::new(MuxConnection::new(
                    addr.clone(),
                    MuxOptions {
                        max_payload: MAX_PAYLOAD_BYTES,
                        write_timeout: WRITE_TIMEOUT,
                        request_timeout: REQUEST_TIMEOUT,
                        retry_budget: BACKEND_RETRIES,
                        clock: Arc::clone(&clock),
                        backoff_seed: SALT ^ (index as u64 + 1),
                    },
                )) as Arc<dyn BackendLink>
            })
            .collect();
        let observer = Arc::new(Observer::new(Arc::clone(&clock)));
        let core = Arc::new(RouteCore::open(&config, links, Arc::clone(&observer))?);

        let dispatch: Dispatch = {
            let core = Arc::clone(&core);
            Arc::new(move |request, reply| reply.send(core.handle(&request)))
        };
        let front = Front::start(
            &config.addr,
            config.workers,
            Arc::clone(&observer),
            dispatch,
        )?;
        let _ = core.front.set(front.metrics());

        let stop = Arc::new(AtomicBool::new(false));
        let prober = {
            let (core, stop) = (Arc::clone(&core), Arc::clone(&stop));
            let interval = config.probe_interval;
            std::thread::Builder::new()
                .name("route-prober".to_string())
                .spawn(move || {
                    while !stop.load(Ordering::Relaxed) {
                        core.probe_sweep();
                        clock.sleep(interval);
                    }
                })
                .expect("spawn route prober")
        };

        Ok(Self {
            front,
            core,
            observer,
            stop,
            prober: Some(prober),
        })
    }

    /// The bound address (resolves port 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.front.local_addr()
    }

    /// Snapshot of the router's counters.
    pub fn metrics(&self) -> RouteCounters {
        self.core.counters()
    }

    /// The router's span recorder + event log (merged into `Observe`
    /// responses alongside the backends').
    pub fn observer(&self) -> Arc<Observer> {
        Arc::clone(&self.observer)
    }

    /// Each backend's address and current lifecycle state.
    pub fn backend_states(&self) -> Vec<(String, BackendState)> {
        self.core.backend_states()
    }

    /// Where `session` is currently pinned, if anywhere.
    pub fn owner_of(&self, session: SessionId) -> Option<usize> {
        self.core.owner_of(session)
    }

    /// Administratively drains a backend; see
    /// [`RouteCore::drain_backend`]. Returns how many sessions moved.
    ///
    /// # Errors
    ///
    /// Returns `InvalidInput` for an out-of-range index.
    pub fn drain_backend(&self, index: usize) -> std::io::Result<usize> {
        self.core.drain_backend(index)
    }

    /// Administratively declares a backend dead and re-homes all its
    /// sessions from shadow checkpoints. Returns how many sessions were
    /// recovered.
    ///
    /// # Errors
    ///
    /// Returns `InvalidInput` for an out-of-range index.
    pub fn mark_dead(&self, index: usize) -> std::io::Result<usize> {
        self.core.mark_dead(index)
    }

    /// Graceful shutdown: stop accepting, join the front's workers and
    /// the prober. Idempotent. Backends are left running — they are not
    /// the router's to stop.
    pub fn shutdown(&mut self) {
        self.stop.store(true, Ordering::Relaxed);
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
