//! `chameleon-route`: the multi-node routing tier.
//!
//! A [`Router`] is a CHAMWIRE proxy in front of N `chameleon-serve`
//! backends. Clients speak the exact same protocol to the router as to a
//! single server, and meet the same socket: the router serves them
//! through the server's own front end ([`chameleon_serve::front`]), whose
//! dispatch callback here routes each request. The router assigns each
//! session to a backend by rendezvous hashing, forwards its operations
//! there, and keeps a *shadow checkpoint* (the session's latest
//! `CHAMFLT1` blob) refreshed after every mutating operation.
//!
//! Backends move through lifecycle states
//! ([`BackendState::Healthy`] → `Degraded` → `Dead`, plus administrative
//! `Draining`) driven by periodic CHAMWIRE `Observe` probes. When a
//! backend drains, its sessions are handed off live: `HandoffExport` on
//! the old owner captures-and-forgets the session, `Handoff` delivers
//! the blob to the rendezvous successor. When a backend dies without
//! warning, the router re-homes its sessions from the shadow
//! checkpoints instead — recovering each session to its last
//! acknowledged state, so re-sending the in-flight operation reproduces
//! exactly the single-node outcome. Because import admits the blob
//! through the same restore path as eviction recovery, handoff inherits
//! the repo-wide bit-identity guarantee: the final checkpoint of a
//! session is byte-for-byte independent of how often (or when) it moved.
//!
//! The router talks to each backend over **one multiplexed connection**
//! ([`MuxConnection`]): workers tag frames with correlation ids and a
//! per-backend reader thread wakes the matching sender, so backend
//! worker pools no longer have to be sized to the router's. With a state
//! directory configured ([`RouterConfig::state_dir`]), pins and shadow
//! checkpoints are also persisted to an append-only CHAMRTE1 log
//! ([`state`]) and recovered on start — a restarted router resumes
//! routing, pinning, and failover where it left off.
//!
//! ```no_run
//! use chameleon_route::{Router, RouterConfig};
//!
//! let router = Router::start(RouterConfig {
//!     addr: "127.0.0.1:0".into(),
//!     backends: vec!["127.0.0.1:7001".into(), "127.0.0.1:7002".into()],
//!     ..RouterConfig::default()
//! })?;
//! println!("routing on {}", router.local_addr());
//! # Ok::<(), std::io::Error>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod mux;
mod registry;
mod router;
pub mod state;

pub use mux::{MuxConnection, MuxError, MuxOptions};
pub use registry::{Backend, BackendState, Registry};
pub use router::{RouteCounters, Router, RouterConfig};

/// Locks a mutex, recovering the data behind a poisoned lock instead of
/// propagating the panic. One router worker dying mid-request must not
/// brick every other worker and the prober; all router state updates are
/// single-key inserts/removes that are valid at every intermediate
/// point, so the data behind a poisoned lock is always safe to keep
/// serving.
pub(crate) fn plock<T>(mutex: &std::sync::Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    mutex
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
}
