//! `chameleon-serve`: a dependency-free TCP serving layer in front of the
//! [`chameleon_fleet`] engine, speaking **CHAMWIRE** — a versioned,
//! length-prefixed, CRC32-sealed binary frame protocol with request
//! correlation ids.
//!
//! The Chameleon paper's deployment target is an edge gateway hosting
//! many users' continual-learning sessions. `chameleon-fleet` provides
//! the in-process hosting layer; this crate puts it behind a socket so
//! the same sessions can be driven by out-of-process clients — with the
//! determinism contract intact: a session driven over the wire produces
//! **bit-identical** `CHAMFLT1` checkpoints to the same session driven
//! in-process (held by `tests/serve.rs`).
//!
//! * [`wire`] — the CHAMWIRE codec: frames, requests, responses, typed
//!   [`wire::WireError`]s. Decoding is total (fuzzed in
//!   `tests/wire_fuzz.rs`): corrupt bytes yield errors, never panics or
//!   unbounded allocations.
//! * [`front`] — the one CHAMWIRE front end: acceptor, bounded
//!   connection-worker pool and a writer thread per connection, with
//!   fixed socket timeouts and the 64 MiB payload cap. It answers `Ping`
//!   itself and hands every other request, with a reply handle, to a
//!   dispatch callback. The server and `chameleon-route`'s router are
//!   its two callers; its [`ServeCounters`] and its `decode`, `encode`
//!   and `request` spans are theirs.
//! * [`Server`] — the front in front of one engine thread owning the
//!   [`chameleon_fleet::FleetEngine`]; graceful drain-then-join shutdown;
//!   per-server [`ServeCounters`], and each request's end-to-end latency
//!   as the `request` span of the server's observer, both answered by one
//!   [`wire::Request::Observe`]. Fleet backpressure surfaces as
//!   wire-level [`wire::Response::RetryAfter`] — the connection stays
//!   open.
//! * [`Connection`] — the client: typed helpers, retry/backoff honoring
//!   the server's `RetryAfter` hint.
//!
//! Everything is `std` only: `std::net` sockets, `std::thread` workers,
//! `std::sync::mpsc` queues.
//!
//! # Example
//!
//! ```
//! use std::sync::Arc;
//! use chameleon_core::ChameleonConfig;
//! use chameleon_fleet::{FleetConfig, SessionSpec};
//! use chameleon_serve::{Connection, ServeConfig, Server};
//! use chameleon_stream::{DatasetSpec, DomainIlScenario, StreamConfig};
//!
//! fn run() -> Result<(), Box<dyn std::error::Error>> {
//!     let scenario = Arc::new(DomainIlScenario::generate(&DatasetSpec::core50_tiny(), 1));
//!     let mut server = Server::start(scenario, FleetConfig::default(), ServeConfig::default())?;
//!     let mut client = Connection::connect(server.local_addr())?;
//!     client.ping()?;
//!     let spec = SessionSpec {
//!         learner: ChameleonConfig::default(),
//!         stream: StreamConfig::default(),
//!         learner_seed: 7,
//!         stream_seed: 7,
//!     };
//!     client.create_session(7, spec)?;
//!     let delivered = client.run_to_completion(7, 8)?;
//!     assert!(delivered > 0);
//!     let blob = client.checkpoint(7)?;
//!     assert_eq!(&blob[..8], chameleon_fleet::FLEET_MAGIC);
//!     server.shutdown();
//!     Ok(())
//! }
//! run().expect("serve example");
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod client;
pub mod front;
mod metrics;
mod server;
pub mod wire;

pub use client::{jittered_backoff_millis, ClientError, Connection, DEFAULT_STALL_BUDGET};
pub use metrics::{ServeCounters, ServeMetrics};
pub use server::{ServeConfig, Server};
