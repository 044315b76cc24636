//! One correlation-keyed multiplexed connection per backend.
//!
//! The router used to hold a lazy connection pool *per worker* (plus one
//! for the prober), which is why backends had to be sized `serve workers
//! ≥ router workers + 2` — an undersized backend left surplus router
//! connections parked in the accept queue, presenting as a silent
//! multi-second stall. A [`MuxConnection`] deletes that failure mode: N
//! router workers share **one socket per backend**. The sending worker
//! tags its frame with a fresh correlation id and parks on a condvar; a
//! dedicated reader thread decodes response frames as they arrive (in
//! any order — the backend serves its side pipelined) and wakes exactly
//! the worker whose id matches.
//!
//! Failure semantics mirror the old per-worker pool so the router's
//! bury/failover logic is unchanged: a request that fails on an
//! *established* connection gets exactly one retry on a fresh connect,
//! and only a failure on that fresh connect counts against the backend.
//! What the pool could not do — bound a backend that accepts but never
//! answers — the mux does with a per-request timeout: a silent stall is
//! now a typed [`MuxError::TimedOut`] that feeds the normal probe/bury
//! path instead of hanging a worker forever.

use std::collections::HashMap;
use std::io::Write;
use std::net::{Shutdown, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::Duration;

use chameleon_runtime::{splitmix64, Clock, SimRng};
use chameleon_serve::jittered_backoff_millis;
use chameleon_serve::wire::{encode_frame, read_frame, Request, Response};

use crate::plock;

/// Why a multiplexed request failed at the connection level. A typed
/// error *response* from the backend is a success at this layer.
#[derive(Clone, Debug)]
pub enum MuxError {
    /// Could not establish a connection to the backend.
    Connect(String),
    /// The connection died before the response arrived.
    Broken {
        /// What killed the connection.
        reason: String,
        /// Whether the connection was established by this very request
        /// (a fresh-connect failure is the signal that the backend
        /// itself is down, not that an idle socket went stale).
        was_fresh: bool,
    },
    /// No response within the request timeout.
    TimedOut {
        /// How long the request waited.
        waited: Duration,
        /// See [`MuxError::Broken::was_fresh`].
        was_fresh: bool,
    },
    /// The backend kept answering `RetryAfter` past the retry budget.
    Saturated {
        /// Attempts made before giving up.
        attempts: u32,
    },
}

impl MuxError {
    fn was_fresh(&self) -> bool {
        match self {
            Self::Connect(_) | Self::Saturated { .. } => true,
            Self::Broken { was_fresh, .. } | Self::TimedOut { was_fresh, .. } => *was_fresh,
        }
    }
}

impl std::fmt::Display for MuxError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::Connect(reason) => write!(f, "connect failed: {reason}"),
            Self::Broken { reason, .. } => write!(f, "connection broke: {reason}"),
            Self::TimedOut { waited, .. } => {
                write!(f, "no response within {} ms", waited.as_millis())
            }
            Self::Saturated { attempts } => {
                write!(f, "backend still saturated after {attempts} attempts")
            }
        }
    }
}

impl std::error::Error for MuxError {}

/// Tunables for one [`MuxConnection`].
#[derive(Clone)]
pub struct MuxOptions {
    /// Response payload cap enforced by the reader.
    pub max_payload: usize,
    /// Socket write timeout (a peer that stops reading errors the send
    /// instead of wedging every worker behind the writer lock).
    pub write_timeout: Duration,
    /// How long one request may wait for its response before it becomes
    /// a typed [`MuxError::TimedOut`].
    pub request_timeout: Duration,
    /// `RetryAfter` rides before [`MuxError::Saturated`].
    pub retry_budget: u32,
    /// Clock for backoff sleeps. Request deadlines deliberately do NOT
    /// ride this clock: they are measured on a monotonic wall source so
    /// the timeout guarantee holds even under a frozen simulated clock.
    pub clock: Arc<dyn Clock>,
    /// Seed for backoff jitter (decorrelates workers that are turned
    /// away together).
    pub backoff_seed: u64,
}

/// What a parked sender's slot holds.
enum Slot {
    /// Sender is parked; the slot belongs to connection `generation`.
    Waiting { generation: u64 },
    /// Reader delivered the response.
    Done(Response),
    /// The connection carrying this request died.
    Failed(String),
}

/// The write half plus connection lifecycle, guarded by one mutex.
/// Lock order: `writer` before `pending`, never the reverse.
struct WriterSlot {
    stream: Option<TcpStream>,
    /// Bumped on every successful connect; slots and readers carry the
    /// generation they belong to so a stale reader can never complete
    /// (or fail) a request riding a newer connection.
    generation: u64,
    reader: Option<JoinHandle<()>>,
}

struct MuxInner {
    addr: String,
    options: MuxOptions,
    writer: Mutex<WriterSlot>,
    pending: Mutex<HashMap<u64, Slot>>,
    completed: Condvar,
    next_correlation: AtomicU64,
    stop: AtomicBool,
}

/// A shared, multiplexed CHAMWIRE connection to one backend. All methods
/// take `&self`: every router worker and the prober send through the
/// same instance (the router keeps one per backend behind an `Arc`).
pub struct MuxConnection {
    inner: Arc<MuxInner>,
    backoff: Mutex<SimRng>,
}

impl MuxInner {
    /// Kills generation `gen`'s socket (if still current) and fails every
    /// request parked on it.
    fn teardown(&self, gen: u64, reason: &str) {
        {
            let mut writer = plock(&self.writer);
            if writer.generation == gen {
                if let Some(stream) = writer.stream.take() {
                    let _ = stream.shutdown(Shutdown::Both);
                }
            }
        }
        let mut pending = plock(&self.pending);
        for slot in pending.values_mut() {
            if matches!(slot, Slot::Waiting { generation } if *generation == gen) {
                *slot = Slot::Failed(reason.to_string());
            }
        }
        self.completed.notify_all();
    }
}

impl MuxConnection {
    /// Creates the handle. No I/O happens until the first request — the
    /// socket is (re)established lazily, exactly like the old pools.
    pub fn new(addr: String, options: MuxOptions) -> Self {
        let backoff_seed = splitmix64(options.backoff_seed ^ 0xB0FF);
        Self {
            inner: Arc::new(MuxInner {
                addr,
                options,
                writer: Mutex::new(WriterSlot {
                    stream: None,
                    generation: 0,
                    reader: None,
                }),
                pending: Mutex::new(HashMap::new()),
                completed: Condvar::new(),
                next_correlation: AtomicU64::new(1),
                stop: AtomicBool::new(false),
            }),
            backoff: Mutex::new(SimRng::new(backoff_seed)),
        }
    }

    /// Sends `request` and waits for its correlated response, riding
    /// `RetryAfter` backpressure up to the configured budget and
    /// retrying exactly once on a fresh connection if an *established*
    /// socket fails mid-request.
    ///
    /// # Errors
    ///
    /// A [`MuxError`] once the retry/backoff budget is exhausted.
    pub fn request(&self, request: &Request) -> Result<Response, MuxError> {
        self.request_with_budget(request, self.inner.options.retry_budget)
    }

    /// [`Self::request`] with an explicit `RetryAfter` budget (the
    /// prober uses a small one so a saturated backend is detected in
    /// bounded time).
    ///
    /// # Errors
    ///
    /// Same contract as [`Self::request`].
    pub fn request_with_budget(
        &self,
        request: &Request,
        budget: u32,
    ) -> Result<Response, MuxError> {
        let mut fresh_retry_used = false;
        let mut boost: u64 = 0;
        let mut attempts: u32 = 0;
        loop {
            match self.send_once(request) {
                Ok(Response::RetryAfter { millis }) => {
                    // Backpressure, not failure: back off (jittered, so
                    // turned-away workers don't re-arrive in lockstep)
                    // and go again with a fresh correlation id.
                    attempts += 1;
                    if attempts > budget {
                        return Err(MuxError::Saturated { attempts });
                    }
                    let sleep = {
                        let mut rng = plock(&self.backoff);
                        jittered_backoff_millis(&mut rng, millis, boost)
                    };
                    boost = (boost * 2).clamp(1, 64);
                    self.inner.options.clock.sleep(Duration::from_millis(sleep));
                }
                Ok(response) => return Ok(response),
                Err(error) => {
                    // Exactly one retry, and only when the failure was on
                    // an established connection — a *fresh* connect that
                    // fails means the backend is genuinely unreachable.
                    if !error.was_fresh() && !fresh_retry_used {
                        fresh_retry_used = true;
                        continue;
                    }
                    return Err(error);
                }
            }
        }
    }

    /// One send/park/wake round trip with a fresh correlation id.
    fn send_once(&self, request: &Request) -> Result<Response, MuxError> {
        let inner = &*self.inner;
        let correlation = inner.next_correlation.fetch_add(1, Ordering::Relaxed);
        let frame = encode_frame(&request.encode_payload(correlation));
        let mut was_fresh = false;
        let mut writer = plock(&inner.writer);
        // Reap a dead generation's reader with the writer lock RELEASED:
        // its exit path acquires this very lock, so joining while holding
        // it deadlocks (sender parked in join, reader parked on the lock)
        // and wedges every worker sharing this backend. Loop because the
        // lock is given up across the join — another sender may have
        // reconnected (stream back) or raced us to the handle.
        while writer.stream.is_none() {
            let Some(handle) = writer.reader.take() else {
                break;
            };
            drop(writer);
            let _ = handle.join();
            writer = plock(&inner.writer);
        }
        if writer.stream.is_none() {
            was_fresh = true;
            self.connect(&mut writer)?;
        }
        let generation = writer.generation;
        // Register the slot *before* the bytes leave: a response racing
        // back on another core must find someone to wake.
        plock(&inner.pending).insert(correlation, Slot::Waiting { generation });
        let stream = writer.stream.as_mut().expect("connected above");
        if let Err(e) = stream.write_all(&frame) {
            // Inline teardown — we already hold the writer lock.
            if let Some(stream) = writer.stream.take() {
                let _ = stream.shutdown(Shutdown::Both);
            }
            drop(writer);
            let reason = format!("write failed: {e}");
            let mut pending = plock(&inner.pending);
            pending.remove(&correlation);
            for slot in pending.values_mut() {
                if matches!(slot, Slot::Waiting { generation: g } if *g == generation) {
                    *slot = Slot::Failed(reason.clone());
                }
            }
            inner.completed.notify_all();
            return Err(MuxError::Broken { reason, was_fresh });
        }
        drop(writer);
        self.wait(correlation, generation, was_fresh)
    }

    /// Establishes the socket and spawns its reader. Caller holds the
    /// writer lock and has already reaped the previous generation's
    /// reader thread — never join here: the reader's exit path takes the
    /// writer lock, so a join under it deadlocks. (A leftover handle, if
    /// any, is detached by the `writer.reader` assignment below, which is
    /// safe — generation checks keep a stale reader from touching newer
    /// requests.)
    fn connect(&self, writer: &mut WriterSlot) -> Result<(), MuxError> {
        let stream =
            TcpStream::connect(&self.inner.addr).map_err(|e| MuxError::Connect(e.to_string()))?;
        let _ = stream.set_nodelay(true);
        let _ = stream.set_write_timeout(Some(self.inner.options.write_timeout));
        let reader_stream = stream
            .try_clone()
            .map_err(|e| MuxError::Connect(e.to_string()))?;
        writer.generation += 1;
        let generation = writer.generation;
        writer.stream = Some(stream);
        let inner = Arc::clone(&self.inner);
        writer.reader = Some(
            std::thread::Builder::new()
                .name("route-mux-reader".to_string())
                .spawn(move || reader_loop(&inner, reader_stream, generation))
                .expect("spawn mux reader"),
        );
        Ok(())
    }

    /// Parks until the reader resolves `correlation`, the connection
    /// dies, or the request deadline passes.
    fn wait(
        &self,
        correlation: u64,
        generation: u64,
        was_fresh: bool,
    ) -> Result<Response, MuxError> {
        let inner = &*self.inner;
        let timeout = inner.options.request_timeout;
        // Monotonic wall deadline, NOT the injected clock: the condvar
        // below waits real-time slices, so a deadline on a frozen
        // simulated clock would never arrive and a wedged backend would
        // busy-poll forever — the exact silent stall the timeout exists
        // to type.
        let started = std::time::Instant::now();
        let mut pending = plock(&inner.pending);
        loop {
            match pending.get(&correlation) {
                Some(Slot::Waiting { .. }) => {}
                Some(Slot::Done(_)) => match pending.remove(&correlation) {
                    Some(Slot::Done(response)) => return Ok(response),
                    _ => unreachable!("slot checked above"),
                },
                Some(Slot::Failed(_)) => match pending.remove(&correlation) {
                    Some(Slot::Failed(reason)) => {
                        return Err(MuxError::Broken { reason, was_fresh })
                    }
                    _ => unreachable!("slot checked above"),
                },
                None => {
                    return Err(MuxError::Broken {
                        reason: "request slot vanished".to_string(),
                        was_fresh,
                    })
                }
            }
            if started.elapsed() >= timeout {
                pending.remove(&correlation);
                drop(pending);
                // A backend that accepts but never answers is wedged;
                // drop the socket so the next request probes it fresh
                // (and everyone else parked on it fails fast too).
                inner.teardown(generation, "request timed out");
                return Err(MuxError::TimedOut {
                    waited: timeout,
                    was_fresh,
                });
            }
            let (guard, _) = inner
                .completed
                .wait_timeout(pending, Duration::from_millis(25))
                .unwrap_or_else(std::sync::PoisonError::into_inner);
            pending = guard;
        }
    }
}

impl Drop for MuxConnection {
    fn drop(&mut self) {
        self.inner.stop.store(true, Ordering::Relaxed);
        let (gen, handle) = {
            let mut writer = plock(&self.inner.writer);
            if let Some(stream) = writer.stream.take() {
                let _ = stream.shutdown(Shutdown::Both);
            }
            (writer.generation, writer.reader.take())
        };
        self.inner.teardown(gen, "router shutting down");
        if let Some(handle) = handle {
            let _ = handle.join();
        }
    }
}

/// Owns the read half of one connection generation: decode response
/// frames as they arrive (any order) and wake the matching sender.
fn reader_loop(inner: &MuxInner, mut stream: TcpStream, generation: u64) {
    let reason = loop {
        if inner.stop.load(Ordering::Relaxed) {
            break "router shutting down".to_string();
        }
        let payload = match read_frame(&mut stream, inner.options.max_payload) {
            Ok(Ok(payload)) => payload,
            Ok(Err(e)) => break format!("bad response frame: {e}"),
            Err(e) => break format!("read failed: {e}"),
        };
        let (correlation, response) = match Response::decode_payload(&payload) {
            Ok(decoded) => decoded,
            Err(e) => break format!("undecodable response: {e}"),
        };
        if correlation == 0 {
            // Connection-level turn-away (the backend's acceptor was
            // saturated before it read anything): nobody in particular
            // was addressed, so everyone parked on this connection gets
            // the RetryAfter and rides their own backoff.
            let millis = match response {
                Response::RetryAfter { millis } => millis,
                _ => 0,
            };
            let mut pending = plock(&inner.pending);
            for slot in pending.values_mut() {
                if matches!(slot, Slot::Waiting { generation: g } if *g == generation) {
                    *slot = Slot::Done(Response::RetryAfter { millis });
                }
            }
            inner.completed.notify_all();
            drop(pending);
            break "turned away by saturated acceptor".to_string();
        }
        let mut pending = plock(&inner.pending);
        if let Some(slot) = pending.get_mut(&correlation) {
            if matches!(slot, Slot::Waiting { generation: g } if *g == generation) {
                *slot = Slot::Done(response);
                inner.completed.notify_all();
            }
        }
        // A correlation nobody waits for (sender timed out and left) is
        // dropped on the floor — its slot is already gone.
    };
    // Connection over: clear the write half (if still ours) and fail
    // whoever is still parked on this generation.
    inner.teardown(generation, &reason);
}

#[cfg(test)]
mod tests {
    use super::*;
    use chameleon_runtime::WallClock;
    use std::io::Read;
    use std::net::TcpListener;

    fn options() -> MuxOptions {
        MuxOptions {
            max_payload: chameleon_serve::wire::MAX_PAYLOAD_BYTES,
            write_timeout: Duration::from_secs(5),
            request_timeout: Duration::from_secs(5),
            retry_budget: 4,
            clock: WallClock::shared(),
            backoff_seed: 7,
        }
    }

    #[test]
    fn fresh_connect_failure_is_not_retried() {
        // Nothing listens on this address: the first (fresh) connect
        // fails and there is no second attempt to hide behind.
        let port = {
            let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
            listener.local_addr().expect("addr").port()
        }; // listener dropped: port is free but closed
        let mux = MuxConnection::new(format!("127.0.0.1:{port}"), options());
        match mux.request(&Request::Ping) {
            Err(MuxError::Connect(_)) => {}
            other => panic!("expected connect failure, got {other:?}"),
        }
    }

    #[test]
    fn concurrent_senders_each_get_their_own_response() {
        // A hand-rolled backend that answers deliberately OUT OF ORDER:
        // it buffers both requests, then replies to the second first.
        // Correlation routing must still hand each sender its own reply.
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let addr = listener.local_addr().expect("addr");
        let server = std::thread::spawn(move || {
            let (mut conn, _) = listener.accept().expect("accept");
            let mut correlations = Vec::new();
            let mut buf = Vec::new();
            let mut scratch = [0u8; 4096];
            while correlations.len() < 2 {
                let n = conn.read(&mut scratch).expect("read");
                buf.extend_from_slice(&scratch[..n]);
                while let Ok((payload, used)) = chameleon_serve::wire::decode_frame(
                    &buf,
                    chameleon_serve::wire::MAX_PAYLOAD_BYTES,
                ) {
                    let (corr, _req) = Request::decode_payload(&payload).expect("decode");
                    correlations.push(corr);
                    buf.drain(..used);
                }
            }
            for corr in correlations.iter().rev() {
                let frame = encode_frame(&Response::Pong.encode_payload(*corr));
                conn.write_all(&frame).expect("write");
            }
        });
        let mux = Arc::new(MuxConnection::new(addr.to_string(), options()));
        let senders: Vec<_> = (0..2)
            .map(|_| {
                let mux = Arc::clone(&mux);
                std::thread::spawn(move || mux.request(&Request::Ping))
            })
            .collect();
        for sender in senders {
            match sender.join().expect("join") {
                Ok(Response::Pong) => {}
                other => panic!("expected Pong, got {other:?}"),
            }
        }
        server.join().expect("server");
    }

    #[test]
    fn wedged_backend_times_out_instead_of_stalling_silently() {
        // A backend that accepts and then never answers: the old pool
        // hung a router worker forever; the mux returns a typed timeout.
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let addr = listener.local_addr().expect("addr");
        let hold = std::thread::spawn(move || {
            let (conn, _) = listener.accept().expect("accept");
            std::thread::sleep(Duration::from_millis(500));
            drop(conn);
        });
        let mut opts = options();
        opts.request_timeout = Duration::from_millis(100);
        let mux = MuxConnection::new(addr.to_string(), opts);
        match mux.request(&Request::Ping) {
            Err(MuxError::TimedOut { .. }) => {}
            other => panic!("expected timeout, got {other:?}"),
        }
        hold.join().expect("hold");
    }

    #[test]
    fn request_times_out_under_a_frozen_clock() {
        // The injected clock never advances: the deadline must still
        // arrive, because it rides a monotonic wall source rather than
        // the injected clock (whose condvar slices wait real time).
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let addr = listener.local_addr().expect("addr");
        let hold = std::thread::spawn(move || {
            let (conn, _) = listener.accept().expect("accept");
            std::thread::sleep(Duration::from_millis(500));
            drop(conn);
        });
        let mut opts = options();
        opts.request_timeout = Duration::from_millis(100);
        opts.clock = Arc::new(chameleon_runtime::VirtualClock::new());
        let mux = MuxConnection::new(addr.to_string(), opts);
        match mux.request(&Request::Ping) {
            Err(MuxError::TimedOut { .. }) => {}
            other => panic!("expected timeout, got {other:?}"),
        }
        hold.join().expect("hold");
    }

    #[test]
    fn timed_out_connection_recovers_on_the_next_request() {
        // After a timeout tears the connection down, the wedged
        // generation's reader is still unwinding (its exit path needs
        // the writer lock). The next request must reap it WITHOUT
        // deadlocking — joining under the writer lock wedged the whole
        // mux — then reconnect and succeed.
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let addr = listener.local_addr().expect("addr");
        let server = std::thread::spawn(move || {
            // First connection: accept and never answer.
            let (wedged, _) = listener.accept().expect("accept");
            // Second connection (the mux reconnecting): answer properly.
            let (mut conn, _) = listener.accept().expect("accept");
            drop(wedged);
            let mut buf = Vec::new();
            let mut scratch = [0u8; 4096];
            loop {
                let n = conn.read(&mut scratch).expect("read");
                if n == 0 {
                    return;
                }
                buf.extend_from_slice(&scratch[..n]);
                if let Ok((payload, _)) = chameleon_serve::wire::decode_frame(
                    &buf,
                    chameleon_serve::wire::MAX_PAYLOAD_BYTES,
                ) {
                    let (corr, _req) = Request::decode_payload(&payload).expect("decode");
                    let frame = encode_frame(&Response::Pong.encode_payload(corr));
                    conn.write_all(&frame).expect("write");
                    return;
                }
            }
        });
        let mut opts = options();
        opts.request_timeout = Duration::from_millis(100);
        let mux = MuxConnection::new(addr.to_string(), opts);
        match mux.request(&Request::Ping) {
            Err(MuxError::TimedOut { .. }) => {}
            other => panic!("expected timeout, got {other:?}"),
        }
        match mux.request(&Request::Ping) {
            Ok(Response::Pong) => {}
            other => panic!("expected Pong after reconnect, got {other:?}"),
        }
        server.join().expect("server");
    }
}
