//! The CHAMWIRE front end: an acceptor thread, a bounded pool of
//! connection workers, and one writer thread per connection. Both the
//! [`crate::Server`] and `chameleon-route`'s router serve their clients
//! through it; the only thing a caller adds is a [`Dispatch`] callback
//! that answers each decoded request.
//!
//! Threading model:
//!
//! * **connection workers** pull accepted sockets from a shared queue and
//!   speak CHAMWIRE: split frames, verify CRCs, decode requests, answer
//!   `Ping` in place and hand every other request to the dispatch
//!   callback. Requests are served *pipelined*: the worker keeps reading
//!   and dispatching frames while earlier requests are still unanswered,
//!   and a per-connection **writer thread** sends responses back as they
//!   resolve — out of order is fine, the correlation id is what pairs
//!   them. One slow request therefore never head-of-line blocks the
//!   socket, and a peer multiplexing many logical streams over a single
//!   connection (the router's per-backend connection) gets full
//!   engine-side parallelism from one socket. Read timeouts double as the
//!   idle clock — a connection silent for 30 s is reaped;
//! * the **acceptor** admits sockets into the bounded worker queue; when
//!   the queue is full it turns the connection away with a `RetryAfter`
//!   frame rather than letting it queue unbounded.
//!
//! [`Front::shutdown`] raises the stop flag, wakes the acceptor (a
//! loopback self-connect) and joins it, then joins the workers. Each
//! worker finishes the frames it has already read and joins its writer,
//! which exits once every reply handle of that connection is answered or
//! dropped.

use std::io::{ErrorKind, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{self, Receiver, SyncSender, TrySendError};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::Duration;

use chameleon_obs::{Observer, Stage};
use chameleon_runtime::{timed, Clock};

use crate::metrics::ServeMetrics;
use crate::wire::{
    correlation_of, decode_frame, encode_frame, ErrorCode, Request, Response, WireError,
    FRAME_OVERHEAD, MAX_PAYLOAD_BYTES,
};

/// Socket read timeout. This is also the granularity at which a worker
/// notices the stop flag and advances the idle clock.
const READ_TIMEOUT: Duration = Duration::from_millis(25);
/// Socket write timeout; a peer that stops reading is disconnected.
pub const WRITE_TIMEOUT: Duration = Duration::from_secs(5);
/// A connection silent for this long is reaped.
const IDLE_TIMEOUT: Duration = Duration::from_secs(30);
/// Backoff hint carried by the `RetryAfter` replies of a saturated
/// acceptor and of fleet backpressure.
pub(crate) const RETRY_AFTER_MILLIS: u32 = 2;

/// Answers one decoded request other than `Ping` through its [`Reply`],
/// at once or later from any thread.
pub type Dispatch = Arc<dyn Fn(Request, Reply) + Send + Sync>;

/// The handle a [`Dispatch`] callback answers one request through. It
/// carries the request's wire correlation id and the start stamp the
/// writer prices the `request` span from.
pub struct Reply {
    correlation: u64,
    started: u64,
    out: mpsc::Sender<Outbound>,
}

impl Reply {
    /// Hands `response` to the connection's writer thread. A reply to a
    /// connection that has since closed is dropped.
    pub fn send(self, response: Response) {
        let _ = self.out.send(Outbound {
            correlation: self.correlation,
            started: self.started,
            response,
        });
    }
}

/// One response on its way to a connection's writer thread. Responses may
/// arrive out of order relative to their requests — the correlation id is
/// what lets the peer pair them back up.
struct Outbound {
    correlation: u64,
    started: u64,
    response: Response,
}

/// Everything a connection worker needs, cloned once per worker thread.
#[derive(Clone)]
struct WorkerCtx {
    dispatch: Dispatch,
    metrics: Arc<ServeMetrics>,
    stop: Arc<AtomicBool>,
    obs: Arc<Observer>,
    clock: Arc<dyn Clock>,
}

/// A running CHAMWIRE front end.
///
/// Dropping it shuts it down gracefully (see module docs);
/// [`Front::shutdown`] does the same explicitly and is idempotent.
pub struct Front {
    local_addr: SocketAddr,
    stop: Arc<AtomicBool>,
    metrics: Arc<ServeMetrics>,
    acceptor: Option<JoinHandle<()>>,
    workers: Vec<JoinHandle<()>>,
}

impl Front {
    /// Binds `addr` and starts the acceptor and `workers` connection
    /// workers. Spans (`decode`, `encode`, `request`) and idle reaping
    /// run on `observer` and its clock; `dispatch` answers every request
    /// but `Ping`.
    ///
    /// # Errors
    ///
    /// Returns an [`std::io::Error`] if the listener cannot bind.
    pub fn start(
        addr: &str,
        workers: usize,
        observer: Arc<Observer>,
        dispatch: Dispatch,
    ) -> std::io::Result<Self> {
        let listener = TcpListener::bind(addr)?;
        let local_addr = listener.local_addr()?;
        let metrics = Arc::new(ServeMetrics::default());
        let stop = Arc::new(AtomicBool::new(false));

        let (conn_tx, conn_rx) = mpsc::sync_channel::<TcpStream>(workers);
        let conn_rx = Arc::new(Mutex::new(conn_rx));
        let ctx = WorkerCtx {
            dispatch,
            metrics: Arc::clone(&metrics),
            stop: Arc::clone(&stop),
            clock: Arc::clone(observer.clock()),
            obs: observer,
        };
        let workers = (0..workers)
            .map(|index| {
                let ctx = ctx.clone();
                let conn_rx = Arc::clone(&conn_rx);
                std::thread::Builder::new()
                    .name(format!("front-worker-{index}"))
                    .spawn(move || worker_loop(&ctx, &conn_rx))
                    .expect("spawn connection worker")
            })
            .collect();

        let acceptor_metrics = Arc::clone(&metrics);
        let acceptor_stop = Arc::clone(&stop);
        let acceptor = std::thread::Builder::new()
            .name("front-acceptor".to_string())
            .spawn(move || acceptor_loop(&listener, &conn_tx, &acceptor_stop, &acceptor_metrics))
            .expect("spawn acceptor thread");

        Ok(Self {
            local_addr,
            stop,
            metrics,
            acceptor: Some(acceptor),
            workers,
        })
    }

    /// The bound address (resolves port 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// The front's live counters, shared with whoever reports them.
    pub fn metrics(&self) -> Arc<ServeMetrics> {
        Arc::clone(&self.metrics)
    }

    /// Stops accepting and joins the acceptor, then every worker (each
    /// after its in-flight replies are written). Idempotent.
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
    }
}

impl Drop for Front {
    fn drop(&mut self) {
        self.shutdown();
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
            Err(TrySendError::Full(stream)) => turn_away(stream, metrics),
            Err(TrySendError::Disconnected(_)) => break,
        }
    }
}

/// Every worker is busy and the hand-off queue is full: answer with a
/// `RetryAfter` frame (correlation 0 — no request was read) and close.
fn turn_away(mut stream: TcpStream, metrics: &ServeMetrics) {
    let reply = Response::RetryAfter {
        millis: RETRY_AFTER_MILLIS,
    };
    let frame = encode_frame(&reply.encode_payload(0));
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
    match decode_frame(buf, max_payload) {
        Ok((payload, used)) => FrameSplit::Frame { payload, used },
        Err(WireError::Truncated) => FrameSplit::NeedMore,
        // A CRC mismatch is only found once the whole frame is buffered,
        // under a header whose magic and length already checked out.
        Err(error @ WireError::BadChecksum { .. }) => {
            let len = u32::from_le_bytes(buf[8..12].try_into().expect("4 bytes")) as usize;
            FrameSplit::Corrupt {
                used: FRAME_OVERHEAD + len,
                correlation: correlation_of(&buf[12..12 + len]),
                error,
            }
        }
        Err(error) => FrameSplit::Corrupt {
            used: 0,
            correlation: 0,
            error,
        },
    }
}

fn handle_connection(ctx: &WorkerCtx, mut stream: TcpStream) {
    let _ = stream.set_nodelay(true);
    let _ = stream.set_read_timeout(Some(READ_TIMEOUT));
    let _ = stream.set_write_timeout(Some(WRITE_TIMEOUT));
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
            .name("front-writer".to_string())
            .spawn(move || writer_loop(&ctx, writer_stream, &out_rx, &dead))
            .expect("spawn connection writer")
    };
    let mut buf: Vec<u8> = Vec::new();
    let mut scratch = [0u8; 16 * 1024];
    // Idle reaping reads the injected clock: each read timeout is a
    // chance to notice that the idle timeout has elapsed since the last
    // byte arrived. Under a virtual clock the connection only ages when
    // the test advances time.
    let mut last_activity = ctx.clock.now_nanos();
    let idle_timeout_nanos = IDLE_TIMEOUT.as_nanos() as u64;
    'conn: loop {
        // Dispatch every complete frame already buffered before reading
        // more.
        loop {
            match split_frame(&buf, MAX_PAYLOAD_BYTES) {
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
                    reply_to(&out_tx, correlation, ctx.clock.now_nanos()).send(reply);
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
    // is gone — ours here, and the reply handles still held by the
    // dispatch side as the last in-flight requests resolve.
    drop(out_tx);
    let _ = writer.join();
}

fn reply_to(out: &mpsc::Sender<Outbound>, correlation: u64, started: u64) -> Reply {
    Reply {
        correlation,
        started,
        out: out.clone(),
    }
}

/// Decodes one CRC-valid frame, answers a `Ping` in place and hands any
/// other request to the dispatch callback. The response reaches the
/// connection's writer thread via `out`.
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
            reply_to(out, correlation_of(payload), started).send(reply);
            return;
        }
    };
    let reply = reply_to(out, correlation, started);
    match request {
        // Liveness must stay observable even when the dispatch side is
        // saturated.
        Request::Ping => reply.send(Response::Pong),
        request => (ctx.dispatch)(request, reply),
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
    use crate::wire::WIRE_MAGIC;

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
