//! CHAMWIRE client: a blocking connection with typed request helpers and
//! retry/backoff that honors the server's [`Response::RetryAfter`] hint.

use std::io::Write;
use std::net::{TcpStream, ToSocketAddrs};
use std::sync::Arc;
use std::time::Duration;

use chameleon_fleet::{SessionId, SessionSpec};
use chameleon_runtime::{splitmix64, Clock, SimRng, WallClock};

use chameleon_obs::Observation;

use crate::wire::{
    encode_frame, read_frame, ErrorCode, PredictSummary, Request, Response, WireError,
    MAX_PAYLOAD_BYTES,
};

/// Why a client call failed.
#[derive(Debug)]
pub enum ClientError {
    /// The socket failed.
    Io(std::io::Error),
    /// The server's bytes did not decode as CHAMWIRE.
    Wire(WireError),
    /// The response's correlation id does not match the request's.
    CorrelationMismatch {
        /// Correlation id the request carried.
        sent: u64,
        /// Correlation id the response echoed.
        received: u64,
    },
    /// The server refused the request with a typed error.
    Refused {
        /// Typed refusal reason.
        code: ErrorCode,
        /// Human-readable detail.
        message: String,
    },
    /// The server kept answering `RetryAfter` past the retry budget.
    Saturated {
        /// Attempts made before giving up.
        attempts: u32,
    },
    /// [`Connection::run_to_completion`] saw its zero-progress budget of
    /// consecutive `delivered == 0, done == false` rounds with no batch
    /// delivered — the session is live but not advancing (wedged stream,
    /// misbehaving server), and looping further would spin forever.
    Stalled {
        /// Consecutive zero-progress rounds observed before giving up.
        rounds: u32,
    },
    /// The server answered with a response type the request cannot
    /// produce (protocol violation).
    UnexpectedResponse(&'static str),
}

impl std::fmt::Display for ClientError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::Io(e) => write!(f, "socket error: {e}"),
            Self::Wire(e) => write!(f, "wire error: {e}"),
            Self::CorrelationMismatch { sent, received } => {
                write!(f, "correlation mismatch: sent {sent}, received {received}")
            }
            Self::Refused { code, message } => write!(f, "refused ({code}): {message}"),
            Self::Saturated { attempts } => {
                write!(f, "server still backpressured after {attempts} attempts")
            }
            Self::Stalled { rounds } => {
                write!(
                    f,
                    "session made no progress for {rounds} consecutive step rounds"
                )
            }
            Self::UnexpectedResponse(want) => {
                write!(f, "unexpected response (wanted {want})")
            }
        }
    }
}

impl std::error::Error for ClientError {}

impl From<std::io::Error> for ClientError {
    fn from(e: std::io::Error) -> Self {
        Self::Io(e)
    }
}

impl From<WireError> for ClientError {
    fn from(e: WireError) -> Self {
        Self::Wire(e)
    }
}

/// A blocking CHAMWIRE connection.
///
/// Requests are serial: each send waits for its response. Correlation
/// ids are still generated and checked, so a desynchronized stream is
/// caught instead of mispairing answers.
pub struct Connection {
    stream: TcpStream,
    next_correlation: u64,
    stall_budget: u32,
    clock: Arc<dyn Clock>,
    backoff: SimRng,
}

/// How many `RetryAfter` rounds [`Connection::request`] rides out before
/// giving up with [`ClientError::Saturated`].
const MAX_RETRIES: u32 = 10_000;

/// Default bound on consecutive zero-progress step rounds
/// [`Connection::run_to_completion`] tolerates before returning
/// [`ClientError::Stalled`].
pub const DEFAULT_STALL_BUDGET: u32 = 32;

impl Connection {
    /// Connects and enables `TCP_NODELAY`.
    ///
    /// # Errors
    ///
    /// Propagates connect failures.
    pub fn connect(addr: impl ToSocketAddrs) -> std::io::Result<Self> {
        let stream = TcpStream::connect(addr)?;
        let _ = stream.set_nodelay(true);
        // Each connection gets its own jitter stream, seeded from the
        // ephemeral local port so two clients started at the same instant
        // still back off on different schedules.
        let seed = stream
            .local_addr()
            .map(|a| u64::from(a.port()))
            .unwrap_or(0);
        Ok(Self {
            stream,
            next_correlation: 1,
            stall_budget: DEFAULT_STALL_BUDGET,
            clock: WallClock::shared(),
            backoff: SimRng::new(splitmix64(seed ^ 0xB0FF)),
        })
    }

    /// Caps how many *consecutive* zero-progress step rounds
    /// [`Connection::run_to_completion`] tolerates before returning
    /// [`ClientError::Stalled`] (default [`DEFAULT_STALL_BUDGET`]).
    pub fn set_stall_budget(&mut self, stall_budget: u32) {
        self.stall_budget = stall_budget.max(1);
    }

    /// Injects the [`Clock`] backoff sleeps run on. Tests pass a
    /// [`chameleon_runtime::VirtualClock`] so riding out `RetryAfter`
    /// storms advances virtual time instead of stalling the test on
    /// wall-clock sleeps.
    pub fn set_clock(&mut self, clock: Arc<dyn Clock>) {
        self.clock = clock;
    }

    /// Sends one request and reads its response — no retry: a
    /// [`Response::RetryAfter`] is returned to the caller as-is.
    ///
    /// # Errors
    ///
    /// I/O failures, undecodable responses, correlation mismatches.
    pub fn request_once(&mut self, request: &Request) -> Result<Response, ClientError> {
        let correlation = self.next_correlation;
        self.next_correlation += 1;
        let frame = encode_frame(&request.encode_payload(correlation));
        self.stream.write_all(&frame)?;
        let payload = read_frame(&mut self.stream, MAX_PAYLOAD_BYTES)??;
        let (received, response) = Response::decode_payload(&payload)?;
        // A turn-away from a saturated acceptor is sent before any request
        // is read and carries correlation 0; it can pair with any request.
        if received != correlation
            && !(received == 0 && matches!(response, Response::RetryAfter { .. }))
        {
            return Err(ClientError::CorrelationMismatch {
                sent: correlation,
                received,
            });
        }
        Ok(response)
    }

    /// Sends a request, sleeping out every `RetryAfter` answer (the
    /// server's backoff hint, escalated multiplicatively) until a real
    /// response arrives or the retry budget is exhausted.
    ///
    /// # Errors
    ///
    /// Everything [`Connection::request_once`] raises, plus
    /// [`ClientError::Saturated`] past the retry budget.
    pub fn request(&mut self, request: &Request) -> Result<Response, ClientError> {
        let mut boost: u64 = 0;
        for _ in 0..=MAX_RETRIES {
            match self.request_once(request)? {
                Response::RetryAfter { millis } => {
                    let sleep = jittered_backoff_millis(&mut self.backoff, millis, boost);
                    self.clock.sleep(Duration::from_millis(sleep));
                    boost = (boost * 2).clamp(1, 64);
                }
                other => return Ok(other),
            }
        }
        Err(ClientError::Saturated {
            attempts: MAX_RETRIES + 1,
        })
    }

    /// Liveness probe.
    ///
    /// # Errors
    ///
    /// See [`Connection::request`].
    pub fn ping(&mut self) -> Result<(), ClientError> {
        match self.settle(&Request::Ping)? {
            Response::Pong => Ok(()),
            _ => Err(ClientError::UnexpectedResponse("Pong")),
        }
    }

    /// Creates a session on the server.
    ///
    /// # Errors
    ///
    /// See [`Connection::request`].
    pub fn create_session(
        &mut self,
        session: SessionId,
        spec: SessionSpec,
    ) -> Result<(), ClientError> {
        match self.settle(&Request::CreateSession { session, spec })? {
            Response::Created => Ok(()),
            _ => Err(ClientError::UnexpectedResponse("Created")),
        }
    }

    /// Delivers up to `batches` stream batches; returns `(delivered,
    /// done)`.
    ///
    /// # Errors
    ///
    /// See [`Connection::request`].
    pub fn step(&mut self, session: SessionId, batches: u32) -> Result<(u32, bool), ClientError> {
        match self.settle(&Request::Step { session, batches })? {
            Response::Stepped { delivered, done } => Ok((delivered, done)),
            _ => Err(ClientError::UnexpectedResponse("Stepped")),
        }
    }

    /// Steps the session in `slice`-batch increments until its stream is
    /// exhausted; returns total batches delivered.
    ///
    /// A healthy server eventually answers every step with progress
    /// (`delivered > 0`) or completion (`done`). One that keeps
    /// answering `delivered == 0, done == false` would previously spin
    /// this loop forever; it is now bounded by the connection's stall
    /// budget ([`Connection::set_stall_budget`]), and the counter resets
    /// whenever a round delivers batches.
    ///
    /// # Errors
    ///
    /// See [`Connection::request`]; additionally
    /// [`ClientError::Stalled`] after `stall_budget` consecutive
    /// zero-progress rounds.
    pub fn run_to_completion(
        &mut self,
        session: SessionId,
        slice: u32,
    ) -> Result<u64, ClientError> {
        let mut total = 0u64;
        let mut zero_rounds = 0u32;
        loop {
            let (delivered, done) = self.step(session, slice.max(1))?;
            total += u64::from(delivered);
            if done {
                return Ok(total);
            }
            if delivered == 0 {
                zero_rounds += 1;
                if zero_rounds >= self.stall_budget {
                    return Err(ClientError::Stalled {
                        rounds: zero_rounds,
                    });
                }
            } else {
                zero_rounds = 0;
            }
        }
    }

    /// Evaluates the session on the scenario's test set.
    ///
    /// # Errors
    ///
    /// See [`Connection::request`].
    pub fn predict(&mut self, session: SessionId) -> Result<PredictSummary, ClientError> {
        match self.settle(&Request::Predict { session })? {
            Response::Predicted(summary) => Ok(summary),
            _ => Err(ClientError::UnexpectedResponse("Predicted")),
        }
    }

    /// Serializes the session to its `CHAMFLT1` checkpoint blob.
    ///
    /// # Errors
    ///
    /// See [`Connection::request`].
    pub fn checkpoint(&mut self, session: SessionId) -> Result<Vec<u8>, ClientError> {
        match self.settle(&Request::Checkpoint { session })? {
            Response::Checkpointed(blob) => Ok(blob),
            _ => Err(ClientError::UnexpectedResponse("Checkpointed")),
        }
    }

    /// Forces the session out of residency into checkpoint form.
    ///
    /// # Errors
    ///
    /// See [`Connection::request`].
    pub fn evict(&mut self, session: SessionId) -> Result<(), ClientError> {
        match self.settle(&Request::Evict { session })? {
            Response::Evicted => Ok(()),
            _ => Err(ClientError::UnexpectedResponse("Evicted")),
        }
    }

    /// Exports the session for handoff: the server serializes it to its
    /// `CHAMFLT1` blob and *forgets* it — afterwards the blob is the only
    /// copy and the session can be imported elsewhere.
    ///
    /// # Errors
    ///
    /// See [`Connection::request`].
    pub fn handoff_export(&mut self, session: SessionId) -> Result<Vec<u8>, ClientError> {
        match self.settle(&Request::HandoffExport { session })? {
            Response::HandoffExported(blob) => Ok(blob),
            _ => Err(ClientError::UnexpectedResponse("HandoffExported")),
        }
    }

    /// Imports a handed-off session from its `CHAMFLT1` blob; the server
    /// admits it cold and restores it on first touch, exactly like an
    /// eviction restore.
    ///
    /// # Errors
    ///
    /// See [`Connection::request`].
    pub fn handoff_import(&mut self, session: SessionId, blob: Vec<u8>) -> Result<(), ClientError> {
        match self.settle(&Request::Handoff { session, blob })? {
            Response::HandoffAck => Ok(()),
            _ => Err(ClientError::UnexpectedResponse("HandoffAck")),
        }
    }

    /// Snapshots the unified observability view: per-stage span
    /// aggregates, the event-log tail, and flattened fleet/trace/serve
    /// counters.
    ///
    /// # Errors
    ///
    /// See [`Connection::request`].
    pub fn observe(&mut self) -> Result<Observation, ClientError> {
        match self.settle(&Request::Observe)? {
            Response::Observed(observation) => Ok(*observation),
            _ => Err(ClientError::UnexpectedResponse("Observed")),
        }
    }

    /// `request` with `Error` responses lifted into
    /// [`ClientError::Refused`], so the typed helpers only see success
    /// variants.
    fn settle(&mut self, request: &Request) -> Result<Response, ClientError> {
        match self.request(request)? {
            Response::Error { code, message } => Err(ClientError::Refused { code, message }),
            other => Ok(other),
        }
    }
}

/// One backoff sleep: the server's hint plus the escalation boost, plus
/// seeded full jitter of up to the same magnitude. Synchronized clients
/// hammered with identical `RetryAfter` hints thus spread over a 2×
/// window instead of retrying in lockstep. The router's backend mux rides
/// `RetryAfter` with the same schedule.
pub fn jittered_backoff_millis(rng: &mut SimRng, millis: u32, boost: u64) -> u64 {
    let base = u64::from(millis).max(1) + boost;
    base + rng.below(base + 1)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn schedule(seed: u64) -> Vec<u64> {
        let mut rng = SimRng::new(splitmix64(seed ^ 0xB0FF));
        let mut boost = 0u64;
        (0..32)
            .map(|_| {
                let sleep = jittered_backoff_millis(&mut rng, 2, boost);
                boost = (boost * 2).clamp(1, 64);
                sleep
            })
            .collect()
    }

    #[test]
    fn backoff_jitter_is_seeded_and_deterministic() {
        assert_eq!(schedule(7), schedule(7));
        assert_ne!(schedule(7), schedule(8), "distinct seeds must desync");
    }

    #[test]
    fn backoff_jitter_is_bounded_by_twice_the_base() {
        let mut rng = SimRng::new(1);
        for boost in [0u64, 1, 8, 64] {
            for millis in [0u32, 1, 2, 1000] {
                let base = u64::from(millis).max(1) + boost;
                for _ in 0..200 {
                    let sleep = jittered_backoff_millis(&mut rng, millis, boost);
                    assert!(sleep >= base && sleep <= 2 * base);
                }
            }
        }
    }
}
