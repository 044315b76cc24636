//! Serving-layer counters, kept as atomics on the hot path and
//! snapshotted into a plain struct for reports.
//!
//! Request latency is not counted here: the connection writer records
//! each request's end-to-end time as the `request` span of the server's
//! [`chameleon_obs::Observer`], so it crosses the wire in the same
//! `Observation` as every other span.

use std::sync::atomic::{AtomicU64, Ordering};

/// Plain-struct snapshot of a front end's counters. A server flattens
/// them ([`ServeCounters::named`]) into the `serve.*` counters of its
/// `Observation`, and the CLI prints that same list.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct ServeCounters {
    /// Connections the acceptor admitted.
    pub connections_accepted: u64,
    /// Connections fully closed (handled to completion, reaped idle, or
    /// turned away by the saturated acceptor).
    pub connections_closed: u64,
    /// CRC-valid frames read.
    pub frames_in: u64,
    /// Frames written.
    pub frames_out: u64,
    /// Bytes read off sockets (payloads plus framing overhead).
    pub bytes_in: u64,
    /// Bytes written to sockets.
    pub bytes_out: u64,
    /// Frames or payloads rejected by the decoder (bad magic, bad CRC,
    /// oversized prefix, malformed body).
    pub decode_rejects: u64,
    /// `RetryAfter` replies sent (fleet backpressure surfaced to clients,
    /// plus turn-aways from a saturated acceptor).
    pub backpressure_replies: u64,
    /// Requests answered with a success response.
    pub requests_ok: u64,
    /// Requests answered with a typed error.
    pub requests_failed: u64,
}

impl ServeCounters {
    /// The counters as `serve.*` name/value pairs, in the order a
    /// server's `Observation` carries them. Every report of this block
    /// iterates this list.
    #[must_use]
    pub fn named(&self) -> Vec<(String, u64)> {
        [
            ("serve.connections_accepted", self.connections_accepted),
            ("serve.connections_closed", self.connections_closed),
            ("serve.frames_in", self.frames_in),
            ("serve.frames_out", self.frames_out),
            ("serve.bytes_in", self.bytes_in),
            ("serve.bytes_out", self.bytes_out),
            ("serve.decode_rejects", self.decode_rejects),
            ("serve.backpressure_replies", self.backpressure_replies),
            ("serve.requests_ok", self.requests_ok),
            ("serve.requests_failed", self.requests_failed),
        ]
        .map(|(name, value)| (name.to_string(), value))
        .into()
    }
}

/// Shared, thread-safe counter block of one CHAMWIRE front end, updated
/// by its acceptor, connection workers and writers.
#[derive(Debug, Default)]
pub struct ServeMetrics {
    pub(crate) connections_accepted: AtomicU64,
    pub(crate) connections_closed: AtomicU64,
    pub(crate) frames_in: AtomicU64,
    pub(crate) frames_out: AtomicU64,
    pub(crate) bytes_in: AtomicU64,
    pub(crate) bytes_out: AtomicU64,
    pub(crate) decode_rejects: AtomicU64,
    pub(crate) backpressure_replies: AtomicU64,
    pub(crate) requests_ok: AtomicU64,
    pub(crate) requests_failed: AtomicU64,
}

impl ServeMetrics {
    pub(crate) fn add(counter: &AtomicU64, v: u64) {
        counter.fetch_add(v, Ordering::Relaxed);
    }

    /// The counters as they stand now.
    pub fn snapshot(&self) -> ServeCounters {
        ServeCounters {
            connections_accepted: self.connections_accepted.load(Ordering::Relaxed),
            connections_closed: self.connections_closed.load(Ordering::Relaxed),
            frames_in: self.frames_in.load(Ordering::Relaxed),
            frames_out: self.frames_out.load(Ordering::Relaxed),
            bytes_in: self.bytes_in.load(Ordering::Relaxed),
            bytes_out: self.bytes_out.load(Ordering::Relaxed),
            decode_rejects: self.decode_rejects.load(Ordering::Relaxed),
            backpressure_replies: self.backpressure_replies.load(Ordering::Relaxed),
            requests_ok: self.requests_ok.load(Ordering::Relaxed),
            requests_failed: self.requests_failed.load(Ordering::Relaxed),
        }
    }
}
