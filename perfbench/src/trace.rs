//! Spans of the traced run.
//!
//! Every client request gets a root span `request` around the real
//! round trip. For a seeded sample of requests the load thread then
//! re-enacts the request's path through direct calls to each layer's
//! public functions, under one `path` span whose children are the layer
//! spans (`serve.encode`, `core.step`, `fleet.restore`, `store.append`,
//! `route.shadow_fetch`, ...). The re-enactment runs after the reply, so
//! it never sits inside the request it describes; its spans are the
//! ledger's attributed per-layer times, and what the layers do not cover
//! of a request's latency is waiting. Spans stay in memory until the run
//! ends, then `dump` writes one JSON line per span.

use std::io::Write as _;
use std::path::Path;
use std::sync::Arc;
use std::time::{Duration, Instant};

use chameleon_fleet::{SessionCheckpoint, SessionId, SessionSpec, UserSession};
use chameleon_route::state::{encode_shadow, RouterImage, StateLog};
use chameleon_route::{MuxConnection, MuxOptions, Router};
use chameleon_runtime::WallClock;
use chameleon_serve::wire::{decode_frame, encode_frame, Request, Response, MAX_PAYLOAD_BYTES};
use chameleon_store::{SessionStore, StoreConfig};
use chameleon_stream::DomainIlScenario;

use crate::schedule::{mix64, Op, WARMUP_BATCHES};
use crate::stats::Span;
use crate::workload::{Outcome, Stack, Topology};

/// One request in this many gets a re-enacted path.
pub const SAMPLE_EVERY: u64 = 4;

/// Probe state log size past which it is compacted (outside any span).
const PROBE_LOG_BYTES: u64 = 4 << 20;

/// Records spans with ids unique across tracers.
pub struct Recorder {
    next_id: u64,
    epoch: Instant,
    /// Every span recorded so far.
    pub spans: Vec<Span>,
}

impl Recorder {
    /// A recorder whose ids start at `(lane + 1) << 40`.
    pub fn new(lane: u64, epoch: Instant) -> Self {
        Self {
            next_id: (lane + 1) << 40,
            epoch,
            spans: Vec::new(),
        }
    }

    /// A fresh span id.
    pub fn alloc(&mut self) -> u64 {
        self.next_id += 1;
        self.next_id
    }

    /// Nanoseconds from the epoch to `at`.
    pub fn ns(&self, at: Instant) -> u64 {
        at.saturating_duration_since(self.epoch).as_nanos() as u64
    }

    /// Runs `f` inside a span named `name` under `parent`.
    pub fn time<R>(
        &mut self,
        name: &'static str,
        request: u64,
        parent: u64,
        op: &'static str,
        f: impl FnOnce() -> R,
    ) -> R {
        let start = Instant::now();
        let result = std::hint::black_box(f());
        let end = Instant::now();
        let id = self.alloc();
        self.spans.push(Span {
            id,
            name,
            request,
            parent: Some(parent),
            start_ns: self.ns(start),
            end_ns: self.ns(end),
            op,
        });
        result
    }

    /// Records a finished span.
    pub fn push(
        &mut self,
        id: u64,
        name: &'static str,
        request: u64,
        parent: Option<u64>,
        (start, end): (Instant, Instant),
        op: &'static str,
    ) {
        self.spans.push(Span {
            id,
            name,
            request,
            parent,
            start_ns: self.ns(start),
            end_ns: self.ns(end),
            op,
        });
    }
}

/// A warmed probe session of the workload's spec, standing in for the
/// request's session when a path is re-enacted.
pub struct ProbeSession {
    /// The probe's id in its probe store / state log.
    pub id: SessionId,
    /// The session itself.
    pub session: UserSession,
    scenario: Arc<DomainIlScenario>,
}

impl ProbeSession {
    /// A session with `spec`, stepped past the warm-up to the middle of
    /// a domain of `domain_batches` (the mean position of the workload's
    /// sessions, whose warm-up offsets spread them over the domain).
    pub fn warmed(
        id: SessionId,
        spec: SessionSpec,
        scenario: &Arc<DomainIlScenario>,
        domain_batches: u32,
    ) -> Self {
        let mut session = UserSession::new(id, spec, Arc::clone(scenario), None);
        let to_mid = (domain_batches / 2 + domain_batches - WARMUP_BATCHES % domain_batches)
            % domain_batches;
        session.step_batches((WARMUP_BATCHES + to_mid) as usize);
        Self {
            id,
            session,
            scenario: Arc::clone(scenario),
        }
    }

    /// `SessionCheckpoint::capture(..).to_bytes()`.
    pub fn checkpoint(&self) -> Vec<u8> {
        SessionCheckpoint::capture(&self.session).to_bytes()
    }

    /// `SessionCheckpoint::from_bytes` + `restore`, replacing the probe.
    pub fn restore(&mut self, blob: &[u8]) -> Result<(), String> {
        let checkpoint =
            SessionCheckpoint::from_bytes(blob).map_err(|e| format!("probe blob: {e:?}"))?;
        self.session = checkpoint
            .restore(Arc::clone(&self.scenario), None)
            .map_err(|e| format!("probe restore: {e:?}"))?;
        Ok(())
    }
}

/// Options for a benchmark-side multiplexed connection to a backend.
pub fn mux_options(seed: u64) -> MuxOptions {
    MuxOptions {
        max_payload: MAX_PAYLOAD_BYTES,
        write_timeout: Duration::from_secs(5),
        request_timeout: Duration::from_secs(30),
        retry_budget: 10_000,
        clock: WallClock::shared(),
        backoff_seed: seed,
    }
}

/// One load thread's tracer.
pub struct Tracer {
    /// Spans recorded by this thread.
    pub rec: Recorder,
    seed: u64,
    probe: ProbeSession,
    /// Probe store, on the durable workload.
    store: Option<SessionStore>,
    /// Probe router state log, on the routed workload.
    state: Option<StateLog>,
    muxes: Arc<Vec<MuxConnection>>,
    shadow_seq: u64,
    /// Re-enactment failures (reported as output-check failures).
    pub problems: Vec<String>,
}

impl Tracer {
    /// A tracer for load thread `lane` of `stack`; probe files live in
    /// `dir`. On the routed workload, shadow fetches share `muxes`, one
    /// connection per backend, so the backends' worker pools hold the
    /// router's connections plus just one more each.
    pub fn new(
        lane: usize,
        stack: &Stack,
        seed: u64,
        epoch: Instant,
        dir: &Path,
        muxes: Arc<Vec<MuxConnection>>,
    ) -> Result<Tracer, String> {
        let (id, spec) = stack.plan.sessions[lane].clone();
        let probe = ProbeSession::warmed(id, spec, &stack.scenario, stack.workload.domain_batches);
        let store = if stack.workload.store {
            let mut store =
                SessionStore::open(StoreConfig::new(dir.join(format!("probe-store{lane}"))))
                    .map_err(|e| format!("probe store: {e}"))?;
            store
                .append(probe.id, &probe.checkpoint())
                .map_err(|e| format!("probe store append: {e}"))?;
            Some(store)
        } else {
            None
        };
        let state = if stack.workload.topology == Topology::Routed {
            let (log, _) = StateLog::open(&dir.join(format!("probe-state{lane}")))
                .map_err(|e| format!("probe state log: {e}"))?;
            Some(log)
        } else {
            None
        };
        Ok(Tracer {
            rec: Recorder::new(lane as u64, epoch),
            seed,
            probe,
            store,
            state,
            muxes,
            shadow_seq: 0,
            problems: Vec::new(),
        })
    }

    /// Records the root span of one request and, for sampled requests,
    /// re-enacts its path.
    pub fn request(
        &mut self,
        sent: Instant,
        session: SessionId,
        op: Op,
        outcome: &Outcome,
        router: Option<&Router>,
    ) {
        let id = self.rec.alloc();
        self.rec.push(
            id,
            "request",
            id,
            None,
            (sent, sent + outcome.elapsed),
            op.name(),
        );
        if !mix64(self.seed ^ id).is_multiple_of(SAMPLE_EVERY) {
            return;
        }
        let path = self.rec.alloc();
        let start = Instant::now();
        if let Err(problem) = self.re_enact(id, path, session, op, outcome, router) {
            if self.problems.len() < 8 {
                self.problems.push(problem);
            }
        }
        self.rec.push(
            path,
            "path",
            id,
            Some(id),
            (start, Instant::now()),
            op.name(),
        );
    }

    fn re_enact(
        &mut self,
        request: u64,
        path: u64,
        session: SessionId,
        op: Op,
        outcome: &Outcome,
        router: Option<&Router>,
    ) -> Result<(), String> {
        let name = op.name();
        let rec = &mut self.rec;
        let frame = rec.time("serve.encode", request, path, name, || {
            encode_frame(&outcome.request.encode_payload(request))
        });
        rec.time("serve.decode", request, path, name, || {
            decode_frame(&frame, MAX_PAYLOAD_BYTES)
                .and_then(|(payload, _)| Request::decode_payload(&payload))
        })
        .map_err(|e| format!("request frame: {e}"))?;
        let response = outcome.response.as_ref().map_err(Clone::clone)?;
        let frame = rec.time("serve.encode", request, path, name, || {
            encode_frame(&response.encode_payload(request))
        });
        rec.time("serve.decode", request, path, name, || {
            decode_frame(&frame, MAX_PAYLOAD_BYTES)
                .and_then(|(payload, _)| Response::decode_payload(&payload))
        })
        .map_err(|e| format!("response frame: {e}"))?;

        // A durable fleet under its budget restores the session on touch
        // and evicts another to make room: restore → work → checkpoint →
        // append. A checkpoint of a disk-cold session is the stored blob,
        // read without a restore.
        let cold_path = self.store.is_some() && op != Op::Checkpoint;
        let probe = &mut self.probe;
        if let Some(store) = self.store.as_mut() {
            let blob = rec
                .time("store.get", request, path, name, || store.get(probe.id))
                .map_err(|e| format!("probe store get: {e}"))?
                .ok_or("probe store lost the probe")?;
            if cold_path {
                rec.time("fleet.restore", request, path, name, || {
                    probe.restore(&blob)
                })?;
            }
        }
        match op {
            Op::Step => {
                rec.time("core.step", request, path, name, || {
                    probe.session.step_batches(1)
                });
            }
            Op::Predict => {
                rec.time("core.eval", request, path, name, || {
                    probe.session.evaluate()
                });
            }
            Op::Checkpoint => {
                rec.time("fleet.checkpoint", request, path, name, || {
                    probe.checkpoint()
                });
            }
        }
        if let Some(store) = self.store.as_mut().filter(|_| cold_path) {
            let blob = rec.time("fleet.evict", request, path, name, || probe.checkpoint());
            rec.time("store.append", request, path, name, || {
                store.append(probe.id, &blob)
            })
            .map_err(|e| format!("probe store append: {e}"))?;
        }
        if let Some(log) = self.state.as_mut().filter(|_| op != Op::Predict) {
            let blob = match (op, response) {
                (Op::Checkpoint, Response::Checkpointed(blob)) => blob.clone(),
                _ => {
                    let owner = router
                        .and_then(|r| r.owner_of(session))
                        .ok_or("routed session has no owner")?;
                    let mux = &self.muxes[owner];
                    match rec.time("route.shadow_fetch", request, path, name, || {
                        mux.request(&Request::Checkpoint { session })
                    }) {
                        Ok(Response::Checkpointed(blob)) => blob,
                        other => return Err(format!("shadow fetch: {other:?}")),
                    }
                }
            };
            self.shadow_seq += 1;
            let framed = encode_shadow(session, self.shadow_seq, &blob);
            rec.time("route.state_append", request, path, name, || {
                log.append(&framed)
            })
            .map_err(|e| format!("probe state append: {e}"))?;
            if log.bytes() > PROBE_LOG_BYTES {
                log.compact(&RouterImage::default())
                    .map_err(|e| format!("probe state compact: {e}"))?;
            }
        }
        Ok(())
    }
}

/// Writes every span as one JSON line.
pub fn dump(path: &Path, workload: &str, spans: &[Span]) -> Result<(), String> {
    let file = std::fs::File::create(path).map_err(|e| format!("{}: {e}", path.display()))?;
    let mut out = std::io::BufWriter::new(file);
    for s in spans {
        let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
        writeln!(
            out,
            "{{\"name\":\"{}\",\"id\":{},\"request\":{},\"parent\":{},\"start_ns\":{},\"end_ns\":{},\"op\":\"{}\",\"workload\":\"{}\"}}",
            s.name, s.id, s.request, parent, s.start_ns, s.end_ns, s.op, workload
        )
        .map_err(|e| format!("{}: {e}", path.display()))?;
    }
    out.flush().map_err(|e| format!("{}: {e}", path.display()))
}
