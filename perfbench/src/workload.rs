//! The three workloads and the stack each one drives: start, session
//! creation, warm-up, the closed-loop measured window, and the output
//! checks.

use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::sync::{Arc, Barrier};
use std::time::{Duration, Instant};

use chameleon_core::Precision;
use chameleon_fleet::{FleetConfig, FleetEngine, SessionCheckpoint, SessionId, UserSession};
use chameleon_obs::Observation;
use chameleon_route::{Router, RouterConfig};
use chameleon_serve::wire::{Request, Response};
use chameleon_serve::{Connection, ServeConfig, Server};
use chameleon_stream::DomainIlScenario;

use crate::schedule::{self, ConnPlan, Op, Plan, Popularity, CONNECTIONS, WARMUP_BATCHES};
use crate::stats::Latencies;
use crate::trace::Tracer;

/// Shards per fleet.
pub const SHARDS: usize = 2;
/// Connection workers of every server and of the router.
pub const WORKERS: usize = 2;
/// Unmeasured mixed ops per connection between warm-up and timing, so
/// the LRU set and the store reach their steady state first.
pub const SETTLE_OPS: usize = 300;
/// Sessions whose final checkpoint is compared with a solo replay, per
/// connection.
pub const VERIFY_PER_CONN: usize = 2;

/// Where the sessions are served from.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Topology {
    /// Clients talk to one `Server`.
    Direct,
    /// Clients talk to a `Router` (durable state dir) over two servers.
    Routed,
}

/// One named workload.
#[derive(Debug)]
pub struct Workload {
    /// Name given to `--workload`.
    pub name: &'static str,
    /// Sessions created.
    pub sessions: usize,
    /// Latent precision of every session.
    pub precision: Precision,
    /// How connections pick sessions.
    pub popularity: Popularity,
    /// Direct or routed.
    pub topology: Topology,
    /// Direct servers spill evictions to a durable store.
    pub store: bool,
    /// Per-shard session-memory budget, in sessions' nominal bytes
    /// (`None`: unlimited).
    pub budget_sessions: Option<f64>,
    /// Domains of the streamed dataset.
    pub domains: usize,
    /// Batches in one domain.
    pub domain_batches: u32,
}

/// The benchmark's workloads; the README says why each was chosen.
pub const WORKLOADS: [Workload; 3] = [
    Workload {
        name: "resident",
        sessions: 16,
        precision: Precision::F32,
        popularity: Popularity::Uniform,
        topology: Topology::Direct,
        store: false,
        budget_sessions: None,
        domains: 12,
        domain_batches: 1000,
    },
    Workload {
        name: "churn",
        sessions: 64,
        precision: Precision::Int8,
        popularity: Popularity::Zipf(0.9),
        topology: Topology::Direct,
        store: true,
        budget_sessions: Some(4.5),
        domains: 24,
        domain_batches: 200,
    },
    Workload {
        name: "routed",
        sessions: 16,
        precision: Precision::F32,
        popularity: Popularity::Uniform,
        topology: Topology::Routed,
        store: false,
        budget_sessions: None,
        domains: 12,
        domain_batches: 1000,
    },
];

impl Workload {
    /// Looks a workload up by name.
    pub fn by_name(name: &str) -> Option<&'static Workload> {
        WORKLOADS.iter().find(|w| w.name == name)
    }

    /// The workload's seeded plan, one stripe per shard of the fleet.
    pub fn plan(&self, seed: u64, scenario: &Arc<DomainIlScenario>) -> Plan {
        let fleet = FleetEngine::new_sim(Arc::clone(scenario), fleet_config(u64::MAX), 0);
        schedule::plan(
            self.name,
            seed,
            self.sessions,
            self.precision,
            self.popularity,
            SHARDS,
            &|id| fleet.home_shard(id),
        )
    }
}

/// The fleet every server runs, with a per-shard budget.
pub fn fleet_config(budget_bytes: u64) -> FleetConfig {
    FleetConfig {
        num_shards: SHARDS,
        budget_bytes,
        ..FleetConfig::default()
    }
}

/// A running stack plus its clients.
pub struct Stack {
    /// The workload driven.
    pub workload: &'static Workload,
    /// Its seeded inputs.
    pub plan: Plan,
    /// The scenario every server and solo replay shares.
    pub scenario: Arc<DomainIlScenario>,
    /// Backends (one for direct workloads).
    pub servers: Vec<Server>,
    /// The router of the routed workload.
    pub router: Option<Router>,
    /// One client connection per load thread.
    pub conns: Vec<Connection>,
    /// Seconds from the start of set-up to the last `CreateSession` ack.
    pub setup_s: f64,
    /// Share of CPU time stolen meanwhile (`None` where not reported).
    pub setup_steal: Option<f64>,
    /// Batches delivered to each session so far.
    pub batches: HashMap<SessionId, u64>,
    /// Output-check failures seen so far.
    pub problems: Vec<String>,
}

impl Stack {
    /// Generates the inputs, starts servers (and router), connects the
    /// clients and creates every session; `dir` holds durable state.
    pub fn setup(workload: &'static Workload, seed: u64, dir: &Path) -> Result<Stack, String> {
        let ticks = steal_ticks();
        let start = Instant::now();
        let scenario = Arc::new(DomainIlScenario::generate(
            &schedule::dataset(workload.domains, workload.domain_batches),
            schedule::scenario_seed(workload.name, seed),
        ));
        let plan = workload.plan(seed, &scenario);
        let budget_bytes = match workload.budget_sessions {
            None => u64::MAX,
            Some(sessions) => {
                let (id, spec) = plan.sessions[0].clone();
                let nominal =
                    UserSession::new(id, spec, Arc::clone(&scenario), None).resident_bytes();
                (nominal as f64 * sessions) as u64
            }
        };
        let fleet = fleet_config(budget_bytes);
        let backends = match workload.topology {
            Topology::Direct => 1,
            Topology::Routed => 2,
        };
        let servers = (0..backends)
            .map(|b| {
                let serve = ServeConfig {
                    workers: WORKERS,
                    store_dir: workload.store.then(|| dir.join(format!("store{b}"))),
                    ..ServeConfig::default()
                };
                Server::start(Arc::clone(&scenario), fleet.clone(), serve)
                    .map_err(|e| format!("server start: {e}"))
            })
            .collect::<Result<Vec<_>, _>>()?;
        let router = match workload.topology {
            Topology::Direct => None,
            Topology::Routed => Some(
                Router::start(RouterConfig {
                    backends: servers.iter().map(|s| s.local_addr().to_string()).collect(),
                    workers: WORKERS,
                    state_dir: Some(dir.join("route-state")),
                    ..RouterConfig::default()
                })
                .map_err(|e| format!("router start: {e}"))?,
            ),
        };
        let addr = match &router {
            Some(router) => router.local_addr(),
            None => servers[0].local_addr(),
        };
        let mut conns = (0..CONNECTIONS)
            .map(|_| Connection::connect(addr).map_err(|e| format!("connect: {e}")))
            .collect::<Result<Vec<_>, _>>()?;
        let specs: HashMap<SessionId, _> = plan.sessions.iter().cloned().collect();
        let created: Vec<Result<(), String>> = std::thread::scope(|scope| {
            let handles: Vec<_> = conns
                .iter_mut()
                .zip(&plan.conns)
                .map(|(conn, cp)| {
                    let specs = &specs;
                    scope.spawn(move || {
                        for id in &cp.sessions {
                            conn.create_session(*id, specs[id].clone())
                                .map_err(|e| format!("create session {id}: {e}"))?;
                        }
                        Ok(())
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("create thread"))
                .collect()
        });
        created.into_iter().collect::<Result<(), String>>()?;
        let setup_s = start.elapsed().as_secs_f64();
        let setup_steal = ticks.zip(steal_ticks()).map(|(a, b)| steal_share(a, b));
        Ok(Stack {
            workload,
            batches: plan.sessions.iter().map(|(id, _)| (*id, 0)).collect(),
            plan,
            scenario,
            servers,
            router,
            conns,
            setup_s,
            setup_steal,
            problems: Vec::new(),
        })
    }

    /// Steps every session past its learning window, fills its long-term
    /// store and spreads its stream position over a domain (one `Step`
    /// per session), then runs a fixed number of unmeasured mixed ops per
    /// connection.
    pub fn warm_up(&mut self) -> Result<(), String> {
        let domain_batches = self.workload.domain_batches;
        let results: Vec<Result<Vec<(SessionId, u64)>, String>> = std::thread::scope(|scope| {
            let handles: Vec<_> = self
                .conns
                .iter_mut()
                .zip(self.plan.conns.iter_mut())
                .map(|(conn, cp)| {
                    scope.spawn(move || {
                        let mut delivered = Vec::new();
                        for (rank, &id) in cp.sessions.iter().enumerate() {
                            let (n, _) = conn
                                .step(id, schedule::warmup_batches(rank, domain_batches))
                                .map_err(|e| format!("warm-up step {id}: {e}"))?;
                            delivered.push((id, u64::from(n)));
                        }
                        let mut quiet = Window::default();
                        for _ in 0..SETTLE_OPS {
                            let (id, op) = cp.next_op();
                            let outcome = send(conn, id, op);
                            quiet.account(Duration::ZERO, op, id, &outcome);
                        }
                        if let Some(problem) = quiet.problems.first() {
                            return Err(format!("settle: {problem}"));
                        }
                        delivered.extend(quiet.batches);
                        Ok(delivered)
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("warm-up thread"))
                .collect()
        });
        for result in results {
            for (id, n) in result? {
                *self.batches.entry(id).or_default() += n;
            }
        }
        let short = self
            .batches
            .values()
            .filter(|&&n| n < u64::from(WARMUP_BATCHES))
            .count();
        if short > 0 {
            return Err(format!("{short} sessions were not warmed up"));
        }
        Ok(())
    }

    /// Runs the closed loop for `seconds`: every connection sends its next
    /// op as soon as the previous one is answered. With tracers, each
    /// connection also records spans (see `trace`).
    pub fn measure(&mut self, seconds: f64, tracers: Option<&mut [Tracer]>) -> Window {
        let barrier = Barrier::new(CONNECTIONS + 1);
        let epoch_cell = std::sync::OnceLock::new();
        let router = self.router.as_ref();
        let mut tracer_slots: Vec<Option<&mut Tracer>> = match tracers {
            Some(ts) => ts.iter_mut().map(Some).collect(),
            None => (0..CONNECTIONS).map(|_| None).collect(),
        };
        let (windows, steal): (Vec<Window>, Vec<f64>) = std::thread::scope(|scope| {
            let monitor = scope.spawn(|| {
                barrier.wait();
                let epoch = *epoch_cell.get_or_init(Instant::now);
                block_steal(epoch, seconds)
            });
            let handles: Vec<_> = self
                .conns
                .iter_mut()
                .zip(self.plan.conns.iter_mut())
                .zip(tracer_slots.iter_mut())
                .map(|((conn, cp), tracer)| {
                    let barrier = &barrier;
                    let epoch_cell = &epoch_cell;
                    scope.spawn(move || {
                        barrier.wait();
                        let epoch = *epoch_cell.get_or_init(Instant::now);
                        drive(conn, cp, epoch, seconds, tracer.as_deref_mut(), router)
                    })
                })
                .collect();
            let windows = handles
                .into_iter()
                .map(|h| h.join().expect("load thread"))
                .collect();
            (windows, monitor.join().expect("steal monitor"))
        });
        let mut total = Window::default();
        for w in windows {
            total.merge(w);
        }
        total.steal = steal;
        for (id, n) in &total.batches {
            *self.batches.entry(*id).or_default() += n;
        }
        self.problems.extend(total.problems.iter().cloned());
        total
    }

    /// Snapshot of spans and counters through client connection 0 (the
    /// router merges its backends' view into its own).
    pub fn observe(&mut self) -> Result<Observation, String> {
        self.conns[0].observe().map_err(|e| format!("observe: {e}"))
    }

    /// The output checks of DESIGN §9/§13 and of the counters; every
    /// failure is added to `problems`.
    pub fn verify(&mut self) -> Result<(), String> {
        let o = self.observe()?;
        let counter = |name: &str| o.counter(name).unwrap_or(0);
        for name in [
            "serve.decode_rejects",
            "serve.requests_failed",
            "route.decode_rejects",
            "route.forward_failures",
            "route.shadow_refresh_failures",
            "route.state_append_failures",
            "store.decode_rejects",
        ] {
            if counter(name) != 0 {
                self.problems.push(format!("{name} = {}", counter(name)));
            }
        }
        let delivered: u64 = self.batches.values().sum();
        if counter("fleet.batches") != delivered {
            self.problems.push(format!(
                "server stepped {} batches, clients were acked {delivered}",
                counter("fleet.batches")
            ));
        }
        if self.workload.store && counter("store.appends") != counter("fleet.evictions") {
            self.problems.push(format!(
                "store.appends {} != fleet.evictions {}",
                counter("store.appends"),
                counter("fleet.evictions")
            ));
        }
        if self.workload.budget_sessions.is_none() {
            if counter("fleet.evictions") != 0 {
                self.problems
                    .push("sessions were evicted without a budget".to_string());
            }
            self.verify_solo()?;
        }
        Ok(())
    }

    /// Each connection's first `VERIFY_PER_CONN` sessions: the final
    /// checkpoint over the wire must equal a solo in-process session fed
    /// the same batches, byte for byte.
    fn verify_solo(&mut self) -> Result<(), String> {
        let mut wanted = Vec::new();
        for (conn, cp) in self.conns.iter_mut().zip(&self.plan.conns) {
            for &id in cp.sessions.iter().take(VERIFY_PER_CONN) {
                let blob = conn
                    .checkpoint(id)
                    .map_err(|e| format!("final checkpoint {id}: {e}"))?;
                wanted.push((id, blob));
            }
        }
        let specs: HashMap<SessionId, _> = self.plan.sessions.iter().cloned().collect();
        let scenario = &self.scenario;
        let batches = &self.batches;
        let mismatched: Vec<SessionId> = std::thread::scope(|scope| {
            let handles: Vec<_> = wanted
                .chunks(VERIFY_PER_CONN)
                .map(|chunk| {
                    let specs = &specs;
                    scope.spawn(move || {
                        chunk
                            .iter()
                            .filter(|(id, blob)| {
                                let mut solo = UserSession::new(
                                    *id,
                                    specs[id].clone(),
                                    Arc::clone(scenario),
                                    None,
                                );
                                solo.step_batches(batches[id] as usize);
                                SessionCheckpoint::capture(&solo).to_bytes() != *blob
                            })
                            .map(|(id, _)| *id)
                            .collect::<Vec<_>>()
                    })
                })
                .collect();
            handles
                .into_iter()
                .flat_map(|h| h.join().expect("solo thread"))
                .collect()
        });
        for id in mismatched {
            self.problems.push(format!(
                "session {id}: wire checkpoint differs from solo run"
            ));
        }
        Ok(())
    }

    /// Stops router and servers (joining every thread they started).
    pub fn shutdown(mut self) {
        self.conns.clear();
        if let Some(mut router) = self.router.take() {
            router.shutdown();
        }
        for server in &mut self.servers {
            server.shutdown();
        }
    }
}

/// What one request came back with.
pub struct Outcome {
    /// Client-side latency.
    pub elapsed: Duration,
    /// The request sent.
    pub request: Request,
    /// The response, or the client error.
    pub response: Result<Response, String>,
}

/// Sends one op and times it.
pub fn send(conn: &mut Connection, session: SessionId, op: Op) -> Outcome {
    let request = match op {
        Op::Step => Request::Step {
            session,
            batches: 1,
        },
        Op::Predict => Request::Predict { session },
        Op::Checkpoint => Request::Checkpoint { session },
    };
    let start = Instant::now();
    let response = conn.request(&request).map_err(|e| e.to_string());
    Outcome {
        elapsed: start.elapsed(),
        request,
        response,
    }
}

/// Length of one slice of the measured window, in seconds. The
/// end-to-end figures are taken over the kept slices only, so bursts of
/// outside noise on a shared host do not move them. Steal on such a host
/// comes in bursts well under a second long, so slices this short find
/// the quiet stretches between them even in a busy minute.
pub const SLICE_S: f64 = 0.1;

/// Slices in a window of `seconds`.
fn slices(seconds: f64) -> usize {
    ((seconds / SLICE_S).round() as usize).max(1)
}

/// Slices kept for a figure: the least CPU-stolen ones (steal is the
/// share of time the hypervisor ran another guest while this one wanted
/// the CPU), at least `KEEP` of them and, for a latency percentile,
/// enough to hold [`samples_for`] its percentile, plus any tied with the
/// last one taken, so on a host without steal every slice counts. Each
/// figure takes the smallest such set, so the figures with the most
/// samples come from the quietest slices.
pub const KEEP: usize = 10;

/// Latencies a percentile is taken over, at the least: 250 keep the
/// sampling error of a p50 to a few percent even where the latency is a
/// mix of warm and cold sessions.
pub const MIN_SAMPLES: usize = 250;

/// Latencies the slices kept for percentile `q` must hold: at least
/// [`MIN_SAMPLES`], and ten beyond the percentile (1000 for a p99).
pub fn samples_for(q: f64) -> usize {
    MIN_SAMPLES.max((10.0 / (1.0 - q).max(1e-3)).ceil() as usize)
}

/// Steal share of each slice of a window of `seconds`, from `/proc/stat`
/// read at the slice boundaries; empty where the kernel reports none.
fn block_steal(epoch: Instant, seconds: f64) -> Vec<f64> {
    let (n, block_s) = (slices(seconds), seconds / slices(seconds) as f64);
    let mut marks = Vec::with_capacity(n + 1);
    for k in 0..=n {
        let at = epoch + Duration::from_secs_f64(block_s * k as f64);
        if let Some(wait) = at.checked_duration_since(Instant::now()) {
            std::thread::sleep(wait);
        }
        match steal_ticks() {
            Some(mark) => marks.push(mark),
            None => return Vec::new(),
        }
    }
    marks.windows(2).map(|w| steal_share(w[0], w[1])).collect()
}

/// The kernel's steal and total CPU time counters, summed over CPUs
/// (the first line of `/proc/stat`); `None` where it reports no steal.
fn steal_ticks() -> Option<(u64, u64)> {
    let stat = std::fs::read_to_string("/proc/stat").ok()?;
    let fields = stat.lines().next()?.split_whitespace().skip(1);
    let ticks: Vec<u64> = fields
        .take(8)
        .map(|f| f.parse().ok())
        .collect::<Option<_>>()?;
    Some((*ticks.get(7)?, ticks.iter().sum()))
}

/// Share of CPU time stolen between two [`steal_ticks`] readings.
fn steal_share(from: (u64, u64), to: (u64, u64)) -> f64 {
    let total = to.1.saturating_sub(from.1);
    to.0.saturating_sub(from.0) as f64 / total.max(1) as f64
}

/// The ops one slice of the window started.
#[derive(Clone, Default)]
struct Block {
    latencies: [Latencies; 3],
    completed: u64,
}

/// The measured results of one or more connections.
#[derive(Default)]
pub struct Window {
    blocks: Vec<Block>,
    block_s: f64,
    steal: Vec<f64>,
    /// Ops sent.
    pub attempted: u64,
    /// Ops that failed (error response or client error).
    pub failed: u64,
    /// Batches delivered per session.
    pub batches: HashMap<SessionId, u64>,
    /// Output-check failures.
    pub problems: Vec<String>,
}

fn op_index(op: Op) -> usize {
    Op::ALL.iter().position(|o| *o == op).expect("op")
}

impl Window {
    fn new(seconds: f64) -> Self {
        Self {
            blocks: vec![Block::default(); slices(seconds)],
            block_s: seconds / slices(seconds) as f64,
            ..Self::default()
        }
    }

    /// Counts one answered op, sent `since_epoch` into the window, and
    /// checks its response.
    fn account(&mut self, since_epoch: Duration, op: Op, session: SessionId, outcome: &Outcome) {
        self.attempted += 1;
        let verdict = match (&outcome.response, op) {
            (Ok(Response::Stepped { delivered, done }), Op::Step) => {
                *self.batches.entry(session).or_default() += u64::from(*delivered);
                if *delivered == 1 && !done {
                    Ok(())
                } else {
                    Err(format!(
                        "session {session}: step delivered {delivered} (done={done}); stream too short"
                    ))
                }
            }
            (Ok(Response::Predicted(_)), Op::Predict) => Ok(()),
            (Ok(Response::Checkpointed(blob)), Op::Checkpoint) => {
                SessionCheckpoint::from_bytes(blob)
                    .map(|_| ())
                    .map_err(|e| format!("session {session}: checkpoint blob rejected: {e:?}"))
            }
            (Ok(other), _) => Err(format!("session {session}: {} got {other:?}", op.name())),
            (Err(e), _) => Err(format!("session {session}: {} failed: {e}", op.name())),
        };
        if self.blocks.is_empty() {
            self.blocks.push(Block::default());
            self.block_s = f64::INFINITY;
        }
        let index =
            ((since_epoch.as_secs_f64() / self.block_s) as usize).min(self.blocks.len() - 1);
        let block = &mut self.blocks[index];
        let slot = &mut block.latencies[op_index(op)];
        match verdict {
            Ok(()) => {
                block.completed += 1;
                slot.push_us(outcome.elapsed.as_secs_f64() as f32 * 1e6);
            }
            Err(problem) => {
                self.failed += 1;
                slot.push_failed();
                if self.problems.len() < 8 {
                    self.problems.push(problem);
                }
            }
        }
    }

    fn merge(&mut self, other: Window) {
        if self.blocks.is_empty() {
            self.blocks = vec![Block::default(); other.blocks.len()];
            self.block_s = other.block_s;
        }
        for (mine, theirs) in self.blocks.iter_mut().zip(&other.blocks) {
            for (a, b) in mine.latencies.iter_mut().zip(&theirs.latencies) {
                a.extend(b);
            }
            mine.completed += theirs.completed;
        }
        self.attempted += other.attempted;
        self.failed += other.failed;
        for (id, n) in other.batches {
            *self.batches.entry(id).or_default() += n;
        }
        self.problems.extend(other.problems);
    }

    /// Every latency of one op kind, all slices pooled.
    pub fn pooled(&self, op: Op) -> Latencies {
        let mut all = Latencies::default();
        for block in &self.blocks {
            all.extend(&block.latencies[op_index(op)]);
        }
        all
    }

    /// Ops of one kind sent, failed ones included.
    pub fn count(&self, op: Op) -> usize {
        self.blocks
            .iter()
            .map(|b| b.latencies[op_index(op)].len())
            .sum()
    }

    /// The steal share at or below which a slice counts for percentile
    /// `q` of `op`'s latency, or for the throughput when `percentile` is
    /// `None` (see [`KEEP`]); `None` when the kernel reports no steal, and
    /// every slice counts.
    fn steal_cut(&self, percentile: Option<(Op, f64)>) -> Option<f64> {
        if self.steal.len() != self.blocks.len() {
            return None;
        }
        let need = percentile.map_or(0, |(_, q)| samples_for(q));
        let mut order: Vec<usize> = (0..self.blocks.len()).collect();
        order.sort_by(|&a, &b| self.steal[a].total_cmp(&self.steal[b]));
        let (mut taken, mut held, mut cut) = (0, 0, 0.0);
        for &i in &order {
            if taken >= KEEP && held >= need {
                break;
            }
            taken += 1;
            held += percentile.map_or(0, |(op, _)| self.blocks[i].latencies[op_index(op)].len());
            cut = self.steal[i];
        }
        Some(cut)
    }

    /// The slices that count for percentile `q` of `op`'s latency (or,
    /// with `None`, for the throughput).
    fn kept(&self, percentile: Option<(Op, f64)>) -> Vec<&Block> {
        match self.steal_cut(percentile) {
            None => self.blocks.iter().collect(),
            Some(cut) => self
                .blocks
                .iter()
                .zip(&self.steal)
                .filter(|(_, &steal)| steal <= cut)
                .map(|(b, _)| b)
                .collect(),
        }
    }

    /// One line per window for stderr: how stolen its slices were, and
    /// the rate of the kept slices against that of the whole window.
    pub fn describe(&self) -> String {
        let mut steal = self.steal.clone();
        steal.sort_by(f64::total_cmp);
        let pct = |q: f64| {
            steal
                .get((q * steal.len() as f64) as usize)
                .map_or(0.0, |s| s * 100.0)
        };
        let kept: Vec<String> = std::iter::once(None)
            .chain(Op::ALL.map(|op| Some((op, 0.5))))
            .map(|percentile| {
                format!(
                    "{} {} at <= {:.0}%",
                    percentile.map_or("ops", |(op, _)| op.name()),
                    self.kept(percentile).len(),
                    self.steal_cut(percentile).unwrap_or(0.0) * 100.0
                )
            })
            .collect();
        format!(
            "{} slices of {:.0} ms, steal p50 {:.0}% p90 {:.0}%; slices kept (p50s): {}; \
             {:.1} ops/s kept, {:.1} ops/s whole window",
            self.blocks.len(),
            self.block_s * 1e3,
            pct(0.5),
            pct(0.9),
            kept.join(", "),
            self.ops_per_s(),
            self.completed() as f64 / (self.blocks.len() as f64 * self.block_s).max(1e-9),
        )
    }

    /// Nearest-rank percentile `q` of `op` latency over the slices kept
    /// for it, µs (failed ops count as +∞).
    pub fn percentile(&self, op: Op, q: f64) -> Option<f64> {
        let mut kept = Latencies::default();
        for block in self.kept(Some((op, q))) {
            kept.extend(&block.latencies[op_index(op)]);
        }
        kept.percentile(q)
    }

    /// Ops answered successfully.
    pub fn completed(&self) -> u64 {
        self.attempted - self.failed
    }

    /// Completed ops per second of the slices kept for the throughput.
    pub fn ops_per_s(&self) -> f64 {
        let kept = self.kept(None);
        let completed: u64 = kept.iter().map(|b| b.completed).sum();
        completed as f64 / (kept.len() as f64 * self.block_s).max(1e-9)
    }
}

/// One connection's closed loop.
fn drive(
    conn: &mut Connection,
    plan: &mut ConnPlan,
    epoch: Instant,
    seconds: f64,
    mut tracer: Option<&mut Tracer>,
    router: Option<&Router>,
) -> Window {
    let deadline = epoch + Duration::from_secs_f64(seconds);
    let mut window = Window::new(seconds);
    while Instant::now() < deadline {
        let (session, op) = plan.next_op();
        let sent = Instant::now();
        let outcome = send(conn, session, op);
        window.account(sent.duration_since(epoch), op, session, &outcome);
        if let Some(tracer) = tracer.as_deref_mut() {
            tracer.request(sent, session, op, &outcome, router);
        }
        if outcome.response.is_err() && window.failed > 64 {
            break; // the connection is gone; the run already failed
        }
    }
    window
}

/// A fresh, empty working directory inside the benchmark's output tree,
/// removed again on drop.
pub struct WorkDir(pub PathBuf);

impl WorkDir {
    /// Creates `<out>/work-<pid>-<tag>` (clearing a stale one).
    pub fn new(out: &Path, tag: &str) -> Result<WorkDir, String> {
        let path = out.join(format!("work-{}-{tag}", std::process::id()));
        let _ = std::fs::remove_dir_all(&path);
        std::fs::create_dir_all(&path).map_err(|e| format!("create {}: {e}", path.display()))?;
        Ok(WorkDir(path))
    }
}

impl Drop for WorkDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// 20 steal-free slices of fast ops, then 10 slices stolen 10%, 20%,
    /// … 100% of slow ones; the free slices hold 1000 steps but only 100
    /// predicts.
    fn window() -> Window {
        let mut w = Window::new(3.0);
        w.steal = (0..30).map(|i| (i.max(19) - 19) as f64 / 10.0).collect();
        for (i, block) in w.blocks.iter_mut().enumerate() {
            let free = i < 20;
            block.completed = if free { 10 } else { 5 };
            for _ in 0..50 {
                block.latencies[0].push_us(if free { 1000.0 } else { 9000.0 });
            }
            for _ in 0..if free { 5 } else { 50 } {
                block.latencies[1].push_us(if free { 2000.0 } else { 8000.0 });
            }
        }
        w
    }

    #[test]
    fn each_figure_keeps_the_least_stolen_slices_it_needs() {
        let w = window();
        assert_eq!(w.blocks.len(), 30);
        // Throughput and steps: the free slices suffice, and all of them
        // tie at zero steal.
        assert_eq!(w.steal_cut(None), Some(0.0));
        assert_eq!(w.ops_per_s(), 100.0);
        assert_eq!(w.percentile(Op::Step, 0.5), Some(1000.0));
        assert_eq!(w.percentile(Op::Step, 0.99), Some(1000.0));
        // A p99.9 needs 10 000 steps: every slice.
        assert_eq!(w.steal_cut(Some((Op::Step, 0.999))), Some(1.0));
        // 250 predicts take the free slices plus the three least stolen:
        // 100 fast and 150 slow ones.
        assert_eq!(w.steal_cut(Some((Op::Predict, 0.5))), Some(0.3));
        assert_eq!(w.percentile(Op::Predict, 0.5), Some(8000.0));
        assert_eq!(w.percentile(Op::Predict, 0.4), Some(2000.0));
    }

    #[test]
    fn percentiles_need_250_samples_and_ten_beyond() {
        assert_eq!(samples_for(0.5), 250);
        assert_eq!(samples_for(0.99), 1000);
        assert_eq!(samples_for(0.999), 10_000);
    }

    #[test]
    fn without_a_steal_counter_every_slice_counts() {
        let mut w = window();
        w.steal.clear();
        assert_eq!(w.steal_cut(None), None);
        assert_eq!(w.ops_per_s(), (200.0 + 50.0) / 3.0);
        assert_eq!(w.percentile(Op::Step, 0.5), Some(1000.0));
        assert_eq!(w.percentile(Op::Step, 0.7), Some(9000.0));
    }
}
