//! The multi-node routing explorer: drain, kill and router-restart
//! schedules driven through `chameleon-route`'s own routing core,
//! cross-checked against a single node.
//!
//! One seed pins a cluster of K simulated nodes (each its own
//! [`FleetEngine`] with its own shard count and seeded scheduler), an op
//! script, a fault plan, and a *disruption plan* interleaved with the
//! ops. The router under test is the real one: a [`RouteCore`] opened on
//! a scratch state directory and linked to each node through a
//! `SimNode`, which answers wire requests through the server's own
//! request → command → response mapping. Every script op and its post-op
//! `Checkpoint` probe enter through [`RouteCore::handle`] as wire
//! requests, so placement, pinning, shadow refresh and failover are the
//! router's own:
//!
//! - **Handoff**: [`RouteCore::drain_backend`] of the session's owner
//!   (export on the old node, import on the rendezvous successor).
//! - **Kill**: the node's link starts refusing. Either the router is told
//!   at once ([`RouteCore::mark_dead`], the prober's bury), or it finds
//!   out on the next forward there, then buries, fails over and
//!   re-sends.
//! - **RouterRestart**: the core is dropped and reopened on the same
//!   state dir, so pins and shadows come back through the CHAMRTE1 log
//!   on disk; the reopened core must report recovering exactly the pins
//!   and shadows the old one held, and hold the same image.
//!
//! A drained node stays `Draining`, so a drain or kill that would leave
//! no node both up and eligible is skipped, decided at apply time.
//!
//! The invariant proved per seed is **placement invisibility**:
//! checkpoint restore resets transient training state *by design* (see
//! `chameleon-core`), so a moved session is not byte-identical to a
//! never-moved one — but it must be byte-identical to the same requests
//! through a **one-node core with an `Evict` at the same boundaries**.
//! Which sessions moved, and before which op, is read off the core's
//! pins before and after every disruption and every op. Every response
//! to the explorer's own requests (each op's and each probe's, as wire
//! bytes) and every final checkpoint byte must match the reference, no
//! matter which nodes the session visited or how many times it moved. A
//! same-seed replay of the whole cluster must also reproduce itself bit
//! for bit.

use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};

use chameleon_core::Precision;
use chameleon_fleet::{FleetConfig, FleetEngine, SessionId};
use chameleon_obs::Observer;
use chameleon_route::{BackendLink, RouteCore, RouterConfig};
use chameleon_runtime::{splitmix64, SimRng, VirtualClock};
use chameleon_serve::wire::{encode_frame, Request, Response};
use chameleon_serve::{event_response, fleet_error_response, session_command};
use chameleon_stream::DomainIlScenario;

use crate::digest::digest_by_session;
use crate::explorer::{scratch_dir, sim_config, Blobs, Logs, Trace};
use crate::script::{self, Op};

/// One scheduled disruption, applied before the op at its index.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Disruption {
    /// Drain the node this session lives on.
    Handoff {
        /// Session whose owner is drained.
        session: SessionId,
    },
    /// Kill a node outright; its sessions re-home from shadows.
    Kill {
        /// Node to kill.
        node: usize,
        /// Whether the router is told at once (`mark_dead`) or finds out
        /// on its next forward to the node.
        mark_dead: bool,
    },
    /// Crash-and-restart the routing tier: reopen the core on its state
    /// dir and require the recovered state to be the one it held.
    RouterRestart,
}

/// Seed-derived disruption plan: `(op_index, disruption)` pairs, applied
/// before the op at `op_index`. Guaranteed non-empty (a plan with no
/// disruptions would not test routing at all) and to never kill the last
/// surviving node.
pub fn disruption_plan(seed: u64, ops: usize, nodes: usize) -> Vec<(usize, Disruption)> {
    let mut rng = SimRng::new(splitmix64(seed ^ 0xD157));
    let mut plan = Vec::new();
    let mut alive = nodes;
    for index in 1..ops {
        if !rng.chance(1, 6) {
            continue;
        }
        if rng.chance(1, 4) {
            plan.push((index, Disruption::RouterRestart));
        } else if alive > 1 && rng.chance(1, 3) {
            // The specific victim is resolved at apply time (first node
            // still up counting from the drawn index), so the plan stays
            // valid however earlier kills landed.
            plan.push((
                index,
                Disruption::Kill {
                    node: rng.below(nodes as u64) as usize,
                    mark_dead: rng.chance(1, 2),
                },
            ));
            alive -= 1;
        } else {
            plan.push((
                index,
                Disruption::Handoff {
                    session: rng.below(script::SESSION_POOL),
                },
            ));
        }
    }
    if plan.is_empty() {
        plan.push((
            ops / 2,
            Disruption::Handoff {
                session: rng.below(script::SESSION_POOL),
            },
        ));
    }
    plan
}

/// What one passing routed seed looked like.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct RouteSeedOutcome {
    /// The seed that pins this case.
    pub seed: u64,
    /// Ops in the generated script.
    pub ops: usize,
    /// Simulated nodes in the cluster.
    pub nodes: usize,
    /// Sessions moved by drains.
    pub handoffs: u64,
    /// Nodes killed.
    pub kills: u64,
    /// Sessions re-homed out of killed nodes from their shadows.
    pub recovered: u64,
    /// Router crash/restart cycles survived (each reopened from the
    /// state log to exactly the image it held).
    pub router_restarts: u64,
    /// Whether the case ran under an injected fault plan.
    pub faulted: bool,
    /// CRC32 over every per-session observable log, in id order.
    pub log_digest: u32,
    /// CRC32 over every session's final `CHAMFLT1` blob, in id order.
    pub checkpoint_crc: u32,
}

/// One simulated backend: a sim engine answered through the server's
/// own request → command → response mapping. A killed node refuses every
/// request, as an unreachable backend does.
struct SimNode {
    engine: Mutex<FleetEngine>,
    up: AtomicBool,
}

impl SimNode {
    fn new(engine: FleetEngine) -> Arc<Self> {
        Arc::new(Self {
            engine: Mutex::new(engine),
            up: AtomicBool::new(true),
        })
    }
}

impl BackendLink for SimNode {
    fn forward(&self, request: &Request) -> Result<Response, String> {
        if !self.probe() {
            return Err("node killed".to_string());
        }
        let (session, command) =
            session_command(request.clone()).ok_or("a sim node serves session requests only")?;
        let mut engine = self.engine.lock().map_err(|e| e.to_string())?;
        if let Err(error) = engine.command_blocking(session, command) {
            return Ok(fleet_error_response(&error));
        }
        // One command in flight, so exactly one event acknowledges it.
        let event = engine.drain_pending().pop().ok_or("no acknowledgement")?;
        Ok(event_response(event.kind))
    }

    fn probe(&self) -> bool {
        self.up.load(Ordering::Relaxed)
    }
}

/// The cluster of `seed`: `nodes` sim engines, each with its own shard
/// count, assignment seed and scheduler.
fn cluster_nodes(scenario: &Arc<DomainIlScenario>, seed: u64, nodes: usize) -> Vec<Arc<SimNode>> {
    (0..nodes)
        .map(|node| {
            SimNode::new(FleetEngine::new_sim(
                Arc::clone(scenario),
                FleetConfig {
                    num_shards: 1 + (splitmix64(seed ^ (node as u64 + 1)) % 2) as usize,
                    queue_depth: 4,
                    budget_bytes: u64::MAX,
                    assignment_seed: splitmix64(seed ^ 0xA551 ^ node as u64),
                    faults: script::fault_plan(seed),
                },
                splitmix64(seed ^ 0xB0B ^ (node as u64) << 8),
            ))
        })
        .collect()
}

/// Nodes in the cluster of `seed`: two or three.
fn node_count(seed: u64) -> usize {
    2 + (splitmix64(seed ^ 0x0DE5) % 2) as usize
}

/// Each pool session's owner, by id.
fn owners(core: &RouteCore) -> Vec<Option<usize>> {
    (0..script::SESSION_POOL)
        .map(|session| core.owner_of(session))
        .collect()
}

/// The route explorer's applier: sends `op` through `core` as its wire
/// request, then probes the session with a `Checkpoint`; both responses'
/// frames join the session's history.
fn apply_routed(core: &RouteCore, logs: &mut Logs, seed: u64, op: &Op) {
    let session = op.session();
    let request = match *op {
        Op::Create { .. } => Request::CreateSession {
            session,
            spec: script::session_spec_at(seed, session, Precision::F32),
        },
        Op::Step { batches, .. } => Request::Step {
            session,
            batches: batches as u32,
        },
        Op::Checkpoint { .. } => Request::Checkpoint { session },
        Op::Evict { .. } => Request::Evict { session },
        Op::Evaluate { .. } => Request::Predict { session },
    };
    let log = logs.entry(session).or_default();
    for request in [request, Request::Checkpoint { session }] {
        log.extend_from_slice(&encode_frame(&core.handle(&request).encode_payload(0)));
    }
}

/// The final `CHAMFLT1` blob of every session `core` has pinned, in id
/// order.
fn routed_blobs(core: &RouteCore) -> Result<Blobs, String> {
    let mut blobs = Blobs::new();
    for session in (0..script::SESSION_POOL).filter(|&s| core.owner_of(s).is_some()) {
        match core.handle(&Request::Checkpoint { session }) {
            Response::Checkpointed(blob) => blobs.insert(session, blob),
            other => return Err(format!("session {session}: final checkpoint: {other:?}")),
        };
    }
    Ok(blobs)
}

/// One routed run of a seed's script: sim nodes behind a routing core
/// that keeps its state in a scratch dir, and what the explorer saw.
#[derive(Default)]
struct Run {
    nodes: Vec<Arc<SimNode>>,
    state_dir: PathBuf,
    logs: Logs,
    /// Sessions the router moved, read off its pins.
    trace: Trace,
    handoffs: u64,
    kills: u64,
    /// Sessions moved by a kill reported at once (`mark_dead`).
    buried: u64,
    /// Sessions moved by a forward that found its node dead.
    failed_over: u64,
    router_restarts: u64,
    /// Pins the reopened cores recovered, summed over restarts.
    pins_recovered: u64,
}

impl Run {
    /// Runs `ops` through a core over `nodes`, applying before the op at
    /// each index the `plan`'s disruptions, then an `Evict` request for
    /// each `evicts` session (acknowledgements stay out of the history,
    /// as the router's own exports and imports do). Returns the run and
    /// the final blobs; the state dir is removed whatever the result.
    fn drive(
        nodes: Vec<Arc<SimNode>>,
        seed: u64,
        ops: &[Op],
        plan: &[(usize, Disruption)],
        evicts: &[(usize, SessionId)],
    ) -> Result<(Self, Blobs), String> {
        let mut run = Self {
            nodes,
            state_dir: scratch_dir("route"),
            ..Self::default()
        };
        let blobs = run.apply(seed, ops, plan, evicts);
        let _ = std::fs::remove_dir_all(&run.state_dir);
        blobs.map(|blobs| (run, blobs))
    }

    fn apply(
        &mut self,
        seed: u64,
        ops: &[Op],
        plan: &[(usize, Disruption)],
        evicts: &[(usize, SessionId)],
    ) -> Result<Blobs, String> {
        let mut core = self.open()?;
        for (index, op) in ops.iter().enumerate() {
            for &(_, disruption) in plan.iter().filter(|(at, _)| *at == index) {
                core = self.disrupt(core, index, disruption)?;
            }
            for &(_, session) in evicts.iter().filter(|(at, _)| *at == index) {
                core.handle(&Request::Evict { session });
            }
            let before = owners(&core);
            apply_routed(&core, &mut self.logs, seed, op);
            self.failed_over += self.record_moves(index, &before, &core);
        }
        routed_blobs(&core)
    }

    /// A routing core over the nodes, named `node-0`, `node-1`, …, on
    /// the run's state dir.
    fn open(&self) -> Result<RouteCore, String> {
        let config = RouterConfig {
            backends: (0..self.nodes.len()).map(|n| format!("node-{n}")).collect(),
            state_dir: Some(self.state_dir.clone()),
            ..RouterConfig::default()
        };
        let links = self
            .nodes
            .iter()
            .map(|node| Arc::clone(node) as Arc<dyn BackendLink>)
            .collect();
        let obs = Arc::new(Observer::new(VirtualClock::shared(0)));
        RouteCore::open(&config, links, obs).map_err(|e| format!("router state log: {e}"))
    }

    /// Traces, at `index`, every session whose owner is no longer the
    /// one in `before`; returns how many.
    fn record_moves(&mut self, index: usize, before: &[Option<usize>], core: &RouteCore) -> u64 {
        let mut moved = 0;
        for (session, (was, now)) in (0..).zip(before.iter().zip(owners(core))) {
            if was.is_some() && *was != now {
                self.trace.push((index, session));
                moved += 1;
            }
        }
        moved
    }

    /// Whether a node other than `node` is up and eligible for sessions.
    fn serving_besides(&self, core: &RouteCore, node: usize) -> bool {
        core.backend_states()
            .iter()
            .enumerate()
            .any(|(n, (_, state))| n != node && state.eligible() && self.nodes[n].probe())
    }

    /// Applies one disruption before the op at `index`, tracing the
    /// sessions it moved. A restart consumes the core and returns the
    /// reopened one.
    fn disrupt(
        &mut self,
        core: RouteCore,
        index: usize,
        disruption: Disruption,
    ) -> Result<RouteCore, String> {
        let before = owners(&core);
        match disruption {
            Disruption::Handoff { session } => {
                // Nothing to drain before the session exists.
                let owner = core.owner_of(session);
                if let Some(owner) = owner.filter(|&o| self.serving_besides(&core, o)) {
                    core.drain_backend(owner).map_err(|e| e.to_string())?;
                    self.handoffs += self.record_moves(index, &before, &core);
                }
            }
            Disruption::Kill { node, mark_dead } => {
                let n = self.nodes.len();
                let victim = (0..n)
                    .map(|i| (node + i) % n)
                    .find(|&v| self.nodes[v].probe())
                    .filter(|&v| self.serving_besides(&core, v));
                if let Some(victim) = victim {
                    self.nodes[victim].up.store(false, Ordering::Relaxed);
                    self.kills += 1;
                    if mark_dead {
                        core.mark_dead(victim).map_err(|e| e.to_string())?;
                        self.buried += self.record_moves(index, &before, &core);
                    }
                }
            }
            Disruption::RouterRestart => {
                let held = core.image();
                drop(core);
                let core = self.open()?;
                let recovered = core.counters();
                let recovered = (recovered.pins_recovered, recovered.shadows_recovered);
                let expected = (held.pins.len() as u64, held.shadows.len() as u64);
                if recovered != expected || core.image() != held {
                    return Err(format!(
                        "router restart: recovered (pins, shadows) {recovered:?} of the \
                         {expected:?} held, or not the image held"
                    ));
                }
                self.router_restarts += 1;
                self.pins_recovered += recovered.0;
                return Ok(core);
            }
        }
        Ok(core)
    }
}

/// Runs the full multi-node placement-invisibility + replay-determinism
/// check for one seed.
///
/// # Errors
///
/// A human-readable description of the first violated invariant; the
/// seed reproduces it bit-identically.
pub fn check_route_seed(
    scenario: &Arc<DomainIlScenario>,
    seed: u64,
) -> Result<RouteSeedOutcome, String> {
    let ops = script::generate(seed);
    let nodes = node_count(seed);
    let plan = disruption_plan(seed, ops.len(), nodes);
    let run_cluster = |tag| {
        Run::drive(cluster_nodes(scenario, seed, nodes), seed, &ops, &plan, &[])
            .map_err(|e| format!("route seed {seed}{tag}: {e}"))
    };
    let (cluster, blobs) = run_cluster("")?;
    let (replay, replay_blobs) = run_cluster(" [replay]")?;

    // Replay determinism: the same seed must reproduce the same move
    // trace, the same per-session histories, and the same final
    // checkpoint bytes.
    if cluster.trace != replay.trace {
        return Err(format!(
            "route seed {seed}: replay performed a different move trace"
        ));
    }
    if cluster.logs != replay.logs || blobs != replay_blobs {
        return Err(format!(
            "route seed {seed}: same-seed cluster replay diverged"
        ));
    }

    // Placement invisibility: a one-node core with an `Evict` at every
    // move must match every observable byte.
    let one_node = vec![SimNode::new(FleetEngine::new_sim(
        Arc::clone(scenario),
        sim_config(seed, 1),
        seed,
    ))];
    let (reference, ref_blobs) = Run::drive(one_node, seed, &ops, &[], &cluster.trace)
        .map_err(|e| format!("route seed {seed} [reference]: {e}"))?;
    for id in 0..script::SESSION_POOL {
        if cluster.logs.get(&id) != reference.logs.get(&id) {
            return Err(format!(
                "route seed {seed}: session {id} history diverges between the \
                 {nodes}-node cluster and the single-node reference"
            ));
        }
    }
    if blobs != ref_blobs {
        return Err(format!(
            "route seed {seed}: final checkpoint bytes diverge between the \
             {nodes}-node cluster and the single-node reference"
        ));
    }

    Ok(RouteSeedOutcome {
        seed,
        ops: ops.len(),
        nodes,
        handoffs: cluster.handoffs,
        kills: cluster.kills,
        recovered: cluster.buried + cluster.failed_over,
        router_restarts: cluster.router_restarts,
        faulted: script::fault_plan(seed).is_some(),
        log_digest: digest_by_session(&cluster.logs),
        checkpoint_crc: digest_by_session(&blobs),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use chameleon_stream::DatasetSpec;

    fn scenario() -> Arc<DomainIlScenario> {
        Arc::new(DomainIlScenario::generate(
            &DatasetSpec::core50_tiny(),
            0x51A7E57,
        ))
    }

    #[test]
    fn disruption_plans_are_seeded_and_nonempty() {
        for seed in 0..32u64 {
            let a = disruption_plan(seed, 20, 3);
            let b = disruption_plan(seed, 20, 3);
            assert_eq!(a, b);
            assert!(!a.is_empty());
        }
        assert_ne!(disruption_plan(1, 20, 3), disruption_plan(2, 20, 3));
    }

    #[test]
    fn a_clean_and_a_faulted_route_seed_pass_and_reproduce() {
        let scenario = scenario();
        for seed in [0u64, 1] {
            let a = check_route_seed(&scenario, seed).expect("invariants hold");
            let b = check_route_seed(&scenario, seed).expect("invariants hold");
            assert_eq!(a, b, "outcome of route seed {seed} not reproducible");
            assert_eq!(a.faulted, seed % 2 == 1);
        }
    }

    #[test]
    fn plans_schedule_router_restarts() {
        let restarts = (0..32u64)
            .flat_map(|seed| disruption_plan(seed, 20, 3))
            .filter(|(_, d)| *d == Disruption::RouterRestart)
            .count();
        assert!(restarts > 0, "no seed in 0..32 ever restarts the router");
    }

    /// Seeds 0..8 together take every path the router moves a session
    /// by, and restart it with pins to recover.
    #[test]
    fn schedules_actually_disrupt() {
        let scenario = scenario();
        let (mut drained, mut buried, mut failed_over, mut pins) = (0, 0, 0, 0);
        for seed in 0..8u64 {
            let ops = script::generate(seed);
            let nodes = node_count(seed);
            let plan = disruption_plan(seed, ops.len(), nodes);
            let nodes = cluster_nodes(&scenario, seed, nodes);
            let (run, _) = Run::drive(nodes, seed, &ops, &plan, &[]).expect("pass");
            drained += run.handoffs;
            buried += run.buried;
            failed_over += run.failed_over;
            pins += run.pins_recovered;
        }
        assert!(drained > 0, "no drain moved a session");
        assert!(buried > 0, "no mark_dead re-homed a session");
        assert!(failed_over > 0, "no forward failed a session over");
        assert!(pins > 0, "no restart recovered a pin");
    }
}
