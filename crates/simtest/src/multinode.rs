//! The multi-node routing explorer: handoff/kill schedules on a
//! simulated cluster, cross-checked against a single node.
//!
//! One seed pins a cluster of K simulated nodes (each its own
//! [`FleetEngine`] with its own seeded scheduler), an op script, a fault
//! plan, and a *disruption plan* interleaved with the ops:
//!
//! - **Handoff**: an `Export` on the session's current node carries its
//!   `CHAMFLT1` blob to a rendezvous-chosen survivor (the routing tier's
//!   administrative drain).
//! - **Kill**: a node dies without warning; every session placed on it
//!   is re-homed from its *shadow checkpoint* — the blob probed after
//!   the session's last completed op, exactly what `chameleon-route`
//!   caches (a network-partition window looks identical from the
//!   session's perspective: ops stop reaching the node, and recovery
//!   re-homes from the last acknowledged state).
//! - **RouterRestart**: the routing tier itself crashes and restarts.
//!   The cluster's routing state (placement pins + seq-stamped shadows)
//!   is pushed through the real CHAMRTE1 codec from `chameleon-route`
//!   and decoded back, and the schedule only continues if the restarted
//!   view is bit-identical — the in-sim twin of the router's
//!   `--state-dir` recovery path.
//!
//! The invariant proved per seed is **placement invisibility**:
//! checkpoint restore resets transient training state *by design* (see
//! `chameleon-core`), so a moved session is not byte-identical to a
//! never-moved one — but it must be byte-identical to the same command
//! sequence on a **single node with a local evict/restore at the same
//! boundaries**. The explorer replays the multi-node run's interruption
//! trace as plain `Evict` commands on one engine and asserts every
//! per-session observable — each post-op probed `CHAMFLT1` blob, each
//! evaluation, each refusal — and every final checkpoint byte is
//! identical, no matter which nodes the session visited or how many
//! times it moved. A same-seed replay of the whole cluster must also
//! reproduce itself bit for bit.

use std::collections::HashMap;
use std::sync::Arc;

use chameleon_core::Precision;
use chameleon_fleet::{FleetConfig, FleetEngine, SessionCommand, SessionEventKind, SessionId};
use chameleon_runtime::{splitmix64, SimRng};
use chameleon_stream::DomainIlScenario;

use crate::digest::digest_by_session;
use crate::explorer::{apply_logged, evict_reference, final_blob, Blobs, Logs, Trace};
use crate::script::{self, Op};

/// One scheduled disruption, applied before the op at its index.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Disruption {
    /// Drain one session off its current node (export + import).
    Handoff {
        /// Session to move.
        session: SessionId,
    },
    /// Kill a node outright; its sessions re-home from shadows.
    Kill {
        /// Node to kill.
        node: usize,
    },
    /// Crash-and-restart the routing tier: round-trip its state through
    /// the CHAMRTE1 codec and require the recovered view to be
    /// bit-identical.
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
            // still alive counting from the drawn index), so the plan
            // stays valid however earlier kills landed.
            plan.push((
                index,
                Disruption::Kill {
                    node: rng.below(nodes as u64) as usize,
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
    /// Sessions actually moved by handoffs.
    pub handoffs: u64,
    /// Nodes killed (sessions re-homed from shadows).
    pub kills: u64,
    /// Sessions re-homed out of killed nodes.
    pub recovered: u64,
    /// Router crash/restart cycles survived (CHAMRTE1 state round-trips
    /// proven bit-identical).
    pub router_restarts: u64,
    /// Whether the case ran under an injected fault plan.
    pub faulted: bool,
    /// CRC32 over every per-session observable log, in id order.
    pub log_digest: u32,
    /// CRC32 over every session's final `CHAMFLT1` blob, in id order.
    pub checkpoint_crc: u32,
}

/// A simulated cluster: K engines, a placement map, and the shadow
/// checkpoint cache (the routing tier's state, in miniature).
struct Cluster {
    engines: Vec<FleetEngine>,
    alive: Vec<bool>,
    placement: HashMap<SessionId, usize>,
    shadows: HashMap<SessionId, Vec<u8>>,
    /// Per-session shadow refresh count — the op-sequence stamp the
    /// routing tier writes next to each shadow in its CHAMRTE1 log.
    shadow_seqs: HashMap<SessionId, u64>,
    logs: Logs,
    seed: u64,
    /// Sessions moved by handoffs and failovers; the single-node
    /// reference replays this as `Evict` commands.
    trace: Trace,
    handoffs: u64,
    kills: u64,
    recovered: u64,
    router_restarts: u64,
}

impl Cluster {
    fn new(scenario: &Arc<DomainIlScenario>, seed: u64, nodes: usize) -> Self {
        let faults = script::fault_plan(seed);
        let engines = (0..nodes)
            .map(|node| {
                FleetEngine::new_sim(
                    Arc::clone(scenario),
                    FleetConfig {
                        num_shards: 1 + (splitmix64(seed ^ (node as u64 + 1)) % 2) as usize,
                        queue_depth: 4,
                        budget_bytes: u64::MAX,
                        assignment_seed: splitmix64(seed ^ 0xA551 ^ node as u64),
                        faults,
                    },
                    splitmix64(seed ^ 0xB0B ^ (node as u64) << 8),
                )
            })
            .collect();
        Self {
            engines,
            alive: vec![true; nodes],
            placement: HashMap::new(),
            shadows: HashMap::new(),
            shadow_seqs: HashMap::new(),
            logs: Logs::new(),
            seed,
            trace: Trace::new(),
            handoffs: 0,
            kills: 0,
            recovered: 0,
            router_restarts: 0,
        }
    }

    /// Rendezvous choice among live nodes, optionally excluding one —
    /// the same highest-random-weight scheme `chameleon-route` uses.
    fn rendezvous(&self, session: SessionId, exclude: Option<usize>) -> Option<usize> {
        let key = splitmix64(session ^ self.seed);
        (0..self.engines.len())
            .filter(|&n| self.alive[n] && Some(n) != exclude)
            .max_by_key(|&n| splitmix64(key ^ (n as u64 + 1)))
    }

    fn owner_of(&self, session: SessionId) -> Option<usize> {
        self.placement
            .get(&session)
            .copied()
            .or_else(|| self.rendezvous(session, None))
    }

    /// Applies one script op on the session's current node; every probed
    /// post-op blob doubles as the session's shadow for later failovers.
    fn apply(&mut self, op: &Op) -> Result<(), String> {
        let session = op.session();
        let Some(node) = self.owner_of(session) else {
            return Err("no live node left to route to".to_string());
        };
        apply_logged(
            &mut self.engines[node],
            &mut self.logs,
            self.seed,
            op,
            Precision::F32,
            |event| {
                if let SessionEventKind::Checkpointed(blob) = event.kind {
                    self.shadows.insert(event.session, blob);
                    *self.shadow_seqs.entry(event.session).or_insert(0) += 1;
                }
                Ok(())
            },
        )?;
        if self.engines[node].known(session) {
            self.placement.entry(session).or_insert(node);
        }
        Ok(())
    }

    /// Administrative drain of one session: export on the old node
    /// (capture + forget), import on the rendezvous survivor.
    fn handoff(&mut self, op_index: usize, session: SessionId) -> Result<(), String> {
        let Some(old) = self.placement.get(&session).copied() else {
            return Ok(()); // never created (yet) — nothing to move
        };
        let Some(new) = self.rendezvous(session, Some(old)) else {
            return Ok(()); // nowhere to move it
        };
        if self.engines[old]
            .command_blocking(session, SessionCommand::Export)
            .is_err()
        {
            return Ok(());
        }
        // Export/import acknowledgements stay out of the compared history.
        let blob = self.engines[old]
            .drain_pending()
            .into_iter()
            .find_map(|e| match e.kind {
                SessionEventKind::Exported(blob) => Some(blob),
                _ => None,
            })
            .ok_or_else(|| format!("session {session}: export produced no blob"))?;
        self.engines[new]
            .command_blocking(session, SessionCommand::Import(blob.clone()))
            .map_err(|e| format!("session {session}: import refused: {e}"))?;
        self.engines[new].drain_pending();
        self.placement.insert(session, new);
        self.shadows.insert(session, blob);
        *self.shadow_seqs.entry(session).or_insert(0) += 1;
        self.trace.push((op_index, session));
        self.handoffs += 1;
        Ok(())
    }

    /// Crash-and-restart of the routing tier: serialize the cluster's
    /// routing state (placement pins keyed by a stable node address,
    /// shadows stamped with their refresh sequence) through the real
    /// CHAMRTE1 codec, decode it back, and require the recovered view to
    /// match bit for bit. Placement must survive exactly, or a restarted
    /// router would re-derive different owners and break invisibility.
    fn router_restart(&mut self) -> Result<(), String> {
        use chameleon_route::state;
        let mut log: Vec<u8> = state::STATE_MAGIC.to_vec();
        let mut sessions: Vec<SessionId> = self.placement.keys().copied().collect();
        sessions.sort_unstable();
        for &session in &sessions {
            log.extend_from_slice(&state::encode_pin(
                session,
                &format!("node-{}", self.placement[&session]),
            ));
        }
        let mut shadowed: Vec<SessionId> = self.shadows.keys().copied().collect();
        shadowed.sort_unstable();
        for &session in &shadowed {
            let seq = self.shadow_seqs.get(&session).copied().unwrap_or(0);
            log.extend_from_slice(&state::encode_shadow(session, seq, &self.shadows[&session]));
        }
        let decoded = state::decode_state(&log)
            .map_err(|e| format!("router restart: state log unreadable: {e}"))?;
        if let Some(damage) = decoded.damage {
            return Err(format!("router restart: state log damaged: {damage}"));
        }
        for &session in &sessions {
            let expected = format!("node-{}", self.placement[&session]);
            if decoded.image.pins.get(&session) != Some(&expected) {
                return Err(format!(
                    "router restart: session {session} pin did not survive the \
                     CHAMRTE1 round-trip"
                ));
            }
        }
        if decoded.image.pins.len() != sessions.len() {
            return Err("router restart: recovered pin table has extra entries".to_string());
        }
        for &session in &shadowed {
            let seq = self.shadow_seqs.get(&session).copied().unwrap_or(0);
            match decoded.image.shadows.get(&session) {
                Some((s, blob)) if *s == seq && *blob == self.shadows[&session] => {}
                _ => {
                    return Err(format!(
                        "router restart: session {session} shadow (seq {seq}) did not \
                         survive the CHAMRTE1 round-trip"
                    ));
                }
            }
        }
        self.router_restarts += 1;
        Ok(())
    }

    /// Kills a node outright: no export, every session placed on it is
    /// re-homed from its shadow checkpoint (its state after its last
    /// completed op).
    fn kill(&mut self, op_index: usize, node_hint: usize) -> Result<(), String> {
        let nodes = self.engines.len();
        let Some(victim) = (0..nodes)
            .map(|i| (node_hint + i) % nodes)
            .find(|&n| self.alive[n])
            .filter(|_| self.alive.iter().filter(|&&a| a).count() > 1)
        else {
            return Ok(()); // refuse to kill the last survivor
        };
        self.alive[victim] = false;
        self.kills += 1;
        let mut stranded: Vec<SessionId> = self
            .placement
            .iter()
            .filter(|(_, &n)| n == victim)
            .map(|(&s, _)| s)
            .collect();
        stranded.sort_unstable();
        for session in stranded {
            let Some(blob) = self.shadows.get(&session).cloned() else {
                continue;
            };
            let Some(new) = self.rendezvous(session, None) else {
                continue;
            };
            self.engines[new]
                .command_blocking(session, SessionCommand::Import(blob))
                .map_err(|e| format!("session {session}: failover import refused: {e}"))?;
            self.engines[new].drain_pending();
            self.placement.insert(session, new);
            self.trace.push((op_index, session));
            self.recovered += 1;
        }
        Ok(())
    }

    /// Final `CHAMFLT1` blob of every session, probed on its current
    /// node, in id order.
    fn final_blobs(&mut self) -> Result<Blobs, String> {
        let mut ids: Vec<SessionId> = self.placement.keys().copied().collect();
        ids.sort_unstable();
        let mut blobs = Blobs::new();
        for id in ids {
            blobs.insert(id, final_blob(&mut self.engines[self.placement[&id]], id)?);
        }
        Ok(blobs)
    }
}

/// Runs the multi-node schedule for one seed; returns the cluster (its
/// logs and interruption trace) and the final blobs.
fn run_cluster(
    scenario: &Arc<DomainIlScenario>,
    seed: u64,
    nodes: usize,
    ops: &[Op],
    plan: &[(usize, Disruption)],
) -> Result<(Cluster, Blobs), String> {
    let mut cluster = Cluster::new(scenario, seed, nodes);
    for (index, op) in ops.iter().enumerate() {
        for (at, disruption) in plan.iter().filter(|(at, _)| *at == index) {
            match disruption {
                Disruption::Handoff { session } => cluster.handoff(*at, *session)?,
                Disruption::Kill { node } => cluster.kill(*at, *node)?,
                Disruption::RouterRestart => cluster.router_restart()?,
            }
        }
        cluster
            .apply(op)
            .map_err(|e| format!("op {index} ({op:?}): {e}"))?;
    }
    let blobs = cluster.final_blobs()?;
    Ok((cluster, blobs))
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
    let nodes = 2 + (splitmix64(seed ^ 0x0DE5) % 2) as usize;
    let plan = disruption_plan(seed, ops.len(), nodes);

    let (cluster, blobs) = run_cluster(scenario, seed, nodes, &ops, &plan)
        .map_err(|e| format!("route seed {seed}: {e}"))?;
    let (replay, replay_blobs) = run_cluster(scenario, seed, nodes, &ops, &plan)
        .map_err(|e| format!("route seed {seed} [replay]: {e}"))?;

    // Replay determinism: the same seed must reproduce the same
    // interruption trace, the same per-session histories, and the same
    // final checkpoint bytes.
    if cluster.trace != replay.trace {
        return Err(format!(
            "route seed {seed}: replay performed a different interruption trace"
        ));
    }
    if cluster.logs != replay.logs || blobs != replay_blobs {
        return Err(format!(
            "route seed {seed}: same-seed cluster replay diverged"
        ));
    }

    // Placement invisibility: the single-node reference with the same
    // interruption boundaries must match every observable byte.
    let (ref_logs, ref_blobs) = evict_reference(scenario, seed, 1, &ops, &cluster.trace)
        .map_err(|e| format!("route seed {seed} [reference]: {e}"))?;
    for id in 0..script::SESSION_POOL {
        if cluster.logs.get(&id) != ref_logs.get(&id) {
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
        recovered: cluster.recovered,
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

    #[test]
    fn schedules_actually_disrupt() {
        let scenario = scenario();
        let mut moved = 0u64;
        for seed in 0..4u64 {
            let outcome = check_route_seed(&scenario, seed).expect("pass");
            moved += outcome.handoffs + outcome.recovered;
        }
        assert!(moved > 0, "no seed in 0..4 ever moved a session");
    }
}
