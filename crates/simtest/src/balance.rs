//! The migration-schedule explorer: online session migrations injected
//! at seeded op boundaries, cross-checked against an unmigrated run.
//!
//! One seed pins a multi-shard sim engine, an op script, a fault plan,
//! and a *migration plan* interleaved with the ops: before the op at
//! each planned index, one session is moved to a planned target shard
//! with [`FleetEngine::migrate_session`] — the exact primitive the
//! `chameleon-balance` rebalancer drives in production.
//!
//! The invariant proved per seed is **migration invisibility**, the
//! balance-tier sibling of the route explorer's placement invisibility:
//! a migration is export + import, and both are specified to behave
//! like a local `Evict` at the same command boundary (observable state
//! moves bit for bit; transient training state restarts as the
//! checkpoint format documents). So the reference run replays the
//! migrated run's trace as plain `Evict` commands on an identical
//! engine and asserts every per-session observable and every final
//! `CHAMFLT1` byte is identical — no matter which shards the session
//! visited. A same-seed replay must also reproduce itself bit for bit,
//! which is what lets a `Balancer` policy (a deterministic function of
//! load) run in production without making outcomes schedule-dependent.

use std::sync::Arc;

use chameleon_core::Precision;
use chameleon_fleet::{FleetEngine, SessionId};
use chameleon_runtime::{splitmix64, SimRng};
use chameleon_stream::DomainIlScenario;

use crate::digest::digest_by_session;
use crate::explorer::{apply_logged, evict_reference, final_blobs, sim_config, Blobs, Logs, Trace};
use crate::script::{self, Op};

/// Seed-derived migration plan: `(op_index, session, target_shard)`
/// triples, applied before the op at `op_index`. Guaranteed non-empty (a
/// plan with no migrations would not test the balancer's primitive at
/// all). Targets may equal the session's current shard — the engine
/// treats that as a no-op skip, and the explorer must tolerate it.
pub fn migration_plan(seed: u64, ops: usize, shards: usize) -> Vec<(usize, SessionId, usize)> {
    let mut rng = SimRng::new(splitmix64(seed ^ 0xBA1A));
    let mut plan = Vec::new();
    for index in 1..ops {
        if rng.chance(1, 5) {
            plan.push((
                index,
                rng.below(script::SESSION_POOL),
                rng.below(shards as u64) as usize,
            ));
        }
    }
    if plan.is_empty() {
        plan.push((
            ops / 2,
            rng.below(script::SESSION_POOL),
            rng.below(shards as u64) as usize,
        ));
    }
    plan
}

/// What one passing migration-schedule seed looked like.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct BalanceSeedOutcome {
    /// The seed that pins this case.
    pub seed: u64,
    /// Ops in the generated script.
    pub ops: usize,
    /// Shards in the sim engine.
    pub shards: usize,
    /// Migrations actually performed (export + import round-trips).
    pub migrations: u64,
    /// Planned moves skipped (session unknown yet, or already on the
    /// target shard).
    pub skipped: u64,
    /// Whether the case ran under an injected fault plan.
    pub faulted: bool,
    /// CRC32 over every per-session observable log, in id order.
    pub log_digest: u32,
    /// CRC32 over every session's final `CHAMFLT1` blob, in id order.
    pub checkpoint_crc: u32,
}

/// One migrated run: the script with the plan's migrations applied at
/// their boundaries. Returns the logs, the performed-migration trace,
/// the skip count, and the final blobs.
fn run_migrated(
    scenario: &Arc<DomainIlScenario>,
    seed: u64,
    shards: usize,
    ops: &[Op],
    plan: &[(usize, SessionId, usize)],
) -> Result<(Logs, Trace, u64, Blobs), String> {
    let mut engine = FleetEngine::new_sim(Arc::clone(scenario), sim_config(seed, shards), seed);
    let mut logs = Logs::new();
    let mut trace = Trace::new();
    let mut skipped = 0u64;
    for (index, op) in ops.iter().enumerate() {
        for (at, session, to) in plan.iter().filter(|(at, _, _)| *at == index) {
            if !engine.known(*session) {
                skipped += 1;
                continue;
            }
            match engine.migrate_session(*session, *to) {
                Ok(true) => trace.push((*at, *session)),
                Ok(false) => skipped += 1,
                Err(e) => return Err(format!("migrate session {session} -> {to}: {e}")),
            }
        }
        apply_logged(&mut engine, &mut logs, seed, op, Precision::F32, |_| Ok(()))
            .map_err(|e| format!("op {index} ({op:?}): {e}"))?;
    }
    let blobs = final_blobs(&mut engine)?;
    Ok((logs, trace, skipped, blobs))
}

/// Runs the full migration-invisibility + replay-determinism check for
/// one seed.
///
/// # Errors
///
/// A human-readable description of the first violated invariant; the
/// seed reproduces it bit-identically.
pub fn check_balance_seed(
    scenario: &Arc<DomainIlScenario>,
    seed: u64,
) -> Result<BalanceSeedOutcome, String> {
    let ops = script::generate(seed);
    let shards = 2 + (splitmix64(seed ^ 0x5EED) % 2) as usize;
    let plan = migration_plan(seed, ops.len(), shards);

    let (logs, trace, skipped, blobs) = run_migrated(scenario, seed, shards, &ops, &plan)
        .map_err(|e| format!("balance seed {seed}: {e}"))?;
    let (replay_logs, replay_trace, replay_skipped, replay_blobs) =
        run_migrated(scenario, seed, shards, &ops, &plan)
            .map_err(|e| format!("balance seed {seed} [replay]: {e}"))?;
    if trace != replay_trace || skipped != replay_skipped {
        return Err(format!(
            "balance seed {seed}: replay performed a different migration trace"
        ));
    }
    if logs != replay_logs || blobs != replay_blobs {
        return Err(format!(
            "balance seed {seed}: same-seed migrated replay diverged"
        ));
    }

    let (ref_logs, ref_blobs) = evict_reference(scenario, seed, shards, &ops, &trace)
        .map_err(|e| format!("balance seed {seed} [reference]: {e}"))?;
    for id in 0..script::SESSION_POOL {
        if logs.get(&id) != ref_logs.get(&id) {
            return Err(format!(
                "balance seed {seed}: session {id} history diverges between the \
                 migrated run and the evict-only reference"
            ));
        }
    }
    if blobs != ref_blobs {
        return Err(format!(
            "balance seed {seed}: final checkpoint bytes diverge between the \
             migrated run and the evict-only reference"
        ));
    }

    Ok(BalanceSeedOutcome {
        seed,
        ops: ops.len(),
        shards,
        migrations: trace.len() as u64,
        skipped,
        faulted: script::fault_plan(seed).is_some(),
        log_digest: digest_by_session(&logs),
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
    fn migration_plans_are_seeded_and_nonempty() {
        for seed in 0..32u64 {
            let a = migration_plan(seed, 20, 3);
            let b = migration_plan(seed, 20, 3);
            assert_eq!(a, b);
            assert!(!a.is_empty());
            assert!(a
                .iter()
                .all(|&(_, s, to)| s < script::SESSION_POOL && to < 3));
        }
        assert_ne!(migration_plan(1, 20, 3), migration_plan(2, 20, 3));
    }

    #[test]
    fn a_clean_and_a_faulted_balance_seed_pass_and_reproduce() {
        let scenario = scenario();
        for seed in [0u64, 1] {
            let a = check_balance_seed(&scenario, seed).expect("invariants hold");
            let b = check_balance_seed(&scenario, seed).expect("invariants hold");
            assert_eq!(a, b, "outcome of balance seed {seed} not reproducible");
            assert_eq!(a.faulted, seed % 2 == 1);
        }
    }

    #[test]
    fn schedules_actually_migrate() {
        let scenario = scenario();
        let mut moved = 0u64;
        for seed in 0..4u64 {
            let outcome = check_balance_seed(&scenario, seed).expect("pass");
            moved += outcome.migrations;
        }
        assert!(moved > 0, "no seed in 0..4 ever migrated a session");
    }
}
