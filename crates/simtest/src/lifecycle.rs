//! The state-machine lifecycle explorer.
//!
//! One seed pins one complete simulation case: a generated op script
//! (`crate::script`), a fault plan, per-session specs, and the seeded
//! schedulers of the engines under comparison. For every seed the
//! explorer runs the same script against
//!
//! 1. a **1-shard** sim engine,
//! 2. a **K-shard** sim engine (K ∈ 2..=4, seed-derived) under a
//!    *different* scheduler seed and assignment seed, and
//! 3. the K-shard engine again with identical seeds (replay),
//!
//! asserting after every script prefix that the touched session's
//! observable history — every event, every probed `CHAMFLT1` checkpoint
//! byte — is identical across shard counts (the fleet determinism
//! contract), that quarantine/progress counters never regress, and that
//! the replay run reproduces the exact event log and final checkpoint
//! bytes of its twin.

use std::collections::HashMap;
use std::sync::Arc;

use chameleon_core::Precision;
use chameleon_fleet::{FleetEngine, SessionCheckpoint, SessionEvent, SessionEventKind, SessionId};
use chameleon_runtime::splitmix64;
use chameleon_stream::DomainIlScenario;

use crate::digest::{digest_by_session, digest_events, digest_spans, ShardScope};
use crate::explorer::{apply_logged, final_blobs, sim_config, Logs};
use crate::script::{self, Op};

/// What one passing seed looked like — enough to cross-check a replay
/// of the same seed on another machine or commit.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SeedOutcome {
    /// The seed that pins this case.
    pub seed: u64,
    /// Ops in the generated script.
    pub ops: usize,
    /// Shard count of the multi-shard engine (2..=4).
    pub shards: usize,
    /// Whether the case ran under an injected fault plan.
    pub faulted: bool,
    /// Events observed across all three runs.
    pub events: u64,
    /// CRC32 of the K-shard run's full event log (shard ids included).
    pub event_digest: u32,
    /// CRC32 over every session's final `CHAMFLT1` blob, in id order.
    pub checkpoint_crc: u32,
    /// CRC32 of the K-shard run's per-stage span aggregates (virtual-clock
    /// timings recorded by the fleet observer).
    pub span_digest: u32,
}

/// One engine under test plus the per-session observable history the
/// explorer compares across runs.
struct SimRun {
    engine: FleetEngine,
    logs: Logs,
    /// Every event in engine arrival order (shard-sensitive digests).
    all_events: Vec<SessionEvent>,
    /// Highest `trace.inputs` seen per session — progress counters must
    /// never regress, not even across evict/restore cycles.
    progress: HashMap<SessionId, u64>,
    /// Latent-codec precision every session spec in this run uses.
    precision: Precision,
}

impl SimRun {
    fn new(
        scenario: &Arc<DomainIlScenario>,
        seed: u64,
        num_shards: usize,
        scheduler_seed: u64,
        precision: Precision,
    ) -> Self {
        Self {
            engine: FleetEngine::new_sim(
                Arc::clone(scenario),
                sim_config(seed, num_shards),
                scheduler_seed,
            ),
            logs: Logs::new(),
            all_events: Vec::new(),
            progress: HashMap::new(),
            precision,
        }
    }

    /// Applies one op and its checkpoint probe, checking per-event
    /// invariants as the events stream past.
    fn apply(&mut self, seed: u64, op: &Op) -> Result<(), String> {
        let Self {
            engine,
            logs,
            all_events,
            progress,
            precision,
        } = self;
        apply_logged(engine, logs, seed, op, *precision, |event| {
            check_invariants(progress, &event)?;
            all_events.push(event);
            Ok(())
        })
    }

    /// Residency conservation: every created session is accounted for as
    /// either resident or cold, never lost, never duplicated.
    fn check_session_conservation(&mut self) -> Result<(), String> {
        let created = (0..script::SESSION_POOL)
            .filter(|&id| self.engine.known(id))
            .count();
        let metrics = self.engine.metrics();
        let held = metrics.sessions_resident() + metrics.sessions_cold();
        if held != created {
            return Err(format!(
                "session conservation broken: {created} created but {held} held"
            ));
        }
        Ok(())
    }
}

/// Invariants every event must satisfy regardless of interleaving:
/// checkpoint blobs parse and their quarantine/progress counters never
/// run backwards; evaluation accuracies stay in [0, 100].
fn check_invariants(
    progress: &mut HashMap<SessionId, u64>,
    event: &SessionEvent,
) -> Result<(), String> {
    match &event.kind {
        SessionEventKind::Checkpointed(blob) => {
            let ck = SessionCheckpoint::from_bytes(blob).map_err(|e| {
                format!("session {}: emitted blob unparsable: {e:?}", event.session)
            })?;
            if ck.session != event.session {
                return Err(format!(
                    "blob names session {} but event names {}",
                    ck.session, event.session
                ));
            }
            let inputs = ck.counters.trace.inputs;
            let seen = progress.entry(event.session).or_insert(0);
            if inputs < *seen {
                return Err(format!(
                    "session {}: trace.inputs regressed {} -> {inputs}",
                    event.session, *seen
                ));
            }
            *seen = inputs;
            for (store, stats) in [
                ("short-term", &ck.counters.short_term_stats),
                ("long-term", &ck.counters.long_term_stats),
            ] {
                if stats.corrupt_evictions > stats.sample_reads + stats.sample_writes {
                    return Err(format!(
                        "session {}: {store} quarantined more samples than it ever touched",
                        event.session
                    ));
                }
            }
        }
        SessionEventKind::Evaluated(report) => {
            let all = std::iter::once(report.acc_all)
                .chain(report.per_domain.iter().copied())
                .chain(report.per_class.iter().copied());
            for acc in all {
                if !(0.0..=100.0).contains(&acc) {
                    return Err(format!(
                        "session {}: accuracy {acc} outside [0, 100]",
                        event.session
                    ));
                }
            }
        }
        _ => {}
    }
    Ok(())
}

/// Runs the full shard-count-invariance + replay-determinism check for
/// one seed.
///
/// # Errors
///
/// A human-readable description of the first violated invariant; the
/// seed reproduces it bit-identically.
pub fn check_seed(scenario: &Arc<DomainIlScenario>, seed: u64) -> Result<SeedOutcome, String> {
    check_seed_at(scenario, seed, Precision::F32)
}

/// [`check_seed`] with every session spec pinned to `precision` — the
/// quantized soak slice. The same shard-count-invariance and
/// replay-determinism contracts must hold when latents round-trip
/// through the codec: quantization is deterministic, so a quantized
/// fleet replays bit-identically too.
///
/// # Errors
///
/// A human-readable description of the first violated invariant.
pub fn check_seed_at(
    scenario: &Arc<DomainIlScenario>,
    seed: u64,
    precision: Precision,
) -> Result<SeedOutcome, String> {
    let ops = script::generate(seed);
    let shards = 2 + (splitmix64(seed ^ 0x5A4D) % 3) as usize;
    let mut solo = SimRun::new(scenario, seed, 1, seed, precision);
    let mut multi = SimRun::new(scenario, seed, shards, splitmix64(seed ^ 0xB0B), precision);
    let mut replay = SimRun::new(scenario, seed, shards, splitmix64(seed ^ 0xB0B), precision);

    for (index, op) in ops.iter().enumerate() {
        let fail = |run: &str, e: String| format!("seed {seed} op {index} ({op:?}) [{run}]: {e}");
        solo.apply(seed, op).map_err(|e| fail("1-shard", e))?;
        multi
            .apply(seed, op)
            .map_err(|e| fail(format!("{shards}-shard").as_str(), e))?;
        replay.apply(seed, op).map_err(|e| fail("replay", e))?;
        // Shard-count invariance after this prefix: the touched
        // session's entire observable history (events + probed
        // checkpoint bytes) must be identical at 1 and K shards.
        let session = op.session();
        if solo.logs.get(&session) != multi.logs.get(&session) {
            return Err(format!(
                "seed {seed} op {index} ({op:?}): session {session} history diverges \
                 between 1 and {shards} shards"
            ));
        }
    }

    // Whole-run cross-check: every session's history, not just touched
    // prefixes, plus residency conservation per engine.
    if solo.logs != multi.logs {
        return Err(format!(
            "seed {seed}: per-session histories diverge between 1 and {shards} shards"
        ));
    }
    solo.check_session_conservation()
        .map_err(|e| format!("seed {seed} [1-shard]: {e}"))?;
    multi
        .check_session_conservation()
        .map_err(|e| format!("seed {seed} [{shards}-shard]: {e}"))?;

    // Replay determinism: identical seeds ⇒ identical event logs (shard
    // ids included) and identical final checkpoint bytes.
    let event_digest = digest_events(&multi.all_events, ShardScope::Include);
    let replay_digest = digest_events(&replay.all_events, ShardScope::Include);
    if event_digest != replay_digest {
        return Err(format!(
            "seed {seed}: same-seed replay produced a different event log \
             ({event_digest:#010x} vs {replay_digest:#010x})"
        ));
    }
    let blobs = final_blobs(&mut multi.engine).map_err(|e| format!("seed {seed}: {e}"))?;
    let replay_blobs =
        final_blobs(&mut replay.engine).map_err(|e| format!("seed {seed} [replay]: {e}"))?;
    if blobs != replay_blobs {
        return Err(format!(
            "seed {seed}: same-seed replay produced different final checkpoint bytes"
        ));
    }

    // Span determinism: the virtual-clock span aggregates the fleet
    // observer recorded must replay bit-identically too.
    let span_digest = digest_spans(&multi.engine.observer().snapshot_spans());
    let replay_spans = digest_spans(&replay.engine.observer().snapshot_spans());
    if span_digest != replay_spans {
        return Err(format!(
            "seed {seed}: same-seed replay produced different span aggregates \
             ({span_digest:#010x} vs {replay_spans:#010x})"
        ));
    }

    let events = (solo.all_events.len() + multi.all_events.len() + replay.all_events.len()) as u64;
    Ok(SeedOutcome {
        seed,
        ops: ops.len(),
        shards,
        faulted: script::fault_plan(seed).is_some(),
        events,
        event_digest,
        checkpoint_crc: digest_by_session(&blobs),
        span_digest,
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
    fn a_clean_and_a_faulted_seed_pass_and_replay_identically() {
        let scenario = scenario();
        for seed in [0u64, 1] {
            let a = check_seed(&scenario, seed).expect("invariants hold");
            let b = check_seed(&scenario, seed).expect("invariants hold");
            assert_eq!(a, b, "outcome of seed {seed} not reproducible");
            assert_eq!(a.faulted, seed % 2 == 1);
        }
    }

    #[test]
    fn quantized_seeds_replay_deterministically() {
        // The quantized soak slice: int8 sessions must satisfy the same
        // shard-count-invariance and replay-determinism contracts, and
        // must actually change the observable bytes versus f32 (the
        // checkpoints carry packed latents).
        let scenario = scenario();
        for seed in [0u64, 1] {
            let a = check_seed_at(&scenario, seed, Precision::Int8).expect("invariants hold");
            let b = check_seed_at(&scenario, seed, Precision::Int8).expect("invariants hold");
            assert_eq!(a, b, "quantized seed {seed} not reproducible");
            let f32_run = check_seed(&scenario, seed).expect("invariants hold");
            assert_ne!(
                a.checkpoint_crc, f32_run.checkpoint_crc,
                "int8 checkpoints should differ from f32 bytes"
            );
        }
    }

    #[test]
    fn different_seeds_explore_different_interleavings() {
        let scenario = scenario();
        let a = check_seed(&scenario, 2).expect("pass");
        let b = check_seed(&scenario, 4).expect("pass");
        assert_ne!(
            (a.event_digest, a.checkpoint_crc),
            (b.event_digest, b.checkpoint_crc),
            "two distinct seeds produced identical observables — scheduler not seeded?"
        );
    }
}
