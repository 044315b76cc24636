//! Crash-schedule exploration of the durable session store.
//!
//! One seed pins one complete crash case: a generated lifecycle script
//! (`crate::script`), a scheduler seed, and a file-fault plan for the
//! store's disk ([`script::file_fault_plan`] — odd seeds get torn
//! writes, lying fsyncs, short reads, and tail bit flips). For that seed
//! the explorer:
//!
//! 1. runs the script **uninterrupted** against a store-attached sim
//!    engine on a clean disk, recording every sealed `CHAMSEG1` record
//!    (the baseline: what each eviction durably promised);
//! 2. replays the script and **kills the engine at every eviction
//!    boundary** — after the k-th store append, for every k — simulating
//!    power loss (non-durable tail torn/flipped per the fault plan);
//! 3. reopens the directory, runs [`FleetEngine::recover`], and asserts
//!    the recovery contract: every surviving sealed record is
//!    bit-identical to the baseline's record at the same `(session,
//!    seq)`, every recovered session serves exactly its last sealed
//!    checkpoint, and training *continued* from recovery is
//!    bit-identical to a control session restored directly from that
//!    sealed blob (the store is observably absent from learning).
//!
//! A violation message always embeds the seed and the crash boundary,
//! so any failure replays from its seed.

use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use chameleon_core::Precision;
use chameleon_fleet::{FleetConfig, FleetEngine, SessionCheckpoint, SessionCommand};
use chameleon_runtime::{splitmix64, Runtime};
use chameleon_store::{SharedStore, StoreConfig};
use chameleon_stream::DomainIlScenario;

use crate::explorer::{final_blobs, submit};
use crate::script::{self, Op};

/// Batches each recovered session trains after recovery for the
/// bit-identical-continuation check.
const CONTINUE_BATCHES: usize = 3;

/// What one passing crash seed looked like.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct CrashOutcome {
    /// The seed that pins this case.
    pub seed: u64,
    /// Ops in the generated script.
    pub ops: usize,
    /// Sealed appends the uninterrupted baseline produced (= eviction
    /// boundaries the schedule crashed at).
    pub boundaries: usize,
    /// Sessions recovered, summed across every crash boundary.
    pub sessions_recovered: u64,
    /// Sealed records lost to torn tails / lying fsyncs, summed across
    /// boundaries (only possible under a file-fault plan).
    pub records_lost: u64,
    /// Whether the store ran under an injected file-fault plan.
    pub file_faulted: bool,
}

/// Fleet config every crash case uses: two shards so recovery routing
/// is exercised, unbounded budget so the script's explicit `Evict` ops
/// are the only store writes (making boundaries enumerable).
fn crash_config(seed: u64) -> FleetConfig {
    FleetConfig {
        num_shards: 2,
        assignment_seed: splitmix64(seed ^ 0xA551),
        ..FleetConfig::default()
    }
}

fn scheduler_seed(seed: u64) -> u64 {
    splitmix64(seed ^ 0xC4A5)
}

/// Applies one script op, tolerating the script's deliberate misuse
/// (duplicate creates, unknown ids) — those refusals are the lifecycle
/// explorer's concern, not the crash schedule's.
fn apply(engine: &mut FleetEngine, seed: u64, op: &Op) {
    let _ = submit(engine, seed, op, Precision::F32);
    engine.drain_pending();
}

/// Runs the full crash schedule for one seed. `scratch` is a directory
/// this case may create, fill, and delete freely.
///
/// # Errors
///
/// Returns a human-readable violation (always naming the seed) if any
/// crash boundary breaks the recovery contract.
pub fn check_crash_seed(
    scenario: &Arc<DomainIlScenario>,
    seed: u64,
    scratch: &Path,
) -> Result<CrashOutcome, String> {
    let ops = script::generate(seed);
    let file_faults = script::file_fault_plan(seed);
    let err =
        |boundary: usize, msg: String| format!("crash seed {seed} boundary {boundary}: {msg}");

    // Phase 1: uninterrupted baseline on a clean disk. Every sealed
    // record it produces is a durability promise the crash runs must
    // keep (for whatever survives their hostile disk).
    let baseline_dir = scratch.join(format!("crash-{seed}-baseline"));
    let _ = std::fs::remove_dir_all(&baseline_dir);
    let baseline_store = SharedStore::open(StoreConfig::new(&baseline_dir))
        .map_err(|e| err(0, format!("open baseline store: {e}")))?;
    let mut baseline = FleetEngine::with_store(
        Arc::clone(scenario),
        crash_config(seed),
        Runtime::sim(scheduler_seed(seed)),
        baseline_store.clone(),
    );
    for op in &ops {
        apply(&mut baseline, seed, op);
    }
    let baseline_records: HashMap<(u64, u64), Vec<u8>> = baseline_store
        .records()
        .map_err(|e| err(0, format!("read baseline log: {e}")))?
        .into_iter()
        .map(|r| ((r.session, r.seq), r.payload))
        .collect();
    let boundaries = baseline_store.counters().appends as usize;
    drop(baseline);
    let _ = std::fs::remove_dir_all(&baseline_dir);

    // Phase 2+3: kill at every eviction boundary, recover, verify.
    let mut sessions_recovered = 0u64;
    let mut records_lost = 0u64;
    for boundary in 1..=boundaries {
        let dir = scratch.join(format!("crash-{seed}-b{boundary}"));
        let _ = std::fs::remove_dir_all(&dir);
        let mut config = StoreConfig::new(&dir);
        config.faults = file_faults;
        let store =
            SharedStore::open(config).map_err(|e| err(boundary, format!("open store: {e}")))?;
        let mut engine = FleetEngine::with_store(
            Arc::clone(scenario),
            crash_config(seed),
            Runtime::sim(scheduler_seed(seed)),
            store.clone(),
        );
        for op in &ops {
            apply(&mut engine, seed, op);
            if store.counters().appends as usize >= boundary {
                break; // the kill point: mid-script, right after this seal
            }
        }
        drop(engine); // SIGKILL: all RAM state gone
        store
            .simulate_crash()
            .map_err(|e| err(boundary, format!("simulate crash: {e}")))?;
        drop(store);

        // Restart: reopen the directory on a clean disk and recover.
        let store = SharedStore::open(StoreConfig::new(&dir))
            .map_err(|e| err(boundary, format!("reopen after crash: {e}")))?;
        let surviving = store
            .records()
            .map_err(|e| err(boundary, format!("read recovered log: {e}")))?;
        for record in &surviving {
            match baseline_records.get(&(record.session, record.seq)) {
                None => {
                    return Err(err(
                        boundary,
                        format!(
                            "recovered record (session {}, seq {}) was never sealed \
                             by the uninterrupted run",
                            record.session, record.seq
                        ),
                    ))
                }
                Some(expected) if *expected != record.payload => {
                    return Err(err(
                        boundary,
                        format!(
                            "recovered record (session {}, seq {}) differs from the \
                             uninterrupted run's sealed bytes",
                            record.session, record.seq
                        ),
                    ))
                }
                Some(_) => {}
            }
        }
        // Every record sealed *before* the kill point either survives
        // bit-identically (checked above) or was lost to the hostile
        // disk — which clean disks must never do.
        let lost = boundary.saturating_sub(surviving.len()) as u64;
        if lost > 0 && file_faults.is_none() {
            return Err(err(
                boundary,
                format!("{lost} sealed record(s) lost on a clean disk"),
            ));
        }
        records_lost += lost;

        let (mut recovered, report) = FleetEngine::recover(
            Arc::clone(scenario),
            crash_config(seed),
            Runtime::sim(splitmix64(seed ^ boundary as u64)),
            store.clone(),
        )
        .map_err(|e| err(boundary, format!("recover: {e}")))?;
        if report.decode_rejects > 0 {
            return Err(err(
                boundary,
                format!(
                    "{} sealed record(s) failed validation after a clean reopen",
                    report.decode_rejects
                ),
            ));
        }
        sessions_recovered += report.sessions_recovered as u64;

        // Contract: each recovered session IS its last sealed
        // checkpoint, and training continued from it is bit-identical
        // to a control restored straight from the sealed blob.
        let ids = store.sessions();
        let sealed: HashMap<u64, Vec<u8>> = ids
            .iter()
            .filter_map(|&id| store.get(id).ok().flatten().map(|blob| (id, blob)))
            .collect();
        let recovered_blobs = final_blobs(&mut recovered).map_err(|e| err(boundary, e))?;
        for (&id, blob) in &sealed {
            match recovered_blobs.get(&id) {
                None => {
                    return Err(err(
                        boundary,
                        format!("session {id} has a sealed record but was not recovered"),
                    ))
                }
                Some(b) if b != blob => {
                    return Err(err(
                        boundary,
                        format!("session {id} recovered to different bytes than its seal"),
                    ))
                }
                Some(_) => {}
            }
        }
        for &id in &ids {
            let _ = recovered.command_blocking(
                id,
                SessionCommand::Step {
                    batches: CONTINUE_BATCHES,
                },
            );
            recovered.drain_pending();
        }
        let continued = final_blobs(&mut recovered).map_err(|e| err(boundary, e))?;
        for (&id, blob) in &sealed {
            let mut control = SessionCheckpoint::from_bytes(blob)
                .map_err(|e| err(boundary, format!("decode sealed blob of session {id}: {e}")))?
                .restore(Arc::clone(scenario), None)
                .map_err(|e| err(boundary, format!("restore control for session {id}: {e}")))?;
            control.step_batches(CONTINUE_BATCHES);
            let expected = SessionCheckpoint::capture(&control).to_bytes();
            if continued.get(&id) != Some(&expected) {
                return Err(err(
                    boundary,
                    format!(
                        "session {id}: training after recovery diverged from the \
                         control restored directly from its sealed checkpoint"
                    ),
                ));
            }
        }
        drop(recovered);
        drop(store);
        let _ = std::fs::remove_dir_all(&dir);
    }

    Ok(CrashOutcome {
        seed,
        ops: ops.len(),
        boundaries,
        sessions_recovered,
        records_lost,
        file_faulted: file_faults.is_some(),
    })
}

/// A fresh scratch directory for one crash case, unique per call and per
/// process so concurrent cases never collide.
pub(crate) fn default_scratch() -> PathBuf {
    static CASES: AtomicU64 = AtomicU64::new(0);
    let case = CASES.fetch_add(1, Ordering::Relaxed);
    std::env::temp_dir().join(format!("chameleon-crash-sim-{}-{case}", std::process::id()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::golden::golden_scenario;

    #[test]
    fn crash_schedules_pass_on_clean_and_hostile_disks() {
        let scenario = golden_scenario();
        let scratch = default_scratch();
        let mut boundaries = 0;
        let mut faulted = 0;
        // One even (clean-disk) and one odd (hostile-disk) seed keep
        // tier-1 fast; the CLI sweep covers ≥50 seeds in CI.
        for seed in [2, 3] {
            let outcome = check_crash_seed(&scenario, seed, &scratch)
                .unwrap_or_else(|e| panic!("crash schedule failed: {e}"));
            boundaries += outcome.boundaries;
            faulted += usize::from(outcome.file_faulted);
        }
        assert!(faulted == 1, "odd seeds must run a hostile disk");
        assert!(
            boundaries > 0,
            "no eviction boundary in either script — crash coverage degenerate"
        );
        let _ = std::fs::remove_dir_all(&scratch);
    }

    #[test]
    fn outcomes_replay_from_their_seed() {
        let scenario = golden_scenario();
        let scratch = default_scratch();
        let a = check_crash_seed(&scenario, 5, &scratch).expect("seed 5");
        let b = check_crash_seed(&scenario, 5, &scratch).expect("seed 5 again");
        assert_eq!(a, b);
        let _ = std::fs::remove_dir_all(&scratch);
    }
}
