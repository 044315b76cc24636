//! Durable-store integration: a store-attached fleet behaves bit-identically
//! to a RAM-only fleet, its counters reconcile with eviction counts, and
//! `FleetEngine::recover` rebuilds every session to its last sealed
//! checkpoint with bit-identical subsequent training.

use std::collections::HashMap;
use std::path::PathBuf;
use std::sync::Arc;

use chameleon_core::ChameleonConfig;
use chameleon_fleet::{
    FleetConfig, FleetEngine, SessionCheckpoint, SessionCommand, SessionEventKind, SessionId,
    SessionSpec, UserSession,
};
use chameleon_runtime::Runtime;
use chameleon_store::{SharedStore, StoreConfig};
use chameleon_stream::{DatasetSpec, DomainIlScenario, StreamConfig};

fn scenario() -> Arc<DomainIlScenario> {
    Arc::new(DomainIlScenario::generate(
        &DatasetSpec::core50_tiny(),
        0x5709E,
    ))
}

fn spec(user: SessionId) -> SessionSpec {
    SessionSpec {
        learner: ChameleonConfig {
            long_term_capacity: 30,
            ..ChameleonConfig::default()
        },
        stream: StreamConfig::default(),
        learner_seed: user.wrapping_mul(17) ^ 3,
        stream_seed: user.wrapping_add(41),
    }
}

fn scratch(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "chameleon-fleet-store-{name}-{}",
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn config() -> FleetConfig {
    FleetConfig {
        num_shards: 2,
        ..FleetConfig::default()
    }
}

/// Creates users, steps each, evicts each, then checkpoints each;
/// returns each user's blob from the Checkpointed event.
fn run_workload(fleet: &mut FleetEngine, users: &[SessionId]) -> HashMap<SessionId, Vec<u8>> {
    for &user in users {
        fleet.create_blocking(user, spec(user)).expect("create");
    }
    for &user in users {
        fleet
            .command_blocking(user, SessionCommand::Step { batches: 10 })
            .expect("step");
    }
    for &user in users {
        fleet
            .command_blocking(user, SessionCommand::Evict)
            .expect("evict");
    }
    for &user in users {
        fleet
            .command_blocking(user, SessionCommand::Checkpoint)
            .expect("checkpoint");
    }
    let mut blobs = HashMap::new();
    for event in fleet.drain_pending() {
        if let SessionEventKind::Checkpointed(blob) = event.kind {
            blobs.insert(event.session, blob);
        }
    }
    blobs
}

#[test]
fn store_attached_fleet_is_bit_identical_to_ram_only() {
    let users = [1u64, 2, 3, 4];
    let dir = scratch("parity");
    let store = SharedStore::open(StoreConfig::new(&dir)).expect("open store");

    let mut with_store =
        FleetEngine::with_store(scenario(), config(), Runtime::sim(7), store.clone());
    let stored_blobs = run_workload(&mut with_store, &users);

    let mut ram_only = FleetEngine::new_sim(scenario(), config(), 7);
    let ram_blobs = run_workload(&mut ram_only, &users);

    assert_eq!(stored_blobs.len(), users.len());
    for &user in &users {
        assert_eq!(
            stored_blobs[&user], ram_blobs[&user],
            "user {user}: spilling through the store changed checkpoint bytes"
        );
    }

    // Reconciliation: every eviction wrote through the store, exactly once
    // (budget is unbounded, so the 4 explicit evicts are the only ones).
    let evictions = with_store.metrics().evictions();
    let counters = store.counters();
    assert_eq!(counters.appends, evictions);
    assert_eq!(counters.appends, users.len() as u64);
    assert_eq!(counters.decode_rejects, 0);

    drop(with_store);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn recover_rebuilds_every_session_with_bit_identical_training() {
    let users = [10u64, 11, 12];
    let dir = scratch("recover");
    {
        let store = SharedStore::open(StoreConfig::new(&dir)).expect("open store");
        let mut fleet =
            FleetEngine::with_store(scenario(), config(), Runtime::sim(3), store.clone());
        run_workload(&mut fleet, &users);
        // Process dies here: engine dropped, store dropped, RAM gone.
    }

    let store = SharedStore::open(StoreConfig::new(&dir)).expect("reopen store");
    let (mut fleet, report) =
        FleetEngine::recover(scenario(), config(), Runtime::sim(9), store.clone())
            .expect("recover");
    assert_eq!(report.sessions_recovered, users.len());
    assert_eq!(report.decode_rejects, 0);
    assert_eq!(store.counters().sessions_recovered, users.len() as u64);

    for &user in &users {
        assert!(fleet.known(user), "recovered session {user} not known");
    }

    // Each recovered session serves its last sealed checkpoint verbatim...
    let mut recovered_blobs = HashMap::new();
    for &user in &users {
        fleet
            .command_blocking(user, SessionCommand::Checkpoint)
            .expect("checkpoint");
    }
    for event in fleet.drain_pending() {
        if let SessionEventKind::Checkpointed(blob) = event.kind {
            recovered_blobs.insert(event.session, blob);
        }
    }

    for &user in &users {
        let sealed = store.get(user).expect("store read").expect("sealed record");
        assert_eq!(
            recovered_blobs[&user], sealed,
            "user {user}: recovered checkpoint differs from last sealed record"
        );
    }

    // ...and training after recovery is bit-identical to a session restored
    // directly from the sealed blob (no store in the loop).
    for &user in &users {
        fleet
            .command_blocking(user, SessionCommand::Step { batches: 5 })
            .expect("step");
        fleet
            .command_blocking(user, SessionCommand::Checkpoint)
            .expect("checkpoint");
    }
    let mut post_blobs = HashMap::new();
    for event in fleet.drain_pending() {
        if let SessionEventKind::Checkpointed(blob) = event.kind {
            post_blobs.insert(event.session, blob);
        }
    }
    for &user in &users {
        let control = SessionCheckpoint::from_bytes(&recovered_blobs[&user])
            .expect("decode")
            .restore(scenario(), None)
            .expect("restore");
        let mut control = control;
        control.step_batches(5);
        let expected = SessionCheckpoint::capture(&control).to_bytes();
        assert_eq!(
            post_blobs[&user], expected,
            "user {user}: post-recovery training diverged from control"
        );
    }

    drop(fleet);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn recovery_rejects_a_stored_blob_no_engine_can_run() {
    let dir = scratch("unrunnable");
    let scenario = scenario();
    let mut session = UserSession::new(5, spec(5), Arc::clone(&scenario), None);
    session.step_batches(3);
    let runnable = SessionCheckpoint::capture(&session);
    let mut unrunnable = runnable.clone();
    unrunnable.session = 6;
    unrunnable.next_domain = 99;
    {
        let store = SharedStore::open(StoreConfig::new(&dir)).expect("open store");
        store.append(5, &runnable.to_bytes()).expect("append");
        store.append(6, &unrunnable.to_bytes()).expect("append");
    }

    let store = SharedStore::open(StoreConfig::new(&dir)).expect("reopen store");
    let (fleet, report) =
        FleetEngine::recover(scenario, config(), Runtime::sim(1), store).expect("recover");
    assert_eq!((report.sessions_recovered, report.decode_rejects), (1, 1));
    assert!(fleet.known(5));
    assert!(!fleet.known(6));
    drop(fleet);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn budget_pressure_spills_through_the_store_and_restores_transparently() {
    let users = [20u64, 21, 22, 23, 24, 25];
    let dir = scratch("spill");
    let store = SharedStore::open(StoreConfig::new(&dir)).expect("open store");
    let tight = FleetConfig {
        num_shards: 2,
        budget_bytes: 1, // every admit evicts the previous resident
        ..FleetConfig::default()
    };
    let mut fleet = FleetEngine::with_store(scenario(), tight, Runtime::sim(5), store.clone());
    for &user in &users {
        fleet.create_blocking(user, spec(user)).expect("create");
    }
    // Round-robin steps force constant evict/restore churn through disk.
    for round in 0..3 {
        for &user in &users {
            fleet
                .command_blocking(user, SessionCommand::Step { batches: 2 + round })
                .expect("step");
        }
    }
    let events = fleet.drain_pending();
    assert!(
        events
            .iter()
            .all(|e| !matches!(e.kind, SessionEventKind::Failed(_))),
        "spill churn produced failures: {events:?}"
    );
    let metrics = fleet.metrics();
    let counters = store.counters();
    assert!(
        counters.appends > 0,
        "no spills under budget 1: {counters:?}"
    );
    assert_eq!(
        counters.appends,
        metrics.evictions(),
        "every eviction must write through the store exactly once"
    );
    assert!(metrics.restores() > 0, "no restores under churn");
    assert_eq!(counters.decode_rejects, 0);

    drop(fleet);
    std::fs::remove_dir_all(&dir).ok();
}
