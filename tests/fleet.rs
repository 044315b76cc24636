//! Fleet determinism contract: a sharded fleet run is bit-identical to
//! solo sessions, shard count does not matter, per-session fault plans are
//! interleaving-independent, and eviction preserves quarantine state.

use std::collections::HashMap;
use std::sync::Arc;

use proptest::prelude::*;

use chameleon_core::{ChameleonConfig, EvalReport, Strategy};
use chameleon_faults::FaultPlan;
use chameleon_fleet::{
    FleetConfig, FleetEngine, SessionCheckpoint, SessionCommand, SessionEventKind, SessionId,
    SessionSpec, UserSession,
};
use chameleon_stream::{DatasetSpec, DomainIlScenario, PreferenceProfile, StreamConfig};

fn scenario() -> Arc<DomainIlScenario> {
    Arc::new(DomainIlScenario::generate(
        &DatasetSpec::core50_tiny(),
        0xF1EE7,
    ))
}

/// Per-user spec: distinct stream seed and a rotating preference skew, so
/// the sessions are genuinely different workloads.
fn user_spec(user: SessionId) -> SessionSpec {
    let classes = DatasetSpec::core50_tiny().num_classes;
    let base = (user as usize * 3) % classes;
    SessionSpec {
        learner: ChameleonConfig {
            long_term_capacity: 30,
            ..ChameleonConfig::default()
        },
        stream: StreamConfig {
            preference: PreferenceProfile::Skewed {
                preferred: vec![base, (base + 1) % classes, (base + 2) % classes],
                boost: 8.0,
            },
            ..StreamConfig::default()
        },
        learner_seed: user.wrapping_mul(31) ^ 5,
        stream_seed: user.wrapping_add(100),
    }
}

/// Runs `users` to completion on a fleet, round-robin in small step slices
/// to force interleaving, then evaluates and checkpoints every session.
fn run_fleet(
    scenario: Arc<DomainIlScenario>,
    users: &[SessionId],
    num_shards: usize,
    budget_bytes: u64,
    faults: Option<FaultPlan>,
) -> HashMap<SessionId, (EvalReport, Vec<u8>)> {
    let mut fleet = FleetEngine::new(
        scenario,
        FleetConfig {
            num_shards,
            budget_bytes,
            faults,
            ..FleetConfig::default()
        },
    );
    for &user in users {
        fleet
            .create_blocking(user, user_spec(user))
            .expect("create");
    }
    let mut live: Vec<SessionId> = users.to_vec();
    while !live.is_empty() {
        for &user in &live {
            fleet
                .command_blocking(user, SessionCommand::Step { batches: 5 })
                .expect("step");
        }
        for event in fleet.drain_pending() {
            if let SessionEventKind::Stepped { done: true, .. } = event.kind {
                live.retain(|&u| u != event.session);
            }
        }
    }
    for &user in users {
        fleet
            .command_blocking(user, SessionCommand::Evaluate)
            .expect("evaluate");
        fleet
            .command_blocking(user, SessionCommand::Checkpoint)
            .expect("checkpoint");
    }
    let mut reports = HashMap::new();
    let mut blobs = HashMap::new();
    for event in fleet.drain_pending() {
        match event.kind {
            SessionEventKind::Evaluated(report) => {
                reports.insert(event.session, *report);
            }
            SessionEventKind::Checkpointed(blob) => {
                blobs.insert(event.session, blob);
            }
            SessionEventKind::Failed(reason) => panic!("request failed: {reason}"),
            _ => {}
        }
    }
    users
        .iter()
        .map(|&u| {
            (
                u,
                (
                    reports.remove(&u).expect("report"),
                    blobs.remove(&u).expect("blob"),
                ),
            )
        })
        .collect()
}

/// Runs one user solo (no fleet), returning the same observables.
fn run_solo(
    scenario: Arc<DomainIlScenario>,
    user: SessionId,
    faults: Option<&FaultPlan>,
) -> (EvalReport, Vec<u8>) {
    let mut session = UserSession::new(user, user_spec(user), scenario, faults);
    while session.step_batch() {}
    let report = session.evaluate();
    let blob = SessionCheckpoint::capture(&session).to_bytes();
    (report, blob)
}

#[test]
fn four_shard_fleet_matches_solo_runs_bit_for_bit() {
    let scenario = scenario();
    let users = [2u64, 11, 29];
    let fleet = run_fleet(Arc::clone(&scenario), &users, 4, u64::MAX, None);
    for &user in &users {
        let (solo_report, solo_blob) = run_solo(Arc::clone(&scenario), user, None);
        let (fleet_report, fleet_blob) = &fleet[&user];
        assert_eq!(*fleet_report, solo_report, "user {user} report diverged");
        assert_eq!(*fleet_blob, solo_blob, "user {user} checkpoint diverged");
    }
}

#[test]
fn shard_count_is_invisible_even_under_faults() {
    let scenario = scenario();
    let users = [1u64, 7, 40];
    let plan = FaultPlan::bit_flips(0xBAD, 1e-4);
    let one = run_fleet(Arc::clone(&scenario), &users, 1, u64::MAX, Some(plan));
    let four = run_fleet(Arc::clone(&scenario), &users, 4, u64::MAX, Some(plan));
    for &user in &users {
        assert_eq!(
            one[&user], four[&user],
            "user {user} diverged across shard counts"
        );
        let solo = run_solo(Arc::clone(&scenario), user, Some(&plan));
        assert_eq!(one[&user].0, solo.0, "user {user} diverged from solo");
        assert_eq!(
            one[&user].1, solo.1,
            "user {user} checkpoint diverged from solo"
        );
    }
}

#[test]
fn budget_constrained_runs_are_reproducible() {
    // Eviction resets transient training state, so a thrashing run need
    // not match an unconstrained one — but the same command sequence must
    // reproduce the same eviction pattern and the same results.
    let scenario = scenario();
    let users = [3u64, 8, 21, 34];
    let budget = 1; // evict on every admit beyond the first
    let a = run_fleet(Arc::clone(&scenario), &users, 2, budget, None);
    let b = run_fleet(Arc::clone(&scenario), &users, 2, budget, None);
    assert_eq!(a, b);
}

#[test]
fn eviction_preserves_quarantine_state() {
    let scenario = scenario();
    let mut session = UserSession::new(9, user_spec(9), Arc::clone(&scenario), None);
    session.step_batches(20);

    // Upset resident samples without resealing checksums — exactly what
    // memory faults do. The corruption must survive evict/restore.
    let mut upset = 0;
    session.learner_mut().visit_stores(&mut |_, sample| {
        if upset < 4 && !sample.features.is_empty() {
            sample.features[0] += 1.0;
            upset += 1;
        }
    });
    assert_eq!(upset, 4);
    let corrupt_before = count_corrupt(&mut session);
    assert_eq!(corrupt_before, 4);
    let counters_before = session.learner().counters();

    let ck = SessionCheckpoint::capture(&session);
    let mut restored = ck.restore(Arc::clone(&scenario), None).expect("restore");
    assert_eq!(count_corrupt(&mut restored), corrupt_before);
    assert_eq!(restored.learner().counters(), counters_before);
    // Re-capturing is byte-stable: eviction is idempotent on observables.
    assert_eq!(
        SessionCheckpoint::capture(&restored).to_bytes(),
        ck.to_bytes()
    );
}

fn count_corrupt(session: &mut UserSession) -> usize {
    let mut corrupt = 0;
    session.learner_mut().visit_stores(&mut |_, sample| {
        if !sample.integrity_ok() {
            corrupt += 1;
        }
    });
    corrupt
}

#[test]
fn backpressure_rejects_then_recovers() {
    let scenario = scenario();
    let mut fleet = FleetEngine::new(
        scenario,
        FleetConfig {
            num_shards: 1,
            queue_depth: 1,
            ..FleetConfig::default()
        },
    );
    fleet.create_blocking(0, user_spec(0)).expect("create");
    assert_eq!(
        fleet.command_correlated(0, SessionCommand::Create(Box::new(user_spec(0))), 0),
        Err(chameleon_fleet::FleetError::DuplicateSession)
    );
    assert_eq!(
        fleet.command_correlated(99, SessionCommand::Step { batches: 1 }, 0),
        Err(chameleon_fleet::FleetError::UnknownSession)
    );

    // Occupy the worker with a long step, then flood the depth-1 queue:
    // a rejection must surface, carrying the configured bound.
    fleet
        .command_blocking(0, SessionCommand::Step { batches: 48 })
        .expect("long step");
    let mut rejected = None;
    for _ in 0..1000 {
        match fleet.command_correlated(0, SessionCommand::Step { batches: 0 }, 0) {
            Err(chameleon_fleet::FleetError::Rejected(bp)) => {
                rejected = Some(bp);
                break;
            }
            Ok(()) => {}
            Err(other) => panic!("unexpected error: {other}"),
        }
    }
    let bp = rejected.expect("queue depth 1 never rejected");
    assert_eq!(bp.shard, 0);
    assert_eq!(bp.queue_depth, 1);

    // The blocking path rides out the same backpressure, and every
    // accepted request is eventually acknowledged.
    fleet
        .command_blocking(0, SessionCommand::Evaluate)
        .expect("recover");
    fleet.drain_pending();
    assert_eq!(fleet.pending(), 0);
    let metrics = fleet.metrics();
    assert_eq!(metrics.queue_depth(), 0);
    assert!(metrics.batches() >= 48);
}

#[test]
fn a_refused_admission_releases_its_id() {
    use chameleon_fleet::FleetError;
    // Simulated, nothing runs until drained, or until a full queue makes
    // a blocking submit run one request. One shard answers in order.
    let config = FleetConfig {
        num_shards: 1,
        queue_depth: 2,
        ..FleetConfig::default()
    };
    let mut fleet = FleetEngine::new_sim(scenario(), config, 0);
    let acks = |fleet: &mut FleetEngine| -> Vec<SessionEventKind> {
        fleet.drain_pending().into_iter().map(|e| e.kind).collect()
    };

    // The shard refuses the spec. Until that ack is drained the id
    // answers as taken; then it is free again.
    let mut invalid = user_spec(7);
    invalid.learner.short_term_capacity = 0;
    fleet.create_blocking(7, invalid).expect("submit");
    assert_eq!(
        fleet.create_blocking(7, user_spec(7)),
        Err(FleetError::DuplicateSession)
    );
    let refusal = acks(&mut fleet);
    assert!(
        matches!(&refusal[..], [SessionEventKind::Failed(reason)] if reason.starts_with("invalid learner config")),
        "{refusal:?}"
    );
    assert!(!fleet.known(7));
    fleet
        .create_blocking(7, user_spec(7))
        .expect("the id is free");
    fleet
        .command_blocking(7, SessionCommand::Checkpoint)
        .expect("checkpoint");
    let mut created = acks(&mut fleet);
    let Some(SessionEventKind::Checkpointed(blob)) = created.pop() else {
        panic!("{created:?}");
    };
    assert_eq!(created, [SessionEventKind::Created]);

    // A step queued behind an export is refused once the export released
    // the id. A re-import queued behind that step must not take the
    // refusal for its own ack.
    fleet
        .command_blocking(7, SessionCommand::Export)
        .expect("export");
    fleet
        .command_blocking(7, SessionCommand::Step { batches: 1 })
        .expect("known until the export is drained");
    // The queue is full: this submit runs the export, then finds 7 gone.
    assert_eq!(
        fleet.command_blocking(7, SessionCommand::Evaluate),
        Err(FleetError::UnknownSession)
    );
    fleet
        .command_blocking(7, SessionCommand::Import(blob))
        .expect("import");
    let moved = acks(&mut fleet);
    assert!(
        matches!(
            &moved[..],
            [
                SessionEventKind::Exported(_),
                SessionEventKind::Failed(_),
                SessionEventKind::Imported
            ]
        ),
        "{moved:?}"
    );
    fleet
        .command_blocking(7, SessionCommand::Step { batches: 3 })
        .expect("the imported session is known");
    assert_eq!(
        acks(&mut fleet),
        [SessionEventKind::Stepped {
            delivered: 3,
            done: false
        }]
    );
}

#[test]
fn dropping_an_engine_with_pending_work_joins_all_workers() {
    // Callers that forget `shutdown()` must still get a clean teardown:
    // `Drop` sends Shutdown to every shard and joins the threads. Shard
    // workers (and the sessions they host) hold `Arc` clones of the
    // scenario, so the strong count returning to 1 proves every worker
    // thread actually exited and released its state — not merely detached.
    let scenario = scenario();
    assert_eq!(Arc::strong_count(&scenario), 1);
    {
        let mut fleet = FleetEngine::new(
            Arc::clone(&scenario),
            FleetConfig {
                num_shards: 3,
                ..FleetConfig::default()
            },
        );
        for user in 0..6u64 {
            fleet
                .create_blocking(user, user_spec(user))
                .expect("create");
            fleet
                .command_blocking(user, SessionCommand::Step { batches: 8 })
                .expect("step");
        }
        // Deliberately no `drain_pending()` and no `shutdown()`: the
        // engine is dropped with requests still in flight.
        assert!(fleet.pending() > 0, "work should still be pending");
    }
    assert_eq!(
        Arc::strong_count(&scenario),
        1,
        "a shard worker outlived the engine drop"
    );
}

#[test]
fn assignment_spreads_sessions_and_ignores_arrival_order() {
    let scenario = scenario();
    let fleet = FleetEngine::new(
        Arc::clone(&scenario),
        FleetConfig {
            num_shards: 4,
            assignment_seed: 7,
            ..FleetConfig::default()
        },
    );
    let mut counts = [0usize; 4];
    for id in 0..64u64 {
        counts[fleet.shard_of(id)] += 1;
    }
    assert!(
        counts.iter().all(|&c| c > 0),
        "seeded hash left a shard empty: {counts:?}"
    );
    // Assignment is a pure function of (seed, id): a second engine with
    // the same seed agrees on every id.
    let again = FleetEngine::new(
        scenario,
        FleetConfig {
            num_shards: 4,
            assignment_seed: 7,
            ..FleetConfig::default()
        },
    );
    for id in 0..64u64 {
        assert_eq!(fleet.shard_of(id), again.shard_of(id));
    }
}

/// The observability contract: per-stage span totals reconcile *exactly*
/// with `ShardMetrics.*_nanos`, because the shard workers feed both from
/// one elapsed measurement. Run under simulation so the numbers are also
/// deterministic across runs.
#[test]
fn observer_span_totals_reconcile_with_shard_metrics() {
    use chameleon_obs::Stage;

    let run = |seed: u64| {
        let mut fleet = FleetEngine::new_sim(
            scenario(),
            FleetConfig {
                num_shards: 3,
                budget_bytes: 200_000, // tight enough to force evictions
                ..FleetConfig::default()
            },
            seed,
        );
        for user in 0..6u64 {
            fleet
                .create_blocking(user, user_spec(user))
                .expect("create");
        }
        for round in 0..4 {
            for user in 0..6u64 {
                fleet
                    .command_blocking(user, SessionCommand::Step { batches: 2 })
                    .expect("step");
            }
            if round == 2 {
                for user in 0..6u64 {
                    fleet
                        .command_blocking(user, SessionCommand::Evaluate)
                        .expect("evaluate");
                    fleet
                        .command_blocking(user, SessionCommand::Checkpoint)
                        .expect("checkpoint");
                }
            }
        }
        fleet.drain_pending();
        let metrics = fleet.metrics();
        let observer = fleet.observer();
        (metrics, observer)
    };

    let (metrics, observer) = run(0xC0FFEE);
    for (stage, expected) in [
        (Stage::Step, metrics.step_nanos()),
        (Stage::Eval, metrics.eval_nanos()),
        (Stage::Checkpoint, metrics.checkpoint_nanos()),
        (Stage::Restore, metrics.restore_nanos()),
    ] {
        let stats = observer.stage_stats(stage);
        assert_eq!(
            stats.total_nanos, expected,
            "{stage} span total must reconcile with ShardMetrics"
        );
        assert!(
            stats.count > 0 || expected == 0,
            "{stage} count/total mismatch"
        );
        assert!(stats.max_nanos <= stats.total_nanos);
    }
    assert!(
        observer.stage_stats(Stage::Step).count > 0,
        "no step spans recorded"
    );
    assert!(
        observer.stage_stats(Stage::Checkpoint).count > 0,
        "evictions/checkpoints recorded no spans"
    );

    // Deterministic: the same seed reproduces every aggregate bit for bit.
    let (_, again) = run(0xC0FFEE);
    assert_eq!(observer.snapshot_spans(), again.snapshot_spans());
}

/// Runs one session on a 4-shard sim engine for `rounds` step slices,
/// invoking `action` at every slice boundary, then returns the final
/// evaluation report and `CHAMFLT1` checkpoint bytes.
fn run_with_boundary_action(
    scenario: Arc<DomainIlScenario>,
    user: SessionId,
    sim_seed: u64,
    rounds: usize,
    action: &mut dyn FnMut(&mut FleetEngine, usize),
) -> (EvalReport, Vec<u8>) {
    let mut fleet = FleetEngine::new_sim(
        scenario,
        FleetConfig {
            num_shards: 4,
            budget_bytes: u64::MAX,
            ..FleetConfig::default()
        },
        sim_seed,
    );
    fleet
        .create_blocking(user, user_spec(user))
        .expect("create");
    for round in 0..rounds {
        action(&mut fleet, round);
        fleet
            .command_blocking(user, SessionCommand::Step { batches: 4 })
            .expect("step");
    }
    fleet
        .command_blocking(user, SessionCommand::Evaluate)
        .expect("evaluate");
    fleet
        .command_blocking(user, SessionCommand::Checkpoint)
        .expect("checkpoint");
    let mut report = None;
    let mut blob = None;
    for event in fleet.drain_pending() {
        match event.kind {
            SessionEventKind::Evaluated(r) => report = Some(*r),
            SessionEventKind::Checkpointed(b) => blob = Some(b),
            SessionEventKind::Failed(reason) => panic!("request failed: {reason}"),
            _ => {}
        }
    }
    (report.expect("report"), blob.expect("blob"))
}

proptest! {
    /// The `chameleon-balance` safety contract at single-session grain:
    /// an online migration injected at *any* step boundary, to *any*
    /// other shard, yields the same evaluation report and bit-identical
    /// `CHAMFLT1` checkpoint bytes as a local `Evict` at the same
    /// boundary. Placement is a pure routing concern; the learner
    /// cannot tell a cross-shard move from a budget eviction.
    #[test]
    fn migration_at_any_step_boundary_matches_an_evict_there(
        user in 0u64..512,
        boundary in 0usize..6,
        hop in 1usize..4,
        sim_seed in 0u64..0x1_0000_0000u64,
    ) {
        let scenario = scenario();
        let migrated = run_with_boundary_action(
            Arc::clone(&scenario),
            user,
            sim_seed,
            6,
            &mut |fleet, round| {
                if round == boundary {
                    let to = (fleet.shard_of(user) + hop) % 4;
                    let moved = fleet.migrate_session(user, to).expect("migrate");
                    assert!(moved, "distinct-shard migration must perform");
                }
            },
        );
        let evicted = run_with_boundary_action(
            scenario,
            user,
            sim_seed,
            6,
            &mut |fleet, round| {
                if round == boundary {
                    fleet
                        .command_blocking(user, SessionCommand::Evict)
                        .expect("evict");
                }
            },
        );
        prop_assert_eq!(&migrated.0, &evicted.0, "report diverged");
        prop_assert_eq!(&migrated.1, &evicted.1, "checkpoint bytes diverged");
    }
}
