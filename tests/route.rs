//! Routing-tier contract: a session driven through a `chameleon-route`
//! proxy behaves exactly like the same command sequence on a single
//! node. A handoff (administrative drain) or shadow failover (backend
//! declared dead) is observably identical to a local evict/restore at
//! the same command boundary — checkpoint restore resets transient
//! training state by design (see `chameleon-core`'s checkpoint docs), so
//! the reference for bit-identity is the single-node run with `Evict`
//! inserted at the same points, and the claim proved here is that
//! *placement is invisible*: which node a session lives on, and how many
//! times it moved, never changes a single byte of its outcome.

use std::collections::BTreeSet;
use std::sync::Arc;
use std::time::Duration;

use chameleon_core::ChameleonConfig;
use chameleon_faults::FaultPlan;
use chameleon_fleet::{FleetConfig, SessionId, SessionSpec, FLEET_MAGIC};
use chameleon_route::{BackendState, Router, RouterConfig};
use chameleon_runtime::VirtualClock;
use chameleon_serve::wire::PredictSummary;
use chameleon_serve::{ClientError, Connection, ServeConfig, Server};
use chameleon_stream::{DatasetSpec, DomainIlScenario, PreferenceProfile, StreamConfig};

fn scenario() -> Arc<DomainIlScenario> {
    Arc::new(DomainIlScenario::generate(
        &DatasetSpec::core50_tiny(),
        0xF1EE7,
    ))
}

/// Same per-user spec construction as `tests/serve.rs`, so routed
/// sessions are comparable against the single-node suites.
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

struct Cluster {
    backends: Vec<Server>,
    router: Router,
}

fn start_cluster(n: usize, faults: Option<FaultPlan>) -> Cluster {
    start_cluster_with(n, faults, ServeConfig::default(), |_| {})
}

fn start_cluster_with(
    n: usize,
    faults: Option<FaultPlan>,
    serve_config: ServeConfig,
    tweak: impl FnOnce(&mut RouterConfig),
) -> Cluster {
    let scenario = scenario();
    let backends: Vec<Server> = (0..n)
        .map(|_| {
            Server::start(
                Arc::clone(&scenario),
                FleetConfig {
                    num_shards: 2,
                    faults,
                    ..FleetConfig::default()
                },
                serve_config.clone(),
            )
            .expect("start backend")
        })
        .collect();
    let mut config = RouterConfig {
        addr: "127.0.0.1:0".into(),
        backends: backends
            .iter()
            .map(|s| s.local_addr().to_string())
            .collect(),
        probe_interval: Duration::from_millis(20),
        ..RouterConfig::default()
    };
    tweak(&mut config);
    let router = Router::start(config).expect("start router");
    Cluster { backends, router }
}

fn connect_to(addr: std::net::SocketAddr) -> Connection {
    let mut conn = Connection::connect(addr).expect("connect");
    conn.set_clock(VirtualClock::shared(0));
    conn
}

type Outcome = (PredictSummary, Vec<u8>);

/// The reference: the same per-session command sequence on ONE server,
/// with an `Evict` standing in for the interruption at the same boundary
/// for exactly the sessions the routed run moved.
fn run_single_node_reference(
    users: &[SessionId],
    pre_batches: u32,
    interrupted: &BTreeSet<SessionId>,
    faults: Option<FaultPlan>,
) -> Vec<Outcome> {
    let mut server = Server::start(
        scenario(),
        FleetConfig {
            num_shards: 2,
            faults,
            ..FleetConfig::default()
        },
        ServeConfig::default(),
    )
    .expect("start reference server");
    let mut conn = connect_to(server.local_addr());
    for &user in users {
        conn.create_session(user, user_spec(user)).expect("create");
        let _ = conn.step(user, pre_batches).expect("step");
        if interrupted.contains(&user) {
            conn.evict(user).expect("evict");
        }
    }
    let outcomes = users
        .iter()
        .map(|&user| {
            conn.run_to_completion(user, 7).expect("finish");
            let summary = conn.predict(user).expect("predict");
            let blob = conn.checkpoint(user).expect("checkpoint");
            (summary, blob)
        })
        .collect();
    server.shutdown();
    outcomes
}

fn assert_outcomes_match(routed: &[Outcome], reference: &[Outcome], users: &[SessionId]) {
    for ((got, want), user) in routed.iter().zip(reference).zip(users) {
        assert_eq!(&got.1[..8], &FLEET_MAGIC[..], "user {user} magic");
        assert_eq!(got.0.acc_all, want.0.acc_all, "user {user} acc");
        assert_eq!(got.0.per_domain, want.0.per_domain, "user {user} domains");
        assert_eq!(got.1, want.1, "user {user} checkpoint diverged");
    }
}

/// Drives 3 users through the router with a mid-stream administrative
/// drain of whichever backend owns the first user, then checks every
/// observable against the single-node reference with the same
/// interruption schedule.
fn assert_drain_handoff_matches_single_node(faults: Option<FaultPlan>) {
    let users: [SessionId; 3] = [2, 11, 29];
    let mut cluster = start_cluster(2, faults);
    let mut conn = connect_to(cluster.router.local_addr());

    for &user in &users {
        conn.create_session(user, user_spec(user)).expect("create");
        let _ = conn.step(user, 10).expect("step before drain");
    }

    let victim = cluster.router.owner_of(users[0]).expect("owner pinned");
    let moved: BTreeSet<SessionId> = users
        .iter()
        .copied()
        .filter(|&u| cluster.router.owner_of(u) == Some(victim))
        .collect();
    let handed_off = cluster.router.drain_backend(victim).expect("drain");
    assert_eq!(handed_off, moved.len(), "drain must move exactly its pins");
    assert_eq!(
        cluster.router.backend_states()[victim].1,
        BackendState::Draining
    );
    assert_ne!(
        cluster.router.owner_of(users[0]),
        Some(victim),
        "drained session must have a new owner"
    );

    let routed: Vec<Outcome> = users
        .iter()
        .map(|&user| {
            conn.run_to_completion(user, 7).expect("finish");
            let summary = conn.predict(user).expect("predict");
            let blob = conn.checkpoint(user).expect("checkpoint");
            (summary, blob)
        })
        .collect();

    let reference = run_single_node_reference(&users, 10, &moved, faults);
    assert_outcomes_match(&routed, &reference, &users);

    let metrics = cluster.router.metrics();
    assert_eq!(metrics.decode_rejects, 0);
    assert_eq!(metrics.sessions_handed_off, moved.len() as u64);
    for backend in &mut cluster.backends {
        backend.shutdown();
    }
}

#[test]
fn drain_handoff_mid_stream_matches_single_node_evict_restore() {
    assert_drain_handoff_matches_single_node(None);
}

#[test]
fn drain_handoff_stays_bit_identical_under_fault_plan() {
    assert_drain_handoff_matches_single_node(Some(FaultPlan::bit_flips(0xBAD, 1e-4)));
}

#[test]
fn dead_backend_failover_recovers_sessions_from_shadow_checkpoints() {
    let users: [SessionId; 3] = [2, 11, 29];
    let mut cluster = start_cluster(2, None);
    let mut conn = connect_to(cluster.router.local_addr());

    for &user in &users {
        conn.create_session(user, user_spec(user)).expect("create");
        let _ = conn.step(user, 13).expect("step before kill");
    }

    // Declare a backend dead without warning it (no export happens; the
    // router must fall back to the shadow checkpoints it refreshed after
    // the last acknowledged step).
    let victim = cluster.router.owner_of(users[0]).expect("owner pinned");
    let moved: BTreeSet<SessionId> = users
        .iter()
        .copied()
        .filter(|&u| cluster.router.owner_of(u) == Some(victim))
        .collect();
    let recovered = cluster.router.mark_dead(victim).expect("mark dead");
    assert_eq!(recovered, moved.len(), "every pinned session must re-home");
    assert_eq!(
        cluster.router.backend_states()[victim].1,
        BackendState::Dead
    );

    let routed: Vec<Outcome> = users
        .iter()
        .map(|&user| {
            conn.run_to_completion(user, 7)
                .expect("finish after failover");
            let summary = conn.predict(user).expect("predict");
            let blob = conn.checkpoint(user).expect("checkpoint");
            (summary, blob)
        })
        .collect();

    let reference = run_single_node_reference(&users, 13, &moved, None);
    assert_outcomes_match(&routed, &reference, &users);

    let metrics = cluster.router.metrics();
    assert_eq!(metrics.failovers, moved.len() as u64);
    assert_eq!(metrics.sessions_handed_off, moved.len() as u64);
    assert_eq!(metrics.decode_rejects, 0);
    for backend in &mut cluster.backends {
        backend.shutdown();
    }
}

#[test]
fn external_handoff_frames_are_refused_and_stats_aggregate() {
    let users: [SessionId; 2] = [3, 4];
    let mut cluster = start_cluster(2, None);
    let mut conn = connect_to(cluster.router.local_addr());
    conn.ping().expect("ping answered by the router itself");

    for &user in &users {
        conn.create_session(user, user_spec(user)).expect("create");
        let _ = conn.step(user, 5).expect("step");
    }

    // Handoff opcodes are router-internal: a client must not be able to
    // teleport sessions (or forge imports) through the proxy.
    let err = conn.handoff_export(users[0]).expect_err("must refuse");
    assert!(matches!(err, ClientError::Refused { .. }), "{err:?}");
    let err = conn
        .handoff_import(99, vec![1, 2, 3])
        .expect_err("must refuse");
    assert!(matches!(err, ClientError::Refused { .. }), "{err:?}");

    // A session never created through the router has no pin.
    let err = conn.step(777, 1).expect_err("unknown session");
    assert!(matches!(err, ClientError::Refused { .. }), "{err:?}");

    // Observe answers are fleet-wide sums over the backends, and the
    // observation merges the router's own counters in.
    let observation = conn.observe().expect("observe");
    assert_eq!(
        observation.counter("fleet.sessions_created"),
        Some(users.len() as u64)
    );
    assert!(observation.counter("fleet.batches").unwrap_or(0) > 0);
    assert!(observation.counter("route.requests_in").unwrap_or(0) > 0);
    assert_eq!(observation.counter("route.decode_rejects"), Some(0));
    assert_eq!(observation.counter("route.backends_healthy"), Some(2));
    // The front answers pings itself, so between two observations only
    // the second `Observe` is a request the router counts.
    let requests_in = |conn: &mut Connection| {
        let observation = conn.observe().expect("observe");
        observation.counter("route.requests_in").unwrap_or(0)
    };
    let before = requests_in(&mut conn);
    conn.ping().expect("ping");
    assert_eq!(requests_in(&mut conn), before + 1);
    // The cluster's load is the merged observation's residency gauges,
    // and the prober's `Observe` round-trips keep both backends healthy.
    let observation = conn.observe().expect("observe");
    let counter = |name: &str| observation.counter(name).unwrap_or(0);
    assert_eq!(
        counter("fleet.sessions_resident") + counter("fleet.sessions_cold"),
        users.len() as u64
    );
    assert!(counter("route.probes_ok") > 0);
    assert_eq!(observation.counter("route.probes_failed"), Some(0));

    for backend in &mut cluster.backends {
        backend.shutdown();
    }
}

/// SIGKILL-the-router: shut the router down abruptly mid-run (the state
/// log even gets a torn tail, as a crashed process would leave), start a
/// fresh router over the same backends and state dir, and require it to
/// resume routing, pinning, and shadow failover exactly where the old
/// one stopped — with the placement-invisibility contract still holding
/// bit for bit.
#[test]
fn restarted_router_recovers_pins_and_shadows_from_state_log() {
    let users: [SessionId; 3] = [2, 11, 29];
    let state_dir =
        std::env::temp_dir().join(format!("chameleon-route-restart-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&state_dir);

    let mut cluster = start_cluster_with(2, None, ServeConfig::default(), |config| {
        config.state_dir = Some(state_dir.clone());
    });
    let backend_addrs: Vec<String> = cluster
        .backends
        .iter()
        .map(|s| s.local_addr().to_string())
        .collect();
    let mut conn = connect_to(cluster.router.local_addr());
    for &user in &users {
        conn.create_session(user, user_spec(user)).expect("create");
        let _ = conn.step(user, 13).expect("step before router restart");
    }
    let owners_before: Vec<Option<usize>> =
        users.iter().map(|&u| cluster.router.owner_of(u)).collect();
    drop(conn);
    cluster.router.shutdown();

    // A crashed router can die mid-append: leave a torn partial record
    // on the log's tail. Recovery must truncate it away, not refuse.
    {
        use std::io::Write as _;
        let mut file = std::fs::OpenOptions::new()
            .append(true)
            .open(state_dir.join("ROUTER.log"))
            .expect("open state log");
        file.write_all(&[0x55; 7]).expect("append torn tail");
    }

    let router = Router::start(RouterConfig {
        addr: "127.0.0.1:0".into(),
        backends: backend_addrs,
        probe_interval: Duration::from_millis(20),
        state_dir: Some(state_dir.clone()),
        ..RouterConfig::default()
    })
    .expect("restart router over the same state dir");
    let metrics = router.metrics();
    assert_eq!(metrics.pins_recovered, users.len() as u64);
    assert!(
        metrics.shadows_recovered >= users.len() as u64,
        "every session must come back with a shadow, got {}",
        metrics.shadows_recovered
    );
    let owners_after: Vec<Option<usize>> = users.iter().map(|&u| router.owner_of(u)).collect();
    assert_eq!(
        owners_before, owners_after,
        "placement must survive restart"
    );

    // Failover must still fire from the *recovered* shadows: declare the
    // first user's backend dead on the restarted router.
    let victim = router.owner_of(users[0]).expect("owner pinned");
    let moved: BTreeSet<SessionId> = users
        .iter()
        .copied()
        .filter(|&u| router.owner_of(u) == Some(victim))
        .collect();
    let recovered = router.mark_dead(victim).expect("mark dead");
    assert_eq!(recovered, moved.len(), "recovered shadows must re-home");

    let mut conn = connect_to(router.local_addr());
    let routed: Vec<Outcome> = users
        .iter()
        .map(|&user| {
            conn.run_to_completion(user, 7).expect("finish");
            let summary = conn.predict(user).expect("predict");
            let blob = conn.checkpoint(user).expect("checkpoint");
            (summary, blob)
        })
        .collect();
    let reference = run_single_node_reference(&users, 13, &moved, None);
    assert_outcomes_match(&routed, &reference, &users);

    let metrics = router.metrics();
    assert_eq!(metrics.failovers, moved.len() as u64);
    assert_eq!(metrics.decode_rejects, 0);
    assert_eq!(metrics.state_append_failures, 0);
    for backend in &mut cluster.backends {
        backend.shutdown();
    }
    drop(router);
    let _ = std::fs::remove_dir_all(&state_dir);
}

/// A worker that panics mid-request (here: injected while holding the
/// registry lock — the worst possible poison) must cost exactly its own
/// connection. Every other worker, the prober, and the admin API keep
/// serving off the poisoned locks, and outcomes stay bit-identical.
#[test]
fn router_survives_a_worker_panic_and_keeps_serving() {
    let users: [SessionId; 3] = [2, 11, 29];
    let panicking = users[1];
    let mut cluster = start_cluster_with(2, None, ServeConfig::default(), |config| {
        config.fault_panic_session = Some(panicking);
    });
    let mut conn = connect_to(cluster.router.local_addr());
    for &user in &users {
        conn.create_session(user, user_spec(user)).expect("create");
    }
    let _ = conn.step(users[0], 10).expect("step on a healthy worker");
    // The injected fault: the worker handling this step panics while
    // holding the registry lock, before forwarding anything. The client
    // sees its connection die with no reply; the op was never applied.
    conn.step(panicking, 10)
        .expect_err("the panicking worker must drop the connection");

    // A fresh connection lands on a surviving worker; the router must
    // keep routing off the poisoned locks as if nothing happened.
    let mut conn = connect_to(cluster.router.local_addr());
    let _ = conn.step(panicking, 10).expect("step after the panic");
    let _ = conn.step(users[2], 10).expect("step after the panic");
    let routed: Vec<Outcome> = users
        .iter()
        .map(|&user| {
            conn.run_to_completion(user, 7).expect("finish");
            let summary = conn.predict(user).expect("predict");
            let blob = conn.checkpoint(user).expect("checkpoint");
            (summary, blob)
        })
        .collect();
    let reference = run_single_node_reference(&users, 10, &BTreeSet::new(), None);
    assert_outcomes_match(&routed, &reference, &users);

    let metrics = cluster.router.metrics();
    assert_eq!(metrics.decode_rejects, 0);
    assert_eq!(
        cluster
            .router
            .backend_states()
            .iter()
            .filter(|(_, s)| *s == BackendState::Healthy)
            .count(),
        2,
        "no backend may be blamed for a router-side panic"
    );
    for backend in &mut cluster.backends {
        backend.shutdown();
    }
}

/// The deleted sizing rule: backends used to need `serve workers ≥
/// router workers + 2` or concurrent forwards would deadlock the old
/// per-worker connection pools into a silent stall. With one
/// multiplexed connection per backend there is nothing to size — even a
/// single-worker backend under a full router worker fan-in must make
/// progress and finish with zero forward failures.
#[test]
fn undersized_backend_no_longer_stalls_concurrent_forwards() {
    let serve_config = ServeConfig {
        workers: 1,
        ..ServeConfig::default()
    };
    let mut cluster = start_cluster_with(1, None, serve_config, |_| {});
    let addr = cluster.router.local_addr();
    let handles: Vec<_> = [2u64, 11, 29, 31]
        .into_iter()
        .map(|user| {
            std::thread::spawn(move || {
                let mut conn = connect_to(addr);
                conn.create_session(user, user_spec(user)).expect("create");
                let _ = conn.step(user, 5).expect("step");
                conn.run_to_completion(user, 7).expect("finish");
                conn.checkpoint(user).expect("checkpoint")
            })
        })
        .collect();
    for handle in handles {
        let blob = handle.join().expect("concurrent session completes");
        assert_eq!(&blob[..8], &FLEET_MAGIC[..]);
    }
    let metrics = cluster.router.metrics();
    assert_eq!(
        metrics.forward_failures, 0,
        "a 1-worker backend must not cost a single forward"
    );
    for backend in &mut cluster.backends {
        backend.shutdown();
    }
}
