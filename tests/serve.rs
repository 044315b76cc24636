//! Serving-layer contract: a session driven over loopback CHAMWIRE is
//! bit-identical to the same session run in process (including under a
//! nonzero fault plan), backpressure surfaces as `RetryAfter` without
//! dropping connections, corrupt frames are counted and survivable, and
//! shutdown joins every thread.

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::Arc;

use chameleon_core::{ChameleonConfig, EvalReport};
use chameleon_faults::FaultPlan;
use chameleon_fleet::{
    FleetConfig, SessionCheckpoint, SessionId, SessionSpec, UserSession, FLEET_MAGIC,
};
use chameleon_route::{RouteCounters, Router, RouterConfig};
use chameleon_runtime::{Clock, VirtualClock};
use chameleon_serve::wire::{
    decode_frame, encode_frame, ErrorCode, Request, Response, MAX_PAYLOAD_BYTES,
};
use chameleon_serve::{Connection, ServeConfig, ServeCounters, Server};
use chameleon_stream::{DatasetSpec, DomainIlScenario, PreferenceProfile, StreamConfig};

fn scenario() -> Arc<DomainIlScenario> {
    Arc::new(DomainIlScenario::generate(
        &DatasetSpec::core50_tiny(),
        0xF1EE7,
    ))
}

/// Same per-user spec construction as `tests/fleet.rs`, so wire-driven
/// sessions are comparable against the fleet determinism suite.
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

/// Drives `users` over one wire connection with interleaved step slices,
/// then compares every observable against the solo (in-process) run.
fn assert_wire_matches_solo(faults: Option<FaultPlan>) {
    let scenario = scenario();
    let users: [SessionId; 3] = [2, 11, 29];
    let mut server = Server::start(
        Arc::clone(&scenario),
        FleetConfig {
            num_shards: 2,
            faults,
            ..FleetConfig::default()
        },
        ServeConfig::default(),
    )
    .expect("start server");

    let mut conn = Connection::connect(server.local_addr()).expect("connect");
    // Any RetryAfter backoff ages on virtual time, not wall time.
    conn.set_clock(VirtualClock::shared(0));
    for &user in &users {
        conn.create_session(user, user_spec(user)).expect("create");
    }
    // Interleave small step slices across users — the wire contract says
    // slicing and interleaving are invisible in the final state.
    let mut live: Vec<SessionId> = users.to_vec();
    while !live.is_empty() {
        let mut still = Vec::new();
        for &user in &live {
            let (_, done) = conn.step(user, 5).expect("step");
            if !done {
                still.push(user);
            }
        }
        live = still;
    }
    for &user in &users {
        let summary = conn.predict(user).expect("predict");
        let blob = conn.checkpoint(user).expect("checkpoint");
        assert_eq!(&blob[..8], &FLEET_MAGIC[..], "user {user} magic");

        let (solo_report, solo_blob) = run_solo(Arc::clone(&scenario), user, faults.as_ref());
        assert_eq!(summary.acc_all, solo_report.acc_all, "user {user} acc");
        assert_eq!(summary.per_domain, solo_report.per_domain, "user {user}");
        assert_eq!(summary.per_class, solo_report.per_class, "user {user}");
        assert_eq!(
            summary.memory_overhead_mb, solo_report.memory_overhead_mb,
            "user {user}"
        );
        assert_eq!(blob, solo_blob, "user {user} checkpoint diverged");
    }

    let observation = conn.observe().expect("observe");
    assert_eq!(
        observation.counter("fleet.sessions_created"),
        Some(users.len() as u64)
    );
    assert_eq!(observation.counter("serve.decode_rejects"), Some(0));
    server.shutdown();
}

#[test]
fn wire_driven_sessions_match_solo_bit_for_bit() {
    assert_wire_matches_solo(None);
}

#[test]
fn wire_determinism_holds_under_fault_plan() {
    assert_wire_matches_solo(Some(FaultPlan::bit_flips(0xBAD, 1e-4)));
}

#[test]
fn evict_over_the_wire_is_reproducible() {
    // Eviction resets transient training state, so an interrupted run need
    // not match an uninterrupted one (see `tests/fleet.rs`) — but the same
    // wire command sequence must reproduce the same checkpoint bit for
    // bit, and the evict/restore cycle must be visible in the stats.
    let run = || {
        let mut server = Server::start(scenario(), FleetConfig::default(), ServeConfig::default())
            .expect("start server");
        let user: SessionId = 7;
        let mut conn = Connection::connect(server.local_addr()).expect("connect");
        conn.set_clock(VirtualClock::shared(0));
        conn.create_session(user, user_spec(user)).expect("create");
        conn.step(user, 10).expect("step");
        conn.evict(user).expect("evict");
        // Stepping an evicted session restores it from its checkpoint
        // before delivering batches.
        conn.run_to_completion(user, 7).expect("finish");
        let blob = conn.checkpoint(user).expect("checkpoint");
        let observation = conn.observe().expect("observe");
        server.shutdown();
        (blob, observation)
    };

    let (blob_a, observation) = run();
    let (blob_b, _) = run();
    assert_eq!(&blob_a[..8], &FLEET_MAGIC[..]);
    assert_eq!(
        blob_a, blob_b,
        "evict/restore over the wire not reproducible"
    );
    let counter = |name| observation.counter(name).unwrap_or(0);
    assert!(counter("fleet.evictions") >= 1, "eviction not recorded");
    assert!(counter("fleet.restores") >= 1, "restore not recorded");
}

#[test]
fn a_refused_admission_leaves_its_id_free_over_the_wire() {
    use chameleon_serve::ClientError;
    let mut server = Server::start(scenario(), FleetConfig::default(), ServeConfig::default())
        .expect("start server");
    let mut conn = Connection::connect(server.local_addr()).expect("connect");
    conn.set_clock(VirtualClock::shared(0));
    let assert_refused = |result: Result<(), ClientError>| {
        assert!(
            matches!(
                result,
                Err(ClientError::Refused {
                    code: ErrorCode::SessionFailed,
                    ..
                })
            ),
            "{result:?}"
        );
    };

    let mut invalid = user_spec(7);
    invalid.learner.short_term_capacity = 0;
    assert_refused(conn.create_session(7, invalid));
    conn.create_session(7, user_spec(7))
        .expect("the id is free");
    conn.create_session(8, user_spec(8)).expect("create");
    let blob_7 = conn.handoff_export(7).expect("export");
    let blob_8 = conn.handoff_export(8).expect("export");
    assert_refused(conn.handoff_import(8, blob_7.clone()));
    conn.handoff_import(8, blob_8).expect("the id is free");
    conn.handoff_import(7, blob_7).expect("import");
    assert_eq!(conn.step(8, 2).expect("step"), (2, false));
    assert_eq!(conn.step(7, 2).expect("step"), (2, false));
    server.shutdown();
}

#[test]
fn a_handoff_checks_what_a_create_checks() {
    use chameleon_serve::ClientError;
    let scenario = scenario();
    let mut server = Server::start(
        Arc::clone(&scenario),
        FleetConfig::default(),
        ServeConfig::default(),
    )
    .expect("start server");
    let mut conn = Connection::connect(server.local_addr()).expect("connect");
    conn.set_clock(VirtualClock::shared(0));

    // Right after domain 0's last batch: core50-tiny streams 120 samples
    // per domain in batches of 10, and the domain is still open.
    let user = 3;
    let mut session = UserSession::new(user, user_spec(user), Arc::clone(&scenario), None);
    assert_eq!(session.step_batches(12), 12);
    let boundary = SessionCheckpoint::capture(&session);
    assert_eq!(
        (
            boundary.next_domain,
            boundary.mid_domain,
            boundary.batches_into_domain
        ),
        (0, true, 12)
    );

    // CRC-valid blobs whose spec or stream position no engine can run.
    let damaged = |damage: fn(&mut SessionCheckpoint)| {
        let mut bad = boundary.clone();
        damage(&mut bad);
        bad.to_bytes()
    };
    let cases = [
        ("domain 99", damaged(|ck| ck.next_domain = 99)),
        ("batch count + 1", damaged(|ck| ck.batches_into_domain = 13)),
        (
            "no short-term store",
            damaged(|ck| ck.spec.learner.short_term_capacity = 0),
        ),
        (
            "zero batch size",
            damaged(|ck| ck.spec.stream.batch_size = 0),
        ),
    ];
    for (case, bad) in cases {
        let result = conn.handoff_import(user, bad);
        assert!(
            matches!(
                result,
                Err(ClientError::Refused {
                    code: ErrorCode::SessionFailed,
                    ..
                })
            ),
            "{case}: {result:?}"
        );
    }
    conn.create_session(8, user_spec(8)).expect("create");
    assert_eq!(conn.step(8, 2).expect("step"), (2, false));

    // The boundary blob imports and resumes as the session that never
    // moved: the same accuracy and bytes now, and the same run as an
    // in-process restore of the blob to the end of the stream.
    conn.handoff_import(user, boundary.to_bytes())
        .expect("import");
    let report = session.evaluate();
    let summary = conn.predict(user).expect("predict");
    assert_eq!(summary.per_class, report.per_class);
    let at_boundary = SessionCheckpoint::capture(&session).to_bytes();
    assert_eq!(conn.checkpoint(user).expect("checkpoint"), at_boundary);
    let mut restored = boundary
        .restore(Arc::clone(&scenario), None)
        .expect("restore");
    while restored.step_batch() {}
    conn.run_to_completion(user, 5).expect("run");
    assert_eq!(
        conn.checkpoint(user).expect("checkpoint"),
        SessionCheckpoint::capture(&restored).to_bytes()
    );
    server.shutdown();
}

#[test]
fn backpressure_surfaces_as_retry_after_and_recovers() {
    let scenario = scenario();
    let mut server = Server::start(
        scenario,
        FleetConfig {
            num_shards: 1,
            queue_depth: 1,
            ..FleetConfig::default()
        },
        ServeConfig {
            workers: 6,
            ..ServeConfig::default()
        },
    )
    .expect("start server");
    let addr = server.local_addr();

    let mut setup = Connection::connect(addr).expect("connect");
    setup.create_session(0, user_spec(0)).expect("create");

    // Four connections hammer the single-depth shard queue with raw
    // `request_once` (no client-side retry), so refusals are observable.
    // Retry backoff runs on a shared virtual clock: the advisory
    // `RetryAfter` delay ages virtually instead of stalling the test on
    // wall-clock sleeps.
    let clock = VirtualClock::shared(0);
    let mut handles = Vec::new();
    for _ in 0..4 {
        let clock = Arc::clone(&clock);
        handles.push(std::thread::spawn(move || {
            let mut conn = Connection::connect(addr).expect("connect");
            let mut retries = 0u64;
            loop {
                match conn.request_once(&Request::Step {
                    session: 0,
                    batches: 8,
                }) {
                    Ok(Response::Stepped { done: true, .. }) => break,
                    Ok(Response::Stepped { .. }) => {}
                    Ok(Response::RetryAfter { millis }) => {
                        retries += 1;
                        clock.sleep(std::time::Duration::from_millis(u64::from(millis.max(1))));
                    }
                    Ok(other) => panic!("unexpected response {other:?}"),
                    Err(e) => panic!("request failed: {e}"),
                }
            }
            // The connection that was refused is still serviceable.
            conn.ping().expect("ping after backpressure");
            retries
        }));
    }
    let client_retries: u64 = handles.into_iter().map(|h| h.join().expect("join")).sum();

    let counters = server.metrics();
    assert_eq!(
        counters.backpressure_replies, client_retries,
        "every client-observed RetryAfter must be counted server-side"
    );
    assert!(
        client_retries > 0,
        "a depth-1 queue under 4 concurrent steppers must refuse at least once"
    );
    // The session is still usable after the storm.
    let blob = setup.checkpoint(0).expect("checkpoint");
    assert_eq!(&blob[..8], &FLEET_MAGIC[..]);
    server.shutdown();
}

#[test]
fn idle_reaper_runs_on_virtual_time_not_wall_time() {
    let scenario = scenario();
    let clock = VirtualClock::shared(0);
    let mut server = Server::start_with_clock(
        scenario,
        FleetConfig::default(),
        ServeConfig::default(), // 30 s idle timeout — virtual, not wall
        Arc::clone(&clock) as Arc<dyn Clock>,
    )
    .expect("start server");

    let mut conn = Connection::connect(server.local_addr()).expect("connect");
    conn.ping().expect("fresh connection serves");
    // Virtual time hasn't moved, so no wall-clock dawdling of the test
    // harness can get this connection reaped.
    std::thread::sleep(std::time::Duration::from_millis(60));
    conn.ping()
        .expect("connection must survive while virtual time stands still");

    // Age the connection 31 virtual seconds. The worker notices on one
    // of its ~25 ms read-timeout ticks and closes the socket; keep
    // advancing until the closure is observable client-side.
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(10);
    let reaped = loop {
        clock.advance(std::time::Duration::from_secs(31));
        std::thread::sleep(std::time::Duration::from_millis(40));
        if conn.ping().is_err() {
            break true;
        }
        if std::time::Instant::now() > deadline {
            break false;
        }
    };
    assert!(reaped, "idle connection never reaped under virtual time");
    let counters = server.metrics();
    assert!(
        counters.connections_closed >= 1,
        "reaped connection not counted: {counters:?}"
    );
    server.shutdown();
}

/// Reads one CHAMWIRE frame off a raw socket and returns its payload.
fn read_raw_frame(stream: &mut TcpStream) -> Vec<u8> {
    let mut header = [0u8; 12];
    stream.read_exact(&mut header).expect("frame header");
    let len = u32::from_le_bytes(header[8..12].try_into().unwrap()) as usize;
    let mut rest = vec![0u8; len + 4];
    stream.read_exact(&mut rest).expect("frame body");
    let mut frame = Vec::with_capacity(12 + rest.len());
    frame.extend_from_slice(&header);
    frame.extend_from_slice(&rest);
    let (payload, used) = decode_frame(&frame, MAX_PAYLOAD_BYTES).expect("valid reply frame");
    assert_eq!(used, frame.len());
    payload
}

/// Runs against both CHAMWIRE front ends: a server's, and a router's
/// over that server.
#[test]
fn corrupt_frames_are_counted_and_survivable() {
    let scenario = scenario();
    let mut server = Server::start(scenario, FleetConfig::default(), ServeConfig::default())
        .expect("start server");
    let mut router = Router::start(RouterConfig {
        backends: vec![server.local_addr().to_string()],
        ..RouterConfig::default()
    })
    .expect("start router");
    let fronts: [(SocketAddr, &dyn Fn() -> u64); 2] = [
        (server.local_addr(), &|| server.metrics().decode_rejects),
        (router.local_addr(), &|| router.metrics().decode_rejects),
    ];
    for (addr, decode_rejects) in fronts {
        // Garbage that can never resync (bad magic): the front replies with
        // a typed error, then closes the connection.
        let mut stream = TcpStream::connect(addr).expect("connect raw");
        stream.write_all(b"NOTAWIREFRAMEATALL").expect("write");
        let payload = read_raw_frame(&mut stream);
        let (_, response) = Response::decode_payload(&payload).expect("decode error reply");
        match response {
            Response::Error { code, .. } => assert_eq!(code, ErrorCode::BadRequest),
            other => panic!("expected Error, got {other:?}"),
        }
        let mut rest = Vec::new();
        stream.read_to_end(&mut rest).expect("read to close");
        assert!(rest.is_empty(), "connection must close after bad magic");

        // A checksum failure has a known frame boundary: the front replies
        // with an error, skips the frame, and the connection survives.
        let mut stream = TcpStream::connect(addr).expect("connect raw");
        let mut frame = encode_frame(&Request::Ping.encode_payload(99));
        let last = frame.len() - 5; // opcode byte; stale CRC now mismatches
        frame[last] ^= 0x40;
        stream.write_all(&frame).expect("write corrupt");
        let payload = read_raw_frame(&mut stream);
        let (correlation, response) =
            Response::decode_payload(&payload).expect("decode error reply");
        assert_eq!(correlation, 99, "error reply must carry the correlation id");
        assert!(matches!(response, Response::Error { .. }), "{response:?}");

        // Same socket, now a healthy ping: the front must still answer.
        let frame = encode_frame(&Request::Ping.encode_payload(100));
        stream.write_all(&frame).expect("write ping");
        let payload = read_raw_frame(&mut stream);
        let (correlation, response) = Response::decode_payload(&payload).expect("decode pong");
        assert_eq!(correlation, 100);
        assert_eq!(response, Response::Pong);
        drop(stream);

        assert_eq!(decode_rejects(), 2, "both corruptions counted");
    }
    router.shutdown();
    server.shutdown();
}

#[test]
fn shutdown_joins_every_thread_and_releases_the_scenario() {
    let scenario = scenario();
    let mut server = Server::start(
        Arc::clone(&scenario),
        FleetConfig::default(),
        ServeConfig::default(),
    )
    .expect("start server");

    let mut conn = Connection::connect(server.local_addr()).expect("connect");
    conn.create_session(1, user_spec(1)).expect("create");
    conn.step(1, 3).expect("step");
    conn.ping().expect("ping");

    // Shutdown with a live connection and in-flight session state: the
    // acceptor, every worker, and the engine thread must all join, which
    // releases every clone of the scenario Arc.
    server.shutdown();
    drop(server);
    drop(conn);
    assert_eq!(
        Arc::strong_count(&scenario),
        1,
        "a thread or session still holds the scenario after shutdown"
    );

    // Idempotence: double shutdown via Drop already happened above; a
    // fresh server on the same scenario must start cleanly afterwards.
    let server2 =
        Server::start(scenario, FleetConfig::default(), ServeConfig::default()).expect("restart");
    drop(server2);
}

/// A reply leaves as soon as its shard finishes. With one connection
/// nothing else wakes the engine thread, so an engine that waited on a
/// timer between requests would pace every round trip by that timer.
#[test]
fn sequential_round_trips_are_not_paced_by_a_timer() {
    let mut server = Server::start(scenario(), FleetConfig::default(), ServeConfig::default())
        .expect("start server");
    let mut conn = Connection::connect(server.local_addr()).expect("connect");
    conn.create_session(1, user_spec(1)).expect("create");
    let mut micros: Vec<u128> = (0..201)
        .map(|_| {
            let start = std::time::Instant::now();
            conn.step(1, 0).expect("step");
            start.elapsed().as_micros()
        })
        .collect();
    server.shutdown();
    micros.sort_unstable();
    let median = micros[micros.len() / 2];
    assert!(
        median < 500,
        "median round trip {median} us: replies wait for a timer"
    );
}

/// Regression for the `run_to_completion` livelock: a server that keeps
/// answering `delivered == 0, done == false` used to spin the client
/// forever. The zero-progress budget now bounds the loop with a typed
/// `ClientError::Stalled`. (Pre-fix code hangs this test.)
#[test]
fn run_to_completion_stalls_out_instead_of_spinning_forever() {
    use std::net::TcpListener;

    // A minimal CHAMWIRE impostor: answer every request with a
    // zero-progress `Stepped`, echoing the request's correlation id.
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
    let addr = listener.local_addr().expect("addr");
    let rounds_served = Arc::new(std::sync::atomic::AtomicU32::new(0));
    let served = Arc::clone(&rounds_served);
    let stall_server = std::thread::spawn(move || {
        let (mut stream, _) = listener.accept().expect("accept");
        loop {
            let mut header = [0u8; 12];
            if stream.read_exact(&mut header).is_err() {
                return; // client gave up and closed — success
            }
            let len = u32::from_le_bytes(header[8..12].try_into().unwrap()) as usize;
            let mut rest = vec![0u8; len + 4];
            stream.read_exact(&mut rest).expect("frame body");
            let mut frame = Vec::new();
            frame.extend_from_slice(&header);
            frame.extend_from_slice(&rest);
            let (payload, _) = decode_frame(&frame, MAX_PAYLOAD_BYTES).expect("request frame");
            let (correlation, _) = Request::decode_payload(&payload).expect("request");
            let reply = Response::Stepped {
                delivered: 0,
                done: false,
            };
            let out = encode_frame(&reply.encode_payload(correlation));
            if stream.write_all(&out).is_err() {
                return;
            }
            served.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        }
    });

    let mut client = Connection::connect(addr).expect("connect");
    client.set_stall_budget(5);
    match client.run_to_completion(7, 4) {
        Err(chameleon_serve::ClientError::Stalled { rounds }) => assert_eq!(rounds, 5),
        other => panic!("expected Stalled after 5 zero-progress rounds, got {other:?}"),
    }
    drop(client);
    stall_server.join().expect("stall server");
    assert_eq!(
        rounds_served.load(std::sync::atomic::Ordering::Relaxed),
        5,
        "client must stop exactly at its stall budget"
    );
}

/// The `Observe` round-trip: span aggregates over the wire reconcile with
/// the fleet's nanos counters, encode/decode/request spans are counted,
/// the event log narrates evictions, and the `serve.*` and `route.*`
/// counter blocks are each their one `named()` list.
#[test]
fn observe_round_trip_reconciles_spans_with_stats() {
    use chameleon_obs::Stage;

    let scenario = scenario();
    let mut server = Server::start(
        scenario,
        FleetConfig {
            num_shards: 2,
            ..FleetConfig::default()
        },
        ServeConfig::default(),
    )
    .expect("start server");
    let mut client = Connection::connect(server.local_addr()).expect("connect");

    client.create_session(1, user_spec(1)).expect("create");
    let delivered = client.run_to_completion(1, 8).expect("run");
    assert!(delivered > 0);
    client.predict(1).expect("predict");
    client.checkpoint(1).expect("checkpoint");
    client.evict(1).expect("evict");

    let observation = client.observe().expect("observe");

    // Per-stage span totals reconcile exactly with the fleet's nanos
    // counters: both sides of each pair come from one measurement.
    for (stage, counter) in [
        (Stage::Step, "fleet.step_nanos"),
        (Stage::Eval, "fleet.eval_nanos"),
        (Stage::Checkpoint, "fleet.checkpoint_nanos"),
        (Stage::Restore, "fleet.restore_nanos"),
    ] {
        let stats = observation.stage(stage).expect("stage present");
        assert_eq!(
            Some(stats.total_nanos),
            observation.counter(counter),
            "{stage} span total must equal {counter}"
        );
    }
    let step = observation.stage(Stage::Step).expect("step stage");
    assert!(step.count > 0 && step.total_nanos > 0, "no step spans");
    assert_eq!(step.histogram.count(), step.count);

    // The connection workers decoded and encoded every frame of this
    // conversation.
    assert!(observation.stage(Stage::Decode).expect("decode").count > 0);
    assert!(observation.stage(Stage::Encode).expect("encode").count > 0);

    // Every request answered before this one is a `request` span, and
    // its latency histogram holds exactly those spans.
    let request = observation.stage(Stage::Request).expect("request stage");
    assert!(request.count > 0, "no request spans");
    assert_eq!(request.histogram.count(), request.count);
    // The flattened fleet view counts every batch the client saw.
    assert_eq!(observation.counter("fleet.batches"), Some(delivered));
    assert_eq!(observation.counter("serve.decode_rejects"), Some(0));

    // The explicit evict above must be narrated in the event log.
    assert!(
        observation
            .events
            .recent
            .iter()
            .any(|r| r.message.contains("evicted")),
        "event log missing the eviction: {:?}",
        observation.events.recent
    );
    assert_eq!(
        observation.events.next_seq as usize,
        observation.events.recent.len()
    );

    // Each counter block crosses the wire as exactly its `named()` list,
    // in order.
    let names = |o: &chameleon_obs::Observation, prefix: &str| -> Vec<String> {
        o.counters
            .iter()
            .filter(|(name, _)| name.starts_with(prefix))
            .map(|(name, _)| name.clone())
            .collect()
    };
    let named = |pairs: Vec<(String, u64)>| -> Vec<String> {
        pairs.into_iter().map(|(name, _)| name).collect()
    };
    assert_eq!(
        names(&observation, "serve."),
        named(ServeCounters::default().named())
    );
    // A router's block is followed only by its per-state backend gauges.
    let mut router = Router::start(RouterConfig {
        backends: vec![server.local_addr().to_string()],
        ..RouterConfig::default()
    })
    .expect("start router");
    let routed = Connection::connect(router.local_addr())
        .expect("connect router")
        .observe()
        .expect("observe through the router");
    let mut expected = named(RouteCounters::default().named());
    expected.extend(
        ["healthy", "degraded", "draining", "dead"].map(|state| format!("route.backends_{state}")),
    );
    assert_eq!(names(&routed, "route."), expected);
    assert_eq!(
        names(&routed, "serve."),
        named(ServeCounters::default().named())
    );
    router.shutdown();

    server.shutdown();
}

/// Durable serving: with `store_dir` set, evictions spill through the
/// session store, `Observe` exposes reconciling `store.*` counters, and
/// a *new* server started on the same directory recovers the sessions —
/// a wire client can checkpoint and keep stepping them without
/// re-creating anything.
#[test]
fn store_backed_server_survives_restart_with_sessions_intact() {
    let dir = std::env::temp_dir().join(format!("chameleon-serve-store-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let scenario = scenario();
    let users: [SessionId; 2] = [3, 7];
    let config = FleetConfig {
        num_shards: 2,
        ..FleetConfig::default()
    };
    let serve_config = ServeConfig {
        store_dir: Some(dir.clone()),
        ..ServeConfig::default()
    };

    let mut before_blobs = Vec::new();
    {
        let mut server = Server::start(Arc::clone(&scenario), config.clone(), serve_config.clone())
            .expect("start durable server");
        let mut client = Connection::connect(server.local_addr()).expect("connect");
        for &user in &users {
            client
                .create_session(user, user_spec(user))
                .expect("create");
            client.step(user, 6).expect("step");
            client.evict(user).expect("evict");
            before_blobs.push(client.checkpoint(user).expect("checkpoint"));
        }

        let observation = client.observe().expect("observe");
        assert_eq!(
            observation.counter("store.appends"),
            observation.counter("fleet.evictions"),
            "store appends must reconcile with fleet evictions"
        );
        assert_eq!(
            observation.counter("store.appends"),
            Some(users.len() as u64)
        );
        assert_eq!(observation.counter("store.decode_rejects"), Some(0));
        // The Prometheus exposition carries the same family.
        let text = chameleon_obs::expose(&observation);
        assert!(
            text.contains("chameleon_counter{name=\"store_appends\"}")
                || text.contains("store_appends"),
            "expose() missing store counters:\n{text}"
        );
        server.shutdown();
    }

    // "Crash": the first server is gone; only the segment files remain.
    let mut server =
        Server::start(Arc::clone(&scenario), config, serve_config).expect("restart durable server");
    let mut client = Connection::connect(server.local_addr()).expect("reconnect");
    let observation = client.observe().expect("observe after recovery");
    assert_eq!(
        observation.counter("store.sessions_recovered"),
        Some(users.len() as u64),
        "restart must recover every sealed session"
    );
    for (i, &user) in users.iter().enumerate() {
        // Recovered sessions serve their last sealed checkpoint verbatim
        // and accept further work without re-creation.
        let blob = client.checkpoint(user).expect("checkpoint after recovery");
        assert_eq!(
            blob, before_blobs[i],
            "user {user}: recovered checkpoint differs from pre-crash seal"
        );
        let (delivered, _done) = client.step(user, 2).expect("step after recovery");
        assert!(delivered > 0, "user {user} made no progress after recovery");
    }
    server.shutdown();
    std::fs::remove_dir_all(&dir).ok();
}
