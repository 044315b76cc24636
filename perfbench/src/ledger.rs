//! The per-layer ledger of a traced run: layer times from the re-enacted
//! paths and offline probes, in-situ span means and rates from counter
//! diffs of the untraced run, and how much of each op's client latency
//! the layers account for.

use std::collections::HashMap;
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

use chameleon_fleet::{FleetEngine, SessionCommand};
use chameleon_obs::{Observation, Stage};
use chameleon_replay::{decode_latent_into, encode_latent};
use chameleon_route::state::{encode_shadow, StateLog};
use chameleon_serve::Connection;
use chameleon_store::{SessionStore, StoreConfig};

use crate::schedule::{derive, Op, Rng, CONNECTIONS};
use crate::stats::{self, Latencies, Span};
use crate::trace::{ProbeSession, Recorder};
use crate::workload::{fleet_config, Stack, Topology, Window};

/// Latents encoded or decoded per `replay.*` span.
const LATENTS_PER_SPAN: usize = 256;
/// Latent width (`ModelConfig::for_spec`).
const LATENT_DIM: usize = 64;
/// Repetitions of each offline probe.
const PROBE_REPS: usize = 64;

/// One reported metric.
pub struct Metric {
    /// Metric name.
    pub name: &'static str,
    /// Its value.
    pub value: f64,
    /// Its unit.
    pub unit: &'static str,
}

/// Counter and span-aggregate differences between two observations.
pub struct Diff {
    before: Observation,
    after: Observation,
}

impl Diff {
    /// `after − before`.
    pub fn new(before: Observation, after: Observation) -> Self {
        Self { before, after }
    }

    /// Growth of a named counter.
    pub fn counter(&self, name: &str) -> f64 {
        let get = |o: &Observation| o.counter(name).unwrap_or(0);
        get(&self.after).saturating_sub(get(&self.before)) as f64
    }

    /// Mean duration of the spans of `stage` recorded in between, µs.
    pub fn span_mean_us(&self, stage: Stage) -> f64 {
        let get = |o: &Observation| o.stage(stage).map_or((0, 0), |s| (s.count, s.total_nanos));
        let (c0, t0) = get(&self.before);
        let (c1, t1) = get(&self.after);
        if c1 > c0 {
            (t1 - t0) as f64 / (c1 - c0) as f64 / 1e3
        } else {
            0.0
        }
    }
}

/// Offline probes that need no load: layer calls on workload blobs in
/// probe directories, and the in-process fleet round trip. Spans go to
/// `rec` under one `probe` root per kind. Returns the byte size of the
/// workload's checkpoint blob.
pub fn offline_probes(
    stack: &Stack,
    seed: u64,
    dir: &Path,
    rec: &mut Recorder,
) -> Result<usize, String> {
    let w = stack.workload;
    let (id, spec) = stack.plan.sessions[0].clone();
    let domain_batches = stack.workload.domain_batches;
    let mut probe = ProbeSession::warmed(id, spec.clone(), &stack.scenario, domain_batches);
    let blob = probe.checkpoint();

    let root = |rec: &mut Recorder, f: &mut dyn FnMut(&mut Recorder, u64) -> Result<(), String>| {
        let id = rec.alloc();
        let start = Instant::now();
        let result = f(rec, id);
        rec.push(id, "probe", 0, None, (start, Instant::now()), "probe");
        result
    };

    let mut rng = Rng::new(derive(seed, "latents"));
    let latents: Vec<Vec<f32>> = (0..LATENTS_PER_SPAN)
        .map(|_| {
            (0..LATENT_DIM)
                .map(|_| (rng.unit() + rng.unit() + rng.unit() - 1.5) as f32)
                .collect()
        })
        .collect();
    root(rec, &mut |rec, parent| {
        let mut decoded = Vec::with_capacity(LATENT_DIM);
        for _ in 0..PROBE_REPS {
            let packed: Vec<Vec<u8>> = rec.time("replay.encode", 0, parent, "probe", || {
                latents
                    .iter()
                    .map(|l| encode_latent(w.precision, l))
                    .collect()
            });
            rec.time("replay.decode", 0, parent, "probe", || {
                for p in &packed {
                    decode_latent_into(p, &mut decoded).map_err(|e| format!("decode: {e}"))?;
                }
                Ok::<(), String>(())
            })?;
        }
        Ok(())
    })?;

    if !w.store {
        // Off the durable path: time the restore and the store here.
        root(rec, &mut |rec, parent| {
            for _ in 0..PROBE_REPS / 4 {
                rec.time("fleet.restore", 0, parent, "probe", || probe.restore(&blob))?;
            }
            let mut store = SessionStore::open(StoreConfig::new(dir.join("probe-store")))
                .map_err(|e| format!("probe store: {e}"))?;
            for session in 0..PROBE_REPS as u64 {
                rec.time("store.append", 0, parent, "probe", || {
                    store.append(session, &blob)
                })
                .map_err(|e| format!("probe append: {e}"))?;
            }
            for session in 0..PROBE_REPS as u64 {
                rec.time("store.get", 0, parent, "probe", || store.get(session))
                    .map_err(|e| format!("probe get: {e}"))?;
            }
            Ok(())
        })?;
    }

    // Compaction: four generations of 32 sessions' blobs, then compact.
    root(rec, &mut |rec, parent| {
        let mut store = SessionStore::open(StoreConfig {
            compact_min_bytes: u64::MAX,
            ..StoreConfig::new(dir.join("compact-store"))
        })
        .map_err(|e| format!("compact store: {e}"))?;
        for _ in 0..3 {
            for _ in 0..4 {
                for session in 0..32 {
                    store
                        .append(session, &blob)
                        .map_err(|e| format!("compact append: {e}"))?;
                }
            }
            rec.time("store.compact", 0, parent, "probe", || store.compact())
                .map_err(|e| format!("compact: {e}"))?;
        }
        Ok(())
    })?;

    if w.topology != Topology::Routed {
        root(rec, &mut |rec, parent| {
            let (mut log, _) = StateLog::open(&dir.join("probe-state"))
                .map_err(|e| format!("probe state log: {e}"))?;
            for seq in 0..PROBE_REPS as u64 {
                let framed = encode_shadow(id, seq, &blob);
                rec.time("route.state_append", 0, parent, "probe", || {
                    log.append(&framed)
                })
                .map_err(|e| format!("probe state append: {e}"))?;
            }
            Ok(())
        })?;
    }

    // The fleet's own queue hop: submit one step and wait for its ack,
    // against the same step of an equally warmed session run directly on
    // this thread; the pairs differ by the hop.
    root(rec, &mut |rec, parent| {
        let mut fleet = FleetEngine::new(Arc::clone(&stack.scenario), fleet_config(u64::MAX));
        let err = |e| format!("probe fleet: {e:?}");
        fleet.create_blocking(id, spec.clone()).map_err(err)?;
        let batches = probe.session.current_domain() as u64 * u64::from(domain_batches)
            + probe.session.batches_into_domain();
        fleet
            .command_blocking(
                id,
                SessionCommand::Step {
                    batches: batches as usize,
                },
            )
            .map_err(err)?;
        fleet.drain_pending();
        for _ in 0..PROBE_REPS * 4 {
            rec.time("fleet.command", 0, parent, "probe", || {
                fleet
                    .command_blocking(id, SessionCommand::Step { batches: 1 })
                    .map(|()| fleet.drain_pending())
            })
            .map_err(err)?;
            rec.time("fleet.step_quiet", 0, parent, "probe", || {
                probe.session.step_batches(1)
            });
        }
        fleet.shutdown();
        Ok(())
    })?;
    Ok(blob.len())
}

/// `route.hop`: predicts through the router versus straight to the
/// session's owner, interleaved, on the quiet stack. Returns the two p50s
/// in µs.
pub fn hop_probe(stack: &mut Stack) -> Result<(f64, f64), String> {
    let router = stack.router.as_ref().ok_or("hop probe needs a router")?;
    let sessions = stack.plan.conns[0].sessions.clone();
    let owners: Vec<usize> = sessions
        .iter()
        .map(|s| router.owner_of(*s).ok_or(format!("session {s} unowned")))
        .collect::<Result<_, _>>()?;
    let mut direct: Vec<Connection> = stack
        .servers
        .iter()
        .map(|s| Connection::connect(s.local_addr()).map_err(|e| format!("connect backend: {e}")))
        .collect::<Result<_, _>>()?;
    let (mut routed_lat, mut direct_lat) = (Latencies::default(), Latencies::default());
    for round in 0..PROBE_REPS * 2 {
        let i = round % sessions.len();
        let start = Instant::now();
        stack.conns[0]
            .predict(sessions[i])
            .map_err(|e| format!("routed predict: {e}"))?;
        routed_lat.push_us(start.elapsed().as_secs_f64() as f32 * 1e6);
        let start = Instant::now();
        direct[owners[i]]
            .predict(sessions[i])
            .map_err(|e| format!("direct predict: {e}"))?;
        direct_lat.push_us(start.elapsed().as_secs_f64() as f32 * 1e6);
    }
    let p50 = |l: &Latencies| l.percentile(0.5).unwrap_or(0.0);
    Ok((p50(&routed_lat), p50(&direct_lat)))
}

/// Everything the ledger is computed from.
pub struct Inputs<'a> {
    /// The workload's stack (already stopped is fine).
    pub topology: Topology,
    /// Whether the workload spills to a store.
    pub durable: bool,
    /// The untraced run's window.
    pub plain: &'a Window,
    /// Observation diff across the untraced window.
    pub diff: &'a Diff,
    /// The traced run's window.
    pub traced: &'a Window,
    /// Every span: traced-run paths plus offline probes.
    pub spans: &'a [Span],
    /// Bytes of the probe session's checkpoint blob.
    pub blob_bytes: usize,
    /// Routed and direct predict p50 (µs), routed workload only.
    pub hop: Option<(f64, f64)>,
}

/// Computes every per-layer metric.
pub fn ledger(inp: &Inputs) -> Vec<Metric> {
    let selfs = stats::self_times(inp.spans);
    let mut by_name: HashMap<&str, Vec<f64>> = HashMap::new();
    // Per (op, layer): summed self µs; per op: sampled paths.
    let mut per_op: HashMap<(&str, &str), f64> = HashMap::new();
    let mut paths: HashMap<&str, f64> = HashMap::new();
    for (span, &self_ns) in inp.spans.iter().zip(&selfs) {
        let us = self_ns as f64 / 1e3;
        by_name.entry(span.name).or_default().push(us);
        match span.name {
            "path" => *paths.entry(span.op).or_default() += 1.0,
            "request" | "probe" => {}
            layer if span.op != "probe" => *per_op.entry((span.op, layer)).or_default() += us,
            _ => {}
        }
    }
    let mean = |name: &str| {
        by_name
            .get(name)
            .map_or(0.0, |v| v.iter().sum::<f64>() / v.len() as f64)
    };
    // The queue-wait probe records its two spans in alternation, so the
    // i-th of each form a pair measured back to back.
    let queue_wait = match (
        by_name.get("fleet.command"),
        by_name.get("fleet.step_quiet"),
    ) {
        (Some(round_trips), Some(steps)) => {
            let pairs: Vec<f64> = round_trips.iter().zip(steps).map(|(r, s)| r - s).collect();
            stats::median(&pairs)
        }
        _ => 0.0,
    };
    let per_request = |op: &str, layer: &str| {
        let n = paths.get(op).copied().unwrap_or(0.0);
        if n == 0.0 {
            0.0
        } else {
            per_op.get(&(op, layer)).copied().unwrap_or(0.0) / n
        }
    };
    let all_paths: f64 = paths.values().sum();
    let per_any_request = |layer: &str| {
        let total: f64 = per_op
            .iter()
            .filter(|((_, l), _)| *l == layer)
            .map(|(_, v)| v)
            .sum();
        if all_paths == 0.0 {
            0.0
        } else {
            total / all_paths
        }
    };

    let d = inp.diff;
    let ops = inp.plain.completed().max(1) as f64;
    let steps = inp.plain.count(Op::Step).max(1) as f64;
    let inputs = d.counter("trace.inputs").max(1.0);
    let evictions_per_op = d.counter("fleet.evictions") / ops;
    let restores_per_op = d.counter("fleet.restores") / ops;
    let refreshes_per_mutation = d.counter("route.shadow_refreshes") / steps;
    let span = |stage| d.span_mean_us(stage);

    // In-situ spans on a step's path, then what of the client p50 they
    // leave unexplained.
    let (dec, enc) = (span(Stage::Decode), span(Stage::Encode));
    let mut in_situ = dec + span(Stage::Step) + enc;
    if inp.durable {
        in_situ +=
            restores_per_op * span(Stage::Restore) + evictions_per_op * span(Stage::Checkpoint);
    }
    if inp.topology == Topology::Routed {
        in_situ += dec + enc + refreshes_per_mutation * (dec + span(Stage::Checkpoint) + enc);
    }
    let step_p50 = inp.plain.percentile(Op::Step, 0.5).unwrap_or(0.0);

    // Attributed layer time per op: the re-enacted cold path weighs in at
    // the measured restore / eviction rates, and a checkpoint is either
    // read from the store (cold) or captured (resident).
    let weight = |op: Op, layer: &str| match layer {
        "store.get" | "fleet.restore" if inp.durable => restores_per_op,
        "fleet.evict" | "store.append" if inp.durable => evictions_per_op,
        "fleet.checkpoint" if inp.durable && op == Op::Checkpoint => 1.0 - restores_per_op,
        _ => 1.0,
    };
    let coverage = |op: Op| {
        let attributed: Vec<f64> = per_op
            .keys()
            .filter(|(o, _)| *o == op.name())
            .map(|(_, layer)| per_request(op.name(), layer) * weight(op, layer))
            .collect();
        stats::coverage(&attributed, inp.traced.pooled(op).mean_ok())
    };

    let hop = inp.hop.map_or(0.0, |(routed, direct)| routed - direct);
    let m = |name, value, unit| Metric { name, value, unit };
    vec![
        m("core.step_us", mean("core.step"), "us"),
        m("core.eval_us", mean("core.eval"), "us"),
        m(
            "core.head_passes_per_input",
            (d.counter("trace.head_fwd_passes") + d.counter("trace.head_bwd_passes")) / inputs,
            "count/input",
        ),
        m(
            "core.onchip_reads_per_input",
            d.counter("trace.onchip_sample_reads") / inputs,
            "count/input",
        ),
        m(
            "core.offchip_reads_per_input",
            (d.counter("trace.offchip_latent_reads") + d.counter("trace.offchip_raw_reads"))
                / inputs,
            "count/input",
        ),
        m(
            "replay.encode_ns",
            mean("replay.encode") * 1e3 / LATENTS_PER_SPAN as f64,
            "ns",
        ),
        m(
            "replay.decode_ns",
            mean("replay.decode") * 1e3 / LATENTS_PER_SPAN as f64,
            "ns",
        ),
        m("fleet.checkpoint_us", mean("fleet.checkpoint"), "us"),
        m("fleet.blob_bytes", inp.blob_bytes as f64, "B"),
        m("fleet.restore_us", mean("fleet.restore"), "us"),
        m("fleet.queue_wait_us", queue_wait, "us"),
        m("fleet.evictions_per_op", evictions_per_op, "count/op"),
        m("fleet.restores_per_op", restores_per_op, "count/op"),
        m("fleet.step_span_us", span(Stage::Step), "us"),
        m("fleet.eval_span_us", span(Stage::Eval), "us"),
        m("fleet.checkpoint_span_us", span(Stage::Checkpoint), "us"),
        m("fleet.restore_span_us", span(Stage::Restore), "us"),
        m("store.append_us", mean("store.append"), "us"),
        m("store.get_us", mean("store.get"), "us"),
        m("store.compact_ms", mean("store.compact") / 1e3, "ms"),
        m(
            "store.fsyncs_per_op",
            d.counter("store.fsyncs") / ops,
            "count/op",
        ),
        m(
            "store.bytes_per_op",
            d.counter("store.append_bytes") / ops,
            "B/op",
        ),
        m(
            "store.compactions_per_kop",
            d.counter("store.compactions") * 1e3 / ops,
            "count/kop",
        ),
        m("serve.encode_us", per_any_request("serve.encode"), "us"),
        m("serve.decode_us", per_any_request("serve.decode"), "us"),
        m("serve.encode_span_us", enc, "us"),
        m("serve.decode_span_us", dec, "us"),
        m(
            "serve.bytes_per_op",
            (d.counter("serve.bytes_in") + d.counter("serve.bytes_out")) / ops,
            "B/op",
        ),
        m(
            "serve.retry_after_per_op",
            d.counter("serve.backpressure_replies") / ops,
            "count/op",
        ),
        m("serve.wait_us", step_p50 - in_situ, "us"),
        m("route.hop_us", hop, "us"),
        m("route.shadow_fetch_us", mean("route.shadow_fetch"), "us"),
        m("route.state_append_us", mean("route.state_append"), "us"),
        m(
            "route.refreshes_per_mutation",
            refreshes_per_mutation,
            "count/mutation",
        ),
        m(
            "route.forwards_per_op",
            d.counter("route.requests_forwarded") / ops,
            "count/op",
        ),
        m(
            "route.state_log_bytes_per_op",
            d.counter("route.state_append_bytes") / ops,
            "B/op",
        ),
        m("ledger.coverage.step", coverage(Op::Step), "ratio"),
        m("ledger.coverage.predict", coverage(Op::Predict), "ratio"),
        m(
            "ledger.coverage.checkpoint",
            coverage(Op::Checkpoint),
            "ratio",
        ),
        m(
            "ledger.tracing_overhead",
            inp.plain.ops_per_s() / inp.traced.ops_per_s().max(1e-9) - 1.0,
            "ratio",
        ),
    ]
}

/// A human-readable breakdown of one op's client latency (stderr).
pub fn breakdown(inp: &Inputs, metrics: &[Metric]) -> String {
    let get = |name: &str| {
        metrics
            .iter()
            .find(|m| m.name == name)
            .map_or(0.0, |m| m.value)
    };
    let p50 = inp.plain.percentile(Op::Step, 0.5).unwrap_or(0.0);
    format!(
        "step p50 {p50:.0} us (untraced): in-situ step span {:.0} us, encode {:.1} us, decode {:.1} us; \
         unattributed wait {:.0} us ({:.0}% of p50); traced coverage step {:.2} predict {:.2} checkpoint {:.2}; \
         {} load threads",
        get("fleet.step_span_us"),
        get("serve.encode_span_us"),
        get("serve.decode_span_us"),
        get("serve.wait_us"),
        100.0 * get("serve.wait_us") / p50.max(1e-9),
        get("ledger.coverage.step"),
        get("ledger.coverage.predict"),
        get("ledger.coverage.checkpoint"),
        CONNECTIONS,
    )
}
