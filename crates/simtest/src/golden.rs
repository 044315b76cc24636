//! The golden conformance corpus: exact bytes and digests of every
//! on-disk/on-wire format, committed under `tests/golden/` and
//! re-derived from fixed seeds on every CI run.
//!
//! The corpus exists so format changes are *deliberate*: a CHAMWIRE
//! frame, `CHAMFLT1`/`CHAMLN02` checkpoint byte, `CHAMSEG1`/`CHAMRTE1`
//! log record, or end-of-stream metric digest that drifts without its
//! version line changing fails the gate with a pointed message, while a
//! deliberate change bumps the format magic (which changes the version
//! line) and regenerates the files via `chameleon simtest --regen-golden`.

use std::sync::Arc;

use chameleon_core::StepTrace;
use chameleon_faults::FaultPlan;
use chameleon_fleet::{SessionCheckpoint, SessionEvent, SessionEventKind, UserSession};
use chameleon_obs::{EventLogStats, EventRecord, Observation, Stage, StageStats};
use chameleon_replay::crc32;
use chameleon_serve::wire::{
    encode_frame, ErrorCode, PredictSummary, Request, Response, WIRE_MAGIC,
};
use chameleon_stream::{DatasetSpec, DomainIlScenario};

use crate::digest::{digest_events, ShardScope};
use crate::lifecycle;
use crate::script;

/// Scenario seed every golden derivation uses.
pub const GOLDEN_SCENARIO_SEED: u64 = 0xC0FFEE;
/// Script/spec seed for the pinned solo session and checkpoints.
pub const GOLDEN_SPEC_SEED: u64 = 0x60_1D;
/// Scheduler seeds whose simulation outcomes are pinned.
pub const GOLDEN_SIM_SEEDS: [u64; 4] = [0, 1, 2, 3];
/// Version line of the metric-digest family (bump on digest semantics
/// changes).
pub const METRIC_DIGEST_VERSION: &str = "SIMDIG03";

/// One corpus file: a family of named golden values plus the version
/// line that makes format changes deliberate.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct GoldenFile {
    /// File name under `tests/golden/`.
    pub file: &'static str,
    /// Format version string (derived from the live format magics).
    pub version: String,
    /// `name = value` pairs, in derivation order.
    pub entries: Vec<(String, String)>,
}

/// File names of the committed corpus, in derivation order.
pub const GOLDEN_FILE_NAMES: [&str; 3] = [
    "wire_frames.golden",
    "checkpoints.golden",
    "metric_digests.golden",
];

fn hex(bytes: &[u8]) -> String {
    let mut out = String::with_capacity(bytes.len() * 2);
    for b in bytes {
        out.push_str(&format!("{b:02x}"));
    }
    out
}

/// The fixed scenario every golden derivation (and the CLI soak) runs
/// on: `core50-tiny` generated from [`GOLDEN_SCENARIO_SEED`].
pub fn golden_scenario() -> Arc<DomainIlScenario> {
    Arc::new(DomainIlScenario::generate(
        &DatasetSpec::core50_tiny(),
        GOLDEN_SCENARIO_SEED,
    ))
}

fn trace_crc(trace: &StepTrace) -> u32 {
    let mut buf = Vec::new();
    for (_, v) in trace.counters() {
        buf.extend_from_slice(&v.to_le_bytes());
    }
    crc32(&buf)
}

/// Derives the CHAMWIRE frame family: one sealed frame per request and
/// response variant, with fixed field values.
fn derive_wire_frames() -> GoldenFile {
    let spec = script::session_spec(GOLDEN_SPEC_SEED, 1);
    let cases: Vec<(&str, Vec<u8>)> = vec![
        ("req_ping", Request::Ping.encode_payload(1)),
        (
            "req_create_session",
            Request::CreateSession {
                session: 7,
                spec: spec.clone(),
            }
            .encode_payload(2),
        ),
        (
            "req_step",
            Request::Step {
                session: 7,
                batches: 5,
            }
            .encode_payload(3),
        ),
        (
            "req_predict",
            Request::Predict { session: 7 }.encode_payload(4),
        ),
        (
            "req_checkpoint",
            Request::Checkpoint { session: 7 }.encode_payload(5),
        ),
        ("req_evict", Request::Evict { session: 7 }.encode_payload(6)),
        ("rsp_pong", Response::Pong.encode_payload(1)),
        ("rsp_created", Response::Created.encode_payload(2)),
        (
            "rsp_stepped",
            Response::Stepped {
                delivered: 5,
                done: false,
            }
            .encode_payload(3),
        ),
        (
            "rsp_predicted",
            Response::Predicted(PredictSummary {
                acc_all: 62.5,
                per_domain: vec![50.0, 75.0],
                per_class: vec![60.0, 65.0],
                memory_overhead_mb: 1.25,
            })
            .encode_payload(4),
        ),
        (
            "rsp_checkpointed",
            Response::Checkpointed(vec![0xDE, 0xAD, 0xBE, 0xEF]).encode_payload(5),
        ),
        ("rsp_evicted", Response::Evicted.encode_payload(6)),
        (
            "rsp_error",
            Response::Error {
                code: ErrorCode::UnknownSession,
                message: "no such session".to_string(),
            }
            .encode_payload(8),
        ),
        (
            "rsp_retry_after",
            Response::RetryAfter { millis: 2 }.encode_payload(0),
        ),
        ("req_observe", Request::Observe.encode_payload(8)),
        (
            "rsp_observed",
            Response::Observed(Box::new(golden_observation())).encode_payload(9),
        ),
        (
            "req_handoff_export",
            Request::HandoffExport { session: 7 }.encode_payload(11),
        ),
        (
            "req_handoff",
            Request::Handoff {
                session: 7,
                blob: vec![0xCA, 0xFE, 0xF0, 0x0D],
            }
            .encode_payload(12),
        ),
        (
            "rsp_handoff_exported",
            Response::HandoffExported(vec![0xCA, 0xFE, 0xF0, 0x0D]).encode_payload(11),
        ),
        ("rsp_handoff_ack", Response::HandoffAck.encode_payload(12)),
    ];
    GoldenFile {
        file: GOLDEN_FILE_NAMES[0],
        version: String::from_utf8_lossy(WIRE_MAGIC).into_owned(),
        entries: cases
            .into_iter()
            .map(|(name, payload)| (name.to_string(), hex(&encode_frame(&payload))))
            .collect(),
    }
}

/// A fully hand-pinned [`Observation`] (no clock involved), so the
/// `rsp_observed` golden frame exercises every field of the codec.
fn golden_observation() -> Observation {
    let mut o = Observation {
        spans: Stage::ALL
            .iter()
            .enumerate()
            .map(|(i, &stage)| {
                let mut stats = StageStats {
                    count: 3 + i as u64,
                    total_nanos: 9_000 * (i as u64 + 1),
                    max_nanos: 5_000 * (i as u64 + 1),
                    ..StageStats::default()
                };
                stats.histogram.record_nanos(1_000);
                stats.histogram.record_nanos(5_000 * (i as u64 + 1));
                (stage, stats)
            })
            .collect(),
        events: EventLogStats {
            capacity: 256,
            next_seq: 4,
            dropped: 1,
            recent: vec![EventRecord {
                seq: 3,
                nanos: 123_000,
                message: "shard 0: session 7 evicted".to_string(),
            }],
        },
        counters: Vec::new(),
    };
    o.push_counter("fleet.batches", 120);
    o.push_counter("serve.frames_in", 140);
    o
}

/// Derives the checkpoint family: full `CHAMFLT1` session blobs (clean
/// and faulted) and the embedded `CHAMLN02` learner blob, from a fixed
/// 12-batch solo session — plus the `CHAMSEG1` durable-store framing
/// those blobs are sealed into on eviction, the quantized
/// `CHAMFLT2`/`CHAMLN03` twins of the clean session (int8 latents), and
/// the `CHAMRTE1` router-state records a router shadows them into.
fn derive_checkpoints() -> GoldenFile {
    let scenario = golden_scenario();
    let version = format!(
        "{}+{}+{}+{}+{}+{}",
        String::from_utf8_lossy(chameleon_fleet::FLEET_MAGIC),
        String::from_utf8_lossy(chameleon_fleet::FLEET_MAGIC_V2),
        String::from_utf8_lossy(chameleon_core::checkpoint::MAGIC),
        String::from_utf8_lossy(chameleon_core::checkpoint::MAGIC_V3),
        String::from_utf8_lossy(chameleon_store::SEGMENT_MAGIC),
        String::from_utf8_lossy(chameleon_route::state::STATE_MAGIC),
    );
    let blob_after = |faults: Option<FaultPlan>, precision: chameleon_core::Precision| {
        let mut session = UserSession::new(
            1,
            script::session_spec_at(GOLDEN_SPEC_SEED, 1, precision),
            Arc::clone(&scenario),
            faults.as_ref(),
        );
        for _ in 0..12 {
            session.step_batch();
        }
        SessionCheckpoint::capture(&session)
    };
    let clean = blob_after(None, chameleon_core::Precision::F32);
    let faulted = blob_after(
        Some(FaultPlan::bit_flips(0xBAD, 1e-4)),
        chameleon_core::Precision::F32,
    );
    let int8 = blob_after(None, chameleon_core::Precision::Int8);
    GoldenFile {
        file: GOLDEN_FILE_NAMES[1],
        version,
        entries: vec![
            ("chamflt1_clean".to_string(), hex(&clean.to_bytes())),
            ("chamln02_clean".to_string(), hex(&clean.learner_blob)),
            ("chamflt1_faulted".to_string(), hex(&faulted.to_bytes())),
            (
                "chamseg1_header".to_string(),
                hex(chameleon_store::SEGMENT_MAGIC),
            ),
            (
                "chamseg1_record_clean".to_string(),
                hex(&chameleon_store::encode_record(1, 0, &clean.to_bytes())),
            ),
            (
                "chamseg1_record_empty".to_string(),
                hex(&chameleon_store::encode_record(7, 3, &[])),
            ),
            ("chamflt2_int8".to_string(), hex(&int8.to_bytes())),
            ("chamln03_int8".to_string(), hex(&int8.learner_blob)),
            (
                "chamseg1_record_int8".to_string(),
                hex(&chameleon_store::encode_record(1, 0, &int8.to_bytes())),
            ),
            (
                "chamrte1_header".to_string(),
                hex(chameleon_route::state::STATE_MAGIC),
            ),
            (
                "chamrte1_pin".to_string(),
                hex(&chameleon_route::state::encode_pin(7, "127.0.0.1:7411")),
            ),
            (
                "chamrte1_unpin".to_string(),
                hex(&chameleon_route::state::encode_unpin(7)),
            ),
            (
                "chamrte1_shadow_clean".to_string(),
                hex(&chameleon_route::state::encode_shadow(
                    1,
                    12,
                    &clean.to_bytes(),
                )),
            ),
        ],
    }
}

/// Derives the metric-digest family: end-of-stream observables of a
/// solo run plus the event/checkpoint digests of the pinned simulation
/// seeds.
fn derive_metric_digests() -> GoldenFile {
    let scenario = golden_scenario();
    let mut entries = Vec::new();

    let mut session = UserSession::new(
        1,
        script::session_spec(GOLDEN_SPEC_SEED, 1),
        Arc::clone(&scenario),
        None,
    );
    while session.step_batch() {}
    let report = session.evaluate();
    let eval_digest = digest_events(
        std::iter::once(&SessionEvent {
            session: 1,
            shard: 0,
            correlation: 0,
            kind: SessionEventKind::Evaluated(Box::new(report)),
        }),
        ShardScope::Exclude,
    );
    let blob = SessionCheckpoint::capture(&session).to_bytes();
    entries.push((
        "solo_core50_tiny".to_string(),
        format!(
            "eval:{eval_digest:08x} trace:{:08x} blob:{:08x} blob_len:{}",
            trace_crc(&session.trace()),
            crc32(&blob),
            blob.len(),
        ),
    ));

    for seed in GOLDEN_SIM_SEEDS {
        let outcome = lifecycle::check_seed(&scenario, seed)
            .unwrap_or_else(|e| panic!("golden sim seed {seed} violated an invariant: {e}"));
        entries.push((
            format!("sim_seed_{seed}"),
            format!(
                "events:{:08x} checkpoints:{:08x} spans:{:08x} ops:{} shards:{} faulted:{}",
                outcome.event_digest,
                outcome.checkpoint_crc,
                outcome.span_digest,
                outcome.ops,
                outcome.shards,
                outcome.faulted,
            ),
        ));
    }
    GoldenFile {
        file: GOLDEN_FILE_NAMES[2],
        version: METRIC_DIGEST_VERSION.to_string(),
        entries,
    }
}

/// Re-derives the whole corpus from fixed seeds. Pure: same binary ⇒
/// same corpus, byte for byte.
pub fn derive_corpus() -> Vec<GoldenFile> {
    vec![
        derive_wire_frames(),
        derive_checkpoints(),
        derive_metric_digests(),
    ]
}

/// Renders a corpus file to its committed text form.
pub fn render(file: &GoldenFile) -> String {
    let mut out = String::new();
    out.push_str("# chameleon-simtest golden corpus — do not edit by hand\n");
    out.push_str("# regenerate: cargo run -p chameleon-cli -- simtest --regen-golden\n");
    out.push_str(&format!("# version: {}\n", file.version));
    for (name, value) in &file.entries {
        out.push_str(&format!("{name} = {value}\n"));
    }
    out
}

/// Parses a committed corpus file.
///
/// # Errors
///
/// Describes the first malformed line.
pub fn parse(file: &'static str, text: &str) -> Result<GoldenFile, String> {
    let mut version = None;
    let mut entries = Vec::new();
    for (lineno, line) in text.lines().enumerate() {
        let line = line.trim();
        if line.is_empty() {
            continue;
        }
        if let Some(rest) = line.strip_prefix('#') {
            if let Some(v) = rest.trim().strip_prefix("version:") {
                version = Some(v.trim().to_string());
            }
            continue;
        }
        let Some((name, value)) = line.split_once('=') else {
            return Err(format!("{file}:{}: expected `name = value`", lineno + 1));
        };
        entries.push((name.trim().to_string(), value.trim().to_string()));
    }
    Ok(GoldenFile {
        file,
        version: version.ok_or_else(|| format!("{file}: missing `# version:` line"))?,
        entries,
    })
}

/// Compares the committed corpus file against its freshly derived twin.
/// Returns human-readable drift findings; empty means conformant.
pub fn diff(committed: &GoldenFile, derived: &GoldenFile) -> Vec<String> {
    let file = derived.file;
    if committed.version != derived.version {
        // The deliberate path: the format magic was bumped. The corpus
        // still fails the gate until regenerated, making the new bytes
        // an explicit, reviewed part of the change.
        return vec![format!(
            "{file}: format version changed {} -> {} — regenerate the corpus \
             (cargo run -p chameleon-cli -- simtest --regen-golden) and commit it",
            committed.version, derived.version
        )];
    }
    let mut findings = Vec::new();
    let committed_names: Vec<&str> = committed.entries.iter().map(|(n, _)| n.as_str()).collect();
    for (name, derived_value) in &derived.entries {
        match committed.entries.iter().find(|(n, _)| n == name) {
            None => findings.push(format!(
                "{file}: entry `{name}` missing from the committed corpus"
            )),
            Some((_, committed_value)) if committed_value != derived_value => {
                findings.push(format!(
                    "{file}: `{name}` bytes changed WITHOUT a version bump — if this \
                     format change is deliberate, bump the format magic/version and \
                     regenerate the corpus; if not, it is a silent wire/checkpoint break"
                ));
            }
            Some(_) => {}
        }
    }
    for name in committed_names {
        if !derived.entries.iter().any(|(n, _)| n == name) {
            findings.push(format!(
                "{file}: committed entry `{name}` no longer derivable"
            ));
        }
    }
    findings
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn render_parse_roundtrip_is_lossless() {
        let file = derive_wire_frames();
        let parsed = parse(file.file, &render(&file)).expect("parses");
        assert_eq!(parsed, file);
    }

    #[test]
    fn wire_frames_derivation_is_pure() {
        assert_eq!(derive_wire_frames(), derive_wire_frames());
    }

    #[test]
    fn diff_reports_nothing_on_identical_files() {
        let file = derive_wire_frames();
        assert!(diff(&file, &file).is_empty());
    }

    #[test]
    fn diff_flags_byte_change_without_version_bump() {
        let derived = derive_wire_frames();
        let mut committed = derived.clone();
        // Flip one hex nibble of one pinned frame.
        let value = &mut committed.entries[0].1;
        let flipped = if value.ends_with('0') { '1' } else { '0' };
        value.pop();
        value.push(flipped);
        let findings = diff(&committed, &derived);
        assert_eq!(findings.len(), 1);
        assert!(
            findings[0].contains("WITHOUT a version bump"),
            "{findings:?}"
        );
    }

    #[test]
    fn diff_flags_version_bump_as_regeneration_needed() {
        let derived = derive_wire_frames();
        let mut committed = derived.clone();
        committed.version = "CHAMWIR0".to_string();
        let findings = diff(&committed, &derived);
        assert_eq!(findings.len(), 1);
        assert!(findings[0].contains("regenerate"), "{findings:?}");
    }

    #[test]
    fn diff_flags_missing_and_stale_entries() {
        let derived = derive_wire_frames();
        let mut committed = derived.clone();
        committed.entries.remove(0);
        committed
            .entries
            .push(("zombie".to_string(), "00".to_string()));
        let findings = diff(&committed, &derived);
        assert_eq!(findings.len(), 2, "{findings:?}");
    }
}
