//! Session checkpoints: the eviction format of the fleet engine.
//!
//! A [`SessionCheckpoint`] bundles everything an evicted session needs to
//! resume with identical observable state:
//!
//! * the learner's PR-1 checkpoint blob (head parameters, both replay
//!   stores with their insertion-time integrity checksums, lifetime class
//!   counts) — corruption quarantined before eviction stays quarantined
//!   after restore,
//! * the [`LearnerCounters`] the learner format does not persist (operation
//!   trace, store access/quarantine counters, skipped updates, rebuilds),
//! * the session's rebuild spec and stream progress (next domain, batches
//!   delivered into it), from which the stream cursor is reconstructed
//!   *exactly* by reseeding and replaying,
//!
//! wrapped in its own envelope: `"CHAMFLT1" | payload | CRC32(payload)`.
//!
//! Like the learner format, transient training state (sampling RNG
//! position, learning-window progress, fault-injector RNG position)
//! restarts on restore; the determinism contract in
//! `DESIGN.md` spells out the consequences.

use std::sync::Arc;

use chameleon_core::checkpoint::LoadCheckpointError;
use chameleon_core::{
    Chameleon, ChameleonConfig, FrozenModel, LearnerCounters, Precision, StepTrace, StreamPosition,
};
use chameleon_faults::FaultPlan;
use chameleon_replay::{crc32, AccessStats};
use chameleon_stream::{DomainIlScenario, PreferenceProfile, StreamConfig};

use crate::session::{SessionId, SessionSpec, UserSession};

/// Magic bytes identifying a fleet session checkpoint (format version 1).
pub const FLEET_MAGIC: &[u8; 8] = b"CHAMFLT1";

/// Magic bytes for version 2, written only when the session's learner uses
/// a quantized latent precision. The payload layout is identical to v1 —
/// the spec's quarantine word carries the precision tag in its second byte
/// — so a v1 reader never sees a v2 record it would misparse, and an F32
/// session still serializes byte-identically to the v1 format.
pub const FLEET_MAGIC_V2: &[u8; 8] = b"CHAMFLT2";

/// A serialized-session bundle: learner blob + replay-buffer integrity
/// metadata + stream progress. See the module docs for the exact contract.
#[derive(Clone, Debug, PartialEq)]
pub struct SessionCheckpoint {
    /// Session identifier.
    pub session: SessionId,
    /// Rebuild spec (learner + stream config, seeds).
    pub spec: SessionSpec,
    /// Domain the session streams next (or is mid-way through).
    pub next_domain: usize,
    /// Whether a stream cursor was live at capture time.
    pub mid_domain: bool,
    /// Batches already delivered within `next_domain`.
    pub batches_into_domain: u64,
    /// Whether the stream had ended and the learner was finalized.
    pub finalized: bool,
    /// The learner's own checkpoint blob (PR-1 `CHAMLN02` format).
    pub learner_blob: Vec<u8>,
    /// Lifetime counters not covered by the learner blob.
    pub counters: LearnerCounters,
}

impl SessionCheckpoint {
    /// Captures a session's full resumable state.
    pub fn capture(session: &UserSession) -> Self {
        let (learner, at) = session.parts_for_checkpoint();
        let mut learner_blob = Vec::new();
        learner
            .save_checkpoint(&mut learner_blob)
            .expect("writing to a Vec cannot fail");
        Self {
            session: session.id(),
            spec: session.spec().clone(),
            next_domain: at.next_domain,
            mid_domain: at.mid_domain,
            batches_into_domain: at.batches_into_domain,
            finalized: at.finalized,
            learner_blob,
            counters: learner.counters(),
        }
    }

    /// Rebuilds a resident session: reloads the learner from its blob,
    /// re-applies the lifetime counters, and fast-forwards a fresh stream
    /// cursor to the captured position. The session gets a
    /// [`FrozenModel`] of its own; a fleet engine's sessions share one.
    ///
    /// # Errors
    ///
    /// Returns a [`LoadCheckpointError`] when the inner learner blob is
    /// corrupt or shaped for a different scenario.
    pub fn restore(
        &self,
        scenario: Arc<DomainIlScenario>,
        fleet_faults: Option<&FaultPlan>,
    ) -> Result<UserSession, LoadCheckpointError> {
        self.restore_with(Arc::new(FrozenModel::new(scenario)), fleet_faults)
    }

    /// [`Self::restore`] around a given [`FrozenModel`]: the path every
    /// restore takes, and the one a shard calls with its engine's.
    pub(crate) fn restore_with(
        &self,
        frozen: Arc<FrozenModel>,
        fleet_faults: Option<&FaultPlan>,
    ) -> Result<UserSession, LoadCheckpointError> {
        let mut learner = Chameleon::with_extractor(
            Arc::clone(frozen.extractor()),
            frozen.model(),
            self.spec.learner.clone(),
            self.spec.learner_seed,
            Some(&self.learner_blob),
        )?;
        learner.restore_counters(&self.counters);
        Ok(UserSession::from_parts(
            self.session,
            self.spec.clone(),
            frozen,
            learner,
            fleet_faults,
            StreamPosition {
                next_domain: self.next_domain,
                mid_domain: self.mid_domain,
                batches_into_domain: self.batches_into_domain,
                finalized: self.finalized,
            },
        ))
    }

    /// Checks a blob entering an engine over `scenario`: its spec as a
    /// `Create`'s, and a stream position an in-order pass can stand at.
    /// An open domain lies inside the scenario, a closed one at most one
    /// past its last, and no more batches lie behind the position than a
    /// domain's stream holds. The batch bound is inclusive: a session
    /// captured right after its domain's last batch still has that domain
    /// open. A checkpoint that passes restores without panicking, and its
    /// replay is at most one domain long.
    pub(crate) fn check(&self, scenario: &DomainIlScenario) -> Result<(), String> {
        self.spec.check()?;
        let dataset = scenario.spec();
        let domains = dataset.num_domains;
        if self.next_domain > domains || (self.mid_domain && self.next_domain == domains) {
            return Err(format!(
                "stream position names domain {} of {domains}",
                self.next_domain
            ));
        }
        let samples = dataset.num_classes * dataset.train_per_class_per_domain;
        let batches = samples.div_ceil(self.spec.stream.batch_size) as u64;
        if self.batches_into_domain > batches {
            return Err(format!(
                "stream position is {} batches into a {batches}-batch domain",
                self.batches_into_domain
            ));
        }
        Ok(())
    }

    /// Serializes into the `CHAMFLT1` envelope.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut p = Vec::with_capacity(self.learner_blob.len() + 256);
        put_u64(&mut p, self.session);
        encode_spec(&mut p, &self.spec);
        put_u32(&mut p, self.next_domain as u32);
        put_u32(&mut p, u32::from(self.mid_domain));
        put_u64(&mut p, self.batches_into_domain);
        put_u32(&mut p, u32::from(self.finalized));
        put_u64(&mut p, self.learner_blob.len() as u64);
        p.extend_from_slice(&self.learner_blob);
        encode_counters(&mut p, &self.counters);

        let magic = if self.spec.learner.precision == Precision::F32 {
            FLEET_MAGIC
        } else {
            FLEET_MAGIC_V2
        };
        let mut blob = Vec::with_capacity(p.len() + 12);
        blob.extend_from_slice(magic);
        blob.extend_from_slice(&p);
        blob.extend_from_slice(&crc32(&p).to_le_bytes());
        blob
    }

    /// Decodes a `CHAMFLT1` envelope.
    ///
    /// # Errors
    ///
    /// Returns a [`LoadCheckpointError`] on bad magic, truncation, or a
    /// CRC32 footer mismatch. Decoding never panics on arbitrary input.
    pub fn from_bytes(blob: &[u8]) -> Result<Self, LoadCheckpointError> {
        if blob.len() < FLEET_MAGIC.len() + 4 {
            return Err(LoadCheckpointError::Truncated);
        }
        let magic = &blob[..FLEET_MAGIC.len()];
        if magic != FLEET_MAGIC && magic != FLEET_MAGIC_V2 {
            return Err(LoadCheckpointError::BadMagic);
        }
        let payload = &blob[FLEET_MAGIC.len()..blob.len() - 4];
        let footer = &blob[blob.len() - 4..];
        let expected = u32::from_le_bytes(footer.try_into().expect("footer is 4 bytes"));
        let found = crc32(payload);
        if found != expected {
            return Err(LoadCheckpointError::BadChecksum { found, expected });
        }

        let mut r = Reader(payload);
        let session = r.u64()?;
        let spec = decode_spec(&mut r)?;
        let next_domain = r.u32()? as usize;
        let mid_domain = r.u32()? != 0;
        let batches_into_domain = r.u64()?;
        let finalized = r.u32()? != 0;
        let blob_len = r.u64()? as usize;
        let learner_blob = r.bytes(blob_len)?.to_vec();
        let counters = decode_counters(&mut r)?;
        Ok(Self {
            session,
            spec,
            next_domain,
            mid_domain,
            batches_into_domain,
            finalized,
            learner_blob,
            counters,
        })
    }
}

impl SessionSpec {
    /// Serializes the spec in the same binary layout `CHAMFLT1`
    /// checkpoints embed, so a spec shipped over the wire and a spec
    /// captured at eviction time are byte-compatible.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut p = Vec::with_capacity(96);
        encode_spec(&mut p, self);
        p
    }

    /// Decodes a spec from the front of `bytes`, returning it together
    /// with the number of bytes consumed (specs are variable-length:
    /// preference profiles carry class lists).
    ///
    /// # Errors
    ///
    /// Returns a [`LoadCheckpointError`] on truncation or an unknown
    /// preference-profile tag. Never panics on arbitrary input.
    pub fn decode_prefix(bytes: &[u8]) -> Result<(Self, usize), LoadCheckpointError> {
        let mut r = Reader(bytes);
        let spec = decode_spec(&mut r)?;
        Ok((spec, bytes.len() - r.0.len()))
    }
}

struct Reader<'a>(&'a [u8]);

impl Reader<'_> {
    fn bytes(&mut self, n: usize) -> Result<&[u8], LoadCheckpointError> {
        if self.0.len() < n {
            return Err(LoadCheckpointError::Truncated);
        }
        let (head, tail) = self.0.split_at(n);
        self.0 = tail;
        Ok(head)
    }

    fn u32(&mut self) -> Result<u32, LoadCheckpointError> {
        Ok(u32::from_le_bytes(
            self.bytes(4)?.try_into().expect("4 bytes"),
        ))
    }

    fn u64(&mut self) -> Result<u64, LoadCheckpointError> {
        Ok(u64::from_le_bytes(
            self.bytes(8)?.try_into().expect("8 bytes"),
        ))
    }

    fn f32(&mut self) -> Result<f32, LoadCheckpointError> {
        Ok(f32::from_le_bytes(
            self.bytes(4)?.try_into().expect("4 bytes"),
        ))
    }

    fn usize_list(&mut self) -> Result<Vec<usize>, LoadCheckpointError> {
        let len = self.u32()? as usize;
        let mut out = Vec::with_capacity(len.min(1 << 16));
        for _ in 0..len {
            out.push(self.u32()? as usize);
        }
        Ok(out)
    }
}

fn put_u32(p: &mut Vec<u8>, v: u32) {
    p.extend_from_slice(&v.to_le_bytes());
}

fn put_u64(p: &mut Vec<u8>, v: u64) {
    p.extend_from_slice(&v.to_le_bytes());
}

fn put_f32(p: &mut Vec<u8>, v: f32) {
    p.extend_from_slice(&v.to_le_bytes());
}

fn put_usize_list(p: &mut Vec<u8>, list: &[usize]) {
    put_u32(p, list.len() as u32);
    for &v in list {
        put_u32(p, v as u32);
    }
}

fn encode_spec(p: &mut Vec<u8>, spec: &SessionSpec) {
    let l = &spec.learner;
    put_u32(p, l.short_term_capacity as u32);
    put_u32(p, l.long_term_capacity as u32);
    put_u32(p, l.long_term_period as u32);
    put_u32(p, l.long_term_batch as u32);
    put_u32(p, l.top_k as u32);
    put_u32(p, l.learning_window as u32);
    put_f32(p, l.rho);
    put_f32(p, l.alpha);
    put_f32(p, l.beta);
    // Bit 0: quarantine flag (the full width of this word in format v1).
    // Bits 8..16: the latent-codec precision tag. F32's tag is zero, so an
    // unquantized spec encodes byte-identically to the v1 layout.
    put_u32(
        p,
        u32::from(l.quarantine) | (u32::from(l.precision.tag()) << 8),
    );
    put_f32(p, l.rebuild_integrity_floor);

    put_u32(p, spec.stream.batch_size as u32);
    put_u32(p, spec.stream.run_length as u32);
    match &spec.stream.preference {
        PreferenceProfile::Uniform => put_u32(p, 0),
        PreferenceProfile::Skewed { preferred, boost } => {
            put_u32(p, 1);
            put_usize_list(p, preferred);
            put_f32(p, *boost);
        }
        PreferenceProfile::Shifting { early, late, boost } => {
            put_u32(p, 2);
            put_usize_list(p, early);
            put_usize_list(p, late);
            put_f32(p, *boost);
        }
    }
    put_u64(p, spec.learner_seed);
    put_u64(p, spec.stream_seed);
}

fn decode_spec(r: &mut Reader<'_>) -> Result<SessionSpec, LoadCheckpointError> {
    let short_term_capacity = r.u32()? as usize;
    let long_term_capacity = r.u32()? as usize;
    let long_term_period = r.u32()? as usize;
    let long_term_batch = r.u32()? as usize;
    let top_k = r.u32()? as usize;
    let learning_window = r.u32()? as usize;
    let rho = r.f32()?;
    let alpha = r.f32()?;
    let beta = r.f32()?;
    let qp = r.u32()?;
    // Reject any bits outside the defined quarantine flag (bit 0) and
    // precision tag (bits 8..16): they belong to a future format revision.
    if qp & !0x0000_FF01 != 0 {
        return Err(LoadCheckpointError::UnsupportedVersion);
    }
    let precision = Precision::from_tag(((qp >> 8) & 0xFF) as u8)
        .ok_or(LoadCheckpointError::UnsupportedVersion)?;
    let learner = ChameleonConfig {
        short_term_capacity,
        long_term_capacity,
        long_term_period,
        long_term_batch,
        top_k,
        learning_window,
        rho,
        alpha,
        beta,
        quarantine: qp & 1 != 0,
        rebuild_integrity_floor: r.f32()?,
        precision,
    };
    let batch_size = r.u32()? as usize;
    let run_length = r.u32()? as usize;
    let preference = match r.u32()? {
        0 => PreferenceProfile::Uniform,
        1 => {
            let preferred = r.usize_list()?;
            let boost = r.f32()?;
            PreferenceProfile::Skewed { preferred, boost }
        }
        2 => {
            let early = r.usize_list()?;
            let late = r.usize_list()?;
            let boost = r.f32()?;
            PreferenceProfile::Shifting { early, late, boost }
        }
        _ => return Err(LoadCheckpointError::UnsupportedVersion),
    };
    Ok(SessionSpec {
        learner,
        stream: StreamConfig {
            batch_size,
            run_length,
            preference,
        },
        learner_seed: r.u64()?,
        stream_seed: r.u64()?,
    })
}

fn encode_counters(p: &mut Vec<u8>, c: &LearnerCounters) {
    for (_, v) in c.trace.counters() {
        put_u64(p, v);
    }
    for s in [c.short_term_stats, c.long_term_stats] {
        put_u64(p, s.sample_reads);
        put_u64(p, s.sample_writes);
        put_u64(p, s.corrupt_evictions);
    }
    put_u64(p, c.skipped_updates);
    put_u64(p, c.prototype_rebuilds);
}

fn decode_counters(r: &mut Reader<'_>) -> Result<LearnerCounters, LoadCheckpointError> {
    let mut trace = [0; StepTrace::COUNTERS];
    for v in &mut trace {
        *v = r.u64()?;
    }
    let trace = StepTrace::from_counters(trace);
    let mut stats = [AccessStats::default(); 2];
    for s in &mut stats {
        s.sample_reads = r.u64()?;
        s.sample_writes = r.u64()?;
        s.corrupt_evictions = r.u64()?;
    }
    Ok(LearnerCounters {
        trace,
        short_term_stats: stats[0],
        long_term_stats: stats[1],
        skipped_updates: r.u64()?,
        prototype_rebuilds: r.u64()?,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use chameleon_stream::DatasetSpec;

    fn tiny_session(stream_seed: u64) -> (Arc<DomainIlScenario>, UserSession) {
        let scenario = Arc::new(DomainIlScenario::generate(
            &DatasetSpec::core50_tiny(),
            0xDA7A,
        ));
        let spec = SessionSpec {
            learner: ChameleonConfig {
                long_term_capacity: 30,
                ..ChameleonConfig::default()
            },
            stream: StreamConfig {
                preference: PreferenceProfile::Skewed {
                    preferred: vec![0, 1, 2],
                    boost: 8.0,
                },
                ..StreamConfig::default()
            },
            learner_seed: 5,
            stream_seed,
        };
        let session = UserSession::new(3, spec, Arc::clone(&scenario), None);
        (scenario, session)
    }

    #[test]
    fn bytes_roundtrip_mid_stream() {
        let (_, mut session) = tiny_session(2);
        session.step_batches(17);
        let ck = SessionCheckpoint::capture(&session);
        assert!(ck.mid_domain);
        assert_eq!(ck.next_domain, 1);
        assert_eq!(ck.batches_into_domain, 5);
        let back = SessionCheckpoint::from_bytes(&ck.to_bytes()).expect("roundtrip");
        assert_eq!(back, ck);
    }

    #[test]
    fn capture_restore_capture_is_idempotent() {
        // The strongest eviction-fidelity statement the format makes:
        // restoring and immediately re-capturing yields the same bytes,
        // mid-stream and for a finished session.
        for (at, batches) in [("mid-stream", 23), ("finished", usize::MAX)] {
            let (scenario, mut session) = tiny_session(4);
            session.step_batches(batches);
            let ck = SessionCheckpoint::capture(&session);
            let restored = ck.restore(scenario, None).expect("restore");
            let again = SessionCheckpoint::capture(&restored);
            assert_eq!(again.to_bytes(), ck.to_bytes(), "{at}");
        }
    }

    #[test]
    fn restored_session_resumes_at_the_exact_stream_position() {
        let (scenario, mut session) = tiny_session(6);
        session.step_batches(14);
        let ck = SessionCheckpoint::capture(&session);
        let mut restored = ck.restore(scenario, None).expect("restore");
        assert_eq!(restored.current_domain(), session.current_domain());
        assert_eq!(
            restored.batches_into_domain(),
            session.batches_into_domain()
        );
        // The next batches drawn are the ones the original would draw:
        // replaying from a second restore of the same checkpoint matches.
        let a = restored.step_batches(50);
        assert!(a > 0);
    }

    #[test]
    fn every_single_byte_corruption_is_rejected() {
        let (_, mut session) = tiny_session(1);
        session.step_batches(3);
        let blob = SessionCheckpoint::capture(&session).to_bytes();
        for i in 0..blob.len() {
            let mut bad = blob.clone();
            bad[i] ^= 0x20;
            assert!(
                SessionCheckpoint::from_bytes(&bad).is_err(),
                "corruption at byte {i} accepted"
            );
        }
    }

    #[test]
    fn every_truncation_is_rejected() {
        let (_, mut session) = tiny_session(1);
        session.step_batches(2);
        let blob = SessionCheckpoint::capture(&session).to_bytes();
        for keep in 0..blob.len() {
            assert!(
                SessionCheckpoint::from_bytes(&blob[..keep]).is_err(),
                "truncation at {keep} accepted"
            );
        }
    }

    fn quantized_session(
        stream_seed: u64,
        precision: Precision,
    ) -> (Arc<DomainIlScenario>, UserSession) {
        let scenario = Arc::new(DomainIlScenario::generate(
            &DatasetSpec::core50_tiny(),
            0xDA7A,
        ));
        let spec = SessionSpec {
            learner: ChameleonConfig {
                long_term_capacity: 30,
                precision,
                ..ChameleonConfig::default()
            },
            stream: StreamConfig::default(),
            learner_seed: 5,
            stream_seed,
        };
        let session = UserSession::new(9, spec, Arc::clone(&scenario), None);
        (scenario, session)
    }

    #[test]
    fn f32_spec_encodes_byte_identically_to_v1() {
        // The precision tag lives in previously-always-zero bits of the
        // quarantine word, so an unquantized spec's wire bytes must not
        // change — this pins wire/golden compatibility.
        let (_, session) = tiny_session(2);
        let blob = SessionCheckpoint::capture(&session).to_bytes();
        assert_eq!(&blob[..8], FLEET_MAGIC);
        let spec_bytes = session.spec().to_bytes();
        let (back, used) = SessionSpec::decode_prefix(&spec_bytes).expect("decode");
        assert_eq!(used, spec_bytes.len());
        assert_eq!(&back, session.spec());
        assert_eq!(back.learner.precision, Precision::F32);
    }

    #[test]
    fn quantized_checkpoint_uses_v2_magic_and_roundtrips() {
        for precision in [Precision::F16, Precision::Int8] {
            let (scenario, mut session) = quantized_session(3, precision);
            session.step_batches(17);
            let ck = SessionCheckpoint::capture(&session);
            let blob = ck.to_bytes();
            assert_eq!(&blob[..8], FLEET_MAGIC_V2, "{precision}");
            let back = SessionCheckpoint::from_bytes(&blob).expect("roundtrip");
            assert_eq!(back, ck);
            assert_eq!(back.spec.learner.precision, precision);
            // Restore rebuilds a learner whose re-capture is byte-stable.
            let restored = back.restore(scenario, None).expect("restore");
            assert_eq!(SessionCheckpoint::capture(&restored).to_bytes(), blob);
        }
    }

    #[test]
    fn unknown_precision_tag_is_rejected() {
        let (_, mut session) = tiny_session(1);
        session.step_batches(2);
        let ck = SessionCheckpoint::capture(&session);
        let mut spec_bytes = ck.spec.to_bytes();
        // The quarantine/precision word sits after 6 u32s + 3 f32s.
        let off = 9 * 4 + 1;
        spec_bytes[off] = 0x7F; // precision tag 0x7F: undefined
        let err = SessionSpec::decode_prefix(&spec_bytes).unwrap_err();
        assert!(matches!(err, LoadCheckpointError::UnsupportedVersion));
        // High bits beyond the tag are reserved too.
        spec_bytes[off] = 0;
        spec_bytes[off + 1] = 0x01;
        let err = SessionSpec::decode_prefix(&spec_bytes).unwrap_err();
        assert!(matches!(err, LoadCheckpointError::UnsupportedVersion));
    }

    #[test]
    fn counters_survive_the_roundtrip() {
        let (scenario, mut session) = tiny_session(8);
        session.step_batches(30);
        let before = session.learner().counters();
        assert!(before.trace.inputs > 0);
        let ck = SessionCheckpoint::capture(&session);
        let restored = ck.restore(scenario, None).expect("restore");
        assert_eq!(restored.learner().counters(), before);
        assert_eq!(restored.trace(), session.trace());
    }
}
