//! Stable byte encodings and CRC32 digests of simulation observables.
//!
//! Two runs are "identical" when these digests match: every field of
//! every event (including float bit patterns and full checkpoint blobs)
//! feeds the digest through a fixed little-endian encoding, so any
//! divergence — a reordered event, one flipped accuracy bit — changes
//! the result.

use chameleon_fleet::{SessionEvent, SessionEventKind, SessionId};
use chameleon_obs::{Stage, StageStats};
use chameleon_replay::crc32;

/// Whether shard ids participate in an event digest.
///
/// Within one engine configuration the shard id is part of the
/// observable (replay determinism must reproduce it); across different
/// shard counts it is expected to differ, so invariance comparisons
/// exclude it.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ShardScope {
    /// Include `event.shard` in the digest.
    Include,
    /// Exclude it (cross-shard-count comparisons).
    Exclude,
}

/// Appends one event's stable encoding to `buf`.
pub fn encode_event(buf: &mut Vec<u8>, event: &SessionEvent, scope: ShardScope) {
    buf.extend_from_slice(&event.session.to_le_bytes());
    buf.extend_from_slice(&event.correlation.to_le_bytes());
    if scope == ShardScope::Include {
        buf.extend_from_slice(&(event.shard as u64).to_le_bytes());
    }
    match &event.kind {
        SessionEventKind::Created => buf.push(0),
        SessionEventKind::Stepped { delivered, done } => {
            buf.push(1);
            buf.extend_from_slice(&(*delivered as u64).to_le_bytes());
            buf.push(u8::from(*done));
        }
        SessionEventKind::Evaluated(report) => {
            buf.push(2);
            buf.extend_from_slice(&report.acc_all.to_bits().to_le_bytes());
            buf.extend_from_slice(&(report.per_domain.len() as u64).to_le_bytes());
            for &v in &report.per_domain {
                buf.extend_from_slice(&v.to_bits().to_le_bytes());
            }
            buf.extend_from_slice(&(report.per_class.len() as u64).to_le_bytes());
            for &v in &report.per_class {
                buf.extend_from_slice(&v.to_bits().to_le_bytes());
            }
            buf.extend_from_slice(&report.memory_overhead_mb.to_bits().to_le_bytes());
        }
        SessionEventKind::Checkpointed(blob) => {
            buf.push(3);
            buf.extend_from_slice(&(blob.len() as u64).to_le_bytes());
            buf.extend_from_slice(blob);
        }
        SessionEventKind::Evicted => buf.push(4),
        SessionEventKind::Failed(reason) => {
            buf.push(5);
            buf.extend_from_slice(&(reason.len() as u64).to_le_bytes());
            buf.extend_from_slice(reason.as_bytes());
        }
        SessionEventKind::Exported(blob) => {
            buf.push(6);
            buf.extend_from_slice(&(blob.len() as u64).to_le_bytes());
            buf.extend_from_slice(blob);
        }
        SessionEventKind::Imported => buf.push(7),
    }
}

/// CRC32 digest of an event log under the given shard scope.
pub fn digest_events<'a>(
    events: impl IntoIterator<Item = &'a SessionEvent>,
    scope: ShardScope,
) -> u32 {
    let mut buf = Vec::new();
    for event in events {
        encode_event(&mut buf, event, scope);
    }
    crc32(&buf)
}

/// CRC32 over per-session byte strings in iteration order, each prefixed
/// with its little-endian session id — the digest of a set of session
/// logs or final checkpoint blobs.
pub fn digest_by_session<'a>(
    entries: impl IntoIterator<Item = (&'a SessionId, &'a Vec<u8>)>,
) -> u32 {
    let mut buf = Vec::new();
    for (id, bytes) in entries {
        buf.extend_from_slice(&id.to_le_bytes());
        buf.extend_from_slice(bytes);
    }
    crc32(&buf)
}

/// CRC32 digest of per-stage span aggregates (an
/// [`chameleon_obs::Observer`] snapshot): stage id, count, total, max,
/// and every histogram bucket feed the digest, so the virtual-clock span
/// timings of a simulation run are pinned alongside its event log.
pub fn digest_spans(spans: &[(Stage, StageStats)]) -> u32 {
    let mut buf = Vec::new();
    for (stage, stats) in spans {
        buf.push(stage.id());
        buf.extend_from_slice(&stats.count.to_le_bytes());
        buf.extend_from_slice(&stats.total_nanos.to_le_bytes());
        buf.extend_from_slice(&stats.max_nanos.to_le_bytes());
        for bucket in stats.histogram.buckets {
            buf.extend_from_slice(&bucket.to_le_bytes());
        }
    }
    crc32(&buf)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn event(kind: SessionEventKind) -> SessionEvent {
        SessionEvent {
            session: 3,
            shard: 1,
            correlation: 9,
            kind,
        }
    }

    #[test]
    fn digest_is_stable_and_sensitive() {
        let a = vec![
            event(SessionEventKind::Created),
            event(SessionEventKind::Stepped {
                delivered: 4,
                done: false,
            }),
        ];
        let mut b = a.clone();
        assert_eq!(
            digest_events(&a, ShardScope::Include),
            digest_events(&b, ShardScope::Include)
        );
        b[1].kind = SessionEventKind::Stepped {
            delivered: 5,
            done: false,
        };
        assert_ne!(
            digest_events(&a, ShardScope::Include),
            digest_events(&b, ShardScope::Include)
        );
    }

    #[test]
    fn shard_scope_controls_shard_sensitivity() {
        let a = vec![event(SessionEventKind::Evicted)];
        let mut b = a.clone();
        b[0].shard = 0;
        assert_eq!(
            digest_events(&a, ShardScope::Exclude),
            digest_events(&b, ShardScope::Exclude)
        );
        assert_ne!(
            digest_events(&a, ShardScope::Include),
            digest_events(&b, ShardScope::Include)
        );
    }

    #[test]
    fn checkpoint_blob_bytes_feed_the_digest() {
        let a = vec![event(SessionEventKind::Checkpointed(vec![1, 2, 3]))];
        let b = vec![event(SessionEventKind::Checkpointed(vec![1, 2, 4]))];
        assert_ne!(
            digest_events(&a, ShardScope::Exclude),
            digest_events(&b, ShardScope::Exclude)
        );
    }
}
