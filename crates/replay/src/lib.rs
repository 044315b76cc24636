//! Replay-buffer primitives for the Chameleon reproduction.
//!
//! Every replay-based continual-learning method in the paper is built on a
//! bounded sample store with an insertion policy and a retrieval policy.
//! This crate provides the storage layer:
//!
//! * [`StoredSample`] — a replayable sample with the optional payloads the
//!   baselines attach (DER's logits, GSS's gradient direction),
//! * [`ReservoirBuffer`] — uniform reservoir sampling over the stream
//!   (ER/DER/Latent Replay's insertion rule),
//! * [`RingBuffer`] — FIFO store (Chameleon's short-term buffer *container*;
//!   its probabilistic insertion rule lives in `chameleon-core`),
//! * [`ClassBalancedBuffer`] — an equal-per-class store (Chameleon's
//!   long-term buffer container),
//! * [`AccessStats`] — read/write counters every buffer maintains, which the
//!   hardware model converts into on-chip/off-chip traffic for Table II.
//!
//! Resilience support: every [`StoredSample`] is sealed with a [`crc32`]
//! checksum at construction, buffers can quarantine corrupted slots
//! (`purge_corrupt`), and [`StorePlacement`] records whether a store lives
//! in on-chip SRAM or off-chip DRAM — the split `chameleon-faults` uses to
//! scale bit-upset rates.
//!
//! Durability support: [`append_log`] is the one CRC-sealed record log
//! behind `chameleon-store`'s `CHAMSEG1` session log and
//! `chameleon-route`'s `CHAMRTE1` router state.
//!
//! # Example
//!
//! ```
//! use chameleon_replay::{ReservoirBuffer, StoredSample};
//! use chameleon_tensor::Prng;
//!
//! let mut rng = Prng::new(0);
//! let mut buffer = ReservoirBuffer::new(3);
//! for i in 0..10 {
//!     buffer.offer(StoredSample::latent(vec![i as f32], i % 2), &mut rng);
//! }
//! assert_eq!(buffer.len(), 3);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod append_log;
mod balanced;
pub mod codec;
mod integrity;
mod placement;
mod reservoir;
mod ring;
mod sample;
mod stats;

pub use balanced::ClassBalancedBuffer;
pub use codec::{decode_latent, decode_latent_into, encode_latent, CodecError, Precision};
pub use integrity::{crc32, Crc32};
pub use placement::StorePlacement;
pub use reservoir::ReservoirBuffer;
pub use ring::RingBuffer;
pub use sample::StoredSample;
pub use stats::AccessStats;
