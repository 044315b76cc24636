//! The Chameleon dual-memory replay strategy (paper §III, Algorithm 1).

use std::sync::Arc;

use chameleon_nn::{loss, FrozenExtractor, Kernel, MlpHead, Sgd};
use chameleon_replay::{
    AccessStats, ClassBalancedBuffer, Precision, RingBuffer, StorePlacement, StoredSample,
};
use chameleon_stream::{Batch, ConfigError};
use chameleon_tensor::{ops, Matrix, Prng};

use crate::{ModelConfig, PreferenceTracker, StepTrace, Strategy};

/// Hyperparameters of the Chameleon strategy.
#[derive(Clone, Debug, PartialEq)]
pub struct ChameleonConfig {
    /// Short-term store capacity `|M_s|` (paper: 10 samples, on-chip).
    pub short_term_capacity: usize,
    /// Long-term store capacity `|M_l|` (paper: 100–1500 samples, off-chip).
    pub long_term_capacity: usize,
    /// Long-term access period `h`, in *stream samples* (cycles): `M_l` is
    /// read and updated once every `h` samples. At the paper's hardware
    /// batch size of one this is exactly "every ten batches" (§IV-A); at
    /// batch size ten it amounts to one long-term access per batch while
    /// preserving the same per-image off-chip traffic.
    pub long_term_period: usize,
    /// Samples drawn from `M_l` on each periodic access.
    pub long_term_batch: usize,
    /// Number of user-preferred classes `k` tracked (paper: 5).
    pub top_k: usize,
    /// Learning-window length in samples (paper: ~1500 images; scaled to
    /// the synthetic stream length).
    pub learning_window: usize,
    /// Allocation exponent `ρ ∈ [0, 1]` of Eq. 2.
    pub rho: f32,
    /// Weight `α` of the user-affinity term in Eq. 4.
    pub alpha: f32,
    /// Weight `β` of the uncertainty term in Eq. 4.
    pub beta: f32,
    /// Whether corrupted replay samples (failed integrity checksums) are
    /// detected and evicted before training on them.
    pub quarantine: bool,
    /// Long-term integrity fraction below which a quarantine sweep also
    /// rebuilds the long-term store from the (verified) short-term store —
    /// after catastrophic corruption the surviving prototypes are too
    /// sparse to select against, so the store is reseeded from trusted
    /// on-chip data.
    pub rebuild_integrity_floor: f32,
    /// Storage precision for replay latents. At the default
    /// [`Precision::F32`] every byte this learner produces (checkpoints,
    /// fleet records, wire specs) is identical to pre-codec builds. The
    /// quantized modes project each latent onto the codec grid at
    /// short-term insertion (training reads the dequantized values, so
    /// what is learned is exactly what survives an evict/restore),
    /// serialize packed sample sections (`CHAMLN03`), and switch the
    /// head's forward matmuls to the chunked SIMD-friendly kernels.
    pub precision: Precision,
}

impl Default for ChameleonConfig {
    fn default() -> Self {
        Self {
            short_term_capacity: 10,
            long_term_capacity: 100,
            long_term_period: 10,
            long_term_batch: 10,
            top_k: 5,
            learning_window: 400,
            rho: 1.0,
            alpha: 0.3,
            beta: 0.7,
            quarantine: true,
            rebuild_integrity_floor: 0.5,
            precision: Precision::F32,
        }
    }
}

impl ChameleonConfig {
    /// Validates the configuration, returning the first violated
    /// constraint.
    ///
    /// # Errors
    ///
    /// Returns a [`ConfigError`] naming the offending field when a value is
    /// out of range. (NaN fails every range check.)
    pub fn validate(&self) -> Result<(), ConfigError> {
        let err = |field, requirement| Err(ConfigError { field, requirement });
        if self.short_term_capacity == 0 {
            return err("short-term capacity", "must be positive");
        }
        if self.long_term_capacity == 0 {
            return err("long-term capacity", "must be positive");
        }
        if self.long_term_period == 0 {
            return err("long-term period", "must be positive");
        }
        if self.long_term_batch == 0 {
            return err("long-term batch", "must be positive");
        }
        if self.top_k == 0 {
            return err("top-k", "must be positive");
        }
        if self.learning_window == 0 {
            return err("learning window", "must be positive");
        }
        if !(0.0..=1.0).contains(&self.rho) {
            return err("rho", "must be in [0,1]");
        }
        if !(self.alpha >= 0.0 && self.beta >= 0.0) {
            return err("alpha/beta weights", "must be non-negative");
        }
        // NaN weights were rejected by the non-negativity check above, so
        // the sum is totally ordered here.
        if self.alpha + self.beta <= 0.0 {
            return err("alpha + beta", "must be positive");
        }
        if !(0.0..=1.0).contains(&self.rebuild_integrity_floor) {
            return err("rebuild integrity floor", "must be in [0,1]");
        }
        Ok(())
    }

    /// Panicking wrapper around [`ChameleonConfig::validate`] for internal
    /// construction paths.
    ///
    /// # Panics
    ///
    /// Panics with the violated constraint when a field is out of range.
    pub fn assert_valid(&self) {
        if let Err(e) = self.validate() {
            panic!("invalid Chameleon config: {e}");
        }
    }
}

/// Selection policies for the two stores — the full paper rules by default,
/// with degraded variants for the ablation benches.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ShortTermPolicy {
    /// Full Eq. 4: α·user-affinity + β·uncertainty.
    UserAwareUncertainty,
    /// Uncertainty term only (α = 0).
    UncertaintyOnly,
    /// User-affinity term only (β = 0).
    PreferenceOnly,
    /// Uniform random selection from the batch.
    Random,
}

/// Long-term insertion policies (ablation).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum LongTermPolicy {
    /// Full Eq. 5/6: class-prototype KL contrastive selection.
    PrototypeKl,
    /// Uniform random promotion from the short-term store.
    Random,
}

/// The Chameleon strategy: dual replay buffers mapped to the memory
/// hierarchy, trained single-pass (paper Algorithm 1).
///
/// Per incoming batch `B_t`:
///
/// 1. update running class statistics / user preferences (`n_c`, Eq. 2),
/// 2. extract latent activations `Z_t = f_θ(X_t)`,
/// 3. train `g_φ` on `Z_t ∪ M_s ∪ m̂_l` where `m̂_l` is drawn from the
///    long-term store every `h` batches,
/// 4. pick one element of `B_t` by the user-aware uncertainty distribution
///    (Eqs. 3–4) and swap it into `M_s` at a random slot,
/// 5. every `h` batches, promote the short-term sample with the highest
///    prototype-KL score (Eqs. 5–6) into the class-balanced `M_l`.
#[derive(Debug)]
pub struct Chameleon {
    extractor: Arc<FrozenExtractor>,
    head: MlpHead,
    sgd: Sgd,
    short_term: RingBuffer,
    long_term: ClassBalancedBuffer,
    prefs: PreferenceTracker,
    config: ChameleonConfig,
    st_policy: ShortTermPolicy,
    lt_policy: LongTermPolicy,
    shapes: chameleon_stream::shapes::NominalShapes,
    rng: Prng,
    samples_seen: u64,
    trace: StepTrace,
    prototype_rebuilds: u64,
}

/// Resilience counters of a [`Chameleon`] learner: what its integrity
/// machinery detected and repaired so far.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct ResilienceReport {
    /// Corrupted samples evicted from the short-term store.
    pub short_term_evictions: u64,
    /// Corrupted samples evicted from the long-term store.
    pub long_term_evictions: u64,
    /// SGD updates rejected because gradients contained NaN/Inf.
    pub skipped_updates: u64,
    /// Times catastrophic long-term corruption triggered a rebuild from
    /// the short-term store.
    pub prototype_rebuilds: u64,
    /// Current fraction of long-term samples passing their checksum.
    pub long_term_integrity: f64,
}

/// Lifetime counters of a [`Chameleon`] learner that the checkpoint format
/// does *not* persist: operation traces and store access/quarantine
/// statistics. Session managers (the fleet engine) snapshot these via
/// [`Chameleon::counters`] alongside a checkpoint and re-apply them with
/// [`Chameleon::restore_counters`], so an evicted-then-restored session
/// reports the same quarantine history and hardware-priceable trace as one
/// that never left memory.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct LearnerCounters {
    /// Accumulated operation/traffic trace ([`Chameleon::trace`]).
    pub trace: StepTrace,
    /// Short-term store access counters (reads/writes/corrupt evictions).
    pub short_term_stats: AccessStats,
    /// Long-term store access counters (reads/writes/corrupt evictions).
    pub long_term_stats: AccessStats,
    /// SGD updates rejected for non-finite gradients.
    pub skipped_updates: u64,
    /// Catastrophic long-term rebuilds performed.
    pub prototype_rebuilds: u64,
}

impl Chameleon {
    /// Creates a Chameleon learner with the paper's default policies.
    ///
    /// # Panics
    ///
    /// Panics if `config` fails [`ChameleonConfig::validate`] (see [`ChameleonConfig::assert_valid`]).
    pub fn new(model: &ModelConfig, config: ChameleonConfig, seed: u64) -> Self {
        Self::with_policies(
            model,
            config,
            ShortTermPolicy::UserAwareUncertainty,
            LongTermPolicy::PrototypeKl,
            seed,
        )
    }

    /// Creates a Chameleon learner with explicit store policies (used by
    /// the sampling-rule ablation).
    ///
    /// # Panics
    ///
    /// Panics if `config` fails [`ChameleonConfig::validate`] (see [`ChameleonConfig::assert_valid`]).
    pub fn with_policies(
        model: &ModelConfig,
        config: ChameleonConfig,
        st_policy: ShortTermPolicy,
        lt_policy: LongTermPolicy,
        seed: u64,
    ) -> Self {
        Self::assemble(
            Arc::new(model.build_extractor()),
            model,
            config,
            st_policy,
            lt_policy,
            seed,
        )
    }

    /// Builds a fresh learner around `extractor`: every constructor and
    /// loader ends here.
    fn assemble(
        extractor: Arc<FrozenExtractor>,
        model: &ModelConfig,
        config: ChameleonConfig,
        st_policy: ShortTermPolicy,
        lt_policy: LongTermPolicy,
        seed: u64,
    ) -> Self {
        config.assert_valid();
        let mut head = model.build_head(seed);
        if config.precision != Precision::F32 {
            // The chunked kernels reassociate float reductions, so they
            // ride with the quantized modes where every run being
            // compared (solo vs fleet, run vs replay) selects them too.
            head.set_kernel(Kernel::Chunked);
        }
        Self {
            extractor,
            head,
            sgd: model.build_sgd(),
            short_term: RingBuffer::new(config.short_term_capacity),
            long_term: ClassBalancedBuffer::new(config.long_term_capacity),
            prefs: PreferenceTracker::new(
                model.num_classes,
                config.top_k.min(model.num_classes),
                config.learning_window,
                config.rho,
            ),
            config,
            st_policy,
            lt_policy,
            shapes: model.shapes,
            rng: Prng::new(seed ^ 0xC4A3_31E0),
            samples_seen: 0,
            trace: StepTrace::new(),
            prototype_rebuilds: 0,
        }
    }

    /// Nominal replay-store footprint in MB if the latents were stored
    /// at `precision` — the repricing hook behind
    /// [`Strategy::memory_overhead_mb`] and the fleet's bytes-saved
    /// gauges. The nominal latent (`NominalShapes`) is priced at the
    /// paper's fp16 storage assumption, so `F32` and `F16` both
    /// reproduce the paper's Table I numbers; `Int8` halves them
    /// (1 byte/element + an 8-byte per-tensor affine header).
    pub fn memory_overhead_mb_at(&self, precision: Precision) -> f64 {
        let price = |n: usize| match precision {
            Precision::F32 | Precision::F16 => self.shapes.latent_mb(n),
            Precision::Int8 => self.shapes.latent_packed_mb(n, 1, 8),
        };
        price(self.config.short_term_capacity) + price(self.config.long_term_capacity)
    }

    /// Resilience counters: quarantine evictions, rejected updates, and
    /// long-term rebuilds so far.
    pub fn resilience(&self) -> ResilienceReport {
        ResilienceReport {
            short_term_evictions: self.short_term.stats().corrupt_evictions,
            long_term_evictions: self.long_term.stats().corrupt_evictions,
            skipped_updates: self.sgd.skipped_updates(),
            prototype_rebuilds: self.prototype_rebuilds,
            long_term_integrity: self.long_term.integrity_fraction(),
        }
    }

    /// Snapshot of the lifetime counters the checkpoint format does not
    /// persist (trace, store access stats, skipped updates, rebuilds).
    pub fn counters(&self) -> LearnerCounters {
        LearnerCounters {
            trace: self.trace,
            short_term_stats: self.short_term.stats(),
            long_term_stats: self.long_term.stats(),
            skipped_updates: self.sgd.skipped_updates(),
            prototype_rebuilds: self.prototype_rebuilds,
        }
    }

    /// Re-applies counters captured by [`Chameleon::counters`] onto a
    /// learner reloaded from a checkpoint, so eviction + restore preserves
    /// quarantine history and the hardware-priceable operation trace.
    pub fn restore_counters(&mut self, counters: &LearnerCounters) {
        self.trace = counters.trace;
        self.short_term.restore_stats(counters.short_term_stats);
        self.long_term.restore_stats(counters.long_term_stats);
        self.sgd.restore_skipped_updates(counters.skipped_updates);
        self.prototype_rebuilds = counters.prototype_rebuilds;
    }

    /// The current preference tracker (for inspection in examples).
    pub fn preferences(&self) -> &PreferenceTracker {
        &self.prefs
    }

    /// Current short-term store occupancy.
    pub fn short_term_len(&self) -> usize {
        self.short_term.len()
    }

    /// Current long-term store occupancy.
    pub fn long_term_len(&self) -> usize {
        self.long_term.len()
    }

    /// Configuration in use.
    pub fn config(&self) -> &ChameleonConfig {
        &self.config
    }

    /// The frozen extractor `f_θ` this learner extracts latents with.
    pub fn extractor(&self) -> &Arc<FrozenExtractor> {
        &self.extractor
    }

    /// The head's logits over already-extracted latents: the second half
    /// of [`Strategy::logits`].
    pub(crate) fn head_logits(&self, latents: &Matrix) -> Matrix {
        self.head.logits(latents)
    }

    /// Class prototype `P_c` (Eq. 5): the mean latent of class `c` currently
    /// stored in the long-term memory; `None` if the class is absent.
    pub fn class_prototype(&self, class: usize) -> Option<Vec<f32>> {
        let samples = self.long_term.samples_of_class(class);
        if samples.is_empty() {
            return None;
        }
        let dim = samples[0].dim();
        let mut proto = vec![0.0f32; dim];
        for s in samples {
            for (p, &v) in proto.iter_mut().zip(&s.features) {
                *p += v;
            }
        }
        let n = samples.len() as f32;
        for p in &mut proto {
            *p /= n;
        }
        Some(proto)
    }

    /// Eq. 4's selection distribution over the incoming batch, exposed for
    /// tests and the sampling microbench. `latents` and `labels` describe
    /// the batch; `logits` are the model's current outputs for it.
    fn selection_distribution(&self, labels: &[usize], logits: &Matrix) -> Vec<f32> {
        let n = labels.len();
        // Uncertainty term: U_i = |logit of true class| (Eq. 3); retain
        // high U_i^{-1} = low margin.
        let inv_u: Vec<f32> = (0..n)
            .map(|i| {
                let u = ops::logit_margin_uncertainty(logits.row(i), labels[i]);
                1.0 / u.max(1e-6)
            })
            .collect();
        // Affinity term: Δ_k for preferred classes, 1−Δ_k otherwise,
        // normalized over the batch exactly as in Eq. 4's denominator.
        let alloc: Vec<f32> = labels
            .iter()
            .map(|&c| self.prefs.allocation_weight(c))
            .collect();
        let alloc_norm: f32 = alloc.iter().sum();
        let inv_u_norm: f32 = inv_u.iter().sum();

        let (alpha, beta) = match self.st_policy {
            ShortTermPolicy::UserAwareUncertainty => (self.config.alpha, self.config.beta),
            ShortTermPolicy::UncertaintyOnly => (0.0, 1.0),
            ShortTermPolicy::PreferenceOnly => (1.0, 0.0),
            ShortTermPolicy::Random => return vec![1.0; n],
        };
        (0..n)
            .map(|i| {
                let a = if alloc_norm > 0.0 {
                    alloc[i] / alloc_norm
                } else {
                    0.0
                };
                // Both terms are normalized to probability simplices so α/β
                // mix comparable scales (implementation note in DESIGN.md).
                let b = if inv_u_norm > 0.0 {
                    inv_u[i] / inv_u_norm
                } else {
                    0.0
                };
                alpha * a + beta * b
            })
            .collect()
    }

    /// One combined SGD step over `Ẑ_t = Z_t ∪ M_s ∪ m̂_l` (Algorithm 1
    /// lines 5–7). The complete short-term store is swept on every update
    /// — at the paper's hardware batch size of one this is exactly "sweeps
    /// through the complete short-term memory for each new sample"; the
    /// periodic long-term draw is concatenated into the same mini-batch
    /// ("iterative mini-batch concatenation", §IV-A). Returns the logits of
    /// the incoming samples for the Eq. 3 uncertainty scores.
    fn train_step(&mut self, incoming: &Matrix, labels: &[usize], lt_due: bool) -> Matrix {
        let n_in = labels.len();
        let mut rows: Vec<Vec<f32>> = incoming.iter_rows().map(<[f32]>::to_vec).collect();
        let mut all_labels = labels.to_vec();

        // Full short-term sweep (on-chip reads), quarantining corrupted
        // slots first when enabled.
        let st_items = if self.config.quarantine {
            self.short_term.read_all_verified()
        } else {
            self.short_term.read_all()
        };
        self.trace.onchip_sample_reads += st_items.len() as u64;
        for s in st_items {
            rows.push(s.features.clone());
            all_labels.push(s.label);
        }

        // Periodic long-term access (off-chip reads). A quarantine sweep
        // precedes the draw; if it reveals catastrophic corruption, the
        // store is rebuilt from the just-verified short-term data.
        if lt_due && self.config.quarantine && !self.long_term.is_empty() {
            let integrity = self.long_term.integrity_fraction();
            let evicted = self.long_term.purge_corrupt();
            if evicted > 0 && integrity < f64::from(self.config.rebuild_integrity_floor) {
                self.rebuild_long_term_from_short_term();
            }
        }
        if lt_due && !self.long_term.is_empty() {
            let lt = self
                .long_term
                .sample_batch(self.config.long_term_batch, &mut self.rng);
            self.trace.offchip_latent_reads += lt.len() as u64;
            for s in lt {
                rows.push(s.features.clone());
                all_labels.push(s.label);
            }
        }

        let x = Matrix::try_from_row_iter(rows.iter().map(Vec::as_slice))
            .expect("latent rows share dimensionality");
        let fwd = self.head.forward(&x);
        let (_, dlogits) = loss::softmax_cross_entropy(fwd.logits(), &all_labels);
        let grads = self.head.backward(&fwd, &dlogits);
        self.head.apply(&grads, &mut self.sgd);
        self.trace.head_fwd_passes += all_labels.len() as u64;
        self.trace.head_bwd_passes += all_labels.len() as u64;

        let mut out = Matrix::zeros(n_in, fwd.logits().cols());
        for r in 0..n_in {
            out.row_mut(r).copy_from_slice(fwd.logits().row(r));
        }
        out
    }

    /// Step 5: promote the best short-term sample into the long-term store
    /// using the prototype-KL score (Eq. 6).
    fn update_long_term(&mut self) {
        if self.short_term.is_empty() {
            return;
        }
        let candidates = self.short_term.items().to_vec();
        let chosen = match self.lt_policy {
            LongTermPolicy::Random => self.rng.below(candidates.len()),
            LongTermPolicy::PrototypeKl => {
                // Greedy argmax of Eq. 6. The ordering uses the raw KL
                // value: tanh is monotone, but it saturates in f32 well
                // before the KL does, which would reduce the argmax to
                // arbitrary tie-breaking among all strongly-contrastive
                // candidates.
                let mut best = 0usize;
                let mut best_score = f32::NEG_INFINITY;
                for (j, s) in candidates.iter().enumerate() {
                    // No prototype yet for this class: treat as maximally
                    // informative so new classes reach the LT store fast.
                    let score = self.prototype_kl_raw(s).unwrap_or(f32::MAX);
                    if score > best_score {
                        best_score = score;
                        best = j;
                    }
                }
                best
            }
        };
        let sample = candidates[chosen].clone();
        self.long_term.insert(sample, &mut self.rng);
        self.trace.offchip_latent_writes += 1;
    }

    /// Reseeds a catastrophically corrupted long-term store from the
    /// verified short-term store. Prototypes are derived state (means over
    /// long-term samples), so repopulating the store *is* the prototype
    /// rebuild: subsequent Eq. 5/6 selections score against trusted data
    /// again instead of a nearly-empty survivor set.
    fn rebuild_long_term_from_short_term(&mut self) {
        let survivors = self.short_term.items().to_vec();
        for s in survivors {
            if s.integrity_ok() {
                self.long_term.insert(s, &mut self.rng);
                self.trace.offchip_latent_writes += 1;
            }
        }
        self.prototype_rebuilds += 1;
    }

    /// Raw `KL(p(y|st_j) ‖ p(y|P_c))` underlying Eq. 6; `None` when the
    /// class has no long-term prototype yet.
    fn prototype_kl_raw(&self, sample: &StoredSample) -> Option<f32> {
        let proto = self.class_prototype(sample.label)?;
        let x = Matrix::try_from_row_iter([sample.features.as_slice(), proto.as_slice()])
            .expect("equal latent dims");
        let logits = self.head.logits(&x);
        let p_sample = ops::softmax(logits.row(0));
        let p_proto = ops::softmax(logits.row(1));
        Some(ops::kl_divergence(&p_sample, &p_proto))
    }

    /// `S_j = tanh(KL(p(y|st_j) ‖ p(y|P_c)))` (Eq. 6); `None` when the
    /// class has no long-term prototype yet.
    pub fn prototype_kl_score(&self, sample: &StoredSample) -> Option<f32> {
        Some(self.prototype_kl_raw(sample)?.tanh())
    }

    /// Serializes the learner's persistent state (head parameters, both
    /// replay stores, lifetime class counts) — see
    /// [`checkpoint`](crate::checkpoint) for what is and is not persisted.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors from the writer.
    pub fn save_checkpoint<W: std::io::Write>(&self, mut w: W) -> std::io::Result<()> {
        use crate::checkpoint as ck;
        let precision = self.config.precision;
        let mut payload = Vec::new();
        if precision != Precision::F32 {
            // v3 leads with the precision tag so a loader knows how to
            // interpret the packed sample sections before reading them.
            ck::write_u32(&mut payload, u32::from(precision.tag()))?;
        }
        ck::write_f32_slice(&mut payload, &self.head.parameters())?;
        let lt: Vec<StoredSample> = self.long_term.iter().cloned().collect();
        if precision == Precision::F32 {
            ck::write_samples(&mut payload, self.short_term.items())?;
            ck::write_samples(&mut payload, &lt)?;
        } else {
            ck::write_packed_samples(&mut payload, self.short_term.items(), precision)?;
            ck::write_packed_samples(&mut payload, &lt, precision)?;
        }
        let counts = self.prefs.total_counts();
        ck::write_u32(&mut payload, counts.len() as u32)?;
        for &c in counts {
            ck::write_u64(&mut payload, c)?;
        }
        ck::write_u64(&mut payload, self.samples_seen)?;
        let blob = if precision == Precision::F32 {
            ck::seal(&payload)
        } else {
            ck::seal_as(ck::MAGIC_V3, &payload)
        };
        w.write_all(&blob)
    }

    /// The one way in for a learner around a shared frozen extractor:
    /// fresh when `checkpoint` is `None`, else reloaded from that blob
    /// exactly as [`Self::load_checkpoint`] reloads it. `extractor` must
    /// be `model.build_extractor()`'s output (a [`FrozenModel`]'s, say);
    /// the learner then behaves bit for bit like one from [`Self::new`]
    /// or [`Self::load_checkpoint`], which each build a private copy.
    ///
    /// [`FrozenModel`]: crate::FrozenModel
    ///
    /// # Errors
    ///
    /// The [`Self::load_checkpoint`] errors, only when `checkpoint` is
    /// `Some`.
    ///
    /// # Panics
    ///
    /// Panics if `config` fails [`ChameleonConfig::validate`] (see [`ChameleonConfig::assert_valid`]).
    pub fn with_extractor(
        extractor: Arc<FrozenExtractor>,
        model: &ModelConfig,
        config: ChameleonConfig,
        seed: u64,
        checkpoint: Option<&[u8]>,
    ) -> Result<Self, crate::checkpoint::LoadCheckpointError> {
        use crate::checkpoint as ck;
        use crate::checkpoint::LoadCheckpointError as E;

        let fresh = |config| {
            Self::assemble(
                extractor,
                model,
                config,
                ShortTermPolicy::UserAwareUncertainty,
                LongTermPolicy::PrototypeKl,
                seed,
            )
        };
        let Some(blob) = checkpoint else {
            return Ok(fresh(config));
        };
        // Verify the envelope (magic + CRC32 footer) before touching any
        // section; decode then proceeds over the validated payload slice.
        let (payload, version) = ck::open(blob)?;
        let mut r = payload;
        let precision = config.precision;
        let mut learner = fresh(config);

        let packed = match version {
            ck::Version::V2 => false,
            ck::Version::V3 => {
                // v3 records which grid its packed samples live on; a
                // learner configured at a different precision would
                // train on a different grid than it restores, so the
                // mismatch is rejected up front.
                let tag = ck::read_u32(&mut r)?;
                let found = u8::try_from(tag)
                    .ok()
                    .and_then(Precision::from_tag)
                    .ok_or(E::UnsupportedVersion)?;
                if found != precision {
                    return Err(E::ShapeMismatch {
                        what: "latent precision tag",
                        found: usize::from(found.tag()),
                        expected: usize::from(precision.tag()),
                    });
                }
                true
            }
        };

        let params = ck::read_f32_vec(&mut r)?;
        if params.len() != learner.head.parameter_count() {
            return Err(E::ShapeMismatch {
                what: "head parameters",
                found: params.len(),
                expected: learner.head.parameter_count(),
            });
        }
        learner.head.set_parameters(&params);

        let read_section = |r: &mut &[u8]| -> Result<Vec<StoredSample>, E> {
            if packed {
                ck::read_packed_samples(r)
            } else {
                Ok(ck::read_samples(r)?)
            }
        };
        for mut s in read_section(&mut r)? {
            if s.dim() != model.latent_dim {
                return Err(E::ShapeMismatch {
                    what: "short-term sample",
                    found: s.dim(),
                    expected: model.latent_dim,
                });
            }
            if !packed {
                // v2→v3 migration: project pre-codec f32 samples onto
                // the configured grid (no-op at F32, skips corrupt ones).
                s.requantize(precision);
            }
            learner.short_term.push(s);
        }
        for mut s in read_section(&mut r)? {
            if s.dim() != model.latent_dim {
                return Err(E::ShapeMismatch {
                    what: "long-term sample",
                    found: s.dim(),
                    expected: model.latent_dim,
                });
            }
            if !packed {
                s.requantize(precision);
            }
            learner.long_term.insert(s, &mut learner.rng);
        }

        let count_len = ck::read_u32(&mut r)? as usize;
        if count_len != model.num_classes {
            return Err(E::ShapeMismatch {
                what: "class counts",
                found: count_len,
                expected: model.num_classes,
            });
        }
        let mut counts = Vec::with_capacity(count_len);
        for _ in 0..count_len {
            counts.push(ck::read_u64(&mut r)?);
        }
        learner.prefs.restore_counts(&counts);
        learner.samples_seen = ck::read_u64(&mut r)?;
        Ok(learner)
    }

    /// Restores a learner from a checkpoint written by
    /// [`Self::save_checkpoint`]. The `model`, `config`, and `seed` must
    /// describe the same architecture; RNG/optimizer state restarts from
    /// `seed`.
    ///
    /// # Errors
    ///
    /// Returns [`LoadCheckpointError`](crate::checkpoint::LoadCheckpointError)
    /// on I/O failure, bad magic, truncation, a CRC32 footer mismatch, or a
    /// shape mismatch with `model`/`config`. Decoding never panics on
    /// arbitrary input.
    pub fn load_checkpoint<R: std::io::Read>(
        model: &ModelConfig,
        config: ChameleonConfig,
        seed: u64,
        mut r: R,
    ) -> Result<Self, crate::checkpoint::LoadCheckpointError> {
        let mut blob = Vec::new();
        r.read_to_end(&mut blob)?;
        Self::with_extractor(
            Arc::new(model.build_extractor()),
            model,
            config,
            seed,
            Some(&blob),
        )
    }

    /// Restores a learner from a checkpoint, falling back to a freshly
    /// initialized one when the blob is missing, truncated, or corrupted.
    /// This is the recovery path an edge deployment takes after power loss
    /// mid-write: training resumes from scratch rather than crashing. The
    /// returned error (if any) says why the checkpoint was rejected.
    pub fn load_or_fresh<R: std::io::Read>(
        model: &ModelConfig,
        config: ChameleonConfig,
        seed: u64,
        r: R,
    ) -> (Self, Option<crate::checkpoint::LoadCheckpointError>) {
        match Self::load_checkpoint(model, config.clone(), seed, r) {
            Ok(learner) => (learner, None),
            Err(e) => (Self::new(model, config, seed), Some(e)),
        }
    }
}

impl Strategy for Chameleon {
    fn name(&self) -> &str {
        "Chameleon"
    }

    fn observe(&mut self, batch: &Batch) {
        // The long-term store is touched once every `h` stream samples.
        let before = self.samples_seen / self.config.long_term_period as u64;
        self.samples_seen += batch.len() as u64;
        let lt_due = self.samples_seen / self.config.long_term_period as u64 > before;

        self.trace.inputs += batch.len() as u64;
        self.trace.trunk_passes += batch.len() as u64;

        // Step 1: running class statistics / preference estimation.
        for &label in &batch.labels {
            self.prefs.observe(label);
        }

        // Step 2: latent extraction.
        let latents = self.extractor.extract_batch(&batch.raw);

        // Step 3: weight update on Z_t ∪ M_s ∪ m̂_l.
        let incoming_logits = self.train_step(&latents, &batch.labels, lt_due);

        // Step 4: user-aware uncertainty-guided short-term update — select
        // one element b_t by Eq. 4, replace a random short-term slot.
        let weights = self.selection_distribution(&batch.labels, &incoming_logits);
        let pick = self.rng.weighted_choice(&weights);
        // At quantized precisions the latent is projected onto the codec
        // grid here, at insertion: the stored floats are the *decoded*
        // values, so replay trains on exactly what a checkpoint restore
        // will reproduce (dequantize-on-read semantics with no drift).
        let sample = StoredSample::latent_quantized(
            latents.row(pick).to_vec(),
            batch.labels[pick],
            self.config.precision,
        );
        self.short_term.replace_random(sample, &mut self.rng);
        self.trace.onchip_sample_writes += 1;

        // Step 5: periodic long-term update via prototype-KL selection.
        if lt_due {
            self.update_long_term();
        }
    }

    fn logits(&self, raw: &Matrix) -> Matrix {
        self.head_logits(&self.extractor.extract_batch(raw))
    }

    fn memory_overhead_mb(&self) -> f64 {
        self.memory_overhead_mb_at(self.config.precision)
    }

    fn trace(&self) -> StepTrace {
        self.trace
    }

    fn visit_stores(&mut self, visit: &mut dyn FnMut(StorePlacement, &mut StoredSample)) {
        for s in self.short_term.samples_mut() {
            visit(StorePlacement::OnChipSram, s);
        }
        for s in self.long_term.samples_mut() {
            visit(StorePlacement::OffChipDram, s);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use chameleon_stream::{DatasetSpec, DomainIlScenario, StreamConfig};

    fn setup() -> (DomainIlScenario, ModelConfig) {
        let spec = DatasetSpec::core50_tiny();
        let scenario = DomainIlScenario::generate(&spec, 3);
        let model = ModelConfig::for_spec(&spec);
        (scenario, model)
    }

    fn run_domains(strategy: &mut Chameleon, scenario: &DomainIlScenario, domains: usize) {
        let config = StreamConfig::default();
        for d in 0..domains {
            for batch in scenario.domain_stream(d, &config, 17 + d as u64) {
                strategy.observe(&batch);
            }
        }
    }

    #[test]
    fn buffers_fill_and_stay_bounded() {
        let (scenario, model) = setup();
        let mut c = Chameleon::new(&model, ChameleonConfig::default(), 1);
        run_domains(&mut c, &scenario, 2);
        assert_eq!(c.short_term_len(), 10);
        assert!(c.long_term_len() <= c.config().long_term_capacity);
        assert!(c.long_term_len() > 0, "long-term store never populated");
    }

    #[test]
    fn long_term_updates_fire_exactly_at_the_h_sample_boundary() {
        let (scenario, model) = setup();
        // Batch sizes that divide `h` exactly, overshoot it mid-batch,
        // and equal it: the long-term store must first be touched on
        // precisely the batch where `samples_seen` crosses `h`.
        for (batch_size, h) in [(4usize, 12usize), (5, 12), (10, 10)] {
            let config = ChameleonConfig {
                long_term_period: h,
                ..ChameleonConfig::default()
            };
            let mut c = Chameleon::new(&model, config, 5);
            let stream = StreamConfig {
                batch_size,
                ..StreamConfig::default()
            };
            let mut seen = 0u64;
            let mut crossed = false;
            for batch in scenario.domain_stream(0, &stream, 23) {
                let before = seen / h as u64;
                seen += batch.len() as u64;
                let due = seen / h as u64 > before;
                c.observe(&batch);
                if due {
                    assert!(
                        c.long_term_len() > 0,
                        "LT skipped at the boundary (h={h}, b={batch_size}, seen={seen})"
                    );
                    crossed = true;
                    break;
                }
                assert_eq!(
                    c.long_term_len(),
                    0,
                    "LT touched early (h={h}, b={batch_size}, seen={seen})"
                );
            }
            assert!(crossed, "stream never reached the h-boundary");
        }
    }

    #[test]
    fn a_shared_extractor_learns_and_reloads_like_a_private_one() {
        let (scenario, model) = setup();
        let extractor = Arc::new(model.build_extractor());
        for precision in [Precision::F32, Precision::Int8] {
            let config = ChameleonConfig {
                precision,
                ..ChameleonConfig::default()
            };
            let mut shared =
                Chameleon::with_extractor(Arc::clone(&extractor), &model, config.clone(), 21, None)
                    .expect("fresh learner");
            let mut private = Chameleon::new(&model, config.clone(), 21);
            assert!(Arc::ptr_eq(shared.extractor(), &extractor));
            run_domains(&mut shared, &scenario, 2);
            run_domains(&mut private, &scenario, 2);
            let (mut a, mut b) = (Vec::new(), Vec::new());
            shared.save_checkpoint(&mut a).expect("save");
            private.save_checkpoint(&mut b).expect("save");
            assert_eq!(a, b, "{precision}: fresh learners diverged");

            // Reloading around the shared extractor matches a private
            // reload, and both keep learning in step.
            let mut shared = Chameleon::with_extractor(
                Arc::clone(&extractor),
                &model,
                config.clone(),
                21,
                Some(&a),
            )
            .expect("reload");
            let mut private =
                Chameleon::load_checkpoint(&model, config, 21, b.as_slice()).expect("reload");
            assert!(Arc::ptr_eq(shared.extractor(), &extractor));
            run_domains(&mut shared, &scenario, 1);
            run_domains(&mut private, &scenario, 1);
            let (mut a, mut b) = (Vec::new(), Vec::new());
            shared.save_checkpoint(&mut a).expect("save");
            private.save_checkpoint(&mut b).expect("save");
            assert_eq!(a, b, "{precision}: reloaded learners diverged");
        }
    }

    #[test]
    fn learning_beats_chance() {
        let (scenario, model) = setup();
        let mut c = Chameleon::new(&model, ChameleonConfig::default(), 2);
        run_domains(&mut c, &scenario, scenario.spec().num_domains);
        let (x, y) = scenario.test_set();
        let acc = chameleon_nn::loss::accuracy(&c.logits(x), y);
        assert!(acc > 0.3, "Chameleon accuracy only {acc}");
    }

    #[test]
    fn prototypes_average_long_term_latents() {
        let (_, model) = setup();
        let mut c = Chameleon::new(&model, ChameleonConfig::default(), 3);
        assert!(c.class_prototype(0).is_none());
        // Manually fill the long-term buffer with two class-0 latents.
        let mut rng = Prng::new(0);
        c.long_term.insert(
            StoredSample::latent(vec![1.0; model.latent_dim], 0),
            &mut rng,
        );
        c.long_term.insert(
            StoredSample::latent(vec![3.0; model.latent_dim], 0),
            &mut rng,
        );
        let proto = c.class_prototype(0).expect("class present");
        assert!(proto.iter().all(|&v| (v - 2.0).abs() < 1e-6));
    }

    #[test]
    fn selection_prefers_uncertain_samples() {
        let (_, model) = setup();
        let c = Chameleon::new(&model, ChameleonConfig::default(), 4);
        // Two samples of class 0: one with a large true-class margin, one
        // near the boundary. Uncertainty term should upweight the second.
        let logits = Matrix::from_rows(&[
            &[8.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0],
            &[0.05, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0],
        ]);
        let w = c.selection_distribution(&[0, 0], &logits);
        assert!(w[1] > w[0] * 5.0, "weights {w:?}");
    }

    #[test]
    fn selection_prefers_preferred_classes_when_certain() {
        let (_, model) = setup();
        let config = ChameleonConfig {
            learning_window: 10,
            top_k: 1,
            rho: 1.0,
            alpha: 1.0,
            beta: 0.0,
            ..ChameleonConfig::default()
        };
        let mut c = Chameleon::with_policies(
            &model,
            config,
            ShortTermPolicy::PreferenceOnly,
            LongTermPolicy::PrototypeKl,
            5,
        );
        // Make class 1 strongly preferred.
        for _ in 0..9 {
            c.prefs.observe(1);
        }
        c.prefs.observe(2);
        let logits = Matrix::from_rows(&[
            &[0.0, 3.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0],
            &[0.0, 0.0, 3.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0],
        ]);
        let w = c.selection_distribution(&[1, 2], &logits);
        assert!(w[0] > w[1] * 3.0, "weights {w:?}");
    }

    #[test]
    fn random_policy_is_uniform() {
        let (_, model) = setup();
        let c = Chameleon::with_policies(
            &model,
            ChameleonConfig::default(),
            ShortTermPolicy::Random,
            LongTermPolicy::Random,
            6,
        );
        let logits = Matrix::zeros(3, 10);
        assert_eq!(c.selection_distribution(&[0, 1, 2], &logits), vec![1.0; 3]);
    }

    #[test]
    fn memory_overhead_matches_table1_row() {
        let (_, model) = setup();
        let c = Chameleon::new(
            &model,
            ChameleonConfig {
                long_term_capacity: 100,
                ..ChameleonConfig::default()
            },
            7,
        );
        // Table I: M_s = 0.3 MB, M_l = 3.2 MB.
        assert!(
            (c.memory_overhead_mb() - 3.5).abs() < 0.2,
            "{}",
            c.memory_overhead_mb()
        );
    }

    #[test]
    fn trace_counts_accumulate() {
        let (scenario, model) = setup();
        let mut c = Chameleon::new(&model, ChameleonConfig::default(), 8);
        run_domains(&mut c, &scenario, 1);
        let t = c.trace();
        assert!(t.inputs > 0);
        assert_eq!(t.trunk_passes, t.inputs);
        assert!(t.head_fwd_passes >= t.inputs);
        assert!(t.onchip_sample_reads > 0);
        assert!(t.onchip_sample_writes > 0);
        // The long-term store starts empty and is only touched every `h`
        // samples, so off-chip reads never exceed the per-batch short-term
        // sweep. (The Table II configuration — batch size one — drives the
        // 10:1 on-/off-chip disparity; see the hw crate's tests.)
        assert!(t.offchip_latent_reads <= t.onchip_sample_reads);
        assert!(t.offchip_latent_reads > 0);
    }

    #[test]
    fn long_term_stays_class_balanced_under_skew() {
        let (scenario, model) = setup();
        let mut c = Chameleon::new(
            &model,
            ChameleonConfig {
                long_term_capacity: 20,
                ..ChameleonConfig::default()
            },
            9,
        );
        let config = StreamConfig {
            preference: chameleon_stream::PreferenceProfile::Skewed {
                preferred: vec![0, 1],
                boost: 10.0,
            },
            ..StreamConfig::default()
        };
        for d in 0..scenario.spec().num_domains {
            for batch in scenario.domain_stream(d, &config, 31 + d as u64) {
                c.observe(&batch);
            }
        }
        // Even with a heavily skewed stream, no class should monopolize the
        // class-balanced long-term store.
        let max_share = (0..10)
            .map(|class| c.long_term.samples_of_class(class).len())
            .max()
            .unwrap_or(0);
        assert!(max_share <= 8, "one class holds {max_share}/20 LT slots");
    }

    #[test]
    #[should_panic(expected = "alpha + beta")]
    fn invalid_config_panics() {
        let (_, model) = setup();
        let config = ChameleonConfig {
            alpha: 0.0,
            beta: 0.0,
            ..ChameleonConfig::default()
        };
        let _ = Chameleon::new(&model, config, 0);
    }

    #[test]
    fn validate_reports_field_and_requirement() {
        let config = ChameleonConfig {
            short_term_capacity: 0,
            ..ChameleonConfig::default()
        };
        let err = config.validate().expect_err("zero capacity must fail");
        assert_eq!(err.field, "short-term capacity");
        assert!(err.to_string().contains("short-term capacity"));
        assert!(ChameleonConfig::default().validate().is_ok());
    }

    /// Corrupts one stored feature in every sample the closure selects,
    /// without resealing — exactly what a memory fault looks like.
    fn corrupt_stores(c: &mut Chameleon, placement: StorePlacement) {
        c.visit_stores(&mut |p, s| {
            if p == placement {
                s.features[0] += 1.0e3;
            }
        });
    }

    #[test]
    fn quarantine_evicts_corrupted_short_term_samples() {
        let (scenario, model) = setup();
        let mut c = Chameleon::new(&model, ChameleonConfig::default(), 11);
        run_domains(&mut c, &scenario, 1);
        assert_eq!(c.short_term_len(), 10);
        corrupt_stores(&mut c, StorePlacement::OnChipSram);
        run_domains(&mut c, &scenario, 1);
        let r = c.resilience();
        assert!(
            r.short_term_evictions >= 10,
            "corrupted ST samples not quarantined: {r:?}"
        );
    }

    #[test]
    fn quarantine_off_trains_on_corrupted_samples() {
        let (scenario, model) = setup();
        let config = ChameleonConfig {
            quarantine: false,
            ..ChameleonConfig::default()
        };
        let mut c = Chameleon::new(&model, config, 11);
        run_domains(&mut c, &scenario, 1);
        corrupt_stores(&mut c, StorePlacement::OnChipSram);
        run_domains(&mut c, &scenario, 1);
        let r = c.resilience();
        assert_eq!(r.short_term_evictions, 0);
        assert_eq!(r.long_term_evictions, 0);
    }

    #[test]
    fn catastrophic_long_term_corruption_triggers_rebuild() {
        let (scenario, model) = setup();
        let mut c = Chameleon::new(&model, ChameleonConfig::default(), 12);
        run_domains(&mut c, &scenario, 2);
        assert!(c.long_term_len() > 0);
        // Damage every long-term resident: integrity drops to 0, far below
        // the rebuild floor, so the next periodic access reseeds from the
        // (intact) short-term store.
        corrupt_stores(&mut c, StorePlacement::OffChipDram);
        assert_eq!(c.resilience().long_term_integrity, 0.0);
        run_domains(&mut c, &scenario, 1);
        let r = c.resilience();
        assert!(r.long_term_evictions > 0, "{r:?}");
        assert!(r.prototype_rebuilds >= 1, "{r:?}");
        assert!(c.long_term_len() > 0, "long-term store left empty");
        assert_eq!(r.long_term_integrity, 1.0, "rebuilt store not clean");
    }

    #[test]
    fn light_long_term_corruption_purges_without_rebuild() {
        let (scenario, model) = setup();
        let mut c = Chameleon::new(&model, ChameleonConfig::default(), 13);
        run_domains(&mut c, &scenario, 2);
        let lt = c.long_term_len();
        assert!(lt >= 4, "need a populated store, got {lt}");
        // Damage a single resident: integrity stays above the 0.5 floor.
        let mut hit = false;
        c.visit_stores(&mut |p, s| {
            if p == StorePlacement::OffChipDram && !hit {
                s.features[0] += 1.0e3;
                hit = true;
            }
        });
        run_domains(&mut c, &scenario, 1);
        let r = c.resilience();
        assert_eq!(r.long_term_evictions, 1, "{r:?}");
        assert_eq!(r.prototype_rebuilds, 0, "{r:?}");
    }

    #[test]
    fn visit_stores_tags_each_store_with_its_placement() {
        let (scenario, model) = setup();
        let mut c = Chameleon::new(&model, ChameleonConfig::default(), 14);
        run_domains(&mut c, &scenario, 2);
        let (mut sram, mut dram) = (0, 0);
        c.visit_stores(&mut |p, _| match p {
            StorePlacement::OnChipSram => sram += 1,
            StorePlacement::OffChipDram => dram += 1,
        });
        assert_eq!(sram, c.short_term_len());
        assert_eq!(dram, c.long_term_len());
        assert!(sram > 0 && dram > 0);
    }
}
