//! Minimal neural-network substrate for the Chameleon reproduction.
//!
//! The paper trains a MobileNetV1 whose feature extractor `f_θ` is frozen
//! (pre-trained, never updated) while a small head `g_φ` is trained online
//! with single-pass SGD. This crate provides both pieces from scratch:
//!
//! * [`FrozenExtractor`] — a fixed (never-trained) raw→latent map standing
//!   in for the frozen MobileNetV1 trunk (see `DESIGN.md` for why this
//!   substitution preserves the learning dynamics under study),
//! * [`MlpHead`] — the trainable classifier `g_φ` with explicit
//!   forward/backward so strategies can inspect and reuse gradients
//!   (GSS needs per-sample gradient vectors, EWC++ needs Fisher terms),
//! * [`loss`] — cross-entropy, logit-MSE (DER) and distillation (LwF)
//!   losses, each returning the loss value *and* the logit gradient,
//! * [`Sgd`] — SGD with weight decay,
//! * [`FisherDiagonal`] — the online Fisher accumulator used by EWC++.
//!
//! # Example: one training step
//!
//! ```
//! use chameleon_nn::{loss, MlpHead, Sgd};
//! use chameleon_tensor::{Matrix, Prng};
//!
//! let mut rng = Prng::new(0);
//! let mut head = MlpHead::new(&[8, 4], &mut rng);
//! let mut sgd = Sgd::new(0.1);
//! let x = Matrix::randn(2, 8, &mut rng);
//! let labels = [0usize, 3];
//!
//! let fwd = head.forward(&x);
//! let (loss_value, dlogits) = loss::softmax_cross_entropy(fwd.logits(), &labels);
//! let grads = head.backward(&fwd, &dlogits);
//! head.apply(&grads, &mut sgd);
//! assert!(loss_value.is_finite());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod extractor;
mod fisher;
mod head;
mod kernel;
mod linear;
pub mod loss;
mod sgd;

pub use extractor::FrozenExtractor;
pub use fisher::FisherDiagonal;
pub use head::{Forward, Gradients, MlpHead};
pub use kernel::Kernel;
pub use linear::Linear;
pub use sgd::Sgd;
