//! The trainable classifier head `g_φ`.

use chameleon_tensor::{Matrix, Prng};

use crate::{Kernel, Linear, Sgd};

/// The trainable head `g_φ` mapping latent activations to class logits —
/// the only part of the network that learns online, exactly as in the paper
/// (the MobileNetV1 trunk below layer 21 stays frozen).
///
/// The head is a stack of [`Linear`] layers with ReLU between them (none
/// after the last). A single-layer head (`&[latent_dim, classes]`) is the
/// default configuration used in the experiments; deeper heads are supported
/// for ablations.
///
/// # Example
///
/// ```
/// use chameleon_nn::MlpHead;
/// use chameleon_tensor::{Matrix, Prng};
///
/// let mut rng = Prng::new(0);
/// let head = MlpHead::new(&[16, 32, 10], &mut rng);
/// let x = Matrix::randn(4, 16, &mut rng);
/// let logits = head.logits(&x);
/// assert_eq!((logits.rows(), logits.cols()), (4, 10));
/// ```
#[derive(Clone, Debug, PartialEq)]
pub struct MlpHead {
    layers: Vec<Linear>,
    /// Hot-path implementation for forward matmuls. Not a learnable
    /// quantity — it changes rounding order, so it is part of a run's
    /// determinism configuration, selected once from the precision knob.
    kernel: Kernel,
}

/// Cached activations from a forward pass, needed for the backward pass.
///
/// `inputs[i]` is the input to layer `i` *after* the preceding ReLU; the
/// final entry of `post` is the logits.
#[derive(Clone, Debug)]
pub struct Forward {
    /// Input to each layer (post-activation of the previous one).
    inputs: Vec<Matrix>,
    /// Pre-activation output of each layer.
    pre: Vec<Matrix>,
}

impl Forward {
    /// The network output (logits of the last layer).
    pub fn logits(&self) -> &Matrix {
        self.pre
            .last()
            .expect("forward pass has at least one layer")
    }
}

/// Per-layer gradients produced by [`MlpHead::backward`].
#[derive(Clone, Debug)]
pub struct Gradients {
    /// `(dW, db)` for each layer, in layer order.
    pub per_layer: Vec<(Matrix, Vec<f32>)>,
}

impl Gradients {
    /// Flattens all gradients into a single vector, matching the layout of
    /// [`MlpHead::parameters`]. Used by GSS (gradient-direction buffer
    /// scores) and EWC++ (Fisher accumulation).
    pub fn to_flat(&self) -> Vec<f32> {
        let mut out = Vec::new();
        for (dw, db) in &self.per_layer {
            out.extend_from_slice(dw.as_slice());
            out.extend_from_slice(db);
        }
        out
    }

    /// Scales every gradient in place.
    pub fn scale(&mut self, alpha: f32) {
        for (dw, db) in &mut self.per_layer {
            dw.scale(alpha);
            for g in db.iter_mut() {
                *g *= alpha;
            }
        }
    }

    /// Accumulates `alpha * other` into `self`.
    ///
    /// # Panics
    ///
    /// Panics if the layer structures differ.
    pub fn axpy(&mut self, alpha: f32, other: &Gradients) {
        assert_eq!(
            self.per_layer.len(),
            other.per_layer.len(),
            "layer count mismatch"
        );
        for ((dw, db), (odw, odb)) in self.per_layer.iter_mut().zip(&other.per_layer) {
            dw.axpy(alpha, odw);
            for (g, &og) in db.iter_mut().zip(odb) {
                *g += alpha * og;
            }
        }
    }
}

impl MlpHead {
    /// Creates a head from a dimension chain `[in, hidden…, classes]`.
    ///
    /// # Panics
    ///
    /// Panics if fewer than two dimensions are given or any is zero.
    pub fn new(dims: &[usize], rng: &mut Prng) -> Self {
        assert!(dims.len() >= 2, "head needs at least [input, output] dims");
        let layers = dims
            .windows(2)
            .map(|w| Linear::new(w[0], w[1], rng))
            .collect();
        Self {
            layers,
            kernel: Kernel::Scalar,
        }
    }

    /// The kernel path this head's forward passes run through.
    pub fn kernel(&self) -> Kernel {
        self.kernel
    }

    /// Selects the kernel path (see [`Kernel`] for the determinism
    /// contract). Does not affect parameters or gradients' layout, only
    /// the reduction order of forward matmuls.
    pub fn set_kernel(&mut self, kernel: Kernel) {
        self.kernel = kernel;
    }

    /// Input (latent) dimension.
    pub fn in_features(&self) -> usize {
        self.layers[0].in_features()
    }

    /// Output (class) dimension.
    pub fn num_classes(&self) -> usize {
        self.layers
            .last()
            .expect("at least one layer")
            .out_features()
    }

    /// Total trainable parameter count.
    pub fn parameter_count(&self) -> usize {
        self.layers.iter().map(Linear::parameter_count).sum()
    }

    /// Number of layers.
    pub fn num_layers(&self) -> usize {
        self.layers.len()
    }

    /// Inference-only forward pass returning logits: the layer calls of
    /// [`Self::forward`], keeping nothing for a backward pass.
    ///
    /// # Panics
    ///
    /// Panics if `x.cols() != self.in_features()`.
    pub fn logits(&self, x: &Matrix) -> Matrix {
        let (last, hidden) = self.layers.split_last().expect("at least one layer");
        let mut act: Option<Matrix> = None;
        for layer in hidden {
            let mut y = layer.forward_with(act.as_ref().unwrap_or(x), self.kernel);
            relu(&mut y);
            act = Some(y);
        }
        last.forward_with(act.as_ref().unwrap_or(x), self.kernel)
    }

    /// Forward pass that caches activations for [`Self::backward`].
    ///
    /// # Panics
    ///
    /// Panics if `x.cols() != self.in_features()`.
    pub fn forward(&self, x: &Matrix) -> Forward {
        let mut inputs = Vec::with_capacity(self.layers.len());
        let mut pre = Vec::with_capacity(self.layers.len());
        inputs.push(x.clone());
        for (i, layer) in self.layers.iter().enumerate() {
            let y = layer.forward_with(&inputs[i], self.kernel);
            if i + 1 < self.layers.len() {
                let mut act = y.clone();
                relu(&mut act);
                inputs.push(act);
            }
            pre.push(y);
        }
        Forward { inputs, pre }
    }

    /// Backward pass from a logit gradient, producing per-layer gradients.
    ///
    /// # Panics
    ///
    /// Panics if `dlogits` does not match the forward batch/logit shape.
    pub fn backward(&self, fwd: &Forward, dlogits: &Matrix) -> Gradients {
        assert_eq!(
            fwd.inputs.len(),
            self.layers.len(),
            "forward/head layer mismatch"
        );
        let mut per_layer = vec![None; self.layers.len()];
        let mut upstream = dlogits.clone();
        for i in (0..self.layers.len()).rev() {
            let (dx, dw, db) = self.layers[i].backward(&fwd.inputs[i], &upstream);
            per_layer[i] = Some((dw, db));
            if i > 0 {
                // Gate through the ReLU that fed this layer: derivative is
                // 1 where the pre-activation of layer i-1 was positive.
                let mut gated = dx;
                for (g, &p) in gated
                    .as_mut_slice()
                    .iter_mut()
                    .zip(fwd.pre[i - 1].as_slice())
                {
                    if p <= 0.0 {
                        *g = 0.0;
                    }
                }
                upstream = gated;
            }
        }
        Gradients {
            per_layer: per_layer
                .into_iter()
                .map(|g| g.expect("filled above"))
                .collect(),
        }
    }

    /// Applies gradients through the optimizer.
    ///
    /// # Panics
    ///
    /// Panics if the gradient structure does not match the head.
    pub fn apply(&mut self, grads: &Gradients, sgd: &mut Sgd) {
        assert_eq!(
            grads.per_layer.len(),
            self.layers.len(),
            "gradient/layer mismatch"
        );
        for (layer, (dw, db)) in self.layers.iter_mut().zip(&grads.per_layer) {
            sgd.step(layer, dw, db);
        }
    }

    /// Flattened parameter vector (layer order, weights then bias per layer).
    pub fn parameters(&self) -> Vec<f32> {
        let mut out = Vec::with_capacity(self.parameter_count());
        for layer in &self.layers {
            layer.write_params(&mut out);
        }
        out
    }

    /// Restores parameters from a flat vector produced by
    /// [`Self::parameters`].
    ///
    /// # Panics
    ///
    /// Panics if `flat.len() != self.parameter_count()`.
    pub fn set_parameters(&mut self, flat: &[f32]) {
        assert_eq!(
            flat.len(),
            self.parameter_count(),
            "parameter vector length mismatch"
        );
        let mut offset = 0;
        for layer in &mut self.layers {
            offset += layer.read_params(&flat[offset..]);
        }
    }

    /// Convenience: per-sample gradient (flat) of the cross-entropy loss,
    /// without updating the model. Used by GSS.
    pub fn sample_gradient(&self, latent: &[f32], label: usize) -> Vec<f32> {
        let x = Matrix::from_vec(1, latent.len(), latent.to_vec());
        let fwd = self.forward(&x);
        let (_, dlogits) = crate::loss::softmax_cross_entropy(fwd.logits(), &[label]);
        self.backward(&fwd, &dlogits).to_flat()
    }

    /// Forward MAC count for a batch of `n` rows.
    pub fn forward_macs(&self, n: usize) -> u64 {
        self.layers.iter().map(|l| l.forward_macs(n)).sum()
    }

    /// Backward MAC count for a batch of `n` rows.
    pub fn backward_macs(&self, n: usize) -> u64 {
        self.layers.iter().map(|l| l.backward_macs(n)).sum()
    }
}

/// The ReLU between layers, in place.
fn relu(m: &mut Matrix) {
    for v in m.as_mut_slice() {
        if *v < 0.0 {
            *v = 0.0;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::loss;

    #[test]
    fn logits_shape() {
        let mut rng = Prng::new(0);
        let head = MlpHead::new(&[6, 12, 5], &mut rng);
        let x = Matrix::randn(3, 6, &mut rng);
        let y = head.logits(&x);
        assert_eq!((y.rows(), y.cols()), (3, 5));
        assert_eq!(head.num_classes(), 5);
        assert_eq!(head.in_features(), 6);
        assert_eq!(head.num_layers(), 2);
    }

    #[test]
    fn logits_are_the_forward_pass_logits_bit_for_bit() {
        let mut rng = Prng::new(4);
        for dims in [&[6, 5][..], &[6, 12, 9, 5][..]] {
            for kernel in [Kernel::Scalar, Kernel::Chunked] {
                let mut head = MlpHead::new(dims, &mut rng);
                head.set_kernel(kernel);
                let x = Matrix::randn(7, 6, &mut rng);
                assert_eq!(&head.logits(&x), head.forward(&x).logits(), "{dims:?}");
            }
        }
    }

    #[test]
    fn training_reduces_loss_on_fixed_batch() {
        let mut rng = Prng::new(1);
        let mut head = MlpHead::new(&[8, 4], &mut rng);
        let mut sgd = Sgd::new(0.5);
        let x = Matrix::randn(16, 8, &mut rng);
        let labels: Vec<usize> = (0..16).map(|i| i % 4).collect();

        let initial = {
            let fwd = head.forward(&x);
            loss::softmax_cross_entropy(fwd.logits(), &labels).0
        };
        for _ in 0..50 {
            let fwd = head.forward(&x);
            let (_, dl) = loss::softmax_cross_entropy(fwd.logits(), &labels);
            let grads = head.backward(&fwd, &dl);
            head.apply(&grads, &mut sgd);
        }
        let fin = {
            let fwd = head.forward(&x);
            loss::softmax_cross_entropy(fwd.logits(), &labels).0
        };
        assert!(fin < initial * 0.5, "loss {initial} -> {fin}");
    }

    #[test]
    fn deep_head_training_reduces_loss() {
        let mut rng = Prng::new(2);
        let mut head = MlpHead::new(&[8, 16, 16, 4], &mut rng);
        let mut sgd = Sgd::new(0.2);
        let x = Matrix::randn(12, 8, &mut rng);
        let labels: Vec<usize> = (0..12).map(|i| i % 4).collect();
        let initial = loss::softmax_cross_entropy(head.forward(&x).logits(), &labels).0;
        for _ in 0..200 {
            let fwd = head.forward(&x);
            let (_, dl) = loss::softmax_cross_entropy(fwd.logits(), &labels);
            let grads = head.backward(&fwd, &dl);
            head.apply(&grads, &mut sgd);
        }
        let fin = loss::softmax_cross_entropy(head.forward(&x).logits(), &labels).0;
        assert!(fin < initial * 0.5, "loss {initial} -> {fin}");
    }

    #[test]
    fn backward_matches_finite_difference_through_relu() {
        let mut rng = Prng::new(3);
        let head = MlpHead::new(&[4, 6, 3], &mut rng);
        let x = Matrix::randn(2, 4, &mut rng);
        let labels = [1usize, 2];

        let fwd = head.forward(&x);
        let (_, dl) = loss::softmax_cross_entropy(fwd.logits(), &labels);
        let analytic = head.backward(&fwd, &dl).to_flat();

        let loss_at = |params: &[f32]| -> f32 {
            let mut h = head.clone();
            h.set_parameters(params);
            loss::softmax_cross_entropy(h.forward(&x).logits(), &labels).0
        };
        let base = head.parameters();
        let eps = 1e-3;
        // Spot-check a spread of parameter coordinates.
        for idx in (0..base.len()).step_by(base.len() / 10 + 1) {
            let mut plus = base.clone();
            plus[idx] += eps;
            let mut minus = base.clone();
            minus[idx] -= eps;
            let numeric = (loss_at(&plus) - loss_at(&minus)) / (2.0 * eps);
            assert!(
                (numeric - analytic[idx]).abs() < 3e-2,
                "param {idx}: numeric {numeric} analytic {}",
                analytic[idx]
            );
        }
    }

    #[test]
    fn parameters_roundtrip() {
        let mut rng = Prng::new(4);
        let head = MlpHead::new(&[5, 7, 3], &mut rng);
        let params = head.parameters();
        assert_eq!(params.len(), head.parameter_count());
        let mut other = MlpHead::new(&[5, 7, 3], &mut rng);
        other.set_parameters(&params);
        assert_eq!(other, head);
    }

    #[test]
    fn sample_gradient_has_parameter_layout() {
        let mut rng = Prng::new(5);
        let head = MlpHead::new(&[4, 3], &mut rng);
        let g = head.sample_gradient(&[0.1, -0.2, 0.3, 0.4], 2);
        assert_eq!(g.len(), head.parameter_count());
        assert!(g.iter().any(|&v| v != 0.0));
    }

    #[test]
    fn gradients_scale_and_axpy() {
        let mut rng = Prng::new(6);
        let head = MlpHead::new(&[3, 2], &mut rng);
        let x = Matrix::randn(2, 3, &mut rng);
        let fwd = head.forward(&x);
        let (_, dl) = loss::softmax_cross_entropy(fwd.logits(), &[0, 1]);
        let g1 = head.backward(&fwd, &dl);
        let mut g2 = g1.clone();
        g2.scale(2.0);
        let mut g3 = g1.clone();
        g3.axpy(1.0, &g1);
        for (a, b) in g2.to_flat().iter().zip(g3.to_flat()) {
            assert!((a - b).abs() < 1e-6);
        }
    }

    #[test]
    fn mac_counts_sum_over_layers() {
        let mut rng = Prng::new(7);
        let head = MlpHead::new(&[10, 20, 5], &mut rng);
        assert_eq!(head.forward_macs(2), 2 * (10 * 20 + 20 * 5) as u64);
        assert_eq!(head.backward_macs(2), 2 * head.forward_macs(2));
    }
}
