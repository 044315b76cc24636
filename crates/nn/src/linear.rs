//! Fully-connected layer with explicit forward/backward.

use chameleon_tensor::{Matrix, Prng};

/// A dense affine layer `y = x · Wᵀ + b`.
///
/// Weights are stored as an `out × in` matrix so a batch forward pass is a
/// single `matmul_nt`. The layer itself is stateless across calls — the
/// input needed for the backward pass is carried by the caller (see
/// [`MlpHead`](crate::MlpHead)), which keeps the layer trivially `Clone`
/// for strategies that snapshot old models (LwF, DER teacher logits).
#[derive(Clone, Debug, PartialEq)]
pub struct Linear {
    weight: Matrix,
    bias: Vec<f32>,
}

impl Linear {
    /// Creates a layer with Kaiming/He-style `N(0, 2/fan_in)` weights and
    /// zero bias.
    ///
    /// # Panics
    ///
    /// Panics if either dimension is zero.
    pub fn new(in_features: usize, out_features: usize, rng: &mut Prng) -> Self {
        assert!(
            in_features > 0 && out_features > 0,
            "layer dimensions must be non-zero"
        );
        let scale = (2.0 / in_features as f32).sqrt();
        let mut weight = Matrix::randn(out_features, in_features, rng);
        weight.scale(scale);
        Self {
            weight,
            bias: vec![0.0; out_features],
        }
    }

    /// Input feature count.
    pub fn in_features(&self) -> usize {
        self.weight.cols()
    }

    /// Output feature count.
    pub fn out_features(&self) -> usize {
        self.weight.rows()
    }

    /// Borrow the weight matrix (`out × in`).
    pub fn weight(&self) -> &Matrix {
        &self.weight
    }

    /// Borrow the bias vector.
    pub fn bias(&self) -> &[f32] {
        &self.bias
    }

    /// Total trainable parameter count (`out·in + out`).
    pub fn parameter_count(&self) -> usize {
        self.weight.rows() * self.weight.cols() + self.bias.len()
    }

    /// Forward pass: `x` is `batch × in`, returns `batch × out`.
    ///
    /// # Panics
    ///
    /// Panics if `x.cols() != self.in_features()`.
    pub fn forward(&self, x: &Matrix) -> Matrix {
        self.forward_with(x, crate::Kernel::Scalar)
    }

    /// Forward pass through an explicit kernel path (see
    /// [`Kernel`](crate::Kernel) for when the chunked path is legal).
    ///
    /// # Panics
    ///
    /// Panics if `x.cols() != self.in_features()`.
    pub fn forward_with(&self, x: &Matrix, kernel: crate::Kernel) -> Matrix {
        let mut y = match kernel {
            crate::Kernel::Scalar => x.matmul_nt(&self.weight),
            crate::Kernel::Chunked => chameleon_tensor::kernels::matmul_nt_chunked(x, &self.weight),
        };
        y.add_row_broadcast(&self.bias);
        y
    }

    /// Backward pass. Given the layer input `x` and upstream gradient `dy`
    /// (`batch × out`), returns `(dx, dw, db)`.
    ///
    /// # Panics
    ///
    /// Panics on shape mismatches between `x`, `dy`, and the layer.
    pub fn backward(&self, x: &Matrix, dy: &Matrix) -> (Matrix, Matrix, Vec<f32>) {
        assert_eq!(x.rows(), dy.rows(), "batch size mismatch in backward");
        assert_eq!(
            dy.cols(),
            self.out_features(),
            "dy width must equal out_features"
        );
        let dx = dy.matmul(&self.weight);
        let dw = dy.matmul_tn(x);
        let db = dy.sum_rows();
        (dx, dw, db)
    }

    /// Applies a raw gradient step `W -= lr·dW`, `b -= lr·db` (weight
    /// decay lives in [`Sgd`](crate::Sgd)).
    ///
    /// # Panics
    ///
    /// Panics on shape mismatches.
    pub fn apply_raw(&mut self, dw: &Matrix, db: &[f32], lr: f32) {
        self.weight.axpy(-lr, dw);
        assert_eq!(db.len(), self.bias.len(), "db length mismatch");
        for (b, &g) in self.bias.iter_mut().zip(db) {
            *b -= lr * g;
        }
    }

    /// Flattens parameters into `out` (weights row-major, then bias).
    pub fn write_params(&self, out: &mut Vec<f32>) {
        out.extend_from_slice(self.weight.as_slice());
        out.extend_from_slice(&self.bias);
    }

    /// Reads parameters back from a flat slice; returns the number consumed.
    ///
    /// # Panics
    ///
    /// Panics if `flat` is shorter than [`Self::parameter_count`].
    pub fn read_params(&mut self, flat: &[f32]) -> usize {
        let wn = self.weight.rows() * self.weight.cols();
        let total = wn + self.bias.len();
        assert!(flat.len() >= total, "flat parameter slice too short");
        self.weight.as_mut_slice().copy_from_slice(&flat[..wn]);
        self.bias.copy_from_slice(&flat[wn..total]);
        total
    }

    /// Forward MAC count for a batch of `n` rows.
    pub fn forward_macs(&self, n: usize) -> u64 {
        (n * self.weight.rows() * self.weight.cols()) as u64
    }

    /// Backward MAC count for a batch of `n` rows (dx + dw passes).
    pub fn backward_macs(&self, n: usize) -> u64 {
        2 * self.forward_macs(n)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn forward_shape_and_bias() {
        let mut rng = Prng::new(0);
        let mut layer = Linear::new(3, 2, &mut rng);
        // Zero the weights; output should equal the bias broadcast.
        layer.weight.scale(0.0);
        layer.bias = vec![1.0, -1.0];
        let x = Matrix::filled(4, 3, 5.0);
        let y = layer.forward(&x);
        assert_eq!((y.rows(), y.cols()), (4, 2));
        for r in 0..4 {
            assert_eq!(y.row(r), &[1.0, -1.0]);
        }
    }

    #[test]
    fn backward_gradients_match_finite_differences() {
        let mut rng = Prng::new(1);
        let layer = Linear::new(4, 3, &mut rng);
        let x = Matrix::randn(2, 4, &mut rng);

        // Scalar objective: sum of outputs. Then dy = ones and analytic
        // dW[r][c] = Σ_batch x[b][c], db[r] = batch size.
        let dy = Matrix::filled(2, 3, 1.0);
        let (dx, dw, db) = layer.backward(&x, &dy);

        let col_sums = {
            let mut s = vec![0.0f32; 4];
            for r in 0..2 {
                for (c, &v) in x.row(r).iter().enumerate() {
                    s[c] += v;
                }
            }
            s
        };
        for r in 0..3 {
            for (c, &want) in col_sums.iter().enumerate() {
                assert!((dw.get(r, c) - want).abs() < 1e-5);
            }
        }
        assert!(db.iter().all(|&g| (g - 2.0).abs() < 1e-6));
        // dx = dy · W = column sums of W rows.
        for b in 0..2 {
            for c in 0..4 {
                let want: f32 = (0..3).map(|r| layer.weight.get(r, c)).sum();
                assert!((dx.get(b, c) - want).abs() < 1e-5);
            }
        }
    }

    #[test]
    fn numeric_gradient_check_on_loss() {
        // Full finite-difference check of dL/dW for L = 0.5 * Σ y².
        let mut rng = Prng::new(2);
        let layer = Linear::new(3, 2, &mut rng);
        let x = Matrix::randn(2, 3, &mut rng);

        let loss = |l: &Linear| -> f32 {
            let y = l.forward(&x);
            0.5 * y.as_slice().iter().map(|v| v * v).sum::<f32>()
        };
        let y = layer.forward(&x);
        let (_, dw, db) = layer.backward(&x, &y); // dL/dy = y

        let eps = 1e-3;
        #[allow(clippy::needless_range_loop)]
        for r in 0..2 {
            for c in 0..3 {
                let mut plus = layer.clone();
                plus.weight.set(r, c, plus.weight.get(r, c) + eps);
                let mut minus = layer.clone();
                minus.weight.set(r, c, minus.weight.get(r, c) - eps);
                let numeric = (loss(&plus) - loss(&minus)) / (2.0 * eps);
                assert!(
                    (numeric - dw.get(r, c)).abs() < 2e-2,
                    "dW[{r}][{c}] numeric {numeric} analytic {}",
                    dw.get(r, c)
                );
            }
            let mut plus = layer.clone();
            plus.bias[r] += eps;
            let mut minus = layer.clone();
            minus.bias[r] -= eps;
            let numeric = (loss(&plus) - loss(&minus)) / (2.0 * eps);
            assert!((numeric - db[r]).abs() < 2e-2);
        }
    }

    #[test]
    fn params_roundtrip() {
        let mut rng = Prng::new(3);
        let layer = Linear::new(5, 4, &mut rng);
        let mut flat = Vec::new();
        layer.write_params(&mut flat);
        assert_eq!(flat.len(), layer.parameter_count());
        let mut copy = Linear::new(5, 4, &mut rng);
        let consumed = copy.read_params(&flat);
        assert_eq!(consumed, flat.len());
        assert_eq!(copy, layer);
    }

    #[test]
    fn apply_raw_moves_against_gradient() {
        let mut rng = Prng::new(4);
        let mut layer = Linear::new(2, 2, &mut rng);
        let before = layer.weight.get(0, 0);
        let dw = Matrix::filled(2, 2, 1.0);
        layer.apply_raw(&dw, &[0.0, 0.0], 0.5);
        assert!((layer.weight.get(0, 0) - (before - 0.5)).abs() < 1e-6);
    }

    #[test]
    fn mac_counts() {
        let mut rng = Prng::new(5);
        let layer = Linear::new(10, 7, &mut rng);
        assert_eq!(layer.forward_macs(3), 3 * 10 * 7);
        assert_eq!(layer.backward_macs(3), 2 * 3 * 10 * 7);
    }
}
