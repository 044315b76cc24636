//! SGD optimizer with weight decay.

use chameleon_tensor::Matrix;

use crate::Linear;

/// Stochastic gradient descent, the optimizer the paper uses for all
/// experiments (lr = 0.001, batch size 10, single pass). It holds no
/// per-layer state, so one `Sgd` value serves a whole
/// [`MlpHead`](crate::MlpHead) regardless of depth.
///
/// # Example
///
/// ```
/// use chameleon_nn::Sgd;
///
/// let sgd = Sgd::new(0.001).with_weight_decay(1e-4);
/// assert_eq!(sgd.learning_rate(), 0.001);
/// ```
/// A corrupted replay sample (e.g. a memory upset flipping a float's
/// exponent) can push activations to ±∞ and poison the gradients; one such
/// step would destroy the head. `step` therefore rejects any update whose
/// gradients contain NaN/Inf, counting it in [`Sgd::skipped_updates`]
/// instead of applying it.
#[derive(Clone, Debug)]
pub struct Sgd {
    lr: f32,
    weight_decay: f32,
    skipped_updates: u64,
}

impl Sgd {
    /// Creates plain SGD with the given learning rate (no weight decay).
    ///
    /// # Panics
    ///
    /// Panics if `lr <= 0`.
    pub fn new(lr: f32) -> Self {
        assert!(lr > 0.0, "learning rate must be positive");
        Self {
            lr,
            weight_decay: 0.0,
            skipped_updates: 0,
        }
    }

    /// Builder: sets L2 weight decay.
    ///
    /// # Panics
    ///
    /// Panics if `weight_decay < 0`.
    pub fn with_weight_decay(mut self, weight_decay: f32) -> Self {
        assert!(weight_decay >= 0.0, "weight decay must be non-negative");
        self.weight_decay = weight_decay;
        self
    }

    /// Current learning rate.
    pub fn learning_rate(&self) -> f32 {
        self.lr
    }

    /// Applies one step to `layer` with gradients `(dw, db)`.
    ///
    /// # Panics
    ///
    /// Panics if the gradient shapes do not match the layer.
    /// Does nothing (beyond incrementing [`Sgd::skipped_updates`]) when any
    /// gradient entry is NaN or infinite.
    pub fn step(&mut self, layer: &mut Linear, dw: &Matrix, db: &[f32]) {
        let finite =
            dw.as_slice().iter().all(|v| v.is_finite()) && db.iter().all(|v| v.is_finite());
        if !finite {
            self.skipped_updates += 1;
            return;
        }
        let mut dw_eff = dw.clone();
        if self.weight_decay > 0.0 {
            dw_eff.axpy(self.weight_decay, layer.weight());
        }
        let mut db_eff = db.to_vec();
        if self.weight_decay > 0.0 {
            for (g, &b) in db_eff.iter_mut().zip(layer.bias()) {
                *g += self.weight_decay * b;
            }
        }
        layer.apply_raw(&dw_eff, &db_eff, self.lr);
    }

    /// Number of updates rejected because their gradients contained
    /// NaN/Inf values.
    pub fn skipped_updates(&self) -> u64 {
        self.skipped_updates
    }

    /// Overwrites the skipped-update counter — used when restoring a
    /// checkpointed learner so its lifetime resilience counts survive
    /// eviction.
    pub fn restore_skipped_updates(&mut self, count: u64) {
        self.skipped_updates = count;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use chameleon_tensor::Prng;

    fn quadratic_grad(layer: &Linear) -> (Matrix, Vec<f32>) {
        // Gradient of 0.5‖W‖² + 0.5‖b‖² is (W, b): descending should shrink
        // the parameters toward zero.
        (layer.weight().clone(), layer.bias().to_vec())
    }

    #[test]
    fn plain_sgd_shrinks_quadratic() {
        let mut rng = Prng::new(0);
        let mut layer = Linear::new(3, 3, &mut rng);
        let mut sgd = Sgd::new(0.1);
        let initial = layer.weight().frobenius_norm();
        for _ in 0..100 {
            let (dw, db) = quadratic_grad(&layer);
            sgd.step(&mut layer, &dw, &db);
        }
        assert!(layer.weight().frobenius_norm() < initial * 0.01);
    }

    #[test]
    fn weight_decay_pulls_toward_zero_with_zero_gradient() {
        let mut rng = Prng::new(2);
        let mut layer = Linear::new(2, 2, &mut rng);
        let mut sgd = Sgd::new(0.1).with_weight_decay(0.5);
        let initial = layer.weight().frobenius_norm();
        let zero_dw = Matrix::zeros(2, 2);
        let zero_db = vec![0.0; 2];
        for _ in 0..50 {
            sgd.step(&mut layer, &zero_dw, &zero_db);
        }
        assert!(layer.weight().frobenius_norm() < initial * 0.1);
    }

    #[test]
    fn non_finite_gradients_are_skipped_not_applied() {
        let mut rng = Prng::new(4);
        let mut layer = Linear::new(2, 2, &mut rng);
        let mut sgd = Sgd::new(0.1);
        let before = layer.weight().clone();

        let mut bad_dw = Matrix::zeros(2, 2);
        bad_dw.set(0, 1, f32::NAN);
        sgd.step(&mut layer, &bad_dw, &[0.0, 0.0]);
        sgd.step(&mut layer, &Matrix::zeros(2, 2), &[f32::INFINITY, 0.0]);

        assert_eq!(sgd.skipped_updates(), 2);
        assert_eq!(layer.weight().as_slice(), before.as_slice());

        // A clean step afterwards still works.
        let (dw, db) = quadratic_grad(&layer);
        sgd.step(&mut layer, &dw, &db);
        assert_eq!(sgd.skipped_updates(), 2);
        assert!(layer.weight().as_slice().iter().all(|v| v.is_finite()));
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_lr_panics() {
        let _ = Sgd::new(0.0);
    }
}
