//! The frozen half of the model, computed once and shared.

use std::sync::{Arc, OnceLock};

use chameleon_nn::FrozenExtractor;
use chameleon_stream::DomainIlScenario;
use chameleon_tensor::Matrix;

use crate::{Chameleon, EvalReport, ModelConfig, Strategy};

/// Everything frozen about the learners of one scenario: the model
/// configuration, the extractor `f_θ` (built once, shared through an
/// [`Arc`]), and `f_θ`'s image of the scenario's test set, computed on
/// the first [`FrozenModel::evaluate`] and never again.
///
/// The paper trains only `g_φ`; nothing writes to `f_θ` after
/// construction, so one copy serves every learner built around
/// [`FrozenModel::extractor`], and evaluating one runs only its head.
/// The cached latents are the rows `f_θ` produces inside
/// [`Strategy::logits`](crate::Strategy::logits), so the report is
/// bit-identical to [`EvalReport::evaluate`].
#[derive(Debug)]
pub struct FrozenModel {
    scenario: Arc<DomainIlScenario>,
    model: ModelConfig,
    extractor: Arc<FrozenExtractor>,
    test_latents: OnceLock<Matrix>,
}

impl FrozenModel {
    /// Builds the model configuration and the extractor for `scenario`;
    /// the test-set latents wait for the first evaluation.
    pub fn new(scenario: Arc<DomainIlScenario>) -> Self {
        let model = ModelConfig::for_spec(scenario.spec());
        Self {
            extractor: Arc::new(model.build_extractor()),
            model,
            scenario,
            test_latents: OnceLock::new(),
        }
    }

    /// The scenario the test-set latents are taken from.
    pub fn scenario(&self) -> &Arc<DomainIlScenario> {
        &self.scenario
    }

    /// The model configuration every learner here is built with.
    pub fn model(&self) -> &ModelConfig {
        &self.model
    }

    /// The shared extractor; hand a clone to
    /// [`Chameleon::with_extractor`].
    pub fn extractor(&self) -> &Arc<FrozenExtractor> {
        &self.extractor
    }

    /// The test-set latents, if an evaluation has computed them yet.
    pub fn cached_test_latents(&self) -> Option<&Matrix> {
        self.test_latents.get()
    }

    /// Evaluates `learner` on the scenario's test set by running its head
    /// over the cached test-set latents (the first call computes them).
    ///
    /// # Panics
    ///
    /// Panics unless `learner` was built around [`Self::extractor`]:
    /// latents from any other `f_θ` would score a different model.
    pub fn evaluate(&self, learner: &Chameleon) -> EvalReport {
        assert!(
            Arc::ptr_eq(learner.extractor(), &self.extractor),
            "learner built around another extractor"
        );
        let latents = self
            .test_latents
            .get_or_init(|| self.extractor.extract_batch(self.scenario.test_set().0));
        EvalReport::from_logits(
            &self.scenario,
            &learner.head_logits(latents),
            learner.memory_overhead_mb(),
        )
    }
}
