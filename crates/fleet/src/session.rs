//! One user's continual-learning session: learner + dual-memory state +
//! stream cursor, advanced batch by batch.

use std::sync::Arc;

use chameleon_core::{
    Chameleon, ChameleonConfig, EvalReport, FrozenModel, StepTrace, Strategy, StreamPosition,
    StreamStepper,
};
use chameleon_faults::{FaultInjector, FaultPlan};
use chameleon_runtime::splitmix64;
use chameleon_stream::{DomainIlScenario, StreamConfig};

/// Identifier of a user session, unique within a fleet.
pub type SessionId = u64;

/// Everything needed to (re)build one user's session deterministically.
#[derive(Clone, Debug, PartialEq)]
pub struct SessionSpec {
    /// Chameleon hyperparameters of this user's private learner.
    pub learner: ChameleonConfig,
    /// Stream shaping — per-user preference skew lives here.
    pub stream: StreamConfig,
    /// Seed of the learner's head init and sampling RNG.
    pub learner_seed: u64,
    /// Base seed of the user's domain streams (each domain's seed is
    /// derived from it by [`StreamStepper`], as for a `Trainer` run).
    pub stream_seed: u64,
}

impl SessionSpec {
    /// Checks the learner and stream configs: what admission checks of
    /// every session, created or imported.
    pub(crate) fn check(&self) -> Result<(), String> {
        self.learner
            .validate()
            .map_err(|e| format!("invalid learner config: {e}"))?;
        self.stream
            .validate()
            .map_err(|e| format!("invalid stream config: {e}"))
    }
}

/// Mixes a fleet-wide fault plan down to one session's private plan.
///
/// Each session gets independently seeded fault RNG streams (splitmix64
/// over the session id), so per-session fault sequences do not depend on
/// how sessions are interleaved across shards — the key to the fleet's
/// determinism contract. Exposed so solo reference runs (and the
/// determinism tests) can reproduce a fleet session exactly.
pub fn session_fault_plan(base: &FaultPlan, session: SessionId) -> FaultPlan {
    FaultPlan {
        seed: base.seed ^ splitmix64(session),
        ..*base
    }
}

/// The session's private injector for a fleet-wide plan; a no-op plan
/// wires none (bit-identical to `None`).
fn session_injector(fleet_faults: Option<&FaultPlan>, id: SessionId) -> Option<FaultInjector> {
    fleet_faults
        .filter(|plan| !plan.is_noop())
        .map(|plan| FaultInjector::new(session_fault_plan(plan, id)))
}

/// One resident user session: a `(Strategy, dual-memory state, stream
/// cursor)` triple that can be advanced one batch at a time, suspended,
/// checkpointed, and resumed.
///
/// The session's [`StreamStepper`] is the one a `Trainer` run drives, so
/// a fleet-hosted session is bit-identical to a solo
/// `Trainer::run`/`run_with_faults` over the same scenario and spec.
#[derive(Debug)]
pub struct UserSession {
    id: SessionId,
    spec: SessionSpec,
    /// The scenario, its `f_θ` and its test-set latents: shared by every
    /// session of one engine, private to a session built by [`Self::new`].
    frozen: Arc<FrozenModel>,
    learner: Chameleon,
    injector: Option<FaultInjector>,
    stream: StreamStepper,
}

impl UserSession {
    /// Creates a fresh session at the start of its stream.
    ///
    /// `fleet_faults` is the fleet-wide plan; the session derives its
    /// private plan via [`session_fault_plan`]. A no-op plan wires no
    /// injector (bit-identical to `None`). The session gets a
    /// [`FrozenModel`] of its own; a fleet engine's sessions share one.
    ///
    /// # Panics
    ///
    /// Panics if the spec's learner or stream config is invalid for the
    /// scenario.
    pub fn new(
        id: SessionId,
        spec: SessionSpec,
        scenario: Arc<DomainIlScenario>,
        fleet_faults: Option<&FaultPlan>,
    ) -> Self {
        Self::create(id, spec, Arc::new(FrozenModel::new(scenario)), fleet_faults)
    }

    /// [`Self::new`] around a given [`FrozenModel`]: the path every
    /// session takes, and the one a shard calls with its engine's.
    pub(crate) fn create(
        id: SessionId,
        spec: SessionSpec,
        frozen: Arc<FrozenModel>,
        fleet_faults: Option<&FaultPlan>,
    ) -> Self {
        let learner = Chameleon::with_extractor(
            Arc::clone(frozen.extractor()),
            frozen.model(),
            spec.learner.clone(),
            spec.learner_seed,
            None,
        )
        .expect("a fresh learner reads no checkpoint");
        Self::from_parts(
            id,
            spec,
            frozen,
            learner,
            fleet_faults,
            StreamPosition::default(),
        )
    }

    /// Session identifier.
    pub fn id(&self) -> SessionId {
        self.id
    }

    /// The session's rebuild spec.
    pub fn spec(&self) -> &SessionSpec {
        &self.spec
    }

    /// Whether the whole stream has been consumed and the learner
    /// finalized.
    pub fn is_done(&self) -> bool {
        self.stream.position().finalized
    }

    /// Index of the domain currently streaming (or next to stream).
    pub fn current_domain(&self) -> usize {
        self.stream.position().next_domain
    }

    /// Batches already delivered within the current domain.
    pub fn batches_into_domain(&self) -> u64 {
        self.stream.position().batches_into_domain
    }

    /// The frozen model this session evaluates with.
    #[cfg(test)]
    pub(crate) fn frozen(&self) -> &Arc<FrozenModel> {
        &self.frozen
    }

    /// The hosted learner (inspection / fault-injection hooks for tests).
    pub fn learner(&self) -> &Chameleon {
        &self.learner
    }

    /// Mutable access to the hosted learner (test hooks only; mutating
    /// mid-stream voids the determinism contract).
    pub fn learner_mut(&mut self) -> &mut Chameleon {
        &mut self.learner
    }

    /// Accumulated operation trace of the learner.
    pub fn trace(&self) -> StepTrace {
        self.learner.trace()
    }

    /// Nominal resident footprint of the session's replay stores, in
    /// bytes — what shard session-memory budgets are accounted against.
    pub fn resident_bytes(&self) -> u64 {
        (self.learner.memory_overhead_mb() * 1024.0 * 1024.0).ceil() as u64
    }

    /// Bytes the latent codec saves for this session versus the nominal
    /// (unquantized) pricing of the same stores — zero for `F32`/`F16`
    /// sessions, roughly half the nominal footprint for `Int8`.
    pub fn codec_bytes_saved(&self) -> u64 {
        let nominal = (self
            .learner
            .memory_overhead_mb_at(chameleon_core::Precision::F32)
            * 1024.0
            * 1024.0)
            .ceil() as u64;
        nominal.saturating_sub(self.resident_bytes())
    }

    /// Advances the session by at most one stream batch. Returns `false`
    /// once the stream is exhausted and the learner finalized; further
    /// calls are no-ops.
    pub fn step_batch(&mut self) -> bool {
        self.stream.step_batch(
            self.frozen.scenario(),
            &mut self.learner,
            self.injector.as_mut(),
        )
    }

    /// Advances by up to `batches` stream batches; returns how many were
    /// actually delivered (fewer when the stream ends).
    pub fn step_batches(&mut self, batches: usize) -> usize {
        let mut done = 0;
        for _ in 0..batches {
            if !self.step_batch() {
                break;
            }
            done += 1;
        }
        done
    }

    /// Evaluates the learner on the scenario's all-domain test set: its
    /// head over the test-set latents of the session's [`FrozenModel`],
    /// bit-identical to [`EvalReport::evaluate`].
    pub fn evaluate(&self) -> EvalReport {
        self.frozen.evaluate(&self.learner)
    }

    pub(crate) fn parts_for_checkpoint(&self) -> (&Chameleon, StreamPosition) {
        (&self.learner, self.stream.position())
    }

    /// Assembles a session from a learner and its stream position; the
    /// stream resumes exactly there ([`StreamStepper::resume`]).
    pub(crate) fn from_parts(
        id: SessionId,
        spec: SessionSpec,
        frozen: Arc<FrozenModel>,
        learner: Chameleon,
        fleet_faults: Option<&FaultPlan>,
        at: StreamPosition,
    ) -> Self {
        let stream =
            StreamStepper::resume(frozen.scenario(), spec.stream.clone(), spec.stream_seed, at);
        Self {
            id,
            spec,
            frozen,
            learner,
            injector: session_injector(fleet_faults, id),
            stream,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::SessionCheckpoint;
    use chameleon_core::{ModelConfig, Precision, Trainer};
    use chameleon_stream::DatasetSpec;

    fn tiny_scenario() -> Arc<DomainIlScenario> {
        Arc::new(DomainIlScenario::generate(
            &DatasetSpec::core50_tiny(),
            0xDA7A,
        ))
    }

    fn tiny_spec(stream_seed: u64) -> SessionSpec {
        SessionSpec {
            learner: ChameleonConfig {
                long_term_capacity: 30,
                ..ChameleonConfig::default()
            },
            stream: StreamConfig::default(),
            learner_seed: 5,
            stream_seed,
        }
    }

    #[test]
    fn session_matches_sequential_trainer_bit_for_bit() {
        let scenario = tiny_scenario();
        let spec = tiny_spec(9);
        let mut session = UserSession::new(1, spec.clone(), Arc::clone(&scenario), None);
        while session.step_batch() {}
        assert!(session.is_done());

        let model = ModelConfig::for_spec(scenario.spec());
        let mut solo = Chameleon::new(&model, spec.learner.clone(), spec.learner_seed);
        let solo_report = Trainer::new(spec.stream).run(&scenario, &mut solo, spec.stream_seed);

        assert_eq!(session.evaluate(), solo_report);
        assert_eq!(session.trace(), solo.trace());
    }

    #[test]
    fn session_with_faults_matches_solo_faulted_run() {
        let scenario = tiny_scenario();
        let spec = tiny_spec(3);
        let plan = FaultPlan::bit_flips(77, 1e-4);
        let mut session = UserSession::new(4, spec.clone(), Arc::clone(&scenario), Some(&plan));
        while session.step_batch() {}

        let model = ModelConfig::for_spec(scenario.spec());
        let mut solo = Chameleon::new(&model, spec.learner.clone(), spec.learner_seed);
        let mut injector = FaultInjector::new(session_fault_plan(&plan, 4));
        let solo_report = Trainer::new(spec.stream).run_with_faults(
            &scenario,
            &mut solo,
            spec.stream_seed,
            &mut injector,
        );

        assert_eq!(session.evaluate(), solo_report);
        assert_eq!(session.learner().resilience(), solo.resilience());
    }

    #[test]
    fn cached_evaluation_is_the_full_extraction_bit_for_bit() {
        // The right-hand side runs the learner's own `Strategy::logits`:
        // f_θ over the raw test set, then the head. Int8 takes the
        // chunked head kernel on both sides.
        let scenario = tiny_scenario();
        let uncached = |session: &UserSession| EvalReport::evaluate(&scenario, session.learner());
        let plan = FaultPlan::bit_flips(77, 1e-4);
        for precision in [Precision::F32, Precision::F16, Precision::Int8] {
            let mut spec = tiny_spec(2);
            spec.learner.precision = precision;
            for faults in [None, Some(&plan)] {
                let at = format!("{precision}, faults {}", faults.is_some());
                let mut session = UserSession::new(3, spec.clone(), Arc::clone(&scenario), faults);
                assert_eq!(session.evaluate(), uncached(&session), "fresh, {at}");
                session.step_batches(17);
                assert_eq!(session.evaluate(), uncached(&session), "stepped, {at}");
                let checkpoint = SessionCheckpoint::capture(&session);
                let mut restored = checkpoint
                    .restore(Arc::clone(&scenario), faults)
                    .expect("restore");
                assert_eq!(restored.evaluate(), uncached(&restored), "restored, {at}");
                assert_eq!(
                    restored.evaluate(),
                    session.evaluate(),
                    "restore moved, {at}"
                );
                // The shard path: restored around the session's own model.
                let mut shared = checkpoint
                    .restore_with(Arc::clone(session.frozen()), faults)
                    .expect("restore");
                assert!(Arc::ptr_eq(
                    shared.learner().extractor(),
                    session.learner().extractor()
                ));
                restored.step_batches(9);
                shared.step_batches(9);
                assert_eq!(restored.evaluate(), uncached(&restored), "stepped on, {at}");
                assert_eq!(
                    shared.evaluate(),
                    restored.evaluate(),
                    "shared restore, {at}"
                );
            }
        }
    }

    #[test]
    fn step_batches_counts_deliveries_and_stops_at_end() {
        let scenario = tiny_scenario();
        let mut session = UserSession::new(0, tiny_spec(1), scenario, None);
        // core50-tiny: 4 domains × 12 batches of 10.
        assert_eq!(session.step_batches(20), 20);
        assert_eq!(session.current_domain(), 1);
        assert_eq!(session.step_batches(1000), 28);
        assert!(session.is_done());
        assert_eq!(session.step_batches(5), 0);
    }

    #[test]
    fn per_session_fault_plans_are_distinct_but_deterministic() {
        let base = FaultPlan::bit_flips(1, 1e-5);
        assert_ne!(
            session_fault_plan(&base, 0).seed,
            session_fault_plan(&base, 1).seed
        );
        assert_eq!(session_fault_plan(&base, 7), session_fault_plan(&base, 7));
        assert_eq!(session_fault_plan(&base, 7).memory, base.memory);
    }

    #[test]
    fn resident_bytes_tracks_store_capacity() {
        let scenario = tiny_scenario();
        let small = UserSession::new(0, tiny_spec(1), Arc::clone(&scenario), None);
        let mut big_spec = tiny_spec(1);
        big_spec.learner.long_term_capacity = 300;
        let big = UserSession::new(1, big_spec, scenario, None);
        assert!(big.resident_bytes() > small.resident_bytes());
    }
}
