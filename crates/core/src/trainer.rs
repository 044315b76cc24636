//! The Domain-IL training/evaluation harness.

use chameleon_faults::FaultInjector;
use chameleon_stream::{DomainIlScenario, StreamConfig};
use chameleon_tensor::stats::MeanStd;

use crate::{EvalReport, StepTrace, Strategy, StreamStepper};

/// Runs the paper's evaluation protocol: stream every domain once, in
/// order, through a strategy ([`StreamStepper`]), then score `Acc_all` on
/// the all-domain test set.
///
/// # Example
///
/// ```
/// use chameleon_core::{Finetune, ModelConfig, Trainer};
/// use chameleon_stream::{DatasetSpec, DomainIlScenario, StreamConfig};
///
/// let spec = DatasetSpec::core50_tiny();
/// let scenario = DomainIlScenario::generate(&spec, 0);
/// let model = ModelConfig::for_spec(&spec);
/// let mut strategy = Finetune::new(&model, 1);
/// let report = Trainer::new(StreamConfig::default()).run(&scenario, &mut strategy, 1);
/// assert!(report.acc_all >= 0.0);
/// ```
#[derive(Clone, Debug)]
pub struct Trainer {
    stream_config: StreamConfig,
}

impl Trainer {
    /// Creates a trainer with the given stream shaping.
    ///
    /// # Panics
    ///
    /// Panics if the stream configuration is invalid.
    pub fn new(stream_config: StreamConfig) -> Self {
        stream_config.assert_valid();
        Self { stream_config }
    }

    /// Stream configuration in use.
    pub fn stream_config(&self) -> &StreamConfig {
        &self.stream_config
    }

    /// Trains `strategy` on all domains in order (single pass) and
    /// evaluates it.
    pub fn run<S: Strategy + ?Sized>(
        &self,
        scenario: &DomainIlScenario,
        strategy: &mut S,
        stream_seed: u64,
    ) -> EvalReport {
        let pass = StreamStepper::new(scenario, self.stream_config.clone(), stream_seed);
        Self::run_pass(scenario, strategy, pass, None)
    }

    /// Trains `strategy` over the domains in an explicit `order` — the
    /// stream-order robustness protocol (a continual learner must not
    /// depend on a lucky domain sequence).
    ///
    /// # Panics
    ///
    /// Panics if `order` is not a permutation of `0..num_domains`.
    pub fn run_ordered<S: Strategy + ?Sized>(
        &self,
        scenario: &DomainIlScenario,
        strategy: &mut S,
        order: &[usize],
        stream_seed: u64,
    ) -> EvalReport {
        let pass = StreamStepper::ordered(
            scenario,
            self.stream_config.clone(),
            order.to_vec(),
            stream_seed,
        );
        Self::run_pass(scenario, strategy, pass, None)
    }

    /// Like [`Trainer::run`], but with a fault injector between the
    /// scenario and the strategy: arriving batches pass through the
    /// injector's stream faults, and after every observed batch the
    /// strategy's replay stores receive placement-scaled bit upsets for the
    /// ticks that batch represents.
    ///
    /// A zero-rate injector leaves this bit-identical to [`Trainer::run`]:
    /// the fault paths neither perturb data nor consume randomness.
    pub fn run_with_faults<S: Strategy + ?Sized>(
        &self,
        scenario: &DomainIlScenario,
        strategy: &mut S,
        stream_seed: u64,
        faults: &mut FaultInjector,
    ) -> EvalReport {
        let pass = StreamStepper::new(scenario, self.stream_config.clone(), stream_seed);
        Self::run_pass(scenario, strategy, pass, Some(faults))
    }

    fn run_pass<S: Strategy + ?Sized>(
        scenario: &DomainIlScenario,
        strategy: &mut S,
        mut pass: StreamStepper,
        mut faults: Option<&mut FaultInjector>,
    ) -> EvalReport {
        while pass.step_batch(scenario, strategy, faults.as_deref_mut()) {}
        EvalReport::evaluate(scenario, strategy)
    }

    /// Trains and evaluates after *every* domain (for forgetting curves).
    /// Returns one report per completed domain; the last is taken after
    /// `finalize`, so it is [`Trainer::run`]'s report.
    pub fn run_with_domain_evals<S: Strategy + ?Sized>(
        &self,
        scenario: &DomainIlScenario,
        strategy: &mut S,
        stream_seed: u64,
    ) -> Vec<EvalReport> {
        let mut pass = StreamStepper::new(scenario, self.stream_config.clone(), stream_seed);
        let mut reports = Vec::with_capacity(scenario.spec().num_domains);
        while pass.step_domain(scenario, strategy) {
            reports.push(EvalReport::evaluate(scenario, strategy));
        }
        reports
    }

    /// Repeats `run` over several seeds with freshly-built strategies and
    /// aggregates `Acc_all` as mean ± std — the format of Table I (the
    /// paper averages over ten runs).
    ///
    /// Seeds are run in parallel threads; the factory receives each run's
    /// seed and must build an independent strategy.
    pub fn run_many<F>(
        &self,
        scenario: &DomainIlScenario,
        factory: F,
        seeds: &[u64],
    ) -> AggregateReport
    where
        F: Fn(u64) -> Box<dyn Strategy> + Sync,
    {
        assert!(!seeds.is_empty(), "at least one seed required");
        let reports: Vec<(EvalReport, StepTrace, String)> = std::thread::scope(|scope| {
            let handles: Vec<_> = seeds
                .iter()
                .map(|&seed| {
                    let factory = &factory;
                    let trainer = self.clone();
                    scope.spawn(move || {
                        let mut strategy = factory(seed);
                        let report = trainer.run(scenario, strategy.as_mut(), seed);
                        (report, strategy.trace(), strategy.name().to_string())
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("run thread panicked"))
                .collect()
        });

        let accs: Vec<f32> = reports.iter().map(|(r, _, _)| r.acc_all).collect();
        let mut trace = StepTrace::new();
        for (_, t, _) in &reports {
            trace.merge(t);
        }
        AggregateReport {
            name: reports[0].2.clone(),
            acc_all: MeanStd::from_samples(&accs),
            memory_overhead_mb: reports[0].0.memory_overhead_mb,
            runs: reports.into_iter().map(|(r, _, _)| r).collect(),
            trace,
        }
    }
}

/// Aggregated result of repeated runs: the row format of Table I.
#[derive(Clone, Debug)]
pub struct AggregateReport {
    /// Strategy name.
    pub name: String,
    /// `Acc_all` mean ± std over the seeds.
    pub acc_all: MeanStd,
    /// Nominal memory overhead (identical across runs).
    pub memory_overhead_mb: f64,
    /// Individual run reports (per-domain/per-class detail).
    pub runs: Vec<EvalReport>,
    /// Merged operation trace across all runs.
    pub trace: StepTrace,
}

impl AggregateReport {
    /// Mean per-domain accuracy across runs.
    pub fn mean_per_domain(&self) -> Vec<f32> {
        if self.runs.is_empty() {
            return Vec::new();
        }
        let domains = self.runs[0].per_domain.len();
        let mut out = vec![0.0f32; domains];
        for run in &self.runs {
            for (o, &a) in out.iter_mut().zip(&run.per_domain) {
                *o += a;
            }
        }
        for o in &mut out {
            *o /= self.runs.len() as f32;
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Finetune, Joint, JointConfig, LatentReplay, ModelConfig};
    use chameleon_stream::DatasetSpec;

    #[test]
    fn run_many_aggregates_over_seeds() {
        let spec = DatasetSpec::core50_tiny();
        let scenario = DomainIlScenario::generate(&spec, 0);
        let model = ModelConfig::for_spec(&spec);
        let agg = Trainer::new(StreamConfig::default()).run_many(
            &scenario,
            |seed| Box::new(Finetune::new(&model, seed)),
            &[1, 2, 3],
        );
        assert_eq!(agg.acc_all.runs, 3);
        assert_eq!(agg.runs.len(), 3);
        assert_eq!(agg.name, "Finetuning");
        assert!(agg.acc_all.mean >= 0.0 && agg.acc_all.mean <= 100.0);
    }

    #[test]
    fn replay_beats_finetune_on_tiny_scenario() {
        let spec = DatasetSpec::core50_tiny();
        let scenario = DomainIlScenario::generate(&spec, 1);
        let model = ModelConfig::for_spec(&spec);
        let trainer = Trainer::new(StreamConfig::default());
        let seeds = [1, 2, 3];
        let ft = trainer.run_many(&scenario, |s| Box::new(Finetune::new(&model, s)), &seeds);
        let lr = trainer.run_many(
            &scenario,
            |s| Box::new(LatentReplay::new(&model, 60, s)),
            &seeds,
        );
        assert!(
            lr.acc_all.mean > ft.acc_all.mean,
            "latent replay {} should beat finetune {}",
            lr.acc_all.mean,
            ft.acc_all.mean
        );
    }

    #[test]
    fn domain_evals_end_where_run_ends() {
        // Joint trains only in `finalize`, so its last report moves unless
        // the pass finalizes before the last evaluation.
        let spec = DatasetSpec::core50_tiny();
        let scenario = DomainIlScenario::generate(&spec, 4);
        let model = ModelConfig::for_spec(&spec);
        let trainer = Trainer::new(StreamConfig::default());
        let joint = || Joint::new(&model, JointConfig::default(), 3);
        let curve = trainer.run_with_domain_evals(&scenario, &mut joint(), 3);
        assert_eq!(curve.len(), spec.num_domains);
        let run = trainer.run(&scenario, &mut joint(), 3);
        assert_eq!(curve.last(), Some(&run));
        assert_ne!(curve[curve.len() - 2], run, "finalize trained nothing");
    }

    #[test]
    fn run_ordered_with_identity_matches_run() {
        let spec = DatasetSpec::core50_tiny();
        let scenario = DomainIlScenario::generate(&spec, 6);
        let model = ModelConfig::for_spec(&spec);
        let trainer = Trainer::new(StreamConfig::default());
        let mut a = Finetune::new(&model, 9);
        let plain = trainer.run(&scenario, &mut a, 9);
        let mut b = Finetune::new(&model, 9);
        let order: Vec<usize> = (0..spec.num_domains).collect();
        let ordered = trainer.run_ordered(&scenario, &mut b, &order, 9);
        assert_eq!(plain.acc_all, ordered.acc_all);
    }

    #[test]
    fn run_ordered_changes_the_outcome_for_recency_biased_learners() {
        let spec = DatasetSpec::core50_tiny();
        let scenario = DomainIlScenario::generate(&spec, 7);
        let model = ModelConfig::for_spec(&spec);
        let trainer = Trainer::new(StreamConfig::default());
        let forward: Vec<usize> = (0..spec.num_domains).collect();
        let reverse: Vec<usize> = (0..spec.num_domains).rev().collect();
        let mut a = Finetune::new(&model, 2);
        let fwd = trainer.run_ordered(&scenario, &mut a, &forward, 2);
        let mut b = Finetune::new(&model, 2);
        let rev = trainer.run_ordered(&scenario, &mut b, &reverse, 2);
        // A recency-biased learner favors whichever domain came last.
        let last_fwd = *fwd.per_domain.last().expect("domains");
        let last_rev = rev.per_domain[0];
        assert!(
            last_fwd > 30.0 && last_rev > 30.0,
            "{last_fwd} / {last_rev}"
        );
        assert_ne!(fwd.acc_all, rev.acc_all);
    }

    #[test]
    #[should_panic(expected = "permutation")]
    fn run_ordered_rejects_duplicates() {
        let spec = DatasetSpec::core50_tiny();
        let scenario = DomainIlScenario::generate(&spec, 8);
        let model = ModelConfig::for_spec(&spec);
        let mut s = Finetune::new(&model, 1);
        let order = vec![0usize; spec.num_domains];
        Trainer::new(StreamConfig::default()).run_ordered(&scenario, &mut s, &order, 1);
    }

    #[test]
    fn mean_per_domain_averages_runs() {
        let spec = DatasetSpec::core50_tiny();
        let scenario = DomainIlScenario::generate(&spec, 3);
        let model = ModelConfig::for_spec(&spec);
        let agg = Trainer::new(StreamConfig::default()).run_many(
            &scenario,
            |seed| Box::new(Finetune::new(&model, seed)),
            &[4, 5],
        );
        assert_eq!(agg.mean_per_domain().len(), spec.num_domains);
    }
}
