//! Evaluation reports.

use chameleon_nn::loss;
use chameleon_stream::DomainIlScenario;
use chameleon_tensor::{ops, Matrix};

use crate::Strategy;

/// Evaluation of one trained strategy on the all-domain test set.
///
/// `acc_all` is the paper's headline metric (final accuracy over all
/// classes and domains, in percent); the per-domain and per-class
/// breakdowns support the forgetting analyses and user-centric extensions.
#[derive(Clone, Debug, PartialEq)]
pub struct EvalReport {
    /// Final accuracy over the full test set, in percent (`Acc_all`).
    pub acc_all: f32,
    /// Accuracy per domain, in percent — low values on early domains mean
    /// catastrophic forgetting.
    pub per_domain: Vec<f32>,
    /// Accuracy per class, in percent.
    pub per_class: Vec<f32>,
    /// Nominal memory overhead of the strategy in MB (Table I column).
    pub memory_overhead_mb: f64,
}

impl EvalReport {
    /// Evaluates `strategy` on the scenario's test set.
    pub fn evaluate<S: Strategy + ?Sized>(scenario: &DomainIlScenario, strategy: &S) -> Self {
        let logits = strategy.logits(scenario.test_set().0);
        Self::from_logits(scenario, &logits, strategy.memory_overhead_mb())
    }

    /// Scores one logit row per test-set row of `scenario`, in test-set
    /// order, against its labels and domains.
    ///
    /// # Panics
    ///
    /// Panics unless `logits` has exactly one row per test-set row.
    pub(crate) fn from_logits(
        scenario: &DomainIlScenario,
        logits: &Matrix,
        memory_overhead_mb: f64,
    ) -> Self {
        let y = scenario.test_set().1;
        let acc_all = 100.0 * loss::accuracy(logits, y);

        let num_domains = scenario.spec().num_domains;
        let num_classes = scenario.spec().num_classes;
        let domains = scenario.test_domains();

        let mut domain_correct = vec![0usize; num_domains];
        let mut domain_total = vec![0usize; num_domains];
        let mut class_correct = vec![0usize; num_classes];
        let mut class_total = vec![0usize; num_classes];
        for (row, (&label, &domain)) in y.iter().zip(domains).enumerate() {
            let correct = ops::argmax(logits.row(row)) == label;
            domain_total[domain] += 1;
            class_total[label] += 1;
            if correct {
                domain_correct[domain] += 1;
                class_correct[label] += 1;
            }
        }
        let pct = |correct: usize, total: usize| {
            if total == 0 {
                0.0
            } else {
                100.0 * correct as f32 / total as f32
            }
        };
        Self {
            acc_all,
            per_domain: domain_correct
                .iter()
                .zip(&domain_total)
                .map(|(&c, &t)| pct(c, t))
                .collect(),
            per_class: class_correct
                .iter()
                .zip(&class_total)
                .map(|(&c, &t)| pct(c, t))
                .collect(),
            memory_overhead_mb,
        }
    }

    /// Mean accuracy over a subset of classes (e.g. the user's preferred
    /// classes — the personalization objective of §III).
    ///
    /// Returns 0.0 for an empty subset.
    pub fn class_subset_accuracy(&self, classes: &[usize]) -> f32 {
        if classes.is_empty() {
            return 0.0;
        }
        let valid: Vec<f32> = classes
            .iter()
            .filter_map(|&c| self.per_class.get(c).copied())
            .collect();
        if valid.is_empty() {
            return 0.0;
        }
        valid.iter().sum::<f32>() / valid.len() as f32
    }

    /// Forgetting proxy: accuracy on the first domain minus accuracy on the
    /// last (positive values mean early domains were retained *better*).
    pub fn first_vs_last_domain(&self) -> f32 {
        match (self.per_domain.first(), self.per_domain.last()) {
            (Some(&f), Some(&l)) => f - l,
            _ => 0.0,
        }
    }
}

/// Class-confusion counts on the scenario's test set:
/// `matrix[true][predicted]`.
pub fn confusion_matrix<S: Strategy + ?Sized>(
    scenario: &DomainIlScenario,
    strategy: &S,
) -> Vec<Vec<u32>> {
    let num_classes = scenario.spec().num_classes;
    let (x, y) = scenario.test_set();
    let logits = strategy.logits(x);
    let mut matrix = vec![vec![0u32; num_classes]; num_classes];
    for (row, &label) in y.iter().enumerate() {
        matrix[label][ops::argmax(logits.row(row))] += 1;
    }
    matrix
}

/// Backward transfer (BWT, Lopez-Paz & Ranzato 2017) from per-domain
/// evaluation snapshots: the mean change in each domain's accuracy between
/// the moment it was learned and the end of training. Strongly negative
/// BWT is catastrophic forgetting; ≈ 0 means retention.
///
/// `snapshots[d]` must be the evaluation taken right after training domain
/// `d` — the output of
/// [`Trainer::run_with_domain_evals`](crate::Trainer::run_with_domain_evals).
///
/// Returns 0.0 with fewer than two snapshots.
pub fn backward_transfer(snapshots: &[EvalReport]) -> f32 {
    if snapshots.len() < 2 {
        return 0.0;
    }
    let last = snapshots.last().expect("non-empty");
    let mut total = 0.0;
    let mut count = 0;
    for (domain, snapshot) in snapshots.iter().enumerate().take(snapshots.len() - 1) {
        if let (Some(&at_learning), Some(&at_end)) =
            (snapshot.per_domain.get(domain), last.per_domain.get(domain))
        {
            total += at_end - at_learning;
            count += 1;
        }
    }
    if count == 0 {
        0.0
    } else {
        total / count as f32
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use chameleon_stream::{Batch, DatasetSpec};

    /// A fake strategy that always predicts a fixed class.
    struct ConstantPredictor {
        class: usize,
        num_classes: usize,
    }

    impl Strategy for ConstantPredictor {
        fn name(&self) -> &str {
            "Constant"
        }
        fn observe(&mut self, _batch: &Batch) {}
        fn logits(&self, raw: &Matrix) -> Matrix {
            let mut out = Matrix::zeros(raw.rows(), self.num_classes);
            for r in 0..raw.rows() {
                out.set(r, self.class, 1.0);
            }
            out
        }
        fn memory_overhead_mb(&self) -> f64 {
            0.0
        }
    }

    #[test]
    fn constant_predictor_scores_one_over_c() {
        let spec = DatasetSpec::core50_tiny();
        let scenario = DomainIlScenario::generate(&spec, 0);
        let strategy = ConstantPredictor {
            class: 0,
            num_classes: spec.num_classes,
        };
        let report = EvalReport::evaluate(&scenario, &strategy);
        let expected = 100.0 / spec.num_classes as f32;
        assert!(
            (report.acc_all - expected).abs() < 1.0,
            "{}",
            report.acc_all
        );
        assert!((report.per_class[0] - 100.0).abs() < 1e-4);
        assert!(report.per_class[1..].iter().all(|&a| a == 0.0));
        assert_eq!(report.per_domain.len(), spec.num_domains);
    }

    #[test]
    fn subset_accuracy_averages_selected_classes() {
        let report = EvalReport {
            acc_all: 0.0,
            per_domain: vec![],
            per_class: vec![100.0, 0.0, 50.0],
            memory_overhead_mb: 0.0,
        };
        assert!((report.class_subset_accuracy(&[0, 2]) - 75.0).abs() < 1e-4);
        assert_eq!(report.class_subset_accuracy(&[]), 0.0);
        assert_eq!(report.class_subset_accuracy(&[99]), 0.0);
    }

    #[test]
    fn first_vs_last_domain_diff() {
        let report = EvalReport {
            acc_all: 0.0,
            per_domain: vec![20.0, 50.0, 80.0],
            per_class: vec![],
            memory_overhead_mb: 0.0,
        };
        assert!((report.first_vs_last_domain() + 60.0).abs() < 1e-4);
    }

    fn snapshot(per_domain: Vec<f32>) -> EvalReport {
        EvalReport {
            acc_all: 0.0,
            per_domain,
            per_class: vec![],
            memory_overhead_mb: 0.0,
        }
    }

    #[test]
    fn backward_transfer_measures_forgetting() {
        // Domain 0 learned at 90, ends at 30; domain 1 learned at 80,
        // ends at 60 ⇒ BWT = ((30−90) + (60−80)) / 2 = −40.
        let snapshots = vec![
            snapshot(vec![90.0, 10.0, 10.0]),
            snapshot(vec![50.0, 80.0, 10.0]),
            snapshot(vec![30.0, 60.0, 85.0]),
        ];
        assert!((backward_transfer(&snapshots) + 40.0).abs() < 1e-4);
    }

    #[test]
    fn backward_transfer_is_zero_for_perfect_retention() {
        let snapshots = vec![snapshot(vec![90.0, 10.0]), snapshot(vec![90.0, 85.0])];
        assert!(backward_transfer(&snapshots).abs() < 1e-4);
        assert_eq!(backward_transfer(&snapshots[..1]), 0.0);
        assert_eq!(backward_transfer(&[]), 0.0);
    }

    #[test]
    fn confusion_matrix_of_constant_predictor_is_one_column() {
        let spec = DatasetSpec::core50_tiny();
        let scenario = DomainIlScenario::generate(&spec, 1);
        let strategy = ConstantPredictor {
            class: 2,
            num_classes: spec.num_classes,
        };
        let matrix = confusion_matrix(&scenario, &strategy);
        for (label, row) in matrix.iter().enumerate() {
            for (predicted, &count) in row.iter().enumerate() {
                if predicted == 2 {
                    assert_eq!(
                        count as usize,
                        spec.test_len() / spec.num_classes,
                        "{label}"
                    );
                } else {
                    assert_eq!(count, 0);
                }
            }
        }
        let total: u32 = matrix.iter().flatten().sum();
        assert_eq!(total as usize, spec.test_len());
    }
}
