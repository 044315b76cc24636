//! The budgeted soak runner: sweep a seed range through one explorer
//! until the range or the wall-clock budget is exhausted.
//!
//! Soaking trades per-seed depth for interleaving coverage: every seed
//! is a new op script, fault plan, shard count, and scheduler schedule.
//! The budget makes the sweep CI-safe — a slow machine checks fewer
//! seeds instead of timing out — while the report records exactly which
//! contiguous range was covered so a follow-up run can resume past it.

use std::sync::Arc;
use std::time::{Duration, Instant};

use chameleon_stream::DomainIlScenario;

use crate::explorer::{Explorer, Outcome};

/// What to sweep and for how long.
#[derive(Clone, Copy, Debug)]
pub struct SoakConfig {
    /// The explorer every seed runs.
    pub explorer: Explorer,
    /// First seed checked.
    pub start_seed: u64,
    /// Seeds requested (the sweep may stop early on budget).
    pub seeds: u64,
    /// Wall-clock budget; `None` means run the full range.
    pub budget: Option<Duration>,
}

/// Outcome of one soak sweep.
#[derive(Clone, Debug, Default)]
pub struct SoakReport {
    /// Seeds actually checked (contiguous from `start_seed`).
    pub checked: u64,
    /// Seeds that held every invariant.
    pub passed: u64,
    /// Seeds that ran under an injected fault plan.
    pub faulted: u64,
    /// The explorer's [`Outcome::tallies`], summed over passing seeds.
    pub tallies: Vec<(&'static str, u64)>,
    /// `(seed, violation)` for every failing seed, in seed order.
    pub failures: Vec<(u64, String)>,
    /// Whether the budget ended the sweep before the range did.
    pub budget_exhausted: bool,
}

impl SoakReport {
    /// Whether every checked seed passed.
    pub fn all_passed(&self) -> bool {
        self.failures.is_empty()
    }
}

/// Sweeps `config.seeds` seeds from `config.start_seed` through
/// `config.explorer`, stopping early only when the budget runs out; a
/// failing seed does not stop the sweep. Calls `progress` after every
/// seed with its outcome.
pub fn run(
    scenario: &Arc<DomainIlScenario>,
    config: &SoakConfig,
    mut progress: impl FnMut(u64, &Result<Outcome, String>),
) -> SoakReport {
    let started = Instant::now();
    let mut report = SoakReport::default();
    for seed in config.start_seed..config.start_seed.saturating_add(config.seeds) {
        if let Some(budget) = config.budget {
            if report.checked > 0 && started.elapsed() >= budget {
                report.budget_exhausted = true;
                break;
            }
        }
        let outcome = config.explorer.check(scenario, seed);
        report.checked += 1;
        match &outcome {
            Ok(o) => {
                report.passed += 1;
                report.faulted += u64::from(o.faulted());
                for (i, (name, count)) in o.tallies().into_iter().enumerate() {
                    match report.tallies.get_mut(i) {
                        Some((_, total)) => *total += count,
                        None => report.tallies.push((name, count)),
                    }
                }
            }
            Err(e) => report.failures.push((seed, e.clone())),
        }
        progress(seed, &outcome);
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use chameleon_stream::DatasetSpec;

    fn scenario() -> Arc<DomainIlScenario> {
        Arc::new(DomainIlScenario::generate(
            &DatasetSpec::core50_tiny(),
            0x50AC,
        ))
    }

    #[test]
    fn sweep_covers_the_requested_range_and_passes() {
        let scenario = scenario();
        let config = SoakConfig {
            explorer: Explorer::Lifecycle,
            start_seed: 10,
            seeds: 3,
            budget: None,
        };
        let mut seen = Vec::new();
        let report = run(&scenario, &config, |seed, _| seen.push(seed));
        assert_eq!(seen, vec![10, 11, 12]);
        assert_eq!(report.checked, 3);
        assert_eq!(report.passed, 3);
        assert!(report.all_passed(), "{:?}", report.failures);
        assert!(!report.budget_exhausted);
        assert!(report.faulted >= 1, "odd seed 11 should inject faults");
    }

    #[test]
    fn zero_budget_still_checks_at_least_one_seed() {
        let scenario = scenario();
        for explorer in [Explorer::Lifecycle, Explorer::Crash] {
            let config = SoakConfig {
                explorer,
                start_seed: 0,
                seeds: 50,
                budget: Some(Duration::ZERO),
            };
            let report = run(&scenario, &config, |_, _| {});
            assert_eq!(
                report.checked, 1,
                "{explorer}: budget must not starve the sweep"
            );
            assert!(report.budget_exhausted, "{explorer}");
        }
    }
}
