//! The Chameleon continual-learning framework and every baseline the paper
//! compares against.
//!
//! # Overview
//!
//! The paper's contribution (§III) is a dual-memory replay strategy:
//!
//! * a **short-term store** `M_s` (10 samples, on-chip) refreshed every
//!   batch by *user-aware, uncertainty-guided* sampling (Eqs. 2–4),
//! * a **long-term store** `M_l` (100–1500 samples, off-chip) refreshed
//!   every `h` batches by *class-prototype / KL-divergence* contrastive
//!   selection (Eqs. 5–6),
//!
//! both feeding latent-activation replay into a single-pass SGD learner
//! whose feature extractor is frozen.
//!
//! This crate implements [`Chameleon`] plus all baselines of Table I:
//! [`Finetune`], [`Joint`], [`EwcPlusPlus`], [`Lwf`], [`Slda`], [`Gss`],
//! [`Er`], [`Der`], and [`LatentReplay`] — behind one [`Strategy`] trait —
//! and the [`Trainer`] that runs the paper's Domain-IL protocol and reports
//! `Acc_all` (mean ± std over seeds).
//!
//! # Example
//!
//! ```
//! use chameleon_core::{Chameleon, ChameleonConfig, ModelConfig, Strategy, Trainer};
//! use chameleon_stream::{DatasetSpec, DomainIlScenario, StreamConfig};
//!
//! let spec = DatasetSpec::core50_tiny();
//! let scenario = DomainIlScenario::generate(&spec, 1);
//! let model = ModelConfig::for_spec(&spec);
//! let mut strategy = Chameleon::new(&model, ChameleonConfig::default(), 7);
//! let report = Trainer::new(StreamConfig::default())
//!     .run(&scenario, &mut strategy, 7);
//! assert!(report.acc_all > 0.0 && report.acc_all <= 100.0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod baselines;
mod chameleon;
pub mod checkpoint;
mod frozen;
mod metrics;
mod model;
mod prefs;
mod stepper;
mod strategy;
mod trace;
mod trainer;

pub use baselines::{
    Der, DerConfig, Er, EwcConfig, EwcPlusPlus, Finetune, Gss, GssConfig, Joint, JointConfig,
    LatentReplay, Lwf, LwfConfig, Slda, SldaConfig,
};
pub use chameleon::{
    Chameleon, ChameleonConfig, LearnerCounters, LongTermPolicy, ResilienceReport, ShortTermPolicy,
};
pub use chameleon_replay::Precision;
pub use chameleon_stream::ConfigError;
pub use frozen::FrozenModel;
pub use metrics::{backward_transfer, confusion_matrix, EvalReport};
pub use model::ModelConfig;
pub use prefs::PreferenceTracker;
pub use stepper::{StreamPosition, StreamStepper};
pub use strategy::Strategy;
pub use trace::{PerInputTrace, StepTrace};
pub use trainer::{AggregateReport, Trainer};
