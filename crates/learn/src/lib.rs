//! Gradient-boosted regression trees, built from scratch for PS3's learned
//! importance sampling (§4.3).
//!
//! The paper uses XGBoost regressors with squared-error loss; this crate
//! reimplements the relevant subset:
//!
//! * [`binner`] — quantile binning of features (histogram-based training,
//!   like XGBoost's `hist` mode), once per training set: every model
//!   trained on the same rows shares one [`BinnedSet`].
//! * [`tree`] — single regression trees grown greedily by the XGBoost gain
//!   criterion `½[G_L²/(H_L+λ) + G_R²/(H_R+λ) − G²/(H+λ)]` (XGBoost's γ is
//!   0: any positive gain splits).
//! * [`gbdt`] — the boosting loop with shrinkage, column subsampling and
//!   per-feature "gain" importance (the Figure-5 metric).
//! * [`labels`] — Algorithm-4 training-label generation and the
//!   exponentially-spaced model thresholds of §4.3.

pub mod binner;
pub mod gbdt;
pub mod labels;
pub mod tree;

pub use binner::{BinnedSet, Binner};
pub use gbdt::{Gbdt, GbdtParams, LEARNING_RATE, MAX_BINS};
pub use labels::{choose_thresholds, make_labels};
pub use tree::{NodeSpec, Tree};
