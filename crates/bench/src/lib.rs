//! The paper's experiments: the figure harnesses behind the `nrpm`
//! harness subcommands (`nrpm sweep` among them), table rendering, the
//! Sec. IV-B noise-estimator evaluation, and the one synthetic sweep engine
//! ([`sweep`]) whose cells Fig. 3, `threshold_calibration` and the
//! noise-regime sweep ([`regime`]) all read.

#![warn(missing_docs)]

pub mod estimator;
pub mod harness;
pub mod regime;
pub mod report;
pub mod sweep;

/// The noise levels of the paper's synthetic evaluation (Sec. V):
/// 2 %, 5 %, 10 %, 20 %, 50 %, 75 %, 100 %.
pub const PAPER_NOISE_LEVELS: [f64; 7] = [0.02, 0.05, 0.10, 0.20, 0.50, 0.75, 1.00];
