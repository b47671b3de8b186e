//! Shared infrastructure of the experiment harness: a tiny CLI-flag parser,
//! table rendering, the synthetic sweep engine behind Fig. 3, and the
//! Sec. IV-B noise-estimator evaluation.

#![warn(missing_docs)]

pub mod cli;
pub mod estimator;
pub mod regime;
pub mod report;
pub mod sweep;

/// The noise levels of the paper's synthetic evaluation (Sec. V):
/// 2 %, 5 %, 10 %, 20 %, 50 %, 75 %, 100 %.
pub const PAPER_NOISE_LEVELS: [f64; 7] = [0.02, 0.05, 0.10, 0.20, 0.50, 0.75, 1.00];
