//! Extra-P style empirical performance modeling (the paper's baseline).
//!
//! This crate reimplements the regression modeler of Extra-P as described in
//! Sec. III of *Ritter et al., IPDPS 2021* and its predecessors (Calotoiu et
//! al., SC'13 and Cluster'16):
//!
//! * the **performance model normal form** (PMNF): sums of terms
//!   `c · Π_l x_l^{i} · log2^{j}(x_l)`, restricted to one term per parameter,
//! * the canonical **exponent set E** with its 43 `(i, j)` combinations,
//! * hypothesis instantiation, **coefficient fitting by linear regression**
//!   (Householder QR from [`nrpm_linalg`]),
//! * model selection by **leave-one-out cross-validation on SMAPE**,
//! * **multi-parameter** model construction by combining per-parameter
//!   hypotheses additively and multiplicatively.
//!
//! # Example
//!
//! ```
//! use nrpm_extrap::{MeasurementSet, RegressionModeler};
//!
//! // Perfect O(x) scaling measured at five points.
//! let mut set = MeasurementSet::new(1);
//! for &x in &[4.0, 8.0, 16.0, 32.0, 64.0] {
//!     set.add_repetitions(&[x], &[3.0 * x, 3.0 * x, 3.0 * x]);
//! }
//! let model = RegressionModeler::default().model(&set).unwrap();
//! let lead = model.model.lead_exponent(0).unwrap();
//! assert_eq!(lead.poly.to_f64(), 1.0);
//! assert_eq!(lead.log, 0);
//! ```

#![warn(missing_docs)]

mod data;
mod error;
mod exponents;
mod fit;
#[cfg(test)]
mod fit_equivalence;
mod fraction;
mod io;
mod metrics;
mod model;
mod multi;
mod search;
mod single;

pub use data::{Measurement, MeasurementSet};
pub use error::{ModelError, Severity};
pub use exponents::{exponent_set, ExponentPair, ExponentSet, NUM_CLASSES};
pub use fit::{
    fit_coefficients, fit_hypothesis, fit_hypothesis_constrained, FitConstraints, FittedHypothesis,
    TIE_TOLERANCE,
};
pub use fraction::Fraction;
pub use io::{
    parse_directive, parse_text, parse_text_file, parse_text_with_tail, write_text, Directive,
    LineFramer, NamedMeasurements, ParseError, TailPolicy,
};
pub use metrics::{smape, Aggregation};
pub use model::{exponent_distance, lead_order_distance, Model, Term, TermFactor};
pub use multi::{
    combine_candidate_pairs, combine_hypotheses, rank_pairs_on_line, rank_pairs_on_lines,
    refine_pairs_globally, MultiParameterOptions,
};
pub use search::{single_parameter_hypotheses, Hypothesis};
pub use single::{model_single_parameter, SingleParameterOptions};

use serde::{Deserialize, Serialize};

/// Result of a modeling run: the selected model plus its selection score.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ModelingResult {
    /// The selected performance model.
    pub model: Model,
    /// Leave-one-out cross-validation SMAPE of the selected model (percent).
    pub cv_smape: f64,
    /// In-sample SMAPE of the selected model (percent).
    pub fit_smape: f64,
}

/// The classic Extra-P regression modeler.
///
/// Builds single-parameter models directly, and multi-parameter models by
/// combining per-parameter hypotheses (Sec. III of the paper).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct RegressionModeler {
    /// Options controlling the single-parameter search.
    pub single: SingleParameterOptions,
    /// Options controlling multi-parameter combination.
    pub multi: MultiParameterOptions,
}

impl RegressionModeler {
    /// Models a measurement set with any number of parameters (1..=3 are the
    /// supported regimes; more parameters work but are increasingly costly).
    pub fn model(&self, set: &MeasurementSet) -> Result<ModelingResult, ModelError> {
        match set.num_params() {
            0 => Err(ModelError::NoParameters),
            1 => model_single_parameter(set, &self.single),
            _ => combine_hypotheses(set, &self.single, &self.multi),
        }
    }
}
