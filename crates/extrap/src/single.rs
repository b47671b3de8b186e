//! The single-parameter regression modeler.

use crate::fit::Selection;
use crate::search::single_parameter_hypotheses;
use crate::{Aggregation, MeasurementSet, ModelError, ModelingResult};

/// Options of the single-parameter search.
#[derive(Debug, Clone)]
pub struct SingleParameterOptions {
    /// Repetition aggregation (the paper's default: median).
    pub aggregation: Aggregation,
    /// Minimum number of distinct parameter values required. Extra-P's rule
    /// of thumb is five; lowering it is possible but reduces reliability.
    pub min_points: usize,
    /// CV-SMAPE tie tolerance (percentage points) within which the simpler
    /// hypothesis wins. This is the "simplest explanation" bias of the PMNF.
    pub tie_tolerance: f64,
}

impl Default for SingleParameterOptions {
    fn default() -> Self {
        SingleParameterOptions {
            aggregation: Aggregation::Median,
            min_points: 5,
            tie_tolerance: 1e-6,
        }
    }
}

/// Validates a measurement set: finite values, positive coordinates.
pub(crate) fn validate(set: &MeasurementSet) -> Result<(), ModelError> {
    for m in set.measurements() {
        if m.values.iter().any(|v| !v.is_finite()) {
            return Err(ModelError::NonFiniteData);
        }
        for (param, &x) in m.point.iter().enumerate() {
            if x <= 0.0 || !x.is_finite() {
                return Err(ModelError::NonPositiveParameter { param, value: x });
            }
        }
    }
    Ok(())
}

/// Runs the full single-parameter search over the canonical 43-hypothesis
/// space and returns the cross-validation winner.
pub fn model_single_parameter(
    set: &MeasurementSet,
    opts: &SingleParameterOptions,
) -> Result<ModelingResult, ModelError> {
    validate(set)?;
    let points = set.line(0, opts.aggregation);
    model_points(&points, opts)
}

/// Models pre-aggregated `(x, y)` points of a single parameter. Shared with
/// the multi-parameter modeler (which models each parameter's line) and the
/// DNN modeler (which re-fits coefficients the same way).
pub fn model_points(
    points: &[(f64, f64)],
    opts: &SingleParameterOptions,
) -> Result<ModelingResult, ModelError> {
    let distinct = {
        let mut xs: Vec<f64> = points.iter().map(|(x, _)| *x).collect();
        xs.sort_by(|a, b| a.partial_cmp(b).expect("finite x"));
        xs.dedup();
        xs.len()
    };
    if distinct < opts.min_points {
        return Err(ModelError::TooFewPoints {
            param: 0,
            found: distinct,
            required: opts.min_points,
        });
    }
    let tuples: Vec<(Vec<f64>, f64)> = points.iter().map(|&(x, y)| (vec![x], y)).collect();

    let mut selection = Selection::new(&tuples, opts.tie_tolerance);
    for hypothesis in single_parameter_hypotheses() {
        selection.offer(hypothesis);
    }
    selection.best()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ExponentPair;

    fn set_from(f: impl Fn(f64) -> f64, xs: &[f64]) -> MeasurementSet {
        let mut set = MeasurementSet::new(1);
        for &x in xs {
            set.add(&[x], f(x));
        }
        set
    }

    #[test]
    fn recovers_linear_scaling() {
        let set = set_from(|x| 10.0 + 2.5 * x, &[4.0, 8.0, 16.0, 32.0, 64.0]);
        let result = RegressionTestHelper::model(&set);
        assert_eq!(
            result.model.lead_exponent(0).unwrap(),
            ExponentPair::from_parts(1, 1, 0)
        );
        assert!(result.cv_smape < 1e-6);
    }

    #[test]
    fn recovers_sqrt_scaling() {
        let set = set_from(|x| 1.0 + 4.0 * x.sqrt(), &[4.0, 16.0, 64.0, 256.0, 1024.0]);
        let result = RegressionTestHelper::model(&set);
        assert_eq!(
            result.model.lead_exponent(0).unwrap(),
            ExponentPair::from_parts(1, 2, 0)
        );
    }

    #[test]
    fn recovers_n_log_n() {
        let set = set_from(
            |x| 2.0 + 0.3 * x * x.log2(),
            &[8.0, 16.0, 32.0, 64.0, 128.0, 256.0],
        );
        let result = RegressionTestHelper::model(&set);
        assert_eq!(
            result.model.lead_exponent(0).unwrap(),
            ExponentPair::from_parts(1, 1, 1)
        );
    }

    #[test]
    fn recovers_constant_behavior() {
        let set = set_from(|_| 3.25, &[2.0, 4.0, 8.0, 16.0, 32.0]);
        let result = RegressionTestHelper::model(&set);
        assert!(result.model.is_constant());
        assert!((result.model.constant - 3.25).abs() < 1e-9);
    }

    #[test]
    fn recovers_cubic_growth_from_kripke_like_points() {
        let set = set_from(
            |x| 5.0 + 1e-6 * x.powi(3),
            &[8.0, 64.0, 512.0, 4096.0, 32768.0],
        );
        let result = RegressionTestHelper::model(&set);
        assert_eq!(
            result.model.lead_exponent(0).unwrap(),
            ExponentPair::from_parts(3, 1, 0)
        );
    }

    #[test]
    fn rejects_too_few_points() {
        let set = set_from(|x| x, &[2.0, 4.0, 8.0]);
        let err = model_single_parameter(&set, &SingleParameterOptions::default()).unwrap_err();
        assert!(matches!(
            err,
            ModelError::TooFewPoints {
                found: 3,
                required: 5,
                ..
            }
        ));
    }

    #[test]
    fn min_points_is_configurable() {
        let set = set_from(|x| 2.0 * x, &[2.0, 4.0, 8.0]);
        let opts = SingleParameterOptions {
            min_points: 3,
            ..Default::default()
        };
        let result = model_single_parameter(&set, &opts).unwrap();
        assert_eq!(
            result.model.lead_exponent(0).unwrap(),
            ExponentPair::from_parts(1, 1, 0)
        );
    }

    #[test]
    fn rejects_non_positive_parameters() {
        let mut set = MeasurementSet::new(1);
        for &x in &[0.0, 2.0, 4.0, 8.0, 16.0] {
            set.add(&[x], 1.0);
        }
        let err = model_single_parameter(&set, &SingleParameterOptions::default()).unwrap_err();
        assert!(matches!(
            err,
            ModelError::NonPositiveParameter { param: 0, .. }
        ));
    }

    #[test]
    fn rejects_non_finite_values() {
        let mut set = MeasurementSet::new(1);
        for &x in &[2.0, 4.0, 8.0, 16.0, 32.0] {
            set.add(&[x], if x == 8.0 { f64::NAN } else { x });
        }
        let err = model_single_parameter(&set, &SingleParameterOptions::default()).unwrap_err();
        assert_eq!(err, ModelError::NonFiniteData);
    }

    #[test]
    fn repetitions_are_aggregated_with_median() {
        let mut set = MeasurementSet::new(1);
        for &x in &[2.0, 4.0, 8.0, 16.0, 32.0] {
            // Median of the three repetitions is the clean value 2x; the
            // outlier must not disturb the fit.
            set.add_repetitions(&[x], &[2.0 * x, 2.0 * x * 10.0, 2.0 * x * 0.99]);
        }
        let result = RegressionTestHelper::model(&set);
        assert_eq!(
            result.model.lead_exponent(0).unwrap(),
            ExponentPair::from_parts(1, 1, 0)
        );
        assert!((result.model.terms[0].coefficient - 2.0).abs() < 0.1);
    }

    /// Small helper keeping the tests terse.
    struct RegressionTestHelper;
    impl RegressionTestHelper {
        fn model(set: &MeasurementSet) -> ModelingResult {
            model_single_parameter(set, &SingleParameterOptions::default()).unwrap()
        }
    }
}
