//! SMAPE and repetition aggregation.

use nrpm_linalg::stats;
use serde::{Deserialize, Serialize};

/// How repeated measurements of one point are collapsed into a single value.
///
/// The paper uses the median (Sec. III); mean and minimum are provided for
/// the ablation benches.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub enum Aggregation {
    /// Median of the repetitions (the paper's default).
    #[default]
    Median,
    /// Arithmetic mean.
    Mean,
    /// Minimum — sometimes used on noisy systems under the assumption that
    /// noise only ever adds time.
    Minimum,
}

impl Aggregation {
    /// Applies the aggregation to a non-empty sample.
    pub fn apply(&self, values: &[f64]) -> f64 {
        match self {
            Aggregation::Median => stats::median(values),
            Aggregation::Mean => stats::mean(values),
            Aggregation::Minimum => stats::min(values),
        }
    }
}

/// Symmetric mean absolute percentage error, in percent.
///
/// `SMAPE = 100/n · Σ 2·|pred − actual| / (|pred| + |actual|)`, the model
/// selection criterion of Extra-P. A pair where both values are zero
/// contributes zero error. The result lies in `[0, 200]`.
///
/// # Panics
/// Panics if the slices have different lengths.
pub fn smape(actual: &[f64], predicted: &[f64]) -> f64 {
    assert_eq!(
        actual.len(),
        predicted.len(),
        "smape: length mismatch {} vs {}",
        actual.len(),
        predicted.len()
    );
    smape_of(actual.iter().copied().zip(predicted.iter().copied()))
}

/// [`smape`] of `(actual, predicted)` pairs.
pub(crate) fn smape_of(pairs: impl ExactSizeIterator<Item = (f64, f64)>) -> f64 {
    let n = pairs.len();
    if n == 0 {
        return 0.0;
    }
    let sum: f64 = pairs.map(|(a, p)| smape_term(a, p)).sum();
    100.0 * sum / n as f64
}

/// One pair's share of [`smape`] before averaging:
/// `2·|p − a| / (|p| + |a|)`, zero when both are zero. Never negative.
pub(crate) fn smape_term(actual: f64, predicted: f64) -> f64 {
    let denom = actual.abs() + predicted.abs();
    if denom == 0.0 {
        0.0
    } else {
        2.0 * (predicted - actual).abs() / denom
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn smape_of_perfect_prediction_is_zero() {
        assert_eq!(smape(&[1.0, 2.0, 3.0], &[1.0, 2.0, 3.0]), 0.0);
        assert_eq!(smape(&[], &[]), 0.0);
    }

    #[test]
    fn smape_is_symmetric_in_its_arguments() {
        let a = [1.0, 5.0, 10.0];
        let b = [2.0, 4.0, 20.0];
        assert!((smape(&a, &b) - smape(&b, &a)).abs() < 1e-12);
    }

    #[test]
    fn smape_is_bounded_by_200() {
        // Opposite signs max out each pair's contribution at 2.
        assert!((smape(&[1.0], &[-1.0]) - 200.0).abs() < 1e-12);
        assert!((smape(&[0.0], &[5.0]) - 200.0).abs() < 1e-12);
    }

    #[test]
    fn smape_zero_zero_pair_contributes_nothing() {
        assert_eq!(smape(&[0.0, 1.0], &[0.0, 1.0]), 0.0);
    }

    #[test]
    fn smape_matches_hand_computation() {
        // single pair: a=100, p=110 -> 2*10/210 = 0.0952..., in percent 9.52
        let v = smape(&[100.0], &[110.0]);
        assert!((v - 100.0 * 20.0 / 210.0).abs() < 1e-9);
    }

    #[test]
    fn aggregation_variants() {
        let vals = [3.0, 1.0, 2.0];
        assert_eq!(Aggregation::Median.apply(&vals), 2.0);
        assert_eq!(Aggregation::Mean.apply(&vals), 2.0);
        assert_eq!(Aggregation::Minimum.apply(&vals), 1.0);
        assert_eq!(Aggregation::default(), Aggregation::Median);
    }
}
