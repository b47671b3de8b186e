//! Activation functions and their derivatives.

use serde::{Deserialize, Serialize};

/// The element-wise activation of a layer.
///
/// The paper's architecture uses the hyperbolic tangent throughout its
/// hidden layers; the logits layer is the identity, and [`softmax_rows`]
/// turns its output into probabilities, fused with the cross-entropy loss.
/// Each layer names its activation in the checkpoint JSON, so a checkpoint
/// naming any other activation fails to load.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Activation {
    /// Hyperbolic tangent (every hidden layer).
    Tanh,
    /// Identity (the logits layer).
    Identity,
}

impl Activation {
    /// Applies the activation to a single pre-activation value.
    #[inline]
    pub fn apply(&self, z: f64) -> f64 {
        match self {
            Activation::Tanh => z.tanh(),
            Activation::Identity => z,
        }
    }

    /// Derivative expressed in terms of the *activated* value `a = f(z)`.
    ///
    /// Both activations admit this form (`tanh' = 1 - a²`, `id' = 1`),
    /// which lets the backward pass reuse the stored activations instead of
    /// the pre-activations.
    #[inline]
    pub fn derivative_from_output(&self, a: f64) -> f64 {
        match self {
            Activation::Tanh => 1.0 - a * a,
            Activation::Identity => 1.0,
        }
    }
}

/// In-place, numerically stable softmax over each row of a row-major
/// `rows x cols` buffer.
pub fn softmax_rows(data: &mut [f64], cols: usize) {
    assert!(cols > 0, "softmax needs at least one column");
    assert_eq!(data.len() % cols, 0, "buffer is not a whole number of rows");
    for row in data.chunks_mut(cols) {
        let max = row.iter().copied().fold(f64::NEG_INFINITY, f64::max);
        let mut sum = 0.0;
        for v in row.iter_mut() {
            *v = (*v - max).exp();
            sum += *v;
        }
        for v in row.iter_mut() {
            *v /= sum;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tanh_values_and_derivative() {
        let a = Activation::Tanh;
        assert_eq!(a.apply(0.0), 0.0);
        assert!((a.apply(1.0) - 1.0f64.tanh()).abs() < 1e-15);
        let out = a.apply(0.5);
        assert!((a.derivative_from_output(out) - (1.0 - out * out)).abs() < 1e-15);
    }

    #[test]
    fn derivatives_match_finite_differences() {
        let h = 1e-6;
        for act in [Activation::Tanh, Activation::Identity] {
            for z in [-2.0, -0.5, 0.1, 1.5] {
                let numeric = (act.apply(z + h) - act.apply(z - h)) / (2.0 * h);
                let analytic = act.derivative_from_output(act.apply(z));
                assert!(
                    (numeric - analytic).abs() < 1e-6,
                    "{act:?} at z={z}: {numeric} vs {analytic}"
                );
            }
        }
    }

    #[test]
    fn softmax_rows_sum_to_one_and_preserve_order() {
        let mut data = vec![1.0, 2.0, 3.0, -1.0, 0.0, 1.0];
        softmax_rows(&mut data, 3);
        for row in data.chunks(3) {
            let sum: f64 = row.iter().sum();
            assert!((sum - 1.0).abs() < 1e-12);
            assert!(row[0] < row[1] && row[1] < row[2]);
        }
    }

    #[test]
    fn softmax_is_stable_for_large_logits() {
        let mut data = vec![1000.0, 1001.0];
        softmax_rows(&mut data, 2);
        assert!(data.iter().all(|v| v.is_finite()));
        assert!((data[0] + data[1] - 1.0).abs() < 1e-12);
        assert!(data[1] > data[0]);
    }

    #[test]
    #[should_panic(expected = "whole number of rows")]
    fn softmax_rejects_ragged_buffers() {
        let mut data = vec![1.0, 2.0, 3.0];
        softmax_rows(&mut data, 2);
    }
}
