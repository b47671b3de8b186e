//! Dense (fully connected) layers with batched forward and backward passes.

use crate::activation::Activation;
use nrpm_linalg::{matmul, matmul_into, MatmulOptions, Matrix};
use rand::Rng;
use serde::{Deserialize, Serialize};

/// A dense layer `A = act(X · W + b)`.
///
/// `W` is stored `in_dim x out_dim` so a batch `X` of shape
/// `batch x in_dim` maps to `batch x out_dim` with a single matmul.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DenseLayer {
    /// Weight matrix, `in_dim x out_dim`.
    pub weights: Matrix,
    /// Bias vector, one per output unit.
    pub biases: Vec<f64>,
    /// Activation applied element-wise to the pre-activations.
    pub activation: Activation,
}

/// Gradients of one layer's parameters, same shapes as the parameters.
#[derive(Debug, Clone)]
pub struct LayerGradients {
    /// `∂L/∂W`, `in_dim x out_dim`.
    pub weights: Matrix,
    /// `∂L/∂b`, one per output unit.
    pub biases: Vec<f64>,
}

impl DenseLayer {
    /// Creates a layer with Xavier/Glorot-uniform weights (the right scale
    /// for tanh, the paper's hidden activation) or He-uniform for ReLU.
    pub fn new(in_dim: usize, out_dim: usize, activation: Activation, rng: &mut impl Rng) -> Self {
        assert!(
            in_dim > 0 && out_dim > 0,
            "layer dimensions must be positive"
        );
        let limit = match activation {
            Activation::ReLU => (6.0 / in_dim as f64).sqrt(),
            _ => (6.0 / (in_dim + out_dim) as f64).sqrt(),
        };
        let weights = Matrix::from_fn(in_dim, out_dim, |_, _| rng.gen_range(-limit..limit));
        DenseLayer {
            weights,
            biases: vec![0.0; out_dim],
            activation,
        }
    }

    /// Input dimension.
    pub fn in_dim(&self) -> usize {
        self.weights.rows()
    }

    /// Output dimension.
    pub fn out_dim(&self) -> usize {
        self.weights.cols()
    }

    /// Number of trainable parameters.
    pub fn num_parameters(&self) -> usize {
        self.weights.len() + self.biases.len()
    }

    /// Forward pass for a batch: returns the activated output
    /// `act(X · W + b)`, shape `batch x out_dim`.
    pub fn forward(&self, x: &Matrix) -> Matrix {
        let mut z = matmul(x, &self.weights).expect("layer shapes are validated at construction");
        self.bias_and_activate(&mut z);
        z
    }

    /// Allocation-free forward pass into a caller-owned buffer (resized in
    /// place): the training arena reuses one output matrix per layer across
    /// every batch of a run.
    pub(crate) fn forward_into(&self, x: &Matrix, out: &mut Matrix, opts: MatmulOptions) {
        out.resize(x.rows(), self.out_dim());
        matmul_into(x, &self.weights, out, opts).expect("layer shapes are validated");
        self.bias_and_activate(out);
    }

    fn bias_and_activate(&self, z: &mut Matrix) {
        bias_and_activate(z, &self.biases, self.activation);
    }

    /// Backward pass.
    ///
    /// * `input` — the batch fed to [`forward`](Self::forward) (`A_{l-1}`),
    /// * `output` — the activated output produced by the forward pass,
    /// * `grad_output` — `∂L/∂A_l`, same shape as `output`.
    ///
    /// Returns the parameter gradients and `∂L/∂A_{l-1}` for the previous
    /// layer. For the logits layer (identity activation with fused
    /// softmax/cross-entropy) pass `∂L/∂Z` directly as `grad_output`.
    pub fn backward(
        &self,
        input: &Matrix,
        output: &Matrix,
        grad_output: &Matrix,
    ) -> (LayerGradients, Matrix) {
        debug_assert_eq!(output.shape(), grad_output.shape());
        // dZ = dA ⊙ act'(A)
        let mut dz = grad_output.clone();
        if self.activation != Activation::Identity {
            for (dzv, &av) in dz.as_mut_slice().iter_mut().zip(output.as_slice()) {
                *dzv *= self.activation.derivative_from_output(av);
            }
        }
        // dW = X^T · dZ
        let dw = matmul(&input.transpose(), &dz).expect("shapes agree");
        // db = column sums of dZ
        let out = self.out_dim();
        let mut db = vec![0.0; out];
        for row in dz.as_slice().chunks(out) {
            for (b, v) in db.iter_mut().zip(row.iter()) {
                *b += v;
            }
        }
        // dX = dZ · W^T
        let dx = matmul(&dz, &self.weights.transpose()).expect("shapes agree");
        (
            LayerGradients {
                weights: dw,
                biases: db,
            },
            dx,
        )
    }
}

/// `z ← act(z + b)` row by row: the epilogue every f64 forward pass shares.
pub(crate) fn bias_and_activate(z: &mut Matrix, biases: &[f64], activation: Activation) {
    for row in z.as_mut_slice().chunks_mut(biases.len()) {
        for (v, b) in row.iter_mut().zip(biases) {
            *v = activation.apply(*v + b);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn rng() -> StdRng {
        StdRng::seed_from_u64(42)
    }

    #[test]
    fn forward_matches_hand_computation() {
        let mut layer = DenseLayer::new(2, 2, Activation::Identity, &mut rng());
        layer.weights = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]);
        layer.biases = vec![0.5, -0.5];
        let x = Matrix::from_rows(&[&[1.0, 1.0]]);
        let y = layer.forward(&x);
        assert_eq!(y.row(0), &[1.0 + 3.0 + 0.5, 2.0 + 4.0 - 0.5]);
    }

    #[test]
    fn tanh_forward_is_bounded() {
        let layer = DenseLayer::new(4, 8, Activation::Tanh, &mut rng());
        let x = Matrix::filled(3, 4, 100.0);
        let y = layer.forward(&x);
        assert!(y.as_slice().iter().all(|v| v.abs() <= 1.0));
    }

    #[test]
    fn xavier_init_is_within_limit_and_nonzero() {
        let layer = DenseLayer::new(10, 20, Activation::Tanh, &mut rng());
        let limit = (6.0 / 30.0f64).sqrt();
        assert!(layer.weights.as_slice().iter().all(|v| v.abs() < limit));
        assert!(layer.weights.max_abs() > 0.0);
        assert!(layer.biases.iter().all(|&b| b == 0.0));
        assert_eq!(layer.num_parameters(), 10 * 20 + 20);
    }

    /// Finite-difference gradient check of the full layer backward pass.
    #[test]
    fn backward_matches_finite_differences() {
        let mut r = rng();
        let layer = DenseLayer::new(3, 2, Activation::Tanh, &mut r);
        let x = Matrix::from_fn(4, 3, |_, _| r.gen_range(-1.0..1.0));

        // Scalar loss: L = sum(output²)/2, so dL/dA = A.
        let loss = |l: &DenseLayer| -> f64 {
            let a = l.forward(&x);
            a.as_slice().iter().map(|v| v * v).sum::<f64>() / 2.0
        };

        let out = layer.forward(&x);
        let (grads, dx) = layer.backward(&x, &out, &out);

        let h = 1e-6;
        // check a sample of weight gradients
        for &(i, j) in &[(0usize, 0usize), (1, 1), (2, 0)] {
            let mut lp = layer.clone();
            lp.weights[(i, j)] += h;
            let mut lm = layer.clone();
            lm.weights[(i, j)] -= h;
            let numeric = (loss(&lp) - loss(&lm)) / (2.0 * h);
            let analytic = grads.weights[(i, j)];
            assert!(
                (numeric - analytic).abs() < 1e-5,
                "dW[{i},{j}]: {numeric} vs {analytic}"
            );
        }
        // check bias gradients
        for j in 0..2 {
            let mut lp = layer.clone();
            lp.biases[j] += h;
            let mut lm = layer.clone();
            lm.biases[j] -= h;
            let numeric = (loss(&lp) - loss(&lm)) / (2.0 * h);
            assert!(
                (numeric - grads.biases[j]).abs() < 1e-5,
                "db[{j}]: {numeric} vs {}",
                grads.biases[j]
            );
        }
        // check input gradients
        for &(r_, c) in &[(0usize, 0usize), (3, 2)] {
            let mut xp = x.clone();
            xp[(r_, c)] += h;
            let mut xm = x.clone();
            xm[(r_, c)] -= h;
            let lp: f64 = layer
                .forward(&xp)
                .as_slice()
                .iter()
                .map(|v| v * v)
                .sum::<f64>()
                / 2.0;
            let lm: f64 = layer
                .forward(&xm)
                .as_slice()
                .iter()
                .map(|v| v * v)
                .sum::<f64>()
                / 2.0;
            let numeric = (lp - lm) / (2.0 * h);
            assert!(
                (numeric - dx[(r_, c)]).abs() < 1e-5,
                "dX[{r_},{c}]: {numeric} vs {}",
                dx[(r_, c)]
            );
        }
    }

    #[test]
    fn serde_round_trip() {
        let layer = DenseLayer::new(3, 2, Activation::Sigmoid, &mut rng());
        let json = serde_json::to_string(&layer).unwrap();
        let back: DenseLayer = serde_json::from_str(&json).unwrap();
        assert_eq!(layer, back);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_dimension_is_rejected() {
        let _ = DenseLayer::new(0, 2, Activation::Tanh, &mut rng());
    }
}
