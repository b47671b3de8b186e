//! Mini-batch training with softmax + cross-entropy.
//!
//! The gradient of a mini-batch is embarrassingly data-parallel: the batch
//! is cut into fixed-size row chunks (see [`crate::arena`]), each worker
//! runs forward + backward on its chunks inside a preallocated arena, and
//! the per-chunk sum-gradients are reduced in canonical chunk order before
//! the optimizer step. Because the chunk boundaries and the reduction order
//! never depend on the worker count, training is **bitwise identical** at
//! any thread count for a fixed seed — the thread knob only changes speed.

use crate::activation::softmax_rows;
use crate::dataset::Dataset;
use crate::layer::LayerGradients;
use crate::network::{Network, NetworkError};
use crate::optimizer::{Optimizer, OptimizerKind};
use crate::watchdog::WatchdogOptions;
use nrpm_linalg::Matrix;

/// Options of a training run.
#[derive(Debug, Clone)]
pub struct TrainerOptions {
    /// Number of passes over the training set.
    pub epochs: usize,
    /// Mini-batch size.
    pub batch_size: usize,
    /// Optimizer configuration (default: the paper's AdaMax).
    pub optimizer: OptimizerKind,
    /// Seed of the shuffling RNG, for reproducible runs.
    pub shuffle_seed: u64,
    /// Worker threads for the per-batch gradient computation. `0` (the
    /// default) resolves to the process-wide
    /// [`ThreadBudget`](nrpm_linalg::ThreadBudget) (which honors the
    /// `NRPM_THREADS` environment variable); `1` is sequential. The result
    /// is bitwise identical at every thread count — the knob only changes
    /// speed.
    pub threads: usize,
    /// L2 weight decay coefficient added to the weight gradients (biases
    /// are exempt, as usual). `0` disables it.
    pub weight_decay: f64,
    /// Early stopping: end training when the epoch loss has not improved
    /// by at least `min_delta` for `patience` consecutive epochs.
    pub patience: Option<usize>,
    /// Minimum loss improvement that counts for [`Self::patience`].
    pub min_delta: f64,
}

impl Default for TrainerOptions {
    fn default() -> Self {
        TrainerOptions {
            epochs: 10,
            batch_size: 128,
            optimizer: OptimizerKind::adamax_default(),
            shuffle_seed: 0x5eed,
            threads: 0,
            weight_decay: 0.0,
            patience: None,
            min_delta: 1e-4,
        }
    }
}

/// Summary of a completed training run.
#[derive(Debug, Clone)]
pub struct TrainingReport {
    /// Mean cross-entropy per epoch, in order.
    pub epoch_losses: Vec<f64>,
    /// Number of optimizer steps taken.
    pub steps: u64,
}

impl TrainingReport {
    /// Loss of the final epoch (NaN if no epoch ran).
    pub fn final_loss(&self) -> f64 {
        self.epoch_losses.last().copied().unwrap_or(f64::NAN)
    }
}

impl Network {
    /// Trains the network in place with mini-batch gradient descent and the
    /// fused softmax/cross-entropy head. Returns the per-epoch losses.
    ///
    /// This is [`Network::train_guarded`] with clipping off, no explosion
    /// threshold and no retries: a run without a non-finite loss or
    /// gradient is exactly the plain mini-batch loop, and one with such a
    /// fault stops on the last finite weights instead of training on NaN.
    pub fn train(
        &mut self,
        data: &Dataset,
        opts: &TrainerOptions,
    ) -> Result<TrainingReport, NetworkError> {
        Ok(self
            .train_guarded(data, opts, &WatchdogOptions::unguarded())?
            .report)
    }

    /// Computes the mean cross-entropy loss and parameter gradients of one
    /// batch without touching the network's weights.
    pub fn compute_gradients(&self, x: &Matrix, y_one_hot: &Matrix) -> (f64, Vec<LayerGradients>) {
        let batch = x.rows() as f64;
        let classes = self.num_classes();

        let activations = self.forward_all(x);

        // Fused softmax + cross-entropy.
        let mut probs = activations.last().expect("non-empty").clone();
        softmax_rows(probs.as_mut_slice(), classes);
        let mut loss = 0.0;
        for (p, y) in probs.as_slice().iter().zip(y_one_hot.as_slice()) {
            if *y > 0.0 {
                loss -= y * p.max(1e-300).ln();
            }
        }
        loss /= batch;

        // dL/dZ_logits = (P - Y) / batch.
        let mut grad = probs;
        grad.sub_assign(y_one_hot).expect("shapes agree");
        grad.scale_inplace(1.0 / batch);

        let num_layers = self.layers().len();
        let mut grads: Vec<Option<LayerGradients>> = (0..num_layers).map(|_| None).collect();
        for l in (0..num_layers).rev() {
            let layer = &self.layers()[l];
            let (g, dx) = layer.backward(&activations[l], &activations[l + 1], &grad);
            grads[l] = Some(g);
            grad = dx;
        }
        (
            loss,
            grads.into_iter().map(|g| g.expect("filled")).collect(),
        )
    }

    /// Multiplicative L2 shrink of the weight matrices (decoupled weight
    /// decay, AdamW-style: applied directly to the parameters rather than
    /// mixed into the adaptive gradient statistics). Biases are exempt.
    pub(crate) fn apply_weight_decay(&mut self, decay: f64) {
        let factor = 1.0 - decay;
        for layer in self.layers_mut() {
            layer.weights.scale_inplace(factor);
        }
    }

    /// Applies precomputed gradients with one optimizer step.
    pub fn apply_gradients(&mut self, grads: &[LayerGradients], optimizer: &mut Optimizer) {
        assert_eq!(
            grads.len(),
            self.layers().len(),
            "one gradient set per layer"
        );
        optimizer.next_step();
        for (l, g) in grads.iter().enumerate() {
            let layer = &mut self.layers_mut()[l];
            optimizer.step(2 * l, layer.weights.as_mut_slice(), g.weights.as_slice());
            optimizer.step(2 * l + 1, &mut layer.biases, &g.biases);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::network::NetworkConfig;
    use nrpm_linalg::Matrix;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    /// Two well-separated Gaussian-ish blobs.
    fn blobs(n_per_class: usize, seed: u64) -> Dataset {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut rows = Vec::new();
        let mut labels = Vec::new();
        for class in 0..2usize {
            let center = if class == 0 { -1.0 } else { 1.0 };
            for _ in 0..n_per_class {
                rows.push(vec![
                    center + rng.gen_range(-0.3..0.3),
                    center + rng.gen_range(-0.3..0.3),
                ]);
                labels.push(class);
            }
        }
        let refs: Vec<&[f64]> = rows.iter().map(|r| r.as_slice()).collect();
        Dataset::new(Matrix::from_rows(&refs), labels, 2).unwrap()
    }

    #[test]
    fn loss_decreases_on_separable_data() {
        let data = blobs(50, 1);
        let mut net = Network::new(&NetworkConfig::new(&[2, 8, 2]), 2);
        let report = net
            .train(
                &data,
                &TrainerOptions {
                    epochs: 20,
                    batch_size: 16,
                    ..Default::default()
                },
            )
            .unwrap();
        assert!(report.epoch_losses[0] > report.final_loss());
        assert!(net.accuracy(&data).unwrap() > 0.95);
        assert!(report.steps > 0);
    }

    #[test]
    fn xor_is_learnable_with_tanh_hidden_layer() {
        let inputs = Matrix::from_rows(&[&[0.0, 0.0], &[0.0, 1.0], &[1.0, 0.0], &[1.0, 1.0]]);
        let data = Dataset::new(inputs, vec![0, 1, 1, 0], 2).unwrap();
        let mut net = Network::new(&NetworkConfig::new(&[2, 16, 2]), 7);
        net.train(
            &data,
            &TrainerOptions {
                epochs: 500,
                batch_size: 4,
                ..Default::default()
            },
        )
        .unwrap();
        assert_eq!(net.accuracy(&data).unwrap(), 1.0);
    }

    #[test]
    fn all_optimizers_make_progress() {
        let data = blobs(40, 3);
        for kind in [
            OptimizerKind::sgd(0.5),
            OptimizerKind::adam_default(),
            OptimizerKind::adamax_default(),
        ] {
            let mut net = Network::new(&NetworkConfig::new(&[2, 8, 2]), 5);
            let before = net.cross_entropy(&data).unwrap();
            net.train(
                &data,
                &TrainerOptions {
                    epochs: 15,
                    batch_size: 20,
                    optimizer: kind,
                    ..Default::default()
                },
            )
            .unwrap();
            let after = net.cross_entropy(&data).unwrap();
            assert!(after < before, "{kind:?}: {after} !< {before}");
        }
    }

    #[test]
    fn training_is_reproducible_given_seeds() {
        let data = blobs(30, 9);
        let opts = TrainerOptions {
            epochs: 5,
            batch_size: 8,
            ..Default::default()
        };
        let mut a = Network::new(&NetworkConfig::new(&[2, 6, 2]), 11);
        let mut b = Network::new(&NetworkConfig::new(&[2, 6, 2]), 11);
        let ra = a.train(&data, &opts).unwrap();
        let rb = b.train(&data, &opts).unwrap();
        assert_eq!(a, b);
        assert_eq!(ra.epoch_losses, rb.epoch_losses);
    }

    /// The determinism guarantee of the pooled trainer: the same seed
    /// produces **bitwise identical** final weights and losses at every
    /// worker-thread count, because the chunk boundaries and the gradient
    /// reduction order never depend on the thread count.
    #[test]
    fn training_is_bitwise_identical_at_every_thread_count() {
        let data = blobs(64, 13);
        let seq_opts = TrainerOptions {
            epochs: 3,
            batch_size: 32,
            threads: 1,
            ..Default::default()
        };
        let mut a = Network::new(&NetworkConfig::new(&[2, 8, 2]), 21);
        let ra = a.train(&data, &seq_opts).unwrap();
        for threads in [2usize, 3, 4, 8] {
            let par_opts = TrainerOptions {
                threads,
                ..seq_opts.clone()
            };
            let mut b = Network::new(&NetworkConfig::new(&[2, 8, 2]), 21);
            let rb = b.train(&data, &par_opts).unwrap();
            assert_eq!(ra.epoch_losses, rb.epoch_losses, "threads = {threads}");
            assert_eq!(a, b, "threads = {threads}");
        }
    }

    #[test]
    fn threaded_gradients_equal_sequential_gradients() {
        let data = blobs(32, 17);
        let net = Network::new(&NetworkConfig::new(&[2, 6, 2]), 23);
        let idx: Vec<usize> = (0..data.len()).collect();
        let x = data.gather(&idx);
        let y = data.one_hot(&idx);

        let (seq_loss, seq_grads) = net.compute_gradients(&x, &y);

        // Manual chunked accumulation (the core of the threaded path).
        let half = data.len() / 2;
        let (l1, g1) = net.compute_gradients(&x.block(0, 0, half, 2), &y.block(0, 0, half, 2));
        let (l2, g2) = net.compute_gradients(
            &x.block(half, 0, data.len() - half, 2),
            &y.block(half, 0, data.len() - half, 2),
        );
        let w1 = half as f64 / data.len() as f64;
        let w2 = 1.0 - w1;
        assert!((seq_loss - (l1 * w1 + l2 * w2)).abs() < 1e-12);
        for ((s, a), b) in seq_grads.iter().zip(g1.iter()).zip(g2.iter()) {
            for ((sv, av), bv) in s
                .weights
                .as_slice()
                .iter()
                .zip(a.weights.as_slice())
                .zip(b.weights.as_slice())
            {
                assert!((sv - (av * w1 + bv * w2)).abs() < 1e-12);
            }
        }
    }

    #[test]
    fn weight_decay_shrinks_weights() {
        let data = blobs(20, 41);
        let mut decayed = Network::new(&NetworkConfig::new(&[2, 8, 2]), 43);
        let mut plain = decayed.clone();
        let base = TrainerOptions {
            epochs: 10,
            batch_size: 20,
            optimizer: OptimizerKind::sgd(0.0), // isolate the decay effect
            ..Default::default()
        };
        plain.train(&data, &base.clone()).unwrap();
        decayed
            .train(
                &data,
                &TrainerOptions {
                    weight_decay: 0.1,
                    ..base
                },
            )
            .unwrap();
        // With lr = 0 the plain run leaves weights untouched; the decayed
        // run must have strictly smaller norms.
        for (p, d) in plain.layers().iter().zip(decayed.layers()) {
            assert!(d.weights.frobenius_norm() < p.weights.frobenius_norm() * 0.5);
        }
    }

    #[test]
    fn early_stopping_cuts_training_short() {
        let data = blobs(30, 47);
        let mut net = Network::new(&NetworkConfig::new(&[2, 8, 2]), 53);
        let report = net
            .train(
                &data,
                &TrainerOptions {
                    epochs: 200,
                    batch_size: 16,
                    patience: Some(3),
                    min_delta: 1e-3,
                    ..Default::default()
                },
            )
            .unwrap();
        assert!(
            report.epoch_losses.len() < 200,
            "expected early stop, ran all {} epochs",
            report.epoch_losses.len()
        );
        // Must still have learned the blobs.
        assert!(net.accuracy(&data).unwrap() > 0.95);
    }

    #[test]
    fn incompatible_dataset_is_rejected_before_training() {
        let data = blobs(10, 1);
        let mut net = Network::new(&NetworkConfig::new(&[3, 4, 2]), 1);
        assert!(net.train(&data, &TrainerOptions::default()).is_err());
    }

    /// End-to-end gradient check: backprop through a 2-hidden-layer network
    /// against finite differences of the cross-entropy loss.
    #[test]
    fn full_backprop_matches_finite_differences() {
        let mut rng = StdRng::seed_from_u64(21);
        let net = Network::new(&NetworkConfig::new(&[3, 5, 4, 2]), 13);
        let x = Matrix::from_fn(6, 3, |_, _| rng.gen_range(-1.0..1.0));
        let labels = [0usize, 1, 0, 1, 1, 0];
        let mut y = Matrix::zeros(6, 2);
        for (r, &l) in labels.iter().enumerate() {
            y[(r, l)] = 1.0;
        }

        let ce = |n: &Network| -> f64 {
            let mut p = n.logits(&x).unwrap();
            softmax_rows(p.as_mut_slice(), 2);
            let mut loss = 0.0;
            for (r, &l) in labels.iter().enumerate() {
                loss -= p[(r, l)].max(1e-300).ln();
            }
            loss / 6.0
        };

        let (_, grads) = net.compute_gradients(&x, &y);

        let h = 1e-5;
        #[allow(clippy::needless_range_loop)]
        for l in 0..net.layers().len() {
            for &(i, j) in &[(0usize, 0usize), (1, 1)] {
                if i >= net.layers()[l].weights.rows() || j >= net.layers()[l].weights.cols() {
                    continue;
                }
                let analytic = grads[l].weights[(i, j)];
                let mut np = net.clone();
                np.layers_mut()[l].weights[(i, j)] += h;
                let mut nm = net.clone();
                nm.layers_mut()[l].weights[(i, j)] -= h;
                let numeric = (ce(&np) - ce(&nm)) / (2.0 * h);
                assert!(
                    (numeric - analytic).abs() < 1e-6,
                    "layer {l} W[{i},{j}]: numeric {numeric} vs analytic {analytic}"
                );
            }
            // bias spot-check
            let analytic = grads[l].biases[0];
            let mut np = net.clone();
            np.layers_mut()[l].biases[0] += h;
            let mut nm = net.clone();
            nm.layers_mut()[l].biases[0] -= h;
            let numeric = (ce(&np) - ce(&nm)) / (2.0 * h);
            assert!(
                (numeric - analytic).abs() < 1e-6,
                "layer {l} db[0]: numeric {numeric} vs analytic {analytic}"
            );
        }
    }
}
