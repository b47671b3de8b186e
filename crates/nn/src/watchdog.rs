//! The training loop and its watchdog: NaN/divergence detection, gradient
//! clipping, and rollback-and-retry recovery around mini-batch AdaMax.
//!
//! Training on synthetic data is numerically benign, but the robustness
//! layer cannot assume it: a corrupted sample, an aggressive learning rate,
//! or a pathological batch can blow the loss up to NaN/Inf or send the
//! gradient norm through the roof — and a single non-finite optimizer step
//! poisons every weight irreversibly. [`Network::train`] is the mini-batch
//! training loop with
//!
//! * per-step detection of non-finite loss, non-finite gradients, and
//!   gradient norms above `EXPLODE_NORM`,
//! * global gradient-norm clipping at `CLIP_NORM`,
//! * snapshots of the (verified finite) weights every `SNAPSHOT_EVERY`
//!   steps and at every epoch end, and
//! * rollback to the last good snapshot plus a retry with a fresh shuffle
//!   seed and a fresh optimizer, at most `MAX_RETRIES` times.
//!
//! When the retry budget is exhausted the trainer *gives up gracefully*:
//! it restores the last good snapshot and returns `Ok` with
//! [`TrainingReport::gave_up`] set, so callers always end with finite
//! weights — degraded training is an outcome, not a crash.

use crate::arena::TrainScratch;
use crate::dataset::Dataset;
use crate::layer::LayerGradients;
use crate::network::{Network, NetworkError};
use crate::optimizer::Optimizer;
use crate::trainer::{TrainerOptions, TrainingReport};
use nrpm_linalg::ThreadBudget;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Rollback-and-retry cycles allowed before the trainer gives up and
/// returns the last good snapshot.
const MAX_RETRIES: usize = 3;
/// Global gradient-norm clip: gradients with a larger L2 norm are scaled
/// down to this norm before the optimizer step.
const CLIP_NORM: f64 = 10.0;
/// Gradient norms above this count as an explosion fault (rollback) rather
/// than something clipping should paper over.
const EXPLODE_NORM: f64 = 1e6;
/// Steps between weight snapshots. Snapshots are only taken when every
/// weight is finite, so rollback always lands on a good state.
const SNAPSHOT_EVERY: u64 = 50;

/// What the watchdog detected at a step.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum FaultDetected {
    /// The batch loss was NaN or ±Inf.
    NonFiniteLoss,
    /// A gradient contained NaN or ±Inf.
    NonFiniteGradient,
    /// The gradient norm exceeded the explosion threshold (10⁶).
    ExplodingGradient(f64),
}

/// One detected training fault.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultEvent {
    /// Global step counter at detection (1-based, keeps counting across
    /// retries).
    pub step: u64,
    /// Epoch in which the fault occurred.
    pub epoch: usize,
    /// What was detected.
    pub kind: FaultDetected,
}

fn grad_norm(grads: &[LayerGradients]) -> f64 {
    let mut sq = 0.0;
    for g in grads {
        for v in g.weights.as_slice() {
            sq += v * v;
        }
        for b in &g.biases {
            sq += b * b;
        }
    }
    sq.sqrt()
}

fn weights_finite(net: &Network) -> bool {
    net.layers().iter().all(|l| {
        l.weights.as_slice().iter().all(|v| v.is_finite()) && l.biases.iter().all(|b| b.is_finite())
    })
}

impl Network {
    /// Trains the network in place with mini-batch AdaMax and the fused
    /// softmax/cross-entropy head, under the watchdog: gradients are
    /// clipped at a norm of 10, and a non-finite loss or gradient or a
    /// gradient norm above 10⁶ rolls the weights back to the last good
    /// snapshot and retries the epoch with a fresh shuffle seed and a fresh
    /// optimizer, up to three times.
    ///
    /// Returns `Ok` even when the retry budget runs out — the network is
    /// then the last good snapshot and [`TrainingReport::gave_up`] is set.
    /// Errors are reserved for an incompatible dataset.
    ///
    /// Each batch's gradient comes from the pooled, chunk-parallel engine
    /// (see [`crate::arena`]): it is reduced in canonical chunk order,
    /// inspected, clipped if needed, and only then applied.
    /// [`TrainerOptions::threads`] is honored (`0` resolves to the
    /// process-wide thread budget) and does not change the numerics.
    pub fn train(
        &mut self,
        data: &Dataset,
        opts: &TrainerOptions,
    ) -> Result<TrainingReport, NetworkError> {
        self.train_injecting_nan(data, opts, &[])
    }

    /// The loop of [`Network::train`]. `nan_loss_at` lists global step
    /// numbers at which the measured batch loss is replaced by NaN,
    /// simulating a mid-epoch numerical fault for the tests; steps keep
    /// counting across retries, so each listed step fires once.
    pub(crate) fn train_injecting_nan(
        &mut self,
        data: &Dataset,
        opts: &TrainerOptions,
        nan_loss_at: &[u64],
    ) -> Result<TrainingReport, NetworkError> {
        self.check_dataset(data)?;
        assert!(opts.batch_size > 0, "batch size must be positive");

        let threads = ThreadBudget::resolve(opts.threads);
        let mut scratch = TrainScratch::new(self, opts.batch_size, threads);
        let mut snapshot = self.clone();
        let mut optimizer = Optimizer::new(opts.optimizer, self.layers().len() * 2);
        let mut rng = StdRng::seed_from_u64(opts.shuffle_seed);
        let mut report = TrainingReport {
            epoch_losses: Vec::with_capacity(opts.epochs),
            ..TrainingReport::default()
        };
        let mut global_step = 0u64;

        let mut epoch = 0usize;
        'epochs: while epoch < opts.epochs {
            let order = data.shuffled_indices(&mut rng);
            let mut epoch_loss = 0.0;
            let mut samples = 0usize;
            for batch in order.chunks(opts.batch_size) {
                data.gather_into(batch, &mut scratch.x);
                data.one_hot_into(batch, &mut scratch.y);
                // The weights changed since the last refresh (optimizer
                // step or rollback); re-derive the cached transposes before
                // the backward pass reads them.
                scratch.refresh_weights_t(self);
                let mut loss = self.accumulate_gradients(&mut scratch);
                global_step += 1;
                if nan_loss_at.contains(&global_step) {
                    loss = f64::NAN;
                }
                let norm = grad_norm(&scratch.total);
                let detected = if !loss.is_finite() {
                    Some(FaultDetected::NonFiniteLoss)
                } else if !norm.is_finite() {
                    Some(FaultDetected::NonFiniteGradient)
                } else if norm > EXPLODE_NORM {
                    Some(FaultDetected::ExplodingGradient(norm))
                } else {
                    None
                };
                if let Some(kind) = detected {
                    report.faults.push(FaultEvent {
                        step: global_step,
                        epoch,
                        kind,
                    });
                    // Roll back to the last good weights and drop the
                    // (possibly poisoned) optimizer state.
                    *self = snapshot.clone();
                    optimizer = Optimizer::new(opts.optimizer, self.layers().len() * 2);
                    if report.retries_used >= MAX_RETRIES {
                        report.gave_up = true;
                        break 'epochs;
                    }
                    report.retries_used += 1;
                    // Fresh shuffle stream: the retry must not replay the
                    // exact batch sequence that diverged.
                    rng = StdRng::seed_from_u64(
                        opts.shuffle_seed
                            ^ (report.retries_used as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15),
                    );
                    continue 'epochs; // restart the epoch
                }
                if norm > CLIP_NORM {
                    scratch.scale_total(CLIP_NORM / norm);
                    report.clipped_steps += 1;
                }
                self.apply_gradients(&scratch.total, &mut optimizer);
                report.steps += 1;
                epoch_loss += loss * batch.len() as f64;
                samples += batch.len();
                if global_step.is_multiple_of(SNAPSHOT_EVERY) && weights_finite(self) {
                    snapshot = self.clone();
                }
                // Training runs as background work in serving processes:
                // ceding the CPU once per batch lets latency-sensitive
                // threads preempt promptly on machines with few cores, at
                // sub-microsecond cost per batch when nothing is waiting.
                std::thread::yield_now();
            }
            report.epoch_losses.push(epoch_loss / samples as f64);
            // The epoch completed with a finite loss; its end state is a
            // good rollback target even between periodic snapshots. After
            // the last epoch no step can fault, so no snapshot is needed.
            if epoch + 1 < opts.epochs && weights_finite(self) {
                snapshot = self.clone();
            }
            epoch += 1;
        }
        Ok(report)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::network::NetworkConfig;
    use nrpm_linalg::Matrix;
    use rand::Rng;

    /// One blob of `n_per_class` points in 2D around each of `centers`,
    /// every coordinate multiplied by `scale`.
    fn blobs_at(
        centers: &[(f64, f64)],
        n_per_class: usize,
        spread: f64,
        scale: f64,
        seed: u64,
    ) -> Dataset {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut rows = Vec::new();
        let mut labels = Vec::new();
        for (class, &(cx, cy)) in centers.iter().enumerate() {
            for _ in 0..n_per_class {
                rows.push(vec![
                    scale * (cx + rng.gen_range(-spread..spread)),
                    scale * (cy + rng.gen_range(-spread..spread)),
                ]);
                labels.push(class);
            }
        }
        let refs: Vec<&[f64]> = rows.iter().map(|r| r.as_slice()).collect();
        Dataset::new(Matrix::from_rows(&refs), labels, centers.len()).unwrap()
    }

    /// Two blobs around (-1, -1) and (1, 1), scaled by `scale`.
    fn blobs(n_per_class: usize, seed: u64, scale: f64) -> Dataset {
        blobs_at(&[(-1.0, -1.0), (1.0, 1.0)], n_per_class, 0.3, scale, seed)
    }

    /// A single logits layer with zero weights: its first gradient is
    /// `Xᵀ (1/2 − Y) / n`, whose norm on [`blobs`] grows with the input
    /// scale — the data alone decides whether a step clips or explodes.
    fn zeroed_linear() -> Network {
        let mut net = Network::new(&NetworkConfig::new(&[2, 2]), 1);
        net.layers_mut()[0].weights.fill_zero();
        net
    }

    /// The plain mini-batch loop with no watchdog: shuffle, gradient,
    /// optimizer step.
    fn train_plain(net: &mut Network, data: &Dataset, opts: &TrainerOptions) -> Vec<f64> {
        let mut scratch = TrainScratch::new(net, opts.batch_size, 1);
        let mut optimizer = Optimizer::new(opts.optimizer, net.layers().len() * 2);
        let mut rng = StdRng::seed_from_u64(opts.shuffle_seed);
        let mut losses = Vec::new();
        for _ in 0..opts.epochs {
            let mut sum = 0.0;
            for batch in data.shuffled_indices(&mut rng).chunks(opts.batch_size) {
                data.gather_into(batch, &mut scratch.x);
                data.one_hot_into(batch, &mut scratch.y);
                scratch.refresh_weights_t(net);
                sum += net.accumulate_gradients(&mut scratch) * batch.len() as f64;
                net.apply_gradients(&scratch.total, &mut optimizer);
            }
            losses.push(sum / data.len() as f64);
        }
        losses
    }

    #[test]
    fn guarded_training_matches_plain_training_without_faults() {
        let data = blobs(40, 1, 1.0);
        let opts = TrainerOptions {
            epochs: 10,
            batch_size: 16,
            ..Default::default()
        };
        let mut plain = Network::new(&NetworkConfig::new(&[2, 8, 2]), 3);
        let mut guarded = plain.clone();
        let losses = train_plain(&mut plain, &data, &opts);
        let report = guarded.train(&data, &opts).unwrap();
        assert_eq!(
            report.clipped_steps, 0,
            "nothing to clip on unit-scale data"
        );
        assert_eq!(plain, guarded);
        assert_eq!(losses, report.epoch_losses);
        assert!(report.faults.is_empty());
        assert_eq!(report.retries_used, 0);
        assert!(!report.gave_up);
    }

    #[test]
    fn injected_nan_loss_triggers_rollback_and_retry() {
        let data = blobs(40, 5, 1.0);
        let opts = TrainerOptions {
            epochs: 8,
            batch_size: 16,
            ..Default::default()
        };
        let mut net = Network::new(&NetworkConfig::new(&[2, 8, 2]), 7);
        let report = net.train_injecting_nan(&data, &opts, &[7]).unwrap();
        assert_eq!(report.faults.len(), 1);
        assert_eq!(report.faults[0].kind, FaultDetected::NonFiniteLoss);
        assert_eq!(report.retries_used, 1);
        assert!(!report.gave_up);
        assert!(report.final_loss().is_finite());
        assert!(
            net.accuracy(&data).unwrap() > 0.9,
            "recovered run must still learn"
        );
    }

    #[test]
    fn exhausted_retries_give_up_on_the_last_good_snapshot() {
        let data = blobs(20, 9, 1.0);
        let opts = TrainerOptions {
            epochs: 50,
            batch_size: 10,
            ..Default::default()
        };
        let init = Network::new(&NetworkConfig::new(&[2, 6, 2]), 11);
        let mut net = init.clone();
        // Fault every step from 1 to 1000: unrecoverable by reshuffling.
        let every_step: Vec<u64> = (1..1000).collect();
        let report = net.train_injecting_nan(&data, &opts, &every_step).unwrap();
        assert!(report.gave_up);
        assert_eq!(report.retries_used, MAX_RETRIES);
        assert_eq!(
            report.faults.len(),
            MAX_RETRIES + 1,
            "one fault per attempt"
        );
        // The network rolled back to the only good snapshot: initialization.
        assert_eq!(net, init);
    }

    #[test]
    fn gradient_clipping_bounds_the_applied_norm() {
        // Inputs of magnitude ~100 give a first gradient norm of ~100:
        // clipped to 10, yet well below the explosion threshold.
        let data = blobs(30, 13, 100.0);
        let opts = TrainerOptions {
            epochs: 5,
            batch_size: 15,
            ..Default::default()
        };
        let mut net = zeroed_linear();
        let report = net.train(&data, &opts).unwrap();
        assert!(report.clipped_steps > 0);
        assert!(report.faults.is_empty(), "{:?}", report.faults);
        assert!(report.final_loss().is_finite());
        assert_eq!(net.accuracy(&data).unwrap(), 1.0);
    }

    #[test]
    fn exploding_gradients_are_detected_as_faults() {
        // Inputs of magnitude ~1e8 give a gradient norm of ~1e8 at every
        // attempt, since each rollback lands on the same zero weights.
        let data = blobs(20, 19, 1e8);
        let opts = TrainerOptions {
            epochs: 3,
            batch_size: 10,
            ..Default::default()
        };
        let init = zeroed_linear();
        let mut net = init.clone();
        let report = net.train(&data, &opts).unwrap();
        assert!(report.gave_up);
        assert_eq!(report.faults.len(), MAX_RETRIES + 1);
        assert!(report
            .faults
            .iter()
            .all(|f| matches!(f.kind, FaultDetected::ExplodingGradient(n) if n > EXPLODE_NORM)));
        assert_eq!(report.steps, 0);
        assert_eq!(net, init);
    }

    /// The guarded trainer must recover from a mid-epoch NaN loss by
    /// rolling back to the last good snapshot and retrying — and still
    /// learn the task.
    #[test]
    fn trainer_recovers_from_injected_nan_loss() {
        let data = blobs_at(&[(-2.0, -2.0), (2.0, -2.0), (0.0, 2.0)], 50, 0.5, 1.0, 42);
        let opts = TrainerOptions {
            epochs: 12,
            batch_size: 25,
            ..Default::default()
        };
        // Poison two steps in different epochs; 150 samples / 25 per batch
        // = 6 steps per epoch, so steps 9 and 31 land mid-epoch 1 and
        // mid-epoch 5.
        let mut net = Network::new(&NetworkConfig::new(&[2, 16, 3]), 7);
        let report = net.train_injecting_nan(&data, &opts, &[9, 31]).unwrap();

        assert_eq!(
            report.faults.len(),
            2,
            "both injected faults must be caught"
        );
        assert!(report
            .faults
            .iter()
            .all(|f| f.kind == FaultDetected::NonFiniteLoss));
        assert_eq!(report.retries_used, 2);
        assert!(!report.gave_up, "two faults fit inside the retry budget");

        // Recovery must leave a working model, not just finite weights.
        let final_loss = report.final_loss();
        assert!(final_loss.is_finite());
        assert!(
            report.epoch_losses.first().unwrap() > &final_loss,
            "loss must still decrease across the run: {:?}",
            report.epoch_losses
        );
        let acc = net.accuracy(&data).unwrap();
        assert!(acc > 0.95, "recovered network only reaches {acc} accuracy");
    }
}
