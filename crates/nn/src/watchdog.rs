//! A training watchdog: NaN/divergence detection, gradient clipping, and
//! rollback-and-retry recovery around the mini-batch trainer.
//!
//! Training on synthetic data is numerically benign, but the robustness
//! layer cannot assume it: a corrupted sample, an aggressive learning rate,
//! or a pathological batch can blow the loss up to NaN/Inf or send the
//! gradient norm through the roof — and a single non-finite optimizer step
//! poisons every weight irreversibly. [`Network::train_guarded`] is the
//! mini-batch training loop ([`Network::train`] runs it unguarded) with
//!
//! * per-step detection of non-finite loss, non-finite gradients, and
//!   exploding gradient norms,
//! * global gradient-norm clipping below the explosion threshold,
//! * periodic snapshots of the (verified finite) weights, and
//! * rollback to the last good snapshot plus a retry with a fresh shuffle
//!   seed and a reset optimizer, bounded by [`WatchdogOptions::max_retries`],
//! * optional per-epoch checkpoints on disk so long pretraining runs are
//!   resumable via [`Network::load`].
//!
//! When the retry budget is exhausted the guarded trainer *gives up
//! gracefully*: it restores the last good snapshot and returns `Ok` with
//! [`GuardedReport::gave_up`] set, so callers always end with finite
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
use std::path::PathBuf;

/// Configuration of the training watchdog.
#[derive(Debug, Clone)]
pub struct WatchdogOptions {
    /// How many rollback-and-retry cycles are allowed before the guarded
    /// trainer gives up and returns the last good snapshot.
    pub max_retries: usize,
    /// Global gradient-norm clip: gradients with a larger L2 norm are
    /// scaled down to this value before the optimizer step. `None`
    /// disables clipping.
    pub clip_norm: Option<f64>,
    /// Gradient norms above this threshold count as an explosion fault
    /// (rollback) rather than something clipping should paper over.
    pub explode_norm: f64,
    /// Steps between weight snapshots. Snapshots are only taken when every
    /// weight is finite, so rollback always lands on a good state.
    pub snapshot_every: usize,
    /// When set, the network is saved here after every completed epoch, so
    /// an interrupted pretraining run can resume from the checkpoint via
    /// [`Network::load`].
    pub checkpoint_path: Option<PathBuf>,
    /// Testing hook: global step numbers at which the measured batch loss
    /// is replaced by NaN, simulating a mid-epoch numerical fault. Steps
    /// keep counting across retries, so each listed step fires once.
    pub inject_nan_loss_at: Vec<u64>,
}

impl Default for WatchdogOptions {
    fn default() -> Self {
        WatchdogOptions {
            max_retries: 3,
            clip_norm: Some(10.0),
            explode_norm: 1e6,
            snapshot_every: 50,
            checkpoint_path: None,
            inject_nan_loss_at: Vec::new(),
        }
    }
}

impl WatchdogOptions {
    /// The watchdog of [`Network::train`]: no clipping, no explosion
    /// threshold and no retries. A run without faults is then bitwise the
    /// plain mini-batch loop, and a non-finite loss or gradient ends it on
    /// the last finite snapshot.
    pub(crate) fn unguarded() -> Self {
        WatchdogOptions {
            max_retries: 0,
            clip_norm: None,
            explode_norm: f64::INFINITY,
            ..Default::default()
        }
    }
}

/// What the watchdog detected at a step.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum FaultDetected {
    /// The batch loss was NaN or ±Inf.
    NonFiniteLoss,
    /// A gradient contained NaN or ±Inf.
    NonFiniteGradient,
    /// The gradient norm exceeded [`WatchdogOptions::explode_norm`].
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

/// Result of a guarded training run.
#[derive(Debug, Clone)]
pub struct GuardedReport {
    /// The per-epoch losses and step count of the surviving run.
    pub report: TrainingReport,
    /// Every fault the watchdog detected, in order.
    pub faults: Vec<FaultEvent>,
    /// Rollback-and-retry cycles consumed.
    pub retries_used: usize,
    /// `true` when the retry budget was exhausted and training stopped on
    /// the last good snapshot instead of completing.
    pub gave_up: bool,
    /// Steps whose gradients were norm-clipped.
    pub clipped_steps: u64,
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
    /// Trains the network under the watchdog: non-finite
    /// losses/gradients and gradient explosions roll the weights
    /// back to the last good snapshot and retry the epoch with a fresh
    /// shuffle seed and a reset optimizer, up to
    /// [`WatchdogOptions::max_retries`] times.
    ///
    /// Returns `Ok` even when the retry budget runs out — the network is
    /// then the last good snapshot and [`GuardedReport::gave_up`] is set.
    /// Errors are reserved for structural problems (incompatible dataset,
    /// checkpoint I/O failures).
    ///
    /// Each batch's gradient comes from the pooled, chunk-parallel engine
    /// (see [`crate::arena`]): it is reduced in canonical chunk order,
    /// inspected, optionally clipped, and only then applied. [`TrainerOptions::threads`] is honored (`0` resolves to the
    /// process-wide thread budget) and does not change the numerics.
    pub fn train_guarded(
        &mut self,
        data: &Dataset,
        opts: &TrainerOptions,
        guard: &WatchdogOptions,
    ) -> Result<GuardedReport, NetworkError> {
        self.check_dataset(data)?;
        assert!(opts.batch_size > 0, "batch size must be positive");

        let threads = ThreadBudget::resolve(opts.threads);
        let mut scratch = TrainScratch::new(self, opts.batch_size, threads);
        let mut snapshot = self.clone();
        let mut optimizer = Optimizer::new(opts.optimizer, self.layers().len() * 2);
        let mut rng = StdRng::seed_from_u64(opts.shuffle_seed);

        let mut faults: Vec<FaultEvent> = Vec::new();
        let mut retries_used = 0usize;
        let mut gave_up = false;
        let mut clipped_steps = 0u64;
        let mut applied_steps = 0u64;
        let mut global_step = 0u64;
        let mut epoch_losses = Vec::with_capacity(opts.epochs);
        let mut best_loss = f64::INFINITY;
        let mut stale_epochs = 0usize;

        let mut epoch = 0usize;
        'epochs: while epoch < opts.epochs {
            let order = data.shuffled_indices(&mut rng);
            let mut epoch_loss = 0.0;
            let mut samples = 0usize;
            for batch in order.chunks(opts.batch_size) {
                data.gather_into(batch, &mut scratch.x);
                data.one_hot_into(batch, &mut scratch.y);
                if opts.weight_decay > 0.0 {
                    self.apply_weight_decay(opts.weight_decay);
                }
                // The weights changed since the last refresh (optimizer
                // step, decay, or rollback); re-derive the cached
                // transposes before the backward pass reads them.
                scratch.refresh_weights_t(self);
                let mut loss = self.accumulate_gradients(&mut scratch);
                global_step += 1;
                if guard.inject_nan_loss_at.contains(&global_step) {
                    loss = f64::NAN;
                }
                let norm = grad_norm(&scratch.total);
                let detected = if !loss.is_finite() {
                    Some(FaultDetected::NonFiniteLoss)
                } else if !norm.is_finite() {
                    Some(FaultDetected::NonFiniteGradient)
                } else if norm > guard.explode_norm {
                    Some(FaultDetected::ExplodingGradient(norm))
                } else {
                    None
                };
                if let Some(kind) = detected {
                    faults.push(FaultEvent {
                        step: global_step,
                        epoch,
                        kind,
                    });
                    // Roll back to the last good weights and drop the
                    // (possibly poisoned) optimizer state.
                    *self = snapshot.clone();
                    optimizer = Optimizer::new(opts.optimizer, self.layers().len() * 2);
                    if retries_used >= guard.max_retries {
                        gave_up = true;
                        break 'epochs;
                    }
                    retries_used += 1;
                    // Fresh shuffle stream: the retry must not replay the
                    // exact batch sequence that diverged.
                    rng = StdRng::seed_from_u64(
                        opts.shuffle_seed
                            ^ (retries_used as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15),
                    );
                    continue 'epochs; // restart the epoch
                }
                if let Some(clip) = guard.clip_norm {
                    if norm > clip && norm > 0.0 {
                        scratch.scale_total(clip / norm);
                        clipped_steps += 1;
                    }
                }
                self.apply_gradients(&scratch.total, &mut optimizer);
                applied_steps += 1;
                epoch_loss += loss * batch.len() as f64;
                samples += batch.len();
                if guard.snapshot_every > 0
                    && global_step.is_multiple_of(guard.snapshot_every as u64)
                    && weights_finite(self)
                {
                    snapshot = self.clone();
                }
                // Training runs as background work in serving processes:
                // ceding the CPU once per batch lets latency-sensitive
                // threads preempt promptly on machines with few cores, at
                // sub-microsecond cost per batch when nothing is waiting.
                std::thread::yield_now();
            }
            let mean_loss = epoch_loss / samples as f64;
            epoch_losses.push(mean_loss);
            // The epoch completed with a finite loss; its end state is a
            // good rollback target even between periodic snapshots. After
            // the last epoch no step can fault, so no snapshot is needed.
            if epoch + 1 < opts.epochs && weights_finite(self) {
                snapshot = self.clone();
            }
            if let Some(path) = &guard.checkpoint_path {
                self.save(path)?;
            }
            if let Some(patience) = opts.patience {
                if mean_loss < best_loss - opts.min_delta {
                    best_loss = mean_loss;
                    stale_epochs = 0;
                } else {
                    stale_epochs += 1;
                    if stale_epochs >= patience {
                        break;
                    }
                }
            }
            epoch += 1;
        }

        Ok(GuardedReport {
            report: TrainingReport {
                epoch_losses,
                steps: applied_steps,
            },
            faults,
            retries_used,
            gave_up,
            clipped_steps,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::network::NetworkConfig;
    use nrpm_linalg::Matrix;
    use rand::Rng;

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
    fn guarded_training_matches_plain_training_without_faults() {
        let data = blobs(40, 1);
        let opts = TrainerOptions {
            epochs: 10,
            batch_size: 16,
            ..Default::default()
        };
        let guard = WatchdogOptions {
            clip_norm: None,
            ..Default::default()
        };
        let mut plain = Network::new(&NetworkConfig::new(&[2, 8, 2]), 3);
        let mut guarded = plain.clone();
        let r1 = plain.train(&data, &opts).unwrap();
        let r2 = guarded.train_guarded(&data, &opts, &guard).unwrap();
        assert_eq!(plain, guarded);
        assert_eq!(r1.epoch_losses, r2.report.epoch_losses);
        assert!(r2.faults.is_empty());
        assert_eq!(r2.retries_used, 0);
        assert!(!r2.gave_up);
    }

    #[test]
    fn injected_nan_loss_triggers_rollback_and_retry() {
        let data = blobs(40, 5);
        let opts = TrainerOptions {
            epochs: 8,
            batch_size: 16,
            ..Default::default()
        };
        let guard = WatchdogOptions {
            inject_nan_loss_at: vec![7],
            ..Default::default()
        };
        let mut net = Network::new(&NetworkConfig::new(&[2, 8, 2]), 7);
        let report = net.train_guarded(&data, &opts, &guard).unwrap();
        assert_eq!(report.faults.len(), 1);
        assert_eq!(report.faults[0].kind, FaultDetected::NonFiniteLoss);
        assert_eq!(report.retries_used, 1);
        assert!(!report.gave_up);
        assert!(report.report.final_loss().is_finite());
        assert!(
            net.accuracy(&data).unwrap() > 0.9,
            "recovered run must still learn"
        );
    }

    #[test]
    fn exhausted_retries_give_up_on_the_last_good_snapshot() {
        let data = blobs(20, 9);
        let opts = TrainerOptions {
            epochs: 50,
            batch_size: 10,
            ..Default::default()
        };
        // Fault every step from 1 to 1000: unrecoverable by reshuffling.
        let guard = WatchdogOptions {
            max_retries: 2,
            inject_nan_loss_at: (1..1000).collect(),
            ..Default::default()
        };
        let init = Network::new(&NetworkConfig::new(&[2, 6, 2]), 11);
        let mut net = init.clone();
        let report = net.train_guarded(&data, &opts, &guard).unwrap();
        assert!(report.gave_up);
        assert_eq!(report.retries_used, 2);
        assert_eq!(report.faults.len(), 3, "one fault per attempt");
        // The network rolled back to the only good snapshot: initialization.
        assert_eq!(net, init);
    }

    #[test]
    fn gradient_clipping_bounds_the_applied_norm() {
        let data = blobs(30, 13);
        let opts = TrainerOptions {
            epochs: 5,
            batch_size: 15,
            ..Default::default()
        };
        let guard = WatchdogOptions {
            clip_norm: Some(1e-3), // absurdly tight: every step clips
            ..Default::default()
        };
        let mut net = Network::new(&NetworkConfig::new(&[2, 8, 2]), 17);
        let report = net.train_guarded(&data, &opts, &guard).unwrap();
        assert!(report.clipped_steps > 0);
        assert_eq!(report.clipped_steps, report.report.steps);
        assert!(report.report.final_loss().is_finite());
    }

    #[test]
    fn exploding_gradients_are_detected_as_faults() {
        let data = blobs(20, 19);
        let opts = TrainerOptions {
            epochs: 3,
            batch_size: 10,
            ..Default::default()
        };
        let guard = WatchdogOptions {
            explode_norm: 1e-12, // every real gradient "explodes"
            clip_norm: None,
            max_retries: 1,
            ..Default::default()
        };
        let mut net = Network::new(&NetworkConfig::new(&[2, 4, 2]), 23);
        let report = net.train_guarded(&data, &opts, &guard).unwrap();
        assert!(report.gave_up);
        assert!(matches!(
            report.faults[0].kind,
            FaultDetected::ExplodingGradient(_)
        ));
    }

    #[test]
    fn checkpoints_are_written_and_loadable() {
        let dir = std::env::temp_dir().join("nrpm_watchdog_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("ckpt.json");
        let data = blobs(20, 29);
        let opts = TrainerOptions {
            epochs: 3,
            batch_size: 10,
            ..Default::default()
        };
        let guard = WatchdogOptions {
            checkpoint_path: Some(path.clone()),
            ..Default::default()
        };
        let mut net = Network::new(&NetworkConfig::new(&[2, 6, 2]), 31);
        net.train_guarded(&data, &opts, &guard).unwrap();
        let restored = Network::load(&path).unwrap();
        assert_eq!(restored, net, "checkpoint holds the final epoch's weights");
        std::fs::remove_file(&path).ok();
    }
}
