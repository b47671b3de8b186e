//! Validation-gated retraining: train on a slice, judge on a held-out
//! slice, and keep the new weights only if they did not get worse.
//!
//! The watchdog ([`crate::watchdog`]) protects training from *numerical*
//! failure — NaN losses, exploding gradients. This module protects it from
//! *statistical* failure: a retrain that converges cleanly but to a worse
//! model. [`Network::train_validated`] snapshots the weights, holds out a
//! validation slice, trains under the watchdog on the rest, and compares
//! held-out accuracy before and after. If training gave up or accuracy
//! dropped beyond the tolerance, the snapshot is restored — the caller
//! always ends with weights at least as good as it started with, and the
//! report says which way it went.
//!
//! This is the retrain entry the serving adaptation pipeline uses: a
//! candidate checkpoint that fails this gate is never even proposed for a
//! swap.

use crate::dataset::Dataset;
use crate::network::{Network, NetworkError};
use crate::trainer::{TrainerOptions, TrainingReport};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Fraction of the dataset held out for the before/after comparison.
const HOLDOUT_FRACTION: f64 = 0.2;
/// Lower bound on the held-out sample count; the fraction is raised to
/// meet it when the dataset is large enough (a 3-sample holdout judges
/// nothing).
const MIN_HOLDOUT: usize = 8;
/// How much held-out accuracy may drop before the retrain is rejected:
/// a small tolerance for evaluation noise.
const MAX_ACCURACY_DROP: f64 = 0.02;
/// Seed of the shuffle that selects the holdout slice.
const SPLIT_SEED: u64 = 0x5EED;

/// What a validation-gated retrain did.
#[derive(Debug, Clone)]
pub struct ValidatedReport {
    /// `true` when the retrained weights were kept; `false` when the
    /// pre-training snapshot was restored (training gave up, the holdout
    /// regressed, or the dataset was too small to train on at all).
    pub accepted: bool,
    /// Held-out samples used for the before/after comparison.
    pub holdout_size: usize,
    /// Held-out accuracy of the snapshot (before training).
    pub accuracy_before: f64,
    /// Held-out accuracy after training (of the rejected weights when
    /// `accepted` is false — recorded for diagnostics either way).
    pub accuracy_after: f64,
    /// The report of the training run on the non-held-out slice.
    pub training: TrainingReport,
}

impl Network {
    /// Trains like [`Network::train`], but behind a validation gate: a
    /// holdout slice (a fifth of the data, at least 8 samples) is split off
    /// first, accuracy on it is measured before and after training on the
    /// remainder, and the pre-training weights are restored unless training
    /// completed *and* held-out accuracy dropped by at most 0.02.
    ///
    /// Never leaves the network worse than it found it: every rejection
    /// path ends on the snapshot taken before the first optimizer step.
    pub fn train_validated(
        &mut self,
        data: &Dataset,
        opts: &TrainerOptions,
    ) -> Result<ValidatedReport, NetworkError> {
        self.check_dataset(data)?;
        let n = data.len();
        // Raise the fraction until the holdout meets the floor, but always
        // leave at least one sample to train on.
        let want = MIN_HOLDOUT
            .max((n as f64 * HOLDOUT_FRACTION).round() as usize)
            .clamp(1, n.saturating_sub(1).max(1));
        let fraction = (want as f64 / n.max(1) as f64).clamp(0.0, 1.0);
        let mut rng = StdRng::seed_from_u64(SPLIT_SEED);
        let (train, holdout) = data.split(fraction, &mut rng);
        if train.is_empty() || holdout.is_empty() {
            // Too small to both train and judge: reject without touching
            // the weights.
            return Ok(ValidatedReport {
                accepted: false,
                holdout_size: holdout.len(),
                accuracy_before: 0.0,
                accuracy_after: 0.0,
                training: TrainingReport::default(),
            });
        }

        let snapshot = self.clone();
        let accuracy_before = self.accuracy(&holdout)?;
        let training = self.train(&train, opts)?;
        let accuracy_after = self.accuracy(&holdout)?;
        let accepted = !training.gave_up && accuracy_after >= accuracy_before - MAX_ACCURACY_DROP;
        if !accepted {
            *self = snapshot;
        }
        Ok(ValidatedReport {
            accepted,
            holdout_size: holdout.len(),
            accuracy_before,
            accuracy_after,
            training,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::network::NetworkConfig;
    use crate::optimizer::OptimizerKind;
    use nrpm_linalg::Matrix;
    use rand::Rng;

    fn blobs(n_per_class: usize, seed: u64, scale: f64) -> Dataset {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut rows = Vec::new();
        let mut labels = Vec::new();
        for class in 0..2usize {
            let center = if class == 0 { -1.0 } else { 1.0 };
            for _ in 0..n_per_class {
                rows.push(vec![
                    scale * (center + rng.gen_range(-0.3..0.3)),
                    scale * (center + rng.gen_range(-0.3..0.3)),
                ]);
                labels.push(class);
            }
        }
        let refs: Vec<&[f64]> = rows.iter().map(|r| r.as_slice()).collect();
        Dataset::new(Matrix::from_rows(&refs), labels, 2).unwrap()
    }

    #[test]
    fn clean_retrain_is_accepted_and_improves_the_holdout() {
        let data = blobs(60, 1, 1.0);
        let mut net = Network::new(&NetworkConfig::new(&[2, 8, 2]), 3);
        let opts = TrainerOptions {
            epochs: 15,
            batch_size: 16,
            ..Default::default()
        };
        let report = net.train_validated(&data, &opts).unwrap();
        assert!(report.accepted, "{report:?}");
        assert!(report.holdout_size >= MIN_HOLDOUT);
        assert!(report.accuracy_after >= report.accuracy_before);
        assert!(report.training.steps > 0);
    }

    #[test]
    fn gave_up_training_is_rejected_and_weights_restored() {
        // Inputs of magnitude ~1e8 make every gradient of this single
        // logits layer explode (norm ~1e8), at every retry: guaranteed
        // give-up.
        let data = blobs(40, 5, 1e8);
        let mut init = Network::new(&NetworkConfig::new(&[2, 2]), 7);
        init.layers_mut()[0].weights.fill_zero();
        let mut net = init.clone();
        let opts = TrainerOptions {
            epochs: 10,
            batch_size: 16,
            ..Default::default()
        };
        let report = net.train_validated(&data, &opts).unwrap();
        assert!(!report.accepted);
        assert!(report.training.gave_up);
        assert_eq!(net, init, "rejected retrain must not change the weights");
    }

    #[test]
    fn accuracy_regression_beyond_tolerance_is_rejected() {
        let data = blobs(40, 9, 1.0);
        let mut trained = Network::new(&NetworkConfig::new(&[2, 8, 2]), 11);
        let opts = TrainerOptions {
            epochs: 20,
            batch_size: 16,
            ..Default::default()
        };
        trained.train(&data, &opts).unwrap();
        assert_eq!(trained.accuracy(&data).unwrap(), 1.0);
        // A negative learning rate turns every step uphill: the retrain
        // raises the loss and wrecks the trained network, and the gate must
        // notice.
        let mut net = trained.clone();
        let wrecking = TrainerOptions {
            epochs: 3,
            optimizer: OptimizerKind::AdaMax {
                learning_rate: -1.0,
            },
            ..opts
        };
        let report = net.train_validated(&data, &wrecking).unwrap();
        assert!(!report.accepted, "{report:?}");
        assert!(!report.training.gave_up, "training itself was clean");
        assert!(report.accuracy_after < report.accuracy_before - MAX_ACCURACY_DROP);
        assert_eq!(net, trained, "the trained weights must be restored");
    }

    #[test]
    fn too_small_datasets_are_rejected_without_training() {
        let data = blobs(1, 13, 1.0); // 2 samples: holdout takes one, train keeps one
        let tiny = data.subset(&[0]); // 1 sample: nothing to train on
        let init = Network::new(&NetworkConfig::new(&[2, 4, 2]), 17);
        let mut net = init.clone();
        let opts = TrainerOptions {
            epochs: 2,
            batch_size: 4,
            ..Default::default()
        };
        let report = net.train_validated(&tiny, &opts).unwrap();
        assert!(!report.accepted);
        assert_eq!(report.training.steps, 0);
        assert_eq!(net, init);
        // Two samples are enough to run (1 train / 1 holdout).
        let report = net.train_validated(&data, &opts).unwrap();
        assert_eq!(report.holdout_size, 1);
    }
}
