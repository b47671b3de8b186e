//! The DNN performance modeler (Sec. IV-D) and its transfer-learning
//! machinery (Sec. IV-E).
//!
//! Model identification is phrased as classification: the network receives
//! a preprocessed measurement line and predicts which of the 43 exponent
//! pairs `(i, j)` of the canonical PMNF set produced it. The top-3 classes
//! seed hypotheses whose coefficients are then fitted by linear regression;
//! cross-validation on SMAPE picks the winner — identical machinery to the
//! regression modeler, only the candidate generation differs. For
//! multi-parameter tasks each parameter is classified separately and the
//! per-parameter winners are combined additively and multiplicatively.

use crate::preprocess::{encode_line_with, PreprocessError, ValueScaling, NUM_INPUTS};
use nrpm_extrap::{
    combine_candidate_pairs, exponent_set, Aggregation, ExponentPair, MeasurementSet, ModelError,
    ModelingResult, NUM_CLASSES,
};
use nrpm_linalg::Matrix;
use nrpm_nn::{
    top_k_classes, Dataset, Network, NetworkConfig, OptimizerKind, PackedNetwork, QuantGate,
    QuantReport, QuantizedNetwork, TrainerOptions, ValidatedReport, ValidationOptions,
    WatchdogOptions,
};
use nrpm_synth::{generate_training_samples_seeded, TrainingSample, TrainingSpec};
use rand::rngs::StdRng;
use rand::{RngCore, SeedableRng};
use std::sync::Arc;

/// Options of the DNN modeler.
#[derive(Debug, Clone)]
pub struct DnnOptions {
    /// Network architecture. Default: [`NetworkConfig::compact`]; switch to
    /// [`NetworkConfig::paper`] for full fidelity (see DESIGN.md).
    pub network: NetworkConfig,
    /// Pretraining data generation (random sequences, full noise range).
    pub pretrain_spec: TrainingSpec,
    /// Pretraining epochs.
    pub pretrain_epochs: usize,
    /// Domain-adaptation epochs (paper: one).
    pub adaptation_epochs: usize,
    /// Samples per class generated for domain adaptation (paper: 2000;
    /// default lower to keep retraining snappy — scale up via this knob).
    pub adaptation_samples_per_class: usize,
    /// Mini-batch size for both training phases.
    pub batch_size: usize,
    /// Optimizer for both training phases. The paper uses AdaMax; the
    /// default learning rate here (0.01) is tuned for the compact network
    /// and the smaller-than-paper training budgets of the harness.
    pub optimizer: OptimizerKind,
    /// How many top classes seed hypotheses (paper: 3).
    pub top_k: usize,
    /// RNG seed for reproducibility.
    pub seed: u64,
    /// Repetition aggregation.
    pub aggregation: Aggregation,
    /// CV-SMAPE tie tolerance for final selection.
    pub tie_tolerance: f64,
    /// Minimum distinct points per parameter line.
    pub min_points: usize,
    /// Input-value scaling of the preprocessing step (ablation knob; the
    /// default log-ratio encoding separates growth classes far better).
    pub encoding: ValueScaling,
    /// Worker threads for synthetic corpus generation and training. `0`
    /// (the default) resolves to the process-wide
    /// [`ThreadBudget`](nrpm_linalg::ThreadBudget), which honors the
    /// `NRPM_THREADS` environment variable. Results are bitwise identical
    /// at every thread count — this knob only changes speed.
    pub train_threads: usize,
    /// Serve inference through an int8-quantized copy of the network when
    /// the accuracy gate accepts it (see
    /// [`QuantizedNetwork::validated`](nrpm_nn::QuantizedNetwork)). The
    /// gate is re-run against a deterministic synthetic calibration batch
    /// after every (re)train; if it rejects — any argmax flip, or class
    /// probabilities drifting beyond [`Self::quant_gate`] — inference
    /// falls back to the f64 network. Training always runs in f64; this
    /// knob only affects the forward pass.
    pub quantize: bool,
    /// Accuracy thresholds for the quantization gate.
    pub quant_gate: QuantGate,
}

impl Default for DnnOptions {
    fn default() -> Self {
        DnnOptions {
            network: NetworkConfig::compact(),
            pretrain_spec: TrainingSpec {
                samples_per_class: 500,
                ..TrainingSpec::default()
            },
            pretrain_epochs: 20,
            adaptation_epochs: 1,
            adaptation_samples_per_class: 200,
            batch_size: 128,
            optimizer: OptimizerKind::AdaMax {
                learning_rate: 0.01,
                beta1: 0.9,
                beta2: 0.999,
            },
            top_k: 3,
            seed: 0xD77,
            aggregation: Aggregation::Median,
            tie_tolerance: 1e-6,
            min_points: 5,
            encoding: ValueScaling::default(),
            train_threads: 0,
            quantize: false,
            quant_gate: QuantGate::default(),
        }
    }
}

impl DnnOptions {
    /// Full paper fidelity: the 3.7 M-parameter architecture and 2000
    /// adaptation samples per class. Expect pretraining and adaptation to
    /// take minutes instead of seconds.
    pub fn paper_fidelity() -> Self {
        DnnOptions {
            network: NetworkConfig::paper(),
            adaptation_samples_per_class: 2000,
            ..Default::default()
        }
    }
}

/// Result of one coalesced classification pass over many lines
/// ([`DnnModeler::classify_lines_batch`]).
#[derive(Debug, Clone)]
pub struct BatchClassification {
    /// Per-line class-probability vectors; lines whose encoding failed
    /// carry the corresponding error instead.
    pub probabilities: Vec<Result<Vec<f64>, ModelError>>,
    /// Rows pushed through the network in the coalesced pass.
    pub rows: usize,
    /// Network forward passes issued: `1`, or `0` when every line was
    /// degenerate.
    pub forward_passes: usize,
    /// Whether the forward pass ran on the int8-quantized network (`false`
    /// on the f64 reference path — quantization off, gate-rejected, or no
    /// forward pass issued).
    pub quantized: bool,
}

/// Result of a batched modeling run ([`DnnModeler::model_batch`]).
#[derive(Debug, Clone)]
pub struct DnnBatch {
    /// Per-set modeling results, in input order.
    pub results: Vec<Result<ModelingResult, ModelError>>,
    /// Measurement lines classified in the coalesced forward pass.
    pub lines: usize,
    /// Network forward passes issued for the whole batch (`0` or `1`).
    pub forward_passes: usize,
    /// Whether the coalesced forward pass ran on the int8-quantized
    /// network.
    pub quantized: bool,
}

/// The DNN modeler: a pretrained classifier plus the hypothesis-fitting
/// pipeline shared with Extra-P.
///
/// The network and its inference snapshots sit behind `Arc`s, so a clone
/// shares the weights (a server clones one warm modeler per worker) and a
/// weight mutation copies the network on write, then rebuilds the
/// snapshots.
#[derive(Debug, Clone)]
pub struct DnnModeler {
    opts: DnnOptions,
    network: Arc<Network>,
    rng: StdRng,
    /// Inference snapshots of `network`, rebuilt together after every
    /// weight mutation.
    snapshots: Arc<Snapshots>,
}

/// What the forward passes of a [`DnnModeler`] run on, built from one
/// version of its network.
#[derive(Debug)]
struct Snapshots {
    /// The f64 network with pre-packed weights: every f64 forward pass.
    packed: PackedNetwork,
    /// The gated int8 snapshot plus its calibration report, present only
    /// when `opts.quantize` is set and the gate accepted.
    quant: Option<(QuantizedNetwork, QuantReport)>,
    /// The report of the last gate *rejection* (quantization requested but
    /// serving fell back to f64).
    quant_rejection: Option<QuantReport>,
}

impl Snapshots {
    /// Packs `network` for f64 inference and, when [`DnnOptions::quantize`]
    /// is set, quantizes it behind the accuracy gate. The calibration
    /// batch is synthesized from a seed derived only from `opts.seed` — it
    /// never consumes the modeler's RNG, so enabling quantization cannot
    /// perturb the training/adaptation RNG stream.
    fn build(opts: &DnnOptions, network: &Network) -> Snapshots {
        let mut snapshots = Snapshots {
            packed: PackedNetwork::new(network),
            quant: None,
            quant_rejection: None,
        };
        if !opts.quantize {
            return snapshots;
        }
        let spec = TrainingSpec {
            samples_per_class: 4,
            noise_range: (0.0, 0.4),
            ..Default::default()
        };
        let samples =
            generate_training_samples_seeded(&spec, opts.seed ^ 0x0CA1_1B8A, opts.train_threads);
        let calib = dataset_from_samples_with(&samples, opts.encoding);
        match QuantizedNetwork::validated(network, calib.inputs(), &opts.quant_gate) {
            Ok((q, report)) => snapshots.quant = Some((q, report)),
            Err(nrpm_nn::QuantError::GateRejected(report)) => {
                snapshots.quant_rejection = Some(report);
            }
            Err(nrpm_nn::QuantError::Unsupported(_)) => {}
        }
        snapshots
    }
}

impl DnnModeler {
    /// Builds and pretrains a modeler on synthetic data.
    pub fn pretrained(opts: DnnOptions) -> Self {
        let mut rng = StdRng::seed_from_u64(opts.seed);
        let mut network = Network::new(&opts.network, opts.seed);
        let samples = generate_training_samples_seeded(
            &opts.pretrain_spec,
            rng.next_u64(),
            opts.train_threads,
        );
        let data = dataset_from_samples_with(&samples, opts.encoding);
        // Guarded training: synthetic pretraining data is benign by
        // construction, but the watchdog makes divergence (NaN loss,
        // exploding gradients) a recoverable event instead of a poisoned
        // network.
        network
            .train_guarded(
                &data,
                &TrainerOptions {
                    epochs: opts.pretrain_epochs,
                    batch_size: opts.batch_size,
                    optimizer: opts.optimizer,
                    shuffle_seed: opts.seed ^ 0xA5A5,
                    threads: opts.train_threads,
                    ..Default::default()
                },
                &WatchdogOptions::default(),
            )
            .expect("pretraining dataset is compatible by construction");
        DnnModeler::assemble(opts, network, rng)
    }

    /// Wraps an already-trained network (e.g. loaded from disk).
    pub fn from_network(opts: DnnOptions, network: Network) -> Self {
        assert_eq!(
            network.input_dim(),
            NUM_INPUTS,
            "network must take 11 inputs"
        );
        assert_eq!(
            network.num_classes(),
            NUM_CLASSES,
            "network must predict 43 classes"
        );
        let rng = StdRng::seed_from_u64(opts.seed);
        DnnModeler::assemble(opts, network, rng)
    }

    fn assemble(opts: DnnOptions, network: Network, rng: StdRng) -> Self {
        let snapshots = Arc::new(Snapshots::build(&opts, &network));
        DnnModeler {
            opts,
            network: Arc::new(network),
            rng,
            snapshots,
        }
    }

    /// Retrains the network through `train` (copying it first if a clone
    /// shares it), then rebuilds every inference snapshot from the new
    /// weights. Every weight mutation goes through here, so no snapshot
    /// can outlive the weights it was built from.
    fn mutate_network<R>(&mut self, train: impl FnOnce(&mut Network) -> R) -> R {
        let out = train(Arc::make_mut(&mut self.network));
        self.snapshots = Arc::new(Snapshots::build(&self.opts, &self.network));
        out
    }

    /// Whether batched inference currently runs on the int8 path.
    pub fn quantized(&self) -> bool {
        self.snapshots.quant.is_some()
    }

    /// The calibration report of the active quantized snapshot, when the
    /// gate accepted.
    pub fn quant_report(&self) -> Option<&QuantReport> {
        self.snapshots.quant.as_ref().map(|(_, r)| r)
    }

    /// The calibration report of the last gate rejection: quantization was
    /// requested, but inference fell back to the f64 reference.
    pub fn quant_rejection(&self) -> Option<&QuantReport> {
        self.snapshots.quant_rejection.as_ref()
    }

    /// The underlying network (for persistence or inspection).
    pub fn network(&self) -> &Network {
        &self.network
    }

    /// The configured options.
    pub fn options(&self) -> &DnnOptions {
        &self.opts
    }

    /// Retrains the network on synthetic data from an explicit spec. This
    /// is the raw domain-adaptation primitive; [`Self::adapt_to_task`]
    /// derives the spec from a concrete measurement set. The sweep harness
    /// uses it directly to adapt once per noise level instead of once per
    /// function (see DESIGN.md).
    ///
    /// Returns the number of training samples used.
    pub fn adapt_with_spec(&mut self, spec: &TrainingSpec) -> usize {
        let samples =
            generate_training_samples_seeded(spec, self.rng.next_u64(), self.opts.train_threads);
        let data = dataset_from_samples_with(&samples, self.opts.encoding);
        let train = self.adaptation_trainer();
        self.mutate_network(|net| {
            net.train_guarded(&data, &train, &WatchdogOptions::default())
                .expect("adaptation dataset is compatible by construction")
        });
        data.len()
    }

    /// Like [`Self::adapt_with_spec`], but behind the validation gate of
    /// [`Network::train_validated`]: a holdout slice of the synthetic
    /// adaptation corpus judges the retrain, and the pre-adaptation
    /// weights are restored when training gives up or held-out accuracy
    /// regresses beyond the tolerance. This is the retrain entry the
    /// serving adaptation pipeline uses — a candidate that fails the gate
    /// never leaves this method as a changed network.
    pub fn adapt_with_spec_validated(
        &mut self,
        spec: &TrainingSpec,
        validation: &ValidationOptions,
    ) -> ValidatedReport {
        let samples =
            generate_training_samples_seeded(spec, self.rng.next_u64(), self.opts.train_threads);
        let data = dataset_from_samples_with(&samples, self.opts.encoding);
        let train = self.adaptation_trainer();
        self.mutate_network(|net| {
            net.train_validated(&data, &train, &WatchdogOptions::default(), validation)
                .expect("adaptation dataset is compatible by construction")
        })
    }

    /// Domain adaptation (Sec. IV-E): retrains the network on fresh
    /// synthetic data that mirrors the task at hand — its measurement
    /// positions per parameter, its repetition count, and the estimated
    /// noise range.
    ///
    /// Returns the number of training samples used.
    pub fn adapt_to_task(
        &mut self,
        set: &MeasurementSet,
        noise_range: (f64, f64),
    ) -> Result<usize, ModelError> {
        let m = set.num_params();
        if m == 0 {
            return Err(ModelError::NoParameters);
        }
        let repetitions = set
            .measurements()
            .iter()
            .map(|meas| meas.values.len())
            .max()
            .unwrap_or(1)
            .clamp(1, 5);
        let per_param_samples = (self.opts.adaptation_samples_per_class / m).max(8);

        let mut all_samples: Vec<TrainingSample> = Vec::new();
        for l in 0..m {
            let line = set.line(l, self.opts.aggregation);
            let xs: Vec<f64> = line.iter().map(|(x, _)| *x).collect();
            if xs.len() < 2 {
                continue;
            }
            let spec = TrainingSpec {
                samples_per_class: per_param_samples,
                sequence: Some(xs),
                noise_range: (
                    noise_range.0.max(0.0),
                    noise_range.1.max(noise_range.0.max(0.0)),
                ),
                repetitions,
                aggregation: self.opts.aggregation,
                ..Default::default()
            };
            all_samples.extend(generate_training_samples_seeded(
                &spec,
                self.rng.next_u64(),
                self.opts.train_threads,
            ));
        }
        if all_samples.is_empty() {
            return Err(ModelError::NoViableHypothesis);
        }
        let data = dataset_from_samples_with(&all_samples, self.opts.encoding);
        let train = self.adaptation_trainer();
        self.mutate_network(|net| {
            net.train_guarded(&data, &train, &WatchdogOptions::default())
                .expect("adaptation dataset is compatible by construction")
        });
        Ok(data.len())
    }

    /// Trainer settings shared by every domain-adaptation entry point.
    fn adaptation_trainer(&self) -> TrainerOptions {
        TrainerOptions {
            epochs: self.opts.adaptation_epochs,
            batch_size: self.opts.batch_size,
            optimizer: self.opts.optimizer,
            shuffle_seed: self.opts.seed ^ 0x5A5A,
            threads: self.opts.train_threads,
            ..Default::default()
        }
    }

    /// The raw class-probability vector for one line, from the pre-packed
    /// f64 snapshot.
    pub fn class_probabilities(&self, xs: &[f64], ys: &[f64]) -> Result<Vec<f64>, ModelError> {
        let input = encode_line_with(xs, ys, self.opts.encoding).map_err(map_preprocess_error)?;
        let probs = self.predict_f64(Matrix::from_vec(1, NUM_INPUTS, input));
        Ok(probs.as_slice().to_vec())
    }

    /// Classifies many measurement lines in **one** coalesced forward pass:
    /// every encodable line becomes one row of a single input matrix, so the
    /// whole batch flows through one blocked matrix-multiply chain in
    /// `nrpm-linalg` instead of one tiny per-line product per request.
    ///
    /// The pass runs on the gated int8 snapshot ([`QuantizedNetwork`]) when
    /// [`DnnOptions::quantize`] is set and the gate accepted, else on the
    /// pre-packed f64 snapshot ([`PackedNetwork`]). Both are rebuilt after
    /// every weight mutation.
    ///
    /// On the f64 snapshot, per-row results are bitwise identical to
    /// per-line [`Self::class_probabilities`] calls — rows of a matmul are
    /// accumulated independently and in the same order — which is what
    /// makes the serving layer's batched path a pure throughput
    /// optimization.
    pub fn classify_lines_batch(&self, lines: &[Vec<(f64, f64)>]) -> BatchClassification {
        let mut encoded: Vec<Vec<f64>> = Vec::with_capacity(lines.len());
        // For each line: index into `encoded`, or the encoding error.
        let mut slots: Vec<Result<usize, ModelError>> = Vec::with_capacity(lines.len());
        for line in lines {
            let xs: Vec<f64> = line.iter().map(|(x, _)| *x).collect();
            let ys: Vec<f64> = line.iter().map(|(_, y)| *y).collect();
            match encode_line_with(&xs, &ys, self.opts.encoding) {
                Ok(input) => {
                    slots.push(Ok(encoded.len()));
                    encoded.push(input);
                }
                Err(e) => slots.push(Err(map_preprocess_error(e))),
            }
        }
        if encoded.is_empty() {
            return BatchClassification {
                probabilities: slots.into_iter().map(|s| s.map(|_| Vec::new())).collect(),
                rows: 0,
                forward_passes: 0,
                quantized: false,
            };
        }
        let rows = encoded.len();
        let x = Matrix::from_row_vecs(&encoded, NUM_INPUTS)
            .expect("encoded lines all have NUM_INPUTS features");
        // The gated int8 snapshot serves the batch when present; the gate
        // guarantees it never flips a predicted class on calibration data,
        // and any weight mutation rebuilds or drops it (`mutate_network`).
        let (probs, quantized) = match &self.snapshots.quant {
            Some((q, _)) => (
                q.predict_proba(&x)
                    .expect("input dimension is NUM_INPUTS by construction"),
                true,
            ),
            None => (self.predict_f64(x), false),
        };
        let probabilities = slots
            .into_iter()
            .map(|slot| slot.map(|row| probs.row(row).to_vec()))
            .collect();
        BatchClassification {
            probabilities,
            rows,
            forward_passes: 1,
            quantized,
        }
    }

    /// Models several kernels at once, coalescing all their DNN forward
    /// passes into a single batched inference (see
    /// [`Self::classify_lines_batch`]). Candidate combination and
    /// coefficient fitting still run per kernel; only the network inference
    /// is batched. Results are identical to calling [`Self::model`] on each
    /// set individually.
    pub fn model_batch(&self, sets: &[&MeasurementSet]) -> DnnBatch {
        // Phase 1: extract every parameter's primary line from every set.
        let mut lines: Vec<Vec<(f64, f64)>> = Vec::new();
        // Per set: the range of `lines` it owns, or an early error.
        let mut plans: Vec<Result<std::ops::Range<usize>, ModelError>> =
            Vec::with_capacity(sets.len());
        for set in sets {
            plans.push(self.plan_lines(set, &mut lines));
        }

        // Phase 2: one coalesced forward pass for the whole batch.
        let classified = self.classify_lines_batch(&lines);

        // Phase 3: per-set candidate combination and coefficient fitting.
        let results = plans
            .into_iter()
            .zip(sets)
            .map(|(plan, set)| {
                let range = plan?;
                let mut per_param = Vec::with_capacity(range.len());
                for idx in range {
                    match &classified.probabilities[idx] {
                        Ok(probs) => per_param.push(self.candidate_pairs(probs)),
                        Err(e) => return Err(e.clone()),
                    }
                }
                combine_candidate_pairs(
                    set,
                    &per_param,
                    self.opts.aggregation,
                    self.opts.tie_tolerance,
                )
            })
            .collect();
        DnnBatch {
            results,
            lines: classified.rows,
            forward_passes: classified.forward_passes,
            quantized: classified.quantized,
        }
    }

    /// Pushes one line per parameter of `set` onto `lines` and returns the
    /// owned index range, or the error that makes the whole set unmodelable.
    fn plan_lines(
        &self,
        set: &MeasurementSet,
        lines: &mut Vec<Vec<(f64, f64)>>,
    ) -> Result<std::ops::Range<usize>, ModelError> {
        let m = set.num_params();
        if m == 0 {
            return Err(ModelError::NoParameters);
        }
        let start = lines.len();
        for l in 0..m {
            let line = set.line(l, self.opts.aggregation);
            if line.len() < self.opts.min_points {
                lines.truncate(start);
                return Err(ModelError::TooFewPoints {
                    param: l,
                    found: line.len(),
                    required: self.opts.min_points,
                });
            }
            lines.push(line);
        }
        Ok(start..lines.len())
    }

    /// Full modeling run: classify each parameter's line, construct the
    /// combined hypothesis space from the top-k predictions, fit the
    /// coefficients by regression, select by cross-validated SMAPE.
    ///
    /// All `m` lines are classified in one f64 forward pass on the
    /// pre-packed snapshot ([`PackedNetwork`], never the int8 one), which
    /// is bitwise equal to [`Network::predict_proba`] on [`Self::network`].
    /// Rows of a matmul accumulate independently, so each row is bitwise
    /// what [`Self::class_probabilities`] returns for its line.
    pub fn model(&self, set: &MeasurementSet) -> Result<ModelingResult, ModelError> {
        let m = set.num_params();
        if m == 0 {
            return Err(ModelError::NoParameters);
        }
        let mut inputs = Vec::with_capacity(m * NUM_INPUTS);
        for l in 0..m {
            // Classify the primary line (smallest fixed coordinates) — the
            // same rationale as the regression modeler's ranking: on lines
            // with large fixed coordinates the other parameters' offsets
            // dominate and the posterior collapses toward "constant".
            let line = set.line(l, self.opts.aggregation);
            if line.len() < self.opts.min_points {
                return Err(ModelError::TooFewPoints {
                    param: l,
                    found: line.len(),
                    required: self.opts.min_points,
                });
            }
            let xs: Vec<f64> = line.iter().map(|(x, _)| *x).collect();
            let ys: Vec<f64> = line.iter().map(|(_, y)| *y).collect();
            inputs.extend(
                encode_line_with(&xs, &ys, self.opts.encoding).map_err(map_preprocess_error)?,
            );
        }
        let probs = self.predict_f64(Matrix::from_vec(m, NUM_INPUTS, inputs));
        let per_param: Vec<Vec<ExponentPair>> =
            (0..m).map(|l| self.candidate_pairs(probs.row(l))).collect();
        combine_candidate_pairs(
            set,
            &per_param,
            self.opts.aggregation,
            self.opts.tie_tolerance,
        )
    }

    /// Class probabilities of encoded lines on the pre-packed f64 snapshot:
    /// bitwise what [`Network::predict_proba`] returns on
    /// [`Self::network`].
    fn predict_f64(&self, x: Matrix) -> Matrix {
        self.snapshots
            .packed
            .predict_proba(&x)
            .expect("input dimension is NUM_INPUTS by construction")
    }

    /// The top-k pairs of one line's class probabilities, plus the constant
    /// pair: it must always be reachable, or a network confident about
    /// growth on flat data would force the combination step into a
    /// spurious term.
    fn candidate_pairs(&self, probs: &[f64]) -> Vec<ExponentPair> {
        let exponents = exponent_set();
        let mut pairs: Vec<ExponentPair> = top_k_classes(probs, self.opts.top_k)
            .into_iter()
            .map(|class| exponents.pair(class))
            .collect();
        if !pairs.contains(&ExponentPair::CONSTANT) {
            pairs.push(ExponentPair::CONSTANT);
        }
        pairs
    }
}

fn map_preprocess_error(e: PreprocessError) -> ModelError {
    match e {
        PreprocessError::TooFewPoints(found) => ModelError::TooFewPoints {
            param: 0,
            found,
            required: 2,
        },
        PreprocessError::InvalidCoordinate(value) => {
            ModelError::NonPositiveParameter { param: 0, value }
        }
        PreprocessError::InvalidValue(_) => ModelError::NonFiniteData,
    }
}

/// Converts raw training samples into a network-ready dataset by encoding
/// every line with the default scaling; samples whose encoding fails
/// (degenerate lines) are skipped.
pub fn dataset_from_samples(samples: &[TrainingSample]) -> Dataset {
    dataset_from_samples_with(samples, ValueScaling::default())
}

/// [`dataset_from_samples`] with an explicit value-scaling strategy.
pub fn dataset_from_samples_with(samples: &[TrainingSample], scaling: ValueScaling) -> Dataset {
    let mut rows: Vec<Vec<f64>> = Vec::with_capacity(samples.len());
    let mut labels: Vec<usize> = Vec::with_capacity(samples.len());
    for s in samples {
        if let Ok(input) = encode_line_with(&s.xs, &s.ys, scaling) {
            rows.push(input);
            labels.push(s.class);
        }
    }
    let mut inputs = Matrix::zeros(rows.len(), NUM_INPUTS);
    for (r, row) in rows.iter().enumerate() {
        inputs.row_mut(r).copy_from_slice(row);
    }
    Dataset::new(inputs, labels, NUM_CLASSES).expect("encoded samples are consistent")
}

#[cfg(test)]
mod tests {
    use super::*;
    use nrpm_synth::generate_training_samples;

    use std::sync::OnceLock;

    /// A mid-sized configuration: strong enough to classify clean lines
    /// reliably, small enough to pretrain in a few seconds.
    fn tiny_opts() -> DnnOptions {
        DnnOptions {
            network: NetworkConfig::new(&[NUM_INPUTS, 128, 64, NUM_CLASSES]),
            pretrain_spec: TrainingSpec {
                samples_per_class: 200,
                noise_range: (0.0, 0.5),
                ..Default::default()
            },
            pretrain_epochs: 20,
            adaptation_samples_per_class: 40,
            seed: 3,
            ..Default::default()
        }
    }

    /// Pretraining is the expensive step; share one modeler across tests.
    fn shared_modeler() -> &'static DnnModeler {
        static MODELER: OnceLock<DnnModeler> = OnceLock::new();
        MODELER.get_or_init(|| DnnModeler::pretrained(tiny_opts()))
    }

    fn line_set(f: impl Fn(f64) -> f64, xs: &[f64]) -> MeasurementSet {
        let mut set = MeasurementSet::new(1);
        for &x in xs {
            set.add(&[x], f(x));
        }
        set
    }

    #[test]
    fn dataset_from_samples_encodes_and_labels() {
        let samples = vec![
            TrainingSample {
                xs: vec![2.0, 4.0, 8.0, 16.0, 32.0],
                ys: vec![2.0, 4.0, 8.0, 16.0, 32.0],
                class: 7,
                noise_level: 0.0,
            },
            TrainingSample {
                // degenerate: only one point after dedup -> skipped
                xs: vec![2.0],
                ys: vec![1.0],
                class: 3,
                noise_level: 0.0,
            },
        ];
        let data = dataset_from_samples(&samples);
        assert_eq!(data.len(), 1);
        assert_eq!(data.labels(), &[7]);
        assert_eq!(data.num_features(), NUM_INPUTS);
        assert_eq!(data.num_classes(), NUM_CLASSES);
    }

    #[test]
    fn pretrained_modeler_learns_something() {
        let modeler = shared_modeler();
        // Evaluate on a fresh clean sample set: top-3 accuracy must beat
        // chance (3/43 ~ 7%) by a wide margin.
        let mut rng = StdRng::seed_from_u64(99);
        let spec = TrainingSpec {
            samples_per_class: 10,
            noise_range: (0.0, 0.0),
            ..Default::default()
        };
        let eval = dataset_from_samples(&generate_training_samples(&spec, &mut rng));
        let top3 = modeler.network().top_k_accuracy(&eval, 3).unwrap();
        // Chance is 3/43 ~ 7 %; the shared test network is deliberately
        // small, so the bar is "clearly learned", not "paper quality".
        assert!(top3 > 0.25, "top-3 accuracy {top3} barely beats chance");
    }

    #[test]
    fn model_recovers_clean_linear_scaling() {
        let modeler = shared_modeler();
        let set = line_set(|x| 5.0 + 2.0 * x, &[4.0, 8.0, 16.0, 32.0, 64.0]);
        let result = modeler.model(&set).unwrap();
        // Even if the network's top guess is off, the CV re-fit over the
        // top-3 + constant candidates must produce a model that fits well.
        assert!(
            result.cv_smape < 5.0,
            "cv = {}, model = {}",
            result.cv_smape,
            result.model
        );
    }

    #[test]
    fn model_rejects_too_few_points() {
        let modeler = shared_modeler();
        let set = line_set(|x| x, &[2.0, 4.0, 8.0]);
        assert!(matches!(
            modeler.model(&set),
            Err(ModelError::TooFewPoints { .. })
        ));
    }

    #[test]
    fn batched_classification_matches_per_line_calls_bitwise() {
        let modeler = shared_modeler();
        let xs = [4.0, 8.0, 16.0, 32.0, 64.0];
        let lines: Vec<Vec<(f64, f64)>> = vec![
            xs.iter().map(|&x| (x, 3.0 * x)).collect(),
            xs.iter().map(|&x| (x, 1.0 + 0.5 * x * x)).collect(),
            vec![(4.0, 1.0)], // degenerate: single point
            xs.iter().map(|&x| (x, 7.0)).collect(),
        ];
        let batch = modeler.classify_lines_batch(&lines);
        assert_eq!(batch.forward_passes, 1, "one coalesced pass");
        assert_eq!(batch.rows, 3, "degenerate lines are not encoded");
        for (line, batched) in lines.iter().zip(&batch.probabilities) {
            let xs: Vec<f64> = line.iter().map(|(x, _)| *x).collect();
            let ys: Vec<f64> = line.iter().map(|(_, y)| *y).collect();
            match (modeler.class_probabilities(&xs, &ys), batched) {
                (Ok(single), Ok(b)) => {
                    assert_eq!(single.len(), b.len());
                    for (s, v) in single.iter().zip(b) {
                        assert_eq!(
                            s.to_bits(),
                            v.to_bits(),
                            "probabilities must be bitwise equal"
                        );
                    }
                }
                (Err(_), Err(_)) => {}
                (s, b) => panic!("batched/sequential disagree: {s:?} vs {b:?}"),
            }
        }
    }

    #[test]
    fn all_degenerate_batch_issues_no_forward_pass() {
        let modeler = shared_modeler();
        let batch = modeler.classify_lines_batch(&[vec![(4.0, 1.0)], vec![(8.0, 2.0)]]);
        assert_eq!(batch.forward_passes, 0);
        assert_eq!(batch.rows, 0);
        assert!(batch.probabilities.iter().all(|p| p.is_err()));
    }

    #[test]
    fn one_pass_model_matches_per_line_classification() {
        let modeler = shared_modeler();
        let axis = [4.0, 8.0, 16.0, 32.0, 64.0];
        let grid = |m: usize| -> MeasurementSet {
            let mut set = MeasurementSet::new(m);
            for flat in 0..axis.len().pow(m as u32) {
                let point: Vec<f64> = (0..m)
                    .map(|l| axis[flat / axis.len().pow(l as u32) % axis.len()])
                    .collect();
                let value = 2.0 + point[0] * point[0] + point.iter().skip(1).sum::<f64>().sqrt();
                set.add(&point, value);
            }
            set
        };
        for m in 1..=3 {
            let set = grid(m);
            let per_param: Vec<Vec<ExponentPair>> = (0..m)
                .map(|l| {
                    let line = set.line(l, modeler.opts.aggregation);
                    let xs: Vec<f64> = line.iter().map(|(x, _)| *x).collect();
                    let ys: Vec<f64> = line.iter().map(|(_, y)| *y).collect();
                    modeler.candidate_pairs(&modeler.class_probabilities(&xs, &ys).unwrap())
                })
                .collect();
            let expected = combine_candidate_pairs(
                &set,
                &per_param,
                modeler.opts.aggregation,
                modeler.opts.tie_tolerance,
            )
            .unwrap();
            let got = modeler.model(&set).unwrap();
            assert_eq!(
                format!("{:?}", got.model),
                format!("{:?}", expected.model),
                "m = {m}"
            );
            assert_eq!(got.cv_smape.to_bits(), expected.cv_smape.to_bits());
            assert_eq!(got.fit_smape.to_bits(), expected.fit_smape.to_bits());
        }

        // Errors keep the per-line order: line 0's encoding error comes
        // before line 1's shortage of points.
        let mut set = MeasurementSet::new(2);
        for &x in &axis {
            set.add(&[x, 4.0], 7.0);
        }
        assert!(matches!(
            modeler.model(&set),
            Err(ModelError::TooFewPoints { param: 1, .. })
        ));
        set.add(&[128.0, 4.0], f64::NAN);
        assert_eq!(modeler.model(&set).unwrap_err(), ModelError::NonFiniteData);
    }

    #[test]
    fn model_batch_matches_sequential_modeling() {
        let modeler = shared_modeler();
        let xs = [4.0, 8.0, 16.0, 32.0, 64.0];
        let sets = [
            line_set(|x| 5.0 + 2.0 * x, &xs),
            line_set(|x| 1.0 + 0.25 * x * x, &xs),
            line_set(|x| x, &[2.0, 4.0, 8.0]), // too few points
        ];
        let refs: Vec<&MeasurementSet> = sets.iter().collect();
        let batch = modeler.model_batch(&refs);
        assert_eq!(batch.forward_passes, 1);
        assert_eq!(batch.lines, 2, "the too-few-points set contributes no line");
        for (set, batched) in sets.iter().zip(&batch.results) {
            match (modeler.model(set), batched) {
                (Ok(single), Ok(b)) => {
                    assert_eq!(single.model.to_string(), b.model.to_string());
                    assert_eq!(single.cv_smape.to_bits(), b.cv_smape.to_bits());
                    assert_eq!(single.fit_smape.to_bits(), b.fit_smape.to_bits());
                }
                (Err(se), Err(be)) => assert_eq!(&se, be),
                (s, b) => panic!("batched/sequential disagree: {s:?} vs {b:?}"),
            }
        }
    }

    #[test]
    fn adaptation_runs_and_reports_sample_count() {
        let mut modeler = shared_modeler().clone();
        let set = line_set(|x| 1.0 + x, &[8.0, 64.0, 512.0, 4096.0, 32768.0]);
        let n = modeler.adapt_to_task(&set, (0.05, 0.2)).unwrap();
        assert!(n >= 8 * NUM_CLASSES, "adaptation used only {n} samples");
        // The modeler must still work after adaptation.
        assert!(modeler.model(&set).is_ok());
    }

    #[test]
    fn quantized_modeler_gates_and_preserves_decisions() {
        let base = shared_modeler();
        let opts = DnnOptions {
            quantize: true,
            ..tiny_opts()
        };
        let q = DnnModeler::from_network(opts, base.network().clone());
        // The gate decision is always recorded one way or the other.
        assert!(q.quantized() != q.quant_rejection().is_some());
        if let Some(report) = q.quant_report() {
            assert_eq!(report.argmax_flips, 0, "gate admits no argmax flips");
            assert!(report.calib_rows > 0);
        }
        let xs = [4.0, 8.0, 16.0, 32.0, 64.0];
        let lines: Vec<Vec<(f64, f64)>> = vec![
            xs.iter().map(|&x| (x, 3.0 * x)).collect(),
            xs.iter().map(|&x| (x, 1.0 + 0.5 * x * x)).collect(),
            xs.iter().map(|&x| (x, 7.0)).collect(),
        ];
        let quant_batch = q.classify_lines_batch(&lines);
        assert_eq!(quant_batch.quantized, q.quantized());
        let ref_batch = base.classify_lines_batch(&lines);
        assert!(!ref_batch.quantized, "quantization defaults off");
        let top = |p: &[f64]| (0..p.len()).fold(0, |best, i| if p[i] > p[best] { i } else { best });
        for (a, b) in quant_batch
            .probabilities
            .iter()
            .zip(&ref_batch.probabilities)
        {
            let (a, b) = (a.as_ref().unwrap(), b.as_ref().unwrap());
            assert_eq!(top(a), top(b), "served class must not change");
        }
    }

    #[test]
    fn adaptation_rebuilds_the_quantized_snapshot() {
        let base = shared_modeler();
        let opts = DnnOptions {
            quantize: true,
            ..tiny_opts()
        };
        let mut q = DnnModeler::from_network(opts, base.network().clone());
        let before = q.quantized();
        let set = line_set(|x| 1.0 + x, &[8.0, 64.0, 512.0, 4096.0, 32768.0]);
        q.adapt_to_task(&set, (0.05, 0.2)).unwrap();
        // After retraining the gate re-ran against the new weights.
        assert!(q.quantized() != q.quant_rejection().is_some());
        let _ = before;
        assert!(q.model(&set).is_ok());
    }

    /// Asserts that `m` answers exactly like a modeler freshly built from
    /// its current network: a snapshot left over from older weights fails.
    fn assert_snapshots_current(m: &DnnModeler, what: &str) {
        let fresh = DnnModeler::from_network(m.options().clone(), m.network().clone());
        let xs = [4.0, 8.0, 16.0, 32.0, 64.0];
        let lines: Vec<Vec<(f64, f64)>> = vec![
            xs.iter().map(|&x| (x, 3.0 * x)).collect(),
            xs.iter().map(|&x| (x, 1.0 + 0.5 * x * x)).collect(),
        ];
        let bits = |p: &[f64]| p.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        for line in &lines {
            let (lx, ly): (Vec<f64>, Vec<f64>) = line.iter().copied().unzip();
            assert_eq!(
                bits(&m.class_probabilities(&lx, &ly).unwrap()),
                bits(&fresh.class_probabilities(&lx, &ly).unwrap()),
                "{what}: f64 snapshot"
            );
            let set = line_set(|x| ly[xs.iter().position(|&v| v == x).unwrap()], &xs);
            let (got, want) = (m.model(&set).unwrap(), fresh.model(&set).unwrap());
            assert_eq!(got.model.to_string(), want.model.to_string(), "{what}");
            assert_eq!(got.cv_smape.to_bits(), want.cv_smape.to_bits(), "{what}");
        }
        assert_eq!(m.quantized(), fresh.quantized(), "{what}: int8 gate");
        let (got, want) = (
            m.classify_lines_batch(&lines),
            fresh.classify_lines_batch(&lines),
        );
        for (g, w) in got.probabilities.iter().zip(&want.probabilities) {
            assert_eq!(
                bits(g.as_ref().unwrap()),
                bits(w.as_ref().unwrap()),
                "{what}: batch snapshot"
            );
        }
    }

    #[test]
    fn every_weight_mutation_rebuilds_the_snapshots() {
        let base = shared_modeler();
        assert_snapshots_current(base, "pretrained");
        let set = line_set(|x| 1.0 + x, &[8.0, 64.0, 512.0, 4096.0, 32768.0]);
        let spec = TrainingSpec {
            samples_per_class: 8,
            ..Default::default()
        };
        for quantize in [false, true] {
            let opts = DnnOptions {
                quantize,
                ..tiny_opts()
            };
            let mut m = DnnModeler::from_network(opts, base.network().clone());
            assert_snapshots_current(&m, "from_network");
            let mut before = m.network().clone();
            m.adapt_to_task(&set, (0.05, 0.2)).unwrap();
            assert_ne!(m.network(), &before, "adaptation must move the weights");
            assert_snapshots_current(&m, "adapt_to_task");
            before = m.network().clone();
            m.adapt_with_spec(&spec);
            assert_ne!(m.network(), &before);
            assert_snapshots_current(&m, "adapt_with_spec");
            let validation = ValidationOptions {
                max_accuracy_drop: 1.0,
                ..Default::default()
            };
            before = m.network().clone();
            assert!(m.adapt_with_spec_validated(&spec, &validation).accepted);
            assert_ne!(m.network(), &before);
            assert_snapshots_current(&m, "adapt_with_spec_validated");
        }
    }

    #[test]
    fn clones_share_weights_until_one_adapts() {
        let base = shared_modeler();
        let original = base.clone();
        let mut adapted = base.clone();
        let set = line_set(|x| 1.0 + x, &[8.0, 64.0, 512.0, 4096.0, 32768.0]);
        adapted.adapt_to_task(&set, (0.05, 0.2)).unwrap();
        assert_ne!(adapted.network(), original.network());
        assert_eq!(original.network(), base.network(), "copy on write");
        assert_snapshots_current(&original, "untouched clone");
        assert_snapshots_current(&adapted, "adapted clone");
    }

    #[test]
    fn from_network_validates_shape() {
        let net = Network::new(&NetworkConfig::new(&[NUM_INPUTS, 8, NUM_CLASSES]), 1);
        let m = DnnModeler::from_network(tiny_opts(), net.clone());
        assert_eq!(m.network().num_classes(), NUM_CLASSES);
    }

    #[test]
    #[should_panic(expected = "11 inputs")]
    fn from_network_rejects_wrong_input_dim() {
        let net = Network::new(&NetworkConfig::new(&[5, 8, NUM_CLASSES]), 1);
        let _ = DnnModeler::from_network(tiny_opts(), net);
    }
}
