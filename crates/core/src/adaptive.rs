//! The adaptive modeler (Sec. IV-A): noise-driven switching between the
//! regression modeler and the DNN modeler.
//!
//! Below the switching threshold both modelers run and the cross-validated
//! SMAPE winner is returned; above it only the DNN runs — at high noise the
//! regression modeler's tight in-sample fit actively hurts extrapolation,
//! so keeping it in the race would degrade predictive power.
//!
//! # Robustness
//!
//! The entry point [`AdaptiveModeler::model`] is fault-tolerant end to end
//! (see DESIGN.md, "Fault model & degraded modes"):
//!
//! * the input is **sanitized** first ([`crate::sanitize`]) and the
//!   [`DataQualityReport`] travels with the outcome;
//! * when repairs were needed, the noise level is estimated with the
//!   median-based robust estimator ([`NoiseEstimate::robust_of`]) instead
//!   of the mean-based one, whose breakdown point is zero;
//! * modeling degrades along the chain **DNN → regression → constant
//!   mean**: if every sophisticated modeler fails recoverably, the outcome
//!   is the constant model at the mean of the aggregated values — for any
//!   salvageable input, `model` returns *something* rather than an error.

use crate::dnn::{DnnModeler, DnnOptions};
use crate::noise::NoiseEstimate;
use crate::sanitize::{admit, DataQualityReport, SanitizeOptions};
use crate::threshold::default_threshold;
use nrpm_extrap::{
    smape, Aggregation, MeasurementSet, Model, ModelError, ModelingResult, RegressionModeler,
};
use nrpm_nn::Network;
use serde::{Deserialize, Serialize};

/// Which modeler produced the final model.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum ModelerChoice {
    /// The classic regression modeler won the cross-validation comparison.
    Regression,
    /// The DNN modeler won (or was the only one consulted).
    Dnn,
    /// Both modelers failed recoverably; the constant-mean fallback model
    /// describes the data's central tendency.
    ConstantMean,
}

/// Options of the adaptive modeler.
#[derive(Debug, Clone, PartialEq)]
pub struct AdaptiveOptions {
    /// DNN modeler configuration (network, pretraining, adaptation).
    pub dnn: DnnOptions,
    /// Regression modeler configuration.
    pub regression: RegressionModeler,
    /// Per-parameter-count switching thresholds (fractions); when `None`,
    /// [`default_threshold`] applies.
    pub thresholds: Option<Vec<f64>>,
    /// Whether to run domain adaptation before each modeling task
    /// (Sec. IV-E: "we always use domain adaptation before modeling").
    /// Disable for the ablation benches.
    pub use_domain_adaptation: bool,
    /// Relative margin by which the DNN model's cross-validation SMAPE
    /// must beat the regression model's before the DNN wins the final
    /// selection. Below the noise threshold both models typically fit
    /// near-perfectly and their CV difference is statistical noise; a
    /// small preference for the regression model (whose candidate ranking
    /// is exhaustive rather than learned) avoids coin-flip selections.
    pub selection_margin: f64,
    /// Input sanitization applied before anything else (see
    /// [`crate::sanitize::admit`]); lenient by default.
    pub sanitize: SanitizeOptions,
}

impl Default for AdaptiveOptions {
    fn default() -> Self {
        AdaptiveOptions {
            dnn: DnnOptions::default(),
            regression: RegressionModeler::default(),
            thresholds: None,
            use_domain_adaptation: true,
            selection_margin: 0.10,
            sanitize: SanitizeOptions::default(),
        }
    }
}

impl AdaptiveOptions {
    /// The switching threshold for a set with `num_params` parameters:
    /// the configured one for that count (the last one for larger counts),
    /// else [`default_threshold`].
    pub fn threshold_for(&self, num_params: usize) -> f64 {
        match &self.thresholds {
            Some(t) if !t.is_empty() => {
                let idx = num_params.saturating_sub(1).min(t.len() - 1);
                t[idx]
            }
            _ => default_threshold(num_params),
        }
    }
}

/// The full outcome of an adaptive modeling run.
///
/// Serializable so outcomes can be memoized on disk (`nrpm-registry`'s
/// result cache): the JSON round trip is bit-stable for every float, so a
/// recovered outcome is indistinguishable from a freshly computed one.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct AdaptiveOutcome {
    /// The selected model and its scores.
    pub result: ModelingResult,
    /// The noise analysis that drove the decision.
    pub noise: NoiseEstimate,
    /// The threshold that was applied (fraction).
    pub threshold: f64,
    /// The regression modeler's result, when it was consulted.
    pub regression_result: Option<ModelingResult>,
    /// The DNN modeler's result, when it succeeded.
    pub dnn_result: Option<ModelingResult>,
    /// Which modeler won.
    pub choice: ModelerChoice,
    /// What the sanitizer changed about the input (untouched and clean
    /// when sanitization is
    /// [`SanitizePolicy::Off`](crate::sanitize::SanitizePolicy::Off)).
    pub quality: DataQualityReport,
}

/// The adaptive performance modeler.
///
/// Owns a pretrained [`DnnModeler`] (domain adaptation mutates the network,
/// hence `model` takes `&mut self`) and a [`RegressionModeler`].
#[derive(Debug, Clone)]
pub struct AdaptiveModeler {
    opts: AdaptiveOptions,
    dnn: DnnModeler,
}

impl AdaptiveModeler {
    /// Builds the modeler, pretraining the DNN now.
    pub fn pretrained(opts: AdaptiveOptions) -> Self {
        let dnn = DnnModeler::pretrained(opts.dnn.clone());
        AdaptiveModeler { opts, dnn }
    }

    /// Builds the modeler around an existing pretrained network (e.g.
    /// loaded from disk — pretraining is the expensive step).
    pub fn from_network(opts: AdaptiveOptions, network: Network) -> Self {
        let dnn = DnnModeler::from_network(opts.dnn.clone(), network);
        AdaptiveModeler { opts, dnn }
    }

    /// The modeler with domain adaptation switched `on` or off; the DNN,
    /// its weights and snapshots are kept as they are.
    pub fn with_domain_adaptation(mut self, on: bool) -> Self {
        self.opts.use_domain_adaptation = on;
        self
    }

    /// The configured options.
    pub fn options(&self) -> &AdaptiveOptions {
        &self.opts
    }

    /// The wrapped DNN modeler.
    pub fn dnn(&self) -> &DnnModeler {
        &self.dnn
    }

    /// Runs the adaptive modeling process of Fig. 1, hardened:
    /// sanitization → noise estimation → (domain adaptation) → DNN
    /// modeling, plus regression modeling below the threshold →
    /// cross-validation selection, degrading to the constant-mean model
    /// when both modelers fail recoverably.
    pub fn model(&mut self, set: &MeasurementSet) -> Result<AdaptiveOutcome, ModelError> {
        let prepared = prepare(&self.opts, set)?;

        if self.opts.use_domain_adaptation {
            let range = if prepared.noise.is_empty() {
                (0.0, 0.0)
            } else {
                prepared.noise.range()
            };
            self.dnn.adapt_to_task(&prepared.set, range)?;
        }

        let dnn_result = self.dnn.model(&prepared.set);
        finish(&self.opts, prepared, dnn_result)
    }

    /// Models several kernels in one go, coalescing their DNN forward
    /// passes into a single batched inference
    /// ([`DnnModeler::classify_lines_batch`]). Sanitization, noise
    /// estimation, regression consultation, and the degradation chain all
    /// run per kernel exactly as in [`Self::model`]; the one deliberate
    /// difference is that the batch path **skips domain adaptation** — a
    /// long-lived server cannot retrain the shared network per request
    /// without making results depend on request order. Callers that need
    /// adaptation should use the single-kernel path.
    pub fn model_batch(&self, sets: &[MeasurementSet]) -> AdaptiveBatch {
        let prepared: Vec<Result<Prepared, ModelError>> =
            sets.iter().map(|set| prepare(&self.opts, set)).collect();
        let ok_sets: Vec<&MeasurementSet> = prepared
            .iter()
            .filter_map(|p| p.as_ref().ok().map(|p| &p.set))
            .collect();
        let dnn_batch = self.dnn.model_batch(&ok_sets);

        let mut dnn_results = dnn_batch.results.into_iter();
        let outcomes = prepared
            .into_iter()
            .map(|p| {
                let p = p?;
                let dnn_result = dnn_results
                    .next()
                    .expect("one DNN batch result per prepared set");
                finish(&self.opts, p, dnn_result)
            })
            .collect();
        AdaptiveBatch {
            outcomes,
            batched_lines: dnn_batch.lines,
            forward_passes: dnn_batch.forward_passes,
            quantized: dnn_batch.quantized,
        }
    }
}

/// Result of a batched adaptive run ([`AdaptiveModeler::model_batch`]).
#[derive(Debug, Clone)]
pub struct AdaptiveBatch {
    /// Per-kernel outcomes, in input order.
    pub outcomes: Vec<Result<AdaptiveOutcome, ModelError>>,
    /// Measurement lines classified in the coalesced DNN forward pass.
    pub batched_lines: usize,
    /// Network forward passes issued for the whole batch (`0` or `1`).
    pub forward_passes: usize,
    /// Whether the coalesced forward pass ran on the int8-quantized
    /// network (see [`DnnOptions::quantize`](crate::DnnOptions)).
    pub quantized: bool,
}

/// Per-set state after the shared preprocessing pipeline: sanitized data,
/// quality report, noise estimate, and the applicable threshold.
struct Prepared {
    set: MeasurementSet,
    quality: DataQualityReport,
    noise: NoiseEstimate,
    threshold: f64,
}

/// The preprocessing half of the adaptive pipeline: parameter check,
/// sanitization (with strict-policy enforcement), and noise estimation.
fn prepare(opts: &AdaptiveOptions, set: &MeasurementSet) -> Result<Prepared, ModelError> {
    if set.num_params() == 0 {
        return Err(ModelError::NoParameters);
    }
    let (sanitized, quality) = admit(set, &opts.sanitize)?;
    // A corrupted campaign calls for the robust noise estimator: the
    // mean-based one has a breakdown point of zero, and even after
    // winsorization the clamped repetitions stretch the per-point
    // ranges it relies on.
    let noise = if quality.is_clean() {
        NoiseEstimate::of(&sanitized)
    } else {
        NoiseEstimate::robust_of(&sanitized)
    };
    let threshold = opts.threshold_for(sanitized.num_params());
    Ok(Prepared {
        set: sanitized,
        quality,
        noise,
        threshold,
    })
}

/// The adaptive switch (Sec. IV-A): which modeler's result to take, given
/// the set's noise level and what each modeler returned (`None`: failed,
/// or not consulted). Below [`AdaptiveOptions::threshold_for`] the CV-SMAPE
/// decides, the [`selection_margin`](AdaptiveOptions::selection_margin)
/// favouring regression; at or above it the DNN's result wins whenever
/// there is one. A lone result wins; `None` when both modelers failed.
pub fn select(
    opts: &AdaptiveOptions,
    num_params: usize,
    noise: f64,
    dnn: Option<&ModelingResult>,
    regression: Option<&ModelingResult>,
) -> Option<ModelerChoice> {
    match (dnn, regression) {
        (Some(d), Some(r)) if noise < opts.threshold_for(num_params) => {
            let margin = 1.0 + opts.selection_margin.max(0.0);
            Some(if r.cv_smape <= d.cv_smape * margin {
                ModelerChoice::Regression
            } else {
                ModelerChoice::Dnn
            })
        }
        (Some(_), _) => Some(ModelerChoice::Dnn),
        (None, Some(_)) => Some(ModelerChoice::Regression),
        (None, None) => None,
    }
}

/// The selection half of the adaptive pipeline: consult the regression
/// modeler below the noise threshold (or when the DNN failed), let
/// [`select`] pick the winner, and degrade to the constant-mean model when
/// both modelers fail recoverably.
fn finish(
    opts: &AdaptiveOptions,
    prepared: Prepared,
    dnn_result: Result<ModelingResult, ModelError>,
) -> Result<AdaptiveOutcome, ModelError> {
    let Prepared {
        set,
        quality,
        noise,
        threshold,
    } = prepared;
    // Above the threshold the regression modeler is skipped, unless the
    // DNN failed: then it is the last resort before the constant mean.
    let regression_result = if noise.mean() < threshold || dnn_result.is_err() {
        opts.regression.model(&set).ok()
    } else {
        None
    };
    let dnn = dnn_result.as_ref().ok();
    let regression = regression_result.as_ref();
    let (result, choice) = match select(opts, set.num_params(), noise.mean(), dnn, regression) {
        Some(ModelerChoice::Dnn) => (dnn.cloned(), ModelerChoice::Dnn),
        Some(choice) => (regression.cloned(), choice),
        None => {
            // Final rung of the degradation chain: recoverable failures
            // (too few points, no viable hypothesis, …) still leave
            // aggregable data — describe it with the constant model at the
            // mean so the caller gets an answer. Fatal errors (broken
            // coordinate domain) propagate.
            let e = dnn_result
                .as_ref()
                .expect_err("select chooses when the DNN succeeded")
                .clone();
            let fallback = e
                .is_recoverable()
                .then(|| constant_mean_result(&set, opts.dnn.aggregation))
                .flatten();
            (Some(fallback.ok_or(e)?), ModelerChoice::ConstantMean)
        }
    };
    Ok(AdaptiveOutcome {
        result: result.expect("select picks a modeler that succeeded"),
        noise,
        threshold,
        regression_result,
        dnn_result: dnn_result.ok(),
        choice,
        quality,
    })
}

/// The constant-mean fallback model: `f(x) = mean(aggregated values)`, with
/// leave-one-out cross-validation SMAPE so its score is comparable to the
/// real modelers'.
fn constant_mean_result(set: &MeasurementSet, agg: Aggregation) -> Option<ModelingResult> {
    let values: Vec<f64> = set.aggregated(agg).into_iter().map(|(_, v)| v).collect();
    if values.is_empty() {
        return None;
    }
    let n = values.len();
    let total: f64 = values.iter().sum();
    let mean = total / n as f64;
    if !mean.is_finite() {
        return None;
    }
    let fit_smape = smape(&values, &vec![mean; n]);
    let cv_smape = if n >= 2 {
        let loo: Vec<f64> = values
            .iter()
            .map(|v| (total - v) / (n - 1) as f64)
            .collect();
        smape(&values, &loo)
    } else {
        fit_smape
    };
    Some(ModelingResult {
        model: Model::constant_model(set.num_params(), mean),
        cv_smape,
        fit_smape,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::preprocess::NUM_INPUTS;
    use crate::sanitize::SanitizePolicy;
    use nrpm_extrap::ExponentPair;
    use nrpm_nn::NetworkConfig;
    use nrpm_synth::TrainingSpec;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn tiny_options() -> AdaptiveOptions {
        AdaptiveOptions {
            dnn: DnnOptions {
                network: NetworkConfig::new(&[NUM_INPUTS, 64, nrpm_extrap::NUM_CLASSES]),
                pretrain_spec: TrainingSpec {
                    samples_per_class: 50,
                    noise_range: (0.0, 0.4),
                    ..Default::default()
                },
                pretrain_epochs: 5,
                adaptation_samples_per_class: 30,
                seed: 5,
                ..Default::default()
            },
            ..Default::default()
        }
    }

    fn clean_linear_set() -> MeasurementSet {
        let mut set = MeasurementSet::new(1);
        for &x in &[4.0, 8.0, 16.0, 32.0, 64.0] {
            set.add_repetitions(&[x], &[2.0 * x, 2.0 * x, 2.0 * x]);
        }
        set
    }

    fn noisy_set(level: f64, seed: u64) -> MeasurementSet {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut set = MeasurementSet::new(1);
        for &x in &[4.0f64, 8.0, 16.0, 32.0, 64.0] {
            let truth = 1.0 + 0.5 * x * x;
            let reps: Vec<f64> = (0..5)
                .map(|_| truth * rng.gen_range(1.0 - level / 2.0..=1.0 + level / 2.0))
                .collect();
            set.add_repetitions(&[x], &reps);
        }
        set
    }

    #[test]
    fn clean_data_consults_the_regression_modeler() {
        let mut modeler = AdaptiveModeler::pretrained(tiny_options());
        let outcome = modeler.model(&clean_linear_set()).unwrap();
        // Noise is zero, far below any threshold.
        assert!(outcome.noise.mean() < 0.01);
        assert!(outcome.regression_result.is_some());
        // The exact linear model must be found.
        assert_eq!(
            outcome.result.model.lead_exponent(0).unwrap(),
            ExponentPair::from_parts(1, 1, 0)
        );
        assert!(outcome.result.cv_smape < 1e-6);
    }

    #[test]
    fn high_noise_switches_off_the_regression_modeler() {
        let mut opts = tiny_options();
        opts.use_domain_adaptation = false; // keep the test fast
        let mut modeler = AdaptiveModeler::pretrained(opts);
        let set = noisy_set(0.9, 11);
        let outcome = modeler.model(&set).unwrap();
        assert!(
            outcome.noise.mean() > outcome.threshold,
            "estimated noise {} below threshold {}",
            outcome.noise.mean(),
            outcome.threshold
        );
        assert!(outcome.regression_result.is_none());
        assert_eq!(outcome.choice, ModelerChoice::Dnn);
    }

    #[test]
    fn custom_thresholds_are_respected() {
        let mut opts = tiny_options();
        opts.use_domain_adaptation = false;
        opts.thresholds = Some(vec![0.9]); // effectively never switch off
        let mut modeler = AdaptiveModeler::pretrained(opts);
        let set = noisy_set(0.5, 13);
        let outcome = modeler.model(&set).unwrap();
        assert_eq!(outcome.threshold, 0.9);
        assert!(outcome.regression_result.is_some());
    }

    #[test]
    fn domain_adaptation_path_works_end_to_end() {
        let mut modeler = AdaptiveModeler::pretrained(tiny_options());
        let set = noisy_set(0.2, 17);
        let outcome = modeler.model(&set).unwrap();
        assert!(outcome.result.cv_smape.is_finite());
        assert!(outcome.dnn_result.is_some() || outcome.regression_result.is_some());
    }

    #[test]
    fn zero_params_is_rejected() {
        let mut modeler = AdaptiveModeler::pretrained(tiny_options());
        let set = MeasurementSet::new(0);
        assert!(matches!(modeler.model(&set), Err(ModelError::NoParameters)));
    }

    #[test]
    fn corrupted_input_is_repaired_and_modeled() {
        let mut opts = tiny_options();
        opts.use_domain_adaptation = false;
        let mut modeler = AdaptiveModeler::pretrained(opts);
        let mut set = MeasurementSet::new(1);
        for &x in &[4.0f64, 8.0, 16.0, 32.0, 64.0] {
            // One NaN and one 100x spike per point, plus clean repetitions.
            set.add_repetitions(&[x], &[2.0 * x, f64::NAN, 200.0 * x, 2.1 * x, 1.9 * x]);
        }
        let outcome = modeler.model(&set).unwrap();
        assert!(!outcome.quality.is_clean());
        assert_eq!(outcome.quality.dropped_non_finite, 5);
        assert_eq!(outcome.quality.clamped, 5);
        assert!(outcome.result.cv_smape.is_finite());
        // The spikes were winsorized, so the linear trend must survive.
        assert!(
            outcome.result.model.evaluate(&[128.0]) < 10_000.0,
            "spikes leaked into the model: {}",
            outcome.result.model
        );
    }

    #[test]
    fn strict_policy_rejects_corrupted_input() {
        let mut opts = tiny_options();
        opts.use_domain_adaptation = false;
        opts.sanitize.policy = SanitizePolicy::Strict;
        let mut modeler = AdaptiveModeler::pretrained(opts);
        let mut set = clean_linear_set();
        set.add_repetitions(&[128.0], &[256.0, f64::NAN]);
        let err = modeler.model(&set).unwrap_err();
        assert!(matches!(err, ModelError::CorruptData { dropped: 1, .. }));
        assert!(err.is_recoverable());
    }

    #[test]
    fn strict_policy_accepts_clean_input() {
        let mut opts = tiny_options();
        opts.use_domain_adaptation = false;
        opts.sanitize.policy = SanitizePolicy::Strict;
        let mut modeler = AdaptiveModeler::pretrained(opts);
        let outcome = modeler.model(&clean_linear_set()).unwrap();
        assert!(outcome.quality.is_clean());
    }

    #[test]
    fn fully_corrupt_input_reports_no_usable_data() {
        let mut opts = tiny_options();
        opts.use_domain_adaptation = false;
        let mut modeler = AdaptiveModeler::pretrained(opts);
        let mut set = MeasurementSet::new(1);
        set.add_repetitions(&[4.0], &[f64::NAN, f64::INFINITY]);
        set.add_repetitions(&[8.0], &[0.0, -1.0]);
        assert!(matches!(modeler.model(&set), Err(ModelError::NoUsableData)));
    }

    #[test]
    fn too_few_points_degrades_to_the_constant_mean_model() {
        let mut opts = tiny_options();
        opts.use_domain_adaptation = false;
        let mut modeler = AdaptiveModeler::pretrained(opts);
        // Three points: both real modelers demand five distinct ones.
        let mut set = MeasurementSet::new(1);
        for &x in &[4.0, 8.0, 16.0] {
            set.add_repetitions(&[x], &[10.0, 10.5, 9.5]);
        }
        let outcome = modeler.model(&set).unwrap();
        assert_eq!(outcome.choice, ModelerChoice::ConstantMean);
        assert!(outcome.result.model.terms.is_empty());
        assert!((outcome.result.model.evaluate(&[32.0]) - 10.0).abs() < 1.0);
        assert!(outcome.result.cv_smape.is_finite());
    }

    #[test]
    fn select_races_cv_below_the_threshold_and_takes_the_dnn_above() {
        use ModelerChoice::{Dnn, Regression};
        let opts = AdaptiveOptions::default(); // m = 1: 25 %, m = 2: 20 %
        let scored = |cv_smape| ModelingResult {
            model: Model::constant_model(1, 1.0),
            cv_smape,
            fit_smape: cv_smape,
        };
        let pick = |m, noise, dnn: Option<f64>, regression: Option<f64>| {
            let (d, r) = (dnn.map(scored), regression.map(scored));
            select(&opts, m, noise, d.as_ref(), r.as_ref())
        };
        // Within the 10 % margin the regression model wins; past it, the DNN.
        assert_eq!(pick(1, 0.1, Some(1.0), Some(1.1)), Some(Regression));
        assert_eq!(pick(1, 0.1, Some(1.0), Some(1.2)), Some(Dnn));
        // At or above the threshold the DNN wins whatever the CV says.
        assert_eq!(pick(1, 0.25, Some(1.0), Some(0.0)), Some(Dnn));
        assert_eq!(pick(2, 0.22, Some(1.0), Some(0.0)), Some(Dnn));
        // A lone result wins at any noise; no result is no choice.
        assert_eq!(pick(1, 0.1, Some(1.0), None), Some(Dnn));
        assert_eq!(pick(1, 0.9, None, Some(5.0)), Some(Regression));
        assert_eq!(pick(1, 0.0, None, None), None);
    }

    #[test]
    fn constant_mean_result_scores_by_leave_one_out() {
        let mut set = MeasurementSet::new(1);
        for &x in &[2.0, 4.0, 8.0] {
            set.add(&[x], 10.0);
        }
        let r = constant_mean_result(&set, Aggregation::Median).unwrap();
        // Perfectly constant data: zero error both in-sample and LOO.
        assert!(r.fit_smape < 1e-12);
        assert!(r.cv_smape < 1e-12);
        assert_eq!(r.model.evaluate(&[1000.0]), 10.0);
    }

    #[test]
    fn sanitization_off_passes_input_through() {
        let mut opts = tiny_options();
        opts.use_domain_adaptation = false;
        opts.sanitize.policy = SanitizePolicy::Off;
        let mut modeler = AdaptiveModeler::pretrained(opts);
        let outcome = modeler.model(&clean_linear_set()).unwrap();
        assert!(outcome.quality.is_clean());
        assert_eq!(outcome.quality.points_in, 5);
    }

    #[test]
    fn model_batch_matches_sequential_outcomes() {
        let mut opts = tiny_options();
        opts.use_domain_adaptation = false;
        let mut sequential = AdaptiveModeler::pretrained(opts.clone());
        let batched = AdaptiveModeler::from_network(opts, sequential.dnn().network().clone());

        let sets = vec![
            clean_linear_set(),
            noisy_set(0.3, 7),
            MeasurementSet::new(0), // NoParameters — must not poison the batch
            noisy_set(0.05, 11),
        ];
        let batch = batched.model_batch(&sets);
        assert_eq!(batch.outcomes.len(), sets.len());
        assert_eq!(batch.forward_passes, 1);
        assert!(batch.batched_lines >= 3);

        for (set, got) in sets.iter().zip(&batch.outcomes) {
            match (sequential.model(set), got) {
                (Ok(want), Ok(got)) => {
                    assert_eq!(want.choice, got.choice);
                    assert_eq!(want.result.model.to_string(), got.result.model.to_string());
                    assert_eq!(
                        want.result.cv_smape.to_bits(),
                        got.result.cv_smape.to_bits()
                    );
                    assert_eq!(want.noise.mean().to_bits(), got.noise.mean().to_bits());
                }
                (Err(want), Err(got)) => assert_eq!(want.severity(), got.severity()),
                (want, got) => panic!("outcome mismatch: {want:?} vs {got:?}"),
            }
        }
    }

    #[test]
    fn outcomes_round_trip_bit_stably_through_json() {
        use serde::{Deserialize as _, Serialize as _};
        let mut opts = tiny_options();
        opts.use_domain_adaptation = false;
        let mut modeler = AdaptiveModeler::pretrained(opts);
        let outcome = modeler.model(&noisy_set(0.2, 3)).unwrap();

        let text = serde_json::to_string(&outcome.to_value()).unwrap();
        let back = AdaptiveOutcome::from_value(&serde_json::from_str(&text).unwrap()).unwrap();

        // Bit-stability is what lets the persistent result cache hand back
        // a recovered outcome as if it were freshly computed.
        assert_eq!(
            back.result.cv_smape.to_bits(),
            outcome.result.cv_smape.to_bits()
        );
        assert_eq!(
            back.result.fit_smape.to_bits(),
            outcome.result.fit_smape.to_bits()
        );
        assert_eq!(back.noise.mean().to_bits(), outcome.noise.mean().to_bits());
        assert_eq!(back.threshold.to_bits(), outcome.threshold.to_bits());
        assert_eq!(back.choice, outcome.choice);
        assert_eq!(
            back.result.model.to_string(),
            outcome.result.model.to_string()
        );
        assert_eq!(
            back.result.model.evaluate(&[128.0]).to_bits(),
            outcome.result.model.evaluate(&[128.0]).to_bits()
        );
        assert_eq!(back.quality, outcome.quality);
        assert_eq!(
            back.regression_result.is_some(),
            outcome.regression_result.is_some()
        );
    }

    #[test]
    fn network_round_trip_through_from_network() {
        let modeler = AdaptiveModeler::pretrained(tiny_options());
        let json = modeler.dnn().network().to_json();
        let net = Network::from_json(&json).unwrap();
        let mut opts = tiny_options();
        opts.use_domain_adaptation = false;
        let mut restored = AdaptiveModeler::from_network(opts, net);
        let outcome = restored.model(&clean_linear_set()).unwrap();
        assert!(outcome.result.cv_smape < 1.0);
    }
}
