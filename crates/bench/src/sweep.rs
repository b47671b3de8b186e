//! The synthetic sweep engine behind Fig. 3 (model accuracy and predictive
//! power vs. noise, for one to three parameters).
//!
//! For every noise level the engine generates a batch of random PMNF
//! functions, measures them on a noisy `5^m` grid, runs the regression
//! modeler and the DNN modeler on each task (in parallel across worker
//! threads), applies the adaptive switch, and aggregates lead-exponent
//! accuracy buckets and extrapolation errors at the four `P⁺` points.
//!
//! Domain adaptation runs once per noise level: within a level every task
//! shares the adaptation inputs (parameter count, point counts, noise
//! range), so per-function retraining would retrain on an identical
//! distribution (see DESIGN.md).

use nrpm_core::dnn::{DnnModeler, DnnOptions};
use nrpm_core::metrics::{lead_exponent_distance, relative_errors, AccuracyBuckets};
use nrpm_core::noise::NoiseEstimate;
use nrpm_core::threshold::default_threshold;
use nrpm_extrap::{ModelingResult, RegressionModeler};
use nrpm_linalg::stats;
use nrpm_synth::{generate_eval_tasks, EvalTask, EvalTaskSpec, TrainingSpec};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Configuration of a synthetic sweep.
#[derive(Debug, Clone)]
pub struct SweepConfig {
    /// Number of model parameters `m`.
    pub num_params: usize,
    /// Noise levels to sweep (fractions).
    pub noise_levels: Vec<f64>,
    /// Functions generated per noise level (the paper uses 100 000; the
    /// default harness value is much smaller — scale with `--functions`).
    pub functions: usize,
    /// Base RNG seed.
    pub seed: u64,
    /// Worker threads for the per-task modeling.
    pub threads: usize,
    /// DNN modeler configuration.
    pub dnn: DnnOptions,
    /// Whether to run per-noise-level domain adaptation.
    pub adaptation: bool,
    /// Switching threshold override; `None` uses the defaults.
    pub threshold: Option<f64>,
    /// Repetitions per measurement point (paper: 5; ablation knob).
    pub repetitions: usize,
    /// Repetition aggregation used by both modelers (paper: median).
    pub aggregation: nrpm_extrap::Aggregation,
    /// Use the *refined* regression baseline (our extension beyond the
    /// paper) instead of the paper-faithful one. Default false: Fig. 3
    /// compares against the paper's baseline.
    pub refined_baseline: bool,
}

impl Default for SweepConfig {
    fn default() -> Self {
        SweepConfig {
            num_params: 1,
            noise_levels: crate::PAPER_NOISE_LEVELS.to_vec(),
            functions: 200,
            seed: 0xF16,
            threads: std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(4),
            dnn: DnnOptions::default(),
            adaptation: true,
            threshold: None,
            repetitions: 5,
            aggregation: nrpm_extrap::Aggregation::Median,
            refined_baseline: false,
        }
    }
}

/// Aggregated statistics of one modeler at one noise level.
#[derive(Debug, Clone)]
pub struct ModelerStats {
    /// Lead-exponent distances, one per successfully modelled task.
    pub distances: Vec<f64>,
    /// Accuracy-bucket fractions over `distances`.
    pub buckets: AccuracyBuckets,
    /// Median relative prediction error (percent) per evaluation point
    /// `P⁺₁ … P⁺₄`.
    pub median_errors: Vec<f64>,
    /// All relative errors per evaluation point (the samples behind
    /// `median_errors`), for confidence intervals.
    pub errors_per_point: Vec<Vec<f64>>,
    /// Number of tasks where the modeler failed outright.
    pub failures: usize,
}

impl ModelerStats {
    /// 99 % Wilson confidence interval of the `d ≤ 1/4` accuracy (the
    /// paper reports 99 % CIs deviating at most 2 pp from the accuracy
    /// values).
    pub fn quarter_ci99(&self) -> Option<(f64, f64)> {
        let total = self.distances.len();
        let hits = self
            .distances
            .iter()
            .filter(|&&d| d <= 0.25 + 1e-12)
            .count();
        stats::wilson_interval(hits, total, 2.576)
    }

    /// 99 % bootstrap confidence interval of the median relative error at
    /// evaluation point `k` (deterministic resampling).
    pub fn median_error_ci99(&self, k: usize) -> Option<(f64, f64)> {
        let errors_at_k = self.errors_per_point.get(k)?;
        let mut state = 0x9E3779B97F4A7C15u64.wrapping_add(k as u64);
        stats::bootstrap_median_ci(errors_at_k, 300, 0.01, move |n| {
            // splitmix64 — deterministic bootstrap, no rand dependency here
            state = state.wrapping_add(0x9E3779B97F4A7C15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D049BB133111EB);
            ((z ^ (z >> 31)) % n as u64) as usize
        })
    }
}

impl ModelerStats {
    fn from_tasks(results: &[Option<ModelTaskOutcome>], num_eval_points: usize) -> ModelerStats {
        let mut distances = Vec::new();
        let mut per_point: Vec<Vec<f64>> = vec![Vec::new(); num_eval_points];
        let mut failures = 0;
        for r in results {
            match r {
                Some(o) => {
                    distances.push(o.distance);
                    for (k, &e) in o.errors.iter().enumerate() {
                        per_point[k].push(e);
                    }
                }
                None => {
                    // A failed modeling attempt is an incorrect model: it
                    // must count against the accuracy (the paper divides by
                    // the number of modeling *tasks*, not successes).
                    distances.push(f64::INFINITY);
                    failures += 1;
                }
            }
        }
        ModelerStats {
            buckets: AccuracyBuckets::tally(&distances),
            distances,
            median_errors: per_point.iter().map(|v| stats::median(v)).collect(),
            errors_per_point: per_point,
            failures,
        }
    }
}

/// One modeler's outcome on one task.
#[derive(Debug, Clone)]
struct ModelTaskOutcome {
    distance: f64,
    errors: Vec<f64>,
    cv_smape: f64,
}

fn outcome(task: &EvalTask, result: &ModelingResult) -> ModelTaskOutcome {
    ModelTaskOutcome {
        distance: lead_exponent_distance(&result.model, &task.truth.pairs),
        errors: relative_errors(&result.model, &task.eval_points),
        cv_smape: result.cv_smape,
    }
}

/// Results of one noise level.
#[derive(Debug, Clone)]
pub struct NoiseLevelResult {
    /// The injected noise level (fraction).
    pub noise: f64,
    /// Mean noise level estimated by the rrd heuristic across tasks.
    pub estimated_noise: f64,
    /// Regression modeler statistics.
    pub regression: ModelerStats,
    /// DNN modeler statistics.
    pub dnn: ModelerStats,
    /// Adaptive modeler statistics (switch applied).
    pub adaptive: ModelerStats,
}

/// Runs the sweep: pretrains the DNN once, then processes every noise
/// level. Returns one entry per noise level, in order.
pub fn run_sweep(config: &SweepConfig) -> Vec<NoiseLevelResult> {
    let pretrained = DnnModeler::pretrained(config.dnn.clone());
    config
        .noise_levels
        .iter()
        .map(|&noise| run_noise_level(config, &pretrained, noise))
        .collect()
}

fn run_noise_level(config: &SweepConfig, pretrained: &DnnModeler, noise: f64) -> NoiseLevelResult {
    let mut rng = StdRng::seed_from_u64(config.seed ^ (noise * 1e6) as u64);
    let spec = EvalTaskSpec {
        repetitions: config.repetitions,
        ..EvalTaskSpec::paper(config.num_params, noise)
    };
    let tasks = generate_eval_tasks(&spec, config.functions, &mut rng);

    // Domain adaptation once per level: random sequences (they vary per
    // task), the level's exact noise, the paper's repetition count.
    let mut dnn = pretrained.clone();
    if config.adaptation {
        dnn.adapt_with_spec(&TrainingSpec {
            samples_per_class: config.dnn.adaptation_samples_per_class,
            noise_range: (noise, noise),
            repetitions: spec.repetitions,
            ..Default::default()
        });
    }

    let threshold = config
        .threshold
        .unwrap_or_else(|| default_threshold(config.num_params));
    let mut regression = RegressionModeler::default();
    regression.single.aggregation = config.aggregation;
    if !config.refined_baseline {
        regression.multi = nrpm_extrap::MultiParameterOptions::paper_baseline();
    }

    // Parallel per-task modeling.
    let num_tasks = tasks.len();
    let mut reg_outcomes: Vec<Option<ModelTaskOutcome>> = vec![None; num_tasks];
    let mut dnn_outcomes: Vec<Option<ModelTaskOutcome>> = vec![None; num_tasks];
    let mut adaptive_outcomes: Vec<Option<ModelTaskOutcome>> = vec![None; num_tasks];
    let mut estimated = vec![0.0f64; num_tasks];

    let threads = config.threads.max(1);
    let chunk = num_tasks.div_ceil(threads);
    std::thread::scope(|scope| {
        let task_slices = tasks.chunks(chunk);
        let reg_slices = reg_outcomes.chunks_mut(chunk);
        let dnn_slices = dnn_outcomes.chunks_mut(chunk);
        let ada_slices = adaptive_outcomes.chunks_mut(chunk);
        let est_slices = estimated.chunks_mut(chunk);
        for ((((task_c, reg_c), dnn_c), ada_c), est_c) in task_slices
            .zip(reg_slices)
            .zip(dnn_slices)
            .zip(ada_slices)
            .zip(est_slices)
        {
            let regression = &regression;
            let dnn = &dnn;
            scope.spawn(move || {
                for (i, task) in task_c.iter().enumerate() {
                    let reg_result = regression.model(&task.set).ok();
                    let dnn_result = dnn.model(&task.set).ok();
                    let est = NoiseEstimate::of(&task.set).mean();
                    est_c[i] = est;

                    reg_c[i] = reg_result.as_ref().map(|r| outcome(task, r));
                    dnn_c[i] = dnn_result.as_ref().map(|r| outcome(task, r));

                    // The adaptive switch: below the threshold both run and
                    // the CV winner is taken (with a small margin favouring
                    // the regression model, cf. AdaptiveOptions); above it,
                    // DNN only.
                    ada_c[i] = match (&reg_c[i], &dnn_c[i]) {
                        (Some(r), Some(d)) if est < threshold => {
                            if r.cv_smape <= d.cv_smape * 1.10 {
                                Some(r.clone())
                            } else {
                                Some(d.clone())
                            }
                        }
                        (_, Some(d)) => Some(d.clone()),
                        (Some(r), None) => Some(r.clone()),
                        (None, None) => None,
                    };
                }
            });
        }
    });

    NoiseLevelResult {
        noise,
        estimated_noise: stats::mean(&estimated),
        regression: ModelerStats::from_tasks(&reg_outcomes, spec.num_eval_points),
        dnn: ModelerStats::from_tasks(&dnn_outcomes, spec.num_eval_points),
        adaptive: ModelerStats::from_tasks(&adaptive_outcomes, spec.num_eval_points),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nrpm_core::preprocess::NUM_INPUTS;
    use nrpm_nn::NetworkConfig;

    fn tiny_config() -> SweepConfig {
        SweepConfig {
            num_params: 1,
            noise_levels: vec![0.02, 0.75],
            functions: 24,
            dnn: DnnOptions {
                network: NetworkConfig::new(&[NUM_INPUTS, 48, nrpm_extrap::NUM_CLASSES]),
                pretrain_spec: TrainingSpec {
                    samples_per_class: 30,
                    ..Default::default()
                },
                pretrain_epochs: 3,
                adaptation_samples_per_class: 20,
                seed: 2,
                ..Default::default()
            },
            ..Default::default()
        }
    }

    #[test]
    fn sweep_produces_one_result_per_noise_level() {
        let results = run_sweep(&tiny_config());
        assert_eq!(results.len(), 2);
        assert_eq!(results[0].noise, 0.02);
        assert_eq!(results[1].noise, 0.75);
        for r in &results {
            assert_eq!(r.regression.median_errors.len(), 4);
            assert_eq!(r.dnn.median_errors.len(), 4);
            assert!(r.regression.distances.len() + r.regression.failures == 24);
        }
    }

    #[test]
    fn noise_estimates_track_injected_levels() {
        let results = run_sweep(&tiny_config());
        assert!(results[0].estimated_noise < 0.1);
        assert!(results[1].estimated_noise > 0.3);
    }

    #[test]
    fn regression_is_accurate_at_low_noise() {
        let results = run_sweep(&tiny_config());
        // At 2 % noise, the regression modeler should nail almost all of
        // the single-parameter tasks within d <= 1/2.
        assert!(
            results[0].regression.buckets.within_half > 0.8,
            "within_half = {}",
            results[0].regression.buckets.within_half
        );
    }

    #[test]
    fn buckets_are_monotone_in_their_limits() {
        for r in run_sweep(&tiny_config()) {
            for stats in [&r.regression, &r.dnn, &r.adaptive] {
                assert!(stats.buckets.within_quarter <= stats.buckets.within_third + 1e-12);
                assert!(stats.buckets.within_third <= stats.buckets.within_half + 1e-12);
            }
        }
    }
}
