//! The one synthetic sweep engine, behind Fig. 3, `threshold_calibration`
//! ([`crossing`]) and `nrpm sweep` ([`crate::regime`]).
//!
//! A *cell* ([`SweepConfig::cell`]) is a batch of random PMNF functions
//! measured on a noisy `5^m` grid at one noise level in one noise family.
//! Each task is modeled by the regression modeler and the DNN modeler (in
//! parallel across worker threads) and by the shipped adaptive switch
//! ([`nrpm_core::adaptive::select`]) over the two; the cell aggregates
//! lead-exponent accuracy buckets and extrapolation errors at the `P⁺`
//! points. Domain adaptation runs once per cell ([`SweepConfig::adapt`]):
//! within a cell every task shares the adaptation inputs, so per-function
//! retraining would retrain on an identical distribution (see DESIGN.md).

use nrpm_core::adaptive::{select, AdaptiveOptions, ModelerChoice};
use nrpm_core::dnn::DnnModeler;
use nrpm_core::metrics::{lead_exponent_distance, relative_errors, AccuracyBuckets};
use nrpm_core::noise::NoiseEstimate;
use nrpm_core::preprocess::NUM_INPUTS;
use nrpm_core::threshold::{intersection_threshold, AccuracyCurve};
use nrpm_extrap::{ModelingResult, MultiParameterOptions, RegressionModeler};
use nrpm_linalg::stats;
use nrpm_nn::NetworkConfig;
use nrpm_synth::{generate_eval_tasks, EvalTask, EvalTaskSpec, NoiseFamily, TrainingSpec};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Configuration of a synthetic sweep.
#[derive(Debug, Clone, PartialEq)]
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
    /// Repetitions per measurement point (paper: 5; ablation knob).
    pub repetitions: usize,
    /// The adaptive modeler under test: its DNN, regression baseline and
    /// switch, and whether each cell domain-adapts the DNN. Tasks are
    /// modeled as generated (no sanitization).
    pub adaptive: AdaptiveOptions,
}

impl Default for SweepConfig {
    /// Fig. 3's sweep: the paper's noise levels, 200 functions per level,
    /// and the paper-faithful regression baseline.
    fn default() -> Self {
        SweepConfig {
            num_params: 1,
            noise_levels: crate::PAPER_NOISE_LEVELS.to_vec(),
            functions: 200,
            seed: 0xF16,
            threads: std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(4),
            repetitions: 5,
            adaptive: AdaptiveOptions {
                regression: RegressionModeler {
                    multi: MultiParameterOptions::paper_baseline(),
                    ..Default::default()
                },
                ..Default::default()
            },
        }
    }
}

/// Aggregated statistics of one modeler at one noise level.
#[derive(Debug, Clone)]
pub struct ModelerStats {
    /// Lead-exponent distances, one per task in task order; a failed
    /// task counts as `INFINITY`.
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
        let hits = (self.buckets.within_quarter * total as f64).round() as usize;
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

    fn from_tasks<'a>(
        results: impl Iterator<Item = Option<&'a Scored>>,
        num_eval_points: usize,
    ) -> ModelerStats {
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

/// One modeler's model of one task, graded against the task's truth.
#[derive(Debug, Clone)]
struct Scored {
    distance: f64,
    errors: Vec<f64>,
}

/// Both modelers' models of one task and the switch's choice between them.
#[derive(Debug, Clone)]
struct TaskOutcome {
    noise: f64,
    regression: Option<Scored>,
    dnn: Option<Scored>,
    /// `None` when both modelers failed.
    choice: Option<ModelerChoice>,
}

impl TaskOutcome {
    fn adaptive(&self) -> Option<&Scored> {
        match self.choice? {
            ModelerChoice::Regression => self.regression.as_ref(),
            ModelerChoice::Dnn => self.dnn.as_ref(),
            ModelerChoice::ConstantMean => None,
        }
    }
}

/// Results of one cell (one noise level of one family).
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

impl SweepConfig {
    /// The same sweep on a CI-sized DNN (`nrpm sweep --quick`): one
    /// 48-unit hidden layer, pretrained on 30 samples per class for 3
    /// epochs, adapted on 12 per class.
    pub fn quick(mut self) -> SweepConfig {
        let dnn = &mut self.adaptive.dnn;
        dnn.network = NetworkConfig::new(&[NUM_INPUTS, 48, nrpm_extrap::NUM_CLASSES]);
        dnn.pretrain_spec.samples_per_class = 30;
        dnn.pretrain_epochs = 3;
        dnn.adaptation_samples_per_class = 12;
        self
    }

    /// A clone of `pretrained`, domain-adapted to `family` noise at exactly
    /// `noise` when [`AdaptiveOptions::use_domain_adaptation`] is set.
    pub fn adapt(&self, pretrained: &DnnModeler, family: NoiseFamily, noise: f64) -> DnnModeler {
        let mut dnn = pretrained.clone();
        if self.adaptive.use_domain_adaptation {
            dnn.adapt_with_spec(&TrainingSpec {
                samples_per_class: self.adaptive.dnn.adaptation_samples_per_class,
                noise_range: (noise, noise),
                repetitions: self.repetitions,
                family,
                ..Default::default()
            });
        }
        dnn
    }

    /// The `functions` evaluation tasks of one cell, drawn from `seed`.
    fn tasks(&self, family: NoiseFamily, noise: f64, seed: u64) -> Vec<EvalTask> {
        let spec = EvalTaskSpec {
            repetitions: self.repetitions,
            family,
            ..EvalTaskSpec::paper(self.num_params, noise)
        };
        generate_eval_tasks(&spec, self.functions, &mut StdRng::seed_from_u64(seed))
    }

    /// Evaluates one cell: the tasks drawn from `seed` in `family` at
    /// `noise`, modeled by the regression baseline, by `dnn`, and by the
    /// adaptive switch over the two.
    pub fn cell(
        &self,
        dnn: &DnnModeler,
        family: NoiseFamily,
        noise: f64,
        seed: u64,
    ) -> NoiseLevelResult {
        let tasks = self.tasks(family, noise, seed);
        let chunk = tasks.len().div_ceil(self.threads.max(1)).max(1);
        let outcomes: Vec<TaskOutcome> = std::thread::scope(|scope| {
            let workers: Vec<_> = tasks
                .chunks(chunk)
                .map(|chunk| {
                    scope.spawn(move || {
                        chunk
                            .iter()
                            .map(|task| self.model_task(dnn, task))
                            .collect::<Vec<_>>()
                    })
                })
                .collect();
            workers
                .into_iter()
                .flat_map(|w| w.join().expect("sweep worker panicked"))
                .collect()
        });

        let points = tasks.first().map_or(0, |t| t.eval_points.len());
        let modeler = |scored: fn(&TaskOutcome) -> Option<&Scored>| {
            ModelerStats::from_tasks(outcomes.iter().map(scored), points)
        };
        let estimated: Vec<f64> = outcomes.iter().map(|o| o.noise).collect();
        NoiseLevelResult {
            noise,
            estimated_noise: stats::mean(&estimated),
            regression: modeler(|o| o.regression.as_ref()),
            dnn: modeler(|o| o.dnn.as_ref()),
            adaptive: modeler(TaskOutcome::adaptive),
        }
    }

    fn model_task(&self, dnn: &DnnModeler, task: &EvalTask) -> TaskOutcome {
        let regression = self.adaptive.regression.model(&task.set).ok();
        let dnn = dnn.model(&task.set).ok();
        let noise = NoiseEstimate::of(&task.set).mean();
        let choice = select(
            &self.adaptive,
            task.set.num_params(),
            noise,
            dnn.as_ref(),
            regression.as_ref(),
        );
        let score = |result: ModelingResult| Scored {
            distance: lead_exponent_distance(&result.model, &task.truth.pairs),
            errors: relative_errors(&result.model, &task.eval_points),
        };
        TaskOutcome {
            noise,
            regression: regression.map(score),
            dnn: dnn.map(score),
            choice,
        }
    }
}

/// Runs Fig. 3's sweep: pretrains the DNN once, then evaluates one
/// uniform-noise cell per noise level. Returns one entry per noise level,
/// in order.
pub fn run_sweep(config: &SweepConfig) -> Vec<NoiseLevelResult> {
    let pretrained = DnnModeler::pretrained(config.adaptive.dnn.clone());
    config
        .noise_levels
        .iter()
        .map(|&noise| {
            let dnn = config.adapt(&pretrained, NoiseFamily::Uniform, noise);
            let seed = config.seed ^ (noise * 1e6) as u64;
            config.cell(&dnn, NoiseFamily::Uniform, noise, seed)
        })
        .collect()
}

/// Where the DNN's accuracy curve over `results`, by one accuracy bucket,
/// overtakes the regression modeler's ([`intersection_threshold`]); `None`
/// when they never cross or the levels are no curve (fewer than two, or
/// not ascending).
pub fn crossing(results: &[NoiseLevelResult], bucket: fn(&AccuracyBuckets) -> f64) -> Option<f64> {
    let noise: Vec<f64> = results.iter().map(|r| r.noise).collect();
    let curve = |stats: fn(&NoiseLevelResult) -> &ModelerStats| {
        let accuracy = results.iter().map(|r| bucket(&stats(r).buckets)).collect();
        AccuracyCurve::new(noise.clone(), accuracy).ok()
    };
    intersection_threshold(&curve(|r| &r.regression)?, &curve(|r| &r.dnn)?)
}

#[cfg(test)]
mod tests {
    use super::*;
    use nrpm_core::adaptive::AdaptiveModeler;
    use nrpm_core::sanitize::SanitizePolicy;

    fn tiny_config() -> SweepConfig {
        let mut config = SweepConfig {
            noise_levels: vec![0.02, 0.75],
            functions: 24,
            ..SweepConfig::default().quick()
        };
        config.adaptive.dnn.adaptation_samples_per_class = 20;
        config.adaptive.dnn.seed = 2;
        config
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

    #[test]
    fn the_adaptive_column_is_what_the_shipped_modeler_returns() {
        let config = SweepConfig {
            functions: 16,
            ..tiny_config()
        };
        let mut shipped_options = config.adaptive.clone();
        shipped_options.use_domain_adaptation = false;
        shipped_options.sanitize.policy = SanitizePolicy::Off;
        let pretrained = DnnModeler::pretrained(config.adaptive.dnn.clone());
        let mut seen = Vec::new();
        for &noise in &config.noise_levels {
            let adapted = config.adapt(&pretrained, NoiseFamily::Uniform, noise);
            let cell = config.cell(&adapted, NoiseFamily::Uniform, noise, 7);
            let mut shipped =
                AdaptiveModeler::from_network(shipped_options.clone(), adapted.network().clone());
            let tasks = config.tasks(NoiseFamily::Uniform, noise, 7);
            assert_eq!(cell.adaptive.distances.len(), tasks.len());
            for (task, &distance) in tasks.iter().zip(&cell.adaptive.distances) {
                let outcome = shipped.model(&task.set).expect("synthetic tasks model");
                if outcome.choice == ModelerChoice::ConstantMean {
                    continue;
                }
                assert_eq!(
                    config.model_task(&adapted, task).choice,
                    Some(outcome.choice),
                    "noise {noise}"
                );
                assert_eq!(
                    distance.to_bits(),
                    lead_exponent_distance(&outcome.result.model, &task.truth.pairs).to_bits(),
                    "noise {noise}"
                );
                seen.push(outcome.choice);
            }
        }
        // Both sides of the switch were exercised: CV picks at 2 % noise,
        // the DNN alone at 75 %.
        assert!(seen.contains(&ModelerChoice::Regression), "{seen:?}");
        assert!(seen.contains(&ModelerChoice::Dnn), "{seen:?}");
    }
}
