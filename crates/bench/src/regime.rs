//! The train-regime × test-regime sweep harness behind `nrpm sweep`.
//!
//! The paper calibrates the DNN/regression switch against a single uniform
//! noise regime; real measurement streams are heteroscedastic, spiky, or
//! device-varying. This module grids the four [`NoiseFamily`] regimes both
//! ways (shaped like the train-noise × test-noise sweep of SNIPPETS.md
//! snippet 1):
//!
//! - **Crossover calibration** (the diagonal): for each regime, the DNN is
//!   domain-adapted *on that regime* and both modelers sweep the noise
//!   grid; [`intersection_threshold`] reads off where the DNN starts to
//!   beat the regression baseline, producing one [`ThresholdEntry`] per
//!   regime. The resulting [`ThresholdTable`] is what `nrpm serve
//!   --thresholds` / `nrpm fit --thresholds` load into the adaptive
//!   switch.
//! - **Transfer matrix** (the off-diagonal): every (train regime, test
//!   regime) pair is evaluated at one fixed noise level, quantifying how
//!   much adapting to the *wrong* regime costs — the question ResPerfNet
//!   raises about validating a modeling policy across heterogeneous
//!   regimes. Per snippet 1's shape, adaptation runs once per train
//!   regime and is reused across all test regimes.
//!
//! Accuracy is the paper's headline metric: the fraction of tasks whose
//! lead-exponent distance is `d ≤ 1/4`, with outright modeling failures
//! counting as incorrect.

use nrpm_core::dnn::{DnnModeler, DnnOptions};
use nrpm_core::metrics::lead_exponent_distance;
use nrpm_core::threshold::{intersection_threshold, AccuracyCurve, ThresholdEntry, ThresholdTable};
use nrpm_extrap::RegressionModeler;
use nrpm_synth::{generate_eval_tasks, EvalTask, EvalTaskSpec, NoiseFamily, TrainingSpec};
use rand::rngs::StdRng;
use rand::SeedableRng;
use serde::Serialize;

/// Configuration of a regime sweep.
#[derive(Debug, Clone)]
pub struct RegimeSweepConfig {
    /// Number of model parameters `m`.
    pub num_params: usize,
    /// Noise levels of the crossover curves (fractions, ascending).
    pub noise_levels: Vec<f64>,
    /// Noise level of the transfer matrix cells.
    pub matrix_noise: f64,
    /// Functions generated per (regime, level) cell.
    pub functions: usize,
    /// Base RNG seed.
    pub seed: u64,
    /// Worker threads for the per-task modeling.
    pub threads: usize,
    /// DNN modeler configuration.
    pub dnn: DnnOptions,
    /// Repetitions per measurement point.
    pub repetitions: usize,
    /// The regimes to grid (defaults to all four families).
    pub families: Vec<NoiseFamily>,
}

impl Default for RegimeSweepConfig {
    fn default() -> Self {
        RegimeSweepConfig {
            num_params: 1,
            noise_levels: vec![0.05, 0.20, 0.50, 1.00],
            matrix_noise: 0.50,
            functions: 100,
            seed: 0x1265,
            threads: std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(4),
            dnn: DnnOptions::default(),
            repetitions: 5,
            families: NoiseFamily::all().to_vec(),
        }
    }
}

/// One cell of the transfer matrix: the DNN adapted on `train`, both
/// modelers evaluated on `test`, at the matrix noise level.
#[derive(Debug, Clone, Serialize)]
pub struct RegimeCell {
    /// Regime the DNN was domain-adapted on.
    pub train: String,
    /// Regime the evaluation tasks were drawn from.
    pub test: String,
    /// Regression `d ≤ 1/4` accuracy on the test regime.
    pub regression_accuracy: f64,
    /// Adapted-DNN `d ≤ 1/4` accuracy on the test regime.
    pub dnn_accuracy: f64,
}

/// Everything the sweep produces: the calibrated threshold table and the
/// train × test transfer matrix.
#[derive(Debug, Clone, Serialize)]
pub struct RegimeSweepResult {
    /// Per-regime crossover calibration (the table `nrpm serve
    /// --thresholds` loads).
    pub table: ThresholdTable,
    /// The noise level the matrix was evaluated at.
    pub matrix_noise: f64,
    /// All train × test cells, train-major, in `families` order.
    pub matrix: Vec<RegimeCell>,
}

impl RegimeSweepResult {
    /// The matrix cell for a (train, test) regime pair.
    pub fn cell(&self, train: &str, test: &str) -> Option<&RegimeCell> {
        self.matrix
            .iter()
            .find(|c| c.train == train && c.test == test)
    }

    /// Serializes the full sweep result to pretty JSON (what
    /// `nrpm sweep --out` writes).
    pub fn to_json(&self) -> String {
        serde_json::to_string_pretty(self).expect("RegimeSweepResult serializes")
    }
}

/// `d ≤ 1/4` accuracy over `tasks` for one modeler, failures counted as
/// incorrect (the paper divides by the number of tasks, not successes).
fn quarter_accuracy(distances: &[f64]) -> f64 {
    if distances.is_empty() {
        return 0.0;
    }
    let hits = distances.iter().filter(|&&d| d <= 0.25 + 1e-12).count();
    hits as f64 / distances.len() as f64
}

/// Models every task with `regression` and `dnn` in parallel, returning
/// the two lead-exponent distance vectors (`INFINITY` for failures).
fn model_tasks(
    tasks: &[EvalTask],
    regression: &RegressionModeler,
    dnn: &DnnModeler,
    threads: usize,
) -> (Vec<f64>, Vec<f64>) {
    let n = tasks.len();
    let mut reg_d = vec![f64::INFINITY; n];
    let mut dnn_d = vec![f64::INFINITY; n];
    let threads = threads.max(1);
    let chunk = n.div_ceil(threads).max(1);
    std::thread::scope(|scope| {
        for ((task_c, reg_c), dnn_c) in tasks
            .chunks(chunk)
            .zip(reg_d.chunks_mut(chunk))
            .zip(dnn_d.chunks_mut(chunk))
        {
            scope.spawn(move || {
                for (i, task) in task_c.iter().enumerate() {
                    if let Ok(r) = regression.model(&task.set) {
                        reg_c[i] = lead_exponent_distance(&r.model, &task.truth.pairs);
                    }
                    if let Ok(r) = dnn.model(&task.set) {
                        dnn_c[i] = lead_exponent_distance(&r.model, &task.truth.pairs);
                    }
                }
            });
        }
    });
    (reg_d, dnn_d)
}

/// Deterministic per-cell seed: mixes the base seed with the cell's
/// train/test regimes and noise level.
fn cell_seed(base: u64, train: &NoiseFamily, test: &NoiseFamily, noise: f64) -> u64 {
    let mut h = base ^ 0x9E37_79B9_7F4A_7C15;
    for byte in format!("{train}|{test}|{noise:.6}").bytes() {
        h = (h ^ byte as u64).wrapping_mul(0x100_0000_01B3);
    }
    h
}

/// Adapts a clone of the pretrained DNN to `(family, noise)` — the
/// once-per-train-regime step of the snippet-1 shape.
fn adapt_to_regime(
    pretrained: &DnnModeler,
    config: &RegimeSweepConfig,
    family: NoiseFamily,
    noise: f64,
) -> DnnModeler {
    let mut dnn = pretrained.clone();
    dnn.adapt_with_spec(&TrainingSpec {
        samples_per_class: config.dnn.adaptation_samples_per_class,
        noise_range: (noise, noise),
        repetitions: config.repetitions,
        family,
        ..Default::default()
    });
    dnn
}

/// Evaluation tasks of one (test regime, noise) cell.
fn cell_tasks(
    config: &RegimeSweepConfig,
    train: &NoiseFamily,
    test: NoiseFamily,
    noise: f64,
) -> Vec<EvalTask> {
    let mut rng = StdRng::seed_from_u64(cell_seed(config.seed, train, &test, noise));
    let spec = EvalTaskSpec {
        repetitions: config.repetitions,
        family: test,
        ..EvalTaskSpec::paper(config.num_params, noise)
    };
    generate_eval_tasks(&spec, config.functions, &mut rng)
}

/// Runs the full sweep: pretrains the DNN once, calibrates the crossover
/// per regime (diagonal sweep over the noise grid), then fills the
/// train × test transfer matrix at the matrix noise level.
pub fn run_regime_sweep(config: &RegimeSweepConfig) -> RegimeSweepResult {
    let pretrained = DnnModeler::pretrained(config.dnn.clone());
    let regression = RegressionModeler::default();

    // Crossover calibration: per regime, accuracy curves over the noise
    // grid with the DNN adapted to that regime at each level.
    let mut entries = Vec::new();
    for family in &config.families {
        let mut reg_acc = Vec::new();
        let mut dnn_acc = Vec::new();
        for &noise in &config.noise_levels {
            let tasks = cell_tasks(config, family, *family, noise);
            let dnn = adapt_to_regime(&pretrained, config, *family, noise);
            let (reg_d, dnn_d) = model_tasks(&tasks, &regression, &dnn, config.threads);
            reg_acc.push(quarter_accuracy(&reg_d));
            dnn_acc.push(quarter_accuracy(&dnn_d));
        }
        let threshold = match (
            AccuracyCurve::new(config.noise_levels.clone(), reg_acc.clone()),
            AccuracyCurve::new(config.noise_levels.clone(), dnn_acc.clone()),
        ) {
            (Ok(reg), Ok(dnn)) => intersection_threshold(&reg, &dnn),
            _ => None,
        };
        entries.push(ThresholdEntry {
            regime: family.to_string(),
            threshold,
            noise_levels: config.noise_levels.clone(),
            regression_accuracy: reg_acc,
            dnn_accuracy: dnn_acc,
        });
    }

    // Transfer matrix: adapt once per train regime, evaluate on every test
    // regime at the matrix noise level.
    let mut matrix = Vec::new();
    for train in &config.families {
        let dnn = adapt_to_regime(&pretrained, config, *train, config.matrix_noise);
        for test in &config.families {
            let tasks = cell_tasks(config, train, *test, config.matrix_noise);
            let (reg_d, dnn_d) = model_tasks(&tasks, &regression, &dnn, config.threads);
            matrix.push(RegimeCell {
                train: train.to_string(),
                test: test.to_string(),
                regression_accuracy: quarter_accuracy(&reg_d),
                dnn_accuracy: quarter_accuracy(&dnn_d),
            });
        }
    }

    RegimeSweepResult {
        table: ThresholdTable {
            num_params: config.num_params,
            entries,
        },
        matrix_noise: config.matrix_noise,
        matrix,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nrpm_core::preprocess::NUM_INPUTS;
    use nrpm_nn::NetworkConfig;

    fn tiny_config() -> RegimeSweepConfig {
        RegimeSweepConfig {
            noise_levels: vec![0.05, 0.75],
            matrix_noise: 0.5,
            functions: 8,
            families: vec![NoiseFamily::Uniform, NoiseFamily::spike_contaminated()],
            dnn: DnnOptions {
                network: NetworkConfig::new(&[NUM_INPUTS, 48, nrpm_extrap::NUM_CLASSES]),
                pretrain_spec: TrainingSpec {
                    samples_per_class: 30,
                    ..Default::default()
                },
                pretrain_epochs: 3,
                adaptation_samples_per_class: 12,
                seed: 2,
                ..Default::default()
            },
            ..Default::default()
        }
    }

    #[test]
    fn sweep_covers_the_grid_and_calibrates_per_regime() {
        let result = run_regime_sweep(&tiny_config());
        assert_eq!(result.table.entries.len(), 2);
        assert_eq!(result.matrix.len(), 4, "2 train × 2 test");
        for entry in &result.table.entries {
            assert_eq!(entry.noise_levels, vec![0.05, 0.75]);
            assert_eq!(entry.regression_accuracy.len(), 2);
            for &a in entry
                .regression_accuracy
                .iter()
                .chain(entry.dnn_accuracy.iter())
            {
                assert!((0.0..=1.0).contains(&a));
            }
        }
        assert!(result.cell("uniform", "spike").is_some());
        assert!(result.cell("spike", "uniform").is_some());
        assert!(result.cell("uniform", "nope").is_none());
        // The calibrated table is loadable by the adaptive switch.
        for entry in &result.table.entries {
            if entry.threshold.is_some() {
                let t = result.table.switch_thresholds(&entry.regime).unwrap();
                assert_eq!(t.len(), result.table.num_params);
            }
        }
    }

    #[test]
    fn cell_seeds_differ_across_the_grid() {
        let u = NoiseFamily::Uniform;
        let s = NoiseFamily::spike_contaminated();
        let a = cell_seed(1, &u, &u, 0.5);
        let b = cell_seed(1, &u, &s, 0.5);
        let c = cell_seed(1, &s, &u, 0.5);
        let d = cell_seed(1, &u, &u, 0.2);
        assert_ne!(a, b);
        assert_ne!(a, c);
        assert_ne!(b, c);
        assert_ne!(a, d);
    }
}
