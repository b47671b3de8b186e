//! The train-regime × test-regime sweep behind `nrpm sweep`.
//!
//! The paper calibrates the DNN/regression switch under uniform noise;
//! real measurement streams are heteroscedastic, spiky, or device-varying.
//! This sweep grids the four [`NoiseFamily`] regimes both ways (shaped like
//! the train-noise × test-noise sweep of SNIPPETS.md snippet 1):
//!
//! - **Crossover calibration** (the diagonal): per regime, the DNN is
//!   domain-adapted *on that regime* at each level of the noise grid and
//!   [`crossing`] reads off where it starts to beat the regression
//!   baseline. The resulting [`ThresholdTable`] is what `nrpm serve
//!   --thresholds` / `nrpm fit --thresholds` load into the adaptive switch.
//! - **Transfer matrix** (the off-diagonal): every (train, test) regime
//!   pair at one fixed noise level, adapted once per train regime —
//!   what adapting to the *wrong* regime costs, the question ResPerfNet
//!   raises about validating a policy across regimes.
//!
//! Every cell is one [`SweepConfig::cell`], the evaluator behind Fig. 3,
//! scored by the paper's headline metric: the fraction of tasks whose
//! lead-exponent distance is `d ≤ 1/4`, failures counting as incorrect.

use crate::sweep::{crossing, NoiseLevelResult, SweepConfig};
use nrpm_core::adaptive::AdaptiveOptions;
use nrpm_core::dnn::DnnModeler;
use nrpm_core::threshold::{ThresholdEntry, ThresholdTable};
use nrpm_synth::NoiseFamily;
use serde::Serialize;
use std::io::{self, Write};

/// Configuration of a regime sweep.
#[derive(Debug, Clone, PartialEq)]
pub struct RegimeSweepConfig {
    /// The sweep run per regime: parameter count, the noise levels of the
    /// crossover curves (ascending), functions per (regime, level) cell,
    /// seed, threads, repetitions and the modeler under test.
    pub sweep: SweepConfig,
    /// The regimes to grid (defaults to all four families).
    pub families: Vec<NoiseFamily>,
    /// Noise level of the transfer matrix cells.
    pub matrix_noise: f64,
}

impl Default for RegimeSweepConfig {
    /// 100 functions per cell over 5–100 % noise, the matrix at 50 %,
    /// every family, and the default (refined) regression baseline.
    fn default() -> Self {
        RegimeSweepConfig {
            sweep: SweepConfig {
                noise_levels: vec![0.05, 0.20, 0.50, 1.00],
                functions: 100,
                seed: 0x1265,
                adaptive: AdaptiveOptions::default(),
                ..SweepConfig::default()
            },
            families: NoiseFamily::all().to_vec(),
            matrix_noise: 0.50,
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
    /// Serializes the full sweep result to pretty JSON (what
    /// `nrpm sweep --out` writes).
    pub fn to_json(&self) -> String {
        serde_json::to_string_pretty(self).expect("RegimeSweepResult serializes")
    }
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

/// A cell's `d ≤ 1/4` accuracy: regression's, then the DNN's.
fn quarter(cell: &NoiseLevelResult) -> (f64, f64) {
    (
        cell.regression.buckets.within_quarter,
        cell.dnn.buckets.within_quarter,
    )
}

/// Runs the full sweep, writing each table row to `out` as soon as it is
/// computed: pretrains the DNN once, calibrates the crossover per regime
/// (the diagonal: the DNN adapted to that regime at each level of the
/// noise grid), then fills the train × test transfer matrix at the matrix
/// noise level (adapted once per train regime).
pub fn run_regime_sweep(
    config: &RegimeSweepConfig,
    out: &mut impl Write,
) -> io::Result<RegimeSweepResult> {
    let sweep = &config.sweep;
    let pretrained = DnnModeler::pretrained(sweep.adaptive.dnn.clone());
    writeln!(
        out,
        "== regime crossover calibration (m = {}, {} functions/cell) ==",
        sweep.num_params, sweep.functions
    )?;
    let mut entries = Vec::new();
    for &family in &config.families {
        let cells: Vec<NoiseLevelResult> = sweep
            .noise_levels
            .iter()
            .map(|&noise| {
                let seed = cell_seed(sweep.seed, &family, &family, noise);
                sweep.cell(
                    &sweep.adapt(&pretrained, family, noise),
                    family,
                    noise,
                    seed,
                )
            })
            .collect();
        let (regression_accuracy, dnn_accuracy) = cells.iter().map(quarter).unzip();
        let entry = ThresholdEntry {
            regime: family.to_string(),
            threshold: crossing(&cells, |b| b.within_quarter),
            noise_levels: sweep.noise_levels.clone(),
            regression_accuracy,
            dnn_accuracy,
        };
        write_entry(&entry, out)?;
        entries.push(entry);
    }

    writeln!(
        out,
        "\n== transfer matrix: DNN accuracy %, adapt on row / test on column \
         (noise {:.2}) ==",
        config.matrix_noise
    )?;
    let names: Vec<String> = config.families.iter().map(|f| f.to_string()).collect();
    let header: Vec<String> = names.iter().map(|n| format!("{n:>16}")).collect();
    writeln!(out, "  {:<16} {}", "train \\ test", header.join(" "))?;
    let mut matrix = Vec::new();
    for (train, name) in config.families.iter().zip(&names) {
        let dnn = sweep.adapt(&pretrained, *train, config.matrix_noise);
        let row: Vec<RegimeCell> = config
            .families
            .iter()
            .map(|test| {
                let seed = cell_seed(sweep.seed, train, test, config.matrix_noise);
                let (regression_accuracy, dnn_accuracy) =
                    quarter(&sweep.cell(&dnn, *test, config.matrix_noise, seed));
                RegimeCell {
                    train: name.clone(),
                    test: test.to_string(),
                    regression_accuracy,
                    dnn_accuracy,
                }
            })
            .collect();
        let accuracies: Vec<String> = row
            .iter()
            .map(|c| format!("{:>16.1}", c.dnn_accuracy * 100.0))
            .collect();
        writeln!(out, "  {name:<16} {}", accuracies.join(" "))?;
        matrix.extend(row);
    }

    Ok(RegimeSweepResult {
        table: ThresholdTable {
            num_params: sweep.num_params,
            entries,
        },
        matrix_noise: config.matrix_noise,
        matrix,
    })
}

/// One regime's calibrated threshold and the curves it was read off of.
fn write_entry(entry: &ThresholdEntry, out: &mut impl Write) -> io::Result<()> {
    let threshold = match entry.threshold {
        Some(t) => format!("{:.1}%", t * 100.0),
        None => "no crossover (regression dominates)".to_string(),
    };
    writeln!(out, "  {:<16} threshold {}", entry.regime, threshold)?;
    let percent = |values: &[f64]| -> Vec<String> {
        values
            .iter()
            .map(|a| format!("{:>5.1}", a * 100.0))
            .collect()
    };
    let noise: Vec<String> = entry
        .noise_levels
        .iter()
        .map(|n| format!("{n:>5.2}"))
        .collect();
    let rows = [
        ("noise", noise),
        ("reg %", percent(&entry.regression_accuracy)),
        ("dnn %", percent(&entry.dnn_accuracy)),
    ];
    for (label, cells) in rows {
        writeln!(out, "    {label:<8}{}", cells.join(" "))?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_config() -> RegimeSweepConfig {
        let defaults = RegimeSweepConfig::default();
        let mut sweep = SweepConfig {
            noise_levels: vec![0.05, 0.75],
            functions: 8,
            ..defaults.sweep.quick()
        };
        sweep.adaptive.dnn.seed = 2;
        RegimeSweepConfig {
            sweep,
            families: vec![NoiseFamily::Uniform, NoiseFamily::spike_contaminated()],
            matrix_noise: 0.5,
        }
    }

    #[test]
    fn sweep_covers_the_grid_and_calibrates_per_regime() {
        let result = run_regime_sweep(&tiny_config(), &mut io::sink()).unwrap();
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
        let pairs: Vec<(&str, &str)> = result
            .matrix
            .iter()
            .map(|c| (c.train.as_str(), c.test.as_str()))
            .collect();
        let train_major = [("uniform", "uniform"), ("uniform", "spike")];
        assert_eq!(pairs[..2], train_major);
        assert_eq!(pairs[2..], [("spike", "uniform"), ("spike", "spike")]);
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
