//! The paper-figure harnesses behind `nrpm fig3_accuracy`, `nrpm fig5_noise`
//! and the other harness subcommands. Each is a fully configured
//! [`Harness`]; [`Harness::run`] writes every table as soon as it is
//! computed, so a long `--paper-net` sweep shows its progress table by table.

use crate::estimator::{self, EstimatorSpec};
use crate::regime::{run_regime_sweep, RegimeSweepConfig};
use crate::report::{f2, pct, Table};
use crate::sweep::{crossing, run_sweep, SweepConfig};
use nrpm_apps::all_case_studies;
use nrpm_core::adaptive::{AdaptiveModeler, AdaptiveOptions};
use nrpm_core::dnn::{dataset_from_samples, DnnOptions};
use nrpm_core::noise::NoiseEstimate;
use nrpm_core::preprocess::NUM_INPUTS;
use nrpm_core::threshold::default_threshold;
use nrpm_extrap::{smape, write_text, MeasurementSet, RegressionModeler, NUM_CLASSES};
use nrpm_linalg::stats;
use nrpm_nn::{Network, NetworkConfig, NetworkError};
use nrpm_synth::{
    generate_eval_task, generate_training_samples, EvalTask, EvalTaskSpec, FaultInjector,
    FaultKind, TrainingSpec,
};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::io::{self, Write};
use std::path::{Path, PathBuf};
use std::time::Instant;

/// Default seed of the simulated case-study campaigns (Fig. 4–6 and
/// `dump_campaigns`).
pub const CASE_STUDY_SEED: u64 = 0xCA5E;

/// The threshold calibration's noise grid: denser around the expected
/// crossing region than [`crate::PAPER_NOISE_LEVELS`].
pub const CALIBRATION_NOISE_LEVELS: [f64; 10] =
    [0.02, 0.05, 0.10, 0.15, 0.20, 0.30, 0.40, 0.50, 0.75, 1.00];

/// One paper-figure harness run, fully configured.
#[derive(Debug, Clone, PartialEq)]
pub enum Harness {
    /// Fig. 3(a–c): the fraction of models whose lead-exponent distance to
    /// the synthetic baseline is ≤ 1/4, 1/3, 1/2, versus noise.
    Fig3Accuracy {
        /// One sweep per parameter count (each 1, 2 or 3), in order.
        sweeps: Vec<SweepConfig>,
        /// Add the 99 % Wilson intervals of the d ≤ 1/4 accuracy.
        ci: bool,
        /// Add the always-DNN ablation's accuracy.
        show_dnn: bool,
    },
    /// Fig. 3(d–f): the median relative prediction error at `P⁺₁ … P⁺₄`
    /// versus noise.
    Fig3Power {
        /// One sweep per parameter count (each 1, 2 or 3), in order.
        sweeps: Vec<SweepConfig>,
        /// Add the 99 % bootstrap intervals of the median error at `P⁺₄`.
        ci: bool,
    },
    /// Fig. 4: regression vs. adaptive error per case study, each kernel
    /// graded at its held-out evaluation point.
    Fig4CaseStudies {
        /// The adaptive modeler, pretrained once and cloned per kernel.
        options: AdaptiveOptions,
        /// Seed of the simulated campaigns.
        seed: u64,
        /// Print each kernel's fitted models next to the ground truth
        /// (the Sec. VI-B discussion).
        show_models: bool,
    },
    /// Fig. 5: the noise-level distributions of the case studies.
    Fig5Noise {
        /// Seed of the simulated campaigns.
        seed: u64,
    },
    /// Fig. 6: wall-clock modeling time, regression vs. adaptive.
    Fig6Overhead {
        /// The adaptive modeler, pretrained once (not timed).
        options: AdaptiveOptions,
        /// Seed of the simulated campaigns.
        seed: u64,
        /// Timed repetitions averaged per case study.
        trials: usize,
    },
    /// Sec. IV-B: the noise estimator's average prediction error.
    NoiseEstimatorEval(EstimatorSpec),
    /// Sec. IV-A: the accuracy-curve intersections per parameter count.
    ThresholdCalibration(Vec<SweepConfig>),
    /// The train-regime × test-regime noise sweep: per-regime crossover
    /// calibration plus the transfer matrix.
    RegimeSweep {
        /// What to sweep.
        config: RegimeSweepConfig,
        /// Write the full result (curves, thresholds, transfer matrix) as
        /// JSON here.
        out: Option<PathBuf>,
        /// Write just the loadable threshold table as JSON here.
        thresholds_out: Option<PathBuf>,
    },
    /// Fault kind × injection rate against the clean baseline.
    ChaosEval(ChaosConfig),
    /// Writes the case-study campaigns to disk, one text file per kernel.
    DumpCampaigns {
        /// Output directory (one subdirectory per study).
        out: PathBuf,
        /// Seed of the simulated campaigns.
        seed: u64,
    },
}

/// What `chaos_eval` sweeps.
#[derive(Debug, Clone, PartialEq)]
pub struct ChaosConfig {
    /// Campaigns per (fault, rate) cell.
    pub campaigns: usize,
    /// Base seed; every cell corrupts the same campaigns.
    pub seed: u64,
    /// Noise level of the clean campaigns.
    pub noise: f64,
    /// Injection rates swept for every fault kind.
    pub rates: Vec<f64>,
}

impl Default for ChaosConfig {
    /// 50 campaigns per cell at 5 % base noise, rates 1 %, 5 % and 20 %,
    /// seed `0xC4A0`.
    fn default() -> Self {
        ChaosConfig {
            campaigns: 50,
            seed: 0xC4A0,
            noise: 0.05,
            rates: vec![0.01, 0.05, 0.2],
        }
    }
}

impl Harness {
    /// Runs the harness, writing each table to `out` as soon as it is
    /// computed.
    pub fn run(&self, out: &mut impl Write) -> io::Result<()> {
        match self {
            Harness::Fig3Accuracy {
                sweeps,
                ci,
                show_dnn,
            } => fig3_accuracy(sweeps, *ci, *show_dnn, out),
            Harness::Fig3Power { sweeps, ci } => fig3_power(sweeps, *ci, out),
            Harness::Fig4CaseStudies {
                options,
                seed,
                show_models,
            } => fig4_case_studies(options, *seed, *show_models, out),
            Harness::Fig5Noise { seed } => fig5_noise(*seed, out),
            Harness::Fig6Overhead {
                options,
                seed,
                trials,
            } => fig6_overhead(options, *seed, *trials, out),
            Harness::NoiseEstimatorEval(spec) => noise_estimator_eval(spec, out),
            Harness::ThresholdCalibration(sweeps) => threshold_calibration(sweeps, out),
            Harness::RegimeSweep {
                config,
                out: result_path,
                thresholds_out,
            } => regime_sweep(
                config,
                result_path.as_deref(),
                thresholds_out.as_deref(),
                out,
            ),
            Harness::ChaosEval(config) => chaos_eval(config, out),
            Harness::DumpCampaigns { out: dir, seed } => dump_campaigns(dir, *seed, out),
        }
    }
}

/// Top-1 and top-3 accuracy of `network` on a held-out corpus of 25 samples
/// per class over the full noise range, drawn from a fixed seed.
pub fn held_out_accuracy(network: &Network) -> Result<(f64, f64), NetworkError> {
    let mut rng = StdRng::seed_from_u64(0xE7A1);
    let spec = TrainingSpec {
        samples_per_class: 25,
        ..Default::default()
    };
    let eval = dataset_from_samples(&generate_training_samples(&spec, &mut rng));
    Ok((network.accuracy(&eval)?, network.top_k_accuracy(&eval, 3)?))
}

/// A confidence interval as `[lo, hi]`, or `n/a` when it is undefined.
fn interval(ci: Option<(f64, f64)>, format: fn(f64) -> String) -> String {
    match ci {
        Some((lo, hi)) => format!("[{}, {}]", format(lo), format(hi)),
        None => "n/a".to_string(),
    }
}

fn fig3_accuracy(
    sweeps: &[SweepConfig],
    ci: bool,
    show_dnn: bool,
    out: &mut impl Write,
) -> io::Result<()> {
    for config in sweeps {
        let m = config.num_params;
        writeln!(
            out,
            "\n== Fig. 3({}) — model accuracy, m = {m}, {} functions/level ==\n",
            ["a", "b", "c"][m - 1],
            config.functions
        )?;
        let results = run_sweep(config);

        let mut table = Table::new(&[
            "noise",
            "reg d<=1/4",
            "reg d<=1/3",
            "reg d<=1/2",
            "ada d<=1/4",
            "ada d<=1/3",
            "ada d<=1/2",
        ]);
        for r in &results {
            table.row(vec![
                pct(r.noise),
                pct(r.regression.buckets.within_quarter),
                pct(r.regression.buckets.within_third),
                pct(r.regression.buckets.within_half),
                pct(r.adaptive.buckets.within_quarter),
                pct(r.adaptive.buckets.within_third),
                pct(r.adaptive.buckets.within_half),
            ]);
        }
        write!(out, "{}", table.render())?;

        if ci {
            writeln!(out, "\n99% Wilson CIs of the d<=1/4 accuracy:\n")?;
            let mut ci_table = Table::new(&["noise", "regression", "adaptive"]);
            for r in &results {
                ci_table.row(vec![
                    pct(r.noise),
                    interval(r.regression.quarter_ci99(), pct),
                    interval(r.adaptive.quarter_ci99(), pct),
                ]);
            }
            write!(out, "{}", ci_table.render())?;
        }

        if show_dnn {
            writeln!(out, "\nDNN-only accuracy (the always-DNN ablation):\n")?;
            let mut dnn_table = Table::new(&["noise", "dnn d<=1/4", "dnn d<=1/3", "dnn d<=1/2"]);
            for r in &results {
                dnn_table.row(vec![
                    pct(r.noise),
                    pct(r.dnn.buckets.within_quarter),
                    pct(r.dnn.buckets.within_third),
                    pct(r.dnn.buckets.within_half),
                ]);
            }
            write!(out, "{}", dnn_table.render())?;
        }

        // Headline: the improvement at the highest noise level (the paper
        // reports up to +22 % for m = 1 and +25 % for m = 2 at 100 %).
        if let Some(last) = results.last() {
            let delta =
                last.adaptive.buckets.within_quarter - last.regression.buckets.within_quarter;
            writeln!(
                out,
                "\nimprovement at {} noise (d<=1/4): {:+.1} percentage points",
                pct(last.noise),
                delta * 100.0
            )?;
        }
    }
    Ok(())
}

fn fig3_power(sweeps: &[SweepConfig], ci: bool, out: &mut impl Write) -> io::Result<()> {
    for config in sweeps {
        let m = config.num_params;
        writeln!(
            out,
            "\n== Fig. 3({}) — predictive power, m = {m}, {} functions/level ==\n",
            ["d", "e", "f"][m - 1],
            config.functions
        )?;
        writeln!(out, "median relative prediction error (%) at P+1..P+4\n")?;
        let results = run_sweep(config);

        let mut table = Table::new(&[
            "noise", "reg P+1", "reg P+2", "reg P+3", "reg P+4", "ada P+1", "ada P+2", "ada P+3",
            "ada P+4",
        ]);
        for r in &results {
            let mut row = vec![pct(r.noise)];
            row.extend((0..4).map(|k| f2(r.regression.median_errors[k])));
            row.extend((0..4).map(|k| f2(r.adaptive.median_errors[k])));
            table.row(row);
        }
        write!(out, "{}", table.render())?;

        if ci {
            writeln!(out, "\n99% bootstrap CIs of the median error at P+4:\n")?;
            let mut ci_table = Table::new(&["noise", "regression", "adaptive"]);
            for r in &results {
                ci_table.row(vec![
                    pct(r.noise),
                    interval(r.regression.median_error_ci99(3), f2),
                    interval(r.adaptive.median_error_ci99(3), f2),
                ]);
            }
            write!(out, "{}", ci_table.render())?;
        }

        if let Some(last) = results.last() {
            writeln!(
                out,
                "\nP+4 error at {} noise: regression {:.2}% vs adaptive {:.2}%",
                pct(last.noise),
                last.regression.median_errors[3],
                last.adaptive.median_errors[3]
            )?;
        }
    }
    Ok(())
}

fn fig4_case_studies(
    options: &AdaptiveOptions,
    seed: u64,
    show_models: bool,
    out: &mut impl Write,
) -> io::Result<()> {
    writeln!(
        out,
        "pretraining the DNN modeler once (shared across kernels)..."
    )?;
    let pretrained = AdaptiveModeler::pretrained(options.clone());
    let regression = RegressionModeler::default();

    writeln!(
        out,
        "\n== Fig. 4 — median relative prediction error per case study ==\n"
    )?;
    let mut table = Table::new(&["study", "kernels", "regression", "adaptive", "reduction"]);

    for study in all_case_studies(seed) {
        let mut reg_errors = Vec::new();
        let mut ada_errors = Vec::new();
        let mut model_lines = Vec::new();

        for kernel in study.relevant_kernels() {
            // Fresh modeler per kernel: the paper retrains per modeling
            // task, so adaptation must not leak across kernels.
            let mut adaptive = pretrained.clone();

            let reg = regression.model(&kernel.set);
            let ada = adaptive.model(&kernel.set);

            if let Ok(r) = &reg {
                let pred = r.model.evaluate(&kernel.eval_point);
                reg_errors.push(100.0 * (pred - kernel.eval_measured).abs() / kernel.eval_measured);
            }
            if let Ok(a) = &ada {
                let pred = a.result.model.evaluate(&kernel.eval_point);
                ada_errors.push(100.0 * (pred - kernel.eval_measured).abs() / kernel.eval_measured);
            }
            if show_models {
                model_lines.push(format!(
                    "  {} / {}\n    truth:      {}\n    regression: {}\n    adaptive:   {} (chose {:?}, noise {:.1}%)",
                    study.name,
                    kernel.name,
                    kernel.truth,
                    reg.map(|r| r.model.to_string()).unwrap_or_else(|e| format!("<{e}>")),
                    ada.as_ref()
                        .map(|a| a.result.model.to_string())
                        .unwrap_or_else(|e| format!("<{e}>")),
                    ada.as_ref().map(|a| a.choice).ok(),
                    ada.as_ref().map(|a| a.noise.mean() * 100.0).unwrap_or(f64::NAN),
                ));
            }
        }

        let reg_med = stats::median(&reg_errors);
        let ada_med = stats::median(&ada_errors);
        table.row(vec![
            study.name.to_string(),
            reg_errors.len().to_string(),
            format!("{}%", f2(reg_med)),
            format!("{}%", f2(ada_med)),
            format!("{:+.2}pp", reg_med - ada_med),
        ]);

        if show_models {
            writeln!(out, "{}", model_lines.join("\n"))?;
        }
    }

    write!(
        out,
        "\n{}\npaper: Kripke 22.28% -> 13.45%; FASTEST 69.79% -> 16.23%; RELeARN 7.12% -> 7.12%\n",
        table.render()
    )
}

/// A ten-bucket text histogram of noise levels in `[0, max]`.
fn histogram(levels: &[f64], buckets: usize, max: f64) -> String {
    let mut counts = vec![0usize; buckets];
    for &l in levels {
        let b = ((l / max) * buckets as f64) as usize;
        counts[b.min(buckets - 1)] += 1;
    }
    let peak = *counts.iter().max().unwrap_or(&1) as f64;
    counts
        .iter()
        .enumerate()
        .map(|(i, &c)| {
            let bar = "#".repeat(((c as f64 / peak) * 40.0).round() as usize);
            format!(
                "  {:>5.1}%-{:>5.1}%  {bar} ({c})",
                100.0 * max * i as f64 / buckets as f64,
                100.0 * max * (i + 1) as f64 / buckets as f64
            )
        })
        .collect::<Vec<_>>()
        .join("\n")
}

/// Fig. 5, estimated by the range-of-relative-deviation heuristic exactly
/// as the paper's noise analysis does.
fn fig5_noise(seed: u64, out: &mut impl Write) -> io::Result<()> {
    writeln!(
        out,
        "== Fig. 5 — noise-level distributions of the case studies ==\n"
    )?;
    let mut table = Table::new(&["study", "points", "mean", "median", "min", "max"]);

    for study in all_case_studies(seed) {
        // Pool the per-point noise levels over every kernel's campaign —
        // "all performance measurements" of the application.
        let mut levels: Vec<f64> = Vec::new();
        for kernel in &study.kernels {
            levels.extend(NoiseEstimate::of(&kernel.set).per_point);
        }
        table.row(vec![
            study.name.to_string(),
            levels.len().to_string(),
            pct(stats::mean(&levels)),
            pct(stats::median(&levels)),
            pct(stats::min(&levels)),
            pct(stats::max(&levels)),
        ]);

        writeln!(out, "{} distribution:", study.name)?;
        let max = stats::max(&levels).max(1e-9);
        writeln!(out, "{}\n", histogram(&levels, 10, max))?;
    }

    write!(
        out,
        "{}\npaper: Kripke mean 17.44% range [3.66, 53.66]%;\n       \
         FASTEST mean 49.56% range [7.51, 160.27]%; RELeARN [0.64, 0.67]%\n",
        table.render()
    )
}

/// Fig. 6. The adaptive modeler pays for domain adaptation (the paper
/// reports factors of roughly 54–65×), negligible next to the machine time
/// the measurements themselves cost.
fn fig6_overhead(
    options: &AdaptiveOptions,
    seed: u64,
    trials: usize,
    out: &mut impl Write,
) -> io::Result<()> {
    writeln!(
        out,
        "pretraining the DNN modeler (not counted — it is a one-time cost)..."
    )?;
    let pretrained = AdaptiveModeler::pretrained(options.clone());
    let regression = RegressionModeler::default();

    writeln!(
        out,
        "\n== Fig. 6 — modeling time for the main kernels (seconds) ==\n"
    )?;
    let mut table = Table::new(&[
        "study",
        "kernels",
        "regression [s]",
        "adaptive [s]",
        "slowdown",
    ]);

    for study in all_case_studies(seed) {
        let kernels: Vec<_> = study.relevant_kernels().collect();

        let mut reg_times = Vec::with_capacity(trials);
        let mut ada_times = Vec::with_capacity(trials);
        for _ in 0..trials {
            let t0 = Instant::now();
            for kernel in &kernels {
                let _ = regression.model(&kernel.set);
            }
            reg_times.push(t0.elapsed().as_secs_f64());

            let t0 = Instant::now();
            for kernel in &kernels {
                // Fresh modeler per kernel: adaptation is part of the cost
                // being measured, and must not leak across kernels.
                let mut adaptive = pretrained.clone();
                let _ = adaptive.model(&kernel.set);
            }
            ada_times.push(t0.elapsed().as_secs_f64());
        }

        let reg = stats::mean(&reg_times);
        let ada = stats::mean(&ada_times);
        table.row(vec![
            study.name.to_string(),
            kernels.len().to_string(),
            format!("{:.3}", reg),
            format!("{:.3}", ada),
            format!("{}x", f2(ada / reg)),
        ]);
    }

    write!(
        out,
        "{}\npaper: Kripke ~65x (61.99 s total), FASTEST ~54x, RELeARN ~64x (85.66 s)\n\
         absolute numbers depend on the adaptation sample count; the *factor* is the result\n",
        table.render()
    )
}

fn noise_estimator_eval(spec: &EstimatorSpec, out: &mut impl Write) -> io::Result<()> {
    writeln!(
        out,
        "== Noise-estimator evaluation (pooled rrd heuristic) ==\n"
    )?;
    writeln!(
        out,
        "{} synthetic sets per level, {} points, {} repetitions\n",
        spec.sets, spec.points, spec.reps
    )?;

    let levels = estimator::evaluate(spec);
    let mut table = Table::new(&["injected", "mean estimate", "abs error", "rel error"]);
    for l in &levels {
        table.row(vec![
            pct(l.injected),
            pct(l.mean_estimate),
            pct(l.abs_error),
            pct(l.rel_error),
        ]);
    }
    write!(out, "{}", table.render())?;
    writeln!(
        out,
        "\naverage relative prediction error: {} (paper: 4.93%)",
        pct(estimator::average_rel_error(&levels))
    )
}

/// Sweeps both modelers' accuracy over the noise range, locates where
/// their accuracy curves cross per parameter count, and prints the
/// thresholds next to the shipped defaults.
fn threshold_calibration(sweeps: &[SweepConfig], out: &mut impl Write) -> io::Result<()> {
    writeln!(
        out,
        "== Switching-threshold calibration (accuracy-curve intersections) ==\n"
    )?;
    let mut table = Table::new(&[
        "m",
        "crossing (d<=1/4)",
        "crossing (d<=1/2)",
        "shipped default",
    ]);

    for config in sweeps {
        let results = run_sweep(config);
        let show = |t: Option<f64>| t.map(pct).unwrap_or_else(|| "no crossing".to_string());
        table.row(vec![
            config.num_params.to_string(),
            show(crossing(&results, |b| b.within_quarter)),
            show(crossing(&results, |b| b.within_half)),
            pct(default_threshold(config.num_params)),
        ]);
    }

    write!(out, "{}", table.render())?;
    writeln!(
        out,
        "\nuse `AdaptiveOptions {{ thresholds: Some(vec![...]), .. }}` to apply custom values"
    )
}

/// `nrpm sweep`: streams the regime sweep's tables, then writes its JSON
/// artifacts.
fn regime_sweep(
    config: &RegimeSweepConfig,
    result_path: Option<&Path>,
    thresholds_out: Option<&Path>,
    out: &mut impl Write,
) -> io::Result<()> {
    let result = run_regime_sweep(config, out)?;
    let files = [
        (result_path, result.to_json(), "\n"),
        (thresholds_out, result.table.to_json(), ""),
    ];
    for (path, json, gap) in files {
        if let Some(path) = path {
            std::fs::write(path, json)
                .map_err(|e| io::Error::new(e.kind(), format!("{}: {e}", path.display())))?;
            writeln!(out, "{gap}wrote {}", path.display())?;
        }
    }
    Ok(())
}

/// Mean SMAPE between the model's predictions and the ground truth at the
/// task's held-out evaluation points.
fn eval_error(modeler: &mut AdaptiveModeler, set: &MeasurementSet, task: &EvalTask) -> Option<f64> {
    let outcome = modeler.model(set).ok()?;
    let truths: Vec<f64> = task.eval_points.iter().map(|(_, t)| *t).collect();
    let preds: Vec<f64> = task
        .eval_points
        .iter()
        .map(|(p, _)| outcome.result.model.evaluate(p))
        .collect();
    if preds.iter().any(|p| !p.is_finite()) {
        return None;
    }
    Some(smape(&truths, &preds))
}

/// The survival fraction and mean evaluation error of one (fault, rate)
/// cell.
fn run_cell(
    modeler: &mut AdaptiveModeler,
    spec: &EvalTaskSpec,
    campaigns: usize,
    seed: u64,
    injector: Option<&FaultInjector>,
) -> (f64, f64) {
    let mut survived = 0usize;
    let mut errors: Vec<f64> = Vec::new();
    for i in 0..campaigns {
        // Same per-campaign seed across cells: every cell corrupts the
        // same underlying campaigns, so columns are comparable.
        let mut rng = StdRng::seed_from_u64(seed ^ (i as u64).wrapping_mul(0x9E37_79B9));
        let task = generate_eval_task(spec, &mut rng);
        let set = match injector {
            Some(inj) => inj.inject(&task.set, &mut rng).0,
            None => task.set.clone(),
        };
        if let Some(err) = eval_error(modeler, &set, &task) {
            survived += 1;
            errors.push(err);
        }
    }
    let mean_error = if errors.is_empty() {
        f64::NAN
    } else {
        errors.iter().sum::<f64>() / errors.len() as f64
    };
    (survived as f64 / campaigns as f64, mean_error)
}

/// Sweeps fault kind × injection rate over synthetic campaigns: survival
/// (the fraction of campaigns that still yield a model) and extrapolation
/// accuracy at held-out points, against the clean baseline.
fn chaos_eval(config: &ChaosConfig, out: &mut impl Write) -> io::Result<()> {
    let ChaosConfig {
        campaigns,
        seed,
        noise,
        ref rates,
    } = *config;
    // A compact modeler: strong enough to fit the single-parameter tasks,
    // small enough to pretrain in seconds. Domain adaptation is off so the
    // network stays fixed across the sweep.
    let mut modeler = AdaptiveModeler::pretrained(AdaptiveOptions {
        dnn: DnnOptions {
            network: NetworkConfig::new(&[NUM_INPUTS, 128, 64, NUM_CLASSES]),
            pretrain_spec: TrainingSpec {
                samples_per_class: 200,
                noise_range: (0.0, 0.5),
                ..Default::default()
            },
            pretrain_epochs: 15,
            seed: seed ^ 0xD,
            ..Default::default()
        },
        use_domain_adaptation: false,
        ..Default::default()
    });

    let spec = EvalTaskSpec {
        noise_level: noise,
        ..EvalTaskSpec::paper(1, noise)
    };

    writeln!(
        out,
        "== chaos evaluation — {campaigns} campaigns per cell, base noise {} ==\n",
        pct(noise)
    )?;

    let (survival, baseline_error) = run_cell(&mut modeler, &spec, campaigns, seed, None);
    writeln!(
        out,
        "clean baseline: survival {}, mean eval SMAPE {}%\n",
        pct(survival),
        f2(baseline_error),
    )?;

    let kinds = [
        FaultKind::OutlierSpike { factor: 100.0 },
        FaultKind::NonFinite,
        FaultKind::DropRepetition,
        FaultKind::DuplicateRepetition,
        FaultKind::StuckZero,
        FaultKind::Heteroscedastic { extra_level: 0.5 },
    ];

    let mut table = Table::new(&["fault", "rate", "survival", "eval SMAPE", "vs clean"]);
    for kind in kinds {
        for &rate in rates {
            let injector = FaultInjector::new().with(kind, rate);
            let (survival, error) = run_cell(&mut modeler, &spec, campaigns, seed, Some(&injector));
            table.row(vec![
                kind.name().to_string(),
                pct(rate),
                pct(survival),
                format!("{}%", f2(error)),
                format!("{:+.2}%", error - baseline_error),
            ]);
        }
    }
    write!(
        out,
        "{}\nsurvival: campaigns for which the pipeline returned a finite model;\n\
         eval SMAPE: mean error against ground truth at held-out points.\n",
        table.render()
    )
}

/// One `PARAMS`/`POINT … DATA …` text file per kernel under
/// `dir/<study>/`, headed by the kernel's ground truth, so the synthetic
/// data can be inspected, archived, or fed to external tools.
fn dump_campaigns(dir: &Path, seed: u64, out: &mut impl Write) -> io::Result<()> {
    let at =
        |path: &Path, e: io::Error| io::Error::new(e.kind(), format!("{}: {e}", path.display()));
    for study in all_case_studies(seed) {
        let study_dir = dir.join(study.name.to_lowercase());
        std::fs::create_dir_all(&study_dir).map_err(|e| at(&study_dir, e))?;
        for kernel in &study.kernels {
            let text = format!(
                "# {} / {} — ground truth: {}\n# eval point {:?}: measured {:.6}, truth {:.6}\n{}",
                study.name,
                kernel.name,
                kernel.truth,
                kernel.eval_point,
                kernel.eval_measured,
                kernel.eval_truth,
                write_text(&kernel.set, &study.parameter_names),
            );
            let path = study_dir.join(format!("{}.txt", kernel.name));
            std::fs::write(&path, text).map_err(|e| at(&path, e))?;
            writeln!(out, "wrote {}", path.display())?;
        }
    }
    Ok(())
}
