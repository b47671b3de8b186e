//! The Sec. IV-B noise-estimator evaluation: inject known uniform noise
//! into synthetic measurement sets and measure how far the estimator's
//! corrected mean lands from it. The paper reports an average relative
//! error of [`PAPER_AVERAGE_REL_ERROR`].

use nrpm_core::noise::NoiseEstimate;
use nrpm_linalg::stats;
use nrpm_synth::{generate_eval_task, EvalTaskSpec, NoiseFamily};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// The paper's average relative prediction error of the estimator (4.93 %).
pub const PAPER_AVERAGE_REL_ERROR: f64 = 0.0493;

/// What to inject and how often.
#[derive(Debug, Clone, PartialEq)]
pub struct EstimatorSpec {
    /// Synthetic measurement sets per noise level.
    pub sets: usize,
    /// Measurement points per set.
    pub points: usize,
    /// Repetitions per point.
    pub reps: usize,
    /// Base seed; each level derives its own stream from it.
    pub seed: u64,
    /// Injected uniform noise levels (fractions).
    pub levels: Vec<f64>,
}

impl Default for EstimatorSpec {
    /// 200 sets of 25 points × 5 repetitions at each of eight levels from
    /// 2 % to 100 %, seed `0x401`.
    fn default() -> Self {
        EstimatorSpec {
            sets: 200,
            points: 25,
            reps: 5,
            seed: 0x401,
            levels: vec![0.02, 0.05, 0.10, 0.20, 0.30, 0.50, 0.75, 1.00],
        }
    }
}

/// The estimator's accuracy at one injected level.
#[derive(Debug, Clone, Copy)]
pub struct LevelError {
    /// Injected noise level.
    pub injected: f64,
    /// Mean corrected estimate over the level's sets.
    pub mean_estimate: f64,
    /// `|mean_estimate - injected|`.
    pub abs_error: f64,
    /// `abs_error / injected`.
    pub rel_error: f64,
}

/// Runs the evaluation: one [`LevelError`] per level of `spec`, in order.
pub fn evaluate(spec: &EstimatorSpec) -> Vec<LevelError> {
    spec.levels
        .iter()
        .map(|&level| {
            let mut rng = StdRng::seed_from_u64(spec.seed ^ (level * 1e6) as u64);
            let task_spec = EvalTaskSpec {
                num_params: 1,
                noise_level: level,
                repetitions: spec.reps,
                points_per_param: spec.points,
                num_eval_points: 1,
                family: NoiseFamily::Uniform,
            };
            // The synthetic task generator builds a measurement grid with
            // exactly the uniform multiplicative noise of the paper.
            let estimates: Vec<f64> = (0..spec.sets)
                .map(|_| {
                    let task = generate_eval_task(&task_spec, &mut rng);
                    NoiseEstimate::of(&task.set).corrected_mean()
                })
                .collect();
            let mean_estimate = stats::mean(&estimates);
            let abs_error = (mean_estimate - level).abs();
            LevelError {
                injected: level,
                mean_estimate,
                abs_error,
                rel_error: abs_error / level,
            }
        })
        .collect()
}

/// The average relative error over all levels: the figure the paper
/// reports.
pub fn average_rel_error(levels: &[LevelError]) -> f64 {
    let rel: Vec<f64> = levels.iter().map(|l| l.rel_error).collect();
    stats::mean(&rel)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn estimator_error_stays_within_the_papers_figure() {
        let levels = evaluate(&EstimatorSpec::default());
        assert_eq!(levels.len(), 8);
        let avg = average_rel_error(&levels);
        assert!(
            avg <= PAPER_AVERAGE_REL_ERROR,
            "average relative error {avg:.4} exceeds the paper's {PAPER_AVERAGE_REL_ERROR}"
        );
    }
}
