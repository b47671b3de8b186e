//! Human-readable reports of modeling outcomes.
//!
//! Extra-P's value to practitioners is the readable formula; this module
//! renders the adaptive modeler's full decision trail — noise analysis,
//! which modelers ran, scores, the winning model and its growth class — as
//! plain text suitable for terminals and logs.

use crate::adaptive::{AdaptiveOutcome, ModelerChoice};
use std::fmt::Write as _;

/// Renders the decision trail of an adaptive modeling run.
pub fn render_outcome(outcome: &AdaptiveOutcome) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "model:      {}", outcome.result.model);
    let _ = writeln!(
        out,
        "growth:     {}",
        outcome.result.model.asymptotic_string()
    );
    let _ = writeln!(
        out,
        "selection:  {} (cv-SMAPE {:.3}%, fit-SMAPE {:.3}%)",
        match outcome.choice {
            ModelerChoice::Regression => "regression modeler",
            ModelerChoice::Dnn => "DNN modeler",
            ModelerChoice::ConstantMean => "constant-mean fallback",
        },
        outcome.result.cv_smape,
        outcome.result.fit_smape,
    );
    if outcome.noise.is_empty() {
        let _ = writeln!(out, "noise:      no repetition information available");
    } else {
        let _ = writeln!(
            out,
            "noise:      mean {:.2}%, median {:.2}%, range [{:.2}, {:.2}]% (threshold {:.0}%)",
            outcome.noise.mean() * 100.0,
            outcome.noise.median() * 100.0,
            outcome.noise.min() * 100.0,
            outcome.noise.max() * 100.0,
            outcome.threshold * 100.0,
        );
    }
    if !outcome.quality.is_clean() {
        let _ = writeln!(
            out,
            "quality:    {} of {} points removed, {} repetitions dropped, {} clamped",
            outcome.quality.points_dropped,
            outcome.quality.points_in,
            outcome.quality.dropped(),
            outcome.quality.clamped,
        );
    }
    match (&outcome.regression_result, &outcome.dnn_result) {
        (Some(r), Some(d)) => {
            let _ = writeln!(
                out,
                "candidates: regression cv {:.3}% | DNN cv {:.3}%",
                r.cv_smape, d.cv_smape
            );
        }
        (None, Some(_)) => {
            let _ = writeln!(
                out,
                "candidates: regression switched off (noise above threshold), DNN only"
            );
        }
        (Some(_), None) => {
            let _ = writeln!(out, "candidates: DNN failed, regression fallback");
        }
        (None, None) => {}
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use nrpm_extrap::Model;

    #[test]
    fn render_outcome_includes_the_decision_trail() {
        use crate::noise::NoiseEstimate;
        use nrpm_extrap::{MeasurementSet, ModelingResult};

        let mut set = MeasurementSet::new(1);
        for &x in &[2.0, 4.0, 8.0] {
            set.add_repetitions(&[x], &[x, x * 1.1]);
        }
        let outcome = AdaptiveOutcome {
            result: ModelingResult {
                model: Model::constant_model(1, 5.0),
                cv_smape: 1.25,
                fit_smape: 0.5,
            },
            noise: NoiseEstimate::of(&set),
            threshold: 0.25,
            regression_result: None,
            dnn_result: Some(ModelingResult {
                model: Model::constant_model(1, 5.0),
                cv_smape: 1.25,
                fit_smape: 0.5,
            }),
            choice: ModelerChoice::Dnn,
            quality: crate::sanitize::DataQualityReport::untouched(&set),
        };
        let text = render_outcome(&outcome);
        assert!(text.contains("DNN modeler"));
        assert!(text.contains("O(1)"));
        assert!(text.contains("switched off"));
        assert!(text.contains("threshold 25%"));
        assert!(
            !text.contains("quality:"),
            "clean runs need no quality line"
        );
    }

    #[test]
    fn render_outcome_reports_repairs_and_the_fallback() {
        use crate::noise::NoiseEstimate;
        use crate::sanitize::{sanitize, SanitizeOptions};
        use nrpm_extrap::{MeasurementSet, ModelingResult};

        let mut set = MeasurementSet::new(1);
        set.add_repetitions(&[2.0], &[10.0, f64::NAN, 900.0]);
        set.add_repetitions(&[4.0], &[11.0, 10.5]);
        let (clean, quality) = sanitize(&set, &SanitizeOptions::default());
        let outcome = AdaptiveOutcome {
            result: ModelingResult {
                model: Model::constant_model(1, 10.5),
                cv_smape: 2.0,
                fit_smape: 1.0,
            },
            noise: NoiseEstimate::robust_of(&clean),
            threshold: 0.25,
            regression_result: None,
            dnn_result: None,
            choice: ModelerChoice::ConstantMean,
            quality,
        };
        let text = render_outcome(&outcome);
        assert!(text.contains("constant-mean fallback"));
        assert!(text.contains("quality:"));
        assert!(text.contains("1 repetitions dropped, 1 clamped"));
    }
}
