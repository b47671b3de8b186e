//! Switching thresholds of the adaptive modeler (Sec. IV-A).
//!
//! The regression modeler wins at low noise, the DNN modeler at high noise;
//! the switch point is where their accuracy-vs-noise curves intersect. The
//! paper determines the thresholds from an in-depth synthetic analysis; the
//! same analysis is reproducible here via `nrpm threshold_calibration`,
//! whose sweep feeds [`intersection_threshold`]. The defaults below
//! come from our own calibration run (see EXPERIMENTS.md).

use serde::{Deserialize, Serialize};

/// An accuracy-vs-noise curve: `accuracy[i]` is the model accuracy at
/// `noise_levels[i]` (both in ascending noise order).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct AccuracyCurve {
    /// Noise levels (fractions), ascending.
    pub noise_levels: Vec<f64>,
    /// Accuracy at each level (fraction of correct models).
    pub accuracy: Vec<f64>,
}

impl AccuracyCurve {
    /// Creates a curve, validating shape and ordering.
    pub fn new(noise_levels: Vec<f64>, accuracy: Vec<f64>) -> Result<Self, String> {
        if noise_levels.len() != accuracy.len() {
            return Err("noise_levels and accuracy must have equal length".into());
        }
        if noise_levels.len() < 2 {
            return Err("a curve needs at least two samples".into());
        }
        if noise_levels.windows(2).any(|w| w[1] <= w[0]) {
            return Err("noise levels must be strictly ascending".into());
        }
        Ok(AccuracyCurve {
            noise_levels,
            accuracy,
        })
    }
}

/// Finds the noise level where the adaptive/DNN curve starts to beat the
/// regression curve: the first crossing of `dnn − regression` from negative
/// (or zero) to positive, located by linear interpolation between the two
/// surrounding samples.
///
/// Returns `None` when the curves never cross in the sampled range (one
/// modeler dominates everywhere); callers then fall back to always/never
/// switching.
pub fn intersection_threshold(regression: &AccuracyCurve, dnn: &AccuracyCurve) -> Option<f64> {
    assert_eq!(
        regression.noise_levels, dnn.noise_levels,
        "curves must share their noise grid"
    );
    let diffs: Vec<f64> = dnn
        .accuracy
        .iter()
        .zip(regression.accuracy.iter())
        .map(|(d, r)| d - r)
        .collect();
    if diffs[0] > 0.0 {
        // DNN already ahead at the lowest sampled noise.
        return Some(regression.noise_levels[0]);
    }
    for i in 1..diffs.len() {
        if diffs[i] > 0.0 {
            let (x0, x1) = (regression.noise_levels[i - 1], regression.noise_levels[i]);
            let (y0, y1) = (diffs[i - 1], diffs[i]);
            if (y1 - y0).abs() < 1e-15 {
                return Some(x0);
            }
            // Linear interpolation of the zero crossing.
            return Some(x0 + (x1 - x0) * (-y0) / (y1 - y0));
        }
    }
    None
}

/// Default switching thresholds per parameter count, as fractions.
///
/// With every additional parameter, noise hurts the regression modeler
/// earlier (Sec. V), so the threshold decreases with `m`.
pub fn default_threshold(num_params: usize) -> f64 {
    match num_params {
        0 | 1 => 0.25,
        2 => 0.20,
        _ => 0.15,
    }
}

/// One calibrated row of a [`ThresholdTable`]: where the DNN/regression
/// crossover sits for one noise regime, together with the accuracy curves
/// it was read off of (kept so the calibration is auditable).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ThresholdEntry {
    /// Regime name (`uniform`, `heteroscedastic`, `spike`, `device`, …).
    pub regime: String,
    /// The calibrated switching threshold; `None` when the curves never
    /// cross in the sampled range (one modeler dominates everywhere).
    pub threshold: Option<f64>,
    /// Noise grid the curves were sampled on, ascending.
    pub noise_levels: Vec<f64>,
    /// Regression accuracy at each level.
    pub regression_accuracy: Vec<f64>,
    /// DNN accuracy at each level.
    pub dnn_accuracy: Vec<f64>,
}

/// A per-regime table of calibrated switching thresholds, produced by the
/// `nrpm sweep` harness and loadable by the adaptive switch (`nrpm serve
/// --thresholds`, `nrpm fit --thresholds`).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ThresholdTable {
    /// Parameter count the calibration ran at.
    pub num_params: usize,
    /// One entry per swept regime.
    pub entries: Vec<ThresholdEntry>,
}

impl ThresholdTable {
    /// The calibrated threshold for `regime`, if that regime was swept and
    /// its curves actually cross.
    pub fn threshold_for_regime(&self, regime: &str) -> Option<f64> {
        self.entries
            .iter()
            .find(|e| e.regime == regime)
            .and_then(|e| e.threshold)
    }

    /// Builds the per-parameter-count threshold vector the adaptive switch
    /// consumes (`AdaptiveOptions::thresholds`): index `m − 1` holds the
    /// threshold for `m` parameters. Counts below the calibrated one keep
    /// their [`default_threshold`]; the calibrated count — and through the
    /// switch's index clamping every count above it — uses the calibrated
    /// value. `None` when the regime is absent or never crosses.
    pub fn switch_thresholds(&self, regime: &str) -> Option<Vec<f64>> {
        let calibrated = self.threshold_for_regime(regime)?;
        let m = self.num_params.max(1);
        let mut thresholds: Vec<f64> = (1..m).map(default_threshold).collect();
        thresholds.push(calibrated);
        Some(thresholds)
    }

    /// Serializes the table to pretty JSON.
    pub fn to_json(&self) -> String {
        serde_json::to_string_pretty(self).expect("ThresholdTable serializes")
    }

    /// Deserializes a table from JSON.
    pub fn from_json(json: &str) -> Result<Self, serde_json::Error> {
        serde_json::from_str(json)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn grid() -> Vec<f64> {
        vec![0.02, 0.05, 0.10, 0.20, 0.50, 0.75, 1.00]
    }

    #[test]
    fn curve_validation() {
        assert!(AccuracyCurve::new(vec![0.1, 0.2], vec![0.9]).is_err());
        assert!(AccuracyCurve::new(vec![0.1], vec![0.9]).is_err());
        assert!(AccuracyCurve::new(vec![0.2, 0.1], vec![0.9, 0.8]).is_err());
        assert!(AccuracyCurve::new(vec![0.1, 0.2], vec![0.9, 0.8]).is_ok());
    }

    #[test]
    fn finds_interpolated_crossing() {
        let reg =
            AccuracyCurve::new(grid(), vec![0.99, 0.98, 0.95, 0.85, 0.60, 0.45, 0.35]).unwrap();
        let dnn =
            AccuracyCurve::new(grid(), vec![0.95, 0.94, 0.93, 0.84, 0.70, 0.60, 0.55]).unwrap();
        // diff: -.04 -.04 -.02 -.01 +.10 ... -> crossing between 0.20 and 0.50
        let t = intersection_threshold(&reg, &dnn).unwrap();
        assert!(t > 0.20 && t < 0.50, "t = {t}");
        // exact interpolation: 0.20 + 0.30 * 0.01/0.11
        assert!((t - (0.20 + 0.30 * 0.01 / 0.11)).abs() < 1e-12);
    }

    #[test]
    fn dnn_dominating_everywhere_returns_lowest_level() {
        let reg = AccuracyCurve::new(grid(), vec![0.5; 7]).unwrap();
        let dnn = AccuracyCurve::new(grid(), vec![0.6; 7]).unwrap();
        assert_eq!(intersection_threshold(&reg, &dnn), Some(0.02));
    }

    #[test]
    fn regression_dominating_everywhere_returns_none() {
        let reg = AccuracyCurve::new(grid(), vec![0.9; 7]).unwrap();
        let dnn = AccuracyCurve::new(grid(), vec![0.8; 7]).unwrap();
        assert_eq!(intersection_threshold(&reg, &dnn), None);
    }

    #[test]
    fn ties_do_not_count_as_crossing() {
        let reg = AccuracyCurve::new(grid(), vec![0.9; 7]).unwrap();
        let dnn = AccuracyCurve::new(grid(), vec![0.9; 7]).unwrap();
        assert_eq!(intersection_threshold(&reg, &dnn), None);
    }

    #[test]
    fn default_thresholds_decrease_with_parameters() {
        assert!(default_threshold(1) > default_threshold(2));
        assert!(default_threshold(2) > default_threshold(3));
        assert_eq!(default_threshold(3), default_threshold(7));
    }

    fn sample_table() -> ThresholdTable {
        ThresholdTable {
            num_params: 2,
            entries: vec![
                ThresholdEntry {
                    regime: "uniform".into(),
                    threshold: Some(0.31),
                    noise_levels: grid(),
                    regression_accuracy: vec![0.9; 7],
                    dnn_accuracy: vec![0.8; 7],
                },
                ThresholdEntry {
                    regime: "spike".into(),
                    threshold: None,
                    noise_levels: grid(),
                    regression_accuracy: vec![0.9; 7],
                    dnn_accuracy: vec![0.7; 7],
                },
            ],
        }
    }

    #[test]
    fn table_looks_up_regimes_and_round_trips() {
        let table = sample_table();
        assert_eq!(table.threshold_for_regime("uniform"), Some(0.31));
        assert_eq!(table.threshold_for_regime("spike"), None);
        assert_eq!(table.threshold_for_regime("nope"), None);
        let back = ThresholdTable::from_json(&table.to_json()).unwrap();
        assert_eq!(table, back);
    }

    #[test]
    fn switch_thresholds_place_the_calibrated_value_at_its_count() {
        let table = sample_table();
        let t = table.switch_thresholds("uniform").unwrap();
        assert_eq!(t, vec![default_threshold(1), 0.31]);
        assert_eq!(table.switch_thresholds("spike"), None, "no crossover");
        assert_eq!(table.switch_thresholds("nope"), None, "unknown regime");
    }
}
