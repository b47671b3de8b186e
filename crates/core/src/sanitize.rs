//! Input sanitization: turning corrupted measurement campaigns into
//! modelable ones, with a full account of every repair.
//!
//! The fault model (see DESIGN.md, "Fault model & degraded modes") covers
//! NaN/Inf repetitions, stuck-sensor zeros and negative readings, and
//! multiplicative outlier spikes. The sanitizer handles them in three
//! passes per measurement point:
//!
//! 1. **Drop** non-finite repetitions and points with non-finite
//!    coordinates — there is no value to repair.
//! 2. **Drop** non-positive repetitions — runtimes and other performance
//!    metrics are strictly positive; a zero is a sensor fault, not a fast
//!    run.
//! 3. **Winsorize** the survivors: clamp every repetition into
//!    `[M/K, M·K]`, where `M` is the point's *lower median* (an element of
//!    the repetition set) and `K` the configured outlier factor. Clamping
//!    is monotone and never moves the median element itself, so the bounds
//!    of a second pass are identical and sanitization is **idempotent** —
//!    `sanitize(sanitize(s)) == sanitize(s)` (property-tested in
//!    `tests/proptests.rs`).
//!
//! Every repair is tallied in a [`DataQualityReport`] that the adaptive
//! modeler attaches to its outcome, so a degraded answer is always
//! distinguishable from a clean one.

use nrpm_extrap::{Measurement, MeasurementSet, ModelError};
use serde::{Deserialize, Serialize};

/// How the adaptive pipeline treats corrupted input.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub enum SanitizePolicy {
    /// Pass the input through untouched (the pre-robustness behaviour;
    /// corrupt values surface as modeling errors downstream).
    Off,
    /// Repair what can be repaired and report every repair (default).
    #[default]
    Lenient,
    /// Refuse corrupted input: any value that would need dropping or
    /// clamping turns into [`nrpm_extrap::ModelError::CorruptData`].
    Strict,
}

/// Sanitizer configuration.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct SanitizeOptions {
    /// Repair policy.
    pub policy: SanitizePolicy,
    /// Winsorization factor `K`: repetitions outside `[M/K, M·K]` of their
    /// point's lower median `M` are clamped to the nearer bound. Values
    /// below 1 are treated as 1 (no clamping beyond the median itself).
    /// The default 10 sits well above the paper's largest legitimate noise
    /// ratio (160 % noise ⇒ max/min ≈ 9) while catching the 100×
    /// spikes of real campaign corruption.
    pub outlier_factor: f64,
}

impl Default for SanitizeOptions {
    fn default() -> Self {
        SanitizeOptions {
            policy: SanitizePolicy::default(),
            outlier_factor: 10.0,
        }
    }
}

/// Why a repetition or point was repaired, per measurement point.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PointFlag {
    /// The point's coordinates.
    pub point: Vec<f64>,
    /// Repetitions dropped at this point (non-finite or non-positive).
    pub dropped: usize,
    /// Repetitions clamped at this point.
    pub clamped: usize,
    /// `true` when the whole point was removed (no repetition survived or
    /// a coordinate was non-finite).
    pub removed: bool,
}

/// The sanitizer's account of everything it changed.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct DataQualityReport {
    /// Measurement points in the input.
    pub points_in: usize,
    /// Points removed entirely.
    pub points_dropped: usize,
    /// Repetition values dropped for being NaN/±Inf.
    pub dropped_non_finite: usize,
    /// Repetition values dropped for being zero or negative.
    pub dropped_non_positive: usize,
    /// Repetition values clamped by winsorization.
    pub clamped: usize,
    /// Per-point flags, one entry per point that needed any repair.
    pub flags: Vec<PointFlag>,
}

impl DataQualityReport {
    /// A report for an input that was not inspected at all
    /// ([`SanitizePolicy::Off`]).
    pub fn untouched(set: &MeasurementSet) -> Self {
        DataQualityReport {
            points_in: set.len(),
            ..Default::default()
        }
    }

    /// Total number of dropped repetition values.
    pub fn dropped(&self) -> usize {
        self.dropped_non_finite + self.dropped_non_positive
    }

    /// Total number of repairs (drops + clamps + removed points).
    pub fn repairs(&self) -> usize {
        self.dropped() + self.clamped + self.points_dropped
    }

    /// `true` when the input needed no repair.
    pub fn is_clean(&self) -> bool {
        self.repairs() == 0
    }
}

/// Lower median: the element at index `(len − 1) / 2` of the sorted values.
/// Always an element of the input, which is what makes winsorization around
/// it idempotent.
fn lower_median(values: &[f64]) -> f64 {
    debug_assert!(!values.is_empty());
    let mut sorted = values.to_vec();
    sorted.sort_by(|a, b| a.partial_cmp(b).expect("sanitized values are finite"));
    sorted[(sorted.len() - 1) / 2]
}

/// The input policy of every modeling path: sanitizes `set` under `opts`
/// ([`SanitizePolicy::Off`] passes it through untouched), then refuses a
/// set that needed repair under [`SanitizePolicy::Strict`]
/// ([`ModelError::CorruptData`]) and one left empty
/// ([`ModelError::NoUsableData`]).
pub fn admit(
    set: &MeasurementSet,
    opts: &SanitizeOptions,
) -> Result<(MeasurementSet, DataQualityReport), ModelError> {
    let (sanitized, quality) = if opts.policy == SanitizePolicy::Off {
        (set.clone(), DataQualityReport::untouched(set))
    } else {
        sanitize(set, opts)
    };
    if opts.policy == SanitizePolicy::Strict && !quality.is_clean() {
        return Err(ModelError::CorruptData {
            dropped: quality.dropped() + quality.points_dropped,
            clamped: quality.clamped,
        });
    }
    if sanitized.is_empty() {
        return Err(ModelError::NoUsableData);
    }
    Ok((sanitized, quality))
}

/// Sanitizes a measurement set, returning the repaired copy and the report
/// of every change. The input is never mutated.
///
/// Points whose coordinates are non-finite, and points where no repetition
/// survives the drop passes, are removed entirely. The output may therefore
/// be empty — callers decide whether that is an error (the adaptive modeler
/// maps it to [`nrpm_extrap::ModelError::NoUsableData`]).
pub fn sanitize(
    set: &MeasurementSet,
    opts: &SanitizeOptions,
) -> (MeasurementSet, DataQualityReport) {
    let factor = opts.outlier_factor.max(1.0);
    let mut out = MeasurementSet::new(set.num_params());
    let mut report = DataQualityReport {
        points_in: set.len(),
        ..Default::default()
    };

    for Measurement { point, values } in set.measurements() {
        let mut flag = PointFlag {
            point: point.clone(),
            dropped: 0,
            clamped: 0,
            removed: false,
        };

        if point.iter().any(|c| !c.is_finite()) {
            flag.removed = true;
            report.points_dropped += 1;
            report.flags.push(flag);
            continue;
        }

        let mut kept: Vec<f64> = Vec::with_capacity(values.len());
        for &v in values {
            if !v.is_finite() {
                report.dropped_non_finite += 1;
                flag.dropped += 1;
            } else if v <= 0.0 {
                report.dropped_non_positive += 1;
                flag.dropped += 1;
            } else {
                kept.push(v);
            }
        }
        if kept.is_empty() {
            flag.removed = true;
            report.points_dropped += 1;
            report.flags.push(flag);
            continue;
        }

        // Winsorize around the lower median. `m > 0` is guaranteed by the
        // drop pass, so the bounds are well-formed.
        if kept.len() >= 2 {
            let m = lower_median(&kept);
            let (lo, hi) = (m / factor, m * factor);
            for v in &mut kept {
                if *v < lo {
                    *v = lo;
                    report.clamped += 1;
                    flag.clamped += 1;
                } else if *v > hi {
                    *v = hi;
                    report.clamped += 1;
                    flag.clamped += 1;
                }
            }
        }

        if flag.dropped > 0 || flag.clamped > 0 {
            report.flags.push(flag);
        }
        out.add_repetitions(point, &kept);
    }

    (out, report)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn opts() -> SanitizeOptions {
        SanitizeOptions::default()
    }

    #[test]
    fn clean_input_passes_through_unchanged() {
        let mut set = MeasurementSet::new(1);
        for &x in &[2.0, 4.0, 8.0] {
            set.add_repetitions(&[x], &[x * 10.0, x * 10.5, x * 9.5]);
        }
        let (out, report) = sanitize(&set, &opts());
        assert_eq!(out, set);
        assert!(report.is_clean());
        assert_eq!(report.points_in, 3);
        assert!(report.flags.is_empty());
    }

    #[test]
    fn non_finite_repetitions_are_dropped() {
        let mut set = MeasurementSet::new(1);
        set.add_repetitions(&[2.0], &[10.0, f64::NAN, 11.0, f64::INFINITY]);
        let (out, report) = sanitize(&set, &opts());
        assert_eq!(out.measurements()[0].values, vec![10.0, 11.0]);
        assert_eq!(report.dropped_non_finite, 2);
        assert_eq!(report.flags.len(), 1);
        assert_eq!(report.flags[0].dropped, 2);
    }

    #[test]
    fn stuck_zeros_and_negatives_are_dropped() {
        let mut set = MeasurementSet::new(1);
        set.add_repetitions(&[2.0], &[10.0, 0.0, -3.0, 11.0]);
        let (_, report) = sanitize(&set, &opts());
        assert_eq!(report.dropped_non_positive, 2);
    }

    #[test]
    fn outlier_spikes_are_winsorized() {
        let mut set = MeasurementSet::new(1);
        set.add_repetitions(&[2.0], &[10.0, 10.5, 9.5, 1000.0, 11.0]);
        let (out, report) = sanitize(&set, &opts());
        // lower median of {9.5, 10, 10.5, 11, 1000} is 10.5 -> clamp to 105.
        assert_eq!(report.clamped, 1);
        let max = out.measurements()[0]
            .values
            .iter()
            .cloned()
            .fold(f64::MIN, f64::max);
        assert_eq!(max, 105.0);
    }

    #[test]
    fn fully_corrupt_points_are_removed() {
        let mut set = MeasurementSet::new(1);
        set.add_repetitions(&[2.0], &[f64::NAN, 0.0]);
        set.add_repetitions(&[4.0], &[8.0, 8.1]);
        let (out, report) = sanitize(&set, &opts());
        assert_eq!(out.len(), 1);
        assert_eq!(report.points_dropped, 1);
        assert!(report.flags.iter().any(|f| f.removed));
    }

    #[test]
    fn non_finite_coordinates_remove_the_point() {
        let mut set = MeasurementSet::new(2);
        set.add_repetitions(&[f64::NAN, 1.0], &[5.0]);
        set.add_repetitions(&[2.0, 1.0], &[5.0]);
        let (out, report) = sanitize(&set, &opts());
        assert_eq!(out.len(), 1);
        assert_eq!(report.points_dropped, 1);
    }

    #[test]
    fn everything_corrupt_yields_an_empty_set() {
        let mut set = MeasurementSet::new(1);
        set.add_repetitions(&[2.0], &[f64::NAN]);
        set.add_repetitions(&[4.0], &[f64::NEG_INFINITY, 0.0]);
        let (out, report) = sanitize(&set, &opts());
        assert!(out.is_empty());
        assert_eq!(report.points_dropped, 2);
        assert!(!report.is_clean());
    }

    #[test]
    fn sanitization_is_idempotent() {
        let mut set = MeasurementSet::new(1);
        set.add_repetitions(&[2.0], &[10.0, f64::NAN, 500.0, 9.0, 0.0]);
        set.add_repetitions(&[4.0], &[20.0, 21.0, 0.001, 19.0]);
        let (once, r1) = sanitize(&set, &opts());
        let (twice, r2) = sanitize(&once, &opts());
        assert_eq!(once, twice);
        assert!(!r1.is_clean());
        assert!(r2.is_clean(), "second pass repaired again: {r2:?}");
    }

    #[test]
    fn single_repetition_points_are_never_clamped() {
        let mut set = MeasurementSet::new(1);
        set.add_repetitions(&[2.0], &[1e12]);
        let (out, report) = sanitize(&set, &opts());
        assert_eq!(out.measurements()[0].values, vec![1e12]);
        assert!(report.is_clean());
    }

    #[test]
    fn outlier_factor_below_one_is_treated_as_one() {
        let mut set = MeasurementSet::new(1);
        set.add_repetitions(&[2.0], &[10.0, 12.0]);
        let o = SanitizeOptions {
            outlier_factor: 0.1,
            ..opts()
        };
        let (out, _) = sanitize(&set, &o);
        // K = 1 clamps everything to the lower median.
        assert_eq!(out.measurements()[0].values, vec![10.0, 10.0]);
        let (again, r2) = sanitize(&out, &o);
        assert_eq!(out, again);
        assert!(r2.is_clean());
    }

    #[test]
    fn report_arithmetic_is_consistent() {
        let mut set = MeasurementSet::new(1);
        set.add_repetitions(&[2.0], &[10.0, f64::NAN, -1.0, 9999.0]);
        let (_, report) = sanitize(&set, &opts());
        assert_eq!(report.dropped(), 2);
        assert_eq!(
            report.repairs(),
            report.dropped() + report.clamped + report.points_dropped
        );
        assert_eq!(report.clamped, 1);
    }

    #[test]
    fn untouched_report_is_clean() {
        let mut set = MeasurementSet::new(1);
        set.add_repetitions(&[2.0], &[f64::NAN]);
        let report = DataQualityReport::untouched(&set);
        assert!(report.is_clean());
        assert_eq!(report.points_in, 1);
    }
}
