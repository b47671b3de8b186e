//! Coefficient fitting and hypothesis scoring.
//!
//! Given a hypothesis structure, the coefficients `c_0, …, c_h` are found by
//! linear least squares on the design matrix whose columns are the constant
//! `1` and each term's factor product evaluated at the measurement points.
//! A hypothesis is evaluated over its point set once ([`Design`]): the full
//! fit, the pruned refit, the in-sample SMAPE and every leave-one-out fold
//! solve from those rows.

use crate::metrics::{smape, smape_term};
use crate::search::Hypothesis;
use crate::{Model, ModelError, Term};
use nrpm_linalg::{lstsq, Matrix};

/// Maximum number of held-out folds of the leave-one-out cross-validation.
/// Leave-one-out is exact up to this size; for larger sets (e.g. a
/// 125-point Kripke grid) evenly spaced holds give an indistinguishable
/// selection signal at a fraction of the cost.
pub const MAX_CV_FOLDS: usize = 40;

/// Constraints applied after the raw least-squares fit.
///
/// Both reflect the physical prior that the metric being modelled (runtime,
/// energy, …) *grows* with its parameters:
///
/// * a non-constant term with a **negative coefficient** describes a cost
///   that shrinks as the parameter grows — outside the PMNF's intended
///   model class, and a frequent symptom of a structurally wrong
///   hypothesis chasing noise;
/// * a term whose largest contribution over the measured points is
///   **negligible** relative to the function value is numerically present
///   but physically absent — keeping it would fabricate a lead exponent
///   (`540.1 + 0.0000 · x³` is a constant, not a cubic).
#[derive(Debug, Clone, Copy)]
pub struct FitConstraints {
    /// Permit negative coefficients on non-constant terms.
    pub allow_negative_terms: bool,
    /// Terms contributing less than this fraction of the largest function
    /// value over the measured points are pruned (and the reduced
    /// hypothesis refitted). Zero disables pruning.
    pub prune_relative_threshold: f64,
}

impl Default for FitConstraints {
    fn default() -> Self {
        FitConstraints {
            allow_negative_terms: false,
            // Conservative: this only removes terms that are numerically
            // zero (a constant fitted with a superfluous term). Anything
            // larger may legitimately matter along its own parameter's
            // line even when another parameter dominates the global scale.
            prune_relative_threshold: 1e-4,
        }
    }
}

impl FitConstraints {
    /// No constraints: the raw least-squares behaviour.
    pub fn unconstrained() -> Self {
        FitConstraints {
            allow_negative_terms: true,
            prune_relative_threshold: 0.0,
        }
    }
}

/// A hypothesis with fitted coefficients and its selection scores.
#[derive(Debug, Clone)]
pub struct FittedHypothesis {
    /// The fitted model.
    pub model: Model,
    /// In-sample SMAPE (percent).
    pub fit_smape: f64,
    /// Leave-one-out cross-validation SMAPE (percent).
    pub cv_smape: f64,
    /// The structure that produced the model (kept for tie-breaking).
    pub hypothesis: Hypothesis,
}

/// One hypothesis evaluated over one point set, the input of every solve
/// that scores it.
///
/// The coefficients are fitted by *relative* least squares: each equation
/// is scaled by `1/|y|`, so the solver minimizes relative residuals rather
/// than absolute ones. This matters whenever the measured values span
/// several orders of magnitude (a `x2³` term over `x2 ∈ [10, 50]` spans
/// 125×): plain least squares is dominated by the largest points and leaves
/// the constant term unidentified to within the *absolute* noise of the top
/// of the range — producing models with absurd constants (±10¹⁰) whose
/// relative error at the small points, and hence their SMAPE, explodes.
/// Relative weighting aligns the fit criterion with the SMAPE selection
/// criterion. For clean, exactly representable data both criteria give the
/// exact solution.
///
/// A solve names the term columns it uses (`cols`, indices into the
/// hypothesis' terms) and optionally one held-out row, so the pruned refit
/// and the cross-validation folds reuse the rows evaluated here.
struct Design {
    /// Number of non-constant terms of the hypothesis.
    terms: usize,
    /// Row-major `n × terms`: each term's factor product at each point.
    products: Vec<f64>,
    /// Row-major `n × (1 + terms)`: the point's weight (the constant
    /// column), then each product times it.
    weighted: Vec<f64>,
    /// The measured values.
    values: Vec<f64>,
    /// Each value times its point's weight.
    weighted_values: Vec<f64>,
}

impl Design {
    fn new(hypothesis: &Hypothesis, points: &[(Vec<f64>, f64)]) -> Self {
        let terms = hypothesis.terms.len();
        let n = points.len();
        let mut design = Design {
            terms,
            products: Vec::with_capacity(n * terms),
            weighted: Vec::with_capacity(n * (terms + 1)),
            values: Vec::with_capacity(n),
            weighted_values: Vec::with_capacity(n),
        };
        for (point, value) in points {
            let weight = if value.abs() > f64::MIN_POSITIVE {
                1.0 / value.abs()
            } else {
                1.0
            };
            design.weighted.push(weight);
            for factors in &hypothesis.terms {
                let product: f64 = factors.iter().map(|f| f.evaluate(point)).product();
                design.products.push(product);
                design.weighted.push(product * weight);
            }
            design.values.push(*value);
            design.weighted_values.push(value * weight);
        }
        design
    }

    fn len(&self) -> usize {
        self.values.len()
    }

    /// The coefficients (constant first) fitted to every row but `skip`
    /// over the term columns `cols`. `None` when there are fewer rows than
    /// coefficients or the system is rank deficient or non-finite — the
    /// caller skips the hypothesis, mirroring Extra-P's behaviour of
    /// dropping degenerate candidates.
    fn solve(&self, cols: &[usize], skip: Option<usize>) -> Option<Vec<f64>> {
        let k = 1 + cols.len();
        let rows = self.len() - usize::from(skip.is_some());
        if rows < k {
            return None;
        }
        let mut a = Vec::with_capacity(rows * k);
        let mut y = Vec::with_capacity(rows);
        for r in (0..self.len()).filter(|&r| Some(r) != skip) {
            let row = &self.weighted[r * (self.terms + 1)..][..self.terms + 1];
            a.push(row[0]);
            a.extend(cols.iter().map(|&c| row[c + 1]));
            y.push(self.weighted_values[r]);
        }
        lstsq(&Matrix::from_vec(rows, k, a), &y).ok()
    }

    /// The model's prediction at row `r`, `c_0 + Σ c_t · product_t`, summed
    /// in [`Model::evaluate`]'s order so it is bitwise the same value.
    fn predict(&self, r: usize, cols: &[usize], coeffs: &[f64]) -> f64 {
        let products = &self.products[r * self.terms..][..self.terms];
        coeffs[0]
            + cols
                .iter()
                .zip(&coeffs[1..])
                .map(|(&c, &coefficient)| coefficient * products[c])
                .sum::<f64>()
    }

    /// In-sample SMAPE of the fit `coeffs` over `cols`.
    fn fit_smape(&self, cols: &[usize], coeffs: &[f64]) -> f64 {
        let predicted: Vec<f64> = (0..self.len())
            .map(|r| self.predict(r, cols, coeffs))
            .collect();
        smape(&self.values, &predicted)
    }

    /// Leave-one-out cross-validation SMAPE of the fit over `cols`: each
    /// fold refits without its held-out row and predicts it. Folds that do
    /// not fit, or predict a non-finite value, are skipped; `None` when none
    /// is left. Beyond [`MAX_CV_FOLDS`] points an evenly spaced subset of
    /// holds is used.
    ///
    /// Also `None` as soon as the score provably exceeds `bound`: the
    /// partial sum over the folds so far, averaged over *all* folds, is a
    /// lower bound of the final score, because every SMAPE term is
    /// non-negative and rounding is monotone.
    fn cross_validate(&self, cols: &[usize], bound: f64) -> Option<f64> {
        let n = self.len();
        if n < 2 {
            return None;
        }
        let folds = n.min(MAX_CV_FOLDS);
        let mut sum = 0.0;
        let mut scored = 0usize;
        for fold in 0..folds {
            let hold = if n <= MAX_CV_FOLDS {
                fold
            } else {
                fold * (n - 1) / (MAX_CV_FOLDS - 1)
            };
            let Some(coeffs) = self.solve(cols, Some(hold)) else {
                continue;
            };
            let predicted = self.predict(hold, cols, &coeffs);
            if predicted.is_finite() {
                sum += smape_term(self.values[hold], predicted);
                scored += 1;
                if 100.0 * sum / folds as f64 > bound {
                    return None;
                }
            }
        }
        (scored > 0).then(|| 100.0 * sum / scored as f64)
    }
}

/// The model of `hypothesis` with coefficients `coeffs` (constant first).
fn model_of(hypothesis: &Hypothesis, coeffs: &[f64]) -> Model {
    let terms = hypothesis
        .terms
        .iter()
        .zip(&coeffs[1..])
        .map(|(factors, &c)| Term::new(c, factors.clone()))
        .collect();
    Model::new(hypothesis.num_params, coeffs[0], terms)
}

/// Fits the coefficients of `hypothesis` to `points` by relative least
/// squares (each equation scaled by `1/|y|`), without constraints or
/// scores. Returns `None` when the system is rank deficient or otherwise
/// unsolvable.
pub fn fit_coefficients(hypothesis: &Hypothesis, points: &[(Vec<f64>, f64)]) -> Option<Model> {
    let design = Design::new(hypothesis, points);
    let cols: Vec<usize> = (0..design.terms).collect();
    Some(model_of(hypothesis, &design.solve(&cols, None)?))
}

/// In-sample SMAPE of [`fit_coefficients`]' fit, or `None` when it fails.
pub(crate) fn fit_smape(hypothesis: &Hypothesis, points: &[(Vec<f64>, f64)]) -> Option<f64> {
    let design = Design::new(hypothesis, points);
    let cols: Vec<usize> = (0..design.terms).collect();
    let coeffs = design.solve(&cols, None)?;
    Some(design.fit_smape(&cols, &coeffs))
}

/// Fits a hypothesis and scores it with in-sample SMAPE and leave-one-out
/// cross-validation SMAPE, applying the default [`FitConstraints`].
pub fn fit_hypothesis(
    hypothesis: &Hypothesis,
    points: &[(Vec<f64>, f64)],
) -> Result<FittedHypothesis, ModelError> {
    fit_hypothesis_constrained(hypothesis, points, FitConstraints::default())
}

/// [`fit_hypothesis`] with explicit constraints.
pub fn fit_hypothesis_constrained(
    hypothesis: &Hypothesis,
    points: &[(Vec<f64>, f64)],
    constraints: FitConstraints,
) -> Result<FittedHypothesis, ModelError> {
    fit_bounded(hypothesis, points, constraints, f64::INFINITY)
}

/// [`fit_hypothesis_constrained`] that gives up (with
/// [`ModelError::NoViableHypothesis`]) once the CV-SMAPE provably exceeds
/// `cv_bound`.
fn fit_bounded(
    hypothesis: &Hypothesis,
    points: &[(Vec<f64>, f64)],
    constraints: FitConstraints,
    cv_bound: f64,
) -> Result<FittedHypothesis, ModelError> {
    let design = Design::new(hypothesis, points);
    let mut cols: Vec<usize> = (0..design.terms).collect();
    let mut coeffs = design
        .solve(&cols, None)
        .ok_or(ModelError::NoViableHypothesis)?;

    // Prune terms whose largest contribution over the measured points is
    // negligible relative to the function values, and refit the reduced
    // structure so the remaining coefficients stay least-squares optimal.
    if constraints.prune_relative_threshold > 0.0 && design.terms > 0 {
        let n = design.len();
        let scale = (0..n)
            .map(|r| design.predict(r, &cols, &coeffs).abs())
            .fold(0.0_f64, f64::max)
            .max(f64::MIN_POSITIVE);
        let keep: Vec<usize> = (0..design.terms)
            .filter(|&t| {
                let max_contribution = (0..n)
                    .map(|r| (coeffs[t + 1] * design.products[r * design.terms + t]).abs())
                    .fold(0.0_f64, f64::max);
                max_contribution / scale >= constraints.prune_relative_threshold
            })
            .collect();
        if keep.len() < design.terms {
            coeffs = design
                .solve(&keep, None)
                .ok_or(ModelError::NoViableHypothesis)?;
            cols = keep;
        }
    }

    // Negativity is checked *after* pruning: an exactly-constant function
    // fits a superfluous term's coefficient to ±1e-15, whose sign is noise
    // — pruning removes it, leaving only meaningful coefficients to judge.
    if !constraints.allow_negative_terms && coeffs[1..].iter().any(|&c| c < 0.0) {
        return Err(ModelError::NoViableHypothesis);
    }

    let fit_smape = design.fit_smape(&cols, &coeffs);
    let cv_smape = design
        .cross_validate(&cols, cv_bound)
        .ok_or(ModelError::NoViableHypothesis)?;
    if !fit_smape.is_finite() || !cv_smape.is_finite() {
        return Err(ModelError::NoViableHypothesis);
    }

    let hypothesis = Hypothesis {
        num_params: hypothesis.num_params,
        terms: cols.iter().map(|&c| hypothesis.terms[c].clone()).collect(),
    };
    Ok(FittedHypothesis {
        model: model_of(&hypothesis, &coeffs),
        fit_smape,
        cv_smape,
        hypothesis,
    })
}

/// Fits candidate hypotheses one at a time and picks the winner exactly as
/// [`select_best`] over all of them would, but with bounded
/// cross-validation: a candidate's folds stop once its CV-SMAPE provably
/// exceeds `best + max(tie_tolerance, 0)`, where `best` is the lowest
/// CV-SMAPE fitted so far. Such a candidate is neither the minimum nor
/// within the tie tolerance of it, so `select_best` would filter it out.
pub(crate) struct Selection<'a> {
    points: &'a [(Vec<f64>, f64)],
    tie_tolerance: f64,
    best_cv: f64,
    candidates: Vec<FittedHypothesis>,
}

impl<'a> Selection<'a> {
    /// An empty selection over `points`.
    pub(crate) fn new(points: &'a [(Vec<f64>, f64)], tie_tolerance: f64) -> Self {
        Selection {
            points,
            tie_tolerance,
            best_cv: f64::INFINITY,
            candidates: Vec::new(),
        }
    }

    /// Fits `hypothesis` with the default [`FitConstraints`] and keeps it
    /// if it can still win.
    pub(crate) fn offer(&mut self, hypothesis: &Hypothesis) {
        let bound = self.best_cv + self.tie_tolerance.max(0.0);
        if let Ok(fitted) = fit_bounded(hypothesis, self.points, FitConstraints::default(), bound) {
            self.best_cv = self.best_cv.min(fitted.cv_smape);
            self.candidates.push(fitted);
        }
    }

    /// The winner, as [`select_best`] picks it.
    pub(crate) fn best(self) -> Option<FittedHypothesis> {
        select_best(self.candidates, self.tie_tolerance)
    }
}

/// Selects the best fitted hypothesis from `candidates` by cross-validation
/// SMAPE, breaking near-ties (within `tie_tolerance` percentage points)
/// toward the structurally simpler hypothesis.
pub fn select_best(
    candidates: Vec<FittedHypothesis>,
    tie_tolerance: f64,
) -> Option<FittedHypothesis> {
    let best_cv = candidates
        .iter()
        .map(|c| c.cv_smape)
        .fold(f64::INFINITY, f64::min);
    if !best_cv.is_finite() {
        return None;
    }
    candidates
        .into_iter()
        .filter(|c| c.cv_smape <= best_cv + tie_tolerance)
        .min_by(|a, b| {
            let ka = a.hypothesis.complexity();
            let kb = b.hypothesis.complexity();
            ka.partial_cmp(&kb)
                .unwrap_or(std::cmp::Ordering::Equal)
                .then(
                    a.cv_smape
                        .partial_cmp(&b.cv_smape)
                        .unwrap_or(std::cmp::Ordering::Equal),
                )
        })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{ExponentPair, Hypothesis};

    fn points_from(f: impl Fn(f64) -> f64, xs: &[f64]) -> Vec<(Vec<f64>, f64)> {
        xs.iter().map(|&x| (vec![x], f(x))).collect()
    }

    #[test]
    fn fits_exact_linear_term() {
        let pts = points_from(|x| 5.0 + 3.0 * x, &[2.0, 4.0, 8.0, 16.0, 32.0]);
        let hyp = Hypothesis::single(ExponentPair::from_parts(1, 1, 0));
        let fitted = fit_hypothesis(&hyp, &pts).unwrap();
        assert!((fitted.model.constant - 5.0).abs() < 1e-8);
        assert!((fitted.model.terms[0].coefficient - 3.0).abs() < 1e-9);
        assert!(fitted.fit_smape < 1e-9);
        assert!(fitted.cv_smape < 1e-9);
    }

    #[test]
    fn fits_log_squared_term() {
        let f = |x: f64| 1.0 + 0.5 * x * x.log2().powi(2);
        let pts = points_from(f, &[4.0, 8.0, 16.0, 32.0, 64.0]);
        let hyp = Hypothesis::single(ExponentPair::from_parts(1, 1, 2));
        let fitted = fit_hypothesis(&hyp, &pts).unwrap();
        assert!(fitted.cv_smape < 1e-6, "cv = {}", fitted.cv_smape);
    }

    #[test]
    fn constant_hypothesis_fits_mean_like_value() {
        let pts = points_from(|_| 7.0, &[1.0, 2.0, 4.0, 8.0, 16.0]);
        let fitted = fit_hypothesis(&Hypothesis::constant(1), &pts).unwrap();
        assert!((fitted.model.constant - 7.0).abs() < 1e-9);
        assert!(fitted.model.is_constant());
    }

    #[test]
    fn too_few_points_is_rejected() {
        let pts = points_from(|x| x, &[2.0]);
        let hyp = Hypothesis::single(ExponentPair::from_parts(1, 1, 0));
        assert!(fit_coefficients(&hyp, &pts).is_none());
    }

    #[test]
    fn degenerate_design_is_skipped() {
        // All x identical -> the x column is a multiple of the constant
        // column -> rank deficient.
        let pts = points_from(|x| x, &[4.0, 4.0, 4.0, 4.0]);
        let hyp = Hypothesis::single(ExponentPair::from_parts(1, 1, 0));
        assert!(fit_coefficients(&hyp, &pts).is_none());
    }

    #[test]
    fn wrong_structure_scores_worse_than_right_one() {
        let f = |x: f64| 2.0 + 0.1 * x * x; // quadratic
        let xs = [2.0, 4.0, 8.0, 16.0, 32.0];
        let pts = points_from(f, &xs);
        let right =
            fit_hypothesis(&Hypothesis::single(ExponentPair::from_parts(2, 1, 0)), &pts).unwrap();
        let wrong =
            fit_hypothesis(&Hypothesis::single(ExponentPair::from_parts(1, 2, 0)), &pts).unwrap();
        assert!(right.cv_smape < wrong.cv_smape);
    }

    #[test]
    fn select_best_prefers_lowest_cv() {
        let f = |x: f64| 1.0 + 2.0 * x;
        let pts = points_from(f, &[2.0, 4.0, 8.0, 16.0, 32.0]);
        let candidates: Vec<FittedHypothesis> = [
            ExponentPair::from_parts(1, 1, 0),
            ExponentPair::from_parts(2, 1, 0),
            ExponentPair::from_parts(1, 2, 0),
        ]
        .iter()
        .filter_map(|&p| fit_hypothesis(&Hypothesis::single(p), &pts).ok())
        .collect();
        let best = select_best(candidates, 1e-6).unwrap();
        assert_eq!(
            best.model.lead_exponent(0).unwrap(),
            ExponentPair::from_parts(1, 1, 0)
        );
    }

    #[test]
    fn select_best_breaks_ties_toward_simplicity() {
        // Constant data: the constant hypothesis and x^{1/4} (with c1 ~ 0)
        // both reach ~0 CV error; the constant must win.
        let pts = points_from(|_| 10.0, &[2.0, 4.0, 8.0, 16.0, 32.0]);
        let candidates: Vec<FittedHypothesis> = vec![
            fit_hypothesis(&Hypothesis::single(ExponentPair::from_parts(1, 4, 0)), &pts).unwrap(),
            fit_hypothesis(&Hypothesis::constant(1), &pts).unwrap(),
        ];
        let best = select_best(candidates, 0.01).unwrap();
        assert!(best.model.is_constant());
    }

    #[test]
    fn select_best_of_empty_is_none() {
        assert!(select_best(Vec::new(), 0.0).is_none());
    }

    #[test]
    fn negligible_terms_are_pruned_to_a_constant() {
        // A constant function fitted with a cubic hypothesis: the cubic
        // coefficient comes out ~0 and the term must disappear, so the
        // model's lead exponent is constant, not x^3.
        let pts = points_from(|_| 541.2, &[6.0, 13.0, 20.0, 27.0, 34.0]);
        let hyp = Hypothesis::single(ExponentPair::from_parts(3, 1, 1));
        let fitted = fit_hypothesis(&hyp, &pts).unwrap();
        assert!(fitted.model.is_constant(), "model = {}", fitted.model);
        assert!((fitted.model.constant - 541.2).abs() < 1e-6);
    }

    #[test]
    fn pruning_keeps_significant_terms() {
        let pts = points_from(|x| 1.0 + 2.0 * x, &[2.0, 4.0, 8.0, 16.0, 32.0]);
        let hyp = Hypothesis::single(ExponentPair::from_parts(1, 1, 0));
        let fitted = fit_hypothesis(&hyp, &pts).unwrap();
        assert_eq!(fitted.model.terms.len(), 1);
    }

    #[test]
    fn negative_term_coefficients_are_rejected_by_default() {
        // Decreasing data: any growing term needs a negative coefficient.
        let pts = points_from(|x| 100.0 - 2.0 * x, &[2.0, 4.0, 8.0, 16.0, 32.0]);
        let hyp = Hypothesis::single(ExponentPair::from_parts(1, 1, 0));
        assert!(matches!(
            fit_hypothesis(&hyp, &pts),
            Err(ModelError::NoViableHypothesis)
        ));
        // ... but allowed when explicitly unconstrained.
        let fitted =
            fit_hypothesis_constrained(&hyp, &pts, FitConstraints::unconstrained()).unwrap();
        assert!(fitted.model.terms[0].coefficient < 0.0);
    }

    #[test]
    fn negative_constants_remain_allowed() {
        // The paper's RELeARN model has a negative constant; only negative
        // *term* coefficients are unphysical.
        let pts = points_from(
            |x| -50.0 + 30.0 * x.log2(),
            &[4.0, 16.0, 64.0, 256.0, 1024.0],
        );
        let hyp = Hypothesis::single(ExponentPair::from_parts(0, 1, 1));
        let fitted = fit_hypothesis(&hyp, &pts).unwrap();
        assert!(fitted.model.constant < 0.0);
        assert!(fitted.model.terms[0].coefficient > 0.0);
        assert!(fitted.cv_smape < 1e-6);
    }

    #[test]
    fn unconstrained_fit_keeps_tiny_terms() {
        let pts = points_from(|_| 10.0, &[2.0, 4.0, 8.0, 16.0, 32.0]);
        let hyp = Hypothesis::single(ExponentPair::from_parts(2, 1, 0));
        let fitted =
            fit_hypothesis_constrained(&hyp, &pts, FitConstraints::unconstrained()).unwrap();
        assert_eq!(fitted.model.terms.len(), 1);
    }
}
