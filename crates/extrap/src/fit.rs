//! Coefficient fitting and hypothesis scoring.
//!
//! Given a hypothesis structure, the coefficients `c_0, …, c_h` are found by
//! linear least squares on the design matrix whose columns are the constant
//! `1` and each term's factor product evaluated at the measurement points.
//! A hypothesis is evaluated over its point set once ([`Design`]): the full
//! fit, the pruned refit, the in-sample SMAPE and every leave-one-out fold
//! solve from those rows. Every solve gathers its rows into the same buffer
//! and factorizes them in place ([`Solver`]); the buffers live in a
//! [`FitScratch`] owned per fit or per [`Selection`], so the allocations of
//! a fit do not grow with its folds.

use crate::metrics::{smape_of, smape_term};
use crate::search::Hypothesis;
use crate::{Model, ModelError, ModelingResult, Term};
use nrpm_linalg::lstsq_into;
use std::cmp::Ordering;

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
#[derive(Default)]
struct Design {
    /// Number of non-constant terms of the hypothesis.
    terms: usize,
    /// Row-major, one row of `2 · terms + 3` values per point: the point's
    /// weight (the constant column), each term's factor product times it,
    /// the value times it; then each product and the value unweighted.
    rows: Vec<f64>,
}

impl Design {
    /// Evaluates `hypothesis` over `points`, reusing the row buffer.
    fn fill(&mut self, hypothesis: &Hypothesis, points: &[(Vec<f64>, f64)]) {
        let terms = hypothesis.terms.len();
        self.terms = terms;
        self.rows.clear();
        self.rows.reserve(points.len() * self.stride());
        for (point, value) in points {
            let weight = if value.abs() > f64::MIN_POSITIVE {
                1.0 / value.abs()
            } else {
                1.0
            };
            let start = self.rows.len();
            self.rows.resize(start + self.stride(), 0.0);
            let row = &mut self.rows[start..];
            row[0] = weight;
            for (t, factors) in hypothesis.terms.iter().enumerate() {
                let product: f64 = factors.iter().map(|f| f.evaluate(point)).product();
                row[1 + t] = product * weight;
                row[terms + 2 + t] = product;
            }
            row[terms + 1] = value * weight;
            row[2 * terms + 2] = *value;
        }
    }

    fn stride(&self) -> usize {
        2 * self.terms + 3
    }

    fn len(&self) -> usize {
        self.rows.len() / self.stride()
    }

    fn row(&self, r: usize) -> &[f64] {
        &self.rows[r * self.stride()..][..self.stride()]
    }

    /// Row `r` of the weighted system: the constant column, the term
    /// columns, then the right-hand side.
    fn weighted(&self, r: usize) -> &[f64] {
        &self.row(r)[..self.terms + 2]
    }

    /// Each term's factor product at point `r`.
    fn products(&self, r: usize) -> &[f64] {
        &self.row(r)[self.terms + 2..2 * self.terms + 2]
    }

    /// The measured value at point `r`.
    fn value(&self, r: usize) -> f64 {
        self.row(r)[2 * self.terms + 2]
    }

    /// The model's prediction at row `r`, `c_0 + Σ c_t · product_t`, summed
    /// in [`Model::evaluate`]'s order so it is bitwise the same value.
    fn predict(&self, r: usize, cols: &[usize], coeffs: &[f64]) -> f64 {
        let products = self.products(r);
        coeffs[0]
            + cols
                .iter()
                .zip(&coeffs[1..])
                .map(|(&c, &coefficient)| coefficient * products[c])
                .sum::<f64>()
    }

    /// In-sample SMAPE of the fit `coeffs` over `cols`.
    fn fit_smape(&self, cols: &[usize], coeffs: &[f64]) -> f64 {
        smape_of((0..self.len()).map(|r| (self.value(r), self.predict(r, cols, coeffs))))
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
    fn cross_validate(&self, solver: &mut Solver, cols: &[usize], bound: f64) -> Option<f64> {
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
            let Some(coeffs) = solver.solve(self, cols, Some(hold)) else {
                continue;
            };
            let predicted = self.predict(hold, cols, coeffs);
            if predicted.is_finite() {
                sum += smape_term(self.value(hold), predicted);
                scored += 1;
                if 100.0 * sum / folds as f64 > bound {
                    return None;
                }
            }
        }
        (scored > 0).then(|| 100.0 * sum / scored as f64)
    }
}

/// The buffers of a least-squares solve, reused by every solve of a fit.
#[derive(Default)]
struct Solver {
    /// The gathered system: `A` row-major, then `y`, then the coefficients.
    system: Vec<f64>,
    /// The factorization [`lstsq_into`] works in.
    qr: Vec<f64>,
}

impl Solver {
    /// The coefficients (constant first) fitted to every row of `design`
    /// but `skip` over the term columns `cols`. `None` when there are fewer
    /// rows than coefficients or the system is rank deficient or
    /// non-finite — the caller skips the hypothesis, mirroring Extra-P's
    /// behaviour of dropping degenerate candidates.
    fn solve(&mut self, design: &Design, cols: &[usize], skip: Option<usize>) -> Option<&[f64]> {
        let k = 1 + cols.len();
        let rows = design.len() - usize::from(skip.is_some());
        if rows < k {
            return None;
        }
        let kept = || (0..design.len()).filter(move |&r| Some(r) != skip);
        self.system.clear();
        self.system.reserve(rows * (k + 1) + k);
        for r in kept() {
            let row = design.weighted(r);
            self.system.push(row[0]);
            self.system.extend(cols.iter().map(|&c| row[c + 1]));
        }
        self.system
            .extend(kept().map(|r| design.weighted(r)[design.terms + 1]));
        self.system.resize(rows * (k + 1) + k, 0.0);
        let (a, rest) = self.system.split_at_mut(rows * k);
        let (y, x) = rest.split_at_mut(rows);
        lstsq_into(a, y, x, &mut self.qr).ok()?;
        Some(x)
    }
}

/// Everything the fits of one hypothesis (or of a run of hypotheses) write
/// to: the design, the solver, and the coefficients and term columns of the
/// last fit.
#[derive(Default)]
pub(crate) struct FitScratch {
    design: Design,
    solver: Solver,
    /// The last fit's coefficients, constant first.
    coeffs: Vec<f64>,
    /// The term columns (indices into the hypothesis' terms) the last fit
    /// kept.
    cols: Vec<usize>,
}

impl FitScratch {
    /// Fits every term of `hypothesis` to `points`, unscored and
    /// unconstrained; `false` when the system does not solve.
    fn fit_all(&mut self, hypothesis: &Hypothesis, points: &[(Vec<f64>, f64)]) -> bool {
        self.design.fill(hypothesis, points);
        self.cols.clear();
        self.cols.extend(0..self.design.terms);
        self.refit()
    }

    /// Refits over the term columns `self.cols`.
    fn refit(&mut self) -> bool {
        self.coeffs.clear();
        match self.solver.solve(&self.design, &self.cols, None) {
            Some(coeffs) => {
                self.coeffs.extend_from_slice(coeffs);
                true
            }
            None => false,
        }
    }

    /// In-sample SMAPE of [`fit_coefficients`]' fit, or `None` when it
    /// fails.
    pub(crate) fn fit_smape(
        &mut self,
        hypothesis: &Hypothesis,
        points: &[(Vec<f64>, f64)],
    ) -> Option<f64> {
        self.fit_all(hypothesis, points)
            .then(|| self.design.fit_smape(&self.cols, &self.coeffs))
    }

    /// Fits `hypothesis` to `points` under `constraints` and scores it,
    /// leaving the coefficients and the kept term columns in `self`:
    /// `(fit_smape, cv_smape)`, or `None` where [`fit_hypothesis_constrained`]
    /// fails or once the CV-SMAPE provably exceeds `cv_bound`.
    fn fit(
        &mut self,
        hypothesis: &Hypothesis,
        points: &[(Vec<f64>, f64)],
        constraints: FitConstraints,
        cv_bound: f64,
    ) -> Option<(f64, f64)> {
        if !self.fit_all(hypothesis, points) {
            return None;
        }
        if constraints.prune_relative_threshold > 0.0
            && self.design.terms > 0
            && !self.prune(constraints.prune_relative_threshold)
        {
            return None;
        }
        let FitScratch {
            design,
            solver,
            coeffs,
            cols,
        } = self;

        // Negativity is checked *after* pruning: an exactly-constant function
        // fits a superfluous term's coefficient to ±1e-15, whose sign is noise
        // — pruning removes it, leaving only meaningful coefficients to judge.
        if !constraints.allow_negative_terms && coeffs[1..].iter().any(|&c| c < 0.0) {
            return None;
        }

        let fit_smape = design.fit_smape(cols, coeffs);
        let cv_smape = design.cross_validate(solver, cols, cv_bound)?;
        (fit_smape.is_finite() && cv_smape.is_finite()).then_some((fit_smape, cv_smape))
    }

    /// Prunes terms whose largest contribution over the measured points is
    /// negligible (below `threshold`) relative to the function values, and
    /// refits the reduced structure so the remaining coefficients stay
    /// least-squares optimal; `false` when that refit fails.
    fn prune(&mut self, threshold: f64) -> bool {
        let FitScratch {
            design,
            coeffs,
            cols,
            ..
        } = self;
        let n = design.len();
        let scale = (0..n)
            .map(|r| design.predict(r, cols, coeffs).abs())
            .fold(0.0_f64, f64::max)
            .max(f64::MIN_POSITIVE);
        cols.retain(|&t| {
            let max_contribution = (0..n)
                .map(|r| (coeffs[t + 1] * design.products(r)[t]).abs())
                .fold(0.0_f64, f64::max);
            max_contribution / scale >= threshold
        });
        cols.len() == design.terms || self.refit()
    }

    /// The CV-SMAPE of [`fit_hypothesis`], or `None` when it fails.
    pub(crate) fn cv_smape(
        &mut self,
        hypothesis: &Hypothesis,
        points: &[(Vec<f64>, f64)],
    ) -> Option<f64> {
        self.fit(hypothesis, points, FitConstraints::default(), f64::INFINITY)
            .map(|(_, cv_smape)| cv_smape)
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
    let mut scratch = FitScratch::default();
    scratch
        .fit_all(hypothesis, points)
        .then(|| model_of(hypothesis, &scratch.coeffs))
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
    let mut scratch = FitScratch::default();
    let (fit_smape, cv_smape) = scratch
        .fit(hypothesis, points, constraints, f64::INFINITY)
        .ok_or(ModelError::NoViableHypothesis)?;
    let hypothesis = Hypothesis {
        num_params: hypothesis.num_params,
        terms: scratch
            .cols
            .iter()
            .map(|&c| hypothesis.terms[c].clone())
            .collect(),
    };
    Ok(FittedHypothesis {
        model: model_of(&hypothesis, &scratch.coeffs),
        fit_smape,
        cv_smape,
        hypothesis,
    })
}

/// A candidate a [`Selection`] kept: the hypothesis reduced to the terms
/// its fit kept, its scores, and where its coefficients start.
struct Kept {
    hypothesis: Hypothesis,
    fit_smape: f64,
    cv_smape: f64,
    coeffs_at: usize,
}

/// Fits candidate hypotheses one at a time and picks the winner exactly as
/// [`select_best`] over all of them would, but with bounded
/// cross-validation: a candidate's folds stop once its CV-SMAPE provably
/// exceeds `best + max(tie_tolerance, 0)`, where `best` is the lowest
/// CV-SMAPE fitted so far. Such a candidate is neither the minimum nor
/// within the tie tolerance of it, so `select_best` would filter it out.
///
/// Every fit reuses one [`FitScratch`], and only the winner becomes a
/// [`Model`].
pub(crate) struct Selection<'a> {
    points: &'a [(Vec<f64>, f64)],
    tie_tolerance: f64,
    best_cv: f64,
    scratch: FitScratch,
    kept: Vec<Kept>,
    /// The kept candidates' coefficients, back to back.
    coeffs: Vec<f64>,
}

impl<'a> Selection<'a> {
    /// An empty selection over `points`.
    pub(crate) fn new(points: &'a [(Vec<f64>, f64)], tie_tolerance: f64) -> Self {
        Selection {
            points,
            tie_tolerance,
            best_cv: f64::INFINITY,
            scratch: FitScratch::default(),
            kept: Vec::new(),
            coeffs: Vec::new(),
        }
    }

    /// Fits `hypothesis` with the default [`FitConstraints`] and keeps it
    /// if it can still win.
    pub(crate) fn offer(&mut self, mut hypothesis: Hypothesis) {
        let bound = self.best_cv + self.tie_tolerance.max(0.0);
        let Some((fit_smape, cv_smape)) =
            self.scratch
                .fit(&hypothesis, self.points, FitConstraints::default(), bound)
        else {
            return;
        };
        self.best_cv = self.best_cv.min(cv_smape);
        let cols = &self.scratch.cols;
        let mut term = 0;
        hypothesis.terms.retain(|_| {
            let keep = cols.contains(&term);
            term += 1;
            keep
        });
        self.kept.push(Kept {
            hypothesis,
            fit_smape,
            cv_smape,
            coeffs_at: self.coeffs.len(),
        });
        self.coeffs.extend_from_slice(&self.scratch.coeffs);
    }

    /// The winner, as [`select_best`] picks it.
    pub(crate) fn best(mut self) -> Result<ModelingResult, ModelError> {
        let scores = self.kept.iter().map(|k| (k.cv_smape, &k.hypothesis));
        let winner =
            best_index(scores, self.tie_tolerance).ok_or(ModelError::NoViableHypothesis)?;
        let best = self.kept.swap_remove(winner);
        Ok(ModelingResult {
            model: model_of(&best.hypothesis, &self.coeffs[best.coeffs_at..]),
            cv_smape: best.cv_smape,
            fit_smape: best.fit_smape,
        })
    }
}

/// The index of the candidate [`select_best`] picks among
/// `(cv_smape, hypothesis)` scores.
fn best_index<'h>(
    scores: impl Iterator<Item = (f64, &'h Hypothesis)> + Clone,
    tie_tolerance: f64,
) -> Option<usize> {
    let best_cv = scores
        .clone()
        .map(|(cv, _)| cv)
        .fold(f64::INFINITY, f64::min);
    if !best_cv.is_finite() {
        return None;
    }
    scores
        .enumerate()
        .filter(|(_, (cv, _))| *cv <= best_cv + tie_tolerance)
        .min_by(|(_, (cv_a, a)), (_, (cv_b, b))| {
            a.complexity()
                .partial_cmp(&b.complexity())
                .unwrap_or(Ordering::Equal)
                .then(cv_a.partial_cmp(cv_b).unwrap_or(Ordering::Equal))
        })
        .map(|(i, _)| i)
}

/// Selects the best fitted hypothesis from `candidates` by cross-validation
/// SMAPE, breaking near-ties (within `tie_tolerance` percentage points)
/// toward the structurally simpler hypothesis. [`Selection`] picks the same
/// winner without fitting losing candidates in full.
#[cfg(test)]
pub fn select_best(
    mut candidates: Vec<FittedHypothesis>,
    tie_tolerance: f64,
) -> Option<FittedHypothesis> {
    let scores = candidates.iter().map(|c| (c.cv_smape, &c.hypothesis));
    let winner = best_index(scores, tie_tolerance)?;
    Some(candidates.swap_remove(winner))
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
