//! Bitwise equivalence of the fit engine with a per-fold reference.
//!
//! The reference below is the straightforward formulation of the
//! hypothesis fit: every fit builds its own design matrix from the points,
//! every leave-one-out fold clones the training points and refits from
//! scratch, and every candidate is scored in full before selection. The
//! engine in `fit.rs` evaluates each hypothesis' design once and stops a
//! losing candidate's folds early; the models it selects and their scores
//! must be the same bits.

use crate::fit::{select_best, FitConstraints, FittedHypothesis, MAX_CV_FOLDS, TIE_TOLERANCE};
use crate::multi::set_partitions;
use crate::search::{single_parameter_hypotheses, Hypothesis};
use crate::single::{model_points, validate, SingleParameterOptions};
use crate::{
    combine_candidate_pairs, exponent_set, fit_hypothesis_constrained, smape, Aggregation,
    ExponentPair, MeasurementSet, Model, ModelError, ModelingResult, RegressionModeler, Term,
    TermFactor,
};
use nrpm_linalg::{lstsq, Matrix};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::HashSet;

type Points = [(Vec<f64>, f64)];

// ---------------------------------------------------------------- reference

fn ref_fit_coefficients(hypothesis: &Hypothesis, points: &Points) -> Option<Model> {
    let (n, k) = (points.len(), hypothesis.num_coefficients());
    if n < k {
        return None;
    }
    let mut design = Matrix::zeros(n, k);
    let mut y = Vec::with_capacity(n);
    for (r, (point, value)) in points.iter().enumerate() {
        let row = design.row_mut(r);
        row[0] = 1.0;
        for (t, factors) in hypothesis.terms.iter().enumerate() {
            row[t + 1] = factors.iter().map(|f| f.evaluate(point)).product();
        }
        let weight = if value.abs() > f64::MIN_POSITIVE {
            1.0 / value.abs()
        } else {
            1.0
        };
        for cell in row {
            *cell *= weight;
        }
        y.push(value * weight);
    }
    if !design.all_finite() {
        return None;
    }
    let coeffs = lstsq(&design, &y).ok()?;
    let terms = hypothesis
        .terms
        .iter()
        .zip(&coeffs[1..])
        .map(|(factors, &c)| Term::new(c, factors.clone()))
        .collect();
    Some(Model::new(hypothesis.num_params, coeffs[0], terms))
}

fn ref_cross_validation(hypothesis: &Hypothesis, points: &Points) -> Option<f64> {
    let n = points.len();
    if n < 2 {
        return None;
    }
    let holds: Vec<usize> = if n <= MAX_CV_FOLDS {
        (0..n).collect()
    } else {
        (0..MAX_CV_FOLDS)
            .map(|k| k * (n - 1) / (MAX_CV_FOLDS - 1))
            .collect()
    };
    let (mut actual, mut predicted) = (Vec::new(), Vec::new());
    for &hold in &holds {
        let train: Vec<(Vec<f64>, f64)> = points
            .iter()
            .enumerate()
            .filter(|(i, _)| *i != hold)
            .map(|(_, p)| p.clone())
            .collect();
        if let Some(model) = ref_fit_coefficients(hypothesis, &train) {
            let p = model.evaluate(&points[hold].0);
            if p.is_finite() {
                actual.push(points[hold].1);
                predicted.push(p);
            }
        }
    }
    (!actual.is_empty()).then(|| smape(&actual, &predicted))
}

fn ref_fit(
    hypothesis: &Hypothesis,
    points: &Points,
    constraints: FitConstraints,
) -> Result<FittedHypothesis, ModelError> {
    let raw = ref_fit_coefficients(hypothesis, points).ok_or(ModelError::NoViableHypothesis)?;
    let (hypothesis, model) = if constraints.prune_relative_threshold > 0.0 && !raw.terms.is_empty()
    {
        let scale = points
            .iter()
            .map(|(p, _)| raw.evaluate(p).abs())
            .fold(0.0_f64, f64::max)
            .max(f64::MIN_POSITIVE);
        let keep: Vec<bool> = raw
            .terms
            .iter()
            .map(|t| {
                let max = points
                    .iter()
                    .map(|(p, _)| t.evaluate(p).abs())
                    .fold(0.0_f64, f64::max);
                max / scale >= constraints.prune_relative_threshold
            })
            .collect();
        if keep.iter().all(|&k| k) {
            (hypothesis.clone(), raw)
        } else {
            let reduced = Hypothesis {
                num_params: hypothesis.num_params,
                terms: (hypothesis.terms.iter().zip(&keep))
                    .filter(|(_, &k)| k)
                    .map(|(t, _)| t.clone())
                    .collect(),
            };
            let model =
                ref_fit_coefficients(&reduced, points).ok_or(ModelError::NoViableHypothesis)?;
            (reduced, model)
        }
    } else {
        (hypothesis.clone(), raw)
    };
    if !constraints.allow_negative_terms && model.terms.iter().any(|t| t.coefficient < 0.0) {
        return Err(ModelError::NoViableHypothesis);
    }
    let actual: Vec<f64> = points.iter().map(|(_, v)| *v).collect();
    let predicted: Vec<f64> = points.iter().map(|(p, _)| model.evaluate(p)).collect();
    let fit_smape = smape(&actual, &predicted);
    let cv_smape =
        ref_cross_validation(&hypothesis, points).ok_or(ModelError::NoViableHypothesis)?;
    if !fit_smape.is_finite() || !cv_smape.is_finite() {
        return Err(ModelError::NoViableHypothesis);
    }
    Ok(FittedHypothesis {
        model,
        fit_smape,
        cv_smape,
        hypothesis,
    })
}

/// Fits every hypothesis in full and selects, without any bound.
fn ref_select(
    hypotheses: &[Hypothesis],
    points: &Points,
    tie_tolerance: f64,
) -> Result<ModelingResult, ModelError> {
    let candidates = hypotheses
        .iter()
        .filter_map(|h| ref_fit(h, points, FitConstraints::default()).ok())
        .collect();
    let best = select_best(candidates, tie_tolerance).ok_or(ModelError::NoViableHypothesis)?;
    Ok(ModelingResult {
        model: best.model,
        cv_smape: best.cv_smape,
        fit_smape: best.fit_smape,
    })
}

fn ref_partition_hypothesis(partition: &[Vec<usize>], pairs: &[ExponentPair]) -> Hypothesis {
    let mut terms = Vec::new();
    for group in partition {
        let factors: Vec<TermFactor> = group
            .iter()
            .filter(|&&l| !pairs[l].is_constant())
            .map(|&l| TermFactor::new(l, pairs[l]))
            .collect();
        if !factors.is_empty() {
            terms.push(factors);
        }
    }
    Hypothesis {
        num_params: pairs.len(),
        terms,
    }
}

fn ref_combine(
    set: &MeasurementSet,
    per_param: &[Vec<ExponentPair>],
    tie_tolerance: f64,
) -> Result<ModelingResult, ModelError> {
    let m = set.num_params();
    let mut seen = HashSet::new();
    let mut hypotheses = vec![Hypothesis::constant(m)];
    seen.insert(hypotheses[0].structure_key());
    let mut assignment = vec![0usize; m];
    'product: loop {
        let pairs: Vec<ExponentPair> = (0..m).map(|l| per_param[l][assignment[l]]).collect();
        for partition in set_partitions(m) {
            let hyp = ref_partition_hypothesis(&partition, &pairs);
            if seen.insert(hyp.structure_key()) {
                hypotheses.push(hyp);
            }
        }
        for l in 0..m {
            assignment[l] += 1;
            if assignment[l] < per_param[l].len() {
                continue 'product;
            }
            assignment[l] = 0;
        }
        break;
    }
    ref_select(
        &hypotheses,
        &set.aggregated(Aggregation::Median),
        tie_tolerance,
    )
}

fn ref_rank(line: &[(f64, f64)], k: usize) -> Vec<ExponentPair> {
    let tuples: Vec<(Vec<f64>, f64)> = line.iter().map(|&(x, y)| (vec![x], y)).collect();
    let mut scored: Vec<(f64, ExponentPair, (usize, f64))> = single_parameter_hypotheses()
        .iter()
        .filter_map(|h| {
            let fitted = ref_fit(h, &tuples, FitConstraints::default()).ok()?;
            let pair = h
                .terms
                .first()
                .map_or(ExponentPair::CONSTANT, |fs| fs[0].exponents);
            Some((fitted.cv_smape, pair, h.complexity()))
        })
        .collect();
    scored.sort_by(|a, b| (a.0.partial_cmp(&b.0).unwrap()).then(a.2.partial_cmp(&b.2).unwrap()));
    scored.into_iter().take(k).map(|(_, p, _)| p).collect()
}

fn ref_refine(points: &Points, initial: &[ExponentPair], rounds: usize) -> Vec<ExponentPair> {
    let m = initial.len();
    let actual: Vec<f64> = points.iter().map(|(_, v)| *v).collect();
    let score_of = |pairs: &[ExponentPair]| -> f64 {
        let mut best = f64::INFINITY;
        for partition in set_partitions(m) {
            let hyp = ref_partition_hypothesis(&partition, pairs);
            if let Some(model) = ref_fit_coefficients(&hyp, points) {
                let predicted: Vec<f64> = points.iter().map(|(p, _)| model.evaluate(p)).collect();
                let s = smape(&actual, &predicted);
                if s < best {
                    best = s;
                }
            }
        }
        best
    };
    let mut current = initial.to_vec();
    let mut current_score = score_of(&current);
    for _ in 0..rounds {
        let mut improved = false;
        for l in 0..m {
            let (mut best_pair, mut best_score) = (current[l], current_score);
            for &candidate in exponent_set().pairs() {
                if candidate == current[l] {
                    continue;
                }
                let mut pairs = current.clone();
                pairs[l] = candidate;
                let s = score_of(&pairs);
                if s < best_score {
                    (best_pair, best_score) = (candidate, s);
                }
            }
            if best_pair != current[l] {
                (current[l], current_score, improved) = (best_pair, best_score, true);
            }
        }
        if !improved {
            break;
        }
    }
    current
}

/// The default [`RegressionModeler`], built on the reference fit.
fn ref_regression(set: &MeasurementSet) -> Result<ModelingResult, ModelError> {
    validate(set)?;
    if set.num_params() == 1 {
        return ref_model_points(&set.line(0, Aggregation::Median), TIE_TOLERANCE);
    }
    let mut per_param: Vec<Vec<ExponentPair>> = (0..set.num_params())
        .map(|l| ref_rank(&set.line(l, Aggregation::Median), 3))
        .collect();
    let initial: Vec<ExponentPair> = per_param.iter().map(|c| c[0]).collect();
    let refined = ref_refine(&set.aggregated(Aggregation::Median), &initial, 2);
    for (l, pair) in refined.into_iter().enumerate() {
        if !per_param[l].contains(&pair) {
            per_param[l].insert(0, pair);
        }
    }
    ref_combine(set, &per_param, TIE_TOLERANCE)
}

fn ref_model_points(
    points: &[(f64, f64)],
    tie_tolerance: f64,
) -> Result<ModelingResult, ModelError> {
    let tuples: Vec<(Vec<f64>, f64)> = points.iter().map(|&(x, y)| (vec![x], y)).collect();
    ref_select(&single_parameter_hypotheses(), &tuples, tie_tolerance)
}

// ------------------------------------------------------------------ corpus

/// A seeded PMNF task: `m` parameters on a `points^m` grid, one random
/// canonical pair per parameter combined additively or multiplicatively,
/// multiplicative uniform noise of `±noise/2`.
fn task(rng: &mut StdRng, m: usize, points: usize, noise: f64) -> MeasurementSet {
    let pairs: Vec<ExponentPair> = (0..m)
        .map(|_| exponent_set().pairs()[rng.gen_range(0..exponent_set().pairs().len())])
        .collect();
    let coeffs: Vec<f64> = (0..=m).map(|_| rng.gen_range(0.1..100.0)).collect();
    let multiplicative = rng.gen_bool(0.5);
    let axes: Vec<Vec<f64>> = (0..m)
        .map(|_| {
            let start: f64 = rng.gen_range(1.0..16.0);
            let step = rng.gen_range(1.5..4.0);
            (0..points)
                .map(|i| start * f64::powi(step, i as i32))
                .collect()
        })
        .collect();
    let mut set = MeasurementSet::new(m);
    for flat in 0..points.pow(m as u32) {
        let point: Vec<f64> = (0..m)
            .map(|l| axes[l][flat / points.pow(l as u32) % points])
            .collect();
        let factors = (0..m).map(|l| pairs[l].evaluate(point[l]));
        let clean = if multiplicative {
            coeffs[0] + coeffs[1] * factors.product::<f64>()
        } else {
            coeffs[0] + factors.zip(&coeffs[1..]).map(|(f, c)| c * f).sum::<f64>()
        };
        let reps: Vec<f64> = (0..3)
            .map(|_| clean * (1.0 + noise * rng.gen_range(-0.5..0.5)))
            .collect();
        set.add_repetitions(&point, &reps);
    }
    set
}

fn corpus() -> Vec<MeasurementSet> {
    let mut rng = StdRng::seed_from_u64(14);
    let mut sets = Vec::new();
    for (m, points, count) in [(1, 5, 12), (1, 7, 6), (2, 5, 8), (3, 5, 2)] {
        for i in 0..count {
            let noise = i as f64 / (count - 1).max(1) as f64;
            sets.push(task(&mut rng, m, points, noise));
        }
    }
    sets
}

// ------------------------------------------------------------------ checks

fn assert_same_result(
    engine: Result<ModelingResult, ModelError>,
    reference: Result<ModelingResult, ModelError>,
    what: &str,
) {
    match (engine, reference) {
        (Ok(e), Ok(r)) => {
            assert_eq!(format!("{:?}", e.model), format!("{:?}", r.model), "{what}");
            assert_eq!(e.cv_smape.to_bits(), r.cv_smape.to_bits(), "{what}: cv");
            assert_eq!(e.fit_smape.to_bits(), r.fit_smape.to_bits(), "{what}: fit");
        }
        (Err(e), Err(r)) => assert_eq!(e, r, "{what}"),
        (e, r) => panic!("{what}: engine {e:?} vs reference {r:?}"),
    }
}

fn assert_same_fit(hypothesis: &Hypothesis, points: &Points, constraints: FitConstraints) {
    let as_result = |f: Result<FittedHypothesis, ModelError>| {
        f.map(|f| ModelingResult {
            model: f.model,
            cv_smape: f.cv_smape,
            fit_smape: f.fit_smape,
        })
    };
    assert_same_result(
        as_result(fit_hypothesis_constrained(hypothesis, points, constraints)),
        as_result(ref_fit(hypothesis, points, constraints)),
        &format!("fit of {}", hypothesis.structure_key()),
    );
}

/// For m = 1 every single-parameter hypothesis; otherwise every partition
/// structure of the per-line ranking winners.
fn hypotheses_of(set: &MeasurementSet) -> Vec<Hypothesis> {
    let m = set.num_params();
    if m == 1 {
        return single_parameter_hypotheses();
    }
    let pairs: Vec<ExponentPair> = (0..m)
        .map(|l| ref_rank(&set.line(l, Aggregation::Median), 1)[0])
        .collect();
    set_partitions(m)
        .iter()
        .map(|p| ref_partition_hypothesis(p, &pairs))
        .collect()
}

#[test]
fn fits_match_the_reference_bitwise() {
    let mut subsampled = 0;
    for set in corpus() {
        let points = set.aggregated(Aggregation::Median);
        subsampled += usize::from(points.len() > MAX_CV_FOLDS);
        for hypothesis in hypotheses_of(&set) {
            assert_same_fit(&hypothesis, &points, FitConstraints::default());
            assert_same_fit(&hypothesis, &points, FitConstraints::unconstrained());
        }
    }
    assert!(
        subsampled > 0,
        "the 125-point grids cover the subsampled folds"
    );
}

#[test]
fn selections_match_the_reference_bitwise() {
    let opts = SingleParameterOptions::default();
    for (i, set) in corpus().iter().enumerate() {
        let what = format!("task {i} (m = {})", set.num_params());
        assert_same_result(
            RegressionModeler::default().model(set),
            ref_regression(set),
            &format!("{what}: regression"),
        );
        for l in 0..set.num_params() {
            let line = set.line(l, Aggregation::Median);
            for tie_tolerance in [TIE_TOLERANCE, 0.5, -1e-3] {
                assert_same_result(
                    model_points(&line, &opts, tie_tolerance),
                    ref_model_points(&line, tie_tolerance),
                    &format!("{what}: line {l}, tolerance {tie_tolerance}"),
                );
            }
        }
        if set.num_params() > 1 {
            let per_param: Vec<Vec<ExponentPair>> = (0..set.num_params())
                .map(|l| ref_rank(&set.line(l, Aggregation::Median), 3))
                .collect();
            for tie_tolerance in [1e-6, 0.5, -1e-3] {
                assert_same_result(
                    combine_candidate_pairs(set, &per_param, Aggregation::Median, tie_tolerance),
                    ref_combine(set, &per_param, tie_tolerance),
                    &format!("{what}: combine, tolerance {tie_tolerance}"),
                );
            }
        }
    }
}

#[test]
fn edge_cases_match_the_reference_bitwise() {
    let line = |xs: &[f64], f: &dyn Fn(f64) -> f64| -> Vec<(Vec<f64>, f64)> {
        xs.iter().map(|&x| (vec![x], f(x))).collect()
    };
    let xs = [2.0, 4.0, 8.0, 16.0, 32.0, 64.0];
    let cases: Vec<Vec<(Vec<f64>, f64)>> = vec![
        // A zero-valued point takes the weight-1 branch.
        line(&xs, &|x| if x == 8.0 { 0.0 } else { 3.0 + x }),
        // Rank deficient: every x equal.
        line(&[4.0; 6], &|x| x),
        // Rank deficient only in the folds that hold out the lone x = 8.
        line(&[2.0, 2.0, 2.0, 8.0, 2.0], &|x| 1.0 + x),
        // Decreasing data: negative coefficients, kept when unconstrained.
        line(&xs, &|x| 100.0 - 2.0 * x),
        // Constant data: superfluous terms are pruned.
        line(&xs, &|_| 541.2),
        // Two points: the full fit works, no fold does.
        line(&[2.0, 4.0], &|x| x),
    ];
    for points in &cases {
        for hypothesis in single_parameter_hypotheses() {
            assert_same_fit(&hypothesis, points, FitConstraints::default());
            assert_same_fit(&hypothesis, points, FitConstraints::unconstrained());
        }
        let pairs: Vec<(f64, f64)> = points.iter().map(|(p, y)| (p[0], *y)).collect();
        let opts = SingleParameterOptions {
            min_points: 1,
            ..Default::default()
        };
        for tie_tolerance in [1e-6, -1e-3] {
            assert_same_result(
                model_points(&pairs, &opts, tie_tolerance),
                ref_model_points(&pairs, tie_tolerance),
                &format!("edge case {pairs:?}, tolerance {tie_tolerance}"),
            );
        }
    }
}
