//! Hypothesis search spaces.
//!
//! A *hypothesis* is the structural half of a candidate model — which terms
//! with which exponents — before the coefficients are known. Extra-P
//! instantiates the PMNF with every exponent combination from the canonical
//! set *E* and lets cross-validation pick the winner.

use crate::{exponent_set, ExponentPair, TermFactor};

/// The structural skeleton of a candidate model: one factor list per term.
/// Coefficients (including the constant `c_0`) are supplied later by the
/// least-squares fit.
#[derive(Debug, Clone, PartialEq)]
pub struct Hypothesis {
    /// Number of parameters of the eventual model.
    pub num_params: usize,
    /// One entry per non-constant term: the term's factors.
    pub terms: Vec<Vec<TermFactor>>,
}

impl Hypothesis {
    /// The constant hypothesis `f(x) = c_0`.
    pub fn constant(num_params: usize) -> Self {
        Hypothesis {
            num_params,
            terms: Vec::new(),
        }
    }

    /// A single-parameter, single-term hypothesis
    /// `f(x) = c_0 + c_1 · x^i · log2^j(x)`.
    pub fn single(pair: ExponentPair) -> Self {
        Hypothesis {
            num_params: 1,
            terms: vec![vec![TermFactor::new(0, pair)]],
        }
    }

    /// Total number of coefficients (constant + one per term).
    pub fn num_coefficients(&self) -> usize {
        1 + self.terms.len()
    }

    /// A canonical key identifying the structure: two hypotheses share it
    /// exactly when they have the same terms, in any order.
    pub fn structure_key(&self) -> String {
        let mut term_keys: Vec<String> = self
            .terms
            .iter()
            .map(|factors| {
                let mut fs: Vec<String> = factors
                    .iter()
                    .filter(|f| !f.exponents.is_constant())
                    .map(|f| {
                        format!(
                            "p{}e{}/{}l{}",
                            f.param,
                            f.exponents.poly.num(),
                            f.exponents.poly.den(),
                            f.exponents.log
                        )
                    })
                    .collect();
                fs.sort();
                fs.join("*")
            })
            .filter(|k| !k.is_empty())
            .collect();
        term_keys.sort();
        term_keys.join("+")
    }

    /// Complexity measure used to break cross-validation ties toward the
    /// simplest explanation: number of terms, then total factor growth.
    pub fn complexity(&self) -> (usize, f64) {
        let growth: f64 = self
            .terms
            .iter()
            .flat_map(|fs| fs.iter())
            .map(|f| f.exponents.poly.to_f64() + 0.25 * f.exponents.log as f64)
            .sum();
        (self.terms.len(), growth)
    }
}

/// All 43 single-parameter hypotheses from the canonical exponent set,
/// ordered by ascending growth (so ties resolve toward simpler models).
///
/// The `(0, 0)` member of *E* yields the constant hypothesis.
pub fn single_parameter_hypotheses() -> Vec<Hypothesis> {
    exponent_set()
        .pairs()
        .iter()
        .map(|&pair| {
            if pair.is_constant() {
                Hypothesis::constant(1)
            } else {
                Hypothesis::single(pair)
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::NUM_CLASSES;

    #[test]
    fn search_space_has_one_hypothesis_per_class() {
        let hyps = single_parameter_hypotheses();
        assert_eq!(hyps.len(), NUM_CLASSES);
        // Exactly one constant hypothesis.
        assert_eq!(hyps.iter().filter(|h| h.terms.is_empty()).count(), 1);
        // It comes first (ascending growth order).
        assert!(hyps[0].terms.is_empty());
    }

    #[test]
    fn coefficients_count_constant_plus_terms() {
        assert_eq!(Hypothesis::constant(1).num_coefficients(), 1);
        assert_eq!(
            Hypothesis::single(ExponentPair::from_parts(1, 2, 1)).num_coefficients(),
            2
        );
    }

    #[test]
    fn structure_keys_identify_identical_structures() {
        let a = Hypothesis::single(ExponentPair::from_parts(1, 2, 0));
        let b = Hypothesis::single(ExponentPair::from_parts(1, 2, 0));
        let c = Hypothesis::single(ExponentPair::from_parts(1, 3, 0));
        assert_eq!(a.structure_key(), b.structure_key());
        assert_ne!(a.structure_key(), c.structure_key());
        assert_eq!(Hypothesis::constant(1).structure_key(), "");
    }

    #[test]
    fn structure_key_is_order_invariant() {
        let f1 = TermFactor::new(0, ExponentPair::from_parts(1, 1, 0));
        let f2 = TermFactor::new(1, ExponentPair::from_parts(1, 2, 1));
        let a = Hypothesis {
            num_params: 2,
            terms: vec![vec![f1, f2]],
        };
        let b = Hypothesis {
            num_params: 2,
            terms: vec![vec![f2, f1]],
        };
        assert_eq!(a.structure_key(), b.structure_key());
    }

    #[test]
    fn complexity_orders_simple_before_elaborate() {
        let constant = Hypothesis::constant(1);
        let linear = Hypothesis::single(ExponentPair::from_parts(1, 1, 0));
        let loglinear = Hypothesis::single(ExponentPair::from_parts(1, 1, 1));
        assert!(constant.complexity() < linear.complexity());
        assert!(linear.complexity() < loglinear.complexity());
    }
}
