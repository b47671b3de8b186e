//! The AdaMax optimizer.
//!
//! The paper trains its network with **AdaMax** (Kingma & Ba, 2015, Sec. 7):
//! the infinity-norm variant of Adam, whose update
//! `θ ← θ − (α / (1 − β₁ᵗ)) · m / u` with `u = max(β₂·u, |g|)` is less
//! sensitive to gradient-scale outliers — a good match for loss surfaces
//! induced by noisy synthetic training data.

/// First-moment decay β₁ (Kingma & Ba's default).
const BETA1: f64 = 0.9;
/// Infinity-norm decay β₂ (Kingma & Ba's default).
const BETA2: f64 = 0.999;

/// The optimizer and its one tunable hyperparameter.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum OptimizerKind {
    /// AdaMax — the paper's optimizer, with β₁ = 0.9 and β₂ = 0.999.
    AdaMax {
        /// Learning rate α.
        learning_rate: f64,
    },
}

impl Default for OptimizerKind {
    /// AdaMax at α = 0.01, tuned for the compact network and the
    /// smaller-than-paper training budgets of the harness.
    fn default() -> Self {
        OptimizerKind::AdaMax {
            learning_rate: 0.01,
        }
    }
}

/// Per-tensor optimizer state.
#[derive(Debug, Clone, Default)]
struct TensorState {
    /// First moment.
    m: Vec<f64>,
    /// Infinity norm.
    u: Vec<f64>,
}

/// Stateful optimizer driving updates for a fixed set of parameter tensors.
///
/// Tensors are identified by their registration order: call
/// [`Optimizer::step`] with the same `tensor_id` for the same tensor on
/// every iteration.
#[derive(Debug, Clone)]
pub(crate) struct Optimizer {
    learning_rate: f64,
    states: Vec<TensorState>,
    /// Global step count `t`, shared by all tensors (incremented by
    /// [`Optimizer::next_step`]).
    t: u64,
}

impl Optimizer {
    /// Creates an optimizer managing `num_tensors` parameter tensors.
    pub(crate) fn new(kind: OptimizerKind, num_tensors: usize) -> Self {
        let OptimizerKind::AdaMax { learning_rate } = kind;
        Optimizer {
            learning_rate,
            states: vec![TensorState::default(); num_tensors],
            t: 0,
        }
    }

    /// Advances the global step counter. Call once per mini-batch, before
    /// the per-tensor [`step`](Self::step) calls.
    pub(crate) fn next_step(&mut self) {
        self.t += 1;
    }

    /// Applies one update to `params` given `grads`.
    ///
    /// # Panics
    /// Panics if `params` and `grads` differ in length or `tensor_id` is out
    /// of range.
    pub(crate) fn step(&mut self, tensor_id: usize, params: &mut [f64], grads: &[f64]) {
        assert_eq!(params.len(), grads.len(), "params/grads length mismatch");
        let state = &mut self.states[tensor_id];
        if state.m.len() != params.len() {
            state.m = vec![0.0; params.len()];
            state.u = vec![0.0; params.len()];
        }
        let t = self.t.max(1);
        let bc1 = 1.0 - BETA1.powi(t as i32);
        let step = self.learning_rate / bc1;
        for (((p, &g), m), u) in params
            .iter_mut()
            .zip(grads)
            .zip(state.m.iter_mut())
            .zip(state.u.iter_mut())
        {
            *m = BETA1 * *m + (1.0 - BETA1) * g;
            *u = (BETA2 * *u).max(g.abs());
            if *u > 0.0 {
                *p -= step * *m / *u;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn adamax(learning_rate: f64) -> OptimizerKind {
        OptimizerKind::AdaMax { learning_rate }
    }

    /// Minimizes f(x) = (x - target)² with gradient 2(x - target).
    fn minimize(kind: OptimizerKind, start: f64, target: f64, iters: usize) -> f64 {
        let mut opt = Optimizer::new(kind, 1);
        let mut x = [start];
        for _ in 0..iters {
            opt.next_step();
            let g = [2.0 * (x[0] - target)];
            opt.step(0, &mut x, &g);
        }
        x[0]
    }

    #[test]
    fn adamax_converges_on_quadratic() {
        let x = minimize(adamax(0.002), 10.0, 3.0, 5000);
        assert!((x - 3.0).abs() < 1e-3, "x = {x}");
    }

    #[test]
    fn adamax_first_step_moves_by_learning_rate_magnitude() {
        // With bias correction, the very first AdaMax step is exactly
        // lr * sign(g) when m/u = (1-β1)g / |g| / (1-β1).
        let mut opt = Optimizer::new(adamax(0.002), 1);
        opt.next_step();
        let mut x = [1.0];
        opt.step(0, &mut x, &[5.0]);
        assert!((x[0] - (1.0 - 0.002)).abs() < 1e-12, "x = {}", x[0]);
    }

    #[test]
    fn adamax_is_scale_invariant_on_first_step() {
        // The infinity-norm normalization makes the first step independent
        // of the gradient's magnitude.
        for g in [1e-6, 1.0, 1e6] {
            let mut opt = Optimizer::new(OptimizerKind::default(), 1);
            opt.next_step();
            let mut x = [0.0];
            opt.step(0, &mut x, &[g]);
            assert!((x[0] + 0.01).abs() < 1e-12, "g = {g}, x = {}", x[0]);
        }
    }

    #[test]
    fn zero_gradient_is_a_fixed_point() {
        let mut opt = Optimizer::new(OptimizerKind::default(), 1);
        opt.next_step();
        let mut x = [7.0];
        opt.step(0, &mut x, &[0.0]);
        assert_eq!(x[0], 7.0);
    }

    #[test]
    fn separate_tensors_have_separate_state() {
        let mut opt = Optimizer::new(OptimizerKind::default(), 2);
        opt.next_step();
        let mut a = [0.0];
        let mut b = [0.0];
        opt.step(0, &mut a, &[1.0]);
        opt.step(1, &mut b, &[-1.0]);
        assert!(a[0] < 0.0 && b[0] > 0.0);
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn mismatched_grads_panic() {
        let mut opt = Optimizer::new(OptimizerKind::default(), 1);
        let mut x = [0.0, 0.0];
        opt.step(0, &mut x, &[1.0]);
    }
}
