//! Loss functions: softmax cross-entropy and mean squared error.

use crate::graph::{BackwardOp, Ctx, Var};
use crate::Graph;
use lcasgd_tensor::Tensor;

/// Mean softmax cross-entropy over the batch. Saves the softmax
/// probabilities; `dx = (p − onehot)/batch · dL`.
struct CrossEntropyBack {
    x: Var,
    labels: Vec<usize>,
    probs: Tensor,
}
impl BackwardOp for CrossEntropyBack {
    fn backward(&self, ctx: &mut Ctx<'_>) {
        let scale = ctx.grad.item() / self.labels.len() as f32;
        let mut gx = self.probs.clone();
        let n = gx.dims()[1];
        for (r, &label) in self.labels.iter().enumerate() {
            gx.data_mut()[r * n + label] -= 1.0;
        }
        gx.scale_inplace(scale);
        ctx.accumulate(self.x, gx);
    }
}

/// Mean squared error against a constant target;
/// `dx = 2(x − target)/numel · dL`.
struct MseBack {
    x: Var,
    target: Tensor,
}
impl BackwardOp for MseBack {
    fn backward(&self, ctx: &mut Ctx<'_>) {
        let scale = 2.0 * ctx.grad.item() / self.target.numel() as f32;
        let gx = ctx.value(self.x).sub(&self.target).scale(scale);
        ctx.accumulate(self.x, gx);
    }
}

/// Numerically stable row-wise softmax of a `[b, n]` logit matrix.
pub fn softmax_rows(logits: &Tensor) -> Tensor {
    assert_eq!(logits.shape().rank(), 2, "softmax_rows expects rank 2");
    let n = logits.dims()[1];
    let mut out = logits.clone();
    for row in out.data_mut().chunks_exact_mut(n) {
        let max = row.iter().copied().fold(f32::NEG_INFINITY, f32::max);
        let mut denom = 0.0f32;
        for x in row.iter_mut() {
            *x = (*x - max).exp();
            denom += *x;
        }
        for x in row.iter_mut() {
            *x /= denom;
        }
    }
    out
}

/// Mean softmax cross-entropy of logits `[b, n]` against integer class
/// labels, with the softmax probabilities it was computed from: the value
/// of [`Graph::softmax_cross_entropy`].
pub fn softmax_cross_entropy_value(logits: &Tensor, labels: &[usize]) -> (f32, Tensor) {
    assert_eq!(logits.dims()[0], labels.len(), "label count mismatch");
    let n = logits.dims()[1];
    let probs = softmax_rows(logits);
    let mut loss = 0.0f64;
    for (r, &label) in labels.iter().enumerate() {
        assert!(label < n, "label {label} out of {n} classes");
        loss -= (probs.data()[r * n + label].max(1e-12) as f64).ln();
    }
    ((loss / labels.len() as f64) as f32, probs)
}

impl Graph {
    /// Mean softmax cross-entropy of logits `[b, n]` against integer class
    /// labels. Returns a scalar node. This is the `ℓ(f_w(x), y)` of the
    /// paper's Formula 4.
    pub fn softmax_cross_entropy(&mut self, x: Var, labels: &[usize]) -> Var {
        let (loss, probs) = softmax_cross_entropy_value(self.value(x), labels);
        let back = CrossEntropyBack { x, labels: labels.to_vec(), probs };
        self.push(Tensor::scalar(loss), Some(Box::new(back)))
    }

    /// Mean squared error of `x` against a constant `target` of the same
    /// shape. Scalar node. Used to train the LSTM loss/step predictors.
    pub fn mse(&mut self, x: Var, target: Tensor) -> Var {
        let xt = self.value(x);
        assert_eq!(xt.shape(), target.shape(), "mse shape mismatch");
        let diff = xt.sub(&target);
        let v = Tensor::scalar(diff.square().mean());
        self.push(v, Some(Box::new(MseBack { x, target })))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn softmax_rows_sum_to_one() {
        let logits = Tensor::from_vec(vec![1., 2., 3., -1., 0., 1.], &[2, 3]);
        let p = softmax_rows(&logits);
        for row in p.data().chunks_exact(3) {
            let s: f32 = row.iter().sum();
            assert!((s - 1.0).abs() < 1e-6);
            assert!(row.iter().all(|&x| x > 0.0));
        }
    }

    #[test]
    fn softmax_is_shift_invariant() {
        let a = Tensor::from_vec(vec![1., 2., 3.], &[1, 3]);
        let b = a.add_scalar(100.0);
        lcasgd_tensor::assert_close(&softmax_rows(&a), &softmax_rows(&b), 1e-5);
    }

    #[test]
    fn uniform_logits_give_log_n_loss() {
        let mut g = Graph::new();
        let x = g.leaf(Tensor::zeros(&[4, 10]));
        let l = g.softmax_cross_entropy(x, &[0, 3, 5, 9]);
        assert!((g.value(l).item() - (10.0f32).ln()).abs() < 1e-5);
    }

    #[test]
    fn cross_entropy_grad_is_probs_minus_onehot() {
        let mut g = Graph::new();
        let x = g.leaf(Tensor::zeros(&[1, 4]));
        let l = g.softmax_cross_entropy(x, &[2]);
        g.backward(l);
        let gx = g.grad(x).unwrap();
        // uniform probs = 0.25, minus one-hot at 2
        lcasgd_tensor::assert_close(
            gx,
            &Tensor::from_vec(vec![0.25, 0.25, -0.75, 0.25], &[1, 4]),
            1e-5,
        );
    }

    #[test]
    fn perfect_prediction_has_small_loss_and_grad() {
        let mut g = Graph::new();
        let x = g.leaf(Tensor::from_vec(vec![20., 0., 0.], &[1, 3]));
        let l = g.softmax_cross_entropy(x, &[0]);
        g.backward(l);
        assert!(g.value(l).item() < 1e-6);
        assert!(g.grad(x).unwrap().norm() < 1e-6);
    }

    #[test]
    fn mse_value_and_grad() {
        let mut g = Graph::new();
        let x = g.leaf(Tensor::from_vec(vec![1., 3.], &[2]));
        let l = g.mse(x, Tensor::from_vec(vec![0., 1.], &[2]));
        g.backward(l);
        // mse = (1 + 4)/2 = 2.5 ; grad = 2(x-t)/2 = (1, 2)
        assert!((g.value(l).item() - 2.5).abs() < 1e-6);
        assert_eq!(g.grad(x).unwrap().data(), &[1., 2.]);
    }

    #[test]
    fn ce_loss_decreases_under_gradient_step() {
        // One manual SGD step on the logits must reduce the loss.
        let logits = Tensor::from_vec(vec![0.5, -0.2, 0.1, 0.7], &[1, 4]);
        let labels = [1usize];
        let mut g = Graph::new();
        let x = g.leaf(logits.clone());
        let l = g.softmax_cross_entropy(x, &labels);
        g.backward(l);
        let before = g.value(l).item();
        let mut stepped = logits.clone();
        stepped.add_assign_scaled(g.grad(x).unwrap(), -0.5);
        let mut g2 = Graph::new();
        let x2 = g2.leaf(stepped);
        let l2 = g2.softmax_cross_entropy(x2, &labels);
        assert!(g2.value(l2).item() < before);
    }
}
