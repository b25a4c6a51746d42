//! Differentiable 2-D convolution over the direct conv kernels.
//!
//! Neither pass materializes the im2col matrix: the backward pass calls the
//! dedicated `conv2d_dw`/`conv2d_dx` kernels on the saved input and weight,
//! and skips `conv2d_dx` when the input is a constant (a network's input
//! batch).

use crate::graph::{BackwardOp, Ctx, Var};
use crate::Graph;
use lcasgd_tensor::ops::conv::{conv2d, conv2d_dw, conv2d_dx, Conv2dSpec};

struct Conv2dBack {
    x: Var,
    w: Var,
    spec: Conv2dSpec,
    in_h: usize,
    in_w: usize,
}
impl BackwardOp for Conv2dBack {
    fn backward(&self, ctx: &mut Ctx<'_>) {
        let dw = conv2d_dw(ctx.grad, ctx.value(self.x), &self.spec);
        ctx.accumulate(self.w, dw);
        if ctx.needs_grad(self.x) {
            let dx = conv2d_dx(ctx.grad, ctx.value(self.w), &self.spec, self.in_h, self.in_w);
            ctx.accumulate(self.x, dx);
        }
    }
}

impl Graph {
    /// 2-D convolution: `x: [n, cin, h, w]`, `w: [cout, cin, k, k]`.
    /// Bias-free (ResNet convs carry no bias; BatchNorm provides the shift).
    pub fn conv2d(&mut self, x: Var, w: Var, spec: Conv2dSpec) -> Var {
        let xt = self.value(x);
        let (in_h, in_w) = (xt.dims()[2], xt.dims()[3]);
        let y = conv2d(xt, self.value(w), &spec);
        self.push(y, Some(Box::new(Conv2dBack { x, w, spec, in_h, in_w })))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lcasgd_tensor::{assert_close, Rng, Tensor};

    #[test]
    fn conv_forward_matches_tensor_kernel() {
        let mut rng = Rng::seed_from_u64(42);
        let spec = Conv2dSpec { in_channels: 2, out_channels: 3, kernel: 3, stride: 1, padding: 1 };
        let xt = Tensor::randn(&[2, 2, 5, 5], 1.0, &mut rng);
        let wt = Tensor::randn(&[3, 2, 3, 3], 0.5, &mut rng);
        let mut g = Graph::new();
        let x = g.leaf(xt.clone());
        let w = g.leaf(wt.clone());
        let y = g.conv2d(x, w, spec);
        assert_close(g.value(y), &conv2d(&xt, &wt, &spec), 1e-5);
    }

    #[test]
    fn conv_weight_grad_via_sum_equals_input_patch_sums() {
        // With dY = 1 everywhere, dW[co, ci, ky, kx] = sum over all output
        // positions of the input pixel under (ky, kx) — equal for all co.
        let mut rng = Rng::seed_from_u64(43);
        let spec = Conv2dSpec { in_channels: 1, out_channels: 2, kernel: 1, stride: 1, padding: 0 };
        let xt = Tensor::randn(&[1, 1, 3, 3], 1.0, &mut rng);
        let wt = Tensor::randn(&[2, 1, 1, 1], 1.0, &mut rng);
        let mut g = Graph::new();
        let x = g.leaf(xt.clone());
        let w = g.leaf(wt);
        let y = g.conv2d(x, w, spec);
        let s = g.sum(y);
        g.backward(s);
        let dw = g.grad(w).unwrap();
        let expect = xt.sum();
        assert!((dw.data()[0] - expect).abs() < 1e-4);
        assert!((dw.data()[1] - expect).abs() < 1e-4);
    }
}
